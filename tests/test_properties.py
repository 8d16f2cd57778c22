"""Metamorphic properties of the two-cell schemes.

Decodability, effective ranks and projected null dimensions are rank
counts, so transforms that the maths says cannot change them must leave
them exactly equal: one common scale on every link, a unitary rotation at
a base station (H -> U_m H) or at a user (H -> H V_lk), and an invertible
Pi on the alignment planes.  Sum rates are log-dets of the rotated
products, so only their last bits may move under a rotation.

Scaling is common to all links on purpose.  Scaling the links of two users
of one cell differently gives the columns of G_m different magnitudes, and
a rank threshold relative to the largest singular value then rightly drops
the weaker user's streams, so per-link scaling is not an invariance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doflab import bounds, linalg
from doflab.network import ChannelSet, NetworkConfig, generate_channels
from doflab.schemes import (NSIA, ZF, build_nsia, build_zf_precoders,
                            pi_transform, verify_scheme)
from doflab.simulation import sum_rate

BUILDS = {ZF: (bounds.TX_HEAVY, build_zf_precoders),
          NSIA: (bounds.RX_HEAVY, build_nsia)}
# Relative tolerance on the sum rate of a rotated channel set.  Over 600
# rotated draws (seeds 0-24, each K, beta, scheme and rotation) the largest
# deviation was 1.8e-14.
RATE_RTOL = 1e-9
RHO = 1e3  # 30 dB

networks = dict(scheme=st.sampled_from(sorted(BUILDS)),
                K=st.integers(1, 3), beta=st.integers(1, 2),
                seed=st.integers(0, 2**32 - 1))


def draw(scheme, K, beta, seed):
    variant, build = BUILDS[scheme]
    M, N = bounds.antenna_profile(K, beta, variant)
    cs = generate_channels(NetworkConfig(L=2, K=K, M=M, N=N, beta=beta,
                                         seed=seed))
    return cs, build


def transformed(cs, fn):
    """A channel set without stored factors holding fn(m, l, k, H)."""
    return ChannelSet(cs.config, {key: fn(*key, h)
                                  for key, h in cs.channels.items()})


def unitary(n, seed, *key):
    q, _ = np.linalg.qr(linalg.random_matrix(n, n, rng=linalg.seeded_rng(
        seed, *key)))
    return q


def verdicts(cs, scheme):
    report = verify_scheme(cs, scheme)
    return report.decodable, report.effective_rank, report.null_dims


def rotate_base_stations(cs, seed):
    u = {m: unitary(cs.config.N, seed, 1, m) for m in (1, 2)}
    return transformed(cs, lambda m, l, k, h: u[m] @ h)


def rotate_users(cs, seed):
    v = {(l, k): unitary(cs.config.M, seed, 2, l, k)
         for l in (1, 2) for k in range(1, cs.config.K + 1)}
    return transformed(cs, lambda m, l, k, h: h @ v[(l, k)])


@given(**networks, exponent=st.integers(-100, 100))
@settings(max_examples=60, deadline=None)
def test_verdicts_invariant_under_common_scale(scheme, K, beta, seed,
                                               exponent):
    cs, build = draw(scheme, K, beta, seed)
    baseline = verdicts(cs, build(cs))
    assert baseline[0]
    scaled = transformed(cs, lambda m, l, k, h: h * 10.0 ** exponent)
    assert verdicts(scaled, build(scaled)) == baseline


@pytest.mark.parametrize("rotate", [rotate_base_stations, rotate_users])
@given(**networks)
@settings(max_examples=40, deadline=None)
def test_verdicts_and_rates_invariant_under_rotation(rotate, scheme, K, beta,
                                                     seed):
    cs, build = draw(scheme, K, beta, seed)
    rotated = rotate(cs, seed)
    built, rebuilt = build(cs), build(rotated)
    assert verdicts(rotated, rebuilt) == verdicts(cs, built)
    assert sum_rate(rotated, rebuilt, RHO) == pytest.approx(
        sum_rate(cs, built, RHO), rel=RATE_RTOL)


@given(K=st.integers(1, 3), beta=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_verdicts_invariant_under_pi(K, beta, seed):
    cs, build = draw(NSIA, K, beta, seed)
    scheme = build(cs)
    rng = linalg.seeded_rng(seed, 3)
    pi = {m: linalg.random_matrix(K * beta, K * beta, rng=rng) for m in (1, 2)}
    assert verdicts(cs, pi_transform(scheme, pi)) == verdicts(cs, scheme)
