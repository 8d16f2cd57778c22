"""Metamorphic properties of the two-cell schemes.

Decodability, effective ranks and projected null dimensions are rank
counts, so transforms that the maths says cannot change them must leave
them exactly equal: one common scale on every link, a unitary rotation at
a base station (H -> U_m H) or at a user (H -> H V_lk), and an invertible
Pi on the alignment planes.  Sum rates are log-dets of the rotated
products, so only their last bits may move under a rotation, and so may
the slope fitted to them.

Each cross link may also be scaled by its own gain: zero forcing precodes
in its null space and alignment stacks its null space into the planes,
and neither depends on the link's magnitude.  Direct links are scaled only
in common.  Scaling the direct links of two users of one cell differently
gives the columns of G_m different magnitudes, and a rank threshold
relative to the largest singular value then rightly drops the weaker
user's streams, so per-link scaling of direct links is not an invariance
(the README states the gain spread up to which the verdicts still hold).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doflab import bounds, linalg
from doflab.network import NetworkConfig, channel_set, generate_channels
from doflab.schemes import (NSIA, ZF, build_nsia, build_zf_precoders,
                            pi_transform, verify_scheme)
from doflab.simulation import estimate_dof_slope, sum_rate

BUILDS = {ZF: (bounds.TX_HEAVY, build_zf_precoders),
          NSIA: (bounds.RX_HEAVY, build_nsia)}
# Relative tolerance on the sum rate of a rotated channel set.  Over 600
# rotated draws (seeds 0-24, each K, beta, scheme and rotation) the largest
# deviation was 1.8e-14.
RATE_RTOL = 1e-9
# Relative tolerance on a slope fitted over the default SNR grid to the
# rates of a rotated channel set.  Over the same 600 draws the largest
# deviation was 8.9e-16.
SLOPE_RTOL = 1e-9
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
    """The channel set holding fn(m, l, k, H), checked and factored anew."""
    return channel_set(cs.config, {key: fn(*key, h)
                                   for key, h in cs.channels.items()})


def unitary(n, seed, *key):
    q, _ = np.linalg.qr(linalg.random_matrix(n, n, rng=linalg.seeded_rng(
        seed, *key)))
    return q


def verdicts(scheme):
    report = verify_scheme(scheme)
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
    baseline = verdicts(build(cs))
    assert baseline[0]
    scaled = transformed(cs, lambda m, l, k, h: h * 10.0 ** exponent)
    assert verdicts(build(scaled)) == baseline


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("scheme", sorted(BUILDS))
def test_verdicts_invariant_under_per_link_scaling_of_cross_links(
        scheme, K, beta, seed):
    # three draws a case: each cross link times its own 10^u, u uniform in
    # [-8, 8], so two links' gains may differ by up to 16 decades
    cs, build = draw(scheme, K, beta, seed)
    baseline = verdicts(build(cs))
    assert baseline[0]
    rng = np.random.default_rng([seed, K, beta])
    for _ in range(3):
        gain = {key: 10.0 ** rng.uniform(-8, 8)
                for key in cs.channels if key[0] != key[1]}
        scaled = transformed(cs, lambda m, l, k, h: h * gain.get((m, l, k), 1.0))
        assert verdicts(build(scaled)) == baseline


@pytest.mark.parametrize("rotate", [rotate_base_stations, rotate_users])
@given(**networks)
@settings(max_examples=40, deadline=None)
def test_verdicts_and_rates_invariant_under_rotation(rotate, scheme, K, beta,
                                                     seed):
    cs, build = draw(scheme, K, beta, seed)
    rotated = rotate(cs, seed)
    built, rebuilt = build(cs), build(rotated)
    assert verdicts(rebuilt) == verdicts(built)
    assert sum_rate(rebuilt, RHO) == pytest.approx(
        sum_rate(built, RHO), rel=RATE_RTOL)


@pytest.mark.parametrize("rotate", [rotate_base_stations, rotate_users])
@given(**networks)
@settings(max_examples=40, deadline=None)
def test_slope_invariant_under_rotation(rotate, scheme, K, beta, seed):
    cs, build = draw(scheme, K, beta, seed)
    slope = estimate_dof_slope(build(cs)).slope
    assert estimate_dof_slope(build(rotate(cs, seed))).slope == pytest.approx(
        slope, rel=SLOPE_RTOL)


@given(K=st.integers(1, 3), beta=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_verdicts_invariant_under_pi(K, beta, seed):
    cs, build = draw(NSIA, K, beta, seed)
    scheme = build(cs)
    rng = linalg.seeded_rng(seed, 3)
    pi = {m: linalg.random_matrix(K * beta, K * beta, rng=rng) for m in (1, 2)}
    assert verdicts(pi_transform(scheme, pi)) == verdicts(scheme)
