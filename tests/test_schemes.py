import numpy as np
import pytest

from doflab import bounds, linalg
from doflab.errors import (ConfigurationError, DegeneracyError, DoflabError,
                           RankError)
from doflab.linalg import Tolerance, intersection_dim, null_space_basis, range_basis
from doflab.network import ChannelSet, NetworkConfig, generate_channels
from doflab.schemes import (Scheme, alignment_plane, build_nsia,
                            build_zf_precoders, desired_matrix, other_cell,
                            pi_transform, verify_scheme)
from doflab.simulation import random_precoders

TOL = Tolerance()


def channels_for(K, beta, variant, seed=0, **kw):
    M, N = bounds.antenna_profile(K, beta, variant)
    cfg = NetworkConfig(L=2, K=K, M=M, N=N, beta=beta, seed=seed, **kw)
    return generate_channels(cfg)


# ---------------------------------------------------------------------------
# zero forcing
# ---------------------------------------------------------------------------

def test_zf_cancels_cross_channels():
    cs = channels_for(2, 1, bounds.TX_HEAVY, seed=3)
    pre = build_zf_precoders(cs)
    for l in (1, 2):
        victim = other_cell(l)
        for k in (1, 2):
            h = cs.channel(victim, l, k)
            w = pre.precoder(l, k)
            assert w.shape == (3, 1)
            assert np.linalg.norm(h @ w) / np.linalg.norm(h) <= 1e-10


def test_zf_single_user_closed_form():
    # 1x2 cross channel (h1, h2): its null vector is proportional to
    # (-h2, h1); verified against the construction and by direct product
    cs = channels_for(1, 1, bounds.TX_HEAVY, seed=5)
    pre = build_zf_precoders(cs)
    for l in (1, 2):
        h = cs.channel(other_cell(l), l, 1)
        w = pre.precoder(l, 1)[:, 0]
        expected = np.array([-h[0, 1], h[0, 0]])
        expected /= np.linalg.norm(expected)
        assert abs(abs(np.vdot(expected, w)) - 1.0) <= 1e-12
        assert abs(h @ w) <= 1e-12 * np.linalg.norm(h)


@pytest.mark.parametrize("factor", [1e200, 1e-200])
def test_verify_refuses_non_finite_leakage(factor):
    # the Frobenius norms overflow (1e200) or underflow to 0/0 (1e-200);
    # a NaN leak must not fold into a zero residual and a pass
    cs = channels_for(2, 1, bounds.TX_HEAVY, seed=3)
    scaled = ChannelSet(cs.config, {key: h * factor
                                    for key, h in cs.channels.items()})
    pre = build_zf_precoders(scaled)
    with pytest.raises(DegeneracyError, match=r"cross link \(m=1, l=2, k=1\)"):
        verify_scheme(scaled, pre)


def test_zf_rejects_wrong_profile():
    cfg = NetworkConfig(L=2, K=2, M=4, N=2, beta=1, seed=0)
    with pytest.raises(ConfigurationError):
        build_zf_precoders(generate_channels(cfg))


def test_zf_rejects_three_cells():
    cfg = NetworkConfig(L=3, K=2, M=3, N=2, beta=1, seed=0)
    with pytest.raises(ConfigurationError):
        build_zf_precoders(generate_channels(cfg))


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zf_alignment_and_decodability_grid(K, beta, seed):
    cs = channels_for(K, beta, bounds.TX_HEAVY, seed=seed)
    pre = build_zf_precoders(cs)
    report = verify_scheme(cs, pre)
    assert report.scheme == "zf"
    assert report.residual_interference <= 10 * TOL.rel_rank_tol
    assert report.effective_rank == {1: K * beta, 2: K * beta}
    assert report.decodable
    # achievability meets the converse: 2*K*beta streams delivered
    delivered = sum(report.effective_rank.values())
    assert delivered == bounds.converse_two_cell(K, beta, bounds.TX_HEAVY)


# ---------------------------------------------------------------------------
# null-space interference alignment
# ---------------------------------------------------------------------------

def test_nsia_shapes_and_null_dims():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=4)
    scheme = build_nsia(cs)
    report = verify_scheme(cs, scheme)
    for m in (1, 2):
        p = scheme.projector(m)
        assert p.shape == (2, 3)
        np.testing.assert_allclose(p @ p.conj().T, np.eye(2), atol=1e-12)
        g = desired_matrix(cs, scheme, m)
        assert g.shape == (2, 2)  # projected: K*beta rows, not N
        assert linalg.numeric_rank(g, TOL) == 2
    assert report.null_dims == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}
    assert report.decodable


def test_nsia_single_user_closed_form():
    # K=1: P_m is the conjugate-transposed null vector of the 2x1 cross
    # channel, so the projected cross channel is identically zero and the
    # 1x1 effective channel has a 1-dimensional null space
    cs = channels_for(1, 1, bounds.RX_HEAVY, seed=6)
    scheme = build_nsia(cs)
    report = verify_scheme(cs, scheme)
    for m in (1, 2):
        h = cs.channel(m, other_cell(m), 1)
        p = scheme.projector(m)
        expected = np.array([-h[1, 0].conj(), h[0, 0].conj()])
        expected /= np.linalg.norm(expected)
        assert abs(abs(np.vdot(expected.conj(), p[0])) - 1.0) <= 1e-12
        assert np.linalg.norm(p @ h) <= 1e-12 * np.linalg.norm(h)
        assert report.null_dims[(m, 1)] == 1
    assert report.decodable


def test_nsia_two_streams():
    cs = channels_for(2, 2, bounds.RX_HEAVY, seed=7)
    report = verify_scheme(cs, build_nsia(cs))
    assert all(d == 2 for d in report.null_dims.values())
    assert report.effective_rank == {1: 4, 2: 4}
    assert report.decodable


def test_rank_deficient_alignment_plane_raises_degeneracy():
    # two users behind the same cross channel get the same null space, so
    # the stacked 2 x 3 plane has rank 1
    null = channels_for(2, 1, bounds.RX_HEAVY, seed=14).cross_null(1, 2, 1)
    with pytest.raises(DegeneracyError) as exc:
        alignment_plane([null, null], 1, TOL, 1)
    assert str(exc.value) == "stacked alignment plane at base station 1 lost rank"


def test_nsia_rejects_wrong_profile():
    cfg = NetworkConfig(L=2, K=2, M=2, N=4, beta=1, seed=0)
    with pytest.raises(ConfigurationError):
        build_nsia(generate_channels(cfg))


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nsia_dimension_chain_grid(K, beta, seed):
    # exercises the equivalence dim null(P H) = dim(ran(H) ∩ null(P)) = beta
    cs = channels_for(K, beta, bounds.RX_HEAVY, seed=seed)
    scheme = build_nsia(cs)
    report = verify_scheme(cs, scheme)
    assert report.decodable
    for m in (1, 2):
        p = scheme.projector(m)
        p_null = null_space_basis(p, TOL)
        for k in range(1, K + 1):
            h = cs.channel(m, other_cell(m), k)
            assert report.null_dims[(m, k)] == beta
            assert intersection_dim(range_basis(h, TOL), p_null, TOL) == beta


# ---------------------------------------------------------------------------
# verification of non-designed precoders
# ---------------------------------------------------------------------------

def test_random_precoders_do_not_self_align():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=8)
    pre = random_precoders(cs)
    report = verify_scheme(cs, pre)
    assert report.scheme == "random"
    assert report.residual_interference > 1e-2
    assert not report.decodable
    # the desired aggregate alone is still generically full rank
    assert report.effective_rank == {1: 2, 2: 2}
    assert report.null_dims is None


# ---------------------------------------------------------------------------
# pi transform
# ---------------------------------------------------------------------------

def test_pi_transform_identity():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=9)
    scheme = build_nsia(cs)
    same = pi_transform(scheme, {1: np.eye(2), 2: np.eye(2)})
    for m in (1, 2):
        np.testing.assert_array_equal(same.projector(m), scheme.projector(m))
    assert same.precoders is scheme.precoders
    assert not same.row_orthonormalized


def test_pi_transform_preserves_null_dims_and_ranks():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=10)
    scheme = build_nsia(cs)
    baseline = verify_scheme(cs, scheme)
    rng = linalg.seeded_rng(10, 99)
    for _ in range(10):
        pi = {m: linalg.random_matrix(2, 2, rng=rng) for m in (1, 2)}
        report = verify_scheme(cs, pi_transform(scheme, pi))
        assert report.null_dims == baseline.null_dims
        assert report.effective_rank == baseline.effective_rank


def test_pi_transform_rejects_singular():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=11)
    scheme = build_nsia(cs)
    with pytest.raises(RankError):
        pi_transform(scheme, {1: np.zeros((2, 2)), 2: np.zeros((2, 2))})


@pytest.mark.parametrize("variant,build", [
    (bounds.TX_HEAVY, build_zf_precoders),
    (bounds.TX_HEAVY, random_precoders)])
def test_pi_transform_refuses_scheme_without_planes(variant, build):
    scheme = build(channels_for(2, 1, variant, seed=11))
    assert scheme.projectors is None
    with pytest.raises(DoflabError, match="no receive planes"):
        pi_transform(scheme, {1: np.eye(2), 2: np.eye(2)})


def test_nsia_stacking_order_is_a_pi_choice():
    # swapping the user blocks of P_m is a permutation, i.e. some Pi
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=12)
    scheme = build_nsia(cs)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = verify_scheme(cs, pi_transform(scheme, {1: swap, 2: swap}))
    assert report.null_dims == verify_scheme(cs, scheme).null_dims
    assert report.decodable == verify_scheme(cs, scheme).decodable


# ---------------------------------------------------------------------------
# each link factored once
# ---------------------------------------------------------------------------

def count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def build_and_verify(cs, name):
    scheme = build_zf_precoders(cs) if name == "zf" else build_nsia(cs)
    return scheme, verify_scheme(cs, scheme)


# K=2, beta=1, L=2: 8 links.  zf: 4 cross null spaces and 4 direct ranks
# at the draw, 2 effective ranks in verify.  nsia: the same 8 at the draw,
# 2 plane ranks and 4 projected null spaces in the build, 2 effective ranks
# in verify.  A link factored twice adds to either count.
@pytest.mark.parametrize("scheme,variant,svds", [("zf", bounds.TX_HEAVY, 10),
                                                 ("nsia", bounds.RX_HEAVY, 16)])
def test_generate_build_verify_factor_each_link_once(monkeypatch, scheme,
                                                     variant, svds):
    calls = count_svds(monkeypatch)
    _, report = build_and_verify(channels_for(2, 1, variant, seed=3), scheme)
    assert report.decodable
    assert len(calls) == svds


@pytest.mark.parametrize("scheme,variant", [("zf", bounds.TX_HEAVY),
                                            ("nsia", bounds.RX_HEAVY)])
def test_channel_set_without_stored_factors_builds_the_same_scheme(scheme,
                                                                   variant):
    cs = channels_for(4, 2, variant, seed=5)  # K*beta = 8
    bare = ChannelSet(cs.config, dict(cs.channels))
    assert cs.cross_nulls and not bare.cross_nulls
    built, report = build_and_verify(cs, scheme)
    bare_built, bare_report = build_and_verify(bare, scheme)
    assert bare_report == report
    for key, w in built.precoders.items():
        assert np.array_equal(bare_built.precoder(*key), w)
    for m, p in (built.projectors or {}).items():
        assert np.array_equal(bare_built.projector(m), p)
    # factored on first use, and kept
    assert set(bare.cross_nulls) == set(cs.cross_nulls)


def test_verify_measures_projected_links_it_has_no_factors_for(monkeypatch):
    # pi_transform planes carry no stored null spaces, nor does a scheme
    # built by hand, and stored ones belong to the channel set they were
    # built from: in each case verify runs 2K projected rank SVDs on top of
    # its 2 effective ranks
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=15)
    scheme = build_nsia(cs)
    twisted = pi_transform(scheme, {1: 2 * np.eye(2), 2: np.eye(2)})
    copy = ChannelSet(cs.config, dict(cs.channels))
    by_hand = Scheme(scheme.name, scheme.precoders, scheme.projectors)
    cases = [(cs, scheme, 2), (cs, twisted, 6), (copy, scheme, 6),
             (cs, by_hand, 6)]
    for channels, candidate, svds in cases:
        calls = count_svds(monkeypatch)
        report = verify_scheme(channels, candidate)
        assert len(calls) == svds
        assert report.null_dims == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}


def test_scheme_report_serialization():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=13)
    doc = verify_scheme(cs, build_nsia(cs)).to_dict()
    assert doc["scheme"] == "nsia"
    assert doc["decodable"] is True
    assert {e["cell"] for e in doc["effective_rank"]} == {1, 2}
    assert all(e["dim"] == 1 for e in doc["null_dims"])


def test_equality_of_array_holders_is_identity():
    # two draws from one config hold equal arrays; == must answer False
    # instead of raising on comparing them, and an object equals itself
    first, second = (channels_for(2, 1, bounds.RX_HEAVY, seed=4)
                     for _ in range(2))
    pairs = [(first, second),
             (first.cross_null(1, 2, 1), second.cross_null(1, 2, 1)),
             (build_nsia(first), build_nsia(second))]
    for a, b in pairs:
        assert (a == b) is False
        assert (a != b) is True
        assert a == a
