import re
from dataclasses import replace

import numpy as np
import pytest

from doflab import bounds, linalg, schemes
from doflab.errors import (ConfigurationError, DegeneracyError,
                           DimensionError, DoflabError, RankError)
from doflab.linalg import Tolerance, intersection_dim, null_space_basis, range_basis
from doflab.network import (ChannelSet, NetworkConfig, channel_set,
                            generate_channels)
from doflab.schemes import (NSIA, SCHEME_VARIANT, ZF, Scheme,
                            alignment_planes, build_nsia, build_zf_precoders,
                            desired_matrix, pi_transform, verify_scheme)
from doflab.simulation import estimate_dof_slope, random_precoders, sum_rate

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
    for m in (1, 2):
        for l, k in cs.config.interferers(m):
            h = cs.channel(m, l, k)
            w = pre.precoder(l, k)
            assert w.shape == (3, 1)
            assert np.linalg.norm(h @ w) / np.linalg.norm(h) <= 1e-10


def test_zf_precoders_cannot_overwrite_the_stored_null_spaces():
    # a zf precoder is the channel set's stored null space itself, so both
    # are read-only: a write would corrupt every later build on the set
    cs = generate_channels(NetworkConfig(L=2, K=2, M=3, N=2, seed=3))
    with pytest.raises(ValueError, match="read-only"):
        build_zf_precoders(cs).precoder(2, 1)[:] = 1
    assert verify_scheme(build_zf_precoders(cs)).decodable


def test_zf_single_user_closed_form():
    # 1x2 cross channel (h1, h2): its null vector is proportional to
    # (-h2, h1); verified against the construction and by direct product
    cs = channels_for(1, 1, bounds.TX_HEAVY, seed=5)
    pre = build_zf_precoders(cs)
    for m in (1, 2):
        [(l, k)] = cs.config.interferers(m)
        h = cs.channel(m, l, k)
        w = pre.precoder(l, k)[:, 0]
        expected = np.array([-h[0, 1], h[0, 0]])
        expected /= np.linalg.norm(expected)
        assert abs(abs(np.vdot(expected, w)) - 1.0) <= 1e-12
        assert abs(h @ w) <= 1e-12 * np.linalg.norm(h)


@pytest.mark.parametrize("factor", [1e200, float("nan")])
def test_verify_refuses_non_finite_leakage(factor):
    # a precoder scaled by 1e200 overflows the leak's norm to inf, and a
    # NaN precoder makes it NaN; a NaN leak must not fold into a zero
    # residual and a pass
    pre = build_zf_precoders(channels_for(2, 1, bounds.TX_HEAVY, seed=3))
    precoders = {**pre.precoders, (2, 1): pre.precoder(2, 1) * factor}
    with pytest.raises(DegeneracyError, match=r"cross link \(m=1, l=2, k=1\)"):
        verify_scheme(Scheme("zf", pre.channels, precoders))


def test_verify_refuses_a_plane_of_the_wrong_shape():
    # a hand-built plane of another shape is named when the scheme is
    # made, not left to fail inside the stacked products of the other
    # base station's plane
    built = build_nsia(channels_for(2, 1, bounds.RX_HEAVY, seed=3))
    for plane in (built.projector(2)[:1], built.projector(2)[:, :-1]):
        with pytest.raises(DimensionError,
                           match=rf"plane at base station 2 has shape "
                                 rf"\({plane.shape[0]}, {plane.shape[1]}\), "
                                 rf"expected \(2, 3\)"):
            Scheme("nsia", built.channels, built.precoders,
                   {1: built.projector(1), 2: plane})


def test_a_scheme_refuses_misshapen_precoders_and_planes_when_made():
    # every scheme carries an M x beta precoder for each user and, with
    # receive planes, a K*beta x N plane for each base station, which is
    # what makes verify_scheme's rank target K*beta sound; a hand-built
    # user sending two streams, like any other misfit, is refused by name
    zf = build_zf_precoders(channels_for(2, 1, bounds.TX_HEAVY, seed=8))
    nsia = build_nsia(channels_for(2, 1, bounds.RX_HEAVY, seed=3))
    two_streams = np.linalg.qr(linalg.random_matrix(
        3, 2, rng=linalg.seeded_rng(8, 1)))[0]
    pre, planes = nsia.precoders, nsia.projectors
    cases = [
        (zf, {**zf.precoders, (1, 1): two_streams}, None,
         "precoder of user (l=1, k=1) has shape (3, 2), expected (3, 1)"),
        (nsia, {key: w for key, w in pre.items() if key != (2, 1)}, planes,
         "precoder of user (l=2, k=1) is missing"),
        (nsia, {**pre, (3, 1): pre[(1, 1)]}, planes,
         "precoder keyed (3, 1) is not in the network"),
        (nsia, pre, {1: planes[1].T, 2: planes[2]},
         "plane at base station 1 has shape (3, 2), expected (2, 3)"),
        (nsia, pre, {2: planes[2]}, "plane at base station 1 is missing"),
        (nsia, pre, {**planes, 3: planes[1]},
         "plane keyed 3 is not in the network"),
    ]
    for built, precoders, projectors, message in cases:
        with pytest.raises(DimensionError) as exc:
            Scheme(built.name, built.channels, precoders, projectors)
        assert str(exc.value) == message


def test_a_scheme_takes_nested_lists_of_the_checked_shapes():
    # the shape check reads np.shape, so a list is checked like an array:
    # refused by its user's name when misshapen, verified when it fits
    zf = build_zf_precoders(channels_for(1, 1, bounds.TX_HEAVY, seed=3))
    with pytest.raises(DimensionError, match=re.escape(
            "precoder of user (l=1, k=1) has shape (2,), expected (2, 1)")):
        Scheme(ZF, zf.channels, {**zf.precoders, (1, 1): [1.0, 0.0]})
    listed = Scheme(ZF, zf.channels, {user: w.tolist()
                                      for user, w in zf.precoders.items()})
    assert verify_scheme(listed).decodable


def test_every_builder_hands_the_scheme_read_only_arrays():
    # a write into a plane of build_nsia's would leave its null_dims stale:
    # verify_scheme would still report null dimension 1 where the written
    # plane has none
    cs = generate_channels(NetworkConfig(L=2, K=2, M=2, N=3, seed=3))
    with pytest.raises(ValueError, match="read-only"):
        build_nsia(cs).projector(1)[...] = (np.arange(6).reshape(2, 3)
                                            + 1j * np.eye(2, 3))
    zf = build_zf_precoders(channels_for(2, 1, bounds.TX_HEAVY, seed=3))
    nsia = build_nsia(cs)
    made = [zf, nsia, random_precoders(zf.channels),
            pi_transform(nsia, {m: 2 * np.eye(2) for m in (1, 2)})]
    for scheme in made:
        for array in (*scheme.precoders.values(),
                      *(scheme.projectors or {}).values()):
            assert not array.flags.writeable, scheme.name


def test_builders_and_transforms_make_schemes_of_the_checked_shapes():
    zf = build_zf_precoders(channels_for(2, 2, bounds.TX_HEAVY, seed=1))
    nsia = build_nsia(channels_for(2, 2, bounds.RX_HEAVY, seed=1))
    made = [zf, nsia, random_precoders(zf.channels),
            pi_transform(nsia, {m: 2 * np.eye(4) for m in (1, 2)})]
    for scheme in made:
        cfg = scheme.channels.config
        assert sorted(scheme.precoders) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert {w.shape for w in scheme.precoders.values()} == {(cfg.M, 2)}
        if scheme.projectors is not None:
            assert {m: p.shape for m, p in scheme.projectors.items()} == {
                1: (4, cfg.N), 2: (4, cfg.N)}
        assert verify_scheme(scheme).decodable is (scheme.name != "random")


@pytest.mark.parametrize("build, variant", [
    (build_zf_precoders, bounds.TX_HEAVY), (build_nsia, bounds.RX_HEAVY)])
@pytest.mark.parametrize("factor", [1e-150, 1e-165, 1e-200])
def test_verify_residual_survives_tiny_channels(build, variant, factor):
    # on the unscaled links the leak's Frobenius norms underflow: to a
    # residual of exactly 0.0 at 1e-150, and to a refused 0/0 from 1e-165
    cs = channels_for(2, 1, variant, seed=3)
    scaled = channel_set(cs.config, {key: h * factor
                                     for key, h in cs.channels.items()})
    reference = verify_scheme(build(cs)).residual_interference
    report = verify_scheme(build(scaled))
    assert report.decodable
    assert reference / 10 <= report.residual_interference <= reference * 10


def test_verify_residual_keeps_its_bits_under_a_power_of_two():
    # verifying the same precoders on channels scaled by 2**-540 (about
    # 3e-163, whose squares underflow) measures every leak on the same
    # unit-scaled link
    pre = build_zf_precoders(channels_for(3, 2, bounds.TX_HEAVY, seed=4))
    cs = pre.channels
    scaled = channel_set(cs.config, {key: h * 2.0**-540
                                     for key, h in cs.channels.items()})
    assert (verify_scheme(Scheme("zf", scaled, pre.precoders)).residual_interference
            == verify_scheme(pre).residual_interference)


def test_zf_rejects_wrong_profile():
    cfg = NetworkConfig(L=2, K=2, M=4, N=2, beta=1, seed=0)
    with pytest.raises(ConfigurationError):
        build_zf_precoders(generate_channels(cfg))


@pytest.mark.parametrize("scheme, build", [(ZF, build_zf_precoders),
                                           (NSIA, build_nsia)])
def test_builders_require_their_schemes_antenna_profile(scheme, build):
    # each builder needs bounds.antenna_profile at the profile
    # SCHEME_VARIANT names, and refuses the other one naming both, with
    # the text of bounds.require_profile
    assert set(SCHEME_VARIANT) == {ZF, NSIA}
    variant = SCHEME_VARIANT[scheme]
    (other,) = set(bounds.VARIANTS) - {variant}
    M, N = bounds.antenna_profile(3, 2, other)
    cs = generate_channels(NetworkConfig(L=2, K=3, M=M, N=N, beta=2, seed=0))
    with pytest.raises(ConfigurationError) as exc:
        build(cs)
    expected = bounds.antenna_profile(3, 2, variant)
    assert str(exc.value) == (f"the {variant} profile at K=3, beta=2 is L=2, "
                              f"(M, N)={expected}; got L=2, (M, N)=({M}, {N})")


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
    report = verify_scheme(pre)
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
    report = verify_scheme(scheme)
    for m in (1, 2):
        p = scheme.projector(m)
        assert p.shape == (2, 3)
        np.testing.assert_allclose(p @ p.conj().T, np.eye(2), atol=1e-12)
        g = desired_matrix(scheme, m)
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
    report = verify_scheme(scheme)
    for m in (1, 2):
        [user] = cs.config.interferers(m)
        h = cs.channel(m, *user)
        p = scheme.projector(m)
        expected = np.array([-h[1, 0].conj(), h[0, 0].conj()])
        expected /= np.linalg.norm(expected)
        assert abs(abs(np.vdot(expected.conj(), p[0])) - 1.0) <= 1e-12
        assert np.linalg.norm(p @ h) <= 1e-12 * np.linalg.norm(h)
        assert report.null_dims[(m, 1)] == 1
    assert report.decodable


def test_nsia_two_streams():
    cs = channels_for(2, 2, bounds.RX_HEAVY, seed=7)
    report = verify_scheme(build_nsia(cs))
    assert all(d == 2 for d in report.null_dims.values())
    assert report.effective_rank == {1: 4, 2: 4}
    assert report.decodable


def test_rank_deficient_alignment_plane_raises_degeneracy():
    # two users behind the same cross channel get the same null space, so
    # base station 1's stacked 2 x 3 plane has rank 1
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=14)
    nulls = dict(cs.cross_nulls)
    nulls[(1, 2, 2)] = nulls[(1, 2, 1)]
    with pytest.raises(DegeneracyError) as exc:
        build_nsia(ChannelSet(cs.config, cs.channels, nulls))
    assert str(exc.value) == "stacked alignment plane at base station 1 lost rank"


def test_stacked_alignment_planes_equal_each_plane_alone():
    # a (T, K, N, beta) stack gives each plane the bits and strides of
    # alignment_planes on that plane alone, which are build_nsia's; the
    # mask marks the one plane whose two users share a null space
    sets = [channels_for(2, 2, bounds.RX_HEAVY, seed=seed) for seed in (0, 1)]
    nulls = np.stack([
        np.stack([cs.cross_null(m, *user)
                  for user in cs.config.interferers(m)])
        for cs in sets for m in (1, 2)])
    nulls[3, 1] = nulls[3, 0]
    planes, full_rank = alignment_planes(nulls, TOL)
    assert planes.shape == (4, 4, 6)
    assert full_rank.tolist() == [True, True, True, False]
    for t in range(4):
        plane, ok = alignment_planes(nulls[t], TOL)
        assert ok == full_rank[t]
        assert plane.strides == planes[t].strides
        assert np.array_equal(plane, planes[t])
        if ok:
            built = build_nsia(sets[t // 2]).projector(t % 2 + 1)
            assert built.strides == plane.strides
            assert np.array_equal(built, plane)


@pytest.mark.parametrize("factor", [1e-300, 1e150, 1e154, 1e200, 1e300, 4e307])
def test_nsia_builds_far_from_unit_magnitude(factor):
    # channel_set does not range-check its links as replays do.  The
    # Frobenius norm of a link overflows from about 1e154 and underflows
    # near 1e-300; the threshold scale of each projected link is taken on
    # its unit-scaled factors, so both the build and the fresh measurement
    # of transformed planes rank it as at unit magnitude
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=3)
    scaled = channel_set(cs.config, {key: h * factor
                                     for key, h in cs.channels.items()})
    built = build_nsia(cs)
    transformed = pi_transform(Scheme("nsia", scaled, built.precoders,
                                      built.projectors),
                               {1: np.eye(2), 2: np.eye(2)})
    assert verify_scheme(build_nsia(scaled)).decodable
    assert verify_scheme(transformed).decodable


def test_nsia_refuses_a_product_scale_that_overflows():
    # an infinite threshold would rank the projected link 0.  At 5e307
    # each link and its Frobenius norm are finite, but the norm of H_1,21
    # times that of P_1 (sqrt(2)) is past double precision's range, and so
    # is the norm of a 1e300 link times that of 1e10 P_1; the fresh
    # measurement of such transformed planes names the link before
    # P_1 H_1,21 overflows
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=3)

    def scaled(factor):
        return channel_set(cs.config, {key: h * factor
                                       for key, h in cs.channels.items()})

    built = build_nsia(cs)
    transformed = pi_transform(Scheme("nsia", scaled(1e300), built.precoders,
                                      built.projectors),
                               {1: 1e10 * np.eye(2), 2: 1e10 * np.eye(2)})
    message = ("threshold scale of projected cross channel (m=1, l=2, k=1) "
               "is inf: channel magnitudes overflow double precision")
    for refused in (lambda: build_nsia(scaled(5e307)),
                    lambda: verify_scheme(transformed)):
        with pytest.raises(DegeneracyError) as exc:
            refused()
        assert str(exc.value) == message


def test_product_scale_keeps_its_bits_under_a_power_of_two():
    built = build_nsia(channels_for(2, 1, bounds.RX_HEAVY, seed=3))
    p, h = built.projector(1), built.channels.channel(1, 2, 1)
    scale = (np.linalg.norm(p, axis=(-2, -1))
             * np.linalg.norm(h, axis=(-2, -1)))
    assert linalg.product_scales(p, h) == scale
    assert linalg.product_scales(p, h * 2.0**-540) == scale * 2.0**-540


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
    report = verify_scheme(scheme)
    assert report.decodable
    for m in (1, 2):
        p = scheme.projector(m)
        p_null = null_space_basis(p, TOL)
        for j, user in enumerate(cs.config.interferers(m), start=1):
            h = cs.channel(m, *user)
            assert report.null_dims[(m, j)] == beta
            assert intersection_dim(range_basis(h, TOL), p_null, TOL) == beta


# ---------------------------------------------------------------------------
# verification of non-designed precoders
# ---------------------------------------------------------------------------

def test_random_precoders_do_not_self_align():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=8)
    pre = random_precoders(cs)
    report = verify_scheme(pre)
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
    assert same.channels is scheme.channels
    assert sum_rate(same, 1e4) == sum_rate(scheme, 1e4)


def test_pi_transform_preserves_null_dims_and_ranks():
    # the transformed planes carry no null_dims and are measured afresh,
    # by the build's own function: they report the stored null_dims, also
    # where K=1's projected cross channel cancels to zero
    for K, beta, seed in [(2, 1, 10), (1, 1, 9), (3, 2, 4)]:
        scheme = build_nsia(channels_for(K, beta, bounds.RX_HEAVY, seed=seed))
        baseline = verify_scheme(scheme)
        assert baseline.null_dims == scheme.null_dims
        assert pi_transform(scheme, {m: np.eye(K * beta)
                                     for m in (1, 2)}).null_dims is None
        rng = linalg.seeded_rng(seed, 99)
        for pi in [{m: np.eye(K * beta) for m in (1, 2)}] + [
                {m: linalg.random_matrix(K * beta, K * beta, rng=rng)
                 for m in (1, 2)} for _ in range(10)]:
            report = verify_scheme(pi_transform(scheme, pi))
            assert report.null_dims == baseline.null_dims
            assert report.effective_rank == baseline.effective_rank


def test_unitary_pi_keeps_the_sum_rate():
    # a unitary Pi keeps the planes row-orthonormal, so the transformed
    # scheme is rated, and at the rate of the original
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=16)
    scheme = build_nsia(cs)
    rng = linalg.seeded_rng(16, 99)
    pi = {m: np.linalg.qr(linalg.random_matrix(2, 2, rng=rng))[0]
          for m in (1, 2)}
    rotated = pi_transform(scheme, pi)
    assert sum_rate(rotated, 1e4) == pytest.approx(sum_rate(scheme, 1e4),
                                                   rel=1e-9)


def test_pi_transform_rejects_singular():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=11)
    scheme = build_nsia(cs)
    with pytest.raises(RankError):
        pi_transform(scheme, {1: np.zeros((2, 2)), 2: np.zeros((2, 2))})
    # ranked at the scheme's own tolerance: diag(1, 1e-6) is singular at
    # rel_rank_tol 1e-3, where it would leave each cell rank 1
    coarse = build_nsia(channels_for(2, 1, bounds.RX_HEAVY, seed=11,
                                     tol=Tolerance(rel_rank_tol=1e-3)))
    with pytest.raises(RankError, match=r"^Pi\[1\] is singular at tolerance$"):
        pi_transform(coarse, {m: np.diag([1.0, 1e-6]) for m in (1, 2)})
    # Pi is checked as the Scheme checks its planes: one missing or extra
    # is named, not a bare KeyError or silently ignored
    for pi, message in [({1: np.eye(2)}, "Pi[2] is missing"),
                        ({1: np.eye(2), 2: np.eye(2), 3: np.eye(2)},
                         "Pi keyed 3 is not in the network"),
                        ({1: np.eye(3), 2: np.eye(2)},
                         "Pi[1] has shape (3, 3), expected (2, 2)")]:
        with pytest.raises(DimensionError) as exc:
            pi_transform(scheme, pi)
        assert str(exc.value) == message


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
    report = verify_scheme(pi_transform(scheme, {1: swap, 2: swap}))
    assert report.null_dims == verify_scheme(scheme).null_dims
    assert report.decodable == verify_scheme(scheme).decodable


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


# Each stacked call covers every link at K <= 4, so the SVD count does
# not grow with K.  zf: one SVD of the cross links and one of the direct
# links at the draw, one of both cells' desired matrices in verify.  nsia:
# the same 2 at the draw, one of both planes and one of the 2K projected
# cross channels in the build, 1 in verify.  A link factored on its own
# adds to either count.
@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("scheme,variant,svds", [("zf", bounds.TX_HEAVY, 3),
                                                 ("nsia", bounds.RX_HEAVY, 5)])
def test_generate_build_verify_factor_each_link_once(monkeypatch, scheme,
                                                     variant, svds, K):
    calls = count_svds(monkeypatch)
    build = build_zf_precoders if scheme == "zf" else build_nsia
    assert verify_scheme(build(channels_for(K, 1, variant, seed=3))).decodable
    assert len(calls) == svds


def test_verify_measures_projected_links_it_has_no_factors_for(monkeypatch):
    # pi_transform planes carry no stored null spaces, nor does a scheme
    # built by hand: verify then factors the 2K projected cross channels
    # as build_nsia does, with one stacked SVD, on top of its one SVD of
    # both cells' desired matrices
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=15)
    scheme = build_nsia(cs)
    twisted = pi_transform(scheme, {1: 2 * np.eye(2), 2: np.eye(2)})
    by_hand = Scheme(scheme.name, cs, scheme.precoders, scheme.projectors)
    for candidate, svds in [(scheme, 1), (twisted, 2), (by_hand, 2)]:
        calls = count_svds(monkeypatch)
        report = verify_scheme(candidate)
        assert len(calls) == svds
        assert report.null_dims == {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_user_alignment_verifies_planes_at_three_cells(seed):
    # the 3-user 2x2 interference channel (L=3, K=1, M=N=2) has 3 DoF by
    # one-shot alignment (Cadambe and Jafar, IEEE Trans. IT 2008), one
    # below the outer bound 4: each base station sees its two interferers
    # along one direction d and projects it away with a plane p, p d = 0
    cs = generate_channels(NetworkConfig(L=3, K=1, M=2, N=2, seed=seed))
    h = {(m, l): cs.channel(m, l, 1) for m in (1, 2, 3) for l in (1, 2, 3)}
    inv = np.linalg.inv
    e = inv(h[3, 2] @ inv(h[1, 2]) @ h[1, 3]) @ h[3, 1] @ inv(h[2, 1]) @ h[2, 3]
    v3 = np.linalg.eig(e)[1][:, :1]
    v = {1: inv(h[2, 1]) @ h[2, 3] @ v3, 2: inv(h[1, 2]) @ h[1, 3] @ v3, 3: v3}
    precoders = {(l, 1): w / np.linalg.norm(w) for l, w in v.items()}
    planes = {}
    for m, l in ((1, 2), (2, 1), (3, 1)):
        d = (h[m, l] @ precoders[(l, 1)])[:, 0]
        planes[m] = np.array([[-d[1], d[0]]]) / np.linalg.norm(d)
    scheme = Scheme("ia", cs, precoders, planes)
    report = verify_scheme(scheme)
    assert report.decodable
    assert report.residual_interference <= 1e-12
    assert report.effective_rank == {1: 1, 2: 1, 3: 1}
    # (m, j): base station m's j-th interfering user, cells before users
    assert report.null_dims == {(m, j): 1 for m in (1, 2, 3) for j in (1, 2)}
    est = estimate_dof_slope(scheme, report=report)
    assert abs(est.slope - 3) <= 0.03 * 3
    assert est.r_squared >= 0.999
    assert bounds.dof_outer_bound(1, 3, 2, 2).final_bound == 4



def test_interferers_key_every_projected_null_at_three_cells():
    # NetworkConfig.interferers(m) lists the users of the other cells,
    # cells before users; (m, j) keys the projected null of its j-th entry.
    # Each plane P_m annihilates exactly its m-th interferer (H is N x 1),
    # so only (m, m) has a null dimension of 1
    cfg = NetworkConfig(L=3, K=2, M=1, N=3, seed=4)
    assert [cfg.interferers(m) for m in (1, 2, 3)] == [
        [(2, 1), (2, 2), (3, 1), (3, 2)],
        [(1, 1), (1, 2), (3, 1), (3, 2)],
        [(1, 1), (1, 2), (2, 1), (2, 2)]]
    for m in (0, 4):
        with pytest.raises(IndexError, match="out of range 1..3"):
            cfg.interferers(m)
    cs = generate_channels(cfg)
    planes = {m: null_space_basis(
                  cs.channel(m, *cfg.interferers(m)[m - 1]).conj().T,
                  TOL).conj().T
              for m in (1, 2, 3)}
    keys = [(m, j) for m in (1, 2, 3) for j in (1, 2, 3, 4)]
    projected = schemes._projected_nulls(cs, planes)
    assert list(projected) == keys
    assert {key: dim for key, (dim, _, _) in projected.items()} == {
        (m, j): int(j == m) for m, j in keys}
    report = verify_scheme(Scheme("hand", cs, random_precoders(cs).precoders,
                                  planes))
    assert list(report.null_dims) == keys
    assert report.null_dims == {(m, j): int(j == m) for m, j in keys}


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("beta", [1, 2])
def test_nsia_stores_projected_nulls_under_the_verified_keys(K, beta):
    # build_nsia takes the null space of (m, j) as the precoder of user
    # interferers(m)[j - 1], and stores its dimension in null_dims under
    # the keys verify_scheme measures afresh
    scheme = build_nsia(channels_for(K, beta, bounds.RX_HEAVY, seed=K))
    cs, cfg = scheme.channels, scheme.channels.config
    measured = verify_scheme(replace(scheme, null_dims=None)).null_dims
    assert list(scheme.null_dims) == list(measured)
    assert list(measured) == [(m, j) for m in (1, 2) for j in range(1, K + 1)]
    assert scheme.null_dims == measured == {key: beta for key in measured}
    projected = schemes._projected_nulls(cs, scheme.projectors)
    for m, j in scheme.null_dims:
        _, basis, _ = projected[(m, j)]
        np.testing.assert_array_equal(
            scheme.precoder(*cfg.interferers(m)[j - 1]), basis)

def test_scheme_report_serialization():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=13)
    doc = verify_scheme(build_nsia(cs)).to_dict()
    assert doc["scheme"] == "nsia"
    assert doc["decodable"] is True
    assert {e["cell"] for e in doc["effective_rank"]} == {1, 2}
    assert all(e["dim"] == 1 for e in doc["null_dims"])


def test_equality_of_array_holders_is_identity():
    # two draws from one config hold equal arrays; == must answer False
    # instead of raising on comparing them, and an object equals itself
    first, second = (channels_for(2, 1, bounds.RX_HEAVY, seed=4)
                     for _ in range(2))
    pairs = [(first, second), (build_nsia(first), build_nsia(second))]
    for a, b in pairs:
        assert (a == b) is False
        assert (a != b) is True
        assert a == a
