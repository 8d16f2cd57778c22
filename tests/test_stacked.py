"""The stacked scheme pipeline against a link-by-link reference, bit for bit.

Channel generation, channel replays, the nsia build, verification and the
random baseline's rate all run as stacked numpy calls over links of equal
shape.  Each reference below factors, builds and rates one link at a time,
as the pipeline did before it was stacked; every array, report and rate
must come out the same to the last bit, in the same memory layout.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from doflab import bounds, linalg, network, schemes, simulation
from doflab.errors import DegeneracyError, InputError, RankError
from doflab.network import NetworkConfig


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.strides == b.strides
            and np.array_equal(a, b))


def reference_null(cfg: NetworkConfig, m: int, l: int, h: np.ndarray):
    """The null space of cross link (m, l)'s wide orientation (H when it
    has no more rows than columns, else H*), None for a direct link; the
    link must have full rank."""
    if m == l:
        assert linalg.numeric_rank(h, cfg.tol) == min(cfg.M, cfg.N)
        return None
    null = linalg.null_space_basis(h if cfg.N <= cfg.M else h.conj().T, cfg.tol)
    assert null.dim == abs(cfg.M - cfg.N)
    return null


def reference_generate(cfg: NetworkConfig):
    # no draw of these cases is redrawn, so each link is the first draw
    # of its stream
    channels, nulls = {}, {}
    for m in range(1, cfg.L + 1):
        for l in range(1, cfg.L + 1):
            for k in range(1, cfg.K + 1):
                h = linalg.random_matrix(cfg.N, cfg.M, cfg.dist,
                                         linalg.seeded_rng(cfg.seed, m, l, k))
                channels[(m, l, k)] = h
                null = reference_null(cfg, m, l, h)
                if null is not None:
                    nulls[(m, l, k)] = null
    return channels, nulls


def reference_replay_nulls(cfg: NetworkConfig, channels: dict):
    nulls = {}
    for (m, l, k), h in sorted(channels.items()):
        null = reference_null(cfg, m, l, h)
        if null is not None:
            nulls[(m, l, k)] = null
    return nulls


def reference_nsia(cs):
    cfg = cs.config
    planes, precoders = {}, {}
    for m in (1, 2):
        interferers = cfg.interferers(m)
        rows = np.hstack([cs.cross_null(m, *user).basis
                          for user in interferers]).conj().T
        assert np.linalg.matrix_rank(rows) == rows.shape[0]
        q, _ = np.linalg.qr(rows.conj().T)  # numpy's QR, not linalg's
        p = q.conj().T
        planes[m] = p
        for l, k in interferers:
            h = cs.channel(m, l, k)
            null = linalg.null_space_basis(
                p @ h, cfg.tol, scale=np.linalg.norm(p) * np.linalg.norm(h))
            assert null.dim == cfg.beta
            precoders[(l, k)] = null.basis
    return planes, precoders


def reference_report(scheme) -> dict:
    cs = scheme.channels
    cfg = cs.config
    residual, ranks, null_dims = 0.0, {}, {}
    for m in (1, 2):
        p = scheme.projector(m)
        for j, (l, k) in enumerate(cfg.interferers(m), start=1):
            h = cs.channel(m, l, k)
            cross = h if p is None else p @ h
            leak = float(np.linalg.norm(cross @ scheme.precoder(l, k))
                         / np.linalg.norm(h))
            assert math.isfinite(leak)
            residual = max(residual, leak)
            if p is not None:
                null_dims[(m, j)] = cross.shape[1] - linalg.numeric_rank(
                    cross, cfg.tol, scale=np.linalg.norm(p) * np.linalg.norm(h))
        ranks[m] = linalg.numeric_rank(schemes.desired_matrix(scheme, m),
                                       cfg.tol)
    kb = cfg.K * cfg.beta
    return schemes.SchemeReport(
        scheme=scheme.name, residual_interference=residual,
        effective_rank=ranks,
        decodable=(all(r == kb for r in ranks.values())
                   and residual <= schemes.RESIDUAL_THRESHOLD),
        null_dims=null_dims or None).to_dict()


def reference_interference_rate(scheme, rho: float) -> float:
    cs = scheme.channels
    cfg = cs.config
    power = rho / cfg.beta
    total = 0.0
    for m in (1, 2):
        q_signal = np.zeros((cfg.N, cfg.N), dtype=complex)
        q_interf = np.zeros((cfg.N, cfg.N), dtype=complex)
        for k in range(1, cfg.K + 1):
            hw = cs.channel(m, m, k) @ scheme.precoder(m, k)
            q_signal += power * (hw @ hw.conj().T)
        for l, k in cfg.interferers(m):
            hw = cs.channel(m, l, k) @ scheme.precoder(l, k)
            q_interf += power * (hw @ hw.conj().T)
        eye = np.eye(cfg.N)
        _, num = np.linalg.slogdet(eye + q_interf + q_signal)
        _, den = np.linalg.slogdet(eye + q_interf)
        total += (num - den) / simulation.LOG2
    return total


def assert_same_sets(cs, channels, nulls):
    assert set(cs.channels) == set(channels)
    assert set(cs.cross_nulls) == set(nulls)
    for key, h in channels.items():
        assert same(cs.channels[key], h)
        assert not cs.channels[key].flags.writeable
    for key, null in nulls.items():
        got = cs.cross_nulls[key]
        assert (got.ambient_dim, got.dim) == (null.ambient_dim, null.dim)
        assert same(got.basis, null.basis)


def forbid_one_by_one(mp):
    """Make the one-link paths raise: the redraw of a link and the
    one-matrix rank functions.  A stacked check that refuses a healthy link
    would otherwise hide behind a correct redraw, and a refusal must come
    from the stacked result, not from factoring the link again."""
    def refuse(*args, **kwargs):
        raise AssertionError("a link or plane took a one-by-one path")

    for module, name in [(network, "draw_channel"),
                         (linalg, "null_space_basis"),
                         (linalg, "numeric_rank")]:
        mp.setattr(module, name, refuse)


@pytest.mark.parametrize("dist", linalg.DISTRIBUTIONS)
@pytest.mark.parametrize("variant", [bounds.TX_HEAVY, bounds.RX_HEAVY])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_stacked_pipeline_equals_the_link_by_link_reference(
        monkeypatch, K, beta, variant, dist):
    M, N = bounds.antenna_profile(K, beta, variant)
    grid = simulation.DEFAULT_SNR_GRID.linear
    for seed in (0, 7 * K + beta):
        cfg = NetworkConfig(L=2, K=K, M=M, N=N, beta=beta, seed=seed,
                            dist=dist)
        with monkeypatch.context() as mp:
            forbid_one_by_one(mp)
            cs = network.generate_channels(cfg)
            doc = network.channel_set_to_dict(cs)
            replay = network.channel_set_from_dict(doc)
            if variant == bounds.RX_HEAVY:
                scheme = schemes.build_nsia(cs)
            else:
                scheme = schemes.build_zf_precoders(cs)
                baseline = simulation.random_precoders(cs)
                baseline_rates = simulation.estimate_dof_slope(baseline).sum_rates
            report = schemes.verify_scheme(scheme)
            rates = simulation.estimate_dof_slope(scheme, report=report).sum_rates

        channels, nulls = reference_generate(cfg)
        assert_same_sets(cs, channels, nulls)
        copies = {key: h.copy() for key, h in cs.channels.items()}
        assert_same_sets(replay, channels, reference_replay_nulls(cfg, copies))
        if variant == bounds.RX_HEAVY:
            planes, precoders = reference_nsia(cs)
            for m in (1, 2):
                assert same(scheme.projector(m), planes[m])
                for k in range(1, K + 1):
                    assert scheme.null_dims[(m, k)] == beta
        else:
            precoders = {(l, k): cs.cross_null(3 - l, l, k).basis
                         for l in (1, 2) for k in range(1, K + 1)}
            assert baseline_rates == tuple(
                reference_interference_rate(baseline, rho) for rho in grid)
            assert baseline_rates[0] == simulation.interference_limited_rate(
                baseline, grid[0])
        assert set(scheme.precoders) == set(precoders)
        for user, w in precoders.items():
            assert same(scheme.precoder(*user), w)
        assert report.to_dict() == reference_report(scheme)
        assert rates == tuple(simulation.sum_rate(scheme, rho, report)
                              for rho in grid)


def test_a_link_that_fails_the_stacked_check_is_redrawn_on_its_own(
        monkeypatch, caplog):
    # the check of the whole stack reports link (1, 2, 1) as rank-deficient:
    # draw_channel draws it again from the start of its stream and checks
    # it on a stack of one, which passes it; the same matrix comes out, no
    # warning is logged and the set is bit for bit the same
    cfg = NetworkConfig(L=2, K=2, M=2, N=3, beta=1, seed=5)
    expected = network.generate_channels(cfg)
    checks = network._link_checks

    def refusing(config, links, h):
        for link, result in zip(links, checks(config, links, h)):
            refused = link == (1, 2, 1) and len(links) > 1
            yield (0, None) if refused else result

    drawn = []
    draw = network.draw_channel
    monkeypatch.setattr(network, "_link_checks", refusing)
    monkeypatch.setattr(network, "draw_channel",
                        lambda *args: drawn.append(args[1:]) or draw(*args))
    cs = network.generate_channels(cfg)
    assert drawn == [(1, 2, 1)]
    assert not caplog.records
    assert_same_sets(cs, expected.channels, expected.cross_nulls)


def test_nsia_plane_that_fails_the_stacked_check_raises_its_error(monkeypatch):
    # a plane the stacked rank refuses raises its error from that result;
    # here both users of base station 2 share one null space, so only its
    # plane loses rank
    cs = network.generate_channels(NetworkConfig(L=2, K=2, M=2, N=3, beta=1,
                                                 seed=6))
    nulls = dict(cs.cross_nulls)
    nulls[(2, 1, 2)] = nulls[(2, 1, 1)]
    twin = network.ChannelSet(cs.config, cs.channels, nulls)
    forbid_one_by_one(monkeypatch)
    with pytest.raises(DegeneracyError) as exc:
        schemes.build_nsia(twin)
    assert str(exc.value) == "stacked alignment plane at base station 2 lost rank"


# Each refusal below is raised from the stacked check's own result, with
# the error type and text of checking the link on its own.

def replay_doc(seed: int):
    # K=2 at the tx-heavy profile: cross links are 2 x 3
    return network.channel_set_to_dict(network.generate_channels(
        NetworkConfig(L=2, K=2, M=3, N=2, beta=1, seed=seed)))


@pytest.mark.parametrize("index,link", [(1, "(m=1, l=1, k=2)"),
                                        (2, "(m=1, l=2, k=1)")])
def test_replay_refuses_a_rank_deficient_link_from_the_stack(
        monkeypatch, index, link):
    # entry 1 is the direct link (1, 1, 2), entry 2 the cross link
    # (1, 2, 1); both rows made equal leaves rank 1
    doc = replay_doc(12)
    entry = doc["channels"][index]
    for part in ("re", "im"):
        entry[part] = [entry[part][0]] * 2
    forbid_one_by_one(monkeypatch)
    with pytest.raises(InputError) as exc:
        network.channel_set_from_dict(doc)
    assert str(exc.value) == (
        f"channel {link} has numeric rank 1 at rel_rank_tol=1e-10, below "
        f"min(M, N)=2: channels must be nondegenerate")


def test_replay_refuses_a_basis_that_fails_the_gram_check(monkeypatch):
    # with no Gram error small enough, the first cross link in (m, l, k)
    # order, (1, 2, 1), is refused as null_space_basis refuses it alone
    doc = replay_doc(12)
    h = network.channel_set_from_dict(doc).channel(1, 2, 1)
    monkeypatch.setattr(linalg, "_ORTHO_TOL", -1.0)
    with pytest.raises(RankError) as expected:
        linalg.null_space_basis(h)
    assert "not orthonormal" in str(expected.value)
    forbid_one_by_one(monkeypatch)
    with pytest.raises(RankError) as exc:
        network.channel_set_from_dict(doc)
    assert str(exc.value) == str(expected.value)


def test_nsia_refuses_a_projected_link_of_the_wrong_null_dimension(
        monkeypatch):
    # link (2, 1, 2) swapped for a fresh draw: the planes still come from
    # the stored null spaces, so P_2 H_2,12 is square and full rank, with
    # no null space; base station 1 passes, so it is the first refusal
    cs = network.generate_channels(NetworkConfig(L=2, K=2, M=2, N=3, beta=1,
                                                 seed=6))
    channels = dict(cs.channels)
    channels[(2, 1, 2)] = linalg.random_matrix(3, 2,
                                               rng=linalg.seeded_rng(6, 99))
    swapped = network.ChannelSet(cs.config, channels, cs.cross_nulls)
    forbid_one_by_one(monkeypatch)
    with pytest.raises(DegeneracyError) as exc:
        schemes.build_nsia(swapped)
    assert str(exc.value) == ("projected cross channel (m=2, l=1, k=2) has "
                              "null dimension 0, expected 1")


def test_lemma2_nsia_raises_a_lost_plane_from_the_stack(monkeypatch, caplog):
    # seed 1 at 0.04: trial 326's plane loses rank in the stacked check.
    # The trial is replayed from its streams by draw_channel, which the
    # simulation module imported by name and so is not refused here, and
    # alignment_planes' result for it is raised
    forbid_one_by_one(monkeypatch)
    with pytest.raises(DegeneracyError) as exc:
        simulation.monte_carlo_lemma2(2, 3, 600, seed=1, p_source="nsia",
                                      tol=linalg.Tolerance(0.04))
    assert str(exc.value) == "stacked alignment plane at base station 1 lost rank"


def test_stacks_split_by_byte_budget(monkeypatch):
    # at K=32, beta=4 one link and its SVD factors take about 0.8 MB, so
    # a stack covers one link; every link of K <= 4 fits in one stack
    assert len(linalg.stack_chunks(list(range(16)), 10, 8)) == 1
    runs = linalg.stack_chunks(list(range(5)), 132, 128)
    assert runs == [[0], [1], [2], [3], [4]]
    monkeypatch.setattr(linalg, "STACK_BYTES", 1)
    assert linalg.stack_chunks([1, 2], 2, 3) == [[1], [2]]


def test_large_k_nsia_temporaries_stay_within_a_few_links():
    # at K=32, beta=4 a link is 132x128 complex (0.26 MiB).  With numpy
    # 2.4, build_nsia's traced peak above the channel set, less the 1.07
    # MiB the scheme keeps, is 1.01 MiB: one link a stacked call, each
    # stack freed once it is used.  It was 2.53 MiB with two links a call
    # and the plane and link stacks alive through the SVD, and 2.03 MiB
    # with two links a call alone.  The bound fails both and leaves two
    # links of slack
    peak_bound = 1.5 * 2 ** 20
    M, N = bounds.antenna_profile(32, 4, bounds.RX_HEAVY)
    cs = network.generate_channels(
        NetworkConfig(L=2, K=32, M=M, N=N, beta=4, seed=1))
    gc.collect()
    tracemalloc.start()
    try:
        scheme = schemes.build_nsia(cs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scheme.precoders) == 64
    assert peak - kept < peak_bound


def test_chunked_stacks_equal_one_stack(monkeypatch):
    # results do not depend on how the links are split into stacks
    M, N = bounds.antenna_profile(3, 2, bounds.RX_HEAVY)
    cfg = NetworkConfig(L=2, K=3, M=M, N=N, beta=2, seed=11)
    whole = network.generate_channels(cfg)
    scheme = schemes.build_nsia(whole)
    monkeypatch.setattr(linalg, "STACK_BYTES", 3 * 16 * (M * N + M * M + N * N))
    split = network.generate_channels(cfg)
    assert_same_sets(split, whole.channels, whole.cross_nulls)
    split_scheme = schemes.build_nsia(split)
    for m in (1, 2):
        assert same(split_scheme.projector(m), scheme.projector(m))
    for user, w in scheme.precoders.items():
        assert same(split_scheme.precoder(*user), w)
    assert (schemes.verify_scheme(split_scheme).to_dict()
            == schemes.verify_scheme(scheme).to_dict())
