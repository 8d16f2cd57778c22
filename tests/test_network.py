import re
import tracemalloc

import numpy as np
import pytest

from doflab.errors import DegeneracyError, DimensionError, InputError
from doflab.linalg import (Tolerance, null_space_basis, random_matrix,
                           seeded_rng)
from doflab.network import (MAX_REDRAWS, ChannelSet, NetworkConfig,
                            channel_set, channel_set_from_dict,
                            channel_set_to_dict, draw_channel, draw_until,
                            generate_channels)


def make_set(L=2, K=2, M=3, N=2, seed=1, **kw):
    return generate_channels(NetworkConfig(L=L, K=K, M=M, N=N, seed=seed, **kw))


def test_generate_channels_count_shape_rank():
    cs = make_set()
    assert len(cs.channels) == 8
    for h in cs.channels.values():
        assert h.shape == (2, 3)
        assert np.linalg.matrix_rank(h) == 2  # independent rank oracle


@pytest.mark.parametrize("M,N", [(3, 2), (2, 3), (2, 2)])
def test_cross_links_keep_the_null_space_of_their_wide_orientation(M, N):
    cs = make_set(L=3, M=M, N=N, seed=4)
    cross = {key for key in cs.channels if key[0] != key[1]}
    assert set(cs.cross_nulls) == cross
    for m, l, k in cross:
        h = cs.channel(m, l, k)
        expected = null_space_basis(h if N <= M else h.conj().T)
        null = cs.cross_null(m, l, k)
        assert null.shape == (max(M, N), abs(M - N))
        assert not null.flags.writeable
        assert np.array_equal(null, expected)
        assert np.array_equal(draw_channel(cs.config, m, l, k)[1], expected)
    assert draw_channel(cs.config, 1, 1, 1)[1] is None
    with pytest.raises(IndexError, match="not a cross link"):
        cs.cross_null(2, 2, 1)
    with pytest.raises(IndexError):
        cs.cross_null(1, 2, 3)


def test_channel_set_checks_and_factors_given_matrices():
    cs = make_set(L=3, seed=4)
    rebuilt = channel_set(cs.config, {key: h.copy()
                                      for key, h in cs.channels.items()})
    assert set(rebuilt.cross_nulls) == set(cs.cross_nulls)
    for key, null in cs.cross_nulls.items():
        assert np.array_equal(rebuilt.cross_nulls[key], null)
        assert not rebuilt.cross_nulls[key].flags.writeable
        assert not rebuilt.channels[key].flags.writeable


def test_channel_set_refuses_a_stored_null_space_of_the_wrong_shape():
    # a hand-built set is refused when it is made, naming the link, before
    # any scheme is built on it; at M=2, N=3 a null space is 3 x 1
    cs = make_set(M=2, N=3, seed=14)
    nulls = dict(cs.cross_nulls)
    nulls[(1, 2, 2)] = null_space_basis(np.zeros((2, 3)))
    with pytest.raises(DimensionError) as exc:
        ChannelSet(cs.config, cs.channels, nulls)
    assert str(exc.value) == ("null space of cross link (m=1, l=2, k=2) has "
                              "shape (3, 3), expected (3, 1)")


def test_channel_set_refuses_null_spaces_that_miss_or_add_a_link():
    cs = make_set(M=2, N=3, seed=14)
    missing = dict(cs.cross_nulls)
    del missing[(2, 1, 1)]
    with pytest.raises(DimensionError, match=re.escape(
            "null space of cross link (m=2, l=1, k=1) is missing")):
        ChannelSet(cs.config, cs.channels, missing)
    extra = {**cs.cross_nulls, (1, 1, 1): cs.cross_null(1, 2, 1)}
    with pytest.raises(DimensionError, match=re.escape(
            "cross-link null space keyed (1, 1, 1) is not in the network")):
        ChannelSet(cs.config, cs.channels, extra)


@pytest.mark.parametrize("key", [(1, 1, 2), (3, 1, 1)])
def test_channel_set_refuses_a_rank_deficient_matrix(key):
    cs = make_set(L=3, seed=4)
    channels = dict(cs.channels)
    channels[key] = np.outer(cs.channels[key][:, 0], np.ones(3))  # rank 1
    name = "channel (m={}, l={}, k={})".format(*key)
    with pytest.raises(InputError,
                       match=rf"^{re.escape(name)} has numeric rank 1 "):
        channel_set(cs.config, channels)
    del channels[key]
    with pytest.raises(InputError, match="do not cover exactly"):
        channel_set(cs.config, channels)
    channels[(4, 1, 1)] = cs.channels[key]  # as many links, one not in L=3
    with pytest.raises(InputError, match="do not cover exactly"):
        channel_set(cs.config, channels)


def test_replay_declaring_far_more_links_is_refused_before_listing_them():
    # a 4-link dump whose config declares K=100000 is refused by its link
    # count; listing the 4*K declared (m, l, k) triples first took 63.7 MiB
    doc = channel_set_to_dict(make_set(K=1, M=1, N=2))
    doc["config"]["K"] = 100000
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"^channels do not cover exactly "
                           r"the 400000 \(m, l, k\) triples of the config$"):
            channel_set_from_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("key, bad", [
    ((2, 1, 1), lambda h: h.T.copy()),  # a transposed cross link, 2 x 1
    ((1, 1, 1), lambda h: np.ones((2, 3), dtype=complex)),
])
def test_channel_set_refuses_a_matrix_that_is_not_n_by_m(monkeypatch, key, bad):
    # K=1, M=2, N=1: every link is 1 x 2.  Both used to pass the rank check
    # and fail only in the scheme build, naming a precoder instead
    cs = make_set(K=1, M=2, N=1, seed=2)
    channels = dict(cs.channels)
    channels[key] = bad(cs.channels[key])
    svds = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(a))
    name = "channel (m={}, l={}, k={})".format(*key)
    with pytest.raises(InputError, match=rf"^{re.escape(name)} has shape "
                                         rf"\({channels[key].shape[0]}, "
                                         rf"{channels[key].shape[1]}\), "
                                         rf"expected \(1, 2\)$"):
        channel_set(cs.config, channels)
    assert svds == []  # refused before any link is factored


def test_channel_set_refuses_non_finite_entries_naming_the_link():
    cs = make_set(seed=3)
    channels = {key: h.copy() for key, h in cs.channels.items()}
    channels[(2, 1, 2)][0, 1] = np.nan
    with pytest.raises(InputError, match=r"^channel \(m=2, l=1, k=2\) has "
                                         r"non-finite entries$"):
        channel_set(cs.config, channels)


def test_channel_set_stores_read_only_copies_in_link_order():
    # the given matrices are stacked for the check and the set keeps the
    # stack's slices, so the caller's arrays stay theirs and writable
    cs = make_set(seed=4)
    given = {key: h.copy() for key, h in reversed(cs.channels.items())}
    rebuilt = channel_set(cs.config, given)
    assert list(rebuilt.channels) == list(cs.channels)
    for key, h in given.items():
        assert h.flags.writeable
        assert not np.shares_memory(rebuilt.channels[key], h)
        assert np.array_equal(rebuilt.channels[key], h)


def test_draw_until_redraws_from_the_start_of_the_stream(caplog):
    # the third draw has the full rank: the same matrix as the third draw
    # of seeded_rng(key), and the generator returned continues right after
    checked = []

    def third(h):
        checked.append(h)
        return len(checked), "result"

    h, result, rng = draw_until((9, 4), (3, 2), "uniform-square", third, 3,
                                Tolerance(), "warning", "refusal")
    reference = seeded_rng(9, 4)
    draws = [random_matrix(3, 2, "uniform-square", reference) for _ in range(4)]
    assert result == "result" and len(checked) == 3
    assert np.array_equal(h, draws[2])
    assert np.array_equal(random_matrix(3, 2, "uniform-square", rng), draws[3])
    assert [r.getMessage() for r in caplog.records] == ["warning"]


def test_draw_until_refuses_at_the_cap_naming_the_draw(caplog):
    checked = []
    with pytest.raises(DegeneracyError) as exc:
        draw_until((2,), (2, 2), "complex-gaussian",
                   lambda h: checked.append(h) or (1, None), 2,
                   Tolerance(0.3), "warning", "the draw is still bad")
    assert str(exc.value) == (f"the draw is still bad after {MAX_REDRAWS} "
                              f"redraws at rel_rank_tol=0.3")
    assert len(checked) == MAX_REDRAWS + 1
    assert [r.getMessage() for r in caplog.records] == ["warning"]


def test_three_cell_topology_count():
    cs = make_set(L=3, K=2, M=2, N=2)
    assert len(cs.channels) == 18


@pytest.mark.parametrize("L,K", [(1, 1), (2, 3), (3, 2)])
def test_channel_count_is_l_squared_k(L, K):
    cs = make_set(L=L, K=K, M=2, N=2)
    assert len(cs.channels) == L * L * K


def test_generation_deterministic():
    a = make_set(seed=11)
    b = make_set(seed=11)
    for key in a.channels:
        np.testing.assert_array_equal(a.channels[key], b.channels[key])


def test_different_seeds_differ():
    a = make_set(seed=1)
    b = make_set(seed=2)
    assert not np.array_equal(a.channel(1, 1, 1), b.channel(1, 1, 1))


def test_per_link_streams_are_isolated():
    # every matrix draws from its own (seed, m, l, k) stream, so changing
    # the network size leaves the shared links bit-identical
    small = make_set(K=1, seed=6)
    large = make_set(K=2, seed=6)
    for m in (1, 2):
        for l in (1, 2):
            np.testing.assert_array_equal(small.channel(m, l, 1),
                                          large.channel(m, l, 1))


def test_uniform_square_channels_are_bounded():
    cs = make_set(dist="uniform-square")
    for h in cs.channels.values():
        assert np.max(np.abs(h.real)) <= 1.0 and np.max(np.abs(h.imag)) <= 1.0


def test_channels_are_read_only():
    cs = make_set()
    with pytest.raises(ValueError):
        cs.channel(1, 1, 1)[0, 0] = 0.0


def test_entry_independence_proxy_across_seeds():
    # sample correlation between two links' (0, 0) entries over many seeds
    xs, ys = [], []
    for seed in range(1000):
        cfg = NetworkConfig(L=2, K=1, M=2, N=2, seed=seed)
        cs = generate_channels(cfg)
        xs.append(cs.channel(1, 1, 1)[0, 0])
        ys.append(cs.channel(2, 2, 1)[0, 0])
    xs, ys = np.asarray(xs), np.asarray(ys)
    for a, b in ((xs.real, ys.real), (xs.imag, ys.imag), (xs.real, xs.imag)):
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_config_validation():
    with pytest.raises(InputError):
        NetworkConfig(L=0, K=1, M=1, N=1)
    with pytest.raises(InputError):
        NetworkConfig(L=1, K=1, M=1, N=1, seed=-3)
    with pytest.raises(InputError):
        NetworkConfig(L=1, K=1, M=1, N=1, dist="rayleigh")


@pytest.mark.parametrize("key", ["L", "K", "M", "N", "beta", "seed"])
def test_config_rejects_bool_dimensions_and_seed(key):
    # True would pass as 1 and False as seed 0
    doc = {"L": 2, "K": 1, "M": 2, "N": 1, "beta": 1, "seed": 0}
    doc[key] = key != "seed"
    with pytest.raises(InputError, match=f"^{key} must be"):
        NetworkConfig.from_dict(doc)


def test_config_refuses_a_tolerance_no_singular_value_can_pass():
    # 0.5 * max(M, N) = 1.5: every channel would rank 0 and be redrawn forever
    with pytest.raises(InputError, match="no singular value"):
        NetworkConfig(L=2, K=2, M=3, N=2, tol=Tolerance(0.5))
    with pytest.raises(InputError, match="no singular value"):
        NetworkConfig.from_dict({"L": 2, "K": 2, "M": 3, "N": 2,
                                 "rel_rank_tol": 0.5})
    NetworkConfig(L=2, K=2, M=3, N=2, tol=Tolerance(0.3))


def test_config_round_trip():
    cfg = NetworkConfig(L=2, K=3, M=4, N=3, beta=1, seed=5,
                        dist="uniform-square", tol=Tolerance(1e-9))
    assert NetworkConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(InputError):
        NetworkConfig.from_dict({"L": 2, "K": 1, "M": 1, "N": 1, "cells": 2})


def test_config_from_dict_rejects_missing_keys():
    with pytest.raises(InputError):
        NetworkConfig.from_dict({"L": 2, "K": 1, "M": 1})


def test_channel_serialization_round_trip():
    cs = make_set(seed=9)
    doc = channel_set_to_dict(cs)
    assert set(doc) == {"config", "channels"}
    assert all(set(e) == {"m", "l", "k", "re", "im"} for e in doc["channels"])
    back = channel_set_from_dict(doc)
    assert back.config == cs.config
    for key in cs.channels:
        np.testing.assert_array_equal(back.channels[key], cs.channels[key])
    # the replay's nondegeneracy check stores the same cross-link factors
    assert set(back.cross_nulls) == set(cs.cross_nulls)
    for key, null in cs.cross_nulls.items():
        np.testing.assert_array_equal(back.cross_nulls[key], null)


def test_channel_deserialization_rejects_bad_docs():
    doc = channel_set_to_dict(make_set(seed=9))
    with pytest.raises(InputError):
        channel_set_from_dict({"config": doc["config"]})
    missing = {"config": doc["config"], "channels": doc["channels"][1:]}
    with pytest.raises(InputError):
        channel_set_from_dict(missing)
    wrong_shape = {"config": doc["config"],
                   "channels": [{**e, "re": [[0.0]], "im": [[0.0]]}
                                for e in doc["channels"]]}
    with pytest.raises(InputError):
        channel_set_from_dict(wrong_shape)
    # a scalar or one-row part would broadcast against the other one
    for im in (0.0, [[0.0, 0.0, 0.0]]):
        broadcast = {"config": doc["config"],
                     "channels": [{**doc["channels"][0], "im": im},
                                  *doc["channels"][1:]]}
        with pytest.raises(InputError, match=r"'im' has shape"):
            channel_set_from_dict(broadcast)
    # documents of the wrong JSON type at every level
    entries = doc["channels"]
    wrong_types = [5, None, [doc], {"config": 5, "channels": entries},
                   {"config": doc["config"], "channels": 5},
                   {"config": doc["config"], "channels": [5, *entries[1:]]},
                   {"config": {**doc["config"], "rel_rank_tol": "x"},
                    "channels": entries},
                   {"config": doc["config"],
                    "channels": [{**entries[0], "re": [["x", 0.0, 0.0]] * 2},
                                 *entries[1:]]}]
    for bad in wrong_types:
        with pytest.raises(InputError):
            channel_set_from_dict(bad)


@pytest.mark.parametrize("index,rank", [(0, 0), (0, 1), (2, 0), (2, 1)])
def test_channel_deserialization_rejects_degenerate_links(index, rank):
    # entry 0 is the direct link (1, 1, 1), entry 2 the cross link (1, 2, 1)
    doc = channel_set_to_dict(make_set(seed=9))
    entry = doc["channels"][index]
    for part in ("re", "im"):
        entry[part] = ([[0.0] * 3] * 2 if rank == 0
                       else [entry[part][0]] * 2)
    name = "channel (m={m}, l={l}, k={k})".format(**entry)
    with pytest.raises(InputError,
                       match=rf"^{re.escape(name)} has numeric rank {rank} "):
        channel_set_from_dict(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_channel_deserialization_rejects_non_finite_entries(bad):
    doc = channel_set_to_dict(make_set(seed=9))
    doc["channels"][3]["im"][1][0] = bad
    with pytest.raises(InputError, match="non-finite"):
        channel_set_from_dict(doc)


def test_channel_deserialization_rejects_a_repeated_link():
    # the repeat would replace the first copy: a K=1 dump with link
    # (1, 1, 1) listed again at twice its values
    doc = channel_set_to_dict(make_set(K=1, seed=9))
    first = doc["channels"][0]
    assert (first["m"], first["l"], first["k"]) == (1, 1, 1)
    doc["channels"].append({**first,
                            "re": [[2 * v for v in row] for row in first["re"]],
                            "im": [[2 * v for v in row] for row in first["im"]]})
    with pytest.raises(InputError, match=r"^channel \(m=1, l=1, k=1\) is "
                                         r"listed more than once$"):
        channel_set_from_dict(doc)


@pytest.mark.parametrize("factor, refused", [
    (1e149, False), (1e-149, False), (1e151, True), (1e-151, True)])
def test_channel_deserialization_refuses_magnitudes_out_of_range(factor,
                                                                 refused):
    # a link is judged by its largest real or imaginary part, here scaled
    # to 1.5e±149 and 1.5e±151 (an all-zero link is left to the rank
    # check, test_channel_deserialization_rejects_degenerate_links)
    doc = channel_set_to_dict(make_set(seed=9))
    entry = doc["channels"][3]
    peak = max(abs(v) for part in ("re", "im") for row in entry[part]
               for v in row)
    for part in ("re", "im"):
        entry[part] = [[v * factor / peak * 1.5 for v in row]
                       for row in entry[part]]
    name = "channel (m={m}, l={l}, k={k})".format(**entry)
    if not refused:
        channel_set_from_dict(doc)
        return
    with pytest.raises(InputError, match=(
            rf"^{re.escape(name)} has entries of magnitude up to 1\.500e[+-]151, "
            r"outside the supported range \[1e-150, 1e150\]$")):
        channel_set_from_dict(doc)


@pytest.mark.parametrize("index", [True, 1.0, "1"])
def test_channel_deserialization_rejects_non_integer_indices(index):
    doc = channel_set_to_dict(make_set(seed=9))
    assert doc["channels"][0]["k"] == 1
    doc["channels"][0]["k"] = index
    with pytest.raises(InputError, match="integers"):
        channel_set_from_dict(doc)


def test_channel_accessor_validates_indices():
    cs = make_set()
    with pytest.raises(IndexError):
        cs.channel(1, 1, 3)
    with pytest.raises(IndexError):
        cs.channel(0, 1, 1)
    with pytest.raises(IndexError, match=r"^cell index l=3 out of range 1\.\.2$"):
        cs.channel(1, 3, 1)
