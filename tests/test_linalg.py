import ctypes
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from doflab import linalg
from doflab.errors import ContractError, DimensionError, InputError, RankError
from doflab.linalg import (SubspaceBasis, Tolerance, intersection_dim,
                           null_space_basis, numeric_rank,
                           orthonormalize_rows, random_matrix, range_basis,
                           seeded_rng)

TOL = Tolerance()


def gaussian(rows, cols, seed, *key):
    return random_matrix(rows, cols, "complex-gaussian", seeded_rng(seed, *key))


# ---------------------------------------------------------------------------
# random_matrix
# ---------------------------------------------------------------------------

def test_random_matrix_deterministic_under_seed():
    a = random_matrix(2, 3, "complex-gaussian", seeded_rng(7))
    b = random_matrix(2, 3, "complex-gaussian", seeded_rng(7))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_random_matrix_full_rank_almost_surely(seed):
    a = gaussian(4, 2, seed)
    # independent oracle: numpy's own rank decision
    assert np.linalg.matrix_rank(a) == 2
    assert numeric_rank(a, TOL) == 2


def test_uniform_square_support():
    a = random_matrix(1, 1, "uniform-square", seeded_rng(3))
    assert abs(a[0, 0].real) <= 1.0 and abs(a[0, 0].imag) <= 1.0


def test_random_matrix_rejects_zero_dimension():
    with pytest.raises(DimensionError):
        random_matrix(0, 3, "complex-gaussian", seeded_rng(1))


def test_random_matrix_rejects_unknown_distribution():
    with pytest.raises(InputError):
        random_matrix(2, 2, "cauchy", seeded_rng(1))


def test_seeded_rng_rejects_negative_seed():
    with pytest.raises(InputError):
        seeded_rng(-1)


# ---------------------------------------------------------------------------
# numeric_rank
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert numeric_rank(np.eye(3), TOL) == 3


def test_rank_zero_matrix():
    assert numeric_rank(np.zeros((2, 3)), TOL) == 0


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_rank_random_wide(seed):
    a = gaussian(2, 3, seed)
    assert np.linalg.matrix_rank(a) == 2
    assert numeric_rank(a, TOL) == 2


def test_rank_rejects_non_finite():
    bad = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(InputError):
        numeric_rank(bad, TOL)


def test_rank_scale_anchor_classifies_cancelled_product_as_zero():
    tiny = 1e-16 * gaussian(2, 2, 23)
    # relative-only threshold cannot see that this is a rounding artifact
    assert numeric_rank(tiny, TOL) == 2
    assert numeric_rank(tiny, TOL, scale=1.0) == 0


def test_product_scales_are_the_factor_norms_bit_for_bit():
    p, h = linalg.random_matrices([(3, 5), (5, 4)], "complex-gaussian",
                                  [(31, i) for i in range(64)])
    norms = (np.linalg.norm(p, axis=(-2, -1))
             * np.linalg.norm(h, axis=(-2, -1)))
    np.testing.assert_array_equal(linalg.product_scales(p, h), norms)
    # exact under a power of two, far past where the squares underflow
    np.testing.assert_array_equal(linalg.product_scales(p, h * 2.0**-540),
                                  norms * 2.0**-540)
    # one plane broadcast over a stack is each pair's own anchor
    broadcast = linalg.product_scales(p[0], h)
    assert broadcast.shape == (64,)
    for t in range(64):
        assert broadcast[t] == linalg.product_scales(p[0], h[t])


def test_product_scales_are_inf_past_the_double_range():
    # ||1e300 P|| ||H|| is finite, ||1e300 P|| ||1e10 H|| is not; no
    # overflow warning fires (tier-1 makes one an error)
    p, h = gaussian(3, 5, 32), gaussian(5, 4, 33)
    scales = linalg.product_scales(1e300 * p, np.stack([h, 1e10 * h, 1e-300 * h]))
    assert np.isfinite(scales[0]) and np.isfinite(scales[2])
    assert scales[1] == np.inf


def test_unit_scaled_puts_each_peak_in_half_to_one():
    h = np.stack([gaussian(4, 3, 34) * factor
                  for factor in (1e-300, 1.0, 1e300)])
    unit, shift = linalg.unit_scaled(h)
    peaks = np.abs(unit).max(axis=(-2, -1))
    assert ((0.5 <= peaks) & (peaks < 1.0)).all()
    for t in range(3):
        one, one_shift = linalg.unit_scaled(h[t])
        assert one_shift == shift[t]
        np.testing.assert_array_equal(one, unit[t])
        np.testing.assert_array_equal(np.ldexp(unit[t].real, -shift[t]), h[t].real)
    # a subnormal peak is scaled by 2**1023, the largest power of two
    _, subnormal = linalg.unit_scaled(np.full((2, 2), 5e-324 + 0j))
    assert subnormal == 1023


def test_tolerance_validation():
    for value in (0.0, 1.5, float("nan"), 1e-16, 9.9e-16):
        with pytest.raises(InputError, match=r"must be in \[1e-15, 1\)"):
            Tolerance(value)
    Tolerance(1e-15)  # the floor, above the SVD's rounding level (2.2e-16)
    for value in ("x", None, True, [1e-10]):
        with pytest.raises(InputError, match="must be a number"):
            Tolerance(value)


def test_tolerance_refuses_sizes_where_no_singular_value_passes():
    # at rel_rank_tol * size >= 1 the threshold reaches sigma_max
    with pytest.raises(InputError, match="no singular value"):
        Tolerance(0.2).require_rankable(5, "N")
    Tolerance(0.2).require_rankable(4, "N")
    assert numeric_rank(np.eye(4), Tolerance(0.2)) == 4
    assert numeric_rank(np.eye(5), Tolerance(0.2)) == 0


# ---------------------------------------------------------------------------
# stacked rank kernel and batched draws
# ---------------------------------------------------------------------------

def rank_test_stack():
    """3x4 slices: full rank, rank 1, zero, a cancelled product at rounding
    level, a tiny full-rank matrix and one with a clear gap."""
    rank_one = gaussian(3, 1, 30) @ gaussian(1, 4, 31)
    gapped = gaussian(3, 4, 34)
    u, s, vh = np.linalg.svd(gapped, full_matrices=False)
    s[-1] *= 1e-13
    return np.stack([gaussian(3, 4, 32), rank_one, np.zeros((3, 4)),
                     1e-16 * gaussian(3, 4, 33), 1e-8 * gaussian(3, 4, 35),
                     (u * s) @ vh])


@pytest.mark.parametrize("scale", [None, 1.0, (0.0, 5.0, 1.0, 1.0, 0.0, 3.0)])
def test_stacked_rank_matches_numeric_rank_slice_by_slice(scale):
    stack = rank_test_stack()
    per_slice = np.broadcast_to(np.nan if scale is None else scale, len(stack))
    ranks = linalg._rank_svd(stack, TOL, scale)
    expected = [numeric_rank(a, TOL, None if scale is None else float(sc))
                for a, sc in zip(stack, per_slice)]
    assert ranks.tolist() == expected


def test_stacked_rank_covers_the_interesting_cases():
    ranks = linalg._rank_svd(rank_test_stack(), TOL).tolist()
    assert ranks == [3, 1, 0, 3, 3, 2]
    anchored = linalg._rank_svd(rank_test_stack(), TOL, 1.0)
    assert anchored.tolist() == [3, 1, 0, 0, 3, 2]


@pytest.mark.parametrize("scale", [None, (0.0, 5.0, 1.0, 1.0, 0.0, 3.0)])
def test_null_space_bases_match_null_space_basis_or_give_none(scale):
    # a 3x4 slice of rank 3 has a 1-dimensional null space; of the test
    # stack, the full-rank slices do (the cancelled product too, unless it
    # is anchored to a scale), the others are not ok
    stack = rank_test_stack()
    per_slice = [None] * len(stack) if scale is None else scale
    dims, bases, ok = linalg.null_space_bases(stack, 1, TOL, scale)
    assert bases.shape == (len(stack), 4, 1)
    for a, sc, dim, got, good in zip(stack, per_slice, dims, bases, ok):
        expected = null_space_basis(a, TOL, sc)
        assert dim == expected.dim
        assert good == (expected.dim == 1)
        if good:
            assert got.strides == expected.basis.strides
            assert np.array_equal(got, expected.basis)
    assert ok.tolist() == (
        [True, False, False, True, True, False] if scale is None
        else [True, False, False, False, True, False])


def test_null_space_bases_give_none_for_a_basis_that_fails_the_gram_check(
        monkeypatch):
    stack = np.stack([gaussian(2, 3, 40), gaussian(2, 3, 41)])
    monkeypatch.setattr(linalg, "orthonormal_columns",
                        lambda a: (np.array([True, False]), None))
    dims, _, ok = linalg.null_space_bases(stack, 1, TOL)
    assert dims.tolist() == [1, 1] and ok.tolist() == [True, False]


def test_stacked_rank_validates_like_as_matrix():
    bad = rank_test_stack()
    bad[2, 0, 0] = np.nan
    with pytest.raises(InputError):
        linalg._rank_svd(bad, TOL)
    with pytest.raises(DimensionError):
        linalg._rank_svd(np.zeros(3), TOL)
    # the one-matrix functions refuse a stack
    for one_matrix in (numeric_rank, null_space_basis):
        with pytest.raises(DimensionError):
            one_matrix(np.zeros((2, 2, 3)), TOL)


@pytest.mark.parametrize("dist", ["complex-gaussian", "uniform-square"])
def test_batched_draws_equal_per_trial_draws(dist):
    shapes = [(2, 4), (4, 3), (1, 1)]
    blocks = linalg.random_matrices(shapes, dist, [(11, i) for i in range(5)])
    assert [b.shape for b in blocks] == [(5, 2, 4), (5, 4, 3), (5, 1, 1)]
    for i in range(5):
        rng = seeded_rng(11, i)
        for block, (rows, cols) in zip(blocks, shapes):
            np.testing.assert_array_equal(block[i],
                                          random_matrix(rows, cols, dist, rng))


def test_batched_draws_validate_inputs():
    with pytest.raises(InputError):
        linalg.random_matrices([(2, 2)], "complex-gaussian", [(1, 0), (1, -1)])
    with pytest.raises(InputError):
        linalg.random_matrices([(2, 2)], "complex-gaussian", [(1.5, 0)])
    with pytest.raises(DimensionError):
        linalg.random_matrices([(2, 2)], "complex-gaussian", [1, 2])
    with pytest.raises(DimensionError):
        linalg.random_matrices([(2, 2)], "complex-gaussian", np.zeros((3, 0), int))
    with pytest.raises(DimensionError):
        linalg.random_matrices([(2, 0)], "uniform-square", [(1,)])
    with pytest.raises(InputError):
        random_matrix(2, 2, "complex-gaussian", None)


# Seeds on both sides of numpy's one-word entropy limit: keys below 2^32
# are hashed in bulk, 2^32 and above by numpy's SeedSequence.
BULK_SEEDS = [0, 1, 2**31 - 1, 2**32, 2**70]


def key_rows(seed, width, rows=40):
    # rows of `width` entries after the seed, varied in every column; the
    # last rows put a large value into a subkey
    keys = [(seed, *(7 * t + 3 * j for j in range(width - 1)))
            for t in range(rows)]
    if width > 1:
        keys += [(seed, *[2**32 - 1] * (width - 1)), (seed, 5, *[0] * (width - 2))]
    return keys


@pytest.mark.parametrize("dist", ["complex-gaussian", "uniform-square"])
@pytest.mark.parametrize("width", [1, 2, 4, 5])
@pytest.mark.parametrize("seed", BULK_SEEDS)
def test_bulk_streams_equal_numpy_seeding(seed, width, dist):
    keys = key_rows(seed, width)
    shapes = [(3, 2), (1, 4)]
    blocks = linalg.random_matrices(shapes, dist, keys)
    gaussian = dist == "complex-gaussian"
    for t, key in enumerate(keys):
        # numpy's own generator for the key, not seeded_rng
        rng = np.random.default_rng(np.random.SeedSequence(list(key)))
        for block, (rows, cols) in zip(blocks, shapes):
            if gaussian:
                re, im = rng.standard_normal((2, rows, cols))
                expected = (re + 1j * im) / np.sqrt(2.0)
            else:
                re, im = rng.uniform(-1.0, 1.0, (2, rows, cols))
                expected = re + 1j * im
            np.testing.assert_array_equal(block[t], expected)


@pytest.mark.parametrize("width", [1, 2, 4, 5, 9])
@pytest.mark.parametrize("seed", BULK_SEEDS)
def test_stream_words_equal_seed_sequence_state(seed, width):
    keys = key_rows(seed, width)
    words = linalg.stream_words(keys, 8)
    assert words.dtype == np.uint32 and words.shape == (len(keys), 8)
    for row, key in zip(words, keys):
        np.testing.assert_array_equal(
            row, np.random.SeedSequence(list(key)).generate_state(8))
    # a word does not depend on how many follow it
    np.testing.assert_array_equal(linalg.stream_words(keys, 1), words[:, :1])


def test_stream_words_are_the_sub_seeds_of_a_thousand_trials():
    sub_seeds = linalg.stream_words([(12345, i) for i in range(1000)], 1)[:, 0]
    assert sub_seeds.tolist() == [
        int(np.random.SeedSequence([12345, i]).generate_state(1)[0])
        for i in range(1000)]


def count_seed_sequences(monkeypatch):
    # the entropy of every numpy SeedSequence built through np.random
    built = []
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda entropy: (
        built.append(tuple(entropy)) or seed_sequence(entropy)))
    return built


def test_bulk_seeding_builds_seed_sequence_only_for_wide_keys(monkeypatch):
    built = count_seed_sequences(monkeypatch)
    linalg.random_matrices([(2, 2)], "complex-gaussian",
                           [(3, i) for i in range(300)] + [(3, 2**32)])
    assert built == [(3, 2**32)]


@pytest.mark.parametrize("dist", ["complex-gaussian", "uniform-square"])
def test_one_call_mixing_bulk_and_wide_keys_equals_numpy_seeding(dist):
    keys = [(5, 0), (2**32, 1), (5, 1), (5, 2**40), (2**32 - 1, 7), (5, 2)]
    (block,) = linalg.random_matrices([(2, 3)], dist, keys)
    for got, key in zip(block, keys):
        rng = np.random.default_rng(np.random.SeedSequence(list(key)))
        expected = linalg.random_matrix(2, 3, dist, rng)
        np.testing.assert_array_equal(got, expected)


def test_streams_are_distinct_generators_that_keep_their_state():
    keys = np.array([(9, i) for i in range(4)] + [(2**32, 0)])
    streams = list(linalg._streams(keys))
    assert len({id(rng) for rng in streams}) == len(keys)
    # drawn only after every later generator was made, each still starts
    # its own stream
    for rng, key in zip(streams, keys.tolist()):
        expected = np.random.default_rng(np.random.SeedSequence(key))
        np.testing.assert_array_equal(rng.standard_normal(5),
                                      expected.standard_normal(5))


@pytest.mark.parametrize("n_words, dtype", [(8, np.uint32), (2, np.uint64),
                                            (4, np.uint32), (4, np.int64)])
def test_state_words_refuse_any_request_but_pcg64s(n_words, dtype):
    words = linalg._state_words()(np.zeros(4, np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    assert words.generate_state(4, np.dtype("<u8")) is words.words
    with pytest.raises(ContractError, match="4 uint64 words"):
        words.generate_state(n_words, dtype)


# ---------------------------------------------------------------------------
# null_space_basis / range_basis
# ---------------------------------------------------------------------------

def test_null_space_of_wide_random():
    a = gaussian(2, 3, 11)
    null = null_space_basis(a, TOL)
    assert null.dim == 1
    assert np.linalg.norm(a @ null.basis) <= 10 * TOL.absolute(2, 3, np.linalg.norm(a, 2))


def test_null_space_full_rank_square():
    assert null_space_basis(gaussian(3, 3, 2), TOL).dim == 0


def test_null_space_zero_matrix():
    null = null_space_basis(np.zeros((2, 3)), TOL)
    assert null.dim == 3
    np.testing.assert_allclose(null.basis.conj().T @ null.basis, np.eye(3),
                               atol=1e-12)


def test_range_identity():
    basis = range_basis(np.eye(3), TOL)
    assert basis.dim == 3
    # spans C^3: any vector is reproduced by projection onto the basis
    v = np.array([1.0, 2.0 - 1j, 3j])
    np.testing.assert_allclose(basis.basis @ (basis.basis.conj().T @ v), v,
                               atol=1e-12)


def test_range_random_tall():
    a = gaussian(3, 2, 4)
    assert np.linalg.matrix_rank(a) == 2
    assert range_basis(a, TOL).dim == 2


def test_range_rank_one_outer_product():
    u = gaussian(4, 1, 6)
    v = gaussian(3, 1, 7)
    assert range_basis(u @ v.conj().T, TOL).dim == 1


# ---------------------------------------------------------------------------
# intersection_dim
# ---------------------------------------------------------------------------

def test_intersection_equal_subspaces():
    u = range_basis(gaussian(4, 2, 8), TOL)
    assert intersection_dim(u, u, TOL) == 2


def test_intersection_orthogonal_complements():
    q, _ = np.linalg.qr(gaussian(4, 4, 9))
    u = SubspaceBasis(4, 2, q[:, :2])
    v = SubspaceBasis(4, 2, q[:, 2:])
    assert intersection_dim(u, v, TOL) == 0


def test_intersection_generic_subspaces():
    u = range_basis(gaussian(4, 2, 10), TOL)
    v = range_basis(gaussian(4, 2, 11, 1), TOL)
    # oracles: rank of the concatenation, and principal angles
    assert np.linalg.matrix_rank(np.hstack([u.basis, v.basis])) == 4
    assert np.count_nonzero(subspace_angles(u.basis, v.basis) < 1e-8) == 0
    assert intersection_dim(u, v, TOL) == 0


def test_intersection_detected_by_principal_angles():
    # force a 1-dimensional overlap: share one generator
    shared = gaussian(5, 1, 12)
    u = range_basis(np.hstack([shared, gaussian(5, 1, 13)]), TOL)
    v = range_basis(np.hstack([shared, gaussian(5, 1, 14)]), TOL)
    assert np.count_nonzero(subspace_angles(u.basis, v.basis) < 1e-8) == 1
    assert intersection_dim(u, v, TOL) == 1


def test_intersection_ambient_mismatch():
    u = range_basis(gaussian(4, 2, 15), TOL)
    v = range_basis(gaussian(3, 2, 16), TOL)
    with pytest.raises(DimensionError):
        intersection_dim(u, v, TOL)


def test_intersection_with_trivial_subspace():
    u = range_basis(gaussian(4, 2, 17), TOL)
    empty = null_space_basis(gaussian(4, 4, 18), TOL)
    assert empty.dim == 0
    assert intersection_dim(u, empty, TOL) == 0


# ---------------------------------------------------------------------------
# orthonormalize_rows
# ---------------------------------------------------------------------------

def reference_orthonormal_rows(a):
    """numpy's own QR of A*, conjugate-transposed back: rows spanning A's
    row space, and whether A has full row rank."""
    q, _ = np.linalg.qr(a.conj().T)
    return q.conj().T, np.linalg.matrix_rank(a) == a.shape[0]


def test_orthonormalize_rows_gram():
    a = gaussian(2, 3, 19)
    b, full_rank = orthonormalize_rows(a, TOL)
    assert full_rank.shape == () and full_rank
    assert np.max(np.abs(b @ b.conj().T - np.eye(2))) <= 1e-10


def test_orthonormalize_rows_preserves_row_space():
    a = gaussian(2, 3, 20)
    b, _ = orthonormalize_rows(a, TOL)
    u = range_basis(a.conj().T, TOL)
    v = range_basis(b.conj().T, TOL)
    assert intersection_dim(u, v, TOL) == 2


def test_orthonormalize_rows_already_orthonormal():
    q, _ = np.linalg.qr(gaussian(3, 2, 21))
    b, _ = orthonormalize_rows(q.conj().T, TOL)
    # output differs from input only by a unitary left factor
    pi = b @ q
    np.testing.assert_allclose(pi @ pi.conj().T, np.eye(2), atol=1e-12)


def test_orthonormalize_rows_marks_rank_deficient():
    row = gaussian(1, 3, 22)
    _, full_rank = orthonormalize_rows(np.vstack([row, row]), TOL)
    assert not full_rank


def test_stacked_orthonormalize_rows_matches_each_matrix_and_marks_rank():
    row = gaussian(1, 3, 22)
    stack = np.stack([gaussian(2, 3, 23), np.vstack([row, row]),
                      gaussian(2, 3, 24)])
    q, full_rank = orthonormalize_rows(stack, TOL)
    assert full_rank.tolist() == [True, False, True]
    for t in range(3):
        expected, expected_rank = reference_orthonormal_rows(stack[t])
        assert full_rank[t] == expected_rank
        assert np.array_equal(q[t], expected)


def test_stacked_orthonormal_columns_matches_each_matrix():
    q, _ = np.linalg.qr(gaussian(3, 2, 25))
    stack = np.stack([q, 2 * q, np.full((3, 2), np.nan)])
    ok, err = linalg.orthonormal_columns(stack)
    assert ok.tolist() == [True, False, False]  # a NaN Gram error is not ok
    for t in range(2):
        assert (ok[t], err[t]) == linalg.orthonormal_columns(stack[t])
    assert np.isnan(err[2]) and not linalg.orthonormal_columns(stack[2])[0]


# ---------------------------------------------------------------------------
# one_blas_thread
# ---------------------------------------------------------------------------

@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and restored afterwards."""
    blas = linalg._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count functions")
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def test_one_blas_thread_restores_the_previous_count(blas_threads):
    with linalg.one_blas_thread():
        assert blas_threads() == 1
    assert blas_threads() == 2
    with pytest.raises(InputError):
        with linalg.one_blas_thread():
            assert blas_threads() == 1
            raise InputError("refused inside the block")
    assert blas_threads() == 2


def test_one_blas_thread_nests(blas_threads):
    with linalg.one_blas_thread():
        with linalg.one_blas_thread():
            pass
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_one_blas_thread_without_openblas_changes_nothing(blas_threads, monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    with linalg.one_blas_thread():
        assert blas_threads() == 2
    assert blas_threads() == 2


def test_openblas_lookup_without_the_symbols_logs_once(monkeypatch, caplog):
    # an object without attributes stands for a library lacking the symbols
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    linalg._openblas_threads.cache_clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="doflab.linalg"):
            with linalg.one_blas_thread():
                assert linalg._openblas_threads() is None
            with linalg.one_blas_thread():
                pass
    finally:
        monkeypatch.undo()
        linalg._openblas_threads.cache_clear()
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "OpenBLAS" in caplog.records[0].getMessage()


# ---------------------------------------------------------------------------
# SubspaceBasis invariants
# ---------------------------------------------------------------------------

def test_subspace_basis_rejects_non_orthonormal():
    with pytest.raises(RankError):
        SubspaceBasis(3, 2, np.ones((3, 2), dtype=complex))


def test_subspace_basis_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        SubspaceBasis(3, 2, np.eye(3))


@given(rows=st.integers(1, 6), cols=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_null_range_duality(rows, cols, seed):
    a = gaussian(rows, cols, seed)
    null = null_space_basis(a, TOL)
    assert numeric_rank(a, TOL) + null.dim == cols
    assert numeric_rank(null.basis, TOL) == null.dim
    rng = range_basis(a, TOL)
    assert numeric_rank(rng.basis, TOL) == rng.dim


@given(dim_u=st.integers(1, 3), dim_v=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_intersection_symmetric_and_unitary_invariant(dim_u, dim_v, seed):
    ambient = 5
    u = range_basis(gaussian(ambient, dim_u, seed, 0), TOL)
    v = range_basis(gaussian(ambient, dim_v, seed, 1), TOL)
    d = intersection_dim(u, v, TOL)
    assert d == intersection_dim(v, u, TOL)
    q, _ = np.linalg.qr(gaussian(u.dim, u.dim, seed, 2))
    rotated = SubspaceBasis(ambient, u.dim, u.basis @ q)
    assert intersection_dim(rotated, v, TOL) == d
