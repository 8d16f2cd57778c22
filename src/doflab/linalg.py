"""Complex dense-matrix subspace algebra.

Numeric rank, null/range bases, subspace intersection, row
orthonormalization and seeded random matrices, each a pure function of its
inputs.  The rank rule (_rank_svd), as_matrix, orthonormal_columns,
null_space_bases and orthonormalize_rows take a stack of matrices over the
leading axes, as numpy.linalg.svd does, and report each matrix's result as
arrays for the caller to refuse a failed one from; numeric_rank,
null_space_basis and range_basis take one matrix.  product_scales is the
threshold anchor of every rank of a product P H, taken on factors scaled
by powers of two (unit_scaled).  Every random draw comes
from a stream keyed by ``(seed, *subkeys)``: numpy's own generator for the
key's SeedSequence, which _streams builds for a whole array of keys at once
(stream_words).  random_matrices draws from an array of keys, and
random_matrix from seeded_rng, the stream of one key.  one_blas_thread pins
OpenBLAS to one thread, which keeps large-matrix results independent of
the core count.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, InputError, RankError

log = logging.getLogger(__name__)

DISTRIBUTIONS = ("complex-gaussian", "uniform-square")

# OpenBLAS thread-count setter/getter names, by wheel: scipy-openblas
# ILP64 and LP64 builds (numpy >= 2), then numpy 1.x's bundled OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)

# numpy.random.SeedSequence's pool hash (NEP 19): pool words, hash
# constants and shift.  Its entropy takes an integer below 2^32 as one word;
# stream keys at or above it are hashed by numpy's SeedSequence itself.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_WORD = 2 ** 32

# Orthonormality slack (orthonormal_columns): 10x the default relative
# rank tolerance.  SVD/QR factors are orthonormal to ~1e-15, so this only
# trips on genuinely broken bases.
_ORTHO_TOL = 1e-9

# Most bytes one stacked factorization covers, its matrices and their full
# SVD factors together (stack_chunks).  Every stack of a two-cell scheme at
# K <= 4 fits in one call; at K=32, beta=4 (about 0.8 MB a link) a call
# covers two links, so the peak memory stays near that of factoring one
# link at a time.
STACK_BYTES = 2 * 2 ** 20

# Smallest rel_rank_tol a Tolerance accepts.  An SVD computes singular
# values to about machine epsilon (2.2e-16) times sigma_max, so below this
# floor the threshold sits at the SVD's rounding level, and a rank verdict
# is decided by rounding noise: lemma 2 and nsia verdicts were measured
# wrong at 2.3e-16 and below, and right from 4.5e-16 up.
MIN_REL_RANK_TOL = 1e-15


@dataclass(frozen=True)
class Tolerance:
    """Relative SVD cutoff used for every rank decision.

    A singular value counts toward the rank when it exceeds
    ``rel_rank_tol * max(rows, cols) * sigma_max``.  ``rel_rank_tol`` must
    lie in [MIN_REL_RANK_TOL, 1).
    """

    rel_rank_tol: float = 1e-10

    def __post_init__(self):
        tol = self.rel_rank_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise InputError(f"rel_rank_tol must be a number, got {tol!r}")
        if not MIN_REL_RANK_TOL <= tol < 1.0:  # also refuses NaN
            raise InputError(
                f"rel_rank_tol must be in [{MIN_REL_RANK_TOL:g}, 1), got "
                f"{self.rel_rank_tol}")

    def absolute(self, rows: int, cols: int, sigma_max: float) -> float:
        """Absolute singular-value threshold for a rows x cols matrix."""
        return self.rel_rank_tol * max(rows, cols) * sigma_max

    def require_rankable(self, size: int, what: str):
        """Refuse matrices whose larger side is ``size`` (named ``what``)
        when the threshold reaches sigma_max: every rank would then be 0,
        and a loop that redraws until full rank would never end."""
        if self.rel_rank_tol * size >= 1.0:
            raise InputError(
                f"rel_rank_tol={self.rel_rank_tol} times {what}={size} is >= 1, "
                f"so no singular value can pass the rank threshold")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^ambient_dim.

    ``basis`` has shape (ambient_dim, dim) with orthonormal columns;
    ``dim`` may be zero (the trivial subspace).  ``checked`` skips the
    orthonormality check, for a basis that a stacked Gram check
    (null_space_bases) has passed.  ``==`` is identity.
    """

    ambient_dim: int
    dim: int
    basis: np.ndarray = field(repr=False)
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if self.ambient_dim < 1:
            raise DimensionError(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if not 0 <= self.dim <= self.ambient_dim:
            raise DimensionError(
                f"dim must be in [0, {self.ambient_dim}], got {self.dim}")
        if self.basis.shape != (self.ambient_dim, self.dim):
            raise DimensionError(
                f"basis shape {self.basis.shape} does not match "
                f"({self.ambient_dim}, {self.dim})")
        if self.dim > 0 and not checked:
            ok, err = orthonormal_columns(self.basis)
            if not ok:
                raise RankError(
                    f"basis columns are not orthonormal (max Gram error {err:.3e})")


def orthonormal_columns(a: np.ndarray):
    """(ok, err): err is max |A* A - I|, ok that it is within _ORTHO_TOL.

    For a stack of matrices over the leading axes, ok and err have one
    entry per matrix.  A NaN error is never ok.
    """
    gram = np.swapaxes(a.conj(), -1, -2) @ a
    err = np.abs(gram - np.eye(a.shape[-1])).max(axis=(-2, -1))
    return err <= _ORTHO_TOL, err


@functools.cache
def _openblas_threads():
    """OpenBLAS's (set, get) thread-count functions, or None; resolved once.

    dlsym on numpy's linalg extension also searches the libraries it links,
    so this finds the BLAS numpy actually calls, whatever the wheel layout.
    """
    import ctypes
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
        try:
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    log.debug("numpy's BLAS exposes no OpenBLAS thread-count functions; "
              "one_blas_thread leaves its threading as it is")
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block's BLAS and LAPACK calls on one OpenBLAS thread.

    At the sizes doflab reaches (about 130x130) a second thread costs more
    CPU than it saves, and the threaded reductions round differently, so a
    report would depend on the core count.  The previous thread count is
    restored on exit, also when the block raises.  The setting is
    process-wide: other threads' BLAS calls run on one thread meanwhile,
    and blocks overlapping on several threads can restore out of order.
    A BLAS other than OpenBLAS is left alone.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite complex array of at least two
    dimensions: one matrix, or a stack of matrices over the leading axes."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise DimensionError(f"{name} must be at least 2-D, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    return arr


def _require_one_matrix(a):
    # the contract of the one-matrix functions: a stack is refused
    if np.ndim(a) != 2:
        raise DimensionError(f"matrix must be 2-D, got ndim={np.ndim(a)}")


def require_seed(seed: int):
    """Refuse a negative seed, which no generator stream is keyed by."""
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")


def seeded_rng(seed: int, *subkeys: int) -> np.random.Generator:
    """Generator at the start of the (seed, *subkeys) stream: _streams of
    that one key.  Distinct subkey tuples give statistically independent
    streams, so one matrix can be regenerated without shifting any other.
    """
    require_seed(seed)
    return next(_streams([(seed, *subkeys)]))


def _stream_keys(keys) -> np.ndarray:
    """keys as a 2-D array of non-negative integers, one stream a row."""
    arr = np.asarray(keys)
    if arr.ndim != 2:
        raise DimensionError(
            f"stream keys must be 2-D, one (seed, *subkeys) row per stream, "
            f"got ndim={arr.ndim}")
    if arr.shape[1] < 1:
        raise DimensionError("stream keys need at least a seed in each row")
    if arr.dtype.kind not in "iuO":
        raise InputError(f"stream keys must be integers, got dtype {arr.dtype}")
    if arr.size and (arr < 0).any():
        raise InputError("stream keys must be non-negative integers")
    return arr


def _lcg32(init: int, mult: int, count: int) -> np.ndarray:
    """init and its next ``count`` multiples by ``mult`` mod 2^32, as a
    column: the successive hash constants of SeedSequence."""
    seq = [init]
    for _ in range(count):
        seq.append(seq[-1] * mult % _WORD)
    return np.array(seq, dtype=np.uint32)[:, None]


@functools.cache
def _pool_constants(width: int):
    """The hash-constant columns of SeedSequence.mix_entropy for entropy of
    ``width`` words: one (xor, multiply) pair for the pool fill, then one
    per mixing round.

    mix_entropy hashes every value with the running constant, which it
    advances by one step per hash, in a fixed order.  So a round's
    constants are known up front and a round is one vector operation; a
    pool word does not mix into itself, and its slot holds a dummy 0.
    """
    steps = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(width - _POOL_SIZE, 0)
    seq = _lcg32(_INIT_A, _MULT_A, steps)
    pairs = iter(zip(seq[:-1], seq[1:]))
    fill = [next(pairs) for _ in range(_POOL_SIZE)]
    rounds = [[(np.zeros(1, np.uint32),) * 2 if dst == src else next(pairs)
               for dst in range(_POOL_SIZE)] for src in range(_POOL_SIZE)]
    rounds += [[next(pairs) for _ in range(_POOL_SIZE)]
               for _ in range(_POOL_SIZE, width)]
    stack = lambda group: tuple(np.vstack(c) for c in zip(*group))
    return stack(fill), [stack(group) for group in rounds]


@functools.cache
def _state_constants(n_words: int):
    """SeedSequence.generate_state's pool word and (xor, multiply)
    constant columns for each of ``n_words`` output words."""
    seq = _lcg32(_INIT_B, _MULT_B, n_words)
    return np.arange(n_words) % _POOL_SIZE, seq[:-1], seq[1:]


def _hashmix(value, xor, mult):
    value = value ^ xor
    value *= mult
    value ^= value >> _XSHIFT
    return value


def _seed_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` SeedSequence state words of every column of a
    (width, rows) uint32 entropy array, as (rows, n_words) uint32.

    numpy's pool hash, run on all rows at once in uint32 arithmetic, which
    wraps mod 2^32 as the C code does.
    """
    width, rows = entropy.shape
    fill, rounds = _pool_constants(width)
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:width] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, *fill)
    # round src mixes the hash of pool word src into every other pool
    # word; each entropy word past the pool mixes into all of them
    for src, (xor, mult) in enumerate(rounds):
        value = pool[src] if src < _POOL_SIZE else entropy[src]
        mixed = pool * _MIX_MULT_L
        mixed -= _hashmix(value, xor, mult) * _MIX_MULT_R
        mixed ^= mixed >> _XSHIFT
        if src < _POOL_SIZE:
            mixed[src] = pool[src]
        pool = mixed
    cycle, xor, mult = _state_constants(n_words)
    return _hashmix(pool[cycle], xor, mult).T


def stream_words(keys, n_words: int) -> np.ndarray:
    """The first ``n_words`` SeedSequence state words of every
    (seed, *subkeys) row of keys, as a (rows, n_words) uint32 array.

    Rows with every entry below 2^32 are hashed together; any other row
    is handed to numpy's SeedSequence.
    """
    keys = _stream_keys(keys)
    bulk = (keys < _WORD).all(axis=1)
    words = np.empty((len(keys), n_words), dtype=np.uint32)
    # numpy's entropy words of keys below 2^32, (key length, rows) uint32
    words[bulk] = _seed_words(keys[bulk].astype(np.uint32).T, n_words)
    for t in np.flatnonzero(~bulk):
        words[t] = np.random.SeedSequence(keys[t].tolist()).generate_state(n_words)
    return words


@functools.cache
def _state_words():
    """The ISeedSequence that seeds PCG64 with one stream's precomputed
    state.  Made on first use, so that importing doflab does not import
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        # PCG64 asks its seed sequence for 4 uint64 words: SeedSequence's
        # first 8 uint32 state words, read little-endian in pairs.  Any
        # other request means numpy seeds PCG64 differently, and the
        # streams would no longer be numpy's.
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
                return self.words
            raise ContractError(
                f"PCG64 asked for {n_words} words of {np.dtype(dtype)}, "
                f"not the 4 uint64 words it is seeded with in bulk")

    return StateWords


def _streams(keys: np.ndarray):
    """A new Generator for each (seed, *subkeys) row of keys, in row order,
    each at the start of its stream: numpy's own, bit for bit.

    Each PCG64 seeds itself, in C, from its row's SeedSequence state
    (stream_words), so no SeedSequence is built for a row below 2^32.
    """
    words = stream_words(keys, 8).astype("<u4").view("<u8").astype(np.uint64)
    state_words = _state_words()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for row in words:
        yield generator(pcg64(state_words(row)))


def _draw_blocks(shapes, dist: str, count: int, rngs) -> list[np.ndarray]:
    """Draw one matrix of each shape from each of ``count`` generators.

    Each generator fills its matrices with a single call, shape by shape
    and real block before imaginary block: the order in which repeated
    random_matrix calls consume it.  Returns one (count, rows, cols) array
    per shape; slice t holds the draws of the t-th generator.
    """
    for rows, cols in shapes:
        if rows < 1 or cols < 1:
            raise DimensionError(
                f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if dist not in DISTRIBUTIONS:
        raise InputError(f"unknown distribution {dist!r}, expected one of {DISTRIBUTIONS}")
    sizes = [rows * cols for rows, cols in shapes]
    raw = np.empty((count, 2 * sum(sizes)))
    for row, rng in zip(raw, rngs):
        if dist == "complex-gaussian":
            rng.standard_normal(out=row)
        else:
            row[:] = rng.uniform(-1.0, 1.0, row.size)
    blocks = []
    start = 0
    for (rows, cols), size in zip(shapes, sizes):
        re = raw[:, start:start + size].reshape(-1, rows, cols)
        im = raw[:, start + size:start + 2 * size].reshape(-1, rows, cols)
        start += 2 * size
        if dist == "complex-gaussian":
            blocks.append((re + 1j * im) / np.sqrt(2.0))
        else:
            blocks.append(re + 1j * im)
    return blocks


def random_matrix(rows: int, cols: int, dist: str = "complex-gaussian",
                  rng: np.random.Generator = None) -> np.ndarray:
    """Draw a rows x cols matrix with i.i.d. entries from ``dist``.

    ``complex-gaussian`` is circularly symmetric with unit entry variance;
    ``uniform-square`` draws real and imaginary parts uniformly from
    [-1, 1] (a compact-support alternative).  The real block is drawn
    before the imaginary block, which pins the output for a given rng
    state.  ``rng`` is mandatory: every draw must be reproducible from a
    seed.
    """
    if rng is None:
        raise InputError("rng is required; build one with seeded_rng(seed, ...)")
    return _draw_blocks([(rows, cols)], dist, 1, [rng])[0][0]


def random_matrices(shapes, dist: str, keys) -> list[np.ndarray]:
    """Draw one matrix of each shape from the stream of every key, stacked.

    ``keys`` holds one (seed, *subkeys) row of non-negative integers per
    stream.  Row t's matrices are what random_matrix calls, shape by
    shape, would draw from seeded_rng(*keys[t]), bit for bit; the streams
    are seeded in bulk.  Returns one (len(keys), rows, cols) array per
    shape.
    """
    keys = _stream_keys(keys)
    return _draw_blocks(shapes, dist, len(keys), _streams(keys))


def _rank_svd(a, tol: Tolerance, scale=None, vectors: bool = False):
    """The rank rule, for one matrix or a stack over the leading axes.

    Counts the singular values above
    ``tol.absolute(rows, cols, max(sigma_max, scale))``.  Singular values
    are non-negative, so a zero reference gives rank 0.  ``scale`` is a
    float, or one value per matrix of a stack.  Returns the rank (an int
    array over the leading axes, 0-d for one matrix) and, with
    ``vectors``, the full ``(rank, u, vh)`` of the SVD.
    """
    arr = as_matrix(a)
    rows, cols = arr.shape[-2:]
    if vectors:
        u, s, vh = np.linalg.svd(arr, full_matrices=True)
    else:
        s = np.linalg.svd(arr, compute_uv=False)
    ref = s[..., :1]  # sigma_max, kept as an axis so a stack broadcasts
    if scale is not None:
        ref = np.maximum(ref, np.asarray(scale)[..., None])
    rank = (s > tol.absolute(rows, cols, ref)).sum(axis=-1)
    return (rank, u, vh) if vectors else rank


def unit_scaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a * 2**shift, shift)`` for one matrix or a stack over the leading
    axes, with each matrix's power of two the one that puts its largest
    entry in [1/2, 1): exact, so a norm of the scaled matrix keeps its
    bits, and it neither underflows nor overflows.  2**1023 is the largest
    power of two, for subnormal entries.  ``shift`` has one entry per
    matrix (0-d for one matrix)."""
    _, exponent = np.frexp(np.abs(a).max(axis=(-2, -1)))
    shift = np.minimum(-exponent, 1023)
    return a * np.ldexp(1.0, shift)[..., None, None], shift


def product_scales(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The threshold anchor ||P||_F ||H||_F of each product P H of a stack
    (``p`` may be one plane, broadcast over a stack ``h``), for the
    ``scale`` of a product rank.

    A product can cancel to zero entirely (a K=1 projected cross channel)
    and then has no scale of its own; Frobenius norms upper bound the
    spectral norms, so the anchor bounds every entry of P H.  Both norms
    are taken on the unit-scaled factors (unit_scaled), so neither
    overflows nor loses its largest squares to underflow, and are scaled
    back together.  An anchor beyond double precision's range is ``inf``,
    which would rank the product 0: the caller refuses it.
    """
    (norm_p, shift_p), (norm_h, shift_h) = _unit_norms(p), _unit_norms(h)
    with np.errstate(over="ignore"):
        return np.ldexp(norm_p * norm_h, -(shift_p + shift_h))


def _unit_norms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # one factor at a time, so only one unit-scaled copy is alive
    unit, shift = unit_scaled(a)
    return np.linalg.norm(unit, axis=(-2, -1)), shift


def numeric_rank(a, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> int:
    """Number of singular values above the relative threshold.

    The zero matrix (and the degenerate zero-column case) has rank 0.
    ``scale`` widens the threshold reference to max(sigma_max, scale): pass
    the natural magnitude of the factors when ranking a product whose
    singular values may all cancel, otherwise a fully cancelled product
    (entries at rounding level) would still count as rank >= 1.
    """
    _require_one_matrix(a)
    return int(_rank_svd(a, tol, scale))


def numeric_ranks(stack: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """numeric_rank of each matrix of a stack of equal shape, from one
    stacked SVD call per stack_chunks run."""
    return [rank for run in stack_chunks(stack, *stack.shape[-2:])
            for rank in _rank_svd(run, tol).tolist()]


def null_space_basis(a, tol: Tolerance = DEFAULT_TOL,
                     scale: float | None = None) -> SubspaceBasis:
    """Orthonormal basis of the right null space {x : A x = 0}.

    Basis columns are the right singular vectors whose singular values fall
    below the threshold, kept in descending singular-value order so the
    output is deterministic for a given input.  ``scale`` as in
    numeric_rank.
    """
    _require_one_matrix(a)
    rank, _, vh = _rank_svd(a, tol, scale, vectors=True)
    cols = vh.shape[0]
    return SubspaceBasis(cols, cols - int(rank), vh[rank:].conj().T)


def null_space_bases(a, dim: int, tol: Tolerance = DEFAULT_TOL, scale=None):
    """The null spaces of a stack of matrices, expected ``dim``-dimensional,
    from one SVD: ``(dims, bases, ok)``, arrays over the stack.

    ``dims`` is each matrix's null dimension and ``bases`` its last ``dim``
    right singular vectors as columns: where dims is ``dim``, bit for bit
    null_space_basis's basis.  ``ok`` marks the matrices whose null
    dimension is ``dim`` and whose basis passes one stacked Gram check
    (SubspaceBasis raises the RankError of a basis that failed it).
    ``scale`` as in numeric_rank, one value per matrix.  ``bases`` holds
    only the null-space rows, so it keeps no factor of the stack alive.
    """
    rank, _, vh = _rank_svd(a, tol, scale, vectors=True)
    cols = vh.shape[-1]
    dims = cols - rank
    bases = np.swapaxes(vh[..., cols - dim:, :].conj(), -1, -2)
    ok = dims == dim
    if dim:
        ok &= orthonormal_columns(bases)[0]
    return dims, bases, ok


def stack_chunks(items, rows: int, cols: int) -> list:
    """``items`` (a list or a stack), one rows x cols complex matrix each,
    split in order into runs that one stacked factorization may cover: at
    most STACK_BYTES of matrices and full SVD factors, and at least one."""
    item_bytes = 16 * (rows * cols + rows * rows + cols * cols)
    size = max(1, STACK_BYTES // item_bytes)
    return [items[i:i + size] for i in range(0, len(items), size)]


def range_basis(a, tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space (range) of A."""
    _require_one_matrix(a)
    rank, u, _ = _rank_svd(a, tol, vectors=True)
    return SubspaceBasis(u.shape[0], int(rank), u[:, :rank])


def intersection_dim(u: SubspaceBasis, v: SubspaceBasis,
                     tol: Tolerance = DEFAULT_TOL) -> int:
    """dim(span(U) ∩ span(V)) via dim U + dim V - rank([U V]).

    Exact at the tolerance granularity; symmetric in its arguments and
    invariant under right-multiplication of either basis by a unitary.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}")
    if u.dim == 0 or v.dim == 0:
        return 0
    stacked = np.hstack([u.basis, v.basis])
    return u.dim + v.dim - numeric_rank(stacked, tol)


def orthonormalize_rows(a, tol: Tolerance = DEFAULT_TOL):
    """``(q, full_rank)`` for a stack of matrices A over the leading axes
    (one matrix is a stack with none): each slice of ``q`` is Pi @ A with
    orthonormal rows and the same row space, and ``full_rank`` marks the
    matrices of full row rank, whose ``q`` slice may be used.

    Pi is the inverse of the (conjugated) triangular QR factor, so it is
    invertible whenever A has full row rank.  One SVD ranks the stack and
    one QR factors it.
    """
    arr = as_matrix(a)
    full_rank = _rank_svd(arr, tol) == arr.shape[-2]
    q, _ = np.linalg.qr(np.swapaxes(arr.conj(), -1, -2))
    return np.swapaxes(q.conj(), -1, -2), full_rank
