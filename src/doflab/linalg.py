"""Complex dense-matrix subspace algebra.

Numeric rank, null/range bases, subspace intersection and seeded random
matrix generation.  Everything here is a pure function of its inputs; RNG
state is always passed explicitly so results are reproducible from a seed.
one_blas_thread pins OpenBLAS to one thread, which keeps large-matrix
results independent of the core count.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InputError, RankError

log = logging.getLogger(__name__)

DISTRIBUTIONS = ("complex-gaussian", "uniform-square")

# OpenBLAS thread-count setter/getter names, by wheel: scipy-openblas
# ILP64 and LP64 builds (numpy >= 2), then numpy 1.x's bundled OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)

# Orthonormality slack (orthonormal_columns): 10x the default relative
# rank tolerance.  SVD/QR factors are orthonormal to ~1e-15, so this only
# trips on genuinely broken bases.
_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Relative SVD cutoff used for every rank decision.

    A singular value counts toward the rank when it exceeds
    ``rel_rank_tol * max(rows, cols) * sigma_max``.
    """

    rel_rank_tol: float = 1e-10

    def __post_init__(self):
        tol = self.rel_rank_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise InputError(f"rel_rank_tol must be a number, got {tol!r}")
        if not 0.0 < tol < 1.0:
            raise InputError(
                f"rel_rank_tol must be in (0, 1), got {self.rel_rank_tol}")

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
    ``dim`` may be zero (the trivial subspace).  ``==`` is identity.
    """

    ambient_dim: int
    dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise DimensionError(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if not 0 <= self.dim <= self.ambient_dim:
            raise DimensionError(
                f"dim must be in [0, {self.ambient_dim}], got {self.dim}")
        if self.basis.shape != (self.ambient_dim, self.dim):
            raise DimensionError(
                f"basis shape {self.basis.shape} does not match "
                f"({self.ambient_dim}, {self.dim})")
        if self.dim > 0:
            ok, err = orthonormal_columns(self.basis)
            if not ok:
                raise RankError(
                    f"basis columns are not orthonormal (max Gram error {err:.3e})")


def orthonormal_columns(a: np.ndarray, stacked: bool = False):
    """(ok, err): err is max |A* A - I|, ok that it is within _ORTHO_TOL.

    With ``stacked``, ``a`` is a (T, rows, cols) stack and ok and err are
    arrays with one entry per matrix.  A NaN error is never ok.
    """
    gram = np.swapaxes(a.conj(), -1, -2) @ a
    err = np.abs(gram - np.eye(a.shape[-1])).max(axis=(-2, -1))
    if stacked:
        return err <= _ORTHO_TOL, err
    return bool(err <= _ORTHO_TOL), float(err)


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


def as_matrix(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Validate and convert input to a finite 2-D complex array.

    With ``stacked`` the input must instead be a (T, rows, cols) stack of
    matrices.
    """
    arr = np.asarray(a, dtype=np.complex128)
    ndim = 3 if stacked else 2
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    return arr


def require_seed(seed: int):
    """Refuse a negative seed, which no generator stream is keyed by."""
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")


def seeded_rng(seed: int, *subkeys: int) -> np.random.Generator:
    """Generator for a (seed, subkeys) stream, stable across runs.

    Distinct subkey tuples give statistically independent streams, so one
    matrix can be regenerated without shifting any other.
    """
    require_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([seed, *subkeys]))


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
    return random_matrices([(rows, cols)], dist, [rng])[0][0]


def random_matrices(shapes, dist: str, rngs) -> list[np.ndarray]:
    """Draw one matrix of each shape from every generator, stacked.

    Each generator fills its matrices with a single call, shape by shape
    and real block before imaginary block: the order in which repeated
    random_matrix calls consume it.  Returns one (len(rngs), rows, cols)
    array per shape; slice t holds the draws of ``rngs[t]``.
    """
    for rows, cols in shapes:
        if rows < 1 or cols < 1:
            raise DimensionError(
                f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if dist not in DISTRIBUTIONS:
        raise InputError(f"unknown distribution {dist!r}, expected one of {DISTRIBUTIONS}")
    if any(rng is None for rng in rngs):
        raise InputError("rng is required; build one with seeded_rng(seed, ...)")
    sizes = [rows * cols for rows, cols in shapes]
    raw = np.empty((len(rngs), 2 * sum(sizes)))
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


def _rank_svd(a, tol: Tolerance, scale=None, vectors: bool = False,
              stacked: bool = False):
    """The rank rule, for one matrix or a (T, rows, cols) stack.

    Counts the singular values above
    ``tol.absolute(rows, cols, max(sigma_max, scale))``.  Singular values
    are non-negative, so a zero reference gives rank 0.  ``scale`` is a
    float, or one value per matrix of a stack.  Returns the rank (an int,
    or an int array over the stack) and, with ``vectors``, the full
    ``(rank, u, vh)`` of the SVD.
    """
    arr = as_matrix(a, stacked=stacked)
    rows, cols = arr.shape[-2:]
    if vectors:
        u, s, vh = np.linalg.svd(arr, full_matrices=True)
    else:
        s = np.linalg.svd(arr, compute_uv=False)
    ref = s[..., :1]  # sigma_max, kept as an axis so a stack broadcasts
    if scale is not None:
        ref = np.maximum(ref, np.reshape(scale, (-1, 1)) if stacked else scale)
    above = s > tol.absolute(rows, cols, ref)
    rank = above.sum(axis=-1) if stacked else int(np.count_nonzero(above))
    return (rank, u, vh) if vectors else rank


def numeric_rank(a, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> int:
    """Number of singular values above the relative threshold.

    The zero matrix (and the degenerate zero-column case) has rank 0.
    ``scale`` widens the threshold reference to max(sigma_max, scale): pass
    the natural magnitude of the factors when ranking a product whose
    singular values may all cancel, otherwise a fully cancelled product
    (entries at rounding level) would still count as rank >= 1.
    """
    return _rank_svd(a, tol, scale)


def null_space_basis(a, tol: Tolerance = DEFAULT_TOL,
                     scale: float | None = None) -> SubspaceBasis:
    """Orthonormal basis of the right null space {x : A x = 0}.

    Basis columns are the right singular vectors whose singular values fall
    below the threshold, kept in descending singular-value order so the
    output is deterministic for a given input.  ``scale`` as in
    numeric_rank.
    """
    rank, _, vh = _rank_svd(a, tol, scale, vectors=True)
    cols = vh.shape[0]
    return SubspaceBasis(cols, cols - rank, vh[rank:].conj().T)


def range_basis(a, tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space (range) of A."""
    rank, u, _ = _rank_svd(a, tol, vectors=True)
    return SubspaceBasis(u.shape[0], rank, u[:, :rank])


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


def orthonormalize_rows(a, tol: Tolerance = DEFAULT_TOL,
                        stacked: bool = False):
    """Replace A by Pi @ A with orthonormal rows and the same row space.

    Pi is the inverse of the (conjugated) triangular QR factor, so it is
    invertible whenever A has full row rank; rank-deficient input is
    rejected rather than silently truncated.  With ``stacked``, ``a`` is a
    (T, rows, cols) stack, ranked and factored by one call each, and the
    result is ``(q, full_rank)``: ``full_rank`` marks the matrices of the
    stack whose ``q`` slice may be used, in place of the RankError.
    """
    arr = as_matrix(a, stacked=stacked)
    full_rank = _rank_svd(arr, tol, stacked=stacked) == arr.shape[-2]
    if not stacked and not full_rank:
        raise RankError(f"matrix of shape {arr.shape} is not full row rank")
    q, _ = np.linalg.qr(np.swapaxes(arr.conj(), -1, -2))
    q = np.swapaxes(q.conj(), -1, -2)
    return (q, full_rank) if stacked else q
