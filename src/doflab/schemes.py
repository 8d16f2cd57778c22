"""Optimal two-cell linear schemes, and their verification at any L.

Two closed-form constructions deliver 2*K*beta interference-free streams:

* transmit zero forcing (tx-heavy profile, M = K*beta + beta, N = K*beta):
  each user precodes inside the null space of its cross channel, so
  interference is cancelled before it reaches the other base station.

* null-space interference alignment (rx-heavy profile, M = K*beta,
  N = K*beta + beta): each base station projects with a plane P_m whose
  rows live in the null spaces of the conjugated cross channels, which
  collapses all out-of-cell interference and leaves each projected cross
  channel with a beta-dimensional null space for the precoders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds, linalg
from .bounds import NSIA, RANDOM, SCHEME_VARIANT, ZF  # re-exported
from .errors import ContractError, DegeneracyError, DimensionError, RankError
from .linalg import SubspaceBasis, Tolerance
from .network import ChannelSet

# Largest residual interference verify_scheme still calls decodable.
RESIDUAL_THRESHOLD = 1e-10


@dataclass(frozen=True, eq=False)
class Scheme:
    """A linear scheme on the L-cell channel set ``channels``, named after
    what made it (zf, nsia or random; the name verify_scheme reports).

    ``precoders`` maps each user (l, k) to an M x beta precoder with
    orthonormal columns, and ``projectors`` maps each base station m to the
    K*beta x N full-row-rank plane P_m, or is None when the base stations
    receive unprojected (zf and random).  These shapes are checked when the
    scheme is made: a missing, extra or misshapen precoder or plane raises
    DimensionError naming its user or base station, so every scheme
    carries beta streams per user, the rank K*beta that verify_scheme asks
    of each cell.  build_nsia also keeps the null dimension of each
    projected cross channel P_m H_m,lk in ``null_dims``, keyed (m, j) like
    SchemeReport.null_dims; verify_scheme reports them instead of factoring
    the products again.  Planes from anywhere else (pi_transform, or a
    Scheme built by hand) carry none, and verify_scheme measures them as
    build_nsia does (_projected_nulls), at any L.  ``==`` is identity.
    """

    name: str
    channels: ChannelSet = field(repr=False)
    precoders: dict[tuple[int, int], np.ndarray] = field(repr=False)
    projectors: dict[int, np.ndarray] | None = field(default=None, repr=False)
    null_dims: dict[tuple[int, int], int] | None = field(default=None, repr=False)

    def __post_init__(self):
        cfg = self.channels.config
        cells = range(1, cfg.L + 1)
        _require_shapes("precoder", self.precoders, (cfg.M, cfg.beta), {
            (l, k): f"precoder of user (l={l}, k={k})"
            for l in cells for k in range(1, cfg.K + 1)})
        if self.projectors is not None:
            _require_shapes("plane", self.projectors, (cfg.K * cfg.beta, cfg.N),
                            {m: f"plane at base station {m}" for m in cells})

    def precoder(self, l: int, k: int) -> np.ndarray:
        return self.precoders[(l, k)]

    def projector(self, m: int) -> np.ndarray | None:
        """P_m, or None for a scheme without receive planes."""
        return None if self.projectors is None else self.projectors[m]


def _require_shapes(what: str, arrays: dict, shape: tuple, names: dict):
    """Refuse ``arrays`` unless it maps exactly the keys of ``names`` to
    arrays of ``shape``, naming the first one missing or misshapen, or a
    key the network does not have."""
    for key, name in names.items():
        if key not in arrays:
            raise DimensionError(f"{name} is missing")
        if arrays[key].shape != shape:
            raise DimensionError(f"{name} has shape {arrays[key].shape}, "
                                 f"expected {shape}")
    if len(arrays) > len(names):
        extra = next(key for key in arrays if key not in names)
        raise DimensionError(f"{what} keyed {extra!r} is not in the network")


@dataclass(frozen=True)
class SchemeReport:
    """Alignment residuals, effective ranks and the decodability verdict."""

    scheme: str
    residual_interference: float
    effective_rank: dict[int, int]
    decodable: bool
    null_dims: dict[tuple[int, int], int] | None = None

    def to_dict(self) -> dict:
        doc = {
            "scheme": self.scheme,
            "residual_interference": self.residual_interference,
            "effective_rank": [{"cell": m, "rank": r}
                               for m, r in sorted(self.effective_rank.items())],
            "decodable": self.decodable,
        }
        if self.null_dims is not None:
            doc["null_dims"] = [{"bs": m, "user": j, "dim": d}
                                for (m, j), d in sorted(self.null_dims.items())]
        return doc


def build_zf_precoders(cs: ChannelSet) -> Scheme:
    """Zero-forcing precoders: span(W_lk) inside null(H_cross).

    With beta the channel set's (NetworkConfig.beta), the cross channel of
    user (l, k) is K*beta x (K*beta + beta), so its null space has
    dimension exactly beta almost surely and the null-space basis itself
    (the channel set's stored factor) is the precoder (orthonormal columns
    for free).  The base stations receive unprojected.
    """
    cfg = cs.config
    beta = cfg.beta
    bounds.require_profile(cfg, SCHEME_VARIANT[ZF])
    precoders = {}
    for m in (2, 1):  # cell 1's users, base station 2's interferers, first
        for l, k in cfg.interferers(m):
            null = cs.cross_null(m, l, k)
            if null.dim != beta:
                raise DegeneracyError(
                    f"null space of cross channel (m={m}, l={l}, k={k}) "
                    f"has dimension {null.dim}, expected {beta}")
            precoders[(l, k)] = null.basis
    return Scheme(ZF, cs, precoders)


def build_nsia(cs: ChannelSet) -> Scheme:
    """Null-space interference alignment: projectors P_m, then precoders.

    With beta the channel set's (NetworkConfig.beta), for each base station
    m the conjugated cross channels H* are K*beta x (K*beta + beta) with
    beta-dimensional null spaces N_mk, which alignment_planes stacks into
    the plane P_m.  Each projected cross channel P_m H is then square with
    a beta-dimensional null space, which becomes the precoder of the
    interfering user; ``null_dims`` keeps its dimension for verify_scheme,
    keyed (m, j) by the user's position j in NetworkConfig.interferers(m).

    A network off the profile (bounds.require_profile), then a stored null
    space of another dimension (only in a hand-built ChannelSet), is
    refused first.  The 2K projected cross channels are factored as one
    stack, and the errors are raised from the stacked results base station
    by base station: the plane's, then its projected links' in interferer
    order.
    """
    cfg = cs.config
    beta = cfg.beta
    bounds.require_profile(cfg, SCHEME_VARIANT[NSIA])
    for (m, l, k), null in sorted(cs.cross_nulls.items()):
        if null.dim != beta:
            raise DegeneracyError(
                f"null space of conjugated cross channel (m={m}, l={l}, "
                f"k={k}) has dimension {null.dim}, expected {beta}")
    planes = {}
    for chunk in linalg.stack_chunks([1, 2], cfg.K * beta, cfg.N):
        q, full_rank = alignment_planes(np.array(
            [[cs.cross_null(m, *user).basis for user in cfg.interferers(m)]
             for m in chunk]), cfg.tol)
        planes.update((m, p) for m, p, ok in zip(chunk, q, full_rank) if ok)
    projected = _projected_nulls(cs, planes)
    precoders, null_dims = {}, {}
    for m in (1, 2):
        if m not in planes:
            raise DegeneracyError(
                f"stacked alignment plane at base station {m} lost rank")
        for j, (l, k) in enumerate(cfg.interferers(m), start=1):
            dim, basis, ok = projected[(m, j)]
            if dim != beta:
                raise DegeneracyError(
                    f"projected cross channel (m={m}, l={l}, k={k}) has "
                    f"null dimension {dim}, expected {beta}")
            precoders[(l, k)] = SubspaceBasis(basis.shape[0], beta, basis,
                                              checked=ok).basis
            null_dims[(m, j)] = dim
    return Scheme(NSIA, cs, precoders, planes, null_dims)


def alignment_planes(nulls: np.ndarray, tol: Tolerance) -> tuple:
    """``(planes, full_rank)``: the row-orthonormal alignment planes P_m of
    a stack of base stations, and which of them have full rank.

    ``nulls`` is shaped (..., K, N, beta): the null spaces of the
    conjugated cross channels H*_m,lk of NetworkConfig.interferers(m) in
    order (network.cross_null_bases).  The j-th basis, conjugate-
    transposed, fills rows (j-1)*beta+1 .. j*beta of P_m; one SVD ranks
    the planes and one QR orthonormalizes their rows, which keeps the
    projected noise white.  build_nsia and lemma2's nsia source build
    their planes here.
    """
    *stack, users, n, beta = nulls.shape
    rows = np.swapaxes(nulls.conj(), -1, -2).reshape(*stack, users * beta, n)
    return linalg.orthonormalize_rows(rows, tol)


def _projected_nulls(cs: ChannelSet, planes: dict[int, np.ndarray]
                     ) -> dict[tuple[int, int], tuple[int, np.ndarray, bool]]:
    """linalg.null_space_bases of each projected cross channel P_m H_m,lk,
    keyed (m, j) for every plane given, j the position of user (l, k) in
    NetworkConfig.interferers(m): its null dimension, its beta-column
    basis and whether that is its null space and passed the Gram check.

    Each stack_chunks run stacks one plane and one link per pair and takes
    their threshold anchors (linalg.product_scales) first: they bound
    every entry of P H, so the first one that is not finite is refused,
    in pair order, before its product can overflow.  Then one SVD factors
    the run's products P H.  The stacks are freed once the products are
    formed, and the products once they are factored: at K=32, beta=4 a
    run is one pair, and the pass holds at most four link-sized numpy
    arrays beyond the null spaces it keeps.
    """
    cfg = cs.config
    pairs = [((m, j), (m, *user)) for m in planes
             for j, user in enumerate(cfg.interferers(m), start=1)]
    found = {}
    for chunk in linalg.stack_chunks(pairs, cfg.K * cfg.beta, cfg.M):
        p = np.stack([planes[m] for (m, _), _ in chunk])
        h = np.stack([cs.channel(*link) for _, link in chunk])
        scales = linalg.product_scales(p, h)
        for (_, (m, l, k)), scale in zip(chunk, scales.tolist()):
            if not math.isfinite(scale):
                raise DegeneracyError(
                    f"threshold scale of projected cross channel (m={m}, "
                    f"l={l}, k={k}) is {scale}: channel "
                    f"magnitudes overflow double precision")
        products = p @ h
        del p, h  # the SVD needs only the products
        dims, bases, ok = linalg.null_space_bases(
            products, cfg.beta, cfg.tol, scale=scales)
        del products  # before the next run's stacks are made
        found.update(zip((key for key, _ in chunk),
                         zip(dims.tolist(), bases, ok.tolist())))
    return found


def desired_matrix(scheme: Scheme, m: int) -> np.ndarray:
    """Effective desired channel of cell m, P_m G_m, where
    G_m = [H_m,m1 W_m1 ... H_m,mK W_mK]; plain G_m for a scheme without
    receive planes."""
    g = np.hstack([scheme.channels.channel(m, m, k) @ scheme.precoder(m, k)
                   for k in range(1, scheme.channels.config.K + 1)])
    p = scheme.projector(m)
    return g if p is None else p @ g


def verify_scheme(scheme: Scheme) -> SchemeReport:
    """Measure alignment residuals and effective ranks, judge decodability.

    The residual is the worst relative leakage over the cross links
    (m, l != m, k) of all L cells: ||H_cross W||_F / ||H_cross||_F, with
    H_cross replaced by the projected cross channel when the scheme has
    receive planes.  Decodable means every per-cell effective rank equals
    K*beta and the residual is at most RESIDUAL_THRESHOLD.  K*beta is the
    right target because the Scheme checked its shapes when it was made,
    so one stacked SVD ranks every cell.  The report is named after the
    scheme.  The projected null dimensions are the scheme's own
    ``null_dims`` when it has them; planes without them (pi_transform, or
    a Scheme built by hand) are measured at any L by build_nsia's
    _projected_nulls, which refuses a threshold scale that overflows.  Both
    are keyed (m, j), j the position of user (l, k) in
    NetworkConfig.interferers(m): at L=2, the other cell's user k.
    Each leak is measured on its link scaled by the power of two that puts
    the largest entry in [1/2, 1) (linalg.unit_scaled): exact, so a
    residual keeps its bits, and the norms of a link far from unit
    magnitude (entries near 1e-150 square to about 1e-300) neither
    underflow nor overflow.  A leakage that is still not finite (a zero
    link, or precoders or planes whose products overflow) raises
    DegeneracyError naming the link instead of being folded into the
    residual.
    """
    cs = scheme.channels
    cfg = cs.config
    kb = cfg.K * cfg.beta
    residual = _residual(scheme)
    null_dims = scheme.null_dims
    if null_dims is None and scheme.projectors is not None:
        null_dims = {key: dim for key, (dim, _, _)
                     in _projected_nulls(cs, scheme.projectors).items()}
    ranks = linalg.numeric_ranks(
        [desired_matrix(scheme, m) for m in range(1, cfg.L + 1)], cfg.tol)
    effective_rank = dict(enumerate(ranks, start=1))
    decodable = (all(r == kb for r in effective_rank.values())
                 and residual <= RESIDUAL_THRESHOLD)
    return SchemeReport(
        scheme=scheme.name,
        residual_interference=residual,
        effective_rank=effective_rank,
        decodable=decodable,
        null_dims=null_dims,
    )


def _residual(scheme: Scheme) -> float:
    """verify_scheme's residual, the worst leakage over the cross links.
    A function of its own, so that the last link's unit-scaled copies are
    freed before verify_scheme forms the desired matrices."""
    cs = scheme.channels
    residual = 0.0
    for m in range(1, cs.config.L + 1):
        p = scheme.projector(m)
        for l, k in cs.config.interferers(m):
            h = cs.channel(m, l, k)
            w = scheme.precoder(l, k)
            unit, _ = linalg.unit_scaled(h)
            cross = unit if p is None else p @ unit
            # norms that still overflow or underflow give inf or NaN,
            # refused here: max() would drop a NaN and let the link pass
            with np.errstate(over="ignore", invalid="ignore"):
                leak = float(np.linalg.norm(cross @ w) / np.linalg.norm(unit))
            if not math.isfinite(leak):
                raise DegeneracyError(
                    f"leakage on cross link (m={m}, l={l}, k={k}) is {leak}: "
                    f"magnitudes overflow or underflow double precision")
            residual = max(residual, leak)
    return residual


def pi_transform(scheme: Scheme, pi: dict[int, np.ndarray]) -> Scheme:
    """The scheme with each plane left-multiplied by an invertible Pi_m.

    The projector's null space, hence the alignment dimension condition,
    is unchanged, but row orthonormality is lost unless every Pi_m is
    unitary; the result keeps no ``null_dims``, so verify_scheme measures
    its planes afresh.  A missing, extra or misshapen Pi_m raises
    DimensionError, a Pi_m singular at the scheme's own tolerance
    RankError, and a zf or random scheme ContractError.
    """
    if scheme.projectors is None:
        raise ContractError(f"{scheme.name} scheme has no receive planes")
    pi = {m: linalg.as_matrix(pi_m, name=f"Pi[{m}]") for m, pi_m in pi.items()}
    rows = scheme.projector(1).shape[0]  # K*beta
    _require_shapes("Pi", pi, (rows, rows),
                    {m: f"Pi[{m}]" for m in scheme.projectors})
    transformed = {}
    for m, p in scheme.projectors.items():
        if linalg.numeric_rank(pi[m], scheme.channels.config.tol) < rows:
            raise RankError(f"Pi[{m}] is singular at tolerance")
        transformed[m] = pi[m] @ p
    return replace(scheme, projectors=transformed, null_dims=None)
