"""Optimal two-cell linear schemes and their verification.

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

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds, linalg
from .bounds import NSIA, RANDOM, SCHEME_VARIANT, ZF  # re-exported
from .errors import (ConfigurationError, ContractError, DegeneracyError,
                     DimensionError, RankError)
from .linalg import SubspaceBasis, Tolerance
from .network import ChannelSet

# Largest residual interference verify_scheme still calls decodable.
RESIDUAL_THRESHOLD = 1e-10


def other_cell(m: int) -> int:
    """The opposite cell in a two-cell network."""
    if m not in (1, 2):
        raise IndexError(f"cell index m={m} out of range 1..2")
    return 3 - m


@dataclass(frozen=True, eq=False)
class Scheme:
    """A two-cell linear scheme on the channel set ``channels``, named after
    what made it (zf, nsia or random; the name verify_scheme reports).

    ``precoders`` maps (l, k) to M x beta with orthonormal columns, and
    ``projectors`` maps m to the K*beta x N full-row-rank plane P_m, or is
    None when the base stations receive unprojected (zf and random).
    build_nsia also keeps the null space of each projected cross channel
    P_m H_m,lk, keyed (m, k), in ``projected_nulls``; verify_scheme reads
    their dimensions instead of factoring the products again.  Planes from
    anywhere else (pi_transform, or a Scheme built by hand) carry none,
    and verify_scheme measures them as build_nsia does (_projected_nulls).
    ``==`` is identity.
    """

    name: str
    channels: ChannelSet = field(repr=False)
    precoders: dict[tuple[int, int], np.ndarray] = field(repr=False)
    projectors: dict[int, np.ndarray] | None = field(default=None, repr=False)
    projected_nulls: dict[tuple[int, int], SubspaceBasis] | None = field(
        default=None, repr=False)

    def precoder(self, l: int, k: int) -> np.ndarray:
        return self.precoders[(l, k)]

    def projector(self, m: int) -> np.ndarray | None:
        """P_m, or None for a scheme without receive planes."""
        return None if self.projectors is None else self.projectors[m]


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
            doc["null_dims"] = [{"bs": m, "user": k, "dim": d}
                                for (m, k), d in sorted(self.null_dims.items())]
        return doc


def require_two_cells(cs: ChannelSet, what: str):
    """Refuse a channel set that is not two-cell, naming ``what`` needs it."""
    if cs.config.L != 2:
        raise ConfigurationError(
            f"{what} needs L=2 cells, got L={cs.config.L}")


def _require_profile(cs: ChannelSet, scheme: str, label: str):
    cfg = cs.config
    require_two_cells(cs, f"{label} construction")
    expected = bounds.antenna_profile(cfg.K, cfg.beta, SCHEME_VARIANT[scheme])
    if (cfg.M, cfg.N) != expected:
        raise ConfigurationError(
            f"{label} with K={cfg.K}, beta={cfg.beta} needs (M, N)="
            f"{expected}, got ({cfg.M}, {cfg.N})")


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
    _require_profile(cs, ZF, "zero forcing")
    precoders = {}
    for l in (1, 2):
        victim = other_cell(l)
        for k in range(1, cfg.K + 1):
            null = cs.cross_null(victim, l, k)
            if null.dim != beta:
                raise DegeneracyError(
                    f"null space of cross channel (m={victim}, l={l}, k={k}) "
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
    interfering user and is kept on the scheme for verify_scheme.

    A stored null space of another dimension (only in a hand-built
    ChannelSet) is refused first.  The 2K projected cross channels are
    factored as one stack, and the errors are raised from the stacked
    results base station by base station: the plane's, then its projected
    links' in user order.
    """
    cfg = cs.config
    beta = cfg.beta
    _require_profile(cs, NSIA, "null-space alignment")
    users = range(1, cfg.K + 1)
    for (m, l, k), null in sorted(cs.cross_nulls.items()):
        if null.dim != beta:
            raise DegeneracyError(
                f"null space of conjugated cross channel (m={m}, l={l}, "
                f"k={k}) has dimension {null.dim}, expected {beta}")
    planes = {}
    for chunk in linalg.stack_chunks([1, 2], cfg.K * beta, cfg.N):
        q, full_rank = alignment_planes(np.array(
            [[cs.cross_null(m, other_cell(m), k).basis for k in users]
             for m in chunk]), cfg.tol)
        planes.update((m, p) for m, p, ok in zip(chunk, q, full_rank) if ok)
    projected = _projected_nulls(cs, planes)
    precoders = {}
    projected_nulls = {}
    for m in (1, 2):
        if m not in planes:
            raise DegeneracyError(
                f"stacked alignment plane at base station {m} lost rank")
        src = other_cell(m)
        for k in users:
            dim, basis, ok = projected[(m, k)]
            if dim != beta:
                raise DegeneracyError(
                    f"projected cross channel (m={m}, l={src}, k={k}) has "
                    f"null dimension {dim}, expected {beta}")
            null = SubspaceBasis(basis.shape[0], beta, basis, checked=ok)
            precoders[(src, k)] = null.basis
            projected_nulls[(m, k)] = null
    return Scheme(NSIA, cs, precoders, planes, projected_nulls)


def alignment_planes(nulls: np.ndarray, tol: Tolerance) -> tuple:
    """``(planes, full_rank)``: the row-orthonormal alignment planes P_m of
    a stack of base stations, and which of them have full rank.

    ``nulls`` is shaped (..., K, N, beta): the null spaces of the
    conjugated cross channels H*_m,lk of the other cell's users in user
    order (network.cross_null_bases).  User k's basis, conjugate-
    transposed, fills rows (k-1)*beta+1 .. k*beta of P_m; one SVD ranks
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
    keyed (m, k), for every plane given, from one stacked SVD per stack:
    its null dimension, its beta-column basis and whether that is its null
    space and passed the Gram check."""
    cfg = cs.config
    pairs = [(m, k) for m in planes for k in range(1, cfg.K + 1)]
    found = {}
    for chunk in linalg.stack_chunks(pairs, cfg.K * cfg.beta, cfg.M):
        products, scales = _projected_products(cs, planes, chunk)
        dims, bases, ok = linalg.null_space_bases(
            products, cfg.beta, cfg.tol, scale=scales)
        del products  # released before the next chunk's links are stacked
        found.update(zip(chunk, zip(dims.tolist(), bases, ok.tolist())))
    return found


def _projected_products(cs: ChannelSet, planes: dict[int, np.ndarray],
                        chunk: list[tuple[int, int]]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """``(products, scales)``: P_m H_m,lk for the (m, k) pairs of
    ``chunk``, as one stack, and their threshold anchors.

    The chunk's links are stacked once.  Each base station's plane
    multiplies its slice of that stack, and linalg.product_scales takes
    the anchors from the same slice.  The anchors come first: they bound
    every entry of P H, so the first one that is not finite is refused, in
    (m, k) order, before its product can overflow.  The link stack is
    released on return, before the products are factored.
    """
    h = np.stack([cs.channel(m, other_cell(m), k) for m, k in chunk])
    rows = planes[chunk[0][0]].shape[0]
    products = np.empty((len(chunk), rows, cs.config.M), dtype=np.complex128)
    scales = np.empty(len(chunk))
    stop = 0
    for m, run in itertools.groupby(chunk, key=lambda pair: pair[0]):
        at = slice(stop, stop + len(list(run)))
        stop = at.stop
        scales[at] = linalg.product_scales(planes[m], h[at])
        for (_, k), scale in zip(chunk[at], scales[at].tolist()):
            if not math.isfinite(scale):
                raise DegeneracyError(
                    f"threshold scale of projected cross channel (m={m}, "
                    f"l={other_cell(m)}, k={k}) is {scale}: channel "
                    f"magnitudes overflow double precision")
        np.matmul(planes[m], h[at], out=products[at])
    return products, scales


def _require_precoder_rows(h: np.ndarray, w: np.ndarray, l: int, k: int):
    if h.shape[1] != w.shape[0]:
        raise DimensionError(
            f"precoder (l={l}, k={k}) has {w.shape[0]} rows, channel "
            f"expects {h.shape[1]}")


def _require_plane_shape(p: np.ndarray, m: int, cfg):
    if p.shape != (cfg.K * cfg.beta, cfg.N):
        raise DimensionError(
            f"plane at base station {m} has shape {p.shape}, expected "
            f"({cfg.K * cfg.beta}, {cfg.N})")


def desired_matrix(scheme: Scheme, m: int) -> np.ndarray:
    """Effective desired channel of cell m, P_m G_m, where
    G_m = [H_m,m1 W_m1 ... H_m,mK W_mK]; plain G_m for a scheme without
    receive planes."""
    cols = []
    for k in range(1, scheme.channels.config.K + 1):
        h = scheme.channels.channel(m, m, k)
        w = scheme.precoder(m, k)
        _require_precoder_rows(h, w, m, k)
        cols.append(h @ w)
    g = np.hstack(cols)
    p = scheme.projector(m)
    return g if p is None else p @ g


def verify_scheme(scheme: Scheme) -> SchemeReport:
    """Measure alignment residuals and effective ranks, judge decodability.

    The residual is the worst relative leakage over all cross links:
    ||H_cross W||_F / ||H_cross||_F, with H_cross replaced by the projected
    cross channel when the scheme has receive planes.  Decodable means
    every per-cell effective rank equals K*beta and the residual is at
    most RESIDUAL_THRESHOLD.  The report is named after the scheme.  A
    plane that is not K*beta x N raises DimensionError naming its base
    station.  The projected null dimensions come from the scheme's stored
    null spaces when it has them; planes without them (pi_transform, or a Scheme built
    by hand) are measured by build_nsia's own stacked _projected_nulls,
    which refuses a threshold scale that overflows.  Each leak is measured
    on its link scaled by the power of two that puts the largest entry in
    [1/2, 1) (linalg.unit_scaled): exact, so a residual keeps its bits,
    and the norms of a link far from unit magnitude (entries near 1e-150
    square to about 1e-300) neither underflow nor overflow.  A leakage
    that is still not finite (a zero link, or precoders or planes whose
    products overflow) raises DegeneracyError naming the link instead of
    being folded into the residual.
    """
    cs = scheme.channels
    cfg = cs.config
    require_two_cells(cs, "scheme verification")
    kb = cfg.K * cfg.beta
    if scheme.projectors is not None:
        for m in (1, 2):
            _require_plane_shape(scheme.projector(m), m, cfg)
    residual = 0.0
    for m in (1, 2):
        src = other_cell(m)
        p = scheme.projector(m)
        for k in range(1, cfg.K + 1):
            h = cs.channel(m, src, k)
            w = scheme.precoder(src, k)
            _require_precoder_rows(h, w, src, k)
            unit, _ = linalg.unit_scaled(h)
            cross = unit if p is None else p @ unit
            # norms that still overflow or underflow give inf or NaN,
            # refused here: max() would drop a NaN and let the link pass
            with np.errstate(over="ignore", invalid="ignore"):
                leak = float(np.linalg.norm(cross @ w) / np.linalg.norm(unit))
            if not math.isfinite(leak):
                raise DegeneracyError(
                    f"leakage on cross link (m={m}, l={src}, k={k}) is {leak}: "
                    f"magnitudes overflow or underflow double precision")
            residual = max(residual, leak)
    if scheme.projected_nulls is not None:
        null_dims = {key: null.dim
                     for key, null in scheme.projected_nulls.items()}
    elif scheme.projectors is not None:
        null_dims = {key: dim for key, (dim, _, _)
                     in _projected_nulls(cs, scheme.projectors).items()}
    else:
        null_dims = None
    desired = [desired_matrix(scheme, m) for m in (1, 2)]
    if desired[0].shape == desired[1].shape:
        ranks = linalg.numeric_ranks(np.stack(desired), cfg.tol)
    else:  # precoders of unequal widths, only in a hand-built scheme
        ranks = [linalg.numeric_rank(g, cfg.tol) for g in desired]
    effective_rank = dict(zip((1, 2), ranks))
    decodable = (all(r == kb for r in effective_rank.values())
                 and residual <= RESIDUAL_THRESHOLD)
    return SchemeReport(
        scheme=scheme.name,
        residual_interference=residual,
        effective_rank=effective_rank,
        decodable=decodable,
        null_dims=null_dims,
    )


def pi_transform(scheme: Scheme, pi: dict[int, np.ndarray],
                 tol: Tolerance = Tolerance()) -> Scheme:
    """The scheme with each plane left-multiplied by an invertible Pi_m.

    The projector's null space, hence the alignment dimension condition,
    is unchanged, but row orthonormality is lost unless every Pi_m is
    unitary, and the result keeps no stored null spaces.  A scheme without
    receive planes (zf, random) raises ContractError.
    """
    if scheme.projectors is None:
        raise ContractError(f"{scheme.name} scheme has no receive planes")
    transformed = {}
    for m, p in scheme.projectors.items():
        pi_m = linalg.as_matrix(pi[m], name=f"Pi[{m}]")
        rows = p.shape[0]
        if pi_m.shape != (rows, rows):
            raise DimensionError(
                f"Pi[{m}] must be {rows}x{rows}, got {pi_m.shape}")
        if linalg.numeric_rank(pi_m, tol) < rows:
            raise RankError(f"Pi[{m}] is singular at tolerance")
        transformed[m] = pi_m @ p
    return replace(scheme, projectors=transformed, projected_nulls=None)
