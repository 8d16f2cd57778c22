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

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConfigurationError, DegeneracyError, DimensionError, RankError
from .linalg import SubspaceBasis, Tolerance
from .network import ChannelSet

ZF = "zf"
NSIA = "nsia"
# Largest residual interference verify_scheme still calls decodable.
RESIDUAL_THRESHOLD = 1e-10


def other_cell(m: int) -> int:
    """The opposite cell in a two-cell network."""
    if m not in (1, 2):
        raise IndexError(f"cell index m={m} out of range 1..2")
    return 3 - m


@dataclass(frozen=True, eq=False)
class PrecoderSet:
    """Per-user precoders, (l, k) -> M x beta with orthonormal columns.

    ``scheme`` names what made them (zf, nsia or random), and is the name
    verify_scheme reports.  ``==`` is identity.
    """

    scheme: str
    beta: int
    precoders: dict[tuple[int, int], np.ndarray] = field(repr=False)

    def precoder(self, l: int, k: int) -> np.ndarray:
        return self.precoders[(l, k)]


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """Per-base-station projection planes, m -> K*beta x N full row rank.

    build_nsia also keeps the null space of each projected cross channel
    P_m H_m,lk, keyed (m, k), in ``projected_nulls`` and the channel set
    it built from in ``built_from``; verify_scheme reads their dimensions
    for that channel set instead of factoring the products again.  Planes
    from anywhere else (pi_transform) carry none and are measured afresh.
    ``==`` is identity.
    """

    projectors: dict[int, np.ndarray] = field(repr=False)
    row_orthonormalized: bool = True
    projected_nulls: dict[tuple[int, int], SubspaceBasis] | None = field(
        default=None, repr=False)
    built_from: ChannelSet | None = field(default=None, repr=False)

    def projector(self, m: int) -> np.ndarray:
        return self.projectors[m]


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


def _require_profile(cs: ChannelSet, expect_m: int, expect_n: int,
                     scheme: str):
    cfg = cs.config
    if cfg.L != 2:
        raise ConfigurationError(
            f"{scheme} construction needs L=2 cells, got L={cfg.L}")
    if (cfg.M, cfg.N) != (expect_m, expect_n):
        raise ConfigurationError(
            f"{scheme} with K={cfg.K}, beta={cfg.beta} needs (M, N)="
            f"({expect_m}, {expect_n}), got ({cfg.M}, {cfg.N})")


def build_zf_precoders(cs: ChannelSet) -> PrecoderSet:
    """Zero-forcing precoders: span(W_lk) inside null(H_cross).

    With beta the channel set's (NetworkConfig.beta), the cross channel of
    user (l, k) is K*beta x (K*beta + beta), so its null space has
    dimension exactly beta almost surely and the null-space basis itself
    (the channel set's stored factor) is the precoder (orthonormal columns
    for free).
    """
    cfg = cs.config
    beta = cfg.beta
    _require_profile(cs, cfg.K * beta + beta, cfg.K * beta, "zero forcing")
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
    return PrecoderSet(ZF, beta, precoders)


def build_nsia(cs: ChannelSet) -> tuple[ProjectorSet, PrecoderSet]:
    """Null-space interference alignment: projectors P_m, then precoders.

    With beta the channel set's (NetworkConfig.beta), for each base station
    m the conjugated cross channels H* are K*beta x (K*beta + beta) with
    beta-dimensional null spaces N_mk; P_m stacks the N_mk as rows (user k
    occupying rows (k-1)*beta+1 .. k*beta) and is then row-orthonormalized,
    a specific choice of the left factor that keeps the projected noise
    white.  Each projected cross channel P_m H is then square with a
    beta-dimensional null space, which becomes the precoder of the
    interfering user and is kept on the ProjectorSet for verify_scheme.
    """
    cfg = cs.config
    beta = cfg.beta
    _require_profile(cs, cfg.K * beta, cfg.K * beta + beta,
                     "null-space alignment")
    projectors = {}
    precoders = {}
    projected_nulls = {}
    for m in (1, 2):
        src = other_cell(m)
        p = alignment_plane([cs.cross_null(m, src, k)
                             for k in range(1, cfg.K + 1)], beta, cfg.tol, m)
        projectors[m] = p
        for k in range(1, cfg.K + 1):
            h = cs.channel(m, src, k)
            # Threshold anchored to the factor magnitudes (Frobenius upper
            # bounds the spectral norm): for K=1 the product cancels to
            # zero entirely and has no scale of its own.
            null = linalg.null_space_basis(
                p @ h, cfg.tol, scale=np.linalg.norm(p) * np.linalg.norm(h))
            if null.dim != beta:
                raise DegeneracyError(
                    f"projected cross channel (m={m}, l={src}, k={k}) has "
                    f"null dimension {null.dim}, expected {beta}")
            precoders[(src, k)] = null.basis
            projected_nulls[(m, k)] = null
    return (ProjectorSet(projectors, row_orthonormalized=True,
                         projected_nulls=projected_nulls, built_from=cs),
            PrecoderSet(NSIA, beta, precoders))


def alignment_plane(nulls: list[SubspaceBasis], beta: int, tol: Tolerance,
                    m: int) -> np.ndarray:
    """Row-orthonormal alignment plane P_m of base station m.

    ``nulls`` holds the null spaces of the conjugated cross channels
    H*_m,lk of the other cell's users in user order (ChannelSet.cross_null).
    Each needs dimension beta; user k's basis fills rows
    (k-1)*beta+1 .. k*beta of P_m.
    """
    src = other_cell(m)
    for k, null in enumerate(nulls, start=1):
        if null.dim != beta:
            raise DegeneracyError(
                f"null space of conjugated cross channel (m={m}, l={src}, "
                f"k={k}) has dimension {null.dim}, expected {beta}")
    try:
        return linalg.orthonormalize_rows(
            np.hstack([null.basis for null in nulls]).conj().T, tol)
    except RankError as exc:
        raise DegeneracyError(
            f"stacked alignment plane at base station {m} lost rank") from exc


def desired_matrix(cs: ChannelSet, precoders: PrecoderSet, m: int) -> np.ndarray:
    """Aggregate desired channel G_m = [H_m,m1 W_m1 ... H_m,mK W_mK]."""
    cfg = cs.config
    cols = []
    for k in range(1, cfg.K + 1):
        h = cs.channel(m, m, k)
        w = precoders.precoder(m, k)
        if h.shape[1] != w.shape[0]:
            raise DimensionError(
                f"precoder (l={m}, k={k}) has {w.shape[0]} rows, channel "
                f"expects {h.shape[1]}")
        cols.append(h @ w)
    return np.hstack(cols)


def verify_scheme(cs: ChannelSet, precoders: PrecoderSet,
                  projectors: ProjectorSet | None = None) -> SchemeReport:
    """Measure alignment residuals and effective ranks, judge decodability.

    The residual is the worst relative leakage over all cross links:
    ||H_cross W||_F / ||H_cross||_F for plain precoding, with H_cross
    replaced by the projected cross channel when projectors are given.
    Decodable means every per-cell effective rank equals K*beta and the
    residual is at most RESIDUAL_THRESHOLD.  The report is named after the
    precoders' scheme.  The projected null dimensions come from the
    projectors' stored null spaces when they were built from ``cs``, and
    from a fresh rank otherwise.  A leakage that is not finite
    (channel norms that overflow or underflow) raises DegeneracyError
    naming the link instead of being folded into the residual.
    """
    cfg = cs.config
    if cfg.L != 2:
        raise ConfigurationError(f"scheme verification needs L=2, got L={cfg.L}")
    beta = precoders.beta
    kb = cfg.K * beta
    residual = 0.0
    effective_rank = {}
    null_dims = {} if projectors is not None else None
    stored = (projectors.projected_nulls
              if projectors is not None and projectors.built_from is cs
              else None)
    for m in (1, 2):
        src = other_cell(m)
        p = projectors.projector(m) if projectors is not None else None
        for k in range(1, cfg.K + 1):
            h = cs.channel(m, src, k)
            w = precoders.precoder(src, k)
            if h.shape[1] != w.shape[0]:
                raise DimensionError(
                    f"precoder (l={src}, k={k}) has {w.shape[0]} rows, channel "
                    f"expects {h.shape[1]}")
            cross = h if p is None else p @ h
            leak = float(np.linalg.norm(cross @ w) / np.linalg.norm(h))
            # max() would drop a NaN and let the link pass
            if not math.isfinite(leak):
                raise DegeneracyError(
                    f"leakage on cross link (m={m}, l={src}, k={k}) is {leak}: "
                    f"channel magnitudes overflow or underflow double precision")
            residual = max(residual, leak)
            if stored is not None:
                null_dims[(m, k)] = stored[(m, k)].dim
            elif null_dims is not None:
                scale = np.linalg.norm(p) * np.linalg.norm(h)
                null_dims[(m, k)] = cross.shape[1] - linalg.numeric_rank(
                    cross, cfg.tol, scale=scale)
        g = desired_matrix(cs, precoders, m)
        effective = g if p is None else p @ g
        effective_rank[m] = linalg.numeric_rank(effective, cfg.tol)
    decodable = (all(r == kb for r in effective_rank.values())
                 and residual <= RESIDUAL_THRESHOLD)
    return SchemeReport(
        scheme=precoders.scheme,
        residual_interference=residual,
        effective_rank=effective_rank,
        decodable=decodable,
        null_dims=null_dims,
    )


def pi_transform(projectors: ProjectorSet, pi: dict[int, np.ndarray],
                 tol: Tolerance = Tolerance()) -> ProjectorSet:
    """Left-multiply each plane by an invertible Pi_m.

    The projector's null space, hence the alignment dimension condition,
    is unchanged; row orthonormality is generally lost, so the result is
    flagged accordingly.
    """
    transformed = {}
    for m, p in projectors.projectors.items():
        pi_m = linalg.as_matrix(pi[m], name=f"Pi[{m}]")
        rows = p.shape[0]
        if pi_m.shape != (rows, rows):
            raise DimensionError(
                f"Pi[{m}] must be {rows}x{rows}, got {pi_m.shape}")
        if linalg.numeric_rank(pi_m, tol) < rows:
            raise RankError(f"Pi[{m}] is singular at tolerance")
        transformed[m] = pi_m @ p
    return ProjectorSet(transformed, row_orthonormalized=False)
