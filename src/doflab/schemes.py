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
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import (ConfigurationError, ContractError, DegeneracyError,
                     DimensionError, RankError)
from .linalg import SubspaceBasis, Tolerance
from .network import ChannelSet

ZF = "zf"
NSIA = "nsia"
RANDOM = "random"  # the non-aligned baseline, simulation.random_precoders
# Largest residual interference verify_scheme still calls decodable.
RESIDUAL_THRESHOLD = 1e-10


def other_cell(m: int) -> int:
    """The opposite cell in a two-cell network."""
    if m not in (1, 2):
        raise IndexError(f"cell index m={m} out of range 1..2")
    return 3 - m


@dataclass(frozen=True, eq=False)
class Scheme:
    """A two-cell linear scheme, named after what made it (zf, nsia or
    random; the name verify_scheme reports).

    ``precoders`` maps (l, k) to M x beta with orthonormal columns, and
    ``projectors`` maps m to the K*beta x N full-row-rank plane P_m, or is
    None when the base stations receive unprojected (zf and random).
    build_nsia also keeps the null space of each projected cross channel
    P_m H_m,lk, keyed (m, k), in ``projected_nulls`` and the channel set it
    built from in ``built_from``; verify_scheme reads their dimensions for
    that channel set instead of factoring the products again.  Planes from
    anywhere else (pi_transform) carry none and are measured afresh.
    ``==`` is identity.
    """

    name: str
    precoders: dict[tuple[int, int], np.ndarray] = field(repr=False)
    projectors: dict[int, np.ndarray] | None = field(default=None, repr=False)
    row_orthonormalized: bool = True
    projected_nulls: dict[tuple[int, int], SubspaceBasis] | None = field(
        default=None, repr=False)
    built_from: ChannelSet | None = field(default=None, repr=False)

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
    return Scheme(ZF, precoders)


def build_nsia(cs: ChannelSet) -> Scheme:
    """Null-space interference alignment: projectors P_m, then precoders.

    With beta the channel set's (NetworkConfig.beta), for each base station
    m the conjugated cross channels H* are K*beta x (K*beta + beta) with
    beta-dimensional null spaces N_mk; P_m stacks the N_mk as rows (user k
    occupying rows (k-1)*beta+1 .. k*beta) and is then row-orthonormalized,
    a specific choice of the left factor that keeps the projected noise
    white.  Each projected cross channel P_m H is then square with a
    beta-dimensional null space, which becomes the precoder of the
    interfering user and is kept on the scheme for verify_scheme.
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
    return Scheme(NSIA, precoders, projectors,
                  projected_nulls=projected_nulls, built_from=cs)


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


def _require_precoder_rows(h: np.ndarray, w: np.ndarray, l: int, k: int):
    if h.shape[1] != w.shape[0]:
        raise DimensionError(
            f"precoder (l={l}, k={k}) has {w.shape[0]} rows, channel "
            f"expects {h.shape[1]}")


def desired_matrix(cs: ChannelSet, scheme: Scheme, m: int) -> np.ndarray:
    """Effective desired channel of cell m, P_m G_m, where
    G_m = [H_m,m1 W_m1 ... H_m,mK W_mK]; plain G_m for a scheme without
    receive planes."""
    cols = []
    for k in range(1, cs.config.K + 1):
        h = cs.channel(m, m, k)
        w = scheme.precoder(m, k)
        _require_precoder_rows(h, w, m, k)
        cols.append(h @ w)
    g = np.hstack(cols)
    p = scheme.projector(m)
    return g if p is None else p @ g


def verify_scheme(cs: ChannelSet, scheme: Scheme) -> SchemeReport:
    """Measure alignment residuals and effective ranks, judge decodability.

    The residual is the worst relative leakage over all cross links:
    ||H_cross W||_F / ||H_cross||_F, with H_cross replaced by the projected
    cross channel when the scheme has receive planes.  Decodable means
    every per-cell effective rank equals K*beta and the residual is at
    most RESIDUAL_THRESHOLD.  The report is named after the scheme.  The
    projected null dimensions come from the scheme's stored null spaces
    when it was built from ``cs``, and from a fresh rank otherwise.  A
    leakage that is not finite (channel norms that overflow or underflow)
    raises DegeneracyError naming the link instead of being folded into
    the residual.
    """
    cfg = cs.config
    if cfg.L != 2:
        raise ConfigurationError(f"scheme verification needs L=2, got L={cfg.L}")
    kb = cfg.K * cfg.beta
    residual = 0.0
    effective_rank = {}
    null_dims = {} if scheme.projectors is not None else None
    stored = scheme.projected_nulls if scheme.built_from is cs else None
    for m in (1, 2):
        src = other_cell(m)
        p = scheme.projector(m)
        for k in range(1, cfg.K + 1):
            h = cs.channel(m, src, k)
            w = scheme.precoder(src, k)
            _require_precoder_rows(h, w, src, k)
            cross = h if p is None else p @ h
            # norms that overflow or underflow give inf or NaN, refused
            # here: max() would drop a NaN and let the link pass
            with np.errstate(over="ignore", invalid="ignore"):
                leak = float(np.linalg.norm(cross @ w) / np.linalg.norm(h))
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
        effective_rank[m] = linalg.numeric_rank(desired_matrix(cs, scheme, m),
                                                cfg.tol)
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
    is unchanged; row orthonormality is generally lost, so the result is
    flagged accordingly and keeps no stored null spaces.  A scheme
    without receive planes (zf, random) raises ContractError.
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
    return replace(scheme, projectors=transformed, row_orthonormalized=False,
                   projected_nulls=None, built_from=None)
