"""Finite-SNR rates, empirical DoF slopes and lemma Monte Carlo harnesses.

Rates are exact log-det expressions of the constructed schemes (no noise
sampling), so a slope fit over a high-SNR window is a deterministic
function of the channel seed.  The Monte Carlo harnesses sub-seed every
trial from (seed, trial index) and run the trials in stacked chunks, so a
pass count depends only on (seed, trials), never on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg, schemes
from .errors import ContractError, InputError
from .linalg import Tolerance
from .network import ChannelSet, NetworkConfig, draw_channel
from .schemes import Scheme, SchemeReport, other_cell

LOG2 = math.log(2.0)
# Monte Carlo trials whose linear algebra runs as one stack.  Memory per
# chunk stays flat in the trial count; results do not depend on it.
TRIAL_CHUNK = 256
# Most points SnrGrid.from_range builds (the default grid has 5): the step
# comes from the command line, and every point costs a rate evaluation.
MAX_SNR_POINTS = 1000


@dataclass(frozen=True)
class SnrGrid:
    """Strictly increasing SNR grid in dB, at least two points."""

    points_db: tuple[float, ...]

    def __post_init__(self):
        pts = self.points_db
        if len(pts) < 2:
            raise InputError(f"SNR grid needs at least 2 points, got {len(pts)}")
        if not all(math.isfinite(p) for p in pts):
            raise InputError("SNR grid points must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InputError(f"SNR grid must be strictly increasing, got {pts}")

    @classmethod
    def from_range(cls, start_db: float, step_db: float, stop_db: float) -> "SnrGrid":
        """start, start + step, ... up to stop (inclusive), at most
        MAX_SNR_POINTS points; a longer range is refused before any point
        is built."""
        text = f"{start_db}:{step_db}:{stop_db}"
        if not all(math.isfinite(v) for v in (start_db, step_db, stop_db)):
            raise InputError(f"SNR range {text} must be finite")
        if step_db <= 0:
            raise InputError(f"SNR step must be positive, got {step_db}")
        steps = (stop_db - start_db) / step_db + 1e-9
        # also refuses a quotient that overflowed to inf
        if steps >= MAX_SNR_POINTS:
            raise InputError(f"SNR range {text} has more than "
                             f"{MAX_SNR_POINTS} points")
        count = int(math.floor(steps)) + 1
        if count < 2:
            raise InputError(f"SNR range {text} has fewer than 2 points")
        return cls(tuple(start_db + i * step_db for i in range(count)))

    @property
    def linear(self) -> np.ndarray:
        return 10.0 ** (np.asarray(self.points_db) / 10.0)


DEFAULT_SNR_GRID = SnrGrid.from_range(60.0, 10.0, 100.0)


@dataclass(frozen=True)
class SlopeEstimate:
    """Least-squares fit of sum rate against log2(rho)."""

    grid: SnrGrid
    sum_rates: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float

    def to_dict(self) -> dict:
        return {
            "snr_db": list(self.grid.points_db),
            "sum_rates": list(self.sum_rates),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
        }


@dataclass(frozen=True)
class LemmaTrialReport:
    """Pass count of a Monte Carlo lemma verification."""

    trials: int
    passes: int
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.passes > self.trials:
            raise InputError("passes cannot exceed trials")

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials

    def to_dict(self) -> dict:
        return {"dims": list(self.dims), "trials": self.trials,
                "passes": self.passes, "all_passed": self.all_passed}


def _log_det_rate(gram_eigs: np.ndarray, per_stream_power: float) -> float:
    """log2 det(I + p * diag(eigs)) for a Hermitian PSD Gram spectrum."""
    eigs = np.clip(gram_eigs, 0.0, None)
    return float(np.sum(np.log1p(per_stream_power * eigs)) / LOG2)


def _cell_spectra(cs: ChannelSet, scheme: Scheme,
                  report: SchemeReport | None) -> list[np.ndarray]:
    """Gram spectrum of each cell's effective desired channel G G*.

    The spectra do not depend on rho, so one call serves a whole SNR grid.
    Raises ContractError for a non-decodable scheme or for projectors
    without orthonormal rows (the projected noise would not be white).
    """
    if not scheme.row_orthonormalized:
        raise ContractError("projectors must be row-orthonormalized for the "
                            "white-noise rate formula")
    if report is None:
        report = schemes.verify_scheme(cs, scheme)
    if not report.decodable:
        raise ContractError(
            f"scheme is not decodable (residual {report.residual_interference:.3e}, "
            f"ranks {report.effective_rank})")
    spectra = []
    for m in (1, 2):
        g = schemes.desired_matrix(cs, scheme, m)
        spectra.append(np.linalg.eigvalsh(g @ g.conj().T))
    return spectra


def _spectra_rate(spectra: list[np.ndarray], rho: float, beta: int) -> float:
    # rho split equally over the beta unit-norm precoder columns: the
    # transmit covariance has trace rho, meeting the power constraint
    total = 0.0
    for eigs in spectra:
        total += _log_det_rate(eigs, rho / beta)
    return total


def sum_rate(cs: ChannelSet, scheme: Scheme, rho: float,
             report: SchemeReport | None = None) -> float:
    """Achievable sum rate (bits/channel use) of a verified scheme.

    Per cell, with effective desired channel G (projected when the scheme
    has receive planes), the rate is log2 det(I + (rho/beta) G G*): equal
    per-stream power, white noise of unit power (so rho is the linear SNR).
    Interference does not appear because the scheme is verified
    interference-free first; a non-decodable scheme is a contract
    violation, as are projectors without orthonormal rows (the projected
    noise would not be white).
    """
    if not rho > 0:
        raise InputError(f"rho must be positive, got {rho}")
    return _spectra_rate(_cell_spectra(cs, scheme, report), rho,
                         cs.config.beta)


def interference_limited_rate(cs: ChannelSet, scheme: Scheme,
                              rho: float) -> float:
    """Sum rate when residual interference is treated as noise.

    Per cell: log2 det(I + Q_signal (I + Q_interference)^-1), evaluated as
    a difference of log-dets of two Hermitian positive definite matrices.
    Reduces to sum_rate when the interference terms vanish.  Baseline for
    the slope experiment; saturates at high SNR for generic precoders.
    Receive planes, if the scheme has any, are ignored.
    """
    if not rho > 0:
        raise InputError(f"rho must be positive, got {rho}")
    cfg = cs.config
    per_stream_power = rho / cfg.beta
    total = 0.0
    for m in (1, 2):
        src = other_cell(m)
        q_signal = np.zeros((cfg.N, cfg.N), dtype=complex)
        q_interf = np.zeros((cfg.N, cfg.N), dtype=complex)
        for k in range(1, cfg.K + 1):
            hw = cs.channel(m, m, k) @ scheme.precoder(m, k)
            q_signal += per_stream_power * (hw @ hw.conj().T)
            hw = cs.channel(m, src, k) @ scheme.precoder(src, k)
            q_interf += per_stream_power * (hw @ hw.conj().T)
        eye = np.eye(cfg.N)
        _, num = np.linalg.slogdet(eye + q_interf + q_signal)
        _, den = np.linalg.slogdet(eye + q_interf)
        total += (num - den) / LOG2
    return total


def _fit_line(x: np.ndarray, y: list[float]) -> tuple[float, float, float]:
    """Least-squares (slope, intercept, r_squared) of y against x.

    The same arithmetic as scipy.stats.linregress, so the numbers match it
    bit for bit.  A constant y is fitted exactly by a flat line; its r² is
    reported as 1.0 (linregress gives NaN there).
    """
    y = np.asarray(y)
    if np.all(y == y[0]):
        return 0.0, float(y[0]), 1.0
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y, None) - slope * np.mean(x, None)
    return float(slope), float(intercept), float(r ** 2)


def estimate_dof_slope(cs: ChannelSet, scheme: Scheme,
                       grid: SnrGrid = DEFAULT_SNR_GRID,
                       report: SchemeReport | None = None) -> SlopeEstimate:
    """Fit sum rate against log2(rho) over the grid.

    For a verified optimal scheme the slope approaches 2*K*beta.  The
    random baseline (schemes.RANDOM) is rated by the saturating
    interference_limited_rate instead (no decodability requirement).
    ``report``, when given, is the scheme's verify_scheme result and saves
    repeating the verification.
    """
    if scheme.name == schemes.RANDOM:
        rates = [interference_limited_rate(cs, scheme, rho)
                 for rho in grid.linear]
    else:
        spectra = _cell_spectra(cs, scheme, report)
        rates = [_spectra_rate(spectra, rho, cs.config.beta)
                 for rho in grid.linear]
    slope, intercept, r_squared = _fit_line(np.log2(grid.linear), rates)
    return SlopeEstimate(grid=grid, sum_rates=tuple(rates), slope=slope,
                         intercept=intercept, r_squared=r_squared)


def random_precoders(cs: ChannelSet) -> Scheme:
    """Generic orthonormal-column precoders, the non-aligned baseline, with
    the channel set's beta (NetworkConfig.beta) columns each.  User (l, k)
    draws from seeded_rng(cs.config.seed, l, k); the base stations receive
    unprojected."""
    cfg = cs.config
    beta = cfg.beta
    if beta > cfg.M:
        raise InputError(f"beta={beta} exceeds M={cfg.M}")
    precoders = {}
    for l in range(1, cfg.L + 1):
        for k in range(1, cfg.K + 1):
            rng = linalg.seeded_rng(cfg.seed, l, k)
            w = linalg.random_matrix(cfg.M, beta, cfg.dist, rng)
            q, _ = np.linalg.qr(w)
            precoders[(l, k)] = q
    return Scheme(schemes.RANDOM, precoders)


def _count_passes(chunk_passes: Callable[[range], int], trials: int) -> int:
    """Sum the passes of trials 0..trials-1, TRIAL_CHUNK trials at a time."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    return sum(chunk_passes(range(start, min(start + TRIAL_CHUNK, trials)))
               for start in range(0, trials, TRIAL_CHUNK))


def monte_carlo_lemma1(m: int, n: int, l: int, trials: int, seed: int,
                       dist: str = "complex-gaussian",
                       tol: Tolerance = Tolerance()) -> LemmaTrialReport:
    """Check rank(A B) = min(m, l) for independent A (m x n), B (n x l).

    Requires n >= max(m, l), the hypothesis under which the product is
    full rank with probability one.  Trial i draws A then B from
    seeded_rng(seed, i).
    """
    if min(m, n, l) < 1:
        raise InputError(f"dimensions must be >= 1, got ({m}, {n}, {l})")
    if n < max(m, l):
        raise InputError(f"lemma requires n >= max(m, l), got n={n}, "
                         f"max(m, l)={max(m, l)}")

    def chunk_passes(chunk: range) -> int:
        a, b = linalg.random_matrices(
            [(m, n), (n, l)], dist, [linalg.seeded_rng(seed, i) for i in chunk])
        ranks = linalg._rank_svd(a @ b, tol, stacked=True)
        return int(np.count_nonzero(ranks == min(m, l)))

    passes = _count_passes(chunk_passes, trials)
    return LemmaTrialReport(trials=trials, passes=passes, dims=(m, n, l))


def _lemma2_holds(h: np.ndarray, p: np.ndarray, tol: Tolerance) -> np.ndarray:
    """dim null(P H) == dim(ran(H) ∩ null(P)) for each stacked pair.

    The left side thresholds P H against the factor magnitudes; the right
    side is dim U + dim V - rank([U V]) over orthonormal bases U of ran(H)
    and V of null(P), evaluated per group of trials with equal dims.
    """
    scale = np.linalg.norm(p, axis=(1, 2)) * np.linalg.norm(h, axis=(1, 2))
    lhs = h.shape[2] - linalg._rank_svd(p @ h, tol, scale, stacked=True)
    rank_h, u, _ = linalg._rank_svd(h, tol, vectors=True, stacked=True)
    rank_p, _, vh = linalg._rank_svd(p, tol, vectors=True, stacked=True)
    null_p = p.shape[2] - rank_p
    rhs = np.zeros_like(lhs)
    for dim_u, dim_v in set(zip(rank_h.tolist(), null_p.tolist())):
        if dim_u == 0 or dim_v == 0:
            continue
        group = (rank_h == dim_u) & (null_p == dim_v)
        bases = np.concatenate(
            [u[group, :, :dim_u],
             vh[group, p.shape[2] - dim_v:].conj().transpose(0, 2, 1)], axis=2)
        rhs[group] = dim_u + dim_v - linalg._rank_svd(bases, tol, stacked=True)
    return lhs == rhs


def monte_carlo_lemma2(M: int, N: int, trials: int, seed: int,
                       p_source: str = "random",
                       dist: str = "complex-gaussian",
                       tol: Tolerance = Tolerance()) -> LemmaTrialReport:
    """Check dim null(P H) = dim(ran(H) ∩ null(P)) for tall full-rank H.

    H is N x M with N > M and rank M; P is M x N, either generic or an
    alignment plane constructed by the null-space scheme (which makes both
    sides equal beta = N - M instead of the generic zero).  A random trial
    i draws H (redrawn while rank-deficient) then P from
    seeded_rng(seed, i); an nsia trial builds P_1 and takes H = H_1,21 from
    the channels of a network seeded from (seed, i).
    """
    if min(M, N) < 1:
        raise InputError(f"dimensions must be >= 1, got ({M}, {N})")
    if N <= M:
        raise InputError(f"lemma requires N > M, got M={M}, N={N}")
    if p_source not in ("random", "nsia"):
        raise InputError(f"p_source must be 'random' or 'nsia', got {p_source!r}")
    tol.require_rankable(N, "N")
    if p_source == "nsia":
        beta = N - M
        if M % beta != 0:
            raise InputError(
                f"nsia-constructed P needs (N - M) | M so that K = M/(N-M) "
                f"is an integer, got M={M}, N={N}")
        users = M // beta

    def redraw(i: int) -> tuple[np.ndarray, np.ndarray]:
        # one trial's draws in stream order, for a chunk whose stacked draw
        # of H came out rank-deficient
        rng = linalg.seeded_rng(seed, i)
        h = linalg.random_matrix(N, M, dist, rng)
        while linalg.numeric_rank(h, tol) < M:
            h = linalg.random_matrix(N, M, dist, rng)
        return h, linalg.random_matrix(M, N, dist, rng)

    def random_pairs(chunk: range) -> tuple[np.ndarray, np.ndarray]:
        h, p = linalg.random_matrices(
            [(N, M), (M, N)], dist, [linalg.seeded_rng(seed, i) for i in chunk])
        for t in np.flatnonzero(linalg._rank_svd(h, tol, stacked=True) < M):
            h[t], p[t] = redraw(chunk[t])
        return h, p

    def nsia_pairs(chunk: range) -> tuple[np.ndarray, np.ndarray]:
        # only P_1 and H_1,21 enter the verdict, so only the channels from
        # cell 2 into base station 1 are drawn
        planes, channels = [], []
        for i in chunk:
            sub_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            cfg = NetworkConfig(L=2, K=users, M=M, N=N, beta=beta,
                                seed=sub_seed, dist=dist, tol=tol)
            cross = [draw_channel(cfg, 1, 2, k) for k in range(1, users + 1)]
            planes.append(schemes.alignment_plane(
                [null for _, null in cross], beta, tol, 1))
            channels.append(cross[0][0])
        return np.stack(channels), np.stack(planes)

    pairs = random_pairs if p_source == "random" else nsia_pairs

    def chunk_passes(chunk: range) -> int:
        return int(np.count_nonzero(_lemma2_holds(*pairs(chunk), tol)))

    passes = _count_passes(chunk_passes, trials)
    return LemmaTrialReport(trials=trials, passes=passes, dims=(M, N))
