"""Finite-SNR rates, empirical DoF slopes and lemma Monte Carlo harnesses.

Rates are exact log-det expressions of the constructed schemes (no noise
sampling), so a slope fit over a high-SNR window is a deterministic
function of the channel seed.  The Monte Carlo harnesses sub-seed every
trial from (seed, trial index) and run the trials in stacked chunks, so a
pass count depends only on (seed, trials), never on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import linalg, network, schemes
from .errors import (ContractError, DegeneracyError, InputError,
                     require_positive, require_seed)
from .linalg import Tolerance
from .network import ChannelSet, NetworkConfig, draw_channel
from .schemes import Scheme, SchemeReport

LOG2 = math.log(2.0)
# Monte Carlo trials whose linear algebra runs as one stack.  Memory per
# chunk stays flat in the trial count; results do not depend on it.
TRIAL_CHUNK = 256
# Most points SnrGrid.from_range builds (the default grid has 5): the step
# comes from the command line, and every point costs a rate evaluation.
MAX_SNR_POINTS = 1000


@dataclass(frozen=True)
class SnrGrid:
    """Strictly increasing SNR grid in dB, at least two points, whose
    linear SNRs stay distinct at double precision."""

    points_db: tuple[float, ...]

    def __post_init__(self):
        pts = self.points_db
        if len(pts) < 2:
            raise InputError(f"SNR grid needs at least 2 points, got {len(pts)}")
        if not all(math.isfinite(p) for p in pts):
            raise InputError("SNR grid points must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InputError(f"SNR grid must be strictly increasing, got {pts}")
        # A linear SNR that overflows rates as inf, and one below the
        # smallest normal double loses its bits or is 0, whose log2 the fit
        # takes.  Both are refused, tested without a warning.
        finfo = np.finfo(float)
        with np.errstate(over="ignore", under="ignore"):
            linear = 10.0 ** (np.asarray(pts) / 10.0)
        held = np.isfinite(linear) & (linear >= finfo.tiny)
        if not held.all():
            lo, hi = (10 * math.log10(v) for v in (finfo.tiny, finfo.max))
            raise InputError(f"SNR point {pts[np.argmin(held)]} dB is outside "
                             f"the range a double holds, {lo:.1f} to {hi:.1f} dB")
        # the fit regresses on log2 of the linear SNRs, so points that
        # differ only below double precision there would span no SNR at all
        spread = np.diff(np.log2(linear)) > 0
        if not spread.all():
            i = int(np.argmin(spread))
            raise InputError(f"SNR grid points {pts[i]} and {pts[i + 1]} dB are "
                             f"not distinct at double precision")

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


def _log_det_rate(eigs: np.ndarray, per_stream_power: float) -> float:
    """log2 det(I + p * diag(eigs)) for a Gram spectrum clipped at 0.

    A term whose p * eig overflows is log(p) + log(eig), which is what
    log1p gives there to double precision; the other terms keep their bits.
    """
    with np.errstate(over="ignore"):
        snr = per_stream_power * eigs
    terms = np.log1p(snr)
    overflowed = np.isinf(snr)
    terms[overflowed] = np.log(per_stream_power) + np.log(eigs[overflowed])
    return float(np.sum(terms) / LOG2)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    # a Gram matrix that overflowed would rate as inf or NaN, and the slope
    # fitted to it as NaN: refused instead, naming the cell or link
    if not np.isfinite(values).all():
        raise DegeneracyError(f"{what} is not finite: channel magnitudes "
                              f"overflow double precision")
    return values


def _gram(a: np.ndarray, what: str) -> np.ndarray:
    return _finite(a @ a.conj().T, f"Gram matrix of {what}")


def _cell_spectra(scheme: Scheme,
                  report: SchemeReport | None) -> list[np.ndarray]:
    """Gram spectrum of each cell's effective desired channel G G*, with
    the rounding negatives of eigvalsh clipped to 0.

    The spectra do not depend on rho, so one call serves a whole SNR grid.
    Raises ContractError for a non-decodable scheme or for a plane P_m
    without orthonormal rows (the projected noise would not be white), and
    DegeneracyError for a Gram matrix or spectrum that is not finite.
    """
    for m, p in (scheme.projectors or {}).items():
        ok, err = linalg.orthonormal_columns(p.T)  # Gram conj(P P*): same error
        if not ok:
            raise ContractError(f"rows of P_{m} are not orthonormal (max Gram "
                                f"error {err:.3e}): the rate needs white noise")
    if report is None:
        report = schemes.verify_scheme(scheme)
    if not report.decodable:
        raise ContractError(
            f"scheme is not decodable (residual {report.residual_interference:.3e}, "
            f"ranks {report.effective_rank})")
    spectra = []
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, scheme.channels.config.L + 1):
            gram = _gram(schemes.desired_matrix(scheme, m), f"cell {m}")
            spectra.append(np.clip(_finite(np.linalg.eigvalsh(gram),
                                           f"Gram spectrum of cell {m}"),
                                   0.0, None))
    return spectra


def _spectra_rate(spectra: list[np.ndarray], rho: float, beta: int) -> float:
    # rho split equally over the beta unit-norm precoder columns: the
    # transmit covariance has trace rho, meeting the power constraint
    total = 0.0
    for eigs in spectra:
        total += _log_det_rate(eigs, rho / beta)
    return total


def sum_rate(scheme: Scheme, rho: float,
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
    return _spectra_rate(_cell_spectra(scheme, report), rho,
                         scheme.channels.config.beta)


def interference_limited_rate(scheme: Scheme, rho: float) -> float:
    """Sum rate when residual interference is treated as noise.

    Per cell: log2 det(I + Q_signal (I + Q_interference)^-1), evaluated as
    a difference of log-dets of two Hermitian positive definite matrices.
    Reduces to sum_rate when the interference terms vanish.  Baseline for
    the slope experiment; saturates at high SNR for generic precoders.
    Where rho/beta times a Gram entry overflows, the same rate is taken
    from the unscaled Gram sums (_grams_rate), so channels up to the top
    of the replay range rate.
    The interference at cell m sums over the links of every user in the
    other L-1 cells.  Receive planes, if the scheme has any, are ignored.
    """
    if not rho > 0:
        raise InputError(f"rho must be positive, got {rho}")
    return _grams_rate(_link_grams(scheme), rho, scheme.channels.config.beta)


def _link_grams(scheme: Scheme) -> list[list[tuple[np.ndarray, ...]]]:
    """Per cell m, in user order, the Gram matrices (H W)(H W)* of user k's
    desired link, then of user k's links into m from the other cells.

    They do not depend on rho, so one call serves a whole SNR grid.  A Gram
    matrix that is not finite raises DegeneracyError naming its link.
    """
    cs = scheme.channels
    cells = range(1, cs.config.L + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return [[tuple(_gram(cs.channel(m, l, k) @ scheme.precoder(l, k),
                             f"link (m={m}, l={l}, k={k})")
                       for l in (m, *cells[:m - 1], *cells[m:]))
                 for k in range(1, cs.config.K + 1)] for m in cells]


def _grams_rate(grams: list[list[tuple[np.ndarray, ...]]], rho: float,
                beta: int) -> float:
    # log det(I + Qi + Qs) - log det(I + Qi), each Q rho' times a sum of
    # Grams.  Where rho' times a Gram entry overflows (a replay near the
    # top of the magnitude range at high SNR), the same rate is taken from
    # the unscaled Gram sums, log det(I/rho' + Gi + Gs) - log det(I/rho' +
    # Gi): the n log rho' terms cancel.  A covariance or log-det that is
    # still not finite would rate as inf or NaN: refused, naming the cell
    per_stream_power = rho / beta
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for m, cell in enumerate(grams, start=1):
            n = cell[0][0].shape[0]
            q_signal = np.zeros((n, n), dtype=complex)
            q_interf = np.zeros((n, n), dtype=complex)
            for signal, *interfs in cell:
                q_signal += per_stream_power * signal
                q_interf += per_stream_power * sum(interfs)
            eye = np.eye(n)
            covariance = eye + q_interf + q_signal
            if not np.isfinite(covariance).all():
                eye = eye / per_stream_power
                q_signal = sum(signal for signal, *_ in cell)
                q_interf = sum(g for _, *interfs in cell for g in interfs)
                covariance = eye + q_interf + q_signal
            _, num = np.linalg.slogdet(
                _finite(covariance, f"covariance of cell {m}"))
            _, den = np.linalg.slogdet(eye + q_interf)
            total += _finite(num - den, f"log-determinant of cell {m}") / LOG2
    return total


def _fit_line(x: np.ndarray, y: list[float]) -> tuple[float, float, float]:
    """Least-squares (slope, intercept, r_squared) of y against x.

    The same arithmetic as scipy.stats.linregress, so the numbers match it
    bit for bit.  A constant y is fitted exactly by a flat line; its r² is
    reported as 1.0 (linregress gives NaN there).  y is fitted scaled by a
    power of two to a peak in [0.5, 1), which is exact, so rates near the
    bottom of the double range (1e-300) do not underflow ssxm * ssym.
    """
    y = np.asarray(y)
    if np.all(y == y[0]):
        return 0.0, float(y[0]), 1.0
    _, e = np.frexp(np.max(np.abs(y)))
    y = np.ldexp(y, -e)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y, None) - slope * np.mean(x, None)
    return (float(np.ldexp(slope, e)), float(np.ldexp(intercept, e)),
            float(r ** 2))


def estimate_dof_slope(scheme: Scheme, grid: SnrGrid = DEFAULT_SNR_GRID,
                       report: SchemeReport | None = None) -> SlopeEstimate:
    """Fit sum rate against log2(rho) over the grid.

    For a verified optimal scheme the slope approaches L*K*beta.  The
    random baseline (schemes.RANDOM) is rated by the saturating
    interference_limited_rate instead (no decodability requirement).
    ``report``, when given, is the scheme's verify_scheme result and saves
    repeating the verification.
    """
    beta = scheme.channels.config.beta
    if scheme.name == schemes.RANDOM:
        grams = _link_grams(scheme)
        rates = [_grams_rate(grams, rho, beta) for rho in grid.linear]
    else:
        spectra = _cell_spectra(scheme, report)
        rates = [_spectra_rate(spectra, rho, beta) for rho in grid.linear]
    slope, intercept, r_squared = _fit_line(np.log2(grid.linear), rates)
    return SlopeEstimate(grid=grid, sum_rates=tuple(rates), slope=slope,
                         intercept=intercept, r_squared=r_squared)


def random_precoders(cs: ChannelSet) -> Scheme:
    """Generic orthonormal-column precoders, the non-aligned baseline, with
    the channel set's beta (NetworkConfig.beta) columns each.  User (l, k)
    draws from the stream (cs.config.seed, l, k); the base stations
    receive unprojected."""
    cfg = cs.config
    beta = cfg.beta
    if beta > cfg.M:
        raise InputError(f"beta={beta} exceeds M={cfg.M}")
    users = [(l, k) for l in range(1, cfg.L + 1) for k in range(1, cfg.K + 1)]
    (w,) = linalg.random_matrices([(cfg.M, beta)], cfg.dist,
                                  [(cfg.seed, *user) for user in users])
    precoders = {user: np.linalg.qr(w_user)[0] for user, w_user in zip(users, w)}
    for w_user in precoders.values():
        w_user.setflags(write=False)
    return Scheme(schemes.RANDOM, cs, precoders)


def random_baseline_slope(cfg: NetworkConfig) -> int:
    """The DoF slope of random_precoders' interference-limited sum rate:
    each of the L base stations receives all L*K*beta streams in
    min(N, L*K*beta) dimensions and their (L-1)*K*beta interferers in
    min(N, (L-1)*K*beta).  0 at the two-cell tx-heavy profile, 2*beta at
    rx-heavy."""
    streams = cfg.K * cfg.beta
    return cfg.L * (min(cfg.N, cfg.L * streams)
                    - min(cfg.N, (cfg.L - 1) * streams))


def _count_passes(chunk_passes: Callable[[range], int], trials: int) -> int:
    """Sum the passes of trials 0..trials-1, TRIAL_CHUNK trials at a time."""
    return sum(chunk_passes(range(start, min(start + TRIAL_CHUNK, trials)))
               for start in range(0, trials, TRIAL_CHUNK))


def monte_carlo_lemma1(m: int, n: int, l: int, trials: int, seed: int,
                       dist: str = "complex-gaussian",
                       tol: Tolerance = Tolerance()) -> LemmaTrialReport:
    """Check rank(A B) = min(m, l) for independent A (m x n), B (n x l).

    Requires n >= max(m, l), the hypothesis under which the product is
    full rank with probability one.  Trial i draws A then B from the
    stream (seed, i).
    """
    require_positive(m=m, n=n, l=l, trials=trials)
    if n < max(m, l):
        raise InputError(f"lemma requires n >= max(m, l), got n={n}, "
                         f"max(m, l)={max(m, l)}")
    tol.require_rankable(max(m, l), "max(m, l)")
    require_seed(seed)

    def chunk_passes(chunk: range) -> int:
        a, b = linalg.random_matrices([(m, n), (n, l)], dist,
                                      [(seed, i) for i in chunk])
        ranks = linalg._rank_svd(a @ b, tol)
        return int(np.count_nonzero(ranks == min(m, l)))

    passes = _count_passes(chunk_passes, trials)
    return LemmaTrialReport(trials=trials, passes=passes, dims=(m, n, l))


def _lemma2_holds(h: np.ndarray, p: np.ndarray, rank_h: np.ndarray,
                  u: np.ndarray, tol: Tolerance) -> np.ndarray:
    """dim null(P H) == dim(ran(H) ∩ null(P)) for each stacked pair.

    ``rank_h`` and ``u`` are each H's rank and full left singular vectors
    (linalg._rank_svd with vectors), from the factorization that checked
    the draw.  The left side thresholds P H against the factor magnitudes
    (linalg.product_scales, the anchor of build_nsia's projected ranks;
    finite for the unit-magnitude draws here); the right side is
    dim U + dim V - rank([U V]) over orthonormal bases U of ran(H) and V
    of null(P), evaluated per group of trials with equal dims.  null(P) is
    the orthogonal complement of ran(P*), so V is the trailing left
    singular vectors of the tall P*, factored on its cheaper side.
    """
    lhs = h.shape[2] - linalg._rank_svd(p @ h, tol, linalg.product_scales(p, h))
    rank_p, v, _ = linalg._rank_svd(np.swapaxes(p.conj(), -1, -2), tol,
                                    vectors=True)
    null_p = p.shape[2] - rank_p
    rhs = np.zeros_like(lhs)
    for dim_u, dim_v in set(zip(rank_h.tolist(), null_p.tolist())):
        if dim_u == 0 or dim_v == 0:
            continue
        group = (rank_h == dim_u) & (null_p == dim_v)
        bases = np.concatenate(
            [u[group, :, :dim_u], v[group, :, p.shape[2] - dim_v:]], axis=2)
        rhs[group] = dim_u + dim_v - linalg._rank_svd(bases, tol)
    return lhs == rhs


def monte_carlo_lemma2(M: int, N: int, trials: int, seed: int,
                       p_source: str = "random",
                       dist: str = "complex-gaussian",
                       tol: Tolerance = Tolerance()) -> LemmaTrialReport:
    """Check dim null(P H) = dim(ran(H) ∩ null(P)) for tall full-rank H.

    H is N x M with N > M and rank M; P is M x N, either generic or an
    alignment plane constructed by the null-space scheme (which makes both
    sides equal beta = N - M instead of the generic zero).  A random trial
    i draws H (redrawn while rank-deficient by network.draw_until) then P
    from the stream (seed, i), and one warning counts the redrawn trials;
    an nsia trial builds P_1 and takes H = H_1,21 from the channels of a
    network seeded from (seed, i).
    """
    require_positive(M=M, N=N, trials=trials)
    if N <= M:
        raise InputError(f"lemma requires N > M, got M={M}, N={N}")
    if p_source not in ("random", "nsia"):
        raise InputError(f"p_source must be 'random' or 'nsia', got {p_source!r}")
    tol.require_rankable(N, "N")
    require_seed(seed)
    if p_source == "nsia":
        beta = N - M
        if M % beta != 0:
            raise InputError(
                f"nsia-constructed P needs (N - M) | M so that K = M/(N-M) "
                f"is an integer, got M={M}, N={N}")
        users = M // beta
        # every trial's network but for its seed, validated once
        config = NetworkConfig(L=2, K=users, M=M, N=N, beta=beta, dist=dist,
                               tol=tol)
        interferers = config.interferers(1)

    redrawn = []

    def range_factors(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rank, u, _ = linalg._rank_svd(h, tol, vectors=True)
        return rank, u

    def random_pairs(chunk: range) -> tuple[np.ndarray, ...]:
        h, p = linalg.random_matrices([(N, M), (M, N)], dist,
                                      [(seed, i) for i in chunk])
        # one full SVD of the H stack both checks each draw and gives the
        # verdict its range basis.  A trial whose stacked draw of H came
        # out rank-deficient draws again in stream order, checked by the
        # same rank rule, and takes the factors of the draw it keeps
        rank_h, u = range_factors(h)
        for t in np.flatnonzero(rank_h < M):
            i = chunk[t]
            redrawn.append(i)
            h[t], u[t], rng = network.draw_until(
                (seed, i), (N, M), dist, range_factors, M, tol, None,
                f"H of trial {i} is still rank-deficient")
            rank_h[t] = M
            p[t] = linalg.random_matrix(M, N, dist, rng)
        return h, p, rank_h, u

    def one_nsia_trial(sub_seed: int) -> tuple[np.ndarray, np.ndarray]:
        # the trial as a scheme build makes it, link by link, for a trial
        # the stacked checks below refused: it redraws, warns and raises
        # exactly where a one-trial-at-a-time run would
        cfg = replace(config, seed=sub_seed)
        cross = [draw_channel(cfg, 1, *user) for user in interferers]
        plane, full_rank = schemes.alignment_planes(
            np.stack([null for _, null in cross]), tol)
        if not full_rank:
            raise DegeneracyError(
                "stacked alignment plane at base station 1 lost rank")
        return cross[0][0], plane

    def nsia_pairs(chunk: range) -> tuple[np.ndarray, ...]:
        # only P_1 and H_1,21 enter the verdict, so only the channels of
        # base station 1's interferers (cell 2's users) are drawn, as one
        # stack from draw_channel's streams (sub-seed, 1, l, k), then
        # checked and stacked into planes by the scheme's own functions.
        # The sub-seed is word 0 of the (seed, i) stream's state words.
        sub_seeds = linalg.stream_words([(seed, i) for i in chunk], 1)[:, 0].tolist()
        (h,) = linalg.random_matrices(
            [(N, M)], dist, [(sub_seed, 1, *user) for sub_seed in sub_seeds
                             for user in interferers])
        _, nulls, ok = network.cross_null_bases(config, h)
        planes, full_rank = schemes.alignment_planes(
            nulls.reshape(-1, users, N, beta), tol)
        ok = ok.reshape(-1, users).all(axis=1) & full_rank
        planes = np.ascontiguousarray(planes)
        h = np.ascontiguousarray(h.reshape(-1, users, N, M)[:, 0])
        for t in np.flatnonzero(~ok):
            h[t], planes[t] = one_nsia_trial(sub_seeds[t])
        return (h, planes, *range_factors(h))

    pairs = random_pairs if p_source == "random" else nsia_pairs

    def chunk_passes(chunk: range) -> int:
        return int(np.count_nonzero(_lemma2_holds(*pairs(chunk), tol)))

    try:
        passes = _count_passes(chunk_passes, trials)
    finally:
        # one line, also before the error of a trial at the redraw cap
        if redrawn:
            first = ", ".join(map(str, redrawn[:10]))
            more = ", ..." if len(redrawn) > 10 else ""
            network.log.warning(
                f"degenerate H draw at {len(redrawn)} "
                f"{'trial' if len(redrawn) == 1 else 'trials'} "
                f"({first}{more}); redrawn")
    return LemmaTrialReport(trials=trials, passes=passes, dims=(M, N))
