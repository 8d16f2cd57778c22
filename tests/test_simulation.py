import collections
import functools
import math
import re

import numpy as np
import pytest

from doflab import bounds, linalg, simulation
from doflab.errors import ContractError, DegeneracyError, InputError
from doflab.linalg import (Tolerance, intersection_dim, null_space_basis,
                           numeric_rank, random_matrix, range_basis,
                           seeded_rng)
from doflab.network import NetworkConfig, channel_set, generate_channels
from doflab.schemes import (NSIA, Scheme, build_nsia, build_zf_precoders,
                            pi_transform, verify_scheme)
from doflab.simulation import (DEFAULT_SNR_GRID, MAX_SNR_POINTS,
                               LemmaTrialReport, SnrGrid, estimate_dof_slope,
                               interference_limited_rate, monte_carlo_lemma1,
                               monte_carlo_lemma2, random_precoders, sum_rate)


def channels_for(K, beta, variant, seed=0):
    M, N = bounds.antenna_profile(K, beta, variant)
    cfg = NetworkConfig(L=2, K=K, M=M, N=N, beta=beta, seed=seed)
    return generate_channels(cfg)


def zf_setup(K=2, beta=1, seed=0):
    cs = channels_for(K, beta, bounds.TX_HEAVY, seed)
    return cs, build_zf_precoders(cs)


def nsia_setup(K=2, beta=1, seed=0):
    cs = channels_for(K, beta, bounds.RX_HEAVY, seed)
    return cs, build_nsia(cs)


# ---------------------------------------------------------------------------
# SnrGrid
# ---------------------------------------------------------------------------

def test_grid_from_range():
    grid = SnrGrid.from_range(60, 10, 100)
    assert grid.points_db == (60, 70, 80, 90, 100)
    np.testing.assert_allclose(grid.linear[0], 1e6)


def test_grid_validation():
    with pytest.raises(InputError):
        SnrGrid((60.0,))
    with pytest.raises(InputError):
        SnrGrid((60.0, 60.0))
    with pytest.raises(InputError):
        SnrGrid((60.0, float("inf")))
    with pytest.raises(InputError):
        SnrGrid.from_range(60, -10, 100)
    with pytest.raises(InputError):
        SnrGrid.from_range(60, 50, 100)


def test_grid_from_range_caps_the_point_count():
    longest = SnrGrid.from_range(0, 1, MAX_SNR_POINTS - 1)
    assert len(longest.points_db) == MAX_SNR_POINTS
    too_long = [(0, 1, MAX_SNR_POINTS), (0, 0.001, 100),
                (0, 1e-300, 1e300)]  # the step count overflows to inf
    for start, step, stop in too_long:
        with pytest.raises(InputError, match=f"more than {MAX_SNR_POINTS} points"):
            SnrGrid.from_range(start, step, stop)
    for bad in [(0, 1, math.inf), (-math.inf, 1, 3), (0, math.nan, 3)]:
        with pytest.raises(InputError, match="must be finite"):
            SnrGrid.from_range(*bad)


@pytest.mark.parametrize("points, bad", [((3073.0, 3083.0), 3083.0),
                                         ((-3077.0, -3067.0), -3077.0)])
def test_grid_refuses_points_beyond_the_double_range(points, bad):
    # 10**(p/10) overflows to inf above about 3082.5 dB and falls below the
    # smallest normal double under about -3076.5 dB
    message = (f"SNR point {bad} dB is outside the range a double holds, "
               f"-3076.5 to 3082.5 dB")
    with pytest.raises(InputError, match=re.escape(message)):
        SnrGrid(points)
    with pytest.raises(InputError, match=re.escape(message)):
        SnrGrid.from_range(points[0], 10, points[1])


def test_grid_refuses_points_not_distinct_at_double_precision():
    # 10**(p/10) is 1.0 for every p below about 1e-16 dB in magnitude, so
    # such points rate alike and a fit over them spans no SNR at all
    collapsed = "SNR grid points {} and {} dB are not distinct at double precision"
    with pytest.raises(InputError, match=re.escape(collapsed.format(0.0, 1e-300))):
        SnrGrid((0.0, 1e-300))
    with pytest.raises(InputError, match=re.escape(collapsed.format(-1e-20, 0.0))):
        SnrGrid((-10.0, -1e-20, 0.0, 10.0))
    with pytest.raises(InputError, match=re.escape(collapsed.format(0.0, 1e-300))):
        SnrGrid.from_range(0, 1e-300, 1e-298)


# ---------------------------------------------------------------------------
# sum_rate
# ---------------------------------------------------------------------------

def test_rate_vanishes_at_zero_power():
    cs, pre = zf_setup()
    assert sum_rate(pre, 1e-12) < 1e-9


def test_rate_rejects_non_positive_power():
    cs, pre = zf_setup()
    with pytest.raises(InputError):
        sum_rate(pre, 0.0)


def test_rate_single_user_scalar_closed_form():
    # K=1, beta=1 zero forcing: the effective channel per cell is the
    # scalar g = H_mm W_m, so the rate is sum_m log2(1 + rho |g|^2)
    cs, pre = zf_setup(K=1)
    rho = 100.0
    expected = 0.0
    for m in (1, 2):
        g = (cs.channel(m, m, 1) @ pre.precoder(m, 1))[0, 0]
        expected += math.log2(1.0 + rho * abs(g) ** 2)
    assert sum_rate(pre, rho) == pytest.approx(expected, rel=1e-12)


def test_rate_splits_power_equally_over_streams():
    # beta = 2: each unit-norm precoder column gets rho/2, so every user's
    # transmit covariance has trace rho, and the rate is
    # log2 det(I + (rho/beta) G G*) per cell
    cs, pre = zf_setup(K=2, beta=2)
    rho, beta = 50.0, 2
    expected = 0.0
    for m in (1, 2):
        for k in (1, 2):
            w = pre.precoder(m, k)
            assert np.trace((rho / beta) * w @ w.conj().T).real == pytest.approx(rho)
        g = np.hstack([cs.channel(m, m, k) @ pre.precoder(m, k) for k in (1, 2)])
        _, logdet = np.linalg.slogdet(np.eye(g.shape[0])
                                      + (rho / beta) * g @ g.conj().T)
        expected += logdet / math.log(2)
    assert sum_rate(pre, rho) == pytest.approx(expected, rel=1e-12)


def test_rate_doubling_power_adds_two_k_beta_bits():
    cs, pre = zf_setup(K=2, beta=1)
    gain = sum_rate(pre, 2e8) - sum_rate(pre, 1e8)
    assert gain == pytest.approx(4.0, abs=1e-4)


def test_rate_strictly_increasing_in_power():
    cs, scheme = nsia_setup()
    rates = [sum_rate(scheme, rho)
             for rho in np.logspace(-2, 10, 13)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_rejects_non_decodable_scheme():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=1)
    pre = random_precoders(cs)
    with pytest.raises(ContractError):
        sum_rate(pre, 100.0)


def test_rate_rejects_non_orthonormal_projectors():
    cs, scheme = nsia_setup()
    rng = np.random.default_rng(0)
    skew = rng.standard_normal((2, 2)) + np.eye(2) * 3
    twisted = pi_transform(scheme, {1: skew, 2: skew})
    with pytest.raises(ContractError):
        sum_rate(twisted, 100.0)


def test_rate_refuses_hand_built_planes_without_orthonormal_rows():
    # 3 P_m spans the same rows as P_m and verifies as decodable, but its
    # projected noise is not white: the rate formula must refuse it
    cs, scheme = nsia_setup(K=2, seed=1)
    scaled = Scheme(NSIA, cs, scheme.precoders,
                    {m: 3 * p for m, p in scheme.projectors.items()})
    assert verify_scheme(scaled).decodable
    with pytest.raises(ContractError, match="rows of P_1 are not orthonormal"):
        sum_rate(scaled, 1e4)
    with pytest.raises(ContractError, match="rows of P_1 are not orthonormal"):
        estimate_dof_slope(scaled)


def test_projected_rate_matches_colored_noise_formula():
    # independent path: rate on the unprojected N-antenna channel with the
    # projected noise covariance P P* kept explicit
    cs, scheme = nsia_setup(K=3)
    rho = 1e4
    expected = 0.0
    for m in (1, 2):
        p = scheme.projector(m)
        g = np.hstack([cs.channel(m, m, k) @ scheme.precoder(m, k)
                       for k in range(1, 4)])
        pg = p @ g
        noise_cov = p @ p.conj().T
        q = rho * pg @ pg.conj().T
        sign, logdet = np.linalg.slogdet(noise_cov + q)
        sign2, logdet2 = np.linalg.slogdet(noise_cov)
        expected += (logdet - logdet2) / math.log(2.0)
    got = sum_rate(scheme, rho)
    assert abs(got - expected) / expected <= 1e-9


# ---------------------------------------------------------------------------
# slope estimation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_zf_slope_matches_dof(seed):
    cs, pre = zf_setup(K=2, beta=1, seed=seed)
    est = estimate_dof_slope(pre)
    assert abs(est.slope - 4.0) / 4.0 <= 0.03
    assert est.r_squared >= 0.999


def test_nsia_slope_matches_dof_three_users():
    cs, scheme = nsia_setup(K=3)
    est = estimate_dof_slope(scheme)
    assert abs(est.slope - 6.0) / 6.0 <= 0.03
    assert est.r_squared >= 0.999


def test_random_precoder_slope_is_interference_limited():
    # ceiling requires interference to fill the receive space (N <= K*beta),
    # so the contrast runs on the zero-forcing antenna profile
    for seed in (0, 1, 2):
        cs = channels_for(2, 1, bounds.TX_HEAVY, seed)
        est = estimate_dof_slope(random_precoders(cs))
        assert est.slope <= 0.5


def test_random_precoder_slope_with_excess_receive_antennas():
    # with N = K*beta + beta the interference cannot cover the receive
    # space and beta dimensions per cell survive even without alignment
    cs = channels_for(2, 1, bounds.RX_HEAVY, 0)
    est = estimate_dof_slope(random_precoders(cs))
    assert est.slope == pytest.approx(2.0, rel=1e-3)


def test_random_baseline_slope_at_the_two_cell_profiles():
    # exact: the baseline saturates at tx-heavy and keeps beta dimensions
    # per cell at rx-heavy
    for K in range(1, 7):
        for beta in range(1, 5):
            for variant, slope in [(bounds.TX_HEAVY, 0), (bounds.RX_HEAVY, 2 * beta)]:
                M, N = bounds.antenna_profile(K, beta, variant)
                cfg = NetworkConfig(L=2, K=K, M=M, N=N, beta=beta)
                assert simulation.random_baseline_slope(cfg) == slope


@pytest.mark.parametrize("L, K, beta, M, N", [
    (2, 2, 1, 3, 2), (2, 2, 2, 4, 6), (2, 1, 1, 3, 3), (3, 1, 1, 2, 3),
    (3, 2, 1, 2, 5), (3, 2, 1, 3, 4), (4, 1, 1, 2, 3)])
def test_random_baseline_slope_is_the_fitted_slope(L, K, beta, M, N):
    cfg = NetworkConfig(L=L, K=K, M=M, N=N, beta=beta, seed=1)
    target = simulation.random_baseline_slope(cfg)
    assert type(target) is int
    est = estimate_dof_slope(random_precoders(generate_channels(cfg)))
    assert est.slope == pytest.approx(target, abs=1e-3)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [1, 2])
def test_slope_convergence_full_grid(K, beta):
    target = 2 * K * beta
    cs, pre = zf_setup(K, beta, seed=1)
    est = estimate_dof_slope(pre)
    assert abs(est.slope - target) <= 0.03 * target
    assert est.r_squared >= 0.999
    cs, scheme = nsia_setup(K, beta, seed=1)
    est = estimate_dof_slope(scheme)
    assert abs(est.slope - target) <= 0.03 * target
    assert est.r_squared >= 0.999


def test_slope_with_report_matches_slope_without():
    cs, scheme = nsia_setup(K=2)
    report = verify_scheme(scheme)
    assert estimate_dof_slope(scheme, report=report) == \
        estimate_dof_slope(scheme)


def test_line_fit_matches_scipy_linregress():
    linregress = pytest.importorskip("scipy.stats").linregress
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(20):
        x = np.sort(rng.uniform(0, 40, 5)) + np.arange(5)
        cases.append((x, rng.standard_normal(5) * 10 + 3 * x, 0))
    # The zf rates of 'slope --K 1 --seed 3 --snr=-3000:10:-2980'.  Fitted
    # unscaled, ssxm * ssym underflows to 0 and r² reads 1.0, so linregress
    # takes them scaled by 2^1000, which is exact, and the fit is scaled back.
    tiny = (np.log2(SnrGrid.from_range(-3000, 10, -2980).linear),
            np.array([3.4983839075851554e-300, 3.498383907585155e-299,
                      3.498383907585155e-298]), -1000)
    for x, y, shift in [*cases, tiny]:
        fit = linregress(x, np.ldexp(y, -shift))
        assert simulation._fit_line(x, list(y)) == (
            float(np.ldexp(fit.slope, shift)),
            float(np.ldexp(fit.intercept, shift)), float(fit.rvalue ** 2))
    assert simulation._fit_line(*tiny[:2])[2] < 1


def test_constant_rate_fit_is_flat_with_unit_r_squared():
    x = np.log2(DEFAULT_SNR_GRID.linear)
    assert simulation._fit_line(x, [4.25] * len(x)) == (0.0, 4.25, 1.0)


def test_slope_estimate_serialization():
    cs, pre = zf_setup()
    doc = estimate_dof_slope(pre).to_dict()
    assert doc["snr_db"] == [60, 70, 80, 90, 100]
    assert len(doc["sum_rates"]) == 5
    assert doc["r_squared"] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# interference-limited baseline
# ---------------------------------------------------------------------------

def test_interference_limited_reduces_to_sum_rate_without_leakage():
    # zero-forcing precoders null the cross channels, so the interference
    # covariance vanishes and both formulas coincide
    cs, pre = zf_setup()
    rho = 1e3
    assert interference_limited_rate(pre, rho) == \
        pytest.approx(sum_rate(pre, rho), rel=1e-10)


def test_interference_limited_vanishes_at_zero_power():
    cs = channels_for(2, 1, bounds.RX_HEAVY, 0)
    pre = random_precoders(cs)
    assert interference_limited_rate(pre, 1e-12) < 1e-9


def test_random_baseline_saturates_at_three_cells():
    # each base station hears its one user and the two users of the other
    # cells in N=2 dimensions: the interference fills the receiver, so
    # generic precoders are not decodable and their rate saturates
    cs = generate_channels(NetworkConfig(L=3, K=1, M=2, N=2, seed=0))
    pre = random_precoders(cs)
    assert not verify_scheme(pre).decodable
    assert estimate_dof_slope(pre).slope <= 0.5


@pytest.mark.parametrize("L, K, M, N", [(3, 1, 3, 1), (3, 2, 5, 2),
                                        (4, 1, 4, 1)])
def test_multicell_transmit_zero_forcing_meets_the_bound(L, K, M, N):
    # at M = (L-1)K + 1, N = K each user's L-1 stacked cross links leave a
    # one-dimensional null space: precoding inside it cancels every leak,
    # so each cell decodes its K streams and the slope is L*K = L*N
    cs = generate_channels(NetworkConfig(L=L, K=K, M=M, N=N, seed=5))
    cells = range(1, L + 1)
    users = [(l, k) for l in cells for k in range(1, K + 1)]
    precoders = {(l, k): null_space_basis(np.vstack(
        [cs.channel(m, l, k) for m in cells if m != l])).basis
        for l, k in users}
    for (l, k), w in precoders.items():
        assert w.shape == (M, 1)
        for m in cells:
            if m != l:
                assert np.abs(cs.channel(m, l, k) @ w).max() < 1e-12
    scheme = Scheme("tzf", cs, precoders)
    report = verify_scheme(scheme)
    assert report.decodable
    assert report.effective_rank == {m: K for m in cells}
    est = estimate_dof_slope(scheme, report=report)
    assert bounds.dof_outer_bound(K, L, M, N).final_bound == L * K
    assert abs(est.slope - L * K) <= 0.03 * L * K
    assert est.r_squared >= 0.999


def test_interference_limited_saturates():
    for seed in (0, 1, 2):
        cs = channels_for(2, 1, bounds.TX_HEAVY, seed)
        pre = random_precoders(cs)
        low = interference_limited_rate(pre, 1e8)
        high = interference_limited_rate(pre, 1e10)
        assert high - low < 1.0


def test_interference_limited_rate_where_rho_times_a_gram_overflows():
    # links scaled by 2**498 have Gram entries near 1e300, which rho = 1e10
    # overflows: the rate comes from the unscaled Gram sums instead, and
    # is the saturated rate the unit-magnitude set approaches at high SNR
    for seed in (0, 3):
        cs = channels_for(2, 1, bounds.TX_HEAVY, seed)
        scaled = channel_set(cs.config, {key: h * 2.0**498
                                         for key, h in cs.channels.items()})
        rate = interference_limited_rate(random_precoders(scaled), 1e10)
        saturated = interference_limited_rate(random_precoders(cs), 1e12)
        assert rate == pytest.approx(saturated, rel=1e-6)


# ---------------------------------------------------------------------------
# lemma harnesses
# ---------------------------------------------------------------------------

def test_lemma1_product_rank():
    report = monte_carlo_lemma1(2, 4, 3, trials=1000, seed=1)
    assert report.passes == report.trials == 1000
    assert report.dims == (2, 4, 3)


def test_lemma1_scalar_case():
    report = monte_carlo_lemma1(1, 1, 1, trials=200, seed=2)
    assert report.all_passed


def test_lemma1_rejects_violated_hypothesis():
    with pytest.raises(InputError):
        monte_carlo_lemma1(3, 2, 3, trials=10, seed=0)


def test_lemma1_refuses_a_tolerance_no_singular_value_can_pass():
    # 0.5 * max(m, l) = 1.5 >= 1: every product would rank 0, and 0 passes
    # would be a verdict on the tolerance, not on the lemma
    with pytest.raises(InputError, match="no singular value"):
        monte_carlo_lemma1(2, 4, 3, trials=10, seed=0, tol=Tolerance(0.5))


def test_lemma1_deterministic():
    a = monte_carlo_lemma1(2, 4, 3, trials=64, seed=5)
    b = monte_carlo_lemma1(2, 4, 3, trials=64, seed=5)
    assert a == b


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_lemma_pass_counts_independent_of_chunk_size(chunk, monkeypatch):
    # loose tolerances make some trials fail and some H draws get redrawn,
    # so the counts pin individual verdicts, not just "all passed"
    loose = Tolerance(0.2)
    monkeypatch.setattr(simulation, "TRIAL_CHUNK", chunk)
    counts = (monte_carlo_lemma1(2, 4, 3, trials=60, seed=2, tol=loose).passes,
              monte_carlo_lemma2(2, 3, trials=60, seed=5, tol=loose).passes,
              monte_carlo_lemma2(2, 4, trials=9, seed=4, p_source="nsia").passes)
    assert counts == (5, 15, 9)


def reference_lemma2_holds(h, p, tol):
    """The lemma on one (H, P) pair, from one basis at a time."""
    scale = np.linalg.norm(p) * np.linalg.norm(h)
    lhs = null_space_basis(p @ h, tol, scale=scale).dim
    rhs = intersection_dim(range_basis(h, tol), null_space_basis(p, tol), tol)
    return lhs == rhs


def reference_lemma2_random(M, N, trials, seed, dist, tol):
    """One trial at a time, in the documented stream order."""
    passes = 0
    for i in range(trials):
        rng = seeded_rng(seed, i)
        h = random_matrix(N, M, dist, rng)
        while numeric_rank(h, tol) < M:
            h = random_matrix(N, M, dist, rng)
        p = random_matrix(M, N, dist, rng)
        passes += reference_lemma2_holds(h, p, tol)
    return passes


@pytest.mark.parametrize("dist", ["complex-gaussian", "uniform-square"])
@pytest.mark.parametrize("rel_tol", [1e-10, 0.05, 0.2])
def test_lemma2_random_matches_per_trial_reference(dist, rel_tol):
    tol = Tolerance(rel_tol)
    got = monte_carlo_lemma2(2, 3, trials=80, seed=8, dist=dist, tol=tol)
    assert got.passes == reference_lemma2_random(2, 3, 80, 8, dist, tol)


def test_lemma2_random_planes():
    report = monte_carlo_lemma2(2, 3, trials=1000, seed=3)
    assert report.all_passed
    assert report.dims == (2, 3)


def test_lemma2_constructed_planes_align_beta_dimensions():
    report = monte_carlo_lemma2(2, 3, trials=100, seed=4, p_source="nsia")
    assert report.all_passed


@functools.cache
def reference_lemma2_nsia(M, N, trials, seed, dist, rel_tol):
    """(H stack, P stack, passes), one trial at a time: trial i draws the
    cross channels into base station 1 of a network seeded from (seed, i),
    each from its (sub-seed, 1, 2, k) stream until the null space of H* is
    beta-dimensional, and stacks those null spaces into P_1."""
    tol = Tolerance(rel_tol)
    beta = N - M
    hs, ps = [], []
    for i in range(trials):
        sub_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        nulls = []
        for k in range(1, M // beta + 1):
            rng = seeded_rng(sub_seed, 1, 2, k)
            while True:
                h = random_matrix(N, M, dist, rng)
                null = null_space_basis(h.conj().T, tol)
                if null.dim == beta:
                    break
            if k == 1:
                hs.append(h)
            nulls.append(null.basis)
        # the plane's rows orthonormalized by numpy's QR, not linalg's
        q, _ = np.linalg.qr(np.hstack(nulls))
        ps.append(q.conj().T)
    passes = sum(reference_lemma2_holds(h, p, tol) for h, p in zip(hs, ps))
    return np.stack(hs), np.stack(ps), passes


@pytest.mark.parametrize("chunk", [1, 7, 256, 1000])
@pytest.mark.parametrize("M, N, trials, rel_tol", [(2, 3, 300, 0.03),
                                                   (4, 6, 60, 0.02)])
@pytest.mark.parametrize("dist", ["complex-gaussian", "uniform-square"])
def test_lemma2_nsia_matches_per_trial_reference(dist, M, N, trials, rel_tol,
                                                 chunk, monkeypatch):
    # At these tolerances 1 to 3 cross-channel draws per case come out
    # degenerate and are redrawn, and at (4, 6) one gaussian trial fails
    # the lemma.  The stacked source must hand the verdict the same pairs,
    # bit for bit.
    tol = Tolerance(rel_tol)
    seen = []
    holds = simulation._lemma2_holds

    def recording(h, p, rank_h, u, tol):
        seen.append((h, p))
        # the verdict's range bases are each H's own, bit for bit
        for h_t, rank_t, u_t in zip(h, rank_h, u):
            assert np.array_equal(u_t[:, :rank_t], range_basis(h_t, tol).basis)
        return holds(h, p, rank_h, u, tol)

    monkeypatch.setattr(simulation, "TRIAL_CHUNK", chunk)
    monkeypatch.setattr(simulation, "_lemma2_holds", recording)
    got = monte_carlo_lemma2(M, N, trials, seed=1, p_source="nsia", dist=dist,
                             tol=tol)
    h, p, passes = reference_lemma2_nsia(M, N, trials, 1, dist, rel_tol)
    assert np.array_equal(np.concatenate([pair[0] for pair in seen]), h)
    assert np.array_equal(np.concatenate([pair[1] for pair in seen]), p)
    assert got.passes == passes


@pytest.mark.parametrize("chunk", [1, 7, 256, 1000])
def test_lemma2_nsia_raises_the_first_lost_plane_at_any_chunk_size(
        chunk, monkeypatch, caplog):
    # seed 1 at 0.04: four draws are redrawn, then trial 326's plane loses
    # rank; the warnings and the error come out as one trial at a time
    monkeypatch.setattr(simulation, "TRIAL_CHUNK", chunk)
    with pytest.raises(DegeneracyError,
                       match="^stacked alignment plane at base station 1 "
                             "lost rank$"):
        monte_carlo_lemma2(2, 3, 600, seed=1, p_source="nsia",
                           tol=Tolerance(0.04))
    redraw = "degenerate channel draw at (m=1, l=2, k={}); redrawing"
    assert [r.getMessage() for r in caplog.records] == [
        redraw.format(2), redraw.format(2), redraw.format(2), redraw.format(1)]


def test_lemma2_nsia_factors_per_chunk_not_per_trial(monkeypatch, caplog):
    calls = collections.Counter()
    for name in ("svd", "qr"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    counts = []
    for trials in (1, simulation.TRIAL_CHUNK):
        calls.clear()
        assert monte_carlo_lemma2(2, 3, trials, seed=4,
                                  p_source="nsia").all_passed
        counts.append(dict(calls))
    assert not caplog.records  # no draw was redrawn
    assert counts[0] == counts[1]
    assert counts[0]["qr"] == 1


def test_lemma2_random_factors_each_stack_once(monkeypatch, caplog):
    # a chunk factors H once (its draw check and its range basis), P* once
    # (null(P)), and P H and [U V] without vectors
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: (
        calls.append(kwargs.get("compute_uv", True)) or svd(*args, **kwargs)))
    counts = []
    for trials in (1, simulation.TRIAL_CHUNK):
        calls.clear()
        assert monte_carlo_lemma2(2, 3, trials, seed=3).all_passed
        counts.append(calls.copy())
    assert not caplog.records  # no draw was redrawn
    assert counts[0] == counts[1] == [True, False, True, False]


def test_lemma1_seeds_every_stream_in_bulk_below_2_32(monkeypatch):
    built = []
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda entropy: (
        built.append(tuple(entropy)) or seed_sequence(entropy)))
    assert monte_carlo_lemma1(2, 4, 3, trials=2500, seed=2**32 - 1).all_passed
    assert built == []
    # a seed numpy splits into two entropy words is hashed by numpy
    assert monte_carlo_lemma1(2, 4, 3, trials=300, seed=2**32).all_passed
    assert built == [(2**32, i) for i in range(300)]


@pytest.mark.parametrize("dist", ["complex-gaussian", "uniform-square"])
def test_lemmas_past_2_32_match_per_trial_references(dist, monkeypatch):
    tol = Tolerance(0.05)
    seed = 2**32 + 1
    got = monte_carlo_lemma2(2, 3, trials=80, seed=seed, dist=dist, tol=tol)
    assert got.passes == reference_lemma2_random(2, 3, 80, seed, dist, tol)
    seen = []
    holds = simulation._lemma2_holds
    monkeypatch.setattr(simulation, "_lemma2_holds",
                        lambda h, p, *factors: seen.append((h, p))
                        or holds(h, p, *factors))
    got = monte_carlo_lemma2(2, 3, 40, seed=seed, p_source="nsia", dist=dist)
    h, p, passes = reference_lemma2_nsia(2, 3, 40, seed, dist, 1e-10)
    assert np.array_equal(seen[0][0], h) and np.array_equal(seen[0][1], p)
    assert got.passes == passes


@pytest.mark.parametrize("seed", [3, 2**32 + 3])
def test_random_precoders_follow_each_users_stream(seed):
    cfg = NetworkConfig(L=2, K=3, M=4, N=3, beta=2, seed=seed,
                        dist="uniform-square")
    scheme = random_precoders(generate_channels(cfg))
    assert list(scheme.precoders) == [(l, k) for l in (1, 2) for k in (1, 2, 3)]
    for (l, k), w in scheme.precoders.items():
        expected, _ = np.linalg.qr(random_matrix(4, 2, "uniform-square",
                                                 seeded_rng(seed, l, k)))
        assert np.array_equal(w, expected)


@pytest.mark.parametrize("trials", [30, 1])
def test_lemma2_random_warns_once_for_all_redrawn_h(caplog, trials):
    # the loose tolerance makes some first draws of H rank-deficient: each
    # such trial is redrawn by network.draw_until, and one warning counts
    # them and lists the first 10
    tol = Tolerance(0.2)
    monte_carlo_lemma2(2, 3, trials=trials, seed=5, tol=tol)
    redrawn = [i for i in range(trials) if numeric_rank(
        random_matrix(3, 2, "complex-gaussian", seeded_rng(5, i)), tol) < 2]
    assert redrawn[0] == 0
    first = ", ".join(map(str, redrawn[:10]))
    if trials == 1:
        expected = "degenerate H draw at 1 trial (0); redrawn"
    else:
        assert len(redrawn) > 10
        expected = f"degenerate H draw at {len(redrawn)} trials ({first}, ...); redrawn"
    assert [r.getMessage() for r in caplog.records] == [expected]


def test_log_det_rate_sums_the_logs_of_an_overflowing_term():
    # p * 1e300 overflows: that term is log(p) + log(eig), and the term
    # that does not overflow keeps the bits of log1p(p * eig)
    eigs = np.array([1e300, 2.0])
    rate = simulation._log_det_rate(eigs, 1e10)
    assert rate == ((np.log(1e10) + np.log(1e300)) + np.log1p(2e10)) / math.log(2.0)
    finite = np.array([3e290, 2.0])
    assert (simulation._log_det_rate(finite, 1e10)
            == float(np.sum(np.log1p(1e10 * finite)) / math.log(2.0)))


@pytest.mark.parametrize("scale", [1e160, 1e200])
@pytest.mark.parametrize("build, config, scaled_cells, what", [
    (build_zf_precoders, NetworkConfig(L=2, K=2, M=3, N=2, seed=3), (1, 2),
     "Gram matrix of cell 1"),
    (random_precoders, NetworkConfig(L=2, K=2, M=3, N=2, seed=3), (1, 2),
     "Gram matrix of link (m=1, l=1, k=1)"),
    (random_precoders, NetworkConfig(L=3, K=1, M=2, N=2, seed=3), (3,),
     "Gram matrix of link (m=1, l=3, k=1)")],
    ids=["zf", "random", "random-L3"])
def test_rates_refuse_a_gram_matrix_that_overflows(build, config,
                                                   scaled_cells, what, scale):
    # the links of the users in scaled_cells scaled past double precision's
    # range: each of their H W Grams overflows, and the fit used to return
    # a NaN slope and r² without raising; numpy's overflow warning must not
    # fire first either.  At L=3 the first refused link is the one from
    # cell 3 into base station 1, which no two-cell pairing visits.
    cs = generate_channels(config)
    scaled = channel_set(config, {(m, l, k): h * scale if l in scaled_cells
                                  else h for (m, l, k), h in cs.channels.items()})
    with pytest.raises(DegeneracyError, match=rf"^{re.escape(what)} is not "
                                              r"finite: channel magnitudes"):
        estimate_dof_slope(build(scaled))


def test_rate_refuses_a_spectrum_that_is_not_finite(monkeypatch):
    _, scheme = zf_setup()
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: np.full(a.shape[0], np.nan))
    with pytest.raises(DegeneracyError,
                       match=r"^Gram spectrum of cell 1 is not finite"):
        sum_rate(scheme, 1e3)


def test_lemma2_rejects_wide_h():
    with pytest.raises(InputError):
        monte_carlo_lemma2(3, 3, trials=10, seed=0)


def test_lemma2_rejects_non_integer_user_count():
    with pytest.raises(InputError):
        monte_carlo_lemma2(3, 5, trials=10, seed=0, p_source="nsia")


def test_lemma2_refuses_a_tolerance_no_singular_value_can_pass():
    # 0.2 * N = 1: no H could pass the rank check, so the redraw never ends
    with pytest.raises(InputError, match="no singular value"):
        monte_carlo_lemma2(3, 5, trials=10, seed=0, tol=Tolerance(0.2))


def test_lemma2_zero_plane_edge_case():
    # P = 0 makes both sides of the identity equal to M
    from doflab.linalg import (Tolerance, intersection_dim, null_space_basis,
                               range_basis, random_matrix, seeded_rng)
    tol = Tolerance()
    h = random_matrix(3, 2, rng=seeded_rng(6))
    p = np.zeros((2, 3), dtype=complex)
    lhs = null_space_basis(p @ h, tol).dim
    rhs = intersection_dim(range_basis(h, tol), null_space_basis(p, tol), tol)
    assert lhs == rhs == 2


def test_trial_report_validation():
    with pytest.raises(InputError):
        LemmaTrialReport(trials=5, passes=6, dims=(1, 1))
