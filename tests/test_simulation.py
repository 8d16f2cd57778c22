import math

import numpy as np
import pytest

from doflab import bounds, simulation
from doflab.errors import ContractError, InputError
from doflab.linalg import (Tolerance, intersection_dim, null_space_basis,
                           numeric_rank, random_matrix, range_basis, seeded_rng)
from doflab.network import NetworkConfig, generate_channels
from doflab.schemes import (build_nsia, build_zf_precoders, pi_transform,
                            verify_scheme)
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


# ---------------------------------------------------------------------------
# sum_rate
# ---------------------------------------------------------------------------

def test_rate_vanishes_at_zero_power():
    cs, pre = zf_setup()
    assert sum_rate(cs, pre, 1e-12) < 1e-9


def test_rate_rejects_non_positive_power():
    cs, pre = zf_setup()
    with pytest.raises(InputError):
        sum_rate(cs, pre, 0.0)


def test_rate_single_user_scalar_closed_form():
    # K=1, beta=1 zero forcing: the effective channel per cell is the
    # scalar g = H_mm W_m, so the rate is sum_m log2(1 + rho |g|^2)
    cs, pre = zf_setup(K=1)
    rho = 100.0
    expected = 0.0
    for m in (1, 2):
        g = (cs.channel(m, m, 1) @ pre.precoder(m, 1))[0, 0]
        expected += math.log2(1.0 + rho * abs(g) ** 2)
    assert sum_rate(cs, pre, rho) == pytest.approx(expected, rel=1e-12)


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
    assert sum_rate(cs, pre, rho) == pytest.approx(expected, rel=1e-12)


def test_rate_doubling_power_adds_two_k_beta_bits():
    cs, pre = zf_setup(K=2, beta=1)
    gain = sum_rate(cs, pre, 2e8) - sum_rate(cs, pre, 1e8)
    assert gain == pytest.approx(4.0, abs=1e-4)


def test_rate_strictly_increasing_in_power():
    cs, scheme = nsia_setup()
    rates = [sum_rate(cs, scheme, rho)
             for rho in np.logspace(-2, 10, 13)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_rejects_non_decodable_scheme():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=1)
    pre = random_precoders(cs)
    with pytest.raises(ContractError):
        sum_rate(cs, pre, 100.0)


def test_rate_rejects_non_orthonormal_projectors():
    cs, scheme = nsia_setup()
    rng = np.random.default_rng(0)
    skew = rng.standard_normal((2, 2)) + np.eye(2) * 3
    twisted = pi_transform(scheme, {1: skew, 2: skew})
    with pytest.raises(ContractError):
        sum_rate(cs, twisted, 100.0)


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
    got = sum_rate(cs, scheme, rho)
    assert abs(got - expected) / expected <= 1e-9


# ---------------------------------------------------------------------------
# slope estimation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_zf_slope_matches_dof(seed):
    cs, pre = zf_setup(K=2, beta=1, seed=seed)
    est = estimate_dof_slope(cs, pre)
    assert abs(est.slope - 4.0) / 4.0 <= 0.03
    assert est.r_squared >= 0.999


def test_nsia_slope_matches_dof_three_users():
    cs, scheme = nsia_setup(K=3)
    est = estimate_dof_slope(cs, scheme)
    assert abs(est.slope - 6.0) / 6.0 <= 0.03
    assert est.r_squared >= 0.999


def test_random_precoder_slope_is_interference_limited():
    # ceiling requires interference to fill the receive space (N <= K*beta),
    # so the contrast runs on the zero-forcing antenna profile
    for seed in (0, 1, 2):
        cs = channels_for(2, 1, bounds.TX_HEAVY, seed)
        est = estimate_dof_slope(cs, random_precoders(cs))
        assert est.slope <= 0.5


def test_random_precoder_slope_with_excess_receive_antennas():
    # with N = K*beta + beta the interference cannot cover the receive
    # space and beta dimensions per cell survive even without alignment
    cs = channels_for(2, 1, bounds.RX_HEAVY, 0)
    est = estimate_dof_slope(cs, random_precoders(cs))
    assert est.slope == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [1, 2])
def test_slope_convergence_full_grid(K, beta):
    target = 2 * K * beta
    cs, pre = zf_setup(K, beta, seed=1)
    est = estimate_dof_slope(cs, pre)
    assert abs(est.slope - target) <= 0.03 * target
    assert est.r_squared >= 0.999
    cs, scheme = nsia_setup(K, beta, seed=1)
    est = estimate_dof_slope(cs, scheme)
    assert abs(est.slope - target) <= 0.03 * target
    assert est.r_squared >= 0.999


def test_slope_with_report_matches_slope_without():
    cs, scheme = nsia_setup(K=2)
    report = verify_scheme(cs, scheme)
    assert estimate_dof_slope(cs, scheme, report=report) == \
        estimate_dof_slope(cs, scheme)


def test_line_fit_matches_scipy_linregress():
    linregress = pytest.importorskip("scipy.stats").linregress
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = np.sort(rng.uniform(0, 40, 5)) + np.arange(5)
        y = list(rng.standard_normal(5) * 10 + 3 * x)
        fit = linregress(x, y)
        assert simulation._fit_line(x, y) == (
            float(fit.slope), float(fit.intercept), float(fit.rvalue ** 2))


def test_constant_rate_fit_is_flat_with_unit_r_squared():
    x = np.log2(DEFAULT_SNR_GRID.linear)
    assert simulation._fit_line(x, [4.25] * len(x)) == (0.0, 4.25, 1.0)


def test_slope_estimate_serialization():
    cs, pre = zf_setup()
    doc = estimate_dof_slope(cs, pre).to_dict()
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
    assert interference_limited_rate(cs, pre, rho) == \
        pytest.approx(sum_rate(cs, pre, rho), rel=1e-10)


def test_interference_limited_vanishes_at_zero_power():
    cs = channels_for(2, 1, bounds.RX_HEAVY, 0)
    pre = random_precoders(cs)
    assert interference_limited_rate(cs, pre, 1e-12) < 1e-9


def test_interference_limited_saturates():
    for seed in (0, 1, 2):
        cs = channels_for(2, 1, bounds.TX_HEAVY, seed)
        pre = random_precoders(cs)
        low = interference_limited_rate(cs, pre, 1e8)
        high = interference_limited_rate(cs, pre, 1e10)
        assert high - low < 1.0


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


def reference_lemma2_random(M, N, trials, seed, dist, tol):
    """One trial at a time, in the documented stream order."""
    passes = 0
    for i in range(trials):
        rng = seeded_rng(seed, i)
        h = random_matrix(N, M, dist, rng)
        while numeric_rank(h, tol) < M:
            h = random_matrix(N, M, dist, rng)
        p = random_matrix(M, N, dist, rng)
        scale = np.linalg.norm(p) * np.linalg.norm(h)
        lhs = null_space_basis(p @ h, tol, scale=scale).dim
        rhs = intersection_dim(range_basis(h, tol), null_space_basis(p, tol), tol)
        passes += lhs == rhs
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
