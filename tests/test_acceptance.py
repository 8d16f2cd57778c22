"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

from fractions import Fraction

import numpy as np

from doflab import bounds, linalg
from doflab.linalg import Tolerance
from doflab.network import NetworkConfig, generate_channels
from doflab.schemes import (build_nsia, build_zf_precoders, pi_transform,
                            verify_scheme)
from doflab.simulation import (SnrGrid, estimate_dof_slope, monte_carlo_lemma1,
                               monte_carlo_lemma2, random_precoders)

TOL = Tolerance()
GRID = SnrGrid.from_range(60, 10, 100)
RESIDUAL_LIMIT = 1e-10
SLOPE_RTOL = 0.03
MIN_R2 = 0.999


def _criterion(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def channels_for(K, beta, variant, seed):
    M, N = bounds.antenna_profile(K, beta, variant)
    cfg = NetworkConfig(L=2, K=K, M=M, N=N, beta=beta, seed=seed)
    return generate_channels(cfg)


def test_criterion_1_outer_bound_table():
    ok = True
    for K in range(1, 21):
        for beta in range(1, 9):
            for variant in bounds.VARIANTS:
                M, N = bounds.antenna_profile(K, beta, variant)
                report = bounds.dof_outer_bound(K, 2, M, N)
                ok = ok and report.final_bound == Fraction(2 * K * beta)
    _criterion(1, "outer bound equals 2*K*beta exactly", ok,
               "K=1..20, beta=1..8, both antenna variants")


def test_criterion_2_zf_achievability():
    worst = 0.0
    ok = True
    for K in (1, 2, 3, 4):
        for beta in (1, 2):
            for seed in range(20):
                cs = channels_for(K, beta, bounds.TX_HEAVY, seed)
                report = verify_scheme(build_zf_precoders(cs))
                worst = max(worst, report.residual_interference)
                ok = ok and report.residual_interference <= RESIDUAL_LIMIT
                ok = ok and all(r == K * beta
                                for r in report.effective_rank.values())
    _criterion(2, "zero-forcing achievability", ok,
               f"worst residual {worst:.3e}")


def test_criterion_3_nsia_achievability():
    worst = 0.0
    ok = True
    for K in (1, 2, 3, 4):
        for beta in (1, 2):
            for seed in range(20):
                cs = channels_for(K, beta, bounds.RX_HEAVY, seed)
                report = verify_scheme(build_nsia(cs))
                worst = max(worst, report.residual_interference)
                ok = ok and report.residual_interference <= RESIDUAL_LIMIT
                ok = ok and all(d == beta for d in report.null_dims.values())
                ok = ok and all(r == K * beta
                                for r in report.effective_rank.values())
    _criterion(3, "null-space alignment achievability", ok,
               f"worst residual {worst:.3e}")


def test_criterion_4_empirical_dof_slope():
    ok = True
    details = []
    for K in (2, 3):
        target = 2 * K
        cs = channels_for(K, 1, bounds.TX_HEAVY, seed=0)
        est = estimate_dof_slope(build_zf_precoders(cs), GRID)
        ok = ok and abs(est.slope - target) <= SLOPE_RTOL * target
        ok = ok and est.r_squared >= MIN_R2
        details.append(f"zf K={K}: {est.slope:.4f}")

        cs = channels_for(K, 1, bounds.RX_HEAVY, seed=0)
        est = estimate_dof_slope(build_nsia(cs), GRID)
        ok = ok and abs(est.slope - target) <= SLOPE_RTOL * target
        ok = ok and est.r_squared >= MIN_R2
        details.append(f"nsia K={K}: {est.slope:.4f}")

        # interference-limited contrast: random precoders where the
        # interference fills the whole receive space
        cs = channels_for(K, 1, bounds.TX_HEAVY, seed=0)
        est = estimate_dof_slope(random_precoders(cs), GRID)
        ok = ok and est.slope <= 0.5
        details.append(f"baseline K={K}: {est.slope:.4f}")
    _criterion(4, "empirical DoF slope within 3% of 2*K*beta", ok,
               "; ".join(details))


def test_criterion_5_lemma1_suite():
    ok = True
    details = []
    for dims in ((2, 4, 3), (3, 3, 3), (2, 6, 2), (4, 8, 4)):
        report = monte_carlo_lemma1(*dims, trials=1000, seed=11)
        ok = ok and report.all_passed
        details.append(f"{dims}: {report.passes}/{report.trials}")
    _criterion(5, "product rank lemma, 1000 trials per shape", ok,
               "; ".join(details))


def test_criterion_6_lemma2_suite():
    ok = True
    details = []
    for dims in ((2, 3), (3, 4), (4, 6)):
        for source in ("random", "nsia"):
            report = monte_carlo_lemma2(*dims, trials=1000, seed=13,
                                        p_source=source)
            ok = ok and report.all_passed
            details.append(f"{dims}/{source}: {report.passes}/{report.trials}")
    _criterion(6, "null/intersection dimension lemma, 1000 trials", ok,
               "; ".join(details))


def test_criterion_7_pi_invariance():
    cs = channels_for(2, 1, bounds.RX_HEAVY, seed=2)
    scheme = build_nsia(cs)
    baseline = verify_scheme(scheme)
    rng = linalg.seeded_rng(2, 7)
    ok = baseline.decodable
    for _ in range(100):
        pi = {m: linalg.random_matrix(2, 2, rng=rng) for m in (1, 2)}
        report = verify_scheme(pi_transform(scheme, pi))
        ok = ok and report.null_dims == baseline.null_dims
        ok = ok and report.effective_rank == baseline.effective_rank
    _criterion(7, "null dims and ranks invariant under 100 random Pi", ok)


def test_criterion_8_bound_formula_consistency():
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(1000):
        K = int(rng.integers(1, 11))
        L = int(rng.integers(2, 7))
        M = int(rng.integers(1, 13))
        N = int(rng.integers(1, 13))
        ok = ok and bounds.per_message_set_bound(K, L, M, N) == \
            bounds.two_user_ic_dof(K * M, N, (L - 1) * M, (L - 1) * N)
    _criterion(8, "per-set bound matches two-user reduction on 1000 tuples", ok)
