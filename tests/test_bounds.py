from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from doflab import bounds
from doflab.bounds import (DofBoundReport, RX_HEAVY, TX_HEAVY,
                           converse_two_cell, dof_outer_bound,
                           per_message_set_bound, antenna_profile,
                           two_user_ic_dof)
from doflab.errors import ContractError, InputError


def test_two_user_ic_single_antennas():
    assert two_user_ic_dof(1, 1, 1, 1) == 1


def test_two_user_ic_asymmetric():
    # min(4+2, 2+2, max(4, 2), max(2, 2)) = min(6, 4, 4, 2)
    assert two_user_ic_dof(4, 2, 2, 2) == 2


@pytest.mark.parametrize("m", [1, 2, 5])
def test_two_user_ic_symmetric_equals_m(m):
    assert two_user_ic_dof(m, m, m, m) == m


def test_two_user_ic_rejects_bad_dims():
    with pytest.raises(InputError):
        two_user_ic_dof(0, 1, 1, 1)


@pytest.mark.parametrize("bound", [
    lambda: dof_outer_bound(True, 2, 3, 2),
    lambda: per_message_set_bound(2, 2, 3, True),
    lambda: two_user_ic_dof(1, 1, True, 1),
    lambda: antenna_profile(2, True, TX_HEAVY)])
def test_bounds_refuse_bool_dimensions(bound):
    # bool is an int subclass: True must not pass as 1
    with pytest.raises(InputError, match="must be a positive integer, got True"):
        bound()


def test_per_set_bound_examples():
    # min(9, 4, max(6, 2), max(3, 2)) = 3
    assert per_message_set_bound(2, 2, 3, 2) == 3
    # min(2, 2, 1, 1) = 1
    assert per_message_set_bound(1, 2, 1, 1) == 1


def test_per_set_bound_needs_second_cell():
    with pytest.raises(InputError):
        per_message_set_bound(2, 1, 3, 2)


def test_per_set_bound_matches_two_user_reduction():
    rng = np.random.default_rng(0)
    for _ in range(100):
        K, L = int(rng.integers(1, 11)), int(rng.integers(2, 7))
        M, N = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        assert per_message_set_bound(K, L, M, N) == \
            two_user_ic_dof(K * M, N, (L - 1) * M, (L - 1) * N)


def test_outer_bound_optimal_profiles():
    assert dof_outer_bound(2, 2, 3, 2).final_bound == Fraction(4)
    assert dof_outer_bound(2, 2, 2, 3).final_bound == Fraction(4)


def test_outer_bound_single_user_equals_two_user_ic():
    report = dof_outer_bound(1, 2, 2, 2)
    assert report.final_bound == Fraction(two_user_ic_dof(2, 2, 2, 2)) == 2


def test_outer_bound_fractional_intermediate():
    report = dof_outer_bound(1, 2, 1, 1)
    assert report.lambda_d == Fraction(1)
    assert report.final_bound == Fraction(1)
    # genuinely fractional case: K=2, L=2, M=N=1
    report = dof_outer_bound(2, 2, 1, 1)
    assert report.lambda_d == Fraction(4, 3)
    assert report.final_bound == Fraction(4, 3)
    assert report.binding_term == "lambda_second"


def test_outer_bound_binding_term_order():
    # terms at (2, 2, 3, 2): KLM=12, LN=4, lambda_first=8, lambda_second=4;
    # first attaining the min wins the tie
    assert dof_outer_bound(2, 2, 3, 2).binding_term == "LN"


def test_outer_bound_report_fields():
    report = dof_outer_bound(2, 2, 3, 2)
    assert report.cooperative_bound == 4
    assert report.per_set_bound == Fraction(4)
    doc = report.to_dict()
    assert doc["final_bound"] == "4"
    assert doc["final_bound_decimal"] == 4.0


def test_outer_bound_meets_the_two_cell_siso_uplink_dof():
    # L=2, M=N=1 is the two-cell uplink with K single-antenna users a cell,
    # whose DoF is 2K/(K+1) (Suh and Tse, "Interference alignment for
    # cellular networks", Allerton 2008): the bound is tight there
    for K in range(1, 30):
        assert dof_outer_bound(K, 2, 1, 1).final_bound == Fraction(2 * K, K + 1)


def test_outer_bound_stays_above_the_mimo_interference_channel_dof():
    # K=1, L >= 3, M=N is the L-user MxM interference channel, whose DoF
    # is LM/2 (Cadambe and Jafar, IEEE Trans. IT 2008; for constant MIMO
    # coefficients, Ghasemi, Motahari and Khandani, ISIT 2010).  A valid
    # bound never falls below it; this one gives (L-1)M, loose by a
    # factor 2(L-1)/L
    for L in range(3, 12):
        for M in range(1, 8):
            bound = dof_outer_bound(1, L, M, M).final_bound
            assert bound >= Fraction(L * M, 2)
            assert bound == (L - 1) * M


def test_outer_bound_never_exceeds_cooperative_cap():
    for K in range(1, 6):
        for L in range(2, 5):
            for M in range(1, 7):
                for N in range(1, 7):
                    report = dof_outer_bound(K, L, M, N)
                    assert report.final_bound <= min(K * L * M, L * N)


def test_outer_bound_monotone_in_antennas():
    for K, L in ((1, 2), (2, 2), (3, 4)):
        grid = [[dof_outer_bound(K, L, M, N).final_bound
                 for N in range(1, 13)] for M in range(1, 13)]
        for i in range(12):
            for j in range(11):
                assert grid[i][j] <= grid[i][j + 1]   # N grows
                assert grid[j][i] <= grid[j + 1][i]   # M grows


def test_antenna_profile():
    assert antenna_profile(3, 2, TX_HEAVY) == (8, 6)
    assert antenna_profile(3, 2, RX_HEAVY) == (6, 8)
    with pytest.raises(InputError):
        antenna_profile(3, 2, "sideways")


@pytest.mark.parametrize("variant", [TX_HEAVY, RX_HEAVY])
def test_converse_identity_exact(variant):
    for K in range(1, 21):
        for beta in range(1, 9):
            assert converse_two_cell(K, beta, variant) == 2 * K * beta


def test_converse_known_points():
    assert converse_two_cell(3, 2, TX_HEAVY) == 12
    assert converse_two_cell(1, 1, TX_HEAVY) == 2
    assert converse_two_cell(5, 1, RX_HEAVY) == 10


def test_converse_refuses_a_wrong_bound(monkeypatch):
    # a raised error, not an assert, so that python -O keeps the check
    real = bounds.dof_outer_bound
    monkeypatch.setattr(bounds, "dof_outer_bound", lambda K, L, M, N: replace(
        real(K, L, M, N), final_bound=Fraction(2 * K + 1)))
    with pytest.raises(ContractError, match=r"^outer bound 5 != 4 at K=2, "
                       r"beta=1, variant=tx-heavy$"):
        converse_two_cell(2, 1, TX_HEAVY)


def test_bound_meets_the_two_cell_siso_uplink_dof():
    # Suh and Tse, "Interference alignment for cellular networks"
    # (Allerton 2008): the two-cell uplink with K single-antenna users per
    # cell and single-antenna base stations has 2K/(K+1) DoF, reached by
    # asymptotic alignment.  The bound is tight there.
    for K in range(1, 30):
        assert dof_outer_bound(K, 2, 1, 1).final_bound == Fraction(2 * K, K + 1)


def test_bound_is_loose_on_the_l_user_interference_channel():
    # At K=1 the network is the L-user M x M interference channel, whose
    # DoF is LM/2 (Cadambe and Jafar, "Interference alignment and degrees
    # of freedom of the K-user interference channel", IEEE Trans. IT 2008;
    # for constant MIMO coefficients, Ghasemi, Motahari and Khandani,
    # ISIT 2010).
    # The bound is (L-1)M: valid, and loose by the factor 2(L-1)/L at L >= 3.
    for L in range(3, 12):
        for M in range(1, 8):
            final = dof_outer_bound(1, L, M, M).final_bound
            assert final == (L - 1) * M
            assert final > Fraction(L * M, 2)


def test_outer_bound_requires_two_cells():
    with pytest.raises(InputError):
        dof_outer_bound(2, 1, 3, 2)


def message_subsets(K, L):
    """The K*L message subsets of the outer bound, each with its cell j:
    all K users of cell j plus user k of every other cell."""
    return [(j, {(j, u) for u in range(1, K + 1)}
             | {(l, k) for l in range(1, L + 1) if l != j})
            for j in range(1, L + 1) for k in range(1, K + 1)]


def subset_ic_dof(j, subset, M, N):
    """The subset network with each side's users cooperating: cell j's
    users into base station j, against the other users into their own
    base stations."""
    own = [msg for msg in subset if msg[0] == j]
    rest = [msg for msg in subset if msg[0] != j]
    cells = {l for l, _ in rest}
    return two_user_ic_dof(len(own) * M, N, len(rest) * M, len(cells) * N)


@pytest.mark.parametrize("L", range(2, 6))
@pytest.mark.parametrize("K", range(1, 6))
def test_outer_bound_matches_message_subset_oracle(K, L):
    subsets = message_subsets(K, L)
    assert len(subsets) == K * L
    counts = Counter(msg for _, subset in subsets for msg in subset)
    assert counts == {(l, k): K + L - 1
                      for l in range(1, L + 1) for k in range(1, K + 1)}
    for M in range(1, 9):
        for N in range(1, 9):
            per_set = Fraction(sum(subset_ic_dof(j, subset, M, N)
                                   for j, subset in subsets), K + L - 1)
            report = dof_outer_bound(K, L, M, N)
            assert report.per_set_bound == per_set, (K, L, M, N)
            assert report.final_bound == min(Fraction(K * L * M),
                                             Fraction(L * N), per_set)
