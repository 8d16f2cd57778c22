"""Degrees-of-freedom outer bound for the L-cell, K-user MIMO MAC.

All arithmetic is exact: integers and fractions.Fraction.  Floating point
would mask off-by-one errors at ties, and the two-cell converse below is
asserted with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, is_int

# Antenna profiles of the two-cell optimum: more transmit antennas than
# receive (tx-heavy, M = K*beta + beta, N = K*beta) or the reverse
# (rx-heavy, M = K*beta, N = K*beta + beta).
TX_HEAVY = "tx-heavy"
RX_HEAVY = "rx-heavy"
VARIANTS = (TX_HEAVY, RX_HEAVY)

# Scheme names: the two optimal constructions and the non-aligned baseline
# (simulation.random_precoders), and the antenna profile each construction
# needs.  They live here, with the profiles, so that naming a scheme loads
# no numpy.
ZF = "zf"
NSIA = "nsia"
RANDOM = "random"
SCHEME_VARIANT = {ZF: TX_HEAVY, NSIA: RX_HEAVY}


@dataclass(frozen=True)
class DofBoundReport:
    """Outer bound with its ingredient terms.

    ``binding_term`` names the first term in the order (KLM, LN,
    lambda_first, lambda_second) that attains the minimum.
    """

    cooperative_bound: int
    per_set_bound: Fraction
    lambda_d: Fraction
    final_bound: Fraction
    binding_term: str

    def to_dict(self) -> dict:
        return {
            "cooperative_bound": self.cooperative_bound,
            "per_set_bound": str(self.per_set_bound),
            "per_set_bound_decimal": float(self.per_set_bound),
            "lambda_d": str(self.lambda_d),
            "lambda_d_decimal": float(self.lambda_d),
            "final_bound": str(self.final_bound),
            "final_bound_decimal": float(self.final_bound),
            "binding_term": self.binding_term,
        }


def _require_positive(**dims: int):
    for name, value in dims.items():
        if not is_int(value) or value < 1:
            raise InputError(f"{name} must be a positive integer, got {value!r}")


def two_user_ic_dof(M1: int, N1: int, M2: int, N2: int) -> int:
    """Optimal DoF of the (M1, N1), (M2, N2) two-user MIMO interference
    channel: min(M1+M2, N1+N2, max(M1, N2), max(M2, N1))."""
    _require_positive(M1=M1, N1=N1, M2=M2, N2=N2)
    return min(M1 + M2, N1 + N2, max(M1, N2), max(M2, N1))


def per_message_set_bound(K: int, L: int, M: int, N: int) -> int:
    """Outer bound for one message subset of the split network.

    Cooperation turns the subset network into a two-user interference
    channel with antenna pairs (KM, N) and ((L-1)M, (L-1)N), so this
    equals two_user_ic_dof(KM, N, (L-1)M, (L-1)N).
    """
    _require_positive(K=K, L=L, M=M, N=N)
    if L < 2:
        raise InputError(f"L must be >= 2 (the subset network needs another cell), got {L}")
    return min((K + L - 1) * M, L * N,
               max(K * M, (L - 1) * N), max((L - 1) * M, N))


def dof_outer_bound(K: int, L: int, M: int, N: int) -> DofBoundReport:
    """Total DoF outer bound min(KLM, LN, lambda_d) with

    lambda_d = K*L * min(max(KM, (L-1)N), max((L-1)M, N)) / (K+L-1).

    Summing the per-set bounds counts every message K+L-1 times across the
    K*L subsets, hence the K*L/(K+L-1) scaling.  The LN term from the
    per-set bound is kept inside the min even though K*L/(K+L-1)*LN >= LN
    makes it non-binding there; the cooperative LN term covers it.
    """
    _require_positive(K=K, L=L, M=M, N=N)
    if L < 2:
        raise InputError(f"L must be >= 2, got {L}")
    scale = Fraction(K * L, K + L - 1)
    lambda_first = scale * max(K * M, (L - 1) * N)
    lambda_second = scale * max((L - 1) * M, N)
    lambda_d = min(lambda_first, lambda_second)
    terms = [
        ("KLM", Fraction(K * L * M)),
        ("LN", Fraction(L * N)),
        ("lambda_first", lambda_first),
        ("lambda_second", lambda_second),
    ]
    final = min(value for _, value in terms)
    binding = next(name for name, value in terms if value == final)
    return DofBoundReport(
        cooperative_bound=min(K * L * M, L * N),
        per_set_bound=scale * per_message_set_bound(K, L, M, N),
        lambda_d=lambda_d,
        final_bound=final,
        binding_term=binding,
    )


def antenna_profile(K: int, beta: int, variant: str) -> tuple[int, int]:
    """(M, N) for the chosen two-cell antenna profile."""
    _require_positive(K=K, beta=beta)
    if variant == TX_HEAVY:
        return K * beta + beta, K * beta
    if variant == RX_HEAVY:
        return K * beta, K * beta + beta
    raise InputError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


def converse_two_cell(K: int, beta: int, variant: str) -> int:
    """Two-cell converse: the outer bound evaluates to exactly 2*K*beta.

    Internally re-evaluates dof_outer_bound at the chosen profile; a
    mismatch would be a formula regression and raises AssertionError.
    """
    M, N = antenna_profile(K, beta, variant)
    report = dof_outer_bound(K, 2, M, N)
    expected = 2 * K * beta
    assert report.final_bound == Fraction(expected), (
        f"outer bound {report.final_bound} != {expected} at "
        f"K={K}, beta={beta}, variant={variant}")
    return expected
