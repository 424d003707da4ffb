"""Rank-2 reference layer.

Ordinary symmetric matrices support two independent constructions of the
same invariant sequence: through traces of metric powers and the Newton
relations, and through signed permutation contractions. Keeping both,
and checking them against each other, anchors the higher-rank layers
where only the contraction route survives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import engine, invariants
from .report import VerificationReport, check
from .tensor import (SymTensor, contract_full, identity, linear_combination,
                     sym_product)


def g_product(a: SymTensor, b: SymTensor, g: SymTensor) -> SymTensor:
    """Metric product c_ij = a_ik g^lk b_lj, symmetrized for storage, with
    g^ the inverse of the metric ``g``; a singular metric is rejected.

    Powers of a single matrix are symmetric already (the products are
    palindromes), so for them the symmetrization is a no-op. The product
    is ``tensor.sym_product`` of the three rank-2 flattenings.
    """
    d = a.dim
    if b.dim != d or g.dim != d or a.rank != 2 or b.rank != 2 or g.rank != 2:
        raise ValueError("metric product needs rank-2 operands of one dimension")
    return sym_product((a, 1), (engine.epsilon_inverse(g), 1), (b, 1))


def power_sums(a: SymTensor, g: SymTensor, max_order: int) -> list:
    """Traces g^ij x_ij of metric powers: [d, tr(a), tr(a^2), ...,
    tr(a^max_order)].

    The zeroth entry is the dimension, the trace of the unit element.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    g_inv = engine.epsilon_inverse(g)
    sums = [Fraction(a.dim), contract_full(g_inv, a)]
    current = a
    for _ in range(max_order - 1):
        current = g_product(current, a, g)
        sums.append(contract_full(g_inv, current))
    return sums


def newton_elementary_from_power(power: Sequence) -> list:
    """Elementary symmetric quantities from power sums Q_1..Q_n.

    Returns [P_0..P_n] with P_0 = 1 and s*P_s = sum_k (-1)^(k-1) P_{s-k} Q_k.
    """
    q = [Fraction(x) if not isinstance(x, Fraction) else x for x in power]
    p = [Fraction(1)]
    for s in range(1, len(q) + 1):
        acc = Fraction(0)
        for k in range(1, s + 1):
            acc += (-1) ** (k - 1) * p[s - k] * q[k - 1]
        p.append(acc / s)
    return p


def discriminants_trace(a: SymTensor, g: SymTensor) -> tuple:
    """Invariant sequence c_0..c_d built from traces of powers via the
    Newton recursion."""
    q = power_sums(a, g, a.dim)
    return tuple(newton_elementary_from_power(q[1:]))


@engine.once_per_block
def matrix_polynomial_residual(a: SymTensor) -> SymTensor:
    """Residual of the explicit matrix identity with the unit metric:
    sum_s (-1)^s c_s a^(d-s) = 0, with ordinary matrix powers."""
    if a.rank != 2:
        raise ValueError("the matrix identity applies at rank 2")
    d = a.dim
    unit = identity(d)
    coeffs = invariants.invariant_values(a, unit)
    powers = [unit]
    for _ in range(d):
        powers.append(g_product(powers[-1], a, unit))
    return linear_combination(2, d, [(powers[d - s], (-1) ** s * coeffs[s])
                                     for s in range(d + 1)])


_RECURRENCE_FORMULAS = ("d(c_s)/dg + c_s*inv(g) == d(c_{s+1})/da",
                        "d(c_d)/dg + c_d*inv(g) == 0")
_MATRIX_FORMULA = "sum_s (-1)^s c_s a^(d-s) == 0 with the unit metric"


@engine.sharing
def verify_recurrence2(a: SymTensor, g: SymTensor,
                       seed: int | None = None) -> VerificationReport:
    """Recurrence residuals for every order, the Cayley-Hamilton case
    included, plus the explicit unit-metric matrix identity."""
    report = VerificationReport("rank2-recurrence", invariants.recurrence_checks(
        a, g, _RECURRENCE_FORMULAS, seed))
    report.checks.append(check(
        "matrix_polynomial_unit_metric", _MATRIX_FORMULA,
        matrix_polynomial_residual(a), seed))
    return report
