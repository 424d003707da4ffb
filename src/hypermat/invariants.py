"""Metric-relative invariant sequences and their formal gradients.

For a tensor ``a`` and an invertible metric ``g`` of the same even rank
and dimension d, the order-s invariant is the signed contraction with s
copies of ``a`` and d-s copies of ``g``, normalized by s!(d-s)! and by
the metric determinant. Order 0 is identically 1 and order d equals
det(a)/det(g); orders above d vanish. The rank-2 and higher even-rank
layers both build on the functions here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from . import engine
from .errors import SingularTensorError
from .report import IdentityCheck, check
from .tensor import SymTensor


def _check_pair(a: SymTensor, g: SymTensor):
    if (a.rank, a.dim) != (g.rank, g.dim):
        raise ValueError("tensor and metric must share rank and dimension")
    if a.rank % 2:
        raise ValueError("odd rank has no metric-relative invariants; "
                         "lift to even rank first (see `lift`)")


def metric_determinant(g: SymTensor):
    det = engine.epsilon_determinant(g)
    if det == 0:
        raise SingularTensorError(
            "metric determinant is zero; invariants divide by it")
    return det


@engine.once_per_block
def invariant_of_order(a: SymTensor, g: SymTensor, s: int):
    """Order-s invariant; exactly zero for s > d by construction."""
    _check_pair(a, g)
    d = a.dim
    if s < 0:
        raise ValueError("order must be non-negative")
    if s > d:
        return Fraction(0)
    g_det = metric_determinant(g)
    numerator = engine.coset_restricted_product_counted([a] * s + [g] * (d - s), s)[0]
    return numerator / (math.factorial(s) * math.factorial(d - s)) / g_det


@engine.sharing
def invariant_values(a: SymTensor, g: SymTensor) -> tuple:
    """The full sequence of orders 0..d."""
    return tuple(invariant_of_order(a, g, s) for s in range(a.dim + 1))


def grad_tensor(a: SymTensor, g: SymTensor, s: int) -> SymTensor:
    """Formal derivative of the order-s invariant with respect to ``a``.

    The s tensor slots contribute identical slot-freed gradients, so the
    result is s times the first slot's gradient over the normalization.
    """
    _check_pair(a, g)
    d = a.dim
    g_det = metric_determinant(g)
    if s == 0 or s > d:
        return SymTensor.zero(a.rank, d)
    freed = engine.epsilon_product_gradient([a] * s + [g] * (d - s), 0)
    return freed * (Fraction(s, math.factorial(s) * math.factorial(d - s)) / g_det)


def grad_metric(a: SymTensor, g: SymTensor, s: int) -> SymTensor:
    """Formal derivative of the order-s invariant with respect to ``g``,
    including the term from the 1/det(g) prefactor."""
    _check_pair(a, g)
    d = a.dim
    g_det = metric_determinant(g)
    g_inv = engine.epsilon_inverse(g)
    if s > d:
        return SymTensor.zero(a.rank, d)
    value = invariant_of_order(a, g, s)
    prefactor_term = g_inv * (-value)
    if s == d:
        return prefactor_term
    freed = engine.epsilon_product_gradient([a] * s + [g] * (d - s), s)
    slot_term = freed * (
        Fraction(d - s, math.factorial(s) * math.factorial(d - s)) / g_det)
    return slot_term + prefactor_term


def recurrence_residual(a: SymTensor, g: SymTensor, s: int) -> SymTensor:
    """Residual of: d(c_s)/dg + c_s * inv(g) - d(c_{s+1})/da.

    Identically zero for 0 <= s <= d (the s = d case, where c_{d+1} is
    zero, is the Cayley-Hamilton statement). Below order d both gradients
    hold a^s g^(d-s-1), so they are one served request.
    """
    lhs = grad_metric(a, g, s) + engine.epsilon_inverse(g) * invariant_of_order(a, g, s)
    return lhs - grad_tensor(a, g, s + 1)


def recurrence_checks(a: SymTensor, g: SymTensor, formulas: tuple,
                      seed: int | None) -> list[IdentityCheck]:
    """One check row per order 0..d of the recurrence; the order-d row is
    the Cayley-Hamilton statement. ``formulas`` holds the printed forms of
    the general row and of the order-d row."""
    recurrence, cayley_hamilton = formulas
    d = a.dim
    return [check("cayley_hamilton" if s == d else f"recurrence_order_{s}",
                  cayley_hamilton if s == d else recurrence,
                  recurrence_residual(a, g, s), seed)
            for s in range(d + 1)]


def metric_derivative_bridge_residual(a: SymTensor, g: SymTensor, s: int) -> SymTensor:
    """Residual of: d(det(g) c_s)/dg - d(det(g) c_{s+1})/da for s < d.

    Both sides are slot-freed contractions of the same factor content, so
    the residual is identically zero; no metric inverse is involved. A
    gradient is keyed by its held factors, so both sides are one served
    request and the row checks only their normalizations.
    """
    _check_pair(a, g)
    d = a.dim
    if not 0 <= s < d:
        raise ValueError("the product-rule bridge applies for 0 <= s < d")
    lhs = engine.epsilon_product_gradient([a] * s + [g] * (d - s), s) * Fraction(
        d - s, math.factorial(s) * math.factorial(d - s))
    rhs = engine.epsilon_product_gradient([a] * (s + 1) + [g] * (d - s - 1), 0) * Fraction(
        s + 1, math.factorial(s + 1) * math.factorial(d - s - 1))
    return lhs - rhs


def characteristic_coefficients(values: Sequence) -> tuple:
    """Coefficients of sum_s (-t)^(d-s) c_s, highest power of t first."""
    d = len(values) - 1
    return tuple((-1) ** (d - s) * values[s] for s in range(d + 1))


def evaluate_polynomial(coefficients: Sequence, point):
    acc = Fraction(0)
    for c in coefficients:
        acc = acc * point + c
    return acc


def characteristic_residual_at(a: SymTensor, g: SymTensor, point) -> Fraction:
    """Difference between the order-d invariant of a - t*g and the
    characteristic polynomial evaluated at t; exactly zero.

    det(a - t*g) is the full sum over d!, so it shares no plan with the
    c_s, which read the row plan on a polarized shape."""
    shifted = a + g * (-point)
    direct = (engine.epsilon_product([shifted] * a.dim) / math.factorial(a.dim)
              / metric_determinant(g))
    coeffs = characteristic_coefficients(invariant_values(a, g))
    return direct - evaluate_polynomial(coeffs, point)


def identity_residual(array: Mapping) -> Fraction:
    """Largest absolute deviation from the unit matrix of a d x d mapping
    keyed by ``(i, j)``, as returned by ``tensor.contract_one_free``."""
    return max((abs(value - (1 if i == j else 0))
                for (i, j), value in array.items()), default=Fraction(0))
