"""Metric-relative invariant sequences and their formal gradients.

For a tensor ``a`` and an invertible metric ``g`` of the same even rank
and dimension d, the order-s invariant is the signed contraction with s
copies of ``a`` and d-s copies of ``g``, normalized by s!(d-s)! and by
the metric determinant. Order 0 is identically 1 and order d equals
det(a)/det(g); orders above d vanish. The rank-2 and higher even-rank
layers both build on the functions here.

The gradients of c_s are lists of (tensor, coefficient) terms from two
private builders, ``_tensor_terms`` and ``_metric_terms``, which take
det(g), inv(g) and c_s as arguments. ``grad_tensor`` and ``grad_metric``
are each one ``tensor.linear_combination`` of a builder's terms, and a
recurrence row is one combination of both builders' own terms, each
with its own normalization, so a wrong one fails the row; the rows of
``recurrence_checks`` fetch det(g), inv(g) and the c_s once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import engine
from .errors import SingularTensorError
from .report import IdentityCheck, check
from .tensor import SymTensor, flat_product, linear_combination


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


def _tensor_terms(a: SymTensor, g: SymTensor, s: int, g_det) -> list:
    """The (tensor, coefficient) terms of the derivative of c_s with
    respect to ``a``, for the metric determinant ``g_det``: the s tensor
    slots contribute identical slot-freed gradients, so one term, the
    first slot's gradient times s over the normalization; none for s = 0
    or s > d."""
    d = a.dim
    if s == 0 or s > d:
        return []
    freed = engine.epsilon_product_gradient([a] * s + [g] * (d - s), 0)
    return [(freed, Fraction(s, math.factorial(s) * math.factorial(d - s)) / g_det)]


def _metric_terms(a: SymTensor, g: SymTensor, s: int, g_det, g_inv: SymTensor,
                  c_s) -> list:
    """The (tensor, coefficient) terms of the derivative of c_s with
    respect to ``g``, for the metric determinant ``g_det``, its inverse
    ``g_inv`` and the invariant ``c_s``: the 1/det(g) prefactor's term,
    -c_s inv(g), and below order d the d-s metric slots' identical
    slot-freed gradients; none for s > d."""
    d = a.dim
    if s > d:
        return []
    terms = [(g_inv, -c_s)]
    if s < d:
        freed = engine.epsilon_product_gradient([a] * s + [g] * (d - s), s)
        terms.append((freed, Fraction(d - s, math.factorial(s) * math.factorial(d - s))
                      / g_det))
    return terms


def grad_tensor(a: SymTensor, g: SymTensor, s: int) -> SymTensor:
    """Formal derivative of the order-s invariant with respect to ``a``."""
    _check_pair(a, g)
    return linear_combination(a.rank, a.dim,
                              _tensor_terms(a, g, s, metric_determinant(g)))


def grad_metric(a: SymTensor, g: SymTensor, s: int) -> SymTensor:
    """Formal derivative of the order-s invariant with respect to ``g``,
    including the term from the 1/det(g) prefactor."""
    _check_pair(a, g)
    g_det = metric_determinant(g)
    g_inv = engine.epsilon_inverse(g)
    return linear_combination(a.rank, a.dim, _metric_terms(
        a, g, s, g_det, g_inv, invariant_of_order(a, g, s)))


def _recurrence_row(a: SymTensor, g: SymTensor, s: int, g_det, g_inv: SymTensor,
                    c_s) -> SymTensor:
    # both builders' own terms, each with its own normalization, and
    # c_s inv(g), as one combination
    return linear_combination(a.rank, a.dim, [
        *_metric_terms(a, g, s, g_det, g_inv, c_s), (g_inv, c_s),
        *[(t, -c) for t, c in _tensor_terms(a, g, s + 1, g_det)]])


def recurrence_residual(a: SymTensor, g: SymTensor, s: int) -> SymTensor:
    """Residual of: d(c_s)/dg + c_s * inv(g) - d(c_{s+1})/da.

    Identically zero for 0 <= s <= d (the s = d case, where c_{d+1} is
    zero, is the Cayley-Hamilton statement). Below order d both gradients
    hold a^s g^(d-s-1), so they are one served request.
    """
    _check_pair(a, g)
    return _recurrence_row(a, g, s, metric_determinant(g), engine.epsilon_inverse(g),
                           invariant_of_order(a, g, s))


def recurrence_checks(a: SymTensor, g: SymTensor, formulas: tuple,
                      seed: int | None) -> list[IdentityCheck]:
    """One check row per order 0..d of the recurrence; the order-d row is
    the Cayley-Hamilton statement. ``formulas`` holds the printed forms of
    the general row and of the order-d row. det(g), inv(g) and the c_s
    are fetched once for every row."""
    recurrence, cayley_hamilton = formulas
    _check_pair(a, g)
    d = a.dim
    g_det, g_inv = metric_determinant(g), engine.epsilon_inverse(g)
    values = invariant_values(a, g)
    return [check("cayley_hamilton" if s == d else f"recurrence_order_{s}",
                  cayley_hamilton if s == d else recurrence,
                  _recurrence_row(a, g, s, g_det, g_inv, values[s]), seed)
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
    return linear_combination(a.rank, d, [
        (engine.epsilon_product_gradient([a] * s + [g] * (d - s), s),
         Fraction(d - s, math.factorial(s) * math.factorial(d - s))),
        (engine.epsilon_product_gradient([a] * (s + 1) + [g] * (d - s - 1), 0),
         -Fraction(s + 1, math.factorial(s + 1) * math.factorial(d - s - 1)))])


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
    shifted = linear_combination(a.rank, a.dim, [(a, 1), (g, -point)])
    direct = (engine.epsilon_product([shifted] * a.dim) / math.factorial(a.dim)
              / metric_determinant(g))
    coeffs = characteristic_coefficients(invariant_values(a, g))
    return direct - evaluate_polynomial(coeffs, point)


def identity_residual(x: SymTensor, y: SymTensor) -> Fraction:
    """Largest absolute deviation from the unit matrix of the contraction
    T[i, j] = sum over (r-1)-tuples k of x[(i,)+k] * y[(j,)+k]
    (``tensor.contract_one_free``), read off its integer rows as one
    Fraction: max |v - delta_ij scale| over the rows' scale."""
    x._require_same_shape(y)
    if x.rank < 2:
        raise ValueError("contraction with one free index needs rank >= 2")
    rows, scale = flat_product((x, 1), (y, x.rank - 1))
    return Fraction(max(abs(v - scale) if i == j else abs(v)
                        for i, row in enumerate(rows)
                        for j, v in enumerate(row)), scale)
