"""Rank-2 reference layer.

Ordinary symmetric matrices support two independent constructions of the
same invariant sequence: through traces of metric powers and the Newton
relations, and through signed permutation contractions. Keeping both,
and checking them against each other, anchors the higher-rank layers
where only the contraction route survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import engine, invariants
from .invariants import DiscriminantVector
from .report import VerificationReport, check
from .tensor import SymTensor, contract_full, identity


@dataclass(frozen=True)
class MetricPair:
    """A rank-2 metric with its inverse and determinant precomputed."""

    g: SymTensor
    g_inv: SymTensor
    g_det: Fraction


def metric_inverse(g: SymTensor) -> MetricPair:
    """Bundle a metric with its inverse and determinant; singular metrics
    are rejected."""
    if g.rank != 2:
        raise ValueError("a metric is a rank-2 tensor")
    det = invariants.metric_determinant(g)
    return MetricPair(g, engine.epsilon_inverse(g), det)


def unit_metric(dim: int) -> MetricPair:
    eye = identity(dim)
    return MetricPair(eye, eye, Fraction(1))


def _rows(t: SymTensor, exact: bool):
    """Dense rows of a rank-2 tensor and their common scale: on the exact
    path each row holds integers, the entries times the lcm of their
    denominators; otherwise the entries themselves with scale 1."""
    scale = 1
    if exact:
        for v in t.entries.values():
            scale = math.lcm(scale, v.denominator)
    rows = [[0] * t.dim for _ in range(t.dim)]
    for (i, j), v in t.entries.items():
        if exact:
            v = v.numerator * (scale // v.denominator)
        rows[i][j] = rows[j][i] = v
    return rows, scale


def g_product(a: SymTensor, b: SymTensor, metric: MetricPair) -> SymTensor:
    """Metric product c_ij = a_ik g^lk b_lj, symmetrized for storage.

    Powers of a single matrix are symmetric already (the products are
    palindromes), so for them the symmetrization is a no-op. Exact
    operands are multiplied as integer rows, scaled as in the engine
    kernel, and each entry becomes one Fraction at the end; if any operand
    holds a float, nothing is scaled.
    """
    d = a.dim
    if b.dim != d or metric.g.dim != d or a.rank != 2 or b.rank != 2:
        raise ValueError("metric product needs rank-2 operands of one dimension")
    operands = (a, metric.g_inv, b)
    exact = all(isinstance(v, (int, Fraction))
                for t in operands for v in t.entries.values())
    (ra, sa), (rg, sg), (rb, sb) = (_rows(t, exact) for t in operands)
    # all three are symmetric, so row j of b is its column j and
    # gb[j][k] = g^kl b_lj is column j of g^-1 b
    gb = [[sum(map(mul, rg_k, rb_j)) for rg_k in rg] for rb_j in rb]
    raw = [[sum(map(mul, ra_i, gb_j)) for gb_j in gb] for ra_i in ra]
    scale = 2 * sa * sg * sb
    entries = {}
    for i in range(d):
        for j in range(i, d):
            value = raw[i][j] + raw[j][i]
            if value:
                entries[(i, j)] = Fraction(value, scale) if exact else value / scale
    return SymTensor(2, d, entries)


def g_trace(a: SymTensor, metric: MetricPair):
    """Metric trace g^ij a_ij."""
    return contract_full(metric.g_inv, a)


def power_sums(a: SymTensor, metric: MetricPair, max_order: int) -> list:
    """Traces of metric powers: [d, tr(a), tr(a^2), ..., tr(a^max_order)].

    The zeroth entry is the dimension, the trace of the unit element.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    sums = [Fraction(a.dim), g_trace(a, metric)]
    current = a
    for _ in range(max_order - 1):
        current = g_product(current, a, metric)
        sums.append(g_trace(current, metric))
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


def discriminants_trace(a: SymTensor, metric: MetricPair) -> DiscriminantVector:
    """Invariant sequence built from traces of powers via the Newton
    recursion."""
    q = power_sums(a, metric, a.dim)
    return DiscriminantVector(tuple(newton_elementary_from_power(q[1:])))


def matrix_polynomial_residual(a: SymTensor) -> SymTensor:
    """Residual of the explicit matrix identity with the unit metric:
    sum_s (-1)^s c_s a^(d-s) = 0, with ordinary matrix powers."""
    if a.rank != 2:
        raise ValueError("the matrix identity applies at rank 2")
    d = a.dim
    metric = unit_metric(d)
    coeffs = invariants.invariant_values(a, metric.g, metric.g_det)
    powers = [identity(d)]
    for _ in range(d):
        powers.append(g_product(powers[-1], a, metric))
    residual = SymTensor.zero(2, d)
    for s in range(d + 1):
        residual = residual + powers[d - s] * ((-1) ** s * coeffs[s])
    return residual


_RECURRENCE_FORMULAS = ("d(c_s)/dg + c_s*inv(g) == d(c_{s+1})/da",
                        "d(c_d)/dg + c_d*inv(g) == 0")
_MATRIX_FORMULA = "sum_s (-1)^s c_s a^(d-s) == 0 with the unit metric"


def verify_recurrence2(a: SymTensor, metric: MetricPair,
                       seed: int | None = None) -> VerificationReport:
    """Recurrence residuals for every order, the Cayley-Hamilton case
    included, plus the explicit unit-metric matrix identity for d <= 4."""
    report = VerificationReport("rank2-recurrence", invariants.recurrence_checks(
        a, metric.g, metric.g_det, metric.g_inv, _RECURRENCE_FORMULAS, seed))
    if a.dim <= 4:
        report.checks.append(check(
            "matrix_polynomial_unit_metric", _MATRIX_FORMULA,
            matrix_polynomial_residual(a), seed))
    return report
