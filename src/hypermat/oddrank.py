"""Odd-rank layer for third-rank tensors.

The fully signed contraction of an odd-rank tensor vanishes identically
(an odd number of sign factors cancels every term), so the determinant
role passes to the lift: the symmetrized outer square, an even-rank
tensor whose determinant is proportional to the classical discriminant
of the cubic in two dimensions. The two-dimensional closed-form inverse
and its derivative construction live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import engine, invariants
from .errors import SingularTensorError
from .rational import format_scalar
from .report import VerificationReport, check
from .tensor import (SymTensor, canonical_key, canonical_keys,
                     contract_one_free, derive_seed, multiplicity,
                     random_symmetric, sym_outer)

# det(lift(s)) / cubic_discriminant(s) for every binary cubic. Proved:
# det(lift(s)) - 9/10 disc(s) has degree at most 4 in each of the four
# coefficients and vanishes on the grid {-2..2}^4, so by the Combinatorial
# Nullstellensatz (Alon, Combin. Probab. Comput. 8, 1999, Lemma 2.1) it is
# the zero polynomial; tests/test_oddrank.py evaluates the grid.
CUBIC_LIFT_RATIO = Fraction(9, 10)


@dataclass(frozen=True)
class OddLiftResult:
    """Lift of a third-rank tensor with its determinant; in two dimensions
    the cubic discriminant and the determinant-to-discriminant ratio are
    attached as well."""

    tensor: SymTensor
    det: Fraction
    cubic_disc: Fraction | None = None
    ratio: Fraction | None = None


def verify_odd_rank_vanishing(s: SymTensor,
                              seed: int | None = None) -> VerificationReport:
    """Evaluate the full signed contraction of an odd-rank tensor and
    check that it is exactly zero."""
    if s.rank % 2 == 0:
        raise ValueError("the vanishing statement is about odd rank")
    value = engine.epsilon_product([s] * s.dim)
    report = VerificationReport("odd-rank-vanishing")
    report.checks.append(check(
        "odd_contraction_vanishes",
        "full signed contraction of an odd-rank tensor == 0", value, seed))
    return report


def cubic_discriminant(s: SymTensor):
    """Discriminant of a binary cubic: for components a=s000, b=s001,
    c=s011, d=s111 this is a^2 d^2 - 6abcd + 4ac^3 + 4b^3 d - 3b^2 c^2."""
    if s.rank != 3 or s.dim != 2:
        raise ValueError("the closed form covers rank 3 in two dimensions")
    a = s.component((0, 0, 0))
    b = s.component((0, 0, 1))
    c = s.component((0, 1, 1))
    d = s.component((1, 1, 1))
    return (a * a * d * d - 6 * a * b * c * d + 4 * a * c ** 3
            + 4 * b ** 3 * d - 3 * b * b * c * c)


def lift(s: SymTensor) -> OddLiftResult:
    """Symmetrized outer square and its even-rank determinant."""
    if s.rank != 3:
        raise ValueError("lift takes a rank-3 tensor")
    lifted = sym_outer(s, s)
    det = engine.epsilon_determinant(lifted)
    if s.dim != 2:
        return OddLiftResult(lifted, det)
    disc = cubic_discriminant(s)
    ratio = det / disc if disc else None
    return OddLiftResult(lifted, det, disc, ratio)


def discriminant_partials(s: SymTensor) -> dict:
    """Canonical derivatives of the cubic discriminant, one per stored
    key: each is the key's multiplicity times the formal derivative."""
    a = s.component((0, 0, 0))
    b = s.component((0, 0, 1))
    c = s.component((0, 1, 1))
    d = s.component((1, 1, 1))
    return {
        (0, 0, 0): 2 * a * d * d - 6 * b * c * d + 4 * c ** 3,
        (0, 0, 1): -6 * a * c * d + 12 * b * b * d - 6 * b * c * c,
        (0, 1, 1): -6 * a * b * d + 12 * a * c * c - 6 * b * b * c,
        (1, 1, 1): 2 * d * a * a - 6 * a * b * c + 4 * b ** 3,
    }


def inverse_odd_d2(s: SymTensor) -> SymTensor:
    """Closed-form contravariant inverse of a binary cubic tensor.

    Components (with disc the cubic discriminant):
        inv^000 = (s000 s111^2 + 2 s011^3 - 3 s001 s011 s111) / disc
        inv^001 = (2 s111 s001^2 - s000 s011 s111 - s001 s011^2) / disc
    and the 0 <-> 1 mirror images for the other two.
    """
    if s.rank != 3 or s.dim != 2:
        raise ValueError("the closed-form inverse covers rank 3 in two dimensions")
    disc = cubic_discriminant(s)
    if disc == 0:
        raise SingularTensorError("cubic discriminant is zero; no inverse")
    a = s.component((0, 0, 0))
    b = s.component((0, 0, 1))
    c = s.component((0, 1, 1))
    d = s.component((1, 1, 1))
    entries = {
        (0, 0, 0): (a * d * d + 2 * c ** 3 - 3 * b * c * d) / disc,
        (0, 0, 1): (2 * d * b * b - a * c * d - b * c * c) / disc,
        (0, 1, 1): (2 * a * c * c - d * b * a - c * b * b) / disc,
        (1, 1, 1): (d * a * a + 2 * b ** 3 - 3 * c * b * a) / disc,
    }
    return SymTensor(3, 2, {k: v for k, v in entries.items() if v})


def inverse_odd_d2_gradient(s: SymTensor) -> SymTensor:
    """Inverse via the derivative route: formal gradient of the cubic
    discriminant over twice its value.

    The canonical derivative of the discriminant divides by the key's
    multiplicity to give the formal per-component derivative; this is
    where the mixed-index factor 1/3 enters.
    """
    if s.rank != 3 or s.dim != 2:
        raise ValueError("the derivative route covers rank 3 in two dimensions")
    disc = cubic_discriminant(s)
    if disc == 0:
        raise SingularTensorError("cubic discriminant is zero; no inverse")
    entries = {}
    for key, partial in discriminant_partials(s).items():
        value = partial / multiplicity(key) / (2 * disc)
        if value:
            entries[key] = value
    return SymTensor(3, 2, entries)


def lift_gradient_candidate(s: SymTensor) -> SymTensor:
    """Inverse candidate for any dimension: formal gradient of det(lift)
    over twice its value, obtained by the chain rule through the lift.

    With G the slot-freed gradient of det(lift) over (d-1)!, the lift's
    derivative in the direction of a key k contracts G against 2 s, so
    the candidate is one partial contraction of G with s,

        candidate[k] = sum over canonical i of
                       multiplicity(i) * G[sort(i + k)] * s[i] / det.

    The determinant is computed on its own, not recovered from G by
    Euler's identity, which would make the trace of the reported
    contraction equal d by construction.

    In two dimensions this equals the closed-form inverse exactly (the
    proportionality constant cancels). For d > 2 the defining contraction
    is underdetermined and the candidate is only reported, never asserted.
    """
    if s.rank != 3:
        raise ValueError("the candidate is built from a rank-3 tensor")
    d = s.dim
    lifted = sym_outer(s, s)
    det = engine.epsilon_determinant(lifted)
    if det == 0:
        raise SingularTensorError("lift determinant is zero; no candidate")
    grad = engine.epsilon_product_gradient([lifted] * d, 0).entries
    weighted = [(i, multiplicity(i) * v) for i, v in s.entries.items()]
    norm = math.factorial(d - 1) * det
    entries = {}
    for key in canonical_keys(3, d):
        total = sum(weight * grad.get(canonical_key(i + key), 0)
                    for i, weight in weighted)
        if total:
            entries[key] = total / norm
    return SymTensor(3, d, entries)


def verify_proportionality(samples: int, seed: int,
                           bound: int = 9) -> VerificationReport:
    """Check that det(lift(s)) / cubic_discriminant(s) is one and the same
    exact rational across seeded random binary cubics, and record it.

    Degenerate samples (zero discriminant) assert a zero determinant
    instead and do not contribute a ratio.
    """
    report = VerificationReport("odd-rank-proportionality")
    formula = "det(lift(s)) == ratio * cubic_discriminant(s)"
    ratios = set()
    degenerate = 0
    for k in range(samples):
        sample_seed = derive_seed(seed, k)
        s = random_symmetric(3, 2, sample_seed, bound)
        result = lift(s)
        if result.cubic_disc == 0:
            degenerate += 1
            report.checks.append(check(
                "proportionality_degenerate",
                "cubic_discriminant == 0 implies det(lift) == 0",
                result.det, sample_seed))
            continue
        ratios.add(result.ratio)
        residual = result.det - CUBIC_LIFT_RATIO * result.cubic_disc
        report.checks.append(check("proportionality", formula,
                                   residual, sample_seed))
    if degenerate == samples:
        raise ValueError("all samples were degenerate; nothing to compare")
    report.checks.append(check(
        "proportionality_constant_unique",
        "a single exact ratio across all non-degenerate samples",
        Fraction(0) if len(ratios) == 1 else Fraction(1), seed))
    if len(ratios) == 1:
        report.notes["ratio"] = format_scalar(next(iter(ratios)))
    return report


def verify_inverse_d2(s: SymTensor, seed: int | None = None) -> VerificationReport:
    """Check the two inverse routes against each other and the defining
    contraction against the unit matrix."""
    report = VerificationReport("odd-rank-inverse")
    closed = inverse_odd_d2(s)
    via_gradient = inverse_odd_d2_gradient(s)
    report.checks.append(check(
        "inverse_two_routes",
        "closed-form inverse == discriminant-gradient inverse",
        closed - via_gradient, seed))
    residual = invariants.identity_residual(contract_one_free(closed, s))
    report.checks.append(check(
        "inverse_contraction",
        "inv[(i,)+k] * s[(j,)+k] summed over k == delta", residual, seed))
    return report


def report_candidate_inverse(s: SymTensor,
                             seed: int | None = None) -> VerificationReport:
    """Evaluate the gradient candidate's defining contraction for d > 2
    and record the residual without asserting it."""
    report = VerificationReport("odd-rank-candidate")
    try:
        candidate = lift_gradient_candidate(s)
        residual = invariants.identity_residual(contract_one_free(candidate, s))
    except SingularTensorError:
        residual = Fraction(0)
        report.notes["candidate"] = "degenerate sample, lift determinant zero"
    report.checks.append(check(
        "candidate_inverse_contraction",
        "gradient candidate contracted against the tensor vs delta",
        residual, seed, asserted=False))
    return report
