"""Seeded identity suites behind the `verify` command.

Every suite draws its tensors from the deterministic generator, so a
(suite, dim, seed, samples) tuple fully determines the report.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import engine, evenrank, invariants, oddrank, rank2
from .report import VerificationReport, check
from .tensor import (SymTensor, contract_one_free, derive_seed,
                     random_symmetric)

BOUND = 7

SUITE_DIMS = {"rank2": (2, 3, 4), "rank4": (2, 3), "odd": (2, 3)}

# a sample at the largest supported dimension takes tens of milliseconds,
# so this many stay within about a minute
MAX_SAMPLES = 1000

MAX_ATTEMPTS = 64


def random_invertible(rank: int, dim: int, seed: int, bound: int = BOUND) -> SymTensor:
    """First tensor with nonzero determinant along a seed-derived chain of
    at most MAX_ATTEMPTS draws."""
    for attempt in range(MAX_ATTEMPTS):
        tensor = random_symmetric(
            rank, dim, seed if attempt == 0 else derive_seed(seed, attempt), bound)
        if engine.epsilon_determinant(tensor) != 0:
            return tensor
    raise ValueError(
        f"no invertible tensor of rank {rank}, dim {dim} in {MAX_ATTEMPTS} "
        f"draws from seed {seed}")


def rank2_suite(dim: int, seed: int, samples: int) -> VerificationReport:
    report = VerificationReport(f"rank2 d={dim}")
    unit = rank2.unit_metric(dim)
    for k in range(samples):
        with engine.shared_sums():
            sample_seed = derive_seed(seed, k)
            a = random_invertible(2, dim, sample_seed)
            g = random_invertible(2, dim, derive_seed(sample_seed, 101))
            metric = rank2.metric_inverse(g)

            trace_route = tuple(rank2.discriminants_trace(a, metric))
            epsilon_route = invariants.invariant_values(a, metric.g, metric.g_det)
            bridge = max(abs(x - y) for x, y in zip(trace_route, epsilon_route))
            report.checks.append(check(
                "trace_epsilon_bridge",
                "Newton relations over metric power traces == signed contractions",
                bridge, sample_seed))

            report.checks.append(check(
                "determinant_ratio", "c_d * det(g) == det(a)",
                epsilon_route[dim] * metric.g_det - engine.epsilon_determinant(a),
                sample_seed))

            inverse = engine.epsilon_inverse(a)
            report.checks.append(check(
                "inverse_contraction",
                "inv[(i,)+k] * a[(j,)+k] summed over k == delta",
                invariants.identity_residual(contract_one_free(inverse, a)),
                sample_seed))

            det_route = inverse
            grad_route = invariants.grad_tensor(a, metric.g, dim, metric.g_det) * (
                Fraction(1) / epsilon_route[dim])
            report.checks.append(check(
                "inverse_two_routes",
                "determinant-gradient inverse == invariant-gradient inverse",
                det_route - grad_route, sample_seed))

            report.extend(rank2.verify_recurrence2(a, metric, sample_seed))
            for row in rank2.verify_recurrence2(a, unit, sample_seed).checks:
                row.identity += "_unit_metric"
                report.checks.append(row)

            for s in range(dim):
                report.checks.append(check(
                    f"metric_derivative_bridge_order_{s}",
                    "d(det(g) c_s)/dg == d(det(g) c_{s+1})/da",
                    invariants.metric_derivative_bridge_residual(a, metric.g, s),
                    sample_seed))

            for point in (Fraction(2), Fraction(-1), Fraction(7, 3)):
                report.checks.append(check(
                    "char_poly_evaluation",
                    "c_d of (a - t*g) == characteristic polynomial at t",
                    invariants.characteristic_residual_at(a, metric.g, point),
                    sample_seed))

            lam = Fraction(3, 2)
            scaled_a = invariants.invariant_values(a * lam, metric.g, metric.g_det)
            scaled_g = invariants.invariant_values(a, g * lam)
            scale_residual = max(
                max(abs(scaled_a[s] - lam ** s * epsilon_route[s])
                    for s in range(dim + 1)),
                max(abs(scaled_g[s] - lam ** -s * epsilon_route[s])
                    for s in range(dim + 1)))
            report.checks.append(check(
                "scaling", "c_s of t*a == t^s c_s; c_s against t*g == t^-s c_s",
                scale_residual, sample_seed))

            self_metric = rank2.metric_inverse(a)
            collapse = rank2.verify_recurrence2(a, self_metric, sample_seed)
            report.checks.append(check(
                "self_metric_collapse",
                "with g == a every recurrence row reduces to 0 == 0",
                Fraction(0) if collapse.all_pass else Fraction(1), sample_seed))

            report.checks.append(check(
                "order_above_dimension", "c_s == 0 for s > d",
                invariants.invariant_of_order(a, metric.g, dim + 1, metric.g_det),
                sample_seed))
    return report


def rank4_suite(dim: int, seed: int, samples: int) -> VerificationReport:
    report = VerificationReport(f"rank4 d={dim}")
    for k in range(samples):
        with engine.shared_sums():
            sample_seed = derive_seed(seed, k)
            a = random_invertible(4, dim, sample_seed)
            g = random_invertible(4, dim, derive_seed(sample_seed, 101))

            det_a = engine.epsilon_determinant(a)
            values = invariants.invariant_values(a, g)
            report.checks.append(check(
                "determinant_ratio", "C_d == det(A) / det(G)",
                values[dim] - det_a / engine.epsilon_determinant(g), sample_seed))

            self_values = invariants.invariant_values(a, a)
            binomial_residual = max(abs(self_values[s] - math.comb(dim, s))
                                    for s in range(dim + 1))
            report.checks.append(check(
                "binomial_self_metric", "C_s of (A; A) == C(d, s)",
                binomial_residual, sample_seed))

            inverse = engine.epsilon_inverse(a)
            contraction = invariants.identity_residual(contract_one_free(inverse, a))
            if dim <= 2 or contraction == 0:
                report.checks.append(check(
                    "inverse_contraction",
                    "inv[(i,)+k] * A[(j,)+k] summed over k == delta",
                    contraction, sample_seed))
            else:
                # beyond d=2 the contraction is an open claim: escalate instead
                # of failing if it ever misses
                report.checks.append(check(
                    "inverse_contraction_open_claim",
                    "inv[(i,)+k] * A[(j,)+k] summed over k == delta",
                    contraction, sample_seed, asserted=False))

            report.extend(evenrank.verify_recurrence_even(a, g, sample_seed))

            if dim == 2:
                report.extend(evenrank.verify_poly_identity_d2(a, g, sample_seed))
                report.extend(evenrank.verify_poly_identity_d2(a, a, sample_seed))

            for point in (Fraction(3), Fraction(-2, 5)):
                report.checks.append(check(
                    "char_poly_evaluation",
                    "C_d of (A - t*G) == characteristic polynomial at t",
                    invariants.characteristic_residual_at(a, g, point), sample_seed))

            if dim <= 3:
                report.checks.append(check(
                    "cayley_det_match",
                    "row-product determinant == signed-contraction determinant",
                    evenrank.cayley_det(a) - det_a, sample_seed))

            report.checks.append(check(
                "order_above_dimension", "C_s == 0 for s > d",
                invariants.invariant_of_order(a, g, dim + 1), sample_seed))

            lam = Fraction(5, 2)
            scaled = invariants.invariant_values(a * lam, g)
            scale_residual = max(abs(scaled[s] - lam ** s * values[s])
                                 for s in range(dim + 1))
            report.checks.append(check(
                "scaling", "C_s of t*A == t^s C_s(A)", scale_residual, sample_seed))
    return report


def odd_suite(dim: int, seed: int, samples: int) -> VerificationReport:
    report = VerificationReport(f"odd d={dim}")
    for k in range(samples):
        with engine.shared_sums():
            sample_seed = derive_seed(seed, k)
            s = random_symmetric(3, dim, sample_seed, BOUND)
            report.extend(oddrank.verify_odd_rank_vanishing(s, sample_seed))
            if dim == 2:
                result = oddrank.lift(s)
                if result.cubic_disc != 0:
                    report.extend(oddrank.verify_inverse_d2(s, sample_seed))
                    partials = oddrank.discriminant_partials(s)
                    closed = oddrank.inverse_odd_d2(s)
                    factor_residual = (
                        partials[(0, 0, 1)]
                        - 3 * (2 * result.cubic_disc * closed.component((0, 0, 1))))
                    report.checks.append(check(
                        "derivative_multiplicity_factor",
                        "canonical derivative == orbit size * formal derivative",
                        factor_residual, sample_seed))
                lam = Fraction(2)
                scale_residual = (oddrank.lift(s * lam).det
                                  - lam ** (2 * dim) * result.det)
                report.checks.append(check(
                    "lift_scaling", "det(lift(t*s)) == t^(2d) det(lift(s))",
                    scale_residual, sample_seed))
            else:
                report.extend(oddrank.report_candidate_inverse(s, sample_seed))
    if dim == 2:
        report.extend(oddrank.verify_proportionality(samples, seed, BOUND))
    return report


SUITES = {"rank2": rank2_suite, "rank4": rank4_suite, "odd": odd_suite}


def run_suite(name: str, dim: int, seed: int, samples: int) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if dim not in SUITE_DIMS[name]:
        raise ValueError(
            f"suite {name!r} supports dimensions {SUITE_DIMS[name]}: the "
            f"permutation sum grows as (d!)^r and dimension {dim} is out of budget")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_SAMPLES}, got {samples}")
    return SUITES[name](dim, seed, samples)
