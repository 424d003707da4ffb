"""Seeded identity suites behind the `verify` command.

Every suite draws its tensors from the deterministic generator, so a
(suite, dim, seed, samples) tuple fully determines the report.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import engine, evenrank, invariants, oddrank, rank2
from .report import VerificationReport, check
from .tensor import (SymTensor, contract_one_free, derive_seed, identity,
                     random_symmetric)

BOUND = 7

SUITE_DIMS = {"rank2": (2, 3, 4), "rank4": (2, 3), "odd": (2, 3)}

# a warm sample takes about 4-4.5 ms at rank2 d=4 and 1.8-2 ms at rank4 d=3
# (2-vCPU Xeon, Python 3.11), so this many take about 4.3 s and 1.9 s
MAX_SAMPLES = 1000

MAX_ATTEMPTS = 64


def random_invertible(rank: int, dim: int, seed: int) -> SymTensor:
    """First tensor with nonzero determinant along a seed-derived chain of
    at most MAX_ATTEMPTS draws."""
    for attempt in range(MAX_ATTEMPTS):
        tensor = random_symmetric(
            rank, dim, seed if attempt == 0 else derive_seed(seed, attempt), BOUND)
        if engine.epsilon_determinant(tensor) != 0:
            return tensor
    raise ValueError(
        f"no invertible tensor of rank {rank}, dim {dim} in {MAX_ATTEMPTS} "
        f"draws from seed {seed}")


def rank2_suite(dim: int, seed: int, samples: int) -> VerificationReport:
    report = VerificationReport(f"rank2 d={dim}")
    unit = identity(dim)
    for k in range(samples):
        with engine.shared_sums():
            sample_seed = derive_seed(seed, k)
            a = random_invertible(2, dim, sample_seed)
            g = random_invertible(2, dim, derive_seed(sample_seed, 101))

            # the invariants first: on a polarized shape their pair's sums
            # let the trace route read inv(g) from the pair's packed gradients
            epsilon_route = invariants.invariant_values(a, g)
            trace_route = rank2.discriminants_trace(a, g)
            bridge = max(abs(x - y) for x, y in zip(trace_route, epsilon_route))
            report.checks.append(check(
                "trace_epsilon_bridge",
                "Newton relations over metric power traces == signed contractions",
                bridge, sample_seed))

            # det(a) by the full sum, so the row compares the row plan
            # behind c_d with the full plan
            report.checks.append(check(
                "determinant_ratio", "c_d * det(g) == det(a)",
                epsilon_route[dim] * engine.epsilon_determinant(g)
                - engine.epsilon_product([a] * dim) / math.factorial(dim),
                sample_seed))

            inverse = engine.epsilon_inverse(a)
            report.checks.append(check(
                "inverse_contraction",
                "inv[(i,)+k] * a[(j,)+k] summed over k == delta",
                invariants.identity_residual(contract_one_free(inverse, a)),
                sample_seed))

            det_route = inverse
            grad_route = invariants.grad_tensor(a, g, dim) * (
                Fraction(1) / epsilon_route[dim])
            report.checks.append(check(
                "inverse_two_routes",
                "determinant-gradient inverse == invariant-gradient inverse",
                det_route - grad_route, sample_seed))

            report.extend(rank2.verify_recurrence2(a, g, sample_seed))
            for row in rank2.verify_recurrence2(a, unit, sample_seed).checks:
                report.checks.append(
                    row._replace(identity=row.identity + "_unit_metric"))

            for s in range(dim):
                report.checks.append(check(
                    f"metric_derivative_bridge_order_{s}",
                    "d(det(g) c_s)/dg == d(det(g) c_{s+1})/da",
                    invariants.metric_derivative_bridge_residual(a, g, s),
                    sample_seed))

            for point in (Fraction(2), Fraction(-1), Fraction(7, 3)):
                report.checks.append(check(
                    "char_poly_evaluation",
                    "c_d of (a - t*g) == characteristic polynomial at t",
                    invariants.characteristic_residual_at(a, g, point),
                    sample_seed))

            lam = Fraction(3, 2)
            scaled_a = invariants.invariant_values(a * lam, g)
            scaled_g = invariants.invariant_values(a, g * lam)
            scale_residual = max(
                max(abs(scaled_a[s] - lam ** s * epsilon_route[s])
                    for s in range(dim + 1)),
                max(abs(scaled_g[s] - lam ** -s * epsilon_route[s])
                    for s in range(dim + 1)))
            report.checks.append(check(
                "scaling", "c_s of t*a == t^s c_s; c_s against t*g == t^-s c_s",
                scale_residual, sample_seed))

            collapse = rank2.verify_recurrence2(a, a, sample_seed)
            report.checks.append(check(
                "self_metric_collapse",
                "with g == a every recurrence row reduces to 0 == 0",
                Fraction(0) if collapse.all_pass else Fraction(1), sample_seed))

            report.checks.append(check(
                "order_above_dimension", "c_s == 0 for s > d",
                invariants.invariant_of_order(a, g, dim + 1),
                sample_seed))
    return report


def rank4_suite(dim: int, seed: int, samples: int) -> VerificationReport:
    report = VerificationReport(f"rank4 d={dim}")
    for k in range(samples):
        with engine.shared_sums():
            sample_seed = derive_seed(seed, k)
            a = random_invertible(4, dim, sample_seed)
            g = random_invertible(4, dim, derive_seed(sample_seed, 101))

            # det(A) by the full sum: C_d and the row-product determinant
            # both read the row plan
            det_a = engine.epsilon_product([a] * dim) / math.factorial(dim)
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

            # delta for every even rank and dimension; the proof is in
            # engine.epsilon_inverse
            report.checks.append(check(
                "inverse_contraction",
                "inv[(i,)+k] * A[(j,)+k] summed over k == delta",
                invariants.identity_residual(
                    contract_one_free(engine.epsilon_inverse(a), a)),
                sample_seed))

            report.extend(evenrank.verify_recurrence_even(a, g, sample_seed))

            if dim == 2:
                report.extend(evenrank.verify_poly_identity_d2(a, g, sample_seed))
                report.extend(evenrank.verify_poly_identity_d2(a, a, sample_seed))

            for point in (Fraction(3), Fraction(-2, 5)):
                report.checks.append(check(
                    "char_poly_evaluation",
                    "C_d of (A - t*G) == characteristic polynomial at t",
                    invariants.characteristic_residual_at(a, g, point), sample_seed))

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
    dims = SUITE_DIMS[name]
    if dim > max(dims):
        raise ValueError(
            f"suite {name!r} supports dimensions {dims}: the "
            f"permutation sum grows as (d!)^r and dimension {dim} is out of budget")
    if dim not in dims:
        raise ValueError(f"suite {name!r} supports dimensions {dims}, not {dim}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_SAMPLES}, got {samples}")
    return SUITES[name](dim, seed, samples)
