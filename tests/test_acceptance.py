"""Acceptance suite: every criterion runs at its stated (exact) tolerance
and prints one pass line. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings."""

import math
import time
from fractions import Fraction

from hypermat import (CUBIC_LIFT_RATIO, SymTensor, contract_one_free,
                      coset_restricted_product_counted, cubic_discriminant,
                      derive_seed, discriminants_trace, epsilon_determinant,
                      epsilon_inverse, epsilon_product, identity,
                      invariant_values, inverse_odd_d2,
                      inverse_odd_d2_gradient, lift, multiplicity,
                      newton_elementary_from_power,
                      quadratic_identity_residual, random_symmetric,
                      self_identity_residual, sym_outer,
                      verify_recurrence_even, verify_recurrence2)
from hypermat import invariants, oddrank
from hypermat.invariants import identity_residual
from hypermat.tensor import canonical_keys

import oracles


def _stamp(number, limit, started, label):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.2f}s / limit {limit}s) - {label}")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def invertible(rank, dim, seed, bound=7):
    for attempt in range(64):
        t = random_symmetric(rank, dim, seed if attempt == 0 else
                             derive_seed(seed, attempt), bound)
        if epsilon_determinant(t) != 0:
            return t
    raise AssertionError("no invertible sample in the chain")


def test_criterion_01_fourth_rank_determinant_closed_form():
    started = time.perf_counter()
    for seed in range(50):
        a = random_symmetric(4, 2, derive_seed(1000, seed), 9)
        closed = (a.component((0, 0, 0, 0)) * a.component((1, 1, 1, 1))
                  - 4 * a.component((0, 0, 0, 1)) * a.component((0, 1, 1, 1))
                  + 3 * a.component((0, 0, 1, 1)) ** 2)
        assert epsilon_determinant(a) == closed
    _stamp(1, 1, started, "fourth-rank d=2 determinant closed form, 50 seeds")


def test_criterion_02_inverse_components_and_contraction():
    started = time.perf_counter()
    for seed in range(50):
        a = invertible(4, 2, derive_seed(2000, seed))
        det = epsilon_determinant(a)
        inv = epsilon_inverse(a)
        assert inv.component((0, 0, 0, 0)) == a.component((1, 1, 1, 1)) / det
        assert inv.component((0, 0, 0, 1)) == -a.component((0, 1, 1, 1)) / det
        assert inv.component((0, 0, 1, 1)) == a.component((0, 0, 1, 1)) / det
        assert identity_residual(contract_one_free(inv, a)) == 0
    for seed in range(10):
        a = invertible(4, 3, derive_seed(2100, seed), 5)
        inv = epsilon_inverse(a)
        assert identity_residual(contract_one_free(inv, a)) == 0
    _stamp(2, 30, started,
           "fourth-rank inverse closed forms (d=2, 50 seeds) and "
           "delta contraction (d=3, 10 seeds)")


def test_criterion_03_trace_epsilon_bridge():
    started = time.perf_counter()
    for dim in (2, 3, 4):
        for seed in range(25):
            a = random_symmetric(2, dim, derive_seed(3000 + dim, seed), 7)
            g = invertible(2, dim, derive_seed(3500 + dim, seed))
            trace_route = tuple(discriminants_trace(a, g))
            epsilon_route = invariant_values(a, g)
            assert trace_route == epsilon_route
            assert epsilon_route[dim] * epsilon_determinant(g) == epsilon_determinant(a)
    _stamp(3, 10, started,
           "trace and contraction invariants agree, d in {2,3,4}, 25 seeds each")


def test_criterion_04_newton_closed_forms():
    started = time.perf_counter()
    for seed in range(25):
        stream = random_symmetric(1, 6, derive_seed(4000, seed), 9)
        q = [stream.component((i,)) for i in range(6)]
        p = newton_elementary_from_power(q)
        assert tuple(p[2:7]) == oracles.newton_closed_forms(q)
    _stamp(4, 1, started, "Newton recursion reproduces the printed closed "
                          "forms through order six, 25 seeds")


def test_criterion_05_rank2_recurrence_and_cayley_hamilton():
    started = time.perf_counter()
    for dim in (2, 3, 4):
        unit = identity(dim)
        for seed in range(25):
            a = random_symmetric(2, dim, derive_seed(5000 + dim, seed), 7)
            g = invertible(2, dim, derive_seed(5500 + dim, seed))
            for metric in (unit, g):
                report = verify_recurrence2(a, metric)
                assert report.all_pass
                assert all(c.residual == "0" for c in report.checks)
    _stamp(5, 10, started,
           "rank-2 recurrence, Cayley-Hamilton and matrix polynomial rows, "
           "unit and random metrics, d in {2,3,4}, 25 seeds")


def test_criterion_06_fourth_rank_recurrence_and_cayley_hamilton():
    started = time.perf_counter()
    for dim in (2, 3):
        for seed in range(10):
            a = random_symmetric(4, dim, derive_seed(6000 + dim, seed), 5)
            g = invertible(4, dim, derive_seed(6500 + dim, seed), 5)
            report = verify_recurrence_even(a, g)
            assert report.all_pass
            assert all(c.residual == "0" for c in report.checks)
    _stamp(6, 60, started,
           "fourth-rank recurrence and Cayley-Hamilton rows, d in {2,3}, 10 seeds")


def test_criterion_07_two_dimensional_polynomial_identities():
    started = time.perf_counter()
    for seed in range(25):
        a = random_symmetric(4, 2, derive_seed(7000, seed), 7)
        g = invertible(4, 2, derive_seed(7500, seed))
        assert quadratic_identity_residual(a, g).is_zero()
    for seed in range(25):
        a = invertible(4, 2, derive_seed(7700, seed))
        assert self_identity_residual(a).is_zero()
    _stamp(7, 5, started,
           "d=2 polynomial identity for 25 random pairs and 25 self-metric cases")


def test_criterion_08_odd_rank_vanishing():
    started = time.perf_counter()
    for dim in (2, 3, 4):
        for seed in range(25):
            s = random_symmetric(3, dim, derive_seed(8000 + dim, seed), 7)
            assert epsilon_product([s] * dim) == 0
    _stamp(8, 20, started,
           "odd-rank signed contraction vanishes, d in {2,3,4}, 25 seeds each")


def test_criterion_09_cubic_inverse_routes():
    started = time.perf_counter()
    factor_checked = False
    for seed in range(25):
        s = random_symmetric(3, 2, derive_seed(9000, seed), 7)
        if cubic_discriminant(s) == 0:
            continue
        closed = inverse_odd_d2(s)
        assert closed == inverse_odd_d2_gradient(s)
        assert identity_residual(contract_one_free(closed, s)) == 0
        disc = cubic_discriminant(s)
        partials = oddrank.discriminant_partials(s)
        assert partials[(0, 0, 1)] == \
            multiplicity((0, 0, 1)) * (2 * disc * closed.component((0, 0, 1)))
        factor_checked = True
    assert factor_checked
    _stamp(9, 2, started,
           "cubic inverse: closed form == derivative route, delta "
           "contraction, and the mixed-component factor 3, 25 seeds")


def test_criterion_10_lift_proportionality():
    started = time.perf_counter()
    ratios = set()
    checked = 0
    for seed in range(40):
        if checked >= 25:
            break
        s = random_symmetric(3, 2, derive_seed(10_000, seed), 7)
        result = lift(s)
        if result.cubic_disc == 0:
            assert result.det == 0
            continue
        assert result.det == CUBIC_LIFT_RATIO * result.cubic_disc
        ratios.add(result.ratio)
        checked += 1
    assert checked >= 25
    assert ratios == {CUBIC_LIFT_RATIO}
    # symmetrization weights of the lift, fixed by direct enumeration:
    # 15 arrangements give (6, 9)/15 and 20 arrangements give (2, 18)/20
    mixed = SymTensor.from_entries(3, 2, {(0, 0, 0): 1, (0, 1, 1): 1})
    assert sym_outer(mixed, mixed).component((0, 0, 0, 0, 1, 1)) == Fraction(2, 5)
    corners = SymTensor.from_entries(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
    assert sym_outer(corners, corners).component((0, 0, 0, 1, 1, 1)) == Fraction(1, 10)
    _stamp(10, 5, started,
           "det(lift) == 9/10 * cubic discriminant across 25 seeds; "
           "lift coefficients 1/5 and 1/10 reproduced")


def test_criterion_11_floating_gradient_oracle():
    started = time.perf_counter()

    def check_gradients(rank, dim, seed_base):
        a = random_symmetric(rank, dim, derive_seed(seed_base, 0), 5)
        g = invertible(rank, dim, derive_seed(seed_base, 1), 5)
        det_g = epsilon_determinant(g)
        for s in range(1, dim + 1):
            grad_a = invariants.grad_tensor(a, g, s)
            grad_g = invariants.grad_metric(a, g, s)

            def numerator(metric):
                # the invariant times det(metric): a polynomial of degree d-s
                value = coset_restricted_product_counted(
                    [a] * s + [metric] * (dim - s), s)[0]
                return value / (math.factorial(s) * math.factorial(dim - s))

            for key in canonical_keys(rank, dim):
                direction = oracles.basis_direction(rank, dim, key)
                mu = multiplicity(key)
                d_tensor = oracles.directional_derivative(
                    lambda t: invariants.invariant_of_order(t, g, s),
                    a, direction, s)
                assert d_tensor == mu * grad_a.component(key)
                # the invariant is rational in the metric: quotient rule
                # over two exact polynomial derivatives
                d_num = oracles.directional_derivative(
                    numerator, g, direction, max(dim - s, 1))
                d_det = oracles.directional_derivative(
                    epsilon_determinant, g, direction, dim)
                quotient = (d_num * det_g - numerator(g) * d_det) / det_g ** 2
                assert quotient == mu * grad_g.component(key)

    for seed in range(10):
        check_gradients(2, 3, 11_000 + 7 * seed)
        check_gradients(4, 2, 11_500 + 7 * seed)
    _stamp(11, 5, started,
           "analytic gradients equal exact Newton-difference directional "
           "derivatives, rank 2 d=3 and rank 4 d=2, 10 seeds")


def test_criterion_12_coset_restriction_term_budget():
    started = time.perf_counter()
    a = random_symmetric(4, 3, 12_000, 5)
    g = random_symmetric(4, 3, 12_001, 5)
    full_terms = math.factorial(3) ** 4
    for split in (0, 1, 2, 3):
        factors = [a] * split + [g] * (3 - split)
        value, count = coset_restricted_product_counted(factors, split)
        assert value == epsilon_product(factors)
        budget = math.comb(3, split) * math.factorial(3) ** 3
        assert count == budget
        assert count <= budget < full_terms + 1
        if split in (1, 2):
            assert count < full_terms
    # one tensor in both blocks: the kernel merges the lead states into
    # one, and the count still covers every coset representative
    for rank, dim, split in ((2, 4, 2), (4, 3, 1)):
        factors = [random_symmetric(rank, dim, 12_002, 5)] * dim
        value, count = coset_restricted_product_counted(factors, split)
        assert value == epsilon_product(factors)
        assert count == math.comb(dim, split) * math.factorial(dim) ** (rank - 1)
    _stamp(12, 10, started,
           "coset restriction equals the full sum while enumerating at most "
           "C(d,s)*(d!)^(r-1) terms at d=3, r=4, and with one tensor in both "
           "blocks at r=2, d=4 and r=4, d=3")
