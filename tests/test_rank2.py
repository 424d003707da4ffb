"""Rank-2 layer: metric algebra, Newton relations, both discriminant
routes, determinants, inverses, characteristic polynomials and the
recurrence checks."""

import math
from fractions import Fraction

import pytest

from hypermat import (SingularTensorError, SymTensor,
                      characteristic_coefficients, contract_one_free,
                      discriminants_trace, epsilon_determinant,
                      epsilon_inverse, from_matrix, g_product, g_trace,
                      identity, invariant_values, metric_inverse,
                      newton_elementary_from_power, power_sums,
                      random_symmetric, unit_metric, verify_recurrence2)
from hypermat import invariants, rank2
from hypermat.invariants import identity_residual

import oracles

A_HAND = from_matrix([[2, 1], [1, 3]])


def random_invertible_2(dim, seed, bound=7):
    from hypermat import derive_seed, epsilon_determinant
    for attempt in range(50):
        t = random_symmetric(2, dim, seed if attempt == 0 else
                             derive_seed(seed, attempt), bound)
        if epsilon_determinant(t) != 0:
            return t
    raise AssertionError("no invertible sample found")


class TestMetricInverse:
    def test_unit(self):
        m = metric_inverse(identity(3))
        assert m.g_inv == identity(3)
        assert m.g_det == 1

    def test_hand_adjugate(self):
        m = metric_inverse(A_HAND)
        assert m.g_det == 5
        assert m.g_inv == from_matrix([["3/5", "-1/5"], ["-1/5", "2/5"]])

    def test_singular(self):
        with pytest.raises(SingularTensorError):
            metric_inverse(from_matrix([[1, 1], [1, 1]]))

    def test_inverse_contracts_to_delta(self):
        g = random_invertible_2(3, 17)
        m = metric_inverse(g)
        assert identity_residual(contract_one_free(m.g_inv, g)) == 0


class TestMetricAlgebra:
    def test_metric_is_the_unit(self):
        g = random_invertible_2(2, 23)
        m = metric_inverse(g)
        a = random_symmetric(2, 2, 24, 7)
        assert g_product(a, g, m) == a
        assert g_product(g, a, m) == a

    def test_hand_square(self):
        m = unit_metric(2)
        assert g_product(A_HAND, A_HAND, m) == from_matrix([[5, 5], [5, 10]])

    def test_zero(self):
        m = unit_metric(2)
        z = SymTensor.zero(2, 2)
        assert g_product(z, A_HAND, m).is_zero()
        assert g_trace(z, m) == 0

    def test_trace(self):
        m = unit_metric(2)
        assert g_trace(A_HAND, m) == 5
        g = random_invertible_2(3, 25)
        assert g_trace(g, metric_inverse(g)) == 3

    def test_power_sums_hand(self):
        m = unit_metric(2)
        assert power_sums(A_HAND, m, 2) == [2, 5, 15]

    def test_power_sums_unit(self):
        m = unit_metric(2)
        assert power_sums(identity(2), m, 4) == [2, 2, 2, 2, 2]

    def test_power_sums_zero(self):
        m = unit_metric(3)
        sums = power_sums(SymTensor.zero(2, 3), m, 3)
        assert sums[0] == 3 and all(q == 0 for q in sums[1:])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_power_sums_against_dense_oracle(self, dim):
        # plain matrix products of g^-1 a, no symmetrized storage involved
        a = random_symmetric(2, dim, 26 + dim, 7)
        g = random_invertible_2(dim, 28 + dim)
        m = metric_inverse(g)
        mixed = oracles.mat_mul(oracles.to_dense_matrix(m.g_inv),
                                oracles.to_dense_matrix(a))
        power = [[Fraction(i == j) for j in range(dim)] for i in range(dim)]
        expected = [Fraction(dim)]
        for _ in range(4):
            power = oracles.mat_mul(power, mixed)
            expected.append(oracles.mat_trace(power))
        assert power_sums(a, m, 4) == expected


def _symmetrized_oracle_product(a, ginv, b):
    """sym(A G^-1 B) by plain dense products, and the raw product."""
    raw = oracles.mat_mul(oracles.mat_mul(oracles.to_dense_matrix(a),
                                          oracles.to_dense_matrix(ginv)),
                          oracles.to_dense_matrix(b))
    d = len(raw)
    return [[(raw[i][j] + raw[j][i]) / 2 for j in range(d)] for i in range(d)], raw


class TestIntegerMetricProduct:
    # dense, with denominators, and not commuting with each other
    A = from_matrix([["3/2", -2, 5, 1], [-2, 4, "1/3", -7],
                     [5, "1/3", -1, 2], [1, -7, 2, "5/4"]])
    B = from_matrix([[1, 6, -3, "2/5"], [6, -2, 1, 3],
                     [-3, 1, "7/2", -1], ["2/5", 3, -1, 2]])
    # inverse metric with denominators 7, 11 and 13
    G_INV = from_matrix([["1/7", "2/11", "-3/13", 1], ["2/11", "5/7", 2, "1/13"],
                         ["-3/13", 2, "4/11", "-6/7"], [1, "1/13", "-6/7", "9/13"]])

    def metric(self):
        g_inv = self.G_INV
        return rank2.MetricPair(epsilon_inverse(g_inv), g_inv,
                                1 / epsilon_determinant(g_inv))

    def assert_matches_oracle(self, a, b, metric):
        expected, _ = _symmetrized_oracle_product(a, metric.g_inv, b)
        product = g_product(a, b, metric)
        d = a.dim
        for i in range(d):
            for j in range(d):
                value = product.component((i, j))
                assert isinstance(value, Fraction)
                assert value == expected[i][j]

    def test_non_commuting_operands(self):
        metric = self.metric()
        _, raw = _symmetrized_oracle_product(self.A, metric.g_inv, self.B)
        assert raw != [list(row) for row in zip(*raw)]  # the order matters
        assert {v.denominator for v in self.G_INV.entries.values()} >= {7, 11, 13}
        self.assert_matches_oracle(self.A, self.B, metric)
        self.assert_matches_oracle(self.B, self.A, metric)
        self.assert_matches_oracle(self.A, self.A, metric)

    def test_unit_metric_and_random_operands(self):
        for dim in (2, 3, 5):
            a = random_symmetric(2, dim, 60 + dim, 7)
            b = random_symmetric(2, dim, 70 + dim, 7) * Fraction(3, 8)
            self.assert_matches_oracle(a, b, unit_metric(dim))
            g = random_invertible_2(dim, 80 + dim)
            self.assert_matches_oracle(a, b, metric_inverse(g))

    def test_zero_operands(self):
        metric = self.metric()
        zero = SymTensor.zero(2, 4)
        assert g_product(zero, self.B, metric).is_zero()
        assert g_product(self.A, zero, metric).is_zero()
        assert g_product(zero, zero, metric).is_zero()

    def test_float_operand_keeps_float_arithmetic(self):
        metric = self.metric()
        expected, _ = _symmetrized_oracle_product(self.A, metric.g_inv, self.B)
        product = g_product(oracles.to_float(self.A), self.B, metric)
        for (i, j), value in product.entries.items():
            assert isinstance(value, float)
            assert value == pytest.approx(float(expected[i][j]), rel=1e-12)
        assert len(product.entries) == 10

    def test_power_sums_skips_the_product_it_would_not_trace(self, monkeypatch):
        calls = []
        product = rank2.g_product

        def counting(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(rank2, "g_product", counting)
        for max_order in (1, 2, 4):
            calls.clear()
            assert power_sums(A_HAND, unit_metric(2), max_order) == [
                2, 5, 15, 50, 175][:max_order + 1]
            assert len(calls) == max_order - 1


class TestNewton:
    def test_unit_eigenvalues(self):
        assert newton_elementary_from_power([2, 2]) == [1, 2, 1]

    def test_hand_values(self):
        assert newton_elementary_from_power([5, 15]) == [1, 5, 5]

    def test_closed_forms_through_order_six(self):
        for seed in range(6):
            stream = random_symmetric(1, 6, 40 + seed, 9)
            q = [stream.component((i,)) for i in range(6)]
            p = newton_elementary_from_power(q)
            assert tuple(p[2:7]) == oracles.newton_closed_forms(q)


class TestDiscriminants:
    def test_trace_route_hand(self):
        values = tuple(discriminants_trace(A_HAND, unit_metric(2)))
        assert values == (1, 5, 5)

    def test_self_metric_binomials(self):
        g = random_invertible_2(3, 51)
        m = metric_inverse(g)
        assert tuple(discriminants_trace(g, m)) == (1, 3, 3, 1)
        assert invariant_values(g, m.g) == (1, 3, 3, 1)

    def test_zero_tensor(self):
        m = unit_metric(3)
        z = SymTensor.zero(2, 3)
        assert tuple(discriminants_trace(z, m)) == (1, 0, 0, 0)
        assert invariant_values(z, m.g) == (1, 0, 0, 0)

    def test_epsilon_route_hand(self):
        values = invariant_values(A_HAND, identity(2))
        assert values == (1, 5, 5)

    def test_top_invariant_is_leibniz_under_unit_metric(self):
        for dim in (2, 3, 4):
            a = random_symmetric(2, dim, 52 + dim, 7)
            values = invariant_values(a, identity(dim))
            assert values[dim] == oracles.leibniz_det(a)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_routes_agree_with_random_metric(self, dim):
        a = random_symmetric(2, dim, 61 + dim, 7)
        g = random_invertible_2(dim, 65 + dim)
        m = metric_inverse(g)
        assert tuple(discriminants_trace(a, m)) == invariant_values(a, m.g)

    def test_order_above_dimension_vanishes(self):
        a = random_symmetric(2, 3, 70, 7)
        m = metric_inverse(random_invertible_2(3, 71))
        assert invariants.invariant_of_order(a, m.g, 4, m.g_det) == 0
        assert invariants.invariant_of_order(a, m.g, 7, m.g_det) == 0

    def test_determinant_ratio(self):
        a = random_symmetric(2, 3, 72, 7)
        g = random_invertible_2(3, 73)
        m = metric_inverse(g)
        assert invariant_values(a, m.g)[3] * m.g_det == epsilon_determinant(a)


class TestDetInverse:
    def test_unit(self):
        assert epsilon_determinant(identity(3)) == 1
        assert epsilon_inverse(identity(3)) == identity(3)

    def test_hand(self):
        assert epsilon_determinant(A_HAND) == 5
        assert epsilon_inverse(A_HAND) == from_matrix(
            [["3/5", "-1/5"], ["-1/5", "2/5"]])

    def test_leibniz_oracle_dim_four(self):
        a = random_symmetric(2, 4, 11, 9)
        assert epsilon_determinant(a) == oracles.leibniz_det(a)

    def test_inverse_contraction(self):
        a = random_invertible_2(3, 74)
        assert identity_residual(contract_one_free(epsilon_inverse(a), a)) == 0

    def test_singular(self):
        with pytest.raises(SingularTensorError):
            epsilon_inverse(from_matrix([[1, 1], [1, 1]]))

    def test_inverse_agrees_with_invariant_gradient(self):
        # determinant route and discriminant-gradient route coincide
        a = random_invertible_2(3, 75)
        g = random_invertible_2(3, 76)
        m = metric_inverse(g)
        top = invariants.invariant_of_order(a, m.g, 3, m.g_det)
        grad = invariants.grad_tensor(a, g, 3, m.g_det)
        assert epsilon_inverse(a) == grad * (1 / top)


class TestCharPoly:
    def test_hand(self):
        assert characteristic_coefficients(
            invariant_values(A_HAND, identity(2))) == (1, -5, 5)

    def test_self_metric_gives_binomial_signs(self):
        g = random_invertible_2(3, 77)
        m = metric_inverse(g)
        assert characteristic_coefficients(
            invariant_values(g, m.g)) == (-1, 3, -3, 1)

    def test_evaluation_identity(self):
        a = random_symmetric(2, 3, 78, 7)
        g = random_invertible_2(3, 79)
        for point in (Fraction(2), Fraction(-7, 3), Fraction(11, 5)):
            assert invariants.characteristic_residual_at(a, g, point) == 0


class TestGradientOracles:
    """De-circularize the recurrence: the formal gradients must be the true
    derivatives, checked against exact polynomial differentiation."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grad_tensor_is_the_derivative(self, dim):
        from hypermat import multiplicity
        a = random_symmetric(2, dim, 81 + dim, 5)
        g = random_invertible_2(dim, 83 + dim)
        m = metric_inverse(g)
        for s in range(dim + 1):
            grad = invariants.grad_tensor(a, g, s, m.g_det)
            for key in oracles.all_canonical(2, dim):
                direction = oracles.basis_direction(2, dim, key)
                derivative = oracles.directional_derivative(
                    lambda t: invariants.invariant_of_order(t, g, s, m.g_det),
                    a, direction, max(s, 1))
                assert derivative == multiplicity(key) * grad.component(key)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grad_metric_is_the_derivative(self, dim):
        from hypermat import multiplicity
        a = random_symmetric(2, dim, 85 + dim, 5)
        g = random_invertible_2(dim, 87 + dim)
        m = metric_inverse(g)
        for s in range(dim + 1):
            grad = invariants.grad_metric(a, g, s, m.g_det, m.g_inv)
            numerator_degree = dim - s

            def numerator(metric):
                # det(g) * c_s is polynomial in the metric
                from hypermat.engine import coset_restricted_product
                value = coset_restricted_product([a] * s + [metric] * (dim - s), s)
                return value / (math.factorial(s) * math.factorial(dim - s))

            for key in oracles.all_canonical(2, dim):
                direction = oracles.basis_direction(2, dim, key)
                d_numerator = oracles.directional_derivative(
                    numerator, g, direction, max(numerator_degree, 1))
                d_det = oracles.directional_derivative(
                    epsilon_determinant, g, direction, dim)
                n_value = numerator(g)
                quotient = (d_numerator * m.g_det - n_value * d_det) / m.g_det ** 2
                assert quotient == multiplicity(key) * grad.component(key)


class TestRecurrence:
    def test_random_metric_rows_vanish(self):
        a = random_symmetric(2, 2, 5, 7)
        g = random_invertible_2(2, 6)
        report = verify_recurrence2(a, metric_inverse(g), seed=5)
        assert report.all_pass
        assert {c.residual for c in report.checks} == {"0"}
        recurrence = "d(c_s)/dg + c_s*inv(g) == d(c_{s+1})/da"
        assert [(c.identity, c.formula) for c in report.checks] == [
            ("recurrence_order_0", recurrence),
            ("recurrence_order_1", recurrence),
            ("cayley_hamilton", "d(c_d)/dg + c_d*inv(g) == 0"),
            ("matrix_polynomial_unit_metric",
             "sum_s (-1)^s c_s a^(d-s) == 0 with the unit metric")]

    def test_hand_cayley_hamilton(self):
        # a^2 - 5a + 5I vanishes for the hand matrix
        m = unit_metric(2)
        square = g_product(A_HAND, A_HAND, m)
        residual = square - A_HAND * 5 + identity(2) * 5
        assert residual.is_zero()
        assert rank2.matrix_polynomial_residual(A_HAND).is_zero()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matrix_polynomial_rows(self, dim):
        a = random_symmetric(2, dim, 90 + dim, 7)
        assert rank2.matrix_polynomial_residual(a).is_zero()

    def test_self_metric_collapses_to_trivial_rows(self):
        a = random_invertible_2(3, 94)
        report = verify_recurrence2(a, metric_inverse(a))
        assert report.all_pass

    def test_cayley_hamilton_op(self):
        a = random_symmetric(2, 3, 95, 7)
        g = random_invertible_2(3, 96)
        report = verify_recurrence2(a, metric_inverse(g), seed=96)
        assert report.all_pass
        assert report.checks[3].identity == "cayley_hamilton"

    @pytest.mark.parametrize("dim", [2, 3])
    def test_metric_derivative_bridge(self, dim):
        a = random_symmetric(2, dim, 97, 7)
        g = random_invertible_2(dim, 98)
        for s in range(dim):
            assert invariants.metric_derivative_bridge_residual(a, g, s).is_zero()

    def test_scaling_laws(self):
        a = random_symmetric(2, 3, 99, 7)
        g = random_invertible_2(3, 100)
        m = metric_inverse(g)
        lam = Fraction(4, 3)
        base = invariant_values(a, m.g)
        scaled_tensor = invariant_values(a * lam, m.g)
        scaled_metric = invariant_values(a, g * lam)
        for s in range(4):
            assert scaled_tensor[s] == lam ** s * base[s]
            assert scaled_metric[s] == lam ** -s * base[s]
