"""Rank-2 layer: metric algebra, Newton relations, both discriminant
routes, determinants, inverses, characteristic polynomials and the
recurrence checks."""

import math
from fractions import Fraction

import pytest

from hypermat import (SingularTensorError, SymTensor,
                      characteristic_coefficients, contract_full,
                      discriminants_trace, epsilon_determinant,
                      epsilon_inverse, from_matrix,
                      g_product, identity, invariant_values,
                      newton_elementary_from_power, power_sums,
                      random_symmetric, verify_recurrence2)
from hypermat import invariants, rank2
from hypermat.invariants import identity_residual, metric_determinant

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
        assert epsilon_inverse(identity(3)) == identity(3)
        assert metric_determinant(identity(3)) == 1

    def test_hand_adjugate(self):
        assert metric_determinant(A_HAND) == 5
        assert epsilon_inverse(A_HAND) == from_matrix(
            [["3/5", "-1/5"], ["-1/5", "2/5"]])

    def test_singular(self):
        singular = from_matrix([[1, 1], [1, 1]])
        with pytest.raises(SingularTensorError):
            epsilon_inverse(singular)
        with pytest.raises(SingularTensorError):
            metric_determinant(singular)

    def test_inverse_contracts_to_delta(self):
        g = random_invertible_2(3, 17)
        assert identity_residual(epsilon_inverse(g), g) == 0


class TestMetricAlgebra:
    def test_metric_is_the_unit(self):
        g = random_invertible_2(2, 23)
        a = random_symmetric(2, 2, 24, 7)
        assert g_product(a, g, g) == a
        assert g_product(g, a, g) == a

    def test_hand_square(self):
        assert g_product(A_HAND, A_HAND, identity(2)) == from_matrix([[5, 5], [5, 10]])

    def test_zero(self):
        unit = identity(2)
        z = SymTensor.zero(2, 2)
        assert g_product(z, A_HAND, unit).is_zero()
        assert contract_full(epsilon_inverse(unit), z) == 0

    def test_trace(self):
        assert contract_full(epsilon_inverse(identity(2)), A_HAND) == 5
        g = random_invertible_2(3, 25)
        assert contract_full(epsilon_inverse(g), g) == 3

    def test_power_sums_hand(self):
        assert power_sums(A_HAND, identity(2), 2) == [2, 5, 15]

    def test_power_sums_unit(self):
        assert power_sums(identity(2), identity(2), 4) == [2, 2, 2, 2, 2]

    def test_power_sums_zero(self):
        sums = power_sums(SymTensor.zero(2, 3), identity(3), 3)
        assert sums[0] == 3 and all(q == 0 for q in sums[1:])

    def test_singular_metric(self):
        singular = from_matrix([[1, 1], [1, 1]])
        with pytest.raises(SingularTensorError):
            g_product(A_HAND, A_HAND, singular)
        with pytest.raises(SingularTensorError):
            power_sums(A_HAND, singular, 2)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_power_sums_against_dense_oracle(self, dim):
        # plain matrix products of g^-1 a, no symmetrized storage involved
        a = random_symmetric(2, dim, 26 + dim, 7)
        g = random_invertible_2(dim, 28 + dim)
        mixed = oracles.mat_mul(oracles.to_dense_matrix(epsilon_inverse(g)),
                                oracles.to_dense_matrix(a))
        power = [[Fraction(i == j) for j in range(dim)] for i in range(dim)]
        expected = [Fraction(dim)]
        for _ in range(4):
            power = oracles.mat_mul(power, mixed)
            expected.append(oracles.mat_trace(power))
        assert power_sums(a, g, 4) == expected


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
        # the metric whose inverse is G_INV
        return epsilon_inverse(self.G_INV)

    def assert_matches_oracle(self, a, b, g):
        expected, _ = _symmetrized_oracle_product(a, epsilon_inverse(g), b)
        product = g_product(a, b, g)
        d = a.dim
        for i in range(d):
            for j in range(d):
                value = product.component((i, j))
                assert isinstance(value, Fraction)
                assert value == expected[i][j]

    def test_non_commuting_operands(self):
        metric = self.metric()
        assert epsilon_inverse(metric) == self.G_INV
        _, raw = _symmetrized_oracle_product(self.A, self.G_INV, self.B)
        assert raw != [list(row) for row in zip(*raw)]  # the order matters
        assert {v.denominator for v in self.G_INV.entries.values()} >= {7, 11, 13}
        self.assert_matches_oracle(self.A, self.B, metric)
        self.assert_matches_oracle(self.B, self.A, metric)
        self.assert_matches_oracle(self.A, self.A, metric)

    def test_unit_metric_and_random_operands(self):
        for dim in (2, 3, 5):
            a = random_symmetric(2, dim, 60 + dim, 7)
            b = random_symmetric(2, dim, 70 + dim, 7) * Fraction(3, 8)
            self.assert_matches_oracle(a, b, identity(dim))
            g = random_invertible_2(dim, 80 + dim)
            self.assert_matches_oracle(a, b, g)

    def test_zero_operands(self):
        metric = self.metric()
        zero = SymTensor.zero(2, 4)
        assert g_product(zero, self.B, metric).is_zero()
        assert g_product(self.A, zero, metric).is_zero()
        assert g_product(zero, zero, metric).is_zero()

    def test_power_sums_skips_the_product_it_would_not_trace(self, monkeypatch):
        calls = []
        product = rank2.g_product

        def counting(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(rank2, "g_product", counting)
        for max_order in (1, 2, 4):
            calls.clear()
            assert power_sums(A_HAND, identity(2), max_order) == [
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
        values = tuple(discriminants_trace(A_HAND, identity(2)))
        assert values == (1, 5, 5)

    def test_self_metric_binomials(self):
        g = random_invertible_2(3, 51)
        assert tuple(discriminants_trace(g, g)) == (1, 3, 3, 1)
        assert invariant_values(g, g) == (1, 3, 3, 1)

    def test_zero_tensor(self):
        unit = identity(3)
        z = SymTensor.zero(2, 3)
        assert tuple(discriminants_trace(z, unit)) == (1, 0, 0, 0)
        assert invariant_values(z, unit) == (1, 0, 0, 0)

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
        assert tuple(discriminants_trace(a, g)) == invariant_values(a, g)

    def test_order_above_dimension_vanishes(self):
        a = random_symmetric(2, 3, 70, 7)
        g = random_invertible_2(3, 71)
        assert invariants.invariant_of_order(a, g, 4) == 0
        assert invariants.invariant_of_order(a, g, 7) == 0

    def test_determinant_ratio(self):
        a = random_symmetric(2, 3, 72, 7)
        g = random_invertible_2(3, 73)
        assert invariant_values(a, g)[3] * metric_determinant(g) == epsilon_determinant(a)


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
        assert identity_residual(epsilon_inverse(a), a) == 0

    def test_singular(self):
        with pytest.raises(SingularTensorError):
            epsilon_inverse(from_matrix([[1, 1], [1, 1]]))

    def test_inverse_agrees_with_invariant_gradient(self):
        # determinant route and discriminant-gradient route coincide
        a = random_invertible_2(3, 75)
        g = random_invertible_2(3, 76)
        top = invariants.invariant_of_order(a, g, 3)
        grad = invariants.grad_tensor(a, g, 3)
        assert epsilon_inverse(a) == grad * (1 / top)


class TestCharPoly:
    def test_hand(self):
        assert characteristic_coefficients(
            invariant_values(A_HAND, identity(2))) == (1, -5, 5)

    def test_self_metric_gives_binomial_signs(self):
        g = random_invertible_2(3, 77)
        assert characteristic_coefficients(
            invariant_values(g, g)) == (-1, 3, -3, 1)

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
        for s in range(dim + 1):
            grad = invariants.grad_tensor(a, g, s)
            for key in oracles.all_canonical(2, dim):
                direction = oracles.basis_direction(2, dim, key)
                derivative = oracles.directional_derivative(
                    lambda t: invariants.invariant_of_order(t, g, s),
                    a, direction, max(s, 1))
                assert derivative == multiplicity(key) * grad.component(key)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grad_metric_is_the_derivative(self, dim):
        from hypermat import multiplicity
        a = random_symmetric(2, dim, 85 + dim, 5)
        g = random_invertible_2(dim, 87 + dim)
        g_det = metric_determinant(g)
        for s in range(dim + 1):
            grad = invariants.grad_metric(a, g, s)
            numerator_degree = dim - s

            def numerator(metric):
                # det(g) * c_s is polynomial in the metric
                from hypermat.engine import coset_restricted_product_counted
                value = coset_restricted_product_counted(
                    [a] * s + [metric] * (dim - s), s)[0]
                return value / (math.factorial(s) * math.factorial(dim - s))

            for key in oracles.all_canonical(2, dim):
                direction = oracles.basis_direction(2, dim, key)
                d_numerator = oracles.directional_derivative(
                    numerator, g, direction, max(numerator_degree, 1))
                d_det = oracles.directional_derivative(
                    epsilon_determinant, g, direction, dim)
                n_value = numerator(g)
                quotient = (d_numerator * g_det - n_value * d_det) / g_det ** 2
                assert quotient == multiplicity(key) * grad.component(key)


class TestRecurrence:
    def test_random_metric_rows_vanish(self):
        a = random_symmetric(2, 2, 5, 7)
        g = random_invertible_2(2, 6)
        report = verify_recurrence2(a, g, seed=5)
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
        square = g_product(A_HAND, A_HAND, identity(2))
        residual = square - A_HAND * 5 + identity(2) * 5
        assert residual.is_zero()
        assert rank2.matrix_polynomial_residual(A_HAND).is_zero()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matrix_polynomial_rows(self, dim):
        a = random_symmetric(2, dim, 90 + dim, 7)
        assert rank2.matrix_polynomial_residual(a).is_zero()

    def test_self_metric_collapses_to_trivial_rows(self):
        a = random_invertible_2(3, 94)
        report = verify_recurrence2(a, a)
        assert report.all_pass

    def test_cayley_hamilton_op(self):
        a = random_symmetric(2, 3, 95, 7)
        g = random_invertible_2(3, 96)
        report = verify_recurrence2(a, g, seed=96)
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
        lam = Fraction(4, 3)
        base = invariant_values(a, g)
        scaled_tensor = invariant_values(a * lam, g)
        scaled_metric = invariant_values(a, g * lam)
        for s in range(4):
            assert scaled_tensor[s] == lam ** s * base[s]
            assert scaled_metric[s] == lam ** -s * base[s]
