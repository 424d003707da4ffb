"""Even-rank layer: fourth-rank determinants, inverses, invariant
sequences, recurrence and Cayley-Hamilton checks, and the explicit
two-dimensional polynomial identities."""

import itertools
import math
from fractions import Fraction

import pytest

from hypermat import (SingularTensorError, SymTensor, cayley_det,
                      characteristic_coefficients, contract_full,
                      contract_one_free, derive_seed, epsilon_determinant,
                      epsilon_inverse, from_matrix, invariant_values,
                      quadratic_identity_residual, random_symmetric,
                      self_identity_residual, verify_poly_identity_d2,
                      verify_recurrence_even)
from hypermat import evenrank, invariants
from hypermat.invariants import identity_residual
from hypermat.report import residual_magnitude
from hypermat.tensor import canonical_keys

import oracles

SAMPLE_A = SymTensor.from_entries(4, 2, {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1,
                                     (0, 0, 1, 1): 1})
DIAG_G = SymTensor.from_entries(4, 2, {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1})


def random_invertible_4(dim, seed, bound=5):
    for attempt in range(50):
        t = random_symmetric(4, dim, seed if attempt == 0 else
                             derive_seed(seed, attempt), bound)
        if epsilon_determinant(t) != 0:
            return t
    raise AssertionError("no invertible sample found")


def closed_form_det_d2(a):
    return (a.component((0, 0, 0, 0)) * a.component((1, 1, 1, 1))
            - 4 * a.component((0, 0, 0, 1)) * a.component((0, 1, 1, 1))
            + 3 * a.component((0, 0, 1, 1)) ** 2)


class TestDeterminant:
    def test_hand_example(self):
        assert epsilon_determinant(SAMPLE_A) == 4

    def test_diagonal_example(self):
        assert epsilon_determinant(DIAG_G) == 1

    def test_zero(self):
        assert epsilon_determinant(SymTensor.zero(4, 3)) == 0

    def test_odd_rank_rejected(self):
        with pytest.raises(ValueError, match="odd rank"):
            epsilon_determinant(random_symmetric(3, 2, 1, 5))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_closed_form_d2(self, seed):
        a = random_symmetric(4, 2, seed, 9)
        assert epsilon_determinant(a) == closed_form_det_d2(a)

    def test_degree_scaling(self):
        a = random_symmetric(4, 3, 6, 5)
        lam = Fraction(7, 4)
        assert epsilon_determinant(a * lam) == lam ** 3 * epsilon_determinant(a)


class TestCayleyDet:
    def test_rank2_is_leibniz(self):
        a = random_symmetric(2, 4, 7, 9)
        assert cayley_det(a) == oracles.leibniz_det(a)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_signed_contraction_at_rank4(self, dim):
        a = random_symmetric(4, dim, 8 + dim, 5)
        assert cayley_det(a) == epsilon_determinant(a)

    def test_matches_signed_contraction_at_rank6(self):
        a = random_symmetric(6, 2, 10, 5)
        assert cayley_det(a) == epsilon_determinant(a)

    def test_rank3_does_not_vanish(self):
        s = SymTensor.from_entries(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
        assert cayley_det(s) == 1

    @pytest.mark.parametrize("rank,dim", [(3, 2), (3, 3), (5, 2), (5, 3),
                                          (4, 3), (6, 2)])
    def test_matches_the_row_product_oracle(self, rank, dim):
        # the lead is fixed, so the kernel's later levels merge states
        # of the one class at both parities of the levels still to place
        a = random_symmetric(rank, dim, 60 + 7 * rank + dim, 5)
        value = cayley_det(a)
        assert value == oracles.brute_row_product_det(a)
        assert value != 0


class TestInverse:
    def test_hand_components(self):
        inv = epsilon_inverse(SAMPLE_A)
        assert inv.component((0, 0, 0, 0)) == Fraction(1, 4)
        assert inv.component((0, 0, 0, 1)) == 0
        assert inv.component((0, 0, 1, 1)) == Fraction(1, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_components_d2(self, seed):
        a = random_invertible_4(2, 200 + seed)
        det = epsilon_determinant(a)
        inv = epsilon_inverse(a)
        assert inv.component((0, 0, 0, 0)) == a.component((1, 1, 1, 1)) / det
        assert inv.component((0, 0, 0, 1)) == -a.component((0, 1, 1, 1)) / det
        assert inv.component((0, 0, 1, 1)) == a.component((0, 0, 1, 1)) / det
        assert inv.component((0, 1, 1, 1)) == -a.component((0, 0, 0, 1)) / det
        assert inv.component((1, 1, 1, 1)) == a.component((0, 0, 0, 0)) / det

    def test_contraction_identity_d2(self):
        assert identity_residual(contract_one_free(epsilon_inverse(SAMPLE_A), SAMPLE_A)) == 0

    # delta at every even rank and d, by GL(d) invariance (the proof is in
    # epsilon_inverse's docstring)
    @pytest.mark.parametrize("rank,dim", [(4, 3), (4, 4), (6, 3)],
                             ids=["rank4-d3", "rank4-d4", "rank6-d3"])
    def test_contraction_identity_beyond_d2(self, rank, dim):
        a = random_symmetric(rank, dim, 13, 5)
        assert epsilon_determinant(a) != 0
        assert identity_residual(contract_one_free(epsilon_inverse(a), a)) == 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_contraction_trace_is_the_dimension(self, dim):
        a = random_invertible_4(dim, 220 + dim)
        arr = contract_one_free(epsilon_inverse(a), a)
        assert sum(arr[i, i] for i in range(dim)) == dim

    def test_singular(self):
        single = SymTensor.from_entries(4, 2, {(0, 0, 0, 0): 1})
        with pytest.raises(SingularTensorError):
            epsilon_inverse(single)


class TestInvariantSequence:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_determinant_ratio(self, dim):
        a = random_symmetric(4, dim, 30, 7)
        g = random_invertible_4(dim, 31)
        assert (invariant_values(a, g)[dim]
                == epsilon_determinant(a) / epsilon_determinant(g))

    def test_self_metric_binomials(self):
        g = random_invertible_4(2, 32)
        assert invariant_values(g, g) == (1, 2, 1)
        g3 = random_invertible_4(3, 33)
        assert invariant_values(g3, g3) == (1, 3, 3, 1)

    def test_closed_form_second_invariant_d2(self):
        # quadratic form with the inverse metric: (c1^2 - 4*cycle + 3*pair)/2
        a = random_symmetric(4, 2, 34, 7)
        g = random_invertible_4(2, 35)
        ginv = epsilon_inverse(g)
        c1 = contract_full(ginv, a)
        cyc = Fraction(0)
        pair = Fraction(0)
        for i, j, k, l, m, n, p, q in itertools.product(range(2), repeat=8):
            gv1 = ginv.component((i, j, k, l))
            if not gv1:
                continue
            gv2 = ginv.component((m, n, p, q))
            if not gv2:
                continue
            cyc += gv1 * a.component((j, k, l, m)) * gv2 * a.component((n, p, q, i))
            pair += gv1 * a.component((k, l, m, n)) * gv2 * a.component((p, q, i, j))
        closed = (c1 * c1 - 4 * cyc + 3 * pair) / 2
        assert closed == invariant_values(a, g)[2]

    def test_order_above_dimension(self):
        a = random_symmetric(4, 2, 36, 7)
        g = random_invertible_4(2, 37)
        assert invariants.invariant_of_order(a, g, 3) == 0
        assert invariants.invariant_of_order(a, g, 9) == 0

    def test_singular_metric_rejected(self):
        a = random_symmetric(4, 2, 38, 7)
        single = SymTensor.from_entries(4, 2, {(0, 0, 0, 0): 1})
        with pytest.raises(SingularTensorError):
            invariant_values(a, single)

    def test_odd_rank_pair_needs_a_lift(self):
        s = random_symmetric(3, 2, 1, 5)
        with pytest.raises(ValueError, match="lift"):
            invariant_values(s, s)

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ValueError, match="must share rank and dimension"):
            invariant_values(SAMPLE_A, random_invertible_4(3, 33))
        with pytest.raises(ValueError, match="must share rank and dimension"):
            invariant_values(SAMPLE_A, from_matrix([[1, 0], [0, 1]]))

    def test_scaling_laws(self):
        a = random_symmetric(4, 2, 39, 7)
        g = random_invertible_4(2, 40)
        lam = Fraction(5, 3)
        base = invariant_values(a, g)
        scaled_tensor = invariant_values(a * lam, g)
        scaled_metric = invariant_values(a, g * lam)
        for s in range(3):
            assert scaled_tensor[s] == lam ** s * base[s]
            assert scaled_metric[s] == lam ** -s * base[s]


class TestGradients:
    def test_order_zero_vanishes(self):
        a = random_symmetric(4, 2, 41, 7)
        g = random_invertible_4(2, 42)
        assert invariants.grad_tensor(a, g, 0).is_zero()
        assert invariants.grad_metric(a, g, 0).is_zero()

    def test_top_order_two_routes(self):
        # d(C_d)/dA equals the determinant gradient over det(G)
        a = random_invertible_4(2, 43)
        g = random_invertible_4(2, 44)
        det_g = epsilon_determinant(g)
        via_invariant = invariants.grad_tensor(a, g, 2)
        via_det = epsilon_inverse(a) * (epsilon_determinant(a) / det_g)
        assert via_invariant == via_det

    @pytest.mark.parametrize("dim", [2])
    def test_directional_oracle(self, dim):
        from hypermat import multiplicity
        a = random_symmetric(4, dim, 45, 5)
        g = random_invertible_4(dim, 46)
        det_g = epsilon_determinant(g)
        for s in range(dim + 1):
            grad_a = invariants.grad_tensor(a, g, s)
            grad_g = invariants.grad_metric(a, g, s)

            def numerator(metric):
                from hypermat.engine import coset_restricted_product_counted
                value = coset_restricted_product_counted(
                    [a] * s + [metric] * (dim - s), s)[0]
                return value / (math.factorial(s) * math.factorial(dim - s))

            for key in canonical_keys(4, dim):
                direction = oracles.basis_direction(4, dim, key)
                mu = multiplicity(key)
                d_tensor = oracles.directional_derivative(
                    lambda t: invariants.invariant_of_order(t, g, s),
                    a, direction, max(s, 1))
                assert d_tensor == mu * grad_a.component(key)
                d_num = oracles.directional_derivative(
                    numerator, g, direction, max(dim - s, 1))
                d_det = oracles.directional_derivative(
                    epsilon_determinant, g, direction, dim)
                quotient = (d_num * det_g - numerator(g) * d_det) / det_g ** 2
                assert quotient == mu * grad_g.component(key)


class TestRecurrence:
    def test_d2_rows_vanish(self):
        a = random_symmetric(4, 2, 21, 7)
        g = random_invertible_4(2, 121)
        report = verify_recurrence_even(a, g, seed=21)
        assert report.all_pass
        assert [c.identity for c in report.checks] == [
            "recurrence_order_0", "recurrence_order_1", "cayley_hamilton"]
        recurrence = "d(C_s)/dG + C_s*inv(G) == d(C_{s+1})/dA"
        assert [c.formula for c in report.checks] == [
            recurrence, recurrence, "d(C_d)/dG + C_d*inv(G) == 0"]

    def test_d3_rows_vanish(self):
        a = random_symmetric(4, 3, 22, 5)
        g = random_invertible_4(3, 122)
        assert verify_recurrence_even(a, g, seed=22).all_pass

    def test_cayley_hamilton_rows(self):
        for dim, seed in ((2, 23), (3, 24)):
            a = random_symmetric(4, dim, seed, 5)
            g = random_invertible_4(dim, 100 + seed)
            report = verify_recurrence_even(a, g, seed=seed)
            assert report.checks[-1].identity == "cayley_hamilton"
            assert report.all_pass

    def test_self_metric_cayley_hamilton(self):
        g = random_invertible_4(2, 125)
        report = verify_recurrence_even(g, g)
        assert report.all_pass
        assert invariant_values(g, g)[2] == 1

    def test_sixth_rank_rows_vanish(self):
        # the layer is rank-generic; sixth rank in two dimensions is cheap
        a = random_symmetric(6, 2, 27, 5)
        g = None
        for seed in range(130, 140):
            candidate = random_symmetric(6, 2, seed, 5)
            if epsilon_determinant(candidate) != 0:
                g = candidate
                break
        assert g is not None
        report = verify_recurrence_even(a, g, seed=27)
        assert report.all_pass
        assert (invariant_values(a, g)[2]
                == epsilon_determinant(a) / epsilon_determinant(g))

    def test_recurrence_top_row_equals_cayley_hamilton(self):
        a = random_symmetric(4, 2, 126, 7)
        g = random_invertible_4(2, 127)
        full = verify_recurrence_even(a, g)
        single = invariants.recurrence_residual(a, g, a.dim)
        assert full.checks[-1].residual == residual_magnitude(single) == "0"

    def test_independent_expansion_d2(self):
        # both sides of each row rebuilt from scratch with the exact
        # directional oracle (quotient rule on the metric side, since the
        # invariant is rational in the metric), then compared component-wise
        from hypermat import multiplicity
        from hypermat.engine import coset_restricted_product_counted
        a = random_symmetric(4, 2, 128, 5)
        g = random_invertible_4(2, 129)
        det_g = epsilon_determinant(g)
        g_inv = epsilon_inverse(g)
        for s in range(3):
            value = invariants.invariant_of_order(a, g, s)

            def numerator(metric):
                raw = coset_restricted_product_counted(
                    [a] * s + [metric] * (2 - s), s)[0]
                return raw / (math.factorial(s) * math.factorial(2 - s))

            for key in canonical_keys(4, 2):
                direction = oracles.basis_direction(4, 2, key)
                mu = multiplicity(key)
                d_num = oracles.directional_derivative(
                    numerator, g, direction, max(2 - s, 1))
                d_det = oracles.directional_derivative(epsilon_determinant, g, direction, 2)
                d_metric = (d_num * det_g - numerator(g) * d_det) / det_g ** 2
                lhs = d_metric / mu + value * g_inv.component(key)
                if s == 2:
                    rhs = Fraction(0)
                else:
                    rhs = oracles.directional_derivative(
                        lambda t: invariants.invariant_of_order(t, g, s + 1),
                        a, direction, s + 1) / mu
                assert lhs == rhs


class TestPolynomialIdentities:
    def test_random_pair(self):
        a = random_symmetric(4, 2, 31, 7)
        g = random_invertible_4(2, 131)
        assert quadratic_identity_residual(a, g).is_zero()

    def test_self_metric_reduction(self):
        g = random_invertible_4(2, 132)
        assert quadratic_identity_residual(g, g).is_zero()

    def test_self_identity(self):
        a = random_invertible_4(2, 133)
        assert self_identity_residual(a).is_zero()

    def test_report_includes_self_row_when_metric_is_the_tensor(self):
        a = random_invertible_4(2, 134)
        report = verify_poly_identity_d2(a, a, seed=134)
        assert [c.identity for c in report.checks] == [
            "quadratic_identity", "self_metric_identity"]
        assert report.all_pass

    def test_wrong_shape_rejected(self):
        a = random_symmetric(4, 3, 135, 5)
        with pytest.raises(ValueError):
            quadratic_identity_residual(a, a)

    def test_brute_force_expansion_oracle(self):
        # every index sum written out directly, no contraction shortcuts
        a = random_symmetric(4, 2, 136, 5)
        g = random_invertible_4(2, 137)
        ginv = epsilon_inverse(g)
        rng = range(2)
        c1 = sum(ginv.component(idx) * a.component(idx)
                 for idx in itertools.product(rng, repeat=4))
        c2 = invariant_values(a, g)[2]

        def one_three(idx):
            i, j, k, l = idx
            return sum(a.component((i, m, n, p)) * ginv.component((m, n, p, q))
                       * a.component((q, j, k, l))
                       for m, n, p, q in itertools.product(rng, repeat=4))

        def two_two(idx):
            i, j, k, l = idx
            return sum(a.component((i, j, m, n)) * ginv.component((m, n, p, q))
                       * a.component((p, q, k, l))
                       for m, n, p, q in itertools.product(rng, repeat=4))

        expected = (a * c1
                    - oracles.symmetrized_from(4, 2, one_three) * 4
                    + oracles.symmetrized_from(4, 2, two_two) * 3
                    - g * c2)
        assert expected == quadratic_identity_residual(a, g)
        assert expected.is_zero()

    def test_pair_cycle_trace_is_the_dimension(self):
        a = random_invertible_4(2, 138)
        assert evenrank.pair_cycle_trace(a, epsilon_inverse(a)) == 2

    @staticmethod
    def assert_index_loops_agree(x, y):
        assert evenrank._one_three_split(x, y) == oracles.brute_one_three_split(x, y)
        assert evenrank._two_two_split(x, y) == oracles.brute_two_two_split(x, y)
        assert evenrank.pair_cycle_trace(x, y) == oracles.brute_pair_cycle_trace(x, y)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [150, 152])
    def test_contractions_match_index_loops(self, dim, seed):
        # bound-7 denominators: each table's scale is the lcm of coprime
        # denominators, larger than any one of them
        a = random_symmetric(4, dim, seed, 7)
        g_inv = random_symmetric(4, dim, seed + 1, 7)
        for t in (a, g_inv):
            denominators = [v.denominator for v in t.entries.values()]
            assert math.lcm(*denominators) > max(denominators)
        self.assert_index_loops_agree(a, g_inv)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_contractions_through_an_inverse_match_index_loops(self, dim):
        a = random_invertible_4(dim, 154)
        self.assert_index_loops_agree(a, epsilon_inverse(random_invertible_4(dim, 155)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_contractions_of_zero_operands(self, dim):
        a = random_symmetric(4, dim, 156, 7)
        zero = SymTensor.zero(4, dim)
        for x, y in ((zero, a), (a, zero), (zero, zero)):
            assert evenrank._one_three_split(x, y).is_zero()
            assert evenrank._two_two_split(x, y).is_zero()
            trace = evenrank.pair_cycle_trace(x, y)
            assert trace == 0 and isinstance(trace, Fraction)
            self.assert_index_loops_agree(x, y)


class TestCharPoly:
    def test_self_metric(self):
        g = random_invertible_4(2, 140)
        assert characteristic_coefficients(invariant_values(g, g)) == (1, -2, 1)

    def test_constant_term_is_the_determinant_ratio(self):
        coeffs = characteristic_coefficients(invariant_values(SAMPLE_A, DIAG_G))
        assert coeffs[-1] == 4

    def test_evaluation_identity(self):
        a = random_symmetric(4, 2, 141, 7)
        g = random_invertible_4(2, 142)
        for point in (Fraction(3), Fraction(-1, 2)):
            assert invariants.characteristic_residual_at(a, g, point) == 0
