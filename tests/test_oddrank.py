"""Odd-rank layer: the vanishing contraction, the cubic discriminant, the
lift and its determinant, both inverse routes, and the proportionality
between the lift determinant and the discriminant."""

import itertools
import math
from fractions import Fraction

import pytest

from hypermat import (CUBIC_LIFT_RATIO, SingularTensorError, SymTensor,
                      contract_one_free, cubic_discriminant, derive_seed,
                      inverse_odd_d2, inverse_odd_d2_gradient, lift,
                      lift_gradient_candidate, random_symmetric, sym_outer,
                      verify_inverse_d2, verify_odd_rank_vanishing,
                      verify_proportionality)
from hypermat import engine, oddrank
from hypermat.invariants import identity_residual
from hypermat.tensor import canonical_keys, multiplicity

import oracles

CORNERS = SymTensor.from_entries(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
ALL_ONES = SymTensor.from_entries(3, 2, {(0, 0, 0): 1, (0, 0, 1): 1,
                                         (0, 1, 1): 1, (1, 1, 1): 1})


class TestVanishing:
    @pytest.mark.parametrize("dim,seed", [(2, 41), (3, 42), (4, 43)])
    def test_random_tensors(self, dim, seed):
        s = random_symmetric(3, dim, seed, 9)
        report = verify_odd_rank_vanishing(s, seed)
        assert report.all_pass

    def test_zero_tensor(self):
        assert verify_odd_rank_vanishing(SymTensor.zero(3, 2)).all_pass

    def test_even_rank_rejected(self):
        with pytest.raises(ValueError):
            verify_odd_rank_vanishing(random_symmetric(4, 2, 1, 5))


class TestCubicDiscriminant:
    def test_corner_pair(self):
        assert cubic_discriminant(CORNERS) == 1

    def test_all_ones_degenerate(self):
        # 1 - 6 + 4 + 4 - 3 = 0
        assert cubic_discriminant(ALL_ONES) == 0

    def test_single_corner(self):
        s = SymTensor.from_entries(3, 2, {(0, 0, 0): 2})
        assert cubic_discriminant(s) == 0

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            cubic_discriminant(random_symmetric(3, 3, 1, 5))


class TestLift:
    def test_corner_pair_fixture(self):
        result = lift(CORNERS)
        lifted = result.tensor
        assert lifted.component((0,) * 6) == 1
        assert lifted.component((1,) * 6) == 1
        assert lifted.component((0, 0, 0, 1, 1, 1)) == Fraction(1, 10)
        assert lifted.component((0, 0, 0, 0, 0, 1)) == 0
        assert result.det == Fraction(9, 10)
        assert result.cubic_disc == 1
        assert result.ratio == Fraction(9, 10)

    def test_mixed_coefficient(self):
        s = SymTensor.from_entries(3, 2, {(0, 0, 0): 1, (0, 1, 1): 1})
        assert lift(s).tensor.component((0, 0, 0, 0, 1, 1)) == Fraction(2, 5)

    def test_degenerate_forces_zero_determinant(self):
        result = lift(ALL_ONES)
        assert result.cubic_disc == 0
        assert result.det == 0

    def test_zero(self):
        result = lift(SymTensor.zero(3, 2))
        assert result.tensor.is_zero()
        assert result.det == 0

    def test_ratio_fixture_against_independent_enumeration(self):
        # the frozen constant comes from this oracle: the lift determinant
        # recomputed by full index enumeration with an explicit sign symbol
        for seed in (101, 102, 103):
            s = random_symmetric(3, 2, seed, 7)
            disc = cubic_discriminant(s)
            if disc == 0:
                continue
            lifted = sym_outer(s, s)
            brute_det = oracles.brute_epsilon_product([lifted, lifted]) / 2
            assert brute_det == CUBIC_LIFT_RATIO * disc

    @pytest.mark.parametrize("dim", [2, 3])
    def test_degree_scaling(self, dim):
        # the lift is quadratic and its determinant has degree d
        s = random_symmetric(3, dim, 104, 7)
        lam = Fraction(3, 2)
        assert lift(s * lam).det == lam ** (2 * dim) * lift(s).det

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            lift(random_symmetric(2, 2, 1, 5))


class TestInverse:
    def test_corner_pair_components(self):
        inv = inverse_odd_d2(CORNERS)
        assert inv.component((0, 0, 0)) == 1
        assert inv.component((0, 0, 1)) == 0
        assert inv.component((0, 1, 1)) == 0
        assert inv.component((1, 1, 1)) == 1

    def test_contraction_identity(self):
        inv = inverse_odd_d2(CORNERS)
        assert identity_residual(inv, CORNERS) == 0

    @pytest.mark.parametrize("seed", [43, 44, 45])
    def test_two_routes_and_contraction(self, seed):
        s = random_symmetric(3, 2, seed, 9)
        assert cubic_discriminant(s) != 0
        closed = inverse_odd_d2(s)
        gradient = inverse_odd_d2_gradient(s)
        assert closed == gradient
        assert identity_residual(closed, s) == 0
        arr = contract_one_free(closed, s)
        assert arr[0, 0] + arr[1, 1] == 2

    def test_mixed_component_carries_one_third(self):
        # the canonical derivative of the discriminant is three times the
        # per-component derivative entering the inverse
        s = random_symmetric(3, 2, 46, 9)
        disc = cubic_discriminant(s)
        assert disc != 0
        closed = inverse_odd_d2(s)
        partials = oddrank.discriminant_partials(s)
        assert partials[(0, 0, 1)] == 3 * (2 * disc * closed.component((0, 0, 1)))
        assert partials[(0, 0, 0)] == 1 * (2 * disc * closed.component((0, 0, 0)))

    def test_degenerate_rejected(self):
        with pytest.raises(SingularTensorError):
            inverse_odd_d2(ALL_ONES)
        with pytest.raises(SingularTensorError):
            inverse_odd_d2_gradient(ALL_ONES)

    def test_verify_report(self):
        s = random_symmetric(3, 2, 47, 9)
        report = verify_inverse_d2(s, seed=47)
        assert report.all_pass
        assert [c.identity for c in report.checks] == [
            "inverse_two_routes", "inverse_contraction"]

    def test_candidate_matches_closed_form_in_two_dims(self):
        s = random_symmetric(3, 2, 48, 9)
        assert lift_gradient_candidate(s) == inverse_odd_d2(s)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_candidate_is_the_chain_rule_through_the_lift(self, seed):
        # the definition the partial contraction replaces: the formal
        # gradient of det(lift) contracted against the lift's derivative in
        # the direction of each basis tensor
        s = random_symmetric(3, 3, seed, 9)
        d = s.dim
        lifted = sym_outer(s, s)
        det = engine.epsilon_determinant(lifted)
        det_grad = engine.epsilon_product_gradient([lifted] * d, 0) * Fraction(
            1, math.factorial(d - 1))
        entries = {}
        for key in canonical_keys(3, d):
            direction = SymTensor.from_entries(3, d, {key: Fraction(1)})
            derivative = oracles.brute_contract_full(
                det_grad, sym_outer(s, direction) * 2)
            value = derivative / multiplicity(key) / (2 * det)
            if value:
                entries[key] = value
        assert lift_gradient_candidate(s) == SymTensor.from_entries(3, d, entries)
        cubic = random_symmetric(3, 2, seed, 9)
        assert lift_gradient_candidate(cubic) == inverse_odd_d2(cubic)

    def test_candidate_refuses_a_d16_cubic_before_squaring_it(self, monkeypatch):
        def square(*args):
            raise AssertionError("the lift of a refused shape was built")

        monkeypatch.setattr(oddrank, "sym_outer", square)
        with pytest.raises(ValueError, match="over the work budget"):
            lift_gradient_candidate(random_symmetric(3, 16, 1, 5))

    def test_candidate_reported_for_three_dims(self):
        s = random_symmetric(3, 3, 49, 5)
        report = oddrank.report_candidate_inverse(s, seed=49)
        assert report.checks[0].status == "reported"


def _cubic(*values, scale=1):
    return SymTensor(3, 2, values, scale)


# fixed cubics: a scale above one with a negative discriminant, the same
# shape with all four coefficients nonzero, two zero discriminants, and
# numerators and scales near 10**30
FIXED_CUBICS = [
    SymTensor.from_entries(3, 2, {(0, 0, 0): Fraction(1, 2), (0, 0, 1): 1,
                                  (0, 1, 1): Fraction(1, 3),
                                  (1, 1, 1): Fraction(-3, 4)}),
    _cubic(5, -3, 2, 7, scale=6), _cubic(9, 2, -1, 12, scale=6),
    _cubic(1, 2, 3, -4, scale=35), ALL_ONES,
    _cubic(1, 1, 1, 1, scale=2), SymTensor.from_entries(3, 2, {(0, 0, 0): 2}),
    _cubic(10 ** 30 + 1, -(10 ** 30 - 7), 10 ** 30 + 3, 10 ** 30 - 11),
    _cubic(10 ** 30 - 1, 3, -(10 ** 30 + 9), 7, scale=10 ** 30 + 17),
]
SEEDED_CUBICS = [random_symmetric(3, 2, derive_seed(35, k), 9) for k in range(60)]


class TestIntegerClosedForms:
    """The closed forms on the form's numerators against the Fraction
    formulas of the oracles, which read component() one by one."""

    def test_the_fixed_cubics_cover_each_case(self):
        discs = [cubic_discriminant(s) for s in FIXED_CUBICS]
        assert any(d < 0 and s.form[1] > 1 for d, s in zip(discs, FIXED_CUBICS))
        assert sum(d == 0 for d in discs) >= 2
        assert any(max(map(abs, s.form[0])) > 10 ** 29 for s in FIXED_CUBICS)
        assert any(s.form[1] > 10 ** 29 for s in FIXED_CUBICS)
        seeded = [cubic_discriminant(s) for s in SEEDED_CUBICS]
        assert any(d < 0 for d in seeded) and any(d > 0 for d in seeded)

    @pytest.mark.parametrize("s", FIXED_CUBICS + SEEDED_CUBICS)
    def test_discriminant_and_partials_match_the_oracle(self, s):
        assert cubic_discriminant(s) == oracles.cubic_discriminant(s)
        assert oddrank.discriminant_partials(s) == oracles.discriminant_partials(s)
        assert (oddrank.discriminant_difference(s)
                == oracles.discriminant_partials(s)[(0, 0, 1)])

    @pytest.mark.parametrize("s", FIXED_CUBICS + SEEDED_CUBICS)
    def test_inverses_match_the_oracle(self, s):
        if oracles.cubic_discriminant(s) == 0:
            with pytest.raises(SingularTensorError):
                inverse_odd_d2(s)
            with pytest.raises(SingularTensorError):
                inverse_odd_d2_gradient(s)
            return
        closed = inverse_odd_d2(s)
        gradient = inverse_odd_d2_gradient(s)
        assert closed == oracles.inverse_odd_d2(s)
        assert gradient == oracles.inverse_odd_d2_gradient(s)
        assert gradient == closed
        for inverse in (closed, gradient):
            numerators, scale = inverse.form
            assert scale > 0
            assert math.gcd(scale, *numerators) == 1


class TestProportionality:
    def test_samples_share_one_ratio(self):
        report = verify_proportionality(10, seed=44)
        assert report.all_pass
        assert report.notes["ratio"] == "9/10"

    def test_reproducible(self):
        first = verify_proportionality(6, seed=44)
        second = verify_proportionality(6, seed=44)
        assert first.to_dict() == second.to_dict()

    def test_ratio_is_proved_on_a_grid(self):
        # Each lift entry is a quadratic form in the cubic's coefficients
        # (a, b, c, d), and det(lift) sums products of two lift entries, so
        # det(lift(s)) - 9/10 disc(s) has degree at most 4 in each
        # variable. A polynomial of degree at most 4 in each of its
        # variables that vanishes on {-2..2}^4 is zero (Alon,
        # "Combinatorial Nullstellensatz", Combin. Probab. Comput. 8, 1999,
        # Lemma 2.1), so the 625 evaluations prove the identity.
        keys = list(canonical_keys(3, 2))
        for values in itertools.product(range(-2, 3), repeat=4):
            s = SymTensor.from_entries(3, 2, {k: Fraction(v)
                                              for k, v in zip(keys, values) if v})
            lifted = sym_outer(s, s)
            assert (engine.epsilon_determinant(lifted)
                    == CUBIC_LIFT_RATIO * cubic_discriminant(s))

    def test_degenerate_sample_asserts_zero_determinant(self):
        result = lift(ALL_ONES)
        assert result.cubic_disc == 0 and result.det == 0


class TestBasisDependence:
    """README: at odd rank the `cayley:` line of `det`, the row product, is
    not a GL(d) invariant; at even rank it is the determinant, which is."""

    UNIMODULAR = [[2, 1], [1, 1]]

    def test_the_odd_rank_row_product_depends_on_the_basis(self):
        s = random_symmetric(3, 2, 1, 7)
        moved = oracles.transform(s, self.UNIMODULAR)
        assert engine.row_product(s) == Fraction(7, 6)
        assert engine.row_product(moved) == Fraction(-1490, 9)
        # det(lift), the odd-rank invariant, moves by det(M)^6 = 1
        assert lift(moved).det == lift(s).det

    @pytest.mark.parametrize("rank", [2, 4])
    def test_the_even_rank_row_product_does_not(self, rank):
        a = random_symmetric(rank, 2, 1, 7)
        moved = oracles.transform(a, self.UNIMODULAR)
        assert moved != a
        assert engine.row_product(moved) == engine.row_product(a) != 0
