"""Canonical storage, multiplicities, symmetrized products, contractions
and the seeded generator."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (SymTensor, as_scalar, canonical_keys,
                      contract_full, contract_one_free, format_scalar,
                      epsilon_inverse, identity, multiplicity,
                      random_symmetric, sym_outer)

import oracles


class TestExactScalars:
    def test_lowest_terms_and_positive_denominator(self):
        value = as_scalar("4/6")
        assert (value.numerator, value.denominator) == (2, 3)
        value = Fraction(3, -9)
        assert (value.numerator, value.denominator) == (-1, 3)

    def test_product_with_reciprocal_is_one(self):
        for seed in range(20):
            value = random_symmetric(2, 2, seed, 9).max_abs()
            if value:
                assert value * (1 / value) == 1

    def test_zero_inversion_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            as_scalar(0.5)

    def test_formatting(self):
        assert format_scalar(Fraction(-3, 7)) == "-3/7"
        assert format_scalar(Fraction(8, 2)) == "4"

    @pytest.mark.parametrize("text, expected", [
        (" -4/6\n", Fraction(-2, 3)), ("+3", Fraction(3)),
        ("007/010", Fraction(7, 10)), ("-0", Fraction(0))])
    def test_rational_string_grammar(self, text, expected):
        assert as_scalar(text) == expected

    @pytest.mark.parametrize("text", [
        "1/0", "0/0", "-5/00", "1e10000000", "1e3", "0.5", ".5", "inf",
        "-inf", "nan", "1_000", "3 / 4", "1/-2", "/3", "3/", "", "+",
        "\u0663", "0x10"])
    def test_malformed_rational_strings_raise_value_error(self, text):
        with pytest.raises(ValueError):
            as_scalar(text)


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity((0, 0, 0)) == 1
        assert multiplicity((0, 0, 1)) == 3
        assert multiplicity((0, 0, 1, 1)) == 6

    def test_counts_distinct_orderings(self):
        for key in [(0, 0, 1, 1), (0, 1, 2), (1, 1, 1, 2, 2), (0, 1, 1, 2)]:
            assert multiplicity(key) == len(set(itertools.permutations(key)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
    def test_multiplicities_sum_to_all_tuples(self, rank, dim):
        total = sum(multiplicity(k) for k in canonical_keys(rank, dim))
        assert total == dim ** rank


class TestComponents:
    def test_lookup_resolves_through_sorting(self):
        t = SymTensor.from_entries(4, 2, {(0, 0, 1, 1): 1})
        assert t.component((1, 0, 1, 0)) == 1

    def test_zero_tensor_lookup(self):
        z = SymTensor.zero(3, 2)
        assert z.component((0, 1, 0)) == 0

    def test_rational_component(self):
        t = SymTensor.from_entries(3, 2, {(0, 0, 1): "2/3"})
        assert t.component((0, 1, 0)) == Fraction(2, 3)

    def test_out_of_range_index(self):
        t = identity(2)
        with pytest.raises(IndexError):
            t.component((0, 2))
        with pytest.raises(ValueError):
            t.component((0, 1, 0))

    def test_duplicate_canonical_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SymTensor.from_entries(2, 2, [((0, 1), 1), ((1, 0), 2)])

    def test_inexact_values_need_opt_in(self):
        with pytest.raises(TypeError):
            SymTensor.from_entries(2, 2, {(0, 1): 0.5})
        t = SymTensor.from_entries(2, 2, {(0, 1): 0.5}, allow_inexact=True)
        assert t.component((1, 0)) == 0.5

    def test_booleans_are_not_integers(self):
        with pytest.raises(ValueError, match="integers"):
            SymTensor.from_entries(True, 2, {(0, 1): 1})
        with pytest.raises(ValueError, match="integers"):
            SymTensor.from_entries(2, True, {(0, 0): 1})
        with pytest.raises(ValueError, match="out of range"):
            SymTensor.from_entries(2, 2, {(0, True): 1})

    def test_stored_key_count_is_bounded(self):
        for rank, dim in [(3, 2), (4, 3), (6, 2)]:
            t = random_symmetric(rank, dim, 5, 9)
            assert len(t.entries) <= math.comb(dim + rank - 1, rank)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), rank=st.integers(1, 4),
           dim=st.integers(1, 3), data=st.data())
    def test_component_invariant_under_permutation(self, seed, rank, dim, data):
        t = random_symmetric(rank, dim, seed, 5)
        idx = tuple(data.draw(st.integers(0, dim - 1)) for _ in range(rank))
        shuffled = data.draw(st.permutations(idx))
        assert t.component(idx) == t.component(tuple(shuffled))


class TestArithmetic:
    def test_add_sub_scale(self):
        a = random_symmetric(3, 2, 1, 5)
        b = random_symmetric(3, 2, 2, 5)
        assert (a + b) - b == a
        assert a + (-a) == SymTensor.zero(3, 2)
        assert (a * Fraction(3, 2)) * Fraction(2, 3) == a
        assert (a * 0).is_zero()

    def test_max_abs(self):
        t = SymTensor.from_entries(2, 2, {(0, 0): "-7/2", (0, 1): 2})
        assert t.max_abs() == Fraction(7, 2)
        assert SymTensor.zero(2, 2).max_abs() == 0


class TestSymOuter:
    def test_single_corner(self):
        s = SymTensor.from_entries(3, 2, {(0, 0, 0): 1})
        lifted = sym_outer(s, s)
        assert dict(lifted.items_sorted()) == {(0,) * 6: Fraction(1)}

    def test_mixed_corner_coefficient(self):
        s = SymTensor.from_entries(3, 2, {(0, 0, 0): 1, (0, 1, 1): 1})
        lifted = sym_outer(s, s)
        assert lifted.component((0, 0, 0, 0, 1, 1)) == Fraction(2, 5)

    def test_opposite_corners_coefficient(self):
        # 20 distinct arrangements of {0,0,0,1,1,1}: 2 pair the corners,
        # 18 pair the mixed components
        s = SymTensor.from_entries(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
        lifted = sym_outer(s, s)
        assert lifted.component((0, 0, 0, 1, 1, 1)) == Fraction(1, 10)

    def test_matches_ordering_average_oracle(self):
        x = random_symmetric(3, 2, 11, 5)
        y = random_symmetric(3, 2, 12, 5)
        lifted = sym_outer(x, y)
        for key in canonical_keys(6, 2):
            assert lifted.component(key) == oracles.brute_sym_outer_component(x, y, key)

    def test_unequal_ranks_against_oracle(self):
        x = random_symmetric(2, 3, 13, 5)
        y = random_symmetric(1, 3, 14, 5)
        product = sym_outer(x, y)
        for key in [(0, 1, 2), (0, 0, 2), (1, 1, 1), (0, 2, 2)]:
            assert product.component(key) == oracles.brute_sym_outer_component(x, y, key)

    @settings(max_examples=20, deadline=None)
    @given(sx=st.integers(0, 2 ** 32), sy=st.integers(0, 2 ** 32),
           dim=st.integers(1, 3))
    def test_commutative(self, sx, sy, dim):
        x = random_symmetric(2, dim, sx, 5)
        y = random_symmetric(3, dim, sy, 5)
        assert sym_outer(x, y) == sym_outer(y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sym_outer(identity(2), identity(3))


class TestContractions:
    def test_full_identity(self):
        assert contract_full(identity(2), identity(2)) == 2

    def test_full_zero(self):
        z = SymTensor.zero(4, 2)
        assert contract_full(z, z) == 0

    def test_full_inverse_pairing_equals_dimension(self):
        a = SymTensor.from_entries(4, 2, {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1,
                                          (0, 0, 1, 1): 1})
        assert contract_full(epsilon_inverse(a), a) == 2

    @pytest.mark.parametrize("rank,dim", [(6, 2), (3, 3), (2, 3), (4, 3)])
    def test_full_matches_brute_force(self, rank, dim):
        x = random_symmetric(rank, dim, 21, 5)
        y = random_symmetric(rank, dim, 22, 5)
        assert contract_full(x, y) == oracles.brute_contract_full(x, y)

    def test_full_shape_mismatch(self):
        with pytest.raises(ValueError):
            contract_full(identity(2), random_symmetric(3, 2, 1, 5))

    def test_one_free_zero(self):
        z = SymTensor.zero(3, 2)
        arr = contract_one_free(z, z)
        assert all(arr[i, j] == 0 for i in range(2) for j in range(2))

    def test_one_free_matches_brute_force(self):
        x = random_symmetric(4, 3, 31, 5)
        y = random_symmetric(4, 3, 32, 5)
        arr = contract_one_free(x, y)
        for i in range(3):
            for j in range(3):
                expected = sum(
                    x.component((i,) + rest) * y.component((j,) + rest)
                    for rest in itertools.product(range(3), repeat=3))
                assert arr[i, j] == expected


class TestRandomSymmetric:
    def test_deterministic(self):
        assert random_symmetric(2, 2, 7, 9) == random_symmetric(2, 2, 7, 9)

    def test_seeds_differ(self):
        assert random_symmetric(2, 2, 7, 9) != random_symmetric(2, 2, 8, 9)

    def test_bounds(self):
        # reduction to lowest terms can only shrink both parts
        t = random_symmetric(4, 3, 1, 5)
        for value in t.entries.values():
            assert -5 <= value.numerator <= 5
            assert 1 <= value.denominator <= 5

    def test_key_budget(self):
        t = random_symmetric(3, 2, 2, 5)
        assert len(t.entries) <= 4  # C(2+3-1, 3)

    def test_bound_precondition(self):
        with pytest.raises(ValueError):
            random_symmetric(2, 2, 1, 0)
