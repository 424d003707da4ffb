"""Canonical storage, multiplicities, symmetrized products, contractions
and the seeded generator."""

import itertools
import math
from fractions import Fraction
from operator import add, mul, neg, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (SymTensor, as_scalar, canonical_keys,
                      contract_full, contract_one_free, format_scalar,
                      epsilon_inverse,
                      epsilon_product_gradient, identity, multiplicity,
                      random_symmetric, sym_outer)
from hypermat import tensor
from hypermat.documents import tensor_from_document
from hypermat.tensor import (flat_product, integer_table, linear_combination,
                             orbit_means, sym_product)

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

    def test_float_values_are_rejected(self):
        with pytest.raises(TypeError):
            SymTensor.from_entries(2, 2, {(0, 1): 0.5})

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


    def test_float_scalars_are_rejected(self):
        a = random_symmetric(3, 2, 1, 5)
        for scalar in (0.5, 2.0, float("nan")):
            with pytest.raises(TypeError, match="exact rational"):
                a * scalar
            with pytest.raises(TypeError, match="exact rational"):
                scalar * a


SEEDS = st.integers(0, 2 ** 32)
RANKS = st.integers(2, 4)
DIMS = st.integers(2, 3)


class TestForm:
    """The stored form: integer numerators over one positive scale in
    lowest terms, with entries and integer tables derived from it."""

    @settings(max_examples=40, deadline=None)
    @given(sx=SEEDS, sy=SEEDS, rank=RANKS, dim=DIMS,
           scalar=st.fractions(max_denominator=12))
    def test_arithmetic_matches_per_entry_oracle(self, sx, sy, rank, dim, scalar):
        x = random_symmetric(rank, dim, sx, 7)
        y = random_symmetric(rank, dim, sy, 7)
        for result, op, operands in [
                (x + y, add, (x, y)), (x - y, sub, (x, y)), (-x, neg, (x,)),
                (x * scalar, mul, (x, scalar)), (scalar * x, mul, (x, scalar))]:
            assert result.entries == oracles.entrywise(op, rank, dim, *operands)
            assert result == SymTensor.from_entries(rank, dim, result.entries)
            numerators, scale = result.form
            assert scale >= 1 and math.gcd(scale, *numerators) == 1
            assert len(numerators) == math.comb(dim + rank - 1, rank)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, rank=RANKS, dim=DIMS)
    def test_equal_tensors_have_equal_forms(self, seed, rank, dim):
        t = random_symmetric(rank, dim, seed, 7)
        numerators, scale = t.form
        table, table_scale = integer_table(t)
        reordered = {tuple(reversed(key)): v for key, v in t.entries.items()}
        paths = [SymTensor.from_entries(rank, dim, dict(t.entries)),
                 SymTensor.from_entries(rank, dim, reordered),
                 SymTensor(rank, dim, [3 * n for n in numerators], 3 * scale),
                 (t * Fraction(7, 3)) * Fraction(3, 7),
                 t + SymTensor.zero(rank, dim),
                 (t + t) - t,
                 -(-t),
                 orbit_means(rank, dim, table, table_scale)]
        for other in paths:
            assert other.form == t.form
            assert other == t

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, rank=RANKS, dim=DIMS)
    def test_integer_table_is_cached_and_left_unchanged(self, seed, rank, dim):
        t = random_symmetric(rank, dim, seed, 7)
        cached = integer_table(t)
        table, scale = cached
        before = list(table)
        contract_one_free(t, t)
        sym_outer(t, t)
        epsilon_product_gradient([t] * dim, 0)
        assert integer_table(t) is cached
        assert table == before and cached[1] == scale

    def test_entries_is_a_dict(self):
        x = random_symmetric(3, 2, 1, 5)
        y = random_symmetric(3, 2, 2, 5)
        for t in (x, x + y, -x, x * Fraction(1, 2), sym_outer(x, y),
                  SymTensor.zero(3, 2), identity(3)):
            assert isinstance(t.entries, dict)

    def test_immutable_and_unhashable(self):
        t = random_symmetric(2, 2, 1, 5)
        for name, value in [("rank", 3), ("dim", 3), ("entries", {}),
                            ("form", ((0, 0, 0), 1)), ("extra", 1)]:
            with pytest.raises(AttributeError):
                setattr(t, name, value)
        with pytest.raises(AttributeError):
            del t.rank
        with pytest.raises(TypeError):
            hash(t)
        assert t == random_symmetric(2, 2, 1, 5)

    def test_constructor_reduces_and_checks(self):
        assert SymTensor(2, 2, [2, 4, -6], 4).form == ((1, 2, -3), 2)
        assert SymTensor(2, 2, [0, 0, 0], 5).form == ((0, 0, 0), 1)
        assert SymTensor(2, 2, [1, 0, 3], 2).entries == {
            (0, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}
        with pytest.raises(ValueError):
            SymTensor(2, 2, [1, 2], 1)
        with pytest.raises(ValueError):
            SymTensor(2, 2, [1, 2, 3], 0)
        with pytest.raises(TypeError):
            SymTensor(2, 2, [1, 2, 0.5], 1)

    def test_only_integer_numerators_are_constructed(self):
        # keyed values go through from_entries; the constructor takes one
        # integer numerator per canonical key and fails at once otherwise
        with pytest.raises(ValueError, match="numerators"):
            SymTensor(2, 2, {(0, 0): 0.5})
        with pytest.raises(TypeError):
            SymTensor(2, 2, [1, 0.5, 2])
        with pytest.raises(TypeError):
            SymTensor(2, 2, [1, Fraction(1, 2), 2])


class TestLinearCombination:
    """``linear_combination``: one form for a sum of scaled tensors, the
    kernel behind ``+``, ``-`` and every residual row."""

    @settings(max_examples=40, deadline=None)
    @given(seeds=st.lists(SEEDS, max_size=5), rank=RANKS, dim=DIMS, data=st.data())
    def test_matches_the_fraction_sum_over_entries(self, seeds, rank, dim, data):
        # each term drawn with its own bound, so the scales differ; zero
        # coefficients are drawn too
        terms = [(random_symmetric(rank, dim, seed, data.draw(st.integers(1, 9))),
                  data.draw(st.fractions(max_denominator=12)))
                 for seed in seeds]
        result = linear_combination(rank, dim, terms)
        expected = {}
        for key in canonical_keys(rank, dim):
            value = sum((c * t.entries.get(key, 0) for t, c in terms), Fraction(0))
            if value:
                expected[key] = value
        assert result.entries == expected
        numerators, scale = result.form
        assert scale >= 1 and math.gcd(scale, *numerators) == 1

    def test_no_terms_make_the_zero_tensor(self):
        assert linear_combination(3, 2, []).form == ((0, 0, 0, 0), 1)
        assert linear_combination(3, 2, []) == SymTensor.zero(3, 2)

    def test_zero_coefficients_add_nothing(self):
        a = SymTensor.from_entries(2, 2, {(0, 0): Fraction(1, 3), (0, 1): 5})
        b = SymTensor.from_entries(2, 2, {(1, 1): Fraction(2, 7)})
        assert linear_combination(2, 2, [(a, 0), (b, Fraction(0))]).is_zero()
        assert linear_combination(2, 2, [(a, 0), (b, 1)]).form == b.form
        assert linear_combination(2, 2, [(a, 1), (b, 0), (a, 0)]).form == a.form

    def test_mixed_scales_reduce_to_lowest_terms(self):
        # 1/6 - 1/3 * (1/2) cancels at (0, 0); the rest shares the scale 4
        a = SymTensor.from_entries(2, 2, {(0, 0): Fraction(1, 6), (1, 1): Fraction(3, 4)})
        b = SymTensor.from_entries(2, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(5, 8)})
        result = linear_combination(2, 2, [(a, 1), (b, Fraction(-1, 3))])
        assert result.entries == {(0, 1): Fraction(-5, 24), (1, 1): Fraction(3, 4)}
        assert result.form == ((0, -5, 18), 24)
        assert result == a - b * Fraction(1, 3)

    def test_a_shape_mismatch_raises_through_add_and_sub(self):
        a = random_symmetric(3, 2, 1, 5)
        for other in (random_symmetric(2, 2, 1, 5), random_symmetric(3, 3, 1, 5)):
            with pytest.raises(ValueError, match="shape mismatch: rank 3 dim 2 vs "
                               f"rank {other.rank} dim {other.dim}"):
                a + other
            with pytest.raises(ValueError, match="shape mismatch"):
                a - other
            with pytest.raises(ValueError, match="shape mismatch"):
                linear_combination(3, 2, [(a, 1), (other, 0)])

    def test_float_coefficients_are_rejected(self):
        a = random_symmetric(3, 2, 1, 5)
        with pytest.raises(TypeError, match="exact rational"):
            linear_combination(3, 2, [(a, 0.5)])


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


class TestFlatProduct:
    @staticmethod
    def _values(links):
        rows, scale = flat_product(*links)
        return [[Fraction(v, scale) for v in row] for row in rows]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_chain_of_distinct_factors(self, dim):
        # a g^ b with a != b is no symmetric matrix: nothing in the product
        # relies on the chain being a palindrome
        a, b = random_symmetric(2, dim, 51, 7), random_symmetric(2, dim, 52, 7)
        g_inv = epsilon_inverse(random_symmetric(2, dim, 53, 7))
        links = [(a, 1), (g_inv, 1), (b, 1)]
        product = self._values(links)
        assert product == oracles.dense_flat_product(links)
        assert product[0][1] != product[1][0]
        assert sym_product(*links) == oracles.symmetrized_from(
            2, dim, lambda idx: product[idx[0]][idx[1]])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_rank3_link_flattened_at_three(self, dim):
        # the lift candidate's shape: a rank-6 tensor's (d**3, d**3)
        # flattening times a rank-3 tensor as one column
        x, s = random_symmetric(6, dim, 54, 5), random_symmetric(3, dim, 55, 5)
        links = [(x, 3), (s, 3)]
        product = self._values(links)
        assert len(product) == dim ** 3 and {len(row) for row in product} == {1}
        assert product == oracles.dense_flat_product(links)
        assert sym_product(*links) == oracles.symmetrized_from(
            3, dim, lambda idx: product[sum(i * dim ** (2 - k)
                                            for k, i in enumerate(idx))][0])

    @pytest.mark.parametrize("shapes", [
        # (rank, dim, k) per link: 2**3 columns against 2 rows, where
        # map(mul, ...) would stop at the shorter row
        [(4, 2, 1), (4, 2, 1)],
        [(2, 2, 1), (3, 2, 2)],
        # dimensions 2 and 3 with equal inner sizes at k = 0
        [(2, 2, 2), (2, 3, 0)],
        # a flattening outside its tensor's rank
        [(2, 2, 1), (2, 2, 3)],
        [(2, 2, -1), (2, 2, 1)],
    ], ids=["inner-8-2", "inner-2-4", "dims-2-3", "k-above-rank", "k-negative"])
    def test_links_that_do_not_chain_raise(self, shapes):
        links = [(random_symmetric(rank, dim, seed, 5), k)
                 for seed, (rank, dim, k) in enumerate(shapes)]
        with pytest.raises(ValueError):
            flat_product(*links)


class TestIntegerTables:
    def test_entries_are_values_times_the_lcm(self):
        x = random_symmetric(3, 3, 41, 7)
        table, scale = integer_table(x)
        assert scale == math.lcm(*(v.denominator for v in x.entries.values()))
        # bound-7 denominators include coprime pairs, so the scale exceeds
        # every single denominator
        assert scale > max(v.denominator for v in x.entries.values())
        assert all(isinstance(v, int) for v in table)
        for flat, idx in enumerate(itertools.product(range(3), repeat=3)):
            assert Fraction(table[flat], scale) == x.component(idx)

    def test_building_and_loading_expand_no_ordered_index(self):
        # a rank-2 d=1000 tensor has 10**6 ordered indices, the document
        # bound, and 500500 canonical keys; only an integer table reads the
        # orbit table over the ordered indices
        tensor._orbits.cache_clear()
        assert SymTensor.zero(2, 1000).is_zero()
        assert identity(1000).component((999, 999)) == 1
        built = SymTensor.from_entries(
            2, 1000, [((i, i), i + 1) for i in range(1000)])
        loaded = tensor_from_document({"rank": 2, "dim": 1000, "entries": [
            {"index": [i, i], "value": str(i + 1)} for i in range(1000)]})
        assert loaded == built
        assert loaded.entries[(999, 999)] == 1000 and len(loaded.entries) == 1000
        assert tensor._orbits.cache_info().currsize == 0
        integer_table(random_symmetric(3, 2, 5))
        assert tensor._orbits.cache_info().currsize == 1
        tensor._keys.cache_clear()

    @pytest.mark.parametrize("rank,dim", [(4, 2), (4, 3), (3, 3)])
    def test_orbit_means_against_symmetrization(self, rank, dim):
        flat = [(7 * f) % 11 - 5 for f in range(dim ** rank)]
        expected = oracles.symmetrized_from(
            rank, dim, lambda idx: flat[sum(i * dim ** (rank - 1 - k)
                                            for k, i in enumerate(idx))])
        assert orbit_means(rank, dim, flat, 4) == expected * Fraction(1, 4)


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

    def test_matches_the_documented_stream(self):
        zero_numerators = 0
        for rank, dim in [(1, 3), (2, 2), (3, 3), (4, 2), (4, 3)]:
            for seed in (0, 1, 7, 2 ** 64 + 5):
                for bound in (1, 9):
                    draws = oracles.splitmix64_draws(rank, dim, seed, bound)
                    zero_numerators += sum(num == 0 for _, num, _ in draws)
                    values = {key: Fraction(num, den) for key, num, den in draws}
                    t = random_symmetric(rank, dim, seed, bound)
                    assert t == SymTensor.from_entries(rank, dim, values)
                    assert t.entries == {k: v for k, v in values.items() if v}
        assert zero_numerators

    def test_bound_precondition(self):
        with pytest.raises(ValueError):
            random_symmetric(2, 2, 1, 0)
