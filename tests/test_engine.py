"""The signed-permutation engine: products, gradients, coset restriction
and the permutation tensors contracted through them."""

import inspect
import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (SingularTensorError, SymTensor,
                      coset_restricted_product_counted, epsilon_determinant,
                      epsilon_inverse, epsilon_product,
                      epsilon_product_gradient, from_matrix, identity,
                      multiplicity, permutation_sign, random_symmetric,
                      signed_permutations)
from hypermat import engine, evenrank, invariants, rank2, suites
from hypermat.invariants import invariant_of_order
from hypermat.tensor import canonical_keys, contract_full, sym_outer

import oracles

SAMPLE_A = SymTensor.from_entries(4, 2, {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1,
                                     (0, 0, 1, 1): 1})


class TestSignedPermutations:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_lexicographic_with_correct_parity(self, dim):
        perms = signed_permutations(dim)
        assert [p for p, _ in perms] == sorted(p for p, _ in perms)
        assert len(perms) == math.factorial(dim)
        for perm, sign in perms:
            assert sign == oracles.sign_of(perm)

    def test_permutation_sign(self):
        assert permutation_sign((0, 1, 2)) == 1
        assert permutation_sign((1, 0, 2)) == -1
        assert permutation_sign((2, 0, 1)) == 1


class TestEpsilonProduct:
    def test_identity_pair(self):
        assert epsilon_product([identity(2), identity(2)]) == 2

    def test_fourth_rank_example(self):
        assert epsilon_product([SAMPLE_A, SAMPLE_A]) == 8

    def test_odd_rank_vanishes(self):
        s = random_symmetric(3, 2, 3, 9)
        assert epsilon_product([s, s]) == 0

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_odd_rank_vanishes_all_dims(self, dim):
        s = random_symmetric(3, dim, dim + 40, 7)
        assert epsilon_product([s] * dim) == 0

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_rank2_equals_leibniz(self, dim):
        a = random_symmetric(2, dim, dim, 9)
        assert epsilon_product([a] * dim) == \
            math.factorial(dim) * oracles.leibniz_det(a)

    @pytest.mark.parametrize("rank,dim", [(2, 2), (3, 2), (4, 2), (6, 2),
                                          (2, 3), (3, 3)])
    def test_matches_full_enumeration_oracle(self, rank, dim):
        factors = [random_symmetric(rank, dim, 60 + t, 5) for t in range(dim)]
        assert epsilon_product(factors) == oracles.brute_epsilon_product(factors)

    @pytest.mark.parametrize("rank,dim", [(2, 3), (4, 2)])
    def test_multilinear_in_each_slot(self, rank, dim):
        base = [random_symmetric(rank, dim, 70 + t, 5) for t in range(dim)]
        x = random_symmetric(rank, dim, 80, 5)
        y = random_symmetric(rank, dim, 81, 5)
        alpha, beta = Fraction(2, 3), Fraction(-5, 7)
        for slot in range(dim):
            mixed = list(base)
            mixed[slot] = x * alpha + y * beta
            with_x = list(base)
            with_x[slot] = x
            with_y = list(base)
            with_y[slot] = y
            assert epsilon_product(mixed) == \
                alpha * epsilon_product(with_x) + beta * epsilon_product(with_y)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            epsilon_product([identity(2), identity(3)])
        with pytest.raises(ValueError):
            epsilon_product([identity(2)])


class TestGradient:
    def test_cofactor_pattern(self):
        a = from_matrix([[2, 1], [1, 3]])
        grad = epsilon_product_gradient([a, a], 0)
        assert dict(grad.items_sorted()) == {(0, 0): Fraction(3),
                                             (0, 1): Fraction(-1),
                                             (1, 1): Fraction(2)}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_scaled_slot_gradient_is_the_inverse(self, dim):
        a = random_symmetric(4, dim, 90 + dim, 5)
        det = epsilon_determinant(a)
        assert det != 0
        grad = epsilon_product_gradient([a] * dim, 0)
        scaled = grad * (Fraction(1, math.factorial(dim - 1)) / det)
        assert scaled == epsilon_inverse(a)

    def test_vanishing_factor_annihilates(self):
        zero = SymTensor.zero(2, 3)
        other = random_symmetric(2, 3, 95, 5)
        grad = epsilon_product_gradient([zero, zero, other], 0)
        assert grad.is_zero()

    @pytest.mark.parametrize("rank,dim", [(2, 2), (2, 3), (4, 2), (3, 3)])
    def test_matches_exact_directional_oracle(self, rank, dim):
        factors = [random_symmetric(rank, dim, 100 + t, 5) for t in range(dim)]
        for slot in range(dim):
            grad = epsilon_product_gradient(factors, slot)
            for key in canonical_keys(rank, dim):
                direction = oracles.basis_direction(rank, dim, key)

                def shifted(tensor):
                    replaced = list(factors)
                    replaced[slot] = tensor
                    return epsilon_product(replaced)

                # linear in every slot, so degree one suffices
                derivative = oracles.directional_derivative(
                    shifted, factors[slot], direction, 1)
                assert derivative == multiplicity(key) * grad.component(key)

    @pytest.mark.parametrize("rank,dim", [(2, 3), (4, 2)])
    def test_euler_homogeneity(self, rank, dim):
        factors = [random_symmetric(rank, dim, 110 + t, 5) for t in range(dim)]
        value = epsilon_product(factors)
        for slot in range(dim):
            grad = epsilon_product_gradient(factors, slot)
            assert contract_full(grad, factors[slot]) == value

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_the_slot_permutation_sign_law(self, rank):
        # a gradient is served by its held factors, sorted, and signed by
        # sgn(pi)**r of the permutation that puts the freed slot first and
        # the held factors in order: at odd rank a reordering flips it
        base = [_coprime_factor(rank, 3), _sparse_factor(rank, 3, 250 + rank),
                random_symmetric(rank, 3, 260 + rank, 5)]
        direction = random_symmetric(rank, 3, 270 + rank, 5)
        for perm in itertools.permutations(range(3)):
            factors = [base[t] for t in perm]
            for slot in range(3):
                grad = epsilon_product_gradient(factors, slot)
                assert not grad.is_zero()
                if rank == 5:
                    # (3!)**5 terms per brute sum: recontract instead
                    value = epsilon_product(factors)
                    assert value != 0
                    assert oracles.brute_contract_full(grad, factors[slot]) == value
                    continue

                def shifted(tensor):
                    replaced = list(factors)
                    replaced[slot] = tensor
                    return oracles.brute_epsilon_product(replaced)

                # linear in every slot, so degree one suffices
                derivative = oracles.directional_derivative(
                    shifted, factors[slot], direction, 1)
                assert derivative != 0
                assert derivative == oracles.brute_contract_full(grad, direction)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_a_one_dimensional_gradient_holds_no_factor(self, rank):
        t = SymTensor.from_entries(rank, 1, {(0,) * rank: 5})
        assert dict(epsilon_product_gradient([t], 0).items_sorted()) == {(0,) * rank: 1}


class TestCosetRestriction:
    def test_fourth_rank_two_dims(self):
        value, count = coset_restricted_product_counted([SAMPLE_A, SAMPLE_A], 2)
        assert value == epsilon_product([SAMPLE_A, SAMPLE_A]) == 8
        assert count == math.comb(2, 2) * math.factorial(2) ** 3

    def test_fourth_rank_three_dims_mixed(self):
        a = random_symmetric(4, 3, 3, 5)
        g = random_symmetric(4, 3, 4, 5)
        factors = [a, g, g]
        value, count = coset_restricted_product_counted(factors, 1)
        assert value == epsilon_product(factors)
        assert count == math.comb(3, 1) * math.factorial(3) ** 3
        assert count < math.factorial(3) ** 4

    def test_rank2_full_block_is_leibniz(self):
        a = random_symmetric(2, 3, 5, 9)
        value = coset_restricted_product_counted([a, a, a], 3)[0]
        assert value == math.factorial(3) * oracles.leibniz_det(a)

    @pytest.mark.parametrize("split", [0, 1, 2, 3])
    def test_every_split_matches_full_sum(self, split):
        a = random_symmetric(2, 3, 6, 7)
        g = random_symmetric(2, 3, 7, 7)
        factors = [a] * split + [g] * (3 - split)
        value = coset_restricted_product_counted(factors, split)[0]
        assert value == epsilon_product(factors)

    def test_preconditions(self):
        s = random_symmetric(3, 2, 8, 5)
        with pytest.raises(ValueError, match="even"):
            coset_restricted_product_counted([s, s], 2)
        a = random_symmetric(2, 3, 9, 5)
        b = random_symmetric(2, 3, 10, 5)
        with pytest.raises(ValueError, match="block"):
            coset_restricted_product_counted([a, b, b], 2)


class TestEpsilonInverse:
    def test_singular(self):
        with pytest.raises(SingularTensorError):
            epsilon_inverse(from_matrix([[1, 1], [1, 1]]))


@pytest.mark.parametrize("rank,dim", [(2, 3), (4, 2), (4, 3)])
def test_the_order_two_permutation_tensor_polarizes_c2(rank, dim):
    # c_2's permutation tensor contracted with a and b is eps(a b g^(d-2))
    # over 2! (d-2)! det(g), and c_2(a+b) - c_2(a) - c_2(b) is twice that
    a, b = (random_symmetric(rank, dim, seed, 5) for seed in (41, 42))
    g = suites.random_invertible(rank, dim, 43)
    polarized = (invariant_of_order(a + b, g, 2) - invariant_of_order(a, g, 2)
                 - invariant_of_order(b, g, 2))
    assert polarized != 0
    assert polarized == epsilon_product([a, b] + [g] * (dim - 2)) / (
        math.factorial(dim - 2) * epsilon_determinant(g))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(2, 3))
def test_gradient_recontraction_property(seed, dim):
    factors = [random_symmetric(2, dim, seed + t, 5) for t in range(dim)]
    value = epsilon_product(factors)
    grad = epsilon_product_gradient(factors, dim - 1)
    assert contract_full(grad, factors[dim - 1]) == value


def _coprime_factor(rank, dim):
    # denominators 7, 11 and 13 in turn, so no two neighbouring entries
    # share a scale
    return SymTensor.from_entries(rank, dim, {
        key: Fraction((-1) ** n * (n + 2), (7, 11, 13)[n % 3])
        for n, key in enumerate(canonical_keys(rank, dim))})


def _sparse_factor(rank, dim, seed):
    # every other stored entry of a random tensor set to zero
    full = random_symmetric(rank, dim, seed, 5)
    keys = sorted(full.entries)
    return SymTensor.from_entries(rank, dim, {k: full.entries[k] for k in keys[::2]})


REPEATED_PATTERNS = {2: ("aa", "zz"),
                     3: ("aag", "aga", "zaz", "aaa"),
                     4: ("gaag", "agag", "azza")}


@pytest.mark.parametrize("rank,dim", [(2, 3), (2, 4), (4, 2), (3, 3), (6, 2)])
def test_identical_factors_match_the_oracles(rank, dim):
    named = {"a": _coprime_factor(rank, dim),
             "z": _sparse_factor(rank, dim, 130 + rank),
             "g": random_symmetric(rank, dim, 140 + rank, 5)}
    assert any(not v for v in
               (named["z"].component(k) for k in canonical_keys(rank, dim)))
    for pattern in REPEATED_PATTERNS[dim]:
        factors = [named[c] for c in pattern]
        value = epsilon_product(factors)
        assert isinstance(value, Fraction)
        assert value == oracles.brute_epsilon_product(factors)
        for slot in range(dim):
            grad = epsilon_product_gradient(factors, slot)
            assert all(isinstance(v, Fraction) for v in grad.entries.values())
            for key in canonical_keys(rank, dim):
                direction = oracles.basis_direction(rank, dim, key)

                def shifted(tensor):
                    replaced = list(factors)
                    replaced[slot] = tensor
                    return epsilon_product(replaced)

                derivative = oracles.directional_derivative(
                    shifted, factors[slot], direction, 1)
                assert derivative == multiplicity(key) * grad.component(key)


def _assert_gradients_are_derivatives(factors, slots):
    """Every canonical key of the gradient at each slot equals the exact
    directional derivative of the product (linear in the slot)."""
    rank, dim = factors[0].rank, factors[0].dim
    for slot in slots:
        grad = epsilon_product_gradient(factors, slot)
        for key in canonical_keys(rank, dim):
            def shifted(tensor):
                replaced = list(factors)
                replaced[slot] = tensor
                return epsilon_product(replaced)

            derivative = oracles.directional_derivative(
                shifted, factors[slot], oracles.basis_direction(rank, dim, key), 1)
            assert derivative == multiplicity(key) * grad.component(key)


class TestCoalescedStates:
    """Shapes with a level past the first, where the kernel merges partial
    terms whose held index prefixes agree as multisets, and states that
    differ only by a permutation of the positions of identical factors."""

    @pytest.mark.parametrize("pattern", ["azg", "aga"])
    def test_rank6_dim3_matches_the_oracle(self, pattern):
        named = {"a": _coprime_factor(6, 3), "z": _sparse_factor(6, 3, 150),
                 "g": random_symmetric(6, 3, 151, 5)}
        factors = [named[c] for c in pattern]
        value = epsilon_product(factors)
        assert isinstance(value, Fraction)
        assert value == oracles.brute_epsilon_product(factors)

    @pytest.mark.parametrize("rank,dim", [(4, 4), (5, 3), (6, 3)])
    def test_gradient_recontracts_to_the_product(self, rank, dim):
        a = _coprime_factor(rank, dim)
        z = _sparse_factor(rank, dim, 160 + rank)
        g = random_symmetric(rank, dim, 170 + rank, 5)
        for factors in ([a, z, g, a][:dim], [z, a, z, g][:dim]):
            value = epsilon_product(factors)
            if rank % 2 == 0:
                assert value != 0
            for slot in range(dim):
                grad = epsilon_product_gradient(factors, slot)
                assert contract_full(grad, factors[slot]) == value

    def test_float_gradient_matches_the_exact_one(self):
        # a lone freed slot between two identical factors: the gradient is
        # exact per orbit, so every canonical key meets the exact
        # directional derivative (the product is linear in the slot)
        a, b = (random_symmetric(6, 3, 190 + t, 5) for t in (0, 1))
        grad = epsilon_product_gradient([a, b, a], 1)
        assert not grad.is_zero()
        for key in canonical_keys(6, 3):
            derivative = oracles.directional_derivative(
                lambda t: epsilon_product([a, t, a]), b,
                oracles.basis_direction(6, 3, key), 1)
            assert derivative == multiplicity(key) * grad.component(key)

    def test_canonical_form_sorts_within_each_class(self):
        # the kernel holds one class, the d-1 copies of a tensor, as one
        # run: a cycle of three is even, a swap odd, and the parity counts
        # at an odd count of levels only
        assert engine._canonical((2, 0, 1), 1) == ((0, 1, 2), 1)
        assert engine._canonical((1, 0, 2), 1) == ((0, 1, 2), -1)
        assert engine._canonical((1, 0, 2), 0) == ((0, 1, 2), 1)
        assert engine._canonical((9, 3, 5, 1), 1) == ((1, 3, 5, 9), -1)
        # equal prefixes: the continuation is 0 at an odd count only
        assert engine._canonical((4, 7, 4), 1)[1] == 0
        assert engine._canonical((7, 4, 7, 4), 0) == ((4, 4, 7, 7), 1)

    @pytest.mark.parametrize("rank", [3, 5])
    def test_odd_rank_repeated_factors_cancel(self, rank):
        # odd rank enumerates every lead; the states of a repeated factor
        # cancel after the first level, and a gradient that frees one copy
        # holds two distinct factors and does not vanish
        a = _coprime_factor(rank, 3)
        g = random_symmetric(rank, 3, 200 + rank, 5)
        for factors in ([a, a, g], [a, g, a]):
            assert epsilon_product(factors) == 0
            assert oracles.brute_epsilon_product(factors) == 0
            assert not epsilon_product_gradient(factors, factors.index(g)).entries
            assert epsilon_product_gradient(factors, 0).entries
            _assert_gradients_are_derivatives(factors, range(3))

    @pytest.mark.parametrize("rank", [4, 6])
    def test_a_freed_copy_and_non_adjacent_classes(self, rank):
        # [a, a, g] freed at slot 1 holds a once: its copy is not in a
        # class; [a, g, a] puts one class on positions 0 and 2, which the
        # gradient request sorts into one run
        a = _coprime_factor(rank, 3)
        g = random_symmetric(rank, 3, 210 + rank, 5)
        if rank == 4:
            for factors in ([a, a, g], [a, g, a]):
                assert epsilon_product(factors) == oracles.brute_epsilon_product(factors)
        _assert_gradients_are_derivatives([a, a, g], [1])
        _assert_gradients_are_derivatives([a, g, a], range(3))
        assert epsilon_product_gradient([a, a, g], 1).entries

    def test_rank4_dim4_coset_matches_the_unrestricted_sum(self):
        a, g = (random_symmetric(4, 4, 220 + t, 5) for t in (0, 1))
        factors = [a, a, g, g]
        value = coset_restricted_product_counted(factors, 2)[0]
        assert value != 0
        assert value == engine._enumerate(factors) == epsilon_product([a, g, g, a])

    @pytest.mark.parametrize("rank,dim", [(2, 4), (4, 3), (3, 3), (6, 2)])
    def test_an_unrestricted_request_covers_every_term(self, rank, dim):
        # d copies merge their lead states, and no lead is left out
        t = random_symmetric(rank, dim, 250 + rank, 5)
        value = epsilon_product([t] * dim)
        assert contract_full(epsilon_product_gradient([t] * dim, 0), t) == value
        assert value == (0 if rank % 2 else math.factorial(dim) * epsilon_determinant(t))


class TestPositionDP:
    """Requests with no freed slot run the position DP: full sums, coset
    sums and row products, against the engine-free oracles."""

    @pytest.mark.parametrize("rank,dim", [(2, 1), (3, 1), (4, 1), (2, 3), (3, 3),
                                          (4, 3), (5, 2), (6, 2), (2, 4)])
    def test_full_sums_of_mixed_factors(self, rank, dim):
        a = _coprime_factor(rank, dim)
        g = _sparse_factor(rank, dim, 300 + rank)
        b = random_symmetric(rank, dim, 310 + rank, 5)
        for pattern in ("aga", "abg", "gab", "aaa"):
            factors = [{"a": a, "g": g, "b": b}[c] for c in (pattern * dim)[:dim]]
            assert epsilon_product(factors) == oracles.brute_epsilon_product(factors)

    @pytest.mark.parametrize("rank,dim", [(2, 1), (2, 3), (2, 4), (4, 2), (4, 3), (6, 2)])
    def test_coset_blocks_with_g_equal_to_a(self, rank, dim):
        a = _coprime_factor(rank, dim)
        g = random_symmetric(rank, dim, 320 + rank, 5)
        full = oracles.brute_epsilon_product([a] * dim)
        for split in range(dim + 1):
            value, count = coset_restricted_product_counted([a] * dim, split)
            assert value == full
            assert count == math.comb(dim, split) * math.factorial(dim) ** (rank - 1)
            mixed = [a] * split + [g] * (dim - split)
            assert (coset_restricted_product_counted(mixed, split)[0]
                    == oracles.brute_epsilon_product(mixed))

    # at rank 1 the row plan holds no mask: the row product is the product
    # of the entries
    @pytest.mark.parametrize("rank,dim", [(1, 1), (1, 3), (2, 1), (3, 1), (2, 4), (3, 3),
                                          (4, 3), (5, 3)])
    def test_row_products(self, rank, dim):
        a = _coprime_factor(rank, dim)
        assert engine.row_product(a) == oracles.brute_row_product_det(a)


PAIR_SHAPES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (4, 2), (4, 3), (4, 4),
               (6, 2), (6, 3)]

# the shapes whose sum over d factors the oracles enumerate: (d!)**r <= 1296
ORACLE_SHAPES = [(rank, dim) for rank in range(1, 7) for dim in range(1, 5)
                 if math.factorial(dim) ** rank <= 1296]


def _oracle_gradient(factors, slot):
    """The gradient of the full sum of ``factors`` at ``slot``, engine-free:
    per canonical key the brute directional derivative along the key's
    basis direction over the key's multiplicity. The sum is linear in the
    slot, so the derivative is taken at zero, where most terms of the
    brute sum stop at the slot's first zero component."""
    rank, dim = factors[0].rank, factors[0].dim

    def shifted(tensor):
        return oracles.brute_epsilon_product([*factors[:slot], tensor, *factors[slot + 1:]])

    return SymTensor.from_entries(rank, dim, {
        key: oracles.directional_derivative(
            shifted, SymTensor.zero(rank, dim), oracles.basis_direction(rank, dim, key), 1)
        / multiplicity(key) for key in canonical_keys(rank, dim)})


def _pair_of(case, rank, dim):
    """(a, g): negative entries over unequal scales, a zero factor on
    either side, or a == g."""
    a = _coprime_factor(rank, dim)
    g = random_symmetric(rank, dim, 250 + 10 * rank + dim, 5) * Fraction(-3, 4)
    zero = SymTensor.zero(rank, dim)
    return {"unequal": (a, g), "zero_a": (zero, g), "zero_g": (a, zero),
            "equal": (g, g)}[case]


class TestPairs:
    """The packed pass of a pair against the unpacked routes: its digits
    are every full sum of a^s g^(d-s) and every gradient holding
    a^j g^(d-1-j), at any even shape, whether or not it is polarized."""

    @pytest.mark.parametrize("case", ["unequal", "zero_a", "zero_g", "equal"])
    @pytest.mark.parametrize("rank,dim", PAIR_SHAPES)
    def test_the_digits_are_the_sums(self, case, rank, dim):
        a, g = _pair_of(case, rank, dim)
        sums = engine._packed(a, g, 0)
        factors = [[a] * s + [g] * (dim - s) for s in range(dim + 1)]
        assert sums == tuple(map(engine._enumerate, factors))
        if math.factorial(dim) ** rank <= 1296:
            assert sums == tuple(map(oracles.brute_epsilon_product, factors))

    @pytest.mark.parametrize("case", ["unequal", "zero_a", "zero_g", "equal"])
    @pytest.mark.parametrize("rank,dim", [*PAIR_SHAPES, (6, 4)])
    def test_the_digits_are_the_gradients(self, case, rank, dim):
        # the backward pass of the row plan over d packed copies, the
        # copies of a and of g included, against the unpacked route: the
        # sign-level kernel for the copies and the full plan's walk, which
        # shares the backward pass, for the mixed digits, so those are
        # checked against the oracle too wherever it enumerates the sum
        a, g = _pair_of(case, rank, dim)
        digits = engine._packed(a, g, 1)
        assert digits == tuple(
            engine._gradient_sum(rank, dim, *[a] * j, *[g] * (dim - 1 - j))
            for j in range(dim))
        if math.factorial(dim) ** rank <= 1296:
            for j in range(1, dim - 1):
                assert digits[j] == _oracle_gradient([a, *[a] * j, *[g] * (dim - 1 - j)], 0)

    @pytest.mark.parametrize("row", [True, False])
    @pytest.mark.parametrize("rank,dim", ORACLE_SHAPES)
    def test_the_backward_pass_is_the_derivative(self, rank, dim, row):
        # over d copies of one integer form, the derivative in each stored
        # numerator of the row product or of the full sum, taken by finite
        # differences of the oracle along that key's basis direction
        t = SymTensor(rank, dim, _coprime_factor(rank, dim).form[0])
        steps, _ = engine._position_plan(rank, dim, row)
        values = engine._position_values(steps, [t.form[0]] * dim)
        assert values[-1] == [(engine.row_product(t) if row
                               else epsilon_product([t] * dim))]
        oracle = (oracles.brute_row_product_det if row
                  else lambda x: oracles.brute_epsilon_product([x] * dim))
        assert engine._position_derivative(steps, [t.form[0]] * dim, values) == [
            oracles.directional_derivative(
                oracle, t, oracles.basis_direction(rank, dim, key), dim)
            for key in canonical_keys(rank, dim)]

    def test_a_carry_left_over_raises(self):
        # 4 bits per digit: det(a) = 10**9 is c_3's digit and overflows it
        a = SymTensor.from_entries(2, 3, {(i, i): 1000 for i in range(3)})
        g = identity(3)
        steps, _ = engine._position_plan(2, 3, True)

        def packed_sum(bits):
            packed = [(x << bits) + y for x, y in zip(a.form[0], g.form[0])]
            return engine._position_sum(steps, [packed] * 3)

        assert engine._digits(packed_sum(40), 40, 4) == [1, 3000, 3 * 10 ** 6, 10 ** 9]
        with pytest.raises(RuntimeError, match="carries past its 4 digits"):
            engine._digits(packed_sum(4), 4, 4)


# held patterns of two or more classes, each in two orders of positions:
# the doubled class first or last in order by form, and distinct factors
WALK_PATTERNS = {3: (("ab", "ba"),),
                 4: (("aab", "aba"), ("abb", "bab"), ("abc", "cab"))}


class TestTheWalk:
    """A held multiset of two or more classes takes the derivative at step
    0 of one backward walk of the full plan and builds no sign-level
    plan: every pattern freed at every slot, at every shape whose sum the
    oracles enumerate ((d!)**r <= 1296), against the engine-free
    oracles. The pair's packed pass is turned off, so a polarized shape
    takes the walk too. The gradient is linear and does not read the
    freed factor, so one freed factor serves; the second order of a
    pattern is taken at odd rank only, where it can flip the sign."""

    @staticmethod
    def _walked(rank, dim):
        """Every (factors, slot) of the held patterns with the freed
        factor inserted at each slot."""
        named = {"a": _coprime_factor(rank, dim),
                 "b": random_symmetric(rank, dim, 400 + rank, 5) * Fraction(-2, 3),
                 "c": _sparse_factor(rank, dim, 410 + rank),
                 "f": random_symmetric(rank, dim, 420 + rank, 5)}
        for orders in WALK_PATTERNS[dim]:
            for pattern in orders[:2 if rank % 2 else 1]:
                held = [named[c] for c in pattern]
                for slot in range(dim):
                    yield [*held[:slot], named["f"], *held[slot:]], slot

    @pytest.mark.parametrize("rank,dim", [(rank, dim) for rank, dim in ORACLE_SHAPES
                                          if dim >= 3])
    def test_every_held_pattern_at_every_slot(self, monkeypatch, rank, dim):
        monkeypatch.setattr(engine, "_polarized", lambda rank, dim: False)
        plans = engine._plan.cache_info()
        for factors, slot in self._walked(rank, dim):
            assert epsilon_product_gradient(factors, slot) == _oracle_gradient(factors, slot)
        assert engine._plan.cache_info() == plans

    def test_rank5_along_a_direction(self):
        # (3!)**5 terms per brute sum: one dense direction per gradient
        direction = random_symmetric(5, 3, 430, 5)
        plans = engine._plan.cache_info()
        for factors, slot in self._walked(5, 3):
            def shifted(tensor):
                return oracles.brute_epsilon_product(
                    [*factors[:slot], tensor, *factors[slot + 1:]])

            derivative = oracles.directional_derivative(
                shifted, SymTensor.zero(5, 3), direction, 1)
            assert derivative != 0
            grad = epsilon_product_gradient(factors, slot)
            assert oracles.brute_contract_full(grad, direction) == derivative
        assert engine._plan.cache_info() == plans


def _diagonal(rank, dim):
    # entries 1, -3/2, 5/3, ...: distinct scales, product known
    return SymTensor.from_entries(rank, dim, {
        (i,) * rank: Fraction((-1) ** i * (2 * i + 1), i + 1) for i in range(dim)})


@pytest.mark.parametrize("rank,dim", [(2, 10), (4, 6), (8, 4), (3, 8), (5, 5)])
def test_a_diagonal_determinant_is_the_product_of_its_entries(rank, dim):
    # past the brute oracles' reach: rank4 d=6 has (6!)**3 row-product terms
    diagonal = _diagonal(rank, dim)
    product = math.prod(diagonal.component((i,) * rank) for i in range(dim))
    assert evenrank.cayley_det(diagonal) == product
    if rank % 2:
        assert epsilon_product([diagonal] * dim) == 0
    else:
        assert epsilon_determinant(diagonal) == product


def _mixing_matrix(dim):
    return [[(3 * i + 5 * j) % 7 - 3 + (i == j) for j in range(dim)]
            for i in range(dim)]


@pytest.mark.parametrize("rank,dim", [(2, 10), (4, 6)])
def test_a_moved_diagonal_determinant(rank, dim):
    # det(M.D) = det(M)**r det(D), with M.D dense
    matrix = _mixing_matrix(dim)
    det_m = oracles.matrix_det(matrix)
    assert det_m != 0
    diagonal = SymTensor.from_entries(rank, dim, {(i,) * rank: i + 1 for i in range(dim)})
    moved = oracles.transform(diagonal, matrix)
    assert len(moved.entries) == math.comb(dim + rank - 1, rank)
    assert epsilon_determinant(moved) == det_m ** rank * math.factorial(dim)


@pytest.mark.parametrize("rank,dim", [(2, 8), (4, 4), (6, 4)])
def test_a_moved_diagonal_inverse(rank, dim):
    # the inverse is contravariant: inv(M.D) = M**-T . inv(D), and the
    # inverse of diag(d_i) is diag(1/d_i)
    matrix = _mixing_matrix(dim)
    inverse = oracles.matrix_inverse(matrix)
    assert oracles.mat_mul(matrix, inverse) == [[int(i == j) for j in range(dim)]
                                                for i in range(dim)]
    diagonal = SymTensor.from_entries(rank, dim, {(i,) * rank: i + 1 for i in range(dim)})
    reciprocal = SymTensor.from_entries(rank, dim, {(i,) * rank: Fraction(1, i + 1)
                                                    for i in range(dim)})
    moved = oracles.transform(diagonal, matrix)
    assert len(moved.entries) == math.comb(dim + rank - 1, rank)
    transposed = [list(column) for column in zip(*inverse)]
    assert epsilon_inverse(moved) == oracles.transform(reciprocal, transposed)


@pytest.mark.parametrize("rank,dim", [(2, 6), (4, 4), (6, 3)])
def test_moved_diagonal_invariants(rank, dim):
    # c_s(M.D, M.I) = c_s(D, I) = e_s(1..d): det(M)**r cancels in the ratio
    matrix = _mixing_matrix(dim)
    assert oracles.matrix_det(matrix) != 0
    diagonal = SymTensor.from_entries(rank, dim, {(i,) * rank: i + 1 for i in range(dim)})
    unit = SymTensor.from_entries(rank, dim, {(i,) * rank: 1 for i in range(dim)})
    moved, moved_unit = oracles.transform(diagonal, matrix), oracles.transform(unit, matrix)
    assert len(moved.entries) == math.comb(dim + rank - 1, rank)
    assert invariants.invariant_values(moved, moved_unit) == tuple(
        sum(map(math.prod, itertools.combinations(range(1, dim + 1), s)))
        for s in range(dim + 1))


def test_the_work_budget_refuses_before_building(monkeypatch):
    # each route estimates its work from the shape: the position DP its
    # unreduced transitions, the sign-level kernel its (d!)**r terms over
    # the class sort's merge; both plans read the key codes first after
    # the estimate, and a refused request never does
    def build(*args):
        raise AssertionError("a plan was built for a refused request")

    monkeypatch.setattr(engine, "_key_codes", build)
    with pytest.raises(ValueError, match="budget"):
        engine.row_product(identity(20))
    with pytest.raises(ValueError, match="budget"):
        coset_restricted_product_counted([identity(20)] * 20, 10)
    with pytest.raises(ValueError, match="budget"):
        epsilon_product_gradient([identity(20)] * 20, 0)
    with pytest.raises(ValueError, match="budget"):
        # distinct held factors merge nothing: (10!)**2 = 1.3e13
        epsilon_product_gradient([identity(10) * k for k in range(1, 11)], 0)


class TestSharedSums:
    """Inside ``engine.shared_sums`` each distinct signed sum is enumerated
    once; counts are asserted, times are not."""

    @staticmethod
    def _count(monkeypatch):
        """Record every request for a sum (by rank, route and factor
        content) and every enumeration, by the position DP, the packed
        pass of a pair or ``_gradient_sum`` (the full plan's walk or the
        sign-level kernel), with the scope each ran in. The row product and the gradient of a held multiset are served
        once per block; a full sum goes to the position DP. On a polarized
        shape a coset sum strictly between the blocks' ends and the
        gradient of two held classes read the pair's packed pass, served
        once per block, so they are recorded as the pair's request, and so
        is the gradient of the copies of a tensor the block remembers in a
        pair; elsewhere the coset sum goes to the position DP."""
        requests, enumerated, scopes = [], [], []
        sums = {name: getattr(engine, name) for name in (
            "_enumerate", "_gradient_sum", "_packed", "row_product", "_held_gradient",
            "epsilon_product", "coset_restricted_product_counted")}

        def key(factors, route):
            return (factors[0].rank, route,
                    tuple(tuple(sorted(f.entries.items())) for f in factors))

        def enumeration(name):
            def run(*args, **kwargs):
                scope = engine._SHARED.get()
                if not any(scope is seen for seen in scopes):
                    scopes.append(scope)
                enumerated.append(scope)
                return sums[name](*args, **kwargs)
            return run

        def row_product(tensor):
            requests.append(key([tensor] * tensor.dim, (tuple(range(tensor.dim)),)))
            return sums["row_product"](tensor)

        def held_gradient(rank, dim, *held):
            forms = {f.form for f in held}
            pair = engine._remembered_pair(held[0]) if len(forms) == 1 else None
            if engine._polarized(rank, dim) and len(forms) == 2:
                requests.append(key([held[0], held[-1]], "gradients"))
            elif engine._polarized(rank, dim) and pair:
                requests.append(key(sorted(pair, key=lambda t: t.form), "gradients"))
            else:
                requests.append((rank, "held", tuple(tuple(sorted(f.entries.items()))
                                                     for f in held)))
            return sums["_held_gradient"](rank, dim, *held)

        def full(factors):
            requests.append(key(factors, ()))
            return sums["epsilon_product"](factors)

        def coset(factors, split):
            # split 0 and split d are recorded as row_product's request
            rank, dim = factors[0].rank, len(factors)
            if 0 < split < dim and engine._polarized(rank, dim):
                requests.append(key([factors[0], factors[split]], "sums"))
            elif 0 < split < dim:
                blocks = (tuple(range(split)), tuple(range(split, dim)))
                requests.append(key(factors, blocks))
            return sums["coset_restricted_product_counted"](factors, split)

        for name, recorded in (
                ("_enumerate", enumeration("_enumerate")),
                ("_gradient_sum", enumeration("_gradient_sum")),
                ("_packed", enumeration("_packed")),
                ("row_product", row_product), ("_held_gradient", held_gradient),
                ("epsilon_product", full),
                ("coset_restricted_product_counted", coset)):
            monkeypatch.setattr(engine, name, recorded)
        return requests, enumerated, scopes

    @pytest.mark.parametrize("suite,dim", [("rank4", 3), ("rank2", 2)])
    def test_one_sample_enumerates_each_distinct_request_once(
            self, monkeypatch, suite, dim):
        requests, enumerated, scopes = self._count(monkeypatch)
        report = suites.run_suite(suite, dim, 5, 1)
        assert report.all_pass
        assert len(enumerated) == len(set(requests)) < len(requests)
        assert len(scopes) == 1 and scopes[0] is not None

    def test_each_sample_starts_empty_and_no_scope_outlives_the_suite(
            self, monkeypatch):
        _, enumerated, scopes = self._count(monkeypatch)
        one = suites.run_suite("rank2", 2, 5, 1)
        assert engine._SHARED.get() is None
        first = len(enumerated)
        two = suites.run_suite("rank2", 2, 5, 2)
        assert engine._SHARED.get() is None
        # the first sample of the second call repeats the first call's
        # sample, and is enumerated again in a fresh scope
        assert one.checks == two.checks[:len(one.checks)]
        assert len(enumerated) - first > first
        assert len(scopes) == 3 and None not in scopes

    def test_requests_outside_a_scope_are_always_enumerated(self, monkeypatch):
        _, enumerated, _ = self._count(monkeypatch)
        epsilon_determinant(SAMPLE_A)
        epsilon_determinant(SAMPLE_A)
        assert enumerated == [None, None]

    def test_a_shared_result_is_immutable(self):
        shape = (SAMPLE_A.rank, SAMPLE_A.dim)
        with engine.shared_sums():
            grad = engine._held_gradient(*shape, SAMPLE_A)
            with pytest.raises(TypeError):
                grad.form[0][0] = 1
            with pytest.raises(AttributeError):
                grad.form = ((1,) * 5, 1)
            assert engine._held_gradient(*shape, SAMPLE_A) is grad
        assert engine._held_gradient(*shape, SAMPLE_A) == grad

    def test_a_nested_scope_starts_empty(self, monkeypatch):
        _, enumerated, _ = self._count(monkeypatch)
        with engine.shared_sums():
            epsilon_determinant(SAMPLE_A)
            with engine.shared_sums():
                epsilon_determinant(SAMPLE_A)
            epsilon_determinant(SAMPLE_A)
        assert len(enumerated) == 2

    def test_equal_tensors_share_one_determinant_and_inverse(self):
        copy = SymTensor(SAMPLE_A.rank, SAMPLE_A.dim, *SAMPLE_A.form)
        assert copy is not SAMPLE_A and copy == SAMPLE_A
        with engine.shared_sums():
            assert epsilon_inverse(copy) is epsilon_inverse(SAMPLE_A)
            assert epsilon_determinant(copy) is epsilon_determinant(SAMPLE_A)
            assert (invariant_of_order(copy, SAMPLE_A, 1)
                    is invariant_of_order(SAMPLE_A, copy, 1))
        outside = epsilon_inverse(SAMPLE_A)
        assert epsilon_inverse(copy) == outside
        assert epsilon_inverse(copy) is not outside

    def test_the_key_holds_the_shape(self):
        # 15 numerators each: a rank-4 d=3 form read as a rank-2 d=5 one
        square = random_symmetric(4, 3, 17, 5)
        matrix = SymTensor(2, 5, *square.form)
        expected = [epsilon_determinant(square), epsilon_determinant(matrix)]
        assert expected[0] != expected[1]
        with engine.shared_sums():
            assert [epsilon_determinant(square), epsilon_determinant(matrix)] == expected
        with engine.shared_sums():
            assert [epsilon_determinant(matrix), epsilon_determinant(square)] == expected[::-1]
        # c_1 of a tensor against itself is its dimension
        with engine.shared_sums():
            assert [invariant_of_order(square, square, 1),
                    invariant_of_order(matrix, matrix, 1)] == [3, 5]

    def test_a_singular_inverse_raises_every_time(self):
        singular = from_matrix([[1, 1], [1, 1]])
        with engine.shared_sums():
            for _ in range(2):
                with pytest.raises(SingularTensorError):
                    epsilon_inverse(singular)
                with pytest.raises(SingularTensorError):
                    invariant_of_order(identity(2), singular, 1)

    @pytest.mark.parametrize("suite,dim", [("rank2", 4), ("rank4", 3)])
    def test_one_sample_computes_each_distinct_invariant_once(
            self, monkeypatch, suite, dim):
        # an execution of the body of invariant_of_order is counted by the
        # _check_pair call it opens with
        body = inspect.unwrap(invariants.invariant_of_order).__code__
        check_pair, served = invariants._check_pair, invariants.invariant_of_order
        computed, requested = [], []

        def checked(a, g):
            if sys._getframe(1).f_code is body:
                computed.append((a.form, g.form))
            check_pair(a, g)

        def request(a, g, s):
            requested.append((a.form, g.form, s))
            return served(a, g, s)

        monkeypatch.setattr(invariants, "_check_pair", checked)
        monkeypatch.setattr(invariants, "invariant_of_order", request)
        assert suites.run_suite(suite, dim, 5, 1).all_pass
        assert len(computed) == len(set(requested)) < len(requested)

    @pytest.mark.parametrize("rank,dim", [(2, 4), (4, 3)])
    def test_invariant_values_shares_sums_outside_a_block(
            self, monkeypatch, rank, dim):
        a, g = (suites.random_invertible(rank, dim, seed) for seed in (21, 22))
        _, enumerated, scopes = self._count(monkeypatch)
        invariants.invariant_values(a, g)
        # c_0's sum is det(g)'s, which every order divides by, c_d's is
        # det(a)'s, and c_1..c_(d-1) read one packed pass over the pair
        assert len(enumerated) == 3
        assert len(scopes) == 1 and scopes[0] is not None

    @pytest.mark.parametrize("verifier,rank,dim", [
        (evenrank.verify_recurrence_even, 4, 3), (rank2.verify_recurrence2, 2, 3)])
    def test_a_recurrence_verifier_shares_sums_outside_a_block(
            self, monkeypatch, verifier, rank, dim):
        a, g = (suites.random_invertible(rank, dim, seed) for seed in (11, 12))
        _, enumerated, scopes = self._count(monkeypatch)
        with engine.shared_sums():
            outer = engine._SHARED.get()
            assert verifier(a, g).all_pass
            inside = len(enumerated)
            # a second run joins the enclosing block and enumerates nothing
            assert verifier(a, g).all_pass
            assert len(enumerated) == inside
        assert scopes == [outer]
        assert verifier(a, g).all_pass
        assert len(enumerated) == 2 * inside
        assert None not in scopes and len(scopes) == 2

    @pytest.mark.parametrize("suite,dim,count", [
        ("rank2", 2, 17), ("rank2", 3, 24), ("rank2", 4, 16), ("rank4", 2, 11),
        ("rank4", 3, 10), ("odd", 2, 4), ("odd", 3, 3)])
    def test_one_sample_enumeration_counts_are_pinned(
            self, monkeypatch, suite, dim, count):
        # one gradient per held multiset, and one full sum for det(a); a key
        # on the full factor list and the freed slot would make the
        # even-rank counts 22/32/42 and 13/18. At rank2 d=4 and rank4 d=3
        # each pair's sums and gradients are one packed pass each, where a
        # sum per coset split and a gradient per mixed multiset made 31 and
        # 15, and the copies of a tensor on the kernel 19 and 12; rank2's
        # inv(g), asked for before its pair, took the kernel and made 17
        _, enumerated, _ = self._count(monkeypatch)
        assert suites.run_suite(suite, dim, 5, 1).all_pass
        assert len(enumerated) == count

    @pytest.mark.parametrize("rank,dim", [(2, 3), (2, 4), (4, 3)])
    def test_a_held_multiset_is_one_gradient_by_every_route(
            self, monkeypatch, rank, dim):
        # grad_tensor at s+1, the slot term of grad_metric at s and both
        # sides of the bridge at s all hold a^s g^(d-s-1)
        # on a polarized shape the mixed multisets are digits of one packed
        # pass over the pair, and so are the copies of a, asked for after
        # c_1 has remembered the pair; the copies of g, asked for first,
        # take the kernel
        a, g = (suites.random_invertible(rank, dim, seed) for seed in (35, 36))
        held = []
        gradient_sum, packed = engine._gradient_sum, engine._packed

        def enumeration(rank, dim, *factors):
            held.append(("held", *sorted(f.form for f in factors)))
            return gradient_sum(rank, dim, *factors)

        def pair(x, y, freed):
            if freed:
                held.append(("pair", x.form, y.form))
            return packed(x, y, freed)

        monkeypatch.setattr(engine, "_gradient_sum", enumeration)
        monkeypatch.setattr(engine, "_packed", pair)
        with engine.shared_sums():
            for s in range(dim):
                invariants.grad_tensor(a, g, s + 1)
                invariants.grad_metric(a, g, s)
                assert invariants.metric_derivative_bridge_residual(a, g, s).is_zero()
        multisets = [("held", *sorted([a.form] * s + [g.form] * (dim - 1 - s)))
                     for s in range(dim)]
        if engine._polarized(rank, dim):
            multisets = [multisets[0], ("pair", *sorted([a.form, g.form]))]
        assert sorted(held) == sorted(multisets)
        held.clear()
        with engine.shared_sums():
            inverse = epsilon_inverse(a)
            assert invariants.grad_tensor(a, g, dim) == inverse * invariant_of_order(a, g, dim)
        assert held == [("held", *[a.form] * (dim - 1))]

    @pytest.mark.parametrize("rank,dim", [(2, 4), (4, 3), (6, 3)])
    def test_an_inverse_after_its_pair_is_a_digit_of_the_pair(
            self, monkeypatch, rank, dim):
        a, g = (suites.random_invertible(rank, dim, seed) for seed in (41, 42))
        outside = epsilon_inverse(a), epsilon_inverse(g)
        with engine.shared_sums():
            # asked before the pair, the inverses take the kernel
            before = epsilon_inverse(a), epsilon_inverse(g)
            invariants.invariant_values(a, g)
        calls, gradient_sum = [], engine._gradient_sum

        def counted(*args):
            calls.append(args)
            return gradient_sum(*args)

        monkeypatch.setattr(engine, "_gradient_sum", counted)
        with engine.shared_sums():
            invariants.invariant_values(a, g)
            assert engine._remembered_pair(a) == engine._remembered_pair(g) == (a, g)
            after = epsilon_inverse(a), epsilon_inverse(g)
        assert calls == []
        assert after == before == outside

    def test_a_tensor_in_two_pairs_reads_its_first_pair(self, monkeypatch):
        a, b, g = (suites.random_invertible(2, 4, seed) for seed in (43, 44, 45))
        passes, packed = [], engine._packed

        def pair(x, y, freed):
            passes.append((x.form, y.form, freed))
            return packed(x, y, freed)

        monkeypatch.setattr(engine, "_packed", pair)
        with engine.shared_sums():
            invariants.invariant_values(a, g)
            invariants.invariant_values(b, g)
            assert engine._remembered_pair(g) == (a, g)
            assert engine._remembered_pair(b) == (b, g)
            inverse = epsilon_inverse(g)
        assert passes == [(a.form, g.form, 0), (b.form, g.form, 0),
                          (*sorted([a.form, g.form]), 1)]
        assert inverse == epsilon_inverse(g)

    def test_no_pair_is_remembered_outside_a_block(self):
        a, g = (suites.random_invertible(4, 3, seed) for seed in (46, 47))
        invariants.invariant_values(a, g)
        assert engine._remembered_pair(a) is None
        with engine.shared_sums():
            assert engine._remembered_pair(a) is None

    @pytest.mark.parametrize("suite,dim,kernel", [
        (suites.rank4_suite, 3, 0), (suites.rank4_suite, 5, 0),
        (suites.rank2_suite, 4, 0)])
    def test_the_sign_level_kernel_calls_of_one_sample(
            self, monkeypatch, suite, dim, kernel):
        # every gradient of a sample is a digit of a pair: rank2's trace
        # route asks for inv(g) after the invariants have computed the
        # pair's sums
        calls, gradient_sum = [], engine._gradient_sum

        def counted(*args):
            calls.append(args)
            return gradient_sum(*args)

        monkeypatch.setattr(engine, "_gradient_sum", counted)
        assert suite(dim, 5, 1).all_pass
        assert len(calls) == kernel

    @pytest.mark.parametrize("rank,dim", [(2, 3), (4, 3)])
    def test_a_determinant_is_one_request_by_every_route(
            self, monkeypatch, rank, dim):
        # det(a), the row-product determinant and the numerator of c_d
        # fix the first permutation to the identity: one row product
        a, g = (suites.random_invertible(rank, dim, seed) for seed in (31, 32))
        copies = []
        enumerate_sum = engine._enumerate

        def enumeration(factors, row=False):
            if all(f == a for f in factors):
                copies.append(row)
            return enumerate_sum(factors, row)

        monkeypatch.setattr(engine, "_enumerate", enumeration)
        with engine.shared_sums():
            det = epsilon_determinant(a)
            assert evenrank.cayley_det(a) == det
            assert invariant_of_order(a, g, dim) == det / epsilon_determinant(g)
        assert copies == [True]


class TestPlans:
    """The states that reach the last level depend on the shape alone and
    are built once per shape by ``engine._plan``; cache activity and state
    counts are asserted, times are not."""

    def test_a_repeated_shape_builds_its_plan_once(self):
        s = random_symmetric(3, 4, 5, 5)
        lifted = sym_outer(s, s)
        engine._plan.cache_clear()
        first = engine.epsilon_product_gradient([lifted] * 4, 0)
        assert engine._plan.cache_info().misses == 1
        assert engine.epsilon_product_gradient([lifted] * 4, 0) == first
        assert engine._plan.cache_info().misses == 1

    def test_the_even_top_shape_mix_fits_the_cache(self):
        engine._plan.cache_clear()
        for suite, dim in (("rank2", 4), ("rank4", 3)):
            assert suites.run_suite(suite, dim, 1, 1).all_pass
        shapes = engine._plan.cache_info()
        assert shapes.currsize == shapes.misses < shapes.maxsize
        for suite, dim in (("rank2", 4), ("rank4", 3)):
            assert suites.run_suite(suite, dim, 2, 1).all_pass
        assert engine._plan.cache_info().misses == shapes.misses

    @pytest.mark.parametrize("rank,dim,call,widths", [
        pytest.param(6, 3, 0, (3, 12, 27, 63, 111), id="6-3-0-widths1"),
    ])
    def test_states_per_level(self, monkeypatch, rank, dim, call, widths):
        # the gradient at slot ``call`` of all copies, by the sign-level plan
        seen = []
        plan = engine._plan

        def recorded(*shape):
            result = plan(*shape)
            seen.append(result[3])
            return result

        monkeypatch.setattr(engine, "_plan", recorded)
        t = random_symmetric(rank, dim, 230 + rank, 5)
        epsilon_product_gradient([t] * dim, call)
        assert seen == [widths]

    @pytest.mark.parametrize("rank,dim,split,widths", [
        # a determinant: symbol 1 is the identity, the r-1 other masks are
        # sorted, so step t holds the multisets of r-1 t-subsets
        pytest.param(6, 3, None, (21, 21, 1), id="6-3-None"),
        pytest.param(4, 4, None, (20, 56, 20, 1), id="4-4-None"),
        # a coset sum of all copies is the full sum, which a shape below
        # the crossover runs on the full plan: all r masks are sorted, so
        # step t holds the multisets of r t-subsets
        pytest.param(2, 4, 2, (10, 21, 10, 1), id="2-4-split2"),
        pytest.param(4, 3, 1, (15, 15, 1), id="4-3-split1"),
    ])
    def test_states_per_step(self, monkeypatch, rank, dim, split, widths):
        seen = []
        plan = engine._position_plan

        def recorded(*shape):
            result = plan(*shape)
            seen.append(result[1])
            return result

        monkeypatch.setattr(engine, "_position_plan", recorded)
        t = random_symmetric(rank, dim, 230 + rank, 5)
        if split is None:
            epsilon_determinant(t)
        else:
            monkeypatch.setattr(engine, "_polarized", lambda rank, dim: False)
            coset_restricted_product_counted([t] * dim, split)
        assert seen == [widths]

    @pytest.mark.parametrize("rank,dim,plans", [(2, 3, 2), (2, 4, 1), (2, 5, 1), (4, 3, 1)])
    def test_the_plans_the_invariants_of_a_pair_build(self, rank, dim, plans):
        # c_0 and c_d read the row plan; every other c_s reads the full
        # plan below the crossover and the pair's packed pass over the row
        # plan from it on. A plan per coset split would make d plans
        a, g = (suites.random_invertible(rank, dim, seed) for seed in (37, 38))
        engine._position_plan.cache_clear()
        invariants.invariant_values(a, g)
        assert engine._position_plan.cache_info().misses == plans

    def test_a_rank2_d12_pair_never_builds_the_full_plan(self, monkeypatch):
        # the full plan holds about C(12, 6)**2 / 2 states at its widest
        # step, and took over a minute behind `hypermat invariants`
        built = []
        plan = engine._position_plan

        def recorded(*shape):
            built.append(shape)
            return plan(*shape)

        monkeypatch.setattr(engine, "_position_plan", recorded)
        diagonal = SymTensor.from_entries(2, 12, {(i, i): i + 1 for i in range(12)})
        assert invariants.invariant_values(diagonal, identity(12)) == tuple(
            sum(map(math.prod, itertools.combinations(range(1, 13), s)))
            for s in range(13))
        assert (2, 12, False) not in built and (2, 12, True) in built

    def test_shapes_that_differ_only_in_layout(self):
        # each request shares rank, dimension, freed slots and classes with
        # the one before and reuses no plan of it
        a, b, c = (_coprime_factor(3, 3), _sparse_factor(3, 3, 240),
                   random_symmetric(3, 3, 241, 5))
        engine._plan.cache_clear()
        for factors in ([a, a, b], [a, b, c], [a, b, a]):
            assert epsilon_product(factors) == oracles.brute_epsilon_product(factors)
        a, g = _coprime_factor(4, 3), random_symmetric(4, 3, 242, 5)
        for factors in ([a, a, a], [g, a, a]):
            assert (coset_restricted_product_counted(factors, 1)[0]
                    == oracles.brute_epsilon_product(factors))
        _assert_gradients_are_derivatives([a, g, a], [1])
