"""The signed-permutation engine: products, gradients, coset restriction
and permutation coefficient tensors."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (SingularTensorError, SymTensor,
                      coset_restricted_product,
                      coset_restricted_product_counted, epsilon_determinant,
                      epsilon_inverse, epsilon_product,
                      epsilon_product_gradient, from_matrix, identity,
                      materialize_permutation_tensor,
                      multiplicity, permutation_sign, random_symmetric,
                      signed_permutations)
from hypermat import engine, suites
from hypermat.tensor import canonical_keys, contract_full

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

    @pytest.mark.parametrize("rank,dim", [(2, 3), (4, 2)])
    def test_float_path_against_central_differences(self, rank, dim):
        exact_factors = [random_symmetric(rank, dim, 120 + t, 5)
                         for t in range(dim)]
        factors = [oracles.to_float(f) for f in exact_factors]
        grad = epsilon_product_gradient(factors, 0)
        for key in canonical_keys(rank, dim):
            def f(tensor):
                return epsilon_product([tensor] + factors[1:])

            difference = oracles.central_difference(f, exact_factors[0], key)
            formal = difference / multiplicity(key)
            analytic = float(grad.component(key))
            assert abs(formal - analytic) <= 1e-6 * max(1.0, abs(analytic))


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
        value = coset_restricted_product([a, a, a], 3)
        assert value == math.factorial(3) * oracles.leibniz_det(a)

    @pytest.mark.parametrize("split", [0, 1, 2, 3])
    def test_every_split_matches_full_sum(self, split):
        a = random_symmetric(2, 3, 6, 7)
        g = random_symmetric(2, 3, 7, 7)
        factors = [a] * split + [g] * (3 - split)
        assert coset_restricted_product(factors, split) == epsilon_product(factors)

    def test_preconditions(self):
        s = random_symmetric(3, 2, 8, 5)
        with pytest.raises(ValueError, match="even"):
            coset_restricted_product([s, s], 2)
        a = random_symmetric(2, 3, 9, 5)
        b = random_symmetric(2, 3, 10, 5)
        with pytest.raises(ValueError, match="block"):
            coset_restricted_product([a, b, b], 2)


class TestPermutationTensors:
    def test_order_one_is_the_inverse_metric(self):
        assert materialize_permutation_tensor(1, identity(2)) == {
            (0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
        g = from_matrix([[2, 1], [1, 3]])
        q1 = materialize_permutation_tensor(1, g)
        ginv = epsilon_inverse(g)
        for i in range(2):
            for j in range(2):
                assert q1[i, j] == ginv.component((i, j))

    def test_order_two_entries(self):
        q2 = materialize_permutation_tensor(2, identity(2))
        assert q2[0, 1, 0, 1] == Fraction(1, 2)
        assert q2[0, 1, 1, 0] == Fraction(-1, 2)
        assert q2[0, 0, 0, 0] == 0

    def test_order_one_rank4_is_the_inverse(self):
        g = random_symmetric(4, 2, 14, 5)
        assert epsilon_determinant(g) != 0
        q1 = materialize_permutation_tensor(1, g)
        ginv = epsilon_inverse(g)
        for idx in itertools.product(range(2), repeat=4):
            assert q1[idx] == ginv.component(idx)

    def test_top_order_is_a_pure_sign_pattern(self):
        g = random_symmetric(4, 2, 11, 5)
        det = epsilon_determinant(g)
        assert det != 0
        q = materialize_permutation_tensor(2, g)
        for idx in itertools.product(range(2), repeat=8):
            signs = [oracles.sign_of(idx[2 * k: 2 * k + 2]) for k in range(4)]
            expected = Fraction(signs[0] * signs[1] * signs[2] * signs[3], 2) / det
            assert q[idx] == expected

    def test_order_above_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds dimension"):
            materialize_permutation_tensor(3, identity(2))

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            materialize_permutation_tensor(2, identity(2), cap=10)

    def test_singular_metric(self):
        g = from_matrix([[1, 1], [1, 1]])
        with pytest.raises(SingularTensorError):
            materialize_permutation_tensor(1, g)

    def test_contracts_to_the_invariants(self):
        # q_s paired with s tensor copies reproduces the invariant sequence
        from hypermat import invariant_values
        a = random_symmetric(2, 2, 12, 7)
        g = from_matrix([[2, 1], [1, 3]])
        values = invariant_values(a, g)
        for s in (1, 2):
            q = materialize_permutation_tensor(s, g)
            total = Fraction(0)
            for idx in itertools.product(range(2), repeat=2 * s):
                term = q[idx]
                for copy in range(s):
                    term *= a.component((idx[copy], idx[s + copy]))
                total += term
            assert total == values[s]


class TestEpsilonInverse:
    def test_singular(self):
        with pytest.raises(SingularTensorError):
            epsilon_inverse(from_matrix([[1, 1], [1, 1]]))


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
    return SymTensor(rank, dim, {
        key: Fraction((-1) ** n * (n + 2), (7, 11, 13)[n % 3])
        for n, key in enumerate(canonical_keys(rank, dim))})


def _sparse_factor(rank, dim, seed):
    # every other stored entry of a random tensor set to zero
    full = random_symmetric(rank, dim, seed, 5)
    keys = sorted(full.entries)
    return SymTensor(rank, dim, {k: full.entries[k] for k in keys[::2]})


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


class TestCoalescedStates:
    """Shapes with a level past the first, where the kernel merges partial
    terms whose held index prefixes agree once sorted."""

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

    def test_order_one_tensor_is_the_inverse_at_every_ordered_index(self):
        g = random_symmetric(4, 3, 180, 5)
        assert epsilon_determinant(g) != 0
        q1 = materialize_permutation_tensor(1, g)
        ginv = epsilon_inverse(g)
        for idx in itertools.product(range(3), repeat=4):
            assert q1[idx] == ginv.component(idx)

    def test_float_gradient_matches_the_exact_one(self):
        exact = [random_symmetric(6, 3, 190 + t, 5) for t in (0, 1, 0)]
        grad = epsilon_product_gradient(exact, 1)
        inexact = epsilon_product_gradient(
            [oracles.to_float(f) for f in exact], 1)
        assert not grad.is_zero()
        assert all(isinstance(v, float) for v in inexact.entries.values())
        for key in canonical_keys(6, 3):
            assert float(inexact.component(key)) == pytest.approx(
                float(grad.component(key)), rel=1e-9, abs=1e-9)


class TestSharedSums:
    """Inside ``engine.shared_sums`` each distinct signed sum is enumerated
    once; counts are asserted, times are not."""

    @staticmethod
    def _count(monkeypatch):
        """Record every kernel request (by factor content) and every
        enumeration behind it, with the scope each ran in."""
        requests, enumerated, scopes = [], [], []
        signed_sum, enumerate_sum = engine._signed_sum, engine._enumerate

        def request(factors, free=(), classes=None):
            contents = tuple(tuple(sorted(f.entries.items())) for f in factors)
            requests.append((factors[0].rank, free, classes, contents))
            return signed_sum(factors, free, classes)

        def enumeration(factors, free, classes):
            scope = engine._SHARED.get()
            if not any(scope is seen for seen in scopes):
                scopes.append(scope)
            enumerated.append(scope)
            return enumerate_sum(factors, free, classes)

        monkeypatch.setattr(engine, "_signed_sum", request)
        monkeypatch.setattr(engine, "_enumerate", enumeration)
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

    def test_a_float_factor_is_never_served_an_exact_result(self):
        # every value is exact in binary, so the float entries compare and
        # hash equal to the exact ones
        a = SymTensor.from_entries(4, 2, {(0, 0, 0, 0): 2, (0, 0, 1, 1): -1,
                                          (0, 1, 1, 1): Fraction(1, 2),
                                          (1, 1, 1, 1): 3})
        assert oracles.to_float(a).entries == a.entries
        with engine.shared_sums():
            exact = epsilon_determinant(a)
            inexact = epsilon_determinant(oracles.to_float(a))
            assert isinstance(exact, Fraction)
            assert isinstance(inexact, float)
            assert inexact == pytest.approx(float(exact))

    def test_a_shared_result_is_immutable(self):
        factors = [SAMPLE_A, SAMPLE_A]
        with engine.shared_sums():
            acc, scale, terms = engine._signed_sum(factors, (0,))
            with pytest.raises(TypeError):
                acc[0] = 1
            assert engine._signed_sum(list(factors), (0,))[0] is acc
        assert engine._signed_sum(factors, (0,)) == (acc, scale, terms)

    def test_a_nested_scope_starts_empty(self, monkeypatch):
        _, enumerated, _ = self._count(monkeypatch)
        with engine.shared_sums():
            epsilon_determinant(SAMPLE_A)
            with engine.shared_sums():
                epsilon_determinant(SAMPLE_A)
            epsilon_determinant(SAMPLE_A)
        assert len(enumerated) == 2
