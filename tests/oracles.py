"""Independent oracles used by the test suite.

Everything here recomputes results through a different mechanism than the
library: full index enumeration with an explicit antisymmetric symbol
instead of permutation enumeration, Leibniz sums, Newton forward
differences for exact polynomial derivatives, plain dense matrix
arithmetic, and index sums written out over ``component`` lookups with
one Fraction operation per term. None of it imports the engine's
internals or the integer tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypermat import SymTensor
from hypermat.tensor import canonical_keys


def sign_of(seq) -> int:
    """Parity by explicit inversion count; 0 for repeated values."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(1 for i in range(len(seq))
                     for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def brute_epsilon_product(factors):
    """Signed contraction by enumerating every ordered index assignment of
    every sign symbol. An assignment that repeats an index has sign 0, so
    those are dropped per symbol before the product over symbols is
    formed (cost (d!)**r assignments; keep shapes small)."""
    dim = factors[0].dim
    rank = factors[0].rank
    symbols = [(symbol, sign_of(symbol))
               for symbol in itertools.product(range(dim), repeat=dim)
               if sign_of(symbol)]
    total = Fraction(0)
    for assignment in itertools.product(symbols, repeat=rank):
        sign = 1
        for _, symbol_sign in assignment:
            sign *= symbol_sign
        term = Fraction(1)
        for t, factor in enumerate(factors):
            term *= factor.component(tuple(symbol[t] for symbol, _ in assignment))
            if term == 0:
                break
        total += sign * term
    return total


def brute_row_product_det(tensor: SymTensor):
    """Row-product determinant: the first index of each factor runs over
    the diagonal 0..d-1 and each of the r-1 other indices over a
    permutation, every tuple of those permutations enumerated and signed
    by inversion count."""
    d = tensor.dim
    total = Fraction(0)
    for perms in itertools.product(itertools.permutations(range(d)),
                                   repeat=tensor.rank - 1):
        term = Fraction(1)
        for perm in perms:
            term *= sign_of(perm)
        for i in range(d):
            term *= tensor.component((i,) + tuple(perm[i] for perm in perms))
        total += term
    return total


def leibniz_det(matrix: SymTensor):
    """Single permutation sum for a rank-2 tensor."""
    d = matrix.dim
    total = Fraction(0)
    for perm in itertools.permutations(range(d)):
        term = Fraction(sign_of(perm))
        for i in range(d):
            term *= matrix.component((i, perm[i]))
        total += term
    return total


def brute_contract_full(x: SymTensor, y: SymTensor):
    """Sum over all d**r ordered tuples through component lookups."""
    total = Fraction(0)
    for idx in itertools.product(range(x.dim), repeat=x.rank):
        total += x.component(idx) * y.component(idx)
    return total


def symmetrized_from(rank: int, dim: int, component) -> SymTensor:
    """Symmetrize an arbitrary ordered-component function.

    The value at a canonical key is the mean of ``component`` over the
    key's distinct orderings, which equals the mean over all rank!
    permutations of the index tuple.
    """
    entries = {}
    for key in canonical_keys(rank, dim):
        orderings = set(itertools.permutations(key))
        total = sum(component(o) for o in orderings)
        if total:
            entries[key] = Fraction(total, len(orderings))
    return SymTensor.from_entries(rank, dim, entries)


def entrywise(op, rank: int, dim: int, *operands) -> dict:
    """Reference for tensor arithmetic: ``op`` applied per canonical key
    to the operands' components (a tensor's ``component``, a scalar as
    is), one Fraction operation per entry, zero results left out."""
    out = {}
    for key in canonical_keys(rank, dim):
        value = op(*(t.component(key) if isinstance(t, SymTensor) else t
                     for t in operands))
        if value:
            out[key] = value
    return out


def brute_one_three_split(a: SymTensor, g_inv: SymTensor) -> SymTensor:
    """sym over (i,j,k,l) of A[i,m,n,p] G^[m,n,p,q] A[q,j,k,l]: the bridge
    A[i,m,n,p] G^[q,m,n,p] summed by explicit loops, then one more sum."""
    rng = range(a.dim)
    bridge = {(i, q): sum(a.component((i, m, n, p)) * g_inv.component((q, m, n, p))
                          for m, n, p in itertools.product(rng, repeat=3))
              for i in rng for q in rng}

    def component(idx):
        i, rest = idx[0], idx[1:]
        return sum(bridge[i, q] * a.component((q,) + rest) for q in rng)

    return symmetrized_from(4, a.dim, component)


def brute_two_two_split(a: SymTensor, g_inv: SymTensor) -> SymTensor:
    """sym over (i,j,k,l) of A[i,j,m,n] G^[m,n,p,q] A[p,q,k,l]: the pair
    A[i,j,m,n] G^[m,n,p,q] summed by explicit loops, then one more sum."""
    rng = range(a.dim)
    pair = {(i, j, p, q): sum(a.component((i, j, m, n)) * g_inv.component((m, n, p, q))
                              for m, n in itertools.product(rng, repeat=2))
            for i, j, p, q in itertools.product(rng, repeat=4)}

    def component(idx):
        i, j, k, l = idx
        return sum(pair[i, j, p, q] * a.component((p, q, k, l))
                   for p, q in itertools.product(rng, repeat=2))

    return symmetrized_from(4, a.dim, component)


def brute_pair_cycle_trace(a: SymTensor, a_inv: SymTensor):
    """inv[m,n,p,q] A[p,q,r,s] inv[r,s,t,u] A[t,u,m,n] over all d**8
    index tuples."""
    total = Fraction(0)
    for m, n, p, q, r, s, t, u in itertools.product(range(a.dim), repeat=8):
        total += (a_inv.component((m, n, p, q)) * a.component((p, q, r, s))
                  * a_inv.component((r, s, t, u)) * a.component((t, u, m, n)))
    return total


def dense_flat_product(links):
    """Product, left to right, of the flattenings ``(tensor, k)``, each the
    d**k x d**(r-k) matrix of the tensor's ordered components (rows and
    columns in lexicographic index order), by explicit index loops over
    ``component`` lookups."""
    product = None
    for tensor, k in links:
        rng = range(tensor.dim)
        rows = list(itertools.product(rng, repeat=k))
        columns = list(itertools.product(rng, repeat=tensor.rank - k))
        matrix = [[tensor.component(row + column) for column in columns]
                  for row in rows]
        if product is None:
            product = matrix
            continue
        product = [[sum(left[m] * matrix[m][j] for m in range(len(rows)))
                    for j in range(len(columns))] for left in product]
    return product


def brute_sym_outer_component(x: SymTensor, y: SymTensor, idx):
    """Mean over all orderings of idx of x[first p] * y[last q]."""
    p = x.rank
    orderings = list(itertools.permutations(idx))
    total = Fraction(0)
    for o in orderings:
        total += x.component(o[:p]) * y.component(o[p:])
    return total / len(orderings)


def directional_derivative(f, x: SymTensor, direction: SymTensor, degree: int):
    """Exact d/dt f(x + t*direction) at t = 0 for polynomial f of degree
    at most `degree`, by Newton forward differences on integer nodes."""
    values = [f(x + direction * t) for t in range(degree + 1)]
    result = Fraction(0)
    diffs = values
    for k in range(1, degree + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        result += Fraction((-1) ** (k - 1), k) * diffs[0]
    return result


def splitmix64_draws(rank: int, dim: int, seed: int, bound: int):
    """The draw ``random_symmetric`` documents (README "Seeding"), written
    out: a splitmix64 stream whose 64-bit state starts at the seed and
    advances by 0x9E3779B97F4A7C15 before each output, and per canonical
    key in lexicographic order one output for the numerator (its residue
    mod 2*bound+1, shifted down by bound) and then one for the denominator
    (its residue mod bound, plus one). Returns ``(key, numerator,
    denominator)`` triples, zero numerators included."""
    mask = 2 ** 64 - 1
    state = seed & mask
    outputs = []
    for _ in range(2 * len(all_canonical(rank, dim))):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        outputs.append(z ^ (z >> 31))
    return [(key, outputs[2 * k] % (2 * bound + 1) - bound,
             outputs[2 * k + 1] % bound + 1)
            for k, key in enumerate(all_canonical(rank, dim))]


def basis_direction(rank: int, dim: int, key) -> SymTensor:
    """Symmetric basis tensor: every ordering of `key` set to one."""
    return SymTensor.from_entries(rank, dim, {tuple(key): 1})


def to_dense_matrix(tensor: SymTensor):
    d = tensor.dim
    return [[tensor.component((i, j)) for j in range(d)] for i in range(d)]


def mat_mul(x, y):
    d = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]


def mat_trace(x):
    return sum(x[i][i] for i in range(len(x)))


def transform(tensor: SymTensor, matrix) -> SymTensor:
    """M.T: the d x d matrix M applied to every slot,
    (M.T)[i1..ir] = sum M[i1][j1]..M[ir][jr] T[j1..jr], one slot at a time
    over the dense ordered components."""
    rank, dim = tensor.rank, tensor.dim
    dense = {idx: tensor.component(idx)
             for idx in itertools.product(range(dim), repeat=rank)}
    for slot in range(rank):
        dense = {idx: sum(matrix[idx[slot]][j] * dense[idx[:slot] + (j,) + idx[slot + 1:]]
                          for j in range(dim))
                 for idx in dense}
    return SymTensor.from_entries(rank, dim, {key: dense[key]
                                              for key in canonical_keys(rank, dim)})


def matrix_det(matrix):
    """Determinant of a square list-of-rows matrix by Gaussian elimination
    over Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            ratio = rows[i][k] / rows[k][k]
            rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[k])]
    return det


def matrix_inverse(matrix):
    """Inverse of a square list-of-rows matrix by Gauss-Jordan elimination
    over Fractions; raises ``ZeroDivisionError`` when it is singular."""
    dim = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(dim)]
            for i, row in enumerate(matrix)]
    for k in range(dim):
        pivot = next((i for i in range(k, dim) if rows[i][k]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(dim):
            if i != k and rows[i][k]:
                ratio = rows[i][k]
                rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[k])]
    return [row[dim:] for row in rows]


def all_canonical(rank: int, dim: int):
    return list(canonical_keys(rank, dim))


def newton_closed_forms(q):
    """The elementary symmetric quantities through order six, written out
    as explicit polynomials in the power sums q[0]=Q_1 .. q[5]=Q_6."""
    q1, q2, q3, q4, q5, q6 = (list(q) + [Fraction(0)] * 6)[:6]
    p2 = Fraction(1, 2) * (q1 ** 2 - q2)
    p3 = Fraction(1, 6) * (q1 ** 3 - 3 * q1 * q2 + 2 * q3)
    p4 = Fraction(1, 24) * (q1 ** 4 - 6 * q1 ** 2 * q2 + 8 * q1 * q3
                            + 3 * q2 ** 2 - 6 * q4)
    p5 = Fraction(1, 120) * (q1 ** 5 - 10 * q1 ** 3 * q2 + 15 * q1 * q2 ** 2
                             + 20 * q1 ** 2 * q3 - 20 * q2 * q3
                             - 30 * q1 * q4 + 24 * q5)
    p6 = Fraction(1, 720) * (q1 ** 6 - 15 * q1 ** 4 * q2
                             + 45 * q1 ** 2 * q2 ** 2 - 15 * q2 ** 3
                             + 40 * q1 ** 3 * q3 - 120 * q1 * q2 * q3
                             + 40 * q3 ** 2 - 90 * q1 ** 2 * q4
                             + 90 * q2 * q4 + 144 * q1 * q5 - 120 * q6)
    return p2, p3, p4, p5, p6
