"""Signed-permutation contraction engine.

The primitive here is a sum over r-tuples of permutations of {0..d-1}:
each tuple contributes the product of the permutation signs times a
product of factor components, where factor t takes its r indices from the
t-th values of the r permutations. One permutation plays the role of one
antisymmetric sign symbol. Determinants, discriminant numerators, inverse
tensors and permutation coefficient tensors are all normalizations of
this primitive or of its slot-freed gradients.

Every sum runs through one kernel, ``_signed_sum``:

- Integer tables. Each distinct factor is expanded once per call into a
  dense list over its d**r ordered indices (flat index sum_k i_k d**(r-1-k)),
  so no index is sorted inside the loop. On the exact path a factor is
  stored times the lcm of its denominators; the inner loop multiplies and
  adds Python integers only, and the scales are divided out once at the
  end. If any factor in the product holds a value that is not an int or
  a Fraction (the ``allow_inexact`` float path), no factor is scaled and
  the values keep their own arithmetic.
- Lead-symbol restriction. Permuting the positions of identical factors
  (the same permutation applied to every sign symbol) leaves a term's
  factor product unchanged and multiplies its sign by sgn(pi)**r. For
  even rank that is +1, so the sum is |H| times the sum with the first
  permutation increasing on each class of identical non-freed factors,
  H being the product of the classes' symmetric groups. For odd rank the
  terms of an orbit cancel in pairs instead, so every permutation is
  enumerated. The coset restriction (two blocks, s!(d-s)!) and the
  row-product determinant (first permutation fixed to the identity) are
  the same restriction with explicitly given classes.
- Free positions. A gradient leaves one position out of the product and
  accumulates each term at the flat index of that position's r indices;
  a permutation coefficient tensor leaves several out. The position
  permutations behind the restriction never move a freed position, so
  the restriction keeps the sum exact at every freed index, not only in
  total (coalescing, below, keeps a lone freed slot exact per orbit).
- Coalesced states. The sign symbols are placed one level at a time, and
  a partial term is a state: the flat offset of each held position's
  index prefix, the offset of the freed indices so far, and a sign.
  Every factor is completely symmetric, so its value depends only on
  the multiset of indices at its position, and two states whose held
  prefixes are equal once sorted have the same continuation. After each
  level every prefix offset is mapped to the offset of its sorted prefix
  (one lookup list per prefix length, cached per (rank, dim)), equal
  states are merged with their signs summed into an integer
  coefficient, and states whose coefficient is 0 are dropped. A one-index
  prefix is already sorted, so nothing merges after the first level.
  A lone freed slot has the table layout and is folded the same way, so
  a gradient's sum is exact per orbit of ordered indices, which is all
  a symmetric result needs; two or more freed slots keep their ordered
  layout. Rank 2 places only one level before the last and is
  enumerated as before. The terms a request covers, and the count
  ``_plan`` reports for it, do not change.
- Shared sums. The invariants c_0..c_d, their gradients and the
  recurrence rows all read the same few sums of s copies of a tensor and
  d-s copies of a metric, so one identity sample asks for most of its
  sums several times. Inside a ``with shared_sums():`` block each sum is
  enumerated once: a request is keyed by (rank, dim, freed positions,
  classes, the frozenset of each factor's entries) and a repeat is
  served from a dict that lives only as long as the block. Results are
  immutable (``acc`` is a tuple). A factor holding a value that is not
  an int or a Fraction bypasses the dict: 1.0 == 1 == Fraction(1) with
  equal hashes, so a float factor could otherwise be served an exact
  result. The dict is scoped, not global: a sample reuses only its own
  sums, so the cost of a call never depends on what ran before it, and
  the memory goes when the block ends. Outside a block every request is
  enumerated.

Derivative convention used package-wide: gradients are formal, treating
all d**r ordered components of a factor as independent. The derivative
with respect to a stored canonical component is the formal value times
the key's multiplicity.

All functions are pure. Exact-rational addition is associative and
commutative, so the order of enumeration does not change exact results.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, methodcaller
from typing import Sequence

from .errors import SingularTensorError
from .tensor import SymTensor


def permutation_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation given as a tuple of images: +1 even, -1 odd."""
    inversions = sum(1 for i in range(len(perm))
                     for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def signed_permutations(dim: int):
    """All permutations of {0..dim-1} with their signs, lexicographically."""
    return tuple((perm, permutation_sign(perm))
                 for perm in itertools.permutations(range(dim)))


def _uniform_shape(factors: Sequence[SymTensor]):
    if not factors:
        raise ValueError("no factors given")
    rank, dim = factors[0].rank, factors[0].dim
    for f in factors:
        if (f.rank, f.dim) != (rank, dim):
            raise ValueError("factors do not share rank and dimension")
    if len(factors) != dim:
        raise ValueError(f"need exactly dim={dim} factors, got {len(factors)}")
    return rank, dim


@lru_cache(maxsize=32)
def _orbits(rank: int, dim: int):
    # each canonical key with the flat ordered indices of its orderings
    orbits: dict = {}
    for flat, idx in enumerate(itertools.product(range(dim), repeat=rank)):
        orbits.setdefault(tuple(sorted(idx)), []).append(flat)
    return tuple((key, tuple(flats)) for key, flats in orbits.items())


@lru_cache(maxsize=64)
def _plan(rank: int, dim: int, free: tuple, classes: tuple):
    """Per-shape enumeration structure of the kernel.

    Every level (sign symbol) but the last is a list of (sign, table
    offsets of the non-freed positions, output offset) per permutation;
    the first level holds only permutations increasing on each class. The
    last level has stride one, so it is grouped by output offset into
    getters that pick the sign and one entry per non-freed row from the
    rows laid end to end behind a leading (1, -1).
    """
    perms = signed_permutations(dim)
    leads = [(p, s) for p, s in perms
             if all(p[a] < p[b] for c in classes for a, b in zip(c, c[1:]))]
    held = [t for t in range(dim) if t not in free]
    m = len(free)
    levels = []
    for k in range(rank):
        stride = dim ** (rank - 1 - k)
        levels.append([
            (s, tuple(p[t] * stride for t in held),
             sum(p[u] * dim ** (m * (rank - 1 - k) + m - 1 - j)
                 for j, u in enumerate(free)))
            for p, s in (leads if k == 0 else perms)])
    groups: dict = {}
    for s, offsets, out in levels[-1]:
        # the sign is picked from the leading (1, -1) of the rows; a second
        # pick of the 1 keeps the result a tuple when no row is held
        positions = tuple(2 + j * dim + o for j, o in enumerate(offsets))
        picks = itemgetter(s < 0, *(positions or (0,)))
        groups.setdefault(out, []).append(picks)
    last = tuple((out, tuple(picks)) for out, picks in groups.items())
    terms = len(leads) * len(perms) ** (rank - 1)
    return levels[:-1], last, dim ** (rank * m), terms


@lru_cache(maxsize=32)
def _sorted_prefixes(rank: int, dim: int):
    """For each prefix length k = 1..rank-1 (entry k-1), a list mapping
    the flat offset of every k-index prefix, later indices zero, to the
    offset of the same prefix sorted."""
    maps = []
    for k in range(1, rank):
        strides = [dim ** (rank - 1 - j) for j in range(k)]
        sorted_at = [0] * dim ** rank
        for prefix in itertools.product(range(dim), repeat=k):
            sorted_at[sum(map(math.prod, zip(prefix, strides)))] = sum(
                map(math.prod, zip(sorted(prefix), strides)))
        maps.append(sorted_at)
    return tuple(maps)


# (sums by request key, (tensor, entry set or None if inexact) by id)
_SHARED: ContextVar = ContextVar("hypermat_shared_sums", default=None)


@contextmanager
def shared_sums():
    """Enumerate each distinct signed sum once within the block.

    The block also holds every tensor passed to the kernel, reading its
    entries once; tensors are immutable values, so that read stays valid.
    A nested block starts empty and the enclosing one resumes when it
    ends.
    """
    token = _SHARED.set(({}, {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def _signed_sum(factors: Sequence[SymTensor], free: tuple = (),
                classes: tuple | None = None):
    """The signed sum, served from the enclosing ``shared_sums`` block
    when an equal request was enumerated there before.

    Returns ``(acc, scale, terms)``: the sum of the terms whose freed
    indices (grouped per sign symbol) have flat index f is
    ``acc[f] * scale``; with one freed position that holds only for the
    sum of ``acc`` over each orbit of flat indices (see "Coalesced
    states"). ``terms`` counts the permutation tuples the request
    covers. With ``classes`` None the first permutation is
    restricted over identical non-freed factors for even rank and the
    result is the full sum; given classes restrict it as stated and the
    result is the restricted sum itself.
    """
    scope = _SHARED.get()
    if scope is None:
        return _enumerate(factors, free, classes)
    sums, contents = scope
    for f in factors:
        # held in the scope, f keeps its id from naming another tensor
        if id(f) not in contents:
            exact = all(map(isinstance, f.entries.values(),
                            itertools.repeat((int, Fraction))))
            contents[id(f)] = f, frozenset(f.entries.items()) if exact else None
    entry_sets = tuple(contents[id(f)][1] for f in factors)
    if None in entry_sets:
        return _enumerate(factors, free, classes)
    key = (factors[0].rank, factors[0].dim, free, classes, entry_sets)
    result = sums.get(key)
    if result is None:
        result = sums[key] = _enumerate(factors, free, classes)
    return result


def _enumerate(factors: Sequence[SymTensor], free: tuple, classes: tuple | None):
    """The one enumeration behind ``_signed_sum``, never memoized."""
    rank, dim = factors[0].rank, factors[0].dim
    held = [t for t in range(dim) if t not in free]
    groups: list = []  # positions of identical non-freed factors
    for t in held:
        for group in groups:
            if factors[group[0]] is factors[t] or factors[group[0]] == factors[t]:
                group.append(t)
                break
        else:
            groups.append([t])
    multiplier = 1
    if classes is None:
        classes = ()
        if rank % 2 == 0:
            classes = tuple(tuple(group) for group in groups if len(group) > 1)
            for c in classes:
                multiplier *= math.factorial(len(c))
    outer, last, size, terms = _plan(rank, dim, free, classes)

    exact = all(all(map(isinstance, factors[group[0]].entries.values(),
                        itertools.repeat((int, Fraction))))
                for group in groups)
    table_at = {}
    denominator = 1
    for group in groups:
        entries = factors[group[0]].entries
        scale = 1
        if exact:
            for v in entries.values():
                scale = math.lcm(scale, v.denominator)
        table = [0] * dim ** rank
        for key, flats in _orbits(rank, dim):
            v = entries.get(key)
            if v is not None:
                if exact:
                    v = v.numerator * (scale // v.denominator)
                for flat in flats:
                    table[flat] = v
        for t in group:
            table_at[t] = table
        denominator *= scale ** len(group)
    rows = [table_at[t] for t in held]

    # states map (held prefix offsets, output offset) to the summed sign
    # of the partial terms that reach them
    states = {((0,) * len(held), 0): 1}
    for level, sorted_at in zip(outer, _sorted_prefixes(rank, dim)):
        fold = sorted_at.__getitem__
        # two or more freed slots keep their ordered layout (int is the
        # identity on offsets)
        fold_out = fold if len(free) == 1 else int
        merged: dict = {}
        for (base, out), coeff in states.items():
            for s, offsets, o in level:
                key = (tuple(map(fold, map(add, base, offsets))), fold_out(out + o))
                merged[key] = merged.get(key, 0) + coeff * s
        states = {key: coeff for key, coeff in merged.items() if coeff}
    acc = [0] * size
    for (base, out), coeff in states.items():
        flat = [1, -1]
        for table, b in zip(rows, base):
            flat += table[b:b + dim]
        pick_from = methodcaller("__call__", flat)
        for o, picks in last:
            v = sum(map(math.prod, map(pick_from, picks)))
            if v:
                acc[out + o] += coeff * v
    return tuple(acc), Fraction(multiplier, denominator), terms


def epsilon_product(factors: Sequence[SymTensor]):
    """Full signed contraction of d factors of rank r (one sign symbol per
    index slot). No factorial normalization is applied; callers divide by
    d! or s!(d-s)! as their definitions require.
    """
    _uniform_shape(factors)
    acc, scale, _ = _signed_sum(factors)
    return acc[0] * scale


def epsilon_product_gradient(factors: Sequence[SymTensor], position: int) -> SymTensor:
    """Formal derivative of epsilon_product with respect to the components
    of factors[position]; equivalently the signed sum with that slot freed
    on every sign symbol.

    The result is completely symmetric because the remaining factors are;
    the value stored at a canonical key is the derivative with respect to
    any single ordered component in that key's orbit.
    """
    rank, dim = _uniform_shape(factors)
    if not 0 <= position < dim:
        raise ValueError(f"position {position} out of range for {dim} slots")
    acc, scale, _ = _signed_sum(factors, (position,))
    # Each orbit was accumulated over all its orderings; dividing by the
    # orbit size leaves the per-component formal value.
    entries = {}
    for key, flats in _orbits(rank, dim):
        formal = sum([acc[f] for f in flats]) * scale / len(flats)
        if formal:
            entries[key] = formal
    return SymTensor(rank, dim, entries)


def coset_restricted_product(factors: Sequence[SymTensor], split: int):
    """epsilon_product computed with the first permutation restricted to the
    C(d, split) block-monotone coset representatives, scaled by
    split!(d-split)!.

    Requires even rank and factors that are constant within the two blocks
    [0, split) and [split, d); under those conditions the value equals the
    unrestricted sum exactly while covering d!/(split!(d-split)!) times
    fewer terms.
    """
    value, _ = coset_restricted_product_counted(factors, split)
    return value


def coset_restricted_product_counted(factors: Sequence[SymTensor], split: int):
    """Like coset_restricted_product, also returning the number of terms
    the restricted sum covers: exactly C(d, split) * (d!)**(r-1). The
    kernel merges partial terms (see "Coalesced states"), so it visits
    fewer; the count is of the terms summed, not of the steps taken."""
    rank, dim = _uniform_shape(factors)
    if rank % 2:
        raise ValueError("coset restriction requires even rank")
    if not 0 <= split <= dim:
        raise ValueError(f"block size {split} out of range for dimension {dim}")
    for t in range(1, split):
        if factors[t] != factors[0]:
            raise ValueError("factors in the first block differ")
    for t in range(split + 1, dim):
        if factors[t] != factors[split]:
            raise ValueError("factors in the second block differ")
    blocks = (tuple(range(split)), tuple(range(split, dim)))
    acc, scale, count = _signed_sum(factors, (), blocks)
    return acc[0] * math.factorial(split) * math.factorial(dim - split) * scale, count


def epsilon_determinant(tensor: SymTensor):
    """(1/d!) times the all-copies signed contraction; the even-rank
    determinant (for rank 2 this is the ordinary determinant)."""
    if tensor.rank % 2:
        raise ValueError("odd rank: the signed contraction vanishes "
                         "identically, lift to even rank instead")
    d = tensor.dim
    return coset_restricted_product([tensor] * d, d) / math.factorial(d)


def epsilon_inverse(tensor: SymTensor) -> SymTensor:
    """Contravariant inverse: the slot-freed gradient over (d-1)! times the
    determinant. Satisfies inv[(i,)+k] * T[(j,)+k] summed over k = delta."""
    det = epsilon_determinant(tensor)
    if det == 0:
        raise SingularTensorError("tensor determinant is zero; no inverse")
    d = tensor.dim
    grad = epsilon_product_gradient([tensor] * d, 0)
    return grad * (Fraction(1, math.factorial(d - 1)) / det)


def materialize_permutation_tensor(order: int, metric: SymTensor,
                                   cap: int = 10 ** 6):
    """Dense coefficient tensor that contracts `order` copies of a rank-r
    tensor into its order-s invariant relative to ``metric``.

    Index layout: the freed indices are grouped per sign symbol, i.e. the
    first symbol's `order` indices, then the second symbol's, and so on
    (r groups of `order` axes). Includes the 1/(order!(d-order)!)
    normalization and the division by the metric's determinant.

    Rejects order > d, where every entry vanishes because a sign symbol
    cannot take `order` distinct values in fewer slots, and results with
    more than ``cap`` entries.

    Returns a dict keyed by every index tuple of length r*order, zeros
    included, as ``tensor.contract_one_free`` does.
    """
    r, d = metric.rank, metric.dim
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > d:
        raise ValueError(
            f"order {order} exceeds dimension {d}: the coefficient tensor "
            "is identically zero there and is not materialized")
    if d ** (r * order) > cap:
        raise ValueError(
            f"result would hold {d ** (r * order)} entries, over the cap {cap}")
    det = epsilon_determinant(metric)
    if det == 0:
        raise SingularTensorError(
            "metric determinant is zero; the coefficient tensor divides by it")
    acc, scale, _ = _signed_sum([metric] * d, tuple(range(order)))
    norm = scale / (math.factorial(order) * math.factorial(d - order)) / det
    if order == 1:
        # a lone freed slot is exact per orbit only; the tensor is
        # symmetric, so each ordering holds an equal share
        values = [0] * len(acc)
        for _, flats in _orbits(r, d):
            share = sum([acc[f] for f in flats]) * norm / len(flats)
            for f in flats:
                values[f] = share
    else:
        values = [v * norm for v in acc]
    return dict(zip(itertools.product(range(d), repeat=r * order), values))
