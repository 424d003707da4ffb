"""Completely symmetric tensors over exact scalars.

A tensor is its form, ``(numerators, scale)``: one integer per canonical
key (a sorted index tuple), in ``canonical_keys`` order, over one
positive common denominator, in lowest terms. The form is what a tensor
stores, and ``SymTensor(rank, dim, numerators, scale)`` is its one
constructor; ``from_entries`` turns keyed values into numerators over
the lcm of their denominators and calls it. A lookup at any index
ordering resolves through sorting, and the number of distinct orderings
of a key is its multiplicity. Because the form is in lowest terms, two
tensors are equal exactly when their forms are.

Arithmetic runs on the numerators: ``+`` and ``-`` bring both operands
to the lcm of their scales, ``* scalar`` multiplies numerators and
scale by the scalar's numerator and denominator, and the constructor's
one ``math.gcd`` pass reduces the result. ``max_abs`` and ``is_zero``
read the numerators, so checking a residual builds one Fraction.
``entries``, a dict from canonical key to nonzero Fraction, is a view
built from the form on first access.

Building or loading a tensor costs one step per canonical key. Only
exact contractions expand the d**r ordered indices: they run on integer
tables (``integer_table``), the form expanded once per tensor and cached
on it. Every matrix product over those tables is ``flat_product``: each
link ``(tensor, k)`` is a table seen as its d**k x d**(r-k) flattening,
the links are multiplied left to right as rows dotted with rows in C by
``map(mul, ...)``, and the result is integer rows over the product of
the scales. ``sym_product`` reads a symmetric result off the product by
summing each orbit of ordered indices (``orbit_means``), and the
builders return forms directly. No other module reads the tables: the
engine reads forms only. There is no second arithmetic: the
constructor's gcd pass takes integers only, so a float fails at once and
table entries are integers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

from .rational import as_scalar

MultiIndex = tuple

# the most ordered indices (d**r) of a tensor read from a document, the
# length of its integer table; loading it costs one step per canonical key
MAX_ENTRIES = 10 ** 6


def canonical_key(idx: Sequence[int]) -> MultiIndex:
    """Non-decreasing reordering of an index tuple."""
    return tuple(sorted(idx))


def _is_integer(value) -> bool:
    # bool is a subclass of int, but True is no index or dimension
    return isinstance(value, int) and not isinstance(value, bool)


def multiplicity(key: Sequence[int]) -> int:
    """Number of distinct orderings of a key: r! / prod_v count(v)!."""
    mu = math.factorial(len(key))
    for count in Counter(key).values():
        mu //= math.factorial(count)
    return mu


def canonical_keys(rank: int, dim: int):
    """All canonical keys of the given shape, in lexicographic order."""
    return itertools.combinations_with_replacement(range(dim), rank)


@lru_cache(maxsize=32)
def _keys(rank: int, dim: int) -> tuple:
    """The canonical keys of a shape, in ``canonical_keys`` order."""
    return tuple(canonical_keys(rank, dim))


@lru_cache(maxsize=32)
def _orbits(rank: int, dim: int) -> tuple:
    """Per canonical key in ``_keys`` order, the flat ordered indices of its
    orbit (flat index sum_k i_k dim**(r-1-k)) with the weight rank!/(orbit
    size) that turns an orbit sum into rank! times its mean."""
    position = {key: k for k, key in enumerate(_keys(rank, dim))}
    flats: list = [[] for _ in position]
    for flat, idx in enumerate(itertools.product(range(dim), repeat=rank)):
        flats[position[tuple(sorted(idx))]].append(flat)
    return tuple((tuple(fs), math.factorial(rank) // len(fs)) for fs in flats)


_set = object.__setattr__


class SymTensor:
    """Completely symmetric tensor of fixed rank and dimension.

    ``SymTensor(rank, dim, numerators, scale=1)`` is the one constructor:
    the value at the k-th canonical key (``canonical_keys`` order) is
    ``numerators[k] / scale``, for integer numerators and a positive
    integer scale, and one gcd pass stores it as ``form`` in lowest terms.
    ``from_entries`` builds the numerators from keyed values. ``entries``,
    canonical key to nonzero Fraction with an absent key being zero, is a
    view built on first access. Instances are immutable values (setting an
    attribute raises, and all arithmetic returns new tensors), so they are
    safe to share across threads; the views they build on first access
    are derived from the form and never change it. Tensors are not
    hashable; ``form`` is.
    """

    __slots__ = ("rank", "dim", "form", "_entries", "_table")
    __hash__ = None

    def __init__(self, rank: int, dim: int, numerators: Iterable[int], scale: int = 1):
        numerators = tuple(numerators)
        if len(numerators) != len(_keys(rank, dim)):
            raise ValueError(f"{len(numerators)} numerators for the "
                             f"canonical keys of rank {rank}, dim {dim}")
        if scale < 1:
            raise ValueError(f"scale {scale} is not positive")
        # math.gcd takes integers only, so a float or Fraction fails here
        g = math.gcd(scale, *numerators)
        if g != 1:
            numerators = tuple([n // g for n in numerators])
            scale //= g
        _set(self, "rank", rank)
        _set(self, "dim", dim)
        _set(self, "form", (numerators, scale))
        _set(self, "_entries", None)
        _set(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"SymTensor is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SymTensor is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"SymTensor(rank={self.rank}, dim={self.dim}, entries={self.entries!r})"

    @classmethod
    def zero(cls, rank: int, dim: int) -> "SymTensor":
        return cls(rank, dim, (0,) * len(_keys(rank, dim)))

    @classmethod
    def from_entries(cls, rank: int, dim: int,
                     entries: Mapping[Sequence[int], object] | Iterable
                     ) -> "SymTensor":
        """Build from (index, value) pairs; indices may be in any order.

        Two distinct input indices that land on the same canonical key are
        an error rather than last-wins. Values are coerced to exact
        rationals by ``rational.as_scalar``, which rejects floats, and the
        numerators are taken over the lcm of their denominators.
        """
        if not (_is_integer(rank) and _is_integer(dim)):
            raise ValueError("rank and dim must be integers")
        if rank < 1 or dim < 1:
            raise ValueError(f"invalid shape: rank {rank}, dim {dim}")
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        canonical: dict[MultiIndex, Fraction] = {}
        for idx, value in pairs:
            idx = tuple(idx)
            if len(idx) != rank:
                raise ValueError(f"index {idx} does not have {rank} entries")
            if any(not _is_integer(i) or i < 0 or i >= dim for i in idx):
                raise ValueError(f"index {idx} out of range for dimension {dim}")
            key = canonical_key(idx)
            if key in canonical:
                raise ValueError(f"duplicate canonical index {key}")
            canonical[key] = as_scalar(value)
        scale = math.lcm(*[v.denominator for v in canonical.values()])
        # an absent key reads as the int 0, whose denominator is 1
        values = map(canonical.get, _keys(rank, dim), itertools.repeat(0))
        return cls(rank, dim, [v.numerator * (scale // v.denominator)
                               for v in values], scale)

    @property
    def entries(self) -> dict:
        """Canonical key to nonzero Fraction, built from the form on first
        access. Read-only by contract, like the tensor."""
        entries = self._entries
        if entries is None:
            numerators, scale = self.form
            keys = _keys(self.rank, self.dim)
            entries = {key: Fraction(n, scale)
                       for key, n in zip(keys, numerators) if n}
            _set(self, "_entries", entries)
        return entries

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return self is other or (self.rank == other.rank and self.dim == other.dim
                                 and self.form == other.form)

    def component(self, idx: Sequence[int]):
        """Value at any index ordering (zero when the key is absent)."""
        idx = tuple(idx)
        if len(idx) != self.rank:
            raise ValueError(f"index {idx} does not have {self.rank} entries")
        for i in idx:
            if not 0 <= i < self.dim:
                raise IndexError(f"index {idx} out of range for dimension {self.dim}")
        return self.entries.get(canonical_key(idx), Fraction(0))

    def __getitem__(self, idx):
        return self.component(idx)

    def items_sorted(self):
        """Canonical (key, value) pairs in lexicographic key order."""
        return sorted(self.entries.items())

    def is_zero(self) -> bool:
        return not any(self.form[0])

    def max_abs(self):
        """Largest absolute component; zero for the zero tensor."""
        numerators, scale = self.form
        return Fraction(max(map(abs, numerators)), scale)

    def _require_same_shape(self, other: "SymTensor"):
        if (self.rank, self.dim) != (other.rank, other.dim):
            raise ValueError(
                f"shape mismatch: rank {self.rank} dim {self.dim} "
                f"vs rank {other.rank} dim {other.dim}")

    def _combine(self, other: "SymTensor", op) -> "SymTensor":
        # op(self, other) entrywise, both brought to the lcm of the scales
        self._require_same_shape(other)
        (xn, xs), (yn, ys) = self.form, other.form
        scale = math.lcm(xs, ys)
        if xs != scale:
            xn = [n * (scale // xs) for n in xn]
        if ys != scale:
            yn = [n * (scale // ys) for n in yn]
        return SymTensor(self.rank, self.dim, list(map(op, xn, yn)), scale)

    def __add__(self, other: "SymTensor") -> "SymTensor":
        return self._combine(other, add)

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return self._combine(other, sub)

    def __neg__(self) -> "SymTensor":
        numerators, scale = self.form
        return SymTensor(self.rank, self.dim, [-n for n in numerators], scale)

    def __mul__(self, scalar) -> "SymTensor":
        if isinstance(scalar, SymTensor):
            return NotImplemented
        try:
            p, q = scalar.numerator, scalar.denominator
        except AttributeError:
            raise TypeError(f"scalar {scalar!r} is not an exact rational; "
                            "tensors scale by ints and Fractions only") from None
        numerators, scale = self.form
        return SymTensor(self.rank, self.dim, [n * p for n in numerators], scale * q)

    __rmul__ = __mul__


def identity(dim: int) -> SymTensor:
    """Rank-2 unit matrix."""
    return SymTensor(2, dim, [int(i == j) for i, j in _keys(2, dim)])


def from_matrix(rows: Sequence[Sequence]) -> SymTensor:
    """Rank-2 tensor from a symmetric nested-list matrix."""
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("matrix is not square")
    entries = {}
    for i in range(d):
        for j in range(i, d):
            if as_scalar(rows[i][j]) != as_scalar(rows[j][i]):
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
            entries[(i, j)] = rows[i][j]
    return SymTensor.from_entries(2, d, entries)


# Integer tables. Every contraction below reads its operands as dense
# lists over the d**r ordered indices, each entry an integer numerator
# over one scale per tensor, and forms one Fraction per output entry or
# one form per output tensor.


def _flat(idx: Sequence[int], dim: int) -> int:
    # flat index of an ordered index tuple: sum_k i_k dim**(r-1-k)
    flat = 0
    for i in idx:
        flat = flat * dim + i
    return flat


def integer_table(tensor: SymTensor):
    """The tensor's form expanded over its d**r ordered indices (flat index
    sum_k i_k d**(r-1-k)), with its scale: ``(table, scale)``, every
    entry the integer numerator of its key.

    Built once per tensor and cached on it, so every call returns the
    same object; callers must not mutate the table.
    """
    cached = tensor._table
    if cached is None:
        numerators, scale = tensor.form
        table = [0] * tensor.dim ** tensor.rank
        for n, (flats, _) in zip(numerators, _orbits(tensor.rank, tensor.dim)):
            if n:
                for f in flats:
                    table[f] = n
        cached = table, scale
        _set(tensor, "_table", cached)
    return cached


def _table_rows(table: list, count: int) -> list:
    """A flat table cut into ``count`` rows of equal length: the d**k x
    d**(r-k) flattening for count d**k."""
    width = len(table) // count
    return [table[k:k + width] for k in range(0, len(table), width)]


def orbit_means(rank: int, dim: int, flat: Sequence, scale: int) -> SymTensor:
    """Symmetric tensor whose value at each canonical key is the mean of
    ``flat`` over the key's orderings, over the positive integer ``scale``.

    ``flat`` is indexed like an integer table and holds integers; the
    result is one form, over rank! times the scale before reduction.
    """
    entry = flat.__getitem__
    return SymTensor(rank, dim, [weight * sum(map(entry, flats))
                                 for flats, weight in _orbits(rank, dim)],
                     scale * math.factorial(rank))


def sym_outer(x: SymTensor, y: SymTensor) -> SymTensor:
    """Fully symmetrized outer product.

    The component at an index tuple is the mean over all (p+q)! orderings
    of the tuple of x[first p] * y[last q]. Computed per canonical key by
    splitting the key's multiset into an x-block and a y-block with
    binomial weights, which avoids enumerating orderings.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    p, q, d = x.rank, y.rank, x.dim
    (tx, sx), (ty, sy) = integer_table(x), integer_table(y)
    return SymTensor(
        p + q, d, [sum([weight * tx[a] * ty[b] for weight, a, b in splits])
                   for splits in _outer_splits(p, q, d)],
        math.comb(p + q, p) * sx * sy)


@lru_cache(maxsize=16)
def _outer_splits(p: int, q: int, dim: int):
    # for each canonical key of rank p+q in order, its (binomial weight,
    # flat index of the x-block, flat index of the y-block) for every way
    # to take p of its indices into the x-block
    plan = []
    for key in canonical_keys(p + q, dim):
        counts = Counter(key)
        values = sorted(counts)
        splits = []
        for taken in itertools.product(*(range(counts[v] + 1) for v in values)):
            if sum(taken) != p:
                continue
            xkey = [v for v, n in zip(values, taken) for _ in range(n)]
            ykey = [v for v, n in zip(values, taken) for _ in range(counts[v] - n)]
            weight = math.prod(math.comb(counts[v], n) for v, n in zip(values, taken))
            splits.append((weight, _flat(xkey, dim), _flat(ykey, dim)))
        plan.append(tuple(splits))
    return tuple(plan)


def contract_full(x: SymTensor, y: SymTensor):
    """Sum over all d**r ordered tuples of x[idx] * y[idx]."""
    x._require_same_shape(y)
    (tx, sx), (ty, sy) = integer_table(x), integer_table(y)
    return Fraction(sum(map(mul, tx, ty)), sx * sy)


def contract_one_free(x: SymTensor, y: SymTensor) -> dict:
    """T[i, j] = sum over all (r-1)-tuples k of x[(i,)+k] * y[(j,)+k], the
    flattened product (x, 1)(y, r-1).

    Returns a dict keyed by ``(i, j)`` that holds all d*d entries, zeros
    included, so ``T[i, j]`` indexes it like a d x d array.
    """
    x._require_same_shape(y)
    if x.rank < 2:
        raise ValueError("contraction with one free index needs rank >= 2")
    rows, scale = flat_product((x, 1), (y, x.rank - 1))
    return {(i, j): Fraction(v, scale)
            for i, row in enumerate(rows) for j, v in enumerate(row)}


def flat_product(*links) -> tuple:
    """The product, left to right, of the flattenings ``(tensor, k)``, each
    the tensor's integer table as a d**k x d**(r-k) matrix: ``(rows,
    scale)``, the product's integer rows over the product of the scales.

    A symmetric tensor's columns are the rows of its d**(r-k) x d**k
    flattening, so every step dots rows with rows, multiplied in C by
    ``map(mul, ...)``, and nothing is transposed. Adjacent links must
    share the dimension and the inner size, d**(r-k) of one and d**k of
    the next.
    """
    (first, k), *rest = links
    dim = first.dim
    if any(t.dim != dim or not 0 <= j <= t.rank for t, j in links):
        raise ValueError("the links' dimensions differ or a flattening is "
                         "outside its tensor's rank")
    table, scale = integer_table(first)
    rows = _table_rows(table, dim ** k)
    for tensor, k in rest:
        if len(rows[0]) != dim ** k:
            raise ValueError(f"inner sizes {len(rows[0])} and {dim ** k} differ")
        table, factor_scale = integer_table(tensor)
        columns = _table_rows(table, dim ** (tensor.rank - k))
        rows = [[sum(map(mul, row, column)) for column in columns] for row in rows]
        scale *= factor_scale
    return rows, scale


def sym_product(*links) -> SymTensor:
    """``flat_product`` of ``links`` symmetrized: the orbit means of its
    entries, a tensor of rank k of the first link plus r-k of the last."""
    rows, scale = flat_product(*links)
    (first, k), (last, j) = links[0], links[-1]
    return orbit_means(k + last.rank - j, first.dim,
                       [v for row in rows for v in row], scale)


# Seeded generation uses a splitmix64 stream so fixtures are reproducible
# from the seed alone: state advances by the golden-ratio increment
# 0x9E3779B97F4A7C15 and each output is the xor-shift/multiply mix below.
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stream(seed: int):
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        yield _mix64(state)


def derive_seed(seed: int, salt: int) -> int:
    """Deterministic sub-seed for fixture families (retries, sample loops)."""
    return _mix64((seed & _MASK64) ^ (((salt + 1) * _GAMMA) & _MASK64))


def random_symmetric(rank: int, dim: int, seed: int, bound: int = 9) -> SymTensor:
    """Seeded pseudo-random tensor with rational components.

    One (numerator, denominator) pair is drawn per canonical key in
    lexicographic order; numerators fall in [-bound, bound] and denominators
    in [1, bound], so the same seed reproduces the same tensor anywhere.
    The form takes the numerators over the lcm of the drawn denominators.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    stream = _stream(seed)
    # num is drawn before den, as the tuple evaluates left to right
    draws = [(next(stream) % (2 * bound + 1) - bound, next(stream) % bound + 1)
             for _ in canonical_keys(rank, dim)]
    # star-args from a list, not a generator: a generator's tuple is grown
    # by resizing, which leaves tuples of many sizes on CPython's free lists
    # and measurably raises peak RSS over many calls
    scale = math.lcm(*[den for _, den in draws])
    return SymTensor(rank, dim, [num * (scale // den) for num, den in draws], scale)
