"""Completely symmetric tensors over exact scalars.

Storage is sparse and canonical: an entry is kept once per sorted index
tuple (the canonical key), and a lookup at any index ordering resolves
through sorting. The number of distinct orderings of a key is its
multiplicity.

Exact contractions run on integer tables (``integer_table``): a tensor
is expanded once into a dense list over its d**r ordered indices, each
entry its value times the lcm of the tensor's denominators. A
contraction is then integer sums over flattenings of those lists, rows
of d**(r-1) or d**(r-2) entries multiplied in C by ``map(mul, ...)``,
and each output entry becomes one Fraction, the integer sum over the
product of the scales. A result that must be symmetric is read off by
summing each orbit of ordered indices (``orbit_means``). The engine's
kernel builds its tables with the same function. There is no second
arithmetic: constructors reject floats, so every stored value is a
Fraction and every table entry an integer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Mapping, Sequence

from .rational import as_scalar

MultiIndex = tuple


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


@dataclass(frozen=True)
class SymTensor:
    """Completely symmetric tensor of fixed rank and dimension.

    ``entries`` maps canonical keys to nonzero values; an absent key is
    zero. Instances are immutable values (all arithmetic returns new
    tensors), so they are safe to share across threads.
    """

    rank: int
    dim: int
    entries: Mapping[MultiIndex, Fraction]

    @classmethod
    def zero(cls, rank: int, dim: int) -> "SymTensor":
        return cls(rank, dim, {})

    @classmethod
    def from_entries(cls, rank: int, dim: int,
                     entries: Mapping[Sequence[int], object] | Iterable
                     ) -> "SymTensor":
        """Build from (index, value) pairs; indices may be in any order.

        Two distinct input indices that land on the same canonical key are
        an error rather than last-wins. Values are coerced to exact
        rationals by ``rational.as_scalar``, which rejects floats.
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
        return cls(rank, dim, {k: v for k, v in canonical.items() if v})

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
        return not self.entries

    def max_abs(self):
        """Largest absolute component; zero for the zero tensor."""
        return max((abs(v) for v in self.entries.values()), default=Fraction(0))

    def _require_same_shape(self, other: "SymTensor"):
        if (self.rank, self.dim) != (other.rank, other.dim):
            raise ValueError(
                f"shape mismatch: rank {self.rank} dim {self.dim} "
                f"vs rank {other.rank} dim {other.dim}")

    def __add__(self, other: "SymTensor") -> "SymTensor":
        self._require_same_shape(other)
        merged = dict(self.entries)
        for key, value in other.entries.items():
            total = merged.get(key, 0) + value
            if total:
                merged[key] = total
            else:
                merged.pop(key, None)
        return SymTensor(self.rank, self.dim, merged)

    def __neg__(self) -> "SymTensor":
        return SymTensor(self.rank, self.dim,
                         {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return self + (-other)

    def __mul__(self, scalar) -> "SymTensor":
        if isinstance(scalar, SymTensor):
            return NotImplemented
        if not scalar:
            return SymTensor.zero(self.rank, self.dim)
        return SymTensor(self.rank, self.dim,
                         {k: v * scalar for k, v in self.entries.items()})

    __rmul__ = __mul__


def identity(dim: int) -> SymTensor:
    """Rank-2 unit matrix."""
    return SymTensor(2, dim, {(i, i): Fraction(1) for i in range(dim)})


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
            value = as_scalar(rows[i][j])
            if value:
                entries[(i, j)] = value
    return SymTensor(2, d, entries)


# Integer tables. Every contraction below reads its operands as dense
# lists over the d**r ordered indices, each entry an integer numerator
# over one scale per tensor, and forms one Fraction per output entry.


@lru_cache(maxsize=32)
def _orbits(rank: int, dim: int):
    # each canonical key with the flat ordered indices of its orderings
    orbits: dict = {}
    for flat, idx in enumerate(itertools.product(range(dim), repeat=rank)):
        orbits.setdefault(tuple(sorted(idx)), []).append(flat)
    return tuple((key, tuple(flats)) for key, flats in orbits.items())


def _flat(idx: Sequence[int], dim: int) -> int:
    # flat index of an ordered index tuple: sum_k i_k dim**(r-1-k)
    flat = 0
    for i in idx:
        flat = flat * dim + i
    return flat


def integer_table(tensor: SymTensor):
    """Dense entries of a tensor over its d**r ordered indices (flat index
    sum_k i_k d**(r-1-k)) and their common scale: every entry is an
    integer, the value times the lcm of the tensor's denominators, and the
    scale is that lcm.

    Raises TypeError for a value without a denominator (a float), which
    only the bare constructor lets in; ``from_entries`` rejects it up front.
    """
    entries = tensor.entries
    # star-args from a list, not a generator: a generator's tuple is grown
    # by resizing, which leaves tuples of many sizes on CPython's free
    # lists and measurably raises peak RSS over many calls
    try:
        scale = math.lcm(*[v.denominator for v in entries.values()])
    except AttributeError:
        value = next(v for v in entries.values() if not hasattr(v, "denominator"))
        raise TypeError(
            f"tensor value {value!r} is not an exact rational; build tensors "
            "with SymTensor.from_entries, which converts and checks values"
        ) from None
    table = [0] * tensor.dim ** tensor.rank
    for key, flats in _orbits(tensor.rank, tensor.dim):
        v = entries.get(key)
        if v is not None:
            v = v.numerator * (scale // v.denominator)
            for f in flats:
                table[f] = v
    return table, scale


def table_rows(table: list, count: int) -> list:
    """A flat table cut into ``count`` rows of equal length: the d x d**(r-1)
    flattening for count d, the d**2 x d**(r-2) one for count d*d."""
    width = len(table) // count
    return [table[k:k + width] for k in range(0, len(table), width)]


def orbit_means(rank: int, dim: int, flat: Sequence, scale) -> SymTensor:
    """Symmetric tensor whose value at each canonical key is ``scale``
    times the mean of ``flat`` over the key's orderings.

    ``flat`` is indexed like an integer table. An integer orbit sum times
    an int or Fraction scale gives one Fraction per entry.
    """
    num, den = scale.as_integer_ratio()
    entries = {}
    for key, flats in _orbits(rank, dim):
        total = sum([flat[f] for f in flats])
        if total:
            entries[key] = Fraction(total * num, den * len(flats))
    return SymTensor(rank, dim, entries)


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
    den = math.comb(p + q, p) * sx * sy
    entries = {}
    for key, splits in _outer_splits(p, q, d):
        acc = sum([weight * tx[a] * ty[b] for weight, a, b in splits])
        if acc:
            entries[key] = Fraction(acc, den)
    return SymTensor(p + q, d, entries)


@lru_cache(maxsize=16)
def _outer_splits(p: int, q: int, dim: int):
    # each canonical key of rank p+q with its (binomial weight, flat index
    # of the x-block, flat index of the y-block) for every way to take p
    # of its indices into the x-block
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
        plan.append((key, tuple(splits)))
    return tuple(plan)


def contract_full(x: SymTensor, y: SymTensor):
    """Sum over all d**r ordered tuples of x[idx] * y[idx]."""
    x._require_same_shape(y)
    (tx, sx), (ty, sy) = integer_table(x), integer_table(y)
    return Fraction(sum(map(mul, tx, ty)), sx * sy)


def contract_one_free(x: SymTensor, y: SymTensor) -> dict:
    """T[i, j] = sum over all (r-1)-tuples k of x[(i,)+k] * y[(j,)+k].

    Returns a dict keyed by ``(i, j)`` that holds all d*d entries, zeros
    included, so ``T[i, j]`` indexes it like a d x d array.
    """
    x._require_same_shape(y)
    if x.rank < 2:
        raise ValueError("contraction with one free index needs rank >= 2")
    d = x.dim
    (tx, sx), (ty, sy) = integer_table(x), integer_table(y)
    xs, ys = table_rows(tx, d), table_rows(ty, d)
    return {(i, j): Fraction(sum(map(mul, xi, yj)), sx * sy)
            for i, xi in enumerate(xs) for j, yj in enumerate(ys)}


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
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    stream = _stream(seed)
    entries = {}
    for key in canonical_keys(rank, dim):
        num = next(stream) % (2 * bound + 1) - bound
        den = next(stream) % bound + 1
        if num:
            entries[key] = Fraction(num, den)
    return SymTensor(rank, dim, entries)
