"""Signed-permutation contraction engine.

The primitive here is a sum over r-tuples of permutations of {0..d-1}:
each tuple contributes the product of the permutation signs times a
product of factor components, where factor t takes its r indices from the
t-th values of the r permutations. One permutation plays the role of one
antisymmetric sign symbol. Determinants, discriminant numerators and
inverse tensors are all normalizations of this primitive or of its
slot-freed gradients. The paper's permutation tensor of order s,
contracted with s symmetric tensors, is this primitive on those tensors
and d-s copies of the metric; its order-1 case is ``epsilon_inverse``.

Every sum takes one of two routes, by whether it frees a slot: a sum
with none runs ``_enumerate``, a slot-freed gradient ``_gradient_sum``,
which takes one backward walk of the full plan when it holds two or
more classes of factors and the sign-level kernel when it holds d-1
copies of one tensor. On a polarized shape a pair (a, g) of even rank
instead takes all its sums from one run of the row plan over a packed
form, and all its gradients from one forward and one backward run of it
(``_packed``, see "Pairs"). Each route reads a factor as its form
alone, and finds a canonical key's position in it by the key's multiset
code (``_key_codes``): value v is coded (r+1)**v, and a multiset of at
most r values by the sum of its values' codes, so codes add up in any
order and no index prefix is sorted.

- Restriction. Permuting the positions of identical factors (the same
  permutation applied to every sign symbol) leaves a term's factor
  product unchanged and multiplies its sign by sgn(pi)**r. So at even
  rank the paper's coset sum, the first permutation restricted to the
  C(d,s) block-monotone representatives of two blocks of identical
  factors and scaled by s!(d-s)!, equals the full sum, and is computed
  as the full sum, or on a polarized shape as a digit of the pair's
  packed row product (see "Pairs"). Fixing the first permutation to the
  identity gives the row product: 1/d! times the full sum at even rank,
  and at odd rank, where the full sum vanishes, generally nonzero. At
  odd rank a full sum with a repeated factor is 0 without a plan:
  swapping the two copies negates every term. The sign-level route uses
  the symmetry in its run sort (see "Coalesced states").
- Positions, the route of every request with no freed slot (the
  determinant, the row product, the coset sums and full sums). The sum
  is a dynamic programme over factor positions, the subset DP of Bellman
  and of Held and Karp: after t positions each sign symbol has used a
  set of t values, and the rest of the sum depends on those sets alone.
  Placing value v for a symbol multiplies by (-1)**|{u used : u > v}|,
  and placing the r values at position t multiplies by factor t's
  component there. A state holds each symbol's used values as a
  bitmask. Every factor is completely symmetric and the sign product is
  symmetric in the symbols, so the masks of interchangeable symbols are
  kept sorted, and symbols with equal masks take their moves as
  multisets, each counted by its orderings, with the sum of their codes.
  A shape has two plans: the full plan keeps all r masks, and the row
  plan's symbol 1 places value t at position t with sign +1, so it adds
  nothing to the state and only its value to each transition's key.
  The states and moves depend on the shape alone (rank, dimension, row
  or full), so ``_position_plan`` builds them once per shape as flat
  tuples of ints, per transition its source state, the position of its
  r values' canonical key and its signed coefficient. A call reads each factor's
  form numerators at those positions, sums per destination state with
  Python integers only, and divides the scales out once at the end.
  The full sum is linear in step 0's factor, so a gradient of two or
  more held classes is the derivative at step 0 of one backward walk
  of the full plan (see "Pairs") over the held numerators at steps
  1..d-1, with no forward pass.
- Sign levels, the route of the gradient that holds d-1 copies of one
  tensor when no pair serves it (see "Pairs"): at odd rank, below the
  crossover, outside a block, or before the block computed the sums of
  a pair that holds the tensor. It leaves one position out of the
  product and accumulates each term at the canonical key of that
  position's r indices. A gradient depends only on the multiset of held
  factors: moving the freed slot to position 0 and the held factors
  into order by ``form`` is a permutation pi of positions, which
  multiplies the sum by sgn(pi)**r (+1 at even rank). So
  ``epsilon_product_gradient`` makes one request per held multiset,
  ``_held_gradient``, freed at position 0 with the held factors sorted,
  and applies that sign at every rank.
- Coalesced states. The sign-level route places the sign symbols one
  level at a time, and a partial term is a state: the code of each held
  position's index prefix, the code of the freed slot's index prefix,
  and a sign. Every factor is completely symmetric, so its value depends
  only on the multiset of indices at its position, which its code
  names: two states with equal codes have the same continuation. After
  each level equal states are merged with their signs summed into an
  integer coefficient, and states whose coefficient is 0 are dropped.
  The held copies merge positions as well: a permutation sigma of the
  held positions, applied to a state's prefixes, multiplies its
  continuation by sgn(sigma) per level still to place (substitute
  p o sigma for each later permutation p). So after each level but the
  last the held codes are sorted, one run, and the coefficient takes
  the parity of that sort when an odd number of levels remains; a state
  with two equal codes is then dropped, its continuation being its own
  negative. From d = 3 the first level so merges into the states whose
  lead is increasing on the held positions, at even rank with every
  coefficient (d-1)! times larger and at odd rank into none. The freed
  slot's code merges the orderings of its prefix, so a key holds the
  sum over its orderings: its multiplicity times the formal value. No
  level but the last reads a factor, so the states that reach it depend
  on the rank and dimension alone and are built once per shape
  (``_plan``), each prefix a row of the positions of its d completions.
  A call reads the held numerators at those rows into the last level
  only, and adds each freed index into its canonical key.
- Pairs. At even rank the full sum is symmetric and multilinear in its
  factor positions, so the row product of X*a + g polarizes (Olver,
  *Classical Invariant Theory*, 1999):
  row(X*a + g) = sum_s X**s E(a^s g^(d-s)) / (s!(d-s)!), with E the full
  sum. With a and g over a common scale L, numerators A and G, each key
  of the packed form holds (A << B) + G, so X = 2**B, and one integer
  run of the row plan over d packed copies holds every coefficient as a
  base-2**B digit (Kronecker substitution). A position plan is a
  straight-line program, so one reverse walk over its steps gives the
  derivative of its sum in every numerator at a constant multiple of
  the forward cost (Baur and Strassen, *Theoret. Comput. Sci.* 22, 1983;
  ``_position_derivative``): a transition (source, offset, coefficient)
  of step t into a state of adjoint w adds w*coefficient*value[source]
  to the derivative at ``offset`` and w*coefficient*factor_t[offset] to
  the adjoint of ``source``, where the forward values are given: at
  every step here, at step 0 alone on the walk (see "Positions"). Over
  d copies of one form the steps'
  derivatives add up in one list D, and since the full sum is d! times
  the row product at even rank, (d-1)!*D is the sign-level accumulator
  of the gradient holding d-1 copies. Over the packed form that is
  sum_j C(d-1, j) X**j times the accumulator of the gradient holding
  a^j g^(d-1-j), so one forward and one backward run give all d
  gradients of the pair as digits, the copies of g (j = 0) and of a
  (j = d-1) included. A digit is signed: it is read in
  [-2**(B-1), 2**(B-1)), and a carry left past the last digit raises
  ``RuntimeError``. B is 2 bits over a proved bound on every
  coefficient, the terms of the sum times (max|A| + max|G|) to the
  number of factors read: (d!)**(r-1) (max|A| + max|G|)**d for the
  sums, read over L**d, and (d!)**r (max|A| + max|G|)**(d-1) for the
  gradients, read over L**(d-1). At odd rank the sum is antisymmetric
  in the positions of identical factors, so there is no pair route. A
  packed form is never a ``SymTensor``: its gcd pass would mix the
  digits. The sums replace d-1 full-plan sums and the gradients d
  unpacked gradients; the pass wins from d = 4, and from d = 3 at rank 4
  and above (``_polarized``); below that crossover each sum and
  gradient is enumerated on its own. A mixed gradient asks for its pair
  by its two held classes. The copies of one tensor name no pair, so a
  block that computes a pair's sums (``_pair(a, g, 0)``) remembers the
  pair under each of its tensors, keeping the first pair it sees for a
  tensor, and a later request for the copies of that tensor reads the
  pair's gradients, with the two tensors sorted by ``form`` as a mixed
  request sorts them. A copies request outside a block, or before its
  pair's sums, takes the sign-level kernel, as does the copies request
  of a tensor in no pair (``hypermat inverse``, the odd-rank lift).
- Work. Before a plan is built, its route estimates its work from the
  shape alone, the position DP its transitions before any reduction
  (each of the r symbols moving to any unused value) and a slot-freed
  gradient, on either route, its (d!)**r terms over the product of the
  factorials of its held classes' sizes, and a request over
  ``WORK_BUDGET`` raises ``ValueError``;
  each plan reads the key codes first after its check. A pair's
  gradients run the row plan, so they are budgeted by its position-DP
  estimate. ``check_budget`` runs the position DP's
  check alone, so a caller can refuse a shape before it builds the
  factors. The estimates are loose: they refuse the hopeless shapes, not
  every slow one. No route counts terms;
  ``coset_restricted_product_counted`` returns the closed form C(d,s)
  (d!)**(r-1) beside its value.
- Shared results. The invariants c_0..c_d, their gradients and the
  recurrence rows all read the same few sums of s copies of a tensor and
  d-s copies of a metric, and the same c_s, so one identity sample asks
  for most of them several times. Inside a ``with shared_sums():`` block
  each call of a function decorated with ``once_per_block`` is computed
  once and a repeat is served from a dict that lives only as long as the
  block. That is the row product (so the determinant, c_0's and c_d's
  numerators and the row-product determinant are one sum), the gradient
  of a held multiset, the packed sums and the packed gradients of a pair
  (``_pair``), the inverse, the invariant c_s and the rank-2 matrix
  identity. A call is keyed by the function's qualified name, each
  tensor argument's (rank, dim, ``form``) and each integer argument. A
  form is the tensor's value in lowest terms, so equal tensors give
  equal keys whatever object holds them, and no key holds a tensor. So
  the metric's det(g) and inv(g) are computed once per block and passed
  by no caller, and the d gradients that hold a^j g^(d-1-j) are all that
  ``grad_tensor``, ``grad_metric``, the bridge rows and the inverse of a
  or g enumerate for a pair (a, g). On a polarized shape they are one
  packed pass, the copies of a tensor included once the block has
  computed the sums of a pair that holds it (see "Pairs"); a copies
  request before that takes the kernel. A raised error is never
  stored. A full sum and a coset sum with two non-empty blocks are not
  served themselves; c_s, which reads the coset sum, is, and on a
  polarized shape the coset sums of 0 < s < d of a pair are one packed
  pass. Results are immutable
  values (a ``Fraction`` or a tensor); the dict also holds the pair each
  tensor is remembered in. The dict is scoped, not global: a sample
  reuses only its own results, so the cost of a call never depends on
  what ran before its block, and the memory goes when the block ends. Outside a block every call computes, except in a function wrapped
  in ``sharing``, which opens a block when none is active.

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
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, wraps
from operator import add, eq, gt, itemgetter, methodcaller, mul, sub
from typing import Sequence

from .errors import SingularTensorError
from .tensor import SymTensor, canonical_keys, multiplicity


def permutation_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation given as a tuple of images: +1 even, -1 odd."""
    inversions = sum(itertools.starmap(gt, itertools.combinations(perm, 2)))
    return -1 if inversions % 2 else 1


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


@lru_cache(maxsize=64)
def _key_codes(rank: int, dim: int):
    """(codes, key_at): the code (r+1)**v of each value v, and per code of
    a canonical key the key's position in a form. A multiset of at most r
    values is coded as the sum of its values' codes, so the codes of the
    values placed in any order add up to the code of their multiset."""
    codes = tuple((rank + 1) ** v for v in range(dim))
    return codes, {sum(map(codes.__getitem__, key)): k
                   for k, key in enumerate(canonical_keys(rank, dim))}


@lru_cache(maxsize=64)
def _plan(rank: int, dim: int):
    """Per-shape structure of the sign-level kernel, the route of the
    gradient that holds d-1 copies of one tensor: the freed slot at
    position 0 and the d-1 held positions after it in one run.

    Every level (sign symbol) but the last reads only codes and signs,
    never a factor, so the states that reach the last level depend on the
    shape alone and are built here, once per shape: (held prefixes,
    freed keys, coefficient), after the merge and the sort of the run
    (see "Coalesced states"). Each multiset of r-1 values is a row
    of ``rows``, the positions of its d completions (value 0..d-1) in a
    form; a state holds each held prefix as its row's index and the freed
    prefix as the row itself. ``widths`` counts the states after each
    outer level.
    The last level is grouped by the freed slot's value into getters that
    pick the sign and one entry per held prefix from their rows of
    numerators laid end to end behind a leading (1, -1). Its work is
    budgeted by ``_gradient_sum`` before it is built.
    """
    codes, key_at = _key_codes(rank, dim)
    perms = signed_permutations(dim)
    moves = [(s, tuple(map(codes.__getitem__, p[1:])), codes[p[0]]) for p, s in perms]
    # states map (held prefix codes, freed prefix code) to the summed sign
    # of the partial terms that reach them
    states = {((0,) * (dim - 1), 0): 1}
    widths = []
    for k in range(rank - 1):
        merged: dict = {}
        for (base, out), coeff in states.items():
            for s, held, freed in moves:
                key = (tuple(map(add, base, held)), out + freed)
                merged[key] = merged.get(key, 0) + coeff * s
        odd = (rank - 1 - k) % 2
        canonical: dict = {}
        for (base, out), coeff in merged.items():
            prefixes, sign = _canonical(base, odd)
            if sign:
                key = (prefixes, out)
                canonical[key] = canonical.get(key, 0) + coeff * sign
        states = {key: coeff for key, coeff in canonical.items() if coeff}
        widths.append(len(states))
    row_of, rows = {}, []
    for prefix in itertools.combinations_with_replacement(range(dim), rank - 1):
        code = sum(map(codes.__getitem__, prefix))
        row_of[code] = len(rows)
        rows.append(tuple(key_at[code + c] for c in codes))
    groups: dict = {}
    for p, s in perms:
        # the sign is picked from the leading (1, -1) of the rows; a second
        # pick of the 1 keeps the result a tuple when no row is held
        positions = tuple(2 + j * dim + v for j, v in enumerate(p[1:]))
        picks = itemgetter(s < 0, *(positions or (0,)))
        groups.setdefault(p[0], []).append(picks)
    last = tuple((o, tuple(picks)) for o, picks in groups.items())
    return (tuple((tuple(map(row_of.__getitem__, base)), rows[row_of[out]], coeff)
                  for (base, out), coeff in states.items()),
            last, tuple(rows), tuple(widths))


@lru_cache(maxsize=64)
def _weights(rank: int, dim: int) -> tuple:
    """r! over each canonical key's multiplicity: a gradient's sum over a
    key's orderings times its weight, over r!, is its formal value."""
    return tuple(math.factorial(rank) // multiplicity(key)
                 for key in canonical_keys(rank, dim))


# the most work a request may take, in its route's estimate (see "Work"):
# the largest the tests, CI and the benchmark run are a rank-8
# d=4 determinant (8.6e8 transitions) and a rank-6 d=4 gradient (3.2e7
# terms after the merge), and a rank-2 d=14 determinant (2.0e9) is refused
WORK_BUDGET = 10 ** 9


def _within_budget(work: int, rank: int, dim: int):
    """Refuse a request whose shape-only work estimate exceeds
    ``WORK_BUDGET``, before anything of it is built."""
    if work > WORK_BUDGET:
        # a Decimal formats an int of any size; past 1e308 a float overflows
        raise ValueError(
            f"a signed sum at rank {rank} and dimension {dim} is estimated at "
            f"{Decimal(work):.1e} steps, over the work budget of {WORK_BUDGET:.0e}")


def check_budget(rank: int, dim: int):
    """Refuse a sum of d factors of this shape with no freed slot (a
    determinant, a row product, a coset or full sum) whose position-DP
    estimate exceeds ``WORK_BUDGET``, from the shape alone (see "Work")."""
    # an unreduced DP moves each of the r symbols to any unused value
    _within_budget(sum(math.comb(dim, t) ** rank * (dim - t) ** rank
                       for t in range(dim)), rank, dim)


@lru_cache(maxsize=64)
def _position_plan(rank: int, dim: int, row: bool):
    """Per-shape structure of the position DP, the route of every request
    with no freed slot (see "Positions").

    Step t places position t. A state is the used values of the
    interchangeable sign symbols as sorted bitmasks: all r of them in the
    full plan, the r-1 after symbol 1 in the ``row`` plan, whose symbol 1
    places value t at step t with sign +1 and so only adds ``codes[t]``
    to each transition's key. Equal masks take their moves as multisets,
    each with its count of orderings. A step is flat tuples of ints: per
    transition its source state, the position of its values' canonical
    key in the factor's form and its signed coefficient, and per
    destination state the bounds of its transitions. ``widths`` counts
    the states after each step; work is budgeted before anything is
    built.
    """
    check_budget(rank, dim)
    codes, key_at = _key_codes(rank, dim)

    def sign(mask: int, v: int):
        """The sign of placing v after the values of ``mask``."""
        return -1 if (mask >> (v + 1)).bit_count() % 2 else 1

    group_moves: dict = {}

    def moves(mask: int, count: int):
        """Moves of ``count`` symbols that share ``mask``: (new masks,
        code, signed count of orderings)."""
        unused = [v for v in range(dim) if not mask >> v & 1]
        if count == 1:
            # every move of a rank-2 plan; the general loop below doubles
            # the cold build of a rank-2 d=12 row plan
            return [((mask | 1 << v,), codes[v], sign(mask, v)) for v in unused]
        found = []
        for values in itertools.combinations_with_replacement(unused, count):
            ways = math.factorial(count)
            for _, same in itertools.groupby(values):
                ways //= math.factorial(len(tuple(same)))
            found.append((tuple(mask | 1 << v for v in values),
                          sum(map(codes.__getitem__, values)),
                          ways * math.prod(sign(mask, v) for v in values)))
        return found

    states = {(0,) * (rank - 1 if row else rank): 0}
    steps, widths = [], []
    for t in range(dim):
        lead = codes[t] if row else 0
        dests: dict = {}
        for masks, source in states.items():
            # the moves of each group of equal masks, multiplied out; a
            # rank-1 row plan has no mask and takes the one empty move
            combos = [((), 0, 1)]
            for mask, same in itertools.groupby(masks):
                group = (mask, len(tuple(same)))
                if group not in group_moves:
                    group_moves[group] = moves(*group)
                combos = [(m + gm, c + gc, w * gw) for m, c, w in combos
                          for gm, gc, gw in group_moves[group]]
            several = len(set(masks)) > 1
            for new_masks, code, coeff in combos:
                if several:
                    new_masks = tuple(sorted(new_masks))
                pairs = dests.setdefault(new_masks, {})
                pair = (source, key_at[code + lead])
                pairs[pair] = pairs.get(pair, 0) + coeff
        states = {}
        sources, offsets, coefficients, starts, ends = [], [], [], [], []
        for dest, pairs in dests.items():
            kept = [(pair, coeff) for pair, coeff in pairs.items() if coeff]
            if kept:
                states[dest] = len(states)
                starts.append(len(sources))
                for (source, offset), coeff in kept:
                    sources.append(source)
                    offsets.append(offset)
                    coefficients.append(coeff)
                ends.append(len(sources))
        steps.append(tuple(map(tuple, (sources, offsets, coefficients, starts, ends))))
        widths.append(len(states))
    return tuple(steps), tuple(widths)


def _canonical(codes: tuple, odd: int):
    """(codes, sign) of the canonical state of held prefix ``codes``: the
    codes sorted, and the sign the continuation picks up, the parity of
    that sort when an odd number of levels remains. The sign is 0 when
    two codes are equal at an odd count: the swap fixes the state and
    flips its continuation, which is therefore 0."""
    run = tuple(sorted(codes))
    if not odd:
        return run, 1
    if any(map(eq, run, run[1:])):
        return None, 0
    return run, permutation_sign(codes)


# results by ``once_per_block`` key
_SHARED: ContextVar = ContextVar("hypermat_shared_sums", default=None)


@contextmanager
def shared_sums():
    """Compute each distinct call of a ``once_per_block`` function once
    within the block.

    A nested block starts empty and the enclosing one resumes when it
    ends.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def once_per_block(function):
    """Serve ``function``, pure in its tensor and integer arguments, from
    the enclosing ``shared_sums`` block, keyed by its qualified name,
    each tensor's (rank, dim, form) and each integer. Nothing is stored
    when ``function`` raises; outside a block, and with keyword
    arguments, every call computes."""
    name = f"{function.__module__}.{function.__qualname__}"

    @wraps(function)
    def served(*args, **kwargs):
        memo = _SHARED.get()
        if memo is None or kwargs:
            return function(*args, **kwargs)
        key = (name, *[(x.rank, x.dim, x.form) if isinstance(x, SymTensor) else x
                       for x in args])
        result = memo.get(key)
        if result is None:
            result = memo[key] = function(*args)
        return result
    return served


def sharing(function):
    """Run ``function`` in the enclosing ``shared_sums`` block or a new one."""
    @wraps(function)
    def run(*args, **kwargs):
        with nullcontext() if _SHARED.get() is not None else shared_sums():
            return function(*args, **kwargs)
    return run


def _position_values(steps: tuple, numerators: Sequence) -> list:
    """The integer values of a position plan's states before each of its
    ``steps`` and after the last, over the form numerators of the factor
    at each position, before the scales."""
    values = [1]
    kept = [values]
    for factor, (sources, offsets, coefficients, starts, ends) in zip(numerators, steps):
        moved = map(mul, map(mul, map(values.__getitem__, sources),
                             map(factor.__getitem__, offsets)), coefficients)
        # a step with one transition per state and the last step, which
        # has one destination, skip the running sums: without these two
        # cases verify-even-top ran about 5 % fewer ops per second
        if len(ends) == len(sources):
            values = list(moved)
        elif len(ends) == 1:
            values = [sum(moved)]
        else:
            running = [0, *itertools.accumulate(moved)]
            values = list(map(sub, map(running.__getitem__, ends),
                              map(running.__getitem__, starts)))
        kept.append(values)
    return kept


def _position_sum(steps: tuple, numerators: Sequence) -> int:
    """The integer sum of a position plan's ``steps`` over the form
    numerators of the factor at each position, before the scales."""
    return _position_values(steps, numerators)[-1][0]


def _position_derivative(steps: tuple, factors: Sequence, values: list) -> list:
    """The derivative of a position plan's integer sum over the form
    numerators ``factors[t]`` at each step t, summed over the steps t
    whose forward values ``values[t]`` are given: one reverse walk over
    the ``steps`` (see "Pairs"). It never reads step 0's factor, and
    ``values`` [[1]] is the derivative at step 0 with no forward pass."""
    derivative = [0] * len(factors[-1])
    adjoint = [1]
    for t in reversed(range(len(steps))):
        sources, offsets, coefficients, starts, ends = steps[t]
        # the adjoint of each transition's destination, by the same two
        # cases as the forward pass
        if len(ends) == len(sources):
            into = adjoint
        elif len(ends) == 1:
            into = itertools.repeat(adjoint[0], len(sources))
        else:
            into = itertools.chain.from_iterable(
                map(itertools.repeat, adjoint, map(sub, ends, starts)))
        weighted = list(map(mul, into, coefficients))
        if t < len(values):
            for offset, v in zip(offsets, map(mul, weighted, map(values[t].__getitem__, sources))):
                derivative[offset] += v
        if t:
            # the states before step t are the destinations of step t-1
            adjoint = [0] * len(steps[t - 1][3])
            for source, v in zip(sources, map(mul, weighted, map(factors[t].__getitem__, offsets))):
                adjoint[source] += v
    return derivative


def _enumerate(factors: Sequence[SymTensor], row: bool = False) -> Fraction:
    """The signed sum of ``factors`` by the position DP: its shape's plan,
    built on the shape's first call, run over the factors' forms. The
    full sum, or with ``row`` the sum with the first permutation fixed to
    the identity."""
    rank, dim = factors[0].rank, factors[0].dim
    if rank % 2 and not row and len({f.form for f in factors}) < dim:
        # swapping two identical factors negates every term
        return Fraction(0)
    steps, _ = _position_plan(rank, dim, row)
    return Fraction(_position_sum(steps, [f.form[0] for f in factors]),
                    math.prod(f.form[1] for f in factors))


def _gradient_sum(rank: int, dim: int, *held: SymTensor) -> SymTensor:
    """The gradient at position 0 of d factors whose other d-1 are
    ``held``, sorted by ``form``, admitted by its (d!)**r terms over the
    classes' factorials (see "Work"): by the full plan's backward walk
    when ``held`` holds two or more classes (see "Positions"), else by
    the sign-level kernel. A key holds the sum over its orderings, its
    multiplicity times the per-component formal value."""
    runs = [len(tuple(same)) for _, same in itertools.groupby(f.form for f in held)]
    _within_budget(max(math.factorial(dim) ** rank // math.prod(map(math.factorial, runs)),
                       math.factorial(dim)), rank, dim)
    weights = _weights(rank, dim)
    if len(runs) > 1:
        steps, _ = _position_plan(rank, dim, False)
        acc = _position_derivative(steps, [None, *(f.form[0] for f in held)], [[1]])
    else:
        states, last, rows, _ = _plan(rank, dim)
        # the held numerators at each row's keys; at d=1 nothing is held
        held_rows = held and [[held[0].form[0][k] for k in keys] for keys in rows]
        acc = [0] * len(weights)
        for base, out, coeff in states:
            flat = [1, -1]
            for b in base:
                flat += held_rows[b]
            pick_from = methodcaller("__call__", flat)
            for o, picks in last:
                v = sum(map(math.prod, map(pick_from, picks)))
                if v:
                    acc[out[o]] += coeff * v
    return SymTensor(rank, dim, map(mul, acc, weights),
                     math.prod(f.form[1] for f in held) * math.factorial(rank))


def _polarized(rank: int, dim: int) -> bool:
    """Whether the sums and the mixed gradients of a pair take the packed
    pass (see "Pairs"): at even rank, from the measured crossover on."""
    return rank % 2 == 0 and (dim >= 4 or dim == 3 and rank >= 4)


def _digits(value: int, bits: int, count: int) -> list:
    """The ``count`` signed base-2**bits digits of ``value``, lowest
    first, each in [-2**(bits-1), 2**(bits-1)); a carry left over raises
    ``RuntimeError``."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    for _ in range(count):
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        digits.append(digit)
        value = (value - digit) >> bits
    if value:
        raise RuntimeError(f"a packed sum carries past its {count} digits "
                           f"of {bits} bits")
    return digits


def _packed(a: SymTensor, g: SymTensor, freed: int) -> tuple:
    """Every sum (``freed`` 0) or every gradient (``freed`` 1) of the even-
    rank pair (a, g) by one pass over the packed form X*a + g (see
    "Pairs"): the full sums of a^s g^(d-s) for s = 0..d, or the gradients
    at position 0 holding a^j g^(d-1-j) for j = 0..d-1."""
    rank, dim = a.rank, a.dim
    (a_numerators, a_scale), (g_numerators, g_scale) = a.form, g.form
    scale = math.lcm(a_scale, g_scale)
    a_numerators = [n * (scale // a_scale) for n in a_numerators]
    g_numerators = [n * (scale // g_scale) for n in g_numerators]
    # the proved bound of "Pairs" on every digit's coefficient
    largest = max(map(abs, a_numerators)) + max(map(abs, g_numerators))
    bound = math.factorial(dim) ** (rank - 1 + freed) * largest ** (dim - freed)
    bits = bound.bit_length() + 2
    packed = [(x << bits) + y for x, y in zip(a_numerators, g_numerators)]
    steps, _ = _position_plan(rank, dim, True)
    if not freed:
        digits = _digits(_position_sum(steps, [packed] * dim), bits, dim + 1)
        return tuple(Fraction(digit * math.factorial(s) * math.factorial(dim - s),
                              scale ** dim) for s, digit in enumerate(digits))
    factors = [packed] * dim
    derivative = _position_derivative(steps, factors, _position_values(steps, factors))
    weights, denominator = _weights(rank, dim), scale ** (dim - 1) * math.factorial(rank)
    # (d-1)! times the derivative is the sign-level accumulator of the
    # gradient holding d-1 packed copies
    columns = zip(*[_digits(v * math.factorial(dim - 1), bits, dim) for v in derivative])
    return tuple(SymTensor(rank, dim, [v // math.comb(dim - 1, j) * w
                                       for v, w in zip(column, weights)], denominator)
                 for j, column in enumerate(columns))


@once_per_block
def _pair(a: SymTensor, g: SymTensor, freed: int) -> tuple:
    """Every sum or every gradient of the pair (a, g): ``_packed``, served
    once per block. A block that computes a pair's sums remembers the pair
    under each of its tensors, unless the tensor is in a pair already."""
    result = _packed(a, g, freed)
    memo = _SHARED.get()
    if memo is not None and not freed:
        for tensor in (a, g):
            memo.setdefault(("remembered pair", tensor.rank, tensor.dim, tensor.form),
                            (a, g))
    return result


def _remembered_pair(tensor: SymTensor):
    """The first pair of the enclosing block whose sums held ``tensor``,
    or None."""
    memo = _SHARED.get()
    return None if memo is None else memo.get(
        ("remembered pair", tensor.rank, tensor.dim, tensor.form))


def epsilon_product(factors: Sequence[SymTensor]):
    """Full signed contraction of d factors of rank r (one sign symbol per
    index slot). No factorial normalization is applied; callers divide by
    d! or s!(d-s)! as their definitions require.
    """
    _uniform_shape(factors)
    return _enumerate(factors)


def epsilon_product_gradient(factors: Sequence[SymTensor], position: int) -> SymTensor:
    """Formal derivative of epsilon_product with respect to the components
    of factors[position]; equivalently the signed sum with that slot freed
    on every sign symbol.

    The result is completely symmetric because the remaining factors are;
    the value stored at a canonical key is the derivative with respect to
    any single ordered component in that key's orbit. It is keyed by the
    held factors alone: the request frees position 0 and holds the other
    factors sorted by ``form``, served once per ``shared_sums`` block, and
    is multiplied by sgn(pi)**r for the permutation pi = [position] + the
    sorted held positions (see "Sign levels").
    """
    rank, dim = _uniform_shape(factors)
    if not 0 <= position < dim:
        raise ValueError(f"position {position} out of range for {dim} slots")
    order = sorted((t for t in range(dim) if t != position),
                   key=lambda t: factors[t].form)
    grad = _held_gradient(rank, dim, *[factors[t] for t in order])
    # moving the freed slot first and the held factors into order permutes
    # the positions, which multiplies the sum by sgn(pi) per sign symbol
    return grad if permutation_sign([position, *order]) ** rank > 0 else -grad


@once_per_block
def _held_gradient(rank: int, dim: int, *held: SymTensor) -> SymTensor:
    """The gradient at position 0 of d factors whose other d-1 are
    ``held``, sorted by ``form``, served once per block. On a polarized
    shape it is a digit of a pair's packed gradients when ``held`` is two
    classes, or d-1 copies of a tensor the block remembers in a pair (see
    "Pairs"); else ``_gradient_sum``."""
    if _polarized(rank, dim):
        forms = [f.form for f in held]
        copies = forms.count(forms[0])
        if copies == dim - 1:
            pair = _remembered_pair(held[0])
            if pair:
                x, y = sorted(pair, key=lambda t: t.form)
                # digit d-1 holds d-1 copies of x, digit 0 of y
                return _pair(x, y, 1)[dim - 1 if x.form == forms[0] else 0]
        # the first and the last class cover every held factor only when
        # they differ and are the only two
        elif copies + forms.count(forms[-1]) == dim - 1:
            return _pair(held[0], held[-1], 1)[copies]
    return _gradient_sum(rank, dim, *held)


def coset_restricted_product_counted(factors: Sequence[SymTensor], split: int):
    """(value, count): epsilon_product of ``factors``, which is
    split!(d-split)! times its sum with the first permutation restricted
    to the C(d, split) block-monotone coset representatives, and the
    number of terms that restricted sum covers, C(d, split) * (d!)**(r-1).

    Requires even rank and factors that are constant within the two blocks
    [0, split) and [split, d). Split 0 and split d are d! times
    ``row_product``; every other split is the full sum, on a polarized
    shape a digit of the pair's packed sums (see "Pairs") and otherwise by
    the position DP (see "Positions"), so the count is of the terms the
    restriction covers, not of the steps taken.
    """
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
    if split in (0, dim):
        value = row_product(factors[0]) * math.factorial(dim)
    elif _polarized(rank, dim):
        value = _pair(factors[0], factors[split], 0)[split]
    else:
        value = _enumerate(factors)
    return value, math.comb(dim, split) * math.factorial(dim) ** (rank - 1)


@once_per_block
def row_product(tensor: SymTensor):
    """The signed sum of d copies of ``tensor`` with the first permutation
    fixed to the identity: (d!)**(r-1) terms, the same request as the
    coset sum of d copies at split 0 or d. At even rank it is 1/d! times
    the full sum, the determinant; at odd rank the full sum vanishes and
    this is generally nonzero."""
    return _enumerate([tensor] * tensor.dim, row=True)


def epsilon_determinant(tensor: SymTensor):
    """(1/d!) times the all-copies signed contraction; the even-rank
    determinant (for rank 2 this is the ordinary determinant)."""
    if tensor.rank % 2:
        raise ValueError("odd rank: the signed contraction vanishes "
                         "identically, lift to even rank instead")
    return row_product(tensor)


@once_per_block
def epsilon_inverse(tensor: SymTensor) -> SymTensor:
    """Contravariant inverse: the slot-freed gradient over (d-1)! times the
    determinant. Satisfies inv[(i,)+k] * T[(j,)+k] summed over k = delta,
    for every even rank and every d.

    Proof, by GL(d) invariance. Let a d x d matrix M act on every slot,
    (M.T)[i1..ir] = sum M[i1,j1]..M[ir,jr] T[j1..jr]. Each of the r sign
    symbols absorbs one det(M), so eps((M.T)^d) = det(M)^r eps(T^d), that
    is det(M.T) = det(M)^r det(T). Differentiate at M = I + t E_ij, t = 0:
    the right side gives r delta_ij det(T). On the left, with D[k] the
    formal derivative of det(T) in the ordered component T[k], each slot
    contributes sum_k D[(i,)+k] T[(j,)+k], the same for all r slots because
    D and T are symmetric. Hence sum_k D[(i,)+k] T[(j,)+k] = delta_ij det(T).
    The d factors of eps(T^d) enter alike, so D = d * gradient / d! =
    gradient / (d-1)!, and the inverse is D / det(T).
    """
    det = epsilon_determinant(tensor)
    if det == 0:
        raise SingularTensorError("tensor determinant is zero; no inverse")
    d = tensor.dim
    grad = epsilon_product_gradient([tensor] * d, 0)
    return grad * (Fraction(1, math.factorial(d - 1)) / det)

