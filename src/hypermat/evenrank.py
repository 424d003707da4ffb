"""Even-rank layer: the row-product determinant, the recurrence /
Cayley-Hamilton checks for fourth-rank (and generically even-rank)
completely symmetric tensors, and the explicit two-dimensional polynomial
identities. Determinants, inverses and invariant sequences themselves are
``engine.epsilon_determinant``, ``engine.epsilon_inverse`` and
``invariants.invariant_values``."""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import engine, invariants
from .report import VerificationReport, check
from .tensor import SymTensor, canonical_key, contract_full, contract_one_free, symmetrized_from


def cayley_det(a: SymTensor):
    """Row-product determinant: signed sum over (r-1)-tuples of
    permutations with the first index running over the diagonal.

    Coincides with engine.epsilon_determinant for even rank; for odd rank
    it is generally nonzero, unlike the fully signed contraction.
    """
    d = a.dim
    acc, scale, _ = engine._signed_sum([a] * d, (), (tuple(range(d)),))
    return acc[0] * scale


_RECURRENCE_FORMULAS = ("d(C_s)/dG + C_s*inv(G) == d(C_{s+1})/dA",
                        "d(C_d)/dG + C_d*inv(G) == 0")


def verify_recurrence_even(a: SymTensor, g: SymTensor,
                           seed: int | None = None) -> VerificationReport:
    """Recurrence residuals for every order; the order-d row is the
    Cayley-Hamilton statement."""
    return VerificationReport("even-rank-recurrence", invariants.recurrence_checks(
        a, g, invariants.metric_determinant(g), engine.epsilon_inverse(g),
        _RECURRENCE_FORMULAS, seed))


def _one_three_split(a: SymTensor, g_inv: SymTensor) -> SymTensor:
    # sym over (i,j,k,l) of A[i,m,n,p] G^[m,n,p,q] A[q,j,k,l]
    d = a.dim
    bridge = contract_one_free(a, g_inv)

    def component(idx):
        i, rest = idx[0], idx[1:]
        return sum(bridge[i, q] * a.entries.get(canonical_key((q,) + rest), Fraction(0))
                   for q in range(d))

    return symmetrized_from(4, d, component)


def _two_two_split(a: SymTensor, g_inv: SymTensor) -> SymTensor:
    # sym over (i,j,k,l) of A[i,j,m,n] G^[m,n,p,q] A[p,q,k,l]
    d = a.dim
    pair = {}
    for i in range(d):
        for j in range(d):
            for p in range(d):
                for q in range(d):
                    total = Fraction(0)
                    for m in range(d):
                        for n in range(d):
                            av = a.entries.get(canonical_key((i, j, m, n)))
                            if not av:
                                continue
                            gv = g_inv.entries.get(canonical_key((m, n, p, q)))
                            if gv:
                                total += av * gv
                    pair[(i, j, p, q)] = total

    def component(idx):
        i, j, k, l = idx
        return sum(pair[(i, j, p, q)]
                   * a.entries.get(canonical_key((p, q, k, l)), Fraction(0))
                   for p in range(d) for q in range(d))

    return symmetrized_from(4, d, component)


def quadratic_identity_residual(a: SymTensor, g: SymTensor) -> SymTensor:
    """Two-dimensional fourth-rank polynomial identity residual:

        C_1*A - 4*(1|3 split) + 3*(2|2 split) - C_2*G

    where the splits contract two copies of A through the inverse metric
    and symmetrize the four free indices (mean over orderings). Exactly
    zero for d = 2.
    """
    if a.rank != 4 or g.rank != 4 or a.dim != 2 or g.dim != 2:
        raise ValueError("the quadratic identity is stated for rank 4, d = 2")
    g_inv = engine.epsilon_inverse(g)
    c1 = contract_full(g_inv, a)
    c2 = invariants.invariant_of_order(a, g, 2)
    return (a * c1
            - _one_three_split(a, g_inv) * 4
            + _two_two_split(a, g_inv) * 3
            - g * c2)


def pair_cycle_trace(a: SymTensor, a_inv: SymTensor):
    """inv[m,n,p,q] A[p,q,r,s] inv[r,s,t,u] A[t,u,m,n], all indices summed."""
    d = a.dim
    total = Fraction(0)
    for m, n, p, q, r, s, t, u in itertools.product(range(d), repeat=8):
        v1 = a_inv.entries.get(canonical_key((m, n, p, q)))
        if not v1:
            continue
        v2 = a.entries.get(canonical_key((p, q, r, s)))
        if not v2:
            continue
        v3 = a_inv.entries.get(canonical_key((r, s, t, u)))
        if not v3:
            continue
        v4 = a.entries.get(canonical_key((t, u, m, n)))
        if v4:
            total += v1 * v2 * v3 * v4
    return total


def self_identity_residual(a: SymTensor) -> SymTensor:
    """Metric-free reduction of the quadratic identity at d = 2:

        (2|2 split through inv(A)) - (1/2)*(pair-cycle trace)*A
    """
    if a.rank != 4 or a.dim != 2:
        raise ValueError("the self identity is stated for rank 4, d = 2")
    a_inv = engine.epsilon_inverse(a)
    return (_two_two_split(a, a_inv)
            - a * (pair_cycle_trace(a, a_inv) / 2))


_QUADRATIC_FORMULA = ("C_1*A - 4*sym(A:invG:A, 1|3 split) "
                      "+ 3*sym(A:invG:A, 2|2 split) - C_2*G == 0")
_SELF_FORMULA = ("sym(A:invA:A, 2|2 split) "
                 "- (1/2)*(pair-cycle trace)*A == 0")


def verify_poly_identity_d2(a: SymTensor, g: SymTensor,
                            seed: int | None = None) -> VerificationReport:
    """The d = 2 polynomial identity; when the metric is the tensor itself
    the metric-free reduction is checked as well."""
    report = VerificationReport("even-rank-poly-identity")
    report.checks.append(check(
        "quadratic_identity", _QUADRATIC_FORMULA,
        quadratic_identity_residual(a, g), seed))
    if a == g:
        report.checks.append(check(
            "self_metric_identity", _SELF_FORMULA,
            self_identity_residual(a), seed))
    return report
