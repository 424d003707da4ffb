"""Structured pass/fail records for identity suites: each row is a named
tuple, ``IdentityCheck``, and a ``VerificationReport`` holds a suite's
rows and notes; its ``to_dict`` is the JSON that ``hypermat verify``
prints, one object per row from ``_asdict()``."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .rational import format_scalar
from .tensor import SymTensor

PASS = "pass"
FAIL = "fail"
REPORTED = "reported"


class IdentityCheck(NamedTuple):
    """One verified identity: pass means the residual is exactly zero.

    ``reported`` marks exploratory checks that are recorded but never
    asserted (they do not fail a suite).
    """

    identity: str
    formula: str
    status: str
    residual: str
    seed: int | None = None


class VerificationReport:
    def __init__(self, suite: str, checks: Iterable[IdentityCheck] = (), notes=()):
        self.suite = suite
        self.checks = list(checks)
        self.notes = dict(notes)

    @property
    def all_pass(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)
        self.notes.update(other.notes)

    def to_dict(self) -> dict:
        out = {"suite": self.suite,
               "checks": [c._asdict() for c in self.checks],
               "all_pass": self.all_pass}
        if self.notes:
            out["notes"] = self.notes
        return out


def residual_magnitude(residual) -> str:
    """Exact string form of a residual's largest component."""
    if isinstance(residual, SymTensor):
        return format_scalar(residual.max_abs())
    return format_scalar(abs(residual))


def check(identity: str, formula: str, residual, seed: int | None = None,
          asserted: bool = True) -> IdentityCheck:
    """Build a check row from a residual (scalar, tensor, or exact max)."""
    magnitude = residual_magnitude(residual)
    if not asserted:
        status = REPORTED
    else:
        status = PASS if magnitude == "0" else FAIL
    return IdentityCheck(identity, formula, status, magnitude, seed)
