"""Exact rational scalars and their string forms.

Every invariant in this package is computed over arbitrary-precision
rationals so that identity checks can demand residuals of exactly zero.
``fractions.Fraction`` already guarantees lowest terms and a positive
denominator; this module adds the coercion and formatting conventions used
everywhere else. Inexact (floating) values are rejected here; the package
has no second, floating arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ASCII digits only: the grammar of document values, not of Fraction(),
# which also parses decimals, exponents and Unicode digits
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_scalar(value) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``"p/q"`` or ``"3"``.

    A string is an optional sign and decimal digits, optionally followed
    by ``/`` and a nonzero run of digits, with surrounding whitespace
    allowed. Anything else, such as a decimal point, an exponent, ``inf``,
    ``nan`` or a zero denominator, raises ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value.strip())
        if match is None:
            raise ValueError(f"not a rational string: {value!r}")
        numerator, denominator = match.groups()
        denominator = int(denominator or 1)
        if denominator == 0:
            raise ValueError(f"zero denominator in {value!r}")
        return Fraction(int(numerator), denominator)
    raise TypeError(f"not an exact scalar: {value!r}")


def format_scalar(value) -> str:
    """Render as ``"p/q"``, omitting the denominator when it is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
