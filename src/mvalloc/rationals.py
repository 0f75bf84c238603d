"""Exact rational numbers for resource arithmetic.

All quantities in the model (memory, CPU load, execution time, capacities)
are `fractions.Fraction` values.  JSON files carry them as strings so no
precision is lost on a round trip: either a plain decimal such as "12.5"
or, when the value has no terminating decimal form, "p/q".  JSON floats
are rejected because they are already approximations by the time the
parser sees them; JSON integers are accepted as-is.

One grammar, the one `format_number` writes in, defines a number string:
an optional "-" and ASCII digits, then "." or "/" and ASCII digits, or
nothing; a "/" takes a nonzero denominator.  Any other string, and one
past CPython's 4 300-digit limit for integers, is refused, so no string
costs more than its length to read.  `format_number` writes a decimal
by one integer product: each denominator's decimal form (its places and
10**places // den, or none) is worked out once and kept in a bounded
cache keyed by the int denominator, since a file holds many numbers
over a handful of denominators.  `exact_sum` adds integer numerators
over the lcm of the denominators, which equals adding the Fractions one
by one.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

__all__ = ["parse_number", "format_number", "exact_sum"]


def parse_number(raw: object) -> Fraction:
    """Turn a JSON scalar into an exact Fraction: an int, or a str of the
    module's grammar ("7", "0.25", "-3/8").  Rejects float and bool."""
    if isinstance(raw, str):
        whole, dot, frac = raw.partition(".")
        try:
            if raw.isascii() and whole.removeprefix("-").isdigit() and (frac.isdigit() or not dot):
                return Fraction(int(whole + frac), 10 ** len(frac))
            num, _, den = raw.partition("/")
            if raw.isascii() and num.removeprefix("-").isdigit() and den.isdigit():
                return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):  # a zero denominator, or past int's digit limit
            pass
        raise ValueError(f"not a valid number string: {raw!r}")
    if isinstance(raw, bool):
        raise ValueError("expected a number, got a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise ValueError(
            f"floats are not accepted (got {raw!r}); write the value as a string"
        )
    raise ValueError(f"expected a number, got {type(raw).__name__}")


@functools.lru_cache(maxsize=256)
def _decimal_form(den: int) -> tuple[int, int] | None:
    """(places, 10**places // den) when a value over `den` has a decimal
    form, else None.  It has one exactly when den = 2**a * 5**b, and
    then max(a, b) places, the last of them not 0."""
    a = (den & -den).bit_length() - 1
    b = round(math.log(den >> a, 5))
    if den >> a != 5**b:
        return None
    shift = max(a, b)
    return shift, 10**shift // den


def format_number(value: Fraction) -> str:
    """Exact string form: terminating decimal when one exists, else "p/q"."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    form = _decimal_form(den)
    if form is None:
        return f"{num}/{den}"
    shift, factor = form
    scaled = num * factor
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def exact_sum(values: Sequence[Fraction]) -> Fraction:
    """The exact sum of `values`: integer numerators over their common
    denominator, one Fraction built at the end."""
    den = math.lcm(*{v.denominator for v in values})
    return Fraction(sum([v.numerator * (den // v.denominator) for v in values]), den)
