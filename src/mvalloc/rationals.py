"""Exact rational numbers for resource arithmetic.

All quantities in the model (memory, CPU load, execution time, capacities)
are `fractions.Fraction` values.  JSON files carry them as strings so no
precision is lost on a round trip: either a plain decimal such as "12.5"
or, when the value has no terminating decimal form, "p/q".  JSON floats
are rejected because they are already approximations by the time the
parser sees them; JSON integers are accepted as-is.

Two fast paths give the same Fractions with less work.  A string of
ASCII digits with at most one interior dot ("d+" or "d+.d+") is the
integer of its digits over 10 ** (digits after the dot), which is what the
decimal means; any other string goes to `Fraction(str)`, with its forms
and errors.  `exact_sum` adds integer numerators over the lcm of the
denominators, which equals adding the Fractions one by one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = ["parse_number", "format_number", "parse_count", "exact_sum"]


def parse_number(raw: object) -> Fraction:
    """Turn a JSON scalar into an exact Fraction.

    Accepts int, or str in any form Fraction understands ("7", "0.25",
    "-3/8", "2e3").  Rejects float and bool.
    """
    if isinstance(raw, str):
        whole, dot, frac = raw.partition(".")
        try:
            if raw.isascii() and whole.isdigit() and (frac.isdigit() or not dot):
                return Fraction(int(whole + frac), 10 ** len(frac))
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a valid number string: {raw!r}") from exc
    if isinstance(raw, bool):
        raise ValueError("expected a number, got a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise ValueError(
            f"floats are not accepted (got {raw!r}); write the value as a string"
        )
    raise ValueError(f"expected a number, got {type(raw).__name__}")


def parse_count(raw: object) -> int:
    """Parse an integer field (thread counts and the like).  The sign is
    not checked here: a negative count is returned as it is; the model
    validators report it and the solver's scaling refuses it."""
    if type(raw) is int:
        return raw
    value = parse_number(raw)
    if value.denominator != 1:
        raise ValueError(f"expected an integer, got {raw!r}")
    return value.numerator


def format_number(value: Fraction) -> str:
    """Exact string form: terminating decimal when one exists, else "p/q"."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    # den is 2**a * 5**b with a, b < den.bit_length() exactly when it
    # divides 10**den.bit_length(); the extra places are trailing zeros
    shift = den.bit_length()
    scaled, rest = divmod(num * 10**shift, den)
    if rest:
        return f"{num}/{den}"
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    whole, frac = digits[:-shift], digits[-shift:]
    return f"{sign}{whole}.{frac.rstrip('0')}"


def exact_sum(values: Sequence[Fraction]) -> Fraction:
    """The exact sum of `values`: integer numerators over their common
    denominator, one Fraction built at the end."""
    den = math.lcm(*{v.denominator for v in values})
    return Fraction(sum([v.numerator * (den // v.denominator) for v in values]), den)
