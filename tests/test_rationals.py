import re
from fractions import Fraction

import pytest

from mvalloc.bench import SplitMix64
from mvalloc.rationals import exact_sum, format_number, parse_number


def test_parse_number_accepts_int():
    assert parse_number(7) == Fraction(7)
    assert parse_number(0) == Fraction(0)
    assert parse_number(-3) == Fraction(-3)


def test_parse_number_accepts_strings():
    assert parse_number("7") == Fraction(7)
    assert parse_number("0.25") == Fraction(1, 4)
    assert parse_number("-3/8") == Fraction(-3, 8)


def test_parse_number_rejects_float():
    with pytest.raises(ValueError, match="float"):
        parse_number(1.5)


def test_parse_number_rejects_bool():
    with pytest.raises(ValueError, match="boolean"):
        parse_number(True)


@pytest.mark.parametrize("raw", ["", "abc", "1/0", "1.2.3", None, [], {}])
def test_parse_number_rejects_garbage(raw):
    with pytest.raises(ValueError):
        parse_number(raw)


# the grammar of README "File formats", written out as a regular expression
GRAMMAR = re.compile(r"-?[0-9]+(\.[0-9]+|/[0-9]*[1-9][0-9]*)?")


def test_parse_number_reads_exactly_the_grammar_on_random_strings():
    """Strings over the grammar's characters and a few it refuses: a
    string the grammar matches reads as the value it means, any other
    is refused."""
    rng = SplitMix64(5)
    alphabet = "0123456789../--e+_ "
    for _ in range(5000):
        text = "".join(alphabet[rng.draw(0, len(alphabet) - 1)] for _ in range(rng.draw(0, 9)))
        if GRAMMAR.fullmatch(text):
            value = parse_number(text)
            assert type(value) is Fraction
            assert value == Fraction(text), text
        else:
            with pytest.raises(ValueError, match="not a valid number string"):
                parse_number(text)


def test_parse_number_refuses_digits_past_the_int_limit():
    assert parse_number("1" + "0" * 4000) == 10**4000
    for text in ("1" + "0" * 5000, "0." + "0" * 5000 + "1", "1/1" + "0" * 5000):
        with pytest.raises(ValueError, match="not a valid number string"):
            parse_number(text)


def test_exact_sum_equals_the_fraction_sum():
    rng = SplitMix64(9)
    for _ in range(500):
        values = [
            Fraction(rng.draw(-10_000, 10_000), rng.draw(1, 400)) for _ in range(rng.draw(0, 12))
        ]
        total = exact_sum(values)
        assert type(total) is Fraction
        assert total == sum(values, Fraction(0))


def test_format_number_integers():
    assert format_number(Fraction(45)) == "45"
    assert format_number(Fraction(0)) == "0"
    assert format_number(Fraction(-12)) == "-12"


def test_format_number_terminating_decimals():
    assert format_number(Fraction(3, 2)) == "1.5"
    assert format_number(Fraction(1, 8)) == "0.125"
    assert format_number(Fraction(1, 10)) == "0.1"
    assert format_number(Fraction(-7, 4)) == "-1.75"
    assert format_number(Fraction(1, 2**10)) == "0.0009765625"
    assert format_number(Fraction(123, 500)) == "0.246"


def test_format_number_nonterminating_uses_ratio():
    assert format_number(Fraction(1, 3)) == "1/3"
    assert format_number(Fraction(-5, 7)) == "-5/7"
    assert format_number(Fraction(22, 6)) == "11/3"


def test_format_parse_round_trip_random():
    rng = SplitMix64(11)
    for _ in range(10_000):
        # denominators of powers of 2 and 5 (decimals), sometimes times a
        # factor that leaves "p/q"; numerators of either sign up to 10**40
        den = 2 ** rng.draw(0, 40) * 5 ** rng.draw(0, 40)
        den *= (1, 1, 3, 7, 999_983, rng.draw(1, 10**9))[rng.draw(0, 5)]
        num = rng.draw(-(10**12), 10**12) * 10 ** rng.draw(0, 28)
        value = Fraction(num, den)
        assert parse_number(format_number(value)) == value, value


def _format_by_trial_division(value: Fraction) -> str:
    """`format_number` as first written: find the powers of 2 and 5 of the
    denominator by trial division, and shift by the larger of the two."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    twos = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    shift = max(twos, fives)
    scaled = num * 10**shift // den
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    whole, frac = digits[:-shift], digits[-shift:]
    return f"{sign}{whole}.{frac.rstrip('0')}"


def test_format_number_agrees_with_trial_division():
    rng = SplitMix64(23)
    values = [Fraction(n, d) for n in (-1, 0, 1, 7, 10**30) for d in (1, 2, 3, 5, 2**70, 5**70)]
    for _ in range(10_000):
        # powers of 2 and 5 up to 2**70 and 5**70, sometimes times a
        # factor that leaves no terminating decimal
        den = 2 ** rng.draw(0, 70) * 5 ** rng.draw(0, 70)
        den *= (1, 1, 3, 7, 9, 11, 21, 999_983)[rng.draw(0, 7)]
        num = rng.draw(-(10**12), 10**12) * 10 ** rng.draw(0, 3)
        values.append(Fraction(num, den))
    for value in values:
        assert format_number(value) == _format_by_trial_division(value), value
