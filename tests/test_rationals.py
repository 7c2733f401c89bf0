import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordmet.rationals import (
    calkin_wilf,
    format_rational,
    parse_integer,
    parse_rational,
    stern_diatomic,
)


def calkin_wilf_stream():
    """Infinite stream q_0, q_1, ... with q_{n+1} = 1/(2*floor(q_n) - q_n + 1)."""
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


def test_parse_canonicalizes():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "1.5", "1/-2", "1/2/3", "/3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["\u0661/\u0662", "\u0663", "1/\u0662", "\uff11/2", "\u00b2"])
def test_parse_accepts_ascii_digits_only(bad):
    """Digits of other scripts (Arabic-Indic, fullwidth, superscript) are
    malformed, though ``int`` reads some of them."""
    with pytest.raises(ValueError, match="^malformed rational"):
        parse_rational(bad)


def test_parse_integer_takes_the_numerator_rule():
    assert [parse_integer(text) for text in ["0", "-12", " 7 ", "007"]] == [0, -12, 7, 7]
    for bad in ["", "+3", "1_0", "\u0663", "1.0", "1/1", "- 1"]:
        with pytest.raises(ValueError, match="^malformed integer"):
            parse_integer(bad)


@pytest.mark.parametrize("sign", ["", "-"])
def test_parse_refuses_more_digits_than_int_converts(sign):
    """4,300 digits parse; 4,301 are refused in our own words, the token
    shown by its first 40 characters and its length, the run by its digit
    count, where ``int`` would point at ``sys.set_int_max_str_digits``."""
    most = sign + "9" * 4300
    assert parse_integer(most) == int(most)
    assert parse_rational(f"{most}/7") == Fraction(int(most), 7)
    assert parse_rational(f"1/{'0' * 4299}1") == 1
    over = sign + "1" + "0" * 4300
    shown = f"{over[:40]!r}... ({len(over)} characters)"
    with pytest.raises(ValueError, match=rf"^integer {re.escape(shown)} has 4301 digits, over the 4300-digit limit$"):
        parse_integer(over)
    for text in [over, f"{over}/3", f"3/{'0' * 4300}1"]:
        shown = f"{text[:40]!r}... ({len(text)} characters)"
        with pytest.raises(ValueError, match=rf"^rational {re.escape(shown)} has 4301 digits, over the 4300-digit limit$"):
            parse_rational(text)


def test_format_always_carries_denominator():
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-3, 2)) == "-3/2"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_parse_format_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(format_rational(q)) == q


def test_stern_diatomic_prefix():
    # 0, 1, 1, 2, 1, 3, 2, 3, 1, 4, ...
    assert [stern_diatomic(i) for i in range(10)] == [0, 1, 1, 2, 1, 3, 2, 3, 1, 4]


def test_calkin_wilf_prefix():
    expected = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2),
        Fraction(1, 3),
        Fraction(3, 2),
        Fraction(2, 3),
        Fraction(3),
    ]
    assert [calkin_wilf(i) for i in range(7)] == expected


def test_calkin_wilf_matches_stream_recurrence():
    # independent oracle: the next-value recurrence
    from_stream = list(islice(calkin_wilf_stream(), 512))
    by_index = [calkin_wilf(i) for i in range(512)]
    assert from_stream == by_index


def test_calkin_wilf_no_duplicates_and_positive():
    seen = [calkin_wilf(i) for i in range(2000)]
    assert len(set(seen)) == 2000
    assert all(q > 0 for q in seen)


def test_calkin_wilf_hits_small_rationals():
    prefix = {calkin_wilf(i) for i in range(256)}
    for num in range(1, 6):
        for den in range(1, 6):
            assert Fraction(num, den) in prefix


@pytest.mark.parametrize("index", [-1, -2, -7])
@pytest.mark.parametrize("sequence", [stern_diatomic, calkin_wilf])
def test_negative_indices_refused(sequence, index):
    with pytest.raises(ValueError, match="negative index"):
        sequence(index)
