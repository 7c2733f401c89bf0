"""Exact rational helpers: parsing, canonical formatting, and a duplicate-free
enumeration of the positive rationals (Calkin-Wilf order)."""

from __future__ import annotations

import re
import sys
from fractions import Fraction

# ASCII digits only: ``int`` also reads other scripts' digits, "_" and "+".
_INTEGER = "-?[0-9]+"
_RATIONAL_RE = re.compile(rf"({_INTEGER})(?:/([0-9]+))?")


def shown(text: str) -> str:
    """``text`` as a refusal shows it: its repr, or, past 40 characters,
    the repr of its first 40 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _check_digits(kind: str, text: str, digits: str) -> None:
    """Refuse a run of more digits than ``int`` converts
    (``sys.get_int_max_str_digits()``, 0 for no limit), naming ``text``."""
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise ValueError(f"{kind} {shown(text)} has {len(digits)} digits, over the {limit}-digit limit")


def parse_integer(text: str) -> int:
    """Parse a decimal integer, ``-?[0-9]+`` after ``strip()``, the
    numerator rule of :func:`parse_rational`.  Raises ValueError for
    anything else, and for more digits than ``int`` converts."""
    match = re.fullmatch(_INTEGER, text.strip())
    if match is None:
        raise ValueError(f"malformed integer {shown(text)}")
    _check_digits("integer", text, match[0].lstrip("-"))
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse ``num/den`` (or a bare integer) of ASCII digits into a
    canonical Fraction.

    Raises ValueError for anything else, including a zero denominator,
    digits of other scripts and a run of more digits than ``int`` converts.
    """
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"malformed rational {shown(text)}")
    for digits in match.groups(""):
        _check_digits("rational", text, digits.lstrip("-"))
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"malformed rational {shown(text)}: zero denominator")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Canonical ``num/den`` in lowest terms; integers keep an explicit /1."""
    return f"{q.numerator}/{q.denominator}"


def stern_diatomic(n: int) -> int:
    """Stern's diatomic sequence: s(0)=0, s(1)=1, s(2n)=s(n), s(2n+1)=s(n)+s(n+1)."""
    if n < 0:
        raise ValueError("negative index")
    a, b = 1, 0  # walk the bits of n from most significant; result is b
    for bit in bin(n)[2:] if n else "0":
        if bit == "1":
            b = a + b
        else:
            a = a + b
    return b


def calkin_wilf(index: int) -> Fraction:
    """The positive rational at position ``index`` (0-based) of the Calkin-Wilf
    enumeration 1, 1/2, 2, 1/3, 3/2, 2/3, 3, ...

    Every positive rational appears exactly once, so the sequence is a fair
    schedule of candidate distances.
    """
    if index < 0:
        raise ValueError("negative index")
    return Fraction(stern_diatomic(index + 1), stern_diatomic(index + 2))
