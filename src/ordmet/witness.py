"""The configuration showing that the half-radius ball cover of the
rational-distance atom space admits no point-finite refinement over a
finite support.

Around a nonempty support B we plant a chain a_0 .. a_{3k} (k = n*m) of
equally spaced points, each at the same large distance from every support
point and above it in the order.  A candidate refinement member containing
the chain end is represented only by its trace on the chain window; the
admissibility constraints are exactly what openness, refinement and the
support force.  Shifting the trace along the chain then yields n pairwise
distinct members all containing the chain end, which is the finite content
of the non-metacompactness argument.

The checks read k, n and a trace as a Python int bitmask, bit i for chain
index i: shifting is a left shift, and every other test is a bit test.  A
trace is any iterable of chain indices.  Only ``WitnessConfig.space`` builds
the distance table, a metric by construction, and only readers of ``chain``
build the chain.  ``exhaust_all_traces`` decides each admissible trace by its
minimal-index class and refuses, before any check, when one check per trace
would top ``EXHAUST_BUDGET_CHECKS`` shift checks and pair tests; ``verify_injection``
refuses, before building a mask, when its masks would need more than
``STORE_BUDGET_BYTES``.  A chain end 3k past 4,300 decimal digits is
refused, and any other number that long is stated by its bit length.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Optional

from .spaces import STORE_BUDGET_BYTES, FinSpace, PartialIso, PointId, SpaceError, diameter, scaled, store_bytes, validate


class InadmissibleTraceError(ValueError):
    """The trace breaks one of the admissibility constraints."""


# The chain point names a0, a1, ...: "a" and a decimal numeral in ASCII
# digits without a leading zero.
_CHAIN_NAME = re.compile(r"a(0|[1-9][0-9]*)")

# CPython converts ints of at most 4,300 decimal digits to str by default.
_DECIMAL_LIMIT = 10**4300


def _decimal(value: int) -> str:
    """value in decimal, or its bit length where the decimal form would
    pass CPython's 4,300-digit int-to-str limit."""
    return str(value) if value < _DECIMAL_LIMIT else f"(a {value.bit_length()}-bit number)"


@dataclass(frozen=True, eq=False)
class WitnessConfig:
    """Support plus chain.  ``far`` = support diameter + 4 is the common
    distance from every chain point to every support point; consecutive
    chain points are 1/k apart."""

    support: FinSpace
    n: int
    m: int
    k: int
    far: Fraction

    @functools.cached_property
    def chain(self) -> tuple[PointId, ...]:
        """a_0 .. a_{3k} in structural order, above every support point;
        built on first read."""
        start = max(self.support.points) + 1
        return tuple(range(start, start + 3 * self.k + 1))

    @functools.cached_property
    def space(self) -> FinSpace:
        """Support and chain as one space, built on first read; refused
        before allocating when its rows top the store budget.

        The table is a metric by construction, so it is not validated.
        With diam the support's diameter and far = diam + 4:

        * triangles inside the support hold, as ``build_witness``
          validated it;
        * the chain points are |i - j| / k apart, a line metric of
          diameter 3;
        * support points s, s' and a chain point a have sides d(s, s'),
          far, far: d(s, s') <= diam < 2 far, and far <= far + d(s, s');
        * a support point s and chain points a, a' have sides d(a, a'),
          far, far: d(a, a') <= 3 < 2 far, and far <= far + d(a, a');
        * the rows are symmetric, positive off the diagonal and zero on it.
        """
        points = len(self.support) + 3 * self.k + 1
        estimate = store_bytes(points)
        if estimate > STORE_BUDGET_BYTES:
            raise SpaceError(
                f"configuration of {_decimal(points)} points needs about {_decimal(estimate)}"
                f" bytes of distance rows, over the {STORE_BUDGET_BYTES}-byte budget"
            )
        support, k, chain, far = self.support, self.k, self.chain, self.far
        names = support.names | {p: f"a{i}" for i, p in enumerate(chain)}
        # Int rows over one scale: the support's own rows, the chain points
        # |i - j| / k apart, and far between every support and chain point.
        scale = lcm(support._scale, k, far.denominator)
        step, gap = scale // k, scaled(far, scale)
        rows = [row + [gap] * len(chain) for row in support._rows_over(scale)]
        rows += [
            [gap] * len(support) + [abs(i - j) * step for j in range(len(chain))]
            for i in range(len(chain))
        ]
        return FinSpace._of_rows(tuple(support.points) + chain, rows, scale, names)

    @property
    def top(self) -> PointId:
        """The distinguished chain end a_{3k}."""
        return self.chain[-1]

    @property
    def window(self) -> range:
        """Chain indices a diameter-1 member containing the end can meet."""
        return range(2 * self.k, 3 * self.k + 1)

    @property
    def tail(self) -> range:
        """Chain indices inside the open 1/m-ball around the end."""
        return range(3 * self.k - self.n + 1, 3 * self.k + 1)


def build_witness(support: FinSpace, n: int, m: int) -> WitnessConfig:
    """The configuration for the given parameters, its table not yet built.

    The support must be valid and nonempty; callers wanting an empty
    support add a dummy point.  Chain names are a0, a1, ...; a support
    using one of those names is rejected.
    """
    if n < 1 or m < 1:
        raise SpaceError("n and m must be at least 1")
    report = validate(support)
    if not report.is_valid:
        raise SpaceError(
            "support is invalid: " + report.violations[0].describe(support)
        )
    if len(support) == 0:
        raise SpaceError("support must be nonempty")

    k = n * m
    if 3 * k >= _DECIMAL_LIMIT:
        raise SpaceError(
            f"chain end index 3k has {(3 * k).bit_length()} bits;"
            " its name would pass 4,300 decimal digits"
        )
    # Numerals without leading zeros compare like their values by (length,
    # text), so no name is converted: int() refuses over 4,300 digits.
    top = str(3 * k)
    reserved = []
    for name in support.names.values():
        match = _CHAIN_NAME.fullmatch(name)
        if match and (len(match[1]), match[1]) <= (len(top), top):
            reserved.append((len(match[1]), match[1]))
    if reserved:
        raise SpaceError(f"support uses reserved chain point name {'a' + min(reserved)[1]!r}")
    return WitnessConfig(support, n, m, k, diameter(support) + 4)


def shift_iso(config: WitnessConfig) -> PartialIso:
    """The partial isomorphism fixing the support pointwise and moving every
    chain point one step up (a_i to a_{i+1}, the end excluded)."""
    dom = tuple(config.support.points) + config.chain[:-1]
    cod = tuple(config.support.points) + config.chain[1:]
    return PartialIso(dom, cod)


def _mask(config: WitnessConfig, trace: Iterable[int]) -> int:
    """The trace as a bitmask, bit i for chain index i, built from bytes in
    time linear in its length."""
    members = frozenset(trace)
    for i in members:
        if not 0 <= i <= 3 * config.k:
            raise SpaceError(f"trace index {i} outside 0..{3 * config.k}")
    data = bytearray(max(members, default=-1) // 8 + 1)
    for i in members:
        data[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(data, "little")


def _is_admissible(config: WitnessConfig, mask: int) -> bool:
    top = 3 * config.k
    tail = (2 << top) - (1 << top - config.n + 1)  # bits 3k - n + 1 .. 3k
    return mask & tail == tail and not mask & ((1 << 2 * config.k) - 1)


def admissible(config: WitnessConfig, trace: Iterable[int]) -> bool:
    """The three constraints every refinement member containing the chain
    end must satisfy on the chain: it contains the end, it contains the
    whole 1/m-tail, and it stays inside the diameter-1 window."""
    return _is_admissible(config, _mask(config, trace))


def _min_member(config: WitnessConfig, mask: int) -> int:
    if not _is_admissible(config, mask):
        raise InadmissibleTraceError(f"trace {list(_indices(mask))} is not admissible")
    return (mask & -mask).bit_length() - 1


def min_index(config: WitnessConfig, trace: Iterable[int]) -> int:
    """Smallest chain index L of an admissible trace.  L lies in
    [2k, 3k - n + 1]: an admissible mask has no bit below 2k and has the
    tail bit 3k - n + 1 set."""
    return _min_member(config, _mask(config, trace))


@dataclass(frozen=True)
class ShiftCheck:
    shift: int
    top_in: bool  # the chain end lies in the shifted member
    determinable: bool  # no UNKNOWN index inside the checked window
    pattern: tuple[int, ...]  # indices of {k..L+j} lying in the shifted member
    pattern_ok: bool  # pattern is exactly {L+j}

    @property
    def ok(self) -> bool:
        return self.top_in and self.determinable and self.pattern_ok


@dataclass(frozen=True)
class InjectionReport:
    min_member: int  # L
    checks: tuple[ShiftCheck, ...]
    distinct: bool
    injective: bool

    def lines(self) -> list[str]:
        out = [f"min-index {self.min_member}"]
        for check in self.checks:
            pattern = ",".join(str(i) for i in check.pattern)
            out.append(
                f"shift {check.shift}: end {'in' if check.top_in else 'MISSING'}"
                f" pattern {{{pattern}}} {'ok' if check.ok else 'FAIL'}"
            )
        out.append(f"distinct {'true' if self.distinct else 'false'}")
        out.append(f"injective {'true' if self.injective else 'false'}")
        return out


def _indices(mask: int) -> tuple[int, ...]:
    """Chain indices whose bits are set, ascending; one scan of the binary
    digits from the right, linear in the bit length."""
    digits = bin(mask)
    last = len(digits) - 1  # bit i at position last - i, after the "0b"
    out = []
    at = digits.rfind("1", 2)
    while at >= 2:
        out.append(last - at)
        at = digits.rfind("1", 2, at)
    return tuple(out)


def _verify_bytes(k: int, n: int) -> int:
    """Estimated peak bytes of ``verify_injection``: 2n + 4 bitmasks of
    3k + 1 bits (the trace, the chain, the tail, the bits below k, and one
    image and one pattern per shift) and the binary string of one such mask
    in ``_indices``, a byte per bit."""
    return (2 * n + 4) * (3 * k // 8 + 1) + 3 * k + 3


def _shift_core(
    k: int, n: int, mask: int
) -> tuple[list[tuple[int, bool, bool, int, bool]], bool, bool]:
    """Shift checks of the trace whose bit i is chain index i.

    Returns one (image, top_in, determinable, pattern, pattern_ok) per
    shift j < n, then distinct and injective.  The image is mask << j cut
    to the chain 0..3k; its indices below j are UNKNOWN, so no bit is set
    there.  With L the lowest set bit, the window is {k, .., L+j}: it is
    determinable when none of its indices lies below j, and its pattern
    (the image bits inside it) is ok when it is exactly {L+j}.  Shifts j1 <
    j2 are told apart when L+j1 lies in image j1 and is OUT of image j2,
    which needs L+j1 >= j2: below j2 the index is UNKNOWN.
    """
    top = 3 * k
    chain = (2 << top) - 1
    below_k = (1 << k) - 1
    low = (mask & -mask).bit_length() - 1
    shifts = []
    for j in range(n):
        image = (mask << j) & chain
        end = low + j
        pattern = image & ((2 << end) - 1) & ~below_k
        shifts.append(
            (image, image >> top & 1 == 1, end < k or j <= k, pattern, pattern == 1 << end)
        )
    distinct = True
    for j1, j2 in combinations(range(n), 2):
        # the smaller shift owns index L+j1; the larger must hold it OUT
        i = low + j1
        if not (shifts[j1][0] >> i & 1 and i >= j2 and not shifts[j2][0] >> i & 1):
            distinct = False
            break
    injective = distinct and all(top_in and det and ok for _, top_in, det, _, ok in shifts)
    return shifts, distinct, injective


def verify_injection(config: WitnessConfig, trace: Iterable[int]) -> InjectionReport:
    """Check that the n shifts of an admissible trace are pairwise distinct
    members all containing the chain end.

    For each shift j: the end index 3k must lie in the image, and the
    window {k, .., L+j} must meet the image exactly in {L+j}.  The patterns
    then separate any two shifts (the smaller one's pattern point is
    excluded from the larger one's window scan), which forces injectivity.

    Refuses with SpaceError, before building a mask, when the masks need
    more than STORE_BUDGET_BYTES.
    """
    estimate = _verify_bytes(config.k, config.n)
    if estimate > STORE_BUDGET_BYTES:
        raise SpaceError(
            f"verify needs about {_decimal(estimate)} bytes of {_decimal(3 * config.k + 1)}-bit"
            f" masks at n = {config.n}, over the {STORE_BUDGET_BYTES}-byte budget"
        )
    mask = _mask(config, trace)
    low = _min_member(config, mask)
    shifts, distinct, injective = _shift_core(config.k, config.n, mask)
    checks = tuple(
        ShiftCheck(j, top_in, determinable, _indices(pattern), ok)
        for j, (_, top_in, determinable, pattern, ok) in enumerate(shifts)
    )
    return InjectionReport(low, checks, distinct, injective)


@dataclass(frozen=True)
class ExhaustReport:
    checked: int
    passed: int
    first_failure: Optional[tuple[int, ...]]

    @property
    def all_passed(self) -> bool:
        return self.checked == self.passed

    def lines(self) -> list[str]:
        out = [f"checked {self.checked}", f"passed {self.passed}"]
        if self.first_failure is not None:
            out.append("first-failure " + ",".join(map(str, self.first_failure)))
        out.append(f"verdict {'pass' if self.all_passed else 'fail'}")
        return out


# Most shift checks plus pair tests exhaust_all_traces may count: n shift
# checks and n(n-1)/2 pair tests per trace, so 2^20 traces at n = 1.  Traces
# are decided per class, so it bounds the traces, not the k + 2 - n checks.
EXHAUST_BUDGET_CHECKS = 2**20


def _exhaust_checks(traces: int, n: int) -> int:
    """Shift checks plus pair tests over ``traces`` traces of n shifts."""
    return traces * (n + n * (n - 1) // 2)


def _count(factor: int, exponent: int) -> str:
    """factor * 2^exponent in decimal, or as a power of two where the decimal
    would pass CPython's 4,300-digit int-to-str limit (with the factor's bit
    length where the factor alone would); no larger count is ever formed."""
    if exponent <= 4 * 4300:  # else the count tops 16^4300 > 10^4300
        count = factor << exponent
        if count < _DECIMAL_LIMIT:
            return str(count)
    return f"2^{exponent}" if factor == 1 else f"{_decimal(factor)} * 2^{exponent}"


def exhaust_all_traces(config: WitnessConfig) -> ExhaustReport:
    """Check the injection on every admissible trace: every superset of the
    tail inside the window, 2^(k+1-n) of them.  The verdict reads only bits
    0..L (L the minimal index) and the end indices 3k - j, j < n, so one
    check of tail | {L} decides class L's 2^(3k-n-L) traces (the tail alone
    for L = 3k-n+1).  ``checked`` counts every trace decided; the first
    failure by size, then lexicographically, is the tail alone, else tail |
    {smallest failing L}.  Refuses with SpaceError, before any check, when
    one check per trace would top EXHAUST_BUDGET_CHECKS.
    """
    # 2^size traces, one per subset of the free indices 2k .. 3k - n; from
    # the budget's bit length on, 2^size alone tops it and is not formed
    size, per_trace = config.k + 1 - config.n, _exhaust_checks(1, config.n)
    if size >= EXHAUST_BUDGET_CHECKS.bit_length() or per_trace << size > EXHAUST_BUDGET_CHECKS:
        raise SpaceError(
            f"exhaust would check {_count(1, size)} traces (2^{size}) at n = {config.n},"
            f" {_count(per_trace, size)} shift checks and pair tests,"
            f" over the budget of {EXHAUST_BUDGET_CHECKS}"
        )
    start = config.tail.start
    tail = (2 << 3 * config.k) - (1 << start)
    checked = passed = 0
    first_failure = None
    for low in (start, *range(2 * config.k, start)):  # the tail alone first
        mask = tail | 1 << low
        count = 1 << start - 1 - low if low < start else 1
        checked += count
        if _shift_core(config.k, config.n, mask)[2]:
            passed += count
        elif first_failure is None:
            first_failure = _indices(mask)
    return ExhaustReport(checked, passed, first_failure)
