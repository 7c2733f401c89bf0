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
index i: shifting is a left shift, and every other test is a bit test.  Only
``WitnessConfig.space`` builds (and validates) the distance table.
``exhaust_all_traces`` builds every admissible mask directly and refuses,
before enumerating, when they would need more than ``EXHAUST_BUDGET_CHECKS``
shift checks and pair tests.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Optional, Union

from .limit import STORE_BUDGET_BYTES, PartialIso, store_bytes
from .spaces import FinSpace, PointId, SpaceError, diameter, validate


class InadmissibleTraceError(ValueError):
    """The trace breaks one of the admissibility constraints."""


class WitnessError(RuntimeError):
    """Internal construction check failed (should never happen)."""


@dataclass(frozen=True, eq=False)
class WitnessConfig:
    """Support plus chain.  ``far`` = support diameter + 4 is the common
    distance from every chain point to every support point; consecutive
    chain points are 1/k apart."""

    support: FinSpace
    n: int
    m: int
    k: int
    chain: tuple[PointId, ...]  # a_0 .. a_{3k} in structural order
    far: Fraction

    @functools.cached_property
    def space(self) -> FinSpace:
        """Support and chain as one validated space, built on first read;
        refused before allocating when its rows top the store budget."""
        points = len(self.support) + len(self.chain)
        estimate = store_bytes(points)
        if estimate > STORE_BUDGET_BYTES:
            raise SpaceError(
                f"configuration of {points} points needs about {estimate} bytes"
                f" of distance rows, over the {STORE_BUDGET_BYTES}-byte budget"
            )
        support, k, chain, far = self.support, self.k, self.chain, self.far
        names = support.names | {p: f"a{i}" for i, p in enumerate(chain)}
        # Int rows over one scale: the support's own rows, the chain points
        # |i - j| / k apart, and far between every support and chain point.
        scale = lcm(support._scale, k, far.denominator)
        step, gap = scale // k, far.numerator * (scale // far.denominator)
        factor = scale // support._scale
        rows = [[v * factor for v in row] + [gap] * len(chain) for row in support._rows]
        rows += [
            [gap] * len(support) + [abs(i - j) * step for j in range(len(chain))]
            for i in range(len(chain))
        ]
        space = FinSpace._of_rows(tuple(support.points) + chain, rows, scale, names)
        check = validate(space)
        if not check.is_valid:
            raise WitnessError(
                "configuration failed validation: " + check.violations[0].describe(space)
            )
        return space

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
    far = diameter(support) + 4
    start = max(support.points) + 1
    chain = tuple(range(start, start + 3 * k + 1))

    taken = set(support.names.values())
    for name in map("a{}".format, range(len(chain))):
        if name in taken:
            raise SpaceError(f"support uses reserved chain point name {name!r}")
    return WitnessConfig(support, n, m, k, chain, far)


def shift_iso(config: WitnessConfig) -> PartialIso:
    """The partial isomorphism fixing the support pointwise and moving every
    chain point one step up (a_i to a_{i+1}, the end excluded)."""
    dom = tuple(config.support.points) + config.chain[:-1]
    cod = tuple(config.support.points) + config.chain[1:]
    return PartialIso(dom, cod)


@dataclass(frozen=True)
class RefinementTrace:
    """Trace of a candidate refinement member on the chain: the set of
    chain indices it contains."""

    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))


TraceLike = Union[RefinementTrace, Iterable[int]]


def _mask(config: WitnessConfig, trace: TraceLike) -> int:
    members = trace.members if isinstance(trace, RefinementTrace) else frozenset(trace)
    for i in members:
        if not 0 <= i <= 3 * config.k:
            raise SpaceError(f"trace index {i} outside 0..{3 * config.k}")
    return sum(1 << i for i in members)


def _is_admissible(config: WitnessConfig, mask: int) -> bool:
    top = 3 * config.k
    tail = (2 << top) - (1 << top - config.n + 1)  # bits 3k - n + 1 .. 3k
    return mask & tail == tail and not mask & ((1 << 2 * config.k) - 1)


def admissible(config: WitnessConfig, trace: TraceLike) -> bool:
    """The three constraints every refinement member containing the chain
    end must satisfy on the chain: it contains the end, it contains the
    whole 1/m-tail, and it stays inside the diameter-1 window."""
    return _is_admissible(config, _mask(config, trace))


def _min_member(config: WitnessConfig, mask: int) -> int:
    if not _is_admissible(config, mask):
        raise InadmissibleTraceError(f"trace {list(_indices(mask))} is not admissible")
    low = (mask & -mask).bit_length() - 1
    if not 2 * config.k <= low <= 3 * config.k - config.n + 1:
        raise WitnessError(f"minimal index {low} escaped its window")
    return low


def min_index(config: WitnessConfig, trace: TraceLike) -> int:
    """Smallest chain index in the trace; always lands in
    [2k, 3k - n + 1]."""
    return _min_member(config, _mask(config, trace))


class Membership(enum.Enum):
    IN = "in"
    OUT = "out"
    UNKNOWN = "unknown"


def shifted_trace(
    config: WitnessConfig, trace: TraceLike, shift: int
) -> dict[int, Membership]:
    """Membership of each chain index in the shift-by-j image of the member.

    Index i lies in the image iff i - j lies in the trace; indices below j
    pull back past the chain start, so their membership is not finitely
    determined and stays UNKNOWN.
    """
    if not 0 <= shift < config.n:
        raise SpaceError(f"shift {shift} outside 0..{config.n - 1}")
    image = _mask(config, trace) << shift
    out: dict[int, Membership] = {}
    for i in range(3 * config.k + 1):
        if i < shift:
            out[i] = Membership.UNKNOWN
        elif image >> i & 1:
            out[i] = Membership.IN
        else:
            out[i] = Membership.OUT
    return out


@dataclass(frozen=True)
class ShiftCheck:
    shift: int
    top_in: bool  # the chain end lies in the shifted member
    determinable: bool  # no UNKNOWN index inside the checked window
    trace_in: tuple[int, ...]  # all determinable indices lying in the member
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
    """Chain indices whose bits are set, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


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


def verify_injection(config: WitnessConfig, trace: TraceLike) -> InjectionReport:
    """Check that the n shifts of an admissible trace are pairwise distinct
    members all containing the chain end.

    For each shift j: the end index 3k must lie in the image, and the
    window {k, .., L+j} must meet the image exactly in {L+j}.  The patterns
    then separate any two shifts (the smaller one's pattern point is
    excluded from the larger one's window scan), which forces injectivity.
    """
    mask = _mask(config, trace)
    low = _min_member(config, mask)
    shifts, distinct, injective = _shift_core(config.k, config.n, mask)
    checks = tuple(
        ShiftCheck(j, top_in, determinable, _indices(image), _indices(pattern), ok)
        for j, (image, top_in, determinable, pattern, ok) in enumerate(shifts)
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


# Most shift checks plus pair tests exhaust_all_traces may make.  A trace
# costs n shift checks and up to n(n-1)/2 pair tests, so the budget admits
# 2^20 traces at n = 1; on a 2-vCPU x86 host under CPython 3.11 those take
# about 4 s, and 2^20 traces at n = 19 took 67 s.
EXHAUST_BUDGET_CHECKS = 2**20


def _exhaust_checks(traces: int, n: int) -> int:
    """Shift checks plus pair tests over ``traces`` traces of n shifts."""
    return traces * (n + n * (n - 1) // 2)


def exhaust_all_traces(config: WitnessConfig) -> ExhaustReport:
    """Check the injection on every admissible trace: every superset of the
    tail inside the window, 2^(k+1-n) of them, by subset size and then
    lexicographically.  Each trace is a bitmask over the chain indices.

    Refuses with SpaceError, before enumerating, when those traces need
    more than EXHAUST_BUDGET_CHECKS shift checks and pair tests.
    """
    free = range(2 * config.k, config.tail.start)
    total = 2 ** len(free)
    checks = _exhaust_checks(total, config.n)
    if checks > EXHAUST_BUDGET_CHECKS:
        raise SpaceError(
            f"exhaust would check {total} traces (2^{len(free)}) at n = {config.n},"
            f" {checks} shift checks and pair tests, over the budget of {EXHAUST_BUDGET_CHECKS}"
        )
    tail = sum(1 << i for i in config.tail)
    bits = [1 << i for i in free]
    checked = passed = 0
    first_failure = None
    for r in range(len(bits) + 1):
        for extra in combinations(bits, r):
            mask = tail + sum(extra)
            checked += 1
            if _shift_core(config.k, config.n, mask)[2]:
                passed += 1
            elif first_failure is None:
                first_failure = _indices(mask)
    return ExhaustReport(checked, passed, first_failure)
