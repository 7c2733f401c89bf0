"""Orbit calculus for automorphisms pinned on a finite support.

Whether two tuples lie in the same orbit of the support-fixing
automorphism group is decided by a finite criterion: the map that fixes the
support pointwise and sends one tuple to the other must be a well-defined
partial isomorphism.  Homogeneity of the ambient limit makes this exact, so
no automorphism is ever materialized.

``orbit_traces`` searches position by position, on an explicit stack, so
a tuple of any length stays within the recursion limit.  The support pairs
are the same at every node of that search, so each entry's candidates are
tested against them once, before the search, through ``spaces.agreeing``;
each node then tests that shorter list against the images placed so far
only.  The split is exact: a candidate is accepted when it agrees with the
support and with every placed image, whichever is tested first.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .spaces import FinSpace, PointId, SpaceError, agreeing, locate, preserves

Support = frozenset[PointId]


def _fixed(
    stage: FinSpace, support: Iterable[PointId], *tuples: Sequence[PointId]
) -> list[tuple[PointId, PointId]]:
    """The support's pairs (b, b), once every named point is known to be a
    stage point."""
    base = list(support)
    for p in chain(base, *tuples):
        if p not in stage:
            raise SpaceError(f"point {p} not in stage")
    return [(b, b) for b in base]


def same_fix_orbit(
    stage: FinSpace,
    support: Iterable[PointId],
    t1: Sequence[PointId],
    t2: Sequence[PointId],
) -> bool:
    """True iff some automorphism fixing ``support`` pointwise carries t1 to
    t2, decided by checking that support-fixing + t1 -> t2 is a well-defined
    injection that preserves distances and order."""
    if len(t1) != len(t2):
        raise SpaceError("tuples must have equal length")
    fixed = _fixed(stage, support, t1, t2)
    return preserves(stage, stage, fixed + list(zip(t1, t2)))


def orbit_traces(
    stage: FinSpace,
    support: Iterable[PointId],
    t: Sequence[PointId],
) -> set[tuple[PointId, ...]]:
    """All tuples of the stage in the same support-fixing orbit as ``t``.

    Backtracks position by position so that stages of a few dozen points
    stay tractable; always contains ``t`` itself.
    """
    fixed = locate(stage, stage, _fixed(stage, support, t))
    # each entry of t paired with every stage point, located once
    options = [locate(stage, stage, [(p, c) for c in stage.points]) for p in t]
    return _traces(stage._rows, fixed, options)


def _traces(rows, fixed, options) -> set[tuple[PointId, ...]]:
    """Every tuple of images, entry i taken from ``options[i]``, that
    agrees with the located ``fixed`` support pairs and with itself.  An
    explicit stack walks the search, as ``spaces._embeddings`` does:
    ``stack[d]`` iterates entry d's candidates that agree with ``chosen``,
    the located pairs placed for the first d entries, so no tuple length
    meets the recursion limit.  ``levels[d]`` holds entry d's candidates
    that agree with the support."""
    found: set[tuple[PointId, ...]] = set()
    levels = [agreeing(rows, level, fixed) for level in options]
    chosen, stack = [], []
    while True:
        depth = len(chosen)
        if depth == len(options):
            found.add(tuple(q for _, q, _, _ in chosen))
        else:
            stack.append(iter(agreeing(rows, levels[depth], chosen)))
        # the next candidate of the deepest entry that has one left
        while stack and (here := next(stack[-1], None)) is None:
            stack.pop()
        if not stack:
            return found
        del chosen[len(stack) - 1 :]
        chosen.append(here)
