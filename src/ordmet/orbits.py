"""Orbit calculus for automorphisms pinned on a finite support.

Whether two tuples lie in the same orbit of the support-fixing
automorphism group is decided by a finite criterion: the map that fixes the
support pointwise and sends one tuple to the other must be a well-defined
partial isomorphism.  Homogeneity of the ambient limit makes this exact, so
no automorphism is ever materialized.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .spaces import FinSpace, PointId, SpaceError, agrees_located, locate, preserves

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
    fixed = _fixed(stage, support, t)
    # each entry of t paired with every stage point, located once
    options = [locate(stage, stage, [(p, c) for c in stage.points]) for p in t]
    found: set[tuple[PointId, ...]] = set()
    _descend(stage, fixed, t, options, [], found)
    return found


def _descend(stage, fixed, t, options, prefix: list[PointId], found: set) -> None:
    """Add to ``found`` every way of extending ``prefix``, the images of the
    first entries of ``t``, to all of ``t`` in agreement with the fixed
    support and the earlier entries.  A module-level recursion, so that no
    reference cycle keeps ``options`` alive after the search."""
    if len(prefix) == len(t):
        found.add(tuple(prefix))
        return
    placed = locate(stage, stage, fixed + list(zip(t, prefix)))
    for here in options[len(prefix)]:
        if agrees_located(stage._rows, stage._rows, 1, 1, here, placed):
            prefix.append(here[1])
            _descend(stage, fixed, t, options, prefix, found)
            prefix.pop()
