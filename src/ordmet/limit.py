"""Growing finite stages of the universal homogeneous ordered rational
metric space.

The builder keeps one mutable stage and a fair schedule of one-point
extension requests.  A request names a subset of already-created points (by
creation index), a distance to each of them drawn from the Calkin-Wilf
enumeration of the positive rationals, and an order gap inside the subset.
Requests are consumed in weight order (weight = subset size + creation
indices + rational indices + gap), so every request over every finite
subset is scheduled after finitely many steps, and each names only points
that exist when it is drawn (the proof is at ``_schedule``).  Growth never
renames or reorders existing points, so successive stages form an
increasing chain.

The stage's distances are kept in the layout of ``FinSpace``, as rows of
Python ints over one common denominator indexed by stage position, and the
builder reads them with the methods ``FinSpace`` has (``d``, ``position``,
``subspace`` and the rest).  The rows are the only stored form: a new
denominator rescales them with ``_RowTable._rows_over``.  A request is
tested on the stage's own rows, over its subset (``feasibility_violation``
with the subset's points), with no subspace built.  Each new point's
column is the shortest-path completion through its subset,
``amalgam.shortest_path_column`` (the rule ``amalgamate`` uses), in integers
formed by ``spaces.scaled``, inserted at the new point's position.  It is
not re-checked: by Katetov's extension lemma, distances that pass the
two-sided triangle test on a subset of a metric space complete, by shortest
path through the subset, to a column that meets every triangle bound.
Snapshots (``stage``) take a copy of the rows, so ``Fraction`` values are
made only when ``d`` is read.

Partial isomorphisms between finite subsets (``spaces.PartialIso``, the
package's one map type, checked by ``spaces.partial_iso_ok``) extend
through the stage by the usual alternation: images are looked up among
existing points in creation order through ``spaces.agreeing`` (as the
orbit search looks up its candidates): one row lookup against the map's
first pair drops most of them, and the shared predicate
``spaces.agrees_located`` decides the rest against every pair of the
map.  The first accepted point is the image; a
point is freshly realized when nothing fits, which pins one canonical
automorphism to the schedule.  The row-store budget (``store_bytes``,
``STORE_BUDGET_BYTES``) is the one ``spaces`` defines for every table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Iterator, Mapping

from .amalgam import InfeasibleExtensionError, feasibility_violation, shortest_path_column
from .rationals import calkin_wilf
from .spaces import (
    STORE_BUDGET_BYTES,
    FinSpace,
    PartialIso,
    PointId,
    SpaceError,
    _RowTable,
    agreeing,
    locate,
    partial_iso_ok,
    scaled,
    store_bytes,
    validate,
)


class FuelExhaustedError(RuntimeError):
    """apply_auto ran out of back-and-forth steps; retry with more fuel."""


def compose(outer: PartialIso, inner: PartialIso) -> PartialIso:
    """outer after inner, defined where the image of inner meets outer."""
    outer_map = outer.mapping
    pairs = [
        (x, outer_map[y]) for x, y in zip(inner.dom, inner.cod) if y in outer_map
    ]
    return PartialIso(tuple(x for x, _ in pairs), tuple(y for _, y in pairs))


@dataclass(frozen=True)
class ExtensionTask:
    """A scheduled request: creation indices, Calkin-Wilf distance indices
    (aligned with the subset), and the order gap inside the subset."""

    subset: tuple[int, ...]
    rational_indices: tuple[int, ...]
    gap: int


def _tuples(size: int, budget: int, increasing: bool, low: int = 0) -> Iterator[tuple[int, ...]]:
    """Tuples of ``size`` naturals with sum in [low, budget], in lex order;
    only strictly increasing ones when ``increasing``."""

    def rec(prefix: list[int], start: int, left: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == size:
            if budget - left >= low:
                yield tuple(prefix)
            return
        for v in range(start, left + 1):
            prefix.append(v)
            yield from rec(prefix, v + 1 if increasing else 0, left - v)
            prefix.pop()

    return rec([], 0, budget)


def tasks_of_weight(weight: int) -> list[ExtensionTask]:
    """Every task whose components sum to ``weight``, sorted by subset size,
    then subset, then distance indices (the gap is what is left over).  Each
    task has exactly one weight, so concatenating the levels enumerates all
    tasks once."""
    found = []
    for size in range(weight + 1):
        for subset in _tuples(size, weight - size, True):
            left = weight - size - sum(subset)
            for rvec in _tuples(size, left, False, low=left - size):
                found.append(ExtensionTask(subset, rvec, left - sum(rvec)))
    return found


def _schedule() -> Iterator[ExtensionTask]:
    """The fair schedule: the levels ``tasks_of_weight(w)`` for w = 0, 1,
    2, ... in turn.  Every task it yields names points that exist by the
    time it is drawn, whatever the seed:

    - a task of weight w with subset size s >= 1 names creation indices
      <= w - s, as the indices are naturals with sum <= w - s;
    - level 0's empty task always realizes, and so does the single-anchor
      task ((v - 1,), (0,), 0) of each level v >= 1, which has no pair to
      test;
    - so, by induction on w, at least w points exist when level w starts,
      and its tasks name indices < w.
    """
    for weight in count():
        yield from tasks_of_weight(weight)


class LimitBuilder(_RowTable):
    """Single-owner mutable stage; operations mutate in place and return
    their results.  Snapshots from :meth:`stage` are immutable values.

    The stage is stored as a ``FinSpace`` is, and read through the same
    methods: ``points`` in stage order, ``_pos``, and ``_rows[i][j]``, the
    distance between the points at positions i and j times the common
    denominator ``_scale``, as a Python int (exact, no overflow).  A new
    point's value is inserted into every row at its position, and its row
    inserted there; a distance with a new denominator puts every row over
    the lcm (``_rows_over``).  ``created`` keeps the creation order, which
    the schedule and the image search follow.  ``Fraction`` values appear
    only at the API boundary (:meth:`d` and the snapshots' own ``d``), made
    from the rows when read.
    """

    def __init__(self, seed: FinSpace):
        report = validate(seed)
        if not report.is_valid:
            raise SpaceError(
                "seed space is invalid: " + report.violations[0].describe(seed)
            )
        self.points: list[PointId] = list(seed.points)
        self.names: dict[PointId, str] = dict(seed.names)
        self._seed_names = set(self.names.values())
        self._pos: dict[PointId, int] = dict(seed._pos)
        self._created: list[PointId] = list(seed.points)
        # every space's rows are complete and symmetric: a copy is the store
        self._rows: list[list[int]] = [row[:] for row in seed._rows]
        self._scale = seed._scale
        self._tasks = _schedule()

    # -- stage queries ------------------------------------------------------

    @property
    def created(self) -> tuple[PointId, ...]:
        return tuple(self._created)

    def stage(self) -> FinSpace:
        """Immutable snapshot of the current stage: a copy of the rows over
        the current scale."""
        rows = [row[:] for row in self._rows]
        return FinSpace._of_rows(self.points, rows, self._scale, self.names)

    # -- growth -------------------------------------------------------------

    def realize(self, dvec: Mapping[PointId, Fraction], gap: int) -> PointId:
        """Add one point with exact distances to the keyed subset and the
        requested order gap inside it; remaining distances are completed by
        shortest path through the subset (the amalgamation rule), in
        integers over the common denominator.  The feasibility test is the
        one check, run on the stage's own rows over the subset in position
        order (each value must be positive; a refusal names the first
        failing pair): on a metric stage, a feasible request's shortest-path
        column meets every triangle bound (Katetov's extension lemma), so
        the stage stays a metric.  The fresh name ``u<id>``, with ``_``
        appended while it is taken, is tested against the seed's names
        alone: a name made here determines its id, so it never meets another
        name made here.
        """
        points, pos = self.points, self._pos
        if not all(p in pos for p in dvec):
            raise SpaceError("dvec keys must be stage points")
        sub = sorted(dvec, key=pos.__getitem__)
        if not 0 <= gap <= len(sub):
            raise SpaceError(f"gap {gap} outside 0..{len(sub)}")
        refusal = feasibility_violation(self, dvec, sub)
        if refusal is not None:
            raise InfeasibleExtensionError(*refusal)

        scale = lcm(self._scale, *(dvec[z].denominator for z in sub))
        rows = self._rows = self._rows_over(scale)
        self._scale = scale
        # Rows are symmetric, so row i doubles as the column of point i.
        legs = [(rows[pos[z]], scaled(dvec[z], scale)) for z in sub]
        filler = scale + max(map(max, rows)) if rows and not legs else 0
        column = shortest_path_column(legs, len(rows), filler)

        new = max(self._created, default=-1) + 1
        index = pos[sub[gap]] if gap < len(sub) else len(points)
        points.insert(index, new)
        pos.update(zip(points[index:], range(index, len(points))))
        self._created.append(new)
        name = f"u{new}"
        while name in self._seed_names:
            name = name + "_"
        self.names[new] = name
        for row, value in zip(rows, column):
            row.insert(index, value)
        column.insert(index, 0)
        rows.insert(index, column)
        return new

    def grow(self, steps: int) -> "LimitBuilder":
        """Realize the next ``steps`` scheduled extensions; the stage grows
        by exactly ``steps`` points."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        estimate = store_bytes(len(self) + steps)
        if estimate > STORE_BUDGET_BYTES:
            raise ValueError(
                f"stage of {len(self) + steps} points needs about {estimate} bytes"
                f" of distance rows, over the {STORE_BUDGET_BYTES}-byte budget"
            )
        for _ in range(steps):
            for task in self._tasks:
                sub = [self._created[i] for i in task.subset]
                dvec = {p: calkin_wilf(r) for p, r in zip(sub, task.rational_indices)}
                try:
                    self.realize(dvec, task.gap)
                except InfeasibleExtensionError:
                    continue  # its distances break a triangle: no extension
                break
        return self

    # -- homogeneity engine --------------------------------------------------

    def iso_ok(self, iso: PartialIso) -> bool:
        """Preservation check against the current stage."""
        return partial_iso_ok(self, iso)

    def _find_or_realize_image(self, iso: PartialIso, target: PointId) -> PointId:
        """A stage point matching target's distances and order pattern over
        the map, existing points first in creation order, else realized.
        The candidates w, in creation order, go through ``agreeing`` (target
        -> w against every pair of the map), as the orbit search's do; the
        identity check of ``agrees_located`` rejects the map's codomain."""
        pos = self._pos
        placed = locate(self, self, zip(iso.dom, iso.cod))
        tpos = pos[target]
        options = [(target, w, tpos, pos[w]) for w in self._created]
        found = agreeing(self._rows, options, placed)
        if found:
            return found[0][1]
        dvec = {y: self.d(target, x) for x, y in zip(iso.dom, iso.cod)}
        gap = sum(1 for _, _, xp, _ in placed if xp < tpos)
        return self.realize(dvec, gap)

    def back_and_forth_extend(
        self, iso: PartialIso, target: PointId, side: str
    ) -> PartialIso:
        """Extend the map so that ``target`` enters its domain (side
        "forth") or its codomain (side "back"), growing the stage when no
        existing point realizes the transported constraints."""
        if side not in ("forth", "back"):
            raise ValueError("side must be 'forth' or 'back'")
        if target not in self:
            raise SpaceError(f"target {target} not in stage")
        if not self.iso_ok(iso):
            raise SpaceError("partial isomorphism is not valid on the current stage")
        if side == "back":
            return self._forth(iso.inverse(), target).inverse()
        return self._forth(iso, target)

    def _forth(self, iso: PartialIso, target: PointId) -> PartialIso:
        """Forth step of a map already checked on the stage.  The extended
        map is not checked again: a found image passed ``agrees_located``
        against every pair of the map, and a realized image gets the
        transported distances to the codomain (feasible, as the map
        preserves distances, so its shortest-path column keeps them) in the
        codomain gap that target occupies in the domain."""
        if target in iso.dom:
            return iso
        return iso.extended(target, self._find_or_realize_image(iso, target))

    def apply_auto(self, iso: PartialIso, x: PointId, fuel: int) -> PointId:
        """Image of ``x`` under the canonical automorphism the schedule
        assigns to ``iso``: alternate forth steps (even) and back steps
        (odd) over uncovered points in creation order until ``x`` is
        determined.  Deterministic in (stage, iso, x, fuel); increasing fuel
        can only extend, never revise, the answer.  The map is checked once,
        when a step is needed; each step extends a checked map (``_forth``).
        """
        if fuel < 1:
            raise ValueError("fuel must be at least 1")
        if x not in self:
            raise SpaceError(f"point {x} not in stage")
        if x in iso.dom:
            return iso.mapping[x]
        if not self.iso_ok(iso):
            raise SpaceError("partial isomorphism is not valid on the current stage")
        current = iso
        for step in range(fuel):
            back = step % 2 == 1  # a back step is a forth step of the inverse
            side = current.inverse() if back else current
            covered = set(side.dom)
            missing = next(p for p in self._created if p not in covered)
            side = self._forth(side, missing)
            current = side.inverse() if back else side
            if x in current.dom:
                return current.mapping[x]
        raise FuelExhaustedError(
            f"image of {self.names[x]} not determined within {fuel} steps"
        )


def new_builder(seed: FinSpace) -> LimitBuilder:
    """Builder whose first stage is ``seed`` (may be empty); invalid seeds
    are rejected."""
    return LimitBuilder(seed)
