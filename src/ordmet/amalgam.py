"""One-point extensions and strong amalgamation of ordered rational metric
spaces.

A one-point extension is feasible exactly when the requested distances pass
the two-sided triangle test against every base pair.  Amalgamation glues two
spaces along a common subspace: shared points are identified, cross
distances are completed by the shortest path through the overlap, and the
order interleaves deterministically (left-side points before right-side
points inside each overlap gap).

The completion rule exists once, as :func:`shortest_path_column`, the
shortest path through the anchors.  ``amalgamate`` runs it on the int rows
of both sides over their common denominator, and so does
``LimitBuilder.realize`` over its stage; both put rows over a scale with
``_RowTable._rows_over`` and form the new point's ints with
``spaces.scaled``.  The feasibility test reads a row table in place, over
all of its points or a subset, so ``realize`` tests a request on its own
stage.  By Katetov's extension lemma, anchor distances that pass the
two-sided triangle test on a metric space complete to a column that meets
every triangle bound, so only ``amalgamate``, whose a or b may not be a
metric, re-checks the lower bound against every anchor.

``amalgamate`` takes and returns embeddings as ``spaces.PartialIso``s,
which name no spaces: the spaces come as their own arguments.  It is two
steps: ``_side`` checks one input embedding and keeps the facts of that
side alone, and ``_glue`` completes, orders and validates the glued space
of two checked sides.  ``amalgamate`` runs them once per call, e_a's side
first; the direct Fraisse engine checks each side once per overlap and
glues once per span.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence

from .rationals import format_rational
from .spaces import (
    FinSpace,
    PartialIso,
    PointId,
    SpaceError,
    _RowTable,
    diameter,
    preserves,
    scaled,
    validate,
)


class InfeasibleExtensionError(ValueError):
    """Requested distances break a triangle against a base pair."""

    def __init__(self, pair: tuple[PointId, PointId], message: str):
        super().__init__(message)
        self.pair = pair


class AmalgamError(ValueError):
    """Inputs to amalgamate are not a span of embeddings, or the glued
    space failed its own construction checks."""


@dataclass(frozen=True)
class ExtensionType:
    """A new point described by its distance to every base point plus the
    order gap it occupies (slot s means after s base points)."""

    base: FinSpace
    dvec: Mapping[PointId, Fraction]
    slot: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "dvec", {p: Fraction(v) for p, v in dict(self.dvec).items()}
        )
        if not 0 <= self.slot <= len(self.base):
            raise SpaceError(f"slot {self.slot} outside 0..{len(self.base)}")


def feasibility_violation(
    base: _RowTable,
    dvec: Mapping[PointId, Fraction],
    points: Sequence[PointId] | None = None,
) -> tuple[tuple[PointId, PointId], str] | None:
    """First pair of ``points`` whose two-sided triangle bound rejects
    ``dvec``, with a printable reason; None when the extension is feasible.

    ``points`` are the base points to test, in position order: every point
    of ``base`` by default, or, from ``LimitBuilder.realize``, the keys of
    ``dvec``, a subset of its stage tested with no subspace built.  ``dvec``
    must give each a positive distance.  Pairs are compared in
    ``combinations(points, 2)`` order as ints over one common denominator,
    ``base``'s own rows times ``scale // base._scale``; ``Fraction``s are
    formed only for the reason."""
    points = base.points if points is None else points
    _check_dvec(base, points, dvec)
    scale = lcm(base._scale, *(v.denominator for v in dvec.values()))
    factor = scale // base._scale
    pos, rows = base._pos, base._rows
    want = {p: scaled(v, scale) for p, v in dvec.items()}
    for p, q in combinations(points, 2):
        dpq, vp, vq = rows[pos[p]][pos[q]] * factor, want[p], want[q]
        if dpq > vp + vq or abs(vp - vq) > dpq:
            d, dp, dq = (format_rational(v) for v in (base.d(p, q), dvec[p], dvec[q]))
            reason = f"{d} > {dp} + {dq}" if dpq > vp + vq else f"|{dp} - {dq}| > {d}"
            return (p, q), f"pair ({base.name(p)}, {base.name(q)}): {reason}"
    return None


def extension_feasible(base: FinSpace, dvec: Mapping[PointId, Fraction]) -> bool:
    """True iff a point with the given distances can be added to ``base``.

    Checks |d(x) - d(y)| <= d(x,y) <= d(x) + d(y) for every base pair; this
    is equivalent to the extended space satisfying every metric axiom.
    """
    return feasibility_violation(base, dvec) is None


def _check_dvec(
    base: _RowTable, points: Sequence[PointId], dvec: Mapping[PointId, Fraction]
) -> None:
    for p in points:
        if p not in dvec:
            raise SpaceError(f"dvec missing entry for point {p}")
    for p, v in dvec.items():
        if p not in base:
            raise SpaceError(f"dvec names unknown point {p}")
        if v <= 0:
            raise SpaceError(f"dvec value for {p} must be positive, got {v}")


def _fresh_name(taken: set[str], stem: str) -> str:
    if stem not in taken:
        return stem
    k = 2
    while f"{stem}_{k}" in taken:
        k += 1
    return f"{stem}_{k}"


def extend_one_point(base: FinSpace, ext: ExtensionType) -> FinSpace:
    """Realize a feasible extension; raises InfeasibleExtensionError (naming
    the offending pair) otherwise.  ``ext.slot`` must be a gap of ``base``,
    which ``ExtensionType`` checked against ``ext.base`` only.  The new
    point's column, ``dvec`` over the lcm of the scales, is inserted at the
    slot into a copy of the base rows, as ``LimitBuilder.realize`` does."""
    if not 0 <= ext.slot <= len(base):
        raise SpaceError(f"slot {ext.slot} outside 0..{len(base)}")
    dvec = ext.dvec
    refusal = feasibility_violation(base, dvec)
    if refusal is not None:
        raise InfeasibleExtensionError(*refusal)
    new = max(base.points, default=-1) + 1
    pts = list(base.points)
    pts.insert(ext.slot, new)
    scale = lcm(base._scale, *(v.denominator for v in dvec.values()))
    rows = [row[:] for row in base._rows_over(scale)]
    column = [scaled(dvec[p], scale) for p in base.points]
    for row, value in zip(rows, column):
        row.insert(ext.slot, value)
    column.insert(ext.slot, 0)
    rows.insert(ext.slot, column)
    names = dict(base.names)
    names[new] = _fresh_name(set(names.values()), f"p{new}")
    return FinSpace._of_rows(pts, rows, scale, names)


def shortest_path_column(legs, size: int, filler):
    """A new point's distances to ``size`` points, completed by the shortest
    path through its anchors.

    Each leg is (row, v): ``row[j]`` is an anchor's distance to point j and
    ``v`` the new point's distance to that anchor.  The column is the
    elementwise minimum of row + v over the legs, or ``filler`` everywhere
    when there is no leg, so every value meets the upper bound
    value <= row[j] + v of every anchor.  It starts as the first leg's sums
    and folds in each later leg in one pass over the row, keeping the
    earlier value on a tie, as ``min`` does.  When the rows are a metric and
    the legs pass the two-sided triangle test among the anchors, the lower
    bound |row[j] - v| <= value holds too (Katetov's extension lemma: one
    triangle step through the minimizing anchor), and an anchor's own entry
    completes to its leg.  Ints and Fractions work alike.
    """
    if not legs:
        return [filler] * size
    (row, v), *rest = legs
    column = [leg + v for leg in row]
    for row, v in rest:
        column = [m if m <= (s := leg + v) else s for m, leg in zip(column, row)]
    return column


class _Side:
    """One side of a span: ``space`` with the embedding of the overlap c
    into it, after ``_side`` checked them, and the facts that depend on that
    side alone, kept for its use as a and as b.  ``anchors`` are the images
    of c's points in c's order.  As a: ``closing`` holds each anchor's
    position and then ``len(space)``, ``keys`` each point's sort key,
    ``f_a`` is the identity and ``taken`` holds the base names.  As b:
    ``image`` maps each anchor to its point of c, ``extra`` lists the other
    points in order, and ``gaps`` holds each one's gap among the anchors
    (the index of the anchor that closes it, ``len(anchors)`` past the last)
    and its position.  The diameter, which only an empty overlap reads, is
    computed at its first use."""

    def __init__(self, space: FinSpace, c: FinSpace, mapping: dict[PointId, PointId]):
        at = space._pos
        self.space, self.mapping = space, mapping
        self.anchors = [mapping[z] for z in c.points]
        anchor_at = [at[p] for p in self.anchors]
        self.closing = anchor_at + [len(space)]
        self.keys = [((i, 1, 0), p) for i, p in enumerate(space.points)]
        self.f_a = PartialIso(space.points, space.points)
        self.taken = frozenset(space.names.values())
        self.image = {mapping[z]: z for z in c.points}
        self.extra = [q for q in space.points if q not in self.image]
        self.gaps = [(bisect_left(anchor_at, at[q]), at[q]) for q in self.extra]

    @cached_property
    def diameter(self) -> Fraction:
        return diameter(self.space)


def _side(space: FinSpace, c: FinSpace, emb: PartialIso, tag: str) -> _Side:
    """``emb`` as a side of a span over ``c``, after the input checks of
    :func:`amalgamate`: its domain is exactly c's points, its images lie in
    ``space``, and :func:`preserves` accepts it (identity, so injectivity,
    order and distance).  A failed check raises ``AmalgamError`` naming
    ``tag``; no distance is read but by ``preserves``."""
    mapping = emb.mapping
    if mapping.keys() != c._pos.keys():
        raise AmalgamError(f"{tag} is not defined exactly on the overlap space")
    if not all(q in space._pos for q in mapping.values()):
        raise AmalgamError(f"{tag} does not land in its target")
    if not preserves(c, space, ((z, mapping[z]) for z in c.points)):
        raise AmalgamError(f"{tag} does not preserve structure")
    return _Side(space, c, mapping)


def amalgamate(
    a: FinSpace,
    b: FinSpace,
    c: FinSpace,
    e_a: PartialIso,
    e_b: PartialIso,
) -> tuple[FinSpace, PartialIso, PartialIso]:
    """Glue ``a`` and ``b`` along ``c`` and return (d, f_a, f_b) with
    f_a . e_a == f_b . e_b.

    The result keeps a's point ids (f_a is the identity map), overlaps the
    two images exactly on the image of c, completes cross distances by
    shortest path through c (or by 1 + max diameter when c is empty) with
    :func:`shortest_path_column`, and orders each overlap gap with a's
    points before b's, placing b's points by their positions in b.

    Every call checks its inputs first, e_a and then e_b, with
    :func:`_side`: each embedding's domain is exactly c's points, its images
    lie in its target, and :func:`preserves` accepts it.  :func:`_glue`
    then checks the completion and validates the glued space.
    """
    return _glue(_side(a, c, e_a, "e_a"), _side(b, c, e_b, "e_b"), c)


def _glue(left: _Side, right: _Side, c: FinSpace) -> tuple[FinSpace, PartialIso, PartialIso]:
    """The amalgam of two checked sides over ``c``, a's as ``left`` and b's
    as ``right``: :func:`amalgamate` after its input checks.

    It checks the completion, anchor-major (a cross distance under an
    anchor's lower bound, which only a or b that is not a metric can give,
    is refused), and ``validate``s the glued space, which fails when a or b
    is not a valid space.  The rest holds by construction, so it is not
    re-checked: the square commutes because f_b sends each overlap point
    e_b(z) to e_a(z); f_a is the identity over a's rows, copied verbatim;
    f_b keeps b's order (e_a and e_b keep c's, and b's other points fill the
    gaps in b's order) and b's distances (its extra pairs are copied, each
    completed entry at an anchor equals its leg, and the overlap's own
    distances are c's on both sides).
    """
    a, b = left.space, right.space
    map_a, image_b, b_extra = left.mapping, right.image, right.extra

    # Ids: keep a's; b-only points keep theirs unless taken.
    used = set(a.points)
    ids: dict[PointId, PointId] = {}
    for q in b_extra:
        new = q
        if new in used:
            new = max(used) + 1
        ids[q] = new
        used.add(new)

    # Order: one sort.  a's point p keys (pos_a(p), 1, 0); a b-only point q
    # keys (pos_a of the overlap point closing q's gap in b, len(a) past the
    # last one, 0, pos_b(q)), so a-side first inside a gap.  The overlap is
    # in c's order in a and in b, as both embeddings keep it.
    closing = left.closing
    keyed = left.keys + [((closing[gap], 0, at_b), ids[q]) for q, (gap, at_b) in zip(b_extra, right.gaps)]
    order = [p for _, p in sorted(keyed)]

    # The glued table as int rows over the common denominator of a and b:
    # a's rows as they are, b's extra pairs, then each b-only point as a new
    # point over a anchored at the overlap.
    scale = lcm(a._scale, b._scale)
    a_rows, b_rows = a._rows_over(scale), b._rows_over(scale)
    at = {p: i for i, p in enumerate(order)}
    rows: list[list] = [[0] * len(order) for _ in order]
    a_at = [at[p] for p in a.points]
    for i, a_row in zip(a_at, a_rows):
        for j, v in zip(a_at, a_row):
            rows[i][j] = v
    b_at = b._pos
    for q1, q2 in combinations(b_extra, 2):
        i, j = at[ids[q1]], at[ids[q2]]
        rows[i][j] = rows[j][i] = b_rows[b_at[q1]][b_at[q2]]

    # the rows are symmetric, so an anchor's row in a is its column
    anchor_rows = [a_rows[a._pos[za]] for za in left.anchors]
    filler = 0
    if not left.anchors and len(a) and len(b):
        filler = scaled(1 + max(left.diameter, right.diameter), scale)
    for q in b_extra:
        q_row = b_rows[b_at[q]]
        legs = [(row, q_row[b_at[zb]]) for row, zb in zip(anchor_rows, right.anchors)]
        column = shortest_path_column(legs, len(a), filler)
        for (row, v), z in zip(legs, c.points):
            for leg, value in zip(row, column):
                if abs(leg - v) > value:
                    raise AmalgamError(
                        f"cross distance {Fraction(value, scale)} escapes the bound "
                        f"through overlap point {c.name(z)}"
                    )
        i = at[ids[q]]
        for j, value in zip(a_at, column):
            rows[i][j] = rows[j][i] = value

    names, taken = dict(a.names), set(left.taken)
    for q in b_extra:
        nm = _fresh_name(taken, b.names[q])
        names[ids[q]] = nm
        taken.add(nm)

    glued = FinSpace._of_rows(order, rows, scale, names)
    report = validate(glued)
    if not report.is_valid:
        raise AmalgamError(
            "amalgam failed validation: " + report.violations[0].describe(glued)
        )
    f_b = PartialIso(b.points, tuple(ids[q] if q in ids else map_a[image_b[q]] for q in b.points))
    return glued, left.f_a, f_b
