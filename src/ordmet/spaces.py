"""Finite totally ordered metric spaces with exact rational distances.

A space is a finite list of points carrying a strict total order (the list
order) and a symmetric, positive, triangle-satisfying table of rational
distances.  The table is stored once, as rows of Python ints over one
common denominator, indexed by position in the order; it is the only
stored form of a distance.  Every check here (``validate``, ``agrees`` /
``preserves``, ``enumerate_embeddings``) compares those ints; a
``Fraction`` is made when a distance leaves the API (``d``, ``entries``)
or is printed.
The searches for a map inside one table (orbits, the limit builder's
images) take their candidates through ``agreeing``, which narrows them by
one row lookup before the shared predicate ``agrees_located`` decides.
Every module forms row ints with :func:`scaled` and puts rows over a new
scale with ``_RowTable._rows_over``.  The read side of that layout is one
base class, which the growing ``LimitBuilder`` shares.
Every map between points is one type, :class:`PartialIso`, aligned
``dom`` and ``cod`` tuples: the two searches return it, and its two checks
are folds of ``preserves``, ``embedding_ok`` (total on one space, into
another) and ``partial_iso_ok`` (inside one space).
Construction refuses what the space-file parser refuses: a point listed
twice, a pair with no distance, a pair given two distances and a nonzero
distance from a point to itself.  So every table is complete, symmetric
and zero on the diagonal, and every reader relies on it; ``validate``
reports the axioms such a table can still break, positivity and the
triangle inequality.  Spaces are immutable after construction; every
operation here is a pure function.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .rationals import format_rational, parse_rational

PointId = int


class SpaceError(ValueError):
    """Structural misuse: unknown points, empty-space diameter, and similar."""


class MissingDistanceError(SpaceError):
    """A table given to a space has no distance for some pair."""


# Upper estimate of one row-store entry: an 8-byte list slot plus its share
# of a multi-digit int object (each value sits in two rows) and
# list over-allocation.  The parser, the limit builder and the witness
# refuse tables whose estimate tops the budget before they allocate rows.
ROW_ENTRY_BYTES = 32
STORE_BUDGET_BYTES = 1 << 30


def store_bytes(points: int) -> int:
    """Estimated bytes of the distance rows of a table of ``points`` points."""
    return ROW_ENTRY_BYTES * points * points


class _RowTable:
    """Read side of :class:`FinSpace`, shared by ``LimitBuilder``.  ``_pos``
    maps each point to its position in ``points``; ``_rows[i][j]`` is
    d(points[i], points[j]) times ``_scale`` as a Python int.  The rows are
    complete and symmetric, with 0 on the diagonal."""

    __slots__ = ("points", "names", "_pos", "_rows", "_scale")

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: PointId) -> bool:
        return p in self._pos

    def position(self, p: PointId) -> int:
        """Index of ``p`` in the structural order."""
        try:
            return self._pos[p]
        except KeyError:
            raise SpaceError(f"point {p} not in space") from None

    def name(self, p: PointId) -> str:
        self.position(p)
        return self.names[p]

    def d(self, p: PointId, q: PointId) -> Fraction:
        """Distance between two points; 0 on the diagonal."""
        return Fraction(self._rows[self.position(p)][self.position(q)], self._scale)

    def _rows_over(self, scale: int) -> list[list]:
        """The rows over ``scale``, a multiple of ``_scale``: themselves, or
        a scaled copy."""
        factor = scale // self._scale
        if factor == 1:
            return self._rows
        return [[v * factor for v in row] for row in self._rows]

    def pairs(self) -> Iterator[tuple[PointId, PointId]]:
        """Unordered point pairs in lexicographic order of positions."""
        return combinations(self.points, 2)

    def subspace(self, keep: Iterable[PointId]) -> "FinSpace":
        """Induced space on ``keep``: the order and the rows among the kept
        points are inherited."""
        at = sorted(map(self.position, set(keep)))
        rows = [[row[j] for j in at] for row in map(self._rows.__getitem__, at)]
        pts = [self.points[i] for i in at]
        return FinSpace._of_rows(pts, rows, self._scale, self.names)


class FinSpace(_RowTable):
    """Finite ordered metric space.

    ``points`` lists distinct point ids in increasing structural order;
    ids are opaque.  The constructor takes a mapping from point pairs to
    rationals, one value per unordered pair, given either way round or
    both ways with one value, and stores it once as symmetric int rows by
    position, the only stored form of a distance.  A diagonal entry may be
    given as 0.  It raises ``SpaceError`` for a repeated id, a pair given
    two different values or a nonzero diagonal entry, and
    ``MissingDistanceError`` for the first pair, in ``combinations``
    order, that has no value.  :meth:`d` and ``entries`` make
    ``Fraction``s from the rows when read.
    """

    __slots__ = ()

    def __init__(
        self,
        points: Iterable[PointId],
        entries: Mapping[tuple[PointId, PointId], Fraction | int | str],
        names: Mapping[PointId, str] | None = None,
    ) -> None:
        pts = tuple(points)
        pos = {p: i for i, p in enumerate(pts)}
        if len(pos) != len(pts):
            raise SpaceError("a point is listed twice")
        given: dict[tuple[int, int], Fraction] = {}  # keyed by position pair
        for (p, q), value in entries.items():
            if p not in pos or q not in pos:
                raise SpaceError(f"distance entry ({p}, {q}) references unknown point")
            given[pos[p], pos[q]] = value if type(value) is Fraction else Fraction(value)
        scale = lcm(*{v.denominator for v in given.values()})
        rows: list[list] = [[None] * len(pts) for _ in pts]
        for (i, j), v in given.items():
            value = scaled(v, scale)
            if i == j and value:
                raise SpaceError(f"nonzero distance from point {pts[i]} to itself")
            if rows[i][j] not in (None, value):
                raise SpaceError(f"pair ({pts[i]}, {pts[j]}) is given two distances")
            rows[i][j] = rows[j][i] = value
        for i, row in enumerate(rows):
            row[i] = 0
            if None in row:  # any earlier pair was checked with its earlier row
                pair = (pts[i], pts[row.index(None)])
                raise MissingDistanceError(f"no distance recorded for pair {pair}")
        self._adopt(pts, rows, scale, names or {})

    @classmethod
    def _of_rows(cls, points, rows, scale: int, names) -> "FinSpace":
        """Space adopting ``rows`` (one per point, over ``scale``) as they
        are: the caller makes them complete, symmetric and zero on the
        diagonal."""
        space = object.__new__(cls)
        space._adopt(tuple(points), rows, scale, names)
        return space

    def _adopt(self, pts, rows, scale, names) -> None:
        fill = object.__setattr__
        fill(self, "points", pts)
        fill(self, "names", {p: str(names[p]) if p in names else f"p{p}" for p in pts})
        fill(self, "_pos", {p: i for i, p in enumerate(pts)})
        fill(self, "_rows", rows)
        fill(self, "_scale", scale)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"FinSpace is immutable: cannot set {name!r}")

    def __iter__(self) -> Iterator[PointId]:
        return iter(self.points)

    @property
    def entries(self) -> dict[tuple[PointId, PointId], Fraction]:
        """Each point pair (p, q), p before q, in ``combinations`` order,
        mapped to d(p, q) as a ``Fraction``."""
        pts, scale = self.points, self._scale
        return {
            (pts[i], pts[j]): Fraction(v, scale)
            for i, row in enumerate(self._rows)
            for j, v in enumerate(row[i + 1 :], i + 1)
        }

    def precedes(self, p: PointId, q: PointId) -> bool:
        return self.position(p) < self.position(q)

    def point_named(self, name: str) -> PointId:
        for p in self.points:
            if self.names[p] == name:
                return p
        raise SpaceError(f"no point named {name!r}")


def scaled(value: Fraction, scale: int) -> int:
    """``value * scale`` as an int; ``scale`` is a multiple of its denominator."""
    return value.numerator * (scale // value.denominator)


def make_space(
    names: Sequence[str],
    dists: Mapping[tuple[str, str], Fraction | int | str],
) -> FinSpace:
    """Build a space from point names (in structural order) and per-pair values.

    Convenience for tests and parsers; ids are allocated 0..n-1 in list order.
    """
    ids = {nm: i for i, nm in enumerate(names)}
    if len(ids) != len(names):
        raise SpaceError("duplicate point name")
    entries = {}
    for (a, b), v in dists.items():
        value = parse_rational(v) if isinstance(v, str) else Fraction(v)
        entries[(ids[a], ids[b])] = value
    return FinSpace(tuple(range(len(names))), entries, {i: nm for nm, i in ids.items()})


@dataclass(frozen=True)
class Violation:
    kind: str  # "positivity" | "triangle"
    points: tuple[PointId, ...]
    detail: str

    def describe(self, space: FinSpace) -> str:
        labels = " ".join(space.names.get(p, str(p)) for p in self.points)
        return f"{self.kind} {labels}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations


def validate(space: FinSpace) -> ValidationReport:
    """Check the axioms a space can break and report each violation: a
    distance between two points that is not positive, pair by pair, then
    every failed triangle.

    Construction already refused a missing pair, two distances for one
    pair and a nonzero diagonal.  The report is a pure function of the
    space.  Every check reads the int rows; ``Fraction`` values are formed
    only to format a violation.
    """
    out: list[Violation] = []
    rows, scale = space._rows, space._scale
    for (i, p), (j, q) in combinations(enumerate(space.points), 2):
        if rows[i][j] <= 0:
            out.append(Violation("positivity", (p, q), f"d = {format_rational(Fraction(rows[i][j], scale))}"))

    _triangle_pass(space, out)
    return ValidationReport(tuple(out))


def _triangle_pass(space: FinSpace, out: list[Violation]) -> None:
    """Append the triangle violations of the table.

    Reads the upper triangle of the rows (the pair at positions i < j is
    ``rows[i][j]``) as exact Python ints.  Violations are formatted from
    ``Fraction`` values, triples in ``combinations`` order, one report per
    failed side, the far pair first.
    """
    rows, pts, scale = space._rows, space.points, space._scale
    n = len(rows)
    for a in range(n - 2):
        ra = rows[a]
        for b in range(a + 1, n - 1):
            ab, rb = ra[b], rows[b]
            for c in range(b + 1, n):
                ac, bc = ra[c], rb[c]
                if ab > ac + bc or ac > ab + bc or bc > ab + ac:
                    x, y, z = pts[a], pts[b], pts[c]
                    dxy, dxz, dyz = (Fraction(v, scale) for v in (ab, ac, bc))
                    if ab > ac + bc:
                        out.append(_triangle_violation(x, y, z, dxy, dxz, dyz))
                    if ac > ab + bc:
                        out.append(_triangle_violation(x, z, y, dxz, dxy, dyz))
                    if bc > ab + ac:
                        out.append(_triangle_violation(y, z, x, dyz, dxy, dxz))


def _triangle_violation(a, b, via, far, leg1, leg2) -> Violation:
    return Violation(
        "triangle",
        (a, b, via),
        f"{format_rational(far)} > {format_rational(leg1)} + {format_rational(leg2)}",
    )


@dataclass(frozen=True)
class PartialIso:
    """The one map type: a finite injection given by aligned tuples,
    ``dom[i]`` sent to ``cod[i]``.  It names no spaces; a check against
    spaces (:func:`embedding_ok`, :func:`partial_iso_ok`) says whether it
    preserves identity, order and distance there.  A map that is not
    injective cannot be built."""

    dom: tuple[PointId, ...]
    cod: tuple[PointId, ...]

    def __post_init__(self) -> None:
        if len(self.dom) != len(self.cod):
            raise ValueError("dom and cod must have equal length")
        if len(set(self.dom)) != len(self.dom):
            raise ValueError("duplicate point in dom")
        if len(set(self.cod)) != len(self.cod):
            raise ValueError("duplicate point in cod")

    @cached_property
    def mapping(self) -> dict[PointId, PointId]:
        return dict(zip(self.dom, self.cod))

    def __call__(self, p: PointId) -> PointId:
        return self.mapping[p]

    def __len__(self) -> int:
        return len(self.dom)

    def inverse(self) -> "PartialIso":
        return PartialIso(self.cod, self.dom)

    def extended(self, x: PointId, y: PointId) -> "PartialIso":
        return PartialIso(self.dom + (x,), self.cod + (y,))


def _factors(x, y) -> tuple[int, int]:
    """Multipliers that put the row ints of ``x`` and ``y`` over one common
    denominator, the lcm of their scales: d_x == d_y exactly when
    row_x * fx == row_y * fy."""
    sx, sy = x._scale, y._scale
    if sx == sy:
        return 1, 1
    common = lcm(sx, sy)
    return common // sx, common // sy


def agrees(x, y, placed: Iterable[tuple[PointId, PointId]], p: PointId, q: PointId) -> bool:
    """True iff sending ``p`` (a point of ``x``) to ``q`` (a point of ``y``)
    agrees with every placed pair (p2, q2): p == p2 exactly when q == q2,
    p precedes p2 exactly when q precedes q2, and d(p, p2) == d(q, q2).

    Reads the positions (``_pos``) and the int rows by position
    (``_rows``, over ``_scale``) that spaces and limit builders share, so
    ``x`` and ``y`` may be either, and the same object for a map inside one
    space.
    Rows over different scales are compared by cross-multiplying.
    """
    here, *rest = locate(x, y, [(p, q), *placed])
    return agrees_located(x._rows, y._rows, *_factors(x, y), here, rest)


def locate(x, y, pairs: Iterable[tuple[PointId, PointId]]) -> list[tuple]:
    """Each pair (p, q) with what :func:`agrees_located` compares it by:
    (p, q, position of p, position of q); a position is also a row index."""
    xpos, ypos = x._pos, y._pos
    try:
        return [(p, q, xpos[p], ypos[q]) for p, q in pairs]
    except KeyError as exc:
        raise SpaceError(f"point {exc.args[0]} not in space") from None


def agrees_located(xrows, yrows, fx: int, fy: int, here: tuple, placed) -> bool:
    """:func:`agrees` on pairs from :func:`locate`, over the rows of x and
    y and the factors from :func:`_factors`."""
    p, q, xp, yq = here
    xrow, yrow = xrows[xp], yrows[yq]
    for p2, q2, xp2, yq2 in placed:
        if (p == p2) != (q == q2):
            return False
        if (xp < xp2) != (yq < yq2):
            return False
        if xrow[xp2] * fx != yrow[yq2] * fy:
            return False
    return True


def agreeing(rows, options, placed) -> list[tuple]:
    """The located candidates ``here`` of ``options`` that
    ``agrees_located(rows, rows, 1, 1, here, placed)`` accepts, in order:
    candidates for a map inside one table.  One row lookup first drops a
    candidate whose distance to the first placed image differs from its
    preimage's, which that call rejects anyway."""
    if placed:
        _, _, xp0, yq0 = placed[0]
        options = [here for here in options if rows[here[2]][xp0] == rows[here[3]][yq0]]
    return [here for here in options if agrees_located(rows, rows, 1, 1, here, placed)]


def preserves(x, y, pairs: Iterable[tuple[PointId, PointId]]) -> bool:
    """True iff the map given by ``pairs`` (a point of ``x``, its image in
    ``y``) preserves identity, order and distance: :func:`agrees` folded
    over the list, each pair against every later one."""
    pairs = locate(x, y, pairs)
    xrows, yrows, (fx, fy) = x._rows, y._rows, _factors(x, y)
    for i, here in enumerate(pairs):
        if not agrees_located(xrows, yrows, fx, fy, here, pairs[i + 1 :]):
            return False
    return True


def embedding_ok(x, y, emb: PartialIso) -> bool:
    """True iff the map is defined exactly on the points of ``x``, lands in
    ``y``, and preserves identity, distances and the structural order
    exactly: :func:`preserves` in ``x``'s point order."""
    mp = emb.mapping
    if mp.keys() != x._pos.keys():
        return False
    if any(q not in y for q in emb.cod):
        return False
    return preserves(x, y, ((p, mp[p]) for p in x.points))


def partial_iso_ok(space, iso: PartialIso) -> bool:
    """True iff the map lives inside the space and preserves distances and
    the structural order pairwise: :func:`preserves` in listing order."""
    for p in iso.dom + iso.cod:
        if p not in space:
            return False
    return preserves(space, space, zip(iso.dom, iso.cod))


def canonical_iso(x: FinSpace, y: FinSpace) -> Optional[PartialIso]:
    """The unique order-respecting bijection if it is distance-preserving.

    The total order admits only one candidate bijection (position i to
    position i); return it when it works, None otherwise.  A size mismatch
    yields None, not an error.
    """
    if len(x) != len(y) or not preserves(x, y, zip(x.points, y.points)):
        return None
    return PartialIso(x.points, y.points)


def enumerate_embeddings(x: FinSpace, y: FinSpace) -> Iterator[PartialIso]:
    """All embeddings of ``x`` into ``y``, each defined on ``x.points`` in
    order, in lexicographic order of the chosen target index tuples.

    Order preservation pins each embedding to a strictly increasing tuple of
    target positions, so the search walks positions left to right, smallest
    candidate first, checking distances against everything already placed.
    Both row sets are put over the lcm of the two scales once per call.
    """
    scale = lcm(x._scale, y._scale)
    return _embeddings(x, y, x._rows_over(scale), y._rows_over(scale))


def _embeddings(x, y, xrows, yrows) -> Iterator[PartialIso]:
    """The embeddings of ``x`` into ``y``, over rows on one scale.  An
    explicit stack walks the search: ``stack[d]`` iterates the target
    positions left for source point d and ``chosen[d]`` is the one taken,
    so no source size meets the recursion limit.  A module-level
    generator, so that no reference cycle keeps the rows alive after the
    search."""
    n, k = len(y), len(x)
    chosen, stack = [], []
    while True:
        depth = len(chosen)
        if depth == k:
            yield PartialIso(x.points, tuple(map(y.points.__getitem__, chosen)))
        else:
            start = chosen[-1] + 1 if chosen else 0
            candidates = range(start, n - (k - depth) + 1)
            for want, s in zip(xrows[depth], chosen):
                yrow = yrows[s]
                candidates = [t for t in candidates if yrow[t] == want]
            stack.append(iter(candidates))
        # the next candidate of the deepest level that has one left
        while stack and (t := next(stack[-1], None)) is None:
            stack.pop()
        if not stack:
            return
        del chosen[len(stack) - 1 :]
        chosen.append(t)


def diameter(space: FinSpace) -> Fraction:
    """Largest distance in the table, 0 for a singleton; an error when
    empty."""
    if len(space) == 0:
        raise SpaceError("diameter of the empty space is undefined")
    return Fraction(max(map(max, space._rows)), space._scale)


def ball_trace(space: FinSpace, center: PointId, radius: Fraction) -> frozenset[PointId]:
    """Open ball: points strictly closer than ``radius`` to ``center``."""
    if center not in space:
        raise SpaceError(f"center {center} not in space")
    if radius <= 0:
        raise SpaceError("ball radius must be positive")
    return frozenset(p for p in space.points if space.d(center, p) < radius)
