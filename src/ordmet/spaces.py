"""Finite totally ordered metric spaces with exact rational distances.

A space is a finite list of points carrying a strict total order (the list
order) and a symmetric, positive, triangle-satisfying distance table whose
values are Fractions.  Construction is permissive: a space may hold a broken
candidate table, and ``validate`` reports every violated axiom.  All values
are immutable after construction; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .rationals import format_rational, parse_rational

PointId = int


class SpaceError(ValueError):
    """Structural misuse: unknown points, empty-space diameter, and similar."""


class MissingDistanceError(SpaceError):
    """A required pair has no entry in the distance table."""


@dataclass(frozen=True, eq=False)
class FinSpace:
    """Finite ordered metric space.

    ``points`` lists point ids in increasing structural order.  ``entries``
    holds the distance table as given (directed keys are allowed so that
    asymmetric candidate tables can be represented and reported); lookups
    through :meth:`d` resolve either orientation.  Ids are opaque and carry
    no order meaning of their own.
    """

    points: tuple[PointId, ...]
    entries: Mapping[tuple[PointId, PointId], Fraction]
    names: Mapping[PointId, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        known = set(pts)
        table = {}
        for (p, q), value in self.entries.items():
            if p not in known or q not in known:
                raise SpaceError(f"distance entry ({p}, {q}) references unknown point")
            table[(p, q)] = value if type(value) is Fraction else Fraction(value)
        object.__setattr__(self, "entries", table)
        names = {p: str(self.names.get(p, f"p{p}")) for p in pts}
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_pos", {p: i for i, p in enumerate(pts)})

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PointId]:
        return iter(self.points)

    def __contains__(self, p: PointId) -> bool:
        return p in self._pos

    def position(self, p: PointId) -> int:
        """Index of ``p`` in the structural order."""
        try:
            return self._pos[p]
        except KeyError:
            raise SpaceError(f"point {p} not in space") from None

    def precedes(self, p: PointId, q: PointId) -> bool:
        return self.position(p) < self.position(q)

    def name(self, p: PointId) -> str:
        self.position(p)
        return self.names[p]

    def point_named(self, name: str) -> PointId:
        for p in self.points:
            if self.names[p] == name:
                return p
        raise SpaceError(f"no point named {name!r}")

    def has_pair(self, p: PointId, q: PointId) -> bool:
        return (p, q) in self.entries or (q, p) in self.entries

    def d(self, p: PointId, q: PointId) -> Fraction:
        """Distance between two points; 0 on the diagonal unless overridden."""
        if p not in self._pos or q not in self._pos:
            raise SpaceError(f"point {p if p not in self._pos else q} not in space")
        hit = self.entries.get((p, q))
        if hit is None:
            hit = self.entries.get((q, p))
        if hit is None:
            if p == q:
                return Fraction(0)
            raise MissingDistanceError(f"no distance recorded for pair ({p}, {q})")
        return hit

    def pairs(self) -> Iterator[tuple[PointId, PointId]]:
        """Unordered point pairs in lexicographic order of positions."""
        return combinations(self.points, 2)

    def subspace(self, keep: Iterable[PointId]) -> "FinSpace":
        """Induced space on ``keep``; order and distances are inherited."""
        kept = set(keep)
        for p in kept:
            self.position(p)
        pts = tuple(p for p in self.points if p in kept)
        entries = {
            (p, q): self.d(p, q) for p, q in combinations(pts, 2) if self.has_pair(p, q)
        }
        return FinSpace(pts, entries, {p: self.names[p] for p in pts})


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
    kind: str  # "order" | "missing" | "symmetry" | "identity" | "positivity" | "triangle"
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
    """Check every axiom and report each violation.

    Accepts raw candidate tables: missing entries, asymmetric entries and
    nonzero diagonal entries are reported rather than raised.  The report is
    a pure function of the space.
    """
    out: list[Violation] = []
    points, entries = space.points, space.entries
    seen: set[PointId] = set()
    for p in points:
        if p in seen:
            out.append(Violation("order", (p,), "point listed twice"))
        seen.add(p)

    for p in points:
        diag = entries.get((p, p))
        if diag is not None and diag != 0:
            out.append(Violation("identity", (p,), f"d(x,x) = {format_rational(diag)}"))

    # rows[i][j] (i < j) holds the resolved distance of the pair at list
    # positions i and j, None when the pair is missing; fewer than three
    # points have no triple to check.
    n = len(points)
    rows = [[None] * n for _ in range(n)] if n >= 3 else None
    scale = 1  # lcm of the resolved denominators
    for i, p in enumerate(points):
        for j in range(i + 1, n):
            q = points[j]
            fwd = entries.get((p, q))
            bwd = entries.get((q, p))
            if fwd is None and bwd is None:
                out.append(Violation("missing", (p, q), "no distance entry"))
                continue
            if fwd is not None and bwd is not None and fwd != bwd:
                out.append(
                    Violation(
                        "symmetry",
                        (p, q),
                        f"{format_rational(fwd)} != {format_rational(bwd)}",
                    )
                )
            value = fwd if fwd is not None else bwd
            if value.numerator <= 0:
                out.append(Violation("positivity", (p, q), f"d = {format_rational(value)}"))
            if rows is not None:
                rows[i][j] = value
                if scale % value.denominator:
                    scale = lcm(scale, value.denominator)

    if rows is not None:
        _triangle_pass(space, rows, scale, out)
    return ValidationReport(tuple(out))


def _triangle_pass(space: FinSpace, rows: list[list], scale: int, out: list[Violation]) -> None:
    """Append the triangle violations of the resolved table ``rows``.

    Every value is rescaled in place to an exact Python int (value * scale),
    which keeps sums and comparisons exact; triples with a missing pair are
    skipped.  Violations are built from the original Fractions, triples in
    ``combinations`` order, one report per failed side, the far pair first.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            value = row[j]
            if value is not None:
                row[j] = value.numerator * (scale // value.denominator)

    pts = space.points
    for a in range(n - 2):
        ra = rows[a]
        for b in range(a + 1, n - 1):
            ab = ra[b]
            if ab is None:
                continue
            rb = rows[b]
            for c in range(b + 1, n):
                ac, bc = ra[c], rb[c]
                if ac is None or bc is None:
                    continue
                if ab > ac + bc or ac > ab + bc or bc > ab + ac:
                    x, y, z = pts[a], pts[b], pts[c]
                    dxy, dxz, dyz = space.d(x, y), space.d(x, z), space.d(y, z)
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


@dataclass(frozen=True, eq=False)
class Embedding:
    """Order- and distance-preserving injection between spaces."""

    source: FinSpace
    target: FinSpace
    mapping: Mapping[PointId, PointId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))

    def __call__(self, p: PointId) -> PointId:
        return self.mapping[p]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self.mapping == other.mapping
        )

    def image(self) -> frozenset[PointId]:
        return frozenset(self.mapping.values())

    def index_tuple(self) -> tuple[int, ...]:
        """Target positions of the images, in source order."""
        return tuple(self.target.position(self.mapping[p]) for p in self.source.points)


def agrees(x, y, placed: Iterable[tuple[PointId, PointId]], p: PointId, q: PointId) -> bool:
    """True iff sending ``p`` (a point of ``x``) to ``q`` (a point of ``y``)
    agrees with every placed pair (p2, q2): p == p2 exactly when q == q2,
    p precedes p2 exactly when q precedes q2, and d(p, p2) == d(q, q2).

    Reads only ``position`` and ``d``, so ``x`` and ``y`` may be spaces or
    limit builders, and the same object for a map inside one space.  A
    distance is read only once identity and order hold for its pair, so on
    a table with a missing entry a pair broken in order is rejected and an
    unbroken one raises ``MissingDistanceError``.
    """
    xpos, ypos, xd, yd = x.position, y.position, x.d, y.d
    xp, yq = xpos(p), ypos(q)
    for p2, q2 in placed:
        if (p == p2) != (q == q2):
            return False
        if (xp < xpos(p2)) != (yq < ypos(q2)):
            return False
        dx, dy = xd(p, p2), yd(q, q2)
        if dx is not dy and dx != dy:  # `is` skips Fraction.__eq__ on cached values
            return False
    return True


def preserves(x, y, pairs: Iterable[tuple[PointId, PointId]]) -> bool:
    """True iff the map given by ``pairs`` (a point of ``x``, its image in
    ``y``) preserves identity, order and distance: :func:`agrees` folded
    over the list, each pair against every later one."""
    pairs = list(pairs)
    for i, (p, q) in enumerate(pairs):
        if not agrees(x, y, pairs[i + 1 :], p, q):
            return False
    return True


def embedding_ok(emb: Embedding) -> bool:
    """True iff the map is total on the source, injective, lands in the
    target, and preserves distances and the structural order exactly."""
    src, tgt, mp = emb.source, emb.target, emb.mapping
    if set(mp) != set(src.points):
        return False
    if len(set(mp.values())) != len(mp):
        return False
    if any(q not in tgt for q in mp.values()):
        return False
    return preserves(src, tgt, ((p, mp[p]) for p in src.points))


def canonical_iso(x: FinSpace, y: FinSpace) -> Optional[Embedding]:
    """The unique order-respecting bijection if it is distance-preserving.

    The total order admits only one candidate bijection (position i to
    position i); return it when it works, None otherwise.  A size mismatch
    yields None, not an error.
    """
    if len(x) != len(y):
        return None
    mapping = dict(zip(x.points, y.points))
    if not preserves(x, y, mapping.items()):
        return None
    return Embedding(x, y, mapping)


def enumerate_embeddings(x: FinSpace, y: FinSpace) -> Iterator[Embedding]:
    """All embeddings of ``x`` into ``y``, in lexicographic order of the
    chosen target index tuples.

    Order preservation pins each embedding to a strictly increasing tuple of
    target positions, so the search walks positions left to right, smallest
    candidate first, checking distances against everything already placed.
    """
    n, k = len(y), len(x)
    xs, ys = x.points, y.points
    chosen: list[int] = []

    def extend(depth: int) -> Iterator[Embedding]:
        if depth == k:
            yield Embedding(x, y, {xs[i]: ys[t] for i, t in enumerate(chosen)})
            return
        start = chosen[-1] + 1 if chosen else 0
        for t in range(start, n - (k - depth) + 1):
            if all(
                x.d(xs[i], xs[depth]) == y.d(ys[s], ys[t])
                for i, s in enumerate(chosen)
            ):
                chosen.append(t)
                yield from extend(depth + 1)
                chosen.pop()

    return extend(0)


def diameter(space: FinSpace) -> Fraction:
    """Largest pairwise distance; 0 for a singleton, an error when empty."""
    if len(space) == 0:
        raise SpaceError("diameter of the empty space is undefined")
    return max((space.d(p, q) for p, q in space.pairs()), default=Fraction(0))


def ball_trace(space: FinSpace, center: PointId, radius: Fraction) -> frozenset[PointId]:
    """Open ball: points strictly closer than ``radius`` to ``center``."""
    if center not in space:
        raise SpaceError(f"center {center} not in space")
    if radius <= 0:
        raise SpaceError("ball radius must be positive")
    return frozenset(p for p in space.points if space.d(center, p) < radius)
