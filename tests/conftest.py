from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional

import pytest
from hypothesis import strategies as st

import numpy as np

from ordmet import (
    AmalgamError,
    FinSpace,
    FuelExhaustedError,
    PartialIso,
    SpaceError,
    make_space,
)
from ordmet.amalgam import _fresh_name, shortest_path_column
from ordmet.fraisse import _pair_indices, _positivity_mask, _triangle_mask, _triangle_ok
from ordmet.limit import ExtensionTask
from ordmet.orbits import _fixed
from ordmet.rationals import format_rational
from ordmet.spaces import Violation, agrees_located, diameter, locate, preserves, scaled, validate
from ordmet.witness import (
    ExhaustReport,
    InadmissibleTraceError,
    InjectionReport,
    ShiftCheck,
    WitnessConfig,
    _indices,
    _shift_core,
)


def chain_space(k: int, top: int | None = None) -> FinSpace:
    """Chain a_0 .. a_top with d(a_i, a_j) = |i - j| / k (top defaults to 3k)."""
    top = 3 * k if top is None else top
    names = [f"a{i}" for i in range(top + 1)]
    dists = {
        (f"a{i}", f"a{j}"): Fraction(j - i, k)
        for i, j in combinations(range(top + 1), 2)
    }
    return make_space(names, dists)


def path_metric_space(size: int, weights: dict[tuple[int, int], Fraction]) -> FinSpace:
    """Valid space from arbitrary positive pair weights via shortest-path
    closure (Floyd-Warshall); the independent generator for random tests."""
    dist = {}
    for i, j in combinations(range(size), 2):
        dist[(i, j)] = dist[(j, i)] = Fraction(weights[(i, j)])
    for via in range(size):
        for i in range(size):
            for j in range(size):
                if i == j or via in (i, j):
                    continue
                through = dist[(i, via)] + dist[(via, j)]
                if through < dist[(i, j)]:
                    dist[(i, j)] = through
    entries = {(i, j): dist[(i, j)] for i, j in combinations(range(size), 2)}
    return FinSpace(tuple(range(size)), entries)


small_weights = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=4
)


@st.composite
def valid_spaces(draw, min_size=1, max_size=4):
    size = draw(st.integers(min_size, max_size))
    weights = {
        pair: draw(small_weights) for pair in combinations(range(size), 2)
    }
    return path_metric_space(size, weights)


def assert_complete_table(space) -> None:
    """The invariant of every space's rows, checked where rows are built
    without the constructor: one row per point, each holding one Python int
    per point, symmetric, 0 on the diagonal, over a positive int scale.
    ``validate`` reads only the upper triangle, so it cannot see a lower
    entry that disagrees."""
    rows, n = space._rows, len(space.points)
    assert type(space._scale) is int and space._scale > 0
    assert len(rows) == n and all(len(row) == n for row in rows)
    assert all(type(v) is int for row in rows for v in row)
    assert all(rows[i][i] == 0 for i in range(n))
    assert all(rows[i][j] == rows[j][i] for i, j in combinations(range(n), 2))


def reference_d(entries, p, q):
    """Slow oracle for ``FinSpace.d`` on the table ``entries`` as given: the
    (p, q) entry, else the (q, p) entry, else 0 on the diagonal; None when
    the pair is missing, a table the constructor refuses."""
    for key in ((p, q), (q, p)):
        if key in entries:
            return Fraction(entries[key])
    return Fraction(0) if p == q else None


def reference_violations(points, entries) -> tuple[Violation, ...]:
    """Slow oracle for ``FinSpace(points, entries)`` and its ``validate``:
    every axiom checked on the table as given, pair by pair and triple by
    triple in ``Fraction`` arithmetic, in the report order.  The
    constructor refuses a table reported "identity", "missing" or
    "symmetry"; ``validate`` of any other reports the rest."""
    out = []
    for p in points:
        diag = entries.get((p, p))
        if diag is not None and diag != 0:
            out.append(Violation("identity", (p,), f"d(x,x) = {format_rational(Fraction(diag))}"))

    resolvable = set()
    for p, q in combinations(points, 2):
        fwd = entries.get((p, q))
        bwd = entries.get((q, p))
        if fwd is None and bwd is None:
            out.append(Violation("missing", (p, q), "no distance entry"))
            continue
        if fwd is not None and bwd is not None and fwd != bwd:
            detail = f"{format_rational(Fraction(fwd))} != {format_rational(Fraction(bwd))}"
            out.append(Violation("symmetry", (p, q), detail))
        value = reference_d(entries, p, q)
        if value <= 0:
            out.append(Violation("positivity", (p, q), f"d = {format_rational(value)}"))
        resolvable.add((p, q))

    def triangle(a, b, via, far, leg1, leg2):
        detail = f"{format_rational(far)} > {format_rational(leg1)} + {format_rational(leg2)}"
        return Violation("triangle", (a, b, via), detail)

    for x, y, z in combinations(points, 3):
        if not ({(x, y), (x, z)} <= resolvable and (y, z) in resolvable):
            continue
        dxy, dxz, dyz = (reference_d(entries, *pair) for pair in ((x, y), (x, z), (y, z)))
        if dxy > dxz + dyz:
            out.append(triangle(x, y, z, dxy, dxz, dyz))
        if dxz > dxy + dyz:
            out.append(triangle(x, z, y, dxz, dxy, dyz))
        if dyz > dxy + dxz:
            out.append(triangle(y, z, x, dyz, dxy, dxz))
    return tuple(out)


def reference_feasibility(base: FinSpace, dvec):
    """Slow oracle for ``feasibility_violation``: every base pair in
    ``pairs()`` order in ``Fraction`` arithmetic, the first refusal with its
    reason, or None.  ``base.d`` raises on a missing pair when reached."""
    for p, q in base.pairs():
        dpq = base.d(p, q)
        if dpq > dvec[p] + dvec[q]:
            return (p, q), (
                f"pair ({base.name(p)}, {base.name(q)}): "
                f"{format_rational(dpq)} > {format_rational(dvec[p])} + {format_rational(dvec[q])}"
            )
        if abs(dvec[p] - dvec[q]) > dpq:
            return (p, q), (
                f"pair ({base.name(p)}, {base.name(q)}): "
                f"|{format_rational(dvec[p])} - {format_rational(dvec[q])}| > {format_rational(dpq)}"
            )
    return None


def reference_extend_one_point(base: FinSpace, ext) -> FinSpace:
    """Slow oracle for ``extend_one_point`` of a feasible extension: the
    base's entries and the new point's distances, rebuilt through the
    constructor, with the new point at ``ext.slot``."""
    new = max(base.points, default=-1) + 1
    pts = list(base.points)
    pts.insert(ext.slot, new)
    entries = dict(base.entries)
    for p in base.points:
        entries[(p, new)] = ext.dvec[p]
    names = dict(base.names)
    names[new] = _fresh_name(set(names.values()), f"p{new}")
    return FinSpace(tuple(pts), entries, names)


def reference_shortest_path_column(legs, size: int, filler):
    """Slow oracle for ``shortest_path_column``: every leg's sums built in
    full, then ``min`` over each point's sums (the first minimal value on
    a tie), or ``filler`` everywhere when there is no leg."""
    if not legs:
        return [filler] * size
    sums = [[leg + v for leg in row] for row, v in legs]
    return list(map(min, *sums)) if len(sums) > 1 else sums[0]


def reference_glued_order(a: FinSpace, b: FinSpace, c: FinSpace, e_a, e_b) -> list[int]:
    """Slow oracle for the order of ``amalgamate``'s glued space: b-only
    points take ids as ``amalgamate`` gives them (their own unless taken,
    else one past the largest id in use), are bucketed by the gap of b's
    overlap they sit in, and a's points are walked with each bucket put in
    front of the overlap point that closes it, the last bucket at the end."""
    image_b = {e_b(z) for z in c.points}
    b_extra = [q for q in b.points if q not in image_b]
    used, ids = set(a.points), {}
    for q in b_extra:
        ids[q] = q if q not in used else max(used) + 1
        used.add(ids[q])
    anchors_a = [e_a(z) for z in c.points]
    anchors_b = sorted(b.position(e_b(z)) for z in c.points)
    gaps_b = {i: [] for i in range(len(c) + 1)}
    for q in b_extra:
        gaps_b[bisect_left(anchors_b, b.position(q))].append(q)
    order, gap = [], 0
    for p in a.points:
        if gap < len(anchors_a) and p == anchors_a[gap]:
            order.extend(ids[q] for q in gaps_b[gap])
            gap += 1
        order.append(p)
    order.extend(ids[q] for q in gaps_b[len(c)])
    return order


def reference_amalgamate(
    a: FinSpace,
    b: FinSpace,
    c: FinSpace,
    e_a: PartialIso,
    e_b: PartialIso,
) -> tuple[FinSpace, PartialIso, PartialIso]:
    """``amalgamate`` as one function, the oracle for its split into
    ``_side`` and ``_glue``: the same checks in the same order, and the same
    glued space, maps, exceptions and messages."""
    map_a, map_b = e_a.mapping, e_b.mapping
    for mapping, tgt, tag in ((map_a, a, "e_a"), (map_b, b, "e_b")):
        if mapping.keys() != c._pos.keys():
            raise AmalgamError(f"{tag} is not defined exactly on the overlap space")
        if not all(q in tgt._pos for q in mapping.values()):
            raise AmalgamError(f"{tag} does not land in its target")
        if not preserves(c, tgt, ((z, mapping[z]) for z in c.points)):
            raise AmalgamError(f"{tag} does not preserve structure")

    image_b = {map_b[z]: z for z in c.points}
    b_extra = [q for q in b.points if q not in image_b]

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
    anchors_a = [map_a[z] for z in c.points]
    b_at = b._pos
    anchors_b = [b_at[map_b[z]] for z in c.points]
    closing = [a._pos[p] for p in anchors_a] + [len(a)]
    keyed = [((i, 1, 0), p) for i, p in enumerate(a.points)]
    keyed += [((closing[bisect_left(anchors_b, b_at[q])], 0, b_at[q]), ids[q]) for q in b_extra]
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
    for q1, q2 in combinations(b_extra, 2):
        i, j = at[ids[q1]], at[ids[q2]]
        rows[i][j] = rows[j][i] = b_rows[b.position(q1)][b.position(q2)]

    anchor_rows = [[a_rows[a.position(p)][a.position(za)] for p in a.points] for za in anchors_a]
    filler = 0
    if not anchors_a and len(a) and len(b):
        filler = scaled(1 + max(diameter(a), diameter(b)), scale)
    for q in b_extra:
        legs = [(row, b_rows[b.position(map_b[z])][b.position(q)]) for row, z in zip(anchor_rows, c.points)]
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

    names = dict(a.names)
    taken = set(names.values())
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
    f_a = PartialIso(a.points, a.points)
    f_b = PartialIso(b.points, tuple(ids[q] if q in ids else map_a[image_b[q]] for q in b.points))
    return glued, f_a, f_b


def reference_column(stage: FinSpace, dvec) -> dict[int, Fraction]:
    """Slow oracle for ``LimitBuilder.realize``: the new point's distance to
    every stage point in ``Fraction`` arithmetic.  Subset points keep their
    ``dvec`` entry; every other point gets the shortest path through the
    subset, re-checked against its triangle bounds; with an empty subset
    the new point sits at 1 + diameter from everything."""
    sub = [p for p in stage.points if p in dvec]
    outside = [p for p in stage.points if p not in dvec]
    filler = 1 + max((stage.d(p, q) for p, q in stage.pairs()), default=Fraction(0))
    column = {z: Fraction(dvec[z]) for z in sub}
    for r in outside:
        if not sub:
            column[r] = filler
            continue
        value = min(stage.d(r, z) + dvec[z] for z in sub)
        for z in sub:
            leg = stage.d(r, z)
            if not abs(leg - dvec[z]) <= value <= leg + dvec[z]:
                raise SpaceError(f"completed distance to {stage.name(r)} escapes its bound")
        column[r] = value
    return column


def _ascending_tuples(length: int, total: int):
    """Strictly increasing tuples of naturals with the exact sum, lex order."""

    def rec(prefix: list[int], start: int, left: int, budget: int):
        if left == 0:
            if budget == 0:
                yield tuple(prefix)
            return
        smallest = left * start + left * (left - 1) // 2
        if smallest > budget:
            return
        for v in range(start, budget + 1):
            prefix.append(v)
            yield from rec(prefix, v + 1, left - 1, budget - v)
            prefix.pop()

    yield from rec([], 0, length, total)


def _compositions(length: int, total: int):
    """Tuples of naturals of the given length with the exact sum."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(length - 1, total - head):
            yield (head,) + tail


def reference_tasks_of_weight(weight: int) -> list[ExtensionTask]:
    """Slow oracle for ``tasks_of_weight``: every (subset, distance
    indices, gap) with the weight, generated by subset size, index sum and
    gap, then sorted by subset size, subset, distance indices and gap."""
    found = []
    for size in range(weight + 1):
        budget = weight - size
        for id_sum in range(budget + 1):
            for subset in _ascending_tuples(size, id_sum):
                for gap in range(min(size, budget - id_sum) + 1):
                    for rvec in _compositions(size, budget - id_sum - gap):
                        found.append(ExtensionTask(subset, rvec, gap))
    found.sort(key=lambda t: (len(t.subset), t.subset, t.rational_indices, t.gap))
    return found


def reference_apply_auto(builder, iso, x, fuel: int):
    """Slow oracle for ``LimitBuilder.apply_auto``: the same alternation of
    forth and back steps over uncovered points in creation order, each one
    through the public ``back_and_forth_extend``, which checks the whole
    map before every step."""
    if x in iso.dom:
        return iso.mapping[x]
    current = iso
    for step in range(fuel):
        side = "forth" if step % 2 == 0 else "back"
        covered = current.dom if side == "forth" else current.cod
        missing = next(p for p in builder.created if p not in covered)
        current = builder.back_and_forth_extend(current, missing, side)
        if x in current.dom:
            return current.mapping[x]
    raise FuelExhaustedError(f"image of {builder.names[x]} not determined within {fuel} steps")


def reference_failures(x, y, pairs) -> set[str]:
    """The properties the map ``pairs`` (a point of x, its image in y)
    breaks, from the definition, over all ordered pairs of listed pairs:
    "identity" (p == p2 exactly when q == q2), and over pairs distinct on
    both sides "order" (p before p2 exactly when q before q2) and
    "distance" (d(p, p2) == d(q, q2)).  Each is checked on its own."""
    both = [(pq, pq2) for pq in pairs for pq2 in pairs]
    apart = [((p, q), (p2, q2)) for (p, q), (p2, q2) in both if p != p2 and q != q2]
    failed = set()
    if any((p == p2) != (q == q2) for (p, q), (p2, q2) in both):
        failed.add("identity")
    if any(
        (x.position(p) < x.position(p2)) != (y.position(q) < y.position(q2))
        for (p, q), (p2, q2) in apart
    ):
        failed.add("order")
    if any(x.d(p, p2) != y.d(q, q2) for (p, q), (p2, q2) in apart):
        failed.add("distance")
    return failed


def reference_preserves(x, y, pairs) -> bool:
    """Slow oracle for ``preserves``: the map breaks none of identity,
    order and distance."""
    return not reference_failures(x, y, list(pairs))


def reference_orbit_traces(stage, support, t) -> set[tuple]:
    """Oracle for ``orbit_traces`` on any space, invalid ones included: the
    search that locates the support and the placed prefix at every node and
    tests every candidate against all of them with ``agrees_located``."""
    fixed = _fixed(stage, support, t)
    options = [locate(stage, stage, [(p, c) for c in stage.points]) for p in t]
    found: set[tuple] = set()
    _reference_descend(stage, fixed, t, options, [], found)
    return found


def _reference_descend(stage, fixed, t, options, prefix: list, found: set) -> None:
    if len(prefix) == len(t):
        found.add(tuple(prefix))
        return
    placed = locate(stage, stage, fixed + list(zip(t, prefix)))
    for here in options[len(prefix)]:
        if agrees_located(stage._rows, stage._rows, 1, 1, here, placed):
            prefix.append(here[1])
            _reference_descend(stage, fixed, t, options, prefix, found)
            prefix.pop()


REFUSED_KINDS = ("asymmetric", "diagonal", "missing")


def broken_table(rng, kind: str) -> FinSpace:
    """A space of 3-6 points over distances {1, 2}, so that orbits are
    large, broken in one way: a zero distance between distinct points
    (kind "zero"), which ``validate`` reports, or one of
    ``REFUSED_KINDS``, which the constructor refuses: an asymmetric pair
    given both ways, a nonzero diagonal entry, or missing pairs."""
    size = rng.randint(3, 6)
    base = path_metric_space(size, {pair: rng.choice([1, 2]) for pair in combinations(range(size), 2)})
    entries = dict(base.entries)
    pairs = rng.sample(sorted(entries), rng.randint(1, 2))
    for p, q in pairs:
        if kind == "asymmetric":
            entries[(q, p)] = entries[(p, q)] + rng.choice([-Fraction(1, 2), 1])
        elif kind == "zero":
            entries[(p, q)] = Fraction(0)
        elif kind == "diagonal":
            entries[(p, p)] = Fraction(rng.choice([1, 2]))
        else:
            del entries[(p, q)]
    return FinSpace(range(size), entries)


def reference_span_failures(a, sel_a, b, sel_b) -> set[str]:
    """Slow oracle for one span of ``_ap_batch_failure``, in Python ints: the
    families of checks the amalgam of matrices a and b over the overlap
    positions sel_a / sel_b fails.  The cross block is X[p][q] = min over
    overlap index z of a[p][sel_a[z]] + b[sel_b[z]][q], for every a-point p
    and b-extra point q."""
    a = [[int(v) for v in row] for row in a]
    b = [[int(v) for v in row] for row in b]
    extra = [q for q in range(len(b)) if q not in sel_b]
    cross = [
        [min(a[p][za] + b[zb][q] for za, zb in zip(sel_a, sel_b)) for q in extra]
        for p in range(len(a))
    ]

    def broken(d, x, y):
        return not (d <= x + y and x <= d + y and y <= d + x)

    failed = set()
    if any(x <= 0 for row in cross for x in row):
        failed.add("positivity")
    if any(cross[za][i] != b[zb][q] for za, zb in zip(sel_a, sel_b) for i, q in enumerate(extra)):
        failed.add("overlap")
    for p, p2 in combinations(range(len(a)), 2):
        if any(broken(a[p][p2], cross[p][i], cross[p2][i]) for i in range(len(extra))):
            failed.add("a-triangle")
    for i, i2 in combinations(range(len(extra)), 2):
        d = b[extra[i]][extra[i2]]
        if any(broken(d, cross[p][i], cross[p][i2]) for p in range(len(a))):
            failed.add("b-triangle")
    return failed


def reference_ap_failure(da, sel_a, db, sel_b):
    """Slow oracle for one member pair of ``_ap_batch_failure``: every span
    (u, v) in order, the first failing one or None.  With no b-extra point
    the amalgam is a itself and nothing is checked."""
    if len(sel_b) == db.shape[1]:
        return None
    for u in range(da.shape[0]):
        for v in range(db.shape[0]):
            if reference_span_failures(da[u], sel_a, db[v], sel_b):
                return u, v
    return None


def span_ap_failure(
    da: np.ndarray,
    sel_a: tuple[int, ...],
    db: np.ndarray,
    sel_b: tuple[int, ...],
    chunk_elements: int = 1 << 17,
) -> Optional[tuple[int, int]]:
    """Fast oracle for one member pair of ``_ap_batch_failure``: the span
    kernel, which checks every amalgam of a row of ``da`` with a row of
    ``db`` in numpy and returns the first failing (row_a, row_b) or None.

    The cross block X[p, q] = min_z (a[p, z] + b[z, q]) over overlap points
    z is built for every span; positivity of X, agreement of X with b on
    overlap rows, and both mixed triangle families are checked on it.
    """
    ka = da.shape[1]
    extra = [q for q in range(db.shape[1]) if q not in sel_b]
    if not extra:
        return None  # b is the overlap itself; the amalgam equals a
    n_b, nbx, kc = db.shape[0], len(extra), len(sel_a)

    lhs = da[:, :, sel_a]  # (n_a, ka, kc): a-point to overlap
    rhs = db[:, sel_b][:, :, extra]  # (n_b, kc, nbx): overlap to b-extra
    pa, pa2 = _pair_indices(ka)
    pb, pb2 = _pair_indices(nbx)
    d_b = db[:, extra][:, :, extra][:, pb, pb2][None, :, None, :]  # (1, n_b, 1, pairs)
    overlap = list(sel_a)

    widest = n_b * max(ka * nbx, len(pa) * nbx, ka * len(pb))
    chunk = max(1, chunk_elements // widest)
    for start in range(0, da.shape[0], chunk):
        stop = min(da.shape[0], start + chunk)
        part = lhs[start:stop]
        cross = part[:, None, :, 0, None] + rhs[None, :, None, 0, :]  # (c, n_b, ka, nbx)
        for z in range(1, kc):
            np.minimum(cross, part[:, None, :, z, None] + rhs[None, :, None, z, :], out=cross)
        d_a = da[start:stop, pa, pa2][:, None, :, None]  # (c, 1, pairs, 1)
        checks = (
            cross > 0,
            cross[:, :, overlap, :] == rhs[None],
            _triangle_ok(d_a, cross[:, :, pa, :], cross[:, :, pa2, :]),
            _triangle_ok(d_b, cross[..., pb], cross[..., pb2]),
        )
        if all(ok.all() for ok in checks):
            continue
        ok = np.logical_and.reduce([check.all(axis=(2, 3)) for check in checks])
        u, v = map(int, np.argwhere(~ok)[0])
        return start + u, v
    return None


def reference_valid_matrices(size: int, grid: np.ndarray) -> np.ndarray:
    """Reference for ``_valid_matrices``: the candidates built with one numpy
    axis per pair, in C order, so row r holds the r-th value tuple, then
    filtered by the enumeration's own masks.  NumPy allows at most 64 axes,
    so this reaches size 10 only."""
    if size == 1:
        return np.zeros((1, 1, 1), dtype=grid.dtype)
    pairs = list(combinations(range(size), 2))
    batch = np.zeros((len(grid) ** len(pairs), size, size), dtype=grid.dtype)
    tuples = batch.reshape((len(grid),) * len(pairs) + (size, size))
    for col, (i, j) in enumerate(pairs):
        axis = [1] * len(pairs)
        axis[col] = len(grid)
        tuples[..., i, j] = tuples[..., j, i] = grid.reshape(axis)
    return batch[_triangle_mask(batch) & _positivity_mask(batch)]


def reference_target_failure(members, pair_failure=reference_ap_failure):
    """Oracle for ``_ap_batch_failure`` on one overlap target: every ordered
    member pair (i, j) in order, checked with ``pair_failure``; the first
    failing span as (i, j, row_a, row_b), or None."""
    for i, (da, sel_a) in enumerate(members):
        for j, (db, sel_b) in enumerate(members):
            failure = pair_failure(da, sel_a, db, sel_b)
            if failure is not None:
                return (i, j, *failure)
    return None


def batch_blocks(targets, ids=None):
    """Overlap targets, each a list of members (matrices, sel), as the
    blocks of one ``_ap_batch_failure`` call: members of one size and
    overlap positions share a block, blocks in order of first appearance,
    each block's rows sorted by target id (``ids``, default 0, 1, ...) and
    a target's rows kept in member order."""
    ids = range(len(targets)) if ids is None else ids
    pieces: dict[tuple, list] = {}
    for target, members in sorted(zip(ids, targets), key=lambda item: item[0]):
        for m, sel in members:
            pieces.setdefault((m.shape[1], sel), []).append((target, m))
    return [
        (
            np.concatenate([m for _, m in parts]),
            sel,
            np.concatenate([np.full(len(m), target) for target, m in parts]),
        )
        for (_, sel), parts in pieces.items()
    ]


def batch_members(blocks, target):
    """One target's members in a batch of blocks, in block order: (block
    index, its rows of the target, sel)."""
    return [(k, m[t == target], sel) for k, (m, sel, t) in enumerate(blocks) if (t == target).any()]


def reference_batch_failure(blocks, pair_failure=reference_ap_failure):
    """Oracle for ``_ap_batch_failure``: every target in increasing order,
    its members as ``batch_members`` gives them, checked with
    ``reference_target_failure``; the first failing span as (target, block
    a, block b, row a, row b), or None."""
    for target in np.unique(np.concatenate([t for _, _, t in blocks])).tolist():
        members = batch_members(blocks, target)
        failure = reference_target_failure([(rows, sel) for _, rows, sel in members], pair_failure)
        if failure is not None:
            i, j, u, v = failure
            return target, members[i][0], members[j][0], u, v
    return None


def reference_shift(config, members, low: int, shift: int):
    """Slow oracle for one shift of ``verify_injection``, index by index:
    chain index i of the image is UNKNOWN below the shift, IN when i - shift
    is a member and OUT otherwise.  Returns the IN indices, then (top_in,
    determinable, pattern, pattern_ok) from a scan of the window {k, ..,
    low + shift}.  A window index past the chain end is neither IN nor
    UNKNOWN."""
    top = 3 * config.k
    image = frozenset(i + shift for i in members if i + shift <= top)
    window = range(config.k, low + shift + 1)
    pattern = tuple(sorted(image.intersection(window)))
    determinable = all(map(shift.__le__, window))  # no window index below the shift
    return image, (top in image, determinable, pattern, pattern == (low + shift,))


def reference_distinct(images, low: int) -> bool:
    """Every pair of shifts j1 < j2 is separated at index low + j1: IN the
    first image and OUT of the second, that is neither IN nor UNKNOWN
    (below j2)."""
    return all(
        low + j1 in images[j1] and low + j1 >= j2 and low + j1 not in images[j2]
        for j1, j2 in combinations(range(len(images)), 2)
    )


def reference_admissible(config, members) -> bool:
    """Set-based oracle for ``admissible``: the trace holds the end and the
    whole tail and stays inside the window."""
    return 3 * config.k in members and set(config.tail) <= members <= set(config.window)


def reference_injection(config, trace) -> InjectionReport:
    """Slow oracle for ``verify_injection``: every shift scanned index by
    index with ``reference_shift``, with the same refusals."""
    members = frozenset(trace)
    for i in members:
        if not 0 <= i <= 3 * config.k:
            raise SpaceError(f"trace index {i} outside 0..{3 * config.k}")
    if not reference_admissible(config, members):
        raise InadmissibleTraceError(f"trace {sorted(members)} is not admissible")
    low = min(members)
    images, facts = zip(*(reference_shift(config, members, low, j) for j in range(config.n)))
    checks = tuple(
        ShiftCheck(j, top_in, determinable, pattern, ok)
        for j, (top_in, determinable, pattern, ok) in enumerate(facts)
    )
    distinct = reference_distinct(images, low)
    return InjectionReport(low, checks, distinct, distinct and all(c.ok for c in checks))


def reference_exhaust(config, verdict=None) -> ExhaustReport:
    """Slow oracle for ``exhaust_all_traces``: every superset of the tail
    inside the window as a frozenset, by subset size and then
    lexicographically.  ``verdict(members)`` replaces the injectivity
    verdict of ``reference_injection`` when given."""
    if verdict is None:
        def verdict(members):
            return reference_injection(config, members).injective
    free = [i for i in config.window if i not in config.tail]
    tail = frozenset(config.tail)
    checked = passed = 0
    first_failure = None
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            members = tail | frozenset(extra)
            checked += 1
            if verdict(members):
                passed += 1
            elif first_failure is None:
                first_failure = tuple(sorted(members))
    return ExhaustReport(checked, passed, first_failure)


def enumerated_exhaust(config: WitnessConfig) -> ExhaustReport:
    """Fast oracle for ``exhaust_all_traces``: every admissible trace built
    as a bitmask, by subset size and then lexicographically, and checked
    with ``_shift_core`` one by one; no budget."""
    free = range(2 * config.k, config.tail.start)
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


@pytest.fixture
def unit_pair() -> FinSpace:
    return make_space(["p", "q"], {("p", "q"): 1})


@pytest.fixture
def k1_chain() -> FinSpace:
    return chain_space(1)
