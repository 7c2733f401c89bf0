"""Exhaustive verification of the class properties (hereditary, joint
embedding, amalgamation) on a finite slice: all spaces up to a size bound
with distances drawn from a finite positive grid.

Spaces are enumerated as ordered distance matrices; the total order makes
every space rigid, so matrices over positions 0..k-1 enumerate the slice up
to canonical isomorphism with no duplicates.  Two engines produce the same
report:

* ``direct`` builds every span as real objects and routes it through
  ``amalgamate`` and ``validate``.  The embeddings of each overlap c into
  each space are enumerated once per c and reused for every span over c;
  each span is one ``amalgamate`` call, which checks both input embeddings
  and then the glued space, the commuting square and both output
  embeddings.  Exact but slow; meant for small bounds and for
  cross-checking.
* ``vector`` rescales the grid to integers and checks the amalgam axioms
  with numpy.  For each span only the mixed triangle families can fail
  (the two sides are already valid and symmetry, identity, positivity of
  the glued table and the interleaved order hold by construction), so it
  checks those plus positivity and overlap-consistency of the cross block.

The vector engine groups the AP spans by overlap matrix and decides each
group from class facts, not span by span.  A cross distance min_z a(p, z) +
b(z, q) depends only on a-point p's row g to the overlap and on b-extra
point q's Katetov function f on it, so positivity is a fact about (g, f),
overlap agreement about (overlap index, g, f), an a-triangle about (a-row,
f) and a b-triangle about (g, b-row).  Every g meets every f in some span of
the group, so the group passes exactly when every fact holds, in time
linear in its rows; only a failing group is spread back over its spans,
to report the first failing one in enumeration order.  The AP pass
estimates its class checks from the space counts and refuses over
AP_BUDGET_CHECKS with ValueError, before any pass runs.

The vector engine works in one integer dtype, chosen once per grid: the
narrowest of int8/int16/int32/int64 that holds every intermediate value
(with top the largest scaled grid value: 5 top in the AP triangles, whose
cross distances reach 2 top, twice the JEP constant, 3 top in the
enumeration).  A grid no dtype holds is refused with ValueError.  Each
triangle is tested as the single predicate 2 max(d, x, y) <= d + x + y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

import numpy as np

from .amalgam import AmalgamError, amalgamate
from .rationals import format_rational
from .spaces import Embedding, FinSpace, enumerate_embeddings, validate


@dataclass(frozen=True)
class FraisseReport:
    """Outcome of one slice check; verdicts refer only to the stated bounds."""

    max_size: int
    grid: tuple[Fraction, ...]
    space_counts: tuple[int, ...]  # index i -> number of valid spaces of size i+1
    hp_checked: int
    jep_checked: int
    ap_checked: int
    hp_ok: bool
    jep_ok: bool
    ap_ok: bool
    counterexample: Optional[str] = None

    @property
    def all_ok(self) -> bool:
        return self.hp_ok and self.jep_ok and self.ap_ok

    def lines(self) -> list[str]:
        out = [
            f"max-size {self.max_size}",
            "grid " + ",".join(format_rational(q) for q in self.grid),
        ]
        for i, count in enumerate(self.space_counts):
            out.append(f"spaces size {i + 1}: {count}")
        out.append(f"hp checked {self.hp_checked}: {'ok' if self.hp_ok else 'FAIL'}")
        out.append(f"jep checked {self.jep_checked}: {'ok' if self.jep_ok else 'FAIL'}")
        out.append(f"ap checked {self.ap_checked}: {'ok' if self.ap_ok else 'FAIL'}")
        if self.counterexample is not None:
            out.append(f"counterexample {self.counterexample}")
        out.append(f"verdict {'pass' if self.all_ok else 'fail'}")
        return out


# Candidate integer dtypes for the vector engine, narrowest first.
_DTYPES = (np.int8, np.int16, np.int32, np.int64)

# Peak bytes _valid_matrices may hold for one size.
ENUMERATION_BUDGET_BYTES = 1 << 30

# Elements in the widest temporary of one chunk of the JEP pass or of the
# AP class checks.
CHUNK_ELEMENTS = 1 << 17

# Most class checks the AP pass may make, as estimated by _ap_work.  Size 5
# over {1,2,3} estimates 519,900,036 and checks in about 4 s end to end on a
# 2-vCPU x86 host; size 5 over {1,2,3,4} (13,745,879,064) is refused.
AP_BUDGET_CHECKS = 1 << 31


def _prepare_grid(grid: Iterable[Fraction]) -> tuple[tuple[Fraction, ...], int, np.ndarray]:
    """The sorted grid, its common denominator, and the scaled grid in the
    narrowest integer dtype that holds every intermediate value: triangle
    sums of the enumeration (3 top), twice the JEP constant scale + diam,
    and the AP triangles' d + x + y (5 top), top being the largest scaled
    value.  NumPy casts a Python int operand into the array's dtype, so the
    bound covers scale as well."""
    values = sorted(set(Fraction(q) for q in grid))
    if not values:
        raise ValueError("distance grid is empty")
    if any(q <= 0 for q in values):
        raise ValueError("distance grid contains a non-positive value")
    scale = math.lcm(*(q.denominator for q in values))
    ints = [int(q * scale) for q in values]
    bound = max(5 * ints[-1], 2 * (scale + ints[-1]))
    for dtype in _DTYPES:
        if bound <= np.iinfo(dtype).max:
            return tuple(values), scale, np.array(ints, dtype=dtype)
    raise ValueError(
        f"distance grid out of range: intermediate values reach {bound}"
        f" (5 * {ints[-1]} or 2 * ({scale} + {ints[-1]})),"
        f" over the int64 bound {np.iinfo(np.int64).max}"
    )


def _triangle_mask(batch: np.ndarray) -> np.ndarray:
    """Rows whose symmetric matrix satisfies every triangle inequality."""
    n = batch.shape[1]
    ok = np.ones(batch.shape[0], dtype=bool)
    for i, j, k in combinations(range(n), 3):
        ok &= _triangle_ok(batch[:, i, j], batch[:, i, k], batch[:, j, k])
    return ok


def _positivity_mask(batch: np.ndarray) -> np.ndarray:
    ok = np.ones(batch.shape[0], dtype=bool)
    for i, j in permutations(range(batch.shape[1]), 2):
        ok &= batch[:, i, j] > 0
    return ok


def _valid_matrices(size: int, int_grid: Sequence[int] | np.ndarray) -> np.ndarray:
    """All valid distance matrices of the given size, entries from the scaled
    grid in its dtype, in lexicographic order of the upper-triangle value
    tuples.  Refuses before allocating when the candidates would need more
    than ENUMERATION_BUDGET_BYTES."""
    grid = np.asarray(int_grid)
    if size == 1:
        return np.zeros((1, 1, 1), dtype=grid.dtype)
    pairs = list(combinations(range(size), 2))
    count = len(grid) ** len(pairs)
    # the batch and its filtered copy, one sum entry and three mask bytes;
    # filling a column adds at most two count-entry temporaries, which
    # the filtered copy's share covers
    estimate = count * (2 * size * size * grid.itemsize + grid.itemsize + 3)
    if estimate > ENUMERATION_BUDGET_BYTES:
        raise ValueError(
            f"slice too large: {len(grid)}^{len(pairs)} candidate matrices at size {size}"
            f" need about {estimate} bytes, over the {ENUMERATION_BUDGET_BYTES}-byte budget"
        )
    batch = np.zeros((count, size, size), dtype=grid.dtype)
    # row r holds the r-th value tuple: pair col's value changes every
    # len(grid)^(pairs - 1 - col) rows, the last pair's fastest (C order)
    for col, (i, j) in enumerate(pairs):
        column = np.repeat(np.tile(grid, len(grid) ** col), len(grid) ** (len(pairs) - 1 - col))
        batch[:, i, j] = batch[:, j, i] = column
    return batch[_triangle_mask(batch) & _positivity_mask(batch)]


def _matrix_space(matrix: np.ndarray, scale: int) -> FinSpace:
    return FinSpace._of_rows(range(matrix.shape[0]), matrix.tolist(), scale, {})


def check_fraisse_properties(
    max_size: int,
    grid: Iterable[Fraction],
    engine: str = "vector",
) -> FraisseReport:
    """Enumerate every valid space up to ``max_size`` over ``grid`` and check:

    * HP: every induced subspace of every enumerated space is valid.
    * JEP: every ordered pair amalgamates over the empty overlap.
    * AP: every span c -> a, c -> b (c nonempty, both embeddings enumerated
      exhaustively) amalgamates into a valid space with commuting,
      structure-preserving embeddings overlapping exactly on c.

    The report records how many instances each verdict covers and the first
    counterexample in enumeration order, if any exists.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    grid_values, scale, int_grid = _prepare_grid(grid)
    per_size = [_valid_matrices(k, int_grid) for k in range(1, max_size + 1)]
    if engine == "vector":
        return _vector_engine(max_size, grid_values, scale, per_size)
    if engine == "direct":
        return _direct_engine(max_size, grid_values, scale, per_size)
    raise ValueError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# direct engine


def _direct_engine(max_size, grid_values, scale, per_size) -> FraisseReport:
    spaces: list[FinSpace] = []
    counts = []
    for batch in per_size:
        counts.append(batch.shape[0])
        for row in range(batch.shape[0]):
            spaces.append(_matrix_space(batch[row], scale))

    hp_checked = 0
    hp_ok = True
    counterexample = None
    for sp in spaces:
        for r in range(1, len(sp) + 1):
            for keep in combinations(sp.points, r):
                hp_checked += 1
                if not validate(sp.subspace(keep)).is_valid and hp_ok:
                    hp_ok = False
                    counterexample = f"hp size={len(sp)} subset={keep}"

    empty = FinSpace((), {})
    jep_checked = 0
    jep_ok = True
    for a in spaces:
        for b in spaces:
            jep_checked += 1
            try:
                _, f_a, f_b = amalgamate(
                    a, b, empty, Embedding(empty, a, {}), Embedding(empty, b, {})
                )
                if f_a.image() & f_b.image():
                    raise AmalgamError("joint embedding images overlap")
            except AmalgamError as exc:
                if jep_ok:
                    jep_ok = False
                    counterexample = counterexample or f"jep {exc}"

    ap_checked = 0
    ap_ok = True
    for c in spaces:
        into = [list(enumerate_embeddings(c, s)) for s in spaces]
        for a, embeddings_a in zip(spaces, into):
            for e_a in embeddings_a:
                for b, embeddings_b in zip(spaces, into):
                    for e_b in embeddings_b:
                        ap_checked += 1
                        try:
                            _, f_a, f_b = amalgamate(a, b, c, e_a, e_b)
                            shared = f_a.image() & f_b.image()
                            if shared != frozenset(f_a(e_a(z)) for z in c.points):
                                raise AmalgamError("images overlap beyond c")
                        except AmalgamError as exc:
                            if ap_ok:
                                ap_ok = False
                                counterexample = counterexample or f"ap {exc}"

    return FraisseReport(
        max_size,
        grid_values,
        tuple(counts),
        hp_checked,
        jep_checked,
        ap_checked,
        hp_ok,
        jep_ok,
        ap_ok,
        counterexample,
    )


# ---------------------------------------------------------------------------
# vector engine


def _ap_work(per_size: Sequence[np.ndarray], grid_len: int) -> int:
    """Upper bound on the class checks of the AP pass.  Every pointed space
    (ka points, overlap of kc < max size points) contributes its rows times
    the f classes (at most grid^kc) times its a-pairs plus the min-plus terms
    of its g rows (ka * kc), and its rows times the g classes (at most
    (grid + 1)^kc, with the 0 of an overlap point) times its b-extra pairs."""
    work = 0
    for kc in range(1, len(per_size)):
        f_classes, g_classes = grid_len**kc, (grid_len + 1) ** kc
        for ka in range(kc, len(per_size) + 1):
            rows = math.comb(ka, kc) * per_size[ka - 1].shape[0]
            work += rows * f_classes * (math.comb(ka, 2) + ka * kc)
            work += rows * g_classes * math.comb(ka - kc, 2)
    return work


def _hp_pass(per_size: Sequence[np.ndarray]) -> tuple[int, Optional[str]]:
    """HP over every nonempty position subset of every matrix: the number
    of (subset, matrix) checks and the first failure, as the report's
    counterexample, or None.  A subset's triangles and pairs are among its
    matrix's, so a size whose matrices all pass has no failing subset;
    otherwise the first failing subset is looked for among the failing
    matrices only."""
    checked, failure = 0, None
    for k, batch in enumerate(per_size, start=1):
        checked += batch.shape[0] * (2**k - 1)
        if failure is None:
            failing = np.flatnonzero(~(_triangle_mask(batch) & _positivity_mask(batch)))
            if failing.size:
                keep, row = _first_subset_failure(batch[failing])
                failure = f"hp size={k} subset={keep} matrix-row={int(failing[row])}"
    return checked, failure


def _first_subset_failure(batch: np.ndarray) -> tuple[tuple[int, ...], int]:
    """The first position subset, by size and then in ``combinations``
    order, on which some matrix breaks a triangle or positivity, and the
    first such matrix.  Each triangle and each ordered pair is tested once,
    and a subset fails with the triangles and pairs inside it."""
    k = batch.shape[1]
    triangles, pairs = list(combinations(range(k), 3)), list(permutations(range(k), 2))
    bad = np.stack(
        [~_triangle_ok(batch[:, i, j], batch[:, i, l], batch[:, j, l]) for i, j, l in triangles]
        + [batch[:, i, j] <= 0 for i, j in pairs],
        axis=1,
    )
    column = {fact: n for n, fact in enumerate(triangles + pairs)}
    for r in range(2, k + 1):  # a single point has no pair to fail
        for keep in combinations(range(k), r):
            inside = [*combinations(keep, 3), *permutations(keep, 2)]
            hits = np.flatnonzero(bad[:, [column[fact] for fact in inside]].any(axis=1))
            if hits.size:
                return keep, int(hits[0])
    raise AssertionError("a failing matrix fails on no position subset")


def _vector_engine(max_size, grid_values, scale, per_size) -> FraisseReport:
    work = _ap_work(per_size, len(grid_values))
    if work > AP_BUDGET_CHECKS:
        raise ValueError(
            f"slice too large: the AP pass needs about {work} class checks,"
            f" over the {AP_BUDGET_CHECKS}-check budget"
        )
    counts = tuple(batch.shape[0] for batch in per_size)
    hp_checked, counterexample = _hp_pass(per_size)
    hp_ok = counterexample is None

    # JEP: cross block is the constant 1 + max(diam a, diam b).  Mixed
    # triangles reduce to diam <= 2 * constant; everything else is inherited
    # or structural.  Rows of a are taken in chunks, so no temporary grows
    # with the square of a size's count.
    diams = [batch.max(axis=(1, 2)) for batch in per_size]
    jep_checked = 0
    jep_ok = True
    for da in diams:
        for db in diams:
            jep_checked += da.shape[0] * db.shape[0]
            chunk = max(1, CHUNK_ELEMENTS // db.shape[0])
            for start in range(0, da.shape[0] if jep_ok else 0, chunk):
                part = da[start : start + chunk, None]
                const = scale + np.maximum(part, db)
                ok = (const > 0) & (part <= 2 * const) & (db <= 2 * const)
                if not ok.all():
                    jep_ok = False
                    u, v = map(int, np.argwhere(~ok)[0])
                    counterexample = counterexample or f"jep rows=({start + u},{v})"
                    break

    # AP: group pointed spaces (space, overlap positions) by the c row of
    # their induced overlap matrix, ranked by its upper triangle with the c
    # batch in one _classes call, then decide every ordered pair inside a
    # group at once.  At the largest size every group is one row, the
    # overlap itself, so the pass only counts its spans.
    ap_checked = len(per_size[-1])
    ap_ok = True
    for kc in range(1, max_size):
        c_batch = per_size[kc - 1]
        blocks = [(ka, sel) for ka in range(kc, max_size + 1) for sel in combinations(range(ka), kc)]
        if kc == 1:  # no pair to rank: every overlap is the one point, c row 0
            c_row = np.zeros(1, dtype=np.int64)
            block_ids = [np.zeros(len(per_size[ka - 1]), dtype=np.int64) for ka, _ in blocks]
        else:
            first, second = _pair_indices(kc)
            induced = [
                per_size[ka - 1][:, np.take(sel, first), np.take(sel, second)] for ka, sel in blocks
            ]
            classes, (c_ids, *block_ids) = _classes([c_batch[:, first, second], *induced])
            c_row = np.full(len(classes), -1)
            c_row[c_ids] = np.arange(len(c_batch))
        groups: list[list[tuple[int, tuple[int, ...], np.ndarray]]] = [[] for _ in c_batch]
        for (ka, sel), ids in zip(blocks, block_ids):
            targets = c_row[ids]
            if (targets < 0).any():
                raise AssertionError(f"an overlap of size {kc} matches no space of that size")
            order = np.argsort(targets, kind="stable")
            for rows in np.split(order, np.flatnonzero(np.diff(targets[order])) + 1):
                groups[int(targets[rows[0]])].append((ka, sel, rows))
        for target, members in enumerate(groups):
            # one span per ordered pair of member rows
            ap_checked += sum(rows.shape[0] for _, _, rows in members) ** 2
            if not ap_ok:
                continue
            failure = _ap_batch_failure([(per_size[ka - 1][rows], sel) for ka, sel, rows in members])
            if failure is not None:
                ap_ok = False
                i, j, u, v = failure
                (ka, sel_a, _), (kb, sel_b, _) = members[i], members[j]
                counterexample = counterexample or (
                    f"ap c-size={kc} c-row={target} a=({ka},{sel_a},{u}) b=({kb},{sel_b},{v})"
                )

    return FraisseReport(
        max_size,
        grid_values,
        counts,
        hp_checked,
        jep_checked,
        ap_checked,
        hp_ok,
        jep_ok,
        ap_ok,
        counterexample,
    )


@functools.cache
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of every pair i < j below n."""
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


def _triangle_ok(d: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise, each of d, x, y is at most the sum of the other two:
    the three triangle inequalities fused into 2 max(d, x, y) <= d + x + y."""
    total = x + y
    total += d
    top = np.maximum(x, y)
    np.maximum(top, d, out=top)
    top += top
    return top <= total


def _classes(parts: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct vectors along the last axis of all parts, and per part
    the class index of each of its vectors, in its shape without that axis.

    Classes are ranked one coordinate at a time with 1-D ``np.unique``: the
    rank so far times the coordinate's value count plus its value rank
    stays below (vectors)^2, far inside int64.  Keys the g and f rows of
    ``_ap_batch_failure`` and, on the upper triangles of overlap matrices,
    the AP overlap groups."""
    width = parts[0].shape[-1]
    vectors = np.concatenate([part.reshape(-1, width) for part in parts])
    inverse = np.zeros(vectors.shape[0], dtype=np.int64)
    for z in range(width):
        values, rank = np.unique(vectors[:, z], return_inverse=True)
        keys, inverse = np.unique(inverse * len(values) + rank, return_inverse=True)
    classes = np.empty((len(keys), width), dtype=vectors.dtype)
    classes[inverse] = vectors
    ids, start = [], 0
    for part in parts:
        stop = start + part.size // width
        ids.append(inverse[start:stop].reshape(part.shape[:-1]))
        start = stop
    return classes, ids


def _triangle_failures(
    d: np.ndarray, first: np.ndarray, second: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Bool (rows, columns of ``table``): the row breaks a triangle at the
    column.  Row r holds pairs i with side d[r, i] whose ends have classes
    first[r, i] and second[r, i]; at column c the other two sides are
    table[first[r, i], c] and table[second[r, i], c]."""
    rows, pairs = first.shape
    bad = np.zeros((rows, table.shape[1]), dtype=bool)
    if pairs:
        chunk = max(1, CHUNK_ELEMENTS // (pairs * table.shape[1]))
        for start in range(0, rows, chunk):
            part = slice(start, start + chunk)
            ok = _triangle_ok(d[part, :, None], table[first[part]], table[second[part]])
            bad[part] = ~ok.all(axis=1)
    return bad


def _ap_batch_failure(
    members: Sequence[tuple[np.ndarray, tuple[int, ...]]],
) -> Optional[tuple[int, int, int, int]]:
    """Decide every span of one overlap target from class facts; return the
    first failing span as (member a, member b, row_a, row_b), in that
    order of precedence, or None.

    Each member is a batch of distance matrices of one size and the
    positions ``sel`` of the overlap in them.  A span joins a row of member
    a with a row of member b: the amalgam keeps a's points and appends b's
    non-overlap (extra) points, with cross block X[p, q] = min_z a[p, z] +
    b[z, q] over overlap points z.  Only the mixed triangle families,
    positivity of X, and agreement of X with b on overlap rows need
    checking, and none of them reads a whole span: X[p, q] is the min-plus
    product of g, a-point p's row to the overlap, and f, b-extra point q's
    column from it (a Katetov function on the overlap).  So

    * positivity depends on (g, f);
    * overlap agreement on (overlap index z, g of the point at z, f);
    * each a-triangle on (a-row, f), each b-triangle on (g, b-row).

    Every g meets every f in some span, so when no such fact fails every
    span passes, in time linear in the rows.  Otherwise the facts are
    spread back over the member pairs, in order, to find the first failing
    span.  X stays within twice the largest entry and d + x + y within five
    times it, which the dtype ``_prepare_grid`` chose holds.
    """
    kc = len(members[0][1])
    extras = [[q for q in range(m.shape[1]) if q not in sel] for m, sel in members]
    if not any(extras):
        return None  # every b is the overlap itself; each amalgam equals its a
    g_cls, g_ids = _classes([m[:, :, sel] for m, sel in members])
    f_cls, f_ids = _classes(
        [m[:, sel][:, :, extra].transpose(0, 2, 1) for (m, sel), extra in zip(members, extras)]
    )
    cross = g_cls[:, None, 0] + f_cls[None, :, 0]  # (g classes, f classes)
    for z in range(1, kc):
        np.minimum(cross, g_cls[:, None, z] + f_cls[None, :, z], out=cross)

    positive = cross > 0
    agree = [cross == f_cls[:, z] for z in range(kc)]
    at_overlap = [
        np.unique(np.concatenate([ids[:, sel[z]] for ids, (_, sel) in zip(g_ids, members)]))
        for z in range(kc)
    ]
    a_bad, b_bad = [], []
    for (m, _), ids in zip(members, g_ids):
        pa, pa2 = _pair_indices(m.shape[1])
        a_bad.append(_triangle_failures(m[:, pa, pa2], ids[:, pa], ids[:, pa2], cross))
    for (m, _), extra, ids in zip(members, extras, f_ids):
        pb, pb2 = _pair_indices(len(extra))
        d_b = m[:, extra][:, :, extra][:, pb, pb2]
        b_bad.append(_triangle_failures(d_b, ids[:, pb], ids[:, pb2], cross.T))
    if (
        positive.all()
        and all(agree[z][at].all() for z, at in enumerate(at_overlap))
        and not any(bad.any() for bad in a_bad + b_bad)
    ):
        return None

    # Some fact fails: per a-row, the f classes it fails with (positivity,
    # overlap agreement, a-triangles); per b-row, the g classes (b-triangles).
    # A member without extra points has no f ids, so it fails as no b.
    for (_, sel), ids, bad in zip(members, g_ids, a_bad):
        bad |= ~positive[ids].all(axis=1)
        for z, p in enumerate(sel):
            bad |= ~agree[z][ids[:, p]]
    for i, (ids_a, bad_a) in enumerate(zip(g_ids, a_bad)):
        for j, (ids_b, bad_b) in enumerate(zip(f_ids, b_bad)):
            n_b = ids_b.shape[0]
            chunk = max(1, CHUNK_ELEMENTS // (n_b * max(ids_a.shape[1], ids_b.shape[1])))
            for start in range(0, ids_a.shape[0], chunk):
                part = slice(start, start + chunk)
                fail = bad_a[part][:, ids_b].any(axis=2) | bad_b[:, ids_a[part]].any(axis=2).T
                hits = np.flatnonzero(fail)
                if hits.size:
                    u, v = divmod(int(hits[0]), n_b)
                    return i, j, start + u, v
    raise AssertionError("a class fact failed in no span")
