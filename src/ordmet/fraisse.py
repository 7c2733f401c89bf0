"""Exhaustive verification of the class properties (hereditary, joint
embedding, amalgamation) on a finite slice: all spaces up to a size bound
with distances drawn from a finite positive grid.

Spaces are enumerated as ordered distance matrices; the total order makes
every space rigid, so matrices over positions 0..k-1 enumerate the slice up
to canonical isomorphism with no duplicates.  Two engines produce the same
report:

* ``direct`` builds every space and embedding as real objects and decides
  every span by ``amalgamate``'s input checks.  The overlaps are the empty
  space (the JEP spans) and then every space (the AP spans); the
  embeddings of each overlap c into each space are enumerated once per c.
  Each side of a span, one embedding of c into one space, is checked by
  ``_side`` at its first use, the space validated with it, and its verdict
  kept for every later span over c, as a and as b.  Only a side can refuse
  a span (the glue of two passing sides is a metric by Katetov's lemma),
  so nothing is glued: every span gets ``amalgamate``'s verdict and
  message, e_a's side first, in its order.  Exact but slow; meant for
  small bounds and for cross-checking.
* ``vector`` rescales the grid to integers and checks the amalgam axioms
  with numpy.  For each span only the mixed triangle families can fail
  (the two sides are already valid and symmetry, identity, positivity of
  the glued table and the interleaved order hold by construction), so it
  checks those plus positivity and overlap-consistency of the cross block.
  JEP has no pass of its own: the empty-overlap cross block is the
  constant 1 + max(diam a, diam b), which breaks no triangle, so a pair
  fails exactly when a or b is invalid, as the HP pass decides.

The vector engine groups the AP spans by overlap matrix (their target)
and decides them from class facts, not span by span, in one pass per
overlap size.  A cross distance min_z a(p, z) + b(z, q) depends only on
a-point p's row g to the overlap and on b-extra point q's Katetov function
f on it, so positivity is a fact about (g, f), overlap agreement about
(overlap index, g, f), an a-triangle about (a-row, f) and a b-triangle
about (g, b-row).  The g and f classes are ranked per target, and every g
meets every f of its target in some span, so a target passes exactly when
every fact holds, in time linear in its rows.  The pass lays out every
target's cross distances in one padded table and checks the triangle
families once per (space size, overlap positions) block over all targets;
only the first failing target is spread back over its spans, to report the
first failing one in enumeration order.

Both engines enumerate the sizes in turn and add up each size's share of
the AP pass's class checks, estimated from its space count.  Every share
is nonnegative, so the first size at which the sum tops AP_BUDGET_CHECKS
refuses the slice with ValueError, before any larger size is enumerated
and before any pass runs.  Below the largest size, a size is refused
before it is enumerated when the sum tops the budget with the previous
size's count in its place: one more point at the top grid value from every
point keeps a valid matrix valid (d <= 2 top, top <= d + top), so no size
has fewer spaces than the one before, and the share grows with the count.

The vector engine works in one integer dtype, chosen once per grid: the
narrowest of int8/int16/int32/int64 that holds every intermediate value
(with top the largest scaled grid value: 5 top in the AP triangles, whose
cross distances reach 2 top, and 3 top in the enumeration).  The common
denominator enters no array, so it does not bound the grid.  A grid no
dtype holds is refused with ValueError.  Each triangle is tested as the
single predicate 2 max(d, x, y) <= d + x + y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .amalgam import AmalgamError, _side
from .rationals import format_rational
from .spaces import STORE_BUDGET_BYTES, FinSpace, enumerate_embeddings, validate


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

# Elements in the widest temporary of one chunk of the AP class checks.
CHUNK_ELEMENTS = 1 << 17

# Most class checks the AP pass may make, as estimated by _ap_work.  Size 5
# over {1,2,3} estimates 519,900,036 and checks in about 2-3 s end to end on
# a 2-vCPU x86 host; size 5 over {1,2,3,4} (13,745,879,064) is refused.
AP_BUDGET_CHECKS = 1 << 31


def _prepare_grid(grid: Iterable[Fraction]) -> tuple[tuple[Fraction, ...], int, np.ndarray]:
    """The sorted grid, its common denominator, and the scaled grid in the
    narrowest integer dtype that holds every intermediate value: triangle
    sums of the enumeration (3 top) and the AP triangles' d + x + y (5 top),
    top being the largest scaled value.  The denominator itself never
    enters an array: the JEP verdict is the HP pass's, with no arithmetic."""
    values = sorted(set(Fraction(q) for q in grid))
    if not values:
        raise ValueError("distance grid is empty")
    if any(q <= 0 for q in values):
        raise ValueError("distance grid contains a non-positive value")
    scale = math.lcm(*(q.denominator for q in values))
    ints = [int(q * scale) for q in values]
    bound = 5 * ints[-1]
    for dtype in _DTYPES:
        if bound <= np.iinfo(dtype).max:
            return tuple(values), scale, np.array(ints, dtype=dtype)
    raise ValueError(
        f"distance grid out of range: intermediate values reach {bound}"
        f" (5 * {ints[-1]}),"
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


def _check_candidate_bytes(size: int, grid: np.ndarray) -> None:
    """Refuse a size whose candidate matrices over ``grid`` would need more
    than ``spaces.STORE_BUDGET_BYTES`` to enumerate."""
    pairs = math.comb(size, 2)
    # the batch and its filtered copy, one sum entry and three mask bytes;
    # filling a column adds at most two count-entry temporaries, which
    # the filtered copy's share covers
    estimate = len(grid) ** pairs * (2 * size * size * grid.itemsize + grid.itemsize + 3)
    if estimate > STORE_BUDGET_BYTES:
        raise ValueError(
            f"slice too large: {len(grid)}^{pairs} candidate matrices at size {size}"
            f" need about {estimate} bytes, over the {STORE_BUDGET_BYTES}-byte budget"
        )


def _valid_matrices(size: int, int_grid: Sequence[int] | np.ndarray) -> np.ndarray:
    """All valid distance matrices of the given size, entries from the scaled
    grid in its dtype, in lexicographic order of the upper-triangle value
    tuples.  Refuses before allocating when the candidates would need more
    than ``spaces.STORE_BUDGET_BYTES``."""
    grid = np.asarray(int_grid)
    _check_candidate_bytes(size, grid)
    pairs = list(combinations(range(size), 2))
    count = len(grid) ** len(pairs)
    batch = np.zeros((count, size, size), dtype=grid.dtype)
    # row r holds the r-th value tuple: pair col's value changes every
    # len(grid)^(pairs - 1 - col) rows, the last pair's fastest (C order)
    for col, (i, j) in enumerate(pairs):
        column = np.repeat(np.tile(grid, len(grid) ** col), len(grid) ** (len(pairs) - 1 - col))
        batch[:, i, j] = batch[:, j, i] = column
    return batch[_triangle_mask(batch) & _positivity_mask(batch)]


def _matrix_space(matrix: np.ndarray, scale: int) -> FinSpace:
    return FinSpace._of_rows(range(matrix.shape[0]), matrix.tolist(), scale, {})


def _ap_work(ka: int, count: int, max_size: int, grid_len: int) -> int:
    """Upper bound on the class checks of the AP pass over the ``count``
    spaces of size ``ka`` in a slice up to ``max_size``.  Every pointed
    space (ka points, overlap of kc < max size points) contributes its rows
    times the f classes (at most grid^kc) times its a-pairs plus the
    min-plus terms of its g rows (ka * kc), and its rows times the g classes
    (at most (grid + 1)^kc, with the 0 of an overlap point) times its
    b-extra pairs.  The batched pass pads every target to the widest
    target's classes, which stay within the same bounds."""
    work = 0
    for kc in range(1, min(ka, max_size - 1) + 1):
        rows = math.comb(ka, kc) * count
        work += rows * grid_len**kc * (math.comb(ka, 2) + ka * kc)
        work += rows * (grid_len + 1) ** kc * math.comb(ka - kc, 2)
    return work


def _check_ap_budget(work: int, bound: str) -> None:
    if work > AP_BUDGET_CHECKS:
        raise ValueError(
            f"slice too large: the AP pass needs {bound} {work} class checks,"
            f" over the {AP_BUDGET_CHECKS}-check budget"
        )


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
    per_size, work, count = [], 0, 1  # count: spaces of size k - 1, one empty space
    for k in range(1, max_size + 1):
        if k < max_size:  # size k has at least as many spaces as size k - 1
            _check_candidate_bytes(k, int_grid)
            _check_ap_budget(work + _ap_work(k, count, max_size, len(grid_values)), "at least")
        per_size.append(_valid_matrices(k, int_grid))
        count = per_size[-1].shape[0]
        work += _ap_work(k, count, max_size, len(grid_values))
        _check_ap_budget(work, "about" if k == max_size else "at least")
    if engine == "vector":
        return _vector_engine(max_size, grid_values, per_size)
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

    # the empty overlap embeds once into every space: its spans are JEP's
    checked, ok = {"jep": 0, "ap": 0}, {"jep": True, "ap": True}
    for kind, c in [("jep", FinSpace((), {})), *(("ap", c) for c in spaces)]:
        into = [list(enumerate_embeddings(c, s)) for s in spaces]
        for failure in _span_failures(spaces, c, into):
            checked[kind] += 1
            if failure is not None and ok[kind]:
                ok[kind] = False
                counterexample = counterexample or f"{kind} {failure}"

    return FraisseReport(
        max_size,
        grid_values,
        tuple(counts),
        hp_checked,
        checked["jep"],
        checked["ap"],
        hp_ok,
        ok["jep"],
        ok["ap"],
        counterexample,
    )


def _span_failures(spaces, c, into) -> Iterator[Optional[str]]:
    """The ``AmalgamError`` message of each span (a, e_a, b, e_b) over ``c``,
    None for one ``amalgamate`` accepts, in enumeration order: a and b
    range over ``spaces`` and e_a, e_b over their lists in ``into``.

    A span is decided as ``amalgamate`` decides it, by ``_side`` on e_a and
    then on e_b; only a side can refuse it, so nothing is glued.  Each
    side, one embedding into one space, is checked at its first use and its
    verdict kept for every later span over c: one that passes is checked
    once, as a or as b; one that fails keeps its message, per tag, and
    every span that uses it fails with that message again."""
    passed = [[False] * len(embeddings) for embeddings in into]
    refused: dict[tuple[int, int, str], str] = {}

    def refusal(i: int, k: int, tag: str) -> Optional[str]:
        if not passed[i][k] and (i, k, tag) not in refused:
            try:
                _side(spaces[i], c, into[i][k], tag)
                passed[i][k] = True
            except AmalgamError as exc:
                refused[i, k, tag] = str(exc)
        return None if passed[i][k] else refused[i, k, tag]

    ends = [(i, k) for i, embeddings in enumerate(into) for k in range(len(embeddings))]
    for i, k in ends:
        for j, l in ends:
            yield refusal(i, k, "e_a") or refusal(j, l, "e_b")


# ---------------------------------------------------------------------------
# vector engine


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


def _vector_engine(max_size, grid_values, per_size) -> FraisseReport:
    counts = tuple(batch.shape[0] for batch in per_size)
    hp_checked, counterexample = _hp_pass(per_size)
    hp_ok = counterexample is None

    # JEP: a pair fails exactly when a or b is invalid (module docstring), so
    # all pass when the HP pass finds no invalid matrix, and (a, a) fails
    # when it finds one.
    jep_checked = sum(counts) ** 2
    jep_ok = hp_ok

    # AP: give each pointed space (space, overlap positions) the c row of its
    # induced overlap matrix, its target, ranked by its upper triangle with
    # the c batch in one _classes call (a one-point overlap's upper triangle
    # is empty: one class, c row 0); then decide every target of one overlap
    # size in one kernel call, each (ka, sel) block's rows sorted by
    # target.  At the largest size every target is one row, the overlap
    # itself, so the pass only counts its spans.
    ap_checked = len(per_size[-1])
    ap_ok = True
    for kc in range(1, max_size):
        c_batch = per_size[kc - 1]
        blocks = [(ka, sel) for ka in range(kc, max_size + 1) for sel in combinations(range(ka), kc)]
        first, second = _pair_indices(kc)
        induced = [
            per_size[ka - 1][:, np.take(sel, first), np.take(sel, second)] for ka, sel in blocks
        ]
        classes, (c_ids, *block_ids) = _classes([c_batch[:, first, second], *induced])
        c_row = np.full(len(classes), -1)
        c_row[c_ids] = np.arange(len(c_batch))
        batch = []
        for (ka, sel), ids in zip(blocks, block_ids):
            targets = c_row[ids]
            if (targets < 0).any():
                raise AssertionError(f"an overlap of size {kc} matches no space of that size")
            order = np.argsort(targets, kind="stable")
            batch.append((per_size[ka - 1][order], sel, targets[order]))
        # one span per ordered pair of a target's member rows
        sizes = np.bincount(np.concatenate([t for _, _, t in batch]))
        ap_checked += int(sizes @ sizes)
        if not ap_ok:
            continue
        failure = _ap_batch_failure(batch)
        if failure is not None:
            ap_ok = False
            target, i, j, u, v = failure
            (ka, sel_a), (kb, sel_b) = blocks[i], blocks[j]
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


def _ranks(values: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of distinct values of a 1-D int array and each value's
    rank among them, in int64.  A range no wider than the array is ranked
    by marking the values present, with no sort; a wider one by
    ``np.unique``."""
    if not values.size:
        return 0, np.zeros(0, dtype=np.int64)
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= values.size:
        distinct, inverse = np.unique(values, return_inverse=True)
        return len(distinct), inverse
    offset = np.subtract(values, lo, dtype=np.int64)
    present = np.zeros(hi - lo + 1, dtype=bool)
    present[offset] = True
    rank = np.cumsum(present) - 1
    return int(rank[-1]) + 1, rank[offset]


def _classes(
    parts: Sequence[np.ndarray], leads: Optional[Sequence[np.ndarray]] = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct vectors along the last axis of all parts, in
    lexicographic order, and per part the class index of each of its
    vectors, in its shape without that axis.  With ``leads`` (one int per
    entry of each part's first axis), a vector's class is that of its lead
    followed by the vector, ranked lead first; the returned classes omit
    the lead.

    Each vector gets one int64 key, built one coordinate at a time in mixed
    radix: the key times the coordinate's distinct value count plus the
    value's rank (``_ranks``).  Before a step whose keys could pass 2^62
    the keys are replaced by their own ranks, below the vector count, so a
    step stays below (vectors)^2, far inside int64.  Ranking the keys then
    ranks the classes.  Keys the g and f rows of ``_ap_batch_failure`` and,
    on the upper triangles of overlap matrices, the AP overlap groups."""
    width = parts[0].shape[-1]
    lengths = [math.prod(part.shape[:-1]) for part in parts]  # vectors per part, at any width
    vectors = np.concatenate([part.reshape(n, width) for part, n in zip(parts, lengths)])

    def columns():
        if leads is not None:
            each = [math.prod(part.shape[1:-1]) for part in parts]
            yield np.concatenate([np.repeat(lead, n) for lead, n in zip(leads, each)])
        yield from (vectors[:, z] for z in range(width))

    key, bound = np.zeros(vectors.shape[0], dtype=np.int64), 1  # every key is below bound
    for column in columns():
        count, rank = _ranks(column)
        if bound * count > 1 << 62:
            bound, key = _ranks(key)
        key *= count
        key += rank
        bound *= count
    count, inverse = _ranks(key)
    classes = np.empty((count, width), dtype=vectors.dtype)
    classes[inverse] = vectors
    ids, start = [], 0
    for part, n in zip(parts, lengths):
        ids.append(inverse[start : start + n].reshape(part.shape[:-1]))
        start += n
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


def _padded_chunks(own: np.ndarray, other: np.ndarray, per_cell: int):
    """Lay out a padded table: one row per class of one kind, given by its
    target (``own``, sorted), holding the classes of the other kind of the
    same target (``other``, sorted) in order, then padding.  Returns the
    width and an iterator of row chunks of at most CHUNK_ELEMENTS cells
    times ``per_cell``: the rows, each cell's class of the other kind (a
    valid filler index on padding) and which cells are real."""
    first = np.searchsorted(other, own, "left")
    count = np.searchsorted(other, own, "right") - first
    cells = np.arange(count.max(initial=0))
    chunk = max(1, CHUNK_ELEMENTS // max(1, len(cells) * per_cell))

    def chunks():
        for start in range(0, len(own), chunk):
            part = slice(start, start + chunk)
            index = np.minimum(first[part, None] + cells, len(other) - 1)
            yield part, index, cells < count[part, None]

    return len(cells), chunks()


def _ap_batch_failure(
    blocks: Sequence[tuple[np.ndarray, tuple[int, ...], np.ndarray]],
) -> Optional[tuple[int, int, int, int, int]]:
    """Decide every span of every overlap target of one overlap size from
    class facts; return the first failing span as (target, block a, block
    b, row a, row b), in that order of precedence, or None.

    Each block is a batch of distance matrices of one size, the positions
    ``sel`` of the overlap in them, and each row's target (the row of its
    overlap matrix), non-decreasing.  The members of a target are its rows
    in each block, in block order; row a and row b count within them.  A
    span joins a row of member a with a row of member b of one target: the
    amalgam keeps a's points and appends b's non-overlap (extra) points,
    with cross block X[p, q] = min_z a[p, z] + b[z, q] over overlap points
    z.  Only the mixed triangle families, positivity of X, and agreement of
    X with b on overlap rows need checking, and none of them reads a whole
    span: X[p, q] is the min-plus product of g, a-point p's row to the
    overlap, and f, b-extra point q's column from it (a Katetov function on
    the overlap).  So

    * positivity depends on (g, f);
    * overlap agreement on (overlap index z, g of the point at z, f);
    * each a-triangle on (a-row, f), each b-triangle on (g, b-row).

    The g and f classes are ranked per target, target first, so each
    target's classes are contiguous.  Every g of a target meets every f of
    it in some span, so a target with no failing fact passes, and the pass
    is linear in the rows.  X is laid out as one table padded to the
    widest target (g classes by f classes, and its transpose); padded cells
    stay out of positivity and agreement and hold the largest entry, which
    passes every triangle.  The triangle checks run once per block over
    every target's rows.  Only the first failing target is spread back
    over its member pairs, in order, to find its first failing span.  X
    stays within twice the largest entry and d + x + y within five times
    it, which the dtype ``_prepare_grid`` chose holds.
    """
    kc = len(blocks[0][1])
    extras = [[q for q in range(m.shape[1]) if q not in sel] for m, sel, _ in blocks]
    if not any(extras):
        return None  # every b is the overlap itself; each amalgam equals its a
    targets = [t for _, _, t in blocks]
    g_val, g_ids = _classes([m[:, :, sel] for m, sel, _ in blocks], targets)
    f_val, f_ids = _classes(
        [m[:, sel][:, :, extra].transpose(0, 2, 1) for (m, sel, _), extra in zip(blocks, extras)],
        targets,
    )
    g_at, f_at = np.empty(len(g_val), dtype=np.int64), np.empty(len(f_val), dtype=np.int64)
    for t, ids_g, ids_f in zip(targets, g_ids, f_ids):
        g_at[ids_g], f_at[ids_f] = t[:, None], t[:, None]
    f_val = f_val.T  # f_val[z]: every f class's coordinate z
    pad = max(m.max() for m, _, _ in blocks)

    # cross[g, j]: g with its target's j-th f class, and its transpose;
    # nonpositive[g] and disagree[g, z] over real cells only
    width, chunks = _padded_chunks(g_at, f_at, kc)
    cross = np.empty((len(g_at), width), dtype=g_val.dtype)
    nonpositive = np.zeros(len(g_at), dtype=bool)
    disagree = np.zeros((len(g_at), kc), dtype=bool)
    for part, cols, real in chunks:
        f_part = [f_val[z][cols] for z in range(kc)]
        x = g_val[part, None, 0] + f_part[0]
        for z in range(1, kc):
            np.minimum(x, g_val[part, None, z] + f_part[z], out=x)
        x[~real] = pad
        cross[part] = x
        nonpositive[part] = ((x <= 0) & real).any(axis=1)
        for z in range(kc):
            disagree[part, z] = ((x != f_part[z]) & real).any(axis=1)
    width, chunks = _padded_chunks(f_at, g_at, 1)
    cross_t = np.empty((len(f_at), width), dtype=g_val.dtype)
    f_local = np.arange(len(f_at)) - np.searchsorted(f_at, f_at, "left")
    for part, rows, real in chunks:
        cross_t[part] = np.where(real, cross[rows, f_local[part, None]], pad)

    a_bad, b_bad = [], []
    for (m, _, _), ids in zip(blocks, g_ids):
        pa, pa2 = _pair_indices(m.shape[1])
        a_bad.append(_triangle_failures(m[:, pa, pa2], ids[:, pa], ids[:, pa2], cross))
    for (m, _, _), extra, ids in zip(blocks, extras, f_ids):
        pb, pb2 = _pair_indices(len(extra))
        d_b = m[:, extra][:, :, extra][:, pb, pb2]
        b_bad.append(_triangle_failures(d_b, ids[:, pb], ids[:, pb2], cross_t))
    failing = [g_at[nonpositive]]
    for z in range(kc):
        at = np.concatenate([ids[:, sel[z]] for ids, (_, sel, _) in zip(g_ids, blocks)])
        failing.append(g_at[at[disagree[at, z]]])
    for t, bad_a, bad_b in zip(targets, a_bad, b_bad):
        failing += [t[bad_a.any(axis=1)], t[bad_b.any(axis=1)]]
    failing = np.concatenate(failing)
    if not failing.size:
        return None

    # Spread the first failing target back over its member pairs: per a-row,
    # the f classes it fails with (positivity, overlap agreement,
    # a-triangles); per b-row, the g classes (b-triangles).  A member
    # without extra points has no f ids, so it fails as no b.
    target = int(failing.min())
    g0, g1 = np.searchsorted(g_at, [target, target + 1])
    f0, f1 = np.searchsorted(f_at, [target, target + 1])
    x = cross[g0:g1, : f1 - f0]
    positive = x > 0
    agree = [x == f_val[z][f0:f1] for z in range(kc)]
    members = []
    for k, ((_, sel, t), ids_a, ids_b) in enumerate(zip(blocks, g_ids, f_ids)):
        lo, hi = np.searchsorted(t, [target, target + 1])
        if lo == hi:
            continue
        ids_a, ids_b = ids_a[lo:hi] - g0, ids_b[lo:hi] - f0
        bad_a = a_bad[k][lo:hi, : f1 - f0] | ~positive[ids_a].all(axis=1)
        for z, p in enumerate(sel):
            bad_a |= ~agree[z][ids_a[:, p]]
        members.append((k, ids_a, ids_b, bad_a, b_bad[k][lo:hi, : g1 - g0]))
    for i, ids_a, _, bad_a, _ in members:
        for j, _, ids_b, _, bad_b in members:
            n_b = ids_b.shape[0]
            chunk = max(1, CHUNK_ELEMENTS // (n_b * max(ids_a.shape[1], ids_b.shape[1])))
            for start in range(0, ids_a.shape[0], chunk):
                part = slice(start, start + chunk)
                fail = bad_a[part][:, ids_b].any(axis=2) | bad_b[:, ids_a[part]].any(axis=2).T
                hits = np.flatnonzero(fail)
                if hits.size:
                    u, v = divmod(int(hits[0]), n_b)
                    return target, i, j, start + u, v
    raise AssertionError("a class fact failed in no span")
