"""Exhaustive verification of the class properties (hereditary, joint
embedding, amalgamation) on a finite slice: all spaces up to a size bound
with distances drawn from a finite positive grid.

Spaces are enumerated as ordered distance matrices; the total order makes
every space rigid, so matrices over positions 0..k-1 enumerate the slice up
to canonical isomorphism with no duplicates.  Two engines produce the same
report:

* ``direct`` builds every span as real objects and routes it through
  ``amalgamate`` and ``validate``.  Exact but slow; meant for small bounds
  and for cross-checking.
* ``vector`` rescales the grid to integers and batch-checks the amalgam
  axioms with numpy.  For each span only the mixed triangle families can
  fail (the two sides are already valid and symmetry, identity, positivity
  of the glued table and the interleaved order hold by construction), so
  the batch checks those plus overlap-consistency of the cross block.

The vector engine works in one integer dtype, chosen once per grid: the
narrowest of int8/int16/int32/int64 that holds every intermediate value
(with top the largest scaled grid value: 5 top in the AP kernel, twice the
JEP constant, 3 top in the enumeration).  A grid no dtype holds is refused
with ValueError.  The AP kernel tests each triangle as the single predicate
2 max(d, x, y) <= d + x + y, over all a-pairs at once and over all b-extra
pairs at once, and returns the first failing span in (row_a, row_b) order.
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

# Elements in the widest temporary of one AP kernel chunk.
CHUNK_ELEMENTS = 1 << 17


def _prepare_grid(grid: Iterable[Fraction]) -> tuple[tuple[Fraction, ...], int, np.ndarray]:
    """The sorted grid, its common denominator, and the scaled grid in the
    narrowest integer dtype that holds every intermediate value: triangle
    sums of the enumeration (3 top), twice the JEP constant scale + diam,
    and the AP kernel's d + x + y (5 top), top being the largest scaled
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
    # the batch and its filtered copy, one sum entry and three mask bytes
    estimate = count * (2 * size * size * grid.itemsize + grid.itemsize + 3)
    if estimate > ENUMERATION_BUDGET_BYTES:
        raise ValueError(
            f"slice too large: {len(grid)}^{len(pairs)} candidate matrices at size {size}"
            f" need about {estimate} bytes, over the {ENUMERATION_BUDGET_BYTES}-byte budget"
        )
    batch = np.zeros((count, size, size), dtype=grid.dtype)
    # one axis per pair, in C order: row r holds the r-th value tuple
    tuples = batch.reshape((len(grid),) * len(pairs) + (size, size))
    for col, (i, j) in enumerate(pairs):
        axis = [1] * len(pairs)
        axis[col] = len(grid)
        tuples[..., i, j] = tuples[..., j, i] = grid.reshape(axis)
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
        for a in spaces:
            for e_a in enumerate_embeddings(c, a):
                for b in spaces:
                    for e_b in enumerate_embeddings(c, b):
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


def _vector_engine(max_size, grid_values, scale, per_size) -> FraisseReport:
    counts = tuple(batch.shape[0] for batch in per_size)
    counterexample = None

    # HP over every nonempty position subset of every space.
    hp_checked = 0
    hp_ok = True
    for k, batch in zip(range(1, max_size + 1), per_size):
        for r in range(1, k + 1):
            for keep in combinations(range(k), r):
                sub = batch[:, keep][:, :, keep]
                hp_checked += batch.shape[0]
                ok = _triangle_mask(sub) & _positivity_mask(sub)
                if not ok.all() and hp_ok:
                    hp_ok = False
                    row = int(np.flatnonzero(~ok)[0])
                    counterexample = f"hp size={k} subset={keep} matrix-row={row}"

    # JEP: cross block is the constant 1 + max(diam a, diam b).  Mixed
    # triangles reduce to diam <= 2 * constant; everything else is inherited
    # or structural.
    diams = [batch.max(axis=(1, 2)) for batch in per_size]
    jep_checked = 0
    jep_ok = True
    for da in diams:
        for db in diams:
            jep_checked += da.shape[0] * db.shape[0]
            const = scale + np.maximum.outer(da, db)
            ok = (const > 0) & (da[:, None] <= 2 * const) & (db[None, :] <= 2 * const)
            if not ok.all() and jep_ok:
                jep_ok = False
                u, v = map(int, np.argwhere(~ok)[0])
                counterexample = counterexample or f"jep rows=({u},{v})"

    # AP: group pointed spaces (space, overlap positions) by the induced
    # overlap matrix, then batch-check every ordered pair inside a group.
    ap_checked = 0
    ap_ok = True
    for kc in range(1, max_size + 1):
        c_batch = per_size[kc - 1]
        c_index = {c_batch[row].tobytes(): row for row in range(c_batch.shape[0])}
        groups: dict[int, list[tuple[int, tuple[int, ...], np.ndarray]]] = {
            row: [] for row in range(c_batch.shape[0])
        }
        for ka in range(kc, max_size + 1):
            batch = per_size[ka - 1]
            for sel in combinations(range(ka), kc):
                induced = batch[:, sel][:, :, sel]
                rows_by_c: dict[int, list[int]] = {}
                for row in range(induced.shape[0]):
                    target = c_index[induced[row].tobytes()]
                    rows_by_c.setdefault(target, []).append(row)
                for target, rows in rows_by_c.items():
                    groups[target].append((ka, sel, np.asarray(rows)))
        for target in range(c_batch.shape[0]):
            members = groups[target]
            for ka, sel_a, rows_a in members:
                da = per_size[ka - 1][rows_a]
                for kb, sel_b, rows_b in members:
                    db = per_size[kb - 1][rows_b]
                    spans = rows_a.shape[0] * rows_b.shape[0]
                    ap_checked += spans
                    failure = _ap_batch_failure(da, sel_a, db, sel_b)
                    if failure is not None and ap_ok:
                        ap_ok = False
                        u, v = failure
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


def _ap_batch_failure(
    da: np.ndarray,
    sel_a: tuple[int, ...],
    db: np.ndarray,
    sel_b: tuple[int, ...],
) -> Optional[tuple[int, int]]:
    """Check every amalgam of a row of ``da`` with a row of ``db`` over the
    shared overlap matrix; return the first failing (row_a, row_b) or None.

    The amalgam keeps a's points and appends b's non-overlap points; its
    cross block is X[p, q] = min_z (a[p, z] + b[z, q]) over overlap points
    z.  Only the mixed triangle families, positivity of X, and agreement of
    X with b on overlap rows need checking.  Both arrays share the dtype
    ``_prepare_grid`` chose, which holds d + x + y for entries up to the
    largest grid value.
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
    chunk = max(1, CHUNK_ELEMENTS // widest)
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
