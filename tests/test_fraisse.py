import functools
import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_complete_table,
    batch_blocks,
    batch_members,
    reference_amalgamate,
    reference_batch_failure,
    reference_span_failures,
    reference_target_failure,
    reference_valid_matrices,
    span_ap_failure,
)
from ordmet import PartialIso, enumerate_embeddings, fraisse, make_space
from ordmet.amalgam import AmalgamError
from ordmet.cli import run
from ordmet.fraisse import (
    _ap_batch_failure,
    _ap_work,
    _classes,
    _hp_pass,
    _positivity_mask,
    _prepare_grid,
    _triangle_mask,
    _valid_matrices,
    check_fraisse_properties,
)

DTYPES = (np.int8, np.int16, np.int32, np.int64)
INT64_TOP = (2**63 - 1) // 5  # largest scaled grid value the int64 kernel holds


def count_valid_by_brute_force(size, grid):
    """Independent counting oracle: filter the raw product by the triangle
    condition directly."""
    pairs = list(combinations(range(size), 2))
    count = 0
    for values in product(grid, repeat=len(pairs)):
        table = {}
        for (i, j), v in zip(pairs, values):
            table[(i, j)] = table[(j, i)] = v
        if all(
            table[(i, j)] <= table[(i, k)] + table[(k, j)]
            and table[(i, k)] <= table[(i, j)] + table[(j, k)]
            and table[(j, k)] <= table[(j, i)] + table[(i, k)]
            for i, j, k in combinations(range(size), 3)
        ):
            count += 1
    return count


@pytest.mark.parametrize(
    "max_size, grid, expected_counts",
    [
        (3, [1], (1, 1, 1)),
        (3, [1, 2], (1, 2, 8)),
        (4, [1, 2], (1, 2, 8, 64)),
        (4, [1, 2, 3], (1, 3, 24, 482)),
        (3, [Fraction(1, 2), 1, 2], (1, 3, 18)),
    ],
)
def test_space_counts(max_size, grid, expected_counts):
    grid = [Fraction(v) for v in grid]
    report = check_fraisse_properties(max_size, grid)
    assert report.space_counts == expected_counts
    ints = [int(q * 2) for q in grid] if any(q.denominator > 1 for q in grid) else [
        int(q) for q in grid
    ]
    for size, expected in enumerate(expected_counts, start=1):
        assert count_valid_by_brute_force(size, ints) == expected


@pytest.mark.parametrize(
    "max_size, grid, expected_ap",
    [
        (3, [1], 53),  # hand-computed span count
        (2, [1, 3], 27),  # hand-computed span count
        (3, [1, 2], 1187),
    ],
)
def test_engines_agree(max_size, grid, expected_ap):
    grid = [Fraction(v) for v in grid]
    direct = check_fraisse_properties(max_size, grid, engine="direct")
    vector = check_fraisse_properties(max_size, grid, engine="vector")
    assert direct == vector
    assert direct.ap_checked == expected_ap
    assert direct.all_ok


def test_two_point_slice_reports_counts():
    report = check_fraisse_properties(2, [Fraction(1), Fraction(3)])
    assert report.space_counts == (1, 2)
    assert report.hp_checked == 1 * 1 + 2 * 3  # subsets of sizes 1 and 2
    assert report.jep_checked == 9
    assert report.ap_checked == 27
    assert report.all_ok
    assert report.counterexample is None


def test_report_lines_are_stable():
    report = check_fraisse_properties(2, [Fraction(1)])
    assert report.lines() == [
        "max-size 2",
        "grid 1/1",
        "spaces size 1: 1",
        "spaces size 2: 1",
        "hp checked 4: ok",
        "jep checked 4: ok",
        "ap checked 10: ok",
        "verdict pass",
    ]


def test_input_validation():
    with pytest.raises(ValueError):
        check_fraisse_properties(1, [Fraction(1)])
    with pytest.raises(ValueError):
        check_fraisse_properties(3, [])
    with pytest.raises(ValueError):
        check_fraisse_properties(3, [Fraction(0)])
    with pytest.raises(ValueError):
        check_fraisse_properties(3, [Fraction(-1, 2)])
    with pytest.raises(ValueError):
        check_fraisse_properties(3, [Fraction(1)], engine="quantum")


def test_triangle_mask_catches_violations():
    good = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int64)
    bad = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=np.int64)
    mask = _triangle_mask(np.stack([good, bad]))
    assert mask.tolist() == [True, False]


def test_positivity_mask_reads_every_off_diagonal_entry():
    good = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int8)
    batch = np.stack([good] * 4)
    batch[1, 0, 2] = 0
    batch[2, 2, 1] = 0
    batch[3, 1, 0] = -1
    assert _positivity_mask(batch).tolist() == [True, False, False, False]
    assert _valid_matrices(3, [0, 1]).tolist() == [[[0, 1, 1], [1, 0, 1], [1, 1, 0]]]


def test_valid_matrices_filters():
    batch = _valid_matrices(3, [1, 3])
    assert batch.shape[0] == 5  # 8 candidates minus the 3 arrangements of (1,1,3)
    assert batch.shape[0] == count_valid_by_brute_force(3, [1, 3])


def test_enumeration_guard():
    with pytest.raises(ValueError, match="too large"):
        check_fraisse_properties(7, [Fraction(i) for i in range(1, 7)])


def test_valid_matrices_in_lexicographic_order():
    for size in (3, 4):
        batch = _valid_matrices(size, [1, 2, 3])
        pairs = list(combinations(range(size), 2))
        got = [tuple(int(m[i, j]) for i, j in pairs) for m in batch]
        expected = []
        for values in product([1, 2, 3], repeat=len(pairs)):
            table = dict(zip(pairs, values))
            if all(
                table[(i, j)] <= table[(i, k)] + table[(j, k)]
                and table[(i, k)] <= table[(i, j)] + table[(j, k)]
                and table[(j, k)] <= table[(i, j)] + table[(i, k)]
                for i, j, k in combinations(range(size), 3)
            ):
                expected.append(values)
        assert got == expected
        assert (batch == batch.transpose(0, 2, 1)).all()


def test_valid_matrices_keep_the_grid_dtype():
    for dtype in DTYPES:
        grid = np.array([1, 2, 3], dtype=dtype)
        for size in (1, 2, 3):
            batch = _valid_matrices(size, grid)
            assert batch.dtype == dtype
            for matrix in batch:
                assert_complete_table(fraisse._matrix_space(matrix, 3))


@pytest.mark.parametrize("grid", [[1], [1, 2], [1, 2, 3], [2, 3, 5], [1, 2, 3, 4]])
def test_valid_matrices_match_one_axis_per_pair(grid):
    int_grid = np.array(grid, dtype=np.int8)
    for size in range(1, 6):
        got, expected = _valid_matrices(size, int_grid), reference_valid_matrices(size, int_grid)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


# -- integer dtype and range guard ----------------------------------------------


@pytest.mark.parametrize("index", range(len(DTYPES)))
def test_grid_dtype_is_the_narrowest_that_holds_five_times_top(index):
    top = int(np.iinfo(DTYPES[index]).max) // 5
    assert _prepare_grid([Fraction(1), Fraction(top)])[2].dtype == DTYPES[index]
    if index + 1 < len(DTYPES):
        assert _prepare_grid([Fraction(top + 1)])[2].dtype == DTYPES[index + 1]


def test_grid_dtype_ignores_the_common_denominator():
    # the denominator enters no array: 1/63 and 2^-62 both scale to [1]
    for q in (Fraction(1, 63), Fraction(1, 2**62)):
        _, scale, ints = _prepare_grid([q])
        assert (scale, ints.tolist(), ints.dtype) == (q.denominator, [1], np.int8)
    _, scale, ints = _prepare_grid([Fraction(1, 2), Fraction(1, 3)])
    assert (scale, ints.tolist(), ints.dtype) == (6, [2, 3], np.int8)


def test_fraisse_check_over_grid_2_to_the_minus_62_reports_like_grid_1(capsys):
    """The denominator 2^62 enters no array, so grid 2^-62 scales to [1] in
    int8 and both engines report grid 1's lines but for the grid line."""
    assert run(["fraisse-check", "--max-size", "3", "--grid", "1"]) == 0
    unit = capsys.readouterr().out.splitlines()
    assert run(["fraisse-check", "--max-size", "3", "--grid", "1/4611686018427387904"]) == 0
    tiny = capsys.readouterr().out.splitlines()
    assert tiny[1] == "grid 1/4611686018427387904"
    assert tiny[:1] + tiny[2:] == unit[:1] + unit[2:]
    direct = check_fraisse_properties(3, [Fraction(1, 2**62)], engine="direct").lines()
    assert direct == tiny


@pytest.mark.parametrize(
    "grid, bound",
    [
        ([2**62, 2**63 - 1], 5 * (2**63 - 1)),
        ([Fraction(1, 2**64), 1], 5 * 2**64),
        ([INT64_TOP, INT64_TOP + 1], 5 * (INT64_TOP + 1)),
    ],
)
def test_grid_past_int64_is_refused(grid, bound):
    with pytest.raises(ValueError, match=f"reach {bound} .*int64 bound {2**63 - 1}"):
        check_fraisse_properties(3, [Fraction(q) for q in grid])


def test_grid_just_below_the_int64_bound_passes():
    report = check_fraisse_properties(3, [Fraction(INT64_TOP - 1), Fraction(INT64_TOP)])
    assert _prepare_grid(report.grid)[2].dtype == np.int64
    assert report.space_counts == (1, 2, 8)
    assert report.all_ok


@pytest.mark.parametrize(
    "grid",
    ["4611686018427387904,9223372036854775807", "1/18446744073709551616,1"],
)
def test_fraisse_check_refuses_grid_past_int64(grid, capsys):
    assert run(["fraisse-check", "--max-size", "3", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: distance grid out of range: intermediate values reach ")
    assert f"over the int64 bound {2**63 - 1}" in captured.err


def test_fraisse_check_just_below_the_int64_bound(capsys):
    grid = f"{INT64_TOP - 1},{INT64_TOP}"
    assert run(["fraisse-check", "--max-size", "3", "--grid", grid]) == 0
    assert capsys.readouterr().out.endswith(
        "spaces size 3: 8\nhp checked 63: ok\njep checked 121: ok\nap checked 1187: ok\n"
        "verdict pass\n"
    )


def test_enumeration_guard_estimates_bytes_at_the_grid_dtype(monkeypatch):
    # 3^6 candidates at size 4: batch and filtered copy (2 * 16 entries),
    # one sum entry and 3 mask bytes each
    int8 = np.array([1, 2, 3], dtype=np.int8)
    monkeypatch.setattr(fraisse, "STORE_BUDGET_BYTES", 729 * (2 * 16 + 1 + 3))
    assert _valid_matrices(4, int8).shape[0] == 482
    with pytest.raises(ValueError, match=r"too large: 3\^6 .* about 194643 bytes"):
        _valid_matrices(4, int8.astype(np.int64))
    monkeypatch.setattr(fraisse, "STORE_BUDGET_BYTES", 729 * (2 * 16 + 1 + 3) - 1)
    with pytest.raises(ValueError, match="too large"):
        _valid_matrices(4, int8)


def test_fraisse_check_refuses_oversized_slice(capsys):
    # 3^15 candidates at 76 bytes each in int8; at int64 this was 7.6 GB
    assert run(["fraisse-check", "--max-size", "6", "--grid", "1,2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: slice too large: 3^15 candidate matrices at size 6 need about 1090516932 bytes,"
        " over the 1073741824-byte budget\n"
    )


# -- AP kernel against its Python-int oracle ------------------------------------


def _closure(m):
    size = len(m)
    for via in range(size):
        for i in range(size):
            for j in range(size):
                m[i][j] = min(m[i][j], m[i][via] + m[via][j])
    return m


def _random_metric(rng, size, top):
    m = [[0] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        m[i][j] = m[j][i] = rng.choice([1, top, rng.randint(1, top)])
    return _closure(m)


def _extend_metric(rng, size, sel, block, top):
    """Random metric on size points, entries in 1..top, equal to block on the
    positions sel: pairs with a point outside sel weigh at least half the
    diameter of block, so no detour shortens the block."""
    half = max(1, (max(max(row) for row in block) + 1) // 2)
    m = [[0] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        if i in sel and j in sel:
            m[i][j] = m[j][i] = block[sel.index(i)][sel.index(j)]
        else:
            m[i][j] = m[j][i] = rng.choice([half, top, rng.randint(half, top)])
    return _closure(m)


def _corrupt(rng, m, top):
    """Set one symmetric entry to 0, 1 or top: a zero entry or, mostly, a
    broken triangle."""
    i, j = rng.sample(range(len(m)), 2)
    m[i][j] = m[j][i] = rng.choice([0, 1, top])


def _stretch(rng, m, sel, top):
    """Lengthen the entry of two random non-overlap points to one past the
    shortest path between them through an overlap point, within top: a
    broken b-triangle that the a-triangles of its own row mostly pass."""
    q, q2 = rng.sample([p for p in range(len(m)) if p not in sel], 2)
    m[q][q2] = m[q2][q] = min(top, min(m[z][q] + m[z][q2] for z in sel) + 1)


def _random_target(rng, dtype, kc):
    """A random overlap target: one to three members, each one to five rows
    of one size over a shared overlap block (a member's own random block
    with probability 0.2), with some rows corrupted."""
    top = int(np.iinfo(dtype).max) // 5
    block = _random_metric(rng, kc, top)
    noise = rng.choice([0.0, 0.2, 0.5])
    members = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(kc, 4)
        sel = tuple(sorted(rng.sample(range(size), kc)))
        own = block if rng.random() < 0.8 else _random_metric(rng, kc, top)
        batch = []
        for _ in range(rng.randint(1, 5)):
            m = _extend_metric(rng, size, list(sel), own, top)
            if size - kc > 1 and rng.random() < noise / 2:
                _stretch(rng, m, sel, top)
            elif size > 1 and rng.random() < noise:
                _corrupt(rng, m, top)
            batch.append(m)
        members.append((np.array(batch, dtype=dtype), sel))
    return members


def _random_batch(rng):
    """One to six random targets of one dtype and overlap size, under
    increasing target ids with gaps, as blocks."""
    dtype, kc = rng.choice(DTYPES), rng.randint(1, 3)
    count = rng.randint(1, 6)
    ids = sorted(rng.sample(range(3 * count), count))
    return batch_blocks([_random_target(rng, dtype, kc) for _ in range(count)], ids)


def _f_width(members):
    """The number of distinct f vectors (b-extra columns on the overlap)."""
    return len(
        {
            tuple(m[r, list(sel), q])
            for _, m, sel in members
            for r in range(m.shape[0])
            for q in range(m.shape[1])
            if q not in sel
        }
    )


def _span_families(members):
    """Every family some span of the target fails, from the slow oracle."""
    families = set()
    for da, sel_a in members:
        for db, sel_b in members:
            if len(sel_b) < db.shape[1]:
                for u in range(da.shape[0]):
                    for v in range(db.shape[0]):
                        families |= reference_span_failures(da[u], sel_a, db[v], sel_b)
    return families


@pytest.mark.parametrize(
    "chunk_elements", [1, 64, fraisse.CHUNK_ELEMENTS], ids=["row", "64", "default"]
)
def test_ap_kernel_matches_reference_on_failing_batches(monkeypatch, chunk_elements):
    """The batched class path on random batches of one to six multi-member
    targets, failing ones among them, against the slow oracle and the span
    kernel run target by target and member pair by member pair in order:
    the first failing target and its first failing span.  Each family is
    the only one the first failing target breaks in some batches."""
    monkeypatch.setattr(fraisse, "CHUNK_ELEMENTS", chunk_elements)
    span_kernel = functools.partial(span_ap_failure, chunk_elements=chunk_elements)
    rng = random.Random(6061 + chunk_elements)
    outcomes = dict.fromkeys(
        ["pass", "span (0, 0)", "later span", "later target", "later fails earlier", "padded"], 0
    )
    alone = dict.fromkeys(["positivity", "overlap", "a-triangle", "b-triangle"], 0)
    for _ in range(200):
        blocks = _random_batch(rng)
        expected = reference_batch_failure(blocks)
        assert reference_batch_failure(blocks, span_kernel) == expected, blocks
        assert _ap_batch_failure(blocks) == expected, blocks
        targets = np.unique(np.concatenate([t for _, _, t in blocks])).tolist()
        members = [batch_members(blocks, target) for target in targets]
        widths = {_f_width(each) for each in members}
        outcomes["padded"] += len(widths) > 1
        if expected is None:
            outcomes["pass"] += 1
            continue
        # each target's first failing span, by member pair and rows
        spans = [
            reference_target_failure([(rows, sel) for _, rows, sel in each]) for each in members
        ]
        first = targets.index(expected[0])
        outcomes["later target"] += first > 0
        outcomes["later span" if spans[first] != (0, 0, 0, 0) else "span (0, 0)"] += 1
        outcomes["later fails earlier"] += any(
            span is not None and span < spans[first] for span in spans[first + 1 :]
        )
        # the first failing target fails by one family alone
        families = _span_families([(rows, sel) for _, rows, sel in members[first]])
        if len(families) == 1:
            alone[families.pop()] += 1
    assert min(outcomes.values()) >= 10, outcomes
    assert min(alone.values()) >= 5, alone


# One target per family, in the int8 dtype: the overlap c, then a member
# whose second row breaks that family alone (its first row is a valid
# one-point extension of c).
FAMILY_TARGETS = {
    "positivity": (
        [[0]],
        (0,),
        [[[0, 1], [1, 0]], [[0, 0], [0, 0]]],  # b-extra point at distance 0
    ),
    "overlap": (
        [[0, 1], [1, 0]],
        (0, 1),
        # f = (3, 1) over d(z0, z1) = 1: X(z0, q) = 2, not 3
        [[[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[0, 1, 3], [1, 0, 1], [3, 1, 0]]],
    ),
    "a-triangle": (
        [[0, 5], [5, 0]],
        (0, 1),
        # f = (3, 1) over d(z0, z1) = 5: 5 > 3 + 1, and |3 - 1| <= 5 so the
        # overlap rows agree; a repeated pair end reads 3, 3 and passes
        [[[0, 5, 3], [5, 0, 3], [3, 3, 0]], [[0, 5, 3], [5, 0, 1], [3, 1, 0]]],
    ),
    "b-triangle": (
        [[0]],
        (0,),
        # two b-extra points 3 apart, both at 1 from the overlap point
        [[[0, 1, 1], [1, 0, 2], [1, 2, 0]], [[0, 1, 1], [1, 0, 3], [1, 3, 0]]],
    ),
}


# The engine's counterexample line for each family's injected bad row.
FAMILY_COUNTEREXAMPLES = {
    "a-triangle": "ap c-size=1 c-row=0 a=(1,(0,),0) b=(3,(0,),95)",
    "b-triangle": "ap c-size=1 c-row=0 a=(1,(0,),0) b=(3,(0,),95)",
    "overlap": "ap c-size=1 c-row=0 a=(1,(0,),0) b=(3,(0,),95)",
    "positivity": "ap c-size=1 c-row=0 a=(1,(0,),0) b=(2,(0,),5)",
}


def _family_target(family):
    c, sel, rows = FAMILY_TARGETS[family]
    return [(np.array([c], dtype=np.int8), tuple(range(len(c)))), (np.array(rows, dtype=np.int8), sel)]


@pytest.mark.parametrize("family", sorted(FAMILY_TARGETS))
def test_class_path_catches_each_family_alone(family):
    """Negative control: each family fails on its own, and the class path
    finds the span oracle's first failing span, c against the bad row, in
    a one-target batch."""
    members = _family_target(family)
    assert _span_families(members) == {family}
    assert reference_target_failure(members) == (0, 1, 0, 1)
    assert reference_target_failure(members, span_ap_failure) == (0, 1, 0, 1)
    assert _ap_batch_failure(batch_blocks([members])) == (0, 0, 1, 0, 1)


@pytest.mark.parametrize("family", sorted(FAMILY_TARGETS))
def test_injected_family_reports_the_span_oracles_counterexample(monkeypatch, family):
    """Each family's bad row, appended to the size-2 or size-3 matrices of a
    real slice over 1..5, gives the engine the same report, with the same
    counterexample ap line, as the span oracle run per member pair.  The HP
    masks are patched to pass so that the AP line is reported."""
    grid_values, _, int_grid = fraisse._prepare_grid([Fraction(v) for v in range(1, 6)])
    per_size = [_valid_matrices(k, int_grid) for k in (1, 2, 3)]
    bad = np.array(FAMILY_TARGETS[family][2][1], dtype=int_grid.dtype)
    per_size[len(bad) - 1] = np.concatenate([per_size[len(bad) - 1], bad[None]])
    monkeypatch.setattr(fraisse, "_triangle_mask", lambda batch: np.ones(len(batch), bool))
    monkeypatch.setattr(fraisse, "_positivity_mask", lambda batch: np.ones(len(batch), bool))
    report = fraisse._vector_engine(3, grid_values, per_size)
    monkeypatch.setattr(
        fraisse,
        "_ap_batch_failure",
        lambda blocks: reference_batch_failure(blocks, span_ap_failure),
    )
    assert fraisse._vector_engine(3, grid_values, per_size) == report
    assert (report.hp_ok, report.jep_ok, report.ap_ok) == (True, True, False)
    assert report.counterexample == FAMILY_COUNTEREXAMPLES[family]


def test_grouping_follows_an_out_of_order_c_batch(monkeypatch):
    """With the size-2 spaces in reverse lexicographic order, the AP pass
    makes one kernel call per overlap size; in it every row's target is
    the row of its overlap matrix in the reversed batch, each block's
    targets ascend with rows ascending inside a target, the call covers
    each pointed space once, and a failing call reports its target's row."""
    grid_values, _, int_grid = fraisse._prepare_grid([Fraction(1), Fraction(2)])
    per_size = [_valid_matrices(k, int_grid) for k in (1, 2, 3, 4)]
    per_size[1] = per_size[1][::-1]
    row_of = [{m.tobytes(): r for r, m in enumerate(batch)} for batch in per_size]
    chosen = per_size[1][1]
    assert chosen.tolist() == [[0, 1], [1, 0]]  # lexicographically first, here second
    calls = []

    def recording(fail_on=None):
        def failure(blocks):
            kc = len(blocks[0][1])
            for ms, sel, targets in blocks:
                assert (np.diff(targets) >= 0).all()
                overlaps = ms[:, list(sel)][:, :, list(sel)]
                assert (overlaps == per_size[kc - 1][targets]).all()
            calls.append(blocks)
            if fail_on is not None and fail_on.shape[0] == kc:
                first = blocks[0][2][(blocks[0][0] == fail_on).all(axis=(1, 2))]
                return int(first[0]), 0, 0, 0, 0
            return None

        return failure

    monkeypatch.setattr(fraisse, "_ap_batch_failure", recording())
    assert fraisse._vector_engine(4, grid_values, per_size).ap_ok
    assert [len(blocks[0][1]) for blocks in calls] == [1, 2, 3]
    for kc, blocks in zip((1, 2, 3), calls):
        seen = []
        for ms, sel, targets in blocks:
            rows = [row_of[ms.shape[1] - 1][m.tobytes()] for m in ms]
            for target in set(targets.tolist()):
                own = [r for r, t in zip(rows, targets) if t == target]
                assert own == sorted(own)
            seen += [(ms.shape[1], sel, r) for r in rows]
        expected = [
            (ka, sel, r)
            for ka in range(kc, 5)
            for sel in combinations(range(ka), kc)
            for r in range(len(per_size[ka - 1]))
        ]
        assert sorted(seen) == sorted(expected)

    monkeypatch.setattr(fraisse, "_ap_batch_failure", recording(chosen))
    report = fraisse._vector_engine(4, grid_values, per_size)
    assert report.counterexample == "ap c-size=2 c-row=1 a=(2,(0, 1),0) b=(2,(0, 1),0)"


def _record_kernel_calls(monkeypatch):
    """The blocks of every AP kernel call from now on; the kernel still runs."""
    calls, kernel = [], fraisse._ap_batch_failure

    def recording(blocks):
        calls.append(blocks)
        return kernel(blocks)

    monkeypatch.setattr(fraisse, "_ap_batch_failure", recording)
    return calls


def test_padded_batch_reads_each_targets_own_classes(monkeypatch):
    """The size-3 slice over {1,2,3} at overlap size 2: three targets (the
    overlap distance 1, 2 or 3) whose f widths differ, so the tables are
    padded.  The batch passes as the oracle says, and a row added to the
    last target, with the a-triangle of its overlap pair broken (f = (1, 1)
    under d = 3), makes that target fail at the oracle's span: its overlap
    as a, the new row as b."""
    calls = _record_kernel_calls(monkeypatch)
    check_fraisse_properties(3, [Fraction(1), Fraction(2), Fraction(3)])
    blocks = calls[1]
    assert [sel for _, sel, _ in blocks] == [(0, 1), (0, 1), (0, 2), (1, 2)]
    widths = [_f_width(batch_members(blocks, target)) for target in (0, 1, 2)]
    assert len(set(widths)) == 3
    assert _ap_batch_failure(blocks) is None
    assert reference_batch_failure(blocks) is None
    m, sel, targets = blocks[1]
    bad = np.array([[[0, 3, 1], [3, 0, 1], [1, 1, 0]]], dtype=m.dtype)
    blocks[1] = (np.concatenate([m, bad]), sel, np.append(targets, 2))
    expected = reference_batch_failure(blocks)
    assert expected == (2, 0, 1, 0, int((targets == 2).sum()))
    assert _ap_batch_failure(blocks) == expected


def test_grouping_refuses_an_overlap_outside_the_c_batch():
    """A size-3 row whose induced pair (distance 3) is no size-2 space of
    the grid {1,2} stops the AP pass with an internal error."""
    grid_values, _, int_grid = fraisse._prepare_grid([Fraction(1), Fraction(2)])
    per_size = [_valid_matrices(k, int_grid) for k in (1, 2, 3)]
    bad = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=int_grid.dtype)
    per_size[2] = np.concatenate([per_size[2], bad[None]])
    with pytest.raises(AssertionError, match="an overlap of size 2 matches no space"):
        fraisse._vector_engine(3, grid_values, per_size)


def test_classes_index_every_vector():
    parts = [
        np.array([[[1, 2], [0, 2]], [[1, 2], [3, 1]]], dtype=np.int8),
        np.array([[3, 1], [2, 0]], dtype=np.int8),
    ]
    classes, ids = _classes(parts)
    assert sorted(map(tuple, classes.tolist())) == [(0, 2), (1, 2), (2, 0), (3, 1)]
    assert classes.dtype == np.int8
    for part, part_ids in zip(parts, ids):
        assert part_ids.shape == part.shape[:-1]
        assert (classes[part_ids] == part).all()
    # zero-width vectors, as a one-point overlap's upper triangle, are one class
    classes, ids = _classes([np.zeros((3, 0), dtype=np.int8), np.zeros((2, 2, 0), dtype=np.int8)])
    assert classes.shape == (1, 0)
    assert [part_ids.tolist() for part_ids in ids] == [[0, 0, 0], [[0, 0], [0, 0]]]


@pytest.mark.parametrize("spread", [3, 2**62], ids=["narrow", "wide"])
def test_classes_rank_lead_first_like_unique_rows(spread):
    """Against ``np.unique`` over the rows, and over the rows (lead,
    vector): classes in lexicographic order and every vector's class.
    Values in a range wider than the vectors are ranked by sorting, and at
    width 16 the keys are compacted before they pass 2^62."""
    rng = np.random.default_rng(8)
    pool = rng.integers(-spread, spread, size=(40, 16), dtype=np.int64)
    parts = [pool[rng.integers(0, 40, size=(n, 3))] for n in (5, 0, 11)]
    leads = [np.sort(rng.integers(0, 4, size=len(part))) for part in parts]
    led = [
        np.column_stack([np.repeat(lead, 3), part.reshape(-1, 16)])
        for lead, part in zip(leads, parts)
    ]
    for given, rows in [(None, [part.reshape(-1, 16) for part in parts]), (leads, led)]:
        expected = np.unique(np.concatenate(rows), axis=0)
        classes, ids = _classes(parts, given)
        assert classes.tolist() == expected[:, -16:].tolist()
        for part_ids, part_rows in zip(ids, rows):
            assert part_ids.shape == (len(part_rows) // 3, 3)
            assert expected[part_ids.ravel()].tolist() == part_rows.tolist()


# -- AP work estimate ------------------------------------------------------------


def slice_work(per_size, grid_len):
    """The AP estimate of a whole slice, every size's share added up."""
    return sum(_ap_work(k, len(batch), len(per_size), grid_len) for k, batch in enumerate(per_size, 1))


def test_ap_work_estimate_by_hand():
    # size 3 over {1,2}: 1, 2 and 8 spaces, 2 f classes and 3 g classes per
    # overlap point; kc = 1: 1*2*1 + 4*2*3 + 24*(2*6 + 3*1) = 386, kc = 2:
    # 2*4*5 + 24*4*9 = 904.  By size: 2, then 4*2*3 + 2*4*5 = 64, then
    # 24*(2*6 + 3*1) + 24*4*9 = 1224
    per_size = [_valid_matrices(k, np.array([1, 2], dtype=np.int8)) for k in (1, 2, 3)]
    assert [_ap_work(k, len(batch), 3, 2) for k, batch in enumerate(per_size, 1)] == [2, 64, 1224]
    assert slice_work(per_size, 2) == 1290


def test_ap_budget_boundary(monkeypatch, capsys):
    argv = ["fraisse-check", "--max-size", "3", "--grid", "1,2"]
    monkeypatch.setattr(fraisse, "AP_BUDGET_CHECKS", 1290)
    calls = _record_kernel_calls(monkeypatch)
    assert run(argv) == 0
    assert capsys.readouterr().out.endswith("ap checked 1187: ok\nverdict pass\n")
    assert [len(blocks[0][1]) for blocks in calls] == [1, 2]  # one batch per overlap size
    monkeypatch.setattr(fraisse, "AP_BUDGET_CHECKS", 1289)

    def checked(*args):
        raise AssertionError("the AP pass ran past its budget")

    monkeypatch.setattr(fraisse, "_ap_batch_failure", checked)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: slice too large: the AP pass needs about 1290 class checks,"
        " over the 1289-check budget\n"
    )


def test_ap_budget_admits_size_5_over_three_values(capsys):
    per_size = [_valid_matrices(k, np.array([1, 2, 3], dtype=np.int8)) for k in range(1, 6)]
    assert slice_work(per_size, 3) == 519_900_036 <= fraisse.AP_BUDGET_CHECKS
    assert run(["fraisse-check", "--max-size", "5", "--grid", "1,2,3,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: slice too large: the AP pass needs about 13745879064 class checks,"
        f" over the {fraisse.AP_BUDGET_CHECKS}-check budget\n"
    )


@pytest.fixture
def enumerated(monkeypatch):
    """The sizes ``_valid_matrices`` is called with, in call order."""
    sizes = []
    valid_matrices = fraisse._valid_matrices

    def counted(size, int_grid):
        sizes.append(size)
        return valid_matrices(size, int_grid)

    monkeypatch.setattr(fraisse, "_valid_matrices", counted)
    return sizes


def test_ap_budget_refuses_at_the_first_size_past_it(enumerated, capsys):
    """Every size's share of the estimate is nonnegative, so a slice is
    refused at the first size whose running sum tops the budget, before a
    larger size is enumerated, by either engine: grid {1} tops it at size
    17, whatever the largest size.  Below the largest size the sum is a
    lower bound, found from size 16's count before size 17 is enumerated
    (grid {1} has one space of each size, so the bound is the sum)."""
    assert run(["fraisse-check", "--max-size", "200", "--grid", "1"]) == 2
    assert enumerated == list(range(1, 17))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: slice too large: the AP pass needs at least 2825905345 class checks,"
        f" over the {fraisse.AP_BUDGET_CHECKS}-check budget\n"
    )
    enumerated.clear()
    with pytest.raises(ValueError, match="needs at least 2825905345 class checks"):
        check_fraisse_properties(200, [1], engine="direct")
    assert enumerated == list(range(1, 17))
    enumerated.clear()
    with pytest.raises(ValueError, match="needs about 2825904920 class checks"):
        check_fraisse_properties(17, [1])
    assert enumerated == list(range(1, 18))


def test_ap_budget_refuses_before_enumerating_a_size_over_it(enumerated, monkeypatch, capsys):
    """Over {1,2} every matrix is valid, so size 6 has 2^15 spaces; with
    that count in place of size 7's the sum tops the budget, and the slice
    is refused before size 7's 2^21 candidates are enumerated."""
    valid_matrices = fraisse._valid_matrices

    def up_to_six(size, int_grid):
        if size == 7:
            raise AssertionError("size 7 was enumerated past the budget")
        return valid_matrices(size, int_grid)

    monkeypatch.setattr(fraisse, "_valid_matrices", up_to_six)
    assert run(["fraisse-check", "--max-size", "1000000", "--grid", "1,2"]) == 2
    assert enumerated == list(range(1, 7))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: slice too large: the AP pass needs at least 5613051530 class checks,"
        f" over the {fraisse.AP_BUDGET_CHECKS}-check budget\n"
    )


def _golden_size_5(capsys, grid):
    assert run(["fraisse-check", "--max-size", "5", "--grid", grid]) == 0
    golden = Path(__file__).parent / "data" / f"fraisse-check-5-{grid}.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_size_5_slice_matches_the_recorded_report(capsys):
    """Golden: the size-5 report over {1,2}, 100,137,955 AP spans, as the
    span kernel printed it."""
    _golden_size_5(capsys, "1,2")


def test_size_5_slice_over_three_values_matches_the_recorded_report(capsys):
    """Golden: the size-5 report over {1,2,3}, 36,178,487,692 AP spans, as
    the per-target class kernel printed it."""
    _golden_size_5(capsys, "1,2,3")


@pytest.mark.parametrize(
    "size, grid",
    [(k, g) for g in ("1,2", "1,2,3") for k in (3, 4, 5)] + [(4, "1/2,1,2")],
)
def test_padded_class_checks_stay_within_the_ap_budget(monkeypatch, size, grid):
    """The class checks the batched pass makes, counted from its padded
    shapes (each triangle check's rows x pairs x padded table width, and
    each padded table's cells x the terms per cell), never pass the
    estimate the budget refuses by."""
    values = [Fraction(q) for q in grid.split(",")]
    grid_values, _, int_grid = fraisse._prepare_grid(values)
    per_size = [_valid_matrices(k, int_grid) for k in range(1, size + 1)]
    checks = []
    triangles, layout = fraisse._triangle_failures, fraisse._padded_chunks

    def counted_triangles(d, first, second, table):
        checks.append(first.shape[0] * first.shape[1] * table.shape[1])
        return triangles(d, first, second, table)

    def counted_layout(own, other, per_cell):
        width, chunks = layout(own, other, per_cell)
        checks.append(len(own) * width * per_cell)
        return width, chunks

    monkeypatch.setattr(fraisse, "_triangle_failures", counted_triangles)
    monkeypatch.setattr(fraisse, "_padded_chunks", counted_layout)
    assert fraisse._vector_engine(size, grid_values, per_size).ap_ok
    assert 0 < sum(checks) <= slice_work(per_size, len(values))


@pytest.mark.parametrize("grid", ["1,2,3", "1/2,1,2"])
def test_size_4_slice_makes_one_kernel_call_per_overlap_size(monkeypatch, grid):
    """The benchmark's size-4 slices decide each overlap size's targets in
    one call (the per-target kernel made 28 and 22 calls)."""
    calls = _record_kernel_calls(monkeypatch)
    report = check_fraisse_properties(4, [Fraction(q) for q in grid.split(",")])
    assert report.all_ok
    assert [len(blocks[0][1]) for blocks in calls] == [1, 2, 3]


def reference_hp(per_size):
    """The HP pass as one mask per (size, position subset): the subset
    checks and the first failure line, or None."""
    checked, first = 0, None
    for k, batch in enumerate(per_size, start=1):
        for r in range(1, k + 1):
            for keep in combinations(range(k), r):
                sub = batch[:, keep][:, :, keep]
                checked += len(batch)
                ok = _triangle_mask(sub) & _positivity_mask(sub)
                if first is None and not ok.all():
                    first = f"hp size={k} subset={keep} matrix-row={int(np.flatnonzero(~ok)[0])}"
    return checked, first


# Size-4 matrices over {1,2}, each failing in one place: only the triangle
# (1,2,3), only the triangle (0,1,2), and only the lower entry of the pair
# (1,2), which is 0 while the upper entry is 1.
HP_BAD = {
    "triangle-123": [[0, 1, 1, 2], [1, 0, 1, 1], [1, 1, 0, 3], [2, 1, 3, 0]],
    "triangle-012": [[0, 1, 3, 2], [1, 0, 1, 2], [3, 1, 0, 2], [2, 2, 2, 0]],
    "lower-zero-12": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 0, 0, 1], [1, 1, 1, 0]],
}


@pytest.mark.parametrize(
    "injected, line",
    [
        (["triangle-123"], "hp size=4 subset=(1, 2, 3) matrix-row=64"),
        # the second matrix fails on an earlier subset than the first
        (["triangle-123", "triangle-012"], "hp size=4 subset=(0, 1, 2) matrix-row=65"),
        # a pair comes before every triangle, and is read in both directions
        (["triangle-123", "triangle-012", "lower-zero-12"], "hp size=4 subset=(1, 2) matrix-row=66"),
    ],
    ids=["one", "earlier-subset", "pair-first"],
)
def test_hp_pass_reports_the_first_failing_subset(injected, line):
    grid_values, scale, int_grid = fraisse._prepare_grid([Fraction(1), Fraction(2)])
    per_size = [_valid_matrices(k, int_grid) for k in (1, 2, 3, 4)]
    bad = np.array([HP_BAD[name] for name in injected], dtype=int_grid.dtype)
    per_size[3] = np.concatenate([per_size[3], bad])
    checked = 1 + 2 * 3 + 8 * 7 + len(per_size[3]) * 15
    assert _hp_pass(per_size) == reference_hp(per_size) == (checked, line)


def test_hp_pass_matches_the_subset_loop_on_corrupted_slices():
    """Random entries of random matrices, either direction, set to values
    that break positivity or a triangle or change nothing."""
    _, _, int_grid = fraisse._prepare_grid([Fraction(v) for v in (1, 2, 3)])
    clean = [_valid_matrices(k, int_grid) for k in (1, 2, 3, 4)]
    rng = random.Random("hp-corrupted")
    failures = 0
    for _ in range(40):
        per_size = [batch.copy() for batch in clean]
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(2, 4)
            i, j = rng.sample(range(k), 2)
            per_size[k - 1][rng.randrange(len(per_size[k - 1])), i, j] = rng.choice([0, 1, 3, 7])
        got = _hp_pass(per_size)
        assert got == reference_hp(per_size)
        failures += got[1] is not None
    assert 0 < failures < 40


def _report_lines(checked, counterexample, counts, hp, jep, ap):
    """Report lines of a failing size-3 slice, as ``FraisseReport.lines``."""
    return [
        "max-size 3",
        *(f"spaces size {k}: {n}" for k, n in enumerate(counts, start=1)),
        f"hp checked {checked[0]}: {hp}",
        f"jep checked {checked[1]}: {jep}",
        f"ap checked {checked[2]}: {ap}",
        f"counterexample {counterexample}",
        "verdict fail",
    ]


# One broken matrix appended to the size-3 slice over a grid: the direct
# and vector reports (without the grid line), and the number and sha256 of
# the AmalgamError messages the direct engine's amalgamate calls raise, in
# order, joined by newlines.
BROKEN_SLICES = {
    "triangle": (
        (1, 3),
        [[0, 1, 1], [1, 0, 3], [1, 3, 0]],
        _report_lines((49, 81, 737), "hp size=3 subset=(0, 1, 2)", (1, 2, 6), "FAIL", "FAIL", "FAIL"),
        _report_lines(
            (49, 81, 737),
            "hp size=3 subset=(0, 1, 2) matrix-row=5",
            (1, 2, 6),
            "FAIL",
            "FAIL",
            "FAIL",
        ),
        200,
        "79fa539ca20f1155d3644c46f5f62d32ae308fb2583f6acf5a71ac9dd878a2e6",
    ),
    "positivity": (
        (1, 2),
        [[0, 0], [0, 0]],
        _report_lines((66, 144, 1308), "hp size=2 subset=(0, 1)", (1, 3, 8), "FAIL", "FAIL", "FAIL"),
        _report_lines(
            (66, 144, 1308),
            "hp size=2 subset=(0, 1) matrix-row=2",
            (1, 3, 8),
            "FAIL",
            "FAIL",
            "FAIL",
        ),
        144,
        "660397a49bedb1bb67b54532b4e1164a826a8edb0a9e395c380d46ef77b083bf",
    ),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_SLICES))
def test_injected_broken_space_gets_the_recorded_reports(monkeypatch, broken):
    """Both engines report the recorded lines, with the same hp, jep and ap
    verdicts, and the direct engine's per-span glue calls raise the recorded
    messages in the recorded order."""
    grid, matrix, direct_lines, vector_lines, raised, digest = BROKEN_SLICES[broken]
    grid_values, scale, int_grid = fraisse._prepare_grid([Fraction(v) for v in grid])
    per_size = [_valid_matrices(k, int_grid) for k in (1, 2, 3)]
    bad = np.array(matrix, dtype=int_grid.dtype)
    per_size[len(bad) - 1] = np.concatenate([per_size[len(bad) - 1], bad[None]])
    messages = []

    def recording(*args):
        try:
            return glue(*args)
        except AmalgamError as exc:
            messages.append(str(exc))
            raise

    glue = fraisse._glue
    monkeypatch.setattr(fraisse, "_glue", recording)
    direct = fraisse._direct_engine(3, grid_values, scale, per_size).lines()
    vector = fraisse._vector_engine(3, grid_values, per_size).lines()
    assert [line for line in direct if not line.startswith("grid")] == direct_lines
    assert [line for line in vector if not line.startswith("grid")] == vector_lines
    verdicts = [line for line in direct if line.startswith(("hp ", "jep ", "ap "))]
    assert verdicts == [line for line in vector if line.startswith(("hp ", "jep ", "ap "))]
    assert len(messages) == raised
    assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == digest


def test_direct_engine_checks_each_side_once_per_overlap(monkeypatch):
    """One direct run over the size-3 slice over {1, 2} calls ``_side`` once
    per space for JEP and once per (c, s, embedding of c into s) for AP: a
    side is checked once per overlap, not once per span."""
    grid_values, scale, int_grid = _prepare_grid([Fraction(1), Fraction(2)])
    per_size = [_valid_matrices(k, int_grid) for k in (1, 2, 3)]
    spaces = [fraisse._matrix_space(batch[row], scale) for batch in per_size for row in range(len(batch))]
    calls = []
    side = fraisse._side

    def counting(*args):
        calls.append(args)
        return side(*args)

    monkeypatch.setattr(fraisse, "_side", counting)
    report = fraisse._direct_engine(3, grid_values, scale, per_size)
    sides = sum(len(list(enumerate_embeddings(c, s))) for c in spaces for s in spaces)
    assert (report.jep_checked, report.ap_checked) == (121, 1187)
    assert report.jep_ok and report.ap_ok
    assert len(calls) == len(spaces) + sides == 11 + 63


def test_a_failing_side_is_checked_once_per_tag(monkeypatch):
    """``_span_failures`` gives each span's ``amalgamate`` message, None
    for a span that glues, with bad embeddings injected on both sides; a
    side whose check fails is checked once as e_a and once as e_b, and its
    message is kept for every later span that uses it."""
    spaces = [make_space(["x"], {}), make_space(["x", "y"], {("x", "y"): 1})]
    c = spaces[1]
    into = [list(enumerate_embeddings(c, s)) for s in spaces]
    into[0].append(PartialIso((0,), (0,)))  # not defined on all of c
    into[1].append(PartialIso((0, 1), (1, 0)))  # reverses c's order
    expected = []
    for a, into_a in zip(spaces, into):
        for e_a, (b, into_b) in product(into_a, zip(spaces, into)):
            for e_b in into_b:
                try:
                    reference_amalgamate(a, b, c, e_a, e_b)
                    expected.append(None)
                except AmalgamError as exc:
                    expected.append(str(exc))
    calls = []
    side = fraisse._side

    def counting(space, c, emb, tag):
        calls.append((spaces.index(space), emb, tag))
        return side(space, c, emb, tag)

    monkeypatch.setattr(fraisse, "_side", counting)
    assert list(fraisse._span_failures(spaces, c, into)) == expected
    assert expected == [
        "e_a is not defined exactly on the overlap space",
        "e_a is not defined exactly on the overlap space",
        "e_a is not defined exactly on the overlap space",
        "e_b is not defined exactly on the overlap space",
        None,
        "e_b does not preserve structure",
        "e_a does not preserve structure",
        "e_a does not preserve structure",
        "e_a does not preserve structure",
    ]
    assert calls == [
        (0, into[0][0], "e_a"),
        (1, into[1][0], "e_a"),
        (0, into[0][0], "e_b"),
        (1, into[1][1], "e_b"),
        (1, into[1][1], "e_a"),
    ]
