"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every comparison is exact rational equality; the only
tolerances are the stated runtime budgets.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from ordmet import (
    ExtensionType,
    FinSpace,
    InfeasibleExtensionError,
    PartialIso,
    amalgamate,
    ball_trace,
    build_witness,
    canonical_iso,
    embedding_ok,
    enumerate_embeddings,
    extend_one_point,
    extension_feasible,
    make_space,
    new_builder,
    orbit_traces,
    partial_iso_ok,
    same_fix_orbit,
    shift_iso,
    validate,
    verify_injection,
)
from ordmet.cli import run
from ordmet.fraisse import _matrix_space, _valid_matrices, check_fraisse_properties
from ordmet.spacefile import parse_space, serialize_space

from conftest import chain_space, path_metric_space


def report_line(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


SUPPORTS = {
    "single": make_space(["b0"], {}),
    "pair1": make_space(["b0", "b1"], {("b0", "b1"): 1}),
    "pair2": make_space(["b0", "b1"], {("b0", "b1"): 2}),
}
SUPPORT_DOCS = {
    "single": "space\npoint b0\nend\n",
    "pair1": "space\npoint b0\npoint b1\ndist b0 b1 1/1\nend\n",
    "pair2": "space\npoint b0\npoint b1\ndist b0 b1 2/1\nend\n",
}
PARAMS = [(n, m) for n in (1, 2, 3) for m in (1, 2)]


def all_configs():
    for support in SUPPORTS.values():
        for n, m in PARAMS:
            yield build_witness(support, n, m)


def admissible_member_sets(config):
    free = [i for i in config.window if i not in config.tail]
    tail = frozenset(config.tail)
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            yield tail | frozenset(extra)


def test_criterion_1_witness_exhaustion(tmp_path, capsys):
    """Every admissible trace of every (support, n, m) configuration passes
    verify_injection; minimal indices stay inside [2K, 3K-n+1]; the window
    pattern of every shift is exactly its one forced point."""
    started = time.monotonic()
    failures = []
    for key, doc in SUPPORT_DOCS.items():
        path = tmp_path / f"{key}.space"
        path.write_text(doc)
        for n, m in PARAMS:
            code = run(
                ["witness", "exhaust", "--support", str(path),
                 "--n", str(n), "--m", str(m)]
            )
            out = capsys.readouterr().out.splitlines()
            config = build_witness(SUPPORTS[key], n, m)
            expected = 2 ** (config.k + 1 - n)
            if code != 0:
                failures.append(f"{key} n={n} m={m}: exit {code}")
            if f"checked {expected}" not in out or f"passed {expected}" not in out:
                failures.append(f"{key} n={n} m={m}: bad counts {out}")
            for members in admissible_member_sets(config):
                rep = verify_injection(config, members)
                if not rep.injective:
                    failures.append(f"{key} n={n} m={m} {sorted(members)}: not injective")
                if not 2 * config.k <= rep.min_member <= 3 * config.k - n + 1:
                    failures.append(f"{key} n={n} m={m}: L={rep.min_member} escapes")
                for j, check in enumerate(rep.checks):
                    if check.pattern != (rep.min_member + j,):
                        failures.append(
                            f"{key} n={n} m={m} shift {j}: pattern {check.pattern}"
                        )
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s budget")
    report_line(1, "witness exhaustion", not failures)
    assert not failures, failures


def test_criterion_2_tail_claim():
    """The open 1/m-ball around the chain end meets the chain in exactly the
    last n points, by strict exact-rational comparison."""
    failures = []
    for config in all_configs():
        ball = ball_trace(config.space, config.top, Fraction(1, config.m))
        expected = {config.chain[i] for i in config.tail}
        if ball & set(config.chain) != expected:
            failures.append(f"n={config.n} m={config.m}: tail mismatch")
        if config.chain[3 * config.k - config.n] in ball:
            failures.append(f"n={config.n} m={config.m}: boundary point leaked in")
    report_line(2, "tail claim", not failures)
    assert not failures, failures


def test_criterion_3_fraisse_slices(capsys):
    """Exhaustive class-property check at max size 4 over both grids, plus
    object-level amalgams through the direct constructor."""
    started = time.monotonic()
    failures = []
    for grid in ("1,2", "1,2,3"):
        code = run(["fraisse-check", "--max-size", "4", "--grid", grid])
        out = capsys.readouterr().out
        if code != 0 or "verdict pass" not in out:
            failures.append(f"grid {grid}: exit {code}")

    # every span at max size 3 through real amalgamate + validate
    for grid in ([Fraction(1), Fraction(2)], [Fraction(1), Fraction(2), Fraction(3)]):
        direct = check_fraisse_properties(3, grid, engine="direct")
        vector = check_fraisse_properties(3, grid, engine="vector")
        if direct != vector or not direct.all_ok:
            failures.append(f"engines disagree on {grid}")

    # deterministic sample of size-4 spans through real amalgamate
    rng = random.Random(40302)
    matrices = _valid_matrices(4, [1, 2, 3])
    spaces = [_matrix_space(matrices[i], 1) for i in range(matrices.shape[0])]
    checked = 0
    for _ in range(150):
        a, b = rng.choice(spaces), rng.choice(spaces)
        size_c = rng.randint(1, 3)
        keep_a = sorted(rng.sample(range(4), size_c))
        c = a.subspace([a.points[i] for i in keep_a])
        e_a = PartialIso(c.points, c.points)
        images = list(enumerate_embeddings(c, b))
        if not images:
            continue
        e_b = rng.choice(images)
        glued, f_a, f_b = amalgamate(a, b, c, e_a, e_b)
        checked += 1
        if not validate(glued).is_valid:
            failures.append("sampled amalgam failed validation")
        if not (embedding_ok(a, glued, f_a) and embedding_ok(b, glued, f_b)):
            failures.append("sampled amalgam embeddings broke")
        if frozenset(f_a.cod) & frozenset(f_b.cod) != frozenset(f_a(e_a(z)) for z in c.points):
            failures.append("sampled amalgam overlapped beyond c")
    if checked < 50:
        failures.append(f"sample too small: {checked}")
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1min budget")
    report_line(3, "fraisse slices", not failures)
    assert not failures, failures


def test_criterion_4_feasibility_oracle():
    """extension_feasible agrees with validate(extend_one_point(...)) on
    every base of size <= 3 over the half/1/2 grid, every dvec, every slot."""
    started = time.monotonic()
    grid = [Fraction(1, 2), Fraction(1), Fraction(2)]
    failures = []
    bases = [FinSpace((), {})]
    for size in range(1, 4):
        pairs = list(combinations(range(size), 2))
        for values in product(grid, repeat=len(pairs)):
            candidate = FinSpace(
                tuple(range(size)), dict(zip(pairs, values))
            )
            if validate(candidate).is_valid:
                bases.append(candidate)
    instances = 0
    for base in bases:
        for values in product(grid, repeat=len(base)):
            dvec = dict(zip(base.points, values))
            for slot in range(len(base) + 1):
                instances += 1
                try:
                    grown = extend_one_point(base, ExtensionType(base, dvec, slot))
                    realized = validate(grown).is_valid
                except InfeasibleExtensionError:
                    realized = False
                if extension_feasible(base, dvec) != realized:
                    failures.append(f"disagreement at {dvec} slot {slot}")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s budget")
    if instances < 2000:
        failures.append(f"only {instances} instances")
    report_line(4, "feasibility oracle", not failures)
    assert not failures, failures


def test_criterion_5_homogeneity_engine():
    """100 random partial isomorphisms on a 30-point stage extend through 5
    targets each with exact preservation; witness shifts are conjugacies."""
    failures = []
    builder = new_builder(FinSpace((), {}))
    builder.grow(30)
    base_stage = builder.stage()
    if len(builder) < 30:
        failures.append("stage too small")

    rng = random.Random(50607)
    extensions = 0
    for _ in range(100):
        size = rng.randint(1, 3)
        dom = sorted(rng.sample(base_stage.points, size), key=base_stage.position)
        induced = base_stage.subspace(dom)
        images = list(enumerate_embeddings(induced, base_stage))
        emb = rng.choice(images)
        iso = PartialIso(tuple(dom), tuple(emb(p) for p in dom))
        if not builder.iso_ok(iso):
            failures.append("sampled iso invalid")
            continue
        for t in range(5):
            target = rng.choice(builder.created)
            side = "forth" if t % 2 == 0 else "back"
            iso = builder.back_and_forth_extend(iso, target, side)
            extensions += 1
            if not builder.iso_ok(iso):
                failures.append("extension broke preservation")
            covered = iso.dom if side == "forth" else iso.cod
            if target not in covered:
                failures.append("target not covered after extension")
    if extensions != 500:
        failures.append(f"ran {extensions} extensions")
    final_stage = builder.stage()
    sample_iso = PartialIso(
        tuple(base_stage.points[:3]), tuple(base_stage.points[:3])
    )
    if not partial_iso_ok(final_stage, sample_iso):
        failures.append("identity stopped preserving")

    for config in all_configs():
        shift = shift_iso(config)
        if not partial_iso_ok(config.space, shift):
            failures.append(f"shift invalid for n={config.n} m={config.m}")
        if not same_fix_orbit(
            config.space,
            set(config.support.points),
            config.chain[:-1],
            config.chain[1:],
        ):
            failures.append(f"chain tuples not conjugate for n={config.n} m={config.m}")
    report_line(5, "homogeneity engine", not failures)
    assert not failures, failures


def test_criterion_6_exactness_and_format(tmp_path):
    """Stages and configs validate with exact rationals; canonical files
    round-trip byte for byte, including the step-1/7 chain."""
    failures = []
    builder = new_builder(FinSpace((), {}))
    for _ in range(12):
        builder.grow(1)
        stage = builder.stage()
        if not validate(stage).is_valid:
            failures.append(f"stage of size {len(stage)} invalid")
        if not all(isinstance(stage.d(p, q), Fraction) for p, q in stage.pairs()):
            failures.append("non-rational distance crept in")

    for config in all_configs():
        if not validate(config.space).is_valid:
            failures.append(f"config n={config.n} m={config.m} invalid")
        text = serialize_space(config.space)
        if serialize_space(parse_space(text)) != text:
            failures.append(f"config n={config.n} m={config.m} round trip broke")

    seven = chain_space(7)
    if not validate(seven).is_valid:
        failures.append("k=7 chain invalid")
    if seven.d(seven.points[0], seven.points[1]) != Fraction(1, 7):
        failures.append("k=7 chain step wrong")
    path = tmp_path / "seven.space"
    path.write_text(serialize_space(seven))
    if serialize_space(parse_space(path.read_text())) != path.read_text():
        failures.append("k=7 chain round trip broke")
    stage_text = serialize_space(builder.stage())
    if serialize_space(parse_space(stage_text)) != stage_text:
        failures.append("stage round trip broke")
    report_line(6, "exactness and format", not failures)
    assert not failures, failures


def test_criterion_7_orbit_laws():
    """Equivalence laws over 1000 random tuple pairs; enlarging the support
    never merges orbits."""
    failures = []
    rng = random.Random(70809)
    witness_space = build_witness(SUPPORTS["pair1"], 2, 1).space

    def random_stage():
        style = rng.randrange(3)
        if style == 0:
            size = rng.randint(2, 5)
            names = [f"e{i}" for i in range(size)]
            return make_space(
                names,
                {(names[i], names[j]): 1 for i, j in combinations(range(size), 2)},
            )
        if style == 1:
            size = rng.randint(2, 5)
            weights = {
                pair: rng.choice([Fraction(1), Fraction(2)])
                for pair in combinations(range(size), 2)
            }
            return path_metric_space(size, weights)
        return witness_space

    pairs_checked = 0
    related = 0
    while pairs_checked < 1000:
        stage = random_stage()
        pts = list(stage.points)
        support = set(rng.sample(pts, rng.randint(0, min(2, len(pts)))))
        arity = rng.randint(1, 2)
        t1 = tuple(rng.choice(pts) for _ in range(arity))
        t2 = tuple(rng.choice(pts) for _ in range(arity))
        pairs_checked += 1
        if not same_fix_orbit(stage, support, t1, t1):
            failures.append("reflexivity broke")
        forward = same_fix_orbit(stage, support, t1, t2)
        if forward != same_fix_orbit(stage, support, t2, t1):
            failures.append("symmetry broke")
        if forward:
            related += 1
            orbit = orbit_traces(stage, support, t2)
            if t1 not in orbit:
                failures.append("orbit_traces missed a related tuple")
            for t3 in orbit:
                if not same_fix_orbit(stage, support, t1, t3):
                    failures.append("transitivity broke")
        # monotonicity: pairs related over a larger support are related
        # over the smaller one, so enlarging the support never merges orbits
        extra = set(stage.points) - support
        if extra:
            bigger = support | {rng.choice(sorted(extra))}
            if same_fix_orbit(stage, bigger, t1, t2) and not forward:
                failures.append("monotonicity broke")
    if related < 50:
        failures.append(f"only {related} related pairs sampled")
    report_line(7, "orbit laws", not failures)
    assert not failures, failures
