"""Every map check against one oracle.

``agrees`` / ``preserves`` is the single identity, order and distance
predicate; ``embedding_ok``, ``canonical_iso``, ``partial_iso_ok``,
``LimitBuilder.iso_ok``, ``same_fix_orbit`` and ``orbit_traces`` are
compared with ``reference_preserves`` on seeded random maps, valid and
broken, and the broken ones must include maps that break exactly one
property.  ``agreeing``, the candidate filter of the orbit and image
searches, is compared with a filter by ``agrees_located`` on tables with a
zero distance.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from ordmet import (
    FinSpace,
    PartialIso,
    canonical_iso,
    embedding_ok,
    new_builder,
    orbit_traces,
    partial_iso_ok,
    same_fix_orbit,
)
from ordmet.spaces import agreeing, agrees, agrees_located, locate, preserves

from conftest import (
    broken_table,
    path_metric_space,
    reference_failures,
    reference_preserves,
)

GRIDS = [[1, 2], [1, 2], [Fraction(1, 2), 1, Fraction(3, 2)]]
ALL_KINDS = {"identity", "order", "distance"}


def random_space(rng, size):
    """A valid space: few distinct weights, so that many maps preserve
    distances and order or distances alone."""
    grid = rng.choice(GRIDS)
    weights = {pair: rng.choice(grid) for pair in combinations(range(size), 2)}
    return path_metric_space(size, weights)


def random_pairs(rng, x, y, most):
    return [(rng.choice(x.points), rng.choice(y.points)) for _ in range(rng.randint(0, most))]


def case_preserves(rng, builders=False):
    x = random_space(rng, rng.randint(1, 5))
    y = x if rng.random() < 0.5 else random_space(rng, rng.randint(1, 5))
    pairs = random_pairs(rng, x, y, 4)
    if builders:
        return preserves(new_builder(x), new_builder(y), pairs), reference_failures(x, y, pairs)
    return preserves(x, y, pairs), reference_failures(x, y, pairs)


def case_agrees(rng):
    x = random_space(rng, rng.randint(1, 5))
    y = x if rng.random() < 0.5 else random_space(rng, rng.randint(1, 5))
    (p, q), *placed = [(rng.choice(x.points), rng.choice(y.points))] + random_pairs(rng, x, y, 3)
    failures = set().union(*(reference_failures(x, y, [(p, q), pq2]) for pq2 in placed))
    return agrees(x, y, placed, p, q), failures


def case_embedding_ok(rng):
    y = random_space(rng, rng.randint(1, 5))
    x = y.subspace(rng.sample(y.points, rng.randint(1, len(y))))
    if rng.random() < 0.2:
        cod = x.points
    else:
        cod = tuple(rng.sample(y.points, len(x)))
    pairs = list(zip(x.points, cod))
    return embedding_ok(x, y, PartialIso(x.points, cod)), reference_failures(x, y, pairs)


def case_canonical_iso(rng):
    size = rng.randint(1, 4)
    x, y = random_space(rng, size), random_space(rng, size)
    pairs = list(zip(x.points, y.points))
    return canonical_iso(x, y) is not None, reference_failures(x, y, pairs)


def _random_iso(rng):
    """A grown stage and a random injective map between its points."""
    builder = new_builder(random_space(rng, rng.randint(1, 5))).grow(rng.randint(0, 3))
    stage = builder.stage()
    size = rng.randint(0, min(4, len(stage)))
    iso = PartialIso(tuple(rng.sample(stage.points, size)), tuple(rng.sample(stage.points, size)))
    return builder, stage, iso


def case_partial_iso_ok(rng):
    _, stage, iso = _random_iso(rng)
    return partial_iso_ok(stage, iso), reference_failures(stage, stage, list(zip(iso.dom, iso.cod)))


def case_iso_ok(rng):
    builder, stage, iso = _random_iso(rng)
    return builder.iso_ok(iso), reference_failures(stage, stage, list(zip(iso.dom, iso.cod)))


def case_same_fix_orbit(rng):
    stage = random_space(rng, rng.randint(2, 5))
    support = rng.sample(stage.points, rng.randint(0, 2))
    length = rng.randint(1, 3)
    t1 = tuple(rng.choice(stage.points) for _ in range(length))
    t2 = tuple(rng.choice(stage.points) for _ in range(length))
    pairs = [(b, b) for b in support] + list(zip(t1, t2))
    return same_fix_orbit(stage, support, t1, t2), reference_failures(stage, stage, pairs)


# (case, the properties a broken map of that caller can break alone)
CALLERS = {
    "preserves": (case_preserves, ALL_KINDS),
    "preserves-builder": (lambda rng: case_preserves(rng, builders=True), ALL_KINDS),
    "agrees": (case_agrees, ALL_KINDS),
    "embedding_ok": (case_embedding_ok, {"order", "distance"}),
    "canonical_iso": (case_canonical_iso, {"distance"}),
    "partial_iso_ok": (case_partial_iso_ok, {"order", "distance"}),
    "iso_ok": (case_iso_ok, {"order", "distance"}),
    "same_fix_orbit": (case_same_fix_orbit, ALL_KINDS),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_caller_matches_reference_preserves(caller):
    case, kinds = CALLERS[caller]
    rng = random.Random(f"preserves-{caller}")
    outcomes = Counter()
    for trial in range(300):
        got, failures = case(rng)
        assert got == (not failures), (trial, failures)
        outcomes["valid" if not failures else "broken"] += 1
        if len(failures) == 1:
            outcomes[next(iter(failures))] += 1
    assert outcomes["valid"] and outcomes["broken"]
    assert {kind for kind in ALL_KINDS if outcomes[kind]} == kinds


def test_identity_is_checked_where_distances_cannot_tell():
    """On a valid space a distance check also rejects every map that is not
    a well-defined injection.  On a broken table with a zero distance
    between distinct points only the identity check does."""
    flat = FinSpace((0, 1), {(0, 1): Fraction(0)})
    for placed, p, q in (([(0, 0)], 1, 0), ([(0, 0)], 0, 1)):
        assert not reference_preserves(flat, flat, placed + [(p, q)])
        assert not agrees(flat, flat, placed, p, q)
        assert not preserves(flat, flat, placed + [(p, q)])
    assert agrees(flat, flat, [(0, 0)], 1, 1)


BAD_MAPS = {
    "missing-point": {0: 0, 1: 1},
    "extra-point": {0: 0, 1: 1, 2: 2, 9: 3},
    "outside-target": {0: 0, 1: 1, 2: 9},
    "non-injective": {0: 0, 1: 3, 2: 3},
    "non-injective-flat": {0: 0, 1: 1, 2: 1},
}


@pytest.mark.parametrize("case", sorted(BAD_MAPS))
def test_embedding_ok_refuses_bad_maps_without_raising(case):
    """Not total or out of the target: False, not an error.  A map that
    is not injective is refused earlier, by the constructor, even into the
    flat target, where points 1 and 2 are at distance 0 apart and a
    distance check alone could not tell it from the identity."""
    target = FinSpace((0, 1, 2, 3), {(0, 1): 1, (0, 2): 1, (0, 3): 2, (1, 2): 0, (1, 3): 1, (2, 3): 1})
    source = target.subspace([0, 1, 2])
    mapping = BAD_MAPS[case]
    assert embedding_ok(source, target, PartialIso((0, 1, 2), (0, 1, 2)))
    if case.startswith("non-injective"):
        with pytest.raises(ValueError, match="^duplicate point in cod$"):
            PartialIso(tuple(mapping), tuple(mapping.values()))
        return
    assert embedding_ok(source, target, PartialIso(tuple(mapping), tuple(mapping.values()))) is False


def test_orbit_traces_matches_brute_force_scan():
    """Every tuple of the stage whose map from ``t`` (support fixed)
    passes the oracle, and no other; orbits beyond ``t`` itself and
    rejected candidates both occur."""
    rng = random.Random("orbit-traces")
    outcomes = Counter()
    for _ in range(60):
        stage = random_space(rng, rng.randint(2, 5))
        support = rng.sample(stage.points, rng.randint(0, 2))
        t = tuple(rng.choice(stage.points) for _ in range(rng.randint(1, 3)))
        fixed = [(b, b) for b in support]
        scan = {
            cand
            for cand in product(stage.points, repeat=len(t))
            if reference_preserves(stage, stage, fixed + list(zip(t, cand)))
        }
        assert orbit_traces(stage, support, t) == scan
        outcomes["larger"] += len(scan) > 1
        outcomes["rejected"] += len(scan) < len(stage) ** len(t)
    assert outcomes["larger"] and outcomes["rejected"]


def test_agreeing_keeps_what_agrees_located_accepts_on_broken_tables():
    """``agreeing`` returns the candidates that ``agrees_located`` accepts,
    in order, on tables with a zero distance between distinct points.  Its
    row lookup drops candidates, the call after it drops more, and some
    are accepted, each in many trials."""
    rng = random.Random("agreeing")
    seen = Counter()
    for trial in range(400):
        space = broken_table(rng, "zero")
        rows = space._rows

        def located(count):
            return locate(space, space, [(rng.choice(space.points), rng.choice(space.points)) for _ in range(count)])

        options, placed = located(rng.randint(0, 8)), located(rng.randint(0, 3))
        want = [here for here in options if agrees_located(rows, rows, 1, 1, here, placed)]
        assert agreeing(rows, options, placed) == want, trial
        seen["accepted"] += bool(want)
        if placed:
            _, _, xp0, yq0 = placed[0]
            narrowed = [here for here in options if rows[here[2]][xp0] == rows[here[3]][yq0]]
            seen["dropped"] += len(narrowed) < len(options)
            seen["dropped after"] += len(want) < len(narrowed)
    assert len(seen) == 3 and min(seen.values()) >= 10, seen
