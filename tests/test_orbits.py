import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from ordmet import (
    PartialIso,
    SpaceError,
    build_witness,
    make_space,
    new_builder,
    orbit_traces,
    same_fix_orbit,
)

from conftest import broken_table, path_metric_space, reference_orbit_traces


def equidistant(n):
    names = [f"e{i}" for i in range(n)]
    return make_space(
        names, {(names[i], names[j]): 1 for i, j in combinations(range(n), 2)}
    )


@pytest.fixture
def witness():
    return build_witness(make_space(["b0"], {}), 2, 1)


def test_shift_moves_chain_start(witness):
    space, b = witness.space, set(witness.support.points)
    assert same_fix_orbit(space, b, (witness.chain[0],), (witness.chain[1],))


def test_support_is_pinned(witness):
    space = witness.space
    b = witness.support.points[0]
    assert not same_fix_orbit(space, {b}, (b,), (witness.chain[0],))


def test_identity_always_related(witness):
    space = witness.space
    t = (witness.chain[2], witness.chain[5])
    assert same_fix_orbit(space, set(witness.support.points), t, t)


def test_length_mismatch_rejected(witness):
    with pytest.raises(SpaceError):
        same_fix_orbit(witness.space, set(), (witness.chain[0],), ())


def test_unknown_point_rejected(witness):
    with pytest.raises(SpaceError):
        same_fix_orbit(witness.space, set(), (999,), (witness.chain[0],))


def test_non_injective_map_rejected(witness):
    # two distinct sources to one target is not an isomorphism
    space = witness.space
    t1 = (witness.chain[0], witness.chain[1])
    t2 = (witness.chain[2], witness.chain[2])
    assert not same_fix_orbit(space, set(), t1, t2)


def test_orbit_of_chain_point_is_whole_chain(witness):
    """Oracle: pairwise same_fix_orbit scan over singleton tuples."""
    space, b = witness.space, set(witness.support.points)
    start = (witness.chain[0],)
    expected = {
        (p,)
        for p in space.points
        if same_fix_orbit(space, b, start, (p,))
    }
    assert expected == {(p,) for p in witness.chain}
    assert orbit_traces(space, b, start) == expected


def test_orbit_of_support_point_is_itself(witness):
    b = witness.support.points[0]
    assert orbit_traces(witness.space, {b}, (b,)) == {(b,)}


def test_orbit_in_equidistant_space_is_everything():
    space = equidistant(4)
    assert orbit_traces(space, set(), (space.points[0],)) == {
        (p,) for p in space.points
    }


def test_orbit_traces_contains_seed(witness):
    t = (witness.chain[1], witness.chain[3])
    assert t in orbit_traces(witness.space, set(witness.support.points), t)


def test_pair_orbits_respect_spacing(witness):
    space, b = witness.space, set(witness.support.points)
    t = (witness.chain[0], witness.chain[2])
    traces = orbit_traces(space, b, t)
    k = witness.k
    expected = {
        (witness.chain[i], witness.chain[i + 2]) for i in range(3 * k - 1)
    }
    assert traces == expected


def random_cases(count, seed=20250809):
    """Mixed stages with real symmetry so the laws are exercised
    non-vacuously."""
    rng = random.Random(seed)
    grid = [Fraction(1), Fraction(2)]
    cases = []
    witness = build_witness(make_space(["b0"], {}), 2, 1)
    for _ in range(count):
        style = rng.randrange(3)
        if style == 0:
            space = equidistant(rng.randint(2, 5))
        elif style == 1:
            size = rng.randint(2, 5)
            weights = {
                pair: rng.choice(grid) for pair in combinations(range(size), 2)
            }
            space = path_metric_space(size, weights)
        else:
            space = witness.space
        pts = list(space.points)
        support = set(rng.sample(pts, rng.randint(0, min(2, len(pts)))))
        arity = rng.randint(1, 2)
        t1 = tuple(rng.choice(pts) for _ in range(arity))
        t2 = tuple(rng.choice(pts) for _ in range(arity))
        cases.append((space, support, t1, t2))
    return cases


def test_equivalence_laws_on_random_cases():
    related = 0
    for space, support, t1, t2 in random_cases(400):
        assert same_fix_orbit(space, support, t1, t1)  # reflexive
        forward = same_fix_orbit(space, support, t1, t2)
        backward = same_fix_orbit(space, support, t2, t1)
        assert forward == backward  # symmetric
        if forward:
            related += 1
            for t3 in orbit_traces(space, support, t2):
                assert same_fix_orbit(space, support, t1, t3)  # transitive
    assert related > 20  # the sample really exercises the relation


def test_monotonicity_enlarging_support():
    for space, support, t1, t2 in random_cases(200, seed=7):
        extra = set(space.points) - support
        if not extra:
            continue
        bigger = support | {max(extra)}
        if same_fix_orbit(space, bigger, t1, t2):
            assert same_fix_orbit(space, support, t1, t2)


def test_orbit_members_extend_via_back_and_forth(witness):
    """Tuples in one orbit extend to larger partial isomorphisms through
    the homogeneity engine."""
    space, b = witness.space, tuple(witness.support.points)
    t1 = witness.chain[:-1]
    t2 = witness.chain[1:]
    assert same_fix_orbit(space, set(b), t1, t2)
    builder = new_builder(space)
    iso = PartialIso(b + t1, b + t2)
    for target in (witness.top, witness.chain[0]):
        extended = builder.back_and_forth_extend(iso, target, "forth")
        assert target in extended.dom
        assert builder.iso_ok(extended)
        iso = extended


def test_orbit_traces_matches_reference_on_broken_tables():
    """On tables with a zero distance between distinct points, the search
    that tests the support once per entry finds the set the per-node
    search finds; orbits beyond ``t`` itself and orbits of ``t`` alone both
    occur."""
    rng = random.Random("broken-orbits")
    seen = Counter()
    for trial in range(400):
        stage = broken_table(rng, "zero")
        support = rng.sample(stage.points, rng.randint(0, 2))
        t = tuple(rng.choice(stage.points) for _ in range(rng.randint(1, 3)))
        want = reference_orbit_traces(stage, support, t)
        assert orbit_traces(stage, support, t) == want, trial
        seen["larger" if len(want) > 1 else "alone"] += 1
    assert len(seen) == 2 and min(seen.values()) >= 10, seen


def test_orbit_traces_of_a_tuple_past_the_recursion_limit():
    """The search keeps one candidate iterator per placed entry on a stack
    of its own, so a 1,100-entry tuple is no deeper than a 2-entry one:
    the map from a constant tuple is defined exactly by its one image."""
    stage = make_space(["x", "y", "z"], {("x", "y"): 1, ("x", "z"): 2, ("y", "z"): 1})
    size = 1100
    assert orbit_traces(stage, [], (0,) * size) == {(p,) * size for p in stage.points}
    assert orbit_traces(stage, [0], (0,) * size) == {(0,) * size}
