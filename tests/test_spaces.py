import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from ordmet import (
    FinSpace,
    MissingDistanceError,
    SpaceError,
    ball_trace,
    canonical_iso,
    diameter,
    embedding_ok,
    enumerate_embeddings,
    make_space,
    validate,
)
from ordmet.spacefile import parse_space, serialize_space
from ordmet.spaces import locate, preserves

from conftest import (
    REFUSED_KINDS,
    assert_complete_table,
    broken_table,
    chain_space,
    path_metric_space,
    reference_d,
    reference_violations,
    valid_spaces,
)


def brute_force_pair_slots(space, dist):
    """Oracle for embedding a 2-point space: exhaustive scan over position
    pairs."""
    pts = space.points
    return [
        (i, j)
        for i, j in combinations(range(len(pts)), 2)
        if space.d(pts[i], pts[j]) == dist
    ]


# -- validate ----------------------------------------------------------------


def test_entries_read_the_rows_as_fractions():
    given, back, both = Fraction(2, 3), Fraction(3, 4), Fraction(1, 5)
    table = {
        (0, 1): 1,
        (0, 2): "3/4",
        (1, 2): given,
        (3, 0): back,
        (1, 3): both,
        (3, 1): Fraction(2, 10),
        (2, 3): 2,
        (2, 2): 0,
    }
    space = FinSpace((0, 1, 2, 3), table)
    # position pairs in order, a reversed key read forward, a pair given
    # both ways with one value read once, the zero diagonal left out
    want = {(0, 1): 1, (0, 2): Fraction(3, 4), (0, 3): back, (1, 2): given, (1, 3): both, (2, 3): 2}
    assert list(space.entries.items()) == list(want.items())
    assert [type(v) for v in space.entries.values()] == [Fraction] * 6
    assert space.d(2, 0) == Fraction(3, 4)  # a str value is parsed
    assert (space.d(1, 3), space.d(3, 1), space.d(2, 2)) == (both, both, 0)
    assert space.subspace(space.points).entries == want
    sub = space.subspace([3, 1, 2])
    assert sub.entries == {(1, 2): given, (1, 3): both, (2, 3): 2}
    assert (sub.d(3, 1), sub.d(2, 2)) == (both, 0)


def test_singleton_valid():
    assert validate(make_space(["x"], {})).is_valid


def test_triangle_violation_reported():
    space = make_space(["p", "q", "r"], {("p", "q"): 1, ("q", "r"): 1, ("p", "r"): 3})
    report = validate(space)
    assert not report.is_valid
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.kind == "triangle"
    assert violation.points == (0, 2, 1)  # far pair (p, r) through q


def test_k1_chain_valid(k1_chain):
    assert validate(k1_chain).is_valid
    assert len(k1_chain) == 4


def test_missing_pair_reported():
    """Construction names the first pair without a distance, in position
    order, whichever way round the other pairs are given."""
    with pytest.raises(MissingDistanceError, match=r"^no distance recorded for pair \(1, 2\)$"):
        FinSpace((0, 1, 2, 3), {(0, 1): 1, (0, 2): 1, (3, 0): 1})
    with pytest.raises(MissingDistanceError, match=r"^no distance recorded for pair \(2, 1\)$"):
        FinSpace((2, 0, 1), {(0, 2): 1})
    with pytest.raises(MissingDistanceError, match=r"pair \(0, 1\)$"):
        make_space(["x", "y", "z"], {("y", "z"): 1})


def test_asymmetry_reported():
    """A pair given both ways with two values is refused, naming the pair
    as its second key gives it; both ways with one value is accepted."""
    with pytest.raises(SpaceError, match=r"^pair \(1, 0\) is given two distances$") as refused:
        FinSpace((0, 1), {(0, 1): Fraction(1), (1, 0): Fraction(2)})
    assert type(refused.value) is SpaceError
    with pytest.raises(SpaceError, match="two distances"):
        make_space(["x", "y"], {("x", "y"): "1/2", ("y", "x"): "1/3"})
    space = FinSpace((0, 1), {(0, 1): "2/4", (1, 0): Fraction(1, 2)})
    assert (space.d(0, 1), space.d(1, 0)) == (Fraction(1, 2), Fraction(1, 2))


def test_bad_diagonal_reported():
    """A nonzero distance from a point to itself is refused; a zero one is
    accepted."""
    with pytest.raises(SpaceError, match=r"^nonzero distance from point 0 to itself$") as refused:
        FinSpace((0, 1), {(0, 1): Fraction(1), (0, 0): Fraction(1)})
    assert type(refused.value) is SpaceError
    with pytest.raises(SpaceError, match="to itself"):
        make_space(["x"], {("x", "x"): -1})
    space = FinSpace((0, 1), {(0, 0): 0, (0, 1): Fraction(1), (1, 1): "0/3"})
    assert validate(space).is_valid and space.d(1, 1) == 0


def test_broken_tables_of_three_kinds_are_refused():
    """``broken_table``'s kinds other than "zero" are tables the
    constructor refuses, each with its own error."""
    rng = random.Random("refused")
    for kind in REFUSED_KINDS * 20:
        with pytest.raises(SpaceError) as refused:
            broken_table(rng, kind)
        assert (type(refused.value) is MissingDistanceError) == (kind == "missing")
    assert not validate(broken_table(rng, "zero")).is_valid


def test_zero_distance_reported():
    space = FinSpace((0, 1), {(0, 1): Fraction(0)})
    assert [v.kind for v in validate(space).violations] == ["positivity"]


def test_duplicate_point_refused():
    with pytest.raises(SpaceError, match="listed twice"):
        FinSpace((0, 0, 1), {(0, 1): Fraction(1)})
    with pytest.raises(SpaceError, match="listed twice"):
        FinSpace((1, 0, 1), {})


def test_validate_pure():
    space = make_space(["p", "q", "r"], {("p", "q"): 1, ("q", "r"): 1, ("p", "r"): 3})
    assert validate(space) == validate(space)


# Mixed denominators, zero and negative values, and two denominators near
# 2^70 whose lcm is far beyond any fixed-width integer.
CANDIDATE_VALUES = [
    Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 3), Fraction(5, 7),
    Fraction(4), Fraction(0), Fraction(-1), Fraction(-2, 3),
    Fraction(1, 2**70 + 1), Fraction(2**71 + 3, 2**70 - 1),
]


def random_table(rng):
    """The points and the entries dict of a candidate table of 0-9 points:
    mostly a valid space, with missing pairs, asymmetric entries, a nonzero
    diagonal and out-of-range values mixed in at random rates."""
    size = rng.randint(0, 9)
    base = path_metric_space(
        size, {pair: rng.choice([1, 2, Fraction(3, 2)]) for pair in combinations(range(size), 2)}
    )
    entries = dict(base.entries)
    noise = rng.choice([0, 0.05, 0.2])
    for i, j in combinations(range(size), 2):
        roll = rng.random()
        if roll < noise:
            del entries[(i, j)]
        elif roll < 2 * noise:
            entries[(i, j)] = rng.choice(CANDIDATE_VALUES)
        elif roll < 3 * noise:
            entries[(j, i)] = rng.choice(CANDIDATE_VALUES)
        elif roll < 4 * noise:
            del entries[(i, j)]
            entries[(j, i)] = rng.choice(CANDIDATE_VALUES)
    if size and rng.random() < 0.2:
        entries[(0, 0)] = rng.choice(CANDIDATE_VALUES)
    return tuple(range(size)), entries


REFUSED_VIOLATIONS = {"identity", "missing", "symmetry"}


def test_validate_matches_reference_on_candidate_tables():
    """Construction raises exactly when the oracle reports a kind it
    refuses: ``MissingDistanceError`` naming the oracle's first missing
    pair when that is the only such kind, else ``SpaceError``.  Otherwise
    ``validate`` reports what the oracle reports."""
    rng = random.Random(2024)
    refused = failing = 0
    seen_kinds, reported = set(), set()
    cases = 1500
    for _ in range(cases):
        points, entries = random_table(rng)
        want = reference_violations(points, entries)
        kinds = {v.kind for v in want}
        seen_kinds |= kinds
        if kinds & REFUSED_VIOLATIONS:
            with pytest.raises(SpaceError) as exc:
                FinSpace(points, entries)
            if kinds & REFUSED_VIOLATIONS == {"missing"}:
                pair = next(v.points for v in want if v.kind == "missing")
                assert type(exc.value) is MissingDistanceError
                assert str(exc.value) == f"no distance recorded for pair {pair}"
            else:
                assert type(exc.value) is SpaceError
            refused += 1
            continue
        violations = validate(FinSpace(points, entries)).violations
        assert violations == want
        failing += bool(violations)
        reported |= kinds
    assert refused >= cases // 4 and failing >= 30, (refused, failing)
    assert seen_kinds == REFUSED_VIOLATIONS | reported and reported == {"positivity", "triangle"}


def test_rows_resolve_like_the_given_table():
    """``d`` on every ordered pair and ``entries`` on every position pair
    match the table as given, on every candidate table the constructor
    accepts: pairs given both ways with one value, a zero diagonal entry,
    huge denominators and values that are not positive among them."""
    rng = random.Random(808)
    seen = Counter()
    for _ in range(600):
        points, entries = random_table(rng)
        try:
            space = FinSpace(points, entries)
        except SpaceError:
            seen["refused"] += 1
            continue
        for p in points:
            for q in points:
                assert space.d(p, q) == reference_d(entries, p, q)
        view = space.entries
        assert list(view.items()) == [(pair, reference_d(entries, *pair)) for pair in combinations(points, 2)]
        assert all(type(v) is Fraction for v in view.values())
        seen["both ways"] += any(p != q and (q, p) in entries for p, q in entries)
        seen["diagonal"] += any(p == q for p, q in entries)
        seen["huge"] += any(v.denominator > 2**64 for v in entries.values())
        seen["nonpositive"] += any(v <= 0 for v in entries.values())
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_subspace_keeps_the_given_table_among_kept_points():
    rng = random.Random(909)
    subspaces = 0
    for _ in range(300):
        points, entries = random_table(rng)
        keep = set(rng.sample(points, rng.randint(0, len(points))))
        try:
            space = FinSpace(points, entries)
        except SpaceError:
            continue
        sub = space.subspace(keep)
        kept = {(p, q): v for (p, q), v in entries.items() if p in keep and q in keep}
        assert sub.points == tuple(p for p in points if p in keep)
        assert_complete_table(sub)
        assert sub.entries == FinSpace(sub.points, kept).entries
        assert validate(sub) == validate(FinSpace(sub.points, kept))
        for p in keep:
            for q in keep:
                assert sub.d(p, q) == reference_d(kept, p, q)
        subspaces += 1
    assert subspaces >= 100


def test_parsed_and_sliced_spaces_view_the_position_pairs():
    stage = parse_space(serialize_space(chain_space(1)))
    assert list(stage.entries) == list(combinations(stage.points, 2))
    assert (1, 0) not in stage.entries and stage.entries.get((1, 0)) is None
    assert stage.entries[(0, 3)] == 3 and (2, 2) not in stage.entries
    sub = stage.subspace([0, 2, 3])
    assert dict(sub.entries) == {(0, 2): 2, (0, 3): 3, (2, 3): 1}


def test_equal_scaled_ints_over_different_scales_are_told_apart():
    """x stores 1/2 over 2 and y stores 1/3 over 3: both rows hold the int
    1, and only the scales tell the values apart."""
    x = FinSpace((0, 1), {(0, 1): Fraction(1, 2)})
    y = FinSpace((0, 1), {(0, 1): Fraction(1, 3)})
    assert x._rows[0][1] == y._rows[0][1] == 1
    assert list(enumerate_embeddings(x, y)) == []
    assert canonical_iso(x, y) is None
    assert not preserves(x, y, [(0, 0), (1, 1)])
    # the same values over different scales still match
    z = make_space(["a", "b", "c"], {("a", "b"): "1/3", ("a", "c"): "1/2", ("b", "c"): "1/2"})
    assert [tuple(map(z.position, e.cod)) for e in enumerate_embeddings(x, z)] == [(0, 2), (1, 2)]
    assert preserves(x, z, [(0, 1), (1, 2)])


def test_one_long_side_fails_once_per_third_point():
    rng = random.Random(5)
    size = 12
    names = [f"r{i}" for i in range(size)]
    dists = {
        (names[i], names[j]): rng.choice([1, Fraction(3, 2), 2])
        for i, j in combinations(range(size), 2)
    }
    dists[(names[3], names[8])] = 5
    space = make_space(names, dists)
    violations = validate(space).violations
    table = {(names.index(a), names.index(b)): Fraction(v) for (a, b), v in dists.items()}
    assert violations == reference_violations(space.points, table)
    lines = [v.describe(space) for v in violations]
    assert len(lines) == size - 2
    assert all(line.startswith("triangle r3 r8 ") for line in lines)


# -- canonical_iso -------------------------------------------------------------


def test_iso_between_unit_pairs(unit_pair):
    other = make_space(["x", "y"], {("x", "y"): 1})
    emb = canonical_iso(unit_pair, other)
    assert emb is not None
    assert emb.mapping == {0: 0, 1: 1}
    assert embedding_ok(unit_pair, other, emb)


def test_iso_distance_mismatch(unit_pair):
    other = make_space(["x", "y"], {("x", "y"): 2})
    assert canonical_iso(unit_pair, other) is None


def test_iso_identity(k1_chain):
    emb = canonical_iso(k1_chain, k1_chain)
    assert emb is not None
    assert all(emb(p) == p for p in k1_chain.points)


def test_iso_size_mismatch(unit_pair, k1_chain):
    assert canonical_iso(unit_pair, k1_chain) is None


# -- enumerate_embeddings ------------------------------------------------------


def test_single_point_embeds_everywhere(k1_chain):
    single = make_space(["x"], {})
    found = list(enumerate_embeddings(single, k1_chain))
    assert len(found) == len(k1_chain)
    assert [tuple(map(k1_chain.position, emb.cod)) for emb in found] == [(0,), (1,), (2,), (3,)]


def test_far_pair_has_no_embedding(k1_chain):
    pair = make_space(["x", "y"], {("x", "y"): 5})
    assert brute_force_pair_slots(k1_chain, Fraction(5)) == []
    assert list(enumerate_embeddings(pair, k1_chain)) == []


def test_unit_pair_embeds_three_ways(unit_pair, k1_chain):
    assert brute_force_pair_slots(k1_chain, Fraction(1)) == [(0, 1), (1, 2), (2, 3)]
    found = list(enumerate_embeddings(unit_pair, k1_chain))
    assert [tuple(map(k1_chain.position, emb.cod)) for emb in found] == [(0, 1), (1, 2), (2, 3)]


def test_embeddings_lexicographic_and_preserving():
    source = make_space(["x", "y"], {("x", "y"): 2})
    target = chain_space(1, top=5)
    found = list(enumerate_embeddings(source, target))
    tuples = [tuple(map(target.position, emb.cod)) for emb in found]
    assert tuples == sorted(tuples)
    assert tuples == brute_force_pair_slots(target, Fraction(2))
    assert all(embedding_ok(source, target, emb) for emb in found)


def test_chain_past_the_recursion_limit_embeds_into_itself_as_the_identity():
    """The search keeps one candidate iterator per placed point on a stack
    of its own, so a 1,200-point source is no deeper than a 2-point one."""
    size = 1200
    rows = [[abs(i - j) for j in range(size)] for i in range(size)]
    chain = FinSpace._of_rows(range(size), rows, 1, {})
    found = list(enumerate_embeddings(chain, chain))
    assert len(found) == 1
    assert found[0].mapping == {p: p for p in range(size)}


@settings(max_examples=60, deadline=None)
@given(valid_spaces(max_size=3), valid_spaces(max_size=4))
def test_embeddings_match_brute_force(x, y):
    """Oracle: filter every increasing position tuple by distance equality."""
    expected = []
    for positions in combinations(range(len(y)), len(x)):
        chosen = [y.points[t] for t in positions]
        if all(
            x.d(x.points[i], x.points[j]) == y.d(chosen[i], chosen[j])
            for i, j in combinations(range(len(x)), 2)
        ):
            expected.append(positions)
    found = [tuple(map(y.position, emb.cod)) for emb in enumerate_embeddings(x, y)]
    assert found == expected


@settings(max_examples=60, deadline=None)
@given(valid_spaces(max_size=3), valid_spaces(max_size=4))
def test_embedding_ok_accepts_every_map_the_searches_return(x, y):
    """Each embedding is defined on x's points in order and passes
    ``embedding_ok``, and so does the canonical isomorphism of x onto its
    image."""
    for emb in enumerate_embeddings(x, y):
        assert emb.dom == x.points
        assert embedding_ok(x, y, emb)
        image = y.subspace(emb.cod)
        iso = canonical_iso(x, image)
        assert iso is not None and embedding_ok(x, image, iso)


@settings(max_examples=60, deadline=None)
@given(valid_spaces(max_size=3), valid_spaces(max_size=3))
def test_iso_agrees_with_bidirectional_embeddings(x, y):
    iso = canonical_iso(x, y)
    forward = any(len(e.mapping) == len(y) for e in enumerate_embeddings(x, y))
    backward = any(len(e.mapping) == len(x) for e in enumerate_embeddings(y, x))
    assert (iso is not None) == (forward and backward)


# -- diameter / ball_trace -----------------------------------------------------


def test_diameter_examples(k1_chain):
    assert diameter(make_space(["x"], {})) == 0
    assert diameter(k1_chain) == 3
    assert diameter(make_space(["x", "y"], {("x", "y"): "7/2"})) == Fraction(7, 2)
    with pytest.raises(SpaceError):
        diameter(FinSpace((), {}))


def test_ball_trace_tail_example():
    # chain step 1/2 (k=2), center the end, radius 1: indices above 4
    chain = chain_space(2)
    center = chain.point_named("a6")
    ball = ball_trace(chain, center, Fraction(1))
    assert {chain.names[p] for p in ball} == {"a5", "a6"}


def test_ball_trace_half_radius_isolates(k1_chain):
    for p in k1_chain.points:
        assert ball_trace(k1_chain, p, Fraction(1, 2)) == frozenset({p})


def test_ball_trace_big_radius_everything(k1_chain):
    assert ball_trace(k1_chain, k1_chain.points[0], Fraction(100)) == frozenset(
        k1_chain.points
    )


def test_ball_trace_is_strict():
    chain = chain_space(2)
    center = chain.point_named("a6")
    ball = ball_trace(chain, center, Fraction(1, 2))
    # a5 sits at exactly 1/2 and must stay out
    assert {chain.names[p] for p in ball} == {"a6"}


def test_ball_trace_unknown_center(k1_chain):
    with pytest.raises(SpaceError):
        ball_trace(k1_chain, 99, Fraction(1))
    with pytest.raises(SpaceError):
        ball_trace(k1_chain, k1_chain.points[0], Fraction(0))


# -- misc container behavior ---------------------------------------------------


def test_subspace_inherits_order_and_distances(k1_chain):
    sub = k1_chain.subspace([k1_chain.points[0], k1_chain.points[2]])
    assert sub.points == (k1_chain.points[0], k1_chain.points[2])
    assert sub.d(*sub.points) == 2


def test_unknown_point_rejected_at_construction():
    with pytest.raises(SpaceError):
        FinSpace((0, 1), {(0, 7): Fraction(1)})



def test_locate_refuses_an_unknown_point():
    chain = chain_space(1)
    assert locate(chain, chain, [(0, 1)]) == [(0, 1, 0, 1)]
    with pytest.raises(SpaceError, match="point 9 not in space"):
        locate(chain, chain, [(0, 1), (9, 2)])
    with pytest.raises(SpaceError, match="point 9 not in space"):
        locate(chain, chain, [(1, 9)])
