import random
from fractions import Fraction
from hashlib import sha256
from math import lcm

import pytest

from ordmet import (
    FinSpace,
    FuelExhaustedError,
    InfeasibleExtensionError,
    PartialIso,
    SpaceError,
    amalgamate,
    build_witness,
    canonical_iso,
    compose,
    diameter,
    enumerate_embeddings,
    make_space,
    new_builder,
    partial_iso_ok,
    shift_iso,
    serialize_space,
    validate,
)
import ordmet.limit
from ordmet.limit import store_bytes, tasks_of_weight

from conftest import (
    assert_complete_table,
    path_metric_space,
    reference_apply_auto,
    reference_column,
    reference_failures,
    reference_feasibility,
    reference_tasks_of_weight,
)

EMPTY = FinSpace((), {})


# -- PartialIso ----------------------------------------------------------------


def test_partial_iso_structure():
    iso = PartialIso((0, 1), (2, 3))
    assert iso.mapping == {0: 2, 1: 3}
    assert iso.inverse().mapping == {2: 0, 3: 1}
    assert len(iso) == 2
    with pytest.raises(ValueError):
        PartialIso((0,), (1, 2))
    with pytest.raises(ValueError):
        PartialIso((0, 0), (1, 2))
    with pytest.raises(ValueError):
        PartialIso((0, 1), (2, 2))


def test_compose_shift_twice():
    config = build_witness(make_space(["b0"], {}), 1, 1)
    shift = shift_iso(config)
    twice = compose(shift, shift)
    a0, a2 = config.chain[0], config.chain[2]
    assert twice.mapping[a0] == a2


def test_partial_iso_ok_checks_order_and_distance(k1_chain):
    pts = k1_chain.points
    builder = new_builder(k1_chain)
    for iso, ok in (
        (PartialIso((pts[0], pts[1]), (pts[1], pts[2])), True),
        (PartialIso((pts[0], pts[1]), (pts[0], pts[2])), False),
        (PartialIso((pts[0], pts[1]), (pts[1], pts[0])), False),
    ):
        assert partial_iso_ok(k1_chain, iso) == ok
        assert builder.iso_ok(iso) == ok


# -- builder basics --------------------------------------------------------------


def test_empty_seed_first_grow_adds_one_point():
    builder = new_builder(EMPTY)
    assert len(builder) == 0
    builder.grow(1)
    assert len(builder) == 1
    assert validate(builder.stage()).is_valid


def test_singleton_seed():
    builder = new_builder(make_space(["x"], {}))
    assert len(builder) == 1


def test_chain_seed_is_kept(k1_chain):
    builder = new_builder(k1_chain)
    assert canonical_iso(builder.stage(), k1_chain) is not None


def test_invalid_seed_rejected():
    broken = make_space(["p", "q", "r"], {("p", "q"): 1, ("q", "r"): 1, ("p", "r"): 3})
    with pytest.raises(SpaceError):
        new_builder(broken)


def test_grow_zero_is_identity():
    builder = new_builder(make_space(["x"], {}))
    before = builder.stage()
    builder.grow(0)
    assert canonical_iso(builder.stage(), before) is not None


def test_grow_negative_rejected():
    with pytest.raises(ValueError):
        new_builder(EMPTY).grow(-1)


def test_growth_is_strict_and_stages_validate():
    builder = new_builder(make_space(["x"], {}))
    sizes = []
    for _ in range(8):
        builder.grow(1)
        sizes.append(len(builder))
        assert validate(builder.stage()).is_valid
    assert sizes == [2, 3, 4, 5, 6, 7, 8, 9]


def test_stage_chain_property():
    """Each stage contains the previous one as an induced substructure with
    identical ids, distances and order."""
    builder = new_builder(EMPTY)
    previous = None
    for _ in range(25):
        builder.grow(1)
        snapshot = builder.stage()
        if previous is not None:
            induced = snapshot.subspace(previous.points)
            assert induced.points == previous.points
            for p, q in previous.pairs():
                assert induced.d(p, q) == previous.d(p, q)
        previous = snapshot


def test_growth_deterministic():
    b1 = new_builder(EMPTY).grow(12)
    b2 = new_builder(EMPTY).grow(12)
    s1, s2 = b1.stage(), b2.stage()
    assert s1.points == s2.points
    assert all(s1.d(p, q) == s2.d(p, q) for p, q in s1.pairs())


def _assert_reads_like_stage(builder):
    """The builder answers every read as its own snapshot does, and refuses
    an unknown point with SpaceError."""
    stage = builder.stage()
    assert len(builder) == len(stage)
    assert list(builder.pairs()) == list(stage.pairs())
    for p in stage.points:
        assert p in builder
        assert builder.position(p) == stage.position(p)
        assert builder.name(p) == stage.name(p)
        assert [builder.d(p, q) for q in stage.points] == [stage.d(p, q) for q in stage.points]
    unknown = max(builder.created, default=-1) + 1
    assert unknown not in builder
    for read in (builder.position, builder.name, lambda p: builder.d(p, p)):
        with pytest.raises(SpaceError):
            read(unknown)
    if len(builder):
        with pytest.raises(SpaceError):
            builder.d(stage.points[0], unknown)


def test_builder_reads_like_its_stage():
    builder = new_builder(make_space(["x"], {}))
    inserts = rescales = 0
    for _ in range(40):
        scale, before = builder._scale, builder.stage()
        table = {(p, q): before.d(p, q) for p in before.points for q in before.points}
        builder.grow(1)
        inserts += builder.position(builder.created[-1]) < len(builder) - 1
        rescales += builder._scale != scale
        _assert_reads_like_stage(builder)
        assert_complete_table(builder)
        assert_complete_table(before)
        # the snapshot taken before the step keeps its values, across a rescale too
        assert {pair: before.d(*pair) for pair in table} == table
        assert dict(before.entries) == {pair: table[pair] for pair in before.pairs()}
        assert all(builder.d(*pair) == value for pair, value in table.items())
    assert inserts and rescales, (inserts, rescales)

    rng = random.Random(11)
    size = len(builder)
    iso = PartialIso((builder.created[3],), (builder.created[7],))
    for t in range(12):
        target = rng.choice(builder.created)
        iso = builder.back_and_forth_extend(iso, target, "forth" if t % 2 == 0 else "back")
        _assert_reads_like_stage(builder)
    assert len(builder) > size


# -- realize ---------------------------------------------------------------------


def test_realize_empty_subset_uses_constant():
    builder = new_builder(make_space(["x", "y"], {("x", "y"): 3}))
    fresh = builder.realize({}, 0)
    assert builder.d(fresh, 0) == 4  # 1 + diameter
    assert builder.d(fresh, 1) == 4
    assert builder.position(fresh) == 2  # above everything
    assert validate(builder.stage()).is_valid


def test_realize_single_anchor():
    builder = new_builder(make_space(["x"], {}))
    fresh = builder.realize({0: Fraction(1, 2)}, 1)
    assert builder.d(fresh, 0) == Fraction(1, 2)
    assert validate(builder.stage()).is_valid


def test_realize_midpoint_revalidates(unit_pair):
    builder = new_builder(unit_pair)
    fresh = builder.realize({0: Fraction(1, 2), 1: Fraction(1, 2)}, 1)
    assert builder.position(fresh) == 1
    assert validate(builder.stage()).is_valid


def test_realize_infeasible_rejected(unit_pair):
    builder = new_builder(unit_pair)
    with pytest.raises(InfeasibleExtensionError):
        builder.realize({0: Fraction(1, 4), 1: Fraction(1, 4)}, 0)


def test_realize_matches_amalgamate_completion():
    """Dual route: the builder's incremental completion must equal gluing
    the stage with base+new over the base via amalgamate."""
    seed = make_space(
        ["w", "x", "y", "z"],
        {
            ("w", "x"): 1,
            ("w", "y"): 2,
            ("w", "z"): 2,
            ("x", "y"): 1,
            ("x", "z"): 2,
            ("y", "z"): 1,
        },
    )
    builder = new_builder(seed)
    stage_before = builder.stage()
    dvec = {1: Fraction(1, 2), 2: Fraction(3, 4)}
    fresh = builder.realize(dvec, 1)

    base = stage_before.subspace([1, 2])
    from ordmet import ExtensionType, extend_one_point

    extended = extend_one_point(base, ExtensionType(base, dvec, 1))
    new_in_ext = [p for p in extended.points if p not in base.points][0]
    glued, f_a, f_b = amalgamate(
        stage_before,
        extended,
        base,
        PartialIso(base.points, base.points),
        PartialIso(base.points, base.points),
    )
    for r in stage_before.points:
        assert builder.d(fresh, r) == glued.d(f_b(new_in_ext), f_a(r))


def test_realize_gap_respects_subset_order():
    chain = make_space(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2})
    builder = new_builder(chain)
    fresh = builder.realize({0: Fraction(1), 2: Fraction(1)}, 1)
    # gap 1 of the subset {a, c}: the new point lands just below c, above b
    assert builder.position(fresh) == 2
    assert [builder.position(p) for p in (0, 1, 2)] == [0, 1, 3]


def _lower_bound_escapes(space, dvec, new, points):
    """The lower triangle bound that realize leaves to its feasibility test,
    run as an oracle: the (anchor, point) pairs among ``points`` where the
    new point's distance falls under |d(anchor, point) - dvec[anchor]|."""
    return [(z, r) for z in dvec for r in points if abs(space.d(z, r) - dvec[z]) > space.d(new, r)]


def test_grown_columns_meet_every_lower_bound(monkeypatch):
    """Every column the fair schedule realizes in 200 points meets every
    anchor's lower bound against every point present before it."""
    realized = []
    realize = ordmet.limit.LimitBuilder.realize

    def recorded(self, dvec, gap):
        before = self.created
        new = realize(self, dvec, gap)
        realized.append((dvec, new, before))
        return new

    monkeypatch.setattr(ordmet.limit.LimitBuilder, "realize", recorded)
    stage = new_builder(EMPTY).grow(200).stage()
    assert len(realized) == 200 and sum(len(dvec) > 1 for dvec, _, _ in realized) >= 100
    for dvec, new, before in realized:
        assert _lower_bound_escapes(stage, dvec, new, before) == []


NEAR_2_70 = Fraction(2**70 - 35, 2**70 + 1)
OFFSETS = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(3, 11)]


def _random_feasible_dvec(rng, stage):
    """A Katetov function on a random subset: the distances from a stage
    point (or the larger of two) plus a positive offset whose denominator
    may be new to the stage."""
    sub = rng.sample(stage.points, rng.randint(0, min(4, len(stage))))
    anchors = rng.sample(stage.points, min(len(stage), rng.randint(1, 2)))
    if rng.random() < 0.1:
        offset = NEAR_2_70
    else:
        offset = rng.choice(OFFSETS) * rng.randint(1, 3)
    return {z: max(stage.d(a, z) for a in anchors) + offset for z in sub}


@pytest.mark.parametrize("seed", range(12))
def test_realize_matches_reference_column(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 6)
    weights = {
        (i, j): Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 6]))
        for i in range(size)
        for j in range(i + 1, size)
    }
    builder = new_builder(path_metric_space(size, weights))
    for _ in range(15):
        stage = builder.stage()
        dvec = _random_feasible_dvec(rng, stage)
        expected = reference_column(stage, dvec)
        fresh = builder.realize(dvec, rng.randint(0, len(dvec)))
        for r in stage.points:
            assert builder.d(fresh, r) == builder.d(r, fresh) == expected[r]
        assert _lower_bound_escapes(builder, dvec, fresh, stage.points) == []
        after = builder.stage()
        for p, q in stage.pairs():
            assert after.d(p, q) == stage.d(p, q)
    assert validate(builder.stage()).is_valid


NEW_DENOMINATORS = [d for d in range(7, 200) if all(d % k for k in range(2, d))] + [2**61 - 1]


def _request(rng, stage, scale, kind):
    """A request over 2 to 5 stage points whose values have a prime
    denominator new to the stage (``scale`` is not a multiple of it):
    "feasible", distances from an anchor plus an offset (a Katetov
    function); "upper", every value under half of every stage distance;
    "lower", the feasible request with one value past the diameter."""
    sub = rng.sample(stage.points, rng.randint(2, min(5, len(stage))))
    den = rng.choice([d for d in NEW_DENOMINATORS if scale % d])
    if kind == "upper":
        return {z: Fraction(rng.randint(1, 3), 1000 * den) for z in sub}
    anchor = rng.choice(stage.points)
    offset = rng.randint(0, 2) + Fraction(rng.randint(1, min(den - 1, 50)), den)
    dvec = {z: stage.d(anchor, z) + offset for z in sub}
    if kind == "lower":
        dvec[rng.choice(sub)] = 1 + diameter(stage) + Fraction(rng.randint(1, 3), den)
    return dvec


@pytest.mark.parametrize("seed", range(4))
def test_realize_matches_reference_feasibility_on_new_denominators(seed):
    """Requests whose denominators are new to the stage (so its rows are
    read times a factor above 1) against the slow oracle on the subspace:
    a refusal has the oracle's pair and message and leaves the stage as it
    was; a pass realizes the oracle's column."""
    rng = random.Random(seed)
    builder = new_builder(EMPTY).grow(rng.randint(20, 80))
    seen = {"feasible": 0, "upper": 0, "lower": 0}
    for kind in rng.sample(sorted(seen) * 12, 36):
        stage = builder.stage()
        dvec = _request(rng, stage, builder._scale, kind)
        assert lcm(builder._scale, *(v.denominator for v in dvec.values())) > builder._scale
        sub = sorted(dvec, key=stage.position)
        expected = reference_feasibility(stage.subspace(sub), dvec)
        gap = rng.randint(0, len(sub))
        if expected is None:
            column = reference_column(stage, dvec)
            fresh = builder.realize(dvec, gap)
            assert {r: builder.d(fresh, r) for r in stage.points} == column
            seen["feasible"] += 1
            continue
        with pytest.raises(InfeasibleExtensionError) as refused:
            builder.realize(dvec, gap)
        assert (refused.value.pair, str(refused.value)) == expected
        assert serialize_space(builder.stage()) == serialize_space(stage)
        seen["lower" if ": |" in expected[1] else "upper"] += 1
    assert min(seen.values()) >= 10, seen


def test_realize_refuses_a_nonpositive_value_before_any_pair():
    """A value that is not positive is refused with the dvec check's text,
    after the gap check and before any pair is read, even when a pair
    would refuse the request."""
    builder = new_builder(EMPTY).grow(12)
    a, b, c = builder.points[:3]
    cases = [
        ({a: Fraction(1), b: Fraction(0)}, f"dvec value for {b} must be positive, got 0"),
        ({a: Fraction(-1, 2)}, f"dvec value for {a} must be positive, got -1/2"),
        # (a, b) is infeasible at 1/1000 each; the dvec check comes first
        (
            {a: Fraction(1, 1000), b: Fraction(1, 1000), c: Fraction(-3, 7)},
            f"dvec value for {c} must be positive, got -3/7",
        ),
    ]
    before = serialize_space(builder.stage())
    for dvec, message in cases:
        with pytest.raises(SpaceError) as refused:
            builder.realize(dvec, 0)
        assert type(refused.value) is SpaceError and str(refused.value) == message
    with pytest.raises(SpaceError, match=r"^gap 4 outside 0\.\.3$"):
        builder.realize(cases[2][0], 4)
    assert serialize_space(builder.stage()) == before


def test_grow_builds_no_subspace(monkeypatch):
    """The schedule's requests are tested on the stage's own rows."""

    def refused(self, keep):
        raise AssertionError("subspace built")

    monkeypatch.setattr(ordmet.spaces._RowTable, "subspace", refused)
    assert len(new_builder(EMPTY).grow(60)) == 60


def test_realized_name_skips_every_taken_suffix():
    """The first new point of a two-point seed is ``u2``; with ``u2`` and
    ``u2_`` taken by the seed it is named ``u2__``."""
    builder = new_builder(make_space(["u2", "u2_"], {("u2", "u2_"): 1}))
    fresh = builder.realize({0: Fraction(1)}, 0)
    assert fresh == 2 and builder.names[fresh] == "u2__"
    later = builder.realize({}, 0)
    assert builder.names[later] == "u3"
    assert sorted(builder.stage().names.values()) == ["u2", "u2_", "u2__", "u3"]


# Digests of serialize_space(new_builder(empty).grow(N).stage()), recorded
# from the Fraction-dict builder this integer store replaced.
STAGE_SHA256 = {
    1: "c2d90660f0aaaa7e4c6f186a118aa8dc5b147c2b6a4334089420c3d2d5363a8c",
    2: "e6c0a97107df3dcd3f248b420d4aaa8e7d3cf572f437f1d305971c4ea158b025",
    3: "68696b3ca0600aec686d8f192138758cba56e5f6002b5fb82f34362764837076",
    5: "3a05c70b6f9f226a0fdc6198e6d6a35d19742f4cac2d388cb37dab3cc6638dd6",
    10: "6bd542f2ef50e94e12727e168507fb4d34d34ea71fb9ec50be097067c0f9e511",
    25: "976637848b4e7c39b7088bdcc67699e485a6ba02dbcfadf9c303849e22a86633",
    50: "625c556fd88200a750e99badb07044a0c270d142cd6567de576b0b219f62a16b",
    100: "445dc68e47d0dcb8e256da501ae7d4ade18aa854d13bde1553a13ff1aba257c7",
    200: "daa30755c63141e4a605d1b4b1d4330434b23ddfb4fae2ea94edb636c9709e4f",
}


def _digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def test_grown_stages_are_byte_identical():
    for n, digest in STAGE_SHA256.items():
        stage = new_builder(EMPTY).grow(n).stage()
        assert _digest(serialize_space(stage)) == digest, n


def test_back_and_forth_stage_is_byte_identical():
    """Replays the sessions of acceptance criterion 5 (same rng seed) and
    pins the extended maps and the grown stage, recorded from the
    Fraction-dict builder."""
    builder = new_builder(EMPTY).grow(30)
    base = builder.stage()
    rng = random.Random(50607)
    lines = []
    for _ in range(100):
        dom = sorted(rng.sample(base.points, rng.randint(1, 3)), key=base.position)
        emb = rng.choice(list(enumerate_embeddings(base.subspace(dom), base)))
        iso = PartialIso(tuple(dom), tuple(emb(p) for p in dom))
        for t in range(5):
            target = rng.choice(builder.created)
            iso = builder.back_and_forth_extend(iso, target, "forth" if t % 2 == 0 else "back")
        lines.append(" ".join(f"{x}->{y}" for x, y in zip(iso.dom, iso.cod)))
    assert len(builder) == 412
    assert _digest("\n".join(lines)) == (
        "f0304d0d4b2b178b8e8a305b0a33a4e17a98c5545a77568036d21d0083de2e76"
    )
    assert _digest(serialize_space(builder.stage())) == (
        "07144ed45de635d02bc910ffce05ea6d6841ead4b4834f6842056d45697058e3"
    )


def test_grow_refuses_stage_over_store_budget(monkeypatch):
    monkeypatch.setattr(ordmet.limit, "STORE_BUDGET_BYTES", store_bytes(10))
    builder = new_builder(make_space(["x"], {})).grow(9)
    with pytest.raises(ValueError, match=f"{store_bytes(11)} bytes"):
        builder.grow(1)
    assert len(builder) == 10


# -- back and forth ---------------------------------------------------------------


def test_forth_noop_when_covered():
    builder = new_builder(make_space(["x"], {}))
    iso = PartialIso((0,), (0,))
    assert builder.back_and_forth_extend(iso, 0, "forth") == iso


def test_forth_from_empty_map_picks_first_created():
    builder = new_builder(make_space(["x", "y"], {("x", "y"): 1}))
    extended = builder.back_and_forth_extend(PartialIso((), ()), 1, "forth")
    assert extended.mapping == {1: 0}  # no constraints: first creation wins


def test_forth_on_witness_shift_realizes_beyond_chain():
    config = build_witness(make_space(["b0"], {}), 2, 1)
    builder = new_builder(config.space)
    shift = shift_iso(config)
    size_before = len(builder)
    extended = builder.back_and_forth_extend(shift, config.top, "forth")
    assert len(builder) == size_before + 1
    image = extended.mapping[config.top]
    assert builder.d(image, config.top) == Fraction(1, config.k)
    assert builder.position(image) > builder.position(config.top)
    support_point = config.support.points[0]
    assert builder.d(image, support_point) == config.far
    assert builder.iso_ok(extended)


def test_back_extends_codomain():
    config = build_witness(make_space(["b0"], {}), 1, 1)
    builder = new_builder(config.space)
    shift = shift_iso(config)
    a0 = config.chain[0]
    extended = builder.back_and_forth_extend(shift, a0, "back")
    assert a0 in extended.cod
    preimage = extended.inverse().mapping[a0]
    assert builder.d(preimage, a0) == Fraction(1, config.k)
    assert builder.position(preimage) < builder.position(a0)
    assert builder.iso_ok(extended)


def test_image_search_matches_reference_failures():
    """On random stages, random maps (valid or not) and targets outside the
    domain, an existing image is the first point in creation order that
    breaks nothing against any placed pair, and a point is realized (or
    refused as infeasible) only when no existing point qualifies.  Rejected
    candidates cover identity, order and distance failures each alone."""
    rng = random.Random(7301)
    alone = {"identity": 0, "order": 0, "distance": 0}
    for _ in range(300):
        size = rng.randint(1, 6)
        weights = {
            (i, j): Fraction(rng.randint(1, 3)) for i in range(size) for j in range(i + 1, size)
        }
        builder = new_builder(path_metric_space(size, weights)).grow(rng.randint(0, 6))
        created = builder.created
        k = rng.randint(1, min(3, len(created) - 1)) if len(created) > 1 else 0
        dom, cod = rng.sample(created, k), rng.sample(created, k)
        outside = [p for p in created if p not in dom]
        inside_cod = [p for p in outside if p in cod]
        target = rng.choice(inside_cod if inside_cod and rng.random() < 0.5 else outside)
        placed = list(zip(dom, cod))
        failures = {
            w: set().union(*(reference_failures(builder, builder, [(target, w), pq]) for pq in placed))
            for w in created
        }
        qualifying = [w for w in created if not failures[w]]
        try:
            image = builder._find_or_realize_image(PartialIso(tuple(dom), tuple(cod)), target)
        except InfeasibleExtensionError:
            image = None
        if image in created:
            assert qualifying and image == qualifying[0]
            rejected = created[: created.index(image)]
        else:
            assert not qualifying
            rejected = created
        for w in rejected:
            if len(failures[w]) == 1:
                alone[next(iter(failures[w]))] += 1
    assert min(alone.values()) >= 10, alone


# maps on the chain a0..a3 (ids 0..3) that the entry check must refuse
BROKEN_MAPS = {
    "order": ((0, 1), (1, 0)),
    "distance": ((0, 1), (0, 2)),
    "outside-cod": ((0,), (99,)),
    "outside-dom": ((99,), (0,)),
}


@pytest.mark.parametrize("side", ["forth", "back"])
@pytest.mark.parametrize("case", sorted(BROKEN_MAPS))
def test_back_and_forth_refuses_a_broken_map_before_any_step(k1_chain, case, side):
    """Negative control for the entry check, the one check of the map: a
    map broken in order, in distance or naming a point outside the stage
    is refused with the same error on both sides, before the stage grows."""
    builder = new_builder(k1_chain)
    assert builder.created == (0, 1, 2, 3)
    with pytest.raises(SpaceError, match="^partial isomorphism is not valid on the current stage$"):
        builder.back_and_forth_extend(PartialIso(*BROKEN_MAPS[case]), 3, side)
    assert len(builder) == 4
    builder.back_and_forth_extend(PartialIso((0, 1), (1, 2)), 3, side)  # a valid map extends


def test_bad_side_rejected():
    builder = new_builder(make_space(["x"], {}))
    with pytest.raises(ValueError):
        builder.back_and_forth_extend(PartialIso((), ()), 0, "sideways")


def test_entry_checks_refuse_a_point_outside_the_stage():
    """realize, back_and_forth_extend and apply_auto each name the point
    that is not in the stage, and the stage does not grow."""
    builder = new_builder(make_space(["x"], {}))
    with pytest.raises(SpaceError, match="dvec keys must be stage points"):
        builder.realize({0: Fraction(1), 5: Fraction(1)}, 0)
    with pytest.raises(SpaceError, match="target 5 not in stage"):
        builder.back_and_forth_extend(PartialIso((), ()), 5, "forth")
    with pytest.raises(SpaceError, match="point 5 not in stage"):
        builder.apply_auto(PartialIso((), ()), 5, 4)
    assert builder.created == (0,)


# -- apply_auto -------------------------------------------------------------------


def test_apply_auto_covered_point_no_growth():
    config = build_witness(make_space(["b0"], {}), 1, 1)
    builder = new_builder(config.space)
    shift = shift_iso(config)
    size_before = len(builder)
    for i in range(3 * config.k):
        assert builder.apply_auto(shift, config.chain[i], 1) == config.chain[i + 1]
    assert len(builder) == size_before


def test_apply_auto_shifts_chain_end_to_fresh_point():
    config = build_witness(make_space(["b0"], {}), 2, 1)
    builder = new_builder(config.space)
    shift = shift_iso(config)
    image = builder.apply_auto(shift, config.top, 1)
    assert image not in config.space.points
    assert builder.d(image, config.top) == Fraction(1, config.k)


def test_apply_auto_fuel_signal_and_consistency():
    builder = new_builder(
        make_space(["x", "y", "z"], {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 2})
    )
    empty_iso = PartialIso((), ())
    with pytest.raises(FuelExhaustedError):
        builder.apply_auto(empty_iso, 2, 1)
    first = builder.apply_auto(empty_iso, 2, 10)
    again = builder.apply_auto(empty_iso, 2, 10)
    more = builder.apply_auto(empty_iso, 2, 20)
    assert first == again == more


def test_apply_auto_rejects_bad_fuel():
    builder = new_builder(make_space(["x"], {}))
    with pytest.raises(ValueError):
        builder.apply_auto(PartialIso((), ()), 0, 0)


@pytest.mark.parametrize("case", sorted(BROKEN_MAPS))
def test_apply_auto_refuses_a_broken_map_before_any_step(k1_chain, case):
    """Negative control for apply_auto's one check of the map: a broken map
    whose domain misses x is refused with the entry check's error, before
    the stage grows."""
    builder = new_builder(k1_chain)
    with pytest.raises(SpaceError, match="^partial isomorphism is not valid on the current stage$"):
        builder.apply_auto(PartialIso(*BROKEN_MAPS[case]), 3, 5)
    assert len(builder) == 4


def _count_calls(monkeypatch, name):
    """Count calls of a LimitBuilder method, still running it."""
    calls = []
    method = getattr(ordmet.limit.LimitBuilder, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(ordmet.limit.LimitBuilder, name, counted)
    return calls


def test_apply_auto_returns_a_covered_image_without_a_check(k1_chain, monkeypatch):
    """A point already in the domain is answered from the map as given,
    broken or not: no check runs and the stage does not grow."""
    checks = _count_calls(monkeypatch, "iso_ok")
    builder = new_builder(k1_chain)
    assert builder.apply_auto(PartialIso(*BROKEN_MAPS["order"]), 0, 1) == 1
    assert builder.apply_auto(PartialIso(*BROKEN_MAPS["outside-cod"]), 0, 1) == 99
    assert checks == [] and len(builder) == 4


def test_apply_auto_checks_the_map_once(monkeypatch):
    """Twelve steps on a 30-point stage (ten of them realize a point) check
    the given map once; each later map is built from a checked one."""
    builder = new_builder(EMPTY).grow(30)
    iso = PartialIso((0, 1), (7, 1))
    assert builder.iso_ok(iso)
    checks = _count_calls(monkeypatch, "iso_ok")
    steps = _count_calls(monkeypatch, "_forth")
    assert builder.apply_auto(iso, 8, 12) == 8
    assert len(steps) == 12 and len(builder) == 40
    assert len(checks) == 1
    with pytest.raises(FuelExhaustedError):
        new_builder(EMPTY).grow(30).apply_auto(iso, 8, 11)


def _outcome(call, *args):
    try:
        return call(*args)
    except (SpaceError, FuelExhaustedError, InfeasibleExtensionError) as exc:
        return type(exc), str(exc)


def test_apply_auto_matches_the_stepwise_reference():
    """On seeded stages, maps (an embedding of a random subspace, or random
    pairs that may break it), points and fuel, apply_auto answers, refuses
    and grows the stage exactly as a loop of public back_and_forth_extend
    steps does.  The cases answer, refuse a broken map and run out of fuel,
    each at least five times."""
    outcomes = []
    for seed in range(6):
        rng = random.Random(9100 + seed)
        size = rng.randint(8, 20)
        fast, slow = new_builder(EMPTY).grow(size), new_builder(EMPTY).grow(size)
        base = fast.stage()
        for _ in range(12):
            dom = sorted(rng.sample(base.points, rng.randint(0, 3)), key=base.position)
            if rng.random() < 0.8:
                emb = rng.choice(list(enumerate_embeddings(base.subspace(dom), base)))
                cod = [emb(p) for p in dom]
            else:
                cod = rng.sample(base.points, len(dom))
            iso = PartialIso(tuple(dom), tuple(cod))
            x, fuel = rng.choice(fast.created[:6]), rng.randint(1, 14)
            expected = _outcome(reference_apply_auto, slow, iso, x, fuel)
            assert _outcome(fast.apply_auto, iso, x, fuel) == expected
            assert serialize_space(fast.stage()) == serialize_space(slow.stage())
            outcomes.append(expected[0] if isinstance(expected, tuple) else int)
    assert all(outcomes.count(kind) >= 5 for kind in (int, SpaceError, FuelExhaustedError))


# -- schedule fairness -------------------------------------------------------------


def test_task_levels_are_disjoint_and_sorted():
    seen = set()
    for w in range(8):
        level = tasks_of_weight(w)
        for task in level:
            weight = (
                len(task.subset)
                + sum(task.subset)
                + sum(task.rational_indices)
                + task.gap
            )
            assert weight == w
            assert task not in seen
            seen.add(task)
        keys = [
            (len(t.subset), t.subset, t.rational_indices, t.gap) for t in level
        ]
        assert keys == sorted(keys)


def test_tasks_of_weight_matches_the_generate_and_sort_reference():
    for w in range(17):
        assert tasks_of_weight(w) == reference_tasks_of_weight(w), w


SCHEDULE_SEEDS = {
    "empty": EMPTY,
    "one-point": make_space(["x"], {}),
    "chain-3": make_space(
        ["a0", "a1", "a2"], {("a0", "a1"): 1, ("a1", "a2"): 1, ("a0", "a2"): 2}
    ),
    "constant-12": make_space(
        [f"c{i}" for i in range(12)],
        {(f"c{i}", f"c{j}"): 1 for i in range(12) for j in range(i + 1, 12)},
    ),
    "ids-7-3-11": FinSpace(
        (7, 3, 11), {(7, 3): Fraction(1), (3, 11): Fraction(2), (7, 11): Fraction(2)}
    ),
}


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS.values(), ids=SCHEDULE_SEEDS)
def test_every_drawn_task_names_existing_points(seed):
    """The schedule needs no waiting room: each task that grow draws names
    only creation indices of points that already exist."""
    builder = new_builder(seed)
    tasks, drawn = builder._tasks, []

    def checked():
        for task in tasks:
            assert max(task.subset, default=-1) < len(builder.created), task
            drawn.append(task)
            yield task

    builder._tasks = checked()
    builder.grow(1500)
    assert len(builder) == len(seed) + 1500 and len(drawn) >= 1500


def test_extension_progress_bound():
    """Every extension type over the first two created points with the first
    two enumerated distances is realized within a computable number of
    steps (all its tasks have weight <= 7; 160 steps clear that level)."""
    from itertools import product as iproduct

    from ordmet.rationals import calkin_wilf

    builder = new_builder(EMPTY)
    builder.grow(160)
    anchors = builder.created[:2]
    values = [calkin_wilf(0), calkin_wilf(1)]

    def witnessed(subset, dvec, gap):
        for x in builder.created:
            if x in subset:
                continue
            if any(builder.d(x, z) != dvec[z] for z in subset):
                continue
            below = sum(
                1 for z in subset if builder.position(z) < builder.position(x)
            )
            if below == gap:
                return True
        return False

    for size in range(0, 3):
        for subset in iproduct(*[anchors] * size):
            if len(set(subset)) != size:
                continue
            subset = tuple(sorted(set(subset)))
            for choice in iproduct(values, repeat=size):
                dvec = dict(zip(subset, choice))
                base = builder.stage().subspace(subset)
                from ordmet import extension_feasible

                if not extension_feasible(base, dvec):
                    continue
                for gap in range(size + 1):
                    assert witnessed(subset, dvec, gap), (subset, dvec, gap)
