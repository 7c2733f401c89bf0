import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmet import (
    AmalgamError,
    ExtensionType,
    FinSpace,
    InfeasibleExtensionError,
    PartialIso,
    SpaceError,
    amalgamate,
    canonical_iso,
    embedding_ok,
    enumerate_embeddings,
    extend_one_point,
    extension_feasible,
    make_space,
    validate,
)
import ordmet.amalgam
from ordmet.amalgam import feasibility_violation, shortest_path_column

from conftest import (
    assert_complete_table,
    path_metric_space,
    reference_extend_one_point,
    reference_feasibility,
    reference_amalgamate,
    reference_glued_order,
    reference_shortest_path_column,
)


def grid_spaces(max_size, grid):
    """Every valid space up to max_size with distances from grid (brute
    enumeration; the independent oracle used across this module)."""
    out = []
    for size in range(1, max_size + 1):
        pairs = list(combinations(range(size), 2))
        for values in product(grid, repeat=len(pairs)):
            entries = {pair: Fraction(v) for pair, v in zip(pairs, values)}
            space = FinSpace(tuple(range(size)), entries)
            if validate(space).is_valid:
                out.append(space)
    return out


# -- extension feasibility -----------------------------------------------------


def test_feasible_midpoint(unit_pair):
    assert extension_feasible(unit_pair, {0: Fraction(1, 2), 1: Fraction(1, 2)})


def test_infeasible_too_close(unit_pair):
    assert not extension_feasible(unit_pair, {0: Fraction(1, 4), 1: Fraction(1, 4)})


def test_feasible_boundary(unit_pair):
    assert extension_feasible(unit_pair, {0: Fraction(1, 2), 1: Fraction(3, 2)})


def test_missing_dvec_entry(unit_pair):
    with pytest.raises(SpaceError):
        extension_feasible(unit_pair, {0: Fraction(1)})


def test_nonpositive_dvec_rejected(unit_pair):
    with pytest.raises(SpaceError):
        extension_feasible(unit_pair, {0: Fraction(0), 1: Fraction(1)})


def test_unknown_dvec_point_rejected(unit_pair):
    with pytest.raises(SpaceError, match="dvec names unknown point 5"):
        extension_feasible(unit_pair, {0: Fraction(1), 1: Fraction(1), 5: Fraction(1)})


def test_fresh_name_skips_every_taken_suffix():
    """The new point 3 is named p3; with p3, p3_2 and p3_3 taken it is
    named p3_4."""
    base = make_space(
        ["p3", "p3_2", "p3_3"],
        {("p3", "p3_2"): 1, ("p3_2", "p3_3"): 1, ("p3", "p3_3"): 1},
    )
    grown = extend_one_point(base, ExtensionType(base, {0: 1, 1: 1, 2: 1}, 3))
    assert grown.names[3] == "p3_4"


def _feasibility_outcome(check, base, dvec):
    """What ``check`` answers, or the type and text of what it raises."""
    try:
        return check(base, dvec)
    except SpaceError as exc:
        return type(exc), str(exc)


def _refusal_kind(outcome):
    if outcome is None:
        return "pass"
    if isinstance(outcome[0], type):
        return "raised"
    return "lower" if outcome[1].split(": ", 1)[1].startswith("|") else "upper"


def test_feasibility_matches_reference_on_mixed_denominators():
    """The int comparison answers like the Fraction loop, refusal text
    included, on passing dvecs and dvecs that break the upper or the lower
    bound."""
    rng = random.Random(4242)
    denominators = [1, 2, 3, 4, 5, 6, 7, 9]
    kinds = set()
    for _ in range(300):
        size = rng.randint(1, 5)
        weights = {
            (i, j): Fraction(rng.randint(1, 20), rng.choice(denominators))
            for i in range(size)
            for j in range(i + 1, size)
        }
        base = path_metric_space(size, weights)
        anchor = rng.choice(base.points)
        dvec = {}
        for p in base.points:
            near = base.d(anchor, p) if p != anchor else Fraction(1)
            offset = Fraction(rng.randint(0, 8), rng.choice(denominators))
            dvec[p] = max(near + offset * rng.choice([-1, 1]), Fraction(1, 13))
        expected = _feasibility_outcome(reference_feasibility, base, dvec)
        assert _feasibility_outcome(feasibility_violation, base, dvec) == expected
        kinds.add(_refusal_kind(expected))
    assert kinds == {"pass", "upper", "lower"}, kinds


def test_feasibility_refuses_the_first_failing_pair_of_the_points_given():
    base = FinSpace((0, 1, 2), {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    dvec = {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1)}
    assert feasibility_violation(base, dvec)[0] == (0, 1)  # refused before (1, 2)
    assert feasibility_violation(base, {0: 1, 1: 1, 2: Fraction(1, 4)})[0] == (1, 2)
    # over a subset of the table's points, only their pairs are tested
    assert feasibility_violation(base, dvec, (0, 2)) is None
    assert feasibility_violation(base, dvec, (1, 2))[0] == (1, 2)


# -- extend_one_point ------------------------------------------------------------


def test_extend_singleton():
    single = make_space(["x"], {})
    grown = extend_one_point(single, ExtensionType(single, {0: Fraction(1)}, 1))
    assert len(grown) == 2
    assert grown.points[0] == 0  # base point stays first
    assert grown.d(*grown.points) == 1
    assert validate(grown).is_valid


def test_extend_midpoint_slot(unit_pair):
    ext = ExtensionType(unit_pair, {0: Fraction(1, 2), 1: Fraction(1, 2)}, 1)
    grown = extend_one_point(unit_pair, ext)
    assert validate(grown).is_valid
    assert grown.points[1] == 2  # new point sits in the middle gap
    assert grown.d(0, 2) == Fraction(1, 2)
    assert grown.d(1, 2) == Fraction(1, 2)


def test_extend_infeasible_names_pair(unit_pair):
    ext = ExtensionType(unit_pair, {0: Fraction(1, 4), 1: Fraction(1, 4)}, 0)
    with pytest.raises(InfeasibleExtensionError) as err:
        extend_one_point(unit_pair, ext)
    assert err.value.pair == (0, 1)


def test_bad_slot_rejected(unit_pair):
    with pytest.raises(SpaceError):
        ExtensionType(unit_pair, {0: Fraction(1), 1: Fraction(1)}, 3)


def test_extend_refuses_a_slot_outside_its_own_base():
    """The extension's slot was checked against ``ext.base``, a larger
    space here; ``extend_one_point`` places the point in its own base."""
    single = make_space(["x"], {})
    wide = make_space(["x", "y", "z"], {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 2})
    with pytest.raises(SpaceError, match=r"^slot 3 outside 0\.\.1$"):
        extend_one_point(single, ExtensionType(wide, {0: Fraction(1)}, 3))


def test_extend_one_point_matches_the_constructor_reference():
    """The copied rows with the new column inserted make the space the
    constructor makes of the base's entries and the new distances: the
    same points, names, rows and scale, at every slot of seeded bases with
    mixed denominators, ids out of order and a taken default name."""
    rng = random.Random(34)
    denominators = [1, 2, 3, 4, 6, 9]
    rescaled = 0
    for _ in range(120):
        size = rng.randint(0, 6)
        weights = {
            (i, j): Fraction(rng.randint(1, 12), rng.choice(denominators))
            for i, j in combinations(range(size + 1), 2)
        }
        whole = path_metric_space(size + 1, weights)  # the new point is its last
        ids = rng.sample(range(12), size)
        names = {p: rng.choice(["x", "y", f"p{max(ids, default=-1) + 1}"]) + str(i) for i, p in enumerate(ids)}
        if ids and rng.random() < 0.5:
            names[ids[0]] = f"p{max(ids) + 1}"
        entries = {(ids[i], ids[j]): whole.d(i, j) for i, j in combinations(range(size), 2)}
        base = FinSpace(ids, entries, names)
        dvec = {p: whole.d(i, size) for i, p in enumerate(ids)}
        for slot in range(size + 1):
            ext = ExtensionType(base, dvec, slot)
            grown, want = extend_one_point(base, ext), reference_extend_one_point(base, ext)
            assert_complete_table(grown)
            assert (grown.points, grown.names, grown._rows, grown._scale) == (
                want.points, want.names, want._rows, want._scale
            )
        rescaled += grown._scale != base._scale
    assert rescaled >= 10


def test_feasibility_matches_validation_oracle():
    """extension_feasible(base, dvec) iff the realized space validates, over
    a small exhaustive grid (the full sweep runs in the acceptance suite)."""
    grid = [Fraction(1, 2), Fraction(1)]
    for base in grid_spaces(2, grid):
        for values in product(grid, repeat=len(base)):
            dvec = dict(zip(base.points, values))
            for slot in range(len(base) + 1):
                ext = ExtensionType(base, dvec, slot)
                try:
                    grown = extend_one_point(base, ext)
                    realized_valid = validate(grown).is_valid
                except InfeasibleExtensionError:
                    realized_valid = False
                assert extension_feasible(base, dvec) == realized_valid


# -- amalgamate ------------------------------------------------------------------


def map_of(pairs: dict) -> PartialIso:
    return PartialIso(tuple(pairs), tuple(pairs.values()))


def embed_named(sub: FinSpace, sup: FinSpace, pairs: dict[str, str]) -> PartialIso:
    return map_of({sub.point_named(a): sup.point_named(b) for a, b in pairs.items()})


def test_amalgam_shortest_path_distance():
    # overlap {z}; p at 1 from z, q at 2 from z: glued distance must be 3,
    # the top of the feasible interval [|1-2|, 1+2]
    c = make_space(["z"], {})
    a = make_space(["z", "p"], {("z", "p"): 1})
    b = make_space(["z", "q"], {("z", "q"): 2})
    glued, f_a, f_b = amalgamate(
        a, b, c, embed_named(c, a, {"z": "z"}), embed_named(c, b, {"z": "z"})
    )
    assert Fraction(1) <= Fraction(3) <= Fraction(3)  # interval check
    assert glued.d(f_a(a.point_named("p")), f_b(b.point_named("q"))) == 3
    assert validate(glued).is_valid


def test_amalgam_absorbs_contained_side():
    a = make_space(["x", "y", "z"], {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 2})
    b = make_space(["x", "y"], {("x", "y"): 1})
    glued, f_a, f_b = amalgamate(
        a, b, b, embed_named(b, a, {"x": "x", "y": "y"}), PartialIso((0, 1), (0, 1))
    )
    assert canonical_iso(glued, a) is not None
    assert f_a.mapping == {p: p for p in a.points}


def test_amalgam_of_identical_spans():
    a = make_space(["x", "y"], {("x", "y"): 1})
    ident = PartialIso((0, 1), (0, 1))
    glued, _, _ = amalgamate(a, a, a, ident, ident)
    assert canonical_iso(glued, a) is not None


def test_amalgam_empty_overlap_constant():
    a = make_space(["x", "y"], {("x", "y"): 3})
    b = make_space(["u"], {})
    empty = FinSpace((), {})
    glued, f_a, f_b = amalgamate(a, b, empty, PartialIso((), ()), PartialIso((), ()))
    # cross distance is 1 + max(diam a, diam b) = 4; a-side precedes b-side
    assert glued.d(f_a(0), f_b(0)) == 4
    assert glued.points[:2] == (0, 1)
    assert glued.position(f_b(0)) == 2
    assert validate(glued).is_valid


def test_amalgam_commutes_and_overlaps_exactly():
    c = make_space(["z1", "z2"], {("z1", "z2"): 2})
    a = make_space(
        ["z1", "p", "z2"],
        {("z1", "p"): 1, ("p", "z2"): 1, ("z1", "z2"): 2},
    )
    b = make_space(
        ["z1", "z2", "q"],
        {("z1", "z2"): 2, ("z1", "q"): 3, ("z2", "q"): 1},
    )
    e_a = embed_named(c, a, {"z1": "z1", "z2": "z2"})
    e_b = embed_named(c, b, {"z1": "z1", "z2": "z2"})
    glued, f_a, f_b = amalgamate(a, b, c, e_a, e_b)
    for z in c.points:
        assert f_a(e_a(z)) == f_b(e_b(z))
    assert frozenset(f_a.cod) & frozenset(f_b.cod) == frozenset(f_a(e_a(z)) for z in c.points)
    assert embedding_ok(a, glued, f_a) and embedding_ok(b, glued, f_b)
    # q's completed distance to p: min over z of path sums = min(1+3, 1+1)
    assert glued.d(f_a(a.point_named("p")), f_b(b.point_named("q"))) == 2


def test_amalgam_rejects_non_preserving_embedding():
    c = make_space(["z"], {})
    a = make_space(["z", "p"], {("z", "p"): 1})
    b = make_space(["z", "q"], {("z", "q"): 2})
    # c's pair at 5 goes to a's pair at 1
    broken = PartialIso((0, 1), (0, 1))
    with pytest.raises(AmalgamError):
        amalgamate(a, b, make_space(["z", "w"], {("z", "w"): 5}), broken, broken)


def test_amalgam_order_rule_gap_interleaving():
    # overlap point in the middle; below it: a's low point then b's low point
    c = make_space(["z"], {})
    a = make_space(["lowa", "z", "higha"], {("lowa", "z"): 1, ("z", "higha"): 1, ("lowa", "higha"): 2})
    b = make_space(["lowb", "z", "highb"], {("lowb", "z"): 1, ("z", "highb"): 1, ("lowb", "highb"): 2})
    glued, f_a, f_b = amalgamate(
        a, b, c, embed_named(c, a, {"z": "z"}), embed_named(c, b, {"z": "z"})
    )
    ordered_names = [glued.names[p] for p in glued.points]
    assert ordered_names == ["lowa", "lowb", "z", "higha", "highb"]


def test_amalgam_reports_escaped_bound_when_embedding_check_is_skipped(monkeypatch):
    """Negative control: with the input-embedding check switched off, a
    non-isometric e_b (c says 4, b says 1) reaches the completion re-check,
    which must refuse it before the glued space is validated."""
    c = make_space(["z1", "z2"], {("z1", "z2"): 4})
    a = make_space(["z1", "z2"], {("z1", "z2"): 4})
    b = make_space(["z1", "z2", "q"], {("z1", "z2"): 1, ("z1", "q"): 1, ("z2", "q"): 1})
    e_a = e_b = PartialIso((0, 1), (0, 1))
    with pytest.raises(AmalgamError, match="e_b does not preserve structure"):
        amalgamate(a, b, c, e_a, e_b)
    monkeypatch.setattr(ordmet.amalgam, "preserves", lambda x, y, pairs: True)
    with pytest.raises(
        AmalgamError, match="cross distance 1 escapes the bound through overlap point z1"
    ):
        amalgamate(a, b, c, e_a, e_b)


# Spaces for the input checks: c has two points at distance 1, a and b each
# hold it with one more point.
BAD_INPUT_C = make_space(["z1", "z2"], {("z1", "z2"): 1})
BAD_INPUT_A = make_space(["z1", "p", "z2"], {("z1", "p"): 2, ("p", "z2"): 1, ("z1", "z2"): 1})
BAD_INPUT_B = make_space(["z1", "z2", "q"], {("z1", "z2"): 1, ("z1", "q"): 2, ("z2", "q"): 1})

# case: (bad e_a into BAD_INPUT_A, bad e_b into BAD_INPUT_B, message after the tag)
BAD_INPUTS = {
    "missing-point": ({0: 0}, {0: 0}, "is not defined exactly on the overlap space"),
    "extra-point": ({0: 0, 1: 2, 5: 1}, {0: 0, 1: 1, 5: 2}, "is not defined exactly on the overlap space"),
    "outside-target": ({0: 0, 1: 7}, {0: 0, 1: 7}, "does not land in its target"),
    "distance": ({0: 0, 1: 1}, {0: 0, 1: 2}, "does not preserve structure"),
    "order": ({0: 2, 1: 0}, {0: 1, 1: 0}, "does not preserve structure"),
    # the undefined-domain test comes first, then the landing test
    "missing-and-outside": ({0: 7}, {0: 7}, "is not defined exactly on the overlap space"),
    "outside-and-distance": ({0: 1, 1: 7}, {0: 2, 1: 7}, "does not land in its target"),
}


@pytest.mark.parametrize("side", ["e_a", "e_b"])
@pytest.mark.parametrize("case", [*BAD_INPUTS, "non-injective"])
def test_amalgam_refuses_each_bad_input_embedding(side, case):
    """Each input failure of e_a or e_b, the other embedding valid, raises
    its own message; with both broken, e_a's is raised.  A map that sends
    both overlap points to one point is refused earlier: it cannot be
    built."""
    if case == "non-injective":
        with pytest.raises(ValueError, match="^duplicate point in cod$"):
            map_of({0: 0, 1: 0} if side == "e_a" else {0: 1, 1: 1})
        return
    c, a, b = BAD_INPUT_C, BAD_INPUT_A, BAD_INPUT_B
    good_a, good_b = {0: 0, 1: 2}, {0: 0, 1: 1}
    bad_a, bad_b, message = BAD_INPUTS[case]
    maps = (bad_a, good_b) if side == "e_a" else (good_a, bad_b)
    e_a, e_b = map(map_of, maps)
    with pytest.raises(AmalgamError, match=f"^{side} {message}$"):
        amalgamate(a, b, c, e_a, e_b)
    if side == "e_b":
        with pytest.raises(AmalgamError, match="^e_a "):
            amalgamate(a, b, c, map_of(bad_a), e_b)
    amalgamate(a, b, c, map_of(good_a), map_of(good_b))


def test_every_span_of_a_slice_passes_the_output_checks_amalgamate_leaves_out():
    """Oracle for the output amalgamate does not re-check: on every span of
    the size-3 slice over {1, 2}, the empty overlap included, the square
    commutes, embedding_ok accepts f_a and f_b, and their images overlap
    exactly on the image of c."""
    spaces = grid_spaces(3, [1, 2])
    spans = 0
    for c in [FinSpace((), {}), *spaces]:
        into = [list(enumerate_embeddings(c, s)) for s in spaces]
        for (a, into_a), (b, into_b) in product(zip(spaces, into), repeat=2):
            for e_a, e_b in product(into_a, into_b):
                glued, f_a, f_b = amalgamate(a, b, c, e_a, e_b)
                assert_complete_table(glued)
                overlap = [f_a(e_a(z)) for z in c.points]
                assert overlap == [f_b(e_b(z)) for z in c.points]
                assert embedding_ok(a, glued, f_a) and embedding_ok(b, glued, f_b)
                assert frozenset(f_a.cod) & frozenset(f_b.cod) == frozenset(overlap)
                spans += 1
    assert len(spaces) == 1 + 2 + 8
    assert spans == 121 + 1187  # the slice's JEP and AP instances


def slice_spans(max_size, grid):
    """Every span (a, b, c, e_a, e_b) of the slice, the empty overlap
    first."""
    spaces = grid_spaces(max_size, grid)
    for c in [FinSpace((), {}), *spaces]:
        into = [list(enumerate_embeddings(c, s)) for s in spaces]
        for (a, into_a), (b, into_b) in product(zip(spaces, into), repeat=2):
            for e_a, e_b in product(into_a, into_b):
                yield a, b, c, e_a, e_b


def amalgam_outcome(glue, a, b, c, e_a, e_b):
    """What ``glue`` makes of a span: the glued space's points, names,
    rows and scale with f_a and f_b, or the type and message it raised."""
    try:
        glued, f_a, f_b = glue(a, b, c, e_a, e_b)
    except (AmalgamError, SpaceError) as exc:
        return type(exc), str(exc)
    return glued.points, glued.names, glued._rows, glued._scale, f_a, f_b


def failing_spans():
    """Spans that ``amalgamate`` refuses: each kind of bad embedding on
    either side and on both, and an a and a b that are not metrics."""
    c, a, b = BAD_INPUT_C, BAD_INPUT_A, BAD_INPUT_B
    good_a, good_b = map_of({0: 0, 1: 2}), map_of({0: 0, 1: 1})
    for bad_a, bad_b, _ in BAD_INPUTS.values():
        yield a, b, c, map_of(bad_a), good_b
        yield a, b, c, good_a, map_of(bad_b)
        yield a, b, c, map_of(bad_a), map_of(bad_b)
    broken = make_space(["x", "y", "w"], {("x", "y"): 1, ("y", "w"): 1, ("x", "w"): 3})
    single, empty, nowhere = make_space(["u"], {}), FinSpace((), {}), PartialIso((), ())
    yield broken, single, empty, nowhere, nowhere
    yield single, broken, empty, nowhere, nowhere
    one, at_x = make_space(["x"], {}), PartialIso((0,), (0,))
    yield broken, broken, one, at_x, at_x
    # a not a metric at an anchor: the completion escapes z2's bound
    c = make_space(["z1", "z2"], {("z1", "z2"): 1})
    not_metric = make_space(["z1", "z2", "p"], {("z1", "z2"): 1, ("z1", "p"): 1, ("z2", "p"): 5})
    q_near = make_space(["z1", "z2", "q"], {("z1", "z2"): 1, ("z1", "q"): 1, ("z2", "q"): 1})
    both = PartialIso((0, 1), (0, 1))
    yield not_metric, q_near, c, both, both
    yield q_near, not_metric, c, both, both


def test_amalgamate_matches_the_reference():
    """``_glue`` of two ``_side``s gives what the one-function reference
    gives, the glued space and maps or the exception's type and message,
    on every span of the size-3 slices over {1, 2} and {1, 3} and on the
    failing spans, where each kind of refusal occurs."""
    spans = 0
    for grid in ([1, 2], [1, 3]):
        for span in slice_spans(3, grid):
            assert amalgam_outcome(amalgamate, *span) == amalgam_outcome(reference_amalgamate, *span)
            spans += 1
    assert spans == 1308 + 618  # the JEP and AP instances of both slices
    refusals = set()
    for span in failing_spans():
        got = amalgam_outcome(amalgamate, *span)
        assert got == amalgam_outcome(reference_amalgamate, *span)
        refusals.add((got[0].__name__, got[1].split(" ")[0]))
    assert refusals == {
        ("AmalgamError", "e_a"),
        ("AmalgamError", "e_b"),
        ("AmalgamError", "amalgam"),
        ("AmalgamError", "cross"),
    }


def line_space(ids, xs) -> FinSpace:
    """Points ``ids`` in this order at positions ``xs`` of the line."""
    placed = list(zip(ids, xs))
    return FinSpace(
        tuple(ids), {(p, q): Fraction(abs(x - y)) for (p, x), (q, y) in combinations(placed, 2)}
    )


def test_glued_order_matches_the_gap_bucket_walk():
    """One keyed sort orders the glued space as the gap-bucket walk does,
    on seeded spans of line spaces whose ids, out of order, are drawn from
    one range: the cases below all occur."""
    rng = random.Random(30)
    seen = set()
    for _ in range(500):
        ka, kb = rng.randint(1, 6), rng.randint(1, 6)
        kc = rng.randint(0, min(ka, kb))
        xa = sorted(rng.sample(range(40), ka))
        xc = sorted(rng.sample(xa, kc))
        xb = sorted(xc + rng.sample([x for x in range(40) if x not in xc], kb - kc))
        ids_a, ids_b = rng.sample(range(12), ka), rng.sample(range(12), kb)
        a, b = line_space(ids_a, xa), line_space(ids_b, xb)
        c = a.subspace([ids_a[xa.index(x)] for x in xc])
        e_a = PartialIso(c.points, c.points)
        e_b = PartialIso(c.points, tuple(ids_b[xb.index(x)] for x in xc))
        glued, _, _ = amalgamate(a, b, c, e_a, e_b)
        assert list(glued.points) == reference_glued_order(a, b, c, e_a, e_b)
        extra = [x for x in xb if x not in xc]
        seen.update(
            "empty overlap" if not xc
            else "before the first anchor" if x < xc[0]
            else "after the last anchor" if x > xc[-1]
            else "between anchors"
            for x in extra
        )
        if {ids_b[xb.index(x)] for x in extra} & set(a.points):
            seen.add("b id taken by a")
    assert seen == {
        "empty overlap",
        "before the first anchor",
        "between anchors",
        "after the last anchor",
        "b id taken by a",
    }


@pytest.mark.parametrize("unit", [1, Fraction(1, 2)])
def test_shortest_path_column_completes_through_every_anchor(unit):
    # points P0, P1, P2 with d01 = 2, d02 = 3, d12 = 1; the new point sits
    # at 1 from P0 and 2 from P1, so its distance to P2 is min(1 + 3, 2 + 1)
    legs = [([0, 2 * unit, 3 * unit], unit), ([2 * unit, 0, unit], 2 * unit)]
    assert shortest_path_column(legs, 3, None) == [unit, 2 * unit, 3 * unit]


@pytest.mark.parametrize("unit", [1, Fraction(1, 3)])
def test_amalgam_reports_first_escape_anchor_major(unit):
    """Only a side that is not a metric takes a cross distance under an
    anchor's lower bound; the embeddings preserve structure, so the
    completion check is what refuses, naming the first escape in
    anchor-major order."""
    c = make_space(["z1", "z2"], {("z1", "z2"): 4 * unit})
    # b holds the anchors at 4 and q at 1 from both: q completes to 1 from
    # each anchor of a, under anchor z1's bound |4 - 1| at z2 (point-major
    # order would name z2's bound at z1 first)
    b = make_space(["z1", "z2", "q"], {("z1", "z2"): 4 * unit, ("z1", "q"): unit, ("z2", "q"): unit})
    with pytest.raises(AmalgamError, match=f"^cross distance {unit} escapes the bound through overlap point z1$"):
        amalgamate(c, b, c, PartialIso((0, 1), (0, 1)), PartialIso((0, 1), (0, 1)))
    # a not a metric (d(z2, p) = 5 > d(z2, z1) + d(z1, p)): q at 1 from both
    # anchors completes to 2 at p, which passes z1's bound and escapes z2's
    c = make_space(["z1", "z2"], {("z1", "z2"): unit})
    a = make_space(["z1", "z2", "p"], {("z1", "z2"): unit, ("z1", "p"): unit, ("z2", "p"): 5 * unit})
    b = make_space(["z1", "z2", "q"], {("z1", "z2"): unit, ("z1", "q"): unit, ("z2", "q"): unit})
    e_a = e_b = PartialIso((0, 1), (0, 1))
    with pytest.raises(AmalgamError, match=f"^cross distance {2 * unit} escapes the bound through overlap point z2$"):
        amalgamate(a, b, c, e_a, e_b)


@pytest.mark.parametrize("filler", [7, Fraction(5, 2)])
def test_shortest_path_column_fills_an_empty_overlap(filler):
    assert shortest_path_column([], 3, filler) == [filler] * 3
    assert shortest_path_column([], 0, filler) == []


def _random_legs(rng, legs: int, size: int, kind: str):
    """``legs`` legs over ``size`` points with values from 0 to 4, so that
    sums tie often.  "mixed" makes every other leg's values Fractions equal
    to ints, so a tie shows which leg's value the column kept."""

    def value(i):
        v = rng.randint(0, 3)
        if kind == "int" or (kind == "mixed" and i % 2 == 0):
            return v
        return Fraction(v, rng.choice([1, 2, 3]) if kind == "fraction" else 1)

    return [([value(i) for _ in range(size)], value(i) + 1) for i in range(legs)]


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
@pytest.mark.parametrize("legs", range(1, 9))
def test_shortest_path_column_matches_the_reference(legs, kind):
    """The one-pass-per-leg fold against the all-sums ``min``, on ints,
    Fractions and ties between an int and an equal Fraction (the value
    kept must be the earlier leg's, type and all), with empty rows too."""
    rng = random.Random(legs * 7 + len(kind))
    ties = 0
    for size in [0, 1, 2, 3, 5, 17] * 4:
        case = _random_legs(rng, legs, size, kind)
        got = shortest_path_column(case, size, None)
        expected = reference_shortest_path_column(case, size, None)
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]
        sums = [[leg + v for leg in row] for row, v in case]
        ties += sum(len({type(s) for s in col if s == min(col)}) > 1 for col in zip(*sums))
    if kind == "mixed" and legs > 1:
        assert ties >= 10  # an int and an equal Fraction share the minimum


small_weights = st.fractions(
    min_value=Fraction(1, 3), max_value=Fraction(3), max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_amalgam_valid_on_random_spans(data):
    size_c = data.draw(st.integers(0, 2))
    size_a = data.draw(st.integers(size_c, 3))
    size_b = data.draw(st.integers(size_c, 3))
    if size_a == 0 or size_b == 0:
        return

    def build(size):
        weights = {
            pair: data.draw(small_weights) for pair in combinations(range(size), 2)
        }
        return path_metric_space(size, weights)

    a, b = build(size_a), build(size_b)
    # carve a common overlap out of a, then find it inside b
    keep = data.draw(
        st.permutations(range(size_a)).map(lambda p: tuple(sorted(p[:size_c])))
    )
    c = a.subspace([a.points[i] for i in keep])
    e_a = PartialIso(c.points, c.points)
    candidates = list(enumerate_embeddings(c, b))
    if not candidates:
        return
    e_b = candidates[data.draw(st.integers(0, len(candidates) - 1))]
    glued, f_a, f_b = amalgamate(a, b, c, e_a, e_b)
    assert validate(glued).is_valid
    assert embedding_ok(a, glued, f_a) and embedding_ok(b, glued, f_b)
    assert frozenset(f_a.cod) & frozenset(f_b.cod) == frozenset(f_a(e_a(z)) for z in c.points)
