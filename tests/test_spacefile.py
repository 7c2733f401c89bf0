import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmet import FinSpace, SpaceError, canonical_iso, make_space, new_builder, validate
from ordmet import spacefile
from ordmet.rationals import parse_rational
from ordmet.spacefile import SpaceParseError, parse_space, serialize_space
from ordmet.spaces import store_bytes

from conftest import chain_space, path_metric_space

UNIT_PAIR_DOC = """space
point p
point q
dist p q 1/1
end
"""


def test_parse_unit_pair():
    space = parse_space(UNIT_PAIR_DOC)
    assert [space.names[p] for p in space.points] == ["p", "q"]
    assert space.d(0, 1) == 1
    assert validate(space).is_valid


def test_serialize_unit_pair_has_three_content_lines():
    space = parse_space(UNIT_PAIR_DOC)
    body = serialize_space(space).splitlines()
    assert body == ["space", "point p", "point q", "dist p q 1/1", "end"]


def test_round_trip_is_byte_identical():
    text = serialize_space(chain_space(1))
    assert serialize_space(parse_space(text)) == text


def test_chain_document_validates():
    loaded = parse_space(serialize_space(chain_space(1)))
    assert validate(loaded).is_valid
    assert loaded.d(0, 3) == 3


def test_noncanonical_rational_normalized():
    doc = "space\npoint p\npoint q\npoint r\ndist p q 2/4\ndist p r 2/6\ndist q r 5/6\nend\n"
    space = parse_space(doc)
    want = {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 3), (1, 2): Fraction(5, 6)}
    assert dict(space.entries) == want
    assert [type(v) for v in space.entries.values()] == [Fraction] * 3
    assert all(space.d(p, q) == space.d(q, p) == v for (p, q), v in want.items())
    assert "dist p q 1/2" in serialize_space(space)


def test_comments_and_blanks_ignored():
    doc = "# header\nspace\n\npoint p  # first\npoint q\ndist p q 3\nend\n"
    assert parse_space(doc).d(0, 1) == 3


def test_missing_pair_names_the_pair():
    doc = "space\npoint p\npoint q\npoint r\ndist p q 1/1\ndist p r 1/1\nend\n"
    with pytest.raises(SpaceParseError, match="q r"):
        parse_space(doc)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("space\npoint p\npoint p\nend\n", "duplicate point"),
        ("space\npoint p\npoint q\ndist p q 1/0\nend\n", "malformed"),
        ("space\npoint p\npoint q\ndist p q one\nend\n", "malformed"),
        ("space\npoint p\npoint q\ndist p q 1/1\ndist q p 1/1\nend\n", "duplicate pair"),
        ("space\npoint p\ndist p p 1/1\nend\n", "self distance"),
        ("space\npoint p\ndist p z 1/1\nend\n", "unknown point"),
        ("space\npoint p\nend\nleftover\n", "after end"),
        ("point p\nend\n", "header"),
        ("space\npoint p\n", "missing 'end'"),
        ("space\nfrobnicate p\nend\n", "unrecognized"),
        ("space\npoint p!\nend\n", "bad point name"),
    ],
)
def test_parse_errors(doc, fragment):
    with pytest.raises(SpaceParseError, match=fragment):
        parse_space(doc)


def test_parse_does_not_validate_axioms():
    doc = "space\npoint p\npoint q\ndist p q 0/1\nend\n"
    space = parse_space(doc)  # loads fine
    assert not validate(space).is_valid


def test_dist_lines_ordered_by_position_pairs():
    space = chain_space(2, top=3)
    lines = [l for l in serialize_space(space).splitlines() if l.startswith("dist")]
    pairs = [tuple(l.split()[1:3]) for l in lines]
    names = [space.names[p] for p in space.points]
    assert pairs == [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]


small_weights = st.fractions(
    min_value=Fraction(1, 3), max_value=Fraction(3), max_denominator=6
)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_round_trips(data):
    size = data.draw(st.integers(1, 5))
    weights = {
        pair: data.draw(small_weights) for pair in combinations(range(size), 2)
    }
    space = path_metric_space(size, weights)
    text = serialize_space(space)
    back = parse_space(text)
    iso = canonical_iso(space, back)
    assert iso is not None
    assert serialize_space(back) == text


def test_grown_stage_round_trips_byte_for_byte():
    stage = new_builder(FinSpace((), {})).grow(40).stage()
    text = serialize_space(stage)
    back = parse_space(text)
    assert serialize_space(back) == text
    assert all(back.d(i, j) == stage.d(p, q)
               for (i, j), (p, q) in zip(combinations(back.points, 2), stage.pairs()))


def test_noncanonical_tokens_serialize_canonically_and_then_stay():
    doc = (
        "space\npoint p\npoint q\npoint r\n"
        "dist q p 2/4\ndist p r 3\ndist r q 1/2\nend\n"
    )
    canonical = (
        "space\npoint p\npoint q\npoint r\n"
        "dist p q 1/2\ndist p r 3/1\ndist q r 1/2\nend\n"
    )
    assert serialize_space(parse_space(doc)) == canonical
    assert serialize_space(parse_space(canonical)) == canonical


def test_each_distinct_value_token_is_parsed_once(monkeypatch):
    calls = []

    def counting(token):
        calls.append(token)
        return parse_rational(token)

    monkeypatch.setattr(spacefile, "parse_rational", counting)
    doc = (
        "space\npoint p\npoint q\npoint r\npoint s\n"
        "dist p q 1/2\ndist p r 2/4\ndist p s 1/2\n"
        "dist q r 2/4\ndist q s 3\ndist r s 1/2\nend\n"
    )
    space = parse_space(doc)
    assert sorted(calls) == ["1/2", "2/4", "3"]
    assert [space.d(0, j) for j in (1, 2, 3)] == [Fraction(1, 2)] * 3
    assert space.d(1, 3) == 3


def test_a_name_ending_in_a_newline_is_not_serialized():
    space = make_space(["a\n", "a"], {("a\n", "a"): 1})
    with pytest.raises(SpaceError, match="not serializable"):
        serialize_space(space)


def equidistant_doc(size: int) -> str:
    names = [f"e{i}" for i in range(size)]
    lines = ["space", *(f"point {name}" for name in names)]
    lines += [f"dist {a} {b} 1/1" for a, b in combinations(names, 2)]
    return "\n".join(lines + ["end"]) + "\n"


def test_parse_refuses_the_first_point_past_the_store_budget(monkeypatch):
    """At a budget of ten points' rows, ten points parse and the eleventh
    point's line is refused with its number and the estimate, before any
    later line is read."""
    monkeypatch.setattr(spacefile, "STORE_BUDGET_BYTES", store_bytes(10))
    assert len(parse_space(equidistant_doc(10))) == 10
    message = (
        f"line 12: space of 11 points needs about {store_bytes(11)} bytes of distance rows,"
        f" over the {store_bytes(10)}-byte budget"
    )
    for doc in (equidistant_doc(11), equidistant_doc(11).replace("dist", "bogus")):
        with pytest.raises(SpaceParseError) as refused:
            parse_space(doc)
        assert str(refused.value) == message


def test_points_alone_allocate_no_rows():
    """A 35 KB document of 3,000 point lines and no dist line is refused
    with the first missing pair, within a few MB: the rows are allocated
    at the first dist line, so none are here."""
    doc = "space\n" + "".join(f"point p{i}\n" for i in range(3000)) + "end\n"
    tracemalloc.start()
    try:
        with pytest.raises(SpaceParseError, match="^missing distance for pair p0 p1$"):
            parse_space(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_points_after_dist_lines_grow_the_rows():
    """A point listed after a dist line gets its row and column then: the
    space reads like the canonical document of the same facts, and a pair
    of a late point left out is named as missing."""
    interleaved = (
        "space\npoint a\npoint b\ndist a b 1/2\npoint c\ndist c a 1/1\ndist b c 3/2\n"
        "point d\ndist a d 2/1\ndist b d 1/1\ndist c d 3/2\nend\n"
    )
    assert serialize_space(parse_space(interleaved)) == (
        "space\npoint a\npoint b\npoint c\npoint d\ndist a b 1/2\ndist a c 1/1\n"
        "dist a d 2/1\ndist b c 3/2\ndist b d 1/1\ndist c d 3/2\nend\n"
    )
    with pytest.raises(SpaceParseError, match="^missing distance for pair b c$"):
        parse_space("space\npoint a\npoint b\ndist a b 1/1\npoint c\ndist a c 1/1\nend\n")
