import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmet import FinSpace, SpaceError, build_witness, canonical_iso, make_space, new_builder, validate
from ordmet import spacefile
from ordmet.rationals import parse_rational
from ordmet.spacefile import SpaceParseError, parse_space, serialize_space
from ordmet.spaces import store_bytes

from conftest import assert_complete_table, chain_space, path_metric_space

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
    """Both readers parse each distinct token once: the canonical reader
    the document as it is, the line parser the same with a comment."""
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
    for read, text in [(spacefile._read_canonical, doc), (spacefile._parse_lines, doc + "# a comment\n")]:
        calls.clear()
        space = read(text)
        assert sorted(calls) == ["1/2", "2/4", "3"]
        assert [space.d(0, j) for j in (1, 2, 3)] == [Fraction(1, 2)] * 3
        assert space.d(1, 3) == 3


def test_a_name_ending_in_a_newline_is_not_serialized():
    space = make_space(["a\n", "a"], {("a\n", "a"): 1})
    with pytest.raises(SpaceError, match="not serializable"):
        serialize_space(space)


def test_a_repeated_name_is_not_serialized():
    space = FinSpace((0, 1), {(0, 1): Fraction(1)}, {0: "a", 1: "a"})
    with pytest.raises(SpaceError, match="duplicate point name 'a'"):
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


def facts(space: FinSpace):
    return space.points, space.names, space._rows, space._scale


def outcome(parse, doc: str):
    """What a parser makes of ``doc``: the facts of its space, or the type
    and message of what it raised."""
    try:
        return facts(parse(doc))
    except ValueError as exc:
        return type(exc), str(exc)


NAMES = st.sampled_from(["a", "b", "c1", "x_2", "Z", "end", "space", "point", "dist", "p0"])
VALUES = st.fractions(min_value=Fraction(-2), max_value=Fraction(5), max_denominator=7)


@st.composite
def serialized_spaces(draw, max_points=8):
    names = draw(st.lists(NAMES, max_size=max_points, unique=True))
    entries = {pair: draw(VALUES) for pair in combinations(range(len(names)), 2)}
    return serialize_space(FinSpace(tuple(range(len(names))), entries, dict(enumerate(names))))


MUTATIONS = (
    "comment line", "trailing comment", "blank line", "crlf", "tab", "double space",
    "trailing space", "swap dist lines", "point after dist", "drop line", "duplicate line",
    "token 2/4", "token 3", "token -1/2", "bare token line", "content after end", "missing end",
)


def mutate(lines: list[str], kind: str, data) -> list[str]:
    """``lines`` (a canonical document's, without their LFs) with one change."""
    lines = list(lines)
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    dists = [k for k, line in enumerate(lines) if line.startswith("dist ")]
    dist_at = data.draw(st.sampled_from(dists), label="dist line") if dists else None
    if kind == "comment line":
        lines.insert(at, "# a comment")
    elif kind == "trailing comment":
        lines[at] += "  # note"
    elif kind == "blank line":
        lines.insert(at, "")
    elif kind == "crlf":
        lines[at] += "\r"
    elif kind in ("tab", "double space") and " " in lines[at]:
        lines[at] = lines[at].replace(" ", "\t" if kind == "tab" else "  ", 1)
    elif kind == "trailing space":
        lines[at] += " "
    elif kind == "swap dist lines" and len(dists) > 1:
        other = data.draw(st.sampled_from([k for k in dists if k != dist_at]), label="other")
        lines[dist_at], lines[other] = lines[other], lines[dist_at]
    elif kind == "point after dist" and dists:
        point = max(k for k, line in enumerate(lines) if line.startswith("point "))
        moved = lines.pop(point)
        lines.insert(dist_at, moved)
    elif kind == "drop line":
        del lines[at]
    elif kind == "duplicate line":
        lines.insert(at, lines[at])
    elif kind.startswith("token ") and dists:
        lines[dist_at] = lines[dist_at].rsplit(" ", 1)[0] + " " + kind.split()[1]
    elif kind == "bare token line" and dists:
        lines[dist_at] = lines[dist_at].rsplit(" ", 1)[1]
    elif kind == "content after end":
        lines.append("point late")
    elif kind == "missing end":
        lines.remove("end")
    return lines


@settings(max_examples=250, deadline=None)
@given(serialized_spaces(), st.sampled_from(MUTATIONS), st.data())
def test_parse_space_matches_the_line_parser_on_mutated_documents(text, kind, data):
    doc = "\n".join(mutate(text.split("\n")[:-1], kind, data)) + "\n"
    want = outcome(spacefile._parse_lines, doc)
    assert outcome(parse_space, doc) == want
    if not isinstance(want[0], type):
        assert_complete_table(spacefile._parse_lines(doc))
    read = spacefile._read_canonical(doc)
    assert read is None or facts(read) == want


@st.composite
def one_character_changed(draw):
    text = draw(serialized_spaces())
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.sampled_from(" \t\r\n#/-0_ab١")) + text[at + 1 :]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), one_character_changed()))
def test_canonical_reader_returns_the_line_parsers_space_or_none(text):
    read = spacefile._read_canonical(text)
    assert read is None or facts(read) == outcome(spacefile._parse_lines, text)


def refuse_line_parsing(monkeypatch):
    def refuse(text):
        raise AssertionError("the line parser ran on a canonical document")

    monkeypatch.setattr(spacefile, "_parse_lines", refuse)


@settings(max_examples=100, deadline=None)
@given(serialized_spaces())
def test_written_spaces_load_without_the_line_parser(text):
    want = outcome(spacefile._parse_lines, text)
    with pytest.MonkeyPatch.context() as patch:
        refuse_line_parsing(patch)
        assert outcome(parse_space, text) == want
        assert_complete_table(parse_space(text))
        assert serialize_space(parse_space(text)) == text


def test_grown_stage_and_witness_table_load_without_the_line_parser(monkeypatch):
    stage = serialize_space(new_builder(FinSpace((), {})).grow(64).stage())
    table = serialize_space(build_witness(make_space(["b0"], {}), 2, 3).space)
    want = [outcome(spacefile._parse_lines, text) for text in (stage, table)]
    refuse_line_parsing(monkeypatch)
    assert [outcome(parse_space, text) for text in (stage, table)] == want
    assert [serialize_space(parse_space(text)) for text in (stage, table)] == [stage, table]


@pytest.mark.parametrize(
    "token",
    ["2/4", "3", "+1/2", "01/2", "1/02", "-0/1", "1_0/1", "٣/٢", "1/0", "1/-2", "1/2/3", "0x1/2"],
)
def test_noncanonical_tokens_are_left_to_the_line_parser(token):
    """Every value token that does not format back to itself gets the line
    parser's outcome: one that ``parse_rational`` refuses makes the reader
    decline and the line parser refuse, and one it accepts (``2/4``, ``3``,
    ``01/2``, ``1/02``, ``-0/1``) is read by the reader as the line parser
    reads it."""
    doc = f"space\npoint p\npoint q\npoint r\ndist p q 1/2\ndist p r {token}\ndist q r 1/1\nend\n"
    want = outcome(spacefile._parse_lines, doc)
    read = spacefile._read_canonical(doc)
    try:
        parse_rational(token)
    except ValueError:
        assert read is None and want[0] is SpaceParseError
    else:
        assert facts(read) == want
    assert outcome(parse_space, doc) == want


@pytest.mark.parametrize("token", ["\x1c1/2", "\x0c1/2", "\x851/2", " 1/2", "1/2\r", "1/2 "])
def test_tokens_with_surrounding_whitespace_are_left_to_the_line_parser(token):
    """``parse_rational`` strips a token, but the line parser splits a line
    at a file separator, a form feed or a next-line character and then
    refuses its dist line, so the reader declines a token with surrounding
    whitespace."""
    doc = f"space\npoint p\npoint q\ndist p q {token}\nend\n"
    assert spacefile._read_canonical(doc) is None
    assert outcome(parse_space, doc) == outcome(spacefile._parse_lines, doc)


def test_a_stage_with_a_reducible_last_token_is_read_once(monkeypatch):
    """A 250-point stage whose last value token is ``2/4`` is read by the
    reader alone, into the line parser's space."""
    text = serialize_space(new_builder(FinSpace((), {})).grow(250).stage())
    text = text.rpartition(" ")[0] + " 2/4\nend\n"  # "end" holds no space
    want = outcome(spacefile._parse_lines, text)
    assert want[2][-2][-1] == want[3] // 2  # the last pair reads 1/2
    refuse_line_parsing(monkeypatch)
    assert outcome(parse_space, text) == want


def test_a_dist_line_cut_to_its_token_is_not_read():
    doc = "space\npoint p\npoint q\n1/2\nend\n"
    assert spacefile._read_canonical(doc) is None
    with pytest.raises(SpaceParseError, match="^line 4: unrecognized directive '1/2'$"):
        parse_space(doc)


def test_canonical_reader_holds_no_more_than_the_line_parser():
    """On a 600-point stage the reader's traced peak is at most 1.25 times
    the line parser's."""
    text = serialize_space(new_builder(FinSpace((), {})).grow(600).stage())
    peaks = []
    for parse in (spacefile._parse_lines, spacefile._read_canonical):
        tracemalloc.start()
        try:
            space = parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(space) == 600
        del space
    assert peaks[1] <= 1.25 * peaks[0]
