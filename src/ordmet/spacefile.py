"""Plain-text space documents.

Canonical form, one fact per line, LF-terminated::

    space
    point <name>          # one per point, in structural order
    dist <p> <q> <num>/<den>   # one per unordered pair, (i, j) positions
                               # in lexicographic order with i before j
    end

Names match [A-Za-z0-9_]+.  Blank lines and ``#`` comments are ignored on
input.  Rationals are written in lowest terms with an explicit denominator;
non-canonical input values are accepted and normalized.  Serializing a
parsed canonical document reproduces it byte for byte.

Both directions work on the space's int rows.  ``serialize_space`` formats
each distinct value once.  ``parse_space`` has two readers, and both give
the same space for a canonical document:

- ``_read_canonical`` reads exactly the canonical form above.  It checks the
  header, the ``end`` line, the line count and the point block first, then
  compares each row's dist lines with their expected heads, a row at a
  time; it parses each distinct value token once, with ``parse_rational``,
  so ``2/4`` is read as the line parser reads it.  It declines, returning
  None, on any other text, on a token ``parse_rational`` refuses or that
  has surrounding whitespace, and on a document over the row-store budget,
  and never raises.
- ``_parse_lines`` reads every other document line by line and is the only
  source of refusals.  It parses each distinct value token once, keeps only
  the names until the first ``dist`` line, allocates the rows there, and
  grows them by one row and one column per later ``point`` line; a
  document without a ``dist`` line allocates no rows.  It refuses the first
  point whose rows would top the row-store budget (``spaces.store_bytes``
  against ``STORE_BUDGET_BYTES``, as ``limit grow`` and ``witness build``
  do), before any rows for it are allocated.

Both fill the rows with value indices and then with each value's int over
the lcm of the parsed denominators.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm

from .rationals import format_rational, parse_rational
from .spaces import STORE_BUDGET_BYTES, FinSpace, PointId, SpaceError, scaled, store_bytes

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")


class SpaceParseError(ValueError):
    """Document does not follow the space format."""


def parse_space(text: str) -> FinSpace:
    """Read a document into a space; structural order is file order.

    Parsing does not validate metric axioms, so broken candidate tables can
    be loaded and then reported by ``validate``.  A canonical document is
    read by ``_read_canonical``; any other goes through ``_parse_lines``,
    which gives the same space for a canonical one.
    """
    space = _read_canonical(text)
    return _parse_lines(text) if space is None else space


def _read_canonical(text: str) -> FinSpace | None:
    """The space of a canonical document, None for any other text.

    Accepts exactly ``space``, n ``point`` lines of distinct names, the
    n(n-1)/2 ``dist`` lines in (i, j) order with single spaces and a value
    token each, ``end`` and a final LF, and declines a document over the
    row-store budget.  The header, ``end`` line, line count and point block
    are checked first; then each row's dist lines are compared with their
    expected heads by C-level maps.  Each distinct token is parsed once by
    ``parse_rational``; one it refuses, or one with surrounding whitespace,
    which ``parse_rational`` strips but the line parser may read as a line
    break (a form feed or a file separator), declines.  Never raises.
    """
    if not (text.startswith("space\n") and text.endswith("\nend\n")):
        return None
    halfsquare = text.count("\n") - 2  # n points and n(n - 1)/2 pairs: n(n + 1)/2 lines
    n = (isqrt(8 * halfsquare + 1) - 1) // 2
    if n * (n + 1) // 2 != halfsquare or store_bytes(n) > STORE_BUDGET_BYTES:
        return None
    lines = text.split("\n")
    names = [line[6:] for line in lines[1 : n + 1]]
    if (
        list(map("point ".__add__, names)) != lines[1 : n + 1]
        or not all(map(_NAME_RE.fullmatch, names))
        or len(set(names)) != n
    ):
        return None
    tails = [f"{name} " for name in names]
    token_index: dict[str, int] = {}  # value token -> index into values
    values: list[Fraction] = []
    rows: list[list[int]] = [[] for _ in names]  # row j holds its pairs (i, j) read so far
    start = n + 1
    for i, name in enumerate(names):
        stop = start + n - 1 - i
        block = lines[start:stop]
        heads = list(map(f"dist {name} ".__add__, tails[i + 1 :]))
        if not all(map(str.startswith, block, heads)):
            return None
        tokens = list(map(str.removeprefix, block, heads))
        try:  # most rows bring no new token
            found = list(map(token_index.__getitem__, tokens))
        except KeyError:
            for token in set(tokens).difference(token_index):
                if token != token.strip():  # the line parser may split it off its line
                    return None
                try:
                    value = parse_rational(token)
                except ValueError:
                    return None
                token_index[token] = len(values)
                values.append(value)
            found = list(map(token_index.__getitem__, tokens))
        row = rows[i]
        row.append(-1)  # the diagonal: the 0 that _space_of appends last
        row.extend(found)
        # d(i, j) onto each later row j; list.append returns None, so any() runs it all
        any(map(list.append, rows[i + 1 :], found))
        start = stop
    del lines  # the int rows are built without them, as in the line parser
    return _space_of(names, rows, values)


def _parse_lines(text: str) -> FinSpace:
    """The line-by-line parser of any document, and the source of every
    refusal.  Each distinct value token is parsed once; the rows are filled
    with its index and then with its int over the lcm of the parsed
    denominators."""
    names: list[str] = []
    ids: dict[str, PointId] = {}
    rows: list[list[int | None]] = []  # allocated at the first dist line
    token_index: dict[str, int] = {}  # value token -> index into values
    values: list[Fraction] = []
    seen_header = False
    seen_end = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if seen_end:
            raise SpaceParseError(f"line {lineno}: content after end")
        tokens = line.split()
        if not seen_header:
            if tokens != ["space"]:
                raise SpaceParseError(f"line {lineno}: expected 'space' header")
            seen_header = True
            continue
        if tokens[0] == "dist":
            if len(tokens) != 4:
                raise SpaceParseError(f"line {lineno}: expected 'dist <p> <q> <value>'")
            _, p, q, value = tokens
            i, j = ids.get(p), ids.get(q)
            if i is None or j is None:
                unknown = p if i is None else q
                raise SpaceParseError(f"line {lineno}: unknown point {unknown!r}")
            if i == j:
                raise SpaceParseError(f"line {lineno}: self distance for {p!r}")
            if not rows:
                rows = [[None] * len(names) for _ in names]
            row = rows[i]
            if row[j] is not None:
                raise SpaceParseError(f"line {lineno}: duplicate pair {p} {q}")
            k = token_index.get(value)
            if k is None:
                try:
                    values.append(parse_rational(value))
                except ValueError as exc:
                    raise SpaceParseError(f"line {lineno}: {exc}") from None
                k = token_index[value] = len(values) - 1
            row[j] = rows[j][i] = k
            continue
        if tokens == ["end"]:
            seen_end = True
            continue
        if tokens[0] == "point":
            if len(tokens) != 2:
                raise SpaceParseError(f"line {lineno}: expected 'point <name>'")
            name = tokens[1]
            if not _NAME_RE.fullmatch(name):
                raise SpaceParseError(f"line {lineno}: bad point name {name!r}")
            if name in ids:
                raise SpaceParseError(f"line {lineno}: duplicate point {name!r}")
            estimate = store_bytes(len(names) + 1)
            if estimate > STORE_BUDGET_BYTES:
                raise SpaceParseError(
                    f"line {lineno}: space of {len(names) + 1} points needs about {estimate}"
                    f" bytes of distance rows, over the {STORE_BUDGET_BYTES}-byte budget"
                )
            ids[name] = len(names)
            names.append(name)
            if rows:  # a point after a dist line
                for row in rows:
                    row.append(None)
                rows.append([None] * len(names))
            continue
        raise SpaceParseError(f"line {lineno}: unrecognized directive {tokens[0]!r}")

    if not seen_header:
        raise SpaceParseError("empty document: missing 'space' header")
    if not seen_end:
        raise SpaceParseError("missing 'end' terminator")
    if not rows:  # no dist line: the first pair, if any, is missing
        if len(names) > 1:
            raise SpaceParseError(f"missing distance for pair {names[0]} {names[1]}")
        rows = [[None] for _ in names]
    for i, row in enumerate(rows):
        row[i] = len(values)
        if None in row:  # any earlier pair was checked with its earlier row
            j = row.index(None)
            raise SpaceParseError(f"missing distance for pair {names[i]} {names[j]}")
    return _space_of(names, rows, values)


def _space_of(names: list[str], rows: list[list[int]], values: list[Fraction]) -> FinSpace:
    """The space whose rows hold indices into ``values``, with index
    ``len(values)`` (or -1) for the diagonal, over the lcm of the
    denominators."""
    scale = lcm(*(v.denominator for v in values))
    ints = [scaled(v, scale) for v in values]
    ints.append(0)  # the diagonal
    rows = [list(map(ints.__getitem__, row)) for row in rows]
    return FinSpace._of_rows(range(len(names)), rows, scale, dict(enumerate(names)))


def serialize_space(space: FinSpace) -> str:
    """Canonical document for a space with a complete distance table.

    Reads the rows (the pair at positions i < j resolves to ``rows[i][j]``)
    and formats each distinct value once.
    """
    seen: set[str] = set()
    for p in space.points:
        name = space.names[p]
        if not _NAME_RE.fullmatch(name):
            raise SpaceError(f"point name {name!r} not serializable")
        if name in seen:
            raise SpaceError(f"duplicate point name {name!r}")
        seen.add(name)
    pts = space.points
    labels = [space.names[p] for p in pts]
    lines = ["space"]
    lines.extend(f"point {label}" for label in labels)
    text: dict[int, str] = {}  # scaled int -> "num/den"
    for i, row in enumerate(space._rows):
        for j in range(i + 1, len(pts)):
            value = text.get(row[j])
            if value is None:
                value = text[row[j]] = format_rational(space.d(pts[i], pts[j]))
            lines.append(f"dist {labels[i]} {labels[j]} {value}")
    lines.append("end")
    return "\n".join(lines) + "\n"
