"""Command-line driver.

Exit codes: 0 = pass, 1 = verification failure, 2 = usage or input error,
3 = internal error: any other exception, printed as one line.
All reports go to stdout, one fact per line, in a stable order; error
messages go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Sequence

from .limit import new_builder
from .rationals import format_rational, parse_integer, parse_rational, shown
from .spacefile import parse_space, serialize_space
from .spaces import FinSpace, canonical_iso, enumerate_embeddings, validate
from .witness import build_witness, exhaust_all_traces, verify_injection


def _load(path: str) -> FinSpace:
    return parse_space(Path(path).read_text())


def _int(text: str) -> int:
    """``parse_integer`` for argparse, whose own refusal would echo the
    whole value: one of over 40 characters is shown by its first 40 and its
    length."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every build leaves
    a cycle of argparse objects for the garbage collector."""
    parser = argparse.ArgumentParser(
        prog="ordmet",
        description="Ordered rational metric spaces: validation, embeddings, "
        "class checks, stage growth and cover-refinement witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a space file against every axiom")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("iso", help="order bijection between two spaces, if any")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("embed", help="embeddings of the first space into the second")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--all", action="store_true", help="list every embedding")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser(
        "fraisse-check",
        help="exhaustive class-property check over a finite distance grid",
    )
    p.add_argument("--max-size", type=_int, required=True)
    p.add_argument("--grid", required=True, help="comma-separated positive rationals")
    p.set_defaults(func=_cmd_fraisse)

    p = sub.add_parser("limit", help="stage growth")
    limit_sub = p.add_subparsers(dest="subcommand", required=True)
    g = limit_sub.add_parser("grow", help="grow a stage from a seed")
    g.add_argument("--seed", required=True, help="space file or the word 'empty'")
    g.add_argument("--steps", type=_int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_limit_grow)

    p = sub.add_parser("witness", help="cover-refinement witness configurations")
    wit_sub = p.add_subparsers(dest="subcommand", required=True)
    for name, needs_out, needs_trace, func in (
        ("build", True, False, _cmd_witness_build),
        ("verify", False, True, _cmd_witness_verify),
        ("exhaust", False, False, _cmd_witness_exhaust),
    ):
        w = wit_sub.add_parser(name)
        w.set_defaults(func=func)
        w.add_argument("--support", required=True, help="space file for the support")
        w.add_argument("--n", type=_int, required=True)
        w.add_argument("--m", type=_int, required=True)
        if needs_out:
            w.add_argument("--out", required=True)
        if needs_trace:
            w.add_argument("--trace", required=True, help="comma-separated chain indices")
    return parser


def _cmd_validate(args) -> int:
    space = _load(args.file)
    report = validate(space)
    if report.is_valid:
        print("valid")
        return 0
    for violation in report.violations:
        print(violation.describe(space))
    return 1


def _cmd_iso(args) -> int:
    x, y = _load(args.file1), _load(args.file2)
    emb = canonical_iso(x, y)
    if emb is None:
        print("none")
        return 1
    for p, q in zip(emb.dom, emb.cod):
        print(f"{x.names[p]} -> {y.names[q]}")
    return 0


def _cmd_embed(args) -> int:
    x, y = _load(args.file1), _load(args.file2)
    found = 0
    for emb in enumerate_embeddings(x, y):
        print(" ".join(f"{x.names[p]}->{y.names[q]}" for p, q in zip(emb.dom, emb.cod)))
        found += 1
        if not args.all:
            break
    if not found:
        print("none")
        return 1
    return 0


def _cmd_fraisse(args) -> int:
    from .fraisse import check_fraisse_properties  # the only command that loads numpy

    grid = [parse_rational(tok) for tok in args.grid.split(",") if tok.strip()]
    report = check_fraisse_properties(args.max_size, grid)
    for line in report.lines():
        print(line)
    return 0 if report.all_ok else 1


def _cmd_limit_grow(args) -> int:
    seed = FinSpace((), {}) if args.seed == "empty" else _load(args.seed)
    builder = new_builder(seed).grow(args.steps)
    Path(args.out).write_text(serialize_space(builder.stage()))
    print(f"stage-size {len(builder)}")
    return 0


def _witness_config(args):
    return build_witness(_load(args.support), args.n, args.m)


def _cmd_witness_build(args) -> int:
    config = _witness_config(args)
    Path(args.out).write_text(serialize_space(config.space))
    print(f"k {config.k}")
    print(f"far {format_rational(config.far)}")
    print(f"points {len(config.space)}")
    return 0


def _cmd_witness_verify(args) -> int:
    config = _witness_config(args)
    trace = frozenset(parse_integer(tok) for tok in args.trace.split(",") if tok.strip())
    report = verify_injection(config, trace)
    for line in report.lines():
        print(line)
    return 0 if report.injective else 1


def _cmd_witness_exhaust(args) -> int:
    config = _witness_config(args)
    report = exhaust_all_traces(config)
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


def run(argv: Sequence[str]) -> int:
    """Execute one command line; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
