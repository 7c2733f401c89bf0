import contextlib
import io
import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmet.cli
import ordmet.spacefile
from ordmet import FinSpace, make_space, new_builder, validate
from ordmet.cli import run
from ordmet.limit import STORE_BUDGET_BYTES, store_bytes
from ordmet.spacefile import parse_space, serialize_space

from conftest import chain_space

UNIT_PAIR = "space\npoint p\npoint q\ndist p q 1/1\nend\n"
OTHER_PAIR = "space\npoint x\npoint y\ndist x y 1/1\nend\n"
WIDE_PAIR = "space\npoint x\npoint y\ndist x y 2/1\nend\n"
BROKEN = (
    "space\npoint p\npoint q\npoint r\n"
    "dist p q 1/1\ndist q r 1/1\ndist p r 3/1\nend\n"
)
SINGLE = "space\npoint b0\nend\n"
FRAISSE_3_12 = (
    "max-size 3\ngrid 1/1,2/1\nspaces size 1: 1\nspaces size 2: 2\nspaces size 3: 8\n"
    "hp checked 63: ok\njep checked 121: ok\nap checked 1187: ok\nverdict pass\n"
)
# Runs ordmet's import, then each command line of argv[1], in one fresh
# interpreter and prints per step its exit status, its stdout and whether
# numpy is loaded after it.
COLD_START = """
import contextlib, io, json, sys
import ordmet
steps = [[0, "", "numpy" in sys.modules]]
from ordmet.cli import run
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run(argv)
    steps.append([status, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(steps))
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("unit.space", UNIT_PAIR),
        ("other.space", OTHER_PAIR),
        ("wide.space", WIDE_PAIR),
        ("broken.space", BROKEN),
        ("single.space", SINGLE),
    ]:
        target = tmp_path / name
        target.write_text(text)
        paths[name] = str(target)
    paths["dir"] = tmp_path
    return paths


def test_validate_ok(files, capsys):
    assert run(["validate", files["unit.space"]]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_validate_reports_single_violation(files, capsys):
    assert run(["validate", files["broken.space"]]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("triangle p r q")


def test_unreadable_file(files, capsys):
    assert run(["validate", str(files["dir"] / "missing.space")]) == 2
    assert "error:" in capsys.readouterr().err


def test_iso_found(files, capsys):
    assert run(["iso", files["unit.space"], files["other.space"]]) == 0
    assert capsys.readouterr().out == "p -> x\nq -> y\n"


def test_iso_none(files, capsys):
    assert run(["iso", files["unit.space"], files["wide.space"]]) == 1
    assert capsys.readouterr().out == "none\n"


def test_embed_first_and_all(files, tmp_path, capsys):
    chain = tmp_path / "chain.space"
    chain.write_text(serialize_space(chain_space(1)))
    assert run(["embed", files["unit.space"], str(chain)]) == 0
    assert capsys.readouterr().out == "p->a0 q->a1\n"
    assert run(["embed", files["unit.space"], str(chain), "--all"]) == 0
    assert capsys.readouterr().out == "p->a0 q->a1\np->a1 q->a2\np->a2 q->a3\n"


def test_embed_none(files, tmp_path, capsys):
    chain = tmp_path / "chain.space"
    chain.write_text(serialize_space(chain_space(1)))
    assert run(["embed", files["wide.space"], files["unit.space"]]) == 1
    assert capsys.readouterr().out == "none\n"


def test_embed_of_a_chain_past_the_recursion_limit_finds_the_identity(tmp_path, capsys):
    size = 1100
    rows = [[abs(i - j) for j in range(size)] for i in range(size)]
    names = {i: f"a{i}" for i in range(size)}
    chain = tmp_path / "chain.space"
    chain.write_text(serialize_space(FinSpace._of_rows(range(size), rows, 1, names)))
    assert run(["embed", str(chain), str(chain)]) == 0
    captured = capsys.readouterr()
    assert captured.out == " ".join(f"a{i}->a{i}" for i in range(size)) + "\n"
    assert captured.err == ""


def test_fraisse_check_passes(capsys):
    assert run(["fraisse-check", "--max-size", "3", "--grid", "1,2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "verdict pass" in out
    assert "spaces size 3: 8" in out


def test_fraisse_check_past_64_pairs(capsys):
    # 66 pairs at size 12, past numpy's 64 axes per array
    assert run(["fraisse-check", "--max-size", "12", "--grid", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == [
        "hp checked 8178: ok", "jep checked 144: ok", "ap checked 10400430: ok", "verdict pass"
    ]


def test_fraisse_check_bad_grid(capsys):
    assert run(["fraisse-check", "--max-size", "3", "--grid", "1,zebra"]) == 2
    assert run(["fraisse-check", "--max-size", "3", "--grid", "0,1"]) == 2


def test_non_ascii_digits_exit_two(tmp_path, capsys):
    path = tmp_path / "arabic.space"
    path.write_text("space\npoint a\npoint b\ndist a b \u0663/\u0662\nend\n")
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 4: malformed rational '\u0663/\u0662'\n"
    assert run(["fraisse-check", "--max-size", "3", "--grid", "\u0661"]) == 2
    assert capsys.readouterr().err == "error: malformed rational '\u0661'\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("space\npoint a\npoint b\ndist a b\nend\n", "line 4: expected 'dist <p> <q> <value>'"),
        ("space\npoint a b\nend\n", "line 2: expected 'point <name>'"),
        ("# a comment\n\n  # another\n", "empty document: missing 'space' header"),
    ],
    ids=["dist-arity", "point-arity", "comments-only"],
)
def test_validate_refuses_a_malformed_document(tmp_path, capsys, text, line):
    path = tmp_path / "malformed.space"
    path.write_text(text)
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_canonical_and_commented_stage_files_report_alike(tmp_path, capsys):
    """A grown stage file is read by the canonical reader; behind a comment
    line it goes through the line parser.  validate, iso and embed --all
    print the same on both."""
    stage = new_builder(FinSpace((), {})).grow(64).stage()
    text = serialize_space(stage)
    pattern = tmp_path / "pattern.space"
    pattern.write_text(serialize_space(stage.subspace(stage.points[5:9])))
    reports = []
    for name, doc in (("canonical.space", text), ("commented.space", "# comment\n" + text)):
        path = str(tmp_path / name)
        Path(path).write_text(doc)
        report = []
        for argv in (["validate", path], ["iso", path, path],
                     ["embed", str(pattern), path, "--all"]):
            status = run(argv)
            captured = capsys.readouterr()
            report.append((status, captured.out, captured.err))
        reports.append(report)
    assert reports[0] == reports[1]
    assert [status for status, _, _ in reports[0]] == [0, 0, 0]


def test_limit_grow_from_empty(tmp_path, capsys):
    out = tmp_path / "stage.space"
    assert run(["limit", "grow", "--seed", "empty", "--steps", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "stage-size 5\n"
    stage = parse_space(out.read_text())
    assert len(stage) == 5
    assert validate(stage).is_valid


def test_limit_grow_from_file(files, tmp_path, capsys):
    out = tmp_path / "stage.space"
    assert run(
        ["limit", "grow", "--seed", files["unit.space"], "--steps", "3", "--out", str(out)]
    ) == 0
    stage = parse_space(out.read_text())
    assert len(stage) == 5
    assert {stage.names[p] for p in stage.points} >= {"p", "q"}
    assert validate(stage).is_valid


def test_limit_grow_refuses_oversized_stage(tmp_path, capsys):
    out = tmp_path / "stage.space"
    argv = ["limit", "grow", "--seed", "empty", "--steps", str(10**9), "--out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "32000000000000000000 bytes" in captured.err
    assert not out.exists()


def test_validate_refuses_a_file_past_the_store_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ordmet.spacefile, "STORE_BUDGET_BYTES", store_bytes(2) - 1)
    path = tmp_path / "pair.space"
    path.write_text(UNIT_PAIR)
    assert run(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: line 3: space of 2 points needs about {store_bytes(2)} bytes"
        f" of distance rows, over the {store_bytes(2) - 1}-byte budget\n"
    )


def test_witness_build(files, tmp_path, capsys):
    out = tmp_path / "config.space"
    assert run(
        ["witness", "build", "--support", files["single.space"], "--n", "2", "--m", "1",
         "--out", str(out)]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["k 2", "far 4/1", "points 8"]
    config_space = parse_space(out.read_text())
    assert validate(config_space).is_valid
    assert serialize_space(config_space) == out.read_text()


def test_witness_verify_pass(files, capsys):
    assert run(
        ["witness", "verify", "--support", files["single.space"], "--n", "2", "--m", "1",
         "--trace", "5,6"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "min-index 5"
    assert out[-1] == "injective true"


def test_witness_verify_inadmissible(files, capsys):
    assert run(
        ["witness", "verify", "--support", files["single.space"], "--n", "2", "--m", "1",
         "--trace", "6"]
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_witness_exhaust(files, capsys):
    assert run(
        ["witness", "exhaust", "--support", files["single.space"], "--n", "2", "--m", "1"]
    ) == 0
    assert capsys.readouterr().out == "checked 2\npassed 2\nverdict pass\n"


def test_witness_exhaust_refuses_over_budget(files, monkeypatch, capsys):
    def enumerated(*args):
        raise AssertionError("exhaust enumerated traces past its budget")

    monkeypatch.setattr(ordmet.witness, "_shift_core", enumerated)
    argv = ["witness", "exhaust", "--support", files["single.space"], "--n", "1", "--m", "60"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exhaust would check 1152921504606846976 traces (2^60) at n = 1,"
        " 1152921504606846976 shift checks and pair tests,"
        f" over the budget of {ordmet.witness.EXHAUST_BUDGET_CHECKS}\n"
    )


def witness_argv(command, support, n, m, *extra):
    return ["witness", command, "--support", support, "--n", str(n), "--m", str(m), *extra]


@pytest.mark.parametrize("value", ["\u0663", "1_0", "+3"])
def test_integer_options_take_ascii_digits_only(value, capsys):
    """``int`` reads other scripts' digits, underscores and a plus sign;
    integer options take ``-?[0-9]+``, as grid values and space files do."""
    assert run(["fraisse-check", "--max-size", value, "--grid", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --max-size: invalid int value: {value!r}\n")


@pytest.mark.parametrize("token", ["\u0663", "0_3"])
def test_trace_tokens_take_ascii_digits_only(files, token, capsys):
    argv = witness_argv("verify", files["single.space"], 1, 1, "--trace", token)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed integer {token!r}\n"
    assert run(witness_argv("verify", files["single.space"], 1, 1, "--trace", " 3")) == 0


LONG = "1" + "0" * 4400
LONG_REFUSED = f"{LONG[:40]!r}... (4401 characters) has 4401 digits, over the 4300-digit limit"


def test_long_integer_tokens_are_refused_in_our_words(files, capsys):
    """A run of 4,401 digits exits 2 with one line that shows the token by
    its first 40 characters and its length, as a trace token, a grid value
    and a space-file value alike."""
    space = files["dir"] / "long.space"
    space.write_text(f"space\npoint a\npoint b\ndist a b {LONG}\nend\n")
    cases = [
        (witness_argv("verify", files["single.space"], 1, 1, "--trace", LONG), f"integer {LONG_REFUSED}"),
        (["fraisse-check", "--max-size", "2", "--grid", f"1,{LONG}"], f"rational {LONG_REFUSED}"),
        (["validate", str(space)], f"line 4: rational {LONG_REFUSED}"),
    ]
    for argv, message in cases:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


MALFORMED = "x" * 5000


def test_long_malformed_tokens_are_shown_short(files, capsys):
    """A malformed token past 40 characters exits 2 with one short line
    that shows its first 40 characters and its length, as a grid value, a
    space-file value and a trace token alike; 40 characters show whole."""
    space = files["dir"] / "malformed.space"
    space.write_text(f"space\npoint a\npoint b\ndist a b {MALFORMED}\nend\n")
    cut = f"{MALFORMED[:40]!r}... (5000 characters)"
    zero = "1/" + "0" * 100
    cases = [
        (["fraisse-check", "--max-size", "2", "--grid", f"1,{MALFORMED}"], f"malformed rational {cut}"),
        (["validate", str(space)], f"line 4: malformed rational {cut}"),
        (
            witness_argv("verify", files["single.space"], 1, 1, "--trace", MALFORMED),
            f"malformed integer {cut}",
        ),
        (
            ["fraisse-check", "--max-size", "2", "--grid", zero],
            f"malformed rational {zero[:40]!r}... (102 characters): zero denominator",
        ),
        (["fraisse-check", "--max-size", "2", "--grid", "x" * 40], f"malformed rational {'x' * 40!r}"),
    ]
    for argv, message in cases:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert len(captured.err.encode()) <= 300


@pytest.mark.parametrize(
    "n, m, traces, checks",
    [
        (1, 10**5, "2^100000", "2^100000"),
        (1, 10**12, "2^1000000000000", "2^1000000000000"),
        (2, 10**5, "2^199999", "3 * 2^199999"),
    ],
)
def test_witness_exhaust_states_huge_counts_as_powers_of_two(files, capsys, n, m, traces, checks):
    """Counts past 4,300 decimal digits are refused from the exponent and
    stated as powers of two, not converted to decimal."""
    assert run(witness_argv("exhaust", files["single.space"], n, m)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: exhaust would check {traces} traces ({traces}) at n = {n},"
        f" {checks} shift checks and pair tests,"
        f" over the budget of {ordmet.witness.EXHAUST_BUDGET_CHECKS}\n"
    )


def test_witness_exhaust_reproduces_the_recorded_grid(tmp_path, capsys):
    """Byte for byte the output and exit status recorded from the engine
    that checked every trace: (1, 1..20), up to 2^20 traces, (2..6, 1..4),
    (19, 1), and the refused (1, 21), (19, 2) and (1, 100000)."""
    recorded = json.loads((Path(__file__).parent / "data" / "witness-exhaust-grid.json").read_text())
    support = tmp_path / "support.space"
    support.write_text(recorded["support"])
    for expected in recorded["runs"]:
        status = run(witness_argv("exhaust", str(support), expected["n"], expected["m"]))
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == (
            expected["status"], expected["stdout"], expected["stderr"]
        ), (expected["n"], expected["m"])


def test_witness_build_refuses_oversized_table(files, tmp_path, capsys):
    out = tmp_path / "config.space"
    assert run(witness_argv("build", files["single.space"], 40, 50, "--out", str(out))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: configuration of 6002 points needs about {store_bytes(6002)} bytes"
        f" of distance rows, over the {STORE_BUDGET_BYTES}-byte budget\n"
    )
    assert "1152768128 bytes" in captured.err
    assert not out.exists()


def test_witness_exhaust_and_verify_at_k_2000(files, capsys):
    """k = 2000 needs no 6,002-point table: exhaust refuses on its work
    budget, and the tail trace verifies."""
    assert run(witness_argv("exhaust", files["single.space"], 40, 50)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exhaust would check ")
    assert "traces (2^1961) at n = 40," in captured.err
    tail = ",".join(map(str, range(5961, 6001)))
    assert run(witness_argv("verify", files["single.space"], 40, 50, "--trace", tail)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "min-index 5961"
    assert lines[1:41] == [f"shift {j}: end in pattern {{{5961 + j}}} ok" for j in range(40)]
    assert lines[41:] == ["distinct true", "injective true"]


def test_witness_verify_refuses_masks_over_the_byte_budget(files, monkeypatch, capsys):
    """At n = 1, m = 10^7 the 3k + 1 = 30,000,001-bit masks and the binary
    string need 52,500,009 bytes: refused one byte under that, before any
    mask is built, and run at it."""
    estimate = 6 * (30_000_000 // 8 + 1) + 30_000_003
    assert ordmet.witness._verify_bytes(10_000_000, 1) == estimate == 52_500_009
    argv = witness_argv("verify", files["single.space"], 1, 10_000_000, "--trace", "30000000")
    real_mask = ordmet.witness._mask

    def built(*args):
        raise AssertionError("verify built a mask past its budget")

    monkeypatch.setattr(ordmet.witness, "STORE_BUDGET_BYTES", estimate - 1)
    monkeypatch.setattr(ordmet.witness, "_mask", built)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verify needs about 52500009 bytes of 30000001-bit masks at n = 1,"
        " over the 52500008-byte budget\n"
    )
    monkeypatch.setattr(ordmet.witness, "STORE_BUDGET_BYTES", estimate)
    monkeypatch.setattr(ordmet.witness, "_mask", real_mask)
    assert run(argv) == 0
    assert capsys.readouterr().out == (
        "min-index 30000000\nshift 0: end in pattern {30000000} ok\n"
        "distinct true\ninjective true\n"
    )


def test_witness_verify_refuses_a_trillion_step_chain(files, capsys):
    argv = witness_argv("verify", files["single.space"], 1, 10**12, "--trace", str(3 * 10**12))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verify needs about 5250000000009 bytes of 3000000000001-bit masks at n = 1,"
        f" over the {STORE_BUDGET_BYTES}-byte budget\n"
    )


def test_witness_states_numbers_past_4300_digits_by_bit_length(files, tmp_path, capsys):
    """n of 2,200 digits: k = n formats, but the exhaust cost n(n+1)/2, the
    verify mask bytes and the table bytes pass 4,300 digits and are stated
    by bit length, exit 2, nothing written."""
    n = int("1" * 2200)
    single = files["single.space"]
    out = tmp_path / "config.space"
    cost = n + n * (n - 1) // 2
    verify_bytes = (2 * n + 4) * (3 * n // 8 + 1) + 3 * n + 3
    expected = {
        ("exhaust",): (
            f"error: exhaust would check 2 traces (2^1) at n = {n},"
            f" (a {cost.bit_length()}-bit number) * 2^1 shift checks and pair tests,"
            f" over the budget of {ordmet.witness.EXHAUST_BUDGET_CHECKS}\n"
        ),
        ("verify", "--trace", "0"): (
            f"error: verify needs about (a {verify_bytes.bit_length()}-bit number) bytes"
            f" of {3 * n + 1}-bit masks at n = {n}, over the {STORE_BUDGET_BYTES}-byte budget\n"
        ),
        ("build", "--out", str(out)): (
            f"error: configuration of {3 * n + 2} points needs about"
            f" (a {store_bytes(3 * n + 2).bit_length()}-bit number) bytes of distance rows,"
            f" over the {STORE_BUDGET_BYTES}-byte budget\n"
        ),
    }
    assert cost.bit_length() == 14610 and cost >= 10**4300
    for (command, *extra), err in expected.items():
        assert run(witness_argv(command, single, n, 1, *extra)) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "verify", "exhaust"])
def test_witness_refuses_a_chain_end_past_4300_digits(files, tmp_path, capsys, command):
    """n and m of 4,000 digits each: 3k has about 8,000 digits, so no chain
    name a<3k> can be written; refused by bit length before any count."""
    n = m = int("7" * 4000)
    extra = {"build": ["--out", str(tmp_path / "x.space")], "verify": ["--trace", "0"]}
    assert run(witness_argv(command, files["single.space"], n, m, *extra.get(command, []))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: chain end index 3k has {(3 * n * m).bit_length()} bits;"
        " its name would pass 4,300 decimal digits\n"
    )


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["validate"]) == 2
    assert run(["witness", "verify", "--support", "x", "--n", "2"]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_witness_bad_parameters_exit_two(files, tmp_path, capsys):
    assert run(
        ["witness", "build", "--support", files["single.space"], "--n", "0", "--m", "1",
         "--out", str(tmp_path / "x.space")]
    ) == 2
    assert run(["fraisse-check", "--max-size", "1", "--grid", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "error, line",
    [
        (RuntimeError("broken"), "RuntimeError: broken"),
        (KeyError(7), "KeyError: 7"),
        (AssertionError("unreachable"), "AssertionError: unreachable"),
        (RecursionError("maximum recursion depth exceeded"),
         "RecursionError: maximum recursion depth exceeded"),
    ],
    ids=["RuntimeError", "KeyError", "AssertionError", "RecursionError"],
)
def test_internal_error_exits_three(files, monkeypatch, capsys, error, line):
    """Any exception other than OSError and ValueError is a fault of the
    program: exit 3 and one line on stderr, never a traceback and exit 1."""
    def broken(*args):
        raise error

    monkeypatch.setattr(ordmet.cli, "build_witness", broken)
    argv = ["witness", "exhaust", "--support", files["single.space"], "--n", "2", "--m", "1"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {line}\n"


def test_console_entry_point(files, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ordmet", "validate", files["unit.space"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "valid\n"
    proc = subprocess.run(
        [sys.executable, "-m", "ordmet", "witness", "exhaust", "--support",
         files["single.space"], "--n", "1", "--m", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "passed 2" in proc.stdout


def test_only_fraisse_check_loads_numpy(files, tmp_path):
    support = ["--support", files["single.space"], "--n", "2", "--m", "1"]
    commands = [
        ["validate", files["single.space"]],
        ["iso", files["unit.space"], files["other.space"]],
        ["embed", files["unit.space"], files["other.space"], "--all"],
        ["limit", "grow", "--seed", "empty", "--steps", "5", "--out", str(tmp_path / "s.space")],
        ["witness", "build", *support, "--out", str(tmp_path / "config.space")],
        ["witness", "verify", *support, "--trace", "5,6"],
        ["witness", "exhaust", *support],
        ["fraisse-check", "--max-size", "3", "--grid", "1,2"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported, *cold, fraisse = json.loads(proc.stdout)
    assert imported == [0, "", False]
    assert [(status, loaded) for status, _, loaded in cold] == [(0, False)] * 7
    assert fraisse == [0, FRAISSE_3_12, True]


def test_fraisse_names_resolve_on_access():
    import ordmet.fraisse

    assert ordmet.check_fraisse_properties is ordmet.fraisse.check_fraisse_properties
    assert ordmet.FraisseReport is ordmet.fraisse.FraisseReport
    namespace = {}
    exec("from ordmet import *", namespace)
    assert namespace["check_fraisse_properties"] is ordmet.fraisse.check_fraisse_properties
    assert namespace["FraisseReport"] is ordmet.fraisse.FraisseReport
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ordmet.no_such_name


# -- fuzzed inputs -------------------------------------------------------------

FUZZ_TOKENS = [
    "", "0/1", "-1/2", "2/4", "1/0", "3", "x", "p0", "p9", "a0", "dist", "point", "end",
    "space", "#", "1e3", "١/٢", "99999999999999999999999/7",
]


@st.composite
def mutated_space_files(draw):
    """``serialize_space`` output of a random 0-6 point table, valid or not,
    with one line dropped, duplicated or swapped, or one token replaced."""
    size = draw(st.integers(0, 6))
    values = st.sampled_from(["1/2", "1", "3/2", "2", "5"])
    names = [f"p{i}" for i in range(size)]
    dists = {pair: draw(values) for pair in combinations(names, 2)}
    lines = serialize_space(make_space(names, dists)).splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
    if edit == "drop":
        del lines[at]
    elif edit == "duplicate":
        lines.insert(at, lines[at])
    elif edit == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        tokens = lines[at].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def run_captured(argv) -> tuple[int, str]:
    """Exit status and stderr of one in-process command line; an exception
    that escapes ``run`` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    return status, err.getvalue()


def assert_contract(status: int, err: str) -> None:
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 2:
        assert err.strip()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=mutated_space_files())
def test_mutated_space_files_keep_the_exit_contract(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.space"
    path.write_text(text)
    file = str(path)
    for argv in (["validate", file], ["iso", file, file], ["embed", file, file, "--all"]):
        assert_contract(*run_captured(argv))


@st.composite
def trace_arguments(draw):
    """n, m and a --trace value on a one-point support: chain indices in
    and around the window, the tail half the time (so that some traces are
    admissible), and at times one fuzz token."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    top = 3 * n * m
    near = st.integers(-1, top + 1) | st.integers(2 * n * m, top)
    trace = draw(st.lists(near, max_size=6))
    if draw(st.booleans()):
        trace += range(top - n + 1, top + 1)
    tokens = [str(i) for i in trace]
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(FUZZ_TOKENS)))
    return n, m, ",".join(tokens)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(arguments=trace_arguments())
def test_random_traces_keep_the_exit_contract(tmp_path_factory, arguments):
    n, m, trace = arguments
    support = tmp_path_factory.getbasetemp() / "single.space"
    support.write_text(SINGLE)
    assert_contract(*run_captured(witness_argv("verify", str(support), n, m, "--trace", trace)))


# -1, 0, small values, 10**6, 10**7 and 10**4400, past the 4,300 digits
# that ``int`` parses from a string
NUMBERS = ["-1", "0", "1", "2", "3", "4", str(10**6), str(10**7), "1" + "0" * 4400]
# two small valid grids, then bad ones
GRIDS = ["1", "2/3", "", ",", "0", "-1", "1,0", "1/0", "x", "1e3", "1/2/3", "١", "1" + "0" * 4400]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(["fraisse-check", "limit grow", "witness build", "witness exhaust"]),
    first=st.sampled_from(NUMBERS),
    second=st.sampled_from(NUMBERS),
    grid=st.sampled_from(GRIDS),
)
def test_numeric_arguments_keep_the_exit_contract(tmp_path_factory, command, first, second, grid):
    """Sizes, step counts and witness parameters out of range, small or
    huge are each refused or answered: exit 0, 1 or 2, no traceback, and
    at most 300 bytes of stderr (a huge value is not echoed whole)."""
    work = tmp_path_factory.getbasetemp()
    support, out = work / "single.space", str(work / "numeric.space")
    support.write_text(SINGLE)
    argv = {
        "fraisse-check": ["fraisse-check", "--max-size", first, "--grid", grid],
        "limit grow": ["limit", "grow", "--seed", "empty", "--steps", first, "--out", out],
        "witness build": witness_argv("build", str(support), first, second, "--out", out),
        "witness exhaust": witness_argv("exhaust", str(support), first, second),
    }[command]
    status, err = run_captured(argv)
    assert_contract(status, err)
    assert len(err.encode()) <= 300
