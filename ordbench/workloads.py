"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload has a ``build`` step (the set-up a user pays before asking
for a verdict: writing space files, choosing tuples and traces) and an
``ops`` list.  One pass runs every op once, in order; passes are
independent, so every pass does the same work on the same inputs.

An op returns an :class:`Outcome`: exit code, stdout text, the sha256 of
every file it wrote, and exact counts the program does not print
(``facts``).  CLI ops go through ``ordmet.cli.run`` in-process; library ops
call the public functions through the ``ordmet`` package, so that wrappers
installed by the traced run see every call.

Sizes live in ``SIZES``; ``smoke`` sizes run in a few seconds and exist
for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import ordmet
from ordmet import cli

SIZES = {
    "full": {
        # (max size, grid) per CLI slice check; the second grid is not all
        # integers, so it runs the rescaling path.
        "fraisse_cli": [(4, "1,2,3"), (4, "1/2,1,2")],
        "fraisse_direct": (3, "1,2"),
        "grow_steps": 250,
        "bf_sessions": 2,
        "bf_base": 30,
        "bf_isos": 35,
        "bf_steps": 5,
        "check_points": 64,
        "patterns": (3, 3, 3, 3, 3, 4, 4, 4, 4, 4),
        "orbit_calls": 80,
        "orbit_arity": 3,
        "exhaust": [(3, 5), (4, 4)],
        "verify": [(3, 5), (4, 4), (2, 3)],
    },
    "smoke": {
        "fraisse_cli": [(3, "1,2"), (3, "1/2,1")],
        "fraisse_direct": (3, "1,2"),
        "grow_steps": 20,
        "bf_sessions": 1,
        "bf_base": 8,
        "bf_isos": 4,
        "bf_steps": 3,
        "check_points": 12,
        "patterns": (3, 4),
        "orbit_calls": 2,
        "orbit_arity": 2,
        "exhaust": [(2, 2)],
        "verify": [(2, 2)],
    },
}

# Any table whose values all lie in [1, 2] satisfies every triangle
# inequality, so random spaces over this grid are valid by construction.
RANDOM_GRID = (Fraction(1), Fraction(3, 2), Fraction(2))
# No limit stage of benchmark size uses this denominator, so a pattern
# carrying it embeds nowhere.
ABSENT = Fraction(1, 997)


@dataclass
class Outcome:
    exit: int
    text: str
    files: dict[str, str] = field(default_factory=dict)
    facts: dict[str, int] = field(default_factory=dict)


@dataclass
class Op:
    id: str
    call: Callable[[], Outcome]
    # Check independent of the pinned oracle: returns a problem or None.
    expect: Optional[Callable[[Outcome], Optional[str]]] = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_op(op_id: str, argv: list[str], writes=(), expect=None) -> Op:
    def call() -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        files = {Path(p).name: sha256(Path(p).read_bytes()) for p in writes}
        return Outcome(code, out.getvalue(), files)

    return Op(op_id, call, expect)


def _write(path: Path, space: ordmet.FinSpace) -> str:
    path.write_text(ordmet.serialize_space(space))
    return str(path)


def _random_space(rng: random.Random, size: int, prefix: str) -> ordmet.FinSpace:
    names = [f"{prefix}{i}" for i in range(size)]
    dists = {
        (names[i], names[j]): rng.choice(RANDOM_GRID)
        for i in range(size)
        for j in range(i + 1, size)
    }
    return ordmet.make_space(names, dists)


def _exit_is(code: int, text: Optional[str] = None):
    def check(o: Outcome) -> Optional[str]:
        if o.exit != code:
            return f"exit {o.exit}, expected {code}"
        if text is not None and o.text != text:
            return f"stdout {o.text[:60]!r}, expected {text!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# fraisse-slice: the AP kernel and the direct engine's amalgamate.  No part
# of it is random.


def build_fraisse(rng: random.Random, work: Path, sz: dict) -> dict:
    return {}


def ops_fraisse(inp: dict, sz: dict) -> list[Op]:
    ops = [
        cli_op(f"fraisse-check {size} {grid}",
               ["fraisse-check", "--max-size", str(size), "--grid", grid],
               expect=_exit_is(0))
        for size, grid in sz["fraisse_cli"]
    ]
    size, grid = sz["fraisse_direct"]
    values = [ordmet.parse_rational(tok) for tok in grid.split(",")]

    def direct() -> Outcome:
        report = ordmet.check_fraisse_properties(size, values, engine="direct")
        vector = ordmet.check_fraisse_properties(size, values, engine="vector")
        lines = report.lines() + [
            "engines " + ("agree" if report.lines() == vector.lines() else "differ")
        ]
        return Outcome(0 if report.all_ok else 1, "\n".join(lines) + "\n")

    def engines_agree(o: Outcome) -> Optional[str]:
        return None if o.text.endswith("engines agree\n") else "direct and vector reports differ"

    ops.append(Op(f"direct-vs-vector {size} {grid}", direct, engines_agree))
    return ops


# ---------------------------------------------------------------------------
# stage-grow: the write side of the stage representation.  realize is
# reached through the fair schedule (limit grow) and through image search
# (back-and-forth on a small stage, which grows it).


def build_grow(rng: random.Random, work: Path, sz: dict) -> dict:
    base = ordmet.new_builder(ordmet.FinSpace((), {})).grow(sz["bf_base"]).stage()
    sessions = []
    for _ in range(sz["bf_sessions"]):
        plans = []
        for _ in range(sz["bf_isos"]):
            size = rng.randint(1, 3)
            dom = sorted(rng.sample(base.points, size), key=base.position)
            images = list(ordmet.enumerate_embeddings(base.subspace(dom), base))
            emb = rng.choice(images)
            # Targets are drawn as fractions of the stage size at the time
            # of the step, because the stage grows while the session runs.
            targets = [rng.random() for _ in range(sz["bf_steps"])]
            plans.append((tuple(dom), tuple(emb(p) for p in dom), targets))
        sessions.append(plans)
    return {"out": str(work / "grow.space"), "sessions": sessions}


def ops_grow(inp: dict, sz: dict) -> list[Op]:
    steps = sz["grow_steps"]
    ops = [
        cli_op(f"limit grow {steps}",
               ["limit", "grow", "--seed", "empty", "--steps", str(steps), "--out", inp["out"]],
               writes=[inp["out"]], expect=_exit_is(0, f"stage-size {steps}\n"))
    ]

    def session(plans) -> Outcome:
        builder = ordmet.new_builder(ordmet.FinSpace((), {})).grow(sz["bf_base"])
        lines = []
        for dom, cod, targets in plans:
            iso = ordmet.PartialIso(dom, cod)
            for step, u in enumerate(targets):
                created = builder.created
                target = created[int(u * len(created))]
                side = "forth" if step % 2 == 0 else "back"
                iso = builder.back_and_forth_extend(iso, target, side)
            lines.append(" ".join(f"{x}->{y}" for x, y in zip(iso.dom, iso.cod)))
        stage = ordmet.serialize_space(builder.stage())
        lines.append(f"stage-size {len(builder)}")
        lines.append("stage-sha256 " + sha256(stage.encode()))
        return Outcome(0, "\n".join(lines) + "\n", facts={"limit.stage_points": len(builder)})

    for i, plans in enumerate(inp["sessions"]):
        ops.append(Op(f"back-and-forth {i}", lambda plans=plans: session(plans)))
    return ops


# ---------------------------------------------------------------------------
# stage-check: the read side of the same representation (parse_space,
# validate, enumerate_embeddings, orbits).  limit runs only in set-up.


def build_check(rng: random.Random, work: Path, sz: dict) -> dict:
    n = sz["check_points"]
    stage_path = str(work / "stage.space")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["limit", "grow", "--seed", "empty", "--steps", str(n), "--out", stage_path])
    if code != 0:
        raise RuntimeError(f"limit grow exited {code} in set-up")
    stage = ordmet.parse_space(Path(stage_path).read_text())

    rand = _random_space(rng, n, "r")
    rand_path = _write(work / "random.space", rand)
    p, q = sorted(rng.sample(rand.points, 2))
    entries = dict(rand.entries)
    entries[(p, q)] = Fraction(5)
    corrupt_path = _write(work / "corrupt.space", ordmet.FinSpace(rand.points, entries, rand.names))

    patterns = []
    for i, k in enumerate(sz["patterns"]):
        keep = rng.sample(stage.points, k)
        patterns.append(_write(work / f"pattern{i}.space", stage.subspace(keep)))
    absent = ordmet.make_space(
        ["n0", "n1", "n2"], {("n0", "n1"): 1, ("n0", "n2"): 1, ("n1", "n2"): ABSENT}
    )
    absent_path = _write(work / "absent.space", absent)

    orbit_cases = []
    for _ in range(sz["orbit_calls"]):
        support = frozenset(rng.sample(stage.points, rng.randint(1, 2)))
        t = tuple(rng.sample(stage.points, sz["orbit_arity"]))
        other = tuple(rng.sample(stage.points, sz["orbit_arity"]))
        orbit_cases.append((support, t, other, rng.random()))
    return {
        "n": n,
        "stage": stage_path,
        "random": rand_path,
        "corrupt": corrupt_path,
        "patterns": patterns,
        "absent": absent_path,
        "stage_space": stage,
        "orbit_cases": orbit_cases,
    }


def ops_check(inp: dict, sz: dict) -> list[Op]:
    n = inp["n"]
    ops = [
        cli_op("validate stage", ["validate", inp["stage"]], expect=_exit_is(0, "valid\n")),
        cli_op("validate random", ["validate", inp["random"]], expect=_exit_is(0, "valid\n")),
        cli_op("iso stage", ["iso", inp["stage"], inp["stage"]], expect=_exit_is(0)),
        cli_op("iso random", ["iso", inp["random"], inp["random"]], expect=_exit_is(0)),
    ]
    for i, path in enumerate(inp["patterns"]):
        ops.append(cli_op(f"embed pattern{i}", ["embed", path, inp["stage"], "--all"],
                          expect=_exit_is(0)))
    ops.append(cli_op("embed absent", ["embed", inp["absent"], inp["stage"], "--all"],
                      expect=_exit_is(1, "none\n")))

    stage = inp["stage_space"]

    def orbits() -> Outcome:
        lines = []
        for support, t, other, u in inp["orbit_cases"]:
            found = sorted(ordmet.orbit_traces(stage, support, t))
            pick = found[int(u * len(found))]
            same = ordmet.same_fix_orbit(stage, support, t, pick)
            differ = ordmet.same_fix_orbit(stage, support, t, other)
            digest = sha256(repr(found).encode())[:16]
            lines.append(f"orbit {len(found)} {digest} {same} {differ}")
        return Outcome(0, "\n".join(lines) + "\n")

    def orbit_laws(o: Outcome) -> Optional[str]:
        # every tuple is in its own orbit and the picked member is conjugate
        for line in o.text.splitlines():
            _, count, _, same, _ = line.split()
            if int(count) < 1 or same != "True":
                return f"orbit law broken: {line}"
        return None

    ops.append(Op("orbits", orbits, orbit_laws))

    def corrupt_caught(o: Outcome) -> Optional[str]:
        lines = o.text.splitlines()
        if o.exit != 1:
            return f"exit {o.exit}, expected 1"
        if len(lines) != n - 2 or not all(line.startswith("triangle ") for line in lines):
            return f"{len(lines)} report lines, expected {n - 2} triangle lines"
        return None

    ops.append(cli_op("validate corrupt", ["validate", inp["corrupt"]], expect=corrupt_caught))
    return ops


# ---------------------------------------------------------------------------
# witness-exhaust: the only workload that runs verify_injection.


def build_witness_inputs(rng: random.Random, work: Path, sz: dict) -> dict:
    support = _random_space(rng, rng.randint(1, 3), "b")
    path = _write(work / "support.space", support)
    verify = []
    for n, m in sz["verify"]:
        k = n * m
        tail = set(range(3 * k - n + 1, 3 * k + 1))
        free = [i for i in range(2 * k, 3 * k + 1) if i not in tail]
        trace = sorted(tail | {i for i in free if rng.random() < 0.5})
        verify.append((n, m, trace))
    n, m = sz["verify"][0]
    k = n * m
    # Missing the chain end 3k makes a trace inadmissible.
    bad = list(range(3 * k - n + 1, 3 * k))
    return {"support": path, "verify": verify, "bad": (n, m, bad)}


def ops_witness(inp: dict, sz: dict) -> list[Op]:
    sup = inp["support"]
    ops = [
        cli_op(f"exhaust {n} {m}",
               ["witness", "exhaust", "--support", sup, "--n", str(n), "--m", str(m)],
               expect=_exit_is(0))
        for n, m in sz["exhaust"]
    ]
    for i, (n, m, trace) in enumerate(inp["verify"]):
        ops.append(cli_op(
            f"verify {i}",
            ["witness", "verify", "--support", sup, "--n", str(n), "--m", str(m),
             "--trace", ",".join(map(str, trace))],
            expect=_exit_is(0)))
    n, m, bad = inp["bad"]
    ops.append(cli_op(
        "verify inadmissible",
        ["witness", "verify", "--support", sup, "--n", str(n), "--m", str(m),
         "--trace", ",".join(map(str, bad))],
        expect=_exit_is(2, "")))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # False: no input depends on the seed
    build: Callable[[random.Random, Path, dict], dict]
    ops: Callable[[dict, dict], list[Op]]
    reference: str = "python"  # reference loop whose speed tracks this workload's


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fraisse-slice", False, build_fraisse, ops_fraisse, "numpy"),
        Workload("stage-grow", True, build_grow, ops_grow),
        Workload("stage-check", True, build_check, ops_check),
        Workload("witness-exhaust", True, build_witness_inputs, ops_witness),
    )
}
