#!/usr/bin/env python3
"""Benchmark for ordmet: time to verdict, set-up time and peak memory of
four fixed workloads, each output checked against an oracle pinned in
``oracle.json``.

Run one workload (the last stdout line is a JSON result)::

    python3 ordbench/run.py --workload stage-check --seed 1 --seconds 25 --trace 0

Every workload, one row each (wall_s, wall_norm, setup_s, peak_rss_mb, fail_ratio)::

    python3 ordbench/run.py --all --seed 1 --seconds 25

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py``; ``--smoke`` uses tiny sizes;
``--pin`` records the oracle from the code in ``src/``.

Load model: one process, one thread, closed loop; each call starts when
the previous verdict returns.  A pass runs every op of the workload once;
passes repeat until ``--seconds`` would be exceeded, and each time metric
is the median over passes.  The host's speed drifts by tens of percent
over minutes, so a fixed reference loop runs between passes and the
gated pass time is divided by it (see ``reference_loop``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".ordbench"
ORACLE = BENCH / "oracle.json"
NAMES = ("fraisse-slice", "stage-grow", "stage-check", "witness-exhaust")
# The seed selects one of this many input variants; each has pinned outputs.
VARIANTS = 16
SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
NUMPY_REPS = 9  # about 0.1 s of array work in the numpy reference loop


def _require_source() -> None:
    if not (SRC / "ordmet" / "__init__.py").is_file():
        raise SystemExit(f"error: no ordmet sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _variant(workload, seed: int) -> int:
    return seed % VARIANTS if workload.seeded else 0


def _workdir(tag: str) -> Path:
    path = OUT / f"work-{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# set-up


def setup_child(name: str, seed: int, mode: str) -> None:
    """Import ordmet and build the inputs in this fresh interpreter; print
    both durations as JSON."""
    started = time.perf_counter()
    import ordmet  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    import workloads

    work = _workdir("setup")
    try:
        wl = workloads.WORKLOADS[name]
        wl.build(random.Random(_variant(wl, seed)), work, workloads.SIZES[mode])
        done = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"import_s": imported - started, "setup_s": done - started}))


def measure_setup(name: str, seed: int, mode: str) -> tuple[float, float]:
    """Median set-up and import time over fresh interpreters."""
    setups, imports = [], []
    for _ in range(SETUP_RUNS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                "--workload", name, "--seed", str(seed)] + (["--smoke"] if mode == "smoke" else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-400:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(result["setup_s"])
        imports.append(result["import_s"])
    return statistics.median(setups), statistics.median(imports)


# ---------------------------------------------------------------------------
# oracle


def load_oracle() -> dict:
    return json.loads(ORACLE.read_text()) if ORACLE.is_file() else {}


def _pin_of(outcome) -> dict:
    lines = outcome.text.splitlines()
    return {
        "exit": outcome.exit,
        "lines": len(lines),
        "sha256": hashlib.sha256(outcome.text.encode()).hexdigest(),
        "head": lines[:3],
        "files": outcome.files,
    }


def check(op, outcome, got: dict, pinned: dict | None) -> str | None:
    """First problem with an op's outcome (``got`` is its pin), or None
    when it is correct."""
    if op.expect is not None:
        problem = op.expect(outcome)
        if problem:
            return problem
    if pinned is None:
        return "no pinned output"
    for key in ("exit", "sha256", "files"):
        if got[key] != pinned[key]:
            return f"{key} differs from the pinned oracle: {got[key]!r} != {pinned[key]!r}"
    return None


def pin(mode: str) -> None:
    """Record every op's outcome for every variant at the current code."""
    import workloads

    oracle = load_oracle()
    section = oracle.setdefault(mode, {})
    for name in NAMES:
        wl = workloads.WORKLOADS[name]
        variants = range(VARIANTS) if wl.seeded else [0]
        section[name] = {}
        for variant in variants:
            work = _workdir("pin")
            sz = workloads.SIZES[mode]
            ops = wl.ops(wl.build(random.Random(variant), work, sz), sz)
            entry = {}
            for op in ops:
                outcome = op.call()
                problem = op.expect(outcome) if op.expect else None
                if problem:
                    raise SystemExit(f"{name} variant {variant} {op.id}: {problem}")
                entry[op.id] = _pin_of(outcome)
            section[name][str(variant)] = entry
            shutil.rmtree(work, ignore_errors=True)
            print(f"pinned {mode} {name} variant {variant}: {len(entry)} ops", file=sys.stderr)
    oracle["commit"] = _commit()
    oracle["src_sha256"] = _src_digest()
    oracle["variants"] = VARIANTS
    ORACLE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# timed run


def _commit() -> str | None:
    """HEAD of the git repository rooted at this checkout, if it is one."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ordmet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(seed: int) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def reference_loop(kind: str) -> float:
    """Seconds for a fixed loop that does not call ordmet.

    ``python`` is exact arithmetic and dict traffic, the kind of work most
    of ordmet does.  ``numpy`` is a quarter of that plus broadcast sums and
    minima over half-million-element int64 arrays, the AP kernel's kind of
    work, whose speed follows the host's much less closely than Python's.
    Its buffers are allocated once and stay small, so that the loop does
    not raise the workload's peak memory.
    """
    if kind == "numpy":
        import numpy as np

        rng = np.random.default_rng(0)
        left, right = rng.integers(1, 7, (128, 4, 3)), rng.integers(1, 7, (500, 3, 2))
        cross = np.empty((128, 500, 4, 2), dtype=np.int64)
        term = np.empty_like(cross)
    started = time.perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(1, 20000 if kind == "python" else 5000):
        q = Fraction(i % 97 + 1, i % 13 + 1)
        table[i % 512] = q
        acc = min(acc + q, table.get(i * 7 % 512, q) + q)
    if kind == "numpy":
        for _ in range(NUMPY_REPS):
            np.add(left[:, None, :, 0, None], right[None, :, None, 0, :], out=cross)
            for z in (1, 2):
                np.add(left[:, None, :, z, None], right[None, :, None, z, :], out=term)
                np.minimum(cross, term, out=cross)
            acc += int((cross <= 6).all(axis=(2, 3)).sum())
    return time.perf_counter() - started


def run_pass(ops, tracer=None) -> tuple[float, list]:
    """One pass over every op; returns its wall time and the outcomes (an
    op that raised leaves its exception).  Traced, each op is a root span
    with a request id of its own."""
    outcomes = []
    started = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.request += 1
            span = tracer.open("op")
        try:
            outcomes.append(op.call())
        except Exception as exc:  # a raising op is a failed op, not a crash
            outcomes.append(exc)
        finally:
            if tracer is not None:
                tracer.close(span)
    return time.perf_counter() - started, outcomes


def run_workload(name: str, seed: int, seconds: float, trace: bool, mode: str,
                 oracle: dict) -> dict:
    facts = machine_facts(seed)
    setup_s, import_s = measure_setup(name, seed, mode)

    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    variant = _variant(wl, seed)
    pinned = oracle.get(mode, {}).get(name, {}).get(str(variant), {})
    work = _workdir("run")
    sz = workloads.SIZES[mode]
    ops = wl.ops(wl.build(random.Random(variant), work, sz), sz)

    tracer = tracing.Tracer() if trace else None
    plain, traced, layer, norm = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    reference = None  # output digests of the first untraced pass
    started = time.perf_counter()
    ref_before = reference_loop(wl.reference)
    while True:
        use_tracer = trace and len(plain) > len(traced)
        if use_tracer:
            tracer.counts.clear()
            first = len(tracer.spans)
            tracer.install()
            try:
                wall, outcomes = run_pass(ops, tracer)
            finally:
                tracer.remove()
            for outcome in outcomes:
                if not isinstance(outcome, Exception):
                    tracer.counts.update(outcome.facts)
            layer.append(tracing.pass_metrics(tracer.spans, first, len(tracer.spans),
                                              tracer.counts, wall))
            traced.append(wall)
        else:
            wall, outcomes = run_pass(ops)
            plain.append(wall)
        ref_after = reference_loop(wl.reference)
        if not use_tracer:
            norm.append(wall / ((ref_before + ref_after) / 2))
        ref_before = ref_after
        digests = []
        for op, outcome in zip(ops, outcomes):
            attempted += 1
            if isinstance(outcome, Exception):
                problem = f"raised {type(outcome).__name__}: {outcome}"
                digests.append(None)
            else:
                digests.append(_pin_of(outcome))
                problem = check(op, outcome, digests[-1], pinned.get(op.id))
            if problem is None and reference is not None and digests[-1] != reference[len(digests) - 1]:
                problem = "output differs from the untraced pass"
            if problem is not None:
                failed += 1
                problems.append(f"{op.id}: {problem}")
        if reference is None:
            reference = digests
        elapsed = time.perf_counter() - started
        enough = not trace or (plain and traced)
        if enough and elapsed + wall + ref_after > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = tracing.median_metrics(layer)
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        tracer.write(OUT / f"spans-{name}.tsv.gz")
        for count in tracing.EXACT:
            if any(p[count] != layer[0][count] for p in layer):
                problems.append(f"{count} differs between traced passes")
        if tracer.missing:  # a renamed layer function reads 0, not a failure
            print(f"note: not traced: {', '.join(tracer.missing)}", file=sys.stderr)
        reported = {m: {"value": metrics[m], "unit": u}
                    for m, u in tracing.per_layer_units().items()}
    else:
        reported = {
            "wall_norm": {"value": statistics.median(norm), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "workload": name,
        "facts": facts,
        "passes": plain,
        "wall_s": statistics.median(plain),
        "norm_passes": norm,
        "traced_passes": traced,
        "problems": problems,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": reported,
        },
    }


def _summary_row(name: str, wall_s: float, result: dict, passes: int) -> str:
    m = result["metrics"]
    ratio = result["failed"] / result["attempted"]
    return (f"{name:16} wall_s {wall_s:.4f} s  wall_norm {m['wall_norm']['value']:.4f} ref  "
            f"setup_s {m['setup_s']['value']:.4f} s  "
            f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB  "
            f"fail_ratio {ratio:.4f} ({result['failed']}/{result['attempted']})  "
            f"passes {passes}")


def run_all(args) -> int:
    """Every workload in its own process (so peak memory is per workload)."""
    rows, ok = [], True
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.smoke:
            argv.append("--smoke")
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            rows.append(f"{name:16} no result (exit {done.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        rows.extend(line for line in lines if line.startswith(name + " "))
        ok = ok and result["correct"]
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--all", action="store_true", help="every workload, one row each")
    parser.add_argument("--pin", action="store_true", help="record oracle.json from src/")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    mode = "smoke" if args.smoke else "full"

    if args.setup_child:
        setup_child(args.workload, args.seed, mode)
        return 0
    if args.pin:
        pin(mode)
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), mode,
                           load_oracle())
    for problem in outcome["problems"][:10]:
        print(f"problem {problem}", file=sys.stderr)
    result = outcome["result"]
    detail = {k: outcome[k] for k in
              ("workload", "facts", "wall_s", "passes", "norm_passes", "traced_passes")}
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps({**detail, **result}, indent=1) + "\n")
    print("facts " + json.dumps(outcome["facts"]))
    if not args.trace:
        print(_summary_row(args.workload, outcome["wall_s"], result, len(outcome["passes"])))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
