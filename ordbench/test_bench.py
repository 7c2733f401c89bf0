"""Tests of the benchmark itself, at smoke sizes.

Run with ``python3 -m pytest ordbench -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench._require_source()

import ordmet  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _run(workload: str, trace: bool = False, oracle: dict | None = None) -> dict:
    return bench.run_workload(workload, SEED, 0.5, trace, "smoke",
                              bench.load_oracle() if oracle is None else oracle)


@pytest.mark.parametrize("workload", bench.NAMES)
def test_smoke_workload_matches_the_oracle(workload):
    outcome = _run(workload)
    result = outcome["result"]
    assert result["correct"], outcome["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_norm", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_output_drives_fail_ratio_above_zero():
    tampered = copy.deepcopy(bench.load_oracle())
    pins = tampered["smoke"]["stage-check"][str(SEED % bench.VARIANTS)]
    pins["validate stage"]["sha256"] = "0" * 64
    result = _run("stage-check", oracle=tampered)["result"]
    assert not result["correct"]
    assert 0 < result["failed"] / result["attempted"] < 1


def test_missing_pin_is_a_failure():
    tampered = copy.deepcopy(bench.load_oracle())
    del tampered["smoke"]["witness-exhaust"][str(SEED % bench.VARIANTS)]["verify 0"]
    result = _run("witness-exhaust", oracle=tampered)["result"]
    assert not result["correct"] and result["failed"] > 0


def _smoke_ops(name: str, tmp_path: Path) -> dict:
    wl = workloads.WORKLOADS[name]
    sz = workloads.SIZES["smoke"]
    inp = wl.build(bench.random.Random(SEED), tmp_path, sz)
    return {op.id: op for op in wl.ops(inp, sz)}


def test_negative_controls_fail_as_expected_and_are_checked(tmp_path):
    check_ops = _smoke_ops("stage-check", tmp_path)
    witness_ops = _smoke_ops("witness-exhaust", tmp_path)
    n = workloads.SIZES["smoke"]["check_points"]

    corrupt = check_ops["validate corrupt"]
    got = corrupt.call()
    assert got.exit == 1 and len(got.text.splitlines()) == n - 2
    assert corrupt.expect(workloads.Outcome(0, "valid\n")) is not None
    short = "\n".join(got.text.splitlines()[1:]) + "\n"
    assert corrupt.expect(workloads.Outcome(1, short)) is not None

    absent = check_ops["embed absent"]
    assert absent.call().text == "none\n"
    assert absent.expect(workloads.Outcome(0, "n0->u0 n1->u1 n2->u2\n")) is not None

    bad = witness_ops["verify inadmissible"]
    assert bad.call().exit == 2
    assert bad.expect(workloads.Outcome(1, "min-index 4\n")) is not None


def test_traced_run_reports_every_layer_and_repeats_exact_counts():
    first, second = _run("stage-grow", trace=True), _run("stage-grow", trace=True)
    for outcome in (first, second):
        assert outcome["result"]["correct"], outcome["problems"]
        assert set(outcome["result"]["metrics"]) == set(tracing.per_layer_units())
    exact = ["limit.realize_calls", "limit.stage_points", "amalgam.feasibility_calls"]
    for name in exact:
        values = [o["result"]["metrics"][name]["value"] for o in (first, second)]
        assert values[0] == values[1] > 0
    # the wrappers are gone afterwards
    assert ordmet.validate is ordmet.spaces.validate
    assert ordmet.cli.validate.__module__ == "ordmet.spaces"
    assert not hasattr(ordmet.limit.LimitBuilder.realize, "__wrapped__")


def test_traced_fraisse_and_witness_counts_are_exact():
    fraisse = _run("fraisse-slice", trace=True)["result"]["metrics"]
    witness = _run("witness-exhaust", trace=True)["result"]["metrics"]
    # smoke: max size 3 over {1,2} and {1/2,1} by the CLI, plus direct and
    # vector over {1,2}; witness n=2 m=2 exhausts 2^(k+1-n) = 8 traces
    assert fraisse["fraisse.ap_spans"]["value"] == 4 * 1187
    assert fraisse["amalgam.amalgamate_calls"]["value"] > 1187
    assert witness["witness.traces"]["value"] == 8
    assert witness["witness.verify_calls"]["value"] == 8 + 2  # exhaust, verify, inadmissible


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_norm", "setup_s", "peak_rss_mb"]


def test_result_line_follows_the_contract():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "witness-exhaust",
         "--seed", str(SEED), "--seconds", "0.5", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "stage-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
