"""Smoke test of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the exact counts of the traced run repeat bit for bit between two runs
with the same seed, that a wrong expected verdict is counted as a failed
operation, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(workload, trace, seed=7, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _check_metrics(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(WORKLOADS) == sorted(workloads.PASSES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    proc = _bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    _check_metrics(_result(proc.stdout), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_exact(workload):
    first, second = _bench(workload, trace=1), _bench(workload, trace=1)
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a, b = _result(first.stdout), _result(second.stdout)
    _check_metrics(a, SPEC["per_layer"])
    for name in spans.EXACT_COUNTS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    info = json.loads(first.stdout.strip().splitlines()[-2])["info"]
    if workload != "crosscheck":
        assert info["search_coverage_frac"] >= 0.95


def test_wrong_expected_verdict_counts_as_failed(monkeypatch, capsys):
    wrong = workloads.EXPECTED_VIOLATIONS - {("thm3.1-a4", 0.21, None)}
    monkeypatch.setattr(workloads, "EXPECTED_VIOLATIONS", wrong)
    assert run.main(["--workload", "report", "--seed", "7", "--seconds", "1", "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, info = _result(lines[-1]), json.loads(lines[-2])["info"]
    assert not result["correct"]
    # Exactly one record per pass carries the wrong expectation.
    assert result["failed"] == info["passes"] >= 1
    assert info["failed_frac"] == result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("report", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
