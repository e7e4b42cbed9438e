"""coefbound benchmark: one workload per run, checked outputs, one JSON result.

    python3 bench/run.py --workload {report,deep,crosscheck} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from ``src``
of the checkout, so nothing needs installing.  The run measures set-up in
fresh interpreters, then runs passes of the workload back to back until
``--seconds`` have been spent, and prints informational JSON lines followed
by the result as the last line of stdout.  Pass 0 is a warm-up: its output
is checked but its times are not reported.  Times are medians over the
timed passes.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes after the warm-up and
reports the per-layer metrics computed from spans, which it also writes as
JSON lines under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"

#: Fresh interpreters timed per run for setup_s, one before each pass and
#: the rest after the last; the median is reported.
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "schwarz.grid_s": "s",
    "schwarz.random_s": "s",
    "schwarz.refine_s": "s",
    "schwarz.explore_repeat_frac": "frac",
    "schwarz.refine_offset_repeat_frac": "frac",
    "schwarz.samples": "count",
    "schwarz.bytes_computed": "B",
    "oracle.search_s": "s",
    "oracle.eval_self_s": "s",
    "oracle.ns_per_eval": "ns",
    "oracle.evals": "count",
    "oracle.refine_moved_frac": "frac",
    "bounds.s": "s",
    "bounds.calls": "count",
    "lemmas.s": "s",
    "lemmas.calls": "count",
    "series.s": "s",
    "series.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("report", "deep", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for testing the benchmark itself"
    )
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Time from starting a fresh interpreter until coefbound is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, coefbound.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("coefbound failed to import in a fresh interpreter")
    return elapsed


def _cache_sizes() -> dict:
    out = {}
    for index in sorted((Path("/sys/devices/system/cpu/cpu0/cache")).glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment(workload: str, workers: int) -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "workers": workers if workload in ("report", "deep") else None,
        "cpu_model": model,
        "caches": _cache_sizes(),
    }


def _p50_p90(latencies) -> tuple:
    """Median and 90th percentile of one pass's operation latencies."""
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies), deciles[8]


class PassClock:
    """Times one pass and, when tracing, opens it for spans."""

    def __init__(self, k, recorder=None):
        self.k = k
        self.recorder = recorder
        self.wall = None

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.pass_id = self.k
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        if self.recorder is not None:
            self.recorder.pass_id = None
        return False


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coefbound" / "__init__.py").is_file():
        print(f"error: no coefbound sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import spans
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workers = workloads.SEARCH_WORKERS
    run_pass = workloads.PASSES[args.workload]

    recorder = spans.SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    walls = {False: [], True: []}
    pass_p50s, pass_p90s, oks, rates, digests, setups = [], [], [], [], [], []
    n_latencies = 0
    traced_passes = []
    start = time.perf_counter()
    k = 0
    try:
        # Pass 0 warms up; untraced and traced passes alternate after it in a
        # traced run.
        while k < 2 + args.trace or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and k % 2 == 1
            if not args.trace:
                setups.append(measure_setup())
            gc.collect()
            clock = PassClock(k, recorder if traced else None)
            result = run_pass(args.seed, k, sizes, workers, clock)
            oks.extend(result.ok)
            digests.append(result.digest)
            if k > 0:
                walls[traced].append(clock.wall)
            if traced:
                traced_passes.append(k)
            elif k > 0:
                # Quantiles per pass, then medians over passes, so a burst of
                # load from elsewhere that hits one pass does not move them.
                p50, p90 = _p50_p90(result.latencies)
                pass_p50s.append(p50)
                pass_p90s.append(p90)
                n_latencies += len(result.latencies)
                rates.append(result.evals / clock.wall)
            k += 1
    finally:
        if recorder is not None:
            recorder.uninstall()
    while not args.trace and len(setups) < SETUP_REPEATS:
        setups.append(measure_setup())

    attempted = len(oks)
    failed = oks.count(False)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": k,
        "ops": attempted,
        "timed_passes": len(walls[False]),
        "op_ms_samples": n_latencies,
        "failed_frac": failed / attempted,
        "output_sha256_pass0": digests[0],
        "pass_wall_s": walls[False],
    }
    print(json.dumps({"env": environment(args.workload, workers)}))

    if args.trace:
        by_pass = {p: [] for p in traced_passes}
        for span in recorder.spans:
            by_pass[span[6]].append(span)
        per_pass = [spans.layer_metrics(by_pass[p]) for p in traced_passes]
        values = {
            name: (per_pass[0][name] if name in spans.EXACT_COUNTS else
                   statistics.median(m[name] for m in per_pass))
            for name in per_pass[0]
        }
        values["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(trace_path)
        info["spans"] = len(recorder.spans)
        info["spans_file"] = str(trace_path.relative_to(ROOT))
        if values["oracle.search_s"]:
            # Share of search time that the sampler spans and the search's own
            # evaluation time account for, per traced pass.
            info["search_coverage_frac"] = statistics.median(
                (m["schwarz.grid_s"] + m["schwarz.random_s"] + m["schwarz.refine_s"]
                 + m["oracle.eval_self_s"]) / m["oracle.search_s"]
                for m in per_pass
            )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls[False]),
            "op_ms.p50": statistics.median(pass_p50s) * 1e3,
            "op_ms.p90": statistics.median(pass_p90s) * 1e3,
            "evals_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
