"""What the benchmark under bench/ needs from the program.

bench/ lies outside the default test paths, so these checks keep a change to
the program from breaking the benchmark unnoticed: every attribute its span
recorder wraps must exist and be callable, the command lines its workloads
build must still parse, and one pass of each workload on its smoke inputs
must pass every check it makes (verdicts, findings, witness replay).
"""

import contextlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

from coefbound import cli, oracle  # noqa: E402


def test_span_targets_exist_and_are_callable():
    targets = spans.targets()
    names = {(module.__name__, attr) for module, attr, _, _ in targets}
    # kept in oracle only so that the recorder can wrap it there
    assert ("coefbound.oracle", "sample_param_arrays") in names
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_sampler_span_binds_a_real_call():
    # the recorder binds seed, count, strategy and fixed_p1 by name
    describe = spans._sampler_attrs(inspect.signature(oracle.sample_param_arrays))
    attrs = describe((7, 16, "random"), {}, oracle.sample_param_arrays(7, 16, "random"))
    assert attrs["strategy"] == "random"
    assert attrs["n"] == 16


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--seed", "42", "--budget", "100000", "--workers", "1"],
        ["verify", "--claim", "thm3.1-a4", "--lambda", "0.7", "--budget", "2000000",
         "--seed", "9", "--workers", "1", "--format", "json"],
        ["verify", "--claim", "thm3.3-d43", "--lambda", "1.2", "--budget", "2000000",
         "--seed", "9", "--workers", "1", "--format", "json", "--p", "0.5"],
        ["table", "--class", "convex", "--lambda", "0.3,1.0", "--format", "json"],
    ],
)
def test_workload_command_lines_parse(argv):
    assert cli.parse_args(argv).command == argv[0]


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_smoke_pass_checks_every_operation(workload):
    run_pass = workloads.PASSES[workload]
    result = run_pass(7, 0, workloads.SMOKE, workloads.SEARCH_WORKERS, contextlib.nullcontext())
    assert result.ok and all(result.ok), [i for i, ok in enumerate(result.ok) if not ok]
    assert len(result.latencies) == len(result.ok)


@pytest.mark.parametrize("cls", ["starlike", "convex"])
def test_a_default_search_scores_the_samples_it_reports(monkeypatch, cls):
    # report's and deep's evals_per_s sum the records' samples: the canonical
    # points, and 24 points for each p1 level (8 candidate radii, each a
    # circle of 3 candidates; level_radii rules 4 radii out in closed form,
    # as circle_max does 2 candidates), scored or bounded out
    from coefbound import oracle

    scored = []
    best_of, level_scan = oracle._best_of, oracle.level_scan

    def counting_best_of(coefs, p1, u, v):
        scored.append(u.size)
        return best_of(coefs, p1, u, v)

    def counting_level_scan(coefficients, levels, *args, **kwargs):
        levels = list(levels)
        scored.append(24 * sum(p1.size for p1 in levels))
        return level_scan(coefficients, levels, *args, **kwargs)

    monkeypatch.setattr(oracle, "_best_of", counting_best_of)
    monkeypatch.setattr(oracle, "level_scan", counting_level_scan)  # the grid and draws, then each polish round
    # free |a4| is the one search that the maths does not settle, so it runs every phase
    result = oracle.extremal_search(oracle.Functional("abs_a4", cls), 0.8)
    budget = oracle.DEFAULT_BUDGET
    assert result.samples == sum(scored) == 15 + 24 * ((budget - 15) // 24) == budget - 1
    assert scored[0] == 15  # the canonical phase, the one block of points
