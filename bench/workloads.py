"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Every pass is a closed loop with one caller: each operation starts when the
previous one returns.  Pass ``k`` of a run draws fresh inputs from
``(seed, k)``, so a cache that outlives one pass cannot serve the next one;
pass 0 of ``report`` uses the seed itself as the oracle seed, so ``--seed 42``
times exactly the default ``coefbound report``.

A pass runs its timed part inside ``clock``, a context manager that times
the pass and, in a traced run, opens it for spans.  It returns its operation
latencies, one correctness flag per operation, the oracle evaluations it
spent and the sha256 of its normalized output.  Checks run after the clock
stops, so they are neither timed nor traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from coefbound import bounds, cli, lemmas, oracle, schwarz

#: The records of the default report whose claim is expected to fail: the
#: |a4| second branch on (1/5, ~0.505] and the printed psi2 statement.
EXPECTED_VIOLATIONS = frozenset(
    {
        ("thm3.1-a4", 0.21, None),
        ("thm3.1-a4", 0.3, None),
        ("thm3.3-d43-psi2-statement", 1.0, 2.0),
        ("thm3.3-d43-psi2-statement", 1.4, 2.0),
    }
)

#: One free-p1 search, then pinned ones; the pinned p1 values are distinct
#: per pass, so no two searches share grid candidates or refine offsets.
DEEP_CLAIMS = (
    "thm3.1-a3",
    "thm3.3-d32",
    "thm3.3-d43",
    "thm3.5-d32",
    "thm3.5-d43",
    "thm3.3-d43",
    "thm3.5-d43",
    "thm3.3-d32",
)

#: report and deep keep the thread pool out of their timings.  On a shared
#: two-core machine a pass at two workers waits for the slower thread, so
#: load from elsewhere on either core moves it: the ten-run spread of deep
#: reached a quarter and report's op_ms.p90 more than that, against about a
#: tenth at one worker.
SEARCH_WORKERS = 1

#: Criterion 4: sup over p of each difference bound at lambda = 1.
SUP_AT_ONE = {
    ("starlike", "d32"): 7.0 / 10.0,
    ("starlike", "d43"): 25.0 / 48.0,
    ("convex", "d32"): 19.0 / 60.0,
    ("convex", "d43"): 1.0 / 6.0,
}

Y_TOL = 2e-3  # criterion 3
SERIES_TOL = 1e-10  # criterion 7
SERIES_LAMBDAS = (0.5, 1.0, math.pi / 2)
PROBE_LAMBDAS = (0.5, 1.0, math.pi / 2)
REPLAY_TOL = 1e-12

#: Grid points one y_bruteforce call evaluates at its default resolution:
#: the 512 x 1024 polar scan plus five 65 x 65 refinements.
Y_EVALS = 512 * 1024 + 5 * 65 * 65


@dataclass(frozen=True)
class Sizes:
    report_budget: int = oracle.DEFAULT_BUDGET
    deep_budget: int = 2_000_000
    table_lambdas: int = 300
    sup_lambdas: int = 12
    y_items: int = 40
    series_triples: int = 400
    probe_samples: int = 300


FULL = Sizes()
#: Tiny inputs for the benchmark's own smoke test; its figures mean nothing.
SMOKE = Sizes(
    report_budget=1000,
    deep_budget=1000,
    table_lambdas=10,
    sup_lambdas=2,
    y_items=2,
    series_triples=10,
    probe_samples=10,
)


@dataclass
class PassResult:
    latencies: list
    ok: list
    evals: int
    digest: str


def _call_cli(argv):
    """Exit code and stdout of one in-process `coefbound` call; a crash gives None."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    return code, buf.getvalue()


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _holds(check, *args) -> bool:
    """A check's verdict; output too malformed to inspect fails it."""
    try:
        return bool(check(*args))
    except (KeyError, IndexError, TypeError, ValueError):
        return False


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _derived_seed(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _replays(record: dict) -> bool:
    """The witness, fed back through functional_value, gives oracle_max."""
    claim = oracle.CLAIMS[record["claim_id"]]
    fn = oracle.Functional(kind=claim.kind, cls=claim.cls, fixed_p=record["p"])
    w = record["witness"]
    params = schwarz.CaratheodoryParams(
        w["p1"], complex(w["x_re"], w["x_im"]), complex(w["y_re"], w["y_im"])
    )
    value = oracle.functional_value(fn, record["lambda"], params)
    return abs(value - record["oracle_max"]) <= REPLAY_TOL * max(1.0, abs(record["oracle_max"]))


def _normalized(records: list) -> list:
    return [dict(r, duration_ms=0) for r in records]


# --- report -----------------------------------------------------------------


def expected_report_keys() -> list:
    """(claim, lambda, p) of every record of the default report, in order."""
    keys = []
    for claim_id, claim in oracle.CLAIMS.items():
        for lam in claim.default_lambdas:
            for p in claim.default_ps or (None,):
                keys.append((claim_id, lam, p))
    return keys


def report_pass(seed: int, k: int, sizes: Sizes, workers: int, clock) -> PassResult:
    """One full `coefbound report`; an operation is one record.

    Record boundaries are read from a timestamp taken as each search starts
    (the only hook in an untraced run, one clock read per record): record i
    runs from its search's start to the next one's, the first record from
    the call and the last one to the return, serialization included.
    """
    oseed = seed if k == 0 else _derived_seed(seed, k)
    argv = ["report", "--seed", str(oseed), "--budget", str(sizes.report_budget),
            "--workers", str(workers)]
    starts = []
    search = oracle.extremal_search

    def marked(*args, **kwargs):
        starts.append(time.perf_counter())
        return search(*args, **kwargs)

    oracle.extremal_search = marked
    try:
        with clock:
            t0 = time.perf_counter()
            code, out = _call_cli(argv)
            t1 = time.perf_counter()
    finally:
        oracle.extremal_search = search

    keys = expected_report_keys()
    doc = _json(out)
    if not (code == 1 and _holds(_report_ok, doc, len(keys), len(starts))):
        # A malformed report fails every record it should have held.
        return PassResult([(t1 - t0) / len(keys)] * len(keys), [False] * len(keys), 0,
                          _digest(out))
    records = doc["claims"]
    edges = [t0] + starts[1:] + [t1]
    latencies = [b - a for a, b in zip(edges, edges[1:])]
    ok = [_holds(_record_ok, r, key) for r, key in zip(records, keys)]
    doc = dict(doc, claims=_normalized(records))
    return PassResult(latencies, ok, sum(r["samples"] for r in records), _digest(doc))


def _report_ok(doc, n_records, n_searches) -> bool:
    return (
        doc["violated_claim_ids"] == sorted({c for c, _, _ in EXPECTED_VIOLATIONS})
        and doc["total_reports"] == len(doc["claims"]) == n_records == n_searches
    )


def _record_ok(record, key) -> bool:
    got = (record["claim_id"], record["lambda"], record["p"])
    return got == key and record["violation"] == (key in EXPECTED_VIOLATIONS) and _replays(record)


# --- deep -------------------------------------------------------------------


def deep_inputs(seed: int, k: int) -> list:
    """(claim, lambda, p, oracle seed) per search; pinned p1 values distinct."""
    rng = np.random.default_rng([seed, k, 1])
    pinned = len(DEEP_CLAIMS) - 1
    while True:
        p1s = rng.uniform(0.0, 2.0, pinned)
        if np.min(np.diff(np.sort(p1s))) > 1e-3:
            break
    lams = rng.uniform(0.1, math.pi / 2, len(DEEP_CLAIMS))
    seeds = rng.choice(2**31, size=len(DEEP_CLAIMS), replace=False)
    out = []
    for i, claim_id in enumerate(DEEP_CLAIMS):
        claim = oracle.CLAIMS[claim_id]
        p = None
        if claim.default_ps is not None:
            p1 = float(p1s[i - 1])
            p = p1 if claim.cls == "starlike" else p1 / 2.0
        out.append((claim_id, float(lams[i]), p, int(seeds[i])))
    return out


def deep_pass(seed: int, k: int, sizes: Sizes, workers: int, clock) -> PassResult:
    """Single-claim `coefbound verify` searches; an operation is one search."""
    searches = deep_inputs(seed, k)
    argvs = []
    for claim_id, lam, p, oseed in searches:
        argv = ["verify", "--claim", claim_id, "--lambda", repr(lam), "--budget",
                str(sizes.deep_budget), "--seed", str(oseed), "--workers", str(workers),
                "--format", "json"]
        argvs.append(argv if p is None else argv + ["--p", repr(p)])
    latencies, outputs = [], []
    with clock:
        for argv in argvs:
            t0 = time.perf_counter()
            outputs.append(_call_cli(argv))
            latencies.append(time.perf_counter() - t0)
    ok, evals, docs = [], 0, []
    for search, (code, out) in zip(searches, outputs):
        records = _json(out)
        good = code == 0 and _holds(_search_ok, records, search)
        ok.append(good)
        if good:
            evals += records[0]["samples"]
            docs.append(_normalized(records))
        else:
            docs.append(out)
    return PassResult(latencies, ok, evals, _digest(docs))


def _search_ok(records, search) -> bool:
    claim_id, lam, p, _ = search
    r = records[0]
    return (
        len(records) == 1
        and (r["claim_id"], r["lambda"], r["p"]) == (claim_id, lam, p)
        and not r["violation"]
        and _replays(r)
    )


# --- crosscheck -------------------------------------------------------------


def _table_ok(out: str, cls: str, n_rows: int) -> bool:
    rows = json.loads(out)
    cols = ("a2_bound", "a3_bound", "a4_bound", "d32_bound", "d43_bound")
    pmax = 2.0 if cls == "starlike" else 1.0
    for r in rows:
        if not all(math.isfinite(r[c]) and r[c] >= 0.0 for c in cols):
            return False
        lam = r["lambda"]
        anchor = (
            lam * lam * (27.0 - 17.0 * lam) / 36.0
            if cls == "starlike"
            else lam * lam * (36.0 - 17.0 * lam) / 144.0
        )
        if r["p"] == pmax and r["d43_bound"] != anchor:
            return False
    return len(rows) == n_rows


def _correspondence_ok(star_out: str, conv_out: str) -> bool:
    """Starlike |a_n| bounds are exactly n times the convex ones."""
    star, conv = json.loads(star_out), json.loads(conv_out)
    return len(star) == len(conv) and all(
        s["lambda"] == c["lambda"] and s[f"a{n}_bound"] == n * c[f"a{n}_bound"]
        for s, c in zip(star, conv)
        for n in (2, 3, 4)
    )


def _sup_ok(cls: str, which: str, lams, sups) -> bool:
    pmax = 2.0 if cls == "starlike" else 1.0
    bound = bounds.s_diff_bound if cls == "starlike" else bounds.k_diff_bound
    if abs(sups[0][1] - SUP_AT_ONE[(cls, which)]) >= 1e-9:
        return False
    for lam, (best_p, best_v) in zip(lams, sups):
        lattice = max(bound(which, lam, float(p)).value for p in np.linspace(0.0, pmax, 41))
        if not (0.0 <= best_p <= pmax and best_v >= lattice - 1e-12):
            return False
    return True


def crosscheck_ops(seed: int, k: int, sizes: Sizes) -> list:
    """(operation, check) pairs; an operation is one check item."""
    rng = np.random.default_rng([seed, k, 2])
    table_lams = np.sort(rng.uniform(0.01, math.pi / 2, sizes.table_lambdas))
    lam_arg = ",".join(repr(float(v)) for v in table_lams)
    n_rows = sizes.table_lambdas * 5
    sup_lams = [1.0] + [float(v) for v in rng.uniform(0.05, math.pi / 2, sizes.sup_lambdas - 1)]
    abc = rng.uniform([0.0, -6.0, 0.0], [3.0, 6.0, 3.0], (sizes.y_items, 3))
    triples = schwarz.sample_params(_derived_seed(seed, k, 3), sizes.series_triples, "random")
    probe_seed = _derived_seed(seed, k, 4)
    tables = {}

    def table(cls):
        def op():
            tables[cls] = _call_cli(["table", "--class", cls, "--lambda", lam_arg, "--format", "json"])
            return tables[cls]

        def check(res):
            code, out = res
            ok = code == 0 and _table_ok(out, cls, n_rows)
            if cls == "convex":
                ok = ok and _correspondence_ok(tables["starlike"][1], out)
            return ok

        return op, check

    def sup(cls, which):
        return (
            lambda: [bounds.sup_over_p(cls, which, lam) for lam in sup_lams],
            lambda res: _sup_ok(cls, which, sup_lams, res),
        )

    def y_item(a, b, c):
        # Criterion 3 also pins the branch boundary: both Y branches give 2.
        return (
            lambda: (lemmas.y_closed_form(a, b, c).value, lemmas.y_bruteforce(a, b, c)),
            lambda res: abs(res[0] - res[1]) < Y_TOL
            and lemmas.y_closed_form(0.5, 1.0, 0.5).value == 2.0,
        )

    def series_item(lam, cls):
        return (
            lambda: max(oracle.series_cross_check(lam, cls, q) for q in triples),
            lambda worst: worst < SERIES_TOL,
        )

    def probe(lam):
        return (
            lambda: dataclasses.asdict(
                oracle.general_bound_probe(lam, n_max=12, samples=sizes.probe_samples, seed=probe_seed)
            ),
            lambda rep: rep["violations"] == 0,
        )

    ops = [table("starlike"), table("convex")]
    ops += [sup(cls, which) for cls, which in SUP_AT_ONE]
    ops += [y_item(*map(float, row)) for row in abc]
    ops += [series_item(lam, cls) for lam in SERIES_LAMBDAS for cls in ("starlike", "convex")]
    ops += [probe(lam) for lam in PROBE_LAMBDAS]
    return ops


def crosscheck_pass(seed: int, k: int, sizes: Sizes, workers: int, clock) -> PassResult:
    """Bounds, lemmas and series checks; no extremal search runs."""
    ops = crosscheck_ops(seed, k, sizes)
    latencies, outputs = [], []
    with clock:
        for op, _ in ops:
            t0 = time.perf_counter()
            try:
                outputs.append(op())
            except Exception:
                traceback.print_exc()
                outputs.append(None)
            latencies.append(time.perf_counter() - t0)
    ok = [res is not None and _holds(check, res) for (_, check), res in zip(ops, outputs)]
    return PassResult(latencies, ok, sizes.y_items * Y_EVALS, _digest(outputs))


PASSES = {"report": report_pass, "deep": deep_pass, "crosscheck": crosscheck_pass}
