"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces module
attributes of ``coefbound`` with timing wrappers, looked up where the callers
look them up (``oracle.sample_param_arrays`` as oracle sees it, ``bounds.*``
as oracle and cli see them, ``oracle.run_claim_suite`` as cli sees it), and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span is recorded only while a pass is open, so checks that run after a pass
leave no spans.  A call from inside the same layer is not a layer boundary and
gets no span (its time stays in the caller's self time), except for
``oracle.extremal_search``, whose spans give the search metrics.  Every wrapped call happens on the calling thread (the
program's thread pool runs only unwrapped array kernels), so one stack gives
each span its parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

#: Bytes computed per sampled candidate: p1 (float64) + x, y (complex128).
CANDIDATE_BYTES = 8 + 16 + 16


def _sampler_attrs(signature):
    def describe(args, kwargs, result):
        a = signature.bind(*args, **kwargs)
        a.apply_defaults()
        seed, count, strategy = a.arguments["seed"], a.arguments["count"], a.arguments["strategy"]
        attrs = {"strategy": strategy, "n": int(result[0].size)}
        if strategy == "refine-around":
            c = a.arguments["center"]
            # The offsets dx, dy, dp1 depend on (seed, round, count, radius) only.
            attrs["key"] = repr((seed, count, a.arguments["radius"]))
            attrs["center"] = [c.p1, c.x.real, c.x.imag, c.y.real, c.y.imag]
        else:
            attrs["key"] = repr((seed, count, strategy, a.arguments["fixed_p1"]))
        return attrs

    return describe


def _search_attrs(args, kwargs, result):
    w = result.witness
    return {"samples": result.samples, "witness": [w.p1, w.x.real, w.x.imag, w.y.real, w.y.imag]}


def targets():
    """(module, attribute, layer, describe) for every wrapped call site.

    A target with a describe function is recorded even when called from its
    own layer; describe turns (args, kwargs, result) into the span's attrs.
    """
    from coefbound import bounds, cli, lemmas, oracle, series

    out = [(cli, "main", "cli", None)]
    for name in ("run_claim_suite", "verify_claim", "series_cross_check", "general_bound_probe"):
        out.append((oracle, name, "oracle", None))
    out.append((oracle, "extremal_search", "oracle", _search_attrs))
    sampler = oracle.sample_param_arrays
    out.append((oracle, "sample_param_arrays", "schwarz", _sampler_attrs(inspect.signature(sampler))))
    for name in ("k_coeff_bound", "s_star_coeff_bound", "s_diff_bound", "k_diff_bound",
                 "sup_over_p", "general_coeff_bound"):
        out.append((bounds, name, "bounds", None))
    out.append((bounds, "a_sequence_closed", "lemmas", None))
    for name in ("y_closed_form", "y_bruteforce"):
        out.append((lemmas, name, "lemmas", None))
    for name in ("exp_series", "coefficients_from_schwarz", "ratio_to_coefficients",
                 "blaschke_schwarz", "unit_series"):
        out.append((series, name, "series", None))
    return out


class SpanRecorder:
    """In-memory spans: (id, name, layer, start, end, parent, pass id, attrs)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.pass_id = None

    def _wrap(self, fn, name, layer, describe):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else None
            if rec.pass_id is None or (
                describe is None and parent is not None and rec.spans[parent][2] == layer
            ):
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            span = [sid, name, layer, time.perf_counter(), None, parent, rec.pass_id, None]
            rec.spans.append(span)
            rec._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                rec._stack.pop()
            if describe is not None:
                span[7] = describe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, attr, layer, describe in targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(fn, name, layer, describe))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path):
        keys = ("id", "name", "layer", "start", "end", "parent", "pass", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one pass, computed from its spans alone."""
    child_time = defaultdict(float)
    layer_of = {}
    for sid, _, layer, start, end, parent, _, _ in spans:
        layer_of[sid] = layer
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sampler_s = defaultdict(float)
    search_s = search_self_s = 0.0
    evals = samples = 0
    explore = explore_repeat = refine = refine_repeat = 0
    seen = set()
    refine_centers = defaultdict(list)
    witness = {}
    for sid, name, layer, start, end, parent, _, attrs in spans:
        dur = end - start
        self_s[layer] += dur - child_time[sid]
        if parent is None or layer_of[parent] != layer:
            calls[layer] += 1
        if name == "oracle.extremal_search":
            search_s += dur
            search_self_s += dur - child_time[sid]
            evals += attrs["samples"]
            witness[sid] = attrs["witness"]
        elif name == "oracle.sample_param_arrays":
            sampler_s[attrs["strategy"]] += dur
            samples += attrs["n"]
            repeat = attrs["key"] in seen
            seen.add(attrs["key"])
            if attrs["strategy"] == "refine-around":
                refine += 1
                refine_repeat += repeat
                if parent is not None and layer_of[parent] == "oracle":
                    refine_centers[parent].append(attrs["center"])
            else:
                explore += 1
                explore_repeat += repeat
    moved = 0
    for parent, centers in refine_centers.items():
        # Round r's centre moved when the next round (or the final witness)
        # starts from a different point: the incumbent strictly improved.
        after = centers[1:] + [witness[parent]]
        moved += sum(a != b for a, b in zip(centers, after))
    return {
        "schwarz.grid_s": sampler_s["grid"],
        "schwarz.random_s": sampler_s["random"],
        "schwarz.refine_s": sampler_s["refine-around"],
        "schwarz.explore_repeat_frac": explore_repeat / explore if explore else 0.0,
        "schwarz.refine_offset_repeat_frac": refine_repeat / refine if refine else 0.0,
        "schwarz.samples": samples,
        "schwarz.bytes_computed": samples * CANDIDATE_BYTES,
        "oracle.search_s": search_s,
        "oracle.eval_self_s": search_self_s,
        "oracle.ns_per_eval": search_self_s / evals * 1e9 if evals else 0.0,
        "oracle.evals": evals,
        "oracle.refine_moved_frac": moved / refine if refine else 0.0,
        "bounds.s": self_s["bounds"],
        "bounds.calls": calls["bounds"],
        "lemmas.s": self_s["lemmas"],
        "lemmas.calls": calls["lemmas"],
        "series.s": self_s["series"],
        "series.calls": calls["series"],
        "cli.self_s": self_s["cli"],
    }


#: Metrics of layer_metrics that are exact counts: they must repeat bit for
#: bit between two traced runs with the same seed.
EXACT_COUNTS = (
    "schwarz.explore_repeat_frac",
    "schwarz.refine_offset_repeat_frac",
    "schwarz.samples",
    "schwarz.bytes_computed",
    "oracle.evals",
    "oracle.refine_moved_frac",
    "bounds.calls",
    "lemmas.calls",
    "series.calls",
)
