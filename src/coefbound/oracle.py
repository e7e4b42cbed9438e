"""Brute-force extremal search over the exactly parameterized coefficient body.

Each theorem bound is paired with an independent maximization of the same
functional (|a2|, |a3|, |a4|, |a3 - a2| or |a4 - a3|) over the (p1, x, y)
parameter body, which generates exactly the admissible Caratheodory moment
triples.  A claim is *violated* when the search exceeds the printed bound by
more than the tolerance; violations are findings, never errors, because the
harness exists in part to document transcription defects.

Determinism contract: identical (claim, grids, budget, seed, tolerance,
variant) produce bit-identical reports.  A search streams each phase in
blocks of CHUNK_ROWS candidates with a running first-index argmax, so its
memory does not grow with the budget and its result does not depend on the
block size.  Every search of a run at one (seed, budget) draws the same
lam-independent inputs, so while they fit in SHARED_INPUT_BYTES a run draws
them once and shares the blocks: each exploration set (canonical, grid and
random candidates with their moments p2, p3) per effective p1, and the
refine offsets of each round.  Neither blocks nor sharing reorder a
floating-point operation, so every path returns the same bits.  The worker
count is accepted for compatibility; it changes neither speed nor output.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds, series
from .bounds import DEFAULT_PS
from .schwarz import (
    CaratheodoryParams,
    caratheodory_moments,
    caratheodory_to_schwarz,
    grid_chunks,
    grid_size,
    random_chunks,
    refine_around,
    refine_offset_chunks,
    sample_param_arrays,  # noqa: F401  (unused here; bench/spans.py wraps it under this name)
)

FUNCTIONAL_KINDS = ("abs_a2", "abs_a3", "abs_a4", "abs_a3_minus_a2", "abs_a4_minus_a3")
_DIFFERENCE_KINDS = ("abs_a3_minus_a2", "abs_a4_minus_a3")

#: Default evaluation budget per (claim, grid point) and violation tolerance.
DEFAULT_BUDGET = 100_000
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42

#: The budget domain.  Memory does not grow with the budget, so the upper
#: end only keeps a single search to minutes rather than days.
MIN_BUDGET = 1000
MAX_BUDGET = 10**9

#: Rows per block of the streaming search; a block's arrays and temporaries stay in cache.
CHUNK_ROWS = 8192
#: A run keeps its lam-independent input blocks only while they fit in this many bytes.
SHARED_INPUT_BYTES = 16 * 2**20

_REFINE_ROUNDS = 5
_REFINE_SHRINK = 0.3
_REFINE_RADIUS0 = 0.3


@dataclass(frozen=True)
class Functional:
    """A bounded quantity, its class, and (for differences) the pinned p."""

    kind: str
    cls: str
    fixed_p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise ValueError(f"unknown functional {self.kind!r}")
        if self.cls not in bounds.P_MAX:
            raise ValueError(f"unknown class {self.cls!r}")
        if self.kind in _DIFFERENCE_KINDS and self.fixed_p is None:
            raise ValueError(f"{self.kind} constrains f''(0); fixed_p is required")
        if self.fixed_p is not None:
            pmax = bounds.P_MAX[self.cls]
            if not 0.0 <= self.fixed_p <= pmax:
                raise ValueError(f"fixed_p must lie in [0, {pmax}] for {self.cls}")

    @property
    def effective_p1(self) -> Optional[float]:
        """The p1 value pinned by fixed_p: p for starlike, 2p for convex."""
        if self.fixed_p is None:
            return None
        return self.fixed_p if self.cls == "starlike" else 2.0 * self.fixed_p


def _moments(p1, x, y):
    """Moments p2, p3 of (p1, x, y); they do not depend on lam."""
    q = 4.0 - p1 * p1
    p2 = 0.5 * (p1 * p1 + q * x)
    p3 = 0.25 * (p1 ** 3 + 2.0 * q * p1 * x - q * p1 * x * x + 2.0 * q * (1.0 - np.abs(x) ** 2) * y)
    return p2, p3


def _coefficient_values(lam, p1, p2, p3, cls):
    """a2, a3, a4 from the closed moment formulas; works on scalars or arrays."""
    inner3 = p2 + (3.0 * lam - 2.0) / 4.0 * p1 * p1
    inner4 = p3 + (5.0 * lam - 4.0) / 4.0 * p1 * p2 + (
        17.0 * lam * lam - 30.0 * lam + 12.0
    ) / 48.0 * p1 ** 3
    if cls == "starlike":
        return 0.5 * lam * p1, 0.25 * lam * inner3, lam / 6.0 * inner4
    return 0.25 * lam * p1, lam / 12.0 * inner3, lam / 24.0 * inner4


def _functional_values(fn: Functional, lam, p1, p2, p3):
    a2, a3, a4 = _coefficient_values(lam, p1, p2, p3, fn.cls)
    if fn.kind == "abs_a2":
        return np.abs(a2)
    if fn.kind == "abs_a3":
        return np.abs(a3)
    if fn.kind == "abs_a4":
        return np.abs(a4)
    if fn.kind == "abs_a3_minus_a2":
        return np.abs(a3 - a2)
    return np.abs(a4 - a3)


def functional_value(fn: Functional, lam: float, params: CaratheodoryParams) -> float:
    """The requested modulus at one parameter point (fixed_p overrides p1)."""
    bounds.check_lambda(lam)
    p1 = fn.effective_p1
    if p1 is None:
        p1 = params.p1
    p1 = np.float64(p1)
    p2, p3 = _moments(p1, np.complex128(params.x), np.complex128(params.y))
    return float(_functional_values(fn, lam, p1, p2, p3))


def check_budget(budget: int, name: str = "budget") -> None:
    """Raise ValueError unless MIN_BUDGET <= budget <= MAX_BUDGET; ``name`` labels it."""
    if not MIN_BUDGET <= budget <= MAX_BUDGET:
        raise ValueError(f"{name} must lie in [{MIN_BUDGET}, {MAX_BUDGET}], got {budget}")


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise ValueError unless seed >= 0, as numpy's generators require."""
    if seed < 0:
        raise ValueError(f"{name} must be nonnegative, got {seed}")


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless tol is finite and >= 0.

    With NaN or inf the violation test oracle_max > bound + tol is never true.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {tol}")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")


def _canonical_arrays(eff: Optional[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary/axis witnesses evaluated unconditionally before any search."""
    units = np.array([0.0, 1.0, -1.0, 1.0j, -1.0j], dtype=np.complex128)
    p1_levels = [eff] if eff is not None else [0.0, 1.0, 2.0]
    p1s, xs, ys = [], [], []
    for p in p1_levels:
        for xv in units:
            for yv in units:
                p1s.append(p)
                xs.append(xv)
                ys.append(yv)
    return np.array(p1s, dtype=float), np.array(xs), np.array(ys)


def _with_moments(blocks):
    for p1, x, y in blocks:
        yield (p1, x, y, *_moments(p1, x, y))


def _explore_chunks(seed: int, budget: int, eff: Optional[float]):
    """(p1, x, y, p2, p3) blocks of the canonical, grid and random candidates.

    Exploration gets what the refine rounds (a tenth of the budget each)
    and the canonical witnesses leave, half of it for the grid.
    """
    canonical = _canonical_arrays(eff)
    explore = max(budget - _REFINE_ROUNDS * (budget // 10) - canonical[0].size, 0)
    grid = max(explore // 2, 1)
    rand = max(explore - grid_size(grid, eff), 1)
    return _with_moments(
        itertools.chain(
            [canonical],
            grid_chunks(grid, eff, CHUNK_ROWS),
            random_chunks(seed, rand, eff, CHUNK_ROWS),
        )
    )


def _shared_bytes(budget: int) -> int:
    """Bytes of one exploration set (72 per row) plus the offsets of every round (40 per row)."""
    refine = _REFINE_ROUNDS * (budget // 10)
    return (budget - refine) * 72 + refine * 40


def _p1_key(eff: Optional[float]) -> Optional[str]:
    """Groups searches by the bits of their pinned p1 (0.0 and -0.0 differ)."""
    return None if eff is None else float(eff).hex()


class _SearchInputs:
    """The lam-independent input blocks of every search at one (seed, budget).

    While they fit in SHARED_INPUT_BYTES it keeps the blocks of the
    exploration set of the effective p1 last asked for, one set at a time,
    and the offset blocks of each refine round once drawn.  Above that it
    keeps nothing and every search draws its blocks afresh.  Callers own an
    instance for one run and drop it after.
    """

    def __init__(self, seed: int, budget: int):
        self.seed = seed
        self.budget = budget
        self._keep = _shared_bytes(budget) <= SHARED_INPUT_BYTES
        self._key: Optional[str] = None
        self._explore = None
        self._offsets: dict = {}

    def explore(self, eff: Optional[float]):
        """(p1, x, y, p2, p3) blocks of the exploration set at ``eff``."""
        if not self._keep:
            return _explore_chunks(self.seed, self.budget, eff)
        key = _p1_key(eff)
        if self._explore is None or key != self._key:
            self._explore = None  # free the previous set before building the next one
            self._explore = list(_explore_chunks(self.seed, self.budget, eff))
            self._key = key
        return self._explore

    def offsets(self, rnd: int, radius: float):
        """(dp1, dx, dy) blocks of refine round ``rnd``; its radius is the same in every search."""
        blocks = refine_offset_chunks([self.seed, rnd], self.budget // 10, radius, CHUNK_ROWS)
        if not self._keep:
            return blocks
        if rnd not in self._offsets:
            self._offsets[rnd] = list(blocks)
        return self._offsets[rnd]


def _best_of(fn: Functional, lam: float, blocks, best: float, witness):
    """Scan (p1, x, y, p2, p3) blocks with a running first-index argmax.

    A block's maximum replaces the incumbent only if strictly larger, so the
    result is the first maximal row of the whole stream, whatever the block
    size.  Returns the incumbent and the number of rows scanned.
    """
    scanned = 0
    for p1, x, y, p2, p3 in blocks:
        vals = _functional_values(fn, lam, p1, p2, p3)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            witness = (float(p1[i]), complex(x[i]), complex(y[i]))
        scanned += p1.size
    return best, witness, scanned


@dataclass(frozen=True)
class SearchResult:
    value: float
    witness: CaratheodoryParams
    samples: int


def extremal_search(
    fn: Functional,
    lam: float,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    *,
    inputs: Optional[_SearchInputs] = None,
) -> SearchResult:
    """Maximize the functional over the admissible parameter body.

    Phases: canonical witnesses, a stratified grid plus random exploration
    (half the budget), then five refine-around rounds (a tenth of the budget
    each) shrinking the neighborhood geometrically around the incumbent.
    Each phase is scored in blocks of CHUNK_ROWS; a round is centred on the
    incumbent at its start.  The incumbent is never discarded, and
    replacement requires strict improvement, so canonical witnesses win all
    exact ties.  ``budget`` must lie in [MIN_BUDGET, MAX_BUDGET] and ``seed``
    must be nonnegative.

    ``inputs`` carries the lam-independent candidates and offsets that
    verify_claim and run_claim_suite share across a run; a call without it
    builds its own and returns the same result.  ``workers`` has no effect.
    """
    bounds.check_lambda(lam)
    check_budget(budget)
    check_seed(seed)
    _check_workers(workers)
    if inputs is None:
        inputs = _SearchInputs(seed, budget)
    elif (inputs.seed, inputs.budget) != (seed, budget):
        raise ValueError("inputs were built for another seed or budget")
    eff = fn.effective_p1

    best, witness, evaluated = _best_of(fn, lam, inputs.explore(eff), -np.inf, None)
    radius = _REFINE_RADIUS0
    for rnd in range(_REFINE_ROUNDS):
        center = CaratheodoryParams(*witness)  # the incumbent at the start of the round
        around = (refine_around(block, center, eff) for block in inputs.offsets(rnd, radius))
        best, witness, scanned = _best_of(fn, lam, _with_moments(around), best, witness)
        evaluated += scanned
        radius *= _REFINE_SHRINK

    return SearchResult(value=best, witness=CaratheodoryParams(*witness), samples=evaluated)


@dataclass(frozen=True)
class VerificationReport:
    """One claim at one grid point: printed bound versus searched maximum."""

    claim_id: str
    lam: float
    p: Optional[float]
    bound: float
    branch: str
    oracle_max: float
    witness: CaratheodoryParams
    gap: float
    violation: bool
    samples: int
    seed: int
    duration_ms: int
    variant: Optional[str]

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "lambda": self.lam,
            "p": self.p,
            "bound": self.bound,
            "branch": self.branch,
            "oracle_max": self.oracle_max,
            "witness": {
                "p1": self.witness.p1,
                "x_re": self.witness.x.real,
                "x_im": self.witness.x.imag,
                "y_re": self.witness.y.real,
                "y_im": self.witness.y.imag,
            },
            "gap": self.gap,
            "violation": self.violation,
            "samples": self.samples,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "variant": self.variant,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        w = d["witness"]
        return cls(
            claim_id=d["claim_id"],
            lam=d["lambda"],
            p=d["p"],
            bound=d["bound"],
            branch=d["branch"],
            oracle_max=d["oracle_max"],
            witness=CaratheodoryParams(
                w["p1"], complex(w["x_re"], w["x_im"]), complex(w["y_re"], w["y_im"])
            ),
            gap=d["gap"],
            violation=d["violation"],
            samples=d["samples"],
            seed=d["seed"],
            duration_ms=d["duration_ms"],
            variant=d["variant"],
        )


@dataclass(frozen=True)
class ClaimDef:
    """Registry entry: functional, bound evaluator inputs, default grids."""

    claim_id: str
    kind: str
    cls: str
    n: Optional[int]
    which: Optional[str]
    default_lambdas: tuple[float, ...]
    default_ps: Optional[tuple[float, ...]]
    pinned_variant: Optional[str] = None


_FULL_GRID = (0.3, 0.6, 1.0, 1.4)

# Default lambda grids probe every branch that the in-paper anchors confirm.
# The |a4| bounds are probed inside (1/5, ~0.51] as well, where the printed
# second branch drops below the z^3 witness value lam/3: that documented
# defect is carried by the starlike claim (thm3.1-a4); the convex |a4| grid
# stays on anchor-confirmed branches so the default report names exactly the
# two known-defective claims.
CLAIMS: dict[str, ClaimDef] = {
    c.claim_id: c
    for c in [
        ClaimDef("thm3.1-a2", "abs_a2", "starlike", 2, None, _FULL_GRID, None),
        ClaimDef("thm3.1-a3", "abs_a3", "starlike", 3, None, _FULL_GRID, None),
        ClaimDef("thm3.1-a4", "abs_a4", "starlike", 4, None, (0.1, 0.21, 0.3, 1.0, 1.4), None),
        ClaimDef("thm3.2-a2", "abs_a2", "convex", 2, None, _FULL_GRID, None),
        ClaimDef("thm3.2-a3", "abs_a3", "convex", 3, None, _FULL_GRID, None),
        ClaimDef("thm3.2-a4", "abs_a4", "convex", 4, None, (0.1, 1.0, 1.4), None),
        ClaimDef("thm3.3-d32", "abs_a3_minus_a2", "starlike", None, "d32", _FULL_GRID, DEFAULT_PS["starlike"]),
        ClaimDef("thm3.3-d43", "abs_a4_minus_a3", "starlike", None, "d43", _FULL_GRID, DEFAULT_PS["starlike"]),
        ClaimDef(
            "thm3.3-d43-psi2-statement",
            "abs_a4_minus_a3",
            "starlike",
            None,
            "d43",
            (1.0, 1.4),
            (2.0,),
            pinned_variant="statement",
        ),
        ClaimDef("thm3.5-d32", "abs_a3_minus_a2", "convex", None, "d32", _FULL_GRID, DEFAULT_PS["convex"]),
        ClaimDef("thm3.5-d43", "abs_a4_minus_a3", "convex", None, "d43", _FULL_GRID, DEFAULT_PS["convex"]),
    ]
}


def _verify_points(
    points: Sequence[tuple[ClaimDef, float, Optional[float]]],
    budget: int,
    seed: int,
    tol: float,
    psi2_variant: str,
    workers: int,
) -> list[VerificationReport]:
    """One report per (claim, lam, p) point, in the order given.

    The searches run grouped by effective p1, in order of first appearance,
    so that each exploration set is built once and only one is held at a
    time.  A group's first record therefore also times building its set.
    """
    check_tol(tol)
    _check_workers(workers)
    groups: dict = {}
    for i, (claim, lam, p) in enumerate(points):
        fn = Functional(kind=claim.kind, cls=claim.cls, fixed_p=p)
        groups.setdefault(_p1_key(fn.effective_p1), []).append((i, claim, fn, lam, p))
    inputs = _SearchInputs(seed, budget)
    reports: list = [None] * len(points)
    for group in groups.values():
        for i, claim, fn, lam, p in group:
            t0 = time.perf_counter()
            result = extremal_search(fn, lam, budget=budget, seed=seed, inputs=inputs)
            b = bounds.bound(
                claim.cls, lam, claim.n, claim.which, p, claim.pinned_variant or psi2_variant
            )
            gap = b.value - result.value
            duration_ms = int((time.perf_counter() - t0) * 1000.0)
            reports[i] = VerificationReport(
                claim_id=claim.claim_id,
                lam=lam,
                p=p,
                bound=b.value,
                branch=b.branch,
                oracle_max=result.value,
                witness=result.witness,
                gap=gap,
                violation=bool(result.value > b.value + tol),
                samples=result.samples,
                seed=seed,
                duration_ms=duration_ms,
                variant=b.variant,
            )
    return reports


def _claim_points(claim: ClaimDef, lam_grid, p_grid) -> list:
    """(claim, lam, p) per grid point, lam outer and p inner."""
    if claim.default_ps is not None:
        ps: Sequence[Optional[float]] = tuple(p_grid) if p_grid is not None else claim.default_ps
        if not ps:
            raise ValueError(f"{claim.claim_id} constrains f''(0); a p grid is required")
    else:
        ps = (None,)
    return [(claim, lam, p) for lam in lam_grid for p in ps]


def verify_claim(
    claim_id: str,
    lam_grid: Sequence[float],
    p_grid: Optional[Sequence[float]] = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    psi2_variant: str = "proof",
    workers: int = 1,
) -> list[VerificationReport]:
    """Run the extremal oracle against one registered claim over a grid.

    Emits one report per grid point, lam outer and p inner.  The violation
    flag is exactly oracle_max > bound + tol; violations never abort the run.
    ``workers`` has no effect on speed or output.
    """
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}; registered: {sorted(CLAIMS)}")
    points = _claim_points(CLAIMS[claim_id], lam_grid, p_grid)
    return _verify_points(points, budget, seed, tol, psi2_variant, workers)


def run_claim_suite(
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    psi2_variant: str = "proof",
    workers: int = 1,
) -> list[VerificationReport]:
    """Every registered claim over its default grids, in registry order."""
    points = []
    for claim in CLAIMS.values():
        points.extend(_claim_points(claim, claim.default_lambdas, claim.default_ps))
    return _verify_points(points, budget, seed, tol, psi2_variant, workers)


def series_cross_check(lam: float, cls: str, params: CaratheodoryParams) -> float:
    """Max deviation between the closed coefficient formulas and the series engine.

    Builds the Schwarz expansion from the parameters, recovers a2..a4 through
    the subordination series, and compares against the moment formulas the
    oracle maximizes.  The two routes share no code path.
    """
    m = caratheodory_moments(params)
    c = caratheodory_to_schwarz(m)
    omega = series.TruncatedSeries([0.0, c.c1, c.c2, c.c3])
    a_series = series.coefficients_from_schwarz(omega, lam, cls, 4)
    p1 = np.float64(params.p1)
    p2, p3 = _moments(p1, np.complex128(params.x), np.complex128(params.y))
    a2, a3, a4 = _coefficient_values(lam, p1, p2, p3, cls)
    closed = np.array([a2, a3, a4], dtype=np.complex128)
    return float(np.max(np.abs(a_series - closed)))


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a random-Blaschke sweep against the general bounds."""

    lam: float
    n_max: int
    samples: int
    seed: int
    violations: int
    max_cn_excess: float
    max_an_excess: float


def general_bound_probe(
    lam: float, n_max: int = series.DEFAULT_ORDER, samples: int = 500, seed: int = DEFAULT_SEED
) -> ProbeReport:
    """Probe the subordination coefficient bound and the general |a_n| bounds.

    Draws random Blaschke-type Schwarz functions of degree <= 3, expands
    exp(lam*w), and checks |c_n| <= lam + 1e-12 for n <= n_max plus
    |a_n| <= the product bound + 1e-9 for both classes.  Positive excesses
    are violations; the maxima are reported either way.
    """
    bounds.check_lambda(lam)
    if n_max > series.DEFAULT_ORDER:
        raise ValueError(f"n_max must stay within the default order {series.DEFAULT_ORDER}")
    rng = np.random.default_rng(seed)
    star_bounds = np.array([bounds.general_coeff_bound("starlike", n, lam) for n in range(2, n_max + 1)])
    conv_bounds = star_bounds / np.arange(2, n_max + 1)
    violations = 0
    max_cn_excess = -np.inf
    max_an_excess = -np.inf
    for _ in range(samples):
        degree = int(rng.integers(0, 4))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        moduli = rng.uniform(0.0, 0.97, degree)
        phases = rng.uniform(0.0, 2.0 * np.pi, degree)
        zeros = moduli * np.exp(1j * phases)
        w = series.blaschke_schwarz(theta, list(zeros), n_max)
        e = series.exp_series(series.TruncatedSeries(lam * w.coeffs))
        cn_excess = float(np.max(np.abs(e.coeffs[1:])) - lam)
        max_cn_excess = max(max_cn_excess, cn_excess)
        if cn_excess > 1e-12:
            violations += 1
        a_star = np.abs(
            series.ratio_to_coefficients(
                series.TruncatedSeries(e.coeffs - series.unit_series(n_max).coeffs), n_max
            )
        )
        a_conv = a_star / np.arange(2, n_max + 1)
        an_excess = float(max(np.max(a_star - star_bounds), np.max(a_conv - conv_bounds)))
        max_an_excess = max(max_an_excess, an_excess)
        if an_excess > 1e-9:
            violations += 1
    return ProbeReport(
        lam=lam,
        n_max=n_max,
        samples=samples,
        seed=seed,
        violations=violations,
        max_cn_excess=max_cn_excess,
        max_an_excess=max_an_excess,
    )
