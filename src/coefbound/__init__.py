"""Sharp coefficient bounds for univalent-function classes subordinate to
exp(lambda*z), together with a brute-force extremal verification oracle.

The package splits along the pipeline:

* series    - truncated Taylor arithmetic and coefficient recovery
* schwarz   - exact parameterization of the admissible moment body, circle kernel
* lemmas    - auxiliary closed forms (region bounds, disk maximum, A_m recursion)
* bounds    - the theorem-level piecewise bounds and sup-over-p, A_m in closed
              form; the numpy-free base that the command line starts on
* oracle    - extremal search, claim registry, verification reports
* cli       - command-line front end (coefbound ...)

The names below are exported here, but each submodule loads on first use
(PEP 562): ``import coefbound`` imports none of them, and a command that
only evaluates bounds never imports numpy.
"""

import importlib

#: Each exported name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "bounds": (
            "BoundResult",
            "a_sequence_closed",
            "bound",
            "general_coeff_bound",
            "k_coeff_bound",
            "k_diff_bound",
            "r0_root",
            "s_diff_bound",
            "s_star_coeff_bound",
            "sup_over_p",
        ),
        "lemmas": (
            "PhiBound",
            "Region",
            "UnclassifiedRegionError",
            "YValue",
            "a_sequence_recursive",
            "classify_region",
            "phi_bound",
            "psi_functional",
            "y_bruteforce",
            "y_closed_form",
        ),
        "oracle": (
            "CLAIMS",
            "Functional",
            "ProbeReport",
            "SearchResult",
            "VerificationReport",
            "extremal_search",
            "functional_value",
            "general_bound_probe",
            "run_claim_suite",
            "series_cross_check",
            "verify_claim",
        ),
        "schwarz": (
            "CaratheodoryMoments",
            "CaratheodoryParams",
            "SchwarzCoefficients",
            "caratheodory_moments",
            "caratheodory_to_schwarz",
            "sample_params",
            "validate_schwarz",
        ),
        "series": (
            "DEFAULT_ORDER",
            "SeriesError",
            "TruncatedSeries",
            "blaschke_schwarz",
            "coefficients_from_schwarz",
            "exp_series",
            "mul",
            "ratio_to_coefficients",
            "reciprocal",
            "unit_series",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, read from its submodule on first use and kept here for the next lookup."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
