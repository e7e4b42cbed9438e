"""Sharp coefficient bounds for univalent-function classes subordinate to
exp(lambda*z), together with a brute-force extremal verification oracle.

The package splits along the pipeline:

* series    - truncated Taylor arithmetic and coefficient recovery
* schwarz   - exact parameterization of the admissible moment body, circle kernel
* lemmas    - auxiliary closed forms (region bounds, disk maximum, A_m)
* bounds    - the theorem-level piecewise bounds and sup-over-p
* oracle    - extremal search, claim registry, verification reports
* cli       - command-line front end (coefbound ...)
"""

from .bounds import (
    BoundResult,
    bound,
    general_coeff_bound,
    k_coeff_bound,
    k_diff_bound,
    r0_root,
    s_diff_bound,
    s_star_coeff_bound,
    sup_over_p,
)
from .lemmas import (
    PhiBound,
    Region,
    UnclassifiedRegionError,
    YValue,
    a_sequence_closed,
    a_sequence_recursive,
    classify_region,
    phi_bound,
    psi_functional,
    y_bruteforce,
    y_closed_form,
)
from .oracle import (
    CLAIMS,
    Functional,
    ProbeReport,
    SearchResult,
    VerificationReport,
    extremal_search,
    functional_value,
    general_bound_probe,
    run_claim_suite,
    series_cross_check,
    verify_claim,
)
from .schwarz import (
    CaratheodoryMoments,
    CaratheodoryParams,
    SchwarzCoefficients,
    caratheodory_moments,
    caratheodory_to_schwarz,
    sample_params,
    validate_schwarz,
)
from .series import (
    DEFAULT_ORDER,
    SeriesError,
    TruncatedSeries,
    blaschke_schwarz,
    coefficients_from_schwarz,
    exp_series,
    mul,
    ratio_to_coefficients,
    reciprocal,
    unit_series,
)

__version__ = "0.1.0"
