"""flatpoly: Singer difference sets and the machinery built on them.

Construction and exact verification of perfect difference sets,
L2-normalized 0/1-support polynomials and their flatness diagnostics,
Mahler measures by two methods, generalized Riesz product plans with
exact sparse coefficients, and rank-one cutting-and-stacking towers
simulated in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .errors import BudgetError
from .singer import (
    DifferenceReport,
    ExactVector,
    FieldSpec,
    SingerSet,
    canonical_field_spec,
    construct_singer,
    gap_statistic,
    normalize,
    verify_perfect_difference,
)
from .poly import (
    CorrelationTable,
    DefectPolynomial,
    NewmanPolynomial,
    build_polynomial,
    correlation_table,
    correlations,
    defect_poly,
    eval_support_grid,
    newman_from_support,
)
from .analysis import (
    FlatnessReport,
    KernelSpec,
    MZReport,
    RealLineReport,
    flatness,
    kernel_mass,
    kernel_value,
    l2_defect_exact,
    l2_defect_sq_exact,
    lp_norm,
    mz_ratio,
    periodized_kernel,
    periodized_kernel_truncated,
    realline_flatness,
)
from .mahler import MahlerReport, mahler_jensen, mahler_log, riesz_mahler
from .riesz import (
    DissociationCertificate,
    ErgodicityReport,
    QuasiInvarianceReport,
    RieszPlan,
    SparseCoefficients,
    check_dissociated,
    ergodicity_sum,
    make_plan,
    partial_coeffs,
    plan_from_json,
    plan_to_json,
    quasi_invariance_sum,
)
from .rankone import (
    CorrelationCheck,
    FlowParams,
    GrowthReport,
    RankOneParams,
    Tower,
    base_occurrences,
    build_tower,
    correlation,
    derive_flow_params,
    derive_map_params,
    measure_growth,
)
