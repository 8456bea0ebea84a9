"""fuzzycoarse: exact-arithmetic coarse geometry of fuzzy metric spaces.

The library evaluates fuzzy metrics exactly over rational points,
certifies covers and dimension witnesses at explicit scales (r, t) on
finite windows, runs the constructive implication pipelines, and checks
everything it can against brute-force oracles on small instances.
"""

from .errors import (
    CertificationError,
    DerivationError,
    DomainError,
    ExactnessError,
    FuzzyCoarseError,
    NonArchimedeanViolationError,
    OracleSizeError,
    ParseError,
    PreconditionError,
    SearchFailureError,
    UnsupportedOperationError,
)
from .rationals import as_fraction, format_rational, parse_rational
from .report import CertReport
from .tnorm import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    TNorm,
    check_tnorm_axioms,
    is_positivity_preserving,
    tnorm_eval,
    tnorm_from_name,
)
from .space import (
    EuclideanLattice,
    EuclideanLine,
    FuzzyMetricSpace,
    MaxUltrametric,
    Metric,
    ScaleParams,
    TableMetric,
    Window,
    ball,
    check_axioms,
    grid_window,
    int_window,
    is_bounded,
    pathological_space,
    ratio_minmax_space,
    reciprocal_product_space,
    standard_space,
    subspace,
    threshold_bridge_suite,
    threshold_split,
    ultrametric_space,
    union_bound,
)
from .covers import (
    Cover,
    Family,
    first_lebesgue_violation,
    first_refinement_violation,
    is_uniformly_bounded_family,
    multiplicity,
    neighborhood_family,
    scale_multiplicity,
    scale_neighborhood,
)
from .asdim import (
    DimensionWitness,
    ScaleGraphReport,
    derive_bound_params,
    derived_scale,
    lebesgue_cover_from_multiplicity,
    lift_metric_families,
    multiplicity_cover_from_witness,
    oracle_min_families,
    ratio_block_structure,
    reciprocal_head_size,
    refinement_via_lebesgue,
    restrict_witness,
    run_dimension_pipeline,
    scale_graph,
    verify_witness,
    verify_witness_scales,
    witness_ball_partition,
    witness_ratio_minmax,
    witness_reciprocal_product,
    witness_whole_window,
)
from .coarse import (
    ClosenessCert,
    CoarseMap,
    ModulusEntry,
    affine_map,
    check_close,
    check_coarsely_onto,
    check_effectively_proper,
    check_uniformly_expansive,
    coarse_inverse,
    compose_closeness,
    compose_maps,
    identity_map,
    inclusion_map,
    table_map,
    transport_witness,
)

__version__ = "0.1.0"
