"""Panel difference-in-differences toolkit.

Builds regional treatment assignments from wage microdata, fits weighted
two-way fixed-effects models with cluster-robust inference, decomposes
staggered-adoption coefficients into their 2x2 comparisons, and provides
heterogeneity-robust alternatives (group-time effects, interaction-weighted
event studies, imputation) plus a simulation harness to race them.
"""

# Set before the submodules load: the command line imports it from here.
__version__ = "0.1.0"

from .bacon import BaconComponent, ComparisonKind, bacon_decompose, reconstruct
from .bite import (
    RegionTreatment,
    SwitcherGroup,
    TreatmentDesign,
    WageGapTable,
    WageMicrodata,
    build_treatment_design,
    classify_switchers,
    gap_correlations,
    low_growth_flag,
    wage_gap,
    weighted_median,
    weighted_median_split,
)
from .designs import (
    CovariateTerm,
    DesignKind,
    DidSpec,
    build_design,
    dump_spec,
    load_spec,
)
from .engine import (
    AbsorbedError,
    DesignMatrix,
    Estimate,
    RegressionFit,
    cluster_vcov,
    demean_two_way,
    wls_fit,
)
from .panel import (
    BalanceReport,
    IngestError,
    Observation,
    PanelDataset,
    balance_report,
    ingest_panel,
    log_outcome,
    serialize_panel,
)
from .periods import Period, period_range
from .simulate import (
    DgpConfig,
    EffectSchedule,
    GroundTruth,
    RaceResult,
    estimator_race,
    generate,
    heterogeneous_config,
    homogeneous_config,
    load_dgp_config,
    null_config,
)
from .staggered import (
    Aggregation,
    EventStudyResult,
    GroupTimeATT,
    ImputationResult,
    cs_aggregate,
    cs_att,
    impute_att,
    sa_event_study,
)

__all__ = [
    "AbsorbedError",
    "Aggregation",
    "BaconComponent",
    "BalanceReport",
    "ComparisonKind",
    "CovariateTerm",
    "DesignKind",
    "DesignMatrix",
    "DgpConfig",
    "DidSpec",
    "EffectSchedule",
    "Estimate",
    "EventStudyResult",
    "GroundTruth",
    "GroupTimeATT",
    "ImputationResult",
    "IngestError",
    "Observation",
    "PanelDataset",
    "Period",
    "RaceResult",
    "RegionTreatment",
    "RegressionFit",
    "SwitcherGroup",
    "TreatmentDesign",
    "WageGapTable",
    "WageMicrodata",
    "bacon_decompose",
    "balance_report",
    "build_design",
    "build_treatment_design",
    "classify_switchers",
    "cluster_vcov",
    "cs_aggregate",
    "cs_att",
    "demean_two_way",
    "dump_spec",
    "estimator_race",
    "gap_correlations",
    "generate",
    "heterogeneous_config",
    "homogeneous_config",
    "impute_att",
    "ingest_panel",
    "load_dgp_config",
    "load_spec",
    "log_outcome",
    "low_growth_flag",
    "null_config",
    "period_range",
    "reconstruct",
    "sa_event_study",
    "serialize_panel",
    "wage_gap",
    "weighted_median",
    "weighted_median_split",
    "wls_fit",
]
