"""Experiment and reporting layer: one function per paper table/figure."""

from repro.analysis.admission import (
    AdmissionStudyResult,
    admission_study,
)
from repro.analysis.burst_profiles import (
    BurstProfileResult,
    burst_profile_study,
    offline_accuracy,
)
from repro.analysis.engine_fidelity import (
    EngineFidelityStudyResult,
    engine_fidelity_study,
)
from repro.analysis.fairness import (
    FairnessStudyResult,
    PredictorErrorStudyResult,
    fairness_study,
    predictor_error_study,
)
from repro.analysis.fleet_sizing import (
    FleetSizingResult,
    fleet_sizing_study,
)
from repro.analysis.hetero_fleet import (
    HeteroFleetResult,
    hetero_fleet_study,
)
from repro.analysis.predictive_scaling import (
    PredictiveScalingResult,
    predictive_scaling_study,
)
from repro.analysis.reporting import format_table, format_value, print_table
from repro.analysis.sessions import (
    SessionStudyResult,
    sessions_study,
)
from repro.analysis.figures import (
    characterization_study,
    default_config,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    peak_throughput,
)
from repro.analysis.tables import table1, table2, table3, table4

__all__ = [
    "AdmissionStudyResult",
    "BurstProfileResult",
    "EngineFidelityStudyResult",
    "FairnessStudyResult",
    "FleetSizingResult",
    "HeteroFleetResult",
    "PredictiveScalingResult",
    "PredictorErrorStudyResult",
    "SessionStudyResult",
    "admission_study",
    "burst_profile_study",
    "engine_fidelity_study",
    "fairness_study",
    "fleet_sizing_study",
    "hetero_fleet_study",
    "offline_accuracy",
    "predictive_scaling_study",
    "predictor_error_study",
    "sessions_study",
    "characterization_study",
    "default_config",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "format_table",
    "format_value",
    "peak_throughput",
    "print_table",
    "table1",
    "table2",
    "table3",
    "table4",
]
