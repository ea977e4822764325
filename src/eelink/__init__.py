"""Energy-efficiency toolkit for threshold-gated transmission over
Nakagami-m block-fading links under delay-QoS constraints."""

from .analysis import (
    METHOD_CLOSED,
    METHOD_EXACT,
    AnalysisResult,
    QosSpec,
    analyze,
    delay_outage_estimate,
    ee_trend,
    effective_capacity,
    energy_efficiency,
    log_service_mgf,
    mean_service_rate,
    service_mgf,
)
from .channel import (
    SystemParams,
    db_to_linear,
    dbm_to_watt,
    default_params,
    path_loss_db,
    pdf,
    sample_gains,
    tail_probability,
)
from .errors import (
    BracketError,
    ConfigError,
    DomainError,
    InfeasibleRateError,
    PreconditionError,
    QuadratureError,
    QueueOverflowError,
)
from .optimize import (
    GATING_RESOLUTION,
    OptimumResult,
    Regime,
    find_optimal_threshold,
    find_theta_threshold,
    invert_effective_capacity,
    sweep,
)
from .sim import (
    QUEUE_GUARD_BITS,
    SimConfig,
    SimReport,
    delay_outage_curve,
    ee_vs_threshold_curve,
    improvement_vs_baseline,
    run,
)
from .special import integrate, upper_incomplete_gamma

__version__ = "0.1.0"
