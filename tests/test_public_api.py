import types

import eelink

# Every public non-module name of the package. A name joins or leaves this
# set on purpose, with its callers, tests and docs.
PUBLIC = {
    # analysis
    "METHOD_CLOSED", "METHOD_EXACT", "AnalysisResult", "QosSpec", "analyze",
    "delay_outage_estimate", "ee_trend", "effective_capacity", "energy_efficiency",
    "log_service_mgf", "mean_service_rate", "service_mgf",
    # channel
    "SystemParams", "cdf", "db_to_linear", "dbm_to_watt", "default_params",
    "path_loss_db", "pdf", "sample_gains", "tail_probability",
    # errors
    "BracketError", "ConfigError", "DomainError", "InfeasibleRateError",
    "PreconditionError", "QuadratureError", "QueueOverflowError",
    # optimize
    "GATING_RESOLUTION", "OptimumResult", "Regime", "SearchSettings",
    "find_optimal_threshold", "find_theta_threshold", "invert_effective_capacity", "sweep",
    # sim
    "QUEUE_GUARD_BITS", "SimConfig", "SimReport", "delay_outage_curve",
    "ee_vs_threshold_curve", "improvement_vs_baseline", "run",
    # special
    "integrate", "upper_incomplete_gamma",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(eelink).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
