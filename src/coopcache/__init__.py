"""Coded caching for broadcast networks with user cooperation.

Exact (rational-arithmetic) implementations of the centralized and
decentralized cooperative coded-caching schemes: placement, delivery
scheduling with parallel user groups, closed-form delay/gain expressions,
converse lower bounds with gap verification, and a bit-level simulator with
a scheduler-independent decode check.
"""

import importlib

# module -> the names it exports; each is imported on first use
_EXPORTS = {
    "config": "Frac SystemConfig as_frac",
    "model": """SchedulingError GroupPartition FragmentId Constituent XorSymbol
        DeliverySchedule enumerate_subsets equal_partition_count
        validate_demands""",
    "closed_forms": """CentralizedRates SplitPlan centralized_delay centralized_rates
        choose_alpha make_split_plan AllocationPlan
        DecentralizedRates GainReport RateComponents allocation_plan
        corollary_bounds decentralized_delay decentralized_gains
        decentralized_rates f_ks parallelism_regime rate_components round_shapes""",
    "centralized": """CentralPlacement build_central_placement build_delivery
        build_server_schedule build_user_schedule""",
    "decentralized": """DecentralPlacement build_decentral_delivery
        build_decentral_placement parallel_user_delivery
        server_delivery_decentralized""",
    "bounds": """Baselines BoundReport CentralizedGapReport DecentralizedGapReport
        GapPoint baselines centralized_gains centralized_gap_grid
        decentralized_gap_bound decentralized_gap_grid gap_ratio gap_regime
        load_grid_spec lower_bound p_at_least_threshold p_threshold
        verify_gap_centralized verify_gap_decentralized verify_user_rate_bounds""",
    "simulator": """BitLibrary CentralFragmentResolver DecentralFragmentResolver
        LogEntry RateReport SimulationResult TransmissionLog execute_schedule
        required_central_F run_centralized run_decentralized""",
    "decode": "brute_force_decode_check",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name's module on first use (PEP 562), so that the
    analytic layer loads without numpy and the simulator."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
