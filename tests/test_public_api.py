"""The package's public names and its module-level caches: adding or removing one
is a deliberate edit here."""

import importlib
import inspect
import pkgutil

import powergame

PUBLIC_NAMES = [
    "ChannelConfigError", "ChannelMode", "ChannelProcess", "ChannelState",
    "CharacteristicSinrs", "DEFAULT_SEED", "DeviationScenario", "DiscountedAverage",
    "DrgPlan", "FrgPlan", "InfoTheoretic", "NetworkConfig", "NoFiniteT0Error",
    "NoNashEquilibriumError", "PacketSuccess", "Phase", "PowerGameError", "PowerProfile",
    "RgBounds", "SaturatedRegimeError", "SolverError", "StageRecord", "TriggerStrategy",
    "UniquenessRiskWarning", "UtilityProfile", "acceptance_probability",
    "averaged_utility_drg", "averaged_utility_frg", "delta_gain",
    "draw", "draw_block", "draw_sequence", "drg_truncation_horizon", "dynamics_db",
    "equal_action_utility", "fig1_region", "fig2_dynamics_vs_t", "fig3_dynamics_vs_lambda",
    "fig4_welfare_vs_load", "fig5_frg_ratio_vs_t", "fig5_t0_sweep", "lambda_bound",
    "leader_coefficient", "make_machines", "ne_action", "ne_profile", "op_profile",
    "pareto_dominates", "public_signal", "reconstruct_public_signal",
    "rg_bounds", "run_game", "sample_utility_region", "se_profiles", "sinr_all",
    "solve_all", "solve_beta_star", "solve_gamma_star", "solve_gamma_tilde", "t0_bound",
    "t0_bound_exact_deviation", "trace_to_csv", "utility",
]


def test_the_package_exports_exactly_its_public_names():
    # submodules (powergame.cli once imported, say) are attributes, not exports
    exported = sorted(name for name, value in vars(powergame).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == PUBLIC_NAMES


# every functools cache at module level, by module.name, with its maxsize (None: unbounded);
# each is state that every caller in the process shares
MODULE_CACHES = {
    "channel._gain_block": 1,
    "efficiency._packet_beta_star": 256,
    "repeated._phase_labels": None,
    "static_game._column_names": None,
}


def test_the_module_level_caches_are_exactly_these():
    caches = {}
    for info in pkgutil.iter_modules(powergame.__path__):
        module = importlib.import_module(f"powergame.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert caches == MODULE_CACHES
