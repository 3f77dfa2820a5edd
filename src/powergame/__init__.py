"""Energy-efficient power control as a game.

Players pick transmit powers to maximise energy efficiency (delivered bits
per joule) through a shared-spectrum SINR.  The library solves the one-shot
equilibrium, the leader-follower equilibrium, and the cooperative operating
point; bounds when repetition makes cooperation self-enforcing; simulates
the repeated game with public-signal trigger strategies; and regenerates
the reference numerical studies as CSV.
"""

from ._version import VERSION as __version__
from .channel import (
    ChannelMode,
    ChannelProcess,
    acceptance_probability,
    draw_block,
    draw_sequence,
    dynamics_db,
)
from .efficiency import (
    CharacteristicSinrs,
    InfoTheoretic,
    PacketSuccess,
    UniquenessRiskWarning,
    equal_action_utility,
    leader_coefficient,
    solve_all,
    solve_beta_star,
    solve_gamma_star,
    solve_gamma_tilde,
)
from .errors import (
    ChannelConfigError,
    NoFiniteT0Error,
    NoNashEquilibriumError,
    PowerGameError,
    SaturatedRegimeError,
    SolverError,
)
from .experiments import (
    DEFAULT_SEED,
    fig1_region,
    fig2_dynamics_vs_t,
    fig3_dynamics_vs_lambda,
    fig4_welfare_vs_load,
    fig5_frg_ratio_vs_t,
    fig5_t0_sweep,
)
from .repeated import (
    DeviationScenario,
    DiscountedAverage,
    DrgPlan,
    FrgPlan,
    Phase,
    RgBounds,
    StageRecord,
    TriggerStrategy,
    averaged_utility_drg,
    averaged_utility_frg,
    delta_gain,
    drg_truncation_horizon,
    lambda_bound,
    make_machines,
    rg_bounds,
    run_game,
    t0_bound,
    t0_bound_exact_deviation,
    trace_to_csv,
)
from .static_game import (
    ChannelState,
    NetworkConfig,
    PowerProfile,
    UtilityProfile,
    ne_action,
    ne_profile,
    op_profile,
    pareto_dominates,
    public_signal,
    reconstruct_public_signal,
    sample_utility_region,
    se_profiles,
    sinr_all,
    utility,
)
