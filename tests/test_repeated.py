"""Repeated-game bounds, the trigger strategy, and the stage-game engine."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powergame import repeated
from powergame.channel import ChannelProcess, draw_block, draw_sequence
from powergame.efficiency import (
    InfoTheoretic,
    PacketSuccess,
    equal_action_utility,
    solve_all,
)
from powergame.errors import NoFiniteT0Error, NoNashEquilibriumError, SaturatedRegimeError
from powergame.repeated import (
    DeviationScenario,
    DrgPlan,
    FrgPlan,
    Phase,
    TriggerStrategy,
    averaged_utility_drg,
    averaged_utility_frg,
    best_deviation,
    delta_gain,
    drg_truncation_horizon,
    history_at,
    lambda_bound,
    make_machines,
    rg_bounds,
    run_game,
    t0_bound,
    t0_bound_exact_deviation,
    trace_to_csv,
)
from powergame.static_game import (
    ChannelState,
    NetworkConfig,
    PowerProfile,
    _equal_action,
    ne_action,
    ne_profile,
    op_profile,
    public_signal,
    sinr_all,
    utility,
)

# frozen pins for the degenerate-bounds sweep configs (m=2, sigma2=1e-3,
# p_max=100, eta_min=eta_max=1), from a hand bisection of the same formulas
T0_AT_UNIT_RATIO = {(2, 2): 2, (4, 5): 2, (10, 12): 10}
LAMBDA_MAX_AT_UNIT_RATIO = {
    (2, 2): 0.16843550987874994,
    (4, 5): 0.07672504493841714,
    (10, 12): 0.036974787240196524,
}


def _uniform_cfg(k, n, sigma2=1e-3, p_max=100.0, eta_min=1.0, ratio=1.0):
    return NetworkConfig.uniform(k=k, n=n, sigma2=sigma2, rate=1.0,
                                 p_max=p_max, eta_min=eta_min,
                                 eta_max=eta_min * ratio)


def _equal_bounds_scenario():
    model = InfoTheoretic.from_c(0.5)
    cfg = NetworkConfig.uniform(k=2, n=1, sigma2=1.0, rate=1.0, p_max=10.0,
                                eta_min=1.0, eta_max=1.0)
    sinrs = solve_all(model, 2, 1)
    return model, cfg, sinrs


def test_plan_validation():
    FrgPlan(t_total=5, t0=7)  # degenerate all-endgame plan is allowed
    with pytest.raises(ValueError):
        FrgPlan(t_total=0, t0=0)
    with pytest.raises(ValueError):
        FrgPlan(t_total=5, t0=-1)
    with pytest.raises(ValueError):
        DrgPlan(lam=0.0)
    with pytest.raises(ValueError):
        DrgPlan(lam=1.0)


def test_bounds_match_hand_arithmetic_in_the_equal_bounds_scenario():
    model, cfg, sinrs = _equal_bounds_scenario()
    bounds = rg_bounds(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
    assert bounds.t0 == 1
    # beta_star = 1/2, gamma_tilde = 1/3, so lambda_max = 2*exp(-1/2) - 1
    np.testing.assert_allclose(bounds.lambda_max, 2.0 * math.exp(-0.5) - 1.0,
                               rtol=1e-12)
    np.testing.assert_allclose(bounds.delta,
                               2.0 * math.exp(-1.5) - math.exp(-1.0), rtol=1e-12)


def test_bounds_pinned_at_degenerate_gain_interval():
    for (k, n), t0 in T0_AT_UNIT_RATIO.items():
        model = PacketSuccess(2)
        sinrs = solve_all(model, k, n)
        cfg = _uniform_cfg(k, n)
        assert t0_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde) == t0
        np.testing.assert_allclose(
            lambda_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde),
            LAMBDA_MAX_AT_UNIT_RATIO[(k, n)], rtol=1e-12)


def test_t0_grows_with_gain_spread_and_lambda_shrinks():
    model = PacketSuccess(2)
    sinrs = solve_all(model, 2, 2)
    t0s, lams = [], []
    for ratio in (1.0, 1.5, 2.0, 2.5):
        cfg = _uniform_cfg(2, 2, ratio=ratio)
        t0s.append(t0_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde))
        lams.append(lambda_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde))
    assert t0s == sorted(t0s)
    assert lams == sorted(lams, reverse=True)


def test_weak_punishment_has_no_finite_horizon():
    # with p_max = 0.1 the punished player still earns more than cooperation buys
    model, cfg, sinrs = _equal_bounds_scenario()
    weak = NetworkConfig.uniform(k=2, n=1, sigma2=1.0, rate=1.0, p_max=0.1,
                                 eta_min=1.0, eta_max=1.0)
    with pytest.raises(NoFiniteT0Error):
        t0_bound(weak, model, sinrs.beta_star, sinrs.gamma_tilde)


def test_bounds_refuse_loads_without_a_one_shot_equilibrium():
    # m=4: beta_star is about 2.2, so (k-1)*beta_star >= n on the (2, 2) curve
    model = PacketSuccess(4)
    sinrs = solve_all(model, 2, 2)
    assert sinrs.beta_star >= 2.0
    for ratio in (1.0, 2.0):
        cfg = _uniform_cfg(2, 2, ratio=ratio)
        for bound in (t0_bound, t0_bound_exact_deviation, lambda_bound, rg_bounds):
            with pytest.raises(NoNashEquilibriumError, match="beta_star"):
                bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)


def test_exact_deviation_bound_never_exceeds_worst_case_bound():
    rng = np.random.default_rng(31)
    model = PacketSuccess(2)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(math.ceil(1.26 * (k - 1)) + 1, 32))
        sinrs = solve_all(model, k, n)
        cfg = _uniform_cfg(k, n, ratio=float(rng.uniform(1.0, 1.3)))
        try:
            worst = t0_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
        except NoFiniteT0Error:
            continue
        exact = t0_bound_exact_deviation(cfg, model, sinrs.beta_star,
                                         sinrs.gamma_tilde)
        assert exact <= worst


def test_single_player_bounds_are_trivial():
    model = PacketSuccess(2)
    cfg = NetworkConfig.uniform(k=1, n=1, sigma2=1.0, rate=1.0, p_max=10.0,
                                eta_min=1.0, eta_max=1.0)
    sinrs = solve_all(model, 1, 1)
    assert t0_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde) == 1
    assert lambda_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde) == 0.0
    assert delta_gain(model, 1, 1, sinrs.beta_star, sinrs.gamma_tilde) == 0.0


def test_cooperation_surplus_identity_without_spreading():
    # (k-1) f(b) - delta equals f(b)/b - phi(gt) when n = 1
    from powergame.efficiency import solve_beta_star, solve_gamma_tilde

    rng = np.random.default_rng(32)
    for _ in range(20):
        c = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(2, 6))
        if (k - 1) * c >= 1:
            continue
        model = InfoTheoretic.from_c(c)
        beta = solve_beta_star(model)
        tilde = solve_gamma_tilde(model, k, 1)
        d = delta_gain(model, k, 1, beta, tilde)
        lhs = (k - 1) * model.value(beta) - d
        rhs = (model.value(beta) / beta
               - equal_action_utility(model, tilde, k, 1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11)
        assert d >= 0.0


def test_truncation_horizon_brackets_the_tail():
    for lam in (0.05, 0.3, 0.9):
        t = drg_truncation_horizon(lam, tail=1e-12)
        assert (1.0 - lam) ** t <= 1e-12 < (1.0 - lam) ** (t - 1)
    with pytest.raises(ValueError):
        drg_truncation_horizon(0.0)


def _strategy(plan, caps=(10.0,)):
    return TriggerStrategy(plan, coop_action=0.5, ne_action=1.0, caps=caps,
                           expected_omega=2.0)


def test_strategy_phase_schedule_and_actions():
    strategy = _strategy(FrgPlan(t_total=10, t0=3))
    assert strategy.phases(10) == [Phase.COOPERATE] * 7 + [Phase.ENDGAME] * 3
    assert strategy.phases(5) == [Phase.COOPERATE] * 5  # a shorter game: a prefix
    # each player's action over its own gain: cooperative, then one-shot
    gains2 = np.array([2.0, 0.5])
    assert strategy.powers(Phase.COOPERATE, gains2).tolist() == [0.25, 1.0]
    assert strategy.powers(Phase.ENDGAME, gains2).tolist() == [0.5, 2.0]


def test_run_game_rejects_stages_beyond_the_horizon():
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    with pytest.raises(ValueError, match="beyond the 8-stage horizon"):
        run_game(model, cfg, channels + channels[:1], strategy)


def test_degenerate_plan_is_all_endgame():
    strategy = _strategy(FrgPlan(t_total=4, t0=9))
    assert strategy.phases(4) == [Phase.ENDGAME] * 4


def test_detection_is_relative_absorbing_and_cooperation_only():
    strategy = _strategy(FrgPlan(t_total=10, t0=2))
    assert not strategy.deviation_seen(2.0)
    assert not strategy.deviation_seen(2.0 * (1 + 1e-12))  # inside the band
    assert not strategy.deviation_seen(2.0 * (1 + 0.5 * repeated.DETECTION_TOL))
    assert strategy.deviation_seen(2.0 * (1 - 2.0 * repeated.DETECTION_TOL))
    assert strategy.deviation_seen(2.2)
    big = TriggerStrategy(FrgPlan(10, 2), 0.5, 1.0, (10.0,), expected_omega=2e6)
    assert not big.deviation_seen(2e6 + 1e-4)  # 5e-11 relative
    # punishment from stage 4 on, through what would have been the endgame
    assert strategy.phases(10, punish_from=4) == [Phase.COOPERATE] * 3 + [Phase.PUNISH] * 7
    assert strategy.phases(10, punish_from=10) == (
        [Phase.COOPERATE] * 8 + [Phase.ENDGAME] + [Phase.PUNISH])
    # finite-horizon punishment: full power whatever the gain
    assert strategy.powers(Phase.PUNISH, np.array([1.0])).tolist() == [10.0]

    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    trace = run_game(model, cfg, channels, strategy,
                     DeviationScenario(player=0, stage=2, power="max"))
    assert [r.deviation_detected for r in trace] == [False, True] + [False] * 6
    expected = cfg.sigma2 + cfg.k * _equal_action(cfg, sinrs.gamma_tilde)
    for rec in trace[2:]:
        # full-power play keeps omega far off its cooperative value, but a
        # punished stage is never flagged and never returns to cooperation
        assert abs(rec.omega - expected) > 1e-3 * expected
        assert rec.phases == ("punish", "punish")


def test_endgame_deviations_are_not_punished():
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup(t_total=5,
                                                                     t0=2)
    trace = run_game(model, cfg, channels, strategy,
                     DeviationScenario(player=0, stage=4, power="max"))
    assert not any(rec.deviation_detected for rec in trace)  # stage 4 is endgame
    assert trace[4].phases == ("endgame", "endgame")
    a_ne = ne_action(cfg, sinrs.beta_star)
    np.testing.assert_allclose(np.asarray(trace[4].powers) * channels[4].gains2,
                               a_ne, rtol=1e-12)


def test_discounted_punishment_reverts_to_one_shot_play():
    strategy = _strategy(DrgPlan(0.2), caps=(10.0, 10.0))
    assert strategy.deviation_seen(3.0)
    # one-shot action over own gain
    assert strategy.powers(Phase.PUNISH, np.array([1.0, 4.0])).tolist() == [1.0, 0.25]


def test_strategy_is_immutable():
    strategy = _strategy(FrgPlan(t_total=10, t0=3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        strategy.plan = FrgPlan(t_total=10, t0=1)


def test_make_machines_rejects_saturated_plans():
    model, cfg, sinrs = _equal_bounds_scenario()
    tight = NetworkConfig.uniform(k=2, n=1, sigma2=1.0, rate=1.0, p_max=0.9,
                                  eta_min=1.0, eta_max=1.0)
    # equilibrium action is 1.0, so a unit-gain player would need 1.0 > 0.9 W
    with pytest.raises(SaturatedRegimeError):
        make_machines(tight, model, FrgPlan(5, 1), sinrs.beta_star,
                      sinrs.gamma_tilde)


def _conforming_setup(t_total=8, t0=3, gains=(1.0, 0.8)):
    model, cfg, sinrs = _equal_bounds_scenario()
    plan = FrgPlan(t_total=t_total, t0=t0)
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    channels = [ChannelState(gains)] * t_total
    return model, cfg, sinrs, plan, strategy, channels


def test_conforming_trace_plays_cooperation_then_endgame():
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    trace = run_game(model, cfg, channels, strategy)
    a_op = _equal_action(cfg, sinrs.gamma_tilde)
    a_ne = ne_action(cfg, sinrs.beta_star)
    for rec in trace:
        assert not rec.deviation_detected
        expected = a_op if rec.t <= plan.t_total - plan.t0 else a_ne
        for i in range(cfg.k):
            np.testing.assert_allclose(rec.powers[i] * rec.gains2[i], expected,
                                       rtol=1e-12)
        np.testing.assert_allclose(rec.omega, cfg.sigma2 + cfg.k * expected,
                                   rtol=1e-12)
    assert trace[0].phases == ("cooperate", "cooperate")
    assert trace[-1].phases == ("endgame", "endgame")
    # stage utilities match the equal-action utility scale
    x = sinrs.gamma_tilde
    for i in range(cfg.k):
        want = (cfg.rates[i] * channels[0].gains2[i] * cfg.n / cfg.sigma2
                * equal_action_utility(model, x, cfg.k, cfg.n))
        np.testing.assert_allclose(trace[0].utilities[i], want, rtol=1e-12)


def test_scripted_deviation_triggers_full_power_punishment():
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    scen = DeviationScenario(player=0, stage=2, power="max")
    trace = run_game(model, cfg, channels, strategy, scen)
    assert not trace[0].deviation_detected
    assert trace[1].deviation_detected
    assert trace[1].powers[0] == cfg.p_max[0]
    for rec in trace[2:]:
        assert rec.phases == ("punish", "punish")
        assert rec.powers == cfg.p_max


def test_discounted_deviation_reverts_everyone_to_one_shot():
    model, cfg, sinrs = _equal_bounds_scenario()
    plan = DrgPlan(0.3)
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    channels = [ChannelState((1.0, 1.0))] * 12
    scen = DeviationScenario(player=1, stage=4, power=5.0)
    trace = run_game(model, cfg, channels, strategy, scen)
    a_ne = ne_action(cfg, sinrs.beta_star)
    for rec in trace[4:]:
        assert rec.phases == ("punish", "punish")
        np.testing.assert_allclose(rec.powers, a_ne, rtol=1e-12)


def test_deviation_matching_the_cooperative_power_stays_invisible():
    # the public signal is all the strategy sees; a no-op override is undetectable
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    coop_power = _equal_action(cfg, sinrs.gamma_tilde) / channels[0].gains2[0]
    scen = DeviationScenario(player=0, stage=2, power=coop_power)
    trace = run_game(model, cfg, channels, strategy, scen)
    assert not any(rec.deviation_detected for rec in trace)


def test_run_game_validations():
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    with pytest.raises(ValueError, match="out of range"):
        run_game(model, cfg, channels, strategy,
                 DeviationScenario(player=5, stage=1, power="max"))
    with pytest.raises(ValueError, match="outside the horizon"):
        run_game(model, cfg, channels, strategy,
                 DeviationScenario(player=0, stage=99, power="max"))
    with pytest.raises(ValueError, match="outside"):
        run_game(model, cfg, channels, strategy,
                 DeviationScenario(player=0, stage=1, power=99.0))
    with pytest.raises(ValueError, match="beta_star"):
        run_game(model, cfg, channels, strategy,
                 DeviationScenario(player=0, stage=1, power="best_response"))


def test_bad_request_plays_the_game_once(monkeypatch):
    # a bad request bounds the cap check; the stages before it are not replayed
    play, calls = repeated.run_game, []

    def counted(*args, **kwargs):
        calls.append(args)
        return play(*args, **kwargs)

    monkeypatch.setattr(repeated, "run_game", counted)
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    for scenario in (DeviationScenario(player=0, stage=3, power=99.0),
                     DeviationScenario(player=0, stage=3, power="best_response"),
                     DeviationScenario(player=0, stage=3, power="max",
                                       best_response_after=True)):
        calls.clear()
        with pytest.raises(ValueError):
            repeated.run_game(model, cfg, channels, strategy, scenario)
        assert len(calls) == 1


def test_reused_strategy_forgets_the_last_punishment():
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    run_game(model, cfg, channels, strategy,
             DeviationScenario(player=0, stage=2, power="max"))
    reused = run_game(model, cfg, channels, strategy)
    fresh = run_game(model, cfg, channels,
                     make_machines(cfg, model, plan, sinrs.beta_star,
                                   sinrs.gamma_tilde))
    assert reused == fresh
    assert not any(rec.deviation_detected for rec in reused)
    assert reused[2].phases == ("cooperate", "cooperate")


def test_run_game_refuses_powers_above_the_cap():
    # the strategy is built for unit gains; a 0.01 gain needs 50 W of a 10 W cap
    model, cfg, sinrs, plan, strategy, _ = _conforming_setup()
    channels = [ChannelState((0.01, 1.0))] * plan.t_total
    with pytest.raises(SaturatedRegimeError, match="player 1"):
        run_game(model, cfg, channels, strategy)


def test_best_deviation_matches_a_fine_grid_search():
    model, cfg, sinrs = _equal_bounds_scenario()
    ch = ChannelState((1.3, 0.7))
    others = op_profile(cfg, ch, sinrs.gamma_tilde)
    for i in range(2):
        bd = best_deviation(model, cfg, ch, others, i, sinrs.beta_star)
        assert not bd.saturated
        # deviating lands exactly on the selfish SINR
        p = np.asarray(others.p).copy()
        p[i] = bd.power
        x = sinr_all(cfg, ch, PowerProfile(tuple(p)))
        np.testing.assert_allclose(x[i], sinrs.beta_star, rtol=1e-12)
        # no grid point beats it
        a = np.asarray(others.p) * np.asarray(ch.gains2)
        interference = a.sum() - a[i] + cfg.sigma2
        grid = np.linspace(1e-9, cfg.p_max[i], 100_001)
        u = cfg.rates[i] * model.value(cfg.n * grid * ch.gains2[i] / interference) / grid
        assert u.max() <= bd.utility * (1.0 + 1e-9)


def test_best_deviation_saturates_at_the_cap():
    model, cfg, sinrs = _equal_bounds_scenario()
    tight = NetworkConfig.uniform(k=2, n=1, sigma2=1.0, rate=1.0, p_max=0.2,
                                  eta_min=1.0, eta_max=1.0)
    ch = ChannelState((1.0, 1.0))
    bd = best_deviation(model, tight, ch, (0.0, 0.5), 0, sinrs.beta_star)
    assert bd.saturated and bd.power == 0.2


def test_minmax_is_the_best_response_to_full_power():
    model, cfg, sinrs = _equal_bounds_scenario()
    ch = ChannelState((1.1, 0.9))
    b = sinrs.beta_star
    for i in range(2):
        full = np.asarray(cfg.p_max)
        bd = best_deviation(model, cfg, ch, full, i, b)
        assert not bd.saturated
        # minmax: rate n g_i f(b) / (b (sum_{j != i} P_j g_j + sigma2))
        interference = sum(cfg.p_max[j] * ch.gains2[j] for j in range(2) if j != i)
        minmax = (cfg.rates[i] * cfg.n * ch.gains2[i] * model.value(b)
                  / (b * (interference + cfg.sigma2)))
        np.testing.assert_allclose(bd.utility, minmax, rtol=1e-12)
        # the interference-free ceiling rate n g_i f(b) / (b sigma2) sits above both
        ceiling = cfg.rates[i] * cfg.n * ch.gains2[i] * model.value(b) / (b * cfg.sigma2)
        assert ceiling >= bd.utility


def test_averaged_utilities():
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup(t_total=2,
                                                                    t0=1)
    trace = run_game(model, cfg, channels, strategy)
    np.testing.assert_allclose(
        averaged_utility_frg(trace, 0),
        0.5 * (trace[0].utilities[0] + trace[1].utilities[0]), rtol=1e-15)
    with pytest.raises(ValueError):
        averaged_utility_frg([], 0)

    lam = 0.5
    avg = averaged_utility_drg(trace, 0, lam)
    want = lam * trace[0].utilities[0] + lam * (1 - lam) * trace[1].utilities[0]
    np.testing.assert_allclose(avg.value, want, rtol=1e-15)
    np.testing.assert_allclose(
        avg.tail_bound,
        0.25 * max(trace[0].utilities[0], trace[1].utilities[0]), rtol=1e-15)
    with pytest.raises(ValueError):
        averaged_utility_drg(trace, 0, 1.5)


def test_discounted_average_of_a_constant_is_the_constant():
    model, cfg, sinrs = _equal_bounds_scenario()
    plan = DrgPlan(0.5)
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    stages = 60
    trace = run_game(model, cfg, [ChannelState((1.0, 1.0))] * stages, strategy)
    u0 = trace[0].utilities[0]
    avg = averaged_utility_drg(trace, 0, plan.lam)
    np.testing.assert_allclose(avg.value + avg.tail_bound, u0, rtol=1e-15)


def test_history_exposes_only_public_quantities():
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup()
    trace = run_game(model, cfg, channels, strategy)
    hist = history_at(trace, player=1, upto=5)
    assert hist.omegas == tuple(r.omega for r in trace[:5])
    assert hist.own_powers == tuple(r.powers[1] for r in trace[:5])


def test_trace_csv_layout(tmp_path):
    model, cfg, sinrs, plan, strategy, channels = _conforming_setup(t_total=3,
                                                                    t0=1)
    trace = run_game(model, cfg, channels, strategy)
    path = tmp_path / "trace.csv"
    trace_to_csv(path, trace)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "player", "gain2", "power", "sinr", "utility",
                       "omega", "phase", "deviated"]
    assert len(rows) == 1 + 3 * cfg.k
    assert rows[1][:2] == ["1", "1"] and rows[2][:2] == ["1", "2"]
    assert float(rows[1][3]) == trace[0].powers[0]


def test_engine_totals_match_the_closed_form_stage_welfare():
    # per-draw network utility from the engine equals the vectorised route
    # used by the horizon study: f(x)/a(x) times the stage gain total
    model = PacketSuccess(2)
    k, n, t_total, t0 = 3, 4, 12, 4
    sinrs = solve_all(model, k, n)
    cfg = NetworkConfig.uniform(k=k, n=n, sigma2=1e-2, rate=1.0, p_max=1e3,
                                eta_min=0.5, eta_max=2.0)
    proc = ChannelProcess(mode="per_stage", mean_gain2=(1.0,) * k,
                          eta_min=(0.5,) * k, eta_max=(2.0,) * k, seed=17)
    gains = draw_block(proc, t_total, substream=0)
    channels = [ChannelState(tuple(row)) for row in gains]

    plan = FrgPlan(t_total=t_total, t0=t0)
    coop = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    base = make_machines(cfg, model, FrgPlan(t_total, t_total), sinrs.beta_star,
                         sinrs.gamma_tilde)
    trace = run_game(model, cfg, channels, coop)
    trace_ne = run_game(model, cfg, channels, base)

    rate_ne = model.value(sinrs.beta_star) / ne_action(cfg, sinrs.beta_star)
    rate_coop = model.value(sinrs.gamma_tilde) / _equal_action(cfg, sinrs.gamma_tilde)
    totals = gains.sum(axis=1)
    window = t_total - t0
    for t in range(t_total):
        want = (rate_coop if t < window else rate_ne) * totals[t]
        np.testing.assert_allclose(sum(trace[t].utilities), want, rtol=1e-11)
        np.testing.assert_allclose(sum(trace_ne[t].utilities),
                                   rate_ne * totals[t], rtol=1e-11)
    ratio_engine = (sum(sum(r.utilities) for r in trace)
                    / sum(sum(r.utilities) for r in trace_ne))
    w = np.concatenate([[0.0], np.cumsum(totals)])
    ratio_formula = ((rate_coop * w[window] + rate_ne * (w[-1] - w[window]))
                     / (rate_ne * w[-1]))
    np.testing.assert_allclose(ratio_engine, ratio_formula, rtol=1e-11)


def _enforceable_game(rng):
    """A random network with a finite t0_bound of at most 50 and lambda_max > 0."""
    k = int(rng.integers(2, 5))
    model = PacketSuccess(int(rng.integers(2, 12)))
    beta = solve_all(model, 1, 1).beta_star
    n = int(math.ceil((k - 1) * beta / rng.uniform(0.2, 0.8)))
    sinrs = solve_all(model, k, n)
    eta_min = tuple(10.0 ** rng.uniform(-1.0, 0.5, k))
    eta_max = tuple(lo * rng.uniform(1.0, 1.3) for lo in eta_min)
    sigma2 = float(10.0 ** rng.uniform(-3, 0))
    # the smallest caps make_machines accepts, scaled up by 2 to 10^4
    need = sigma2 * sinrs.beta_star / (n - (k - 1) * sinrs.beta_star)
    p_max = tuple(need / lo * 10.0 ** rng.uniform(0.3, 4.0) for lo in eta_min)
    cfg = NetworkConfig(k=k, n=n, sigma2=sigma2, rates=tuple(rng.uniform(0.5, 2.0, k)),
                        p_max=p_max, eta_min=eta_min, eta_max=eta_max)
    bounds = rg_bounds(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
    return model, cfg, sinrs, bounds


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), drg=st.booleans())
def test_conforming_play_stays_under_the_caps_and_on_target(seed, drg):
    rng = np.random.default_rng(seed)
    try:
        model, cfg, sinrs, bounds = _enforceable_game(rng)
    except NoFiniteT0Error:
        assume(False)
    assume(bounds.t0 <= 50 and bounds.lambda_max > 0.0)
    if drg:
        plan, stages = DrgPlan(0.9 * bounds.lambda_max), 20
    else:
        plan = FrgPlan(t_total=bounds.t0 + 5, t0=bounds.t0)
        stages = plan.t_total
    gains2 = rng.uniform(cfg.eta_min, cfg.eta_max, size=(stages, cfg.k))
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    trace = run_game(model, cfg, [ChannelState(tuple(g)) for g in gains2],
                     strategy, beta_star=sinrs.beta_star)
    for rec in trace:
        assert not rec.deviation_detected
        assert all(p <= cap for p, cap in zip(rec.powers, cfg.p_max))
        ch, prof = ChannelState(rec.gains2), PowerProfile(rec.powers)
        assert rec.omega == public_signal(cfg, ch, prof)
        if rec.phases[0] == "cooperate":
            np.testing.assert_allclose(rec.sinrs, sinrs.gamma_tilde, rtol=1e-12)


def _guarantee_game(rng):
    """A random enforceable network with t0_bound <= 50 and lambda_max >= 0.02.

    High load, little gain spread and caps well above the equilibrium power
    keep both bounds away from their degenerate ends; a fixed number of
    tries keeps the search bounded.
    """
    for _ in range(100):
        k = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            model = PacketSuccess(int(rng.integers(2, 5)))
        else:
            model = InfoTheoretic(float(rng.uniform(0.3, 2.0)))
        beta = solve_all(model, 1, 1).beta_star
        n = int(math.ceil((k - 1) * beta / rng.uniform(0.6, 0.95)))
        sinrs = solve_all(model, k, n)
        eta_min = 10.0 ** rng.uniform(-1.0, 0.5, k)
        sigma2 = float(10.0 ** rng.uniform(-3, 0))
        need = sigma2 * sinrs.beta_star / (n - (k - 1) * sinrs.beta_star)
        cfg = NetworkConfig(k=k, n=n, sigma2=sigma2, rates=tuple(rng.uniform(0.5, 2.0, k)),
                            p_max=tuple(need / eta_min * 10.0 ** rng.uniform(0.5, 4.0, k)),
                            eta_min=tuple(eta_min),
                            eta_max=tuple(eta_min * rng.uniform(1.0, 1.3, k)))
        try:
            bounds = rg_bounds(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
        except NoFiniteT0Error:
            continue
        if bounds.t0 <= 50 and bounds.lambda_max >= 0.02:
            return model, cfg, sinrs, bounds
    raise AssertionError("no enforceable network in 100 tries")


def _guarantee_channels(rng, cfg, stages, fading):
    """A constant gain draw, or a per-stage fading path, inside [eta_min, eta_max]."""
    if not fading:
        return [ChannelState(tuple(rng.uniform(cfg.eta_min, cfg.eta_max)))] * stages
    process = ChannelProcess(mode="per_stage", mean_gain2=cfg.eta_min, eta_min=cfg.eta_min,
                             eta_max=cfg.eta_max, seed=int(rng.integers(2**63)))
    return draw_sequence(process, stages)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), drg=st.booleans(), fading=st.booleans(),
       late=st.integers(6, 10**6))
def test_no_one_stage_deviation_pays_at_the_bounds(seed, drg, fading, late):
    rng = np.random.default_rng(seed)
    model, cfg, sinrs, bounds = _guarantee_game(rng)
    exact = t0_bound_exact_deviation(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
    assert exact <= bounds.t0
    if drg:
        lam = 0.9 * bounds.lambda_max
        plan, stages = DrgPlan(lam), drg_truncation_horizon(lam, tail=1e-10)
        # every stage cooperates: the first five and one later stage
        deviation_stages = [1, 2, 3, 4, 5, late % (stages // 2) + 1]
    else:
        plan = FrgPlan(t_total=bounds.t0 + 5, t0=bounds.t0)
        stages = plan.t_total
        deviation_stages = range(1, 6)  # every cooperating stage
    channels = _guarantee_channels(rng, cfg, stages, fading)
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    conform = run_game(model, cfg, channels, strategy, beta_star=sinrs.beta_star)
    for i in range(cfg.k):
        for s in deviation_stages:
            scen = DeviationScenario(player=i, stage=s, power="best_response",
                                     best_response_after=True)
            trace = run_game(model, cfg, channels, strategy, scen,
                             beta_star=sinrs.beta_star)
            assert trace[s - 1].deviation_detected
            if drg:  # the continuation from stage s, both tails counted against it
                base = averaged_utility_drg(conform[s - 1:], i, lam)
                dev = averaged_utility_drg(trace[s - 1:], i, lam)
                gain, scale = dev.value - (base.value + base.tail_bound
                                           + dev.tail_bound), base.value
            else:
                scale = averaged_utility_frg(conform, i)
                gain = averaged_utility_frg(trace, i) - scale
            assert gain <= 1e-9 * max(1.0, abs(scale)), (i, s, gain)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_endgame_holds_on_adversarial_paths(seed):
    # the worst path for the exact variant: every gain at eta_min, except the
    # deviator's at eta_max on its deviation stage
    rng = np.random.default_rng(seed)
    model, cfg, sinrs, _ = _guarantee_game(rng)
    t0 = t0_bound_exact_deviation(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
    plan = FrgPlan(t_total=t0 + 5, t0=t0)
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    for i in range(cfg.k):
        for s in range(1, 6):  # every cooperating stage
            gains2 = np.tile(cfg.eta_min, (plan.t_total, 1))
            gains2[s - 1, i] = cfg.eta_max[i]
            channels = [ChannelState(tuple(g)) for g in gains2]
            scen = DeviationScenario(player=i, stage=s, power="best_response",
                                     best_response_after=True)
            scale = averaged_utility_frg(run_game(model, cfg, channels, strategy,
                                                  beta_star=sinrs.beta_star), i)
            gain = averaged_utility_frg(run_game(model, cfg, channels, strategy, scen,
                                                 beta_star=sinrs.beta_star), i) - scale
            assert gain <= 1e-9 * max(1.0, abs(scale)), (i, s, gain)
