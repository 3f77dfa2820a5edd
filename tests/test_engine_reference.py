"""The batched engine against the per-stage loop it replaced, bit for bit.

``reference_run_game`` is the stage-by-stage engine as it stood before
``run_game`` became two batched passes, kept verbatim with the scalar best
response it called.  Every ``StageRecord`` field must match by ``repr`` (so
by bits, signed zeros included), and every refused run must raise the same
exception type with the same message.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergame.channel import ChannelMode, ChannelProcess, draw_sequence
from powergame.efficiency import InfoTheoretic, PacketSuccess, solve_all, solve_beta_star
from powergame.errors import SaturatedRegimeError
from powergame.repeated import (
    DeviationScenario,
    DrgPlan,
    FrgPlan,
    Phase,
    StageRecord,
    _best_responses,
    make_machines,
    run_game,
)
from powergame.static_game import ChannelState, NetworkConfig, _equal_action, _stage_payoffs


class BestDeviation(NamedTuple):
    power: float
    utility: float
    saturated: bool


def reference_best_deviation(model, cfg, ch, others, player, beta_star):
    p_other = np.asarray(getattr(others, "p", others), dtype=float)
    g2 = np.asarray(ch.gains2)
    interference = float((p_other * g2).sum() - p_other[player] * g2[player]
                         + cfg.sigma2)
    p_star = beta_star * interference / (cfg.n * g2[player])
    if p_star > cfg.p_max[player]:
        cap = cfg.p_max[player]
        x = cfg.n * cap * g2[player] / interference
        return BestDeviation(cap, cfg.rates[player] * model.value(x) / cap, True)
    return BestDeviation(
        p_star, cfg.rates[player] * model.value(beta_star) / p_star, False)


def _resolve_override(scenario, t, powers, model, cfg, g2, beta_star):
    is_stage = t == scenario.stage
    if not is_stage and not (scenario.best_response_after and t > scenario.stage):
        return None
    request = scenario.power if is_stage else "best_response"
    if request == "max":
        return cfg.p_max[scenario.player]
    if request == "best_response":
        if beta_star is None:
            raise ValueError("best_response scripts need beta_star")
        ch = ChannelState(tuple(g2))
        return reference_best_deviation(model, cfg, ch, powers, scenario.player,
                                        beta_star).power
    value = float(request)
    if not 0.0 <= value <= cfg.p_max[scenario.player]:
        raise ValueError(f"scripted power {value} outside [0, {cfg.p_max[scenario.player]}]")
    return value


def reference_run_game(model, cfg, channels, strategy, scenario=None, beta_star=None):
    plan = strategy.plan
    if isinstance(plan, FrgPlan) and len(channels) > plan.t_total:
        raise ValueError(
            f"stage {plan.t_total + 1} beyond the {plan.t_total}-stage horizon")
    if scenario is not None:
        if not 0 <= scenario.player < cfg.k:
            raise ValueError(f"scenario player {scenario.player} out of range")
        if not 1 <= scenario.stage <= len(channels):
            raise ValueError(f"scenario stage {scenario.stage} outside the horizon")

    caps = np.asarray(strategy.caps)  # was the strategy's cached _caps array
    punish_from = None
    records = []
    for t, state in enumerate(channels, start=1):
        g2 = np.asarray(state.gains2)
        phase = strategy.phases(t, punish_from)[-1]
        powers = strategy.powers(phase, g2)
        over = powers > caps
        if over.any():
            i = int(np.argmax(over))
            raise SaturatedRegimeError(
                f"stage {t}: strategy prescribes {powers[i]} W to player "
                f"{i + 1}, above its cap {caps[i]} W")
        if scenario is not None:
            forced = _resolve_override(scenario, t, powers, model, cfg, g2, beta_star)
            if forced is not None:
                powers[scenario.player] = forced
        sinrs, utils, omega = _stage_payoffs(model, cfg, g2, powers)
        omega = float(omega)
        detected = phase is Phase.COOPERATE and strategy.deviation_seen(omega)
        if detected:
            punish_from = t + 1
        records.append(StageRecord(
            t=t, gains2=tuple(map(float, g2)), powers=tuple(map(float, powers)),
            sinrs=tuple(map(float, sinrs)), utilities=tuple(map(float, utils)),
            omega=omega, phases=(phase.value,) * cfg.k,
            deviation_detected=detected))
    return records


def _outcome(engine, *args):
    try:
        return "trace", [repr(record) for record in engine(*args)]
    except (ValueError, SaturatedRegimeError) as exc:
        return "error", type(exc), str(exc)


def _network(rng, k):
    """A random network whose trigger strategy make_machines accepts."""
    if rng.random() < 0.5:
        model = PacketSuccess(int(rng.integers(2, 13)))
    else:
        model = InfoTheoretic(float(rng.uniform(0.3, 3.0)))
    beta = solve_beta_star(model)
    n = int(math.ceil((k - 1) * beta / rng.uniform(0.2, 0.9)))
    sinrs = solve_all(model, k, n)
    sigma2 = float(10.0 ** rng.uniform(-3.0, 0.0))
    eta_min = 10.0 ** rng.uniform(-1.0, 0.5, k)
    eta_max = eta_min * rng.uniform(1.0, 2.0, k)
    need = max(sigma2 * x / (n - (k - 1) * x) for x in (sinrs.beta_star, sinrs.gamma_tilde))
    cfg = NetworkConfig(k=k, n=n, sigma2=sigma2, rates=tuple(rng.uniform(0.5, 2.0, k)),
                        p_max=tuple(need / eta_min * 10.0 ** rng.uniform(0.05, 2.0, k)),
                        eta_min=tuple(eta_min), eta_max=tuple(eta_max))
    return model, cfg, sinrs


def _script(rng, cfg, strategy, channels, kind, after):
    player = int(rng.integers(cfg.k))
    stage = int(rng.integers(1, len(channels) + 1))
    if kind == "watt":
        cap = cfg.p_max[player]
        power = float(rng.choice([rng.uniform(0.0, cap), 0.0, cap, 1.5 * cap, -0.1]))
    elif kind == "coop_watt":  # the cooperative prescription at the drawn gain: invisible
        power = strategy.coop_action / channels[stage - 1].gains2[player]
    else:
        power = kind
    return DeviationScenario(player=player, stage=stage, power=power, best_response_after=after)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5),
       plan_kind=st.sampled_from(["frg", "frg_all_endgame", "drg"]),
       channel=st.sampled_from(["constant", "per_stage", "explicit"]),
       script=st.sampled_from([None, "max", "watt", "coop_watt", "best_response"]),
       after=st.booleans(), low_gain=st.booleans(), has_beta=st.integers(0, 6))
def test_batched_engine_is_the_per_stage_engine(seed, k, plan_kind, channel, script,
                                                after, low_gain, has_beta):
    rng = np.random.default_rng(seed)
    model, cfg, sinrs = _network(rng, k)
    if plan_kind == "drg":
        plan = DrgPlan(float(rng.uniform(0.01, 0.99)))
        stages = int(rng.integers(1, 61))
    else:
        t_total = int(rng.integers(1, 41))
        t0 = int(rng.integers(0, t_total + 1))
        if plan_kind == "frg_all_endgame":
            t0 = int(rng.integers(t_total, t_total + 4))
        plan = FrgPlan(t_total=t_total, t0=t0)
        stages = int(rng.integers(1, t_total + 1))
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)

    if channel == "explicit":
        gains = rng.uniform(cfg.eta_min, cfg.eta_max, size=(stages, k))
    else:
        mode = ChannelMode.CONSTANT if channel == "constant" else ChannelMode.PER_STAGE
        process = ChannelProcess(mode=mode, mean_gain2=cfg.eta_min, eta_min=cfg.eta_min,
                                 eta_max=cfg.eta_max, seed=int(rng.integers(2**63)))
        gains = np.array(draw_sequence(process, stages).gains2)
    if low_gain:  # below eta_min, where a prescription can exceed its cap
        rows = slice(None) if channel == "constant" else int(rng.integers(stages))
        gains[rows, int(rng.integers(k))] *= 10.0 ** rng.uniform(-4.0, -0.5)
    channels = [ChannelState(tuple(row)) for row in gains.tolist()]

    scenario = None if script is None else _script(rng, cfg, strategy, channels, script, after)
    beta_star = sinrs.beta_star if has_beta else None
    args = (model, cfg, channels, strategy, scenario, beta_star)
    assert _outcome(run_game, *args) == _outcome(reference_run_game, *args)


def test_best_deviation_is_the_scalar_best_response():
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        model, cfg, sinrs = _network(rng, k)
        ch = ChannelState(tuple(rng.uniform(cfg.eta_min, cfg.eta_max)))
        others = rng.uniform(0.0, 1.0, k) * np.asarray(cfg.p_max) * rng.choice([0.01, 1.0])
        i = int(rng.integers(k))
        power, interference, saturated = _best_responses(
            cfg, np.asarray(ch.gains2), others, i, sinrs.beta_star)
        power, saturated = float(power), bool(saturated)
        x = (cfg.n * power * ch.gains2[i] / float(interference) if saturated
             else sinrs.beta_star)
        got = BestDeviation(power, cfg.rates[i] * model.value(x) / power, saturated)
        want = reference_best_deviation(model, cfg, ch, others, i, sinrs.beta_star)
        assert (got.power, got.utility, got.saturated) == \
            (want.power, want.utility, want.saturated)


def _equal_bounds_game(plan, gains):
    """Two alike players at unit gain bounds, cap 10 W: cooperating costs
    0.5 W and one-shot play 1 W of received power."""
    model = InfoTheoretic.from_c(0.5)
    cfg = NetworkConfig.uniform(k=2, n=1, sigma2=1.0, rate=1.0, p_max=10.0,
                                eta_min=1.0, eta_max=1.0)
    sinrs = solve_all(model, 2, 1)
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    return model, cfg, sinrs, strategy, [ChannelState(g) for g in gains]


@pytest.mark.parametrize("power", [99.0, -0.1, "lots", "best_response"])
@pytest.mark.parametrize("low_stage, first", [(3, SaturatedRegimeError),
                                              (4, SaturatedRegimeError),
                                              (5, ValueError)])
def test_bad_request_and_over_cap_gain_raise_in_stage_order(power, low_stage, first):
    # the request at stage 4 is bad (no beta_star for a best response); a 0.01
    # gain needs 50 W of the 10 W cap, and a stage's cap check precedes its request
    gains = [(1.0, 1.0)] * 8
    gains[low_stage - 1] = (1.0, 0.01)
    model, cfg, _, strategy, channels = _equal_bounds_game(FrgPlan(8, 3), gains)
    args = (model, cfg, channels, strategy, DeviationScenario(0, 4, power), None)
    outcome = _outcome(run_game, *args)
    assert outcome == _outcome(reference_run_game, *args)
    assert outcome[:2] == ("error", first)
    if first is SaturatedRegimeError:
        assert outcome[2].startswith(f"stage {low_stage}:")


@pytest.mark.parametrize("visible", [True, False])
def test_continuation_without_beta_star_fails_a_stage_later(visible):
    # the 0.07 gain at stage 5 needs 0.5/0.07 W cooperating but 1/0.07 W
    # punished, so only a detected stage-4 deviation saturates stage 5 first
    gains = [(1.0, 1.0)] * 8
    gains[4] = (1.0, 0.07)
    model, cfg, sinrs, strategy, channels = _equal_bounds_game(DrgPlan(0.2), gains)
    power = 5.0 if visible else _equal_action(cfg, sinrs.gamma_tilde)  # / unit gain
    scenario = DeviationScenario(0, 4, power, best_response_after=True)
    args = (model, cfg, channels, strategy, scenario, None)
    outcome = _outcome(run_game, *args)
    assert outcome == _outcome(reference_run_game, *args)
    if visible:
        assert outcome[:2] == ("error", SaturatedRegimeError)
        assert outcome[2].startswith("stage 5:")
    else:
        assert outcome == ("error", ValueError, "best_response scripts need beta_star")
