"""How many kernel passes ``run_game`` takes to find the detected stage t*.

Each pass guesses t*, plays every stage in one ``_stage_payoffs`` call and
confirms the guess from that call's public signal.  The first guess is the
script's first cooperating stage, so a game takes one pass when that stage
is seen (or there is no script), two when it is unseen and nothing later is,
and three when a later stage is seen.  Every game is also compared by
``repr`` with the per-stage reference engine.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine_reference import (
    _equal_bounds_game,
    _network,
    _outcome,
    _script,
    reference_run_game,
)

from powergame import repeated
from powergame.repeated import DeviationScenario, DrgPlan, FrgPlan, make_machines, run_game
from powergame.static_game import ChannelState


def _counted(*args):
    """run_game's outcome next to the reference's, and its kernel calls."""
    calls = []
    kernel = repeated._stage_payoffs

    def counting(*a):
        calls.append(None)
        return kernel(*a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repeated, "_stage_payoffs", counting)
        outcome = _outcome(run_game, *args)
    assert outcome == _outcome(reference_run_game, *args)
    return outcome, len(calls)


def _detected(outcome) -> int:
    """t* of a played game, 0 when no stage is seen."""
    flags = ["deviation_detected=True" in record for record in outcome[1]]
    return flags.index(True) + 1 if True in flags else 0


@pytest.mark.parametrize("plan", [FrgPlan(8, 3), DrgPlan(0.2)])
@pytest.mark.parametrize("power, after, t_star, passes", [
    (None, False, 0, 1),                # conforming play
    (5.0, False, 2, 1),                 # seen at its own stage
    ("best_response", True, 2, 1),      # seen at its own stage, then continued
    ("prescribed", False, 0, 2),        # unseen, and nothing after it
    ("prescribed", True, 3, 3),         # unseen, its continuation seen a stage later
])
def test_kernel_passes_per_game(plan, power, after, t_star, passes):
    # unit gains at unit bounds: coop_action / 1.0 is the prescription's float
    model, cfg, sinrs, strategy, channels = _equal_bounds_game(plan, [(1.0, 1.0)] * 8)
    if power == "prescribed":
        power = strategy.coop_action / channels[1].gains2[0]
    scenario = None if power is None else DeviationScenario(0, 2, power, after)
    outcome, calls = _counted(model, cfg, channels, strategy, scenario, sinrs.beta_star)
    assert outcome[0] == "trace"
    assert (_detected(outcome), calls) == (t_star, passes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), drg=st.booleans(),
       script=st.sampled_from([None, "max", "watt", "coop_watt", "best_response",
                               "prescribed"]),
       after=st.booleans(), has_beta=st.booleans())
def test_one_kernel_pass_when_the_guess_holds(seed, k, drg, script, after, has_beta):
    rng = np.random.default_rng(seed)
    model, cfg, sinrs = _network(rng, k)
    if drg:
        plan = DrgPlan(float(rng.uniform(0.01, 0.99)))
        stages = int(rng.integers(1, 41))
    else:
        plan = FrgPlan(t_total=int(rng.integers(1, 41)), t0=int(rng.integers(0, 6)))
        stages = int(rng.integers(1, plan.t_total + 1))
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    gains = rng.uniform(cfg.eta_min, cfg.eta_max, size=(stages, k))
    channels = [ChannelState(tuple(row)) for row in gains.tolist()]
    scenario = None
    if script == "prescribed":  # the cooperative prescription itself: unseen
        scenario = _script(rng, cfg, strategy, channels, "max", after)
        scenario = dataclasses.replace(
            scenario, power=strategy.coop_action / gains[scenario.stage - 1, scenario.player])
    elif script is not None:
        scenario = _script(rng, cfg, strategy, channels, script, after)
    beta_star = sinrs.beta_star if has_beta else None
    outcome, calls = _counted(model, cfg, channels, strategy, scenario, beta_star)
    assert 1 <= calls <= 3
    if scenario is None or outcome[0] == "trace" and _detected(outcome) == scenario.stage:
        assert calls == 1
