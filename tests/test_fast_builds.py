"""The engine's bulk builds make what the constructors make.

A ``Trace`` builds its records from its columns, which must give records equal,
field for field and by hash, to the ones ``StageRecord(...)`` builds from their
own values; ``draw_sequence`` checks a drawn block once, and a bad drawn gain
must fail with ``ChannelState``'s message.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powergame.channel as channel
from powergame.channel import ChannelMode, ChannelProcess, draw_sequence
from powergame.efficiency import PacketSuccess, solve_all
from powergame.repeated import (
    DeviationScenario,
    DrgPlan,
    FrgPlan,
    StageRecord,
    make_machines,
    run_game,
)
from powergame.static_game import ChannelState, NetworkConfig


def _game(rng, mode, k=None):
    """A random enforceable-looking network, its strategy and drawn channels."""
    k = int(rng.integers(2, 5)) if k is None else k
    model = PacketSuccess(int(rng.integers(2, 12)))
    beta = solve_all(model, 1, 1).beta_star
    n = int(math.ceil((k - 1) * beta / rng.uniform(0.2, 0.8)))
    sinrs = solve_all(model, k, n)
    eta_min = 10.0 ** rng.uniform(-1.0, 0.5)
    eta_max = eta_min * rng.uniform(1.0, 3.0)
    need = 1e-3 * sinrs.beta_star / (n - (k - 1) * sinrs.beta_star) / eta_min
    cfg = NetworkConfig.uniform(k, n, 1e-3, 1.0, need * 10.0, eta_min, eta_max)
    stages = int(rng.integers(1, 40))
    plan = (FrgPlan(stages, int(rng.integers(0, stages + 1))) if rng.random() < 0.5
            else DrgPlan(0.1))
    strategy = make_machines(cfg, model, plan, sinrs.beta_star, sinrs.gamma_tilde)
    process = ChannelProcess.from_config(cfg, mode, mean_gain2=eta_min,
                                         seed=int(rng.integers(0, 2**32)))
    return model, cfg, sinrs, strategy, draw_sequence(process, stages)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(ChannelMode)),
       power=st.sampled_from(["max", "best_response", 0.0]), after=st.booleans())
def test_fast_builds_equal_the_constructors(seed, mode, power, after):
    rng = np.random.default_rng(seed)
    model, cfg, sinrs, strategy, channels = _game(rng, mode)
    scenario = DeviationScenario(int(rng.integers(0, cfg.k)),
                                 int(rng.integers(1, len(channels) + 1)), power, after)
    for script in (None, scenario):
        for record in run_game(model, cfg, channels, strategy, script, sinrs.beta_star):
            rebuilt = StageRecord(**{f.name: getattr(record, f.name)
                                     for f in dataclasses.fields(StageRecord)})
            assert record == rebuilt and hash(record) == hash(rebuilt)
            assert vars(record) == vars(rebuilt)
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.omega = 0.0


@pytest.mark.parametrize("mode", list(ChannelMode))
@pytest.mark.parametrize("bad", [math.nan, 0.0, math.inf, -0.0])
def test_a_bad_drawn_gain_raises_the_constructor_error(monkeypatch, mode, bad):
    # (k, stages) engine block: the first bad gain in stage order is at stage 2,
    # player 2; a later stage holds another bad gain in player 1
    block = np.ones((2, 3))
    block[1, 1] = bad
    block[0, 2] = -1.0
    if mode is ChannelMode.CONSTANT:
        block = block[:, 1:2]
    monkeypatch.setattr(channel, "_engine_gains", lambda process, stages: block)
    with pytest.raises(ValueError) as expected:
        ChannelState((1.0, bad))
    process = ChannelProcess(mode=mode, mean_gain2=(1.0, 1.0), eta_min=(0.5, 0.5),
                             eta_max=(2.0, 2.0), seed=1)
    with pytest.raises(ValueError) as got:
        draw_sequence(process, 3)
    assert str(got.value) == str(expected.value)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(ChannelMode)),
       k=st.integers(2, 10), data=st.data())
def test_traces_act_as_their_lists(seed, mode, k, data):
    rng = np.random.default_rng(seed)
    model, cfg, sinrs, strategy, path = _game(rng, mode, k)
    script = DeviationScenario(int(rng.integers(0, k)), int(rng.integers(1, len(path) + 1)),
                               "max")
    trace = run_game(model, cfg, path, strategy, script)
    records = list(trace)
    # the block played as it is and the states stacked anew give the same game
    stacked = run_game(model, cfg, [ChannelState(row) for row in path.gains2.tolist()],
                       strategy, script)
    assert [repr(r) for r in stacked] == [repr(r) for r in records]
    assert list(stacked) == records
    assert [r.t for r in records] == list(range(1, len(path) + 1))
    n = len(records)
    assert len(trace) == n and records == list(trace)
    assert trace == trace and trace != records and trace != stacked  # == is identity
    for i in range(-n, n):
        assert trace[i] == records[i]
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[past]
    part = data.draw(st.slices(n))
    assert type(trace[part]) is type(trace) and list(trace[part]) == records[part]
    part = data.draw(st.slices(len(trace)))
    assert trace[part].t.tolist() == [r.t for r in records[part]]
    # the columns refuse writes, and so does the view
    for column in (path.gains2, trace.t, trace.gains2, trace.powers, trace.sinrs,
                   trace.utilities, trace.omega, trace.deviation_detected):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[-1]
    with pytest.raises(TypeError):
        trace.phases[0] = trace.phases[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.powers = trace.sinrs
    # the records are built once; replacing one, as in a list, rebuilds the columns
    assert all(a is b for a, b in zip(trace, trace)) and trace[-1] is records[-1]
    flipped = dataclasses.replace(records[0], omega=-1.0, deviation_detected=True)
    trace[0] = flipped
    assert trace[0] is flipped and list(trace) == [flipped, *records[1:]]
    assert trace.omega[0] == -1.0 and trace.deviation_detected[0] and list(trace[:1]) == [flipped]
    assert list(trace[1:]) == records[1:] and trace.powers.shape == (len(records), k)
    with pytest.raises(ValueError, match="read-only"):
        trace.omega[0] = trace.omega[-1]
