"""Bounded-gain fading processes: determinism, truncation, distribution."""

import cProfile
import dataclasses
import math
import pstats
import re
import subprocess
import sys
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from powergame import channel
from powergame.channel import (
    MIN_ACCEPTANCE,
    ChannelMode,
    ChannelProcess,
    GainPath,
    _engine_gains,
    _laws,
    _stream,
    _truncated_exponential,
    acceptance_probability,
    draw_block,
    draw_sequence,
    dynamics_db,
)
from powergame.errors import ChannelConfigError
from powergame.static_game import ChannelState, NetworkConfig


def _process(k=2, mode="per_stage", mean=1.0, lo=0.1, hi=10.0, seed=7):
    return ChannelProcess(mode=mode, mean_gain2=(mean,) * k,
                          eta_min=(lo,) * k, eta_max=(hi,) * k, seed=seed)


def _states(path):
    """A drawn path's stages as ``ChannelState``s, one per row of its block."""
    return [ChannelState(row) for row in path.gains2.tolist()]


def _stage(process, t):
    """Stage t's state: the last row of a t-stage path."""
    return _states(draw_sequence(process, t))[-1]


def test_draws_stay_inside_bounds():
    proc = _process(k=3, lo=0.4, hi=2.5)
    for state in _states(draw_sequence(proc, 200)):
        assert all(0.4 <= g <= 2.5 for g in state.gains2)


def test_same_seed_replays_identically():
    a = _states(draw_sequence(_process(seed=42), 50))
    b = _states(draw_sequence(_process(seed=42), 50))
    assert a == b
    c = _states(draw_sequence(_process(seed=43), 50))
    assert a != c


def test_per_stage_mode_varies_constant_mode_freezes():
    frozen = _process(mode="constant")
    assert _stage(frozen, 5).gains2 == _stage(frozen, 1).gains2
    moving = _process(mode="per_stage")
    assert _stage(moving, 5).gains2 != _stage(moving, 1).gains2


def test_stage_index_validation():
    # a count of stages is an int >= 0, checked before anything is drawn
    proc = _process()
    for bad in (-1, -2, 2.5, 3.0, True, np.float64(3.0), "3", None):
        want = f"stages must be an integer in [0, inf), got {bad!r}"
        for draw in (draw_sequence, draw_block):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                draw(proc, bad)
    assert len(draw_sequence(proc, np.int64(3))) == 3
    assert len(draw_sequence(proc, 0)) == 0 and draw_block(proc, 0).shape == (0, 2)


def test_substreams_are_checked_before_drawing():
    # below 0 a substream's key would be a player's engine key (-2**32: player 0's)
    proc = _process(k=1)
    for bad in (-1, -2**32, 1.5, 1.0, True, False, 2**64 - 2**32, 2**64, "1"):
        want = f"substream must be an integer in [0, {2**64 - 2**32}), got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            draw_block(proc, 5, substream=bad)
    last = draw_block(proc, 5, substream=np.uint64(2**64 - 2**32 - 1))
    assert last.tobytes() == draw_block(proc, 5, substream=2**64 - 2**32 - 1).tobytes()


def test_a_path_is_one_checked_block_not_a_list():
    proc = _process(k=3, seed=19)
    path = draw_sequence(proc, 6)
    assert type(path) is GainPath and len(path) == 6 and path.gains2.shape == (6, 3)
    with pytest.raises(TypeError):
        iter(path)
    with pytest.raises(TypeError):
        path[0]
    assert path == path and path != GainPath(np.array(path.gains2))  # by identity
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.gains2 = np.ones((6, 3))
    # built by hand, a path is checked too
    block = np.ones((3, 2))
    block[1, 1], block[2, 0] = -1.0, math.nan
    with pytest.raises(ValueError, match="^squared gain -1.0 must be positive and finite$"):
        GainPath(block)
    assert block.flags.writeable


def test_seeds_above_two_to_the_63_keep_their_own_streams():
    # neighbouring seeds must not collapse onto one Philox key
    a, b = _process(seed=2**63 + 1), _process(seed=2**63 + 2)
    assert _stage(a, 1).gains2 != _stage(b, 1).gains2
    assert not np.array_equal(draw_block(a, 8), draw_block(b, 8))
    assert _stage(_process(seed=2**64 - 1), 1).gains2 != _stage(a, 1).gains2


def test_player_streams_do_not_depend_on_network_size():
    # adding players must not disturb the gains of the existing ones
    small = _process(k=2, seed=9)
    large = _process(k=4, seed=9)
    for t in (1, 2, 7):
        assert _stage(large, t).gains2[:2] == _stage(small, t).gains2


@pytest.mark.parametrize("mode", ["per_stage", "constant"])
def test_engine_draws_are_addressable_by_stage(mode):
    # stage t is output t-1 of the player's stream, however many stages follow
    proc = ChannelProcess(mode=mode, mean_gain2=(1.0, 0.12, 3.0),
                          eta_min=(0.1, 1.0, 2.0), eta_max=(10.0, 1.4, 2.0),
                          seed=2**63 + 5)
    seq = draw_sequence(proc, 23).gains2
    assert seq.shape == (23, 3)
    for t in range(1, 24):
        assert draw_sequence(proc, t).gains2.tobytes() == seq[:t].tobytes()


@pytest.mark.parametrize("mode", ["per_stage", "constant"])
@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_engine_rows_are_the_per_player_streams(mode, seed):
    # one re-keyed generator serves every player: row i is _stream(seed, i)'s output
    proc = ChannelProcess(mode=mode, mean_gain2=(1.0, 0.5, 3.0), eta_min=(0.1, 0.2, 0.3),
                          eta_max=(10.0, 5.0, 20.0), seed=seed)
    gains = _engine_gains(proc, 40)
    assert gains.shape == (3, 1 if mode == "constant" else 40)
    for i, (row, law) in enumerate(zip(gains, _laws(proc))):
        want = _truncated_exponential(_stream(seed, i).random(gains.shape[1]), *law)
        assert row.tobytes() == want.tobytes()


def test_block_columns_do_not_depend_on_network_size():
    small = draw_block(_process(k=2, seed=9), 300, substream=4)
    large = draw_block(_process(k=4, seed=9), 300, substream=4)
    np.testing.assert_array_equal(large[:, :2], small)
    # column i is outputs [i*stages, (i+1)*stages) of the substream, whatever
    # the laws of the columns before it
    other = ChannelProcess(mode="per_stage", mean_gain2=(5.0, 1.0, 1.0, 1.0),
                           eta_min=(2.0, 0.1, 0.1, 0.1),
                           eta_max=(3.0, 10.0, 10.0, 10.0), seed=9)
    np.testing.assert_array_equal(draw_block(other, 300, substream=4)[:, 1:],
                                  large[:, 1:])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_mean=st.floats(-3.0, 3.0),
       # near zero, around the MIN_ACCEPTANCE floor (-log(1e-6) = 13.8) and
       # far enough out that exp(-lo/mean) underflows to 0
       lo_over_mean=st.one_of(st.floats(1e-6, 20.0), st.floats(13.0, 14.5),
                              st.floats(700.0, 800.0)),
       # the width of [lo, hi] in units of the mean: degenerate, narrow, wide
       width=st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 100.0)),
       seed=st.integers(0, 2**64 - 1))
def test_sampled_gains_stay_finite_inside_their_bounds(log_mean, lo_over_mean,
                                                       width, seed):
    mean = 10.0 ** log_mean
    lo = mean * lo_over_mean
    hi = lo + mean * width
    # the transform itself holds on every band, including the uniform's ends
    u = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53],
                        np.random.default_rng(seed).random(61)])
    x = _truncated_exponential(u, mean, lo, hi, math.expm1(-(hi - lo) / mean))
    assert np.isfinite(x).all() and ((lo <= x) & (x <= hi)).all()
    if lo == hi:
        assert (x == lo).all()
    # and it is the inverse CDF: against a 40-digit evaluation of
    # lo - mean*ln(1 - u*(1 - exp(-(hi - lo)/mean))) at interior uniforms,
    # where log1p amplifies the rounding of u*scale at most 1000-fold
    with localcontext() as ctx:
        ctx.prec = 40
        d_mean, d_lo = Decimal(mean), Decimal(lo)
        tail = -(Decimal(hi) - d_lo) / d_mean
        for v in (0.001, 0.25, 0.5, 0.75, 0.999):
            got = _truncated_exponential(np.array([v]), mean, lo, hi,
                                         math.expm1(-(hi - lo) / mean))[0]
            want = d_lo - d_mean * (1 - Decimal(v) * (1 - tail.exp())).ln()
            assert abs(Decimal(got) - want) <= Decimal(2e-12 * mean + 4e-16 * got)

    args = dict(mode="per_stage", mean_gain2=(mean,), eta_min=(lo,),
                eta_max=(hi,), seed=seed)
    if lo < hi and acceptance_probability(mean, lo, hi) < MIN_ACCEPTANCE:
        with pytest.raises(ChannelConfigError, match="mass"):
            ChannelProcess(**args)
        return
    proc = ChannelProcess(**args)
    gains = np.concatenate([draw_block(proc, 64, substream=seed % 7)[:, 0],
                            draw_sequence(proc, 8).gains2[:, 0]])
    assert np.isfinite(gains).all() and ((lo <= gains) & (gains <= hi)).all()


def test_truncated_exponential_distribution():
    mu, lo, hi = 1.0, 0.1, 10.0
    mass = acceptance_probability(mu, lo, hi)
    np.testing.assert_allclose(mass, math.exp(-lo / mu) - math.exp(-hi / mu),
                               rtol=1e-15)

    def cdf(x):
        x = np.clip(x, lo, hi)
        return (np.exp(-lo / mu) - np.exp(-x / mu)) / mass

    sample = draw_block(_process(k=1, mean=mu, lo=lo, hi=hi, seed=1), 100_000)[:, 0]
    assert stats.kstest(sample, cdf).statistic < 0.01


def test_engine_draws_follow_the_same_law():
    # per-(player, stage) keyed draws, distribution checked across stages
    proc = _process(k=1, seed=3)
    sample = draw_sequence(proc, 2000).gains2[:, 0]
    mu, lo, hi = 1.0, 0.1, 10.0
    mass = acceptance_probability(mu, lo, hi)

    def cdf(x):
        x = np.clip(x, lo, hi)
        return (np.exp(-lo / mu) - np.exp(-x / mu)) / mass

    assert stats.kstest(sample, cdf).statistic < 0.05


def test_degenerate_interval_is_constant():
    proc = _process(lo=2.0, hi=2.0)
    assert all(s.gains2 == (2.0, 2.0) for s in _states(draw_sequence(proc, 20)))
    block = draw_block(proc, 10)
    assert (block == 2.0).all()


def test_vanishing_acceptance_mass_rejected():
    # bounds far in the exponential tail keep < 1e-6 of the mass
    with pytest.raises(ChannelConfigError, match="mass"):
        _process(lo=30.0, hi=60.0)


def test_config_validation():
    with pytest.raises(ChannelConfigError):
        _process(seed=-1)
    with pytest.raises(ChannelConfigError):
        _process(seed=2**64)
    with pytest.raises(ChannelConfigError):
        _process(lo=2.0, hi=1.0)
    with pytest.raises(ChannelConfigError):
        ChannelProcess(mode="per_stage", mean_gain2=(1.0,), eta_min=(0.1, 0.2),
                       eta_max=(1.0,), seed=0)


def test_seed_takes_integers_only():
    # a fraction or a bool must not draw seed 1's gains
    base = _process(seed=1)
    for seed in (1.0, np.uint64(1), np.int8(1)):
        process = _process(seed=seed)
        assert process == base and type(process.seed) is int
    for seed in (1.5, True, np.True_, math.nan, "1"):
        with pytest.raises(ChannelConfigError, match="^seed must be an integer, got "):
            _process(seed=seed)


def test_infinite_gain_floor_or_mean_rejected():
    # a floor at infinity is no gain; with eta_max = inf too, the band's
    # width inf - inf is undefined
    with pytest.raises(ChannelConfigError):
        _process(lo=math.inf, hi=math.inf)
    # an infinite mean leaves no law to sample, even on a degenerate band
    # whose mass check is skipped (1e400 parses to inf)
    with pytest.raises(ChannelConfigError):
        _process(mean=float("1e400"), lo=2.0, hi=2.0)
    with pytest.raises(ChannelConfigError):
        _process(mean=math.inf)
    unbounded = _process(k=1, lo=0.1, hi=math.inf, seed=4)  # no upper cut is fine
    assert np.isfinite(draw_block(unbounded, 50)).all()
    assert math.isfinite(_stage(unbounded, 3).gains2[0])


def test_from_config_broadcasts_the_mean():
    cfg = NetworkConfig(k=3, n=4, sigma2=0.1, rates=1.0, p_max=1.0,
                        eta_min=0.2, eta_max=5.0)
    proc = ChannelProcess.from_config(cfg, "constant", mean_gain2=1.5, seed=11)
    assert proc.mean_gain2 == (1.5, 1.5, 1.5)
    assert proc.mode is ChannelMode.CONSTANT
    assert proc.k == 3


def test_dynamics_db_closed_form():
    np.testing.assert_allclose(dynamics_db(1.0, 100.0), 20.0, rtol=1e-14)
    np.testing.assert_allclose(dynamics_db(2.0, 2.0), 0.0, atol=1e-14)
    with pytest.raises(ValueError):
        dynamics_db(0.0, 1.0)


def test_block_replays_per_substream():
    proc = _process(seed=5)
    a = draw_block(proc, 40, substream=2)
    b = draw_block(proc, 40, substream=2)
    np.testing.assert_array_equal(a, b)
    c = draw_block(proc, 40, substream=3)
    assert not np.array_equal(a, c)


def test_block_constant_mode_tiles_stage_one():
    proc = _process(mode="constant", seed=5)
    block = draw_block(proc, 6)
    row = np.asarray(_stage(proc, 1).gains2)
    np.testing.assert_array_equal(block, np.tile(row, (6, 1)))


def test_block_respects_bounds():
    block = draw_block(_process(k=3, lo=0.5, hi=1.4, seed=8), 500)
    assert block.shape == (500, 3)
    assert ((block >= 0.5) & (block <= 1.4)).all()


def _path_bytes(path):
    return np.asarray(path.gains2).tobytes()


@pytest.mark.parametrize("mode", ["per_stage", "constant"])
def test_a_kept_path_is_the_path_drawn_anew(mode):
    proc = _process(k=3, mode=mode, seed=2**63 + 17)
    first = draw_sequence(proc, 35)
    hits = channel._gain_block.cache_info().hits
    # an equal process built anew is the same key, and a hit is the kept path itself
    again = draw_sequence(_process(k=3, mode=mode, seed=2**63 + 17), 35)
    assert channel._gain_block.cache_info().hits == hits + 1 and again is first
    channel._gain_block.cache_clear()
    fresh = draw_sequence(proc, 35)
    assert _path_bytes(again) == _path_bytes(first) == _path_bytes(fresh)
    assert _states(again) == _states(fresh)
    # the key is the whole (process, stages) pair
    assert len(draw_sequence(proc, 34)) == 34
    other = _path_bytes(draw_sequence(_process(k=3, mode=mode, seed=2**63 + 18), 35))
    assert other != _path_bytes(fresh)
    assert _path_bytes(draw_sequence(proc, 35)) == _path_bytes(fresh)


def test_a_kept_path_is_read_only():
    proc = _process(k=2, seed=31)
    path = draw_sequence(proc, 12)
    assert channel._gain_block(proc, 12) is path
    arrays = [path.gains2]
    while isinstance(arrays[-1].base, np.ndarray):
        arrays.append(arrays[-1].base)
    for array in arrays:
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
        with pytest.raises(ValueError):
            array.flags.writeable = True
    assert _path_bytes(draw_sequence(proc, 12)) == _path_bytes(path)


def test_replacing_a_stage_leaves_the_kept_path_alone():
    # a path is no list: a stage cannot be replaced, in the path or its block
    proc = _process(k=2, seed=37)
    want = _path_bytes(draw_sequence(proc, 8))
    path = draw_sequence(proc, 8)
    with pytest.raises(TypeError):
        path[3] = ChannelState((5.0, 6.0))
    with pytest.raises(ValueError, match="read-only"):
        path.gains2[3] = (5.0, 6.0)
    again = draw_sequence(proc, 8)
    assert _path_bytes(again) == want
    assert _stage(proc, 4).gains2 != (5.0, 6.0)


def test_a_bad_gain_raises_on_every_call(monkeypatch):
    proc = _process(k=2, seed=41)
    block = _engine_gains(proc, 6)
    block[1, 4] = math.inf
    monkeypatch.setattr(channel, "_engine_gains", lambda process, stages: block)
    for _ in range(2):
        with pytest.raises(ValueError, match="squared gain inf must be positive"):
            draw_sequence(proc, 6)
    monkeypatch.undo()
    assert len(draw_sequence(proc, 6)) == 6


def test_at_most_one_path_is_kept():
    for seed in range(5):
        for stages in (3, 40):
            draw_sequence(_process(k=4, seed=seed), stages)
            assert channel._gain_block.cache_info().currsize <= 1
    assert channel._gain_block.cache_info().maxsize == 1


def test_no_draw_reads_os_entropy():
    # building Philox(key=...) seeds a SeedSequence from os.urandom first
    profile = cProfile.Profile()
    profile.enable()
    for seed in range(100):
        proc = _process(k=3, seed=5000 + seed)
        draw_sequence(proc, 20)
        draw_block(proc, 20, substream=seed)
    profile.disable()
    stats = pstats.Stats(profile).stats
    assert [name for _, _, name in stats if "urandom" in name] == []


def test_threads_draw_their_own_streams():
    procs = [_process(k=3, seed=900 + s) for s in range(24)]

    def draws(proc):
        return _path_bytes(draw_sequence(proc, 50)), draw_block(proc, 50, 2).tobytes()

    want = [draws(p) for p in procs]
    wrong = []

    def work(first):
        for _ in range(20):
            for i in range(first, len(procs), 4):
                if draws(procs[i]) != want[i]:
                    wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_importing_loads_no_sampler():
    # numpy.random adds megabytes of peak memory to runs that never draw
    code = "import sys, powergame.cli; assert 'numpy.random' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)
