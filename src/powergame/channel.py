"""Block-fading channel processes with bounded Rayleigh power gains.

Squared gains are exponential (Rayleigh power) with a per-player mean,
truncated to [eta_min, eta_max] exactly, never by clipping: one uniform u per
gain goes through the inverse CDF of the truncated law (Devroye 1986, §2),

    x = eta_min - mean*log1p(u*expm1(-(eta_max - eta_min)/mean)).

Uniforms come from counter-based Philox streams (Salmon et al., SC'11), so
every gain is a fixed function of (seed, player, stage) or (seed, substream,
player, stage), the same on every run and under any worker partitioning.
The two key schemes are layouts over one uniform stream per key:

    engine draws:  Philox(key=[seed, player]); stage t takes output t-1
    bulk draws:    Philox(key=[seed, 2**32 + substream]); column i takes
                   outputs [i*stages, (i+1)*stages)

so engine draws do not shift when players are added, and neither do the
columns of a bulk block.  ``draw_sequence`` returns a game's engine draws as a
``GainPath``, one checked, read-only (stages, k) block, and ``draw_block`` a
bulk block; both check their arguments before drawing.  ``constant`` mode
freezes the stage-1 draw for the whole game; ``per_stage`` redraws every stage.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from enum import Enum
from math import exp, expm1, inf, isfinite, log10
from numbers import Integral

import numpy as np

from .efficiency import _integer_field
from .errors import ChannelConfigError
from .static_game import ChannelState, NetworkConfig

MIN_ACCEPTANCE = 1e-6
_BULK_KEY_OFFSET = 2**32  # keeps bulk substreams disjoint from per-player keys


class ChannelMode(str, Enum):
    CONSTANT = "constant"
    PER_STAGE = "per_stage"


def acceptance_probability(mean: float, lo: float, hi: float) -> float:
    """Mass an Exponential(mean) puts on [lo, hi]."""
    return exp(-lo / mean) - exp(-hi / mean)


def dynamics_db(eta_min: float, eta_max: float) -> float:
    """Gain dynamics 10*log10(eta_max/eta_min) in dB."""
    if not 0.0 < eta_min <= eta_max:
        raise ValueError("need 0 < eta_min <= eta_max")
    return 10.0 * log10(eta_max / eta_min)


@dataclass(frozen=True)
class ChannelProcess:
    mode: ChannelMode
    mean_gain2: tuple[float, ...]
    eta_min: tuple[float, ...]
    eta_max: tuple[float, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "mode", ChannelMode(self.mode))
        for name in ("mean_gain2", "eta_min", "eta_max"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if not (len(self.mean_gain2) == len(self.eta_min) == len(self.eta_max)):
            raise ChannelConfigError("per-player channel fields must share a length")
        object.__setattr__(self, "seed", _integer_field(self.seed, "seed", ChannelConfigError))
        if not 0 <= self.seed < 2**64:
            raise ChannelConfigError("seed must fit in an unsigned 64-bit word")
        for mu, lo, hi in zip(self.mean_gain2, self.eta_min, self.eta_max):
            if not (mu > 0.0 and 0.0 < lo <= hi and isfinite(mu) and isfinite(lo)):
                raise ChannelConfigError(
                    "need 0 < mean and 0 < eta_min <= eta_max, mean and eta_min finite")
            if lo < hi and acceptance_probability(mu, lo, hi) < MIN_ACCEPTANCE:
                raise ChannelConfigError(
                    f"bounds [{lo}, {hi}] keep less than {MIN_ACCEPTANCE} of the "
                    f"Exponential({mu}) mass; adjust mean or bounds"
                )

    @property
    def k(self) -> int:
        return len(self.mean_gain2)

    @classmethod
    def from_config(cls, cfg: NetworkConfig, mode: ChannelMode | str,
                    mean_gain2=1.0, seed: int = 0) -> "ChannelProcess":
        mean = (float(mean_gain2),) * cfg.k if np.ndim(mean_gain2) == 0 else tuple(mean_gain2)
        return cls(mode=ChannelMode(mode), mean_gain2=mean,
                   eta_min=cfg.eta_min, eta_max=cfg.eta_max, seed=seed)


def _laws(process: ChannelProcess) -> list[tuple[float, float, float, float]]:
    """Per player: mean, eta_min, eta_max and expm1(-(eta_max - eta_min)/mean)."""
    return [(mu, lo, hi, expm1(-(hi - lo) / mu)) for mu, lo, hi in
            zip(process.mean_gain2, process.eta_min, process.eta_max)]


def _truncated_exponential(u: np.ndarray, mean, lo, hi, scale) -> np.ndarray:
    """Map uniforms u in [0, 1) to gains of the truncated law, in place.

    ``scale`` is expm1(-(hi - lo)/mean), so u*scale lies in (-1, 0] and the
    log1p stays finite however far lo sits in the tail.  The law is exact;
    the final min only absorbs an ulp of rounding as u -> 1, and lo == hi
    gives lo.  Parameters are scalars or arrays matching u.
    """
    u *= scale
    np.log1p(u, out=u)
    u *= -mean
    u += lo
    return np.minimum(u, hi, out=u)


_generators = threading.local()  # per thread: one Philox generator, built on first use


def _stream(seed: int, word: int) -> np.random.Generator:
    """The calling thread's generator re-keyed to Philox(key=[seed, word]) at
    counter 0, a fraction of the cost of building one; valid until that
    thread's next ``_stream`` call."""
    local = _generators
    if not hasattr(local, "gen"):
        # seeded, so no OS entropy is read for a key replaced below; built
        # lazily, so importing loads no numpy.random
        local.gen = np.random.Generator(np.random.Philox(0))
        local.fresh = local.gen.bit_generator.state  # counter 0, empty buffer
    # an explicit uint64 key: a plain list of ints at or above 2**63 goes
    # through float64, and neighbouring seeds would share a key
    local.fresh["state"]["key"] = np.array([seed, word], dtype=np.uint64)
    local.gen.bit_generator.state = local.fresh
    return local.gen


def _engine_gains(process: ChannelProcess, stages: int) -> np.ndarray:
    """(k, width) engine gains, width 1 in constant mode: row i is
    ``_stream(seed, i)``'s output."""
    width = 1 if process.mode is ChannelMode.CONSTANT else stages
    gains = np.empty((process.k, width))
    for i, (row, law) in enumerate(zip(gains, _laws(process))):
        _stream(process.seed, i).random(out=row)
        _truncated_exponential(row, *law)
    return gains


@dataclass(frozen=True, eq=False)
class GainPath:
    """Squared gains of stages 1..T as one read-only (T, k) block, which ``run_game``
    plays as it is.  Built checked: ``ChannelState``'s ValueError for the first gain
    in stage order that is not positive and finite."""

    gains2: np.ndarray

    def __post_init__(self):
        bad = ~((self.gains2 > 0.0) & (self.gains2 < np.inf))
        if bad.any():
            ChannelState(self.gains2[np.argwhere(bad)[0][0]].tolist())  # raises for that gain
        self.gains2.setflags(write=False)

    def __len__(self) -> int:
        return len(self.gains2)


def _count(value, name: str, stop: float = inf) -> int:
    """value as an int in [0, stop), a bool never; else a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not 0 <= value < stop:
        raise ValueError(f"{name} must be an integer in [0, {stop}), got {value!r}")
    return int(value)


@functools.lru_cache(maxsize=1)
def _gain_block(process: ChannelProcess, stages: int) -> GainPath:
    """The checked engine path, kept for the last arguments: a game and its
    deviations replay one path.  Its block lies in immutable ``bytes``, so no
    caller can make it writeable; an error is not kept, so a bad gain raises
    on every call."""
    block = np.frombuffer(_engine_gains(process, stages).T.tobytes()).reshape(-1, process.k)
    return GainPath(np.broadcast_to(block, (stages, process.k)))


def draw_sequence(process: ChannelProcess, stages: int) -> GainPath:
    """Gains for stages 1..stages as a ``GainPath``; constant mode repeats stage 1.

    ``stages`` is an integer >= 0, checked before anything is drawn."""
    return _gain_block(process, _count(stages, "stages"))


def draw_block(process: ChannelProcess, stages: int, substream: int = 0) -> np.ndarray:
    """Vectorised (stages, k) gain matrix from one bulk substream.

    Used by the Monte Carlo experiment runners; one substream per replica
    keeps results independent of chunking and worker count.  Columns are
    filled one at a time through a reused buffer, so the uniforms never
    need more than one column of memory.
    """
    stages = _count(stages, "stages")
    substream = _count(substream, "substream", 2**64 - _BULK_KEY_OFFSET)  # key in 64 bits
    if process.mode is ChannelMode.CONSTANT:
        return np.tile(_gain_block(process, 1).gains2, (stages, 1))
    gen = _stream(process.seed, _BULK_KEY_OFFSET + substream)
    out = np.empty((stages, process.k))
    col = np.empty(stages)
    for i, law in enumerate(_laws(process)):
        gen.random(out=col)
        out[:, i] = _truncated_exponential(col, *law)
    return out
