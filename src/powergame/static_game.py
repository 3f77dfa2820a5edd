"""One-shot energy-efficiency power control game.

K players share a multiple-access channel with processing gain n.  Player i
transmits at power p_i over a fading gain |g_i|^2 and earns

    u_i = rate_i * f(sinr_i) / p_i        [bit/J, with u_i = 0 at p_i = 0]

where sinr_i = n * p_i |g_i|^2 / (sum_{j != i} p_j |g_j|^2 + sigma2).  The
received action a_i = p_i |g_i|^2 is the natural variable: all equilibrium
profiles below equalise actions, not powers.

One profile (``utility``, ``sinr_all``, ``public_signal``, the equilibrium
builders) is computed in Python floats, as ``+ - * /`` and comparisons round
alike in floats and numpy; ``_stage_payoffs`` is the batch kernel of the engine
and the region sampler.  ``_total`` adds the players' terms in the order of
numpy's pairwise sum, for every k: below 8 terms left to right; up to 128, eight
running sums over blocks of 8, joined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
then the rest left to right; past 128, the two halves apart, the first half's
length rounded down to a multiple of 8.  It starts from numpy's 0.0, so -0.0
terms total 0.0.  Not Python's ``sum``, which compensates its rounding from
Python 3.12 on.  ``tests/test_static_game.py`` checks the bytes:
``test_one_profile_total_is_numpys_sum`` and
``test_stage_kernel_batch_is_bitwise_the_per_profile_functions``.  ``**`` and
``exp`` stay vector numpy calls, as ``math`` and scalar ``pow`` need not round
as numpy's vector loops do.
"""

from __future__ import annotations

import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel, _require_one_shot, _sizes
from .errors import NoNashEquilibriumError, SaturatedRegimeError


def _per_player(value, k: int, name: str) -> tuple[float, ...]:
    if np.ndim(value) == 0:
        return (float(value),) * k
    out = tuple(float(v) for v in value)
    if len(out) != k:
        raise ValueError(f"{name} must have length k={k}, got {len(out)}")
    return out


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of the network: sizes, noise, caps and gain bounds.

    sigma2, rates, p_max and eta_min must be positive and finite; eta_max may
    be inf (no upper cut on the gains) but not NaN.
    """

    k: int
    n: int
    sigma2: float
    rates: tuple[float, ...]
    p_max: tuple[float, ...]
    eta_min: tuple[float, ...]
    eta_max: tuple[float, ...]

    def __post_init__(self):
        k, n = _sizes(self.k, self.n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError("noise power sigma2 must be positive and finite")
        object.__setattr__(self, "rates", _per_player(self.rates, self.k, "rates"))
        object.__setattr__(self, "p_max", _per_player(self.p_max, self.k, "p_max"))
        object.__setattr__(self, "eta_min", _per_player(self.eta_min, self.k, "eta_min"))
        object.__setattr__(self, "eta_max", _per_player(self.eta_max, self.k, "eta_max"))
        for name in ("rates", "p_max", "eta_min"):
            if not all(0.0 < v < np.inf for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be positive and finite")
        if not all(lo <= hi for lo, hi in zip(self.eta_min, self.eta_max)):
            raise ValueError("eta_max entries must not be NaN or below eta_min")

    @classmethod
    def uniform(cls, k, n, sigma2, rate, p_max, eta_min, eta_max) -> "NetworkConfig":
        return cls(k=k, n=n, sigma2=sigma2, rates=rate, p_max=p_max,
                   eta_min=eta_min, eta_max=eta_max)


@dataclass(frozen=True)
class ChannelState:
    """Squared channel gains |g_i|^2 for one stage."""

    gains2: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gains2", tuple(float(g) for g in self.gains2))
        for g in self.gains2:
            if not 0.0 < g < np.inf:
                raise ValueError(f"squared gain {g} must be positive and finite")


@dataclass(frozen=True)
class PowerProfile:
    p: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(map(float, self.p)))
        if any(map((0.0).__gt__, self.p)):  # NaN passes, as it compares False
            raise ValueError("powers must be nonnegative")


@dataclass(frozen=True)
class UtilityProfile:
    u: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(map(float, self.u)))


def _stage_payoffs(model: EfficiencyModel | None, cfg: NetworkConfig, gains2,
                   powers) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """SINRs, utilities and public signal of stage profiles shaped (..., k).

    The batch stage formula, which ``_profile_sinrs`` and ``utility`` write out
    for one profile in floats, term for term and at its bits.  Utilities are
    zero at zero power, where nothing is divided, and None when no model is
    given; the public signal has the batch shape.
    """
    gains2 = np.asarray(gains2)
    powers = np.asarray(powers)
    a = powers * gains2
    total = a.sum(axis=-1, keepdims=True)
    sinrs = cfg.n * a / (total - a + cfg.sigma2)
    utils = None
    if model is not None:
        utils = np.divide(np.asarray(cfg.rates) * model.value(sinrs), powers,
                          out=np.zeros(sinrs.shape), where=powers > 0.0)
    return sinrs, utils, cfg.sigma2 + total[..., 0]


def _received(ch: ChannelState, profile: PowerProfile) -> tuple[list[float], float]:
    """One profile's actions p_i |g_i|^2 and their total, at ``_stage_payoffs``' bits."""
    if len(profile.p) != len(ch.gains2):
        raise ValueError(f"{len(profile.p)} powers for {len(ch.gains2)} gains")
    a = list(map(operator.mul, profile.p, ch.gains2))
    return a, _total(a)


def _total(terms: list[float]) -> float:
    """The terms' total as numpy's pairwise sum adds them, from numpy's 0.0 start (see above)."""
    n = len(terms)
    if n > 128:  # the halves, the first a multiple of 8 long
        half = n // 2 - n // 2 % 8
        return _total(terms[:half]) + _total(terms[half:])
    total = 0.0
    if n >= 8:  # eight running sums over blocks of 8, joined pairwise, then the rest
        r = terms[:8]
        for i in range(8, n - n % 8, 8):
            r = list(map(operator.add, r, terms[i:i + 8]))
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        terms = terms[n - n % 8:]
    for x in terms:
        total += x
    return total


def _profile_sinrs(cfg: NetworkConfig, ch: ChannelState, profile: PowerProfile) -> list[float]:
    """One profile's SINRs in floats: ``_stage_payoffs``' formula, term for term."""
    a, total = _received(ch, profile)
    n, sigma2 = cfg.n, cfg.sigma2
    return [n * x / (total - x + sigma2) for x in a]


def sinr_all(cfg: NetworkConfig, ch: ChannelState, profile: PowerProfile) -> np.ndarray:
    return np.array(_profile_sinrs(cfg, ch, profile))


def utility(model: EfficiencyModel, cfg: NetworkConfig, ch: ChannelState,
            profile: PowerProfile) -> UtilityProfile:
    """Per-player efficiency in bit/J; zero wherever the power is zero."""
    if len(profile.p) != cfg.k:
        raise ValueError(f"{len(profile.p)} powers for k={cfg.k} players")
    f = model.value(_profile_sinrs(cfg, ch, profile)).tolist()  # one vector call: numpy's **
    return UtilityProfile([rate * v / p if p > 0.0 else 0.0
                           for rate, v, p in zip(cfg.rates, f, profile.p)])


def public_signal(cfg: NetworkConfig, ch: ChannelState, profile: PowerProfile) -> float:
    """Total received energy sigma2 + sum_i p_i |g_i|^2, observable by all."""
    return float(cfg.sigma2 + _received(ch, profile)[1])


def reconstruct_public_signal(p_i: float, gain2_i: float, sinr_i: float, n: int) -> float:
    """Recover the public signal from one player's own power, gain and SINR.

    Identity: a_i * (sinr_i + n) / sinr_i = sigma2 + sum_j a_j, so a player
    needs no side information beyond its own measurements.
    """
    if sinr_i <= 0.0:
        raise ValueError("reconstruction requires a positive SINR")
    a_i = p_i * gain2_i
    return a_i * (sinr_i + n) / sinr_i


def _equal_action(cfg: NetworkConfig, x: float) -> float:
    # received action making every player's SINR equal to x
    margin = cfg.n - (cfg.k - 1) * x
    if margin <= 0.0:
        raise NoNashEquilibriumError(
            f"target SINR {x} not sustainable: requires (K-1)*x < N, "
            f"i.e. 2 <= K < N/x + 1 (K={cfg.k}, N={cfg.n})"
        )
    return cfg.sigma2 * x / margin


def _actions_to_profile(cfg: NetworkConfig, ch: ChannelState, actions: Sequence[float],
                        label: str) -> PowerProfile:
    p = tuple(map(operator.truediv, actions, ch.gains2))
    if any(map(operator.gt, p, cfg.p_max)):
        i = next(i for i, (power, cap) in enumerate(zip(p, cfg.p_max)) if power > cap)
        raise SaturatedRegimeError(f"{label} power {p[i]} exceeds cap {cfg.p_max[i]} "
                                   f"for player {i + 1}")
    return PowerProfile(p)


def ne_action(cfg: NetworkConfig, beta_star: float) -> float:
    """Received action of the one-shot equilibrium: sigma2*b/(n - (k-1)b)."""
    _require_one_shot(cfg.k, cfg.n, beta_star)
    return _equal_action(cfg, beta_star)


def ne_profile(cfg: NetworkConfig, ch: ChannelState, beta_star: float) -> PowerProfile:
    """One-shot equilibrium powers; every SINR equals beta_star."""
    a = ne_action(cfg, beta_star)
    return _actions_to_profile(cfg, ch, (a,) * cfg.k, "equilibrium")


def op_profile(cfg: NetworkConfig, ch: ChannelState, gamma_tilde: float) -> PowerProfile:
    """Cooperative operating-point powers; every SINR equals gamma_tilde."""
    a = _equal_action(cfg, gamma_tilde)
    return _actions_to_profile(cfg, ch, (a,) * cfg.k, "operating-point")


def _leader_margin(k: int, n: int, beta_star: float,
                   gamma_star: float) -> tuple[float, float, float]:
    """(b/n, g/n, d) of the leader-follower equilibrium, which needs d > 0."""
    bn = beta_star / n
    gn = gamma_star / n
    d = 1.0 - (k - 2) * bn - (k - 1) * gn * bn
    if d <= 0.0:
        raise NoNashEquilibriumError(
            "leader-follower equilibrium requires "
            f"1 - (K-2)*b/N - (K-1)*g*b/N^2 > 0, got {d}"
        )
    return bn, gn, d


def _leader_follower_utilities(model: EfficiencyModel, x: float, other: float,
                               scales) -> list[float]:
    """scale * f(x) / (x (1 + other)) for each scale: the leader-follower utility of
    a player at SINR x, with other the b/n or g/n of the other role (``_leader_margin``)."""
    f, denominator = model.value(x), x * (1.0 + other)
    return [scale * f / denominator for scale in scales]


def se_profiles(model: EfficiencyModel, cfg: NetworkConfig, ch: ChannelState,
                beta_star: float, gamma_star: float, leader: int,
                ) -> tuple[PowerProfile, UtilityProfile]:
    """Leader-follower equilibrium: powers and closed-form utilities.

    The leader lands at SINR gamma_star, every follower at beta_star.  With
    bn = beta_star/n, gn = gamma_star/n and d = 1 - (k-2)bn - (k-1)gn*bn:

        a_leader   = sigma2 * gamma_star * (1 + bn) / (n d)
        a_follower = sigma2 * beta_star  * (1 + gn) / (n d)

    and utilities follow from u = rate * f(sinr) * gain2 / action.
    """
    if not 0 <= leader < cfg.k:
        raise ValueError(f"leader index {leader} out of range for k={cfg.k}")
    bn, gn, d = _leader_margin(cfg.k, cfg.n, beta_star, gamma_star)
    a_leader = cfg.sigma2 * gamma_star * (1.0 + bn) / (cfg.n * d)
    a_follow = cfg.sigma2 * beta_star * (1.0 + gn) / (cfg.n * d)
    actions = [a_follow] * cfg.k
    actions[leader] = a_leader
    profile = _actions_to_profile(cfg, ch, actions, "leader-follower")

    scale = [rate * g2 / cfg.sigma2 * cfg.n * d for rate, g2 in zip(cfg.rates, ch.gains2)]
    u = _leader_follower_utilities(model, beta_star, gn, scale)
    u[leader], = _leader_follower_utilities(model, gamma_star, bn, scale[leader:leader + 1])
    return profile, UtilityProfile(tuple(u))


def pareto_dominates(ua: UtilityProfile, ub: UtilityProfile) -> bool:
    """True when ua is at least ub everywhere and strictly better somewhere."""
    a, b = np.asarray(ua.u), np.asarray(ub.u)
    return bool(np.all(a >= b) and np.any(a > b))


def sample_utility_region(model: EfficiencyModel, cfg: NetworkConfig, ch: ChannelState,
                          points_per_axis: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate normalised utilities u_i/|g_i|^2 on a full power grid.

    Returns (powers, utils_norm), each of shape (points_per_axis**k, k), in
    row-major order over the per-player grids [0, p_max_i].
    """
    if cfg.k >= 4:
        warnings.warn(
            f"region sampling is combinatorial: {points_per_axis}**{cfg.k} profiles",
            stacklevel=2,
        )
    axes = [np.linspace(0.0, pm, points_per_axis) for pm in cfg.p_max]
    mesh = np.meshgrid(*axes, indexing="ij")
    powers = np.stack([m.reshape(-1) for m in mesh], axis=1)

    g2 = np.asarray(ch.gains2)
    return powers, _stage_payoffs(model, cfg, g2, powers)[1] / g2


def _write_table(fh, columns, rows) -> None:
    """Column names and rows of string cells, as ``csv.writer`` writes them unquoted."""
    fh.write("\r\n".join([",".join(columns), *map(",".join, rows), ""]))
