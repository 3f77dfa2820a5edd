"""Repeated power control: cooperation bounds, trigger strategies, engine.

Players repeat the stage game and sustain the cooperative operating point by
monitoring the public signal omega = sigma2 + sum_i p_i |g_i|^2.  Two plans:

* finite horizon (``FrgPlan``): play the cooperative powers for the first
  T - T0 stages, the one-shot equilibrium for the last T0, and switch to full
  power forever once the public signal leaves its cooperative value.
* discounted horizon (``DrgPlan``): play the cooperative powers and revert to
  the one-shot equilibrium forever after any detected deviation.

``t0_bound`` and ``lambda_bound`` give the horizon/patience thresholds that
make one-stage deviations unprofitable against worst-case bounded gains.
Both are evaluated exactly as stated, including the deviation payoff being
bounded by the interference-free maximum; see ``t0_bound_exact_deviation``
for the tighter diagnostic that uses the true best deviation instead.  Their
closed-form inverses for alike players serve the experiment runners.

``run_game`` plays a game in as few as one batched kernel pass over its
(stages, k) gains: detection runs only while cooperating and punishment is
absorbing, so one stage t* fixes every phase, and a pass that guesses it
confirms the guess from its own public signal.  It returns a ``Trace``, the
kernel's columns, whose ``StageRecord``s are built on the first read and kept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum
from math import ceil, floor, log

import numpy as np

from .channel import GainPath
from .efficiency import EfficiencyModel, _integer_field, _require_one_shot, equal_action_utility
from .errors import NoFiniteT0Error, PowerGameError, SaturatedRegimeError
from .static_game import ChannelState, NetworkConfig, _equal_action
from .static_game import _stage_payoffs, _write_table, ne_action

DETECTION_TOL = 1e-9  # relative departure of omega from its cooperative value that counts


@dataclass(frozen=True)
class FrgPlan:
    """Finite-horizon plan: cooperate for t_total - t0 stages, then endgame.

    t0 >= t_total is the degenerate all-endgame plan (empty cooperation
    window), accepted so horizon sweeps need no special casing.
    """

    t_total: int
    t0: int

    def __post_init__(self):
        for name in ("t_total", "t0"):
            object.__setattr__(self, name, _integer_field(getattr(self, name), name))
        if not (self.t_total >= 1 and self.t0 >= 0):
            raise ValueError("need t_total >= 1 and t0 >= 0")


@dataclass(frozen=True)
class DrgPlan:
    """Discounted plan: each stage is the last with probability lam."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("stopping probability must lie in (0, 1)")


Plan = FrgPlan | DrgPlan


class Phase(str, Enum):
    COOPERATE = "cooperate"
    ENDGAME = "endgame"
    PUNISH = "punish"


@dataclass(frozen=True)
class RgBounds:
    t0: int
    lambda_max: float
    delta: float


@dataclass(frozen=True)
class StageRecord:
    t: int
    gains2: tuple[float, ...]
    powers: tuple[float, ...]
    sinrs: tuple[float, ...]
    utilities: tuple[float, ...]
    omega: float
    phases: tuple[str, ...]
    deviation_detected: bool


_RECORD_FIELDS = tuple(f.name for f in fields(StageRecord))  # also Trace's columns


@dataclass(frozen=True, eq=False)
class Trace:
    """A played game: read-only columns, one per ``StageRecord`` field.

    The per-player fields are (stages, k) arrays, ``phases`` holds each stage's
    tuple of k phase labels, the rest are (stages,) arrays.  The first iteration
    or ``[t]`` builds every record once through ``StageRecord`` and keeps them.
    A slice is a ``Trace`` over the sliced columns, so it keeps its ``t`` values;
    ``[t] = record`` replaces a record as in a list, rebuilding the columns.
    """

    t: np.ndarray
    gains2: np.ndarray
    powers: np.ndarray
    sinrs: np.ndarray
    utilities: np.ndarray
    omega: np.ndarray
    phases: tuple[tuple[str, ...], ...]
    deviation_detected: np.ndarray

    def __post_init__(self):
        for column in (getattr(self, name) for name in _RECORD_FIELDS):
            if isinstance(column, np.ndarray):
                column.setflags(write=False)

    def _records(self) -> list[StageRecord]:
        if "_built" not in self.__dict__:
            cells = [column if isinstance(column, tuple) else  # phases
                     zip(*column.T.tolist()) if column.ndim == 2 else column.tolist()
                     for column in (getattr(self, name) for name in _RECORD_FIELDS)]
            object.__setattr__(self, "_built", list(map(StageRecord, *cells)))
        return self._built

    def __iter__(self):
        return iter(self._records())

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(*(getattr(self, name)[index] for name in _RECORD_FIELDS))
        return self._records()[index]

    def __setitem__(self, index, record):
        records = list(self)
        records[index] = record
        columns = {}
        for name in _RECORD_FIELDS:
            column, cells = getattr(self, name), [getattr(r, name) for r in records]
            columns[name] = (tuple(cells) if isinstance(column, tuple) else
                             np.array(cells, column.dtype).reshape(-1, *column.shape[1:]))
        for name, column in {**columns, "_built": records}.items():
            object.__setattr__(self, name, column)
        self.__post_init__()


@dataclass(frozen=True)
class DiscountedAverage:
    value: float
    tail_bound: float


@dataclass(frozen=True)
class DeviationScenario:
    """Deterministic off-plan script for one player.

    ``power`` is a wattage, "max", or "best_response" (the one-stage optimum
    against the other players' emitted powers).  With ``best_response_after``
    the player keeps best-responding at every later stage, which is its
    optimal continuation while being punished.
    """

    player: int
    stage: int
    power: float | str
    best_response_after: bool = False

    def __post_init__(self):
        for name in ("player", "stage"):
            object.__setattr__(self, name, _integer_field(getattr(self, name), f"scenario {name}"))


def _bound_terms(model: EfficiencyModel, k: int, n: int, beta_star: float,
                 gamma_tilde: float) -> tuple[float, float, float]:
    """f(b), phi(b) on it as ``equal_action_utility`` writes it, and phi(gt), for the bounds;
    NoNashEquilibriumError without a one-shot NE."""
    _require_one_shot(k, n, beta_star)
    f_ne = model.value(beta_star)
    if not beta_star > 0.0:  # phi's domain, as equal_action_utility checks it
        raise ValueError("SINR must be strictly positive here")
    return (f_ne, f_ne / beta_star * (1.0 - (k - 1) * beta_star / n),
            equal_action_utility(model, gamma_tilde, k, n))


def _punish_interference(cfg: NetworkConfig) -> list[float]:
    """Each player's noise plus the others' received power at full power and the gain floor."""
    received = [p * eta for p, eta in zip(cfg.p_max, cfg.eta_min)]
    out = []
    before = 0.0  # left to right, as Python's sum did before 3.12 compensated it
    for i, x in enumerate(received):
        total = before  # the players before i, then on to those after it
        for y in received[i + 1:]:
            total += y
        out.append(total + cfg.sigma2)
        before += x
    return out


def _surplus(f_ne: float, phi_ne: float, phi_op: float) -> float:
    """delta = phi(gt) - phi(b) from the ``_bound_terms``, clipped at 0."""
    d = phi_op - phi_ne
    if d < -1e-12 * phi_ne:
        raise PowerGameError("cooperative utility fell below equilibrium utility")
    return max(d, 0.0)


def delta_gain(model: EfficiencyModel, k: int, n: int,
               beta_star: float, gamma_tilde: float) -> float:
    """Per-stage cooperation surplus in equal-action utility units (>= 0)."""
    return _surplus(*_bound_terms(model, k, n, beta_star, gamma_tilde))


def _t0_ratios(cfg: NetworkConfig, beta_star: float, gamma_tilde: float, terms: tuple,
               interference: list[float], exact_deviation: bool = False) -> list[float]:
    """Each player's real-valued endgame-length ratio on the terms and its interference.

    The shared body of ``t0_bound``, ``t0_bound_exact_deviation`` and ``rg_bounds``.
    Empty below two players.
    """
    k, n = cfg.k, cfg.n
    if k < 2:
        return []
    f_ne, phi_ne, phi_op = terms
    deviation_term = f_ne / beta_star
    if exact_deviation:
        deviation_term = deviation_term * (1.0 - (k - 1) * gamma_tilde / n)
    ratios = []
    for i, (lo, hi, punish) in enumerate(zip(cfg.eta_min, cfg.eta_max, interference)):
        numerator = hi * deviation_term - lo * phi_op
        denominator = lo * phi_ne - hi * f_ne / (beta_star * punish)
        if denominator <= 0.0:
            raise NoFiniteT0Error(
                "full-power punishment too weak for player "
                f"{i + 1}: eta_min*phi(beta_star) <= eta_max*f(beta_star)/"
                f"(beta_star*(sum_j P_j_max*eta_j_min + sigma2)) = {-denominator + lo * phi_ne}"
            )
        ratios.append(numerator / denominator)
    return ratios


def _t0_from_ratios(ratios: list[float]) -> int:
    """Endgame length from the players' ratios: the largest ceiling, at least 1."""
    return max([1, *map(ceil, ratios)])


def _t0_edge(beta_star: float, terms: tuple, interference: float, t: float) -> float:
    """Largest eta_max/eta_min with t0_bound <= t, every player alike; < 1: none.

    With R = eta_max/eta_min, D = f(b)/b, I the punishment interference and
    T = floor(t), ceil(r) <= t iff R*D*(1 + T/I) <= T*phi(b) + phi(gt).  The
    edge is a weighted mean of phi(b)*I/D and phi(gt)/D < 1, so when it is >= 1
    the denominator of r stays positive on [1, edge]: NoFiniteT0Error never binds.
    """
    f_ne, phi_ne, phi_op = terms
    t = max(floor(t), 0)
    return (t * phi_ne + phi_op) / (f_ne / beta_star * (1.0 + t / interference))


def _t0_floor_edge(cfg: NetworkConfig, beta_star: float, terms: tuple, target: float) -> float:
    """Gain floor at which the t0 ratio r of alike players equals target.

    At cfg's R, r = target at I = R*D / (phi(b) - (R*D - phi(gt))/target), the
    punishment interference of eta_min = (I - sigma2) / ((k-1) p_max).
    """
    f_ne, phi_ne, phi_op = terms
    spread = cfg.eta_max[0] / cfg.eta_min[0] * f_ne / beta_star
    interference = spread / (phi_ne - (spread - phi_op) / target)
    return (interference - cfg.sigma2) / ((cfg.k - 1) * cfg.p_max[0])


def t0_bound(cfg: NetworkConfig, model: EfficiencyModel, beta_star: float,
             gamma_tilde: float) -> int:
    """Endgame length making every one-stage deviation unprofitable.

    Per player: ceil of
      (eta_max f(b)/b - eta_min phi(gt)) /
      (eta_min phi(b) - eta_max f(b) / (b (sum_{j!=i} P_j_max eta_j_min + sigma2)))
    with phi the equal-action utility factor.  The numerator bounds the
    deviation payoff by the interference-free maximum f(b)/b.  This is the
    max over players, the binding one.
    """
    return _t0_from_ratios(_t0_ratios(cfg, beta_star, gamma_tilde,
                                      _bound_terms(model, cfg.k, cfg.n, beta_star, gamma_tilde),
                                      _punish_interference(cfg)))


def t0_bound_exact_deviation(cfg: NetworkConfig, model: EfficiencyModel,
                             beta_star: float, gamma_tilde: float) -> int:
    """Diagnostic variant of t0_bound with the exact one-stage deviation payoff.

    Replaces the interference-free bound f(b)/b by the utility of the best
    response against the cooperative profile, f(b)/b * (1 - (k-1)*gt/n).
    Never larger than t0_bound.
    """
    return _t0_from_ratios(_t0_ratios(cfg, beta_star, gamma_tilde,
                                      _bound_terms(model, cfg.k, cfg.n, beta_star, gamma_tilde),
                                      _punish_interference(cfg), exact_deviation=True))


def lambda_bound(cfg: NetworkConfig, model: EfficiencyModel, beta_star: float,
                 gamma_tilde: float) -> float:
    """Largest stopping probability that keeps cooperation self-enforcing.

    min over players of eta_min*delta / (eta_min*delta + eta_max*((k-1)*f(b) - delta)),
    zero when the cooperation surplus delta vanishes (k = 1 degeneracy).
    """
    return _lambda_max(cfg, _bound_terms(model, cfg.k, cfg.n, beta_star, gamma_tilde))


def _lambda_max(cfg: NetworkConfig, terms: tuple) -> float:
    """``lambda_bound`` on ``_bound_terms``'s triple: the least over 1 and the players."""
    delta = _surplus(*terms)
    return 0.0 if delta == 0.0 else min(1.0, *(
        lo * delta / (lo * delta + hi * ((cfg.k - 1) * terms[0] - delta))
        for lo, hi in zip(cfg.eta_min, cfg.eta_max)))


def _lambda_edge(k: int, terms: tuple, lam: float) -> float:
    """Largest eta_max/eta_min with lambda_bound >= lam, every player alike; < 1: none.

    The gain floor cancels, so the edge depends on (model, k, n) alone.
    """
    delta = _surplus(*terms)
    return delta * (1.0 - lam) / (lam * ((k - 1) * terms[0] - delta))


def rg_bounds(cfg: NetworkConfig, model: EfficiencyModel, beta_star: float,
              gamma_tilde: float) -> RgBounds:
    """``t0_bound``, ``lambda_bound`` and ``delta_gain`` on one evaluation of their terms.

    The terms' and t0's errors come before lambda's."""
    terms = _bound_terms(model, cfg.k, cfg.n, beta_star, gamma_tilde)
    t0 = _t0_from_ratios(_t0_ratios(cfg, beta_star, gamma_tilde, terms,
                                    _punish_interference(cfg)))
    return RgBounds(t0, _lambda_max(cfg, terms), _surplus(*terms))


def drg_truncation_horizon(lam: float, tail: float = 1e-12) -> int:
    """Smallest T with (1 - lam)^T below the tail mass, both in (0, 1); none where
    1 - lam rounds to 1 (lam <= 2**-54)."""
    if not (0.0 < lam < 1.0 and 1.0 - lam < 1.0):
        raise ValueError(f"lam must lie in (0, 1) and round 1 - lam below 1, got {lam}")
    if not 0.0 < tail < 1.0:
        raise ValueError(f"tail must lie in (0, 1), got {tail}")
    return int(ceil(log(tail) / log(1.0 - lam)))


@dataclass(frozen=True)
class TriggerStrategy:
    """Public-signal trigger strategy, one immutable object shared by all players.

    Player i plays its phase's received action over its own gain, so it needs
    only |g_i|^2 and the public signal.  Everyone sees the same omegas, so one
    phase serves all players and the deviator punishes itself too.  Detection
    is relative and active only while cooperating (the endgame is
    self-enforcing).  The punishment onset belongs to a run, not the strategy.
    """

    plan: Plan
    coop_action: float
    ne_action: float
    caps: tuple[float, ...]
    expected_omega: float

    def _spans(self, stages: int, punish_from: int | None = None) -> tuple[int, int]:
        """(coop, end): stages 1..coop cooperate, coop+1..end play the endgame, the rest punish.

        Punishment starts at stage punish_from, or never when it is None.
        """
        end = stages if punish_from is None else min(max(punish_from - 1, 0), stages)
        coop = end
        if isinstance(self.plan, FrgPlan):
            coop = min(max(self.plan.t_total - self.plan.t0, 0), end)
        return coop, end

    def phases(self, stages: int, punish_from: int | None = None) -> list[Phase]:
        """Phases of stages 1..stages: cooperate, endgame, then punish from punish_from."""
        return list(_in_phases(tuple(Phase), stages, *self._spans(stages, punish_from)))

    def powers(self, phase: Phase, gains2: np.ndarray) -> np.ndarray:
        """Prescribed powers in this phase over own gains, one stage (k,) or many (..., k)."""
        if phase is Phase.PUNISH and isinstance(self.plan, FrgPlan):
            return np.full(np.shape(gains2), self.caps)
        action = self.coop_action if phase is Phase.COOPERATE else self.ne_action
        return action / gains2

    def deviation_seen(self, omega):
        """True where omega leaves its cooperative value by more than DETECTION_TOL of it.

        ``omega`` is one stage's public signal or an array of them.
        """
        return abs(omega - self.expected_omega) > DETECTION_TOL * self.expected_omega


def _in_phases(items: tuple, stages: int, coop: int, end: int) -> tuple:
    """One of the three items per stage, in ``Phase`` order over ``TriggerStrategy._spans``."""
    cooperate, endgame, punish = items
    return (cooperate,) * coop + (endgame,) * (end - coop) + (punish,) * (stages - end)


@functools.cache
def _phase_labels(k: int) -> tuple[tuple[str, ...], ...]:
    """A stage's tuple of k labels in each phase, in ``Phase`` order."""
    return tuple((phase.value,) * k for phase in Phase)


def make_machines(cfg: NetworkConfig, model: EfficiencyModel, plan: Plan,
                  beta_star: float, gamma_tilde: float) -> TriggerStrategy:
    """Build the trigger strategy that every player shares.

    The cooperative public-signal value is computed from the profile itself
    (sigma2 plus the sum of cooperative actions), not from any closed form.
    Raises SaturatedRegimeError if either prescribed action can exceed a
    player's cap somewhere inside the gain bounds.
    """
    a_ne = ne_action(cfg, beta_star)
    a_op = _equal_action(cfg, gamma_tilde)
    expected_omega = cfg.sigma2 + cfg.k * a_op
    for i in range(cfg.k):
        need = max(a_ne, a_op) / cfg.eta_min[i]
        if need > cfg.p_max[i]:
            raise SaturatedRegimeError(
                f"plan needs up to {need} W from player {i + 1}, cap {cfg.p_max[i]} W"
            )
    return TriggerStrategy(plan, a_op, a_ne, cfg.p_max, expected_omega)


def _best_responses(cfg: NetworkConfig, gains2: np.ndarray, powers: np.ndarray,
                    player: int, beta_star: float):
    """(power, interference, saturated) of `player`'s one-stage optimum in each stage (..., k).

    The power targets SINR beta_star against row total - own + sigma2, or is the cap.
    """
    a = powers * gains2
    interference = a.sum(axis=-1) - a[..., player] + cfg.sigma2
    target = beta_star * interference / (cfg.n * gains2[..., player])
    cap = cfg.p_max[player]
    saturated = target > cap
    return np.where(saturated, cap, target), interference, saturated


def _utilities(trace: Trace, player: int) -> np.ndarray:
    """The player's stage utilities, contiguous so sums run in the list's order."""
    if not trace:
        raise ValueError("empty trace")
    return trace.utilities[:, player].copy()


def averaged_utility_frg(trace: Trace, player: int) -> float:
    """Arithmetic mean of the player's stage utilities over the trace."""
    return float(np.mean(_utilities(trace, player)))


def averaged_utility_drg(trace: Trace, player: int,
                         lam: float) -> DiscountedAverage:
    """Expected-stopping average sum_t lam*(1-lam)^(t-1) u_i(t) over the trace.

    The reported tail bound is (1-lam)^T times the max observed stage
    utility, bounding the mass truncated at T stages.
    """
    u = _utilities(trace, player)
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    weights = lam * (1.0 - lam) ** np.arange(len(u))
    return DiscountedAverage(float(weights @ u), (1.0 - lam) ** len(u) * float(u.max()))


def _script(scenario: DeviationScenario | None, cfg: NetworkConfig,
            beta_star: float | None, stages: int):
    """The script read once: ((player, row, fixed, lo, hi), last, error).

    The override sets ``fixed`` watts (None: a best response) at ``row`` and
    best-responds in rows lo..hi-1 of the player's column.  ``error`` is the
    bad request's exception, due at stage ``last``; the override then stops
    before that stage.  Out-of-range players and stages raise here.
    """
    if scenario is None:
        return (0, 0, None, 0, 0), stages, None
    i, s = scenario.player, scenario.stage - 1
    if not 0 <= i < cfg.k:
        raise ValueError(f"scenario player {i} out of range")
    if not 1 <= scenario.stage <= stages:
        raise ValueError(f"scenario stage {scenario.stage} outside the horizon")
    fixed, lo, error = None, s, None
    if scenario.power != "best_response":
        cap = cfg.p_max[i]
        try:
            watts = cap if scenario.power == "max" else float(scenario.power)
            if not 0.0 <= watts <= cap:
                raise ValueError(f"scripted power {watts} outside [0, {cap}]")
            fixed, lo = watts, s + 1
        except (TypeError, ValueError) as exc:
            error = exc
    hi = stages if scenario.best_response_after else s + 1
    if error is None and lo < hi and beta_star is None:
        error = ValueError("best_response scripts need beta_star")
    if error is not None:  # row lo is the failing stage
        return (i, s, fixed, lo, lo), lo + 1, error
    return (i, s, fixed, lo, hi), stages, None


def _scripted(override, cfg: NetworkConfig, beta_star: float | None, gains2: np.ndarray,
              prescribed: np.ndarray) -> np.ndarray:
    """A copy of the prescribed (stages, k) powers with the override; best responses answer them."""
    i, s, fixed, lo, hi = override
    powers = prescribed.copy()
    if lo < hi:
        powers[lo:hi, i] = _best_responses(cfg, gains2[lo:hi], prescribed[lo:hi], i, beta_star)[0]
    if fixed is not None:
        powers[s, i] = fixed
    return powers


def run_game(model: EfficiencyModel, cfg: NetworkConfig,
             channels: GainPath | list[ChannelState], strategy: TriggerStrategy,
             scenario: DeviationScenario | None = None,
             beta_star: float | None = None) -> Trace:
    """Play the stage game under the shared strategy: a ``Trace``, one record per stage.

    A player's power depends only on its own current gain and the phase, the
    phase only on the public signal, so the trace respects the game's
    information structure by construction.  The first seen cooperating stage
    t* fixes the phases.  A pass prescribes every stage for a guessed t*
    (cooperate up to it, then punish; on-plan for 0), applies the script and
    plays all stages in one kernel call.  Stages before t* play as on-plan, so
    the first seen stage s up to the guess (in the cooperation window for 0)
    is t* when s is the guess.  Else s is the next guess: t* itself, or 0 when
    t* is 0 or past the guess, which on-plan play then finds.  The first guess
    is the first cooperating stage the script overrides, else 0, so a game
    takes one pass when that stage is seen or there is none, and at most three.
    Errors come from the first stage that has one: SaturatedRegimeError for a
    prescription above a cap (a gain below the strategy's bounds), or the
    script's ValueError for a bad request, whose stage bounds the cap check.
    A ``GainPath`` is played from its block; any other sequence of states is
    stacked into one.
    """
    plan = strategy.plan
    stages = len(channels)
    if isinstance(plan, FrgPlan) and stages > plan.t_total:
        raise ValueError(
            f"stage {plan.t_total + 1} beyond the {plan.t_total}-stage horizon")
    override, last, error = _script(scenario, cfg, beta_star, stages)

    gains2 = (channels.gains2 if isinstance(channels, GainPath) else
              np.array([state.gains2 for state in channels], dtype=float)).reshape(stages, cfg.k)
    window = strategy._spans(stages)[0]
    _, s, fixed, lo, hi = override  # row s is the script's first, if it overrides any
    guess = s + 1 if s < window and (fixed is not None or lo < hi) else 0
    for _ in range(3):  # a wrong guess is followed by t* or by 0, and 0 by t*
        coop, end = strategy._spans(stages, guess + 1 if guess else None)  # guess <= window
        prescribed = strategy.powers(Phase.COOPERATE, gains2)  # the later rows are overwritten
        prescribed[coop:] = strategy.powers(Phase.PUNISH if guess else Phase.ENDGAME, gains2[coop:])
        powers = _scripted(override, cfg, beta_star, gains2, prescribed)
        sinrs, utils, omegas = _stage_payoffs(model, cfg, gains2, powers)
        seen = strategy.deviation_seen(omegas[:guess or window]).nonzero()[0]
        detected = int(seen[0]) + 1 if seen.size else 0  # 0 when nothing is seen
        if detected == guess:
            break
        guess = detected
    over, player = (prescribed[:last] > strategy.caps).nonzero()
    if over.size:
        t, i = over[0], player[0]  # the first stage over a cap, its first player
        raise SaturatedRegimeError(
            f"stage {t + 1}: strategy prescribes {prescribed[t, i]} W to player "
            f"{i + 1}, above its cap {strategy.caps[i]} W")
    if error is not None:
        raise error

    t = np.arange(1, stages + 1)
    return Trace(t, gains2, powers, sinrs, utils, omegas,
                 _in_phases(_phase_labels(cfg.k), stages, coop, end), t == detected)


def trace_to_csv(path, trace: Trace) -> None:
    """One row per (stage, player): t,player,gain2,power,sinr,utility,omega,phase,deviated.

    Each of the ``Trace``'s columns is formatted once, floats by ``repr``, and
    the rows are joined by ``static_game._write_table``.
    """
    stages, k = trace.powers.shape

    def per_player(cells):  # a stage's cell on each of its k rows
        return [cell for cell in cells for _ in range(k)]

    rows = zip(per_player(map(str, trace.t.tolist())), list(map(str, range(1, k + 1))) * stages,
               *(map(repr, block.ravel().tolist()) for block in
                 (trace.gains2, trace.powers, trace.sinrs, trace.utilities)),
               per_player(map(repr, trace.omega.tolist())),
               (label for labels in trace.phases for label in labels),
               per_player("1" if flag else "0" for flag in trace.deviation_detected.tolist()))
    with open(path, "w", newline="") as fh:
        _write_table(fh, "t,player,gain2,power,sinr,utility,omega,phase,deviated".split(","), rows)
