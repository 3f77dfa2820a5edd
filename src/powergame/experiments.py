"""Desk-scale experiment runners emitting CSV datasets.

Five canned studies over the power-control game:

* fig1: sampled two-player utility region with the one-shot equilibrium,
  leader-follower, cooperative, and grid-welfare-argmax points marked.
* fig2/fig3: largest admissible channel-gain dynamics (dB) versus horizon
  (finite game) and versus stopping probability (discounted game).
* fig4: relative welfare gain of the cooperative point and of the
  leader-follower equilibrium over the one-shot equilibrium, versus load.
* fig5: finite-game cooperative-to-equilibrium utility ratio versus horizon,
  with its closed-form large-horizon limit, plus a bound-scale sweep.

Every run is deterministic given (config, seed): CSV files open with a
comment block recording the full config, the seed, and the package version,
and reruns are byte-identical.  Monte Carlo replicas draw from per-replica
RNG substreams and map one replica per job, so results do not depend on
--workers.  ``RUNNERS`` maps each experiment name to its runner, which
checks every argument before it runs (``_runner``).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from dataclasses import astuple, dataclass
from functools import partial
from numbers import Integral, Real

import numpy as np

from ._version import VERSION
from .channel import ChannelMode, ChannelProcess, draw_block, dynamics_db
from .efficiency import PacketSuccess, solve_all
from .errors import NoFiniteT0Error, NoNashEquilibriumError, SaturatedRegimeError
from .repeated import (_bound_terms, _lambda_edge, _punish_interference, _t0_edge,
                       _t0_floor_edge, _t0_from_ratios, _t0_ratios)
from .static_game import (
    ChannelState,
    NetworkConfig,
    UtilityProfile,
    _equal_action,
    _leader_follower_utilities,
    _leader_margin,
    _write_table,
    ne_action,
    ne_profile,
    op_profile,
    pareto_dominates,
    sample_utility_region,
    se_profiles,
    utility,
)

DEFAULT_SEED = 1729
RUNNERS = {}  # experiment name -> runner, filled by @_runner at import
_COUNTS = ("replicas", "t_grid", "t_multiples", "workers")  # runner arguments of integers >= 1


def _floats(value):
    """The floats in value, inside lists, tuples, arrays and dict values too."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, (list, tuple, np.ndarray)):
        return []
    floats = []
    for v in value:
        if isinstance(v, float):
            floats.append(v)
        elif isinstance(v, (list, tuple, np.ndarray, dict)):
            floats += _floats(v)
    return floats


def _runner(name: str):
    """Register a runner as experiment `name`, checking its arguments on every call.

    Before anything runs or is written, each argument must be of its
    default's kind: a sequence for a tuple, an integer for an int and a
    number for a float, never a bool.  Replicas, horizons and worker counts
    (``_COUNTS``) are integers >= 1.  NaN is never an argument, and +inf only
    as eta_max (no upper cut on the gains).  A ValueError names the experiment
    and the argument.
    """
    def register(fn):
        params = inspect.signature(fn).parameters
        kinds = {key: ((list, tuple, range, np.ndarray), "a list") if isinstance(p.default, tuple)
                 else (Integral, "an integer") if type(p.default) is int
                 else (Real, "a number") if type(p.default) is float else None
                 for key, p in params.items()}

        @functools.wraps(fn)
        def run(*args, **kwargs):
            for key, value in [*zip(params, args), *kwargs.items()]:
                want = kinds.get(key)
                if want and (isinstance(value, bool) or not isinstance(value, want[0])):
                    problem = want[1]
                elif not all(math.isfinite(v) or (key, v) == ("eta_max", math.inf)
                             for v in _floats(value)):
                    problem = "finite numbers"
                elif key in _COUNTS and not all(
                        isinstance(v, Integral) and not isinstance(v, bool) and v >= 1
                        for v in ([value] if isinstance(value, Integral) else value)):
                    problem = "integers >= 1"
                else:
                    continue
                raise ValueError(f"{name} needs {problem} in {key}, "
                                 f"got {json.dumps(value, default=repr)}")
            return fn(*args, **kwargs)

        RUNNERS[name] = run
        return run

    return register


def _cell(v) -> str:
    """A cell's text: 1/0 for a bool, repr for a float (numpy's too), empty for None."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


def _cells(rows):
    return ([_cell(v) for v in row] for row in rows)


def _write_csv(path, experiment: str, config: dict, seed, columns, rows) -> None:
    """Comment header, then the column names and rows of string cells (``_cells``)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# experiment: {experiment}\n")
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        fh.write(f"# seed: {'none' if seed is None else seed}\n")
        fh.write(f"# version: {VERSION}\n")
        _write_table(fh, columns, rows)


def _default_path(out_dir, name: str) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join(out_dir, f"{name}_{stamp}.csv")


def _map_ordered(fn, items, workers: int):
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # about 2 MB of RSS: import on use
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=-(-len(items) // workers)))


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    if len(x) < 2:
        return float(x.mean()), 0.0
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


# ---------------------------------------------------------------- fig1


@dataclass(frozen=True)
class MarkedPoint:
    kind: str
    powers: tuple[float, ...]
    utils_norm: tuple[float, ...]
    saturated: bool


@dataclass(frozen=True)
class Fig1Result:
    region_path: str
    points_path: str
    points: tuple[MarkedPoint, ...]
    grid_step: tuple[float, ...]
    op_cell_distance: float
    op_within_one_cell: bool
    op_dominates_ne: bool
    convexity_ratio: float


def _convexity_ratio(utils_norm: np.ndarray, bins: int) -> float:
    """Fraction of hull-interior occupancy bins that the samples reach.

    Bins the sampled utility points and reports the occupied bins over the
    bins inside or on their convex hull (``_hull_lattice_points``).  Near 1 for
    a convex region (boundary bins cost a little); holes pull it down
    (an L-shaped set scores ~0.87, a crescent ~0.62).  The default bin count
    is calibrated so occupancy is limited by shape, not by the sampling
    density of the default 200-per-axis power grid.
    """
    u1, u2 = utils_norm[:, 0], utils_norm[:, 1]
    span1 = u1.max() * (1 + 1e-9) or 1.0
    span2 = u2.max() * (1 + 1e-9) or 1.0
    counts, _, _ = np.histogram2d(u1, u2, bins=bins, range=[[0.0, span1], [0.0, span2]])
    occupied = counts > 0
    return int(occupied.sum()) / _hull_lattice_points(occupied)


def _hull_lattice_points(occupied: np.ndarray) -> int:
    """Integer points (i, j) inside or on the convex hull of the True cells of `occupied`.

    Exact, and so free of the bins' scales: the hull of a row's cells is the
    segment between its lowest and highest, so Andrew's monotone chain runs
    on those with integer cross products.  Pick's theorem counts the closed
    hull's points, (2A + B)/2 + 1, from the shoelace sum 2A and the points
    B = sum gcd(|dx|, |dy|) on its edges.  One cell counts 1, a segment gcd + 1.
    """
    rows = np.flatnonzero(occupied.any(axis=1)).tolist()
    lows = occupied.argmax(axis=1).tolist()
    highs = (occupied.shape[1] - 1 - occupied[:, ::-1].argmax(axis=1)).tolist()
    points = [(i, j) for i in rows for j in dict.fromkeys((lows[i], highs[i]))]

    def half(chain):  # one side of the hull, turning counter-clockwise
        out = []
        for x, y in chain:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (y - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (x - out[-2][0])) <= 0:
                out.pop()
            out.append((x, y))
        return out[:-1]

    hull = half(points) + half(points[::-1])  # empty for a single point
    twice_area = boundary = 0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x0 * y1 - x1 * y0
        boundary += math.gcd(x1 - x0, y1 - y0)
    return (abs(twice_area) + boundary) // 2 + 1


@_runner("fig1")
def fig1_region(region_path=None, points_path=None, out_dir=".",
                points_per_axis: int = 200, m: int = 2, n: int = 2,
                sigma2: float = 1e-3, p_max: float = 1e-2,
                gains2=(1.0, 1.0), rates=(1.0, 1.0), leader: int = 0,
                hull_bins: int = 24) -> Fig1Result:
    """Two-player utility region with equilibrium/cooperation points marked."""
    if points_per_axis < 2 or hull_bins < 2:
        raise ValueError("fig1 needs points_per_axis >= 2 and hull_bins >= 2, got "
                         f"{points_per_axis} and {hull_bins}")
    k = 2
    model = PacketSuccess(m)
    sinrs = solve_all(model, k, n)
    cfg = NetworkConfig(k=k, n=n, sigma2=sigma2, rates=tuple(rates),
                        p_max=(p_max,) * k, eta_min=tuple(gains2),
                        eta_max=tuple(gains2))
    ch = ChannelState(tuple(gains2))
    config = {"experiment": "fig1", "k": k, "m": m, "n": n, "sigma2": sigma2,
              "p_max": p_max, "gains2": list(gains2), "rates": list(rates),
              "points_per_axis": points_per_axis, "leader": leader,
              "hull_bins": hull_bins}

    powers, utils_norm = sample_utility_region(model, cfg, ch, points_per_axis)
    region_path = region_path or _default_path(out_dir, "fig1_region")
    # the grid is row-major over two axes of points_per_axis powers each:
    # format each axis once, and each utility as it comes
    p1, p2 = ([repr(p) for p in axis.tolist()] for axis in
              (powers[::points_per_axis, 0], powers[:points_per_axis, 1]))
    _write_csv(region_path, "fig1_region", config, None,
               ["p1", "p2", "u1_norm", "u2_norm"],
               zip([p for p in p1 for _ in p2], p2 * len(p1),
                   *(map(repr, u) for u in utils_norm.T.tolist())))

    g2 = np.asarray(gains2)
    best = int(np.argmax((utils_norm * g2).sum(axis=1)))

    def marked(kind, builder) -> MarkedPoint:
        try:
            profile, u = builder()
        except SaturatedRegimeError:
            return MarkedPoint(kind, (0.0,) * k, (0.0,) * k, True)
        return MarkedPoint(kind, tuple(map(float, profile.p)),
                           tuple(float(v) for v in np.asarray(u.u) / g2), False)

    def with_utils(profile):
        return profile, utility(model, cfg, ch, profile)

    pts = [
        marked("ne", lambda: with_utils(ne_profile(cfg, ch, sinrs.beta_star))),
        marked("se", lambda: se_profiles(model, cfg, ch, sinrs.beta_star,
                                         sinrs.gamma_star, leader)),
        marked("op", lambda: with_utils(op_profile(cfg, ch, sinrs.gamma_tilde))),
        MarkedPoint("welfare_max", tuple(map(float, powers[best])),
                    tuple(map(float, utils_norm[best])), False),
    ]
    points_path = points_path or _default_path(out_dir, "fig1_points")
    _write_csv(points_path, "fig1_points", config, None,
               ["kind", "p1", "p2", "u1_norm", "u2_norm", "saturated"],
               _cells([p.kind, *p.powers, *p.utils_norm, p.saturated] for p in pts))

    step = tuple(pm / (points_per_axis - 1) for pm in cfg.p_max)
    op_p = np.asarray(pts[2].powers)
    cell_dist = float(np.max(np.abs(op_p - powers[best]) / np.asarray(step)))
    dominates = pareto_dominates(UtilityProfile(pts[2].utils_norm),
                                 UtilityProfile(pts[0].utils_norm))
    ratio = _convexity_ratio(utils_norm, hull_bins)
    return Fig1Result(region_path, points_path, tuple(pts), step, cell_dist,
                      cell_dist <= 1.0 + 1e-9, dominates, ratio)


# ---------------------------------------------------------- fig2 / fig3


@dataclass(frozen=True)
class DynamicsRow:
    k: int
    n: int
    x: float  # horizon T (fig2) or stopping probability (fig3)
    ratio_max: float
    dynamics_db: float
    admissible: bool


@dataclass(frozen=True)
class DynamicsResult:
    csv_path: str
    rows: tuple[DynamicsRow, ...]


def _uniform_cfg(k, n, sigma2, p_max, eta_min, ratio) -> NetworkConfig:
    return NetworkConfig.uniform(k=k, n=n, sigma2=sigma2, rate=1.0,
                                 p_max=p_max, eta_min=eta_min,
                                 eta_max=eta_min * ratio)


def _dynamics_sweep(csv_path, out_dir, name, x_name, config, grid, edge):
    """One row per (curve, x) at the largest gain ratio edge(k, n, beta_star, terms)(x)."""
    curves = config["curves"]
    if any(k < 2 for k, _ in curves):
        raise ValueError(f"dynamics curves need k >= 2 players, got {curves}")
    model = PacketSuccess(config["m"])
    rows = []
    for k, n in curves:
        sinrs = solve_all(model, k, n)
        at = edge(k, n, sinrs.beta_star,
                  _bound_terms(model, k, n, sinrs.beta_star, sinrs.gamma_tilde))
        for x in grid:
            best = at(x)
            rows.append(DynamicsRow(k, n, x, best, dynamics_db(1.0, best), True)
                        if best >= 1.0 else DynamicsRow(k, n, x, 1.0, 0.0, False))
    csv_path = csv_path or _default_path(out_dir, name)
    _write_csv(csv_path, name, config, None,
               ["k", "n", x_name, "ratio_max", "dynamics_db", "admissible"],
               _cells(map(astuple, rows)))
    return DynamicsResult(csv_path, tuple(rows))


@_runner("fig2")
def fig2_dynamics_vs_t(csv_path=None, out_dir=".",
                       curves=((2, 2), (4, 5), (10, 12)), m: int = 2,
                       t_grid=tuple(range(1, 51)), sigma2: float = 1e-3,
                       p_max: float = 100.0, eta_min: float = 1.0) -> DynamicsResult:
    """Max admissible gain dynamics (dB) vs finite horizon, per (k, n) curve."""

    def edge(k, n, beta_star, terms):
        cfg = _uniform_cfg(k, n, sigma2, p_max, eta_min, 1.0)
        return partial(_t0_edge, beta_star, terms, _punish_interference(cfg)[0])

    config = {"curves": [list(c) for c in curves], "m": m,
              "t_grid": list(t_grid), "sigma2": sigma2, "p_max": p_max,
              "eta_min": eta_min}
    return _dynamics_sweep(csv_path, out_dir, "fig2", "t", config, t_grid, edge)


@_runner("fig3")
def fig3_dynamics_vs_lambda(csv_path=None, out_dir=".",
                            curves=((2, 2), (4, 5), (10, 12)), m: int = 2,
                            lambda_grid=tuple(np.linspace(0.005, 0.25, 50)),
                            ) -> DynamicsResult:
    """Max admissible gain dynamics (dB) vs stopping probability, per curve (scale-free)."""
    grid = [float(v) for v in lambda_grid]
    if not all(0.0 < lam < 1.0 for lam in grid):
        raise ValueError(f"stopping probabilities must lie in (0, 1), got {grid}")

    def edge(k, n, beta_star, terms):
        return partial(_lambda_edge, k, terms)

    config = {"curves": [list(c) for c in curves], "m": m, "lambda_grid": grid}
    return _dynamics_sweep(csv_path, out_dir, "fig3", "lam", config, grid, edge)


# ---------------------------------------------------------------- fig4


@dataclass(frozen=True)
class Fig4Row:
    m: int
    k: int
    alpha: float
    op_gain_mean: float
    op_gain_stderr: float
    se_gain_mean: float
    se_gain_stderr: float
    alpha_max: float


@dataclass(frozen=True)
class Fig4Result:
    csv_path: str
    rows: tuple[Fig4Row, ...]
    skipped: tuple[tuple[int, int, str], ...]


def max_supported_players(model, n: int) -> int:
    """Largest k with (k-1) * beta_star < n (one-shot equilibrium exists)."""
    beta = solve_all(model, 1, n).beta_star  # NoNashEquilibriumError if beta_star is 0
    return int(math.ceil(n / beta + 1.0)) - 1


def _fig4_point(indexed, n, replicas, seed, eta_min, eta_max, mean_gain2, leader):
    """The Fig4Row of load point (m, k), drawn from substream point_idx, or an
    (m, k, reason) skip past the one-shot or leader-follower load."""
    point_idx, (m, k) = indexed
    model = PacketSuccess(m)
    try:
        sinrs = solve_all(model, k, n)
        beta, gamma, tilde = sinrs.beta_star, sinrs.gamma_star, sinrs.gamma_tilde
        _, c_ne, c_op = _bound_terms(model, k, n, beta, tilde)
        bn, gn, d = _leader_margin(k, n, beta, gamma)
    except NoNashEquilibriumError as exc:
        return m, k, str(exc)
    c_lead, = _leader_follower_utilities(model, gamma, bn, (d,))
    c_follow, = _leader_follower_utilities(model, beta, gn, (d,))

    process = ChannelProcess(
        mode=ChannelMode.PER_STAGE, mean_gain2=(mean_gain2,) * k,
        eta_min=(eta_min,) * k, eta_max=(eta_max,) * k, seed=seed)
    g2 = draw_block(process, replicas, substream=point_idx)
    total = g2.sum(axis=1)
    op_gain = np.full(replicas, c_op / c_ne - 1.0)
    followers = total - g2[:, leader]
    se_gain = (c_lead * g2[:, leader] + c_follow * followers) / (c_ne * total) - 1.0
    op_mu, op_se = _mean_stderr(op_gain)
    se_mu, se_se = _mean_stderr(se_gain)
    return Fig4Row(m, k, k / n, op_mu, op_se, se_mu, se_se, 1.0 / beta + 1.0 / n)


@_runner("fig4")
def fig4_welfare_vs_load(csv_path=None, out_dir=".", n: int = 128,
                         m_values=(10, 100), k_grids=None,
                         replicas: int = 10_000, seed: int = DEFAULT_SEED,
                         eta_min: float = 0.05, eta_max: float = 20.0,
                         mean_gain2: float = 1.0, leader: int = 0,
                         workers: int = 1) -> Fig4Result:
    """Welfare gain of cooperation and of leader-follower play vs load k/n.

    Gains are utility-ratio improvements over the one-shot equilibrium,
    averaged over channel draws; they do not depend on sigma2 or the rate
    in the non-saturated regime, so neither is a parameter here.
    """
    if k_grids is None:
        k_grids = {m: range(2, max_supported_players(PacketSuccess(m), n) + 1)
                   for m in m_values}
    else:  # JSON round-trips dict keys as strings
        k_grids = {int(m): list(ks) for m, ks in dict(k_grids).items()}
        for m in m_values:
            if m not in k_grids:
                raise ValueError(f"fig4 needs a grid in k_grids for every m, got none for m = {m}")
    point = partial(_fig4_point, n=n, replicas=replicas, seed=seed, eta_min=eta_min,
                    eta_max=eta_max, mean_gain2=mean_gain2, leader=leader)
    results = _map_ordered(point, list(enumerate((m, k) for m in m_values
                                                 for k in k_grids[m])), workers)
    rows = [r for r in results if isinstance(r, Fig4Row)]
    skipped = [r for r in results if not isinstance(r, Fig4Row)]

    config = {"n": n, "m_values": list(m_values),
              "k_grids": {str(m): list(k_grids[m]) for m in m_values},
              "replicas": replicas, "eta_min": eta_min, "eta_max": eta_max,
              "mean_gain2": mean_gain2, "leader": leader}
    csv_path = csv_path or _default_path(out_dir, "fig4")
    _write_csv(csv_path, "fig4", config, seed,
               ["m", "k", "alpha", "op_gain_mean", "op_gain_stderr",
                "se_gain_mean", "se_gain_stderr", "alpha_max"],
               _cells(map(astuple, rows)))
    return Fig4Result(csv_path, tuple(rows), tuple(skipped))


# ---------------------------------------------------------------- fig5


@dataclass(frozen=True)
class Fig5Row:
    t: int
    cooperation_stages: int
    no_window: bool
    ratio_mean: float
    ratio_stderr: float
    formula_ratio_mean: float
    limit_ratio: float


@dataclass(frozen=True)
class Fig5Result:
    csv_path: str
    rows: tuple[Fig5Row, ...]
    t0: int
    limit_ratio: float


def _fig5_replica(j, process, t_grid, t0, rate_coop, rate_ne, phi_op, phi_ne):
    """Trajectory and closed-form ratios of replica j at every horizon.

    The trajectory route accumulates stage welfare from powers and the
    efficiency values (the quantities the game engine would emit on-path);
    the closed-form route uses the equal-action utility factors.  They agree
    up to rounding and are both reported.
    """
    t = np.asarray(t_grid)
    g2 = draw_block(process, int(t.max()), substream=j)
    w = np.concatenate([[0.0], np.cumsum(g2.sum(axis=1))])
    a = w[np.maximum(0, t - t0)]
    b = w[t] - a
    return ((rate_coop * a + rate_ne * b) / (rate_ne * (a + b)),
            (phi_op * a + phi_ne * b) / (phi_ne * (a + b)))


@_runner("fig5")
def fig5_frg_ratio_vs_t(csv_path=None, out_dir=".", k: int = 35, m: int = 10,
                        n: int = 128, p_max: float = 1e-2,
                        sigma2: float = 1e-5, dynamics_db: float = 3.0,
                        eta_min: float = 1e4, mean_gain2: float | None = None,
                        t_multiples=(1, 2, 5, 10, 20, 50, 100),
                        replicas: int = 1000, seed: int = DEFAULT_SEED,
                        workers: int = 1) -> Fig5Result:
    """Cooperative-over-equilibrium utility ratio vs finite horizon.

    Per draw, the ratio of horizon-averaged network utility under the
    cooperate-then-endgame plan to the all-equilibrium baseline; the large-
    horizon limit is the equal-action utility factor ratio.  Horizons at or
    below the endgame length have an empty cooperation window (ratio 1,
    flagged in the no_window column).
    """
    model = PacketSuccess(m)
    sinrs = solve_all(model, k, n)
    eta_max = eta_min * 10.0 ** (dynamics_db / 10.0)
    if mean_gain2 is None:
        mean_gain2 = math.sqrt(eta_min * eta_max)
    cfg = NetworkConfig.uniform(k=k, n=n, sigma2=sigma2, rate=1.0,
                                p_max=p_max, eta_min=eta_min, eta_max=eta_max)
    f_ne, phi_ne, phi_op = terms = _bound_terms(model, k, n, sinrs.beta_star, sinrs.gamma_tilde)
    t0 = _t0_from_ratios(_t0_ratios(cfg, sinrs.beta_star, sinrs.gamma_tilde, terms,
                                    _punish_interference(cfg)))
    t_grid = [mult * t0 for mult in t_multiples]

    limit = phi_op / phi_ne
    # stage welfare per unit gain: f(x)/a(x), proportional to phi(x)
    rate_ne = f_ne / ne_action(cfg, sinrs.beta_star)
    rate_coop = model.value(sinrs.gamma_tilde) / _equal_action(cfg, sinrs.gamma_tilde)

    process = ChannelProcess.from_config(cfg, ChannelMode.PER_STAGE,
                                         mean_gain2=mean_gain2, seed=seed)
    replica = partial(_fig5_replica, process=process, t_grid=t_grid, t0=t0,
                      rate_coop=rate_coop, rate_ne=rate_ne, phi_op=phi_op, phi_ne=phi_ne)
    traj, form = (np.array(routes) for routes in
                  zip(*_map_ordered(replica, range(replicas), workers)))

    rows = []
    for col, t in enumerate(t_grid):
        mu, se = _mean_stderr(traj[:, col])
        rows.append(Fig5Row(t, max(0, t - t0), t <= t0, mu, se,
                            float(form[:, col].mean()), limit))

    config = {"k": k, "m": m, "n": n, "p_max": p_max, "sigma2": sigma2,
              "dynamics_db": dynamics_db, "eta_min": eta_min,
              "mean_gain2": mean_gain2, "t_multiples": list(t_multiples),
              "replicas": replicas}
    csv_path = csv_path or _default_path(out_dir, "fig5")
    _write_csv(csv_path, "fig5", config, seed,
               ["t", "t0", "cooperation_stages", "no_window", "ratio_mean",
                "ratio_stderr", "formula_ratio_mean", "limit_ratio"],
               _cells([r.t, t0, r.cooperation_stages, r.no_window, r.ratio_mean,
                       r.ratio_stderr, r.formula_ratio_mean, r.limit_ratio]
                      for r in rows))
    return Fig5Result(csv_path, tuple(rows), t0, limit)


# ------------------------------------------------------- t0 scale sweep


@dataclass(frozen=True)
class SweepRow:
    eta_min: float
    t0: int | None
    matches: bool


@dataclass(frozen=True)
class T0SweepResult:
    csv_path: str
    rows: tuple[SweepRow, ...]
    target: int
    any_match: bool
    implied_eta_min: float | None


@_runner("t0sweep")
def fig5_t0_sweep(csv_path=None, out_dir=".", k: int = 35, m: int = 10,
                  n: int = 128, p_max: float = 1e-2, sigma2: float = 1e-5,
                  dynamics_db: float = 20.0,
                  scales=tuple(10.0 ** e for e in range(-2, 9)),
                  target: int = 2852) -> T0SweepResult:
    """Endgame-length bound across gain-floor decades at fixed dynamics.

    The bound depends on the absolute gain floor through the punishment
    interference term, so the sweep reports which (if any) decade scale
    lands on the target value, plus the closed-form scale that would hit
    the target exactly when the decades bracket it.
    """
    model = PacketSuccess(m)
    sinrs = solve_all(model, k, n)
    ratio = 10.0 ** (dynamics_db / 10.0)
    beta_star, gamma_tilde = sinrs.beta_star, sinrs.gamma_tilde
    terms = _bound_terms(model, k, n, beta_star, gamma_tilde)

    def ratios_at(scale: float):
        cfg = _uniform_cfg(k, n, sigma2, p_max, scale, ratio)
        try:
            return _t0_ratios(cfg, beta_star, gamma_tilde, terms, _punish_interference(cfg))
        except NoFiniteT0Error:
            return None

    per_scale = [ratios_at(s) for s in scales]
    t0s = [None if r is None else _t0_from_ratios(r) for r in per_scale]
    rows = [SweepRow(s, b, b is not None and abs(b - target) <= 1)
            for s, b in zip(scales, t0s)]
    # the real-valued ratio, alike for every player, decreases in the scale, so
    # the decades bracket the target when some finite ratio reaches it and
    # another falls short
    finite = [r[0] for r in per_scale if r]
    implied = None
    if any(r >= target for r in finite) and any(r < target for r in finite):
        implied = _t0_floor_edge(_uniform_cfg(k, n, sigma2, p_max, 1.0, ratio),
                                 beta_star, terms, target)

    config = {"k": k, "m": m, "n": n, "p_max": p_max, "sigma2": sigma2,
              "dynamics_db": dynamics_db, "scales": [float(s) for s in scales],
              "target": target}
    csv_path = csv_path or _default_path(out_dir, "fig5_t0_sweep")
    _write_csv(csv_path, "fig5_t0_sweep", config, None,
               ["eta_min", "t0", "matches_target"], _cells(map(astuple, rows)))
    return T0SweepResult(csv_path, tuple(rows), target,
                         any(r.matches for r in rows), implied)
