"""Seeded workloads for the powergame benchmark, with the checks applied to every op.

Each workload is a closed loop with one caller: the next op is issued only
after the previous one returns.  ``ops(seed)`` is an endless, deterministic
stream of ``Op`` objects; the same seed gives the same inputs, and powergame
receives only those generated inputs.  An op's ``call`` is the timed part;
``check`` (untimed) returns a list of problems, empty when the output is
correct; ``digest`` gives the bytes that ``outputs_sha256`` hashes.

Typed library errors (``PowerGameError``) are valid outcomes of an
``analysis`` op.  Anywhere else, and for any other exception, the op fails.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import powergame as pg
from powergame import experiments, repeated
from powergame.errors import PowerGameError

REL_TOL = 1e-9


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], bytes]
    # typed library errors this op may legitimately raise
    allowed_errors: tuple[type[BaseException], ...] = ()


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _floats(values) -> bytes:
    return ",".join(repr(float(v)) for v in values).encode() + b";"


# ---------------------------------------------------------------- configs


def _dlog(model, x: float) -> float:
    if isinstance(model, pg.PacketSuccess):
        e = math.exp(-x)
        return model.m * e / (1.0 - e)
    return model.c / (x * x)


def _beta_star(model) -> float:
    """Root of x f'(x) = f(x), found here so powergame sees only inputs.

    InfoTheoretic has beta_star = c exactly; PacketSuccess(m >= 2) has its
    root in (0.5, 10) for m <= 100, where x * dlog(x) - 1 falls from + to -.
    """
    if isinstance(model, pg.InfoTheoretic):
        return model.c
    lo, hi = 0.5, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid * _dlog(model, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _random_model(rng: random.Random, m_hi: int, rate_hi: float):
    """A model from either family, with its beta_star."""
    if rng.random() < 0.5:
        m = int(round(math.exp(rng.uniform(math.log(2), math.log(m_hi)))))
        model = pg.PacketSuccess(m)
    else:
        model = pg.InfoTheoretic(rng.uniform(0.3, rate_hi))
    return model, _beta_star(model)


def _random_network(rng: random.Random, beta: float, k: int, load_lo: float,
                    load_hi: float, ratio_lo: float,
                    ratio_hi: float) -> pg.NetworkConfig:
    """Network whose full-power punishment is strong enough for a finite t0.

    The load (k-1) beta / n is at most ``load``, so the one-shot equilibrium
    exists.  t0 is finite when the punishment interference
    sum_j P_j eta_j + sigma2 exceeds eta_max / (eta_min (1 - load)); p_max
    is set to a seeded multiple of that threshold, which also keeps every
    closed-form power far below the cap.
    """
    load = rng.uniform(load_lo, load_hi)
    n = max(1, math.ceil((k - 1) * beta / load))
    sigma2 = 10.0 ** rng.uniform(-4.0, -1.0)
    eta_min = 10.0 ** rng.uniform(-0.5, 0.5)
    eta_max = eta_min * rng.uniform(ratio_lo, ratio_hi)
    need = eta_max / (eta_min * (1.0 - load)) * rng.uniform(2.0, 20.0)
    return pg.NetworkConfig(
        k=k, n=n, sigma2=sigma2,
        rates=tuple(rng.uniform(0.5, 2.0) for _ in range(k)),
        p_max=need / ((k - 1) * eta_min), eta_min=eta_min, eta_max=eta_max)


def _root_residual(model, x: float, coeff: float) -> float:
    return abs(x * (1.0 - coeff * x) * _dlog(model, x) - 1.0)


# --------------------------------------------------------------- analysis

ANALYSIS_WHY = (
    "One op is one config's full report: solve_all, the NE/OP/leader-follower "
    "profiles and utilities at a seeded in-bounds channel, rg_bounds and "
    "t0_bound_exact_deviation.  This is the library and solve/equilibria/"
    "bounds traffic.  The root solve and uniqueness scan do about 90% of the "
    "work, and no channel, engine or CSV code runs.  Configs come from both "
    "efficiency families, sized so most ops reach a full report; typed "
    "errors are valid outcomes."
)


def _analysis_report(model, cfg, ch, leader):
    s = pg.solve_all(model, cfg.k, cfg.n)
    ne = pg.ne_profile(cfg, ch, s.beta_star)
    op = pg.op_profile(cfg, ch, s.gamma_tilde)
    se, se_u = pg.se_profiles(model, cfg, ch, s.beta_star, s.gamma_star, leader)
    bounds = pg.rg_bounds(cfg, model, s.beta_star, s.gamma_tilde)
    return {
        "sinrs": s, "ne": ne, "op": op, "se": se, "se_u": se_u,
        "u_ne": pg.utility(model, cfg, ch, ne),
        "u_op": pg.utility(model, cfg, ch, op),
        "bounds": bounds,
        "t0_exact": pg.t0_bound_exact_deviation(cfg, model, s.beta_star,
                                                s.gamma_tilde),
    }


def check_analysis(model, cfg, ch, r) -> list[str]:
    if isinstance(r, PowerGameError):
        return []
    s, bad = r["sinrs"], []
    coeffs = {
        "beta_star": 0.0,
        "gamma_tilde": (cfg.k - 1) / cfg.n,
        "gamma_star": ((cfg.k - 1) * s.beta_star / cfg.n**2
                       / (1.0 - (cfg.k - 2) * s.beta_star / cfg.n)),
    }
    for name, coeff in coeffs.items():
        res = _root_residual(model, getattr(s, name), coeff)
        if not res <= 1e-9:
            bad.append(f"{name} residual {res:.3e}")
    if not s.gamma_tilde <= s.beta_star:
        bad.append("gamma_tilde > beta_star")
    for label, profile, target in (("ne", r["ne"], s.beta_star),
                                   ("op", r["op"], s.gamma_tilde)):
        err = max(_rel_err(float(x), target)
                  for x in pg.sinr_all(cfg, ch, profile))
        if not err <= REL_TOL:
            bad.append(f"{label} SINR off target by {err:.3e}")
    # 1e-12 relative slack: at light load the two utilities nearly coincide
    if any(o < e * (1.0 - 1e-12) for o, e in zip(r["u_op"].u, r["u_ne"].u)):
        bad.append("an OP utility is below the NE utility")
    t0, t0x = r["bounds"].t0, r["t0_exact"]
    if not t0 >= t0x >= 1:
        bad.append(f"t0 {t0} / t0_exact {t0x} out of order")
    if not 0.0 <= r["bounds"].lambda_max < 1.0:
        bad.append(f"lambda_max {r['bounds'].lambda_max} outside [0, 1)")
    return bad


def _digest_analysis(r) -> bytes:
    if isinstance(r, PowerGameError):
        return type(r).__name__.encode() + b";"
    s, b = r["sinrs"], r["bounds"]
    return (_floats([s.beta_star, s.gamma_tilde, s.gamma_star])
            + _floats(r["ne"].p) + _floats(r["op"].p) + _floats(r["se"].p)
            + _floats(r["se_u"].u) + _floats(r["u_ne"].u) + _floats(r["u_op"].u)
            + _floats([b.t0, b.lambda_max, b.delta, r["t0_exact"]]))


def analysis_op(rng: random.Random) -> Op:
    model, beta = _random_model(rng, m_hi=100, rate_hi=3.0)
    cfg = _random_network(rng, beta, rng.randint(2, 8), load_lo=0.05,
                          load_hi=0.7, ratio_lo=1.0, ratio_hi=4.0)
    ch = pg.ChannelState(tuple(rng.uniform(cfg.eta_min[i], cfg.eta_max[i])
                               for i in range(cfg.k)))
    leader = rng.randrange(cfg.k)
    return Op("report",
              lambda: _analysis_report(model, cfg, ch, leader),
              lambda r: check_analysis(model, cfg, ch, r),
              _digest_analysis,
              allowed_errors=(PowerGameError,))


def analysis_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    while True:
        yield analysis_op(rng)


# ---------------------------------------------------------------- studies

STUDIES_WHY = (
    "What `powergame experiment` does: one op is one runner call (fig1 .. "
    "fig5, t0 sweep) with seeded reduced-size arguments, writing CSVs.  It "
    "is the only workload with bulk sampling (fig5 at acceptance mass 0.25, "
    "fig4 at 0.95), the fig2/fig3 bisection over t0_bound/lambda_bound, the "
    "region grid with its hull and CSV writer, and the lazy scipy.spatial "
    "import (paid in set-up).  The mix is sized so no runner takes more than "
    "half the timed work."
)

COMMENT_KEYS = ("# experiment:", "# config:", "# seed:", "# version:")

COLUMNS = {
    "fig1_region": ["p1", "p2", "u1_norm", "u2_norm"],
    "fig1_points": ["kind", "p1", "p2", "u1_norm", "u2_norm", "saturated"],
    "fig2": ["k", "n", "t", "ratio_max", "dynamics_db", "admissible"],
    "fig3": ["k", "n", "lam", "ratio_max", "dynamics_db", "admissible"],
    "fig4": ["m", "k", "alpha", "op_gain_mean", "op_gain_stderr",
             "se_gain_mean", "se_gain_stderr", "alpha_max"],
    "fig5": ["t", "t0", "cooperation_stages", "no_window", "ratio_mean",
             "ratio_stderr", "formula_ratio_mean", "limit_ratio"],
    "fig5_t0_sweep": ["eta_min", "t0", "matches_target"],
}

# One block of the mix; each block is shuffled by the seed.  Sizes are
# chosen so no runner takes more than half of the timed work.
STUDIES_BLOCK = ("fig1", "fig2", "fig3", "fig3", "fig4", "fig4",
                 "fig5", "fig5", "t0sweep", "t0sweep")


def read_study_csv(path: str, table: str) -> tuple[list[dict], list[str]]:
    """Rows of a runner's CSV as dicts, plus the format problems found."""
    bad = []
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    for key, line in zip(COMMENT_KEYS, lines[:4]):
        if not line.startswith(key):
            bad.append(f"{table}: comment line {line!r} lacks {key!r}")
    rows = list(csv.reader(lines[4:]))
    if not rows or rows[0] != COLUMNS[table]:
        return [], bad + [f"{table}: header {rows[:1]} != {COLUMNS[table]}"]
    out = []
    for row in rows[1:]:
        if len(row) != len(COLUMNS[table]):
            bad.append(f"{table}: row {row} has {len(row)} cells")
            continue
        rec = {}
        for col, cell in zip(COLUMNS[table], row):
            if col == "kind":
                rec[col] = cell
                continue
            try:
                rec[col] = float(cell) if cell != "" else None
            except ValueError:
                bad.append(f"{table}: {col}={cell!r} is not a number")
        out.append(rec)
    return out, bad


def _monotone(rows, x: str, y: str, increasing: bool) -> bool:
    by_curve: dict[tuple, list] = {}
    for r in rows:
        by_curve.setdefault((r["k"], r["n"]), []).append((r[x], r[y]))
    for pts in by_curve.values():
        ys = [v for _, v in sorted(pts)]
        steps = zip(ys, ys[1:])
        if not all((b >= a) if increasing else (b <= a) for a, b in steps):
            return False
    return True


def check_study(kind: str, args: dict, paths: dict[str, str]) -> list[str]:
    bad, tables = [], {}
    for table, path in paths.items():
        rows, problems = read_study_csv(path, table)
        tables[table] = rows
        bad += problems
    if bad:
        return bad
    if kind == "fig1":
        if len(tables["fig1_region"]) != args["points_per_axis"] ** 2:
            bad.append("fig1 region row count")
        if len(tables["fig1_points"]) != 4:
            bad.append("fig1 marked-point count")
    elif kind == "fig2":
        rows = tables["fig2"]
        if len(rows) != len(args["curves"]) * len(args["t_grid"]):
            bad.append("fig2 row count")
        if not _monotone(rows, "t", "dynamics_db", increasing=True):
            bad.append("fig2 dynamics decrease in T")
    elif kind == "fig3":
        rows = tables["fig3"]
        if len(rows) != len(args["curves"]) * len(args["lambda_grid"]):
            bad.append("fig3 row count")
        if not _monotone(rows, "lam", "dynamics_db", increasing=False):
            bad.append("fig3 dynamics increase in lambda")
    elif kind == "fig4":
        rows = tables["fig4"]
        if not rows:
            bad.append("fig4 has no rows")
        for r in rows:
            if r["op_gain_mean"] < -1e-12 or r["se_gain_mean"] < -1e-12:
                bad.append(f"fig4 negative gain at m={r['m']}, k={r['k']}")
    elif kind == "fig5":
        rows = tables["fig5"]
        if len(rows) != len(args["t_multiples"]):
            bad.append("fig5 row count")
        for r in rows:
            if _rel_err(r["ratio_mean"], r["formula_ratio_mean"]) > REL_TOL:
                bad.append(f"fig5 t={r['t']:.0f}: ratio_mean "
                           f"{r['ratio_mean']!r} != formula "
                           f"{r['formula_ratio_mean']!r}")
            if r["ratio_mean"] < 1.0 - 1e-12:
                bad.append(f"fig5 t={r['t']:.0f}: ratio below 1")
    elif kind == "t0sweep":
        if len(tables["fig5_t0_sweep"]) != len(args["scales"]):
            bad.append("t0 sweep row count")
    return bad


# the runners' default (k, n) curves; each admits the one-shot equilibrium
DYNAMICS_CURVES = ((2, 2), (4, 5), (10, 12))
# largest fig4 load per m at n = 128 with both equilibria existing
FIG4_K_MAX = {10: 30, 100: 18}


def _study_args(kind: str, rng: random.Random) -> dict:
    if kind == "fig1":
        return {"points_per_axis": rng.randint(70, 80), "m": rng.randint(2, 3),
                "n": rng.randint(2, 4),
                "gains2": (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
                "leader": rng.randrange(2)}
    if kind == "fig2":
        return {"curves": (rng.choice(DYNAMICS_CURVES),),
                "t_grid": tuple(sorted(rng.sample(range(1, 51), 4)))}
    if kind == "fig3":
        lo = rng.uniform(0.005, 0.05)
        return {"curves": (rng.choice(DYNAMICS_CURVES),),
                "lambda_grid": tuple(lo + 0.02 * i for i in range(12))}
    if kind == "fig4":
        m = rng.choice(tuple(FIG4_K_MAX))
        ks = sorted(rng.sample(range(2, FIG4_K_MAX[m] + 1), 4))
        return {"m_values": (m,), "k_grids": {m: ks},
                "replicas": rng.randint(1800, 2200)}
    if kind == "fig5":
        return {"k": rng.randint(30, 35), "replicas": 2,
                "dynamics_db": rng.uniform(2.5, 3.5),
                "t_multiples": (1, 2, 5, 10, 20, 50, 100)}
    return {"k": rng.randint(25, 35), "m": rng.randint(5, 10),
            "scales": tuple(10.0 ** e for e in range(-2, rng.randint(6, 9)))}


def _run_study(kind: str, args: dict, out_dir: str, seed: int) -> dict[str, str]:
    def path(table):
        return os.path.join(out_dir, table + ".csv")

    if kind == "fig1":
        experiments.fig1_region(region_path=path("fig1_region"),
                                points_path=path("fig1_points"), **args)
        return {"fig1_region": path("fig1_region"),
                "fig1_points": path("fig1_points")}
    if kind == "fig2":
        experiments.fig2_dynamics_vs_t(csv_path=path("fig2"), **args)
        return {"fig2": path("fig2")}
    if kind == "fig3":
        experiments.fig3_dynamics_vs_lambda(csv_path=path("fig3"), **args)
        return {"fig3": path("fig3")}
    if kind == "fig4":
        experiments.fig4_welfare_vs_load(csv_path=path("fig4"), seed=seed,
                                         workers=1, **args)
        return {"fig4": path("fig4")}
    if kind == "fig5":
        experiments.fig5_frg_ratio_vs_t(csv_path=path("fig5"), seed=seed,
                                        workers=1, **args)
        return {"fig5": path("fig5")}
    experiments.fig5_t0_sweep(csv_path=path("fig5_t0_sweep"), **args)
    return {"fig5_t0_sweep": path("fig5_t0_sweep")}


def _digest_study(paths: dict[str, str]) -> bytes:
    out = b""
    for table in sorted(paths):
        with open(paths[table], "rb") as fh:
            out += table.encode() + b"\n" + fh.read()
    return out


def study_op(kind: str, args: dict, out_dir: str, seed: int) -> Op:
    return Op(kind,
              lambda: _run_study(kind, args, out_dir, seed),
              lambda paths: check_study(kind, args, paths),
              _digest_study)


def studies_ops(seed: int, out_dir: str) -> Iterator[Op]:
    rng = random.Random(seed)
    while True:
        block = list(STUDIES_BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield study_op(kind, _study_args(kind, rng), out_dir,
                           rng.getrandbits(32))


# ------------------------------------------------------------------- play

PLAY_WHY = (
    "Repeated-game simulation on seeded enforceable instances: one op is one "
    "scripted game (draw_sequence at PER_STAGE, make_machines, run_game).  "
    "Per instance: a conforming FRG run at t0_bound plus best-response "
    "deviations by each player at each early stage, then a DRG run at "
    "0.9 lambda_max plus one deviation per player.  The instance's first op "
    "also solves and bounds it (solve_all, rg_bounds).  The engine and stage "
    "kernel do most of the work; engine draws use one small Philox generator "
    "per (player, stage), not bulk blocks.  Instances are built enforceable "
    "by construction, with no rejection search through solve_all."
)

FRG_WINDOW = 30      # cooperative stages before the t0-stage endgame
EARLY_STAGES = 5     # FRG deviations are tried at stages 1..EARLY_STAGES
DRG_HORIZON = 150    # truncation of the random-stopping game


@dataclass
class PlayInstance:
    model: Any
    cfg: pg.NetworkConfig
    process: pg.ChannelProcess
    sinrs: Any = None
    bounds: Any = None
    frg_base: Any = None
    drg_base: Any = None


def _play_instance(rng: random.Random, k: int) -> PlayInstance:
    # high load, small beta_star and little gain spread keep lambda_max
    # away from 0, so the discounted game has a meaningful horizon
    model, beta = _random_model(rng, m_hi=3, rate_hi=1.0)
    cfg = _random_network(rng, beta, k, load_lo=0.6, load_hi=0.9,
                          ratio_lo=1.3, ratio_hi=1.5)
    # The mean that keeps the most Exponential mass inside the gain bounds:
    # 0.10-0.15 for these spreads, so every instance's engine draws reject
    # at a similar rate (a narrow band at a poor mean would cost ~1000 tries
    # per gain and swamp the run).
    lo, hi = cfg.eta_min[0], cfg.eta_max[0]
    mean = (hi - lo) / math.log(hi / lo)
    process = pg.ChannelProcess(
        mode=pg.ChannelMode.PER_STAGE, mean_gain2=(mean,) * cfg.k,
        eta_min=cfg.eta_min, eta_max=cfg.eta_max, seed=rng.getrandbits(63))
    return PlayInstance(model, cfg, process)


def _plan(inst: PlayInstance, drg: bool):
    if drg:
        return repeated.DrgPlan(0.9 * inst.bounds.lambda_max)
    return repeated.FrgPlan(t_total=inst.bounds.t0 + FRG_WINDOW,
                            t0=inst.bounds.t0)


def _play_game(inst: PlayInstance, drg: bool, scenario) -> list:
    plan = _plan(inst, drg)
    stages = DRG_HORIZON if drg else plan.t_total
    channels = pg.draw_sequence(inst.process, stages)
    machines = pg.make_machines(inst.cfg, inst.model, plan,
                                inst.sinrs.beta_star, inst.sinrs.gamma_tilde)
    return pg.run_game(inst.model, inst.cfg, channels, machines, scenario,
                       beta_star=inst.sinrs.beta_star)


def _first_game(inst: PlayInstance) -> list:
    """Plan the instance (solve and bound it), then play the conforming FRG."""
    inst.sinrs = pg.solve_all(inst.model, inst.cfg.k, inst.cfg.n)
    inst.bounds = pg.rg_bounds(inst.cfg, inst.model, inst.sinrs.beta_star,
                               inst.sinrs.gamma_tilde)
    return _play_game(inst, False, None)


def _frg_average(trace, i: int) -> float:
    return math.fsum(r.utilities[i] for r in trace) / len(trace)


def _drg_average(trace, i: int, lam: float) -> tuple[float, float]:
    """Criterion-06 discounted average and its truncated-tail bound."""
    u = [r.utilities[i] for r in trace]
    value = math.fsum(lam * (1.0 - lam) ** t * v for t, v in enumerate(u))
    return value, (1.0 - lam) ** len(u) * max(u)


def check_trace(inst: PlayInstance, trace, drg: bool, scenario) -> list[str]:
    bad = []
    cfg = inst.cfg
    for r in trace:
        omega = cfg.sigma2 + math.fsum(p * g for p, g in zip(r.powers, r.gains2))
        if _rel_err(r.omega, omega) > 1e-12:
            bad.append(f"stage {r.t}: omega {r.omega!r} != {omega!r}")
            break
    if scenario is None:
        if any(r.deviation_detected for r in trace):
            bad.append("conforming play flagged a deviation")
        return bad
    r = trace[scenario.stage - 1]
    if all(ph == repeated.Phase.COOPERATE.value for ph in r.phases) \
            and not r.deviation_detected:
        bad.append(f"deviation at cooperating stage {scenario.stage} not flagged")
    i = scenario.player
    if drg:
        lam = _plan(inst, True).lam
        base, base_tail = _drg_average(inst.drg_base, i, lam)
        dev, dev_tail = _drg_average(trace, i, lam)
        gain = dev - (base + base_tail + dev_tail)
    else:
        base = _frg_average(inst.frg_base, i)
        gain = _frg_average(trace, i) - base
    if gain / max(1.0, abs(base)) > REL_TOL:
        bad.append(f"player {i + 1} gains {gain:.3e} by deviating")
    return bad


def _digest_trace(trace) -> bytes:
    return b"".join(_floats(r.powers) + _floats(r.utilities)
                    + _floats([r.omega, r.deviation_detected]) for r in trace)


def _conforming_op(inst: PlayInstance, drg: bool, first: bool) -> Op:
    def call():
        trace = _first_game(inst) if first else _play_game(inst, drg, None)
        if drg:
            inst.drg_base = trace
        else:
            inst.frg_base = trace
        return trace

    return Op("drg_conform" if drg else "frg_conform", call,
              lambda t: check_trace(inst, t, drg, None), _digest_trace)


def _deviation_op(inst: PlayInstance, drg: bool, player: int, stage: int) -> Op:
    scenario = repeated.DeviationScenario(player=player, stage=stage,
                                          power="best_response",
                                          best_response_after=True)
    return Op("drg_deviate" if drg else "frg_deviate",
              lambda: _play_game(inst, drg, scenario),
              lambda t: check_trace(inst, t, drg, scenario), _digest_trace)


def play_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    for index in itertools.count():
        # k alternates so every run plays the same mix of game sizes
        inst = _play_instance(rng, k=2 + index % 2)
        yield _conforming_op(inst, drg=False, first=True)
        if inst.bounds is None:
            continue  # planning failed; that op was counted as failed
        for i in range(inst.cfg.k):
            for stage in range(1, EARLY_STAGES + 1):
                yield _deviation_op(inst, False, i, stage)
        yield _conforming_op(inst, drg=True, first=False)
        if inst.drg_base is None:
            continue
        for i in range(inst.cfg.k):
            yield _deviation_op(inst, True, i, 1)


# ------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Callable[[int, str], Iterator[Op]]   # (seed, scratch dir) -> ops


WORKLOADS = {
    "analysis": Workload("analysis", ANALYSIS_WHY, lambda s, d: analysis_ops(s)),
    "studies": Workload("studies", STUDIES_WHY, studies_ops),
    "play": Workload("play", PLAY_WHY, lambda s, d: play_ops(s)),
}
