"""Command-line front end: solvers, equilibria, bounds, simulation, experiments.

Scenario files are JSON with keys mirroring the library's config types::

    {
      "model":   {"family": "pkt", "m": 2}            // or {"family": "exp",
                                                      //     "rate": 1.0 | "c": 0.5}
      "network": {"k": 2, "n": 1, "sigma2": 1.0, "rates": 1.0,
                  "p_max": 10.0, "eta_min": 1.0, "eta_max": 1.0},
      "channel": {"mode": "constant", "mean_gain2": 1.0},   // optional
      "gains2":  [1.0, 1.0],                                // optional: skip drawing
      "plan":    {"type": "frg", "t_total": 10, "t0": 3}    // simulate only
                 // or {"type": "drg", "lam": 0.1}
      "deviation": {"player": 1, "stage": 5, "power": "max",
                    "best_response_after": false}           // optional script
    }

Per-player fields accept a scalar (applied to everyone) or a k-length list.
``--set key=value`` overrides dotted scenario keys (``--set network.k=4``);
values parse as JSON, falling back to plain strings.  Players are 1-based on
the command line and in all emitted files.

Seed precedence: ``--seed`` flag, then the POWERGAME_SEED environment
variable, then the documented default 1729.  ``--set`` wins over any flag
for the same value (runner arguments; simulate's plan and deviation; the
channel seed of simulate and equilibria), a flag fills in what it left
unset, and both win over the file.

Exit codes: 0 success; 1 other error; 2 usage; 3 saturated regime;
4 no one-shot equilibrium; 5 no finite cooperation horizon; 6 bad channel
config.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from . import experiments
from .channel import ChannelMode, ChannelProcess, draw_sequence
from .efficiency import (
    InfoTheoretic,
    PacketSuccess,
    solve_all,
)
from .errors import (
    ChannelConfigError,
    NoFiniteT0Error,
    NoNashEquilibriumError,
    PowerGameError,
    SaturatedRegimeError,
)
from .experiments import DEFAULT_SEED
from .repeated import (
    DeviationScenario,
    DrgPlan,
    FrgPlan,
    _bound_terms,
    _surplus,
    averaged_utility_drg,
    averaged_utility_frg,
    drg_truncation_horizon,
    lambda_bound,
    make_machines,
    rg_bounds,
    run_game,
    t0_bound,
    trace_to_csv,
)
from .static_game import ChannelState, NetworkConfig, ne_profile, op_profile, se_profiles, utility

_EXIT_BY_ERROR = (
    (SaturatedRegimeError, 3),
    (NoNashEquilibriumError, 4),
    (NoFiniteT0Error, 5),
    (ChannelConfigError, 6),
)


def _emit(key, value) -> None:
    if isinstance(value, float):
        value = repr(float(value))  # plain repr even for numpy scalars
    print(f"{key}={value}")


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_overrides(doc: dict, pairs) -> dict:
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--set needs key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"cannot descend into scalar at {part!r}")
        node[parts[-1]] = _parse_value(raw)
    return doc


def _field(fields, name: str, kind, where: str):
    """fields[name] converted by kind; a ValueError naming the field when it is
    missing (or None) or has the wrong type."""
    if not isinstance(fields, dict) or fields.get(name) is None:
        raise ValueError(f"{where} needs {name}")
    try:
        return kind(fields[name])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} field {name} cannot be {fields[name]!r}") from None


def _integer(value) -> int:
    """An integer field: an int, an integral float or a decimal string, never
    a bool, so a non-integral size is rejected rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError
    return int(value)


def _reals(value):
    """A per-player field: one number for everyone, or a list of numbers."""
    return [float(v) for v in value] if isinstance(value, list) else float(value)


def _build_model(fields: dict):
    family = fields.get("family")
    where = f"model family {family!r}"
    if family == "pkt":
        return PacketSuccess(_field(fields, "m", _integer, where))
    if family == "exp":
        if fields.get("c") is not None:
            return InfoTheoretic.from_c(_field(fields, "c", float, where))
        return InfoTheoretic(_field(fields, "rate", float, where))
    raise ValueError(f"unknown model family {family!r} (want 'pkt' or 'exp')")


def _build_network(fields: dict) -> NetworkConfig:
    kinds = {"k": _integer, "n": _integer, "sigma2": float, "rates": _reals, "p_max": _reals,
             "eta_min": _reals, "eta_max": _reals}
    return NetworkConfig(**{name: _field(fields, name, kind, "network")
                            for name, kind in kinds.items()})


def _scenario(args):
    """The scenario document with its overrides, its model, network and SINRs."""
    with open(args.scenario) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    doc = _apply_overrides(doc, args.set)
    model = _build_model(_field(doc, "model", dict, "scenario"))
    cfg = _build_network(_field(doc, "network", dict, "scenario"))
    return doc, model, cfg, solve_all(model, cfg.k, cfg.n)


def _layered(doc: dict, args, name: str, flags: dict) -> dict:
    """Scenario section ``name``: the flags that are given over the file's keys,
    and the keys ``--set`` gives the section over both."""
    return {**_field({name: {}, **doc}, name, dict, "scenario"),
            **{key: value for key, value in flags.items() if value is not None},
            **_field({name: {}, **_apply_overrides({}, args.set)}, name, dict, "--set")}


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("POWERGAME_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _gains(doc: dict, args, cfg: NetworkConfig, stages: int):
    """Channel states for the run: explicit gains2, or drawn from the process."""
    if "gains2" in doc:
        state = ChannelState(_field(doc, "gains2", lambda g: [float(v) for v in g],
                                    "scenario"))
        if len(state.gains2) != cfg.k:
            raise ValueError("gains2 must list one gain per player")
        for i, (g, lo, hi) in enumerate(zip(state.gains2, cfg.eta_min, cfg.eta_max)):
            if not lo <= g <= hi:
                raise ChannelConfigError(
                    f"gains2 entry {g} of player {i + 1} lies outside its "
                    f"bounds [eta_min, eta_max] = [{lo}, {hi}]")
        return [state] * stages
    chan = {"mode": "constant", "mean_gain2": 1.0,
            **_layered(doc, args, "channel", {"seed": args.seed})}
    process = ChannelProcess.from_config(
        cfg, _field(chan, "mode", ChannelMode, "channel"),
        mean_gain2=_field(chan, "mean_gain2", _reals, "channel"),
        seed=_field(chan, "seed", _integer, "channel") if "seed" in chan else _resolve_seed(args))
    return draw_sequence(process, stages)


def _parse_deviation(text: str) -> dict:
    fields = {}
    for item in text.split(","):
        key, _, raw = item.partition("=")
        fields[key.strip()] = raw.strip()
    return fields


def _player(number: int, k: int, what: str) -> int:
    """The 0-based index of a 1-based player number; a ValueError naming it outside 1..k."""
    if not 1 <= number <= k:
        raise ValueError(f"{what} {number} out of range 1..{k}")
    return number - 1


def _build_deviation(fields: dict, k: int) -> DeviationScenario:
    power = _field(fields, "power",
                   lambda p: p if p in ("max", "best_response") else float(p), "deviation")
    after = str(fields.get("best_response_after", "false")).lower()
    return DeviationScenario(
        player=_player(_field(fields, "player", _integer, "deviation"), k, "deviation player"),
        stage=_field(fields, "stage", _integer, "deviation"), power=power,
        best_response_after=after in ("1", "true", "yes"))


def cmd_solve(args) -> int:
    model = _build_model({"family": args.model, "m": args.m, "rate": args.rate, "c": args.c})
    sinrs = solve_all(model, args.k, args.n)
    terms = _bound_terms(model, args.k, args.n, sinrs.beta_star, sinrs.gamma_tilde)
    _emit("beta_star", sinrs.beta_star)
    _emit("gamma_star", sinrs.gamma_star)
    _emit("gamma_tilde", sinrs.gamma_tilde)
    _emit("phi_beta_star", terms[1])
    _emit("phi_gamma_tilde", terms[2])
    _emit("delta", _surplus(*terms))
    return 0


def cmd_equilibria(args) -> int:
    doc, model, cfg, sinrs = _scenario(args)
    ch = _gains(doc, args, cfg, 1)[0]

    def with_utility(profile):
        return profile, utility(model, cfg, ch, profile)

    # each profile is built in its turn, so an error follows the lines printed before it
    for name, build in (
            ("ne", lambda: with_utility(ne_profile(cfg, ch, sinrs.beta_star))),
            ("op", lambda: with_utility(op_profile(cfg, ch, sinrs.gamma_tilde))),
            ("se", lambda: se_profiles(model, cfg, ch, sinrs.beta_star, sinrs.gamma_star,
                                       _player(args.leader, cfg.k, "--leader")))):
        profile, u = build()
        for i in range(cfg.k):
            _emit(f"{name}_power_{i + 1}", profile.p[i])
            _emit(f"{name}_utility_{i + 1}", u.u[i])
    _emit("se_leader", args.leader)
    return 0


def cmd_bounds(args) -> int:
    _, model, cfg, sinrs = _scenario(args)
    bounds = rg_bounds(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
    _emit("t0", bounds.t0)
    _emit("lambda_max", bounds.lambda_max)
    _emit("delta", bounds.delta)
    return 0


def _build_plan(doc: dict, args):
    plan_doc = _layered(doc, args, "plan", {"type": args.plan, "t_total": args.t,
                                            "t0": args.t0, "lam": args.lam})
    kind = plan_doc.get("type")
    if kind == "frg":
        return FrgPlan(_field(plan_doc, "t_total", _integer, "plan"),
                       _field(plan_doc, "t0", _integer, "plan"))
    if kind == "drg":
        return DrgPlan(_field(plan_doc, "lam", float, "plan"))
    raise ValueError("plan type must be 'frg' or 'drg' (scenario or --plan)")


def cmd_simulate(args) -> int:
    doc, model, cfg, sinrs = _scenario(args)
    plan = _build_plan(doc, args)
    if args.stages is not None and isinstance(plan, FrgPlan):
        raise ValueError("--stages applies to drg plans only: an frg plan plays t_total stages")
    if args.stages is not None and args.stages < 1:
        raise ValueError(f"--stages needs an integer >= 1, got {args.stages}")
    # the bound the plan needs, reported beside it; the run goes ahead anyway
    if isinstance(plan, FrgPlan):
        stages = plan.t_total
        try:
            bound = t0_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
        except NoFiniteT0Error:
            bound = "none"
        report = ("t0_bound", bound, bound != "none" and plan.t0 >= bound)
    else:
        stages = args.stages or min(drg_truncation_horizon(plan.lam), 100_000)
        bound = lambda_bound(cfg, model, sinrs.beta_star, sinrs.gamma_tilde)
        report = ("lambda_max", bound, plan.lam <= bound)

    dev_fields = (_layered({}, args, "deviation", _parse_deviation(args.deviate))
                  if args.deviate else doc.get("deviation"))
    scenario = None if dev_fields is None else _build_deviation(dev_fields, cfg.k)

    strategy = make_machines(cfg, model, plan, sinrs.beta_star,
                             sinrs.gamma_tilde)
    channels = _gains(doc, args, cfg, stages)
    trace = run_game(model, cfg, channels, strategy, scenario,
                     beta_star=sinrs.beta_star)
    out = args.out or experiments._default_path(".", "trace")
    trace_to_csv(out, trace)

    _emit("out", out)
    _emit("stages", len(trace))
    _emit(report[0], report[1])
    _emit("enforceable", int(report[2]))
    detected = trace.t[trace.deviation_detected].tolist()
    _emit("deviation_detected_at", detected[0] if detected else "none")
    for i in range(cfg.k):
        if isinstance(plan, FrgPlan):
            _emit(f"avg_utility_{i + 1}", averaged_utility_frg(trace, i))
        else:
            avg = averaged_utility_drg(trace, i, plan.lam)
            _emit(f"avg_utility_{i + 1}", avg.value)
            _emit(f"avg_utility_tail_bound_{i + 1}", avg.tail_bound)
    return 0


def cmd_experiment(args) -> int:
    runner = experiments.RUNNERS[args.name]
    params = inspect.signature(runner).parameters
    if args.workers is not None and args.workers < 1:  # before the check below
        raise ValueError(f"--workers needs an integer >= 1, got {args.workers}")
    for flag in ("replicas", "workers", "seed"):  # given to a runner that would drop it
        if getattr(args, flag) is not None and flag not in params:
            raise ValueError(f"--{flag} does not apply to {args.name}, which takes no {flag}")
    kwargs = {}
    for pair in args.set or []:
        key, _, raw = pair.partition("=")
        if key not in params:
            raise ValueError(
                f"unknown option {key!r} for {args.name}; valid: "
                + ", ".join(sorted(params)))
        kwargs[key] = _parse_value(raw)  # the runner checks its kind
    # --set names the argument and wins; a flag fills in only what it left unset
    flags = {"workers": args.workers, "replicas": args.replicas, "out_dir": args.out_dir,
             "csv_path" if "csv_path" in params else "region_path": args.out,
             "seed": _resolve_seed}
    for key, flag in flags.items():
        if key in params and key not in kwargs and flag is not None:
            kwargs[key] = flag(args) if callable(flag) else flag

    result = runner(**kwargs)
    if args.name == "fig1":
        _emit("region", result.region_path)
        _emit("points", result.points_path)
        _emit("op_within_one_cell", result.op_within_one_cell)
        _emit("op_dominates_ne", result.op_dominates_ne)
        _emit("convexity_ratio", result.convexity_ratio)
    elif args.name in ("fig2", "fig3"):
        _emit("out", result.csv_path)
        _emit("rows", len(result.rows))
    elif args.name == "fig4":
        _emit("out", result.csv_path)
        _emit("rows", len(result.rows))
        _emit("skipped", len(result.skipped))
    elif args.name == "fig5":
        _emit("out", result.csv_path)
        _emit("t0", result.t0)
        _emit("limit_ratio", result.limit_ratio)
    else:
        _emit("out", result.csv_path)
        _emit("any_match", result.any_match)
        _emit("implied_eta_min", result.implied_eta_min)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powergame",
        description="Energy-efficiency power-control games: solvers, "
                    "equilibria, repeated-game bounds, simulation, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="characteristic SINRs and utility factors")
    p.add_argument("--model", choices=("pkt", "exp"), required=True)
    p.add_argument("--m", type=int, help="packet-success block length")
    p.add_argument("--rate", type=float, help="info-theoretic target rate")
    p.add_argument("--c", type=float, help="info-theoretic SINR constant 2^rate - 1")
    p.add_argument("--k", type=int, default=2, help="number of players")
    p.add_argument("--n", type=int, default=1, help="spreading factor")
    p.set_defaults(fn=cmd_solve)

    for name, fn, about in (
            ("equilibria", cmd_equilibria, {}), ("bounds", cmd_bounds, {}),
            ("simulate", cmd_simulate, {"help": "run a repeated game, write the trace "
                                                "CSV, report whether the plan is enforceable"})):
        p = sub.add_parser(name, **about)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override dotted scenario keys")
        p.add_argument("--seed", type=int)
        p.set_defaults(fn=fn)
        if name == "equilibria":
            p.add_argument("--leader", type=int, default=1,
                           help="1-based leader for the leader-follower point")
    # p is the simulate parser
    p.add_argument("--plan", choices=("frg", "drg"))
    p.add_argument("--t", type=int, help="finite horizon (frg)")
    p.add_argument("--t0", type=int, help="endgame length (frg)")
    p.add_argument("--lam", type=float, help="stopping probability (drg)")
    p.add_argument("--stages", type=int, help="drg truncation override, at least 1")
    p.add_argument("--deviate", metavar="player=I,stage=T,power=P",
                   help="force a deviation (power: watts, 'max', or "
                        "'best_response'; add best_response_after=true)")
    p.add_argument("--out", help="trace CSV path")

    p = sub.add_parser("experiment", help="regenerate a study as CSV")
    p.add_argument("name", choices=sorted(experiments.RUNNERS))
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--replicas", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override runner keyword arguments")
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PowerGameError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for err, code in _EXIT_BY_ERROR if isinstance(exc, err)), 1)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
