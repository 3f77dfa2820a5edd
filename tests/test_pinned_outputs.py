"""Frozen sha256 digests of every emitted CSV at reduced sizes, and of the
analysis commands' stdout.

The digests were taken before the runners, the CLI and the root solvers were
last refactored; a refactor must keep every byte.  A deliberate stream or
layout change updates them and names itself in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

from powergame.cli import main
from powergame.experiments import (
    fig1_region,
    fig2_dynamics_vs_t,
    fig3_dynamics_vs_lambda,
    fig4_welfare_vs_load,
    fig5_frg_ratio_vs_t,
    fig5_t0_sweep,
)

DIGESTS = {
    "fig1_region": "73a12f2d0773dc323f4929982f44bc69454a108e0885b232ee20ccfecd7a9d51",
    "fig1_points": "6a9e264d6a7dfc0e113961082f2eb9a70922ba9f2c193ed5dc61e8de95ca56eb",
    "fig2": "6a2a5f6e2541ff061b3acb097a249147180e84c89c79c22b7c6977d4ac785fe4",
    "fig3": "4c0b72bf05013046efd6ec3951486c614d10b401be56ba2efbec70ac2b7f7858",
    "fig4": "cec9db4dd3e8aab36538499673a268b81276c90556b67b828ee4ed95b02a221b",
    "fig4_workers2": "cec9db4dd3e8aab36538499673a268b81276c90556b67b828ee4ed95b02a221b",
    "fig5": "d3a8500ccf589ed705a1addabe4fbef5222b58f6d375f8b026960a91a4913a8d",
    "fig5_workers2": "d3a8500ccf589ed705a1addabe4fbef5222b58f6d375f8b026960a91a4913a8d",
    "t0sweep": "67975233e2086e4dac667788b70a2b695a7735f425c69274dcdc36260003048a",
    "frg_drawn": "9f3b1cb1a40418e2c6c413446eb14f557c009a67493b0dbbb366f585d10c3a97",
    "frg_explicit": "7feb042533977b77e14d3267b31a1a2f623bdc33266ce6c7edcbb125a5438fff",
    "drg_drawn": "14934dad62e384ae396890a4719915b26915dccf406130978499e9a6e5069b0a",
    "drg_explicit": "08bdff0ab68976ef8438107e07915059f56d7fbde5107b4d3ab5dcd0fac84848",
}

SCENARIO = {
    "model": {"family": "pkt", "m": 3},
    "network": {"k": 3, "n": 4, "sigma2": 1e-3, "rates": 1.0, "p_max": 1.0,
                "eta_min": 0.5, "eta_max": 1.5},
    "channel": {"mode": "per_stage", "mean_gain2": 1.0},
    "deviation": {"player": 2, "stage": 5, "power": "best_response",
                  "best_response_after": True},
}


STDOUT_DIGESTS = {
    "solve_pkt": "f8752d3e4ace38c5b3eec5fbfcfdf0cceb16807f0f9b3e6a5140bbb7f24ebb97",
    "solve_exp": "c4a9f72cefc6673cda2cc35878c97e6ae7a63a979a358b68d0f090f916b4a740",
    "equilibria": "4153c350201a2b8d40cf00217ac4dd5c257f571e2d185b8cfa009dd7683dac04",
    "bounds": "1e638c6f8a4be69d2bbff7f3b9778abd2a1f1b6663f7a776fe567c949bc5e0eb",
}


def _runner_csvs(p):
    fig1 = fig1_region(region_path=str(p / "region.csv"),
                       points_path=str(p / "points.csv"),
                       points_per_axis=30, hull_bins=8)
    fig4 = dict(n=16, m_values=(10,), k_grids={10: [2, 3, 4]}, replicas=300)
    fig5 = dict(replicas=7, t_multiples=(1, 2, 5))
    return {
        "fig1_region": fig1.region_path,
        "fig1_points": fig1.points_path,
        "fig2": fig2_dynamics_vs_t(csv_path=str(p / "fig2.csv"),
                                   t_grid=(1, 2, 10, 50)).csv_path,
        "fig3": fig3_dynamics_vs_lambda(csv_path=str(p / "fig3.csv"),
                                        lambda_grid=(0.05, 0.15)).csv_path,
        "fig4": fig4_welfare_vs_load(csv_path=str(p / "fig4.csv"),
                                     **fig4).csv_path,
        "fig4_workers2": fig4_welfare_vs_load(csv_path=str(p / "fig4w.csv"),
                                              workers=2, **fig4).csv_path,
        "fig5": fig5_frg_ratio_vs_t(csv_path=str(p / "fig5.csv"),
                                    **fig5).csv_path,
        "fig5_workers2": fig5_frg_ratio_vs_t(csv_path=str(p / "fig5w.csv"),
                                             workers=2, **fig5).csv_path,
        "t0sweep": fig5_t0_sweep(csv_path=str(p / "sweep.csv")).csv_path,
    }


def _trace_csvs(p):
    scenario = p / "scenario.json"
    explicit = p / "explicit.json"
    scenario.write_text(json.dumps(SCENARIO))
    explicit.write_text(json.dumps(dict(SCENARIO, gains2=[0.6, 1.0, 1.4])))
    runs = {
        "frg_drawn": [str(scenario), "--plan", "frg", "--t", "20", "--t0", "6"],
        "frg_explicit": [str(explicit), "--plan", "frg", "--t", "20", "--t0", "6"],
        "drg_drawn": [str(scenario), "--plan", "drg", "--lam", "0.05",
                      "--stages", "30"],
        "drg_explicit": [str(explicit), "--plan", "drg", "--lam", "0.05",
                         "--stages", "30", "--deviate", "player=1,stage=3,power=max"],
    }
    paths = {}
    for name, argv in runs.items():
        paths[name] = str(p / f"{name}.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--scenario", *argv, "--out", paths[name]]) == 0
    return paths


def _digests(tmp_path):
    paths = {**_runner_csvs(tmp_path), **_trace_csvs(tmp_path)}
    return {name: hashlib.sha256(open(path, "rb").read()).hexdigest()
            for name, path in paths.items()}


def test_every_csv_keeps_its_pinned_bytes(tmp_path):
    got = _digests(tmp_path)
    assert got == DIGESTS


def test_analysis_commands_keep_their_pinned_stdout(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    runs = {
        "solve_pkt": ["solve", "--model", "pkt", "--m", "10", "--k", "3", "--n", "16"],
        "solve_exp": ["solve", "--model", "exp", "--rate", "1.0", "--k", "3", "--n", "16"],
        "equilibria": ["equilibria", "--scenario", str(scenario), "--seed", "9"],
        # at the scenario's p_max of 1.0 full power punishes too weakly: exit 5
        "bounds": ["bounds", "--scenario", str(scenario), "--set", "network.p_max=100"],
    }
    got = {}
    for name, argv in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        got[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == STDOUT_DIGESTS
