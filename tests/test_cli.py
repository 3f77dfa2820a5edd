"""Command-line interface: outputs, exit codes, seeds, overrides."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergame.cli import main
from powergame.efficiency import InfoTheoretic

EQUAL_BOUNDS = {
    "model": {"family": "exp", "c": 0.5},
    "network": {"k": 2, "n": 1, "sigma2": 1.0, "rates": 1.0, "p_max": 10.0,
                "eta_min": 1.0, "eta_max": 1.0},
    "gains2": [1.0, 1.0],
}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out = {}
    for line in buf.getvalue().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return code, out


def _scenario(tmp_path, doc=None, **patch):
    doc = dict(EQUAL_BOUNDS if doc is None else doc)
    doc.update(patch)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_exponential_closed_forms():
    code, out = _run(["solve", "--model", "exp", "--c", "0.5"])
    assert code == 0
    np.testing.assert_allclose(float(out["beta_star"]), 0.5, rtol=1e-12)
    np.testing.assert_allclose(float(out["gamma_tilde"]), 1.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(
        float(out["delta"]),
        float(out["phi_gamma_tilde"]) - float(out["phi_beta_star"]), rtol=1e-12)


@pytest.mark.parametrize("c, printed", [("0.5", "0.5"), ("1e-12", "1e-12")])
def test_solve_exponential_beta_star_is_c(c, printed):
    # from_c keeps the c it is given, however small
    code, out = _run(["solve", "--model", "exp", "--c", c])
    assert code == 0
    assert out["beta_star"] == printed == repr(InfoTheoretic.from_c(float(c)).c)


@pytest.mark.parametrize("c", ["1e17", "1e300"])
def test_solve_past_the_one_shot_load_exits_4_at_any_c(c, tmp_path, capsys):
    # at 1e300, gamma_tilde rounds onto n/(k-1): the load is still what is reported
    code, out = _run(["solve", "--model", "exp", "--c", c, "--k", "2", "--n", "16"])
    assert code == 4 and out == {}
    assert "one-shot equilibrium requires" in capsys.readouterr().err
    scenario = _scenario(tmp_path, model={"family": "exp", "c": float(c)})
    code, out = _run(["bounds", "--scenario", scenario])
    assert code == 4 and out == {}


@pytest.mark.parametrize("rate", ["1e-17", "2000", "inf", "nan"])
def test_rate_without_a_positive_finite_c_exits_1(rate, capsys):
    code, out = _run(["solve", "--model", "exp", "--rate", rate])
    assert code == 1 and out == {}
    assert capsys.readouterr().err.startswith(
        "error: c = 2**rate - 1 must be positive and finite, got c = ")


def test_a_packet_length_no_float_holds_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = _run(["solve", "--model", "pkt", "--m", str(10**400), "--k", "2", "--n", "16"])
    assert code == 1 and out == {}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: packet length m must round to a finite")
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_solve_single_player_folds_to_beta_star():
    code, out = _run(["solve", "--model", "pkt", "--m", "2", "--k", "1"])
    assert code == 0
    assert out["gamma_tilde"] == out["beta_star"]
    np.testing.assert_allclose(float(out["beta_star"]), 1.2564312086261697,
                               rtol=1e-9)



def test_solve_reports_the_surplus_bounds_reports(tmp_path):
    # phi_gamma_tilde - phi_beta_star rounds to -5.6e-17 here; the surplus is 0.0
    argv = ["--model", "pkt", "--m", "2", "--k", "2", "--n", "1000000000000"]
    code, out = _run(["solve", *argv])
    assert code == 0 and out["delta"] == "0.0"
    doc = dict(EQUAL_BOUNDS, model={"family": "pkt", "m": 2},
               network=dict(EQUAL_BOUNDS["network"], n=1000000000000))
    code, bounds = _run(["bounds", "--scenario", _scenario(tmp_path, doc=doc)])
    assert code == 0 and bounds["delta"] == out["delta"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        _run(["solve"])  # --model is required
    assert err.value.code == 2


def test_missing_model_parameter_exits_1():
    code, _ = _run(["solve", "--model", "pkt"])
    assert code == 1


def test_bounds_on_the_equal_bounds_scenario(tmp_path):
    code, out = _run(["bounds", "--scenario", _scenario(tmp_path)])
    assert code == 0
    assert out["t0"] == "1"
    np.testing.assert_allclose(float(out["lambda_max"]),
                               2.0 * math.exp(-0.5) - 1.0, rtol=1e-12)
    np.testing.assert_allclose(float(out["delta"]),
                               2.0 * math.exp(-1.5) - math.exp(-1.0),
                               rtol=1e-12)


def test_equilibria_closed_forms(tmp_path):
    code, out = _run(["equilibria", "--scenario", _scenario(tmp_path)])
    assert code == 0
    np.testing.assert_allclose(float(out["ne_power_1"]), 1.0, rtol=1e-12)
    np.testing.assert_allclose(float(out["ne_utility_2"]), math.exp(-1.0),
                               rtol=1e-12)
    np.testing.assert_allclose(float(out["op_power_1"]), 0.5, rtol=1e-12)
    np.testing.assert_allclose(float(out["op_utility_1"]),
                               2.0 * math.exp(-1.5), rtol=1e-12)
    np.testing.assert_allclose(float(out["se_power_1"]), 0.75, rtol=1e-12)
    np.testing.assert_allclose(float(out["se_power_2"]), 0.875, rtol=1e-12)
    np.testing.assert_allclose(float(out["se_utility_1"]),
                               math.exp(-1.25) / 0.75, rtol=1e-12)
    np.testing.assert_allclose(float(out["se_utility_2"]),
                               math.exp(-1.0) / 0.875, rtol=1e-12)
    assert out["se_leader"] == "1"


def test_equilibria_leader_flag_swaps_roles(tmp_path):
    code, out = _run(["equilibria", "--scenario", _scenario(tmp_path),
                      "--leader", "2"])
    assert code == 0
    np.testing.assert_allclose(float(out["se_power_1"]), 0.875, rtol=1e-12)
    np.testing.assert_allclose(float(out["se_power_2"]), 0.75, rtol=1e-12)
    assert out["se_leader"] == "2"


def test_saturated_regime_exits_3(tmp_path):
    code, _ = _run(["equilibria", "--scenario", _scenario(tmp_path),
                    "--set", "network.p_max=0.1"])
    assert code == 3


def test_no_equilibrium_exits_4():
    code, _ = _run(["solve", "--model", "pkt", "--m", "1"])
    assert code == 4


def test_solve_without_a_one_shot_equilibrium_exits_4():
    # m=4 puts (k=2, n=2) past the one-shot load limit, where phi(beta_star)
    # and delta have no meaning; `bounds` refuses the same load
    code, out = _run(["solve", "--model", "pkt", "--m", "4", "--k", "2",
                      "--n", "2"])
    assert code == 4
    assert "phi_beta_star" not in out and "delta" not in out


def test_no_finite_horizon_exits_5(tmp_path):
    code, _ = _run(["bounds", "--scenario", _scenario(tmp_path),
                    "--set", "network.p_max=0.1"])
    assert code == 5


def test_vanishing_channel_mass_exits_6(tmp_path):
    doc = {k: v for k, v in EQUAL_BOUNDS.items() if k != "gains2"}
    doc["network"] = dict(doc["network"], eta_min=30.0, eta_max=60.0)
    doc["channel"] = {"mode": "constant", "mean_gain2": 1.0}
    code, _ = _run(["equilibria", "--scenario", _scenario(tmp_path, doc=doc)])
    assert code == 6


def test_infinite_channel_mean_exits_6(tmp_path):
    # 1e400 parses to inf; on equal gain bounds it would have drawn NaN gains
    doc = {k: v for k, v in EQUAL_BOUNDS.items() if k != "gains2"}
    doc["network"] = dict(doc["network"], eta_min=2.0, eta_max=2.0)
    doc["channel"] = {"mode": "constant", "mean_gain2": 1.0}
    code, _ = _run(["equilibria", "--scenario", _scenario(tmp_path, doc=doc),
                    "--set", "channel.mean_gain2=1e400"])
    assert code == 6


def test_out_of_bounds_gains_exit_6(tmp_path):
    # with gain 0.001 below eta_min = 1, player 1 would be told to send 76 W
    # against a 0.1 W cap
    doc = {"model": {"family": "pkt", "m": 2},
           "network": {"k": 2, "n": 16, "sigma2": 1.0, "rates": 1.0,
                       "p_max": 0.1, "eta_min": 1.0, "eta_max": 2.0},
           "plan": {"type": "frg", "t_total": 5, "t0": 2}}
    argv = ["simulate", "--out", str(tmp_path / "trace.csv"), "--scenario"]
    code, _ = _run(argv + [_scenario(tmp_path, doc=doc, gains2=[0.001, 1.0])])
    assert code == 6
    code, _ = _run(["equilibria", "--scenario",
                    _scenario(tmp_path, doc=doc, gains2=[1.0, 2.5])])
    assert code == 6
    code, _ = _run(argv + [_scenario(tmp_path, doc=doc, gains2=[1.0, 2.0])])
    assert code == 0  # the bounds themselves are allowed


@pytest.mark.parametrize("command, override", [
    ("simulate", "network.rates=NaN"),      # ran with NaN utilities
    ("equilibria", "network.p_max=NaN"),    # ignored the cap
    ("bounds", "network.eta_min=NaN"),      # died on a float-to-int cast
    ("equilibria", "network.sigma2=Infinity"),  # asked for inf W (exit 3)
    ("simulate", "network.p_max=Infinity"),     # a max deviation sent inf W
    ("bounds", "network.eta_max=NaN"),
])
def test_nonfinite_network_fields_exit_1(tmp_path, capsys, command, override):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [command, "--scenario", _scenario(tmp_path), "--set", override]
    if command == "simulate":
        argv += ["--plan", "frg", "--t", "6", "--t0", "2", "--deviate",
                 "player=1,stage=3,power=max", "--out", str(out_dir / "trace.csv")]
    code, out = _run(argv)
    assert code == 1
    assert out == {}
    assert list(out_dir.iterdir()) == []
    err = capsys.readouterr().err
    assert "must be positive and finite" in err or "must not be NaN" in err


def test_unbounded_gain_ceiling_keeps_its_typed_answers(tmp_path):
    # eta_max = inf means no upper cut on the gains; the bounds answer it
    code, _ = _run(["bounds", "--scenario", _scenario(tmp_path),
                    "--set", "network.eta_max=Infinity"])
    assert code == 5


def test_infinite_explicit_gain_exits_1(tmp_path, capsys):
    # with no upper cut an inf gain passed every check and died in the stage
    # kernel as a NaN SINR ("SINR must be nonnegative")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for command in ("equilibria", "simulate"):
        argv = [command, "--scenario", _scenario(tmp_path), "--set",
                "network.eta_max=Infinity", "--set", "gains2=[1e400, 1.0]"]
        if command == "simulate":
            argv += ["--plan", "frg", "--t", "4", "--t0", "1",
                     "--out", str(out_dir / "trace.csv")]
        code, out = _run(argv)
        assert code == 1
        assert out == {}
        assert "squared gain inf must be positive and finite" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_degenerate_fig1_grid_exits_1(tmp_path, capsys):
    for option in ("hull_bins=1", "points_per_axis=1"):
        code, _ = _run(["experiment", "fig1", "--out-dir", str(tmp_path),
                        "--set", option])
        assert code == 1
        assert ">= 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # rejected before anything is written


def test_dynamics_sweeps_without_a_one_shot_equilibrium_exit_4(tmp_path):
    # m=4 puts the (2, 2) curve past the one-shot load limit
    for name in ("fig2", "fig3"):
        code, _ = _run(["experiment", name, "--out-dir", str(tmp_path),
                        "--set", "m=4"])
        assert code == 4
    assert list(tmp_path.iterdir()) == []  # rejected before anything is written
    doc = dict(EQUAL_BOUNDS, model={"family": "pkt", "m": 4},
               network=dict(EQUAL_BOUNDS["network"], n=2))
    code, _ = _run(["bounds", "--scenario", _scenario(tmp_path, doc=doc)])
    assert code == 4


def test_fig4_without_a_one_shot_equilibrium_exits_4(tmp_path, capsys):
    # PacketSuccess(1) has beta_star = 0, so no load supports a one-shot equilibrium
    code, _ = _run(["experiment", "fig4", "--out-dir", str(tmp_path), "--set", "m_values=[1]"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: efficiency model has no positive")
    assert list(tmp_path.iterdir()) == []  # rejected before anything is written


def test_dynamics_sweeps_reject_single_player_curves_and_bad_lambdas(tmp_path, capsys):
    for name in ("fig2", "fig3"):
        code, _ = _run(["experiment", name, "--out-dir", str(tmp_path),
                        "--set", "curves=[[2, 2], [1, 4]]"])
        assert code == 1
        assert "k >= 2" in capsys.readouterr().err
    code, _ = _run(["experiment", "fig3", "--out-dir", str(tmp_path),
                    "--set", "lambda_grid=[0.1, 0.0]"])
    assert code == 1
    assert list(tmp_path.iterdir()) == []



@pytest.mark.parametrize("name, argv, key", [
    ("fig4", ["--replicas", "0"], "replicas"),
    ("fig5", ["--replicas", "0"], "replicas"),
    ("fig5", ["--set", "t_multiples=[1, 0]"], "t_multiples"),
    ("fig2", ["--set", "t_grid=[0, -3]"], "t_grid"),
    ("fig2", ["--set", "t_grid=[2.5]"], "t_grid"),
    ("fig5", ["--set", "workers=0"], "workers"),
])
def test_runner_counts_and_horizons_below_one_exit_1(tmp_path, capsys, name, argv, key):
    code, out = _run(["experiment", name, "--out-dir", str(tmp_path), *argv])
    assert code == 1 and out == {}
    assert capsys.readouterr().err.startswith(f"error: {name} needs integers >= 1 in {key}")
    assert list(tmp_path.iterdir()) == []


K_SIZE = "k must be a positive integer"
N_SIZE = "spreading factor n must be a positive integer"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--model", "pkt", "--m", "2", "--k", "3", "--n", "0"], N_SIZE),  # traceback
    (["solve", "--model", "pkt", "--m", "2", "--k", "0"], K_SIZE),  # exited 0, no players
    (["solve", "--model", "pkt", "--m", "2", "--k", "-2"], K_SIZE),  # exited 0
    (["solve", "--model", "exp", "--rate", "1", "--k", "1", "--n", "0"], N_SIZE),  # phi nan
    (["solve", "--model", "pkt", "--m", "2", "--k", "3", "--n", "-5"], N_SIZE),  # exited 4
    (["experiment", "fig2", "--set", "curves=[[2, 0]]"], N_SIZE),  # traceback
    (["experiment", "fig3", "--set", "curves=[[3, -1]]"], N_SIZE),  # exited 4
    (["experiment", "fig5", "--set", "n=0"], N_SIZE),  # traceback
    (["experiment", "t0sweep", "--set", "n=0"], N_SIZE),  # traceback
    (["experiment", "fig1", "--set", "n=0"], N_SIZE),  # traceback
    (["experiment", "fig4", "--set", "n=0"], N_SIZE),  # exited 0 with an empty CSV
    (["experiment", "fig4", "--set", "m_values=[10]", "--set", 'k_grids={"10": [0, 2]}'],
     K_SIZE),  # an IndexError traceback
])
def test_sizes_that_are_not_positive_integers_exit_1(tmp_path, capsys, argv, message):
    if argv[0] == "experiment":
        argv = [*argv, "--out-dir", str(tmp_path)]
    code, out = _run(argv)
    assert (code, out) == (1, {})
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_fig4_names_an_m_without_a_grid(tmp_path, capsys):
    # the default m_values are (10, 100); this printed the KeyError's key, "error: 100"
    code, out = _run(["experiment", "fig4", "--out-dir", str(tmp_path),
                      "--set", 'k_grids={"10": [2, 3]}'])
    assert (code, out) == (1, {})
    assert capsys.readouterr().err == (
        "error: fig4 needs a grid in k_grids for every m, got none for m = 100\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, workers", [("fig3", "0"), ("fig4", "-3"), ("t0sweep", "0")])
def test_workers_below_one_exit_1(tmp_path, capsys, name, workers):
    # fig3 and t0sweep take no workers, and ignored the flag
    code, out = _run(["experiment", name, "--out-dir", str(tmp_path), "--workers", workers])
    assert code == 1 and out == {}
    assert capsys.readouterr().err == f"error: --workers needs an integer >= 1, got {workers}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, flag, value", [
    ("fig3", "replicas", "0"), ("fig1", "replicas", "-5"), ("t0sweep", "replicas", "3"),
    ("fig2", "workers", "2"), ("fig1", "workers", "1"), ("t0sweep", "workers", "4"),
])
def test_flags_a_runner_does_not_take_exit_1(tmp_path, capsys, name, flag, value):
    # these runners used to drop the flag, write their CSVs and exit 0
    code, out = _run(["experiment", name, "--out-dir", str(tmp_path), f"--{flag}", value])
    assert code == 1 and out == {}
    assert capsys.readouterr().err == (
        f"error: --{flag} does not apply to {name}, which takes no {flag}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "t0sweep"])
def test_seed_flag_a_runner_does_not_take_exits_1(tmp_path, capsys, monkeypatch, name):
    # these runners draw nothing: --seed used to be dropped and the CSV said "# seed: none"
    code, out = _run(["experiment", name, "--out-dir", str(tmp_path), "--seed", "9"])
    assert code == 1 and out == {}
    assert capsys.readouterr().err == (
        f"error: --seed does not apply to {name}, which takes no seed\n")
    assert list(tmp_path.iterdir()) == []
    # POWERGAME_SEED stays a default, which a runner without a seed ignores
    monkeypatch.setenv("POWERGAME_SEED", "9")
    code, out = _run(["experiment", name, "--out-dir", str(tmp_path),
                      *EXPERIMENT_RUNS[name][0]])
    assert code == 0 and set(out) == EXPERIMENT_RUNS[name][1]


# reduced sizes, and the keys each experiment prints; the paths among them must exist
EXPERIMENT_RUNS = {
    "fig1": (["--set", "points_per_axis=12", "--set", "hull_bins=4"],
             {"region", "points", "op_within_one_cell", "op_dominates_ne",
              "convexity_ratio"}),
    "fig2": (["--set", "t_grid=[1, 5]"], {"out", "rows"}),
    "fig3": (["--set", "lambda_grid=[0.1]"], {"out", "rows"}),
    "fig4": (["--replicas", "20", "--set", "n=16", "--set", "m_values=[10]",
              "--set", 'k_grids={"10": [2, 3]}'], {"out", "rows", "skipped"}),
    "fig5": (["--replicas", "5", "--set", "t_multiples=[1, 2]"],
             {"out", "t0", "limit_ratio"}),
    "t0sweep": ([], {"out", "any_match", "implied_eta_min"}),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT_RUNS))
def test_experiment_prints_its_summary(tmp_path, name):
    argv, keys = EXPERIMENT_RUNS[name]
    code, out = _run(["experiment", name, "--out-dir", str(tmp_path), *argv])
    assert code == 0 and set(out) == keys
    paths = [out[key] for key in ("out", "region", "points") if key in out]
    assert paths and all(os.path.isfile(path) for path in paths)
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in paths)


def test_unknown_experiment_option_exits_1(tmp_path):
    code, _ = _run(["experiment", "fig2", "--out", str(tmp_path / "x.csv"),
                    "--set", "nonsense=1"])
    assert code == 1


def _seed_line(path):
    with open(path) as fh:
        return fh.read().splitlines()[2]


def test_seed_precedence(tmp_path, monkeypatch):
    argv = ["experiment", "fig4", "--replicas", "20",
            "--set", "n=16", "--set", "m_values=[10]",
            "--set", 'k_grids={"10": [2]}']
    monkeypatch.setenv("POWERGAME_SEED", "7")
    out = str(tmp_path / "a.csv")
    code, _ = _run(argv + ["--out", out, "--seed", "9"])
    assert code == 0 and _seed_line(out) == "# seed: 9"
    out = str(tmp_path / "b.csv")
    code, _ = _run(argv + ["--out", out])
    assert code == 0 and _seed_line(out) == "# seed: 7"
    monkeypatch.delenv("POWERGAME_SEED")
    out = str(tmp_path / "c.csv")
    code, _ = _run(argv + ["--out", out])
    assert code == 0 and _seed_line(out) == "# seed: 1729"


def test_set_wins_over_the_experiment_flags(tmp_path, monkeypatch):
    # a flag fills in its runner argument only where --set left it unset
    argv = ["experiment", "fig4", "--set", "n=16", "--set", "m_values=[10]",
            "--set", 'k_grids={"10": [2]}', "--set", "seed=5"]
    out = str(tmp_path / "a.csv")
    code, _ = _run(argv + ["--set", "replicas=5", "--replicas", "7",
                           "--seed", "7", "--out", out])
    assert code == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert json.loads(lines[1].partition(": ")[2])["replicas"] == 5
    assert lines[2] == "# seed: 5"
    # --set seed= leaves nothing to resolve, so a bad POWERGAME_SEED is not read
    monkeypatch.setenv("POWERGAME_SEED", "not-a-seed")
    named = str(tmp_path / "named.csv")
    code, res = _run(argv + ["--replicas", "7", "--set", f"csv_path={named}",
                             "--out", str(tmp_path / "flagged.csv")])
    assert code == 0 and res["out"] == named
    assert _seed_line(named) == "# seed: 5"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "named.csv"]


def test_set_wins_over_the_simulate_flags(tmp_path):
    # --set wins, a flag fills in what --set left unset, and both win over the file
    doc = {key: value for key, value in EQUAL_BOUNDS.items() if key != "gains2"}
    doc["network"] = dict(EQUAL_BOUNDS["network"], eta_max=2.0)
    doc["channel"] = {"mode": "per_stage", "mean_gain2": 1.0, "seed": 3}
    doc["plan"] = {"type": "frg", "t_total": 6, "t0": 2}
    scenario = _scenario(tmp_path, doc=doc)

    def play(*flags):
        out = tmp_path / "trace.csv"
        code, res = _run(["simulate", "--scenario", scenario, "--out", str(out), *flags])
        assert code == 0
        with open(out, newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["player"] == "1"]
        return (res, [row["phase"] for row in rows].count("endgame"),
                [row["gain2"] for row in rows])

    _, endgame, file_gains = play()
    assert endgame == 2
    assert play("--t0", "1")[1] == 1
    assert play("--set", "plan.t0=4", "--t0", "1")[1] == 4
    res = play("--t0", "1", "--deviate", "player=1,stage=3,power=max",
               "--set", "deviation.stage=5")[0]
    assert res["deviation_detected_at"] == "5"
    reseeded = play("--set", "channel.seed=9")[2]
    assert reseeded != file_gains
    assert play("--seed", "9")[2] == reseeded
    assert play("--set", "channel.seed=3", "--seed", "9")[2] == file_gains

    # equilibria draws its stage-1 gains under the same precedence
    def equilibria(*flags):
        code, res = _run(["equilibria", "--scenario", scenario, *flags])
        assert code == 0
        return res

    from_file = equilibria()
    assert equilibria("--seed", "9") == equilibria("--set", "channel.seed=9") != from_file
    assert equilibria("--set", "channel.seed=3", "--seed", "9") == from_file


def test_simulate_frg_deviation_trace(tmp_path):
    out = str(tmp_path / "trace.csv")
    code, res = _run(["simulate", "--scenario", _scenario(tmp_path),
                      "--plan", "frg", "--t", "8", "--t0", "2",
                      "--deviate", "player=1,stage=3,power=max",
                      "--out", out])
    assert code == 0
    assert res["stages"] == "8"
    assert res["deviation_detected_at"] == "3"
    assert "avg_utility_1" in res and "avg_utility_2" in res
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("t,player,gain2,")
    assert len(lines) == 1 + 8 * 2


def test_simulate_drg_reports_tail_bounds(tmp_path):
    code, res = _run(["simulate", "--scenario", _scenario(tmp_path),
                      "--plan", "drg", "--lam", "0.3", "--stages", "40",
                      "--out", str(tmp_path / "trace.csv")])
    assert code == 0
    assert res["stages"] == "40"
    assert res["deviation_detected_at"] == "none"
    assert float(res["avg_utility_tail_bound_1"]) > 0.0


def test_simulate_reports_frg_enforceability(tmp_path):
    argv = ["simulate", "--plan", "frg", "--t", "6", "--out",
            str(tmp_path / "trace.csv"), "--scenario"]
    code, res = _run(argv + [_scenario(tmp_path), "--t0", "2"])
    assert code == 0
    assert res["t0_bound"] == "1" and res["enforceable"] == "1"
    code, res = _run(argv + [_scenario(tmp_path), "--t0", "0"])
    assert code == 0
    assert res["t0_bound"] == "1" and res["enforceable"] == "0"
    # caps just above the equilibrium's: punishment too weak for any horizon
    doc = {"model": {"family": "pkt", "m": 2},
           "network": {"k": 2, "n": 16, "sigma2": 1.0, "rates": 1.0,
                       "p_max": 0.1, "eta_min": 1.0, "eta_max": 2.0},
           "gains2": [1.0, 2.0]}
    code, res = _run(argv + [_scenario(tmp_path, doc=doc), "--t0", "3"])
    assert code == 0
    assert res["t0_bound"] == "none" and res["enforceable"] == "0"
    assert res["stages"] == "6"


def test_simulate_reports_drg_enforceability(tmp_path):
    lam_max = 2.0 * math.exp(-0.5) - 1.0  # about 0.213
    argv = ["simulate", "--scenario", _scenario(tmp_path), "--plan", "drg",
            "--stages", "10", "--out", str(tmp_path / "trace.csv"), "--lam"]
    for lam, flag in (("0.1", "1"), ("0.3", "0")):
        code, res = _run(argv + [lam])
        assert code == 0
        np.testing.assert_allclose(float(res["lambda_max"]), lam_max, rtol=1e-12)
        assert res["enforceable"] == flag


def test_drg_lam_that_rounds_away_exits_1_without_a_file(tmp_path, capsys):
    # no --stages: the horizon comes from drg_truncation_horizon, which refuses this lam
    out = tmp_path / "trace.csv"
    code, _ = _run(["simulate", "--scenario", _scenario(tmp_path), "--plan", "drg",
                    "--lam", "1e-17", "--out", str(out)])
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == (
        "error: lam must lie in (0, 1) and round 1 - lam below 1, got 1e-17")


def test_override_scales_equilibrium_power(tmp_path):
    path = _scenario(tmp_path)
    _, base = _run(["equilibria", "--scenario", path])
    _, noisy = _run(["equilibria", "--scenario", path,
                     "--set", "network.sigma2=2.0"])
    np.testing.assert_allclose(float(noisy["ne_power_1"]),
                               2.0 * float(base["ne_power_1"]), rtol=1e-12)


def test_inconsistent_override_exits_1(tmp_path):
    code, _ = _run(["equilibria", "--scenario", _scenario(tmp_path),
                    "--set", "network.k=3"])
    assert code == 1  # three players but only two listed gains


def test_best_response_deviation_runs(tmp_path):
    code, res = _run(["simulate", "--scenario", _scenario(tmp_path),
                      "--plan", "frg", "--t", "6", "--t0", "2",
                      "--deviate",
                      "player=2,stage=3,power=best_response,"
                      "best_response_after=true",
                      "--out", str(tmp_path / "trace.csv")])
    assert code == 0
    assert res["deviation_detected_at"] == "3"


# three alike players with drawn (constant, unit) gains
THREE_PLAYERS = {"model": EQUAL_BOUNDS["model"],
                 "network": {**EQUAL_BOUNDS["network"], "k": 3, "n": 4}}


@pytest.mark.parametrize("plan", [
    ["--plan", "drg", "--lam", "0.05", "--stages", "0"],
    ["--plan", "drg", "--lam", "0.05", "--stages", "-3"],
    ["--plan", "frg", "--t", "12", "--t0", "3", "--stages", "5"],
])
def test_stages_below_one_or_under_an_frg_plan_exit_1(tmp_path, capsys, plan):
    out = tmp_path / "trace.csv"
    code, res = _run(["simulate", "--scenario", _scenario(tmp_path, doc=THREE_PLAYERS), *plan,
                      "--out", str(out)])
    assert code == 1 and res == {}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --stages")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["equilibria", "--leader", "0"], "error: --leader 0 out of range 1..3"),
    (["equilibria", "--leader", "4"], "error: --leader 4 out of range 1..3"),
    (["simulate", "--plan", "drg", "--lam", "0.05", "--deviate",
      "player=4,stage=2,power=max"], "error: deviation player 4 out of range 1..3"),
    (["simulate", "--plan", "drg", "--lam", "0.05", "--deviate",
      "player=0,stage=2,power=max"], "error: deviation player 0 out of range 1..3"),
    (["simulate", "--plan", "drg", "--lam", "0.05", "--set",
      'deviation={"player": 4, "stage": 2, "power": "max"}'],
     "error: deviation player 4 out of range 1..3"),
])
def test_players_out_of_range_are_named_1_based(tmp_path, capsys, argv, message):
    out = tmp_path / "trace.csv"
    code, res = _run([*argv, "--scenario", _scenario(tmp_path, doc=THREE_PLAYERS)]
                     + (["--out", str(out)] if argv[0] == "simulate" else []))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]
    # equilibria prints the one-shot and cooperative points before the leader's turn
    assert sorted(res) == ([] if argv[0] == "simulate" else sorted(
        f"{name}_{what}_{i}" for name in ("ne", "op") for what in ("power", "utility")
        for i in (1, 2, 3)))
    assert not out.exists()


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "powergame.cli", "solve", "--model", "exp",
         "--c", "0.5"], capture_output=True, text=True)
    assert proc.returncode == 0
    fields = dict(line.split("=") for line in proc.stdout.splitlines())
    np.testing.assert_allclose(float(fields["beta_star"]), 0.5, rtol=1e-12)


SCRIPTED = dict(EQUAL_BOUNDS, plan={"type": "frg", "t_total": 6, "t0": 2},
                deviation={"player": 1, "stage": 2, "power": "max"})


@pytest.mark.parametrize("override, named", [
    ("deviation.power=[1, 2]", "deviation field power"),
    ('deviation.power={"a": 1}', "deviation field power"),
    ("deviation.player=[1]", "deviation field player"),
    ("network.k=[2]", "network field k"),
    ("gains2=5", "scenario field gains2"),
    ("model=3", "scenario field model"),
    ('model={"family": "pkt"}', "model family 'pkt' needs m"),
])
def test_wrong_typed_scenario_fields_exit_1(tmp_path, capsys, override, named):
    # each of these died with a raw TypeError, AttributeError or KeyError
    out = tmp_path / "trace.csv"
    code, res = _run(["simulate", "--scenario", _scenario(tmp_path, doc=SCRIPTED),
                      "--set", override, "--out", str(out)])
    assert code == 1
    assert res == {}
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, named", [
    ("network.k=2.7", "network field k cannot be 2.7"),
    ("network.n=16.9", "network field n cannot be 16.9"),
    ("network.k=true", "network field k cannot be True"),
    ("network.n=false", "network field n cannot be False"),
    ("plan.t0=1.5", "plan field t0 cannot be 1.5"),
    ("deviation.stage=2.5", "deviation field stage cannot be 2.5"),
    ('model={"family": "pkt", "m": 2.5}', "model family 'pkt' field m cannot be 2.5"),
])
def test_non_integral_sizes_exit_1_naming_the_field(tmp_path, capsys, override, named):
    # int() truncated these, so k = 2.7 played as k = 2 and exited 0
    out = tmp_path / "trace.csv"
    code, res = _run(["simulate", "--scenario", _scenario(tmp_path, doc=SCRIPTED),
                      "--set", override, "--out", str(out)])
    assert code == 1 and res == {}
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


def test_integral_float_sizes_run_as_integers(tmp_path):
    code, res = _run(["bounds", "--scenario", _scenario(tmp_path),
                      "--set", "network.k=2.0", "--set", "network.n=1.0"])
    assert (code, res) == _run(["bounds", "--scenario", _scenario(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("name, override", [
    ("fig2", "t_grid=[Infinity]"),   # a raw OverflowError from a float-to-int cast
    ("fig2", "t_grid=[NaN]"),        # "cannot convert float NaN to integer"
    ("fig5", "dynamics_db=NaN"),     # blamed eta_max, which nobody set
    ("t0sweep", "dynamics_db=NaN"),
])
def test_nonfinite_runner_arguments_are_named(tmp_path, capsys, name, override):
    code, res = _run(["experiment", name, "--out-dir", str(tmp_path),
                      "--set", override])
    assert code == 1
    assert res == {}
    err = capsys.readouterr().err
    assert err.startswith("error:") and override.partition("=")[0] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, override", [
    ("fig4", "replicas=2.5"),         # each of these raised a raw TypeError
    ("fig4", "eta_max=[1.0, 2.0]"),
    ("fig2", 'sigma2="x"'),
    ("fig4", "replicas=true"),
    ("fig1", "gains2=1.0"),
])
def test_wrong_typed_runner_arguments_are_named(tmp_path, capsys, name, override):
    code, res = _run(["experiment", name, "--out-dir", str(tmp_path),
                      "--set", override])
    assert code == 1
    assert res == {}
    err = capsys.readouterr().err
    assert err.startswith("error:") and override.partition("=")[0] in err
    assert list(tmp_path.iterdir()) == []


def test_scenario_that_is_not_an_object_exits_1(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    code, res = _run(["bounds", "--scenario", str(path), "--set", "a=1"])
    assert (code, res) == (1, {})
    assert capsys.readouterr().err == "error: scenario must be a JSON object\n"


NETWORK_FIELDS = ("k", "n", "sigma2", "rates", "p_max", "eta_min", "eta_max")
RUNNER_FLOATS = {
    "fig1": ("sigma2", "p_max", "gains2", "rates"),
    "fig2": ("sigma2", "p_max", "eta_min", "t_grid"),
    "fig3": ("lambda_grid",),
    "fig4": ("eta_min", "eta_max", "mean_gain2"),
    "fig5": ("p_max", "sigma2", "dynamics_db", "eta_min", "mean_gain2", "t_multiples"),
    "t0sweep": ("p_max", "sigma2", "dynamics_db", "scales"),
}
LISTED = {"gains2", "rates", "t_grid", "lambda_grid", "t_multiples", "scales"}
PER_PLAYER = {"rates", "p_max", "eta_min", "eta_max"}
SMALL_FIG4 = ["--replicas", "20", "--set", "n=16", "--set", "m_values=[10]",
              "--set", 'k_grids={"10": [2]}']
TARGETS = ([("network", f) for f in NETWORK_FIELDS] + [("gains2", None)]
           + [(name, arg) for name, args in RUNNER_FLOATS.items() for arg in args])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(target=st.sampled_from(TARGETS),
       bad=st.sampled_from(["NaN", "Infinity", "-Infinity"]),
       listed=st.booleans(), slot=st.integers(0, 1))
def test_nonfinite_input_exits_typed_and_writes_nothing(tmp_path_factory, target,
                                                        bad, listed, slot):
    tmp_path = tmp_path_factory.mktemp("nonfinite")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    where, name = target
    value = bad
    per_player = where == "network" and name in PER_PLAYER
    if where == "gains2" or name in LISTED or listed and per_player:
        value = ["1.0", "1.0"]
        value[slot] = bad
        value = f"[{', '.join(value)}]"
    # eta_max = inf means no upper cut on the gains: bounds answers it with
    # exit 5 and fig4 runs
    unbounded = name == "eta_max" and bad == "Infinity"
    if where in ("network", "gains2"):
        key = "gains2" if where == "gains2" else f"network.{name}"
        argv = ["simulate", "--scenario", _scenario(tmp_path, doc=SCRIPTED),
                "--set", f"{key}={value}", "--out", str(out_dir / "trace.csv")]
        if unbounded:
            argv = ["bounds", *argv[1:-2]]
    else:
        argv = ["experiment", where, "--out-dir", str(out_dir), "--set",
                f"{name}={value}"] + (SMALL_FIG4 if where == "fig4" else [])
        if unbounded:
            code, res = _run(argv)
            assert code == 0 and res["rows"] == "1"
            return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, res = _run(argv)
    assert code == 5 if unbounded else code in (1, 4, 5, 6)
    assert res == {}
    assert err.getvalue().startswith("error:")
    assert list(out_dir.iterdir()) == []
