"""Tests for the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.1",
                "--trace", "0")
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= worker.MIN_OPS
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(res["metrics"]) == names
    for spec in BENCH["end_to_end"]:
        metric = res["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
        assert spec["name"] in proc.stdout.split("\n", 4)[-1]  # the table too
    assert "failed_ops_frac" in proc.stdout and "outputs_sha256" in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "analysis", "--seed", "7", "--seconds", "0.1",
                "--trace", "1")
    res = _result(proc)
    assert res["correct"]
    assert list(res["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for spec in BENCH["per_layer"]:
        assert res["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert res["metrics"]["efficiency.check_op_condition.calls"]["value"] == \
        worker.TRACE_OPS["analysis"]
    assert res["metrics"]["channel.draw.calls"]["value"] == 0
    assert "expected leaders" in proc.stdout


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "analysis", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _first(kind: str, ops):
    return next(op for op in ops if op.kind == kind)


def _failures_of(op) -> list[str]:
    loop = worker.Loop()
    loop.record(op, *worker.execute(op))
    return loop.failures


def _corrupted(op, corrupt):
    original = op.call
    return dataclasses.replace(op, call=lambda: corrupt(original()))


def test_analysis_checker_rejects_a_perturbed_root():
    op = _first("report", workloads.analysis_ops(3))
    assert _failures_of(op) == []

    def perturb(report):
        s = report["sinrs"]
        return dict(report, sinrs=dataclasses.replace(
            s, beta_star=s.beta_star * (1.0 + 1e-6)))

    failures = _failures_of(_corrupted(op, perturb))
    assert len(failures) == 1 and "beta_star residual" in failures[0]


def test_play_checker_rejects_a_flipped_detection_flag():
    op = _first("frg_conform", workloads.play_ops(3))

    def flip(trace):
        trace[2] = dataclasses.replace(trace[2], deviation_detected=True)
        return trace

    failures = _failures_of(_corrupted(op, flip))
    assert len(failures) == 1 and "flagged a deviation" in failures[0]

    ops = workloads.play_ops(4)
    assert _failures_of(next(ops)) == []
    deviation = next(ops)
    assert deviation.kind == "frg_deviate" and _failures_of(deviation) == []

    def unflag(trace):
        return [dataclasses.replace(r, deviation_detected=False) for r in trace]

    failures = _failures_of(_corrupted(next(ops), unflag))
    assert len(failures) == 1 and "not flagged" in failures[0]


def test_studies_checker_rejects_a_fig5_row_off_its_formula(tmp_path):
    op = _first("fig5", workloads.studies_ops(3, str(tmp_path)))
    assert _failures_of(op) == []

    def skew(paths):
        with open(paths["fig5"], newline="") as fh:
            lines = fh.read().splitlines()
        rows = list(csv.reader(lines[4:]))
        col = rows[0].index("formula_ratio_mean")
        rows[3][col] = repr(float(rows[3][col]) * (1.0 + 1e-6))
        with open(paths["fig5"], "w", newline="") as fh:
            fh.write("\n".join(lines[:4]) + "\n")
            csv.writer(fh).writerows(rows)
        return paths

    failures = _failures_of(_corrupted(op, skew))
    assert len(failures) == 1 and "!= formula" in failures[0]
