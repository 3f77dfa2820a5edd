"""powergame benchmark: one command, every metric with its unit, every op checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analysis|studies|play --seed N \\
        --seconds S --trace 0|1

Each workload runs in fresh worker processes (``perfbench/worker.py``) with
``OMP_NUM_THREADS=1`` and ``OPENBLAS_NUM_THREADS=1`` set for them only, one
caller, no process pool.  ``--trace 0`` starts ``SETUP_RUNS - 1`` set-up-only
workers and then the timed worker, and reports the end-to-end metrics, with
``setup_s`` the median set-up time of all of them.  ``--trace 1`` starts one
traced worker and reports the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``.

Human-readable lines (environment, ``outputs_sha256``, the layer picture)
come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record is
also written to ``.perfbench_out/<workload>-trace<0|1>.json``.  Any worker
that fails or overruns makes the command exit non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 5
DEADLINE_S = 170.0   # the whole command, set-ups included
LAYER_STATS = (".calls", ".total_ms", ".self_ms")


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it, return (launch wall time, its result)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    launched = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker {args} overran the deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "powergame").is_dir():
        print("perfbench: no src/powergame in this checkout", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    timed = common + ["--phase", "run", "--seconds", str(args.seconds),
                      "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                launched, r = run_worker(common + ["--phase", "setup"], deadline)
                setups.append(r["ready_at"] - launched)
        launched, result = run_worker(timed, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["ready_at"] - launched)

    raw = result["metrics"]
    if args.trace:
        specs = bench["per_layer"]
    else:
        raw["setup_s"] = statistics.median(setups)
        specs = bench["end_to_end"]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name in raw:
            value = raw[name]
        elif name.endswith(LAYER_STATS):
            value = 0  # the layer did not run in this workload
        else:
            print(f"perfbench: worker did not report {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": spec["unit"]}

    failed = len(result["failures"])
    report(args, result, metrics, setups, failed)
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, metrics=metrics, setup_runs_s=setups,
                  failed_ops_frac=failed / result["attempted"])
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def report(args, result: dict, metrics: dict, setups: list, failed: int) -> None:
    env = result["env"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops attempted {result['attempted']}")
    print(f"# why: {result['why']}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in env.items()
                               if k not in ("workload", "seed")))
    print(f"# outputs_sha256 {result['outputs_sha256']} "
          f"(first {result['digest_ops']} untraced ops; informational)")
    for problem in result["failures"][:10]:
        print(f"# FAILED {problem}")
    if not args.trace:
        raw = result["metrics"]
        print(f"# op_ms_p90 has {raw['samples_beyond_p90']} samples beyond it; "
              f"setup_s is the median of {len(setups)} set-ups")
    else:
        top = result["top_layers"]
        print(f"# largest self times over {top['ops']} ops: "
              + ", ".join(f"{n} {ms:.1f} ms" for n, ms in top["ranked_self_ms"].items()))
        print(f"# expected leaders {top['expected']}: "
              f"{'holds' if top['holds'] else 'DOES NOT HOLD'}")
    for name, m in metrics.items():
        print(f"{name:50s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ops_frac':50s} {failed / result['attempted']:>16.6g} frac")


if __name__ == "__main__":
    sys.exit(main())
