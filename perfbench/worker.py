"""One benchmark process: set a workload up, then run it timed or traced.

Started by ``run.py``, never by hand:

    python3 perfbench/worker.py --workload W --seed N --phase setup
    python3 perfbench/worker.py --workload W --seed N --phase run \\
        --seconds S --trace 0|1

Set-up is everything from process start to the first timed op: the
interpreter, ``import powergame`` (with ``powergame.cli``), input generation
and a warm-up that also pays the lazy imports.  ``--phase setup`` stops
there.  The last stdout line is one JSON object with the results.

The run phase is a closed loop with one caller.  It issues ops until
``--seconds`` have passed and at least ``MIN_OPS`` ops are done.  With
``--trace 1`` it runs each of the first ``TRACE_OPS`` ops twice, untraced
and with every powergame layer wrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import powergame  # noqa: E402
import powergame.cli  # noqa: E402,F401  (its import cost belongs to set-up)

import workloads  # noqa: E402

MIN_OPS = 100
DIGEST_OPS = 100       # outputs_sha256 covers the first DIGEST_OPS ops
MAX_LOOP_S = 120.0     # stop short of MIN_OPS rather than overrun the run
WARMUP_SEED = 2**40    # warm-up inputs never coincide with a timed seed
WARMUP_OPS = {"analysis": 3, "studies": len(workloads.STUDIES_BLOCK),
              "play": 12}
# a traced run replays a fixed number of ops, so its counts repeat exactly
TRACE_OPS = {"analysis": 300, "studies": 100, "play": 300}

# the layer picture the traced run is expected to reproduce
EXPECTED_TOP = {
    "analysis": (None, {"efficiency.check_op_condition"}),
    "studies": ("fig5", {"channel.draw_block"}),
    "play": (None, {"repeated.run_game", "channel.draw"}),
}


def execute(op, span=contextlib.nullcontext()) -> tuple[float, list[str], bytes]:
    """Run one op inside ``span``: its wall time, problems found, digest bytes."""
    start = time.perf_counter()
    try:
        with span:
            out = op.call()
    except op.allowed_errors as exc:
        out = exc
    except Exception:
        elapsed = time.perf_counter() - start
        return elapsed, [traceback.format_exc(limit=3)], b"exception;"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(out), op.digest(out)
    except Exception:
        return elapsed, [traceback.format_exc(limit=3)], b"check-error;"


class Loop:
    """Timings, failures and the output digest of one pass over the ops."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    def record(self, op, elapsed: float, problems: list[str], digest: bytes):
        if len(self.times) < DIGEST_OPS:
            self.digest.update(digest)
        self.times.append(elapsed)
        if problems:
            self.failures.append(f"op {len(self.times) - 1} ({op.kind}): "
                                 + "; ".join(problems))

    def run(self, ops, seconds: float) -> "Loop":
        start = time.perf_counter()
        while len(self.times) < MIN_OPS or time.perf_counter() - start < seconds:
            if time.perf_counter() - start >= MAX_LOOP_S:
                break
            op = next(ops)
            self.record(op, *execute(op))
        return self


def run_paired(ops_untraced, ops_traced, count: int, tracer) -> tuple[Loop, Loop]:
    """Run each of the first ``count`` ops untraced and traced, back to back.

    Pairing exposes both runs of an op to the same machine noise, and the
    order alternates so neither side always finds the caches warm.
    """
    untraced, traced = Loop(), Loop()
    for op_id in range(count):
        op_u, op_t = next(ops_untraced), next(ops_traced)
        for side in ((0, 1) if op_id % 2 == 0 else (1, 0)):
            if side == 0:
                untraced.record(op_u, *execute(op_u))
            else:
                traced.record(op_t, *execute(op_t, tracer.op(op_id, op_t.kind)))
    return untraced, traced


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "powergame": powergame.__version__,
            "workload": workload, "seed": seed}


def end_to_end(loop: Loop) -> dict:
    times_ms = [t * 1e3 for t in loop.times]
    p90 = statistics.quantiles(times_ms, n=10)[8]
    return {
        "ops_per_s": len(times_ms) / (sum(times_ms) / 1e3),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples_beyond_p90": sum(t > p90 for t in times_ms),
    }


def per_layer(tracer, traced: Loop, untraced: Loop) -> tuple[dict, list[str]]:
    """The per-layer metrics, and the ops whose layer self times overrun them."""
    stats = tracer.layer_stats()
    counts = tracer.counts
    out = {}
    for name, s in stats.items():
        for stat, value in s.items():
            out[f"{name}.{stat}"] = value

    def ratio(num, den):
        return num / den if den else 0.0

    def total_ms(layer):
        return stats[layer]["total_ms"] if layer in stats else 0.0

    bisects = stats["roots.bisect"]["calls"] if "roots.bisect" in stats else 0
    out["roots.fn_evals_per_root"] = ratio(counts["roots.fn_evals"], bisects)
    gains = counts["channel.draw_block.gains"]
    out["channel.draw_block.gains"] = gains
    out["channel.draw_block.ns_per_gain"] = ratio(
        total_ms("channel.draw_block") * 1e6, gains)
    # gain-weighted mean Exponential mass kept by truncation, from the inputs
    out["channel.acceptance_mass"] = ratio(
        counts["channel.acceptance_mass_weighted"], gains)
    out["channel.draw.us_per_gain"] = ratio(
        total_ms("channel.draw") * 1e3, counts["channel.draw.gains"])
    stages = counts["repeated.run_game.stages"]
    out["repeated.run_game.stages"] = stages
    out["repeated.run_game.us_per_stage"] = ratio(
        total_ms("repeated.run_game") * 1e3, stages)
    out["static_game.sample_utility_region.profiles"] = counts[
        "static_game.sample_utility_region.profiles"]
    out["experiments.csv_bytes"] = counts["experiments.csv_bytes"]
    out["trace.overhead_frac"] = sum(traced.times) / sum(untraced.times) - 1.0

    overruns = []
    for op_id, (kind, wall_ms, layers) in tracer.op_breakdown().items():
        if sum(layers.values()) > wall_ms:
            overruns.append(f"op {op_id} ({kind}): layer self times "
                            f"{sum(layers.values()):.3f} ms > wall {wall_ms:.3f} ms")
    return out, overruns


def top_layers(tracer, workload: str) -> dict:
    """Largest self times, over all ops or the ops of the expected kind."""
    kind, expected = EXPECTED_TOP[workload]
    totals: dict[str, float] = {}
    for op_kind, _, layers in tracer.op_breakdown().values():
        if kind is None or op_kind == kind:
            for name, ms in layers.items():
                totals[name] = totals.get(name, 0.0) + ms
    ranked = sorted(totals, key=totals.get, reverse=True)
    return {"ops": kind or "all", "ranked_self_ms": {n: totals[n] for n in ranked[:5]},
            "expected": sorted(expected),
            "holds": set(ranked[:len(expected)]) == expected}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        warm = workload.ops(WARMUP_SEED, scratch)
        for _ in range(WARMUP_OPS[args.workload]):
            op = next(warm)
            try:
                op.call()
            except op.allowed_errors:
                pass
        result = {"ready_at": time.time()}
        if args.phase == "run":
            result.update(run_phase(args, workload, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_phase(args, workload, scratch: str) -> dict:
    env = environment(args.workload, args.seed)
    if not args.trace:
        loop = Loop().run(workload.ops(args.seed, scratch), args.seconds)
        return {"env": env, "why": workload.why, "attempted": len(loop.times),
                "failures": loop.failures, "metrics": end_to_end(loop),
                "outputs_sha256": loop.digest.hexdigest(),
                "digest_ops": min(DIGEST_OPS, len(loop.times))}

    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = run_paired(workload.ops(args.seed, scratch),
                                  workload.ops(args.seed, scratch),
                                  TRACE_OPS[args.workload], tracer)
    metrics, overruns = per_layer(tracer, traced, untraced)
    tracer.write_spans(str(OUT_DIR / f"spans_{args.workload}.jsonl"))
    return {"env": env, "why": workload.why,
            "attempted": len(untraced.times) + len(traced.times),
            "failures": untraced.failures + traced.failures + overruns,
            "metrics": metrics, "top_layers": top_layers(tracer, args.workload),
            "outputs_sha256": untraced.digest.hexdigest(),
            "digest_ops": min(DIGEST_OPS, len(untraced.times))}


if __name__ == "__main__":
    sys.exit(main())
