"""Outside-in layer tracing for powergame.

While ``Tracer.op`` is open, every public function of the powergame modules
is replaced by a timing wrapper at every name a caller looks it up by: the
package namespace, the defining module and each module that imported it (so
``powergame.experiments.draw_block`` and ``powergame.efficiency.bisect`` are
wrapped where ``fig5`` and ``solve_all`` find them).  The program's source
is not touched, and the originals are back in place between ops.

A span is (name, start_ns, end_ns, parent span, op id).  Each op gets a root
span; layer spans nest under it.  Spans stay in memory until
``write_spans``.  Self time is a span's duration minus the time its child
spans cover; in one thread children never overlap, so that is the sum of
their durations.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import powergame
from powergame import channel

LAYER_MODULES = ("roots", "efficiency", "static_game", "channel", "repeated",
                 "experiments")
# layers whose calls also feed a count (see Tracer._count)
COUNTED = frozenset({"roots.bisect", "roots.expand_bracket",
                     "channel.draw_block", "channel.draw", "repeated.run_game",
                     "static_game.sample_utility_region"})


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._acceptance = channel.acceptance_probability  # the original
        self._sites = self._patches()

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op_id])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Trace one op: wrappers in, a root span, layer spans carrying its id."""
        self.enable()
        self._op_id = op_id
        idx = self._enter("op." + kind)
        try:
            yield
        finally:
            self._exit(idx)
            self._op_id = None
            self.disable()

    # ----------------------------------------------------------- counts

    def _count(self, name: str, args, kwargs) -> tuple:
        """Wrap arguments where a count needs to see inside the call."""
        if name in ("roots.bisect", "roots.expand_bracket"):
            fn = _arg(args, kwargs, 0, "fn")

            def counted(x, _fn=fn):
                self.counts["roots.fn_evals"] += 1
                return _fn(x)

            if args:
                args = (counted,) + tuple(args[1:])
            else:
                kwargs = dict(kwargs, fn=counted)
        elif name == "channel.draw_block":
            process = _arg(args, kwargs, 0, "process")
            stages = _arg(args, kwargs, 1, "stages")
            self.counts["channel.draw_block.gains"] += stages * process.k
            for mu, lo, hi in zip(process.mean_gain2, process.eta_min,
                                  process.eta_max):
                mass = 1.0 if lo == hi else self._acceptance(mu, lo, hi)
                self.counts["channel.acceptance_mass_weighted"] += mass * stages
        elif name == "channel.draw":
            self.counts["channel.draw.gains"] += _arg(args, kwargs, 0, "process").k
        elif name == "repeated.run_game":
            self.counts["repeated.run_game.stages"] += len(
                _arg(args, kwargs, 2, "channels"))
        elif name == "static_game.sample_utility_region":
            cfg = _arg(args, kwargs, 1, "cfg")
            per_axis = _arg(args, kwargs, 3, "points_per_axis", 200)
            self.counts["static_game.sample_utility_region.profiles"] += (
                per_axis ** cfg.k)
        return args, kwargs

    def _count_csv(self, result) -> None:
        """Bytes of the CSVs a runner wrote, read after its span closed."""
        for attr in ("csv_path", "region_path", "points_path"):
            path = getattr(result, attr, None)
            if path is not None:
                self.counts["experiments.csv_bytes"] += os.path.getsize(path)

    # --------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str):
        counted = name in COUNTED

        def wrapper(*args, **kwargs):
            if counted:
                args, kwargs = self._count(name, args, kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if name.startswith("experiments."):
                self._count_csv(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every lookup site."""
        wrappers = {}
        for short in LAYER_MODULES:
            mod = getattr(powergame, short)
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        sites = [m for n, m in sys.modules.items()
                 if n == "powergame" or n.startswith("powergame.")]
        return [(site, attr, value, wrappers[value])
                for site in sites for attr, value in vars(site).items()
                if inspect.isfunction(value) and value in wrappers]

    def enable(self) -> None:
        for site, attr, _, wrapper in self._sites:
            setattr(site, attr, wrapper)

    def disable(self) -> None:
        for site, attr, original, _ in self._sites:
            setattr(site, attr, original)

    # ---------------------------------------------------------- results

    def _self_ms(self) -> list[float]:
        child_ns = defaultdict(int)
        for name, start, end, parent, op_id in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [(end - start - child_ns[idx]) / 1e6
                for idx, (name, start, end, parent, op_id) in enumerate(self.spans)]

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls / total_ms / self_ms per layer function."""
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for span, self_ms in zip(self.spans, self._self_ms()):
            name, start, end, parent, op_id = span
            if parent < 0:
                continue  # an op's root span
            s = stats[name]
            s["calls"] += 1
            s["total_ms"] += (end - start) / 1e6
            s["self_ms"] += self_ms
        return stats

    def op_breakdown(self) -> dict[int, tuple[str, float, dict[str, float]]]:
        """Per op id: (kind, wall ms, layer -> self ms within the op)."""
        ops: dict[int, tuple[str, float, dict[str, float]]] = {}
        layers: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, self_ms in zip(self.spans, self._self_ms()):
            name, start, end, parent, op_id = span
            if parent < 0:
                ops[op_id] = (name[3:], (end - start) / 1e6, layers[op_id])
            else:
                layers[op_id][name] += self_ms
        return ops

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op_id}) + "\n")
