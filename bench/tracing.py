"""In-memory spans around the public clonelab functions each layer exposes.

A ``Tracer`` replaces each traced function by a timing wrapper at every
``clonelab`` module attribute that holds it, which is where its callers look
it up (``irreps.verify_covariance`` as ``blocks_from_choi`` resolves it,
``cloner.comb_from_pre_post`` as ``build_cloner`` resolves it).  Nothing in
the library changes: ``remove`` puts the original functions back.

A span is (name, start, end, parent, phase, op, info).  Self time is the
span's duration minus the durations of its child spans; the program is
single-threaded, so the children of a span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "channels", "haar", "irreps", "cloner", "optimizer", "protocol")


def _insert_gate_info(args, result):
    d = args["network"].d
    return {"bytes": 16 * d**12}


def _solve_info(args, result):
    problem = args["problem"]
    return {"d": problem.d, "task": problem.task, "iterations": result.iterations}


# (module, function, hook): the hook turns the bound arguments and the result
# into counters stored on the span.
TRACED = (
    ("linalg", "partial_trace", None),
    ("channels", "choi_from_kraus", None),
    ("channels", "kraus_of", None),
    ("channels", "comb_from_pre_post", None),
    ("channels", "comb_normalization_residuals", None),
    ("channels", "insert_gate", _insert_gate_info),
    ("channels", "channel_fidelity_with_double_unitary", None),
    ("channels", "comb_fidelity_functional", None),
    ("haar", "sample_haar_unitary", None),
    ("irreps", "build_irrep_table", None),
    ("irreps", "verify_covariance", lambda a, r: {"trials": a["trials"]}),
    ("irreps", "blocks_from_choi", None),
    ("irreps", "block_fidelity", None),
    ("cloner", "build_cloner", None),
    ("cloner", "choi_r1_of_cloner", None),
    ("cloner", "choi_r1_of_decohered_cloner", None),
    ("cloner", "first_factor_network", None),
    ("cloner", "cloner_channel_closed_form", None),
    ("optimizer", "build_problem", None),
    ("optimizer", "solve", _solve_info),
    ("protocol", "build_bases", None),
    ("protocol", "run_exact", lambda a, r: {"strategy": a["strategy"]}),
    ("protocol", "run_sampled",
     lambda a, r: {"strategy": a["strategy"], "rounds": a["rounds"]}),
)


class Tracer:
    """Records spans while installed; ``phase`` and ``op`` tag new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.phase, self.op, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index)
                if hook is not None and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[index][6] = hook(bound.arguments, result)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "clonelab" or n.startswith("clonelab.")]
        for module_name, fn_name, hook in TRACED:
            fn = getattr(importlib.import_module(f"clonelab.{module_name}"), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", fn, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self) -> dict:
        """Column form of every span, for writing out at the end of a run."""
        keys = ("name", "start", "end", "parent", "phase", "op", "info")
        return {k: [s[i] for s in self.spans] for i, k in enumerate(keys)}


def layer_metrics(tracer: Tracer, cycle: int, op_wall_s: float) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced phase.

    ``calls`` counts the calls made by the first set-up plus the first full
    op cycle, which is the same on every run of unchanged code.  ``_p50``
    times are medians of self time per call; the other times and rates are
    totals over calls (total self time over calls, trials, iterations or
    computed bytes), so calls at different d mix in fixed proportion.
    Set-up and timed op spans count; warm-up spans do not.
    """
    self_s = tracer.self_times()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(tracer.spans):
        if span[4] != "warmup":
            by_name[span[0]].append(i)

    def calls(name):
        return sum(1 for i in by_name[name]
                   if (tracer.spans[i][4], tracer.spans[i][5]) == ("setup", 0)
                   or (tracer.spans[i][4] == "op" and tracer.spans[i][5] < cycle))

    def self_per(name, key=None, scale=1.0, where=None):
        """Total self time of ``name`` over its call count, or over the sum of
        ``info[key]`` when a key is given."""
        idx = [i for i in by_name[name] if (tracer.spans[i][6] or not key)
               and (where is None or where(tracer.spans[i][6] or {}))]
        units = sum(tracer.spans[i][6][key] for i in idx) if key else len(idx)
        return sum(self_s[i] for i in idx) / units * scale if units else 0.0

    def self_p50_ms(name):
        values = [self_s[i] for i in by_name[name]]
        return statistics.median(values) * 1e3 if values else 0.0

    gate_bytes = self_per("channels.insert_gate", "bytes")
    m: dict[str, float] = {
        "channels.insert_gate.calls": calls("channels.insert_gate"),
        "channels.insert_gate.self_ms_p50": self_p50_ms("channels.insert_gate"),
        "channels.insert_gate.gbs_computed": 1e-9 / gate_bytes if gate_bytes else 0.0,
        "channels.comb_from_pre_post.self_s": self_per("channels.comb_from_pre_post"),
        "channels.comb_normalization_residuals.self_s":
            self_per("channels.comb_normalization_residuals"),
        "channels.choi_from_kraus.self_ms": self_per("channels.choi_from_kraus", scale=1e3),
        "cloner.build_cloner.self_s": self_per("cloner.build_cloner"),
        "linalg.partial_trace.calls": calls("linalg.partial_trace"),
        "linalg.partial_trace.self_ms": self_per("linalg.partial_trace", scale=1e3),
        "channels.comb_fidelity_functional.self_ms_p50":
            self_p50_ms("channels.comb_fidelity_functional"),
        "channels.channel_fidelity_with_double_unitary.self_ms_p50":
            self_p50_ms("channels.channel_fidelity_with_double_unitary"),
        "cloner.cloner_channel_closed_form.self_ms_p50":
            self_p50_ms("cloner.cloner_channel_closed_form"),
        "irreps.verify_covariance.calls": calls("irreps.verify_covariance"),
        "irreps.verify_covariance.self_ms_per_trial":
            self_per("irreps.verify_covariance", "trials", 1e3),
        "irreps.blocks_from_choi.self_ms": self_per("irreps.blocks_from_choi", scale=1e3),
        "haar.sample_haar_unitary.calls": calls("haar.sample_haar_unitary"),
        "haar.sample_haar_unitary.self_ms": self_per("haar.sample_haar_unitary", scale=1e3),
        "irreps.build_irrep_table.self_s": self_per("irreps.build_irrep_table"),
        "optimizer.build_problem.self_ms": self_per("optimizer.build_problem", scale=1e3),
        "optimizer.solve.us_per_iter": self_per("optimizer.solve", "iterations", 1e6),
        "channels.kraus_of.self_ms": self_per("channels.kraus_of", scale=1e3),
        "cloner.choi_r1_of_cloner.self_ms": self_per("cloner.choi_r1_of_cloner", scale=1e3),
        "protocol.build_bases.self_ms": self_per("protocol.build_bases", scale=1e3),
    }
    for d in (2, 3, 4):
        for task in ("clone", "learn"):
            its = [tracer.spans[i][6]["iterations"] for i in by_name["optimizer.solve"]
                   if tracer.spans[i][6] and tracer.spans[i][6]["d"] == d
                   and tracer.spans[i][6]["task"] == task]
            m[f"optimizer.solve.iterations.{d}.{task}"] = its[0] if its else 0
    for strategy in ("none", "intercept_resend", "clone_attack"):
        sampled = [tracer.spans[i] for i in by_name["protocol.run_sampled"]
                   if tracer.spans[i][6] and tracer.spans[i][6]["strategy"] == strategy]
        sampled_s = sum(s[2] - s[1] for s in sampled)
        m[f"protocol.run_sampled.{strategy}.rounds_per_s"] = (
            sum(s[6]["rounds"] for s in sampled) / sampled_s if sampled_s else 0.0)
        m[f"protocol.run_exact.{strategy}.self_ms"] = self_per(
            "protocol.run_exact", scale=1e3, where=lambda info: info.get("strategy") == strategy)
    busy = defaultdict(float)
    for i, span in enumerate(tracer.spans):
        if span[4] == "op":
            busy[span[0].split(".")[0]] += self_s[i]
    for layer in LAYERS:
        m[f"layer.{layer}.busy_frac"] = busy[layer] / op_wall_s
    return m


def iteration_counts(tracer: Tracer) -> dict[str, list[int]]:
    """Every distinct solver iteration count seen per (d, task)."""
    seen: dict[str, set] = defaultdict(set)
    for span in tracer.spans:
        if span[0] == "optimizer.solve" and span[6]:
            seen[f"{span[6]['d']}.{span[6]['task']}"].add(span[6]["iterations"])
    return {k: sorted(v) for k, v in sorted(seen.items())}
