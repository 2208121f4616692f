"""clonelab benchmark runner.

One workload per process, closed loop, one client:

    python3 bench/run.py --workload gate_check_d4 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (first half of the time untraced, second half
traced, so the tracing overhead is measured in the same process).  The last
line of standard output is the result object; the line before it is the
full record (environment, details, all numbers).

    python3 bench/run.py --all --seed 0 --seconds 20 [--save bench/BENCH_1.json]

runs every workload, untraced and traced, each in its own child process,
and prints every metric by name with its unit.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WARMUP_BASE = 1_000_000  # input index of the first warm-up op, far from timed ops
TAIL_BEYOND = 10  # the tail latency is the highest order statistic with this many above it

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MiB"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: with two on a 2-core machine the d = 2 clone_attack op
# switched between about 35 ms and 150 ms from run to run, as OpenBLAS
# threads waited on tiny matrices.
BLAS_THREADS = 1


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith(".calls") or ".iterations." in metric:
        return "count"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith(("gbs", "gbs_computed")):
        return "GB/s"
    if metric.endswith("rounds_per_s"):
        return "1/s"
    if metric.endswith("us_per_iter"):
        return "us"
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    raise ValueError(f"no unit rule for {metric}")


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _run_op(wl, state, seed, op, tracer, phase):
    """One op: inputs drawn untimed, then the timed library calls and checks."""
    if tracer:
        tracer.phase, tracer.op = phase, op
    inp = wl.make_input(state, seed, op)
    t0 = time.perf_counter()
    error = None
    try:
        with _span(tracer, "bench.op"):
            checks = wl.op(state, inp)
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        checks, error = [], f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    # `not residual <= tol` also catches NaN and inf residuals
    failed = [(name, float(res), tol) for name, res, tol in checks if not res <= tol]
    return {"op": op, "s": elapsed, "ok": error is None and not failed,
            "error": error, "failed_checks": failed}


def run_phase(wl, seed, seconds, tracer=None, corrupt=None, max_ops=None, setups=None):
    """Set up ``setups`` (default ``wl.setup_repeats``) times, warm up one cycle,
    then run whole op cycles until ``seconds`` have passed or ``max_ops`` ops
    are done.  ``corrupt`` maps the workload's comb before the library sees it."""
    setup_s = []
    state = None
    for k in range(setups or wl.setup_repeats):
        state = None  # free the previous set-up before timing the next
        if tracer:
            tracer.phase, tracer.op = "setup", k
        t0 = time.perf_counter()
        with _span(tracer, "bench.setup"):
            state = wl.setup(corrupt)
        setup_s.append(time.perf_counter() - t0)
    warmup = [_run_op(wl, state, seed, WARMUP_BASE + i, tracer, "warmup")
              for i in range(wl.cycle)]
    ops = []
    t_start = time.perf_counter()
    while True:
        ops.append(_run_op(wl, state, seed, len(ops), tracer, "op"))
        if len(ops) % wl.cycle == 0 and (
                time.perf_counter() - t_start >= seconds
                or (max_ops is not None and len(ops) >= max_ops)):
            break
    wall = time.perf_counter() - t_start
    return {"setup_s": setup_s, "warmup": warmup, "ops": ops, "wall_s": wall}


def summarize(phase) -> dict:
    """End-to-end numbers of one phase, plus the details needed to read them."""
    ops = phase["ops"]
    durations = sorted(o["s"] for o in ops)
    n = len(durations)
    passed = sum(o["ok"] for o in ops)
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "setup_s": statistics.median(phase["setup_s"]),
        "ops_per_s": passed / phase["wall_s"],
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": durations[tail_index] * 1e3,
        "failed_frac": (n - passed) / n,
        "attempted": n,
        "failed": n - passed,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_samples": n,
        "wall_s": phase["wall_s"],
        "setup_s_first": phase["setup_s"][0],
        "setup_s_quartiles": statistics.quantiles(phase["setup_s"], n=4),
        "warmup_failed": sum(not o["ok"] for o in phase["warmup"]),
        "failures": [o for o in ops if not o["ok"]][:5],
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own repository; None where it has no ``.git``."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clonelab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, threads: int) -> dict:
    probe = subprocess.run([sys.executable, str(BENCH / "machine.py")], capture_output=True,
                           text=True, timeout=120, check=True)
    copy = json.loads(probe.stdout.strip().splitlines()[-1])
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": machine.nproc(),
        **machine.python_info(),
        **machine.blas_info(),
        "blas_threads_pinned": threads,
        "llc_bytes": machine.llc_bytes(),
        "machine.copy_gbs": copy["copy_gbs"],
        "copy_array_mib": copy["copy_array_mib"],
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace, threads) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        plain = summarize(run_phase(wl, seed, seconds))
        plain["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: plain[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        record["end_to_end"] = plain
        attempted, failed = plain["attempted"], plain["failed"]
    else:
        plain = summarize(run_phase(wl, seed, seconds / 2))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_phase = run_phase(wl, seed, seconds / 2, tracer=tracer)
        finally:
            tracer.remove()
        traced = summarize(traced_phase)
        metrics = tracing.layer_metrics(tracer, wl.cycle, traced_phase["wall_s"])
        metrics["trace_overhead_frac"] = plain["ops_per_s"] / traced["ops_per_s"] - 1.0
        units = {k: unit_of(k) for k in metrics}
        record.update(untraced=plain, traced=traced,
                      iterations_seen=tracing.iteration_counts(tracer),
                      spans=len(tracer.spans))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans_{name}_seed{seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    # the copy probe runs last, so its 2.4 GB of page traffic disturbs no timing
    record["environment"] = env = environment(seed, threads)
    if trace:
        metrics["machine.copy_gbs"] = env["machine.copy_gbs"]
        units["machine.copy_gbs"] = unit_of("machine.copy_gbs")
    record["metrics"] = metrics
    for key, value in metrics.items():
        print(f"{name:<18} {key:<58} {value:>14.6g} {units[key]}")
    print(f"{name:<18} {'failed_frac':<58} {failed / attempted:>14.6g} frac")
    print(json.dumps(record, default=float))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(seed, seconds, save) -> int:
    from workloads import WORKLOADS

    records = []
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-2]) + "\n")
            records.append(json.loads(lines[-2]))
            ok = ok and json.loads(lines[-1])["correct"]
    if save:
        with open(save, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "runs": records}, fh, indent=1, default=float)
            fh.write("\n")
    return 0 if ok else 1


def prepare() -> int:
    """Pin the BLAS threads and make ``src/clonelab`` importable; exit 2 without it.

    Returns the pinned BLAS thread count.
    """
    if not (SRC / "clonelab" / "__init__.py").is_file():
        sys.stderr.write(f"clonelab sources not found under {SRC}\n")
        raise SystemExit(2)
    threads = min(BLAS_THREADS, machine.nproc())
    for var in BLAS_ENV:  # must be set before numpy is first imported
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import clonelab

    if Path(clonelab.__file__).resolve().parent != SRC / "clonelab":
        sys.stderr.write(f"imported clonelab from {clonelab.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, traced and not")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --all: write every record to this JSON file")
    args = parser.parse_args(argv)

    threads = prepare()
    from workloads import WORKLOADS

    if args.all:
        return run_all(args.seed, args.seconds, args.save)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args.workload, args.seed, args.seconds, args.trace, threads)


if __name__ == "__main__":
    sys.exit(main())
