"""Command-line front end: verification suites, optimizer runs, tables, protocol.

Subcommands: verify-cloner, optimize, baselines, table, protocol, full-suite.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.  Output is
text by default; --json emits a schema-versioned object, --csv (where
offered) a locale-independent table.  CLONELAB_SEED serves as the seed
fallback when --seed is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import baselines as bl
from . import cloner as cn
from . import optimizer as opt
from . import protocol as proto
from .channels import (
    channel_fidelity_with_double_unitary,
    channel_to_json_dict,
    comb_to_json_dict,
    insert_gate,
)
from .haar import SeededRng, average_fidelity_mc, haar_unitaries
from .irreps import block_fidelity, blocks_from_choi, build_irrep_table, verify_covariance
from .linalg import max_abs, worst

SCHEMA_VERSION = "1"
CORRUPT_ENV = "CLONELAB_CORRUPT_R1"
SEED_ENV = "CLONELAB_SEED"


@dataclass
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
        }

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name:<44} residual {self.residual:.3e}  tol {self.tolerance:.1e}"


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _maybe_corrupt(choi: np.ndarray) -> np.ndarray:
    """Test hook: perturb one entry of the comb when the env flag is set."""
    flag = os.environ.get(CORRUPT_ENV)
    if not flag:
        return choi
    try:
        eps = float(flag)
    except ValueError:
        eps = 1e-3
    bad = choi.copy()
    bad[0, 1] += eps
    bad[1, 0] += eps
    return bad


def _cloner_checks(d: int, samples: int, seed: int) -> tuple[list[Check], dict]:
    rng = SeededRng(seed)
    assembly = cn.build_cloner(d)
    r1_choi = _maybe_corrupt(assembly.r1.choi)
    f_ref = cn.closed_form_fidelity(d)
    checks: list[Check] = []
    info: dict = {"d": d, "f_clon_closed_form": f_ref}

    checks.append(Check("pre_channel_trace_preserving", assembly.channel_a.tp_residual(), 1e-10))
    checks.append(Check("post_channel_trace_preserving", assembly.channel_b.tp_residual(), 1e-10))

    net = cn.CombNetwork(choi=r1_choi, d=d)
    fids, paths, inserts = [], [], []
    n_haar = max(1, min(samples, 20))
    for u in haar_unitaries(d, n_haar, rng.substream(1)):
        composed = cn.cloner_channel(u)
        closed = cn.cloner_channel_closed_form(u)
        fids.append(channel_fidelity_with_double_unitary(composed, u))
        paths.append(max_abs(composed.choi - closed.choi))
        inserts.append(max_abs(insert_gate(net, u).choi - closed.choi))
    info["f_clon_numeric"] = float(np.mean(fids))
    checks.append(Check("fidelity_matches_closed_form", worst(abs(f - f_ref) for f in fids), 1e-9))
    checks.append(Check("fidelity_constant_over_gates", float(np.std(fids)), 1e-12))
    checks.append(Check("compose_vs_closed_form_choi", worst(paths), 1e-9))
    checks.append(Check("insert_gate_vs_closed_form_choi", worst(inserts), 1e-9))

    res_slot, res_input = net.normalization_residuals()
    checks.append(Check("comb_normalization_slot", res_slot, 1e-9))
    checks.append(Check("comb_normalization_input", res_input, 1e-9))
    if d <= 3:
        cov = verify_covariance(r1_choi, d, trials=5, rng=rng.substream(2))
        checks.append(Check("comb_covariance", cov, 1e-9))

    gen = rng.substream(3).generator()
    reductions = []
    for _ in range(10):
        v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        v /= np.linalg.norm(v)
        sigma = np.kron(np.outer(v, v.conj()), np.diag([1.0, 0.0]))
        out = sum(k @ sigma @ k.conj().T for k in cn.kraus_post_b(d))
        p_plus, _ = cn.sym_antisym_projectors(d)
        ref = d / (d * (d + 1) // 2) * (p_plus @ np.kron(np.outer(v, v.conj()), np.eye(d)) @ p_plus)
        reductions.append(max_abs(out - ref))
    checks.append(Check("state_cloner_reduction", worst(reductions), 1e-10))
    if d == 2:
        e0 = np.array([1.0, 0.0])
        sigma = np.kron(np.outer(e0, e0), np.diag([1.0, 0.0]))
        out = sum(k @ sigma @ k.conj().T for k in cn.kraus_post_b(2))
        from .linalg import partial_trace

        clone = partial_trace(out, [2, 2], keep=[0])
        f_single = float(np.real(e0 @ clone @ e0))
        checks.append(Check("single_clone_fidelity_5_6", abs(f_single - 5.0 / 6.0), 1e-9))
        info["single_clone_fidelity"] = f_single

    _, dil_res = cn.controlled_swap_dilation(d, trials=10, rng=rng.substream(4))
    checks.append(Check("controlled_swap_dilation", dil_res, 1e-9))

    u = next(iter(haar_unitaries(d, 1, rng.substream(5))))
    f_deco = channel_fidelity_with_double_unitary(cn.decohered_cloner_channel(u), u)
    checks.append(Check("decohered_fidelity_1_over_d2", abs(f_deco - 1.0 / d**2), 1e-9))
    info["f_deco_numeric"] = f_deco

    if samples > 0:
        # runtime cap: gate insertion on the d = 4 comb costs ~0.1 s per draw
        mc_samples = min(samples, 200 if d <= 3 else 20)
        mean, stderr = average_fidelity_mc(net, mc_samples, rng.substream(6))
        checks.append(Check("mc_average_fidelity", abs(mean - f_ref), max(1e-9, 5 * stderr + 1e-12)))
        info["mc_mean"] = mean
        info["mc_stderr"] = stderr
    return checks, info


def cmd_verify_cloner(args) -> int:
    seed = _resolve_seed(args.seed)
    checks, info = _cloner_checks(args.d, args.samples, seed)
    ok = all(c.passed for c in checks)
    if args.dump:
        assembly = cn.build_cloner(args.d)
        payload = {
            "schema": SCHEMA_VERSION,
            "comb": comb_to_json_dict(assembly.r1),
            "pre_channel": channel_to_json_dict(assembly.channel_a),
            "post_channel": channel_to_json_dict(assembly.channel_b),
        }
        with open(args.dump, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh)
    if args.json:
        out = {
            "schema": SCHEMA_VERSION,
            "command": "verify-cloner",
            "seed": seed,
            **info,
            "checks": [c.as_dict() for c in checks],
            "passed": ok,
        }
        _emit(json.dumps(out, indent=2), args.output)
    else:
        lines = [f"verify-cloner  d={args.d}  seed={seed}"]
        lines += [c.line() for c in checks]
        lines.append(f"f_clon = {info['f_clon_numeric']:.8f} (closed form {info['f_clon_closed_form']:.8f})")
        lines.append("ALL CHECKS PASSED" if ok else "CHECK FAILURES PRESENT")
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def cmd_optimize(args) -> int:
    problem = opt.build_problem(args.d, args.task)
    result = opt.solve(problem, tol=args.tol)
    reference = opt.analytic_bound(args.d) if args.task == "clone" else bl.f_learning(args.d)
    gap = abs(result.optimal_value - reference)
    ok = gap <= 1e-6
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "optimize",
        "d": args.d,
        "task": args.task,
        "optimal_value": result.optimal_value,
        "reference": reference,
        "gap": gap,
        "iterations": result.iterations,
        "kkt_residual": result.kkt_residual,
        "passed": ok,
    }
    if args.json:
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(
            f"optimize  d={args.d} task={args.task}\n"
            f"optimal value  {result.optimal_value:.9f}\n"
            f"reference      {reference:.9f}\n"
            f"gap            {gap:.3e}\n"
            f"iterations     {result.iterations}\n"
            f"kkt residual   {result.kkt_residual:.3e}\n"
            + ("PASS" if ok else "FAIL"),
            args.output,
        )
    return 0 if ok else 1


def cmd_baselines(args) -> int:
    report = bl.build_report(args.d)
    fixed_points = bl.no_cloning_fixed_points(1001)
    perm = bl.permutation_discrimination(3)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "baselines",
            **report.as_dict(),
            "no_cloning_fixed_points": fixed_points,
            "permutation_n3": {"max_distinguishable": perm[0], "feasible_all": perm[1]},
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        r = report
        _emit(
            f"baselines  d={r.d}\n"
            f"f_clon  = {r.f_clon:.7f}\n"
            f"f_est   = {r.f_est:.7f}\n"
            f"f_ran   = {r.f_ran:.7f}\n"
            f"f_deco  = {r.f_deco:.7f}\n"
            f"f_learn = {r.f_learn:.7f}\n"
            f"no-cloning fixed points on [0, 1/2]: {fixed_points}\n"
            f"permutations of 3 letters distinguishable by one query: "
            f"{perm[0]} of 6 (all: {perm[1]})",
            args.output,
        )
    return 0


def cmd_table(args) -> int:
    rows = [bl.build_report(d) for d in (2, 3, 4)]
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "table",
            "rows": [r.as_dict() for r in rows],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.csv:
        lines = ["d,f_clon,f_est,f_ran,f_deco,f_learn"]
        for r in rows:
            lines.append(
                f"{r.d},{r.f_clon!r},{r.f_est!r},{r.f_ran!r},{r.f_deco!r},{r.f_learn!r}"
            )
        _emit("\n".join(lines), args.output)
    else:
        lines = [f"{'d':>2} {'f_clon':>10} {'f_est':>10} {'f_ran':>10} {'f_deco':>10} {'f_learn':>10}"]
        for r in rows:
            lines.append(
                f"{r.d:>2} {r.f_clon:>10.7f} {r.f_est:>10.7f} {r.f_ran:>10.7f} "
                f"{r.f_deco:>10.7f} {r.f_learn:>10.7f}"
            )
        _emit("\n".join(lines), args.output)
    return 0


_STRATEGY_ALIASES = {"none": "none", "intercept": "intercept_resend", "clone": "clone_attack"}


def cmd_protocol(args) -> int:
    strategy = _STRATEGY_ALIASES[args.strategy]
    bases = proto.build_bases()
    seed = _resolve_seed(args.seed)
    if args.exact:
        stats = proto.run_exact(strategy, bases)
    else:
        stats = proto.run_sampled(strategy, bases, args.rounds, SeededRng(seed))
    d = stats.as_dict()
    if args.json:
        _emit(json.dumps({"schema": SCHEMA_VERSION, "command": "protocol", **d}, indent=2),
              args.output)
    elif args.csv:
        header = ",".join(d.keys())
        row = ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                       for v in d.values())
        _emit(header + "\n" + row, args.output)
    else:
        _emit(
            f"protocol  strategy={stats.strategy} mode={stats.mode}"
            + (f" rounds={stats.rounds} seed={stats.seed}" if stats.mode == "sampled" else "")
            + f"\nsift_rate         = {stats.sift_rate}"
            f"\nsymbol_error_rate = {stats.symbol_error_rate}"
            f"\neve_guess_prob    = {stats.eve_guess_prob}",
            args.output,
        )
    return 0


def _guarded(checks: list[Check], name: str, tolerance: float, fn) -> None:
    """Append a check, converting an exception into a failure line."""
    try:
        residual = float(fn())
    except Exception as exc:  # report, do not abort the suite
        residual = float("inf")
        name = f"{name} ({type(exc).__name__})"
    checks.append(Check(name, residual, tolerance))


def _full_suite_checks(seed: int, quick: bool) -> list[Check]:
    rng = SeededRng(seed)
    checks: list[Check] = []

    for d in (2, 3, 4):
        u = next(iter(haar_unitaries(d, 1, rng.substream(10 + d))))
        fid = channel_fidelity_with_double_unitary(cn.cloner_channel(u), u)
        checks.append(Check(f"closed_form_fidelity_d{d}", abs(fid - cn.closed_form_fidelity(d)), 1e-9))
        f_deco = channel_fidelity_with_double_unitary(cn.decohered_cloner_channel(u), u)
        checks.append(Check(f"decohered_equals_random_d{d}", abs(f_deco - bl.f_random(d)), 1e-9))

    comb_dims = (2,) if quick else (2, 3)
    for d in comb_dims:
        assembly = cn.build_cloner(d)
        r1_choi = _maybe_corrupt(assembly.r1.choi)
        net = cn.CombNetwork(choi=r1_choi, d=d)
        res_slot, res_input = net.normalization_residuals()
        checks.append(Check(f"comb_normalization_d{d}", worst((res_slot, res_input)), 1e-9))
        cov = verify_covariance(r1_choi, d, trials=3, rng=rng.substream(20 + d))
        checks.append(Check(f"comb_covariance_d{d}", cov, 1e-9))
        n_u = 5 if quick else 20
        inserted = worst(max_abs(insert_gate(net, u).choi - cn.cloner_channel_closed_form(u).choi)
                         for u in haar_unitaries(d, n_u, rng.substream(30 + d)))
        checks.append(Check(f"insert_vs_closed_form_d{d}", inserted, 1e-9))
        table = build_irrep_table(d)

        def _block_residual(r1_choi=r1_choi, table=table, d=d):
            blocks = blocks_from_choi(r1_choi, table, rng=rng.substream(40 + d))
            return abs(block_fidelity(blocks, table) - cn.closed_form_fidelity(d))

        _guarded(checks, f"block_fidelity_d{d}", 1e-9, _block_residual)

    opt_dims = (2,) if quick else (2, 3, 4)
    for d in opt_dims:
        res = opt.solve(opt.build_problem(d, "clone"), tol=1e-8)
        checks.append(Check(f"optimizer_clone_d{d}",
                            abs(res.optimal_value - opt.analytic_bound(d)), 1e-6))
        res = opt.solve(opt.build_problem(d, "learn"), tol=1e-8)
        checks.append(Check(f"optimizer_learn_d{d}",
                            abs(res.optimal_value - bl.f_learning(d)), 1e-6))
        checks.append(Check(f"learn_equals_estimation_d{d}",
                            abs(bl.f_learning(d) - bl.f_estimation(d)), 0.0))

    fixed = bl.no_cloning_fixed_points(1001)
    checks.append(Check("no_cloning_fixed_points",
                        0.0 if fixed == [0.0, 0.5] else 1.0, 0.0))
    perm = bl.permutation_discrimination(3)
    checks.append(Check("permutation_discrimination_n3",
                        0.0 if perm == (3, False) else 1.0, 0.0))

    bases = proto.build_bases()
    honest = proto.run_exact("none", bases)
    checks.append(Check("protocol_honest_exact",
                        abs(honest.symbol_error_rate) + abs(honest.sift_rate - 0.5), 0.0))
    unbiasedness = []
    for v in haar_unitaries(2, 10, rng.substream(50)):
        seed_state = np.kron(np.eye(2), v) @ np.eye(2).reshape(-1) / np.sqrt(2)
        b2 = proto.build_bases(seed_state)
        unbiasedness.append(max_abs(proto.mutual_unbiasedness_matrix(b2) - 0.25))
    checks.append(Check("mutual_unbiasedness_random_seeds", worst(unbiasedness), 1e-12))
    ir = proto.run_exact("intercept_resend", bases)
    checks.append(Check("protocol_intercept_exact", abs(ir.symbol_error_rate - 0.375), 0.0))
    clone_stats = proto.run_exact("clone_attack", bases)
    reg = worst((abs(clone_stats.symbol_error_rate - proto.CLONE_ATTACK_SYMBOL_ERROR),
                 abs(clone_stats.eve_guess_prob - proto.CLONE_ATTACK_EVE_GUESS)))
    checks.append(Check("protocol_clone_attack_regression", reg, 1e-9))
    ordering_ok = (clone_stats.symbol_error_rate < 0.375
                   and clone_stats.eve_guess_prob > 0.25)
    checks.append(Check("protocol_clone_attack_ordering", 0.0 if ordering_ok else 1.0, 0.0))
    if not quick:
        sampled = proto.run_sampled("intercept_resend", bases, 100_000, rng.substream(60))
        sigma = np.sqrt(0.375 * 0.625 / (sampled.rounds * sampled.sift_rate))
        checks.append(Check("protocol_intercept_sampled_4sigma",
                            abs(sampled.symbol_error_rate - 0.375), 4 * sigma))

    net = cn.choi_r1_of_cloner(2)
    mean, stderr = average_fidelity_mc(net, 50, rng.substream(70))
    checks.append(Check("mc_fidelity_constant_integrand",
                        abs(mean - cn.closed_form_fidelity(2)) + stderr, 1e-9))
    return checks


def cmd_full_suite(args) -> int:
    seed = _resolve_seed(args.seed)
    start = time.perf_counter()
    checks = _full_suite_checks(seed, args.quick)
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "full-suite",
            "quick": bool(args.quick),
            "seed": seed,
            "elapsed_seconds": elapsed,
            "checks": [c.as_dict() for c in checks],
            "passed": ok,
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = [f"full-suite  quick={args.quick} seed={seed}"]
        lines += [c.line() for c in checks]
        lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed "
                     f"in {elapsed:.1f}s")
        lines.append("ALL CHECKS PASSED" if ok else "CHECK FAILURES PRESENT")
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonelab",
        description="Cloning of unitary gates: verification, optimization, baselines, protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-cloner", help="run the cloner invariant suite")
    p.add_argument("--d", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--samples", type=int, default=1000,
                   help="Monte Carlo draws (internally capped per dimension)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump", type=str, default=None,
                   help="write the comb and channel Choi operators to a JSON file")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_verify_cloner)

    p = sub.add_parser("optimize", help="re-derive an optimal fidelity numerically")
    p.add_argument("--d", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--task", choices=("clone", "learn"), required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("baselines", help="closed-form baseline fidelities and scans")
    p.add_argument("--d", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("table", help="baseline table for d = 2, 3, 4")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("protocol", help="simulate the gate-encoded protocol")
    p.add_argument("--strategy", choices=tuple(_STRATEGY_ALIASES), required=True)
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exact", action="store_true",
                   help="exact statistics instead of sampled rounds")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("full-suite", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", help="d = 2 scope, under 30 seconds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_full_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
