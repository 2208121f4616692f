"""Command-line front end: verification suites, optimizer runs, tables, protocol.

Subcommands: verify-cloner, optimize, baselines, table, protocol, full-suite.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.  Output is
text by default; --json emits a schema-versioned object, --csv (where
offered) a locale-independent table.  CLONELAB_SEED serves as the seed
fallback when --seed is absent.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import baselines as bl
from . import cloner as cn
from . import optimizer as opt
from . import protocol as proto
from .channels import (
    CombNetwork,
    apply_channel,
    channel_fidelity_with_double_unitary,
    channel_to_json_dict,
    comb_to_json_dict,
    insert_gate,
)
from .haar import SeededRng, average_fidelity_mc, haar_unitaries
from .irreps import block_fidelity, build_irrep_table, require_covariant, twirl
from .linalg import max_abs, partial_trace, worst

SCHEMA_VERSION = "1"
CORRUPT_ENV = "CLONELAB_CORRUPT_R1"
SEED_ENV = "CLONELAB_SEED"
# the optimizer's closed-form target per task, and the largest accepted gap
OPTIMIZER_REFERENCE = {"clone": opt.analytic_bound, "learn": bl.f_learning}
OPTIMIZER_GAP_TOL = 1e-6
ROUNDS_MAX = 2**63 - 1  # the sampler draws the round count as a 64-bit integer


@dataclass
class Check:
    name: str
    residual: float
    tolerance: float
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name:<44} residual {self.residual:.3e}  tol {self.tolerance:.1e}"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _maybe_corrupt(network: CombNetwork) -> CombNetwork:
    """Test hook: when the env flag is set (a number eps: see main), the term
    network plus one term E_00 (x) eps (E_01 + E_10), which adds eps to the
    dense entries [0, 1] and [1, 0]; otherwise the network itself.  eps is
    written, not added, so a NaN flag marks exactly two term entries."""
    flag = os.environ.get(CORRUPT_ENV)
    if not flag:
        return network
    a, b = network.terms
    extra_a = np.zeros((1,) + a.shape[1:], dtype=complex)
    extra_b = np.zeros_like(extra_a)
    extra_a[0, 0, 0] = 1.0
    extra_b[0, 0, 1] = extra_b[0, 1, 0] = float(flag)
    return CombNetwork(d=network.d, terms=(np.concatenate([a, extra_a]),
                                           np.concatenate([b, extra_b])))


def _run(specs, suffix: str = "") -> list[Check]:
    """Evaluate ``(name, tolerance, residual_fn)`` specs, each as soon as it is
    yielded; an exception fails its check, with the exception type in the name.
    A value that several checks share is timed in the first check that needs it."""
    checks = []
    for name, tolerance, fn in specs:
        name += suffix
        start = time.perf_counter()
        try:
            residual = float(fn())
        except Exception as exc:  # report, do not abort the battery
            residual, name = float("inf"), f"{name} ({type(exc).__name__})"
        checks.append(Check(name, residual, tolerance, time.perf_counter() - start))
    return checks


def _nonfinite_entries(network: CombNetwork) -> int:
    """Non-finite entries of the comb's terms: finite terms link to a finite
    operator, and a non-finite term entry spreads into the linked one."""
    return sum(np.count_nonzero(~np.isfinite(p)) for p in network.terms)


def _cloner_battery(d: int, n_gates: int, assembly: cn.ClonerAssembly | None,
                    mc_samples: int, rng: SeededRng, info: dict):
    """Cloner checks at dimension ``d`` on ``n_gates`` Haar gates: first the gate
    checks, then, given the ``assembly``, the checks on its comb after the
    CLONELAB_CORRUPT_R1 hook.  ``mc_samples`` = 0 skips the Monte Carlo average,
    and measured values go to ``info``."""
    f_ref = cn.closed_form_fidelity(d)
    gates = list(haar_unitaries(d, n_gates, rng.substream(1)))
    closed = functools.cache(lambda: [cn.cloner_channel_closed_form(u) for u in gates])
    composed = functools.cache(lambda: [cn.cloner_channel(u) for u in gates])
    fids = functools.cache(lambda: np.array(
        [channel_fidelity_with_double_unitary(c, u) for c, u in zip(composed(), gates)]))

    def fidelity():
        info["f_clon_numeric"] = float(fids().mean())
        return worst(abs(fids() - f_ref))

    def reduction():
        gen, post = rng.substream(3).generator(), cn.post_channel_b(d)
        p_plus, _ = cn.sym_antisym_projectors(d)
        residuals = []
        for _ in range(10):
            v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
            proj = np.outer(v, v.conj()) / np.vdot(v, v).real
            ref = d / (d * (d + 1) // 2) * (p_plus @ np.kron(proj, np.eye(d)) @ p_plus)
            residuals.append(max_abs(apply_channel(post, np.kron(proj, np.diag([1.0, 0.0]))) - ref))
        return worst(residuals)

    def single_clone():
        out = apply_channel(cn.post_channel_b(2), np.diag([1.0, 0, 0, 0]))  # |0><0| (x) |+><+|
        info["single_clone_fidelity"] = float(np.real(partial_trace(out, [2, 2], keep=[0])[0, 0]))
        return abs(info["single_clone_fidelity"] - 5.0 / 6.0)

    def decohered():
        f = channel_fidelity_with_double_unitary(cn.decohered_cloner_channel(gates[0]), gates[0])
        info["f_deco_numeric"] = f
        return abs(f - 1.0 / d**2)

    yield "pre_channel_trace_preserving", 1e-10, lambda: cn.pre_channel_a(d).tp_residual()
    yield "post_channel_trace_preserving", 1e-10, lambda: cn.post_channel_b(d).tp_residual()
    yield "fidelity_matches_closed_form", 1e-9, fidelity
    yield "fidelity_constant_over_gates", 1e-12, lambda: np.std(fids())
    yield "compose_vs_closed_form_choi", 1e-9, lambda: worst(
        max_abs(a.choi - b.choi) for a, b in zip(composed(), closed()))
    yield "state_cloner_reduction", 1e-10, reduction
    if d == 2:
        yield "single_clone_fidelity_5_6", 1e-9, single_clone
    yield "controlled_swap_dilation", 1e-9, lambda: cn.controlled_swap_dilation(
        d, trials=10, rng=rng.substream(4))[1]
    yield "decohered_fidelity_1_over_d2", 1e-9, decohered
    if assembly is None:
        return

    net = _maybe_corrupt(assembly.r1)
    normalization = functools.cache(net.normalization_residuals)
    table = functools.cache(lambda: build_irrep_table(d))
    twirled = functools.cache(lambda: twirl(net, table()))  # (blocks, covariance residual)

    def blocks():
        blocks, residual = twirled()
        require_covariant(residual)
        return abs(block_fidelity(blocks, table()) - f_ref)

    def mc():
        mean, stderr = average_fidelity_mc(net, mc_samples, rng.substream(6))
        info.update(mc_mean=mean, mc_stderr=stderr)
        return abs(mean - f_ref) + stderr

    # first: a non-finite entry off the diagonal of factor 3E (where the corruption
    # hook writes) is invisible to the normalization checks
    yield "comb_finite", 0.0, lambda: _nonfinite_entries(net)
    yield "comb_normalization_slot", 1e-9, lambda: normalization()[0]
    yield "comb_normalization_input", 1e-9, lambda: normalization()[1]
    yield "insert_gate_vs_closed_form_choi", 1e-9, lambda: worst(
        max_abs(insert_gate(net, u).choi - c.choi) for u, c in zip(gates, closed()))
    yield "comb_covariance", 1e-9, lambda: twirled()[1]
    yield "block_fidelity", 1e-9, blocks
    if mc_samples:
        yield "mc_average_fidelity", 1e-9, mc


def _report(args, command: str, scope: str, checks: list[Check], fields: dict,
            summary: str) -> int:
    """Print the checks as text or JSON; 0 when all pass, else 1."""
    ok = all(c.passed for c in checks)
    if args.json:
        payload = {"schema": SCHEMA_VERSION, "command": command, "seed": args.seed, **fields,
                   "checks": [c.as_dict() for c in checks], "passed": ok}
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = [f"{command}  {scope}  seed={args.seed}", *(c.line() for c in checks), summary,
                 "ALL CHECKS PASSED" if ok else "CHECK FAILURES PRESENT"]
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def cmd_verify_cloner(args) -> int:
    d, assembly = args.d, cn.build_cloner(args.d)
    f_ref = cn.closed_form_fidelity(d)
    info = {"d": d, "f_clon_closed_form": f_ref}
    checks = _run(_cloner_battery(d, max(1, min(args.samples, 20)), assembly,
                                  min(args.samples, 200), SeededRng(args.seed), info))
    if args.dump:
        payload = {"schema": SCHEMA_VERSION, "comb": comb_to_json_dict(assembly.r1),
                   "pre_channel": channel_to_json_dict(assembly.channel_a),
                   "post_channel": channel_to_json_dict(assembly.channel_b)}
        with open(args.dump, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh)
    summary = f"f_clon = {info.get('f_clon_numeric', np.nan):.8f} (closed form {f_ref:.8f})"
    return _report(args, "verify-cloner", f"d={d}", checks, info, summary)


def cmd_optimize(args) -> int:
    problem = opt.build_problem(args.d, args.task)
    result = opt.solve(problem, tol=args.tol)
    reference = OPTIMIZER_REFERENCE[args.task](args.d)
    gap = abs(result.optimal_value - reference)
    ok = gap <= OPTIMIZER_GAP_TOL
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
        "dual_bound": result.dual_bound,
        "certified_gap": result.certified_gap,
        "trace": [{"iteration": it, "primal": primal, "dual": dual, "gap": rel_gap}
                  for it, primal, dual, rel_gap in result.trace],
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
            f"dual bound     {result.dual_bound:.9f}\n"
            f"certified gap  {result.certified_gap:.3e}\n"
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
            **asdict(report),
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
            "rows": [asdict(r) for r in rows],
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
    if args.exact:
        stats = proto.run_exact(strategy, bases)
    else:
        stats = proto.run_sampled(strategy, bases, args.rounds, SeededRng(args.seed))
    d = asdict(stats)
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


def _certificate_excess(problem: opt.OptimizationProblem, result: opt.OptimizationResult,
                        closed_form: float) -> float:
    """The larger of value - closed form and closed form - dual_bound, less an
    allowance: at most 0 when value <= closed form <= dual_bound holds.

    The solve returns a point X whose constraint rows A(X) miss b by at most
    its primal residual p (max norm), so the value is at most the optimum
    OPT(A(X)).  Both optima are positively homogeneous in b and do not
    decrease as b grows, since PSD weight in a block (mu, nu) with nu != mu
    raises the rows without touching the objective.  The cloning rows are two
    budgets b_i > 0, so A(X) <= (1 + p / min b_i) b.  The learning rows are,
    per irrep, an identity on at most 2 sectors whose entries miss by at most
    p in real and imaginary part, a spectral error of at most 2 sqrt(2) p.
    So value <= (1 + kappa p) OPT, with kappa = 1 / min b_i or 2 sqrt(2).
    The dual bound holds for every exactly feasible X, so OPT <= dual_bound
    up to rounding.  The allowance is (kappa p + n eps) times the closed form,
    where n eps bounds the rounding of the n-term objective sum.
    """
    primal = result.trace[-1][1]
    kappa = 1.0 / problem.rhs.min() if problem.task == "clone" else 2.0 * np.sqrt(2.0)
    allowance = (kappa * primal + problem.objective.size * np.finfo(float).eps) * closed_form
    return worst((result.optimal_value - closed_form,
                  closed_form - result.dual_bound)) - allowance


def _suite_battery(rng: SeededRng, quick: bool):
    """full-suite's optimizer, no-cloning arithmetic and protocol checks."""
    problem = functools.cache(opt.build_problem)
    solved = functools.cache(lambda d, task: opt.solve(problem(d, task), tol=1e-8))
    for d in (2,) if quick else (2, 3, 4):
        for task, ref in OPTIMIZER_REFERENCE.items():
            yield f"optimizer_{task}_d{d}", OPTIMIZER_GAP_TOL, lambda: abs(
                solved(d, task).optimal_value - ref(d))
            yield f"optimizer_certificate_{task}_d{d}", 0.0, lambda: _certificate_excess(
                problem(d, task), solved(d, task), ref(d))
        yield f"learn_equals_estimation_d{d}", 0.0, lambda: abs(bl.f_learning(d) - bl.f_estimation(d))
    yield "no_cloning_fixed_points", 0.0, lambda: float(bl.no_cloning_fixed_points(1001) != [0.0, 0.5])
    yield "permutation_discrimination_n3", 0.0, lambda: float(
        bl.permutation_discrimination(3) != (3, False))

    bases = functools.cache(proto.build_bases)
    exact = functools.cache(lambda strategy: proto.run_exact(strategy, bases()))

    def unbiasedness():
        seeds = (np.kron(np.eye(2), v) @ np.eye(2).reshape(-1) / np.sqrt(2)
                 for v in haar_unitaries(2, 10, rng.substream(50)))
        return worst(max_abs(proto.mutual_unbiasedness_matrix(proto.build_bases(s)) - 0.25)
                     for s in seeds)

    def sampled_sigmas():
        sampled = proto.run_sampled("intercept_resend", bases(), 10**8, rng.substream(60))
        sigma = np.sqrt(0.375 * 0.625 / (sampled.rounds * sampled.sift_rate))
        return worst((abs(sampled.symbol_error_rate - 0.375) / sigma,
                      abs(sampled.eve_guess_prob - 0.625) / sigma))

    yield "protocol_honest_exact", 0.0, lambda: (
        abs(exact("none").symbol_error_rate) + abs(exact("none").sift_rate - 0.5))
    yield "mutual_unbiasedness_random_seeds", 1e-12, unbiasedness
    yield "protocol_intercept_exact", 0.0, lambda: abs(
        exact("intercept_resend").symbol_error_rate - 0.375)
    yield "protocol_clone_attack_regression", 1e-9, lambda: worst((
        abs(exact("clone_attack").symbol_error_rate - proto.CLONE_ATTACK_SYMBOL_ERROR),
        abs(exact("clone_attack").eve_guess_prob - proto.CLONE_ATTACK_EVE_GUESS)))
    yield "protocol_clone_attack_ordering", 0.0, lambda: float(not (
        exact("clone_attack").symbol_error_rate < 0.375 and exact("clone_attack").eve_guess_prob > 0.25))
    if not quick:
        # in standard errors of the sifted symbol error and Eve guess rates
        yield "protocol_intercept_sampled_4sigma", 4.0, sampled_sigmas


def cmd_full_suite(args) -> int:
    rng = SeededRng(args.seed)
    start = time.perf_counter()
    checks: list[Check] = []
    for d in (2, 3, 4):
        with_comb = d <= (2 if args.quick else 3)
        n_gates = (5 if args.quick else 20) if with_comb else 1
        assembly = cn.build_cloner(d) if with_comb else None
        checks += _run(_cloner_battery(d, n_gates, assembly, 50, rng.substream(d), {}), f"_d{d}")
    checks += _run(_suite_battery(rng, args.quick))
    elapsed = time.perf_counter() - start
    summary = f"{sum(c.passed for c in checks)}/{len(checks)} checks passed in {elapsed:.1f}s"
    fields = {"quick": bool(args.quick), "elapsed_seconds": elapsed}
    return _report(args, "full-suite", f"quick={args.quick}", checks, fields, summary)


def _in_range(kind, minimum, maximum=None):
    """argparse type: a ``kind`` value no smaller than ``minimum`` and, when
    given, no larger than ``maximum``."""
    def parse(text: str):
        value = kind(text)
        if not value >= minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum:g}, got {text}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {text}")
        return value
    parse.__name__ = kind.__name__  # names the type in argparse's "invalid ... value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonelab",
        description="Cloning of unitary gates: verification, optimization, baselines, protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through type=int, so a bad CLONELAB_SEED exits 2
    seed, seed_help = os.environ.get(SEED_ENV) or "0", f"default: ${SEED_ENV}, else 0"

    p = sub.add_parser("verify-cloner", help="run the cloner invariant suite")
    p.add_argument("--d", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--samples", type=_in_range(int, 0), default=1000,
                   help="Monte Carlo draws (internally capped per dimension)")
    p.add_argument("--seed", type=int, default=seed, help=seed_help)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump", type=str, default=None,
                   help="write the comb and channel Choi operators to a JSON file")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_verify_cloner)

    p = sub.add_parser("optimize", help="re-derive an optimal fidelity numerically")
    p.add_argument("--d", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--task", choices=("clone", "learn"), required=True)
    p.add_argument("--tol", type=_in_range(float, 1e-9), default=1e-7,
                   help="solver tolerance, at least 1e-9")
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
    p.add_argument("--rounds", type=_in_range(int, 1, ROUNDS_MAX), default=1000)
    p.add_argument("--seed", type=int, default=seed, help=seed_help)
    p.add_argument("--exact", action="store_true",
                   help="exact statistics instead of sampled rounds")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("full-suite", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", help="comb and optimizer checks at d = 2 only")
    p.add_argument("--seed", type=int, default=seed, help=seed_help)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_full_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        float(os.environ.get(CORRUPT_ENV) or 0)
    except ValueError:
        parser.error(f"{CORRUPT_ENV} must be a number or nan, got {os.environ[CORRUPT_ENV]!r}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
