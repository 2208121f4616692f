"""Acceptance criteria: each is a group of ``clonelab full-suite`` checks, named by
base name (without the ``_d{d}`` suffix) and the dimensions it runs at; one full
run at seed 0 feeds every test.  ``pytest -s`` shows one report line each.
"""

import contextlib
import io
import json
import math
import re

import pytest

from clonelab.cli import main

D234, D23, NO_D = (2, 3, 4), (2, 3), (None,)
# criterion -> (title, {check base name: dimensions it runs at})
CRITERIA = {
    1: ("closed-form optimal fidelity", dict.fromkeys((
        "pre_channel_trace_preserving", "post_channel_trace_preserving",
        "fidelity_matches_closed_form", "fidelity_constant_over_gates",
        "compose_vs_closed_form_choi", "controlled_swap_dilation"), D234)),
    2: ("optimizer reproduces cloning optimum",
        dict.fromkeys(("optimizer_clone", "optimizer_certificate_clone"), D234)),
    3: ("learning optimum equals estimation values", dict.fromkeys((
        "optimizer_learn", "optimizer_certificate_learn", "learn_equals_estimation"), D234)),
    4: ("decohered fidelity = 1/d^2", {"decohered_fidelity_1_over_d2": D234}),
    5: ("comb calculus consistency", dict.fromkeys((
        "comb_finite", "comb_normalization_slot", "comb_normalization_input",
        "insert_gate_vs_closed_form_choi", "comb_covariance", "block_fidelity",
        "mc_average_fidelity"), D23)),
    6: ("state-cloner reduction",
        {"state_cloner_reduction": D234, "single_clone_fidelity_5_6": (2,)}),
    7: ("no-cloning arithmetic",
        dict.fromkeys(("no_cloning_fixed_points", "permutation_discrimination_n3"), NO_D)),
    8: ("protocol statistics", dict.fromkeys((
        "protocol_honest_exact", "mutual_unbiasedness_random_seeds", "protocol_intercept_exact",
        "protocol_clone_attack_regression", "protocol_clone_attack_ordering",
        "protocol_intercept_sampled_4sigma"), NO_D)),
}


@pytest.fixture(scope="module")
def suite():
    """Exit code and parsed document of one ``full-suite --json --seed 0`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["full-suite", "--json", "--seed", "0"])
    return code, json.loads(out.getvalue())


def base_and_d(name: str):
    match = re.fullmatch(r"(.+)_d(\d)", name)
    return (match[1], int(match[2])) if match else (name, None)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


def criterion_test(n: int, total_budget=math.inf, each_budget=math.inf):
    """A test that each check of criterion ``n`` ran at each of its dimensions and
    passed, and that the checks' clocks stay within the budgets in seconds."""
    def test(suite):
        title, table = CRITERIA[n]
        ran = {base_and_d(c["name"]): c for c in suite[1]["checks"]}
        wanted = [(base, d) for base, dims in table.items() for d in dims]
        missing = [f"{base}@d={d}" for base, d in wanted if (base, d) not in ran]
        group = [ran[key] for key in wanted if key in ran]
        failed = [c["name"] for c in group if not c["passed"]]
        residual = max((c["residual"] for c in group), key=lambda r: (math.isnan(r), r),
                       default=math.nan)
        total = sum(c["elapsed_seconds"] for c in group)
        slowest = max((c["elapsed_seconds"] for c in group), default=0.0)
        report(f"{n} ({title})",
               not missing and not failed and total < total_budget and slowest < each_budget,
               f"{len(group)} checks, worst residual {residual:.2e}, {total:.2f}s in all, "
               f"slowest {slowest:.2f}s; missing {missing}, failed {failed}")
    return test


test_criterion_1_closed_form_fidelity = criterion_test(1, total_budget=10.0)
test_criterion_2_optimizer_reproduces_cloning_bound = criterion_test(2, each_budget=60.0)
test_criterion_3_learning_values = criterion_test(3, each_budget=60.0)
test_criterion_4_decohered_equals_random_guess = criterion_test(4)
test_criterion_5_comb_calculus_consistency = criterion_test(5)
test_criterion_6_state_cloner_reduction = criterion_test(6)
test_criterion_7_no_cloning_arithmetic = criterion_test(7)
test_criterion_8_protocol_statistics = criterion_test(8)


def test_every_full_suite_check_belongs_to_one_criterion(suite):
    owners = {}
    for check in suite[1]["checks"]:
        base, d = base_and_d(check["name"])
        owners[check["name"]] = [n for n, (_, table) in CRITERIA.items()
                                 if d in table.get(base, ())]
    assert {name: ns for name, ns in owners.items() if len(ns) != 1} == {}


def without_clocks(value):
    if isinstance(value, dict):
        return {k: without_clocks(v) for k, v in value.items() if k != "elapsed_seconds"}
    return [without_clocks(v) for v in value] if isinstance(value, list) else value


def test_criterion_9_full_suite_runtime(suite, capsys):
    argv = ["full-suite", "--quick", "--json", "--seed", "0"]
    (code1, doc1), (code2, doc2) = [(main(argv), json.loads(capsys.readouterr().out))
                                    for _ in range(2)]
    deterministic = without_clocks(doc1) == without_clocks(doc2)
    code3, full = suite
    quick_time, full_time = doc1["elapsed_seconds"], full["elapsed_seconds"]
    report("9 (full suite runtime and determinism)",
           code1 == code2 == code3 == 0 and quick_time < 30.0 and full_time < 300.0
           and deterministic,
           f"quick {quick_time:.1f}s (< 30s), full {full_time:.1f}s (< 300s), "
           f"deterministic: {deterministic}")
