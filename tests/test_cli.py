import json

import pytest

import numpy as np

from clonelab import channels, cli, cloner
from clonelab.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_cloner_d2_passes(capsys):
    code, doc = run_json(capsys, ["verify-cloner", "--d", "2", "--json"])
    assert code == 0
    assert doc["schema"] == "1"
    assert doc["passed"] is True
    assert abs(doc["f_clon_numeric"] - 0.46650635094610965) < 1e-9
    names = {c["name"] for c in doc["checks"]}
    assert "comb_normalization_slot" in names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_cloner_d3_value(capsys):
    code, doc = run_json(capsys, ["verify-cloner", "--d", "3", "--json", "--samples", "5"])
    assert code == 0
    assert abs(doc["f_clon_numeric"] - 0.21586767128689595) < 1e-9


def test_verify_cloner_invalid_dimension_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify-cloner", "--d", "7"])
    assert err.value.code == 2


def test_verify_cloner_dump(tmp_path, capsys):
    path = tmp_path / "comb.json"
    code = main(["verify-cloner", "--d", "2", "--samples", "2", "--dump", str(path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["comb"]["labels"] == ["0B", "0E", "1", "2", "3B", "3E"]
    assert len(doc["comb"]["entries"]) == 64 * 64


def test_optimize_clone_json(capsys):
    code, doc = run_json(capsys, ["optimize", "--d", "2", "--task", "clone", "--json"])
    assert code == 0
    assert doc["gap"] < 1e-6
    assert abs(doc["reference"] - 0.46650635094610965) < 1e-12


def test_optimize_learn_json(capsys):
    code, doc = run_json(capsys, ["optimize", "--d", "3", "--task", "learn", "--json"])
    assert code == 0
    assert abs(doc["optimal_value"] - 6 / 81) < 1e-6
    assert doc["reference"] == pytest.approx(6 / 81)


def test_optimize_json_emits_convergence_trace(capsys):
    code, doc = run_json(capsys, ["optimize", "--d", "2", "--task", "learn", "--json"])
    assert code == 0
    trace = doc["trace"]
    assert [row["iteration"] for row in trace] == list(range(1, doc["iterations"] + 1))
    assert set(trace[0]) == {"iteration", "primal", "dual", "gap"}
    assert max(trace[-1]["primal"], trace[-1]["dual"], trace[-1]["gap"]) == doc["kkt_residual"]
    assert doc["optimal_value"] <= doc["reference"] <= doc["dual_bound"]
    assert 0 <= doc["certified_gap"] <= 1e-7  # the default --tol


def test_optimize_text_prints_certificate(capsys):
    code = main(["optimize", "--d", "3", "--task", "clone"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert any(line.startswith("dual bound     0.2158676") for line in lines)
    assert any(line.startswith("certified gap  ") for line in lines)


def test_baselines_json(capsys):
    code, doc = run_json(capsys, ["baselines", "--d", "3", "--json"])
    assert code == 0
    assert doc["f_est"] == doc["f_learn"] == pytest.approx(6 / 81)
    assert doc["no_cloning_fixed_points"] == [0.0, 0.5]
    assert doc["permutation_n3"] == {"max_distinguishable": 3, "feasible_all": False}


def test_table_csv(capsys):
    code = main(["table", "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "d,f_clon,f_est,f_ran,f_deco,f_learn"
    assert len(out) == 4
    row2 = out[1].split(",")
    assert row2[0] == "2"
    assert float(row2[1]) == pytest.approx(0.46650635094610965)
    assert float(row2[2]) == 0.3125


def test_table_json(capsys):
    code, doc = run_json(capsys, ["table", "--json"])
    assert code == 0
    assert [r["d"] for r in doc["rows"]] == [2, 3, 4]


def test_protocol_exact_json(capsys):
    code, doc = run_json(capsys, ["protocol", "--strategy", "intercept", "--exact", "--json"])
    assert code == 0
    assert doc["symbol_error_rate"] == 0.375
    assert doc["mode"] == "exact"


def test_protocol_sampled_deterministic(capsys):
    argv = ["protocol", "--strategy", "clone", "--rounds", "2000", "--seed", "5", "--json"]
    code1, doc1 = run_json(capsys, argv)
    code2, doc2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["mode"] == "sampled"
    assert doc1["seed"] == 5


def test_protocol_sampled_trillion_rounds(capsys):
    # sampled cost does not grow with the round count
    code, doc = run_json(capsys, ["protocol", "--strategy", "clone",
                                  "--rounds", "1000000000000", "--json"])
    assert code == 0
    assert doc["rounds"] == 10**12
    for key in ("sift_rate", "symbol_error_rate", "eve_guess_prob"):
        assert 0.0 <= doc[key] <= 1.0


def test_protocol_sampled_rounds_at_the_int64_limit(capsys):
    # the largest accepted round count runs; one more is a usage error (exit 2)
    code, doc = run_json(capsys, ["protocol", "--strategy", "clone",
                                  "--rounds", str(2**63 - 1), "--json"])
    assert code == 0
    assert doc["rounds"] == 2**63 - 1
    with pytest.raises(SystemExit) as err:
        main(["protocol", "--strategy", "clone", "--rounds", str(2**63)])
    assert err.value.code == 2
    assert "must be <= 9223372036854775807" in capsys.readouterr().err


def test_protocol_csv(capsys):
    code = main(["protocol", "--strategy", "none", "--exact", "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].startswith("strategy,sift_rate,symbol_error_rate,eve_guess_prob")
    assert "none" in out[1]


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CLONELAB_SEED", "77")
    code, doc = run_json(capsys, ["protocol", "--strategy", "none",
                                  "--rounds", "100", "--json"])
    assert code == 0
    assert doc["seed"] == 77


def test_full_suite_quick(capsys):
    code, doc = run_json(capsys, ["full-suite", "--quick", "--json"])
    assert code == 0
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_full_suite_corruption_hook(capsys, monkeypatch):
    monkeypatch.setenv("CLONELAB_CORRUPT_R1", "1e-3")
    code = main(["full-suite", "--quick"])
    out = capsys.readouterr().out
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failing  # named failing checks are listed
    assert any("covariance" in line or "insert" in line for line in failing)
    assert any(line.startswith("PASS  comb_finite_d2 ") for line in out.splitlines())


def test_full_suite_nan_corruption_fails_named_checks(capsys, monkeypatch):
    monkeypatch.setenv("CLONELAB_CORRUPT_R1", "nan")
    code, doc = run_json(capsys, ["full-suite", "--quick", "--json"])
    assert code == 1
    assert doc["passed"] is False
    by_name = {c["name"]: c for c in doc["checks"]}
    for name in ("insert_gate_vs_closed_form_choi_d2", "comb_covariance_d2"):
        assert by_name[name]["passed"] is False
        assert by_name[name]["residual"] != by_name[name]["residual"]  # NaN
    # entries [0, 1] and [1, 0]
    assert by_name["comb_finite_d2"]["passed"] is False
    assert by_name["comb_finite_d2"]["residual"] == 2.0


def test_verify_cloner_nan_corruption_fails(capsys, monkeypatch):
    monkeypatch.setenv("CLONELAB_CORRUPT_R1", "nan")
    code, doc = run_json(capsys, ["verify-cloner", "--d", "2", "--samples", "2", "--json"])
    assert code == 1
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert {"comb_finite", "insert_gate_vs_closed_form_choi", "comb_covariance"} <= failed


@pytest.mark.parametrize("argv, env", [
    (["optimize", "--d", "2", "--task", "clone", "--tol", "1e-12"], None),
    (["protocol", "--strategy", "none", "--rounds", "0"], None),
    (["protocol", "--strategy", "none"], "abc"),
    (["verify-cloner", "--d", "2", "--samples", "-5"], None),
    (["protocol", "--strategy", "none", "--rounds", "10000000000000000000"], None),
])
def test_bad_input_exits_2_at_parse_time(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("CLONELAB_SEED", env)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("tol", ["inf", "Infinity", "nan"])
def test_optimize_non_finite_tol_exits_2(tol, capsys):
    # an infinite tolerance used to pass the >= 1e-9 test, stop the solve
    # after one Newton step and print FAIL with exit code 1
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--d", "2", "--task", "clone", "--tol", tol])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --tol" in captured.err
    assert "Traceback" not in captured.err


def test_invalid_corruption_hook_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CLONELAB_CORRUPT_R1", "1e-3x")
    with pytest.raises(SystemExit) as err:
        main(["full-suite", "--quick"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CLONELAB_CORRUPT_R1" in captured.err
    assert "Traceback" not in captured.err


def test_check_exception_is_a_named_failure(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("dilation unavailable")

    monkeypatch.setattr(cloner, "controlled_swap_dilation", boom)
    for argv, name in ((["verify-cloner", "--d", "2", "--json"], "controlled_swap_dilation"),
                       (["full-suite", "--quick", "--json"], "controlled_swap_dilation_d2")):
        code, doc = run_json(capsys, argv)
        assert code == 1
        assert doc["passed"] is False
        by_name = {c["name"]: c for c in doc["checks"]}
        failed = by_name[f"{name} (RuntimeError)"]
        assert failed["passed"] is False
        assert failed["residual"] == float("inf")
        assert [c for c in doc["checks"] if not c["passed"]] == [
            c for c in doc["checks"] if "(RuntimeError)" in c["name"]]


def test_full_suite_runs_every_verify_cloner_check(capsys):
    _, single = run_json(capsys, ["verify-cloner", "--d", "2", "--json"])
    _, suite = run_json(capsys, ["full-suite", "--quick", "--json"])
    suite_tol = {c["name"]: c["tolerance"] for c in suite["checks"]}
    assert len(single["checks"]) == 16
    for check in single["checks"]:
        assert suite_tol[check["name"] + "_d2"] == check["tolerance"], check["name"]


def test_output_file_written_with_lf(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = main(["table", "--csv", "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").startswith("d,f_clon")


def reference_nonfinite_entries(network):
    """The dense count that the term count of ``comb_finite`` replaced."""
    return np.count_nonzero(~np.isfinite(network.choi))


def test_nonfinite_entries_on_terms_match_dense():
    net = cloner.choi_r1_of_cloner(2)
    assert cli._nonfinite_entries(net) == 0
    assert net._choi is None  # the count read the terms alone
    assert reference_nonfinite_entries(net) == 0
    a, b = (t.copy() for t in net.terms)
    a[0, 0, 1] = np.nan
    bad = channels.CombNetwork(d=2, terms=(a, b))
    assert cli._nonfinite_entries(bad) == 1
    assert reference_nonfinite_entries(bad) > 0


def test_corruption_hook_adds_one_term_pair_kick(monkeypatch):
    # the term hook equals the dense kick R[0, 1] += eps, R[1, 0] += eps
    net = cloner.choi_r1_of_cloner(2)
    monkeypatch.setenv("CLONELAB_CORRUPT_R1", "1e-3")
    bad = cli._maybe_corrupt(net)
    assert len(bad.terms[0]) == len(net.terms[0]) + 1
    expected = net.choi.copy()
    expected[0, 1] += 1e-3
    expected[1, 0] += 1e-3
    assert np.abs(bad.choi - expected).max() <= 1e-15
    monkeypatch.setenv("CLONELAB_CORRUPT_R1", "nan")
    assert cli._nonfinite_entries(cli._maybe_corrupt(net)) == 2


def test_verify_cloner_d4_never_links_the_dense_comb(capsys, monkeypatch):
    # clean and under both corruptions: the term hook keeps the comb in terms,
    # so neither the checks nor the dense twirl link the 256 MiB operator
    linked = []
    monkeypatch.setattr(channels, "_link_terms", lambda *args: linked.append(args))
    for corrupt in (None, "1e-3", "nan"):
        if corrupt is not None:
            monkeypatch.setenv("CLONELAB_CORRUPT_R1", corrupt)
        code, doc = run_json(capsys, ["verify-cloner", "--d", "4", "--samples", "20", "--json"])
        assert linked == []
        by_name = {c["name"]: c for c in doc["checks"]}
        assert set(by_name) >= {"comb_finite", "comb_covariance", "mc_average_fidelity"}
        if corrupt is None:
            assert code == 0
            assert by_name["block_fidelity"]["passed"]
        else:
            assert code == 1
            assert not by_name["comb_covariance"]["passed"]
            assert not by_name["block_fidelity (NotCovariantError)"]["passed"]
