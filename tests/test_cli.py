import json

import pytest

from clonelab import cloner
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
    assert [row["iteration"] for row in trace[:-1]] == list(range(50, doc["iterations"], 50))
    assert trace[-1]["iteration"] == doc["iterations"]
    assert trace[0]["rho"] == 1.0
    assert max(trace[-1]["primal"], trace[-1]["dual"]) <= doc["kkt_residual"]


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
