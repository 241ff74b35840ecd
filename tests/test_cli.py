import json

import pytest

from radmul.cli import main
from radmul.config import ConfigError, load_config, parse_config, preset_config

from conftest import noncommuting_config


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def dih_config(tmp_path):
    data = preset_config("dih")
    data["truncation"] = {"fock_len": 4, "hankel_dim": 16}
    return write_config(tmp_path, data)


# ---------------------------------------------------------------- config parsing

def test_parse_presets():
    for name in ("dih", "mat2", "cy3"):
        cfg = parse_config(preset_config(name))
        assert cfg.space().dim >= 1


def test_config_validation_errors():
    bad = preset_config("dih")
    bad["truncation"] = {"fock_len": 1}
    with pytest.raises(ConfigError):
        parse_config(bad)

    bad = preset_config("dih")
    bad["symbol"] = {"head": [1, 1, 1], "tail": {"kind": "constant", "limit": 0}}
    bad["truncation"] = {"fock_len": 4, "hankel_dim": 2}  # head not covered
    with pytest.raises(ConfigError):
        parse_config(bad)

    bad = preset_config("dih")
    bad["tolerances"] = {"eigen": -1.0}
    with pytest.raises(ConfigError):
        parse_config(bad)

    bad = preset_config("mat2")
    bad["factors"][1]["action"]["unitary"] = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_config_digest_stable(tmp_path, dih_config):
    cfg1 = load_config(dih_config)
    cfg2 = load_config(dih_config)
    assert cfg1.digest() == cfg2.digest()


# ---------------------------------------------------------------- symbol command

def test_cmd_symbol_prints_norms(tmp_path, capsys):
    data = preset_config("dih")
    data["symbol"] = {"head": [1, 1], "tail": {"kind": "constant", "limit": 0}}
    path = write_config(tmp_path, data)
    csv_path = tmp_path / "table.csv"
    code = main(["symbol", "--config", path, "--csv", str(csv_path)])
    out = capsys.readouterr().out
    values = {line.split(" =")[0]: line.split("= ")[1]
              for line in out.splitlines() if " = " in line}
    assert code == 0
    assert float(values["h_trace_norm"]) == pytest.approx(2.0)
    assert float(values["k_trace_norm"]) == pytest.approx(1.0)
    assert float(values["abs_limit"]) == pytest.approx(0.0)
    assert float(values["class_C_norm"]) == pytest.approx(3.0)
    assert float(values["linear_growth_bound"]) == pytest.approx(5.0)
    assert csv_path.exists()


def test_cmd_symbol_constant_one(tmp_path, capsys):
    data = preset_config("dih")
    data["symbol"] = {"head": [], "tail": {"kind": "constant", "limit": 1}}
    code = main(["symbol", "--config", write_config(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 0
    assert "class_C_norm = 1" in out
    assert "linear_growth_bound = inf" in out


def test_missing_config_exits_2(capsys):
    assert main(["symbol", "--config", "/nonexistent/cfg.json"]) == 2


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2


def _set(data, path, value):
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("path, value", [
    (("symbol",), {"head": [1], "tail": 5}),
    (("truncation",), {"fock_len": "x"}),
    (("symbol",), {"head": [float("nan")], "tail": {"kind": "constant", "limit": 0}}),
    (("symbol",), {"head": [1], "tail": {"kind": "constant", "limit": [0.5, float("inf")]}}),
    (("symbol",), {"head": 1}),
    (("truncation",), {"fock_len": 4, "hankel_dim": 2.5}),
    (("truncation",), [4]),
    (("tolerances",), {"eigen": float("inf")}),
    (("factors",), 5),
    (("factors", 0, "group"), {"kind": "cyclic", "order": 1}),
    (("factors", 0, "group"), {"kind": "table", "table": [[0]]}),
    (("seed",), -1),
    (("factors",), [{"group": {"kind": "cyclic", "order": 2}}]),
    (("tolerances",), {"bogus": 1}),
], ids=["tail-not-object", "fock_len-string", "head-nan", "limit-inf", "head-not-list",
        "hankel_dim-float", "truncation-not-object", "tolerance-inf", "factors-not-list",
        "cyclic-order-1", "table-order-1", "seed-negative", "single-factor",
        "tolerance-unknown"])
def test_bad_config_fragment_exits_2(tmp_path, capsys, path, value):
    data = _set(preset_config("dih"), path, value)
    code = main(["verify", "--suite", "theorem", "--config", write_config(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_negative_seed_override_is_a_usage_error(dih_config):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", dih_config, "--seed", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "-1"],
    ["bound", "--samples", "0"],
    ["bound", "--samples", "-3"],
], ids=["tol-nan", "tol-negative", "samples-zero", "samples-negative"])
def test_bad_numeric_flag_is_a_usage_error(dih_config, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", dih_config])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument %s" % argv[1] in err
    assert "Traceback" not in err


def test_corrupted_unitary_exits_2(tmp_path):
    data = preset_config("mat2")
    data["factors"][1]["action"]["unitary"] = [[[1, 0], [0, 0]], [[0, 0], [3, 0]]]
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2


# ---------------------------------------------------------------- verify command

def test_cmd_verify_passes_and_writes_report(tmp_path, dih_config, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--config", dih_config, "--report", str(report_path),
                 "--suite", "cases"])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert set(payload) == {"config_digest", "seed", "checks"}
    assert payload["seed"] == 0
    names = {c["name"] for c in payload["checks"]}
    assert "multiplier_case_rules" in names
    assert all(c["status"] == "pass" for c in payload["checks"])
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cmd_verify_suite_subsets(tmp_path, dih_config, capsys):
    code = main(["verify", "--config", dih_config, "--suite", "pp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pp_orthogonality[f0]" in out
    assert "multiplier_case_rules" not in out


def test_cmd_verify_deterministic_reports(tmp_path, dih_config):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--config", dih_config, "--suite", "theorem",
                 "--report", str(r1)]) == 0
    assert main(["verify", "--config", dih_config, "--suite", "theorem",
                 "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cmd_verify_seed_override(tmp_path, dih_config):
    r1, r2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["verify", "--config", dih_config, "--suite", "theorem",
                 "--seed", "7", "--report", str(r1)]) == 0
    payload = json.loads(r1.read_text())
    assert payload["seed"] == 7


def test_cmd_verify_tol_override_can_fail(tmp_path, dih_config):
    # an absurdly tight tolerance flips nonzero residuals to failures -> exit 1
    data = preset_config("dih")
    data["truncation"] = {"fock_len": 4, "hankel_dim": 16}
    data["symbol"] = {"head": [],
                      "tail": {"kind": "geometric", "coefficient": 1,
                               "ratio": 0.5, "limit": 0}}
    path = write_config(tmp_path, data, "geo.json")
    assert main(["verify", "--config", path, "--suite", "cases",
                 "--tol", "1e-30"]) == 1


def test_cmd_verify_operators_on_noncommuting_actions(tmp_path, capsys):
    # right_module_blocks holds R_{gamma*} to its covariance, not to plain
    # commutation, which fails once the letter's factor acts nontrivially
    path = write_config(tmp_path, noncommuting_config())
    assert main(["verify", "--config", path, "--suite", "operators"]) == 0
    assert "PASS  right_module_blocks" in capsys.readouterr().out


def test_cmd_verify_delta0_passes(tmp_path):
    data = preset_config("dih")
    data["truncation"] = {"fock_len": 4, "hankel_dim": 16}
    data["symbol"] = {"head": [1], "tail": {"kind": "constant", "limit": 0}}
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 0


def test_cmd_verify_overflowing_symbol_fails_checks(tmp_path, capsys):
    # phi(0) = 1e308 overflows the amplified matrices to inf; their norms
    # are inf, so the checks that take them fail instead of raising
    data = preset_config("dih")
    data["symbol"] = {"head": [1e308]}
    data["truncation"] = {"fock_len": 3}
    code = main(["verify", "--config", write_config(tmp_path, data)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    failed = sorted(line.split()[1] for line in captured.out.splitlines()
                    if line.startswith("FAIL"))
    assert failed == ["multiplier_linearity", "norm_bound_upper[0]",
                      "theorem_action_on_words"]


def test_cmd_verify_overflowing_symbol_report_is_strict_json(tmp_path, capsys):
    # the non-finite residuals of the failing checks are written as strings,
    # not as the bare Infinity / NaN tokens strict JSON parsers reject
    data = preset_config("dih")
    data["symbol"] = {"head": [1e308]}
    data["truncation"] = {"fock_len": 3}
    report_path = tmp_path / "report.json"
    code = main(["verify", "--config", write_config(tmp_path, data),
                 "--report", str(report_path)])
    capsys.readouterr()
    assert code == 1

    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    payload = json.loads(report_path.read_text(), parse_constant=reject)
    residuals = {c["name"]: c["max_residual"] for c in payload["checks"]
                 if c["status"] == "fail"}
    assert set(residuals) == {"multiplier_linearity", "norm_bound_upper[0]",
                              "theorem_action_on_words"}
    assert "inf" in residuals.values()


@pytest.mark.parametrize("ratio", [0.9, 0.97, 0.99])
def test_cmd_verify_slow_geometric_tail_passes(tmp_path, capsys, ratio):
    # slow tails defeat any fixed Hankel cutoff; the multiplier and the
    # class norm must not depend on one
    data = preset_config("dih")
    del data["truncation"]["hankel_dim"]
    data["symbol"] = {"head": [1.0],
                      "tail": {"kind": "geometric", "coefficient": 1.0,
                               "ratio": ratio, "limit": 0}}
    code = main(["verify", "--suite", "all", "--config", write_config(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 0, [line for line in out.splitlines() if not line.startswith("PASS")]


# ---------------------------------------------------------------- bound command

def test_cmd_bound_constant_one_ratio_is_one(tmp_path, capsys):
    data = preset_config("dih")
    data["truncation"] = {"fock_len": 4, "hankel_dim": 16}
    data["symbol"] = {"head": [], "tail": {"kind": "constant", "limit": 1}}
    assert main(["bound", "--config", write_config(tmp_path, data),
                 "--samples", "5"]) == 0
    out = capsys.readouterr().out
    values = {line.split(" =")[0]: float(line.split("= ")[1])
              for line in out.splitlines() if " = " in line}
    assert values["sampled_sup_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_cmd_bound_geometric(tmp_path, capsys):
    data = preset_config("dih")
    data["truncation"] = {"fock_len": 4, "hankel_dim": 60}
    data["symbol"] = {"head": [],
                      "tail": {"kind": "geometric", "coefficient": 1,
                               "ratio": 0.5, "limit": 0}}
    path = write_config(tmp_path, data)
    code = main(["bound", "--config", path, "--samples", "10"])
    out = capsys.readouterr().out
    assert code == 0
    values = {line.split(" =")[0]: float(line.split("= ")[1])
              for line in out.splitlines() if " = " in line}
    assert values["class_C_norm"] == pytest.approx(1.0, abs=1e-8)
    assert values["sampled_sup_ratio"] <= 1.0 + 1e-8
    assert values["margin"] >= -1e-8
