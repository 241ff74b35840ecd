import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radmul.algebra import FiniteGroup
from radmul.cli import main
from radmul.config import (MAX_CYCLIC_ORDER, ConfigError, load_config, parse_config,
                           preset_config)

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

    bad = preset_config("mat2")
    bad["factors"][1]["action"]["unitary"] = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_config_digest_stable(tmp_path, dih_config):
    cfg1 = load_config(dih_config)
    cfg2 = load_config(dih_config)
    assert cfg1.digest() == cfg2.digest()


def test_zero_coefficient_geometric_tail_is_the_constant_tail(tmp_path, capsys):
    # one record per symbol: the two spellings of a constant tail parse to
    # equal symbols, and their reports differ only in the config digest
    tails = ({"kind": "constant", "limit": [0.3, -0.1]},
             {"kind": "geometric", "coefficient": 0, "ratio": -0.5, "limit": [0.3, -0.1]})
    symbols, reports, outs = [], [], []
    for i, tail in enumerate(tails):
        data = preset_config("dih")
        data["symbol"] = {"head": [1.0, [0.5, 0.2]], "tail": tail}
        data["truncation"]["fock_len"] = 4
        cfg = parse_config(data)
        symbols.append(cfg.symbol)
        report = tmp_path / ("report%d.json" % i)
        assert main(["verify", "--config", write_config(tmp_path, data, "c%d.json" % i),
                     "--report", str(report)]) == 0
        reports.append(report.read_bytes().replace(cfg.digest().encode(), b""))
        outs.append(capsys.readouterr().out.replace(str(report), ""))
    assert symbols[0] == symbols[1]
    assert reports[0] == reports[1]
    assert outs[0] == outs[1]


def test_inner_cyclic_factor_builds_its_group_once(monkeypatch):
    # each build of a group re-checks associativity, O(order**3): the parsed
    # group is the one the inner action uses
    orders = []
    validate = FiniteGroup._validate

    def counted(group):
        orders.append(group.order)
        validate(group)

    monkeypatch.setattr(FiniteGroup, "_validate", counted)
    parse_config(noncommuting_config())  # two inner cyclic factors
    assert orders == [3, 3]


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


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _set(data, path, value):
    _at(data, path[:-1])[path[-1]] = value
    return data


Z2XZ2_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


@pytest.mark.parametrize("path, value", [
    (("symbol",), {"head": [1], "tail": 5}),
    (("truncation",), {"fock_len": "x"}),
    (("symbol",), {"head": [float("nan")], "tail": {"kind": "constant", "limit": 0}}),
    (("symbol",), {"head": [1], "tail": {"kind": "constant", "limit": [0.5, float("inf")]}}),
    (("symbol",), {"head": 1}),
    (("truncation",), {"fock_len": 4, "hankel_dim": 2.5}),
    (("truncation",), [4]),
    (("factors",), 5),
    (("factors", 0, "group"), {"kind": "cyclic", "order": 1}),
    (("factors", 0, "group"), {"kind": "table", "table": [[0]]}),
    (("factors", 0, "group"), {"kind": "table", "table": [[0, 1.7], [1.2, 0]]}),
    (("factors", 0, "group"), {"kind": "table", "table": [[0, True], [True, 0]]}),
    (("seed",), -1),
    (("factors",), [{"group": {"kind": "cyclic", "order": 2}}]),
    (("truncaton",), {"fock_len": 3}),
    (("truncation",), {"fock_len": 3, "hankle_dim": 16}),
    (("symbol",), {"head": [1], "tail": {"kind": "constant", "limt": 3}}),
    (("symbol",), {"haed": [1]}),
    (("factors", 0, "acton"), {"kind": "inner", "unitary": [[[1, 0]]]}),
    (("factors", 0, "group"), {"kind": "cyclic", "order": 2, "action": "trivial"}),
    (("factors", 1, "action"), {"kind": "inner", "unitary": [[[1, 0]]], "unitery": 1}),
    (("base_algebra",), {"kind": "scalar", "dimm": 2}),
    (("symbol",), {"head": [1], "tail": {"kind": "constant", "limit": 0, "ratio": 0.5,
                                         "coefficient": 3}}),
    (("factors", 0, "group"), {"kind": "cyclic", "order": 2,
                               "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}),
    (("base_algebra",), {"kind": "scalar", "dim": 4}),
    (("factors", 0), {"group": {"kind": "table", "table": Z2XZ2_TABLE},
                      "action": {"kind": "inner", "unitary": [[[1, 0]]]}}),
    (("factors", 0, "action"), {"kind": "inner",
                                "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
    (("factors", 0, "action"), "outer"),
    (("base_algebra",), {"dim": 2}),
    (("symbol",), {"head": [1], "tail": {"limit": 0}}),
    (("factors", 0, "group"), {"kind": "table", "table": [[0, 1], [1, 0], [0, 1]]}),
    (("factors", 0, "group"), {"kind": "table", "table": [[0, 1], [1, 2]]}),
], ids=["tail-not-object", "fock_len-string", "head-nan", "limit-inf", "head-not-list",
        "hankel_dim-float", "truncation-not-object", "factors-not-list",
        "cyclic-order-1", "table-order-1", "table-float-entry", "table-bool-entry",
        "seed-negative", "single-factor",
        "top-level-typo", "truncation-typo", "tail-typo",
        "symbol-typo", "factor-typo", "group-typo", "action-typo", "base-typo",
        "constant-tail-ratio", "cyclic-group-table", "scalar-base-dim",
        "inner-on-table-group", "unitary-wrong-size", "action-outer", "base-no-kind",
        "tail-no-kind", "table-not-square", "table-entry-out-of-range"])
def test_bad_config_fragment_exits_2(tmp_path, capsys, path, value):
    data = _set(preset_config("dih"), path, value)
    code = main(["verify", "--suite", "theorem", "--config", write_config(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown preset 'nope'"):
        preset_config("nope")


# the keys each object of a configuration may hold, by its kind
KEYS = {
    "config": {"base_algebra", "factors", "symbol", "truncation", "seed"},
    "scalar": {"kind"}, "matrix": {"kind", "dim"},
    "factor": {"group", "action"},
    "cyclic": {"kind", "order"}, "table": {"kind", "table"},
    "inner": {"kind", "unitary"},
    "symbol": {"head", "tail"},
    "constant": {"kind", "limit"}, "geometric": {"kind", "limit", "coefficient", "ratio"},
    "truncation": {"fock_len", "hankel_dim"},
}
ALL_KEYS = set().union(*KEYS.values())
NON_FINITE = [float("inf"), float("-inf"), float("nan"), 10 ** 400, [0, float("inf")],
              [float("nan"), 1]]
ANY_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
                      st.text(max_size=3), st.lists(st.integers(0, 2), max_size=3),
                      st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))


def _is_number(value) -> bool:
    """A finite real, or an [re, im] pair of them, as the schema reads numbers."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
               for v in parts)


@st.composite
def fuzz_base_configs(draw):
    """A preset at fock_len 2-4, optionally with a complex geometric tail and
    the first factor given by its multiplication table."""
    data = preset_config(draw(st.sampled_from(["dih", "mat2", "cy3"])))
    data["truncation"]["fock_len"] = draw(st.integers(2, 4))
    if draw(st.booleans()):
        data["symbol"]["tail"] = {"kind": "geometric", "coefficient": [1, -0.5],
                                  "ratio": [0.4, 0.3], "limit": 0.5}
    if draw(st.booleans()):
        n = data["factors"][0]["group"]["order"]
        data["factors"][0]["group"] = {"kind": "table",
                                       "table": [[(a + b) % n for b in range(n)] for a in range(n)]}
    return data


def _slots(data) -> tuple:
    """The paths of the objects of ``data`` with their kinds, of its integers
    with their least and largest (None: unbounded) values, and of its numbers."""
    objects = [((), "config"), (("base_algebra",), data["base_algebra"]["kind"]),
               (("symbol",), "symbol"), (("symbol", "tail"), data["symbol"]["tail"]["kind"]),
               (("truncation",), "truncation")]
    ints = [(("truncation", "fock_len"), 2, None), (("truncation", "hankel_dim"), 1, None),
            (("seed",), 0, None)]
    numbers = [("symbol", "head", j) for j in range(len(data["symbol"]["head"]))]
    numbers += [("symbol", "tail", key) for key in data["symbol"]["tail"] if key != "kind"]
    if data["base_algebra"]["kind"] == "matrix":
        ints.append((("base_algebra", "dim"), 1, None))
    for i, factor in enumerate(data["factors"]):
        group = factor["group"]
        objects += [(("factors", i), "factor"), (("factors", i, "group"), group["kind"])]
        if group["kind"] == "cyclic":
            ints.append((("factors", i, "group", "order"), 2, MAX_CYCLIC_ORDER))
        else:
            n = len(group["table"])
            ints += [(("factors", i, "group", "table", a, b), 0, n - 1)
                     for a in range(n) for b in range(n)]
        if isinstance(factor["action"], dict):
            objects.append((("factors", i, "action"), "inner"))
            numbers += [("factors", i, "action", "unitary", r, c)
                        for r in range(2) for c in range(2)]
    return objects, ints, numbers


@st.composite
def invalid_configs(draw):
    """A valid configuration (``fuzz_base_configs``) with one key set to an
    invalid value: a wrong type, a misspelt key, a key of another kind or
    place, a non-finite number, or an integer out of range.  Group orders
    stay <= 16 or just over ``MAX_CYCLIC_ORDER``, matrix dims <= 3 and
    fock_len <= 4, so nothing large is allocated even if the parser let a
    value through."""
    data = draw(fuzz_base_configs())
    objects, ints, numbers = _slots(data)
    change = draw(st.sampled_from(["type", "misspelt", "foreign", "non-finite", "range"]))
    if change == "type":
        typed = ([(path, lambda v: not isinstance(v, dict)) for path, _ in objects if path]
                 + [(p, lambda v: not isinstance(v, list)) for p in (("factors",), ("symbol", "head"))]
                 + [(path, lambda v: type(v) is not int) for path, _, _ in ints]
                 + [(path, lambda v: not _is_number(v)) for path in numbers])
        path, wrong = draw(st.sampled_from(typed))
        _set(data, path, draw(ANY_VALUE.filter(wrong)))
    elif change == "misspelt":
        obj = _at(data, draw(st.sampled_from(objects))[0])
        key = draw(st.sampled_from(sorted(obj)))
        i = draw(st.integers(0, len(key) - 2))
        new = draw(st.sampled_from([key[:i] + key[i + 1:], key[:i + 1] + key[i:],
                                    key[:i] + key[i + 1] + key[i] + key[i + 2:], key.upper()]))
        assume(new not in ALL_KEYS)
        obj[new] = obj.pop(key)
    elif change == "foreign":
        path, kind = draw(st.sampled_from(objects))
        _at(data, path)[draw(st.sampled_from(sorted(ALL_KEYS - KEYS[kind])))] = 1
    elif change == "non-finite":
        _set(data, draw(st.sampled_from(numbers)), draw(st.sampled_from(NON_FINITE)))
    else:
        # small misses, and integers past the 64-bit range in both directions
        path, least, largest = draw(st.sampled_from(ints))
        outside = [st.integers(least - 3, least - 1), st.integers(max_value=-2 ** 63 - 1)]
        if largest is not None:
            outside += [st.integers(largest + 1, largest + 3), st.integers(min_value=2 ** 63)]
        _set(data, path, draw(st.one_of(outside)))
    return data


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(fuzz_base_configs())
def test_fuzz_base_configs_are_valid(data):
    # each invalid config below differs from a valid one in exactly one key
    parse_config(data)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(invalid_configs())
def test_invalid_config_exits_2_with_one_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "--suite", "pp", "--config", path])
    assert code == 2
    assert len(err.getvalue().splitlines()) == 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("order, size", [(MAX_CYCLIC_ORDER + 1, "0.00129 GB"),
                                         (10 ** 6, "8e+03 GB")])
def test_large_cyclic_order_exits_2_before_any_table(tmp_path, monkeypatch, capsys, order,
                                                     size):
    def cyclic(order):
        raise AssertionError("FiniteGroup.cyclic(%d) called" % order)

    monkeypatch.setattr(FiniteGroup, "cyclic", cyclic)
    data = _set(preset_config("dih"), ("factors", 0, "group"), {"kind": "cyclic",
                                                                "order": order})
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: bad group fragment: cyclic group order %d is over %d: its "
        "%d x %d table takes %s\n" % (order, MAX_CYCLIC_ORDER, order, order, size))


def test_unknown_config_key_names_the_known_keys(tmp_path, capsys):
    data = preset_config("dih")
    data["truncaton"] = data.pop("truncation")
    assert main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown configuration key 'truncaton' (known: base_algebra, "
        "factors, seed, symbol, truncation)\n")


def test_negative_seed_override_is_a_usage_error(dih_config):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", dih_config, "--seed", "-1"])
    assert exc.value.code == 2


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


def test_cmd_verify_tolerances_key_exits_2(tmp_path, capsys):
    # every check's tolerance is fixed: a config cannot loosen or tighten one
    data = preset_config("dih")
    data["tolerances"] = {"eigen": 1e-30}
    assert main(["verify", "--config", write_config(tmp_path, data), "--suite", "cases"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown configuration key 'tolerances' (known: base_algebra, "
        "factors, seed, symbol, truncation)\n")


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
    # phi(0) = 1e308 overflows the theorem suite's norm bounds to inf, so
    # the check that takes them fails instead of raising.  The vacuum
    # coefficients of T(A) - phi(0) A are inf - inf = nan for some words: a
    # residual that cannot be evaluated fails its check.  The linearity
    # residual stays finite (about 5e288) and is rounding on phi's scale,
    # which the multiplier residuals are divided by, so it passes, and the
    # envelope's chain (one pair, sigma = 1e308) certifies ||T|| <= 1e308
    # without an overflow
    data = preset_config("dih")
    data["symbol"] = {"head": [1e308]}
    data["truncation"] = {"fock_len": 3}
    code = main(["verify", "--config", write_config(tmp_path, data)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    failed = sorted(line.split()[1] for line in captured.out.splitlines()
                    if line.startswith("FAIL"))
    assert failed == ["theorem_action_on_words", "theorem_vacuum_coefficients"]


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
    assert set(residuals) == {"theorem_action_on_words", "theorem_vacuum_coefficients"}
    assert "inf" in residuals.values()
    assert residuals["theorem_vacuum_coefficients"] == "nan"


# symbols at the float range, with whether the class-C norm is inf: inf or
# nan in T's weights and the wanted values (the head symbol's cases are
# named by the command alone), in a Hankel trace norm's sum (complex-limit)
# and in schur_bound's row-column product (geometric)
OVERFLOWING_SYMBOLS = {
    "head": ({"head": [1e308, -1e308, 1e308]}, True),
    "complex-limit": ({"head": [1, 1], "tail": {"kind": "constant", "limit": [0, 1e308]}}, True),
    "geometric": ({"head": [], "tail": {"kind": "geometric", "coefficient": 1e308,
                                        "ratio": 0.999}}, False),
}
COMMANDS = {"verify": ["--suite", "all"], "bound": [], "symbol": []}


@pytest.mark.parametrize("symbol, command", [
    pytest.param(symbol, command, id=command if symbol == "head" else symbol + "-" + command)
    for symbol in OVERFLOWING_SYMBOLS for command in COMMANDS])
def test_overflowing_symbol_leaves_stderr_empty(tmp_path, capfd, symbol, command):
    # the checks that read an overflowed value fail, with no numpy warning
    # (errors under pytest) and no LAPACK message on stderr.  The envelope
    # fails where the class norm is inf; the geometric symbol's chain stays
    # finite and holds, so only verify's theorem checks fail on it
    data = preset_config("dih")
    data["symbol"], norm_is_inf = OVERFLOWING_SYMBOLS[symbol]
    data["truncation"] = {"fock_len": 3}
    code = main([command, "--config", write_config(tmp_path, data)] + COMMANDS[command])
    captured = capfd.readouterr()
    assert captured.err == ""
    if command == "symbol":
        assert code == 0
        assert ("class_C_norm = inf" in captured.out) == norm_is_inf
    else:
        assert code == (1 if norm_is_inf or command == "verify" else 0)
        assert ("FAIL  norm_bound_upper[0]" in captured.out) == norm_is_inf


@st.composite
def extreme_symbols(draw):
    """A head of up to 3 values and a constant or geometric tail, each value
    0, +-1 or +-1e154, +-1e200, +-1e308 (products of two overflow), real or
    an [re, im] pair; a geometric ratio of 0.5, 0.999, -0.999 or 0.8i."""
    real = st.sampled_from([0.0, 1.0, -1.0, 1e154, -1e154, 1e200, -1e200, 1e308, -1e308])
    value = st.one_of(real, st.tuples(real, real).map(list))
    if draw(st.booleans()):
        tail = {"kind": "constant", "limit": draw(value)}
    else:
        tail = {"kind": "geometric", "coefficient": draw(value),
                "ratio": draw(st.sampled_from([0.5, 0.999, -0.999, [0, 0.8]])),
                "limit": draw(value)}
    return {"head": draw(st.lists(value, max_size=3)), "tail": tail}


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(extreme_symbols())
def test_extreme_symbols_pass_or_fail_cleanly(symbol):
    # every command exits 0 or 1 on a symbol at the float range; a numpy
    # warning, in this process or in a forked worker (whose failure is
    # raised again here), is an error under pytest
    data = preset_config("dih")
    data["symbol"] = symbol
    data["truncation"] = {"fock_len": 2}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = write_config(Path(tmp), data)
        for command, extra in COMMANDS.items():
            assert main([command, "--config", path] + extra) in (0, 1), command


@pytest.mark.parametrize("head", [[1e6, -1e6], [1, 1e9], [1e12, 1e12]])
def test_cmd_verify_large_symbol_passes(tmp_path, capsys, head):
    # the multiplier residuals are rounding on phi's scale, so they are
    # divided by it; held to absolute tolerances, these symbols fail
    data = preset_config("cy3")
    data["truncation"] = {"fock_len": 4}
    data["symbol"] = {"head": head, "tail": {"kind": "constant", "limit": 0}}
    code = main(["verify", "--suite", "all", "--config", write_config(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 0, [line for line in out.splitlines() if not line.startswith("PASS")]


@pytest.mark.parametrize("ratio", [0.9, 0.97, 0.99, -0.999999])
def test_cmd_verify_slow_geometric_tail_passes(tmp_path, capsys, ratio):
    # slow tails defeat any fixed Hankel cutoff; the multiplier and the
    # class norm must not depend on one.  Near ratio -1, psi1 ~ 1/(1+z)
    # dwarfs phi, so T may not take phi as a sum of psi1, psi2 and c
    data = preset_config("dih")
    del data["truncation"]["hankel_dim"]
    data["symbol"] = {"head": [1.0],
                      "tail": {"kind": "geometric", "coefficient": 1.0,
                               "ratio": ratio, "limit": 0}}
    code = main(["verify", "--suite", "all", "--config", write_config(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 0, [line for line in out.splitlines() if not line.startswith("PASS")]



def _cyclic(order):
    return {"group": {"kind": "cyclic", "order": order}, "action": "trivial"}


def _s3_table():
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]


# models whose length sectors have uneven sizes, unlike the presets
UNEVEN_MODELS = {
    "z2*z3": [_cyclic(2), _cyclic(3)],
    "z2*z2*z2": [_cyclic(2), _cyclic(2), _cyclic(2)],
    "s3*z2": [{"group": {"kind": "table", "table": _s3_table()}, "action": "trivial"},
              _cyclic(2)],
}


@pytest.mark.parametrize("model, runs", [("z2*z3", 2), ("z2*z2*z2", 1), ("s3*z2", 1)])
def test_cmd_verify_all_on_uneven_sectors(tmp_path, capsys, model, runs):
    data = {"base_algebra": {"kind": "scalar"}, "factors": UNEVEN_MODELS[model],
            "symbol": {"head": [1, 0.5],
                       "tail": {"kind": "geometric", "coefficient": [0.3, 0.2],
                                "ratio": -0.6, "limit": 0.1}},
            "truncation": {"fock_len": 4}, "seed": 0}
    path = write_config(tmp_path, data)
    reports = []
    for r in range(runs):
        report_path = tmp_path / ("report%d.json" % r)
        code = main(["verify", "--suite", "all", "--config", path, "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0, [line for line in out.splitlines() if not line.startswith("PASS")]
        reports.append(report_path.read_bytes())
    assert len(set(reports)) == 1


MAX_DIM = 300


def model_dim(orders, d: int, fock_len: int) -> int:
    """Dimension of the truncated Fock space: d^2 per reduced word, counted
    by length and by the factor the word ends in."""
    letters = np.array(orders) - 1
    ending = letters.copy()
    words = 1 + ending.sum()
    for _ in range(fock_len - 1):
        ending = letters * (ending.sum() - ending)
        words += ending.sum()
    return int(d * d * words)


@st.composite
def valid_models(draw):
    """2 or 3 factors (cyclic of order 2-5, S_3 or Z_2 x Z_2 by table) over a
    scalar base or over M_2, where a cyclic factor acts by Ad diag(1, z^j)
    (z = exp(2 pi i / order)); a head of up to 3 complex values and a
    constant or geometric tail, all values scaled by 2^k for one k in
    [-60, 60]; fock_len 2-4, dimension at most MAX_DIM."""
    scale = 2.0 ** draw(st.integers(-60, 60))
    part = st.floats(-1, 1, allow_nan=False).map(lambda x: scale * x)
    cplx = st.tuples(part, part).map(list)
    d = draw(st.sampled_from([1, 2]))
    factors, orders = [], []
    for group in draw(st.lists(st.sampled_from([2, 3, 4, 5, "s3", "z2xz2"]),
                               min_size=2, max_size=3)):
        if isinstance(group, str):
            table = _s3_table() if group == "s3" else Z2XZ2_TABLE
            factors.append({"group": {"kind": "table", "table": table}, "action": "trivial"})
            orders.append(len(table))
            continue
        factor = _cyclic(group)
        if d == 2:
            z = np.exp(2j * np.pi * draw(st.integers(0, group - 1)) / group)
            factor["action"] = {"kind": "inner",
                                "unitary": [[[1, 0], [0, 0]], [[0, 0], [z.real, z.imag]]]}
        factors.append(factor)
        orders.append(group)
    lengths = [L for L in (2, 3, 4) if model_dim(orders, d, L) <= MAX_DIM]
    assume(lengths)
    if draw(st.booleans()):
        tail = {"kind": "constant", "limit": draw(cplx)}
    else:
        radius, angle = draw(st.floats(0, 0.9)), draw(st.floats(0, 2 * np.pi))
        tail = {"kind": "geometric", "coefficient": draw(cplx),
                "ratio": [radius * np.cos(angle), radius * np.sin(angle)], "limit": draw(cplx)}
    base = {"kind": "scalar"} if d == 1 else {"kind": "matrix", "dim": 2}
    return {"base_algebra": base, "factors": factors,
            "symbol": {"head": draw(st.lists(cplx, max_size=3)), "tail": tail},
            "truncation": {"fock_len": draw(st.sampled_from(lengths))},
            "seed": draw(st.integers(0, 3))}


def test_model_dim_counts_the_words():
    for data in (preset_config("cy3"), noncommuting_config(3)):
        cfg = parse_config(data)
        orders = [fac.group.order for fac in cfg.factors]
        assert model_dim(orders, cfg.factors[0].base.d, cfg.fock_len) == cfg.space().dim


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(valid_models())
def test_cmd_verify_all_passes_on_valid_models(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), data)
        reports = []
        for r in range(2):
            report_path = Path(tmp) / ("report%d.json" % r)
            assert main(["verify", "--suite", "all", "--config", path,
                         "--report", str(report_path)]) == 0
            reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]

# ---------------------------------------------------------------- bound command

def test_cmd_bound_constant_one_ratio_is_one(tmp_path, capsys):
    data = preset_config("dih")
    data["truncation"] = {"fock_len": 4, "hankel_dim": 16}
    data["symbol"] = {"head": [], "tail": {"kind": "constant", "limit": 1}}
    assert main(["bound", "--config", write_config(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    values = {line.split(" =")[0]: float(line.split("= ")[1])
              for line in out.splitlines() if " = " in line}
    assert values["certified_bound"] == pytest.approx(1.0, abs=1e-12)


def test_cmd_bound_geometric(tmp_path, capsys):
    data = preset_config("dih")
    data["truncation"] = {"fock_len": 4, "hankel_dim": 60}
    data["symbol"] = {"head": [],
                      "tail": {"kind": "geometric", "coefficient": 1,
                               "ratio": 0.5, "limit": 0}}
    path = write_config(tmp_path, data)
    code = main(["bound", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    values = {line.split(" =")[0]: float(line.split("= ")[1])
              for line in out.splitlines() if " = " in line}
    assert values["class_C_norm"] == pytest.approx(1.0, abs=1e-8)
    assert values["certified_bound"] <= 1.0 + 1e-8
    assert values["margin"] >= -1e-8
