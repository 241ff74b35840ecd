"""The benchmark tracer (``radbench/tracer.py``) rebinds radmul functions by
name and reads operator attributes; every name it wraps must still resolve,
and a traced run must still work, or ``--trace 1`` breaks."""

import json
from pathlib import Path

import radmul.cli  # noqa: F401  (loads every radmul module, as the tracer does)
from radmul.config import parse_config, preset_config
from radmul.operators import length_at_least_op

RADBENCH = Path(__file__).resolve().parents[1] / "radbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(RADBENCH))
    import tracer

    targets = list(tracer.SPANS.values()) + list(tracer.COUNTS.values())
    targets += [("radmul.operators", "StructuredOperator.matrix"),
                ("radmul.operators", "rho_matrix")]
    for module, path in targets:
        owner, attr = tracer._resolve(module, path)
        assert callable(getattr(owner, attr, None)), (module, path)


def test_traced_run_matches_untraced(monkeypatch, tmp_path, capsys):
    # the tracer wraps matrix() and reads op._matrix and op.name; a traced
    # run must give the untraced report and see rho.  verify never asks for a
    # dense matrix, so one operator is materialized explicitly: the tracer
    # must count it and tag it with its kind.  embed and word_operator live in
    # operators and the tracer wraps them as verify's: it must count the calls
    # from the suites and those from inside operators, 28 and 6 on this run
    monkeypatch.syspath_prepend(str(RADBENCH))
    import tracer

    data = preset_config("dih")
    data["truncation"] = {"fock_len": 5}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))

    def verify(report):
        return radmul.cli.main(["verify", "--suite", "all", "--config", str(config),
                                "--report", str(report)])

    assert verify(tmp_path / "plain.json") == 0
    traced = tracer.Tracer()
    traced.install()
    try:
        code = verify(tmp_path / "traced.json")
        length_at_least_op(parse_config(data).space(), 1).matrix()
    finally:
        traced.uninstall()
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    traced.dump(tmp_path / "spans.json")
    metrics = tracer.layer_metrics(json.loads((tmp_path / "spans.json").read_text()))
    assert metrics["operators.materialize.calls"] > 0
    assert metrics["operators.materialize.sector.calls"] == 1
    assert metrics["operators.rho.calls"] > 0
    assert (metrics["verify.embed.calls"], metrics["verify.word_operator.calls"]) == (28, 6)
