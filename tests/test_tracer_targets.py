"""The benchmark tracer (``radbench/tracer.py``) rebinds radmul functions by
name; every name it wraps must still resolve, or ``--trace 1`` breaks."""

from pathlib import Path

import radmul.cli  # noqa: F401  (loads every radmul module, as the tracer does)

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
