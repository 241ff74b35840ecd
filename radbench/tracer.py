"""In-memory span tracer for one radmul process.

The tracer wraps public functions of ``radmul.symbols``, ``algebra``,
``fock``, ``operators`` and ``verify`` by rebinding module and class
attributes inside the traced process; the package's source is untouched.
Each wrapped call records a span ``[name, start, end, parent, tag]``; the
hottest small functions only bump a counter.  ``numpy.linalg.svd`` calls
are named after the layer of the innermost open span, so SVDs run by the
symbol calculus and by the verification suites are told apart.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# span name -> (module, attribute path) of the wrapped callable
SPANS = {
    "fock.space_build": ("radmul.fock", "FockSpace.__init__"),
    "algebra.verify_pp_basis": ("radmul.algebra", "verify_pp_basis"),
    "symbols.hankel_pair": ("radmul.symbols", "hankel_pair"),
    "symbols.factorize": ("radmul.symbols", "factorize"),
    "symbols.trace_norm": ("radmul.symbols", "trace_norm"),
    "operators.build_T": ("radmul.operators", "build_T"),
    "operators.rho_tower": ("radmul.operators", "rho_tower"),
    "operators.eps_rho_tower": ("radmul.operators", "eps_rho_tower"),
    "operators.apply_matrix": ("radmul.operators", "RadialMultiplier.apply_matrix"),
    "operators.op_norm": ("radmul.operators", "op_norm"),
    "verify.embed": ("radmul.verify", "embed"),
    "verify.word_operator": ("radmul.verify", "word_operator"),
}
SUITES = ("fock_suite", "operator_suite", "embedding_suite", "lemma_suite",
          "main_theorem_suite", "spanning_check", "norm_bound_suite")
SPANS.update({"verify." + s: ("radmul.verify", s) for s in SUITES})

# counter name -> wrapped callable; called far too often for a span each
COUNTS = {
    "fock.vector_new": ("radmul.fock", "FockVector.__init__"),
    "fock.push": ("radmul.fock", "Amalgam.push"),
    "algebra.alpha": ("radmul.algebra", "CrossedFactor.alpha"),
}

# StructuredOperator.matrix() spans are tagged with the operator kind,
# read from the operator's public name (see radmul.operators).
MATERIALIZE_KINDS = ("lmul", "creation", "right_creation", "sector", "generator",
                     "word", "embed", "composite", "other")
_NAME_PREFIXES = (("lmul", "lmul"), ("L", "creation"), ("R", "right_creation"),
                  ("P[", "sector"), ("gen(", "generator"), ("word(", "word"),
                  ("embed", "embed"), ("(", "composite"))

# innermost open layer -> name of an SVD span
SVD_NAMES = {"symbols": "symbols.svd", "verify": "verify.spec_norm",
             "operators": "operators.svd"}


def operator_kind(name: str) -> str:
    base = name.rstrip("*")  # an adjoint keeps the kind of its operator
    for prefix, kind in _NAME_PREFIXES:
        if base.startswith(prefix):
            return kind
    return "other"


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Collects spans and counts while installed; ``uninstall`` restores."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []   # [name, start, end, parent index or -1, tag]
        self.stack = []
        self.counts = Counter()
        self.rho_flops = 0
        self._undo = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name, tag=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else -1, tag])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = self.clock()

    def call(self, name, fn, *args, tag=None, **kwargs):
        idx = self._open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _materialize(self, fn):
        def matrix(op):
            if op._matrix is not None:  # already materialized: a cache read
                return fn(op)
            return self.call("operators.materialize", fn, op, tag=operator_kind(op.name))
        return matrix

    def _rho(self, fn):
        def rho_matrix(space, A):
            # two dense complex products (8 flops per multiply-add) per letter
            self.rho_flops += 16 * len(space.amalgam.letters()) * space.dim ** 3
            return self.call("operators.rho", fn, space, A)
        return rho_matrix

    def _svd(self, fn):
        def svd(a, *args, **kwargs):
            layer = self.spans[self.stack[-1]][0].split(".")[0] if self.stack else ""
            dim = max(getattr(a, "shape", (0,))[-2:], default=0)
            return self.call(SVD_NAMES.get(layer, "other.svd"), fn, a, *args,
                             tag=dim, **kwargs)
        return svd

    def _patch(self, owner, attr, new) -> None:
        """Rebind ``owner.attr`` and every radmul global bound to the same
        object, since the package imports names with ``from .x import y``."""
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "radmul" or mod_name.startswith("radmul.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self) -> None:
        import numpy as np
        import radmul.cli  # noqa: F401  (loads every radmul module)

        for name, (module, path) in SPANS.items():
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        for name, (module, path) in COUNTS.items():
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        owner, attr = _resolve("radmul.operators", "StructuredOperator.matrix")
        self._patch(owner, attr, self._materialize(getattr(owner, attr)))
        owner, attr = _resolve("radmul.operators", "rho_matrix")
        self._patch(owner, attr, self._rho(getattr(owner, attr)))
        self._patch(np.linalg, "svd", self._svd(np.linalg.svd))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts),
                   "rho_flops": self.rho_flops}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- aggregation (runs in the benchmark process on a dumped trace) ----------

def _aggregate(spans, child_time, members):
    """calls, inclusive busy time and self time over the spans in ``members``.

    Busy time counts a span only when no ancestor is also a member, so
    recursion is not counted twice; self time subtracts the time covered by
    direct children (``child_time``).
    """
    calls = busy = self_s = 0
    for i in members:
        _, start, end, parent, _ = spans[i]
        calls += 1
        self_s += (end - start) - child_time[i]
        p = parent
        while p >= 0 and p not in members:
            p = spans[p][3]
        if p < 0:
            busy += end - start
    return calls, busy, self_s


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics, ``{metric name: value}``, from a dumped trace."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    groups = {}
    for i, (name, _, _, _, tag) in enumerate(spans):
        groups.setdefault(name, set()).add(i)
        if name == "operators.materialize":
            groups.setdefault("%s.%s" % (name, tag), set()).add(i)
    names = (list(SPANS) + ["operators.materialize", "operators.rho", "root"]
             + ["operators.materialize." + k for k in MATERIALIZE_KINDS]
             + list(SVD_NAMES.values()))
    out = {}
    for name in names:
        calls, busy, self_s = _aggregate(spans, child_time, groups.get(name, set()))
        out[name + ".calls"] = calls
        out[name + ".s"] = busy
        out[name + ".self_s"] = self_s
    for name in SVD_NAMES.values():
        out[name + ".max_dim"] = max((spans[i][4] for i in groups.get(name, ())), default=0)
    for name in COUNTS:
        out[name + ".calls"] = trace["counts"].get(name, 0)
    out["operators.rho.gflop_computed"] = trace["rho_flops"] / 1e9
    return out
