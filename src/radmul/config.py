"""Run configuration: JSON schema, validation, canonical digest, presets.

A configuration bundles the base algebra, the crossed-product factors, the
radial symbol, the truncation parameters, the tolerances, and a seed::

    {
      "base_algebra": {"kind": "scalar"} | {"kind": "matrix", "dim": 2},
      "factors": [
        {"group": {"kind": "cyclic", "order": 2} | {"kind": "table", "table": [[...]]},
         "action": "trivial" | {"kind": "inner", "unitary": [[[re, im], ...], ...]}}
      ],
      "symbol": {"head": [1, 1],
                 "tail": {"kind": "constant", "limit": 0}
                       | {"kind": "geometric", "coefficient": 1, "ratio": 0.5, "limit": 0}},
      "truncation": {"fock_len": 5, "hankel_dim": 32},
      "tolerances": {"algebraic": 1e-13, "spectral": 1e-8, "eigen": 1e-10},
      "seed": 0
    }

Both tail kinds parse to one ``RadialSymbol``: a constant tail is the
geometric one with coefficient 0.  Complex scalars are finite numbers or
[re, im] pairs; the action unitary is a row-major matrix of [re, im]
pairs.  Inner actions are supported for cyclic groups, which act through
powers of the supplied unitary.  A run
needs at least two factors, groups need order >= 2, and every object
takes only the keys shown above for its kind: a misspelt key, or a key of
another kind, is an error, not a default.
``fock_len`` is the word-length cutoff; ``hankel_dim`` only sizes the
symbol table of ``radmul symbol --csv``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import CrossedFactor, FiniteGroup, TracialAlgebra
from .fock import Amalgam, FockSpace
from .report import DEFAULT_TOLERANCES
from .symbols import RadialSymbol


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _is_real(value) -> bool:
    # finite and within float range; NaN fails the comparison
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _complex(value) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    raise ConfigError("expected a finite number or an [re, im] pair, got %r" % (value,))


def _int(value, name: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError("%s must be an integer >= %d, got %r" % (name, minimum, value))
    return value


def _object(value, name: str, known) -> dict:
    """value, which must be an object whose keys are all in ``known``."""
    if not isinstance(value, dict):
        raise ConfigError("%s must be an object" % name)
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError("unknown %s key %r (known: %s)"
                          % (name, unknown[0], ", ".join(sorted(known))))
    return value


def _kind(fragment, name: str, kinds: dict) -> str:
    """The "kind" of ``fragment``, an object that may hold besides it only
    the keys ``kinds`` lists for that kind."""
    kind = _object(fragment, name, {"kind"}.union(*kinds.values())).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError("%s needs a 'kind'" % name if "kind" not in fragment
                          else "unknown %s kind %r" % (name, kind))
    _object(fragment, "%s %s" % (kind, name), ("kind",) + kinds[kind])
    return kind


def _complex_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_complex(v) for v in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad complex matrix: %s" % exc) from exc


@dataclass
class RunConfig:
    factors: list
    symbol: RadialSymbol
    fock_len: int
    hankel_dim: int
    tolerances: dict
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    def digest(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def space(self) -> FockSpace:
        return FockSpace(Amalgam(self.factors), self.fock_len)


def _parse_base(fragment) -> TracialAlgebra:
    if _kind(fragment, "base_algebra", {"scalar": (), "matrix": ("dim",)}) == "scalar":
        return TracialAlgebra(1)
    return TracialAlgebra(_int(fragment.get("dim"), "matrix base_algebra 'dim'", 1))


def _parse_group(fragment) -> FiniteGroup:
    kind = _kind(fragment, "factor group", {"cyclic": ("order",), "table": ("table",)})
    try:
        if kind == "cyclic":
            group = FiniteGroup.cyclic(_int(fragment["order"], "group order", 2))
        else:
            group = FiniteGroup([[_int(v, "group table entry", 0) for v in row]
                                 for row in fragment["table"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("bad group fragment: %s" % exc) from exc
    if group.order < 2:
        # a trivial factor has no letters: no reduced words to sample
        raise ConfigError("factor groups need order >= 2")
    return group


def _parse_factor(base: TracialAlgebra, fragment) -> CrossedFactor:
    _object(fragment, "factor", ("group", "action"))
    group = _parse_group(fragment.get("group", {}))
    action = fragment.get("action", "trivial")
    if action == "trivial":
        return CrossedFactor(base, group)
    if isinstance(action, dict) and action.get("kind") == "inner":
        _object(action, "action", ("kind", "unitary"))
        # element 1 taking each k to k + 1 makes element k its k-th power,
        # so the (validated) table is the cyclic one, (a + b) mod order
        if not np.array_equal(group.table[1], np.roll(np.arange(group.order), -1)):
            raise ConfigError("inner actions are supported for cyclic groups only")
        unitary = _complex_matrix(action.get("unitary", []))
        if unitary.shape != (base.d, base.d):
            raise ConfigError("action unitary must be %d x %d" % (base.d, base.d))
        try:
            return CrossedFactor.inner_cyclic(base, group, unitary)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("unknown action %r" % (action,))


def _parse_symbol(fragment) -> RadialSymbol:
    head = _object(fragment, "symbol", ("head", "tail")).get("head", [])
    if not isinstance(head, list):
        raise ConfigError("symbol head must be a list")
    head = tuple(_complex(v) for v in head)
    tail_frag = fragment.get("tail", {"kind": "constant", "limit": 0})
    kind = _kind(tail_frag, "symbol tail", {"constant": ("limit",),
                                            "geometric": ("limit", "coefficient", "ratio")})
    try:
        if kind == "constant":
            return RadialSymbol(head, limit=_complex(tail_frag.get("limit", 0)))
        return RadialSymbol(head, coefficient=_complex(tail_frag.get("coefficient", 1)),
                            ratio=_complex(tail_frag["ratio"]),
                            limit=_complex(tail_frag.get("limit", 0)))
    except (KeyError, ValueError) as exc:
        raise ConfigError("bad symbol tail: %s" % exc) from exc


def parse_config(data: dict) -> RunConfig:
    _object(data, "configuration", ("base_algebra", "factors", "symbol", "truncation",
                                    "tolerances", "seed"))
    base = _parse_base(data.get("base_algebra", {"kind": "scalar"}))
    factor_frags = data.get("factors")
    if not isinstance(factor_frags, list) or len(factor_frags) < 2:
        # a single factor has no reduced words beyond length one
        raise ConfigError("an amalgamated free product needs a list of at least two factors")
    factors = [_parse_factor(base, f) for f in factor_frags]
    symbol = _parse_symbol(data.get("symbol", {"head": [1.0]}))

    trunc = _object(data.get("truncation", {}), "truncation", ("fock_len", "hankel_dim"))
    fock_len = _int(trunc.get("fock_len", 5), "fock_len", 2)
    hankel_dim = _int(trunc.get("hankel_dim", max(2 * len(symbol.head), 32)), "hankel_dim", 1)
    if symbol.coefficient == 0 and hankel_dim < symbol.head_end + 1:
        raise ConfigError("hankel_dim must cover the symbol head (need >= %d)"
                          % (symbol.head_end + 1))

    tol_frag = _object(data.get("tolerances", {}), "tolerances", DEFAULT_TOLERANCES)
    tolerances = dict(DEFAULT_TOLERANCES, **tol_frag)
    for name, value in tolerances.items():
        if not (_is_real(value) and value > 0):
            raise ConfigError("tolerance %r must be a finite positive number" % name)

    seed = _int(data.get("seed", 0), "seed", 0)

    return RunConfig(factors=factors, symbol=symbol,
                     fock_len=fock_len, hankel_dim=hankel_dim,
                     tolerances=tolerances, seed=seed, raw=data)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read configuration: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("configuration is not valid JSON: %s" % exc) from exc
    return parse_config(data)


def preset_config(name: str) -> dict:
    """Built-in model configurations.

    dih  -- scalar base, two order-2 factors (infinite dihedral flavor)
    mat2 -- 2x2 matrix base, two order-2 factors, one acting inner via
            conjugation by diag(1, -1)
    cy3  -- scalar base, two order-3 factors
    """
    presets = {
        "dih": {
            "base_algebra": {"kind": "scalar"},
            "factors": [
                {"group": {"kind": "cyclic", "order": 2}, "action": "trivial"},
                {"group": {"kind": "cyclic", "order": 2}, "action": "trivial"},
            ],
        },
        "mat2": {
            "base_algebra": {"kind": "matrix", "dim": 2},
            "factors": [
                {"group": {"kind": "cyclic", "order": 2}, "action": "trivial"},
                {"group": {"kind": "cyclic", "order": 2},
                 "action": {"kind": "inner",
                            "unitary": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}},
            ],
        },
        "cy3": {
            "base_algebra": {"kind": "scalar"},
            "factors": [
                {"group": {"kind": "cyclic", "order": 3}, "action": "trivial"},
                {"group": {"kind": "cyclic", "order": 3}, "action": "trivial"},
            ],
        },
    }
    if name not in presets:
        raise ConfigError("unknown preset %r" % (name,))
    data = dict(presets[name])
    data["symbol"] = {"head": [1.0, 1.0], "tail": {"kind": "constant", "limit": 0}}
    data["truncation"] = {"fock_len": 5, "hankel_dim": 32}
    data["seed"] = 0
    return data
