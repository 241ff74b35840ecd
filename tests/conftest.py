import itertools

import numpy as np
import pytest

from radmul.config import parse_config, preset_config
from radmul.symbols import RadialSymbol


@pytest.fixture(scope="session")
def dih_space():
    """Scalar base, two order-2 factors, words up to length 5 (dim 11)."""
    return parse_config(preset_config("dih")).space()


@pytest.fixture(scope="session")
def mat2_space():
    """M_2 base, two order-2 factors, one inner action (dim 44)."""
    return parse_config(preset_config("mat2")).space()


@pytest.fixture(scope="session")
def cy3_space():
    """Scalar base, two order-3 factors at length 4; exercises case-2 embeds."""
    cfg = preset_config("cy3")
    cfg["truncation"]["fock_len"] = 4
    return parse_config(cfg).space()


def _pairs(matrix):
    return [[[z.real, z.imag] for z in row] for row in matrix]


def noncommuting_config(fock_len=3):
    """M_2 base, two order-3 factors acting by Ad diag(1, w) and by its
    Hadamard conjugate (w = exp(2 pi i / 3)); the two actions do not commute,
    so the order in which a coefficient is pushed through a word matters."""
    w = np.exp(2j * np.pi / 3)
    V = np.diag([1.0, w])
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    factors = [{"group": {"kind": "cyclic", "order": 3},
                "action": {"kind": "inner", "unitary": _pairs(U)}} for U in (V, H @ V @ H)]
    return {"base_algebra": {"kind": "matrix", "dim": 2}, "factors": factors,
            "symbol": {"head": [1.0, 1.0], "tail": {"kind": "constant", "limit": 0}},
            "truncation": {"fock_len": fock_len}, "seed": 0}


@pytest.fixture(scope="session")
def noncomm_space():
    """M_2 base, two order-3 factors with non-commuting inner actions (dim 116)."""
    return parse_config(noncommuting_config()).space()


def s3_config():
    """dih with its second factor S_3 (an order-6 table group, composition
    of the permutations of three points) at fock_len 3: the only test model
    whose group is not abelian, so gh and hg differ."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[k]] for k in range(3))) for q in perms] for p in perms]
    cfg = preset_config("dih")
    cfg["factors"][1]["group"] = {"kind": "table", "table": table}
    cfg["truncation"]["fock_len"] = 3
    return cfg


def geo_dih_config():
    """dih with the symbol phi(n) = 0.97^n (head [1], a geometric tail): the
    second workload of radbench, and the one model whose symbol has nonzero
    weights past length 1."""
    cfg = preset_config("dih")
    cfg["symbol"] = {"head": [1.0], "tail": {"kind": "geometric", "coefficient": 1.0,
                                             "ratio": 0.97, "limit": 0}}
    return cfg


# the six small models that the pinned reports and the run-time liveness
# gate run, each name with a factory of its configuration
MODELS = {
    "dih": lambda: preset_config("dih"),
    "geo-dih": geo_dih_config,
    "mat2": lambda: preset_config("mat2"),
    "cy3": lambda: preset_config("cy3"),
    "noncommuting3": lambda: noncommuting_config(3),
    "s3": s3_config,
}


@pytest.fixture(scope="session")
def s3_space():
    """Scalar base, an order-2 factor and an S_3 factor (dim 47)."""
    return parse_config(s3_config()).space()


def symbol_zoo():
    """Symbols covering every tail kind, plus complex data."""
    return [
        RadialSymbol.delta0(),
        RadialSymbol.indicator01(),
        RadialSymbol.constant(1.0),
        RadialSymbol.constant(0.3 - 0.4j),
        RadialSymbol.geometric(0.5),
        RadialSymbol.geometric(0.3, coefficient=2.0),
        RadialSymbol.geometric(0.4 + 0.3j, coefficient=1.0 - 0.5j),
        RadialSymbol(head=(2.0, -1.0, 0.5j), limit=0.25),
        RadialSymbol(head=(1.0, 0.0, -0.5), coefficient=0.8, ratio=0.6, limit=-0.2 + 0.1j),
    ]


def pair_symbols():
    """The symbols of the closed-form pair tests: the zoo, a slow tail, a
    complex ratio near -1, ratio 0 with a coefficient (phi(0) = limit + r
    alone), and a constant symbol, whose Hankel matrices have no pair."""
    return symbol_zoo() + [RadialSymbol.geometric(0.97),
                           RadialSymbol.geometric(-0.9 + 0.3j, coefficient=1 - 0.5j),
                           RadialSymbol(head=(), coefficient=2.0 - 1j, ratio=0.0, limit=0.5),
                           RadialSymbol.constant(0.3 - 0.4j)]


@pytest.fixture(scope="session")
def zoo():
    return symbol_zoo()


@pytest.fixture(scope="session")
def acceptance_symbols():
    """The four symbols named by the acceptance gate."""
    return [RadialSymbol.delta0(), RadialSymbol.indicator01(),
            RadialSymbol.geometric(0.5), RadialSymbol.constant(1.0)]
