import csv
import math

import numpy as np
import pytest

from radmul.symbols import (RadialSymbol, factorize, hankel_pair, hankel_pairs,
                            hankel_trace_norm, norm_C, ricard_xu_bound, trace_norm,
                            write_symbol_csv)

from conftest import pair_symbols
from oracles import psi_via_factors


def reconstruct(fact):
    """sum_i outer(x_i, conj(y_i)) over the pairs of a factorization."""
    return sum((np.outer(x, y.conj()) for x, y in fact.pairs),
               np.zeros((fact.dim, fact.dim), dtype=complex))


def norm_sum(fact):
    """sum_i ||x_i|| ||y_i||, the trace norm for balanced pairs."""
    return float(sum(np.linalg.norm(x) * np.linalg.norm(y) for x, y in fact.pairs))


def brute_psi1(phi, n, terms=2000):
    """Oracle: direct partial sum of the telescoping series."""
    return sum(phi(n + 2 * i) - phi(n + 2 * i + 1) for i in range(terms))


def brute_hankel_entry(phi, i, j, offset=0):
    return phi(i + j + offset) - phi(i + j + offset + 1)


# ---------------------------------------------------------------- evaluate

def test_evaluate_constant_symbol():
    phi = RadialSymbol(head=(1.0,), limit=1.0)
    assert phi(5) == 1.0


def test_evaluate_head_tail_boundary():
    phi = RadialSymbol.indicator01()
    assert phi(1) == 1.0
    assert phi(2) == 0.0


def test_evaluate_geometric_formula():
    phi = RadialSymbol(head=(), coefficient=1.0, ratio=0.5, limit=0.0)
    assert phi(3) == pytest.approx(0.125)


def test_evaluate_rejects_negative():
    with pytest.raises(ValueError):
        RadialSymbol.delta0()(-1)


def test_geometric_tail_requires_contraction():
    with pytest.raises(ValueError):
        RadialSymbol(head=(), coefficient=1.0, ratio=1.0)


# ---------------------------------------------------------------- hankel pair

def test_hankel_pair_delta0():
    hp = hankel_pair(RadialSymbol.delta0(), 3)
    want_h = np.zeros((3, 3))
    want_h[0, 0] = 1.0
    assert np.abs(hp.h - want_h).max() == 0
    assert np.abs(hp.k).max() == 0
    assert hp.tail_error == 0.0


def test_hankel_pair_constant_symbol_vanishes():
    hp = hankel_pair(RadialSymbol.constant(1.0), 4)
    assert np.abs(hp.h).max() == 0
    assert np.abs(hp.k).max() == 0


def test_hankel_pair_indicator():
    hp = hankel_pair(RadialSymbol.indicator01(), 2)
    assert np.allclose(hp.h, [[0, 1], [1, 0]])
    assert np.allclose(hp.k, [[1, 0], [0, 0]])


def test_hankel_entries_match_definition(zoo):
    for phi in zoo:
        hp = hankel_pair(phi, 12)
        for i in range(12):
            for j in range(12):
                assert hp.h[i, j] == pytest.approx(brute_hankel_entry(phi, i, j))
                assert hp.k[i, j] == pytest.approx(brute_hankel_entry(phi, i, j, 1))


def test_tail_error_bounds_discarded_mass(zoo):
    # embedding the M-cutoff inside a much larger cutoff changes the trace
    # norm by at most the certified bound
    M = 12
    for phi in zoo:
        small = hankel_pair(phi, M)
        big = hankel_pair(phi, 4 * M)
        for which in ("h", "k"):
            a, b = getattr(small, which), getattr(big, which)
            emb = np.zeros_like(b)
            emb[:M, :M] = a
            assert trace_norm(b - emb) <= small.tail_error + 1e-12


def test_tail_error_zero_for_covered_constant_head():
    phi = RadialSymbol(head=(3.0, 2.0, 1.0), limit=0.5)
    assert hankel_pair(phi, 4).tail_error == 0.0


# ---------------------------------------------------------------- trace norm

def test_trace_norm_rank_one_projection():
    assert trace_norm(np.array([[1, 0], [0, 0]])) == pytest.approx(1.0)


def test_trace_norm_flip():
    # eigenvalues +1 and -1, singular values {1, 1}
    assert trace_norm(np.array([[0, 1], [1, 0]])) == pytest.approx(2.0)


def test_trace_norm_zero():
    assert trace_norm(np.zeros((3, 3))) == 0.0


# ---------------------------------------------------------------- class-C norm

def test_norm_delta0():
    value = norm_C(RadialSymbol.delta0())
    assert value == pytest.approx(1.0, abs=1e-12)


def test_norm_indicator():
    value = norm_C(RadialSymbol.indicator01())
    assert value == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("z", [0.3, 0.5, 0.7])
def test_norm_geometric_rank_one(z):
    # h = (1-z) v v^T with v = (z^n): ||h||_1 = (1-z)/(1-z^2) = 1/(1+z),
    # and k = z h, so the total is exactly 1
    value = norm_C(RadialSymbol.geometric(z))
    assert value == pytest.approx(1.0, abs=1e-8)
    hp = hankel_pair(RadialSymbol.geometric(z), 60)
    assert trace_norm(hp.h) == pytest.approx(1.0 / (1.0 + z), abs=1e-10)
    assert trace_norm(hp.k) == pytest.approx(z / (1.0 + z), abs=1e-10)


def test_norm_C_exact_within_truncation_envelope(zoo):
    # compressing to M x M can only lower the trace norm, and the discarded
    # part costs at most tail_error: the exact value sits in between
    extra = [
        RadialSymbol.geometric(0.9),
        RadialSymbol.geometric(0.0, coefficient=2.0),
        RadialSymbol(head=(1.0,), coefficient=1.0, ratio=0.0),
        RadialSymbol.geometric(-0.8 + 0.1j),
        RadialSymbol.geometric(-0.5, coefficient=0.5j, limit=0.3),
        RadialSymbol(head=(1.0, 2.0, -1.0, 0.5j), coefficient=0.7, ratio=-0.6, limit=0.2),
    ]
    for phi in zoo + extra:
        hp = hankel_pair(phi, 400)
        lower = trace_norm(hp.h) + trace_norm(hp.k) + abs(phi.limit)
        value = norm_C(phi)
        assert isinstance(value, float)
        assert lower - 1e-12 <= value <= lower + hp.tail_error + 1e-12
        assert hankel_trace_norm(phi, 0) == pytest.approx(trace_norm(hp.h), abs=1e-12)
        assert hankel_trace_norm(phi, 1) == pytest.approx(trace_norm(hp.k), abs=1e-12)


# ---------------------------------------------------------------- psi split

def test_psi_delta0():
    phi = RadialSymbol.delta0()
    assert phi.psi1(0) == pytest.approx(1.0)
    assert all(abs(phi.psi1(n)) < 1e-15 for n in range(1, 6))
    assert all(abs(phi.psi2(n)) < 1e-15 for n in range(6))
    assert phi.limit == 0


def test_psi_constant_symbol():
    phi = RadialSymbol.constant(2.5)
    assert all(abs(phi.psi1(n)) + abs(phi.psi2(n)) < 1e-15 for n in range(8))
    assert phi.limit == 2.5


def test_psi_indicator():
    phi = RadialSymbol.indicator01()
    assert [phi.psi1(n) for n in range(4)] == [0, 1, 0, 0]
    assert [phi.psi2(n) for n in range(4)] == [1, 0, 0, 0]


def test_psi_matches_series_oracle(zoo):
    for phi in zoo:
        for n in range(10):
            assert phi.psi1(n) == pytest.approx(brute_psi1(phi, n), abs=1e-12)


def test_phi_recovered_from_psi(zoo):
    for phi in zoo:
        tol = 0.0 if phi.coefficient == 0 else 1e-10
        for n in range(48):
            lhs = phi(n)
            rhs = phi.psi1(n) + phi.psi2(n) + phi.limit
            assert abs(lhs - rhs) <= max(tol, 1e-13)


def test_hankel_entries_from_psi(zoo):
    M = 10
    for phi in zoo:
        hp = hankel_pair(phi, M)
        for i in range(M):
            for j in range(M):
                assert hp.h[i, j] == pytest.approx(
                    phi.psi1(i + j) - phi.psi1(i + j + 2), abs=1e-12)
                assert hp.k[i, j] == pytest.approx(
                    phi.psi2(i + j) - phi.psi2(i + j + 2), abs=1e-12)


def test_variation_bounded_by_trace_norms(zoo):
    M = 24
    for phi in zoo:
        hp = hankel_pair(phi, M)
        total = sum(abs(phi(n) - phi(n + 1)) for n in range(2 * M + 1))
        assert total <= trace_norm(hp.h) + trace_norm(hp.k) + hp.tail_error + 1e-10


# ---------------------------------------------------------------- factorize

def test_factorize_rank_one():
    f = factorize(np.array([[1, 0], [0, 0]], dtype=complex))
    assert len(f.pairs) == 1
    x, y = f.pairs[0]
    assert np.allclose(np.abs(x), [1, 0])
    assert np.allclose(np.outer(x, y.conj()), [[1, 0], [0, 0]])


def test_factorize_flip():
    f = factorize(np.array([[0, 1], [1, 0]], dtype=complex))
    assert len(f.pairs) == 2
    for x, y in f.pairs:
        assert np.linalg.norm(x) * np.linalg.norm(y) == pytest.approx(1.0)


def test_factorize_geometric_norm_sum():
    hp = hankel_pair(RadialSymbol.geometric(0.5), 40)
    f = factorize(hp.h)
    assert norm_sum(f) == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_factorize_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(6):
        A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        f = factorize(A)
        base = trace_norm(A)
        assert np.abs(reconstruct(f) - A).max() <= 1e-10 * max(np.abs(A).max(), 1)
        assert abs(norm_sum(f) - base) <= 1e-10 * base


def test_factorize_zero_matrix():
    assert factorize(np.zeros((4, 4))).pairs == ()


# ---------------------------------------------------------------- psi via factors

def spelled_out(vector, n):
    """The first n entries of a vector of ``hankel_pairs``, (values, ratio)
    with v(t) = v(p) ratio**(t-p) past its last value v(p)."""
    values, ratio = vector
    p = len(values) - 1
    return np.append(values[:p], values[p] * ratio ** np.arange(n - p))


def tail_norm(vector):
    """||v||_2 of a vector of ``hankel_pairs``, its tail summed in closed form."""
    values, ratio = vector
    tail = abs(values[-1]) ** 2 / (1 - abs(ratio) ** 2)
    return math.sqrt(np.sum(np.abs(values[:-1]) ** 2) + tail)


@pytest.mark.parametrize("phi", pair_symbols())
def test_closed_form_pairs_factor_the_hankel_matrices(phi):
    # sum_k x_k y_k^* spelled out on the M x M section is the section of h
    # (k) itself, each pair balanced, and sum_k ||x_k|| ||y_k|| is the trace
    # norm, which the M x M route's SVD pairs approach within its tail error;
    # a matrix that vanishes (a constant symbol's) has no pair
    M = 64
    hp = hankel_pair(phi, M)
    for shift, H in ((0, hp.h), (1, hp.k)):
        pairs = hankel_pairs(phi, shift)
        assert bool(pairs) == bool(H.any())
        got = sum((np.outer(spelled_out(x, M), spelled_out(y, M).conj()) for _, x, y in pairs),
                  np.zeros((M, M), dtype=complex))
        assert np.abs(got - H).max() <= 1e-14 * max(np.abs(H).max(), 1.0)
        for s, x, y in pairs:
            assert tail_norm(x) == pytest.approx(math.sqrt(s), rel=1e-14)
            assert tail_norm(y) == pytest.approx(math.sqrt(s), rel=1e-14)
        mass = sum(tail_norm(x) * tail_norm(y) for _, x, y in pairs)
        assert abs(mass - hankel_trace_norm(phi, shift)) <= 1e-13 * mass
        assert abs(norm_sum(factorize(H)) - mass) <= hp.tail_error + 1e-12 * mass


def test_psi_via_factors_matches_decomposition(zoo):
    M = 24
    for phi in zoo:
        hp = hankel_pair(phi, M)
        fh, fk = factorize(hp.h), factorize(hp.k)
        for k in range(4):
            for l in range(4):
                p1, p2 = psi_via_factors(fh, fk, k, l)
                assert p1 == pytest.approx(phi.psi1(k + l), abs=1e-9)
                assert p2 == pytest.approx(phi.psi2(k + l), abs=1e-9)


def test_psi_via_factors_spec_points():
    hp = hankel_pair(RadialSymbol.delta0(), 16)
    p1, p2 = psi_via_factors(factorize(hp.h), factorize(hp.k), 0, 0)
    assert p1 == pytest.approx(1.0)
    assert abs(p2) < 1e-12

    hp = hankel_pair(RadialSymbol.constant(0.0), 16)
    p1, p2 = psi_via_factors(factorize(hp.h), factorize(hp.k), 1, 1)
    assert abs(p1) < 1e-14 and abs(p2) < 1e-14

    hp = hankel_pair(RadialSymbol.indicator01(), 16)
    p1, p2 = psi_via_factors(factorize(hp.h), factorize(hp.k), 1, 0)
    assert p1 == pytest.approx(1.0)
    assert abs(p2) < 1e-12


def test_psi_via_factors_out_of_range():
    hp = hankel_pair(RadialSymbol.delta0(), 8)
    fh, fk = factorize(hp.h), factorize(hp.k)
    with pytest.raises(ValueError):
        psi_via_factors(fh, fk, 8, 0)


# ---------------------------------------------------------------- comparison bound

def test_ricard_xu_delta0():
    assert ricard_xu_bound(RadialSymbol.delta0()) == pytest.approx(1.0)


def test_ricard_xu_indicator_vs_class_norm():
    phi = RadialSymbol.indicator01()
    bound = ricard_xu_bound(phi)
    assert bound == pytest.approx(5.0)
    # the class-C norm is the sharper constant here
    assert norm_C(phi) < bound


def test_ricard_xu_constant_diverges():
    assert math.isinf(ricard_xu_bound(RadialSymbol.constant(1.0)))


def test_ricard_xu_geometric_closed_form():
    phi = RadialSymbol.geometric(0.5, coefficient=2.0)
    brute = abs(phi(0)) + sum(4 * n * abs(phi(n)) for n in range(1, 400))
    assert ricard_xu_bound(phi) == pytest.approx(brute, rel=1e-12)


def test_ricard_xu_with_head():
    phi = RadialSymbol(head=(2.0, -1.0), coefficient=1.0, ratio=0.25)
    brute = abs(phi(0)) + sum(4 * n * abs(phi(n)) for n in range(1, 200))
    assert ricard_xu_bound(phi) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------- csv emitter

def test_symbol_csv_roundtrip(tmp_path):
    phi = RadialSymbol.indicator01()
    path = tmp_path / "symbol.csv"
    write_symbol_csv(path, phi, 4)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for row in rows:
        n = int(row["n"])
        assert float(row["re_phi"]) == pytest.approx(phi(n).real)
        assert float(row["re_psi1"]) == pytest.approx(phi.psi1(n).real)
        assert float(row["re_psi2"]) == pytest.approx(phi.psi2(n).real)
