"""The sampled suites build their operators as stacks, cut to the columns
their checks read, evaluate the checks a chunk of samples at a time and take
ranks by word blocks; each must give the numbers of the per-sample routes it
replaced (``oracles``), whatever the chunk size."""

import json
import os
import tracemalloc

import numpy as np
import pytest

import radmul.verify as verify
from oracles import (GeneratorWord, dense_rank, embed_by_products, embed_by_term_loop,
                     embed_per_element, embed_terms_by_pair, family, generator, generator_chain,
                     generator_operators_tiled, generator_words, lambda_span_dense,
                     lemma_suite_per_generator, random_word, theorem_suite_per_word,
                     word_by_products, word_vacuum_images_dense)
from radmul.algebra import FactorElement
from radmul.cli import main
from radmul.config import parse_config, preset_config
from radmul.fock import FockVector
from radmul.operators import (StructuredOperator, apply_weights, build_T, epsilon_matrix,
                              generator_operators, rho_matrix, stack)
from radmul.report import VerificationReport
from radmul.symbols import RadialSymbol
from radmul.verify import (embed, embedding_suite, fock_suite, lemma_suite,
                           main_theorem_suite, random_reduced_word,
                           spanning_check, word_operator, word_vacuum_images)

EXACT = ["dih_space", "mat2_space", "cy3_space"]
SPACES = EXACT + ["noncomm_space"]


@pytest.fixture(scope="module")
def symbols():
    return [RadialSymbol.delta0(), RadialSymbol.geometric(0.5),
            RadialSymbol(head=(1.0, 0.3j), coefficient=0.8 - 0.2j, ratio=0.4 + 0.35j, limit=0.1)]


def assert_reports_agree(got, want, tol):
    """Same checks, statuses and details, residuals within tol."""
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        assert (g.status, g.details) == (w.status, w.details), g.name
        assert abs(g.max_residual - w.max_residual) <= tol, g.name


def assert_sample_is(stack_op, s, want):
    """Sample s of the stack has exactly want's entries, in want's order."""
    on = stack_op.samples == s
    for got, expected in zip((stack_op.rows[on], stack_op.cols[on], stack_op.blocks[on]),
                             (want.rows, want.cols, want.blocks)):
        assert np.array_equal(got, expected)


def every_signature(space, rng):
    """Generators of every (k, l), two with coefficients and two without,
    in shuffled order; the family's chains start with a letter step, with a
    coefficient (every generator with coefficients and l > 0, whose bt_1
    comes first) or with no letter step at all (k = l = 0)."""
    gens = []
    for k in range(3):
        for l in range(3):
            for coeffs in (False, False, True, True):
                gw = random_word(rng, space, k, l)
                gens.append(gw if coeffs else GeneratorWord(gw.cre_letters, gw.ann_letters))
    return [gens[t] for t in rng.permutation(len(gens))]


def cyclic_space(order):
    """dih with its first factor cyclic of the given order at fock_len 2
    (dim 3 order - 1)."""
    data = preset_config("dih")
    data["factors"][0]["group"]["order"] = order
    data["truncation"]["fock_len"] = 2
    return parse_config(data).space()


@pytest.mark.parametrize("name", SPACES)
def test_generator_stack_matches_chain_oracle(request, name):
    space = request.getfixturevalue(name)
    gens = every_signature(space, np.random.default_rng(42))
    A = generator_operators(space, family(space, gens))
    assert A.n_samples == len(gens)
    for s, gw in enumerate(gens):
        want = generator_chain(space, gw)
        assert_sample_is(A, s, want)
        single = generator(space, gw)
        assert single.n_samples == 1
        assert_sample_is(single, 0, want)


@pytest.mark.parametrize("name", SPACES + ["cyclic12"])
def test_seeded_generator_build_matches_tiled_oracle(request, name):
    # the stack seeded with the columns where each group's leading letter
    # steps act equals, entry for entry and in order, the one that follows
    # every generator from every column word
    space = cyclic_space(12) if name == "cyclic12" else request.getfixturevalue(name)
    rng = np.random.default_rng(46)
    families = [verify._generator_zoo(space, 5)]
    if name != "cyclic12":
        families.append(family(space, every_signature(space, rng)))
    for gens in families:
        got = generator_operators(space, gens)
        want = generator_operators_tiled(space, generator_words(space, gens))
        assert got.n_samples == want.n_samples == len(gens.cre)
        for field in ("samples", "rows", "cols", "blocks"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


def traced_peak(build):
    """build() and the peak of the memory it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seeded_generator_build_allocates_only_what_it_keeps():
    # dih with a cyclic factor of order 48: the zoo has 20458 generators and
    # keeps 23189 entries.  Following every generator from every column word
    # (``generator_operators_tiled``) takes 2.9M entries and peaks near 59
    # times the kept bytes; the seeded build peaks near 2.7 times
    space = cyclic_space(48)
    gens = verify._generator_zoo(space, 1)
    A, peak = traced_peak(lambda: generator_operators(space, gens))
    assert (len(gens.cre), A.rows.size) == (20458, 23189)
    assert peak <= 4 * sum(x.nbytes for x in (A.samples, A.rows, A.cols, A.blocks))


@pytest.mark.parametrize("name", SPACES)
def test_embed_stack_matches_per_element_oracle(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(43)
    elements = []
    for fac in space.amalgam.factors:
        elements += [fac.random(rng), fac.random_kernel(rng), fac.identity(), fac.unitary(1),
                     fac.from_base(space.base.random(rng)), 0 * fac.identity()]
    elements = [elements[t] for t in rng.permutation(len(elements))]
    E = embed(space, elements)
    assert E.n_samples == len(elements)
    for s, a in enumerate(elements):
        want = embed_per_element(space, a)
        assert_sample_is(E, s, want)
        assert_sample_is(embed(space, a), 0, want)
        assert (want.rows.size == 0) == (not a.coeffs.any())
    zero = embed(space, [0 * space.amalgam.factors[0].identity()])
    assert (zero.n_samples, zero.rows.size) == (1, 0)


def cyclic7_space():
    """dih with its second factor cyclic of order 7 (dim 62 at fock_len 3)."""
    data = preset_config("dih")
    data["factors"][1]["group"]["order"] = 7
    data["truncation"]["fock_len"] = 3
    return parse_config(data).space()


@pytest.mark.parametrize("name", SPACES + ["cyclic7"])
def test_embed_matches_term_loop_oracle_exactly(request, name):
    # the entries of all terms at once, masked per element, are the loop's
    # entries in the loop's order, so the coalesced stack is the same
    space = cyclic7_space() if name == "cyclic7" else request.getfixturevalue(name)
    rng = np.random.default_rng(45)
    for i, fac in enumerate(space.amalgam.factors):
        n, by_pair = fac.group.order, embed_terms_by_pair(space, i)
        per_term = [by_pair[divmod(t, n)] for t in range(n * n)]
        want = [np.concatenate(x) for x in zip(*per_term)]
        want.append(np.repeat(np.arange(n * n), [cols.size for _, cols, _ in per_term]))
        got = verify._embed_terms(space, i)
        assert len(got) == 4 and all(np.array_equal(x, y) for x, y in zip(got, want))
    elements = []
    for fac in space.amalgam.factors:
        elements += [fac.random(rng), fac.random_kernel(rng), fac.identity(), fac.unitary(1),
                     fac.from_base(space.base.random(rng)), 0 * fac.identity()]
    elements = [elements[t] for t in rng.permutation(len(elements))]
    for a in [elements, elements[0], [elements[-1]]]:
        got, want = embed(space, a), embed_by_term_loop(space, a)
        assert got.n_samples == want.n_samples
        for field in ("samples", "rows", "cols", "blocks"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("name", SPACES)
def test_word_stack_matches_product_oracle(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(44)
    for n in range(min(3, space.L_max) + 1):
        words = [random_reduced_word(rng, space, n) for _ in range(4)]
        W = word_operator(space, words)
        for s, w in enumerate(words):
            want = word_by_products(space, w)
            assert_sample_is(W, s, want)
            assert_sample_is(word_operator(space, w), 0, want)
    with pytest.raises(ValueError):
        word_operator(space, [random_reduced_word(rng, space, n) for n in (1, 2)])


def kept(op, max_len):
    """Each sample's dense matrix with the columns of words longer than its
    bound in ``max_len`` set to zero."""
    cols = np.repeat(op.space.lengths, op.space.dim_N) <= np.asarray(max_len)[:, None]
    return np.where(cols[:, None, :], op.matrix(), 0)


def images(space, T, A):
    """What the suites compute from an operator A: its towers' first members
    rho(A), rho^2(A) and eps(A), and T1(A), T2(A) and T(A)."""
    rho = rho_matrix(space, A)
    return [rho, rho_matrix(space, rho), epsilon_matrix(space, A)] + [
        apply_weights(space, W, A) for W in (T.t1_weights, T.t2_weights, T.weights)]


@pytest.mark.parametrize("name", SPACES)
def test_column_cuts_keep_towers_and_multiplier_exact(request, name, symbols):
    space = request.getfixturevalue(name)
    L, lengths = space.L_max, space.lengths
    rng = np.random.default_rng(45)
    T = build_T(space, symbols[2])
    # the lemma suite's cut: each generator to the columns of length <= g
    gens = every_signature(space, rng)
    full = generator_operators(space, family(space, gens))
    g = np.array([L - max(gw.k - gw.l, 0) - 1 for gw in gens])
    cut = full.subset(lengths[full.cols] <= g[full.samples])
    for a, b in zip(images(space, T, full), images(space, T, cut)):
        assert np.array_equal(kept(b, g), kept(a, g))
    # the theorem suite's cut: words of length n built on the columns of
    # length <= L - n, and every other bound, compared on the kept columns
    for n in range(min(3, L - 2) + 1):
        words = [random_reduced_word(rng, space, n) for _ in range(3)]
        full = word_operator(space, words)
        whole = [full] + images(space, T, full)
        for bound in range(L + 1):
            cut = word_operator(space, words, bound)
            band = np.full(len(words), bound)
            for a, b in zip(whole, [cut] + images(space, T, cut)):
                assert np.array_equal(kept(b, band), kept(a, band))


@pytest.mark.parametrize("name", SPACES)
def test_theorem_suite_matches_per_word_oracle(request, name, symbols):
    space = request.getfixturevalue(name)
    got = main_theorem_suite(space, symbols, seed=3)
    want = theorem_suite_per_word(space, symbols, seed=3)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("name", EXACT + ["noncomm_space"])
def test_lemma_suite_matches_per_generator_oracle(request, name, symbols):
    space = request.getfixturevalue(name)
    got = lemma_suite(space, symbols, seed=3)
    want = lemma_suite_per_generator(space, symbols, seed=3)
    # the dense route adds the weighted tower up in tower order, the package
    # by Horner's rule, so the residuals agree to rounding
    assert_reports_agree(got, want, 1e-15)


@pytest.mark.parametrize("name", EXACT + ["noncomm_space"])
def test_embed_matches_factor_product_oracle(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(40)
    for fac in space.amalgam.factors:
        for a in (fac.random(rng), fac.random_kernel(rng), fac.identity(), fac.unitary(1),
                  fac.from_base(space.base.random(rng))):
            got, want = embed(space, a), embed_by_products(space, a)
            if name in EXACT:
                for field in ("rows", "cols", "blocks"):
                    assert np.array_equal(getattr(got, field), getattr(want, field))
            else:
                # alpha(1) rounds away from 1 under these actions
                assert np.abs(got.matrix()[0] - want.matrix()[0]).max() <= 1e-14


@pytest.mark.parametrize("name", EXACT + ["noncomm_space"])
def test_suites_with_factor_product_embed_give_the_same_reports(request, monkeypatch,
                                                                name, symbols):
    space = request.getfixturevalue(name)

    def run():
        report = VerificationReport()
        report.extend(embedding_suite(space, seed=5))
        report.extend(main_theorem_suite(space, symbols, seed=5, words_per_length=4))
        report.extend(spanning_check(space))
        return report

    def stacked_by_products(space, a):
        if isinstance(a, FactorElement):
            return embed_by_products(space, a)
        return stack([embed_by_products(space, x) for x in a])

    got = run()
    monkeypatch.setattr(verify, "embed", stacked_by_products)
    want = run()
    if name in EXACT:
        assert got.to_json() == want.to_json()
    else:
        assert_reports_agree(got, want, 1e-14)


@pytest.mark.parametrize("preset", ["dih", "mat2", "cy3"])
def test_one_sample_chunks_give_the_same_report(tmp_path, monkeypatch, capsys, preset):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(preset_config(preset)))
    chunks, runs = verify._stacked_chunks, []

    def spy(*args):
        for samples, stacks in chunks(*args):
            runs.append(samples.stop - samples.start)
            assert all(op.n_samples == runs[-1] for op in stacks)
            yield samples, stacks

    def report(path):
        runs.clear()
        assert main(["verify", "--suite", "all", "--config", str(config),
                     "--report", str(path)]) == 0
        return path.read_bytes()

    monkeypatch.setattr(verify, "_stacked_chunks", spy)
    batched = report(tmp_path / "batched.json")
    assert max(runs) > 1
    monkeypatch.setattr(verify, "CHUNK_ENTRIES", 1)
    assert report(tmp_path / "single.json") == batched
    assert max(runs) == 1
    capsys.readouterr()


@pytest.mark.parametrize("name", EXACT + ["noncomm_space"])
def test_rank_fast_paths_match_dense_rank(request, name):
    space = request.getfixturevalue(name)
    fock = {c.name: c for c in fock_suite(space).checks}["fock_lambda_span_rank"]
    assert fock.details["rank"] == dense_rank(v for k in range(space.L_max + 1)
                                              for v in lambda_span_dense(space, k))
    for max_len in range(space.L_max + 1):
        check = spanning_check(space, max_len).checks[0]
        assert check.details["rank"] == dense_rank(word_vacuum_images_dense(space, max_len))
        # the images are the dense route's columns, bit for bit
        images = word_vacuum_images(space, max_len).matrix()[0]
        want = np.stack(list(word_vacuum_images_dense(space, max_len)), axis=1)
        assert np.array_equal(images[:, :want.shape[1]], want)
        assert not images[:, want.shape[1]:].any()


def test_word_block_rank_sums_blocks_and_rejects_leaks(mat2_space):
    space, rng = mat2_space, np.random.default_rng(41)
    k, n = space.dim_N, len(space.words)
    # block diagonal on words, two blocks of rank k - 1
    blocks = rng.standard_normal((n, k, k))
    blocks[[0, 2], :, 0] = blocks[[0, 2], :, 1]
    words = np.arange(n)
    op = StructuredOperator(space, words, words, blocks)
    assert verify._word_block_rank(op) == space.dim - 2
    # one block off the diagonal: a column of word 2 leaking onto word 0,
    # along the direction word 0's columns miss; word by word it would still
    # look like rank dim - 2, so the block sum refuses it
    leak = np.zeros((k, k))
    leak[:, 0] = np.linalg.svd(blocks[0])[0][:, -1]
    op = StructuredOperator(space, np.append(words, 0), np.append(words, 2),
                            np.concatenate([blocks, leak[None]]))
    assert dense_rank(op.matrix()[0].T) == space.dim - 1
    with pytest.raises(ValueError, match="off the word diagonal"):
        verify._word_block_rank(op)


def test_rank_checks_cost_no_dense_column_per_word(monkeypatch):
    """spanning_check applies no operator to an array, and fock_suite
    applies operators to arrays as often at fock_len 3 as at 6, so a
    per-column dense route shows as a count that grows with dim."""
    calls = {"matvec": 0}
    matmul = StructuredOperator.__matmul__

    def counting_matmul(self, other):
        calls["matvec"] += not isinstance(other, StructuredOperator)
        return matmul(self, other)

    monkeypatch.setattr(StructuredOperator, "__matmul__", counting_matmul)
    counts = {}
    for L in (3, 6):
        cfg = preset_config("cy3")
        cfg["truncation"]["fock_len"] = L
        space = parse_config(cfg).space()
        for name, run in (("spanning", spanning_check), ("fock", fock_suite)):
            calls.update(matvec=0)
            assert run(space).passed
            counts[name, L] = dict(calls)
    assert counts["spanning", 3]["matvec"] == counts["spanning", 6]["matvec"] == 0
    assert counts["fock", 3] == counts["fock", 6]


@pytest.mark.parametrize("preset", ["dih", "mat2"])
def test_no_suite_builds_a_fock_vector(tmp_path, monkeypatch, capsys, preset):
    """The suites hold Fock vectors as coordinate arrays: no suite of
    ``verify --suite all`` builds a FockVector.  One usable core keeps
    every suite in this process, where the spy sees it."""
    built = []
    init = FockVector.__init__

    def spy(self, space, *args):
        built.append(space)
        init(self, space, *args)

    monkeypatch.setattr(FockVector, "__init__", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    data = preset_config(preset)
    data["truncation"]["fock_len"] = 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(["verify", "--suite", "all", "--config", str(config)]) == 0
    capsys.readouterr()
    assert built == []
