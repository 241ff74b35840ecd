"""The sampled suites build their operators as stacks, cut to the columns
their checks read, evaluate the checks a chunk of samples at a time and take
ranks by word blocks; each must give the numbers of the per-sample routes it
replaced (``oracles``), whatever the chunk size."""

import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

import radmul.cli as cli
import radmul.operators as operators
import radmul.verify as verify
from oracles import (GeneratorWord, dense_rank, embed_by_term_loop, embedded, family,
                     generator, generator_chain, generator_words, lambda_span_dense,
                     lemma_suite_per_generator, random_reduced_word, random_word, select,
                     theorem_suite_per_word, unitary_word_by_rules, word_by_products,
                     weighed, word_stack, word_vacuum_images_dense)
from radmul.algebra import CrossedFactor, FiniteGroup, TracialAlgebra
from radmul.cli import main
from radmul.config import parse_config, preset_config
from radmul.operators import (StructuredOperator, _unitary_words, build_T, epsilon_matrix,
                              generator_operators, padded, rho_matrix, word_vacuum_images)
from radmul.report import VerificationReport
from radmul.symbols import RadialSymbol
from radmul.verify import (embedding_suite, fock_suite, lemma_suite, main_theorem_suite,
                           spanning_check)

EXACT = ["dih_space", "mat2_space", "cy3_space"]
SPACES = EXACT + ["noncomm_space"]
# the models for the embedding: every one of them exact but noncomm_space
EMBED_SPACES = SPACES + ["cyclic7", "s3_space"]


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


def assert_entries_agree(got, want, exact):
    """got has want's samples, rows and columns, and want's blocks bit for
    bit where ``exact``, else to 1e-15 of want's largest block entry: under
    the noncommuting model's actions the two routes push a coefficient
    through a word's letters in different orders."""
    for field in ("samples", "rows", "cols"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    if exact:
        assert np.array_equal(got.blocks, want.blocks)
    else:
        scale = np.abs(want.blocks).max(initial=0.0)
        assert np.abs(got.blocks - want.blocks).max(initial=0.0) <= 1e-15 * scale


def assert_sample_is(stack_op, s, want):
    """Sample s of the stack has exactly want's entries, in want's order."""
    on = stack_op.samples == s
    for got, expected in zip((stack_op.rows[on], stack_op.cols[on], stack_op.blocks[on]),
                             (want.rows, want.cols, want.blocks)):
        assert np.array_equal(got, expected)


def assert_samples_are_chains(space, gens):
    """Each sample of the family's stack is bit for bit the product of
    single operators of its generator (``generator_chain``); the stack
    holds no other entries."""
    A = generator_operators(space, gens)
    assert A.n_samples == len(gens.cre)
    size = 0
    for s, gw in enumerate(generator_words(space, gens)):
        want = generator_chain(space, gw)
        assert_sample_is(A, s, want)
        size += want.rows.size
    assert A.rows.size == size


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


@pytest.mark.parametrize("name", SPACES + ["s3_space"])
def test_generator_stack_matches_chain_oracle(request, name):
    space = request.getfixturevalue(name)
    gens = every_signature(space, np.random.default_rng(42))
    assert_samples_are_chains(space, family(space, gens))
    assert_samples_are_chains(space, verify._generator_zoo(space, 0))
    for gw in gens:
        single = generator(space, gw)
        assert single.n_samples == 1
        assert_sample_is(single, 0, generator_chain(space, gw))


@pytest.mark.parametrize("name", SPACES + ["cyclic12"])
def test_seeded_generator_build_matches_tiled_oracle(request, name):
    # the stack seeded with the columns where each group's leading letter
    # steps act holds, sample by sample and in order, the entries of the
    # generator's chain of single operators, whose every letter step is
    # tiled over every column word
    space = cyclic_space(12) if name == "cyclic12" else request.getfixturevalue(name)
    rng = np.random.default_rng(46)
    assert_samples_are_chains(space, verify._generator_zoo(space, 5))
    if name != "cyclic12":
        assert_samples_are_chains(space, family(space, every_signature(space, rng)))


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
    # takes 2.9M entries and peaked near 59 times the kept bytes; the seeded
    # build peaks near 2.7 times
    space = cyclic_space(48)
    gens = verify._generator_zoo(space, 1)
    A, peak = traced_peak(lambda: generator_operators(space, gens))
    assert (len(gens.cre), A.rows.size) == (20458, 23189)
    assert peak <= 4 * sum(x.nbytes for x in (A.samples, A.rows, A.cols, A.blocks))


@pytest.mark.parametrize("d", [1, 2])
def test_product_by_a_sparse_factor_allocates_by_its_terms(d):
    # a product forms the terms of the right factor's nonzero coefficients
    # only: by a unitary or an element of N, |G| terms, peaking near 5 times
    # the coefficient bytes at order 200, where all |G|^2 terms peaked near
    # 400 times
    base = TracialAlgebra(d)
    fac = CrossedFactor.inner_cyclic(base, FiniteGroup.cyclic(200), np.diag([1, 1j])[:d, :d])
    rng = np.random.default_rng(47)
    a = fac.random(rng)
    for b in (fac.unitary(7), fac.from_base(base.random(rng))):
        _, peak = traced_peak(lambda: fac.mul(a, b))
        assert peak <= 8 * a.nbytes


def cyclic7_space():
    """dih with its second factor cyclic of order 7 (dim 62 at fock_len 3)."""
    data = preset_config("dih")
    data["factors"][1]["group"]["order"] = 7
    data["truncation"]["fock_len"] = 3
    return parse_config(data).space()


def embed_space(request, name):
    return cyclic7_space() if name == "cyclic7" else request.getfixturevalue(name)


def every_kind_of_element(space, rng):
    """Per factor a random element, a kernel element, the identity, a
    unitary, an element of N and zero, in shuffled order: the factor
    indices and the elements."""
    factors, elements = [], []
    for i, fac in enumerate(space.amalgam.factors):
        factors += [i] * 6
        elements += [fac.random(rng), fac.random_kernel(rng), fac.identity(), fac.unitary(1),
                     fac.from_base(space.base.random(rng)), np.zeros_like(fac.identity())]
    order = rng.permutation(len(elements))
    return [factors[t] for t in order], [elements[t] for t in order]


@pytest.mark.parametrize("name", EMBED_SPACES)
def test_embed_stack_matches_per_element_oracle(request, name):
    # each sample of the stack is bit for bit the element's own embedding
    space = embed_space(request, name)
    factors, elements = every_kind_of_element(space, np.random.default_rng(43))
    E = embedded(space, factors, elements)
    assert E.n_samples == len(elements)
    for s, (i, a) in enumerate(zip(factors, elements)):
        single = embedded(space, [i], [a])
        assert_sample_is(E, s, single)
        want = embed_by_term_loop(space, [i], padded(space, [a]))
        assert_entries_agree(single, want, name != "noncomm_space")
        assert (want.rows.size == 0) == (not a.any())
    zero = embedded(space, [0], [np.zeros_like(space.amalgam.factors[0].identity())])
    assert (zero.n_samples, zero.rows.size) == (1, 0)


@pytest.mark.parametrize("name", EMBED_SPACES)
def test_unitary_words_follow_the_word_rules(request, name):
    space = embed_space(request, name)
    for i, fac in enumerate(space.amalgam.factors):
        got = _unitary_words(space, i)
        assert got.shape == (fac.group.order, len(space.words))
        want = [[unitary_word_by_rules(space, i, g, j) for j in range(len(space.words))]
                for g in range(fac.group.order)]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", EMBED_SPACES)
def test_embed_matches_term_loop_oracle_exactly(request, name):
    # sum_g lmul(a_g) U_g has the entries of the module-basis terms
    # L_{e_j} E(e_j* a e_k) L*_{e_k} with nonzero coefficient; on the exact
    # models its blocks are theirs bit for bit
    space = embed_space(request, name)
    factors, elements = every_kind_of_element(space, np.random.default_rng(45))
    for i, a in [(factors, elements), (factors[-1:], elements[-1:])]:
        got = embedded(space, i, a)
        want = embed_by_term_loop(space, i, padded(space, a))
        assert got.n_samples == want.n_samples
        assert_entries_agree(got, want, name != "noncomm_space")


@pytest.mark.parametrize("name", SPACES + ["s3_space"])
def test_word_stack_matches_product_oracle(request, name):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(44)
    for n in range(min(3, space.L_max) + 1):
        words = [random_reduced_word(rng, space, n) for _ in range(4)]
        W = word_stack(space, words)
        for s, w in enumerate(words):
            single = word_stack(space, [w])
            assert_sample_is(W, s, single)
            assert_entries_agree(single, word_by_products(space, w), name != "noncomm_space")


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
        weighed(space, W, A) for W in (T.t1_weights, T.t2_weights, T.weights)]


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
        full = word_stack(space, words)
        whole = [full] + images(space, T, full)
        for bound in range(L + 1):
            cut = word_stack(space, words, bound)
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
def test_suites_with_term_loop_embed_give_the_same_reports(request, monkeypatch, name,
                                                            symbols):
    space = request.getfixturevalue(name)

    def run():
        report = VerificationReport()
        report.extend(embedding_suite(space, seed=5))
        report.extend(main_theorem_suite(space, symbols, seed=5, words_per_length=4))
        report.extend(spanning_check(space))
        return report

    got = run()
    # the suites call embed, and word_operator and word_vacuum_images call it in operators
    for module in (operators, verify):
        monkeypatch.setattr(module, "embed", embed_by_term_loop)
    want = run()
    if name in EXACT:
        assert got.to_json() == want.to_json()
    else:
        assert_reports_agree(got, want, 1e-14)


def spy_chunks(monkeypatch) -> dict:
    """Record the ranges of every ``_chunks`` call of a ``cli`` run in this
    process: {suite function: [[range of each chunk's samples] per call, in
    call order]}."""
    calls, suite, chunks = {}, [None], verify._chunks

    def spy(*args, **kwargs):
        ranges = []
        calls.setdefault(suite[0], []).append(ranges)
        for samples, stacks in chunks(*args, **kwargs):
            ranges.append(range(samples.start, samples.stop))
            assert all(op.n_samples == len(ranges[-1]) for op in stacks)
            yield samples, stacks

    def tagged(name, run):
        def job(*args, **kwargs):
            suite[0] = name
            return run(*args, **kwargs)
        return job

    monkeypatch.setattr(verify, "_chunks", spy)
    for name in ("lemma_suite", "main_theorem_suite", "norm_bound_suite", "embedding_suite"):
        monkeypatch.setattr(cli, name, tagged(name, getattr(cli, name)))
    return calls


def verify_in_one_process(monkeypatch, config, path):
    """The report bytes of ``verify --suite all`` on one usable core, where
    every suite runs in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["verify", "--suite", "all", "--config", str(config),
                 "--report", str(path)]) == 0
    return path.read_bytes()


def splits_a_length(ranges) -> bool:
    """Whether one of the theorem suite's ranges (ten words per length)
    holds words of two lengths and only part of one of them."""
    return any(r.start // 10 < (r.stop - 1) // 10 and (r.start % 10 or r.stop % 10)
               for r in ranges)


@pytest.mark.parametrize("preset", ["dih", "mat2", "cy3"])
def test_one_sample_chunks_give_the_same_report(tmp_path, monkeypatch, capsys, preset):
    """The report bytes are the same at the chunk cap, at cap 1 and at a cap
    where a theorem range takes part of one word length and of the next."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(preset_config(preset)))
    calls, reports = spy_chunks(monkeypatch), set()
    # the words' sizes add up to 1060 on dih, 16960 on mat2 and 26670 on cy3
    spanning = {"dih": 400, "mat2": 10000, "cy3": 10000}[preset]
    for cap in (verify.CHUNK_ENTRIES, spanning, 1):
        calls.clear()
        monkeypatch.setattr(verify, "CHUNK_ENTRIES", cap)
        reports.add(verify_in_one_process(monkeypatch, config, tmp_path / "report.json"))
        longest = max(len(r) for runs in calls.values() for ranges in runs for r in ranges)
        assert (longest > 1) == (cap > 1)
        theorem = calls["main_theorem_suite"]
        assert splits_a_length(theorem[0]) == (cap == spanning)
        # the last call is the linearity stack, four operands
        assert [len(r) for r in theorem[-1]] == ([4] if cap > 1 else [1] * 4)
    assert len(reports) == 1
    capsys.readouterr()


def test_cy3_workload_applies_T_in_few_passes(tmp_path, monkeypatch, capsys):
    """On cy3 at fock_len 5 with seed 1, the input of the cy3-L5 benchmark
    workload, one process applies T in at most 6 Horner passes
    (``apply_weights`` calls; 27 with the flat size 2L+1 per entry and a cap
    of 4096), and the lemma suite's generators, the theorem suite's words of
    all four lengths and its linearity operands come in one chunk each.  At
    fock_len 8 with a 0.5^n tail a word length too large for one range
    shares its last range with the next length, in at most 35 passes (37
    where each length's ranges held that length only)."""
    passes, apply = [], operators.apply_weights

    def counted(*args):
        passes.append(args[2].n_samples)
        return apply(*args)
    # the multiplier calls it in operators, the suites in verify
    for module in (operators, verify):
        monkeypatch.setattr(module, "apply_weights", counted)
    calls = spy_chunks(monkeypatch)
    config, cy3 = tmp_path / "config.json", dict(preset_config("cy3"), seed=1)
    config.write_text(json.dumps(cy3))
    verify_in_one_process(monkeypatch, config, tmp_path / "report.json")
    assert len(passes) <= 6
    assert calls["lemma_suite"] == [[range(178)]]
    assert calls["main_theorem_suite"] == [[range(40)], [range(4)]]
    passes.clear()
    cy3["symbol"] = {"head": [], "tail": {"kind": "geometric", "ratio": 0.5}}
    cy3["truncation"] = {"fock_len": 8, "hankel_dim": 64}
    config.write_text(json.dumps(cy3))
    verify_in_one_process(monkeypatch, config, tmp_path / "report.json")
    assert len(passes) <= 35
    # the last but one call holds the words at fock_len 8
    assert splits_a_length(calls["main_theorem_suite"][-2])
    capsys.readouterr()


@pytest.mark.parametrize("cap", [verify.CHUNK_ENTRIES, 1])
@pytest.mark.parametrize("name", EXACT + ["noncomm_space"])
def test_stacked_images_match_separate_applications(request, monkeypatch, symbols, name,
                                                     cap):
    """The theorem suite's linearity operands A, al A + be B, B and A lam,
    cut by ``_chunks`` and applied a range at a time as one stack, get T's
    entries bit for bit as four ``apply_matrix`` calls give them."""
    monkeypatch.setattr(verify, "CHUNK_ENTRIES", cap)
    space, rng = request.getfixturevalue(name), np.random.default_rng(47)
    T = build_T(space, symbols[2])
    A = operators.word_operator(space, *verify.random_word_arrays(rng, space, 1, 1))
    B = operators.word_operator(space, *verify.random_word_arrays(rng, space, 0, 1))
    lam = operators.embed(space, [0], space.base.random(rng)[None, None])
    operands = [A, (0.3 - 1.1j) * A + 0.7 * B, B, A @ lam]
    got = []
    for _, (chunk,) in verify._chunks(space, [(op,) for op in operands]):
        got += T.apply_matrix(chunk).unstack(range(chunk.n_samples + 1))
    assert len(got) == len(operands)
    for image, op in zip(got, operands):
        want = T.apply_matrix(op)
        assert image.n_samples == 1
        for field in ("samples", "rows", "cols", "blocks"):
            assert np.array_equal(getattr(image, field), getattr(want, field)), field


def subtree_sizes(space) -> np.ndarray:
    """The number of words that start with word w, w included, per word:
    the rows of ``space.words`` that agree with w's on its letters."""
    words, lengths = space.words, space.lengths
    head = np.arange(space.L_max)[None, :] < lengths[:, None]
    same = (words[None, :, :] == words[:, None, :]) | ~head[:, None, :]
    return same.all(axis=2).sum(axis=1)


@pytest.mark.parametrize("cap", [1, 40, 400, 1000, 2000, 4096, 10 ** 9])
def test_chunks_match_select_bit_for_bit(monkeypatch, cy3_space, cap):
    """``_chunks`` on tuples of three roles, the zoo's shuffled generators
    (entries grouped by kind), their vacuum cut (empty samples) and
    embeddings, then words of mixed lengths, their vacuum cuts and adjoints:
    ranges are consecutive and cover the samples, hold one sample or sizes
    (d^2 min(subtree(r), subtree(c)) per entry, once and three times) up to
    the cap, close only when the next sample would overflow them or, full,
    at a tuple's end, take the next tuple only while they have room, and are
    bit for bit, entry order included, the ``select`` of the tuples' ``stack``."""
    monkeypatch.setattr(verify, "CHUNK_ENTRIES", cap)
    space, rng = cy3_space, np.random.default_rng(43)
    zoo = verify._generator_zoo(space, 0)
    at = rng.permutation(len(zoo.cre))
    gens = generator_operators(space, verify.Generators(
        zoo.cre[at], zoo.ann[at], zoo.coeff_rows[at], zoo.cre_coeffs, zoo.ann_coeffs))
    assert np.any(np.diff(gens.samples) < 0)
    cut = gens.columns_upto(0)
    assert np.count_nonzero(np.bincount(cut.samples, minlength=cut.n_samples) == 0) > 0
    embeds = embedded(space, np.arange(gens.n_samples) % 2, [
        space.amalgam.factors[t % 2].random(rng) for t in range(gens.n_samples)])
    words = [operators.word_operator(space, *verify.random_word_arrays(rng, space, n, count),
                                     space.L_max - n)
             for n, count in ((0, 3), (1, 2), (2, 4), (1, 1), (3, 2))]
    tuples = [(gens, cut, embeds)] + [(W, W.columns_upto(0), W.adjoint()) for W in words]
    ends = np.cumsum([t[0].n_samples for t in tuples])
    n = ends[-1]
    wholes, sub = [operators.stack(list(ops)) for ops in zip(*tuples)], subtree_sizes(space)
    spans = 0
    for copies in (1, 3):
        sizes = copies * space.dim_N ** 2 * sum(
            np.bincount(op.samples, np.minimum(sub[op.rows], sub[op.cols]), minlength=n)
            for op in wholes)
        built, got = [], []

        def build():
            for t in tuples:
                built.append(t)
                yield t

        # a chunker that stops advancing fails here instead of hanging
        chunks = itertools.islice(verify._chunks(space, build(), copies), n + len(tuples) + 1)
        for sl, ops in chunks:
            got.append(sl)
            size, last = sizes[sl].sum(), int(np.searchsorted(ends, sl.stop - 1, side="right"))
            spans += np.searchsorted(ends, sl.start, side="right") < last
            assert sl.stop - sl.start == 1 or size <= cap
            full = sl.stop == ends[last] and size >= cap
            assert sl.stop == n or full or sizes[sl.start:sl.stop + 1].sum() > cap
            assert len(built) == min(last + 1 + (sl.stop == ends[last] and not full), len(tuples))
            keep = (np.arange(n) >= sl.start) & (np.arange(n) < sl.stop)
            for op, whole in zip(ops, wholes):
                w = select(whole, keep)
                assert op.n_samples == w.n_samples
                for field in ("samples", "rows", "cols", "blocks"):
                    assert np.array_equal(getattr(op, field), getattr(w, field))
                    assert getattr(op, field).dtype == getattr(w, field).dtype
        assert [sl.start for sl in got] == [0] + [sl.stop for sl in got][:-1]
        assert got[-1].stop == n
        assert len(got) == 1 if cap == 10 ** 9 else len(got) > (1 if cap == 4096 else 10)
    # no two samples fit a cap below 500, and at 1000 a range spans tuples
    assert (spans > 0) == (cap >= 1000)


@pytest.mark.parametrize("cap", [1, 1000, 2000, 10 ** 9])
def test_stacks_are_joined_while_they_fit(monkeypatch, cy3_space, cap):
    """``_chunks`` on one-role tuples, words of mixed lengths, joins
    consecutive stacks, in order, while their sizes add up to at most the
    cap: each range is ``stack`` of the stacks it holds whole and of the
    pieces of those it holds in part, it closes at a stack's end only when
    full or when the next stack's first sample would overflow it, and the
    next stack is built only while the range has room."""
    monkeypatch.setattr(verify, "CHUNK_ENTRIES", cap)
    space, rng = cy3_space, np.random.default_rng(48)
    ops = [operators.word_operator(space, *verify.random_word_arrays(rng, space, n, count),
                                   space.L_max - n)
           for n, count in ((0, 3), (1, 2), (2, 4), (1, 1), (3, 2))]
    starts = np.cumsum([0] + [op.n_samples for op in ops])
    n, sub = starts[-1], subtree_sizes(space)
    sizes = space.dim_N ** 2 * np.concatenate([
        np.bincount(op.samples, np.minimum(sub[op.rows], sub[op.cols]), minlength=op.n_samples)
        for op in ops])
    built, stop, two_whole = [], 0, False

    def build():
        for op in ops:
            built.append(op)
            yield (op,)

    for sl, (joined,) in itertools.islice(verify._chunks(space, build()), n + 1):
        assert sl.start == stop and sl.stop > sl.start
        stop, size = sl.stop, sizes[sl].sum()
        assert sl.stop - sl.start == 1 or size <= cap
        held = [k for k in range(len(ops)) if starts[k] < sl.stop and starts[k + 1] > sl.start]
        pieces = []
        for k in held:
            at = np.arange(starts[k], starts[k + 1])
            whole = sl.start <= at[0] and at[-1] < sl.stop
            pieces.append(ops[k] if whole else select(ops[k], (at >= sl.start) & (at < sl.stop)))
        two_whole |= sum(piece is ops[k] for k, piece in zip(held, pieces)) >= 2
        want = operators.stack(pieces)
        assert joined.n_samples == want.n_samples
        for field in ("samples", "rows", "cols", "blocks"):
            assert np.array_equal(getattr(joined, field), getattr(want, field))
        at_end = sl.stop in starts
        if at_end and sl.stop < n:
            assert size >= cap or sizes[sl.start:sl.stop + 1].sum() > cap
        # the next stack is built only if this range had room for it
        room = at_end and size < cap
        assert len(built) == min(held[-1] + 1 + room, len(ops))
    assert stop == n
    # from a cap of 1000 one range holds two stacks whole
    assert two_whole == (cap >= 1000)


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
    check = verify._word_block_rank_check("fock_lambda_span_rank", op, space.dim - 2).checks[0]
    assert (check.status, check.max_residual, check.details) == ("pass", 0.0,
                                                                 {"rank": space.dim - 2})
    # one block off the diagonal: a column of word 2 leaking onto word 0,
    # along the direction word 0's columns miss; word by word it would still
    # look like rank dim - 2, so the check counts the block and fails
    leak = np.zeros((k, k))
    leak[:, 0] = np.linalg.svd(blocks[0])[0][:, -1]
    op = StructuredOperator(space, np.append(words, 0), np.append(words, 2),
                            np.concatenate([blocks, leak[None]]))
    assert dense_rank(op.matrix()[0].T) == space.dim - 1
    check = verify._word_block_rank_check("fock_lambda_span_rank", op, space.dim - 1).checks[0]
    assert (check.status, check.max_residual) == ("fail", 2.0)
    assert check.details == {"rank": space.dim - 2, "off_diagonal_blocks": 1}


def test_word_block_rank_above_its_target_fails(mat2_space):
    # an identity block on every word has rank dim, one above the target
    space, k = mat2_space, mat2_space.dim_N
    words = np.arange(len(space.words))
    op = StructuredOperator(space, words, words, np.broadcast_to(np.eye(k), (words.size, k, k)))
    check = verify._word_block_rank_check("fock_lambda_span_rank", op, space.dim - 1).checks[0]
    assert (check.status, check.max_residual, check.details) == ("fail", 1.0,
                                                                 {"rank": space.dim})


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
