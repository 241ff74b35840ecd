"""The sampled suites evaluate their checks on stacks of samples, a chunk at
a time, build embeddings from cached word structure and take ranks by word
blocks; each must give the numbers of the per-sample routes it replaced
(``oracles``), whatever the chunk size."""

import json

import numpy as np
import pytest

import radmul.verify as verify
from oracles import embed_by_products, lemma_suite_per_generator
from radmul.cli import main
from radmul.config import preset_config
from radmul.fock import lambda_span
from radmul.report import VerificationReport
from radmul.symbols import GeometricTail, RadialSymbol
from radmul.verify import (embed, embedding_suite, fock_suite, lemma_suite,
                           main_theorem_suite, spanning_check, word_vacuum_images)

EXACT = ["dih_space", "mat2_space", "cy3_space"]


@pytest.fixture(scope="module")
def symbols():
    return [RadialSymbol.delta0(), RadialSymbol.geometric(0.5),
            RadialSymbol(head=(1.0, 0.3j), tail=GeometricTail(0.8 - 0.2j, 0.4 + 0.35j, 0.1))]


def assert_reports_agree(got, want, tol):
    """Same checks, statuses and details, residuals within tol."""
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        assert (g.status, g.details) == (w.status, w.details), g.name
        assert abs(g.max_residual - w.max_residual) <= tol, g.name


@pytest.mark.parametrize("name", EXACT + ["noncomm_space"])
def test_lemma_suite_matches_per_generator_oracle(request, name, symbols):
    space = request.getfixturevalue(name)
    got = lemma_suite(space, symbols, seed=3)
    want = lemma_suite_per_generator(space, symbols, seed=3)
    assert got.to_json() == want.to_json()


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
                assert np.abs(got.matrix() - want.matrix()).max() <= 1e-14


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

    got = run()
    monkeypatch.setattr(verify, "embed", embed_by_products)
    want = run()
    if name in EXACT:
        assert got.to_json() == want.to_json()
    else:
        assert_reports_agree(got, want, 1e-14)


@pytest.mark.parametrize("preset", ["dih", "mat2"])
def test_one_sample_chunks_give_the_same_report(tmp_path, monkeypatch, capsys, preset):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(preset_config(preset)))
    chunks, runs = verify._stacked_chunks, []

    def spy(*args):
        for samples, stacks in chunks(*args):
            runs.append(len(samples))
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


def dense_rank(columns) -> int:
    return int(np.linalg.matrix_rank(np.stack(list(columns), axis=1), tol=1e-10))


@pytest.mark.parametrize("name", EXACT + ["noncomm_space"])
def test_rank_fast_paths_match_dense_rank(request, name):
    space = request.getfixturevalue(name)
    fock = {c.name: c for c in fock_suite(space).checks}["fock_lambda_span_rank"]
    assert fock.details["rank"] == dense_rank(v.to_array() for k in range(space.L_max + 1)
                                              for v in lambda_span(space, k))
    for max_len in range(space.L_max + 1):
        check = spanning_check(space, max_len).checks[0]
        assert check.details["rank"] == dense_rank(word_vacuum_images(space, max_len))


def test_word_block_rank_sums_blocks_and_falls_back_on_leaks(mat2_space):
    space, rng = mat2_space, np.random.default_rng(41)
    k, n = space.dim_N, len(space.words)
    # block diagonal on words, two blocks of rank k - 1
    blocks = rng.standard_normal((n, k, k))
    blocks[[0, 2], :, 0] = blocks[[0, 2], :, 1]
    G = np.zeros((space.dim, space.dim))
    for w in range(n):
        G[w * k:(w + 1) * k, w * k:(w + 1) * k] = blocks[w]
    assert verify._word_block_rank(space, lambda: iter(G.T)) == space.dim - 2
    # a column of word 2 leaking onto word 0, along the direction word 0's
    # columns miss: word by word it still looks like rank dim - 2
    G[:k, 2 * k] = np.linalg.svd(blocks[0])[0][:, -1]
    assert dense_rank(G.T) == space.dim - 1
    assert verify._word_block_rank(space, lambda: iter(G.T)) == space.dim - 1
