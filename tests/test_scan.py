"""The chunked label-matrix engine against the brute-force oracles."""

import functools

import numpy as np
import pytest

from inacc import ProbabilityVector, bell_number, enumerate_proper_nontrivial
from inacc import _scan

from conftest import random_positive_pair
from oracles import blocks_to_rgs, brute_expectation, brute_jeffrey, brute_proper_partitions


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_chunks_match_object_enumeration(n):
    # the oracle enumerates block families; sorted RGS is the engine's row order
    oracle = sorted(blocks_to_rgs(blocks, n) for blocks in brute_proper_partitions(n))
    rows = np.concatenate(list(_scan.iter_label_chunks(n)), axis=0)
    assert rows.shape == (bell_number(n) - 2, n)
    assert [tuple(row) for row in rows.tolist()] == oracle
    assert [pi.rgs for pi in enumerate_proper_nontrivial(n)] == oracle


#: chunk sizes that cut sibling groups anywhere, down to one row per chunk
SPLITS = (1, 7, 64, _scan.CHUNK_ROWS)
#: the kernels add in another order than the bincount reference below
TOL_REORDER = 1e-15


def block_sums(labels, vec):
    """out[r, b] = sum of vec[i] over i with labels[r, i] == b, one bincount per chunk."""
    rows, n = labels.shape
    idx = labels.astype(np.intp) + (np.arange(rows, dtype=np.intp) * n)[:, None]
    flat = np.bincount(
        idx.ravel(), weights=np.broadcast_to(vec, (rows, n)).ravel(), minlength=rows * n
    )
    return flat.reshape(rows, n)


def block_ratio(labels, pstar, p):
    num, den = block_sums(labels, pstar), block_sums(labels, p)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def bincount_scores(labels, pstar, p, d):
    return np.einsum("ij,ij->i", block_ratio(labels, pstar, p), block_sums(labels, d * p))


def bincount_posteriors(labels, pstar, p):
    return np.take_along_axis(block_ratio(labels, pstar, p), labels.astype(np.intp), axis=1) * p


@functools.lru_cache(maxsize=None)
def oracle_case(n):
    """(p*, p, d, oracle posteriors) for a seeded pair; rows in cached-label order."""
    rng = np.random.default_rng(100 + n)
    p_star, p = random_positive_pair(rng, n)
    d = rng.uniform(-1.0, 1.0, size=n)
    ps, pw = list(p_star.weights), list(p.weights)
    by_rgs = {
        blocks_to_rgs(blocks, n): brute_jeffrey(ps, pw, blocks)
        for blocks in brute_proper_partitions(n)
    }
    rows = [by_rgs[tuple(int(x) for x in row)] for row in _scan.cached_labels(n)]
    return p_star.as_array(), p.as_array(), d, rows


@pytest.mark.parametrize("chunk_rows", [1, 7, 64, 1 << 16])
def test_chunk_splitting_preserves_order(chunk_rows):
    n = 9
    chunks = list(_scan.iter_label_chunks(n, chunk_rows=chunk_rows))
    assert max(chunk.shape[0] for chunk in chunks) <= chunk_rows
    assert np.array_equal(np.concatenate(chunks, axis=0), _scan.cached_labels(n))


def test_block_sums_small_case():
    labels = np.array([[0, 0, 1], [0, 1, 1]], dtype=np.int8)
    vec = np.array([0.5, 0.3, 0.2])
    out = block_sums(labels, vec)
    assert out[0] == pytest.approx([0.8, 0.2, 0.0])
    assert out[1] == pytest.approx([0.5, 0.5, 0.0])
    # the subset table holds the same sums at the blocks' bitmasks
    table = _scan._subset_sums(vec)
    masks, _ = _scan._block_masks(labels, 3)
    assert table[masks].reshape(2, 3) == pytest.approx(out, abs=TOL_REORDER)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_chunk_scores_match_oracle(n):
    pstar, p, d, posteriors = oracle_case(n)
    oracle = np.array([brute_expectation(d, q) for q in posteriors])
    old = bincount_scores(_scan.cached_labels(n), pstar, p, d)
    for chunk_rows in SPLITS:
        scores = np.concatenate([
            _scan.chunk_scores(labels, pstar, p, d)
            for labels in _scan.iter_label_chunks(n, chunk_rows=chunk_rows)
        ])
        assert np.abs(scores - old).max() <= TOL_REORDER
        assert np.abs(scores - oracle).max() <= TOL_REORDER


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_chunk_posteriors_match_oracle(n):
    pstar, p, _, posteriors = oracle_case(n)
    old = bincount_posteriors(_scan.cached_labels(n), pstar, p)
    for chunk_rows in SPLITS:
        q = np.concatenate([
            _scan.chunk_posteriors(labels, pstar, p)
            for labels in _scan.iter_label_chunks(n, chunk_rows=chunk_rows)
        ])
        assert np.abs(q - old).max() <= TOL_REORDER
        assert np.abs(q - np.array(posteriors)).max() <= TOL_REORDER


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_mixture_residual_matches_row_scan(n):
    labels = _scan.cached_labels(n)
    for seed in range(10):
        rng = np.random.default_rng([n, seed])
        p_star, p = random_positive_pair(rng, n)
        pstar, pw = p_star.as_array(), p.as_array()
        eps = float(rng.uniform(0.1, 0.9))
        d = rng.uniform(-1.0, 1.0, size=n)
        d_eps = d - eps * float(d @ pw)
        # the blend, and an unrelated measure whose residuals are large
        for p_eps in ((1.0 - eps) * pstar + eps * pw, rng.dirichlet(np.ones(n))):
            q = bincount_posteriors(labels, pstar, pw)
            q_eps = bincount_posteriors(labels, p_eps, pw)
            mix = float(np.abs(q_eps - ((1.0 - eps) * q + eps * pw)).max())
            expect = float(np.abs(q_eps @ d_eps - (1.0 - eps) * (q @ d)).max())
            count, mix_res, expect_res = _scan.epsilon_scan(n, pstar, pw, p_eps, d, d_eps, eps)
            assert count == labels.shape[0]
            assert abs(mix_res - mix) <= TOL_REORDER
            assert abs(expect_res - expect) <= TOL_REORDER


def test_zero_target_mass_gives_zero_multiplier():
    # p* vanishes on outcomes 2 and 4, as in clamp mode
    pstar = np.array([0.5, 0.0, 0.3, 0.0, 0.2])
    p = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    d = np.array([1.0, -50.0, 0.5, -50.0, -1.0])
    labels = _scan.cached_labels(5)
    q = _scan.chunk_posteriors(labels, pstar, p)
    masks, index = _scan._block_masks(labels, 5)
    target_mass = _scan._subset_sums(pstar)[masks[index]]
    assert (target_mass == 0.0).any()
    assert np.all(q[target_mass == 0.0] == 0.0)
    assert np.abs(q - bincount_posteriors(labels, pstar, p)).max() <= TOL_REORDER
    scores = _scan.chunk_scores(labels, pstar, p, d)
    # rounding scales with the size of the utilities
    assert np.abs(scores - bincount_scores(labels, pstar, p, d)).max() <= TOL_REORDER * 50


@pytest.mark.parametrize(
    "asked, cpus, tasks, used",
    [(1, 2, 16, 1), (2, 2, 16, 2), (8, 2, 64, 2), (10**6, 2, 16, 2), (4, 8, 3, 3), (0, 2, 16, 1)],
)
def test_pool_size_clamps_to_cpus_and_tasks(asked, cpus, tasks, used):
    assert _scan._pool_size(asked, cpus, tasks) == used


def test_streaming_path_equals_cached_path():
    n = 6
    rng = np.random.default_rng(3)
    p_star, p = random_positive_pair(rng, n)
    d = rng.normal(size=n)
    cached = _scan.score_scan(n, p_star.as_array(), p.as_array(), d)
    streamed_chunks = [
        _scan.chunk_scores(labels, p_star.as_array(), p.as_array(), d)
        for labels in _scan.iter_label_chunks(n, chunk_rows=16)
    ]
    streamed = np.concatenate(streamed_chunks)
    assert streamed.size == cached.count
    assert float(streamed.max()) == pytest.approx(cached.max_score, abs=1e-15)
    assert int((streamed <= 1e-9).sum()) == cached.num_le


def test_parallel_scan_agrees_with_serial():
    n = 11  # above the cache threshold so the parallel path engages
    rng = np.random.default_rng(4)
    p_star, p = random_positive_pair(rng, n)
    ps, pw = p_star.as_array(), p.as_array()
    d = rng.normal(size=n)
    serial = _scan.score_scan(n, ps, pw, d, workers=1)
    parallel = _scan.score_scan(n, ps, pw, d, workers=2)
    assert serial.count == bell_number(n) - 2
    assert parallel == serial
    # row scores do not depend on chunk edges, so every reduction is exact
    eps = 0.3
    eps_args = (n, ps, pw, (1 - eps) * ps + eps * pw, d, d - eps * float(d @ pw), eps)
    assert _scan.epsilon_scan(*eps_args, workers=2) == _scan.epsilon_scan(*eps_args, workers=1)
    # p* = p makes every posterior p: one class holding every partition
    classes = _scan.class_scan(n, pw, pw, workers=1)
    assert [count for _, count in classes] == [bell_number(n) - 2]
    assert _scan.class_scan(n, pw, pw, workers=2) == classes


def test_class_scan_counts():
    p = ProbabilityVector.uniform(4)
    classes = _scan.class_scan(4, p.as_array(), p.as_array())
    assert len(classes) == 1
    assert classes[0][1] == bell_number(4) - 2


def test_class_scan_merges_near_duplicates():
    # two posteriors closer than the dedup radius must count as one class
    merged = _scan._merge_within_tolerance(
        {
            b"a": [2, np.array([0.4, 0.4, 0.2])],
            b"b": [3, np.array([0.4, 0.4 + 2e-10, 0.2 - 2e-10])],
            b"c": [1, np.array([0.5, 0.25, 0.25])],
        }
    )
    assert [count for _, count in merged] == [5, 1]
