"""The chunked label-matrix engine against the brute-force oracles."""

import collections
import functools
import hashlib
import itertools
import os
import platform
import time
import tracemalloc
from collections.abc import Iterator

import numpy as np
import pytest

from inacc import ProbabilityVector, bell_number, enumerate_proper_nontrivial, posterior_classes
from inacc import TOL_NUM, UtilityFunction, _scan, monotonicity, verify_inaccessibility

from conftest import random_positive_pair
from oracles import (
    blocks_to_rgs,
    brute_expectation,
    brute_jeffrey,
    brute_posterior_classes,
    brute_proper_partitions,
)


def all_rows(n):
    """The whole enumeration as one label matrix: the default stream's chunks, concatenated."""
    return np.concatenate(list(_scan.iter_label_chunks(n)), axis=0)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_chunks_match_object_enumeration(n):
    # the oracle enumerates block families; sorted RGS is the engine's row order
    oracle = sorted(blocks_to_rgs(blocks, n) for blocks in brute_proper_partitions(n))
    rows = all_rows(n)
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


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("samples", [1, 2, 8, 37])
def test_sample_axis_is_bitwise_the_single_call(n, samples):
    # a stacked call must not take another summation order: no table entry goes through BLAS
    rng = np.random.default_rng([n, samples])
    pstar = rng.dirichlet(np.ones(n), samples)
    p = rng.dirichlet(np.ones(n), samples)
    d = rng.uniform(-1.0, 1.0, (samples, n))
    pstar[0, 0] = 0.0  # a zero in p*, and a p* no longer normalised
    labels = all_rows(n)[-8192:]  # a contiguous run keeps (S, rows, n) small
    scores = _scan.chunk_scores(labels, _scan._increments(_scan._score_table(pstar, p, d)))
    posteriors = _scan.chunk_posteriors(labels, _scan._ratio_table(pstar, p), p)
    assert scores.shape == (samples, labels.shape[0])
    assert posteriors.shape == (samples, *labels.shape)
    for s in range(samples):
        table, ratio = _scan._score_table(pstar[s], p[s], d[s]), _scan._ratio_table(pstar[s], p[s])
        assert np.array_equal(scores[s], _scan.chunk_scores(labels, _scan._increments(table)))
        assert np.array_equal(posteriors[s], _scan.chunk_posteriors(labels, ratio, p[s]))


def assert_batched_scan_is_each_single_scan(n, samples, workers):
    rng = np.random.default_rng([n, samples, workers])
    pstar = rng.dirichlet(np.ones(n), samples)
    p = rng.dirichlet(np.ones(n), samples)
    d = rng.uniform(-1.0, 1.0, (samples, n))
    d[1:2] = 0.0  # the second sample scores exactly 0.0 everywhere: all ties
    batched = _scan.score_scan(n, _scan._score_table(pstar, p, d), workers=workers)
    assert batched.count == bell_number(n) - 2
    for field in ("max_score", "min_score", "argmax_rgs", "num_le"):
        assert len(getattr(batched, field)) == samples
    for s in range(samples):
        single = _scan.score_scan(n, _scan._score_table(pstar[s], p[s], d[s]), workers=workers)
        assert single == _scan.ScoreScan(
            batched.count,
            batched.max_score[s],
            batched.min_score[s],
            batched.argmax_rgs[s],
            batched.num_le[s],
        )


@pytest.mark.parametrize("samples", [1, 2, 8])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_batched_score_scan_is_each_single_scan(n, samples):
    assert_batched_scan_is_each_single_scan(n, samples, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("samples", [1, 2, 8])
def test_batched_score_scan_streams_and_pools_like_single_scans(samples, workers):
    # n = 11 streams several chunks, and with two workers merges pool parts
    assert_batched_scan_is_each_single_scan(11, samples, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_exact_ties_keep_the_first_witness(workers):
    # d = 0 scores every partition exactly 0.0, so every chunk and every pool
    # part ties at the max; the ordered merge keeps the first row overall
    n = 11
    p_star, p = random_positive_pair(np.random.default_rng(11), n)
    table = _scan._score_table(p_star.as_array(), p.as_array(), np.zeros(n))
    scan = _scan.score_scan(n, table, workers=workers)
    assert scan.argmax_rgs == (0,) * (n - 1) + (1,)
    assert scan.max_score == scan.min_score == 0.0
    assert scan.num_le == scan.count == bell_number(n) - 2
    assert _scan._verdicts(scan.max_score) == (True, False)


def decision_batch(rng, n, pstar, p):
    """Random, tied, constant and zero d's for one pair, stacked (S, n).

    Three of them shift a random d so that its max lands on 0 and on
    +-TOL_NUM, up to rounding: the ties the verdicts must agree on.
    """
    d = rng.uniform(-1.0, 1.0, n)
    top = _scan.score_scan(n, _scan._score_table(pstar, p, d)).max_score
    return np.array([
        d,
        d - top,
        d - top - TOL_NUM,
        d - top + TOL_NUM,
        rng.choice([-1.0, 0.0, 1.0], n),  # tied values
        np.full(n, -0.5),
        np.full(n, 0.5),
        np.full(n, TOL_NUM),
        np.zeros(n),
    ])


@pytest.mark.parametrize("n, workers", [(n, 1) for n in range(3, 9)] + [(11, 1), (11, 2)])
def test_verdicts_from_the_max_are_the_counted_verdicts(n, workers):
    # n <= 8 scans one chunk; n = 11 streams several, and with two workers merges
    # pool parts
    rng = np.random.default_rng([n, workers, 12])
    p_star, p = random_positive_pair(rng, n)
    ps, pw = p_star.as_array(), p.as_array()
    d = decision_batch(rng, n, ps, pw)
    pstar_s, p_s = np.tile(ps, (len(d), 1)), np.tile(pw, (len(d), 1))
    table = _scan._score_table(pstar_s, p_s, d)
    rows = np.concatenate([scores for _, scores in _scan.iter_scored_chunks(n, table)], axis=-1)
    count = rows.shape[-1]
    counted = ((rows <= TOL_NUM).sum(axis=-1) == count, (rows < -TOL_NUM).sum(axis=-1) == count)
    batched = _scan.score_scan(n, _scan._score_table(pstar_s, p_s, d), workers=workers)
    inaccessible, strong = _scan._verdicts(np.array(batched.max_score))
    assert inaccessible.tolist() == counted[0].tolist()
    assert strong.tolist() == counted[1].tolist()
    for s in range(len(d)):
        single = _scan.score_scan(n, _scan._score_table(ps, pw, d[s]), workers=workers)
        assert _scan._verdicts(single.max_score) == (counted[0][s], counted[1][s])
    assert counted[0].any() and not counted[0].all()
    assert counted[1].any() and not counted[1].all()


def same_table(a, b):
    """Two class tables hold the same records, bit for bit."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_stacked_class_scan_equals_each_one_pair_scan(n):
    rng = np.random.default_rng(30 + n)
    p = rng.dirichlet(np.ones(n), 5)
    pstar = rng.dirichlet(np.full(n, 0.05), 5)  # alpha = 0.05, zeros in p*: shared posteriors
    pstar[1] = p[1]  # every partition in one class
    pstar[2] = rng.dirichlet(np.ones(n))  # generic: one class per partition
    stacked = _scan.class_scan(n, _scan._ratio_table(pstar, p), p)
    sample = stacked["posterior"][:, 0]
    assert np.array_equal(sample, np.sort(sample))  # lexicographic: samples in order
    for s in range(5):
        single = _scan.class_scan(n, _scan._ratio_table(pstar[s], p[s]), p[s])
        mine = stacked[sample == s]
        assert mine["posterior"][:, 1:].tobytes() == single["posterior"].tobytes()
        assert mine["multiplicity"].tolist() == single["multiplicity"].tolist()
    largest = [stacked["multiplicity"][sample == s].max() for s in range(5)]
    assert largest[1] == bell_number(n) - 2 and largest[2] == 1
    assert max(largest[0], *largest[3:]) > 1  # a collision outside the constructed samples


@functools.lru_cache(maxsize=None)
def oracle_case(n):
    """(p*, p, d, oracle posteriors) for a seeded pair; rows in enumeration order."""
    rng = np.random.default_rng(100 + n)
    p_star, p = random_positive_pair(rng, n)
    d = rng.uniform(-1.0, 1.0, size=n)
    ps, pw = list(p_star.weights), list(p.weights)
    by_rgs = {
        blocks_to_rgs(blocks, n): brute_jeffrey(ps, pw, blocks)
        for blocks in brute_proper_partitions(n)
    }
    rows = [by_rgs[tuple(int(x) for x in row)] for row in all_rows(n)]
    return p_star.as_array(), p.as_array(), d, rows


@pytest.mark.parametrize("chunk_rows", [1, 7, 64, 1 << 16])
def test_chunk_splitting_preserves_order(chunk_rows):
    n = 9
    chunks = list(_scan.iter_label_chunks(n, chunk_rows=chunk_rows))
    assert max(chunk.shape[0] for chunk in chunks) <= chunk_rows
    assert np.array_equal(np.concatenate(chunks, axis=0), all_rows(n))


def grown_rows(n, prefix, maxes):
    """The proper non-trivial rows below the prefixes, grown one label at a time."""
    while prefix.shape[1] < n:
        prefix, maxes = _scan._grow(prefix, maxes)
    return prefix[(maxes >= 1) & (maxes <= n - 2)]


def sampled_prefixes(n, depth, rng, count=3, rows=1 << 16):
    """Random RGS prefixes of the given depth, at most `rows` rows below each, with their maxima."""
    below = _scan._completions(n)[n - depth]
    found = []
    for _ in range(10_000):
        labels = [0]
        for _ in range(depth - 1):
            labels.append(int(rng.integers(0, max(labels) + 2)))
        if below[max(labels)] <= rows:
            found.append(labels)
        if len(found) == count:
            break
    prefix = np.array(found, dtype=np.int8)
    return prefix, prefix.max(axis=1)


@pytest.mark.parametrize(
    "n, depth",
    # default tails start at depth n - 4 (n = 13, 14) and n - 3 (n = 16, 17); they cross
    # from word 0 into word 1 at n = 11 (bytes 6..10) and from word 1 into 2 at n = 17
    [(11, 4), (11, 6), (13, 6), (13, 7), (13, 9), (13, 11), (14, 7), (14, 8),
     (14, 12), (16, 9), (16, 12), (16, 14), (17, 12), (17, 15)],
)
def test_packed_rows_are_the_grown_rows(n, depth):
    parents, parent_maxes = sampled_prefixes(n, depth - 1, np.random.default_rng([n, depth]))
    assert parents.shape[0] == 3
    # every child of three sampled parents: runs of neighbours, and single prefixes
    prefix, maxes = _scan._grow(parents, parent_maxes)
    runs = [(prefix, maxes), (prefix[:1], maxes[:1]), (prefix[-1:], maxes[-1:])]
    # the all-zero and identity prefixes, whose tables drop the trivial rows
    below = _scan._completions(n)[n - depth]
    for ends in (np.zeros(depth, dtype=np.int8), np.arange(depth, dtype=np.int8)):
        if below[ends.max()] <= 1 << 17:
            runs.append((ends[None, :], ends.max(keepdims=True)))
    for run in runs:
        expect = grown_rows(n, *run)
        for chunk_rows in (1, 7, 4096, _scan.CHUNK_ROWS):
            chunks = list(_scan.iter_label_chunks(n, chunk_rows, *run))
            assert max((c.shape[0] for c in chunks), default=0) <= chunk_rows
            got = np.concatenate(chunks) if chunks else np.zeros((0, n), dtype=np.int8)
            assert np.array_equal(got, expect), (run[0][:1], chunk_rows)


@pytest.mark.parametrize("n", [20, 30, 100])
def test_first_partitions_at_large_n_are_cheap(n):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        first = list(itertools.islice(enumerate_proper_nontrivial(n), 5))
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [pi.rgs for pi in first] == sorted(pi.rgs for pi in first)
    assert first[0].rgs == (0,) * (n - 1) + (1,)
    assert seconds < 1.0
    assert peak < 64 << 20


def test_completions_saturate_past_int64():
    assert _scan._completions(25)[24, 0] == bell_number(25)
    assert _scan._completions(26)[25, 0] == np.iinfo(np.int64).max
    assert _scan._completions(30)[1, :29].tolist() == [m + 2 for m in range(29)]


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_partitions_hold_one_slice_as_lists():
    # the 21,146-row first chunk at n = 100, turned into lists at once, peaked at 21 MB
    peak = traced_peak(lambda: list(itertools.islice(enumerate_proper_nontrivial(100), 5)))
    assert peak < 8 << 20


def test_a_scan_holds_about_one_chunk():
    n = 11
    rng = np.random.default_rng(23)
    p_star, p = random_positive_pair(rng, n)
    args = (n, _scan._score_table(p_star.as_array(), p.as_array(), rng.normal(size=n)))
    assert traced_peak(lambda: collections.deque(_scan.iter_label_chunks(n), 0)) < 6 << 20
    assert traced_peak(lambda: _scan.score_scan(*args)) < 12 << 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_a_warm_scan_faults_no_pages_in():
    import resource  # POSIX only, like glibc

    n = 11
    rng = np.random.default_rng(29)
    p_star, p = random_positive_pair(rng, n)
    args = (n, _scan._score_table(p_star.as_array(), p.as_array(), rng.normal(size=n)))
    assert _scan._set_heap_policy()
    _scan.score_scan(*args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _scan.score_scan(*args)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


def test_heap_policy_is_quiet_without_mallopt(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(_scan.ctypes, "CDLL", no_library)
    assert _scan._set_heap_policy() is False
    monkeypatch.setattr(_scan.ctypes, "CDLL", lambda name: object())
    assert _scan._set_heap_policy() is False


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


@pytest.mark.parametrize("n", [3, 7, 12])
def test_subset_sums_add_left_to_right_in_outcome_order(n):
    # the fixed order a rounding bound can be derived from: ((v_a + v_b) + v_c) + ..., a < b < c
    vecs = np.random.default_rng(n).normal(size=(2, n)) * np.logspace(0, 12, n)
    table = _scan._subset_sums(vecs)
    for s in range(1 << n):
        total = np.zeros(2)
        for i in range(n):
            if s >> i & 1:
                total = total + vecs[:, i]
        assert table[:, s].tobytes() == total.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_chunk_scores_match_oracle(n):
    pstar, p, d, posteriors = oracle_case(n)
    oracle = np.array([brute_expectation(d, q) for q in posteriors])
    old = bincount_scores(all_rows(n), pstar, p, d)
    delta = _scan._increments(_scan._score_table(pstar, p, d))
    for chunk_rows in SPLITS:
        scores = np.concatenate([
            _scan.chunk_scores(labels, delta)
            for labels in _scan.iter_label_chunks(n, chunk_rows=chunk_rows)
        ])
        assert np.abs(scores - old).max() <= TOL_REORDER
        assert np.abs(scores - oracle).max() <= TOL_REORDER


def group_heads(labels):
    """The rows where a sibling group starts: the last label does not increase."""
    last = labels[:, -1]
    return np.flatnonzero(np.append(True, last[1:] <= last[:-1]))


def contiguous_runs(n, rows, per_chunk=4):
    """Every chunk of at most `rows` rows up to n = 8; above, every full chunk and
    `per_chunk` runs of `rows` rows at random offsets in each (any contiguous run of
    the enumeration is a valid chunk)."""
    if n <= 8:
        yield from _scan.iter_label_chunks(n, rows)
        return
    rng = np.random.default_rng([n, rows])
    for labels in _scan.iter_label_chunks(n):
        if rows >= labels.shape[0]:
            yield labels
            continue
        for start in rng.integers(0, labels.shape[0] - rows + 1, per_chunk):
            yield labels[start : start + rows]


def carry_scores(labels, table):
    """The scores chunk_scores must equal bit for bit: each row's carry on its own.

    Per row, s starts at 0 and each label in turn takes s = s + Delta[new], with old
    the mask so far of the block the label joins (0 for a new block) and new that
    mask with the label's outcome i added.  Outcome i is the highest in new, so
    Delta[new] = W[new] - W[old], taken here from W itself, not from _increments.
    No row reads another's partial total; the loop runs over the labels, for all rows
    (and samples of a stacked W) at once."""
    rows, n = labels.shape
    row = np.arange(rows)
    masks = np.zeros((rows, n), dtype=np.intp)
    s = np.zeros((*table.shape[:-1], rows))
    for i in range(n):
        old = masks[row, labels[:, i]]
        new = old | (1 << i)
        masks[row, labels[:, i]] = new
        s = s + (table.take(new, axis=-1) - table.take(old, axis=-1))
    return s


def carry_tables(n, seed):
    """A (3, 2^n) stacked score table with a zero in p* and a zero d, and its three rows."""
    rng = np.random.default_rng([seed, n])
    pstar = rng.dirichlet(np.ones(n), 3)
    p = rng.dirichlet(np.ones(n), 3)
    d = rng.uniform(-1.0, 1.0, (3, n))
    pstar[1, 0] = 0.0  # a zero in p*
    d[2] = 0.0
    stacked = _scan._score_table(pstar, p, d)
    return stacked, [_scan._score_table(pstar[s], p[s], d[s]) for s in range(3)]


def assert_prefix_masks_and_totals(labels, tables):
    n = labels.shape[1]
    heads = group_heads(labels)
    expect, _ = _scan._block_masks(labels[heads, :-1], n)
    for table in tables:
        masks, totals = _scan._prefix_totals(labels, heads, n - 1, _scan._increments(table))
        assert np.array_equal(masks, expect)
        assert totals.tobytes() == carry_scores(labels[heads, :-1], table).tobytes()


@pytest.mark.parametrize("base", [0, _scan._MASK_BASE])
@pytest.mark.parametrize("n", range(3, 13))
def test_prefix_masks_are_the_bincount_masks(n, base, monkeypatch):
    # base 0 builds every level from its parent, down to the one-label prefix
    monkeypatch.setattr(_scan, "_MASK_BASE", base)
    stacked, singles = carry_tables(n, 5)
    for chunk_rows in SPLITS:
        for labels in contiguous_runs(n, chunk_rows):
            assert_prefix_masks_and_totals(labels, (stacked, singles[0]))


@pytest.mark.parametrize("runs", [2, 3, 4])
@pytest.mark.parametrize("n", [11, 12, 13])
def test_prefix_masks_where_pool_runs_start(n, runs, monkeypatch):
    # a later run starts at a frontier prefix with some label k > 0, so the run before
    # holds the first siblings of its k-label prefix: that level starts mid-group
    prefix, maxes, bounds = _scan._frontier(n, runs)
    assert (prefix[bounds[1:-1]] > 0).any(axis=1).all()
    stacked, singles = carry_tables(n, 5)
    for base in (0, _scan._MASK_BASE):
        monkeypatch.setattr(_scan, "_MASK_BASE", base)
        for a, b in zip(bounds[:-1], bounds[1:]):
            for chunk_rows in SPLITS:
                chunks = _scan.iter_label_chunks(n, chunk_rows, prefix[a:b], maxes[a:b])
                for labels in itertools.islice(chunks, 2):
                    assert_prefix_masks_and_totals(labels, (stacked, singles[0]))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 11])
def test_chunk_scores_are_bitwise_the_carry(n):
    stacked, singles = carry_tables(n, 7)
    for chunk_rows in SPLITS:
        for labels in itertools.islice(contiguous_runs(n, chunk_rows), 64):
            for table in (*singles, stacked):
                got = _scan.chunk_scores(labels, _scan._increments(table))
                assert got.tobytes() == carry_scores(labels, table).tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_increments_sum_back_to_the_table(n):
    stacked, singles = carry_tables(n, 11)
    for table in singles:
        delta = _scan._increments(table)
        assert delta[0] == 0.0
        # walk each subset's chain S, S without its top outcome, ..., {} from the top bit down
        chain, total = np.arange(1 << n), np.zeros(1 << n)
        for i in reversed(range(n)):
            has = (chain >> i) & 1 == 1
            total[has] += delta[chain[has]]
            chain[has] ^= 1 << i
        assert np.abs(total - table).max() <= 4 * n * np.finfo(float).eps * np.abs(table).max()
    delta = _scan._increments(stacked)
    for s, table in enumerate(singles):
        assert delta[s].tobytes() == _scan._increments(table).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_each_scan_builds_its_tables_once_in_the_caller(workers, monkeypatch):
    # n = 11 streams several chunks, and with two workers hands them to a fork pool
    n = 11
    assert sum(1 for _ in _scan.iter_label_chunks(n)) > 1
    rng = np.random.default_rng(37)
    p_star, p = random_positive_pair(rng, n)
    ps, pw = p_star.as_array(), p.as_array()
    d = rng.uniform(-1.0, 1.0, n)
    eps = 0.3
    here = os.getpid()
    built = collections.Counter()

    def counted(build):
        def wrapper(*args):
            assert os.getpid() == here, f"{build.__name__} ran in a pool process"
            built[build.__name__] += 1
            return build(*args)

        return wrapper

    for name in ("_score_table", "_ratio_table", "_increments"):
        monkeypatch.setattr(_scan, name, counted(getattr(_scan, name)))

    def tables(scan):
        """The tables one call builds; a generator scan is read to its end."""
        built.clear()
        result = scan()
        if isinstance(result, Iterator):
            collections.deque(result, 0)
        return dict(built)

    # each score pass turns its one W into increments once, here, not per chunk or worker
    utility = UtilityFunction(d)
    verify = functools.partial(verify_inaccessibility, p_star, p, utility, workers=workers)
    assert tables(verify) == {"_score_table": 1, "_increments": 1}
    # a scan given its table builds only its increments, and a class scan nothing
    table, ratio = _scan._score_table(ps, pw, d), _scan._ratio_table(pw, pw)
    assert tables(lambda: _scan.iter_scored_chunks(n, table)) == {"_increments": 1}
    # p* = p: one class, so the merge stays small
    assert tables(lambda: _scan.class_scan(n, ratio, pw, workers=workers)) == {}
    assert tables(lambda: posterior_classes(p, p, workers=workers)) == {"_ratio_table": 1}
    # W of the blend and of the original, subtracted into one table; the mixture
    # residual reads one R of each
    eps_check = functools.partial(
        monotonicity.epsilon_mixture_check, p_star, p, utility, eps, workers=workers
    )
    assert tables(eps_check) == {"_score_table": 2, "_ratio_table": 2, "_increments": 1}
    # the sweep answers 300 samples at n = 8 in batches of 15, and two batches run a
    # class pass: each batch's one R serves certify_singletons and its class pass alike
    batches = -(-300 // (_scan.CHUNK_ROWS // (bell_number(8) - 2)))
    class_scan, passes = _scan.class_scan, []

    def counted_pass(*args):
        passes.append(args)
        return class_scan(*args)

    monkeypatch.setattr(_scan, "class_scan", counted_pass)
    sweep = tables(lambda: monotonicity.sweep(n=8, samples=300, seed=0))
    assert len(passes) == 2
    assert sweep == {"_score_table": batches, "_ratio_table": batches, "_increments": batches}


def test_batched_sweep_equals_one_sample_batches(monkeypatch):
    args = dict(n=4, samples=50, seed=1204, dirichlet_alpha=0.3)
    batched = monotonicity.sweep(**args)
    # one sample per batch: every batch's score table is new
    monkeypatch.setattr(monotonicity, "proper_nontrivial_count", lambda n: _scan.CHUNK_ROWS + 1)
    assert monotonicity.sweep(**args) == batched


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_chunk_posteriors_match_oracle(n):
    pstar, p, _, posteriors = oracle_case(n)
    old = bincount_posteriors(all_rows(n), pstar, p)
    ratio = _scan._ratio_table(pstar, p)
    for chunk_rows in SPLITS:
        q = np.concatenate([
            _scan.chunk_posteriors(labels, ratio, p)
            for labels in _scan.iter_label_chunks(n, chunk_rows=chunk_rows)
        ])
        assert np.abs(q - old).max() <= TOL_REORDER
        assert np.abs(q - np.array(posteriors)).max() <= TOL_REORDER


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_mixture_residual_matches_row_scan(n):
    labels = all_rows(n)
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
            # a score is linear in its table: one scan of the difference table
            table = _scan._score_table(p_eps, pw, d_eps)
            table -= (1.0 - eps) * _scan._score_table(pstar, pw, d)
            scan = _scan.score_scan(n, table)
            assert scan.count == labels.shape[0]
            ratios = _scan._ratio_table(pstar, pw), _scan._ratio_table(p_eps, pw)
            mix_res = _scan._mixture_residual(*ratios, pw, eps)
            assert abs(mix_res - mix) <= TOL_REORDER
            assert abs(max(abs(scan.max_score), abs(scan.min_score)) - expect) <= TOL_REORDER


def subset_member_residual(ratio, ratio_eps, p, eps):
    """The mixture residual over a boolean mask of (nonempty proper subset, member) pairs."""
    n = p.size
    proper = slice(1, (1 << n) - 1)
    member = (np.arange(1 << n)[proper, None] >> np.arange(n)) & 1 == 1
    q, q_eps = ratio[proper, None] * p, ratio_eps[proper, None] * p
    return float(np.abs(q_eps - ((1.0 - eps) * q + eps * p))[member].max())


@pytest.mark.parametrize("n", range(3, 14))
def test_mixture_residual_is_bitwise_the_membership_formula(n):
    for seed in range(20):
        rng = np.random.default_rng([n, seed, 41])
        pstar, p = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        if seed % 3 == 0:  # zeros in p*, so R and R_eps have zeros
            pstar[rng.choice(n, n // 2, replace=False)] = 0.0
            pstar /= pstar.sum()
        eps = float(rng.uniform(0.05, 0.95))
        # the blend, and an unrelated measure whose residual is large
        for p_eps in ((1.0 - eps) * pstar + eps * p, rng.dirichlet(np.ones(n))):
            ratios = _scan._ratio_table(pstar, p), _scan._ratio_table(p_eps, p)
            got = _scan._mixture_residual(*ratios, p, eps)
            assert got == subset_member_residual(*ratios, p, eps)


def test_zero_target_mass_gives_zero_multiplier():
    # p* vanishes on outcomes 2 and 4, as in clamp mode
    pstar = np.array([0.5, 0.0, 0.3, 0.0, 0.2])
    p = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    d = np.array([1.0, -50.0, 0.5, -50.0, -1.0])
    labels = all_rows(5)
    q = _scan.chunk_posteriors(labels, _scan._ratio_table(pstar, p), p)
    masks, index = _scan._block_masks(labels, 5)
    target_mass = _scan._subset_sums(pstar)[masks[index]]
    assert (target_mass == 0.0).any()
    assert np.all(q[target_mass == 0.0] == 0.0)
    assert np.abs(q - bincount_posteriors(labels, pstar, p)).max() <= TOL_REORDER
    scores = _scan.chunk_scores(labels, _scan._increments(_scan._score_table(pstar, p, d)))
    # rounding scales with the size of the utilities
    assert np.abs(scores - bincount_scores(labels, pstar, p, d)).max() <= TOL_REORDER * 50


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_asks_for_no_more_processes_than_cpus(monkeypatch):
    n = 11  # Bell(11) = 678,570 rows: at least a chunk for each of 2 or 3 runs
    rng = np.random.default_rng(41)
    p_star, p = random_positive_pair(rng, n)
    table = _scan._score_table(p_star.as_array(), p.as_array(), rng.normal(size=n))
    serial = _scan.score_scan(n, table, workers=1)
    real_fork = os.fork
    forked = []

    def counting_fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(_scan.os, "fork", counting_fork)
    # (asked, usable CPUs, forks): one or no worker forks nothing, else min(asked, CPUs)
    for asked, cpus, forks in [(0, 2, 0), (1, 2, 0), (2, 2, 2), (8, 2, 2), (10**6, 2, 2),
                               (2, 3, 2), (10**6, 3, 3)]:
        monkeypatch.setattr(_scan.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forked.clear()
        assert _scan.score_scan(n, table, workers=asked) == serial
        assert len(forked) == forks, (asked, cpus)
        assert_no_child_left()


def first_run(task):
    """True for the run that starts the enumeration: its first prefix is all zeros."""
    return not task[0][0].any()


def fail_first_run(task):
    if first_run(task):
        raise ValueError("the first run failed")
    time.sleep(60)


def kill_first_run(task):
    if first_run(task):
        os._exit(3)
    time.sleep(60)


@pytest.mark.parametrize(
    "worker, error, message",
    [
        (fail_first_run, ValueError, "^the first run failed$"),
        (kill_first_run, RuntimeError, r"run 0 of 2 ended without a result \(exit status 3\)"),
    ],
)
def test_a_failed_run_raises_at_once_and_leaves_no_child(monkeypatch, worker, error, message):
    # the other run would sleep for a minute: it is killed, not waited for
    monkeypatch.setattr(_scan.os, "sched_getaffinity", lambda pid: {0, 1})
    start = time.perf_counter()
    with pytest.raises(error, match=message):
        _scan._parallel_map(worker, (), 11, 2, _scan.CHUNK_ROWS)
    assert time.perf_counter() - start < 30.0
    assert_no_child_left()


def subtree_sizes(n, prefix, maxes):
    return _scan._completions(n)[n - prefix.shape[1], maxes]


@pytest.mark.parametrize("n", range(1, 16))
def test_subtree_count_at_the_root_is_bell(n):
    root = np.zeros((1, 1), dtype=np.int8)
    assert subtree_sizes(n, root, np.zeros(1, dtype=np.int8)).tolist() == [bell_number(n)]


@pytest.mark.parametrize("n", range(5, 12))
def test_subtree_count_is_the_rows_below_each_prefix(n):
    prefix, maxes, _ = _scan._frontier(n, 2)
    depth = prefix.shape[1]
    for k, size in enumerate(subtree_sizes(n, prefix, maxes).tolist()):
        below = _scan.iter_label_chunks(n, prefix=prefix[k : k + 1], maxes=maxes[k : k + 1])
        rows = sum(chunk.shape[0] for chunk in below)
        # the coarsest partition sits below the all-zero prefix, the finest below 0, 1, .., depth-1
        trivial = int(maxes[k] == 0) + int(maxes[k] == depth - 1)
        assert size == rows + trivial


@pytest.mark.parametrize("n", [11, 12, 13])
@pytest.mark.parametrize("runs", range(1, 9))
def test_runs_are_contiguous_with_equal_rows(n, runs):
    prefix, maxes, bounds = _scan._frontier(n, runs)
    assert bounds.tolist()[0] == 0 and bounds.tolist()[-1] == prefix.shape[0]
    assert bounds.size == runs + 1 and (np.diff(bounds) > 0).all()
    # the frontier is the lexicographically ordered list of every prefix of its depth
    assert prefix.shape[0] == bell_number(prefix.shape[1])
    assert [tuple(r) for r in prefix.tolist()] == sorted(map(tuple, prefix.tolist()))
    rows = np.add.reduceat(subtree_sizes(n, prefix, maxes), bounds[:-1])
    assert rows.sum() == bell_number(n)
    assert np.abs(rows / rows.mean() - 1.0).max() <= 0.05


def test_runs_chain_into_the_enumeration():
    n = 11
    prefix, maxes, bounds = _scan._frontier(n, 3)
    chained = [
        chunk
        for a, b in zip(bounds[:-1], bounds[1:])
        for chunk in _scan.iter_label_chunks(n, prefix=prefix[a:b], maxes=maxes[a:b])
    ]
    assert np.array_equal(np.concatenate(chained), all_rows(n))


def no_pool(*_):
    raise AssertionError("an in-process scan reached the fork pool")


def test_one_usable_cpu_scans_in_process(monkeypatch):
    n = 11
    rng = np.random.default_rng(17)
    p_star, p = random_positive_pair(rng, n)
    args = (n, _scan._score_table(p_star.as_array(), p.as_array(), rng.normal(size=n)))
    serial = _scan.score_scan(*args, workers=1)
    monkeypatch.setattr(_scan.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(_scan, "_parallel_map", no_pool)
    assert _scan.score_scan(*args, workers=4) == serial


def test_no_fork_scans_in_process(monkeypatch):
    n = 11
    rng = np.random.default_rng(18)
    p_star, p = random_positive_pair(rng, n)
    args = (n, _scan._score_table(p_star.as_array(), p.as_array(), rng.normal(size=n)))
    serial = _scan.score_scan(*args, workers=1)
    monkeypatch.setattr(_scan.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(_scan.os, "fork")
    monkeypatch.setattr(_scan, "_parallel_map", no_pool)
    assert _scan.score_scan(*args, workers=2) == serial


def no_affinity(pid):
    raise AssertionError("a serial scan asked for the usable CPUs")


@pytest.mark.parametrize(
    "n, cpus",
    [
        (10, 2),  # Bell(10) = 115,975 rows: less than a chunk for each of 2 runs
        (11, 11),  # Bell(11) = 678,570 rows: less than a chunk for each of 11 runs
    ],
)
def test_scans_stay_in_process_below_a_chunk_per_run(monkeypatch, n, cpus):
    # no process starts: a scan that would reach the pool fails instead
    rng = np.random.default_rng([17, n])
    p_star, p = random_positive_pair(rng, n)
    args = (n, _scan._score_table(p_star.as_array(), p.as_array(), rng.normal(size=n)))
    monkeypatch.setattr(_scan.os, "sched_getaffinity", no_affinity)
    serial = _scan.score_scan(*args, workers=1)
    monkeypatch.setattr(_scan.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(_scan, "_parallel_map", no_pool)
    assert _scan.score_scan(*args, workers=cpus) == serial


@pytest.mark.parametrize("n", [6, 9, 10])
def test_scores_do_not_depend_on_chunk_edges(n):
    rng = np.random.default_rng([3, n])
    p_star, p = random_positive_pair(rng, n)
    table = _scan._score_table(p_star.as_array(), p.as_array(), rng.normal(size=n))
    delta = _scan._increments(table)
    whole = _scan.chunk_scores(all_rows(n), delta)
    # one row per chunk takes seconds at n >= 9
    for chunk_rows in (1, 7, 16, 4096) if n == 6 else (7, 16, 4096):
        streamed = np.concatenate([
            _scan.chunk_scores(labels, delta)
            for labels in _scan.iter_label_chunks(n, chunk_rows=chunk_rows)
        ])
        assert streamed.tobytes() == whole.tobytes()
    scan = _scan.score_scan(n, table)
    assert whole.size == scan.count
    assert whole.max() == scan.max_score and whole.min() == scan.min_score
    assert int(_scan._non_positive(whole).sum()) == scan.num_le


def test_parallel_scan_agrees_with_serial():
    n = 11  # Bell(11) rows give each of two runs more than a chunk, so the pool engages
    rng = np.random.default_rng(4)
    p_star, p = random_positive_pair(rng, n)
    ps, pw = p_star.as_array(), p.as_array()
    d = rng.normal(size=n)
    table = _scan._score_table(ps, pw, d)
    serial = _scan.score_scan(n, table, workers=1)
    parallel = _scan.score_scan(n, table, workers=2)
    assert serial.count == bell_number(n) - 2
    assert parallel == serial
    # row scores do not depend on chunk edges, so every reduction is exact
    utility = UtilityFunction(d)
    eps_serial = monotonicity.epsilon_mixture_check(p_star, p, utility, 0.3, workers=1)
    assert monotonicity.epsilon_mixture_check(p_star, p, utility, 0.3, workers=2) == eps_serial
    # p* = p makes every posterior p: one class holding every partition
    ratio = _scan._ratio_table(pw, pw)
    classes = _scan.class_scan(n, ratio, pw, workers=1)
    assert classes["multiplicity"].tolist() == [bell_number(n) - 2]
    assert same_table(_scan.class_scan(n, ratio, pw, workers=2), classes)
    assert_no_child_left()


def test_pooled_class_scan_merges_classes_across_runs():
    n = 11
    # a tied pair: p is uniform and p*/p takes two values, which gives 1,023 classes
    p = np.full(n, 1.0 / n)
    ratio = np.ones(n)
    ratio[0] = 2.0
    pstar = p * ratio / (p * ratio).sum()
    # some buckets hold rows of both runs that a pool of two processes gets
    prefix, maxes, bounds = _scan._frontier(n, 2)
    table = _scan._ratio_table(pstar, p)

    def bucket_keys(a, b):
        task = (prefix[a:b], maxes[a:b], n, _scan.CHUNK_ROWS, table, p)
        parts = _scan._class_worker(task)
        return {key.tobytes() for reps, _ in parts for key in np.round(reps, 12) + 0.0}

    assert bucket_keys(bounds[0], bounds[1]) & bucket_keys(bounds[1], bounds[2])
    classes = _scan.class_scan(n, table, p, workers=1)
    assert len(classes) == 1023
    assert same_table(_scan.class_scan(n, table, p, workers=2), classes)


def test_class_scan_counts():
    p = ProbabilityVector.uniform(4).as_array()
    classes = _scan.class_scan(4, _scan._ratio_table(p, p), p)
    assert len(classes) == 1
    assert classes[0][1] == bell_number(4) - 2


def test_class_scan_merges_near_duplicates():
    # two posteriors closer than the dedup radius must count as one class
    reps = np.array([[0.4, 0.4, 0.2], [0.4, 0.4 + 2e-10, 0.2 - 2e-10], [0.5, 0.25, 0.25]])
    merged = _scan._merge_within_tolerance([(reps, np.array([2, 3, 1]))])
    assert [count for _, count in merged] == [5, 1]


@pytest.mark.parametrize("chunk_rows", [1, _scan.CHUNK_ROWS])
def test_class_scan_links_chains(chunk_rows):
    # a~b and b~c join a and c, although a and c are 1.6e-9 apart
    step = np.array([0.0, 8e-10, -8e-10])
    a = np.array([0.4, 0.4, 0.2])
    reps = np.array([a, a + step, a + 2 * step])
    # a's bucket is in both parts and keeps the representative of the first
    parts = [(reps[:2], np.array([2, 3])), (reps[::2] + 1e-13, np.array([4, 1]))]
    merged = _scan._merge_within_tolerance(parts, chunk_rows)
    assert merged["posterior"].tolist() == [a.tolist()]
    assert merged["multiplicity"].tolist() == [10]


@pytest.mark.parametrize("n", [7, 8])
def test_dense_cluster_is_one_class(n):
    # p* within 3e-10 of p puts every posterior within the dedup radius of p
    rng = np.random.default_rng(n)
    p = rng.dirichlet(np.ones(n))
    pstar = p * (1.0 + 3e-10 * rng.uniform(-1.0, 1.0, n))
    pstar /= pstar.sum()
    buckets: list = []
    _scan._class_chunk(buckets, all_rows(n), _scan._ratio_table(pstar, p), p)
    assert len(buckets[0][0]) > 100  # so the merge, not the 1e-12 grid, makes one class
    # seven candidate pairs per round: the linkage takes many rounds
    classes = _scan._merge_within_tolerance(buckets, 7)
    assert [count for _, count in classes] == [bell_number(n) - 2]
    assert same_table(_scan.class_scan(n, _scan._ratio_table(pstar, p), p), classes)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_certified_pair_skips_the_linkage(n, monkeypatch):
    # a certified pair has one row per bucket, and the linkage would join none of them
    p_star, p = random_positive_pair(np.random.default_rng(800 + n), n)
    ps, pw = p_star.as_array(), p.as_array()
    ratio = _scan._ratio_table(ps, pw)
    assert _scan.certify_singletons(ratio, pw)
    buckets: list = []
    _scan._class_chunk(buckets, all_rows(n), ratio, pw)
    linked = _scan._merge_within_tolerance(buckets)
    assert len(linked) == bell_number(n) - 2

    def no_linkage(*args):
        raise AssertionError("a certified pair ran the linkage")

    monkeypatch.setattr(_scan, "_single_linkage", no_linkage)
    assert same_table(_scan.class_scan(n, ratio, pw), linked)


#: sha256 over the bytes of the class tables below, recorded before the class parts
#: dropped their rounded keys and the byte sort began to order the classes
CLASS_TABLES_SHA256 = "755ba15a378d219c4457f94eefdc5c63e990d146d7b3a41dd88b4249ac4eb60d"


def class_table_cases():
    """(n, p*, p, workers): certified, uncertified, pooled and batched class scans."""
    for n in (8, 9, 10):
        p_star, p = random_positive_pair(np.random.default_rng(800 + n), n)
        yield n, p_star.as_array(), p.as_array(), 1
    # p* proportional to (1, .., n) against uniform p: multiplicities up to 17 at n = 7
    for n in (5, 6, 7):
        yield n, np.arange(1.0, n + 1) / (n * (n + 1) / 2), np.full(n, 1.0 / n), 1
    # the tied pair of the pooled test: buckets that span both runs of a pool of two
    n = 11
    p = np.full(n, 1.0 / n)
    ratio = np.ones(n)
    ratio[0] = 2.0
    for workers in (1, 2):
        yield n, p * ratio / (p * ratio).sum(), p, workers
    rng = np.random.default_rng(31)
    yield 8, rng.dirichlet(np.full(8, 0.05), 16), rng.dirichlet(np.ones(8), 16), 1


def test_class_tables_are_pinned():
    # order, representatives, linkage roots and multiplicities, byte for byte
    digest = hashlib.sha256()
    for n, pstar, p, workers in class_table_cases():
        digest.update(_scan.class_scan(n, _scan._ratio_table(pstar, p), p, workers).tobytes())
    assert digest.hexdigest() == CLASS_TABLES_SHA256
    assert_no_child_left()


#: zero, the smallest subnormal, about the smallest normal, the 1e-12 grid step, a huge double
EDGE_VALUES = np.array([0.0, 5e-324, 2.2e-308, 1e-12, 1e300])


@pytest.mark.parametrize("width", range(1, 14))
def test_runs_order_rows_lexicographically(width):
    # a stable sort by big-endian bytes is the numeric lexsort of non-negative rows
    rng = np.random.default_rng(3100 + width)
    for trial in range(40):
        rows = rng.choice(EDGE_VALUES, size=(30, width))
        spread = rng.random(rows.shape) < 0.5
        rows[spread] = 10.0 ** rng.uniform(-320, 300, spread.sum()) * rng.random(spread.sum())
        rows = rows[rng.integers(0, rows.shape[0], 60)]  # duplicate rows
        if trial % 2:
            rows = np.column_stack((rng.integers(0, 3, rows.shape[0]).astype(float), rows))
        order, starts = _scan._runs(rows)
        assert order.tolist() == np.lexsort(rows.T[::-1]).tolist()
        ranked = rows[order]
        new = np.ones(ranked.shape[0], dtype=bool)
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        assert starts.tolist() == np.flatnonzero(new).tolist()


def tied_pair(rng, n):
    """p* = p r with r taking three values, so many partitions share a posterior."""
    _, p = random_positive_pair(rng, n)
    r = rng.choice([0.5, 1.0, 2.0], size=n)
    pstar = np.asarray(p.weights) * r
    return ProbabilityVector(pstar / pstar.sum()), p


@pytest.mark.parametrize("n", [5, 6, 7])
def test_posterior_classes_match_brute_force(n):
    rng = np.random.default_rng(500 + n)
    for p_star, p in (random_positive_pair(rng, n), tied_pair(rng, n), tied_pair(rng, n)):
        ours = posterior_classes(p_star, p)
        brute = brute_posterior_classes(list(p_star.weights), list(p.weights), n)
        assert sorted(ours.multiplicities.tolist()) == sorted(m for _, m in brute)
        for posterior, multiplicity in zip(ours.posteriors.tolist(), ours.multiplicities):
            gap, count = min(
                (max(abs(a - b) for a, b in zip(q, posterior)), m) for q, m in brute
            )
            assert gap <= 1e-9
            assert count == multiplicity


def test_posterior_classes_cover_every_partition_at_n10():
    n = 10
    p_star, p = random_positive_pair(np.random.default_rng(10), n)
    classes = posterior_classes(p_star, p)
    assert classes.multiplicities.sum() == bell_number(n) - 2
