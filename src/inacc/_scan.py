"""Chunked, vectorized scans over all proper non-trivial partitions.

Exhaustive verification at n = 12 touches 4,213,595 partitions, so a
Python-object loop does not cut it.  This module enumerates canonical
restricted-growth strings directly into int8 label matrices (rows =
partitions, columns = outcomes), never holding more than one chunk.

The kernels read Jeffrey posteriors from tables over the 2^n subsets of
the outcomes (4,096 entries at n = 12): R(S) = p*(S)/p(S) and
W(S) = R(S) (d p)(S).  A posterior is R gathered at each outcome's block,
and E_{q_Pi}[d] is the sum of W over the blocks of Pi, taken once per
sibling group of rows and adjusted per row for where outcome n goes.

Row order is lexicographic in the RGS encoding; the object-level
iterator in :mod:`inacc.partitions` reads these rows, and a test pins
them to a brute-force enumeration.

Every scan is a worker that folds the chunks of ``_label_chunks`` into a
partial result, plus a merge for two partial results; ``_reduce`` runs
the worker in this process or splits the RGS prefix tree across a fork
pool and folds the parts in submission order.  Each row's score and
posterior do not depend on where chunk edges fall, so parallel results
equal the single-threaded ones.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import TOL_DEDUP, TOL_NUM

#: most rows in one chunk; keeps kernel temporaries around a few MB
CHUNK_ROWS = 1 << 16
#: full label matrix is cached up to this n (Bell(10)-2 = 115,973 rows)
CACHE_MAX_N = 10
#: reports keep per-partition details by default up to this many rows
KEEP_DETAILS_MAX = 10_000


def _expand_chunks(
    prefix: np.ndarray, maxes: np.ndarray, n: int, chunk_rows: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Grow RGS prefixes to full length n, yielding (labels, maxes) chunks.

    All partitions are produced (coarsest and finest included); callers
    filter on the block count.  Any block longer than chunk_rows is split,
    at the last depth too, so no chunk exceeds it.  Depth-first with
    ordered splitting keeps global lexicographic order.
    """
    stack = [(prefix, maxes)]
    while stack:
        block, mx = stack.pop()
        depth = block.shape[1]
        while depth < n:
            counts = mx.astype(np.int64) + 2
            offsets = np.cumsum(counts) - counts
            total = int(offsets[-1] + counts[-1])
            block = np.concatenate(
                [
                    np.repeat(block, counts, axis=0),
                    (np.arange(total, dtype=np.int64) - np.repeat(offsets, counts))
                    .astype(np.int8)
                    .reshape(-1, 1),
                ],
                axis=1,
            )
            mx = np.maximum(np.repeat(mx, counts), block[:, -1])
            depth += 1
            if block.shape[0] > chunk_rows:
                pieces = range(0, block.shape[0], chunk_rows)
                slices = [(block[i : i + chunk_rows], mx[i : i + chunk_rows]) for i in pieces]
                for piece in reversed(slices[1:]):
                    stack.append(piece)
                block, mx = slices[0]
        yield block, mx


def iter_label_chunks(
    n: int,
    chunk_rows: int = CHUNK_ROWS,
    prefix: np.ndarray | None = None,
    maxes: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Proper non-trivial partition label matrices, lexicographic order."""
    if prefix is None:
        prefix = np.zeros((1, 1), dtype=np.int8)
        maxes = np.zeros(1, dtype=np.int8)
    assert maxes is not None
    for block, mx in _expand_chunks(prefix, maxes, n, chunk_rows):
        keep = (mx >= 1) & (mx <= n - 2)
        if keep.all():
            yield block
        elif keep.any():
            yield block[keep]


@functools.lru_cache(maxsize=8)
def cached_labels(n: int) -> np.ndarray:
    """Full proper non-trivial label matrix for small n (read-only)."""
    assert n <= CACHE_MAX_N
    mat = np.concatenate(list(iter_label_chunks(n)), axis=0)
    mat.setflags(write=False)
    return mat


def _label_chunks(
    n: int,
    chunk_rows: int,
    prefix: np.ndarray | None = None,
    maxes: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The chunks every scan reads: the cached matrix up to CACHE_MAX_N, else a stream."""
    if n <= CACHE_MAX_N:
        return iter((cached_labels(n),))
    return iter_label_chunks(n, chunk_rows, prefix, maxes)


def _reduce(
    worker: Callable, common: tuple, merge: Callable, n: int, workers: int, chunk_rows: int
):
    """Run worker((prefix, maxes, n, chunk_rows) + common) over the whole enumeration.

    Cached labels are always scanned in this process; a streamed scan with
    more than one worker folds the pool's parts with ``merge`` in
    submission order.
    """
    if n <= CACHE_MAX_N or workers <= 1:
        return worker((None, None, n, chunk_rows) + common)
    return functools.reduce(merge, _parallel_map(worker, common, n, workers, chunk_rows))


# ---------------------------------------------------------------------------
# chunk kernels


@functools.lru_cache(maxsize=4)
def _subset_bits(n: int) -> np.ndarray:
    """bits[S, i] = 1.0 if outcome i is in subset S, for all 2^n subsets (read-only)."""
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    bits.setflags(write=False)
    return bits


def _subset_sums(vecs: np.ndarray) -> np.ndarray:
    """out[..., S] = sum of vecs[..., i] over the outcomes i in S, for all 2^n subsets S."""
    return vecs @ _subset_bits(vecs.shape[-1]).T


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _ratio_table(pstar: np.ndarray, p: np.ndarray) -> np.ndarray:
    """R(S) = p*(S)/p(S) over all subsets S; 0 where p(S) = 0."""
    num, den = _subset_sums(np.array([pstar, p]))
    return _ratio(num, den)


def _score_table(pstar: np.ndarray, p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """W(S) = R(S) (d p)(S): E_{q_Pi}[d] is the sum of W over the blocks of Pi."""
    num, den, dp = _subset_sums(np.array([pstar, p, d * p]))
    return _ratio(num, den) * dp


def _block_masks(labels: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, index) of a label matrix with `width` labels per row.

    masks[r * width + b] is the bitmask of the outcomes i with
    labels[r, i] == b, and index[r, i] = r * width + labels[r, i], so
    masks[index] is the mask of the block that holds each outcome.
    """
    rows, k = labels.shape
    index = labels.astype(np.intp) + (np.arange(rows, dtype=np.intp) * width)[:, None]
    bits = np.broadcast_to(2.0 ** np.arange(k), (rows, k))
    masks = np.bincount(index.ravel(), weights=bits.ravel(), minlength=rows * width)
    return masks.astype(np.intp), index


def chunk_scores(
    labels: np.ndarray, pstar: np.ndarray, p: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """E_{q_Pi}[d] for every row: the sum of W over the blocks of Pi.

    Rows must come in lexicographic RGS order, as ``iter_label_chunks``
    yields them (any contiguous run of it).  Rows that share their first
    n-1 labels form a sibling group, and a group starts wherever the last
    label does not increase.  The block sum is taken once per group, on
    the shared prefix; each row then moves outcome n from nowhere into its
    block m: total - W[m] + W[m | bit(n-1)].
    """
    rows, n = labels.shape
    if rows == 0:
        return np.zeros(0)
    table = _score_table(pstar, p, d)
    last = labels[:, -1].astype(np.intp)
    head = np.empty(rows, dtype=bool)
    head[0] = True
    np.less_equal(last[1:], last[:-1], out=head[1:])
    group = np.add.accumulate(head, dtype=np.intp) - 1
    masks, _ = _block_masks(labels[head, :-1], n)
    total = table[masks].reshape(-1, n).sum(axis=1)
    own = masks[group * n + last]
    return total[group] - table[own] + table[own | (1 << (n - 1))]


def chunk_posteriors(labels: np.ndarray, pstar: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Jeffrey posterior q_Pi(i) = p*(B(i)) p(i) / p(B(i)) for every row."""
    masks, index = _block_masks(labels, labels.shape[1])
    return _ratio_table(pstar, p)[masks[index]] * p


# ---------------------------------------------------------------------------
# score scan (max / min / inaccessible counts)


@dataclass
class ScoreScan:
    """Aggregates of E_{q_Pi}[d] over the full enumeration."""

    count: int
    max_score: float
    min_score: float
    argmax_rgs: tuple[int, ...]
    num_le: int  # scores <= +tol: inaccessible under the tie rule
    num_lt: int  # scores <  -tol: strictly negative

    @classmethod
    def of_chunks(cls, chunks: Iterable[tuple[np.ndarray, np.ndarray]], tol: float) -> "ScoreScan":
        return cls(*_fold_stats(chunks, tol))


_EMPTY = (0, -np.inf, np.inf, (), 0, 0)


def _score_stats(labels: np.ndarray, scores: np.ndarray, tol: float) -> tuple:
    i = int(np.argmax(scores))
    return (
        int(scores.size),
        float(scores[i]),
        float(scores.min()),
        tuple(int(x) for x in labels[i]),
        int((scores <= tol).sum()),
        int((scores < -tol).sum()),
    )


def _merge_stats(a: tuple, b: tuple) -> tuple:
    if a[0] == 0:
        return b
    if b[0] == 0:
        return a
    # ties broken toward the lexicographically smaller witness
    if (b[1], [-x for x in b[3]]) > (a[1], [-x for x in a[3]]):
        hi, arg = b[1], b[3]
    else:
        hi, arg = a[1], a[3]
    return (a[0] + b[0], hi, min(a[2], b[2]), arg, a[4] + b[4], a[5] + b[5])


def _fold_stats(chunks: Iterable[tuple[np.ndarray, np.ndarray]], tol: float) -> tuple:
    """Aggregates of (labels, scores) chunks given in enumeration order."""
    stats = (_score_stats(labels, scores, tol) for labels, scores in chunks)
    return functools.reduce(_merge_stats, stats, _EMPTY)


def _score_worker(args: tuple) -> tuple:
    prefix, maxes, n, chunk_rows, pstar, p, d, tol = args
    chunks = _label_chunks(n, chunk_rows, prefix, maxes)
    return _fold_stats(((lb, chunk_scores(lb, pstar, p, d)) for lb in chunks), tol)


def score_scan(
    n: int,
    pstar: np.ndarray,
    p: np.ndarray,
    d: np.ndarray,
    tol: float = TOL_NUM,
    workers: int = 1,
    chunk_rows: int = CHUNK_ROWS,
) -> ScoreScan:
    """Scan E_{q_Pi}[d] over all proper non-trivial partitions of {1..n}."""
    return ScoreScan(
        *_reduce(_score_worker, (pstar, p, d, tol), _merge_stats, n, workers, chunk_rows)
    )


def iter_scored_chunks(
    n: int, pstar: np.ndarray, p: np.ndarray, d: np.ndarray, chunk_rows: int = CHUNK_ROWS
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(labels, scores) per chunk, single-threaded, for per-partition details."""
    for labels in _label_chunks(n, chunk_rows):
        yield labels, chunk_scores(labels, pstar, p, d)


# ---------------------------------------------------------------------------
# posterior class scan (dedup with multiplicities)


def _class_chunk(acc: dict, labels: np.ndarray, pstar: np.ndarray, p: np.ndarray) -> None:
    q = chunk_posteriors(labels, pstar, p)
    rounded = np.round(q, 12) + 0.0  # normalize -0.0 so byte keys match
    uniq, inverse, counts = np.unique(
        rounded, axis=0, return_inverse=True, return_counts=True
    )
    inv = inverse.ravel()
    # reversed assignment leaves the first occurrence per unique row
    first = np.empty(uniq.shape[0], dtype=np.int64)
    first[inv[::-1]] = np.arange(inv.size - 1, -1, -1)
    for u in range(uniq.shape[0]):
        key = uniq[u].tobytes()
        entry = acc.get(key)
        if entry is None:
            acc[key] = [int(counts[u]), q[first[u]].copy()]
        else:
            entry[0] += int(counts[u])


def _class_worker(args: tuple) -> dict:
    prefix, maxes, n, chunk_rows, pstar, p = args
    acc: dict = {}
    for labels in _label_chunks(n, chunk_rows, prefix, maxes):
        _class_chunk(acc, labels, pstar, p)
    return acc


def _merge_classes(a: dict, b: dict) -> dict:
    """Add b's buckets into a; a keeps its representative where both have one."""
    for key, (cnt, rep) in b.items():
        entry = a.get(key)
        if entry is None:
            a[key] = [cnt, rep]
        else:
            entry[0] += cnt
    return a


def class_scan(
    n: int,
    pstar: np.ndarray,
    p: np.ndarray,
    workers: int = 1,
    chunk_rows: int = CHUNK_ROWS,
) -> list[tuple[tuple[float, ...], int]]:
    """Distinct Jeffrey posteriors with multiplicities, lexicographic order.

    Posteriors are bucketed on a 1e-12 grid first, then buckets whose
    representatives sit within ``TOL_DEDUP`` in max-norm are merged, so
    sub-tolerance collisions count as genuine multiplicity.
    """
    acc = _reduce(_class_worker, (pstar, p), _merge_classes, n, workers, chunk_rows)
    return _merge_within_tolerance(acc)


def _merge_within_tolerance(acc: dict) -> list[tuple[tuple[float, ...], int]]:
    items = sorted(
        ((tuple(float(x) for x in rep), cnt) for cnt, rep in acc.values()),
        key=lambda it: it[0],
    )
    if not items:
        return []
    reps = [it[0] for it in items]
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # max-norm closeness forces closeness in the first coordinate, so a
    # window scan over the sorted list sees every mergeable pair
    for i in range(len(items)):
        j = i + 1
        while j < len(items) and reps[j][0] - reps[i][0] <= TOL_DEDUP:
            if max(abs(a - b) for a, b in zip(reps[i], reps[j])) <= TOL_DEDUP:
                parent[find(j)] = find(i)
            j += 1
    groups: dict[int, list] = {}
    for i in range(len(items)):
        root = find(i)
        entry = groups.setdefault(root, [None, 0])
        if entry[0] is None or reps[i] < entry[0]:
            entry[0] = reps[i]
        entry[1] += items[i][1]
    return sorted((tuple(rep), cnt) for rep, cnt in groups.values())


# ---------------------------------------------------------------------------
# mixture-identity scan


def _epsilon_chunk(labels, pstar, p, p_eps, d, d_eps, eps) -> tuple[int, float]:
    score = chunk_scores(labels, pstar, p, d)
    score_eps = chunk_scores(labels, p_eps, p, d_eps)
    return labels.shape[0], float(np.abs(score_eps - (1.0 - eps) * score).max())


def _epsilon_worker(args: tuple) -> tuple[int, float]:
    prefix, maxes, n, chunk_rows, pstar, p, p_eps, d, d_eps, eps = args
    count, expect = 0, 0.0
    for labels in _label_chunks(n, chunk_rows, prefix, maxes):
        c, e = _epsilon_chunk(labels, pstar, p, p_eps, d, d_eps, eps)
        count += c
        expect = max(expect, e)
    return count, expect


def _merge_epsilon(a: tuple[int, float], b: tuple[int, float]) -> tuple[int, float]:
    return a[0] + b[0], max(a[1], b[1])


def _mixture_residual(
    n: int, pstar: np.ndarray, p: np.ndarray, p_eps: np.ndarray, eps: float
) -> float:
    """max |q_eps(i) - ((1-eps) q(i) + eps p(i))| over all Pi and i.

    q_Pi(i) depends only on the block B that holds i, and for n >= 3 every
    nonempty proper subset B is a block of the proper non-trivial partition
    {B, complement}, so checking each pair (B, i in B) once covers the scan.
    """
    proper = slice(1, (1 << n) - 1)
    member = _subset_bits(n)[proper] > 0
    q = _ratio_table(pstar, p)[proper, None] * p
    q_eps = _ratio_table(p_eps, p)[proper, None] * p
    return float(np.abs(q_eps - ((1.0 - eps) * q + eps * p))[member].max())


def epsilon_scan(
    n: int,
    pstar: np.ndarray,
    p: np.ndarray,
    p_eps: np.ndarray,
    d: np.ndarray,
    d_eps: np.ndarray,
    eps: float,
    workers: int = 1,
    chunk_rows: int = CHUNK_ROWS,
) -> tuple[int, float, float]:
    """(count, max mixture residual, max expectation residual) over all Pi."""
    common = (pstar, p, p_eps, d, d_eps, eps)
    count, expect = _reduce(_epsilon_worker, common, _merge_epsilon, n, workers, chunk_rows)
    return count, _mixture_residual(n, pstar, p, p_eps, eps), expect


# ---------------------------------------------------------------------------
# process-pool plumbing


def _frontier(n: int, min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """RGS prefixes deep enough to hand at least min_rows subtrees out."""
    prefix = np.zeros((1, 1), dtype=np.int8)
    mx = np.zeros(1, dtype=np.int8)
    while prefix.shape[1] < n - 1 and prefix.shape[0] < min_rows:
        counts = mx.astype(np.int64) + 2
        offsets = np.cumsum(counts) - counts
        total = int(offsets[-1] + counts[-1])
        col = (np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)).astype(np.int8)
        prefix = np.concatenate([np.repeat(prefix, counts, axis=0), col.reshape(-1, 1)], axis=1)
        mx = np.maximum(np.repeat(mx, counts), col)
    return prefix, mx


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix fallback
        return multiprocessing.get_context()


def _pool_size(asked: int, cpus: int, tasks: int) -> int:
    """Processes to start: the ask, never above the usable CPUs or the tasks."""
    return max(1, min(asked, cpus, tasks))


def _parallel_map(
    worker: Callable, common: tuple, n: int, workers: int, chunk_rows: int
) -> list:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cpus = os.cpu_count() or 1
    split = 8 * min(workers, cpus)
    prefix, mx = _frontier(n, split)
    bounds = np.linspace(0, prefix.shape[0], min(prefix.shape[0], split) + 1).astype(int)
    tasks = [
        (prefix[a:b], mx[a:b], n, chunk_rows) + common
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    size = _pool_size(workers, cpus, len(tasks))
    with ProcessPoolExecutor(max_workers=size, mp_context=_pool_context()) as pool:
        futures = [pool.submit(worker, t) for t in tasks]
        return [f.result() for f in futures]
