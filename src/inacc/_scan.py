"""Chunked, vectorized scans over all proper non-trivial partitions.

Exhaustive verification at n = 12 touches 4,213,595 partitions, so a
Python-object loop does not cut it.  This module enumerates canonical
restricted-growth strings directly into int8 label matrices (rows =
partitions, columns = outcomes), holding about one chunk at a time.

The kernels take tables over the 2^n subsets of the outcomes (4,096
entries at n = 12), not measures: R(S) = p*(S)/p(S) (``_ratio_table``)
and W(S) = R(S) (d p)(S) (``_score_table``), the only functions here
that take p* or d.  Their subset sums add each subset's outcomes left to
right in increasing order (``_subset_sums``, n doubling steps), never by
a matrix product, so no BLAS kernel moves a table.  Each table is built
once, by the caller, and handed to the scan's workers.  A posterior is R
gathered at each outcome's block (``_block_masks``, one bincount per
chunk).  E_{q_Pi}[d] is the sum of W over the blocks of Pi, carried one
label at a time through the increment table Delta(S) = W(S) - W(S
without its highest outcome) (``_increments``, n slice subtractions,
built once per pass by the scan): when outcome i joins a block whose
mask so far is m (0 for a new block), the total becomes total +
Delta[m | bit i].  Each RGS prefix takes its masks and total from its
parent, one label shorter (``_prefix_totals``); small levels run the
carry from the empty prefix, and each row takes the last step from its
sibling group's prefix.  A score is thus n additions of one rounding
each, the same steps whatever the chunk, and depends on the row's labels
alone.  Delta is linear in W, so for fixed labels a score is linear in
the table.

Row order is lexicographic in the RGS encoding; the object-level
iterator in :mod:`inacc.partitions` reads these rows, and a test pins
them to a brute-force enumeration.  Each row is written once: the RGS
prefixes are walked depth-first to depth n - t, and the last t labels of
every row come from a cached table of completions per running max
(``_tails``, t = 4 at n = 12: 17,244 rows).  A row is packed into
ceil(n/8) uint64 words, prefix OR tail, and a chunk is the int8 view of
its first n bytes, so chunks are not contiguous.  Each prefix's tails are
one contiguous slice of that table, copied in by one concatenation per
run.  The walk cuts its stack by subtree rows, so the first rows at
n = 100 cost what they do at n = 12.

Importing this module sets glibc's malloc to serve blocks up to 32 MiB
from its heap and to trim the heap only above 64 MiB of free top, once
per process (``_set_heap_policy``; a no-op without glibc's mallopt).
The kernels' per-chunk temporaries are then reused in place instead of
being unmapped, or trimmed, and faulted back in at every chunk.  The
setting is process-wide: every later allocation in the process follows
it, and fork-pool children inherit it.

Every scan is a worker that folds the chunks of ``_label_chunks`` into a
partial result, plus a merge for two partial results; ``_reduce`` runs
the worker in this process or hands each process of a fork pool one
contiguous run of the enumeration, and folds the parts in submission
order.  The runs hold about equal rows: a prefix's subtree size follows
from its length and largest label by the Bell recurrence, so the RGS
prefixes are cut by row count without enumerating them.  Each row's
score and posterior do not depend on where chunk edges fall, so parallel
results equal the single-threaded ones.

Scores have one fold, in ``score_scan``, read by ``verify``, the epsilon
check and the sweep alike: ``_score_stats`` reduces a chunk along its
last axis and ``_merge_stats`` merges two parts elementwise, keeping the
earlier witness on a tie.  Parts arrive in enumeration order, so the
witness is the lexicographically smallest row that attains the max.  The
TOL_NUM tie rule is applied here alone: ``_non_positive`` counts a row
into the degree, and ``_verdicts`` reads the verdicts off the max.

The class scan buckets each chunk's posteriors on a 1e-12 grid, then
merges the parts by single linkage within TOL_DEDUP into one class table
(one pair or a stack of samples alike), with no Python loop per bucket or class.

The scans also take tables with a leading sample axis, built from
measures shaped (S, n): the subset tables become (S, 2^n), scores
(S, rows) and posteriors (S, rows, n), and each sample's row is bitwise
the one the 1-D call gives.  The sweep answers a batch of samples this
way with one ``score_scan``, whose fields then hold one entry per sample.

``certify_singletons`` proves from the subset table alone that a
sample's posterior classes are all singletons: distinct partitions put
some outcome i in different blocks B, B', so their posteriors differ at
i by |R(B) - R(B')| p_i, and the certificate checks that every such gap
exceeds TOL_DEDUP.  The sweep runs the class pass only on the samples it
does not certify, reading the rows of the same R, and a class scan skips
the single linkage when it certifies every sample.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import TOL_DEDUP, TOL_NUM, OutOfRange

#: most rows in one chunk; keeps kernel temporaries around a few MB
CHUNK_ROWS = 1 << 16
#: full label matrix is cached up to this n (Bell(10)-2 = 115,973 rows)
CACHE_MAX_N = 10
#: no RGS prefix handed to the pool holds more than 1/RUN_GRAIN of a run's rows
RUN_GRAIN = 32
#: int8 labels reach 127, the top label of n - 1 blocks at this n
LABEL_MAX_N = 129
#: a packed label row: label j is byte j of its little-endian uint64 words, on any host
_WORD = np.dtype("<u8")
#: a level of at most this many RGS prefixes runs the score carry from the empty prefix;
#: a serial n = 12 chunk_scores pass (2-vCPU Xeon) took 1.09x as long when every level
#: recursed (0) and 1.9x when every level looped (2^40), with the same score bytes
_MASK_BASE = 256


def _set_heap_policy() -> bool:
    """Keep the scans' temporaries on glibc's heap; True when mallopt took both settings.

    A chunk's kernel temporaries take a few MB each.  By default glibc
    serves a block above its mmap threshold (128 KiB, raised only when
    such a block is freed) from a fresh mapping that free unmaps, and it
    trims the heap's free top above 128 KiB, so every chunk faults its
    temporaries' pages back in.  A fixed 32 MiB mmap threshold and a
    64 MiB trim threshold keep them in the heap for the next chunk.  Run
    once per process, at import; fork-pool children inherit it.  Without
    a C library handle or a mallopt (not glibc) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 64 << 20) == 1


_set_heap_policy()


def _grow(prefix: np.ndarray, mx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every RGS prefix one label longer, in lexicographic order, with its running maximum.

    A prefix whose largest label is m has m + 2 children: the labels 0..m+1.
    """
    counts = mx.astype(np.int64) + 2
    offsets = np.cumsum(counts) - counts
    total = int(offsets[-1] + counts[-1])
    col = (np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)).astype(np.int8)
    prefix = np.concatenate([np.repeat(prefix, counts, axis=0), col.reshape(-1, 1)], axis=1)
    return prefix, np.maximum(np.repeat(mx, counts), col)


@functools.lru_cache(maxsize=8)
def _tail_length(n: int) -> int:
    """The longest t whose tail tables, for every running max below n - t, hold at most CHUNK_ROWS rows.

    The stacked size grows with t, so the first t from the top that fits
    is the longest; the sum runs on Python ints, so saturated counts cannot wrap.
    """
    c = _completions(n)
    return next((t for t in range(n - 1, 0, -1) if sum(c[t, : n - t].tolist()) <= CHUNK_ROWS), 0)


@functools.lru_cache(maxsize=8)
def _tails(n: int, t: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(length, packed): the last t labels of the rows below each prefix of depth n - t.

    The completions of a prefix whose largest label is m are the
    length[m] rows of packed[m], in lexicographic order, each table one
    contiguous slice of a single buffer.  A packed row holds its labels at
    bytes n - t .. n - 1 of a row of little-endian uint64 words, from the
    first word those bytes touch on, so OR-ing it into a packed prefix
    writes the whole row.  The m = 0 table drops its first row (all
    zeros, the coarsest partition) and the m = depth - 1 table its last
    (0, 1, .., n - 1, the finest): only the all-zero and the identity
    prefix have those maxima, so no row needs a filter (read-only).
    """
    depth = n - t
    tail, mx = np.zeros((depth, 0), dtype=np.int8), np.arange(depth, dtype=np.int8)
    for _ in range(t):
        tail, mx = _grow(tail, mx)
    length = _completions(n)[t, :depth].copy()
    length[0] -= 1
    length[-1] -= 1
    rows = np.zeros((int(length.sum()), -(-n // 8) * 8), dtype=np.int8)
    rows[:, depth:n] = tail[1:-1]
    packed = np.ascontiguousarray(rows.view(_WORD)[:, depth // 8 :])
    packed.setflags(write=False)
    length.setflags(write=False)
    ends = np.cumsum(length).tolist()
    return length, tuple(packed[a:b] for a, b in zip([0, *ends], ends))


def iter_label_chunks(
    n: int,
    chunk_rows: int = CHUNK_ROWS,
    prefix: np.ndarray | None = None,
    maxes: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Proper non-trivial partition label matrices, lexicographic order, at most chunk_rows rows each.

    With (prefix, maxes), only the rows below those RGS prefixes: one
    depth, in lexicographic order, with their running maxima.  The walk is
    depth-first down to depth n - t (``_tail_length``, or less below a
    deeper prefix).  A block of prefixes is cut by subtree rows
    (``_completions``) into runs of at most max(chunk_rows, CHUNK_ROWS)
    rows; a single prefix above that is grown one label and cut again, so
    the stack holds a few prefixes per depth.  A run is grown to depth
    n - t and its rows are written once: the prefixes, packed into
    ceil(n/8) uint64 words, are repeated once per completion and OR-ed
    with one concatenation of their tail tables from ``_tails``, one
    contiguous slice per prefix, so no row index is built.  A chunk is a view
    ``buf.view(np.int8)[:, :n]`` of such a buffer, so its rows are not
    contiguous; no buffer is reused.  Above LABEL_MAX_N the labels would
    not fit int8: OutOfRange.
    """
    if n > LABEL_MAX_N:
        raise OutOfRange(f"int8 labels enumerate partitions of n <= {LABEL_MAX_N}, got n = {n}")
    if prefix is None:
        prefix = np.zeros((1, 1), dtype=np.int8)
        maxes = np.zeros(1, dtype=np.int8)
    assert maxes is not None
    t = min(_tail_length(n), n - prefix.shape[1])
    depth = n - t
    length, packed = _tails(n, t)
    below = _completions(n)
    bound = max(chunk_rows, CHUNK_ROWS)
    stack = [(prefix, maxes)]
    while stack:
        block, mx = stack.pop()
        # clipped, a run's sum cannot overflow and still tells a prefix that is too big alone
        rows = np.cumsum(np.minimum(below[n - block.shape[1], mx], bound + 1))
        k = max(1, int(np.searchsorted(rows, bound, side="right")))
        if k < block.shape[0]:
            stack.append((block[k:], mx[k:]))
            block, mx = block[:k], mx[:k]
        if rows[k - 1] > bound and block.shape[1] < depth:
            stack.append(_grow(block, mx))
            continue
        while block.shape[1] < depth:
            block, mx = _grow(block, mx)
        lens = length[mx]
        head = np.zeros((block.shape[0], -(-n // 8) * 8), dtype=np.int8)
        head[:, :depth] = block
        buf = np.repeat(head.view(_WORD), lens, axis=0)
        buf[:, depth // 8 :] |= np.concatenate([packed[m] for m in mx.tolist()])
        labels = buf.view(np.int8)[:, :n]
        for i in range(0, labels.shape[0], chunk_rows):
            yield labels[i : i + chunk_rows]


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


def _reduce(worker: Callable, common: tuple, merge: Callable, n: int, workers: int):
    """Run worker((prefix, maxes, n, CHUNK_ROWS) + common) over the whole enumeration.

    Cached labels are always scanned in this process, and so is every scan
    when one worker is asked for or only one CPU is usable.  Otherwise the
    pool's parts are folded with ``merge`` in submission order.
    """
    if n <= CACHE_MAX_N or workers <= 1 or _usable_cpus() <= 1:
        return worker((None, None, n, CHUNK_ROWS) + common)
    return functools.reduce(merge, _parallel_map(worker, common, n, workers, CHUNK_ROWS))


# ---------------------------------------------------------------------------
# chunk kernels


def _subset_sums(vecs: np.ndarray) -> np.ndarray:
    """out[..., S] = sum of vecs[..., i] over the outcomes i in S, for all 2^n subsets S.

    n doubling steps, the mirror of ``_increments``: out[2^i : 2^(i+1)] =
    out[: 2^i] + vecs[i] from out[0] = 0, on a (2^n, vectors) layout.  So
    each entry adds its outcomes left to right in increasing order, on any
    BLAS, and a stacked row is bitwise the unstacked one.
    """
    n = vecs.shape[-1]
    flat = vecs.reshape(-1, n)
    out = np.zeros((1 << n, flat.shape[0]))
    for i in range(n):
        np.add(out[: 1 << i], flat[:, i], out=out[1 << i : 2 << i])
    return np.ascontiguousarray(out.T).reshape(*vecs.shape[:-1], 1 << n)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _ratio_table(pstar: np.ndarray, p: np.ndarray) -> np.ndarray:
    """R(S) = p*(S)/p(S) over all subsets S; 0 where p(S) = 0 (per sample for (S, n) inputs)."""
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


def _group_edges(last: np.ndarray) -> np.ndarray:
    """Where each sibling group starts (last does not increase), then len(last)."""
    head = np.empty(last.size + 1, dtype=bool)
    head[0] = head[-1] = True
    np.less_equal(last[1:], last[:-1], out=head[1:-1])
    return np.flatnonzero(head)


def _increments(table: np.ndarray) -> np.ndarray:
    """Delta(S) = W(S) - W(S without its highest outcome), and Delta[0] = 0: the carry's table.

    Outcome i joins a block of outcomes below i, so the carry step that
    moves a block's mask from old to new = old | bit i adds W[new] - W[old]
    = Delta[new].  Built by n slice subtractions, one per highest outcome i:
    Delta[2^i : 2^(i+1)] = W[2^i : 2^(i+1)] - W[: 2^i].  Elementwise, so a
    (S, 2^n) table gives each sample's Delta bit for bit, and Delta is
    linear in W.
    """
    delta = np.empty_like(table)
    delta[..., 0] = 0.0
    half = 1
    while half < table.shape[-1]:
        np.subtract(table[..., half : 2 * half], table[..., :half], out=delta[..., half : 2 * half])
        half *= 2
    return delta


def _prefix_totals(
    labels: np.ndarray, rows: np.ndarray, k: int, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(masks, totals) of the k-label prefixes labels[rows, :k], each carried from its parent.

    masks is ``_block_masks(labels[rows, :k], labels.shape[1])[0]``, and
    totals[..., j] the sum of W over the blocks of prefix j, carried one
    label at a time from the empty prefix through Delta = ``_increments(W)``:
    label i joins block b, whose mask so far is old (0 for a new block), so
    the total becomes total + Delta[old | bit i], one rounding per step.
    Each total is thus a function of its prefix's labels alone.  The
    prefixes must be distinct and in lexicographic order, as the
    sibling-group heads of a contiguous run of the enumeration are.  Their
    parents, one label shorter, then change wherever label k - 1 does not
    increase, as sibling groups do; a prefix copies its parent's masks and
    total and takes the carry step for label k - 1.  Levels of at most
    _MASK_BASE prefixes run every step, column by column, from the empty
    prefix.
    """
    width = labels.shape[1]
    if rows.size <= _MASK_BASE or k == 1:
        head = labels[rows, :k].astype(np.intp)
        masks = np.zeros(rows.size * width, dtype=np.intp)
        totals = np.zeros((*delta.shape[:-1], rows.size))
        base = np.arange(0, masks.size, width)
        for i in range(k):
            masks, totals = _carry(masks, totals, base + head[:, i], i, delta)
        return masks, totals
    col = labels[rows, k - 1].astype(np.intp)
    edges = _group_edges(col)
    sizes = edges[1:] - edges[:-1]
    masks, totals = _prefix_totals(labels, rows[edges[:-1]], k - 1, delta)
    masks = np.repeat(masks.reshape(-1, width), sizes, axis=0).ravel()
    totals = np.repeat(totals, sizes, axis=-1)
    return _carry(masks, totals, np.arange(0, masks.size, width) + col, k - 1, delta)


def _carry(
    masks: np.ndarray, totals: np.ndarray, at: np.ndarray, i: int, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One carry step: outcome i joins block masks[at] of each prefix (masks change in place).

    Outcome i is the highest in the block's new mask, so the total adds
    Delta at that mask, W[new] - W[old]: one gather and one rounding.
    """
    new = masks[at] | (1 << i)
    masks[at] = new
    return masks, totals + delta.take(new, axis=-1)


def chunk_scores(labels: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """E_{q_Pi}[d] for every row: the sum of W (``_score_table``) over the blocks of Pi.

    ``delta`` is ``_increments(W)``, built once per pass by the caller.
    Rows must come in lexicographic RGS order, as ``iter_label_chunks``
    yields them (any contiguous run of it).  Rows that share their first
    n-1 labels form a sibling group, and a group starts wherever the last
    label does not increase.  ``_prefix_totals`` gives each group's prefix
    its block masks and its total, carried label by label from the empty
    prefix; each row then takes the last carry step, moving outcome n into
    its block m: total + Delta[m | bit(n-1)], read from the top half of
    Delta at m.  A score is thus the sum of n increments in label order,
    one rounding per addition, and depends on the row's labels alone, not
    on where chunk edges fall.

    A table of shape (S, 2^n) gives (S, rows) scores, each sample's row
    equal bit for bit to the call with that sample's table alone: every
    step is elementwise.
    """
    rows, n = labels.shape
    last = labels[:, -1].astype(np.intp)
    edges = _group_edges(last)
    sizes = edges[1:] - edges[:-1]
    masks, total = _prefix_totals(labels, edges[:-1], n - 1, delta)
    own = masks[np.repeat(np.arange(0, masks.size, n), sizes) + last]
    # take(axis=-1) gathers along the subset axis of a 1-D or (S, 2^n) table; it is
    # about twice as fast as an Ellipsis index on the 1-D one
    return np.repeat(total, sizes, axis=-1) + delta[..., 1 << (n - 1) :].take(own, axis=-1)


def chunk_posteriors(labels: np.ndarray, ratio: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Jeffrey posterior q_Pi(i) = R(B(i)) p(i) for every row, R = ``_ratio_table(pstar, p)``.

    A (S, 2^n) table with (S, n) p gives (S, rows, n) posteriors, one per sample.
    """
    masks, index = _block_masks(labels, labels.shape[1])
    return ratio.take(masks[index], axis=-1) * p[..., None, :]


# ---------------------------------------------------------------------------
# score scan (max / min / degree) and the TOL_NUM tie rule


def _non_positive(scores):
    """The tie rule, elementwise: a score at or below +TOL_NUM counts as <= 0."""
    return scores <= TOL_NUM


def _verdicts(max_score):
    """(inaccessible, strong) from the max: all scores <= +TOL_NUM, all < -TOL_NUM; elementwise."""
    return _non_positive(max_score), max_score < -TOL_NUM


@dataclass
class ScoreScan:
    """Aggregates of E_{q_Pi}[d] over the full enumeration; ``_verdicts(max_score)`` decides d.

    A scan of (S, n) measures holds a list with one entry per sample in
    every field but ``count``, which all samples share.
    """

    count: int
    max_score: float
    min_score: float
    argmax_rgs: tuple[int, ...]
    num_le: int  # scores <= +TOL_NUM: the degree

    @classmethod
    def of_stats(cls, stats: tuple) -> "ScoreScan":
        """From merged ``_score_stats``: Python scalars, or per-sample lists."""
        count, hi, lo, arg, le = stats
        rgs = tuple(arg.tolist()) if arg.ndim == 1 else list(map(tuple, arg.tolist()))
        return cls(count, hi.tolist(), lo.tolist(), rgs, le.tolist())


def _score_stats(labels: np.ndarray, scores: np.ndarray) -> tuple:
    """(count, max, min, argmax labels, degree) along the last axis.

    The argmax is the first row that attains the max, so in enumeration
    order the lexicographically smallest witness.
    """
    rows = scores.shape[-1]
    i = np.argmax(scores, axis=-1)
    return (
        rows,
        # the entry at the argmax rather than max(): a zero max keeps the sign of its first row
        scores.reshape(-1, rows)[np.arange(i.size), i.ravel()].reshape(i.shape),
        scores.min(axis=-1),
        labels[i],
        _non_positive(scores).sum(axis=-1),
    )


def _merge_stats(a: tuple, b: tuple) -> tuple:
    """Stats of the rows of ``a`` followed by those of ``b``; a tie keeps ``a``."""
    up = b[1] > a[1]
    return (
        a[0] + b[0],
        np.where(up, b[1], a[1]),
        np.where(b[2] < a[2], b[2], a[2]),
        np.where(up[..., None], b[3], a[3]),
        a[4] + b[4],
    )


def _score_worker(args: tuple) -> tuple:
    prefix, maxes, n, chunk_rows, delta = args
    chunks = _label_chunks(n, chunk_rows, prefix, maxes)
    stats = (_score_stats(lb, chunk_scores(lb, delta)) for lb in chunks)
    return functools.reduce(_merge_stats, stats)


def score_scan(n: int, table: np.ndarray, workers: int = 1) -> ScoreScan:
    """Fold the sum of ``table`` over the blocks of every proper non-trivial partition of {1..n}.

    The caller builds the table: W = ``_score_table(pstar, p, d)`` scores
    E_{q_Pi}[d], and a (S, 2^n) table scans S samples in one pass (see
    ``ScoreScan``).  The scan turns it into ``_increments(W)`` once, here,
    and hands that to every chunk and pool process.  For fixed labels a
    score is a sum of entries of Delta, and Delta is linear in W, so a
    score is linear in the table: W_eps - (1-eps) W scores each row's
    E_{q_eps}[d_eps] - (1-eps) E_q[d] up to rounding order, in one pass.
    """
    delta = _increments(table)
    return ScoreScan.of_stats(_reduce(_score_worker, (delta,), _merge_stats, n, workers))


def iter_scored_chunks(n: int, table: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(labels, scores) per chunk of the caller's W, single-threaded, for per-partition details."""
    delta = _increments(table)
    for labels in _label_chunks(n, CHUNK_ROWS):
        yield labels, chunk_scores(labels, delta)


# ---------------------------------------------------------------------------
# posterior class scan (dedup with multiplicities)


@functools.lru_cache(maxsize=4)
def _blocks_holding(n: int) -> np.ndarray:
    """blocks[i]: the nonempty proper subsets that hold outcome i, as subset indices (read-only)."""
    subsets = np.arange(1, (1 << n) - 1)
    blocks = np.stack([subsets[(subsets >> i) & 1 == 1] for i in range(n)])
    blocks.setflags(write=False)
    return blocks


def certify_singletons(ratio: np.ndarray, p: np.ndarray) -> np.ndarray:
    """True where every posterior class provably has multiplicity 1, per sample of (S, n) measures.

    ``ratio`` is R = ``_ratio_table(pstar, p)``, the table the class scan reads.

    q_Pi(i) = R(B) p_i for the block B of Pi that holds i, and two
    distinct partitions put some outcome i in different blocks B != B'.
    A sample is certified when, for every i, the floats fl(R(B) p_i) over
    the nonempty proper subsets B holding i (the values
    ``chunk_posteriors`` gives) sit pairwise more than TOL_DEDUP apart.
    Then any two posteriors differ by more than TOL_DEDUP, so they fall
    in different 1e-12 buckets and single linkage joins none: ``class_scan``
    counts every class once, and skips the linkage.  One sort of
    n (2^(n-1) - 1) values per sample; measures of shape (n,) give a 0-d
    answer.
    """
    q = ratio[..., _blocks_holding(p.shape[-1])] * p[..., None]
    gaps = np.diff(np.sort(q, axis=-1), axis=-1)
    return (gaps > TOL_DEDUP).all(axis=(-2, -1))


def _class_chunk(acc: list, labels: np.ndarray, ratio: np.ndarray, p: np.ndarray) -> None:
    """Append (keys, reps, counts) for one chunk: its posteriors bucketed on a 1e-12 grid.

    keys are distinct, reps holds the posterior of the first row in each
    bucket and counts the rows per bucket.  With a (S, 2^n) ratio table and
    (S, n) p each posterior leads with its sample index, so no bucket mixes
    samples.
    """
    q = chunk_posteriors(labels, ratio, p)
    if q.ndim == 3:
        samples, rows, n = q.shape
        sample = np.repeat(np.arange(samples, dtype=float), rows)
        q = np.column_stack((sample, q.reshape(-1, n)))
    rounded = np.round(q, 12) + 0.0  # normalize -0.0 so equal keys compare equal
    order, starts = _runs(rounded)
    counts = np.diff(np.append(starts, order.size))
    acc.append((rounded[order[starts]], q[order[starts]], counts))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): rows of ``keys`` stably sorted by their bytes, and where each run begins.

    keys[order[starts]] are the distinct rows, each at its first
    occurrence.  Sorting one bytes field per row is several times faster
    than a lexsort over the columns; the order is not numeric, and no
    caller needs it to be.
    """
    keys = np.ascontiguousarray(keys)
    raw = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    order = np.argsort(raw, kind="stable")
    ranked = raw[order]
    head = np.ones(order.size, dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(head)


def _class_worker(args: tuple) -> list:
    prefix, maxes, n, chunk_rows, ratio, p = args
    acc: list = []
    for labels in _label_chunks(n, chunk_rows, prefix, maxes):
        _class_chunk(acc, labels, ratio, p)
    return acc


def class_scan(n: int, ratio: np.ndarray, p: np.ndarray, workers: int = 1) -> np.ndarray:
    """Distinct Jeffrey posteriors with multiplicities (``_merge_within_tolerance``'s table).

    ``ratio`` is R = ``_ratio_table(pstar, p)``, built by the caller.
    Posteriors are bucketed on a 1e-12 grid first, then buckets whose
    representatives sit within ``TOL_DEDUP`` in max-norm are merged, so
    sub-tolerance collisions count as genuine multiplicity.  A (S, 2^n)
    table with (S, n) p answers S samples in one pass: each posterior
    leads with its sample index, at least 1 apart, so no class spans two
    samples, and a sample's records are bitwise the one-sample call's.
    """
    parts = _reduce(_class_worker, (ratio, p), operator.add, n, workers)
    return _merge_within_tolerance(parts, linked=not certify_singletons(ratio, p).all())


def _merge_within_tolerance(
    parts: list, chunk_rows: int = CHUNK_ROWS, linked: bool = True
) -> np.ndarray:
    """Single-linkage classes of the buckets in ``parts``, in max-norm <= TOL_DEDUP.

    A structured array, one record per class in lexicographic order: the
    ``posterior`` that is its buckets' first representative (a bucket keeps
    that of the first part that has it), and the ``multiplicity`` that
    counts their rows.  With ``linked`` false every bucket is its own class,
    as for a pair that ``certify_singletons`` certifies.
    """
    keys, reps, counts = (np.concatenate(col) for col in zip(*parts))
    if len(parts) > 1:
        order, starts = _runs(keys)
        reps, counts = reps[order[starts]], np.add.reduceat(counts[order], starts)
    order = np.lexsort(reps.T[::-1])
    reps, counts = reps[order], counts[order]
    root = _single_linkage(reps, chunk_rows) if linked else np.arange(counts.size)
    roots = np.flatnonzero(root == np.arange(root.size))
    table = np.empty(roots.size, [("posterior", float, reps.shape[1:]), ("multiplicity", np.int64)])
    table["posterior"] = reps[roots]
    table["multiplicity"] = np.bincount(root, weights=counts)[roots]
    return table


def _single_linkage(points: np.ndarray, block: int) -> np.ndarray:
    """root[i] = the smallest index joined to point i by hops of max-norm <= TOL_DEDUP.

    Candidate pairs come from a window on a generic projection c.x: a
    max-norm gap <= TOL_DEDUP moves c.x by at most TOL_DEDUP |c|_1, so a
    reach of twice that misses no pair.  (All-ones would not do: every
    posterior sums to one.)  Pairs are expanded at most ``block`` at a
    time, and a window entry already joined to its row through a run of
    equal roots is skipped, so a dense cluster links in about size/block
    rounds.
    """
    m = points.shape[0]
    root = np.arange(m)
    c = np.random.default_rng(0).uniform(1.0, 2.0, points.shape[1])
    proj = points @ c
    pos = np.argsort(proj, kind="stable")
    proj = proj[pos]
    hi = np.searchsorted(proj, proj + 2.0 * TOL_DEDUP * c.sum(), side="right")
    nxt = np.arange(1, m + 1)  # next window entry each row has not examined
    while True:
        # positions [i, run_end[i]) share row i's root, so pairing them adds nothing
        lab = root[pos]
        starts = np.append(np.flatnonzero(lab[1:] != lab[:-1]) + 1, m)
        run_end = starts[np.searchsorted(starts, np.arange(m), side="right")]
        lo = np.maximum(nxt, run_end)
        width = np.maximum(hi - lo, 0)
        ends = np.cumsum(width)
        taken = min(int(ends[-1]), block)
        if taken == 0:
            return root
        k = np.arange(taken)
        row = np.searchsorted(ends, k, side="right")
        col = lo[row] + k - (ends[row] - width[row])
        a, b = pos[row], pos[col]
        close = np.abs(points[a] - points[b]).max(axis=1) <= TOL_DEDUP
        _union(root, a[close], b[close])
        nxt = lo + np.clip(taken - (ends - width), 0, width)


def _union(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join a[k] with b[k] in place.

    root stays fully compressed: every point maps to the smallest index of
    its class.
    """
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return
        ra, rb = ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root[:] = up


# ---------------------------------------------------------------------------
# mixture identity


def _mixture_residual(
    ratio: np.ndarray, ratio_eps: np.ndarray, p: np.ndarray, eps: float
) -> float:
    """max |q_eps(i) - ((1-eps) q(i) + eps p(i))| over all Pi and i.

    ``ratio`` and ``ratio_eps`` are the R = ``_ratio_table`` of p* and of
    p_eps against p, built by the caller.  q_Pi(i) = R(B) p_i depends only
    on the block B that holds i, and for n >= 3 every nonempty proper
    subset B is a block of the proper non-trivial partition {B, complement},
    so checking each pair (B, i in B) once covers the scan: the blocks
    ``_blocks_holding`` lists for i, gathered as ``certify_singletons`` does.
    """
    blocks, p_col = _blocks_holding(p.size), p[:, None]
    q, q_eps = ratio[blocks] * p_col, ratio_eps[blocks] * p_col
    return float(np.abs(q_eps - ((1.0 - eps) * q + eps * p_col)).max())


# ---------------------------------------------------------------------------
# process-pool plumbing


@functools.lru_cache(maxsize=8)
def _completions(n: int) -> np.ndarray:
    """c[k, m]: full-length RGS below a prefix whose largest label is m, with k labels to place.

    c[0, m] = 1 and c[k, m] = (m + 1) c[k-1, m] + c[k-1, m+1]: the next label
    reuses one of the m + 1 labels in use or opens label m + 1.  This is the
    Bell recurrence, so the root's count c[n-1, 0] is Bell(n).  Entries with
    m + k >= n belong to no prefix and stay 0.  The recurrence runs on
    Python ints, and a count above the int64 range (Bell(26) and up) is
    stored as the int64 maximum (read-only).
    """
    top = np.iinfo(np.int64).max
    c = np.zeros((n, n), dtype=np.int64)
    row = [1] * n
    c[0] = 1
    for k in range(1, n):
        row = [(m + 1) * row[m] + row[m + 1] for m in range(n - k)]
        c[k, : n - k] = [min(x, top) for x in row]
    c.setflags(write=False)
    return c


def _frontier(n: int, runs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prefix, maxes, bounds): RGS prefixes cut into ``runs`` contiguous runs of about equal rows.

    Run r is prefix[bounds[r] : bounds[r + 1]], and together the runs
    cover the enumeration in order.  The prefixes grow one label at a time
    until no prefix's subtree holds more than 1/RUN_GRAIN of a run's share
    of the Bell(n) partitions; each prefix then goes to the run that holds
    the middle of its subtree, so a run misses its share by at most that
    1/RUN_GRAIN.
    """
    counts = _completions(n)
    total = int(counts[n - 1, 0])
    prefix = np.zeros((1, 1), dtype=np.int8)
    mx = np.zeros(1, dtype=np.int8)
    size = counts[n - 1, mx]
    while prefix.shape[1] < n - 1 and int(size.max()) * runs * RUN_GRAIN > total:
        prefix, mx = _grow(prefix, mx)
        size = counts[n - prefix.shape[1], mx]
    # twice each subtree's middle row, against twice each run's first row, scaled by runs
    middle = runs * (2 * np.cumsum(size) - size)
    bounds = np.searchsorted(middle, 2 * total * np.arange(runs + 1))
    return prefix, mx, bounds


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix fallback
        return multiprocessing.get_context()


def _pool_size(asked: int, cpus: int, tasks: int) -> int:
    """Processes to start: the ask, never above the usable CPUs or the tasks."""
    return max(1, min(asked, cpus, tasks))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _parallel_map(
    worker: Callable, common: tuple, n: int, workers: int, chunk_rows: int
) -> list:
    """worker(task) for each run of the enumeration, in a fork pool; one result per run, in order.

    The enumeration is cut into min(workers, usable CPUs) contiguous runs
    of about equal rows (see ``_frontier``), one process each, and a run's
    task is (prefixes, maxes, n, chunk_rows) + common.
    """
    cpus = _usable_cpus()
    prefix, mx, bounds = _frontier(n, min(workers, cpus))
    tasks = [
        (prefix[a:b], mx[a:b], n, chunk_rows) + common
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    size = _pool_size(workers, cpus, len(tasks))
    with ProcessPoolExecutor(max_workers=size, mp_context=_pool_context()) as pool:
        futures = [pool.submit(worker, t) for t in tasks]
        return [f.result() for f in futures]
