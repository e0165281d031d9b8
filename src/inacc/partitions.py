"""Proper non-trivial set partitions of {1..n} and Bell numbers.

A partition is stored as a restricted-growth string (RGS): entry i is the
block label of outcome i+1, labels appearing in first-use order starting
at 0.  Proper non-trivial means the block count m satisfies 2 <= m <= n-1,
which excludes exactly the coarsest (one block) and finest (all singletons)
partitions; the remaining count is Bell(n) - 2.

Enumeration is streaming and lexicographic in the RGS encoding: it reads
the label chunks of :mod:`inacc._scan` and never materializes the whole
set, because Bell(13) is already ~2.8e7.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from . import _scan
from .core import (
    MIN_OUTCOMES,
    TOL_NUM,
    OutOfRange,
    TooSmall,
    UtilityFunction,
)

#: Bell-triangle recurrence is exact but quadratic; cap keeps it instant.
BELL_MAX_N = 25


@dataclass(frozen=True)
class SetPartition:
    """A proper non-trivial partition of {1..n} in canonical RGS form."""

    rgs: tuple[int, ...]
    block_count: int

    def __init__(self, rgs: Iterable[int]):
        r = tuple(int(x) for x in rgs)
        n = len(r)
        if n < MIN_OUTCOMES:
            raise TooSmall(f"partition of {n} outcomes; need >= {MIN_OUTCOMES}")
        if r[0] != 0:
            raise OutOfRange(f"rgs must start at 0, got {r}")
        top = 0
        for x in r[1:]:
            if not 0 <= x <= top + 1:
                raise OutOfRange(f"not a restricted-growth string: {r}")
            top = max(top, x)
        m = top + 1
        if not 2 <= m <= n - 1:
            raise OutOfRange(f"{m} blocks on {n} outcomes is not proper non-trivial")
        object.__setattr__(self, "rgs", r)
        object.__setattr__(self, "block_count", m)

    @property
    def n(self) -> int:
        return len(self.rgs)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as tuples of 1-based outcome labels, in label order."""
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for i, lbl in enumerate(self.rgs):
            out[lbl].append(i + 1)
        return tuple(tuple(b) for b in out)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Build from blocks of 1-based labels; encoding is canonicalized."""
        groups = [sorted(int(i) for i in b) for b in blocks]
        members = sorted(i for b in groups for i in b)
        n = len(members)
        if members != list(range(1, n + 1)):
            raise OutOfRange(f"blocks must partition 1..n, got {groups}")
        label_of: dict[int, int] = {}
        for j, b in enumerate(groups):
            for i in b:
                label_of[i] = j
        # relabel in first-use order to restore canonical form
        seen: dict[int, int] = {}
        rgs = []
        for i in range(1, n + 1):
            raw = label_of[i]
            if raw not in seen:
                seen[raw] = len(seen)
            rgs.append(seen[raw])
        return cls(rgs)

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        """Parse either "0,0,1" (RGS) or "{1,2}|{3}" (blocks)."""
        s = text.strip()
        if "{" in s or "|" in s:
            blocks = []
            for part in s.split("|"):
                part = part.strip().strip("{}")
                if not part:
                    raise OutOfRange(f"empty block in {text!r}")
                blocks.append([int(tok) for tok in part.split(",")])
            return cls.from_blocks(blocks)
        return cls(int(tok) for tok in s.split(","))

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.rgs)

    def format_blocks(self) -> str:
        return "|".join(
            "{" + ",".join(str(i) for i in b) + "}" for b in self.blocks()
        )


@dataclass(frozen=True)
class NotProper:
    """Signal that a grouping is not a proper non-trivial partition."""

    block_count: int
    reason: str


@functools.lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    """Bell(n) via the Bell-triangle recurrence, exact integers."""
    if not 1 <= n <= BELL_MAX_N:
        raise OutOfRange(f"bell_number supports 1 <= n <= {BELL_MAX_N}, got {n}")
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def proper_nontrivial_count(n: int) -> int:
    """|P| = Bell(n) - 2 for n >= 3."""
    if n < MIN_OUTCOMES:
        raise TooSmall(f"need n >= {MIN_OUTCOMES}, got {n}")
    return bell_number(n) - 2


def enumerate_proper_nontrivial(n: int) -> Iterator[SetPartition]:
    """All proper non-trivial partitions of {1..n}, lexicographic RGS order.

    Yields each partition exactly once; two runs over the same n produce
    identical sequences.  The total count is Bell(n) - 2.
    """
    if n < MIN_OUTCOMES:
        raise TooSmall(f"need n >= {MIN_OUTCOMES}, got {n}")
    for labels in _scan.iter_label_chunks(n):
        for row in labels.tolist():
            yield SetPartition(row)


def adjacent_pair_partition(m: int, n: int) -> SetPartition:
    """The partition whose only non-singleton block is {m, m+1}.

    Indices refer to whatever outcome ordering the caller is working in;
    requires 1 <= m <= n-1.
    """
    if n < MIN_OUTCOMES:
        raise TooSmall(f"need n >= {MIN_OUTCOMES}, got {n}")
    if not 1 <= m <= n - 1:
        raise OutOfRange(f"need 1 <= m <= {n - 1}, got {m}")
    rgs = []
    label = 0
    for i in range(1, n + 1):
        rgs.append(label)
        if i != m:  # outcome m shares its label with m+1
            label += 1
    return SetPartition(rgs)


def level_set_partition(
    r: UtilityFunction, tol: float = TOL_NUM
) -> Union[SetPartition, NotProper]:
    """Group outcomes by equal r-values (within ``tol`` on sorted values).

    Returns the level-set partition when it is proper non-trivial, else a
    ``NotProper`` signal: a constant r gives one block, an injective r
    gives n singletons.
    """
    n = r.n
    order = sorted(range(n), key=lambda i: r.values[i])
    label_by_index = [0] * n
    label = 0
    for pos in range(1, n):
        prev_i, cur_i = order[pos - 1], order[pos]
        if r.values[cur_i] - r.values[prev_i] > tol:
            label += 1
        label_by_index[cur_i] = label
    label_by_index[order[0]] = 0
    m = label + 1
    if m == 1:
        return NotProper(block_count=1, reason="all values equal: single block")
    if m == n:
        return NotProper(block_count=n, reason="all values distinct: n singletons")
    # canonicalize labels to first-use order
    seen: dict[int, int] = {}
    rgs = []
    for lbl in label_by_index:
        if lbl not in seen:
            seen[lbl] = len(seen)
        rgs.append(seen[lbl])
    return SetPartition(rgs)
