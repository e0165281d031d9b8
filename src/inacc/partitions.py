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

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import _scan
from .core import MIN_OUTCOMES, OutOfRange, TooSmall, _is_int

#: Bell(26) is the first count ``_scan._completions`` saturates to the int64 maximum
#: (Bell(25) = 4,638,590,332,229,999,353 < 2^63 - 1)
BELL_MAX_N = 25


@dataclass(frozen=True)
class SetPartition:
    """A proper non-trivial partition of {1..n} in canonical RGS form."""

    rgs: tuple[int, ...]
    block_count: int

    def __init__(self, rgs: Iterable[int]):
        raw = tuple(rgs)
        r = tuple(int(x) for x in raw)
        if r != raw:
            raise OutOfRange(f"rgs labels must be integers, got {raw}")
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
        """Canonical partition of 1-based blocks: labelled by smallest member, empty ones ignored."""
        groups = [sorted(int(i) for i in b) for b in blocks]
        members = sorted(i for b in groups for i in b)
        n = len(members)
        if members != list(range(1, n + 1)):
            raise OutOfRange(f"blocks must partition 1..n, got {groups}")
        rgs = [0] * n
        for label, block in enumerate(sorted(filter(None, groups))):
            for i in block:
                rgs[i - 1] = label
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


def bell_number(n: int) -> int:
    """Bell(n), exact: the root count of the scan engine's RGS completion table.

    n must be an integer (``core._is_int``) in 1..BELL_MAX_N, else OutOfRange.
    """
    if not _is_int(n):
        raise OutOfRange(f"bell_number needs an integer n, got {n!r}")
    if not 1 <= n <= BELL_MAX_N:
        raise OutOfRange(f"bell_number supports 1 <= n <= {BELL_MAX_N}, got {n}")
    return int(_scan._completions(int(n))[n - 1, 0])


def proper_nontrivial_count(n: int) -> int:
    """|P| = Bell(n) - 2 for n >= 3."""
    if n < MIN_OUTCOMES:
        raise TooSmall(f"need n >= {MIN_OUTCOMES}, got {n}")
    return bell_number(n) - 2


def enumerate_proper_nontrivial(n: int) -> Iterator[SetPartition]:
    """All proper non-trivial partitions of {1..n}, lexicographic RGS order.

    Yields each partition exactly once; two runs over the same n produce
    identical sequences.  The total count is Bell(n) - 2.  Chunks are read
    in slices of 1,024 rows, so only a slice at a time becomes Python lists.
    n must be an integer (``core._is_int``), else OutOfRange.
    """
    if not _is_int(n):
        raise OutOfRange(f"enumerate_proper_nontrivial needs an integer n, got {n!r}")
    if n < MIN_OUTCOMES:
        raise TooSmall(f"need n >= {MIN_OUTCOMES}, got {n}")
    for labels in _scan.iter_label_chunks(n, chunk_rows=1024):
        for row in labels.tolist():
            yield SetPartition(row)


def pair_partition(i: int, j: int, n: int) -> SetPartition:
    """The partition of {1..n} whose only non-singleton block is {i+1, j+1} (0-based i != j)."""
    if not all(map(_is_int, (i, j, n))):
        raise OutOfRange(f"pair_partition needs integers, got i = {i!r}, j = {j!r}, n = {n!r}")
    i, j = sorted((int(i), int(j)))
    if not 0 <= i < j < n:
        raise OutOfRange(f"need two distinct outcomes among 0..{n - 1}, got {i} and {j}")
    return SetPartition(i if k == j else k - (k > j) for k in range(n))


def adjacent_pair_partition(m: int, n: int) -> SetPartition:
    """The partition whose only non-singleton block is {m, m+1}.

    Indices refer to whatever outcome ordering the caller is working in;
    requires integers (``core._is_int``) with 1 <= m <= n-1.
    """
    if not (_is_int(m) and _is_int(n)):
        raise OutOfRange(f"adjacent_pair_partition needs integers, got m = {m!r}, n = {n!r}")
    if n < MIN_OUTCOMES:
        raise TooSmall(f"need n >= {MIN_OUTCOMES}, got {n}")
    if not 1 <= m <= n - 1:
        raise OutOfRange(f"need 1 <= m <= {n - 1}, got {m}")
    return pair_partition(m - 1, m, n)
