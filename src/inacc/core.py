"""Finite probability vectors, posterior class tables, utility functions, tolerances and errors.

Outcome spaces are X = {1, ..., n} with n >= 3 (1-based labels at the API
surface, 0-based tuples internally).  Everything is double precision; all
equality and inequality checks in the package run against the shared
tolerances defined here instead of exact comparison, because the log-ratio
scores are irrational and exactness is unrecoverable anyway.

All types are immutable after construction and every operation is pure.
Reports become JSON through one rule, ``JsonReport``: vectors become their
weights or values, partitions their RGS strings, tuples lists, and dict
keys strings in sorted key order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

#: sum-to-one slack accepted before renormalizing a probability vector
TOL_NORM = 1e-9
#: generic comparison tolerance for scores, posteriors and identities
TOL_NUM = 1e-9
#: max-norm radius within which two posteriors count as the same class
TOL_DEDUP = 1e-9
#: minimum gap required for scores to count as pairwise distinct
TOL_SEP = 1e-9

#: smallest supported outcome count
MIN_OUTCOMES = 3


class InaccError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatch(InaccError):
    """Two vectors that must share an outcome count do not."""


class TooSmall(InaccError):
    """Outcome count below the supported minimum of 3."""


class NotAProbability(InaccError):
    """Negative weight, non-finite weight, or sum != 1 beyond tolerance."""


class PriorHasZero(InaccError):
    """The credence p must be strictly positive everywhere."""


class PStarHasZero(InaccError):
    """Strict mode requires the target measure to be strictly positive."""


class NonFiniteUtility(InaccError):
    """A utility function contains NaN or infinite entries."""


class OutOfRange(InaccError):
    """A scalar argument lies outside its documented domain."""


class NotInjective(InaccError):
    """The density ratio has ties, so the ordering machinery cannot run."""


class NotInBlindSpot(InaccError):
    """Construction requires the target to be unreachable by conditioning."""


class SeparationBelowTolerance(InaccError):
    """The available margin is within numeric tolerance of zero."""


class SeparationFailed(InaccError):
    """No separating direction found within the attempt budget."""


class NotAchievable(InaccError):
    """Requested degree is not in the achievable set."""


class RefusedTooLarge(InaccError):
    """Exhaustive enumeration refused: outcome count above resource guard."""


class VerificationFailed(InaccError):
    """A constructed object failed its own exhaustive re-verification."""


class TheoremViolation(InaccError):
    """A machine-checked theorem identity failed beyond tolerance.

    This can only arise from numeric error beyond tolerance or an
    implementation bug; it is never swallowed.
    """


def _as_float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(map(float, values))


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative weights over outcomes {1..n}, summing to one.

    Inputs whose sum is within ``TOL_NORM`` of 1 are renormalized so the
    stored weights sum to 1 exactly (up to float rounding); anything
    further off is rejected rather than silently fixed.
    """

    weights: tuple[float, ...]

    def __init__(self, weights: Iterable[float]):
        w = _as_float_tuple(weights)
        if len(w) < MIN_OUTCOMES:
            raise TooSmall(f"need at least {MIN_OUTCOMES} outcomes, got {len(w)}")
        if not all(map(math.isfinite, w)):
            raise NotAProbability("weights must be finite")
        if min(w) < 0.0:
            raise NotAProbability(f"negative weight in {w}")
        total = math.fsum(w)
        if abs(total - 1.0) > TOL_NORM:
            raise NotAProbability(f"weights sum to {total!r}, not 1")
        if total != 1.0:
            w = tuple(x / total for x in w)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        if n < MIN_OUTCOMES:
            raise TooSmall(f"need at least {MIN_OUTCOMES} outcomes, got {n}")
        return cls([1.0 / n] * n)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def strictly_positive(self) -> bool:
        return min(self.weights) > 0.0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)

    def mass(self, outcomes: Iterable[int]) -> float:
        """Total weight of a set of 1-based outcome labels."""
        return math.fsum(self.weights[i - 1] for i in outcomes)


@dataclass(frozen=True, eq=False)
class PosteriorClasses:
    """Distinct Jeffrey posteriors, the rows of ``posteriors``, with their ``multiplicities``.

    Validated once, for the faults and with the errors ``ProbabilityVector``
    checks per row; each row is then divided by its ``math.fsum``, bit for
    bit the weights a ``ProbabilityVector`` stores.  Ragged rows, or a
    multiplicity count off the row count, raise DimensionMismatch; no rows,
    or a multiplicity not an integer >= 1, OutOfRange.  Both arrays are read-only.
    """

    posteriors: np.ndarray
    multiplicities: np.ndarray

    def __init__(self, posteriors, multiplicities):
        if not isinstance(posteriors, np.ndarray) and len({np.shape(r) for r in posteriors}) > 1:
            raise DimensionMismatch("posterior rows of mixed lengths")
        q, m = np.asarray(posteriors, dtype=np.float64), np.asarray(multiplicities)
        if q.shape[:1] == (0,):
            raise OutOfRange("need at least one posterior class")
        if q.ndim != 2 or m.shape != q.shape[:1]:
            raise DimensionMismatch(f"{m.shape} multiplicities for posteriors of shape {q.shape}")
        if q.shape[1] < MIN_OUTCOMES:
            raise TooSmall(f"need at least {MIN_OUTCOMES} outcomes, got {q.shape[1]}")
        if not np.isfinite(q).all() or (q < 0.0).any():
            raise NotAProbability("posterior weights must be finite and non-negative")
        totals = np.array([math.fsum(row) for row in q.tolist()])
        off = np.flatnonzero(np.abs(totals - 1.0) > TOL_NORM)
        if off.size:
            raise NotAProbability(f"posterior {off[0]} sums to {float(totals[off[0]])!r}, not 1")
        if m.dtype.kind not in "iu" or (m < 1).any():
            raise OutOfRange("multiplicities must be integers >= 1")
        self._set(q / totals[:, None], m.astype(np.int64))

    def _set(self, posteriors: np.ndarray, multiplicities: np.ndarray) -> None:
        for name, value in (("posteriors", posteriors), ("multiplicities", multiplicities)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def take(self, rows) -> "PosteriorClasses":
        """The classes at indices ``rows``, in that order, not validated (nor renormalized) again."""
        out = object.__new__(PosteriorClasses)
        out._set(self.posteriors[rows], self.multiplicities[rows])
        return out

    def __len__(self) -> int:
        return self.multiplicities.size

    @property
    def n(self) -> int:
        return self.posteriors.shape[1]


@dataclass(frozen=True)
class UtilityFunction:
    """Real payoff per outcome; entries must be finite."""

    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]):
        v = _as_float_tuple(values)
        if not all(map(math.isfinite, v)):
            raise NonFiniteUtility(f"non-finite utility in {v}")
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls, n: int) -> "UtilityFunction":
        return cls([0.0] * n)

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def shifted(self, c: float) -> "UtilityFunction":
        """Pointwise subtraction of a constant: self - c."""
        return UtilityFunction(x - c for x in self.values)

    def minus(self, other: "UtilityFunction") -> "UtilityFunction":
        if other.n != self.n:
            raise DimensionMismatch(f"{self.n} vs {other.n} outcomes")
        return UtilityFunction(a - b for a, b in zip(self.values, other.values))


def expectation(f: UtilityFunction, q: ProbabilityVector) -> float:
    """Expected value of ``f`` under ``q``: sum_i f(i) q(i)."""
    if f.n != q.n:
        raise DimensionMismatch(f"utility has {f.n} outcomes, measure has {q.n}")
    return math.fsum(fi * qi for fi, qi in zip(f.values, q.weights))


def _expectations(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i values[s, i] weights[s, i] for each row s, by math.fsum as ``expectation`` sums."""
    return np.array([math.fsum(row) for row in (values * weights).tolist()])


def require_same_n(*items: ProbabilityVector | PosteriorClasses | UtilityFunction) -> int:
    """Common outcome count of the arguments, or DimensionMismatch."""
    ns = {item.n for item in items}
    if len(ns) != 1:
        raise DimensionMismatch(f"mixed outcome counts {sorted(ns)}")
    return ns.pop()


def require_pair(
    p_star: ProbabilityVector, p: ProbabilityVector, *utilities: UtilityFunction
) -> int:
    """Common outcome count of p*, p and any utilities; DimensionMismatch, then PriorHasZero.

    p must be strictly positive, and no weight of p may be subnormal: a
    block ratio p*(B)/p(B) overflows once p(B) falls below about 5e-309.
    """
    n = require_same_n(p_star, p, *utilities)
    if not p.strictly_positive:
        raise PriorHasZero("credence p must be strictly positive")
    smallest = min(p.weights)
    if smallest < sys.float_info.min:
        raise PriorHasZero(
            f"credence p has a subnormal weight {smallest!r}, below {sys.float_info.min!r}: "
            "the ratios p*(B)/p(B) would overflow"
        )
    return n


def _is_int(value) -> bool:
    """The one integer rule of every count and knob: an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_seed(seed: int) -> None:
    """OutOfRange unless seed is a nonnegative integer, as numpy's generators need."""
    if not _is_int(seed) or seed < 0:
        raise OutOfRange(f"seed must be a nonnegative integer, got {seed!r}")


class JsonReport:
    """Mixin for report dataclasses: the JSON form of every public field."""

    def to_json_dict(self) -> dict:
        return {
            f.name: _json_value(getattr(self, f.name))
            for f in fields(self)
            if not f.name.startswith("_")
        }


def _json_value(value):
    """The JSON form of one report value; TypeError for a value without one."""
    if value is None or isinstance(value, (int, float, str)):  # bool is an int
        return value
    if isinstance(value, ProbabilityVector):
        return list(value.weights)
    if isinstance(value, UtilityFunction):
        return list(value.values)
    if isinstance(value, JsonReport):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(value[k]) for k in sorted(value)}
    from .partitions import SetPartition  # partitions imports this module

    if isinstance(value, SetPartition):
        return str(value)
    raise TypeError(f"no JSON form for {type(value).__name__}: {value!r}")
