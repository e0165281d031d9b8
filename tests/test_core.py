import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inacc import (
    DimensionMismatch,
    NonFiniteUtility,
    NotAProbability,
    PriorHasZero,
    ProbabilityVector,
    TooSmall,
    UtilityFunction,
    SetPartition,
    expectation,
)
from inacc.core import _json_value, require_pair


def weights(n=3, positive=False):
    lo = 0.05 if positive else 0.0
    return st.lists(
        st.floats(lo, 1.0, allow_nan=False), min_size=n, max_size=n
    ).filter(lambda w: sum(w) > 0.1)


def prob_vector(n=3, positive=False):
    return weights(n, positive).map(
        lambda w: ProbabilityVector(x / math.fsum(w) for x in w)
    )


def utility(n=3):
    return st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    ).map(UtilityFunction)


class TestProbabilityVector:
    def test_rejects_small_spaces(self):
        with pytest.raises(TooSmall):
            ProbabilityVector([0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(NotAProbability):
            ProbabilityVector([0.6, 0.6, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(NotAProbability):
            ProbabilityVector([0.5, 0.3, 0.3])

    def test_renormalizes_rounding_noise(self):
        pv = ProbabilityVector([0.5, 0.3, 0.2 + 5e-10])
        assert math.fsum(pv.weights) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(NotAProbability):
            ProbabilityVector([0.5, 0.3, 0.2 + 5e-9])

    def test_strictly_positive_flag(self):
        assert ProbabilityVector([0.5, 0.3, 0.2]).strictly_positive
        assert not ProbabilityVector([0.5, 0.5, 0.0]).strictly_positive

    def test_uniform(self):
        assert ProbabilityVector.uniform(4).weights == (0.25,) * 4

    def test_mass(self):
        pv = ProbabilityVector([0.5, 0.3, 0.2])
        assert pv.mass([1, 3]) == pytest.approx(0.7)


class TestUtilityFunction:
    def test_rejects_nan(self):
        with pytest.raises(NonFiniteUtility):
            UtilityFunction([1.0, float("nan"), 0.0])

    def test_rejects_infinity(self):
        with pytest.raises(NonFiniteUtility):
            UtilityFunction([1.0, float("inf"), 0.0])

    def test_shift_and_minus(self):
        f = UtilityFunction([1.0, 2.0, 3.0])
        assert f.shifted(1.0).values == (0.0, 1.0, 2.0)
        assert f.minus(UtilityFunction([1.0, 1.0, 1.0])).values == (0.0, 1.0, 2.0)


class TestExpectation:
    def test_constant_function(self):
        q = ProbabilityVector([0.5, 0.3, 0.2])
        assert expectation(UtilityFunction([1, 1, 1]), q) == pytest.approx(1.0)

    def test_indicator(self):
        q = ProbabilityVector([0.5, 0.3, 0.2])
        assert expectation(UtilityFunction([1, 0, 0]), q) == pytest.approx(0.5)

    def test_log_ratio_fixture(self):
        f = UtilityFunction([0.405465, -0.105361, -0.510826])
        q = ProbabilityVector([0.5, 0.3, 0.2])
        assert expectation(f, q) == pytest.approx(0.068959, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(UtilityFunction([1, 2, 3, 4]), ProbabilityVector.uniform(3))

    @given(prob_vector(), utility(), utility(), st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=100)
    def test_linearity(self, q, f, g, a, b):
        combo = UtilityFunction(a * x + b * y for x, y in zip(f.values, g.values))
        lhs = expectation(combo, q)
        rhs = a * expectation(f, q) + b * expectation(g, q)
        assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)

    @given(prob_vector(), st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=50)
    def test_constant_property(self, q, c):
        f = UtilityFunction([c] * q.n)
        assert expectation(f, q) == pytest.approx(c, abs=1e-9, rel=1e-9)


class TestRequirePair:
    def test_error_order(self):
        zero = ProbabilityVector([0.5, 0.5, 0.0])
        uniform = ProbabilityVector.uniform(3)
        # a mismatch is reported before a zero in the credence
        with pytest.raises(DimensionMismatch):
            require_pair(ProbabilityVector.uniform(4), zero)
        with pytest.raises(DimensionMismatch):
            require_pair(uniform, zero, UtilityFunction([1, 0, 0, 0]))
        with pytest.raises(PriorHasZero):
            require_pair(uniform, zero, UtilityFunction([1, 0, 0]))
        # a zero in p* is the caller's business
        assert require_pair(zero, uniform, UtilityFunction([1, 0, 0])) == 3

    def test_refuses_a_subnormal_credence(self):
        pstar = ProbabilityVector([0.5, 0.3, 0.2])
        with pytest.raises(PriorHasZero, match="subnormal"):
            require_pair(pstar, ProbabilityVector([1e-320, 0.5, 0.5]))
        smallest = ProbabilityVector([sys.float_info.min, 0.5, 0.5])
        assert require_pair(pstar, smallest) == 3


class TestJsonValue:
    def test_maps_library_types(self):
        value = {
            2: ProbabilityVector([0.5, 0.25, 0.25]),
            1: (UtilityFunction([1, -1, 0]), SetPartition([0, 0, 1]), None),
        }
        assert _json_value(value) == {
            "1": [[1.0, -1.0, 0.0], "0,0,1", None],
            "2": [0.5, 0.25, 0.25],
        }
        assert list(_json_value(value)) == ["1", "2"]

    @pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), {1, 2}, object()])
    def test_refuses_values_without_a_json_form(self, value):
        with pytest.raises(TypeError):
            _json_value(value)
