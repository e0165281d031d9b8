import math

import numpy as np
import pytest

from inacc import (
    PriorHasZero,
    ProbabilityVector,
    SetPartition,
    enumerate_proper_nontrivial,
    in_blind_spot,
    jeffrey_posterior,
    posterior_equals_target,
    radon_nikodym,
)

from conftest import random_positive_pair
from oracles import brute_jeffrey, brute_proper_partitions, ratio_constant_on_blocks

UNIFORM3 = ProbabilityVector.uniform(3)
PSTAR3 = ProbabilityVector([0.5, 0.3, 0.2])


class TestJeffreyPosterior:
    def test_fixture_block_12(self):
        q = jeffrey_posterior(PSTAR3, UNIFORM3, SetPartition([0, 0, 1]))
        assert q.weights == pytest.approx((0.4, 0.4, 0.2), abs=1e-12)

    def test_fixture_block_13(self):
        q = jeffrey_posterior(PSTAR3, UNIFORM3, SetPartition([0, 1, 0]))
        assert q.weights == pytest.approx((0.35, 0.3, 0.35), abs=1e-12)

    def test_fixed_point_when_equal(self):
        for pi in enumerate_proper_nontrivial(3):
            q = jeffrey_posterior(PSTAR3, PSTAR3, pi)
            assert q.weights == pytest.approx(PSTAR3.weights, abs=1e-12)

    def test_rejects_zero_prior(self):
        with pytest.raises(PriorHasZero):
            jeffrey_posterior(PSTAR3, ProbabilityVector([0.5, 0.5, 0]), SetPartition([0, 0, 1]))

    def test_dimension_mismatch(self):
        from inacc import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            jeffrey_posterior(PSTAR3, ProbabilityVector.uniform(4), SetPartition([0, 0, 1]))
        with pytest.raises(DimensionMismatch):
            jeffrey_posterior(PSTAR3, UNIFORM3, SetPartition([0, 0, 1, 1]))

    def test_radon_nikodym_rejects_zero_prior(self):
        with pytest.raises(PriorHasZero):
            radon_nikodym(PSTAR3, ProbabilityVector([0.5, 0.5, 0]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            p_star, p = random_positive_pair(rng, n)
            for blocks in brute_proper_partitions(n):
                pi = SetPartition.from_blocks(blocks)
                q = jeffrey_posterior(p_star, p, pi)
                expected = brute_jeffrey(list(p_star.weights), list(p.weights), blocks)
                assert q.weights == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_normalization_and_extension_property(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            p_star, p = random_positive_pair(rng, n)
            for pi in enumerate_proper_nontrivial(n):
                q = jeffrey_posterior(p_star, p, pi)
                assert math.fsum(q.weights) == pytest.approx(1.0, abs=1e-9)
                for block in pi.blocks():
                    # q extends the restriction of p* to the partition algebra
                    assert q.mass(block) == pytest.approx(p_star.mass(block), abs=1e-9)


class TestRadonNikodym:
    def test_fixture(self):
        r = radon_nikodym(PSTAR3, UNIFORM3)
        assert r.values == pytest.approx((1.5, 0.9, 0.6), abs=1e-12)
        assert r.injective

    def test_identity(self):
        r = radon_nikodym(PSTAR3, PSTAR3)
        assert r.values == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
        assert not r.injective

    def test_repeated_ratio(self):
        r = radon_nikodym(ProbabilityVector([0.4, 0.4, 0.2]), UNIFORM3)
        assert r.values == pytest.approx((1.2, 1.2, 0.6), abs=1e-12)
        assert not r.injective

    def test_near_tie_declared_equal(self):
        p_star = ProbabilityVector([0.4, 0.4 + 1e-13, 0.2 - 1e-13])
        assert not radon_nikodym(p_star, UNIFORM3).injective

    def test_normalization_invariant(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 8):
            p_star, p = random_positive_pair(rng, n)
            r = radon_nikodym(p_star, p)
            total = math.fsum(v * w for v, w in zip(r.values, p.weights))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestPosteriorEqualsTarget:
    def test_identity_pair_always_true(self):
        for pi in enumerate_proper_nontrivial(3):
            assert posterior_equals_target(PSTAR3, PSTAR3, pi)

    def test_fixture_false(self):
        assert not posterior_equals_target(PSTAR3, UNIFORM3, SetPartition([0, 0, 1]))

    def test_block_constant_ratio_true(self):
        p_star = ProbabilityVector([0.4, 0.4, 0.2])
        assert posterior_equals_target(p_star, UNIFORM3, SetPartition([0, 0, 1]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equivalence_with_ratio_constancy(self, n):
        """q_Pi = p* iff the density ratio is constant on every block."""
        rng = np.random.default_rng(40 + n)
        pairs = [random_positive_pair(rng, n) for _ in range(10)]
        # engineered pairs with genuinely block-constant ratios
        p = ProbabilityVector.uniform(n)
        w = [2.0] * (n // 2) + [1.0] * (n - n // 2)
        p_star = ProbabilityVector([x / sum(w) for x in w])
        pairs.append((p_star, p))
        for p_star, p in pairs:
            ratio = radon_nikodym(p_star, p).values
            for blocks in brute_proper_partitions(n):
                pi = SetPartition.from_blocks(blocks)
                assert posterior_equals_target(p_star, p, pi) == ratio_constant_on_blocks(
                    ratio, blocks
                )


class TestBlindSpot:
    def test_fixture_member(self):
        res = in_blind_spot(PSTAR3, UNIFORM3)
        assert res.member
        assert res.witness is None

    def test_constant_ratio_first_witness(self):
        res = in_blind_spot(UNIFORM3, UNIFORM3)
        assert not res.member
        assert res.witness is not None
        assert res.witness.rgs == (0, 0, 1)  # pair of the first two tied ratios
        assert posterior_equals_target(UNIFORM3, UNIFORM3, res.witness)

    def test_level_set_witness(self):
        p_star = ProbabilityVector([0.4, 0.4, 0.2])
        res = in_blind_spot(p_star, UNIFORM3)
        assert not res.member
        assert res.witness.blocks() == ((1, 2), (3,))
        assert posterior_equals_target(p_star, UNIFORM3, res.witness)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_exhaustive_oracle(self, n):
        rng = np.random.default_rng(60 + n)
        pairs = [random_positive_pair(rng, n) for _ in range(10)]
        pairs.append((ProbabilityVector.uniform(n), ProbabilityVector.uniform(n)))
        for p_star, p in pairs:
            res = in_blind_spot(p_star, p)
            reachable = any(
                posterior_equals_target(p_star, p, pi)
                for pi in enumerate_proper_nontrivial(n)
            )
            assert res.member == (not reachable)
            if not res.member:
                assert posterior_equals_target(p_star, p, res.witness)

    def test_witness_with_improper_level_sets(self):
        # four-way ratio tie: the first two tied outcomes form the pair block
        n = 4
        res = in_blind_spot(ProbabilityVector.uniform(n), ProbabilityVector.uniform(n))
        assert not res.member
        assert res.witness.rgs == (0, 0, 1, 2)
        assert posterior_equals_target(
            ProbabilityVector.uniform(n), ProbabilityVector.uniform(n), res.witness
        )

    def test_chained_near_ties_need_the_pair_witness(self):
        # adjacent ratio gaps of about 0.95e-9 chain seven outcomes into one
        # level set spanning about 5.7e-9: a block that big averages the
        # ratios off p* by more than TOL_NUM, while a pair block stays within
        chain = 1.0 + 0.95e-9 * np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 0.0])
        cases = [
            # the level sets collapse to one block
            ([0.45, 0.02, 0.02, 0.02, 0.02, 0.45, 0.02], chain, "0,0,0,0,0,0,1"),
            # the level sets are a proper partition and still miss p*
            ([0.45, 0.02, 0.02, 0.02, 0.02, 0.45, 0.02, 0.02], np.append(chain, 1.5),
             "0,0,0,0,0,0,0,1"),
        ]
        for raw, r, coarse in cases:
            p_arr = np.array(raw) / sum(raw)
            p, p_star = ProbabilityVector(p_arr), ProbabilityVector(r * p_arr / (p_arr @ r))
            assert not posterior_equals_target(p_star, p, SetPartition.parse(coarse))
            res = in_blind_spot(p_star, p)
            assert not res.member
            assert res.witness.block_count == p.n - 1
            assert posterior_equals_target(p_star, p, res.witness)
