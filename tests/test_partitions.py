import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inacc import (
    NotProper,
    OutOfRange,
    SetPartition,
    TooSmall,
    UtilityFunction,
    adjacent_pair_partition,
    bell_number,
    enumerate_proper_nontrivial,
    level_set_partition,
    proper_nontrivial_count,
)

from inacc.partitions import pair_partition

from oracles import blocks_to_rgs, brute_proper_partitions

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147, 10: 115975}


class TestBellNumbers:
    @pytest.mark.parametrize("n,expected", sorted(BELL.items()))
    def test_known_values(self, n, expected):
        assert bell_number(n) == expected

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            bell_number(0)
        with pytest.raises(OutOfRange):
            bell_number(26)

    def test_wide_integers(self):
        assert bell_number(25) == 4638590332229999353

    @pytest.mark.parametrize("n", [5.0, True, "5"])
    def test_non_integers_are_refused(self, n):
        with pytest.raises(OutOfRange, match="integer"):
            bell_number(n)

    def test_a_float_is_refused_after_a_numpy_integer(self):
        # the numpy integer equals 5, so a keyed cache would hand 5.0 its count
        assert bell_number(np.int64(5)) == 52
        with pytest.raises(OutOfRange):
            bell_number(5.0)

    def test_a_numpy_integer_counts_after_a_float(self):
        with pytest.raises(OutOfRange):
            bell_number(5.0)
        assert bell_number(np.int64(5)) == 52


class TestEnumeration:
    def test_n3_exact_stream(self):
        got = [str(pi) for pi in enumerate_proper_nontrivial(3)]
        assert got == ["0,0,1", "0,1,0", "0,1,1"]
        blocks = [pi.blocks() for pi in enumerate_proper_nontrivial(3)]
        assert blocks == [
            ((1, 2), (3,)),
            ((1, 3), (2,)),
            ((1,), (2, 3)),
        ]

    def test_n4_count_is_13(self):
        assert sum(1 for _ in enumerate_proper_nontrivial(4)) == 13
        assert proper_nontrivial_count(4) == 13

    def test_too_small(self):
        with pytest.raises(TooSmall):
            next(enumerate_proper_nontrivial(2))

    def test_a_float_n_is_refused(self):
        with pytest.raises(OutOfRange, match="integer"):
            next(enumerate_proper_nontrivial(5.0))

    def test_a_numpy_integer_n_counts(self):
        assert sum(1 for _ in enumerate_proper_nontrivial(np.int64(4))) == 13

    def test_int8_labels_bound_n(self):
        # 128 blocks take labels 0..127, the most int8 holds
        first = next(enumerate_proper_nontrivial(129))
        assert first.rgs == (0,) * 128 + (1,)
        with pytest.raises(OutOfRange, match="n <= 129"):
            next(enumerate_proper_nontrivial(130))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_count_invariant(self, n):
        assert sum(1 for _ in enumerate_proper_nontrivial(n)) == bell_number(n) - 2

    @pytest.mark.parametrize("n", range(3, 7))
    def test_matches_brute_force_enumeration(self, n):
        ours = {pi.rgs for pi in enumerate_proper_nontrivial(n)}
        brute = {blocks_to_rgs(blocks, n) for blocks in brute_proper_partitions(n)}
        assert ours == brute

    def test_deterministic_stream(self):
        first = [pi.rgs for pi in enumerate_proper_nontrivial(6)]
        second = [pi.rgs for pi in enumerate_proper_nontrivial(6)]
        assert first == second

    def test_lexicographic_order(self):
        seq = [pi.rgs for pi in enumerate_proper_nontrivial(5)]
        assert seq == sorted(seq)


class TestSetPartition:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_roundtrip_rgs_blocks_rgs(self, n):
        for pi in enumerate_proper_nontrivial(n):
            again = SetPartition.from_blocks(pi.blocks())
            assert again.rgs == pi.rgs

    def test_rejects_non_canonical(self):
        with pytest.raises(OutOfRange):
            SetPartition([0, 2, 1])  # label 2 appears before 1
        with pytest.raises(OutOfRange):
            SetPartition([1, 0, 0])

    def test_rejects_improper(self):
        with pytest.raises(OutOfRange):
            SetPartition([0, 0, 0])  # coarsest
        with pytest.raises(OutOfRange):
            SetPartition([0, 1, 2])  # finest

    def test_rejects_non_integer_labels(self):
        with pytest.raises(OutOfRange):
            SetPartition([0, 0, 1.7])
        assert SetPartition([0, 0, 1.0]).rgs == (0, 0, 1)

    def test_from_blocks_unsorted_and_empty(self):
        # blocks are labelled by their smallest member; empty ones are dropped
        pi = SetPartition.from_blocks([[5, 3], [], [4, 1], [2]])
        assert pi.rgs == (0, 1, 2, 0, 2)
        assert pi.blocks() == ((1, 4), (2,), (3, 5))

    def test_parse_rgs(self):
        assert SetPartition.parse("0,0,1").blocks() == ((1, 2), (3,))

    def test_parse_blocks(self):
        assert SetPartition.parse("{1,2}|{3}").rgs == (0, 0, 1)
        assert SetPartition.parse("{3}|{1,2}").rgs == (0, 0, 1)

    def test_parse_garbage(self):
        with pytest.raises((OutOfRange, ValueError)):
            SetPartition.parse("{1,2}|{2,3}")

    def test_format_blocks(self):
        assert SetPartition([0, 0, 1]).format_blocks() == "{1,2}|{3}"

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=100)
    def test_random_blocks_roundtrip(self, n, data):
        labels = [0] + [
            data.draw(st.integers(0, min(i, n - 2))) for i in range(1, n)
        ]
        # canonicalize the random labelling, then check the round trip
        seen: dict[int, int] = {}
        rgs = []
        for lbl in labels:
            if lbl not in seen:
                seen[lbl] = len(seen)
            rgs.append(seen[lbl])
        if not 2 <= max(rgs) + 1 <= n - 1:
            return
        pi = SetPartition(rgs)
        assert SetPartition.from_blocks(pi.blocks()).rgs == pi.rgs
        assert SetPartition.parse(str(pi)).rgs == pi.rgs
        assert SetPartition.parse(pi.format_blocks()).rgs == pi.rgs


class TestAdjacentPair:
    def test_examples(self):
        assert adjacent_pair_partition(1, 3).blocks() == ((1, 2), (3,))
        assert adjacent_pair_partition(2, 3).blocks() == ((1,), (2, 3))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            adjacent_pair_partition(3, 3)
        with pytest.raises(OutOfRange):
            adjacent_pair_partition(0, 4)

    def test_a_float_index_is_refused(self):
        # int(1.5) would give the partition of {1,2}
        with pytest.raises(OutOfRange, match="integer"):
            adjacent_pair_partition(1.5, 4)

    def test_a_float_n_is_refused(self):
        with pytest.raises(OutOfRange, match="integer"):
            adjacent_pair_partition(1, 4.0)

    def test_a_float_pair_index_is_refused(self):
        # int(1.7) would give the partition of {1,2}
        with pytest.raises(OutOfRange, match="integer"):
            pair_partition(0, 1.7, 4)

    def test_numpy_integer_indices_count(self):
        # ratio_order hands pair_partition numpy integers
        assert pair_partition(np.intp(2), np.int64(0), np.int64(4)).rgs == (0, 1, 0, 2)
        assert adjacent_pair_partition(np.int64(1), np.int64(3)).blocks() == ((1, 2), (3,))

    @pytest.mark.parametrize("n", [4, 6])
    def test_structure(self, n):
        for m in range(1, n):
            pi = adjacent_pair_partition(m, n)
            assert pi.block_count == n - 1
            sizes = sorted(len(b) for b in pi.blocks())
            assert sizes == [1] * (n - 2) + [2]
            assert (m, m + 1) in pi.blocks()


class TestLevelSets:
    def test_injective_values_not_proper(self):
        out = level_set_partition(UtilityFunction([1.5, 0.9, 0.6]))
        assert isinstance(out, NotProper)
        assert out.block_count == 3

    def test_one_repeat(self):
        out = level_set_partition(UtilityFunction([1.5, 1.5, 0.6]))
        assert isinstance(out, SetPartition)
        assert out.blocks() == ((1, 2), (3,))

    def test_constant_not_proper(self):
        out = level_set_partition(UtilityFunction([1, 1, 1]))
        assert isinstance(out, NotProper)
        assert out.block_count == 1

    def test_tolerance_grouping(self):
        out = level_set_partition(UtilityFunction([1.0, 1.0 + 1e-12, 2.0, 2.0]))
        assert isinstance(out, SetPartition)
        assert out.blocks() == ((1, 2), (3, 4))
