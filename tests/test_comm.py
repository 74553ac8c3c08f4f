import pytest

from mapfkit import (
    CommLedger,
    IterationComm,
    SubpathSegment,
    comm_time,
    intersection_graph_bits,
    iteration_path_bits,
    path_bits,
    source_goal_bits,
    speedup,
)


def seg_of_length(length, start_t=0, agent=0):
    states = tuple((start_t + i, 0, start_t + i) for i in range(length + 1))
    # x-coordinate walks right; only start time and length matter for bits
    return SubpathSegment(agent, 0, states)


class TestSourceGoalBits:
    def test_table_scale(self):
        assert source_goal_bits(64, 100) == 2 * 64 * 7

    def test_single_agent_tiny_map(self):
        assert source_goal_bits(1, 2) == 2

    def test_zero_agents(self):
        assert source_goal_bits(0, 100) == 0

    def test_negative_agent_count_rejected(self):
        with pytest.raises(ValueError, match="agent count must be nonnegative"):
            source_goal_bits(-1, 8)


class TestIterationPathBits:
    def test_no_pending(self):
        assert iteration_path_bits([], 64, 100) == 0

    def test_single_segment_path(self):
        assert iteration_path_bits([[seg_of_length(10)]], 64, 100) == 53

    def test_sums_over_agents(self):
        lists = [[seg_of_length(10)], [seg_of_length(3)], [seg_of_length(0)]]
        expected = 53 + (6 + 14 + 12) + (6 + 14 + 3)
        assert iteration_path_bits(lists, 64, 100) == expected


class TestIntersectionGraphBits:
    def test_no_intersections(self):
        assert intersection_graph_bits([0, 0, 0], 64) == 0

    def test_one_agent_two_intersections(self):
        assert intersection_graph_bits([2], 64) == 2 * 6 * 2

    def test_four_agents_two_conflicts(self):
        # two conflicts, each reported once: 2 * ceil(log2 4) bits per pair
        assert intersection_graph_bits([1, 1], 4) == 2 * 2 * 2


class TestReservationTableBits:
    # the final table goes out as one whole-path segment per agent, priced
    # by the codec's path_bits as solve_variant prices it

    def test_single_trivial_path(self):
        assert path_bits([seg_of_length(0, agent=0)], 1, 100) == 0 + 14 + 3

    def test_two_paths(self):
        segs = [seg_of_length(10, agent=0), seg_of_length(10, agent=1)]
        assert path_bits(segs, 64, 100) == 2 * (6 + 14 + 33)

    def test_empty(self):
        assert path_bits([], 64, 100) == 0


class TestCommTime:
    def test_empty_ledger(self):
        assert comm_time(CommLedger()) == 0.0

    def test_one_second_at_rate(self):
        ledger = CommLedger([IterationComm(0, 8 * 10**7, 0)], rt_bits=0)
        assert comm_time(ledger, 8e7) == 1.0

    def test_linear_in_rate(self):
        ledger = CommLedger(
            [IterationComm(100, 2000, 300), IterationComm(50, 1500, 0)], rt_bits=700
        )
        t1 = comm_time(ledger, 1e6)
        t2 = comm_time(ledger, 2e6)
        assert t1 == 2 * t2

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        ledger = CommLedger([IterationComm(128, 1000, 24)], rt_bits=500)
        with pytest.raises(ValueError, match="data rate must be positive and finite"):
            comm_time(ledger, rate)

    def test_source_goal_toggle(self):
        # the source/goal broadcast always counts toward the total
        ledger = CommLedger([IterationComm(128, 1000, 24)], rt_bits=500)
        assert ledger.total_bits() == 128 + 1000 + 24 + 500
        assert comm_time(ledger, 1.0) == 128 + 1000 + 24 + 500

    def test_additivity_under_reordering(self):
        entries = [IterationComm(10, 20, 30), IterationComm(1, 2, 3), IterationComm(7, 0, 5)]
        a = CommLedger(list(entries), rt_bits=11)
        b = CommLedger(list(reversed(entries)), rt_bits=11)
        assert a.total_bits() == b.total_bits()

    def test_monotone_in_pending(self):
        base = [[seg_of_length(4)]]
        more = base + [[seg_of_length(0)]]
        assert iteration_path_bits(more, 64, 100) > iteration_path_bits(base, 64, 100)


class TestSpeedup:
    def test_break_even(self):
        assert speedup(1.25, 1.0, 0.25) == 1.0

    def test_arithmetic(self):
        assert speedup(1.0, 0.2, 0.05) == pytest.approx(4.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            speedup(1.0, 1.0, -0.1)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            comm_time(CommLedger(), 0.0)
