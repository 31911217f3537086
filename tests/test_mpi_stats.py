"""Unit tests for the comm log, stage clock and timing report."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.mpi import CommEvent, CommLog, StageClock, TimingReport
from repro.pipeline.report import rank_breakdown_table


def _event(op="alltoallv", stage="s", nbytes=100, t=0.5):
    return CommEvent(
        op=op, stage=stage, nprocs=4, total_bytes=nbytes,
        max_bytes=nbytes, messages=3, modeled_seconds=t,
    )


class TestCommLog:
    def test_aggregates_filterable(self):
        log = CommLog()
        log.record(_event(op="bcast", stage="a", nbytes=10))
        log.record(_event(op="alltoallv", stage="a", nbytes=20))
        log.record(_event(op="alltoallv", stage="b", nbytes=30))
        assert log.total_bytes() == 60
        assert log.total_bytes(op="alltoallv") == 50
        assert log.total_bytes(stage="a") == 30
        assert log.total_bytes(op="alltoallv", stage="b") == 30

    def test_clear(self):
        log = CommLog()
        log.record(_event())
        log.clear()
        assert len(log) == 0
        assert log.total_bytes() == 0


class TestStageClock:
    def test_stage_time_is_max_over_ranks(self):
        clock = StageClock(4)
        clock.charge_compute("x", 0, 1.0)
        clock.charge_compute("x", 1, 3.0)
        assert clock.stage_seconds("x") == 3.0

    def test_comm_charges_all_ranks(self):
        clock = StageClock(4)
        clock.charge_comm_all("x", 2.0)
        assert np.allclose(clock.per_rank_seconds("x"), 2.0)

    def test_comm_charges_subset(self):
        clock = StageClock(4)
        clock.charge_comm_all("x", 2.0, ranks=[1, 3])
        assert list(clock.per_rank_seconds("x")) == [0.0, 2.0, 0.0, 2.0]

    def test_compute_and_comm_separated(self):
        clock = StageClock(2)
        clock.charge_compute("x", 0, 1.0)
        clock.charge_comm_all("x", 0.5)
        assert clock.stage_compute_seconds("x") == 1.0
        assert clock.stage_comm_seconds("x") == 0.5
        assert clock.stage_seconds("x") == 1.5

    def test_total_sums_stage_makespans(self):
        clock = StageClock(2)
        clock.charge_compute("a", 0, 1.0)
        clock.charge_compute("b", 1, 2.0)
        assert clock.total_seconds() == 3.0

    def test_stage_order_preserved(self):
        clock = StageClock(1)
        clock.charge_compute("first", 0, 1.0)
        clock.charge_compute("second", 0, 1.0)
        assert clock.stages() == ["first", "second"]

    def test_invalid_charges(self):
        clock = StageClock(2)
        with pytest.raises(IndexError):
            clock.charge_compute("x", 5, 1.0)
        with pytest.raises(ValueError):
            clock.charge_compute("x", 0, -1.0)
        with pytest.raises(ValueError):
            clock.charge_comm_all("x", -1.0)
        with pytest.raises(ValueError):
            StageClock(0)


class TestTimingReport:
    def test_from_clock_snapshot(self):
        clock = StageClock(2)
        clock.charge_compute("a", 0, 1.0)
        clock.charge_comm_all("a", 0.25)
        report = TimingReport.from_clock(clock, "test-machine", comm_bytes=42)
        assert report.machine == "test-machine"
        assert report.stage_seconds["a"] == pytest.approx(1.25)
        assert report.stage_comm_seconds["a"] == pytest.approx(0.25)
        assert report.total_seconds == pytest.approx(1.25)
        assert report.comm_bytes == 42


class TestImbalanceAndPercentiles:
    """A stage's load profile over ranks, as the footer of
    :func:`~repro.pipeline.report.rank_breakdown_table` reports it from
    the clock's per-rank totals: max, median and max/mean imbalance."""

    def _footer(self, clock):
        result = SimpleNamespace(world=SimpleNamespace(clock=clock))
        rows = rank_breakdown_table("t", result).splitlines()[-3:]
        return {row.split()[0]: [float(v) for v in row.split()[1:]] for row in rows}

    def _skewed_clock(self):
        clock = StageClock(4)
        for rank, sec in enumerate((1.0, 1.0, 1.0, 5.0)):
            clock.charge_compute("CountKmer", rank, sec)
        return clock

    def _idle_clock(self):
        clock = StageClock(4)
        clock.charge_compute("CountKmer", 0, 0.0)  # opened, charged nothing
        return clock

    def test_imbalance_is_max_over_mean(self):
        assert self._footer(self._skewed_clock())["imbal"] == [5.0 / 2.0]

    def test_balanced_stage_is_one(self):
        clock = StageClock(4)
        clock.charge_comm_all("CountKmer", 2.0)
        assert self._footer(clock)["imbal"] == [1.0]

    def test_uncharged_stage_is_one(self):
        assert self._footer(self._idle_clock())["imbal"] == [1.0]

    def test_comm_counts_toward_imbalance(self):
        clock = StageClock(2)
        clock.charge_compute("CountKmer", 0, 1.0)
        clock.charge_comm_all("CountKmer", 1.0, ranks=[0])
        # rank 0 carries all 2.0s, rank 1 none: max/mean = 2.0
        assert self._footer(clock)["imbal"] == [2.0]

    def test_percentiles(self):
        footer = self._footer(self._skewed_clock())
        assert footer["p50"] == [1.0]
        assert footer["max"] == [5.0]

    def test_uncharged_stage_percentile_is_zero(self):
        footer = self._footer(self._idle_clock())
        assert footer["p50"] == [0.0]
        assert footer["max"] == [0.0]
