"""Tests for the modeled working-set tracking (paper §7 memory reduction)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import MemoryMeter, SimWorld, cori_haswell, zero_cost


class TestMemoryMeter:
    def test_initial_peaks_zero(self):
        m = MemoryMeter(4)
        assert m.peak_overall() == 0.0
        assert m.stages() == []

    def test_high_water_mark_monotone(self):
        m = MemoryMeter(2)
        m.observe(0, 100.0)
        m.observe(0, 40.0)
        m.observe(0, 70.0)
        assert m.peak(0) == 100.0

    def test_per_rank_isolation(self):
        m = MemoryMeter(3)
        m.observe(0, 10.0)
        m.observe(2, 30.0)
        assert m.peak(0) == 10.0
        assert m.peak(1) == 0.0
        assert m.peak(2) == 30.0
        assert m.peak_overall() == 30.0

    def test_stage_attribution(self):
        m = MemoryMeter(2)
        m.observe(0, 50.0, stage="DetectOverlap")
        m.observe(1, 80.0, stage="DetectOverlap")
        m.observe(0, 20.0, stage="TrReduction")
        assert m.stage_peak("DetectOverlap") == 80.0
        assert m.stage_peak("TrReduction") == 20.0
        assert m.stage_peak("nonexistent") == 0.0
        assert m.by_stage() == {"DetectOverlap": 80.0, "TrReduction": 20.0}
        assert m.stages() == ["DetectOverlap", "TrReduction"]

    def test_bad_rank_rejected(self):
        m = MemoryMeter(2)
        with pytest.raises(IndexError):
            m.observe(2, 1.0)
        with pytest.raises(IndexError):
            m.observe(-1, 1.0)

    def test_negative_bytes_rejected(self):
        m = MemoryMeter(1)
        with pytest.raises(ValueError):
            m.observe(0, -1.0)

    def test_bad_nprocs_rejected(self):
        with pytest.raises(ValueError):
            MemoryMeter(0)

    @given(
        samples=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0, max_value=1e9, allow_nan=False),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_peak_is_max_of_samples(self, samples):
        m = MemoryMeter(4)
        best = np.zeros(4)
        for rank, nbytes in samples:
            m.observe(rank, nbytes)
            best[rank] = max(best[rank], nbytes)
        for r in range(4):
            assert m.peak(r) == best[r]
        assert m.peak_overall() == best.max()


class TestWorldIntegration:
    def test_world_has_meter(self):
        world = SimWorld(4, zero_cost())
        assert isinstance(world.memory, MemoryMeter)
        assert world.memory.nprocs == 4

    def test_observe_memory_uses_current_stage(self):
        world = SimWorld(2, zero_cost())
        with world.stage_scope("MyStage"):
            world.map_ranks(lambda ctx: ctx.observe_memory(123.0))
        assert world.memory.stage_peak("MyStage") == 123.0

    def test_observe_memory_applies_volume_scale(self):
        world = SimWorld(1, cori_haswell().scaled(1000.0))
        world.map_ranks(lambda ctx: ctx.observe_memory(10.0))
        assert world.memory.peak(0) == 10.0 * 1000.0
