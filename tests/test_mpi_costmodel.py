"""Unit tests for the alpha-beta-gamma machine cost model."""

import math

import pytest

from repro.mpi import MACHINE_PRESETS, MachineModel, cori_haswell, summit_cpu, zero_cost


class TestPresets:
    def test_registry_contains_paper_machines(self):
        assert "cori-haswell" in MACHINE_PRESETS
        assert "summit-cpu" in MACHINE_PRESETS

    def test_preset_factories_return_named_models(self):
        assert cori_haswell().name == "cori-haswell"
        assert summit_cpu().name == "summit-cpu"

    def test_summit_has_simd_penalty(self):
        """The paper: alignment is slower on POWER9 (no SSE/AVX2)."""
        assert summit_cpu().simd_penalty > 1.0
        assert cori_haswell().simd_penalty == 1.0

    def test_summit_network_is_slower_per_rank(self):
        """The paper: Summit has lower network bandwidth per core."""
        assert summit_cpu().alpha > cori_haswell().alpha
        assert summit_cpu().beta > cori_haswell().beta

    def test_summit_has_more_memory(self):
        """Table 1: 512 GB vs 128 GB per node."""
        assert summit_cpu().node_memory_gb > cori_haswell().node_memory_gb

    def test_zero_cost_charges_nothing(self):
        m = zero_cost()
        assert m.op_time(1e9) == 0.0
        assert m.collective_time("alltoallv", 64, 1e9, 1e8) == 0.0


class TestOpTime:
    def test_linear_in_ops(self):
        m = cori_haswell()
        assert m.op_time(2000) == pytest.approx(2 * m.op_time(1000))

    def test_alignment_kind_applies_penalty(self):
        m = summit_cpu()
        assert m.op_time(1000, kind="alignment") == pytest.approx(
            m.op_time(1000) * m.simd_penalty
        )

    def test_negative_ops_rejected(self):
        with pytest.raises(ValueError):
            cori_haswell().op_time(-1)


class TestCollectiveTime:
    @pytest.mark.parametrize(
        "kind",
        ["bcast", "allgather", "gather", "allreduce",
         "reduce_scatter", "alltoall", "alltoallv"],
    )
    def test_nonnegative_and_zero_for_single_rank(self, kind):
        m = cori_haswell()
        assert m.collective_time(kind, 1, 1000, 1000) == 0.0
        assert m.collective_time(kind, 16, 1000, 100) > 0.0

    def test_monotone_in_bytes(self):
        m = cori_haswell()
        small = m.collective_time("allgather", 16, 1_000, 100)
        large = m.collective_time("allgather", 16, 1_000_000, 100_000)
        assert large > small

    def test_alltoall_latency_grows_linearly_with_p(self):
        """Pairwise exchange: P-1 latency rounds (the latency-bound regime
        behind the paper's non-scaling TrReduction/ExtractContig stages)."""
        m = cori_haswell()
        t16 = m.collective_time("alltoallv", 16, 0, 0)
        t64 = m.collective_time("alltoallv", 64, 0, 0)
        assert t64 == pytest.approx(t16 * 63 / 15)

    def test_bcast_latency_grows_logarithmically(self):
        m = cori_haswell()
        t16 = m.collective_time("bcast", 16, 0, 1)
        t256 = m.collective_time("bcast", 256, 0, 1)
        assert t256 / t16 == pytest.approx(math.log2(256) / math.log2(16))

    def test_unknown_collective_rejected(self):
        with pytest.raises(ValueError):
            cori_haswell().collective_time("gossip", 4, 0, 0)

    def test_invalid_sizes_rejected(self):
        m = cori_haswell()
        with pytest.raises(ValueError):
            m.collective_time("bcast", 0, 0, 0)
        with pytest.raises(ValueError):
            m.collective_time("bcast", 4, -1, 0)


class TestVolumeScale:
    def test_scales_compute_and_bytes_not_latency(self):
        base = cori_haswell()
        scaled = base.scaled(1000.0)
        assert scaled.op_time(100) == pytest.approx(base.op_time(100) * 1000)
        # pure-latency collective unchanged
        assert scaled.collective_time("bcast", 64) == pytest.approx(
            base.collective_time("bcast", 64)
        )
        # bandwidth term scales
        assert scaled.collective_time("allgather", 4, 1000, 500) > base.collective_time(
            "allgather", 4, 1000, 500
        )

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            cori_haswell().scaled(0)
