"""Tests for the low-memory SpGEMM accumulation ("stream" merge mode) and
its pipeline plumbing (paper §7: assemble large genomes at low concurrency).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import DistributionError, PipelineError
from repro.mpi import ProcGrid, SimWorld, zero_cost
from repro.pipeline import Pipeline, PipelineConfig
from repro.seq import dna, tile_reads
from repro.sparse import DistSparseMatrix
from repro.sparse.semiring import arithmetic_semiring


def random_dist(grid, shape, density, seed, rng_shift=0):
    rng = np.random.default_rng(seed + rng_shift)
    n, m = shape
    nnz = max(int(n * m * density), 1)
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, m, size=nnz)
    vals = rng.integers(1, 5, size=nnz).astype(np.int64)
    # dedup coordinates to keep scipy comparison simple
    keys = rows * m + cols
    _, first = np.unique(keys, return_index=True)
    rows, cols, vals = rows[first], cols[first], vals[first]
    M = DistSparseMatrix.from_global_coo(grid, shape, rows, cols, vals)
    S = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    return M, S


class TestStreamMergeCorrectness:
    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_stream_equals_bulk_equals_scipy(self, nprocs):
        world = SimWorld(nprocs, zero_cost())
        grid = ProcGrid(world)
        A, As = random_dist(grid, (40, 30), 0.15, seed=nprocs)
        B, Bs = random_dist(grid, (30, 35), 0.15, seed=nprocs, rng_shift=77)
        want = (As @ Bs).tocoo()

        for mode in ("bulk", "stream"):
            C = A.spgemm(B, arithmetic_semiring(), merge_mode=mode)
            r, c, v = C.to_global_coo()
            got = sp.coo_matrix((v, (r, c)), shape=(40, 35))
            assert (got != want).nnz == 0, mode

    def test_unknown_merge_mode_rejected(self):
        world = SimWorld(1, zero_cost())
        grid = ProcGrid(world)
        A, _ = random_dist(grid, (5, 5), 0.5, seed=1)
        with pytest.raises(DistributionError):
            A.spgemm(A, arithmetic_semiring(), merge_mode="banana")

    def test_empty_operands(self):
        world = SimWorld(4, zero_cost())
        grid = ProcGrid(world)
        A = DistSparseMatrix.empty(grid, (10, 10), np.dtype(np.int64))
        for mode in ("bulk", "stream"):
            C = A.spgemm(A, arithmetic_semiring(), merge_mode=mode)
            assert C.nnz() == 0


class TestMemoryObservation:
    def test_spgemm_records_memory(self):
        world = SimWorld(4, zero_cost())
        grid = ProcGrid(world)
        A, _ = random_dist(grid, (60, 60), 0.2, seed=5)
        with world.stage_scope("Mult"):
            A.spgemm(A, arithmetic_semiring())
        assert world.memory.stage_peak("Mult") > 0

    def test_stream_peak_not_larger_than_bulk(self):
        """The streamed accumulator can never hold more than the bulk
        partial list at the same point of the algorithm."""
        peaks = {}
        for mode in ("bulk", "stream"):
            world = SimWorld(16, zero_cost())
            grid = ProcGrid(world)
            # duplicate-heavy product: dense-ish square
            A, _ = random_dist(grid, (80, 80), 0.3, seed=9)
            A.spgemm(A, arithmetic_semiring(), merge_mode=mode)
            peaks[mode] = world.memory.peak_overall()
        assert peaks["stream"] <= peaks["bulk"]


class TestPipelinePlumbing:
    @pytest.fixture(scope="class")
    def readset(self):
        rng = np.random.default_rng(11)
        genome = dna.random_codes(rng, 3000)
        return tile_reads(genome, 200, 80)

    def test_memory_mode_low_same_contigs(self, readset):
        fast = Pipeline.default().run(
            readset, PipelineConfig(nprocs=4, k=21, memory_mode="fast")
        )
        low = Pipeline.default().run(
            readset, PipelineConfig(nprocs=4, k=21, memory_mode="low")
        )
        a = sorted(c.sequence() for c in fast.contigs.contigs)
        b = sorted(c.sequence() for c in low.contigs.contigs)
        assert a == b

    def test_peak_memory_reported(self, readset):
        res = Pipeline.default().run(readset, PipelineConfig(nprocs=4, k=21))
        assert res.peak_memory_bytes > 0
        assert res.counts["peak_memory_bytes"] == res.peak_memory_bytes

    def test_low_mode_never_larger_peak(self, readset):
        fast = Pipeline.default().run(
            readset, PipelineConfig(nprocs=9, k=21, memory_mode="fast")
        )
        low = Pipeline.default().run(
            readset, PipelineConfig(nprocs=9, k=21, memory_mode="low")
        )
        assert low.peak_memory_bytes <= fast.peak_memory_bytes

    def test_merge_mode_property(self):
        assert PipelineConfig(memory_mode="fast").merge_mode == "bulk"
        assert PipelineConfig(memory_mode="low").merge_mode == "stream"

    def test_invalid_memory_mode_rejected(self):
        cfg = PipelineConfig(nprocs=4, memory_mode="medium")
        with pytest.raises(PipelineError):
            cfg.validate()


class TestCloudPreset:
    def test_preset_registered(self):
        from repro.mpi import MACHINE_PRESETS, aws_hpc

        assert "aws-hpc" in MACHINE_PRESETS
        m = aws_hpc()
        assert m.name == "aws-hpc"

    def test_cloud_latency_regime(self):
        """The cloud preset keeps Cori-class compute and bandwidth but
        ~10x the small-message latency (the measured EFA-vs-Aries gap)."""
        from repro.mpi import aws_hpc, cori_haswell

        cloud, cori = aws_hpc(), cori_haswell()
        assert cloud.gamma == cori.gamma
        assert cloud.alpha >= 5 * cori.alpha
        assert cloud.beta <= 2 * cori.beta

    def test_latency_bound_collective_slower_on_cloud(self):
        from repro.mpi import aws_hpc, cori_haswell

        cloud, cori = aws_hpc(), cori_haswell()
        # small payload, many ranks: latency dominates
        assert cloud.collective_time("alltoallv", 64, 1024, 64) > (
            cori.collective_time("alltoallv", 64, 1024, 64)
        )

    def test_bandwidth_bound_comparable(self):
        from repro.mpi import aws_hpc, cori_haswell

        cloud, cori = aws_hpc(), cori_haswell()
        big = 1 << 30
        t_cloud = cloud.collective_time("allgather", 4, big, big // 4)
        t_cori = cori.collective_time("allgather", 4, big, big // 4)
        assert t_cloud < 2 * t_cori

    def test_pipeline_runs_on_cloud_preset(self):
        rng = np.random.default_rng(13)
        genome = dna.random_codes(rng, 2000)
        rs = tile_reads(genome, 200, 80)
        res = Pipeline.default().run(rs, PipelineConfig(nprocs=4, k=21, machine="aws-hpc"))
        assert res.contigs.count >= 1
        assert res.modeled_total > 0
