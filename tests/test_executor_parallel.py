"""Out-of-process executor contract: process pool and shm transport.

The PR 4 invariant extended across address spaces: a superstep produces
bit-identical results, clocks, comm logs and memory accounting whether
its ranks run serially or in spawned worker processes.  These tests pin
that contract at the
raw map_ranks level (P=64 with interleaved subcomm collectives and a
chaos leg), at the shared-memory transport level, and end-to-end through
the pipeline and the job-engine worker.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro import Pipeline, PipelineConfig
from repro.errors import CommunicatorError, RankFailure
from repro.faults import FaultInjector, FaultPlan, rank_crash
from repro.mpi import (
    SimWorld,
    SharedBufferRegistry,
    cori_haswell,
    make_executor,
)
from repro.mpi.procexec import ProcessExecutor, _chunk_bounds
from repro.mpi.shm import SHM_THRESHOLD_DEFAULT, attach_array, shm_dumps, shm_loads
from repro.seq import GenomeSpec, make_genome, sample_reads
from repro.service import JobService
from repro.telemetry import Tracer
from repro.telemetry.spans import TelemetryError

# ---------------------------------------------------------------------------
# module-level rank steps (out-of-process backends pickle these by
# reference; anything nested below is pickled by value by cloudpickle)
# ---------------------------------------------------------------------------


def _accounting_step(ctx, ops):
    ctx.charge_compute(ops)
    with ctx.stage_scope("Super/inner"):
        ctx.charge_compute(ops * 2, kind="alignment")
    ctx.observe_memory(float(1000 * (int(ctx) + 1)))
    return int(ctx)


def _sum_step(ctx, arr):
    ctx.charge_compute(arr.size)
    ctx.observe_memory(float(arr.nbytes))
    return int(arr.sum())


def _shared_panel_step(ctx, panel, scale):
    # every rank receives the SAME panel object (a broadcast): the
    # process backend must export its array once, not once per rank
    ctx.charge_compute(panel.size)
    return float(panel[int(ctx) % panel.size]) * scale


def _failing_step(ctx):
    ctx.charge_compute(1000)
    if int(ctx) == 2:
        raise RuntimeError("rank 2 exploded")
    return int(ctx)


def _toy_segment_step(ctxs, arrays, scale):
    """A segment step: one vectorized pass over the segment's concatenated
    arrays, split back per rank and charged through each rank's context."""
    sizes = [a.size for a in arrays]
    flat = np.concatenate(arrays) * np.repeat(scale, sizes)
    sums = np.diff(np.concatenate([[0.0], np.cumsum(flat)])[np.cumsum([0] + sizes)])
    for ctx, a in zip(ctxs, arrays):
        ctx.charge_compute(a.size)
        with ctx.stage_scope("Seg/inner"):
            ctx.charge_compute(3 * a.size, kind="alignment")
        ctx.observe_memory(float(a.nbytes))
        if a.size:
            ctx.record_span("numpy:toy", 0.0)
    return [(int(ctx), float(total)) for ctx, total in zip(ctxs, sums)]


def _world_access_step(ctx):
    return ctx.world.nprocs


def _return_unpicklable_step(ctx):
    return threading.Lock() if int(ctx) == 1 else int(ctx)


def _charged_world(backend, nprocs=4):
    w = SimWorld(nprocs, cori_haswell(), executor=backend)
    with w.stage_scope("Super"):
        w.map_ranks(_accounting_step, [100 * (r + 1) for r in range(nprocs)])
    return w


def _clock_state(w):
    return {
        s: [float(x) for x in w.clock.per_rank_seconds(s)]
        for s in w.clock.stages()
    }


def _assert_worlds_identical(a, b):
    assert a.clock.stages() == b.clock.stages()
    for stage in a.clock.stages():
        assert np.array_equal(
            a.clock.per_rank_seconds(stage), b.clock.per_rank_seconds(stage)
        )
    assert a.memory.by_stage() == b.memory.by_stage()
    assert len(a.log) == len(b.log)
    assert [e.op for e in a.log.events] == [e.op for e in b.log.events]
    assert a.log.total_bytes() == b.log.total_bytes()


# ---------------------------------------------------------------------------
# the shared-memory transport
# ---------------------------------------------------------------------------


class TestSharedBufferRegistry:
    def test_export_attach_roundtrip(self):
        reg = SharedBufferRegistry()
        try:
            arr = np.arange(50_000, dtype=np.int64)
            handle = reg.export(arr)
            view = attach_array(handle)
            assert np.array_equal(view, arr)
            assert not view.flags.writeable
            assert handle.nbytes == arr.nbytes
        finally:
            reg.close()

    def test_structured_dtype_roundtrip(self):
        dt = np.dtype([("src", "<i8"), ("dst", "<i8"), ("w", "<f4")])
        arr = np.zeros(10_000, dtype=dt)
        arr["src"] = np.arange(10_000)
        arr["w"] = 0.5
        reg = SharedBufferRegistry()
        try:
            view = attach_array(reg.export(arr))
            assert view.dtype == dt
            assert np.array_equal(view["src"], arr["src"])
            assert np.array_equal(view["w"], arr["w"])
        finally:
            reg.close()

    def test_same_array_exports_once(self):
        reg = SharedBufferRegistry()
        try:
            arr = np.ones(100_000)
            h1, h2 = reg.export(arr), reg.export(arr)
            assert h1 == h2
            assert reg.exported_arrays == 1
            assert reg.reused == 1
        finally:
            reg.close()

    def test_sweep_reclaims_idle_segments(self):
        reg = SharedBufferRegistry(keep_sweeps=2)
        try:
            reg.export(np.ones(1000))
            assert reg.live_segments == 1
            assert reg.sweep() == 0  # age 1: still fresh
            assert reg.sweep() == 0  # age 2: at the horizon
            assert reg.sweep() == 1  # age 3: reclaimed
            assert reg.live_segments == 0
        finally:
            reg.close()

    def test_touch_resets_idle_clock(self):
        reg = SharedBufferRegistry(keep_sweeps=2)
        try:
            arr = np.ones(1000)
            reg.export(arr)
            reg.sweep()
            reg.sweep()
            reg.export(arr)  # touched: survives the next sweeps
            assert reg.sweep() == 0
            assert reg.live_segments == 1
        finally:
            reg.close()

    def test_close_idempotent(self):
        reg = SharedBufferRegistry()
        reg.export(np.ones(1000))
        reg.close()
        reg.close()
        assert reg.live_segments == 0

    def test_bad_keep_sweeps(self):
        with pytest.raises(ValueError):
            SharedBufferRegistry(keep_sweeps=0)


class TestShmPickle:
    def test_small_arrays_travel_inline(self):
        reg = SharedBufferRegistry()
        try:
            obj = {"small": np.arange(16), "n": 3}
            blob = shm_dumps(obj, reg)
            assert reg.exported_arrays == 0
            out = shm_loads(blob)
            assert np.array_equal(out["small"], obj["small"])
        finally:
            reg.close()

    def test_large_arrays_divert_to_segments(self):
        reg = SharedBufferRegistry()
        try:
            big = np.arange(200_000, dtype=np.float64)
            blob = shm_dumps({"big": big, "tag": "x"}, reg)
            assert reg.exported_arrays == 1
            assert len(blob) < big.nbytes // 10  # handle, not payload
            out = shm_loads(blob)
            assert np.array_equal(out["big"], big)
            assert out["tag"] == "x"
        finally:
            reg.close()

    def test_threshold_is_configurable(self):
        reg = SharedBufferRegistry()
        try:
            arr = np.arange(64)  # 512 bytes
            shm_dumps(arr, reg, threshold=256)
            assert reg.exported_arrays == 1
        finally:
            reg.close()

    def test_no_registry_means_plain_cloudpickle(self):
        big = np.arange(200_000, dtype=np.float64)
        out = shm_loads(shm_dumps(big, None))
        assert np.array_equal(out, big)

    def test_views_and_object_arrays_stay_inline(self):
        reg = SharedBufferRegistry()
        try:
            big = np.arange(200_000, dtype=np.float64)
            strided = big[::2]  # not C-contiguous
            objs = np.array([None, "a"], dtype=object)
            out = shm_loads(shm_dumps((strided, objs), reg))
            assert reg.exported_arrays == 0
            assert np.array_equal(out[0], strided)
        finally:
            reg.close()


# ---------------------------------------------------------------------------
# ProcessExecutor semantics
# ---------------------------------------------------------------------------


class TestProcessExecutor:
    def test_results_in_rank_order(self):
        w = SimWorld(6, executor="process")
        payloads = [np.full(8, r, dtype=np.int64) for r in range(6)]
        assert w.map_ranks(_sum_step, payloads) == [8 * r for r in range(6)]

    def test_accounting_identical_to_serial(self):
        serial = _charged_world("serial")
        proc = _charged_world("process")
        _assert_worlds_identical(serial, proc)
        assert _clock_state(serial) == _clock_state(proc)

    def test_transactional_failure_charges_nothing(self):
        w = SimWorld(4, cori_haswell(), executor="process")
        with pytest.raises(RuntimeError, match="rank 2"):
            w.map_ranks(_failing_step)
        assert w.clock.stages() == []

    def test_unpicklable_step_raises_communicator_error(self):
        w = SimWorld(4, executor="process")
        lock = threading.Lock()

        def step(ctx):  # closure over a lock: cannot cross processes
            return lock.locked()

        with pytest.raises(CommunicatorError, match="not picklable"):
            w.map_ranks(step)

    def test_unpicklable_arg_names_the_rank(self):
        w = SimWorld(4, executor="process")
        args = [threading.Lock() for _ in range(4)]
        with pytest.raises(
            CommunicatorError, match="arguments for rank 0"
        ):
            w.map_ranks(_sum_step, args)

    def test_world_access_is_detached_error(self):
        w = SimWorld(4, executor="process")
        with pytest.raises(CommunicatorError, match="detached"):
            w.map_ranks(_world_access_step)

    def test_unpicklable_return_degrades_to_typed_error(self):
        w = SimWorld(4, executor="process")
        with pytest.raises(CommunicatorError, match="unpicklable"):
            w.map_ranks(_return_unpicklable_step)

    def test_single_rank_runs_inline(self):
        # one task gains nothing from IPC: no pool spin-up, and the
        # context keeps its world (in-process fast path)
        ex = ProcessExecutor(max_workers=1)
        try:
            w = SimWorld(1, executor=ex)
            assert w.map_ranks(_world_access_step) == [1]
            assert ex._pool is None
        finally:
            ex.shutdown()

    def test_shared_panel_exports_once(self):
        ex = ProcessExecutor(max_workers=1)
        try:
            w = SimWorld(8, executor=ex)
            panel = np.arange(100_000, dtype=np.float64)
            got = w.map_ranks(_shared_panel_step, [panel] * 8, [2.0] * 8)
            assert got == [2.0 * (r % panel.size) for r in range(8)]
            # one rank-shared array -> one segment, not eight
            assert ex.registry.exported_arrays == 1
            assert ex.registry.reused >= 7
        finally:
            ex.shutdown()

    def test_shutdown_rebuilds_lazily(self):
        w = SimWorld(4, executor="process")
        assert w.map_ranks(_sum_step, [np.ones(4)] * 4) == [4] * 4
        ex = make_executor("process")
        ex.shutdown()
        ex.shutdown()  # idempotent
        assert w.map_ranks(_sum_step, [np.ones(4)] * 4) == [4] * 4

    def test_worker_count_validation(self):
        with pytest.raises(CommunicatorError):
            ProcessExecutor(max_workers=0)

    def test_worker_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "banana")
        with pytest.raises(CommunicatorError, match="REPRO_PROCESS_WORKERS"):
            ProcessExecutor()._worker_count()
        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "0")
        with pytest.raises(CommunicatorError, match=">= 1"):
            ProcessExecutor()._worker_count()
        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "3")
        assert ProcessExecutor()._worker_count() == 3

    def test_chunk_bounds_cover_and_preserve_order(self):
        for n, c in [(64, 1), (64, 3), (5, 5), (7, 3)]:
            bounds = _chunk_bounds(n, c)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            flat = [i for lo, hi in bounds for i in range(lo, hi)]
            assert flat == list(range(n))


class TestRankFailurePickling:
    def test_provenance_survives_pickle(self):
        exc = RankFailure("rank 3 crashed", rank=3, stage="Overlap", superstep=2)
        out = pickle.loads(pickle.dumps(exc))
        assert (out.rank, out.stage, out.superstep) == (3, "Overlap", 2)
        assert "rank 3 crashed" in str(out)


# ---------------------------------------------------------------------------
# P=64 determinism with interleaved subcomm collectives (+ chaos leg)
# ---------------------------------------------------------------------------

P64 = 64


def _p64_workload(backend, injector=None):
    """Two P=64 supersteps around even/odd subcomm collectives."""
    rng = np.random.default_rng(1234)
    payloads = [rng.integers(0, 100, size=96 + 8 * r) for r in range(P64)]
    w = SimWorld(P64, cori_haswell(), executor=backend)
    w.fault_injector = injector
    with w.stage_scope("Phase"):
        sums = w.map_ranks(_sum_step, payloads)
        evens = w.subcomm(list(range(0, P64, 2)), label="even")
        odds = w.subcomm(list(range(1, P64, 2)), label="odd")
        tot_e = evens.allreduce(sums[0::2], lambda a, b: a + b)
        tot_o = odds.allreduce(sums[1::2], lambda a, b: a + b)
        with w.stage_scope("Phase/combine"):
            combined = w.map_ranks(
                _shared_panel_step,
                [np.array([tot_e, tot_o], dtype=np.float64)] * P64,
                [1.0] * P64,
            )
    return w, sums, combined


class TestP64Determinism:
    @pytest.mark.parametrize("backend", ["process"])
    def test_bit_identical_to_serial(self, backend):
        ws, sums_s, comb_s = _p64_workload("serial")
        wb, sums_b, comb_b = _p64_workload(backend)
        assert sums_s == sums_b
        assert comb_s == comb_b
        _assert_worlds_identical(ws, wb)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_chaos_rank_crash_rolls_back_then_recovers(self, backend):
        plan = FaultPlan(
            seed=5, rules=(rank_crash(stage="Phase", superstep=0, rank=37),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(RankFailure) as err:
            _p64_workload(backend, injector=injector)
        # provenance survives the process boundary
        assert err.value.rank == 37
        assert err.value.superstep == 0
        # the failed run charged nothing and a fresh world with the now-
        # exhausted injector reproduces the fault-free run bit-for-bit
        assert injector.exhausted
        w_retry, sums, comb = _p64_workload(backend, injector=injector)
        w_ref, sums_ref, comb_ref = _p64_workload("serial")
        assert (sums, comb) == (sums_ref, comb_ref)
        _assert_worlds_identical(w_ref, w_retry)

    def test_failed_superstep_charges_nothing_under_process(self):
        plan = FaultPlan(rules=(rank_crash(stage="Phase", rank=0),))
        w = SimWorld(P64, cori_haswell(), executor="process")
        w.fault_injector = FaultInjector(plan)
        with w.stage_scope("Phase"):
            with pytest.raises(RankFailure):
                w.map_ranks(_sum_step, [np.ones(8)] * P64)
        assert w.clock.stages() == []
        assert w.memory.by_stage() == {}


# ---------------------------------------------------------------------------
# segment steps: one call per contiguous rank range
# ---------------------------------------------------------------------------


def _segment_world(executor, nprocs):
    w = SimWorld(nprocs, cori_haswell(), executor=executor)
    tracer = Tracer().attach(w)
    return w, tracer


def _segment_superstep(w):
    """The toy segment step over random per-rank arrays, one rank empty."""
    rng = np.random.default_rng(w.nprocs)
    arrays = [
        rng.integers(0, 100, int(n)).astype(np.float64)
        for n in rng.integers(1, 6, w.nprocs)
    ]
    arrays[w.nprocs // 2] = np.empty(0)
    with w.stage_scope("Seg"):
        out = w.map_segments(
            _toy_segment_step, arrays, [float(r + 1) for r in range(w.nprocs)]
        )
    return out, [r for r, a in enumerate(arrays) if a.size]


@pytest.fixture(scope="module", params=[2, 3])
def segment_pool(request):
    pool = ProcessExecutor(max_workers=request.param)
    yield pool
    pool.shutdown()


class TestSegmentSteps:
    def test_identical_to_serial(self, segment_pool):
        """Per-rank results, clock, memory samples and tracer spans do not
        depend on the backend or on how the workers cut the ranks."""
        for nprocs in (1, 3, 4, 16):
            ws, ts = _segment_world("serial", nprocs)
            wp, tp = _segment_world(segment_pool, nprocs)
            out_s, busy = _segment_superstep(ws)
            out_p, _ = _segment_superstep(wp)
            assert out_p == out_s
            assert [r for r, _ in out_s] == list(range(nprocs))
            _assert_worlds_identical(ws, wp)
            assert ws.memory.peak_overall() == wp.memory.peak_overall()
            assert tp.digest() == ts.digest()
            for tracer in (ts, tp):
                kernels = [s for s in tracer.root.walk() if s.cat == "kernel"]
                assert [(s.rank, s.name, s.tier) for s in kernels] == [
                    (r, "toy", "numpy") for r in busy
                ]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("crashed,expect", [((2, 5), 2), ((5, 4), 4)])
    def test_crash_raises_lowest_rank_and_charges_nothing(
        self, backend, crashed, expect
    ):
        """With three workers at P = 8 the segments are [0, 3), [3, 6) and
        [6, 8): ranks 2 and 5 crash in two segments, 4 and 5 in one."""
        executor = ProcessExecutor(max_workers=3) if backend == "process" else backend
        w, tracer = _segment_world(executor, 8)
        w.fault_injector = FaultInjector(
            FaultPlan(rules=tuple(rank_crash(stage="Seg", rank=r) for r in crashed))
        )
        try:
            with pytest.raises(RankFailure) as err:
                _segment_superstep(w)
        finally:
            if backend == "process":
                executor.shutdown()
        assert err.value.rank == expect
        assert w.clock.stages() == []
        assert w.memory.by_stage() == {}
        with pytest.raises(TelemetryError, match="recorded nothing"):
            tracer.root


# ---------------------------------------------------------------------------
# pipeline-level equivalence (the acceptance contract)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def readset():
    genome = make_genome(GenomeSpec(length=5000, seed=31))
    return sample_reads(
        genome,
        depth=10,
        mean_length=420,
        rng=7,
        error_rate=0.002,
        error_mix=(1.0, 0.0, 0.0),
    )


def _assemble(reads, executor):
    cfg = PipelineConfig(nprocs=4, k=21, end_margin=20, executor=executor)
    return Pipeline.default().run(reads, cfg)


class TestPipelineEquivalenceParallel:
    @pytest.mark.parametrize("backend", ["process"])
    def test_artifacts_and_accounting_identical(self, readset, backend):
        a = _assemble(readset, "serial")
        b = _assemble(readset, backend)
        assert a.contig_digest() == b.contig_digest()
        assert [c.sequence() for c in a.contigs.contigs] == [
            c.sequence() for c in b.contigs.contigs
        ]
        assert a.counts == b.counts
        assert a.report.stage_seconds == b.report.stage_seconds
        assert a.report.stage_comm_seconds == b.report.stage_comm_seconds
        for stage in a.world.clock.stages():
            assert np.array_equal(
                a.world.clock.per_rank_seconds(stage),
                b.world.clock.per_rank_seconds(stage),
            )
        assert a.world.log.bytes_by_op() == b.world.log.bytes_by_op()
        assert a.world.memory.by_stage() == b.world.memory.by_stage()
        assert a.peak_memory_bytes == b.peak_memory_bytes


# ---------------------------------------------------------------------------
# job-engine worker executor knob
# ---------------------------------------------------------------------------

SRC = {
    "kind": "simulate",
    "length": 2500,
    "seed": 51,
    "read_length": 350,
    "stride": 140,
}
CFG = {"nprocs": 4, "k": 17, "reliable_lo": 1, "end_margin": 5}


class TestWorkerExecutorKnob:
    def test_worker_override_lands_in_summary(self, tmp_path):
        svc = JobService(tmp_path)
        job_id = svc.submit(SRC, CFG)
        done = svc.run_worker(executor="process")
        assert [r.job_id for r in done] == [job_id]
        assert svc.result(job_id)["executor"] == "process"

    def test_spec_executor_used_when_no_override(self, tmp_path):
        svc = JobService(tmp_path)
        job_id = svc.submit(SRC, dict(CFG, executor="process"))
        svc.run_worker()
        assert svc.result(job_id)["executor"] == "process"

    def test_env_default_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        svc = JobService(tmp_path)
        job_id = svc.submit(SRC, CFG)
        svc.run_worker()
        assert svc.result(job_id)["executor"] == "process"

    def test_bad_backend_fails_at_worker_start(self, tmp_path):
        svc = JobService(tmp_path)
        from repro.service import JobError

        with pytest.raises(JobError, match="unknown executor"):
            svc.worker(executor="warp")

    def test_cli_worker_accepts_executor_flag(self, tmp_path, capsys):
        from repro.cli import jobs as jobs_cli

        rc = jobs_cli.main(
            ["worker", "--root", str(tmp_path), "--executor", "process"]
        )
        assert rc == 0
        assert "processed 0 job(s)" in capsys.readouterr().out

    def test_process_backend_job_matches_serial(self, tmp_path):
        svc = JobService(tmp_path)
        a = svc.submit(SRC, CFG, name="serial-run")
        b = svc.submit(SRC, CFG, name="process-run")
        svc.run_worker(max_jobs=1)  # a, on the spec default (serial)
        svc.run_worker(max_jobs=1, executor="process")
        ra, rb = svc.result(a), svc.result(b)
        assert rb["executor"] == "process"
        assert ra["contig_digest"] == rb["contig_digest"]
        assert ra["contigs"] == rb["contigs"]
