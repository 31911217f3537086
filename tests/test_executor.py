"""Executor-backend semantics: map_ranks, RankContext accounting, and the
serial/process equivalence contract.

The tentpole invariant: a pipeline run produces bit-identical artifacts
and identical modeled cost/memory accounting whichever backend executes
the per-rank supersteps.  These tests pin that contract at three levels:
the raw ``map_ranks`` API, concurrent stage scoping + subcomm collectives,
and the full five-stage pipeline.
"""

from __future__ import annotations

import pathlib
import threading
import time

import numpy as np
import pytest

from repro import Pipeline, PipelineConfig
from repro.errors import CommunicatorError, PipelineError
from repro.mpi import (
    EXECUTOR_BACKENDS,
    ProcessExecutor,
    RankContext,
    SerialExecutor,
    SimWorld,
    cori_haswell,
    make_executor,
)
from repro.seq import GenomeSpec, make_genome, sample_reads

BACKENDS = list(EXECUTOR_BACKENDS)
# Steps that close over the world or mutate enclosing lists only make
# sense in-process: the process backend rejects them (steps must be
# picklable, enclosing mutation is lost) and has its own contract suite
# in test_executor_parallel.py.
IN_PROCESS = ["serial"]


# ---------------------------------------------------------------------------
# the executor registry
# ---------------------------------------------------------------------------


class TestMakeExecutor:
    def test_resolves_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)

    def test_all_backends_registered(self):
        assert EXECUTOR_BACKENDS == ("serial", "process")
        for name in EXECUTOR_BACKENDS:
            ex = make_executor(name)
            assert ex.name == name
            assert make_executor(name) is ex  # shared default instance
        assert make_executor("serial").in_process
        assert not make_executor("process").in_process

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert make_executor(ex) is ex

    def test_unknown_backend(self):
        with pytest.raises(CommunicatorError, match="unknown executor"):
            make_executor("fibers")

    def test_bad_worker_count(self):
        with pytest.raises(CommunicatorError):
            ProcessExecutor(max_workers=0)

    def test_shutdown_idempotent(self):
        ex = ProcessExecutor(max_workers=2)
        w = SimWorld(4, executor=ex)
        w.map_ranks(lambda ctx: int(ctx) * 2)
        ex.shutdown()
        ex.shutdown()
        # pool is rebuilt lazily after shutdown
        assert w.map_ranks(lambda ctx: int(ctx)) == [0, 1, 2, 3]
        ex.shutdown()

    def test_names_resolve_to_shared_instances(self):
        """Backend names share one instance (and one pool) process-wide."""
        assert make_executor("process") is make_executor("process")
        assert make_executor("serial") is make_executor("serial")
        # explicit construction still yields private instances
        assert ProcessExecutor() is not make_executor("process")

    def test_world_use_executor_swaps(self):
        w = SimWorld(4)
        assert w.executor.name == "serial"
        w.use_executor("process")
        assert w.executor.name == "process"
        with pytest.raises(CommunicatorError):
            w.use_executor("nope")


# ---------------------------------------------------------------------------
# map_ranks basics
# ---------------------------------------------------------------------------


class TestMapRanks:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_rank_order(self, backend):
        w = SimWorld(6, executor=backend)

        def step(ctx, x):
            # later ranks finish first when ranks overlap
            time.sleep(0.002 * (6 - int(ctx)))
            return (int(ctx), x * 10)

        assert w.map_ranks(step, list(range(6))) == [(r, r * 10) for r in range(6)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multiple_per_rank_args(self, backend):
        w = SimWorld(4, executor=backend)
        out = w.map_ranks(lambda ctx, a, b: a + b, [1, 2, 3, 4], [10, 20, 30, 40])
        assert out == [11, 22, 33, 44]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_args(self, backend):
        w = SimWorld(3, executor=backend)
        assert w.map_ranks(lambda ctx: int(ctx) ** 2) == [0, 1, 4]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_arg_length_validated(self, backend):
        w = SimWorld(4, executor=backend)
        with pytest.raises(CommunicatorError, match="expects 4 per-rank entries"):
            w.map_ranks(lambda ctx, a: a, [1, 2, 3])

    @pytest.mark.parametrize("backend", IN_PROCESS)
    def test_context_is_the_rank_integer(self, backend):
        w = SimWorld(4, executor=backend)
        slots = [None] * 4

        def step(ctx):
            assert isinstance(ctx, RankContext)
            assert ctx.rank == int(ctx)
            slots[ctx] = ctx + 100  # indexable and arithmetic like an int
            return ctx.world is w

        assert all(w.map_ranks(step))
        assert slots == [100, 101, 102, 103]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exceptions_propagate(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)

        def step(ctx):
            ctx.charge_compute(1000)
            if int(ctx) == 2:
                raise RuntimeError("rank 2 exploded")

        with pytest.raises(RuntimeError, match="rank 2"):
            w.map_ranks(step)
        # no partial merge: a failed superstep charges nothing
        assert w.clock.stages() == []


@pytest.mark.parametrize("backend", IN_PROCESS)
class TestInStepGuards:
    """Direct world accounting inside an in-process step errors -- a
    detached step (process backend) could not do it at all, so the guard
    keeps the backend-identical contract enforceable."""

    def test_world_charge_compute_rejected(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)
        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_ranks(lambda ctx: w.charge_compute(int(ctx), 10))

    def test_world_observe_memory_rejected(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)
        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_ranks(lambda ctx: w.observe_memory(int(ctx), 10.0))

    def test_collectives_rejected(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)
        with pytest.raises(CommunicatorError, match="collective"):
            w.map_ranks(lambda ctx: w.comm.barrier())

    def test_guard_lifts_after_superstep(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)
        w.map_ranks(lambda ctx: ctx.charge_compute(5))
        w.charge_compute(0, 10)  # fine between supersteps
        w.comm.barrier()

    def test_nested_map_ranks_rejected(self, backend):
        """A step has no business launching a superstep; it fails fast."""
        w = SimWorld(4, cori_haswell(), executor=backend)

        def outer(ctx):
            w.map_ranks(lambda inner: int(inner))

        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_ranks(outer)


def _halves(ctxs, values):
    """A toy segment step: one vectorized call for the whole segment."""
    doubled = np.asarray(values, dtype=np.int64) * 2
    for ctx, v in zip(ctxs, values):
        ctx.charge_compute(v)
    return doubled.tolist()


class TestMapSegments:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_rank_order(self, backend):
        w = SimWorld(5, cori_haswell(), executor=backend)
        assert w.map_segments(_halves, [1, 2, 3, 4, 5]) == [2, 4, 6, 8, 10]
        assert list(w.clock.per_rank_seconds("default")) == [
            cori_haswell().op_time(v) for v in [1, 2, 3, 4, 5]
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_arg_length_validated(self, backend):
        w = SimWorld(4, executor=backend)
        with pytest.raises(CommunicatorError, match="expects 4 per-rank entries"):
            w.map_segments(_halves, [1, 2, 3])

    @pytest.mark.parametrize("backend", IN_PROCESS)
    def test_serial_runs_one_segment(self, backend):
        w = SimWorld(6, executor=backend)
        seen = []

        def step(ctxs, values):
            seen.append([int(c) for c in ctxs])
            return values

        assert w.map_segments(step, list("abcdef")) == list("abcdef")
        assert seen == [[0, 1, 2, 3, 4, 5]]

    @pytest.mark.parametrize("backend", IN_PROCESS)
    def test_result_count_validated(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)
        with pytest.raises(CommunicatorError, match="3 results for 4 ranks"):
            w.map_segments(lambda ctxs: [ctx.charge_compute(9) for ctx in ctxs[1:]])
        assert w.clock.stages() == []

    @pytest.mark.parametrize("backend", IN_PROCESS)
    def test_collective_rejected(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)
        with pytest.raises(CommunicatorError, match="collective"):
            w.map_segments(lambda ctxs: [w.comm.barrier()] * len(ctxs))
        assert len(w.log) == 0

    @pytest.mark.parametrize("backend", IN_PROCESS)
    def test_world_charge_rejected(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)
        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_segments(lambda ctxs: [w.charge_compute(0, 10)] * len(ctxs))
        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_segments(lambda ctxs: [w.charge_compute_all([1] * 4)] * len(ctxs))
        assert w.clock.stages() == []
        # the guard lifts after the failed superstep
        w.charge_compute(0, 10)
        w.comm.barrier()

    @pytest.mark.parametrize("backend", IN_PROCESS)
    def test_nested_superstep_rejected(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)
        with pytest.raises(CommunicatorError, match="SimWorld.map_ranks"):
            w.map_segments(lambda ctxs: w.map_ranks(lambda ctx: 0))
        with pytest.raises(CommunicatorError, match="SimWorld.map_segments"):
            w.map_ranks(lambda ctx: w.map_segments(_halves, [1] * 4))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failure_charges_nothing(self, backend):
        w = SimWorld(4, cori_haswell(), executor=backend)

        def step(ctxs):
            for ctx in ctxs:
                ctx.charge_compute(1000)
            raise RuntimeError("segment exploded")

        with pytest.raises(RuntimeError, match="segment exploded"):
            w.map_segments(step)
        assert w.clock.stages() == []


class TestProcessFailureSemantics:
    def test_lowest_rank_exception_wins_and_all_ranks_drain(self, tmp_path):
        """A later rank failing *first in time* does not mask the lowest
        failing rank, and no orphan step keeps running after the raise."""
        w = SimWorld(4, executor="process")

        def step(ctx, done_dir):
            r = int(ctx)
            if r == 3:
                pathlib.Path(done_dir, str(r)).touch()
                raise RuntimeError("rank 3 failed fast")
            time.sleep(0.005 * (r + 1))
            pathlib.Path(done_dir, str(r)).touch()
            if r == 1:
                raise RuntimeError("rank 1 failed slow")

        with pytest.raises(RuntimeError, match="rank 1"):
            w.map_ranks(step, [str(tmp_path)] * 4)
        # every rank drained before the raise
        assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2", "3"]


# ---------------------------------------------------------------------------
# accounting through RankContext
# ---------------------------------------------------------------------------


def _charged_world(backend):
    w = SimWorld(4, cori_haswell(), executor=backend)
    with w.stage_scope("Super"):

        def step(ctx, ops):
            ctx.charge_compute(ops)
            with ctx.stage_scope("Super/inner"):
                ctx.charge_compute(ops * 2, kind="alignment")
            ctx.observe_memory(float(1000 * (int(ctx) + 1)))
            return int(ctx)

        w.map_ranks(step, [100, 200, 300, 400])
    return w


class TestRankContextAccounting:
    def test_backends_charge_identically(self):
        serial, proc = _charged_world("serial"), _charged_world("process")
        assert serial.clock.stages() == proc.clock.stages() == ["Super", "Super/inner"]
        for stage in serial.clock.stages():
            assert np.array_equal(
                serial.clock.per_rank_seconds(stage),
                proc.clock.per_rank_seconds(stage),
            )
        assert serial.memory.by_stage() == proc.memory.by_stage()

    def test_nested_scope_attribution(self):
        w = _charged_world("process")
        machine = cori_haswell()
        outer = w.clock.per_rank_seconds("Super")
        inner = w.clock.per_rank_seconds("Super/inner")
        for rank, ops in enumerate([100, 200, 300, 400]):
            assert outer[rank] == machine.op_time(ops)
            assert inner[rank] == machine.op_time(ops * 2, kind="alignment")

    def test_memory_scaled_by_volume_scale(self):
        w = SimWorld(2, cori_haswell().scaled(8.0), executor="process")
        w.map_ranks(lambda ctx: ctx.observe_memory(100.0))
        assert w.memory.peak(0) == 800.0
        assert w.memory.peak(1) == 800.0

    def test_worker_scopes_do_not_leak_to_main(self):
        def step(ctx):
            with ctx.stage_scope("Outer/deep"):
                ctx.charge_compute(50)

        for backend in BACKENDS:
            w = SimWorld(4, cori_haswell(), executor=backend)
            with w.stage_scope("Outer"):
                w.map_ranks(step)
                # per-rank scopes never touched the calling thread's stack
                assert w.stage == "Outer"
            assert w.clock.stages() == ["Outer/deep"]


# ---------------------------------------------------------------------------
# supersteps interleaved with subcomm collectives
# ---------------------------------------------------------------------------


def _superstep_with_subcomms(backend, seed=11):
    """A seeded mini-workload: two supersteps around subcomm collectives."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 100, size=64 + 16 * r) for r in range(4)]
    w = SimWorld(4, cori_haswell(), executor=backend)
    with w.stage_scope("Phase"):
        sums = w.map_ranks(
            lambda ctx, arr: (ctx.charge_compute(arr.size), int(arr.sum()))[1],
            payloads,
        )
        evens = w.subcomm([0, 2], label="even")
        odds = w.subcomm([1, 3], label="odd")
        tot_e = evens.allreduce([sums[0], sums[2]], lambda a, b: a + b)
        tot_o = odds.allreduce([sums[1], sums[3]], lambda a, b: a + b)
        with w.stage_scope("Phase/combine"):
            combined = w.map_ranks(
                lambda ctx: tot_e if int(ctx) % 2 == 0 else tot_o
            )
    return w, sums, combined


class TestSubcommInterleaving:
    def test_results_identical_across_backends(self):
        (ws, sums_s, comb_s) = _superstep_with_subcomms("serial")
        (wt, sums_t, comb_t) = _superstep_with_subcomms("process")
        assert sums_s == sums_t
        assert comb_s == comb_t
        assert ws.clock.stages() == wt.clock.stages()
        for stage in ws.clock.stages():
            assert np.array_equal(
                ws.clock.per_rank_seconds(stage), wt.clock.per_rank_seconds(stage)
            )
        assert len(ws.log) == len(wt.log)
        assert [e.op for e in ws.log.events] == [e.op for e in wt.log.events]
        assert ws.log.total_bytes() == wt.log.total_bytes()

    def test_subcomm_charges_only_member_ranks(self):
        w, _sums, _comb = _superstep_with_subcomms("process")
        per_rank = w.clock.per_rank_seconds("Phase")
        assert per_rank.shape == (4,)
        assert (per_rank > 0).all()

    def test_collectives_safe_from_worker_threads(self):
        """Misuse tolerance: concurrent collectives keep clock/log intact."""
        w = SimWorld(4, cori_haswell(), executor="serial")
        n_threads, reps = 8, 25
        errors = []

        def hammer():
            try:
                for _ in range(reps):
                    w.comm.barrier()
                    w.comm.allgather([1, 2, 3, 4])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(w.log) == n_threads * reps * 2
        machine = cori_haswell()
        expect = n_threads * reps * (
            machine.collective_time("barrier", 4)
            + machine.collective_time("allgather", 4, 32, 8)
        )
        got = w.clock.per_rank_seconds("default")
        assert np.allclose(got, expect)


# ---------------------------------------------------------------------------
# vectorized charge_compute_all
# ---------------------------------------------------------------------------


class TestChargeComputeAll:
    def test_matches_per_rank_loop(self):
        machine = cori_haswell()
        bulk, loop = SimWorld(4, machine), SimWorld(4, machine)
        ops = [10, 0, 345, 7]
        with bulk.stage_scope("S"):
            bulk.charge_compute_all(ops, kind="alignment")
        with loop.stage_scope("S"):
            for rank, n in enumerate(ops):
                loop.charge_compute(rank, n, kind="alignment")
        assert np.array_equal(
            bulk.clock.per_rank_seconds("S"), loop.clock.per_rank_seconds("S")
        )

    def test_zero_machine_creates_no_stage(self):
        w = SimWorld(4)  # zero-cost machine
        w.charge_compute_all([5, 5, 5, 5])
        assert w.clock.stages() == []

    def test_wrong_arity(self):
        w = SimWorld(4)
        with pytest.raises(CommunicatorError):
            w.charge_compute_all([1, 2, 3])

    def test_negative_rejected(self):
        w = SimWorld(2, cori_haswell())
        with pytest.raises(ValueError):
            w.charge_compute_all([1, -1])


# ---------------------------------------------------------------------------
# collective input validation (audit)
# ---------------------------------------------------------------------------


class TestCollectiveValidation:
    def test_alltoall_outer_arity_names_counts(self):
        w = SimWorld(4)
        with pytest.raises(CommunicatorError, match="expects 4 per-rank entries, got 3"):
            w.comm.alltoall([[0] * 4] * 3)

    def test_alltoall_row_arity_names_counts(self):
        w = SimWorld(4)
        rows = [[0] * 4, [0] * 4, [0] * 2, [0] * 4]
        with pytest.raises(CommunicatorError, match="row 2 has 2 entries, expected 4"):
            w.comm.alltoall(rows)

    def test_allgather_arity_names_counts(self):
        w = SimWorld(3)
        with pytest.raises(CommunicatorError, match="expects 3 per-rank entries, got 5"):
            w.comm.allgather([1, 2, 3, 4, 5])

    def test_reduce_scatter_arity_names_counts(self):
        w = SimWorld(3)
        arrs = [np.zeros(6, dtype=np.int64)] * 2
        with pytest.raises(CommunicatorError, match="expects 3 per-rank entries, got 2"):
            w.comm.reduce_scatter(arrs)

    def test_reduce_scatter_block_sizes_validated(self):
        w = SimWorld(2)
        arrs = [np.zeros(4, dtype=np.int64)] * 2
        with pytest.raises(CommunicatorError, match="block sizes"):
            w.comm.reduce_scatter(arrs, block_sizes=[4])
        with pytest.raises(CommunicatorError, match=">= 0"):
            w.comm.reduce_scatter(arrs, block_sizes=[6, -2])
        with pytest.raises(CommunicatorError, match="sum to"):
            w.comm.reduce_scatter(arrs, block_sizes=[1, 1])


# ---------------------------------------------------------------------------
# pipeline-level equivalence (the acceptance contract)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_readset():
    genome = make_genome(GenomeSpec(length=6000, seed=17))
    return genome, sample_reads(
        genome,
        depth=12,
        mean_length=450,
        rng=23,
        error_rate=0.002,
        error_mix=(1.0, 0.0, 0.0),
    )


def _run(reads, executor, **kwargs):
    cfg = PipelineConfig(
        nprocs=4, k=21, end_margin=20, executor=executor, **kwargs
    )
    return Pipeline.default().run(reads, cfg)


class TestPipelineEquivalence:
    def test_artifacts_and_accounting_identical(self, small_readset):
        _genome, reads = small_readset
        a = _run(reads, "serial")
        b = _run(reads, "process")
        # artifacts: bit-identical contig set
        assert [c.sequence() for c in a.contigs.contigs] == [
            c.sequence() for c in b.contigs.contigs
        ]
        assert [c.read_path for c in a.contigs.contigs] == [
            c.read_path for c in b.contigs.contigs
        ]
        assert [c.orientations for c in a.contigs.contigs] == [
            c.orientations for c in b.contigs.contigs
        ]
        assert a.counts == b.counts
        # accounting: identical StageClock and CommLog, to the bit
        assert a.world.clock.stages() == b.world.clock.stages()
        assert a.report.stage_seconds == b.report.stage_seconds
        assert a.report.stage_comm_seconds == b.report.stage_comm_seconds
        for stage in a.world.clock.stages():
            assert np.array_equal(
                a.world.clock.per_rank_seconds(stage),
                b.world.clock.per_rank_seconds(stage),
            )
        assert len(a.world.log) == len(b.world.log)
        assert a.world.log.bytes_by_op() == b.world.log.bytes_by_op()
        assert a.world.log.bytes_by_stage() == b.world.log.bytes_by_stage()
        # memory observation path is also backend-independent
        assert a.world.memory.by_stage() == b.world.memory.by_stage()
        assert a.peak_memory_bytes == b.peak_memory_bytes

    def test_polish_and_low_memory_identical(self, small_readset):
        _genome, reads = small_readset
        a = _run(reads, "serial", polish=True, memory_mode="low")
        b = _run(reads, "process", polish=True, memory_mode="low")
        assert [c.sequence() for c in a.contigs.contigs] == [
            c.sequence() for c in b.contigs.contigs
        ]
        assert a.report.stage_seconds == b.report.stage_seconds
        assert a.world.memory.by_stage() == b.world.memory.by_stage()

    def test_config_validates_executor(self):
        cfg = PipelineConfig(nprocs=4, executor="warp")
        with pytest.raises(PipelineError, match="unknown executor"):
            cfg.validate()

    def test_env_override_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert PipelineConfig().executor == "process"
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert PipelineConfig().executor == "serial"

    def test_executor_not_fingerprinted(self, small_readset, tmp_path):
        """Checkpoints written under one backend resume under the other."""
        _genome, reads = small_readset
        ckpt = str(tmp_path / "ckpt")
        cfg_a = PipelineConfig(nprocs=4, k=21, end_margin=20, executor="serial")
        first = Pipeline.default().run(reads, cfg_a, checkpoint_dir=ckpt)
        cfg_b = PipelineConfig(nprocs=4, k=21, end_margin=20, executor="process")
        second = Pipeline.default().run(reads, cfg_b, checkpoint_dir=ckpt)
        assert second.stages_run == []
        assert [n for n, why in second.stages_skipped if why == "checkpoint"] == [
            s for s in first.stages_run
        ]
        assert [c.sequence() for c in second.contigs.contigs] == [
            c.sequence() for c in first.contigs.contigs
        ]


# ---------------------------------------------------------------------------
# the deleted backends are rejected, with a typed error, at every door
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gone", ["thread", "mpi"])
class TestRemovedBackendsRejected:
    def test_config(self, gone):
        with pytest.raises(PipelineError, match=r"\['serial', 'process'\]"):
            PipelineConfig(nprocs=4, executor=gone).validate()

    def test_env(self, gone, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", gone)
        with pytest.raises(PipelineError, match=r"\['serial', 'process'\]"):
            PipelineConfig(nprocs=4).validate()

    def test_cli_flags(self, gone, tmp_path, capsys):
        from repro.cli import assemble_main
        from repro.cli import jobs as jobs_cli

        for main, argv in (
            (assemble_main, ["--preset", "c_elegans", "--executor", gone]),
            (jobs_cli.main, ["worker", "--root", str(tmp_path), "--executor", gone]),
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_service_job_fails_on_first_attempt(self, gone, tmp_path):
        from repro.service import JobService

        svc = JobService(tmp_path)
        job_id = svc.submit(
            {"kind": "simulate", "length": 2500, "seed": 51},
            {"nprocs": 4, "k": 17, "executor": gone},
        )
        (record,) = svc.run_worker()
        assert record.job_id == job_id and record.state == "failed"
        assert "unknown executor" in record.error
        # a spec error is terminal: no retry was scheduled, nothing left queued
        assert record.attempts == 1
        assert svc.run_worker() == []
