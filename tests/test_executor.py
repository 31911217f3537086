"""Superstep semantics: map_ranks / map_segments, RankContext accounting,
the in-step guard and fault injection at the superstep barrier.

Supersteps run on the calling thread, rank by rank (a segment step once
over every rank); what a run computes and charges is pinned end to end by
``tests/test_identity_pins.py`` and, with every rank step's arguments and
results pickled, by ``tests/test_rank_isolation.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import PipelineConfig
from repro.errors import CommunicatorError, RankFailure
from repro.faults import FaultInjector, FaultPlan, rank_crash
from repro.mpi import RankContext, SimWorld, cori_haswell
from repro.telemetry import Tracer
from repro.telemetry.spans import TelemetryError


# ---------------------------------------------------------------------------
# map_ranks basics
# ---------------------------------------------------------------------------


class TestMapRanks:
    def test_results_in_rank_order(self):
        w = SimWorld(6)
        order = []

        def step(ctx, x):
            order.append(int(ctx))
            return (int(ctx), x * 10)

        assert w.map_ranks(step, list(range(6))) == [(r, r * 10) for r in range(6)]
        assert order == list(range(6))

    def test_multiple_per_rank_args(self):
        w = SimWorld(4)
        out = w.map_ranks(lambda ctx, a, b: a + b, [1, 2, 3, 4], [10, 20, 30, 40])
        assert out == [11, 22, 33, 44]

    def test_no_args(self):
        w = SimWorld(3)
        assert w.map_ranks(lambda ctx: int(ctx) ** 2) == [0, 1, 4]

    def test_arg_length_validated(self):
        w = SimWorld(4)
        with pytest.raises(CommunicatorError, match="expects 4 per-rank entries"):
            w.map_ranks(lambda ctx, a: a, [1, 2, 3])

    def test_context_is_the_rank_integer(self):
        w = SimWorld(4)
        slots = [None] * 4

        def step(ctx):
            assert isinstance(ctx, RankContext) and isinstance(ctx, int)
            slots[ctx] = ctx + 100  # indexable and arithmetic like an int

        w.map_ranks(step)
        assert slots == [100, 101, 102, 103]

    def test_exceptions_propagate(self):
        w = SimWorld(4, cori_haswell())

        def step(ctx):
            ctx.charge_compute(1000)
            if int(ctx) == 2:
                raise RuntimeError("rank 2 exploded")

        with pytest.raises(RuntimeError, match="rank 2"):
            w.map_ranks(step)
        # no partial merge: a failed superstep charges nothing
        assert w.clock.stages() == []


class TestInStepGuards:
    """Direct world accounting inside a step errors: a rank charges only
    through its own context, and collectives stay between supersteps."""

    def test_world_charge_compute_rejected(self):
        w = SimWorld(4, cori_haswell())
        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_ranks(lambda ctx: w.charge_compute_all([10] * 4))

    def test_world_observe_memory_rejected(self):
        """The world has no memory sampler of its own: a step samples
        through its context, and a world charge in the same step fails
        the superstep before any sample is merged."""
        w = SimWorld(4, cori_haswell())
        assert not hasattr(w, "observe_memory")

        def step(ctx):
            ctx.observe_memory(10.0)
            w.charge_compute_all([10] * 4)

        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_ranks(step)
        assert w.memory.peak_overall() == 0

    def test_collectives_rejected(self):
        w = SimWorld(4, cori_haswell())
        with pytest.raises(CommunicatorError, match="collective"):
            w.map_ranks(lambda ctx: w.comm.allgather([0] * 4))

    def test_guard_lifts_after_superstep(self):
        w = SimWorld(4, cori_haswell())
        w.map_ranks(lambda ctx: ctx.charge_compute(5))
        w.charge_compute_all([10, 0, 0, 0])  # fine between supersteps
        w.comm.allgather([0] * 4)

    def test_nested_map_ranks_rejected(self):
        """A step has no business launching a superstep; it fails fast."""
        w = SimWorld(4, cori_haswell())

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
    def test_results_in_rank_order(self):
        w = SimWorld(5, cori_haswell())
        assert w.map_segments(_halves, [1, 2, 3, 4, 5]) == [2, 4, 6, 8, 10]
        assert list(w.clock.per_rank_seconds("default")) == [
            cori_haswell().op_time(v) for v in [1, 2, 3, 4, 5]
        ]

    def test_arg_length_validated(self):
        w = SimWorld(4)
        with pytest.raises(CommunicatorError, match="expects 4 per-rank entries"):
            w.map_segments(_halves, [1, 2, 3])

    def test_serial_runs_one_segment(self):
        w = SimWorld(6)
        seen = []

        def step(ctxs, values):
            seen.append([int(c) for c in ctxs])
            return values

        assert w.map_segments(step, list("abcdef")) == list("abcdef")
        assert seen == [[0, 1, 2, 3, 4, 5]]

    def test_result_count_validated(self):
        w = SimWorld(4, cori_haswell())
        with pytest.raises(CommunicatorError, match="3 results for 4 ranks"):
            w.map_segments(lambda ctxs: [ctx.charge_compute(9) for ctx in ctxs[1:]])
        assert w.clock.stages() == []

    def test_collective_rejected(self):
        w = SimWorld(4, cori_haswell())
        with pytest.raises(CommunicatorError, match="collective"):
            w.map_segments(lambda ctxs: [w.comm.allgather([0] * 4)] * len(ctxs))
        assert len(w.log) == 0

    def test_world_charge_rejected(self):
        w = SimWorld(4, cori_haswell())
        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_segments(
                lambda ctxs: [w.charge_compute_all([10, 0, 0, 0])] * len(ctxs)
            )
        with pytest.raises(CommunicatorError, match="inside a map_ranks step"):
            w.map_segments(lambda ctxs: [w.charge_compute_all([1] * 4)] * len(ctxs))
        assert w.clock.stages() == []
        # the guard lifts after the failed superstep
        w.charge_compute_all([10, 0, 0, 0])
        w.comm.allgather([0] * 4)

    def test_nested_superstep_rejected(self):
        w = SimWorld(4, cori_haswell())
        with pytest.raises(CommunicatorError, match="SimWorld.map_ranks"):
            w.map_segments(lambda ctxs: w.map_ranks(lambda ctx: 0))
        with pytest.raises(CommunicatorError, match="SimWorld.map_segments"):
            w.map_ranks(lambda ctx: w.map_segments(_halves, [1] * 4))

    def test_failure_charges_nothing(self):
        w = SimWorld(4, cori_haswell())

        def step(ctxs):
            for ctx in ctxs:
                ctx.charge_compute(1000)
            raise RuntimeError("segment exploded")

        with pytest.raises(RuntimeError, match="segment exploded"):
            w.map_segments(step)
        assert w.clock.stages() == []


# ---------------------------------------------------------------------------
# accounting through RankContext
# ---------------------------------------------------------------------------


def _traced_step(ctx, ops):
    with ctx.span("work"):
        ctx.charge_compute(ops)
    ctx.observe_memory(float(ops))
    return int(ctx)


def _traced_segment(ctxs, ops):
    return [_traced_step(ctx, n) for ctx, n in zip(ctxs, ops)]


class TestRankContextAccounting:
    def test_nested_scope_attribution(self):
        """A superstep's charges, memory samples and kernel spans all
        belong to the stage open when it starts, for both step shapes."""
        machine = cori_haswell()
        w = SimWorld(4, machine)
        tracer = Tracer().attach(w)
        ops = [100, 200, 300, 400]
        with w.stage_scope("A"):
            w.map_ranks(_traced_step, ops)
            with w.stage_scope("A/b"):
                w.map_segments(_traced_segment, [2 * n for n in ops])
            w.map_segments(_traced_segment, ops)
        assert w.clock.stages() == ["A", "A/b"]
        assert list(w.clock.per_rank_seconds("A")) == [
            machine.op_time(n) + machine.op_time(n) for n in ops
        ]
        assert list(w.clock.per_rank_seconds("A/b")) == [
            machine.op_time(2 * n) for n in ops
        ]
        assert w.memory.by_stage() == {"A": 400.0, "A/b": 800.0}
        steps = [s for s in tracer.spans() if s.cat == "superstep"]
        assert [s.attrs["stage"] for s in steps] == ["A", "A/b", "A"]
        for step, scale in zip(steps, (1, 2, 1)):
            kernels = [s for s in step.walk() if s.cat == "kernel"]
            assert [(k.name, k.rank, k.attrs) for k in kernels] == [
                ("work", r, {}) for r in range(4)
            ]
            assert [k.duration for k in kernels] == pytest.approx(
                [machine.op_time(scale * n) for n in ops]
            )

    def test_memory_scaled_by_volume_scale(self):
        w = SimWorld(2, cori_haswell().scaled(8.0))
        w.map_ranks(lambda ctx: ctx.observe_memory(100.0))
        assert w.memory.peak(0) == 800.0
        assert w.memory.peak(1) == 800.0

    def test_worker_scopes_do_not_leak_to_main(self):
        """A scope a step opens neither re-attributes its charges nor
        outlives the step: they belong to the stage open at launch."""
        w = SimWorld(4, cori_haswell())

        def step(ctx):
            with w.stage_scope("Outer/deep"):
                ctx.charge_compute(50)

        with w.stage_scope("Outer"):
            w.map_ranks(step)
            assert w.stage == "Outer"
        assert w.stage == "default"
        assert w.clock.stages() == ["Outer"]
        assert list(w.clock.per_rank_seconds("Outer")) == [
            cori_haswell().op_time(50)
        ] * 4


# ---------------------------------------------------------------------------
# supersteps interleaved with subcomm collectives
# ---------------------------------------------------------------------------


def _superstep_with_subcomms(seed=11):
    """A seeded mini-workload: two supersteps around subcomm collectives."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 100, size=64 + 16 * r) for r in range(4)]
    w = SimWorld(4, cori_haswell())
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
    def test_subcomm_charges_only_member_ranks(self):
        w, _sums, _comb = _superstep_with_subcomms()
        per_rank = w.clock.per_rank_seconds("Phase")
        assert per_rank.shape == (4,)
        assert (per_rank > 0).all()


# ---------------------------------------------------------------------------
# vectorized charge_compute_all
# ---------------------------------------------------------------------------


class TestChargeComputeAll:
    def test_matches_per_rank_loop(self):
        machine = cori_haswell()
        bulk, loop = SimWorld(4, machine), SimWorld(4, machine)
        ops = [10, 0, 345, 7]
        with bulk.stage_scope("S"):
            bulk.charge_compute_all(ops)
        with loop.stage_scope("S"):
            for rank, n in enumerate(ops):
                loop.clock.charge_compute("S", rank, machine.op_time(n))
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
# fault injection at the superstep barrier
# ---------------------------------------------------------------------------

P64 = 64


def _sum_step(ctx, arr):
    ctx.charge_compute(arr.size)
    ctx.observe_memory(float(arr.nbytes))
    return int(arr.sum())


def _shared_panel_step(ctx, panel, scale):
    ctx.charge_compute(panel.size)
    return float(panel[int(ctx) % panel.size]) * scale


def _p64_workload(injector=None):
    """Two P=64 supersteps around even/odd subcomm collectives."""
    rng = np.random.default_rng(1234)
    payloads = [rng.integers(0, 100, size=96 + 8 * r) for r in range(P64)]
    w = SimWorld(P64, cori_haswell())
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


def _toy_segment_step(ctxs, arrays, scale):
    """A segment step: one vectorized pass over the concatenated arrays,
    split back per rank and charged through each rank's context."""
    sizes = [a.size for a in arrays]
    flat = np.concatenate(arrays) * np.repeat(scale, sizes)
    sums = np.diff(np.concatenate([[0.0], np.cumsum(flat)])[np.cumsum([0] + sizes)])
    for ctx, a in zip(ctxs, arrays):
        ctx.charge_compute(a.size)
        ctx.observe_memory(float(a.nbytes))
    return [(int(ctx), float(total)) for ctx, total in zip(ctxs, sums)]


class TestFaultInjection:
    def test_chaos_rank_crash_rolls_back_then_recovers(self):
        plan = FaultPlan(
            seed=5, rules=(rank_crash(stage="Phase", superstep=0, rank=37),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(RankFailure) as err:
            _p64_workload(injector=injector)
        assert err.value.rank == 37
        assert err.value.superstep == 0
        # the failed run charged nothing and a fresh world with the now-
        # exhausted injector reproduces the fault-free run bit-for-bit
        assert injector.exhausted
        w_retry, sums, comb = _p64_workload(injector=injector)
        w_ref, sums_ref, comb_ref = _p64_workload()
        assert (sums, comb) == (sums_ref, comb_ref)
        _assert_worlds_identical(w_ref, w_retry)

    def test_map_ranks_crash_runs_no_rank_step(self):
        """An injected crash is raised before the superstep's step runs,
        as a segment's is: no rank's step runs (not even those below the
        crashed rank), nothing is charged and no superstep is traced."""
        w = SimWorld(4, cori_haswell())
        tracer = Tracer().attach(w)
        w.fault_injector = FaultInjector(
            FaultPlan(rules=(rank_crash(stage="Step", rank=2),))
        )
        seen = []

        def step(ctx, x):
            seen.append(int(ctx))
            ctx.charge_compute(x)
            ctx.observe_memory(float(x))
            return x

        with w.stage_scope("Step"):
            with pytest.raises(RankFailure) as err:
                w.map_ranks(step, [100, 200, 300, 400])
        assert err.value.rank == 2
        assert seen == []
        assert w.clock.stages() == []
        assert w.memory.by_stage() == {}
        with pytest.raises(TelemetryError, match="recorded nothing"):
            tracer.root

    @pytest.mark.parametrize("crashed,expect", [((2, 5), 2), ((5, 4), 4)])
    def test_segment_crash_raises_lowest_rank_and_charges_nothing(
        self, crashed, expect
    ):
        w = SimWorld(8, cori_haswell())
        tracer = Tracer().attach(w)
        w.fault_injector = FaultInjector(
            FaultPlan(rules=tuple(rank_crash(stage="Seg", rank=r) for r in crashed))
        )
        arrays = [np.arange(r + 1, dtype=np.float64) for r in range(8)]
        with w.stage_scope("Seg"):
            with pytest.raises(RankFailure) as err:
                w.map_segments(_toy_segment_step, arrays, [1.0] * 8)
        assert err.value.rank == expect
        assert w.clock.stages() == []
        assert w.memory.by_stage() == {}
        with pytest.raises(TelemetryError, match="recorded nothing"):
            tracer.root


class TestRankFailurePickling:
    def test_provenance_survives_pickle(self):
        exc = RankFailure("rank 3 crashed", rank=3, stage="Overlap", superstep=2)
        out = pickle.loads(pickle.dumps(exc))
        assert (out.rank, out.stage, out.superstep) == (3, "Overlap", 2)
        assert "rank 3 crashed" in str(out)


# ---------------------------------------------------------------------------
# the executor knob is gone, with a defined result at every door
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gone", ["thread", "mpi", "process"])
class TestRemovedBackendsRejected:
    def test_config(self, gone):
        with pytest.raises(TypeError, match="executor"):
            PipelineConfig(nprocs=4, executor=gone)
        with pytest.raises(CommunicatorError, match="unknown executor"):
            SimWorld(4, executor=gone)

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
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_service_job_fails_on_first_attempt(self, gone, tmp_path):
        from repro.service import JobService

        svc = JobService(tmp_path)
        job_id = svc.submit(
            {"kind": "simulate", "length": 2500, "seed": 51},
            {"nprocs": 4, "k": 17, "executor": gone},
        )
        (record,) = svc.run_worker()
        assert record.job_id == job_id and record.state == "failed"
        assert "bad config override" in record.error
        # a spec error is terminal: no retry was scheduled, nothing left queued
        assert record.attempts == 1
        assert svc.run_worker() == []
