"""The telemetry subsystem: span trees, the metrics registry, exporters.

The load-bearing property is **bit-identity**: the modeled span tree (and
therefore :meth:`Tracer.digest`) is a function of the workload alone,
standalone and through the full pipeline.  Wall-clock readings ride along
but never enter the digest.
"""

import json

import numpy as np
import pytest

from repro import Pipeline, PipelineConfig
from repro.mpi import SimWorld, cori_haswell
from repro.seq import GenomeSpec, make_genome, tile_reads
from repro.telemetry import (
    MetricsRegistry,
    Span,
    TelemetryError,
    Tracer,
    get_registry,
    iter_jsonl_records,
    summary_table,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
    write_jsonl,
)

def step(ctx, arr):
    """A traced rank step: two named kernels plus an unnamed charge."""
    with ctx.span("sort"):
        ctx.charge_compute(arr.size * 2)
    with ctx.span("join"):
        ctx.charge_compute(arr.size)
    ctx.charge_compute(arr.size // 2)
    return int(arr.sum())


def traced_world(nprocs=8, elems=64):
    rng = np.random.default_rng(9)
    payloads = [rng.integers(0, 100, size=elems) for _ in range(nprocs)]
    world = SimWorld(nprocs, cori_haswell())
    tracer = Tracer().attach(world)
    tracer.begin_run(nprocs=nprocs)
    tracer.begin_stage("StageA")
    with world.stage_scope("StageA"):
        results = world.map_ranks(step, payloads)
        world.comm.allreduce([np.int64(r) for r in results], np.add)
    tracer.end_stage()
    tracer.begin_stage("StageB")
    with world.stage_scope("StageB"):
        world.map_ranks(step, payloads)
    tracer.end_stage()
    tracer.end_run()
    tracer.detach()
    return world, tracer, results


class TestSpan:
    def test_duration_and_walk(self):
        child = Span("k", "kernel", 1.0, 2.0, rank=0)
        parent = Span("s", "stage", 0.0, 3.0, children=[child])
        assert child.duration == 1.0
        assert [s.name for s in parent.walk()] == ["s", "k"]

    def test_wall_excluded_unless_asked(self):
        span = Span("s", "stage", 0.0, 1.0, wall=9.9)
        assert "wall" not in span.to_dict()
        assert span.to_dict(include_wall=True)["wall"] == 9.9


class TestTracerLifecycle:
    def test_attach_sets_and_detach_restores(self):
        world = SimWorld(4)
        tracer = Tracer().attach(world)
        assert world.tracer is tracer
        tracer.detach()
        assert world.tracer is None

    def test_nprocs_mismatch_rejected(self):
        with pytest.raises(TelemetryError, match="cannot attach"):
            Tracer(nprocs=8).attach(SimWorld(4))

    def test_double_begin_run_rejected(self):
        tracer = Tracer(nprocs=2)
        tracer.begin_run()
        with pytest.raises(TelemetryError, match="already holds a run"):
            tracer.begin_run()

    def test_unbalanced_end_stage_rejected(self):
        tracer = Tracer(nprocs=2)
        tracer.begin_run()
        with pytest.raises(TelemetryError, match="without a matching"):
            tracer.end_stage()

    def test_unattached_tracer_rejects_hooks(self):
        with pytest.raises(TelemetryError, match="not attached"):
            Tracer().superstep("S", [])

    def test_empty_tracer_has_no_root(self):
        with pytest.raises(TelemetryError, match="recorded nothing"):
            Tracer(nprocs=2).root

    def test_world_defaults_to_untraced(self):
        assert SimWorld(2).tracer is None


class TestTreeStructure:
    def test_superstep_lanes_and_kernels(self):
        _, tracer, _ = traced_world(nprocs=4)
        cats = {}
        for span in tracer.spans():
            cats.setdefault(span.cat, []).append(span)
        assert len(cats["stage"]) == 2
        assert len(cats["superstep"]) == 2
        assert len(cats["rank"]) == 8  # 4 ranks x 2 supersteps
        assert len(cats["kernel"]) == 16  # sort + join per lane
        assert len(cats["collective"]) == 1
        for lane in cats["rank"]:
            names = [k.name for k in lane.children]
            assert names == ["sort", "join"]
            # kernels tile the lane prefix end to end
            assert lane.children[0].t0 == lane.t0
            assert lane.children[1].t0 == lane.children[0].t1
            # the unnamed trailing charge widens the lane past the kernels
            assert lane.t1 > lane.children[1].t1

    def test_collective_synchronizes_participants(self):
        _, tracer, _ = traced_world(nprocs=4)
        coll = next(s for s in tracer.spans() if s.cat == "collective")
        supersteps = [s for s in tracer.spans() if s.cat == "superstep"]
        # the collective starts at its participants' barrier: the end of
        # the slowest lane of the first superstep
        assert coll.t0 == supersteps[0].t1
        assert coll.duration > 0
        assert coll.attrs["ranks"] == [0, 1, 2, 3]
        assert coll.attrs["total_bytes"] > 0
        # the next superstep cannot start before the collective ends
        assert supersteps[1].t0 >= coll.t1

    def test_stall_charges_one_rank(self):
        tracer = Tracer(nprocs=4)
        tracer.begin_run()
        tracer.stall("S", 2, 0.5)
        tracer.end_run()
        stall = next(s for s in tracer.spans() if s.cat == "stall")
        assert stall.rank == 2
        assert stall.duration == 0.5
        assert tracer.root.duration == 0.5

    def test_direct_compute_advances_clock_without_spans(self):
        world = SimWorld(2, cori_haswell())
        tracer = Tracer().attach(world)
        tracer.begin_run()
        with world.stage_scope("S"):
            world.charge_compute_all([1000, 0])
            world.charge_compute_all(np.array([500, 2000]))
        tracer.end_run()
        tracer.detach()
        assert tracer.root.children == []
        assert tracer.root.duration > 0

    def test_skip_stage_is_zero_width(self):
        tracer = Tracer(nprocs=2)
        tracer.begin_run()
        tracer.skip_stage("ExtractContig", "until")
        tracer.end_run()
        (span,) = tracer.root.children
        assert span.duration == 0.0
        assert span.attrs == {"skipped": "until"}

    def test_fail_stage_stamps_error_and_attempt(self):
        tracer = Tracer(nprocs=2)
        tracer.begin_run()
        tracer.begin_stage("Alignment")
        tracer.fail_stage("RankFailure", attempt=1)
        tracer.end_run()
        (span,) = tracer.root.children
        assert span.attrs["failed"] == "RankFailure"
        assert span.attrs["attempt"] == 1


class TestDigestIdentity:
    def test_wall_times_do_not_enter_digest(self):
        _, a, _ = traced_world()
        _, b, _ = traced_world()
        for span in b.spans():
            span.wall = 123.456
        assert a.digest() == b.digest()

    def test_different_workload_different_digest(self):
        _, a, _ = traced_world(elems=64)
        _, b, _ = traced_world(elems=65)
        assert a.digest() != b.digest()


@pytest.fixture(scope="module")
def tiny_reads():
    genome = make_genome(GenomeSpec(length=2500, seed=51))
    return tile_reads(genome, 350, 140)


class TestPipelineIntegration:
    def _run(self, reads, **kwargs):
        cfg = PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5)
        tracer = Tracer()
        result = Pipeline.default().run(
            reads, cfg, observers=[tracer], **kwargs
        )
        return result, tracer

    def test_tracer_observes_the_run(self, tiny_reads):
        result, tracer = self._run(tiny_reads)
        assert result.world.tracer is None  # detached again
        stage_names = [
            s.name for s in tracer.root.children if s.cat == "stage"
        ]
        assert stage_names[0] == "CountKmer"
        assert "ExtractContig" in stage_names
        assert tracer.root.wall is not None
        assert tracer.root.duration > 0

    def test_until_records_skipped_stages(self, tiny_reads):
        _, tracer = self._run(tiny_reads, until="TrReduction")
        skipped = {
            s.name: s.attrs["skipped"]
            for s in tracer.root.children
            if "skipped" in s.attrs
        }
        assert skipped.get("ExtractContig") == "until"

    def test_untraced_run_unaffected(self, tiny_reads):
        cfg = PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5)
        result = Pipeline.default().run(tiny_reads, cfg)
        traced, _ = self._run(tiny_reads)
        assert result.world.tracer is None
        assert result.modeled_total == traced.modeled_total


class TestMetricsPrimitives:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.5)
        assert reg.value("x") == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_set_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.add(-2)
        assert reg.value("depth") == 3.0

    def test_histogram_buckets_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 99.0):
            h.observe(v)
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.mean == pytest.approx((0.05 + 0.5 + 0.7 + 99.0) / 4)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError, match=">= 1 bucket"):
            MetricsRegistry().histogram("empty", buckets=())

    def test_same_name_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_untouched_value_is_zero(self):
        assert MetricsRegistry().value("nothing") == 0.0


class TestMetricsRegistry:
    def test_snapshot_merge_roundtrip(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("jobs.done").inc(3)
        a.gauge("cache.bytes").set(100)
        a.histogram("wall", buckets=(1.0,)).observe(0.5)
        b.counter("jobs.done").inc(4)
        b.gauge("cache.bytes").set(250)
        b.histogram("wall", buckets=(1.0,)).observe(2.0)
        b.merge(a.snapshot())
        assert b.value("jobs.done") == 7
        assert b.value("cache.bytes") == 100  # gauge: last write wins
        hist = b.histogram("wall")
        assert hist.count == 2
        assert hist.counts == [1, 1]

    def test_render_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("comm.ops").inc(12)
        reg.histogram("wall").observe(0.2)
        text = reg.render()
        assert "comm.ops" in text
        assert "mean=0.2000s" in text
        reg.reset()
        assert reg.render() == "(no metrics)"

    def test_runtime_publishes_superstep_and_comm_metrics(self):
        reg = get_registry()
        steps0 = reg.value("mpi.supersteps")
        ops0 = reg.value("comm.ops")
        bytes0 = reg.value("comm.bytes")
        world = SimWorld(4, cori_haswell())
        with world.stage_scope("S"):
            world.map_ranks(lambda ctx: int(ctx))
            world.comm.allgather([np.zeros(8) for _ in range(4)])
        assert reg.value("mpi.supersteps") == steps0 + 1
        assert reg.value("comm.ops") == ops0 + 1
        assert reg.value("comm.bytes") > bytes0


class TestExport:
    @pytest.fixture(scope="class")
    def tracer(self):
        return traced_world(nprocs=4)[1]

    def test_chrome_trace_validates(self, tracer):
        trace = to_chrome_trace(tracer, include_wall=True)
        assert validate_trace(trace) == []

    def test_chrome_trace_lanes(self, tracer):
        trace = to_chrome_trace(tracer)
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert names == {"pipeline", "rank 0", "rank 1", "rank 2", "rank 3"}
        # the collective is mirrored onto every participant lane
        colls = [
            e for e in trace["traceEvents"] if e.get("cat") == "collective"
        ]
        assert sorted(e["tid"] for e in colls) == [1, 2, 3, 4]
        label = next(
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "process_name"
        )
        assert label == "repro modeled timeline"

    def test_chrome_trace_roundtrips_files(self, tracer, tmp_path):
        path = tmp_path / "t.json"
        n = write_chrome_trace(tracer, path)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == n
        assert validate_trace(loaded) == []

    def test_jsonl_parent_links(self, tracer, tmp_path):
        path = tmp_path / "t.jsonl"
        n = write_jsonl(tracer, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == n
        by_id = {r["id"]: r for r in records}
        roots = [r for r in records if r["parent"] is None]
        assert len(roots) == 1 and roots[0]["cat"] == "run"
        for r in records:
            if r["parent"] is not None:
                parent = by_id[r["parent"]]
                assert parent["t0"] <= r["t0"] <= r["t1"] <= parent["t1"]

    def test_jsonl_matches_walk_order(self, tracer):
        names = [r["name"] for r in iter_jsonl_records(tracer)]
        assert names == [s.name for s in tracer.spans()]

    def test_summary_table_rolls_up_stages(self, tracer):
        text = summary_table(tracer)
        assert "StageA" in text and "StageB" in text

    def test_summary_table_marks_skips(self):
        t = Tracer(nprocs=2)
        t.begin_run()
        t.skip_stage("ExtractContig", "until")
        t.end_run()
        assert "skipped (until)" in summary_table(t)

    @pytest.mark.parametrize(
        "obj, problem",
        [
            ({}, "traceEvents missing"),
            ({"traceEvents": []}, "empty"),
            ({"traceEvents": [{"ph": "B", "name": "x"}]}, "unsupported ph"),
            (
                {"traceEvents": [
                    {"ph": "X", "name": "x", "pid": 0, "tid": 0,
                     "ts": -1.0, "dur": 0.0}
                ]},
                "negative",
            ),
            (
                {"traceEvents": [
                    {"ph": "X", "name": "x", "pid": "zero", "tid": 0,
                     "ts": 0.0, "dur": 0.0}
                ]},
                "pid must be an int",
            ),
        ],
    )
    def test_validate_trace_catches(self, obj, problem):
        errors = validate_trace(obj)
        assert any(problem in e for e in errors), errors
