"""Deterministic fault injection and recovery (``repro.faults``).

The contract under test: a seeded :class:`FaultPlan` injects rank
crashes, stalls, checkpoint corruption, eviction races and worker kills
at well-defined sites; every injection is visible in notes/event logs;
and once the plan stops injecting, the pipeline converges to a contig
digest bit-identical to the fault-free run.
"""

import json

import pytest

from repro.errors import FaultPlanError, RankFailure
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedWorkerDeath,
    RetryPolicy,
    cache_evict_race,
    checkpoint_corrupt,
    classify_failure,
    rank_crash,
    stall,
    worker_kill,
)
from repro.pipeline import (
    CheckpointLoadError,
    CollectingObserver,
    Pipeline,
    PipelineConfig,
)
from repro.seq import GenomeSpec, make_genome, tile_reads
from repro.service import JobService
from repro.service.store import JobSpec, JobStore

SRC = {
    "kind": "simulate",
    "length": 2500,
    "seed": 51,
    "read_length": 350,
    "stride": 140,
}
CFG = {"nprocs": 4, "k": 17, "reliable_lo": 1, "end_margin": 5}


@pytest.fixture(scope="module")
def reads():
    return tile_reads(
        make_genome(GenomeSpec(length=SRC["length"], seed=SRC["seed"])),
        SRC["read_length"],
        SRC["stride"],
    ).reads


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig(**CFG)


@pytest.fixture(scope="module")
def reference(reads, cfg):
    """The fault-free run every faulted run must converge to."""
    return Pipeline.default().run(reads, cfg)


class FakeClock:
    """An advanceable clock for lease/backoff tests (no real sleeping)."""

    def __init__(self, t: float = 1_000.0) -> None:
        self.t = t

    def now(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultRule(kind="meteor_strike").validate()
        with pytest.raises(FaultPlanError, match="rank"):
            FaultRule(kind="rank_crash").validate()
        with pytest.raises(FaultPlanError, match="seconds"):
            stall(rank=0, seconds=1.0)  # fine
            FaultRule(kind="stall", rank=0, seconds=0.0).validate()
        with pytest.raises(FaultPlanError, match="mode"):
            FaultRule(kind="checkpoint_corrupt", mode="shred").validate()
        with pytest.raises(FaultPlanError, match="when"):
            FaultRule(
                kind="checkpoint_corrupt", mode="truncate", when="maybe"
            ).validate()
        with pytest.raises(FaultPlanError, match="worker_kill"):
            FaultRule(kind="worker_kill", mode="sim").validate()
        with pytest.raises(FaultPlanError, match="max_fires"):
            rank_crash(rank=0, max_fires=0).validate()

    def test_constructors_validate_clean(self):
        for rule in (
            rank_crash(stage="Alignment", superstep=1, rank=2),
            stall(rank=3, seconds=2.5),
            checkpoint_corrupt(stage="CountKmer", when="load", mode="bitflip"),
            cache_evict_race(stage="DetectOverlap"),
            worker_kill(after_stage="Alignment"),
            worker_kill(after_n_events=4, mode="sigkill"),
        ):
            rule.validate()

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            rules=(
                rank_crash(stage="Alignment", superstep=0, rank=2),
                stall(rank=1, seconds=3.0, stage="CountKmer"),
                checkpoint_corrupt(when="save", mode="truncate"),
                worker_kill(after_stage="TrReduction", mode="sim"),
            ),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan
        # serialized rules stay compact: fields at defaults are dropped
        first = json.loads(path.read_text())["rules"][0]
        assert "seconds" not in first and "after_stage" not in first

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(FaultPlanError, match="bad JSON"):
            FaultPlan.load(path)
        path.write_text(json.dumps({"rules": [{"kind": "nope"}]}))
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan.load(path)
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.load(tmp_path / "missing.json")

    def test_random_is_deterministic_and_valid(self):
        for seed in range(25):
            plan = FaultPlan.random(seed)
            assert plan == FaultPlan.random(seed)
            plan.validate()
            assert 1 <= len(plan.rules) <= 4
            # the bounds the chaos suite relies on: crashes stay inside
            # the engine's retry budget, kills never SIGKILL the test
            assert sum(r.kind == "rank_crash" for r in plan.rules) <= 2
            for rule in plan.rules:
                if rule.kind == "worker_kill":
                    assert rule.mode == "sim"
        distinct = {FaultPlan.random(s).rules for s in range(25)}
        assert len(distinct) > 10  # seeds genuinely vary the plan


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_monotone_and_capped(self):
        flat = RetryPolicy(
            base_delay=0.5, factor=2.0, max_delay=8.0, jitter=0.0
        )
        delays = [flat.delay_for(a) for a in range(1, 8)]
        assert delays[:5] == [0.5, 1.0, 2.0, 4.0, 8.0]
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        assert max(delays) == 8.0  # capped
        jittered = RetryPolicy(base_delay=0.5, factor=2.0, max_delay=8.0)
        for a in range(1, 8):
            assert flat.delay_for(a) <= jittered.delay_for(a) <= \
                flat.delay_for(a) * (1 + jittered.jitter)
        assert jittered.delay_for(0) == 0.0

    def test_jitter_is_deterministic(self):
        a = RetryPolicy(seed=1)
        b = RetryPolicy(seed=1)
        c = RetryPolicy(seed=2)
        assert [a.delay_for(i) for i in range(1, 5)] == \
               [b.delay_for(i) for i in range(1, 5)]
        assert [a.delay_for(i) for i in range(1, 5)] != \
               [c.delay_for(i) for i in range(1, 5)]

    def test_failure_classes(self):
        policy = RetryPolicy()
        assert classify_failure(RankFailure("x")) == "rank_failure"
        assert classify_failure(CheckpointLoadError("x")) == "checkpoint"
        assert classify_failure(OSError("x")) == "io"
        assert classify_failure(ValueError("x")) is None
        assert policy.is_retryable(RankFailure("x"))
        assert not policy.is_retryable(ValueError("x"))
        only_io = RetryPolicy(retry_on=("io",))
        assert not only_io.is_retryable(RankFailure("x"))
        assert only_io.is_retryable(OSError("x"))

    def test_validation_and_round_trip(self):
        with pytest.raises(FaultPlanError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultPlanError):
            RetryPolicy(factor=0.5)
        with pytest.raises(FaultPlanError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(FaultPlanError):
            RetryPolicy(retry_on=("quantum",))
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, seed=4)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy


# ---------------------------------------------------------------------------
# superstep site: rank crashes and stalls
# ---------------------------------------------------------------------------


class TestSuperstepInjection:
    def test_rank_crash_recovered_bit_identical(self, reads, cfg, reference):
        injector = FaultInjector(FaultPlan(rules=(
            rank_crash(stage="Alignment", superstep=0, rank=2),
        )))
        obs = CollectingObserver()
        result = Pipeline.default().run(
            reads, cfg, observers=[obs, injector]
        )
        assert result.contig_digest() == reference.contig_digest()
        assert result.recoveries == [
            {"stage": "Alignment", "rank": 2, "superstep": 0, "attempt": 1}
        ]
        assert len(injector.events) == 1
        assert injector.exhausted
        notes = [n for _, n in obs.notes]
        assert any(n.startswith("fault injected: rank_crash") for n in notes)
        assert any(n.startswith("recovery: rank 2") for n in notes)
        assert result.summary()["recoveries"] == result.recoveries

    def test_counts_stay_bit_identical_after_recovery(
        self, reads, cfg, reference
    ):
        """A recovered crash must not leak half-superstep accounting into
        the checkpointable counts -- the transactional guarantee."""
        injector = FaultInjector(FaultPlan(rules=(
            rank_crash(stage="DetectOverlap", superstep=1, rank=0),
        )))
        result = Pipeline.default().run(reads, cfg, observers=[injector])
        drop = {"peak_memory_bytes"}
        assert {k: v for k, v in result.counts.items() if k not in drop} == \
               {k: v for k, v in reference.counts.items() if k not in drop}

    def test_stall_charges_straggler_time(self, reads, cfg, reference):
        injector = FaultInjector(FaultPlan(rules=(
            stall(rank=1, seconds=50.0, stage="Alignment", superstep=0),
        )))
        result = Pipeline.default().run(reads, cfg, observers=[injector])
        assert result.contig_digest() == reference.contig_digest()
        assert result.modeled_total > reference.modeled_total + 40.0
        assert injector.events[0]["kind"] == "stall"
        assert injector.events[0]["seconds"] == 50.0

    def test_crash_every_attempt_exhausts_retries(self, reads, cfg):
        import dataclasses

        limited = dataclasses.replace(cfg, stage_max_retries=2)
        injector = FaultInjector(FaultPlan(rules=(
            rank_crash(stage="CountKmer", rank=0, max_fires=50),
        )))
        obs = CollectingObserver()
        with pytest.raises(RankFailure):
            Pipeline.default().run(
                reads, limited, observers=[obs, injector]
            )
        assert any(
            "not recovered" in n and "retries exhausted" in n
            for _, n in obs.notes
        )

    def test_injector_restored_after_run(self, reads, cfg):
        """The injector lets go of the run on the way out, even when the
        run dies (tests/test_engine.py checks the world's side of it)."""
        injector = FaultInjector(FaultPlan(rules=(
            rank_crash(stage="CountKmer", rank=0, max_fires=50),
        )))
        import dataclasses

        limited = dataclasses.replace(cfg, stage_max_retries=0)
        with pytest.raises(RankFailure):
            Pipeline.default().run(reads, limited, observers=[injector])
        assert injector._ctx is None


# ---------------------------------------------------------------------------
# checkpoint site: corruption and eviction races (satellite: corruption
# recovery is load -> CheckpointLoadError -> recompute, bit-identical)
# ---------------------------------------------------------------------------


class TestCheckpointFaults:
    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupt_on_save_recovered_next_run(
        self, tmp_path, reads, cfg, reference, mode
    ):
        injector = FaultInjector(FaultPlan(rules=(
            checkpoint_corrupt(stage="DetectOverlap", when="save", mode=mode),
        )))
        Pipeline.default().run(
            reads, cfg, checkpoint_dir=tmp_path, observers=[injector]
        )
        assert injector.events[0]["action"] == f"corrupted:{mode}"
        obs = CollectingObserver()
        again = Pipeline.default(observers=[obs]).run(
            reads, cfg, checkpoint_dir=tmp_path
        )
        # the rotten checkpoint is detected at load (checksum frame),
        # recomputed, and the digest still matches the fault-free run
        assert again.stages_run == ["DetectOverlap"]
        assert any("recomputing" in n for _, n in obs.notes)
        assert again.contig_digest() == reference.contig_digest()

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupt_on_load_recovered_same_run(
        self, tmp_path, reads, cfg, reference, mode
    ):
        Pipeline.default().run(reads, cfg, checkpoint_dir=tmp_path)
        injector = FaultInjector(FaultPlan(rules=(
            checkpoint_corrupt(stage="CountKmer", when="load", mode=mode),
        )))
        obs = CollectingObserver()
        result = Pipeline.default().run(
            reads, cfg, checkpoint_dir=tmp_path, observers=[obs, injector]
        )
        assert result.stages_run == ["CountKmer"]
        assert len(injector.events) == 1
        assert result.contig_digest() == reference.contig_digest()
        notes = [n for _, n in obs.notes]
        assert any(n.startswith("fault injected: checkpoint_corrupt") for n in notes)
        assert any("recomputing" in n for n in notes)

    def test_evict_race_degrades_to_recompute(
        self, tmp_path, reads, cfg, reference
    ):
        Pipeline.default().run(reads, cfg, checkpoint_dir=tmp_path)
        injector = FaultInjector(FaultPlan(rules=(
            cache_evict_race(stage="TrReduction"),
        )))
        obs = CollectingObserver()
        result = Pipeline.default().run(
            reads, cfg, checkpoint_dir=tmp_path, observers=[obs, injector]
        )
        assert result.stages_run == ["TrReduction"]
        assert injector.events[0]["action"] == "evicted"
        assert result.contig_digest() == reference.contig_digest()
        assert any("recomputing" in n for _, n in obs.notes)


# ---------------------------------------------------------------------------
# worker site: simulated hard death, poison jobs, attempt ceilings
# ---------------------------------------------------------------------------


class TestWorkerDeath:
    def _service(self, root, clock, **kw):
        return JobService(root, lease_ttl=30.0, clock=clock.now, **kw)

    def test_sim_death_keeps_lease_until_adoption(self, tmp_path, reference):
        clock = FakeClock()
        svc = self._service(tmp_path, clock)
        job = svc.submit(SRC, CFG)
        plan = FaultPlan(rules=(
            worker_kill(after_stage="Alignment", mode="sim"),
        ))
        with pytest.raises(InjectedWorkerDeath):
            svc.worker(worker_id="w0", fault_plan=plan).run_once()
        record = svc.status(job)
        # exactly the wreckage a real SIGKILL leaves: job running, lease
        # live, upstream checkpoints pinned, fault event already durable
        assert record.state == "running" and record.attempts == 1
        assert len(svc.cache.pinned_files()) == 2
        assert svc.store.claim_next("vulture") is None
        events = [e["event"] for e in svc.events(job)]
        assert "fault_injected" in events

        clock.advance(31.0)
        svc.run_worker(worker_id="w1")
        record = svc.status(job)
        assert record.state == "done" and record.attempts == 2
        assert svc.result(job)["contig_digest"] == reference.contig_digest()
        assert svc.cache.pinned_files() == set()
        events = [e["event"] for e in svc.events(job)]
        assert "adopted" in events

    def test_poison_job_lands_in_failed(self, tmp_path):
        """Satellite fix: a job that fails every attempt must reach a
        terminal ``failed`` state, not retry silently forever."""
        clock = FakeClock()
        svc = self._service(
            tmp_path, clock,
            retry=RetryPolicy(max_attempts=3, base_delay=1.0),
        )
        job = svc.submit(SRC, {**CFG, "stage_max_retries": 0})
        injector = FaultInjector(FaultPlan(rules=(
            rank_crash(stage="CountKmer", rank=0, max_fires=100),
        )))
        worker = svc.worker(worker_id="w0", fault_injector=injector)
        for _ in range(10):
            worker.drain()
            if svc.status(job).terminal:
                break
            clock.advance(60.0)
        record = svc.status(job)
        assert record.state == "failed"
        assert record.attempts == 3
        assert "RankFailure" in record.error
        kinds = [e["event"] for e in svc.events(job)]
        assert kinds.count("retry_scheduled") == 2
        assert kinds.count("failed") == 1
        # the triggering exception is in the event log, not just the record
        retries = [e for e in svc.events(job) if e["event"] == "retry_scheduled"]
        assert all("RankFailure" in e["error"] for e in retries)

    def test_backoff_hides_job_until_not_before(self, tmp_path):
        clock = FakeClock()
        svc = self._service(
            tmp_path, clock,
            retry=RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.0),
        )
        job = svc.submit(SRC, {**CFG, "stage_max_retries": 0})
        injector = FaultInjector(FaultPlan(rules=(
            rank_crash(stage="CountKmer", rank=0),
        )))
        worker = svc.worker(worker_id="w0", fault_injector=injector)
        assert worker.run_once().state == "queued"
        record = svc.status(job)
        assert record.not_before == pytest.approx(clock.now() + 10.0)
        assert svc.store.claim_next("eager") is None  # backoff in force
        clock.advance(10.5)
        svc.run_worker(worker_id="w1")  # injector exhausted: clean run
        assert svc.status(job).state == "done"

    def test_permanent_error_fails_immediately(self, tmp_path):
        clock = FakeClock()
        svc = self._service(tmp_path, clock)
        job = svc.submit({**SRC, "length": 2500}, {**CFG, "k": 9999})
        svc.run_worker(worker_id="w0")
        record = svc.status(job)
        assert record.state == "failed" and record.attempts == 1
        assert not any(
            e["event"] == "retry_scheduled" for e in svc.events(job)
        )

    def test_orphan_over_ceiling_is_given_up(self, tmp_path):
        clock = FakeClock()
        svc = self._service(
            tmp_path, clock, retry=RetryPolicy(max_attempts=2)
        )
        job = svc.submit(SRC, CFG)
        # a dead worker's wreckage: running, expired lease, attempts burned
        record = svc.status(job)
        record.state = "running"
        record.attempts = 2
        record.error = "InjectedWorkerDeath: chaos"
        record.lease = {"worker": "ghost", "token": "t", "expires": clock.now() - 5}
        svc.store.save(record)
        assert svc.store.claim_next("w1") is None
        record = svc.status(job)
        assert record.state == "failed"
        assert "max attempts (2) exceeded" in record.error
        events = [e["event"] for e in svc.events(job)]
        assert "gave_up" in events


# ---------------------------------------------------------------------------
# event-log following (satellite: watch --follow)
# ---------------------------------------------------------------------------


class TestFollowEvents:
    def _store(self, tmp_path):
        store = JobStore(tmp_path, clock=lambda: 0.0)
        record = store.submit(JobSpec(source={"kind": "simulate"}))
        return store, record.job_id

    def test_follow_tolerates_torn_lines(self, tmp_path):
        store, job_id = self._store(tmp_path)
        path = store.events_path(job_id)
        line = json.dumps({"t": 1, "event": "stage_start", "stage": "CountKmer"}) + "\n"
        with open(path, "a") as fh:
            fh.write(line[:12])  # a writer killed mid-append
        state = {"sleeps": 0}

        def fake_sleep(_):
            # the writer completes the torn line and appends another
            state["sleeps"] += 1
            with open(path, "a") as fh:
                fh.write(line[12:])
                fh.write(json.dumps({"t": 2, "event": "done"}) + "\n")

        events = list(store.follow_events(
            job_id,
            should_stop=lambda: state["sleeps"] >= 1,
            sleep=fake_sleep,
        ))
        assert [e["event"] for e in events] == [
            "submitted", "stage_start", "done",
        ]

    def test_final_drain_never_misses_terminal_event(self, tmp_path):
        store, job_id = self._store(tmp_path)
        store.append_event(job_id, "done")

        def no_sleep(_):  # pragma: no cover - would hang the test
            raise AssertionError("follow slept although stop was requested")

        events = list(store.follow_events(
            job_id, should_stop=lambda: True, sleep=no_sleep
        ))
        assert [e["event"] for e in events] == ["submitted", "done"]

    def test_missing_log_waits_then_stops(self, tmp_path):
        store = JobStore(tmp_path, clock=lambda: 0.0)
        calls = {"n": 0}

        def tick(_):
            calls["n"] += 1

        events = list(store.follow_events(
            "jnope", should_stop=lambda: calls["n"] >= 2, sleep=tick
        ))
        assert events == [] and calls["n"] == 2


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class TestFaultCli:
    def test_assemble_fault_plan_flag(self, tmp_path, capsys):
        from repro.cli.assemble import main

        plan = FaultPlan(rules=(
            rank_crash(stage="Alignment", superstep=0, rank=1),
        ))
        path = tmp_path / "plan.json"
        plan.dump(path)
        rc = main([
            "--preset", "c_elegans", "--scale", "100000",
            "--fault-plan", str(path),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "injected 1 fault(s), recovered 1 stage failure(s)" in captured.out

    def test_assemble_rejects_bad_plan(self, tmp_path, capsys):
        from repro.cli.assemble import main

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"rules": [{"kind": "nope"}]}))
        rc = main([
            "--preset", "c_elegans", "--scale", "100000",
            "--fault-plan", str(path),
        ])
        assert rc == 1
        assert "unknown fault kind" in capsys.readouterr().err

    def test_jobs_worker_fault_plan_and_retry_flags(self, tmp_path, capsys):
        import io

        from repro.cli.jobs import main

        root = tmp_path / "root"
        plan = FaultPlan(rules=(
            stall(rank=0, seconds=5.0, stage="CountKmer", superstep=0),
        ))
        plan_path = tmp_path / "plan.json"
        plan.dump(plan_path)
        out = io.StringIO()
        assert main([
            "submit", "--root", str(root), "--simulate", "2500",
            "--sim-seed", "51", "--read-length", "350", "--stride", "140",
            "-P", "4", "-k", "17",
        ], out=out) == 0
        job_id = out.getvalue().strip()
        out = io.StringIO()
        assert main([
            "worker", "--root", str(root),
            "--fault-plan", str(plan_path),
            "--max-attempts", "2", "--retry-base-delay", "0.1",
        ], out=out) == 0
        assert f"{job_id}: done" in out.getvalue()
        svc = JobService(root)
        notes = [
            e for e in svc.events(job_id)
            if e["event"] == "note" and "fault injected: stall" in e["note"]
        ]
        assert len(notes) == 1

    def test_jobs_watch_follow_streams_to_terminal(self, tmp_path):
        import io

        from repro.cli.jobs import main

        root = tmp_path / "root"
        out = io.StringIO()
        assert main([
            "submit", "--root", str(root), "--simulate", "2500",
            "--sim-seed", "51", "--read-length", "350", "--stride", "140",
            "-P", "4", "-k", "17",
        ], out=out) == 0
        job_id = out.getvalue().strip()
        assert main(["worker", "--root", str(root)], out=io.StringIO()) == 0
        out = io.StringIO()
        # terminal job: --follow drains the whole log and exits 0
        assert main([
            "watch", "--root", str(root), job_id, "--follow",
            "--timeout", "10",
        ], out=out) == 0
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("submitted")
        assert "state: done" in lines[-1]
        assert any(line.startswith("done") for line in lines)
