"""Unit tests for the composable stage-based pipeline engine."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

from repro import CollectingObserver, Pipeline, PipelineConfig
from repro.errors import PipelineError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    cache_evict_race,
    checkpoint_corrupt,
    rank_crash,
)
from repro.kmer.kmermatrix import build_kmer_matrix
from repro.mpi import ProcGrid, SimWorld
from repro.pipeline import MAIN_STAGES
from repro.pipeline.config import EXECUTION_FIELDS
from repro.pipeline.stages import PAPER_STAGES
from repro.seq import DistReadStore, GenomeSpec, make_genome, tile_reads
from repro.service import JobCancelled
from repro.sparse import seed_semiring
from repro.telemetry import TelemetryError, Tracer


@pytest.fixture(scope="module")
def tiled():
    genome = make_genome(GenomeSpec(length=2500, seed=51))
    return genome, tile_reads(genome, 350, 140)


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5)


@pytest.fixture(scope="module")
def full_run(tiled, cfg):
    _, rs = tiled
    return Pipeline.default().run(rs, cfg)


def _sequences(result):
    return sorted(c.sequence() for c in result.contigs.contigs)


class TestRegistryAndOrdering:
    def test_main_stages_registered(self):
        """A pipeline is one instance of each of the five stage classes;
        no other stage list can be named."""
        stages = Pipeline.default().stages
        assert [type(s) for s in stages] == list(PAPER_STAGES)
        assert [type(s) for s in Pipeline().stages] == list(PAPER_STAGES)
        with pytest.raises(TypeError):
            Pipeline(["CountKmer"])

    def test_default_order_matches_paper(self):
        assert Pipeline.default().stage_names == MAIN_STAGES


class TestPartialRuns:
    def test_until_stops_after_stage(self, tiled, cfg):
        _, rs = tiled
        res = Pipeline.default().run(rs, cfg, until="TrReduction")
        assert res.stages_run == MAIN_STAGES[:4]
        assert res.contigs is None
        assert ("ExtractContig", "until") in res.stages_skipped
        assert "S" in res.artifacts and "R" in res.artifacts

    def test_artifacts_are_products_of_stages_run(self, tiled, cfg):
        """A partial run holds the reads plus exactly what its stages
        produce: no k-mer matrix A, no reduction result beside S.  With
        the last stage's product injected, nothing runs."""
        _, rs = tiled
        pipe = Pipeline.default()
        overlap = pipe.run(rs, cfg, until="DetectOverlap")
        assert set(overlap.artifacts) == {"reads", "kmer_table", "C"}
        reduced = pipe.run(rs, cfg, until="TrReduction")
        assert set(reduced.artifacts) == {
            "reads", "kmer_table", "C", "R", "align_stats", "S",
        }
        for until, key, source in (
            ("DetectOverlap", "C", overlap),
            ("TrReduction", "S", reduced),
        ):
            res = pipe.run(
                rs, cfg, until=until, from_artifacts={key: source.artifacts[key]}
            )
            assert res.stages_run == []
            stop = MAIN_STAGES.index(until) + 1
            assert res.stages_skipped == (
                [(name, "artifact") for name in MAIN_STAGES[:stop]]
                + [(name, "until") for name in MAIN_STAGES[stop:]]
            )

    def test_until_unknown_stage_rejected(self, tiled, cfg):
        _, rs = tiled
        with pytest.raises(PipelineError):
            Pipeline.default().run(rs, cfg, until="Consensus")

    def test_partial_breakdown_has_no_contig_time(self, tiled, cfg):
        _, rs = tiled
        res = Pipeline.default().run(rs, cfg, until="DetectOverlap")
        breakdown = res.main_stage_breakdown()
        assert breakdown["CountKmer"] > 0
        assert breakdown["Alignment"] == 0
        assert breakdown["ExtractContig"] == 0


class TestArtifactInjection:
    def test_injected_overlaps_skip_upstream(self, tiled, cfg, full_run):
        _, rs = tiled
        pipe = Pipeline.default()
        partial = pipe.run(rs, cfg, until="DetectOverlap")
        res = pipe.run(rs, cfg, from_artifacts={"C": partial.artifacts["C"]})
        assert res.stages_run == ["Alignment", "TrReduction", "ExtractContig"]
        assert {name for name, why in res.stages_skipped if why == "artifact"} == {
            "CountKmer",
            "DetectOverlap",
        }
        assert _sequences(res) == _sequences(full_run)

    def test_symmetric_candidate_matrix_still_accepted(self, tiled, cfg, full_run):
        """A C holding both triangles -- what a checkpoint, stage cache or
        injected artifact from before the strict-upper A.A^T holds -- gives
        the same R, alignment stats and contigs as the upper triangle."""
        _, rs = tiled
        pipe = Pipeline.default()
        kept = dataclasses.replace(cfg, keep_graphs=True)
        partial = pipe.run(rs, kept, until="DetectOverlap")
        upper = partial.artifacts["C"]
        A = build_kmer_matrix(
            partial.artifacts["reads"], partial.artifacts["kmer_table"]
        )
        symmetric = A.spgemm(A.transpose(), seed_semiring(), exclude_diagonal=True)
        assert symmetric.nnz() == 2 * upper.nnz()
        runs = [
            pipe.run(rs, kept, from_artifacts={"C": C}) for C in (upper, symmetric)
        ]
        r_upper, r_sym = (run.artifacts["R"] for run in runs)
        for got, want in zip(r_sym.blocks, r_upper.blocks):
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.cols, want.cols)
            assert np.array_equal(got.vals, want.vals)
        s_upper, s_sym = (run.align_stats for run in runs)
        assert s_sym.per_kind == s_upper.per_kind
        assert s_sym.pairs_aligned == s_upper.pairs_aligned == upper.nnz()
        assert s_sym.contained_reads == s_upper.contained_reads
        assert np.array_equal(s_sym.contained_ids, s_upper.contained_ids)
        assert runs[1].contig_digest() == runs[0].contig_digest()
        assert runs[0].contig_digest() == full_run.contig_digest()

    def test_injected_matrix_rehomed_to_new_world(self, tiled, cfg, full_run):
        _, rs = tiled
        pipe = Pipeline.default()
        partial = pipe.run(rs, cfg, until="TrReduction")
        res = pipe.run(rs, cfg, from_artifacts={"S": partial.artifacts["S"]})
        # the new run owns its own world and charged contig time to it
        assert res.world is not partial.world
        assert res.stage_seconds("ExtractContig") > 0
        assert res.artifacts["S"].grid is not partial.artifacts["S"].grid

    def test_missing_requirement_reported(self, cfg):
        with pytest.raises(PipelineError, match="reads"):
            Pipeline.default().run(
                None, cfg, from_artifacts={"S": object()}, until="ExtractContig"
            )


class TestCheckpointResume:
    def test_full_resume_skips_everything(self, tiled, cfg, full_run, tmp_path):
        _, rs = tiled
        pipe = Pipeline.default()
        first = pipe.run(rs, cfg, checkpoint_dir=tmp_path)
        assert first.stages_run == MAIN_STAGES
        second = pipe.run(rs, cfg, checkpoint_dir=tmp_path)
        assert second.stages_run == []
        assert [why for _, why in second.stages_skipped] == ["checkpoint"] * 5
        assert _sequences(second) == _sequences(full_run)
        # counters survive the round trip
        for key in ("reliable_kmers", "A_nnz", "C_nnz", "R_nnz", "S_nnz", "contigs"):
            assert second.counts[key] == first.counts[key]

    def test_changed_contig_knob_reuses_overlap_stages(
        self, tiled, cfg, full_run, tmp_path
    ):
        """The acceptance scenario: editing partition_method re-runs only
        ExtractContig; CountKmer/DetectOverlap/Alignment/TrReduction load
        from checkpoint."""
        _, rs = tiled
        pipe = Pipeline.default()
        pipe.run(rs, cfg, checkpoint_dir=tmp_path)
        changed = dataclasses.replace(cfg, partition_method="greedy")
        res = pipe.run(rs, changed, checkpoint_dir=tmp_path)
        assert res.stages_run == ["ExtractContig"]
        assert {name for name, why in res.stages_skipped if why == "checkpoint"} == {
            "CountKmer",
            "DetectOverlap",
            "Alignment",
            "TrReduction",
        }
        assert _sequences(res) == _sequences(full_run)

    def test_changed_upstream_knob_invalidates_downstream(
        self, tiled, cfg, tmp_path
    ):
        _, rs = tiled
        pipe = Pipeline.default()
        pipe.run(rs, cfg, checkpoint_dir=tmp_path)
        changed = dataclasses.replace(cfg, xdrop=cfg.xdrop + 5)
        res = pipe.run(rs, changed, checkpoint_dir=tmp_path)
        assert res.stages_run == ["Alignment", "TrReduction", "ExtractContig"]
        assert {name for name, why in res.stages_skipped} == {
            "CountKmer",
            "DetectOverlap",
        }

    def test_changed_reads_invalidates_everything(self, tiled, cfg, tmp_path):
        genome, rs = tiled
        pipe = Pipeline.default()
        pipe.run(rs, cfg, checkpoint_dir=tmp_path)
        other = tile_reads(make_genome(GenomeSpec(length=2500, seed=52)), 350, 140)
        res = pipe.run(other, cfg, checkpoint_dir=tmp_path)
        assert res.stages_run == MAIN_STAGES


class TestCheckpointFidelity:
    def test_resume_restores_s_and_tr_counts(self, tiled, cfg, tmp_path):
        """TrReduction's checkpoint holds S and nothing else; its rounds
        and removals come back through the checkpoint's counts."""
        _, rs = tiled
        pipe = Pipeline.default()
        first = pipe.run(rs, cfg, checkpoint_dir=tmp_path, until="TrReduction")
        res = pipe.run(rs, cfg, checkpoint_dir=tmp_path, until="TrReduction")
        assert res.stages_run == []
        assert ("TrReduction", "checkpoint") in res.stages_skipped
        for got, want in zip(
            res.artifacts["S"].to_global_coo(),
            first.artifacts["S"].to_global_coo(),
        ):
            assert np.array_equal(got, want)
        for key in ("tr_rounds", "tr_removed", "S_nnz"):
            assert res.counts[key] == first.counts[key]
        assert first.counts["tr_rounds"] >= 1


class TestObserverHooks:
    def test_hook_call_order(self, tiled, cfg):
        _, rs = tiled
        obs = CollectingObserver()
        Pipeline.default(observers=[obs]).run(rs, cfg)
        expected = []
        for name in MAIN_STAGES:
            expected += [("start", name), ("end", name)]
        assert obs.events == expected
        for name in MAIN_STAGES:
            assert obs.timings[name].modeled_seconds >= 0
            assert obs.timings[name].wall_seconds > 0

    def test_skip_hooks_fire(self, tiled, cfg, tmp_path):
        _, rs = tiled
        obs = CollectingObserver()
        pipe = Pipeline.default()
        pipe.run(rs, cfg, checkpoint_dir=tmp_path)
        pipe.run(
            rs, cfg, checkpoint_dir=tmp_path, until="TrReduction",
            observers=[obs],
        )
        assert obs.events == [("skip", n) for n in MAIN_STAGES]
        assert obs.skips["CountKmer"] == "checkpoint"
        assert obs.skips["ExtractContig"] == "until"

    def test_timing_matches_report(self, tiled, cfg):
        _, rs = tiled
        obs = CollectingObserver()
        res = Pipeline.default(observers=[obs]).run(rs, cfg)
        for name in MAIN_STAGES:
            assert obs.timings[name].modeled_seconds == pytest.approx(
                res.stage_seconds(name)
            )


class TestResultSurface:
    def test_seed_era_counters_present(self, full_run):
        assert full_run.counts["contigs"] == 1
        for key in (
            "reads",
            "bases",
            "reliable_kmers",
            "A_nnz",
            "C_nnz",
            "R_nnz",
            "S_nnz",
            "tr_rounds",
            "tr_removed",
            "contigs",
            "peak_memory_bytes",
        ):
            assert key in full_run.counts

    def test_keep_graphs_still_retains_matrices(self, tiled, full_run):
        _, rs = tiled
        config = PipelineConfig(
            nprocs=4, k=17, reliable_lo=1, end_margin=5, keep_graphs=True
        )
        res = Pipeline.default().run(rs, config)
        assert {"R", "S", "reads"} <= set(res.artifacts)
        assert full_run.artifacts == {}


# ---------------------------------------------------------------------------
# golden run: literals recorded on the commit *before* tracing and fault
# injection became observers, with everything attached at once
# ---------------------------------------------------------------------------

_KIND = {"start": "+", "end": "-", "skip": "~", "note": "!"}


def _everything_attached(reads, cfg, rules, ckpt):
    tracer = Tracer()
    injector = FaultInjector(FaultPlan(rules=rules))
    obs = CollectingObserver()
    res = Pipeline.default().run(
        reads, cfg, checkpoint_dir=ckpt, observers=[tracer, injector, obs]
    )

    def scrub(note):  # fingerprints and tmp paths are not the subject
        note = note.replace(str(ckpt), "<dir>")
        return re.sub(r"-[0-9a-f]{20}\.ckpt", "-<fp>.ckpt", note)

    return {
        "events": " ".join(_KIND[kind] + stage for kind, stage in obs.events),
        "notes": [f"{stage}: {scrub(note)}" for stage, note in obs.notes],
        "recoveries": res.recoveries,
        "run": res.stages_run,
        "skipped": res.stages_skipped,
        "stage_spans": [  # a stage span's attrs: skipped | failed, attempt
            s.name + str(s.attrs or "")
            for s in tracer.root.children if s.cat == "stage"
        ],
        "span_cats": " ".join(
            f"{n} {cat}"
            for cat, n in sorted(Counter(s.cat for s in tracer.spans()).items())
        ),
        "faults": len(injector.events),
        "digest": res.contig_digest(),
    }


class TestGoldenRun:
    def test_fault_free(self, tiled, cfg, full_run, tmp_path):
        assert _everything_attached(tiled[1], cfg, (), tmp_path) == {
            "events": " ".join(f"+{s} -{s}" for s in MAIN_STAGES),
            "notes": [],
            "recoveries": [],
            "run": MAIN_STAGES,
            "skipped": [],
            "stage_spans": MAIN_STAGES,
            "span_cats": "89 collective 5 kernel 60 rank 1 run 5 stage 16 superstep",
            "faults": 0,
            "digest": full_run.contig_digest(),
        }

    def test_crash_and_bitflip_then_resume_under_evict_race(
        self, tiled, cfg, full_run, tmp_path
    ):
        first = _everything_attached(tiled[1], cfg, (
            rank_crash(stage="Alignment", superstep=0, rank=2),
            checkpoint_corrupt(stage="DetectOverlap", when="save", mode="bitflip"),
        ), tmp_path)
        assert first == {
            "events": "+CountKmer -CountKmer +DetectOverlap -DetectOverlap "
                      "!DetectOverlap +Alignment !Alignment !Alignment "
                      "+Alignment -Alignment +TrReduction -TrReduction "
                      "+ExtractContig -ExtractContig",
            "notes": [
                "DetectOverlap: fault injected: checkpoint_corrupt "
                "(action=corrupted:bitflip, stage=DetectOverlap, when=save)",
                "Alignment: fault injected: rank_crash "
                "(rank=2, stage=Alignment, superstep=0)",
                "Alignment: recovery: rank 2 failed in superstep 0; "
                "re-executing Alignment (attempt 2 of 4)",
            ],
            "recoveries": [
                {"stage": "Alignment", "rank": 2, "superstep": 0, "attempt": 1}
            ],
            "run": MAIN_STAGES,
            "skipped": [],
            "stage_spans": [
                "CountKmer", "DetectOverlap",
                "Alignment{'failed': 'RankFailure', 'attempt': 1}",
                "Alignment{'attempt': 1}", "TrReduction", "ExtractContig",
            ],
            "span_cats": "93 collective 5 kernel 60 rank 1 run 6 stage 16 superstep",
            "faults": 2,
            "digest": full_run.contig_digest(),
        }
        # the same directory again: DetectOverlap's checkpoint is rotten,
        # and TrReduction's is torn out between `has` and `load`
        again = _everything_attached(
            tiled[1], cfg, (cache_evict_race(stage="TrReduction"),), tmp_path
        )
        assert again == {
            "events": "~CountKmer !DetectOverlap +DetectOverlap -DetectOverlap "
                      "~Alignment !TrReduction !TrReduction +TrReduction "
                      "-TrReduction ~ExtractContig",
            "notes": [
                "DetectOverlap: checkpoint unavailable, recomputing: "
                "checkpoint DetectOverlap-<fp>.ckpt failed its integrity "
                "check (corrupted on disk)",
                "TrReduction: fault injected: cache_evict_race "
                "(action=evicted, stage=TrReduction, when=load)",
                "TrReduction: checkpoint unavailable, recomputing: cannot "
                "read checkpoint TrReduction-<fp>.ckpt: [Errno 2] No such "
                "file or directory: '<dir>/TrReduction-<fp>.ckpt'",
            ],
            "recoveries": [],
            "run": ["DetectOverlap", "TrReduction"],
            "skipped": [(s, "checkpoint")
                        for s in ("CountKmer", "Alignment", "ExtractContig")],
            "stage_spans": [
                "CountKmer{'skipped': 'checkpoint'}", "DetectOverlap",
                "Alignment{'skipped': 'checkpoint'}", "TrReduction",
                "ExtractContig{'skipped': 'checkpoint'}",
            ],
            "span_cats": "31 collective 47 rank 1 run 5 stage 12 superstep",
            "faults": 1,
            "digest": full_run.contig_digest(),
        }


class _RunHooksOnly:
    """Defines two of the eight hooks and inherits nothing."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def on_run_start(self, ctx):
        self.log.append(("start", self.name))

    def on_run_end(self, ctx, wall_seconds):
        self.log.append(("end", self.name))


def _explode(ctx):
    raise ValueError("stage blew up")


class _CancelAtFirstStage:
    """One hook only -- and accepted as an observer all the same."""

    def on_stage_start(self, stage, ctx):
        raise JobCancelled("cancel observed")


class TestObserverLifecycle:
    @pytest.mark.parametrize("failure", ["run_start", "stage", "cancel"])
    def test_run_end_mirrors_run_start(self, tiled, cfg, failure, monkeypatch):
        """``on_run_end`` reaches, in reverse order, exactly the observers
        whose ``on_run_start`` returned, and whatever attached itself to
        the world is detached again."""
        world = SimWorld(cfg.nprocs, cfg.resolve_machine())
        store = DistReadStore.from_global(ProcGrid(world), tiled[1].reads)
        outer_tracer = Tracer().attach(world)
        outer_injector = world.fault_injector = FaultInjector(FaultPlan())

        log = []
        observers = [
            _RunHooksOnly("a", log), Tracer(), FaultInjector(FaultPlan()),
            _RunHooksOnly("b", log),
        ]
        pipeline, raised = Pipeline.default(), JobCancelled
        if failure == "run_start":  # a tracer sized for another world
            raised = TelemetryError
            observers += [Tracer(nprocs=64), _RunHooksOnly("never", log)]
        elif failure == "stage":
            raised = ValueError  # CountKmer, the first stage, blows up
            monkeypatch.setattr(pipeline.stages[0], "run", _explode)
        else:
            observers.append(_CancelAtFirstStage())
        with pytest.raises(raised):
            pipeline.run(store, cfg, observers=observers)
        assert log == [("start", "a"), ("start", "b"), ("end", "b"), ("end", "a")]
        assert world.tracer is outer_tracer
        assert world.fault_injector is outer_injector


class TestFingerprintBoundary:
    def test_every_scientific_field_is_claimed_by_a_main_stage(self):
        claimed = {f for s in Pipeline.default().stages for f in s.config_fields}
        every = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert len(EXECUTION_FIELDS) == 4 and EXECUTION_FIELDS <= every
        assert claimed == every - EXECUTION_FIELDS - {"nprocs", "machine"}

    def test_memory_mode_flip_resumes_every_stage(self, tiled, cfg, tmp_path):
        """C, R and S are bit-identical under either merge strategy, so a
        ``"low"`` rerun must hit all five ``"fast"`` checkpoints."""
        fast = Pipeline.default().run(tiled[1], cfg, checkpoint_dir=tmp_path)
        low = Pipeline.default().run(
            tiled[1], dataclasses.replace(cfg, memory_mode="low"),
            checkpoint_dir=tmp_path,
        )
        assert low.stages_skipped == [(s, "checkpoint") for s in MAIN_STAGES]
        assert low.contig_digest() == fast.contig_digest()


class TestRunRefusals:
    def test_prebuilt_store_with_wrong_rank_count(self, tiled, cfg):
        world = SimWorld(16, cfg.resolve_machine())
        store = DistReadStore.from_global(ProcGrid(world), tiled[1].reads)
        with pytest.raises(PipelineError, match=r"16-rank.*nprocs is 4"):
            Pipeline.default().run(store, cfg)

    def test_refused_before_a_world_is_built(self, cfg, monkeypatch):
        # (building one would now raise TypeError instead)
        monkeypatch.setattr("repro.pipeline.engine.SimWorld", None)
        with pytest.raises(PipelineError, match="needs reads or from_artifacts"):
            Pipeline.default().run(None, cfg)
