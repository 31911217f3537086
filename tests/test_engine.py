"""Unit tests for the composable stage-based pipeline engine."""

import dataclasses

import pytest

from repro import CollectingObserver, Pipeline, PipelineConfig
from repro.errors import PipelineError
from repro.pipeline import MAIN_STAGES, STAGE_REGISTRY, Stage, register_stage
from repro.seq import GenomeSpec, make_genome, tile_reads


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
        Pipeline.default()  # force stage module import
        for name in MAIN_STAGES:
            assert name in STAGE_REGISTRY

    def test_default_order_matches_paper(self):
        assert Pipeline.default().stage_names == MAIN_STAGES

    def test_optional_stages_appended(self):
        pipe = Pipeline.default(scaffold=True, polish=True)
        assert pipe.stage_names == MAIN_STAGES + ["Scaffold", "Polish"]

    def test_unknown_stage_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline(["CountKmer", "NoSuchStage"])

    def test_duplicate_stage_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline(["CountKmer", "CountKmer"])

    def test_register_requires_name(self):
        class Nameless(Stage):
            pass

        with pytest.raises(PipelineError):
            register_stage(Nameless)

    def test_custom_stage_runs(self, tiled, cfg):
        _, rs = tiled

        class NnzAudit(Stage):
            name = "NnzAudit"
            requires = ("S",)
            produces = ("s_nnz_audit",)

            def run(self, ctx):
                ctx.publish("s_nnz_audit", ctx.require("S").nnz())

        pipe = Pipeline(list(MAIN_STAGES) + [NnzAudit()])
        res = pipe.run(rs, cfg, keep_artifacts=True)
        assert res.artifacts["s_nnz_audit"] == res.counts["S_nnz"]
        assert res.stages_run[-1] == "NnzAudit"


class TestPartialRuns:
    def test_until_stops_after_stage(self, tiled, cfg):
        _, rs = tiled
        res = Pipeline.default().run(rs, cfg, until="TrReduction")
        assert res.stages_run == MAIN_STAGES[:4]
        assert res.contigs is None
        assert ("ExtractContig", "until") in res.stages_skipped
        assert "S" in res.artifacts and "R" in res.artifacts

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
    def test_resume_preserves_tr_alias(self, tiled, cfg, tmp_path):
        """'S' is checkpointed by reference: after a resume it must still
        be the same object as tr.S (and not serialized twice)."""
        _, rs = tiled
        pipe = Pipeline.default()
        pipe.run(rs, cfg, checkpoint_dir=tmp_path)
        res = pipe.run(
            rs, cfg, checkpoint_dir=tmp_path, until="TrReduction",
            keep_artifacts=True,
        )
        assert res.artifacts["tr"].S is res.artifacts["S"]

    def test_extra_config_invalidates_optional_stage(self, tiled, cfg, tmp_path):
        from repro.scaffold import ScaffoldConfig

        _, rs = tiled
        pipe = Pipeline.default(scaffold=True)
        pipe.run(rs, cfg, checkpoint_dir=tmp_path)
        changed = dataclasses.replace(
            cfg, extra={"scaffold": ScaffoldConfig(min_overlap=9999)}
        )
        res = pipe.run(rs, changed, checkpoint_dir=tmp_path)
        assert res.stages_run == ["Scaffold"]

    def test_string_stage_names_resolve_in_fresh_process(self):
        import subprocess
        import sys

        code = (
            "from repro.pipeline import Pipeline; "
            "print(Pipeline(['CountKmer', 'DetectOverlap']).stage_names)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert "['CountKmer', 'DetectOverlap']" in out.stdout


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
        pipe.add_observer(obs)
        pipe.run(rs, cfg, checkpoint_dir=tmp_path, until="TrReduction")
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

    def test_keep_graphs_still_retains_matrices(self, tiled):
        _, rs = tiled
        config = PipelineConfig(
            nprocs=4, k=17, reliable_lo=1, end_margin=5, keep_graphs=True
        )
        res = Pipeline.default().run(rs, config)
        assert res.R is not None and res.S is not None
        assert res.reads is not None


class TestOptionalStages:
    def test_scaffold_and_polish_stages(self, tiled, cfg):
        _, rs = tiled
        pipe = Pipeline.default(scaffold=True, polish=True)
        res = pipe.run(rs, cfg, keep_artifacts=True)
        assert "scaffolds" in res.artifacts
        assert "polished" in res.artifacts
        assert res.counts["scaffolds"] >= 1
        assert res.stages_run == MAIN_STAGES + ["Scaffold", "Polish"]
