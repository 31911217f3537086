"""Kernel-tier registry and numpy/native bit-identity.

The ``native`` tier (C extension under :mod:`repro._native`) must be an
invisible substitution for the numpy reference on every kernel: the
property corpora here reuse the scalar-reference generators of the batch
engines (``test_align_batch``/``test_contig_batch``) and assert
element-wise equality between tiers, plus full-pipeline
``contig_digest()`` equality.  The fallback
tests pin the graceful-degradation contract: a missing extension resolves
``native`` to ``numpy`` with an observer note, never a crash.
"""

import argparse
import pickle

import numpy as np
import pytest

import test_align_batch as align_fixtures
import test_contig_batch as contig_fixtures
from repro import kernels as kernels_mod
from repro.cli.common import (
    add_machine_arg,
    add_pipeline_args,
    build_pipeline_config,
)
from repro.core import local_assembly
from repro.errors import KernelError, PipelineError
from repro.kernels import (
    KERNEL_TIERS,
    default_kernel_tier,
    native_available,
    native_import_error,
    native_kernels,
    resolve_kernel_tier,
)
from repro.overlap.filter import AlignmentParams
from repro.pipeline import Pipeline, PipelineConfig, PipelineObserver
from repro.pipeline.stages import AlignmentStage, ExtractContigStage
from repro.seq import GenomeSpec, make_genome, tile_reads
from repro.service import JobService
from repro.telemetry import Tracer

requires_native = pytest.mark.skipif(
    not native_available(), reason="native kernel extension not built"
)


@pytest.fixture
def no_native(monkeypatch):
    """Simulate a host where the extension never built (probe failed)."""
    monkeypatch.setattr(kernels_mod, "_PROBED", True)
    monkeypatch.setattr(kernels_mod, "_NATIVE", None)
    monkeypatch.setattr(
        kernels_mod, "_NATIVE_ERROR", "No module named 'repro._native._kernels'"
    )


@pytest.fixture
def tiny_reads():
    genome = make_genome(GenomeSpec(length=2000, seed=51))
    return tile_reads(genome, 300, 120)


# -- registry ------------------------------------------------------------


class TestRegistry:
    def test_registered_tiers(self):
        assert KERNEL_TIERS == ("numpy", "native")

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        assert default_kernel_tier() == "numpy"
        assert resolve_kernel_tier(None) == "numpy"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "native")
        assert default_kernel_tier() == "native"

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "native")
        assert resolve_kernel_tier("numpy") == "numpy"

    def test_unknown_tier_raises(self):
        with pytest.raises(KernelError, match="unknown kernel tier"):
            resolve_kernel_tier("fortran")

    @requires_native
    def test_native_resolves_native(self):
        assert resolve_kernel_tier("native") == "native"
        mod = native_kernels()
        assert callable(mod.gapless_scan)
        assert callable(mod.banded_batch)
        assert callable(mod.walk_rounds)
        assert native_import_error() is None

    def test_missing_extension_falls_back(self, no_native):
        assert not native_available()
        assert resolve_kernel_tier("native") == "numpy"
        assert "._kernels" in native_import_error()
        with pytest.raises(KernelError, match="unavailable"):
            native_kernels()


# -- config / CLI --------------------------------------------------------


class TestConfigAndCli:
    def test_config_validates_tier(self):
        with pytest.raises(PipelineError, match="kernel_tier"):
            PipelineConfig(nprocs=4, kernel_tier="fortran").validate()

    def test_config_default_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "native")
        assert PipelineConfig().kernel_tier == "native"
        monkeypatch.delenv("REPRO_KERNEL_TIER")
        assert PipelineConfig().kernel_tier == "numpy"

    def test_tier_not_fingerprinted(self):
        # bit-identical knobs stay out of checkpoint fingerprints, like
        # align_batch_size / contig_engine
        assert "kernel_tier" not in AlignmentStage.config_fields
        assert "kernel_tier" not in ExtractContigStage.config_fields

    def test_cli_flag_applies(self):
        parser = argparse.ArgumentParser()
        add_machine_arg(parser)
        add_pipeline_args(parser)
        args = parser.parse_args(["--kernel-tier", "native"])
        assert build_pipeline_config(args).kernel_tier == "native"
        args = parser.parse_args([])
        cfg = build_pipeline_config(args)
        assert cfg.kernel_tier == default_kernel_tier()

    def test_cli_rejects_unknown_tier(self, capsys):
        parser = argparse.ArgumentParser()
        add_pipeline_args(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--kernel-tier", "fortran"])

    def test_params_pickle_roundtrip(self):
        params = AlignmentParams(k=13, kernel_tier="native")
        clone = pickle.loads(pickle.dumps(params))
        assert clone == params and clone.kernel_tier == "native"


# -- property corpus: alignment kernels ----------------------------------


@requires_native
class TestAlignmentTierIdentity:
    @pytest.mark.parametrize("mode", ["diag", "dp"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpus(self, mode, seed):
        """Tier equality on mixed-strand random tasks (revcomp pools in)."""
        rng = np.random.default_rng(900 + seed)
        reads, tasks = align_fixtures.random_corpus(rng, 40, 11)
        ref = align_fixtures.run_batch(
            reads, tasks, 11, 15, mode, kernel_tier="numpy"
        )
        out = align_fixtures.run_batch(
            reads, tasks, 11, 15, mode, kernel_tier="native"
        )
        for name in ("score", "a_begin", "a_end", "b_begin", "b_end"):
            np.testing.assert_array_equal(
                getattr(out, name), getattr(ref, name), err_msg=name
            )

    @pytest.mark.parametrize("mode", ["diag", "dp"])
    def test_native_matches_scalar_reference(self, mode):
        """Fuzz leg: the native tier against the PR 2 scalar aligner."""
        rng = np.random.default_rng(77)
        reads, tasks = align_fixtures.random_corpus(rng, 30, 9, max_len=120)
        scalars = align_fixtures.scalar_reference(reads, tasks, 9, 15, mode)
        out = align_fixtures.run_batch(
            reads, tasks, 9, 15, mode, kernel_tier="native"
        )
        align_fixtures.assert_identical(out, scalars)

    @pytest.mark.parametrize("x", [0, 3, 15])
    def test_tight_xdrop_and_scoring_knobs(self, x):
        rng = np.random.default_rng(43)
        reads, tasks = align_fixtures.random_corpus(rng, 25, 9, max_len=150)
        for kwargs in (
            {"match": 2, "mismatch": -3},
            {"gap": -2, "band": 3},
            {"gap": -5, "band": 1},
            {"gap": -1, "band": 0},
        ):
            mode = "dp" if ("gap" in kwargs or "band" in kwargs) else "diag"
            ref = align_fixtures.run_batch(
                reads, tasks, 9, x, mode, kernel_tier="numpy", **kwargs
            )
            out = align_fixtures.run_batch(
                reads, tasks, 9, x, mode, kernel_tier="native", **kwargs
            )
            for name in ("score", "a_begin", "a_end", "b_begin", "b_end"):
                np.testing.assert_array_equal(
                    getattr(out, name), getattr(ref, name),
                    err_msg=f"{name} with {kwargs}",
                )


# -- property corpus: walk kernel ----------------------------------------


@requires_native
class TestWalkTierIdentity:
    @pytest.mark.parametrize("emit_cycles", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_degree2_corpus(self, seed, emit_cycles):
        """Cycles, truncations and broken walks across both tiers."""
        rng = np.random.default_rng(700 + seed)
        graph, packed = contig_fixtures.random_degree2_graph(
            rng, n_components=10, corrupt_prob=0.4
        )
        ref = local_assembly(
            graph, packed, emit_cycles=emit_cycles,
            engine="batch", kernel_tier="numpy",
        )
        out = local_assembly(
            graph, packed, emit_cycles=emit_cycles,
            engine="batch", kernel_tier="native",
        )
        contig_fixtures.assert_results_identical(out, ref)

    def test_heavily_corrupted_matches_scalar(self):
        """Fuzz leg: native tier against the PR 3 scalar walk."""
        rng = np.random.default_rng(88)
        graph, packed = contig_fixtures.random_degree2_graph(
            rng, n_components=12, corrupt_prob=1.0
        )
        scalar = local_assembly(
            graph, packed, emit_cycles=True, engine="scalar"
        )
        out = local_assembly(
            graph, packed, emit_cycles=True,
            engine="batch", kernel_tier="native",
        )
        contig_fixtures.assert_results_identical(out, scalar)
        assert any(c.truncated for c in scalar.contigs) or scalar.n_cycles > 0


# -- full pipeline -------------------------------------------------------


class _NoteCollector(PipelineObserver):
    def __init__(self):
        self.notes = []

    def on_stage_note(self, stage, ctx, note):
        self.notes.append((stage, note))


@requires_native
class TestPipelineTierIdentity:
    def test_contig_digest_identical(self, tiny_reads):
        digests = {}
        for tier in KERNEL_TIERS:
            cfg = PipelineConfig(nprocs=4, k=15, kernel_tier=tier)
            digests[tier] = (
                Pipeline().run(tiny_reads, config=cfg).contig_digest()
            )
        assert digests["numpy"] == digests["native"]

    def test_tracer_digests_identical_with_tier_attribution(self, tiny_reads):
        digests, tiers_seen = {}, {}
        for tier in KERNEL_TIERS:
            tracer = Tracer()
            cfg = PipelineConfig(nprocs=4, k=15, kernel_tier=tier)
            Pipeline().run(tiny_reads, config=cfg, observers=[tracer])
            digests[tier] = tracer.digest()
            tiers_seen[tier] = {
                s.tier for s in tracer.root.walk() if s.cat == "kernel"
            }
        # identical digests (tier lives outside the identity) ...
        assert digests["numpy"] == digests["native"]
        # ... yet every kernel span knows which tier ran it
        assert tiers_seen["numpy"] == {"numpy"}
        assert tiers_seen["native"] == {"native"}


class TestFallback:
    def test_pipeline_survives_missing_extension(self, no_native, tiny_reads):
        collector = _NoteCollector()
        cfg = PipelineConfig(nprocs=4, k=15, kernel_tier="native")
        res = Pipeline().run(tiny_reads, config=cfg, observers=[collector])
        notes = [n for _, n in collector.notes if "kernel tier fallback" in n]
        assert notes and "numpy" in notes[0]
        ref = Pipeline().run(
            tiny_reads, config=PipelineConfig(nprocs=4, k=15)
        )
        assert res.contig_digest() == ref.contig_digest()

    def test_no_note_when_numpy_requested(self, no_native, tiny_reads):
        collector = _NoteCollector()
        cfg = PipelineConfig(nprocs=4, k=15, kernel_tier="numpy")
        Pipeline().run(tiny_reads, config=cfg, observers=[collector])
        assert not [n for _, n in collector.notes if "fallback" in n]


# -- job service ---------------------------------------------------------


class TestWorkerTier:
    SRC = {
        "kind": "simulate",
        "length": 2000,
        "seed": 51,
        "read_length": 300,
        "stride": 120,
    }

    def test_worker_rejects_unknown_tier(self, tmp_path):
        svc = JobService(tmp_path)
        from repro.service import JobError

        with pytest.raises(JobError, match="kernel tier"):
            svc.worker(kernel_tier="fortran")

    def test_summary_records_resolved_tier(self, tmp_path):
        svc = JobService(tmp_path)
        job_id = svc.submit(self.SRC, {"nprocs": 4, "k": 15})
        svc.run_worker(kernel_tier="numpy")
        assert svc.result(job_id)["kernel_tier"] == "numpy"

    @requires_native
    def test_worker_override_and_digest_parity(self, tmp_path):
        svc = JobService(tmp_path / "a")
        job_id = svc.submit(self.SRC, {"nprocs": 4, "k": 15})
        svc.run_worker(kernel_tier="native")
        summary = svc.result(job_id)
        assert summary["kernel_tier"] == "native"
        ref_svc = JobService(tmp_path / "b")
        ref_id = ref_svc.submit(self.SRC, {"nprocs": 4, "k": 15})
        ref_svc.run_worker(kernel_tier="numpy")
        ref = ref_svc.result(ref_id)
        assert summary["trace_digest"] == ref["trace_digest"]
        assert summary["contigs"] == ref["contigs"]

    def test_fallback_records_numpy(self, no_native, tmp_path):
        svc = JobService(tmp_path)
        job_id = svc.submit(self.SRC, {"nprocs": 4, "k": 15})
        svc.run_worker(kernel_tier="native")
        assert svc.result(job_id)["kernel_tier"] == "numpy"
