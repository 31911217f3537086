"""Unit tests for the end-to-end pipeline driver and its reports."""

import numpy as np
import pytest

from repro import MAIN_STAGES, Pipeline, PipelineConfig
from repro.errors import KernelError, PipelineError
from repro.overlap import AlignmentParams
from repro.pipeline import breakdown_table, parallel_efficiency, scaling_table
from repro.pipeline.report import ScalingPoint
from repro.seq import GenomeSpec, dna, make_genome, tile_reads


@pytest.fixture(scope="module")
def tiled():
    genome = make_genome(GenomeSpec(length=2500, seed=51))
    return genome, tile_reads(genome, 350, 140)


class TestConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    def test_non_square_nprocs_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(nprocs=6).validate()

    def test_bad_k_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(k=40).validate()

    def test_bad_mode_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(align_mode="fast").validate()

    def test_bad_partition_method_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(partition_method="best").validate()

    def test_inverted_reliable_band_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(reliable_lo=5, reliable_hi=2).validate()

    def test_reliable_band_accepts_equal_bounds(self):
        PipelineConfig(reliable_lo=2, reliable_hi=2).validate()

    def test_min_shared_kmers_below_one_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(min_shared_kmers=0).validate()

    def test_negative_xdrop_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(xdrop=-1).validate()

    def test_negative_tr_fuzz_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(tr_fuzz=-1).validate()

    @pytest.mark.parametrize(
        "field, bad, floor",
        [
            ("reliable_lo", 0, 1),
            ("count_limit", 0, 1),
            ("tr_max_rounds", -1, 0),
            ("end_margin", -5, 0),
            ("min_overlap", -1, 0),
            ("min_contig_reads", -3, 1),
        ],
    )
    def test_values_that_fail_or_empty_the_run_rejected(self, field, bad, floor):
        """Each used to fail inside a stage or finish "ok" with 0 contigs;
        now the run is refused before any stage, as is a scaffold round's."""
        from repro.scaffold import ScaffoldConfig

        with pytest.raises(PipelineError, match=f"{field} must be >= {floor}"):
            PipelineConfig(**{field: bad}).validate()
        PipelineConfig(**{field: floor}).validate()
        if field in ("tr_max_rounds", "end_margin", "min_overlap", "min_contig_reads"):
            with pytest.raises(PipelineError, match=field):
                ScaffoldConfig(**{field: bad}).validate()
        rs = tile_reads(dna.random_codes(np.random.default_rng(5), 600), 200, 100)
        with pytest.raises(PipelineError, match=field):
            Pipeline.default().run(rs, PipelineConfig(nprocs=4, **{field: bad}))

    def test_machine_resolution(self):
        assert PipelineConfig(machine="summit-cpu").resolve_machine().name == "summit-cpu"
        with pytest.raises(PipelineError):
            PipelineConfig(machine="cray-1").resolve_machine()

    def test_machine_object_passthrough(self):
        from repro.mpi import cori_haswell

        m = cori_haswell().scaled(10)
        assert PipelineConfig(machine=m).resolve_machine() is m


class TestRunPipeline:
    def test_full_run_counts(self, tiled):
        genome, rs = tiled
        res = Pipeline.default().run(rs, PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5))
        c = res.counts
        assert c["reads"] == rs.count
        assert c["reliable_kmers"] > 0
        assert c["A_nnz"] > 0
        assert c["C_nnz"] > 0
        assert c["R_nnz"] > 0
        assert c["S_nnz"] <= c["R_nnz"]
        assert c["contigs"] == 1

    def test_all_main_stages_timed(self, tiled):
        genome, rs = tiled
        res = Pipeline.default().run(rs, PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5))
        breakdown = res.main_stage_breakdown()
        assert set(breakdown) == set(MAIN_STAGES)
        assert all(v >= 0 for v in breakdown.values())
        assert res.modeled_total > 0
        assert res.report.wall_seconds > 0

    def test_contig_substage_breakdown(self, tiled):
        genome, rs = tiled
        res = Pipeline.default().run(rs, PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5))
        sub = res.contig_substage_breakdown()
        assert "InducedSubgraph" in sub and "LocalAssembly" in sub
        assert sum(sub.values()) == pytest.approx(
            res.stage_seconds("ExtractContig"), rel=1e-9
        )

    def test_accepts_raw_read_list(self, tiled):
        genome, rs = tiled
        res = Pipeline.default().run(list(rs.reads), PipelineConfig(nprocs=1, k=17, reliable_lo=1, end_margin=5))
        assert res.contigs.count == 1

    def test_align_stats_exposed(self, tiled):
        genome, rs = tiled
        res = Pipeline.default().run(rs, PipelineConfig(nprocs=4, k=17, reliable_lo=1, end_margin=5))
        assert res.align_stats.pairs_aligned > 0
        assert res.align_stats.dovetails > 0

    def test_dp_at_zero_xdrop_assembles_error_free_tiles(self):
        """Error-free tiles at x = 0: the banded DP must extend through the
        dead gap-only antidiagonal next to the seed, as the gapless engine
        does, so both modes find every dovetail and one contig."""
        genome = dna.random_codes(np.random.default_rng(1), 3000)
        reads = tile_reads(genome, 500, 150).reads
        runs = {
            mode: Pipeline.default().run(
                reads,
                PipelineConfig(
                    nprocs=1, k=17, align_mode=mode, xdrop=0, end_margin=40,
                    tr_fuzz=150,
                ),
            )
            for mode in ("diag", "dp")
        }
        assert runs["dp"].align_stats.dovetails == runs["diag"].align_stats.dovetails
        assert runs["dp"].align_stats.internal == 0
        assert [c.length for c in runs["dp"].contigs.contigs] == [3000]


class TestStageSeconds:
    """stage_seconds must match the exact name and '/'-substages only."""

    def _result(self, stage_seconds):
        from repro.mpi.stats import TimingReport
        from repro.pipeline import PipelineResult

        return PipelineResult(
            report=TimingReport(
                nprocs=1, machine="unit", stage_seconds=stage_seconds
            )
        )

    def test_prefix_sibling_not_absorbed(self):
        res = self._result(
            {"Alignment": 1.0, "AlignmentExtra": 10.0, "Alignment/band": 0.5}
        )
        assert res.stage_seconds("Alignment") == pytest.approx(1.5)

    def test_exact_name_plus_substages(self):
        res = self._result(
            {
                "ExtractContig": 0.25,
                "ExtractContig/InducedSubgraph": 1.0,
                "ExtractContig/LocalAssembly": 0.5,
                "ExtractContigAudit": 99.0,
            }
        )
        assert res.stage_seconds("ExtractContig") == pytest.approx(1.75)

    def test_missing_stage_is_zero(self):
        res = self._result({"CountKmer": 1.0})
        assert res.stage_seconds("Alignment") == 0.0


class TestReports:
    def _fake_results(self, tiled, ps=(1, 4)):
        genome, rs = tiled
        return [
            Pipeline.default().run(rs, PipelineConfig(nprocs=p, k=17, reliable_lo=1, end_margin=5))
            for p in ps
        ]

    def test_scaling_table_renders(self, tiled):
        results = self._fake_results(tiled)
        text = scaling_table("unit-test", results)
        assert "P" in text and "efficiency" in text
        assert "unit-test" in text

    def test_breakdown_table_renders(self, tiled):
        results = self._fake_results(tiled)
        text = breakdown_table("unit-test", results)
        for stage in MAIN_STAGES:
            assert stage in text
        assert "InducedSubgraph" in text

    def test_parallel_efficiency_base_is_one(self):
        pts = [
            ScalingPoint(nprocs=1, modeled_seconds=8.0, wall_seconds=0),
            ScalingPoint(nprocs=4, modeled_seconds=2.5, wall_seconds=0),
        ]
        effs = parallel_efficiency(pts)
        assert effs[0] == pytest.approx(1.0)
        assert effs[1] == pytest.approx(8.0 / (2.5 * 4))

    def test_speedup(self):
        base = ScalingPoint(1, 8.0, 0.0)
        fast = ScalingPoint(4, 2.0, 0.0)
        assert fast.speedup_over(base) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# the kernel tier, contig engine and align batch size knobs are gone, with
# a defined result at every door
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value, constant",
    [
        ("kernel_tier", "native", "numpy"),
        ("contig_engine", "scalar", "batch"),
        ("align_batch_size", "3", 2048),
    ],
)
class TestRemovedKnobsRejected:
    def test_config(self, field, value, constant):
        with pytest.raises(TypeError, match=field):
            PipelineConfig(nprocs=4, **{field: value})
        # a class constant, still read by benchmarks/e2e
        assert getattr(PipelineConfig(), field) == constant

    def test_cli_flags(self, field, value, constant, tmp_path, capsys):
        from repro.cli import assemble_main
        from repro.cli import jobs as jobs_cli

        flag = "--" + field.replace("_", "-")
        doors = [(assemble_main, ["--preset", "c_elegans", flag, value])]
        if field == "kernel_tier":
            doors.append(
                (jobs_cli.main, ["worker", "--root", str(tmp_path), flag, value])
            )
        for main, argv in doors:
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_service_job_fails_on_first_attempt(
        self, field, value, constant, tmp_path
    ):
        from repro.service import JobService

        svc = JobService(tmp_path)
        job_id = svc.submit(
            {"kind": "simulate", "length": 2500, "seed": 51},
            {"nprocs": 4, "k": 17, field: value},
        )
        (record,) = svc.run_worker()
        assert record.job_id == job_id and record.state == "failed"
        assert "bad config override" in record.error
        assert record.attempts == 1
        assert svc.run_worker() == []


class TestKernelTierContract:
    """What ``benchmarks/e2e`` still calls: the one tier answers, any other
    name is a :class:`KernelError`."""

    def test_registry_stubs(self):
        from repro.kernels import native_available, resolve_kernel_tier

        assert resolve_kernel_tier() == "numpy"
        assert resolve_kernel_tier("numpy") == "numpy"
        assert native_available() is False
        with pytest.raises(KernelError, match="native"):
            resolve_kernel_tier("native")

    def test_worker_option_gone(self, tmp_path):
        from repro.service import JobService

        with pytest.raises(TypeError, match="kernel_tier"):
            JobService(tmp_path).run_worker(kernel_tier="numpy")

    def test_alignment_params(self):
        import pickle

        params = AlignmentParams(k=13, kernel_tier="numpy")
        assert params == AlignmentParams(k=13)
        assert pickle.loads(pickle.dumps(params)) == params
        with pytest.raises(KernelError):
            AlignmentParams(k=13, kernel_tier="native")

    def test_batch_xdrop_extend(self):
        from repro.align.batch import batch_xdrop_extend, pack_codes

        rng = np.random.default_rng(7)
        read = dna.random_codes(rng, 60)
        buffer, offsets = pack_codes([read, read])
        args = (buffer, offsets, [0], [1], [10], [10], [True], 11, 5)
        ref = batch_xdrop_extend(*args)
        got = batch_xdrop_extend(*args, kernel_tier="numpy")
        assert got.item(0) == ref.item(0) and int(ref.score[0]) == 60
        with pytest.raises(KernelError):
            batch_xdrop_extend(*args, kernel_tier="native")

    def test_contig_generation_and_local_assembly(self, tiled):
        from repro.core import contig_generation, local_assembly

        cfg = PipelineConfig(nprocs=4, k=17, keep_graphs=True)
        res = Pipeline.default().run(tiled[1], cfg)
        S, store = res.artifacts["S"], res.artifacts["reads"]
        got = contig_generation(S, store, kernel_tier="numpy")
        assert [c.codes.tobytes() for c in got.contigs] == [
            c.codes.tobytes() for c in res.contigs.contigs
        ]
        with pytest.raises(KernelError):
            contig_generation(S, store, kernel_tier="native")
        with pytest.raises(KernelError):
            local_assembly(None, None, kernel_tier="native")
