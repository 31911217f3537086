"""Tests for the console entry points (driven in-process)."""

import io

import numpy as np
import pytest

from repro import Pipeline, PipelineConfig
from repro.cli import assemble_main, quality_main, scaling_main
from repro.core import contig_generation
from repro.errors import AssemblyError
from repro.seq import dna, tile_reads
from repro.seq.fasta import read_fasta, write_fasta

FAST_PRESET = ["--preset", "c_elegans", "--scale", "100000"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A genome, its tiled reads FASTA, and a reference FASTA on disk."""
    tmp = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(5)
    genome = dna.random_codes(rng, 3000)
    rs = tile_reads(genome, 250, 100)
    reads_fa = tmp / "reads.fa"
    ref_fa = tmp / "ref.fa"
    write_fasta(reads_fa, ((f"r{i}", r) for i, r in enumerate(rs.reads)))
    write_fasta(ref_fa, [("ref", genome)])
    return {"tmp": tmp, "genome": genome, "reads_fa": reads_fa, "ref_fa": ref_fa}


def run(main, argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


class TestAssembleCli:
    def test_fasta_input_end_to_end(self, workspace):
        out_fa = workspace["tmp"] / "contigs.fa"
        rc, text = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21", "-P", "4",
             "-o", str(out_fa)],
        )
        assert rc == 0
        assert "assembled 1 contigs" in text
        _, contigs = read_fasta(out_fa)
        assert len(contigs) == 1
        got = contigs[0]
        ref = workspace["genome"]
        assert np.array_equal(got, ref) or np.array_equal(got, dna.revcomp(ref))

    def test_contig_engine_flag(self, workspace):
        """The scalar oracle and the default batch traversal assemble the
        same contig set from the string graph of the CLI's input."""
        _, reads = read_fasta(workspace["reads_fa"])
        cfg = PipelineConfig(nprocs=4, k=21, keep_graphs=True)
        res = Pipeline.default().run(reads, cfg)
        S, store = res.artifacts["S"], res.artifacts["reads"]
        scalar = contig_generation(S, store, assembly_engine="scalar")
        batch = contig_generation(S, store)
        assert batch.count == scalar.count == 1
        for a, b in zip(scalar.contigs, batch.contigs):
            assert np.array_equal(a.codes, b.codes)
            assert (a.read_path, a.orientations) == (b.read_path, b.orientations)

    def test_breakdown_lists_all_stages(self, workspace):
        rc, text = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21", "--breakdown"],
        )
        assert rc == 0
        for stage in ("CountKmer", "DetectOverlap", "Alignment",
                      "TrReduction", "ExtractContig"):
            assert stage in text

    def test_preset_with_quality(self):
        rc, text = run(
            assemble_main, FAST_PRESET + ["-P", "4", "--quality"]
        )
        assert rc == 0
        assert "quality: completeness=" in text

    def test_scaffold_and_polish_flags(self):
        rc, text = run(
            assemble_main, FAST_PRESET + ["--scaffold", "--polish"]
        )
        assert rc == 0
        assert "polish:" in text
        assert "scaffold:" in text

    def test_gap_fill_flag(self):
        rc, text = run(assemble_main, FAST_PRESET + ["--gap-fill"])
        assert rc == 0
        assert "gap-fill:" in text

    def test_stats_flag(self, workspace):
        rc, text = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21", "--stats"],
        )
        assert rc == 0
        assert "read N50" in text
        assert "k-mer depth estimate" in text

    def test_gfa_export(self, workspace):
        gfa = workspace["tmp"] / "graph.gfa"
        rc, text = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21",
             "--gfa", str(gfa)],
        )
        assert rc == 0
        lines = gfa.read_text().splitlines()
        assert lines[0] == "H\tVN:Z:1.0"
        assert any(l.startswith("L\t") for l in lines)
        assert any(l.startswith("P\t") for l in lines)

    def test_paf_export(self, workspace):
        paf = workspace["tmp"] / "overlaps.paf"
        rc, text = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21",
             "--paf", str(paf)],
        )
        assert rc == 0
        first = paf.read_text().splitlines()[0].split("\t")
        assert len(first) == 12
        assert first[4] in "+-"

    def test_memory_mode_low(self, workspace):
        rc, text = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21",
             "--memory-mode", "low"],
        )
        assert rc == 0
        assert "peak memory" in text

    def test_until_partial_run(self, workspace):
        rc, text = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21",
             "--until", "TrReduction", "--breakdown"],
        )
        assert rc == 0
        assert "partial run stopped after TrReduction" in text
        assert "assembled" not in text
        assert "TrReduction" in text

    def test_trace_prints_stage_lines(self, workspace):
        rc, text = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21", "--trace"],
        )
        assert rc == 0
        for stage in ("CountKmer", "ExtractContig"):
            assert f"[pipeline] {stage} ..." in text
            assert f"[pipeline] {stage} done" in text

    def test_checkpoint_then_resume(self, workspace, tmp_path):
        ckpt = tmp_path / "ckpt"
        argv = ["--fasta", str(workspace["reads_fa"]), "-k", "21",
                "--checkpoint-dir", str(ckpt)]
        rc, text1 = run(assemble_main, argv)
        assert rc == 0
        rc, text2 = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21", "--trace",
             "--resume-from", str(ckpt)],
        )
        assert rc == 0
        assert "[pipeline] CountKmer skipped (checkpoint)" in text2
        assert "assembled 1 contigs" in text2

    def test_resume_from_missing_dir_fails(self, workspace, capsys):
        rc, _ = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21",
             "--resume-from", "/does/not/exist"],
        )
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err

    def test_missing_fasta_fails_cleanly(self, capsys):
        rc, _ = run(assemble_main, ["--fasta", "/does/not/exist.fa"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_quality_without_preset_fails(self, workspace, capsys):
        rc, _ = run(
            assemble_main,
            ["--fasta", str(workspace["reads_fa"]), "-k", "21", "--quality"],
        )
        assert rc == 1
        assert "requires --preset" in capsys.readouterr().err

    def test_mutually_exclusive_inputs(self, workspace):
        with pytest.raises(SystemExit):
            assemble_main(
                ["--fasta", str(workspace["reads_fa"]), "--preset", "c_elegans"]
            )

    def test_input_required(self):
        with pytest.raises(SystemExit):
            assemble_main([])


class TestQualityCli:
    @pytest.fixture(scope="class")
    def contig_fa(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("qc")
        rng = np.random.default_rng(9)
        genome = dna.random_codes(rng, 2000)
        ref = tmp / "ref.fa"
        asm = tmp / "asm.fa"
        write_fasta(ref, [("ref", genome)])
        write_fasta(
            asm,
            [("c0", genome[:1200]), ("c1", genome[1100:])],
        )
        return asm, ref

    def test_basic_metrics(self, contig_fa):
        asm, ref = contig_fa
        rc, text = run(quality_main, [str(asm), str(ref), "-k", "21"])
        assert rc == 0
        assert "completeness=100.00%" in text
        assert "n50=" in text

    def test_per_contig_listing(self, contig_fa):
        asm, ref = contig_fa
        rc, text = run(
            quality_main, [str(asm), str(ref), "-k", "21", "--per-contig"]
        )
        assert rc == 0
        assert "contig_0:" in text and "contig_1:" in text

    def test_missing_file_fails_cleanly(self, contig_fa, capsys):
        _, ref = contig_fa
        rc, _ = run(quality_main, ["/nope.fa", str(ref)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_multi_sequence_reference_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        ref = tmp_path / "multi.fa"
        asm = tmp_path / "asm.fa"
        write_fasta(ref, [("a", dna.random_codes(rng, 100)),
                          ("b", dna.random_codes(rng, 100))])
        write_fasta(asm, [("c", dna.random_codes(rng, 100))])
        rc, _ = run(quality_main, [str(asm), str(ref)])
        assert rc == 1
        assert "multi-sequence" in capsys.readouterr().err


class TestScalingCli:
    def test_sweep_renders_tables(self):
        rc, text = run(
            scaling_main,
            FAST_PRESET + ["-P", "1", "4", "--breakdown"],
        )
        assert rc == 0
        assert "strong scaling" in text
        assert "efficiency" in text
        assert "runtime breakdown" in text

    def test_non_square_grid_rejected(self, capsys):
        rc, _ = run(scaling_main, ["-P", "3"])
        assert rc == 1
        assert "perfect square" in capsys.readouterr().err

    def test_machine_choice_validated(self):
        with pytest.raises(SystemExit):
            scaling_main(["--machine", "cray-1"])


#: name -> (FASTA bytes, the record and line the error must name, the character)
BAD_FASTAS = {
    "N": (b">r0\nACGT\n>r1 ambiguous\nACGTNACGT\n", "record 'r1 ambiguous', line 4", "'N'"),
    "lower-case-iupac": (b">r0\nACGT\n>r1\nACGT\nACrT\n", "record 'r1', line 5", "'r'"),
    "non-ascii-byte": (b">r1\nAC\xffGT\n", "record 'r1', line 2", "0xff"),
}


def assert_one_error_line(rc, capsys, *needles):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


class TestLibraryErrorsAreOneLine:
    """Any ``ReproError`` leaves a console script as one ``error:`` line and
    exit status 1 -- never a traceback."""

    @pytest.mark.parametrize("name", sorted(BAD_FASTAS))
    def test_bad_fasta_names_record_line_and_character(
        self, name, tmp_path, capsys
    ):
        data, where, char = BAD_FASTAS[name]
        path = tmp_path / "bad.fa"
        path.write_bytes(data)
        rc, _ = run(assemble_main, ["--fasta", str(path), "-P", "4"])
        assert_one_error_line(rc, capsys, where, char)

    def test_bad_fasta_in_quality(self, workspace, tmp_path, capsys):
        path = tmp_path / "bad.fa"
        path.write_bytes(BAD_FASTAS["N"][0])
        rc, _ = run(quality_main, [str(path), str(workspace["ref_fa"])])
        assert_one_error_line(rc, capsys, "line 4", "'N'")

    def test_error_raised_inside_a_run(self, workspace, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AssemblyError("walk left the component")

        monkeypatch.setattr("repro.pipeline.Pipeline.run", boom)
        rc, _ = run(
            assemble_main, ["--fasta", str(workspace["reads_fa"]), "-k", "21"]
        )
        assert_one_error_line(rc, capsys, "walk left the component")
        rc, _ = run(scaling_main, FAST_PRESET + ["-P", "1"])
        assert_one_error_line(rc, capsys, "walk left the component")
