"""Failure-injection and degenerate-input tests across the pipeline.

A production assembler sees pathological inputs constantly: empty files,
reads shorter than k, homopolymer runs, duplicated reads, invalid base
codes.  Every case here must either produce a clean, documented result or
raise the library's own error types -- never crash with an internal
IndexError or produce silently wrong output.
"""

import numpy as np
import pytest

from repro.core import contig_generation
from repro.errors import PipelineError, SequenceError
from repro.kmer.codec import encode_kmers
from repro.mpi import ProcGrid, SimWorld, zero_cost
from repro.pipeline import Pipeline, PipelineConfig
from repro.scaffold import polish_contigs, scaffold_contigs
from repro.seq import dna, tile_reads
from repro.seq.fasta import read_fasta
from repro.seq.readstore import DistReadStore


def run(reads, **kwargs):
    cfg = PipelineConfig(nprocs=kwargs.pop("nprocs", 4), k=kwargs.pop("k", 21), **kwargs)
    return Pipeline.default().run(reads, cfg)


class TestDegenerateReadSets:
    def test_single_read_yields_no_contigs(self):
        rng = np.random.default_rng(0)
        res = run([dna.random_codes(rng, 500)])
        assert res.contigs.count == 0

    def test_all_reads_shorter_than_k(self):
        rng = np.random.default_rng(1)
        reads = [dna.random_codes(rng, 10) for _ in range(20)]
        res = run(reads, k=21)
        assert res.contigs.count == 0
        assert res.counts["reliable_kmers"] == 0

    def test_duplicate_reads_collapse_by_containment(self):
        """Identical copies are mutually contained: at most a degenerate
        assembly, never a crash or an inflated duplication."""
        rng = np.random.default_rng(2)
        read = dna.random_codes(rng, 400)
        res = run([read.copy() for _ in range(6)])
        assert res.contigs.count <= 1

    def test_homopolymer_reads_survive(self):
        """A poly-A input has exactly one distinct k-mer; the seed matrix
        degenerates but nothing crashes."""
        reads = [np.zeros(300, dtype=np.uint8) for _ in range(4)]
        res = run(reads)
        assert res.contigs.count <= 1

    def test_two_disjoint_genomes_stay_separate(self):
        rng = np.random.default_rng(3)
        g1, g2 = dna.random_codes(rng, 1500), dna.random_codes(rng, 1500)
        reads = list(tile_reads(g1, 250, 100).reads) + list(
            tile_reads(g2, 250, 100).reads
        )
        res = run(reads)
        assert res.contigs.count == 2
        seqs = sorted(c.sequence() for c in res.contigs.contigs)
        want = sorted([dna.decode(g1), dna.decode(g2)])
        for got, ref in zip(seqs, want):
            assert got == ref or got == dna.revcomp_str(ref)

    def test_mixed_tiny_and_normal_reads(self):
        rng = np.random.default_rng(4)
        genome = dna.random_codes(rng, 1500)
        reads = list(tile_reads(genome, 250, 100).reads)
        reads += [dna.random_codes(rng, 5) for _ in range(10)]  # junk
        res = run(reads)
        assert res.contigs.count == 1

    def test_zero_reads_clean_empty_result(self):
        res = run([])
        assert res.contigs.count == 0
        assert res.counts["reads"] == 0

    @pytest.mark.parametrize("nreads, contigs", [(0, 0), (1, 0), (3, 1)])
    def test_fewer_reads_than_ranks(self, nreads, contigs):
        """P = 16 with 0, 1 and 3 reads: most ranks own no read, no matrix
        block and no vector element, and the result is still defined --
        three reads tiled at stride 150 chain into one contig."""
        genome = dna.random_codes(np.random.default_rng(7), 1500)
        reads = list(tile_reads(genome, 250, 150).reads)[:nreads]
        res = run(reads, nprocs=16)
        assert res.counts["reads"] == nreads
        assert res.contigs.count == contigs
        if contigs:
            want = dna.decode(genome[: 150 * (nreads - 1) + 250])
            got = res.contigs.contigs[0].sequence()
            assert got == want or got == dna.revcomp_str(want)


class TestInvalidSequences:
    def test_encode_rejects_bad_characters(self):
        with pytest.raises(SequenceError):
            dna.encode("ACGTX")

    def test_fasta_reader_rejects_bad_bases(self, tmp_path):
        p = tmp_path / "bad.fa"
        p.write_text(">r\nACGTN\n")
        with pytest.raises(SequenceError):
            read_fasta(p)

    def test_fasta_reader_empty_file(self, tmp_path):
        p = tmp_path / "empty.fa"
        p.write_text("")
        headers, seqs = read_fasta(p)
        assert headers == [] and seqs == []

    def test_kmer_encode_rejects_out_of_range_codes(self):
        from repro.errors import KmerError

        bad = np.array([0, 1, 7, 2], dtype=np.uint8)
        with pytest.raises(KmerError):
            encode_kmers(bad, 3)


class TestConfigBoundaries:
    def test_k_above_31_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(nprocs=4, k=33).validate()

    def test_k_zero_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(nprocs=4, k=0).validate()

    def test_nprocs_zero_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(nprocs=0).validate()

    def test_reliable_bounds_inverted(self):
        from repro.errors import KmerError
        from repro.kmer.counter import count_kmers

        world = SimWorld(1, zero_cost())
        grid = ProcGrid(world)
        store = DistReadStore.from_global(
            grid, [np.zeros(50, dtype=np.uint8)]
        )
        with pytest.raises(KmerError):
            count_kmers(store, 11, reliable_lo=5, reliable_hi=2)


class TestExtensionRobustness:
    def test_scaffold_of_garbage_contigs(self):
        """Homopolymer 'contigs' share every k-mer: the round must finish
        (either merging by containment or passing through)."""
        seqs = [np.zeros(200, dtype=np.uint8), np.zeros(150, dtype=np.uint8)]
        res = scaffold_contigs(seqs)
        assert 1 <= res.count <= 2

    def test_scaffold_tiny_fragments(self):
        seqs = [np.zeros(5, dtype=np.uint8), np.ones(5, dtype=np.uint8)]
        res = scaffold_contigs(seqs)
        assert res.count == 2  # too short for any k-mer: untouched

    def test_polish_with_empty_read_set(self):
        rng = np.random.default_rng(5)
        contig = dna.random_codes(rng, 300)
        res = polish_contigs([contig], [])
        assert res.total_changed == 0
        assert np.array_equal(res.contigs[0].codes, contig)

    def test_polish_reads_shorter_than_k(self):
        rng = np.random.default_rng(6)
        contig = dna.random_codes(rng, 300)
        reads = [contig[:10].copy() for _ in range(5)]
        res = polish_contigs([contig], reads)
        assert res.total_changed == 0

    def test_polish_all_reads_identical_garbage(self):
        """Unanimous wrong reads CAN outvote the contig -- that is what
        majority consensus means; verify it happens only where the reads
        actually align (anchors), never wholesale."""
        rng = np.random.default_rng(7)
        contig = dna.random_codes(rng, 400)
        unrelated = dna.random_codes(rng, 400)
        res = polish_contigs([contig], [unrelated.copy() for _ in range(5)])
        # unrelated reads share no anchors: contig untouched
        assert res.total_changed == 0
        assert res.stats[0].reads_skipped == 5


class TestCountLimitInjection:
    def test_tiny_count_limit_pipeline_identical(self):
        """Forcing the MPI big-count workaround onto every message of the
        read exchange must not change the assembly: contig generation on
        the run's own S under a 64-byte limit gives the run's contigs."""
        rng = np.random.default_rng(8)
        genome = dna.random_codes(rng, 2000)
        rs = tile_reads(genome, 250, 100)
        normal = Pipeline.default().run(
            rs, PipelineConfig(nprocs=4, k=21, keep_graphs=True)
        )
        S, reads = normal.artifacts["S"], normal.artifacts["reads"]
        forced = contig_generation(S, reads, count_limit=64)
        a = [c.sequence() for c in normal.contigs.contigs]
        b = [c.sequence() for c in forced.contigs]
        assert a and a == b
