"""Tests for the GFA/PAF interchange exports."""

import io

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.export import gfa_lines, paf_lines, write_gfa, write_paf
from repro.kmer.counter import count_kmers
from repro.kmer.kmermatrix import build_kmer_matrix
from repro.mpi import ProcGrid, SimWorld, zero_cost
from repro.overlap.detect import detect_overlaps
from repro.overlap.filter import AlignmentParams, build_overlap_graph
from repro.pipeline import Pipeline, PipelineConfig
from repro.seq import dna, tile_reads
from repro.seq.readstore import DistReadStore
from repro.strgraph.transitive import transitive_reduction


@pytest.fixture(scope="module")
def assembled():
    """Pipeline products of a clean forward tiling: S, reads, contigs."""
    rng = np.random.default_rng(21)
    genome = dna.random_codes(rng, 2400)
    rs = tile_reads(genome, 300, 120)
    world = SimWorld(4, zero_cost())
    grid = ProcGrid(world)
    store = DistReadStore.from_global(grid, list(rs.reads))
    table = count_kmers(store, 21, reliable_lo=2)
    A = build_kmer_matrix(store, table)
    C, _ = detect_overlaps(A)
    R, _ = build_overlap_graph(
        C, store, AlignmentParams(k=21, xdrop=15, end_margin=5)
    )
    tr = transitive_reduction(R)
    result = Pipeline.default().run(rs, PipelineConfig(nprocs=4, k=21, end_margin=5))
    return {
        "genome": genome,
        "reads": list(rs.reads),
        "store": store,
        "R": R,
        "S": tr.S,
        "contigs": result.contigs.contigs,
    }


def parse_gfa(lines):
    recs = {"H": [], "S": [], "L": [], "P": []}
    for line in lines:
        recs[line.split("\t", 1)[0]].append(line.split("\t"))
    return recs


class TestGfa:
    def test_header_and_segments(self, assembled):
        recs = parse_gfa(gfa_lines(assembled["S"], assembled["reads"]))
        assert recs["H"] == [["H", "VN:Z:1.0"]]
        rows, cols, _ = assembled["S"].to_global_coo()
        live = set(np.concatenate([rows, cols]).tolist())
        assert len(recs["S"]) == len(live)
        # segment bodies carry the actual sequences
        for seg in recs["S"]:
            rid = int(seg[1].removeprefix("read"))
            assert seg[2] == dna.decode(assembled["reads"][rid])

    def test_one_link_per_undirected_edge(self, assembled):
        recs = parse_gfa(gfa_lines(assembled["S"], assembled["reads"]))
        assert len(recs["L"]) == assembled["S"].nnz() // 2

    def test_forward_tiling_links_all_plus(self, assembled):
        """An all-forward tiling overlaps suffix->prefix everywhere."""
        recs = parse_gfa(gfa_lines(assembled["S"], assembled["reads"]))
        for link in recs["L"]:
            assert (link[2], link[4]) in {("+", "+"), ("-", "-")}

    def test_cigar_lengths_within_read_bounds(self, assembled):
        recs = parse_gfa(gfa_lines(assembled["S"], assembled["reads"]))
        for link in recs["L"]:
            v = int(link[3].removeprefix("read"))
            n = int(link[5].removesuffix("M"))
            assert 0 < n <= assembled["reads"][v].size

    def test_paths_match_contig_provenance(self, assembled):
        recs = parse_gfa(
            gfa_lines(assembled["S"], assembled["reads"], assembled["contigs"])
        )
        assert len(recs["P"]) == len(assembled["contigs"])
        for path, contig in zip(recs["P"], assembled["contigs"]):
            steps = path[2].split(",")
            assert len(steps) == len(contig.read_path)
            for step, gid, orient in zip(
                steps, contig.read_path, contig.orientations
            ):
                assert step == f"read{gid}{'+' if orient == 1 else '-'}"

    def test_without_reads_star_bodies(self, assembled):
        recs = parse_gfa(gfa_lines(assembled["S"]))
        assert all(seg[2] == "*" for seg in recs["S"])

    def test_contigs_only_export(self, assembled):
        recs = parse_gfa(
            gfa_lines(None, assembled["reads"], assembled["contigs"])
        )
        assert recs["L"] == []
        assert len(recs["P"]) == len(assembled["contigs"])
        assert len(recs["S"]) == len(
            {g for c in assembled["contigs"] for g in c.read_path}
        )

    def test_write_to_handle_and_path(self, assembled, tmp_path):
        buf = io.StringIO()
        n = write_gfa(buf, assembled["S"], assembled["reads"])
        assert n == len(buf.getvalue().splitlines())
        p = tmp_path / "graph.gfa"
        n2 = write_gfa(p, assembled["S"], assembled["reads"])
        assert n2 == n
        assert p.read_text().splitlines()[0] == "H\tVN:Z:1.0"

    def test_dist_read_store_accepted(self, assembled):
        recs = parse_gfa(gfa_lines(assembled["S"], assembled["store"]))
        assert recs["S"]


class TestPaf:
    def test_one_record_per_pair(self, assembled):
        recs = list(paf_lines(assembled["R"], assembled["reads"]))
        assert len(recs) == assembled["R"].nnz() // 2

    def test_coordinates_in_bounds(self, assembled):
        for line in paf_lines(assembled["R"], assembled["reads"]):
            f = line.split("\t")
            qlen, qs, qe = int(f[1]), int(f[2]), int(f[3])
            tlen, ts, te = int(f[6]), int(f[7]), int(f[8])
            assert 0 <= qs < qe <= qlen
            assert 0 <= ts < te <= tlen
            assert int(f[9]) <= int(f[10])
            assert f[11] == "255"

    def test_forward_tiling_all_plus_strand(self, assembled):
        for line in paf_lines(assembled["R"], assembled["reads"]):
            assert line.split("\t")[4] == "+"

    def test_reverse_strand_detected(self):
        """Alternate-strand tiling must produce '-' records."""
        rng = np.random.default_rng(8)
        genome = dna.random_codes(rng, 1500)
        rs = tile_reads(genome, 300, 120, strand_pattern="alternate")
        world = SimWorld(1, zero_cost())
        grid = ProcGrid(world)
        store = DistReadStore.from_global(grid, list(rs.reads))
        table = count_kmers(store, 21, reliable_lo=2)
        A = build_kmer_matrix(store, table)
        C, _ = detect_overlaps(A)
        R, _ = build_overlap_graph(
            C, store, AlignmentParams(k=21, xdrop=15, end_margin=5)
        )
        strands = {
            line.split("\t")[4] for line in paf_lines(R, list(rs.reads))
        }
        assert "-" in strands

    def test_overlap_lengths_match_tiling(self, assembled):
        """Adjacent 300/120 tiles overlap by exactly 180 bases (the final
        tile is clamped to the genome end, widening its overlap)."""
        last = len(assembled["reads"]) - 1
        spans = []
        for line in paf_lines(assembled["R"], assembled["reads"]):
            f = line.split("\t")
            u = int(f[0].removeprefix("read"))
            v = int(f[5].removeprefix("read"))
            if abs(u - v) == 1 and max(u, v) != last:
                spans.append(int(f[3]) - int(f[2]))
        assert spans and all(s == 180 for s in spans)

    def test_missing_read_raises(self, assembled):
        with pytest.raises(DistributionError):
            list(paf_lines(assembled["R"], assembled["reads"][:2]))

    def test_write_paf_counts(self, assembled, tmp_path):
        p = tmp_path / "ov.paf"
        n = write_paf(p, assembled["R"], assembled["reads"])
        assert n == len(p.read_text().splitlines())
        assert n == assembled["R"].nnz() // 2
