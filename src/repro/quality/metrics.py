"""QUAST-style assembly quality metrics (Table 4's columns).

Contigs are mapped to the (known, simulated) reference with unique k-mer
anchors: every k-mer that occurs exactly once in the reference is an anchor;
contig k-mers matching an anchor (on either strand) vote for an alignment.
Colinear anchor runs become alignment blocks, from which the metrics follow:

* **completeness** -- fraction of reference bases covered by at least one
  aligned contig block (QUAST's genome fraction);
* **longest contig** and **number of contigs**;
* **misassembled contigs** -- contigs whose anchor chain breaks: consecutive
  blocks that jump more than ``break_threshold`` on the reference, land on
  different strands, or reorder (QUAST's relocation/inversion events);
* extras the paper does not tabulate but QUAST reports: N50, NG50, total
  assembled bases, duplication ratio.

On synthetic data with a known reference this anchor mapping is exact
enough to be a drop-in for QUAST's aligner-based pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.assembly import Contig
from ..kmer.codec import encode_kmers, revcomp_kmers
from ..seq.stats import _nx0
from ..util import sorted_lookup

__all__ = ["AlignmentBlock", "ContigMapping", "QualityReport", "evaluate_assembly"]


@dataclass(frozen=True)
class AlignmentBlock:
    """A colinear run of anchors: contig [c0, c1] maps to reference [r0, r1]."""

    contig_start: int
    contig_end: int
    ref_start: int
    ref_end: int
    strand: int
    n_anchors: int


@dataclass
class ContigMapping:
    """All alignment blocks of one contig."""

    contig_index: int
    length: int
    blocks: list[AlignmentBlock] = field(default_factory=list)
    misassembled: bool = False
    unaligned: bool = False


@dataclass
class QualityReport:
    """The Table 4 row (plus extras) for one assembly."""

    completeness: float
    longest_contig: int
    n_contigs: int
    misassemblies: int
    n50: int = 0
    ng50: int = 0
    total_bases: int = 0
    covered_bases: int = 0
    ref_length: int = 0
    duplication_ratio: float = 0.0
    unaligned_contigs: int = 0
    mappings: list[ContigMapping] = field(default_factory=list)

    def row(self) -> str:
        """Render in the paper's Table 4 column order."""
        return (
            f"completeness={self.completeness:.2%}  "
            f"longest={self.longest_contig}  contigs={self.n_contigs}  "
            f"misassembled={self.misassemblies}"
        )


def _unique_anchor_index(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted k-mer values occurring exactly once in ``codes`` (a reference
    or a contig), with their positions."""
    kmers = encode_kmers(codes, k)
    values, first_pos, counts = np.unique(
        kmers, return_index=True, return_counts=True
    )
    unique = counts == 1
    return values[unique], first_pos[unique].astype(np.int64)


def _match_anchors(
    codes: np.ndarray,
    k: int,
    index_vals: np.ndarray,
    index_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(contig_pos, ref_pos, strand) for every anchor hit of one contig."""
    kmers = encode_kmers(codes, k)
    if kmers.size == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    hits_pos, hits_ref, hits_strand = [], [], []
    for strand, query in ((1, kmers), (-1, revcomp_kmers(kmers, k))):
        found, loc = sorted_lookup(index_vals, query)
        idx = np.flatnonzero(found)
        hits_pos.append(idx)
        hits_ref.append(index_pos[loc[idx]] if index_pos.size else np.empty(0, np.int64))
        hits_strand.append(np.full(idx.size, strand, dtype=np.int64))
    pos = np.concatenate(hits_pos)
    ref = np.concatenate(hits_ref)
    strand = np.concatenate(hits_strand)
    order = np.argsort(pos, kind="stable")
    return pos[order], ref[order], strand[order]


def _chain_blocks(
    pos: np.ndarray,
    ref: np.ndarray,
    strand: np.ndarray,
    k: int,
    tolerance: int,
) -> list[AlignmentBlock]:
    """Split anchor hits into colinear blocks.

    Within a block the diagonal offset (``ref - strand * pos``) stays within
    ``tolerance`` and the strand is constant.
    """
    if pos.size == 0:
        return []
    diag = ref - strand * pos
    blocks: list[AlignmentBlock] = []
    start = 0
    for i in range(1, pos.size + 1):
        end_block = i == pos.size or (
            strand[i] != strand[start]
            or abs(int(diag[i]) - int(diag[i - 1])) > tolerance
        )
        if end_block:
            seg_ref = ref[start:i]
            blocks.append(
                AlignmentBlock(
                    contig_start=int(pos[start]),
                    contig_end=int(pos[i - 1]) + k,
                    ref_start=int(seg_ref.min()),
                    ref_end=int(seg_ref.max()) + k,
                    strand=int(strand[start]),
                    n_anchors=i - start,
                )
            )
            start = i
    return blocks


def _covered_length(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of [start, end) intervals."""
    if not intervals:
        return 0
    intervals = sorted(intervals)
    covered = 0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    covered += cur_hi - cur_lo
    return covered


def evaluate_assembly(
    contigs: list[Contig] | list[np.ndarray],
    reference: np.ndarray,
    k: int = 31,
    break_threshold: int = 1000,
    diag_tolerance: int = 50,
    min_anchors: int = 2,
) -> QualityReport:
    """Map contigs to the reference and compute the Table 4 metrics."""
    ref = np.asarray(reference, dtype=np.uint8)
    index_vals, index_pos = _unique_anchor_index(ref, k)

    mappings: list[ContigMapping] = []
    covered: list[tuple[int, int]] = []
    misassemblies = 0
    unaligned = 0
    lengths = []
    for ci, contig in enumerate(contigs):
        codes = contig.codes if isinstance(contig, Contig) else np.asarray(contig)
        lengths.append(codes.size)
        pos, rpos, strand = _match_anchors(codes, k, index_vals, index_pos)
        blocks = [
            b
            for b in _chain_blocks(pos, rpos, strand, k, diag_tolerance)
            if b.n_anchors >= min_anchors
        ]
        mapping = ContigMapping(contig_index=ci, length=int(codes.size), blocks=blocks)
        if not blocks:
            mapping.unaligned = True
            unaligned += 1
        else:
            for b in blocks:
                covered.append((b.ref_start, b.ref_end))
            # misassembly: consecutive blocks that are far apart on the
            # reference or disagree in strand
            for prev, nxt in zip(blocks, blocks[1:]):
                gap = min(
                    abs(nxt.ref_start - prev.ref_end),
                    abs(prev.ref_start - nxt.ref_end),
                )
                if nxt.strand != prev.strand or gap > break_threshold:
                    mapping.misassembled = True
            if mapping.misassembled:
                misassemblies += 1
        mappings.append(mapping)

    lengths_arr = np.asarray(lengths, dtype=np.int64)
    total = int(lengths_arr.sum()) if lengths_arr.size else 0
    covered_bases = min(_covered_length(covered), ref.size)
    aligned_total = sum(
        b.contig_end - b.contig_start for m in mappings for b in m.blocks
    )
    return QualityReport(
        completeness=covered_bases / ref.size if ref.size else 0.0,
        longest_contig=int(lengths_arr.max()) if lengths_arr.size else 0,
        n_contigs=len(lengths),
        misassemblies=misassemblies,
        n50=_nx0(lengths_arr, total / 2),
        ng50=_nx0(lengths_arr, ref.size / 2),
        total_bases=total,
        covered_bases=covered_bases,
        ref_length=int(ref.size),
        duplication_ratio=aligned_total / covered_bases if covered_bases else 0.0,
        unaligned_contigs=unaligned,
        mappings=mappings,
    )
