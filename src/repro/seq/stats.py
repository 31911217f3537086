"""Read-set statistics: the QC numbers every assembler prints first.

Length statistics (N50, extremes, histogram), base composition, coverage
depth, and the canonical k-mer multiplicity spectrum -- the standard
k-mer-based depth estimator: sequencing errors pile up at multiplicity 1
while true genomic k-mers cluster around the coverage depth, so the
spectrum's second mode estimates depth without a reference (the same
statistic the reliable-k-mer filter of the pipeline thresholds on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kmer.codec import shard_kmers
from ..util import cumsum0

__all__ = ["ReadSetStats", "read_stats", "kmer_spectrum", "estimate_depth"]


@dataclass
class ReadSetStats:
    """Summary statistics of a read collection."""

    n_reads: int
    total_bases: int
    mean_length: float
    read_n50: int
    min_length: int
    max_length: int
    gc_content: float
    depth: float = 0.0  # only when a genome length is supplied
    length_histogram: dict[int, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"reads:        {self.n_reads}",
            f"total bases:  {self.total_bases}",
            f"mean length:  {self.mean_length:.1f}",
            f"read N50:     {self.read_n50}",
            f"length range: [{self.min_length}, {self.max_length}]",
            f"GC content:   {self.gc_content:.2%}",
        ]
        if self.depth:
            lines.append(f"depth:        {self.depth:.1f}x")
        return "\n".join(lines)


def _nx0(lengths: np.ndarray, target: float) -> int:
    """Length-weighted median-style statistic: the length of the piece
    whose cumulative sum, longest first, reaches ``target`` (N50 when
    ``target`` is half the total length, NG50 at half the genome's)."""
    if lengths.size == 0:
        return 0
    s = np.sort(lengths)[::-1]
    csum = np.cumsum(s)
    idx = int(np.searchsorted(csum, target))
    return int(s[min(idx, s.size - 1)])


def read_stats(
    reads,
    genome_length: int | None = None,
    histogram_bins: int = 10,
) -> ReadSetStats:
    """Compute summary statistics for a read collection.

    ``reads`` is a list of uint8 code arrays or anything with a ``reads``
    attribute holding one (e.g. a ReadSet).  ``genome_length`` enables the
    naive depth estimate total_bases / genome_length.
    """
    read_list = [np.asarray(r, dtype=np.uint8) for r in getattr(reads, "reads", reads)]
    lengths = np.array([r.size for r in read_list], dtype=np.int64)
    total = int(lengths.sum()) if lengths.size else 0
    gc = 0.0
    if total:
        # codes: A=0 C=1 G=2 T=3 -- GC are codes 1 and 2
        gc_count = sum(int(((r == 1) | (r == 2)).sum()) for r in read_list)
        gc = gc_count / total
    hist: dict[int, int] = {}
    if lengths.size:
        lo, hi = int(lengths.min()), int(lengths.max())
        edges = np.linspace(lo, hi + 1, histogram_bins + 1)
        counts, _ = np.histogram(lengths, bins=edges)
        hist = {int(edges[i]): int(counts[i]) for i in range(histogram_bins)}
    return ReadSetStats(
        n_reads=int(lengths.size),
        total_bases=total,
        mean_length=float(lengths.mean()) if lengths.size else 0.0,
        read_n50=_nx0(lengths, total / 2),
        min_length=int(lengths.min()) if lengths.size else 0,
        max_length=int(lengths.max()) if lengths.size else 0,
        gc_content=gc,
        depth=total / genome_length if genome_length else 0.0,
        length_histogram=hist,
    )


def kmer_spectrum(reads, k: int, max_multiplicity: int = 64) -> np.ndarray:
    """Canonical k-mer multiplicity spectrum.

    Returns ``counts`` where ``counts[m]`` is the number of *distinct*
    canonical k-mers occurring exactly ``m`` times across all reads
    (``m`` capped at ``max_multiplicity``; index 0 is always zero).
    """
    read_list = [np.asarray(r, dtype=np.uint8) for r in getattr(reads, "reads", reads)]
    offsets = cumsum0([r.size for r in read_list])
    buffer = np.concatenate(read_list) if read_list else np.empty(0, np.uint8)
    _read, canon, _orient, _pos = shard_kmers(buffer, offsets, k)
    counts = np.zeros(max_multiplicity + 1, dtype=np.int64)
    _, mult = np.unique(canon, return_counts=True)
    mult = np.minimum(mult, max_multiplicity)
    np.add.at(counts, mult, 1)
    return counts


def estimate_depth(spectrum: np.ndarray, error_cutoff: int = 1) -> float:
    """Reference-free depth estimate: the spectrum mode above the error band.

    Multiplicities ≤ ``error_cutoff`` are dominated by sequencing-error
    k-mers; the mode of the remainder sits at the coverage depth (for
    k-length survival-adjusted depth; the raw mode is the usual estimator).
    Returns 0.0 when the spectrum has no mass above the cutoff.
    """
    spectrum = np.asarray(spectrum, dtype=np.int64)
    if spectrum.size <= error_cutoff + 1:
        return 0.0
    tail = spectrum[error_cutoff + 1 :]
    if tail.sum() == 0:
        return 0.0
    return float(int(tail.argmax()) + error_cutoff + 1)
