"""Pileup-consensus polishing of assembled contigs (paper §7 future work).

The local assembly of §4.4 concatenates read subsequences *verbatim*: every
contig base is the base of exactly one read, so single-read sequencing
errors survive into the contig.  Polishing re-aligns the contig's reads to
the contig and replaces each column with the majority base among the reads
covering it, correcting isolated errors wherever depth permits.

The mapping is anchor-based, mirroring :mod:`repro.quality.metrics`: every
k-mer occurring exactly once in the contig is an anchor; a read's anchor
hits select its strand and a set of diagonal offsets.  Between consecutive
anchors the read's bases are placed with the left anchor's offset, which
tracks small indel drift piecewise instead of assuming one global offset.

Majority voting needs depth: columns covered by fewer than ``min_depth``
reads keep the original base (there is nothing to out-vote a single read
with).  Polishing therefore helps exactly where the paper's evaluation has
coverage -- 30-40x for the low-error datasets of Table 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.assembly import Contig
from ..errors import PipelineError
from ..kmer.codec import encode_kmers, revcomp_kmers
from ..quality.metrics import _unique_anchor_index
from ..seq import dna
from ..util import sorted_lookup

__all__ = [
    "PolishConfig",
    "ContigPolishStats",
    "PolishResult",
    "polish_contigs",
]


@dataclass(frozen=True)
class PolishConfig:
    """Knobs of the polishing pass.

    ``k`` is the anchor length (short enough that erroneous reads still
    have exact anchors: at error rate e a k-mer survives with probability
    (1-e)^k).  ``min_anchors`` rejects spurious read placements.
    ``min_depth`` is the minimum column coverage for a majority vote to
    override the original base.  ``rounds`` repeats the vote; one round is
    almost always enough because votes are independent of the contig bases.
    """

    k: int = 15
    min_anchors: int = 2
    min_depth: int = 2
    rounds: int = 1

    def validate(self) -> None:
        if not 1 <= self.k <= 31:
            raise PipelineError(f"polish k must be in [1, 31], got {self.k}")
        if self.min_anchors < 1:
            raise PipelineError(
                f"min_anchors must be >= 1, got {self.min_anchors}"
            )
        if self.min_depth < 1:
            raise PipelineError(f"min_depth must be >= 1, got {self.min_depth}")
        if self.rounds < 1:
            raise PipelineError(f"rounds must be >= 1, got {self.rounds}")


@dataclass
class ContigPolishStats:
    """Per-contig polishing outcome."""

    contig_index: int
    length: int
    reads_used: int
    reads_skipped: int
    bases_changed: int
    mean_depth: float
    low_depth_columns: int


@dataclass
class PolishResult:
    """Polished contig sequences plus per-contig diagnostics."""

    contigs: list[Contig]
    stats: list[ContigPolishStats] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def total_changed(self) -> int:
        return sum(s.bases_changed for s in self.stats)

    @property
    def total_reads_used(self) -> int:
        return sum(s.reads_used for s in self.stats)


def _anchor_hits(
    read: np.ndarray,
    k: int,
    index_vals: np.ndarray,
    index_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(read_pos, contig_pos, strand) anchor matches of one read.

    The strand with more hits wins; its hits are returned with read
    positions already expressed in the chosen orientation.
    """
    kmers = encode_kmers(read, k)
    if kmers.size == 0 or index_vals.size == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), 1
    best = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1)
    fwd_found, fwd_loc = sorted_lookup(index_vals, kmers)
    fwd_idx = np.flatnonzero(fwd_found)
    if fwd_idx.size:
        best = (fwd_idx.astype(np.int64), index_pos[fwd_loc[fwd_idx]], 1)
    rc = revcomp_kmers(kmers, k)
    rc_found, rc_loc = sorted_lookup(index_vals, rc)
    rc_idx = np.flatnonzero(rc_found)
    if rc_idx.size > best[0].size:
        # a hit of the reverse-complemented k-mer starting at read position
        # K maps to position (len - k - K) of the reverse-complemented read
        flipped = read.size - k - rc_idx.astype(np.int64)
        order = np.argsort(flipped, kind="stable")
        best = (flipped[order], index_pos[rc_loc[rc_idx]][order], -1)
    return best


def _vote_read(
    votes: np.ndarray,
    depth: np.ndarray,
    oriented: np.ndarray,
    read_pos: np.ndarray,
    contig_pos: np.ndarray,
) -> None:
    """Place one oriented read onto the pileup, anchor segment by segment.

    Bases between consecutive anchors use the left anchor's diagonal
    offset; bases before the first anchor use the first offset and bases
    after the last anchor use the last offset.
    """
    n = oriented.size
    length = votes.shape[1]
    offsets = contig_pos - read_pos
    # segment boundaries in read coordinates: [0, a_1, a_2, ..., n)
    starts = np.concatenate([[0], read_pos[1:]])
    stops = np.concatenate([read_pos[1:], [n]])
    for seg in range(starts.size):
        lo, hi = int(starts[seg]), int(stops[seg])
        if hi <= lo:
            continue
        cols = np.arange(lo, hi, dtype=np.int64) + int(offsets[seg])
        valid = (cols >= 0) & (cols < length)
        if not valid.any():
            continue
        cols = cols[valid]
        bases = oriented[lo:hi][valid]
        np.add.at(votes, (bases.astype(np.int64), cols), 1)
        depth[cols] += 1


def _polish_one(
    contig: Contig,
    reads_by_id: dict[int, np.ndarray],
    all_reads: list[np.ndarray] | None,
    cfg: PolishConfig,
    contig_index: int,
) -> tuple[Contig, ContigPolishStats]:
    codes = contig.codes
    index_vals, index_pos = _unique_anchor_index(codes, cfg.k)

    # candidate reads: the walk's own reads when provenance is available,
    # otherwise every read (the anchors reject non-covering ones)
    if contig.read_path and not all_reads:
        candidates = [
            reads_by_id[g] for g in contig.read_path if g in reads_by_id
        ]
    else:
        candidates = all_reads if all_reads is not None else []

    votes = np.zeros((4, codes.size), dtype=np.int32)
    depth = np.zeros(codes.size, dtype=np.int32)
    used = skipped = 0
    for read in candidates:
        read_pos, contig_pos, strand = _anchor_hits(
            read, cfg.k, index_vals, index_pos
        )
        if read_pos.size < cfg.min_anchors:
            skipped += 1
            continue
        oriented = read if strand == 1 else dna.revcomp(read)
        _vote_read(votes, depth, oriented, read_pos, contig_pos)
        used += 1

    winner = votes.argmax(axis=0).astype(np.uint8)
    confident = depth >= cfg.min_depth
    polished = np.where(confident, winner, codes).astype(np.uint8)
    changed = int((polished != codes).sum())
    out = Contig(
        codes=polished,
        read_path=list(contig.read_path),
        orientations=list(contig.orientations),
        circular=contig.circular,
        truncated=contig.truncated,
    )
    stats = ContigPolishStats(
        contig_index=contig_index,
        length=int(codes.size),
        reads_used=used,
        reads_skipped=skipped,
        bases_changed=changed,
        mean_depth=float(depth.mean()) if depth.size else 0.0,
        low_depth_columns=int((~confident).sum()),
    )
    return out, stats


def _polish_loop(
    contig: Contig,
    reads_by_id: dict[int, np.ndarray],
    all_reads: list[np.ndarray] | None,
    cfg: PolishConfig,
    ci: int,
) -> tuple[Contig, ContigPolishStats]:
    """Run up to ``cfg.rounds`` polish rounds on one contig."""
    current = contig
    total_stats: ContigPolishStats | None = None
    for _ in range(cfg.rounds):
        current, round_stats = _polish_one(
            current, reads_by_id, all_reads, cfg, ci
        )
        if total_stats is None:
            total_stats = round_stats
        else:
            total_stats.bases_changed += round_stats.bases_changed
        if round_stats.bases_changed == 0:
            break
    assert total_stats is not None
    return current, total_stats


def polish_contigs(
    contigs,
    reads,
    config: PolishConfig | None = None,
) -> PolishResult:
    """Polish a contig set against the reads that produced it.

    Parameters
    ----------
    contigs:
        :class:`~repro.core.assembly.Contig` objects (with ``read_path``
        provenance) or raw uint8 arrays.  Raw arrays are polished against
        *all* reads since no provenance restricts the candidates.
    reads:
        The read collection, as a list of uint8 code arrays (global id =
        list index), a :class:`~repro.seq.simulate.ReadSet`, or anything
        with a ``reads`` attribute holding such a list.
    config:
        Polish knobs; defaults follow :class:`PolishConfig`.
    """
    cfg = config or PolishConfig()
    cfg.validate()
    t0 = time.perf_counter()

    read_list = list(getattr(reads, "reads", reads))
    reads_by_id = {i: np.asarray(r, dtype=np.uint8) for i, r in enumerate(read_list)}

    out_contigs: list[Contig] = []
    stats: list[ContigPolishStats] = []
    for ci, contig in enumerate(contigs):
        if not isinstance(contig, Contig):
            contig = Contig(
                codes=np.asarray(contig, dtype=np.uint8),
                read_path=[],
                orientations=[],
            )
        current, last_stats = _polish_loop(
            contig,
            reads_by_id,
            None if contig.read_path else list(reads_by_id.values()),
            cfg,
            ci,
        )
        out_contigs.append(current)
        stats.append(last_stats)

    return PolishResult(
        contigs=out_contigs,
        stats=stats,
        wall_seconds=time.perf_counter() - t0,
    )
