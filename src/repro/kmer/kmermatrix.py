"""Build the |reads| x |kmers| matrix **A** (Algorithm 1's ``GenerateA``).

Every reliable k-mer occurrence becomes a nonzero ``A[read, kmer]`` whose
payload records *where* in the read the k-mer occurs and with which
orientation relative to its canonical form (:data:`KMER_POS_DTYPE`).  When a
k-mer occurs several times in one read only the first occurrence is kept
(deterministic, mirroring BELLA's single-seed-per-pair bookkeeping).

The builder is fully distributed: each rank produces triples for its own
reads in one pass over its packed read buffer
(:func:`~repro.kmer.codec.shard_kmers`), resolves k-mer column ids through
the distributed
:class:`~repro.kmer.counter.KmerTable`, and the triples are routed to their
2D block owners by :meth:`DistSparseMatrix.from_rank_triples`.

A is the largest matrix of a run, so each step holds only what the next one
reads.  The occurrences' k-mer values go to the lookup, which lets them go
once routed; their reads, orientations and positions live until the
column ids are back, and each rank's occurrences and ids go as its
triples form.  ``from_rank_triples`` lets the triples go once routed, and
each block's received triples once it is deduplicated.
"""

from __future__ import annotations

import numpy as np

from ..seq.readstore import DistReadStore
from ..sparse.distmat import DistSparseMatrix
from ..sparse.types import KMER_POS_DTYPE
from .codec import shard_kmers
from .counter import KmerTable

__all__ = ["build_kmer_matrix"]


def _keep_first(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Duplicate policy for A: first occurrence in the read wins."""
    return vals[starts]


def _rank_triples(reads: DistReadStore, raw: list, col_ids: list) -> list:
    """Each rank's global ``(row, col, payload)`` triples of its reliable
    occurrences; ``raw`` and ``col_ids`` are emptied rank by rank."""
    per_rank = []
    for r, shard in enumerate(reads.shards):
        (read, orient, pos), ids = raw[r], col_ids[r]
        raw[r] = col_ids[r] = None
        keep = ids >= 0
        vals = np.empty(int(keep.sum()), dtype=KMER_POS_DTYPE)
        vals["pos"] = pos[keep]
        vals["orient"] = orient[keep]
        per_rank.append((shard.ids[read[keep]], ids[keep], vals))
    return per_rank


def build_kmer_matrix(reads: DistReadStore, table: KmerTable) -> DistSparseMatrix:
    """Assemble the distributed A matrix from reads and the k-mer table."""
    grid, world = reads.grid, reads.grid.world
    k = table.k

    # per-rank raw occurrences: [local read, kmer_value, orient, pos]
    raw = [
        list(shard_kmers(shard.buffer, shard.offsets, k)) for shard in reads.shards
    ]
    world.charge_compute_all([shard.total_bases * 2 for shard in reads.shards])

    # resolve k-mer values to column ids (distributed lookup); the values
    # leave ``raw`` for the lookup, which lets them go once routed
    col_ids = table.lookup([occ.pop(1) for occ in raw])
    world.charge_compute_all([ids.size for ids in col_ids])

    # column-sorted, the order overlap detection's SpGEMM joins A in
    return DistSparseMatrix.from_rank_triples(
        grid,
        (reads.nreads, table.total),
        _rank_triples(reads, raw, col_ids),
        add_reduce=_keep_first,
        dtype=KMER_POS_DTYPE,
        order="col",
    )
