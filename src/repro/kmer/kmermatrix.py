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


def build_kmer_matrix(reads: DistReadStore, table: KmerTable) -> DistSparseMatrix:
    """Assemble the distributed A matrix from reads and the k-mer table."""
    grid, world = reads.grid, reads.grid.world
    k = table.k

    # per-rank raw occurrences: (local read, kmer_value, orient, pos)
    raw = [shard_kmers(shard.buffer, shard.offsets, k) for shard in reads.shards]
    world.charge_compute_all([shard.total_bases * 2 for shard in reads.shards])

    # resolve k-mer values to column ids (distributed lookup)
    col_ids = table.lookup([kmers for _read, kmers, _orient, _pos in raw])

    per_rank = []
    for r, (shard, (read, _kmers, orient, pos)) in enumerate(
        zip(reads.shards, raw)
    ):
        keep = col_ids[r] >= 0
        vals = np.empty(int(keep.sum()), dtype=KMER_POS_DTYPE)
        vals["pos"] = pos[keep]
        vals["orient"] = orient[keep]
        per_rank.append((shard.ids[read[keep]], col_ids[r][keep], vals))
    world.charge_compute_all([ids.size for ids in col_ids])

    # column-sorted, the order overlap detection's SpGEMM joins A in
    return DistSparseMatrix.from_rank_triples(
        grid,
        (reads.nreads, table.total),
        per_rank,
        add_reduce=_keep_first,
        dtype=KMER_POS_DTYPE,
        order="col",
    )
