"""Distributed k-mer counting with a reliable-k-mer filter (``KmerCounter``).

The standard owner-computes pattern of diBELLA/HipMer-family assemblers:

1. every rank extracts the canonical k-mers of its local reads, in one
   pass over its packed read buffer (:func:`~repro.kmer.codec.shard_kmers`);
2. a hash of the k-mer value assigns each k-mer an *owner* rank; one
   routed exchange (:meth:`SimComm.route <repro.mpi.comm.SimComm.route>`)
   sends the k-mers to their owners;
3. owners count occurrences and keep only **reliable** k-mers -- those whose
   multiplicity lies in ``[reliable_lo, reliable_hi]``.  Singletons are
   almost surely sequencing errors; k-mers far above the coverage depth come
   from repeats and would densify the overlap matrix with false candidates;
4. owners number their retained k-mers into a global contiguous id space
   (exclusive scan over per-owner counts), so k-mers become matrix columns.

The resulting :class:`KmerTable` answers distributed id lookups (the same
route, with a reply), which is how the matrix-A builder turns k-mer
occurrences into column indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import KmerError
from ..mpi.grid import ProcGrid
from ..util import cumsum0, sorted_lookup
from ..seq.readstore import DistReadStore
from .codec import _check_k, shard_kmers

__all__ = ["KmerTable", "count_kmers"]

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _owner_of(kmers: np.ndarray, nprocs: int) -> np.ndarray:
    """Hash-partition k-mer values over ranks (splitmix-style mixing).

    Owners come back in the narrowest dtype that holds a rank: between the
    hashing superstep and the route plan all P owner arrays are alive at
    once, one entry per k-mer occurrence.
    """
    x = kmers * _MIX
    x ^= x >> np.uint64(29)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(32)
    return (x % np.uint64(nprocs)).astype(np.min_scalar_type(nprocs))


def _extract_step(ctx, shard, k, nprocs):
    """One rank's canonical k-mers and their hash owners."""
    _read, mine, _orient, _pos = shard_kmers(shard.buffer, shard.offsets, k)
    ctx.charge_compute(shard.total_bases * 2)
    return mine, _owner_of(mine, nprocs)


def _count_step(ctx, received, reliable_lo, reliable_hi):
    """An owner counts the k-mers it received and keeps the reliable ones."""
    uniq, cnt = np.unique(received, return_counts=True)
    keep = cnt >= reliable_lo
    if reliable_hi is not None:
        keep &= cnt <= reliable_hi
    uniq, cnt = uniq[keep], cnt[keep]
    ctx.charge_compute(received.size + uniq.size)
    return uniq, cnt.astype(np.int64)


def _owner_step(ctx, vals, nprocs):
    """Hash one rank's lookup requests to their owners."""
    ctx.charge_compute(vals.size)
    return _owner_of(vals, nprocs)


def _bisect_step(ctx, vals, table, base):
    """An owner bisects its sorted table with sorted requests (neighbouring
    queries share their search path), then scatters the ids back into
    request order."""
    order = np.argsort(vals)
    hit, pos = sorted_lookup(table, vals[order])
    ctx.charge_compute(vals.size)
    pos += base
    pos[~hit] = -1
    ids = np.empty_like(pos)
    ids[order] = pos
    return ids


@dataclass
class KmerTable:
    """Reliable canonical k-mers with their global column ids.

    ``kmers_by_owner[o]`` is the sorted array of k-mer values owned by rank
    ``o``; its ids are ``offsets[o] + arange(len)``.
    """

    grid: ProcGrid
    k: int
    kmers_by_owner: list[np.ndarray]
    counts_by_owner: list[np.ndarray]
    offsets: np.ndarray  # exclusive scan of per-owner retained counts

    @property
    def total(self) -> int:
        """Number of reliable k-mers = columns of matrix A."""
        return int(self.offsets[-1])

    def lookup(self, requests: list[np.ndarray]) -> list[np.ndarray]:
        """Resolve k-mer values to global ids (-1 = not reliable).

        ``requests[r]`` are rank r's k-mer values; they are routed to
        their owners, owners bisect their sorted tables, and the reply
        returns the ids in request order.
        """
        grid, world = self.grid, self.grid.world
        P = grid.nprocs
        requests = [np.asarray(req, dtype=np.uint64) for req in requests]

        # local superstep: hash each rank's requests to their owners
        owners = world.map_ranks(partial(_owner_step, nprocs=P), requests)
        plan = world.comm.route(owners)
        (asked,) = plan.send(requests)

        # owner superstep: bisect the sorted tables, reply in request order
        return plan.reply(
            world.map_ranks(
                _bisect_step, asked, self.kmers_by_owner, list(self.offsets[:P])
            )
        )


def count_kmers(
    reads: DistReadStore,
    k: int,
    reliable_lo: int = 2,
    reliable_hi: int | None = None,
) -> KmerTable:
    """Count canonical k-mers across all ranks and build the reliable table.

    Parameters
    ----------
    reads:
        The block-distributed read store.
    k:
        k-mer length in ``[1, 31]`` (:class:`KmerError` otherwise, checked
        before any superstep, even when no rank holds a read).
    reliable_lo, reliable_hi:
        Multiplicity bounds of the reliable-k-mer filter.  ``reliable_hi``
        of None disables the upper bound.
    """
    _check_k(k)
    if reliable_lo < 1:
        raise KmerError(f"reliable_lo must be >= 1, got {reliable_lo}")
    if reliable_hi is not None and reliable_hi < reliable_lo:
        raise KmerError(
            f"reliable_hi ({reliable_hi}) < reliable_lo ({reliable_lo})"
        )
    grid, world = reads.grid, reads.grid.world
    P = grid.nprocs

    # 1-2) extract canonical k-mers and route to hash owners
    extracted = world.map_ranks(
        partial(_extract_step, k=k, nprocs=P), reads.shards
    )
    plan = world.comm.route(owner for _mine, owner in extracted)
    (recv,) = plan.send([mine for mine, _owner in extracted])

    # 3) owners count and filter
    counted = world.map_ranks(
        partial(_count_step, reliable_lo=reliable_lo, reliable_hi=reliable_hi),
        recv,
    )
    kmers_by_owner = [uniq for uniq, _cnt in counted]
    counts_by_owner = [cnt for _uniq, cnt in counted]
    retained = np.array([uniq.size for uniq in kmers_by_owner], dtype=np.int64)

    # 4) global contiguous ids via exclusive scan (allgather of counts)
    gathered = world.comm.allgather([int(x) for x in retained])
    offsets = cumsum0(gathered)
    return KmerTable(
        grid=grid,
        k=k,
        kmers_by_owner=kmers_by_owner,
        counts_by_owner=counts_by_owner,
        offsets=offsets,
    )
