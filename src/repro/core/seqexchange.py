"""Read-sequence redistribution (§4.3, "Read Sequence Communication").

Sequences live outside the sparse matrix, in the packed char buffers of the
distributed read store, so they are communicated separately: each rank packs
the reads destined for every other rank into one contiguous byte buffer and
the buffers move in one owner-routed exchange (:meth:`SimComm.route
<repro.mpi.comm.SimComm.route>`: the packed reads are a ragged column beside
their ids).  A buffer can exceed MPI's 2^31 - 1 count limit; following the
paper, each transfer is planned through
:func:`~repro.mpi.bigcount.plan_transfer`, which switches to a user-defined
contiguous datatype (count = 1) when needed.  The limit is injectable so
tests can exercise that path.

The assignment vector **p** is aligned with the read-store layout (both are
P-way block distributions over read ids), so no extra communication is
needed to decide destinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DistributionError
from ..mpi.bigcount import MPI_COUNT_LIMIT, TransferPlan, plan_transfer
from ..seq.readstore import DistReadStore, PackedReads
from ..sparse.distvec import DistVector

__all__ = ["SequenceExchangeResult", "exchange_sequences"]


@dataclass
class SequenceExchangeResult:
    """Per-rank redistributed reads plus transfer accounting."""

    shards: list[PackedReads]
    plans: list[TransferPlan] = field(default_factory=list)
    total_bytes: int = 0

    @property
    def used_contiguous_datatype(self) -> bool:
        return any(p.method == "contiguous-datatype" for p in self.plans)


def exchange_sequences(
    reads: DistReadStore,
    p: DistVector,
    count_limit: int = MPI_COUNT_LIMIT,
) -> SequenceExchangeResult:
    """Send every read to the rank its contig was assigned to.

    Reads whose assignment is -1 (masked branch vertices, contained reads,
    singletons) are not needed by any local assembly and are dropped; any
    other value outside ``[0, P)`` is a :class:`DistributionError`.
    Received shards are id-sorted so lookups can bisect.
    """
    world, P = reads.grid.world, reads.grid.nprocs
    if p.n != reads.nreads:
        raise DistributionError(
            f"assignment vector length {p.n} != read count {reads.nreads}"
        )
    dests, packed, plans = [], [], []
    for r, shard in enumerate(reads.shards):
        dest = np.asarray(p.blocks[r], dtype=np.int64)
        if dest.size != shard.count:
            raise DistributionError(
                f"rank {r}: assignment block ({dest.size}) does not align "
                f"with read shard ({shard.count})"
            )
        if dest.size and not (-1 <= dest.min() and dest.max() < P):
            raise DistributionError(f"rank {r}: contig assignment outside [-1, {P})")
        needed = np.flatnonzero(dest >= 0)
        dests.append(dest[needed])
        packed.append(shard.select(needed))
        # one buffer per destination rank, planned under the count limit
        bases = np.bincount(dest[needed], shard.lengths()[needed], minlength=P)
        bases[r] = 0
        plans += [plan_transfer(int(n), count_limit) for n in bases[bases > 0]]
    plan = world.comm.route(dests)
    world.charge_compute_all([shard.total_bases for shard in reads.shards])
    ids, seqs = plan.send(
        [s.ids for s in packed], [(s.buffer, s.offsets) for s in packed]
    )
    # ranks own ascending id ranges and rows arrive grouped by source rank,
    # each sender's order kept: every received shard is already id-sorted
    shards = [PackedReads(*seq, i) for seq, i in zip(seqs, ids)]
    world.charge_compute_all([shard.total_bases for shard in shards])
    return SequenceExchangeResult(shards, plans, sum(t.nbytes for t in plans))
