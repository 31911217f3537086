"""Packed read storage: the "distributed char arrays" of §4.3.

Reads are never stored as one Python object per sequence.  A
:class:`PackedReads` holds a rank's reads as a single contiguous ``uint8``
code buffer plus an offsets array, so a subsequence lookup is a zero-copy
view -- exactly the property the paper exploits during local assembly
("we can simply use the offsets already computed ... and read the
subsequence directly from the buffer").

:class:`DistReadStore` block-distributes read ids over the P ranks and knows
which rank owns any given read.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import SequenceError
from ..mpi.grid import ProcGrid
from ..util import gather_pieces
from . import dna

__all__ = ["PackedReads", "DistReadStore"]


class PackedReads:
    """An ordered collection of reads in one packed code buffer.

    Attributes
    ----------
    buffer:
        Concatenated 2-bit-coded bases of all reads (``uint8`` codes).
    offsets:
        ``int64`` array of length ``count + 1``; read ``i`` occupies
        ``buffer[offsets[i]:offsets[i+1]]``.
    ids:
        Global read identifiers, parallel to the reads.
    """

    __slots__ = ("buffer", "offsets", "ids")

    def __init__(self, buffer: np.ndarray, offsets: np.ndarray, ids: np.ndarray) -> None:
        buffer = np.asarray(buffer, dtype=np.uint8)
        offsets = np.asarray(offsets, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != buffer.size:
            raise SequenceError("offsets must start at 0 and end at buffer size")
        if np.any(np.diff(offsets) < 0):
            raise SequenceError("offsets must be non-decreasing")
        if ids.size != offsets.size - 1:
            raise SequenceError(
                f"{ids.size} ids but {offsets.size - 1} reads in offsets"
            )
        self.buffer = buffer
        self.offsets = offsets
        self.ids = ids

    # -- constructors -----------------------------------------------------
    @classmethod
    def empty(cls) -> "PackedReads":
        return cls(
            np.empty(0, dtype=np.uint8),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_codes(
        cls, code_arrays: Sequence[np.ndarray], ids: Iterable[int] | None = None
    ) -> "PackedReads":
        """Pack a list of code arrays (ids default to 0..n-1)."""
        lengths = np.array([len(a) for a in code_arrays], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        buffer = (
            np.concatenate([np.asarray(a, dtype=np.uint8) for a in code_arrays])
            if code_arrays
            else np.empty(0, dtype=np.uint8)
        )
        if ids is None:
            ids = np.arange(lengths.size, dtype=np.int64)
        return cls(buffer, offsets, np.asarray(list(ids), dtype=np.int64))

    @classmethod
    def from_strings(
        cls, seqs: Sequence[str], ids: Iterable[int] | None = None
    ) -> "PackedReads":
        return cls.from_codes([dna.encode(s) for s in seqs], ids)

    # -- access ---------------------------------------------------------
    @property
    def count(self) -> int:
        return int(self.ids.size)

    @property
    def total_bases(self) -> int:
        return int(self.buffer.size)

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def codes(self, local_index: int) -> np.ndarray:
        """Zero-copy view of read ``local_index``'s code array."""
        return self.buffer[self.offsets[local_index] : self.offsets[local_index + 1]]

    def string(self, local_index: int) -> str:
        return dna.decode(self.codes(local_index))

    def index_of(self, global_id: int) -> int:
        """Local index of a global read id (reads are kept id-sorted)."""
        pos = int(np.searchsorted(self.ids, global_id))
        if pos >= self.ids.size or self.ids[pos] != global_id:
            raise SequenceError(f"read {global_id} not stored here")
        return pos

    def indices_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of`: local indices of global ids."""
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if self.ids.size == 0:
            if global_ids.size == 0:
                return np.empty(0, dtype=np.int64)
            raise SequenceError(f"read {int(global_ids[0])} not stored here")
        idx = np.searchsorted(self.ids, global_ids)
        bad = (idx >= self.ids.size) | (
            self.ids[np.minimum(idx, self.ids.size - 1)] != global_ids
        )
        if bad.any():
            missing = int(global_ids[np.flatnonzero(bad)[0]])
            raise SequenceError(f"read {missing} not stored here")
        return idx

    def select(self, local_indices: np.ndarray) -> "PackedReads":
        """New PackedReads containing the given local reads, in order."""
        local_indices = np.asarray(local_indices, dtype=np.int64)
        buffer, offsets = gather_pieces(
            self.buffer,
            self.offsets[local_indices],
            self.offsets[local_indices + 1] - self.offsets[local_indices],
        )
        return PackedReads(buffer, offsets, self.ids[local_indices].copy())


class DistReadStore:
    """Reads block-distributed over the P ranks of a grid.

    Rank ``r`` owns the contiguous global-id range ``grid.vec_block(n, r)``
    -- the *same* nested layout as distributed vectors, so the contig
    assignment vector **p** aligns element-for-element with the read shards
    (the property §4.3's sequence exchange relies on).
    """

    __slots__ = ("grid", "nreads", "shards")

    def __init__(self, grid: ProcGrid, nreads: int, shards: list[PackedReads]) -> None:
        if len(shards) != grid.nprocs:
            raise SequenceError(f"expected {grid.nprocs} shards")
        for rank, shard in enumerate(shards):
            lo, hi = grid.vec_block(nreads, rank)
            if shard.count != hi - lo or (
                shard.count and not np.array_equal(shard.ids, np.arange(lo, hi))
            ):
                raise SequenceError(
                    f"rank {rank} shard must hold reads [{lo}, {hi}) in order"
                )
        self.grid = grid
        self.nreads = int(nreads)
        self.shards = shards

    @classmethod
    def from_global(cls, grid: ProcGrid, reads: Sequence[np.ndarray]) -> "DistReadStore":
        """Distribute a global list of code arrays (root-side convenience)."""
        n = len(reads)
        shards = []
        for rank in range(grid.nprocs):
            lo, hi = grid.vec_block(n, rank)
            shards.append(
                PackedReads.from_codes(
                    [np.asarray(reads[i], dtype=np.uint8) for i in range(lo, hi)],
                    np.arange(lo, hi),
                )
            )
        return cls(grid, n, shards)

    def owner_of(self, read_id: np.ndarray | int):
        """Rank owning the given global read id(s)."""
        return self.grid.owner_of_vec(self.nreads, read_id)

    def total_bases(self) -> int:
        return sum(s.total_bases for s in self.shards)

    def codes_global(self, read_id: int) -> np.ndarray:
        """Fetch any read's codes regardless of owner (test convenience)."""
        owner = int(self.owner_of(read_id))
        return self.shards[owner].codes(self.shards[owner].index_of(read_id))

    def fetch(self, requests: list[np.ndarray]) -> list[PackedReads]:
        """Distributed fetch: rank r receives the reads ``requests[r]``, each
        once and in id order (ids outside the store: :class:`SequenceError`).

        One owner-routed exchange: request ids go to the owner ranks, each
        cuts them out of its packed buffer in one ``select`` and replies
        with a ragged column.  Used by the alignment stage, where each rank
        needs the sequences behind its block's candidate overlap pairs.
        """
        world = self.grid.world
        wanted = []
        for r, ids in enumerate(requests):
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size > 1 and not (ids[1:] > ids[:-1]).all():
                ids = np.unique(ids)
            if ids.size and not (0 <= ids[0] and ids[-1] < self.nreads):
                raise SequenceError(
                    f"fetch: rank {r} requests a read outside [0, {self.nreads})"
                )
            wanted.append(ids)
        plan = world.comm.route(self.owner_of(ids) for ids in wanted)
        world.charge_compute_all([ids.size for ids in wanted])
        (asked,) = plan.send(wanted)
        # ascending ids have ascending owners: answers arrive id-sorted
        picked = [s.select(s.indices_of(ids)) for s, ids in zip(self.shards, asked)]
        world.charge_compute_all([ids.size for ids in asked])
        answers = plan.reply([(s.buffer, s.offsets) for s in picked])
        return [PackedReads(*seqs, ids) for seqs, ids in zip(answers, wanted)]
