"""Greedy multiway number partitioning (Algorithm 2, line 4).

Contig sizes (read counts) are the job lengths; the P ranks are the
identical machines; minimizing the makespan minimizes the time ranks wait
for the most loaded rank during local assembly (§4.3).  Variants:

* ``"lpt"`` -- Longest Processing Time: sort descending, then greedy
  smallest-bin placement.  Approximation ratio (4P - 1) / (3P), the
  paper's choice;
* ``"greedy"`` -- unsorted greedy, ratio 2 - 1/P (the paper's O(n)
  alternative);
* ``"round_robin"`` -- the naive baseline, kept for the ablation bench.

As in the paper, the (small) size list is gathered on a single rank, the
partitioner runs there, and the resulting assignment vector **p** is
broadcast to the grid.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import AssemblyError
from ..sparse.distvec import DistVector
from ..util import sorted_lookup

__all__ = ["PartitionResult", "multiway_partition", "partition_contigs"]


@dataclass
class PartitionResult:
    """Assignment of contigs to ranks plus balance diagnostics."""

    labels: np.ndarray        # contig labels (root vertex ids), sorted
    sizes: np.ndarray         # contig sizes, aligned with labels
    assignment: np.ndarray    # target rank per contig, aligned with labels
    loads: np.ndarray         # resulting per-rank total size

    @property
    def n_contigs(self) -> int:
        return int(self.labels.size)

    @property
    def makespan(self) -> int:
        return int(self.loads.max()) if self.loads.size else 0

    @property
    def imbalance(self) -> float:
        """makespan / mean load (1.0 = perfect balance)."""
        mean = self.loads.mean() if self.loads.size else 0.0
        return float(self.makespan / mean) if mean > 0 else 1.0


def multiway_partition(
    sizes: np.ndarray, nparts: int, method: str = "lpt"
) -> np.ndarray:
    """Assign each job to a part; returns the part index per job.

    ``method`` selects LPT (sorted), plain greedy (input order), or
    round-robin.  Greedy placement uses a heap of (load, part), so the run
    time is O(n log n) for LPT / O(n log P) for greedy, matching §4.3's
    complexity discussion.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if nparts < 1:
        raise AssemblyError(f"nparts must be >= 1, got {nparts}")
    if np.any(sizes < 0):
        raise AssemblyError("negative contig size")
    n = sizes.size
    assignment = np.zeros(n, dtype=np.int64)
    if n == 0:
        return assignment
    if method == "round_robin":
        assignment = np.arange(n, dtype=np.int64) % nparts
        return assignment
    if method == "lpt":
        order = np.argsort(-sizes, kind="stable")
    elif method == "greedy":
        order = np.arange(n, dtype=np.int64)
    else:
        raise AssemblyError(f"unknown partition method {method!r}")
    heap = [(0, part) for part in range(nparts)]
    heapq.heapify(heap)
    for job in order:
        load, part = heapq.heappop(heap)
        assignment[job] = part
        heapq.heappush(heap, (load + int(sizes[job]), part))
    return assignment


def partition_contigs(
    labels: DistVector,
    sizes: DistVector,
    min_contig_reads: int = 2,
    method: str = "lpt",
) -> tuple[DistVector, PartitionResult]:
    """Build the vertex -> target-rank assignment vector **p**.

    ``labels`` maps each vertex to its contig label; ``sizes`` holds the
    global size at each label position (zero elsewhere).  Contigs smaller
    than ``min_contig_reads`` get assignment -1 (they are not contigs --
    "linear chains of at least two sequences", §4.4).

    Root-side step: rank 0 gathers (label, size) pairs, runs the
    partitioner, and broadcasts the assignment; every rank then maps its
    local vertex block through the broadcast table.
    """
    grid, world = labels.grid, labels.grid.world
    P = grid.nprocs

    # gather the (sparse) per-rank size lists on the root
    per_rank_pairs = []
    for rank, blk in enumerate(sizes.blocks):
        lo, _hi = sizes.local_range(rank)
        nz = np.flatnonzero(blk >= min_contig_reads)
        per_rank_pairs.append((lo + nz, blk[nz]))
    world.charge_compute_all([blk.size for blk in sizes.blocks])
    gathered = world.comm.gather(per_rank_pairs, root=0)

    # root: sort by label, partition, broadcast
    all_labels = np.concatenate([p[0] for p in gathered])
    all_sizes = np.concatenate([p[1] for p in gathered])
    order = np.argsort(all_labels)
    all_labels, all_sizes = all_labels[order], all_sizes[order]
    assignment = multiway_partition(all_sizes, P, method=method)
    loads = np.bincount(assignment, weights=all_sizes, minlength=P).astype(np.int64)
    sort_ops = all_labels.size * max(int(np.log2(max(all_labels.size, 2))), 1)
    world.charge_compute_all([sort_ops] + [0] * (P - 1))  # the root's sort
    table_labels, table_parts = world.comm.bcast(
        (all_labels, assignment), root=0
    )[0]

    result = PartitionResult(
        labels=all_labels, sizes=all_sizes, assignment=assignment, loads=loads
    )

    # map each vertex's label through the broadcast table
    def to_part(block: np.ndarray, _idx: np.ndarray) -> np.ndarray:
        hit, pos = sorted_lookup(table_labels, block)
        if table_parts.size == 0:
            return np.full(block.shape, -1, dtype=np.int64)
        return np.where(hit, table_parts[pos], np.int64(-1))

    p = labels.map(to_part)
    return p, result
