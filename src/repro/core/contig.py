"""``ContigGeneration(S, sequences)`` -- the Algorithm 2 driver.

Chains the five stages of the paper's contribution, charging each to its own
sub-stage clock (``ExtractContig/...``) so the benchmark can verify the
claims of §6.1: the induced-subgraph function (which mainly involves
communication) dominates contig-generation time, while the traversal itself
is a small fraction.

Stages:
1. ``BranchRemoval``       S -> L                        (line 2)
2. ``ConnectedComponents`` L -> v, contig sizes          (line 3)
3. ``Partitioning``        sizes -> p (LPT, root + bcast)(line 4)
4. ``InducedSubgraph``     L, p -> local matrices        (line 5)
   ``ReadExchange``        sequences -> owner ranks      (§4.3)
5. ``LocalAssembly``       DFS walk + concatenation      (line 6)

The local assembly is one segment step: the ranks' induced subgraphs are
stacked block-diagonally and walked in one batch traversal, each rank
charged for its own edges and bases, as a per-rank step would be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import AssemblyError, PipelineError
from ..kernels import resolve_kernel_tier
from ..mpi.bigcount import MPI_COUNT_LIMIT
from ..seq.readstore import DistReadStore
from ..sparse.distmat import DistSparseMatrix
from .assembly import Contig, LocalAssemblyResult
from .batch import assemble_ranks
from .branch import BranchRemovalResult, branch_removal
from .ccomp import connected_components, contig_sizes_distributed
from .induced import induced_subgraph
from .partition import PartitionResult, partition_contigs
from .seqexchange import check_count_limit, exchange_sequences

__all__ = ["ContigSet", "contig_generation", "STAGE_PREFIX"]

STAGE_PREFIX = "ExtractContig"


@dataclass
class ContigSet:
    """The contig set plus per-stage diagnostics."""

    contigs: list[Contig]
    branch: BranchRemovalResult | None = None
    partition: PartitionResult | None = None
    per_rank: list[LocalAssemblyResult] = field(default_factory=list)
    cc_rounds: int = 0

    @property
    def count(self) -> int:
        return len(self.contigs)

    @property
    def n_roots(self) -> int:
        return sum(r.n_roots for r in self.per_rank)

    @property
    def n_cycles(self) -> int:
        return sum(r.n_cycles for r in self.per_rank)

    def lengths(self) -> np.ndarray:
        return np.array([c.length for c in self.contigs], dtype=np.int64)

    def total_bases(self) -> int:
        return int(self.lengths().sum()) if self.contigs else 0

    def longest(self) -> int:
        return int(self.lengths().max()) if self.contigs else 0

    def sorted_by_length(self) -> list[Contig]:
        return sorted(self.contigs, key=lambda c: c.length, reverse=True)


def _assemble_segment(ctxs, graphs, shards, emit_cycles):
    """The traversal superstep as one segment step: every rank's induced
    subgraph walked in one :func:`~repro.core.batch.assemble_ranks` call.

    Each rank gets its own result, one ``"walk"`` kernel span per advance
    round in which it started walks (its share of the round's wall time),
    and a charge of its graph's edges plus the bases it emitted."""
    results, rounds = assemble_ranks(graphs, shards, emit_cycles)
    for wall, starts in rounds:
        share = wall / starts.sum()
        for r in np.flatnonzero(starts).tolist():
            ctxs[r].record_span("walk", share * float(starts[r]))
    for ctx, graph, res in zip(ctxs, graphs, results):
        ctx.charge_compute(graph.coo.nnz + sum(c.length for c in res.contigs))
    return results


def contig_generation(
    S: DistSparseMatrix,
    reads: DistReadStore,
    min_contig_reads: int = 2,
    partition_method: str = "lpt",
    emit_cycles: bool = False,
    count_limit: int = MPI_COUNT_LIMIT,
    polish: bool = False,
    assembly_engine: str = "batch",
    kernel_tier: str | None = None,
) -> ContigSet:
    """Generate the contig set from the string matrix S and the reads.

    Every rank's induced subgraph is walked in one segment step
    (:func:`~repro.core.batch.assemble_ranks`); ``assembly_engine``
    accepts only ``"batch"``, the scalar oracle being
    ``local_assembly(..., engine="scalar")``.  A ``count_limit`` below 1
    raises before any stage runs.  ``kernel_tier`` accepts only ``None``
    or ``"numpy"`` (:func:`~repro.kernels.resolve_kernel_tier`), and
    ``polish`` only ``False``: §7 polishing post-processes the result
    (:func:`repro.scaffold.polish_contigs`).
    """
    resolve_kernel_tier(kernel_tier)
    if assembly_engine != "batch":
        raise AssemblyError(
            f"unknown assembly engine {assembly_engine!r}; the scalar oracle "
            'is local_assembly(..., engine="scalar")'
        )
    if polish:
        raise PipelineError(
            "contig_generation does not polish; run "
            "repro.scaffold.polish_contigs on its contigs"
        )
    check_count_limit(count_limit)
    world = S.grid.world

    with world.stage_scope(f"{STAGE_PREFIX}/BranchRemoval"):
        branch = branch_removal(S)

    with world.stage_scope(f"{STAGE_PREFIX}/ConnectedComponents"):
        cc = connected_components(branch.L)
        sizes = contig_sizes_distributed(cc.labels)

    with world.stage_scope(f"{STAGE_PREFIX}/Partitioning"):
        p, part = partition_contigs(
            cc.labels,
            sizes,
            min_contig_reads=min_contig_reads,
            method=partition_method,
        )

    with world.stage_scope(f"{STAGE_PREFIX}/InducedSubgraph"):
        graphs = induced_subgraph(branch.L, p)

    with world.stage_scope(f"{STAGE_PREFIX}/ReadExchange"):
        exchange = exchange_sequences(reads, p, count_limit=count_limit)

    with world.stage_scope(f"{STAGE_PREFIX}/LocalAssembly"):
        step = partial(_assemble_segment, emit_cycles=emit_cycles)
        per_rank = world.map_segments(step, graphs, exchange.shards)
        contigs: list[Contig] = [c for res in per_rank for c in res.contigs]

    return ContigSet(
        contigs=contigs,
        branch=branch,
        partition=part,
        per_rank=per_rank,
        cc_rounds=cc.rounds,
    )
