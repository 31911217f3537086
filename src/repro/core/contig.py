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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..mpi.bigcount import MPI_COUNT_LIMIT
from ..seq.readstore import DistReadStore
from ..sparse.distmat import DistSparseMatrix
from .assembly import Contig, LocalAssemblyResult, local_assembly
from .branch import BranchRemovalResult, branch_removal
from .ccomp import connected_components, contig_sizes_distributed
from .induced import induced_subgraph
from .partition import PartitionResult, partition_contigs
from .seqexchange import exchange_sequences

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


def _assemble_step(ctx, graph, shard, **walk):
    """The traversal superstep: one rank walks its own induced subgraph."""
    res = local_assembly(graph, shard, span=ctx.span, **walk)
    ctx.charge_compute(graph.coo.nnz + sum(c.length for c in res.contigs))
    return res


def _polish_step(ctx, res, shard, polish_config):
    """One rank pileup-polishes its contigs against the reads it holds."""
    if not res.contigs:
        return res
    # deferred import: scaffold builds on core, not the reverse
    from ..scaffold.polish import polish_packed

    polished, stats = polish_packed(res.contigs, shard, polish_config)
    res.contigs = polished
    # pileup cost: one vote per covered base per mapped read
    ctx.charge_compute(sum(s.mean_depth * s.length for s in stats))
    return res


def contig_generation(
    S: DistSparseMatrix,
    reads: DistReadStore,
    min_contig_reads: int = 2,
    partition_method: str = "lpt",
    emit_cycles: bool = False,
    count_limit: int = MPI_COUNT_LIMIT,
    polish: bool = False,
    polish_config=None,
    assembly_engine: str = "batch",
    kernel_tier: str | None = None,
) -> ContigSet:
    """Generate the contig set from the string matrix S and the reads.

    With ``polish=True`` each rank pileup-polishes its own contigs against
    the reads it received in the sequence exchange (the paper's §7
    polishing phase, localized exactly like the traversal: the exchange
    already placed every contig's reads on its owner rank, so no further
    communication is needed).

    ``assembly_engine`` selects the local traversal implementation
    (``"batch"`` or ``"scalar"``); both are bit-identical, so the choice
    never changes the contig set.  ``kernel_tier`` picks the batch
    engine's walk-advance kernel (``numpy`` | ``native``), also
    bit-identical.
    """
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
        step = partial(
            _assemble_step, emit_cycles=emit_cycles, engine=assembly_engine,
            kernel_tier=kernel_tier,
        )
        per_rank: list[LocalAssemblyResult] = world.map_ranks(
            step, graphs, exchange.shards
        )
        contigs: list[Contig] = [c for res in per_rank for c in res.contigs]

    if polish:
        with world.stage_scope(f"{STAGE_PREFIX}/Polish"):
            step = partial(_polish_step, polish_config=polish_config)
            per_rank = world.map_ranks(step, per_rank, exchange.shards)
            contigs = [c for res in per_rank for c in res.contigs]

    return ContigSet(
        contigs=contigs,
        branch=branch,
        partition=part,
        per_rank=per_rank,
        cc_rounds=cc.rounds,
    )
