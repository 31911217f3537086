"""The induced-subgraph function (Algorithm 2, line 5; Fig. 2).

Given the linear-chain matrix L and the assignment vector **p**, every rank
must learn ``p[u]`` and ``p[v]`` for each of its nonzeros.  The paper's
communication-avoiding scheme exploits the grid layout instead of a global
allgather:

1. **row-dimension allgather** -- the P-way blocks of **p** held by the
   ranks of grid row ``i`` concatenate exactly to the row range of grid row
   ``i`` (that is why CombBLAS distributes vectors this way), so after one
   allgather per row communicator each rank knows ``p[u]`` for every local
   row ``u``;
2. **transposed point-to-point** -- rank P(i, j)'s *column* range equals the
   row range of grid row ``j``, whose gathered vector lives on P(j, i); one
   pairwise exchange with the transposed processor delivers ``p[v]`` for
   every local column ``v``;
3. **triple routing** -- each nonzero ``(u, v, L(u, v))`` with
   ``p[u] == p[v] == dest`` is routed to ``dest``
   (:meth:`SimComm.route <repro.mpi.comm.SimComm.route>`);
4. **local re-indexing** -- every rank compacts its received edge set into a
   local matrix while keeping the map back to global vertex ids (needed by
   the final assembly stage).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AssemblyError
from ..sparse.coo import LocalCoo
from ..sparse.distmat import DistSparseMatrix
from ..sparse.distvec import DistVector

__all__ = ["InducedGraph", "induced_subgraph", "induced_subgraph_naive"]


@dataclass
class InducedGraph:
    """One rank's local slice of the contig graph.

    ``coo`` uses *local* vertex numbering ``0..len(global_ids)-1``;
    ``global_ids[i]`` recovers the original vertex (read) id.
    """

    coo: LocalCoo
    global_ids: np.ndarray

    @property
    def n_vertices(self) -> int:
        return int(self.global_ids.size)

    @property
    def n_edges(self) -> int:
        """Undirected edge count (each edge stored in both directions)."""
        return self.coo.nnz // 2


def induced_subgraph(
    L: DistSparseMatrix, p: DistVector
) -> list[InducedGraph]:
    """Redistribute L's edges so each rank holds its assigned contigs."""
    grid, world = L.grid, L.grid.world
    q = grid.q

    # -- step 1: allgather p's sub-blocks over the row dimension ---------
    row_assignment: list[np.ndarray] = [None] * grid.nprocs  # p over each rank's rows
    for i in range(q):
        members = [grid.rank_of(i, j) for j in range(q)]
        gathered = grid.row_comms[i].allgather([p.blocks[r] for r in members])
        stitched = np.concatenate(gathered)
        for r in members:
            row_assignment[r] = stitched

    # -- step 2: point-to-point exchange with the transposed processor ---
    partners = grid.transpose_partners()
    col_assignment = world.comm.sendrecv(row_assignment, partners)

    return _route_and_reindex(
        L,
        [
            (row_assignment[rank][blk.rows], col_assignment[rank][blk.cols])
            for rank, blk in enumerate(L.blocks)
        ],
    )


def induced_subgraph_naive(
    L: DistSparseMatrix, p: DistVector
) -> list[InducedGraph]:
    """Ablation baseline: learn **p** with one full allgather over all P
    ranks instead of the row-allgather + transposed-exchange scheme.

    Produces identical graphs; exists so the benchmark can compare the
    modeled communication cost of the two schemes.
    """
    full = np.concatenate(L.grid.world.comm.allgather(list(p.blocks)))
    return _route_and_reindex(
        L, [(full[gu], full[gv]) for gu, gv, _vals in L.edge_triples_per_rank()]
    )


def _route_and_reindex(
    L: DistSparseMatrix, assigned: list[tuple[np.ndarray, np.ndarray]]
) -> list[InducedGraph]:
    """Steps 3-4, given ``assigned[rank] = (p[u], p[v])`` for every local
    nonzero ``(u, v)``: route each live edge to its contig's rank, then
    compact the received edge set into local numbering."""
    world = L.grid.world

    # -- step 3: build and route triples ---------------------------------
    dest, us, vs, ws = [], [], [], []
    for (gu, gv, vals), (pu, pv) in zip(L.edge_triples_per_rank(), assigned):
        live = (pu >= 0) & (pv >= 0)
        if np.any(pu[live] != pv[live]):
            raise AssemblyError(
                "edge endpoints assigned to different ranks: contigs must "
                "move as units"
            )
        dest.append(pu[live])
        us.append(gu[live])
        vs.append(gv[live])
        ws.append(vals[live])
    world.charge_compute_all([blk.nnz for blk in L.blocks])
    received = world.comm.route(dest).send(us, vs, ws)

    # -- step 4: local re-indexing ---------------------------------------
    graphs: list[InducedGraph] = []
    for gu, gv, vals in zip(*received):
        ids = np.unique(np.concatenate([gu, gv]))
        coo = LocalCoo(
            (ids.size, ids.size),
            np.searchsorted(ids, gu),
            np.searchsorted(ids, gv),
            vals,
        )
        graphs.append(InducedGraph(coo=coo, global_ids=ids))
    world.charge_compute_all([gu.size for gu in received[0]])
    return graphs
