"""Unit tests for the induced-subgraph redistribution (Fig. 2)."""

import numpy as np
import pytest

from repro.core import (
    connected_components,
    contig_sizes_distributed,
    induced_subgraph,
    induced_subgraph_naive,
    partition_contigs,
)
from repro.sparse import DistSparseMatrix, DistVector
from repro.sparse.types import OVERLAP_DTYPE


def chain_graph(grid, n, chains):
    rows, cols, suffixes = [], [], []
    for chain in chains:
        for u, v in zip(chain, chain[1:]):
            rows += [u, v]
            cols += [v, u]
            suffixes += [u * 100 + v, v * 100 + u]
    vals = np.zeros(len(rows), dtype=OVERLAP_DTYPE)
    vals["suffix"] = suffixes
    return DistSparseMatrix.from_global_coo(
        grid, (n, n), np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64), vals,
    )


def setup(grid, n, chains):
    L = chain_graph(grid, n, chains)
    labels = connected_components(L).labels
    sizes = contig_sizes_distributed(labels)
    p, _ = partition_contigs(labels, sizes)
    return L, p


CHAINS = [[0, 1, 2, 3], [4, 5], [6, 7, 8], [9, 10, 11, 12]]


class TestInducedSubgraph:
    def test_edges_preserved_exactly(self, grid):
        """Union of local edge sets == edges of L with assigned endpoints,
        payloads intact: no edge is lost or invented."""
        n = 13
        L, p = setup(grid, n, CHAINS)
        graphs = induced_subgraph(L, p)
        collected = {}
        for g in graphs:
            for e in range(g.coo.nnz):
                gu = int(g.global_ids[g.coo.rows[e]])
                gv = int(g.global_ids[g.coo.cols[e]])
                collected[(gu, gv)] = int(g.coo.vals[e]["suffix"])
        expected = {}
        rows, cols, vals = L.to_global_coo()
        p_global = p.to_global()
        for r, c, v in zip(rows, cols, vals):
            if p_global[r] >= 0 and p_global[c] >= 0:
                expected[(int(r), int(c))] = int(v["suffix"])
        assert collected == expected

    def test_each_rank_gets_its_assigned_contigs(self, grid4):
        L, p = setup(grid4, 13, CHAINS)
        graphs = induced_subgraph(L, p)
        p_global = p.to_global()
        for rank, g in enumerate(graphs):
            for gid in g.global_ids:
                assert p_global[gid] == rank

    def test_local_reindexing_is_compact(self, grid4):
        L, p = setup(grid4, 13, CHAINS)
        for g in induced_subgraph(L, p):
            if g.n_vertices:
                assert g.coo.shape == (g.n_vertices, g.n_vertices)
                used = np.unique(np.concatenate([g.coo.rows, g.coo.cols]))
                assert used.max() < g.n_vertices
                assert np.array_equal(np.sort(g.global_ids), g.global_ids)

    def test_edge_counts(self, grid4):
        L, p = setup(grid4, 13, CHAINS)
        total_edges = sum(g.n_edges for g in induced_subgraph(L, p))
        # chains of 4,2,3,4 vertices -> 3+1+2+3 = 9 undirected edges
        assert total_edges == 9

    def test_naive_variant_identical_output(self, grid):
        L, p = setup(grid, 13, CHAINS)
        a = induced_subgraph(L, p)
        b = induced_subgraph_naive(L, p)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.global_ids, gb.global_ids)
            ka = sorted(zip(ga.coo.rows, ga.coo.cols, ga.coo.vals["suffix"]))
            kb = sorted(zip(gb.coo.rows, gb.coo.cols, gb.coo.vals["suffix"]))
            assert ka == kb

    def test_paper_scheme_cheaper_than_full_allgather(self):
        """Row-allgather + transposed p2p must beat the grid-wide allgather
        in modeled per-rank time (the reason Fig. 2's scheme exists): the
        total byte volume is the same, but the paper's scheme spreads it
        over sqrt(P) concurrent small collectives."""
        from repro.mpi import ProcGrid, SimWorld, cori_haswell

        n = 1600
        chains = [list(range(i, i + 8)) for i in range(0, n, 8)]

        def gather_time(fn):
            w = SimWorld(16, cori_haswell())
            g = ProcGrid(w)
            L, p = setup(g, n, chains)
            w.log.clear()
            fn(L, p)
            return max(
                e.modeled_seconds for e in w.log.events if e.op == "allgather"
            )

        paper = gather_time(induced_subgraph)
        naive = gather_time(induced_subgraph_naive)
        assert paper < naive

    def test_uses_transposed_p2p(self):
        from repro.mpi import ProcGrid, SimWorld, cori_haswell

        w = SimWorld(9, cori_haswell())
        g = ProcGrid(w)
        L, p = setup(g, 13, CHAINS)
        w.log.clear()
        induced_subgraph(L, p)
        ops = {e.op for e in w.log.events}
        assert "ptp" in ops  # the transposed-processor exchange

    def test_unassigned_vertices_dropped(self, grid4):
        # a singleton (vertex 4 isolated) must appear in no local graph
        L, p = setup(grid4, 5, [[0, 1, 2, 3]])
        graphs = induced_subgraph(L, p)
        all_ids = np.concatenate(
            [g.global_ids for g in graphs if g.n_vertices]
        )
        assert 4 not in all_ids

    @pytest.mark.parametrize("fn", [induced_subgraph, induced_subgraph_naive])
    def test_contigs_must_move_as_units(self, grid4, fn):
        """An edge whose endpoints are assigned to different ranks is an
        error in both variants (they share the routing tail)."""
        from repro.errors import AssemblyError

        L = chain_graph(grid4, 4, [[0, 1, 2, 3]])
        p = DistVector.from_global(grid4, np.array([0, 0, 1, 1]))
        with pytest.raises(AssemblyError, match="move as units"):
            fn(L, p)
