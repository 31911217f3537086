"""Unit tests for distributed connected components against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.core import connected_components, contig_sizes_distributed
from repro.core.ccomp import _shortcut_until_stable
from repro.sparse import DistSparseMatrix, DistVector


def dist_graph(grid, n, edges, dtype=np.int64):
    rows, cols = [], []
    for u, v in edges:
        rows += [u, v]
        cols += [v, u]
    return DistSparseMatrix.from_global_coo(
        grid, (n, n), np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64), np.ones(len(rows), dtype=dtype),
    )


def nx_labels(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    labels = np.empty(n, dtype=np.int64)
    for comp in nx.connected_components(g):
        root = min(comp)
        for v in comp:
            labels[v] = root
    return labels


class TestConnectedComponents:
    def test_single_path(self, grid):
        n = 20
        edges = [(i, i + 1) for i in range(n - 1)]
        L = dist_graph(grid, n, edges)
        result = connected_components(L)
        assert np.array_equal(result.labels.to_global(), np.zeros(n, dtype=np.int64))

    def test_multiple_chains(self, grid4):
        edges = [(0, 1), (1, 2), (5, 6), (8, 9), (9, 10)]
        L = dist_graph(grid4, 12, edges)
        got = connected_components(L).labels.to_global()
        assert np.array_equal(got, nx_labels(12, edges))

    def test_matches_networkx_on_random_graphs(self, grid):
        rng = np.random.default_rng(17)
        for trial in range(3):
            n = int(rng.integers(10, 60))
            m = int(rng.integers(0, n * 2))
            edges = set()
            for _ in range(m):
                u, v = rng.integers(0, n, 2)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            edges = sorted(edges)
            L = dist_graph(grid, n, edges)
            got = connected_components(L).labels.to_global()
            assert np.array_equal(got, nx_labels(n, edges)), f"trial {trial}"

    def test_isolated_vertices_are_own_components(self, grid4):
        L = dist_graph(grid4, 5, [(1, 2)])
        got = connected_components(L).labels.to_global()
        assert got[0] == 0 and got[3] == 3 and got[4] == 4
        assert got[1] == got[2] == 1

    def test_long_path_converges_in_log_rounds(self, grid4):
        n = 256
        edges = [(i, i + 1) for i in range(n - 1)]
        L = dist_graph(grid4, n, edges)
        result = connected_components(L)
        # hook + full pointer-jumping: far fewer than n rounds
        assert result.rounds <= 12

    def test_empty_graph(self, grid4):
        L = dist_graph(grid4, 6, [])
        got = connected_components(L).labels.to_global()
        assert np.array_equal(got, np.arange(6))

    def test_edge_gathers_are_planned_once_per_call(self, monkeypatch):
        """The endpoint lists never change, so their two gather plans are
        built once per call, not once per hooking round; labels and every
        recorded event equal a run that plans them each round."""
        from repro.mpi import ProcGrid, RoutePlan, SimWorld, cori_haswell

        built = []
        init = RoutePlan.__init__

        def counting_init(self, comm, dests):
            built.append(1)
            init(self, comm, dests)

        monkeypatch.setattr(RoutePlan, "__init__", counting_init)
        # a path through shuffled vertex ids takes several hooking rounds
        n = 64
        perm = np.random.default_rng(2).permutation(n)
        edges = [(int(a), int(b)) for a, b in zip(perm, perm[1:])]

        def run():
            world = SimWorld(4, cori_haswell())
            built.clear()
            result = connected_components(dist_graph(ProcGrid(world), n, edges))
            return result, world, len(built)

        once, world_once, plans_once = run()
        gather = DistVector.gather
        monkeypatch.setattr(
            DistVector, "gather", lambda self, requests, plan=None: gather(self, requests)
        )
        per_round, world_per_round, plans_per_round = run()
        assert once.rounds == per_round.rounds >= 3
        # ignoring the passed plans rebuilds both edge plans every round
        assert plans_per_round - plans_once == 2 * once.rounds
        assert np.array_equal(once.labels.to_global(), per_round.labels.to_global())
        assert world_once.log.events == world_per_round.log.events
        assert repr(world_once.clock.total_seconds()) == repr(
            world_per_round.clock.total_seconds()
        )


class TestContigSizes:
    def test_sizes_at_label_positions(self, grid4):
        edges = [(0, 1), (1, 2), (4, 5)]
        L = dist_graph(grid4, 7, edges)
        labels = connected_components(L).labels
        sizes = contig_sizes_distributed(labels).to_global()
        assert sizes[0] == 3  # component {0,1,2}
        assert sizes[4] == 2  # component {4,5}
        assert sizes[3] == 1 and sizes[6] == 1  # singletons
        assert sizes.sum() == 7

    def test_reduce_scatter_used(self):
        """The paper names MPI_Reduce_scatter for this step."""
        from repro.mpi import ProcGrid, SimWorld, cori_haswell

        w = SimWorld(4, cori_haswell())
        g = ProcGrid(w)
        L = dist_graph(g, 8, [(0, 1)])
        labels = connected_components(L).labels
        before = {e.op for e in w.log.events}
        contig_sizes_distributed(labels)
        after = [e.op for e in w.log.events]
        assert "reduce_scatter" in after

    def test_charges_do_not_scale_with_vertex_space(self):
        """Compacted counts: work and wire volume follow the number of
        distinct labels, not P * n (the old dense-bincount defect)."""
        from repro.mpi import ProcGrid, SimWorld, zero_cost

        P, n = 16, 20_000
        w = SimWorld(P, zero_cost())
        g = ProcGrid(w)
        # one giant component plus one singleton: two distinct labels
        lab = np.zeros(n, dtype=np.int64)
        lab[-1] = n - 1
        labels = DistVector.from_global(g, lab)
        ops = []
        w.charge_compute_all = lambda o, kind="default": ops.append(int(np.sum(o)))
        sizes = contig_sizes_distributed(labels)
        total_ops = sum(ops)
        # old implementation charged sum(blk + n) = n + P*n; the compacted
        # path is O(n + P * distinct)
        assert total_ops < 2 * n + 64 * P
        # the reduce_scatter now moves distinct-label counts, not n-vectors
        ev = [e for e in w.log.events if e.op == "reduce_scatter"][-1]
        assert ev.total_bytes <= 2 * 8 * P
        out = sizes.to_global()
        assert out[0] == n - 1 and out[n - 1] == 1 and out.sum() == n

    def test_shortcut_skips_stable_ranks(self, monkeypatch):
        """Ranks whose block is known stable stop gathering and are charged
        nothing; the expected per-round charges are pinned exactly."""
        from repro.mpi import ProcGrid, SimWorld, zero_cost

        w = SimWorld(4, zero_cost())
        g = ProcGrid(w)
        # rank 1 holds a 2-deep chain; ranks 0, 2, 3 already point at roots
        f = DistVector.from_global(
            g, np.array([0, 0, 1, 2, 4, 4, 4, 4], dtype=np.int64)
        )
        request_rounds = []
        in_gather = {"flag": False}
        orig_gather = DistVector.gather

        def spy_gather(self, requests):
            request_rounds.append([int(np.asarray(r).size) for r in requests])
            in_gather["flag"] = True
            try:
                return orig_gather(self, requests)
            finally:
                in_gather["flag"] = False

        charges = []
        orig_charge = w.charge_compute_all

        def spy_charge(ops, kind="default"):
            if not in_gather["flag"]:
                charges.append([int(o) for o in ops])
            return orig_charge(ops, kind=kind)

        monkeypatch.setattr(DistVector, "gather", spy_gather)
        monkeypatch.setattr(w, "charge_compute_all", spy_charge)
        rounds = _shortcut_until_stable(f)
        assert rounds == 3
        assert np.array_equal(f.to_global(), [0, 0, 0, 0, 4, 4, 4, 4])
        # ranks 0, 2, 3 discover stability in round 1 and gather nothing after
        assert request_rounds == [[2, 2, 2, 2], [0, 2, 0, 0], [0, 2, 0, 0]]
        # one charge per round: ops for every rank still comparing/jumping,
        # zero for a rank once stable
        assert charges == [[2, 2, 2, 2], [0, 2, 0, 0], [0, 2, 0, 0]]

    def test_grid_invariance(self):
        from repro.mpi import ProcGrid, SimWorld, zero_cost

        edges = [(0, 1), (1, 2), (3, 4), (6, 7), (7, 8), (8, 9)]
        outs = []
        for p in (1, 4, 9, 16):
            g = ProcGrid(SimWorld(p, zero_cost()))
            L = dist_graph(g, 10, edges)
            labels = connected_components(L).labels
            sizes = contig_sizes_distributed(labels).to_global()
            outs.append((labels.to_global().tolist(), sizes.tolist()))
        assert all(o == outs[0] for o in outs[1:])
