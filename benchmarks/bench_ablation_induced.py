"""Ablation: the paper's induced-subgraph scheme vs a naive full allgather.

Fig. 2's row-allgather + transposed point-to-point exchange exists to avoid
"an MPI_Allgather operation spanning the entire grid".  This bench builds a
large linear-chain matrix, runs both schemes, verifies identical outputs,
and compares modeled time and the per-collective cost.
"""

import numpy as np
import pytest

from figures import render_matrix
from repro.core import (
    connected_components,
    contig_sizes_distributed,
    induced_subgraph,
    induced_subgraph_naive,
    partition_contigs,
)
from repro.mpi import ProcGrid, SimWorld, cori_haswell
from repro.sparse import DistSparseMatrix

P_LIST = [16, 64]
N = 4096
CHAIN = 8


def build_L(grid, n=N, chain=CHAIN):
    rows, cols = [], []
    for base in range(0, n, chain):
        for u in range(base, base + chain - 1):
            rows += [u, u + 1]
            cols += [u + 1, u]
    return DistSparseMatrix.from_global_coo(
        grid, (n, n), np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64), np.ones(len(rows), dtype=np.int64),
    )


def run_scheme(p, fn):
    w = SimWorld(p, cori_haswell())
    g = ProcGrid(w)
    L = build_L(g)
    labels = connected_components(L).labels
    sizes = contig_sizes_distributed(labels)
    pvec, _ = partition_contigs(labels, sizes)
    w.log.clear()
    start = w.clock.total_seconds()
    with w.stage_scope("induced"):
        graphs = fn(L, pvec)
    elapsed = w.clock.stage_seconds("induced")
    gather_cost = max(
        (e.modeled_seconds for e in w.log.events if e.op == "allgather"),
        default=0.0,
    )
    return graphs, elapsed, gather_cost


class TestInducedAblation:
    def test_schemes_agree(self):
        for p in P_LIST:
            a, _, _ = run_scheme(p, induced_subgraph)
            b, _, _ = run_scheme(p, induced_subgraph_naive)
            for ga, gb in zip(a, b):
                assert np.array_equal(ga.global_ids, gb.global_ids)

    def test_paper_scheme_cheaper_gather(self):
        for p in P_LIST:
            _, _, paper = run_scheme(p, induced_subgraph)
            _, _, naive = run_scheme(p, induced_subgraph_naive)
            assert paper < naive, (p, paper, naive)

    def test_render(self, write_artifact):
        rows = []
        for label, fn in (
            ("paper (Fig.2)", induced_subgraph),
            ("naive allgather", induced_subgraph_naive),
        ):
            cells = []
            for p in P_LIST:
                _, elapsed, gather = run_scheme(p, fn)
                cells.append(gather * 1e3)
            rows.append((label, cells))
        text = render_matrix(
            "Ablation -- induced subgraph assignment-gather cost (ms)",
            [f"P={p}" for p in P_LIST],
            rows,
        )
        write_artifact("ablation_induced", text)
        assert "paper" in text


def test_bench_ablation_induced_full(benchmark, write_artifact):
    """Aggregated induced-subgraph ablation (runs under --benchmark-only)."""

    def regenerate():
        rows = []
        costs = {}
        for label, fn in (
            ("paper (Fig.2)", induced_subgraph),
            ("naive allgather", induced_subgraph_naive),
        ):
            cells = []
            for p in P_LIST:
                _, _elapsed, gather = run_scheme(p, fn)
                cells.append(gather * 1e3)
            rows.append((label, cells))
            costs[label] = cells
        for i in range(len(P_LIST)):
            assert costs["paper (Fig.2)"][i] < costs["naive allgather"][i]
        return render_matrix(
            "Ablation -- induced subgraph assignment-gather cost (ms)",
            [f"P={p}" for p in P_LIST],
            rows,
        )

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("ablation_induced", text)


def test_bench_induced_subgraph(benchmark):
    w = SimWorld(16, cori_haswell())
    g = ProcGrid(w)
    L = build_L(g)
    labels = connected_components(L).labels
    sizes = contig_sizes_distributed(labels)
    pvec, _ = partition_contigs(labels, sizes)
    result = benchmark.pedantic(
        lambda: induced_subgraph(L, pvec), rounds=3, iterations=1
    )
    assert sum(gr.n_edges for gr in result) == (CHAIN - 1) * (N // CHAIN)
