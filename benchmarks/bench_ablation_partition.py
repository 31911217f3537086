"""Ablation: LPT vs unsorted greedy vs round-robin partitioning.

§4.3 justifies LPT by its (4P-1)/3P approximation ratio against greedy's
2 - 1/P.  This bench measures actual makespans on contig-size distributions
shaped like real assemblies (a few large contigs, a long tail of small
ones) and on the sizes produced by a real pipeline run.
"""

import numpy as np
import pytest

from figures import render_matrix
from repro.core import multiway_partition


def assembly_like_sizes(rng, n=4000):
    """Contig sizes shaped like an assembly: log-normal with a heavy tail
    (the paper's runs have n = 6411 and 4287 contigs)."""
    return np.maximum(rng.lognormal(2.0, 1.2, size=n), 2).astype(np.int64)


def makespan(sizes, nparts, method):
    a = multiway_partition(sizes, nparts, method=method)
    return int(np.bincount(a, weights=sizes, minlength=nparts).max())


METHODS = ["lpt", "greedy", "round_robin"]
P_LIST = [16, 64, 256]


@pytest.fixture(scope="module")
def size_samples():
    rng = np.random.default_rng(1234)
    return [assembly_like_sizes(rng) for _ in range(5)]


class TestPartitionAblation:
    def test_render(self, write_artifact, size_samples):
        rows = []
        for method in METHODS:
            cells = []
            for p in P_LIST:
                spans = [makespan(s, p, method) for s in size_samples]
                ideal = [max(s.sum() / p, s.max()) for s in size_samples]
                ratio = float(
                    np.mean([m / i for m, i in zip(spans, ideal)])
                )
                cells.append(ratio)
            rows.append((method, cells))
        text = render_matrix(
            "Ablation -- partition makespan / lower bound",
            [f"P={p}" for p in P_LIST],
            rows,
        )
        write_artifact("ablation_partition", text)
        assert "lpt" in text

    def test_lpt_beats_round_robin(self, size_samples):
        for p in P_LIST:
            for s in size_samples:
                assert makespan(s, p, "lpt") <= makespan(s, p, "round_robin")

    def test_lpt_no_worse_than_greedy(self, size_samples):
        for p in P_LIST:
            for s in size_samples:
                assert makespan(s, p, "lpt") <= makespan(s, p, "greedy")

    def test_lpt_close_to_lower_bound(self, size_samples):
        """On heavy-tail instances LPT should land within its worst-case
        ratio of the trivial lower bound."""
        for p in P_LIST:
            for s in size_samples:
                lb = max(s.sum() / p, s.max())
                assert makespan(s, p, "lpt") <= (4 / 3) * lb + 1

    def test_pipeline_partition_balance(self, c_elegans):
        """End-to-end: the real pipeline's LPT partition is well balanced."""
        from repro.bench import sweep_pipeline

        res = sweep_pipeline(c_elegans, "cori-haswell", [16])[0]
        part = res.contigs.partition
        if part.n_contigs >= 16:
            assert part.imbalance < 1.5


def test_bench_ablation_partition_full(benchmark, write_artifact, size_samples):
    """Aggregated partition ablation (runs under --benchmark-only)."""

    def regenerate():
        rows = []
        for method in METHODS:
            cells = []
            for p in P_LIST:
                spans = [makespan(s, p, method) for s in size_samples]
                ideal = [max(s.sum() / p, s.max()) for s in size_samples]
                cells.append(float(np.mean([m / i for m, i in zip(spans, ideal)])))
            rows.append((method, cells))
        # lpt dominates
        assert all(rows[0][1][i] <= rows[2][1][i] for i in range(len(P_LIST)))
        return render_matrix(
            "Ablation -- partition makespan / lower bound",
            [f"P={p}" for p in P_LIST],
            rows,
        )

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("ablation_partition", text)


def test_bench_lpt_speed(benchmark):
    rng = np.random.default_rng(0)
    sizes = assembly_like_sizes(rng, n=6411)  # the paper's O. sativa count
    result = benchmark(multiway_partition, sizes, 128, "lpt")
    assert result.size == 6411
