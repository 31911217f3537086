"""Ablation: DCSC vs CSC local storage (§4.4's format conversion).

ELBA stores distributed blocks as DCSC for memory scalability (hypersparse
blocks) and converts to CSC before local assembly "for simplicity and
faster vertex (column) indexing".  This bench quantifies both halves of
that trade-off: the memory ratio at grid-realistic sparsity and the
traversal cost in each format.
"""

import numpy as np
import pytest

from figures import render_matrix
from repro.sparse import Dcsc, LocalCoo, LocalCsc


def hypersparse_block(n, nnz, seed=0):
    """A block like one of P blocks of an n-vertex chain graph: nnz << n."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    coo = LocalCoo((n, n), rows, cols, np.ones(nnz, dtype=np.int64))
    return coo.deduped(lambda v, s: v[s])


def csc_pointer_bytes(n):
    return (n + 1) * 8


class TestFormatAblation:
    def test_dcsc_memory_wins_when_hypersparse(self):
        for n, nnz in ((10_000, 100), (100_000, 500)):
            coo = hypersparse_block(n, nnz)
            dcsc = Dcsc.from_coo(coo)
            assert dcsc.memory_bytes() < csc_pointer_bytes(n)

    def test_csc_wins_when_dense_enough(self):
        n = 100
        coo = hypersparse_block(n, 2_000, seed=1)
        dcsc = Dcsc.from_coo(coo)
        csc_bytes = csc_pointer_bytes(n) + coo.nnz * 16
        # dcsc adds jc on top of the same ir/val: no longer smaller
        assert dcsc.memory_bytes() >= csc_bytes * 0.8

    def test_conversion_preserves_traversal(self):
        coo = hypersparse_block(5_000, 400, seed=2)
        dcsc = Dcsc.from_coo(coo)
        csc = dcsc.to_csc()
        direct = LocalCsc.from_coo(coo)
        assert np.array_equal(csc.degrees(), direct.degrees())

    def test_render(self, write_artifact):
        rows = []
        for n, nnz in ((10_000, 100), (10_000, 1_000), (10_000, 10_000)):
            coo = hypersparse_block(n, nnz, seed=3)
            dcsc = Dcsc.from_coo(coo)
            ratio = dcsc.memory_bytes() / (
                csc_pointer_bytes(n) + coo.nnz * 16
            )
            rows.append((f"nnz={nnz}", [float(ratio)]))
        text = render_matrix(
            "Ablation -- DCSC / CSC memory ratio (10k cols)",
            ["ratio"],
            rows,
        )
        write_artifact("ablation_formats", text)
        assert "ratio" in text


def test_bench_ablation_formats_full(benchmark, write_artifact):
    """Aggregated format ablation (runs under --benchmark-only)."""

    def regenerate():
        rows = []
        for n, nnz in ((10_000, 100), (10_000, 1_000), (10_000, 10_000)):
            coo = hypersparse_block(n, nnz, seed=3)
            dcsc = Dcsc.from_coo(coo)
            ratio = dcsc.memory_bytes() / (csc_pointer_bytes(n) + coo.nnz * 16)
            rows.append((f"nnz={nnz}", [float(ratio)]))
        assert rows[0][1][0] < rows[-1][1][0]  # hypersparse favors DCSC
        return render_matrix(
            "Ablation -- DCSC / CSC memory ratio (10k cols)", ["ratio"], rows
        )

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("ablation_formats", text)


def test_bench_dcsc_to_csc_conversion(benchmark):
    coo = hypersparse_block(50_000, 2_000, seed=4)
    dcsc = Dcsc.from_coo(coo)
    csc = benchmark(dcsc.to_csc)
    assert csc.nnz == dcsc.nnz


def test_bench_csc_column_scan(benchmark):
    """The root-vertex scan of local assembly: degree test per column."""
    coo = hypersparse_block(50_000, 5_000, seed=5)
    csc = Dcsc.from_coo(coo).to_csc()

    def scan():
        deg = csc.degrees()
        return int((deg == 1).sum())

    result = benchmark(scan)
    assert result >= 0
