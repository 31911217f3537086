"""Working-set pins: GenerateA and A . A^T hold no whole-matrix temporaries.

A is a run's largest matrix, so what ``build_kmer_matrix`` and
``detect_overlaps`` allocate beside it sets the host's peak memory (paper
§7 names memory as ELBA's open problem).  On a fixed tiled input -- 40
error-free 3 kb fragments, reads of 300 bp every 150 bp, at P = 16 -- the
traced peak of each call above what was live before it is bounded by a
multiple of A's bytes plus the k-mer table's bytes.  Each bound leaves
~12 % headroom over the peak measured when it was set (numpy 2.4); one
more int64 array over all of A's entries (~0.27 of the unit here) breaks
it, and so does any whole copy of A.  Measured when the bounds were set:
build 1.78, detect 1.42; before the working set was trimmed, 3.40 and
2.59.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import Pipeline, PipelineConfig
from repro.kmer.kmermatrix import build_kmer_matrix
from repro.overlap.detect import detect_overlaps
from repro.seq import GenomeSpec, make_genome, tile_reads

#: traced peak above the call's start, in units of A + table bytes (the
#: build's peak includes A itself, ~0.72 of the unit here)
BUILD_BOUND = 2.0
DETECT_BOUND = 1.6


@pytest.fixture(scope="module")
def upstream():
    fragments = [
        make_genome(GenomeSpec(length=3000, seed=300_000 + i)) for i in range(40)
    ]
    tiled = [
        read
        for f in fragments
        for read in tile_reads(f, 300, 150, "alternate").reads
    ]
    reads = [tiled[i] for i in np.random.default_rng(3).permutation(len(tiled))]
    result = Pipeline.default().run(
        reads, PipelineConfig(nprocs=16, k=21), until="CountKmer"
    )
    return result.artifacts["reads"], result.artifacts["kmer_table"]


def traced_peak(call):
    """``call()``'s result and its traced peak above what was live before
    it, measured on a second call (the first fills the SpGEMM's cached
    work arrays)."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_generate_a_and_overlap_detection_stay_lean(upstream):
    store, table = upstream
    A, build = traced_peak(lambda: build_kmer_matrix(store, table))
    _C, detect = traced_peak(lambda: detect_overlaps(A))
    unit = sum(blk.nbytes for blk in A.blocks) + sum(
        x.nbytes for x in table.kmers_by_owner + table.counts_by_owner
    )
    assert A.nnz() == 187_200  # the input the bounds were measured on
    assert build <= BUILD_BOUND * unit, build / unit
    assert detect <= DETECT_BOUND * unit, detect / unit


def test_route_working_set_does_not_grow_with_p():
    """A route plan holds O(rows + P), never a P x P array: on the same
    100 000 rows, the traced peak of planning a route and sending one
    int64 column at P = 4 096 stays within 4x of P = 16's (measured when
    set: 2.4 MB and 6.2 MB; a P x P count matrix alone is 134 MB at
    P = 4 096)."""
    from repro.mpi import SimWorld, zero_cost

    def peak(P, rows=100_000):
        world = SimWorld(P, zero_cost())
        rng = np.random.default_rng(7)
        sizes = rng.multinomial(rows, np.full(P, 1 / P))
        dests = [rng.integers(0, P, size=n) for n in sizes]
        col = [np.arange(n) for n in sizes]
        return traced_peak(lambda: world.comm.route(dests).send(col))[1]

    small, large = peak(16), peak(4096)
    assert large <= 4 * small, (small, large)
