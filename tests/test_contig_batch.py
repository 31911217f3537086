"""Property tests: batched contig generation is bit-identical to scalar.

The contract of :mod:`repro.core.batch` is exact agreement with the scalar
walk of :mod:`repro.core.assembly` -- same contigs in the same order, same
``codes``/``read_path``/``orientations``/``circular``/``truncated`` fields,
same ``n_roots``/``n_cycles``/``n_singletons`` diagnostics.  These tests
enforce it on randomized degree-<=2 graph corpora (chains, cycles,
reverse-complement traversals, corrupted edges that truncate walks) plus
the realistic overlap fixtures of ``test_core_assembly``.
"""

import numpy as np
import pytest

import test_core_assembly as fixtures
from repro.core import InducedGraph, local_assembly
from repro.core.batch import (
    build_edge_table,
    component_labels,
    local_assembly_batch,
)
from repro.errors import AssemblyError
from repro.seq import PackedReads, dna
from repro.sparse import LocalCoo
from repro.sparse.types import OVERLAP_DTYPE
from repro.strgraph.edgecodec import mirror_direction


def random_degree2_graph(
    rng,
    n_components=8,
    corrupt_prob=0.3,
    id_space=5000,
    min_len=15,
    max_len=60,
):
    """A random local graph of paths/cycles/singletons with edge payloads.

    Vertex numbering is a random permutation (components interleave), global
    ids are a random sorted subset of a larger id space, and each read gets
    a random traversal orientation -- so walks exercise reverse-complement
    pieces.  With probability ``corrupt_prob`` one directed edge per
    component gets a random ``dir``, producing walk-incompatible steps and
    hence truncated walks, stranded chain middles, and broken cycles.
    """
    comp_sizes = []
    for _ in range(n_components):
        kind = rng.random()
        if kind < 0.2:
            comp_sizes.append(("singleton", 1))
        elif kind < 0.5:
            comp_sizes.append(("cycle", int(rng.integers(3, 9))))
        else:
            comp_sizes.append(("path", int(rng.integers(2, 9))))
    n = sum(s for _, s in comp_sizes)
    perm = rng.permutation(n)
    gids = np.sort(rng.choice(id_space, size=n, replace=False))
    lengths = rng.integers(min_len, max_len + 1, size=n)
    reads = [dna.random_codes(rng, int(lengths[v])) for v in range(n)]
    orient = np.where(rng.random(n) < 0.5, 1, -1)

    rows, cols, vals = [], [], []

    def add_edge(u, v, direction):
        rec = np.zeros(1, dtype=OVERLAP_DTYPE)
        rec["dir"] = direction
        rec["pre"] = int(rng.integers(0, lengths[u]))
        rec["post"] = int(rng.integers(0, lengths[v]))
        rows.append(u)
        cols.append(v)
        vals.append(rec)

    base = 0
    for kind, size in comp_sizes:
        verts = perm[base : base + size]
        base += size
        if size == 1:
            continue
        pairs = [(verts[i], verts[i + 1]) for i in range(size - 1)]
        if kind == "cycle":
            pairs.append((verts[-1], verts[0]))
        directed = []
        for u, v in pairs:
            src_bit = 1 if orient[u] == 1 else 0
            dst_bit = 0 if orient[v] == 1 else 1
            d_uv = (src_bit << 1) | dst_bit
            directed.append((u, v, d_uv))
            directed.append((v, u, mirror_direction(d_uv)))
        if rng.random() < corrupt_prob:
            k = int(rng.integers(0, len(directed)))
            u, v, _ = directed[k]
            directed[k] = (u, v, int(rng.integers(0, 4)))
        for u, v, d in directed:
            add_edge(int(u), int(v), d)

    if vals:
        coo = LocalCoo(
            (n, n),
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.concatenate(vals),
        )
    else:
        coo = LocalCoo.empty((n, n), OVERLAP_DTYPE)
    graph = InducedGraph(coo=coo, global_ids=gids)
    packed = PackedReads.from_codes(reads, gids)
    return graph, packed


def assert_results_identical(batch, scalar):
    assert batch.n_roots == scalar.n_roots
    assert batch.n_cycles == scalar.n_cycles
    assert batch.n_singletons == scalar.n_singletons
    assert len(batch.contigs) == len(scalar.contigs)
    for i, (cb, cs) in enumerate(zip(batch.contigs, scalar.contigs)):
        assert cb.codes.dtype == cs.codes.dtype, f"contig {i}"
        assert np.array_equal(cb.codes, cs.codes), f"contig {i} codes"
        assert cb.read_path == cs.read_path, f"contig {i} read_path"
        assert cb.orientations == cs.orientations, f"contig {i} orientations"
        assert cb.circular == cs.circular, f"contig {i} circular"
        assert cb.truncated == cs.truncated, f"contig {i} truncated"


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("emit_cycles", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_corpus(self, seed, emit_cycles):
        rng = np.random.default_rng(300 + seed)
        graph, packed = random_degree2_graph(rng, n_components=10)
        scalar = local_assembly(
            graph, packed, emit_cycles=emit_cycles, engine="scalar"
        )
        batch = local_assembly(
            graph, packed, emit_cycles=emit_cycles, engine="batch"
        )
        assert_results_identical(batch, scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_heavily_corrupted(self, seed):
        """Every component broken somewhere: truncations, stranded middles."""
        rng = np.random.default_rng(500 + seed)
        graph, packed = random_degree2_graph(
            rng, n_components=12, corrupt_prob=1.0
        )
        scalar = local_assembly(graph, packed, emit_cycles=True, engine="scalar")
        batch = local_assembly(graph, packed, emit_cycles=True, engine="batch")
        assert_results_identical(batch, scalar)
        # the corpus must actually exercise the truncation path
        assert any(c.truncated for c in scalar.contigs) or scalar.n_cycles > 0

    @pytest.mark.parametrize("alternate", [False, True])
    def test_realistic_chain(self, alternate):
        """Real overlap payloads, forward and alternating-strand chains."""
        genome, graph, packed = fixtures.chain_fixture(
            n_reads=6, alternate=alternate, seed=2
        )
        scalar = local_assembly(graph, packed, engine="scalar")
        batch = local_assembly(graph, packed, engine="batch")
        assert_results_identical(batch, scalar)
        assert len(batch.contigs) == 1
        contig = batch.contigs[0]
        assert np.array_equal(contig.codes, genome) or np.array_equal(
            dna.revcomp(contig.codes), genome
        )

    def test_many_chains_one_graph(self):
        """Several independent chains in one local matrix, interleaved ids."""
        rng = np.random.default_rng(77)
        graph, packed = random_degree2_graph(
            rng, n_components=20, corrupt_prob=0.15
        )
        scalar = local_assembly(graph, packed, engine="scalar")
        batch = local_assembly(graph, packed, engine="batch")
        assert_results_identical(batch, scalar)
        assert len(scalar.contigs) >= 5

    def test_empty_graph(self):
        graph = InducedGraph(
            coo=LocalCoo.empty((0, 0), OVERLAP_DTYPE),
            global_ids=np.empty(0, dtype=np.int64),
        )
        result = local_assembly_batch(graph, PackedReads.empty())
        assert result.contigs == []
        assert result.n_roots == result.n_cycles == result.n_singletons == 0

    def test_branch_vertex_rejected(self):
        rows = np.array([0, 1, 0, 2, 0, 3])
        cols = np.array([1, 0, 2, 0, 3, 0])
        vals = np.zeros(6, dtype=OVERLAP_DTYPE)
        graph = InducedGraph(
            coo=LocalCoo((4, 4), rows, cols, vals),
            global_ids=np.arange(4),
        )
        packed = PackedReads.from_codes([dna.encode("ACGT")] * 4, np.arange(4))
        with pytest.raises(AssemblyError):
            local_assembly_batch(graph, packed)

    def test_asymmetric_pattern_rejected(self):
        """A directed edge without its mirror cannot be walked.

        The second input is a directed 3-cycle ``0->1->2->0``: every
        vertex has one in- and one out-edge, so only the neighbor-list
        comparison can reject it.
        """
        for rows, cols in (([0], [1]), ([0, 1, 2], [1, 2, 0])):
            n = max(rows + cols) + 1
            vals = np.zeros(len(rows), dtype=OVERLAP_DTYPE)
            graph = InducedGraph(
                coo=LocalCoo((n, n), np.array(rows), np.array(cols), vals),
                global_ids=np.arange(n),
            )
            packed = PackedReads.from_codes(
                [dna.encode("ACGT")] * n, np.arange(n)
            )
            with pytest.raises(AssemblyError, match="not symmetric"):
                local_assembly_batch(graph, packed)
            with pytest.raises(AssemblyError, match="not symmetric"):
                local_assembly(graph, packed, engine="scalar")

    def test_unknown_engine_raises(self):
        genome, graph, packed = fixtures.chain_fixture(n_reads=3)
        with pytest.raises(AssemblyError):
            local_assembly(graph, packed, engine="simd")


class TestEdgeTable:
    def test_slots_match_coo_triples(self):
        """Slot ``s`` of vertex ``u`` is ``u``'s ``s``-th out-edge by
        ascending neighbor, read straight off the COO triples."""
        for seed in range(6):
            graph, _packed = random_degree2_graph(
                np.random.default_rng(seed), n_components=12
            )
            coo = graph.coo
            table = build_edge_table(coo)
            for u in range(graph.n_vertices):
                out = np.flatnonzero(coo.rows == u)
                out = out[np.argsort(coo.cols[out])]
                assert table.degrees[u] == out.size
                for s in range(2):
                    if s < out.size:
                        e = out[s]
                        want = (
                            coo.cols[e], coo.vals["dir"][e],
                            coo.vals["pre"][e], coo.vals["post"][e],
                        )
                    else:
                        want = (-1, 0, 0, 0)
                    got = (
                        table.nbr[u, s], table.dir[u, s],
                        table.pre[u, s], table.post[u, s],
                    )
                    assert got == want, (seed, u, s)


class TestComponentLabels:
    def test_paths_and_cycles(self):
        rng = np.random.default_rng(9)
        graph, _packed = random_degree2_graph(rng, n_components=15)
        table = build_edge_table(graph.coo)
        labels = component_labels(table.nbr, graph.n_vertices)
        # labels constant along every edge, and equal to the component min
        assert np.array_equal(labels[graph.coo.rows], labels[graph.coo.cols])
        for lab in np.unique(labels):
            members = np.flatnonzero(labels == lab)
            assert lab == members.min()

    def test_empty(self):
        labels = component_labels(np.empty((0, 2), dtype=np.int64), 0)
        assert labels.size == 0


class TestScalarVectorizedLookup:
    def test_scalar_path_uses_indices_of(self, monkeypatch):
        """The per-vertex ``index_of`` bisect is gone from the scalar walk."""
        genome, graph, packed = fixtures.chain_fixture(n_reads=5)
        calls = {"n": 0}
        orig = PackedReads.index_of

        def spy(self, gid):
            calls["n"] += 1
            return orig(self, gid)

        monkeypatch.setattr(PackedReads, "index_of", spy)
        result = local_assembly(graph, packed, engine="scalar")
        assert len(result.contigs) == 1
        assert calls["n"] == 0

    def test_indices_of_matches_index_of(self):
        genome, graph, packed = fixtures.chain_fixture(n_reads=5)
        gids = graph.global_ids
        vectorized = packed.indices_of(gids)
        scalar = [packed.index_of(int(g)) for g in gids]
        assert vectorized.tolist() == scalar
