"""Unit tests for distributed k-mer counting and the reliable filter."""

from collections import Counter

import numpy as np
import pytest

from repro.errors import KmerError
from repro.kmer import canonical_kmers, count_kmers, encode_kmers
from repro.seq import DistReadStore, dna


def serial_counts(reads, k):
    """Reference: canonical k-mer multiplicities computed serially."""
    counts = Counter()
    for codes in reads:
        kmers = encode_kmers(codes, k)
        if kmers.size:
            canon, _ = canonical_kmers(kmers, k)
            counts.update(int(x) for x in canon)
    return counts


def random_reads(n=20, lo=30, hi=60, seed=0):
    rng = np.random.default_rng(seed)
    return [dna.random_codes(rng, int(rng.integers(lo, hi))) for _ in range(n)]


class TestCounting:
    def test_matches_serial_reference(self, grid):
        reads = random_reads(seed=1)
        store = DistReadStore.from_global(grid, reads)
        k = 9
        table = count_kmers(store, k, reliable_lo=1)
        ref = serial_counts(reads, k)
        got = {}
        for kmers, counts in zip(table.kmers_by_owner, table.counts_by_owner):
            for value, count in zip(kmers, counts):
                got[int(value)] = int(count)
        assert got == dict(ref)

    def test_reliable_lower_bound_drops_singletons(self, grid4):
        reads = random_reads(seed=2)
        store = DistReadStore.from_global(grid4, reads)
        k = 9
        ref = serial_counts(reads, k)
        table = count_kmers(store, k, reliable_lo=2)
        kept = {
            int(v)
            for kmers in table.kmers_by_owner
            for v in kmers
        }
        expected = {v for v, c in ref.items() if c >= 2}
        assert kept == expected

    def test_reliable_upper_bound_drops_repeats(self, grid4):
        # one read repeated 10x -> all its kmers have multiplicity >= 10
        base = dna.encode("ACGTTGCAACGTGGCATTGCAGGA")
        reads = [base.copy() for _ in range(10)]
        store = DistReadStore.from_global(grid4, reads)
        table = count_kmers(store, 7, reliable_lo=1, reliable_hi=5)
        assert table.total == 0

    def test_counts_invariant_across_grids(self):
        from repro.mpi import ProcGrid, SimWorld, zero_cost

        reads = random_reads(seed=3)
        totals = []
        for p in (1, 4, 9, 16):
            grid = ProcGrid(SimWorld(p, zero_cost()))
            store = DistReadStore.from_global(grid, reads)
            table = count_kmers(store, 11, reliable_lo=1)
            totals.append(table.total)
        assert len(set(totals)) == 1

    def test_ids_are_contiguous_and_disjoint(self, grid4):
        reads = random_reads(seed=4)
        store = DistReadStore.from_global(grid4, reads)
        table = count_kmers(store, 9, reliable_lo=1)
        assert table.offsets[0] == 0
        assert np.all(np.diff(table.offsets) >= 0)
        sizes = [len(k) for k in table.kmers_by_owner]
        assert np.array_equal(np.diff(table.offsets), sizes)

    def test_parameter_validation(self, grid4):
        store = DistReadStore.from_global(grid4, random_reads(4))
        with pytest.raises(KmerError):
            count_kmers(store, 9, reliable_lo=0)
        with pytest.raises(KmerError):
            count_kmers(store, 9, reliable_lo=3, reliable_hi=2)

    @pytest.mark.parametrize(
        "reads", [[], [dna.encode("ACGTACG")] * 6], ids=["empty", "shorter_than_k"]
    )
    def test_impossible_k_is_refused_up_front(self, grid4, reads, monkeypatch):
        """k is checked before any superstep or charge, even when no rank
        holds a read to encode."""
        store = DistReadStore.from_global(grid4, reads)
        world = grid4.world
        events, charged = len(world.log), world.clock.total_seconds()
        supersteps = []
        map_ranks = world.map_ranks

        def counting_map_ranks(*args, **kwargs):
            supersteps.append(args[0])
            return map_ranks(*args, **kwargs)

        monkeypatch.setattr(world, "map_ranks", counting_map_ranks)
        for k in (0, 32, 40):
            with pytest.raises(KmerError, match="k must be in"):
                count_kmers(store, k)
        assert not supersteps
        assert len(world.log) == events
        assert world.clock.total_seconds() == charged
        assert count_kmers(store, 21, reliable_lo=1).total == 0
        assert supersteps


class TestPerShardExtraction:
    def test_one_rolling_encode_per_shard_not_per_read(self, grid4, monkeypatch):
        """count_kmers + build_kmer_matrix encode each rank's packed buffer
        once per stage: at most 2 * P rolling encodes for 40 reads."""
        from repro.kmer import build_kmer_matrix, codec

        calls = []
        real = codec.encode_kmers

        def counting_encode(codes, k):
            calls.append(np.asarray(codes).size)
            return real(codes, k)

        monkeypatch.setattr(codec, "encode_kmers", counting_encode)
        reads = random_reads(n=40, seed=7)
        store = DistReadStore.from_global(grid4, reads)
        table = count_kmers(store, 9, reliable_lo=1)
        A = build_kmer_matrix(store, table)
        assert len(calls) <= 2 * grid4.nprocs < len(reads)
        assert sum(calls) == 2 * sum(r.size for r in reads)
        assert A.nnz() > 0


class TestLookup:
    def test_lookup_resolves_known_and_unknown(self, grid4):
        reads = random_reads(seed=5)
        store = DistReadStore.from_global(grid4, reads)
        k = 9
        table = count_kmers(store, k, reliable_lo=1)
        known = table.kmers_by_owner[0][:3] if table.kmers_by_owner[0].size else None
        bogus = np.array([np.uint64(2**63 - 1)], dtype=np.uint64)
        requests = [
            known if known is not None else np.empty(0, dtype=np.uint64),
            bogus,
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.uint64),
        ]
        answers = table.lookup(requests)
        if known is not None:
            assert np.all(answers[0] >= 0)
        assert answers[1][0] == -1

    def test_lookup_ids_consistent_with_offsets(self, grid4):
        reads = random_reads(seed=6)
        store = DistReadStore.from_global(grid4, reads)
        table = count_kmers(store, 9, reliable_lo=1)
        # ask every owner for its own kmers
        requests = [table.kmers_by_owner[r] for r in range(4)]
        answers = table.lookup(requests)
        for r in range(4):
            n = table.kmers_by_owner[r].size
            expected = table.offsets[r] + np.arange(n)
            assert np.array_equal(answers[r], expected)
