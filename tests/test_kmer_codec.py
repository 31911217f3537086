"""Unit and property tests for the packed k-mer codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KmerError
from repro.kmer import (
    MAX_K,
    canonical_kmers,
    encode_kmers,
    kmer_to_string,
    revcomp_kmers,
    shard_kmers,
    string_to_kmer,
)
from repro.seq import dna

dna_strings = st.text(alphabet="ACGT", min_size=1, max_size=100)


class TestEncode:
    def test_counts(self):
        codes = dna.encode("ACGTACGT")
        assert encode_kmers(codes, 3).size == 6
        assert encode_kmers(codes, 8).size == 1
        assert encode_kmers(codes, 9).size == 0

    def test_values_match_strings(self):
        codes = dna.encode("ACGTA")
        kmers = encode_kmers(codes, 3)
        assert [kmer_to_string(k, 3) for k in kmers] == ["ACG", "CGT", "GTA"]

    def test_k_bounds(self):
        codes = dna.encode("ACGT")
        with pytest.raises(KmerError):
            encode_kmers(codes, 0)
        with pytest.raises(KmerError):
            encode_kmers(codes, MAX_K + 1)

    def test_k31_roundtrip(self):
        s = "ACGT" * 8  # 32 chars; take 31
        value, k = string_to_kmer(s[:31])
        assert k == 31
        assert kmer_to_string(value, 31) == s[:31]

    @given(dna_strings, st.integers(1, 11))
    @settings(max_examples=60, deadline=None)
    def test_property_rolling_equals_direct(self, s, k):
        if len(s) < k:
            return
        codes = dna.encode(s)
        kmers = encode_kmers(codes, k)
        for i in (0, len(kmers) - 1):
            assert kmer_to_string(int(kmers[i]), k) == s[i : i + k]


class TestRevcomp:
    def test_known_value(self):
        v, k = string_to_kmer("ACGTT")
        rc = revcomp_kmers(np.array([v], dtype=np.uint64), k)
        assert kmer_to_string(int(rc[0]), k) == "AACGT"

    @given(dna_strings.filter(lambda s: len(s) >= 1), st.integers(1, 31))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_string_revcomp(self, s, k):
        if len(s) < k:
            return
        codes = dna.encode(s)
        kmers = encode_kmers(codes, k)
        rcs = revcomp_kmers(kmers, k)
        assert kmer_to_string(int(rcs[0]), k) == dna.revcomp_str(s[:k])

    @given(dna_strings, st.integers(1, 31))
    @settings(max_examples=40, deadline=None)
    def test_property_involution(self, s, k):
        if len(s) < k:
            return
        kmers = encode_kmers(dna.encode(s), k)
        assert np.array_equal(revcomp_kmers(revcomp_kmers(kmers, k), k), kmers)


class TestCanonical:
    def test_canonical_invariant_under_revcomp(self):
        """canonical(x) == canonical(revcomp(x)) -- the property that makes
        strand-oblivious counting possible."""
        codes = dna.encode("GATTACAGATTACA")
        k = 5
        kmers = encode_kmers(codes, k)
        canon_fwd, _ = canonical_kmers(kmers, k)
        canon_rc, _ = canonical_kmers(revcomp_kmers(kmers, k), k)
        assert np.array_equal(canon_fwd, canon_rc)

    def test_orientation_flags(self):
        v, k = string_to_kmer("TTTTT")  # revcomp AAAAA is smaller
        canon, orient = canonical_kmers(np.array([v], dtype=np.uint64), k)
        assert kmer_to_string(int(canon[0]), k) == "AAAAA"
        assert orient[0] == -1

    def test_palindrome_is_forward(self):
        v, k = string_to_kmer("ACGT")  # self-revcomp
        canon, orient = canonical_kmers(np.array([v], dtype=np.uint64), k)
        assert int(canon[0]) == v
        assert orient[0] == 1

    @given(dna_strings, st.integers(1, 31))
    @settings(max_examples=40, deadline=None)
    def test_property_canonical_is_min(self, s, k):
        if len(s) < k:
            return
        kmers = encode_kmers(dna.encode(s), k)
        canon, _ = canonical_kmers(kmers, k)
        rc = revcomp_kmers(kmers, k)
        assert np.array_equal(canon, np.minimum(kmers, rc))


def per_read_kmers(reads, k):
    """Reference for ``shard_kmers``: the per-read codec, concatenated."""
    read, canon, orient, pos = [], [], [], []
    for j, codes in enumerate(reads):
        kmers = encode_kmers(codes, k)
        c, o = canonical_kmers(kmers, k)
        read.append(np.full(kmers.size, j))
        canon.append(c)
        orient.append(o)
        pos.append(np.arange(kmers.size))
    return tuple(
        np.concatenate(parts) if parts else np.empty(0)
        for parts in (read, canon, orient, pos)
    )


def packed(reads):
    offsets = np.zeros(len(reads) + 1, dtype=np.int64)
    np.cumsum([r.size for r in reads], out=offsets[1:])
    buffer = np.concatenate(reads) if reads else np.empty(0, dtype=np.uint8)
    return buffer, offsets


SHARD_KS = (1, 2, 17, 21, 31)


@st.composite
def shard_corpus(draw):
    """A k and reads of lengths around it: empty, k - 1, k, k + 1, any."""
    k = draw(st.sampled_from(SHARD_KS))
    lengths = st.one_of(
        st.sampled_from([0, max(k - 1, 0), k, k + 1]), st.integers(0, 80)
    )
    reads = draw(
        st.lists(
            lengths.flatmap(
                lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)
            ),
            max_size=8,
        )
    )
    return k, [np.array(r, dtype=np.uint8) for r in reads]


class TestShardKmers:
    @given(shard_corpus())
    @settings(max_examples=120, deadline=None)
    def test_property_equals_per_read_codec(self, corpus):
        k, reads = corpus
        got = shard_kmers(*packed(reads), k)
        want = per_read_kmers(reads, k)
        for name, g, w in zip(("read", "canonical", "orient", "pos"), got, want):
            assert np.array_equal(g, w), name
        read, canon, orient, pos = got
        assert canon.dtype == np.uint64 and orient.dtype == np.int8
        assert read.dtype == pos.dtype == np.int32

    @pytest.mark.parametrize("k", SHARD_KS)
    def test_boundary_windows_are_dropped(self, k):
        # lengths k - 1, k, k + 1 and an empty read: 0 + 1 + 2 + 0 windows
        rng = np.random.default_rng(k)
        reads = [dna.random_codes(rng, n) for n in (k - 1, k, 0, k + 1)]
        read, _canon, _orient, pos = shard_kmers(*packed(reads), k)
        assert read.tolist() == [1, 3, 3]
        assert pos.tolist() == [0, 0, 1]

    def test_empty_buffer(self):
        for reads in ([], [np.empty(0, dtype=np.uint8)] * 3):
            got = shard_kmers(*packed(reads), 5)
            assert all(arr.size == 0 for arr in got)

    @pytest.mark.parametrize("where", [0, 7, 19])
    def test_code_above_three_anywhere_raises(self, where):
        # the bad code may sit in a read shorter than k, whose windows
        # are all dropped: it is still rejected
        reads = [np.zeros(n, dtype=np.uint8) for n in (3, 10, 7)]
        buffer, offsets = packed(reads)
        buffer[where] = 4
        with pytest.raises(KmerError):
            shard_kmers(buffer, offsets, 5)

    def test_k_bounds(self):
        buffer, offsets = packed([dna.encode("ACGT")])
        for k in (0, MAX_K + 1):
            with pytest.raises(KmerError):
                shard_kmers(buffer, offsets, k)
        with pytest.raises(KmerError):
            shard_kmers(*packed([]), 0)


class TestStringHelpers:
    def test_string_to_kmer_validates(self):
        with pytest.raises(KmerError):
            string_to_kmer("A" * 32)

    def test_kmer_to_string_validates(self):
        with pytest.raises(KmerError):
            kmer_to_string(1 << 10, 3)
