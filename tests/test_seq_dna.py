"""Unit and property tests for DNA primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SequenceError
from repro.seq import dna

dna_strings = st.text(alphabet="ACGT", min_size=0, max_size=200)


class TestCodec:
    def test_encode_known(self):
        assert list(dna.encode("ACGT")) == [0, 1, 2, 3]

    def test_encode_lowercase(self):
        assert list(dna.encode("acgt")) == [0, 1, 2, 3]

    def test_decode_known(self):
        assert dna.decode(np.array([3, 2, 1, 0], dtype=np.uint8)) == "TGCA"

    def test_invalid_character(self):
        with pytest.raises(SequenceError):
            dna.encode("ACGN")

    def test_non_ascii_character_is_a_sequence_error(self):
        with pytest.raises(SequenceError, match="'\u00e9'"):
            dna.encode("AC\u00e9T")
        with pytest.raises(SequenceError, match="invalid DNA character"):
            dna.encode(b"AC\xc3\xa9T")

    def test_invalid_code(self):
        with pytest.raises(SequenceError):
            dna.decode(np.array([4], dtype=np.uint8))

    def test_empty(self):
        assert dna.decode(dna.encode("")) == ""

    @given(dna_strings)
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, s):
        assert dna.decode(dna.encode(s)) == s


class TestComplement:
    def test_complement_pairs(self):
        """A<->T and C<->G (Watson-Crick)."""
        assert dna.decode(dna.complement(dna.encode("ACGT"))) == "TGCA"

    def test_revcomp_paper_example(self):
        """§2: v = ATTCG has reverse complement CGAAT."""
        assert dna.revcomp_str("ATTCG") == "CGAAT"

    @given(dna_strings)
    @settings(max_examples=50, deadline=None)
    def test_property_revcomp_involution(self, s):
        codes = dna.encode(s)
        assert np.array_equal(dna.revcomp(dna.revcomp(codes)), codes)

    @given(dna_strings, dna_strings)
    @settings(max_examples=30, deadline=None)
    def test_property_revcomp_antihomomorphism(self, a, b):
        """revcomp(a + b) == revcomp(b) + revcomp(a)."""
        assert dna.revcomp_str(a + b) == dna.revcomp_str(b) + dna.revcomp_str(a)


class TestRandom:
    def test_gc_content_respected(self):
        rng = np.random.default_rng(0)
        codes = dna.random_codes(rng, 100_000, gc=0.7)
        gc = np.isin(codes, [1, 2]).mean()
        assert abs(gc - 0.7) < 0.02

    def test_invalid_gc(self):
        with pytest.raises(SequenceError):
            dna.random_codes(np.random.default_rng(0), 10, gc=1.5)
