"""Unit tests for the FASTA reader/writer."""

import io

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.seq import dna, iter_fasta, load_distributed, read_fasta, write_fasta


class TestReader:
    def test_basic_parse(self):
        text = ">r1 desc\nACGT\n>r2\nTT\nGG\n"
        headers, seqs = read_fasta(io.StringIO(text))
        assert headers == ["r1 desc", "r2"]
        assert dna.decode(seqs[0]) == "ACGT"
        assert dna.decode(seqs[1]) == "TTGG"

    def test_blank_lines_ignored(self):
        text = ">a\n\nAC\n\nGT\n"
        _, seqs = read_fasta(io.StringIO(text))
        assert dna.decode(seqs[0]) == "ACGT"

    def test_sequence_before_header_rejected(self):
        with pytest.raises(SequenceError):
            list(iter_fasta(io.StringIO("ACGT\n>late\nAC\n")))

    def test_non_ascii_in_file_is_a_sequence_error(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_bytes(b">r1\nACGT\n>r2\nAC\xc3\xa9T\n")
        with pytest.raises(SequenceError, match="line 4: non-ASCII byte 0xc3"):
            read_fasta(path)
        path.write_bytes(b">r\xff1\nACGT\n")  # headers too
        with pytest.raises(SequenceError, match="line 1: non-ASCII byte 0xff"):
            read_fasta(path)

    def test_non_ascii_in_handle_is_a_sequence_error(self):
        with pytest.raises(SequenceError, match="line 2: non-ASCII character '\u00e9'"):
            read_fasta(io.StringIO(">r1\nAC\u00e9T\n"))

    def test_empty_input(self):
        headers, seqs = read_fasta(io.StringIO(""))
        assert headers == [] and seqs == []

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "reads.fa"
        write_fasta(path, [("x", "ACGTACGT"), ("y", np.array([0, 1], dtype=np.uint8))])
        headers, seqs = read_fasta(path)
        assert headers == ["x", "y"]
        assert dna.decode(seqs[0]) == "ACGTACGT"
        assert dna.decode(seqs[1]) == "AC"


class TestWriter:
    def test_line_wrapping(self):
        buf = io.StringIO()
        write_fasta(buf, [("r", "A" * 25)], width=10)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ">r"
        assert [len(x) for x in lines[1:]] == [10, 10, 5]


class TestLoadDistributed:
    def test_from_text(self, grid4):
        text = ">a\nACGT\n>b\nTTTT\n>c\nGGGG\n>d\nCCCC\n>e\nAAAA\n"
        store = load_distributed(grid4, text)
        assert store.nreads == 5
        assert dna.decode(store.codes_global(1)) == "TTTT"

    def test_non_ascii_text_is_a_sequence_error(self, grid4):
        with pytest.raises(SequenceError, match="line 2: non-ASCII"):
            load_distributed(grid4, ">a\nACG\u00d1\n")

    def test_from_path(self, grid4, tmp_path):
        path = tmp_path / "in.fa"
        write_fasta(path, [(f"r{i}", "ACGT") for i in range(6)])
        store = load_distributed(grid4, path)
        assert store.nreads == 6
