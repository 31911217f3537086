"""Minimal FASTA reader/writer (Algorithm 1's ``FastaReader``).

Supports the subset of FASTA the pipeline needs: headers, wrapped or
unwrapped sequence lines, ACGT alphabet (case-insensitive).  The reader can
split records across the P ranks in contiguous blocks, matching how the real
ELBA's parallel FASTA reader partitions its input.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from ..errors import SequenceError
from ..mpi.grid import ProcGrid
from . import dna
from .readstore import DistReadStore

__all__ = ["read_fasta", "write_fasta", "iter_fasta", "load_distributed"]

_NOT_ACGT = re.compile("[^ACGTacgt]")


def _fasta_error(record: str | None, lineno: int, what: str) -> SequenceError:
    where = f"line {lineno}" if record is None else f"record {record!r}, line {lineno}"
    return SequenceError(f"FASTA {where}: {what}")


def iter_fasta(handle: TextIO) -> Iterator[tuple[str, str]]:
    """Yield ``(header, sequence)`` pairs from a FASTA stream.

    Anything but ACGT (either case) in a sequence line -- ``N``, an IUPAC
    ambiguity code, a stray byte -- is rejected with a
    :class:`~repro.errors.SequenceError` naming the line, the record and
    the character: ambiguous reads are neither split nor repaired.
    """
    header: str | None = None
    chunks: list[str] = []
    for lineno, line in enumerate(handle, 1):
        line = line.strip()
        if not line:
            continue
        if not line.isascii():
            bad = next(ch for ch in line if not ch.isascii())
            # read_fasta opens paths with surrogateescape: U+DC80..U+DCFF
            # stand for the raw bytes 0x80..0xff
            shown = (
                f"byte 0x{ord(bad) - 0xDC00:02x}"
                if 0xDC80 <= ord(bad) <= 0xDCFF
                else f"character {bad!r}"
            )
            record = line[1:].strip() if line.startswith(">") else header
            raise _fasta_error(record, lineno, f"non-ASCII {shown}")
        if line.startswith(">"):
            if header is not None:
                yield header, "".join(chunks)
            header = line[1:].strip()
            chunks = []
        else:
            if header is None:
                raise _fasta_error(
                    None, lineno, "sequence data before any header"
                )
            bad = _NOT_ACGT.search(line)
            if bad:
                raise _fasta_error(
                    header, lineno, f"invalid DNA character {bad.group()!r}"
                )
            chunks.append(line)
    if header is not None:
        yield header, "".join(chunks)


def read_fasta(path: str | Path | TextIO) -> tuple[list[str], list[np.ndarray]]:
    """Read a FASTA file into (headers, code arrays)."""
    if hasattr(path, "read"):
        pairs = list(iter_fasta(path))
    else:
        # a stray byte must reach iter_fasta's check (a SequenceError
        # naming the line), not die in the decoder
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            pairs = list(iter_fasta(fh))
    headers = [h for h, _ in pairs]
    seqs = [dna.encode(s) for _, s in pairs]
    return headers, seqs


def write_fasta(
    path: str | Path | TextIO,
    sequences: Iterable[tuple[str, np.ndarray | str]],
    width: int = 80,
) -> None:
    """Write ``(header, sequence)`` pairs in FASTA format.

    Sequences may be strings or code arrays; lines wrap at ``width``.
    """
    own = not hasattr(path, "write")
    handle = open(path, "w", encoding="ascii") if own else path
    try:
        for header, seq in sequences:
            text = seq if isinstance(seq, str) else dna.decode(np.asarray(seq))
            handle.write(f">{header}\n")
            for i in range(0, len(text), width):
                handle.write(text[i : i + width] + "\n")
    finally:
        if own:
            handle.close()


def load_distributed(
    grid: ProcGrid, path: str | Path | TextIO | str
) -> DistReadStore:
    """Parse a FASTA input and block-distribute its reads over the grid.

    Accepts a path, an open handle, or raw FASTA text.
    """
    if isinstance(path, str) and path.lstrip().startswith(">"):
        _, seqs = read_fasta(io.StringIO(path))
    else:
        _, seqs = read_fasta(path)
    return DistReadStore.from_global(grid, seqs)
