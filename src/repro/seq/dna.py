"""DNA alphabet primitives: 2-bit codes, complements, reverse complements.

Sequences are carried as ``uint8`` NumPy arrays over the code alphabet
``A=0, C=1, G=2, T=3`` so that complementation is ``3 - code`` and k-mer
packing is plain bit arithmetic.  All transforms are vectorized.
"""

from __future__ import annotations

import numpy as np

from ..errors import SequenceError

__all__ = [
    "ALPHABET",
    "encode",
    "decode",
    "complement",
    "revcomp",
    "revcomp_str",
    "random_codes",
]

#: Code order: index in this string is the 2-bit code of the base.
ALPHABET = "ACGT"

_ENCODE_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(ALPHABET):
    _ENCODE_LUT[ord(_ch)] = _i
    _ENCODE_LUT[ord(_ch.lower())] = _i

_DECODE_LUT = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)


def encode(seq: str | bytes) -> np.ndarray:
    """Encode an ACGT string into a uint8 code array.

    Raises :class:`~repro.errors.SequenceError` on any non-ACGT character
    (the simulator never emits ambiguity codes, so none are accepted).
    """
    if isinstance(seq, str):
        try:
            raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError as exc:
            raise SequenceError(
                f"invalid DNA character {seq[exc.start]!r}"
            ) from None
    else:
        raw = np.frombuffer(bytes(seq), dtype=np.uint8)
    codes = _ENCODE_LUT[raw]
    if codes.size and codes.max() > 3:
        bad = chr(int(raw[int(np.argmax(codes > 3))]))
        raise SequenceError(f"invalid DNA character {bad!r}")
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode a uint8 code array back into an ACGT string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() > 3:
        raise SequenceError(f"invalid DNA code {int(codes.max())}")
    return _DECODE_LUT[codes].tobytes().decode("ascii")


def complement(codes: np.ndarray) -> np.ndarray:
    """Watson-Crick complement of each base (A<->T, C<->G)."""
    codes = np.asarray(codes, dtype=np.uint8)
    return (3 - codes).astype(np.uint8)


def revcomp(codes: np.ndarray) -> np.ndarray:
    """Reverse complement of a code array."""
    return complement(codes)[::-1].copy()


def revcomp_str(seq: str) -> str:
    """Reverse complement of an ACGT string."""
    return decode(revcomp(encode(seq)))


def random_codes(rng: np.random.Generator, length: int, gc: float = 0.5) -> np.ndarray:
    """Random DNA codes with the given GC content."""
    if not 0.0 <= gc <= 1.0:
        raise SequenceError(f"gc content must be in [0, 1], got {gc}")
    at = (1.0 - gc) / 2.0
    p = np.array([at, gc / 2.0, gc / 2.0, at])
    return rng.choice(4, size=length, p=p).astype(np.uint8)
