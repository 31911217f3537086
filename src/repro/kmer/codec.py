"""Packed k-mer codec: 2-bit bases in a 64-bit word, vectorized end to end.

k <= 31 so a k-mer and its metadata fit machine words (ELBA runs k = 31 for
HiFi-grade data and k = 17 for the noisy H. sapiens set).  Encoding a read's
k-mers is a k-step rolling shift over the code array (O(k * n) word ops, no
per-k-mer Python); reverse complementation uses the classic 2-bit-group
bit-reversal; the *canonical* form is the lexicographic min of a k-mer and
its reverse complement, with the orientation flag the overlap semiring needs.

:func:`shard_kmers` is the bulk form the distributed stages use: one
rolling shift over a rank's whole packed read buffer, the windows that
straddle a read boundary dropped, one canonicalization -- no loop over
reads.  :func:`encode_kmers` stays the single-sequence codec.
"""

from __future__ import annotations

import numpy as np

from ..errors import KmerError
from ..seq import dna
from ..util import ragged_arange

__all__ = [
    "MAX_K",
    "encode_kmers",
    "shard_kmers",
    "revcomp_kmers",
    "canonical_kmers",
    "kmer_to_string",
    "string_to_kmer",
]

MAX_K = 31

_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise KmerError(f"k must be in [1, {MAX_K}], got {k}")


def encode_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """All k-mers of a code array as packed uint64, in read order.

    Returns an empty array when the read is shorter than k.  Codes must be
    2-bit bases (0..3); anything else would corrupt neighbouring k-mers
    silently, so it is rejected here at the codec boundary.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint64)
    n = codes.size
    if n and codes.max() > 3:
        raise KmerError(
            f"code array contains values > 3 (max {int(codes.max())}); "
            "k-mer packing needs 2-bit bases"
        )
    if n < k:
        return np.empty(0, dtype=np.uint64)
    out = np.zeros(n - k + 1, dtype=np.uint64)
    two = np.uint64(2)
    for offset in range(k):
        out <<= two
        out |= codes[offset : n - k + 1 + offset]
    return out


def shard_kmers(
    buffer: np.ndarray, offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Canonical k-mers of every read of a packed buffer, in one pass.

    Read ``j`` is ``buffer[offsets[j]:offsets[j + 1]]`` (the
    :class:`~repro.seq.readstore.PackedReads` layout).  Returns ``(read,
    canonical, orient, pos)``, one entry per k-mer occurrence: the read's
    index ``j``, the :func:`canonical_kmers` value and orientation, and the
    start within the read -- in exactly the order that concatenating
    :func:`encode_kmers` + :func:`canonical_kmers` over the reads gives.
    ``k`` and the codes are checked once; read ``j`` keeps the window
    starts ``offsets[j] .. offsets[j+1] - k`` of one rolling shift over the
    whole buffer.  ``read`` and ``pos`` are int32 unless the buffer needs
    int64.
    """
    kmers = encode_kmers(buffer, k)
    offsets = np.asarray(offsets, dtype=np.int64)
    per_read = np.maximum(np.diff(offsets) - (k - 1), 0)
    starts = ragged_arange(offsets[:-1], per_read)
    idtype = np.int32 if offsets[-1] < (1 << 31) else np.int64
    read = np.repeat(np.arange(per_read.size, dtype=idtype), per_read)
    pos = (starts - offsets[read]).astype(idtype)
    canonical, orient = canonical_kmers(kmers[starts], k)
    return read, canonical, orient, pos


def revcomp_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse complement of packed k-mers, vectorized.

    Complement = bitwise NOT of every 2-bit group; reversal = the shift/mask
    cascade (2-bit swap, 4-bit swap, byteswap) then realign to the low bits.
    """
    _check_k(k)
    x = np.asarray(kmers, dtype=np.uint64)
    x = ~x  # complement every base; garbage in the high unused bits is
    # eliminated by the final right shift
    x = ((x & _M2) << np.uint64(2)) | ((x >> np.uint64(2)) & _M2)
    x = ((x & _M4) << np.uint64(4)) | ((x >> np.uint64(4)) & _M4)
    x = x.byteswap()
    return x >> np.uint64(64 - 2 * k)


def canonical_kmers(kmers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form and orientation of each packed k-mer.

    Returns ``(canonical, orient)`` where ``orient`` is ``+1`` when the
    k-mer is already canonical (forward <= reverse complement) and ``-1``
    when the canonical form is the reverse complement.
    """
    fwd = np.asarray(kmers, dtype=np.uint64)
    rc = revcomp_kmers(fwd, k)
    use_fwd = fwd <= rc
    canonical = np.where(use_fwd, fwd, rc)
    orient = np.where(use_fwd, np.int8(1), np.int8(-1))
    return canonical, orient


def kmer_to_string(kmer: int, k: int) -> str:
    """Unpack one k-mer to its ACGT string (diagnostics)."""
    _check_k(k)
    value = int(kmer)
    if value < 0 or value >= 1 << (2 * k):
        raise KmerError(f"k-mer value {value} out of range for k={k}")
    chars = []
    for shift in range(2 * (k - 1), -1, -2):
        chars.append(dna.ALPHABET[(value >> shift) & 3])
    return "".join(chars)


def string_to_kmer(seq: str) -> tuple[int, int]:
    """Pack one string into ``(kmer, k)`` (diagnostics/tests)."""
    codes = dna.encode(seq)
    k = codes.size
    _check_k(k)
    kmers = encode_kmers(codes, k)
    return int(kmers[0]), k
