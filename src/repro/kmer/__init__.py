"""k-mer codec, distributed counting, and the reads-by-kmers matrix A."""

from .codec import (
    MAX_K,
    canonical_kmers,
    encode_kmers,
    kmer_to_string,
    revcomp_kmers,
    shard_kmers,
    string_to_kmer,
)
from .counter import KmerTable, count_kmers
from .kmermatrix import build_kmer_matrix

__all__ = [
    "MAX_K",
    "encode_kmers",
    "shard_kmers",
    "revcomp_kmers",
    "canonical_kmers",
    "kmer_to_string",
    "string_to_kmer",
    "KmerTable",
    "count_kmers",
    "build_kmer_matrix",
]
