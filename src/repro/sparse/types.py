"""Structured payload dtypes carried by the sparse matrices of the pipeline.

ELBA's matrices are not numeric: every nonzero carries genomic metadata and
the semirings operate on those records.  Each pipeline matrix has its own
payload type:

* **A** (|reads| x |kmers|) -- :data:`KMER_POS_DTYPE`: where in the read the
  k-mer occurs and with which orientation relative to the canonical form.
* **C = A . A^T** -- :data:`SEED_DTYPE`: number of shared k-mers plus one
  representative seed (position pair + strand agreement) used to anchor the
  x-drop alignment.
* **R / S / L** -- :data:`OVERLAP_DTYPE`: the bidirected string-graph edge:
  direction bits, overhang (suffix) length, the ``pre``/``post`` cut
  coordinates of §4.4, and the alignment score.
* **transitive-reduction intermediate** -- :data:`DIRMIN_DTYPE`: per-direction
  minimum composed suffix lengths (a 4-vector, one slot per bidirected
  direction).

Directions use a 2-bit head encoding (:mod:`repro.strgraph.edgecodec`):
bit 1 = the overlap consumes the *suffix* of the source read, bit 0 = the
overlap consumes the *suffix* of the destination read.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KMER_POS_DTYPE",
    "SEED_DTYPE",
    "OVERLAP_DTYPE",
    "DIRMIN_DTYPE",
    "SUFFIX_INF",
]

#: Entry of the reads-by-kmers matrix A: k-mer position within the read and
#: orientation (+1 canonical-as-is, -1 reverse complemented).
KMER_POS_DTYPE = np.dtype([("pos", np.int32), ("orient", np.int8)])

#: Entry of the candidate overlap matrix C: shared-kmer count and one seed.
SEED_DTYPE = np.dtype(
    [
        ("count", np.int32),
        ("pos_a", np.int32),
        ("pos_b", np.int32),
        ("same_strand", np.int8),
    ]
)

#: Entry of the overlap/string matrices R, S, L: one bidirected edge.
OVERLAP_DTYPE = np.dtype(
    [
        ("dir", np.int8),      # 2-bit head encoding, 0..3
        ("suffix", np.int32),  # overhang length: bases of dest beyond overlap
        ("pre", np.int32),     # last src base before the overlap (inclusive)
        ("post", np.int32),    # first dest base inside the overlap (inclusive)
        ("score", np.int32),   # alignment score that produced the edge
    ]
)

#: Sentinel "no path" suffix length used by the min-plus semiring.
SUFFIX_INF = np.int32(np.iinfo(np.int32).max // 2)

#: Transitive-reduction intermediate: minimum composed suffix per direction.
DIRMIN_DTYPE = np.dtype([("minsuf", np.int32, (4,))])
