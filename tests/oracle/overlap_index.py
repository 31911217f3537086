"""Overlap discovery for the serial oracle assembler.

This is the hash-table analogue of the matrix pipeline: a Python-dict k-mer
index replaces the distributed A matrix, candidate pairs come from shared
canonical k-mers, and the same x-drop aligner scores them.

Scoring routes through the batched engine (:mod:`repro.align.batch`): the
candidate pairs surviving ``min_shared`` are extended and classified in
vectorized chunks rather than one scalar ``xdrop_extend`` call per pair.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.align.batch import (
    KIND_CONTAINED_A,
    KIND_CONTAINED_B,
    KIND_DOVETAIL,
    iter_classified_chunks,
    pack_codes,
)
from repro.align.classify import EdgeFields
from repro.kmer.codec import canonical_kmers, encode_kmers

__all__ = ["SerialOverlap", "find_overlaps"]


@dataclass(frozen=True)
class SerialOverlap:
    """One dovetail overlap between reads ``a < b`` with both payloads."""

    a: int
    b: int
    score: int
    overlap_len: int
    forward: EdgeFields   # edge a -> b
    reverse: EdgeFields   # edge b -> a


def find_overlaps(
    reads: list[np.ndarray],
    k: int,
    xdrop: int = 15,
    mode: str = "diag",
    min_shared: int = 1,
    end_margin: int = 10,
    min_overlap: int = 0,
    max_kmer_occ: int = 64,
    batch_size: int = 512,
) -> tuple[list[SerialOverlap], set[int]]:
    """All dovetail overlaps plus the set of contained read ids.

    ``max_kmer_occ`` caps the posting-list length per k-mer (repeat
    masking, as every real assembler does); ``batch_size`` bounds how many
    pairs the batched aligner extends per kernel call.
    """
    index: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for rid, codes in enumerate(reads):
        kmers = encode_kmers(codes, k)
        if kmers.size == 0:
            continue
        canon, orient = canonical_kmers(kmers, k)
        # first occurrence per (read, kmer)
        seen: set[int] = set()
        for pos in range(canon.size):
            key = int(canon[pos])
            if key in seen:
                continue
            seen.add(key)
            index[key].append((rid, pos, int(orient[pos])))

    # candidate pairs: share >= min_shared kmers; keep the earliest seed
    pair_seed: dict[tuple[int, int], tuple[int, int, bool]] = {}
    pair_count: dict[tuple[int, int], int] = defaultdict(int)
    for postings in index.values():
        if len(postings) < 2 or len(postings) > max_kmer_occ:
            continue
        for i in range(len(postings)):
            ra, pa, oa = postings[i]
            for j in range(i + 1, len(postings)):
                rb, pb, ob = postings[j]
                if ra == rb:
                    continue
                key = (ra, rb) if ra < rb else (rb, ra)
                pair_count[key] += 1
                if key not in pair_seed or pair_seed[key][0] > (
                    pa if ra < rb else pb
                ):
                    if ra < rb:
                        pair_seed[key] = (pa, pb, oa == ob)
                    else:
                        pair_seed[key] = (pb, pa, oa == ob)

    # task arrays, in index-discovery order (the output order contract)
    keys = [key for key, count in pair_count.items() if count >= min_shared]
    if not keys:
        return [], set()
    ra_arr = np.array([key[0] for key in keys], dtype=np.int64)
    rb_arr = np.array([key[1] for key in keys], dtype=np.int64)
    pa_arr = np.array([pair_seed[key][0] for key in keys], dtype=np.int64)
    pb_arr = np.array([pair_seed[key][1] for key in keys], dtype=np.int64)
    same_arr = np.array([pair_seed[key][2] for key in keys], dtype=bool)

    buffer, offsets = pack_codes(reads)
    overlaps: list[SerialOverlap] = []
    contained: set[int] = set()
    chunks = iter_classified_chunks(
        buffer,
        offsets,
        ra_arr,
        rb_arr,
        pa_arr,
        pb_arr,
        same_arr,
        k,
        xdrop,
        mode=mode,
        batch_size=batch_size,
        min_overlap=min_overlap,
        end_margin=end_margin,
    )
    for sl, res, cls, kind in chunks:
        span = np.minimum(res.a_span, res.b_span)
        ra_sl, rb_sl = ra_arr[sl], rb_arr[sl]
        contained.update(ra_sl[kind == KIND_CONTAINED_A].tolist())
        contained.update(rb_sl[kind == KIND_CONTAINED_B].tolist())
        fwd, rev = cls.forward, cls.reverse
        for p in np.flatnonzero(kind == KIND_DOVETAIL):
            overlaps.append(
                SerialOverlap(
                    a=int(ra_sl[p]),
                    b=int(rb_sl[p]),
                    score=int(cls.score[p]),
                    overlap_len=int(span[p]),
                    forward=EdgeFields(
                        direction=int(fwd.direction[p]),
                        suffix=int(fwd.suffix[p]),
                        pre=int(fwd.pre[p]),
                        post=int(fwd.post[p]),
                    ),
                    reverse=EdgeFields(
                        direction=int(rev.direction[p]),
                        suffix=int(rev.suffix[p]),
                        pre=int(rev.pre[p]),
                        post=int(rev.post[p]),
                    ),
                )
            )
    overlaps = [o for o in overlaps if o.a not in contained and o.b not in contained]
    return overlaps, contained
