"""GFA 1 export of the bidirected string graph and contig paths.

Mapping from the edge payload conventions of
:mod:`repro.strgraph.edgecodec` onto GFA's oriented links:

* every read with at least one string-graph edge becomes a segment
  (``S`` line), carrying its sequence when a read store is supplied and
  a ``*`` body otherwise;
* every *undirected* edge is written once as a link (``L`` line): the
  source orientation is ``+`` when the overlap leaves through the source's
  suffix end and ``-`` otherwise; the destination orientation is ``+``
  when the overlap enters through the destination's prefix end.  The
  CIGAR records the overlap length on the destination read,
  ``len(v) - suffix``;
* assembled contigs become paths (``P`` lines) over the oriented segments
  they traverse, matching the walk's recorded orientations.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..core.assembly import Contig
from ..seq import dna
from ..sparse.distmat import DistSparseMatrix
from ..strgraph.edgecodec import enters_forward, exits_forward

__all__ = ["gfa_lines", "write_gfa"]


def _read_lookup(reads) -> dict[int, np.ndarray]:
    """Accept a DistReadStore, a ReadSet, or a plain list of code arrays."""
    if reads is None:
        return {}
    if hasattr(reads, "codes_global") and hasattr(reads, "nreads"):
        return {i: reads.codes_global(i) for i in range(reads.nreads)}
    read_list = list(getattr(reads, "reads", reads))
    return {i: np.asarray(r, dtype=np.uint8) for i, r in enumerate(read_list)}


def gfa_lines(
    S: DistSparseMatrix | None = None,
    reads=None,
    contigs: Iterable[Contig] | None = None,
) -> Iterator[str]:
    """Yield GFA 1 lines for a string matrix and/or a contig set.

    Parameters
    ----------
    S:
        The (symmetric) string matrix whose edges become links.  May be
        None when only contig paths are wanted.
    reads:
        Read sequences for segment bodies (and link CIGARs); segments are
        written with ``*`` bodies when omitted.
    contigs:
        Walked contigs (with ``read_path``/``orientations`` provenance)
        to emit as ``P`` lines.
    """
    yield "H\tVN:Z:1.0"
    lookup = _read_lookup(reads)

    live: set[int] = set()
    links: list[tuple[int, int, int, int]] = []  # (u, v, dir, suffix)
    if S is not None:
        rows, cols, vals = S.to_global_coo()
        for u, v, rec in zip(rows, cols, vals):
            u, v = int(u), int(v)
            live.add(u)
            live.add(v)
            if u < v:  # one link per undirected edge
                links.append((u, v, int(rec["dir"]), int(rec["suffix"])))
    if contigs is not None:
        for contig in contigs:
            live.update(int(g) for g in contig.read_path)

    for rid in sorted(live):
        codes = lookup.get(rid)
        body = dna.decode(codes) if codes is not None else "*"
        yield f"S\tread{rid}\t{body}"

    for u, v, direction, suffix in links:
        ou = "+" if exits_forward(direction) else "-"
        ov = "+" if enters_forward(direction) else "-"
        vlen = lookup[v].size if v in lookup else None
        overlap = max(vlen - suffix, 0) if vlen is not None else 0
        cigar = f"{overlap}M" if overlap else "*"
        yield f"L\tread{u}\t{ou}\tread{v}\t{ov}\t{cigar}"

    if contigs is not None:
        for ci, contig in enumerate(contigs):
            steps = ",".join(
                f"read{gid}{'+' if o == 1 else '-'}"
                for gid, o in zip(contig.read_path, contig.orientations)
            )
            yield f"P\tcontig{ci}\t{steps}\t*"


def write_gfa(
    path,
    S: DistSparseMatrix | None = None,
    reads=None,
    contigs: Iterable[Contig] | None = None,
) -> int:
    """Write GFA 1 to a path or handle; returns the number of lines."""
    own = not hasattr(path, "write")
    handle = open(Path(path), "w", encoding="ascii") if own else path
    count = 0
    try:
        for line in gfa_lines(S, reads, contigs):
            handle.write(line + "\n")
            count += 1
    finally:
        if own:
            handle.close()
    return count
