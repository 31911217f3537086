"""Serial OLC reference assembler: the oracle the distributed contigs must equal.

Dicts and no matrices -- an independent re-derivation of the overlap ->
transitive-reduction -> walk semantics, kept out of ``src/repro`` because no
run, console script or service executes it.
"""

from .overlap_index import find_overlaps
from .serial_olc import assemble_serial_olc
from .walker import SerialGraph

__all__ = ["assemble_serial_olc", "find_overlaps", "SerialGraph"]
