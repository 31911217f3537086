"""Emulation of the MPI count limit and the paper's large-buffer workaround.

MPI's classic interfaces take a 32-bit signed element count, capping a single
message at 2^31 - 1 elements.  §4.3 ("Read Sequence Communication") notes a
large dataset's packed char buffers can exceed this, and ELBA's fix: build a
*user-defined contiguous MPI datatype whose size equals the buffer length*,
so the whole buffer still moves in a single call with ``count == 1``.

:func:`plan_transfer` reproduces that decision over simulated byte buffers:
it returns how a buffer of ``nbytes`` is shipped under a given count limit
(the contiguous-datatype trick keeps it to one message).  The limit is
injectable so tests can exercise the >2 GiB code path with tiny buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MPI_COUNT_LIMIT",
    "TransferPlan",
    "plan_transfer",
]

#: The 2^31 - 1 element limit of 32-bit MPI counts.
MPI_COUNT_LIMIT = 2**31 - 1


@dataclass(frozen=True)
class TransferPlan:
    """How one byte buffer will be shipped.

    Attributes
    ----------
    method:
        ``"single"`` -- plain ``MPI_BYTE`` send, ``count == nbytes``;
        ``"contiguous-datatype"`` -- one send of ``count == 1`` elements of a
        user-defined contiguous type spanning the whole buffer (ELBA's fix).
    count:
        MPI element count passed to the (simulated) send.
    type_size:
        Extent in bytes of the element datatype.
    messages:
        Number of point-to-point messages on the wire (always 1: both
        strategies keep the transfer to a single call).
    """

    method: str
    count: int
    type_size: int
    messages: int = 1

    @property
    def nbytes(self) -> int:
        return self.count * self.type_size


def plan_transfer(nbytes: int, limit: int = MPI_COUNT_LIMIT) -> TransferPlan:
    """Plan the transfer of ``nbytes`` under a signed-count ``limit``.

    Mirrors ELBA's logic: "we check the length of each message ... if it
    goes beyond the limit, we communicate the sequences using a user-defined
    contiguous MPI data type whose size is equal to the buffer length."
    """
    if nbytes < 0:
        raise ValueError(f"negative buffer size: {nbytes}")
    if limit < 1:
        raise ValueError(f"count limit must be >= 1, got {limit}")
    if nbytes <= limit:
        return TransferPlan(method="single", count=nbytes, type_size=1)
    return TransferPlan(method="contiguous-datatype", count=1, type_size=nbytes)
