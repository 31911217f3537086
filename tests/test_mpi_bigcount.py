"""Unit tests for the MPI count-limit emulation (contiguous datatype trick)."""

import pytest

from repro.mpi import MPI_COUNT_LIMIT, plan_transfer


class TestPlanTransfer:
    def test_small_buffer_plain_send(self):
        plan = plan_transfer(1000)
        assert plan.method == "single"
        assert plan.count == 1000
        assert plan.type_size == 1
        assert plan.messages == 1

    def test_exactly_at_limit_stays_plain(self):
        plan = plan_transfer(MPI_COUNT_LIMIT)
        assert plan.method == "single"

    def test_over_limit_uses_contiguous_datatype(self):
        """The paper's workaround: one send of count=1 with a user-defined
        contiguous datatype the size of the whole buffer."""
        nbytes = MPI_COUNT_LIMIT + 12345
        plan = plan_transfer(nbytes)
        assert plan.method == "contiguous-datatype"
        assert plan.count == 1
        assert plan.type_size == nbytes
        assert plan.messages == 1

    def test_byte_volume_preserved_either_way(self):
        for nbytes in (0, 1, 100, MPI_COUNT_LIMIT, MPI_COUNT_LIMIT + 1):
            assert plan_transfer(nbytes).nbytes == nbytes

    def test_injectable_limit(self):
        plan = plan_transfer(100, limit=64)
        assert plan.method == "contiguous-datatype"
        assert plan.nbytes == 100

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_transfer(-1)
        with pytest.raises(ValueError):
            plan_transfer(10, limit=0)

