"""Tests for the VCT input buffer, including invariant property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.noc.buffer import InputBuffer
from repro.noc.packet import Packet


def pkt(pid=0, length=3):
    return Packet(pid, 0, 1, 0, length, 0.0)


class TestReserveCommitPop:
    def test_initial_state(self):
        buf = InputBuffer(8)
        assert buf.free == 8
        assert len(buf) == 0

    def test_reserve_reduces_free(self):
        buf = InputBuffer(8)
        buf.reserve(5)
        assert buf.free == 3
        assert len(buf) == 0  # reserved, not resident

    def test_commit_moves_reservation_to_occupancy(self):
        buf = InputBuffer(8)
        p = pkt(length=5)
        buf.reserve(5)
        buf.commit(p)
        assert buf.occupancy == 5
        assert buf.reserved == 0
        assert buf.queue[0] is p

    def test_fifo_order(self):
        buf = InputBuffer(8)
        a, b = pkt(1, 3), pkt(2, 3)
        for p in (a, b):
            buf.reserve(p.length)
            buf.commit(p)
        assert buf.pop() is a
        assert buf.pop() is b

    def test_pop_releases_space(self):
        buf = InputBuffer(8)
        p = pkt(length=5)
        buf.reserve(5)
        buf.commit(p)
        buf.pop()
        assert buf.free == 8
        assert len(buf) == 0

    def test_over_reservation_rejected(self):
        buf = InputBuffer(4)
        buf.reserve(3)
        with pytest.raises(SimulationError):
            buf.reserve(2)

    def test_commit_without_reservation_rejected(self):
        buf = InputBuffer(8)
        with pytest.raises(SimulationError):
            buf.commit(pkt(length=2))

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            InputBuffer(4).pop()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            InputBuffer(0)

    def test_can_accept(self):
        buf = InputBuffer(6)
        assert buf.can_accept(6)
        buf.reserve(4)
        assert buf.can_accept(2)
        assert not buf.can_accept(3)

    def test_len_counts_packets(self):
        buf = InputBuffer(8)
        for i in range(2):
            buf.reserve(2)
            buf.commit(pkt(i, 2))
        assert len(buf) == 2


class TestBufferInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["reserve_commit", "pop"]),
                st.integers(min_value=1, max_value=5),
            ),
            max_size=60,
        )
    )
    def test_occupancy_never_exceeds_capacity(self, ops):
        buf = InputBuffer(8)
        next_pid = 0
        for op, length in ops:
            if op == "reserve_commit":
                if buf.can_accept(length):
                    buf.reserve(length)
                    buf.commit(pkt(next_pid, length))
                    next_pid += 1
            else:
                if len(buf):
                    buf.pop()
            assert 0 <= buf.occupancy + buf.reserved <= buf.capacity
            assert buf.occupancy == sum(p.length for p in buf.queue)
