"""Unit tests for the Router state machine and bookkeeping."""

import pytest

from repro.core.modes import MODE_MAX, MODE_MIN, mode
from repro.core.states import PowerState
from repro.noc.packet import Packet
from repro.noc.router import GATED_HEARTBEAT_TICKS, Router


@pytest.fixture
def router():
    return Router(rid=0, buffer_depth=8, initial_mode=MODE_MAX)


def pkt(pid=0, length=2):
    return Packet(pid, 0, 1, 0, length, 0.0)


class TestConstruction:
    def test_starts_active_at_initial_mode(self, router):
        assert router.state is PowerState.ACTIVE
        assert router.mode is MODE_MAX

    def test_five_buffers(self, router):
        assert len(router.in_buffers) == 5
        assert router.capacity_total == 40

    def test_period_follows_mode(self, router):
        assert router.period_ticks == MODE_MAX.period_ticks


class TestPowerTransitions:
    def test_gate_then_heartbeat_period(self, router):
        router.begin_gate()
        assert router.state is PowerState.INACTIVE
        assert router.period_ticks == GATED_HEARTBEAT_TICKS

    def test_gate_clears_idle_count(self, router):
        router.idle_count = 9
        router.begin_gate()
        assert router.idle_count == 0

    def test_wakeup_duration_from_table3(self, router):
        router.begin_gate()
        router.begin_wakeup()
        assert router.state is PowerState.WAKEUP
        assert router.wakeup_remaining == MODE_MAX.t_wakeup_cycles
        assert router.epoch_wakes == 1

    def test_finish_wakeup(self, router):
        router.begin_gate()
        router.begin_wakeup()
        router.finish_wakeup()
        assert router.state is PowerState.ACTIVE
        assert router.wakeup_remaining == 0

    def test_wakeup_into_lower_mode_is_longer_in_cycles_shorter_in_ns(self, router):
        router.mode = MODE_MIN
        router.begin_gate()
        router.begin_wakeup()
        assert router.wakeup_remaining == MODE_MIN.t_wakeup_cycles

    def test_switch_sets_stall_and_mode(self, router):
        router.begin_switch(mode(3))
        assert router.mode is mode(3)
        assert router.switch_stall == mode(3).t_switch_cycles
        assert router.epoch_switches == 1

    def test_switch_to_same_mode_is_free(self, router):
        router.begin_switch(MODE_MAX)
        assert router.switch_stall == 0
        assert router.epoch_switches == 0

    def test_can_receive_only_when_active_and_unstalled(self, router):
        assert router.can_receive
        router.begin_switch(mode(4))
        assert not router.can_receive
        router.switch_stall = 0
        assert router.can_receive
        router.begin_gate()
        assert not router.can_receive


class TestIdleDetection:
    def test_fresh_router_is_idle(self, router):
        assert router.is_idle(now_ns=0.0, now_tick=0)

    def test_secured_router_not_idle(self, router):
        router.secure_count = 1
        assert not router.is_idle(0.0, 0)

    def test_resident_packet_not_idle(self, router):
        buf = router.in_buffers[1]
        buf.reserve(2)
        buf.commit(pkt())
        assert not router.is_idle(0.0, 0)

    def test_reservation_not_idle(self, router):
        router.in_buffers[2].reserve(3)
        assert not router.is_idle(0.0, 0)

    def test_inflight_arrival_not_idle(self, router):
        router.push_arrival(100, 0, 1, pkt())
        assert not router.is_idle(0.0, 0)

    def test_busy_output_not_idle(self, router):
        router.out_busy_until[2] = 50
        assert not router.is_idle(0.0, now_tick=10)
        assert router.is_idle(0.0, now_tick=50)

    def test_due_injection_not_idle(self, router):
        router.inject_queue = [(5.0, 0, 1, 0)]
        assert not router.is_idle(now_ns=6.0, now_tick=0)

    def test_future_injection_still_idle(self, router):
        router.inject_queue = [(500.0, 0, 1, 0)]
        assert router.is_idle(now_ns=6.0, now_tick=0)


class TestEpochAccounting:
    def test_current_ibu_empty_epoch(self, router):
        assert router.current_ibu() == 0.0

    def test_current_ibu_average(self, router):
        router.epoch_cycle = 4
        router.occ_sum = 1.0
        assert router.current_ibu() == pytest.approx(0.25)

    def test_reset_epoch_snapshots_prev_ibu(self, router):
        router.epoch_cycle = 2
        router.occ_sum = 1.0
        router.epoch_sends = 3
        router.reset_epoch()
        assert router.prev_ibu == pytest.approx(0.5)
        assert router.epoch_index == 1
        assert router.epoch_cycle == 0
        assert router.epoch_sends == 0
        assert router.occ_sum == 0.0

    def test_occupancy_fraction(self, router):
        buf = router.in_buffers[0]
        buf.reserve(4)
        buf.commit(pkt(length=4))
        assert router.occupancy_fraction() == pytest.approx(4 / 40)


class TestArrivalQueue:
    def test_pop_due_respects_time(self, router):
        p = pkt()
        router.push_arrival(100, 0, 2, p)
        assert router.pop_due_arrival(99) is None
        got = router.pop_due_arrival(100)
        assert got == (2, p)
        assert router.pop_due_arrival(1000) is None

    def test_arrivals_ordered_by_tick(self, router):
        a, b = pkt(1), pkt(2)
        router.push_arrival(200, 1, 1, a)
        router.push_arrival(100, 2, 3, b)
        assert router.pop_due_arrival(500)[1] is b
        assert router.pop_due_arrival(500)[1] is a

    def test_inject_pending(self, router):
        router.inject_queue = [(10.0, 0, 1, 0), (20.0, 0, 2, 0)]
        assert not router.inject_pending(5.0)
        assert router.inject_pending(10.0)
        router.inject_pos = 2
        assert not router.inject_pending(100.0)
