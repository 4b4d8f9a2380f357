"""Gated-heartbeat elision must be invisible.

The array kernel elides the silent heartbeats of gated routers as
``GATED`` spans, folds their credits lazily, and rolls back the elided
heartbeats a wake-up (``secure()``) or the end of the run cuts off.  The
contract is *exactness*: a run with elision is bit-identical — summary
metrics, per-router off-cycle counters, energy residency — to the same
run on the object kernel, the per-step reference that fires every
heartbeat.  These property tests compare the two across random
gated-traffic workloads, with invariant audits on for both runs.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.noc import array_sim
from repro.noc.array_sim import ArraySimulator
from repro.noc.simulator import Simulator
from repro.traffic.trace import KIND_REQUEST, KIND_RESPONSE, Trace
from repro.validate import InvariantAuditor


# Small epochs and idle-heavy traffic so gating (and thus GATED spans,
# wake-up interrupts, and epoch-boundary interactions) actually happens.
CFG = SimConfig(topology="mesh", radix=3, concentration=1, epoch_cycles=40,
                t_idle=2)


@st.composite
def gappy_traffic(draw):
    """Sparse bursts separated by long idle gaps, plus a gating policy."""
    n_cores = 9
    n_bursts = draw(st.integers(min_value=1, max_value=4))
    entries = []
    t = 0.0
    for _ in range(n_bursts):
        t += draw(st.floats(min_value=30.0, max_value=400.0))  # idle gap
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            t += draw(st.floats(min_value=0.0, max_value=3.0))
            src = draw(st.integers(0, n_cores - 1))
            dst = draw(st.integers(0, n_cores - 2))
            if dst >= src:
                dst += 1
            kind = draw(st.sampled_from([KIND_REQUEST, KIND_RESPONSE]))
            entries.append((src, dst, kind, t))
    policy = draw(st.sampled_from(["pg", "lead", "dozznoc", "turbo"]))
    return entries, policy


def _run(entries, policy, skip: bool, cfg=CFG):
    """Run on the array kernel (``skip``) or the per-step reference."""
    trace = Trace.from_entries(entries, 9, "skipprop")
    sim_cls = ArraySimulator if skip else Simulator
    sim = sim_cls(cfg, trace, make_policy(policy), audit=InvariantAuditor())
    result = sim.run()
    return sim, result


class TestSkipExactness:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(gappy_traffic())
    def test_skip_on_off_bit_identical(self, data):
        entries, policy = data
        sim_on, res_on = _run(entries, policy, skip=True)
        sim_off, res_off = _run(entries, policy, skip=False)
        assert sim_on._span_ok and type(sim_off) is Simulator

        assert res_on.summary() == res_off.summary()
        assert res_on.drained == res_off.drained
        assert res_on.stats.latencies_ns == res_off.stats.latencies_ns

        for r_on, r_off in zip(sim_on.network.routers,
                               sim_off.network.routers):
            # A wake-up must keep exactly the heartbeats elided before it;
            # any off-by-one in the interrupt tie-break shows up here.
            assert r_on.total_off_cycles == r_off.total_off_cycles
            assert r_on.gated_ticks == r_off.gated_ticks
            assert list(r_on.mode_ticks) == list(r_off.mode_ticks)
            assert r_on.epoch_cycle == r_off.epoch_cycle

        acc_on, acc_off = sim_on.accountant, sim_off.accountant
        assert (acc_on.gated_time_ns == acc_off.gated_time_ns).all()
        assert (acc_on.powered_time_ns == acc_off.powered_time_ns).all()

        # Both legs were fully audited (that elision happens at all is
        # test_gating_and_skipping_actually_occur's job).
        assert sim_on.audit.end_audits == 1
        assert sim_off.audit.end_audits == 1

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(gappy_traffic(), st.floats(min_value=50.0, max_value=500.0))
    def test_skip_exact_under_horizon(self, data, horizon):
        # Horizon runs stop mid-flight — the skip bookkeeping must agree
        # even when the run is truncated at an arbitrary point.
        entries, policy = data
        cfg = CFG.with_(horizon_ns=horizon)
        sim_on, res_on = _run(entries, policy, skip=True, cfg=cfg)
        sim_off, res_off = _run(entries, policy, skip=False, cfg=cfg)
        assert res_on.summary() == res_off.summary()
        for r_on, r_off in zip(sim_on.network.routers,
                               sim_off.network.routers):
            assert r_on.total_off_cycles == r_off.total_off_cycles
            assert r_on.gated_ticks == r_off.gated_ticks
            assert list(r_on.mode_ticks) == list(r_off.mode_ticks)


def test_gating_and_skipping_actually_occur():
    """Guard against the property tests silently testing nothing."""
    entries = [(0, 8, KIND_REQUEST, 50.0), (8, 0, KIND_RESPONSE, 700.0)]
    placed = []
    gated_span = ArraySimulator._gated_span

    def spy(self, router, tick):
        k = gated_span(self, router, tick)
        if k:
            placed.append(self._span_kind[router.rid])
        return k

    with mock.patch.object(ArraySimulator, "_gated_span", spy):
        sim, res = _run(entries, "pg", skip=True)
    assert res.drained
    assert any(r.total_off_cycles > 0 for r in sim.network.routers)
    # Gated heartbeats really were elided, as GATED spans.
    assert placed and set(placed) == {array_sim._SPAN_GATED}
    ref, ref_res = _run(entries, "pg", skip=False)
    assert res.summary() == ref_res.summary()
    assert [r.total_off_cycles for r in sim.network.routers] == [
        r.total_off_cycles for r in ref.network.routers
    ]
