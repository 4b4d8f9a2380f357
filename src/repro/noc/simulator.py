"""Event-driven, multi-clock-domain simulation kernel.

Each router is a clocked agent firing at its own period (its current V/F
mode, or a slow heartbeat while power-gated).  Timestamps are integer base
ticks of 1/18 ns, so all five paper frequencies beat exactly (see
:mod:`repro.common.units`).  A binary heap orders router firings; stale
heap entries (left behind when a secure signal wakes a gated router and
pulls its next firing in) are skipped via the ``next_event_tick`` guard.

This is the *reference* kernel: every firing is one router cycle and
advances exactly one period, and transport goes through the model's own
:class:`~repro.noc.router.Router` / :class:`~repro.noc.buffer.InputBuffer`
methods.  All cycle elision lives in the array kernel
(:mod:`repro.noc.array_sim`), which is held bit-identical to this one.

One router cycle performs, in order:

1. commit in-flight transfers whose tail flit has arrived (and hand over
   the look-ahead security reference: release the hold this packet placed
   on us, place a hold on its next hop),
2. if mid voltage-switch: burn one T-Switch stall cycle; otherwise run
   transport — ejection, directional switch allocation (round-robin,
   virtual cut-through with full-packet reservation), and NI injection,
3. power-gating bookkeeping (R-Idle counting, T-Idle gating) when the
   active policy gates,
4. epoch accounting; at an epoch boundary, feature extraction, training
   capture, and the policy's DVFS decision.

Hop latency is ``packet_length`` cycles of the *upstream* router's clock
(Section III.A's frequency-mismatch behaviour falls out naturally).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.units import BASE_TICKS_PER_NS, ns_to_ticks
from repro.core.states import PowerState
from repro.faults import FaultConfig, FaultScheduler
from repro.models.drift import DriftMonitor
from repro.models.online import OnlineConfig, OnlineRidge

if TYPE_CHECKING:  # pragma: no cover - avoids a core<->noc import cycle
    from repro.core.controller import PowerPolicy
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.stats import NetworkStats
from repro.noc.topology import LOCAL, NUM_PORTS
from repro.power.accounting import EnergyAccountant
from repro.regulator.reliability import SAFE_MODE_INDEX, abort_stall_cycles
from repro.traffic.trace import KIND_REQUEST, Trace

_WAKEUP = PowerState.WAKEUP
_INACTIVE = PowerState.INACTIVE


@dataclass
class SimResult:
    """Everything measured in one run."""

    policy_name: str
    trace_name: str
    config: SimConfig
    stats: NetworkStats
    accountant: EnergyAccountant
    elapsed_ns: float
    drained: bool
    #: The fault scheduler the run used (None for a clean run).  Its
    #: counters are the order-side ledger of every fault it injected.
    faults: "FaultScheduler | None" = None

    @property
    def throughput_flits_per_ns(self) -> float:
        """Accepted throughput over the run."""
        return self.stats.throughput_flits_per_ns(self.elapsed_ns)

    @property
    def avg_latency_ns(self) -> float:
        """Mean packet latency including NI queueing."""
        return self.stats.avg_latency_ns

    @property
    def energy_delay_product(self) -> float:
        """EDP (Section IV.B.1): total energy x mean packet latency (pJ*ns)."""
        return self.accountant.total_pj * self.stats.avg_latency_ns

    def summary(self) -> dict[str, float]:
        """Flat metric dictionary (energy + performance)."""
        out = {
            "throughput_flits_per_ns": self.throughput_flits_per_ns,
            "avg_latency_ns": self.avg_latency_ns,
            "packets_delivered": float(self.stats.packets_delivered),
            "packets_injected": float(self.stats.packets_injected),
            "elapsed_ns": self.elapsed_ns,
            "edp_pj_ns": self.energy_delay_product,
        }
        out.update(self.accountant.summary(self.elapsed_ns))
        s = self.stats
        out.update(
            {
                "link_faults": float(s.link_faults),
                "flits_retransmitted": float(s.flits_retransmitted),
                "forced_wakes": float(s.forced_wakes),
                "vr_switch_aborts": float(s.vr_switch_aborts),
                "vr_safe_mode_entries": float(s.vr_safe_mode_entries),
                "features_corrupted": float(s.features_corrupted),
                "predictor_fallbacks": float(s.predictor_fallbacks),
            }
        )
        return out


class Simulator:
    """Run one (policy, trace, config) combination."""

    def __init__(
        self,
        config: SimConfig,
        trace: Trace,
        policy: "PowerPolicy",
        collect_features: bool = False,
        timeline=None,
        audit=None,
        faults: "FaultConfig | FaultScheduler | None" = None,
        telemetry=None,
        online: "OnlineConfig | OnlineRidge | None" = None,
        shadow=None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.policy = policy
        self.timeline = timeline
        self.collect_features = collect_features
        self.epoch_cycles = config.epoch_cycles
        self.t_idle = config.t_idle
        self.wormhole = config.switching == "wormhole"
        # Invariant auditor (see repro.validate): observes state at epoch
        # boundaries and end-of-run, never mutates it, so audited runs are
        # bit-identical to unaudited ones.  ``audit=True`` builds the
        # default auditor.
        if audit is True:
            from repro.validate.invariants import InvariantAuditor

            audit = InvariantAuditor()
        self.audit = audit or None

        self.network = Network(config, policy.initial_mode())
        self.entries_remaining = self.network.load_trace(trace)
        self.total_trace_entries = self.entries_remaining
        self.accountant = EnergyAccountant(self.network.topology.num_routers)
        self.stats = NetworkStats(sample_seed=config.seed)

        # Deterministic fault injection (repro.faults): a FaultConfig is
        # promoted to a fresh per-run scheduler; the schedule is a pure
        # function of (fault config, sim config, trace, policy), so
        # serial, pooled and cached replays see bit-identical faults.
        if faults is not None and isinstance(faults, FaultConfig):
            faults = FaultScheduler(faults, self.network.topology.num_routers)
        self.faults = faults
        self._faults = faults
        self._fault_links = (
            faults is not None and faults.config.link_error_rate > 0.0
        )
        self._fault_features = (
            faults is not None and faults.config.feature_corrupt_rate > 0.0
        )

        self.now_tick = 0
        self.now_ns = 0.0
        self.packets_live = 0
        self._pid = 0
        self._arr_seq = 0
        # Look-ahead securing ledger: holds placed vs released over the
        # whole run (audited for symmetry at drain by repro.validate).
        self.secures_placed = 0
        self.secures_released = 0

        # Telemetry recorder (repro.telemetry): observes epoch boundaries
        # and wake/switch events through pre-registered handles, never
        # mutates state.  ``None`` (the default) executes zero telemetry
        # code — disabled runs are bit-identical to pre-telemetry ones.
        self._telemetry = telemetry
        if telemetry is not None:
            telemetry.bind(self)

        # Online learning / shadow evaluation / drift monitoring
        # (repro.models).  An OnlineConfig is promoted to a fresh
        # per-run learner warm-started from the policy's weights;
        # updates happen in deterministic epoch-boundary order, so
        # online runs are independent of --jobs and cache legs.  The
        # learner *changes* results (policy weights evolve) and so
        # joins the run-cache key upstream; the shadow scorer only
        # observes and — like telemetry — stays out of the key.
        if online is not None and isinstance(online, OnlineConfig):
            online = OnlineRidge(
                len(policy.feature_set), online, warm_weights=policy.weights
            )
        self.online = online
        self.shadow = shadow
        self._drift = None
        if online is not None and online.config.drift_threshold > 0.0:
            self._drift = DriftMonitor(
                len(policy.feature_set),
                threshold=online.config.drift_threshold,
                window=online.config.drift_window,
                action=online.config.drift_action,
            )
        self._models_active = online is not None or shadow is not None
        if self._models_active:
            self._prev_features: list = (
                [None] * self.network.topology.num_routers
            )

        fs = policy.feature_set
        self._needs_features = (
            collect_features or policy.proactive or self._models_active
        )
        if self._needs_features and fs.needs_port_tracking:
            if self.network.num_ports != NUM_PORTS:
                from repro.common.errors import ConfigError

                raise ConfigError(
                    f"feature set {fs.name!r} tracks {NUM_PORTS} mesh ports "
                    f"but the {config.topology!r} fabric has "
                    f"{self.network.num_ports}; use a router-local feature "
                    "set (e.g. reduced) on this fabric"
                )
            for r in self.network.routers:
                r.track_ports = True

        if config.horizon_ns is not None:
            self.horizon_tick: int | None = ns_to_ticks(config.horizon_ns)
        else:
            self.horizon_tick = None
        # Safety cap so a kernel bug can never spin forever.
        cap_ns = (trace.duration_ns + 1_000.0) * config.drain_margin + 10_000.0
        if config.horizon_ns is not None:
            cap_ns = max(cap_ns, config.horizon_ns)
        self._cap_tick = ns_to_ticks(cap_ns)

        self._heap: list[tuple[int, int]] = []
        for r in self.network.routers:
            r.next_event_tick = 0
            heapq.heappush(self._heap, (0, r.rid))

    # ------------------------------------------------------------------ #
    # Energy settlement
    # ------------------------------------------------------------------ #

    def settle(self, router: Router) -> None:
        """Charge the elapsed interval at the router's *current* state.

        Must be called before any state/mode mutation so each interval is
        billed at the voltage that actually held during it.
        """
        dt = self.now_tick - router.last_settle_tick
        if dt <= 0:
            return
        if router.state is _INACTIVE:
            router.gated_ticks += dt
        else:
            router.mode_ticks[router.mode.index] += dt
        router.last_settle_tick = self.now_tick

    def _flush_residency(self) -> None:
        """Convert per-router tick residency into accountant energy."""
        from repro.core.modes import MODE_BY_INDEX

        for r in self.network.routers:
            self.settle(r)
            self.accountant.add_gated(r.rid, r.gated_ticks / BASE_TICKS_PER_NS)
            for idx, ticks in enumerate(r.mode_ticks):
                if ticks:
                    m = MODE_BY_INDEX[idx]
                    dt_ns = ticks / BASE_TICKS_PER_NS
                    self.accountant.add_static(r.rid, m.voltage, dt_ns)
                    self.accountant.add_mode_residency(r.rid, idx, dt_ns)

    # ------------------------------------------------------------------ #
    # Security (look-ahead downstream protection, Section III.B)
    # ------------------------------------------------------------------ #

    def secure(self, router: Router) -> None:
        """Place a downstream hold; wake the router if it is gated."""
        router.secure_count += 1
        self.secures_placed += 1
        if router.state is _INACTIVE:
            self._wake_secured(router)

    def _wake_secured(self, router: Router) -> None:
        """A hold landed on a gated router: wake it now.

        Its next firing sits on the gated-heartbeat grid; a waking router
        clocks at its mode period, so pull that firing in to one period
        from now when that is earlier.  A heartbeat due this very tick
        pops after the securing router and runs in WAKEUP state.
        """
        self._wake(router)
        nxt = self.now_tick + router.cur_period
        if nxt < router.next_event_tick:
            router.next_event_tick = nxt
            heapq.heappush(self._heap, (nxt, router.rid))

    def _wake(self, router: Router) -> None:
        """INACTIVE -> WAKEUP, subject to the fault schedule."""
        self.settle(router)
        router.begin_wakeup()
        if self._faults is not None:
            self._apply_wakeup_faults(router)
        self.accountant.add_wake_event(router.rid, router.mode)
        if self._telemetry is not None:
            self._telemetry.on_wake_begin(router.rid, self.now_tick)

    def unsecure(self, router: Router) -> None:
        """Release a downstream hold."""
        router.secure_count -= 1
        self.secures_released += 1
        if router.secure_count < 0:
            raise SimulationError(
                f"secure refcount underflow on router {router.rid}"
            )

    # ------------------------------------------------------------------ #
    # Fault injection + graceful degradation (repro.faults)
    # ------------------------------------------------------------------ #

    def _apply_wakeup_faults(self, router: Router) -> None:
        """Degrade a wakeup that just began, per the fault schedule.

        A *slow* wakeup stretches T-Wakeup by an integer multiplier; a
        *stuck* wakeup never completes on its own — the watchdog in
        :meth:`_fire` counts it down and force-wakes the router when the
        deadline (exponential backoff on repeated failures) expires.
        """
        stuck, mult = self._faults.wakeup_outcome(router.rid)
        if stuck:
            router.wake_stuck = True
            router.watchdog_remaining = self._faults.watchdog_deadline(
                router.wake_fail_count
            )
        elif mult > 1:
            router.wakeup_remaining *= mult

    def begin_switch(self, router: Router, target: int) -> None:
        """Start an active->active V/F switch, subject to VR faults.

        The power policies route every switch request through here so a
        failed SIMO rail hand-off can be modelled: each aborted attempt
        burns a full T-Switch stall at the attempted mode
        (:func:`repro.regulator.reliability.abort_stall_cycles`); once
        ``vr_max_retries`` retries are exhausted the domain falls back to
        the max-V/F safe mode, which every rail sustains.
        """
        from repro.core.modes import mode

        faults = self._faults
        extra_stall = 0
        if faults is not None and faults.config.vr_fail_rate > 0.0:
            attempts = 0
            target_mode = mode(target)
            while faults.vr_switch_fails():
                attempts += 1
                extra_stall += abort_stall_cycles(target_mode)
                self.stats.vr_switch_aborts += 1
                if attempts > faults.config.vr_max_retries:
                    # Retries exhausted: abort the ladder move entirely
                    # and jump to the always-sustainable safe mode.
                    faults.note_safe_mode()
                    self.stats.vr_safe_mode_entries += 1
                    target = SAFE_MODE_INDEX
                    break
        prev_index = router.mode.index
        router.begin_switch(mode(target))
        if extra_stall:
            # Aborted attempts stall transport even when the final switch
            # is a no-op (safe-mode fallback at a router already at max).
            router.switch_stall += extra_stall
        if self._telemetry is not None and (
            router.mode.index != prev_index or extra_stall
        ):
            self._telemetry.on_switch(
                router.rid, self.now_tick, prev_index, router.mode.index,
                router.switch_stall,
            )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> SimResult:
        """Execute the simulation and return its measurements."""
        heap = self._heap
        routers = self.network.routers
        horizon = self.horizon_tick
        final_tick = 0
        drained = False

        while heap:
            tick, rid = heapq.heappop(heap)
            router = routers[rid]
            if tick != router.next_event_tick:
                continue  # stale entry superseded by a secure() wake-up
            if horizon is not None and tick > horizon:
                final_tick = horizon
                break
            if tick > self._cap_tick:
                final_tick = tick
                break
            self.now_tick = tick
            self.now_ns = tick / BASE_TICKS_PER_NS
            self._fire(router, tick)
            if self.timeline is not None:
                self.timeline.maybe_sample(self)
            router.next_event_tick = tick + router.cur_period
            heapq.heappush(heap, (router.next_event_tick, rid))
            final_tick = tick
            if (
                horizon is None
                and self.packets_live == 0
                and self.entries_remaining == 0
            ):
                drained = True
                break

        if horizon is not None:
            drained = self.packets_live == 0 and self.entries_remaining == 0
        self.now_tick = final_tick
        self.now_ns = final_tick / BASE_TICKS_PER_NS
        self._flush_residency()
        if self.audit is not None:
            self.audit.on_end(self, drained)
        if self._telemetry is not None:
            self._telemetry.on_end(self, drained)
        elapsed_ns = max(self.now_ns, 1e-9)
        return SimResult(
            policy_name=self.policy.name,
            trace_name=self.trace.name,
            config=self.config,
            stats=self.stats,
            accountant=self.accountant,
            elapsed_ns=elapsed_ns,
            drained=drained,
            faults=self._faults,
        )

    # ------------------------------------------------------------------ #
    # One router cycle
    # ------------------------------------------------------------------ #

    def _fire(self, router: Router, tick: int) -> None:
        """One router cycle."""
        self.settle(router)
        now_ns = self.now_ns
        state = router.state

        if state is _INACTIVE:
            router.total_off_cycles += 1
            if (
                router.secure_count > 0
                or router.arrivals
                or router.inject_pending(now_ns)
            ):
                self._wake(router)
            router.epoch_cycle += 1
        elif state is _WAKEUP:
            if router.wake_stuck:
                # Degraded handshake: the wakeup is not progressing.  The
                # watchdog burns its deadline down and then force-wakes
                # the router (Power Punch's secure() guarantee must hold
                # even on faulty wake circuitry).
                router.watchdog_remaining -= 1
                if router.watchdog_remaining <= 0:
                    router.wake_stuck = False
                    router.wake_fail_count += 1
                    router.forced_wakes += 1
                    self.stats.forced_wakes += 1
                    router.finish_wakeup()
                    if self._telemetry is not None:
                        self._telemetry.on_wake_complete(
                            router.rid, tick, True
                        )
            else:
                router.wakeup_remaining -= 1
                if router.wakeup_remaining <= 0:
                    router.finish_wakeup()
                    router.wake_fail_count = 0
                    if self._telemetry is not None:
                        self._telemetry.on_wake_complete(
                            router.rid, tick, False
                        )
            router.epoch_cycle += 1
        else:  # ACTIVE
            # 1. Commit transfers whose tail flit has landed.
            self._commit_arrivals(router, tick)
            # 2. Transport or switch-stall.
            if router.switch_stall > 0:
                router.switch_stall -= 1
            else:
                used = self._eject(router, tick)
                self._forward(router, tick, used)
                self._inject(router, tick, now_ns)
                # 3. Power-gating bookkeeping (Fig 3a).
                if self.policy.uses_gating:
                    if router.is_idle(now_ns, tick):
                        router.idle_count += 1
                        router.epoch_idle_cycles += 1
                        if router.idle_count >= self.t_idle:
                            self.settle(router)
                            router.begin_gate()
                    else:
                        router.idle_count = 0
            # 4. Epoch accounting.
            router.occ_sum += router.occupancy_fraction()
            if router.track_ports:
                for port, buf in enumerate(router.in_buffers):
                    router.occ_port_sums[port] += (
                        buf.occupancy / router.buffer_depth
                    )
            router.epoch_cycle += 1

        if router.epoch_cycle >= self.epoch_cycles:
            self._epoch_boundary(router)

    def _commit_arrivals(self, router: Router, tick: int) -> None:
        """Commit every transfer whose tail has landed by ``tick``.

        Each commit releases the hold its packet placed on this router
        and places one on the packet's next hop.
        """
        due = router.pop_due_arrival(tick)
        while due is not None:
            in_port, packet = due
            router.in_buffers[in_port].commit(packet)
            self.unsecure(router)
            self._look_ahead(router, packet)
            due = router.pop_due_arrival(tick)

    def _look_ahead(self, router: Router, packet: Packet) -> None:
        """Route a packet that just entered ``router`` and secure its next
        hop (look-ahead routing, Section III.B)."""
        net = self.network
        packet.out_port = self._route(
            router.rid, net.core_router[packet.dst_core]
        )
        if packet.out_port != LOCAL:
            nbr = net.neighbor_port[router.rid][packet.out_port]
            self.secure(net.routers[nbr])

    def _route(self, rid: int, dst_router: int) -> int:
        """Fabric routing: two list indexes into the precomputed table."""
        return self.network.route_port[rid][dst_router]

    def _eject(self, router: Router, tick: int) -> int:
        """Deliver one packet to the local NI; returns used-input bitmask."""
        if router.out_busy_until[LOCAL] > tick:
            return 0
        ports = router.num_ports
        start = router.rr[LOCAL]
        for k in range(ports):
            ip = (start + k) % ports
            buf = router.in_buffers[ip]
            if not buf.queue or buf.queue[0].out_port != LOCAL:
                continue
            packet = buf.pop()
            done = tick + packet.length * router.cur_period
            if self.wormhole:
                # The tail may still be streaming in from upstream; the
                # ejection port cannot finish before it lands.
                done = max(done, packet.tail_tick + router.cur_period)
            router.out_busy_until[LOCAL] = done
            packet.eject_ns = done / BASE_TICKS_PER_NS
            packet.hops += 1
            self.stats.record_delivery(
                packet.eject_ns - packet.inject_ns, packet.length, packet.hops
            )
            router.epoch_recvs += 1
            self.accountant.add_hop(
                router.rid, router.mode.voltage, packet.length
            )
            self.packets_live -= 1
            router.rr[LOCAL] = (ip + 1) % ports
            return 1 << ip
        return 0

    def _forward(self, router: Router, tick: int, used: int) -> None:
        """Switch allocation for the fabric's directional outputs."""
        net = self.network
        ports = router.num_ports
        period = router.cur_period
        for port, nbr_id, opp in net.links[router.rid]:
            if router.out_busy_until[port] > tick:
                continue
            nbr = net.routers[nbr_id]
            start = router.rr[port]
            for k in range(ports):
                ip = (start + k) % ports
                if used >> ip & 1:
                    continue
                buf = router.in_buffers[ip]
                if not buf.queue or buf.queue[0].out_port != port:
                    continue
                packet = buf.queue[0]
                # The downstream router gates this whole output: if it
                # cannot receive, no other input can use the port either.
                if not nbr.can_receive:
                    break
                nbuf = nbr.in_buffers[opp]
                # Bubble flow control (torus/ring): a grant must leave the
                # downstream buffer with at least ``min_cells`` free
                # packet cells *before* this packet's cell is charged —
                # 2 when entering a buffer ring, 1 when continuing along
                # it.  A cells-blocked head does NOT block the output
                # (``continue``, not ``break``): continuing traffic may
                # still use the bubble that entering traffic must leave.
                if (
                    net.min_cells is not None
                    and net.cell_capacity - nbuf.cells
                    < net.min_cells[port][ip]
                ):
                    continue
                length = packet.length
                if not nbuf.can_accept(length):
                    break
                if self._fault_links:
                    if self._faults.link_transfer_fails(packet.retries, length):
                        # Transfer corrupted in flight: the flits were
                        # serialized (link stays busy, energy is burned)
                        # but nothing commits downstream; the packet stays
                        # queued here and retries next grant.
                        packet.retries += 1
                        done = tick + length * period
                        if self.wormhole:
                            done = max(done, packet.tail_tick + period)
                        router.out_busy_until[port] = done
                        self.stats.link_faults += 1
                        self.stats.flits_retransmitted += length
                        self.accountant.add_retransmit(
                            router.rid, router.mode.voltage, length
                        )
                        break
                    packet.retries = 0
                nbuf.reserve(length)
                buf.pop()
                used |= 1 << ip
                done = tick + length * period
                if self.wormhole:
                    # Wormhole pipelining: the head commits downstream after
                    # one flit time and may be granted onward immediately;
                    # the tail finishes streaming no earlier than one flit
                    # time after it fully arrived here.
                    done = max(done, packet.tail_tick + period)
                    commit_tick = tick + period
                    packet.tail_tick = done
                else:
                    commit_tick = done
                router.out_busy_until[port] = done
                packet.hops += 1
                self._arr_seq += 1
                nbr.push_arrival(commit_tick, self._arr_seq, opp, packet)
                self.accountant.add_hop(router.rid, router.mode.voltage, length)
                router.epoch_flits_out += length
                if router.track_ports:
                    router.flits_out_port[port] += length
                router.rr[port] = (ip + 1) % ports
                break

    def _inject(self, router: Router, tick: int, now_ns: float) -> None:
        """Admit at most one NI packet per cycle into the LOCAL buffer."""
        if not router.inject_pending(now_ns):
            return
        t_ns, src, dst, kind = router.inject_queue[router.inject_pos]
        cfg = self.config
        length = (
            cfg.request_flits if kind == KIND_REQUEST else cfg.response_flits
        )
        buf = router.in_buffers[LOCAL]
        if not buf.can_accept(length):
            return
        packet = Packet(self._pid, src, dst, kind, length, t_ns)
        self._pid += 1
        if self.wormhole:
            # NI serialization: the tail enters the local buffer L cycles on.
            packet.tail_tick = tick + length * router.cur_period
        buf.reserve(length)
        buf.commit(packet)
        router.inject_pos += 1
        self.entries_remaining -= 1
        self._look_ahead(router, packet)
        router.epoch_sends += 1
        self.stats.record_injection()
        self.packets_live += 1

    # ------------------------------------------------------------------ #
    # Epoch boundary
    # ------------------------------------------------------------------ #

    def _epoch_boundary(self, router: Router) -> None:
        features = None
        if self._needs_features:
            features = self.policy.feature_set.extract(router, self)
            if self.collect_features:
                self.stats.record_epoch_features(
                    router.rid,
                    router.epoch_index,
                    features,
                    router.current_ibu(),
                )
            if self._models_active:
                # Online/shadow/drift consume the *clean* vector —
                # upstream of fault corruption — matching what offline
                # training exports for the same epochs.
                self._models_epoch(router, features)
            if self._fault_features:
                # Corrupt the copy handed to the policy, not the training
                # capture: a flipped sensor poisons this epoch's decision,
                # and the controller must catch the non-finite prediction.
                corrupted = self._faults.maybe_corrupt_features(features)
                if corrupted is not None:
                    features = corrupted
                    self.stats.features_corrupted += 1
                    # Only a proactive DVFS decision actually *consumes*
                    # the poisoned vector (a reactive epoch — e.g. online
                    # warmup without warm-start weights — reuses measured
                    # IBU).  Nothing can change the weights between here
                    # and the decision, so this classification is exact;
                    # the auditor checks predictor_fallbacks_fault
                    # against it one-for-one.
                    if self.policy.proactive and self.policy.uses_dvfs:
                        self.stats.features_corrupted_predicting += 1
        self.policy.on_epoch(router, self, features)
        if self._telemetry is not None:
            # Post-decision, pre-reset: epoch accumulators are still live
            # and router.mode reflects the fresh DVFS choice.
            self._telemetry.on_epoch(self, router, features)
        router.reset_epoch()
        if self.audit is not None:
            self.audit.on_epoch(self, router)

    def _models_epoch(self, router: Router, features) -> None:
        """Online-learning / shadow / drift hook for one epoch boundary.

        Runs *before* this epoch's DVFS decision: the learner digests the
        supervision pair (previous epoch's features, this epoch's measured
        IBU) — the exact labeling protocol of
        ``NetworkStats.record_epoch_features`` — and refreshes the live
        policy weights so the decision about the *next* epoch already
        benefits.
        """
        rid = router.rid
        label = router.current_ibu()
        online = self.online
        prev = self._prev_features[rid]
        if online is not None and prev is not None:
            was_diverged = online.diverged
            online.update(prev, label)
            self.stats.online_updates += 1
            if online.diverged and not was_diverged:
                # From here the policy sees all-NaN weights and every
                # decision takes the reactive fallback path (counted per
                # epoch in predictor_fallbacks); the divergence itself is
                # counted once.
                self.stats.online_divergences += 1
            w = online.weights
            if w is not None:
                self.policy.weights = w
        if self._drift is not None:
            action = self._drift.observe(features)
            if action is not None:
                self.stats.drift_alerts += 1
                if action == "reset" and online is not None:
                    online.reset()
                    w = online.weights
                    if w is not None:
                        self.policy.weights = w
                elif action == "fallback":
                    # Permanent degradation to the reactive threshold
                    # policy: drop the predictor and stop learning.
                    self.policy.weights = None
                    if online is not None:
                        online.halt()
        if self.shadow is not None:
            self.shadow.on_epoch(rid, features, label)
        self._prev_features[rid] = features


def run_simulation(
    config: SimConfig,
    trace: Trace,
    policy: "PowerPolicy",
    collect_features: bool = False,
    timeline=None,
    audit=None,
    faults=None,
    telemetry=None,
    online=None,
    shadow=None,
) -> SimResult:
    """One-call convenience wrapper around :class:`Simulator`.

    ``timeline`` may be a :class:`repro.noc.timeline.TimelineSampler` to
    record periodic global-state snapshots during the run.  ``audit`` may
    be ``True`` (default invariant auditor) or an
    :class:`repro.validate.InvariantAuditor`; audits raise
    :class:`repro.common.errors.AuditError` on any conservation violation
    and never change results.  ``faults`` may be a
    :class:`repro.faults.FaultConfig` (or a pre-built scheduler) enabling
    deterministic fault injection; the run then exercises the graceful
    degradation paths but remains bit-reproducible for a given config.
    ``telemetry`` may be a :class:`repro.telemetry.TelemetryRecorder`;
    recording is read-only and never changes results.
    ``online`` may be a :class:`repro.models.OnlineConfig` (or pre-built
    :class:`repro.models.OnlineRidge`) enabling per-epoch RLS updates of
    the policy's weights; ``shadow`` may be a
    :class:`repro.models.ShadowScorer` that scores a candidate model's
    predictions without ever acting on them.

    ``config.backend`` selects the kernel implementation: ``"object"``
    (this module) or ``"array"`` (:mod:`repro.noc.array_sim`, imported
    lazily to avoid a circular import).  Both produce bit-identical
    results; see ``docs/backends.md``.
    """
    if config.backend == "array":
        from repro.noc.array_sim import ArraySimulator

        sim_cls = ArraySimulator
    else:
        sim_cls = Simulator
    sim = sim_cls(
        config, trace, policy, collect_features, timeline,
        audit=audit, faults=faults, telemetry=telemetry,
        online=online, shadow=shadow,
    )
    result = sim.run()
    if shadow is not None:
        shadow.finalize()
    return result
