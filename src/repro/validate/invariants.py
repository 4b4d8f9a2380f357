"""Machine-checkable conservation laws for the simulation kernel.

The array kernel's bookkeeping is heavily optimized (inlined settles,
lazily folded span credits, reservation counters maintained
incrementally), which means a kernel bug can corrupt results
*silently*: counters drift, energy residency leaks, and the run still
produces plausible-looking numbers.
:class:`InvariantAuditor` recomputes the ground truth from first
principles at every epoch boundary and at end-of-run and raises
:class:`~repro.common.errors.AuditError` on any divergence:

* **packet conservation** — every packet the trace contains is either
  still queued at an NI, live in the network, or delivered; nothing is
  created or destroyed,
* **flit conservation** — each input FIFO's ``occupancy`` counter equals
  the flits actually queued, and reservations never exceed capacity,
* **secure-refcount balance** — look-ahead holds are released exactly as
  often as they are placed: the kernel's global placed/released ledger
  matches the per-router refcount sum at every audit and is symmetric
  (placed == released) once the network drains,
* **fault accounting** — without fault injection every degradation
  counter is exactly zero; with it, the scheduler's order-side ledger
  (faults drawn) matches the execution-side ledger (degradations
  observed): link faults equal retransmissions equal the energy
  accountant's retransmit flits, every stuck wakeup is either rescued by
  the watchdog or still pending, VR aborts/safe-modes and corrupted
  features agree, and a proactive DVFS policy falls back to the
  threshold rule exactly once per corrupted feature vector that reached
  a proactive decision (the *fault* fallback lane); fallbacks on the
  separate *online* lane — every decision after an online-RLS
  divergence exposes all-NaN weights — are bounded against the
  model-lifecycle ledger instead (they require a recorded divergence),
* **residency conservation** — after the end-of-run flush, every router's
  gated + per-mode tick residency tiles the run exactly, and the energy
  accountant's wall-clock view agrees,
* **epoch-cycle bounds** — per-router epoch counters stay inside
  ``[0, epoch_cycles)`` even through span credits (gated heartbeats
  included) and their wake-up and end-of-run rollbacks,
* **monotone fire ticks** — simulated time never runs backwards and no
  router's next firing is scheduled in the past,
* **ring bubble** — on bubble fabrics (torus, ring: see
  :mod:`repro.noc.fabrics`) every directed buffer ring retains at least
  one free packet cell, the structural condition that makes wraparound
  routing deadlock-free,
* **cell conservation** — each input buffer's packet-cell counter equals
  its resident packets plus the in-flight arrivals reserved into it,
* **progress watchdog** — while packets are live, the global progress
  vector (injections, deliveries, secure ledger, retransmissions, NI
  backlog) may not freeze for longer than a generous tick window; a
  frozen vector is a deadlock or a livelocked kernel, not congestion.

Audits are read-only: an audited run is bit-identical to an unaudited
one.  On failure the auditor (optionally) dumps a JSON *repro artifact* —
config, trace name, seed, policy, failing check, tick — so the run can be
replayed; see ``docs/validation.md``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro.common.errors import AuditError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.simulator import Simulator

#: Relative/absolute tolerance for float (ns-domain) conservation checks.
_REL_TOL = 1e-9
_ABS_TOL = 1e-6


def write_artifact(artifact_dir: str | Path, name: str, payload: dict) -> Path:
    """Atomically write one JSON repro artifact and return its path."""
    directory = Path(artifact_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", name)
    path = directory / f"{safe}.json"
    fd, tmp = tempfile.mkstemp(prefix=".artifact-", suffix=".tmp",
                               dir=directory)
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    os.replace(tmp, path)
    return path


class InvariantAuditor:
    """Conservation-law watchdog for one simulation run.

    Pass an instance to :class:`~repro.noc.simulator.Simulator` (or
    ``audit=True`` for a default one); it is invoked at every epoch
    boundary and once at end-of-run.  All checks are pure reads.

    Parameters
    ----------
    artifact_dir:
        Where to dump a JSON repro artifact when a check fails (``None``
        disables artifact writing; the :class:`AuditError` still carries
        the artifact payload either way).
    context:
        Extra key/value pairs merged into any artifact — the fuzz harness
        records its master seed and trial index here so failures can be
        replayed.
    """

    def __init__(
        self,
        artifact_dir: str | Path | None = None,
        context: dict | None = None,
    ) -> None:
        self.artifact_dir = artifact_dir
        self.context = dict(context or {})
        self.epoch_audits = 0
        self.end_audits = 0
        self.checks_passed = 0
        self._last_tick = -1
        self._artifacts = 0
        # Progress-watchdog state: the last observed progress vector and
        # the tick it last *changed* (window computed lazily from the
        # run's epoch size at the first audit).
        self._progress_vector: tuple | None = None
        self._progress_tick = 0
        self._progress_window: int | None = None

    # ------------------------------------------------------------------ #
    # Hooks called by the simulator
    # ------------------------------------------------------------------ #

    def on_epoch(self, sim: "Simulator", router=None) -> None:
        """Audit global state at one router's epoch boundary."""
        self.epoch_audits += 1
        self._check_monotone_time(sim)
        self._check_packet_conservation(sim)
        self._check_buffers(sim)
        self._check_epoch_bounds(sim)
        self._check_secure_counts(sim, require_zero=False)
        self._check_fault_accounting(sim)
        self._check_ring_bubble(sim)
        self._check_cells(sim)
        self._check_progress(sim)

    def on_end(self, sim: "Simulator", drained: bool) -> None:
        """Audit end-of-run state (after the residency flush)."""
        self.end_audits += 1
        self._check_monotone_time(sim)
        self._check_packet_conservation(sim)
        self._check_buffers(sim)
        self._check_epoch_bounds(sim)
        self._check_secure_counts(sim, require_zero=drained)
        self._check_fault_accounting(sim)
        self._check_residency(sim)
        if drained:
            self._check_drained(sim)
        self._check_ring_bubble(sim)
        self._check_cells(sim)

    # ------------------------------------------------------------------ #
    # Individual checks
    # ------------------------------------------------------------------ #

    def _check_monotone_time(self, sim: "Simulator") -> None:
        now = sim.now_tick
        if now < self._last_tick:
            self._fail(
                sim, "monotone-fire-tick",
                f"simulated time ran backwards: tick {now} after "
                f"{self._last_tick}",
            )
        self._last_tick = now
        for r in sim.network.routers:
            if r.next_event_tick < now:
                self._fail(
                    sim, "monotone-fire-tick",
                    f"router {r.rid} next firing scheduled in the past "
                    f"({r.next_event_tick} < now {now})",
                )
            if r.last_settle_tick > now:
                self._fail(
                    sim, "monotone-fire-tick",
                    f"router {r.rid} settled in the future "
                    f"({r.last_settle_tick} > now {now})",
                )
        self.checks_passed += 1

    def _check_packet_conservation(self, sim: "Simulator") -> None:
        stats = sim.stats
        live = sim.packets_live
        if live < 0:
            self._fail(
                sim, "packet-conservation",
                f"packets_live went negative ({live})",
            )
        if stats.packets_injected != stats.packets_delivered + live:
            self._fail(
                sim, "packet-conservation",
                f"injected ({stats.packets_injected}) != delivered "
                f"({stats.packets_delivered}) + live ({live})",
            )
        queued = sum(
            len(r.inject_queue) - r.inject_pos for r in sim.network.routers
        )
        if queued != sim.entries_remaining:
            self._fail(
                sim, "trace-conservation",
                f"NI queues hold {queued} entries but entries_remaining is "
                f"{sim.entries_remaining}",
            )
        if stats.packets_injected + queued != sim.total_trace_entries:
            self._fail(
                sim, "trace-conservation",
                f"injected ({stats.packets_injected}) + queued ({queued}) "
                f"!= trace entries ({sim.total_trace_entries})",
            )
        self.checks_passed += 1

    def _check_buffers(self, sim: "Simulator") -> None:
        for r in sim.network.routers:
            for port, buf in enumerate(r.in_buffers):
                actual = buf.queued_flits()
                if buf.occupancy != actual:
                    self._fail(
                        sim, "flit-conservation",
                        f"router {r.rid} port {port}: occupancy counter "
                        f"{buf.occupancy} != {actual} flits queued",
                    )
                if buf.reserved < 0 or buf.reserved > buf.capacity:
                    self._fail(
                        sim, "flit-conservation",
                        f"router {r.rid} port {port}: reserved "
                        f"{buf.reserved} outside [0, {buf.capacity}]",
                    )
                if buf.occupancy + buf.reserved > buf.capacity:
                    self._fail(
                        sim, "flit-conservation",
                        f"router {r.rid} port {port}: occupancy "
                        f"{buf.occupancy} + reserved {buf.reserved} exceeds "
                        f"capacity {buf.capacity}",
                    )
        self.checks_passed += 1

    def _check_epoch_bounds(self, sim: "Simulator") -> None:
        limit = sim.epoch_cycles
        for r in sim.network.routers:
            if not 0 <= r.epoch_cycle < limit:
                self._fail(
                    sim, "epoch-cycle-bounds",
                    f"router {r.rid} epoch_cycle {r.epoch_cycle} outside "
                    f"[0, {limit})",
                )
            if r.total_off_cycles < 0:
                self._fail(
                    sim, "epoch-cycle-bounds",
                    f"router {r.rid} total_off_cycles went negative "
                    f"({r.total_off_cycles})",
                )
        self.checks_passed += 1

    def _check_secure_counts(
        self, sim: "Simulator", require_zero: bool
    ) -> None:
        held = 0
        for r in sim.network.routers:
            if r.secure_count < 0:
                self._fail(
                    sim, "secure-refcount",
                    f"router {r.rid} secure_count underflow "
                    f"({r.secure_count})",
                )
            if require_zero and r.secure_count != 0:
                self._fail(
                    sim, "secure-refcount",
                    f"router {r.rid} holds secure_count "
                    f"{r.secure_count} after drain (expected 0)",
                )
            held += r.secure_count
        outstanding = sim.secures_placed - sim.secures_released
        if outstanding != held:
            self._fail(
                sim, "secure-ledger",
                f"secure ledger out of balance: placed "
                f"{sim.secures_placed} - released {sim.secures_released} "
                f"= {outstanding}, but routers hold {held}",
            )
        if require_zero and sim.secures_placed != sim.secures_released:
            self._fail(
                sim, "secure-ledger",
                f"secure ledger asymmetric after drain: placed "
                f"{sim.secures_placed} != released {sim.secures_released}",
            )
        self.checks_passed += 1

    def _check_fault_accounting(self, sim: "Simulator") -> None:
        stats = sim.stats
        faults = sim._faults
        policy = sim.policy
        # The online fallback lane is not fault-driven: after an
        # online-RLS divergence the learner exposes all-NaN weights and
        # *every* subsequent proactive decision degrades to the reactive
        # threshold rule, with or without a fault scheduler attached.
        # Bound it against the model-lifecycle ledger instead of the
        # fault ledger.
        if stats.predictor_fallbacks_online != 0:
            if sim.online is None:
                self._fail(
                    sim, "fault-accounting",
                    f"online-lane predictor fallbacks recorded "
                    f"({stats.predictor_fallbacks_online}) without an "
                    f"online learner attached",
                )
            if stats.online_divergences == 0:
                self._fail(
                    sim, "fault-accounting",
                    f"online-lane predictor fallbacks recorded "
                    f"({stats.predictor_fallbacks_online}) but the online "
                    f"learner never diverged",
                )
        if not policy.uses_dvfs and stats.predictor_fallbacks != 0:
            self._fail(
                sim, "fault-accounting",
                f"policy without DVFS recorded "
                f"{stats.predictor_fallbacks} predictor fallbacks",
            )
        if faults is None:
            for name in (
                "link_faults", "flits_retransmitted", "forced_wakes",
                "vr_switch_aborts", "vr_safe_mode_entries",
                "features_corrupted", "features_corrupted_predicting",
                "predictor_fallbacks_fault",
            ):
                if getattr(stats, name) != 0:
                    self._fail(
                        sim, "fault-accounting",
                        f"no fault scheduler attached but stats.{name} is "
                        f"{getattr(stats, name)} (expected 0)",
                    )
            self.checks_passed += 1
            return
        acct_retx = int(sim.accountant.retx_flits.sum())
        pairs = [
            ("link faults drawn", faults.link_faults,
             "transfers retried", stats.link_faults),
            ("retx flits drawn", faults.retx_flits,
             "flits retransmitted", stats.flits_retransmitted),
            ("flits retransmitted", stats.flits_retransmitted,
             "retx flits charged", acct_retx),
            ("vr aborts drawn", faults.vr_aborts,
             "switch aborts stalled", stats.vr_switch_aborts),
            ("safe modes drawn", faults.vr_safe_modes,
             "safe modes entered", stats.vr_safe_mode_entries),
            ("features corrupted (sched)", faults.features_corrupted,
             "features corrupted (stats)", stats.features_corrupted),
        ]
        for left_name, left, right_name, right in pairs:
            if left != right:
                self._fail(
                    sim, "fault-accounting",
                    f"{left_name} ({left}) != {right_name} ({right})",
                )
        pending_stuck = sum(
            1 for r in sim.network.routers if r.wake_stuck
        )
        if faults.wakeups_stuck != stats.forced_wakes + pending_stuck:
            self._fail(
                sim, "fault-accounting",
                f"stuck wakeups drawn ({faults.wakeups_stuck}) != watchdog "
                f"force-wakes ({stats.forced_wakes}) + still pending "
                f"({pending_stuck})",
            )
        # Fault lane, checked exactly: every corrupted vector that
        # reached a proactive DVFS decision poisons exactly one dot
        # product (NaN/inf propagate through any weights) and must trip
        # exactly one fault-lane fallback.  Corrupted vectors consumed
        # by a *reactive* epoch (online warmup without warm-start
        # weights, drift fallback) legitimately trip none — they are
        # excluded from ``features_corrupted_predicting`` at the
        # corruption site.
        if stats.features_corrupted_predicting > stats.features_corrupted:
            self._fail(
                sim, "fault-accounting",
                f"corrupted-while-predicting count "
                f"({stats.features_corrupted_predicting}) exceeds total "
                f"corrupted vectors ({stats.features_corrupted})",
            )
        if stats.predictor_fallbacks_fault != stats.features_corrupted_predicting:
            self._fail(
                sim, "fault-accounting",
                f"{stats.predictor_fallbacks_fault} fault-lane threshold "
                f"fallbacks for {stats.features_corrupted_predicting} "
                f"corrupted feature vectors that reached a proactive "
                f"decision ({stats.features_corrupted} corrupted in total)",
            )
        self.checks_passed += 1

    def _check_ring_bubble(self, sim: "Simulator") -> None:
        """Bubble flow control's structural deadlock-freedom condition.

        On a bubble fabric every directed ring of input buffers must
        retain at least one free packet cell at all times: entry into a
        ring requires 2 free cells, continuing requires 1, so the sum of
        occupied-or-reserved cells around any ring never reaches the
        ring's cell capacity.  A full ring is exactly the circular-wait
        state wraparound links make possible.
        """
        net = sim.network
        if net.min_cells is None:
            self.checks_passed += 1
            return
        routers = net.routers
        cell_capacity = net.cell_capacity
        for ring in net.fabric.rings():
            held = 0
            for rid, in_port in ring:
                held += routers[rid].in_buffers[in_port].cells
            limit = len(ring) * cell_capacity
            if held >= limit:
                self._fail(
                    sim, "ring-bubble",
                    f"bubble lost: ring through "
                    f"{[rid for rid, _ in ring[:4]]}... holds {held} packet "
                    f"cells of {limit} with no free cell remaining",
                )
        self.checks_passed += 1

    def _check_cells(self, sim: "Simulator") -> None:
        """Each buffer's packet-cell counter matches ground truth.

        A cell is charged at reservation (or NI injection) and released
        at pop, so at any audit point ``cells`` must equal the resident
        packets plus the in-flight arrivals heading for that input port.
        """
        for r in sim.network.routers:
            pending = [0] * len(r.in_buffers)
            for _, _, in_port, _ in r.arrivals:
                pending[in_port] += 1
            for port, buf in enumerate(r.in_buffers):
                expected = len(buf.queue) + pending[port]
                if buf.cells != expected:
                    self._fail(
                        sim, "cell-conservation",
                        f"router {r.rid} port {port}: cell counter "
                        f"{buf.cells} != {len(buf.queue)} resident + "
                        f"{pending[port]} in-flight packets",
                    )
        self.checks_passed += 1

    def _check_progress(self, sim: "Simulator") -> None:
        """Deadlock/livelock watchdog over the global progress vector.

        The vector holds every counter that moves when the network does
        useful (or fault-recovery) work; all of them are maintained
        exactly by both kernels at every audit point, span skipping
        included.  While packets are live the vector freezing for longer
        than the window — 64 epochs of the *slowest* clock, far beyond
        any congestive stall — means no packet can ever make progress
        again: a routing deadlock or a scheduler livelock.
        """
        if self._progress_window is None:
            from repro.noc.router import GATED_HEARTBEAT_TICKS

            self._progress_window = (
                64 * sim.epoch_cycles * GATED_HEARTBEAT_TICKS
            )
        stats = sim.stats
        vector = (
            stats.packets_injected,
            stats.packets_delivered,
            sim.secures_placed,
            sim.secures_released,
            stats.flits_retransmitted,
            sim.entries_remaining,
            sim.packets_live,
        )
        now = sim.now_tick
        if vector != self._progress_vector:
            self._progress_vector = vector
            self._progress_tick = now
        elif (
            sim.packets_live > 0
            and now - self._progress_tick > self._progress_window
        ):
            self._fail(
                sim, "progress-watchdog",
                f"no forward progress for {now - self._progress_tick} "
                f"ticks (> window {self._progress_window}) with "
                f"{sim.packets_live} live packets: progress vector "
                f"{vector} is frozen",
            )
        self.checks_passed += 1

    def _check_residency(self, sim: "Simulator") -> None:
        final_tick = sim.now_tick
        final_ns = sim.now_ns
        acct = sim.accountant
        for r in sim.network.routers:
            total = r.residency_ticks()
            if total != final_tick:
                self._fail(
                    sim, "residency-conservation",
                    f"router {r.rid}: gated + mode residency {total} ticks "
                    f"!= final tick {final_tick}",
                )
            wall = acct.residency_time_ns(r.rid)
            if not math.isclose(
                wall, final_ns, rel_tol=_REL_TOL, abs_tol=_ABS_TOL
            ):
                self._fail(
                    sim, "residency-conservation",
                    f"router {r.rid}: accountant gated+powered time "
                    f"{wall} ns != elapsed {final_ns} ns",
                )
        self.checks_passed += 1

    def _check_drained(self, sim: "Simulator") -> None:
        if sim.packets_live != 0 or sim.entries_remaining != 0:
            self._fail(
                sim, "drain-state",
                f"run reported drained with {sim.packets_live} live "
                f"packets and {sim.entries_remaining} queued entries",
            )
        for r in sim.network.routers:
            if r.arrivals:
                self._fail(
                    sim, "drain-state",
                    f"router {r.rid} still has {len(r.arrivals)} in-flight "
                    f"arrivals after drain",
                )
            for port, buf in enumerate(r.in_buffers):
                if buf.occupancy or buf.reserved or buf.queue:
                    self._fail(
                        sim, "drain-state",
                        f"router {r.rid} port {port} not empty after drain "
                        f"(occupancy={buf.occupancy}, "
                        f"reserved={buf.reserved})",
                    )
        self.checks_passed += 1

    # ------------------------------------------------------------------ #
    # Failure path
    # ------------------------------------------------------------------ #

    def _fail(self, sim: "Simulator", check: str, message: str) -> None:
        artifact = self._artifact(sim, check, message)
        path: Path | None = None
        if self.artifact_dir is not None:
            self._artifacts += 1
            name = (
                f"audit-{sim.trace.name}-{sim.policy.name}"
                f"-{sim.now_tick}-{self._artifacts}"
            )
            path = write_artifact(self.artifact_dir, name, artifact)
        where = f" [artifact: {path}]" if path is not None else ""
        err = AuditError(
            f"invariant {check!r} violated at tick {sim.now_tick} "
            f"({sim.now_ns:.3f} ns) running policy {sim.policy.name!r} on "
            f"trace {sim.trace.name!r}: {message}{where}"
        )
        err.check = check
        err.tick = sim.now_tick
        err.artifact = artifact
        err.artifact_path = None if path is None else str(path)
        raise err

    def _artifact(self, sim: "Simulator", check: str, message: str) -> dict:
        stats = sim.stats
        return {
            "kind": "invariant-violation",
            "check": check,
            "message": message,
            "tick": sim.now_tick,
            "now_ns": sim.now_ns,
            "policy": sim.policy.name,
            "trace": sim.trace.name,
            "seed": sim.config.seed,
            "config": dataclasses.asdict(sim.config),
            "state": {
                "packets_injected": stats.packets_injected,
                "packets_delivered": stats.packets_delivered,
                "packets_live": sim.packets_live,
                "entries_remaining": sim.entries_remaining,
                "total_trace_entries": sim.total_trace_entries,
                "epoch_audits": self.epoch_audits,
                "secures_placed": sim.secures_placed,
                "secures_released": sim.secures_released,
                "forced_wakes": stats.forced_wakes,
                "link_faults": stats.link_faults,
                "flits_retransmitted": stats.flits_retransmitted,
                "vr_switch_aborts": stats.vr_switch_aborts,
                "vr_safe_mode_entries": stats.vr_safe_mode_entries,
                "features_corrupted": stats.features_corrupted,
                "features_corrupted_predicting":
                    stats.features_corrupted_predicting,
                "predictor_fallbacks": stats.predictor_fallbacks,
                "predictor_fallbacks_fault": stats.predictor_fallbacks_fault,
                "predictor_fallbacks_online": stats.predictor_fallbacks_online,
            },
            "faults": (
                None if sim._faults is None
                else dataclasses.asdict(sim._faults.config)
            ),
            "context": self.context,
        }
