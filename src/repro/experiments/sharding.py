"""Sharded campaign execution: workers and the coordinator.

Glue between the generic lease mechanism (:mod:`repro.exec.shard`) and
the campaign layer: a *worker* rebuilds the campaign's deterministic
task list from the shared configuration and works through it under
journal leases; the *coordinator* watches the same journal until every
task is done, salvages stragglers itself (through the same claim/steal
protocol, so it can never trample a live worker), and assembles the
final :class:`~repro.experiments.campaign.CampaignResult` exactly as a
serial run would.

Both sides derive everything from ``(campaign config, cache_dir)``:

* the task list and its cache keys come from
  :func:`~repro.experiments.campaign.prepare_campaign`, which is
  deterministic in the config;
* results travel through the content-addressed
  :class:`~repro.exec.cache.RunCache`;
* completion and leases travel through ``journal.jsonl``.

So ``dozznoc campaign --worker a`` processes need no channel to each
other or to the coordinator beyond the shared ``--cache-dir``, and the
final summary is byte-identical to a serial run of the same config
(asserted by ``tests/test_shard_chaos.py`` and ``dozznoc fuzz --shard``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.exec.cache import run_cache_for
from repro.exec.pool import PoolHealth, execute_sim_task
from repro.exec.shard import (
    LeaseConfig,
    ShardLedger,
    ShardWorker,
    WorkerReport,
)
from repro.experiments.campaign import (
    CampaignConfig,
    CampaignResult,
    assemble_campaign_result,
    finalize_campaign_telemetry,
    prepare_campaign,
    write_campaign_summary,
)


def _journal_path(campaign: CampaignConfig) -> Path:
    if campaign.cache_dir is None:
        raise ValueError("sharded execution requires cache_dir")
    return Path(campaign.cache_dir) / "journal.jsonl"


def run_campaign_worker(
    campaign: CampaignConfig,
    worker_id: str,
    lease: LeaseConfig | None = None,
    kill_after_claims: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> WorkerReport:
    """One sharded worker process's whole life.

    Rebuilds the plan (training reuses the shared weights cache, so the
    first worker trains and the rest reload), then claims/steals tasks
    from the shared journal until the campaign is complete.  Safe to run
    any number of times, concurrently or after crashes — completed work
    is never redone thanks to the cache, and half-done work is recovered
    through lease expiry.

    ``kill_after_claims`` is the chaos-harness hook (the process
    SIGKILLs itself after that many successful claims).
    """
    cache = run_cache_for(campaign.cache_dir)
    if cache is None:
        raise ValueError("sharded execution requires cache_dir")
    plan = prepare_campaign(campaign, jobs=1)
    worker = ShardWorker(
        plan.tasks,
        _journal_path(campaign),
        cache,
        worker_id,
        lease=lease,
        kill_after_claims=kill_after_claims,
        progress=progress,
    )
    return worker.run()


@dataclass
class CoordinatorReport:
    """What the coordinator observed while driving one campaign."""

    tasks_total: int
    resumed: int = 0  #: tasks already done before the coordinator started
    done_cached: int = 0  #: done records flagged as cache hits
    steals: int = 0  #: winning lease steals replayed from the journal
    malformed_lines: int = 0  #: torn/glued journal lines dropped
    workers: list[str] = field(default_factory=list)
    #: Per-instance (wid) progress replayed from the journal:
    #: ``{wid: {"worker": name, "claims": n, "steals": n, "done": n}}``.
    shards: dict = field(default_factory=dict)
    #: The coordinator's own salvage pass (empty counters when external
    #: workers finished everything on their own).
    salvage: WorkerReport | None = None

    def as_dict(self) -> dict:
        return {
            "tasks_total": self.tasks_total,
            "resumed": self.resumed,
            "done_cached": self.done_cached,
            "steals": self.steals,
            "malformed_lines": self.malformed_lines,
            "workers": list(self.workers),
            "shards": {wid: dict(sh) for wid, sh in self.shards.items()},
            "salvage": None if self.salvage is None else self.salvage.as_dict(),
        }


@dataclass
class CoordinatedCampaign:
    """Return value of :func:`coordinate_campaign`."""

    result: CampaignResult
    report: CoordinatorReport


def coordinate_campaign(
    campaign: CampaignConfig,
    lease: LeaseConfig | None = None,
    salvage_after_s: float = 10.0,
    poll_interval_s: float = 0.2,
    summary_out: str | Path | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> CoordinatedCampaign:
    """Watch the shared journal until the campaign completes; assemble.

    The coordinator polls the replayed ledger for done records.  When no
    progress lands for ``salvage_after_s`` seconds (workers dead, or
    none ever started), it becomes a worker itself: an embedded
    :class:`~repro.exec.shard.ShardWorker` claims whatever is free,
    steals whatever expired, and executes the leftovers inline — the
    same graceful-degradation stance as the exec pool's salvage/retry
    paths, expressed through the lease protocol so a *live* straggler is
    never robbed (its lease must actually expire first).

    ``salvage_after_s=0`` makes the coordinator participate immediately
    (the embedded mode the serve queue uses, where there may be no
    external workers at all).

    After completion it collects every task's metrics from the shared
    cache and assembles the result exactly as the serial path does; with
    ``campaign.telemetry_dir`` set it also merges every per-task summary
    the workers wrote (the exact integer merge — order-independent) into
    ``campaign-summary.json``.  ``summary_out`` writes the deterministic
    summary artifact whose bytes match a serial run's.
    """
    cache = run_cache_for(campaign.cache_dir)
    if cache is None:
        raise ValueError("sharded execution requires cache_dir")
    journal_path = _journal_path(campaign)
    lease = lease or LeaseConfig()

    recorder = None
    health = None
    if campaign.telemetry_dir is not None:
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(series=False)
        health = PoolHealth()

    plan = prepare_campaign(campaign, jobs=1, recorder=recorder)
    keys = plan.task_keys()
    total = len(keys)

    ledger = ShardLedger(journal_path, lease)
    ledger.refresh()
    resumed = ledger.done_count(keys)
    report = CoordinatorReport(tasks_total=total, resumed=resumed)

    def _watch() -> WorkerReport | None:
        """Poll until done; returns the salvage report if one ran."""
        last_done = ledger.done_count(keys)
        last_progress_t = time.monotonic()
        while True:
            ledger.refresh()
            done = ledger.done_count(keys)
            if progress is not None:
                progress(done, total)
            if done >= total:
                return None
            now = time.monotonic()
            if done > last_done:
                last_done = done
                last_progress_t = now
            if now - last_progress_t >= salvage_after_s:
                # Stalled: dead workers (or none).  Join the campaign
                # through the same protocol — claims/steals only, so
                # live workers keep whatever they validly hold.
                salvager = ShardWorker(
                    plan.tasks,
                    journal_path,
                    cache,
                    worker_id="coordinator",
                    lease=lease,
                    progress=progress,
                )
                return salvager.run()
            time.sleep(poll_interval_s)

    if recorder is None:
        report.salvage = _watch()
    else:
        with recorder.phase("simulate"):
            report.salvage = _watch()

    ledger.refresh()
    report.steals = ledger.steal_count()
    report.malformed_lines = ledger.malformed
    report.workers = sorted(ledger.workers)
    report.shards = ledger.shard_progress()
    report.done_cached = sum(
        1 for k in keys if ledger.state(k).done_cached
    )

    # Collect every result from the shared cache.  A done record whose
    # cache entry vanished (manual deletion) is recomputed inline — the
    # content address guarantees the same bytes.
    metrics_list = []
    for task, key in zip(plan.tasks, keys):
        metrics = cache.get(key)
        if metrics is None:
            metrics = execute_sim_task(task)
            cache.put_new(key, metrics)
        metrics_list.append(metrics)

    if health is not None:
        health.tasks += total
        health.cached += report.done_cached

    promotion = None
    if recorder is not None and health is not None:
        promotion = finalize_campaign_telemetry(
            plan, recorder, health, resumed=resumed
        )
    result = assemble_campaign_result(
        plan, metrics_list, resumed=resumed, promotion=promotion
    )
    if summary_out is not None:
        write_campaign_summary(result, summary_out)
    return CoordinatedCampaign(result=result, report=report)
