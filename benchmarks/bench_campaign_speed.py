"""Bench: campaign engine throughput, serial vs parallel vs cached.

Not a paper experiment — this tracks the exec layer's efficiency as
simulated-nanoseconds per wall-clock second for the same quick campaign
run three ways: serial (``jobs=1``), parallel (``jobs=0`` = all CPUs),
and serial again against a warm result cache.  The three runs must agree
bit-identically; the bench asserts that before reporting speed.
"""

from __future__ import annotations

import os
import time

from conftest import write_report

from repro.common.config import SimConfig
from repro.exec.cache import RunCache
from repro.experiments.campaign import CampaignConfig, run_campaign

DURATION_NS = float(os.environ.get("REPRO_BENCH_CAMPAIGN_NS", 1_500.0))

#: Quick profile: big enough to amortize pool startup, small enough for CI.
CAMPAIGN = CampaignConfig(
    sim=SimConfig(topology="mesh", radix=4, epoch_cycles=150),
    duration_ns=DURATION_NS,
    seed=0,
)

#: Simulations a campaign performs on its test traces (5 traces x models).
N_TEST_RUNS = 5 * len(CAMPAIGN.models)


def _timed(label: str, **kwargs):
    t0 = time.perf_counter()
    result = run_campaign(CAMPAIGN, **kwargs)
    wall = time.perf_counter() - t0
    sim_ns = N_TEST_RUNS * CAMPAIGN.duration_ns
    return result, wall, sim_ns / wall


def test_campaign_speed(report_dir, tmp_path):
    serial, wall_serial, rate_serial = _timed("serial", jobs=1)
    parallel, wall_parallel, rate_parallel = _timed("parallel", jobs=0)

    cache = RunCache(tmp_path / "runs")
    run_campaign(CAMPAIGN, jobs=1, cache=cache)  # cold fill
    cached, wall_cached, rate_cached = _timed("cached", jobs=1, cache=cache)

    # Speed may vary; results may not.
    assert serial.summary_rows() == parallel.summary_rows()
    assert serial.summary_rows() == cached.summary_rows()
    assert cache.hits == N_TEST_RUNS

    lines = [
        "Campaign engine throughput (test-phase simulated ns per wall s)",
        f"  config: {CAMPAIGN.sim.topology} radix={CAMPAIGN.sim.radix}, "
        f"{CAMPAIGN.duration_ns:.0f} ns x {N_TEST_RUNS} runs, "
        f"cpus={os.cpu_count()}",
        f"  serial   (jobs=1): {wall_serial:8.2f} s  "
        f"{rate_serial:10.1f} sim-ns/s",
        f"  parallel (jobs=0): {wall_parallel:8.2f} s  "
        f"{rate_parallel:10.1f} sim-ns/s  "
        f"({rate_parallel / rate_serial:.2f}x)",
        f"  cached   (jobs=1): {wall_cached:8.2f} s  "
        f"{rate_cached:10.1f} sim-ns/s  "
        f"({rate_cached / rate_serial:.2f}x, {cache.hits} hits)",
        "  serial == parallel == cached: bit-identical",
    ]
    write_report(report_dir, "campaign_speed", "\n".join(lines))
