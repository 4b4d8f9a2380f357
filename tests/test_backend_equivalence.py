"""Object-vs-array kernel equivalence: the bit-identity contract.

The array backend (:mod:`repro.noc.array_sim`) is a pure performance
refactor — structure-of-arrays state plus a gated-epoch span fast path —
and its contract is **exact** equality with the object kernel, not
approximate agreement (see ``docs/backends.md``).  Four layers enforce
it here:

1. every committed golden fingerprint, re-run with ``backend="object"``
   (the golden suite itself runs the default ``array`` kernel, so the
   two layers together pin both kernels to the same committed bytes),
2. the fuzzer's deterministic trial generator (a fixed slice of the same
   schedule the ``--differential-backend`` CLI leg samples), including
   fault-injection and online-learning legs,
3. hypothesis-driven random small configs, where the *shape* of the
   config (topology, flit sizes, buffer depth, epoch length, switching)
   is the fuzzed surface,
4. the collected training features and labels of every feature set the
   experiments use, against per-step execution.

Divergence in any summary field or captured feature is a bug in the
array kernel by definition — the object kernel is the reference
semantics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.core.features import (
    FULL_FEATURES,
    REDUCED_FEATURES,
    SINGLE_FEATURE_CANDIDATES,
    single_feature_set,
)
from repro.experiments.runner import MODEL_NAMES, ModelMetrics
from repro.noc.array_sim import ArraySimulator
from repro.noc.simulator import Simulator, run_simulation
from repro.traffic.benchmarks import generate_benchmark_trace
from repro.validate.fuzz import build_trial

sys.path.insert(0, str(Path(__file__).resolve().parent))
from regen_golden import compute_fingerprint, golden_cases, golden_path  # noqa: E402


# --------------------------------------------------------------------- #
# Layer 1: the committed golden matrix, re-run on the object kernel
# --------------------------------------------------------------------- #

_CASES = golden_cases()


@pytest.mark.parametrize(
    "case", _CASES, ids=[c["id"] for c in _CASES]
)
def test_object_backend_matches_committed_golden(case):
    """Object-kernel fingerprints equal the committed (array) ones.

    The golden suite recomputes every case on the default ``array``
    kernel; this mirror recomputes it on the reference ``object`` kernel.
    Every simulation-observable part of the fingerprint must match the
    JSON on disk exactly; only the echoed config (which records the
    backend) may differ.
    """
    committed = json.loads(golden_path(case["id"]).read_text())
    arr_case = dict(case, config=dict(case["config"], backend="object"))
    got = compute_fingerprint(arr_case)
    assert got["drained"] == committed["drained"]
    assert got["summary"] == committed["summary"]
    if "online_ledger" in committed:
        assert got["online_ledger"] == committed["online_ledger"]


# --------------------------------------------------------------------- #
# Layer 2: fuzzer trials (same generator as --differential-backend)
# --------------------------------------------------------------------- #

def _run_both(config, trace, policy_name, weights=None, faults=None,
              online=None):
    policy_obj = make_policy(policy_name, weights=weights)
    ref = Simulator(
        config, trace, policy_obj, faults=faults, online=online
    ).run()
    policy_arr = make_policy(policy_name, weights=weights)
    got = ArraySimulator(
        config.with_(backend="array"), trace, policy_arr,
        faults=faults, online=online,
    ).run()
    return ref, got


def _assert_equal(ref, got, label):
    assert got.summary() == ref.summary(), (
        f"{label}: array summary diverged from object summary"
    )
    assert got.drained == ref.drained, f"{label}: drained flag diverged"
    assert ModelMetrics.from_result(got) == ModelMetrics.from_result(ref), (
        f"{label}: ModelMetrics diverged"
    )


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("leg", ["plain", "faults", "online"])
def test_fuzz_trials_equivalent(index, leg):
    """A fixed slice of the fuzz schedule, all policies, both kernels."""
    trial = build_trial(
        1234, index, faults=(leg == "faults"), online=(leg == "online")
    )
    for policy_name in MODEL_NAMES:
        ref, got = _run_both(
            trial.config, trial.trace, policy_name,
            weights=trial.weights_for(policy_name),
            faults=trial.faults,
            online=trial.online_for(policy_name),
        )
        _assert_equal(ref, got, f"trial {index}/{leg}/{policy_name}")


# --------------------------------------------------------------------- #
# Layer 3: hypothesis over the config shape
# --------------------------------------------------------------------- #

@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    radix=st.integers(min_value=2, max_value=4),
    epoch_cycles=st.integers(min_value=20, max_value=120),
    t_idle=st.integers(min_value=1, max_value=6),
    switching=st.sampled_from(["vct", "wormhole"]),
    req_flits=st.integers(min_value=1, max_value=2),
    resp_flits=st.integers(min_value=2, max_value=5),
    extra_depth=st.integers(min_value=0, max_value=4),
    policy=st.sampled_from(list(MODEL_NAMES)),
    bench=st.sampled_from(["bodytrack", "fluidanimate"]),
    duration=st.integers(min_value=100, max_value=500),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hypothesis_configs_equivalent(
    radix, epoch_cycles, t_idle, switching, req_flits, resp_flits,
    extra_depth, policy, bench, duration, seed,
):
    config = SimConfig(
        topology="mesh",
        radix=radix,
        epoch_cycles=epoch_cycles,
        t_idle=t_idle,
        switching=switching,
        request_flits=req_flits,
        response_flits=resp_flits,
        buffer_depth=max(req_flits, resp_flits) + extra_depth,
        horizon_ns=None,
        seed=seed,
    )
    trace = generate_benchmark_trace(
        bench, num_cores=config.num_cores,
        duration_ns=float(duration), seed=seed,
    )
    weights = None
    if policy in ("lead", "dozznoc", "turbo"):
        rng = np.random.default_rng(seed)
        weights = rng.normal(0.0, 0.3, size=5)
    ref, got = _run_both(config, trace, policy, weights=weights)
    _assert_equal(ref, got, f"hypothesis {policy}/{bench}")


# --------------------------------------------------------------------- #
# Layer 4: collected training features, not just summaries
# --------------------------------------------------------------------- #

class _PerStep:
    """No-op timeline sampler: a run it observes elides no cycle."""

    def maybe_sample(self, sim) -> None:
        return None


_FEATURE_SETS = {
    "reduced-5": REDUCED_FEATURES,
    "full-41": FULL_FEATURES,
    **{
        f"single-{name}": single_feature_set(name)
        for name in SINGLE_FEATURE_CANDIDATES
    },
}
_EPOCH_CFG = SimConfig(topology="mesh", radix=4, epoch_cycles=150)
_EPOCH_TRACE = generate_benchmark_trace(
    "bodytrack", num_cores=16, duration_ns=2500.0
)


def _epoch_records(sim_cls, policy, timeline=None):
    sim = sim_cls(
        _EPOCH_CFG, _EPOCH_TRACE, policy, collect_features=True,
        timeline=timeline,
    )
    result = sim.run()
    return result, result.stats.epoch_records


def _assert_same_records(fs, ref, got):
    """Features and labels of every epoch record, NaN-aware and exact."""
    assert [(r.router, r.epoch) for r in got] == [
        (r.router, r.epoch) for r in ref
    ]
    x_ref = np.array([r.features for r in ref])
    x_got = np.array([r.features for r in got])
    same = (x_ref == x_got) | (np.isnan(x_ref) & np.isnan(x_got))
    bad = sorted({fs.names[col] for _, col in np.argwhere(~same)})
    assert same.all(), (
        f"{int((~same).sum())} feature cells differ from per-step "
        f"execution, in {bad}"
    )
    y_ref = np.array([r.label for r in ref])
    y_got = np.array([r.label for r in got])
    assert np.array_equal(y_ref, y_got, equal_nan=True)


@pytest.mark.parametrize(
    "policy_name,proactive",
    [("pg", False), ("dozznoc", False), ("dozznoc", True)],
    ids=["pg-reactive", "dozznoc-reactive", "dozznoc-proactive"],
)
@pytest.mark.parametrize("fs_name", sorted(_FEATURE_SETS))
def test_collected_features_match_per_step(fs_name, policy_name, proactive):
    """The array kernel's training capture equals per-step execution.

    The reference leg is the object kernel under a no-op timeline
    sampler, so it fires every router cycle.  Summaries alone cannot
    catch a feature that reads another router's lazily credited state
    mid-epoch: only the captured vectors show it.  Pinned regression
    (``full-41-pg-reactive``): ``neighbor_ibu_*`` reads a neighbour's
    ``current_ibu()`` mid-epoch, and crediting a gated neighbour's
    ``epoch_cycle`` ahead of its elided heartbeats skewed 149 cells of
    this capture on both kernels alike, with identical summaries.
    """
    fs = _FEATURE_SETS[fs_name]
    weights = None
    if proactive:
        weights = np.random.default_rng(5).normal(0.0, 0.3, size=len(fs))
    ref, ref_rows = _epoch_records(
        Simulator, make_policy(policy_name, weights, fs), _PerStep()
    )
    got, got_rows = _epoch_records(
        ArraySimulator, make_policy(policy_name, weights, fs)
    )
    assert ref.accountant.gated_time_ns.sum() > 0  # elision had work
    assert got.summary() == ref.summary()
    _assert_same_records(fs, ref_rows, got_rows)


# --------------------------------------------------------------------- #
# Dispatch + lane-export sanity
# --------------------------------------------------------------------- #

def test_run_simulation_dispatches_on_backend():
    """``backend="array"`` must actually select the array kernel."""
    config = SimConfig(topology="mesh", radix=2, epoch_cycles=50,
                       horizon_ns=200.0)
    trace = generate_benchmark_trace("bodytrack", num_cores=4,
                                     duration_ns=150.0)
    ref = run_simulation(config, trace, make_policy("baseline"))
    got = run_simulation(
        config.with_(backend="array"), trace, make_policy("baseline")
    )
    assert got.summary() == ref.summary()


def test_lanes_export_shape():
    """The SoA lane export is (routers,), want is (routers, 5)."""
    config = SimConfig(topology="mesh", radix=3, epoch_cycles=50,
                       horizon_ns=200.0, backend="array")
    trace = generate_benchmark_trace("bodytrack", num_cores=9,
                                     duration_ns=150.0)
    sim = ArraySimulator(config, trace, make_policy("baseline"))
    sim.run()
    lanes = sim.lanes()
    n = 9
    assert lanes["occ_total"].shape == (n,)
    assert lanes["res_total"].shape == (n,)
    assert lanes["busy_max"].shape == (n,)
    assert lanes["want"].shape == (n, 5)
    # a drained run ends with empty buffers and no reservations
    assert int(lanes["occ_total"].sum()) == 0
    assert int(lanes["res_total"].sum()) == 0
