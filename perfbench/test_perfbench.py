"""Self-tests for the benchmark's helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from stats import MIN_TAIL, nearest_rank, relative_iqr  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402


# -- percentile rule ----------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert nearest_rank(range(99), 0.9) is None
    assert nearest_rank(range(100), 0.9) == 89
    values = list(range(100))
    p90 = nearest_rank(values, 0.9)
    assert sum(v > p90 for v in values) >= MIN_TAIL


def test_p50_rule_and_empty_input():
    assert nearest_rank([], 0.5) is None
    assert nearest_rank(range(19), 0.5) is None
    assert nearest_rank(range(20), 0.5) == 9


def test_relative_iqr():
    assert relative_iqr([10.0] * 10) == 0.0
    assert relative_iqr([9.0, 10.0, 10.0, 11.0]) > 0.0


# -- self-time folding --------------------------------------------------


def _span(sid, parent, name, t0, t1, pid=1, attrs=None):
    return {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1,
            "pid": pid, "tid": 0, "rid": None, "attrs": attrs}


def _noc(sid, parent, t0, t1, key, pid=1):
    return _span(sid, parent, "noc.run", t0, t1, pid, attrs={
        "kernel": "ArraySimulator", "policy": "dozznoc", "fabric": "mesh",
        "routers": 16, "elapsed_ns": 100.0, "key": key})


def _train_tree():
    # cached_train -> train -> collect -> two noc runs; then a fit.
    return [
        _span(1, 0, "ml.cached_train", 0.0, 10.0),
        _span(2, 1, "ml.train", 0.5, 9.5),
        _span(3, 2, "ml.collect", 1.0, 7.0),
        _noc(4, 3, 1.5, 3.5, "a"),
        _noc(5, 3, 4.0, 6.0, "a"),
        _span(6, 2, "ml.fit", 7.5, 8.0),
        # A cache hit: no training below it.
        _span(7, 0, "ml.cached_train", 11.0, 11.25),
    ]


def test_self_time_subtracts_children():
    index = layers.SpanIndex(_train_tree())
    by_id = {s["id"]: s for s in index.spans}
    assert index.self_time(by_id[3]) == 2.0      # collect: 6 s - 2 x 2 s
    assert index.self_time(by_id[2]) == 9.0 - 6.0 - 0.5
    assert index.self_time(by_id[1]) == 1.0
    assert index.self_time(by_id[4]) == 2.0


def test_self_time_merges_overlapping_children():
    spans = [_span(1, 0, "a", 0.0, 10.0), _span(2, 1, "b", 1.0, 5.0),
             _span(3, 1, "c", 4.0, 6.0), _span(4, 1, "d", 9.0, 12.0)]
    index = layers.SpanIndex(spans)
    assert index.self_time(spans[0]) == 10.0 - 5.0 - 1.0


def test_layer_metrics_fold_nested_training():
    index = layers.SpanIndex(_train_tree())
    m = layers.layer_metrics(index, main_pid=1, jobs=1)
    assert m["noc.runs"] == 2
    assert m["noc.distinct_runs"] == 1
    assert m["ml.collect_calls"] == 1
    assert m["ml.collect_sims"] == 2
    assert m["ml.train_calls"] == 1
    assert m["ml.fit_calls"] == 1
    assert m["ml.ridge_cache_hits"] == 1
    assert m["noc.router_cycles"] == 2 * 16 * 100.0 * layers.TOP_GHZ
    table = {row["layer"]: row for row in layers.layer_table(index, 20.0)}
    assert table["ml"]["busy_s"] == 10.25
    assert table["noc"]["self_s"] == 4.0


def test_spans_of_other_processes_count_as_pool_tasks():
    spans = [_span(1, 0, "exec.pool", 0.0, 4.0, attrs={"tasks": 2}),
             _noc(1, 0, 0.0, 3.0, "a", pid=2), _noc(1, 0, 0.5, 3.5, "b", pid=3)]
    m = layers.layer_metrics(layers.SpanIndex(spans), main_pid=1, jobs=2)
    assert m["exec.pool.parallel_efficiency"] == 6.0 / (2 * 4.0)
    assert m["noc.busy_s"] == 6.0


# -- seeded request generation -----------------------------------------


def test_same_seed_same_requests():
    assert workloads.client_plan(3, 0, 40) == workloads.client_plan(3, 0, 40)


def test_other_seed_or_client_other_requests():
    base = workloads.client_plan(3, 0, 40)
    assert workloads.client_plan(4, 0, 40) != base
    assert workloads.client_plan(3, 1, 40) != base


def test_repeats_point_at_fresh_requests_and_fresh_ones_are_unique():
    plans = [workloads.client_plan(0, c, 200) for c in range(2)]
    fresh = []
    for plan in plans:
        for item in plan:
            if item["repeat_of"] is None:
                fresh.append(tuple(sorted(item["body"].items())))
            else:
                origin = plan[item["repeat_of"]]
                assert origin["repeat_of"] is None
                assert origin["body"] == item["body"]
        assert any(item["repeat_of"] is not None for item in plan)
    assert len(fresh) == len(set(fresh))


# -- wrappers -----------------------------------------------------------


def test_wrappers_restored_after_a_traced_run(tmp_path):
    import repro.exec.pool as pool
    import repro.ml.training as training
    from repro.common.config import SimConfig
    from repro.core.controller import make_policy
    from repro.noc.array_sim import ArraySimulator
    import repro.traffic.benchmarks as benchmarks
    from repro.noc.simulator import Simulator, run_simulation

    before = (Simulator.run, ArraySimulator.run, pool.run_sim_tasks,
              training.collect_dataset, training.fit_ridge)
    tracer = Tracer(spill_dir=tmp_path)
    layers.install_repro(tracer)
    assert leftover_wrappers()
    assert pool.run_sim_tasks is not before[2]
    try:
        config = SimConfig(topology="mesh", radix=4, epoch_cycles=150)
        trace = benchmarks.generate_benchmark_trace(
            "canneal", config.num_cores, 200.0, 0)
        run_simulation(config, trace, make_policy("baseline"))
    finally:
        tracer.restore()
    assert leftover_wrappers() == []
    after = (Simulator.run, ArraySimulator.run, pool.run_sim_tasks,
             training.collect_dataset, training.fit_ridge)
    assert after == before
    names = [s["name"] for s in tracer.records()]
    assert names.count("noc.run") == 1
    assert "traffic.generate" in names
    [run] = [s for s in tracer.records() if s["name"] == "noc.run"]
    assert run["attrs"]["kernel"] == "ArraySimulator"


def test_serve_wrappers_restored():
    tracer = Tracer()
    layers.install_serve(tracer)
    assert any(".ServeStore." in name for name in leftover_wrappers())
    tracer.restore()
    assert leftover_wrappers() == []


# -- selection ----------------------------------------------------------


def test_experiment_metrics_follow_the_selection_run():
    from repro.experiments.repro_all import REPRO_EXPERIMENTS

    selection = workloads.repro_selection()
    assert set(workloads.REPRO_LEFT_OUT) <= set(REPRO_EXPERIMENTS)
    assert set(selection) == set(REPRO_EXPERIMENTS) - set(
        workloads.REPRO_LEFT_OUT)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    per_experiment = {
        n for n in listed if n.startswith("experiments.") and n.endswith("_s")
        and n != "experiments.campaign_self_s"}
    assert per_experiment == {f"experiments.{e}_s" for e in selection}


def test_route_names():
    assert layers.route_of("POST", "/runs") == "runs_post"
    assert layers.route_of("GET", "/runs/abc/status") == "run_status"
    assert layers.route_of("GET", "/runs/abc/result") == "run_result"
    assert layers.route_of("POST", "/predict") == "predict"
    assert layers.route_of("GET", "/healthz") == "other"
