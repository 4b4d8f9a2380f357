"""Which program calls are traced, and how their spans fold into metrics.

Span names are ``<layer>.<what>``.  The layers follow the package's own
modules: ``noc`` (the simulator kernels), ``ml`` (dataset collection,
ridge fits, training), ``traffic`` (trace generation), ``exec`` (run
cache and process pool), ``experiments``/``artifact`` (campaigns, the
experiment memo, artifact emission) and ``serve`` (HTTP routes, SQLite
store, job queue, predict batcher).
"""

from __future__ import annotations

import math
from collections import defaultdict

from stats import nearest_rank

#: Top-mode clock of the DVFS ladder; router-cycles are nominal routers x
#: elapsed ns x this clock (the normalisation the kernel speed bench uses).
TOP_GHZ = 2.25

#: A policy restricted to this DVFS ladder runs like an unrestricted one.
FULL_LADDER = (3, 4, 5, 6, 7)

POLICY_NAMES = ("baseline", "pg", "lead", "dozznoc", "turbo")
FABRIC_NAMES = ("mesh", "cmesh", "torus", "ring")
SERVE_ROUTES = ("runs_post", "run_status", "run_result", "predict")


# ---------------------------------------------------------------------- #
# Installing the wrappers
# ---------------------------------------------------------------------- #


def _noc_attrs(args, kwargs, result) -> dict:
    """Kernel class, policy, fabric, size, and a key naming the inputs.

    The key is the run cache's ``run_key`` plus ``collect_features`` and
    the policy's allowed DVFS ladder, which ``run_key`` leaves out (the
    ladder ablation runs one policy name on four ladders).
    """
    from repro.exec.cache import run_key

    sim = args[0]
    cfg = sim.config
    fs = sim.policy.feature_set
    faults = getattr(sim, "_faults", None)
    online = getattr(sim, "online", None)
    key = run_key(
        sim.policy.name, sim.trace, cfg, sim.policy.weights, fs.names,
        fs.name, faults=getattr(faults, "config", faults),
        online=getattr(online, "config", online),
    )
    ladder = getattr(sim.policy, "allowed_modes", None)
    if ladder == FULL_LADDER:
        ladder = None
    return {
        "kernel": type(sim).__name__,
        "policy": sim.policy.name,
        "fabric": cfg.topology,
        "routers": cfg.num_routers,
        "elapsed_ns": 0.0 if result is None else float(result.elapsed_ns),
        "key": f"{key}:{int(bool(sim.collect_features))}:{ladder}",
    }


def _pool_attrs(args, kwargs, result) -> dict:
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    return {"tasks": len(args[0]), "jobs": jobs}


def install_shared(tracer) -> None:
    """Kernel, traffic, ml and exec layers (used by every workload)."""
    import repro.experiments.repro_all  # noqa: F401 - bind every importer
    import repro.serve  # noqa: F401
    from repro.exec.cache import RunCache
    from repro.noc.array_sim import ArraySimulator
    from repro.noc.simulator import Simulator

    tracer.patch_method(Simulator, "run", "noc.run", attrs=_noc_attrs)
    tracer.patch_method(ArraySimulator, "run", "noc.run", attrs=_noc_attrs)
    tracer.patch_function("repro.traffic.benchmarks",
                          "generate_benchmark_trace", "traffic.generate")
    tracer.patch_function("repro.traffic.patterns", "generate_pattern_trace",
                          "traffic.generate")
    tracer.patch_function("repro.traffic.compression", "compress_trace",
                          "traffic.compress")
    tracer.patch_function("repro.ml.training", "collect_dataset", "ml.collect")
    tracer.patch_function("repro.ml.ridge", "fit_ridge", "ml.fit")
    tracer.patch_function("repro.ml.training", "train_policy_model", "ml.train")
    tracer.patch_function("repro.ml.training", "cached_train",
                          "ml.cached_train")
    tracer.patch_method(
        RunCache, "get", "exec.cache.get",
        attrs=lambda a, k, r: {"hit": r is not None},
    )
    tracer.patch_method(RunCache, "put", "exec.cache.put")
    tracer.patch_method(RunCache, "put_new", "exec.cache.put")
    for fn in ("run_sim_tasks", "run_train_tasks"):
        tracer.patch_function("repro.exec.pool", fn, "exec.pool",
                              attrs=_pool_attrs)


def install_repro(tracer) -> None:
    """Shared layers plus campaigns, the experiment memo and emission."""
    from repro.experiments.artifact import ExperimentMemo

    install_shared(tracer)
    tracer.patch_function("repro.experiments.campaign", "run_campaign",
                          "experiments.campaign")
    tracer.patch_method(ExperimentMemo, "get", "artifact.memo")
    tracer.patch_method(ExperimentMemo, "put", "artifact.memo")
    only = ("repro.experiments.repro_all",)
    tracer.patch_function("repro.experiments.artifact", "write_json",
                          "artifact.emit", only_in=only)
    tracer.patch_function("repro.experiments.artifact", "sha256_file",
                          "artifact.emit", only_in=only)
    tracer.patch_function("repro.experiments.report", "csv_text",
                          "artifact.emit", only_in=only)
    tracer.patch_function("repro.experiments.report", "render_html_report",
                          "artifact.emit", only_in=only)


def route_of(method: str, path: str) -> str:
    """The route name of one request (``other`` when unlisted)."""
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    method = method.upper()
    if parts == ["runs"] and method == "POST":
        return "runs_post"
    if len(parts) == 3 and parts[0] == "runs" and method == "GET":
        return {"status": "run_status", "result": "run_result"}.get(
            parts[2], "other")
    if parts == ["predict"] and method == "POST":
        return "predict"
    return "other"


_STORE_METHODS = (
    "create_job", "mark_running", "set_progress", "mark_done", "mark_failed",
    "mark_interrupted", "interrupt_running", "requeue", "pending_jobs",
    "set_health", "put_summary", "get_job", "list_jobs", "get_summary",
    "get_summary_text", "list_summaries", "counts", "checkpoint",
)


def install_serve(tracer) -> None:
    """Shared layers plus the HTTP transport, routes, store, queue, batcher.

    The client names every request in an ``X-Request-Id`` header; the
    transport wrapper makes it the span's request id, and the job id a
    ``POST /runs`` returns is mapped back to it so the queue worker's
    spans for that job carry the same id.
    """
    import repro.serve.app as app_mod
    from repro.serve.batching import PredictionBatcher
    from repro.serve.queue import JobQueue
    from repro.serve.store import ServeStore

    install_shared(tracer)

    def handle_attrs(args, kwargs, result):
        method, path = args[1], args[2]
        route = route_of(method, path)
        if route == "runs_post" and result is not None:
            status, payload = result
            if status == 202 and tracer.rid is not None:
                tracer.rid_of[payload["id"]] = tracer.rid
        return {"route": route}

    tracer.patch_method(app_mod.ServeApp, "handle", "serve.route",
                        attrs=handle_attrs)

    original_make_handler = app_mod._make_handler

    def make_handler(app):
        handler = original_make_handler(app)
        dispatch = handler._dispatch
        handler._dispatch = tracer.wrap(
            dispatch, "serve.http",
            rid=lambda a, k: a[0].headers.get("X-Request-Id"),
        )
        return handler

    tracer.replace(app_mod, "_make_handler", make_handler)

    def job_attrs(args, kwargs, result):
        return {"job": args[2]} if len(args) > 2 else {}

    for name in _STORE_METHODS:
        tracer.patch_method(
            ServeStore, name, f"serve.store.{name}", attrs=job_attrs,
        )
    tracer.patch_method(
        JobQueue, "_execute_run", "serve.queue.execute",
        rid=lambda a, k: tracer.rid_of.get(a[1], a[1]),
    )
    tracer.patch_method(PredictionBatcher, "predict", "serve.batcher.predict")
    tracer.patch_method(PredictionBatcher, "_flush", "serve.batcher.flush")


# ---------------------------------------------------------------------- #
# Folding spans into metrics
# ---------------------------------------------------------------------- #


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanIndex:
    """Spans of several processes with parent links and self times."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_id = {(s["pid"], s["id"]): s for s in spans}
        self.children: dict[tuple, list[dict]] = defaultdict(list)
        for s in spans:
            if s["parent"]:
                self.children[(s["pid"], s["parent"])].append(s)

    def parent(self, span: dict) -> dict | None:
        if not span["parent"]:
            return None
        return self.by_id.get((span["pid"], span["parent"]))

    def ancestors(self, span: dict):
        p = self.parent(span)
        while p is not None:
            yield p
            p = self.parent(p)

    def has_ancestor(self, span: dict, pred) -> bool:
        return any(pred(a) for a in self.ancestors(span))

    def has_descendant(self, span: dict, pred) -> bool:
        stack = list(self.children[(span["pid"], span["id"])])
        while stack:
            s = stack.pop()
            if pred(s):
                return True
            stack.extend(self.children[(s["pid"], s["id"])])
        return False

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        t0, t1 = span["t0"], span["t1"]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(self.children[(span["pid"], span["id"])],
                        key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], t0), min(c["t1"], t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (t1 - t0) - covered

    def named(self, prefix: str) -> list[dict]:
        """Spans whose name starts with ``prefix`` and that have no
        ancestor that also matches (so nothing is counted twice)."""
        return [s for s in self.spans if s["name"].startswith(prefix)
                and not self.has_ancestor(
                    s, lambda a: a["name"].startswith(prefix))]


def _dur(spans) -> float:
    return sum(s["t1"] - s["t0"] for s in spans)


def _rate(cycles: float, seconds: float) -> float:
    return cycles / seconds if seconds > 0 else 0.0


def cycles(span: dict) -> float:
    a = span["attrs"] or {}
    return a.get("routers", 0) * a.get("elapsed_ns", 0.0) * TOP_GHZ


def noc_runs(index: SpanIndex) -> list[dict]:
    return index.named("noc.run")


def layer_metrics(index: SpanIndex, main_pid: int, jobs: int) -> dict:
    """Every per-layer metric that spans give (zeros where none ran)."""
    m: dict[str, float] = {}

    runs = noc_runs(index)
    m["noc.runs"] = len(runs)
    m["noc.distinct_runs"] = len({(s["attrs"] or {}).get("key") for s in runs})
    m["noc.busy_s"] = _dur(runs)
    m["noc.router_cycles"] = math.fsum(cycles(s) for s in runs)
    m["noc.router_cycles_per_s"] = _rate(m["noc.router_cycles"], m["noc.busy_s"])
    for field, names in (("policy", POLICY_NAMES), ("fabric", FABRIC_NAMES)):
        for name in names:
            sub = [s for s in runs if (s["attrs"] or {}).get(field) == name]
            m[f"noc.{name}.router_cycles_per_s"] = _rate(
                math.fsum(cycles(s) for s in sub), _dur(sub))

    collects = index.named("ml.collect")
    m["ml.collect_calls"] = len(collects)
    m["ml.collect_sims"] = sum(
        1 for s in runs
        if index.has_ancestor(s, lambda a: a["name"] == "ml.collect"))
    m["ml.collect_s"] = _dur(collects)
    fits = index.named("ml.fit")
    m["ml.fit_calls"] = len(fits)
    m["ml.fit_s"] = _dur(fits)
    m["ml.train_calls"] = len(index.named("ml.train"))
    m["ml.ridge_cache_hits"] = sum(
        1 for s in index.named("ml.cached_train")
        if not index.has_descendant(s, lambda d: d["name"] == "ml.train"))

    m["traffic.traces"] = len(index.named("traffic.generate"))
    m["traffic.busy_s"] = _dur(index.named("traffic."))

    gets = index.named("exec.cache.get")
    puts = index.named("exec.cache.put")
    m["exec.cache.gets"] = len(gets)
    m["exec.cache.hits"] = sum(1 for s in gets if (s["attrs"] or {}).get("hit"))
    m["exec.cache.hit_ratio"] = (
        m["exec.cache.hits"] / m["exec.cache.gets"] if gets else 0.0)
    m["exec.cache.puts"] = len(puts)
    m["exec.cache.io_s"] = _dur(index.named("exec.cache."))
    pools = index.named("exec.pool")
    m["exec.pool.calls"] = len(pools)
    m["exec.pool.tasks"] = sum((s["attrs"] or {}).get("tasks", 0) for s in pools)
    m["exec.pool.wait_s"] = _dur(pools)
    m["exec.pool.parallel_efficiency"] = (
        pool_task_seconds(index, main_pid) / (jobs * m["exec.pool.wait_s"])
        if m["exec.pool.wait_s"] > 0 else 0.0)

    campaigns = index.named("experiments.campaign")
    m["experiments.campaigns"] = len(campaigns)
    m["experiments.campaign_self_s"] = sum(index.self_time(s) for s in campaigns)
    m["artifact.memo_io_s"] = _dur(index.named("artifact.memo"))
    m["artifact.emit_s"] = _dur(index.named("artifact.emit"))

    m.update(serve_metrics(index))
    return m


def pool_task_seconds(index: SpanIndex, main_pid: int) -> float:
    """Seconds the exec pool's tasks spent in traced program layers.

    Tasks run inline in the main process (jobs 1, or a single task) are
    the non-cache children of ``exec.pool`` spans; tasks run in forked
    workers are the root spans of the worker processes.
    """
    total = 0.0
    for s in index.spans:
        if s["pid"] != main_pid:
            if not s["parent"]:
                total += s["t1"] - s["t0"]
            continue
        parent = index.parent(s)
        if (parent is not None and parent["name"] == "exec.pool"
                and not s["name"].startswith("exec.")):
            total += s["t1"] - s["t0"]
    return total


def serve_metrics(index: SpanIndex) -> dict:
    m: dict[str, float] = {}
    routes = index.named("serve.route")
    for route in SERVE_ROUTES:
        sub = [s for s in routes if (s["attrs"] or {}).get("route") == route]
        m[f"serve.{route}.count"] = len(sub)
        m[f"serve.{route}.busy_s"] = _dur(sub)
    store = index.named("serve.store.")
    m["serve.store.ops"] = len(store)
    m["serve.store.busy_s"] = _dur(store)

    created, started, finished = {}, {}, {}
    for s in store:
        job = (s["attrs"] or {}).get("job")
        if job is None:
            continue
        if s["name"] == "serve.store.create_job":
            created[job] = s["t1"]
        elif s["name"] == "serve.store.mark_running":
            started[job] = s["t0"]
        elif s["name"] == "serve.store.mark_done":
            finished[job] = s["t1"]
    waits = [1e3 * (started[j] - created[j]) for j in created if j in started]
    runs = [1e3 * (finished[j] - started[j]) for j in started if j in finished]
    m["serve.queue.wait_ms.p50"] = nearest_rank(waits, 0.5) or 0.0
    m["serve.queue.wait_ms.p90"] = nearest_rank(waits, 0.9) or 0.0
    m["serve.queue.run_ms.p50"] = nearest_rank(runs, 0.5) or 0.0
    calls = [s for s in index.spans if s["name"] == "serve.batcher.predict"]
    flushes = [s for s in index.spans if s["name"] == "serve.batcher.flush"]
    m["serve.batcher.calls"] = len(calls)
    m["serve.batcher.busy_s"] = _dur(calls)
    m["serve.batcher.flushes"] = len(flushes)
    m["serve.batcher.flush_s"] = _dur(flushes)
    return m


def layer_table(index: SpanIndex, wall_s: float) -> list[dict]:
    """Per layer: span count, busy and self seconds, share of ``wall_s``.

    Busy time counts each layer's outermost spans only, so a layer's
    nested calls are not counted twice; self time subtracts every child
    span, of any layer.  Spans of forked pool workers and of the server
    process are included, so a layer's busy time can exceed ``wall_s``
    when work ran in parallel.
    """
    rows = []
    for layer in sorted({layer_of(s["name"]) for s in index.spans}):
        spans = [s for s in index.spans if layer_of(s["name"]) == layer]
        outer = [s for s in spans if not index.has_ancestor(
            s, lambda a, layer=layer: layer_of(a["name"]) == layer)]
        busy = _dur(outer)
        rows.append({
            "layer": layer,
            "count": len(spans),
            "busy_s": busy,
            "self_s": sum(index.self_time(s) for s in spans),
            "share_of_wall": busy / wall_s if wall_s > 0 else 0.0,
        })
    return rows
