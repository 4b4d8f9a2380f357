"""Job queue bridging the HTTP layer to the exec pool.

The serve layer never simulates anything itself.  Accepted requests are
validated, recorded in the :class:`~repro.serve.store.ServeStore`, and
queued; worker threads drain the queue and delegate to the *existing*
execution machinery:

* single runs go through :func:`repro.exec.pool.run_sim_tasks` with one
  :class:`~repro.exec.pool.SimTask` — so they share the run cache, the
  per-task timeout, and the salvage/retry behaviour every campaign gets;
* campaigns go through :func:`repro.experiments.campaign.run_campaign`
  with the same shared :class:`~repro.exec.cache.RunCache`, so a
  campaign submitted over HTTP resumes from (and feeds) the same cache a
  CLI campaign with the same ``--cache-dir`` would — that is what makes
  the HTTP-vs-CLI byte-identity test in
  ``tests/test_serve_determinism.py`` possible.

Progress flows back through the ``progress(done, total)`` tap those
functions expose, landing in the store where the polling
``/runs/{id}/status`` endpoints read it.  Execution is observation-only
from the store's perspective: a crash between progress updates loses
nothing but freshness.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import uuid

from repro.common.config import SimConfig
from repro.common.errors import ReproError
from repro.core.controller import POLICIES
from repro.exec.cache import run_cache_for
from repro.exec.pool import PoolHealth, SimTask, run_sim_tasks
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.runner import MODEL_NAMES
from repro.serve.store import ServeStore
from repro.traffic.benchmarks import BENCHMARKS, generate_benchmark_trace
from repro.traffic.compression import compress_trace


class BadRequest(ReproError):
    """The request body is invalid; maps to HTTP 400."""


def _get(request: dict, key: str, default, kind, *, positive: bool = False):
    """Pull one typed field out of a JSON request body."""
    value = request.get(key, default)
    if kind is float and isinstance(value, int):
        value = float(value)
    if kind is bool and not isinstance(value, bool):
        raise BadRequest(f"field {key!r} must be a boolean")
    if not isinstance(value, kind):
        raise BadRequest(f"field {key!r} must be {kind.__name__}")
    if positive and value <= 0:
        raise BadRequest(f"field {key!r} must be > 0")
    return value


#: Request fields accepted per job kind; anything else is refused so a
#: typoed field fails loudly instead of silently falling back to its
#: default.
RUN_FIELDS = frozenset(
    {"policy", "benchmark", "duration_ns", "seed", "compressed", "cmesh",
     "topology", "audit", "faults", "online"}
)
CAMPAIGN_FIELDS = frozenset(
    {"duration_ns", "seed", "compressed", "cmesh", "topology", "audit",
     "jobs", "models", "faults", "online", "coordinate"}
)


def _reject_unknown(request: dict, allowed: frozenset) -> None:
    unknown = sorted(set(request) - allowed)
    if unknown:
        raise BadRequest(f"unknown field(s): {', '.join(unknown)}")


def _sim_from(request: dict) -> SimConfig:
    """Map ``topology``/``cmesh`` request fields onto a :class:`SimConfig`.

    Mirrors ``dozznoc run``'s construction exactly so a served job and
    its CLI twin share a cache entry.  Contradictory fields are refused
    rather than silently resolved.
    """
    from repro.noc.fabrics import FABRIC_NAMES

    cmesh = _get(request, "cmesh", False, bool)
    topology = _get(request, "topology", "cmesh" if cmesh else "mesh", str)
    if topology not in FABRIC_NAMES:
        raise BadRequest(
            f"unknown topology {topology!r}; "
            f"choose from {sorted(FABRIC_NAMES)}"
        )
    if cmesh and topology != "cmesh":
        raise BadRequest(
            "fields 'cmesh' and 'topology' conflict; "
            "drop 'cmesh' when naming a topology"
        )
    if topology == "cmesh":
        return SimConfig.paper_cmesh()
    if topology == "mesh":
        return SimConfig.paper_mesh()
    # Torus / ring at 64 cores (radix 8): bubble fabrics need two
    # max-length packet cells per input buffer (see docs/fabrics.md).
    return SimConfig(topology=topology, radix=8, concentration=1,
                     buffer_depth=10)


def _online_from(request: dict):
    if not _get(request, "online", False, bool):
        return None
    from repro.models import OnlineConfig

    return OnlineConfig()


def _faults_from(request: dict, seed: int):
    if not _get(request, "faults", False, bool):
        return None
    from repro.faults import FaultConfig

    return FaultConfig.moderate(seed=seed)


def build_run_task(request: dict) -> SimTask:
    """Validate a single-run request and build its :class:`SimTask`.

    Mirrors ``dozznoc run``'s construction exactly — same benchmark
    generator, same compression, same moderate fault profile keyed on
    the seed — so a served run and its CLI twin share a cache entry.
    """
    _reject_unknown(request, RUN_FIELDS)
    policy = _get(request, "policy", "dozznoc", str)
    if policy not in POLICIES:
        raise BadRequest(
            f"unknown policy {policy!r}; choose from {sorted(POLICIES)}"
        )
    benchmark = _get(request, "benchmark", "blackscholes", str)
    if benchmark not in BENCHMARKS:
        raise BadRequest(
            f"unknown benchmark {benchmark!r}; "
            f"choose from {sorted(BENCHMARKS)}"
        )
    duration = _get(request, "duration_ns", 2_000.0, float, positive=True)
    seed = _get(request, "seed", 0, int)
    sim = _sim_from(request)
    trace = generate_benchmark_trace(
        benchmark, num_cores=sim.num_cores, duration_ns=duration, seed=seed
    )
    if _get(request, "compressed", False, bool):
        trace = compress_trace(trace)
    return SimTask(
        policy=policy,
        trace=trace,
        sim=sim,
        audit=_get(request, "audit", False, bool),
        faults=_faults_from(request, seed),
        online=_online_from(request),
    )


def build_campaign_config(
    request: dict, cache_dir: str | None
) -> CampaignConfig:
    """Validate a campaign request and build its :class:`CampaignConfig`.

    ``cache_dir`` is the *service's* cache directory — requests cannot
    point the campaign at arbitrary filesystem paths.
    """
    _reject_unknown(request, CAMPAIGN_FIELDS)
    if _get(request, "coordinate", False, bool) and cache_dir is None:
        raise BadRequest(
            "field 'coordinate' requires the service to run with "
            "--cache-dir (the shard journal lives there)"
        )
    models = request.get("models", list(MODEL_NAMES))
    if (not isinstance(models, list)
            or not all(isinstance(m, str) for m in models)):
        raise BadRequest("field 'models' must be a list of model names")
    unknown = sorted(set(models) - set(MODEL_NAMES))
    if unknown:
        raise BadRequest(
            f"unknown model(s): {', '.join(unknown)}; "
            f"choose from {list(MODEL_NAMES)}"
        )
    seed = _get(request, "seed", 0, int)
    return CampaignConfig(
        sim=_sim_from(request),
        duration_ns=_get(request, "duration_ns", 2_000.0, float,
                         positive=True),
        compressed=_get(request, "compressed", False, bool),
        seed=seed,
        models=tuple(models),
        cache_dir=cache_dir,
        jobs=_get(request, "jobs", 1, int),
        audit=_get(request, "audit", False, bool),
        faults=_faults_from(request, seed),
        online=_online_from(request),
    )


class JobQueue:
    """FIFO job queue with worker threads draining into the exec layer.

    Parameters
    ----------
    store:
        Results store; every state transition lands here.
    cache_dir:
        Optional shared cache directory.  Single runs use its run cache
        (:func:`repro.exec.cache.run_cache_for`, like every other layer),
        so runs, served campaigns and CLI campaigns all share one
        content-addressed cache.
    workers:
        Worker-thread count.  Each worker executes one job at a time;
        campaign-internal parallelism is the job's own ``jobs`` field.
    task_timeout:
        Per-simulation wall-clock budget in seconds forwarded to the
        exec pool (None = unbounded).
    """

    def __init__(
        self,
        store: ServeStore,
        cache_dir: str | None = None,
        workers: int = 1,
        task_timeout: float | None = None,
        resume: bool = True,
    ) -> None:
        self.store = store
        self.cache_dir = cache_dir
        self.task_timeout = task_timeout
        self.run_cache = run_cache_for(cache_dir)
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._stopping = False
        self._active_lock = threading.Lock()
        self._active: dict[str, tuple[str, str]] = {}  # thread -> (kind, id)
        self.jobs_executed = 0
        self.jobs_failed = 0
        self.jobs_resumed = 0
        if resume:
            self.jobs_resumed = self.resume_pending()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(max(1, int(workers)))
        ]
        for t in self._threads:
            t.start()

    def resume_pending(self) -> int:
        """Re-enqueue every job a previous process left unfinished.

        Jobs still ``running`` in the store were in flight when the
        previous server died unmarked; they become ``interrupted`` first.
        Then everything ``queued`` or ``interrupted`` is requeued in
        submission order.  Re-execution is idempotent: completed
        simulations come straight back out of the shared run cache.
        """
        self.store.interrupt_running()
        pending = self.store.pending_jobs()
        for job in pending:
            self.store.requeue(job["kind"], job["id"])
            self._queue.put((job["kind"], job["id"], job["request"]))
        return len(pending)

    # ------------------------------------------------------------------ #
    # Submission (HTTP handler threads)
    # ------------------------------------------------------------------ #

    def submit(self, kind: str, request: dict) -> str:
        """Validate, persist and enqueue one job; returns its id.

        Validation happens *before* the job is accepted, so a malformed
        request is a synchronous 400, never a job that fails later.
        """
        if not isinstance(request, dict):
            raise BadRequest("request body must be a JSON object")
        if kind == "run":
            build_run_task(request)  # validate now, rebuild in the worker
        elif kind == "campaign":
            build_campaign_config(request, self.cache_dir)
        else:
            raise BadRequest(f"unknown job kind {kind!r}")
        if self._closed:
            raise BadRequest("service is shutting down")
        job_id = uuid.uuid4().hex[:12]
        self.store.create_job(kind, job_id, request)
        self._queue.put((kind, job_id, request))
        return job_id

    def close(self, drain: bool = True) -> None:
        """Stop accepting work; optionally wait for queued jobs."""
        self._closed = True
        if drain:
            self._queue.join()
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=10.0)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop: finish in-flight jobs, *skip* queued ones.

        Sets the stopping flag so workers drain the queue without
        executing — skipped jobs keep their ``queued`` store state and
        are picked back up by :meth:`resume_pending` on the next start.
        Each worker is given up to ``timeout`` seconds to finish the job
        it is currently simulating; a job still in flight after that is
        marked ``interrupted`` (the store outlives us, the thread is a
        daemon and dies with the process).
        """
        import time

        self._closed = True
        self._stopping = True
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._active_lock:
            leftovers = list(self._active.values())
        for kind, job_id in leftovers:
            self.store.mark_interrupted(kind, job_id)

    def wait_idle(self) -> None:
        """Block until every queued job has finished (tests)."""
        self._queue.join()

    # ------------------------------------------------------------------ #
    # Execution (worker threads)
    # ------------------------------------------------------------------ #

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            kind, job_id, request = item
            if self._stopping:
                # Graceful shutdown: drain without executing.  The job
                # keeps its 'queued' store state; the next server start
                # resumes it from there.
                self._queue.task_done()
                continue
            me = threading.current_thread().name
            with self._active_lock:
                self._active[me] = (kind, job_id)
            try:
                self.store.mark_running(kind, job_id)
                if kind == "run":
                    self._execute_run(job_id, request)
                else:
                    self._execute_campaign(job_id, request)
                self.store.mark_done(kind, job_id)
                self.jobs_executed += 1
            except Exception as exc:
                self.store.mark_failed(kind, job_id, f"{type(exc).__name__}: {exc}")
                self.jobs_failed += 1
            finally:
                with self._active_lock:
                    self._active.pop(me, None)
                self._queue.task_done()

    def _progress(self, kind: str, job_id: str):
        def tap(done: int, total: int) -> None:
            self.store.set_progress(kind, job_id, done, total)

        return tap

    def _execute_run(self, job_id: str, request: dict) -> None:
        task = build_run_task(request)
        health = PoolHealth()
        [metrics] = run_sim_tasks(
            [task],
            jobs=1,
            cache=self.run_cache,
            timeout=self.task_timeout,
            health=health,
            progress=self._progress("run", job_id),
        )
        self.store.put_summary(
            job_id, "metrics", dataclasses.asdict(metrics)
        )
        self.store.set_health(
            "run", job_id,
            {**health.as_dict(), "drift_alerts": metrics.drift_alerts},
        )

    def _execute_campaign(self, job_id: str, request: dict) -> None:
        campaign = build_campaign_config(request, self.cache_dir)
        if self.task_timeout is not None:
            campaign = dataclasses.replace(
                campaign, task_timeout=self.task_timeout
            )
        health = PoolHealth()
        shards = None
        if request.get("coordinate", False):
            # Shard-coordinator mode: drive (or salvage) the campaign
            # through the lease journal in the shared cache dir.  With
            # salvage_after_s=0 the coordinator participates immediately,
            # so the job completes even with zero external workers; any
            # `dozznoc campaign --worker` processes pointed at the same
            # cache dir share the load through claim/steal.
            from repro.experiments.sharding import coordinate_campaign

            coordinated = coordinate_campaign(
                campaign,
                salvage_after_s=0.0,
                progress=self._progress("campaign", job_id),
            )
            result = coordinated.result
            report = coordinated.report
            health.tasks += report.tasks_total
            health.cached += report.done_cached
            shards = report.shards
            self.store.put_summary(job_id, "shard", report.as_dict())
        else:
            result = run_campaign(
                campaign,
                cache=run_cache_for(campaign.cache_dir),
                progress=self._progress("campaign", job_id),
                health=health,
            )
        self.store.put_summary(job_id, "campaign-summary",
                               result.summary_rows())
        self.store.put_summary(
            job_id,
            "undrained",
            [list(pair) for pair in result.undrained_runs()],
        )
        drift = sum(
            m.drift_alerts
            for per_model in result.metrics.values()
            for m in per_model.values()
        )
        payload = {**health.as_dict(), "drift_alerts": drift}
        if shards is not None:
            # Coordinate mode: per-worker (wid) claim/steal/done counts
            # replayed from the lease journal, so /campaigns/{id}/status
            # shows how the shard load actually split.
            payload["shards"] = shards
        self.store.set_health("campaign", job_id, payload)
