"""Full evaluation campaigns (Section IV).

A *campaign* is the paper's end-to-end procedure for one configuration:

1. generate the 14-trace suite (optionally compressed),
2. train each ML model's ridge predictor offline on the 6 training traces,
   tuning lambda on the 3 validation traces,
3. run all five models proactively on the 5 test traces,
4. normalize everything to the Baseline, per trace and averaged.

Campaign scale (trace duration) is configurable so tests run in seconds
while the benchmark harness uses paper-scale runs.

Execution is delegated to :mod:`repro.exec`: the independent
(model, trace) simulations and the per-model training runs fan out over a
process pool (``jobs``), and simulation results are memoized in a
content-addressed on-disk cache (``cache_dir``) so re-running a campaign
only simulates what changed.  Parallel and serial execution produce
bit-identical results.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.config import SimConfig
from repro.core.features import REDUCED_FEATURES, FeatureSet
from repro.exec.cache import RunCache, run_cache_for
from repro.exec.journal import CampaignJournal
from repro.exec.pool import (
    PoolHealth,
    SimTask,
    TrainTask,
    feature_set_spec,
    run_sim_tasks,
    run_train_tasks,
)
from repro.experiments.runner import (
    MODEL_NAMES,
    ModelMetrics,
    NormalizedMetrics,
    normalize_to_baseline,
)
from repro.faults import FaultConfig
from repro.ml.training import DEFAULT_LAMBDAS
from repro.models.gates import PromotionGate
from repro.models.online import OnlineConfig
from repro.models.registry import ModelRegistry
from repro.traffic.suite import TraceSuite, build_suite

#: Which models need a trained predictor.
ML_MODELS: tuple[str, ...] = ("lead", "dozznoc", "turbo")


@dataclass
class CampaignConfig:
    """Everything that parameterizes one campaign.

    ``jobs`` is the worker-process count for the exec layer (1 = serial,
    <=0 = one per CPU); ``cache_dir`` enables both the trained-weights
    cache and the content-addressed simulation-result cache.
    """

    sim: SimConfig = field(default_factory=SimConfig.paper_mesh)
    duration_ns: float = 12_000.0
    compressed: bool = False
    seed: int = 0
    feature_set: FeatureSet = REDUCED_FEATURES
    models: tuple[str, ...] = MODEL_NAMES
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    cache_dir: str | Path | None = None
    jobs: int = 1
    #: Attach invariant auditors (repro.validate) to every evaluation run;
    #: audits raise AuditError on violation and never change results.
    audit: bool = False
    #: Deterministic fault injection applied to every evaluation run
    #: (trains on clean runs; see docs/faults.md).  Changes results, so
    #: it is part of every run's cache key.
    faults: FaultConfig | None = None
    #: Per-task wall-clock budget in seconds (None = unbounded).  A task
    #: overrunning it raises PoolTimeoutError instead of hanging the
    #: campaign; completed work is already checkpointed.
    task_timeout: float | None = None
    #: When set, every evaluation run writes its per-epoch series and
    #: mergeable summary into this directory, and the campaign writes a
    #: merged ``campaign-summary.json`` / ``.prom`` plus phase wall-clock
    #: timers and pool-health counters.  Telemetry never changes results
    #: and is not part of any cache key; cache hits therefore emit no
    #: fresh per-task series (they are counted as ``pool_tasks_cached``).
    telemetry_dir: str | Path | None = None
    # ------------------------------------------------------------------ #
    # Model lifecycle (repro.models)
    # ------------------------------------------------------------------ #
    #: Model registry directory.  Required for ``registry_models`` /
    #: ``shadow_model`` references below.
    registry_dir: str | Path | None = None
    #: Registered model references (fingerprints or unique prefixes) to
    #: *serve* instead of training: each resolves to a record whose
    #: policy's offline training phase is skipped and whose fingerprint
    #: joins that policy's run-cache keys.
    registry_models: tuple[str, ...] = ()
    #: Per-epoch online RLS learning applied to every ML-model run
    #: (changes results; part of those runs' cache keys).
    online: OnlineConfig | None = None
    #: Registered candidate reference to run in shadow on every ML-model
    #: run (observe-only; requires ``telemetry_dir`` so the shadow
    #: accumulators survive the worker boundary).
    shadow_model: str | None = None
    #: Promotion gate judging the shadow candidate from the merged
    #: telemetry aggregate (defaults applied when ``shadow_model`` is
    #: set); the decision lands in ``campaign-summary.json``.
    gate: PromotionGate | None = None
    #: Atomically promote the shadow candidate in the registry when the
    #: gate passes.
    promote_on_pass: bool = False


@dataclass
class CampaignResult:
    """Per-trace and averaged results of one campaign."""

    config: CampaignConfig
    metrics: dict[str, dict[str, ModelMetrics]]  # trace -> model -> metrics
    normalized: dict[str, dict[str, NormalizedMetrics]]
    weights: dict[str, np.ndarray]  # ML model -> trained weight vector
    #: Evaluation tasks already completed by a previous (interrupted)
    #: attempt, recovered from the checkpoint journal without
    #: re-simulating (0 for a fresh or journal-less campaign).
    resumed_tasks: int = 0
    #: Promotion-gate decision for the shadow candidate (as written to
    #: ``campaign-summary.json``), or None when no candidate ran.
    promotion: dict | None = None

    def average_normalized(self, model: str) -> NormalizedMetrics:
        """Mean normalized metrics for ``model`` across test traces."""
        rows = [self.normalized[t][model] for t in self.normalized]
        if not rows:
            raise ValueError("campaign produced no results")
        return NormalizedMetrics(
            model=model,
            trace="average",
            static_energy=float(np.mean([r.static_energy for r in rows])),
            dynamic_energy=float(np.mean([r.dynamic_energy for r in rows])),
            throughput_loss=float(np.mean([r.throughput_loss for r in rows])),
            latency_increase=float(np.mean([r.latency_increase for r in rows])),
            gated_fraction=float(np.mean([r.gated_fraction for r in rows])),
        )

    def undrained_runs(self) -> list[tuple[str, str]]:
        """``(trace, model)`` pairs whose run did not empty the network.

        An undrained run hit the kernel safety cap or its horizon with
        packets still stuck — its metrics measure a truncated run and must
        not be read as a clean result.
        """
        return [
            (trace, model)
            for trace, per_model in self.metrics.items()
            for model, m in per_model.items()
            if not m.drained
        ]

    def summary_rows(self) -> list[dict[str, float | str]]:
        """One averaged row per model (Fig 8 / Section IV.B.2 shape).

        ``undrained_runs`` counts the model's test-trace runs that failed
        to drain; renderers must flag any non-zero value loudly.
        """
        rows: list[dict[str, float | str]] = []
        for model in self.config.models:
            if model == "baseline":
                continue
            avg = self.average_normalized(model)
            undrained = sum(
                1 for per_model in self.metrics.values()
                if not per_model[model].drained
            )
            rows.append(
                {
                    "model": model,
                    "static_savings_pct": 100 * avg.static_savings,
                    "dynamic_savings_pct": 100 * avg.dynamic_savings,
                    "throughput_loss_pct": 100 * avg.throughput_loss,
                    "latency_increase_pct": 100 * avg.latency_increase,
                    "gated_fraction_pct": 100 * avg.gated_fraction,
                    "undrained_runs": undrained,
                }
            )
        return rows


def train_ml_models(
    suite: TraceSuite,
    campaign: CampaignConfig,
    jobs: int | None = None,
    skip: frozenset[str] | set[str] = frozenset(),
) -> dict[str, np.ndarray]:
    """Offline phase: one trained weight vector per ML model.

    Independent models train concurrently when ``jobs`` allows; each
    worker honours the same weights cache as the serial path.  Models in
    ``skip`` (served from the model registry) are not trained.
    """
    jobs = campaign.jobs if jobs is None else jobs
    spec = feature_set_spec(campaign.feature_set)
    models = [
        m for m in ML_MODELS if m in campaign.models and m not in skip
    ]
    tasks = [
        TrainTask(
            policy=model,
            train_traces=suite.train,
            validation_traces=suite.validation,
            sim=campaign.sim,
            feature_set=spec,
            lambdas=campaign.lambdas,
            cache_dir=(
                None if campaign.cache_dir is None else str(campaign.cache_dir)
            ),
        )
        for model in models
    ]
    return dict(zip(models, run_train_tasks(tasks, jobs=jobs)))


def campaign_journal(campaign: CampaignConfig) -> CampaignJournal | None:
    """The checkpoint journal a campaign's config implies.

    Lives next to the run cache; re-opening the same ``cache_dir`` after
    an interrupted campaign resumes from it.
    """
    if campaign.cache_dir is None:
        return None
    return CampaignJournal(Path(campaign.cache_dir) / "journal.jsonl")


def write_campaign_telemetry(
    directory: Path,
    recorder,
    health: PoolHealth,
    campaign: CampaignConfig,
    resumed_tasks: int = 0,
    candidate_fingerprint: str | None = None,
) -> Path:
    """Merge per-task telemetry into ``campaign-summary.json`` + ``.prom``.

    The campaign aggregate is the *exact* associative merge of every
    per-task summary in the directory (order-independent, so it does not
    depend on ``jobs``), folded together with the campaign recorder's own
    phase wall-clock timers and the exec layer's pool-health counters.
    """
    from repro.telemetry import merge_metric_sets, prometheus_text
    from repro.telemetry.diff import CAMPAIGN_SUMMARY
    from repro.telemetry.io import load_summary, summary_payload

    directory.mkdir(parents=True, exist_ok=True)
    for name, value in (
        ("pool_tasks_total", health.tasks),
        ("pool_tasks_cached", health.cached),
        ("pool_tasks_salvaged", health.salvaged),
        ("pool_tasks_retried", health.retried),
        ("pool_tasks_inline", health.inline),
        ("pool_tasks_timeout", health.timeouts),
        ("campaign_tasks_resumed", resumed_tasks),
    ):
        recorder.metrics.counter(
            name, help=f"exec-layer health: {name.replace('_', ' ')}"
        ).inc(value)
    task_paths = sorted(directory.glob("summary-*.json"))
    task_sets = [load_summary(p)[1] for p in task_paths]
    merged = merge_metric_sets([recorder.metrics, *task_sets])
    meta = {
        "kind": "campaign",
        "models": list(campaign.models),
        "jobs": campaign.jobs,
        "duration_ns": campaign.duration_ns,
        "seed": campaign.seed,
        "resumed_tasks": resumed_tasks,
        "pool": health.as_dict(),
        "merged_from": [p.name for p in task_paths],
    }
    if campaign.shadow_model is not None:
        # Judge the shadow candidate from the merged aggregate: the
        # shadow accumulators are merge-associative integers, so the
        # decision is identical for any --jobs / merge order.  Cache
        # hits contribute no shadow samples, which the gate reports as
        # insufficient evidence rather than a promotion.
        gate = campaign.gate or PromotionGate()
        decision = gate.evaluate_metrics(merged)
        meta["promotion"] = {
            "candidate": candidate_fingerprint or campaign.shadow_model,
            **decision.as_dict(),
        }
    json_path = directory / CAMPAIGN_SUMMARY
    json_path.write_text(
        json.dumps(summary_payload(merged, meta), indent=2, sort_keys=True)
        + "\n"
    )
    prom = directory / (CAMPAIGN_SUMMARY.rsplit(".", 1)[0] + ".prom")
    prom.write_text(prometheus_text(merged))
    return json_path


@dataclass
class CampaignPlan:
    """Everything a campaign needs *before* any evaluation runs.

    Built by :func:`prepare_campaign` — the trace suite, trained (or
    registry-served) weights, and the ordered evaluation task list.  The
    construction is deterministic in the campaign config, which is what
    lets independent sharded worker processes (see
    :mod:`repro.experiments.sharding`) rebuild byte-identical task lists
    and cache keys from nothing but the shared configuration.
    """

    campaign: CampaignConfig
    suite: TraceSuite
    weights: dict[str, np.ndarray]
    tasks: list[SimTask]
    served: dict[str, str]  # policy -> registry fingerprint
    registry: ModelRegistry | None = None
    candidate: "object | None" = None  # shadow ModelRecord

    def task_keys(self) -> list[str]:
        """Content addresses of every evaluation task, in task order."""
        return [t.cache_key() for t in self.tasks]


def prepare_campaign(
    campaign: CampaignConfig,
    jobs: int | None = None,
    recorder=None,
) -> CampaignPlan:
    """Resolve models, build the suite, train, and lay out the tasks.

    ``recorder`` (a :class:`~repro.telemetry.TelemetryRecorder`) wraps
    the build/train work in its phase timers when given.
    """
    jobs = campaign.jobs if jobs is None else jobs

    def _phase(name: str):
        return nullcontext() if recorder is None else recorder.phase(name)

    # Model lifecycle: resolve registry-served models and the shadow
    # candidate up front so an invalid reference fails fast, before any
    # training or simulation is spent.
    registry = None
    served: dict[str, str] = {}  # policy -> fingerprint
    served_weights: dict[str, np.ndarray] = {}
    candidate = None
    if campaign.registry_models or campaign.shadow_model is not None:
        if campaign.registry_dir is None:
            raise ValueError(
                "registry_models/shadow_model require registry_dir"
            )
        registry = ModelRegistry(campaign.registry_dir)
        for ref in campaign.registry_models:
            record = registry.get(ref)
            registry.check_compatible(
                record, campaign.feature_set, campaign.sim.epoch_cycles
            )
            if record.policy not in campaign.models:
                raise ValueError(
                    f"registered model {record.fingerprint} is for policy "
                    f"{record.policy!r}, not in this campaign's models"
                )
            served[record.policy] = record.fingerprint
            served_weights[record.policy] = record.weights_array()
        if campaign.shadow_model is not None:
            if campaign.telemetry_dir is None:
                raise ValueError(
                    "shadow_model requires telemetry_dir (shadow scores "
                    "travel through the telemetry summaries)"
                )
            candidate = registry.get(campaign.shadow_model)
            registry.check_compatible(
                candidate, campaign.feature_set, campaign.sim.epoch_cycles
            )

    with _phase("build_suite"):
        suite = build_suite(
            num_cores=campaign.sim.num_cores,
            duration_ns=campaign.duration_ns,
            seed=campaign.seed,
            compressed=campaign.compressed,
        )
    with _phase("train"):
        weights = train_ml_models(
            suite, campaign, jobs=jobs, skip=set(served)
        )
    weights.update(served_weights)

    spec = feature_set_spec(campaign.feature_set)
    tasks = [
        SimTask(
            policy=model,
            trace=trace,
            sim=campaign.sim,
            weights=weights.get(model),
            feature_set=spec,
            audit=campaign.audit,
            faults=campaign.faults,
            telemetry_dir=(
                None if campaign.telemetry_dir is None
                else str(campaign.telemetry_dir)
            ),
            model_fingerprint=served.get(model),
            online=campaign.online if model in ML_MODELS else None,
            shadow_weights=(
                candidate.weights_array()
                if candidate is not None and model in ML_MODELS
                else None
            ),
        )
        for trace in suite.test
        for model in campaign.models
    ]
    return CampaignPlan(
        campaign=campaign,
        suite=suite,
        weights=weights,
        tasks=tasks,
        served=served,
        registry=registry,
        candidate=candidate,
    )


def assemble_campaign_result(
    plan: CampaignPlan,
    metrics_list: "list[ModelMetrics]",
    resumed: int = 0,
    promotion: dict | None = None,
) -> CampaignResult:
    """Fold per-task metrics (in task order) into a :class:`CampaignResult`.

    The serial path, the serve queue and the shard coordinator all build
    their final result through here, so a campaign's result shape never
    depends on *how* it was executed.
    """
    campaign = plan.campaign
    results = iter(metrics_list)
    metrics: dict[str, dict[str, ModelMetrics]] = {}
    normalized: dict[str, dict[str, NormalizedMetrics]] = {}
    for trace in plan.suite.test:
        per_model = {model: next(results) for model in campaign.models}
        metrics[trace.name] = per_model
        base = per_model["baseline"]
        normalized[trace.name] = {
            m: normalize_to_baseline(base, per_model[m])
            for m in campaign.models
            if m != "baseline"
        }
    return CampaignResult(
        config=campaign,
        metrics=metrics,
        normalized=normalized,
        weights=plan.weights,
        resumed_tasks=resumed,
        promotion=promotion,
    )


def finalize_campaign_telemetry(
    plan: CampaignPlan,
    recorder,
    health: PoolHealth,
    resumed: int = 0,
) -> dict | None:
    """Write the merged telemetry summary; returns the promotion verdict.

    Applies ``promote_on_pass`` to the registry when the gate passed.
    """
    from repro.telemetry.io import load_summary

    campaign = plan.campaign
    json_path = write_campaign_telemetry(
        Path(campaign.telemetry_dir), recorder, health, campaign,
        resumed_tasks=resumed,
        candidate_fingerprint=(
            None if plan.candidate is None else plan.candidate.fingerprint
        ),
    )
    meta, _ = load_summary(json_path)
    promotion = meta.get("promotion")
    if (
        campaign.promote_on_pass
        and plan.registry is not None
        and plan.candidate is not None
        and promotion is not None
        and promotion.get("promoted")
    ):
        plan.registry.promote(plan.candidate.fingerprint)
        promotion = dict(promotion, promoted_in_registry=True)
    return promotion


# ---------------------------------------------------------------------- #
# Deterministic campaign summary artifact
# ---------------------------------------------------------------------- #

#: Schema tag inside the deterministic summary payload.
CAMPAIGN_SUMMARY_SCHEMA = 1


def campaign_summary_payload(result: CampaignResult) -> dict:
    """A campaign's results as a fully deterministic JSON payload.

    Unlike the telemetry ``campaign-summary.json`` (which carries
    wall-clock phase timers and can never be byte-stable), this payload
    contains only content: configuration, per-trace metrics, normalized
    metrics and the averaged summary rows.  Two runs of the same
    campaign — serial, parallel, or sharded across any number of workers
    with any number of crashes — serialize to identical bytes, which is
    what the shard chaos harness asserts.
    """
    campaign = result.config
    sim = {
        f.name: getattr(campaign.sim, f.name)
        for f in dataclasses.fields(campaign.sim)
        if f.name != "extra"
    }
    return {
        "kind": "campaign-summary",
        "schema": CAMPAIGN_SUMMARY_SCHEMA,
        "config": {
            "sim": sim,
            "duration_ns": campaign.duration_ns,
            "seed": campaign.seed,
            "compressed": campaign.compressed,
            "models": list(campaign.models),
        },
        "metrics": {
            trace: {
                model: dataclasses.asdict(m)
                for model, m in per_model.items()
            }
            for trace, per_model in result.metrics.items()
        },
        "normalized": {
            trace: {
                model: dataclasses.asdict(n)
                for model, n in per_model.items()
            }
            for trace, per_model in result.normalized.items()
        },
        "summary_rows": result.summary_rows(),
        "undrained": [list(pair) for pair in result.undrained_runs()],
    }


def campaign_summary_text(result: CampaignResult) -> str:
    """Canonical serialization of :func:`campaign_summary_payload`."""
    return (
        json.dumps(
            campaign_summary_payload(result),
            sort_keys=True,
            separators=(",", ":"),
            default=float,
        )
        + "\n"
    )


def write_campaign_summary(result: CampaignResult, path: str | Path) -> Path:
    """Write the deterministic summary artifact; returns its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(campaign_summary_text(result))
    return path


def run_campaign(
    campaign: CampaignConfig,
    jobs: int | None = None,
    cache: RunCache | None = None,
    progress: "callable | None" = None,
    health: PoolHealth | None = None,
) -> CampaignResult:
    """Execute the full train-then-test evaluation.

    ``jobs`` overrides ``campaign.jobs``; ``cache`` overrides the run
    cache derived from ``campaign.cache_dir`` (pass an explicit
    :class:`RunCache` to inspect hit/miss statistics afterwards).
    ``progress(done, total)`` fires per completed evaluation task (see
    :func:`repro.exec.pool.run_sim_tasks`); observation only.
    ``health`` collects the exec layer's degradation counters (one is
    created internally when telemetry is enabled; pass your own — the
    serve queue does — to read them afterwards).
    """
    jobs = campaign.jobs if jobs is None else jobs
    if cache is None:
        cache = run_cache_for(campaign.cache_dir)
    journal = campaign_journal(campaign)

    recorder = None
    if campaign.telemetry_dir is not None:
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(series=False)
        if health is None:
            health = PoolHealth()

    plan = prepare_campaign(campaign, jobs=jobs, recorder=recorder)
    resumed = 0
    if journal is not None and len(journal):
        resumed = sum(1 for k in plan.task_keys() if journal.done(k))
    try:
        if recorder is None:
            results = run_sim_tasks(
                plan.tasks,
                jobs=jobs,
                cache=cache,
                journal=journal,
                timeout=campaign.task_timeout,
                health=health,
                progress=progress,
            )
        else:
            with recorder.phase("simulate"):
                results = run_sim_tasks(
                    plan.tasks,
                    jobs=jobs,
                    cache=cache,
                    journal=journal,
                    timeout=campaign.task_timeout,
                    health=health,
                    progress=progress,
                )
    finally:
        if journal is not None:
            journal.close()

    promotion = None
    if recorder is not None and health is not None:
        promotion = finalize_campaign_telemetry(
            plan, recorder, health, resumed=resumed
        )
    return assemble_campaign_result(
        plan, results, resumed=resumed, promotion=promotion
    )
