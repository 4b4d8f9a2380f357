"""Content-addressed on-disk cache for simulation results.

Mirrors what :func:`repro.ml.training.cached_train` does for trained
weights, but for *simulation runs*: a :class:`RunCache` stores one
:class:`~repro.experiments.runner.ModelMetrics` per run, keyed by a stable
hash of everything that determines the run's outcome:

* the full :class:`~repro.common.config.SimConfig` (every field except the
  non-semantic ``extra`` dict),
* the trace's content fingerprint (name, length, duration, column sample),
* the policy name and resolved feature-set composition,
* the trained weight vector (byte-exact) or its absence (reactive run),
* a *code version* hashed over the sources of every module that can change
  a simulation's outcome, so editing the kernel invalidates old results,
* a schema version for the serialized payload itself.

Entries are JSON files written atomically (temp file + rename).  A read
validates the schema, the embedded key, and the metric fields; anything
corrupted, truncated, or stale is **discarded, never trusted** — the run
is simply re-simulated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.common.config import SimConfig
from repro.traffic.trace import Trace, trace_fingerprint

if TYPE_CHECKING:  # pragma: no cover - avoids an exec<->experiments cycle
    from repro.experiments.runner import ModelMetrics

#: Bump when the serialized payload layout changes.  v2: ModelMetrics
#: gained ``drained`` — v1 entries could report a deadlocked (safety-cap)
#: run as clean, so they must never be trusted again.  v3: ModelMetrics
#: gained the graceful-degradation ledger (forced wakes, retransmitted
#: flits, safe-mode entries, predictor fallbacks) and run keys gained a
#: fault-configuration digest.  v4: run keys gained the served model's
#: registry fingerprint and the online-learning configuration digest, so
#: cached results can never mix model versions or online/offline runs.
#: v5: ``SimConfig`` gained ``backend`` (object vs array kernel); the
#: field joins the config digest automatically, but the bump retires v4
#: entries whose keys predate it.  v6: ``ModelMetrics`` gained
#: ``drift_alerts`` (drift-monitor trips surfaced in serve status); the
#: payload field set changed, so older entries must be re-simulated.
#: v7: the fabric subsystem landed (:mod:`repro.noc.fabrics` — torus and
#: ring topologies, precomputed route tables, cell-bubble flow control)
#: and the default backend flipped to ``array``; the new module joins the
#: code digest and older entries predate its coverage.
SCHEMA_VERSION = 7

#: Modules whose source determines simulation results.  Editing any of
#: these changes the code-version digest and invalidates cached runs.
#: ``tests/test_versioned_modules.py`` asserts this set covers everything
#: :mod:`repro.noc.simulator` imports, transitively to a fixpoint.
_VERSIONED_MODULES: tuple[str, ...] = (
    "repro.common.config",
    "repro.common.errors",
    "repro.common.rng",
    "repro.common.units",
    "repro.core.controller",
    "repro.core.features",
    "repro.core.modes",
    "repro.core.states",
    "repro.core.thresholds",
    "repro.faults",
    "repro.faults.config",
    "repro.faults.scheduler",
    # repro.models is versioned wholesale: online learning and drift
    # actions change results directly; the registry decides which weights
    # a campaign serves; shadow/gates ride along for safety even though
    # they are observe-only.
    "repro.models",
    "repro.models.drift",
    "repro.models.gates",
    "repro.models.online",
    "repro.models.registry",
    "repro.models.shadow",
    "repro.models.store",
    "repro.noc.array_sim",
    "repro.noc.buffer",
    "repro.noc.fabrics",
    "repro.noc.network",
    "repro.noc.packet",
    "repro.noc.router",
    "repro.noc.routing",
    "repro.noc.simulator",
    "repro.noc.stats",
    "repro.noc.topology",
    "repro.power.accounting",
    "repro.power.dsent",
    "repro.regulator.reliability",
    "repro.traffic.trace",
)


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every simulation-relevant source file."""
    import importlib

    h = hashlib.sha256()
    for name in _VERSIONED_MODULES:
        module = importlib.import_module(name)
        source = Path(module.__file__)
        h.update(name.encode())
        h.update(source.read_bytes())
    return h.hexdigest()[:16]


def _weights_digest(weights: np.ndarray | None) -> str:
    """Byte-exact identity of a weight vector (or its absence)."""
    if weights is None:
        return "reactive"
    arr = np.ascontiguousarray(np.asarray(weights, dtype=float))
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _config_digest_parts(config: SimConfig) -> str:
    """Stable serialization of every semantic SimConfig field."""
    fields = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(SimConfig)
        if f.name != "extra"
    }
    return json.dumps(fields, sort_keys=True, default=repr)


def content_key(config: SimConfig, *parts: str) -> str:
    """Content address over the cache schema, code version and full config.

    The one key recipe for everything cached beside a run: ``parts``
    name the remaining inputs (policy, traces, weights, ...).  Hashing
    the whole :func:`_config_digest_parts` digest means a new
    :class:`SimConfig` field joins every key without a hand-kept list.
    """
    fields = [
        f"schema={SCHEMA_VERSION}",
        f"code={code_version()}",
        f"config={_config_digest_parts(config)}",
        *parts,
    ]
    return hashlib.sha256("\x1f".join(fields).encode()).hexdigest()[:24]


def run_key(
    policy: str,
    trace: Trace,
    config: SimConfig,
    weights: np.ndarray | None,
    feature_names: tuple[str, ...],
    feature_set_name: str,
    faults: "object | None" = None,
    model: str | None = None,
    online: "object | None" = None,
) -> str:
    """The content address of one (policy, trace, config, weights) run.

    ``faults`` is an optional :class:`repro.faults.FaultConfig`; fault
    injection changes results, so faulted and clean runs of the same
    task must never share a cache entry.  ``model`` is the registry
    fingerprint of a served model (weights are byte-keyed regardless,
    but the fingerprint pins the registry *version* so two models that
    happen to share weights still never alias).  ``online`` is an
    optional :class:`repro.models.OnlineConfig`; online learning evolves
    the policy mid-run, so online and frozen runs must never share an
    entry either.
    """
    return content_key(
        config,
        f"policy={policy}",
        f"features={feature_set_name}:{','.join(feature_names)}",
        f"trace={trace_fingerprint(trace)}",
        f"weights={_weights_digest(weights)}",
        f"faults={'none' if faults is None else faults.fingerprint()}",
        f"model={'none' if model is None else model}",
        f"online={'none' if online is None else online.fingerprint()}",
    )


def _metrics_to_payload(key: str, metrics: "ModelMetrics") -> dict:
    data = dataclasses.asdict(metrics)
    data["mode_distribution"] = {
        str(k): float(v) for k, v in metrics.mode_distribution.items()
    }
    return {"schema": SCHEMA_VERSION, "key": key, "metrics": data}


@lru_cache(maxsize=1)
def _metric_fields() -> tuple[str, ...]:
    # Imported lazily: repro.experiments imports this package at load time.
    from repro.experiments.runner import ModelMetrics

    return tuple(f.name for f in dataclasses.fields(ModelMetrics))


def _metrics_from_payload(key: str, payload: dict) -> "ModelMetrics":
    """Rebuild metrics from a cache payload; raises on any inconsistency."""
    from repro.experiments.runner import ModelMetrics

    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"schema mismatch: {payload.get('schema')!r}")
    if payload.get("key") != key:
        raise ValueError("cache entry key does not match its address")
    data = dict(payload["metrics"])
    if set(data) != set(_metric_fields()):
        raise ValueError(f"metric fields mismatch: {sorted(data)}")
    data["mode_distribution"] = {
        int(k): float(v) for k, v in data["mode_distribution"].items()
    }
    data["packets_delivered"] = int(data["packets_delivered"])
    data["drained"] = bool(data["drained"])
    return ModelMetrics(**data)


class RunCache:
    """Content-addressed store of per-run :class:`ModelMetrics`.

    Parameters
    ----------
    cache_dir:
        Directory for entries (created on first write).  One JSON file per
        run, named ``run-<key>.json``.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self.discarded = 0

    def path_for(self, key: str) -> Path:
        """Filesystem location of one cache entry."""
        return self.cache_dir / f"run-{key}.json"

    def get(self, key: str) -> ModelMetrics | None:
        """Look up one run; corrupted or stale entries are deleted."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            metrics = _metrics_from_payload(key, payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupted / truncated / wrong-schema entry: do not trust it.
            self.discarded += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        self.hits += 1
        return metrics

    def _write_temp(self, key: str, metrics: ModelMetrics) -> str:
        """Write a complete, fsynced entry under a per-process temp name.

        The temp name embeds the pid (plus mkstemp's random suffix), so
        two workers completing the same key in the same cache dir can
        never collide on the staging file, let alone interleave partial
        bytes — each writes its own temp file and publishes it whole.
        """
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(_metrics_to_payload(key, metrics))
        fd, tmp = tempfile.mkstemp(
            prefix=f".run-{os.getpid()}-", suffix=".tmp", dir=self.cache_dir
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return tmp

    def put(self, key: str, metrics: ModelMetrics) -> None:
        """Store one run crash-safely: temp file + fsync + atomic rename.

        A reader never observes a partial entry — either the old state or
        the complete new file.  The fsync before the rename closes the
        power-loss window where the rename survives but the data does
        not; a kill -9 mid-``put`` leaves at worst an orphaned temp file,
        which readers never look at (entries are addressed by exact name).
        Concurrent writers of the same key each stage their own per-pid
        temp file; whichever rename lands last wins whole (the results
        are content-addressed, so both files hold identical payloads).
        """
        try:
            tmp = self._write_temp(key, metrics)
            os.replace(tmp, self.path_for(key))
        except OSError:  # pragma: no cover - cache write is best-effort
            pass

    def put_new(self, key: str, metrics: ModelMetrics) -> bool:
        """Store one run only if no entry exists yet; True when stored.

        First-wins publication for the sharding layer: ``os.link`` fails
        with ``EEXIST`` instead of replacing, so once any worker has
        committed a result for ``key``, a slower (possibly fenced-off)
        writer of the same key can never clobber it — its attempt is a
        no-op and the committed entry stands.
        """
        try:
            tmp = self._write_temp(key, metrics)
        except OSError:  # pragma: no cover - cache write is best-effort
            return False
        try:
            os.link(tmp, self.path_for(key))
            return True
        except FileExistsError:
            return False
        except OSError:  # pragma: no cover - cache write is best-effort
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def stats(self) -> dict[str, int]:
        """Hit/miss/discard counters for reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "discarded": self.discarded,
        }


def run_cache_for(cache_dir: str | Path | None) -> RunCache | None:
    """The run cache inside one cache directory (None when uncached).

    The single spelling of the ``<cache_dir>/runs`` layout, so campaigns,
    sweeps, sharded workers and the serve queue all share one cache.
    """
    return None if cache_dir is None else RunCache(Path(cache_dir) / "runs")
