"""Schema-versioned reproduction-artifact layout (the ``out/`` tree).

One ``dozznoc repro-all`` invocation materialises every reproduced
table/figure/extension into a single self-describing directory:

.. code-block:: text

    out/
      manifest.json          # schema, scale, headlines, file digests
      raw/<exp_id>.json      # full structured payload per experiment
      csv/<exp_id>.csv       # flat tabular view per experiment
      report.html            # one static, stdlib-rendered report
      bench/                 # perf-bench datapoints (BENCH_*.json)
        manifest.json

Everything in the tree is **deterministic byte-for-byte** given the same
inputs: canonical JSON (sorted keys, fixed indentation, repr-exact
floats), CSV through :func:`repro.experiments.report.csv_text`, and no
timestamps, hostnames, wall-clock durations or environment leakage
anywhere.  Two invocations at the same scale — serial, parallel, or
resumed from a warm cache — produce identical bytes, which the resume
tests assert with ``cmp``-style equality.

The module also provides:

* :class:`ExperimentMemo` — an experiment-level result cache layered on
  top of the run-level :class:`repro.exec.cache.RunCache`.  It memoizes
  one experiment's entire raw payload keyed by (artifact schema, code
  version, experiment id, scale inputs), so a second ``repro-all``
  over the same ``--cache-dir`` replays every experiment from disk
  without simulating — including the sweeps whose inner loops are not
  individually run-cached.  Entries embed their own key and are
  discarded (never trusted) on any inconsistency, mirroring RunCache.
* :func:`write_bench_artifact` / :func:`read_bench_artifact` — the
  schema'd home for performance-bench datapoints (``BENCH_kernel.json``
  et al.), so bench artifacts and repro artifacts share one layout.  A
  compat copy at the legacy ``benchmarks/out/`` path is kept for CI
  upload steps that predate the layout.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.experiments.figures import EvalScale

#: Bump when the artifact layout or manifest shape changes.
ARTIFACT_SCHEMA = 1

#: File names inside the ``out/`` tree.
MANIFEST_NAME = "manifest.json"
REPORT_NAME = "report.html"
RAW_DIR = "raw"
CSV_DIR = "csv"
BENCH_DIR = "bench"

#: Manifest keys that must be present for :func:`validate_manifest`.
_MANIFEST_REQUIRED = (
    "kind", "schema", "scale", "backend", "seed", "selected",
    "experiments", "files", "expectations", "bench",
)

#: Experiment-payload modules beyond the simulation kernel: editing any
#: of these can change an experiment's *payload* without changing a
#: single simulation result, so they join the memo code version on top
#: of :func:`repro.exec.cache.code_version` (which already covers the
#: kernel, policies, power model, faults and traces).
_MEMO_MODULES: tuple[str, ...] = (
    "repro.exec.pool",
    "repro.experiments.campaign",
    "repro.experiments.figures",
    "repro.experiments.repro_all",
    "repro.experiments.runner",
    "repro.experiments.tables",
    "repro.ml.metrics",
    "repro.ml.ridge",
    "repro.ml.training",
    "repro.models.gates",
    "repro.models.shadow",
    "repro.power.dsent",
    "repro.regulator.efficiency",
    "repro.regulator.latency",
    "repro.regulator.ldo",
    "repro.regulator.simo",
    "repro.telemetry.metrics",
    "repro.telemetry.recorder",
    "repro.traffic.benchmarks",
    "repro.traffic.compression",
    "repro.traffic.suite",
)


# ---------------------------------------------------------------------- #
# Canonical serialization
# ---------------------------------------------------------------------- #


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, repr-exact floats.

    ``json`` serializes floats with ``repr`` (shortest round-trip), so
    the text is bitwise-stable for bitwise-equal inputs — no formatting
    tolerance to hide behind.
    """
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonify) + "\n"


def _jsonify(value: object) -> object:
    """Fallback encoder for numpy scalars/arrays and tuples."""
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()
    item = getattr(value, "item", None)
    if item is not None:  # pragma: no cover - tolist covers numpy today
        return item()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def write_json(path: str | Path, payload: object) -> Path:
    """Write canonical JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(payload))
    return path


def sha256_file(path: str | Path) -> str:
    """Hex digest of one file's bytes (the manifest's integrity unit)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------- #
# The out/ layout
# ---------------------------------------------------------------------- #


class ArtifactLayout:
    """Path arithmetic for one ``out/`` tree (no IO on construction)."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / MANIFEST_NAME

    @property
    def report_path(self) -> Path:
        return self.out_dir / REPORT_NAME

    def raw_path(self, exp_id: str) -> Path:
        return self.out_dir / RAW_DIR / f"{exp_id}.json"

    def csv_path(self, exp_id: str) -> Path:
        return self.out_dir / CSV_DIR / f"{exp_id}.csv"

    @property
    def bench_dir(self) -> Path:
        return self.out_dir / BENCH_DIR

    def relative(self, path: Path) -> str:
        """A path as the manifest spells it (POSIX, out-relative)."""
        return path.relative_to(self.out_dir).as_posix()

    def bench_artifacts(self) -> dict[str, str]:
        """Digests of every bench datapoint present, manifest-shaped."""
        out: dict[str, str] = {}
        if self.bench_dir.is_dir():
            for path in sorted(self.bench_dir.glob("*.json")):
                if path.name == MANIFEST_NAME:
                    continue
                out[self.relative(path)] = sha256_file(path)
        return out


def validate_manifest(manifest: dict, layout: ArtifactLayout) -> list[str]:
    """Schema + integrity check of a manifest against its tree.

    Returns human-readable problems (empty list = valid): missing keys,
    wrong schema, listed files that are absent or whose bytes no longer
    match their recorded digest, and experiments whose file entries are
    not in the file table.
    """
    problems = []
    for key in _MANIFEST_REQUIRED:
        if key not in manifest:
            problems.append(f"manifest missing key {key!r}")
    if problems:
        return problems
    if manifest["kind"] != "repro-manifest":
        problems.append(f"manifest kind {manifest['kind']!r}")
    if manifest["schema"] != ARTIFACT_SCHEMA:
        problems.append(
            f"manifest schema {manifest['schema']!r} != {ARTIFACT_SCHEMA}"
        )
    for rel, digest in sorted(manifest["files"].items()):
        path = layout.out_dir / rel
        if not path.is_file():
            problems.append(f"listed file missing: {rel}")
        elif sha256_file(path) != digest:
            problems.append(f"digest mismatch: {rel}")
    for exp_id, entry in sorted(manifest["experiments"].items()):
        for slot in ("raw", "csv"):
            rel = entry["files"][slot]
            if rel not in manifest["files"]:
                problems.append(f"{exp_id}: {slot} file {rel!r} not in files")
        if not isinstance(entry.get("headlines"), dict):
            problems.append(f"{exp_id}: headlines missing")
    return problems


# ---------------------------------------------------------------------- #
# Experiment-level memo cache
# ---------------------------------------------------------------------- #


@lru_cache(maxsize=1)
def memo_code_version() -> str:
    """Digest over everything that can change an experiment payload."""
    from repro.exec.cache import code_version

    h = hashlib.sha256()
    h.update(code_version().encode())
    for name in _MEMO_MODULES:
        module = importlib.import_module(name)
        h.update(name.encode())
        h.update(Path(module.__file__).read_bytes())
    return h.hexdigest()[:16]


def memo_key(exp_id: str, scale_name: str, scale: EvalScale) -> str:
    """Content address of one experiment's payload at one scale.

    Derived like every other cache key, through
    :func:`repro.exec.cache.content_key` over the scale's full
    :class:`~repro.common.config.SimConfig`; the scale's other inputs
    (duration, seed) and :func:`memo_code_version` are the parts.
    ``jobs`` and ``cache_dir`` are left out: they never change a payload.
    """
    from repro.exec.cache import content_key

    return content_key(
        scale.sim,
        f"artifact={ARTIFACT_SCHEMA}",
        f"memo_code={memo_code_version()}",
        f"experiment={exp_id}",
        f"scale={scale_name}",
        f"duration_ns={scale.duration_ns!r}",
        f"seed={scale.seed}",
    )


class ExperimentMemo:
    """On-disk memo of whole experiment payloads (see module docstring).

    Lives under ``<cache_dir>/experiments/`` next to the run cache and
    the checkpoint journal, so one ``--cache-dir`` carries all three
    resumption layers.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.directory = Path(cache_dir) / "experiments"
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"exp-{key}.json"

    def get(self, key: str) -> dict | None:
        """Look up one payload; anything inconsistent is discarded."""
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
            if entry.get("schema") != ARTIFACT_SCHEMA:
                raise ValueError("schema mismatch")
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store one payload atomically (temp name + rename)."""
        import os
        import tempfile

        self.directory.mkdir(parents=True, exist_ok=True)
        text = canonical_json(
            {"schema": ARTIFACT_SCHEMA, "key": key, "payload": payload}
        )
        fd, tmp = tempfile.mkstemp(
            prefix=f".exp-{os.getpid()}-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path_for(key))
        except OSError:  # pragma: no cover - cache write is best-effort
            try:
                os.unlink(tmp)
            except OSError:
                pass


# ---------------------------------------------------------------------- #
# Bench datapoints (BENCH_*.json)
# ---------------------------------------------------------------------- #


def write_bench_artifact(
    out_dir: str | Path,
    name: str,
    payload: dict,
    legacy_dir: str | Path | None = None,
) -> Path:
    """Emit one perf-bench datapoint into the schema'd ``out/bench/`` slot.

    The datapoint is wrapped with the artifact schema and indexed in
    ``out/bench/manifest.json`` so ``repro-all`` manifests can list it.
    When ``legacy_dir`` is given, the *unwrapped* payload is also written
    as ``<legacy_dir>/<name>.json`` — the pre-layout location CI upload
    steps point at.
    """
    layout = ArtifactLayout(out_dir)
    path = layout.bench_dir / f"{name}.json"
    write_json(
        path,
        {"kind": "bench-artifact", "schema": ARTIFACT_SCHEMA,
         "name": name, "data": payload},
    )
    index = {
        "kind": "bench-manifest",
        "schema": ARTIFACT_SCHEMA,
        "artifacts": {
            rel: digest
            for rel, digest in layout.bench_artifacts().items()
        },
    }
    write_json(layout.bench_dir / MANIFEST_NAME, index)
    if legacy_dir is not None:
        legacy = Path(legacy_dir) / f"{name}.json"
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_text(json.dumps(payload, indent=2, default=_jsonify) + "\n")
    return path


def read_bench_artifact(
    name: str,
    out_dir: str | Path,
    legacy_dir: str | Path | None = None,
) -> dict | None:
    """Load one bench datapoint, preferring the schema'd location.

    Falls back to the legacy ``benchmarks/out/`` flat file (compat read
    path) and returns the bare payload either way; ``None`` when the
    datapoint exists nowhere.
    """
    path = ArtifactLayout(out_dir).bench_dir / f"{name}.json"
    try:
        entry = json.loads(path.read_text())
        if entry.get("kind") == "bench-artifact":
            return entry["data"]
    except (OSError, ValueError, KeyError):
        pass
    if legacy_dir is not None:
        try:
            return json.loads((Path(legacy_dir) / f"{name}.json").read_text())
        except (OSError, ValueError):
            pass
    return None
