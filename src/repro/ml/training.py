"""Offline training pipeline (Sections III.D and IV.A).

The paper's procedure, reproduced end to end:

1. run the **reactive** version of each ML model (mode selection from the
   *current* epoch's buffer utilization) on the six training traces,
   exporting every router's features and the future-IBU label each epoch,
2. sweep the lambda hyper-parameter, fitting ridge regression on the
   training set and scoring on the three validation traces until the
   best-fitting weights are found,
3. export the weight vector for the network simulator to use at test time
   for **proactive** mode selection.

Each ML model (DozzNoC, LEAD-tau, ML+TURBO) trains on its *own* reactive
run, because power-gating changes the feature distribution (off time is
identically zero for LEAD).  Models are also specific to the epoch size,
matching the paper's per-epoch-size training.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common.config import SimConfig
from repro.common.errors import TrainingError
from repro.core.controller import make_policy
from repro.core.features import REDUCED_FEATURES, FeatureSet
from repro.ml.metrics import mode_selection_accuracy
from repro.ml.ridge import RidgeModel, fit_ridge, rmse
from repro.noc.simulator import run_simulation
from repro.traffic.trace import Trace, trace_fingerprint

#: Default lambda sweep (log-spaced, matching a coarse Matlab-style tune).
DEFAULT_LAMBDAS: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class TrainingResult:
    """Everything the offline phase produces."""

    model: RidgeModel
    policy_name: str
    feature_set_name: str
    train_rmse: float
    validation_rmse: float
    validation_accuracy: float
    lambda_sweep: dict[float, float]
    n_train_samples: int
    n_validation_samples: int


def collect_dataset(
    policy_name: str,
    traces: list[Trace] | tuple[Trace, ...],
    config: SimConfig,
    feature_set: FeatureSet = REDUCED_FEATURES,
) -> tuple[np.ndarray, np.ndarray]:
    """Run reactive simulations and return the stacked ``(X, y)`` dataset."""
    xs, ys = [], []
    for trace in traces:
        policy = make_policy(policy_name, weights=None, feature_set=feature_set)
        result = run_simulation(config, trace, policy, collect_features=True)
        x, y = result.stats.training_matrices()
        if x.size:
            xs.append(x)
            ys.append(y)
    if not xs:
        raise TrainingError(
            "no labelled epochs were collected; traces may be shorter than "
            f"two epochs ({config.epoch_cycles} cycles each)"
        )
    return np.vstack(xs), np.concatenate(ys)


def train_policy_model(
    policy_name: str,
    train_traces: list[Trace] | tuple[Trace, ...],
    validation_traces: list[Trace] | tuple[Trace, ...],
    config: SimConfig,
    feature_set: FeatureSet = REDUCED_FEATURES,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
) -> TrainingResult:
    """The full offline phase for one model: collect, sweep lambda, export."""
    if not lambdas:
        raise TrainingError("lambda sweep is empty")
    x_train, y_train = collect_dataset(policy_name, train_traces, config, feature_set)
    x_val, y_val = collect_dataset(
        policy_name, validation_traces, config, feature_set
    )

    sweep: dict[float, float] = {}
    best_lam, best_val, best_model = None, np.inf, None
    for lam in lambdas:
        model = fit_ridge(x_train, y_train, lam, feature_set.names)
        val = rmse(y_val, model.predict(x_val))
        sweep[lam] = val
        if val < best_val:
            best_lam, best_val, best_model = lam, val, model
    assert best_model is not None and best_lam is not None

    return TrainingResult(
        model=best_model,
        policy_name=policy_name,
        feature_set_name=feature_set.name,
        train_rmse=rmse(y_train, best_model.predict(x_train)),
        validation_rmse=best_val,
        validation_accuracy=mode_selection_accuracy(
            y_val, best_model.predict(x_val)
        ),
        lambda_sweep=sweep,
        n_train_samples=len(y_train),
        n_validation_samples=len(y_val),
    )


#: Canonical trace-identity hash (shared with the run cache in repro.exec).
_trace_fingerprint = trace_fingerprint


def _cache_key(
    policy_name: str,
    feature_set: FeatureSet,
    config: SimConfig,
    train_traces: list[Trace] | tuple[Trace, ...],
    val_traces: list[Trace] | tuple[Trace, ...],
    lambdas: tuple[float, ...],
) -> str:
    """Content address of one trained model (the run cache's recipe)."""
    # Imported lazily: repro.exec's pool imports this module.
    from repro.exec.cache import content_key

    return content_key(
        config,
        f"policy={policy_name}",
        f"features={feature_set.name}:{','.join(feature_set.names)}",
        "train=" + ",".join(_trace_fingerprint(t) for t in train_traces),
        "val=" + ",".join(_trace_fingerprint(t) for t in val_traces),
        "lambdas=" + ",".join(repr(float(l)) for l in lambdas),
    )


def cached_train(
    policy_name: str,
    train_traces: list[Trace] | tuple[Trace, ...],
    validation_traces: list[Trace] | tuple[Trace, ...],
    config: SimConfig,
    feature_set: FeatureSet = REDUCED_FEATURES,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
    cache_dir: str | Path | None = None,
) -> RidgeModel:
    """Train (or reload) a model; only the weights are cached to disk.

    Repeated experiment harness invocations reuse the same trained weights,
    mirroring the paper's import of offline-trained weight arrays.
    """
    if cache_dir is not None:
        key = _cache_key(
            policy_name,
            feature_set,
            config,
            train_traces,
            validation_traces,
            lambdas,
        )
        path = Path(cache_dir) / f"ridge-{policy_name}-{key}.npz"
        if path.exists():
            return RidgeModel.load(path)
    result = train_policy_model(
        policy_name, train_traces, validation_traces, config, feature_set, lambdas
    )
    if cache_dir is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: several sharded workers may train the same
        # model concurrently against one cache dir.  Each stages a
        # per-pid .npz and renames it whole, so a reader never loads a
        # half-written archive (training is deterministic, so whichever
        # rename lands last is byte-identical anyway).
        tmp = path.with_name(f".{path.stem}-{os.getpid()}.npz")
        try:
            result.model.save(tmp)
            os.replace(tmp, path)
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return result.model
