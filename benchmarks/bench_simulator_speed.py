"""Bench: raw simulator kernel performance (router-cycles per second).

Not a paper experiment — this tracks the substrate's own speed so
regressions in the hot path (the per-cycle router loop) are visible.
Uses multiple pytest-benchmark rounds.  ``CONFIG`` and ``FULL_CONFIG``
pin the object kernel (the comparison's reference leg and the canary's
subject); the array kernel — the default users run — is reached through
``.with_(backend="array")``.
"""

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.noc.simulator import run_simulation
from repro.traffic.benchmarks import generate_benchmark_trace

CONFIG = SimConfig(topology="mesh", radix=4, epoch_cycles=250,
                   horizon_ns=1_000.0, backend="object")
TRACE = generate_benchmark_trace("bodytrack", num_cores=16,
                                 duration_ns=900.0)


def test_kernel_speed_baseline(benchmark):
    result = benchmark(
        lambda: run_simulation(CONFIG, TRACE, make_policy("baseline"))
    )
    assert result.stats.packets_delivered > 0


def test_kernel_speed_dozznoc(benchmark):
    result = benchmark(
        lambda: run_simulation(CONFIG, TRACE, make_policy("dozznoc"))
    )
    assert result.stats.packets_delivered > 0


def test_kernel_speed_dozznoc_telemetry(benchmark):
    from repro.telemetry import TelemetryRecorder

    result = benchmark(
        lambda: run_simulation(
            CONFIG, TRACE, make_policy("dozznoc"),
            telemetry=TelemetryRecorder(),
        )
    )
    assert result.stats.packets_delivered > 0


def test_kernel_speed_dozznoc_online(benchmark):
    from repro.models import OnlineConfig

    result = benchmark(
        lambda: run_simulation(
            CONFIG, TRACE, make_policy("dozznoc"),
            online=OnlineConfig(forgetting=0.99, warmup_updates=4),
        )
    )
    assert result.stats.packets_delivered > 0


def test_batched_inference_speed(benchmark):
    """Before/after datapoint for the batched-inference hot path.

    The shadow scorer used to need one Python-level prediction per
    router per epoch; :func:`batch_predict` replaces that with one
    columnwise pass over a (routers, features) matrix.  Benchmarks the
    batched path on a mesh-64-sized feature block and asserts
    row-stability: batching must not change any single row's result, so
    every row is bit-identical to scoring that row alone.  (A plain
    ``X @ w`` would fail this — BLAS reorders the reduction.)
    """
    import numpy as np

    from repro.models import batch_predict

    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 0.5, size=(64, 5))
    w = rng.normal(0.0, 0.4, size=5)

    per_row = np.array([batch_predict(row[None, :], w)[0] for row in x])
    batched = benchmark(lambda: batch_predict(x, w))
    assert np.array_equal(batched, per_row), (
        "batched inference must be bit-identical to per-row inference"
    )


def test_batched_inference_beats_per_row_loop():
    """The batched pass must actually be faster than the per-row loop.

    Interleaved best-of-N (same discipline as the telemetry-overhead
    bound) on a mesh-64 block repeated over many epochs' worth of rows.
    """
    from time import perf_counter

    import numpy as np

    from repro.models import batch_predict

    rng = np.random.default_rng(7)
    blocks = [rng.normal(0.0, 0.5, size=(64, 5)) for _ in range(50)]
    w = rng.normal(0.0, 0.4, size=5)

    def run_loop():
        return [
            np.array([float(w @ row) for row in x]) for x in blocks
        ]

    def run_batched():
        return [batch_predict(x, w) for x in blocks]

    run_loop(), run_batched()  # warm-up
    best_loop = best_batched = float("inf")
    for _ in range(7):
        t0 = perf_counter()
        run_loop()
        best_loop = min(best_loop, perf_counter() - t0)
        t0 = perf_counter()
        run_batched()
        best_batched = min(best_batched, perf_counter() - t0)
    assert best_batched < best_loop, (
        f"batched inference ({best_batched:.5f}s) is not faster than the "
        f"per-row loop it replaced ({best_loop:.5f}s)"
    )


def test_telemetry_overhead_bounded():
    """Telemetry-on must stay within 10% of telemetry-off wall-clock.

    Interleaved best-of-N: each variant's minimum over alternating runs,
    so a background load spike hits both sides rather than biasing one.
    """
    from time import perf_counter

    from repro.telemetry import TelemetryRecorder

    config = CONFIG.with_(backend="array")

    def run_off():
        return run_simulation(config, TRACE, make_policy("dozznoc"))

    def run_on():
        return run_simulation(
            config, TRACE, make_policy("dozznoc"),
            telemetry=TelemetryRecorder(),
        )

    run_off(), run_on()  # warm caches / JIT'd import machinery
    best_off = best_on = float("inf")
    for _ in range(7):
        t0 = perf_counter()
        run_off()
        best_off = min(best_off, perf_counter() - t0)
        t0 = perf_counter()
        run_on()
        best_on = min(best_on, perf_counter() - t0)
    assert best_on <= best_off * 1.10, (
        f"telemetry overhead {100 * (best_on / best_off - 1):.1f}% "
        f"exceeds the 10% budget (off={best_off:.4f}s on={best_on:.4f}s)"
    )


# --------------------------------------------------------------------- #
# Backend comparison: object kernel vs structure-of-arrays kernel
# --------------------------------------------------------------------- #

#: Full-workload window for the kernel comparison: the bodytrack trace is
#: 900 ns of bursty traffic; a 2000 ns horizon covers the burst *and* the
#: idle tail, the regime the paper's power-gating story is about.  On this
#: window the array kernel's gated-epoch fast path pays off most.
FULL_CONFIG = SimConfig(topology="mesh", radix=4, epoch_cycles=250,
                        horizon_ns=2_000.0, backend="object")
ARRAY_CONFIG = FULL_CONFIG.with_(backend="array")

#: Policies whose run is *kernel-bound*: no gating, so no router ever
#: sleeps and the comparison isolates per-cycle loop cost (the array
#: kernel's lanes and silent-cycle spans against the object kernel's
#: one-fire-per-cycle reference loop).  The >=3x acceptance bound
#: applies to these cases only.  The object kernel elides nothing, not
#: even gated heartbeats, so the gating policies' (pg/lead/dozznoc/turbo)
#: ratios also credit the array kernel's GATED spans; they are reported
#: in BENCH_kernel.json but not gated on.
KERNEL_BOUND_POLICIES = ("baseline",)


def _kernel_of(config):
    """The kernel class ``run_simulation`` actually builds for ``config``."""
    from unittest import mock

    from repro.noc.simulator import Simulator

    built = []
    init = Simulator.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    with mock.patch.object(Simulator, "__init__", spy):
        run_simulation(config, TRACE, make_policy("baseline"))
    (name,) = built
    return name


def _assert_distinct_kernels():
    """The comparison legs must run different kernels, not one twice."""
    kernels = (_kernel_of(FULL_CONFIG), _kernel_of(ARRAY_CONFIG))
    assert kernels == ("Simulator", "ArraySimulator"), (
        f"object/array legs ran {kernels}; a comparison of one kernel "
        "with itself is vacuous"
    )


def _bench_backend_case(policy_name, rounds):
    """Interleaved best-of-N wall-clock for one policy on both backends.

    Alternating object/array runs inside one process means a background
    load spike penalises both kernels instead of biasing the ratio.
    Returns ``(best_object_s, best_array_s)``.
    """
    from time import perf_counter

    def run_object():
        return run_simulation(FULL_CONFIG, TRACE, make_policy(policy_name))

    def run_array():
        return run_simulation(ARRAY_CONFIG, TRACE, make_policy(policy_name))

    run_object(), run_array()  # warm-up
    best_obj = best_arr = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        run_object()
        best_obj = min(best_obj, perf_counter() - t0)
        t0 = perf_counter()
        run_array()
        best_arr = min(best_arr, perf_counter() - t0)
    return best_obj, best_arr


def _router_cycles(config):
    """Nominal simulated router-cycles for one run of ``config``.

    Routers x horizon at the top-mode clock (2.25 GHz).  A normalisation
    constant shared by both backends, so ratios are pure wall-clock; the
    absolute router-cycles/sec figures make runs comparable across
    configs.
    """
    from repro.core.modes import MODES

    n_routers = config.radix * config.radix
    top_ghz = max(m.freq_ghz for m in MODES)
    return n_routers * config.horizon_ns * top_ghz


def test_backend_bit_identity():
    """Both comparison legs run different kernels with identical results.

    Checks that ``FULL_CONFIG`` really reaches the object kernel and
    ``ARRAY_CONFIG`` the array kernel, then that both produce identical
    ``summary()`` dicts under every policy (bit-identity smoke — the full
    proof lives in the golden suite and the ``--differential-backend``
    fuzz leg).  Timing-free, so it gates CI where the speed ratio cannot.
    """
    from repro.experiments.runner import MODEL_NAMES

    _assert_distinct_kernels()
    for policy_name in MODEL_NAMES:
        ref = run_simulation(FULL_CONFIG, TRACE, make_policy(policy_name))
        got = run_simulation(ARRAY_CONFIG, TRACE, make_policy(policy_name))
        assert ref.summary() == got.summary(), (
            f"object and array kernels diverged on policy {policy_name!r}"
        )


def test_backend_comparison_emits_kernel_json(report_dir, artifact_out):
    """Object-vs-array kernel comparison across all five policies.

    Writes the ``BENCH_kernel`` datapoint (router-cycles/sec per backend
    x policy plus the speedup ratio) into the schema-versioned
    ``out/bench/`` slot shared with ``repro-all`` manifests, keeping an
    unwrapped compat copy at the legacy ``benchmarks/out/`` path for CI
    upload, and asserts the array kernel is >=3x faster on the
    kernel-bound baseline case.  Before timing it checks that the two
    legs run different kernels; result equality is
    :func:`test_backend_bit_identity`'s job.
    """
    import os

    from repro.experiments.artifact import write_bench_artifact
    from repro.experiments.runner import MODEL_NAMES

    quick = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")
    rounds = 5 if quick else 9

    _assert_distinct_kernels()
    cycles = _router_cycles(FULL_CONFIG)
    cases = {}
    for policy_name in MODEL_NAMES:
        best_obj, best_arr = _bench_backend_case(policy_name, rounds)
        cases[policy_name] = {
            "object_s": best_obj,
            "array_s": best_arr,
            "object_router_cycles_per_s": cycles / best_obj,
            "array_router_cycles_per_s": cycles / best_arr,
            "speedup": best_obj / best_arr,
            "kernel_bound": policy_name in KERNEL_BOUND_POLICIES,
        }

    payload = {
        "bench": "kernel-backend-comparison",
        "trace": "bodytrack x16 cores, 900 ns",
        "config": {
            "topology": FULL_CONFIG.topology,
            "radix": FULL_CONFIG.radix,
            "epoch_cycles": FULL_CONFIG.epoch_cycles,
            "horizon_ns": FULL_CONFIG.horizon_ns,
        },
        "rounds": rounds,
        "router_cycles_per_run": cycles,
        "note": (
            "speedup gate applies to kernel_bound cases only; the object "
            "kernel is the per-step reference (no cycle elision, gated "
            "heartbeats included), so every ratio measures the array "
            "kernel's lanes plus all of its spans (see docs/backends.md)"
        ),
        "cases": cases,
    }
    path = write_bench_artifact(
        artifact_out, "BENCH_kernel", payload, legacy_dir=report_dir
    )
    print(f"\n[kernel comparison written to {path}]")
    for name, row in cases.items():
        print(f"  {name:18s} object {row['object_s']:.4f}s  "
              f"array {row['array_s']:.4f}s  {row['speedup']:.2f}x")

    for policy_name in KERNEL_BOUND_POLICIES:
        ratio = cases[policy_name]["speedup"]
        assert ratio >= 3.0, (
            f"array kernel only {ratio:.2f}x over object on kernel-bound "
            f"policy {policy_name!r} (need >=3x)"
        )


def test_object_backend_speed_canary():
    """Catastrophic-regression canary for the object kernel's loop.

    ``CONFIG`` pins ``backend="object"``; without the pin this would time
    the default array kernel instead.

    The object kernel is the naive per-step reference: it fires every
    router cycle, gated heartbeats included, and its speed-only hoists
    were removed on purpose.  Best-of-7 on the 1000 ns case still runs
    in ~0.1 s on a 2-vCPU x86 container, so the 2 s ceiling only trips
    on an order-of-magnitude regression, not machine noise.
    """
    from time import perf_counter

    assert _kernel_of(CONFIG) == "Simulator"
    run_simulation(CONFIG, TRACE, make_policy("dozznoc"))  # warm-up
    best = float("inf")
    for _ in range(7):
        t0 = perf_counter()
        run_simulation(CONFIG, TRACE, make_policy("dozznoc"))
        best = min(best, perf_counter() - t0)
    assert best < 2.0, (
        f"object kernel took {best:.3f}s best-of-7 on the 1000 ns case — "
        "an order-of-magnitude regression in the per-cycle loop"
    )
