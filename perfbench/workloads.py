"""The benchmark's workloads: cold ``repro-all`` runs and a served mix.

Each workload has a ``setup`` (everything before the first timed
operation) and a ``body`` (the timed part, which also checks the
program's outputs).  Both run against directories under one work dir.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from stats import nearest_rank

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

# ---------------------------------------------------------------------- #
# repro-all
# ---------------------------------------------------------------------- #

#: Registry entries the repro workloads leave out: the fabric matrix,
#: the epoch sweep and shadow promotion are about half of a jobs-1 cold
#: run (the fabric matrix alone about 37%).  Without them a jobs-1 run
#: takes about 30 s on two CPUs, so many repeated runs stay affordable.
#: The rest keeps the paper campaign (training and test), the
#: collection-heavy fig9 and feature ablation, cmesh, faults and
#: telemetry.  Torus and ring kernels are exercised by ``serve_mixed``.
REPRO_LEFT_OUT = ("epoch_sweep", "fabrics", "shadow_promotion")
EXPECTED_MANIFEST = EXPECTED_DIR / "manifest.json"


def repro_selection() -> list[str]:
    """The ``repro-all`` entries the repro workloads run, in id order."""
    from repro.experiments.repro_all import REPRO_EXPERIMENTS

    return sorted(set(REPRO_EXPERIMENTS) - set(REPRO_LEFT_OUT))


def repro_setup(workdir: Path) -> None:
    """Import the program's entry modules and create fresh dirs."""
    import repro.experiments.repro_all  # noqa: F401

    for name in ("cache", "out"):
        (workdir / name).mkdir(parents=True, exist_ok=False)


@dataclass
class Outcome:
    """What one timed body did."""

    wall_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)


def repro_body(workdir: Path, jobs: int,
               write_expected: bool = False) -> Outcome:
    """One cold ``run_repro_all`` at quick scale; checks its outputs.

    An operation is one experiment.  It fails when its headlines drift
    from the committed expectations or its manifest entry (headlines and
    file hashes) differs from the committed manifest.
    """
    from repro.experiments import repro_all

    exp_times: dict[str, float] = {}
    last = [perf_counter()]

    def log(line: str) -> None:
        now = perf_counter()
        parts = line.split(": ")
        if len(parts) == 3 and parts[2] in ("computed", "cached"):
            exp_times[parts[1]] = now - last[0]
        last[0] = now

    options = repro_all.ReproOptions(
        scale="quick", jobs=jobs, cache_dir=workdir / "cache",
        out_dir=workdir / "out", only=repro_selection(),
    )
    t0 = perf_counter()
    last[0] = t0
    report = repro_all.run_repro_all(options, log=log)
    wall = perf_counter() - t0

    manifest = report.manifest
    ids = list(manifest["selected"])
    problems: list[str] = []
    bad: set[str] = set()
    if report.exit_code != 0:
        problems.append(f"run_repro_all exited {report.exit_code}")
    for failure in manifest["expectations"]["failures"]:
        bad.add(failure["experiment"])
        problems.append(
            f"drift {failure['experiment']}.{failure['headline']}: "
            f"{failure['problem']}")
    manifest_bytes = (workdir / "out" / "manifest.json").read_bytes()
    if write_expected and report.exit_code == 0:
        EXPECTED_MANIFEST.parent.mkdir(exist_ok=True)
        EXPECTED_MANIFEST.write_bytes(manifest_bytes)
    if not EXPECTED_MANIFEST.exists():
        problems.append(f"no committed manifest at {EXPECTED_MANIFEST.name}")
        bad.update(ids)
    elif manifest_bytes != EXPECTED_MANIFEST.read_bytes():
        expected = json.loads(EXPECTED_MANIFEST.read_text())
        problems.append("manifest.json differs from the committed one")
        for exp_id in ids:
            if manifest["experiments"].get(exp_id) != \
                    expected["experiments"].get(exp_id):
                bad.add(exp_id)
        for key in sorted(set(manifest) | set(expected)):
            if key not in ("experiments", "files") and \
                    manifest.get(key) != expected.get(key):
                problems.append(f"manifest field {key!r} differs")
                bad.add("<manifest>")
    if report.exit_code != 0 and not bad:
        bad.add("<exit>")
    return Outcome(
        wall_s=wall,
        attempted=len(ids),
        failed=len(bad),
        problems=problems,
        extra={
            "headlines_checked": manifest["expectations"]["checked"],
            "experiments": len(ids),
            **{f"experiments.{k}_s": v for k, v in exp_times.items()},
        },
    )


# ---------------------------------------------------------------------- #
# serve_mixed
# ---------------------------------------------------------------------- #

# The mix below is synthetic.  No recorded traffic of real callers
# exists in the repository, so none of these constants is taken from one;
# each says what it was chosen for, and a gain that depends on them (the
# run cache's share, the batcher's share) is a property of this workload,
# not of real callers.
SERVE_POLICIES = ("baseline", "pg", "lead", "dozznoc", "turbo")
SERVE_BENCHMARKS = (
    "barnes", "blackscholes", "bodytrack", "canneal", "dedup", "facesim",
    "ferret", "fft", "fluidanimate", "lu", "radix", "swaptions", "vips",
    "water",
)
SERVE_TOPOLOGIES = ("mesh", "cmesh", "torus", "ring")
#: Simulated ns per run: short, so the kernel is a minority of the
#: server's busy time (measured on two CPUs: 13 of 33 busy seconds)
#: and transport, store and queue carry the rest.
SERVE_DURATIONS_NS = (80.0, 100.0, 120.0)
#: Topology and duration are dealt as pairs: together they set most of a
#: run's kernel time (a ring run costs several mesh runs).
SERVE_SIZES = tuple(
    (t, d) for t in SERVE_TOPOLOGIES for d in SERVE_DURATIONS_NS)
#: Every fourth run request repeats one of the client's own earlier
#: fresh requests, so the run cache answers a quarter of them.  Chosen,
#: not measured: enough hits that the cache's read path shows in the
#: layer table, few enough that the kernel still runs most requests.
REPEAT_EVERY = 4
CLIENTS = 2
#: ``/predict`` calls after each run.  Chosen, not measured: enough
#: concurrent calls from two clients that the batcher coalesces some.
PREDICTS_PER_RUN = 3
#: Rows x features of one ``/predict``: 16 rows of the reduced five-feature
#: set the served model takes.
PREDICT_ROWS = 16
PREDICT_FEATURES = 5
#: Status poll interval.  No client in the repository polls a served
#: run (the shard coordinator polls every 0.2 s, but its jobs are whole
#: campaigns); 5 ms keeps the poll's rounding under an eighth of the
#: median run latency (about 40 ms), so the kernel and server, not the
#: client's sleep, set the latency.
POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
#: Client iterations per second of ``--seconds``: sized so that the body
#: takes about ``--seconds`` on two CPUs (measured: 480 iterations in
#: 18-25 s).
ITERATIONS_PER_SECOND = 12.0
#: Suite duration for the served model's training (paper 8x8 mesh).
TRAIN_DURATION_NS = 800.0


def client_plan(seed: int, client: int, iterations: int) -> list[dict]:
    """One client's seeded request sequence.

    Each item has the run request body, whether it repeats an earlier
    item (``repeat_of``), and the rows of its ``/predict`` calls.  Policy,
    benchmark and (topology, duration) pairs are dealt from shuffled
    decks, so every seed asks for nearly the same mix in another order and
    with other pairings; the run count and cache-hit count are fixed.  Fresh
    requests never coincide: their ``seed`` field is unique per client
    and iteration.
    """
    rng = random.Random(f"perfbench-serve:{seed}:{client}")
    decks: dict[str, list] = {}

    def deal(name: str, values: tuple):
        deck = decks.setdefault(name, [])
        if not deck:
            deck.extend(values)
            rng.shuffle(deck)
        return deck.pop()

    plan: list[dict] = []
    fresh: list[int] = []
    for i in range(iterations):
        repeat_of = None
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            repeat_of = rng.choice(fresh)
            body = dict(plan[repeat_of]["body"])
        else:
            fresh.append(i)
            topology, duration = deal("size", SERVE_SIZES)
            body = {
                "policy": deal("policy", SERVE_POLICIES),
                "benchmark": deal("benchmark", SERVE_BENCHMARKS),
                "topology": topology,
                "duration_ns": duration,
                "seed": 1 + client + CLIENTS * i,
            }
        predicts = [
            [[round(rng.random(), 6) for _ in range(PREDICT_FEATURES)]
             for _ in range(PREDICT_ROWS)]
            for _ in range(PREDICTS_PER_RUN)
        ]
        plan.append({"body": body, "repeat_of": repeat_of,
                     "predicts": predicts})
    return plan


def serve_iterations(seconds: int) -> int:
    """Client iterations for ``seconds``."""
    return max(1, round(ITERATIONS_PER_SECOND * seconds))


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _request(port: int, method: str, path: str, body=None,
             rid: str | None = None, timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"}
        if rid is not None:
            headers["X-Request-Id"] = rid
        raw = None if body is None else json.dumps(body)
        conn.request(method, path, body=raw, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"null")
    finally:
        conn.close()


@dataclass
class Server:
    """A ``dozznoc serve`` child process and its directories."""

    proc: subprocess.Popen
    port: int
    spans_path: Path
    weights: list[float]

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def train_and_promote(registry_dir: Path) -> list[float]:
    """Train the served ``dozznoc`` model, register and promote it."""
    from repro.common.config import SimConfig
    from repro.ml.training import train_policy_model
    from repro.models.registry import ModelRegistry
    from repro.traffic.suite import build_suite

    config = SimConfig.paper_mesh()
    suite = build_suite(num_cores=config.num_cores,
                        duration_ns=TRAIN_DURATION_NS, seed=0)
    result = train_policy_model("dozznoc", suite.train, suite.validation,
                                config)
    registry = ModelRegistry(registry_dir)
    record = registry.register_training_result(
        result, config, train_traces=suite.train,
        validation_traces=suite.validation, note="perfbench",
    )
    registry.promote(record.fingerprint)
    return list(registry.active("dozznoc").weights)


def serve_setup(workdir: Path, trace: bool) -> Server:
    """Fresh dirs, a trained and promoted model, a started server."""
    for name in ("cache", "registry"):
        (workdir / name).mkdir(parents=True, exist_ok=False)
    weights = train_and_promote(workdir / "registry")
    spans_path = workdir / "server-spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    for _attempt in range(3):
        port = _free_port()
        with open(workdir / "server.log", "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "serve_child.py"),
                 "--store", str(workdir / "serve.db"),
                 "--cache-dir", str(workdir / "cache"),
                 "--registry", str(workdir / "registry"),
                 "--port", str(port), "--trace", str(int(trace)),
                 "--spans", str(spans_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        split = cpu_split()
        if split is not None:
            try:
                os.sched_setaffinity(proc.pid, split[1])
            except ProcessLookupError:
                pass  # exited already; the health loop below sees it
        server = Server(proc, port, spans_path, weights)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                status, _ = _request(port, "GET", "/healthz", timeout=5.0)
                if status == 200:
                    return server
            except OSError:
                pass
            time.sleep(0.02)
        server.stop()
    raise RuntimeError(
        "dozznoc serve did not come up; see "
        f"{workdir / 'server.log'}:\n{(workdir / 'server.log').read_text()}")


def _client(server: Server, client: int, plan: list[dict],
            out: dict) -> None:
    import numpy as np
    from repro.models import batch_predict

    weights = np.asarray(server.weights, dtype=np.float64)
    run_ms, predict_ms, problems = [], [], []
    attempted = failed = 0
    first_metrics: dict[int, dict] = {}
    for i, item in enumerate(plan):
        rid = f"c{client}-{i}"
        attempted += 1
        t0 = perf_counter()
        try:
            status, payload = _request(server.port, "POST", "/runs",
                                       item["body"], rid=rid)
            if status != 202:
                raise RuntimeError(f"POST /runs -> {status} {payload}")
            job = payload["id"]
            deadline = time.monotonic() + JOB_TIMEOUT_S
            while True:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"job {job} not done after "
                                       f"{JOB_TIMEOUT_S:g} s")
                time.sleep(POLL_S)
                status, payload = _request(
                    server.port, "GET", f"/runs/{job}/status", rid=rid)
                if status != 200:
                    raise RuntimeError(f"status -> {status} {payload}")
                if payload["status"] in ("done", "failed", "interrupted"):
                    break
            if payload["status"] != "done":
                raise RuntimeError(f"job {job} ended {payload['status']}: "
                                   f"{payload.get('error')}")
            status, payload = _request(
                server.port, "GET", f"/runs/{job}/result", rid=rid)
            if status != 200 or payload.get("status") != "done":
                raise RuntimeError(f"result -> {status} {payload}")
            run_ms.append(1e3 * (perf_counter() - t0))
            metrics = payload["metrics"]
            origin = item["repeat_of"]
            if origin is None:
                first_metrics[i] = metrics
            elif first_metrics.get(origin) != metrics:
                raise RuntimeError(
                    f"repeat of request {origin} returned other metrics")
        except Exception as exc:  # noqa: BLE001 - counted, not raised
            failed += 1
            problems.append(f"{rid} run: {exc}")
        for rows in item["predicts"]:
            attempted += 1
            t0 = perf_counter()
            try:
                status, payload = _request(
                    server.port, "POST", "/predict",
                    {"policy": "dozznoc", "rows": rows}, rid=rid)
                predict_ms.append(1e3 * (perf_counter() - t0))
                want = batch_predict(np.asarray(rows), weights).tolist()
                if status != 200 or payload.get("predictions") != want:
                    raise RuntimeError(
                        f"/predict -> {status}, differs from batch_predict")
            except Exception as exc:  # noqa: BLE001
                failed += 1
                problems.append(f"{rid} predict: {exc}")
    out[client] = {
        "run_ms": run_ms, "predict_ms": predict_ms, "problems": problems,
        "attempted": attempted, "failed": failed,
    }


def cpu_split() -> tuple[set[int], set[int]] | None:
    """(client CPUs, server CPUs) on a machine with two or more CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


def serve_body(server: Server, seed: int, seconds: int) -> Outcome:
    """The closed loop: each client waits for every reply before the next.

    ``wall_s`` is the host time from starting the clients until the last
    one finishes.  The clients run on the first CPU, the server (pinned at
    start) on the others, so the scheduler does not place them
    differently per run.
    """
    iterations = serve_iterations(seconds)
    plans = [client_plan(seed, c, iterations) for c in range(CLIENTS)]
    results: dict[int, dict] = {}
    threads = [
        threading.Thread(target=_client,
                         args=(server, c, plans[c], results))
        for c in range(CLIENTS)
    ]
    saved = os.sched_getaffinity(0)
    split = cpu_split()
    if split is not None:
        os.sched_setaffinity(0, split[0])
    try:
        t0 = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = perf_counter() - t0
    finally:
        os.sched_setaffinity(0, saved)
    run_ms = [v for c in results.values() for v in c["run_ms"]]
    predict_ms = [v for c in results.values() for v in c["predict_ms"]]
    extra = {"runs_per_s": len(run_ms) / wall}
    for name, values in (("run_latency_ms", run_ms),
                         ("predict_latency_ms", predict_ms)):
        for q, label in ((0.5, "p50"), (0.9, "p90")):
            extra[f"{name}.{label}"] = nearest_rank(values, q)
    problems = [p for c in results.values() for p in c["problems"]]
    # A client thread that died took its whole plan with it.
    lost = (CLIENTS - len(results)) * iterations * (1 + PREDICTS_PER_RUN)
    if lost:
        problems.append(f"{CLIENTS - len(results)} client thread(s) died")
    return Outcome(
        wall_s=wall,
        attempted=sum(c["attempted"] for c in results.values()) + lost,
        failed=sum(c["failed"] for c in results.values()) + lost,
        problems=problems,
        extra=extra,
        samples={"run_latency_ms": len(run_ms),
                 "predict_latency_ms": len(predict_ms),
                 "runs_per_s": len(run_ms)},
    )


@dataclass(frozen=True)
class Workload:
    """One named workload; ``BENCHMARK.json`` says why each was chosen."""

    name: str
    kind: str  # "repro" or "serve"
    jobs: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("repro_cold", "repro", jobs=1),
        Workload("repro_cold_j2", "repro", jobs=2),
        Workload("serve_mixed", "serve"),
    )
}
