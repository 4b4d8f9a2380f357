"""The repository benchmark: one command per workload, run from the repo root.

Measure (end-to-end metrics, tracing off)::

    python3 perfbench/run.py --workload repro_cold --seed 0 --seconds 20 --trace 0

Trace (per-layer metrics; also runs one untraced pass for the overhead)::

    python3 perfbench/run.py --workload serve_mixed --seed 0 --seconds 20 --trace 1

Fold a traced result into the per-layer table, run one workload over
several seeds, or compare two results::

    python3 perfbench/run.py report .perfbench/results/<name>.json [--j1 FILE]
    python3 perfbench/run.py sweep --workload repro_cold --seeds 0-9 [--out F]
    python3 perfbench/run.py compare OLD.json NEW.json

Workloads are listed in ``BENCHMARK.json``; ``workloads.py`` says what
each does.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
under ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from stats import relative_iqr  # noqa: E402
from tracer import Tracer, leftover_wrappers, read_spill  # noqa: E402

SCRATCH = Path(".perfbench")
RESULTS = SCRATCH / "results"
#: Fresh interpreters that repeat the set-up, besides the run's own.
SETUP_PROBES = {"repro": 8, "serve": 2}
EXPECTED_KERNEL = "ArraySimulator"

#: How each ratio is formed (printed with the tables).
RATIO_BASES = {
    "noc.router_cycles_per_s":
        "nominal routers x elapsed ns x 2.25 GHz, summed over runs, "
        "/ noc.busy_s (kernel seconds summed over processes)",
    "exec.cache.hit_ratio": "exec.cache.hits / exec.cache.gets",
    "exec.pool.parallel_efficiency":
        "pool task seconds (inline task spans + pool-worker root spans) "
        "/ (jobs x exec.pool.wait_s)",
    "trace.overhead_frac":
        "traced wall_s / untraced wall_s - 1 (both cold, same process)",
    "share_of_wall": "layer busy_s / traced wall_s",
    "ops_failed_frac": "failed / attempted",
    "runs_per_s": "completed run jobs / wall_s",
}


class Refused(Exception):
    """The benchmark will not report (kernel-identity guard)."""


# ---------------------------------------------------------------------- #
# Machine stamp, RSS sampling
# ---------------------------------------------------------------------- #


def tree_digest(base: Path) -> str:
    """Digest of every ``.py`` file under ``base`` (names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        h.update(path.relative_to(base).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp() -> dict:
    """Machine fields (must match to compare) plus the code identity."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "commit": commit,
        "code": tree_digest(Path("src")),
        "bench": tree_digest(HERE),
    }


def _descendants(root: int) -> set[int]:
    """Pids of every live descendant of ``root`` (one scan of /proc)."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = set(), [root]
    while frontier:
        pid = frontier.pop()
        for child, parent in parent_of.items():
            if parent == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    return tree


def _rss_bytes(pids) -> int:
    total = 0
    for pid in pids:
        try:
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1])
        except (OSError, IndexError, ValueError):
            pass
    return total * os.sysconf("SC_PAGE_SIZE")


class RssSampler:
    """Peak resident memory of this process plus its children.

    The sum is sampled every 0.1 s; the set of children is rescanned once
    a second, which keeps the sampler's own cost far below the noise.
    This process's own peak between samples comes from ``ru_maxrss``.
    """

    def __init__(self, interval: float = 0.1, rescan: float = 1.0) -> None:
        self.interval = interval
        self.rescan = rescan
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self, pids) -> None:
        self.peak = max(self.peak, _rss_bytes(pids))

    def _loop(self) -> None:
        me = os.getpid()
        scanned = float("-inf")
        while True:
            if perf_counter() - scanned >= self.rescan:
                pids = {me} | _descendants(me)
                scanned = perf_counter()
            self._sample(pids)
            if self._stop.wait(self.interval):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        me = os.getpid()
        self._sample({me} | _descendants(me))
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        self.peak = max(self.peak, own)

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


# ---------------------------------------------------------------------- #
# One measured pass
# ---------------------------------------------------------------------- #


def _setup(workload, workdir: Path, trace: bool = False):
    """Run the workload's set-up; returns (seconds, server or None)."""
    t0 = perf_counter()
    if workload.kind == "repro":
        workloads.repro_setup(workdir)
        return perf_counter() - t0, None
    import repro.serve  # noqa: F401 - the set-up's imports
    server = workloads.serve_setup(workdir, trace=trace)
    return perf_counter() - t0, server


def _probe_setup(workload) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "_probe", workload.name],
        capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _pass(workload, args, workdir: Path, tracer: Tracer | None):
    """Set up, run and check one body; returns (setup_s, outcome, rss, spans)."""
    workdir.mkdir(parents=True)
    setup_s, server = _setup(workload, workdir, trace=tracer is not None)
    spans: list[dict] = []
    try:
        with RssSampler() as rss:
            if workload.kind == "repro":
                if tracer is not None:
                    layers.install_repro(tracer)
                try:
                    outcome = workloads.repro_body(
                        workdir, workload.jobs,
                        write_expected=args.write_expected)
                finally:
                    if tracer is not None:
                        tracer.restore()
                        tracer.close()
                if tracer is not None:
                    spans = tracer.records() + read_spill(tracer.spill_dir)
            else:
                outcome = workloads.serve_body(server, args.seed, args.seconds)
    finally:
        if server is not None:
            server.stop()
    if server is not None and tracer is not None:
        payload = json.loads(server.spans_path.read_text())
        spans = payload["spans"]
        outcome.extra["server_pid"] = payload["pid"]
        outcome.extra["server_leftover_wrappers"] = payload["leftover"]
    if server is not None and server.proc.returncode != 0:
        outcome.failed += 1
        outcome.problems.append(
            f"server exited {server.proc.returncode}")
    return setup_s, outcome, rss.peak_mb, spans


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def load_spec() -> dict:
    path = Path("BENCHMARK.json")
    if not path.exists():
        raise SystemExit("BENCHMARK.json not found in the current directory")
    return json.loads(path.read_text())


def e2e_metrics(outcome, setup_samples, peak_mb) -> tuple[dict, dict]:
    """Every end-to-end figure of this run, and its sample counts."""
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": outcome.wall_s,
        "peak_rss_mb": peak_mb,
        "ops_failed_frac": outcome.failed / max(outcome.attempted, 1),
    }
    samples = {"setup_s": len(setup_samples), "wall_s": 1, "peak_rss_mb": 1,
               "ops_failed_frac": outcome.attempted}
    for key in ("run_latency_ms.p50", "run_latency_ms.p90",
                "predict_latency_ms.p50", "predict_latency_ms.p90",
                "runs_per_s"):
        if key in outcome.extra:
            values[key] = outcome.extra[key]
            samples[key] = outcome.samples.get(key.split(".")[0])
    return values, samples


UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "ops_failed_frac": "ratio", "run_latency_ms.p50": "ms",
    "run_latency_ms.p90": "ms", "predict_latency_ms.p50": "ms",
    "predict_latency_ms.p90": "ms", "runs_per_s": "1/s",
}


def kernel_guard(workload, args, metrics: dict, spans: list[dict],
                 st: dict) -> None:
    """Refuse when a run used another kernel, or counts moved.

    Counts are compared with every earlier traced result of the same code
    and inputs (the committed baseline included); repro workloads at
    jobs 1 and 2 must agree with each other too.
    """
    index = layers.SpanIndex(spans)
    kernels = {(s["attrs"] or {}).get("kernel") for s in layers.noc_runs(index)}
    if kernels - {EXPECTED_KERNEL}:
        raise Refused(f"runs used {sorted(map(str, kernels))}; the workload "
                      f"names {EXPECTED_KERNEL}")
    key = _guard_key(workload, args, st)
    candidates = list(RESULTS.glob("*.json")) + \
        list((HERE / "baseline").glob("*.json"))
    for path in candidates:
        try:
            other = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        for result in other.get("traced", [other]):
            if result.get("guard_key") != key:
                continue
            for name in ("noc.runs", "noc.router_cycles"):
                if result["layer_metrics"].get(name) != metrics[name]:
                    raise Refused(
                        f"{name} = {metrics[name]} here but "
                        f"{result['layer_metrics'].get(name)} in {path} "
                        "for the same code and inputs")


def _guard_key(workload, args, st) -> str:
    if workload.kind == "repro":
        inputs = "repro"
    else:
        inputs = f"serve:{args.seed}:{args.seconds}"
    return f"{inputs}:{st['code']}:{st['bench']}"


def per_layer(index, outcome, workload, wall_untraced, main_pid) -> dict:
    m = layers.layer_metrics(index, main_pid, workload.jobs)
    for exp_id in workloads.repro_selection():
        m[f"experiments.{exp_id}_s"] = outcome.extra.get(
            f"experiments.{exp_id}_s", 0.0)
    m["trace.overhead_frac"] = outcome.wall_s / wall_untraced - 1.0
    return m


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_layer_table(table: list[dict], metrics: dict, wall_s: float) -> None:
    print(f"per-layer table (share of traced wall_s = {wall_s:.3f} s; "
          "busy counts outermost spans per layer, self subtracts children):")
    print(f"  {'layer':<12} {'spans':>7} {'busy_s':>10} {'self_s':>10} "
          f"{'share':>7}")
    for row in table:
        print(f"  {row['layer']:<12} {row['count']:>7} {row['busy_s']:>10.3f} "
              f"{row['self_s']:>10.3f} {row['share_of_wall']:>7.1%}")
    print("per-layer metrics:")
    for name in sorted(metrics):
        print(f"  {name:<44} {_fmt(metrics[name])}")
    print("ratio bases:")
    for name, base in RATIO_BASES.items():
        print(f"  {name}: {base}")


def final_line(correct, outcome, metric_specs, values) -> str:
    metrics = {}
    for spec in metric_specs:
        value = values.get(spec["name"])
        metrics[spec["name"]] = {
            "value": 0.0 if value is None else value, "unit": spec["unit"]}
    return json.dumps({
        "correct": bool(correct), "attempted": int(outcome.attempted),
        "failed": int(outcome.failed), "metrics": metrics,
    })


# ---------------------------------------------------------------------- #
# Commands
# ---------------------------------------------------------------------- #


def cmd_run(args) -> int:
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]
    root = SCRATCH / f"work-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    # Set-up probes go half before and half after the body, so they
    # sample the host over the whole run rather than one moment of it.
    probes = 0 if args.trace else SETUP_PROBES[workload.kind]
    try:
        setup_samples = [_probe_setup(workload) for _ in range(probes // 2)]
        setup_s, outcome, peak_mb, _ = _pass(
            workload, args, root / "a", tracer=None)
        setup_samples.append(setup_s)
        setup_samples += [_probe_setup(workload)
                          for _ in range(probes - probes // 2)]
        st = stamp()
        result = {
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "stamp": st,
        }
        values, samples = e2e_metrics(outcome, setup_samples, peak_mb)
        result.update(e2e=values, samples=samples,
                      setup_samples=setup_samples, extra=outcome.extra)
        print(f"workload {workload.name} (seed {args.seed}, seconds "
              f"{args.seconds}, trace {args.trace}) on {st['machine']}, "
              f"code {st['code']}, commit {st['commit'][:12]}")
        print("end-to-end metrics (tracing off):")
        for name, value in values.items():
            print(f"  {name:<24} {_fmt(value):>12} {UNITS[name]:<6} "
                  f"n={samples[name]}")
        if args.trace:
            tracer = Tracer(spill_dir=root / "spill")
            (root / "spill").mkdir(parents=True)
            _, traced, _, spans = _pass(workload, args, root / "b", tracer)
            outcome.attempted += traced.attempted
            outcome.failed += traced.failed
            outcome.problems += traced.problems
            left = leftover_wrappers() + traced.extra.get(
                "server_leftover_wrappers", [])
            if left:
                raise Refused(f"wrappers left in place: {left}")
            index = layers.SpanIndex(spans)
            main_pid = traced.extra.get("server_pid", os.getpid())
            metrics = per_layer(index, traced, workload, values["wall_s"],
                                main_pid)
            kernel_guard(workload, args, metrics, spans, st)
            table = layers.layer_table(index, traced.wall_s)
            name = f"{workload.name}-seed{args.seed}-trace"
            spans_path = RESULTS / f"{name}.spans.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
            result.update(
                guard_key=_guard_key(workload, args, st),
                traced_wall_s=traced.wall_s, layer_metrics=metrics,
                layer_table=table, spans=str(spans_path),
                main_pid=main_pid, jobs=workload.jobs,
            )
            print_layer_table(table, metrics, traced.wall_s)
            metric_specs, final_values = spec["per_layer"], metrics
        else:
            name = f"{workload.name}-seed{args.seed}"
            metric_specs, final_values = spec["end_to_end"], values
        correct = outcome.failed == 0 and not outcome.problems
        result.update(correct=correct, attempted=outcome.attempted,
                      failed=outcome.failed, problems=outcome.problems)
        out = Path(args.out) if args.out else RESULTS / f"{name}.json"
        out.write_text(json.dumps(result, indent=1, sort_keys=True))
        print(f"ops: {outcome.attempted} attempted, {outcome.failed} failed")
        for problem in outcome.problems[:20]:
            print(f"  problem: {problem}")
        print(f"result: {out}")
        print(final_line(correct, outcome, metric_specs, final_values))
        return 0 if correct else 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


def cmd_probe(args) -> int:
    """Internal: one set-up in this fresh interpreter, printed as JSON."""
    workload = workloads.WORKLOADS[args.workload]
    root = SCRATCH / f"work-{os.getpid()}"
    try:
        root.mkdir(parents=True)
        setup_s, server = _setup(workload, root)
        if server is not None:
            server.stop()
        print(json.dumps({"setup_s": setup_s}))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0


def cmd_report(args) -> int:
    """Re-fold a traced result's spans into the per-layer table."""
    result = json.loads(Path(args.result).read_text())
    if "layer_metrics" not in result:
        raise SystemExit(f"{args.result} is not a traced result (--trace 1)")
    spans_path = Path(result["spans"])
    workload = workloads.WORKLOADS[result["workload"]]
    if spans_path.exists():
        spans = [json.loads(line) for line in
                 spans_path.read_text().splitlines() if line.strip()]
        index = layers.SpanIndex(spans)
        table = layers.layer_table(index, result["traced_wall_s"])
        metrics = dict(result["layer_metrics"])
        metrics.update(layers.layer_metrics(index, result["main_pid"],
                                            workload.jobs))
    else:
        table, metrics = result["layer_table"], result["layer_metrics"]
    print(f"{result['workload']} seed {result['seed']} "
          f"(code {result['stamp']['code']})")
    print_layer_table(table, metrics, result["traced_wall_s"])
    if args.j1:
        j1 = json.loads(Path(args.j1).read_text())
        inline = j1["layer_metrics"]["exec.pool.wait_s"]
        wait = metrics["exec.pool.wait_s"]
        print(f"exec.pool.parallel_efficiency (jobs-1 pool seconds "
              f"{inline:.3f} / (2 x jobs-2 exec.pool.wait_s {wait:.3f})): "
              f"{inline / (2 * wait):.3f}")
    return 0


def _runs_of(path: Path) -> tuple[dict, list[dict]]:
    data = json.loads(path.read_text())
    runs = data.get("runs", [data])
    return runs[0]["stamp"], runs


def _bounds() -> dict:
    return {m["name"]: m for m in load_spec()["end_to_end"]}


def cmd_compare(args) -> int:
    """Medians of two result sets, per end-to-end figure, against bounds."""
    bounds = _bounds()
    (sa, ra), (sb, rb) = _runs_of(Path(args.old)), _runs_of(Path(args.new))
    if sa["machine"] != sb["machine"]:
        print(f"refusing: machine stamps differ:\n  {sa['machine']}\n  "
              f"{sb['machine']}")
        return 2
    print(f"old: code {sa['code']} ({len(ra)} run(s)); "
          f"new: code {sb['code']} ({len(rb)} run(s))")
    for name, unit in UNITS.items():
        a = [r["e2e"][name] for r in ra if r["e2e"].get(name) is not None]
        b = [r["e2e"][name] for r in rb if r["e2e"].get(name) is not None]
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else 0.0
        spread = f"{relative_iqr(a):.1%}" if len(a) >= 2 else "-"
        line = (f"  {name:<24} old {ma:.5g} new {mb:.5g} {unit:<5} "
                f"change {change:+.1%} (old IQR/median {spread}")
        spec = bounds.get(name)
        if spec is not None:
            worse = change if spec["better"] == "lower" else -change
            line += f", bound {spec['bound']:.0%}"
            if worse > spec["bound"]:
                line += ", WORSE"
        print(line + ")")
    return 0


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _child_run(args, seed: int, trace: int, out: Path) -> dict | None:
    """One benchmark run in a fresh interpreter; its result, or None."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(seed), "--seconds", str(args.seconds),
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
        return None
    return json.loads(out.read_text())


def cmd_sweep(args) -> int:
    """One fresh run per seed; print each figure's median and spread.

    With ``--out`` the runs (and, with ``--traced``, one traced run of the
    first seed) are written as one file that ``compare`` and the kernel
    guard read.
    """
    bounds = _bounds()
    seeds = _seeds(args.seeds)
    runs = []
    for seed in seeds:
        result = _child_run(args, seed, 0,
                            RESULTS / f"sweep-{args.workload}-{seed}.json")
        if result is None:
            return 1
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {_fmt(v)}" for k, v in result["e2e"].items()), flush=True)
    summary = {}
    for name, unit in UNITS.items():
        values = [r["e2e"][name] for r in runs
                  if r["e2e"].get(name) is not None]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = relative_iqr(values)
        summary[name] = {"median": statistics.median(values), "q1": q1,
                         "q3": q3, "iqr_over_median": spread, "unit": unit,
                         "n": len(values)}
        line = (f"  {name:<24} median {_fmt(summary[name]['median'])} "
                f"{unit} IQR/median {spread:.1%}")
        if name in bounds:
            bound = bounds[name]["bound"]
            line += (f" (bound {bound:.0%}; below a third of it: "
                     f"{'yes' if spread < bound / 3 else 'NO'})")
        print(line)
    if args.out:
        payload = {"workload": args.workload, "seconds": args.seconds,
                   "runs": runs, "summary": summary}
        if args.traced:
            traced = _child_run(
                args, seeds[0], 1,
                RESULTS / f"sweep-{args.workload}-traced.json")
            if traced is None:
                return 1
            traced.pop("spans", None)
            payload["traced"] = [traced]
        Path(args.out).write_text(json.dumps(payload, indent=1,
                                             sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not Path("src/repro").is_dir():
        print("perfbench: run from the repository root (src/repro not "
              "found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    if argv and argv[0] in ("report", "compare", "sweep", "_probe"):
        parser = argparse.ArgumentParser(prog="perfbench")
        sub = parser.add_subparsers(dest="cmd", required=True)
        p = sub.add_parser("report")
        p.add_argument("result")
        p.add_argument("--j1", help="traced repro_cold result, for the "
                       "cross-run parallel efficiency of a jobs-2 result")
        p = sub.add_parser("compare")
        p.add_argument("old")
        p.add_argument("new")
        p = sub.add_parser("sweep")
        p.add_argument("--workload", required=True,
                       choices=sorted(workloads.WORKLOADS))
        p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
        p.add_argument("--seconds", type=int, default=20)
        p.add_argument("--traced", action="store_true",
                       help="add one traced run of the first seed")
        p.add_argument("--out", help="write runs and summary here")
        p = sub.add_parser("_probe")
        p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
        args = parser.parse_args(argv)
        return {"report": cmd_report, "compare": cmd_compare,
                "sweep": cmd_sweep, "_probe": cmd_probe}[args.cmd](args)
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's manifest as the committed "
                        "expectation (repro workloads)")
    args = parser.parse_args(argv)
    try:
        return cmd_run(args)
    except Refused as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
