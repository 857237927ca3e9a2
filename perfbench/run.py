"""fracharm benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload run-1d --seed 1000 --seconds 45 --trace 0

Run from the repository root.  Every workload execution is a fresh
interpreter started by this process, one at a time; nothing runs in
parallel.  A run

1. times ``SETUP_REPEATS`` fresh interpreters that only ``import
   fracharm.cli`` (``setup_s`` is their median);
2. for a warm-cache workload, fills the symbol cache under ``.bench_build``
   with one untimed execution, once per checkout;
3. repeats the workload until ``--seconds`` have passed, and checks every
   execution's outputs (see ``checks.py``).

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (wall
time of the run's fastest execution, interpreter start to exit), ``setup_s``
and ``peak_rss_mb`` (median ``ru_maxrss`` of an execution), and prints the
median, quartiles and count of each.  With ``--trace 1``
it alternates untraced and traced executions (``traced.py``) and reports the
per-layer metrics.  Human-readable lines come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn.

Executions write under ``.bench_build/perfbench`` in the current directory
and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
import traced
import workloads

SETUP_REPEATS = 5
# The reported wall_s of a run is the fastest of its executions.  On a
# shared 2-core machine other tenants slow a CPU-bound process by up to 1.7x
# for tens of seconds at a time; that noise only ever adds time, and the
# fastest execution of a run varies far less from run to run than the median.
WALL_STATISTIC = min
EXECUTION_TIMEOUT_S = 150


class ExecutionTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ExecutionTimeout


def execute(cmd: list[str], env: dict, log_dir: str) -> dict:
    """Run one process to its end; wall time, peak RSS, exit code, stderr."""
    os.makedirs(log_dir, exist_ok=True)
    with open(os.path.join(log_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(log_dir, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(EXECUTION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ExecutionTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(log_dir, "stderr.txt"), errors="replace") as fh:
        stderr = fh.read()
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode, "stderr": stderr}


class Bench:
    """Paths and environment of the benchmark inside one checkout."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.work = os.path.join(root, ".bench_build", "perfbench")
        self.warm_cache = os.path.join(self.work, "symbol-cache")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def setup_s(self) -> list[float]:
        cmd = [sys.executable, "-c", "import fracharm.cli"]
        log = os.path.join(self.work, "setup")
        runs = [execute(cmd, self.env, log) for _ in range(SETUP_REPEATS)]
        if any(r["exit_code"] != 0 for r in runs):
            raise RuntimeError("import fracharm.cli failed:\n" + runs[0]["stderr"])
        return [r["wall_s"] for r in runs]

    def _fresh_dir(self, workload: str, name: str) -> str:
        path = os.path.join(self.work, "runs", workload, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def execution(self, workload: str, seed: int, trace: bool) -> dict:
        """One execution of a workload, with its checked result."""
        out_dir = self._fresh_dir(workload, "traced" if trace else "plain")
        env = dict(self.env)
        env["FRACHARM_CACHE_DIR"] = (
            self.warm_cache if workloads.WARM_CACHE[workload]
            else os.path.join(out_dir, "symbol-cache"))
        module, argv = workloads.program_args(workload, seed, out_dir)
        trace_path = os.path.join(out_dir, "trace.json")
        cmd = (workloads.traced_command(module, argv, trace_path) if trace
               else workloads.untraced_command(module, argv))
        run = execute(cmd, env, out_dir)
        run["result"] = workloads.collect(workload, out_dir, run["exit_code"])
        if trace and os.path.exists(trace_path):
            with open(trace_path) as fh:
                run["trace"] = json.load(fh)
        return run

    def warm_up(self, workload: str, seed: int) -> None:
        marker = os.path.join(self.work, f"warm-{workload}")
        if workloads.WARM_CACHE[workload] and not os.path.exists(marker):
            self.execution(workload, seed, trace=False)
            with open(marker, "w") as fh:
                fh.write("symbol cache filled\n")


def per_layer_metrics(traces: list[dict], traced_walls: list[float],
                      plain_walls: list[float]) -> dict:
    """Per-layer metrics as medians over the traced executions."""
    def med(get):
        return statistics.median(get(t) for t in traces)

    m = {}
    for layer in traced.LAYERS:
        for fn in traced.REPORTED[layer]:
            key = f"{layer}.{fn}"
            m[f"{key}.calls"] = (med(lambda t: t["functions"][key]["calls"]), "count")
            m[f"{key}.self_s"] = (med(lambda t: t["functions"][key]["self_s"]), "s")
        m[f"{layer}.self_s"] = (med(lambda t: t["layers"][layer]["self_s"]), "s")
        m[f"{layer}.fft_calls"] = (med(lambda t: t["layers"][layer]["fft_calls"]), "count")
        m[f"{layer}.roll_calls"] = (med(lambda t: t["layers"][layer]["roll_calls"]), "count")
    builds = med(lambda t: t["functions"]["extension.s_poisson_symbol"]["calls"])
    gets = med(lambda t: t["functions"]["extension.get_symbol"]["calls"])
    m["extension.symbol_builds"] = (builds, "count")
    m["extension.symbol_hit_ratio"] = (1.0 - builds / gets if gets else 0.0, "ratio")
    for est in workloads.ALL_ESTIMATES:
        m[f"commutators.verify_s.{est}"] = (
            med(lambda t: t["verify_s"].get(est, 0.0)), "s")
    m["trace.overhead_s"] = (
        WALL_STATISTIC(traced_walls) - WALL_STATISTIC(plain_walls), "s")
    m["trace.coverage"] = (statistics.median(
        t["in_spans_s"] / w for t, w in zip(traces, traced_walls)), "ratio")
    return m


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(bench: Bench, workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[tuple[str, bool]], list[str]]:
    """Metrics, checks and human-readable lines of one workload run."""
    reference = checks.load_reference(workload, seed)
    setup = bench.setup_s()
    bench.warm_up(workload, seed)

    plain, traced_runs, made = [], [], []
    start = time.perf_counter()
    while True:
        run = bench.execution(workload, seed, trace=False)
        plain.append(run)
        made += checks.check(workload, run["result"], run["stderr"], reference)
        if trace:
            trun = bench.execution(workload, seed, trace=True)
            traced_runs.append(trun)
            made += checks.check(workload, trun["result"], trun["stderr"],
                                 reference)
            made.append(("trace:transparent", trun["result"] == run["result"]
                         and "trace" in trun))
        if time.perf_counter() - start >= seconds:
            break

    walls = [r["wall_s"] for r in plain]
    failed = [name for name, ok in made if not ok]
    lines = [f"workload {workload} seed {seed} "
             f"reference {'recorded' if reference else 'none (invariants only)'}"]
    if not trace:
        # (samples, unit, reported statistic); see WALL_STATISTIC
        series = {"wall_s": (walls, "s", WALL_STATISTIC),
                  "setup_s": (setup, "s", statistics.median),
                  "peak_rss_mb": ([r["peak_rss_mb"] for r in plain], "MB",
                                  statistics.median)}
        metrics = {}
        for name, (vals, unit, stat) in series.items():
            metrics[name] = (stat(vals), unit)
            q1, q3 = _quartiles(vals)
            lines.append(f"  {name:<12} {stat(vals):.4f} {unit} ({stat.__name__})  "
                         f"median {statistics.median(vals):.4f}  q1 {q1:.4f}  "
                         f"q3 {q3:.4f}  n {len(vals)}")
    else:
        done = [r for r in traced_runs if "trace" in r]
        metrics = per_layer_metrics([r["trace"] for r in done],
                                    [r["wall_s"] for r in done], walls)
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:<48} {value:.6g} {unit}")
        absent = traced_runs[0].get("trace", {}).get("absent", [])
        lines.append(f"  absent functions: {', '.join(absent) or 'none'}")
    lines.append(f"  fail_frac    {len(failed) / len(made):.4f} ratio  "
                 f"({len(failed)}/{len(made)} checks failed)")
    lines += [f"  FAILED {name}" for name in failed[:20]]
    return metrics, made, lines


def environment_line(root: str) -> str:
    src = os.path.join(root, "src", "fracharm")
    src_lines = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return (f"env cores={os.cpu_count()} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} "
            f"scipy={metadata.version('scipy')} src_lines={src_lines}")


def main() -> int:
    ap = argparse.ArgumentParser(description="fracharm benchmark")
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracharm", "cli.py")):
        print("perfbench: src/fracharm not found; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root)
    print(environment_line(root), flush=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, made = {}, []
    for workload in names:
        m, c, lines = measure(bench, workload, args.seed, args.seconds,
                              bool(args.trace))
        print("\n".join(lines), flush=True)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        made += c
    failed = sum(1 for _, ok in made if not ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(made),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
