"""Benchmark of nvbmesh, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of uniform-cli, adaptive-random, red-corr, h1-sequence, or
``all``, which runs every workload with their passes interleaved.  Each
workload runs in a fresh child process (worker.py) with BLAS threads
pinned to 1, importing nvbmesh from ``src/`` of this checkout.  The run
sets the workload up SETUPS times (``setup_s`` is the median: child start
to ready, i.e. import plus input generation), then runs passes until they
have measured S seconds.  Every pass checks its outputs; see workloads.py.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it runs one warm-up pass, then untraced and traced passes in turn, and
reports the per-layer metrics of the traced ones and the tracing overhead.  The metric names and units
are those of BENCHMARK.json at the root of the checkout.  All metrics are
printed one a line, then the environment, and the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Raw pass data
and traced spans go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uniform-cli", "adaptive-random", "red-corr", "h1-sequence")
SETUPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "elements_per_s": "1/s", "verify_s": "s", "step_ms.p50": "ms",
         "step_ms.p90": "ms", "ops_failed_ratio": "fraction",
         "h1_max_rel_error": "fraction"}
# per-layer metrics that are not a tracer key of the same name
LAYER_ALIASES = {"stability.mass_solves": "stability.mass_solve.calls"}


class Child:
    """A worker process; its set-up time runs from spawn to ready."""

    def __init__(self, workload: str, seed: int, workdir: Path, env: dict,
                 setup_only: bool = False):
        self.workload = workload
        started = time.perf_counter()
        argv = [sys.executable, str(HERE / "worker.py"), "--workload",
                workload, "--seed", str(seed), "--workdir", str(workdir)]
        self.proc = subprocess.Popen(
            argv + (["--setup-only"] if setup_only else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT)
        self.receive()
        self.setup_s = time.perf_counter() - started

    def request(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.workload} worker exited with code "
                               f"{self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        """End the worker: it exits at the end of its stdin; one still busy
        after 10 s is terminated, and killed after 10 s more."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def next_command(passes: list[dict], trace: bool) -> str:
    """Untraced passes; with tracing, a warm-up pass and then untraced and
    traced passes in turn, so that the overhead compares warm passes."""
    if not trace:
        return "pass"
    if not passes:
        return "warmup"
    return "pass" if len(passes) % 2 else "traced"


def measure(names, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up each workload, then run their passes interleaved."""
    env = child_env()
    runs = {name: {"setup_s": [], "passes": []} for name in names}
    children: dict[str, Child] = {}
    try:
        for name in names:
            for _ in range(0 if trace else SETUPS - 1):
                child = Child(name, seed, workdir, env, setup_only=True)
                child.close()
                runs[name]["setup_s"].append(child.setup_s)
            children[name] = Child(name, seed, workdir, env)
            runs[name]["setup_s"].append(children[name].setup_s)
        pending = list(names)
        while pending:
            for name in list(pending):
                passes = runs[name]["passes"]
                command = next_command(passes, trace)
                result = children[name].request(
                    "pass" if command == "warmup" else command)
                result["command"] = command
                passes.append(result)
                counted = [p for p in passes if p["command"] != "warmup"]
                if (sum(p["wall_s"] for p in counted) >= seconds
                        and len(counted) >= 1 + trace):
                    pending.remove(name)
        for name, child in children.items():
            runs[name]["done"] = child.request("quit")
    finally:
        for child in children.values():
            child.close()
    return runs


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(run: dict) -> dict[str, float]:
    plain = [p for p in run["passes"] if p["command"] == "pass"]
    m = {"wall_s": median(p["wall_s"] for p in plain),
         "setup_s": median(run["setup_s"]),
         "peak_rss_mb": run["done"]["peak_rss_mb"],
         "elements_per_s": median(p["new_elements"] / p["refine_s"]
                                  for p in plain if "new_elements" in p),
         "verify_s": median(p["verify_s"] for p in plain if "verify_s" in p)}
    steps = sorted(s for p in plain for s in p["step_ms"])
    if steps:
        m["step_ms.p50"] = statistics.median(steps)
        p90 = statistics.quantiles(steps, n=10)[-1] if len(steps) > 1 else 0
        if sum(s > p90 for s in steps) >= 10:
            m["step_ms.p90"] = p90
    attempted = sum(p["attempted"] for p in run["passes"])
    m["ops_failed_ratio"] = sum(p["failed"] for p in run["passes"]) / attempted
    m["h1_max_rel_error"] = median(p["h1_max_rel_error"] for p in plain
                                   if "h1_max_rel_error" in p)
    return {k: v for k, v in m.items() if v is not None}


def per_layer(run: dict, names) -> dict[str, float]:
    plain = [p for p in run["passes"] if p["command"] == "pass"]
    traced = [p for p in run["passes"] if p["command"] == "traced"]

    def value(p: dict, name: str) -> float:
        layers = p["layers"]
        if name == "refine.refined_per_marked":
            marked = layers.get("refine.marked", 0)
            return layers.get("refine.refined", 0) / marked if marked else 0.0
        if name == "stability.h1_max_rel_error":
            return p.get("h1_max_rel_error", 0.0)
        return layers.get(LAYER_ALIASES.get(name, name), 0)

    m = {name: median(value(p, name) for p in traced) for name in names
         if name != "trace.overhead_s"}
    m["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                             - median(p["wall_s"] for p in plain))
    return m


def main() -> int:
    parser = argparse.ArgumentParser(
        description="nvbmesh benchmark; see the module docstring")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # end through the finally clauses, which stop the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nvbmesh" / "__init__.py").is_file():
        print(f"error: no nvbmesh sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    units = {**UNITS, **listed}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = ROOT / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    runs = measure(names, args.seed, args.seconds, bool(args.trace), workdir)

    attempted = failed = 0
    correct = True
    reported = {}
    for name in names:
        run = runs[name]
        metrics = (per_layer(run, listed) if args.trace else end_to_end(run))
        reported[name] = metrics
        attempted += sum(p["attempted"] for p in run["passes"])
        failed += sum(p["failed"] for p in run["passes"])
        correct = correct and all(p["failed"] == 0 and p.get("restored", True)
                                  for p in run["passes"])
        walls = " ".join(f"{p['wall_s']:.3f}" for p in run["passes"])
        print(f"{name}: {len(run['passes'])} passes ({walls} s), "
              f"setups {' '.join(f'{s:.3f}' for s in run['setup_s'])} s")
        for p in run["passes"]:
            for failure in p["failures"]:
                print(f"{name}: FAILED {failure}")
        for metric, value in metrics.items():
            print(f"{name:16} {metric:40} {value:16.6f} {units[metric]}")
    done = runs[names[0]]["done"]
    env = {"python": done["python"], "numpy": done["numpy"],
           "scipy": done["scipy"], "nproc": os.cpu_count(),
           "threads": {var: "1" for var in THREAD_VARS}}
    print("environment: " + json.dumps(env))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workdir / f"result-{tag}.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "runs": runs}, indent=1))

    if args.workload == "all":
        flat = {f"{w}.{k}": (v, units[k]) for w in names
                for k, v in reported[w].items()}
    else:
        flat = {k: (v, units[k]) for k, v in reported[names[0]].items()
                if k in listed}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in flat.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
