"""entgeo benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep|graph|suite|dense|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in a fresh worker
process (worker.py) with BLAS and OpenMP pinned to one thread and the
checkout's ``src`` first on PYTHONPATH. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. The line
before it carries the details: provenance, sample counts, p90 where a run
has enough samples, failing inputs, the output-guard result and the raw
wall times. End-to-end times are reported at the speed of a fixed reference
kernel run beside every op (reference.py), so that the shared host's speed
swings cancel out. Work files
go to ``.perfbench-work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

import reference
from tracer import layer_metrics

WORKLOAD_NAMES = ("sweep", "graph", "suite", "dense")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up is measured in this many set-up-only processes plus the worker itself
SETUP_PROCESSES = 8
SETUP_TIMEOUT_S = 30.0
# one workload run, set-up processes included, ends within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile_allowed(samples: int, q: float) -> bool:
    """True when at least 10 samples lie beyond the q-quantile's rank."""
    return samples - math.ceil(q * samples) >= 10


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and parse its last output line."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--t0", repr(t0), "--src", str(ROOT / "src")],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (details, result object)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--workdir", str(workdir)]
    setups: list[tuple[float, float]] = []
    if not trace:
        # set-up processes take turns on the allowed CPUs, as the worker's
        # ops do; each child inherits this process's affinity
        cpus = os.sched_getaffinity(0)
        try:
            for k in range(SETUP_PROCESSES):
                os.sched_setaffinity(0, {sorted(cpus)[k % len(cpus)]})
                timeout = min(SETUP_TIMEOUT_S, deadline - time.monotonic())
                setup = spawn(common + ["--mode", "setup"], timeout)
                setups.append((setup["setup_s"], setup["setup_ref_s"]))
        finally:
            os.sched_setaffinity(0, cpus)
    left = deadline - time.monotonic()
    doc = spawn(common + ["--mode", "trace" if trace else "run",
                          "--budget", str(max(left - 45.0, 1.0))], left)
    setups.append((doc["setup_s"], doc["setup_ref_s"]))

    ops = doc["ops"]
    wall = [op["seconds"] for op in ops]
    times = [reference.scale(op["seconds"], op["ref_unit_s"]) for op in ops]
    failed = sum(1 for op in ops if op["error"])
    guard = doc.get("guard")
    guard_ok = guard is None or (guard["compared"] >= 1 and not guard["mismatched_ops"])
    correct = (failed == 0 and not doc["untimed_failures"] and guard_ok
               and not doc.get("top_span_exceeds_op"))
    n = len(times)
    details = {
        "workload": name,
        "trace": int(trace),
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "platform": platform.platform(),
            **doc["versions"],
            "commit": git_commit(),
            "seed": seed,
            "run_seconds": seconds,
            "threads": THREAD_ENV,
            "ops": n,
            "warmup_ops": doc["warmup_ops"],
        },
        "failed_frac": failed / n,
        "failures": doc["failures"],
        "untimed_failures": doc["untimed_failures"],
        "guard": guard,
        "setup_s_samples": [s for s, _ in setups],
        "setup_ref_unit_s": [u for _, u in setups],
        "ref_unit_s_p50": statistics.median(op["ref_unit_s"] for op in ops),
    }
    if trace:
        details["traced_ops"] = doc["traced_ops"]
        details["untraced_ops"] = n - doc["traced_ops"]
        units = layer_metrics()
        metrics = {k: {"value": v, "unit": units[k][0]} for k, v in doc["per_layer"].items()}
    else:
        details["op_p50_ms"] = {"value": statistics.median(times) * 1e3, "samples": n}
        details["op_p50_ms_wall"] = statistics.median(wall) * 1e3
        details["op_p90_ms"] = (
            {"value": nearest_rank(times, 0.9) * 1e3, "samples": n}
            if percentile_allowed(n, 0.9) else
            {"value": None, "samples": n, "reason": "fewer than 10 samples beyond p90"})
        units = END_TO_END
        values = {
            "ops_per_s": (n - failed) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "peak_rss_mb": doc["maxrss_kb"] / 1024.0,
            "setup_s": statistics.median(reference.scale(s, u) for s, u in setups),
        }
        metrics = {k: {"value": v, "unit": units[k][0]} for k, v in values.items()}
    result = {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}
    return details, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "entgeo" / "__init__.py").is_file():
        print(f"error: no entgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the worker and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = ROOT / ".perfbench-work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            details, result = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), workdir)
            print(json.dumps(details, sort_keys=True))
            if len(names) > 1:
                print(json.dumps(result))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][key if len(names) == 1 else f"{name}.{key}"] = metric
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
