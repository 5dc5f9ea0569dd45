"""One workload in a fresh process: a closed loop with one client.

Started by run.py, which pins BLAS/OpenMP threads to 1 and puts the
checkout's ``src`` first on PYTHONPATH. Prints one JSON object as its last
line of standard output.

Modes:
  setup  import entgeo and build the first input, report the set-up time
  run    warm up with one op, time ops for --seconds, then re-run op 0 and
         compare output bytes
  trace  warm up, time ops untraced for --seconds/4 and traced for
         --seconds/4 (same inputs, output bytes compared), then one op per
         kind under tracemalloc for span peaks
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import entgeo

import reference
from tracer import (
    LAYERS,
    MAX_DIM_SPANS,
    PEAK_SPANS,
    SPAN_NAMES,
    LayerTotals,
    Tracer,
)
from workloads import WORKLOADS, OpInput


@dataclass
class Record:
    index: int
    kind: str
    seconds: float
    desc: dict
    error: str | None = None
    out: bytes | None = None
    top: float = 0.0
    ref_unit_s: float = 0.0

    def summary(self) -> dict:
        return {"index": self.index, "kind": self.kind, "seconds": self.seconds,
                "ref_unit_s": self.ref_unit_s, "error": self.error}


def describe(exc: Exception) -> str:
    """Exception type, message and the innermost frame that raised it."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" ({Path(frames[-1].filename).name}:{frames[-1].lineno})" if frames else ""
    return f"{type(exc).__name__}: {exc}{where}"


class Runner:
    def __init__(self, workload, deadline: float) -> None:
        self.wl = workload
        self.deadline = deadline
        # Ops take turns on the allowed CPUs. The host slows each vCPU on its
        # own for minutes at a time; spreading ops over all of them keeps one
        # slow vCPU from setting a whole run's numbers.
        self.cpus = sorted(os.sched_getaffinity(0))
        # length of the last op, to size the reference run before the next
        self.last_s = 0.0

    def op(self, inp: OpInput, tracer: Tracer | None = None,
           totals: LayerTotals | None = None) -> Record:
        os.sched_setaffinity(0, {self.cpus[inp.index % len(self.cpus)]})
        # the host's speed is gauged on the op's vCPU right before and after it
        before = reference.gauge(self.last_s / 2.0)
        if tracer is not None:
            tracer.take_spans()  # drop spans recorded while building the input
            tracer.op = inp.index
        raw = None
        error = None
        t0 = time.perf_counter()
        try:
            raw = self.wl.execute(inp)
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = describe(exc)
        seconds = time.perf_counter() - t0
        after = reference.gauge(seconds / 2.0)
        self.last_s = seconds
        rec = Record(inp.index, inp.kind, seconds, inp.desc, error,
                     ref_unit_s=(before + after) / 2.0)
        if tracer is not None:
            spans = tracer.take_spans()
            if totals is not None:
                rec.top = totals.add(spans)
        if error is None:
            try:
                rec.out = self.wl.output(inp, raw)
                self.wl.check(inp, raw, rec.out)
            except Exception as exc:  # oracle mismatch or unreadable output
                rec.error = describe(exc)
        return rec

    def warm_up(self) -> list[Record]:
        return [self.op(self.wl.make_input(1, 0))]

    def loop(self, seconds: float, first: OpInput, tracer: Tracer | None = None,
             totals: LayerTotals | None = None) -> list[Record]:
        records: list[Record] = []
        busy = 0.0
        while not records or (busy < seconds and time.monotonic() < self.deadline):
            i = len(records)
            inp = first if i == 0 else self.wl.make_input(0, i)
            rec = self.op(inp, tracer, totals)
            busy += rec.seconds * (1.0 + reference.SHARE)
            records.append(rec)
        return records


def compare(a: list[Record], b: list[Record]) -> dict:
    pairs = [(x, y) for x, y in zip(a, b) if x.out is not None and y.out is not None]
    bad = [x.index for x, y in pairs if x.out != y.out]
    return {"compared": len(pairs), "mismatched_ops": bad}


def per_layer(tracer: Tracer, totals: LayerTotals, traced: list[Record],
              untraced: list[Record], mem: Tracer) -> dict[str, float]:
    n = len(traced)
    op_time = sum(r.seconds for r in traced)
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = totals.calls.get(name, 0) / n
        m[f"{name}.s"] = totals.seconds.get(name, 0.0) / n
        m[f"{name}.self_s"] = totals.self_seconds.get(name, 0.0) / n
    for name in MAX_DIM_SPANS:
        m[f"{name}.max_dim"] = tracer.max_dim.get(name, 0)
    c = tracer.counts

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    m["geometry.build_info_graph.edge_frac"] = ratio("graph_edges", "graph_pairs")
    m["geometry.edge_weight.calls_per_edge"] = ratio("metric_weight_calls", "metric_edges")
    m["channels.BranchMixture.init.modes_per_mode"] = ratio("sweep_validated_modes",
                                                            "sweep_modes")
    for name in PEAK_SPANS:
        m[f"{name}.peak_mb"] = mem.peak_bytes.get(name, 0) / 2**20
    for layer in LAYERS:
        m[f"{layer}.errors"] = totals.errors.get(layer, 0)
        own = sum(v for k, v in totals.self_seconds.items() if k.startswith(layer + "."))
        m[f"{layer}.share"] = own / op_time
    p50_traced = statistics.median(reference.scale(r.seconds, r.ref_unit_s) for r in traced)
    p50_untraced = statistics.median(reference.scale(r.seconds, r.ref_unit_s) for r in untraced)
    m["trace.overhead_frac"] = p50_traced / p50_untraced - 1.0
    m["trace.span_cover_frac"] = totals.top_seconds / op_time
    return m


def _openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--budget", type=float, default=120.0,
                    help="wall-clock seconds after warm-up when the timed loops stop")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    if src not in Path(entgeo.__file__).resolve().parents:
        print(f"entgeo imported from {entgeo.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    first = wl.make_input(0, 0)
    setup_s = time.monotonic() - args.t0
    doc: dict = {"setup_s": setup_s, "setup_ref_s": reference.gauge(setup_s)}
    if args.mode == "setup":
        print(json.dumps(doc))
        return 0

    runner = Runner(wl, deadline=time.monotonic() + args.budget)
    warm = runner.warm_up()
    doc["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                       "openblas": _openblas_version()}
    if args.mode == "run":
        ops = runner.loop(args.seconds, first)
        untimed = warm
        if wl.guarded:
            repeat = runner.op(first)
            untimed = warm + [repeat]
            doc["guard"] = compare(ops[:1], [repeat])
    else:
        # per-layer metrics carry no bound, so each phase gets a quarter
        quarter = args.seconds / 4.0
        untraced = runner.loop(quarter, first)
        tracer, totals = Tracer(), LayerTotals()
        with tracer:
            traced = runner.loop(quarter, first, tracer, totals)
        mem = Tracer()
        tracemalloc.start()
        try:
            with mem:
                probes = [runner.op(first if k == 0 else wl.make_input(0, k), mem)
                          for k in range(len(wl.kinds))]
        finally:
            tracemalloc.stop()
        ops = untraced + traced
        untimed = warm + probes
        if wl.guarded:
            doc["guard"] = compare(untraced, traced)
        doc["per_layer"] = per_layer(tracer, totals, traced, untraced, mem)
        doc["traced_ops"] = len(traced)
        doc["top_span_exceeds_op"] = [r.index for r in traced if r.top > r.seconds]
    doc["ops"] = [r.summary() for r in ops]
    doc["failures"] = [dict(r.summary(), input=r.desc) for r in ops if r.error]
    doc["untimed_failures"] = [dict(r.summary(), input=r.desc) for r in untimed if r.error]
    doc["warmup_ops"] = len(warm)
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
