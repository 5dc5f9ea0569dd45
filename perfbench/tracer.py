"""Spans around entgeo's public functions, installed from outside the library.

The tracer replaces every attribute of an ``entgeo`` module that refers to a
traced function with one wrapper, so a name imported into several modules
(``mutual_information`` lives in six) feeds a single span name. Methods are
wrapped on their class. Each span records its name, parent span, op id,
start, end and whether it raised; spans are kept in memory for one op and
folded into per-name totals when the op ends.

Self time is a span's duration minus the part of it that its child spans
cover. Optional ``tracemalloc`` peaks are taken per span for a few names.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from typing import NamedTuple

# Traced functions per layer: (module, attribute path, span suffix).
LAYERS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "hilbert": (
        ("entgeo.hilbert", "reduced_density", "reduced_density"),
        ("entgeo.hilbert", "partial_trace", "partial_trace"),
        ("entgeo.hilbert", "density_of", "density_of"),
        ("entgeo.hilbert", "DensityMatrix.__init__", "DensityMatrix.init"),
        ("entgeo.hilbert", "PureState.__init__", "PureState.init"),
        ("entgeo.hilbert", "SchmidtPairState.__init__", "SchmidtPairState.init"),
    ),
    "infotheory": (
        ("entgeo.infotheory", "von_neumann_entropy", "von_neumann_entropy"),
        ("entgeo.infotheory", "entropy_from_spectrum", "entropy_from_spectrum"),
        ("entgeo.infotheory", "mutual_information", "mutual_information"),
        ("entgeo.infotheory", "mutual_information_schmidt", "mutual_information_schmidt"),
        ("entgeo.infotheory", "pure_state_mutual_information", "pure_state_mutual_information"),
        ("entgeo.infotheory", "check_mi_properties", "check_mi_properties"),
        ("entgeo.infotheory", "correlation_lower_bound", "correlation_lower_bound"),
    ),
    "geometry": (
        ("entgeo.geometry", "build_info_graph", "build_info_graph"),
        ("entgeo.geometry", "emergent_metric", "emergent_metric"),
        ("entgeo.geometry", "metric_check", "metric_check"),
        ("entgeo.geometry", "edge_weight", "edge_weight"),
    ),
    "channels": (
        ("entgeo.channels", "decoherence_sweep", "decoherence_sweep"),
        ("entgeo.channels", "BranchMixture.__init__", "BranchMixture.init"),
        ("entgeo.channels", "BranchMixture.mutual_info", "BranchMixture.mutual_info"),
        ("entgeo.channels", "DecoherenceSchedule.ir_first", "DecoherenceSchedule.ir_first"),
        ("entgeo.channels", "dephase_modes", "dephase_modes"),
        ("entgeo.channels", "localize_modes", "localize_modes"),
        ("entgeo.channels", "apply_local", "apply_local"),
        ("entgeo.channels", "apply_nonlocal", "apply_nonlocal"),
        ("entgeo.channels", "haar_random_state", "haar_random_state"),
        ("entgeo.channels", "haar_random_unitary", "haar_random_unitary"),
    ),
    "scenarios": (
        ("entgeo.scenarios", "momentum_sector_state", "momentum_sector_state"),
    ),
    "cli": (
        ("entgeo.cli", "main", "main"),
        ("entgeo.cli", "run", "run"),
    ),
}

SPAN_NAMES = tuple(f"{layer}.{suffix}" for layer, specs in LAYERS.items()
                   for _, _, suffix in specs)

# Spans whose tracemalloc peak is recorded when tracemalloc is tracing.
PEAK_SPANS = (
    "channels.decoherence_sweep",
    "geometry.build_info_graph",
    "infotheory.mutual_information",
    "cli.run",
)

# Spans whose largest matrix side length is recorded.
MAX_DIM_SPANS = (
    "hilbert.reduced_density",
    "hilbert.partial_trace",
    "hilbert.DensityMatrix.init",
    "infotheory.von_neumann_entropy",
)


class Span(NamedTuple):
    sid: int
    parent: int  # -1 for a top-level span
    name: str
    t0: float
    t1: float
    op: int
    raised: bool

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append((sp.t0, sp.t1))
    return {sp.sid: sp.duration - covered(children.get(sp.sid, []), sp.t0, sp.t1)
            for sp in spans}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _probe(tracer: "Tracer", name: str, args: tuple, kwargs: dict, result) -> None:
    """Per-span counters computed from a call's arguments and result."""
    c = tracer.counts
    if name == "hilbert.reduced_density":
        tracer.note_dim(name, result.dim)
    elif name == "hilbert.partial_trace":
        tracer.note_dim(name, _arg(args, kwargs, 0, "rho").dim)
    elif name == "hilbert.DensityMatrix.init":
        tracer.note_dim(name, args[0].dim)
    elif name == "infotheory.von_neumann_entropy":
        tracer.note_dim(name, _arg(args, kwargs, 0, "rho").dim)
    elif name == "geometry.build_info_graph":
        v = len(_arg(args, kwargs, 0, "psi").labels)
        c["graph_pairs"] = c.get("graph_pairs", 0) + v * (v - 1) // 2
        c["graph_edges"] = c.get("graph_edges", 0) + len(result.edges)
    elif name == "geometry.emergent_metric":
        c["metric_edges"] = c.get("metric_edges", 0) + len(
            _arg(args, kwargs, 0, "graph").edges)
    elif name == "geometry.edge_weight":
        if tracer.is_open("geometry.emergent_metric"):
            c["metric_weight_calls"] = c.get("metric_weight_calls", 0) + 1
    elif name == "channels.decoherence_sweep":
        c["sweep_modes"] = c.get("sweep_modes", 0) + _arg(args, kwargs, 0, "s").num_modes
    elif name == "channels.BranchMixture.init":
        if tracer.is_open("channels.decoherence_sweep"):
            mix = args[0]
            c["sweep_validated_modes"] = (c.get("sweep_validated_modes", 0)
                                          + len(mix.dephased) + len(mix.localized))


class Tracer:
    """Installs span wrappers on the loaded ``entgeo`` modules.

    Use as a context manager; leaving it restores every original attribute.
    """

    def __init__(self) -> None:
        self.op = -1
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self.max_dim: dict[str, int] = {}
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._peak_stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "entgeo" or n.startswith("entgeo.")) and m is not None]
        for layer, specs in LAYERS.items():
            for module_name, path, suffix in specs:
                name = f"{layer}.{suffix}"
                owner = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patch(cls, attr, new)
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def _patch(self, obj: object, attr: str, new: object) -> None:
        self._patched.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def _wrap(self, name: str, fn):
        tracer = self
        peak_span = name in PEAK_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            peak = peak_span and tracemalloc.is_tracing()
            if peak:
                tracer._peak_enter()
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                if peak:
                    tracer._peak_exit(name)
                tracer._open[name] -= 1
                stack.pop()
                spans[sid] = Span(sid, parent, name, t0, t1, tracer.op, raised)
            _probe(tracer, name, args, kwargs, result)
            return result

        return wrapper

    # -- recording --------------------------------------------------------

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def note_dim(self, name: str, dim: int) -> None:
        if dim > self.max_dim.get(name, 0):
            self.max_dim[name] = int(dim)

    def _peak_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            self._peak_stack[-1][1] = max(self._peak_stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._peak_stack.append([current, 0])

    def _peak_exit(self, name: str) -> None:
        base, seen = self._peak_stack.pop()
        seen = max(seen, tracemalloc.get_traced_memory()[1])
        self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), seen - base)
        if self._peak_stack:
            self._peak_stack[-1][1] = max(self._peak_stack[-1][1], seen)

    def take_spans(self) -> list[Span]:
        """Closed spans recorded since the last call; clears the buffer."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans  # type: ignore[return-value]


class LayerTotals:
    """Per-name sums over the spans of many ops."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.top_seconds = 0.0

    def add(self, spans: list[Span]) -> float:
        """Fold one op's spans in; returns the op's top-level span time."""
        by_id = {sp.sid: sp for sp in spans}
        own = self_times(spans)
        top = 0.0
        for sp in spans:
            n = sp.name
            self.calls[n] = self.calls.get(n, 0) + 1
            self.self_seconds[n] = self.self_seconds.get(n, 0.0) + own[sp.sid]
            if sp.raised:
                layer = n.split(".", 1)[0]
                self.errors[layer] = self.errors.get(layer, 0) + 1
            if sp.parent == -1:
                top += sp.duration
            # .s counts only the outermost span of a name, so recursion and
            # same-name nesting are not counted twice
            p = sp.parent
            nested = False
            while p != -1:
                anc = by_id[p]
                if anc.name == n:
                    nested = True
                    break
                p = anc.parent
            if not nested:
                self.seconds[n] = self.seconds.get(n, 0.0) + sp.duration
        self.top_seconds += top
        return top


def layer_metrics() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in report order.

    Span metrics are means per traced op: ``.calls`` spans opened,
    ``.s`` wall time of the outermost span of that name, ``.self_s`` time
    not covered by child spans. ``<layer>.share`` is the layer's self time
    over op time; ``<layer>.errors`` counts spans that ended by raising.
    """
    out: dict[str, tuple[str, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for name in MAX_DIM_SPANS:
        out[f"{name}.max_dim"] = ("count", "lower")
    out["geometry.build_info_graph.edge_frac"] = ("frac", "higher")
    out["geometry.edge_weight.calls_per_edge"] = ("ratio", "lower")
    out["channels.BranchMixture.init.modes_per_mode"] = ("ratio", "lower")
    for name in PEAK_SPANS:
        out[f"{name}.peak_mb"] = ("MiB", "lower")
    for layer in LAYERS:
        out[f"{layer}.errors"] = ("count", "lower")
        out[f"{layer}.share"] = ("frac", "lower")
    out["trace.overhead_frac"] = ("frac", "lower")
    out["trace.span_cover_frac"] = ("frac", "higher")
    return out
