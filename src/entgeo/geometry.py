"""Mutual-information graphs and the emergent distances they induce.

Vertices are subsystem labels; each edge carries the pairwise mutual
information between its endpoints. A weight function turns normalized
correlation I/I0 into a length, strong correlation meaning short, and
shortest paths through those lengths define an emergent pseudo-metric:
zero distance between distinct, perfectly correlated vertices is allowed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .hilbert import PureState, _blocks, _check_density_stack, _contract_pure, _Fresh
from .infotheory import _density_mis, _nonnegative_mi
from .infotheory import mutual_information  # noqa: F401  (re-exported)

# Pairwise MI below this is treated as no edge at all.
MI_EDGE_FLOOR = 1e-12


class NoCorrelationsError(Exception):
    """The state has no pairwise mutual information above the floor, so
    there is no graph to build and no normalization I0 to speak of."""


def _canonical_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _pair_array(vertices: Sequence[str], table: Mapping[tuple[str, str], float],
                what: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """V x V array of a label-pair table over vertices ((p, q) reads (p, q),
    else (q, p), else 0.0) and the mask of entries given. A raw table (what
    None) must give each pair one way or both; InfoGraph's edges ("edge") and
    EmergentMetric's pairs ("pair") are checked entry by entry, one value a pair."""
    index = {v: k for k, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertex labels")
    out = np.zeros((len(index), len(index)))
    given = np.zeros(out.shape, dtype=bool)
    for (a, b), x in dict(table).items():
        if what and (a not in index or b not in index or a == b):
            raise ValueError(f"bad pair ({a!r}, {b!r})" if what == "pair" else
                             f"self-edge on {a!r}" if a == b and a in index else
                             f"edge ({a!r}, {b!r}) touches unknown vertex")
        i, j = sorted((index[a], index[b])) if what else (index[a], index[b])
        key = _canonical_pair(a, b)
        if what and given[i, j] and abs(out[i, j] - float(x)) > 0.0:
            raise ValueError(f"conflicting values for {what} {key}")
        if what == "edge" and not (math.isfinite(x) and x >= MI_EDGE_FLOOR):
            raise ValueError(f"edge {key} must carry finite MI >= {MI_EDGE_FLOOR}, got {x}")
        out[i, j], given[i, j] = float(x), True
    missing = ~(given | given.T | np.eye(len(out), dtype=bool))
    if what is None and missing.any():
        i, j = np.argwhere(missing)[0]
        raise KeyError(f"no distance recorded for ({vertices[i]!r}, {vertices[j]!r})")
    return np.where(given, out, out.T), given


def _upper_pairs(vertices: Sequence[str], a: np.ndarray) -> list[tuple[tuple[str, str], float]]:
    """(canonical label pair, float) of each vertex pair p < q of a, in that order."""
    return [(_canonical_pair(p, q), a.item(i, j))
            for (i, p), (j, q) in itertools.combinations(enumerate(vertices), 2)]


@dataclass(frozen=True)
class InfoGraph:
    """Undirected graph of pairwise mutual information values.

    mi holds them as a read-only V x V array in vertex order (0.0: no edge),
    edges as its read-only view by canonical (sorted) label pairs, which
    mutual_info() reads in either endpoint order. The reference value i0 is
    the largest edge MI: the strongest edge sits at distance-weight zero.
    """

    vertices: tuple[str, ...]
    edges: Mapping[tuple[str, str], float]
    mi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.edges) is _Fresh:
            mi = self.edges.array
        else:
            object.__setattr__(self, "vertices", tuple(self.vertices))
            mi = _pair_array(self.vertices, self.edges, "edge")[0]
            if not mi.any():
                raise NoCorrelationsError("graph has no edges")
        mi.setflags(write=False)
        object.__setattr__(self, "mi", mi)
        edges = {key: x for key, x in _upper_pairs(self.vertices, mi) if x}
        object.__setattr__(self, "edges", MappingProxyType(edges))

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor: a mappingproxy cannot be pickled
        return InfoGraph, (self.vertices, dict(self.edges))

    @property
    def i0(self) -> float:
        """Largest edge mutual information (the normalization reference)."""
        return max(self.edges.values())

    def mutual_info(self, a: str, b: str) -> float | None:
        """Edge MI between a and b in either order, None if absent."""
        return self.edges.get(_canonical_pair(a, b))


def build_info_graph(psi: PureState) -> InfoGraph:
    """Pairwise-MI graph of a multi-factor pure state.

    Computes I(p:q) = S(p) + S(q) - S(pq) for every unordered pair of
    factors and keeps pairs at or above MI_EDGE_FLOOR (see _pair_mis and
    _info_graph, of which this is the one-state case). The arithmetic is
    that of reduced_density, partial_trace and mutual_information, so
    every edge of a pair of at most one block (d_p d_q <= 512) carries the
    same bits as the per-pair path would; that path takes a larger pair's
    entropies from cuts of psi.
    Raises NoCorrelationsError when nothing survives (product states).
    """
    if len(psi.labels) < 2:
        raise ValueError("need at least 2 factors to build a graph")
    return _info_graph(psi.labels, _pair_mis(psi.amplitudes[None], psi.tps.dims)[0])


def _pair_mis(amps: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Unchecked I(p:q) of every factor pair p < q, in that order, for each
    state vector of the (k, D) stack amps over factors of dims, as (k, P).

    Pairs are grouped by (d_p, d_q). Each group's reductions of all k states
    go into one (k, P, d, d) stack (see _pair_stack), validated as one
    stack and handed to _density_mis as a stack of two-factor joints, so
    each MI of a pair of at most one block is mutual_information's for
    that pair's reduced_density.
    """
    count, n = len(amps), len(dims)
    pairs = list(itertools.combinations(range(n), 2))
    groups: dict[tuple[int, int], list[int]] = {}
    for x, (i, j) in enumerate(pairs):
        groups.setdefault((dims[i], dims[j]), []).append(x)
    t = amps.reshape((count,) + tuple(dims))
    mis = np.empty((count, len(pairs)))
    for (dp, dq), xs in groups.items():
        d = dp * dq
        if n == 2:
            # the whole state: |psi><psi| as density_of builds it
            joint = amps[:, :, None] * amps.conj()[:, None, :]
        else:
            joint = _pair_stack(t, [pairs[x] for x in xs], d).reshape(-1, d, d)
        _check_density_stack(joint)
        mis[:, xs] = np.reshape(_density_mis(joint, (dp, dq), [1], [0]), (count, len(xs)))
    return mis


def _info_graph(labels: tuple[str, ...], mis: np.ndarray) -> InfoGraph:
    """The InfoGraph of one state's pair MIs in _pair_mis order: each is
    checked not to be negative, in that order, and those at or above
    MI_EDGE_FLOOR become edges; NoCorrelationsError when none is."""
    mi = np.zeros((len(labels), len(labels)))
    for (i, j), x in zip(itertools.combinations(range(len(labels)), 2), mis.tolist()):
        if _nonnegative_mi(x) >= MI_EDGE_FLOOR:
            mi[i, j] = mi[j, i] = x
    if not mi.any():
        raise NoCorrelationsError(
            f"no pairwise mutual information above {MI_EDGE_FLOOR} among {labels}"
        )
    return InfoGraph(labels, _Fresh(mi))


def _pair_stack(t: np.ndarray, pairs: list[tuple[int, int]], d: int) -> np.ndarray:
    """(k, P, d, d) stack of the two-factor reductions of each amplitude
    tensor in the (k, *dims) stack t.

    Every pair reuses one work buffer for its transposed copies, which is
    freed on return, before the caller's checks allocate their own.
    """
    joint = np.empty((len(t), len(pairs), d, d), dtype=complex)
    work = np.empty(2 * t.size, dtype=complex)
    for x, (i, j) in enumerate(pairs):
        joint[:, x] = _contract_pure(t, [i, j], work)
    return joint


@dataclass(frozen=True)
class WeightFunction:
    """Length profile applied to normalized mutual information x = I/I0.

    phi must be monotonically decreasing on (0, 1] with phi(1) = 0, so the
    strongest edge has zero length and weaker correlation means longer.
    length_scale multiplies the profile and sets the physical unit.
    """

    phi: Callable[[float], float]
    length_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.length_scale > 0.0 and math.isfinite(self.length_scale)):
            raise ValueError(f"length_scale must be positive and finite, got {self.length_scale}")
        at_one = self.phi(1.0)
        if abs(at_one) > 1e-12:
            raise ValueError(f"phi(1) must be 0, got {at_one}")
        # spot-check monotonicity on a log-spaced grid reaching well into
        # the weak-correlation tail
        grid = np.logspace(-9, 0, 64)
        vals = [self.phi(float(x)) for x in grid]
        diffs = np.diff(vals)
        if np.any(diffs > 1e-12):
            raise ValueError("phi must be monotonically decreasing on (0, 1]")

    def __call__(self, x: float) -> float:
        return self.length_scale * self.phi(x)


def neg_log_weight(length_scale: float = 1.0) -> WeightFunction:
    """The canonical profile phi(x) = -log x: zero at x = 1, diverging as
    the correlation vanishes."""
    return WeightFunction(phi=lambda x: -math.log(x), length_scale=length_scale)


def edge_weight(mi: float, ref_mi: float, wf: WeightFunction) -> float:
    """Length of an edge with mutual information mi under reference ref_mi.

    mi = ref_mi gives exactly zero for the neg-log profile; mi = 0 gives
    math.inf (no correlation, infinite separation). mi above the reference
    or a nonpositive reference is a caller error. A length that is NaN or
    negative breaks the weight profile's contract and makes distances
    meaningless, so it raises too.
    """
    if not ref_mi > 0.0:
        raise ValueError(f"reference MI must be positive, got {ref_mi}")
    if mi < 0.0:
        raise ValueError(f"mutual information must be nonnegative, got {mi}")
    if mi > ref_mi * (1.0 + 1e-12):
        raise ValueError(f"edge MI {mi} exceeds reference {ref_mi}")
    if mi == 0.0:
        return math.inf
    x = min(mi / ref_mi, 1.0)
    # + 0.0 turns the -0.0 that -log(1.0) produces into a clean zero
    length = wf(x) + 0.0
    if not length >= 0.0:
        raise ValueError(f"edge MI {mi} has length {length}; lengths must be >= 0")
    return length


def _weight_matrix(graph: InfoGraph, wf: WeightFunction, ref_mi: float | None = None) -> np.ndarray:
    """V x V edge lengths in vertex order under ref_mi or i0, inf for no edge.

    edge_weight runs once per edge, in vertex-pair order, so the first bad
    edge in that order is the one that raises.
    """
    ref = graph.i0 if ref_mi is None else ref_mi
    mi = graph.mi.tolist()
    w = np.full(graph.mi.shape, math.inf)
    for i, j in itertools.combinations(range(len(mi)), 2):
        if mi[i][j]:
            w[i, j] = w[j, i] = edge_weight(mi[i][j], ref, wf)
    return w


def _shortest_paths(w: np.ndarray) -> np.ndarray:
    """Shortest path lengths between all vertices under each V x V length
    matrix of the (k, V, V) stack w: a (k, V, V) stack, row s of each
    matrix holding the lengths from vertex s.

    Min-plus relaxation to a fixed point: each round extends every row by
    one edge, d[s, v] = min(d[s, v], min_u d[s, u] + w[u, v]). A path's
    length is thus summed edge by edge from its source, the order in which
    Dijkstra sums it, and since rounding is monotone the fixed point is the
    same float Dijkstra returns. Floyd-Warshall's d[i, k] + d[k, j] joins
    two partial sums instead and can land an ulp away. With lengths >= 0
    no shortest path needs more than V - 1 edges, so V rounds suffice.
    The k * V rows are relaxed in blocks of hilbert._blocks, each beside a
    copy of its own matrix, so a round's terms stay within one block; a
    row at its fixed point stays there while its block goes on.
    """
    count, n = w.shape[:2]
    d = np.full((count * n, n), math.inf)
    d[np.arange(count * n), np.tile(np.arange(n), count)] = 0.0
    owner = np.repeat(np.arange(count), n)
    for run in _blocks(count * n, n * n):
        run = slice(run.start, run.stop)
        block, lengths = d[run], w[owner[run]]
        for _ in range(n):
            nxt = np.minimum(block, (block[:, :, None] + lengths).min(axis=1))
            if np.array_equal(nxt, block):
                break
            block = nxt
        d[run] = block
    return d.reshape(count, n, n)


def _distance_matrices(w: np.ndarray) -> np.ndarray:
    """emergent_metric's distances under each V x V length matrix of the
    (k, V, V) stack w, as symmetric matrices with a zero diagonal: the pair
    (p, q), p before q in vertex order, keeps the value measured from p.
    """
    d = _shortest_paths(w)
    return np.where(np.triu(np.ones(w.shape[1:], dtype=bool)), d, d.swapaxes(1, 2))


@dataclass(frozen=True)
class EmergentMetric:
    """All-pairs emergent distances over a fixed vertex set.

    d holds them as a read-only symmetric V x V array in vertex order, table
    as its read-only view by canonical label pairs. Distances may be inf
    (disconnected) and zero between distinct vertices (pseudo-metric).
    """

    vertices: tuple[str, ...]
    table: Mapping[tuple[str, str], float]
    d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.table) is _Fresh:
            d = self.table.array
        else:
            object.__setattr__(self, "vertices", tuple(self.vertices))
            d, given = _pair_array(self.vertices, self.table, "pair")
            expected, count = len(d) * (len(d) - 1) // 2, np.count_nonzero(given)
            if count != expected:
                raise ValueError(f"need all {expected} unordered pairs, got {count}")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "table", MappingProxyType(dict(_upper_pairs(self.vertices, d))))

    def __reduce__(self):
        # as InfoGraph.__reduce__
        return EmergentMetric, (self.vertices, dict(self.table))

    def distance(self, p: str, q: str) -> float:
        if p not in self.vertices or q not in self.vertices:
            raise KeyError(f"unknown vertex in pair ({p!r}, {q!r})")
        return self.d.item(self.vertices.index(p), self.vertices.index(q))


def emergent_metric(graph: InfoGraph, wf: WeightFunction,
                    ref_mi: float | None = None) -> EmergentMetric:
    """All-pairs shortest-path distances as an EmergentMetric.

    Every edge length is evaluated once into a V x V matrix and all rows
    are relaxed together by min-plus steps (see _shortest_paths), which
    matches Dijkstra from each source bit for bit; Floyd-Warshall would
    not. The pair (p, q) with p before q in vertex order keeps the value
    measured from p (see _distance_matrices, of which this is the
    one-graph case).
    """
    d = _distance_matrices(_weight_matrix(graph, wf, ref_mi)[None])[0]
    return EmergentMetric(graph.vertices, _Fresh(d))


@dataclass(frozen=True)
class MetricReport:
    """Worst violation per metric axiom (0.0 means clean)."""

    nonnegativity: float
    symmetry: float
    triangle: float
    diagonal: float
    atol: float

    @property
    def ok(self) -> bool:
        worst = max(self.nonnegativity, self.symmetry, self.triangle, self.diagonal)
        return worst <= self.atol


def metric_check(metric: EmergentMetric | Mapping[tuple[str, str], float]) -> MetricReport:
    """Check pseudo-metric axioms on a metric or a raw directed table.

    A raw mapping may carry directed pairs (p, q) and (q, p) separately,
    which is how a hand-built asymmetric table gets caught. Missing reverse
    entries mirror the forward value. Triangle inequality is checked on all
    ordered triples with finite legs; inf legs assert nothing. A NaN or
    -inf distance counts as an infinite nonnegativity violation (a NaN on
    the diagonal as an infinite diagonal one). The checks broadcast over
    the V x V distance matrix (see _metric_worsts, of which this is the
    one-matrix case). The report is ok when each worst is within 1e-9.
    """
    d = metric.d if isinstance(metric, EmergentMetric) else _table_matrix(metric)
    return MetricReport(*_metric_worsts(d[None])[0].tolist(), atol=1e-9)


def _metric_worsts(d: np.ndarray) -> np.ndarray:
    """metric_check's worst (nonnegativity, symmetry, triangle, diagonal)
    violations of each matrix of the (k, V, V) stack d, as (k, 4).

    The V x V triangle terms of the k * V rows p are taken in blocks of
    hilbert._blocks, each row beside a copy of its own matrix, so the
    V x V x V terms stay within one block.
    """
    count, n = d.shape[:2]
    off = ~np.eye(n, dtype=bool)
    infinite = np.isinf(d)
    flipped = infinite.swapaxes(1, 2)
    with np.errstate(invalid="ignore"):
        neg = -d
        neg[np.isnan(neg)] = math.inf
        diag = np.abs(np.diagonal(d, axis1=1, axis2=2))
        diag[np.isnan(diag)] = math.inf
        gap = np.abs(d - d.swapaxes(1, 2))
        gap[infinite & flipped] = 0.0
        gap[infinite ^ flipped] = math.inf
    # row b of these is row p of matrix owner[b]
    rows, off_rows = d.reshape(count * n, n), np.tile(off, (count, 1))
    finite_rows = ~infinite.reshape(count * n, n)
    owner = np.repeat(np.arange(count), n)
    triangle = np.empty(count * n)
    for run in _blocks(count * n, n * n):
        run = slice(run.start, run.stop)
        d_p, off_p = rows[run], off_rows[run]
        with np.errstate(invalid="ignore"):
            # tri[b, r, q] = d(p, q) - (d(p, r) + d(r, q))
            legs = d_p[:, :, None] + d[owner[run]]
            tri = d_p[:, None, :] - legs
        checked = (off_p[:, :, None] & off_p[:, None, :] & off
                   & finite_rows[run, None, :] & ~np.isinf(legs))
        triangle[run] = _worst(tri, (1, 2), checked)
    return np.stack([_worst(neg, (1, 2), off), _worst(gap, (1, 2), off),
                     _worst(triangle.reshape(count, n), 1), _worst(diag, 1)], axis=1)


def _table_matrix(metric: Mapping[tuple[str, str], float]) -> np.ndarray:
    """Distance matrix of a raw table over its sorted labels (see _pair_array)."""
    return _pair_array(sorted({v for pair in metric for v in pair}), metric)[0]


def _worst(violations: np.ndarray, axis: int | tuple[int, ...],
           where: np.ndarray | bool = True) -> np.ndarray:
    """Largest positive entry of violations under where, along axis; NaN
    entries are skipped and 0.0 stands where there is none."""
    return np.maximum.reduce(violations, axis=axis, initial=0.0, where=where & (violations > 0.0))


def edge_records(graph: InfoGraph, wf: WeightFunction,
                 ref_mi: float | None = None) -> list[tuple[str, str, float, float]]:
    """Sorted (src, dst, mutual_info, weight) rows for export.

    MI stays in nats; weights are base-independent since the profile takes
    the ratio I/I0.
    """
    ref = graph.i0 if ref_mi is None else ref_mi
    rows = []
    for (a, b), mi in sorted(graph.edges.items()):
        rows.append((a, b, mi, edge_weight(mi, ref, wf)))
    return rows
