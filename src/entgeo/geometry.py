"""Mutual-information graphs and the emergent distances they induce.

Vertices are subsystem labels; each edge carries the pairwise mutual
information between its endpoints. A weight function turns normalized
correlation I/I0 into a length, strong correlation meaning short, and
shortest paths through those lengths define an emergent pseudo-metric:
zero distance between distinct, perfectly correlated vertices is allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .hilbert import _BLOCK_ELEMS, PureState, _check_density_stack, _contract_pure
from .infotheory import _matrix_entropies, _nonnegative_mi
from .infotheory import mutual_information  # noqa: F401  (re-exported)

# Pairwise MI below this is treated as no edge at all.
MI_EDGE_FLOOR = 1e-12


class NoCorrelationsError(Exception):
    """The state has no pairwise mutual information above the floor, so
    there is no graph to build and no normalization I0 to speak of."""


def _canonical_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class InfoGraph:
    """Undirected graph of pairwise mutual information values.

    Edge keys are canonical (lexicographically sorted) label pairs; lookups
    through mutual_info() accept either endpoint order. The reference value
    i0 is the largest edge MI and normalizes weights so the strongest
    correlation in the graph sits at distance-weight zero.
    """

    vertices: tuple[str, ...]
    edges: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        canon: dict[tuple[str, str], float] = {}
        vset = set(self.vertices)
        for (a, b), mi in dict(self.edges).items():
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a!r}, {b!r}) touches unknown vertex")
            if a == b:
                raise ValueError(f"self-edge on {a!r}")
            key = _canonical_pair(a, b)
            if key in canon and abs(canon[key] - float(mi)) > 0.0:
                raise ValueError(f"conflicting values for edge {key}")
            if not math.isfinite(mi) or mi < MI_EDGE_FLOOR:
                raise ValueError(f"edge {key} must carry finite MI >= {MI_EDGE_FLOOR}, got {mi}")
            canon[key] = float(mi)
        if not canon:
            raise NoCorrelationsError("graph has no edges")
        object.__setattr__(self, "edges", canon)

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
    factors and keeps pairs at or above MI_EDGE_FLOOR. Pairs are grouped by
    their dimensions (d_p, d_q): each group's two-factor reduced density
    matrices are contracted one pair at a time into a preallocated stack,
    validated as a stack, and the joint matrices and both marginals of
    every pair go through one stacked eigensolve each. The arithmetic is
    that of reduced_density, partial_trace and mutual_information, so
    every edge carries the same bits as the per-pair path would.
    Raises NoCorrelationsError when nothing survives (product states).
    """
    labels = psi.labels
    if len(labels) < 2:
        raise ValueError("need at least 2 factors to build a graph")
    dims = psi.tps.dims
    n = len(labels)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            groups.setdefault((dims[i], dims[j]), []).append((i, j))
    t = psi.amplitudes.reshape(dims)
    mi_of: dict[tuple[int, int], float] = {}
    for (dp, dq), pairs in groups.items():
        if n == 2:
            # the whole state: |psi><psi| as density_of builds it
            joint = np.outer(psi.amplitudes, psi.amplitudes.conj())[None]
        else:
            joint = _pair_stack(t, pairs, dp * dq)
        _check_density_stack(joint)
        # partial_trace's contractions, one leading stack axis further in
        split = joint.reshape(len(pairs), dp, dq, dp, dq)
        side_p = np.trace(split, axis1=2, axis2=4)
        side_q = np.trace(split, axis1=1, axis2=3)
        _check_density_stack(side_p)
        _check_density_stack(side_q)
        s_p = _matrix_entropies(side_p)
        s_q = _matrix_entropies(side_q)
        s_pq = _matrix_entropies(joint)
        for k, pair in enumerate(pairs):
            mi_of[pair] = s_p[k] + s_q[k] - s_pq[k]
    edges: dict[tuple[str, str], float] = {}
    for (i, j), mi in sorted(mi_of.items()):
        if _nonnegative_mi(mi) >= MI_EDGE_FLOOR:
            edges[_canonical_pair(labels[i], labels[j])] = mi
    if not edges:
        raise NoCorrelationsError(
            f"no pairwise mutual information above {MI_EDGE_FLOOR} among {labels}"
        )
    return InfoGraph(vertices=labels, edges=edges)


def _pair_stack(t: np.ndarray, pairs: list[tuple[int, int]], d: int) -> np.ndarray:
    """(P, d, d) stack of the two-factor reductions of amplitude tensor t.

    Every pair reuses one work buffer for its transposed copy, which is
    freed on return, before the caller's checks allocate their own.
    """
    joint = np.empty((len(pairs), d, d), dtype=complex)
    work = np.empty(2 * t.size, dtype=complex)
    one = t[None]  # a stack of one tensor
    for k, (i, j) in enumerate(pairs):
        rest = [r for r in range(t.ndim) if r != i and r != j]
        joint[k] = _contract_pure(one, [i, j], rest, work)[0]
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
    name: str = "custom"

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

    @classmethod
    def from_table(cls, xs: Sequence[float], ys: Sequence[float],
                   length_scale: float = 1.0, name: str = "table") -> "WeightFunction":
        """Piecewise-linear profile from a monotone table.

        xs must increase within (0, 1] and end at 1 with ys ending at 0;
        ys must be non-increasing. Below the smallest tabulated x the
        profile saturates at the first table value rather than diverging.
        """
        x_arr = np.asarray(xs, dtype=float)
        y_arr = np.asarray(ys, dtype=float)
        if x_arr.ndim != 1 or x_arr.shape != y_arr.shape or x_arr.size < 2:
            raise ValueError("table needs matching 1-d xs and ys with at least 2 points")
        if np.any(np.diff(x_arr) <= 0) or x_arr[0] <= 0.0 or x_arr[-1] != 1.0:
            raise ValueError("xs must strictly increase within (0, 1] and end at 1")
        if np.any(np.diff(y_arr) > 0) or y_arr[-1] != 0.0:
            raise ValueError("ys must be non-increasing and end at 0")

        def phi(x: float, _x=x_arr, _y=y_arr) -> float:
            return float(np.interp(x, _x, _y))

        return cls(phi=phi, length_scale=length_scale, name=name)


def neg_log_weight(length_scale: float = 1.0) -> WeightFunction:
    """The canonical profile phi(x) = -log x: zero at x = 1, diverging as
    the correlation vanishes."""
    return WeightFunction(phi=lambda x: -math.log(x), length_scale=length_scale, name="neg-log")


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


def _weight_matrix(graph: InfoGraph, wf: WeightFunction, ref_mi: float) -> np.ndarray:
    """V x V edge lengths in vertex order, inf where there is no edge.

    edge_weight runs once per edge, in edge order, so the first bad edge
    in that order is the one that raises.
    """
    index = {v: k for k, v in enumerate(graph.vertices)}
    w = np.full((len(index), len(index)), math.inf)
    for (a, b), mi in graph.edges.items():
        w[index[a], index[b]] = w[index[b], index[a]] = edge_weight(mi, ref_mi, wf)
    return w


def _shortest_paths(w: np.ndarray, sources: Sequence[int]) -> np.ndarray:
    """Shortest path lengths from each source (one row each) under lengths w.

    Min-plus relaxation to a fixed point: each round extends every row by
    one edge, d[s, v] = min(d[s, v], min_u d[s, u] + w[u, v]). A path's
    length is thus summed edge by edge from its source, the order in which
    Dijkstra sums it, and since rounding is monotone the fixed point is the
    same float Dijkstra returns. Floyd-Warshall's d[i, k] + d[k, j] joins
    two partial sums instead and can land an ulp away. With lengths >= 0
    no shortest path needs more than V - 1 edges, so V rounds suffice.
    Rows are relaxed in blocks (see _row_blocks), so the rows x V x V sums
    of a round never take more than O(V^2 + _BLOCK_ELEMS) memory.
    """
    n = w.shape[0]
    d = np.full((len(sources), n), math.inf)
    d[np.arange(len(sources)), sources] = 0.0
    for rows in _row_blocks(len(sources), n):
        block = d[rows]
        for _ in range(n):
            nxt = np.minimum(block, (block[:, :, None] + w[None, :, :]).min(axis=1))
            if np.array_equal(nxt, block):
                break
            block = nxt
        d[rows] = block
    return d


def _row_blocks(rows: int, n: int) -> list[slice]:
    """Slices over rows, as many per slice as fit rows x n x n in _BLOCK_ELEMS.

    That caps one b x V x V intermediate of _shortest_paths and
    metric_check at 2 MiB of floats; b shrinks as V grows, down to one row.
    """
    step = max(1, _BLOCK_ELEMS // max(1, n * n))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def emergent_distance(graph: InfoGraph, wf: WeightFunction, p: str, q: str,
                      ref_mi: float | None = None) -> float:
    """Shortest-path distance between two vertices (inf when disconnected).

    ref_mi defaults to the graph's own i0; pass an external reference to
    normalize against a different baseline (a pre-perturbation value, say).
    """
    for v in (p, q):
        if v not in graph.vertices:
            raise KeyError(f"unknown vertex {v!r}")
    if p == q:
        return 0.0
    ref = graph.i0 if ref_mi is None else ref_mi
    row = _shortest_paths(_weight_matrix(graph, wf, ref), [graph.vertices.index(p)])[0]
    return float(row[graph.vertices.index(q)])


@dataclass(frozen=True)
class EmergentMetric:
    """All-pairs emergent distances over a fixed vertex set.

    Stores one value per unordered pair, so symmetry holds structurally;
    the diagonal is zero by definition. Distances may be inf (disconnected)
    and zero between distinct vertices (pseudo-metric).
    """

    vertices: tuple[str, ...]
    table: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        canon: dict[tuple[str, str], float] = {}
        vset = set(self.vertices)
        for (a, b), d in dict(self.table).items():
            if a not in vset or b not in vset or a == b:
                raise ValueError(f"bad pair ({a!r}, {b!r})")
            canon[_canonical_pair(a, b)] = float(d)
        expected = len(self.vertices) * (len(self.vertices) - 1) // 2
        if len(canon) != expected:
            raise ValueError(f"need all {expected} unordered pairs, got {len(canon)}")
        object.__setattr__(self, "table", canon)

    def distance(self, p: str, q: str) -> float:
        if p not in self.vertices or q not in self.vertices:
            raise KeyError(f"unknown vertex in pair ({p!r}, {q!r})")
        if p == q:
            return 0.0
        return self.table[_canonical_pair(p, q)]


def emergent_metric(graph: InfoGraph, wf: WeightFunction,
                    ref_mi: float | None = None) -> EmergentMetric:
    """All-pairs shortest-path distances as an EmergentMetric.

    Every edge length is evaluated once into a V x V matrix and all rows
    are relaxed together by min-plus steps (see _shortest_paths), which
    matches Dijkstra from each source bit for bit; Floyd-Warshall would
    not. The pair (p, q) with p before q in vertex order keeps the value
    measured from p.
    """
    ref = graph.i0 if ref_mi is None else ref_mi
    verts = graph.vertices
    d = _shortest_paths(_weight_matrix(graph, wf, ref), range(len(verts)))
    rows, cols = np.triu_indices(len(verts), 1)
    table = {(verts[i], verts[j]): dist
             for i, j, dist in zip(rows.tolist(), cols.tolist(), d[rows, cols].tolist())}
    return EmergentMetric(vertices=verts, table=table)


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


def metric_check(
    metric: EmergentMetric | Mapping[tuple[str, str], float],
    atol: float = 1e-9,
) -> MetricReport:
    """Check pseudo-metric axioms on a metric or a raw directed table.

    A raw mapping may carry directed pairs (p, q) and (q, p) separately,
    which is how a hand-built asymmetric table gets caught. Missing reverse
    entries mirror the forward value. Triangle inequality is checked on all
    ordered triples with finite legs; inf legs assert nothing. A NaN or
    -inf distance counts as an infinite nonnegativity violation (a NaN on
    the diagonal as an infinite diagonal one). All checks broadcast over a
    V x V distance matrix; the triangle check takes the p rows in blocks
    (see _row_blocks), so its V x V x V terms stay within O(V^2 +
    _BLOCK_ELEMS) memory.
    """
    d = _table_matrix(metric.table if isinstance(metric, EmergentMetric) else metric)
    n = d.shape[0]
    off = ~np.eye(n, dtype=bool)
    infinite = np.isinf(d)
    with np.errstate(invalid="ignore"):
        neg = -d[off]
        neg[np.isnan(neg)] = math.inf
        diag = np.abs(np.diagonal(d))
        diag[np.isnan(diag)] = math.inf
        gap = np.abs(d - d.T)
        gap[infinite & infinite.T] = 0.0
        gap[infinite ^ infinite.T] = math.inf
    triangle = 0.0
    for rows in _row_blocks(n, n):
        with np.errstate(invalid="ignore"):
            # tri[p, r, q] = d(p, q) - (d(p, r) + d(r, q)), p in this block
            legs = d[rows, :, None] + d[None, :, :]
            tri = d[rows, None, :] - legs
        checked = (off[rows, :, None] & off[rows, None, :] & off[None, :, :]
                   & ~infinite[rows, None, :] & ~np.isinf(legs))
        triangle = max(triangle, _worst(tri[checked]))
    return MetricReport(nonnegativity=_worst(neg), symmetry=_worst(gap[off]),
                        triangle=triangle, diagonal=_worst(diag), atol=atol)


def _table_matrix(metric: Mapping[tuple[str, str], float]) -> np.ndarray:
    """Distance matrix of a raw table over its sorted labels.

    (p, q) reads the (p, q) entry, else the (q, p) one; a missing diagonal
    entry reads 0.0 and a pair missing both ways raises KeyError.
    """
    table = {(a, b): float(d) for (a, b), d in dict(metric).items()}
    verts = sorted({v for pair in table for v in pair})
    index = {v: k for k, v in enumerate(verts)}
    d = np.zeros((len(verts), len(verts)))
    have = np.zeros(d.shape, dtype=bool)
    for (a, b), dist in table.items():
        d[index[a], index[b]] = dist
        have[index[a], index[b]] = True
    missing = ~(have | have.T)
    np.fill_diagonal(missing, False)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise KeyError(f"no distance recorded for ({verts[i]!r}, {verts[j]!r})")
    return np.where(have, d, d.T)


def _worst(violations: np.ndarray) -> float:
    """Largest positive entry, NaN entries skipped; 0.0 when there is none."""
    hits = violations[violations > 0.0]
    return float(hits.max()) if hits.size else 0.0


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
