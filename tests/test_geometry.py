import copy
import heapq
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entgeo.geometry
import entgeo.hilbert
import entgeo.infotheory
from entgeo.channels import DecoherenceSchedule, decoherence_sweep, haar_random_state
from entgeo.geometry import (
    MI_EDGE_FLOOR,
    EmergentMetric,
    InfoGraph,
    MetricReport,
    NoCorrelationsError,
    WeightFunction,
    build_info_graph,
    edge_records,
    edge_weight,
    emergent_distance,
    emergent_metric,
    metric_check,
    neg_log_weight,
)
from entgeo.hilbert import (
    FactorSpace,
    PureState,
    TensorProductStructure,
    partial_trace,
    qubits,
    reduced_density,
    tensor,
)
from entgeo.infotheory import pure_state_mutual_information, von_neumann_entropy

LOG2 = math.log(2.0)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def ghz(labels) -> PureState:
    n = len(labels)
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(qubits(labels), amp)


def haar_state(labels, seed) -> PureState:
    rng = np.random.default_rng(seed)
    tps = qubits(labels)
    v = rng.standard_normal(tps.total_dim) + 1j * rng.standard_normal(tps.total_dim)
    return PureState(tps, v / np.linalg.norm(v))


class TestInfoGraph:
    def test_bell_with_spectator_keeps_one_edge(self):
        up = PureState(qubits(("C",)), np.array([1.0, 0.0]))
        psi = tensor(PureState(qubits(("A", "B")), BELL), up)
        graph = build_info_graph(psi)
        assert set(graph.edges) == {("A", "B")}
        assert abs(graph.mutual_info("A", "B") - 2 * LOG2) < 1e-10
        assert graph.mutual_info("A", "C") is None

    def test_negative_mi_raises_as_mutual_information_does(self, monkeypatch):
        monkeypatch.setattr(entgeo.infotheory, "_matrix_entropies",
                            lambda mats, base=None: [1.0 if mats.shape[-1] == 4 else 0.0] * len(mats))
        with pytest.raises(ArithmeticError, match=r"^mutual information came out negative: -1\.0$"):
            build_info_graph(PureState(qubits(("A", "B")), BELL))

    def test_ghz_three_equal_edges(self):
        graph = build_info_graph(ghz(("A", "B", "C")))
        assert set(graph.edges) == {("A", "B"), ("A", "C"), ("B", "C")}
        for mi in graph.edges.values():
            assert abs(mi - LOG2) < 1e-10
        assert abs(graph.i0 - LOG2) < 1e-10

    def test_product_state_raises(self):
        psi = PureState(qubits(("A", "B")), np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(NoCorrelationsError):
            build_info_graph(psi)

    def test_weak_pair_below_the_floor_raises(self):
        # MI of about 2e-14: positive, but under MI_EDGE_FLOOR, so no edge
        p = 1e-14
        psi = PureState(qubits(("A", "B")), np.array([math.sqrt(1 - p), 0, 0, math.sqrt(p)]))
        assert 0.0 < pure_state_mutual_information(psi, (("A",), ("B",))) < MI_EDGE_FLOOR
        with pytest.raises(NoCorrelationsError):
            build_info_graph(psi)

    def test_lookup_is_symmetric(self):
        graph = InfoGraph(("P", "Q"), {("Q", "P"): 0.3})
        assert graph.mutual_info("P", "Q") == 0.3
        assert graph.mutual_info("Q", "P") == 0.3

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            InfoGraph(("P", "Q"), {("P", "P"): 0.3})

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown"):
            InfoGraph(("P", "Q"), {("P", "R"): 0.3})

    def test_rejects_conflicting_duplicates(self):
        with pytest.raises(ValueError, match="conflicting"):
            InfoGraph(("P", "Q"), {("P", "Q"): 0.3, ("Q", "P"): 0.4})

    def test_rejects_nonpositive_mi(self):
        with pytest.raises(ValueError):
            InfoGraph(("P", "Q"), {("P", "Q"): 0.0})

    def test_empty_graph_raises_no_correlations(self):
        with pytest.raises(NoCorrelationsError):
            InfoGraph(("P", "Q"), {})


class TestWeightFunction:
    def test_neg_log_endpoint(self):
        wf = neg_log_weight()
        assert wf(1.0) == 0.0

    def test_neg_log_diverges_toward_zero(self):
        wf = neg_log_weight()
        assert wf(1e-9) > 20.0

    def test_length_scale_multiplies(self):
        wf = neg_log_weight(3.5)
        assert abs(wf(0.5) - 3.5 * LOG2) < 1e-12

    def test_rejects_nonzero_at_one(self):
        with pytest.raises(ValueError, match="phi\\(1\\)"):
            WeightFunction(phi=lambda x: 1.0 - x + 0.1)

    def test_rejects_increasing_profile(self):
        with pytest.raises(ValueError, match="decreasing"):
            WeightFunction(phi=lambda x: x - 1.0)

    def test_rejects_bad_length_scale(self):
        with pytest.raises(ValueError, match="length_scale"):
            neg_log_weight(0.0)

    def test_table_profile_interpolates(self):
        wf = WeightFunction.from_table([0.25, 0.5, 1.0], [2.0, 1.0, 0.0])
        assert abs(wf.phi(0.375) - 1.5) < 1e-12
        assert wf.phi(1.0) == 0.0
        # saturates instead of extrapolating below the table
        assert wf.phi(0.01) == 2.0

    def test_table_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="non-increasing"):
            WeightFunction.from_table([0.5, 0.75, 1.0], [1.0, 1.5, 0.0])

    def test_table_must_end_at_one(self):
        with pytest.raises(ValueError, match="end at 1"):
            WeightFunction.from_table([0.25, 0.5], [1.0, 0.0])


class TestEdgeWeight:
    def test_reference_edge_has_exactly_zero_weight(self):
        w = edge_weight(2 * LOG2, 2 * LOG2, neg_log_weight())
        assert w == 0.0
        assert math.copysign(1.0, w) == 1.0  # a clean zero, not -0.0

    def test_half_reference(self):
        assert abs(edge_weight(LOG2, 2 * LOG2, neg_log_weight()) - LOG2) < 1e-12

    def test_zero_mi_is_infinitely_far(self):
        assert edge_weight(0.0, 1.0, neg_log_weight()) == math.inf

    def test_rejects_mi_above_reference(self):
        with pytest.raises(ValueError, match="exceeds"):
            edge_weight(1.1, 1.0, neg_log_weight())

    def test_tolerates_rounding_overshoot(self):
        ref = 0.3
        assert edge_weight(ref * (1.0 + 1e-13), ref, neg_log_weight()) == 0.0

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError, match="reference"):
            edge_weight(0.5, 0.0, neg_log_weight())

    def test_rejects_negative_mi(self):
        with pytest.raises(ValueError, match="nonnegative"):
            edge_weight(-0.1, 1.0, neg_log_weight())

    def test_monotone_in_mi(self):
        wf = neg_log_weight()
        grid = np.linspace(1e-6, 1.0, 500)
        weights = [edge_weight(float(x), 1.0, wf) for x in grid]
        assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))


class TestEmergentDistance:
    def synthetic_graph(self) -> InfoGraph:
        # weights under -log with i0 = 1 pinned by the (X, Y) anchor edge:
        # P-Q costs 5 direct, P-R-Q costs 1 + 2 = 3
        return InfoGraph(
            ("P", "Q", "R", "X", "Y"),
            {
                ("P", "Q"): math.exp(-5.0),
                ("P", "R"): math.exp(-1.0),
                ("Q", "R"): math.exp(-2.0),
                ("X", "Y"): 1.0,
            },
        )

    def test_detour_beats_direct_edge(self):
        graph = self.synthetic_graph()
        d = emergent_distance(graph, neg_log_weight(), "P", "Q")
        assert abs(d - 3.0) < 1e-9

    def test_distance_to_self_is_zero(self):
        assert emergent_distance(self.synthetic_graph(), neg_log_weight(), "P", "P") == 0.0

    def test_disconnected_component_is_infinite(self):
        assert emergent_distance(self.synthetic_graph(), neg_log_weight(), "P", "X") == math.inf

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            emergent_distance(self.synthetic_graph(), neg_log_weight(), "P", "Z")

    def test_maximally_correlated_pair_sits_at_zero_distance(self):
        # distinct vertices at distance zero: allowed by the pseudo-metric
        graph = InfoGraph(("P", "Q"), {("P", "Q"): 0.7})
        assert emergent_distance(graph, neg_log_weight(), "P", "Q") == 0.0

    def test_length_scale_scales_distances(self):
        graph = self.synthetic_graph()
        d1 = emergent_distance(graph, neg_log_weight(1.0), "P", "Q")
        d2 = emergent_distance(graph, neg_log_weight(2.0), "P", "Q")
        assert abs(d2 - 2.0 * d1) < 1e-12

    def test_external_reference_stretches_all_edges(self):
        graph = InfoGraph(("P", "Q"), {("P", "Q"): 0.5})
        d = emergent_distance(graph, neg_log_weight(), "P", "Q", ref_mi=1.0)
        assert abs(d - LOG2) < 1e-12

    def test_negative_length_raises(self):
        # phi(1) = -1e-13 passes WeightFunction's 1e-12 spot check
        wf = WeightFunction(phi=lambda x: -math.log(x) - 1e-13)
        graph = InfoGraph(("P", "Q"), {("P", "Q"): 0.5})
        with pytest.raises(ValueError, match=">= 0"):
            emergent_metric(graph, wf)
        with pytest.raises(ValueError, match=">= 0"):
            emergent_distance(graph, wf, "P", "Q")

    def test_every_length_consumer_rejects_a_negative_length(self):
        # the step-0 distance of a sweep and a strongest edge both sit at
        # phi(1) = -1e-13, which must not reach the output
        wf = WeightFunction(phi=lambda x: -math.log(x) - 1e-13)
        graph = InfoGraph(("P", "Q"), {("P", "Q"): 0.5})
        flat = entgeo.hilbert.SchmidtPairState.flat(4, symbolic=False)
        with pytest.raises(ValueError, match=">= 0"):
            edge_weight(0.5, 0.5, wf)
        with pytest.raises(ValueError, match=">= 0"):
            edge_records(graph, wf)
        with pytest.raises(ValueError, match=">= 0"):
            decoherence_sweep(flat, DecoherenceSchedule.ir_first(4, 2, "dephase"), LOG2, wf)

    def test_nan_length_raises(self):
        wf = WeightFunction(phi=lambda x: math.nan if 0.3 < x < 0.4 else -math.log(x))
        graph = InfoGraph(("P", "Q", "R"), {("P", "Q"): 1.0, ("Q", "R"): 0.35})
        with pytest.raises(ValueError, match="length nan"):
            emergent_metric(graph, wf)


class TestEmergentMetric:
    def test_all_pairs_present_and_symmetric(self):
        metric = emergent_metric(build_info_graph(ghz(("A", "B", "C"))), neg_log_weight())
        assert metric.distance("A", "B") == metric.distance("B", "A")
        assert metric.distance("A", "A") == 0.0
        report = metric_check(metric)
        assert report.symmetry == 0.0  # structural, not approximate
        assert report.ok

    def test_requires_complete_table(self):
        with pytest.raises(ValueError, match="pairs"):
            EmergentMetric(("P", "Q", "R"), {("P", "Q"): 1.0})

    def test_ghz_metric_is_degenerate(self):
        # all edges share the maximal MI, so every pair sits at distance 0
        metric = emergent_metric(build_info_graph(ghz(("A", "B", "C"))), neg_log_weight())
        for p, q in (("A", "B"), ("A", "C"), ("B", "C")):
            assert metric.distance(p, q) == 0.0

    def test_random_states_satisfy_axioms(self):
        labels = ("Q0", "Q1", "Q2", "Q3", "Q4")
        for seed in range(5):
            graph = build_info_graph(haar_state(labels, seed))
            report = metric_check(emergent_metric(graph, neg_log_weight()))
            assert report.ok, (seed, report)


class TestMetricCheck:
    def test_flags_asymmetric_hand_built_table(self):
        table = {("P", "Q"): 1.0, ("Q", "P"): 2.0}
        report = metric_check(table)
        assert report.symmetry == 1.0
        assert not report.ok

    def test_flags_nonzero_diagonal(self):
        table = {("P", "Q"): 1.0, ("Q", "P"): 1.0, ("P", "P"): 0.5}
        report = metric_check(table)
        assert report.diagonal == 0.5
        assert not report.ok

    def test_flags_triangle_violation(self):
        table = {("P", "Q"): 10.0, ("P", "R"): 1.0, ("R", "Q"): 1.0}
        report = metric_check(table)
        assert report.triangle >= 8.0 - 1e-12
        assert not report.ok

    def test_accepts_clean_directed_table(self):
        table = {("P", "Q"): 1.0, ("Q", "P"): 1.0}
        assert metric_check(table).ok

    def test_infinite_legs_assert_nothing(self):
        table = {("P", "Q"): math.inf, ("P", "R"): 1.0, ("R", "Q"): math.inf}
        assert metric_check(table).ok

    def test_nan_and_negative_infinity_fail_a_raw_table(self):
        for bad in (math.nan, -math.inf):
            report = metric_check({("a", "b"): bad, ("b", "c"): 1.0, ("a", "c"): 5.0})
            assert report.nonnegativity == math.inf
            assert not report.ok

    def test_nan_and_negative_infinity_fail_a_metric(self):
        for bad in (math.nan, -math.inf):
            metric = EmergentMetric(("a", "b", "c"),
                                    {("a", "b"): bad, ("b", "c"): 1.0, ("a", "c"): 5.0})
            report = metric_check(metric)
            assert report.nonnegativity == math.inf
            assert not report.ok

    def test_nan_on_the_diagonal_fails(self):
        report = metric_check({("P", "Q"): 1.0, ("P", "P"): math.nan})
        assert report.diagonal == math.inf
        assert not report.ok

    def test_missing_pair_raises(self):
        with pytest.raises(KeyError, match="no distance recorded for \\('P', 'R'\\)"):
            metric_check({("P", "Q"): 1.0, ("Q", "R"): 1.0})

    def test_empty_table_is_clean(self):
        assert metric_check({}) == MetricReport(0.0, 0.0, 0.0, 0.0, 1e-9)


class TestGraphInvariants:
    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=25)
    def test_shortest_path_never_exceeds_direct_edge(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        verts = tuple(f"V{i}" for i in range(n))
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    edges[(verts[i], verts[j])] = float(rng.uniform(0.01, 1.0))
        if not edges:
            edges[(verts[0], verts[1])] = 0.5
        graph = InfoGraph(verts, edges)
        wf = neg_log_weight()
        metric = emergent_metric(graph, wf)
        for (a, b), mi in graph.edges.items():
            assert metric.distance(a, b) <= edge_weight(mi, graph.i0, wf) + 1e-12

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=25)
    def test_triangle_holds_structurally(self, seed):
        rng = np.random.default_rng(seed)
        verts = ("V0", "V1", "V2", "V3")
        edges = {}
        for i in range(4):
            for j in range(i + 1, 4):
                if rng.random() < 0.8:
                    edges[(verts[i], verts[j])] = float(rng.uniform(0.01, 1.0))
        if not edges:
            edges[(verts[0], verts[1])] = 0.5
        report = metric_check(emergent_metric(InfoGraph(verts, edges), neg_log_weight()))
        assert report.triangle <= 1e-12

    def test_strengthening_an_edge_shortens_distances(self):
        verts = ("V0", "V1", "V2", "V3")
        edges = {
            ("V0", "V1"): 0.2,
            ("V1", "V2"): 0.3,
            ("V2", "V3"): 0.25,
            ("V0", "V3"): 0.9,
        }
        wf = neg_log_weight()
        before = emergent_metric(InfoGraph(verts, edges), wf)
        boosted = dict(edges)
        boosted[("V1", "V2")] = 0.45  # still below i0 = 0.9
        after = emergent_metric(InfoGraph(verts, boosted), wf)
        for i in range(4):
            for j in range(i + 1, 4):
                assert after.distance(verts[i], verts[j]) <= \
                    before.distance(verts[i], verts[j]) + 1e-12


class TestEdgeRecords:
    def test_sorted_rows_with_weights(self):
        graph = build_info_graph(ghz(("B", "A", "C")))
        rows = edge_records(graph, neg_log_weight())
        assert [(r[0], r[1]) for r in rows] == [("A", "B"), ("A", "C"), ("B", "C")]
        for _, _, mi, weight in rows:
            assert abs(mi - LOG2) < 1e-10
            assert weight == 0.0

    def test_external_reference_changes_weights(self):
        rows = edge_records(build_info_graph(ghz(("A", "B", "C"))), neg_log_weight(),
                            ref_mi=2 * LOG2)
        assert abs(rows[0][3] - LOG2) < 1e-9


# -- the array path against per-pair references written out here ----------

def reference_edges(psi: PureState) -> dict[tuple[str, str], float]:
    """build_info_graph's edges, one reduced_density per pair. Its MI is
    written out as S(p) + S(q) - S(pq) with partial_trace and
    von_neumann_entropy, outside the kernel that build_info_graph and
    mutual_information share."""
    labels = psi.labels
    edges = {}
    for i, p in enumerate(labels):
        for q in labels[i + 1:]:
            rho = reduced_density(psi, (p, q))
            mi = (von_neumann_entropy(partial_trace(rho, (p,)))
                  + von_neumann_entropy(partial_trace(rho, (q,)))
                  - von_neumann_entropy(rho))
            if mi >= MI_EDGE_FLOOR:
                edges[(p, q)] = mi
    return edges


def reference_dijkstra(graph: InfoGraph, wf, source: str, ref: float) -> dict[str, float]:
    adjacency = {v: [] for v in graph.vertices}
    for (a, b), mi in graph.edges.items():
        w = edge_weight(mi, ref, wf)
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    dist = {v: math.inf for v in graph.vertices}
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adjacency[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def reference_metric_check(table, atol: float = 1e-9) -> MetricReport:
    """Triple loop over a raw table; NaN and -inf count as infinitely bad."""
    verts = sorted({v for pair in table for v in pair})

    def lookup(p, q):
        if p == q:
            return table.get((p, q), 0.0)
        return table[(p, q)] if (p, q) in table else table[(q, p)]

    def gap(a, b):
        if math.isinf(a) and math.isinf(b):
            return 0.0
        if math.isinf(a) or math.isinf(b):
            return math.inf
        return abs(a - b)

    nonneg = symm = tri = diag = 0.0
    for p in verts:
        d_pp = lookup(p, p)
        diag = max(diag, math.inf if math.isnan(d_pp) else abs(d_pp))
        for q in verts:
            if q == p:
                continue
            d_pq = lookup(p, q)
            if math.isnan(d_pq) or d_pq == -math.inf:
                nonneg = math.inf
            elif not math.isinf(d_pq):
                nonneg = max(nonneg, -d_pq)
            symm = max(symm, gap(d_pq, lookup(q, p)))
            if math.isinf(d_pq):
                continue
            for r in verts:
                if r in (p, q):
                    continue
                leg = lookup(p, r) + lookup(r, q)
                if not math.isinf(leg):
                    tri = max(tri, d_pq - leg)
    return MetricReport(nonneg, symm, tri, diag, atol)


def labeled_state(dims, seed: int) -> PureState:
    tps = TensorProductStructure(tuple(FactorSpace(f"F{i}", d) for i, d in enumerate(dims)))
    return haar_random_state(tps, seed)


def block_state(n: int, seed: int) -> PureState:
    """Product of Haar blocks over a random partition of n qubits, so every
    pair across two blocks has exactly zero MI."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    amp, order, start = np.ones(1, dtype=complex), [], 0
    while start < n:
        k = int(rng.integers(1, min(n - start, 4) + 1))
        order.extend(int(q) for q in perm[start:start + k])
        v = rng.standard_normal(2**k) + 1j * rng.standard_normal(2**k)
        amp = np.kron(amp, v / np.linalg.norm(v))
        start += k
    amp = np.transpose(amp.reshape((2,) * n), np.argsort(order)).reshape(-1)
    return PureState(qubits(tuple(f"Q{i}" for i in range(n))), amp)


def random_graph(seed: int) -> InfoGraph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    verts = tuple(f"V{i}" for i in range(n))
    density = rng.uniform(0.2, 1.0)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                if rng.random() < 0.3:
                    # a few repeated values make for tied paths
                    edges[(verts[i], verts[j])] = float(rng.choice([0.1, 0.25, 0.5]))
                else:
                    edges[(verts[i], verts[j])] = float(10 ** rng.uniform(-8, 0))
    if not edges:
        edges[(verts[0], verts[-1])] = 0.5
    return InfoGraph(verts, edges)


PROFILES = (
    neg_log_weight(),
    neg_log_weight(3.7),
    WeightFunction.from_table([0.01, 0.2, 0.5, 1.0], [4.0, 2.0, 0.7, 0.0]),
)


def assert_same_graph(psi: PureState) -> None:
    expected = reference_edges(psi)
    if not expected:
        with pytest.raises(NoCorrelationsError):
            build_info_graph(psi)
        return
    assert build_info_graph(psi).edges == expected


class TestArrayPathMatchesPerPairPath:
    @given(dims=st.lists(st.integers(2, 4), min_size=2, max_size=5), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_build_matches_per_pair_mutual_information(self, dims, seed):
        if math.prod(dims) > 1024:
            dims = dims[:3]
        assert_same_graph(labeled_state(dims, seed))

    @given(n=st.integers(2, 9), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_build_matches_on_block_states(self, n, seed):
        assert_same_graph(block_state(n, seed))

    @pytest.mark.parametrize("dims", [(3, 2, 4, 2), (2, 3), (5, 2), (2, 2), (5, 2, 2), (3, 3, 3)])
    def test_build_matches_on_fixed_qudit_states(self, dims):
        for seed in (1, 2):
            assert_same_graph(labeled_state(dims, seed))

    def test_build_matches_on_a_product_pair(self):
        psi = PureState(qubits(("A", "B", "C")),
                        np.kron(BELL, np.array([0.6, 0.8], dtype=complex)))
        assert_same_graph(psi)

    def test_build_does_not_call_reduced_density(self, monkeypatch):
        def per_pair(*args, **kwargs):
            raise AssertionError("build_info_graph went through reduced_density")

        monkeypatch.setattr(entgeo.hilbert, "reduced_density", per_pair)
        monkeypatch.setattr(entgeo.infotheory, "reduced_density", per_pair, raising=False)
        monkeypatch.setattr(entgeo.geometry, "reduced_density", per_pair, raising=False)
        graph = build_info_graph(haar_state(("Q0", "Q1", "Q2", "Q3"), 5))
        assert len(graph.edges) == 6

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_distances_match_dijkstra(self, seed):
        graph = random_graph(seed)
        verts = graph.vertices
        for wf in PROFILES:
            metric = emergent_metric(graph, wf)
            rows = {v: reference_dijkstra(graph, wf, v, graph.i0) for v in verts}
            assert metric.table == {(p, q): rows[p][q]
                                    for i, p in enumerate(verts) for q in verts[i + 1:]}
            for p in verts:
                for q in verts:
                    expected = 0.0 if p == q else rows[p][q]
                    assert emergent_distance(graph, wf, p, q) == expected

    def test_external_reference_matches_dijkstra(self):
        graph = random_graph(17)
        ref = 2.0 * graph.i0
        wf = neg_log_weight()
        metric = emergent_metric(graph, wf, ref_mi=ref)
        for i, p in enumerate(graph.vertices):
            row = reference_dijkstra(graph, wf, p, ref)
            for q in graph.vertices[i + 1:]:
                assert metric.distance(p, q) == row[q]

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_metric_check_matches_triple_loop(self, data):
        n = data.draw(st.integers(1, 5))
        verts = [f"V{i}" for i in range(n)]
        value = st.one_of(st.floats(-2.0, 10.0),
                          st.sampled_from([0.0, 1.0, math.inf, -math.inf, math.nan]))
        table = {}
        for i, p in enumerate(verts):
            if data.draw(st.booleans()):
                table[(p, p)] = data.draw(value)
            for q in verts[i + 1:]:
                way = data.draw(st.sampled_from(["forward", "backward", "both"]))
                if way != "backward":
                    table[(p, q)] = data.draw(value)
                if way != "forward":
                    table[(q, p)] = data.draw(value)
        assert metric_check(table) == reference_metric_check(table)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_metric_check_matches_triple_loop_on_metrics(self, seed):
        metric = emergent_metric(random_graph(seed), neg_log_weight())
        assert metric_check(metric) == reference_metric_check(metric.table)

    @pytest.mark.parametrize("block_elems", [1, 100])
    def test_row_blocks_change_nothing(self, monkeypatch, block_elems):
        # 1 relaxes and checks one row per block; 100 takes 1-4 rows as V varies
        monkeypatch.setattr(entgeo.hilbert, "_BLOCK_ELEMS", block_elems)
        wf = neg_log_weight()
        rng = np.random.default_rng(block_elems)
        for seed in range(30):
            graph = random_graph(seed)
            metric = emergent_metric(graph, wf)
            for i, p in enumerate(graph.vertices):
                row = reference_dijkstra(graph, wf, p, graph.i0)
                for q in graph.vertices[i + 1:]:
                    assert metric.distance(p, q) == row[q]
            assert metric_check(metric) == reference_metric_check(metric.table)
            verts = graph.vertices
            table = {(p, q): float(rng.choice([rng.uniform(-1.0, 10.0), math.inf]))
                     for p in verts for q in verts}
            assert metric_check(table) == reference_metric_check(table)


def graph_on(n: int, seed: int, kind: str) -> InfoGraph:
    """A graph on n vertices: a path (its far end settles only after n - 1
    relaxation rounds), a complete graph (settles at once) or two
    components (inf distances between them)."""
    rng = np.random.default_rng(seed)
    verts = tuple(f"V{i}" for i in range(n))
    if kind == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        cut = max(1, n // 2)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i < cut) == (j < cut)]
        pairs = pairs or [(0, 1)]
    return InfoGraph(verts, {(verts[i], verts[j]): float(10 ** rng.uniform(-6, 0))
                             for i, j in pairs})


class TestStackedGeometry:
    """The (k, V, V) relaxation and axiom check against k one-graph calls."""

    @pytest.mark.parametrize("block_elems", [1, 100, 1 << 18])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_relaxation_matches_one_graph_at_a_time(self, monkeypatch, block_elems, n):
        wf = neg_log_weight()
        graphs = [graph_on(n, seed, kind) for seed in range(3)
                  for kind in ("path", "complete", "split")]
        expected_metrics = [emergent_metric(g, wf) for g in graphs]
        expected_reports = [metric_check(m) for m in expected_metrics]
        lengths = np.array([entgeo.geometry._weight_matrix(g, wf, g.i0) for g in graphs])
        # blocks of (graph, row) pairs that cross from one graph into the next
        monkeypatch.setattr(entgeo.hilbert, "_BLOCK_ELEMS", block_elems)
        dist = entgeo.geometry._distance_matrices(lengths)
        worsts = entgeo.geometry._metric_worsts(dist).tolist()
        sources = [n - 1, 0]
        paths = entgeo.geometry._shortest_paths(lengths, sources)
        for t, graph in enumerate(graphs):
            verts = graph.vertices
            assert expected_metrics[t].table == {
                (verts[i], verts[j]): dist[t, i, j] for i in range(n) for j in range(i + 1, n)}
            report = expected_reports[t]
            assert worsts[t] == [report.nonnegativity, report.symmetry,
                                 report.triangle, report.diagonal]
            alone = entgeo.geometry._shortest_paths(lengths[t][None], sources)[0]
            assert np.array_equal(paths[t], alone)
        # two components need 3 vertices; on 2 the split graph is one edge
        assert any(math.isinf(d) for m in expected_metrics for d in m.table.values()) == (n > 2)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_axiom_check_matches_one_table_at_a_time(self, data):
        n = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, 4))
        verts = [f"V{i}" for i in range(n)]
        value = st.one_of(st.floats(-2.0, 10.0),
                          st.sampled_from([0.0, 1.0, math.inf, -math.inf, math.nan]))
        tables = []
        for _ in range(k):
            table = {}
            for i, p in enumerate(verts):
                if n == 1 or data.draw(st.booleans()):
                    table[(p, p)] = data.draw(value)
                for q in verts[i + 1:]:
                    way = data.draw(st.sampled_from(["forward", "backward", "both"]))
                    if way != "backward":
                        table[(p, q)] = data.draw(value)
                    if way != "forward":
                        table[(q, p)] = data.draw(value)
            tables.append(table)
        stack = np.array([entgeo.geometry._table_matrix(t) for t in tables])
        block_elems = data.draw(st.sampled_from([1, 7, 100, 1 << 18]))
        with mock.patch.object(entgeo.hilbert, "_BLOCK_ELEMS", block_elems):
            worsts = entgeo.geometry._metric_worsts(stack).tolist()
        for table, got in zip(tables, worsts):
            report = metric_check(table)
            assert got == [report.nonnegativity, report.symmetry, report.triangle, report.diagonal]


class TestArrayGeometry:
    """InfoGraph.mi and EmergentMetric.d as the one stored format."""

    def test_metric_check_reads_the_array_as_the_table_would(self, monkeypatch):
        # "Q10" < "Q2": vertex order is not the sorted order _table_matrix uses
        wf = neg_log_weight()
        labels = tuple(f"Q{i}" for i in range(12))
        metrics = [emergent_metric(build_info_graph(haar_state(labels, 3)), wf)]
        for seed in range(12):
            try:
                metrics.append(emergent_metric(build_info_graph(block_state(12, seed)), wf))
            except NoCorrelationsError:
                continue
        assert any(math.isinf(d) for m in metrics for d in m.table.values())
        tables = [dict(m.table) for m in metrics]
        expected = [metric_check(t) for t in tables]

        def refuse(table):
            raise AssertionError("metric_check rebuilt the array from a table")

        monkeypatch.setattr(entgeo.geometry, "_table_matrix", refuse)
        assert [metric_check(m) for m in metrics] == expected

    def test_the_build_path_never_reads_a_pair_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a label-pair table was read on the build path")

        monkeypatch.setattr(entgeo.geometry, "_pair_array", refuse)
        monkeypatch.setattr(entgeo.geometry, "_table_matrix", refuse)
        graph = build_info_graph(block_state(9, 4))
        assert metric_check(emergent_metric(graph, neg_log_weight())).ok

    def test_arrays_match_the_mappings(self):
        graph = build_info_graph(haar_state(tuple(f"Q{i}" for i in range(11)), 2))
        metric = emergent_metric(graph, neg_log_weight())
        verts = graph.vertices
        for i, p in enumerate(verts):
            assert metric.d[i, i] == 0.0 and graph.mi[i, i] == 0.0
            for j, q in enumerate(verts):
                if i != j:
                    assert graph.mi[i, j] == graph.mutual_info(p, q)
                    assert metric.d[i, j] == metric.distance(p, q)

    def test_views_and_arrays_are_read_only(self):
        graph = build_info_graph(entgeo.bell_state())
        metric = emergent_metric(graph, neg_log_weight())
        with pytest.raises(TypeError):
            graph.edges[("A", "B")] = 99.0
        with pytest.raises(TypeError):
            metric.table[("A", "B")] = 99.0
        with pytest.raises(ValueError):
            graph.mi[0, 1] = 99.0
        with pytest.raises(ValueError):
            metric.d[0, 1] = 99.0
        assert graph.i0 == 2 * math.log(2.0)

    def test_values_and_i0_are_python_floats(self):
        graph = build_info_graph(ghz(("A", "B", "C")))
        metric = emergent_metric(graph, neg_log_weight())
        assert type(graph.i0) is float
        assert all(type(mi) is float for mi in graph.edges.values())
        assert all(type(d) is float for d in metric.table.values())

    def test_equality_follows_the_edges(self):
        psi = haar_state(("Q0", "Q1", "Q2", "Q3"), 8)
        graph = build_info_graph(psi)
        assert graph == build_info_graph(psi)
        assert InfoGraph(graph.vertices, dict(graph.edges)) == graph
        changed = dict(graph.edges)
        changed[("Q1", "Q3")] *= 0.5
        assert InfoGraph(graph.vertices, changed) != graph
        metric = emergent_metric(graph, neg_log_weight())
        assert EmergentMetric(metric.vertices, dict(metric.table)) == metric

    @pytest.mark.parametrize("graph,has_inf", [
        (build_info_graph(haar_state(tuple(f"Q{i}" for i in range(11)), 2)), False),
        (build_info_graph(block_state(9, 4)), True),
        (InfoGraph(("P", "Q", "R"), {("R", "Q"): 0.2, ("P", "Q"): 1.0}), False),
    ], ids=["haar", "block", "hand-built"])
    def test_pickle_and_deepcopy_round_trip(self, graph, has_inf):
        metric = emergent_metric(graph, neg_log_weight())
        assert np.isinf(metric.d).any() == has_inf
        for copied in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
            assert copied == graph and copied.vertices == graph.vertices
            assert np.array_equal(copied.mi, graph.mi) and not copied.mi.flags.writeable
            assert copied.i0 == graph.i0
        for copied in (pickle.loads(pickle.dumps(metric)), copy.deepcopy(metric)):
            assert copied == metric and copied.vertices == metric.vertices
            assert np.array_equal(copied.d, metric.d) and not copied.d.flags.writeable

    def test_metric_rejects_conflicting_values(self):
        with pytest.raises(ValueError, match=r"conflicting values for pair \('a', 'b'\)"):
            EmergentMetric(("a", "b"), {("a", "b"): 1.0, ("b", "a"): 2.0})
        same = EmergentMetric(("a", "b"), {("a", "b"): 1.0, ("b", "a"): 1.0})
        assert same.distance("b", "a") == 1.0
        # NaN is no conflict, as for InfoGraph: the last value holds both ways
        last = EmergentMetric(("a", "b"), {("a", "b"): 1.0, ("b", "a"): math.nan})
        assert math.isnan(last.distance("a", "b")) and math.isnan(last.distance("b", "a"))

    def test_metric_rejects_bad_pairs_and_duplicate_vertices(self):
        for pair in (("a", "a"), ("a", "z")):
            with pytest.raises(ValueError, match="bad pair"):
                EmergentMetric(("a", "b"), {pair: 1.0})
        with pytest.raises(ValueError, match="duplicate vertex labels"):
            EmergentMetric(("a", "a"), {})

    def test_first_bad_edge_in_vertex_pair_order_raises(self):
        # given in reverse; both weak edges have NaN length under this profile
        wf = WeightFunction(phi=lambda x: math.nan if x < 0.5 else -math.log(x))
        graph = InfoGraph(("P", "Q", "R"),
                          {("Q", "R"): 0.2, ("P", "R"): 0.3, ("P", "Q"): 1.0})
        with pytest.raises(ValueError, match=r"^edge MI 0\.3 has length nan"):
            emergent_metric(graph, wf)
