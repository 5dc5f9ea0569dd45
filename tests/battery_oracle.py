"""Trial-by-trial reference loops for the stacked property battery.

Each function is the property-suite battery of the same name written one
trial at a time through the public API: every trial draws its inputs and
goes through apply_local, apply_nonlocal, reduced_density, dephase_modes,
build_info_graph and the other per-state calls before the next trial
draws. The CLI's batteries and check_mi_properties draw the same inputs in
the same generator order and evaluate them as stacks, so their worst
values must equal these bit for bit.
"""

import math

import numpy as np

from entgeo.channels import (
    LocalPerturbation,
    NonLocalPerturbation,
    _random_schmidt,
    apply_local,
    apply_nonlocal,
    dephase_modes,
    haar_random_state,
    haar_random_unitary,
    localize_modes,
)
from entgeo.geometry import (
    NoCorrelationsError,
    build_info_graph,
    emergent_metric,
    metric_check,
    neg_log_weight,
)
from entgeo.hilbert import (
    FactorSpace,
    TensorProductStructure,
    partial_trace,
    qubits,
    reduced_density,
    schmidt_to_dense,
)
from entgeo.infotheory import (
    correlation_lower_bound,
    mutual_information,
    mutual_information_schmidt,
    pure_state_mutual_information,
    von_neumann_entropy,
)


def pure_mi_symmetry(trials, seed):
    worst = 0.0
    rng = np.random.default_rng(seed)
    for i in range(trials):
        da, db = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        tps = TensorProductStructure((FactorSpace("A", da), FactorSpace("B", db)))
        psi = haar_random_state(tps, seed + 7919 * (i + 1))
        s_a = von_neumann_entropy(reduced_density(psi, ("A",)))
        s_b = von_neumann_entropy(reduced_density(psi, ("B",)))
        worst = max(worst, abs(s_a - s_b))
    return worst


def mi_property_worsts(rho, trials, seed):
    """check_mi_properties' (positivity, boundedness, symmetry, monotonicity),
    one mutual_information call per split as in its definition."""
    labels = list(rho.labels)
    three_way = len(labels) >= 3
    dims = {f.label: f.dim for f in rho.factors}
    rng = np.random.default_rng(seed)
    positivity = boundedness = symmetry = monotonicity = 0.0
    for _ in range(trials):
        perm = list(rng.permutation(labels))
        cut = int(rng.integers(1, len(labels)))
        part_a, part_b = tuple(perm[:cut]), tuple(perm[cut:])
        mi = mutual_information(rho, (part_a, part_b))
        positivity = max(positivity, -mi)
        bound = (math.log(math.prod(dims[lb] for lb in part_a))
                 + math.log(math.prod(dims[lb] for lb in part_b)))
        boundedness = max(boundedness, mi - bound)
        mi_swapped = mutual_information(rho, (part_b, part_a))
        symmetry = max(symmetry, abs(mi - mi_swapped))
        if three_way:
            perm = list(rng.permutation(labels))
            n = len(perm)
            i = int(rng.integers(1, n - 1))
            j = int(rng.integers(i + 1, n))
            a3, b3, c3 = tuple(perm[:i]), tuple(perm[i:j]), tuple(perm[j:])
            mi_small = mutual_information(partial_trace(rho, a3 + b3), (a3, b3))
            mi_big = mutual_information(rho, (a3, b3 + c3))
            monotonicity = max(monotonicity, mi_small - mi_big)
    return positivity, boundedness, symmetry, monotonicity if three_way else None


def mi_properties(trials, seed):
    psi = haar_random_state(qubits(("A", "B", "C", "D", "E")), seed + 11)
    rho = reduced_density(psi, ("A", "B", "C", "D"))
    positivity, boundedness, symmetry, monotonicity = mi_property_worsts(rho, trials, seed)
    return max(positivity, boundedness, symmetry, monotonicity or 0.0)


def local_identity(trials, seed):
    worst = 0.0
    split = (("Q0", "Q1"), ("Q2",))
    for i in range(trials):
        psi = haar_random_state(qubits(("Q0", "Q1", "Q2")), seed + 31 * (i + 1))
        target = ("Q0",) if i % 2 == 0 else ("Q2",)
        pert = LocalPerturbation(haar_random_unitary(2, seed + 31 * (i + 1) + 1), target)
        _, delta_mi, _ = apply_local(psi, pert, split)
        worst = max(worst, abs(delta_mi))
    return worst


def local_balance(trials, seed):
    worst = 0.0
    split = (("Q0", "Q1"), ("Q2",))
    for i in range(trials):
        psi = haar_random_state(qubits(("Q0", "Q1", "Q2")), seed + 37 * (i + 1))
        pert = LocalPerturbation(haar_random_unitary(4, seed + 37 * (i + 1) + 1),
                                 ("Q1", "Q2"))
        _, delta_mi, delta_s_a = apply_local(psi, pert, split)
        worst = max(worst, abs(delta_mi - 2.0 * delta_s_a))
    return worst


def nonlocal_monotone(trials, seed):
    worst = 0.0
    split = (("Q0", "Q1"), ("Q2",))
    env = (FactorSpace("ENV", 2),)
    for i in range(trials):
        psi = haar_random_state(qubits(("Q0", "Q1", "Q2")), seed + 41 * (i + 1))
        pert = NonLocalPerturbation(
            unitary=haar_random_unitary(4, seed + 41 * (i + 1) + 1),
            labels=("Q2",),
            env_factors=env,
            env_state=np.array([1.0, 0.0]),
        )
        _, delta_mi = apply_nonlocal(psi, pert, split)
        worst = max(worst, delta_mi)
    return worst


def decoherence_order(trials, seed):
    worst = 0.0
    rng = np.random.default_rng(seed + 53)
    for _ in range(trials):
        num_modes = int(rng.integers(4, 13))
        s = _random_schmidt(rng, num_modes)
        perm = rng.permutation(num_modes) + 1
        d_small = frozenset(int(n) for n in perm[: num_modes // 3])
        d_big = d_small | frozenset(int(n) for n in perm[num_modes // 3 : 2 * num_modes // 3])
        base_mi = mutual_information_schmidt(s)
        _, deph_small = dephase_modes(s, d_small)
        _, deph_big = dephase_modes(s, d_big)
        _, loc_small = localize_modes(s, d_small)
        _, loc_all = localize_modes(s, range(1, num_modes + 1))
        worst = max(worst, deph_small - base_mi, deph_big - deph_small,
                    loc_small - deph_small, abs(loc_all))
    return worst


def metric_axioms(trials, seed):
    worst = 0.0
    labels = ("Q0", "Q1", "Q2", "Q3", "Q4")
    wf = neg_log_weight(1.0)
    for i in range(trials):
        psi = haar_random_state(qubits(labels), seed + 61 * (i + 1))
        try:
            graph = build_info_graph(psi)
        except NoCorrelationsError:
            continue
        report = metric_check(emergent_metric(graph, wf))
        worst = max(worst, report.nonnegativity, report.symmetry,
                    report.triangle, report.diagonal)
    return worst


def correlation_bound(trials, seed):
    worst = 0.0
    rng = np.random.default_rng(seed + 71)
    tps = qubits(("C", "D", "E0", "E1"))
    for i in range(trials):
        psi = haar_random_state(tps, seed + 71 * (i + 1))
        rho = reduced_density(psi, ("C", "D"))
        obs = []
        for _ in range(2):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            obs.append(g + g.conj().T)
        result = correlation_lower_bound(rho, obs[0], obs[1])
        worst = max(worst, result.bound - result.mutual_info)
    return worst


def schmidt_vs_dense(trials, seed):
    worst = 0.0
    rng = np.random.default_rng(seed + 83)
    for _ in range(trials):
        num_modes = int(rng.integers(2, 9))
        s = _random_schmidt(rng, num_modes)
        closed = mutual_information_schmidt(s)
        psi = schmidt_to_dense(s)
        dense = pure_state_mutual_information(psi, (("A",), ("B",)))
        worst = max(worst, abs(closed - dense))
    return worst


# property-suite check name -> reference loop, for every stacked battery
ORACLES = {
    "pure-mi-symmetry": pure_mi_symmetry,
    "mi-properties": mi_properties,
    "local-unitary-identity": local_identity,
    "local-balance": local_balance,
    "nonlocal-monotone": nonlocal_monotone,
    "decoherence-order": decoherence_order,
    "metric-axioms": metric_axioms,
    "correlation-bound": correlation_bound,
    "schmidt-vs-dense": schmidt_vs_dense,
}
