"""The property-suite batteries: one table, BATTERY, and one driver, _drive.

A row (name, run, scale) gives run(trials, seed) -> worst violation, held
to TOLERANCE; scale shrinks the trial count. A driven battery gives its
entries per trial, a generator offset, draw(rng, seed, i) -> (key, input)
and a stacked score(key, inputs) -> violations. The driver draws a block's
inputs in trial-by-trial order (per-trial generators seeded seed + k (i + 1),
the one shared generator seeded seed + offset), then scores each key's inputs
as one stack through the kernels behind the public per-state calls, so each
trial gets the bits it gets alone. It folds with max, a NaN counting as inf.
mi-properties is a plain run: check_mi_properties blocks its own splits
and shares entropies across blocks.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Iterable

import numpy as np

from .channels import (
    _apply_locals,
    _apply_nonlocals,
    _branch_mis,
    _haar_amplitudes,
    _haar_unitaries,
    _random_schmidt,
    haar_random_state,
)
from .geometry import (
    NoCorrelationsError,
    _distance_matrices,
    _info_graph,
    _metric_worsts,
    _pair_mis,
    _weight_matrix,
    neg_log_weight,
)
from .hilbert import (
    FactorSpace,
    PureState,
    TensorProductStructure,
    _blocks,
    _reduced_stack,
    qubits,
    reduced_density,
    schmidt_to_dense,
)
from .infotheory import (
    _correlation_bounds,
    _pure_entropies,
    _pure_mis,
    check_mi_properties,
    mutual_information_schmidt,
)

TOLERANCE = 1e-9


def _drive(elems: int, offset: int, draw: Callable[..., tuple[Any, Any]],
           score: Callable[[Any, list], Iterable[float]], trials: int, seed: int) -> float:
    """The worst violation over trials trials of elems entries each."""
    rng = np.random.default_rng(seed + offset)
    worst = 0.0
    for block in _blocks(trials, elems):
        groups: dict[Any, list] = {}
        for i in block:
            key, item = draw(rng, seed, i)
            groups.setdefault(key, []).append(item)
        for key, items in groups.items():
            for violation in score(key, items):
                worst = max(worst, math.inf if math.isnan(violation) else violation)
    return worst


def _seeds(k: int, key: Any = None) -> Callable[..., tuple[Any, int]]:
    """The draw of a battery whose trial i is the Haar seed seed + k (i + 1)."""
    return lambda rng, seed, i: (key, seed + k * (i + 1))


def _draw_shape(rng: np.random.Generator, seed: int, i: int):
    return (int(rng.integers(2, 6)), int(rng.integers(2, 6))), seed + 7919 * (i + 1)


def _entropy_gaps(shape: tuple[int, int], seeds: list[int]) -> list[float]:
    """|S(A) - S(B)| of the Haar states on A x B of the given shape, one per seed."""
    tps = TensorProductStructure((FactorSpace("A", shape[0]), FactorSpace("B", shape[1])))
    amps = _haar_amplitudes(tps.total_dim, seeds)
    s_a = _pure_entropies(amps, tps, [0])
    s_b = _pure_entropies(amps, tps, [1])
    return [abs(a - b) for a, b in zip(s_a, s_b)]


def _mi_properties(trials: int, seed: int) -> float:
    psi = haar_random_state(qubits(("A", "B", "C", "D", "E")), seed + 11)
    rho = reduced_density(psi, ("A", "B", "C", "D"))
    checks = check_mi_properties(rho, trials=trials, seed=seed).checks
    return max(checks.positivity, checks.boundedness, checks.symmetry,
               checks.monotonicity or 0.0)


_QUBITS3 = qubits(("Q0", "Q1", "Q2"))
_SPLIT3 = (("Q0", "Q1"), ("Q2",))
_ENV = PureState(TensorProductStructure((FactorSpace("ENV", 2),)), np.array([1.0, 0.0]))


def _draw_target(rng: np.random.Generator, seed: int, i: int):
    return ("Q0",) if i % 2 == 0 else ("Q2",), seed + 31 * (i + 1)


def _local_deltas(target: tuple[str, ...], seeds: list[int]) -> list[tuple[float, float]]:
    """(delta_mi, delta_s_a) of a Haar unitary on target, one trial per seed."""
    amps = _haar_amplitudes(_QUBITS3.total_dim, seeds)
    us = _haar_unitaries(2 ** len(target), [s + 1 for s in seeds])
    return _apply_locals(_QUBITS3, amps, us, target, _SPLIT3, 1e-9)[1]


def _unitary_shifts(target: tuple[str, ...], seeds: list[int]) -> list[float]:
    return [abs(delta_mi) for delta_mi, _ in _local_deltas(target, seeds)]


def _balance_gaps(target: tuple[str, ...], seeds: list[int]) -> list[float]:
    return [abs(delta_mi - 2.0 * delta_s_a) for delta_mi, delta_s_a in _local_deltas(target, seeds)]


def _nonlocal_gains(_, seeds: list[int]) -> list[float]:
    amps = _haar_amplitudes(_QUBITS3.total_dim, seeds)
    us = _haar_unitaries(4, [s + 1 for s in seeds])
    return _apply_nonlocals(_QUBITS3, amps, us, ("Q2",), _ENV, _SPLIT3, 1e-9)[2]


def _draw_schmidt_modes(rng: np.random.Generator, seed: int, i: int):
    s = _random_schmidt(rng, int(rng.integers(4, 13)))
    return None, (s, rng.permutation(s.num_modes) + 1)


def _decoherence_gaps(_, draws: list) -> Iterable[float]:
    for s, perm in draws:
        # dephase_modes and localize_modes on sorted mode arrays, in range by construction
        n = len(perm)
        p = s.probabilities()
        small = np.sort(perm[: n // 3])
        mixtures = ((small, False), (np.sort(perm[: 2 * n // 3]), False),
                    (small, True), (np.arange(1, n + 1), True))
        deph_small, deph_big, loc_small, loc_all = (
            max(_branch_mis(p, [mix])[-1], 0.0) for mix in mixtures)
        yield deph_small - mutual_information_schmidt(s)  # decohering cannot raise MI
        yield deph_big - deph_small  # more modes, less MI
        yield loc_small - deph_small  # localize is harsher
        yield abs(loc_all)  # full localization kills MI


_QUBITS5 = qubits(("Q0", "Q1", "Q2", "Q3", "Q4"))
_NEG_LOG = neg_log_weight(1.0)


def _metric_violations(_, seeds: list[int]) -> list[float]:
    amps = _haar_amplitudes(_QUBITS5.total_dim, seeds)
    lengths = []
    for mis in _pair_mis(amps, _QUBITS5.dims):
        try:
            graph = _info_graph(_QUBITS5.labels, mis)
        except NoCorrelationsError:
            continue  # vanishingly unlikely for Haar states, but not a violation
        lengths.append(_weight_matrix(graph, _NEG_LOG))
    if not lengths:
        return []
    return _metric_worsts(_distance_matrices(np.array(lengths))).ravel().tolist()


_QUBITS_CDE = qubits(("C", "D", "E0", "E1"))


def _draw_observables(rng: np.random.Generator, seed: int, i: int):
    obs = []
    for _ in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        obs.append(g + g.conj().T)
    return None, (seed + 71 * (i + 1), *obs)


def _bound_excesses(_, draws: list) -> list[float]:
    seeds, obs_c, obs_d = zip(*draws)
    rho, factors = _reduced_stack(_haar_amplitudes(_QUBITS_CDE.total_dim, seeds),
                                  _QUBITS_CDE, [0, 1])  # C, D
    results = _correlation_bounds(rho, factors, np.array(obs_c), np.array(obs_d))
    return [result.bound - result.mutual_info for result in results]


def _draw_schmidt_pair(rng: np.random.Generator, seed: int, i: int):
    s = _random_schmidt(rng, int(rng.integers(2, 9)))
    psi = schmidt_to_dense(s)
    return psi.tps, (mutual_information_schmidt(s), psi.amplitudes)


def _closed_form_gaps(tps: TensorProductStructure, draws: list) -> list[float]:
    closed, amps = zip(*draws)
    dense = _pure_mis(np.array(amps), tps, [0], [1])
    return [abs(mi - mi_dense) for mi, mi_dense in zip(closed, dense)]


BATTERY = (
    ("pure-mi-symmetry", partial(_drive, 5 * 5, 0, _draw_shape, _entropy_gaps), 1.0),
    ("mi-properties", _mi_properties, 1.0),
    ("local-unitary-identity", partial(_drive, 4 * 4, 0, _draw_target, _unitary_shifts), 1.0),
    ("local-balance", partial(_drive, 4 * 4, 0, _seeds(37, ("Q1", "Q2")), _balance_gaps), 1.0),
    ("nonlocal-monotone", partial(_drive, 8 * 8, 0, _seeds(41), _nonlocal_gains), 1.0),
    ("decoherence-order", partial(_drive, 12, 53, _draw_schmidt_modes, _decoherence_gaps), 1.0),
    ("metric-axioms", partial(_drive, 10 * 4 * 4, 0, _seeds(61), _metric_violations), 0.2),
    ("correlation-bound", partial(_drive, 4 * 4, 71, _draw_observables, _bound_excesses), 1.0),
    ("schmidt-vs-dense", partial(_drive, 8 * 8, 83, _draw_schmidt_pair, _closed_form_gaps), 1.0),
)
