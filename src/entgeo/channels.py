"""Unitary perturbations, branch decoherence channels, and sweeps.

Two ways correlations change here. Unitary perturbations act on dense
multi-factor states: local ones (inside the system) shift the mutual
information by exactly twice the one-sided entropy change, while couplings
to a fresh environment can only drain cross-correlations. Branch
decoherence acts on Schmidt-pair states mode by mode: an environment
either records which branch occurred (dephase, classical correlations
survive) or fully decorrelates the branch into a product (localize,
nothing survives). Both channels leave the marginals untouched, so all
the action is in the joint spectrum, which stays closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geometry import WeightFunction, edge_weight
from .hilbert import (
    FactorSpace,
    PureState,
    SchmidtPairState,
    TensorProductStructure,
    _count,
    _kept_positions,
    _reduced_stack,
)
from .infotheory import (
    _base_factor,
    _density_mis,
    _neg_xlogx,
    _nonnegative_mi,
    _pure_entropies,
    _pure_mis,
    _schmidt_mi,
    _split_pair,
)

ATOL_UNITARY = 1e-10


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of the triangular factor is rephased to be real and
    positive, which removes the QR gauge ambiguity and makes the
    distribution exactly Haar. Deterministic per (dim, seed).
    """
    return _haar_unitaries(dim, [seed])[0]


def _haar_unitaries(dim: int, seeds: Sequence[int]) -> np.ndarray:
    """haar_random_unitary(dim, seed) for each seed, as a (k, dim, dim) stack.

    Each seed draws its own Ginibre matrix; one QR runs on the stack.
    """
    dim = _count(dim, 1, "dim")
    z = np.empty((len(seeds), dim, dim), dtype=complex)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[k] = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_random_state(tps: TensorProductStructure, seed: int) -> PureState:
    """Normalized complex-Gaussian state vector (Haar on the sphere)."""
    return PureState(tps, _haar_amplitudes(tps.total_dim, [seed])[0])


def _haar_amplitudes(dim: int, seeds: Sequence[int]) -> np.ndarray:
    """haar_random_state's amplitudes of length dim for each seed, as a (k, dim) stack."""
    amps = np.empty((len(seeds), dim), dtype=complex)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps[k] = v / np.linalg.norm(v)
    return amps


def _random_schmidt(rng: np.random.Generator, num_modes: int) -> SchmidtPairState:
    """Schmidt-pair state with normalized complex-Gaussian weights drawn from rng."""
    w = rng.standard_normal(num_modes) + 1j * rng.standard_normal(num_modes)
    return SchmidtPairState.from_weights(w / np.linalg.norm(w))


def _check_unitaries(us: np.ndarray, what: str) -> None:
    """Raises unless us is a (k, n, n) stack of unitaries, naming the first that is not."""
    if us.ndim != 3 or us.shape[1] != us.shape[2]:
        raise ValueError(f"{what} must be a square matrix, got shape {us.shape[1:]}")
    errs = np.abs(us.conj().swapaxes(1, 2) @ us - np.eye(us.shape[1])).max(axis=(1, 2))
    for err in errs.tolist():
        if not err <= ATOL_UNITARY:  # NaN fails too
            raise ValueError(f"{what} is not unitary: max |U^dag U - I| = {err}")


def _set_labels_and_unitary(pert: LocalPerturbation | NonLocalPerturbation) -> None:
    """Checks and stores a perturbation's labels (as a tuple) and unitary (locked)."""
    object.__setattr__(pert, "labels", tuple(pert.labels))
    if not pert.labels or len(set(pert.labels)) != len(pert.labels):
        raise ValueError("labels must be non-empty and unique")
    u = np.asarray(pert.unitary, dtype=complex)
    _check_unitaries(u[None], "unitary")
    u.setflags(write=False)
    object.__setattr__(pert, "unitary", u)


def _check_known_factors(pert_labels: Iterable[str], psi_labels: Iterable[str]) -> None:
    """Rejects perturbation labels that name no factor of the state."""
    outside = set(pert_labels) - set(psi_labels)
    if outside:
        raise ValueError(f"perturbation touches unknown factors {sorted(outside)}")


@dataclass(frozen=True)
class LocalPerturbation:
    """Unitary acting on named factors inside the system."""

    unitary: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        _set_labels_and_unitary(self)


@dataclass(frozen=True)
class NonLocalPerturbation:
    """Unitary coupling named system factors to a fresh environment.

    The unitary acts on the listed system factors followed by the
    environment factors (in that order); env_state is the environment's
    initial pure amplitudes, checked and stored once as a PureState.
    """

    unitary: np.ndarray
    labels: tuple[str, ...]
    env_factors: tuple[FactorSpace, ...]
    env_state: np.ndarray
    _env: PureState = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _set_labels_and_unitary(self)
        env = PureState(TensorProductStructure(self.env_factors), self.env_state)
        object.__setattr__(self, "env_factors", env.tps.factors)
        object.__setattr__(self, "env_state", env.amplitudes)
        object.__setattr__(self, "_env", env)

    @property
    def env_labels(self) -> tuple[str, ...]:
        return self._env.labels


def apply_unitary(psi: PureState, u: np.ndarray, labels: Sequence[str]) -> PureState:
    """Apply a unitary to the named factors of a dense pure state.

    The unitary is indexed row-major over the factors in the order given
    by labels; all other factors are untouched.
    """
    u = np.asarray(u, dtype=complex)
    return PureState(psi.tps, _apply_unitaries(psi.tps, psi.amplitudes[None], u[None], labels)[0])


def _apply_unitaries(tps: TensorProductStructure, amps: np.ndarray, us: np.ndarray,
                     labels: Sequence[str]) -> np.ndarray:
    """apply_unitary's amplitudes for each state vector in the (k, D) stack amps
    on tps, the k-th under the k-th unitary of the complex (k, a, a) stack us.

    np.tensordot's arithmetic with a leading stack axis: the target axes
    go first and one matrix product per state contracts them.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("target labels must be unique")
    positions = [tps.index_of(lb) for lb in labels]
    dims = tps.dims
    act_dims = [dims[i] for i in positions]
    act_dim = math.prod(act_dims)
    _check_unitaries(us, "unitary")
    if us.shape[1:] != (act_dim, act_dim):
        raise ValueError(
            f"unitary must be {act_dim}x{act_dim} for factors {labels}, got {us.shape[1:]}"
        )
    count = len(amps)
    others = [i for i in range(len(dims)) if i not in positions]
    t = np.transpose(amps.reshape((count,) + dims), [0] + [1 + i for i in positions + others])
    moved = (us @ t.reshape(count, act_dim, -1)).reshape([count] + [dims[i] for i in positions + others])
    moved = np.moveaxis(moved, range(1, len(positions) + 1), [1 + i for i in positions])
    return moved.reshape(count, -1)


def apply_local(
    psi: PureState,
    pert: LocalPerturbation,
    split: tuple[Sequence[str], Sequence[str]],
    atol: float = 1e-9,
) -> tuple[PureState, float, float]:
    """Apply a local unitary and report (new_state, delta_mi, delta_s_a).

    The split must partition all factors of psi, and the perturbation may
    only touch factors inside that partition. Because the joint state
    stays pure, its two marginal entropies move in lockstep and the mutual
    information shifts by exactly twice the A-side change; that identity
    is verified numerically within atol on every call.
    """
    moved, [(delta_mi, delta_s_a)] = _apply_locals(
        psi.tps, psi.amplitudes[None], pert.unitary[None], pert.labels, split, atol)
    return PureState(psi.tps, moved[0]), delta_mi, delta_s_a


def _apply_locals(
    tps: TensorProductStructure,
    amps: np.ndarray,
    us: np.ndarray,
    labels: Sequence[str],
    split: tuple[Sequence[str], Sequence[str]],
    atol: float,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """apply_local on each state vector of the (k, D) stack amps on tps, the
    k-th under the k-th unitary of us on labels: the moved amplitudes and
    each (delta_mi, delta_s_a). The first trial whose identity breaks raises.
    """
    side_a, side_b = _split_pair(tps.labels, split)
    _check_known_factors(labels, tps.labels)
    moved = _apply_unitaries(tps, amps, us, labels)
    work = np.empty(2 * amps.size, dtype=complex)
    s_a0, s_b0, s_a1, s_b1 = (_pure_entropies(stack, tps, side, work=work)
                              for stack in (amps, moved) for side in (side_a, side_b))
    deltas = []
    for a0, b0, a1, b1 in zip(s_a0, s_b0, s_a1, s_b1):
        # joint state pure before and after: I = S_A + S_B throughout
        delta_mi = (a1 + b1) - (a0 + b0)
        delta_s_a = a1 - a0
        if abs(delta_mi - 2.0 * delta_s_a) > atol:
            raise ArithmeticError(
                f"purity bookkeeping broke: delta_mi = {delta_mi}, "
                f"2 delta_s_a = {2.0 * delta_s_a}"
            )
        deltas.append((delta_mi, delta_s_a))
    return moved, deltas


def apply_nonlocal(
    psi: PureState,
    pert: NonLocalPerturbation,
    split: tuple[Sequence[str], Sequence[str]],
    atol: float = 1e-9,
) -> tuple[PureState, float]:
    """Couple one side of the split to a fresh environment.

    Returns (extended_state, delta_mi) where delta_mi is the change of
    I(A:B) from before the coupling. The perturbation's system factors
    must sit entirely on one side of the split (a genuinely one-sided
    interaction); discarding the environment is then a local channel on
    that side, so the cross-split mutual information cannot grow. A
    positive delta beyond atol raises.
    """
    tps, extended, [delta_mi] = _apply_nonlocals(
        psi.tps, psi.amplitudes[None], pert.unitary[None], pert.labels, pert._env, split, atol)
    return PureState(tps, extended[0]), delta_mi


def _apply_nonlocals(
    tps: TensorProductStructure,
    amps: np.ndarray,
    us: np.ndarray,
    labels: Sequence[str],
    env: PureState,
    split: tuple[Sequence[str], Sequence[str]],
    atol: float,
) -> tuple[TensorProductStructure, np.ndarray, list[float]]:
    """apply_nonlocal on each state vector of the (k, D) stack amps on tps,
    the k-th coupled to env by the k-th unitary of us on labels plus env's
    factors: the extended structure and amplitudes, and each delta_mi. The
    first trial whose MI grows beyond atol raises.
    """
    side_a, side_b = _split_pair(tps.labels, split)
    collision = set(env.labels) & set(tps.labels)
    if collision:
        raise ValueError(f"environment labels collide with system labels {sorted(collision)}")
    _check_known_factors(labels, tps.labels)
    touched = set(labels)
    if not (touched <= set(side_a) or touched <= set(side_b)):
        raise ValueError(
            "system factors of a nonlocal perturbation must lie on one side of the split"
        )
    mi0 = _pure_mis(amps, tps, side_a, side_b)
    extended_tps = TensorProductStructure(tps.factors + env.tps.factors)
    # tensor()'s np.kron product, one leading stack axis further in
    coupled = (amps[:, :, None] * env.amplitudes[None, None, :]).reshape(len(amps), -1)
    extended = _apply_unitaries(extended_tps, coupled, us, tuple(labels) + env.labels)
    rho_ab, factors = _reduced_stack(extended, extended_tps, side_a + side_b)
    pos_a, pos_b = _kept_positions([f.label for f in factors], side_a)
    mi1 = [_nonnegative_mi(mi)
           for mi in _density_mis(rho_ab, [f.dim for f in factors], pos_b, pos_a)]
    deltas = [m1 - m0 for m0, m1 in zip(mi0, mi1)]
    for delta_mi in deltas:
        if delta_mi > atol:
            raise ArithmeticError(
                f"coupling to a fresh environment increased cross-split MI by {delta_mi}"
            )
    return extended_tps, extended, deltas


@dataclass(frozen=True)
class BranchMixture:
    """Joint two-sided state after branch decoherence.

    Three orthogonal blocks: a coherent superposition over the retained
    modes, one recorded classical branch per dephased mode, and a fully
    decorrelated product block over the localized modes. Marginals are
    identical to the source state's, so the mutual information is
    closed-form: with R, D, L the retained, dephased and localized mass,
    h_X = -sum_{n in X} p log p and H(x) = -x log x,
    MI = 2 h_R - H(R) + h_D + H(L), exact for the probabilities as given.
    dephased and localized hold disjoint sorted int64 mode arrays (unhashable, as PureState).
    """

    source: SchmidtPairState
    dephased: np.ndarray
    localized: np.ndarray

    def __post_init__(self) -> None:
        self.source.require_weights("branch decoherence")
        for name in ("dephased", "localized"):
            modes = _modes(getattr(self, name))
            _check_range(modes, self.source.num_modes)
            object.__setattr__(self, name, modes)
        _check_disjoint((self.dephased, self.localized), "are both dephased and localized")

    def mutual_info(self, base: float | None = None) -> float:
        blocks = [(modes, localizes) for modes, localizes
                  in ((self.dephased, False), (self.localized, True)) if modes.size]
        return max(_branch_mis(self.source.probabilities(), blocks)[-1], 0.0) / _base_factor(base)


def _modes(modes: Iterable[int]) -> np.ndarray:
    """The one mode-set format: a sorted, repeat-free, read-only int64 array.

    An integer array of n entries is copied, never aliased, and costs O(n)
    when it is already strictly increasing (as ir_first's chunks are);
    only otherwise is it sorted and deduplicated, in O(n log n).
    """
    if isinstance(modes, np.ndarray) and modes.dtype.kind == "i":
        idx = modes.reshape(-1).astype(np.int64)  # a copy that owns its data, not a view
        if not (idx[1:] > idx[:-1]).all():
            idx = np.unique(idx)
    else:
        modes = list(modes)
        ints = list(map(int, modes))
        if ints != modes:  # 2.5 or "3" among them
            raise ValueError(f"mode {next(n for n in modes if int(n) != n)!r} not an integer")
        ints = sorted(set(ints))
        if ints and not -2**63 <= ints[0] <= ints[-1] < 2**63:
            raise ValueError(f"mode {max(ints, key=abs)} outside 1..{2**63 - 1}")
        idx = np.array(ints, dtype=np.int64)
    idx.setflags(write=False)
    return idx


def _check_range(modes: np.ndarray, num_modes: int) -> None:
    """Raises unless a sorted mode array lies in 1..num_modes."""
    for n in modes[:1].tolist() + modes[-1:].tolist():
        if not 1 <= n <= num_modes:
            raise ValueError(f"mode {n} outside 1..{num_modes}")


def _check_disjoint(mode_sets: Sequence[np.ndarray], clash: str) -> None:
    """Raises naming the modes found in more than one of the mode arrays.

    Joined in the given order, the n modes split into maximal strictly
    increasing runs, each made of whole sets. Ordered by first mode, runs
    whose ranges do not interleave hold every mode once when each ends
    below the next one's start. That costs O(n) when the sets come in or
    against mode order (the stable argsort is linear on such runs), plus
    O(r log r) to order r runs in any other order. Only when ranges
    interleave are the n modes sorted to find repeats, O(n log n).
    """
    if len(mode_sets) < 2:
        return
    joined = np.concatenate(mode_sets)
    starts = np.flatnonzero(joined[1:] <= joined[:-1]) + 1
    if not starts.size:
        return
    firsts = joined[np.concatenate(([0], starts))]
    lasts = joined[np.concatenate((starts, [joined.size])) - 1]
    order = np.argsort(firsts, kind="stable")
    if (lasts[order[:-1]] < firsts[order[1:]]).all():
        return
    joined.sort()
    twice = joined[1:][joined[1:] == joined[:-1]]
    if twice.size:
        raise ValueError(f"modes {sorted(set(twice.tolist()))} {clash}")


def dephase_modes(
    s: SchmidtPairState, modes: Iterable[int], base: float | None = None
) -> tuple[BranchMixture, float]:
    """Let an environment record which of the given modes occurred.

    Coherences to and among the recorded branches die; the branches
    survive as classical correlations. Marginals are unchanged, and the
    result's MI can only fall (equality when modes is empty). Returns the
    decohered descriptor and its MI, whatever the order of the modes.
    """
    mix = BranchMixture(source=s, dephased=modes, localized=())
    return mix, mix.mutual_info(base=base)


def localize_modes(
    s: SchmidtPairState, modes: Iterable[int], base: float | None = None
) -> tuple[BranchMixture, float]:
    """Fully decorrelate the given modes into a two-sided product block.

    Strictly harsher than dephasing the same modes: even the classical
    branch correlations are destroyed, so the MI sits at or below the
    dephased value, reaching zero when every mode is localized.
    """
    mix = BranchMixture(source=s, dephased=(), localized=modes)
    return mix, mix.mutual_info(base=base)


VALID_CHANNELS = ("dephase", "localize")


@dataclass(frozen=True)
class ScheduleStep:
    """Modes newly hit at this step (a sorted int64 array) and the channel that hits them."""

    modes: np.ndarray
    channel: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", _modes(self.modes))
        if not self.modes.size:
            raise ValueError("a schedule step must hit at least one mode")
        if self.channel not in VALID_CHANNELS:
            raise ValueError(f"channel must be one of {VALID_CHANNELS}, got {self.channel!r}")


@dataclass(frozen=True)
class DecoherenceSchedule:
    """Ordered decoherence steps with pairwise-disjoint mode sets.

    Effects accumulate: after step k the state carries every mode hit so
    far, each under the channel of its own step. Checking that the steps
    are disjoint costs O(modes + steps) when they come in or against mode
    order without interleaving, as ir_first's do (see _check_disjoint).
    """

    steps: tuple[ScheduleStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        _check_disjoint([step.modes for step in self.steps], "hit by more than one step")

    @classmethod
    def ir_first(cls, num_modes: int, num_steps: int, channel: str) -> "DecoherenceSchedule":
        """Contiguous chunks from the IR end (mode 1) upward, one per step.

        Chunk sizes differ by at most one; the earlier steps take the
        larger chunks when num_modes does not divide evenly.
        """
        num_modes = _count(num_modes, 1, "num_modes")
        num_steps = _count(num_steps, 0, "num_steps")
        if num_steps == 0:
            return cls(steps=())
        if num_modes < num_steps:
            raise ValueError(f"cannot split {num_modes} modes into {num_steps} non-empty steps")
        chunks = np.array_split(np.arange(1, num_modes + 1), num_steps)
        return cls(steps=tuple(ScheduleStep(modes=chunk, channel=channel) for chunk in chunks))


@dataclass(frozen=True)
class SweepPoint:
    """Sweep state after `step` schedule entries (step 0 is the baseline)."""

    step: int
    momentum_mi: float
    total_mi: float
    distance: float


def _mass_entropy(x: float) -> float:
    """H(x) = -x log x of one mass x >= 0."""
    return -x * math.log(x) if x > 0.0 else 0.0


def _excess_mass(p: np.ndarray) -> float:
    """sum(p) - 1 to full precision, for up to 2**26 probabilities p.

    p splits into parts on the 2**-30 grid, parts of the rest on the 2**-57
    grid (adding 1.5 * 2**k rounds to the grid of its binade) and remainders
    below 2**-58. The gridded parts add exactly; only the remainders round.
    """
    excess = -1.0
    rest = p
    for splitter in (1.5 * 2.0**22, 1.5 * 2.0**-5):
        part = rest + splitter
        part -= splitter
        excess += float(part.sum())
        rest = np.subtract(rest, part, out=part)
    return excess + float(rest.sum())


def _branch_mis(p: np.ndarray, blocks: Sequence[tuple[np.ndarray, bool]]) -> list[float]:
    """The one branch-decoherence kernel: MI before and after each block.

    p are a Schmidt-pair state's probabilities; blocks are disjoint
    (_modes array, localizes) pairs, each applied on top of the earlier
    ones and summed in ascending mode order. MI = 2 h_R - H(R) + h_D + H(L)
    (see BranchMixture) is 2 H(p) - S(joint) with no two large terms
    cancelling: 2 h_R - H(R) >= h_R, as each p in R is at most R. R and h_R
    are summed from the back so that a tiny remainder keeps its digits.
    """
    untouched = np.ones(p.size, dtype=bool)
    sums = [(False, 0.0, 0.0)]  # before any block: dephasing nothing
    for modes, localizes in blocks:
        untouched[modes - 1] = False
        block = p[modes - 1]
        sums.append((localizes, float(block.sum()), _neg_xlogx(block)))
    rest = p[untouched]
    retained = [(float(rest.sum()), _neg_xlogx(rest))]
    for _, mass, h in reversed(sums[1:]):
        retained.append((retained[-1][0] + mass, retained[-1][1] + h))
    mis = []
    excess = None
    deph = h_deph = loc = 0.0
    for (r, h_r), (localizes, mass, h) in zip(reversed(retained), sums):
        if localizes:
            loc += mass
        else:
            deph += mass
            h_deph += h
        if loc > 0.5:  # near L = 1, H(L) takes log1p of 1 - L = R + D - (sum(p) - 1)
            excess = _excess_mass(p) if excess is None else excess
            h_loc = -loc * math.log1p(excess - (r + deph))
        else:
            h_loc = _mass_entropy(loc)
        mis.append(2.0 * h_r - _mass_entropy(r) + h_deph + h_loc)
    return mis


def decoherence_sweep(
    s: SchmidtPairState,
    schedule: DecoherenceSchedule,
    spin_mi: float,
    wf: WeightFunction,
) -> list[SweepPoint]:
    """Walk a schedule and track total correlations and emergent distance.

    The swept state is the momentum-like sector; a fixed spin-like MI
    rides along untouched, so total MI is their sum (sector additivity).
    Distances normalize against the step-0 total, which pins the baseline
    point at distance exactly 0 and grows as decoherence eats the sum.
    Returns one point per step plus the baseline, schedule order.

    O(modes + steps), one pass over the modes: the steps are the blocks
    of _branch_mis, whose one formula MI = 2 h_R - H(R) + h_D + H(L)
    gives each step's momentum MI, exact for the probabilities as given.
    It is clamped to [0, I_0], with I_0 = 2 H(p) the step-0 value, so
    decoherence never raises MI, not even by round-off. Building and
    validating an ir_first schedule is O(modes + steps) too: no mode
    array is sorted.
    """
    if spin_mi < 0.0:
        raise ValueError(f"spin_mi must be nonnegative, got {spin_mi}")
    s.require_weights("decoherence sweep")
    for step in schedule.steps:
        _check_range(step.modes, s.num_modes)
    blocks = [(step.modes, step.channel == "localize") for step in schedule.steps]
    p = s.probabilities()
    mis = _branch_mis(p, blocks)
    mom0 = _schmidt_mi(p)
    total0 = spin_mi + mom0
    if total0 <= 0.0:
        raise ValueError("initial total MI is zero; nothing to normalize distances against")
    points = [SweepPoint(step=0, momentum_mi=mom0, total_mi=total0,
                         distance=edge_weight(total0, total0, wf))]
    for k, mi in enumerate(mis[1:], start=1):
        mom = min(max(mi, 0.0), mom0)
        total = spin_mi + mom
        points.append(SweepPoint(step=k, momentum_mi=mom, total_mi=total,
                                 distance=edge_weight(total, total0, wf)))
    return points
