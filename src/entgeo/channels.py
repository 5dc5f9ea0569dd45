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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import WeightFunction, edge_weight
from .hilbert import (
    FactorSpace,
    PureState,
    SchmidtPairState,
    TensorProductStructure,
    reduced_density,
    tensor,
)
from .infotheory import (
    _neg_xlogx,
    _split_pair,
    mutual_information,
    mutual_information_schmidt,
    pure_state_mutual_information,
    von_neumann_entropy,
)

ATOL_UNITARY = 1e-10


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of the triangular factor is rephased to be real and
    positive, which removes the QR gauge ambiguity and makes the
    distribution exactly Haar. Deterministic per (dim, seed).
    """
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_random_state(tps: TensorProductStructure, seed: int) -> PureState:
    """Normalized complex-Gaussian state vector (Haar on the sphere)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(tps.total_dim) + 1j * rng.standard_normal(tps.total_dim)
    return PureState(tps, v / np.linalg.norm(v))


def _random_schmidt(rng: np.random.Generator, num_modes: int) -> SchmidtPairState:
    """Schmidt-pair state with normalized complex-Gaussian weights drawn from rng."""
    w = rng.standard_normal(num_modes) + 1j * rng.standard_normal(num_modes)
    return SchmidtPairState.from_weights(w / np.linalg.norm(w))


def _check_unitary(u: np.ndarray, what: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {u.shape}")
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if err > ATOL_UNITARY:
        raise ValueError(f"{what} is not unitary: max |U^dag U - I| = {err}")
    return u


def _set_labels_and_unitary(pert: LocalPerturbation | NonLocalPerturbation) -> None:
    """Checks and stores a perturbation's labels (as a tuple) and unitary (locked)."""
    object.__setattr__(pert, "labels", tuple(pert.labels))
    if not pert.labels or len(set(pert.labels)) != len(pert.labels):
        raise ValueError("labels must be non-empty and unique")
    u = _check_unitary(pert.unitary, "unitary")
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
    initial pure amplitudes.
    """

    unitary: np.ndarray
    labels: tuple[str, ...]
    env_factors: tuple[FactorSpace, ...]
    env_state: np.ndarray

    def __post_init__(self) -> None:
        _set_labels_and_unitary(self)
        object.__setattr__(self, "env_factors", tuple(self.env_factors))
        if not self.env_factors:
            raise ValueError("need at least one environment factor")
        env_dim = math.prod(f.dim for f in self.env_factors)
        v = np.array(self.env_state, dtype=complex, copy=True).reshape(-1)
        if v.shape != (env_dim,):
            raise ValueError(f"env_state must have length {env_dim}, got {v.shape}")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"env_state not normalized: |v| = {nrm!r}")
        v.setflags(write=False)
        object.__setattr__(self, "env_state", v)

    @property
    def env_labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.env_factors)


def apply_unitary(psi: PureState, u: np.ndarray, labels: Sequence[str]) -> PureState:
    """Apply a unitary to the named factors of a dense pure state.

    The unitary is indexed row-major over the factors in the order given
    by labels; all other factors are untouched.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("target labels must be unique")
    positions = [psi.tps.index_of(lb) for lb in labels]
    dims = psi.tps.dims
    act_dims = [dims[i] for i in positions]
    act_dim = math.prod(act_dims)
    u = _check_unitary(u, "unitary")
    if u.shape != (act_dim, act_dim):
        raise ValueError(
            f"unitary must be {act_dim}x{act_dim} for factors {labels}, got {u.shape}"
        )
    t = psi.amplitudes.reshape(dims)
    op = u.reshape(act_dims + act_dims)
    k = len(positions)
    t = np.tensordot(op, t, axes=(list(range(k, 2 * k)), positions))
    t = np.moveaxis(t, list(range(k)), positions)
    return PureState(psi.tps, t.reshape(-1))


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
    side_a, side_b = _split_pair(psi.labels, split)
    _check_known_factors(pert.labels, psi.labels)
    s_a0 = von_neumann_entropy(reduced_density(psi, side_a))
    s_b0 = von_neumann_entropy(reduced_density(psi, side_b))
    psi1 = apply_unitary(psi, pert.unitary, pert.labels)
    s_a1 = von_neumann_entropy(reduced_density(psi1, side_a))
    s_b1 = von_neumann_entropy(reduced_density(psi1, side_b))
    # joint state pure before and after: I = S_A + S_B throughout
    delta_mi = (s_a1 + s_b1) - (s_a0 + s_b0)
    delta_s_a = s_a1 - s_a0
    if abs(delta_mi - 2.0 * delta_s_a) > atol:
        raise ArithmeticError(
            f"purity bookkeeping broke: delta_mi = {delta_mi}, "
            f"2 delta_s_a = {2.0 * delta_s_a}"
        )
    return psi1, delta_mi, delta_s_a


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
    side_a, side_b = _split_pair(psi.labels, split)
    collision = set(pert.env_labels) & set(psi.labels)
    if collision:
        raise ValueError(f"environment labels collide with system labels {sorted(collision)}")
    _check_known_factors(pert.labels, psi.labels)
    touched = set(pert.labels)
    if not (touched <= set(side_a) or touched <= set(side_b)):
        raise ValueError(
            "system factors of a nonlocal perturbation must lie on one side of the split"
        )
    mi0 = pure_state_mutual_information(psi, (side_a, side_b))
    env = PureState(TensorProductStructure(pert.env_factors, cap=psi.tps.cap), pert.env_state)
    extended = tensor(psi, env)
    extended = apply_unitary(extended, pert.unitary, pert.labels + pert.env_labels)
    rho_ab = reduced_density(extended, side_a + side_b)
    mi1 = mutual_information(rho_ab, (side_a, side_b))
    delta_mi = mi1 - mi0
    if delta_mi > atol:
        raise ArithmeticError(
            f"coupling to a fresh environment increased cross-split MI by {delta_mi}"
        )
    return extended, delta_mi


@dataclass(frozen=True)
class BranchMixture:
    """Joint two-sided state after branch decoherence.

    Three orthogonal blocks: a coherent superposition over the retained
    modes, one recorded classical branch per dephased mode, and a fully
    decorrelated product block over the localized modes. Marginals are
    identical to the source state's, so mutual information is
    2 H(|w|^2) - S(joint spectrum), all closed-form.
    """

    source: SchmidtPairState
    dephased: frozenset[int]
    localized: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dephased", frozenset(self.dephased))
        object.__setattr__(self, "localized", frozenset(self.localized))
        if self.dephased & self.localized:
            raise ValueError("a mode cannot be both dephased and localized")
        m = self.source.num_modes
        for n in self.dephased | self.localized:
            if int(n) != n or n < 1 or n > m:
                raise ValueError(f"mode index {n!r} outside 1..{m}")
        self.source.require_weights("branch decoherence")

    def _blocks(self) -> tuple[float, np.ndarray, np.ndarray]:
        p = self.source.probabilities()
        deph_idx = np.array(sorted(self.dephased), dtype=np.int64) - 1
        loc_idx = np.array(sorted(self.localized), dtype=np.int64) - 1
        touched = np.zeros(self.source.num_modes, dtype=bool)
        touched[deph_idx] = True
        touched[loc_idx] = True
        p_retained = float(p[~touched].sum())
        return p_retained, p[deph_idx], p[loc_idx]

    def joint_spectrum(self) -> np.ndarray:
        """Eigenvalues of the joint state, descending.

        One eigenvalue p_R for the retained coherent block, the branch
        probability w_n for each dephased mode, and the product spectrum
        {q_n q_m P_loc} over localized mode pairs.
        """
        p_ret, p_deph, p_loc = self._blocks()
        parts = []
        if p_ret > 0.0:
            parts.append(np.array([p_ret]))
        if p_deph.size:
            parts.append(p_deph)
        p_l = float(p_loc.sum())
        if p_loc.size and p_l > 0.0:
            q = p_loc / p_l
            parts.append(p_l * np.outer(q, q).reshape(-1))
        if not parts:
            raise ArithmeticError("empty spectrum")
        lam = np.concatenate(parts)
        return np.sort(lam)[::-1]

    def marginal_probabilities(self) -> np.ndarray:
        """Either side's marginal spectrum, which decoherence never moves."""
        return self.source.probabilities()

    def joint_entropy(self, base: float | None = None) -> float:
        """S(joint) in closed form, skipping the explicit product spectrum."""
        p_ret, p_deph, p_loc = self._blocks()
        s = _neg_xlogx(np.array([p_ret])) + _neg_xlogx(p_deph)
        p_l = float(p_loc.sum())
        if p_loc.size and p_l > 0.0:
            q = p_loc / p_l
            # -sum_{nm} P q_n q_m log(P q_n q_m) = -P log P + 2 P H(q)
            s += -p_l * math.log(p_l) + 2.0 * p_l * _neg_xlogx(q)
        if base is not None:
            s /= math.log(base)
        return s

    def mutual_info(self, base: float | None = None) -> float:
        marg = _neg_xlogx(self.source.probabilities())
        mi = 2.0 * marg - self.joint_entropy()
        mi = max(mi, 0.0)
        if base is not None:
            mi /= math.log(base)
        return mi


def _mode_set(source: SchmidtPairState, modes: Iterable[int], op: str) -> frozenset[int]:
    """modes as ints; BranchMixture checks that they lie in 1..num_modes."""
    source.require_weights(op)
    return frozenset(int(n) for n in modes)


def dephase_modes(
    s: SchmidtPairState, modes: Iterable[int], base: float | None = None
) -> tuple[BranchMixture, float]:
    """Let an environment record which of the given modes occurred.

    Coherences to and among the recorded branches die; the branches
    survive as classical correlations. Marginals are unchanged, and the
    result's MI can only fall (equality when modes is empty). Returns the
    decohered descriptor and its mutual information.
    """
    mix = BranchMixture(source=s, dephased=_mode_set(s, modes, "dephase"), localized=frozenset())
    return mix, mix.mutual_info(base=base)


def localize_modes(
    s: SchmidtPairState, modes: Iterable[int], base: float | None = None
) -> tuple[BranchMixture, float]:
    """Fully decorrelate the given modes into a two-sided product block.

    Strictly harsher than dephasing the same modes: even the classical
    branch correlations are destroyed, so the MI sits at or below the
    dephased value, reaching zero when every mode is localized.
    """
    mix = BranchMixture(source=s, dephased=frozenset(), localized=_mode_set(s, modes, "localize"))
    return mix, mix.mutual_info(base=base)


VALID_CHANNELS = ("dephase", "localize")


@dataclass(frozen=True)
class ScheduleStep:
    """Modes newly hit at this step and the channel that hits them."""

    modes: frozenset[int]
    channel: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", frozenset(map(int, self.modes)))
        if not self.modes:
            raise ValueError("a schedule step must hit at least one mode")
        if self.channel not in VALID_CHANNELS:
            raise ValueError(f"channel must be one of {VALID_CHANNELS}, got {self.channel!r}")


@dataclass(frozen=True)
class DecoherenceSchedule:
    """Ordered decoherence steps with pairwise-disjoint mode sets.

    Effects accumulate: after step k the state carries every mode hit so
    far, each under the channel of its own step.
    """

    steps: tuple[ScheduleStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        seen: set[int] = set()
        for step in self.steps:
            if seen & step.modes:
                raise ValueError(f"modes {sorted(seen & step.modes)} hit by more than one step")
            seen |= step.modes

    @classmethod
    def ir_first(cls, num_modes: int, num_steps: int, channel: str) -> "DecoherenceSchedule":
        """Contiguous chunks from the IR end (mode 1) upward, one per step.

        Chunk sizes differ by at most one; the earlier steps take the
        larger chunks when num_modes does not divide evenly.
        """
        if num_steps < 0:
            raise ValueError("num_steps must be >= 0")
        if num_steps == 0:
            return cls(steps=())
        if num_modes < num_steps:
            raise ValueError(f"cannot split {num_modes} modes into {num_steps} non-empty steps")
        chunks = np.array_split(np.arange(1, num_modes + 1), num_steps)
        return cls(steps=tuple(
            ScheduleStep(modes=frozenset(chunk.tolist()), channel=channel)
            for chunk in chunks
        ))

    @property
    def all_modes(self) -> frozenset[int]:
        out: set[int] = set()
        for step in self.steps:
            out |= step.modes
        return frozenset(out)


@dataclass(frozen=True)
class SweepPoint:
    """Sweep state after `step` schedule entries (step 0 is the baseline)."""

    step: int
    momentum_mi: float
    total_mi: float
    distance: float


def _step_indices(modes: frozenset[int], num_modes: int) -> np.ndarray:
    """Zero-based indices of a step's modes, each checked to lie in 1..num_modes."""
    try:
        idx = np.fromiter(modes, dtype=np.int64, count=len(modes))
        lo, hi = int(idx.min()), int(idx.max())
    except OverflowError:  # a mode beyond int64 is out of range anyway
        lo, hi = min(modes), max(modes)
    for n in (lo, hi):
        if n < 1 or n > num_modes:
            raise ValueError(f"schedule hits mode {n} outside 1..{num_modes}")
    return idx - 1


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

    O(modes + steps), one pass over the modes: no BranchMixture is built.
    Each step's block contributes its mass and -sum p log p to running
    totals, and the joint entropy follows in closed form (the identity of
    BranchMixture.joint_entropy). With R the retained mass, L the
    localized mass and H(x) = -x log x,

        S_joint = H(R) + sum_dephased H(p) - H(L) + 2 sum_localized H(p),

    and the momentum MI is I_0 - S_joint with I_0 = 2 H(p) the step-0 value,
    clamped to [0, I_0]: an entropy is nonnegative, so decoherence never
    raises MI, not even by round-off.
    """
    if spin_mi < 0.0:
        raise ValueError(f"spin_mi must be nonnegative, got {spin_mi}")
    s.require_weights("decoherence sweep")
    p = s.probabilities()
    untouched = np.ones(s.num_modes, dtype=bool)
    blocks = []
    for step in schedule.steps:
        idx = _step_indices(step.modes, s.num_modes)
        untouched[idx] = False
        block = p[idx]
        blocks.append((float(block.sum()), _neg_xlogx(block)))
    mom0 = mutual_information_schmidt(s)
    total0 = spin_mi + mom0
    if total0 <= 0.0:
        raise ValueError("initial total MI is zero; nothing to normalize distances against")
    points = [SweepPoint(step=0, momentum_mi=mom0, total_mi=total0,
                         distance=edge_weight(total0, total0, wf))]
    # Mass retained after each step: the never-hit modes plus every later
    # block, summed from the back so that a tiny remainder keeps its digits
    # (1 - hit mass would cancel them away).
    retained = [float(p[untouched].sum())]
    for mass, _ in reversed(blocks[1:]):
        retained.append(retained[-1] + mass)
    retained.reverse()
    loc_mass = h_dephased = h_localized = 0.0
    for k, (step, (mass, h), r) in enumerate(zip(schedule.steps, blocks, retained), start=1):
        if step.channel == "dephase":
            h_dephased += h
        else:
            loc_mass += mass
            h_localized += h
        s_joint = (_neg_xlogx(np.array([r])) + h_dephased
                   - _neg_xlogx(np.array([loc_mass])) + 2.0 * h_localized)
        mom = max(mom0 - max(s_joint, 0.0), 0.0)
        total = spin_mi + mom
        points.append(SweepPoint(step=k, momentum_mi=mom, total_mi=total,
                                 distance=edge_weight(total, total0, wf)))
    return points
