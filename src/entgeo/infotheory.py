"""Entropies, mutual information, and the correlation lower bound.

Everything is reported in nats by default; pass base=2 (or any base > 1)
to convert. Eigenvalues below the clamp threshold are treated as exact
zeros under the 0 log 0 = 0 convention, which keeps pure-state entropies
at zero instead of accumulating noise from the null space.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hilbert import (
    DensityMatrix,
    FactorSpace,
    PureState,
    SchmidtPairState,
    TensorProductStructure,
    _BLOCK_ELEMS,
    _blocks,
    _check_density_stack,
    _count,
    _herm_errors,
    _positions,
    _reduced_stack,
    _trace_out,
    partial_trace,
)

# Eigensolver spectrum entries below this are treated as exact zeros.
# Exact probabilities (Schmidt weights and their blocks) are never cut.
EIG_CLAMP = 1e-12

# Most negative eigenvalue / probability tolerated before declaring the
# input invalid rather than merely noisy.
NEG_TOL = 1e-10


def _base_factor(base: float | None) -> float:
    if base is None:
        return 1.0
    try:
        if 1.0 < base < math.inf:  # nan fails too
            return math.log(base)
    except TypeError:  # not a real number, such as "2" or 2j
        pass
    shown = base if isinstance(base, numbers.Real) else repr(base)
    raise ValueError(f"log base must be finite and > 1, got {shown}")


def _neg_xlogx(p: np.ndarray) -> float:
    """-sum p log p over the positive entries of p (0 log 0 = 0).

    The one entropy kernel. Exact probabilities go in as they are, so only
    exact zeros drop out. Eigensolver output goes through
    _spectrum_entropies, which cuts it at EIG_CLAMP and sums each row as
    this kernel would.
    """
    pos = p[p > 0.0]
    if pos.size == 0:
        return 0.0
    return float(-(pos * np.log(pos)).sum())


def entropy_from_spectrum(spectrum: Iterable[float], base: float | None = None) -> float:
    """Shannon entropy -sum p log p of a probability spectrum.

    Entries in [-1e-10, 1e-12] are clamped to zero; anything more negative
    raises. The spectrum must sum to 1 within 1e-8.
    """
    p = np.asarray(list(spectrum) if not isinstance(spectrum, np.ndarray) else spectrum,
                   dtype=float).reshape(-1)
    if p.size == 0:
        raise ValueError("empty spectrum")
    return _spectrum_entropies(p[None], base, "spectrum has {} entry")[0]


def von_neumann_entropy(rho: DensityMatrix, base: float | None = None) -> float:
    """Von Neumann entropy -tr(rho log rho) via the eigenvalue spectrum.

    A rho that reduced_density kept its pure state psi on (a matrix larger
    than one block) gets the entropy of that cut of psi from
    _pure_entropies, which takes it from the dropped side.
    """
    psi = rho._pure
    if psi is not None:
        kept = list(_positions(psi.labels, rho.labels).values())
        return _pure_entropies(psi.amplitudes[None], psi.tps, kept, base)[0]
    return _matrix_entropies(np.asarray(rho.matrix)[None], base)[0]


def _matrix_entropies(mats: np.ndarray, base: float | None = None) -> list[float]:
    """von_neumann_entropy of each matrix of a (k, d, d) stack, one eigensolve."""
    return _spectrum_entropies(np.linalg.eigvalsh(mats), base, "density matrix has {} eigenvalue")


def _spectrum_entropies(spectra: np.ndarray, base: float | None, bad: str) -> list[float]:
    """Entropy of each row of a (k, n) stack of spectra.

    A row's entropy is _neg_xlogx of its entries above EIG_CLAMP, clamped
    at 0. The kept entries of the whole stack are gathered once and their
    terms p log p taken in one pass. Rows are then summed group by group,
    grouped by how many entries they keep: the m terms of each row in a
    group form one row of a (rows, m) array, summed along axis 1, which is
    numpy's pairwise sum of that row alone. Padding rows to a common length
    and summing the stack would regroup that sum and move the last bits.
    A row that keeps nothing has entropy 0.
    """
    _check_spectra(spectra, bad)
    kept = spectra > EIG_CLAMP
    counts = np.count_nonzero(kept, axis=1)
    terms = spectra[kept]
    terms *= np.log(terms)
    starts = np.cumsum(counts) - counts
    ents = np.zeros(len(spectra))
    for m in set(counts.tolist()) - {0}:
        rows = np.flatnonzero(counts == m)
        ents[rows] = -terms[starts[rows, None] + np.arange(m)].sum(axis=1)
    return (np.where(ents < 0.0, 0.0, ents) / _base_factor(base)).tolist()


def _check_spectra(spectra: np.ndarray, bad: str) -> None:
    """Row checks on a (k, n) stack of spectra.

    An entry below -NEG_TOL raises with bad naming it "negative", a NaN entry
    with bad naming it "NaN"; a sum off 1 by more than 1e-8 raises too. Both
    are evaluated for the whole stack at once, then read row by row: the
    first failing row raises, the entry check before the sum.
    """
    lows = np.minimum.reduce(spectra, axis=1)
    totals = np.add.reduce(spectra, axis=1)
    for low, total in zip(lows.tolist(), totals.tolist()):
        if not low >= -NEG_TOL:  # NaN fails too: the minimum of a NaN row is NaN
            raise ValueError(f"{bad.format('negative' if low < 0.0 else 'NaN')} {low}")
        if not abs(total - 1.0) <= 1e-8:
            raise ValueError(f"spectrum must sum to 1, got {total}")


def _split_pair(
    labels: Sequence[str], split: tuple[Sequence[str], Sequence[str]]
) -> tuple[list[int], list[int]]:
    """The ascending positions in labels of the two sides of split (each
    read by _positions), which must partition them."""
    try:
        side_a, side_b = split
    except (TypeError, ValueError):  # not iterable, or not two sides
        raise ValueError("split must have exactly two sides (A, B)") from None
    pos_a, pos_b = _positions(labels, side_a), _positions(labels, side_b)
    if sorted([*pos_a.values(), *pos_b.values()]) != list(range(len(labels))):
        raise ValueError(
            f"split {tuple(pos_a)} | {tuple(pos_b)} does not partition factors {tuple(labels)}"
        )
    return sorted(pos_a.values()), sorted(pos_b.values())


def mutual_information(
    rho: DensityMatrix,
    split: tuple[Sequence[str], Sequence[str]],
    base: float | None = None,
) -> float:
    """Mutual information I(A:B) = S(A) + S(B) - S(AB) across a bipartition.

    The split must partition the factors of rho exactly. The value is
    nonnegative up to eigensolver noise and bounded by
    log(dim A) + log(dim B). It has the bits of von_neumann_entropy on
    partial_trace(rho, A), on partial_trace(rho, B) and on rho. For a rho
    that reduced_density kept its pure state psi on, each of the three is
    a cut of psi taken by _pure_entropies; otherwise the value is the
    one-matrix case of _density_mis.
    """
    pos_a, pos_b = _split_pair(rho.labels, split)
    psi = rho._pure
    if psi is not None:
        where = list(_positions(psi.labels, rho.labels).values())
        s_a_plus_b = _pure_mis(psi.amplitudes[None], psi.tps, [where[i] for i in pos_a],
                               [where[i] for i in pos_b], base)[0]
        return _nonnegative_mi(s_a_plus_b - von_neumann_entropy(rho, base), base)
    return _nonnegative_mi(_density_mis(rho.matrix[None], rho.dims, pos_b, pos_a, base)[0], base)


def _nonnegative_mi(mi: float, base: float | None = None) -> float:
    """mi in units of base itself, checked in nats not to be below eigensolver noise."""
    if mi * _base_factor(base) < -1e-9:
        raise ArithmeticError(f"mutual information came out negative: {mi}")
    return mi


def mutual_information_schmidt(s: SchmidtPairState, base: float | None = None) -> float:
    """Mutual information of a Schmidt-pair state in closed form.

    Both marginals are diagonal with entries |w_n|^2 and the joint state is
    pure, so I = 2 H(|w|^2). A symbolic flat state gives 2 log(num_modes)
    without allocating anything; math.log takes the integer directly, so
    mode counts far beyond float range are fine. The probabilities are
    exact, so no eigenvalue clamp applies: a mode with p = 1e-13 counts.
    """
    if s.is_symbolic:
        return 2.0 * math.log(s.num_modes) / _base_factor(base)
    return _schmidt_mi(s.probabilities(), base)


def _schmidt_mi(p: np.ndarray, base: float | None = None) -> float:
    """mutual_information_schmidt of an explicit state from its probabilities p."""
    factor = _base_factor(base)
    if p.size == 1:
        return 0.0
    return 2.0 * (max(_neg_xlogx(p), 0.0) / factor)


def pure_state_mutual_information(
    psi: PureState,
    split: tuple[Sequence[str], Sequence[str]],
    base: float | None = None,
) -> float:
    """I(A:B) for a pure joint state: S(A) + S(B), with S(AB) = 0 exactly.

    Avoids the full-dimension eigendecomposition that the generic density
    path would spend on a state known to be pure.
    """
    pos_a, pos_b = _split_pair(psi.labels, split)
    return _pure_mis(psi.amplitudes[None], psi.tps, pos_a, pos_b, base)[0]


def _pure_mis(amps: np.ndarray, tps: TensorProductStructure, pos_a: Sequence[int],
              pos_b: Sequence[int], base: float | None = None) -> list[float]:
    """pure_state_mutual_information of each state vector in the (k, D) stack
    amps on tps, across a checked split given by the ascending positions of
    its sides; both sides share one work buffer."""
    work = np.empty(2 * amps.size, dtype=complex)
    s_a = _pure_entropies(amps, tps, pos_a, base, work)
    s_b = _pure_entropies(amps, tps, pos_b, base, work)
    return [a + b for a, b in zip(s_a, s_b)]


def _pure_entropies(amps: np.ndarray, tps: TensorProductStructure, kept: Sequence[int],
                    base: float | None = None, work: np.ndarray | None = None) -> list[float]:
    """von_neumann_entropy(reduced_density(psi, keep)) of each state vector psi
    in the (k, D) stack amps on tps, where kept are the ascending positions
    of keep: one contraction, check and eigensolve.

    The one pure-cut kernel. A kept side whose matrix is larger than one
    block (d^2 > _BLOCK_ELEMS, the threshold at which reduced_density keeps
    psi) is swapped for its complement, which shares its nonzero spectrum
    (Schmidt decomposition). Under DENSE_CAP that complement has dimension
    below 32, so it is always the smaller side. A side of at most one block
    is kept as named, so its bits are those of its own matrix.
    """
    dropped = [i for i in range(len(tps.dims)) if i not in kept]
    if dropped and math.prod(tps.dims[i] for i in kept) ** 2 > _BLOCK_ELEMS:
        kept = dropped
    return _matrix_entropies(_reduced_stack(amps, tps, kept, work)[0], base)


def _density_mis(mats: np.ndarray, dims: Sequence[int], dropped_a: Sequence[int],
                 dropped_b: Sequence[int], base: float | None = None,
                 sides: Sequence[np.ndarray] | None = None) -> list[float]:
    """S_A + S_B - S_AB of each matrix of a checked (k, d, d) stack over
    factors of dims, unchecked: callers apply _nonnegative_mi.

    The one bipartite-MI kernel, behind mutual_information, the graph build,
    apply_nonlocal and the correlation bound. rho_A is left by tracing the
    positions dropped_a out with _trace_out, rho_B by tracing dropped_b. A
    caller that has already traced and checked both side stacks this way
    passes them as sides. Each side is traced once, checked and eigensolved,
    A then B, then the joint: one eigensolve per stack.
    """
    entropies = []
    for k, dropped in enumerate((dropped_a, dropped_b)):
        if sides is None:
            side = _trace_out(mats, dims, dropped)
            _check_density_stack(side)
        else:
            side = sides[k]
        entropies.append(_matrix_entropies(side, base))
        del side  # freed before the next trace and the joint's eigensolve
    s_ab = _matrix_entropies(mats, base)
    return [a + b - ab for a, b, ab in zip(*entropies, s_ab)]


@dataclass(frozen=True)
class MiPropertyChecks:
    """Worst observed violation per property (negative slack means a hit)."""

    positivity: float
    boundedness: float
    symmetry: float
    monotonicity: float | None


@dataclass(frozen=True)
class MiPropertyReport:
    trials: int
    seed: int
    checks: MiPropertyChecks
    atol: float

    @property
    def ok(self) -> bool:
        worst = [self.checks.positivity, self.checks.boundedness, self.checks.symmetry]
        if self.checks.monotonicity is not None:
            worst.append(self.checks.monotonicity)
        return max(worst) <= self.atol


def check_mi_properties(
    rho: DensityMatrix,
    trials: int = 20,
    seed: int = 0,
) -> MiPropertyReport:
    """Stress the defining mutual-information properties on random bipartitions.

    positivity:    I(A:B) >= 0
    boundedness:   I(A:B) <= log dim(A) + log dim(B)
    symmetry:      I(A:B) == I(B:A) (computed from the swapped split)
    monotonicity:  I(A:BC) >= I(A:B) for disjoint A, B, C, checked when rho
                   has at least 3 factors and reported as None otherwise

    Reports the worst violation per property; ok means all stayed within
    the report's atol, 1e-9.

    Trials run in blocks: a block's splits are drawn first, in the order a
    trial-by-trial loop would draw them, then every entropy they need that
    no earlier trial needed is computed (see _chain_entropies), then the
    trials are scored in order. Each value is the one mutual_information
    gives for that split: an entropy is shared only between matrices built
    by the same partial_trace calls.
    """
    labels = list(rho.labels)
    if len(labels) < 2:
        raise ValueError("need at least 2 factors to form a bipartition")
    three_way = len(labels) >= 3
    trials = _count(trials, 1, "trials")
    dim_of = {f.label: f.dim for f in rho.factors}
    rng = np.random.default_rng(seed)
    entropy: dict[tuple[frozenset[str], ...], float] = {}
    positivity = boundedness = symmetry = monotonicity = 0.0
    for block in _blocks(trials, rho.dim**2):
        draws = []
        for _ in block:
            perm = list(rng.permutation(labels))
            cut = int(rng.integers(1, len(labels)))
            three = _random_three_way(rng, labels) if three_way else ()
            draws.append((frozenset(perm[:cut]), frozenset(perm[cut:]), *map(frozenset, three)))
        splits = [_split_chains(*draw) for draw in draws]
        needed = dict.fromkeys(c for split in splits for mi in split for c in mi if c not in entropy)
        entropy.update(_chain_entropies(rho, list(needed)))
        for (a, b, *_), split in zip(draws, splits):
            mis = [_nonnegative_mi(entropy[s_a] + entropy[s_b] - entropy[s_ab])
                   for s_a, s_b, s_ab in split]
            positivity = max(positivity, -mis[0])
            bound = (math.log(math.prod(dim_of[lb] for lb in a))
                     + math.log(math.prod(dim_of[lb] for lb in b)))
            boundedness = max(boundedness, mis[0] - bound)
            symmetry = max(symmetry, abs(mis[0] - mis[1]))
            if three_way:
                # discarding C can only lose correlations: I(A:B) <= I(A:BC)
                monotonicity = max(monotonicity, mis[2] - mis[3])
    checks = MiPropertyChecks(
        positivity=positivity,
        boundedness=boundedness,
        symmetry=symmetry,
        monotonicity=monotonicity if three_way else None,
    )
    return MiPropertyReport(trials=trials, seed=seed, checks=checks, atol=1e-9)


def _split_chains(a: frozenset[str], b: frozenset[str], *three: frozenset[str]) -> list:
    """The (S_A, S_B, S_AB) reduction chains (see _chain_entropies) of each
    mutual_information one trial takes: I(A:B) and I(B:A) of rho, then for
    a three-way split (A, B, C) I(A:B) of partial_trace(rho, A + B) and
    I(A:BC) of rho."""
    chains = [((a,), (b,), ()), ((b,), (a,), ())]
    if three:
        a3, b3, c3 = three
        chains += [((a3 | b3, a3), (a3 | b3, b3), (a3 | b3,)), ((a3,), (b3 | c3,), ())]
    return chains


def _chain_entropies(rho: DensityMatrix,
                     chains: Sequence[tuple[frozenset[str], ...]]) -> dict:
    """Von Neumann entropy of each reduction chain of rho.

    The chain () names rho, (K,) partial_trace(rho, K) and (K, J)
    partial_trace(partial_trace(rho, K), J). Matrices of one size are
    eigensolved as stacks of up to one block of _BLOCK_ELEMS entries, so
    each entropy is von_neumann_entropy's bits for its matrix. A matrix
    larger than one block is a run of its own and goes through
    von_neumann_entropy, which takes a purified one from its pure state.
    """
    dim_of = {f.label: f.dim for f in rho.factors}
    by_dim: dict[int, list] = {}
    for chain in chains:
        d = math.prod(dim_of[lb] for lb in chain[-1]) if chain else rho.dim
        by_dim.setdefault(d, []).append(chain)
    out = {}
    for d, group in by_dim.items():
        for run in _blocks(len(group), d * d):
            part = [group[i] for i in run]
            rhos = [_chain_rho(rho, c) for c in part]
            if len(rhos) == 1:
                out[part[0]] = von_neumann_entropy(rhos[0])
            else:
                out.update(zip(part, _matrix_entropies(np.array([r.matrix for r in rhos]))))
    return out


def _chain_rho(rho: DensityMatrix, chain: tuple[frozenset[str], ...]) -> DensityMatrix:
    for keep in chain:
        rho = partial_trace(rho, keep)
    return rho


def _random_three_way(rng: np.random.Generator, labels: list[str]):
    perm = list(rng.permutation(labels))
    n = len(perm)
    # two cuts with all three parts non-empty
    i = int(rng.integers(1, n - 1))
    j = int(rng.integers(i + 1, n))
    return tuple(perm[:i]), tuple(perm[i:j]), tuple(perm[j:])


@dataclass(frozen=True)
class CorrelationBound:
    """Connected-correlator lower bound on mutual information."""

    covariance: float
    bound: float
    mutual_info: float

    @property
    def holds(self) -> bool:
        return self.mutual_info >= self.bound - 1e-9


def correlation_lower_bound(
    rho: DensityMatrix,
    obs_c: np.ndarray,
    obs_d: np.ndarray,
    base: float | None = None,
) -> CorrelationBound:
    """Bound I(C:D) >= <O_C O_D>_c^2 / (2 |O_C|^2 |O_D|^2) from a correlator.

    rho must live on exactly two factors (C first, D second); the
    observables are hermitian and measured with the operator norm, the
    convention under which the normalization above is stated. A zero
    observable has no correlator to speak of and raises.
    """
    if len(rho.factors) != 2:
        raise ValueError("correlation bound is defined for a two-factor state")
    dc, dd = rho.dims
    oc = np.asarray(obs_c, dtype=complex)
    od = np.asarray(obs_d, dtype=complex)
    if oc.shape != (dc, dc) or od.shape != (dd, dd):
        raise ValueError(
            f"observables must match factor dimensions {(dc, dd)}, "
            f"got {oc.shape} and {od.shape}"
        )
    return _correlation_bounds(rho.matrix[None], rho.factors, oc[None], od[None], base)[0]


def _correlation_bounds(mats: np.ndarray, factors: Sequence[FactorSpace], obs_c: np.ndarray,
                        obs_d: np.ndarray, base: float | None = None) -> list[CorrelationBound]:
    """correlation_lower_bound of each (rho, O_C, O_D) in a checked (k, d, d)
    stack over two factors and (k, d_C, d_C), (k, d_D, d_D) observable stacks.

    Each condition is checked for the whole stack, then raised for the
    first failing trial, in correlation_lower_bound's order. rho_C and rho_D
    are traced once, for the means and, through _density_mis, for the MI.
    """
    for name, obs in (("obs_c", obs_c), ("obs_d", obs_d)):
        if not all(err <= 1e-10 for err in _herm_errors(obs).tolist()):  # NaN fails too
            raise ValueError(f"{name} must be hermitian")
    norms_c, norms_d = (np.abs(np.linalg.eigvalsh(obs)).max(axis=1).tolist()
                        for obs in (obs_c, obs_d))
    if not all(nc > 0.0 and nd > 0.0 for nc, nd in zip(norms_c, norms_d)):
        raise ValueError("observables must be nonzero")
    count = len(mats)
    dc, dd = dims = [f.dim for f in factors]
    rho_c, rho_d = (_trace_out(mats, dims, [pos]) for pos in (1, 0))
    _check_density_stack(rho_c)
    _check_density_stack(rho_d)
    # np.kron's broadcast product, one leading stack axis further in
    kron = (obs_c[:, :, None, :, None] * obs_d[:, None, :, None, :]).reshape(count, dc * dd, -1)
    joint, mean_c, mean_d = (np.real(np.trace(a @ b, axis1=1, axis2=2)).tolist()
                             for a, b in ((mats, kron), (rho_c, obs_c), (rho_d, obs_d)))
    factor = 1.0 / _base_factor(base)
    covs, bounds = [], []
    for nc, nd, j, mc, md in zip(norms_c, norms_d, joint, mean_c, mean_d):
        cov = j - mc * md
        try:
            bound = cov**2 / (2.0 * nc**2 * nd**2) * factor
        except OverflowError:  # a huge norm or covariance squared
            raise ValueError(f"observable norms {nc!r}, {nd!r} overflow the bound") from None
        covs.append(cov)
        bounds.append(bound)
    mis = [_nonnegative_mi(mi, base)
           for mi in _density_mis(mats, dims, [1], [0], base, sides=(rho_c, rho_d))]
    return [CorrelationBound(covariance=cov, bound=bound, mutual_info=mi)
            for cov, bound, mi in zip(covs, bounds, mis)]
