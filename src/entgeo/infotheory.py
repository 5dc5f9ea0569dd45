"""Entropies, mutual information, and the correlation lower bound.

Everything is reported in nats by default; pass base=2 (or any base > 1)
to convert. Eigenvalues below the clamp threshold are treated as exact
zeros under the 0 log 0 = 0 convention, which keeps pure-state entropies
at zero instead of accumulating noise from the null space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hilbert import DensityMatrix, PureState, SchmidtPairState, partial_trace, reduced_density

# Eigensolver spectrum entries below this are treated as exact zeros.
# Exact probabilities (Schmidt weights and their blocks) are never cut.
EIG_CLAMP = 1e-12

# Most negative eigenvalue / probability tolerated before declaring the
# input invalid rather than merely noisy.
NEG_TOL = 1e-10


def _base_factor(base: float | None) -> float:
    if base is None:
        return 1.0
    if base <= 1.0:
        raise ValueError(f"log base must be > 1, got {base}")
    return math.log(base)


def _neg_xlogx(p: np.ndarray) -> float:
    """-sum p log p over the positive entries of p (0 log 0 = 0).

    The one entropy kernel. Exact probabilities go in as they are, so only
    exact zeros drop out; eigensolver output is cut at EIG_CLAMP by the
    caller first.
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
    """Von Neumann entropy -tr(rho log rho) via the eigenvalue spectrum."""
    return _matrix_entropies(np.asarray(rho.matrix)[None], base)[0]


def _matrix_entropies(mats: np.ndarray, base: float | None = None) -> list[float]:
    """von_neumann_entropy of each matrix of a (k, d, d) stack, one eigensolve."""
    return _spectrum_entropies(np.linalg.eigvalsh(mats), base, "density matrix has {} eigenvalue")


def _spectrum_entropies(spectra: np.ndarray, base: float | None, bad: str) -> list[float]:
    """Entropy of each row of a (k, n) stack of spectra.

    Each entropy is summed on its own row by _neg_xlogx over the entries
    above EIG_CLAMP; padding rows to a common length and summing the
    stack would regroup numpy's pairwise sum and move the last bits.
    """
    _check_spectra(spectra, bad)
    factor = _base_factor(base)
    return [max(_neg_xlogx(p[p > EIG_CLAMP]), 0.0) / factor for p in spectra]


def _check_spectra(spectra: np.ndarray, bad: str) -> None:
    """Row checks on a (k, n) stack of spectra.

    An entry below -NEG_TOL raises with bad naming it "negative", a NaN entry
    with bad naming it "NaN"; a sum off 1 by more than 1e-8 raises too. Both
    are evaluated for the whole stack at once, then read row by row: the
    first failing row raises, the entry check before the sum.
    """
    lows = np.minimum.reduce(spectra, axis=1)
    totals = np.add.reduce(spectra, axis=1)
    for k, (low, total) in enumerate(zip(lows.tolist(), totals.tolist())):
        if not low >= -NEG_TOL:  # NaN fails too: the minimum of a NaN row is NaN
            raise ValueError(f"{bad.format('negative' if low < 0.0 else 'NaN')} {lows[k]}")
        if not abs(total - 1.0) <= 1e-8:
            raise ValueError(f"spectrum must sum to 1, got {totals[k]!r}")


def _split_pair(
    labels: Sequence[str], split: tuple[Sequence[str], Sequence[str]]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    part_a = tuple(split[0]) if not isinstance(split[0], str) else (split[0],)
    part_b = tuple(split[1]) if not isinstance(split[1], str) else (split[1],)
    sa, sb = set(part_a), set(part_b)
    if not part_a or not part_b:
        raise ValueError("both sides of the split must be non-empty")
    if len(sa) != len(part_a) or len(sb) != len(part_b):
        raise ValueError("split sides must not repeat labels")
    if sa & sb:
        raise ValueError(f"split sides overlap on {sorted(sa & sb)}")
    if sa | sb != set(labels) or len(sa) + len(sb) != len(labels):
        raise ValueError(
            f"split {part_a} | {part_b} does not partition factors {tuple(labels)}"
        )
    return part_a, part_b


def mutual_information(
    rho: DensityMatrix,
    split: tuple[Sequence[str], Sequence[str]],
    base: float | None = None,
) -> float:
    """Mutual information I(A:B) = S(A) + S(B) - S(AB) across a bipartition.

    The split must partition the factors of rho exactly. The value is
    nonnegative up to eigensolver noise and bounded by
    log(dim A) + log(dim B).
    """
    part_a, part_b = _split_pair(rho.labels, split)
    s_a = von_neumann_entropy(partial_trace(rho, part_a), base=base)
    s_b = von_neumann_entropy(partial_trace(rho, part_b), base=base)
    s_ab = von_neumann_entropy(rho, base=base)
    return _nonnegative_mi(s_a + s_b - s_ab)


def _nonnegative_mi(mi: float) -> float:
    """mi itself, checked not to be negative beyond eigensolver noise."""
    if mi < -1e-9:
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
    if s.num_modes == 1:
        return 0.0
    return 2.0 * (max(_neg_xlogx(s.probabilities()), 0.0) / _base_factor(base))


def pure_state_mutual_information(
    psi: PureState,
    split: tuple[Sequence[str], Sequence[str]],
    base: float | None = None,
) -> float:
    """I(A:B) for a pure joint state: S(A) + S(B), with S(AB) = 0 exactly.

    Avoids the full-dimension eigendecomposition that the generic density
    path would spend on a state known to be pure.
    """
    part_a, part_b = _split_pair(psi.labels, split)
    s_a = von_neumann_entropy(reduced_density(psi, part_a), base=base)
    s_b = von_neumann_entropy(reduced_density(psi, part_b), base=base)
    return s_a + s_b


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


ALL_MI_PROPERTIES = ("positivity", "boundedness", "symmetry", "monotonicity")


def check_mi_properties(
    rho: DensityMatrix,
    trials: int = 20,
    seed: int = 0,
    properties: Sequence[str] = ALL_MI_PROPERTIES,
    atol: float = 1e-9,
) -> MiPropertyReport:
    """Stress the defining mutual-information properties on random bipartitions.

    positivity:    I(A:B) >= 0
    boundedness:   I(A:B) <= log dim(A) + log dim(B)
    symmetry:      I(A:B) == I(B:A) (computed from the swapped split)
    monotonicity:  I(A:BC) >= I(A:B) for disjoint A, B, C (needs >= 3 factors)

    Reports the worst violation per property; ok means all stayed within atol.
    """
    unknown = set(properties) - set(ALL_MI_PROPERTIES)
    if unknown:
        raise ValueError(f"unknown properties {sorted(unknown)}")
    labels = list(rho.labels)
    if "monotonicity" in properties and len(labels) < 3:
        raise ValueError("monotonicity check needs at least 3 factors")
    if len(labels) < 2:
        raise ValueError("need at least 2 factors to form a bipartition")
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in properties}
    for _ in range(trials):
        perm = list(rng.permutation(labels))
        cut = int(rng.integers(1, len(labels)))
        part_a, part_b = tuple(perm[:cut]), tuple(perm[cut:])
        mi = mutual_information(rho, (part_a, part_b))
        if "positivity" in worst:
            worst["positivity"] = max(worst["positivity"], -mi)
        if "boundedness" in worst:
            bound = math.log(_dim_product(rho, part_a)) + math.log(_dim_product(rho, part_b))
            worst["boundedness"] = max(worst["boundedness"], mi - bound)
        if "symmetry" in worst:
            mi_swapped = mutual_information(rho, (part_b, part_a))
            worst["symmetry"] = max(worst["symmetry"], abs(mi - mi_swapped))
        if "monotonicity" in worst and len(labels) >= 3:
            # discarding C can only lose correlations: I(A:B) <= I(A:BC)
            a3, b3, c3 = _random_three_way(rng, labels)
            mi_small = mutual_information(partial_trace(rho, a3 + b3), (a3, b3))
            mi_big = mutual_information(rho, (a3, b3 + c3))
            worst["monotonicity"] = max(worst["monotonicity"], mi_small - mi_big)
    checks = MiPropertyChecks(
        positivity=worst.get("positivity", 0.0),
        boundedness=worst.get("boundedness", 0.0),
        symmetry=worst.get("symmetry", 0.0),
        monotonicity=worst.get("monotonicity") if "monotonicity" in worst else None,
    )
    return MiPropertyReport(trials=trials, seed=seed, checks=checks, atol=atol)


def _dim_product(rho: DensityMatrix, labels: Sequence[str]) -> int:
    by_label = {f.label: f.dim for f in rho.factors}
    return math.prod(by_label[lb] for lb in labels)


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


def operator_norm(obs: np.ndarray) -> float:
    """Largest singular value; for hermitian input, the largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(obs)).max())


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
    for name, o in (("obs_c", oc), ("obs_d", od)):
        if not np.abs(o - o.conj().T).max() <= 1e-10:  # NaN fails too
            raise ValueError(f"{name} must be hermitian")
    nc, nd = operator_norm(oc), operator_norm(od)
    if nc <= 0.0 or nd <= 0.0:
        raise ValueError("observables must be nonzero")
    lc, ld = rho.labels
    rho_c = partial_trace(rho, (lc,)).matrix
    rho_d = partial_trace(rho, (ld,)).matrix
    joint = float(np.real(np.trace(rho.matrix @ np.kron(oc, od))))
    mean_c = float(np.real(np.trace(rho_c @ oc)))
    mean_d = float(np.real(np.trace(rho_d @ od)))
    cov = joint - mean_c * mean_d
    factor = 1.0 / _base_factor(base)
    try:
        bound = cov**2 / (2.0 * nc**2 * nd**2) * factor
    except OverflowError:  # a huge norm or covariance squared
        raise ValueError(f"observable norms {nc!r}, {nd!r} overflow the bound") from None
    mi = mutual_information(rho, ((lc,), (ld,)), base=base)
    return CorrelationBound(covariance=cov, bound=bound, mutual_info=mi)
