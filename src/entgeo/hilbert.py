"""Finite-dimensional Hilbert spaces with an explicit tensor product structure.

States here always know which labeled factors they live on and in what
order; that order fixes the row-major flattening used by every dense
operation, so amplitude layouts are reproducible across the package.
Bipartite states with one Schmidt term per mode get a dedicated sparse
representation (SchmidtPairState) whose reduced quantities come out in
closed form, including a symbolic variant for mode counts far beyond
anything materializable.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Bound on the joint dimension of any dense representation, that is on
# the length of a state vector; TensorProductStructure reads it on every
# construction. It does not bound d x d matrices: at the cap one
# complex density matrix is 4 GiB, and density_of, mutual_information and
# apply_nonlocal build such matrices. Building one through reduced_density,
# partial_trace or density_of holds that matrix plus at most two blocks of
# _BLOCK_ELEMS temporaries; each eigvalsh on it takes one more d x d copy.
DENSE_CAP = 2**14

# Elements in one block of temporaries (4 MiB of complex). Work on a d x d
# matrix (symmetrization, the hermiticity check) runs in row blocks of at
# most this many elements, and geometry takes its V x V x V intermediates in
# blocks of it; work that fits in one block runs as one expression. Stacks
# of many small matrices (the property battery) take their items in runs
# of at most one block (see _blocks).
_BLOCK_ELEMS = 1 << 18


def _blocks(count: int, elems: int) -> Iterator[range]:
    """range(count) in runs of as many items of elems entries each as fit in
    one block of _BLOCK_ELEMS, at least one item per run."""
    step = max(1, _BLOCK_ELEMS // max(1, elems))
    return (range(lo, min(lo + step, count)) for lo in range(0, count, step))


# Most Schmidt weights ever materialized (16 MiB of complex weights):
# flat(n, symbolic=False) and materialize() refuse more before allocating,
# and scenarios.momentum_sector_state keeps a flat sector symbolic above it.
MAX_EXPLICIT_MODES = 2**20

# Tolerance for structural invariants (normalization, hermiticity, trace).
ATOL_STRUCT = 1e-10


def _count(value, low: int, what: str) -> int:
    """value as a Python int, or ValueError unless it is an integer >= low.

    The range test comes first, so nan and inf get this message too; the
    message prints numpy scalars as plain numbers.
    """
    try:
        if low <= value < math.inf and int(value) == value:
            return int(value)
    except TypeError:  # not a number, such as "2"
        pass
    shown = value if isinstance(value, numbers.Real) else repr(value)
    if isinstance(value, int) and abs(value) >= 10**4000:  # str() refuses 4300 digits
        shown = f"about {'-' if value < 0 else ''}1e{int(math.log10(abs(value)))}"
    raise ValueError(f"{what} must be an integer >= {low}, got {shown}")


class ExplicitWeightsRequired(Exception):
    """Raised when an operation needs materialized Schmidt weights but the
    state only carries a symbolic flat distribution."""


@dataclass(frozen=True)
class FactorSpace:
    """A labeled finite-dimensional tensor factor."""

    label: str
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("factor label must be a non-empty string")
        object.__setattr__(self, "dim", _count(self.dim, 2, "factor dimension"))


def _factor_tuple(factors: Iterable[FactorSpace]) -> tuple[FactorSpace, ...]:
    """factors as a tuple, checked to be non-empty with unique labels."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("need at least one factor")
    labels = [f.label for f in factors]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate factor labels in {labels}")
    return factors


def _count_text(dim_counts: Mapping[int, int]) -> str:
    """prod d**m over dim_counts in full, or as "about 1eK" past 4000 digits
    (str() refuses 4300)."""
    counts = dim_counts.items()
    log10 = sum(m * math.log10(d) for d, m in counts)
    return str(math.prod(d**m for d, m in counts)) if log10 < 4000 else f"about 1e{int(log10)}"


def _cap_error(dim_counts: Mapping[int, int]) -> ValueError:
    """The dense-cap error for the joint dimension prod d**m over dim_counts."""
    return ValueError(f"joint dimension {_count_text(dim_counts)} exceeds dense cap {DENSE_CAP}")


@dataclass(frozen=True)
class TensorProductStructure:
    """Ordered factorization of a joint Hilbert space.

    The factor order is significant: amplitudes flatten row-major with the
    first factor as the slowest index. Labels must be unique so subsystems
    can be addressed by name.
    """

    factors: tuple[FactorSpace, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", _factor_tuple(self.factors))
        dim = 1
        for f in self.factors:
            dim *= f.dim
            if dim > DENSE_CAP:  # stop here: the full product may be huge
                raise _cap_error(Counter(self.dims))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(f.dim for f in self.factors)

    def index_of(self, label: str) -> int:
        for i, f in enumerate(self.factors):
            if f.label == label:
                return i
        raise KeyError(f"no factor labeled {label!r}")


def qubits(labels: Sequence[str]) -> TensorProductStructure:
    """Tensor product structure of dimension-2 factors, one per label."""
    return TensorProductStructure(tuple(FactorSpace(lb, 2) for lb in labels))


def _as_locked_complex(values, length: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex, copy=True).reshape(-1)
    if arr.shape != (length,):
        raise ValueError(f"{what} must have length {length}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over an explicit tensor product structure.

    Amplitudes are stored row-major in the factor order of `tps` and are
    locked read-only; every operation returns a fresh state.
    """

    tps: TensorProductStructure
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = _as_locked_complex(self.amplitudes, self.tps.total_dim, "amplitudes")
        nrm = np.linalg.norm(amp)
        if not abs(nrm - 1.0) <= ATOL_STRUCT:  # NaN fails too
            raise ValueError(f"state not normalized: |psi| = {float(nrm)}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.tps.labels


def _herm_errors(mats: np.ndarray) -> np.ndarray:
    """max |M - M^H| of each matrix M of a (k, d, d) stack, NaN for a matrix
    holding one.

    A stack larger than one block of _BLOCK_ELEMS is taken in row blocks
    joined by np.maximum, which keeps the exact maximum and any NaN, so at
    most two blocks of temporaries live.
    """
    count, d = mats.shape[:2]
    if mats.size <= _BLOCK_ELEMS:
        return np.maximum.reduce(np.abs(mats - mats.conj().swapaxes(1, 2)), axis=(1, 2))
    step = max(1, _BLOCK_ELEMS // (count * d))
    herm_err = np.zeros(count)
    for r0 in range(0, d, step):
        rows = slice(r0, r0 + step)
        # one expression, so no block outlives its iteration
        herm_err = np.maximum(herm_err, np.maximum.reduce(
            np.abs(mats[:, rows] - mats[:, :, rows].conj().swapaxes(1, 2)), axis=(1, 2)))
    return herm_err


def _check_density_stack(mats: np.ndarray) -> None:
    """Hermiticity and unit-trace checks on a (k, d, d) stack of matrices.

    The one structural check behind DensityMatrix. Both conditions are
    evaluated for the whole stack at once (see _herm_errors), then read
    matrix by matrix: the first failing matrix raises with the
    constructor's message, hermiticity before trace.
    """
    herm_err = _herm_errors(mats)
    traces = mats.trace(axis1=1, axis2=2)
    for k, (err, tr) in enumerate(zip(herm_err.tolist(), traces.tolist())):
        if not err <= ATOL_STRUCT:  # NaN fails too
            raise ValueError(f"matrix not hermitian: max |rho - rho^dag| = {herm_err[k]}")
        if not abs(tr - 1.0) <= ATOL_STRUCT:
            raise ValueError(f"matrix trace must be 1, got {traces[k]}")


class _Fresh:
    """An array just built by an internal producer for one result object.

    DensityMatrix(factors, _Fresh(mat)), SchmidtPairState(n, _Fresh(w)),
    InfoGraph(labels, _Fresh(mi)) and EmergentMetric(vertices, _Fresh(d)) keep
    the array itself, without the copy, shape and label-pair checks of their
    public constructors (labels come validated); DensityMatrix still checks
    hermiticity and trace, SchmidtPairState the norm.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator over an ordered tuple of labeled factors.

    Hermiticity and unit trace are checked on every construction (so any
    partial trace output is validated per call). Spectrum nonnegativity is
    asserted wherever eigenvalues are actually computed; validate() runs
    the full eigenvalue check on demand.

    The public constructor copies its input, so the caller's array stays
    its own: it holds the input, the copy and at most two blocks of check
    temporaries. This module's producers pass a _Fresh array instead, which
    is kept without a copy.
    """

    factors: tuple[FactorSpace, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if type(self.matrix) is _Fresh:
            mat = self.matrix.array
        else:
            object.__setattr__(self, "factors", _factor_tuple(self.factors))
            d = math.prod(self.dims)
            mat = np.array(self.matrix, dtype=complex, copy=True)
            if mat.shape != (d, d):
                raise ValueError(
                    f"matrix must be {d}x{d} for factors {list(self.labels)}, got {mat.shape}"
                )
        # live for fresh arrays too: a state normalized only to ATOL_STRUCT
        # can reduce to a trace further off 1
        _check_density_stack(mat[None])
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self, atol: float = ATOL_STRUCT) -> None:
        """Full invariant check including spectrum nonnegativity."""
        lam = np.linalg.eigvalsh(self.matrix)
        if lam.min() < -atol:
            raise ValueError(f"matrix has negative eigenvalue {lam.min()}")


def tensor(*states: PureState) -> PureState:
    """Kronecker product of pure states, factors concatenated in call order.

    Labels must stay globally unique, and the joint dimension must fit
    under DENSE_CAP.
    """
    if not states:
        raise ValueError("tensor() needs at least one state")
    if len(states) == 1:
        return states[0]
    factors: list[FactorSpace] = []
    for s in states:
        factors.extend(s.tps.factors)
    tps = TensorProductStructure(tuple(factors))
    amp = states[0].amplitudes
    for s in states[1:]:
        amp = np.kron(amp, s.amplitudes)
    return PureState(tps, amp)


def density_of(psi: PureState) -> DensityMatrix:
    """Rank-one density operator |psi><psi| over all factors of psi."""
    return DensityMatrix(psi.tps.factors,
                         _Fresh(np.outer(psi.amplitudes, psi.amplitudes.conj())))


def _kept_positions(labels: Sequence[str], keep: Iterable[str]) -> tuple[list[int], list[int]]:
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("must keep at least one factor")
    unknown = keep_set - set(labels)
    if unknown:
        raise KeyError(f"unknown factor labels {sorted(unknown)}")
    kept = [i for i, lb in enumerate(labels) if lb in keep_set]
    dropped = [i for i, lb in enumerate(labels) if lb not in keep_set]
    return kept, dropped


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not named in `keep`.

    The kept factors retain their original relative order. Output passes
    the hermiticity/trace checks of the DensityMatrix constructor.
    """
    kept, dropped = _kept_positions(rho.labels, keep)
    if not dropped:
        return rho
    kept_factors = tuple(rho.factors[i] for i in kept)
    return DensityMatrix(kept_factors, _Fresh(_trace_out(rho.matrix[None], rho.dims, dropped)[0]))


def _trace_out(mats: np.ndarray, dims: Sequence[int], dropped: Sequence[int]) -> np.ndarray:
    """The (k, d, d) stack left by tracing the dropped factors (positions in
    dims) out of a (k, D, D) stack of matrices over dims.

    The factors go one at a time, the last position first, each by one
    np.trace on the whole stack; the stack axis is outermost, so every
    matrix is summed as it would be on its own.
    """
    count = mats.shape[0]
    t = mats.reshape((count,) + tuple(dims) * 2)
    for pos in reversed(dropped):
        half = (t.ndim - 1) // 2
        t = np.trace(t, axis1=1 + pos, axis2=1 + pos + half)
    d = math.prod(dim for pos, dim in enumerate(dims) if pos not in dropped)
    return t.reshape(count, d, d)


def reduced_density(psi: PureState, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density operator of a pure state without forming |psi><psi|.

    Contracts the complement directly from the state vector, so the cost is
    set by the kept and dropped dimensions rather than the squared joint
    dimension. Agrees with partial_trace(density_of(psi), keep). For d
    kept dimensions the working set is the d x d result plus two blocks
    of _BLOCK_ELEMS and the (2, d, d_dropped) contraction buffer.
    """
    kept, dropped = _kept_positions(psi.tps.labels, keep)
    dims = psi.tps.dims
    if not dropped:
        return density_of(psi)
    mat = _contract_pure(psi.amplitudes.reshape((1,) + dims), kept, dropped)[0]
    kept_factors = tuple(psi.tps.factors[i] for i in kept)
    return DensityMatrix(kept_factors, _Fresh(mat))


def _reduced_stack(amps: np.ndarray, tps: TensorProductStructure, keep: Iterable[str],
                   work: np.ndarray | None = None) -> tuple[np.ndarray, tuple[FactorSpace, ...]]:
    """reduced_density(psi, keep) of each state vector psi in the (k, D) stack
    amps on tps, as a checked (k, d, d) stack and its factors.

    keep must leave a factor out. work is passed on to _contract_pure.
    """
    kept, dropped = _kept_positions(tps.labels, keep)
    mats = _contract_pure(amps.reshape((len(amps),) + tps.dims), kept, dropped, work)
    _check_density_stack(mats)
    return mats, tuple(tps.factors[i] for i in kept)


def _contract_pure(t: np.ndarray, kept: list[int], dropped: list[int],
                   work: np.ndarray | None = None) -> np.ndarray:
    """Reduced density matrices of a (k, *dims) stack t of amplitude tensors.

    kept and dropped are positions in dims. Copies the stack with the kept
    axes first into work[0], a (k, d_kept, d_dropped) complex stack, its
    conjugate into work[1], contracts the dropped axes in one stacked
    matrix product (one gemm per tensor, as for a lone tensor) and
    symmetrizes the result, so each matrix is exactly hermitian. work is a
    flat complex buffer of 2 t.size entries; a caller contracting many
    subsets passes one buffer for all of them, without it a fresh one is
    made.

    A stack of at most _BLOCK_ELEMS entries is symmetrized in one
    expression. A larger one is symmetrized in place, matrix by matrix and
    one row block r0:r1 at a time: the row strip S[r0:r1, r0:] and the
    column strip S[r1:, r0:r1] below it are both computed from entries not
    yet overwritten, each with the one-expression arithmetic, so every bit
    (signed zeros too) matches; mirroring conj(S[i, j]) into S[j, i] would
    flip the sign of zero parts. The working set is the result plus two
    blocks.
    """
    count, dims = t.shape[0], t.shape[1:]
    order = kept + dropped
    dk = math.prod(dims[i] for i in kept)
    if work is None:
        work = np.empty(2 * t.size, dtype=complex)
    work = work.reshape(2, count, dk, -1)
    m, m_conj = work[0], work[1]
    np.copyto(m.reshape([count] + [dims[i] for i in order]),
              np.transpose(t, [0] + [1 + i for i in order]))
    np.conjugate(m, out=m_conj)
    mats = m @ m_conj.swapaxes(1, 2)
    # enforce exact hermiticity against rounding in the contraction
    if mats.size <= _BLOCK_ELEMS:
        return 0.5 * (mats + mats.conj().swapaxes(1, 2))
    step = max(1, _BLOCK_ELEMS // dk)
    upper = np.empty(step * dk, dtype=complex)
    lower = np.empty(step * dk, dtype=complex)
    for mat in mats:
        for r0 in range(0, dk, step):
            r1 = min(r0 + step, dk)
            row = _half_sum(mat[r0:r1, r0:], mat[r0:, r0:r1], upper)
            col = _half_sum(mat[r1:, r0:r1], mat[r0:r1, r1:], lower)
            mat[r0:r1, r0:] = row
            mat[r1:, r0:r1] = col
    return mats


def _half_sum(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """0.5 * (a + b^H) computed in the front of the flat buffer buf."""
    out = buf[:a.size].reshape(a.shape)
    np.conjugate(b.T, out=out)
    np.add(a, out, out=out)
    return np.multiply(0.5, out, out=out)


@dataclass(frozen=True)
class SchmidtPairState:
    """Bipartite pure state with one Schmidt term per mode index.

    Represents sum_n w_n |n>_A |f(n)>_B for n = 1..num_modes, where
    f(n) = num_modes + 1 - n pairs each mode with its back-to-back
    partner, as momentum conservation fixes it. Any other injective
    pairing would only relabel B's basis. Reduced density operators are
    diagonal with entries |w_n|^2, so entropies and mutual information
    come out in closed form without any dense construction.

    A flat distribution may be carried symbolically (weights is None):
    num_modes is then the only stored datum and may be astronomically
    large. Only closed-form operations work on symbolic states; anything
    needing the actual weights raises ExplicitWeightsRequired.
    """

    num_modes: int
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_modes", _count(self.num_modes, 1, "num_modes"))
        if self.weights is None:
            return
        if type(self.weights) is _Fresh:
            w = self.weights.array
            w.setflags(write=False)
        else:
            w = _as_locked_complex(self.weights, self.num_modes, "weights")
        nrm = np.linalg.norm(w)
        if not abs(nrm - 1.0) <= ATOL_STRUCT:  # NaN fails too
            raise ValueError(f"weights not normalized: |w| = {float(nrm)}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_weights(cls, weights) -> "SchmidtPairState":
        """Explicit-weight state over len(weights) modes; no mode limit applies."""
        w = np.asarray(weights, dtype=complex).reshape(-1)
        return cls(num_modes=w.shape[0], weights=w)

    @classmethod
    def flat(cls, num_modes: int, symbolic: bool = True) -> "SchmidtPairState":
        """Uniform-weight state over num_modes modes.

        Symbolic by default (no allocation, any size); pass symbolic=False
        to materialize the weight vector, which refuses more than
        MAX_EXPLICIT_MODES modes with ExplicitWeightsRequired.
        """
        state = cls(num_modes=num_modes)  # checks num_modes before any allocation
        return state if symbolic else state.materialize()

    @property
    def is_symbolic(self) -> bool:
        return self.weights is None

    def require_weights(self, op: str) -> np.ndarray:
        if self.weights is None:
            raise ExplicitWeightsRequired(
                f"{op} needs explicit Schmidt weights; this state is symbolic "
                f"flat over {_count_text({self.num_modes: 1})} modes"
            )
        return self.weights

    def probabilities(self) -> np.ndarray:
        """Mode probabilities |w_n|^2 (read-only)."""
        w = self.require_weights("probabilities")
        p = np.abs(w) ** 2
        p.setflags(write=False)
        return p

    def materialize(self) -> "SchmidtPairState":
        """Explicit-weight copy of a symbolic flat state (identity otherwise)."""
        if self.weights is not None:
            return self
        n = self.num_modes
        if n > MAX_EXPLICIT_MODES:
            raise ExplicitWeightsRequired(
                f"refusing to materialize {_count_text({n: 1})} flat weights")
        return SchmidtPairState(n, _Fresh(np.full(n, 1.0 / math.sqrt(n), dtype=complex)))


def schmidt_to_dense(s: SchmidtPairState, labels: tuple[str, str] = ("A", "B")) -> PureState:
    """Dense two-factor state vector realizing a Schmidt-pair state.

    Both factors get dimension num_modes, so num_modes >= 2 is required
    (a lone mode has no dimension-2 factor to live on) and num_modes^2
    must fit under DENSE_CAP. Zero-based, w_n sits at row n and column
    num_modes - 1 - n.
    """
    w = s.require_weights("schmidt_to_dense")
    m = s.num_modes
    if m < 2:
        raise ValueError("dense realization needs at least 2 modes")
    tps = TensorProductStructure((FactorSpace(labels[0], m), FactorSpace(labels[1], m)))
    amp = np.zeros((m, m), dtype=complex)
    amp[np.arange(m), np.arange(m - 1, -1, -1)] = w
    return PureState(tps, amp.reshape(-1))


def schmidt_reduce(s: SchmidtPairState, side: str = "A") -> DensityMatrix:
    """Closed-form reduced density operator of one side: diag of |w_n|^2.

    Side "A" indexes by mode n, side "B" by partner f(n), so B's diagonal
    is A's reversed.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    p = s.probabilities()
    m = s.num_modes
    if m < 2:
        raise ValueError("reduced operator needs at least 2 modes")
    diag = p if side == "A" else p[::-1]
    return DensityMatrix((FactorSpace(side, m),), _Fresh(np.diag(diag).astype(complex)))
