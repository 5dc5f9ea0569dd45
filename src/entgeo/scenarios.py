"""Named reference states and the physical scale calibration.

The toy model throughout: two particles flying apart share a spin sector
(a Bell pair or any two-factor state) and a momentum sector in which each
back-to-back mode pair |n, -n> is one Schmidt term. The sectors multiply,
so their mutual informations add, and the momentum sector's mode count is
set by how many momentum cells fit between an infrared floor and an
apparatus-scale ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import (
    DensityMatrix,
    FactorSpace,
    PureState,
    SchmidtPairState,
    TensorProductStructure,
    qubits,
    schmidt_to_dense,
    tensor,
)
from .infotheory import (
    mutual_information,
    mutual_information_schmidt,
    pure_state_mutual_information,
)

# Working values for the scale estimates (not high-precision CODATA).
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.998e8  # m/s
L_IR_DEFAULT = 1e26  # m, infrared floor on resolvable wavelengths
LAMBDA_CC_DEFAULT = 1.0 / L_IR_DEFAULT**2  # 1e-52 per m^2


def bell_state(labels: tuple[str, str] = ("A", "B")) -> PureState:
    """Maximally entangled two-qubit pair (|00> + |11>) / sqrt(2)."""
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1.0 / math.sqrt(2.0)
    return PureState(qubits(labels), amp)


def qudit_bell(n: int, labels: tuple[str, str] = ("A", "B")) -> PureState:
    """Maximally entangled pair of n-level systems, sum_i |ii> / sqrt(n).

    n * n must fit under DENSE_CAP (n <= 128).
    """
    tps = TensorProductStructure((FactorSpace(labels[0], n), FactorSpace(labels[1], n)))
    n = tps.dims[0]  # checked by FactorSpace, as a Python int
    amp = np.zeros((n, n), dtype=complex)
    amp[np.arange(n), np.arange(n)] = 1.0 / math.sqrt(n)
    return PureState(tps, amp.reshape(-1))


def bell_with_environment(labels: tuple[str, str, str] = ("A", "B", "E")) -> PureState:
    """Three-qubit branch-recorded pair (|000> + |111>) / sqrt(2).

    The third qubit has recorded which Bell branch occurred; tracing it
    out leaves the classically correlated mixture, with I(A:B) cut from
    2 log 2 to log 2.
    """
    amp = np.zeros(8, dtype=complex)
    amp[0] = amp[7] = 1.0 / math.sqrt(2.0)
    return PureState(qubits(labels), amp)


def classical_mixture_state(labels: tuple[str, str] = ("A", "B")) -> DensityMatrix:
    """Equal mixture of |00> and |11>: same marginals as the Bell pair,
    same classical correlations, no coherence, I(A:B) = log 2."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 0.5
    return DensityMatrix(qubits(labels).factors, mat)


@dataclass(frozen=True)
class SectorState:
    """Product of a spin-like sector and a momentum-like Schmidt sector.

    The joint state is (spin) x (momentum), so the two sectors' mutual
    informations add exactly. The spin sector may be pure or mixed; the
    momentum sector is a Schmidt-pair state, possibly symbolic, whose
    dense factors are always labeled momentum_labels, so the spin labels
    must differ from them.
    """

    spin: PureState | DensityMatrix
    momentum: SchmidtPairState
    momentum_labels = ("Ap", "Bp")  # not a field: the momentum factors' fixed labels

    def __post_init__(self) -> None:
        if len(self.spin.labels) != 2:
            raise ValueError("spin sector must have exactly 2 factors (one per party)")
        if set(self.momentum_labels) & set(self.spin.labels):
            raise ValueError("momentum labels collide with spin labels")

    @property
    def spin_split(self) -> tuple[tuple[str], tuple[str]]:
        a, b = self.spin.labels
        return (a,), (b,)

    def spin_mutual_info(self, base: float | None = None) -> float:
        if isinstance(self.spin, PureState):
            return pure_state_mutual_information(self.spin, self.spin_split, base=base)
        return mutual_information(self.spin, self.spin_split, base=base)

    def momentum_mutual_info(self, base: float | None = None) -> float:
        return mutual_information_schmidt(self.momentum, base=base)

    def total_mutual_info(self, base: float | None = None) -> float:
        """I(Alice : Bob) over both sectors; additive because they multiply."""
        return self.spin_mutual_info(base=base) + self.momentum_mutual_info(base=base)

    def to_dense(self) -> PureState:
        """Dense four-factor state for cross-checks (pure spin sector only).

        Factor order: both spin factors, then both momentum factors; the
        Alice side is (spin[0], momentum_labels[0]).
        """
        if not isinstance(self.spin, PureState):
            raise ValueError("dense cross-check state needs a pure spin sector")
        mom = schmidt_to_dense(self.momentum, labels=self.momentum_labels)
        return tensor(self.spin, mom)

    def dense_total_mutual_info(self, base: float | None = None) -> float:
        """Total MI through the dense pipeline, for validating additivity."""
        psi = self.to_dense()
        a, b = self.spin.labels
        ap, bp = self.momentum_labels
        return pure_state_mutual_information(psi, ((a, ap), (b, bp)), base=base)


def spin_momentum_state(spin: PureState | DensityMatrix, momentum: SchmidtPairState) -> SectorState:
    """Bundle a spin-like sector with a momentum-like Schmidt sector."""
    return SectorState(spin=spin, momentum=momentum)


def momentum_sector_state(
    num_modes: int | None = None,
    scales: "PhysicalScales | None" = None,
) -> SchmidtPairState:
    """Flat momentum sector, one Schmidt term per back-to-back mode pair.

    Pass a mode count, or a PhysicalScales whose mode count is used. The
    weight vector is materialized up to hilbert.MAX_EXPLICIT_MODES modes
    (read at call time) and stays symbolic above it, so astronomical mode
    counts cost nothing. Weighted sectors come from
    SchmidtPairState.from_weights.
    """
    if scales is not None:
        if num_modes is not None:
            raise ValueError("pass num_modes or scales, not both")
        num_modes = scales.mode_count
    if num_modes is None:
        raise ValueError("need num_modes or scales")
    state = SchmidtPairState.flat(num_modes)  # checks num_modes
    return state if state.num_modes > hilbert.MAX_EXPLICIT_MODES else state.materialize()


@dataclass(frozen=True)
class PhysicalScales:
    """Momentum-cell bookkeeping between an IR floor and a UV-side cap.

    The IR floor comes from the largest resolvable wavelength
    l_ir = lambda_cc**-0.5; the cap is either the apparatus resolution
    momentum hbar / l_app or the particle's Compton-scale momentum
    mass * c. The number of distinguishable back-to-back mode pairs is
    their ratio.
    """

    l_app: float
    lambda_cc: float
    mass: float
    hbar: float
    c: float
    momentum_cap: str
    p_cap: float
    p_ir: float
    l_ir: float
    n_modes: float
    compton_ceiling: float

    @property
    def mode_count(self) -> int:
        """n_modes as an integer count (floor, at least 1)."""
        return max(1, int(self.n_modes))


def physical_scales(
    l_app: float,
    mass: float,
    lambda_cc: float = LAMBDA_CC_DEFAULT,
    momentum_cap: str = "apparatus",
) -> PhysicalScales:
    """Derive the momentum-sector scales from laboratory inputs.

    momentum_cap picks the UV-side cap: "apparatus" for hbar / l_app,
    "compton" for mass * c. p_ir * l_ir reproduces hbar by construction
    (up to float rounding). The Compton ceiling l_ir * mass * c / hbar is
    the largest mode count the particle's rest mass can support and is
    reported alongside.
    """
    for name, val in (("l_app", l_app), ("mass", mass), ("lambda_cc", lambda_cc)):
        if not (val > 0.0 and math.isfinite(val)):
            raise ValueError(f"{name} must be positive and finite, got {val}")
    if momentum_cap not in ("apparatus", "compton"):
        raise ValueError(f"momentum_cap must be 'apparatus' or 'compton', got {momentum_cap!r}")
    p_ir = HBAR * math.sqrt(lambda_cc)
    l_ir = 1.0 / math.sqrt(lambda_cc)
    if momentum_cap == "apparatus":
        p_cap = HBAR / l_app
    else:
        p_cap = mass * C_LIGHT
    if p_cap < p_ir:
        raise ValueError(
            f"cap momentum {p_cap} sits below the IR floor {p_ir}; no modes fit"
        )
    n_modes = p_cap / p_ir
    if not math.isfinite(n_modes):
        raise ValueError(
            f"mode count p_cap / p_ir = {p_cap} / {p_ir} overflows the float range"
        )
    compton_ceiling = l_ir * mass * C_LIGHT / HBAR
    return PhysicalScales(
        l_app=l_app,
        lambda_cc=lambda_cc,
        mass=mass,
        hbar=HBAR,
        c=C_LIGHT,
        momentum_cap=momentum_cap,
        p_cap=p_cap,
        p_ir=p_ir,
        l_ir=l_ir,
        n_modes=n_modes,
        compton_ceiling=compton_ceiling,
    )
