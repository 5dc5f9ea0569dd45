"""NaN, infinite and huge finite entries fail every structural check with ValueError.

Each check compares as `not err <= tol`, because NaN compares false both
ways: written as `err > tol`, a NaN error would pass. A huge finite entry
must not escape as the OverflowError of a Python float power.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo.channels import LocalPerturbation, NonLocalPerturbation
from entgeo.hilbert import DensityMatrix, FactorSpace, PureState, SchmidtPairState, _Fresh, qubits
from entgeo.infotheory import correlation_lower_bound, entropy_from_spectrum

AB = qubits(("A", "B"))
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
RHO = np.outer(BELL, BELL.conj())
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

# each takes `poison`, which returns a complex copy of its argument with one
# entry replaced by a non-finite value, and builds one checked object from it
CONSTRUCTORS = {
    "PureState": lambda poison: PureState(AB, poison(BELL)),
    "SchmidtPairState": lambda poison: SchmidtPairState.from_weights(poison(np.full(4, 0.5))),
    "DensityMatrix": lambda poison: DensityMatrix(AB.factors, poison(RHO)),
    "DensityMatrix(_Fresh)": lambda poison: DensityMatrix(AB.factors, _Fresh(poison(RHO))),
    # the poisoned part, real or imaginary, moves into the real spectrum
    "spectrum": lambda poison: entropy_from_spectrum(
        (lambda p: p.real + p.imag)(poison(np.full(4, 0.25)))),
    "unitary": lambda poison: LocalPerturbation(poison(np.eye(2)), ("A",)),
    "env_state": lambda poison: NonLocalPerturbation(
        np.eye(4), ("A",), (FactorSpace("E", 2),), poison(np.array([1.0, 0.0]))),
    "observable": lambda poison: correlation_lower_bound(
        DensityMatrix(AB.factors, RHO), poison(PAULI_Z), PAULI_Z),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf on the way
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 1e308 squared on the way
@pytest.mark.parametrize("name", list(CONSTRUCTORS))
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, sys.float_info.max]),
       index=st.integers(0, 15), imag=st.booleans())
@settings(max_examples=40, deadline=None)
def test_non_finite_entry_raises_value_error(name, bad, index, imag):
    def poison(arr):
        out = np.array(arr, dtype=complex)
        out.flat[index % out.size] = complex(0.0, bad) if imag else complex(bad, 0.0)
        return out

    with pytest.raises(ValueError):
        CONSTRUCTORS[name](poison)


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_finite_input_builds(name):
    # so the ValueError above comes from the non-finite entry alone
    CONSTRUCTORS[name](lambda arr: np.array(arr, dtype=complex))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("big", [1e308, -1e308, sys.float_info.max])
def test_huge_observable_raises_value_error(big):
    # hermitian and finite, but its squared norm overflows a Python float
    with pytest.raises(ValueError, match="overflow the bound"):
        correlation_lower_bound(DensityMatrix(AB.factors, RHO), np.diag([big, -1.0]), PAULI_Z)
