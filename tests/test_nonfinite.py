"""NaN, infinite and huge finite entries fail every structural check with ValueError.

Each check compares as `not err <= tol`, because NaN compares false both
ways: written as `err > tol`, a NaN error would pass. A huge finite entry
must not escape as the OverflowError of a Python float power. The
messages print plain Python numbers, never numpy's scalar reprs.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo.channels import (
    DecoherenceSchedule,
    LocalPerturbation,
    NonLocalPerturbation,
    dephase_modes,
    haar_random_unitary,
    localize_modes,
)
from entgeo.hilbert import DensityMatrix, FactorSpace, PureState, SchmidtPairState, _Fresh, qubits
from entgeo.infotheory import (
    check_mi_properties,
    correlation_lower_bound,
    entropy_from_spectrum,
    mutual_information,
    mutual_information_schmidt,
    pure_state_mutual_information,
    von_neumann_entropy,
)
from entgeo.scenarios import bell_state, momentum_sector_state, qudit_bell, spin_momentum_state

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


# each builds one checked object from a finite but invalid input
BAD_INPUTS = {
    "PureState": lambda: PureState(AB, np.full(4, 0.6)),
    "SchmidtPairState": lambda: SchmidtPairState.from_weights([1.0, 0.5]),
    "env_state": lambda: NonLocalPerturbation(
        np.eye(4), ("A",), (FactorSpace("E", 2),), np.array([1.0, 0.5])),
    "spectrum sum": lambda: entropy_from_spectrum([0.5, 0.4]),
    "spectrum entry": lambda: entropy_from_spectrum([1.5, -0.5]),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_messages_print_python_numbers(name):
    with pytest.raises(ValueError) as excinfo:
        BAD_INPUTS[name]()
    assert "np." not in str(excinfo.value)


# each builds one object from a count it must take as an integer
COUNT_BUILDERS = {
    "FactorSpace": lambda n: FactorSpace("A", n),
    "qudit_bell": qudit_bell,
    "haar_random_unitary": lambda n: haar_random_unitary(n, 0),
    "SchmidtPairState": lambda n: SchmidtPairState(num_modes=n),
    "ir_first modes": lambda n: DecoherenceSchedule.ir_first(n, 2, "dephase"),
    "ir_first steps": lambda n: DecoherenceSchedule.ir_first(8, n, "dephase"),
    "check_mi_properties trials": lambda n: check_mi_properties(
        DensityMatrix(AB.factors, RHO), trials=n),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.5, np.float64(2.5),
                                 np.int64(-1), "2"], ids=repr)
@pytest.mark.parametrize("name", list(COUNT_BUILDERS))
def test_non_integer_count_raises_value_error(name, bad):
    # never OverflowError, numpy's size error or a silently truncated count
    with pytest.raises(ValueError) as excinfo:
        COUNT_BUILDERS[name](bad)
    assert "must be an integer" in str(excinfo.value)
    assert "np." not in str(excinfo.value)


FLAT4 = SchmidtPairState.flat(4, symbolic=False)
SECTORS = spin_momentum_state(bell_state(("As", "Bs")), momentum_sector_state(num_modes=4))

# each calls one public entry that takes a log base, on a valid state
BASE_TAKERS = {
    "entropy_from_spectrum": lambda b: entropy_from_spectrum([0.5, 0.5], base=b),
    "von_neumann_entropy": lambda b: von_neumann_entropy(DensityMatrix(AB.factors, RHO), base=b),
    "mutual_information": lambda b: mutual_information(
        DensityMatrix(AB.factors, RHO), (("A",), ("B",)), base=b),
    "pure_state_mutual_information": lambda b: pure_state_mutual_information(
        PureState(AB, BELL), (("A",), ("B",)), base=b),
    "mutual_information_schmidt": lambda b: mutual_information_schmidt(FLAT4, base=b),
    "mutual_information_schmidt symbolic": lambda b: mutual_information_schmidt(
        SchmidtPairState.flat(4), base=b),
    "mutual_information_schmidt one mode": lambda b: mutual_information_schmidt(
        SchmidtPairState.from_weights([1.0]), base=b),
    "correlation_lower_bound": lambda b: correlation_lower_bound(
        DensityMatrix(AB.factors, RHO), PAULI_Z, PAULI_Z, base=b),
    "dephase_modes": lambda b: dephase_modes(FLAT4, [1, 2], base=b),
    "localize_modes": lambda b: localize_modes(FLAT4, [1, 2], base=b),
    "BranchMixture.mutual_info": lambda b: dephase_modes(FLAT4, [1])[0].mutual_info(base=b),
    "spin_mutual_info": lambda b: SECTORS.spin_mutual_info(base=b),
    "momentum_mutual_info": lambda b: SECTORS.momentum_mutual_info(base=b),
    "total_mutual_info": lambda b: SECTORS.total_mutual_info(base=b),
    "dense_total_mutual_info": lambda b: SECTORS.dense_total_mutual_info(base=b),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1, 0.5, 0, -2], ids=repr)
@pytest.mark.parametrize("name", list(BASE_TAKERS))
def test_bad_log_base_raises_value_error(name, bad):
    # never nan, 0.0, a negative MI or ZeroDivisionError
    with pytest.raises(ValueError, match="log base must be finite and > 1"):
        BASE_TAKERS[name](bad)


@pytest.mark.parametrize("name", list(BASE_TAKERS))
def test_good_log_base_gives_a_value(name):
    # so the ValueError above comes from the base alone
    for base in (None, 2, 10.0):
        BASE_TAKERS[name](base)
