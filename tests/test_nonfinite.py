"""NaN, infinite and huge finite entries fail every structural check with ValueError.

Each check compares as `not err <= tol`, because NaN compares false both
ways: written as `err > tol`, a NaN error would pass. A huge finite entry
must not escape as the OverflowError of a Python float power. The
messages print plain Python numbers, never numpy's scalar reprs.

An argument of the wrong kind (a label argument, a factor tuple, a 1-d
array) fails with ValueError or KeyError and one exact message, and valid
calls next to it keep their bits.
"""

import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo.channels import (
    DecoherenceSchedule,
    LocalPerturbation,
    NonLocalPerturbation,
    apply_local,
    apply_nonlocal,
    dephase_modes,
    haar_random_state,
    haar_random_unitary,
    localize_modes,
)
from entgeo.hilbert import (
    DensityMatrix,
    FactorSpace,
    PureState,
    SchmidtPairState,
    TensorProductStructure,
    _Fresh,
    density_of,
    partial_trace,
    qubits,
    reduced_density,
)
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

# each: a call with an argument of the wrong kind, a valid neighbour of it,
# and the float.hex that neighbour returned before its argument was checked
ARGUMENT_KINDS = {
    "haar_random_unitary seed": (
        lambda: haar_random_unitary(2, 1.5),
        lambda: haar_random_unitary(2, np.int64(7))[0, 1].real, "0x1.ef9ab20717863p-2"),
    "haar_random_state seed": (
        lambda: haar_random_state(AB, 1.5),
        lambda: haar_random_state(AB, np.int64(7)).amplitudes[3].imag, "0x1.595f2c4cce1ecp-1"),
    "from_weights 2-d": (
        lambda: SchmidtPairState.from_weights(np.ones((2, 2)) / 2),
        lambda: mutual_information_schmidt(SchmidtPairState.from_weights([0.6, 0.8j])),
        "0x1.4e8cd46280282p+0"),
    "dephase_modes bool array": (
        lambda: dephase_modes(FLAT4, np.array([True])),
        lambda: dephase_modes(FLAT4, np.array([1]))[1], "0x1.1ae996d7dfe1bp+1"),
    "localize_modes bool": (
        lambda: localize_modes(FLAT4, [True, 2]),
        lambda: localize_modes(FLAT4, [1, 2])[1], "0x1.62e42fefa39efp+0"),
}


@pytest.mark.parametrize("name", list(ARGUMENT_KINDS))
def test_wrong_argument_kind_raises_value_error(name):
    # never numpy's TypeError, a flattened array or True read as mode 1
    bad, good, bits = ARGUMENT_KINDS[name]
    with pytest.raises(ValueError):
        bad()
    assert float(good()).hex() == bits

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


# factors A, B and AB: a str names one factor, so "AB" is never A and B
A_B_AB = TensorProductStructure((FactorSpace("A", 2), FactorSpace("B", 2), FactorSpace("AB", 2)))
PSI3 = haar_random_state(A_B_AB, 5)
RHO3 = density_of(PSI3)
U2 = haar_random_unitary(2, 6)
U4 = haar_random_unitary(4, 7)
ENV = (FactorSpace("E", 2),)
SPLIT3 = (("A",), ("B", "AB"))

# each public entry that reads a label argument: the call with `side` as
# that argument, a valid neighbour, and the float.hex it returned before
# labels were read by one rule
LABEL_TAKERS = {
    "partial_trace keep": (
        lambda side: partial_trace(RHO3, side),
        lambda: partial_trace(RHO3, ("AB", "A")).matrix[1, 2].imag, "0x1.2b514db02b489p-4"),
    "reduced_density keep": (
        lambda side: reduced_density(PSI3, side),
        lambda: reduced_density(PSI3, ("B",)).matrix[0, 1].real, "-0x1.71902d6dd9265p-2"),
    "mutual_information side": (
        lambda side: mutual_information(RHO3, (side, ("A", "B"))),
        lambda: mutual_information(RHO3, (("AB",), ("A", "B"))), "0x1.e6c4d94f9095fp-1"),
    "pure_state_mutual_information side": (
        lambda side: pure_state_mutual_information(PSI3, (("A", "B"), side)),
        lambda: pure_state_mutual_information(PSI3, (("A", "B"), ("AB",))),
        "0x1.e6c4d94f90964p-1"),
    "apply_local target": (
        lambda side: apply_local(PSI3, LocalPerturbation(U2, side), SPLIT3)[1],
        lambda: apply_local(PSI3, LocalPerturbation(U4, ("AB", "A")), SPLIT3)[1],
        "-0x1.92c62104ae710p-3"),
    "apply_local side": (
        lambda side: apply_local(PSI3, LocalPerturbation(U2, ("A",)), (side, ("A", "B")))[1],
        lambda: apply_local(PSI3, LocalPerturbation(U4, ("AB", "A")), SPLIT3)[1],
        "-0x1.92c62104ae710p-3"),
    "apply_nonlocal target": (
        lambda side: apply_nonlocal(
            PSI3, NonLocalPerturbation(U4, side, ENV, [1.0, 0.0]), SPLIT3)[1],
        lambda: apply_nonlocal(PSI3, NonLocalPerturbation(U4, ("A",), ENV, [1.0, 0.0]), SPLIT3)[1],
        "-0x1.1732fc6a59f40p-1"),
    "apply_nonlocal side": (
        lambda side: apply_nonlocal(PSI3, NonLocalPerturbation(U4, ("A",), ENV, [1.0, 0.0]),
                                    (side, ("A", "B")))[1],
        lambda: apply_nonlocal(PSI3, NonLocalPerturbation(U4, ("A",), ENV, [1.0, 0.0]), SPLIT3)[1],
        "-0x1.1732fc6a59f40p-1"),
}

SIDE_RULE = "labels must be a str or a non-empty collection of distinct strs, got "

# each: a label argument of the wrong kind, and what every taker raises for it
HOSTILE_SIDES = {
    "multi-character str": ("BA", KeyError, "unknown factor labels ['BA']"),
    "unknown": (("Z", "A"), KeyError, "unknown factor labels ['Z']"),
    "repeated": (("A", "A"), ValueError, SIDE_RULE + "('A', 'A')"),
    "empty": ((), ValueError, SIDE_RULE + "()"),
    "non-str": (("A", 1), ValueError, SIDE_RULE + "('A', 1)"),
    "unhashable": ([["A"]], ValueError, SIDE_RULE + "[['A']]"),
    "not iterable": (5, ValueError, SIDE_RULE + "5"),
}

RHO2 = np.outer(BELL, BELL.conj())
SCHMIDT3 = (lambda: mutual_information_schmidt(SchmidtPairState(3, [0.6, 0.0, 0.8j])),
            "0x1.4e8cd46280282p+0")
BELL_MI = (lambda: mutual_information(DensityMatrix(AB.factors, RHO2), (("A",), ("B",))),
           "0x1.62e42fefa39efp+0")
PURE3 = (lambda: von_neumann_entropy(reduced_density(PSI3, ("A", "AB"))), "0x1.4958ff9682f8cp-2")

# each: a call with a factor tuple or an array of the wrong kind, what it
# raises, and a valid neighbour with its float.hex from before the check
SHAPE_ARGUMENTS = {
    "DensityMatrix TensorProductStructure factors": (
        lambda: DensityMatrix(AB, RHO2), ValueError,
        "factors must be FactorSpace items, got TensorProductStructure", *BELL_MI),
    "DensityMatrix str factors": (
        lambda: DensityMatrix("AB", RHO2), ValueError,
        "factors must be FactorSpace items, got str", *BELL_MI),
    "TensorProductStructure int factor": (
        lambda: TensorProductStructure((FactorSpace("A", 2), 2)), ValueError,
        "factors must be FactorSpace items, got int", *PURE3),
    "env_factors TensorProductStructure": (
        lambda: NonLocalPerturbation(U4, ("A",), qubits(("E",)), [1.0, 0.0]), ValueError,
        "factors must be FactorSpace items, got TensorProductStructure",
        *LABEL_TAKERS["apply_nonlocal target"][1:]),
    "PureState 2-d amplitudes": (
        lambda: PureState(AB, BELL.reshape(2, 2)), ValueError,
        "amplitudes must be a 1-d array of length 4, got shape (2, 2)", *PURE3),
    "PureState 0-d amplitudes": (
        lambda: PureState(qubits(("A",)), 1.0), ValueError,
        "amplitudes must be a 1-d array of length 2, got shape ()", *PURE3),
    "env_state 2-d": (
        lambda: NonLocalPerturbation(U4, ("A",), ENV, [[1.0, 0.0]]), ValueError,
        "amplitudes must be a 1-d array of length 2, got shape (1, 2)",
        *LABEL_TAKERS["apply_nonlocal target"][1:]),
    "SchmidtPairState 2-d weights": (
        lambda: SchmidtPairState(4, np.full((2, 2), 0.5)), ValueError,
        "weights must be a 1-d array of length 4, got shape (2, 2)", *SCHMIDT3),
    "SchmidtPairState 0-d weights": (
        lambda: SchmidtPairState(1, 1.0), ValueError,
        "weights must be a 1-d array of length 1, got shape ()", *SCHMIDT3),
    "from_weights 2-d": (
        lambda: SchmidtPairState.from_weights(np.full((2, 2), 0.5)), ValueError,
        "weights must be a 1-d array of length 4, got shape (2, 2)", *SCHMIDT3),
    "from_weights 0-d": (
        lambda: SchmidtPairState.from_weights(1.0), ValueError,
        "weights must be a 1-d array of length 1, got shape ()", *SCHMIDT3),
}

ARGUMENT_CONTRACT = {
    **{f"{taker}, {kind}": (partial(call, side), error, message, good, bits)
       for taker, (call, good, bits) in LABEL_TAKERS.items()
       for kind, (side, error, message) in HOSTILE_SIDES.items()},
    **SHAPE_ARGUMENTS,
}


@pytest.mark.parametrize("name", list(ARGUMENT_CONTRACT))
def test_wrong_argument_raises_its_documented_error(name):
    # only ValueError or KeyError, with one message for each kind of fault
    bad, error, message, good, bits = ARGUMENT_CONTRACT[name]
    with pytest.raises((ValueError, KeyError)) as info:
        bad()
    assert (info.type, info.value.args) == (error, (message,))
    assert float(good()).hex() == bits


@pytest.mark.parametrize("taker", list(LABEL_TAKERS))
def test_a_str_names_one_factor(taker):
    # "AB" is the factor AB for every taker, with the bits of ("AB",), and a
    # perturbation keeps it as its one target label
    call = LABEL_TAKERS[taker][0]
    as_str, as_tuple = call("AB"), call(("AB",))
    if isinstance(as_str, DensityMatrix):
        assert as_str.labels == ("AB",)
        as_str, as_tuple = as_str.matrix, as_tuple.matrix
    assert np.asarray(as_str).tobytes() == np.asarray(as_tuple).tobytes()
    assert LocalPerturbation(U2, "AB").labels == ("AB",)
