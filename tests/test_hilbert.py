import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import hilbert
from entgeo.hilbert import (
    MAX_EXPLICIT_MODES,
    DensityMatrix,
    ExplicitWeightsRequired,
    FactorSpace,
    PureState,
    SchmidtPairState,
    TensorProductStructure,
    density_of,
    partial_trace,
    qubits,
    reduced_density,
    schmidt_to_dense,
    tensor,
)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def qubit_state(label: str, amps) -> PureState:
    return PureState(qubits((label,)), amps)


class traced_peak:
    """Context manager tracing allocations (numpy reports its own to
    tracemalloc); calling the value it gives returns the peak in bytes
    above the traced memory at entry."""

    def __enter__(self):
        self.started = not tracemalloc.is_tracing()
        if self.started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self.entry = tracemalloc.get_traced_memory()[0]
        self.peak = None
        return lambda: self.peak

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1] - self.entry
        if self.started:
            tracemalloc.stop()
        return False


class TestFactorSpace:
    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            FactorSpace("A", 1)

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            FactorSpace("", 2)

    @pytest.mark.parametrize("exponent, shown", [
        (5000, "about -1e5000"),
        (4000, "about -1e4000"),
        (3999, "-1" + "0" * 3999),  # still printable in full
    ])
    def test_rejected_huge_integer_is_shown_by_magnitude(self, exponent, shown):
        # str() refuses ints past 4300 digits, so the message gives about 1eK
        with pytest.raises(ValueError) as info:
            FactorSpace("A", -10**exponent)
        assert str(info.value) == f"factor dimension must be an integer >= 2, got {shown}"


class TestTensorProductStructure:
    def test_dims_labels_total(self):
        tps = TensorProductStructure((FactorSpace("A", 2), FactorSpace("B", 3)))
        assert tps.labels == ("A", "B")
        assert tps.dims == (2, 3)
        assert tps.total_dim == 6

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            TensorProductStructure((FactorSpace("A", 2), FactorSpace("A", 2)))

    def test_rejects_joint_dimension_over_cap(self):
        factors = tuple(FactorSpace(f"Q{i}", 2) for i in range(15))
        with pytest.raises(ValueError, match="cap"):
            TensorProductStructure(factors)  # 2^15 over the default 2^14

    @pytest.mark.parametrize("n,text", [
        (40, "1099511627776"),
        (20000, "about 1e6020"),  # 6021 digits, more than str() of an int gives out
    ])
    def test_cap_message_prints_the_dimension_while_it_is_printable(self, n, text):
        with pytest.raises(ValueError, match=f"^joint dimension {text} exceeds dense cap 16384$"):
            qubits(tuple(f"Q{i}" for i in range(n)))

    def test_cap_is_configurable(self, monkeypatch):
        # the module constant is the one bound, read on every construction
        factors = tuple(FactorSpace(f"Q{i}", 2) for i in range(15))
        monkeypatch.setattr(hilbert, "DENSE_CAP", 2**15)
        assert TensorProductStructure(factors).total_dim == 2**15
        monkeypatch.setattr(hilbert, "DENSE_CAP", 2**3)
        with pytest.raises(ValueError, match="^joint dimension 16 exceeds dense cap 8$"):
            qubits(("A", "B", "C", "D"))

    def test_unknown_label(self):
        # labels resolve against a structure's factors through hilbert._positions
        tps = qubits(("A", "B"))
        assert hilbert._positions(tps.labels, ("B", "A")) == {"B": 1, "A": 0}
        with pytest.raises(KeyError) as info:
            hilbert._positions(tps.labels, "C")
        assert info.value.args == ("unknown factor labels ['C']",)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(qubits(("A",)), np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            PureState(qubits(("A",)), np.array([1.0, 0.0, 0.0]))

    def test_amplitudes_are_locked(self):
        psi = qubit_state("A", UP)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_constructor_copies_input(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        psi = qubit_state("A", amps)
        amps[0] = 0.5
        assert psi.amplitudes[0] == 1.0


class TestTensor:
    def test_basis_order_is_row_major(self):
        # |0> x |1> occupies index 0*2 + 1 in the joint vector
        psi = tensor(qubit_state("A", UP), qubit_state("B", DOWN))
        assert psi.labels == ("A", "B")
        np.testing.assert_allclose(psi.amplitudes, [0, 1, 0, 0])

    def test_bell_with_spectator(self):
        bell = PureState(qubits(("A", "B")), BELL)
        psi = tensor(bell, qubit_state("C", UP))
        expected = np.zeros(8)
        expected[0] = expected[6] = 1 / math.sqrt(2)  # |000> and |110>
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            tensor(qubit_state("A", UP), qubit_state("A", DOWN))

    def test_order_permutation_consistency(self):
        rng = np.random.default_rng(5)
        states = []
        for label, dim in (("A", 2), ("B", 3), ("C", 2)):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            states.append(PureState(
                TensorProductStructure((FactorSpace(label, dim),)), v / np.linalg.norm(v)
            ))
        a, b, c = states
        forward = tensor(a, b, c)
        shuffled = tensor(c, a, b)
        # axes of (C, A, B) rearranged to (A, B, C)
        re = shuffled.amplitudes.reshape(2, 2, 3).transpose(1, 2, 0).reshape(-1)
        np.testing.assert_allclose(re, forward.amplitudes, atol=1e-15)

    def test_result_stays_normalized(self):
        rng = np.random.default_rng(11)
        parts = []
        for i, dim in enumerate((3, 4, 2)):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            parts.append(PureState(
                TensorProductStructure((FactorSpace(f"F{i}", dim),)),
                v / np.linalg.norm(v),
            ))
        assert abs(np.linalg.norm(tensor(*parts).amplitudes) - 1.0) < 1e-12


class TestDensityMatrix:
    def test_density_of_bell(self):
        rho = density_of(PureState(qubits(("A", "B")), BELL))
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="hermitian"):
            DensityMatrix((FactorSpace("A", 2),), mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((FactorSpace("A", 2),), np.eye(2))

    def test_validate_catches_negative_spectrum(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        rho = DensityMatrix((FactorSpace("A", 2),), mat)  # trace/hermitian pass
        with pytest.raises(ValueError, match="negative"):
            rho.validate()

    def test_matrix_is_locked(self):
        rho = density_of(PureState(qubits(("A", "B")), BELL))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = density_of(PureState(qubits(("A", "B")), BELL))
        rho_a = partial_trace(rho, ("A",))
        np.testing.assert_allclose(rho_a.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_marginal_is_pure(self):
        psi = tensor(qubit_state("A", UP), qubit_state("B", DOWN))
        rho_b = partial_trace(density_of(psi), ("B",))
        np.testing.assert_allclose(rho_b.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_keep_order_follows_original(self):
        psi = tensor(qubit_state("A", UP), qubit_state("B", DOWN), qubit_state("C", UP))
        rho = partial_trace(density_of(psi), ("C", "A"))
        assert rho.labels == ("A", "C")
        assert rho.dim == 4

    def test_keeping_everything_is_identity(self):
        rho = density_of(PureState(qubits(("A", "B")), BELL))
        assert partial_trace(rho, ("A", "B")) is rho

    def test_unknown_label(self):
        rho = density_of(PureState(qubits(("A", "B")), BELL))
        with pytest.raises(KeyError):
            partial_trace(rho, ("Z",))

    def test_empty_keep(self):
        rho = density_of(PureState(qubits(("A", "B")), BELL))
        with pytest.raises(ValueError):
            partial_trace(rho, ())

    @given(seed=st.integers(0, 10_000))
    def test_output_is_valid_density(self, seed):
        rng = np.random.default_rng(seed)
        tps = TensorProductStructure(
            (FactorSpace("A", 2), FactorSpace("B", 3), FactorSpace("C", 2))
        )
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rho = density_of(PureState(tps, v / np.linalg.norm(v)))
        # constructor re-validates hermiticity and unit trace on the result
        reduced = partial_trace(rho, ("B",))
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-10
        reduced.validate()


class TestReducedDensity:
    @given(seed=st.integers(0, 10_000))
    def test_matches_partial_trace(self, seed):
        rng = np.random.default_rng(seed)
        tps = TensorProductStructure(
            (FactorSpace("A", 2), FactorSpace("B", 2), FactorSpace("C", 3))
        )
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi = PureState(tps, v / np.linalg.norm(v))
        for keep in (("A",), ("B", "C"), ("A", "C"), ("C",)):
            direct = reduced_density(psi, keep)
            via_trace = partial_trace(density_of(psi), keep)
            assert direct.labels == via_trace.labels
            np.testing.assert_allclose(direct.matrix, via_trace.matrix, atol=1e-12)

    def test_keep_all_equals_projector(self):
        psi = PureState(qubits(("A", "B")), BELL)
        np.testing.assert_allclose(
            reduced_density(psi, ("A", "B")).matrix, density_of(psi).matrix, atol=1e-15
        )


class TestSchmidtPairState:
    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="normalized"):
            SchmidtPairState.from_weights([1.0, 1.0])

    def test_rejects_bad_mode_count(self):
        with pytest.raises(ValueError):
            SchmidtPairState(num_modes=0)

    @pytest.mark.parametrize("n", [0, -3, 2.5, math.nan, math.inf])
    def test_materialized_flat_rejects_bad_mode_count(self, n):
        with pytest.raises(ValueError, match="num_modes must be an integer >= 1"):
            SchmidtPairState.flat(n, symbolic=False)

    def test_canonical_pairing_reverses(self):
        # zero-based, w_n sits at row n and column 2 - n
        w = np.array([0.6, 0.48, 0.64])
        psi = schmidt_to_dense(SchmidtPairState.from_weights(w))
        expected = np.array([[0, 0, 0.6], [0, 0.48, 0], [0.64, 0, 0]])
        np.testing.assert_allclose(psi.amplitudes, expected.reshape(-1), atol=1e-15)

    def test_flat_is_symbolic_by_default(self):
        s = SchmidtPairState.flat(10**29)
        assert s.is_symbolic
        assert s.weights is None
        assert s.num_modes == 10**29

    def test_symbolic_rejects_weight_operations(self):
        s = SchmidtPairState.flat(10**29)
        with pytest.raises(ExplicitWeightsRequired):
            s.probabilities()
        with pytest.raises(ExplicitWeightsRequired):
            schmidt_to_dense(s)

    def test_materialize_small_flat(self):
        s = SchmidtPairState.flat(8).materialize()
        assert not s.is_symbolic
        np.testing.assert_allclose(s.probabilities(), np.full(8, 1 / 8), atol=1e-15)

    def test_materialize_keeps_its_one_weight_array(self):
        # the flat weights are handed to the constructor, not copied again
        n = 2**18
        tracemalloc.start()
        try:
            s = SchmidtPairState.flat(n, symbolic=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * 16
        assert s.weights.dtype == complex and not s.weights.flags.writeable
        assert s.weights[0] == 1.0 / math.sqrt(n)

    def test_materialize_refuses_astronomical(self):
        with pytest.raises(ExplicitWeightsRequired):
            SchmidtPairState.flat(10**29).materialize()

    @pytest.mark.parametrize("n", [2**40, 10**400])
    def test_materialized_flat_refuses_before_allocating(self, n):
        with traced_peak() as peak:
            with pytest.raises(ExplicitWeightsRequired, match="refusing to materialize"):
                SchmidtPairState.flat(n, symbolic=False)
        assert peak() < 2**20

    def test_astronomical_counts_print_as_powers_of_ten(self):
        # str() refuses a 5001-digit count; the messages use the cap error's 1eK form
        s = SchmidtPairState.flat(10**5000)
        with traced_peak() as peak:
            with pytest.raises(ExplicitWeightsRequired, match="materialize about 1e5000 flat"):
                s.materialize()
            with pytest.raises(ExplicitWeightsRequired, match="flat over about 1e5000 modes"):
                s.require_weights("probabilities")
        assert peak() < 2**20

    def test_flat_and_materialize_share_one_limit(self, monkeypatch):
        assert MAX_EXPLICIT_MODES == 2**20
        monkeypatch.setattr(hilbert, "MAX_EXPLICIT_MODES", 8)
        assert SchmidtPairState.flat(8, symbolic=False).num_modes == 8
        assert SchmidtPairState.flat(8).materialize().num_modes == 8
        with pytest.raises(ExplicitWeightsRequired):
            SchmidtPairState.flat(9, symbolic=False)
        with pytest.raises(ExplicitWeightsRequired):
            SchmidtPairState.flat(9).materialize()

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = SchmidtPairState.from_weights(w / np.linalg.norm(w))
        assert abs(s.probabilities().sum() - 1.0) < 1e-12


class TestSchmidtDense:
    def test_flat_two_mode_matches_bell(self):
        psi = schmidt_to_dense(SchmidtPairState.flat(2, symbolic=False))
        # canonical pairing sends mode 1 to partner 2 and mode 2 to partner 1
        expected = np.array([0, 1, 1, 0]) / math.sqrt(2)
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_needs_two_modes(self):
        single = SchmidtPairState.from_weights([1.0])
        with pytest.raises(ValueError, match="at least 2"):
            schmidt_to_dense(single)

    def test_cap_enforced(self):
        s = SchmidtPairState.flat(200, symbolic=False)
        with pytest.raises(ValueError, match="cap"):
            schmidt_to_dense(s)

    @given(seed=st.integers(0, 10_000), m=st.integers(2, 12))
    @settings(max_examples=30)
    def test_dense_state_is_normalized(self, seed, m):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        s = SchmidtPairState.from_weights(w / np.linalg.norm(w))
        psi = schmidt_to_dense(s)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


# The dense path before row blocks, kept as the reference its bits must match.
def reference_contract(t, kept, dropped):
    order = kept + dropped
    dk = math.prod(t.shape[i] for i in kept)
    m = np.transpose(t, order).reshape(dk, -1).copy()
    mat = m @ np.conjugate(m).T
    return 0.5 * (mat + mat.conj().T)


def reference_check(mats):
    herm_err = np.maximum.reduce(np.abs(mats - mats.conj().swapaxes(1, 2)), axis=(1, 2))
    traces = mats.trace(axis1=1, axis2=2)
    for k, (err, tr) in enumerate(zip(herm_err.tolist(), traces.tolist())):
        if not err <= 1e-10:
            raise ValueError(f"matrix not hermitian: max |rho - rho^dag| = {herm_err[k]}")
        if not abs(tr - 1.0) <= 1e-10:
            raise ValueError(f"matrix trace must be 1, got {traces[k]}")


def check_message(check, mats):
    try:
        check(mats)
    except ValueError as exc:
        return str(exc)
    return None


def amplitude_tensor(dims, seed, real=False):
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    v = rng.standard_normal(d) + (0 if real else 1j * rng.standard_normal(d))
    return (v / np.linalg.norm(v)).astype(complex).reshape(dims)


# kept dimension d: 512 fits one block, 1024 and 2048 split into whole row
# blocks, 3**7 leaves a last block of 2187 - 18 * 119 = 85 rows
BLOCK_DIMS = {
    512: ((2,) * 11, 9),
    1024: ((2,) * 12, 10),
    2048: ((2,) * 12, 11),
    3**7: ((3,) * 8, 7),
}


class TestRowBlockedDensePath:
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("d", list(BLOCK_DIMS))
    def test_contract_matches_one_expression_bit_for_bit(self, d, real):
        dims, n_kept = BLOCK_DIMS[d]
        t = amplitude_tensor(dims, seed=d, real=real)
        kept = list(range(len(dims) - n_kept, len(dims)))[::-1]
        dropped = [i for i in range(len(dims)) if i not in kept]
        got = hilbert._contract_pure(t[None], kept)[0]
        assert got.shape == (d, d)
        # tobytes, so a zero whose sign flipped counts as a difference
        assert got.tobytes() == reference_contract(t, kept, dropped).tobytes()

    @pytest.mark.parametrize("block_elems", [1, 7, 64, 100, 700])
    def test_contract_matches_with_tiny_blocks(self, monkeypatch, block_elems):
        monkeypatch.setattr(hilbert, "_BLOCK_ELEMS", block_elems)
        for real in (False, True):
            t = amplitude_tensor((3, 2, 3, 2), seed=block_elems, real=real)
            for kept in ([0, 2], [2, 0, 1], [3]):
                dropped = [i for i in range(4) if i not in kept]
                got = hilbert._contract_pure(t[None], kept)[0]
                assert got.tobytes() == reference_contract(t, kept, dropped).tobytes()

    @pytest.mark.parametrize("block_elems", [1, 40, 1 << 18])
    def test_contracted_stack_matches_each_tensor(self, monkeypatch, block_elems):
        # a stack is contracted as each of its tensors would be alone, also
        # when it is symmetrized matrix by matrix in row blocks
        monkeypatch.setattr(hilbert, "_BLOCK_ELEMS", block_elems)
        stack = np.array([amplitude_tensor((3, 2, 3, 2), seed=k) for k in range(5)])
        work = np.empty(2 * stack.size, dtype=complex)  # one buffer for every subset
        for kept in ([0, 2], [2, 0, 1], [3]):
            dropped = [i for i in range(4) if i not in kept]
            got = hilbert._contract_pure(stack, kept, work)
            for k, t in enumerate(stack):
                assert got[k].tobytes() == reference_contract(t, kept, dropped).tobytes()

    @pytest.mark.parametrize("d", list(BLOCK_DIMS))
    def test_hermiticity_check_matches_one_expression(self, d):
        last = d - 1  # in the last row block, a partial one for 3**7
        mats = np.eye(d, dtype=complex)[None] / d
        # name: (entries bumped, start of the expected message or None);
        # an off-diagonal bump shows in two rows, (i, j) and (j, i), so the
        # bumps meant for one row block sit on the diagonal
        herm = "matrix not hermitian: max |rho - rho^dag| = "
        cases = {
            "clean": ([], None),
            "first block": ([((0, 5), 1e-6)], herm + "1e-06"),
            "last block": ([((last, last), 2e-6j)], herm + "4e-06"),
            "diagonal": ([((d // 2, d // 2), 3e-6j)], herm + "6e-06"),
            "largest last": ([((1, 1), 1e-6j), ((last, last), 2e-6j)], herm + "4e-06"),
            "largest first": ([((1, 1), 3e-6j), ((last, last), 2e-6j)], herm + "6e-06"),
            # a NaN maximum fails the check and is the one reported, in
            # every block (an fmax join would drop it and report the other)
            "nan last": ([((1, 1), 1e-6j), ((last, last), math.nan)], herm + "nan"),
            "nan first": ([((0, 0), math.nan), ((last, last), 1e-6j)], herm + "nan"),
            "trace": ([((d // 3, d // 3), 1e-6)], "matrix trace must be 1"),
        }
        for name, (hits, start) in cases.items():
            saved = [mats[0, i, j] for (i, j), _ in hits]
            for (i, j), bump in hits:
                mats[0, i, j] += bump
            want = check_message(reference_check, mats)
            assert check_message(hilbert._check_density_stack, mats) == want, name
            assert want is None if start is None else want.startswith(start), (name, want)
            for ((i, j), _), value in zip(hits, saved):
                mats[0, i, j] = value

    def test_hermiticity_check_on_a_blocked_stack(self):
        # 3 x 512 x 512 exceeds one block: rows of all three in each block
        mats = np.broadcast_to(np.eye(512, dtype=complex) / 512, (3, 512, 512)).copy()
        mats[1, 511, 511] += 1e-6j
        mats[2, 0, 7] = math.nan
        want = check_message(reference_check, mats)
        assert "hermitian" in want
        assert check_message(hilbert._check_density_stack, mats) == want
        mats[1, 511, 511] -= 1e-6j
        mats[2, 0, 7] = 0.0
        mats[0, 3, 3] += 1e-6
        want = check_message(reference_check, mats)
        assert "trace" in want
        assert check_message(hilbert._check_density_stack, mats) == want

    def test_public_constructor_keeps_its_own_copy(self):
        mat = np.diag([0.25, 0.75]).astype(complex)
        rho = DensityMatrix((FactorSpace("A", 2),), mat)
        mat[0, 0] = 1.0
        mat[1, 0] = 0.5
        np.testing.assert_array_equal(rho.matrix, np.diag([0.25, 0.75]))
        assert not rho.matrix.flags.writeable

    def test_internal_producers_lock_their_matrix(self):
        labels = [f"Q{i}" for i in range(11)]
        psi = PureState(qubits(labels), amplitude_tensor((2,) * 11, 5).reshape(-1))
        rho = reduced_density(psi, labels[:10])
        for out in (rho, partial_trace(rho, labels[:3])):
            assert not out.matrix.flags.writeable
            with pytest.raises(ValueError):
                out.matrix[0, 0] = 1.0

    def test_internal_producers_still_check_the_trace(self):
        # normalized within ATOL_STRUCT, yet the reduction's trace is off by more
        v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0) * (1 + 0.9e-10)
        psi = PureState(qubits(("A", "B")), v)
        with pytest.raises(ValueError, match="trace must be 1"):
            reduced_density(psi, ("A",))
        with pytest.raises(ValueError, match="trace must be 1"):
            density_of(psi)

    def test_reduced_density_holds_the_result_plus_three_blocks(self):
        labels = [f"Q{i}" for i in range(12)]
        psi = PureState(qubits(labels), amplitude_tensor((2,) * 12, 9).reshape(-1))
        matrix_bytes = 1024 * 1024 * 16
        with traced_peak() as peak:
            rho = reduced_density(psi, labels[:10])
        # before the row blocks: four matrices, 64 MiB above entry
        assert peak() < matrix_bytes + 3 * hilbert._BLOCK_ELEMS * 16
        with traced_peak() as peak:
            DensityMatrix(rho.factors, rho.matrix)
        assert peak() < 2 * matrix_bytes


def same_locked(a, b) -> bool:
    """a and b hold equal values field by field, _pure included, and every
    array of b is read-only."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b) and not b.flags.writeable
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_locked(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("case", ["pure", "density", "purified density", "schmidt"])
def test_pickle_and_deepcopy_keep_the_lock(monkeypatch, case):
    # a 3-qubit reduction exceeds a 16-element block, so it keeps its state
    monkeypatch.setattr(hilbert, "_BLOCK_ELEMS", 16)
    psi = PureState(qubits(("A", "B", "C", "D")), amplitude_tensor((2,) * 4, 3).reshape(-1))
    state = {
        "pure": psi,
        "density": DensityMatrix(qubits(("A", "B")).factors, np.diag([0.1, 0.2, 0.3, 0.4])),
        "purified density": reduced_density(psi, ("A", "B", "C")),
        "schmidt": SchmidtPairState.from_weights([0.6, 0.8j]),
    }[case]
    assert (getattr(state, "_pure", None) is not None) == (case == "purified density")
    for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert same_locked(state, copied)
