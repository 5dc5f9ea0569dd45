import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo.hilbert import (
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
    schmidt_reduce,
    schmidt_to_dense,
    tensor,
)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def qubit_state(label: str, amps) -> PureState:
    return PureState(qubits((label,)), amps)


class TestFactorSpace:
    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            FactorSpace("A", 1)

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            FactorSpace("", 2)


class TestTensorProductStructure:
    def test_dims_labels_total(self):
        tps = TensorProductStructure((FactorSpace("A", 2), FactorSpace("B", 3)))
        assert tps.labels == ("A", "B")
        assert tps.dims == (2, 3)
        assert tps.total_dim == 6
        assert tps.index_of("B") == 1
        assert tps.dim_of(("A", "B")) == 6

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

    def test_cap_is_configurable(self):
        factors = tuple(FactorSpace(f"Q{i}", 2) for i in range(15))
        tps = TensorProductStructure(factors, cap=2**15)
        assert tps.total_dim == 2**15

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            qubits(("A", "B")).index_of("C")


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

    def test_rejects_non_injective_pairing(self):
        w = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        with pytest.raises(ValueError, match="injective"):
            SchmidtPairState.from_weights(w, pairing=[1, 1, 2])

    def test_canonical_pairing_reverses(self):
        s = SchmidtPairState.flat(4, symbolic=False)
        np.testing.assert_array_equal(s.pairing_values(), [4, 3, 2, 1])

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
        with pytest.raises(ExplicitWeightsRequired):
            schmidt_reduce(s)

    def test_symbolic_cannot_carry_pairing(self):
        with pytest.raises(ValueError):
            SchmidtPairState(num_modes=5, pairing=[5, 4, 3, 2, 1])

    def test_materialize_small_flat(self):
        s = SchmidtPairState.flat(8).materialize()
        assert not s.is_symbolic
        np.testing.assert_allclose(s.probabilities(), np.full(8, 1 / 8), atol=1e-15)

    def test_materialize_refuses_astronomical(self):
        with pytest.raises(ExplicitWeightsRequired):
            SchmidtPairState.flat(10**29).materialize()

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

    def test_custom_pairing_positions(self):
        w = np.array([0.6, 0.8], dtype=complex)
        psi = schmidt_to_dense(SchmidtPairState.from_weights(w, pairing=[1, 2]))
        np.testing.assert_allclose(psi.amplitudes, [0.6, 0, 0, 0.8], atol=1e-15)

    def test_needs_two_modes(self):
        single = SchmidtPairState.from_weights([1.0])
        with pytest.raises(ValueError, match="at least 2"):
            schmidt_to_dense(single)
        with pytest.raises(ValueError, match="at least 2"):
            schmidt_reduce(single)

    def test_cap_enforced(self):
        s = SchmidtPairState.flat(200, symbolic=False)
        with pytest.raises(ValueError, match="cap"):
            schmidt_to_dense(s, cap=2**14)

    def test_reduce_matches_dense_roundtrip_all_sizes(self):
        # closed-form marginals against the generic dense route, every mode
        # count up to the dense pipeline comparison ceiling
        rng = np.random.default_rng(17)
        for m in range(2, 65):
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            s = SchmidtPairState.from_weights(w / np.linalg.norm(w))
            psi = schmidt_to_dense(s, cap=2**14)
            rho = density_of(psi)
            for side in ("A", "B"):
                closed = schmidt_reduce(s, side)
                dense = partial_trace(rho, (side,))
                np.testing.assert_allclose(
                    closed.matrix, dense.matrix, atol=1e-12,
                    err_msg=f"side {side}, {m} modes",
                )

    def test_reduce_side_b_uses_pairing(self):
        w = np.array([0.6, 0.0, 0.8], dtype=complex)
        s = SchmidtPairState.from_weights(w, pairing=[2, 3, 1])
        rho_b = schmidt_reduce(s, "B")
        np.testing.assert_allclose(
            np.diag(rho_b.matrix).real, [0.64, 0.36, 0.0], atol=1e-15
        )

    @given(seed=st.integers(0, 10_000), m=st.integers(2, 12))
    @settings(max_examples=30)
    def test_dense_state_is_normalized(self, seed, m):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        s = SchmidtPairState.from_weights(w / np.linalg.norm(w))
        psi = schmidt_to_dense(s)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
