import dataclasses
import math
import pickle
import re
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entgeo.infotheory
from entgeo.hilbert import (
    DENSE_CAP,
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
    schmidt_to_dense,
)
from entgeo.infotheory import (
    EIG_CLAMP,
    check_mi_properties,
    correlation_lower_bound,
    entropy_from_spectrum,
    mutual_information,
    mutual_information_schmidt,
    pure_state_mutual_information,
    von_neumann_entropy,
)

from oracles import random_weights, svd_entropy

LOG2 = math.log(2.0)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
GHZ = np.zeros(8, dtype=complex)
GHZ[0] = GHZ[7] = 1.0 / math.sqrt(2.0)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def bell_density() -> DensityMatrix:
    return density_of(PureState(qubits(("A", "B")), BELL))


def random_state(labels_dims, seed) -> PureState:
    rng = np.random.default_rng(seed)
    tps = TensorProductStructure(tuple(FactorSpace(lb, d) for lb, d in labels_dims))
    v = rng.standard_normal(tps.total_dim) + 1j * rng.standard_normal(tps.total_dim)
    return PureState(tps, v / np.linalg.norm(v))


class TestEntropyFromSpectrum:
    def test_pure_spectrum_is_zero(self):
        assert entropy_from_spectrum([1.0, 0.0]) == 0.0

    def test_uniform_hits_log_dim(self):
        assert abs(entropy_from_spectrum([0.25] * 4) - math.log(4)) < 1e-12

    def test_frozen_two_point_value(self):
        # -(1/4 log 1/4 + 3/4 log 3/4)
        assert abs(entropy_from_spectrum([0.25, 0.75]) - 0.5623351446188083) < 1e-12

    def test_base_two(self):
        assert abs(entropy_from_spectrum([0.5, 0.5], base=2) - 1.0) < 1e-12

    def test_clamps_eigensolver_dust(self):
        assert entropy_from_spectrum([1.0 - 1e-13, 1e-13]) < 1e-12
        assert entropy_from_spectrum([1.0 + 5e-11, -5e-11]) == 0.0

    def test_rejects_genuinely_negative(self):
        with pytest.raises(ValueError, match="negative"):
            entropy_from_spectrum([1.1, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            entropy_from_spectrum([0.5, 0.4])

    def test_nan_entry_named_nan(self):
        with pytest.raises(ValueError, match=r"^spectrum has NaN entry nan$"):
            entropy_from_spectrum([math.nan, 1.0])

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError, match="base"):
            entropy_from_spectrum([1.0], base=1.0)


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(bell_density()) < 1e-12

    def test_maximally_mixed_qubit(self):
        rho = partial_trace(bell_density(), ("A",))
        assert abs(von_neumann_entropy(rho) - LOG2) < 1e-12

    def test_rejects_negative_spectrum(self):
        rho = DensityMatrix((FactorSpace("A", 2),), np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="negative"):
            von_neumann_entropy(rho)

    def test_nan_eigenvalue_named_nan(self, monkeypatch):
        monkeypatch.setattr(entgeo.infotheory.np.linalg, "eigvalsh",
                            lambda mats: np.array([[math.nan, 1.0]]))
        with pytest.raises(ValueError, match=r"^density matrix has NaN eigenvalue nan$"):
            von_neumann_entropy(bell_density())

    @given(seed=st.integers(0, 10_000))
    def test_entropy_within_bounds(self, seed):
        psi = random_state((("A", 3), ("B", 4)), seed)
        s = von_neumann_entropy(reduced_density(psi, ("A",)))
        assert -1e-12 <= s <= math.log(3) + 1e-12

    @given(seed=st.integers(0, 10_000), dim=st.integers(8, 24), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sums_only_the_entries_above_the_clamp(self, seed, dim, data):
        # a rank-deficient matrix leaves null-space eigenvalues below
        # EIG_CLAMP; summing with them padded in would regroup the sum
        rank = data.draw(st.integers(1, dim - 1))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        mat = g @ g.conj().T
        rho = DensityMatrix((FactorSpace("A", dim),), mat / np.trace(mat).real)
        lam = np.linalg.eigvalsh(rho.matrix)
        kept = lam[lam > EIG_CLAMP]
        assert von_neumann_entropy(rho) == max(float(-(kept * np.log(kept)).sum()), 0.0)


# entries that probe the clamp: exact zeros, EIG_CLAMP itself and one ulp to
# either side of it, plus ordinary magnitudes down to 1e-300
SPECTRUM_ENTRY = st.one_of(
    st.sampled_from([0.0, EIG_CLAMP, math.nextafter(EIG_CLAMP, 0.0),
                     math.nextafter(EIG_CLAMP, 1.0)]),
    st.floats(1e-300, 1.0),
)


class TestSpectrumEntropies:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_per_row_sums(self, data):
        k = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 300))
        rows = [data.draw(st.lists(SPECTRUM_ENTRY, min_size=n, max_size=n)) for _ in range(k)]
        for r in range(k):
            if data.draw(st.booleans()):
                # nothing kept: only zeros and entries at or just below the clamp
                rows[r] = [min(x, EIG_CLAMP) if x > EIG_CLAMP else x for x in rows[r]]
        spectra = np.array(rows)
        if data.draw(st.booleans()):
            spectra = spectra[:, ::-1]  # a strided view
        base = data.draw(st.sampled_from([None, 2.0]))
        factor = 1.0 if base is None else math.log(base)
        expected = [max(entgeo.infotheory._neg_xlogx(row[row > EIG_CLAMP]), 0.0) / factor
                    for row in spectra]
        # the row checks are pinned below; here unnormalized rows go through
        with mock.patch.object(entgeo.infotheory, "_check_spectra", lambda spectra, bad: None):
            got = entgeo.infotheory._spectrum_entropies(spectra, base, "spectrum has {} entry")
        assert got == expected
        assert [x.hex() for x in got] == [x.hex() for x in expected]  # signed zeros too

    def test_first_failing_row_raises(self):
        spectra = np.array([[0.5, 0.5], [1.2, -0.2], [0.5, 0.4], [1.5, -0.5]])
        with pytest.raises(ValueError, match=r"^row has negative entry -0\.2$"):
            entgeo.infotheory._spectrum_entropies(spectra, None, "row has {} entry")

    def test_entry_check_before_sum_check(self):
        # the row is off 1 and has a negative entry; the entry is named
        with pytest.raises(ValueError, match=r"^row has negative entry -0\.5$"):
            entgeo.infotheory._spectrum_entropies(np.array([[0.5, -0.5]]), None, "row has {} entry")
        with pytest.raises(ValueError, match=r"^spectrum must sum to 1, got 0\.9$"):
            entgeo.infotheory._spectrum_entropies(np.array([[1.0, 0.0], [0.5, 0.4], [1.5, -0.5]]),
                                                  None, "row has {} entry")

    def test_nan_named_nan_in_a_stack(self):
        spectra = np.array([[0.5, 0.5], [math.nan, 1.0], [1.5, -0.5]])
        with pytest.raises(ValueError, match=r"^row has NaN entry nan$"):
            entgeo.infotheory._spectrum_entropies(spectra, None, "row has {} entry")


class TestMutualInformation:
    def test_bell_value(self):
        assert abs(mutual_information(bell_density(), (("A",), ("B",))) - 2 * LOG2) < 1e-10

    def test_negative_value_raises(self, monkeypatch):
        # marginals 0 and joint 1 give I = -1, far below eigensolver noise
        monkeypatch.setattr(entgeo.infotheory, "_matrix_entropies",
                            lambda mats, base=None: [1.0 if mats.shape[-1] == 4 else 0.0] * len(mats))
        with pytest.raises(ArithmeticError, match=r"^mutual information came out negative: -1\.0$"):
            mutual_information(bell_density(), (("A",), ("B",)))

    def test_base_two_bell(self):
        mi = mutual_information(bell_density(), (("A",), ("B",)), base=2)
        assert abs(mi - 2.0) < 1e-12

    @pytest.mark.parametrize("d, eps", [(16, 1.5e-11), (32, 3e-11)])
    def test_sign_check_gives_one_verdict_in_every_unit(self, d, eps):
        # (1 - eps)|01><01| + eps|Phi_d><Phi_d| comes out a few 1e-10 nats
        # below zero; -1e-9 nats is about -1.4e-9 bits, so both units pass
        ket01, phi = np.zeros(d * d), np.zeros(d * d)
        ket01[1] = 1.0
        phi[:: d + 1] = 1.0 / math.sqrt(d)
        matrix = (1.0 - eps) * np.outer(ket01, ket01) + eps * np.outer(phi, phi)
        rho = DensityMatrix((FactorSpace("A", d), FactorSpace("B", d)), matrix.astype(complex))
        nats = mutual_information(rho, (("A",), ("B",)))
        bits = mutual_information(rho, (("A",), ("B",)), base=2)
        assert -1e-9 < nats < 0.0
        assert bits == pytest.approx(nats / LOG2, rel=1e-6)

    def test_product_state_has_none(self):
        psi = PureState(qubits(("A", "B")), np.array([1, 0, 0, 0], dtype=complex))
        assert mutual_information(density_of(psi), (("A",), ("B",))) < 1e-10

    def test_ghz_pair_marginal(self):
        psi = PureState(qubits(("A", "B", "E")), GHZ)
        rho_ab = reduced_density(psi, ("A", "B"))
        assert abs(mutual_information(rho_ab, (("A",), ("B",))) - LOG2) < 1e-10

    def test_rejects_overlapping_split(self):
        message = "split ('A', 'B') | ('B',) does not partition factors ('A', 'B')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mutual_information(bell_density(), (("A", "B"), ("B",)))

    def test_rejects_incomplete_split(self):
        psi = PureState(qubits(("A", "B", "E")), GHZ)
        with pytest.raises(ValueError, match="partition"):
            mutual_information(density_of(psi), (("A",), ("B",)))

    def test_rejects_repeated_labels(self):
        message = ("labels must be a str or a non-empty collection of distinct strs, "
                   "got ('A', 'A')")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mutual_information(bell_density(), (("A", "A"), ("B",)))

    def test_accepts_bare_string_sides(self):
        assert abs(mutual_information(bell_density(), ("A", "B")) - 2 * LOG2) < 1e-10

    @given(seed=st.integers(0, 10_000))
    def test_pure_path_matches_density_path(self, seed):
        psi = random_state((("A", 2), ("B", 2), ("C", 3)), seed)
        split = (("A", "C"), ("B",))
        fast = pure_state_mutual_information(psi, split)
        slow = mutual_information(density_of(psi), split)
        assert abs(fast - slow) < 1e-9

    @given(seed=st.integers(0, 10_000))
    def test_pure_marginals_share_entropy(self, seed):
        # Schmidt symmetry: both halves of a pure state carry equal entropy
        psi = random_state((("A", 4), ("B", 5)), seed)
        s_a = von_neumann_entropy(reduced_density(psi, ("A",)))
        s_b = von_neumann_entropy(reduced_density(psi, ("B",)))
        assert abs(s_a - s_b) < 1e-9


def written_out_mi(rho: DensityMatrix, part_a, part_b, base=None) -> float:
    """S(A) + S(B) - S(AB) with partial_trace and von_neumann_entropy."""
    return (von_neumann_entropy(partial_trace(rho, part_a), base)
            + von_neumann_entropy(partial_trace(rho, part_b), base)
            - von_neumann_entropy(rho, base))


def mixed_qudit_density(n: int, seed: int, keep: int) -> DensityMatrix:
    """The first keep factors of a Haar state on n qudits of dimension 2-4
    (at most 3 at n = 4) and a qubit environment."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 5 if n < 4 else 4, size=n).tolist()
    labels = [f"F{i}" for i in range(n)]
    psi = random_state(list(zip(labels, dims)) + [("E", 2)], seed)
    return reduced_density(psi, labels[:keep])


class TestDensityKernelBits:
    """mutual_information and correlation_lower_bound share one MI kernel;
    each must keep the bits of the formula written out with the public
    partial_trace and von_neumann_entropy."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mutual_information(self, n):
        for seed in range(4):
            rho = mixed_qudit_density(n, 100 * n + seed, n)
            labels = rho.labels
            for mask in range(1, 2**n - 1):
                part_a = tuple(lb for k, lb in enumerate(labels) if mask >> k & 1)
                part_b = tuple(lb for lb in labels if lb not in part_a)
                for base in (None, 2.0):
                    got = mutual_information(rho, (part_a, part_b), base=base)
                    assert got.hex() == written_out_mi(rho, part_a, part_b, base).hex()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_correlation_bound_mutual_info(self, n):
        rng = np.random.default_rng(n)
        for seed in range(4):
            rho = mixed_qudit_density(n, 200 * n + seed, 2)
            obs = []
            for d in rho.dims:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                obs.append(g + g.conj().T)
            for base in (None, 2.0):
                got = correlation_lower_bound(rho, *obs, base=base).mutual_info
                assert got.hex() == written_out_mi(rho, ("F0",), ("F1",), base).hex()


def haar_qubits(n: int, seed: int) -> PureState:
    labels = [f"Q{i}" for i in range(n)]
    return random_state([(lb, 2) for lb in labels], seed)


def purified(n: int, keep: int, seed: int) -> tuple[PureState, DensityMatrix]:
    """A Haar state on n qubits and its reduction to keep of them, chosen
    at random and held in the state's order."""
    psi = haar_qubits(n, seed)
    rng = np.random.default_rng(seed)
    kept = sorted(rng.choice(n, keep, replace=False).tolist())
    return psi, reduced_density(psi, [psi.labels[i] for i in kept])


class TestPurifiedReductions:
    """A reduction larger than one block keeps its pure state, and its
    entropies come from the small side of each cut of that state."""

    @pytest.mark.parametrize("n", [11, 12])
    def test_agrees_with_svd_oracle(self, n):
        psi, rho = purified(n, 10, n)
        assert rho._pure is psi
        pos = [psi.labels.index(lb) for lb in rho.labels]
        dims = psi.tps.dims
        s_k = svd_entropy(psi.amplitudes, dims, pos)
        assert abs(von_neumann_entropy(rho) - s_k) < 1e-12
        for cut in (1, 4, 9):
            a, b = pos[:cut], pos[cut:]
            want = svd_entropy(psi.amplitudes, dims, a) + svd_entropy(psi.amplitudes, dims, b) - s_k
            split = (rho.labels[:cut], rho.labels[cut:])
            assert abs(mutual_information(rho, split) - want) < 1e-12

    @pytest.mark.parametrize("cut", [1, 5, 9])
    def test_mutual_information_has_the_written_out_bits(self, cut):
        _, rho = purified(11, 10, 7)
        part_a, part_b = rho.labels[:cut], rho.labels[cut:]
        for base in (None, 2.0):
            got = mutual_information(rho, (part_a, part_b), base=base)
            assert got.hex() == written_out_mi(rho, part_a, part_b, base).hex()

    def test_partial_trace_reduces_the_pure_state(self):
        psi, rho = purified(11, 10, 3)
        small = partial_trace(rho, rho.labels[2:7])
        assert small._pure is None
        assert np.array_equal(small.matrix, reduced_density(psi, rho.labels[2:7]).matrix)
        assert partial_trace(rho, rho.labels) is rho

    def test_one_block_keeps_no_state(self):
        # 9 of 10 qubits: 512 x 512, exactly one block
        psi = haar_qubits(10, 5)
        assert reduced_density(psi, psi.labels[:9])._pure is None
        assert reduced_density(psi, psi.labels[:10])._pure is None  # density_of
        assert reduced_density(haar_qubits(11, 5), [f"Q{i}" for i in range(10)])._pure is not None

    def test_pickles_and_compares_as_its_matrix(self):
        psi, rho = purified(11, 10, 11)
        back = pickle.loads(pickle.dumps(rho))
        assert back._pure is not None
        assert np.array_equal(back._pure.amplitudes, psi.amplitudes)
        assert von_neumann_entropy(back).hex() == von_neumann_entropy(rho).hex()
        plain = DensityMatrix(rho.factors, _Fresh(rho.matrix))
        assert plain._pure is None
        assert plain == rho
        assert repr(plain) == repr(rho)
        assert dataclasses.replace(rho)._pure is None

    def test_property_checks_on_a_purified_state(self):
        _, rho = purified(11, 10, 13)
        assert check_mi_properties(rho, trials=1, seed=2).ok

    def test_pure_split_at_the_cap_takes_the_small_side(self):
        n = DENSE_CAP.bit_length() - 1
        psi = haar_qubits(n, 1)
        split = (psi.labels[:1], psi.labels[1:])
        tracemalloc.start()
        try:
            mi = pure_state_mutual_information(psi, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert mi == 2.0 * von_neumann_entropy(reduced_density(psi, split[0]))


@pytest.mark.parametrize("call, message", [
    (lambda: mutual_information(bell_density(), (("A",),)), "exactly two sides"),
    (lambda: mutual_information(bell_density(), (("A",), ("B",), ())), "exactly two sides"),
    (lambda: mutual_information(bell_density(), 2), "exactly two sides"),
    (lambda: pure_state_mutual_information(PureState(qubits(("A", "B")), BELL), ("A",), ("B",)),
     "exactly two sides"),
    (lambda: mutual_information(bell_density(), ("A", "B"), base="2"), "log base"),
    (lambda: von_neumann_entropy(bell_density(), base=[2.0]), "log base"),
    (lambda: entropy_from_spectrum([0.5, 0.5], base=2j), "log base"),
], ids=["one side", "three sides", "not a pair", "pure, sides as two args",
        "str base", "list base", "complex base"])
def test_bad_split_or_base_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
    # the valid forms of the same calls keep their bits
    for split in ((("A",), ("B",)), ["A", "B"], "AB"):
        assert mutual_information(bell_density(), split, base=2) == 2.0
    assert mutual_information(bell_density(), ("A", "B"), base=Decimal(2)) == 2.0


class TestSchmidtMutualInformation:
    def test_flat_three_modes(self):
        s = SchmidtPairState.flat(3, symbolic=False)
        assert abs(mutual_information_schmidt(s) - 2 * math.log(3)) < 1e-12

    def test_frozen_skewed_value(self):
        s = SchmidtPairState.from_weights([math.sqrt(0.9), math.sqrt(0.1)])
        assert abs(mutual_information_schmidt(s) - 0.6501659467828964) < 1e-12

    def test_single_mode_carries_nothing(self):
        assert mutual_information_schmidt(SchmidtPairState.from_weights([1.0])) == 0.0

    def test_symbolic_closed_form_is_exact(self):
        s = SchmidtPairState.flat(10**29)
        assert s.weights is None  # never materialized
        assert mutual_information_schmidt(s) == 2.0 * math.log(10**29)

    def test_symbolic_base_two(self):
        s = SchmidtPairState.flat(2**40)
        assert abs(mutual_information_schmidt(s, base=2) - 80.0) < 1e-9

    @pytest.mark.parametrize("state,bits", [
        (lambda: SchmidtPairState.from_weights([1.0]), ("0x0.0p+0", "0x0.0p+0")),
        (lambda: SchmidtPairState.from_weights([math.sqrt(0.9), math.sqrt(0.1)]),
         ("0x1.4ce28d0ccf92ep-1", "0x1.e0406181bc7d0p-1")),
        (lambda: SchmidtPairState.flat(1000, symbolic=False),
         ("0x1.ba18a998fff9dp+3", "0x1.3ee7b471b3a93p+4")),
        (lambda: SchmidtPairState.from_weights(random_weights(np.random.default_rng(7), 4096)),
         ("0x1.f9b6ba1670a34p+3", "0x1.6ccb9df684f01p+4")),
    ], ids=["one mode", "two modes", "flat", "haar"])
    def test_frozen_bits(self, state, bits):
        s = state()
        assert (mutual_information_schmidt(s).hex(), mutual_information_schmidt(s, base=2).hex()) == bits

    @given(seed=st.integers(0, 10_000), m=st.integers(2, 16))
    @settings(max_examples=30)
    def test_closed_form_matches_dense(self, seed, m):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        s = SchmidtPairState.from_weights(w / np.linalg.norm(w))
        closed = mutual_information_schmidt(s)
        dense = mutual_information(
            density_of(schmidt_to_dense(s)), (("A",), ("B",))
        )
        assert abs(closed - dense) < 1e-8

    @given(seed=st.integers(0, 10_000), m=st.integers(2, 200))
    @settings(max_examples=30)
    def test_matches_spectrum_entropy_bit_for_bit_above_the_clamp(self, seed, m):
        # exact probabilities skip the eigenvalue clamp, which only matters
        # for entries in (0, EIG_CLAMP]; elsewhere nothing may move
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        s = SchmidtPairState.from_weights(w / np.linalg.norm(w))
        p = s.probabilities()
        assert p.min() > 1e-12
        for base in (None, 2.0):
            assert mutual_information_schmidt(s, base=base) == \
                2.0 * entropy_from_spectrum(p, base=base)


class TestMiProperties:
    def test_ghz_monotonicity_explicit(self):
        rho = density_of(PureState(qubits(("A", "B", "E")), GHZ))
        mi_ab = mutual_information(partial_trace(rho, ("A", "B")), (("A",), ("B",)))
        mi_a_be = mutual_information(rho, (("A",), ("B", "E")))
        assert mi_a_be >= mi_ab - 1e-12
        assert abs(mi_a_be - 2 * LOG2) < 1e-10

    def test_report_on_random_mixed_state(self):
        psi = random_state((("A", 2), ("B", 2), ("C", 2), ("D", 2), ("E", 2)), 123)
        rho = reduced_density(psi, ("A", "B", "C", "D"))
        report = check_mi_properties(rho, trials=25, seed=9)
        assert report.ok, report
        assert report.checks.monotonicity is not None

    def test_bound_saturates_for_qudit_pair(self):
        m = 4
        tps = TensorProductStructure((FactorSpace("A", m), FactorSpace("B", m)))
        amp = np.zeros((m, m), dtype=complex)
        amp[np.arange(m), np.arange(m)] = 1 / math.sqrt(m)
        rho = density_of(PureState(tps, amp.reshape(-1)))
        mi = mutual_information(rho, (("A",), ("B",)))
        assert abs(mi - 2 * math.log(m)) < 1e-9  # sits exactly on the bound
        report = check_mi_properties(rho, trials=10, seed=1)
        assert report.ok

    @pytest.mark.parametrize("trials", [-1, 0, 1.5, math.nan, "2"])
    def test_rejects_a_non_count_of_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            check_mi_properties(bell_density(), trials=trials)

    def test_two_factor_state_without_monotonicity(self):
        # monotonicity needs a third factor; a two-factor state reports None
        report = check_mi_properties(bell_density(), trials=5, seed=0)
        assert report.ok
        assert report.checks.monotonicity is None


class TestCorrelationBound:
    def test_bell_sigma_z_case(self):
        result = correlation_lower_bound(bell_density(), SIGMA_Z, SIGMA_Z)
        assert abs(result.covariance - 1.0) < 1e-12
        assert abs(result.bound - 0.5) < 1e-12
        assert abs(result.mutual_info - 2 * LOG2) < 1e-10
        assert result.holds

    def test_product_state_zero_covariance(self):
        psi = PureState(qubits(("A", "B")), np.array([1, 0, 0, 0], dtype=complex))
        result = correlation_lower_bound(density_of(psi), SIGMA_Z, SIGMA_Z)
        assert abs(result.covariance) < 1e-12
        assert result.bound < 1e-12
        assert result.holds

    def test_rejects_non_hermitian_observable(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="hermitian"):
            correlation_lower_bound(bell_density(), bad, SIGMA_Z)

    def test_rejects_zero_observable(self):
        with pytest.raises(ValueError, match="nonzero"):
            correlation_lower_bound(bell_density(), np.zeros((2, 2)), SIGMA_Z)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            correlation_lower_bound(bell_density(), np.eye(3), SIGMA_Z)

    def test_rejects_multipartite_state(self):
        rho = density_of(PureState(qubits(("A", "B", "E")), GHZ))
        with pytest.raises(ValueError, match="two-factor"):
            correlation_lower_bound(rho, SIGMA_Z, SIGMA_Z)

    def test_base_change_preserves_inequality(self):
        result = correlation_lower_bound(bell_density(), SIGMA_Z, SIGMA_Z, base=2)
        assert abs(result.bound - 0.5 / LOG2) < 1e-12
        assert result.holds

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=50)
    def test_holds_for_random_states_and_observables(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state((("C", 2), ("D", 2), ("E", 4)), seed + 1)
        rho = reduced_density(psi, ("C", "D"))
        obs = []
        for _ in range(2):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            obs.append(g + g.conj().T)
        result = correlation_lower_bound(rho, obs[0], obs[1])
        assert result.holds
