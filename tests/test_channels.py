import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo.channels import (
    BranchMixture,
    DecoherenceSchedule,
    LocalPerturbation,
    NonLocalPerturbation,
    ScheduleStep,
    apply_local,
    apply_nonlocal,
    apply_unitary,
    decoherence_sweep,
    dephase_modes,
    haar_random_state,
    haar_random_unitary,
    localize_modes,
)
from entgeo.geometry import neg_log_weight
from entgeo.hilbert import (
    ExplicitWeightsRequired,
    FactorSpace,
    PureState,
    SchmidtPairState,
    qubits,
)
from entgeo.infotheory import mutual_information_schmidt

from oracles import (
    dephase_oracle,
    localize_oracle,
    mixed_channel_oracle,
    mixed_channel_rho,
    random_weights,
)

LOG2 = math.log(2.0)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


class TestHaarRandomUnitary:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_unitarity(self, dim):
        u = haar_random_unitary(dim, seed=42)
        err = np.abs(u.conj().T @ u - np.eye(dim)).max()
        assert err < 1e-10

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            haar_random_unitary(4, seed=7), haar_random_unitary(4, seed=7)
        )
        assert np.abs(
            haar_random_unitary(4, seed=7) - haar_random_unitary(4, seed=8)
        ).max() > 1e-3

    def test_dimension_one_is_a_phase(self):
        u = haar_random_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            haar_random_unitary(0, seed=0)

    def test_first_moment_matches_haar(self):
        # E |U_00|^2 = 1/dim for Haar; the sample mean over 100 draws at
        # the pinned root seed must sit within 0.05 of 0.5 for dim 2
        samples = [abs(haar_random_unitary(2, seed=1000 + i)[0, 0]) ** 2 for i in range(100)]
        assert abs(np.mean(samples) - 0.5) < 0.05


class TestHaarRandomState:
    def test_normalized_and_deterministic(self):
        tps = qubits(("A", "B", "C"))
        psi = haar_random_state(tps, seed=3)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        np.testing.assert_array_equal(
            psi.amplitudes, haar_random_state(tps, seed=3).amplitudes
        )


class TestApplyUnitary:
    def test_single_qubit_flip(self):
        psi = PureState(qubits(("A", "B")), np.array([1, 0, 0, 0], dtype=complex))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        flipped = apply_unitary(psi, x, ("B",))
        np.testing.assert_allclose(flipped.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_cnot_entangles(self):
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        up = np.array([1, 0], dtype=complex)
        amp = np.kron(plus, up)
        psi = PureState(qubits(("A", "B")), amp)
        out = apply_unitary(psi, CNOT, ("A", "B"))
        np.testing.assert_allclose(out.amplitudes, BELL, atol=1e-15)

    def test_label_order_matters(self):
        # control on B instead of A: reversed factor order for the same matrix
        psi = PureState(qubits(("A", "B")), np.array([0, 1, 0, 0], dtype=complex))
        out = apply_unitary(psi, CNOT, ("B", "A"))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_wrong_dimension_rejected(self):
        psi = PureState(qubits(("A", "B")), BELL)
        with pytest.raises(ValueError, match="2x2"):
            apply_unitary(psi, CNOT, ("A",))

    def test_non_unitary_rejected(self):
        psi = PureState(qubits(("A", "B")), BELL)
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(psi, np.ones((2, 2)), ("A",))

    def test_preserves_norm_on_random_targets(self):
        psi = haar_random_state(qubits(("A", "B", "C")), seed=5)
        u = haar_random_unitary(4, seed=6)
        out = apply_unitary(psi, u, ("C", "A"))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


class TestApplyLocal:
    def test_identity_changes_nothing(self):
        psi = PureState(qubits(("A", "B")), BELL)
        pert = LocalPerturbation(np.eye(2, dtype=complex), ("A",))
        out, delta_mi, delta_s_a = apply_local(psi, pert, (("A",), ("B",)))
        assert delta_mi == 0.0
        assert delta_s_a == 0.0
        np.testing.assert_allclose(out.amplitudes, BELL, atol=1e-15)

    def test_one_sided_unitary_leaves_mi_alone(self):
        psi = haar_random_state(qubits(("A", "B")), seed=9)
        pert = LocalPerturbation(haar_random_unitary(2, seed=10), ("A",))
        _, delta_mi, _ = apply_local(psi, pert, (("A",), ("B",)))
        assert abs(delta_mi) < 1e-12

    def test_disentangling_bell(self):
        # CNOT maps the Bell pair back to a product: MI drops by 2 log 2
        psi = PureState(qubits(("A", "B")), BELL)
        pert = LocalPerturbation(CNOT, ("A", "B"))
        out, delta_mi, delta_s_a = apply_local(psi, pert, (("A",), ("B",)))
        assert abs(delta_mi + 2 * LOG2) < 1e-9
        assert abs(delta_s_a + LOG2) < 1e-9

    def test_balance_identity_for_straddling_unitaries(self):
        for seed in range(20):
            psi = haar_random_state(qubits(("A", "B", "C")), seed=100 + seed)
            pert = LocalPerturbation(haar_random_unitary(4, seed=200 + seed), ("B", "C"))
            _, delta_mi, delta_s_a = apply_local(psi, pert, (("A", "B"), ("C",)))
            assert abs(delta_mi - 2 * delta_s_a) < 1e-9

    def test_rejects_unknown_factors(self):
        psi = PureState(qubits(("A", "B")), BELL)
        pert = LocalPerturbation(np.eye(2, dtype=complex), ("Z",))
        with pytest.raises(ValueError, match="unknown"):
            apply_local(psi, pert, (("A",), ("B",)))

    def test_rejects_split_that_is_not_a_partition(self):
        psi = haar_random_state(qubits(("A", "B", "C")), seed=1)
        pert = LocalPerturbation(np.eye(2, dtype=complex), ("A",))
        with pytest.raises(ValueError, match="partition"):
            apply_local(psi, pert, (("A",), ("B",)))

    def test_rejects_split_with_overlapping_sides(self):
        psi = haar_random_state(qubits(("A", "B", "C")), seed=1)
        pert = LocalPerturbation(np.eye(2, dtype=complex), ("A",))
        with pytest.raises(ValueError, match="overlap"):
            apply_local(psi, pert, (("A", "B"), ("B", "C")))

    def test_perturbation_validates_unitarity(self):
        with pytest.raises(ValueError, match="unitary"):
            LocalPerturbation(np.ones((2, 2)), ("A",))


class TestPerturbationChecks:
    """Both perturbation kinds share one labels-and-unitary check, and
    apply_local and apply_nonlocal one unknown-factor check."""

    @staticmethod
    def make(kind, unitary, labels):
        if kind == "local":
            return LocalPerturbation(unitary, labels)
        return NonLocalPerturbation(unitary=unitary, labels=labels,
                                    env_factors=(FactorSpace("E", 2),),
                                    env_state=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("kind", ["local", "nonlocal"])
    @pytest.mark.parametrize("labels", [(), ("B", "B")])
    def test_labels_must_be_non_empty_and_unique(self, kind, labels):
        with pytest.raises(ValueError, match=r"^labels must be non-empty and unique$"):
            self.make(kind, np.eye(4, dtype=complex), labels)

    @pytest.mark.parametrize("kind", ["local", "nonlocal"])
    def test_unitary_is_checked_and_locked(self, kind):
        message = r"^unitary is not unitary: max \|U\^dag U - I\| = 1\.0$"
        with pytest.raises(ValueError, match=message):
            self.make(kind, np.diag([1.0, 0.0, 1.0, 1.0]), ["B"])
        pert = self.make(kind, np.eye(4), ["B"])
        assert pert.labels == ("B",)
        assert not pert.unitary.flags.writeable

    @pytest.mark.parametrize("kind", ["local", "nonlocal"])
    def test_unknown_factors_have_one_message(self, kind):
        psi = PureState(qubits(("A", "B")), BELL)
        pert = self.make(kind, np.eye(2 if kind == "local" else 4, dtype=complex), ("Z",))
        apply = apply_local if kind == "local" else apply_nonlocal
        with pytest.raises(ValueError, match=r"^perturbation touches unknown factors \['Z'\]$"):
            apply(psi, pert, (("A",), ("B",)))


class TestApplyNonlocal:
    def env_pert(self, unitary, labels):
        return NonLocalPerturbation(
            unitary=unitary,
            labels=labels,
            env_factors=(FactorSpace("E", 2),),
            env_state=np.array([1.0, 0.0]),
        )

    def test_branch_recording_builds_ghz(self):
        psi = PureState(qubits(("A", "B")), BELL)
        pert = self.env_pert(CNOT, ("B",))
        out, delta_mi = apply_nonlocal(psi, pert, (("A",), ("B",)))
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
        assert abs(delta_mi + LOG2) < 1e-9  # 2 log 2 down to log 2

    def test_trivial_coupling_changes_nothing(self):
        psi = PureState(qubits(("A", "B")), BELL)
        pert = self.env_pert(np.eye(4, dtype=complex), ("B",))
        _, delta_mi = apply_nonlocal(psi, pert, (("A",), ("B",)))
        assert abs(delta_mi) < 1e-12

    def test_haar_couplings_never_raise_mi(self):
        for seed in range(25):
            psi = haar_random_state(qubits(("A", "B")), seed=300 + seed)
            pert = self.env_pert(haar_random_unitary(4, seed=400 + seed), ("B",))
            _, delta_mi = apply_nonlocal(psi, pert, (("A",), ("B",)))
            assert delta_mi <= 1e-9

    def test_rejects_label_collision(self):
        psi = PureState(qubits(("A", "B")), BELL)
        pert = NonLocalPerturbation(
            unitary=np.eye(4, dtype=complex),
            labels=("B",),
            env_factors=(FactorSpace("A", 2),),
            env_state=np.array([1.0, 0.0]),
        )
        with pytest.raises(ValueError, match="collide"):
            apply_nonlocal(psi, pert, (("A",), ("B",)))

    def test_rejects_straddling_system_factors(self):
        psi = haar_random_state(qubits(("A", "B")), seed=2)
        pert = NonLocalPerturbation(
            unitary=haar_random_unitary(8, seed=3),
            labels=("A", "B"),
            env_factors=(FactorSpace("E", 2),),
            env_state=np.array([1.0, 0.0]),
        )
        with pytest.raises(ValueError, match="one side"):
            apply_nonlocal(psi, pert, (("A",), ("B",)))

    def test_env_state_must_be_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            NonLocalPerturbation(
                unitary=np.eye(4, dtype=complex),
                labels=("B",),
                env_factors=(FactorSpace("E", 2),),
                env_state=np.array([1.0, 1.0]),
            )


def flat(m: int) -> SchmidtPairState:
    return SchmidtPairState.flat(m, symbolic=False)


class TestDephaseModes:
    def test_empty_set_changes_nothing(self):
        s = flat(4)
        _, mi = dephase_modes(s, ())
        assert abs(mi - mutual_information_schmidt(s)) < 1e-12

    def test_frozen_flat_four_single_mode(self):
        # joint spectrum {1/4, 3/4}: MI = 2 log 4 - H(1/4, 3/4)
        _, mi = dephase_modes(flat(4), {1})
        assert abs(mi - 2.210253577620973) < 1e-12

    def test_full_dephasing_leaves_classical_correlation(self):
        # all branches recorded: joint entropy equals marginal entropy
        _, mi = dephase_modes(flat(2), {1, 2})
        assert abs(mi - LOG2) < 1e-12

    def test_matches_three_party_oracle(self):
        rng = np.random.default_rng(21)
        for m in (2, 3, 5, 8):
            w = random_weights(rng, m)
            s = SchmidtPairState.from_weights(w)
            for modes in (set(), {1}, {m}, set(range(1, m // 2 + 1)), set(range(1, m + 1))):
                _, mi = dephase_modes(s, modes)
                assert abs(mi - dephase_oracle(w, modes)) < 1e-10, (m, modes)

    def test_growing_mode_sets_never_raise_mi(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            m = int(rng.integers(3, 12))
            s = SchmidtPairState.from_weights(random_weights(rng, m))
            perm = [int(x) for x in rng.permutation(m) + 1]
            small = set(perm[: m // 3])
            big = small | set(perm[m // 3 : 2 * m // 3])
            _, mi_small = dephase_modes(s, small)
            _, mi_big = dephase_modes(s, big)
            assert mi_big <= mi_small + 1e-12

    def test_rejects_out_of_range_modes(self):
        with pytest.raises(ValueError, match="outside"):
            dephase_modes(flat(4), {5})

    def test_symbolic_state_rejected(self):
        with pytest.raises(ExplicitWeightsRequired):
            dephase_modes(SchmidtPairState.flat(10**29), {1})


class TestLocalizeModes:
    def test_frozen_flat_four_half(self):
        _, mi = localize_modes(flat(4), {1, 2})
        assert abs(mi - 2 * LOG2) < 1e-12

    def test_full_localization_kills_mi(self):
        rng = np.random.default_rng(8)
        for m in (2, 4, 7):
            s = SchmidtPairState.from_weights(random_weights(rng, m))
            _, mi = localize_modes(s, range(1, m + 1))
            assert abs(mi) < 1e-12

    def test_matches_mixture_oracle(self):
        rng = np.random.default_rng(55)
        for m in (2, 3, 5, 8):
            w = random_weights(rng, m)
            s = SchmidtPairState.from_weights(w)
            for modes in (set(), {1}, set(range(1, m // 2 + 1)), set(range(1, m + 1))):
                _, mi = localize_modes(s, modes)
                assert abs(mi - localize_oracle(w, modes)) < 1e-10, (m, modes)

    def test_harsher_than_dephasing(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            s = SchmidtPairState.from_weights(random_weights(rng, m))
            k = int(rng.integers(1, m + 1))
            modes = set(int(x) for x in rng.choice(m, size=k, replace=False) + 1)
            _, mi_deph = dephase_modes(s, modes)
            _, mi_loc = localize_modes(s, modes)
            assert mi_loc <= mi_deph + 1e-12

    def test_marginals_untouched(self):
        # both marginals of the dense decohered state are diag(p), so the
        # closed form's 2 H(p) holds for any localized set
        w = random_weights(np.random.default_rng(4), 6)
        s = SchmidtPairState.from_weights(w)
        _, mi = localize_modes(s, {2, 3})
        t = mixed_channel_rho(w, (), {2, 3}).reshape(6, 6, 6, 6)
        p = s.probabilities()
        np.testing.assert_allclose(np.einsum("ibjb->ij", t), np.diag(p), atol=1e-15)
        np.testing.assert_allclose(np.einsum("aiaj->ij", t), np.diag(p[::-1]), atol=1e-15)
        assert abs(mi - mixed_channel_oracle(w, (), {2, 3})) < 1e-10


class TestBranchMixture:
    def test_rejects_overlapping_sets(self):
        with pytest.raises(ValueError, match="both"):
            BranchMixture(source=flat(4), dephased=frozenset({1}), localized=frozenset({1}))

    def test_joint_spectrum_is_a_distribution(self):
        w = random_weights(np.random.default_rng(12), 7)
        s = SchmidtPairState.from_weights(w)
        mix = BranchMixture(source=s, dephased=frozenset({1, 3}), localized=frozenset({5, 6}))
        lam = np.linalg.eigvalsh(mixed_channel_rho(w, {1, 3}, {5, 6}))
        assert abs(lam.sum() - 1.0) < 1e-12
        assert lam.min() >= -1e-12
        lam = lam[lam > 1e-12]
        p = s.probabilities()
        s_joint = float(-(lam * np.log(lam)).sum())
        assert abs(mix.mutual_info() - (2.0 * float(-(p * np.log(p)).sum()) - s_joint)) < 1e-10

    def test_mixed_channels_match_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(30):
            m = int(rng.integers(4, 10))
            w = random_weights(rng, m)
            s = SchmidtPairState.from_weights(w)
            perm = [int(x) for x in rng.permutation(m) + 1]
            deph = set(perm[: m // 3])
            loc = set(perm[m // 3 : 2 * m // 3])
            mix = BranchMixture(source=s, dephased=frozenset(deph), localized=frozenset(loc))
            assert abs(mix.mutual_info() - mixed_channel_oracle(w, deph, loc)) < 1e-10

    def test_base_conversion(self):
        mix, mi = dephase_modes(flat(2), {1, 2})
        assert abs(mix.mutual_info(base=2) - mi / LOG2) < 1e-12


class TestModeSets:
    """Every mode set is held as one sorted, repeat-free, read-only int64 array."""

    BUILDERS = {
        "ScheduleStep": lambda modes: ScheduleStep(modes, "dephase"),
        "BranchMixture.dephased": lambda modes: BranchMixture(flat(4), modes, ()),
        "BranchMixture.localized": lambda modes: BranchMixture(flat(4), (), modes),
        "dephase_modes": lambda modes: dephase_modes(flat(4), modes),
        "localize_modes": lambda modes: localize_modes(flat(4), modes),
    }

    @pytest.mark.parametrize("bad", [2.5, "3"])
    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_non_integer_modes_rejected(self, builder, bad):
        with pytest.raises(ValueError, match=f"^mode {bad!r} not an integer$"):
            self.BUILDERS[builder]([1, bad])

    @pytest.mark.parametrize("modes", [[3, 1, 3, 2], (3, 2, 1), {2, 3, 1}, range(1, 4),
                                       np.array([[3, 1], [2, 1]], dtype=np.int32)])
    def test_one_format(self, modes):
        for got in (ScheduleStep(modes, "localize").modes,
                    BranchMixture(flat(4), modes, ()).dephased,
                    BranchMixture(flat(4), (), modes).localized):
            assert got.dtype == np.int64
            assert got.tolist() == [1, 2, 3]
            assert not got.flags.writeable

    def test_caller_array_left_alone(self):
        modes = np.array([3, 1, 2])
        ScheduleStep(modes, "dephase")
        assert modes.tolist() == [3, 1, 2] and modes.flags.writeable

    def test_mode_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match=f"mode {2**63} outside"):
            ScheduleStep([1, 2**63], "dephase")

    @pytest.mark.parametrize("channel,seed", [("dephase", 24), ("dephase", 43),
                                              ("localize", 27), ("localize", 53)])
    def test_mode_order_cannot_move_bits(self, channel, seed):
        # 1, 9, 17 and 25 collide in a hash table of 8 slots, so a frozenset
        # of them iterated in insertion order and summed the block differently
        s = SchmidtPairState.from_weights(random_weights(np.random.default_rng(seed), 32))
        apply = dephase_modes if channel == "dephase" else localize_modes
        modes = [1, 9, 17, 25]
        assert apply(s, modes)[1] == apply(s, modes[::-1])[1]
        sweeps = [decoherence_sweep(s, DecoherenceSchedule((ScheduleStep(m, channel),)),
                                    spin_mi=0.0, wf=neg_log_weight())
                  for m in (modes, modes[::-1])]
        assert sweeps[0] == sweeps[1]


class TestSchedule:
    def test_step_rejects_empty_modes(self):
        with pytest.raises(ValueError, match="at least one"):
            ScheduleStep(modes=frozenset(), channel="dephase")

    def test_step_rejects_unknown_channel(self):
        with pytest.raises(ValueError, match="channel"):
            ScheduleStep(modes=frozenset({1}), channel="erase")

    def test_schedule_rejects_overlapping_steps(self):
        steps = (
            ScheduleStep(frozenset({1, 2}), "dephase"),
            ScheduleStep(frozenset({2, 3}), "dephase"),
        )
        with pytest.raises(ValueError, match="more than one step"):
            DecoherenceSchedule(steps)

    def test_ir_first_chunks(self):
        sched = DecoherenceSchedule.ir_first(10, 4, "localize")
        sizes = [len(step.modes) for step in sched.steps]
        assert sizes == [3, 3, 2, 2]
        assert 1 in sched.steps[0].modes  # lowest (IR) indices go first
        assert np.concatenate([step.modes for step in sched.steps]).tolist() == list(range(1, 11))

    @pytest.mark.parametrize("num_modes,num_steps", [(10, 4), (777, 777), (1000, 7), (65536, 64)])
    def test_ir_first_steps_are_sorted_and_cover_every_mode(self, num_modes, num_steps):
        sched = DecoherenceSchedule.ir_first(num_modes, num_steps, "dephase")
        for step in sched.steps:
            assert step.modes.dtype == np.int64
            assert np.all(np.diff(step.modes) == 1)
        joined = np.concatenate([step.modes for step in sched.steps])
        np.testing.assert_array_equal(joined, np.arange(1, num_modes + 1))

    def test_ir_first_rejects_too_many_steps(self):
        with pytest.raises(ValueError, match="cannot split"):
            DecoherenceSchedule.ir_first(3, 5, "dephase")

    def test_zero_steps(self):
        assert DecoherenceSchedule.ir_first(8, 0, "dephase").steps == ()


class TestDecoherenceSweep:
    def test_baseline_point_sits_at_distance_zero(self):
        points = decoherence_sweep(
            flat(8), DecoherenceSchedule.ir_first(8, 0, "localize"),
            spin_mi=2 * LOG2, wf=neg_log_weight(),
        )
        assert len(points) == 1
        assert points[0].step == 0
        assert points[0].distance == 0.0

    def test_localize_walk_is_monotone(self):
        points = decoherence_sweep(
            flat(64), DecoherenceSchedule.ir_first(64, 8, "localize"),
            spin_mi=2 * LOG2, wf=neg_log_weight(),
        )
        assert len(points) == 9
        for prev, cur in zip(points, points[1:]):
            assert cur.momentum_mi <= prev.momentum_mi + 1e-12
            assert cur.distance >= prev.distance - 1e-12
        assert abs(points[-1].momentum_mi) < 1e-9
        for pt in points:
            assert abs(pt.total_mi - pt.momentum_mi - 2 * LOG2) < 1e-12

    def test_dephase_walk_ends_at_classical_value(self):
        m = 16
        points = decoherence_sweep(
            flat(m), DecoherenceSchedule.ir_first(m, 4, "dephase"),
            spin_mi=0.0, wf=neg_log_weight(),
        )
        # fully dephased flat state keeps its classical correlations
        assert abs(points[-1].momentum_mi - math.log(m)) < 1e-9

    def test_two_mode_spin_analog_localize_all(self):
        # a flat 2-mode sector alongside a Bell-valued spin sector: killing
        # the swept sector leaves exactly the spin MI, at finite distance
        spin = 2 * LOG2
        points = decoherence_sweep(
            flat(2), DecoherenceSchedule.ir_first(2, 1, "localize"),
            spin_mi=spin, wf=neg_log_weight(),
        )
        final = points[-1]
        assert abs(final.total_mi - spin) < 1e-9
        assert math.isfinite(final.distance)
        assert abs(final.distance - math.log(2.0)) < 1e-9  # -log(spin / (2 spin))

    def test_mixed_schedule_tracks_oracle(self):
        w = random_weights(np.random.default_rng(101), 8)
        s = SchmidtPairState.from_weights(w)
        sched = DecoherenceSchedule((
            ScheduleStep(frozenset({1, 2}), "dephase"),
            ScheduleStep(frozenset({3, 4}), "localize"),
            ScheduleStep(frozenset({5}), "dephase"),
        ))
        points = decoherence_sweep(s, sched, spin_mi=0.0, wf=neg_log_weight())
        expected = [
            mixed_channel_oracle(w, set(), set()),
            mixed_channel_oracle(w, {1, 2}, set()),
            mixed_channel_oracle(w, {1, 2}, {3, 4}),
            mixed_channel_oracle(w, {1, 2, 5}, {3, 4}),
        ]
        for pt, ref in zip(points, expected):
            assert abs(pt.momentum_mi - ref) < 1e-10

    def test_rejects_negative_spin_mi(self):
        with pytest.raises(ValueError, match="nonnegative"):
            decoherence_sweep(flat(4), DecoherenceSchedule.ir_first(4, 2, "dephase"),
                              spin_mi=-0.1, wf=neg_log_weight())

    def test_rejects_schedule_beyond_mode_range(self):
        sched = DecoherenceSchedule((ScheduleStep(frozenset({9}), "dephase"),))
        with pytest.raises(ValueError, match="outside"):
            decoherence_sweep(flat(4), sched, spin_mi=0.0, wf=neg_log_weight())

    def test_rejects_symbolic_state(self):
        sched = DecoherenceSchedule.ir_first(4, 2, "dephase")
        with pytest.raises(ExplicitWeightsRequired):
            decoherence_sweep(SchmidtPairState.flat(10**29), sched,
                              spin_mi=0.0, wf=neg_log_weight())

    @given(seed=st.integers(0, 3_000))
    @settings(max_examples=25)
    def test_total_mi_never_increases_along_any_schedule(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 10))
        s = SchmidtPairState.from_weights(random_weights(rng, m))
        order = [int(x) for x in rng.permutation(m) + 1]
        cut_a, cut_b = sorted((int(rng.integers(1, m)), int(rng.integers(1, m))))
        chunks = [order[:cut_a], order[cut_a:cut_b], order[cut_b:]]
        steps = tuple(
            ScheduleStep(frozenset(chunk), "dephase" if i % 2 == 0 else "localize")
            for i, chunk in enumerate(chunks) if chunk
        )
        points = decoherence_sweep(s, DecoherenceSchedule(steps),
                                   spin_mi=LOG2, wf=neg_log_weight())
        for prev, cur in zip(points, points[1:]):
            assert cur.total_mi <= prev.total_mi + 1e-10

    @pytest.mark.parametrize("bad_mode", [0, 5, 2**63])
    def test_rejects_schedule_outside_mode_range(self, bad_mode):
        # 2**63 has no int64 mode array, so ScheduleStep already raises
        with pytest.raises(ValueError, match="outside"):
            sched = DecoherenceSchedule((
                ScheduleStep(frozenset({1, 2}), "dephase"),
                ScheduleStep(frozenset({3, bad_mode}), "localize"),
            ))
            decoherence_sweep(flat(4), sched, spin_mi=0.0, wf=neg_log_weight())

    def test_builds_no_branch_mixture(self, monkeypatch):
        # the sweep sums blocks in one pass; a per-step rebuild must not return
        def refuse(self):
            raise AssertionError("decoherence_sweep built a BranchMixture")

        monkeypatch.setattr(BranchMixture, "__post_init__", refuse)
        points = decoherence_sweep(
            flat(64), DecoherenceSchedule.ir_first(64, 8, "localize"),
            spin_mi=2 * LOG2, wf=neg_log_weight(),
        )
        assert len(points) == 9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_every_point_matches_branch_mixture(self, seed):
        # random weights with exact zeros, mixed channels, scattered modes
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 25))
        w = random_weights(rng, m)
        w[rng.random(m) < 0.25] = 0.0
        if not w.any():
            w[int(rng.integers(m))] = 1.0
        s = SchmidtPairState.from_weights(w / np.linalg.norm(w))
        order = [int(x) for x in rng.permutation(m)[: int(rng.integers(1, m + 1))] + 1]
        cuts = sorted(int(c) for c in rng.integers(0, len(order) + 1, size=3))
        chunks = [c for c in np.split(np.array(order), cuts) if c.size]
        steps = tuple(ScheduleStep(frozenset(c.tolist()), str(rng.choice(["dephase", "localize"])))
                      for c in chunks)
        points = decoherence_sweep(s, DecoherenceSchedule(steps), spin_mi=LOG2,
                                   wf=neg_log_weight())
        assert len(points) == len(steps) + 1
        dephased: set[int] = set()
        localized: set[int] = set()
        for k, pt in enumerate(points):
            if k:
                step = steps[k - 1]
                (dephased if step.channel == "dephase" else localized).update(step.modes)
            ref = BranchMixture(s, frozenset(dephased), frozenset(localized)).mutual_info()
            assert abs(pt.momentum_mi - ref) < 1e-10
            assert abs(pt.total_mi - pt.momentum_mi - LOG2) < 1e-12


def tiny_tail_state() -> SchmidtPairState:
    """2001 modes: p = 5e-13 on modes 2..2001, the rest of the mass on mode 1."""
    p = np.full(2001, 5e-13)
    p[0] = 1.0 - p[1:].sum()
    return SchmidtPairState.from_weights(np.sqrt(p))


class TestTinyProbabilities:
    """Exact probabilities below the eigenvalue clamp still carry entropy."""

    def test_tail_counts_in_the_baseline(self):
        s = tiny_tail_state()
        p = s.probabilities()
        exact = -2.0 * math.fsum((p * np.log(p)).tolist())
        assert abs(mutual_information_schmidt(s) - exact) <= 1e-12 * exact

    def test_decoherence_never_raises_mi(self):
        s = tiny_tail_state()
        base = mutual_information_schmidt(s)
        _, deph = dephase_modes(s, [2001])
        _, loc = localize_modes(s, [2001])
        assert deph <= base
        assert loc <= deph
        points = decoherence_sweep(
            s, DecoherenceSchedule((ScheduleStep(frozenset({2001}), "dephase"),)),
            spin_mi=0.0, wf=neg_log_weight(),
        )
        assert abs(points[1].momentum_mi - deph) <= 1e-12 * deph
        assert points[1].distance >= 0.0

    def test_tiny_retained_mass_keeps_its_digits(self):
        # localizing the dominant mode leaves a retained mass of 1e-18,
        # which 1 - (hit mass) would round to zero
        s = SchmidtPairState.from_weights([1.0, 1e-9])
        points = decoherence_sweep(
            s, DecoherenceSchedule((ScheduleStep(frozenset({1}), "localize"),)),
            spin_mi=0.0, wf=neg_log_weight(),
        )
        ref = BranchMixture(s, frozenset(), frozenset({1})).mutual_info()
        assert abs(points[1].momentum_mi - ref) <= 1e-12 * ref
        assert abs(points[1].distance - LOG2) < 1e-9

    def test_round_off_cannot_raise_mi(self):
        # |w| = 1 + 5e-11 passes the normalization check; p = 1 + 1e-10 then
        # gives a joint entropy of -1e-10, which must not lift MI above I_0
        s = SchmidtPairState.from_weights([1.0 + 5e-11, 0.0])
        points = decoherence_sweep(
            s, DecoherenceSchedule((ScheduleStep(frozenset({1}), "dephase"),)),
            spin_mi=1.0, wf=neg_log_weight(),
        )
        assert points[1].total_mi <= points[0].total_mi

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_heavy_tailed_weights_keep_the_ordering(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 40))
        p = 10.0 ** -rng.uniform(0.0, 16.0, m)
        p[rng.random(m) < 0.1] = 0.0
        p[0] = 1.0
        s = SchmidtPairState.from_weights(np.sqrt(p / p.sum()))
        modes = [int(n) for n in rng.permutation(m)[: int(rng.integers(1, m + 1))] + 1]
        base = mutual_information_schmidt(s)
        _, deph = dephase_modes(s, modes)
        _, loc = localize_modes(s, modes)
        assert deph <= base + 1e-12
        assert loc <= deph + 1e-12
        half = len(modes) // 2
        steps = tuple(ScheduleStep(frozenset(chunk), channel) for chunk, channel in
                      ((modes[:half], "localize"), (modes[half:], "dephase")) if chunk)
        for spin_mi in (0.0, LOG2):
            if spin_mi + base > 0.0:
                decoherence_sweep(s, DecoherenceSchedule(steps), spin_mi=spin_mi,
                                  wf=neg_log_weight())


def decimal_terms(p):
    """Each float probability as an exact Decimal, and -p ln p at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        dp = [Decimal(float(x)) for x in p]
        return dp, [-x * x.ln() if x > 0 else Decimal(0) for x in dp]


def decimal_branch_mis(terms, blocks):
    """MI before and after each (modes, channel) block, at 50 digits.

    Exact for the float probabilities of decimal_terms as given, from
    running block sums in the textbook form I_0 - S_joint with
    S_joint = H(R) + h_D + 2 h_L - H(L): the cancellation the library
    avoids costs nothing at 50 digits.
    """
    dp, dh = terms
    with localcontext() as ctx:
        ctx.prec = 50

        def neg_xlogx(x):
            return -x * x.ln() if x > 0 else Decimal(0)

        i0 = 2 * sum(dh)
        retained = sum(dp)
        h_deph = loc = h_loc = Decimal(0)
        out = [i0 - neg_xlogx(retained)]
        for modes, channel in blocks:
            mass = sum(dp[n - 1] for n in modes)
            retained -= mass
            if channel == "dephase":
                h_deph += sum(dh[n - 1] for n in modes)
            else:
                loc += mass
                h_loc += sum(dh[n - 1] for n in modes)
            out.append(i0 - (neg_xlogx(retained) + h_deph + 2 * h_loc - neg_xlogx(loc)))
        return [float(x) for x in out]


def worst_relative_error(got, ref):
    """Largest |got - ref| / ref over the entries whose ref is >= 1e-12."""
    return max(abs(g - r) / r for g, r in zip(got, ref) if r >= 1e-12)


class TestDecimalReference:
    """Steep spectra p_n ~ n^-k on 4096 modes: late in a localize sweep
    MI << 2 H(p), where I_0 - S_joint in floats kept only 1e-4 of its
    digits (k = 6)."""

    @pytest.fixture(scope="class", params=[3, 6])
    def steep(self, request):
        q = np.arange(1, 4097, dtype=float) ** -float(request.param)
        s = SchmidtPairState.from_weights(np.sqrt(q / q.sum()))
        return request.param, s, decimal_terms(s.probabilities())

    @pytest.mark.parametrize("channel", ["localize", "dephase"])
    def test_sweep_keeps_its_digits(self, steep, channel):
        _, s, terms = steep
        sched = DecoherenceSchedule.ir_first(4096, 64, channel)
        ref = decimal_branch_mis(terms, [(step.modes, step.channel) for step in sched.steps])
        points = decoherence_sweep(s, sched, spin_mi=0.0, wf=neg_log_weight())
        assert worst_relative_error([pt.momentum_mi for pt in points], ref) <= 1e-9

    def test_branch_mixture_keeps_its_digits(self, steep):
        k, s, terms = steep
        perm = [int(n) for n in np.random.default_rng(k).permutation(4096) + 1]
        mode_sets = [
            (range(1, 1001), range(1001, 4001)),
            (range(4001, 4097), range(1, 4001)),
            (range(4090, 4097), range(1, 4090)),
            (range(1, 4096), range(4096, 4097)),
            (perm[:100], perm[100:4000]),
            (perm[:2000], perm[2000:4090]),
            (perm[:5], perm[5:]),
        ]
        got, ref = [], []
        for deph, loc in mode_sets:
            deph, loc = frozenset(deph), frozenset(loc)
            got.append(BranchMixture(s, deph, loc).mutual_info())
            ref.append(decimal_branch_mis(terms, [(deph, "dephase"), (loc, "localize")])[-1])
        assert sum(r >= 1e-12 for r in ref) >= 5
        assert worst_relative_error(got, ref) <= 1e-9
