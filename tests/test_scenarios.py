import math

import numpy as np
import pytest

import entgeo.hilbert
from entgeo.hilbert import (
    ExplicitWeightsRequired,
    SchmidtPairState,
    partial_trace,
    qubits,
    schmidt_to_dense,
    tensor,
)
from entgeo.infotheory import (
    mutual_information,
    pure_state_mutual_information,
    von_neumann_entropy,
)
from entgeo.scenarios import (
    HBAR,
    PhysicalScales,
    SectorState,
    bell_state,
    bell_with_environment,
    classical_mixture_state,
    momentum_sector_state,
    physical_scales,
    qudit_bell,
    spin_momentum_state,
)

LOG2 = math.log(2.0)
ELECTRON_MASS = 9.109e-31
MM = 1e-3


class TestReferenceStates:
    def test_bell_amplitudes_and_mi(self):
        psi = bell_state()
        np.testing.assert_allclose(
            psi.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15
        )
        from entgeo.hilbert import density_of

        assert abs(mutual_information(density_of(psi), (("A",), ("B",))) - 2 * LOG2) < 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_qudit_bell_mi(self, n):
        psi = qudit_bell(n)
        from entgeo.hilbert import density_of

        mi = mutual_information(density_of(psi), (("A",), ("B",)))
        assert abs(mi - 2 * math.log(n)) < 1e-9

    def test_qudit_bell_rejects_dimension_one(self):
        with pytest.raises(ValueError, match=">= 2"):
            qudit_bell(1)

    def test_environment_records_the_branch(self):
        psi = bell_with_environment()
        from entgeo.hilbert import density_of

        rho_ab = partial_trace(density_of(psi), ("A", "B"))
        assert abs(mutual_information(rho_ab, (("A",), ("B",))) - LOG2) < 1e-10
        assert abs(von_neumann_entropy(rho_ab) - LOG2) < 1e-10

    def test_classical_mixture_values(self):
        rho = classical_mixture_state()
        assert abs(mutual_information(rho, (("A",), ("B",))) - LOG2) < 1e-10
        assert abs(von_neumann_entropy(rho) - LOG2) < 1e-10
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        assert abs(purity - 0.5) < 1e-12

    def test_mixture_matches_dephased_bell(self):
        # fully branch-dephased 2-mode flat sector carries the same MI
        from entgeo.channels import dephase_modes

        _, mi = dephase_modes(SchmidtPairState.flat(2, symbolic=False), {1, 2})
        rho = classical_mixture_state()
        assert abs(mutual_information(rho, (("A",), ("B",))) - mi) < 1e-12


def dense_total_mutual_info(state: SectorState) -> float:
    """I(Alice : Bob) of a pure-spin sector state through the dense pipeline:
    both spin factors, then both momentum factors."""
    psi = tensor(state.spin, schmidt_to_dense(state.momentum, labels=("Ap", "Bp")))
    a, b = state.spin.labels
    return pure_state_mutual_information(psi, ((a, "Ap"), (b, "Bp")))


class TestSectorState:
    def test_sector_additivity(self):
        state = spin_momentum_state(bell_state(), SchmidtPairState.flat(4, symbolic=False))
        assert abs(state.spin_mutual_info() - 2 * LOG2) < 1e-12
        assert abs(state.momentum_mutual_info() - 2 * math.log(4)) < 1e-12
        assert abs(state.total_mutual_info() - (2 * LOG2 + 2 * math.log(4))) < 1e-12

    def test_dense_cross_check(self):
        state = spin_momentum_state(bell_state(), SchmidtPairState.flat(4, symbolic=False))
        assert abs(dense_total_mutual_info(state) - state.total_mutual_info()) < 1e-10

    def test_dense_cross_check_nonuniform(self):
        w = np.sqrt([0.5, 0.3, 0.2])
        state = spin_momentum_state(bell_state(), SchmidtPairState.from_weights(w))
        assert abs(dense_total_mutual_info(state) - state.total_mutual_info()) < 1e-10

    def test_product_spin_contributes_nothing(self):
        from entgeo.hilbert import PureState

        product = PureState(qubits(("A", "B")), np.array([1, 0, 0, 0], dtype=complex))
        state = spin_momentum_state(product, SchmidtPairState.flat(8, symbolic=False))
        assert state.spin_mutual_info() < 1e-12
        assert abs(state.total_mutual_info() - state.momentum_mutual_info()) < 1e-12

    def test_mixed_spin_sector(self):
        state = spin_momentum_state(
            classical_mixture_state(), SchmidtPairState.flat(4, symbolic=False)
        )
        assert abs(state.spin_mutual_info() - LOG2) < 1e-10
        assert abs(state.total_mutual_info() - (LOG2 + 2 * math.log(4))) < 1e-10

    def test_symbolic_momentum_total_still_works(self):
        state = spin_momentum_state(bell_state(), SchmidtPairState.flat(10**29))
        expected = 2 * LOG2 + 2 * math.log(10**29)
        assert abs(state.total_mutual_info() - expected) < 1e-9

    def test_rejects_label_collision(self):
        with pytest.raises(ValueError, match="collide"):
            SectorState(
                spin=bell_state(("Ap", "B")),
                momentum=SchmidtPairState.flat(2, symbolic=False),
            )

    def test_rejects_non_bipartite_spin(self):
        with pytest.raises(ValueError, match="exactly 2"):
            spin_momentum_state(
                bell_with_environment(), SchmidtPairState.flat(2, symbolic=False)
            )

    def test_base_conversion(self):
        state = spin_momentum_state(bell_state(), SchmidtPairState.flat(4, symbolic=False))
        assert abs(state.total_mutual_info(base=2) - 6.0) < 1e-12


class TestMomentumSectorState:
    def test_small_flat_sector_is_materialized(self):
        s = momentum_sector_state(num_modes=8)
        assert not s.is_symbolic
        np.testing.assert_allclose(s.probabilities(), np.full(8, 1 / 8), atol=1e-15)

    def test_huge_flat_sector_stays_symbolic(self):
        s = momentum_sector_state(num_modes=10**29)
        assert s.is_symbolic
        assert s.num_modes == 10**29

    def test_materialize_limit_is_configurable(self, monkeypatch):
        # one limit, read at call time: the sector stays symbolic exactly
        # where materializing refuses
        monkeypatch.setattr(entgeo.hilbert, "MAX_EXPLICIT_MODES", 8)
        assert not momentum_sector_state(num_modes=8).is_symbolic
        assert momentum_sector_state(num_modes=9).is_symbolic
        with pytest.raises(ExplicitWeightsRequired):
            SchmidtPairState.flat(9, symbolic=False)

    def test_scales_input(self):
        scales = physical_scales(l_app=MM, mass=ELECTRON_MASS)
        s = momentum_sector_state(scales=scales)
        assert s.is_symbolic
        assert s.num_modes == scales.mode_count

    def test_rejects_both_count_and_scales(self):
        scales = physical_scales(l_app=MM, mass=ELECTRON_MASS)
        with pytest.raises(ValueError, match="not both"):
            momentum_sector_state(num_modes=4, scales=scales)

    def test_rejects_no_input(self):
        with pytest.raises(ValueError, match="need"):
            momentum_sector_state()

    def test_rejects_fractional_mode_count(self):
        with pytest.raises(ValueError, match="integer"):
            momentum_sector_state(num_modes=2.5)


class TestPhysicalScales:
    def test_millimeter_apparatus_mode_count(self):
        scales = physical_scales(l_app=MM, mass=ELECTRON_MASS)
        ratio = scales.n_modes / 1e29
        assert 0.1 < ratio < 10.0

    def test_electron_compton_ceiling(self):
        scales = physical_scales(l_app=MM, mass=ELECTRON_MASS)
        ratio = scales.compton_ceiling / 1e38
        assert 0.1 < ratio < 10.0

    def test_ir_product_reproduces_hbar(self):
        scales = physical_scales(l_app=MM, mass=ELECTRON_MASS)
        assert abs(scales.p_ir * scales.l_ir - HBAR) < 1e-12 * HBAR

    def test_compton_cap(self):
        scales = physical_scales(l_app=MM, mass=ELECTRON_MASS, momentum_cap="compton")
        assert scales.p_cap == ELECTRON_MASS * scales.c
        # for an electron the Compton cap sits far above the 1 mm cap
        apparatus = physical_scales(l_app=MM, mass=ELECTRON_MASS)
        assert scales.n_modes > apparatus.n_modes

    def test_apparatus_coarser_than_ir_floor_rejected(self):
        # an "apparatus" blunter than the IR floor leaves no modes at all
        with pytest.raises(ValueError, match="below the IR floor"):
            physical_scales(l_app=1e27, mass=ELECTRON_MASS)

    @pytest.mark.parametrize("field", ["l_app", "mass", "lambda_cc"])
    def test_rejects_nonpositive_inputs(self, field):
        kwargs = dict(l_app=MM, mass=ELECTRON_MASS)
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match="positive"):
            physical_scales(**kwargs)

    def test_rejects_unknown_cap(self):
        with pytest.raises(ValueError, match="momentum_cap"):
            physical_scales(l_app=MM, mass=ELECTRON_MASS, momentum_cap="planck")

    def test_mode_count_floors_at_one(self):
        scales = PhysicalScales(
            l_app=1.0, lambda_cc=1.0, mass=1.0, hbar=1.0, c=1.0,
            momentum_cap="apparatus", p_cap=1.0, p_ir=1.0, l_ir=1.0,
            n_modes=0.3, compton_ceiling=1.0,
        )
        assert scales.mode_count == 1

    def test_mode_count_is_floor_of_n_modes(self):
        scales = physical_scales(l_app=MM, mass=ELECTRON_MASS)
        assert scales.mode_count == int(scales.n_modes)
