"""The stacked property battery against its trial-by-trial reference loops.

The property-suite batteries and check_mi_properties draw every trial's
inputs in the generator order of a trial-by-trial loop and evaluate them
as stacks; battery_oracle holds those loops. Worst values must match with
==, also when the stacks are split into many blocks. A tripped invariant
must surface as it does in the loops, and a NaN violation as inf.
"""

import math

import numpy as np
import pytest

import battery_oracle
import entgeo.channels
from battery_oracle import ORACLES, mi_property_worsts
from entgeo import _battery, cli, hilbert
from entgeo.channels import haar_random_state
from entgeo.geometry import NoCorrelationsError
from entgeo.hilbert import (
    DensityMatrix,
    FactorSpace,
    TensorProductStructure,
    density_of,
    reduced_density,
)
from entgeo.infotheory import check_mi_properties

BATTERY = {name: check for name, check, _ in _battery.BATTERY}


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_stacked_battery_matches_trial_loop(name, seed):
    for trials in (1, 2, 3, 37) + ((100,) if seed == 3 else ()):
        assert BATTERY[name](trials, seed) == ORACLES[name](trials, seed), trials


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_stacks_split_across_blocks(monkeypatch, name):
    expected = ORACLES[name](37, 7)
    # 1 to 6 trials per block, a few matrices per entropy stack
    monkeypatch.setattr(hilbert, "_BLOCK_ELEMS", 100)
    assert BATTERY[name](37, 7) == expected


def random_density(dims, seed, keep):
    labels = tuple(f"F{i}" for i in range(len(dims)))
    tps = TensorProductStructure(tuple(FactorSpace(lb, d) for lb, d in zip(labels, dims)))
    psi = haar_random_state(tps, seed)
    return reduced_density(psi, labels[:keep]) if keep < len(dims) else density_of(psi)


@pytest.mark.parametrize("dims, keep", [
    ((2, 2), 2), ((3, 4), 2), ((2, 3, 2), 3), ((3, 2, 2, 2), 3), ((2, 2, 2, 2, 2), 4),
    ((2, 3, 2, 2), 4),
])
def test_mi_properties_match_per_split_calls(dims, keep):
    rho = random_density(dims, seed=sum(dims), keep=keep)
    for trials, seed in ((1, 0), (9, 3), (40, 2**32 - 1)):
        checks = check_mi_properties(rho, trials=trials, seed=seed).checks
        got = (checks.positivity, checks.boundedness, checks.symmetry, checks.monotonicity)
        assert got == mi_property_worsts(rho, trials, seed)


@pytest.mark.parametrize("seed", range(3))
def test_mi_property_residues_match_on_product_states(seed):
    # on psi_AB x psi_CD many splits have I(A:B) = I(A:BC) exactly, so the
    # monotonicity worst is a round-off residue; it moves if one entropy is
    # shared between a marginal of rho and a marginal of a partial trace
    pairs = [random_density(dims, seed + k, keep=2).matrix for k, dims in enumerate(((2, 3), (2, 2)))]
    factors = tuple(FactorSpace(lb, d) for lb, d in zip("ABCD", (2, 3, 2, 2)))
    rho = DensityMatrix(factors, np.kron(*pairs))
    checks = check_mi_properties(rho, trials=30, seed=seed).checks
    got = (checks.positivity, checks.boundedness, checks.symmetry, checks.monotonicity)
    assert got == mi_property_worsts(rho, 30, seed)
    assert checks.monotonicity > 0.0  # a residue, not the clamp at zero


def suite_rows(capsys):
    code = cli.main(["run", "property-suite", "--trials", "20", "--seed", "3"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    return code, {row[0]: row for row in (ln.split(",") for ln in lines[1:])}


def test_tripped_invariant_fails_only_its_row(monkeypatch, capsys):
    real = entgeo.channels._density_mis

    def one_trial_gains(*args, **kwargs):
        mis = real(*args, **kwargs)
        mis[len(mis) // 2] += 1.0  # this trial's coupling now raises the MI
        return mis

    monkeypatch.setattr(entgeo.channels, "_density_mis", one_trial_gains)
    code, rows = suite_rows(capsys)
    assert code == cli.EXIT_VIOLATION
    assert rows.pop("nonlocal-monotone")[2:] == ["inf", "1.000000000e-09", "fail"]
    assert len(rows) == 8
    assert all(row[4] == "pass" for row in rows.values())


def test_tripped_metric_invariant_fails_only_its_row(monkeypatch, capsys):
    real = _battery._pair_mis
    tripped = []

    def third_trial_negative(amps, dims):
        mis = real(amps, dims)
        mis[2, 0] = -1.0  # the third trial's first pair MI now trips its sign check
        tripped.append(len(mis))
        return mis

    monkeypatch.setattr(_battery, "_pair_mis", third_trial_negative)
    code, rows = suite_rows(capsys)
    assert tripped == [4]  # all four metric-axioms trials in one stack
    assert code == cli.EXIT_VIOLATION
    assert rows.pop("metric-axioms")[2:] == ["inf", "1.000000000e-09", "fail"]
    assert len(rows) == 8
    assert all(row[4] == "pass" for row in rows.values())


def test_uncorrelated_trial_is_skipped_as_by_the_trial_loop(monkeypatch):
    real_mis, real_build = _battery._pair_mis, battery_oracle.build_info_graph
    calls = []

    def third_trial_uncorrelated(amps, dims):
        mis = real_mis(amps, dims)
        mis[2] = 0.0
        return mis

    def third_build_uncorrelated(psi):
        calls.append(psi)
        if len(calls) == 3:
            raise NoCorrelationsError("no pairwise mutual information")
        return real_build(psi)

    monkeypatch.setattr(_battery, "_pair_mis", third_trial_uncorrelated)
    monkeypatch.setattr(battery_oracle, "build_info_graph", third_build_uncorrelated)
    assert BATTERY["metric-axioms"](37, 3) == ORACLES["metric-axioms"](37, 3)
    assert len(calls) == 37


def test_nan_trial_makes_its_battery_worst_inf(monkeypatch):
    real = entgeo.channels._density_mis
    injected = []

    def nan_when_strong(*args, **kwargs):
        mis = [math.nan if mi > 0.5 else mi for mi in real(*args, **kwargs)]
        injected.extend(mi for mi in mis if math.isnan(mi))
        return mis

    monkeypatch.setattr(entgeo.channels, "_density_mis", nan_when_strong)
    assert BATTERY["nonlocal-monotone"](37, 3) == math.inf
    assert injected


def test_nan_violation_fails_only_its_row(monkeypatch, capsys):
    real = _battery._pure_mis

    def one_nan(*args, **kwargs):
        mis = real(*args, **kwargs)
        mis[len(mis) // 2] = math.nan  # this trial's dense MI, scored by the driver
        return mis

    monkeypatch.setattr(_battery, "_pure_mis", one_nan)
    code, rows = suite_rows(capsys)
    assert code == cli.EXIT_VIOLATION
    assert rows.pop("schmidt-vs-dense")[2:] == ["inf", "1.000000000e-09", "fail"]
    assert len(rows) == 8
    assert all(row[4] == "pass" for row in rows.values())


def test_nan_worst_fails_its_row(monkeypatch, capsys):
    battery = [(name, (lambda trials, seed: math.nan) if name == "schmidt-vs-dense" else check,
                scale) for name, check, scale in _battery.BATTERY]
    monkeypatch.setattr(_battery, "BATTERY", tuple(battery))
    code, rows = suite_rows(capsys)
    assert code == cli.EXIT_VIOLATION
    assert rows.pop("schmidt-vs-dense")[2:] == ["nan", "1.000000000e-09", "fail"]
    assert all(row[4] == "pass" for row in rows.values())
