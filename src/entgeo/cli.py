"""Command line front end.

    entgeo run <scenario> [--config PATH] [--seed U64] [--out PATH]
                          [--format csv|json] [--<param> <value> ...]

Exit codes: 0 success, 2 configuration or usage error, 3 property
violation reported by the property-suite scenario, 4 output I/O failure.

Runs are deterministic: identical configuration and seed give
byte-identical output, so no timestamps or host details appear anywhere.
Numeric cells use 9 decimal places; scale-magnitude cells (where fixed
point is useless) use scientific notation with 9 digits. The effective
configuration is embedded in every output, as "# key = value" comment
lines in CSV and a "config" object in JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__, hilbert
from .channels import (
    DecoherenceSchedule,
    _apply_locals,
    _apply_nonlocals,
    _branch_mis,
    _haar_amplitudes,
    _haar_unitaries,
    _random_schmidt,
    decoherence_sweep,
    haar_random_state,
)
from .geometry import (
    NoCorrelationsError,
    _distance_matrices,
    _info_graph,
    _metric_worsts,
    _pair_mis,
    _weight_matrix,
    build_info_graph,
    edge_records,
    edge_weight,
    neg_log_weight,
)
from .hilbert import (
    ExplicitWeightsRequired,
    FactorSpace,
    PureState,
    TensorProductStructure,
    _blocks,
    _cap_error,
    _reduced_stack,
    density_of,
    partial_trace,
    qubits,
    reduced_density,
    schmidt_to_dense,
)
from .infotheory import (
    _correlation_bounds,
    _pure_entropies,
    _pure_mis,
    check_mi_properties,
    mutual_information,
    mutual_information_schmidt,
    pure_state_mutual_information,
    von_neumann_entropy,
)
from .scenarios import (
    bell_state,
    bell_with_environment,
    momentum_sector_state,
    physical_scales,
    qudit_bell,
    spin_momentum_state,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Bad configuration: unusable parameter values or combinations."""


@dataclass(frozen=True)
class ParamSpec:
    name: str
    type: Callable[[str], Any]
    default: Any
    help: str
    choices: tuple[str, ...] | None = None


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"must be a positive finite number, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"must be a nonnegative finite number, got {value}")
    return value


_COMMON = (
    ParamSpec("l_rc", _positive_float, 1.0, "length scale multiplying edge weights"),
    ParamSpec("log_base", _positive_float, None, "entropy log base (default: natural log)"),
)

SCENARIO_PARAMS: dict[str, tuple[ParamSpec, ...]] = {
    "vanilla-bell": _COMMON,
    "bell-env": _COMMON,
    "qudit-bell": _COMMON + (
        ParamSpec("n", _positive_int, 3, "local dimension of each party"),
    ),
    "spin-momentum": (
        ParamSpec("log_base", _positive_float, None, "entropy log base"),
        ParamSpec("n_modes", _positive_int, None, "momentum mode count (overrides scales)"),
        ParamSpec("l_app", _positive_float, None, "apparatus resolution scale in meters"),
        ParamSpec("mass", _positive_float, None, "particle mass in kg"),
        ParamSpec("lambda_cc", _positive_float, 1e-52, "IR curvature scale per m^2"),
        ParamSpec("momentum_cap", str, "apparatus", "UV-side momentum cap rule",
                  choices=("apparatus", "compton")),
        ParamSpec("distribution", str, "flat", "momentum weight distribution",
                  choices=("flat",)),
    ),
    "momentum-sweep": (
        ParamSpec("n_modes", _positive_int, 64, "momentum mode count"),
        ParamSpec("steps", _nonneg_int, 8, "number of decoherence steps"),
        ParamSpec("channel", str, "localize", "decoherence channel",
                  choices=("dephase", "localize")),
        ParamSpec("l_rc", _positive_float, 1.0, "length scale multiplying distances"),
        ParamSpec("spin_mi", _nonneg_float, None,
                  "spin-sector MI riding along (default: Bell pair value)"),
    ),
    "graph-reconstruct": (
        ParamSpec("state", str, "ghz3", "which state to map",
                  choices=("bell", "ghz3", "w3", "product", "random")),
        ParamSpec("n_qubits", _positive_int, 4, "qubit count for the random state"),
        ParamSpec("l_rc", _positive_float, 1.0, "length scale multiplying edge weights"),
    ),
    "property-suite": (
        ParamSpec("trials", _positive_int, 100, "trials per randomized check"),
    ),
}

SCENARIOS = tuple(SCENARIO_PARAMS)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entgeo",
        description="entanglement-to-geometry scenarios over delimited output",
    )
    parser.add_argument("--version", action="version", version=f"entgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a named scenario")
    run_p.add_argument("scenario", choices=SCENARIOS)
    run_p.add_argument("--config", metavar="PATH", help="flat key = value parameter file")
    run_p.add_argument("--seed", type=int, default=None, metavar="U64")
    run_p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    run_p.add_argument("--format", choices=("csv", "json"), default=None)
    # one flag per parameter name, with the first scenario's help text
    flags: dict[str, str] = {}
    for specs in SCENARIO_PARAMS.values():
        for spec in specs:
            flags.setdefault(spec.name, spec.help)
    for name, help_text in flags.items():
        run_p.add_argument("--" + name.replace("_", "-"), type=str, default=None,
                           help=help_text, metavar="VALUE")
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; # starts a comment; keys may use - or _."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value
    return entries


def _coerce(spec: ParamSpec, raw: str, origin: str) -> Any:
    try:
        value = spec.type(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{origin}: bad value for {spec.name}: {exc}") from exc
    if spec.choices is not None and value not in spec.choices:
        raise ConfigError(
            f"{origin}: {spec.name} must be one of {', '.join(spec.choices)}, got {value!r}"
        )
    return value


def _effective_config(scenario: str, args: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    """The run's seed and parameters, reading the config file once.

    The seed is --seed, else the file's seed entry, else 0. Parameters are
    the defaults, then config file entries, then command line flags. The
    seed is checked before any parameter.
    """
    file_entries: dict[str, str] = {}
    if args.config is not None:
        try:
            file_entries = _parse_config_file(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    seed = args.seed
    file_seed = file_entries.pop("seed", "0")
    if seed is None:
        try:
            seed = int(file_seed)
        except ValueError as exc:
            raise ConfigError(f"bad seed in config file: {file_seed!r}") from exc
    if not (0 <= seed < 2**64):
        raise ConfigError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    specs = {spec.name: spec for spec in SCENARIO_PARAMS[scenario]}
    params = {name: spec.default for name, spec in specs.items()}
    for key, raw in file_entries.items():
        if key not in specs:
            raise ConfigError(f"config key {key!r} does not apply to scenario {scenario}")
        params[key] = _coerce(specs[key], raw, args.config)
    for name in specs:
        raw = getattr(args, name, None)
        if raw is not None:
            params[name] = _coerce(specs[name], raw, "command line")
    # flags belonging to other scenarios must not be silently ignored
    for other_specs in SCENARIO_PARAMS.values():
        for spec in other_specs:
            if spec.name not in specs and getattr(args, spec.name, None) is not None:
                raise ConfigError(
                    f"--{spec.name.replace('_', '-')} does not apply to scenario {scenario}"
                )
    return seed, params


# ---------------------------------------------------------------------------
# output rendering

Cell = Any  # str | int | float


def _format_cell(value: Cell, kind: str) -> str:
    if kind == "s":
        return str(value)
    if kind == "d":
        return str(int(value))
    if kind == "f9":
        return f"{value:.9f}"
    if kind == "e9":
        return f"{value:.9e}"
    raise AssertionError(f"unknown cell kind {kind!r}")


def _meta_text(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


@dataclass(frozen=True)
class TableResult:
    meta: dict[str, Any]
    header: tuple[str, ...]
    kinds: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    exit_code: int = EXIT_OK


def _render_csv(scenario: str, seed: int, result: TableResult) -> str:
    lines = [f"# entgeo {__version__}", f"# scenario = {scenario}", f"# seed = {seed}"]
    for key in sorted(result.meta):
        lines.append(f"# {key} = {_meta_text(result.meta[key])}")
    lines.append(",".join(result.header))
    for row in result.rows:
        lines.append(",".join(_format_cell(v, k) for v, k in zip(row, result.kinds)))
    return "\n".join(lines) + "\n"


def _render_json(scenario: str, seed: int, result: TableResult) -> str:
    config = {key: _jsonable(val) for key, val in result.meta.items()}
    doc = {
        "tool": "entgeo",
        "version": __version__,
        "scenario": scenario,
        "seed": seed,
        "config": config,
        "columns": list(result.header),
        "records": [
            {name: _jsonable(v) for name, v in zip(result.header, row)}
            for row in result.rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# scenario handlers

def _scenario_vanilla_bell(params: dict[str, Any], seed: int) -> TableResult:
    base = params["log_base"]
    psi = bell_state()
    rho = density_of(psi)
    mi = mutual_information(rho, (("A",), ("B",)), base=base)
    s_a = von_neumann_entropy(partial_trace(rho, ("A",)), base=base)
    s_b = von_neumann_entropy(partial_trace(rho, ("B",)), base=base)
    wf = neg_log_weight(params["l_rc"])
    weight = edge_weight(mi, mi, wf)
    meta = {"l_rc": params["l_rc"], "log_base": params["log_base"] or "e",
            "labels": "A,B"}
    return TableResult(
        meta=meta,
        header=("mutual_info", "entropy_a", "entropy_b", "weight"),
        kinds=("f9", "f9", "f9", "f9"),
        rows=((mi, s_a, s_b, weight),),
    )


def _scenario_bell_env(params: dict[str, Any], seed: int) -> TableResult:
    base = params["log_base"]
    psi = bell_with_environment()
    rho_ab = reduced_density(psi, ("A", "B"))
    mi = mutual_information(rho_ab, (("A",), ("B",)), base=base)
    s_ab = von_neumann_entropy(rho_ab, base=base)
    s_a = von_neumann_entropy(partial_trace(rho_ab, ("A",)), base=base)
    ref_mi = pure_state_mutual_information(bell_state(), (("A",), ("B",)), base=base)
    wf = neg_log_weight(params["l_rc"])
    weight = edge_weight(mi, ref_mi, wf)
    meta = {"l_rc": params["l_rc"], "log_base": params["log_base"] or "e",
            "ref_mutual_info": ref_mi, "labels": "A,B,E"}
    return TableResult(
        meta=meta,
        header=("mutual_info", "joint_entropy", "entropy_a", "weight"),
        kinds=("f9", "f9", "f9", "f9"),
        rows=((mi, s_ab, s_a, weight),),
    )


def _scenario_qudit_bell(params: dict[str, Any], seed: int) -> TableResult:
    base = params["log_base"]
    n = params["n"]
    psi = qudit_bell(n)
    mi = pure_state_mutual_information(psi, (("A",), ("B",)), base=base)
    s_a = von_neumann_entropy(reduced_density(psi, ("A",)), base=base)
    factor = math.log(base) if base is not None else 1.0
    upper = 2.0 * math.log(n) / factor
    meta = {"l_rc": params["l_rc"], "log_base": params["log_base"] or "e"}
    return TableResult(
        meta=meta,
        header=("local_dim", "mutual_info", "entropy_a", "mi_upper_bound"),
        kinds=("d", "f9", "f9", "f9"),
        rows=((n, mi, s_a, upper),),
    )


def _scenario_spin_momentum(params: dict[str, Any], seed: int) -> TableResult:
    base = params["log_base"]
    meta: dict[str, Any] = {"log_base": params["log_base"] or "e",
                            "distribution": params["distribution"]}
    if params["n_modes"] is not None:
        momentum = momentum_sector_state(num_modes=params["n_modes"])
        meta["n_modes_source"] = "explicit"
    else:
        if params["l_app"] is None or params["mass"] is None:
            raise ConfigError(
                "spin-momentum needs either --n-modes or both --l-app and --mass"
            )
        scales = physical_scales(
            l_app=params["l_app"], mass=params["mass"], lambda_cc=params["lambda_cc"],
            momentum_cap=params["momentum_cap"],
        )
        momentum = momentum_sector_state(scales=scales)
        meta.update(
            n_modes_source="scales",
            l_app=scales.l_app,
            mass=scales.mass,
            lambda_cc=scales.lambda_cc,
            momentum_cap=scales.momentum_cap,
            p_cap=scales.p_cap,
            p_ir=scales.p_ir,
            l_ir=scales.l_ir,
            compton_ceiling=scales.compton_ceiling,
        )
    sector = spin_momentum_state(bell_state(("As", "Bs")), momentum)
    spin_mi = sector.spin_mutual_info(base=base)
    momentum_mi = sector.momentum_mutual_info(base=base)
    total = sector.total_mutual_info(base=base)
    meta["symbolic"] = "yes" if momentum.is_symbolic else "no"
    return TableResult(
        meta=meta,
        header=("n_modes", "spin_mi", "momentum_mi", "total_mi"),
        kinds=("d", "f9", "f9", "f9"),
        rows=((momentum.num_modes, spin_mi, momentum_mi, total),),
    )


def _scenario_momentum_sweep(params: dict[str, Any], seed: int) -> TableResult:
    n_modes = params["n_modes"]
    steps = params["steps"]
    momentum = momentum_sector_state(num_modes=n_modes)
    if momentum.is_symbolic:
        raise ConfigError(
            f"sweeping {n_modes} modes needs explicit weights beyond the materialization limit"
        )
    if params["spin_mi"] is None:
        spin_mi = pure_state_mutual_information(bell_state(), (("A",), ("B",)))
        spin_source = "bell"
    else:
        spin_mi = params["spin_mi"]
        spin_source = "explicit"
    wf = neg_log_weight(params["l_rc"])
    schedule = DecoherenceSchedule.ir_first(n_modes, steps, params["channel"])
    points = decoherence_sweep(momentum, schedule, spin_mi, wf)
    meta = {
        "channel": params["channel"],
        "n_modes": n_modes,
        "steps": steps,
        "l_rc": params["l_rc"],
        "spin_mi": spin_mi,
        "spin_mi_source": spin_source,
        "initial_total_mi": points[0].total_mi,
        "mode_order": "ir-first",
    }
    rows = tuple(
        (pt.step, pt.momentum_mi, pt.total_mi, pt.distance)
        for pt in points[1:]
    )
    return TableResult(
        meta=meta,
        header=("step", "momentum_mi", "total_mi", "distance"),
        kinds=("d", "f9", "f9", "f9"),
        rows=rows,
    )


def _graph_state(name: str, n_qubits: int, seed: int) -> PureState:
    if name == "bell":
        return bell_state()
    if name == "ghz3":
        return bell_with_environment(("A", "B", "C"))
    if name == "w3":
        amp = np.zeros(8, dtype=complex)
        amp[1] = amp[2] = amp[4] = 1.0 / math.sqrt(3.0)
        return PureState(qubits(("A", "B", "C")), amp)
    if name == "product":
        amp = np.zeros(4, dtype=complex)
        amp[0] = 1.0
        return PureState(qubits(("A", "B")), amp)
    if name == "random":
        if n_qubits >= hilbert.DENSE_CAP.bit_length():  # 2**n_qubits > DENSE_CAP
            raise _cap_error({2: n_qubits})
        labels = tuple(f"Q{i}" for i in range(n_qubits))
        return haar_random_state(qubits(labels), seed)
    raise AssertionError(name)


def _scenario_graph_reconstruct(params: dict[str, Any], seed: int) -> TableResult:
    psi = _graph_state(params["state"], params["n_qubits"], seed)
    graph = build_info_graph(psi)
    wf = neg_log_weight(params["l_rc"])
    rows = tuple(edge_records(graph, wf))
    meta = {"state": params["state"], "l_rc": params["l_rc"],
            "i0_nats": graph.i0, "vertices": ",".join(graph.vertices)}
    if params["state"] == "random":
        meta["n_qubits"] = params["n_qubits"]
    return TableResult(
        meta=meta,
        header=("src", "dst", "mutual_info_nats", "weight"),
        kinds=("s", "s", "f9", "f9"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# property battery

def _grouped(keys: Iterable[Any], items: Iterable[Any]) -> dict[Any, list[Any]]:
    """items by key, keys in order of first appearance. A battery folds its
    worst violation with max, which skips NaN and ignores order, so groups
    may be scored one after another."""
    groups: dict[Any, list[Any]] = {}
    for key, item in zip(keys, items):
        groups.setdefault(key, []).append(item)
    return groups


def _entropy_gaps(shape: tuple[int, int], seeds: list[int]) -> list[float]:
    """|S(A) - S(B)| of the Haar states on A x B of the given shape, one per seed."""
    tps = TensorProductStructure((FactorSpace("A", shape[0]), FactorSpace("B", shape[1])))
    amps = _haar_amplitudes(tps.total_dim, seeds)
    s_a = _pure_entropies(amps, tps, ("A",))
    s_b = _pure_entropies(amps, tps, ("B",))
    return [abs(a - b) for a, b in zip(s_a, s_b)]


def _battery_pure_mi_symmetry(trials: int, seed: int) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for block in _blocks(trials, 5 * 5):
        shapes = [(int(rng.integers(2, 6)), int(rng.integers(2, 6))) for _ in block]
        seeds = [seed + 7919 * (i + 1) for i in block]
        for shape, group in _grouped(shapes, seeds).items():
            for gap in _entropy_gaps(shape, group):
                worst = max(worst, gap)
    return worst


def _battery_mi_properties(trials: int, seed: int) -> float:
    psi = haar_random_state(qubits(("A", "B", "C", "D", "E")), seed + 11)
    rho = reduced_density(psi, ("A", "B", "C", "D"))
    report = check_mi_properties(rho, trials=trials, seed=seed)
    checks = report.checks
    return max(checks.positivity, checks.boundedness, checks.symmetry,
               checks.monotonicity or 0.0)


_QUBITS3 = qubits(("Q0", "Q1", "Q2"))
_SPLIT3 = (("Q0", "Q1"), ("Q2",))


def _unitary_shifts(target: tuple[str, ...], seeds: list[int]) -> list[float]:
    """|delta_mi| of a one-qubit Haar unitary on target, one trial per seed."""
    amps = _haar_amplitudes(_QUBITS3.total_dim, seeds)
    us = _haar_unitaries(2, [s + 1 for s in seeds])
    _, deltas = _apply_locals(_QUBITS3, amps, us, target, _SPLIT3, 1e-9)
    return [abs(delta_mi) for delta_mi, _ in deltas]


def _battery_local_identity(trials: int, seed: int) -> float:
    worst = 0.0
    for block in _blocks(trials, 4 * 4):
        targets = [("Q0",) if i % 2 == 0 else ("Q2",) for i in block]
        seeds = [seed + 31 * (i + 1) for i in block]
        for target, group in _grouped(targets, seeds).items():
            for shift in _unitary_shifts(target, group):
                worst = max(worst, shift)
    return worst


def _battery_local_balance(trials: int, seed: int) -> float:
    worst = 0.0
    for block in _blocks(trials, 4 * 4):
        seeds = [seed + 37 * (i + 1) for i in block]
        amps = _haar_amplitudes(_QUBITS3.total_dim, seeds)
        us = _haar_unitaries(4, [s + 1 for s in seeds])
        _, deltas = _apply_locals(_QUBITS3, amps, us, ("Q1", "Q2"), _SPLIT3, 1e-9)
        for delta_mi, delta_s_a in deltas:
            worst = max(worst, abs(delta_mi - 2.0 * delta_s_a))
    return worst


def _battery_nonlocal_monotone(trials: int, seed: int) -> float:
    worst = 0.0
    env = PureState(TensorProductStructure((FactorSpace("ENV", 2),)), np.array([1.0, 0.0]))
    for block in _blocks(trials, 8 * 8):
        seeds = [seed + 41 * (i + 1) for i in block]
        amps = _haar_amplitudes(_QUBITS3.total_dim, seeds)
        us = _haar_unitaries(4, [s + 1 for s in seeds])
        _, _, deltas = _apply_nonlocals(_QUBITS3, amps, us, ("Q2",), env, _SPLIT3, 1e-9)
        for delta_mi in deltas:
            worst = max(worst, delta_mi)
    return worst


def _battery_decoherence_order(trials: int, seed: int) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed + 53)
    for block in _blocks(trials, 12):
        draws = []
        for _ in block:
            num_modes = int(rng.integers(4, 13))
            s = _random_schmidt(rng, num_modes)
            draws.append((s, rng.permutation(num_modes) + 1))
        for s, perm in draws:
            # dephase_modes and localize_modes on sorted mode arrays, in range by construction
            n = len(perm)
            p = s.probabilities()
            small = np.sort(perm[: n // 3])
            mixtures = ((small, False), (np.sort(perm[: 2 * n // 3]), False),
                        (small, True), (np.arange(1, n + 1), True))
            deph_small, deph_big, loc_small, loc_all = (
                max(_branch_mis(p, [mix])[-1], 0.0) for mix in mixtures)
            base_mi = mutual_information_schmidt(s)
            worst = max(worst, deph_small - base_mi)   # decohering cannot raise MI
            worst = max(worst, deph_big - deph_small)  # more modes, less MI
            worst = max(worst, loc_small - deph_small)  # localize is harsher
            worst = max(worst, abs(loc_all))           # full localization kills MI
    return worst


def _battery_metric_axioms(trials: int, seed: int) -> float:
    worst = 0.0
    tps = qubits(("Q0", "Q1", "Q2", "Q3", "Q4"))
    wf = neg_log_weight(1.0)
    for block in _blocks(trials, 10 * 4 * 4):
        amps = _haar_amplitudes(tps.total_dim, [seed + 61 * (i + 1) for i in block])
        lengths = []
        for mis in _pair_mis(amps, tps.dims):
            try:
                graph = _info_graph(tps.labels, mis)
            except NoCorrelationsError:
                continue  # vanishingly unlikely for Haar states, but not a violation
            lengths.append(_weight_matrix(graph, wf))
        if lengths:
            for worsts in _metric_worsts(_distance_matrices(np.array(lengths))).tolist():
                worst = max(worst, *worsts)
    return worst


def _battery_correlation_bound(trials: int, seed: int) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed + 71)
    tps = qubits(("C", "D", "E0", "E1"))
    for block in _blocks(trials, 4 * 4):
        obs = []
        for _ in range(2 * len(block)):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            obs.append(g + g.conj().T)
        amps = _haar_amplitudes(tps.total_dim, [seed + 71 * (i + 1) for i in block])
        rho, factors = _reduced_stack(amps, tps, ("C", "D"))
        obs_cd = np.array(obs)
        for result in _correlation_bounds(rho, factors, obs_cd[0::2], obs_cd[1::2]):
            worst = max(worst, result.bound - result.mutual_info)
    return worst


def _battery_schmidt_vs_dense(trials: int, seed: int) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed + 83)
    for block in _blocks(trials, 8 * 8):
        closed, states = [], []
        for _ in block:
            s = _random_schmidt(rng, int(rng.integers(2, 9)))
            closed.append(mutual_information_schmidt(s))
            states.append(schmidt_to_dense(s))
        for tps, group in _grouped([psi.tps for psi in states], zip(closed, states)).items():
            amps = np.array([psi.amplitudes for _, psi in group])
            for (mi, _), mi_dense in zip(group, _pure_mis(amps, tps, ("A",), ("B",))):
                worst = max(worst, abs(mi - mi_dense))
    return worst


_BATTERY = (
    ("pure-mi-symmetry", _battery_pure_mi_symmetry, 1e-9, 1.0),
    ("mi-properties", _battery_mi_properties, 1e-9, 1.0),
    ("local-unitary-identity", _battery_local_identity, 1e-9, 1.0),
    ("local-balance", _battery_local_balance, 1e-9, 1.0),
    ("nonlocal-monotone", _battery_nonlocal_monotone, 1e-9, 1.0),
    ("decoherence-order", _battery_decoherence_order, 1e-9, 1.0),
    ("metric-axioms", _battery_metric_axioms, 1e-9, 0.2),
    ("correlation-bound", _battery_correlation_bound, 1e-9, 1.0),
    ("schmidt-vs-dense", _battery_schmidt_vs_dense, 1e-9, 1.0),
)


def _scenario_property_suite(params: dict[str, Any], seed: int) -> TableResult:
    """One row per battery: its trials, worst violation and verdict.

    The batteries stack their trials. A battery first draws its trials'
    inputs in the order a trial-by-trial loop would (per-trial generators
    seeded seed + k (i + 1), shared generators in trial order), then
    evaluates them as stacks of one shape, one block of hilbert._BLOCK_ELEMS
    entries at a time, through the kernels behind apply_local,
    apply_nonlocal, pure_state_mutual_information, correlation_lower_bound
    and check_mi_properties; metric-axioms builds its graphs, distances and
    axiom checks the same way, through the kernels behind build_info_graph,
    emergent_metric and metric_check, and decoherence-order calls the one
    branch-decoherence kernel once per mixture. Each trial gets the bits it
    gets alone, so the output bytes are those of the per-trial arithmetic.
    A tripped in-op invariant (ArithmeticError) makes its battery's worst
    violation inf.
    """
    trials = params["trials"]
    rows = []
    any_failed = False
    for name, check, tol, scale in _BATTERY:
        t = max(1, int(trials * scale))
        try:
            worst = check(t, seed)
        except ArithmeticError:
            # an in-op invariant assertion tripping is itself a violation
            worst = math.inf
        passed = worst <= tol
        any_failed = any_failed or not passed
        rows.append((name, t, worst, tol, "pass" if passed else "fail"))
    return TableResult(
        meta={"trials": trials},
        header=("check", "trials", "worst_violation", "tolerance", "result"),
        kinds=("s", "d", "e9", "e9", "s"),
        rows=tuple(rows),
        exit_code=EXIT_VIOLATION if any_failed else EXIT_OK,
    )


_HANDLERS: dict[str, Callable[[dict[str, Any], int], TableResult]] = {
    "vanilla-bell": _scenario_vanilla_bell,
    "bell-env": _scenario_bell_env,
    "qudit-bell": _scenario_qudit_bell,
    "spin-momentum": _scenario_spin_momentum,
    "momentum-sweep": _scenario_momentum_sweep,
    "graph-reconstruct": _scenario_graph_reconstruct,
    "property-suite": _scenario_property_suite,
}


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    params: dict[str, Any]
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"


def run(cfg: RunConfig) -> int:
    """Execute one scenario; returns the process exit code.

    Output is rendered fully before anything is opened for writing, so a
    failed computation never leaves a partial file behind.
    """
    handler = _HANDLERS[cfg.scenario]
    result = handler(cfg.params, cfg.seed)
    result = replace(result, meta={**result.meta, "format": cfg.fmt})
    if cfg.fmt == "json":
        text = _render_json(cfg.scenario, cfg.seed, result)
    else:
        text = _render_csv(cfg.scenario, cfg.seed, result)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return result.exit_code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        seed, params = _effective_config(args.scenario, args)
        cfg = RunConfig(scenario=args.scenario, params=params, seed=seed,
                        out=args.out, fmt=args.format or "csv")
        return run(cfg)
    except (ConfigError, NoCorrelationsError, ExplicitWeightsRequired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
