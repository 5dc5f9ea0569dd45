"""Command line front end.

    entgeo run <scenario> [--config PATH] [--seed U64] [--out PATH]
                          [--format csv|json] [--<param> <value> ...]

This module parses, renders and sets exit codes: 0 success, 2 configuration
or usage error, 3 property violation reported by the property-suite scenario
(whose batteries live in _battery), 4 output I/O failure.

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
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__, _battery, hilbert
from ._battery import TOLERANCE
from .channels import DecoherenceSchedule, decoherence_sweep, haar_random_state
from .geometry import (
    NoCorrelationsError,
    build_info_graph,
    edge_records,
    edge_weight,
    neg_log_weight,
)
from .hilbert import (
    ExplicitWeightsRequired,
    PureState,
    SchmidtPairState,
    _cap_error,
    density_of,
    partial_trace,
    qubits,
    reduced_density,
)
from .infotheory import (
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
    upper = mutual_information_schmidt(SchmidtPairState.flat(n), base=base)
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

def _scenario_property_suite(params: dict[str, Any], seed: int) -> TableResult:
    """One row per battery of _battery.BATTERY: its trials, worst violation
    and verdict against TOLERANCE.

    A tripped in-op invariant (ArithmeticError) makes its battery's worst
    violation inf, as the driver makes a NaN violation.
    """
    trials = params["trials"]
    rows = []
    for name, check, scale in _battery.BATTERY:
        t = max(1, int(trials * scale))
        try:
            worst = check(t, seed)
        except ArithmeticError:
            worst = math.inf
        rows.append((name, t, worst, TOLERANCE, "pass" if worst <= TOLERANCE else "fail"))
    return TableResult(
        meta={"trials": trials},
        header=("check", "trials", "worst_violation", "tolerance", "result"),
        kinds=("s", "d", "e9", "e9", "s"),
        rows=tuple(rows),
        exit_code=EXIT_OK if all(row[4] == "pass" for row in rows) else EXIT_VIOLATION,
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
