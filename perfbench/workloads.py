"""The four benchmark workloads: seeded inputs, one op each, and their oracles.

Every op input is a deterministic function of (workload seed, stream, op
index), made before the op's clock starts. Oracles use numpy and closed
forms only, never the entgeo function they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import entgeo
from entgeo import cli

LOG2 = math.log(2.0)
SWEEP_STEPS = 64
SWEEP_MODES = (2**18 - 2**12, 2**18)
GRAPH_QUBITS = 14
DENSE_QUBITS = 12
DENSE_KEEP = 10
SUITE_TRIALS = 100
TOL = 1e-8


class OracleError(Exception):
    """An op's output disagrees with its oracle."""


@dataclass
class OpInput:
    index: int
    kind: str
    desc: dict[str, Any]
    data: dict[str, Any] = field(default_factory=dict)


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# sweep

def ir_first_sizes(num_modes: int, steps: int) -> list[int]:
    """Chunk sizes of an IR-first schedule: earlier chunks take the extra mode."""
    q, r = divmod(num_modes, steps)
    return [q + 1 if i < r else q for i in range(steps)]


def flat_sweep_mi(num_modes: int, steps: int, channel: str) -> list[float]:
    """Momentum MI after each step of a flat-sector sweep, in closed form.

    With k modes hit, P = k/N and R = 1 - P:
    localize S_joint = -R log R - P log P + 2 P log k,
    dephase  S_joint = -R log R + P log N, and MI = 2 log N - S_joint.
    """
    n = num_modes
    out = []
    k = 0
    for size in ir_first_sizes(n, steps):
        k += size
        p = k / n
        r = 1.0 - p
        s = -r * math.log(r) if r > 0.0 else 0.0
        if channel == "localize":
            s += -p * math.log(p) + 2.0 * p * math.log(k)
        else:
            s += p * math.log(n)
        out.append(2.0 * math.log(n) - s)
    return out


def weighted_sweep_mi(probs: np.ndarray, steps: int, channel: str) -> list[float]:
    """Momentum MI after each step for explicit mode probabilities.

    Per schedule block, numpy cumulative sums give the hit mass P and the
    hit sum of p log p; with R = 1 - P and H the full Shannon entropy:
    dephase  S_joint = -R log R - sum_hit p log p,
    localize S_joint = -R log R + P log P - 2 sum_hit p log p.
    """
    plogp = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    h = -float(plogp.sum())
    ends = np.cumsum(ir_first_sizes(probs.size, steps))
    mass = np.cumsum(probs)[ends - 1]
    hit_plogp = np.cumsum(plogp)[ends - 1]
    out = []
    for p_hit, s_hit in zip(mass.tolist(), hit_plogp.tolist()):
        r = max(1.0 - p_hit, 0.0)
        s = -r * math.log(r) if r > 0.0 else 0.0
        if channel == "localize":
            s += (p_hit * math.log(p_hit) if p_hit > 0.0 else 0.0) - 2.0 * s_hit
        else:
            s += -s_hit
        out.append(2.0 * h - s)
    return out


def check_sweep(mom: list[float], total: list[float], dist: list[float],
                expected: list[float], mom0: float) -> None:
    """Momentum MI, total MI (spin sector 2 log 2 riding along) and distance
    -log(total / total0) per step against the expected momentum MI."""
    spin = 2.0 * LOG2
    if len(mom) != len(expected):
        raise OracleError(f"{len(mom)} sweep rows, expected {len(expected)}")
    want_dist = [-math.log((spin + m) / (spin + mom0)) for m in expected]
    for name, got, want in (
        ("momentum_mi", mom, expected),
        ("total_mi", total, [spin + m for m in expected]),
        ("distance", dist, want_dist),
    ):
        worst = max(abs(g - w) for g, w in zip(got, want))
        if worst > TOL:
            raise OracleError(f"{name} off by {worst:.3e}")


class Sweep:
    """Decoherence sweeps of about 2^18 modes over 64 steps."""

    name = "sweep"
    kinds = ("cli", "lib")
    guarded = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.out = workdir / "sweep.csv"

    def make_input(self, stream: int, index: int) -> OpInput:
        rng = _rng(self.seed, stream, index)
        n = int(rng.integers(SWEEP_MODES[0], SWEEP_MODES[1] + 1))
        kind = self.kinds[index % 2]
        channel = ("localize", "dephase")[(index // 2) % 2]
        inp = OpInput(index, kind, {"kind": kind, "n_modes": n, "channel": channel})
        if kind == "lib":
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w /= np.linalg.norm(w)
            inp.data["probs"] = np.abs(w) ** 2
            inp.data["state"] = entgeo.SchmidtPairState.from_weights(w)
        return inp

    def execute(self, inp: OpInput) -> Any:
        n, channel = inp.desc["n_modes"], inp.desc["channel"]
        if inp.kind == "cli":
            return cli.main(["run", "momentum-sweep", "--n-modes", str(n),
                             "--steps", str(SWEEP_STEPS), "--channel", channel,
                             "--out", str(self.out)])
        schedule = entgeo.DecoherenceSchedule.ir_first(n, SWEEP_STEPS, channel)
        return entgeo.decoherence_sweep(inp.data["state"], schedule, 2.0 * LOG2,
                                        entgeo.neg_log_weight())

    def output(self, inp: OpInput, raw: Any) -> bytes:
        if inp.kind == "cli":
            if raw != 0:
                raise OracleError(f"exit code {raw}")
            return self.out.read_bytes()
        return "\n".join(repr((p.step, p.momentum_mi, p.total_mi, p.distance))
                         for p in raw).encode()

    def check(self, inp: OpInput, raw: Any, out: bytes) -> None:
        n, channel = inp.desc["n_modes"], inp.desc["channel"]
        if inp.kind == "cli":
            rows = _csv_rows(out.decode())
            steps = [int(r[0]) for r in rows]
            mom = [float(r[1]) for r in rows]
            total = [float(r[2]) for r in rows]
            dist = [float(r[3]) for r in rows]
            expected = flat_sweep_mi(n, SWEEP_STEPS, channel)
            mom0 = 2.0 * math.log(n)
        else:
            steps = [p.step for p in raw[1:]]
            mom = [p.momentum_mi for p in raw[1:]]
            total = [p.total_mi for p in raw[1:]]
            dist = [p.distance for p in raw[1:]]
            expected = weighted_sweep_mi(inp.data["probs"], SWEEP_STEPS, channel)
            mom0 = 2.0 * _entropy(inp.data["probs"])
        if steps != list(range(1, SWEEP_STEPS + 1)):
            raise OracleError("sweep steps are not 1..64")
        check_sweep(mom, total, dist, expected, mom0)


# ---------------------------------------------------------------------------
# graph

def block_sizes(rng: np.random.Generator, n: int) -> list[int]:
    """Random composition of n into parts of 2 and 3."""
    sizes = []
    left = n
    while left:
        choices = [k for k in (2, 3) if left - k == 0 or left - k >= 2]
        k = int(rng.choice(choices))
        sizes.append(k)
        left -= k
    return sizes


def _haar_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class Graph:
    """MI graph, emergent metric and axiom check on 14-qubit states."""

    name = "graph"
    kinds = ("haar", "block")
    guarded = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.labels = tuple(f"Q{i}" for i in range(GRAPH_QUBITS))

    def make_input(self, stream: int, index: int) -> OpInput:
        rng = _rng(self.seed, stream, index)
        kind = self.kinds[index % 2]
        n = GRAPH_QUBITS
        if kind == "haar":
            amp = _haar_vector(rng, 2**n)
            blocks = [list(range(n))]
        else:
            perm = rng.permutation(n)
            blocks, start = [], 0
            for k in block_sizes(rng, n):
                blocks.append(sorted(int(q) for q in perm[start:start + k]))
                start += k
            # kron the blocks in block order, then move qubit axes to Q0..Q13
            amp = np.ones(1, dtype=complex)
            order: list[int] = []
            for b in blocks:
                amp = np.kron(amp, _haar_vector(rng, 2 ** len(b)))
                order.extend(b)
            amp = np.transpose(amp.reshape((2,) * n), np.argsort(order)).reshape(-1)
        psi = entgeo.PureState(entgeo.qubits(self.labels), amp)
        desc = {"kind": kind, "blocks": blocks}
        return OpInput(index, kind, desc, {"psi": psi, "blocks": blocks})

    def execute(self, inp: OpInput) -> Any:
        graph = entgeo.build_info_graph(inp.data["psi"])
        metric = entgeo.emergent_metric(graph, entgeo.neg_log_weight())
        return graph, metric, entgeo.metric_check(metric)

    def output(self, inp: OpInput, raw: Any) -> bytes:
        return b""

    def check(self, inp: OpInput, raw: Any, out: bytes) -> None:
        graph, metric, report = raw
        block_of = {f"Q{q}": i for i, b in enumerate(inp.data["blocks"]) for q in b}
        pairs = {tuple(sorted((a, b))) for a in block_of for b in block_of
                 if a != b and block_of[a] == block_of[b]}
        if set(graph.edges) != pairs:
            raise OracleError(f"{len(graph.edges)} edges, expected {len(pairs)} within-block pairs")
        for a in block_of:
            for b in block_of:
                if a == b:
                    continue
                d = metric.distance(a, b)
                if (block_of[a] == block_of[b]) == math.isinf(d):
                    raise OracleError(f"distance {a}-{b} = {d} contradicts the block structure")
        if not report.ok:
            raise OracleError(f"metric axioms violated: {report}")


# ---------------------------------------------------------------------------
# suite

class Suite:
    """The randomized property battery through the in-process CLI."""

    name = "suite"
    kinds = ("suite",)
    guarded = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.out = workdir / "suite.csv"

    def make_input(self, stream: int, index: int) -> OpInput:
        suite_seed = int(_rng(self.seed, stream, index).integers(0, 2**32))
        return OpInput(index, "suite", {"kind": "suite", "seed": suite_seed})

    def execute(self, inp: OpInput) -> Any:
        return cli.main(["run", "property-suite", "--trials", str(SUITE_TRIALS),
                         "--seed", str(inp.desc["seed"]), "--out", str(self.out)])

    def output(self, inp: OpInput, raw: Any) -> bytes:
        if raw != 0:
            raise OracleError(f"exit code {raw}")
        return self.out.read_bytes()

    def check(self, inp: OpInput, raw: Any, out: bytes) -> None:
        rows = _csv_rows(out.decode())
        bad = [r[0] for r in rows if r[-1] != "pass"]
        if not rows or bad:
            raise OracleError(f"rows not passing: {bad or 'none written'}")


# ---------------------------------------------------------------------------
# dense

def subsystem_entropy(amp: np.ndarray, n: int, qubits: list[int]) -> float:
    """Entropy of a qubit subset of a pure n-qubit state from its Schmidt
    coefficients (singular values of the amplitude matrix split there)."""
    rest = [q for q in range(n) if q not in qubits]
    m = np.transpose(amp.reshape((2,) * n), qubits + rest).reshape(2 ** len(qubits), -1)
    s = np.linalg.svd(m, compute_uv=False)
    return _entropy(s**2)


class Dense:
    """Reduce a 12-qubit state to 10 qubits, then MI across a cut."""

    name = "dense"
    kinds = ("dense",)
    guarded = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.labels = tuple(f"Q{i}" for i in range(DENSE_QUBITS))

    def make_input(self, stream: int, index: int) -> OpInput:
        rng = _rng(self.seed, stream, index)
        amp = _haar_vector(rng, 2**DENSE_QUBITS)
        keep = sorted(int(q) for q in rng.choice(DENSE_QUBITS, DENSE_KEEP, replace=False))
        shuffled = [keep[i] for i in rng.permutation(DENSE_KEEP)]
        cut = int(rng.integers(1, DENSE_KEEP))
        a, b = sorted(shuffled[:cut]), sorted(shuffled[cut:])
        desc = {"kind": "dense", "keep": keep, "a": a, "b": b}
        psi = entgeo.PureState(entgeo.qubits(self.labels), amp)
        return OpInput(index, "dense", desc, {"psi": psi, "amp": amp})

    def execute(self, inp: OpInput) -> Any:
        lb = self.labels
        rho = entgeo.reduced_density(inp.data["psi"], [lb[q] for q in inp.desc["keep"]])
        split = (tuple(lb[q] for q in inp.desc["a"]), tuple(lb[q] for q in inp.desc["b"]))
        return entgeo.mutual_information(rho, split)

    def output(self, inp: OpInput, raw: Any) -> bytes:
        return b""

    def check(self, inp: OpInput, raw: Any, out: bytes) -> None:
        amp, d = inp.data["amp"], inp.desc
        dropped = [q for q in range(DENSE_QUBITS) if q not in d["keep"]]
        want = sum(subsystem_entropy(amp, DENSE_QUBITS, qs) for qs in (d["a"], d["b"]))
        want -= subsystem_entropy(amp, DENSE_QUBITS, dropped)
        if abs(raw - want) > TOL:
            raise OracleError(f"MI {raw!r} vs oracle {want!r}")


WORKLOADS = {w.name: w for w in (Sweep, Graph, Suite, Dense)}
