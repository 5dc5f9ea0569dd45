import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgeo import __version__, cli, hilbert
from entgeo.cli import main

LOG2 = math.log(2.0)
GOLDEN = Path(__file__).parent / "golden"
# (file, scenario, flags) of each run in the golden manifest, in its order
GOLDEN_RUNS = [
    (name, scenario, tuple(flags))
    for name, scenario, *flags in (
        line.split() for line in (GOLDEN / "manifest.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    )
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0], lines[1:]


class TestVanillaBell:
    def test_frozen_row(self, capsys):
        code, out, err = run_cli(capsys, "run", "vanilla-bell")
        assert code == 0
        assert err == ""
        header, rows = data_rows(out)
        assert header == "mutual_info,entropy_a,entropy_b,weight"
        assert rows == ["1.386294361,0.693147181,0.693147181,0.000000000"]

    def test_preamble(self, capsys):
        _, out, _ = run_cli(capsys, "run", "vanilla-bell")
        lines = out.splitlines()
        assert lines[0] == f"# entgeo {__version__}"
        assert lines[1] == "# scenario = vanilla-bell"
        assert lines[2] == "# seed = 0"
        assert "# l_rc = 1.0" in lines
        assert "# format = csv" in lines

    def test_log_base_two(self, capsys):
        _, out, _ = run_cli(capsys, "run", "vanilla-bell", "--log-base", "2")
        _, rows = data_rows(out)
        assert rows == ["2.000000000,1.000000000,1.000000000,0.000000000"]

    def test_stdout_runs_are_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "vanilla-bell")
        _, out2, _ = run_cli(capsys, "run", "vanilla-bell")
        assert out1 == out2


class TestBellEnv:
    def test_frozen_row(self, capsys):
        code, out, _ = run_cli(capsys, "run", "bell-env")
        assert code == 0
        header, rows = data_rows(out)
        assert header == "mutual_info,joint_entropy,entropy_a,weight"
        assert rows == ["0.693147181,0.693147181,0.693147181,0.693147181"]

    def test_length_scale_stretches_weight(self, capsys):
        _, out, _ = run_cli(capsys, "run", "bell-env", "--l-rc", "2.5")
        _, rows = data_rows(out)
        weight = float(rows[0].split(",")[3])
        assert abs(weight - 2.5 * LOG2) < 1e-9


class TestQuditBell:
    def test_default_dimension(self, capsys):
        _, out, _ = run_cli(capsys, "run", "qudit-bell")
        _, rows = data_rows(out)
        assert rows[0].startswith("3,2.197224577,")

    def test_dimension_five(self, capsys):
        _, out, _ = run_cli(capsys, "run", "qudit-bell", "--n", "5")
        _, rows = data_rows(out)
        cells = rows[0].split(",")
        assert cells[0] == "5"
        assert abs(float(cells[1]) - 2 * math.log(5)) < 1e-9
        assert cells[1] == cells[3]  # maximally entangled: bound saturated

    def test_rejects_nonpositive_dimension(self, capsys):
        code, _, err = run_cli(capsys, "run", "qudit-bell", "--n", "0")
        assert code == 2
        assert "error" in err


class TestSpinMomentum:
    def test_explicit_mode_count(self, capsys):
        code, out, _ = run_cli(capsys, "run", "spin-momentum", "--n-modes", "4")
        assert code == 0
        _, rows = data_rows(out)
        cells = rows[0].split(",")
        assert cells[0] == "4"
        assert abs(float(cells[1]) - 2 * LOG2) < 1e-9
        assert abs(float(cells[2]) - 2 * math.log(4)) < 1e-9
        assert abs(float(cells[3]) - (2 * LOG2 + 2 * math.log(4))) < 1e-9

    def test_symbolic_astronomical_count(self, capsys):
        _, out, _ = run_cli(capsys, "run", "spin-momentum",
                            "--n-modes", str(10**29))
        assert "# symbolic = yes" in out.splitlines()
        _, rows = data_rows(out)
        cells = rows[0].split(",")
        assert cells[0] == str(10**29)
        assert abs(float(cells[2]) - 2 * math.log(10**29)) < 1e-6

    def test_scales_route(self, capsys):
        code, out, _ = run_cli(capsys, "run", "spin-momentum",
                               "--l-app", "1e-3", "--mass", "9.109e-31")
        assert code == 0
        lines = out.splitlines()
        assert "# n_modes_source = scales" in lines
        assert any(ln.startswith("# compton_ceiling = ") for ln in lines)
        _, rows = data_rows(out)
        n_modes = int(rows[0].split(",")[0])
        assert 0.1 < n_modes / 1e29 < 10.0

    def test_requires_some_mode_source(self, capsys):
        code, _, err = run_cli(capsys, "run", "spin-momentum")
        assert code == 2
        assert "n-modes" in err

    @pytest.mark.parametrize("flags", [
        ("--l-app", "1e-300", "--mass", "1", "--lambda-cc", "1e-300"),
        ("--l-app", "1", "--mass", "1e300", "--momentum-cap", "compton"),
    ])
    def test_overflowing_mode_count_is_a_config_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "run", "spin-momentum", *flags)
        assert code == 2
        assert out == ""
        assert "overflows" in err
        assert "Traceback" not in err


class TestMomentumSweep:
    def test_default_walk(self, capsys):
        code, out, _ = run_cli(capsys, "run", "momentum-sweep")
        assert code == 0
        header, rows = data_rows(out)
        assert header == "step,momentum_mi,total_mi,distance"
        assert len(rows) == 8
        parsed = [[float(c) for c in row.split(",")] for row in rows]
        assert [int(p[0]) for p in parsed] == list(range(1, 9))
        for prev, cur in zip(parsed, parsed[1:]):
            assert cur[1] <= prev[1] + 1e-12  # momentum MI falls
            assert cur[3] >= prev[3] - 1e-12  # distance grows
        assert rows[-1].split(",")[1] == "0.000000000"
        assert "# channel = localize" in out.splitlines()
        assert "# mode_order = ir-first" in out.splitlines()

    def test_zero_steps_is_just_the_header(self, capsys):
        code, out, _ = run_cli(capsys, "run", "momentum-sweep", "--steps", "0")
        assert code == 0
        _, rows = data_rows(out)
        assert rows == []

    def test_dephase_channel_keeps_classical_tail(self, capsys):
        _, out, _ = run_cli(capsys, "run", "momentum-sweep",
                            "--channel", "dephase", "--n-modes", "16", "--steps", "4")
        _, rows = data_rows(out)
        final_momentum = float(rows[-1].split(",")[1])
        assert abs(final_momentum - math.log(16)) < 1e-9

    def test_explicit_spin_mi(self, capsys):
        _, out, _ = run_cli(capsys, "run", "momentum-sweep",
                            "--spin-mi", "0", "--n-modes", "8", "--steps", "2")
        lines = out.splitlines()
        assert "# spin_mi_source = explicit" in lines
        assert "# spin_mi = 0.0" in lines
        _, rows = data_rows(out)
        # with no spin floor the final distance blows up with the dying MI
        cells = rows[-1].split(",")
        assert cells[1] == "0.000000000"
        assert float(cells[3]) > 20.0

    def test_rejects_unknown_channel(self, capsys):
        code, _, err = run_cli(capsys, "run", "momentum-sweep", "--channel", "erase")
        assert code == 2
        assert "channel" in err

    def test_symbolic_mode_count_is_a_config_error(self, capsys):
        # one past hilbert.MAX_EXPLICIT_MODES the sector stays symbolic
        code, out, err = run_cli(capsys, "run", "momentum-sweep",
                                 "--n-modes", "1048577", "--steps", "4")
        assert code == 2
        assert out == ""
        assert err == ("error: sweeping 1048577 modes needs explicit weights "
                       "beyond the materialization limit\n")

    @pytest.mark.parametrize(
        "name,scenario,flags", GOLDEN_RUNS,
        ids=[f"{name}-flags{k}" for k, (name, _, _) in enumerate(GOLDEN_RUNS)],
    )
    def test_matches_golden_csv(self, capsys, name, scenario, flags):
        code, out, _ = run_cli(capsys, "run", scenario, *flags)
        assert code == 0
        assert out.encode() == (GOLDEN / name).read_bytes()


class TestGraphReconstruct:
    def test_ghz_edges(self, capsys):
        code, out, _ = run_cli(capsys, "run", "graph-reconstruct", "--state", "ghz3")
        assert code == 0
        header, rows = data_rows(out)
        assert header == "src,dst,mutual_info_nats,weight"
        assert [r.split(",")[:2] for r in rows] == [["A", "B"], ["A", "C"], ["B", "C"]]
        for row in rows:
            assert row.endswith(",0.693147181,0.000000000")

    def test_product_state_has_no_graph(self, capsys):
        code, _, err = run_cli(capsys, "run", "graph-reconstruct", "--state", "product")
        assert code == 2
        assert "error" in err

    def test_failure_leaves_no_file(self, tmp_path, capsys):
        out_path = tmp_path / "edges.csv"
        code, _, _ = run_cli(capsys, "run", "graph-reconstruct",
                             "--state", "product", "--out", str(out_path))
        assert code == 2
        assert not out_path.exists()

    @pytest.mark.parametrize("n_qubits,dim", [("15", "32768"), ("400000", "about 1e120411")])
    def test_qubit_count_over_the_cap_is_refused(self, capsys, n_qubits, dim):
        # refused before n_qubits labels are built or their dimension multiplied
        code, out, err = run_cli(capsys, "run", "graph-reconstruct", "--state", "random",
                                 "--n-qubits", n_qubits)
        assert code == 2
        assert out == ""
        assert err == f"error: joint dimension {dim} exceeds dense cap 16384\n"

    @pytest.mark.parametrize("n_qubits,dim", [("4", "16"), ("15", "32768")])
    def test_qubit_guard_reads_the_module_cap(self, capsys, monkeypatch, n_qubits, dim):
        monkeypatch.setattr(hilbert, "DENSE_CAP", 2**3)
        code, out, err = run_cli(capsys, "run", "graph-reconstruct", "--state", "random",
                                 "--n-qubits", n_qubits)
        assert code == 2
        assert out == ""
        assert err == f"error: joint dimension {dim} exceeds dense cap 8\n"

    def test_random_state_is_seeded(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "graph-reconstruct",
                             "--state", "random", "--seed", "5")
        _, out2, _ = run_cli(capsys, "run", "graph-reconstruct",
                             "--state", "random", "--seed", "5")
        _, out3, _ = run_cli(capsys, "run", "graph-reconstruct",
                             "--state", "random", "--seed", "6")
        assert out1 == out2
        assert out1 != out3
        assert "# n_qubits = 4" in out1.splitlines()


class TestPropertySuite:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "run", "property-suite", "--trials", "10")
        assert code == 0
        _, rows = data_rows(out)
        names = [r.split(",")[0] for r in rows]
        assert len(names) == len(set(names)) == 9
        for row in rows:
            assert row.split(",")[4] == "pass"

    def test_deterministic_per_seed(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "property-suite", "--trials", "5",
                             "--seed", "3")
        _, out2, _ = run_cli(capsys, "run", "property-suite", "--trials", "5",
                             "--seed", "3")
        assert out1 == out2


class TestJsonFormat:
    def test_document_shape(self, capsys):
        code, out, _ = run_cli(capsys, "run", "vanilla-bell", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "entgeo"
        assert doc["version"] == __version__
        assert doc["scenario"] == "vanilla-bell"
        assert doc["seed"] == 0
        assert doc["config"]["l_rc"] == 1.0
        assert doc["config"]["format"] == "json"
        assert doc["columns"] == ["mutual_info", "entropy_a", "entropy_b", "weight"]
        assert abs(doc["records"][0]["mutual_info"] - 2 * LOG2) < 1e-9

    def test_nonfinite_cells_become_strings(self, capsys):
        _, out, _ = run_cli(capsys, "run", "momentum-sweep", "--format", "json",
                            "--spin-mi", "0", "--n-modes", "4", "--steps", "1")
        doc = json.loads(out)
        assert doc["records"][-1]["distance"] == "inf"

    def test_keys_are_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "run", "vanilla-bell", "--format", "json")
        top_keys = list(json.loads(out))
        assert top_keys == sorted(top_keys)


class TestConfigFile:
    def test_file_values_apply(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nl-rc = 2.0\nseed = 7\n")
        _, out, _ = run_cli(capsys, "run", "bell-env", "--config", str(cfg))
        lines = out.splitlines()
        assert "# seed = 7" in lines
        assert "# l_rc = 2.0" in lines
        _, rows = data_rows(out)
        assert abs(float(rows[0].split(",")[3]) - 2.0 * LOG2) < 1e-9

    def test_flags_beat_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l_rc = 2.0\nseed = 7\n")
        _, out, _ = run_cli(capsys, "run", "bell-env", "--config", str(cfg),
                            "--l-rc", "3.0", "--seed", "9")
        lines = out.splitlines()
        assert "# seed = 9" in lines
        assert "# l_rc = 3.0" in lines

    def test_inapplicable_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\n")
        code, _, err = run_cli(capsys, "run", "vanilla-bell", "--config", str(cfg))
        assert code == 2
        assert "does not apply" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run_cli(capsys, "run", "vanilla-bell", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l_rc = 1.0\nl-rc = 2.0\n")
        code, _, err = run_cli(capsys, "run", "vanilla-bell", "--config", str(cfg))
        assert code == 2
        assert "duplicate" in err

    def test_missing_file_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "vanilla-bell",
                               "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert "cannot read" in err

    def test_file_is_read_once(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l_rc = 2.0\nseed = 7\n")
        calls = []
        parse = cli._parse_config_file
        monkeypatch.setattr(cli, "_parse_config_file",
                            lambda path: calls.append(path) or parse(path))
        code, out, _ = run_cli(capsys, "run", "bell-env", "--config", str(cfg))
        assert code == 0
        assert "# seed = 7" in out.splitlines()
        assert calls == [str(cfg)]

    def test_bad_seed_in_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = p\n")
        code, _, err = run_cli(capsys, "run", "vanilla-bell", "--config", str(cfg))
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("size, code", [(64 * 1024, 0), (64 * 1024 + 1, 2)])
    def test_read_is_bounded_at_64_kib(self, tmp_path, capsys, size, code):
        cfg = tmp_path / "run.cfg"
        head = b"seed = 7\n"
        cfg.write_bytes(head + b"#" * (size - len(head)))
        got, out, err = run_cli(capsys, "run", "vanilla-bell", "--config", str(cfg))
        assert got == code
        if code == 0:
            assert "# seed = 7" in out.splitlines()
        else:
            assert err == f"error: {cfg}: config file exceeds 65536 bytes\n"


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["run", "teleportation"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["run", "vanilla-bell", "--frobnicate", "1"]) == 2
        assert "unrecognized" in capsys.readouterr().err

    def test_flag_from_another_scenario(self, capsys):
        code, _, err = run_cli(capsys, "run", "vanilla-bell", "--steps", "3")
        assert code == 2
        assert "does not apply" in err

    def test_negative_seed(self, capsys):
        code, _, err = run_cli(capsys, "run", "vanilla-bell", "--seed", "-1")
        assert code == 2
        assert "seed" in err

    def test_seed_too_large(self, capsys):
        code, _, _ = run_cli(capsys, "run", "vanilla-bell", "--seed", str(2**64))
        assert code == 2

    def test_nonpositive_length_scale(self, capsys):
        code, _, err = run_cli(capsys, "run", "vanilla-bell", "--l-rc", "0")
        assert code == 2
        assert "l_rc" in err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == f"entgeo {__version__}"


class TestOutputFile:
    def test_out_writes_exactly_stdout_content(self, tmp_path, capsys):
        _, expected, _ = run_cli(capsys, "run", "vanilla-bell")
        out_path = tmp_path / "bell.csv"
        code, out, _ = run_cli(capsys, "run", "vanilla-bell", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == expected

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "run", "momentum-sweep", "--seed", "11", "--out", str(a))
        run_cli(capsys, "run", "momentum-sweep", "--seed", "11", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, _, err = run_cli(capsys, "run", "vanilla-bell", "--out", str(missing_dir))
        assert code == 4
        assert "i/o error" in err


def _closed(fd):
    return lambda: os.close(fd)


def _limited(kind, value):
    return lambda: resource.setrlimit(kind, (value, value))


# Each row runs `python -m entgeo` in a child that starts in one hostile
# environment: (argv, the child's set-up, its exit code, its exact stderr or
# None). {bad-config} is a non-UTF-8 config file and {dir} a directory. The
# limits are the child's own, set in preexec_fn. A closed stdout makes
# sys.stdout None; with stderr closed the error goes to stdout. No row opens
# a FIFO, which would block without a writer.
HOSTILE_ENVIRONMENTS = {
    "closed stdin": (["run", "vanilla-bell"], {"preexec_fn": _closed(0)}, 0, ""),
    "closed stdout": (["run", "vanilla-bell"], {"preexec_fn": _closed(1)}, 4,
                      "i/o error: standard output is closed\n"),
    "closed stderr": (["run", "nope"], {"preexec_fn": _closed(2)}, 2, None),
    "stdout to /dev/full": (["run", "vanilla-bell"], {"stdout": "/dev/full"}, 4,
                            "i/o error: [Errno 28] No space left on device\n"),
    "--out /dev/full": (["run", "vanilla-bell", "--out", "/dev/full"], {}, 4,
                        "i/o error: [Errno 28] No space left on device\n"),
    "--config /dev/zero": (["run", "vanilla-bell", "--config", "/dev/zero"], {}, 2,
                           "error: /dev/zero: config file exceeds 65536 bytes\n"),
    "non-UTF-8 config": (["run", "vanilla-bell", "--config", "{bad-config}"], {}, 2, None),
    "directory as --config": (["run", "vanilla-bell", "--config", "{dir}"], {}, 2, None),
    "directory as --out": (["run", "vanilla-bell", "--out", "{dir}"], {}, 4, None),
    "RLIMIT_AS, largest dense graph": (
        ["run", "graph-reconstruct", "--state", "random", "--n-qubits", "14"],
        {"preexec_fn": _limited(resource.RLIMIT_AS, 1 << 30)}, 0, ""),
    "RLIMIT_AS, mode count over the cap": (
        ["run", "momentum-sweep", "--n-modes", "1048577", "--steps", "4"],
        {"preexec_fn": _limited(resource.RLIMIT_AS, 1 << 30)}, 2, None),
    "RLIMIT_CPU": (["run", "property-suite", "--trials", "5"],
                   {"preexec_fn": _limited(resource.RLIMIT_CPU, 30)}, 0, ""),
}


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full and /dev/zero")
@pytest.mark.parametrize("name", list(HOSTILE_ENVIRONMENTS))
def test_hostile_environment_ends_in_a_documented_exit_code(tmp_path, name):
    argv, child, code, stderr = HOSTILE_ENVIRONMENTS[name]
    bad_config = tmp_path / "latin1.cfg"
    bad_config.write_bytes(b"seed = 7 # \xe9\n")
    argv = [arg.format_map({"bad-config": bad_config, "dir": tmp_path}) for arg in argv]
    with contextlib.ExitStack() as stack:
        stdout = child.get("stdout")
        proc = subprocess.run(
            [sys.executable, "-m", "entgeo", *argv], stdin=subprocess.DEVNULL,
            stdout=stack.enter_context(open(stdout, "w")) if stdout else subprocess.PIPE,
            stderr=subprocess.PIPE, preexec_fn=child.get("preexec_fn"), text=True, timeout=60,
            # one BLAS thread, so the address-space limit does not depend on the core count
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode in (0, 2, 3, 4)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr + (proc.stdout or "")
    if stderr is not None:
        assert proc.stderr == stderr


@pytest.mark.parametrize("argv,code", [
    (["run", "vanilla-bell"], 0),
    (["run", "nope"], 2),
])
def test_module_entry_point(argv, code):
    proc = subprocess.run([sys.executable, "-m", "entgeo", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code
    if code == 0:
        assert "1.386294361,0.693147181,0.693147181,0.000000000" in proc.stdout


# Values any flag may receive besides its valid ones. Big integers come both
# as expressions (which int() rejects) and spelled out (which it accepts).
HOSTILE = ("0", "-1", "nan", "inf", "1e-320", "1e308", "2**64", "10**30", "abc",
           str(2**64), str(10**30))
HOSTILE_SMALL = tuple(v for v in HOSTILE if v not in (str(2**64), str(10**30)))

# Valid values per flag, kept cheap: at most 2 trials, 64 steps and 4096
# materialized modes (larger mode counts go symbolic past 2**20).
FUZZ_FLAGS = {
    "--l-rc": ("1.0", "2.5", "1e-3"),
    "--log-base": ("2", "10", "1.5"),
    "--n": ("2", "3", "16"),
    "--n-modes": ("1", "4", "64", "4096", str(2**21), str(10**40)),
    "--l-app": ("1e-3", "1e-10"),
    "--mass": ("1e-20", "9.1e-31"),
    "--lambda-cc": ("1e-52", "1e-40"),
    "--momentum-cap": ("apparatus", "compton"),
    "--distribution": ("flat",),
    "--steps": ("0", "1", "8", "64"),
    "--channel": ("dephase", "localize"),
    "--spin-mi": ("0", "0.5", "1e-300"),
    "--state": ("bell", "ghz3", "w3", "product", "random"),
    "--n-qubits": ("1", "2", "5", "14", "400000", "1000000000"),
    "--trials": ("1", "2"),
    "--seed": ("0", "7", str(2**64 - 1), str(2**64)),
}


@st.composite
def cli_runs(draw):
    scenario = draw(st.sampled_from(cli.SCENARIOS))
    own = ["--seed"] + ["--" + spec.name.replace("_", "-")
                        for spec in cli.SCENARIO_PARAMS[scenario]]
    # mostly the scenario's own flags, now and then one that does not apply
    flags = draw(st.lists(st.sampled_from(own), unique=True, max_size=len(own)))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(set(FUZZ_FLAGS) - set(own)))))
    argv = ["run", scenario, "--format", draw(st.sampled_from(("csv", "json")))]
    for flag in flags:
        # a spelled-out huge trial count would be a valid, endless run
        hostile = HOSTILE_SMALL if flag == "--trials" else HOSTILE
        # one value in four is hostile, so that many runs get past the checks
        pool = hostile if draw(st.integers(0, 3)) == 0 else FUZZ_FLAGS[flag]
        argv += [flag, draw(st.sampled_from(pool))]
    return argv


@given(argv=cli_runs())
@settings(max_examples=150, deadline=None)
def test_fuzzed_flags_end_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
