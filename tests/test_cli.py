import csv
import io
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from elastic_muskat import evolution, pressure
from elastic_muskat.cli import (CONFIG_DEFAULTS, build_initial_data,
                                load_config, main)
from elastic_muskat.errors import ConfigError, DegenerateJacobian
from elastic_muskat.evolution import Trajectory
from elastic_muskat.grid import Field, PeriodicGrid
from elastic_muskat.serialization import fmt, write_trajectory


def write_cfg(tmp_path, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(overrides))
    return str(path)


def base_run_cfg(tmp_path, **extra):
    extra.setdefault("n", 64)
    extra.setdefault("T", 0.05)
    extra.setdefault("dt", 0.025)
    extra.setdefault("modes", [[1, 0.01, 0.0]])
    extra.setdefault("output_dir", str(tmp_path / "out"))
    return write_cfg(tmp_path, **extra)


def test_simulate_succeeds_and_writes_outputs(tmp_path):
    cfg = base_run_cfg(tmp_path)
    assert main(["simulate", "--config", cfg, "--quiet"]) == 0
    out = tmp_path / "out"
    assert (out / "manifest.json").exists()
    assert (out / "monitors.csv").exists()
    assert (out / "state_000000.csv").exists()
    assert (out / "state_000002.csv").exists()


def test_snapshot_stride_keeps_the_final_state(tmp_path):
    # 10 steps at stride 3: states 0, 3, 6, 9 and the state at T
    cfg = base_run_cfg(tmp_path, T=0.01, dt=0.001, snapshot_stride=3)
    assert main(["simulate", "--config", cfg, "--quiet"]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.glob("state_*.csv")) == [
        "state_%06d.csv" % i for i in (0, 3, 6, 9, 10)]
    rows = (out / "monitors.csv").read_text().splitlines()
    assert len(rows) == 12 and rows[-1].startswith("0.01,")


def test_snapshot_stride_keeps_the_offending_state(tmp_path, monkeypatch):
    # the fifth step drops the interface near the bottom: the run aborts
    # with that state last, and it is written although 3 does not divide 5
    etd_step, calls = evolution.etd_step, []

    def sinking_step(eta, *args, **kwargs):
        calls.append(None)
        out = etd_step(eta, *args, **kwargs)
        return Field(out.grid, out.values - 0.8) if len(calls) == 5 else out
    monkeypatch.setattr(evolution, "etd_step", sinking_step)
    cfg = base_run_cfg(tmp_path, T=0.01, dt=0.001, snapshot_stride=3,
                       geometry="flat_bottom", h_minus=1.0)
    assert main(["simulate", "--config", cfg, "--quiet"]) == 2
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["abort_reason"].startswith("SeparationLost")
    assert manifest["steps"] == 5
    assert sorted(p.name for p in out.glob("state_*.csv")) == [
        "state_%06d.csv" % i for i in (0, 3, 5)]
    last = np.loadtxt(out / "state_000005.csv", delimiter=",", skiprows=1)
    assert np.max(last[:, 1]) < -0.7


SCIPY_FREE_RUNS = textwrap.dedent("""
    import json, os, sys
    import numpy as np
    import elastic_muskat
    from elastic_muskat import cli
    assert "numpy.fft" in sys.modules   # loaded with the package, not a step
    out = sys.argv[1]
    base = {"n": 32, "T": 0.002, "dt": 0.001, "modes": [[1, 0.01, 0.0]]}
    two = dict(base, phase="two", g=1.0, mu_plus=1.0, rho_minus=2.0,
               rho_plus=1.0, geometry="flat_bottom", h_minus=1.0)
    for name, cfg in (("one", base), ("two", two)):
        path = os.path.join(out, name + ".json")
        with open(path, "w") as fh:
            json.dump(dict(cfg, output_dir=os.path.join(out, name)), fh)
        assert cli.main(["simulate", "--config", path, "--quiet"]) == 0
    for suite in ("dispersion", "dn"):
        assert cli.main(["verify", suite, "--quiet",
                         "--output", os.path.join(out, suite)]) == 0
    from elastic_muskat.dn import FlatStrip, InfiniteDepth
    from elastic_muskat.dn_oracle import oracle_dn
    from elastic_muskat.grid import Field, PeriodicGrid
    grid = PeriodicGrid(32)
    eta = Field(grid, 0.05 * np.sin(grid.nodes))
    for geometry in (InfiniteDepth(), FlatStrip(1.0)):
        oracle_dn(eta, Field(grid, np.cos(grid.nodes)), geometry)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    import scipy.sparse
    print(json.dumps({"loaded": loaded,
                      "probe": "scipy.sparse" in sys.modules}))
""")


def test_simulate_and_dispersion_never_load_scipy(tmp_path):
    # no program path loads scipy, the FD referee's included; a fresh
    # interpreter shows what a run imports, which this test process (scipy
    # already loaded) cannot
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUNS,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["loaded"] == []
    assert loaded["probe"]      # the check does see a scipy import


def test_simulate_manifest_records_config_and_version(tmp_path):
    cfg = base_run_cfg(tmp_path)
    main(["simulate", "--config", cfg, "--quiet"])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["version"]
    assert manifest["config"]["n"] == 64
    assert manifest["config"]["scheme"] == "ETDRK2"   # default filled in


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = base_run_cfg(tmp_path, tail_amplitude=1e-3, seed=11)
    main(["simulate", "--config", cfg, "--quiet"])
    first = (tmp_path / "out" / "state_000002.csv").read_bytes()
    main(["simulate", "--config", cfg, "--quiet"])
    assert (tmp_path / "out" / "state_000002.csv").read_bytes() == first


def test_trajectory_csvs_write_each_value_in_17_digits(tmp_path):
    # a monitor keeps nan and the sign of inf; a state row is what csv.writer
    # writes for the fmt of each node and value
    grid = PeriodicGrid(8)
    values = np.random.default_rng(3).standard_normal(8) * 10.0 ** np.arange(
        -150, 150, 40)
    values[:2] = -0.0, 2.0 / 3.0
    monitors = [{"t": 0.0, "lipschitz": np.nan, "mean": -np.inf,
                 "boundary_distance": np.inf}]
    traj = Trajectory(times=[0.0], states=[Field(grid, values)],
                      monitors=monitors)
    write_trajectory(str(tmp_path), traj, {}, "0")
    assert (tmp_path / "monitors.csv").read_bytes() == \
        b"t,lipschitz,mean,boundary_distance\r\n0,nan,-inf,inf\r\n"
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x", "value"])
    writer.writerows([fmt(x), fmt(v)] for x, v in zip(grid.nodes, values))
    assert (tmp_path / "state_000000.csv").read_bytes() \
        == expected.getvalue().encode()


def test_unknown_config_key_is_exit_one(tmp_path, capsys):
    # "experiment" selects nothing: simulate is the only run there is
    for key, value in (("no_such_key", 1), ("experiment", "stability")):
        cfg = write_cfg(tmp_path, n=64, **{key: value})
        assert main(["simulate", "--config", cfg, "--quiet"]) == 1
        assert "unknown config key %r" % key in capsys.readouterr().err


def test_malformed_json_is_exit_one(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--quiet"]) == 1


def test_separation_precondition_is_exit_one(tmp_path):
    cfg = base_run_cfg(tmp_path, geometry="flat_bottom", h_minus=0.015,
                       modes=[[1, 0.01, 0.0]])
    assert main(["simulate", "--config", cfg, "--quiet"]) == 1


@pytest.mark.parametrize("geometry", [
    {"geometry": "bottomless", "h_minus": 1.0},   # depth without a bottom
    {"geometry": "bottomless", "h_plus": 1.0},    # one-phase top wall
])
def test_contradictory_geometry_is_exit_one(tmp_path, capsys, geometry):
    cfg = base_run_cfg(tmp_path, **geometry)
    assert main(["simulate", "--config", cfg, "--quiet"]) == 1
    assert "h_" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_top_separation_precondition_is_exit_one(tmp_path):
    cfg = base_run_cfg(tmp_path, phase="two", mu_plus=1.0, geometry="flat_top",
                       h_plus=0.015, modes=[[1, 0.01, 0.0]])
    assert main(["simulate", "--config", cfg, "--quiet"]) == 1


def test_pressure_failure_is_exit_two(tmp_path, monkeypatch):
    # an unconverged pressure solve aborts the run; it is not replaced
    monkeypatch.setattr(pressure, "MAX_ITER", 1)
    cfg = base_run_cfg(tmp_path, phase="two", mu_plus=1.0)
    assert main(["simulate", "--config", cfg, "--quiet"]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["abort_reason"].startswith("NotContracting")
    assert (tmp_path / "out" / "state_000000.csv").exists()


def test_picard_gate_abort_is_exit_two(tmp_path):
    cfg = base_run_cfg(tmp_path, scheme="picard", modes=[[1, 1.0, 0.0]])
    assert main(["simulate", "--config", cfg, "--quiet"]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "smallness gate" in manifest["abort_reason"]


def test_picard_abort_writes_the_etd_record(tmp_path):
    # an abort at the smallness gate writes the monitors and manifest an
    # ETD run writes, with the initial state
    etd = base_run_cfg(tmp_path, output_dir=str(tmp_path / "etd"))
    assert main(["simulate", "--config", etd, "--quiet"]) == 0
    cfg = base_run_cfg(tmp_path, scheme="picard", modes=[[1, 1.0, 0.0]])
    assert main(["simulate", "--config", cfg, "--quiet"]) == 2
    out, ref = tmp_path / "out", tmp_path / "etd"
    header = (out / "monitors.csv").read_text().splitlines()[0]
    assert header == (ref / "monitors.csv").read_text().splitlines()[0]
    assert len((out / "monitors.csv").read_text().splitlines()) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    etd_manifest = json.loads((ref / "manifest.json").read_text())
    assert set(manifest) == set(etd_manifest)
    assert manifest["steps"] == 0 and manifest["scheme"] == "picard"
    assert (out / "state_000000.csv").exists()
    assert not (out / "state_000001.csv").exists()


@pytest.mark.parametrize("bad", [
    {"scheme": "RK4"},
    {"scheme": "picard", "phase": "two", "mu_plus": 1.0},
    {"T": 0.0},
    {"T": -1.0},
    {"dt": 0.0},
    {"dt": -0.01},
    {"n": 63},
    {"n": 128.5},
    {"T": True},
    {"dn_tol": 0},
    {"dn_levels": 1},
    {"dn_levels": 64.5},
    {"monitor_s": []},
    {"snapshot_stride": 0},
    {"sigma": "1"},
    {"lipschitz_gate": "x"},
    {"tail_decay": "a", "tail_amplitude": 1e-3},
    {"modes": [[1, "0.01", 0.0]]},
    {"seed": -1, "tail_amplitude": 1e-3},
    {"allow_unstable": "no"},
    {"modes": 5},
    {"lipschitz_gate": 0},
    {"lipschitz_gate": -0.1},
    # json.load takes NaN and Infinity; no number setting may be either
    {"g": float("nan")},
    {"g": float("inf")},
    {"modes": [[1, float("nan"), 0.0]]},
    {"tail_amplitude": float("nan")},
    {"dn_tol": float("inf")},
    {"dt": float("inf")},
    # a negative depth is no wall at all, not a silently bottomless run
    {"h_minus": -1.0, "h_plus": -3.0},
    # a negative tail would run as no tail at all
    {"tail_amplitude": -1e-3},
])
def test_invalid_run_settings_are_exit_one(tmp_path, capsys, bad):
    cfg = base_run_cfg(tmp_path, **bad)
    assert main(["simulate", "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_missing_dt_is_exit_one(tmp_path, capsys):
    # there is no default step: the stiffness bound took billions of steps
    cfg = write_cfg(tmp_path, n=64, T=0.05, modes=[[1, 0.01, 0.0]],
                    output_dir=str(tmp_path / "out"))
    assert main(["simulate", "--config", cfg, "--quiet"]) == 1
    assert "dt must be a positive number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_solver_failure_is_exit_two(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise DegenerateJacobian("min(1 + dH/dz) below floor")
    monkeypatch.setattr(evolution, "picard_solve", fail)
    cfg = base_run_cfg(tmp_path, scheme="picard")
    assert main(["simulate", "--config", cfg, "--quiet"]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["abort_reason"].startswith("DegenerateJacobian")
    assert (tmp_path / "out" / "state_000000.csv").exists()


def test_verify_writes_report_and_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "rep")
    assert main(["verify", "gateaux", "--output", out]) == 0
    captured = capsys.readouterr().out
    assert "pass" in captured
    report = (tmp_path / "rep" / "report.csv").read_text().splitlines()
    header = report[0].split(",")
    for col in ("check", "expected", "measured", "tolerance", "pass"):
        assert col in header
    assert len(report) > 1


def test_verify_unknown_suite_is_exit_one(tmp_path):
    assert main(["verify", "nonsense", "--output", str(tmp_path),
                 "--quiet"]) == 1


def test_load_config_fills_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, n=32))
    assert cfg["n"] == 32
    assert cfg["sigma"] == CONFIG_DEFAULTS["sigma"]
    assert set(cfg) == set(CONFIG_DEFAULTS)


def test_initial_data_mode_validation():
    grid = PeriodicGrid(32)
    cfg = dict(CONFIG_DEFAULTS, modes=[[40, 0.1, 0.0]])
    with pytest.raises(ConfigError):
        build_initial_data(cfg, grid)
    cfg = dict(CONFIG_DEFAULTS, modes=[[1, 0.1]])
    with pytest.raises(ConfigError):
        build_initial_data(cfg, grid)
