import json
import os

import pytest

from elastic_muskat import cli, pressure
from elastic_muskat.cli import (CONFIG_DEFAULTS, build_initial_data,
                                load_config, main)
from elastic_muskat.errors import ConfigError, DegenerateJacobian
from elastic_muskat.grid import PeriodicGrid


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


def test_unknown_config_key_is_exit_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=64, no_such_key=1)
    assert main(["simulate", "--config", cfg, "--quiet"]) == 1
    assert "no_such_key" in capsys.readouterr().err


def test_malformed_json_is_exit_one(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--quiet"]) == 1


def test_separation_precondition_is_exit_one(tmp_path):
    cfg = base_run_cfg(tmp_path, geometry="flat_bottom", h_minus=0.015,
                       modes=[[1, 0.01, 0.0]])
    assert main(["simulate", "--config", cfg, "--quiet"]) == 1


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


def test_every_solver_failure_is_exit_two(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise DegenerateJacobian("min(1 + dH/dz) below floor")
    monkeypatch.setattr(cli, "picard_solve", fail)
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
