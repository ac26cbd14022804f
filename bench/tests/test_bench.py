"""Tests of the benchmark's own machinery: python3 -m pytest bench/tests"""

import json

import numpy as np
import pytest

import child
import run
import workloads
from elastic_muskat import cli, dn
from elastic_muskat.grid import Field, PeriodicGrid, lipschitz_norms, sobolev_norm
from tracer import Patch, Tracer


# --- workload generator -------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.SIMULATE))
def test_simulate_inputs_are_deterministic_and_inside_gates(workload):
    spec = workloads.SIMULATE[workload]
    amps = workloads.simulate_amplitudes(spec)
    bound = workloads.lipschitz_bound(amps)
    assert bound < workloads.LIPSCHITZ_GATE
    configs = []
    for seed in range(6):
        cfg = workloads.simulate_config(workload, seed)
        assert cfg == workloads.simulate_config(workload, seed)
        configs.append(json.dumps(cfg, sort_keys=True))
        full = dict(cli.CONFIG_DEFAULTS, **cfg)
        eta0 = cli.build_initial_data(full, PeriodicGrid(cfg["n"]))
        assert lipschitz_norms(eta0)[1] <= bound
        if cfg["phase"] == "two":
            assert sobolev_norm(eta0, 2.0) == pytest.approx(
                workloads.h2_norm(amps), rel=1e-9)
            assert sobolev_norm(eta0, 2.0) < workloads.PRESSURE_GATE
    assert len(set(configs)) == len(configs)


def test_referee_inputs_are_deterministic_and_inside_gates():
    grid = PeriodicGrid(workloads.REFEREE_N)
    seen = set()
    for seed in range(6):
        a = workloads.referee_inputs(seed)
        b = workloads.referee_inputs(seed)
        for key in a:
            assert np.array_equal(a[key], b[key])
        seen.add(a["eta_dn"].tobytes())
        assert lipschitz_norms(Field(grid, a["eta_dn"]))[1] \
            <= workloads.lipschitz_bound(
                workloads.profile(workloads.REFEREE_DN_AMPLITUDE, 3)) \
            < workloads.LIPSCHITZ_GATE
        assert sobolev_norm(Field(grid, a["eta_pressure"]), 2.0) \
            < workloads.PRESSURE_GATE
    assert len(seen) == 6


def test_seed_must_be_a_non_negative_integer():
    with pytest.raises(ValueError):
        workloads.simulate_config("one_phase_n128", -1)


# --- tracer -------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("low", lambda: None)
    inner.__name__ = "inner"

    def outer():
        inner()
        inner()

    tracer.wrap("high", outer)()
    # clock reads: outer 0, inner 1-2, inner 3-4, outer end 5
    assert tracer.self_s == {"low": 2.0, "high": 3.0}
    assert tracer.inclusive_s["high.outer"] == 5.0
    outer_span = [s for s in tracer.spans if s[2] == "high.outer"][0]
    assert outer_span[1] is None
    assert all(s[1] == outer_span[0] for s in tracer.spans if s is not outer_span)


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("layer", boom)()
    assert tracer.calls["layer.boom"] == 1 and tracer.current is None


def test_instrumentation_counts_and_is_undone():
    patch = Patch("elastic_muskat")
    before = {(m.__name__, k): v for m in patch.modules()
              for k, v in vars(m).items()}
    post_init = Field.__dict__["__post_init__"]
    tracer = Tracer()
    interfaces = child.instrument(tracer, patch)
    watch = child.Watch(patch, tracer)
    try:
        assert cli.solve is not before[("elastic_muskat.cli", "solve")]
        grid = PeriodicGrid(16)
        eta = Field(grid, 0.01 * np.cos(grid.nodes))
        dn.dn_upper(eta, Field(grid, np.sin(grid.nodes)),
                    dn.DNConfig(n_levels=8))
    finally:
        patch.undo()
    assert tracer.calls["dn.dn_upper"] == 1
    assert tracer.calls["dn.dn_fixed_point"] == 1
    assert len(interfaces) == 1 and watch.unconverged == []
    assert tracer.counts["grid.fields_built"] > 0
    after = {(m.__name__, k): v for m in patch.modules()
             for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert Field.__dict__["__post_init__"] is post_init


# --- output checks and failure accounting ------------------------------------


def tiny_run(tmp_path, steps=2):
    cfg = {"n": 16, "dt": 1e-3, "T": steps * 1e-3, "dn_levels": 8,
           "modes": [[1, 0.01, 0.0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--output", str(out),
                     "--quiet"]) == 0
    return cfg, out


def record(problems=(), unconverged=(), traced=False, scale=1.0):
    rec = {"problems": list(problems), "unconverged": list(unconverged),
           "traced": traced, "spawn": 10.0, "maxrss_kb": 1024}
    # wall and CPU stamps: entry, two ops of 1 and 2 (CPU 0.5 and 1), exit
    stamps = [[10.5 + scale * t, scale * c] for t, c in
              ((0.0, 0.0), (1.0, 0.5), (3.0, 1.5), (3.5, 1.5))]
    run.timings(rec, stamps[0], stamps[:3], stamps[3])
    return rec


def test_broken_output_is_counted_in_fail_share(tmp_path):
    cfg, out = tiny_run(tmp_path)
    rec = {"exit": 0}
    assert run.check_simulate(rec, str(out), cfg, 2) == []
    monitors = out / "monitors.csv"
    rows = monitors.read_text().splitlines()
    rows[-1] = ",".join(["nan"] + rows[-1].split(",")[1:])
    monitors.write_text("\n".join(rows) + "\n")
    problems = run.check_simulate(rec, str(out), cfg, 2)
    assert problems and "nan" in problems[0]
    assert run.check_simulate(rec, str(out), cfg, 3)   # too few steps
    res = run.summarize([record(), record(problems)], 2, 1e-6, trace=0)
    assert (res["attempted"], res["failed"], res["correct"]) == (4, 2, False)


def test_unconverged_solves_fail_their_ops():
    res = run.summarize([record(unconverged=[0, 0]), record()], 2, 1e-6, 0)
    assert (res["attempted"], res["failed"], res["correct"]) == (4, 1, False)
    assert run.summarize([record(), record()], 2, 1e-6, 0)["correct"]


def test_referee_deviation_above_tolerance_is_a_problem():
    ok = {"dn_dev": 1e-4, "pressure_dev": 1e-10}
    assert run.check_referee(ok) == []
    assert run.check_referee(dict(ok, pressure_dev=1e-6))
    assert run.check_referee(dict(ok, dn_dev=float("nan")))


def test_p90_needs_ten_samples_beyond():
    assert run.p90(list(range(50))) is None
    assert run.p90(list(range(101))) == pytest.approx(90.0)


def test_timings_are_medians_of_whole_ops():
    rec = record(scale=2.0)
    assert rec["ops"] == [2.0, 4.0] and rec["work"] == 7.0
    assert rec["setup"] == pytest.approx(0.5)
    res = run.summarize([record(scale=1.0), record(scale=1.2), rec,
                         record(traced=True, scale=9.0)], 2, 1e-6, trace=0)
    assert res["samples"] == 6 and res["processes"] == 4
    assert res["setup_s"] == pytest.approx(0.5)
    assert res["op_ms_p50"] == pytest.approx(1e3 * (2.0 + 2.0) / 2)
    assert res["ops_per_s"] == pytest.approx(6 / (3.5 * (1.0 + 1.2 + 2.0)))
    assert res["cpu_share"] == pytest.approx(0.5)


def test_layer_figures_are_per_op_totals():
    def traced(dn_s):
        return {"bytes": 100, "trace": {
            "calls": {"dn.dn_fixed_point": 2}, "counts": {"dn.picard_iters": 10},
            "self_s": {"dn": dn_s}, "inclusive_s": {}, "interfaces": 2}}
    m = run.layer_metrics([traced(0.4), traced(0.2)], ops=4)
    assert (m["dn.calls"], m["dn.picard_iters"], m["dn.iters_per_call"]) \
        == (1.0, 5.0, 5.0)
    assert m["dn.self_s"] == pytest.approx(0.15)
    assert m["dn.ms_per_iter"] == pytest.approx(30.0)
    assert (m["dn.solves_per_eta"], m["serialization.bytes"]) == (1.0, 50.0)
