"""Seeded workload inputs.

Every input the benchmark hands to the program is made here from
``(workload, seed)`` with numpy alone, so the inputs do not change when the
program does.  The gates the program enforces hold by construction:

* the W^{1+1/2,inf} Lipschitz proxy of an interface sum_k a_k cos(kx + p_k)
  is at most sum_k k |a_k| (1 + sqrt(2k)) whatever the phases (each
  Littlewood-Paley block P_j keeps modes with 2^(j-1) <= k, so
  2^(j/2) <= sqrt(2k)), and the amplitudes below keep that bound under the
  DN gate of 0.3;
* the H^2 norm, the two-phase pressure gate, does not depend on the phases
  at all, so it is fixed by the amplitudes.

Seeds translate a fixed base profile and draw the phases of a small tail.
The solver is translation covariant, so the accuracy figure ``rel_err``
barely moves between seeds while the inputs still differ.  The referee
interface is the same profile, translated.
"""

import hashlib
import json

import numpy as np

DT = 1e-3
LIPSCHITZ_GATE = 0.3     # DNConfig.lipschitz_gate
PRESSURE_GATE = 0.1      # PressureConfig.smallness_gate, on ||eta||_H2

# relative phases of the base profile's modes k = 1, 2, 3, 4
BASE_PHASES = (0.0, 1.0, 2.5, 4.0)

SIMULATE = {
    "one_phase_n128": {
        "steps": 10, "n": 128, "kmax": 4, "amplitude": 0.03, "tail": 2e-4,
        "physics": {"phase": "one", "geometry": "bottomless"},
    },
    "one_phase_n512_strip": {
        "steps": 5, "n": 512, "kmax": 4, "amplitude": 0.03, "tail": 5e-5,
        "physics": {"phase": "one", "geometry": "flat_bottom",
                    "h_minus": 1.0},
    },
    "two_phase_n128": {
        "steps": 3, "n": 128, "kmax": 3, "amplitude": 0.03, "tail": 0.0,
        "physics": {"phase": "two", "geometry": "bottomless",
                    "mu_minus": 1.0, "mu_plus": 1.0,
                    "rho_minus": 2.0, "rho_plus": 1.0},
    },
}

REFEREE = "referee"
REFEREE_N = 128
REFEREE_DN_AMPLITUDE = 0.05
REFEREE_PRESSURE_AMPLITUDE = 1e-3
# tolerances the verify suites state for the same comparisons
DN_TOL = 1e-3
PRESSURE_TOL = 1e-8
REFEREE_PHYSICS = {"sigma": 1.0, "g": 1.0, "mu_minus": 1.0, "mu_plus": 1.0,
                   "rho_minus": 2.0, "rho_plus": 1.0, "phase": "two"}

WORKLOADS = tuple(SIMULATE) + (REFEREE,)


def _rng(workload, seed, *extra):
    if not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.default_rng([WORKLOADS.index(workload), seed, *extra])


def lipschitz_bound(amplitudes):
    """Phase-independent bound on the Lipschitz proxy; amplitudes[k-1] is a_k."""
    k = np.arange(1, len(amplitudes) + 1)
    return float(np.sum(k * np.abs(amplitudes) * (1.0 + np.sqrt(2.0 * k))))


def h2_norm(amplitudes):
    """||sum_k a_k cos(kx + p_k)||_H2 on the 2 pi torus, for any phases."""
    k = np.arange(1, len(amplitudes) + 1)
    return float(np.sqrt(np.sum((1.0 + k * k) ** 2 * np.square(amplitudes)) / 2))


def profile(amplitude, kmax):
    """Base amplitudes a_k = amplitude / k^2, k = 1..kmax."""
    k = np.arange(1, kmax + 1)
    return amplitude / k ** 2.0


def simulate_amplitudes(spec):
    """All mode amplitudes of a simulate input, tail included (decay 2)."""
    amps = np.zeros(spec["n"] // 4)
    amps[:spec["kmax"]] = profile(spec["amplitude"], spec["kmax"])
    k = np.arange(1, spec["n"] // 4)
    amps[:len(k)] += spec["tail"] * k ** -2.0
    return amps


def simulate_config(workload, seed):
    """The ``muskat simulate`` config for one seed (output_dir is set later)."""
    spec = SIMULATE[workload]
    amps = simulate_amplitudes(spec)
    if lipschitz_bound(amps) >= LIPSCHITZ_GATE:
        raise ValueError("%s amplitudes exceed the Lipschitz gate" % workload)
    if spec["physics"]["phase"] == "two" and h2_norm(amps) >= PRESSURE_GATE:
        raise ValueError("%s amplitudes exceed the pressure gate" % workload)
    rng = _rng(workload, seed)
    shift = float(rng.uniform(0.0, 2.0 * np.pi))
    base = profile(spec["amplitude"], spec["kmax"])
    modes = [[k, float(base[k - 1]),
              float((BASE_PHASES[k - 1] + k * shift) % (2.0 * np.pi))]
             for k in range(1, spec["kmax"] + 1)]
    cfg = {"n": spec["n"], "sigma": 1.0, "g": 1.0, "scheme": "ETDRK2",
           "dt": DT, "T": spec["steps"] * DT, "dn_levels": 64,
           "dn_tol": 1e-10, "modes": modes,
           "tail_amplitude": spec["tail"], "tail_decay": 2.0,
           "seed": int(rng.integers(2 ** 31)), "snapshot_stride": 1}
    cfg.update(spec["physics"])
    return cfg


def config_digest(cfg):
    """Digest of a config, stored beside each reference to detect drift."""
    text = json.dumps({k: v for k, v in cfg.items() if k != "output_dir"},
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def referee_inputs(seed):
    """Arrays for the referee comparison of ``seed``.

    eta is the base profile's modes k <= 3 and f a fixed datum with modes
    k <= 2, both moved sideways by the seed.  f stops at k = 2: at the FD
    referee's default resolution its own error for a k = 3 datum is about
    1.8e-3, above the 1e-3 tolerance, so a k = 3 datum would test the
    referee rather than the solver.
    """
    shift = float(_rng(REFEREE, seed).uniform(0.0, 2.0 * np.pi))
    x = np.arange(REFEREE_N) * (2.0 * np.pi / REFEREE_N)
    shape = np.zeros(REFEREE_N)
    for k, a in enumerate(profile(1.0, 3), start=1):
        shape += a * np.cos(k * (x + shift) + BASE_PHASES[k - 1])
    f = np.cos(x + shift + 0.5) + 0.5 * np.cos(2.0 * (x + shift) + 2.0)
    if lipschitz_bound(profile(REFEREE_DN_AMPLITUDE, 3)) >= LIPSCHITZ_GATE:
        raise ValueError("referee amplitude exceeds the Lipschitz gate")
    if h2_norm(profile(REFEREE_PRESSURE_AMPLITUDE, 3)) >= PRESSURE_GATE:
        raise ValueError("referee amplitude exceeds the pressure gate")
    return {"eta_dn": REFEREE_DN_AMPLITUDE * shape, "f": f,
            "eta_pressure": REFEREE_PRESSURE_AMPLITUDE * shape}
