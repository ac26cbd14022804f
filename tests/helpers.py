"""Fourier multipliers that only the tests apply, built on numpy's FFT, and
a DN solve on the engine that the solver picks.

The full-spectrum kernels below are the references that the grid's real-FFT
kernels are held to: each works on the fft of all n node values, splits the
unpaired Nyquist coefficient over the modes +-n/2 where it refines and folds
them back where it truncates.  The Littlewood-Paley helpers and the per-term
paradifferential operator are the references of the batched kernels in
grid.py and paracalc.py.
"""

import numpy as np
import pytest

from elastic_muskat.dn import InfiniteDepth, _dn_engines
from elastic_muskat.grid import (Field, _apply_multiplier, _dx_symbol,
                                 _dyadic_sup, _lowpass_profile, _lp_cutoffs)


# the cap of each DN engine, and the error it raises at the cap
DN_CAPS = {"level": ("MAX_ITER", "DN solve not converged"),
           "series": ("SERIES_MAX_ORDER", "DN series not converged")}


def regions(original, cases):
    """pytest params (region, *case) of each (id, case) in both DN engine
    regions, "series" and "level": the ``original`` region's keep the ids
    the cases had before the tests ran on both engines, and the twins'
    take their region's name as a prefix."""
    return [pytest.param(region, *case,
                         id=(case_id if region == original
                             else "%s-%s" % (region, case_id)))
            for region in ("series", "level") for case_id, case in cases]


def engine_solve(eta, f, cfg, geometry, upper=False):
    """(G f, R f, changes) by a converged solve of f on the DN engine that
    the velocity and the pressure solves get for eta: G^- over ``geometry``
    with R f = G^- f - |D| f, or with ``upper`` G^+ over it with
    R f = G^+ f + |D| f.  ``changes`` counts its sweeps or orders."""
    geometries = (InfiniteDepth(), geometry) if upper else (geometry,)
    engine = _dn_engines(eta.grid, eta.values, cfg, geometries)[-1]
    changes, converged = engine.solve(f.values)
    assert converged
    remainder = np.fft.irfft(engine.remainder_hat(), eta.grid.n)
    return (Field(eta.grid, engine.gf()), Field(eta.grid, remainder),
            len(changes))


def fft_wavenumbers(grid):
    """The physical wavenumbers 2*pi*m/L of the full fft, in fft order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.length / grid.n)


def multiplier(f, symbol):
    """The field whose fft-order coefficients are those of f times symbol."""
    return Field(f.grid, np.fft.ifft(np.fft.fft(f.values) * symbol).real)


def inv_abs_d(f):
    """|D|^{-1} f with the zero mode mapped to 0."""
    k = np.abs(fft_wavenumbers(f.grid))
    return multiplier(f, np.divide(1.0, k, out=np.zeros_like(k), where=k > 0))


def abs_d(f, alpha=1.0):
    """|D|^alpha f on the rfft half spectrum; the zero mode is mapped to 0
    unless alpha = 0."""
    k = f.grid.rfft_wavenumbers
    sym = np.where(k > 0, k, 1.0) ** alpha * ((k > 0) | (alpha == 0.0))
    return Field(f.grid, _apply_multiplier(f.values, sym))


def full_dx(f, m):
    """m-th derivative; odd orders zero the Nyquist mode k = -n/2."""
    sym = (1j * fft_wavenumbers(f.grid)) ** m
    if m % 2 == 1:
        sym[f.grid.n // 2] = 0.0
    return multiplier(f, sym)


def full_abs_d(f, alpha):
    """|D|^alpha f; the zero mode is mapped to 0 unless alpha = 0."""
    k = np.abs(fft_wavenumbers(f.grid))
    sym = np.where(k > 0, k, 1.0) ** alpha * ((k > 0) | (alpha == 0.0))
    return multiplier(f, sym)


def full_sobolev_norm(f, s):
    k = fft_wavenumbers(f.grid)
    c = np.fft.fft(f.values) / f.grid.n
    return float(np.sqrt(np.sum((1.0 + k * k) ** s * np.abs(c) ** 2)))


def full_lp_project(f, j):
    """P_j f with the cutoffs C_j - C_{j-1} over the fft wavenumbers."""
    absk = np.abs(fft_wavenumbers(f.grid))
    sym = _lowpass_profile(absk, j)
    if j > 0:
        sym = sym - _lowpass_profile(absk, j - 1)
    return multiplier(f, sym)


def full_refine(values):
    """values interpolated onto the 2x grid by zero-padding."""
    n = len(values)
    c = np.fft.fft(values) / n
    cf = np.zeros(2 * n, dtype=complex)
    half = n // 2
    cf[:half] = c[:half]
    cf[-half + 1:] = c[-half + 1:]
    cf[half] = cf[-half] = 0.5 * c[half]
    return np.fft.ifft(cf * (2 * n)).real


def full_truncate(values, n):
    """The modes |k| <= n/2 of values on n nodes."""
    c = np.fft.fft(values) / len(values)
    half = n // 2
    cc = np.zeros(n, dtype=complex)
    cc[:half] = c[:half]
    cc[half + 1:] = c[-half + 1:]
    cc[half] = c[half] + c[-half]
    return np.fft.ifft(cc * n).real


def lp_blocks(grid):
    """The (J+1, n//2 + 1) Littlewood-Paley block symbols P_0, ..., P_J,
    each cutoff minus the one before it."""
    return np.diff(_lp_cutoffs(grid), axis=0, prepend=0.0)


def lp_project(f, j):
    """The dyadic block P_j f, one transform pair per block."""
    return Field(f.grid, _apply_multiplier(f.values, lp_blocks(f.grid)[j]))


def zygmund_norm(f, s):
    """sup_j 2^{js} ||P_j f||_inf over the grid's dyadic blocks."""
    blocks = _apply_multiplier(f.values, lp_blocks(f.grid))
    return _dyadic_sup(blocks, s)


def paraproduct_values(grid, a, u):
    """T_a u = sum_{j>=2} S_{j-2}(a) P_j(u) from node values, with one
    transform pair for the low-passed a and one for the blocks of u; the
    low-pass cutoffs are the partial sums of the blocks."""
    blocks = lp_blocks(grid)
    low = _apply_multiplier(a, np.cumsum(blocks[:-2], axis=0))
    return np.sum(low * _apply_multiplier(u, blocks[2:]), axis=0)


def para_apply_per_term(sym, u):
    """T_sym u one term at a time: each coefficient's mean times d^m u
    exactly, its fluctuation through the paraproduct with d^m u."""
    grid = u.grid
    out = np.zeros(grid.n)
    u0 = u.values - np.mean(u.values)
    for t in sym.terms:
        mu = _apply_multiplier(u0, _dx_symbol(grid, t.power))
        cbar = float(np.mean(t.coeff.values))
        out = out + cbar * mu \
            + paraproduct_values(grid, t.coeff.values - cbar, mu)
    return Field(grid, out)


def count_real_transforms(monkeypatch):
    """Record every np.fft.rfft and np.fft.irfft call from here on: the
    returned list gains the transform's name at each call."""
    calls = []

    def counting(name, transform):
        def counted(*args, **kwargs):
            calls.append(name)
            return transform(*args, **kwargs)
        return counted

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name,
                            counting(name, getattr(np.fft, name)))
    return calls
