"""Fourier multipliers that only the tests apply, built on numpy's FFT."""

import numpy as np

from elastic_muskat.grid import Field


def multiplier(f, symbol):
    """The field whose fft-order coefficients are those of f times symbol."""
    return Field(f.grid, np.fft.ifft(np.fft.fft(f.values) * symbol).real)


def inv_abs_d(f):
    """|D|^{-1} f with the zero mode mapped to 0."""
    k = np.abs(f.grid.wavenumbers)
    return multiplier(f, np.divide(1.0, k, out=np.zeros_like(k), where=k > 0))
