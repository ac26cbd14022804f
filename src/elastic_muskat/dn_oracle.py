"""Independent finite-difference oracle for the Dirichlet-Neumann operator.

Second-order centered differences on the linearly flattened domain
x in [0, L) x z in [-Z, 0], with sigma coordinates

    y = rho(x, z) = z (Z + eta(x)) / Z + eta(x),

Dirichlet data on top and, at the bottom, one row of the one-sided
second-order d_z per node: the flat-bottom Neumann condition of a strip, or
the lift-matched Robin condition (d_z - |D|) v = 0 of a truncated infinite
depth.  The discretization is deliberately different from the spectral fixed
point so agreement between the two is evidence, not tautology.

The 9-point stencil A is never assembled: its coefficients are arrays over
the interior nodes, and A v is formed from shifted copies of v (periodic
shifts in x, slices in z).  The Robin term is left out of A; the Robin |D|
acts on the bottom row through an rfft.  The system is solved by defect
correction, v <- v + P^{-1}(rhs - A v), where P is the same stencil at
eta = 0, the separable part of the problem (Concus & Golub, SIAM J. Numer.
Anal. 10, 1973).  P has constant coefficients in x, so in rfft modes it is
one tridiagonal z-system per mode once the bottom row is reduced, and all of
them are solved together by elimination without pivoting (Golub & Van Loan,
Matrix Computations, sec. 4.3), vectorised over the modes.  By
errors.iterate it stops once max|dv| / max|v| is below TOL, after 11-25
corrections for bottomless slopes up to 0.4, and raises NotContracting
after MAX_ITER corrections or when they stop shrinking: over a strip the
contraction is lost near eta/h = 0.3.

The referee needs numpy alone, as the rest of the package does; only the
tests load scipy, to hold the stencil and the flat solve to a sparse
assembly and a direct LU.
"""

from typing import NamedTuple

import numpy as np

from .dn import FlatStrip, InfiniteDepth
from .errors import NotContracting, iterate
from .grid import Field

TOL = 1e-13
MAX_ITER = 60


def _fd_periodic_derivs(vals, dxs):
    d1 = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * dxs)
    d2 = (np.roll(vals, -1) - 2 * vals + np.roll(vals, 1)) / dxs ** 2
    return d1, d2


class _Stencil(NamedTuple):
    """The 9-point stencil's coefficients on the interior levels.

    Each array is (nz - 2, nx): ``up`` and ``down`` multiply the level
    above and below, ``centre`` the node itself and ``mixed`` the cross
    difference; the x neighbours take ``dx2_inv``.
    """

    dx2_inv: float
    dz: float
    up: np.ndarray
    down: np.ndarray
    centre: np.ndarray
    mixed: np.ndarray

    def apply(self, v, out=None, work=None):
        """The stencil times v, (nz, nx): the 9-point rows on the interior
        levels, the one-sided d_z on the bottom row and v on the top row.
        The x neighbours are periodic shifts and the z neighbours slices.
        ``out`` and ``work``, (3, nz, nx), are optional working arrays, so
        that repeated products allocate nothing."""
        if out is None:
            out = np.empty_like(v)
        east, west, prod = np.empty((3,) + v.shape) if work is None else work
        east[:, :-1], east[:, -1] = v[:, 1:], v[:, 0]   # v at x-node j + 1
        west[:, 1:], west[:, 0] = v[:, :-1], v[:, -1]   # v at x-node j - 1
        inner, prod = out[1:-1], prod[1:-1]
        np.add(east[1:-1], west[1:-1], out=inner)
        inner *= self.dx2_inv
        for coef, level in ((self.centre, v[1:-1]), (self.up, v[2:]),
                            (self.down, v[:-2])):
            inner += np.multiply(coef, level, out=prod)
        # v(i+1, j-1) + v(i-1, j+1) - v(i+1, j+1) - v(i-1, j-1)
        west -= east
        np.subtract(west[2:], west[:-2], out=prod)
        inner += np.multiply(self.mixed, prod, out=prod)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2 * self.dz)
        out[-1] = v[-1]
        return out


def _stencil(eta_vals, nx, nz, Z, length):
    """The stencil on nz levels from z = -Z to 0, with eta_x and J.

    Node (i, j) is level i from the bottom and x-node j.  The bottom row
    holds the one-sided d_z alone and the top row the identity; the Robin
    |D| is left to the caller.
    """
    dxs = length / nx
    dz = Z / (nz - 1)
    zs = -Z + dz * np.arange(nz)

    ex, exx = _fd_periodic_derivs(eta_vals, dxs)
    J = (Z + eta_vals) / Z                       # d rho / d z, x only
    alpha = ex[None, :] * (1.0 + zs[:, None] / Z)  # d rho / d x
    beta = alpha / J[None, :]
    beta_z = ex[None, :] / (Z * J[None, :]) * np.ones((nz, 1))
    beta_x = (1.0 + zs[:, None] / Z) * (exx[None, :] * J[None, :]
                                        - ex[None, :] ** 2 / Z) / J[None, :] ** 2

    # v_xx - 2 beta v_xz + (beta^2 + 1/J^2) v_zz - (beta_x - beta beta_z) v_z = 0
    czz = beta ** 2 + 1.0 / J[None, :] ** 2
    cz = -(beta_x - beta * beta_z)

    b, czz, cz = beta[1:-1], czz[1:-1], cz[1:-1]
    stencil = _Stencil(
        dx2_inv=1.0 / dxs ** 2, dz=dz,
        up=czz / dz ** 2 + cz / (2 * dz),
        down=czz / dz ** 2 - cz / (2 * dz),
        centre=-2.0 / dxs ** 2 - 2.0 * czz / dz ** 2,
        mixed=2.0 * b / (4 * dxs * dz))
    return stencil, ex, J


def _flat_solver(nx, nz, dz, dxs, bottom_k):
    """Solver of the eta = 0 stencil: one tridiagonal z-system per rfft mode.

    The systems are the columns of an (nz, nx // 2 + 1) array, bottom to
    top, the layout of np.fft.rfft(r, axis=1).  Interior rows are 1/dz^2,
    -2/dz^2 - lam_q, 1/dz^2 with the centered second difference's symbol
    lam_q = (4/dx^2) sin^2(pi q/nx); the top row is the identity.  The
    bottom row, the one-sided d_z minus bottom_k[q], has three entries;
    less dz/2 times the first interior row it has two, -1/dz - bottom_k[q]
    and 1/dz - lam_q dz/2.  Elimination runs from the top row down: each
    interior pivot p = d - c^2/p' has |p| >= c = 1/dz^2, as |d| >= 2c, so no
    pivoting is needed, and the bottom pivot is -1/Z for a strip's mode 0.
    The pivots do not depend on eta; the returned solve(g) overwrites g.
    """
    nm = nx // 2 + 1
    lam = (4.0 / dxs ** 2) * np.sin(np.pi * np.arange(nm) / nx) ** 2
    c = 1.0 / dz ** 2
    diag = -2.0 * c - lam
    pivot = np.empty((nz, nm))
    pivot[-1] = 1.0
    pivot[-2] = diag
    for i in range(nz - 3, 0, -1):
        pivot[i] = diag - c * c / pivot[i + 1]
    bottom_up = 1.0 / dz - 0.5 * dz * lam       # the reduced row's v_1 entry
    pivot[0] = -1.0 / dz - bottom_k - bottom_up * c / pivot[1]
    # row i less elim[i] times row i + 1 drops v_{i+1}; after the division
    # by the pivots, row i less below[i] times v_{i-1} is v_i.  Both are
    # complex, as the rows are: numpy multiplies real by complex at half speed
    elim = np.empty((nz - 1, nm), complex)
    elim[0] = bottom_up / pivot[1]
    elim[1:] = c / pivot[2:]
    below = (c / pivot).astype(complex)
    inv_pivot = 1.0 / pivot
    elim_rows, below_rows = list(elim), list(below)
    tmp = np.empty(nm, complex)

    def solve(g):
        rows = list(g)
        rows[0] += (0.5 * dz) * rows[1]
        for i in range(nz - 2, -1, -1):
            np.multiply(elim_rows[i], rows[i + 1], out=tmp)
            np.subtract(rows[i], tmp, out=rows[i])
        g *= inv_pivot
        for i in range(1, nz - 1):
            np.multiply(below_rows[i], rows[i - 1], out=tmp)
            np.subtract(rows[i], tmp, out=rows[i])
        return g

    return solve


def _defect_correction(stencil, rhs, nx, nz, dz, dxs, bottom_k):
    """Solve (A - bottom_k(|D|) on the bottom row) v = rhs, where A is the
    stencil's action; v is (nz, nx).

    bottom_k holds the Robin multiplier per rfft mode, zero for Neumann.
    Each correction writes into the same working arrays.
    """
    flat_solve = _flat_solver(nx, nz, dz, dxs, bottom_k)
    rhs = rhs.reshape(nz, nx)
    v = np.zeros((nz, nx))
    resid, dv = np.empty((nz, nx)), np.empty((nz, nx))
    work = np.empty((3, nz, nx))
    resid_hat = np.empty((nz, nx // 2 + 1), complex)

    def correct():
        stencil.apply(v, out=resid, work=work)
        resid[0] -= np.fft.irfft(bottom_k * np.fft.rfft(v[0]), nx)
        np.subtract(rhs, resid, out=resid)
        np.fft.rfft(resid, axis=1, out=resid_hat)
        np.fft.irfft(flat_solve(resid_hat), nx, axis=1, out=dv)
        np.add(v, dv, out=v)
        return np.max(np.abs(dv)) / max(np.max(np.abs(v)), 1e-300)

    _, converged = iterate(correct, TOL, MAX_ITER, 5, "FD referee")
    if not converged:
        raise NotContracting("FD referee not converged after %d corrections"
                             % MAX_ITER)
    return v


def _oracle_solve(eta_vals, f_vals, geometry, nx, nz, depth, length):
    dxs = length / nx
    if isinstance(geometry, FlatStrip):
        Z = geometry.h
        bottom_k = np.zeros(nx // 2 + 1)
    else:
        Z = depth
        bottom_k = 2.0 * np.pi * np.fft.rfftfreq(nx, d=dxs)
    dz = Z / (nz - 1)
    stencil, ex, J = _stencil(eta_vals, nx, nz, Z, length)
    rhs = np.zeros(nz * nx)
    rhs[-nx:] = f_vals
    v = _defect_correction(stencil, rhs, nx, nz, dz, dxs, bottom_k)

    # G = -eta_x phi_x + phi_y at the interface, one-sided second order in z
    vz_top = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2 * dz)
    vx_top = (np.roll(v[-1], -1) - np.roll(v[-1], 1)) / (2 * dxs)
    phi_y = vz_top / J
    phi_x = vx_top - (ex / J) * vz_top
    return phi_y - ex * phi_x


def oracle_dn(eta: Field, f: Field, geometry=InfiniteDepth()) -> Field:
    """Finite-difference reference value for G^-(eta) f.

    The solve runs on twice the input's nodes, nx = 2n by nz = nx + 1, and
    again at half that spacing; Richardson extrapolation of the two at the
    input's nodes gives better than second-order accuracy.  A truncated
    infinite depth reaches 2.5 periods down, with the Robin |D| applied by
    FFT.  Each system is solved by defect correction preconditioned with
    the flat (eta = 0) stencil, one tridiagonal solve per x-mode;
    NotContracting when that iteration does not converge.
    """
    grid = eta.grid
    length = grid.length
    depth = 2.5 * length

    def run(nx):
        return _oracle_solve(_sample(eta, nx), _sample(f, nx), geometry,
                             nx, nx + 1, depth, length)

    fine, coarse = run(2 * grid.n), run(grid.n)
    return Field(grid, (4.0 * fine[::2] - coarse) / 3.0)


def _sample(field: Field, nx):
    """A grid field at nx >= n equispaced points of its period, by its
    Fourier series zero-padded."""
    c = np.fft.rfft(field.values)
    # drop the unpaired Nyquist mode for off-grid evaluation
    c[-1] = 0.0
    return np.fft.irfft(c, nx) * (nx / field.grid.n)

