"""Independent finite-difference oracle for the Dirichlet-Neumann operator.

Second-order centered differences on the linearly flattened domain
x in [0, L) x z in [-Z, 0], with sigma coordinates

    y = rho(x, z) = z (Z + eta(x)) / Z + eta(x),

Dirichlet data on top and, at the bottom, one row of the one-sided
second-order d_z per node: the flat-bottom Neumann condition of a strip, with
the dense |D| added for the lift-matched Robin condition (d_z - |D|) v = 0 of
a truncated infinite depth.  The discretization is deliberately different
from the spectral fixed point so agreement between the two is evidence, not
tautology.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dn import FlatStrip, InfiniteDepth
from .grid import Field


def _fd_periodic_derivs(vals, dxs):
    d1 = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * dxs)
    d2 = (np.roll(vals, -1) - 2 * vals + np.roll(vals, 1)) / dxs ** 2
    return d1, d2


def _absd_matrix(nx, length):
    """Dense |D| acting on nodal values (used only in the bottom Robin rows)."""
    k = np.abs(2.0 * np.pi * np.fft.fftfreq(nx, d=length / nx))
    F = np.fft.fft(np.eye(nx), axis=0)
    return np.real(np.fft.ifft(k[:, None] * F, axis=0))


def _oracle_solve(eta_vals, f_vals, geometry, nx, nz, depth, length):
    dxs = length / nx
    if isinstance(geometry, FlatStrip):
        Z = geometry.h
        robin = False
    else:
        Z = depth
        robin = True
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

    # node (i, j) is unknown i * nx + j; each stencil entry is one block of
    # (row, column, value), shifted in z by slicing and in x by rolling
    node = np.arange(nz * nx).reshape(nz, nx)
    east, west = np.roll(node, -1, axis=1), np.roll(node, 1, axis=1)
    inner = node[1:-1]
    b, czz, cz = beta[1:-1], czz[1:-1], cz[1:-1]
    mixed = 2.0 * b / (4 * dxs * dz)
    blocks = [
        # interior 9-point stencil
        (inner, east[1:-1], 1.0 / dxs ** 2),
        (inner, west[1:-1], 1.0 / dxs ** 2),
        (inner, inner, -2.0 / dxs ** 2),
        (inner, east[2:], -mixed),
        (inner, west[:-2], -mixed),
        (inner, west[2:], mixed),
        (inner, east[:-2], mixed),
        (inner, node[2:], czz / dz ** 2 + cz / (2 * dz)),
        (inner, node[:-2], czz / dz ** 2 - cz / (2 * dz)),
        (inner, inner, -2.0 * czz / dz ** 2),
        # bottom: v_z, one-sided second order
        (node[0], node[0], -3.0 / (2 * dz)),
        (node[0], node[1], 4.0 / (2 * dz)),
        (node[0], node[2], -1.0 / (2 * dz)),
        # top: Dirichlet data
        (node[-1], node[-1], 1.0),
    ]
    rows = np.concatenate([r.ravel() for r, _, _ in blocks])
    cols = np.concatenate([c.ravel() for _, c, _ in blocks])
    data = np.concatenate([np.broadcast_to(v, r.shape).ravel()
                           for r, _, v in blocks])
    rhs = np.zeros(nz * nx)
    rhs[node[-1]] = f_vals

    A = sp.coo_matrix((data, (rows, cols)), shape=(nz * nx, nz * nx)).tocsr()
    if robin:
        D = _absd_matrix(nx, length)
        bottom = sp.coo_matrix(
            (-D.flatten(),
             (np.repeat(np.arange(nx), nx), np.tile(np.arange(nx), nx))),
            shape=(nz * nx, nz * nx)).tocsr()
        A = A + bottom
    v = spla.spsolve(A.tocsc(), rhs).reshape(nz, nx)

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
    infinite depth reaches 2.5 periods down.
    """
    grid = eta.grid
    length = grid.length
    depth = 2.5 * length

    def run(nx):
        xs = np.arange(nx) * (length / nx)
        return _oracle_solve(_sample(eta, xs), _sample(f, xs), geometry,
                             nx, nx + 1, depth, length)

    fine, coarse = run(2 * grid.n), run(grid.n)
    return Field(grid, (4.0 * fine[::2] - coarse) / 3.0)


def _sample(field: Field, xs):
    """Evaluate a grid field at arbitrary points by its Fourier series."""
    c = np.fft.fft(field.values) / field.grid.n
    k = field.grid.wavenumbers
    # drop the unpaired Nyquist mode for off-grid evaluation
    c = c.copy()
    c[field.grid.n // 2] = 0.0
    return np.real(np.exp(1j * np.outer(xs, k)) @ c)

