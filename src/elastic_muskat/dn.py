"""Dirichlet-Neumann operators via boundary-flattening fixed-point iteration.

The free boundary is straightened with rho(x, z) = z + H(x, z) where H is a
harmonic lift of the interface.  The transformed potential v(x, z) solves

    (d_z + |D|)(d_z - |D|) v = d_z Q_a[v] + |D| Q_b[v]

and is the fixed point of the Picard map

    T[v](z) = lift(f)(z) + int_0^z e^{(z-z')|D|} (Q_a + w)(z') dz',
    w(z')   = int_{-Z}^{z'} e^{-(z'-tau)|D|} |D| (Q_b - Q_a)(tau) dtau,

with the lower fluid's operator extracted as G(eta) f = |D| f + w(0) in
infinite depth.  The |D|H factors in Q_a, Q_b are taken as the z-derivative
of the lift (identical for the decaying lift; required for the strip lift).
All z-integrals use an exponentially weighted trapezoid rule on a grid of
levels graded toward z = 0, with the weights of grid.exp_linear_weights.
The bottomless domain is truncated at default_depth, where the neglected
tail e^{-Z k_min} is 1e-18 on every grid.  The panel terms are accumulated by a doubling
(Hillis-Steele) scan: pass s = 1, 2, 4, ... adds to every level the partial
sum s levels away, damped by the stride decay e^{-(z_{i+s} - z_i)|k|}, so
log2(levels) whole-array passes replace one pass per level.

Fields are real, so every spectral array is a real-FFT half spectrum with
n//2 + 1 modes per level.  The arrays that depend only on the grids (the
vertical levels, stride decays and trapezoid weights, the lift kernels and
the strip correction) are computed once per (grid, geometry, depth, levels)
and shared read-only; a solve forms only the products with eta and f.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateJacobian, NotContracting
from .grid import (Field, PeriodicGrid, abs_d, exp_linear_weights,
                   lipschitz_norms, sobolev_norm)
from .params import wall_distances


# --- geometry ----------------------------------------------------------------


@dataclass(frozen=True)
class InfiniteDepth:
    """Bottomless lower fluid; lift decays like e^{z|k|}."""

    def lift_kernel(self, z, absk):
        return np.exp(np.multiply.outer(z, absk))

    def lift_dz_kernel(self, z, absk):
        return absk * np.exp(np.multiply.outer(z, absk))


@dataclass(frozen=True)
class FlatStrip:
    """Flat rigid bottom at depth h.

    The lift kernel sinh((z+h)k)/sinh(hk) vanishes at z = -h, so the
    flattening map sends the computational bottom to the physical flat
    bottom exactly.
    """

    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("strip depth must be positive")

    def lift_kernel(self, z, absk):
        # sinh((z+h)k)/sinh(hk) with non-positive exponents; k=0 -> (z+h)/h
        zp = np.add.outer(np.asarray(z, dtype=float), np.zeros_like(absk)) + self.h
        k = np.broadcast_to(absk, zp.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.exp((zp - self.h) * k) - np.exp((-zp - self.h) * k)
            den = 1.0 - np.exp(-2.0 * self.h * k)
            out = np.where(k > 0, num / np.where(den > 0, den, 1.0), zp / self.h)
        return out

    def lift_dz_kernel(self, z, absk):
        # k cosh((z+h)k)/sinh(hk); k=0 -> 1/h
        zp = np.add.outer(np.asarray(z, dtype=float), np.zeros_like(absk)) + self.h
        k = np.broadcast_to(absk, zp.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.exp((zp - self.h) * k) + np.exp((-zp - self.h) * k)
            den = 1.0 - np.exp(-2.0 * self.h * k)
            out = np.where(k > 0, k * num / np.where(den > 0, den, 1.0),
                           1.0 / self.h)
        return out


def dn_geometries(params):
    """(lower, upper) DN geometries of ``params.geometry``.

    A wall becomes a FlatStrip at its distance from the flat interface; a
    side without one is InfiniteDepth.
    """
    walls = wall_distances(params.geometry)
    return tuple(FlatStrip(walls[side]) if side in walls else InfiniteDepth()
                 for side in ("bottom", "top"))


# --- vertical grid -----------------------------------------------------------


@dataclass(frozen=True)
class VerticalGrid:
    """Strictly increasing levels in [-Z, 0], the top one at z = 0."""

    levels: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or len(levels) < 2:
            raise ValueError("need at least two levels")
        if not np.all(np.diff(levels) > 0):
            raise ValueError("levels must be strictly increasing")
        if levels[-1] != 0.0:
            raise ValueError("z = 0 must be a node")
        object.__setattr__(self, "levels", levels)

    @property
    def depth(self):
        return -float(self.levels[0])


def make_vertical_grid(depth, n_levels):
    """Levels on [-depth, 0] geometrically clustered toward z = 0.

    The grading, the log ratio between the bottom and top spacing, grows
    with depth so the top panel is O(depth/e^grading).
    """
    # independent of n_levels so refinement halves every panel
    grading = max(1.0, np.log(40.0 * depth))
    t = np.linspace(0.0, 1.0, n_levels)
    z = -depth * (np.exp(grading * (1.0 - t)) - 1.0) / (np.exp(grading) - 1.0)
    z[0] = -depth
    z[-1] = 0.0
    return VerticalGrid(z)


def default_depth(grid: PeriodicGrid) -> float:
    """Truncation depth Z of the bottomless domain: e^{-Z k_min} = 1e-18."""
    return 3.0 * grid.length / (2.0 * np.pi) * np.log(1e6)


# --- results -----------------------------------------------------------------


@dataclass
class DNResult:
    gf: Field
    remainder: Field
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    tail_bound: float = 0.0

    def require_converged(self):
        """This result; NotContracting if the solve stopped at MAX_ITER."""
        if not self.converged:
            raise NotContracting(
                "DN solve not converged after %d sweeps (residual %.3g)"
                % (self.iterations, self.residuals[-1]))
        return self

    def report(self):
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "residuals": list(map(float, self.residuals)),
            "tail_bound": float(self.tail_bound),
        }


# Picard sweeps before a solve returns unconverged
MAX_ITER = 60
# smallest admissible 1 + dH/dz of the flattening map
JACOBIAN_FLOOR = 0.1


@dataclass(frozen=True)
class DNConfig:
    tol: float = 1e-10
    n_levels: int = 64
    lipschitz_gate: float = 0.3


# --- harmonic lift -----------------------------------------------------------


def harmonic_lift(f: Field, zgrid: VerticalGrid, geometry=InfiniteDepth()):
    """Values of the harmonic extension of f at every (level, node)."""
    kern = geometry.lift_kernel(zgrid.levels, np.abs(f.grid.rfft_wavenumbers))
    return np.fft.irfft(kern * np.fft.rfft(f.values), f.grid.n, axis=1)


# --- grid-constant arrays ----------------------------------------------------


def _strip_kernels(z, absk, h):
    """Level profiles (u, u_z) of the homogeneous correction for a flat bottom.

    u = sinh(kz) / (k cosh(kh)) vanishes at z = 0 and has u_z = 1 at z = -h
    (u = z for k = 0), so a bottom defect q of d_z v is removed by
    v -= q u, v_z -= q u_z.
    """
    zz = z[:, None]
    k = absk[None, :]
    with np.errstate(over="ignore"):
        sinh_ratio = np.where(
            k > 0,
            (np.exp(k * (zz - h)) - np.exp(-k * (zz + h))) / (1.0 + np.exp(-2.0 * k * h)),
            zz * np.ones_like(k))
        cosh_ratio = np.where(
            k > 0,
            (np.exp(k * (zz - h)) + np.exp(-k * (zz + h))) / (1.0 + np.exp(-2.0 * k * h)),
            np.ones_like(zz * k))
    return sinh_ratio / np.where(k > 0, k, 1.0), cosh_ratio


class _LevelOperators:
    """Everything a solve needs that depends only on the grids.

    Spectral arrays are real-FFT half spectra: (levels, n//2 + 1), or
    (levels - 1, n//2 + 1) per panel.  ``strides`` holds the scan strides
    s = 1, 2, 4, ... below the level count and ``stride_decay`` the matching
    (levels - s, n//2 + 1) arrays e^{-(z_{i+s} - z_i)|k|}.  Instances are
    shared between solves, so every array is read-only.
    """

    def __init__(self, grid, geometry, depth, n_levels):
        self.zgrid = make_vertical_grid(depth, n_levels)
        z = self.zgrid.levels
        gaps = np.diff(z)
        self.k = grid.rfft_wavenumbers
        self.absk = np.abs(self.k)
        self.ik = 1j * self.k
        # i sign(k) of the Hilbert-type term in Q_b; zero mode and the
        # sign-ambiguous Nyquist mode are dropped
        self.isgn = 1j * np.sign(self.k)
        self.isgn[-1] = 0.0
        # scan decays taken straight from the level differences, so a decay
        # that underflows is never divided by
        self.strides = tuple(2 ** p for p in range((n_levels - 1).bit_length()))
        self.stride_decay = tuple(
            np.exp(-np.multiply.outer(z[s:] - z[:-s], self.absk))
            for s in self.strides)
        # trapezoid weights per panel of int_0^d e^{-k u} g(u) du: c0 on
        # g(0), cd on g(d)
        w0, w1 = exp_linear_weights(np.multiply.outer(gaps, self.absk))
        self.c0 = gaps[:, None] * w0
        self.cd = gaps[:, None] * w1
        self.lift = geometry.lift_kernel(z, self.absk)
        self.lift_dz = geometry.lift_dz_kernel(z, self.absk)
        self.strip_v = self.strip_vz = None
        if isinstance(geometry, FlatStrip):
            self.strip_v, self.strip_vz = _strip_kernels(z, self.absk, geometry.h)
        for arr in (*vars(self).values(), *self.stride_decay):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        self.zgrid.levels.setflags(write=False)

    def upward_w(self, rho_hat):
        """w(z_i) = int_{-Z}^{z_i} e^{-(z_i - tau)|k|} rho(tau) dtau."""
        # u = z_{i+1} - tau; rho(z_i) sits at u = d, rho(z_{i+1}) at u = 0
        w = np.empty_like(rho_hat)
        tmp = np.empty_like(rho_hat)
        w[0] = 0.0
        np.multiply(self.cd, rho_hat[:-1], out=w[1:])
        np.multiply(self.c0, rho_hat[1:], out=tmp[1:])
        w[1:] += tmp[1:]
        for s, decay in zip(self.strides, self.stride_decay):
            np.multiply(decay, w[:-s], out=tmp[s:])
            w[s:] += tmp[s:]
        return w

    def downward_K(self, src_hat):
        """K(z_i) = int_0^{z_i} e^{(z_i - z')|k|} src(z') dz' (z_i <= 0)."""
        # u' = z' - z_i in [0, d]; src(z_i) at u' = 0, src(z_{i+1}) at u' = d
        K = np.empty_like(src_hat)
        tmp = np.empty_like(src_hat)
        K[-1] = 0.0
        np.multiply(self.c0, src_hat[:-1], out=K[:-1])
        np.multiply(self.cd, src_hat[1:], out=tmp[:-1])
        K[:-1] += tmp[:-1]
        np.negative(K[:-1], out=K[:-1])
        for s, decay in zip(self.strides, self.stride_decay):
            np.multiply(decay, K[s:], out=tmp[:-s])
            K[:-s] += tmp[:-s]
        return K


@functools.lru_cache(maxsize=8)
def _level_operators(grid, geometry, depth, n_levels):
    return _LevelOperators(grid, geometry, depth, n_levels)


# --- the fixed point ---------------------------------------------------------


class _DNWorkspace:
    """The per-(eta, f) arrays of one solve, on shared grid-constant ones."""

    def __init__(self, eta, f, geometry, cfg):
        grid = eta.grid
        depth = geometry.h if isinstance(geometry, FlatStrip) \
            else default_depth(grid)
        ops = _level_operators(grid, geometry, float(depth), cfg.n_levels)
        self.ops = ops
        n = grid.n
        eta_hat = np.fft.rfft(eta.values)
        self.eta_hat = eta_hat
        self.Hx = np.fft.irfft(ops.ik * (ops.lift * eta_hat), n, axis=1)
        self.Hz = np.fft.irfft(ops.lift_dz * eta_hat, n, axis=1)
        f_hat = np.fft.rfft(f.values)
        self.v0_hat = ops.lift * f_hat
        self.v0z_hat = ops.lift_dz * f_hat if ops.strip_v is not None \
            else ops.absk * self.v0_hat


def dn_fixed_point(eta: Field, f: Field, cfg: DNConfig = DNConfig(),
                   geometry=InfiniteDepth()) -> DNResult:
    """G^-(eta) f for the lower fluid by Picard iteration on T[v].

    Raises NotContracting when the interface is outside the contraction
    regime (gate on the W^{1+1/2,inf} proxy, or growing residuals) and
    DegenerateJacobian when the flattening change of variables degenerates.
    """
    if eta.grid != f.grid:
        raise ValueError("eta and f live on different grids")
    grid = eta.grid
    n = grid.n
    _, proxy = lipschitz_norms(eta)
    if proxy >= cfg.lipschitz_gate:
        raise NotContracting(
            f"W^(1+eps) proxy {proxy:.3g} at or above gate {cfg.lipschitz_gate}")
    ws = _DNWorkspace(eta, f, geometry, cfg)
    ops = ws.ops
    Hx, Hz = ws.Hx, ws.Hz
    jac = 1.0 + Hz
    if np.min(jac) < JACOBIAN_FLOOR:
        raise DegenerateJacobian(
            f"min(1 + dH/dz) = {np.min(jac):.3g} below floor {JACOBIAN_FLOOR}")
    # Q_a = Hx vx - qa_vz vz
    qa_vz = (Hx * Hx - Hz) / jac

    absk = ops.absk
    strip = ops.strip_v is not None
    v_hat = ws.v0_hat
    vz_hat = ws.v0z_hat
    scale = max(np.max(np.abs(v_hat)), 1e-300)
    residuals = []
    w_hat = np.zeros_like(v_hat)
    converged = False
    grow = 0
    it = 0
    for it in range(1, MAX_ITER + 1):
        vx = np.fft.irfft(ops.ik * v_hat, n, axis=1)
        vz = np.fft.irfft(vz_hat, n, axis=1)
        qa_hat = np.fft.rfft(Hx * vx - qa_vz * vz, axis=1)
        qb_hat = ops.isgn * np.fft.rfft(Hx * vz - Hz * vx, axis=1)
        rho_hat = absk * (qb_hat - qa_hat)
        w_hat = ops.upward_w(rho_hat)
        src_hat = qa_hat + w_hat
        K_hat = ops.downward_K(src_hat)
        v_new = ws.v0_hat + K_hat
        vz_new = ws.v0z_hat + absk * K_hat + src_hat
        if strip:
            # remove the d_z v defect at the flat bottom
            kz_bottom = vz_new[0].copy()
            v_new -= kz_bottom * ops.strip_v
            vz_new -= kz_bottom * ops.strip_vz
        res = float(np.max(np.abs(v_new - v_hat)) / scale)
        residuals.append(res)
        v_hat, vz_hat = v_new, vz_new
        if res < cfg.tol:
            converged = True
            break
        if len(residuals) >= 2 and res >= residuals[-2]:
            grow += 1
            if grow >= 5:
                raise NotContracting(
                    "fixed-point residuals non-decreasing for 5 iterations")
        else:
            grow = 0

    if strip:
        # extraction through the flattened normal derivative at z = 0
        eta_x = np.fft.irfft(ops.ik * ws.eta_hat, n)
        vz_top = np.fft.irfft(vz_hat[-1], n)
        vx_top = np.fft.irfft(ops.ik * v_hat[-1], n)
        jac_top = jac[-1]
        gvals = (1.0 + eta_x ** 2) / jac_top * vz_top - eta_x * vx_top
        gf = Field(grid, gvals)
        remainder = gf - abs_d(f)
    else:
        remainder = Field(grid, np.fft.irfft(w_hat[-1], n))
        gf = abs_d(f) + remainder
    tail = np.exp(-ops.zgrid.depth * grid.k_min)
    return DNResult(gf, remainder, it, converged, residuals, tail)


def dn_upper(eta: Field, f: Field, cfg: DNConfig = DNConfig(),
             geometry=InfiniteDepth()) -> DNResult:
    """G^+(eta) f for the upper fluid by the reflection identity.

    The upper domain maps to a lower domain under y -> -y, so
    G^+(eta) f = -G^-(-eta) f; ``geometry`` describes the flat top (as a
    FlatStrip at its distance) or InfiniteDepth.
    """
    lower = dn_fixed_point(-eta, f, cfg, geometry)
    gf = -lower.gf
    remainder = gf + abs_d(f)
    return DNResult(gf, remainder, lower.iterations, lower.converged,
                    lower.residuals, lower.tail_bound)


def dn_shape_difference(eta1: Field, eta2: Field, f: Field,
                        cfg: DNConfig = DNConfig(), geometry=InfiniteDepth()):
    """G^-(eta1)f - G^-(eta2)f and the contraction ratio report."""
    g1 = dn_fixed_point(eta1, f, cfg, geometry)
    g2 = dn_fixed_point(eta2, f, cfg, geometry)
    diff = g1.gf - g2.gf
    denom = sobolev_norm(eta1 - eta2, 2.0)
    ratio = sobolev_norm(diff, 0.0) / denom if denom > 0 else 0.0
    return diff, {"ratio": ratio, "eta_distance_h2": denom,
                  "difference_h0": sobolev_norm(diff, 0.0)}
