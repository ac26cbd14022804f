"""Dirichlet-Neumann operators: a level solver and a series, one contract.

Two engines compute G(eta) f: _Sweeper, the level solver below, and
_Series, which sums the Craig-Sulem expansion G = sum_m G_m (Craig &
Sulem, JCP 108, 1993).  Each engine is one private object per interface
and problem on one base, _Engine, which holds what they share:
``solve(f)`` takes a datum and runs the engine's step loop through
errors.iterate, ``converged_gf(f)`` also requires convergence, and
``gf()`` and ``result(...)`` read G f off the last sweep.  An engine
keeps only what differs by method: ``set_datum(f, restart)``, ``sweep()``,
its step loop ``_iterate()``, and ``gf_hat()`` and ``remainder_hat()``, the
spectra of G f and of its remainder.  Engines are signed:
G^+(eta) = -G^-(-eta) is an engine of G^-(-eta) with sign -1, whose G f
and remainder G^+ f + |D| f come out signed, so no caller negates a
result.

Which engine runs is decided by _dn_engines, before anything is solved,
from eta, the grid and ``cfg`` alone.  At a Lipschitz proxy at or above
SERIES_PROXY_GATE (0.3) or ``cfg.lipschitz_gate`` the level solver runs,
and raises there as it always did.  Below both, the series runs while
k_max max|eta| is under _series_reach(cfg.tol), and the level solver
otherwise.  The series' terms stop shrinking at a roundoff floor that
grows with k_max max|eta|, the cancellation of Nicholls & Reitich (JCP
170, 2001), so it runs only where a scan measured it to converge.  The
scan summed orders up to SERIES_MAX_ORDER = 24 on 2n nodes for
n = 64 ... 1024, three interfaces (the benchmark's base profile with and
without its tail, and a (sin x + 0.25 cos(2x + 1))) with a stepped by 0.01
up to the proxy gate, the data E(eta) + 2 eta, cos x and cos 3x, and the
geometries bottomless, h = 1 and h = 0.5:

    tol      smallest floored k_max max|eta|   reach    largest converged
    1e-8     18.25 (n = 256, proxy 0.297)      12.9     47.5
    1e-10    12.17 (n = 256, proxy 0.198)       9.44    23.7
    1e-12     8.89 (n = 512, proxy 0.091)       6.0      9.1

Every input of the scan inside the reach converges.  The level solver
serves dn_fixed_point and dn_upper always, so their results and pins do not
depend on the choice; evolution.rhs (one phase), pressure_fixed_point and
pressure_oracle take their engines from _dn_engines, which returns G^- and,
given a second geometry, G^+, both of one method.

The level solver.  The free boundary is straightened with
rho(x, z) = z + H(x, z) where H is a harmonic lift of the interface.  The
transformed potential v(x, z) solves

    (d_z + |D|)(d_z - |D|) v = d_z Q_a[v] + |D| Q_b[v]

and is the fixed point of the Picard map

    T[v](z) = lift(f)(z) + int_0^z e^{(z-z')|D|} (Q_a + w)(z') dz',
    w(z')   = int_{-Z}^{z'} e^{-(z'-tau)|D|} |D| (Q_b - Q_a)(tau) dtau,

K the outer integral.  A flat bottom adds a correction that removes the
bottom defect q of d_z v.  G(eta) f = v_z(0) - Q_a(0) and K(0) = 0, so both
geometries read G f off a sweep by one rule,

    G(eta) f - |D| f = (lift_dz(0) - |D|) f + w(0) - q u_z(0),

w and Q_a of the iterate swept; the lift excess and q vanish bottomless.
The |D|H factors in Q_a, Q_b are taken as the z-derivative of the lift
(identical for the decaying lift; required for the strip lift).
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
the strip correction) are computed once per (grid, geometry, levels) and
shared read-only; a solve forms only the products with eta and f.

Those products are written into working arrays kept per (n, levels) and per
thread, which every Picard sweep of every solve reuses: each ufunc and FFT
takes ``out=``, and the current and next iterates swap arrays.  A solve
that allocated its own (levels, n//2 + 1) temporaries, about 1 MB at
n = 128, would have them handed back to the OS by the C heap's trimming
when it ends and faulted in again by the next solve.  Nothing a solve
returns is a view of these arrays.

The sweeper does the per-interface set-up (gate, flattening map, Jacobian
check), lifts a datum, applies T once per sweep and reads G f off the last
sweep; the geometry lives only in the grid-constant operators.  Its step
loop sweeps one datum to convergence, and any number of data can be solved
in turn on one set-up.  dn_fixed_point makes a sweeper for one solve; the
dense pressure referee solves every column on a lower and an upper engine;
the two-phase pressure solve sweeps a lower and an upper one in turn,
changing their data between sweeps.  A sweeper of sign -1 keeps its
working arrays in a second slot, so such a pair does not share them.

A series engine is one row of a _SeriesSum, which sums the orders of G f
one order per step of its loop and forms eta^m/m! on 2n nodes as the
orders first reach m.  The series pair of _dn_engines is one sum of two
rows, G^-(eta) over the lower geometry and G^-(-eta) over the upper one,
sharing eta's powers; a sweep of either engine sums every row whose datum
changed, together, and each row reads G f up to its own stop, bit for bit
its sum alone.  The pressure solve sets both data before it sweeps the
lower and then the upper engine, so each of its joint sweeps is one
two-row sum.  A sweep sums to the tolerance, so its G f is its datum's to
within the tolerance, and raises NotContracting at the order cap, so the
pressure solves run on either engine unchanged and stop where a series
cannot converge (see _SeriesSum).  A datum set with
``restart`` is summed from order 0.  A row set without it keeps its last
converged G f: the sweep sums only the datum's change since that sum and
adds it, and stops on the scale of the whole datum.  Each sum leaves out
terms below the tolerance on that scale, so the G f of a chain of warm
sums can be off by up to one tolerance per sum since the last restart.
The pressure solve's data change less from sweep to sweep, so on the
two_phase_n128 benchmark its four sums per solve take 8, 6, 4 and 2
orders, where full sums take 8 each.

Both engines take eta and the data as node arrays and return arrays; only
dn_fixed_point and dn_upper build Fields, for the DNResult they return.
"""

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateJacobian, NotContracting, iterate
from .grid import Field, PeriodicGrid, _lipschitz_norms, exp_linear_weights
from .params import wall_distances


# --- geometry ----------------------------------------------------------------


@dataclass(frozen=True)
class InfiniteDepth:
    """Bottomless lower fluid."""


@dataclass(frozen=True)
class FlatStrip:
    """Flat rigid bottom at depth h."""

    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("strip depth must be positive")


def dn_geometries(params):
    """(lower, upper) DN geometries of ``params.geometry``.

    A wall becomes a FlatStrip at its distance from the flat interface; a
    side without one is InfiniteDepth.
    """
    walls = wall_distances(params.geometry)
    return tuple(FlatStrip(walls[side]) if side in walls else InfiniteDepth()
                 for side in ("bottom", "top"))


# --- vertical grid -----------------------------------------------------------


def make_vertical_grid(depth, n_levels):
    """Read-only levels on [-depth, 0] geometrically clustered toward z = 0.

    They increase strictly from -depth, and the top one is z = 0.  The
    grading, the log ratio between the bottom and top spacing, grows with
    depth so the top panel is O(depth/e^grading).
    """
    # independent of n_levels so refinement halves every panel
    grading = max(1.0, np.log(40.0 * depth))
    t = np.linspace(0.0, 1.0, n_levels)
    z = -depth * (np.exp(grading * (1.0 - t)) - 1.0) / (np.exp(grading) - 1.0)
    z[0] = -depth
    z[-1] = 0.0
    z.setflags(write=False)
    return z


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
            raise NotContracting(_Sweeper.CAPPED % (len(self.residuals),
                                                    self.residuals[-1]))
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
    """Settings of a DN solve.

    ``tol`` bounds the change of the last Picard sweep, relative to the
    largest coefficient of the lifted datum; it does not bound the error of
    G f, which both geometries read off that sweep by one rule.  At
    n = 128, on eta = 0.02 cos x + 0.01 sin 2x + 0.003 cos(5x + 0.3) with
    the f^- of a flat-bottom (h = 1) two-phase pressure solve as datum, a
    tol-1e-10 solve is 1.33e-11 (max norm, relative) from a tol-1e-15 solve
    over FlatStrip(1.0), and 4.3e-12 bottomless.

    The error of G f is set by ``n_levels`` instead, and it is second order
    in the levels: each doubling divides it by about 4.  With 64 levels at
    n = 128, on the exact harmonic traces of eta = a (sin x +
    0.25 cos(2x + 1)) with a = 0.05 and 0.1 and the modes k = 1 and 3, the
    relative max error of G f is 1.7e-7 to 3.3e-5 bottomless and 2.7e-6 to
    1.1e-5 over FlatStrip(1.0), some 1e6 times the gap left by ``tol``.

    For the series ``tol`` bounds the two newest terms of the sum, each
    relative to the largest coefficient of G_0 f, and ``n_levels`` plays
    no part.  On the same exact traces at the default tolerance its error
    is 1.2e-13 to 2.9e-12 bottomless and 1.2e-13 to 3.9e-12 over
    FlatStrip(1.0): the level figures above are 1e6 to 1e8 times larger.
    ``tol`` also sets the series' reach (see _series_reach).
    """

    tol: float = 1e-10
    n_levels: int = 64
    lipschitz_gate: float = 0.3

    def __post_init__(self):
        for name in ("tol", "lipschitz_gate"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError("%s must be positive and finite, not %r"
                                  % (name, getattr(self, name)))
        if isinstance(self.n_levels, bool) \
                or not isinstance(self.n_levels, (int, np.integer)) \
                or self.n_levels < 2:
            raise ConfigError("n_levels must be an integer of at least 2, "
                              "not %r" % (self.n_levels,))


# --- grid-constant arrays ----------------------------------------------------


def _hyperbolic_ratio(y, absk, h, num_sign, den_sign):
    """Numerator and guarded denominator of a hyperbolic ratio over (y, |k|).

    e^{(y-h)|k|} + num_sign e^{-(y+h)|k|} over 1 + den_sign e^{-2h|k|} is
    sinh (sign -1) or cosh (sign +1) of y|k| over sinh or cosh of h|k|,
    written with no positive exponent for -h <= y <= h.  The vanishing
    sinh denominator at k = 0 is returned as 1; callers take k = 0 from
    its limit.  Both arrays are (len(y), len(absk)).
    """
    yy = y[:, None]
    num = np.exp((yy - h) * absk) + num_sign * np.exp(-(yy + h) * absk)
    den = 1.0 + den_sign * np.exp(-2.0 * h * absk)
    return num, np.where(den > 0, den, 1.0)


def _strip_lift(z, absk, h):
    """Level profiles (lift, lift_z) of the flattening lift over a flat bottom.

    The lift sinh((z+h)k)/sinh(hk) vanishes at z = -h, so the flattening
    map sends the computational bottom to the physical flat bottom exactly;
    its z-derivative is k cosh((z+h)k)/sinh(hk).  k = 0 takes the limits
    (z+h)/h and 1/h.
    """
    zp = z + h
    sinh_num, den = _hyperbolic_ratio(zp, absk, h, -1.0, -1.0)
    cosh_num, _ = _hyperbolic_ratio(zp, absk, h, 1.0, -1.0)
    positive = absk > 0
    return (np.where(positive, sinh_num / den, (zp / h)[:, None]),
            np.where(positive, absk * cosh_num / den, 1.0 / h))


def _strip_kernels(z, absk, h):
    """Level profiles (u, u_z) of the homogeneous correction for a flat bottom.

    u = sinh(kz) / (k cosh(kh)) vanishes at z = 0 and has u_z = 1 at z = -h
    (u = z for k = 0), so a bottom defect q of d_z v is removed by
    v -= q u, v_z -= q u_z.
    """
    sinh_num, den = _hyperbolic_ratio(z, absk, h, -1.0, 1.0)
    cosh_num, _ = _hyperbolic_ratio(z, absk, h, 1.0, 1.0)
    positive = absk > 0
    sinh_ratio = np.where(positive, sinh_num / den, z[:, None])
    cosh_ratio = np.where(positive, cosh_num / den, 1.0)
    return sinh_ratio / np.where(positive, absk, 1.0), cosh_ratio


class _LevelOperators:
    """Everything a solve needs that depends only on the grids and geometry.

    The one place in the solver that reads a geometry: the depth,
    ``tail_bound``, the lift kernels ``lift`` and ``lift_dz``, the
    correction profiles ``bottom`` (None bottomless), the lift excess
    lift_dz(0) - |k| and the defect gain of the G f read (both zero
    bottomless).  Spectral arrays are real-FFT half spectra:
    (levels, n//2 + 1), or (levels - 1, n//2 + 1) per panel.  ``strides``
    holds the scan strides s = 1, 2, 4, ... below the level count and
    ``stride_decay`` the matching (levels - s, n//2 + 1) arrays
    e^{-(z_{i+s} - z_i)|k|}; they and the panel weights ``c0``,
    ``cd`` are complex with zero imaginary part.  Instances are shared
    between solves, so every array is read-only.
    """

    def __init__(self, grid, geometry, n_levels):
        strip = isinstance(geometry, FlatStrip)
        depth = geometry.h if strip else default_depth(grid)
        # the strip is solved whole: no depth is truncated
        self.tail_bound = 0.0 if strip else np.exp(-depth * grid.k_min)
        self.levels = z = make_vertical_grid(depth, n_levels)
        gaps = np.diff(z)
        self.k = grid.rfft_wavenumbers
        self.absk = np.abs(self.k)
        self.ik = 1j * self.k
        # i sign(k) of the Hilbert-type term in Q_b; zero mode and the
        # sign-ambiguous Nyquist mode are dropped
        self.isgn = 1j * np.sign(self.k)
        self.isgn[-1] = 0.0
        # scan decays taken straight from the level differences, so a decay
        # that underflows is never divided by.  The scan arrays are stored
        # complex: a real factor is cast to complex on every product anyway,
        # so the products are the same and the casts are paid once
        self.strides = tuple(2 ** p for p in range((n_levels - 1).bit_length()))
        self.stride_decay = tuple(
            np.exp(-np.multiply.outer(z[s:] - z[:-s], self.absk)).astype(complex)
            for s in self.strides)
        # trapezoid weights per panel of int_0^d e^{-k u} g(u) du: c0 on
        # g(0), cd on g(d)
        w0, w1 = exp_linear_weights(np.multiply.outer(gaps, self.absk))
        self.c0 = (gaps[:, None] * w0).astype(complex)
        self.cd = (gaps[:, None] * w1).astype(complex)
        if strip:
            self.lift, self.lift_dz = _strip_lift(z, self.absk, depth)
            self.bottom = _strip_kernels(z, self.absk, depth)
            # G f's gain on the bottom defect, -u_z(0)
            self.defect_gain = -self.bottom[1][-1]
        else:
            # the lift e^{z|k|} decays downward
            self.lift = np.exp(np.multiply.outer(z, self.absk))
            self.lift_dz = self.absk * self.lift
            self.bottom = None
            self.defect_gain = 0.0
        self.lift_excess = self.lift_dz[-1] - self.absk
        for arr in (*vars(self).values(), *self.stride_decay,
                    *(self.bottom or ())):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def lift_datum(self, f_hat, v0_hat, v0z_hat):
        """The lift of f_hat and its z-derivative, into v0_hat and v0z_hat."""
        np.multiply(self.lift, f_hat, out=v0_hat)
        if self.bottom is None:
            # the decaying lift's z-derivative is |k| times the lift
            np.multiply(self.absk, v0_hat, out=v0z_hat)
        else:
            np.multiply(self.lift_dz, f_hat, out=v0z_hat)

    def remove_bottom_defect(self, v_hat, vz_hat, defect, tmp):
        """Over a strip, move the d_z v defect at the bottom from the
        iterate into ``defect``; bottomless there is none."""
        if self.bottom is not None:
            np.copyto(defect, vz_hat[0])
            for arr, profile in zip((v_hat, vz_hat), self.bottom):
                np.subtract(arr, np.multiply(defect, profile, out=tmp), out=arr)

    def upward_w(self, rho_hat, w, tmp):
        """w(z_i) = int_{-Z}^{z_i} e^{-(z_i - tau)|k|} rho(tau) dtau, into w.

        ``tmp`` is scratch of the same shape; neither may overlap rho_hat.
        """
        # u = z_{i+1} - tau; rho(z_i) sits at u = d, rho(z_{i+1}) at u = 0
        w[0] = 0.0
        np.multiply(self.cd, rho_hat[:-1], out=w[1:])
        np.multiply(self.c0, rho_hat[1:], out=tmp[1:])
        w[1:] += tmp[1:]
        for s, decay in zip(self.strides, self.stride_decay):
            np.multiply(decay, w[:-s], out=tmp[s:])
            w[s:] += tmp[s:]
        return w

    def downward_K(self, src_hat, K, tmp):
        """K(z_i) = int_0^{z_i} e^{(z_i - z')|k|} src(z') dz' (z_i <= 0), into K.

        ``tmp`` is scratch of the same shape; neither may overlap src_hat.
        """
        # u' = z' - z_i in [0, d]; src(z_i) at u' = 0, src(z_{i+1}) at u' = d
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
def _level_operators(grid, geometry, n_levels):
    return _LevelOperators(grid, geometry, n_levels)


# --- the fixed point ---------------------------------------------------------


class _DNWorkspace:
    """Working arrays of every solve on n nodes and n_levels levels.

    Spectral arrays are (n_levels, n//2 + 1) complex and physical ones
    (n_levels, n) real.  Each solve overwrites them all, so nothing a solve
    returns may be a view of one.
    """

    def __init__(self, n, n_levels):
        def spectral():
            return np.empty((n_levels, n // 2 + 1), complex)

        def physical():
            return np.empty((n_levels, n))

        # the lifted datum, the current and next iterates, Q_a, Q_b, w, K,
        # and one temporary that is also the scans' scratch
        self.v0_hat, self.v0z_hat = spectral(), spectral()
        self.v_hat, self.vz_hat = spectral(), spectral()
        self.v_next, self.vz_next = spectral(), spectral()
        self.qa_hat, self.qb_hat = spectral(), spectral()
        self.w_hat, self.K_hat, self.tmp_hat = spectral(), spectral(), spectral()
        # the flattening map, its Jacobian, the Q_a coefficient of v_z, the
        # velocity and two products
        self.Hx, self.Hz, self.jac, self.qa_vz = (physical() for _ in range(4))
        self.vx, self.vz, self.prod, self.prod2 = (physical() for _ in range(4))
        # moduli for the residual
        self.mag = np.empty((n_levels, n // 2 + 1))


_thread = threading.local()


def _workspace(n, n_levels, slot=0):
    """This thread's working arrays in ``slot`` for n nodes and n_levels levels.

    Slot 0 serves dn_fixed_point and the lower problem of the pressure
    solve; slot 1 serves its upper problem, which is swept alongside.
    """
    cache = getattr(_thread, "workspaces", None)
    if cache is None:
        @functools.lru_cache(maxsize=4)
        def cache(n, n_levels, slot):
            return _DNWorkspace(n, n_levels)
        _thread.workspaces = cache
    return cache(n, n_levels, slot)


class _Engine:
    """What both DN engines share: the solve, its cap check and the reads.

    An engine made on an interface e with ``sign`` computes sign G^-(e):
    G^-(eta) on eta with sign 1, and G^+(eta) = -G^-(-eta) on -eta with
    sign -1.  What differs by method is the engine's own: ``set_datum``
    takes a datum, ``sweep`` advances it, ``_iterate`` runs the engine's
    step loop through errors.iterate, and ``gf_hat`` and ``remainder_hat``
    read the rfft of G f and of its remainder G f - sign |D| f off the last
    sweep, signed, as fresh arrays.  The rest is shared here: ``solve``
    sets a datum and runs the step loop, ``converged_gf`` also requires
    convergence, and ``gf`` and ``result`` transform the signed spectra.
    """

    def __init__(self, grid, cfg: DNConfig, sign):
        self.n, self.grid, self.tol, self.sign = grid.n, grid, cfg.tol, sign
        # the flat part of sign G^-
        self.flat = sign * np.abs(grid.rfft_wavenumbers)
        self.f_hat = None

    def solve(self, f):
        """Take f and run the step loop to the tolerance; (changes,
        converged) as errors.iterate returns them."""
        self.set_datum(f)
        return self._iterate()

    def _require(self, changes, converged):
        """The last change of a step loop; NotContracting if the loop
        stopped at its cap."""
        if not converged:
            raise NotContracting(self.CAPPED % (len(changes), changes[-1]))
        return changes[-1]

    def converged_gf(self, f) -> np.ndarray:
        """G f by ``solve``; NotContracting if it stops at its cap."""
        self._require(*self.solve(f))
        return self.gf()

    def gf(self) -> np.ndarray:
        """G f for the datum of the last sweep, as a fresh node array."""
        return np.fft.irfft(self.gf_hat(), self.n)

    def result(self, iterations, converged, residuals) -> DNResult:
        gf, remainder = np.fft.irfft([self.gf_hat(), self.remainder_hat()],
                                     self.n)
        return DNResult(Field(self.grid, gf), Field(self.grid, remainder),
                        iterations, converged, residuals, self.tail_bound)


class _Sweeper(_Engine):
    """The Picard map T[v] of one interface, applied one sweep at a time.

    Construction does a solve's per-interface work: the Lipschitz gate, the
    grid-constant arrays, H_x, H_z, the Jacobian check and the Q_a
    coefficient of v_z.  ``set_datum`` lifts a datum, ``sweep`` applies T
    once, and ``remainder_hat`` reads the spectrum of sign (G^- f - |D| f)
    off the last sweep by the module's one rule.  Its step loop sweeps to the
    tolerance and is unconverged after MAX_ITER sweeps.  The interface and
    every datum are node values on ``grid``.  The iterate and the prepared
    arrays live in working arrays, slot 0 for sign 1 and slot 1 for
    sign -1, so a sweeper is spent once another one of its sign is made.
    """

    CAPPED = "DN solve not converged after %d sweeps (residual %.3g)"

    def __init__(self, grid, eta, cfg: DNConfig, geometry, sign=1.0,
                 proxy=None):
        super().__init__(grid, cfg, sign)
        n = self.n
        if proxy is None:
            _, proxy = _lipschitz_norms(grid, eta)
        if proxy >= cfg.lipschitz_gate:
            raise NotContracting(
                f"W^(1+eps) proxy {proxy:.3g} at or above gate {cfg.lipschitz_gate}")
        ops = self.ops = _level_operators(grid, geometry, cfg.n_levels)
        self.tail_bound = ops.tail_bound
        ws = self.ws = _workspace(n, cfg.n_levels, slot=int(sign < 0))
        tmp = ws.tmp_hat

        eta_hat = np.fft.rfft(eta)
        np.multiply(ops.lift, eta_hat, out=tmp)
        Hx = np.fft.irfft(np.multiply(ops.ik, tmp, out=tmp), n, axis=1, out=ws.Hx)
        Hz = np.fft.irfft(np.multiply(ops.lift_dz, eta_hat, out=tmp), n, axis=1,
                          out=ws.Hz)
        jac = np.add(1.0, Hz, out=ws.jac)
        if np.min(jac) < JACOBIAN_FLOOR:
            raise DegenerateJacobian(
                f"min(1 + dH/dz) = {np.min(jac):.3g} below floor {JACOBIAN_FLOOR}")
        # Q_a = Hx vx - qa_vz vz
        qa_vz = np.multiply(Hx, Hx, out=ws.qa_vz)
        np.subtract(qa_vz, Hz, out=qa_vz)
        np.divide(qa_vz, jac, out=qa_vz)
        # the bottom defect of d_z v that the last sweep removed
        self.defect = np.zeros(n // 2 + 1, complex)
        # each sweep writes the next iterate into the spare pair of arrays
        # and the two pairs swap
        self.v_hat, self.vz_hat = ws.v_hat, ws.vz_hat
        self.v_new, self.vz_new = ws.v_next, ws.vz_next
        self.scale = None

    def set_datum(self, f, restart=True):
        """Lift the datum f.

        With ``restart`` the lift also becomes the iterate, and its largest
        coefficient the scale of every later sweep change; without, the
        iterate is kept and only the datum of the next sweep changes.
        """
        ws = self.ws
        self.f_hat = np.fft.rfft(f)
        self.ops.lift_datum(self.f_hat, ws.v0_hat, ws.v0z_hat)
        if restart:
            np.copyto(self.v_hat, ws.v0_hat)
            np.copyto(self.vz_hat, ws.v0z_hat)
            self.scale = max(np.max(np.abs(self.v_hat, out=ws.mag)), 1e-300)

    def _iterate(self):
        return iterate(self.sweep, self.tol, MAX_ITER, 5, "DN solve")

    def sweep(self) -> float:
        """Apply T once; returns max|v_new - v| over the scale."""
        ops, ws, n = self.ops, self.ws, self.n
        absk, tmp, prod, prod2 = ops.absk, ws.tmp_hat, ws.prod, ws.prod2
        Hx, Hz, qa_vz = ws.Hx, ws.Hz, ws.qa_vz
        v_hat, vz_hat, v_new, vz_new = (self.v_hat, self.vz_hat,
                                        self.v_new, self.vz_new)
        vx = np.fft.irfft(np.multiply(ops.ik, v_hat, out=tmp), n, axis=1,
                          out=ws.vx)
        vz = np.fft.irfft(vz_hat, n, axis=1, out=ws.vz)
        np.multiply(Hx, vx, out=prod)
        np.multiply(qa_vz, vz, out=prod2)
        qa_hat = np.fft.rfft(np.subtract(prod, prod2, out=prod), axis=1,
                             out=ws.qa_hat)
        np.multiply(Hx, vz, out=prod)
        np.multiply(Hz, vx, out=prod2)
        qb_hat = np.fft.rfft(np.subtract(prod, prod2, out=prod), axis=1,
                             out=ws.qb_hat)
        np.multiply(ops.isgn, qb_hat, out=qb_hat)
        # rho = |k| (Q_b - Q_a) in Q_b's array, then src = Q_a + w in Q_a's
        np.subtract(qb_hat, qa_hat, out=qb_hat)
        rho_hat = np.multiply(absk, qb_hat, out=qb_hat)
        w_hat = ops.upward_w(rho_hat, ws.w_hat, tmp)
        src_hat = np.add(qa_hat, w_hat, out=qa_hat)
        K_hat = ops.downward_K(src_hat, ws.K_hat, tmp)
        np.add(ws.v0_hat, K_hat, out=v_new)
        np.add(ws.v0z_hat, np.multiply(absk, K_hat, out=K_hat), out=vz_new)
        np.add(vz_new, src_hat, out=vz_new)
        ops.remove_bottom_defect(v_new, vz_new, self.defect, tmp)
        change = np.abs(np.subtract(v_new, v_hat, out=tmp), out=ws.mag)
        self.v_hat, self.v_new = v_new, v_hat
        self.vz_hat, self.vz_new = vz_new, vz_hat
        return float(np.max(change) / self.scale)

    def remainder_hat(self) -> np.ndarray:
        ops = self.ops
        return self.sign * (ops.lift_excess * self.f_hat + self.ws.w_hat[-1]
                            + ops.defect_gain * self.defect)

    def gf_hat(self) -> np.ndarray:
        return self.flat * self.f_hat + self.remainder_hat()


# --- the Craig-Sulem series --------------------------------------------------


# highest order the series sums, and the non-decreasing changes in a row
# after which it raises
SERIES_MAX_ORDER = 24
SERIES_PATIENCE = 3
# Lipschitz proxy from which only the level solver runs: the scan that sets
# _series_reach stopped there
SERIES_PROXY_GATE = 0.3


def _series_reach(tol):
    """The largest k_max max|eta| at which the series runs at tolerance tol.

    Past its reach the terms stop shrinking at a roundoff floor that grows
    with k_max max|eta|.  The bound 0.75 ln(tol / 3.4e-16) is 12.9, 9.44
    and 6.0 at tol 1e-8, 1e-10 and 1e-12, under the smallest floored
    k_max max|eta| of the scan in the module docstring (18.25, 12.17 and
    8.89) by 29 %, 22 % and 33 %; at tol 3.4e-16 and below it is not
    positive, so only the level solver runs.
    """
    return 0.75 * np.log(tol / 3.4e-16)


@functools.lru_cache(maxsize=8)
def _series_multipliers(grid, geometries, orders):
    """Read-only multiplier tables of a sum whose rows run over ``geometries``.

    Over the rfft wavenumbers of ``grid``, the symbol of D_p is |k|^p for
    even p and |k|^{p-1} G_0 for odd p, G_0 = |k| bottomless and
    |k| tanh(h|k|) over a wall at depth h.  Returns, each with one row per
    geometry: G_0 (rows, n//2 + 1); the symbols of D_0 ... D_orders as
    (rows, orders + 1, n//2 + 1), times 1/2 below the Nyquist mode, which
    holds the factors of truncating a 2n-node rfft to n nodes; and those
    times -ik, complex.  Every factor is a power of two, so a product with
    a table is bit for bit the product with the symbol and the truncation.
    """
    absk = np.abs(grid.rfft_wavenumbers)
    fold = np.where(np.arange(len(absk)) < len(absk) - 1, 0.5, 1.0)
    g0 = np.array([absk if isinstance(geometry, InfiniteDepth)
                   else absk * np.tanh(geometry.h * absk)
                   for geometry in geometries])
    table = np.array([[absk ** p if p % 2 == 0 else absk ** (p - 1) * g
                       for p in range(orders + 1)] for g in g0]) * fold
    dtable = table * -(1j * grid.rfft_wavenumbers)
    for arr in (g0, table, dtable):
        arr.setflags(write=False)
    return g0, table, dtable


class _SeriesSum:
    """The Craig-Sulem series of one interface, one datum per row, summed
    in lockstep.

    Row 0 sums G^-(eta) over ``geometries[0]`` and a row 1 sums G^-(-eta)
    over ``geometries[1]``, for the engine of G^+(eta).  The terms
    (D = -i d/dx, D_p from _series_multipliers)

        G_m f = D_{m-1} D(eta^m/m! D f)
                - sum_{j<m} D_{m-j}(eta^{m-j}/(m-j)! G_j f)

    are formed on 2n nodes, where the products of eta's powers with f_x
    and G_j f alias far less than on n nodes, and each term keeps the modes
    |k| <= n/2 as an rfft half spectrum on n nodes.  G_m is of degree m in
    eta, so the terms on -eta are exactly (-1)^m those on eta: both rows
    sum on eta and share one table of eta^p/p!, and row 1 negates its odd
    terms where it reads G f.  eta^m/m! is formed on 2n nodes when order m
    is first reached.

    ``set_datum`` takes a row's datum and marks the row pending; ``sweep``
    sums every pending row together, one order per step of errors.iterate,
    which stops each row at its own first change below ``cfg.tol``.  A
    row's change is the larger of its two newest terms' largest spectral
    moduli over that of its G_0 f: a single term can vanish where G f does
    not (G_1 f = 0 for eta = a cos x, f = cos x).  Later orders of a row
    that has stopped are formed but not read, so each row's G f is bit for
    bit its sum alone.  A row raises NotContracting once SERIES_PATIENCE
    changes in a row do not shrink, and is unconverged at the order cap.

    Every sum runs on the change d of its row's datum since the G f the
    row kept, and adds the terms G_m d to that G f, since G is linear in f.
    A row set with ``restart`` (the default), or whose last sum did not
    converge, keeps the G f of a zero datum, so d is its datum and its sum
    is bit for bit a fresh one.  A row set without it is warm: d is its
    datum's change since its last sum.  The changes are the sizes of the
    terms over the largest spectral modulus of G_0 f of the whole datum, so
    the stop rule, the patience and the cap read a warm sum on the scale of
    a full one; but what each sum leaves out stays in the G f that the next
    warm sum adds to, so a chain of warm sums can leave out up to one
    tolerance per sum since the last restart.  ``f_hat`` stays the whole
    datum's spectrum, and a change whose G_0 d is below the tolerance
    costs one order: G f is bit-equal for d = 0, and for a constant d
    where the two data's spectra differ in the mean mode alone.
    """

    def __init__(self, grid, eta, cfg: DNConfig, geometries):
        n, rows = self.n, self.rows = grid.n, len(geometries)
        self.grid, self.cfg = grid, cfg
        orders = self.orders = SERIES_MAX_ORDER
        self.tol = cfg.tol
        self.g0, self.table, self.dtable = _series_multipliers(
            grid, tuple(geometries), orders)
        # zero-padding to 2n nodes doubles the modes below the Nyquist mode,
        # which splits evenly between the modes +-n/2 of the finer grid
        half = n // 2 + 1
        self.refine = np.full(half, 2.0)
        self.refine[-1] = 1.0
        # d/dx keeps the mode n/2, which is no Nyquist mode on 2n nodes
        self.ik2 = 1j * grid.rfft_wavenumbers * self.refine
        # eta^p/p! as the running product of eta/1, eta/2, ...
        self.powers = np.empty((orders + 1, 2 * n))
        self.powers[0] = 1.0
        self.eta2 = self.powers[1] = np.fft.irfft(
            np.fft.rfft(eta) * self.refine, 2 * n)
        self.formed = 1
        # per row: the datum and its spectrum, the kept G f and the
        # spectrum of its datum, the change of datum that a sum runs on,
        # f_x on 2n nodes, each term's spectrum and node values, a step's
        # products and their rfft, and the sizes of the terms over the
        # scale of G_0 f
        self.f = np.empty((rows, n))
        self.f_hat = np.empty((rows, half), complex)
        self.gf = np.empty((rows, half), complex)
        self.summed_hat = np.empty((rows, half), complex)
        self.d_hat = np.empty((rows, half), complex)
        self.fx = np.empty((rows, 2 * n))
        self.terms_hat = np.empty((rows, orders + 1, half), complex)
        self.terms = np.empty((rows, orders + 1, 2 * n))
        self.prod = np.empty((rows, orders + 1, 2 * n))
        self.spec = np.empty((rows, orders + 1, n + 1), complex)
        self.padded = np.empty((rows, half), complex)
        self.mag = np.empty((rows, half))
        self.sizes = np.empty((orders + 1, rows))
        self.scale = np.empty(rows)
        self.pending = [False] * rows
        # each row's changes and converged flag from its last sum
        self.results = [None] * rows

    def set_datum(self, row, f, restart=True):
        """Take the datum f of ``row``, which the next sweep sums; with
        ``restart``, or when the row's last sum did not converge, the row
        drops the G f it kept and sums f from order 0."""
        np.copyto(self.f[row], f)
        self.pending[row] = True
        if restart or not (self.results[row] and self.results[row][1]):
            # the G f of a zero datum; -0.0 is the additive identity, so
            # the sum of a restarted row is bit for bit a fresh one
            self.summed_hat[row] = 0.0
            self.gf[row] = complex(-0.0, -0.0)

    def _flat_terms(self):
        """The spectra of the pending data and of their changes since the
        kept G f, which the sums run on, with f_x on 2n nodes and the flat
        terms G_0 d, and the scale of every change, the largest spectral
        modulus of G_0 f of the whole datum."""
        rows, n = self.going, self.n
        f_hat = np.fft.rfft(self.f[rows], out=self.f_hat[rows])
        d_hat = np.subtract(f_hat, self.summed_hat[rows], out=self.d_hat[rows])
        np.fft.irfft(np.multiply(self.ik2, d_hat, out=self.padded[rows]),
                     2 * n, out=self.fx[rows])
        term = np.multiply(self.g0[rows], d_hat, out=self.terms_hat[rows, 0])
        np.fft.irfft(np.multiply(term, self.refine, out=self.padded[rows]),
                     2 * n, out=self.terms[rows, 0])
        scale = np.abs(np.multiply(self.g0[rows], f_hat,
                                   out=self.padded[rows]),
                       out=self.mag[rows]).max(axis=1, out=self.scale[rows])
        np.maximum(scale, 1e-300, out=scale)
        size = np.abs(term, out=self.mag[rows]).max(axis=1,
                                                    out=self.sizes[0, rows])
        size /= scale

    def _next_order(self):
        """Add the next order's term to every row of the sum; per row the
        larger of the two newest terms over the flat term."""
        m = self.order = self.order + 1
        rows, n, powers = self.going, self.n, self.powers
        if m > self.formed:
            np.multiply(np.divide(self.eta2, m, out=powers[m]), powers[m - 1],
                        out=powers[m])
            self.formed = m
        prod = self.prod[rows, :m + 1]
        np.multiply(powers[m], self.fx[rows], out=prod[:, 0])
        np.multiply(powers[m:0:-1], self.terms[rows, :m], out=prod[:, 1:])
        spec = np.fft.rfft(prod, out=self.spec[rows, :m + 1])[..., :n // 2 + 1]
        term = np.multiply(self.dtable[rows, m - 1], spec[:, 0],
                           out=self.terms_hat[rows, m])
        term -= np.einsum("rij,rij->rj", self.table[rows, m:0:-1], spec[:, 1:])
        np.fft.irfft(np.multiply(term, self.refine, out=self.padded[rows]),
                     2 * n, out=self.terms[rows, m])
        size = np.abs(term, out=self.mag[rows]).max(axis=1,
                                                    out=self.sizes[m, rows])
        size /= self.scale[rows]
        return np.maximum(self.sizes[m - 1, rows], size).tolist()

    def sweep(self):
        """Sum every pending row to its own stop; nothing when none is."""
        rows = [row for row in range(self.rows) if self.pending[row]]
        if not rows:
            return
        self.going, self.order = slice(rows[0], rows[-1] + 1), 0
        self._flat_terms()
        changes, _ = iterate(self._next_order, self.tol, self.orders,
                             SERIES_PATIENCE, "DN series")
        for i, row in enumerate(rows):
            column = [change[i] for change in changes]
            stop = next((k for k, change in enumerate(column, 1)
                         if change < self.tol), None)
            self.results[row] = column[:stop], stop is not None
            # sum_m G_m up to the row's stop
            terms = self.terms_hat[row, :len(self.results[row][0]) + 1]
            if row == 1:
                terms = terms.copy()
                np.negative(terms[1::2], out=terms[1::2])
            self.gf[row] += np.sum(terms, axis=0)
            np.copyto(self.summed_hat[row], self.f_hat[row])
        self.pending = [False] * self.rows


class _Series(_Engine):
    """G(eta) f as the Craig-Sulem series: one row of a _SeriesSum.

    Row 0 is the engine of G^-(eta) and row 1 that of G^+(eta), sign -1.
    ``set_datum`` takes f into the row, and the step loop is the sum of
    every pending row of the _SeriesSum, after which the engine reads its
    own row.  A ``sweep`` sums to the tolerance and raises NotContracting
    at the order cap.  With ``restart`` it sums the datum from order 0;
    without, it sums only the datum's change since the row's last converged
    sum and adds it to that sum's G f (the warm rule of _SeriesSum), as a
    level sweep without ``restart`` keeps its iterate.  A sweep with no new
    datum in any row sums nothing and returns the row's last change again.
    """

    CAPPED = "DN series not converged after %d orders (change %.3g)"
    # no depth is truncated
    tail_bound = 0.0

    def __init__(self, lockstep, row):
        super().__init__(lockstep.grid, lockstep.cfg, (1.0, -1.0)[row])
        self.lockstep, self.row = lockstep, row
        # the row's datum spectrum, which each sum writes
        self.f_hat = lockstep.f_hat[row]

    def set_datum(self, f, restart=True):
        self.lockstep.set_datum(self.row, f, restart)

    def _iterate(self):
        self.lockstep.sweep()
        return self.lockstep.results[self.row]

    def sweep(self) -> float:
        """Sum the series for the current datum; the last change."""
        return self._require(*self._iterate())

    @property
    def order(self):
        """The orders of G f that the last sum read."""
        return len(self.lockstep.results[self.row][0])

    @property
    def sizes(self):
        """Each read term's largest spectral modulus over that of G_0 f."""
        return self.lockstep.sizes[:self.order + 1, self.row]

    def gf_hat(self) -> np.ndarray:
        return self.sign * self.lockstep.gf[self.row]

    def remainder_hat(self) -> np.ndarray:
        return self.gf_hat() - self.flat * self.f_hat


def _series_engine(grid, eta, cfg: DNConfig, geometry):
    """The series engine of G^-(eta) over ``geometry``, alone in its sum,
    whatever _dn_engines would choose."""
    return _Series(_SeriesSum(grid, eta, cfg, (geometry,)), 0)


def _dn_engines(grid, eta, cfg: DNConfig, geometries):
    """The DN engines of the interface eta, one per geometry, signed.

    The first computes G^-(eta) over ``geometries[0]``; a second computes
    G^+(eta) over ``geometries[1]`` by the reflection G^+(eta) = -G^-(-eta),
    so its G f and remainder G^+ f + |D| f come signed.  Both are _Series,
    the two rows of one _SeriesSum, when the Lipschitz proxy is below both
    SERIES_PROXY_GATE and ``cfg.lipschitz_gate`` and k_max max|eta| below
    _series_reach(cfg.tol); otherwise both are _Sweeper, built on -eta with
    sign -1 for G^+, which take the proxy computed here and raise as
    dn_fixed_point does.  The choice reads eta, the grid and cfg alone,
    before anything is solved.
    """
    # the proxy of -eta is that of eta
    _, proxy = _lipschitz_norms(grid, eta)
    if proxy < min(SERIES_PROXY_GATE, cfg.lipschitz_gate) \
            and grid.k_max * np.max(np.abs(eta)) < _series_reach(cfg.tol):
        lockstep = _SeriesSum(grid, eta, cfg, geometries)
        return [_Series(lockstep, row) for row in range(len(geometries))]
    return [_Sweeper(grid, sign * eta, cfg, geometry, sign, proxy)
            for sign, geometry in zip((1.0, -1.0), geometries)]


def dn_fixed_point(eta: Field, f: Field, cfg: DNConfig = DNConfig(),
                   geometry=InfiniteDepth()) -> DNResult:
    """G^-(eta) f for the lower fluid by Picard iteration on T[v].

    It stops once a sweep changes the iterate by less than ``cfg.tol``
    relative to the lifted datum.  That bounds the last sweep's change, not
    the error of G f, though in both geometries the error measured on a
    test input stays below it (see DNConfig).
    Raises NotContracting when the interface is outside the contraction
    regime (gate on the W^{1+1/2,inf} proxy, or growing residuals) and
    DegenerateJacobian when the flattening change of variables degenerates.
    """
    if eta.grid != f.grid:
        raise ValueError("eta and f live on different grids")
    sweeper = _Sweeper(eta.grid, eta.values, cfg, geometry)
    residuals, converged = sweeper.solve(f.values)
    return sweeper.result(len(residuals), converged, residuals)


def dn_upper(eta: Field, f: Field, cfg: DNConfig = DNConfig(),
             geometry=InfiniteDepth()) -> DNResult:
    """G^+(eta) f for the upper fluid by the reflection identity.

    The upper domain maps to a lower domain under y -> -y, so
    G^+(eta) f = -G^-(-eta) f; ``geometry`` describes the flat top (as a
    FlatStrip at its distance) or InfiniteDepth.
    """
    lower = dn_fixed_point(-eta, f, cfg, geometry)
    # G^+ f + |D| f = -(G^-(-eta) f - |D| f)
    return DNResult(-lower.gf, -lower.remainder, lower.iterations,
                    lower.converged, lower.residuals, lower.tail_bound)
