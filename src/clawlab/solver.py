"""Monotone finite-volume solver for du/dt + div f(x, u) = 0.

First-order forward-Euler update

    u_i^{n+1} = u_i^n - (dt/dx) (F_{i+1/2} - F_{i-1/2})

with the local-speed (Rusanov) interface flux

    F_{i+1/2} = 1/2 [f(x_{i+1/2}, u_i) + f(x_{i+1/2}, u_{i+1})]
                - 1/2 lambda_{i+1/2} (u_{i+1} - u_i),
    lambda_{i+1/2} = max(|d_k f(x_{i+1/2}, u_i)|, |d_k f(x_{i+1/2}, u_{i+1})|).

The flux is frozen at the geometric interface midpoint, which keeps states c
with f(x, c) = const exact.  For a separable flux f_i = g_i(x) h(k) the
factors g_i at the interface lattice are evaluated once per run, when the
stepper is built; each sweep evaluates only h and h' on the states.  Two
dimensions use Godunov splitting of the same stencil, each sweep under half
the CFL budget.  An optional central second-difference term turns the
update into the viscous regularization du/dt + div f = eps Lap u under the
parabolic step restriction.  The exact Godunov interface flux
(``godunov_burgers``) exists for the 1-d Burgers flux only; other
combinations are refused.

The stepper owns its sweep buffers: one ghost buffer and the interface
buffers fL, fR, lam and F (plus a work array), each one storage that the
axes share, and one ``_Axis`` per axis holds its views of them.  A sweep
writes the interior and the two ghost layers of u into the ghost buffer,
and computes F and the update with ``out=`` ufuncs in the association
written above (``_rusanov``), so its states are bitwise those of the
plain expressions.  Apart from the values of h and h' (and the Godunov
branch's f), a step allocates only the array it returns; it never writes
its input.

``solve``, ``solve_pair`` and ``discrete_entropy_max_violation`` start from
one setup (``_Run``): it checks the flux against the config, samples each
initial datum once (non-finite data raise ``BlowUp``), and derives one dt
and step count from the a-priori bound of the largest datum, so a pair
shares its time levels.  All three march through one loop (``_Run.steps``),
which checks each datum after every step against its own blow-up
threshold, ten times its own a-priori bound.

The same interface flux induces a numerical entropy flux for |u - k|:

    Q_{i+1/2} = 1/2 [q(x_{i+1/2}, u_i) + q(x_{i+1/2}, u_{i+1})]
                - 1/2 lambda_{i+1/2} (|u_{i+1} - k| - |u_i - k|),
    q(x, u) = sign(u - k) (f(x, u) - f(x, k)),

and for homogeneous fluxes the per-cell inequality
|u^{n+1}-k| - |u^n-k| + (dt/dx)(Q_{i+1/2} - Q_{i-1/2}) <= 0 holds to
roundoff; ``discrete_entropy_max_violation`` measures it.  It reads the
ghosted states, fL, fR and lam of each step from the buffers of the 1-d
stepper's one axis, so h and h' are evaluated once per step, computes Q
into arrays allocated once per run, and refuses an empty or non-finite
list of k before any solving.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUp, CFLViolation, GridMismatch
from .flux import FluxSpec
from .grids import GridField, _tensor_points, cell_centers

Array = np.ndarray


@dataclass(frozen=True)
class SchemeConfig:
    """Run parameters: grid geometry, scheme tag, CFL, storage policy."""

    lo: float
    hi: float
    nx: int
    t_end: float
    scheme: str = "rusanov"           # rusanov | godunov_burgers | viscous
    cfl: float = 0.9
    boundary: str = "outflow"         # outflow | periodic
    store_every: int = 1
    dim: int = 1
    viscosity: float = 0.0

    def __post_init__(self):
        for bad, rule in (
                (not all(isinstance(n, numbers.Integral)
                         for n in (self.nx, self.store_every, self.dim)),
                 "integer nx, store_every and dim"),
                (not all(map(math.isfinite, (self.lo, self.hi, self.t_end))),
                 "finite lo, hi and t_end"), (self.hi <= self.lo, "hi > lo"),
                (self.nx < 1, "nx >= 1"), (self.t_end <= 0.0, "t_end > 0"),
                (self.dim not in (1, 2), "dim 1 or 2")):
            if bad:
                raise ValueError(f"the grid needs {rule}, got {self}")
        if not (0.0 < self.cfl <= 1.0):
            raise CFLViolation(f"cfl must be in (0, 1], got {self.cfl}")
        if self.scheme not in ("rusanov", "godunov_burgers", "viscous"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.boundary not in ("outflow", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        # only the viscous scheme reads the viscosity: any other value
        # than 0 elsewhere would be silently dropped
        viscous = self.scheme == "viscous"
        if not (0.0 < self.viscosity < math.inf if viscous
                else self.viscosity == 0.0):
            raise ValueError(f"the {self.scheme} scheme needs viscosity "
                             f"{'finite and > 0' if viscous else '= 0'}, "
                             f"got {self.viscosity}")
        if self.scheme == "godunov_burgers" and self.dim != 1:
            raise ValueError("godunov_burgers is implemented in 1-d only")
        if self.store_every < 1:
            raise ValueError(f"store_every must be >= 1, got {self.store_every}")

    @property
    def dx(self) -> float:
        """The cell width, the one dx of the run."""
        return (self.hi - self.lo) / self.nx

    def refined(self, factor: int = 2) -> "SchemeConfig":
        """Same run with dx (and, for viscous runs, eps) divided by factor."""
        return replace(self, nx=self.nx * factor,
                       viscosity=self.viscosity / factor)


def _sample_points(config: SchemeConfig) -> Array:
    """The lattice the a-priori estimates sample, shape (npts, dim)."""
    lat = np.linspace(config.lo, config.hi, 65 if config.dim == 2 else 129)
    return _tensor_points(lat, config.dim).reshape(-1, config.dim)


def _estimate_bound(flux: FluxSpec, config: SchemeConfig, m0: float) -> float:
    """A-priori bound max|u0| + T sup|div_x f|; the sup is refreshed once with
    the enlarged state interval since the source can grow the solution."""
    pts = _sample_points(config)
    m = m0
    for _ in range(2):
        ks = np.linspace(-max(m, m0), max(m, m0), 33)
        sup_div = float(np.abs(flux.div_x(pts[:, None, :], ks[None, :])).max())
        m = m0 + config.t_end * sup_div
    return m


def _estimate_speed(flux: FluxSpec, config: SchemeConfig, m_bound: float) -> float:
    pts = _sample_points(config)
    ks = np.linspace(-m_bound, m_bound, 65)
    return float(np.abs(flux.dk(pts[:, None, :], ks[None, :])).max())


def _along(axis: int, ndim: int, index) -> tuple:
    """The index tuple that applies ``index`` along ``axis`` of an ndim array."""
    return tuple(index if a == axis else slice(None) for a in range(ndim))


def _rusanov(uL, uR, fL, fR, lam, out, work) -> None:
    """F = 0.5 (fL + fR) - 0.5 lam (uR - uL), associated as written, into
    ``out`` with ``work`` for the second term."""
    np.subtract(uR, uL, out=work)
    np.multiply(0.5, lam, out=out)
    np.multiply(out, work, out=work)
    np.add(fL, fR, out=out)
    np.multiply(0.5, out, out=out)
    np.subtract(out, work, out=out)


class _Axis:
    """One axis's sweep, bound once per run.

    Component ``axis`` of f and d_k f at the fixed interface points ``xi``:
    for a flux with declared factors f_i = g_i(x) h(k), g_i(xi) is evaluated
    here once, and a sweep takes h and h' once on the ghosted states; any
    other flux goes through ``eval``/``dk``.  Views of the stepper's ghost
    buffer in the shape of this axis: the ghosted states ``ug`` with its
    interior, its two ghost layers and their sources under the boundary
    rule, the neighbours uL, uR of every interface and the +-1 cell offsets
    for the Laplacian.  The stepper's interface buffers fL, fR, lam, F and
    work in this axis's shape, and the two sides of F for the update.
    """

    def __init__(self, flux: FluxSpec, config: SchemeConfig, xi: Array,
                 axis: int, ug: Array, faces, lap):
        self.flux, self.xi, self.axis, self.ug = flux, xi, axis, ug
        self.scheme, self.dx, self.lap = config.scheme, config.dx, lap
        self.viscosity = config.viscosity
        self.g = None if flux.factors is None else flux.factors.g(xi)[..., axis]
        self.abs_g = None if self.g is None else np.abs(self.g)
        ndim = ug.ndim

        def along(start, stop):
            return _along(axis, ndim, slice(start, stop))

        self.inner = ug[along(1, -1)]
        # the ghost layers copy the first and last cells (outflow), or the
        # opposite ones (periodic)
        first, last = ug[along(1, 2)], ug[along(-2, -1)]
        if config.boundary == "periodic":
            first, last = last, first
        self.ghosts = ((ug[along(0, 1)], first), (ug[along(-1, None)], last))
        left, right = along(0, -1), along(1, None)
        self.left, self.right = left, right
        self.uL, self.uR = ug[left], ug[right]
        self.plus, self.minus = ug[along(2, None)], ug[along(0, -2)]
        self.fL, self.fR, self.lam, self.F, self.work = (
            s.reshape(xi.shape[:-1]) for s in faces)
        self.F_right, self.F_left = self.F[right], self.F[left]

    def at(self, k) -> Array:
        """f(x_{i+1/2}, k)[axis] for states k on (or broadcast to) the lattice."""
        if self.g is None:
            return self.flux.eval(self.xi, k)[..., self.axis]
        return self.g * self.flux.factors.h(np.asarray(k, dtype=float))

    def sides(self) -> None:
        """Write fL = f(x, uL), fR = f(x, uR) and the local speed
        lam = max(|d_k f(x, uL)|, |d_k f(x, uR)|) at every interface of the
        ghosted ``ug`` into the interface buffers."""
        if self.g is None:
            flux, xi, axis = self.flux, self.xi, self.axis
            uL, uR = self.uL, self.uR
            dL, dR = flux.dk(xi, uL)[..., axis], flux.dk(xi, uR)[..., axis]
            np.copyto(self.fL, self.at(uL))
            np.copyto(self.fR, self.at(uR))
        else:
            left, right = self.left, self.right
            h = self.flux.factors.h(self.ug)
            np.multiply(self.g, h[left], out=self.fL)
            np.multiply(self.g, h[right], out=self.fR)
            # h' may return ug itself, so it is only read
            h_prime = self.flux.factors.h_prime(self.ug)
            dL, dR = h_prime[left], h_prime[right]
        lam = self.lam
        np.abs(dL, out=lam)
        np.maximum(lam, np.abs(dR, out=self.work), out=lam)
        if self.g is not None:
            # |g h'| = |g| |h'|, and scaling by |g| >= 0 commutes with the max
            np.multiply(self.abs_g, lam, out=lam)

    def sweep(self, u: Array, dt: float, out: Array) -> Array:
        """One sweep of ``u`` along this axis, written into ``out``."""
        np.copyto(self.inner, u)
        for ghost, source in self.ghosts:
            np.copyto(ghost, source)
        if self.scheme == "godunov_burgers":
            # exact Godunov flux for convex f with minimum at u = 0
            np.maximum(self.at(np.maximum(self.uL, 0.0)),
                       self.at(np.minimum(self.uR, 0.0)), out=self.F)
        else:
            self.sides()
            _rusanov(self.uL, self.uR, self.fL, self.fR, self.lam, self.F,
                     self.work)
        # u - (dt / dx) (F_{i+1/2} - F_{i-1/2})
        dx = self.dx
        np.subtract(self.F_right, self.F_left, out=out)
        np.multiply(dt / dx, out, out=out)
        np.subtract(u, out, out=out)
        if self.scheme == "viscous":
            # (u_{i+1} - 2 u_i + u_{i-1}) scaled by eps dt / dx^2
            lap = self.lap
            np.multiply(2.0, u, out=lap)
            np.subtract(self.plus, lap, out=lap)
            np.add(lap, self.minus, out=lap)
            np.multiply(self.viscosity * dt / dx ** 2, lap, out=lap)
            np.add(out, lap, out=out)
        return out


class _Stepper:
    """Cell centers, sweep buffers and one ``_Axis`` per axis, bound once
    for repeated sweeps.

    The axes share one storage per buffer (every axis has nx cells, so
    the sizes agree), and a sweep writes each buffer before it reads it.
    """

    def __init__(self, flux: FluxSpec, config: SchemeConfig):
        n, dim, dx = config.nx, config.dim, config.dx
        self.centers = c = cell_centers(config.lo, config.hi, n)
        e = config.lo + np.arange(n + 1) * dx
        cells = (n,) * dim
        ghosted = np.empty((n + 2) * n ** (dim - 1))
        faces = [np.empty((n + 1) * n ** (dim - 1)) for _ in range(5)]
        self.lap = np.empty(cells) if config.scheme == "viscous" else None
        # the 2-d x sweep writes here; the y sweep reads it
        self.mid = np.empty(cells) if dim == 2 else None
        # interface points of the sweep along each axis: edges on that axis,
        # cell centers on the others, shape (..., dim)
        self.axes = []
        for axis in range(dim):
            grids = np.meshgrid(*[e if a == axis else c for a in range(dim)],
                                indexing="ij")
            shape = tuple(n + 2 if a == axis else n for a in range(dim))
            self.axes.append(_Axis(flux, config, np.stack(grids, axis=-1),
                                   axis, ghosted.reshape(shape), faces,
                                   self.lap))


class _Stepper1D(_Stepper):
    def step(self, u: Array, dt: float) -> Array:
        return self.axes[0].sweep(u, dt, np.empty(u.shape))


class _Stepper2D(_Stepper):
    """Godunov splitting: an x sweep, then a y sweep."""

    def step(self, u: Array, dt: float) -> Array:
        x, y = self.axes
        return y.sweep(x.sweep(u, dt, self.mid), dt, np.empty(u.shape))


def _time_step(flux: FluxSpec, config: SchemeConfig, m_bound: float):
    dx = config.dx
    lam_max = _estimate_speed(flux, config, m_bound)
    budget = config.cfl / (2.0 if config.dim == 2 else 1.0)
    if config.scheme == "viscous":
        # combined advective + diffusive budget: the update stays a convex
        # combination only if mu lambda + 2 dim nu <= 1, which the separate
        # minima do not guarantee
        dt = budget / (lam_max / dx
                       + 2.0 * config.dim * config.viscosity / dx ** 2)
    else:
        dt = budget * dx / lam_max if lam_max > 0 else budget * dx
    if not (dt > 0.0 and math.isfinite(dt)):
        raise CFLViolation(f"computed dt = {dt}")
    return dt, lam_max


class _Run:
    """One run of the scheme on one grid, set up once for one or more
    initial data: the stepper, each datum sampled on the cell centers, one
    BlowUp threshold per datum, and the dt and step count they share."""

    def __init__(self, flux: FluxSpec, config: SchemeConfig, data):
        if flux.dim != config.dim:
            raise GridMismatch(f"flux dim {flux.dim} != config dim {config.dim}")
        if config.scheme == "godunov_burgers" and flux.name != "burgers1d":
            raise ValueError(f"godunov_burgers assumes the burgers1d flux, "
                             f"got {flux.name}")
        self.config = config
        self.stepper = (_Stepper1D if config.dim == 1 else _Stepper2D)(flux, config)
        pts = _tensor_points(self.stepper.centers, config.dim)
        self.u0s = []
        for u0 in data:
            u = np.asarray(u0(pts), dtype=float) + np.zeros(pts.shape[:-1])
            if not np.all(np.isfinite(u)):
                raise BlowUp("initial data is not finite")
            self.u0s.append(u)
        # |u| of one step, written in place by checked_max
        self._abs = np.empty(pts.shape[:-1])
        m0s = [float(np.abs(u).max()) for u in self.u0s]
        # the estimate samples linspace(-m, m, 33), so it is not monotone in
        # m0: dt comes from the bound of the largest datum, not from the
        # largest of the per-datum bounds
        bounds = {m0: _estimate_bound(flux, config, m0) for m0 in m0s}
        self.thresholds = [10.0 * bounds[m0] for m0 in m0s]
        dt, _ = _time_step(flux, config, bounds[max(m0s)])
        self.nsteps = max(1, int(math.ceil(config.t_end / dt - 1e-12)))
        self.dt = config.t_end / self.nsteps

    def checked_max(self, u: Array, n: int, datum: int) -> float:
        """max|u| after step n; BlowUp if it is not finite or passes the
        threshold of the given datum."""
        amax = float(np.abs(u, out=self._abs).max())
        threshold = self.thresholds[datum]
        if not math.isfinite(amax) or (threshold > 0.0 and amax > threshold):
            raise BlowUp(f"|u| reached {amax:.3e} at step {n} "
                         f"(threshold {threshold:.3e})")
        return amax

    def steps(self, datum: int):
        """Step the given datum to t_end, yielding (n, u^{n-1}, u^n, max|u^n|)
        after each step n has passed the BlowUp check."""
        u = self.u0s[datum]
        for n in range(1, self.nsteps + 1):
            unew = self.stepper.step(u, self.dt)
            yield n, u, unew, self.checked_max(unew, n, datum)
            u = unew

    def march(self, datum: int) -> GridField:
        """March the given datum to t_end, storing every store_every-th
        level and the last one into one preallocated array."""
        config, nsteps, dt = self.config, self.nsteps, self.dt
        every = config.store_every
        levels = 1 + nsteps // every + (nsteps % every != 0)
        u = self.u0s[datum]
        times = np.zeros(levels)
        data = np.empty((levels,) + u.shape)
        data[0] = u
        bound = float(np.abs(u).max())
        level = 1
        for n, _, u, amax in self.steps(datum):
            bound = max(bound, amax)
            if n % every == 0 or n == nsteps:
                times[level] = n * dt
                data[level] = u
                level += 1
        return GridField(config.dim, config.lo, config.hi, config.nx,
                         times, data, bound)


def solve(flux: FluxSpec, u0, config: SchemeConfig) -> GridField:
    """March the Cauchy problem to t_end and return the stored field.

    ``u0`` is an InitialData descriptor or any callable on cell-center
    points.  Under outflow boundaries the caller must size the domain so the
    reported region never hears the boundary before t_end.
    """
    return _Run(flux, config, [u0]).march(0)


def solve_pair(flux: FluxSpec, u0a, u0b, config: SchemeConfig):
    """Solve two Cauchy problems on the same grid with a shared time step, so
    the stored levels coincide and the fields can be compared level by level."""
    run = _Run(flux, config, [u0a, u0b])
    return run.march(0), run.march(1)


def exact_riemann_burgers(uL: float, uR: float, x, t: float):
    """Entropy solution of the Burgers Riemann problem at (x, t), t > 0.

    Shock of speed (uL+uR)/2 for uL > uR; rarefaction fan x/t for uL < uR.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    xs = np.asarray(x, dtype=float)
    if uL > uR:
        s = 0.5 * (uL + uR)
        out = np.where(xs < s * t, uL, uR)
    elif uL < uR:
        out = np.clip(xs / t, uL, uR)
    else:
        out = np.full_like(xs, uL)
    return out if out.ndim else float(out)


def discrete_entropy_max_violation(flux: FluxSpec, u0, config: SchemeConfig,
                                   k_values) -> float:
    """Worst per-cell violation of the discrete |u - k| inequality over the
    whole run, all cells, all k.  Meaningful for homogeneous fluxes, where
    the monotone update makes it non-positive up to roundoff."""
    if config.dim != 1:
        raise ValueError("entropy scan is 1-d")
    if config.scheme != "rusanov":
        raise ValueError("the entropy flux form matches the rusanov scheme")
    ks = np.array([float(k) for k in np.atleast_1d(k_values)])[:, None]
    if ks.size == 0:
        raise ValueError("the entropy scan needs at least one k")
    bad = ks[~np.isfinite(ks)]
    if bad.size:
        raise ValueError(f"the entropy scan needs finite k, got {bad.tolist()}")
    run = _Run(flux, config, [u0])
    # the one sweep of a 1-d step leaves in its axis the ghosted states,
    # interface fluxes and local speeds of the step that made unew from u
    a = run.stepper.axes[0]
    mu = run.dt / config.dx
    # one row per k: k and f(x_{i+1/2}, k), the same on every step
    f_ks = np.stack([a.at(k) for k in ks[:, 0]])
    Q, work = (np.empty((len(ks), config.nx + 1)) for _ in range(2))
    worst = -math.inf
    for _, _, unew, _ in run.steps(0):
        # interface entropy flux Q_{i+1/2}: the scheme's flux applied to
        # (|u - k|, q_k) with the same local speeds
        rel = a.ug - ks
        sign, dist = np.sign(rel), np.abs(rel)
        _rusanov(dist[:, :-1], dist[:, 1:], sign[:, :-1] * (a.fL - f_ks),
                 sign[:, 1:] * (a.fR - f_ks), a.lam, Q, work)
        viol = np.abs(unew - ks) - dist[:, 1:-1] + mu * np.diff(Q, axis=1)
        worst = max(worst, float(viol.max()))
    return worst
