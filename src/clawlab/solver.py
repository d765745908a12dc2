"""Monotone finite-volume solver for du/dt + div f(x, u) = 0.

First-order forward-Euler update

    u_i^{n+1} = u_i^n - (dt/dx) (F_{i+1/2} - F_{i-1/2})

with the local-speed (Rusanov) interface flux

    F_{i+1/2} = 1/2 [f(x_{i+1/2}, u_i) + f(x_{i+1/2}, u_{i+1})]
                - 1/2 lambda_{i+1/2} (u_{i+1} - u_i),
    lambda_{i+1/2} = max(|d_k f(x_{i+1/2}, u_i)|, |d_k f(x_{i+1/2}, u_{i+1})|).

The flux is frozen at the geometric interface midpoint, which keeps states c
with f(x, c) = const exact.  Every flux is separable, f_i = g_i(x_i) h(k):
g is evaluated once per run on the n + 1 cell edges, when the stepper is
built, and the sweep along axis i reads column i (g_i at its interfaces),
broadcast along the other axes; each sweep evaluates only h and h' on the
states.  In d dimensions Godunov splitting sweeps the same stencil along
each axis in turn, each sweep under cfl/d.  An optional central
second-difference term turns the update into the viscous regularization
du/dt + div f = eps Lap u under the parabolic step restriction.  The
exact Godunov interface flux (``godunov_burgers``) exists for the 1-d
Burgers flux only; other combinations are refused.

The stepper owns its sweep buffers: one ghost buffer and the interface
buffers fL, fR, lam and F (plus a work array), each one storage that the
axes share, and one ``_Axis`` per axis holds its views of them.  A sweep
writes the interior and the two ghost layers of u into the ghost buffer,
and computes F and the update with ``out=`` ufuncs in the association
written above (``_rusanov``), so its states are bitwise those of the
plain expressions.

The scheme has a finite speed of propagation, and both steppers use it
through one rest rule (``_Axis.rests``): c rests when it is finite and not
-0.0, a sweep of the constant datum c leaves F with one finite value at
every interface (+-0 counted equal) and, under the viscous scheme, 2c is
finite.  Then a cell that holds c between two neighbours that hold c
keeps c bit for bit under every dt, since c - (+-0) = c and the Laplacian
is +0.0.  +0.0 rests under every catalog flux but ``xsquared1d``, and
every state with |c| below about 1e154 (where F = c^2/2 overflows) under
``burgers1d``; -0.0 never rests, since -0.0 - (-0.0) = +0.0.

The 2-d stepper keeps the active window of the array it last returned:
one cell range per axis, outside which every cell holds the bits of +0.0
(-0.0, NaN and denormals count as active).  Any other input gets its
window from one scan of its bits.  A sweep along an axis computes only
the window widened by one cell along that axis, on the rows the window
spans, with the same ufuncs on views of the buffers.  The window then
grows where one of the two margin slabs ended with a bit other than
+0.0.  Under periodic boundaries a window within a cell of an edge takes
the whole axis.  The window is the whole grid where +0.0 does not rest
(checked on the first datum with a +0.0 cell); a sweep of the whole grid
runs on views bound once per run.

The 1-d stepper keeps a window between two far-field states: left of it
every cell holds the bits of the first cell cL, right of it those of the
last cell cR (the Riemann states of a shock, say).  When both rest, a
step copies u and sweeps the window widened by ``_MARGIN`` + 1 cells on
each side; the window grows by a cell where the cell next to it ended
with other bits, and the views are bound again only once it has grown
past the margin.  Under periodic boundaries cL must equal cR, and a swept
range that reaches an edge takes the whole grid.  The entropy scan below
reads the buffers at every interface, so it turns the window off
(``rest`` False).  A 1-d step is not all call overhead: on a shared
2-vCPU Xeon (Python 3.11.7, numpy 2.4.6) a whole-grid Burgers step took
13.3, 19.1 and 24.5 us at nx 250, 1000 and 2000 (best of 7 timeit runs),
about 12 us fixed plus 7 us per 1,000 cells, and binding a ``_Views``
took 10 us.  On the seven solves of a ``shock_1d`` point (x0 = 0, each of
the four ur, 7 interleaved rounds) the solver took a median of 175 ms per
point on the whole grid, 153 ms with views bound anew on every step
(margin 0), and 133, 116, 124 and 142 ms with a margin of 4, 16, 32 and
64 cells.

``_Run.checked_max`` reads max|u| on the window of either stepper.  Apart
from the values of h and h' (and the Godunov branch's f) and the views of
a window short of the grid, a step allocates only the array it returns,
which holds the far-field states outside the window; it never writes its
input.

``solve``, ``solve_pair`` and ``discrete_entropy_max_violation`` start from
one setup (``_Run``): it checks the flux against the config with the
rule ``parse_config`` applies too (``require_flux_fits``), samples each
initial datum once (non-finite data raise ``BlowUp``), and derives one dt
and step count from the a-priori bound of the largest datum, so a pair
shares its time levels.  The bound's source sup|div_x f| and the speed
sup|d_k f| are a max over points times a max over states (``_sup_abs``),
and a non-finite one raises ``NonFiniteFlux``.  All three march through
one loop (``_Run.steps``), which checks each datum after every step
against its own blow-up threshold, ten times its own a-priori bound.

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

from .errors import BlowUp, CFLViolation, GridMismatch, NonFiniteFlux
from .flux import FluxSpec
from .grids import DIMS, GridField, _tensor_points, cell_centers

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
                (self.dim not in DIMS,
                 "dim " + " or ".join(map(str, DIMS)))):
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


def _sup_abs(flux: FluxSpec, derivative: str, config: SchemeConfig, m: float,
             states: int) -> float:
    """max |``derivative``(x, k)| over the lattice the a-priori estimates
    sample and ``states`` equally spaced k in [-m, m], taken as max|x-factor|
    times max|state factor|: rounding is monotone and |a b| = |a| |b|, so
    that is the max over their product, bit for bit.  ``NonFiniteFlux`` if
    it is not finite."""
    # the estimate, then the names of the x-factor and the state factor
    estimate, x_factor, k_factor = {
        "dk": ("speed sup|d_k f|", "g", "h_prime"),
        "div_x": ("bound's source sup|div_x f|", "g_prime_sum", "h"),
    }[derivative]
    # 1 + 2^(8 - d) points per axis: 129 in 1-d, 65 in 2-d, 33 in 3-d
    lat = np.linspace(config.lo, config.hi, 1 + 2 ** (8 - config.dim))
    pts = _tensor_points(lat, config.dim).reshape(-1, config.dim)
    ks = np.linspace(-m, m, states)
    sup = (float(np.abs(getattr(flux.factors, x_factor)(pts)).max())
           * float(np.abs(getattr(flux.factors, k_factor)(ks)).max()))
    if not math.isfinite(sup):
        raise NonFiniteFlux(f"{flux.name}: the a-priori {estimate} over "
                            f"the states in [-{m}, {m}] is {sup}")
    return sup


def _estimate_bound(flux: FluxSpec, config: SchemeConfig, m0: float) -> float:
    """A-priori bound max|u0| + T sup|div_x f|; the sup is refreshed once with
    the enlarged state interval since the source can grow the solution."""
    m = m0
    for _ in range(2):
        m = m0 + config.t_end * _sup_abs(flux, "div_x", config, max(m, m0), 33)
    return m


def require_flux_fits(flux: FluxSpec, dim: int, scheme: str) -> None:
    """The one rule for which flux a grid of ``dim`` and a ``scheme`` take:
    refuse a flux of another dimension (``GridMismatch``), and
    ``godunov_burgers`` on any flux but burgers1d (``ValueError``), whose
    exact Godunov formula assumes a convex flux with its minimum at u = 0."""
    if flux.dim != dim:
        raise GridMismatch(f"flux {flux.name} is {flux.dim}-d but the grid "
                           f"has dim = {dim}")
    if scheme == "godunov_burgers" and flux.name != "burgers1d":
        raise ValueError(f"godunov_burgers is implemented for the 1-d "
                         f"burgers1d flux only, got {flux.name}")


def _along(axis: int, ndim: int, index, rows=slice(None)) -> tuple:
    """The index tuple that applies ``index`` along ``axis`` of an ndim
    array and ``rows`` along the other axes."""
    at = [rows] * ndim
    at[axis] = index
    return tuple(at)


def _rusanov(uL, uR, fL, fR, lam, out, work) -> None:
    """F = 0.5 (fL + fR) - 0.5 lam (uR - uL), associated as written, into
    ``out`` with ``work`` for the second term."""
    np.subtract(uR, uL, out=work)
    np.multiply(0.5, lam, out=out)
    np.multiply(out, work, out=work)
    np.add(fL, fR, out=out)
    np.multiply(0.5, out, out=out)
    np.subtract(out, work, out=out)


class _Views:
    """One axis's views of the stepper's buffers for the sweep of cells
    [c0, c1) along the axis on ``rows`` of the other axis.

    The ghosted states of those cells and of one more cell on each side
    (``states``; uL, uR the neighbours of each interface), the part of the
    ghost buffer the sweep copies from u[``src``] (``inner``), the ghost
    layers it fills from their sources under the boundary rule, the +-1
    cell offsets and the buffer for the Laplacian, the factors g and |g|
    at the interfaces, the interface buffers fL, fR, lam, F and work, and
    the two sides of F for the update of u[``cells``].
    ``src`` and ``cells`` are None for the whole grid.
    """

    def __init__(self, a: "_Axis", c0: int, c1: int, rows=slice(None)):
        n, ug = a.n, a.ug

        def at(start, stop):
            return _along(a.axis, ug.ndim, slice(start, stop), rows)

        whole = (c0, c1, rows) == (0, n, slice(None))
        k0, k1 = max(c0 - 1, 0), min(c1 + 1, n)
        self.src = None if whole else at(k0, k1)
        self.cells = None if whole else at(c0, c1)
        self.inner = ug[at(k0 + 1, k1 + 1)]
        # the ghost layers copy the first and last cells (outflow), or the
        # opposite ones (periodic); a window short of a periodic axis stays
        # a cell clear of both ends, so its views have no ghost layer
        first, last = ug[at(1, 2)], ug[at(n, n + 1)]
        if a.periodic:
            first, last = last, first
        self.ghosts = [pair for pair, edge in (
            ((ug[at(0, 1)], first), c0 == 0),
            ((ug[at(n + 1, n + 2)], last), c1 == n)) if edge]
        self.states = ug[at(c0, c1 + 2)]
        self.uL, self.uR = ug[at(c0, c1 + 1)], ug[at(c0 + 1, c1 + 2)]
        self.plus, self.minus = ug[at(c0 + 2, c1 + 2)], ug[at(c0, c1)]
        self.lap = None if a.lap is None else a.lap[at(c0, c1)]
        faces = at(c0, c1 + 1)
        self.g, self.abs_g = a.g[faces], a.abs_g[faces]
        self.fL, self.fR, self.lam, self.F, self.work = (
            b[faces] for b in a.faces)
        self.F_right, self.F_left = self.F[a.right], self.F[a.left]


class _Axis:
    """One axis's sweep, bound once per run.

    Component ``axis`` of f and d_k f at the interfaces: of the factors
    f_i = g_i(x_i) h(k), the stepper takes g_i at the n + 1 edges (``g``)
    once, here a read-only broadcast along the other axes, and a sweep
    takes h and h' once on the ghosted states.  The stepper's ghost buffer
    ``ug`` and its interface buffers fL, fR, lam, F and work in the shape
    of this axis, and their views for a sweep of the whole grid
    (``whole``); a sweep of a window takes views of its part (``_Views``).
    """

    def __init__(self, flux: FluxSpec, config: SchemeConfig, g: Array,
                 axis: int, ug: Array, faces, lap):
        self.factors, self.axis, self.ug = flux.factors, axis, ug
        self.scheme, self.dx, self.lap = config.scheme, config.dx, lap
        self.viscosity = config.viscosity
        self.n, self.periodic = config.nx, config.boundary == "periodic"
        shape = ug.shape[:axis] + (self.n + 1,) + ug.shape[axis + 1:]
        g = g[_along(axis, ug.ndim, slice(None), None)]
        self.g, self.abs_g = (np.broadcast_to(a, shape) for a in (g, abs(g)))
        self.left = _along(axis, ug.ndim, slice(0, -1))
        self.right = _along(axis, ug.ndim, slice(1, None))
        self.faces = [s.reshape(shape) for s in faces]
        self.fL, self.fR, self.lam = self.faces[:3]
        self.whole = _Views(self, 0, self.n)

    def at(self, k, views: _Views | None = None) -> Array:
        """f(x_{i+1/2}, k)[axis] for states k on (or broadcast to) the
        interfaces of ``views`` (default: every interface)."""
        return (views or self.whole).g * self.factors.h(
            np.asarray(k, dtype=float))

    def sides(self, v: _Views) -> None:
        """Write fL = f(x, uL), fR = f(x, uR) and the local speed
        lam = max(|d_k f(x, uL)|, |d_k f(x, uR)|) at every interface of
        ``v`` into its interface buffers."""
        left, right = self.left, self.right
        h = self.factors.h(v.states)
        np.multiply(v.g, h[left], out=v.fL)
        np.multiply(v.g, h[right], out=v.fR)
        # h' may return the states themselves, so it is only read
        h_prime = self.factors.h_prime(v.states)
        lam = v.lam
        np.abs(h_prime[left], out=lam)
        np.maximum(lam, np.abs(h_prime[right], out=v.work), out=lam)
        # |g h'| = |g| |h'|, and scaling by |g| >= 0 commutes with the max
        np.multiply(v.abs_g, lam, out=lam)

    def rests(self, c: float) -> bool:
        """Whether c is a rest state of the sweep: a cell that holds c
        between two neighbours that hold c keeps its bits, whatever dt.

        So it is when c is finite and not -0.0, a sweep of the constant
        datum c leaves F with one finite value at every interface (+0.0 and
        -0.0 counted equal), so that the flux difference is +-0, and, under
        the viscous scheme, 2c is finite, so that the Laplacian is +0.0;
        c - (+-0) and c + (+0.0) are then c bit for bit.  F does not depend
        on dt, so neither does the rule.  (-0.0 - (-0.0) is +0.0, so -0.0
        never rests.)"""
        if not math.isfinite(c) or (c == 0.0 and math.copysign(1.0, c) < 0.0):
            return False
        if self.scheme == "viscous" and not math.isfinite(2.0 * c):
            return False
        self.ug.fill(c)
        # a flux that overflows at c makes F non-finite: c does not rest
        with np.errstate(over="ignore", invalid="ignore"):
            F = self.fluxes(self.whole)
        first = F.flat[0]
        return bool(math.isfinite(first) and np.all(F == first))

    def fluxes(self, v: _Views) -> Array:
        """The interface flux F of the ghosted states of ``v``, written into
        its F buffer."""
        if self.scheme == "godunov_burgers":
            # exact Godunov flux for convex f with minimum at u = 0
            np.maximum(self.at(np.maximum(v.uL, 0.0), v),
                       self.at(np.minimum(v.uR, 0.0), v), out=v.F)
        else:
            self.sides(v)
            _rusanov(v.uL, v.uR, v.fL, v.fR, v.lam, v.F, v.work)
        return v.F

    def sweep(self, u: Array, dt: float, out: Array,
              v: _Views | None = None) -> Array:
        """One sweep of ``u`` along this axis on the part of ``v`` (default:
        the whole grid), written into the same part of ``out``."""
        v = v or self.whole
        np.copyto(v.inner, u if v.src is None else u[v.src])
        for ghost, source in v.ghosts:
            np.copyto(ghost, source)
        self.fluxes(v)
        # the cells of v in u and out
        cells = out
        if v.cells is not None:
            u, cells = u[v.cells], out[v.cells]
        # u - (dt / dx) (F_{i+1/2} - F_{i-1/2})
        dx = self.dx
        np.subtract(v.F_right, v.F_left, out=cells)
        np.multiply(dt / dx, cells, out=cells)
        np.subtract(u, cells, out=cells)
        if self.scheme == "viscous":
            # (u_{i+1} - 2 u_i + u_{i-1}) scaled by eps dt / dx^2
            lap = v.lap
            np.multiply(2.0, u, out=lap)
            np.subtract(v.plus, lap, out=lap)
            np.add(lap, v.minus, out=lap)
            np.multiply(self.viscosity * dt / dx ** 2, lap, out=lap)
            np.add(cells, lap, out=cells)
        return out


class _Stepper:
    """Cell centers, sweep buffers and one ``_Axis`` per axis, bound once
    for repeated sweeps, and the array last returned with its window.

    The axes share one storage per buffer (every axis has nx cells, so
    the sizes agree), and a sweep writes each buffer before it reads it.
    """

    def __init__(self, flux: FluxSpec, config: SchemeConfig):
        n, dim, dx = config.nx, config.dim, config.dx
        self.n, self.periodic = n, config.boundary == "periodic"
        # False makes every sweep take the whole grid.  The 2-d stepper
        # stores here whether +0.0 rests, checked on the first datum with a
        # +0.0 cell; the 1-d one checks the far-field states of each datum
        self.rest = None
        self._out, self._window = None, None
        self.centers = cell_centers(config.lo, config.hi, n)
        cells = (n,) * dim
        ghosted = np.empty((n + 2) * n ** (dim - 1))
        faces = [np.empty((n + 1) * n ** (dim - 1)) for _ in range(5)]
        self.lap = np.empty(cells) if config.scheme == "viscous" else None
        # the 2-d x sweep writes here; the y sweep reads it
        self.mid = np.empty(cells) if dim == 2 else None
        # g_i depends on x_i alone, so column i of g at the n + 1 edges is
        # g_i at the interfaces of the sweep along axis i
        e = config.lo + np.arange(n + 1) * dx
        g = flux.factors.g(np.repeat(e[:, None], dim, axis=1))
        self.axes = [
            _Axis(flux, config, g[:, axis], axis, ghosted.reshape(
                tuple(n + 2 if a == axis else n for a in range(dim))),
                faces, self.lap)
            for axis in range(dim)]

    def max_abs(self, u: Array, work: Array) -> float:
        """max|u|, with ``work`` for |u|."""
        return float(np.abs(u, out=work).max())


# cells a 1-d sweep takes beyond the active window on each side, so that
# the window grows by this many cells before the views are bound again
# (see the module docstring for the measurement)
_MARGIN = 16


class _Stepper1D(_Stepper):
    """One sweep per step, on the cells [w0, w1) around the active window of
    the array last returned.

    The active window is a cell range (lo, hi) left of which every cell
    holds the bits of the far-field state cL, the array's first cell, and
    right of which every cell holds those of cR, its last.  When both rest
    (``_Axis.rests``), a step copies u and sweeps the cells [w0, w1) of the
    copy, the window widened by ``_MARGIN`` + 1 cells on each side.  The
    window then grows by the cell next to either end if that cell ended
    with other bits, and the views of [w0, w1) are bound again only once
    the cell next to the window falls outside them.  The whole grid is
    swept when cL or cR does not rest, when ``rest`` is False (the entropy
    scan reads every interface), once [w0, w1) spans the grid, and under
    periodic boundaries when cL and cR differ or [w0, w1) reaches an edge.
    The stepper trusts the window it keeps, so an array it returned must
    not be written before it is passed back.
    """

    def __init__(self, flux: FluxSpec, config: SchemeConfig):
        super().__init__(flux, config)
        # the bits of cL and cR, and the swept cells with their views
        self._bits, self._span, self._views = None, None, self.axes[0].whole

    def _scan(self, u: Array) -> None:
        """The far-field states and window of an array the stepper did not
        return, from one scan of its bits, and the views to sweep it."""
        a = self.axes[0]
        self._views = a.whole
        bits = u.view(np.int64)
        bL, bR = bits[0], bits[-1]
        if self.rest is False or (self.periodic and bL != bR):
            return
        if not (a.rests(u[0]) and (bR == bL or a.rests(u[-1]))):
            return
        left, right = np.flatnonzero(bits != bL), np.flatnonzero(bits != bR)
        lo = int(left[0]) if left.size else self.n
        hi = int(right[-1]) + 1 if right.size else 0
        # lo > hi only for a constant array
        self._window, self._bits = (min(lo, hi), hi), (bL, bR)
        self._bind()

    def _bind(self) -> None:
        """The swept cells, the window widened by _MARGIN + 1 cells on each
        side, and their views."""
        lo, hi = self._window
        n, a = self.n, self.axes[0]
        w0, w1 = max(lo - 1 - _MARGIN, 0), min(hi + 1 + _MARGIN, n)
        self._span = w0, w1
        if (w0, w1) == (0, n) or (self.periodic and (w0 == 0 or w1 == n)):
            self._views = a.whole
        else:
            self._views = _Views(a, w0, w1)

    def step(self, u: Array, dt: float) -> Array:
        """One step of ``u`` (float64, never written) on the swept cells;
        the array returned holds cL and cR outside them."""
        if u is not self._out:
            self._scan(u)
        a, v = self.axes[0], self._views
        if v is a.whole:
            out = a.sweep(u, dt, np.empty(u.shape))
        else:
            # u holds cL and cR outside the swept cells, and so does its copy
            out = a.sweep(u, dt, u.copy(), v)
            self._follow(out)
        self._out = out
        return out

    def _follow(self, out: Array) -> None:
        """Grow the window by the cell next to either end if ``out`` holds
        other bits there than cL or cR, and bind the views again once the
        cell next to the window falls outside the swept cells."""
        (w0, w1), (bL, bR), n = self._span, self._bits, self.n
        bits = out.view(np.int64)
        lo, hi = self._window
        if lo > 0 and bits[lo - 1] != bL:
            lo -= 1
        if hi < n and bits[hi] != bR:
            hi += 1
        self._window = lo, hi
        if (w0 > 0 and lo <= w0) or (w1 < n and hi >= w1):
            self._bind()

    def max_abs(self, u: Array, work: Array) -> float:
        """max|u|, with ``work`` for |u|; for the array last returned it is
        read on the swept cells and the two end cells, which hold cL and cR
        where the swept cells stop short of the ends."""
        if u is not self._out or self._views is self.axes[0].whole:
            return super().max_abs(u, work)
        w0, w1 = self._span
        # the swept cells' max first, so that a NaN there is what max returns
        return max(super().max_abs(u[w0:w1], work[w0:w1]),
                   abs(float(u[0])), abs(float(u[-1])))


class _Stepper2D(_Stepper):
    """Godunov splitting, an x sweep into ``mid`` and then a y sweep, each
    on the active window of the array last returned.

    A window is one (lo, hi) cell range per axis, outside which every cell
    holds the bits of +0.0, or None when every cell does.  The stepper
    trusts the window it keeps, so an array it returned must not be
    written before it is passed back.
    """

    def __init__(self, flux: FluxSpec, config: SchemeConfig):
        super().__init__(flux, config)
        # the whole grid, the one object every full window is
        self.full = ((0, self.n),) * 2

    def _settle(self, window):
        """The window, with a range within a cell of an edge of a periodic
        axis taken to the whole axis; ``full`` for the whole grid."""
        n = self.n
        if window is None:
            return None
        if self.periodic:
            window = tuple((0, n) if lo <= 1 or hi >= n - 1 else (lo, hi)
                           for lo, hi in window)
        return self.full if window == self.full else window

    def _scan(self, u: Array):
        """The window of an array the stepper did not return, from one scan
        of its bits (-0.0, NaN and denormals count as active).  A window
        short of the whole grid needs +0.0 to be a rest state, and resets
        ``mid``, which the x sweep then writes only in part, to +0.0."""
        if self.rest is False:
            return self.full
        active = np.nonzero(u.view(np.int64))
        window = self._settle(None if active[0].size == 0 else tuple(
            (int(i.min()), int(i.max()) + 1) for i in active))
        if window is not self.full:
            if self.rest is None:
                self.rest = all([a.rests(0.0) for a in self.axes])
            if not self.rest:
                return self.full
            self.mid.fill(0.0)
        return window

    def step(self, u: Array, dt: float) -> Array:
        """One step of ``u`` (float64, never written), each sweep on the
        window; the array returned holds +0.0 outside it."""
        window = self._window if u is self._out else self._scan(u)
        out = np.empty(u.shape)
        if window is not self.full:
            # filled, not np.zeros: calloc's fresh pages for each step's
            # array read about 0.3 MB more peak RSS over four 160 x 160
            # contraction experiments in one process
            out.fill(0.0)
        window = self._sweep(0, u, dt, self.mid, window)
        window = self._sweep(1, self.mid, dt, out, window)
        self._out, self._window = out, window
        return out

    def _sweep(self, axis: int, u: Array, dt: float, out: Array, window):
        """Sweep ``u`` along ``axis`` into ``out`` on the window widened by
        one cell along the axis, on the rows the window spans; the rest of
        ``out`` keeps its +0.0.  Returns the window of ``out``: a margin
        cell joins it if it ended with a bit other than +0.0."""
        a = self.axes[axis]
        if window is self.full:
            a.sweep(u, dt, out)
            return window
        if window is None:
            return None
        lo, hi = window[axis]
        c0, c1 = max(lo - 1, 0), min(hi + 1, self.n)
        rows = slice(*window[1 - axis])
        a.sweep(u, dt, out, _Views(a, c0, c1, rows))

        def moved(cell):
            return out[_along(axis, 2, slice(cell, cell + 1), rows)].view(
                np.int64).any()

        grown = (c0 if c0 < lo and moved(c0) else lo,
                 c1 if c1 > hi and moved(c1 - 1) else hi)
        if grown == window[axis]:
            return window
        return self._settle(window[:axis] + (grown,) + window[axis + 1:])

    def max_abs(self, u: Array, work: Array) -> float:
        """max|u|, with ``work`` for |u|; for the array last returned it is
        read on its window only, since +0.0 adds nothing to the max."""
        window = self._window
        if u is self._out and window is not self.full:
            if window is None:
                return 0.0
            box = tuple(slice(lo, hi) for lo, hi in window)
            u, work = u[box], work[box]
        return super().max_abs(u, work)


def _time_step(flux: FluxSpec, config: SchemeConfig, m_bound: float) -> float:
    """dt from the a-priori speed, sup|d_k f| on [-m_bound, m_bound]."""
    dx = config.dx
    lam_max = _sup_abs(flux, "dk", config, m_bound, 65)
    # one split sweep per axis, each under its share of the CFL budget
    budget = config.cfl / config.dim
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
    return dt


class _Run:
    """One run of the scheme on one grid, set up once for one or more
    initial data: the stepper, each datum sampled on the cell centers, one
    BlowUp threshold per datum, and the dt and step count they share."""

    def __init__(self, flux: FluxSpec, config: SchemeConfig, data):
        require_flux_fits(flux, config.dim, config.scheme)
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
        dt = _time_step(flux, config, bounds[max(m0s)])
        self.nsteps = max(1, int(math.ceil(config.t_end / dt - 1e-12)))
        self.dt = config.t_end / self.nsteps

    def checked_max(self, u: Array, n: int, datum: int) -> float:
        """max|u| after step n; BlowUp if it is not finite or passes the
        threshold of the given datum."""
        amax = self.stepper.max_abs(u, self._abs)
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
    # interface fluxes and local speeds of the step that made unew from u,
    # at every interface once the stepper sweeps the whole grid
    run.stepper.rest = False
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
