"""Numerical verification of entropy and contraction inequalities.

All space-time integrals are midpoint quadratures matched to the solver
grid: the solution is treated as piecewise constant per (cell x level
interval), the test function enters through its lattice values, its time
derivative through forward differences across level intervals and its
gradient through central differences on the cell lattice.  With lattice
differences the quadrature of an exact divergence telescopes to zero, so
constant fields produce residuals at roundoff rather than at O(h^2), and
the discrete sums mirror the summation-by-parts structure of the scheme's
own entropy inequality.  The analytic ``dt``/``grad_x`` callables on
TestFunction are cross-checked against these lattice differences in tests.

The quadrature visits only the support of the test function: the cells
whose centers lie inside its support box plus two cells on each side
(where it vanishes, so the lattice gradient is the whole-domain one), and
the level intervals that overlap its time window.  Levels are taken in
chunks of whole levels holding at most ``_CHUNK_CELLS`` cells of the box
(one level if a level's box alone holds more), so the temporaries of a
chunk stay small whatever the number of levels; no value depends on how
the levels are chunked.  The test function
is evaluated once per chunk, at every level time and midpoint of the chunk
in one call, and all terms of a sweep (``entropy_residual_sweep``) share
those values.  Each check hands the quadrature one term function, a
generator that yields one (eta, q, source) per term for a chunk's points
and states.  The entropy sweep's is ``entropy.sweep_terms``, which picks
them for the flux: closed-form terms from the factors of a flux with
factors, each pair's callables for one without (see ``entropy``).

The doubling diagnostics quadrature the four integrals of the doubling of
variables around each sample (x, t) over every stored level n with
|t_n - t| < eps, weighted by omega_eps(t - t_n) np.gradient(times)[n], and
every cell with |y - x| < eps, weighted by rho_eps(x - y) dx; each
integrand is evaluated once on that (levels, cells) array.  One jump rule
serves sampling and guard: a jump of u or v above the threshold between
cells b and b + 1 marks the cells b - m .. b + m + 1.  Samples avoid them
with m = ``margin_cells``; a sample marked with m = 2 raises SampleNearShock.

Kato's flux q(x, u, v) = sign(u - v) (f(x, u) - f(x, v)) and its divergence
are ``entropy.kruzkov_flux``/``kruzkov_div``, which the Kruzkov pairs share.
Every L1 distance (cone, global, uniqueness, the CLI's study) is one rule,
``l1_masses``, over the closed balls of ``_balls``; a ball that holds no
cell centre at the first compared level raises EmptyCone, by the rule
(``require_ball``) with which ``config.parse_config`` refuses such a
cone or uniqueness ball before a run.

Inequalities that hold exactly only in the vanishing-mesh limit are
asserted up to a negative slack C (dx + dt) |support|; C is calibrated per
flux by dx-halving studies and recorded in every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .entropy import EntropyPair, kruzkov_div, kruzkov_flux, sweep_terms
from .errors import (EmptyCone, MissingTimeLevels, SampleNearShock,
                     SupportExceedsDomain)
from .flux import FluxSpec, lipschitz_constant
from .grids import GridField, cell_centers
from .mollifiers import Mollifier, TestFunction, omega_value
from .solver import solve

Array = np.ndarray

_EPS = np.finfo(float).eps

# box cells per chunk of levels in the weak-form quadrature.  A smooth
# pair's tables carry about 5 nodes per state on an entropy_1d level (16
# near k0), so a chunk's node arrays stay near 150 kB each; 2^12 is the
# largest power of two that keeps the entropy_1d benchmark's peak memory
# where 2^11 with 16 nodes per state kept it (2^13 adds about 2 MB)
_CHUNK_CELLS = 2 ** 12

JUMP_FACTOR = 10.0


@dataclass
class ResidualReport:
    """Outcome of one verifier task.

    ``value`` is the evaluated integral (inequality kinds) or the worst
    violation (contraction kinds); ``passed`` records exactly the comparison
    ``value >= -tolerance`` or the monotonicity flag.
    """

    kind: str
    value: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The report as standard JSON: a float that is not finite is
        written as the string "NaN", "Infinity" or "-Infinity", which
        ``float`` reads back."""
        def plain(o):
            if isinstance(o, (np.ndarray, np.floating, np.integer)):
                o = o.tolist()
            if isinstance(o, dict):
                return {k: plain(v) for k, v in o.items()}
            if isinstance(o, (list, tuple)):
                return [plain(v) for v in o]
            if isinstance(o, float) and not math.isfinite(o):
                return ("NaN" if math.isnan(o) else
                        "Infinity" if o > 0 else "-Infinity")
            return o
        payload = {"kind": self.kind, "value": self.value,
                   "tolerance": self.tolerance, "passed": bool(self.passed),
                   "metadata": self.metadata}
        return json.dumps(plain(payload), indent=2, default=str,
                          allow_nan=False)

    def write(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def _support_window(field_: GridField, phi: TestFunction):
    """Level intervals and cell box of the quadrature for ``phi``.

    Checks that the support sits inside the domain with a two-cell margin
    and inside the stored time range.  Returns ``(levels, box)``: the range
    of level intervals overlapping the time window, and per axis the slice
    of cells whose centers lie strictly inside the support plus two cells
    on each side.  phi vanishes on those two cells, so the lattice gradient
    of phi on the box equals the one on the whole domain, and every cell
    outside the box contributes exactly zero.
    """
    lo, hi, t0, t1 = phi.support_box
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    margin = 2.0 * field_.dx
    if np.any(lo < field_.lo + margin) or np.any(hi > field_.hi - margin):
        raise SupportExceedsDomain(
            f"support [{lo}, {hi}] not inside domain "
            f"[{field_.lo}, {field_.hi}] with 2-cell margin")
    times = field_.times
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise SupportExceedsDomain(
            f"support window [{t0}, {t1}] not inside stored range "
            f"[{times[0]}, {times[-1]}]")
    idx = np.nonzero((times[1:] > t0 + 1e-14) & (times[:-1] < t1 - 1e-14))[0]
    if len(idx) < 2:
        raise MissingTimeLevels(
            f"only {len(idx)} stored intervals overlap window [{t0}, {t1}]")
    c = field_.centers
    box = tuple(slice(max(int(np.searchsorted(c, a, side="right")) - 2, 0),
                      min(int(np.searchsorted(c, b, side="left")) + 2, field_.nx))
                for a, b in zip(lo, hi))
    return range(int(idx[0]), int(idx[-1]) + 1), box


def _weak_sums(fields, phi: TestFunction, terms):
    """Shared space-time quadrature core: one value per term.

    ``fields`` are GridFields on one grid (the first sets the geometry).
    ``terms(points, *states)`` yields one (eta, q, source) per term, in the
    same order on every chunk: points are the support box's cell centers
    (cells..., d), where phi is evaluated too; states are the fields' values
    on a chunk of levels, shape (L, cells...); eta and source (or None) have
    that shape and q has a trailing axis d.  As a generator it builds what
    its terms share (a flux's factors or div_x f) once per chunk, and
    one term at a time.

    The quadrature runs over the support window only and in chunks of
    whole levels holding at most ``_CHUNK_CELLS`` box cells, but at least
    one level.  No value depends on the chunking: every per-level sum is
    taken over one level, and a smooth pair's tables hold one row per
    level.  phi at the chunk's level times and midpoints, its level
    differences and its lattice gradient are built once per chunk and
    shared by every term.  Returns (values, largest dt in the window).
    """
    field_ = fields[0]
    levels, box = _support_window(field_, phi)
    P = field_.centers_points()[box]
    times = field_.times
    dx, dim = field_.dx, field_.dim
    cell = dx ** dim
    chunk = max(1, _CHUNK_CELLS // P[..., 0].size)
    values = []
    for n0 in range(levels.start, levels.stop, chunk):
        n1 = min(n0 + chunk, levels.stop)
        edges = times[n0:n1 + 1]
        dts = np.diff(edges)
        # level times and midpoints interleaved: phi at t_n is ph[2n - 2 n0]
        tq = np.empty(2 * len(dts) + 1)
        tq[0::2] = edges
        tq[1::2] = 0.5 * (edges[:-1] + edges[1:])
        ph = phi.value(P, tq.reshape((-1,) + (1,) * dim))
        dphi = ph[2::2] - ph[:-2:2]
        phi_mid = ph[1::2]
        grads = [np.gradient(phi_mid, dx, axis=1 + a) for a in range(dim)]
        states = [f.data[(slice(n0, n1),) + box] for f in fields]
        for j, (eta, q, source) in enumerate(terms(P, *states)):
            rest = grads[0] * q[..., 0]
            for a in range(1, dim):
                rest = rest + grads[a] * q[..., a]
            if source is not None:
                rest = rest + phi_mid * source
            # per-level sums added in time order, as a level-by-level pass
            # adds them, so values match one up to rounding: the running
            # value, then cell * sd and (cell * dt) * sr of every level
            if j == len(values):
                values.append(0.0)
            parts = np.empty(2 * len(dts) + 1)
            parts[0] = values[j]
            parts[1::2] = cell * (dphi * eta).reshape(len(dts), -1).sum(axis=1)
            parts[2::2] = (cell * dts) * rest.reshape(len(dts), -1).sum(axis=1)
            values[j] = float(np.add.accumulate(parts)[-1])
    return values, float(np.diff(times)[levels.start:levels.stop].max())


def entropy_residual_sweep(u: GridField, flux: FluxSpec, pairs,
                           phi: TestFunction,
                           c_tol: float | None = None) -> list[ResidualReport]:
    """Weak-form entropy residuals of one field against several entropy
    pairs, one report per pair, from one pass over the field.

    Each value is the quadrature of
        dt(phi) eta(u) + phi (div_x q - eta'(u) div_x f) + grad(phi) . q(x, u)
    over the support of phi; non-negative up to discretization slack for
    entropy solutions.  The terms come from ``entropy.sweep_terms``,
    which raises ValueError for a pair built for another flux object.
    """
    pairs = list(pairs)
    terms = sweep_terms(flux, pairs)
    values, dt_used = _weak_sums((u,), phi, terms)
    c_tol, tol = _weak_slack((u,), phi, dt_used, c_tol)
    return [ResidualReport(
        kind="entropy_inequality", value=value, tolerance=tol,
        passed=bool(value >= -tol),
        metadata={"flux": flux.name, "pair": pair.label, "nx": u.nx,
                  "dx": u.dx, "dt": dt_used, "c_tol": c_tol})
        for pair, value in zip(pairs, values)]


def entropy_residual(u: GridField, flux: FluxSpec, pair: EntropyPair,
                     phi: TestFunction, c_tol: float | None = None) -> ResidualReport:
    """Weak-form entropy residual of one field against one entropy pair
    (see ``entropy_residual_sweep``)."""
    return entropy_residual_sweep(u, flux, [pair], phi, c_tol)[0]


def kato_lhs(u: GridField, v: GridField, flux: FluxSpec, psi: TestFunction,
             c_tol: float | None = None) -> ResidualReport:
    """Two-solution localized inequality: quadrature of
    dt(psi) |u - v| + grad(psi) . sign(u - v)(f(x,u) - f(x,v))."""
    u.require_compatible(v)

    def terms(P, U, V):
        yield np.abs(U - V), kruzkov_flux(flux, P, U, V), None

    (value,), dt_used = _weak_sums((u, v), psi, terms)
    c_tol, tol = _weak_slack((u, v), psi, dt_used, c_tol)
    return ResidualReport(
        kind="kato", value=value, tolerance=tol, passed=bool(value >= -tol),
        metadata={"flux": flux.name, "nx": u.nx, "dx": u.dx, "dt": dt_used,
                  "c_tol": c_tol})


def _weak_slack(fields, phi: TestFunction, dt_used: float,
                c_tol: float | None):
    """The slack of a weak-form inequality on ``fields``: c_tol (dx + dt)
    |supp phi|, with the default c_tol = 10 Lip(phi) M, M the fields' joint
    bound.  Returns (c_tol, slack)."""
    if c_tol is None:
        c_tol = 10.0 * phi.lip * max(*(f.bound_M for f in fields), 1e-12)
    lo, hi, t0, t1 = phi.support_box
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    measure = float(np.prod(hi - lo) * (t1 - t0))
    return c_tol, c_tol * (fields[0].dx + dt_used) * measure


def _contraction_slack(u: GridField, v: GridField, c_cal: float | None):
    """The slack of an L1 contraction check: C (dx + dt), with the default
    C = 10 M, but never below a roundoff floor on the domain's L1 scale.
    Returns (C, largest dt, slack)."""
    M = max(u.bound_M, v.bound_M)
    dt_used = float(np.diff(u.times).max())
    if c_cal is None:
        c_cal = 10.0 * max(M, 1e-12)
    floor = 64.0 * _EPS * max(M, 1.0) * (u.hi - u.lo) ** u.dim
    return c_cal, dt_used, max(c_cal * (u.dx + dt_used), floor)


def l1_masses(a: Array, b: Array, cell: float, mask=None) -> Array:
    """Midpoint L1 masses sum |a - b| cell per level of the stacks a and b
    (levels, cells...), over the cells in ``mask`` or all cells.  numpy
    sums in memory order, so the gather d[:, mask] is copied to C order."""
    d = np.subtract(a, b)
    np.abs(d, out=d)   # in place: no second temporary of all levels' cells
    if mask is not None:
        d = np.ascontiguousarray(d[:, mask])
    return d.reshape(len(d), -1).sum(axis=1) * cell


def require_ball(grid, center, radius) -> None:
    """Raise EmptyCone unless the closed ball of ``radius`` about
    ``center`` holds a cell centre of ``grid``, a GridField or the
    SchemeConfig of one (its lo, hi, nx and dim), so that
    ``config.parse_config`` refuses a check's ball by the rule the check
    applies to the run's fields.  The nearest cell centre is the one
    nearest on every axis, so its distance, computed as ``_balls``
    computes every cell's, decides without the nx^dim distances."""
    axis = cell_centers(grid.lo, grid.hi, grid.nx)
    c = np.broadcast_to(np.asarray(center, dtype=float), (grid.dim,))
    nearest = ((axis[:, None] - c) ** 2).min(axis=0)
    if not np.sqrt(nearest.sum()) <= radius:
        raise EmptyCone(f"the ball of radius {radius:.6g} about {center} "
                        f"holds no cell centre of [{grid.lo}, {grid.hi}] "
                        f"at nx = {grid.nx}")


def _balls(field_: GridField, center, radii):
    """Cell centres, their distances r from ``center``, and a generator of
    the closed balls r <= radius of ``radii`` as cell masks; the first ball
    must hold a cell centre (``require_ball``)."""
    require_ball(field_, center, radii[0])
    pts = field_.centers_points()
    r = np.sqrt(((pts - np.asarray(center, dtype=float)) ** 2).sum(axis=-1))
    return pts, r, (r <= radius for radius in radii)


def uniqueness_ball(grid, center=None, radius=None):
    """The ball of the uniqueness check on ``grid`` (a GridField or a
    SchemeConfig): ``center`` and ``radius``, by default the midpoint of
    [lo, hi]^d and a quarter of its width."""
    return (0.5 * (grid.lo + grid.hi) if center is None else center,
            0.25 * (grid.hi - grid.lo) if radius is None else radius)


def cone_contraction_profile(u: GridField, v: GridField, flux: FluxSpec,
                             R: float, c_cal: float | None = None):
    """L1 mass of |u - v| over the shrinking ball B_{R - tN} per stored level.

    N comes from the sampled Lipschitz constant at the joint bound M.
    Passed iff no consecutive increase exceeds C (dx + dt); C is the
    calibration constant (default 10 M, refinement studies tighten it).
    The metadata's ``flux_bound_excess`` is the largest
    |unit(x) . q(x, u, v)| - N |u - v| over the balls' cells off the
    origin, non-positive when N bounds the flux of |u - v| across the
    sphere.  An empty first ball raises EmptyCone.  Returns (profile,
    report) with profile rows (t, radius, mass).
    """
    u.require_compatible(v)
    M = max(u.bound_M, v.bound_M)
    N = lipschitz_constant(flux, R, M)
    radii = R - u.times * N
    usable = np.where(radii > 0.0)[0]
    if len(usable) < 2:
        raise EmptyCone(f"ball empty from the first level on (R={R}, N={N})")
    pts, r, balls = _balls(u, 0.0, radii[usable])
    off_origin = r > 0.5 * u.dx
    profile = []
    excess = -np.inf
    for n, ball in zip(usable, balls):
        radius = float(radii[n])
        mass = float(l1_masses(u.data[n:n + 1], v.data[n:n + 1],
                               u.dx ** u.dim, ball)[0])
        mask = ball & off_origin
        if np.any(mask):
            un, vn, pm = u.data[n][mask], v.data[n][mask], pts[mask]
            radial = (kruzkov_flux(flux, pm, un, vn)
                      * (pm / r[mask][..., None])).sum(axis=-1)
            excess = max(excess,
                         float((np.abs(radial) - N * np.abs(un - vn)).max()))
        profile.append((float(u.times[n]), radius, mass))
    ts, rs, masses = (list(col) for col in zip(*profile))
    max_inc = float(np.diff(masses).max(initial=0.0))
    c_cal, dt_used, tol = _contraction_slack(u, v, c_cal)
    report = ResidualReport(
        kind="cone_contraction", value=max_inc, tolerance=tol,
        passed=bool(max_inc <= tol),
        metadata={"flux": flux.name, "R": R, "N": N, "M": M, "nx": u.nx,
                  "dx": u.dx, "dt": dt_used, "c_cal": c_cal,
                  "flux_bound_excess": excess, "profile_t": ts,
                  "profile_radius": rs, "profile_mass": masses})
    return profile, report


def global_contraction_check(u: GridField, v: GridField, flux: FluxSpec,
                             R_list, c_cal: float | None = None) -> ResidualReport:
    """Full-domain L1 distance must be non-increasing (within slack) for
    every stored pair rho <= tau; also reports the sampled N(R)/R sequence
    whose decay to zero is the hypothesis of the global statement."""
    u.require_compatible(v)
    M = max(u.bound_M, v.bound_M)
    n_over_r = [lipschitz_constant(flux, float(R), M) / float(R) for R in R_list]
    masses = l1_masses(u.data, v.data, u.dx ** u.dim)
    running_min = np.minimum.accumulate(masses)
    worst = float((masses - running_min).max())
    c_cal, dt_used, tol = _contraction_slack(u, v, c_cal)
    return ResidualReport(
        kind="global_contraction", value=worst, tolerance=tol,
        passed=bool(worst <= tol),
        metadata={"flux": flux.name, "M": M, "R_list": list(map(float, R_list)),
                  "N_over_R": n_over_r, "nx": u.nx, "dx": u.dx,
                  "dt": dt_used, "c_cal": c_cal,
                  "masses": masses.tolist(), "times": u.times.tolist()})


def uniqueness_experiment(flux: FluxSpec, u0, seeds, center: float | None = None,
                          radius: float | None = None, exact_at_t_end=None,
                          min_ratio: float = 1.5,
                          oracle_min_ratio: float = 1.4) -> ResidualReport:
    """Run every scheme variant from the same data at two grid levels and
    require pairwise L1 distances at t_end to shrink by >= min_ratio under
    dx halving (all variants chase the same limit).  With an oracle the
    per-variant errors must shrink by >= oracle_min_ratio as well.  Both
    are taken over the ball of ``radius`` about ``center``; EmptyCone if empty.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("need at least two scheme variants")
    t_end = seeds[0].t_end
    if any(abs(s.t_end - t_end) > 1e-12 for s in seeds):
        raise ValueError("variants must share t_end")
    if any(s.nx != seeds[0].nx or s.lo != seeds[0].lo or s.hi != seeds[0].hi
           for s in seeds):
        raise ValueError("variants must share the grid")
    center, radius = uniqueness_ball(seeds[0], center, radius)
    iu = np.triu_indices(len(seeds), k=1)

    def run_level(configs):
        # variants may take different time steps, so only the final levels
        # (all landing exactly on t_end) are compared, pair by pair (iu)
        fields = [solve(flux, u0, c) for c in configs]
        pts, _, (ball,) = _balls(fields[0], center, [radius])
        finals = np.stack([f.data[-1] for f in fields])
        cell = fields[0].dx ** fields[0].dim
        dist = l1_masses(finals[iu[0]], finals[iu[1]], cell, ball)
        oracle = None
        if exact_at_t_end is not None:
            oracle = l1_masses(finals, exact_at_t_end(pts), cell, ball).tolist()
        return dist, oracle

    coarse, oracle_c = run_level(seeds)
    fine, oracle_f = run_level([s.refined(2) for s in seeds])
    floor = 64.0 * _EPS * max(1.0, radius)
    ratios = []
    passed = True
    for dc, df in zip(coarse, fine):
        if df <= floor and dc <= floor:
            ratios.append(float("inf"))
            continue
        ratios.append(dc / max(df, floor))
        if df > max(dc / min_ratio, floor):
            passed = False
    oracle_ratios = None
    if oracle_c is not None:
        oracle_ratios = [c / max(f, floor) for c, f in zip(oracle_c, oracle_f)]
        if any(r < oracle_min_ratio for r in oracle_ratios):
            passed = False
    return ResidualReport(
        kind="uniqueness", value=float(fine.max(initial=0.0)),
        tolerance=min_ratio, passed=bool(passed),
        metadata={"flux": flux.name, "pairwise_coarse": coarse.tolist(),
                  "pairwise_fine": fine.tolist(), "ratios": ratios,
                  "oracle_coarse": oracle_c, "oracle_fine": oracle_f,
                  "oracle_ratios": oracle_ratios,
                  "schemes": [f"{s.scheme}(cfl={s.cfl}, eps={s.viscosity})"
                              for s in seeds],
                  "nx_levels": [seeds[0].nx, 2 * seeds[0].nx]})


def _near_jump(u: GridField, v: GridField, level: int, threshold: float,
               m: int) -> Array:
    """Mask of the cells within ``m`` cells of a jump of u or v at
    ``level`` (1-d): a jump above ``threshold`` between cells b and b + 1
    marks the cells b - m .. b + m + 1."""
    # jumps[b]: u or v jumps between cells b and b + 1
    jumps = np.append((np.abs(np.diff([u.data[level], v.data[level]]))
                       > threshold).any(axis=0), False)
    # cell c is marked iff a jump b lies in [c - m - 1, c + m]
    hits = np.convolve(jumps, np.ones(2 * m + 2, dtype=int))
    return hits[m:m + u.nx] > 0


def find_smooth_samples(u: GridField, v: GridField, level: int, count: int,
                        jump_threshold: float, margin_cells: int = 4,
                        seed: int = 20260809):
    """Deterministically pick cell-center sample points away from detected
    jumps at the given level (1-d)."""
    flags = _near_jump(u, v, level, jump_threshold, margin_cells)
    flags[:margin_cells] = True
    flags[u.nx - margin_cells:] = True
    ok = np.where(~flags)[0]
    if len(ok) < count:
        raise SampleNearShock("not enough smooth cells at the requested level")
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(ok, size=count, replace=False))
    return u.centers[picked]


def jump_threshold(u: GridField, v: GridField) -> float:
    """The doubling check's jump threshold: ``JUMP_FACTOR`` times the
    largest jump of u or v between neighbouring cells at t = 0."""
    return JUMP_FACTOR * max([float(np.abs(np.diff(f.data[0], axis=0)).max())
                              for f in (u, v) if f.nx > 1], default=0.0)


def doubling_diagnostics(u: GridField, v: GridField, flux: FluxSpec,
                         eps_list, sample_points, threshold=None):
    """Smoothed two-solution quantities at sample points versus their
    concentration limits.

    For each eps the four integrals against omega_eps(t-s) rho_eps(x-y)
    (value, flux, divergence difference, and the gradient-weighted flux
    increment) are quadratured over (y, s) and compared with their limits
    |u-v|, q(x,u,v), div_x q(x,u,v) and -div_x q(x,u,v) at the sample point.
    Deviations must trend down in eps at smooth points; sampling at a
    detected jump raises SampleNearShock; a jump is one above ``threshold``,
    ``jump_threshold(u, v)`` by default.  At a singular point of the flux
    the limits take div_x f as written, the mean a symmetric rho_eps sees.
    """
    u.require_compatible(v)
    if u.dim != 1:
        raise ValueError("doubling diagnostics implemented for 1-d fields")
    eps_list = [float(e) for e in eps_list]
    samples = [(float(x), float(t)) for (x, t) in sample_points]
    if threshold is None:
        threshold = jump_threshold(u, v)
    centers, times, dts = u.centers, u.times, np.gradient(u.times)
    raw = np.zeros((4, len(eps_list), len(samples)))
    limits = np.zeros((4, len(samples)))
    for j, (xs, ts) in enumerate(samples):
        lev = u.level_index(ts)
        ci = int(np.clip(round((xs - u.lo) / u.dx - 0.5), 0, u.nx - 1))
        if _near_jump(u, v, lev, threshold, 2)[ci]:
            raise SampleNearShock(f"sample at x={xs}, t={ts} sits near a jump")
        ustar, vstar = u.data[lev][ci], v.data[lev][ci]
        x0 = np.array([[xs]])
        i3 = kruzkov_div(flux, x0, ustar, vstar).item()
        limits[:, j] = (abs(ustar - vstar),
                        kruzkov_flux(flux, x0, ustar, vstar).item(), i3, -i3)
        for e, eps in enumerate(eps_list):
            rho = Mollifier(1, eps)
            levels = np.nonzero(np.abs(times - ts) < eps)[0]
            if len(levels) < 3:
                raise MissingTimeLevels(
                    f"need stored levels within {eps} of t={ts}")
            cells = np.abs(centers - xs) < eps
            y = centers[cells][:, None]
            V = v.data[levels][:, cells]                   # (levels, cells)
            q_x = kruzkov_flux(flux, x0, ustar, V)[..., 0]
            q_y = kruzkov_flux(flux, y, ustar, V)[..., 0]
            # div_x f at y for u* against div_x f at x for V: not a
            # one-point Kruzkov flux
            div = np.sign(ustar - V) * (flux.div_x(y, ustar)
                                        - flux.div_x(x0, V))
            wx = rho.value(xs - y)
            grad_rho = -rho.grad(xs - y)[..., 0]           # d/dy of rho(x-y)
            # numpy's summation order follows the operands' memory layout,
            # which follows the flux's; a C-ordered copy fixes the order
            sums = np.ascontiguousarray(np.stack(
                [wx * np.abs(ustar - V), wx * q_x, wx * div,
                 grad_rho * (q_y - q_x)])).sum(axis=2)
            wt = omega_value(eps, ts - times[levels]) * dts[levels]
            # added over the levels in time order
            raw[:, e, j] = np.cumsum(wt * sums * u.dx, axis=1)[:, -1]

    dev = np.abs(raw - limits[:, None, :])
    keys = ("I1", "I2", "I3", "I4")
    return {"eps": eps_list, "samples": samples,
            "limits": dict(zip(keys, limits)),
            "raw": dict(zip(keys, raw)),
            "deviation": dict(zip(keys, dev)),
            "max_deviation": dict(zip(keys, dev.max(axis=2)))}


def write_profile_csv(path, profile) -> None:
    with open(Path(path), "w") as fh:
        fh.write("t,radius,l1_mass\n")
        for t, r, m in profile:
            fh.write(f"{t:.17g},{r:.17g},{m:.17g}\n")
