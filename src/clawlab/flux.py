"""Analytic flux catalog: f(x, k) with derivatives and Lipschitz metadata.

A flux is a map f : R^d x R -> R^d given in closed form together with its
state derivative d_k f, its spatial divergence at frozen state, and the
spatial gradient of each component.  Catalog entries are closed-form by
construction, so local Lipschitz continuity and the uniform-differentiability
property are documented catalog facts rather than runtime checks; the
operations below only *sample* them.

Every catalog flux is separable, f_i(x, k) = g_i(x) h(k) with g_i a function
of x_i alone.  Each entry is one ``Separable`` (g and g' on points, h and h'
elementwise on states), and ``eval``, ``dk``, ``div_x`` and
``grad_x_components`` are all built from those factors, so no derivative is
written twice.  The solver freezes g at its interface lattice once per run
and evaluates only h and h' per sweep, and ``lipschitz_constant`` samples g
on the ball and h, h' on the states once instead of f on their product.
The smooth entropy pairs take g and g'_1 + ... + g'_d once per point
batch and integrate h and h' in the state alone, and the weak entropy
sweep takes g, g'_1 + ... + g'_d and h once per chunk for all its pairs.
A FluxSpec built by hand without factors is evaluated through its four
callables alone.

An entry lists the x where div_x f may not exist (f need only be locally
Lipschitz in x) as ``singular_points``.  Derivative formulas are evaluated
there as written and return the mean of their one-sided values (kink1d's
g' = sign gives 0), the limit a symmetric mollifier sees.

Point convention: spatial points are arrays whose last axis has length
``dim``.  For 1-d fluxes a bare scalar or an array of coordinates is
accepted and promoted.  State values broadcast against the point batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (LipschitzNonConvergent, NonFiniteFlux, SingularPoint,
                     UnknownFlux)
from .grids import _tensor_points

Array = np.ndarray


def as_points(x, dim: int) -> Array:
    """Normalize ``x`` to an array of shape (..., dim)."""
    a = np.asarray(x, dtype=float)
    if dim == 1:
        if a.ndim == 0:
            return a.reshape(1, 1)
        if a.shape[-1] != 1:
            return a[..., None]
        return a
    if a.ndim == 1 and a.shape[0] == dim:
        return a.reshape(1, dim)
    if a.ndim == 0 or a.shape[-1] != dim:
        raise ValueError(f"expected points with last axis {dim}, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Separable:
    """Declared factors of f_i(x, k) = g_i(x) h(k), where g_i depends on
    x_i alone.

    ``g`` and ``g_prime`` map points (..., d) to (..., d); component i of
    ``g_prime`` is dg_i/dx_i, the only non-zero entry of row i of the
    Jacobian of g.  ``h`` and ``h_prime`` (= h') act elementwise on states.
    So d_k f_i = g_i(x) h'(k), div_x f = (g'_1 + ... + g'_d)(x) h(k) and
    grad_x f_i = e_i g'_i(x) h(k).
    """

    g: Callable[[Array], Array]
    g_prime: Callable[[Array], Array]
    h: Callable[[Array], Array]
    h_prime: Callable[[Array], Array]

    def g_prime_sum(self, pts: Array) -> Array:
        """(g'_1 + ... + g'_d)(pts), shape (...): the x-factor of div_x f,
        summed in component order (in 1-d a view of g')."""
        gp = self.g_prime(pts)
        total = gp[..., 0]
        for i in range(1, gp.shape[-1]):
            total = total + gp[..., i]
        return total


@dataclass(frozen=True)
class FluxSpec:
    """A cataloged flux with closed-form derivatives.

    ``eval``/``dk`` map (points (..., d), k) -> (..., d); ``div_x`` maps to
    (...); ``grad_x_components(x, k, i)`` returns the spatial gradient of
    component i with shape (..., d).  ``singular_points`` lists the finitely
    many x where the spatial differential may fail to exist; there ``div_x``
    and ``grad_x_components`` return the mean of their one-sided values.
    ``factors`` are the separable factors all four callables are built
    from, or None for a flux that is only given through its callables; the
    solver, ``lipschitz_constant``, the smooth entropy pairs
    (``entropy.make_smooth_pair``) and the weak entropy sweep
    (``entropy.factored_sweep_terms``) use them in place of ``eval``,
    ``dk`` and ``div_x``, so a copy whose ``eval``, ``dk`` or ``div_x``
    computes something else must set ``factors=None``.
    """

    name: str
    dim: int
    eval: Callable[[Array, Array], Array]
    dk: Callable[[Array, Array], Array]
    div_x: Callable[[Array, Array], Array]
    grad_x_components: Callable[[Array, Array, int], Array]
    singular_points: tuple = ()
    params: dict = field(default_factory=dict)
    factors: Separable | None = None

    def is_singular(self, x) -> bool:
        pts = as_points(x, self.dim).reshape(-1, 1, self.dim)
        sps = np.asarray(self.singular_points, dtype=float).reshape(-1, self.dim)
        return bool(np.all(pts == sps, axis=-1).any())


def _separable(name: str, dim: int, factors: Separable, **extra) -> FluxSpec:
    """A FluxSpec whose four callables are built from ``factors``."""
    g, g_prime, h, h_prime = factors.g, factors.g_prime, factors.h, factors.h_prime

    def ev(x, k):
        return g(as_points(x, dim)) * h(np.asarray(k, dtype=float))[..., None]

    def dk(x, k):
        return g(as_points(x, dim)) * h_prime(np.asarray(k, dtype=float))[..., None]

    def div(x, k):
        return factors.g_prime_sum(as_points(x, dim)) * h(np.asarray(k, dtype=float))

    def grad(x, k, i):
        gi = g_prime(as_points(x, dim))[..., i] * h(np.asarray(k, dtype=float))
        out = np.zeros(gi.shape + (dim,))
        out[..., i] = gi
        return out

    return FluxSpec(name, dim, ev, dk, div, grad, factors=factors, **extra)


def _identity(k):
    return k


def _burgers(dim: int, params) -> FluxSpec:
    # f_i(x, k) = k^2 / 2
    return _separable(f"burgers{dim}d", dim,
                      Separable(np.ones_like, np.zeros_like,
                                lambda k: 0.5 * k * k, _identity))


def _advection1d(params) -> FluxSpec:
    # f(x, k) = c k
    c = float(params.get("c", 1.0))
    return _separable("advection1d", 1,
                      Separable(lambda x: np.full(x.shape, c), np.zeros_like,
                                _identity, np.ones_like),
                      params={"c": c})


def _xsquared1d(params) -> FluxSpec:
    # f(x, k) = x^2: a pure source, independent of the state
    return _separable("xsquared1d", 1,
                      Separable(lambda x: x * x, lambda x: 2.0 * x,
                                np.ones_like, np.zeros_like))


def _g_arctan(x):
    return np.arctan(x * x) + 1.0


def _g_arctan_prime(x):
    return 2.0 * x / (1.0 + x ** 4)


def _product(dim: int, params) -> FluxSpec:
    # f_i(x, k) = (arctan(x_i^2) + 1) sin(k)
    return _separable(f"product{dim}d", dim,
                      Separable(_g_arctan, _g_arctan_prime, np.sin, np.cos))


def _kink1d(params) -> FluxSpec:
    # f(x, k) = |x| k: locally Lipschitz, spatial derivative fails at x = 0
    return _separable("kink1d", 1,
                      Separable(np.abs, np.sign, _identity, np.ones_like),
                      singular_points=((0.0,),))


_CATALOG = {
    "burgers1d": (lambda p: _burgers(1, p), set()),
    "burgers2d": (lambda p: _burgers(2, p), set()),
    "advection1d": (_advection1d, {"c"}),
    "xsquared1d": (_xsquared1d, set()),
    "product1d": (lambda p: _product(1, p), set()),
    "product2d": (lambda p: _product(2, p), set()),
    "kink1d": (_kink1d, set()),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_params(name: str) -> set[str]:
    if name not in _CATALOG:
        raise UnknownFlux(name)
    return set(_CATALOG[name][1])


def catalog_lookup(name: str, params: dict | None = None) -> FluxSpec:
    """Return the registered flux, or raise UnknownFlux."""
    if name not in _CATALOG:
        raise UnknownFlux(name)
    builder, allowed = _CATALOG[name]
    params = dict(params or {})
    unknown = set(params) - allowed
    if unknown:
        raise UnknownFlux(f"{name}: unknown parameter(s) {sorted(unknown)}")
    return builder(params)


def _ball_lattice(R: float, dim: int, n_per_axis: int) -> Array:
    """Deterministic lattice covering the closed ball B_R; always includes 0
    and the axis endpoints so sampled sups anchor at the same points as the
    lattice refines."""
    pts = _tensor_points(np.linspace(-R, R, n_per_axis), dim).reshape(-1, dim)
    # |p| <= R + 1e-15 taken at a power-of-two scale near 1/R: the scaling
    # is exact, so the test is the unscaled one wherever no square overflows
    s = 2.0 ** -min(max(math.frexp(R)[1], -1000), 1000)
    keep = np.sqrt(((s * pts) ** 2).sum(axis=-1)) <= s * (R + 1e-15)
    return pts[keep]


def _sum_squares(parts: list) -> Array:
    """sum_i parts[i]^2, added in component order as a sum over a trailing
    axis would add them; overwrites the (writable) ``parts``."""
    acc = np.multiply(parts[0], parts[0], out=parts[0])
    for p in parts[1:]:
        acc += np.multiply(p, p, out=p)
    return acc


def _max_chord_slope(fv: Array, ks: Array) -> float:
    """Max of |f(x, k_{j+s}) - f(x, k_j)| / (k_{j+s} - k_j) over the points,
    j and the strides s = 1, 2, 4, ...; ``fv`` has shape (nk, npts, d).

    sqrt and the division by k_{j+s} - k_j > 0 are monotone, so the max over
    the points is taken first and the result is still the max of the
    pointwise quotients, bit for bit.
    """
    n = len(ks)
    bufs = [np.empty(fv.shape[:-1]) for _ in range(fv.shape[-1])]
    best = 0.0
    stride = 1
    while stride < n:
        w = n - stride
        sq = _sum_squares([np.subtract(fv[stride:, :, i], fv[:w, :, i], out=b[:w])
                           for i, b in enumerate(bufs)])
        quot = np.sqrt(sq.max(axis=1)) / (ks[stride:] - ks[:w])
        best = max(best, float(quot.max()))
        stride *= 2
    return best


def _sampled_estimate(flux: FluxSpec, pts: Array, ks: Array) -> float:
    """Max of the chord slopes and of |d_k f| sampled at every point of
    ``pts`` (npts, d) and state of ``ks``, from ``eval`` and ``dk``."""
    fv = flux.eval(pts[None, :, :], ks[:, None])          # (nk, npts, d)
    if not np.all(np.isfinite(fv)):
        raise NonFiniteFlux(f"{flux.name}: non-finite values on sample set")
    best = _max_chord_slope(fv, ks)
    del fv  # released before the derivative samples are taken
    dkv = flux.dk(pts[None, :, :], ks[:, None])
    if not np.all(np.isfinite(dkv)):
        raise NonFiniteFlux(f"{flux.name}: non-finite state derivative on sample set")
    sq = _sum_squares([dkv[..., i] for i in range(flux.dim)])
    return max(best, float(np.sqrt(sq.max())))


# rows g(p) with |g(p)| at least (1 - _CANDIDATE_BAND) max|g| are sampled in
# full by _factored_estimate; every other row is only bounded from above
_CANDIDATE_BAND = 2.0 ** -20
# relative slack of those bounds: far more than the few dozen roundings
# between a row's float values and its sampled quotients
_ROUNDING_SLACK = 64 * np.finfo(float).eps
# absolute slack of those bounds: far more than underflow in the squares
# of tiny differences can take away (sqrt(3 * 2^-1074) < 2^-535)
_UNDERFLOW_SLACK = 2.0 ** -500
# factors with max|g|, max|g| max|h| or max|g| max|h'| above this (or not
# finite) go to the full sampling, so no bound or sampled square overflows
_FACTOR_CEILING = 2.0 ** 500


def _factored_estimate(factors: Separable, pts: Array, ks: Array) -> float | None:
    """``_sampled_estimate`` of a separable flux from its factors, bit for
    bit, or None where the reduction cannot certify that.

    g is evaluated on the points and h, h' on the states once, with the
    shapes ``eval``/``dk`` pass them, so every product g_i(p) h(k) is the
    sampled one.  A point enters the sampled quotients only through its
    row g(p): the full sampling runs on one point per distinct row with
    |g(p)| in the top band, which gives the estimate E over those rows.
    Any other row's sampled chord quotients are at most
    |g(p)| (S + 4 sqrt(d) eps max|h| / min dk), where S is the largest
    |h(k') - h(k)| / (k' - k) over the same strides and the second term
    covers the rounding of g_i h(k') - g_i h(k); its sampled |d_k f| is at
    most |g(p)| max|h'|; both up to the slacks above.  When both bounds,
    taken over every other row, are at most E, the full sampled maximum
    is E; otherwise the caller samples in full.
    """
    g = factors.g(pts[None])[0]                           # (npts, d)
    hk = factors.h(ks[:, None])[:, 0]
    dh = factors.h_prime(ks[:, None])[:, 0]
    g_max = float(np.abs(g).max())
    h_max, dh_max = float(np.abs(hk).max()), float(np.abs(dh).max())
    # a NaN or inf in any factor makes one of these NaN or inf, which fails
    if not (g_max <= _FACTOR_CEILING and g_max * h_max <= _FACTOR_CEILING
            and g_max * dh_max <= _FACTOR_CEILING):
        return None
    norms = np.sqrt((g * g).sum(axis=-1))
    top = norms >= (1.0 - _CANDIDATE_BAND) * norms.max()
    rows = np.unique(g[top], axis=0)
    best = _max_chord_slope(rows[None] * hk[:, None, None], ks)
    dkv = rows[None] * dh[:, None, None]
    est = max(best, float(np.sqrt(_sum_squares(
        [dkv[..., i] for i in range(dkv.shape[-1])]).max())))
    if top.all():
        return est
    dk_min = float((ks[1:] - ks[:-1]).min())
    if not dk_min > 0.0:
        return None
    n, slope, stride = len(ks), 0.0, 1
    while stride < n:
        w = n - stride
        slope = max(slope, float((np.abs(hk[stride:] - hk[:w])
                                  / (ks[stride:] - ks[:w])).max()))
        stride *= 2
    lift = 1.0 + _ROUNDING_SLACK
    g_out = float(norms[~top].max()) * lift + _UNDERFLOW_SLACK
    # h constant on ks (slope 0) or h' = 0 make the products, and so the
    # sampled differences or derivatives, exactly equal or zero
    chord_out = 0.0
    if slope > 0.0:
        rounding = 4.0 * np.sqrt(g.shape[1]) * np.finfo(float).eps * h_max
        chord_out = (g_out * (slope * lift + _UNDERFLOW_SLACK + rounding / dk_min)
                     + _UNDERFLOW_SLACK / dk_min)
    deriv_out = g_out * dh_max * lift + _UNDERFLOW_SLACK if dh_max > 0.0 else 0.0
    if chord_out <= est and deriv_out <= est:
        return est
    return None


def _lipschitz_estimate(flux: FluxSpec, R: float, M: float, n: int) -> float:
    # odd counts keep 0 and the endpoints on every refinement level
    n_x = n if flux.dim == 1 else max(33, int(np.sqrt(n)) | 1)
    pts = _ball_lattice(R, flux.dim, n_x)
    ks = np.linspace(-M, M, n)
    if flux.factors is not None:
        est = _factored_estimate(flux.factors, pts, ks)
        if est is not None:
            return est
    return _sampled_estimate(flux, pts, ks)


def lipschitz_constant(flux: FluxSpec, R: float, M: float,
                       base_grid: int = 201) -> float:
    """Sampled sup of |f(x,k)-f(x,k')|/|k-k'| over B_R x [-M, M]^2.

    The grid is doubled until two successive estimates agree within 1%;
    the returned value is the larger of the two, which dominates every
    sampled quotient and the sampled sup of |d_k f|.  If they still differ
    after six doublings the flux is taken not to be Lipschitz in k there,
    and LipschitzNonConvergent is raised.  A flux with ``factors`` is
    sampled through them (``_factored_estimate``), with the same value bit
    for bit.
    """
    if not (np.isfinite(R) and R > 0):
        raise ValueError(f"R must be finite and positive, got {R}")
    if not (np.isfinite(M) and M >= 0):
        raise ValueError(f"M must be finite and non-negative, got {M}")
    if M == 0.0:
        fv = flux.eval(_ball_lattice(R, flux.dim, 33), 0.0)
        if not np.all(np.isfinite(fv)):
            raise NonFiniteFlux(f"{flux.name}: non-finite values on sample set")
        return 0.0
    n = base_grid
    cur = _lipschitz_estimate(flux, R, M, n)
    for _ in range(6):
        n, prev = 2 * n - 1, cur
        cur = _lipschitz_estimate(flux, R, M, n)
        if abs(cur - prev) <= 0.01 * max(cur, 1e-300):
            return max(cur, prev)
    raise LipschitzNonConvergent(
        f"{flux.name}: estimates {prev:.6g} at grid {(n + 1) // 2} and "
        f"{cur:.6g} at grid {n} still differ by more than 1% on "
        f"B_{R:g} x [-{M:g}, {M:g}]")


def uniform_diffquot_deficit(flux: FluxSpec, x, K, radii) -> list[float]:
    """Sampled sup_k |f(y,k)-f(x,k)-D_xf(x,k)(y-x)|/|y-x| at |y-x| = r.

    One deficit per radius, over 65 states of [K[0], K[1]] and, in 2-d, 64
    directions.  For continuously differentiable catalog entries
    the sequence decays to zero as the radii do; the caller asserts trends.
    """
    if flux.is_singular(x):
        raise SingularPoint(f"{flux.name}: x = {x} is a declared singular point")
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    x0 = as_points(x, flux.dim).reshape(flux.dim)
    ks = np.linspace(float(K[0]), float(K[1]), 65)
    if flux.dim == 1:
        dirs = np.array([[-1.0], [1.0]])
    else:
        th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    # Jacobian rows at x: J[i, :] = grad of component i
    jac = np.stack([flux.grad_x_components(x0, ks, i) for i in range(flux.dim)],
                   axis=-2)                                  # (nk, d, d)
    fx = flux.eval(x0, ks)                                   # (nk, d)
    out = []
    for r in radii:
        ys = x0[None, :] + r * dirs                          # (nd, d)
        fy = flux.eval(ys[:, None, :], ks[None, :])          # (nd, nk, d)
        lin = np.einsum("kij,nj->nki", jac, ys - x0[None, :])
        rem = fy - fx[None, :, :] - lin
        out.append(float(np.sqrt((rem ** 2).sum(axis=-1)).max() / r))
    return out
