"""Analytic flux catalog: f(x, k) with derivatives and Lipschitz metadata.

A flux is a map f : R^d x R -> R^d given in closed form together with its
state derivative d_k f, its spatial divergence at frozen state, and the
spatial gradient of each component.  Catalog entries are closed-form by
construction, so local Lipschitz continuity and the uniform-differentiability
property are documented catalog facts rather than runtime checks; the
operations below only *sample* them.

Every catalog flux is separable, f_i(x, k) = g_i(x) h(k) with g_i a function
of x_i alone.  Each entry is one ``Separable`` (g and g' on points, h, h'
and the variation V of h elementwise on states), and ``eval``, ``dk``,
``div_x`` and ``grad_x_components`` are all built from those factors, so
no derivative is written twice.  The solver takes g once per run on the
cell edges and only h and h' per sweep; its a-priori speed and bound and
``lipschitz_constant`` (max|g| on the ball times the slope of h) take the
exact product of a max over points and a max over states instead of
sampling f on their product.
The weak entropy sweep (``entropy.sweep_terms``) takes g,
g'_1 + ... + g'_d and h once per chunk for all its pairs; the entropy
pairs themselves call ``eval``, ``dk`` and ``div_x``.  A FluxSpec cannot
be built without its factors, so a flux that is not of this form is out
of the lab's reach.

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
    """Declared factors of f_i(x, k) = g_i(x) h(k).  g_i must depend on x_i
    alone: the solver reads g_i at its interfaces from g at the cell edges.

    ``g`` and ``g_prime`` map points (..., d) to (..., d); component i of
    ``g_prime`` is dg_i/dx_i, the only non-zero entry of row i of the
    Jacobian of g.  ``h`` and ``h_prime`` (= h') act elementwise on states.
    So d_k f_i = g_i(x) h'(k), div_x f = (g'_1 + ... + g'_d)(x) h(k) and
    grad_x f_i = e_i g'_i(x) h(k).  ``V``, elementwise too, is the
    variation of h, V(k) = int_0^k |h'(w)| dw, the factor an Engquist-Osher
    interface flux needs; nothing reads it yet.
    """

    g: Callable[[Array], Array]
    g_prime: Callable[[Array], Array]
    h: Callable[[Array], Array]
    h_prime: Callable[[Array], Array]
    V: Callable[[Array], Array]

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
    from (``_separable``), and a FluxSpec without them is refused.  The
    solver, ``lipschitz_constant`` and the weak entropy sweep
    (``entropy.sweep_terms``, the one place where they enter entropy
    evaluation) read them in place of ``eval``, ``dk`` and ``div_x``.
    ``lipschitz_constant`` reads max|g| times the slope of h, free of the
    rounding of g h(k).
    """

    name: str
    dim: int
    eval: Callable[[Array, Array], Array]
    dk: Callable[[Array, Array], Array]
    div_x: Callable[[Array, Array], Array]
    grad_x_components: Callable[[Array, Array, int], Array]
    factors: Separable
    singular_points: tuple = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.factors, Separable):
            raise TypeError(f"flux {self.name}: factors must be a Separable, "
                            f"got {self.factors!r}")

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
    # f_i(x, k) = k^2 / 2, V(k) = k |k| / 2
    return _separable(f"burgers{dim}d", dim,
                      Separable(np.ones_like, np.zeros_like,
                                lambda k: 0.5 * k * k, _identity,
                                lambda k: 0.5 * k * np.abs(k)))


def _advection1d(params) -> FluxSpec:
    # f(x, k) = c k
    c = float(params.get("c", 1.0))
    return _separable("advection1d", 1,
                      Separable(lambda x: np.full(x.shape, c), np.zeros_like,
                                _identity, np.ones_like, _identity),
                      params={"c": c})


def _xsquared1d(params) -> FluxSpec:
    # f(x, k) = x^2: a pure source, independent of the state
    return _separable("xsquared1d", 1,
                      Separable(lambda x: x * x, lambda x: 2.0 * x,
                                np.ones_like, np.zeros_like, np.zeros_like))


def _g_arctan(x):
    return np.arctan(x * x) + 1.0


def _g_arctan_prime(x):
    return 2.0 * x / (1.0 + x ** 4)


def _v_sin(k):
    # int_0^k |cos w| dw: on the m-th monotone piece of sin,
    # m = floor((k + pi/2) / pi), it is 2m + (-1)^m sin k
    m = np.floor((k + 0.5 * np.pi) / np.pi)
    return 2.0 * m + (1.0 - 2.0 * (m % 2.0)) * np.sin(k)


def _product(dim: int, params) -> FluxSpec:
    # f_i(x, k) = (arctan(x_i^2) + 1) sin(k)
    return _separable(f"product{dim}d", dim,
                      Separable(_g_arctan, _g_arctan_prime, np.sin, np.cos,
                                _v_sin))


def _kink1d(params) -> FluxSpec:
    # f(x, k) = |x| k: locally Lipschitz, spatial derivative fails at x = 0
    return _separable("kink1d", 1,
                      Separable(np.abs, np.sign, _identity, np.ones_like,
                                _identity),
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


def _pow2_scale(top: float) -> float:
    """A power of two near 1 / ``top``: multiplying by it is exact (short of
    underflow) and keeps the squares of values up to ``top`` finite."""
    return 2.0 ** -min(max(math.frexp(top)[1], -1000), 1000)


def _ball_lattice(R: float, dim: int, n_per_axis: int) -> Array:
    """Deterministic lattice covering the closed ball B_R; always includes 0
    and the axis endpoints so sampled sups anchor at the same points as the
    lattice refines."""
    pts = _tensor_points(np.linspace(-R, R, n_per_axis), dim).reshape(-1, dim)
    # |p| <= R + 1e-15 taken at a power-of-two scale near 1/R: the scaling
    # is exact, so the test is the unscaled one wherever no square overflows
    s = _pow2_scale(R)
    keep = np.sqrt(((s * pts) ** 2).sum(axis=-1)) <= s * (R + 1e-15)
    return pts[keep]


def _sum_squares(parts: list) -> Array:
    """sum_i parts[i]^2, added in component order as a sum over a trailing
    axis would add them; overwrites the (writable) ``parts``."""
    acc = np.multiply(parts[0], parts[0], out=parts[0])
    for p in parts[1:]:
        acc += np.multiply(p, p, out=p)
    return acc


def _factored_estimate(flux: FluxSpec, pts: Array, ks: Array) -> float:
    """N = G S for f_i = g_i(x) h(k), the exact product of two sampled
    maxima: G = max|g(p)| over ``pts``, S the larger of the chord slopes of
    h between adjacent states of ``ks`` and max|h'| on ``ks``.  A sampling
    of g_i(p) h(k) and g_i(p) h'(k) on every point and state reads it up
    to its own rounding, 4 sqrt(d) eps G max|h| / min dk + 8 eps G S, and
    the underflow of its squares, 2^-500 / min dk.  A chord over several
    steps is a weighted mean of theirs, so adjacent chords suffice.
    """
    factors = flux.factors
    g = np.abs(factors.g(pts[None])[0])                  # (npts, d)
    hk = factors.h(ks)
    s = _pow2_scale(float(g.max()))
    G = float(np.sqrt(_sum_squares(list(s * g.T)).max())) / s
    h_max = float(np.abs(hk).max())
    dh_max = float(np.abs(factors.h_prime(ks)).max())
    if not all(map(math.isfinite, (G, G * h_max, G * dh_max))):
        raise NonFiniteFlux(f"{flux.name}: non-finite factors on sample set "
                            f"(max|g| {G}, max|h| {h_max}, max|h'| {dh_max})")
    # t h for a power of two t: exact, and its chords cannot overflow
    t = _pow2_scale(h_max)
    chord = float((np.abs(np.diff(t * hk)) / np.diff(ks)).max(initial=0.0))
    return G * max(chord / t, dh_max)


def _lipschitz_estimate(flux: FluxSpec, R: float, M: float, n: int) -> float:
    # floor(n^(1/d)) points per axis (the integer root, exactly), at least
    # 33; odd counts keep 0 and the endpoints on every refinement level
    root = round(n ** (1.0 / flux.dim))
    n_x = max(33, (root - (root ** flux.dim > n)) | 1)
    pts = _ball_lattice(R, flux.dim, n_x)
    return _factored_estimate(flux, pts, np.linspace(-M, M, n))


def lipschitz_constant(flux: FluxSpec, R: float, M: float,
                       base_grid: int = 201) -> float:
    """Sampled sup of |f(x,k)-f(x,k')|/|k-k'| over B_R x [-M, M]^2.

    The grid is doubled until two successive estimates agree within 1%;
    the returned value is the larger of the two, which dominates every
    sampled quotient and the sampled sup of |d_k f|.  If they still differ
    after six doublings the flux is taken not to be Lipschitz in k there,
    and LipschitzNonConvergent is raised.  Each estimate is max|g| times
    the slope of h (``_factored_estimate``); it agrees with the sampling
    of ``eval``/``dk`` up to that sampling's rounding.
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
