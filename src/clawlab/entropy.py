"""Entropy pairs (eta, q) and their regularity identities.

Two families are provided.  The smooth family

    eta_n(k) = sqrt((k - k0)^2 + 1/n)

is convex, C^infty, has eta_n'(k0) = 0, and converges uniformly to
|k - k0| at rate n^{-1/2}.  The absolute-value pair

    eta(k) = |k - k0|,   q(x, k) = sign(k - k0) (f(x, k) - f(x, k0))

is the limit family; its flux is closed-form, no quadrature needed.

The entropy flux of a smooth pair is the state integral

    q(x, k) = int_{k0}^{k} eta'(w) d_k f(x, w) dw

and admits the equivalent integration-by-parts representation

    q(x, k) = -int_{k0}^{k} eta''(w) f(x, w) dw
              + eta'(k) f(x, k) - eta'(k0) f(x, k0).

Agreement of the two routes (each computed by independent quadrature) is a
checked identity, not an assumption.

For a separable flux f_i = g_i(x) h(k) the smooth pairs factor:
q(x, u) = g(x) A(u) and div_x q(x, u) = (g'_1 + ... + g'_d)(x) B(u), where
A and B are state integrals of h' and h alone.  Each call takes them from
one cumulative Gauss-Legendre table over its own states, looked up exactly
(``_state_table``).  Against the per-(point, state) panel quadrature that
a flux without factors takes, the tables differ by roundoff: at most
1.8e-15 (q) and 1.2e-15 (div_x q) of the batch maximum on the largest
weak-sum batch of a product1d entropy sweep (456 states), and 1e-13 of the
largest |d_k f| times the state range (|div_x f|) in the property tests.

Sign convention throughout: sign(0) = 0 (numpy's convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flux import FluxSpec, as_points
from .quadrature import GAUSS_NODES, GAUSS_WEIGHTS, adaptive_gauss_legendre

Array = np.ndarray


@dataclass(frozen=True)
class SmoothEntropy:
    """A C^2 convex entropy with evaluable first and second derivatives."""

    eta: Callable[[Array], Array]
    eta_prime: Callable[[Array], Array]
    eta_pp: Callable[[Array], Array]


def sqrt_entropy(k0: float, n: int) -> SmoothEntropy:
    """The canonical smoothing sqrt((k-k0)^2 + 1/n) of |k - k0|; needs
    n >= 1."""
    if not n >= 1:
        raise ValueError(f"the smoothing index n must be >= 1, got {n}")
    a = 1.0 / float(n)

    def eta(k):
        s = np.asarray(k, dtype=float) - k0
        return np.sqrt(s * s + a)

    def eta_prime(k):
        s = np.asarray(k, dtype=float) - k0
        return s / np.sqrt(s * s + a)

    def eta_pp(k):
        s = np.asarray(k, dtype=float) - k0
        return a / (s * s + a) ** 1.5

    return SmoothEntropy(eta, eta_prime, eta_pp)


@dataclass(frozen=True)
class EntropyPair:
    """Entropy eta with its flux q and divergence of q at frozen state.

    ``q(x, k)`` accepts a point batch (..., d) with broadcastable k and
    returns (..., d); ``div_x_q`` returns (...).  ``kind`` is "kruzkov" or
    "smooth"; smooth pairs carry the smoothing index ``n``.
    """

    eta: Callable[[Array], Array]
    eta_prime: Callable[[Array], Array]
    k0: float
    q: Callable[[Array, Array], Array]
    div_x_q: Callable[[Array, Array], Array]
    kind: str
    n: int | None = None

    @property
    def label(self) -> str:
        return f"smooth(n={self.n}, k0={self.k0:g})" if self.kind == "smooth" \
            else f"kruzkov(k0={self.k0:g})"


def q_build_quadrature(flux: FluxSpec, eta_prime, k0: float, x, k: float,
                       tol: float = 1e-10) -> Array:
    """Entropy flux by adaptive quadrature of eta'(w) d_k f(x, w) over [k0, k].

    ``x`` may be a single point or a batch; the refinement is shared across
    the batch (tolerance enforced on the max component).
    """
    pts = as_points(x, flux.dim)
    k = float(k)

    def integrand(w):
        wcol = w.reshape((-1,) + (1,) * (pts.ndim - 1))
        vals = flux.dk(pts[None, ...], wcol)         # (m, ..., d)
        ep = np.asarray(eta_prime(w), dtype=float).reshape(wcol.shape)
        return ep[..., None] * vals

    return adaptive_gauss_legendre(integrand, k0, k, tol=tol)


def q_build_ibp(flux: FluxSpec, entropy: SmoothEntropy, k0: float, x, k: float,
                tol: float = 1e-10) -> Array:
    """Entropy flux via the integration-by-parts route; needs eta''."""
    pts = as_points(x, flux.dim)
    k = float(k)

    def integrand(w):
        wcol = w.reshape((-1,) + (1,) * (pts.ndim - 1))
        fv = flux.eval(pts[None, ...], wcol)
        epp = np.asarray(entropy.eta_pp(w), dtype=float).reshape(wcol.shape)
        return epp[..., None] * fv

    integral = adaptive_gauss_legendre(integrand, k0, k, tol=tol)
    boundary = (np.asarray(entropy.eta_prime(k), dtype=float) * flux.eval(pts, k)
                - np.asarray(entropy.eta_prime(k0), dtype=float) * flux.eval(pts, k0))
    return -integral + boundary


def _geometric_panels(k0: float, k: float, scale: float) -> np.ndarray:
    """Panel edges of [k0, k] geometrically refined toward k0, where the
    smoothed sign function varies on the length scale ``scale``."""
    span = abs(k - k0)
    if span == 0.0:
        return np.array([k0, k])
    s = min(max(scale, 1e-8), span)
    # offsets 0 < s/8 < s/2 < s < 4s < ... < span
    offs = [0.0]
    step = s / 8.0
    while step < span:
        offs.append(step)
        step *= 4.0
    offs.append(span)
    offs = np.unique(np.asarray(offs))
    return k0 + np.sign(k - k0) * offs


def _state_integral(flux: FluxSpec, k0: float, n: int, pts: Array, k,
                    panel_sum):
    """int_{k0}^{k} dw of an integrand that depends on the point (a flux
    without factors), for points (..., d) and states broadcast against
    each other, flattened to np (point, state) pairs: composite
    Gauss-Legendre on panels refined toward k0 (where eta_n'' concentrates),
    remapped per pair onto [0, 1] so one node set serves the whole batch.

    ``panel_sum(flat points (np, d), nodes w (m, np))`` is one panel's
    Gauss-weighted sum, shape (np, ...).  Returns (states (np,), flat
    points, broadcast shape, integrals (np, ...)).
    """
    kk = np.asarray(k, dtype=float)
    shape = np.broadcast_shapes(pts.shape[:-1], kk.shape)
    flat = np.broadcast_to(pts, shape + (flux.dim,)).reshape(-1, flux.dim)
    kk = np.broadcast_to(kk, shape).ravel()
    kmax = float(np.max(np.abs(kk - k0))) if kk.size else 0.0
    edges = _geometric_panels(0.0, 1.0, (1.0 / np.sqrt(n)) / max(kmax, 1e-12))
    span = kk - k0                                   # (np,)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * GAUSS_NODES                 # (m,) in [0, 1]
        total = total + half * panel_sum(flat, k0 + span[None, :] * t[:, None])
    total = total * span.reshape(span.shape + (1,) * (np.ndim(total) - 1))
    return kk, flat, shape, total


def _state_table(k0: float, n: int, k: Array, integrand) -> Array:
    """int_{k0}^{u} integrand(w) dw at every state u of ``k`` (any shape),
    from one cumulative table; NaN where u is not finite.

    The breakpoints are the distinct finite states, k0 and the edges of
    ``_geometric_panels`` toward k0 at scale n^{-1/2} on each side of k0
    that holds states.  Each interval gets one 16-node Gauss-Legendre sum,
    one ``cumsum`` adds them, and the table is shifted to 0 at k0.  Every
    state is a breakpoint, so its ``searchsorted`` lookup is exact.
    """
    fin = np.isfinite(k)
    bp = np.unique(np.concatenate([k[fin], [k0]]))
    scale = 1.0 / np.sqrt(n)
    bp = np.unique(np.concatenate(
        [bp, *(_geometric_panels(k0, float(end), scale)
               for end in (bp[0], bp[-1]) if end != k0)]))
    # nodes placed by their offset from k0, so w - k0 is rounded once
    off = bp - k0
    mid, half = 0.5 * (off[1:] + off[:-1]), 0.5 * (off[1:] - off[:-1])
    w = k0 + (mid[:, None] + half[:, None] * GAUSS_NODES)      # (J, m)
    table = np.concatenate(
        ([0.0], np.cumsum(half * np.einsum("jm,m->j", integrand(w),
                                           GAUSS_WEIGHTS))))
    table -= table[np.searchsorted(bp, k0)]
    return np.where(fin, table[np.searchsorted(bp, np.where(fin, k, k0))],
                    np.nan)


def make_smooth_pair(flux: FluxSpec, k0: float, n: int) -> EntropyPair:
    """Entropy pair for eta_n = sqrt((k-k0)^2 + 1/n).

    The flux q is the state integral of eta_n' d_k f; the divergence uses
    the integration-by-parts form
        div_x q(x,k) = -int eta_n'' div_x f dw + eta_n'(k) div_x f(x,k),
    which is exact because eta_n'(k0) = 0.

    For a flux with ``factors`` f_i = g_i(x) h(k) the x-dependence factors
    out: q(x, u) = g(x) A(u) and div_x q(x, u) = (g'_1 + ... + g'_d)(x) B(u)
    with A(u) = int_{k0}^{u} eta_n' h' dw and
    B(u) = -int_{k0}^{u} eta_n'' h dw + eta_n'(u) h(u).  Each call takes g
    (or the sum of g') once on its points and A (or B) from one cumulative
    table over its states (``_state_table``); they agree with the panel
    path below to roundoff, about 2e-15 of the batch maximum (see the
    module docstring).  A flux without factors integrates f itself for
    every (point, state) pair: batches share one panel set
    (``_state_integral``).
    """
    ent = sqrt_entropy(k0, n)
    fac = flux.factors
    if fac is not None:
        def q(x, k):
            A = _state_table(k0, n, np.asarray(k, dtype=float),
                             lambda w: ent.eta_prime(w) * fac.h_prime(w))
            return fac.g(as_points(x, flux.dim)) * A[..., None]

        def div_x_q(x, k):
            kk = np.asarray(k, dtype=float)
            integ = _state_table(k0, n, kk,
                                 lambda w: ent.eta_pp(w) * fac.h(w))
            return (fac.g_prime_sum(as_points(x, flux.dim))
                    * (ent.eta_prime(kk) * fac.h(kk) - integ))
    else:
        def q_panel(flat, w):
            return np.einsum("m,mp,mpi->pi", GAUSS_WEIGHTS, ent.eta_prime(w),
                             flux.dk(flat[None, :, :], w))

        def div_panel(flat, w):
            return np.einsum("m,mp,mp->p", GAUSS_WEIGHTS, ent.eta_pp(w),
                             flux.div_x(flat[None, :, :], w))

        def q(x, k):
            pts = as_points(x, flux.dim)
            _, _, shape, total = _state_integral(flux, k0, n, pts, k,
                                                 q_panel)
            return total.reshape(shape + (flux.dim,))

        def div_x_q(x, k):
            kk, flat, shape, integ = _state_integral(
                flux, k0, n, as_points(x, flux.dim), k, div_panel)
            out = -integ + ent.eta_prime(kk) * flux.div_x(flat, kk)
            return out.reshape(shape)

    return EntropyPair(ent.eta, ent.eta_prime, float(k0), q, div_x_q,
                       kind="smooth", n=int(n))


def kruzkov_flux(flux: FluxSpec, x, u, v) -> Array:
    """q(x, u, v) = sign(u - v) (f(x, u) - f(x, v)), shape (..., d): the
    flux of |u - k0| at v = k0, and of Kato's inequality for |u - v|."""
    return np.sign(u - v)[..., None] * (flux.eval(x, u) - flux.eval(x, v))


def kruzkov_div(flux: FluxSpec, x, u, v) -> Array:
    """div_x q(x, u, v) at frozen states, shape (...); at a singular point
    of the flux it takes div_x f there, the mean of its one-sided values."""
    return np.sign(u - v) * (flux.div_x(x, u) - flux.div_x(x, v))


def make_kruzkov_pair(flux: FluxSpec, k0: float) -> EntropyPair:
    """Closed-form absolute-value pair at reference state k0."""
    k0 = float(k0)

    def eta(k):
        return np.abs(np.asarray(k, dtype=float) - k0)

    def eta_prime(k):
        return np.sign(np.asarray(k, dtype=float) - k0)

    def q(x, k):
        return kruzkov_flux(flux, as_points(x, flux.dim),
                            np.asarray(k, dtype=float), k0)

    def div_x_q(x, k):
        return kruzkov_div(flux, as_points(x, flux.dim),
                           np.asarray(k, dtype=float), k0)

    return EntropyPair(eta, eta_prime, k0, q, div_x_q, kind="kruzkov")


def kruzkov_limit_deficit(flux: FluxSpec, k0: float, x, k: float,
                          n_list) -> list[float]:
    """|q_n(x,k) - q(x,k)| for each smoothing index n; trends to zero."""
    target = make_kruzkov_pair(flux, k0).q(x, k)
    return [float(np.max(np.abs(q_build_quadrature(
        flux, sqrt_entropy(k0, int(n)).eta_prime, k0, x, k) - target)))
        for n in n_list]


def kruzkov_div_deficit(flux: FluxSpec, k0: float, x, k: float,
                        n_list) -> list[float]:
    """|div_x q_n(x,k) - div_x q(x,k)| over the smoothing sweep."""
    target = make_kruzkov_pair(flux, k0).div_x_q(x, k)
    return [float(np.max(np.abs(
        make_smooth_pair(flux, k0, int(n)).div_x_q(x, k) - target)))
        for n in n_list]


def leibniz_check(flux: FluxSpec, xi, B, x, h_list) -> list[float]:
    """Differentiation under the integral sign, sampled.

    Compares the central finite difference in x of int_B xi(w) f(x,w) dw
    against int_B xi(w) D_x f(x,w) dw (componentwise, all axes); returns one
    max-norm discrepancy per step h.  Both sides by quadrature.
    """
    if flux.is_singular(x):
        from .errors import SingularPoint
        raise SingularPoint(f"{flux.name}: x = {x} is singular")
    lo, hi = float(B[0]), float(B[1])
    x0 = as_points(x, flux.dim).reshape(flux.dim)

    def moment(pt):
        def integrand(w):
            fv = flux.eval(pt[None, :], w[:, None])          # (m, 1, d) -> squeeze
            xiw = np.asarray(xi(w), dtype=float) + np.zeros_like(w)
            return xiw[:, None] * fv.reshape(len(w), flux.dim)
        return adaptive_gauss_legendre(integrand, lo, hi, tol=1e-12)

    def rhs_jacobian():
        def integrand(w):
            rows = [flux.grad_x_components(x0, w[:, None].ravel(), i)
                    for i in range(flux.dim)]                 # each (m, d)
            jac = np.stack(rows, axis=-2)                     # (m, d, d)
            xiw = np.asarray(xi(w), dtype=float) + np.zeros_like(w)
            return xiw[:, None, None] * jac
        return adaptive_gauss_legendre(integrand, lo, hi, tol=1e-12)

    rhs = rhs_jacobian()
    out = []
    for h in h_list:
        cols = []
        for j in range(flux.dim):
            e = np.zeros(flux.dim)
            e[j] = float(h)
            cols.append((moment(x0 + e) - moment(x0 - e)) / (2.0 * float(h)))
        lhs = np.stack(cols, axis=-1)                         # (d_out, d_axis)
        out.append(float(np.max(np.abs(lhs - rhs))))
    return out


def default_k0_sweep(M: float, count: int = 9) -> np.ndarray:
    """Reference states for 'every entropy pair' proxies: uniform in [-M, M]."""
    return np.linspace(-float(M), float(M), count)
