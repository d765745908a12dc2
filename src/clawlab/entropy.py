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
A and B are state integrals of h' and h alone.  They are read from
cumulative Gauss-Legendre tables over the states at hand, looked up
exactly (``_state_tables``); the breakpoints depend on k0 and the states
only, so every n shares them.  Against the per-(point, state) panel
quadrature that a flux without factors takes, the tables differ by
roundoff: at most 2.2e-15 (q) and 1.6e-15 (div_x q) of the batch maximum
over every weak-sum batch of the product1d entropy sweeps of the benchmark
seeds 1-3 (up to 456 states), and 1e-13 of the largest |d_k f| times the
state range (|div_x f|) in the property tests.

The weak entropy sweep of a flux with factors (``factored_sweep_terms``)
calls no pair: per chunk of the quadrature it takes g, the sum of g' and
h once, and the Kruzkov terms in closed form,
    q = sign(u - k0) (h(u) - h(k0)) g(x),
    div_x q - eta'(u) div_x f = -sign(u - k0) h(k0) (g'_1 + ... + g'_d)(x),
where the h(u) terms cancel exactly.  The smooth pairs of one k0 share one
table set.  Its values agree with the pair-by-pair path of a copy without
factors to at most 1.6e-13 of the largest |value| (measured over 2,000
random fields, catalog fluxes in 1-d and 2-d).

Sign convention throughout: sign(0) = 0 (numpy's convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flux import FluxSpec, Separable, as_points
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
    "smooth"; smooth pairs carry the smoothing index ``n``.  ``flux`` is
    the FluxSpec the pair was built for: a sweep refuses a pair built for
    another flux object, and the sweep of a flux with factors reads only
    ``kind``, ``k0`` and ``n`` (``factored_sweep_terms``).
    """

    eta: Callable[[Array], Array]
    eta_prime: Callable[[Array], Array]
    k0: float
    q: Callable[[Array, Array], Array]
    div_x_q: Callable[[Array, Array], Array]
    kind: str
    n: int | None = None
    flux: FluxSpec | None = None

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


# offsets 4^j 2^-30 from k0, j = 0 .. 526, up to 2^1022: the panel edges
# of every state table (see ``_state_tables``)
_PANEL_LADDER = 4.0 ** np.arange(-15, 512)


def _state_tables(k0: float, k: Array):
    """Cumulative Gauss-Legendre tables toward k0 over the states ``k``
    (any shape), one breakpoint set for every smoothing index n.

    The breakpoints are the distinct finite states, k0 and the offsets
    4^j 2^-30 from k0 on each side of k0 that holds states: panels refined
    geometrically toward k0, where eta_n'' concentrates on the scale
    n^{-1/2}, at ratio 4 down to 2^-30, an eighth of that scale for every
    n <= 2^54.  The set does not depend on n, so a pair's table is the same
    alone as in a sweep.  Each interval gets one 16-node Gauss-Legendre sum.

    Returns the nodes w (J, m) and ``tabulate(ns, hw, hpw)``, which takes
    h and h' at those nodes and yields, per n of ``ns``, the pair
    (A(k), I(k)) with A(u) = int_{k0}^{u} eta_n' h' dw and
    I(u) = int_{k0}^{u} eta_n'' h dw: one ``cumsum``, shifted to 0 at k0,
    read at the states through one shared ``searchsorted``.  Every state is
    a breakpoint, so the lookup is exact; NaN where u is not finite.
    """
    fin = np.isfinite(k)
    states = k[fin]
    below = k0 - float(states.min(initial=k0))
    above = float(states.max(initial=k0)) - k0
    bp = np.unique(np.concatenate(
        [states, [k0], k0 - _PANEL_LADDER[_PANEL_LADDER < below],
         k0 + _PANEL_LADDER[_PANEL_LADDER < above]]))
    # nodes placed by their offset from k0, so w - k0 is rounded once
    off = bp - k0
    mid, half = 0.5 * (off[1:] + off[:-1]), 0.5 * (off[1:] - off[:-1])
    w = k0 + (mid[:, None] + half[:, None] * GAUSS_NODES)      # (J, m)
    at = np.searchsorted(bp, np.where(fin, k, k0))
    zero = np.searchsorted(bp, k0)

    def lookup(integrand):
        table = np.concatenate(
            ([0.0], np.cumsum(half * np.einsum("jm,m->j", integrand,
                                               GAUSS_WEIGHTS))))
        return np.where(fin, table[at] - table[zero], np.nan)

    def tabulate(ns, hw, hpw):
        for n in ns:
            ent = sqrt_entropy(k0, n)
            yield lookup(ent.eta_prime(w) * hpw), lookup(ent.eta_pp(w) * hw)

    return w, tabulate


def make_smooth_pair(flux: FluxSpec, k0: float, n: int) -> EntropyPair:
    """Entropy pair for eta_n = sqrt((k-k0)^2 + 1/n).

    The flux q is the state integral of eta_n' d_k f; the divergence uses
    the integration-by-parts form
        div_x q(x,k) = -int eta_n'' div_x f dw + eta_n'(k) div_x f(x,k),
    which is exact because eta_n'(k0) = 0.

    For a flux with ``factors`` f_i = g_i(x) h(k) the x-dependence factors
    out: q(x, u) = g(x) A(u) and div_x q(x, u) = (g'_1 + ... + g'_d)(x) B(u)
    with A(u) = int_{k0}^{u} eta_n' h' dw and
    B(u) = eta_n'(u) h(u) - int_{k0}^{u} eta_n'' h dw.  Each call takes g
    (or the sum of g') once on its points and A (or the integral in B) from
    one cumulative table over its states, built by ``_state_tables``, the
    function that builds the weak entropy sweep's tables too; they agree
    with the panel path below to roundoff (see the module docstring).  The
    sweep (``factored_sweep_terms``) calls no pair: it yields this pair's
    q = g(x) A(u) and source -(g'_1 + ... + g'_d)(x) int_{k0}^{u} eta_n'' h dw
    next to the closed-form Kruzkov terms
    q = sign(u - k0) (h(u) - h(k0)) g(x) and
    source = -sign(u - k0) h(k0) (g'_1 + ... + g'_d)(x), and its values
    agree with calls of the pairs of a copy without factors to at most
    1.6e-13 of the largest |value|.  A flux without factors integrates
    f itself for every (point, state) pair: batches share one panel set
    (``_state_integral``).
    """
    ent = sqrt_entropy(k0, n)
    fac = flux.factors
    if fac is not None:
        def tables(kk):
            w, tabulate = _state_tables(k0, kk)
            return next(tabulate((n,), fac.h(w), fac.h_prime(w)))

        def q(x, k):
            A, _ = tables(np.asarray(k, dtype=float))
            return fac.g(as_points(x, flux.dim)) * A[..., None]

        def div_x_q(x, k):
            kk = np.asarray(k, dtype=float)
            _, integ = tables(kk)
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
                       kind="smooth", n=int(n), flux=flux)


def _call_once(fn, arrays) -> list:
    """The elementwise ``fn`` on every array of ``arrays`` in one call,
    split back into their shapes."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    out = fn(np.concatenate([a.ravel() for a in arrays]))
    ends = np.cumsum([a.size for a in arrays])
    return [out[e - a.size:e].reshape(a.shape) for a, e in zip(arrays, ends)]


def factored_sweep_terms(factors: Separable, pairs):
    """The term generator of the weak entropy sweep for a flux with
    ``factors`` f_i = g_i(x) h(k) (see ``verifier._weak_sums``): one
    (eta, q, source) per pair, source = div_x q - eta'(u) div_x f.

    It reads only each pair's kind, k0 and n.  Per chunk it takes g(P),
    (g'_1 + ... + g'_d)(P) and h once, h on the states, the Kruzkov k0 and
    the table nodes in one call (h' on the nodes likewise), so no
    ``FluxSpec`` or ``EntropyPair`` callable is called.  A Kruzkov pair is
    closed-form, with the h(u) terms of its source cancelled exactly:
        eta = |u - k0|,  q = sign(u - k0) (h(u) - h(k0)) g(x),
        source = -sign(u - k0) h(k0) (g'_1 + ... + g'_d)(x).
    The smooth pairs of one k0 share one ``_state_tables`` breakpoint set,
    node evaluation and lookup; per n, q = A(u) g(x) and
    source = -(g'_1 + ... + g'_d)(x) int_{k0}^{u} eta_n'' h dw.
    """
    pairs = list(pairs)
    kruzkov = [p.k0 for p in pairs if p.kind == "kruzkov"]
    groups: dict[float, list[int]] = {}
    for p in pairs:
        if p.kind == "smooth":
            groups.setdefault(p.k0, []).append(p.n)
    etas = {(p.k0, p.n): sqrt_entropy(p.k0, p.n).eta
            for p in pairs if p.kind == "smooth"}

    def terms(P, U):
        g, g_sum = factors.g(P), factors.g_prime_sum(P)
        nodes, tabulates = [], []
        for k0 in groups:
            w, tabulate = _state_tables(k0, U)
            nodes.append(w)
            tabulates.append(tabulate)
        hU, hk, *hw = _call_once(factors.h, [U, kruzkov, *nodes])
        hpw = _call_once(factors.h_prime, nodes) if nodes else []
        tables = {k0: tab(ns, a, b) for (k0, ns), tab, a, b
                  in zip(groups.items(), tabulates, hw, hpw)}
        h_k0 = iter(hk)
        for pair in pairs:
            if pair.kind == "kruzkov":
                hk0 = next(h_k0)
                s = np.sign(U - pair.k0)
                yield (np.abs(U - pair.k0), (s * (hU - hk0))[..., None] * g,
                       -(s * hk0) * g_sum)
            else:
                A, integ = next(tables[pair.k0])
                yield (etas[pair.k0, pair.n](U), A[..., None] * g,
                       -g_sum * integ)

    return terms


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

    return EntropyPair(eta, eta_prime, k0, q, div_x_q, kind="kruzkov",
                       flux=flux)


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
