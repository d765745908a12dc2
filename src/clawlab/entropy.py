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

Every state integral of a smooth pair comes from one rule,
``_state_tables``: cumulative Gauss-Legendre tables over rows of states
that share one integrand, each row with its own breakpoints (its finite
states, k0 and a geometric ladder toward k0), looked up exactly and
summed outward from k0.  The breakpoints depend on k0 and the row's
states only, so every n shares them; each interval takes 4, 8 or 16
nodes by its distance to k0, in half-widths.  A pair's integrand depends
on x, so every (point, state) pair is a row of its own, with d_k f and
div_x f at its point and eta_n' and eta_n'' at the nodes' offsets from
k0 before rounding, which keeps the relative accuracy of q for states
close to a k0 away from 0.  Every pair, smooth or Kruzkov, calls its
flux's callables and never its factors.

``sweep_terms`` is the one place where the factors f_i = g_i(x) h(k) of
a flux enter entropy evaluation.  The weak entropy sweep calls no pair:
per chunk of the quadrature it takes g, the sum of g' and h once, and the
Kruzkov terms in closed form,
    q = sign(u - k0) (h(u) - h(k0)) g(x),
    div_x q - eta'(u) div_x f = -sign(u - k0) h(k0) (g'_1 + ... + g'_d)(x),
where the h(u) terms cancel exactly.  The smooth pairs of one k0 share one
table row over the chunk's states, with q = g(x) A(u) and
div_x q = (g'_1 + ... + g'_d)(x) B(u), where A and B are state integrals
of h' and h alone.  Its values agree with a sweep that calls every
pair's own callables to at most 4.4e-14 of the largest |value| (measured
over 7,800 random fields, catalog fluxes in 1-d and 2-d).

Sign convention throughout: sign(0) = 0 (numpy's convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flux import FluxSpec, as_points
from .quadrature import adaptive_gauss_legendre

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
    another flux object, and the sweep reads only ``kind``, ``k0`` and
    ``n`` (``sweep_terms``).
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


# offsets 4^j 2^-30 from k0, j = 0 .. 526, up to 2^1022: the panel edges
# of every state table (see ``_state_tables``)
_PANEL_LADDER = 4.0 ** np.arange(-15, 512)

# the Gauss-Legendre orders m of the state tables.  Every m is a multiple
# of 4, so the rules' nodes and weights are stored in quads, one rule
# after another from _RULE_FIRST (in quads); slot 3 is an interval of zero
# width, which gets no node
_ORDERS = (4, 8, 16)
_RULE_NODES, _RULE_WEIGHTS = (np.concatenate(a).reshape(-1, 4).T for a in zip(
    *(np.polynomial.legendre.leggauss(m) for m in _ORDERS)))
_RULE_QUADS = np.array(_ORDERS + (0,)) // 4
_RULE_FIRST = np.cumsum(_RULE_QUADS) - _RULE_QUADS
# the least delta = 1 + dist(k0, interval) / half-width at which 4 and 8
# nodes meet rho^(-2m) <= 3^(-32), rho = delta + sqrt(delta^2 - 1) the
# Bernstein ellipse parameter: rho = 3^(16/m), delta = (rho + 1/rho) / 2
_MIN_DELTA_4, _MIN_DELTA_8 = ((r + 1.0 / r) / 2.0 for r in (81.0, 9.0))

# (point, state) pairs per table of a pair's q or div_x q, so that its
# node arrays stay near 2^18 entries
_TABLE_ROWS = 1024


def _state_tables(k0: float, k: Array):
    """Cumulative Gauss-Legendre tables toward k0 over rows of states ``k``
    (R, S), one breakpoint set per row for every smoothing index n.

    A row holds the states that share one integrand.  Its breakpoints are
    its distinct finite states, k0 and the offsets 4^j 2^-30 from k0 on
    each side of k0 where the row holds states, below the row's span:
    panels refined geometrically toward k0, where eta_n'' concentrates on
    the scale n^{-1/2}, at ratio 4 down to 2^-30, an eighth of that scale
    for every n <= 2^54.  The set does not depend on n, so a pair's table
    is the same alone as in a sweep.

    Each interval gets the fewest Gauss-Legendre nodes m of 4, 8 and 16
    with rho^(-2m) <= 3^(-32), or 16 where none does, where delta = 1 +
    dist(k0, interval) / half-width and rho = delta + sqrt(delta^2 - 1).
    The integrands' singularities nearest the real line sit at k0 +- i
    n^{-1/2}, outside the Bernstein ellipse of parameter rho through k0
    (Trefethen 2008), so every interval is held to the bound of 16 nodes
    on a ladder interval (rho = 3), whatever n: the ladder keeps 16, an
    interval 3.6 half-widths away from k0 takes 8 and one 39.5
    half-widths away takes 4.  Every m is a multiple of 4, so a row's
    nodes lie flat in four blocks, block i holding the i-th node of every
    quad (4 nodes of an interval) in interval order.  Rows are padded to
    a common length with nodes of zero weight at the end of each block, so
    every row's values are bitwise those of the row tabulated alone or
    with duplicate states added.

    Returns the nodes w (R, N), their offsets t from k0 before w = k0 + t
    is rounded (eta_n at a node is ``sqrt_entropy(0, n)`` at t, without the
    rounding of w - k0), and ``lookup(integrand)``, which takes an
    integrand at those nodes and yields int_{k0}^{u} of it at every state
    u (R, S): the weighted nodes added per quad, and the quads summed
    outward from k0, by one ``cumsum`` up from it and one down from it,
    read at each state's breakpoint, found through the sort permutation.
    Every state is a breakpoint, so the lookup is exact, and it carries
    the rounding of the integral from k0 alone; NaN where u is not finite.
    """
    R, S = k.shape
    fin = np.isfinite(k)
    kf = np.where(fin, k, k0)
    below = k0 - kf.min(axis=1, initial=k0)
    above = kf.max(axis=1, initial=k0) - k0
    nb = np.searchsorted(_PANEL_LADDER, below)
    na = np.searchsorted(_PANEL_LADDER, above)
    ladder = _PANEL_LADDER[:max(nb.max(initial=0), na.max(initial=0))]
    used = np.arange(ladder.size)
    # unused ladder slots hold k0, a breakpoint already
    cand = np.concatenate(
        [kf, np.full((R, 1), k0),
         np.where(used < nb[:, None], k0 - ladder, k0),
         np.where(used < na[:, None], k0 + ladder, k0)], axis=1)
    rows = np.arange(R)[:, None]
    order = np.argsort(cand, axis=1, kind="stable")
    srt = cand[rows, order]
    first = np.ones(srt.shape, dtype=bool)
    first[:, 1:] = srt[:, 1:] != srt[:, :-1]
    rank = np.cumsum(first, axis=1) - 1          # breakpoint of each entry
    distinct = rank[:, -1:] + 1
    bp = np.repeat(srt[:, -1:], distinct.max(initial=1), axis=1)
    bp[np.arange(bp.shape[1]) < distinct] = srt[first]
    pos = np.empty_like(rank)
    pos[rows, order] = rank
    # nodes placed by their offset from k0, so w - k0 is rounded once
    off = bp - k0
    mid = 0.5 * (off[:, 1:] + off[:, :-1])
    half = 0.5 * (off[:, 1:] - off[:, :-1])
    # k0 is a breakpoint, so every interval lies on one side of it
    dist = np.minimum(np.abs(off[:, 1:]), np.abs(off[:, :-1]))
    wide = half > 0.0
    delta = 1.0 + np.divide(dist, half, out=np.zeros_like(half), where=wide)
    slot = np.where(wide, (delta < _MIN_DELTA_4).astype(int)
                    + (delta < _MIN_DELTA_8), len(_ORDERS))
    quads = _RULE_QUADS[slot]
    # each breakpoint's quad number in its row: quads before it
    start = np.zeros(bp.shape, dtype=int)
    np.cumsum(quads, axis=1, out=start[:, 1:])
    total = start[:, -1]
    width = total.max(initial=0)
    # per quad, in row-major order: its interval's mid and half, and its
    # rule's quad
    each = quads.ravel()
    rule = np.arange(each.sum()) + np.repeat(
        _RULE_FIRST[slot].ravel() - (np.cumsum(each) - each), each)
    m, h = np.repeat(mid.ravel(), each), np.repeat(half.ravel(), each)
    # a row holds four blocks of its quads in interval order, the i-th
    # node of each quad in block i; the padding at each block's end sits
    # at the row's largest offset, with weight 0
    filled = np.arange(width) < total[:, None]
    t = np.repeat(off[:, -1:], 4 * width, axis=1)
    weight = np.zeros(t.shape)
    for i in range(4):
        block = np.s_[:, i * width:(i + 1) * width]
        t[block][filled] = m + h * _RULE_NODES[i].take(rule)
        weight[block][filled] = h * _RULE_WEIGHTS[i].take(rule)
    # table column width + 1 holds NaN, read by the states not finite
    at = np.where(fin, start[rows, pos[:, :S]], width + 1)
    at += (width + 2) * rows
    zero = start[rows, pos[:, S:S + 1]]
    up = np.arange(width) >= zero
    z0, z1 = zero.min(initial=0), zero.max(initial=0)

    def lookup(integrand):
        v = (weight * integrand).reshape(R, 4, width)
        sums = v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]
        table = np.zeros((R, width + 2))
        table[:, -1] = np.nan
        # outward from k0: up from it over the columns where some row has
        # quads above k0, and down from it where some row has quads below
        np.cumsum(np.where(up[:, z0:], sums[:, z0:], 0.0), axis=1,
                  out=table[:, z0 + 1:-1])
        table[:, :z1] -= np.cumsum(np.where(up[:, :z1], 0.0, sums[:, :z1])
                                   [:, ::-1], axis=1)[:, ::-1]
        return table.take(at)

    return k0 + t, t, lookup


def make_smooth_pair(flux: FluxSpec, k0: float, n: int) -> EntropyPair:
    """Entropy pair for eta_n = sqrt((k-k0)^2 + 1/n).

    The flux q is the state integral of eta_n' d_k f; the divergence uses
    the integration-by-parts form
        div_x q(x,k) = -int eta_n'' div_x f dw + eta_n'(k) div_x f(x,k),
    which is exact because eta_n'(k0) = 0.  Both integrals are read from
    ``_state_tables``, one row per (point, state) pair, since the
    integrand depends on x: d_k f and div_x f are evaluated at its point
    on its row's nodes, and eta_n' and eta_n'' at the nodes' offsets from
    k0 before rounding.  The pair calls only ``flux.dk`` and
    ``flux.div_x``, never the factors; the weak entropy sweep calls no
    pair (``sweep_terms``).
    """
    ent = sqrt_entropy(k0, n)
    at_offset = sqrt_entropy(0.0, n)

    def integrals(pts, kk, integrand):
        # one row per (point, state) pair, _TABLE_ROWS rows per table;
        # integrand(P (B, 1, d), w, t) is (B, N, c), the result (..., c)
        shape = np.broadcast_shapes(pts.shape[:-1], kk.shape)
        P = np.broadcast_to(pts, shape + (flux.dim,)).reshape(
            -1, 1, flux.dim)
        K = np.broadcast_to(kk, shape).reshape(-1, 1)
        blocks = []
        for r in range(0, max(len(K), 1), _TABLE_ROWS):
            w, t, lookup = _state_tables(k0, K[r:r + _TABLE_ROWS])
            vals = integrand(P[r:r + _TABLE_ROWS], w, t)
            blocks.append(np.concatenate(
                [lookup(vals[..., i]) for i in range(vals.shape[-1])],
                axis=1))
        return np.concatenate(blocks).reshape(shape + vals.shape[-1:])

    def q(x, k):
        return integrals(
            as_points(x, flux.dim), np.asarray(k, dtype=float),
            lambda P, w, t: (at_offset.eta_prime(t)[..., None]
                             * flux.dk(P, w)))

    def div_x_q(x, k):
        pts, kk = as_points(x, flux.dim), np.asarray(k, dtype=float)
        integ = integrals(pts, kk, lambda P, w, t: (
            at_offset.eta_pp(t) * flux.div_x(P, w))[..., None])
        return -integ[..., 0] + ent.eta_prime(kk) * flux.div_x(pts, kk)

    return EntropyPair(ent.eta, ent.eta_prime, float(k0), q, div_x_q,
                       kind="smooth", n=int(n), flux=flux)


def _call_once(fn, arrays) -> list:
    """The elementwise ``fn`` on every array of ``arrays`` in one call,
    split back into their shapes."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    out = fn(np.concatenate([a.ravel() for a in arrays]))
    ends = np.cumsum([a.size for a in arrays])
    return [out[e - a.size:e].reshape(a.shape) for a, e in zip(arrays, ends)]


def sweep_terms(flux: FluxSpec, pairs):
    """The term generator of the weak entropy sweep of ``flux`` over
    ``pairs`` (see ``verifier._weak_sums``): one (eta, q, source) per pair,
    source = div_x q - eta'(u) div_x f.  Raises ValueError for a pair built
    for another flux object.

    This is the one place where entropy evaluation reads the ``factors``
    f_i = g_i(x) h(k); of each pair it reads only the kind, k0 and n.
    Per chunk it takes g(P), (g'_1 + ... + g'_d)(P) and h once, h on the
    states, the Kruzkov k0 and the table nodes in one call (h' on the
    nodes likewise), so no ``FluxSpec`` or ``EntropyPair`` callable is
    called.  A Kruzkov pair is closed-form, with the h(u) terms of its
    source cancelled exactly:
        eta = |u - k0|,  q = sign(u - k0) (h(u) - h(k0)) g(x),
        source = -sign(u - k0) h(k0) (g'_1 + ... + g'_d)(x).
    The smooth pairs of one k0 share one ``_state_tables`` call, one row
    of breakpoints per level of the chunk, node evaluation and lookup;
    per n, q = A(u) g(x) with
    A(u) = int_{k0}^{u} eta_n' h' dw, and
    source = -(g'_1 + ... + g'_d)(x) int_{k0}^{u} eta_n'' h dw,
    with eta_n' and eta_n'' taken at the nodes' offsets t from k0, as the
    pairs take them.
    """
    pairs = list(pairs)
    for pair in pairs:
        if pair.flux is not flux:
            built_for = "no flux" if pair.flux is None else pair.flux.name
            raise ValueError(
                f"entropy pair {pair.label} was built for another flux "
                f"({built_for}) than the swept one ({flux.name})")
    factors = flux.factors
    kruzkov = [p.k0 for p in pairs if p.kind == "kruzkov"]
    # eta_n at offsets from k0: at the tables' offsets t, and at U - k0
    at_offset = {p.n: sqrt_entropy(0.0, p.n)
                 for p in pairs if p.kind == "smooth"}
    smooth_k0 = list(dict.fromkeys(p.k0 for p in pairs
                                   if p.kind == "smooth"))

    def terms(P, U):
        g, g_sum = factors.g(P), factors.g_prime_sum(P)
        # one table row per level, so no value depends on how the
        # quadrature groups the levels into chunks
        tabs = [_state_tables(k0, U.reshape(len(U), -1))
                for k0 in smooth_k0]
        nodes = [w for w, _, _ in tabs]
        hU, hk, *hw = _call_once(factors.h, [U, kruzkov, *nodes])
        hpw = _call_once(factors.h_prime, nodes) if nodes else []
        tables = dict(zip(smooth_k0, zip(tabs, hw, hpw)))
        h_k0 = iter(hk)
        for pair in pairs:
            if pair.kind == "kruzkov":
                hk0 = next(h_k0)
                s = np.sign(U - pair.k0)
                yield (np.abs(U - pair.k0), (s * (hU - hk0))[..., None] * g,
                       -(s * hk0) * g_sum)
            else:
                ent = at_offset[pair.n]
                (_, t, lookup), h_w, hp_w = tables[pair.k0]
                A = lookup(ent.eta_prime(t) * hp_w).reshape(U.shape)
                integ = lookup(ent.eta_pp(t) * h_w).reshape(U.shape)
                yield ent.eta(U - pair.k0), A[..., None] * g, -g_sum * integ

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
