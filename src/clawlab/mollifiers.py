"""Standard mollifier kernels, cone cutoffs, and contraction test functions.

The d-dimensional kernel is

    rho_eps(x) = eps^{-d} rho(x / eps),
    rho(x) = C_d exp(1 / (|x|^2 - 1))   for |x| < 1,  0 otherwise,

with C_d fixed by unit mass, one polar integral for every d
(``mollifier_constant``).  From the 1-d kernel omega_h we build its
cumulative integral alpha_h, the cone cutoff

    chi_eps(x, t) = 1 - alpha_eps(|x| - (R - t N) + eps),

and the contraction test function

    psi(x, t) = (alpha_h(t - rho) - alpha_h(t - tau)) chi_eps(x, t),

whose time derivative and spatial gradient are closed-form in omega.

alpha_h sits inside triple integrals, so it is served from a table of
A(u) = alpha_1(u) at 10,001 evenly spaced nodes of [-1, 1], built once per
process.  The table integrates omega_1 over each node interval of [0, 1]
with four 16-node Gauss-Legendre panels, adds the intervals up with one
cumsum, scales the half to carry exactly 1/2 and mirrors it, so
A(-1) = 0, A(0) = 1/2 and A(1) = 1 hold exactly.  Between the nodes it is
a cubic Hermite whose node slopes are the kernel itself, A' = omega_1,
capped at three times either neighbouring chord so that each cell stays
monotone (Fritsch and Carlson 1980): Hermite coefficients stored once, the
cell found by searchsorted, then Horner.  numpy is the only dependency.
Direct quadrature (``kernel_cdf_quadrature``) remains the oracle the table
is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BadWindow
from .flux import as_points
from .quadrature import GAUSS_NODES, GAUSS_WEIGHTS, adaptive_gauss_legendre

Array = np.ndarray


def _unit_profile(r2: Array) -> Array:
    """exp(1/(r^2 - 1)) on r^2 < 1, zero outside, without overflow noise."""
    r2 = np.asarray(r2, dtype=float)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return out


@lru_cache(maxsize=None)
def mollifier_constant(dim: int) -> float:
    """Normalization C_d with unit total mass, computed once per dimension
    in polar form: 1/C_d = |S^{d-1}| int_0^1 r^{d-1} exp(1/(r^2 - 1)) dr,
    with the sphere's area |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2)."""
    sphere = 2.0 * math.pi ** (dim / 2) / math.gamma(dim / 2)
    mass = sphere * adaptive_gauss_legendre(
        lambda r: r ** (dim - 1) * _unit_profile(r * r), 0.0, 1.0, tol=1e-14)
    return 1.0 / float(mass)


@dataclass(frozen=True)
class Mollifier:
    """Scaled standard kernel rho_eps in ``dim`` dimensions."""

    dim: int
    epsilon: float

    @property
    def normalization(self) -> float:
        return mollifier_constant(self.dim)

    def value(self, x) -> Array:
        pts = as_points(x, self.dim)
        r2 = (pts / self.epsilon) ** 2
        r2 = r2.sum(axis=-1)
        return self.normalization * _unit_profile(r2) / self.epsilon ** self.dim

    def grad(self, x) -> Array:
        """grad rho_eps(x) = -2 C z exp(1/(|z|^2-1)) / (|z|^2-1)^2 / eps^{d+1},
        z = x / eps; zero outside the support ball."""
        pts = as_points(x, self.dim)
        z = pts / self.epsilon
        r2 = (z ** 2).sum(axis=-1)
        prof = _unit_profile(r2)
        denom = np.where(r2 < 1.0, (r2 - 1.0) ** 2, 1.0)
        scale = -2.0 * self.normalization * prof / denom / self.epsilon ** (self.dim + 1)
        return scale[..., None] * z


def omega_value(h: float, sigma) -> Array:
    """1-d kernel omega_h evaluated on plain scalars/arrays."""
    s = np.asarray(sigma, dtype=float)
    z = s / h
    return mollifier_constant(1) * _unit_profile(z * z) / h


def omega_peak(h: float) -> float:
    return mollifier_constant(1) * math.exp(-1.0) / h


_CDF_TABLE_SIZE = 10_001
_CDF_PANELS = 4


class _Pchip:
    """Monotone cubic Hermite interpolant of non-decreasing (x, y) on
    [x_0, x_{n-1}] with the node slopes ``slope``, each capped at three
    times either neighbouring chord (the chords beyond the ends read 0).

    The cap keeps every cell inside Fritsch and Carlson's (1980) region
    alpha, beta <= 3, so each cubic is monotone, and it makes the slope 0
    on a flat run.  ``coef`` holds the Hermite coefficients, shape (4, n):
    on [x_i, x_{i+1}] the interpolant is sum_j coef[j, i] (s - x_i)^(3 - j),
    so coef[2] is the capped node slope.  The last column is the constant
    y_{n-1}, so s = x_{n-1} returns y_{n-1} exactly and NaN, which
    searchsorted places past the last node, maps to NaN.
    """

    def __init__(self, x: Array, y: Array, slope: Array):
        self.nodes = x
        h = np.diff(x)
        m = np.diff(y) / h
        cap = 3.0 * np.concatenate([[0.0], m, [0.0]])
        d = np.minimum(slope, np.minimum(cap[:-1], cap[1:]))
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.coef = np.zeros((4, len(x)))
        self.coef[:, :-1] = [t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]]
        self.coef[3, -1] = y[-1]

    def __call__(self, s: Array) -> Array:
        i = np.searchsorted(self.nodes, s, "right") - 1
        d = s - self.nodes[i]
        c = self.coef[:, i]
        return ((c[0] * d + c[1]) * d + c[2]) * d + c[3]


@lru_cache(maxsize=1)
def _unit_cdf_table() -> _Pchip:
    """Monotone interpolant of A(u) = int_{-1}^{u} omega_1, built so that
    A(-1) = 0, A(0) = 1/2 and A(1) = 1 hold exactly.

    The node slopes are A' = omega_1 at the nodes.  The cap in ``_Pchip``
    binds only in the flat tails |u| > 0.98, at 163 nodes: there the values
    step by exactly 0 or one ulp of 1/2, and omega_1 is still 6e-272 to
    6e-13 at a node next to a step of 0, whose capped slope is 0.

    Each of the 5,000 table intervals of [0, 1] is integrated by
    ``_CDF_PANELS`` Gauss-Legendre panels of 16 nodes, one (panel, node)
    at a time over all intervals, and one cumsum adds them up.  The loop
    keeps the build's temporaries small only for perfbench: its reference
    kernel runs about twice as fast once a process has freed a block above
    glibc's 128 KiB mmap threshold, which skews reference seconds (the
    measurement is in CHANGES.md).
    """
    m = (_CDF_TABLE_SIZE - 1) // 2
    us = np.linspace(0.0, 1.0, m + 1)
    half = 0.5 * np.diff(us) / _CDF_PANELS
    c1 = mollifier_constant(1)
    segs = np.zeros(m)
    for p in range(_CDF_PANELS):
        mid = us[:-1] + (2 * p + 1) * half
        for node, weight in zip(GAUSS_NODES, GAUSS_WEIGHTS):
            s = mid + half * node
            segs += weight * (c1 * _unit_profile(s * s))
    halves = np.concatenate([[0.0], np.cumsum(half * segs)])
    halves /= 2.0 * halves[-1]          # right half carries exactly half the mass
    grid = np.concatenate([-us[::-1], us[1:]])
    vals = np.concatenate([0.5 - halves[::-1], 0.5 + halves[1:]])
    return _Pchip(grid, vals, c1 * _unit_profile(grid * grid))


def kernel_cdf(h: float, sigma) -> Array:
    """alpha_h(sigma) = int_{-infty}^{sigma} omega_h: 0 below -h, 1 above h,
    monotone in between."""
    s = np.atleast_1d(np.asarray(sigma, dtype=float) / float(h))
    out = np.clip(s, 0.0, 1.0)          # the values off (-h, h); NaN stays NaN
    mid = np.abs(s) < 1.0
    out[mid] = _unit_cdf_table()(s[mid])
    return out if np.ndim(sigma) else float(out[0])


def kernel_cdf_quadrature(h: float, sigma: float) -> float:
    """Direct-quadrature fallback for alpha_h; the oracle for kernel_cdf."""
    s = float(sigma) / float(h)
    if s <= -1.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    c1 = mollifier_constant(1)
    return float(adaptive_gauss_legendre(
        lambda t: c1 * _unit_profile(t * t), -1.0, s, tol=1e-13))


@dataclass(frozen=True)
class ConeSpec:
    """Truncated space-time cone in R^dim with base ball B_R and slope N.

    ``ball_radius(t) = R - t N``; the vertex time is R/N, infinite for
    speed-zero fluxes, in which case ``horizon`` caps it (cylinders replace
    cones).
    """

    R: float
    N: float
    dim: int = 1
    horizon: float | None = None

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("cone base radius must be positive")
        if self.N < 0:
            raise ValueError("cone slope must be non-negative")

    def ball_radius(self, t) -> Array:
        return self.R - np.asarray(t, dtype=float) * self.N

    @property
    def t_max(self) -> float:
        vertex = self.R / self.N if self.N > 0 else math.inf
        if self.horizon is not None:
            vertex = min(vertex, self.horizon)
        return vertex


def chi_epsilon(cone: ConeSpec, eps: float, x, t) -> Array:
    """Smoothed indicator of the cone: values in [0, 1], identically zero
    outside, converging pointwise to the indicator as eps -> 0."""
    pts = as_points(x, cone.dim)
    r = np.sqrt((pts ** 2).sum(axis=-1))
    arg = r - cone.ball_radius(t) + eps
    return 1.0 - kernel_cdf(eps, arg)


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported Lipschitz phi(x, t) with evaluable derivatives.

    ``support_box`` is ((lo_1..lo_d), (hi_1..hi_d), t_lo, t_hi); the value
    vanishes on and outside its boundary.  ``lip`` is an a-priori Lipschitz
    bound used by tolerance models.

    ``value(x, t)`` takes points x of shape (cells..., d) and either a
    scalar time or an array of times shaped (L, 1, ...) with one unit axis
    per spatial axis, which it broadcasts against the points to
    (L, cells...); each slice must equal, bit for bit, the value at that
    scalar time.  The verifier evaluates a whole chunk of levels this way.
    """

    dim: int
    value: Callable
    dt: Callable
    grad_x: Callable
    support_box: tuple
    lip: float


def contraction_test_function(cone: ConeSpec, rho: float, tau: float,
                              h: float, eps: float) -> TestFunction:
    """The test function of the shrinking-ball contraction argument.

    psi(x,t) = (alpha_h(t-rho) - alpha_h(t-tau)) chi_eps(x,t), supported in
    closure(B_R) x [rho - h, t_max].  dt and grad_x are the closed forms; the
    gradient at x = 0 is defined as 0 (a null point of a Lipschitz function).
    """
    t_max = cone.t_max
    if not (0.0 < rho < tau < t_max):
        raise BadWindow(f"need 0 < rho < tau < t_max, got {rho}, {tau}, {t_max}")
    if not h > 0:                           # refuses NaN too
        raise BadWindow(f"h must be positive, got {h}")
    if h >= min(rho, t_max - tau):
        raise BadWindow(f"h = {h} too wide for window ({rho}, {tau}) in (0, {t_max})")
    if not eps > 0:
        raise BadWindow(f"eps must be positive, got {eps}")
    R, N, dim = cone.R, cone.N, cone.dim

    lags = np.array([rho, tau])

    def window(t):
        # alpha_h(t - rho) - alpha_h(t - tau) from one kernel_cdf call
        tt = np.asarray(t, dtype=float)
        a = kernel_cdf(h, tt - lags.reshape((2,) + (1,) * tt.ndim))
        return a[0] - a[1]

    def value(x, t):
        return window(t) * chi_epsilon(cone, eps, x, t)

    def dt(x, t):
        tt = np.asarray(t, dtype=float)
        pts = as_points(x, dim)
        r = np.sqrt((pts ** 2).sum(axis=-1))
        arg = r - (R - tt * N) + eps
        ring = omega_value(eps, arg)
        return ((omega_value(h, tt - rho) - omega_value(h, tt - tau))
                * chi_epsilon(cone, eps, x, t)
                - window(t) * ring * N)

    def grad_x(x, t):
        tt = np.asarray(t, dtype=float)
        pts = as_points(x, dim)
        r = np.sqrt((pts ** 2).sum(axis=-1))
        arg = r - (R - tt * N) + eps
        ring = omega_value(eps, arg)
        unit = np.where(r[..., None] > 0.0,
                        pts / np.where(r == 0.0, 1.0, r)[..., None], 0.0)
        return (-window(t) * ring)[..., None] * unit

    # closed-form bounds: |dt psi| <= 2 sup omega_h + 2 N sup omega_eps,
    # |grad psi| <= 2 sup omega_eps
    lip = max(2.0 * omega_peak(h) + 2.0 * N * omega_peak(eps),
              2.0 * omega_peak(eps))
    # the window factor vanishes identically beyond tau + h
    box = (np.full(dim, -R), np.full(dim, R), rho - h, min(tau + h, t_max))
    return TestFunction(dim, value, dt, grad_x, box, lip)


def bump_test_function(center, radius: float, t_lo: float, t_hi: float,
                       dim: int = 1) -> TestFunction:
    """Separable cos^2 bump: X(|x-c|/radius) * sin^2(pi (t-t_lo)/(t_hi-t_lo)).

    Smooth, non-negative, compactly supported in the ball times the window;
    derivatives are closed-form.  Generic admissible test function for weak
    entropy residuals.
    """
    c = np.asarray(center, dtype=float).reshape(dim)
    T = float(t_hi - t_lo)
    if not (T > 0 and radius > 0                   # refuses NaN too
            and np.all(np.isfinite(c))):
        raise BadWindow(f"bump needs t_hi > t_lo, radius > 0 and a finite "
                        f"center, got window [{t_lo}, {t_hi}], radius "
                        f"{radius} and center {c}")

    def tprof(t):
        tt = (np.asarray(t, dtype=float) - t_lo) / T
        inside = (tt > 0.0) & (tt < 1.0)
        return np.where(inside, np.sin(np.pi * tt) ** 2, 0.0)

    def tprof_dt(t):
        tt = (np.asarray(t, dtype=float) - t_lo) / T
        inside = (tt > 0.0) & (tt < 1.0)
        return np.where(inside, np.pi * np.sin(2.0 * np.pi * tt) / T, 0.0)

    def xprof(x):
        pts = as_points(x, dim)
        s = np.sqrt(((pts - c) ** 2).sum(axis=-1)) / radius
        return np.where(s < 1.0, np.cos(0.5 * np.pi * s) ** 2, 0.0)

    def value(x, t):
        return tprof(t) * xprof(x)

    def dt(x, t):
        return tprof_dt(t) * xprof(x)

    def grad_x(x, t):
        pts = as_points(x, dim)
        diff = pts - c
        r = np.sqrt((diff ** 2).sum(axis=-1))
        s = r / radius
        mag = np.where(s < 1.0, -0.5 * np.pi * np.sin(np.pi * s) / radius, 0.0)
        unit = np.where(r[..., None] > 0.0, diff / np.where(r == 0.0, 1.0, r)[..., None], 0.0)
        return (tprof(t) * mag)[..., None] * unit

    lip = max(np.pi / T, 0.5 * np.pi / radius)
    box = (c - radius, c + radius, t_lo, t_hi)
    return TestFunction(dim, value, dt, grad_x, box, lip)

