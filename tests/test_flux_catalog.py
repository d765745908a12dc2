import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawlab import flux as flux_mod
from clawlab import LipschitzNonConvergent
from clawlab.errors import NonFiniteFlux, SingularPoint, UnknownFlux
from clawlab.flux import (FluxSpec, Separable, catalog_lookup, catalog_names,
                          lipschitz_constant, uniform_diffquot_deficit)
from test_reference_equivalence import _with_sampled_estimates

RNG_SEED = 20260809


def test_catalog_has_expected_entries():
    names = catalog_names()
    for required in ("burgers1d", "burgers2d", "xsquared1d", "product1d",
                     "advection1d", "kink1d", "product2d"):
        assert required in names


def test_unknown_name_raises():
    with pytest.raises(UnknownFlux):
        catalog_lookup("no_such_flux")
    with pytest.raises(UnknownFlux):
        catalog_lookup("burgers1d", {"bogus": 1.0})


def test_flux_without_factors_is_refused():
    # every flux is its separable factors: one given only through its
    # callables, or with factors that are not a Separable, is not built
    f = catalog_lookup("burgers1d")
    with pytest.raises(TypeError, match="factors"):
        FluxSpec(f.name, f.dim, f.eval, f.dk, f.div_x, f.grad_x_components)
    for factors in (None, (f.factors.g, f.factors.h)):
        with pytest.raises(TypeError, match="must be a Separable"):
            dataclasses.replace(f, factors=factors)


def test_burgers_values():
    f = catalog_lookup("burgers1d")
    assert np.allclose(f.eval(0.3, 2.0), 2.0)
    assert np.allclose(f.dk(0.3, 2.0), 2.0)
    assert np.allclose(f.div_x(0.3, 2.0), 0.0)


def test_xsquared_values():
    f = catalog_lookup("xsquared1d")
    xs = np.array([-1.0, 0.5, 2.0])
    assert np.allclose(f.eval(xs, 7.0)[..., 0], xs ** 2)
    assert np.allclose(f.dk(xs, 7.0), 0.0)
    assert np.allclose(f.div_x(xs, 7.0), 2.0 * xs)


def _central_dk(f, x, k, h):
    return (f.eval(x, k + h) - f.eval(x, k - h)) / (2.0 * h)


def _central_div(f, x, k, h):
    d = f.dim
    total = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        total = total + (f.eval(x + e, k)[..., i] - f.eval(x - e, k)[..., i]) / (2.0 * h)
    return total


@pytest.mark.parametrize("name", ["burgers1d", "xsquared1d", "product1d",
                                  "advection1d", "product2d"])
def test_dk_matches_central_difference(name):
    f = catalog_lookup(name, {"c": 3.0} if name == "advection1d" else {})
    rng = np.random.default_rng(RNG_SEED)
    pts = rng.uniform(-2, 2, size=(100, f.dim))
    ks = rng.uniform(-3, 3, size=100)
    for h in (1e-3, 1e-4):
        cd = np.stack([_central_dk(f, pts[i], ks[i], h) for i in range(100)])
        exact = np.stack([f.dk(pts[i], ks[i]) for i in range(100)])
        assert np.abs(cd - exact).max() <= 1.0 * h ** 2 + 1e-12


# kink1d: every sampled point lies more than 6e-3 from its kink at x = 0,
# beyond both steps h
@pytest.mark.parametrize("name", catalog_names())
def test_div_matches_central_difference(name):
    f = catalog_lookup(name)
    rng = np.random.default_rng(RNG_SEED + 1)
    pts = rng.uniform(-2, 2, size=(100, f.dim))
    ks = rng.uniform(-3, 3, size=100)
    for h in (1e-3, 1e-4):
        cd = np.stack([_central_div(f, pts[i], ks[i], h) for i in range(100)])
        exact = np.stack([f.div_x(pts[i], ks[i]) for i in range(100)])
        assert np.abs(cd.squeeze() - exact.squeeze()).max() <= 2.0 * h ** 2 + 1e-10


@pytest.mark.parametrize("name", catalog_names())
def test_grad_matches_central_difference(name):
    f = catalog_lookup(name, {"c": 3.0} if name == "advection1d" else {})
    rng = np.random.default_rng(RNG_SEED + 2)
    pts = rng.uniform(-2, 2, size=(100, f.dim))
    ks = rng.uniform(-3, 3, size=100)
    # kink1d: central differences only away from its kink at x = 0
    keep = np.abs(pts).min(axis=-1) > 0.01
    pts, ks = pts[keep], ks[keep]
    for h in (1e-3, 1e-4):
        for i in range(f.dim):
            cd = np.stack([(f.eval(pts + e, ks)[..., i] - f.eval(pts - e, ks)[..., i])
                           / (2.0 * h) for e in h * np.eye(f.dim)], axis=-1)
            exact = f.grad_x_components(pts, ks, i)
            assert exact.shape == cd.shape
            assert np.abs(cd - exact).max() <= 2.0 * h ** 2 + 1e-10


def test_product1d_derivatives_at_random_points():
    f = catalog_lookup("product1d")
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        x, k = rng.uniform(-2, 2), rng.uniform(-3, 3)
        h = 1e-5
        cd_dk = float(_central_dk(f, np.array([x]), k, h)[..., 0])
        cd_dv = float(_central_div(f, np.array([x]), k, h))
        assert abs(cd_dk - float(f.dk(np.array([x]), k)[..., 0])) < 1e-6 * max(1, abs(cd_dk))
        assert abs(cd_dv - float(f.div_x(np.array([x]), k))) < 1e-6 * max(1, abs(cd_dv))


# V(k) = int_0^k |h'(w)| dw, the variation of h.  Its kinks, where |h'|
# has one: k = 0 for burgers (|k|), pi/2 + j pi for product (|cos k|).
_V_KINKS = np.concatenate([[0.0], 0.5 * np.pi + np.pi * np.arange(-8, 8)])


@pytest.mark.parametrize("name", catalog_names())
def test_variation_vanishes_at_zero(name):
    V = catalog_lookup(name).factors.V
    assert np.all(V(np.array([0.0, -0.0])) == 0.0)


@pytest.mark.parametrize("name", catalog_names())
def test_variation_is_non_decreasing(name):
    # a dense lattice, and one through each kink
    ks = np.concatenate([np.linspace(-20.0, 20.0, 40001),
                         (_V_KINKS[:, None] + np.linspace(-1e-9, 1e-9, 101))
                         .ravel()])
    ks.sort()
    assert np.all(np.diff(catalog_lookup(name).factors.V(ks)) >= 0.0)


@pytest.mark.parametrize("name", catalog_names())
@settings(max_examples=200, deadline=None)
@given(a=st.floats(-20.0, 20.0), b=st.floats(-20.0, 20.0))
def test_variation_orders_random_pairs(name, a, b):
    V = catalog_lookup(name).factors.V
    lo, hi = sorted((a, b))
    assert V(np.float64(lo)) <= V(np.float64(hi))


@pytest.mark.parametrize("name", catalog_names())
def test_variation_slope_is_abs_h_prime(name):
    factors = catalog_lookup(name).factors
    ks = np.random.default_rng(RNG_SEED + 3).uniform(-10.0, 10.0, 2000)
    ks = ks[np.abs(ks[:, None] - _V_KINKS).min(axis=1) > 1e-3]
    h = 1e-5
    slope = (factors.V(ks + h) - factors.V(ks - h)) / (2.0 * h)
    # O(h^2) truncation and eps |V| / h rounding, |V| <= 50 here
    assert np.abs(slope - np.abs(factors.h_prime(ks))).max() <= 1e-8


class TestLipschitzConstant:
    def test_burgers_examples(self):
        f = catalog_lookup("burgers1d")
        assert lipschitz_constant(f, 1.0, 2.0) == pytest.approx(2.0, abs=1e-12)
        assert lipschitz_constant(f, 1.0, 1.0) == 1.0

    def test_k_independent_flux(self):
        f = catalog_lookup("xsquared1d")
        assert lipschitz_constant(f, 5.0, 1.0) == 0.0

    def test_linear_advection(self):
        f = catalog_lookup("advection1d", {"c": 3.0})
        assert lipschitz_constant(f, 1.0, 1.0) == pytest.approx(3.0, abs=1e-10)
        assert lipschitz_constant(f, 7.0, 1.0) == pytest.approx(3.0, abs=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.1, 1.0),
           st.floats(0.1, 1.0))
    def test_monotone_in_R_and_M(self, r, dr, m, dm):
        f = catalog_lookup("product1d")
        base = lipschitz_constant(f, r, m, base_grid=101)
        assert lipschitz_constant(f, r + dr, m, base_grid=101) >= base - 1e-12
        assert lipschitz_constant(f, r, m + dm, base_grid=101) >= base - 1e-12

    def test_two_dimensional_values(self):
        fb2 = catalog_lookup("burgers2d")
        # vector flux (k^2/2, k^2/2): quotient sup is sqrt(2) M at the
        # endpoint states
        assert lipschitz_constant(fb2, 1.0, 1.0) == pytest.approx(
            np.sqrt(2.0), abs=1e-12)
        fp2 = catalog_lookup("product2d")
        n1 = lipschitz_constant(fp2, 1.0, 1.0)
        n2 = lipschitz_constant(fp2, 2.0, 1.0)
        assert n2 >= n1 > 0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_radius_whose_square_overflows(self, dim):
        # the ball lattice keeps its points where |x|^2 overflows: far from
        # the origin every g_i of the product flux is pi/2 + 1
        f = catalog_lookup(f"product{dim}d")
        with np.errstate(over="ignore"):
            lip = lipschitz_constant(f, 1e200, 1.0)
        assert lip == pytest.approx((0.5 * np.pi + 1.0) * np.sqrt(dim),
                                    rel=1e-12)

    def test_nonfinite_flux_raises(self):
        # Burgers with h NaN everywhere and its finite h' = k
        spec = flux_mod._separable("bad", 1, dataclasses.replace(
            catalog_lookup("burgers1d").factors,
            h=lambda k: np.full(np.shape(k), np.nan)))
        with pytest.raises(NonFiniteFlux):
            lipschitz_constant(spec, 1.0, 1.0)


# Separable fluxes built from random factors.  g acts per component with
# its own coefficients; h and h' act on states.
G_FAMILIES = {
    "arctan": lambda a, b, c: (lambda x: a * np.arctan(b * x * x) + c),
    "abs": lambda a, b, c: (lambda x: np.abs(x) + c),
    "const": lambda a, b, c: (lambda x: np.zeros_like(x) + c),
}
H_FAMILIES = {
    "sin": (np.sin, np.cos),
    "half_square": (lambda k: 0.5 * k * k, lambda k: k),
    "abs": (np.abs, np.sign),
    "tanh": (np.tanh, lambda k: 1.0 - np.tanh(k) ** 2),
    "cube": (lambda k: k ** 3, lambda k: 3.0 * k * k),
}


def _separable_flux(dim, g, h, h_prime):
    # g' = 0 and V = 0: these fluxes exercise the Lipschitz sampling, which
    # reads neither
    return flux_mod._separable("random", dim,
                               Separable(g, np.zeros_like, h, h_prime,
                                         np.zeros_like))


def _sampling_rounding(f, R, M, n, N):
    """The rounding of the full sampling at grid n around the exact
    product N: 4 sqrt(d) eps G max|h| / min dk + 8 eps N, and the underflow
    of its squares, 2^-500 / min dk."""
    n_x = n if f.dim == 1 else max(33, int(np.sqrt(n)) | 1)
    g = f.factors.g(flux_mod._ball_lattice(R, f.dim, n_x))
    ks = np.linspace(-M, M, n)
    eps = np.finfo(float).eps
    G = np.abs(np.hypot.reduce(g, axis=-1)).max()
    return ((4.0 * np.sqrt(f.dim) * eps * G * np.abs(f.factors.h(ks)).max()
             + 2.0 ** -500) / np.diff(ks).min() + 8.0 * eps * N)


def _assert_within_rounding(f, R, M, n):
    closed = flux_mod._lipschitz_estimate(f, R, M, n)
    sampled = _with_sampled_estimates(flux_mod._lipschitz_estimate, f, R, M, n)
    assert abs(closed - sampled) <= _sampling_rounding(f, R, M, n, closed)


coefficients = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)


class TestFactoredLipschitz:
    """The estimate from the factors, max|g| times the slope of h, against
    the full sampling of eval/dk."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]), g_family=st.sampled_from(sorted(G_FAMILIES)),
           h_family=st.sampled_from(sorted(H_FAMILIES)), a=coefficients,
           b=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2),
           c=coefficients, R=st.floats(0.1, 8.0), M=st.floats(0.05, 3.0))
    def test_within_rounding_of_sampled_path(self, dim, g_family, h_family,
                                             a, b, c, R, M):
        g = G_FAMILIES[g_family](*(np.array(v[:dim]) for v in (a, b, c)))
        f = _separable_flux(dim, g, *H_FAMILIES[h_family])
        # coarse grids keep the full sampling of 2-d fluxes small
        for n in (33, 65):
            _assert_within_rounding(f, R, M, n)
        lipschitz_constant(f, R, M, base_grid=33)

    @pytest.mark.parametrize("g,h,h_prime", [
        (lambda x: 1.0 + 2.0 ** -50 * x, np.sin, np.cos),
        (lambda x: np.arctan(x * x) + 1.0, lambda k: 1.0 + 2.0 ** -45 * k,
         lambda k: np.full(k.shape, 2.0 ** -45)),
    ], ids=["g_nearly_constant", "h_nearly_constant"])
    def test_within_rounding_when_a_factor_is_nearly_constant(
            self, g, h, h_prime):
        # rows g(x) equal up to 2^-50, or chord slopes of h below the
        # rounding of g h(k') - g h(k) that the sampling reads
        f = _separable_flux(1, g, h, h_prime)
        for n in (201, 401):
            _assert_within_rounding(f, 1.0, 1.0, n)
        lipschitz_constant(f, 1.0, 1.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_squares_of_large_factors_do_not_overflow(self, scale):
        # g = scale and h = k / scale: f = k, but g^2 or (Delta h)^2
        # overflows unless taken at a power-of-two scale
        f = _separable_flux(1, lambda x: np.full(x.shape, scale),
                            lambda k: k / scale,
                            lambda k: np.full(k.shape, 1.0 / scale))
        _assert_within_rounding(f, 1.0, 1.0, 201)
        assert lipschitz_constant(f, 1.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_needs_no_fallback(self, name):
        # on the catalog the sampling reads the exact product too: its
        # |d_k f| sample where h' = 1 (or h' = 0) attains the maximum
        f = catalog_lookup(name)
        grid = [(R, M) for R in (0.5, 2.0, 8.0) for M in (0.3, 1.0959, 2.5)]
        fast = [lipschitz_constant(f, R, M) for R, M in grid]
        assert fast == [_with_sampled_estimates(lipschitz_constant, f, R, M)
                        for R, M in grid]

    @pytest.mark.parametrize("c", [-2.5, -1.5, 0.3, 1.7, 3.0])
    def test_advection_reads_its_speed_exactly(self, c):
        f = catalog_lookup("advection1d", {"c": c})
        for R, M in [(1.0, 1.0), (7.0, 0.3), (0.5, 2.5)]:
            assert lipschitz_constant(f, R, M) == abs(c)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("h,h_prime", [(np.abs, np.sign),
                                           (lambda k: k, np.ones_like)],
                             ids=["abs", "identity"])
    def test_abs_x_reads_the_radius_exactly(self, dim, h, h_prime):
        # g_i = |x_i| reaches R at the axis endpoints of the ball lattice
        f = _separable_flux(dim, np.abs, h, h_prime)
        for R in (0.5, 1.0, 3.7, 8.0):
            assert lipschitz_constant(f, R, 1.0) == R

    @pytest.mark.parametrize("g,h,h_prime,M", [
        (lambda x: np.where(x == 0.0, np.nan, 1.0 + x), np.sin, np.cos, 1.0),
        (lambda x: np.arctan(x * x) + 1.0, np.exp, np.exp, 800.0),
        (lambda x: np.zeros_like(x) + 1e200, lambda k: 1e200 * k,
         lambda k: np.full(k.shape, 1e200), 1.0),
        (lambda x: np.arctan(x * x) + 1.0, lambda k: np.sqrt(np.abs(k)),
         lambda k: 0.5 * np.sign(k) / np.sqrt(np.abs(k)), 1.0),
    ], ids=["g_nan_on_lattice", "h_overflows", "product_overflows",
            "h_prime_infinite_at_0"])
    def test_nonfinite_still_raises(self, g, h, h_prime, M):
        f = _separable_flux(1, g, h, h_prime)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteFlux):
                lipschitz_constant(f, 1.0, M)
            with pytest.raises(NonFiniteFlux):
                _with_sampled_estimates(lipschitz_constant, f, 1.0, M)

    @pytest.mark.parametrize("R,M", [(np.inf, 1.0), (np.nan, 1.0),
                                     (-np.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                     (1.0, np.inf), (1.0, np.nan), (1.0, -1.0)])
    def test_radius_and_bound_must_be_finite(self, R, M):
        with pytest.raises(ValueError):
            lipschitz_constant(catalog_lookup("product2d"), R, M)

    def test_non_lipschitz_flux_raises(self):
        # h = floor(4k)/4 jumps by 1/4 at every quarter, so the sampled sup
        # doubles with the grid instead of settling
        f = _separable_flux(1, np.ones_like, lambda k: np.floor(4.0 * k) / 4.0,
                            np.zeros_like)
        for base_grid in (26, 201):
            with pytest.raises(LipschitzNonConvergent, match="more than 1%"):
                lipschitz_constant(f, 1.0, 1.0, base_grid=base_grid)
        with pytest.raises(LipschitzNonConvergent):
            _with_sampled_estimates(lipschitz_constant, f, 1.0, 1.0, 26)


@pytest.mark.parametrize("name", ["product1d", "product2d"])
def test_lattice_points_per_axis(monkeypatch, name):
    # n_x = max(33, floor(n^(1/d)) | 1): in 1-d the state count n itself on
    # every doubling from base_grid 201, in 2-d the count the program took
    # as max(33, int(sqrt(n)) | 1), and at least 33 from any base grid
    seen = []
    real = flux_mod._ball_lattice

    def spy(R, dim, n_per_axis):
        seen.append(n_per_axis)
        return real(R, dim, n_per_axis)

    monkeypatch.setattr(flux_mod, "_ball_lattice", spy)
    flux = catalog_lookup(name)
    counts = [201 * 2 ** j - (2 ** j - 1) for j in range(7)] + [26, 51]
    for n in counts:
        flux_mod._lipschitz_estimate(flux, 1.0, 1.0, n)
    if flux.dim == 1:
        assert seen == counts[:7] + [33, 51]
    else:
        assert seen == [max(33, int(np.sqrt(n)) | 1) for n in counts]


class TestUniformDiffquot:
    def test_burgers_is_x_independent(self):
        f = catalog_lookup("burgers1d")
        out = uniform_diffquot_deficit(f, 0.0, (-1, 1), [0.1, 0.01, 0.001])
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_xsquared_closed_form(self):
        # remainder of x^2 at x=1 is |y-1|^2 / |y-1| = r exactly
        f = catalog_lookup("xsquared1d")
        out = uniform_diffquot_deficit(f, 1.0, (-1, 1), [0.1, 0.01])
        assert out == pytest.approx([0.1, 0.01], rel=1e-12)

    def test_product_decreasing(self):
        f = catalog_lookup("product1d")
        out = uniform_diffquot_deficit(f, 0.5, (-1, 1), [0.1, 0.01, 0.001])
        assert all(v > 0 for v in out)
        assert out[0] > out[1] > out[2]

    def test_singular_point_raises(self):
        f = catalog_lookup("kink1d")
        with pytest.raises(SingularPoint):
            uniform_diffquot_deficit(f, 0.0, (-1, 1), [0.1])
        # locally linear away from the kink: remainder identically zero
        out = uniform_diffquot_deficit(f, 0.5, (-1, 1), [0.1, 0.01])
        assert max(out) < 1e-12

    def test_two_dimensional_deficit_decreasing(self):
        f = catalog_lookup("product2d")
        out = uniform_diffquot_deficit(f, np.array([0.4, -0.3]), (-1, 1),
                                       [0.1, 0.01, 0.001])
        assert out[0] > out[1] > out[2] > 0

    def test_kink_deficit_when_radius_straddles(self):
        # at x=0.05 the radius-0.1 probe reaches across the kink:
        # remainder |y| k - |x| k - sign(x) k (y - x) = 2 k |y| at y = -0.05,
        # normalized by r = 0.1 gives sup_k = 1; smaller radii stay linear
        f = catalog_lookup("kink1d")
        out = uniform_diffquot_deficit(f, 0.05, (-1, 1), [0.1, 0.04, 0.01])
        assert out[0] == pytest.approx(1.0, rel=1e-12)
        assert max(out[1:]) < 1e-12


def test_divergence_at_singular_point_is_finite_sign_zero_times_k():
    f = catalog_lookup("kink1d")
    pts = np.array([[0.0], [0.5], [-0.5]])
    for k in (1.0, -2.5, 0.0):
        vals = f.div_x(pts, k)
        assert np.all(np.isfinite(vals))
        # div_x (|x| k) = sign(x) k, and sign(0) k = 0 at the kink
        assert np.array_equal(vals, [np.sign(0.0) * k, k, -k])


def test_derivatives_at_singular_points_are_one_sided_means():
    # the convention every caller relies on: at a declared singular point
    # div_x and grad_x_components return the mean of their one-sided values
    ks = np.linspace(-2.0, 2.0, 41)
    rough = [f for f in map(catalog_lookup, catalog_names())
             if f.singular_points]
    assert rough
    for f in rough:
        def derivs(x):
            return np.concatenate(
                [f.div_x(x, ks)[..., None]]
                + [f.grad_x_components(x, ks, i) for i in range(f.dim)],
                axis=-1)

        for sp in f.singular_points:
            x0 = np.asarray(sp, dtype=float).reshape(1, f.dim)
            for step in 1e-9 * np.eye(f.dim):
                left, right = derivs(x0 - step), derivs(x0 + step)
                scale = max(1.0, float(np.abs([left, right]).max()))
                assert np.allclose(derivs(x0), 0.5 * (left + right),
                                   rtol=0.0, atol=1e-6 * scale), (f.name, sp)
