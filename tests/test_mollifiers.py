import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import clawlab
from clawlab.errors import BadWindow
from clawlab.mollifiers import (ConeSpec, Mollifier, _unit_cdf_table,
                                _unit_profile, bump_test_function, chi_epsilon,
                                contraction_test_function, kernel_cdf,
                                kernel_cdf_quadrature,
                                mollifier_constant, omega_value)
from clawlab.quadrature import adaptive_gauss_legendre


class TestKernel:
    def test_constant_1d_against_independent_quadrature(self):
        # scipy is the independent oracle for the normalization constant
        mass, _ = quad(lambda x: np.exp(1.0 / (x * x - 1.0)), -1, 1)
        assert mollifier_constant(1) == pytest.approx(1.0 / mass, rel=1e-8)

    def test_constants_keep_their_bits(self):
        # the polar formula |S^{d-1}| int_0^1 r^{d-1} exp(1/(r^2 - 1)) dr
        # gives the bits of the former closed cases for d = 1 and d = 2
        assert mollifier_constant(1).hex() == "0x1.204ad466d96d0p+1"
        assert mollifier_constant(2).hex() == "0x1.12605d03ed1f9p+1"

    def test_constant_3d_against_independent_quadrature(self):
        mass, _ = quad(lambda r: 4.0 * np.pi * r * r
                       * np.exp(1.0 / (r * r - 1.0)), 0, 1)
        assert mollifier_constant(3) == pytest.approx(1.0 / mass, rel=1e-8)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
    def test_unit_mass(self, dim, eps):
        m = Mollifier(dim, eps)
        if dim == 1:
            mass = adaptive_gauss_legendre(lambda s: m.value(s[:, None]),
                                           -eps, eps, tol=1e-12)
        else:
            mass = 2 * np.pi * adaptive_gauss_legendre(
                lambda r: r * m.value(np.stack([r, np.zeros_like(r)], axis=-1)),
                0.0, eps, tol=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_support_is_closed_ball(self, dim):
        m = Mollifier(dim, 0.5)
        inside = np.full(dim, 0.4 / np.sqrt(dim))
        boundary = np.full(dim, 0.5 / np.sqrt(dim))
        outside = np.full(dim, 0.6 / np.sqrt(dim))
        assert m.value(inside) > 0.0
        assert m.value(boundary) == pytest.approx(0.0, abs=1e-300)
        assert m.value(outside) == 0.0
        assert np.all(m.grad(outside) == 0.0)

    def test_gradient_matches_finite_difference(self):
        m = Mollifier(1, 0.3)
        xs = np.linspace(-0.25, 0.25, 11)
        h = 1e-6
        fd = (m.value((xs + h)[:, None]) - m.value((xs - h)[:, None])) / (2 * h)
        assert np.allclose(m.grad(xs[:, None])[..., 0], fd, atol=1e-4)


class TestCdf:
    def test_exact_endpoints_and_midpoint(self):
        assert kernel_cdf(0.1, -0.2) == 0.0
        assert kernel_cdf(0.1, -0.1) == 0.0
        assert kernel_cdf(0.1, 0.0) == 0.5
        assert kernel_cdf(0.1, 0.1) == 1.0
        assert kernel_cdf(0.1, 0.2) == 1.0

    def test_monotone_on_fine_grid(self):
        s = np.linspace(-1.5, 1.5, 1000)
        vals = kernel_cdf(1.0, s)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_table_against_direct_quadrature(self):
        u = np.random.default_rng(5).uniform(-1.0, 1.0, 400)
        err = [abs(kernel_cdf(1.0, s) - kernel_cdf_quadrature(1.0, s))
               for s in u]
        assert max(err) <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 2.0), st.floats(-3, 3))
    def test_range_property(self, h, sigma):
        v = kernel_cdf(h, sigma)
        assert 0.0 <= v <= 1.0


def _table_values():
    table = _unit_cdf_table()
    return table.nodes, table.coef[3]


class TestCdfTable:
    def test_ends_shapes_and_nan(self):
        x, y = _table_values()
        assert (x[0], x[-1], y[0], y[-1]) == (-1.0, 1.0, 0.0, 1.0)
        below = np.nextafter(1.0, 0.0)
        s = np.array([[-np.inf, -3.0, -1.0, -below],
                      [below, 1.0, 3.0, np.inf]])
        vals = kernel_cdf(1.0, s)
        assert vals.shape == s.shape
        assert np.array_equal(vals[0, :3], [0.0, 0.0, 0.0])
        assert np.array_equal(vals[1, 1:], [1.0, 1.0, 1.0])
        assert 0.0 <= vals[0, 3] < 1e-12 and 0.0 <= 1.0 - vals[1, 0] < 1e-12
        assert np.isnan(kernel_cdf(1.0, [0.2, np.nan])[1])
        assert np.isnan(kernel_cdf(1.0, np.nan))
        assert type(kernel_cdf(1.0, -0.0)) is float
        assert kernel_cdf(1.0, -0.0) == 0.5

    def test_node_slopes_are_the_kernel_unless_capped(self):
        table = _unit_cdf_table()
        x, y, d = table.nodes, table.coef[3], table.coef[2]
        kernel = mollifier_constant(1) * _unit_profile(x * x)
        chords = np.concatenate([[0.0], np.diff(y) / np.diff(x), [0.0]])
        cap = 3.0 * np.minimum(chords[:-1], chords[1:])
        free = kernel <= cap
        # the cap binds only in the flat tails, at a small share of nodes
        assert free.sum() > 9_500 and free[1000:9001].all()
        assert np.array_equal(d[free], kernel[free])
        assert np.array_equal(d[~free], cap[~free])

    def test_nodes_against_direct_quadrature(self):
        x, y = _table_values()
        idx = np.random.default_rng(9).choice(len(x), 25, replace=False)
        for i in idx:
            assert y[i] == pytest.approx(kernel_cdf_quadrature(1.0, x[i]),
                                         abs=1e-12)

    def test_monotone_inside_cells(self):
        x = _unit_cdf_table().nodes
        # the flat ends, where table steps shrink to roundoff, and the steep
        # middle
        for first in (0, 4990, len(x) - 11):
            s = np.linspace(x[first], x[first + 10], 100_001)
            assert np.all(np.diff(kernel_cdf(1.0, s)) >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 2.0),
           st.lists(st.floats(-2.5, 2.5), min_size=2, max_size=300))
    def test_non_decreasing_property(self, h, sigma):
        vals = kernel_cdf(h, np.sort(sigma))
        assert np.all(np.diff(vals) >= 0.0)

    def test_import_loads_no_scipy(self):
        src = str(Path(clawlab.__file__).resolve().parent.parent)
        code = ("import sys, clawlab; clawlab.kernel_cdf(1.0, [0.3, -0.2]); "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestCone:
    def test_ball_radius(self):
        cone = ConeSpec(R=2.0, N=0.5)
        assert cone.ball_radius(0.0) == 2.0
        assert cone.ball_radius(4.0) == pytest.approx(0.0)
        assert cone.t_max == pytest.approx(4.0)
        ts = np.linspace(0, 4, 9)
        assert np.all(np.diff(cone.ball_radius(ts)) < 0)

    def test_speed_zero_capped_by_horizon(self):
        cone = ConeSpec(R=1.0, N=0.0, horizon=3.0)
        assert cone.t_max == 3.0
        assert ConeSpec(R=1.0, N=0.0).t_max == np.inf

    def test_invalid(self):
        with pytest.raises(ValueError):
            ConeSpec(R=-1.0, N=1.0)
        with pytest.raises(ValueError):
            ConeSpec(R=1.0, N=-0.5)


class TestChi:
    CONE = ConeSpec(R=1.0, N=1.0)

    def test_deep_inside_is_one(self):
        assert chi_epsilon(self.CONE, 0.1, 0.0, 0.1).item() == 1.0

    def test_outside_is_zero(self):
        assert chi_epsilon(self.CONE, 0.1, 2.0, 0.1).item() == 0.0
        # beyond the vertex time the cutoff dies for any x
        assert chi_epsilon(self.CONE, 0.1, 0.0, 1.5).item() == 0.0

    def test_range_and_pointwise_limit(self):
        xs = np.linspace(-2, 2, 201)[:, None]
        for t in (0.1, 0.5, 0.9):
            vals = chi_epsilon(self.CONE,  0.15, xs, t)
            assert np.all((vals >= 0.0) & (vals <= 1.0))
        sweep = [chi_epsilon(self.CONE, e, 0.5, 0.25).item()
                 for e in (0.2, 0.1, 0.05, 0.01)]
        assert sweep[-1] == 1.0
        assert all(b >= a for a, b in zip(sweep, sweep[1:]))
        out_sweep = [chi_epsilon(self.CONE, e, 1.2, 0.25).item()
                     for e in (0.2, 0.1, 0.05, 0.01)]
        assert all(v == 0.0 for v in out_sweep)


class TestContractionTestFunction:
    CONE = ConeSpec(R=1.0, N=1.0)

    def make(self, rho=0.3, tau=0.6, h=0.1, eps=0.1):
        return contraction_test_function(self.CONE, rho, tau, h, eps)

    def test_zero_before_window(self):
        psi = self.make()
        xs = np.linspace(-1, 1, 41)[:, None]
        assert np.all(psi.value(xs, 0.15) == 0.0)

    def test_interior_flat_point_dt_zero(self):
        psi = self.make()
        # between rho+h and tau-h, far inside the ball: all kernels dormant
        assert psi.dt(0.0, 0.45).item() == 0.0
        assert psi.value(0.0, 0.45).item() == 1.0

    def test_gradient_bound(self):
        psi = self.make()
        xs = np.linspace(-1.2, 1.2, 401)[:, None]
        bound = 2.0 * omega_value(0.1, 0.0)
        for t in np.linspace(0.05, 0.95, 37):
            assert np.abs(psi.grad_x(xs, t)).max() <= bound + 1e-12

    def test_dt_bound(self):
        psi = self.make()
        xs = np.linspace(-1.2, 1.2, 401)[:, None]
        bound = 2.0 * omega_value(0.1, 0.0) + 2.0 * self.CONE.N * omega_value(0.1, 0.0)
        for t in np.linspace(0.05, 0.95, 37):
            assert np.abs(psi.dt(xs, t)).max() <= bound + 1e-12

    def test_nonnegative_and_supported(self):
        psi = self.make()
        xs = np.linspace(-1.5, 1.5, 301)[:, None]
        for t in np.linspace(0.01, 1.2, 25):
            vals = psi.value(xs, t)
            assert np.all(vals >= 0.0)
            assert np.all(vals[np.abs(xs[:, 0]) > 1.0] == 0.0)

    def test_derivatives_match_finite_differences(self):
        psi = self.make()
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(40):
            x, t = rng.uniform(-0.9, 0.9), rng.uniform(0.25, 0.55)
            fd_t = (psi.value(x, t + h) - psi.value(x, t - h)) / (2 * h)
            fd_x = (psi.value(x + h, t) - psi.value(x - h, t)) / (2 * h)
            # O(h) agreement suffices near the Lipschitz kinks
            assert abs(fd_t - psi.dt(x, t)) < 5e-4
            assert abs(fd_x - psi.grad_x(x, t)[..., 0]) < 5e-4

    def test_bad_window_raises(self):
        with pytest.raises(BadWindow):
            self.make(h=0.31)          # h >= rho
        with pytest.raises(BadWindow):
            self.make(tau=0.95, h=0.1)  # h >= t_max - tau
        with pytest.raises(BadWindow):
            contraction_test_function(self.CONE, 0.6, 0.3, 0.05, 0.1)

    @pytest.mark.parametrize("h,eps", [
        (0.0, 0.1), (-0.05, 0.1), (np.nan, 0.1), (0.1, np.nan),
    ], ids=["h_zero", "h_negative", "h_nan", "eps_nan"])
    def test_degenerate_width_raises(self, h, eps):
        # a width that is not positive would give a window that is zero or
        # negative on (rho, tau), or divide by zero
        with pytest.raises(BadWindow):
            self.make(h=h, eps=eps)

    def test_gradient_defined_at_origin(self):
        psi = self.make()
        assert np.all(psi.grad_x(np.zeros((1, 1)), 0.4) == 0.0)


class TestBump:
    def test_support_and_positivity(self):
        phi = bump_test_function(0.0, 0.5, 0.2, 0.8)
        assert phi.value(0.0, 0.5).item() == pytest.approx(1.0)
        assert phi.value(0.6, 0.5).item() == 0.0
        assert phi.value(0.0, 0.9).item() == 0.0

    def test_derivatives_match_fd(self):
        phi = bump_test_function(0.1, 0.4, 0.1, 0.9)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(30):
            x, t = rng.uniform(-0.25, 0.45), rng.uniform(0.15, 0.85)
            fd_t = (phi.value(x, t + h) - phi.value(x, t - h)) / (2 * h)
            fd_x = (phi.value(x + h, t) - phi.value(x - h, t)) / (2 * h)
            assert abs(fd_t - phi.dt(x, t)) < 1e-6
            assert abs(fd_x - phi.grad_x(x, t)[..., 0]) < 1e-6

    @pytest.mark.parametrize("center,radius,t_lo,t_hi", [
        (0.1, np.nan, 0.1, 0.9), (0.1, 0.4, np.nan, 0.9),
        (0.1, 0.4, 0.1, np.nan), (np.nan, 0.4, 0.1, 0.9),
        (-np.inf, 0.4, 0.1, 0.9),
    ], ids=["radius_nan", "t_lo_nan", "t_hi_nan", "center_nan", "center_inf"])
    def test_degenerate_support_raises(self, center, radius, t_lo, t_hi):
        with pytest.raises(BadWindow):
            bump_test_function(center, radius, t_lo, t_hi)
        with pytest.raises(BadWindow):
            bump_test_function([0.1, center], radius, t_lo, t_hi, dim=2)


def _batched_test_functions():
    for dim in (1, 2):
        cone = ConeSpec(R=1.0, N=0.8, dim=dim, horizon=1.0)
        yield contraction_test_function(cone, 0.3, 0.7, 0.1, 0.2)
        yield bump_test_function(np.full(dim, 0.1), 0.6, 0.1, 0.8, dim=dim)


@pytest.mark.parametrize("phi", list(_batched_test_functions()),
                         ids=["cone1d", "bump1d", "cone2d", "bump2d"])
def test_value_batched_over_times_matches_scalar_times(phi):
    # the verifier evaluates phi on a (L, 1, ...) column of times at once
    axis = np.linspace(-1.2, 1.2, 41)
    if phi.dim == 1:
        pts = axis[:, None]
    else:
        X, Y = np.meshgrid(axis, axis[::2], indexing="ij")
        pts = np.stack([X, Y], axis=-1)
    ts = np.linspace(0.0, 1.0, 27)
    batched = phi.value(pts, ts.reshape((-1,) + (1,) * phi.dim))
    scalar = np.stack([phi.value(pts, t) for t in ts])
    assert batched.shape == scalar.shape == (len(ts),) + pts.shape[:-1]
    assert np.array_equal(batched, scalar)
    assert np.any(batched != 0.0)


class TestDoublingKernel:
    def test_gradient_antisymmetry(self):
        # grad_x rho(x - y) = -grad_y rho(x - y) at random offsets
        rng = np.random.default_rng(9)
        m = Mollifier(2, 0.5)
        for _ in range(50):
            d = rng.uniform(-0.3, 0.3, 2)
            assert np.allclose(m.grad(d), -m.grad(-d), atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_unit_vector_identity(self, dim):
        # int int omega(t-s) d_{y_i} rho(x-y) (x - y) dy ds = e_i
        eps = 0.5
        m = Mollifier(dim, eps)

        def space_part(i):
            if dim == 1:
                def fn(y):
                    grad_y = -m.grad((0.0 - y)[:, None])
                    return grad_y[..., i] * (0.0 - y)
                return adaptive_gauss_legendre(fn, -eps, eps, tol=1e-9)
            n = 160
            g = np.linspace(-eps, eps, n)
            Y1, Y2 = np.meshgrid(g, g, indexing="ij")
            pts = np.stack([-Y1, -Y2], axis=-1)
            grad_y = -m.grad(pts)
            integ = grad_y[..., i][..., None] * pts
            h = g[1] - g[0]
            return integ.sum(axis=(0, 1)) * h * h

        time_part = adaptive_gauss_legendre(
            lambda s: omega_value(eps, -s), -eps, eps, tol=1e-10)
        assert time_part == pytest.approx(1.0, abs=1e-10)
        for i in range(dim):
            e_i = np.zeros(dim)
            e_i[i] = 1.0
            got = np.atleast_1d(space_part(i)) * time_part
            assert np.allclose(got, e_i, atol=1e-6)
