import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawlab.entropy import (SmoothEntropy, _state_tables, kruzkov_div,
                             kruzkov_div_deficit, kruzkov_flux,
                             kruzkov_limit_deficit, leibniz_check,
                             make_kruzkov_pair, make_smooth_pair, q_build_ibp,
                             q_build_quadrature, sqrt_entropy, sweep_terms)
from clawlab.flux import Separable, catalog_lookup, catalog_names
from clawlab.grids import sine_data
from clawlab.quadrature import adaptive_gauss_legendre
from clawlab.solver import SchemeConfig, solve

BURGERS = catalog_lookup("burgers1d")
PRODUCT = catalog_lookup("product1d")
XSQ = catalog_lookup("xsquared1d")


@st.composite
def _kruzkov_states(draw):
    """A catalog flux, points (n, d), states u, v (n,) equal on a drawn
    subset (a point may sit on a singular point), and a scalar k."""
    flux = catalog_lookup(draw(st.sampled_from(catalog_names())))
    n = draw(st.integers(1, 6))
    coord = st.floats(-2.0, 2.0) | st.just(0.0)
    state = st.floats(-2.0, 2.0)
    pts = np.array(draw(st.lists(coord, min_size=n * flux.dim,
                                 max_size=n * flux.dim))).reshape(n, flux.dim)
    u = np.array(draw(st.lists(state, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(state, min_size=n, max_size=n)))
    same = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    v[same] = u[same]
    return flux, pts, u, v, draw(state)


class TestKruzkovFlux:
    """q(x, u, v) = sign(u - v) (f(x, u) - f(x, v)) and its divergence, the
    one definition behind the Kruzkov pairs and Kato's inequality."""

    @settings(max_examples=80, deadline=None)
    @given(_kruzkov_states())
    def test_symmetric_zero_on_diagonal_and_pair_flux(self, case):
        flux, pts, u, v, k = case
        q, d = kruzkov_flux(flux, pts, u, v), kruzkov_div(flux, pts, u, v)
        assert q.shape == pts.shape and d.shape == u.shape
        # the flux of |u - v|: sign(u - v) and f(u) - f(v) both flip sign
        # exactly under the swap, so their product is bitwise unchanged
        assert np.array_equal(q, kruzkov_flux(flux, pts, v, u))
        assert np.array_equal(d, kruzkov_div(flux, pts, v, u))
        assert np.all(q[u == v] == 0.0) and np.all(d[u == v] == 0.0)
        # the larger state's flux minus the smaller one's
        hi, lo = np.maximum(u, v), np.minimum(u, v)
        off = u != v
        assert np.array_equal(q[off], (flux.eval(pts, hi)
                                       - flux.eval(pts, lo))[off])
        assert np.array_equal(d[off], (flux.div_x(pts, hi)
                                       - flux.div_x(pts, lo))[off])
        pair = make_kruzkov_pair(flux, k)
        assert np.array_equal(kruzkov_flux(flux, pts, u, k), pair.q(pts, u))
        assert np.array_equal(kruzkov_div(flux, pts, u, k),
                              pair.div_x_q(pts, u))


class TestSmoothPair:
    def test_values_n1(self):
        pair = make_smooth_pair(BURGERS, 0.0, 1)
        assert pair.eta(0.0) == pytest.approx(1.0)
        assert pair.eta(1.0) == pytest.approx(np.sqrt(2.0))
        assert pair.eta_prime(0.0) == 0.0

    def test_uniform_approx_of_abs(self):
        pair = make_smooth_pair(BURGERS, 0.0, 100)
        ks = np.linspace(-3, 3, 601)
        assert np.max(pair.eta(ks) - np.abs(ks)) <= 0.1

    def test_minimum_at_k0(self):
        pair = make_smooth_pair(BURGERS, 2.0, 4)
        ks = np.linspace(-4, 6, 801)
        vals = pair.eta(ks)
        assert pair.eta(2.0) == pytest.approx(0.5)
        assert np.all(vals >= pair.eta(2.0) - 1e-15)

    def test_eta_n_sup_bound(self):
        # sqrt(s^2 + 1/n) - |s| <= n^{-1/2}, equality at s = 0
        for n in (1, 4, 16, 64, 256):
            pair = make_smooth_pair(BURGERS, 0.7, n)
            ks = np.linspace(-5, 5, 1001)
            gap = pair.eta(ks) - np.abs(ks - 0.7)
            assert np.max(gap) <= n ** -0.5 * (1 + 1e-12)

    def test_convexity_sampled(self):
        pair = make_smooth_pair(PRODUCT, -0.3, 9)
        ks = np.linspace(-3, 3, 401)
        second = np.diff(pair.eta(ks), 2)
        assert np.min(second) >= -1e-12

    def test_q_vanishes_at_k0(self):
        for pair in (make_smooth_pair(PRODUCT, 0.4, 16),
                     make_kruzkov_pair(PRODUCT, 0.4)):
            xs = np.linspace(-2, 2, 9)[:, None]
            assert np.all(pair.q(xs, 0.4) == 0.0)
            assert np.all(pair.div_x_q(xs, 0.4) == 0.0)


def _with_nan_factors(flux):
    """``flux`` with its own callables and factors that are NaN everywhere:
    whatever reads the factors turns NaN."""
    def nan(a):
        return np.full(np.shape(a), np.nan)

    return dataclasses.replace(flux, factors=Separable(nan, nan, nan, nan, nan))


def _eta_gap(u, k0, n):
    """eta_n(u) - eta_n(k0) = s^2 / (eta_n(u) + n^{-1/2}), s = u - k0,
    without cancellation."""
    s = np.asarray(u, dtype=float) - k0
    return s * s / (np.sqrt(s * s + 1.0 / n) + np.sqrt(1.0 / n))


class TestTabulatedSmoothPair:
    """Every smooth pair reads its state integrals from ``_state_tables``,
    the one rule, with one row per (point, state) pair and d_k f and
    div_x f at its point; it never reads the flux's factors, so a copy
    whose factors are NaN gives the same values.  It is checked against
    closed forms and adaptive quadrature."""

    @pytest.mark.parametrize("factors", [True, False])
    def test_advection_closed_form(self, factors):
        # f = c k: q = c (eta_n(u) - eta_n(k0)), div_x q = 0, on a batch
        # that holds k0, on scalar states and on an empty batch
        flux = catalog_lookup("advection1d", {"c": -1.7})
        flux = flux if factors else _with_nan_factors(flux)
        rng = np.random.default_rng(31)
        pts = rng.uniform(-2.0, 2.0, (300, 1))
        for k0 in (0.0, 0.45, -1.3):
            u = np.concatenate([rng.uniform(-2.0, 2.0, 297), [k0, k0, 2.0]])
            for n in (1, 16, 10 ** 4):
                pair = make_smooth_pair(flux, k0, n)
                for x, k in ((pts, u), (pts, u[0]), (pts, k0),
                             (pts[:0], u[:0])):
                    exact = np.broadcast_to(-1.7 * _eta_gap(k, k0, n),
                                            x.shape[:1])
                    q, d = pair.q(x, k), pair.div_x_q(x, k)
                    assert q.shape == x.shape and d.shape == x.shape[:1]
                    assert np.all(np.abs(q[:, 0] - exact) <= 1e-14
                                  * np.abs(exact).max(initial=0.0))
                    assert np.all(d == 0.0)

    @pytest.mark.parametrize("factors", [True, False])
    def test_kink_closed_form(self, factors):
        # f = |x| k: q = |x| (eta_n(u) - eta_n(k0)) and, by parts,
        # div_x q = sign(x) (eta_n(u) - eta_n(k0)), 0 at the singular x = 0;
        # on a batch that holds k0, on scalar states and on an empty batch
        flux = catalog_lookup("kink1d")
        flux = flux if factors else _with_nan_factors(flux)
        rng = np.random.default_rng(32)
        x = np.concatenate([[0.0, 0.0], rng.uniform(-2.0, 2.0, 198)])
        for k0 in (0.0, 0.8):
            u = np.concatenate([[1.5, k0], rng.uniform(-2.0, 2.0, 198)])
            for n in (1, 64, 10 ** 4):
                pair = make_smooth_pair(flux, k0, n)
                for xs, k in ((x, u), (x, u[0]), (x, k0), (x[:0], u[:0])):
                    gap = np.broadcast_to(_eta_gap(k, k0, n), xs.shape)
                    tol = 1e-14 * np.abs(gap).max(initial=0.0)
                    q, d = pair.q(xs, k), pair.div_x_q(xs, k)
                    assert q.shape == xs.shape + (1,) and d.shape == xs.shape
                    assert np.all(np.abs(q[:, 0] - np.abs(xs) * gap) <= tol)
                    assert np.all(np.abs(d - np.sign(xs) * gap) <= tol)
                    assert np.all(q[xs == 0.0] == 0.0)
                    assert np.all(d[xs == 0.0] == 0.0)

    @pytest.mark.parametrize("name", ["burgers1d", "product1d", "product2d"])
    @pytest.mark.parametrize("factors", [True, False])
    def test_matches_adaptive_quadrature(self, name, factors):
        """q against ``q_build_quadrature`` and ``q_build_ibp``, div_x q
        against eta_n'(u) div_x f - int eta_n'' div_x f dw, all adaptive
        to 1e-13."""
        flux = catalog_lookup(name)
        flux = flux if factors else _with_nan_factors(flux)
        rng = np.random.default_rng(33)
        for k0, n in ((0.0, 4), (0.6, 64), (-0.4, 10 ** 4)):
            ent = sqrt_entropy(k0, n)
            pair = make_smooth_pair(flux, k0, n)
            pts = rng.uniform(-1.5, 1.5, (6, flux.dim))
            u = np.concatenate([rng.uniform(-1.5, 1.5, 5), [k0 + 1e-3]])
            q, d = pair.q(pts, u), pair.div_x_q(pts, u)
            for x, k, qi, di in zip(pts, u, q, d):
                quad = q_build_quadrature(flux, ent.eta_prime, k0, x, k,
                                          tol=1e-13)
                ibp = q_build_ibp(flux, ent, k0, x, k, tol=1e-13)
                integ = adaptive_gauss_legendre(
                    lambda w: ent.eta_pp(w) * flux.div_x(x, w), k0, k,
                    tol=1e-13)
                div = ent.eta_prime(k) * flux.div_x(x, k) - integ
                assert np.abs(qi - quad.ravel()).max() <= 1e-12
                assert np.abs(qi - ibp.ravel()).max() <= 1e-12
                assert np.abs(di - div).max() <= 1e-12

    def test_pair_keeps_relative_accuracy_near_k0(self):
        # each (point, state) pair is a table row of its own, with its
        # nodes placed by their offset from k0, so a state close to a k0
        # away from 0 keeps its relative accuracy
        flux = catalog_lookup("advection1d", {"c": 2.5})
        rng = np.random.default_rng(34)
        for k0 in (-1.0, 0.7):
            for n in (1, 64, 10 ** 4):
                u = k0 + (rng.choice([-1.0, 1.0], 200)
                          * 10.0 ** rng.uniform(-6.0, -2.0, 200))
                pts = rng.uniform(-1.0, 1.0, (200, 1))
                exact = 2.5 * _eta_gap(u, k0, n)
                q = make_smooth_pair(flux, k0, n).q(pts, u)[:, 0]
                assert np.all(np.abs(q - exact) <= 1e-13 * np.abs(exact))

    def test_factored_sweep_keeps_relative_accuracy_near_k0(self):
        # the factored sweep's smooth pairs share one table row over a
        # level's states on both sides of k0; summed outward from k0 and
        # with eta_n' at the offsets t, q keeps its relative accuracy
        flux = catalog_lookup("advection1d", {"c": 2.5})
        rng = np.random.default_rng(35)
        pts = rng.uniform(-1.0, 1.0, (200, 1))
        for k0 in (-1.0, 0.45):
            u = k0 + (rng.choice([-1.0, 1.0], 200)
                      * 10.0 ** rng.uniform(-6.0, -2.0, 200))
            for n in (1, 64, 10 ** 4):
                terms = sweep_terms(flux, [make_smooth_pair(flux, k0, n)])
                (_, q, _), = terms(pts, u[None])
                exact = 2.5 * _eta_gap(u, k0, n)
                assert np.all(np.abs(q[0, :, 0] - exact)
                              <= 1e-12 * np.abs(exact))

    def test_nan_state_poisons_only_its_entries(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.0, 1.0, (200, 1))
        u = rng.uniform(-1.0, 1.0, 200)
        poisoned = u.copy()
        poisoned[7] = np.nan
        keep = np.arange(200) != 7
        tab = make_smooth_pair(PRODUCT, 0.0, 64)
        for fn in (tab.q, tab.div_x_q):
            clean, out = fn(pts, u), fn(pts, poisoned)
            assert np.all(np.isnan(out[7]))
            assert np.all(np.abs(out[keep] - clean[keep])
                          <= 1e-14 * np.abs(clean).max())

    def test_smoothing_index_below_one_refused(self):
        for n in (0, -4):
            with pytest.raises(ValueError, match=">= 1"):
                sqrt_entropy(0.0, n)
            with pytest.raises(ValueError, match=">= 1"):
                make_smooth_pair(PRODUCT, 0.0, n)


@st.composite
def _table_rows(draw):
    """k0 and rows of states (R, S), each row drawn from a pool of its own
    that holds k0, so rows differ in span and side and hold duplicates, k0
    itself and the odd state that is not finite."""
    k0 = draw(st.floats(-1.0, 1.0, allow_subnormal=False))
    width = draw(st.integers(0, 6))
    state = (st.floats(-3.0, 3.0, allow_subnormal=False)
             | st.sampled_from([k0 + 1e-7, k0 - 1e-9, np.nan, np.inf]))
    rows = draw(st.integers(1, 5))
    K = np.empty((rows, width))
    for r in range(rows):
        pool = draw(st.lists(state, min_size=1, max_size=4)) + [k0]
        K[r] = draw(st.lists(st.sampled_from(pool), min_size=width,
                             max_size=width))
    return k0, K


def _row_integrals(k0, K, x):
    """int_{k0}^{u} eta_16'(w) cos(w + x) dw for rows K with one x each."""
    w, t, lookup = _state_tables(k0, K)
    return lookup(sqrt_entropy(0.0, 16).eta_prime(t)
                  * np.cos(w + x[:, None]))


class TestStateTables:
    """``_state_tables`` takes rows of states with one integrand each."""

    @settings(max_examples=30, deadline=None)
    @given(_table_rows(), st.data())
    def test_rows_alone_and_extra_states_change_nothing(self, case, data):
        """A batch of rows equals each row tabulated alone, and duplicate
        states or states equal to k0 added to the rows change no value,
        bit for bit; a state that is not finite reads NaN."""
        k0, K = case
        x = np.linspace(-1.0, 1.0, len(K))
        batch = _row_integrals(k0, K, x)
        assert batch.shape == K.shape
        assert np.array_equal(np.isnan(batch), ~np.isfinite(K))
        for r in range(len(K)):
            alone = _row_integrals(k0, K[r:r + 1], x[r:r + 1])
            assert alone.tobytes() == batch[r:r + 1].tobytes()
        # each extra column repeats a column of K or holds k0
        cols = data.draw(st.lists(st.integers(-1, K.shape[1] - 1),
                                  min_size=1, max_size=6))
        extra = np.stack([K[:, c] if c >= 0 else np.full(len(K), k0)
                          for c in cols], axis=1)
        wider = _row_integrals(k0, np.concatenate([K, extra], axis=1), x)
        assert wider[:, :K.shape[1]].tobytes() == batch.tobytes()


    def test_rows_far_from_k0_take_few_nodes(self):
        """A row shaped like a level of the ``entropy_1d`` sweep, the
        states of a ``product1d`` sine solution over a bump's box with
        k0 = 0 below them all, takes at most 6 nodes per state: 4 on the
        intervals between states, 16 only on the ladder toward k0."""
        u = solve(PRODUCT, sine_data(0.3, 1.0, 0.45),
                  SchemeConfig(lo=-1.0, hi=1.0, nx=640, t_end=0.35,
                               boundary="periodic"))
        level = u.data[len(u.times) // 2]
        row = level[np.abs(u.centers) < 0.36][None]
        assert row.shape[1] > 200 and row.min() > 0.0
        w, t, lookup = _state_tables(0.0, row)
        assert w.shape[0] == 1 and w.size <= 6 * row.size
        # the 4-node intervals keep the integral: eta_16' h' against
        # eta_16(u) - eta_16(0) for h = id
        gap = lookup(sqrt_entropy(0.0, 16).eta_prime(t))
        assert np.all(np.abs(gap - _eta_gap(row, 0.0, 16))
                      <= 1e-14 * _eta_gap(row, 0.0, 16))


class TestKruzkovPair:
    def test_burgers_direct(self):
        pair = make_kruzkov_pair(BURGERS, 0.0)
        assert pair.q(0.0, 2.0)[..., 0] == pytest.approx(2.0)

    def test_symmetric_states_cancel(self):
        pair = make_kruzkov_pair(BURGERS, 1.0)
        assert pair.q(0.0, -1.0)[..., 0] == pytest.approx(0.0)

    def test_k_independent_flux_gives_zero(self):
        pair = make_kruzkov_pair(XSQ, 0.0)
        xs = np.linspace(-2, 2, 7)[:, None]
        ks = np.linspace(-2, 2, 7)
        assert np.all(pair.q(xs, ks) == 0.0)
        assert np.all(pair.div_x_q(xs, ks) == 0.0)

    def test_quadrature_agrees_with_closed_form(self):
        # integrating sign(w - k0) d_k f recovers the closed form
        rng = np.random.default_rng(7)
        for flux in (BURGERS, PRODUCT):
            for _ in range(20):
                k0, k, x = rng.uniform(-2, 2, 3)
                pair = make_kruzkov_pair(flux, k0)
                via_quad = q_build_quadrature(
                    flux, lambda w, k0=k0: np.sign(w - k0), k0, x, k)
                assert np.abs(via_quad - pair.q(x, k)).max() < 1e-10


class TestQuadratureBuilders:
    def test_burgers_cubed_over_three(self):
        val = q_build_quadrature(BURGERS, lambda w: w, 0.0, 0.0, 1.0)
        assert val[..., 0] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_empty_interval(self):
        val = q_build_quadrature(PRODUCT, lambda w: np.sign(w), 0.5, 0.1, 0.5)
        assert np.all(val == 0.0)

    def test_advection_sign_entropy(self):
        adv = catalog_lookup("advection1d", {"c": 3.0})
        val = q_build_quadrature(adv, np.sign, 0.0, 0.0, -2.0)
        assert val[..., 0] == pytest.approx(6.0, abs=1e-10)

    def test_ibp_linear_advection(self):
        adv = catalog_lookup("advection1d", {"c": 1.0})
        ent = SmoothEntropy(lambda k: np.asarray(k, float) ** 2,
                            lambda k: 2.0 * np.asarray(k, float),
                            lambda k: 2.0 + 0.0 * np.asarray(k, float))
        via_ibp = q_build_ibp(adv, ent, 0.0, 0.0, 2.0)
        via_quad = q_build_quadrature(adv, ent.eta_prime, 0.0, 0.0, 2.0)
        assert via_ibp[..., 0] == pytest.approx(4.0, abs=1e-10)
        assert via_quad[..., 0] == pytest.approx(4.0, abs=1e-10)

    def test_ibp_at_k0_is_zero(self):
        ent = sqrt_entropy(0.0, 4)
        assert np.all(q_build_ibp(PRODUCT, ent, 0.0, 0.3, 0.0) == 0.0)

    def test_dual_representation_identity(self):
        # the two independent quadrature routes agree at random (x, k)
        rng = np.random.default_rng(20260809)
        fluxes = [BURGERS, PRODUCT, catalog_lookup("advection1d", {"c": 2.0})]
        for flux in fluxes:
            for n in (1, 4, 16):
                ent = sqrt_entropy(0.2, n)
                for _ in range(12):
                    x, k = rng.uniform(-2, 2, 2)
                    a = q_build_quadrature(flux, ent.eta_prime, 0.2, x, k)
                    b = q_build_ibp(flux, ent, 0.2, x, k)
                    assert np.abs(a - b).max() < 1e-8


class TestKruzkovLimit:
    def test_burgers_deficit_decreases(self):
        out = kruzkov_limit_deficit(BURGERS, 0.0, 0.0, 1.0, [1, 4, 16, 64])
        assert out[0] == pytest.approx(0.2335800123, abs=1e-8)
        assert all(a > b for a, b in zip(out, out[1:]))
        assert out[-1] <= out[0] / 4.0

    def test_at_k0_all_zero(self):
        out = kruzkov_limit_deficit(PRODUCT, 0.3, 0.5, 0.3, [1, 4, 16])
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_k_independent_flux_all_zero(self):
        out = kruzkov_limit_deficit(XSQ, 0.0, 1.0, 2.0, [1, 4, 16])
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_div_deficit_decreases_product(self):
        out = kruzkov_div_deficit(PRODUCT, 0.0, 0.5, 1.5, [1, 4, 16, 64])
        assert all(a >= b - 1e-14 for a, b in zip(out, out[1:]))
        assert out[-1] < out[0]


class TestLeibniz:
    def test_burgers_x_independent(self):
        out = leibniz_check(BURGERS, lambda w: np.ones_like(w), (0, 1), 0.5,
                            [1e-2, 1e-3])
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_xsquared_central_difference_exact(self):
        out = leibniz_check(XSQ, lambda w: np.ones_like(w), (0, 1), 1.0,
                            [1e-2, 1e-3])
        assert all(v <= h for v, h in zip(out, [1e-2, 1e-3]))

    def test_product_decaying(self):
        out = leibniz_check(PRODUCT, lambda w: w, (-1, 1), 0.5,
                            [1e-2, 1e-3, 1e-4])
        assert out[0] > out[1] > out[2]


@settings(max_examples=30, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.integers(1, 256))
def test_smooth_eta_prime_bounded_by_one(k0, k, n):
    ent = sqrt_entropy(k0, n)
    assert abs(ent.eta_prime(k)) <= 1.0
    assert ent.eta_prime(k0) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-2.5, 2.5))
def test_kruzkov_q_sign_structure(k0, k):
    pair = make_kruzkov_pair(BURGERS, k0)
    q = pair.q(0.0, k)[..., 0]
    # q = sign(k-k0)(f(k)-f(k0)) carries the sign of (k-k0)(f(k)-f(k0))
    expected = np.sign(k - k0) * (0.5 * k * k - 0.5 * k0 * k0)
    assert q == pytest.approx(expected, abs=1e-14)
