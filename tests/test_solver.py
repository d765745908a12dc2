import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clawlab import solver as solver_mod
from clawlab.errors import (BlowUp, CFLViolation, EmptyCone, FieldFileError,
                            GridMismatch, MissingTimeLevels, NonFiniteFlux)
from clawlab.flux import Separable, _separable, catalog_lookup
from clawlab.grids import (GridField, box_data, constant_data,
                           field_from_function, load_field, riemann_data,
                           sine_data, write_slabs)
from clawlab.solver import (SchemeConfig, discrete_entropy_max_violation,
                            exact_riemann_burgers, solve, solve_pair)
from clawlab.verifier import (_balls, cone_contraction_profile,
                              global_contraction_check, l1_masses)

BURGERS = catalog_lookup("burgers1d")
XSQ = catalog_lookup("xsquared1d")


class TestExactRiemann:
    def test_shock_side_selection(self):
        assert exact_riemann_burgers(1.0, 0.0, 0.4, 1.0) == 1.0
        assert exact_riemann_burgers(1.0, 0.0, 0.6, 1.0) == 0.0

    def test_fan_value(self):
        assert exact_riemann_burgers(0.0, 1.0, 0.5, 1.0) == 0.5

    def test_constant(self):
        assert exact_riemann_burgers(0.3, 0.3, -1.0, 2.0) == 0.3

    def test_t_nonpositive_raises(self):
        with pytest.raises(ValueError):
            exact_riemann_burgers(1.0, 0.0, 0.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-3, 3),
           st.floats(0.1, 3))
    def test_values_between_states(self, ul, ur, x, t):
        v = exact_riemann_burgers(ul, ur, x, t)
        assert min(ul, ur) - 1e-12 <= v <= max(ul, ur) + 1e-12


class TestSolveBurgers:
    def test_shock_location(self):
        cfg = SchemeConfig(lo=-1.0, hi=1.0, nx=400, t_end=0.5,
                           store_every=10 ** 9)
        u = solve(BURGERS, riemann_data(1.0, 0.0, 0.0), cfg)
        crossing = u.centers[np.argmin(np.abs(u.data[-1] - 0.5))]
        assert abs(crossing - 0.25) <= 2.0 * u.dx

    def test_rarefaction_convergence_order(self):
        errs = []
        for nx in (600, 1200):
            cfg = SchemeConfig(lo=-1.0, hi=2.0, nx=nx, t_end=1.0,
                               store_every=10 ** 9)
            u = solve(BURGERS, riemann_data(0.0, 1.0, 0.0), cfg)
            exact = exact_riemann_burgers(0.0, 1.0, u.centers, 1.0)
            errs.append(np.abs(u.data[-1] - exact).sum() * u.dx)
        order = np.log2(errs[0] / errs[1])
        assert order >= 0.8

    def test_constants_are_fixed_points(self):
        cfg = SchemeConfig(lo=-1.0, hi=1.0, nx=100, t_end=0.4)
        u = solve(BURGERS, constant_data(0.7), cfg)
        assert np.abs(u.data[-1] - 0.7).max() == 0.0
        # product flux at a zero of h(k): interface fluxes cancel exactly
        prod = catalog_lookup("product1d")
        v = solve(prod, constant_data(0.0), cfg)
        assert np.abs(v.data[-1]).max() == 0.0

    def test_max_principle_exact(self):
        cfg = SchemeConfig(lo=0.0, hi=1.0, nx=128, t_end=1.0,
                           boundary="periodic", store_every=10 ** 9)
        u = solve(BURGERS, sine_data(0.3, 1.0, 0.5), cfg)
        assert u.data[-1].min() >= u.data[0].min() - 1e-14
        assert u.data[-1].max() <= u.data[0].max() + 1e-14
        # homogeneous flux: the running bound never leaves the data range
        assert u.bound_M <= np.abs(u.data[0]).max() + 1e-14

    def test_conservation_periodic(self):
        # drift stays at roundoff over a thousand steps
        cfg = SchemeConfig(lo=0.0, hi=1.0, nx=128, t_end=12.0,
                           boundary="periodic", store_every=10 ** 9)
        u = solve(BURGERS, sine_data(0.5, 2.0, 0.1), cfg)
        m0 = u.data[0].sum() * u.dx
        m1 = u.data[-1].sum() * u.dx
        assert abs(m1 - m0) <= 1e-12 * max(1.0, abs(m0))

    def test_godunov_matches_rusanov_limit(self):
        cfgs = [SchemeConfig(lo=-1.0, hi=1.0, nx=nx, t_end=0.4,
                             scheme="godunov_burgers", store_every=10 ** 9)
                for nx in (200, 400)]
        errs = []
        for cfg in cfgs:
            u = solve(BURGERS, riemann_data(1.0, 0.0, 0.0), cfg)
            exact = exact_riemann_burgers(1.0, 0.0, u.centers, 0.4)
            errs.append(np.abs(u.data[-1] - exact).sum() * u.dx)
        assert errs[1] < errs[0]

    def test_source_flux_advances_linearly(self):
        # du/dt = -div_x f = -2x for the k-independent flux
        cfg = SchemeConfig(lo=-1.0, hi=1.0, nx=200, t_end=0.5,
                           store_every=10 ** 9)
        u = solve(XSQ, constant_data(0.0), cfg)
        assert np.abs(u.data[-1] - (-2.0 * u.centers * 0.5)).max() < 1e-12
        # inhomogeneous bound: |u| <= |u0| + T sup|div_x f| on the box
        assert u.bound_M <= 0.0 + 0.5 * 2.0 + 1e-12


def _nan_on(factors: Separable, lo: float, hi: float,
            name: str = "h") -> Separable:
    """``factors`` with the state factor ``name`` (h or h') NaN on the
    states in (lo, hi): a flux that turns a state there into NaN in the
    first step that reads it."""
    fn = getattr(factors, name)
    return replace(factors, **{
        name: lambda k: np.where((lo < k) & (k < hi), np.nan, fn(k))})


# h NaN on (0.9, 0.92), which holds the datum's right state 0.91 but none
# of the a-priori samples of h, the multiples of 1/16 in [-1, 1]
_BETWEEN_SAMPLES = (0.9, 0.92)


class TestStability:
    def test_bad_cfl_rejected(self):
        with pytest.raises(CFLViolation):
            SchemeConfig(lo=0, hi=1, nx=10, t_end=1.0, cfl=1.5)
        with pytest.raises(CFLViolation):
            SchemeConfig(lo=0, hi=1, nx=10, t_end=1.0, cfl=0.0)

    def test_store_every_below_one_rejected(self):
        for every in (0, -3):
            with pytest.raises(ValueError, match="store_every"):
                SchemeConfig(lo=0, hi=1, nx=10, t_end=1.0, store_every=every)

    @pytest.mark.parametrize("change,match", [
        ({"t_end": -0.5}, "t_end > 0"), ({"t_end": 0.0}, "t_end > 0"),
        ({"t_end": float("nan")}, "finite"),
        ({"t_end": float("inf")}, "finite"),
        ({"lo": float("-inf")}, "finite"), ({"hi": float("nan")}, "finite"),
        ({"hi": 0.0}, "hi > lo"), ({"hi": -1.0}, "hi > lo"),
        ({"nx": 0}, "nx >= 1"), ({"nx": -4}, "nx >= 1"),
        ({"dim": 3}, "dim 1 or 2"), ({"dim": 0}, "dim 1 or 2"),
        ({"nx": 10.5}, "integer nx"), ({"nx": 10.0}, "integer nx"),
        ({"store_every": 2.5}, "integer nx, store_every"),
        ({"dim": 1.0}, "integer nx, store_every and dim"),
    ], ids=["t_end_negative", "t_end_zero", "t_end_nan", "t_end_inf",
            "lo_inf", "hi_nan", "hi_eq_lo", "hi_below_lo", "nx_zero",
            "nx_negative", "dim_3", "dim_0", "nx_fraction", "nx_float",
            "store_every_fraction", "dim_float"])
    def test_unrunnable_grid_rejected(self, change, match):
        # these grids used to march backwards (t_end < 0), store two levels
        # at t = 0 (t_end = 0), fail deep in the solver (nx = 0, NaN) or
        # solve on 11 cells and write an unreadable field (nx = 10.5)
        base = dict(lo=0.0, hi=1.0, nx=10, t_end=1.0)
        with pytest.raises(ValueError, match=match):
            SchemeConfig(**{**base, **change})

    def test_godunov_2d_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            SchemeConfig(lo=0, hi=1, nx=10, t_end=1.0, dim=2,
                         scheme="godunov_burgers")

    def test_godunov_refuses_other_fluxes(self):
        # the Godunov formula assumes a convex flux with its minimum at u = 0
        cfg = SchemeConfig(lo=-1, hi=1, nx=50, t_end=0.1,
                           scheme="godunov_burgers")
        for name in ("product1d", "advection1d", "kink1d", "xsquared1d"):
            with pytest.raises(ValueError, match="burgers1d"):
                solve(catalog_lookup(name), riemann_data(1.0, 0.0, 0.0), cfg)

    def test_blowup_detected(self):
        # Burgers with a declared h' = 1e-3 k, which understates the true
        # speed and starves the interface dissipation; the guard must catch
        # the resulting growth
        lying = _separable("understated", 1, replace(
            BURGERS.factors, h_prime=lambda k: 1e-3 * k))
        cfg = SchemeConfig(lo=-1, hi=1, nx=100, t_end=20.0,
                           boundary="periodic", store_every=10 ** 9)
        with pytest.raises(BlowUp):
            solve(lying, sine_data(0.9, 3.0, 0.0), cfg)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_march_checks_every_step(self, dim):
        # the bound is max|u| over every step, here every level; a flux that
        # is NaN on a state of the datum that the a-priori samples miss
        # makes the first step's states NaN
        flux = catalog_lookup(f"burgers{dim}d")
        cfg = SchemeConfig(lo=-1, hi=1, nx=40, t_end=0.2, dim=dim)
        u = solve(flux, sine_data(0.5, 1.0, 0.2), cfg)
        assert u.bound_M == float(np.abs(u.data).max())
        broken = _separable("nan_between", dim,
                            _nan_on(flux.factors, *_BETWEEN_SAMPLES))
        with pytest.raises(BlowUp, match="at step 1 "):
            solve(broken, riemann_data(1.0, 0.91, 0.0), cfg)

    @pytest.mark.parametrize("name,estimate", [("h", "bound"),
                                               ("h_prime", "speed")])
    def test_nonfinite_a_priori_estimate_refused(self, name, estimate):
        # the data (sine of amplitude 1) never reach the NaN states above
        # 1.2, but the bound's refreshed sample, m0 + T sup|div_x f|, does,
        # and the speed samples [-bound, bound].  Unrefused, a NaN bound
        # makes every BlowUp threshold NaN and a NaN speed gives the dt of
        # speed 0: with h NaN, dt 0.0179 against 0.0100 for product1d, CFL
        # 1.6, and BlowUp only once NaN states appear at step 15
        flux = catalog_lookup("product1d")
        broken = _separable("nan_above", 1,
                            _nan_on(flux.factors, 1.2, np.inf, name))
        cfg = SchemeConfig(lo=-1, hi=1, nx=100, t_end=1.0,
                           boundary="periodic")
        with pytest.raises(NonFiniteFlux,
                           match=f"nan_above: the a-priori {estimate}"):
            solve(broken, sine_data(1.0, 1.0, 0.0), cfg)


class TestViscous:
    @pytest.mark.parametrize("scheme,viscosity", [
        ("rusanov", 0.5), ("rusanov", np.nan), ("godunov_burgers", 1e-3),
        ("viscous", 0.0), ("viscous", -0.5), ("viscous", np.nan),
        ("viscous", np.inf)])
    def test_viscosity_the_scheme_cannot_take_is_refused(self, scheme,
                                                         viscosity):
        # only the viscous scheme reads it, and it needs a finite eps > 0
        with pytest.raises(ValueError, match="viscosity"):
            SchemeConfig(lo=-1, hi=1, nx=100, t_end=0.3, scheme=scheme,
                         viscosity=viscosity)

    def test_distance_to_monotone_decreases_with_eps(self):
        cfg = SchemeConfig(lo=-1, hi=1, nx=200, t_end=0.5, store_every=10 ** 9)
        base = solve(BURGERS, riemann_data(1.0, 0.0, 0.0), cfg)
        dists = []
        for eps in (0.02, 0.01, 0.005):
            v = solve(BURGERS, riemann_data(1.0, 0.0, 0.0),
                      replace(cfg, scheme="viscous", viscosity=eps))
            dists.append(np.abs(v.data[-1] - base.data[-1]).sum() * base.dx)
        assert dists[0] > dists[1] > dists[2]

    def test_constant_preserved(self):
        cfg = SchemeConfig(lo=-1, hi=1, nx=100, t_end=0.3)
        u = solve(BURGERS, constant_data(0.4),
                  replace(cfg, scheme="viscous", viscosity=0.01))
        assert np.abs(u.data[-1] - 0.4).max() == 0.0

    def test_large_eps_smooths_profile(self):
        cfg = SchemeConfig(lo=-4, hi=4, nx=400, t_end=0.5, store_every=10 ** 9)
        u = solve(BURGERS, riemann_data(1.0, 0.0, 0.0),
                  replace(cfg, scheme="viscous", viscosity=1.0))
        # diagnostic only per the contract: report the largest jump
        assert np.abs(np.diff(u.data[-1])).max() < 0.05


class TestL1Distance:
    """``verifier.l1_masses``, the one L1 rule of the contraction and
    uniqueness checks, and the closed balls it is taken over."""

    def make_pair(self):
        times = np.array([0.0, 0.5])
        a = field_from_function(lambda p, t: np.ones(p.shape[:-1]),
                                -1, 1, 400, times)
        b = field_from_function(lambda p, t: np.zeros(p.shape[:-1]),
                                -1, 1, 400, times)
        return a, b

    def test_identical_fields(self):
        a, _ = self.make_pair()
        _, _, (ball,) = _balls(a, 0.0, [0.7])
        assert l1_masses(a.data, a.data, a.dx, ball).tolist() == [0.0, 0.0]
        assert l1_masses(a.data, a.data, a.dx).tolist() == [0.0, 0.0]

    def test_zero_radius(self):
        # no cell centre of the 400-cell grid lies at 0
        a, _ = self.make_pair()
        with pytest.raises(EmptyCone, match="holds no cell centre"):
            _balls(a, 0.0, [0.0])

    def test_step_functions(self):
        a, b = self.make_pair()
        _, _, (ball,) = _balls(a, 0.0, [0.5])
        for d in l1_masses(a.data, b.data, a.dx, ball):
            assert abs(d - 1.0) <= a.dx
        assert l1_masses(a.data, b.data, a.dx).tolist() == [2.0, 2.0]

    def test_grid_mismatch(self):
        a, b = self.make_pair()
        c = field_from_function(lambda p, t: np.ones(p.shape[:-1]),
                                -1, 1, 200, np.array([0.0, 0.5]))
        with pytest.raises(GridMismatch):
            a.require_compatible(c)
        with pytest.raises(GridMismatch):
            global_contraction_check(a, c, BURGERS, [1.0])

    def test_missing_level(self):
        a, _ = self.make_pair()
        with pytest.raises(MissingTimeLevels):
            a.level_index(0.3)

    @pytest.mark.parametrize("times", [[0.0, 0.4], [0.0, 0.25, 0.5]],
                             ids=["other_time", "other_count"])
    def test_time_levels_mismatch(self, times):
        a, _ = self.make_pair()
        c = field_from_function(lambda p, t: np.ones(p.shape[:-1]),
                                -1, 1, 400, np.array(times))
        with pytest.raises(GridMismatch, match="stored time levels"):
            a.require_compatible(c)
        with pytest.raises(GridMismatch, match="stored time levels"):
            global_contraction_check(a, c, BURGERS, [0.5])
        with pytest.raises(GridMismatch, match="stored time levels"):
            cone_contraction_profile(a, c, BURGERS, 0.5)

    def test_negative_radius(self):
        a, _ = self.make_pair()
        with pytest.raises(EmptyCone, match="holds no cell centre"):
            _balls(a, 0.0, [-0.1])

    @pytest.mark.parametrize("seed", range(20))
    def test_masked_stack_matches_levels(self, seed):
        # a boolean gather d[:, mask] of a stack is not C-ordered, and
        # numpy's summation order follows the layout: every level's mass
        # must still be bitwise its own masked sum
        rng = np.random.default_rng(seed)
        levels, nx = int(rng.integers(2, 7)), int(rng.integers(20, 70))
        a, b = (rng.normal(size=(levels, nx, nx)) for _ in range(2))
        mask = rng.random((nx, nx)) < 0.6
        cell = (6.0 / nx) ** 2
        per_level = [np.abs(a[n] - b[n])[mask].sum() * cell
                     for n in range(levels)]
        assert l1_masses(a, b, cell, mask).tolist() == per_level


class TestDiscreteEntropy:
    def test_violation_at_roundoff(self):
        cfg = SchemeConfig(lo=-1, hi=1, nx=200, t_end=0.5)
        viol = discrete_entropy_max_violation(
            BURGERS, riemann_data(1.0, 0.0, 0.0), cfg, np.linspace(-1, 1, 9))
        assert viol <= 1e-12

    def test_rarefaction_data_too(self):
        cfg = SchemeConfig(lo=-1, hi=1, nx=200, t_end=0.5, cfl=1.0)
        viol = discrete_entropy_max_violation(
            BURGERS, riemann_data(-0.5, 1.0, 0.1), cfg, np.linspace(-1, 1, 9))
        assert viol <= 1e-12

    def test_nonfinite_initial_data_raises(self):
        # max(-inf, nan) is -inf, so a NaN state must not reach the maximum
        cfg = SchemeConfig(lo=-1, hi=1, nx=100, t_end=0.2)
        with pytest.raises(BlowUp, match="initial data"):
            discrete_entropy_max_violation(
                BURGERS, lambda p: np.where(p[..., 0] < 0, np.nan, 0.0), cfg,
                np.linspace(-1, 1, 5))

    def test_state_turning_nonfinite_raises(self):
        # h is NaN on a state of the datum that the a-priori samples miss,
        # while h' stays finite, so the first step produces NaN states
        broken = _separable("nan_between", 1,
                            _nan_on(BURGERS.factors, *_BETWEEN_SAMPLES))
        cfg = SchemeConfig(lo=-1, hi=1, nx=100, t_end=0.2)
        with pytest.raises(BlowUp, match="at step 1 "):
            discrete_entropy_max_violation(
                broken, riemann_data(1.0, 0.91, 0.0), cfg,
                np.linspace(-1, 1, 5))

    def test_flux_dim_mismatch_raises(self):
        cfg = SchemeConfig(lo=-1, hi=1, nx=50, t_end=0.1)
        with pytest.raises(GridMismatch):
            discrete_entropy_max_violation(
                catalog_lookup("burgers2d"), constant_data(0.3), cfg, [0.0])

    @pytest.mark.parametrize("dim,scheme,match", [
        (2, "rusanov", "1-d"), (1, "viscous", "rusanov scheme"),
        (1, "godunov_burgers", "rusanov scheme")],
        ids=["dim_2", "viscous", "godunov_burgers"])
    def test_refuses_other_dims_and_schemes(self, dim, scheme, match):
        # the scan's Q is the rusanov flux of a 1-d sweep; refused before
        # the datum is sampled
        def unsampled(p):
            raise AssertionError("the datum was sampled")

        cfg = SchemeConfig(lo=-1, hi=1, nx=20, t_end=0.1, dim=dim,
                           scheme=scheme,
                           viscosity=0.02 if scheme == "viscous" else 0.0)
        with pytest.raises(ValueError, match=match):
            discrete_entropy_max_violation(
                catalog_lookup(f"burgers{dim}d"), unsampled, cfg, [0.0])

    @pytest.mark.parametrize("ks,match", [([np.nan], "nan"),
                                          ([0.5, np.nan], r"\[nan\]"),
                                          ([np.inf], "inf"),
                                          ([], "at least one k")])
    def test_refuses_nonfinite_or_missing_k(self, ks, match):
        # max(-inf, nan) is -inf: a non-finite k would pass any data, so it
        # is refused before the datum is even sampled
        def unsampled(p):
            raise AssertionError("the datum was sampled")

        cfg = SchemeConfig(lo=-1, hi=1, nx=50, t_end=0.1)
        with pytest.raises(ValueError, match=match):
            discrete_entropy_max_violation(BURGERS, unsampled, cfg, ks)

    def test_h_and_h_prime_once_per_step(self):
        # the scan reads the sides of the step it checks, so h and h' are
        # taken once per step; h once more per k for f(x, k), the set-up
        # samples h twice for the bound and h' once for the speed, and per
        # far-field state (cL = 1 and cR = -0.2 here) the stepper's rest
        # rule takes h and h' once and the scan's rest-cell term h once
        calls = {"h": 0, "h_prime": 0}

        def counted(name):
            fn = getattr(BURGERS.factors, name)

            def call(k):
                calls[name] += 1
                return fn(k)
            return call

        flux = replace(BURGERS, factors=replace(
            BURGERS.factors, h=counted("h"), h_prime=counted("h_prime")))
        cfg = SchemeConfig(lo=-1, hi=1, nx=100, t_end=0.3)
        ini, ks = riemann_data(1.0, -0.2, 0.1), np.linspace(-1, 1, 5)
        nsteps = len(solve(BURGERS, ini, cfg).times) - 1
        viol = discrete_entropy_max_violation(flux, ini, cfg, ks)
        far = 2
        assert calls == {"h": nsteps + len(ks) + 2 + 2 * far,
                         "h_prime": nsteps + 1 + far}
        assert viol == discrete_entropy_max_violation(BURGERS, ini, cfg, ks)


_OWNERSHIP_CASES = [(dim, boundary, scheme)
                    for dim in (1, 2) for boundary in ("outflow", "periodic")
                    for scheme in ("rusanov", "viscous", "godunov_burgers")
                    if not (dim == 2 and scheme == "godunov_burgers")]


def _ownership_config(dim, boundary, scheme):
    return SchemeConfig(lo=-1, hi=1, nx=40 if dim == 1 else 12, t_end=0.3,
                        scheme=scheme, boundary=boundary, dim=dim,
                        viscosity=0.02 if scheme == "viscous" else 0.0)


class TestBufferOwnership:
    """The stepper sweeps through buffers it keeps; what it returns and
    what it is given stay the caller's."""

    @pytest.mark.parametrize("dim,boundary,scheme", _OWNERSHIP_CASES)
    def test_steps_return_fresh_states_and_keep_input(self, dim, boundary,
                                                      scheme):
        flux = catalog_lookup(f"burgers{dim}d")
        config = _ownership_config(dim, boundary, scheme)
        make = solver_mod._Stepper1D if dim == 1 else solver_mod._Stepper2D
        dt = 0.2 * config.dx
        u0 = np.random.default_rng(7).uniform(-1.0, 1.0, (config.nx,) * dim)
        stepper, states = make(flux, config), [u0]
        for _ in range(5):
            given = states[-1].tobytes()
            states.append(stepper.step(states[-1], dt))
            assert states[-2].tobytes() == given
        # every kept state still holds its step, recomputed afterwards by
        # another stepper from copies
        fresh, u = make(flux, config), u0.copy()
        for kept in states[1:]:
            u = fresh.step(u.copy(), dt)
            assert kept.tobytes() == u.tobytes()

    @pytest.mark.parametrize("dim,boundary,scheme", _OWNERSHIP_CASES)
    def test_pair_of_one_datum_is_two_equal_fields(self, dim, boundary,
                                                   scheme):
        # a run that wrote its sampled u0 would start the second field
        # from another state
        flux = catalog_lookup(f"burgers{dim}d")
        config = _ownership_config(dim, boundary, scheme)
        ini = sine_data(0.4, 1.0, 0.2)
        u, v = solve_pair(flux, ini, ini, config)
        assert u.data.tobytes() == v.data.tobytes()
        assert u.times.tobytes() == v.times.tobytes()


class TestFiniteSpeed:
    def test_perturbation_outside_ball_stays_outside_cone(self):
        cfg = SchemeConfig(lo=-2, hi=2, nx=400, t_end=0.25, store_every=1)

        def perturbed(p):
            u = box_data(1.0, -0.5, 0.0)(p)
            return u + np.where(np.abs(p[..., 0]) > 1.0, 0.8, 0.0)

        base, other = solve_pair(BURGERS, box_data(1.0, -0.5, 0.0),
                                 perturbed, cfg)
        steps = len(base.times) - 1
        # one cell per step: the strict interior of the numerical cone around
        # B_1 is bitwise untouched by the outside perturbation
        safe = 1.0 - (steps + 1) * base.dx
        assert safe > 0.2
        mask = np.abs(base.centers) <= safe
        assert np.array_equal(base.data[-1][mask], other.data[-1][mask])


class TestTwoDim:
    def test_constant_2d(self):
        fb2 = catalog_lookup("burgers2d")
        cfg = SchemeConfig(lo=-1, hi=1, nx=32, t_end=0.2, dim=2)
        u = solve(fb2, constant_data(0.5), cfg)
        assert np.abs(u.data[-1] - 0.5).max() == 0.0

    def test_conservation_2d_periodic(self):
        fb2 = catalog_lookup("burgers2d")
        cfg = SchemeConfig(lo=-1, hi=1, nx=48, t_end=0.5, dim=2,
                           boundary="periodic", store_every=10 ** 9)
        u = solve(fb2, sine_data(0.3, 1.0, 0.4), cfg)
        assert abs((u.data[-1] - u.data[0]).sum()) * u.dx ** 2 < 1e-12

    def test_y_independent_data_matches_1d(self):
        fb2 = catalog_lookup("burgers2d")
        cfg2 = SchemeConfig(lo=-1, hi=1, nx=64, t_end=0.2, dim=2,
                            boundary="periodic", store_every=10 ** 9)
        u2 = solve(fb2, lambda p: 0.5 + 0.3 * np.sin(2 * np.pi * p[..., 0]), cfg2)
        # same dt: the 2-d run budgets cfl/2 per sweep
        cfg1 = SchemeConfig(lo=-1, hi=1, nx=64, t_end=0.2, dim=1,
                            boundary="periodic", store_every=10 ** 9, cfl=0.45)
        u1 = solve(BURGERS, sine_data(0.3, 1.0, 0.5), cfg1)
        assert np.abs(u2.data[-1] - u1.data[-1][:, None]).max() < 1e-13


def _slab_bytes(u: GridField) -> bytes:
    """u in the documented CLW3 layout: one header, the times, the data."""
    return (b"CLW3" + struct.pack("<IIIddd", u.dim, u.nx, len(u.times), u.lo,
                                  u.hi, u.bound_M)
            + u.times.astype("<f8").tobytes() + u.data.astype("<f8").tobytes())


class TestSerialization:
    def make_field(self):
        # lo + nx * dx is one ulp above hi on this grid
        cfg = SchemeConfig(lo=0.1, hi=0.9, nx=333, t_end=0.25, store_every=10)
        return solve(BURGERS, riemann_data(1.0, 0.0, 0.5), cfg)

    def test_slab_roundtrip(self, tmp_path):
        u = self.make_field()
        write_slabs(tmp_path / "slabs", u)
        back = load_field(tmp_path / "slabs")
        assert np.array_equal(back.times, u.times)
        assert np.array_equal(back.data, u.data)
        assert back.dx == u.dx
        assert back.hi == u.hi
        assert back.bound_M == u.bound_M
        # the loaded arrays are the caller's to write, as the solver's are
        assert back.times.flags.writeable and back.data.flags.writeable

    def test_file_holds_every_level_as_one_record(self, tmp_path):
        u = self.make_field()
        paths = write_slabs(tmp_path / "slabs", u)
        assert paths == [tmp_path / "slabs" / "field.slab"]
        assert paths == sorted((tmp_path / "slabs").glob("*.slab"))
        assert paths[0].read_bytes() == _slab_bytes(u)

    @pytest.mark.parametrize("cut,extra", [
        (8, b""), (1, b""), (0, bytes(5)), (0, b"x" * 100)],
        ids=["cut_8", "cut_1", "trailing_5", "trailing_100"])
    def test_refuses_last_record_cut_short_or_trailing_bytes(
            self, tmp_path, cut, extra):
        u = self.make_field()
        whole = _slab_bytes(u)
        bad = tmp_path / "bad.slab"
        bad.write_bytes(whole[:len(whole) - cut] + extra)
        with pytest.raises(FieldFileError) as info:
            load_field(bad)
        size = len(whole) - cut + len(extra)
        assert str(info.value) == (
            f"{bad}: {size} bytes, expected {len(whole)} for "
            f"nt = {len(u.times)} levels of nx**dim = {u.nx} cells")

    def test_single_slab_loads(self, tmp_path):
        u = self.make_field()
        first = replace(u, times=u.times[:1], data=u.data[:1])
        (tmp_path / "one.slab").write_bytes(_slab_bytes(first))
        single = load_field(tmp_path / "one.slab")
        assert len(single.times) == 1
        assert np.array_equal(single.data[0], u.data[0])

    def test_refuses_old_version(self, tmp_path):
        u = self.make_field()
        # the CLW1 layout: magic, dim, nx, dx, origin per axis, time, data
        (tmp_path / "field.slab").write_bytes(
            b"CLW1" + struct.pack("<IIddd", 1, u.nx, u.dx, u.lo, 0.0)
            + u.data[0].tobytes())
        with pytest.raises(FieldFileError, match="CLW1"):
            load_field(tmp_path)

    @pytest.mark.parametrize("header,payload,defect", [
        (b"CLW3" + bytes(10), b"", "header cut short"),
        (b"CLW3" + struct.pack("<IIIddd", 3, 2, 1, 0.0, 1.0, 1.0),
         bytes(72), "bad grid"),
        (b"CLW3" + struct.pack("<IIIddd", 1, 0, 1, 0.0, 1.0, 1.0),
         bytes(8), "bad grid"),
        (b"CLW3" + struct.pack("<IIIddd", 1, 4, 1, 0.0, 1.0, 1.0),
         bytes(41), "81 bytes, expected 80"),
    ], ids=["short_header", "dim_3", "nx_0", "long_payload"])
    def test_refuses_malformed(self, tmp_path, header, payload, defect):
        (tmp_path / "bad.slab").write_bytes(header + payload)
        with pytest.raises(FieldFileError, match=defect):
            load_field(tmp_path / "bad.slab")

    def test_unknown_initial_kind_rejected(self):
        from clawlab.grids import InitialData
        bad = InitialData("wiggle", {})
        with pytest.raises(ValueError, match="wiggle"):
            bad.sample(np.zeros((3, 1)))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]),
           grid=st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6),
                          st.integers(1, 40)).map(
               lambda t: (t[0], t[0] + t[1], t[2])),
           times=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3,
                          unique=True).map(sorted),
           values=st.lists(st.one_of(
               st.floats(allow_nan=True, allow_infinity=True),
               st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                                -2.2250738585072014e-308])),
               min_size=1, max_size=64),
           excess=st.floats(0.5, 1e3))
    @example(dim=1, grid=(0.1, 0.9, 333), times=[0.25],
             values=[0.5, -0.0, 5e-324], excess=1.0)
    @example(dim=2, grid=(0.1, 0.9, 333), times=[0.0, 0.5],
             values=[np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.75],
             excess=0.5)
    @example(dim=2, grid=(-1.0, 1.0, 1), times=[0.0], values=[-0.0],
             excess=2.0)
    def test_slab_roundtrip_exact(self, tmp_path_factory, dim, grid, times,
                                  values, excess):
        lo, hi, nx = grid
        # the drawn values tiled over every stored cell
        arr = np.resize(np.array(values, dtype=float),
                        (len(times),) + (nx,) * dim)
        finite = np.abs(arr[np.isfinite(arr)])
        bound = (finite.max() if finite.size else 0.0) + excess
        u = GridField(dim, lo, hi, nx, np.array(times), arr, bound)
        directory = tmp_path_factory.mktemp("s")
        write_slabs(directory, u)
        back = load_field(directory)
        assert (back.dim, back.nx) == (u.dim, u.nx)
        assert back.lo == u.lo and back.hi == u.hi
        assert back.bound_M == u.bound_M
        assert back.times.tobytes() == u.times.tobytes()
        assert back.data.shape == u.data.shape
        assert back.data.tobytes() == u.data.tobytes()


# small fields of either dimension: nx^dim cells over nt strictly
# increasing times, with values drawn from a seed
_small_fields = st.builds(
    lambda dim, nx, nt, seed: GridField(
        dim, -1.0, 1.0, nx, np.cumsum(np.full(nt, 0.25)) - 0.25,
        np.random.default_rng(seed).normal(size=(nt,) + (nx,) * dim), 3.0),
    st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 3),
    st.integers(0, 2 ** 32 - 1))


class TestSlabRefusals:
    """A damaged slab file is refused with a FieldFileError that names
    the file, never with a struct or numpy error."""

    @staticmethod
    def written(tmp_path_factory, u: GridField):
        """The path and bytes of u written as a field directory."""
        (path,) = write_slabs(tmp_path_factory.mktemp("f"), u)
        return path, path.read_bytes()

    @staticmethod
    def refused(path, raw: bytes) -> str:
        path.write_bytes(raw)
        with pytest.raises(FieldFileError) as info:
            load_field(path.parent)
        assert str(info.value).startswith(f"{path}: ")
        return str(info.value)

    @settings(max_examples=15, deadline=None)
    @given(u=_small_fields)
    def test_every_truncation_refused(self, tmp_path_factory, u):
        path, whole = self.written(tmp_path_factory, u)
        for size in range(len(whole)):
            self.refused(path, whole[:size])

    @settings(max_examples=30, deadline=None)
    @given(u=_small_fields, extra=st.binary(min_size=1, max_size=24))
    def test_appended_bytes_refused(self, tmp_path_factory, u, extra):
        path, whole = self.written(tmp_path_factory, u)
        assert "bytes, expected" in self.refused(path, whole + extra)

    @settings(max_examples=30, deadline=None)
    @given(u=_small_fields, field=st.sampled_from(
        [(4, 0), (4, 3), (8, 0), (12, 0)]))
    def test_bad_dim_nx_or_nt_refused(self, tmp_path_factory, u, field):
        # dim (at offset 4) 0 or 3, nx (8) or nt (12) 0
        offset, value = field
        path, whole = self.written(tmp_path_factory, u)
        raw = whole[:offset] + struct.pack("<I", value) + whole[offset + 4:]
        assert "bad grid" in self.refused(path, raw)

    @settings(max_examples=30, deadline=None)
    @given(u=_small_fields.filter(lambda u: len(u.times) >= 2),
           data=st.data())
    def test_time_made_non_increasing_refused(self, tmp_path_factory, u,
                                              data):
        n = data.draw(st.integers(1, len(u.times) - 1))
        u.times[n] = data.draw(st.sampled_from(
            [u.times[n - 1], u.times[n - 1] - 0.1, np.nan]))
        path = self.written(tmp_path_factory, u)[0]
        with pytest.raises(FieldFileError, match="not strictly increasing"):
            load_field(path)

    @settings(max_examples=20, deadline=None)
    @given(u=_small_fields, version=st.sampled_from([b"CLW1", b"CLW2"]))
    def test_old_versions_named(self, tmp_path_factory, u, version):
        path, whole = self.written(tmp_path_factory, u)
        message = self.refused(path, version + whole[4:])
        assert f"slab version {version.decode()} is no longer read" in message
        assert "run the experiment again" in message


class TestFileInitialData:
    def test_resamples_stored_level_zero(self, tmp_path):
        from clawlab.grids import file_data
        cfg = SchemeConfig(lo=-1, hi=1, nx=64, t_end=0.2, store_every=10 ** 9)
        u = solve(BURGERS, sine_data(0.3, 1.0, 0.5), cfg)
        write_slabs(tmp_path / "seed", u)
        data = file_data(tmp_path / "seed")
        pts = u.centers_points()
        assert np.allclose(data(pts), u.data[0], atol=1e-15)
        # restarting from the stored initial slab reproduces the run
        again = solve(BURGERS, data, cfg)
        assert np.array_equal(again.data[-1], u.data[-1])

    def test_sampling_maps_only_level_zero(self, tmp_path):
        # a 400-level 64^2 slab, 13.1 MB: sampling the datum pages in the
        # header, the times and level 0, and allocates no copy of the file
        from clawlab.grids import file_data
        levels = np.random.default_rng(3).normal(size=(400, 64, 64))
        u = GridField(2, -1.0, 1.0, 64, np.arange(400) * 0.01, levels, 5.0)
        (path,) = write_slabs(tmp_path, u)
        del levels
        pts = u.centers_points()
        data = file_data(tmp_path)
        tracemalloc.start()
        try:
            sampled = data(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 13_110_440
        assert peak < path.stat().st_size / 10, peak
        assert np.array_equal(sampled, u.data[0])


class TestLoadedFieldIsACopy:
    """A loaded field is writable, and writing it leaves the file as it
    was."""

    def test_writes_leave_the_file(self, tmp_path):
        u = GridField(2, -1.0, 1.0, 3, np.array([0.0, 0.5]),
                      np.arange(18.0).reshape(2, 3, 3), 17.0)
        (path,) = write_slabs(tmp_path, u)
        before = path.read_bytes()
        back = load_field(tmp_path)
        assert back.data.flags.writeable and back.times.flags.writeable
        back.data[0] = -1.0
        back.times[1] = 7.0
        assert path.read_bytes() == before
        del back
        again = load_field(path)
        assert again.data.tobytes() == u.data.tobytes()
        assert again.times.tobytes() == u.times.tobytes()

    def test_field_written_over_its_own_file(self, tmp_path):
        # the loaded field maps the file it is written over: the new file
        # replaces the old one, whose pages the field keeps
        u = GridField(1, -1.0, 1.0, 50_000, np.array([0.0, 0.5]),
                      np.random.default_rng(4).normal(size=(2, 50_000)), 5.0)
        write_slabs(tmp_path, u)
        back = load_field(tmp_path)
        write_slabs(tmp_path, back)
        assert back.data.tobytes() == u.data.tobytes()
        assert load_field(tmp_path).data.tobytes() == u.data.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["field.slab"]

    def test_empty_file_refused(self, tmp_path):
        (tmp_path / "field.slab").write_bytes(b"")
        with pytest.raises(FieldFileError,
                           match=r"header cut short \(0 of 40 bytes\)"):
            load_field(tmp_path)

    @pytest.mark.parametrize("head,match", [
        (b"C", r"header cut short \(1 of"), (b"CLW", r"header cut short \(3 of"),
        (b"CLW3", r"header cut short \(4 of"), (b"CX", r"not a slab file"),
        (b"CLW9", r"not a slab file \(magic b'CLW9'\)")])
    def test_file_cut_inside_its_magic_is_cut_short(self, tmp_path, head,
                                                    match):
        # a proper prefix of the magic is a header cut short, any other
        # start a foreign file
        (tmp_path / "field.slab").write_bytes(head)
        with pytest.raises(FieldFileError, match=match):
            load_field(tmp_path)


def _two_axis_box(p, pts):
    """The 2-d box datum written axis by axis, as the sampler once was."""
    x, y = pts[..., 0], pts[..., 1]
    inside = (x >= p["lo"]) & (x <= p["hi"])
    inside &= (y >= p["lo"]) & (y <= p["hi"])
    return np.where(inside, p["height"], 0.0)


def _two_axis_sine(p, pts):
    """The 2-d sine datum written axis by axis, as the sampler once was."""
    val = p["amp"] * np.sin(2.0 * np.pi * p["freq"] * pts[..., 0])
    val = val * np.sin(2.0 * np.pi * p["freq"] * pts[..., 1])
    return p["offset"] + val


class TestInitialDataInD:
    """``box`` and ``sine`` take every axis of the points in one rule; in
    2-d they give the bits of the two-axis formulas."""

    @settings(max_examples=60, deadline=None)
    @given(height=st.floats(-5.0, 5.0), lo=st.floats(-2.0, 1.0),
           width=st.floats(0.0, 3.0), amp=st.floats(-3.0, 3.0),
           freq=st.floats(0.0, 4.0), offset=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_2d_data_equal_two_axis_formulas(self, height, lo, width, amp,
                                             freq, offset, seed):
        hi = lo + width
        # random points, and points on the box's bounds and just outside
        edge = [lo, hi, np.nextafter(lo, -3.0), np.nextafter(hi, 3.0)]
        pts = np.concatenate([
            np.random.default_rng(seed).uniform(-3.0, 3.0, (50, 2)),
            np.stack(np.meshgrid(edge, edge), axis=-1).reshape(-1, 2)])
        box = box_data(height, lo, hi)
        sine = sine_data(amp, freq, offset)
        assert (box(pts).tobytes()
                == _two_axis_box(box.params, pts).tobytes())
        assert (sine(pts).tobytes()
                == _two_axis_sine(sine.params, pts).tobytes())

    def test_3d_data_multiply_in_axis_order(self):
        pts = np.random.default_rng(1).uniform(-1.0, 1.0, (40, 3))
        sine = sine_data(0.7, 0.5, 0.1)
        s = [np.sin(2.0 * np.pi * 0.5 * pts[..., a]) for a in range(3)]
        assert np.array_equal(sine(pts), 0.1 + ((0.7 * s[0]) * s[1]) * s[2])
        inside = np.all(np.abs(pts) <= 0.5, axis=-1)
        assert np.array_equal(box_data(2.0, -0.5, 0.5)(pts),
                              np.where(inside, 2.0, 0.0))


class TestSolvePair:
    def test_shared_levels(self):
        cfg = SchemeConfig(lo=-1, hi=1, nx=128, t_end=0.3, store_every=3)
        u, v = solve_pair(BURGERS, sine_data(0.3, 1.0, 0.5),
                          sine_data(0.2, 1.0, 0.4), cfg)
        assert np.array_equal(u.times, v.times)
        u.require_compatible(v)

    def test_step_from_bound_of_larger_datum(self):
        # div_x f = sin(40 k) makes the sampled a-priori bound non-monotone
        # in m0: the smaller datum has the larger bound and alone takes more
        # steps, yet the pair marches with the step of the larger datum.
        # g = 1 with a declared g' = 1, h = sin(40 k) and a declared h' = k
        # give that div_x f and the Burgers speed, and constant data rest
        wavy = _separable("wavy", 1, Separable(
            np.ones_like, np.ones_like, lambda k: np.sin(40.0 * k),
            lambda k: k, np.zeros_like))
        cfg = SchemeConfig(lo=-1, hi=1, nx=50, t_end=0.5)
        u, v = solve_pair(wavy, constant_data(0.33), constant_data(0.34), cfg)
        small, large = (solve(wavy, constant_data(m), cfg) for m in (0.33, 0.34))
        assert len(small.times) > len(large.times)
        assert np.array_equal(u.times, large.times)
        assert np.array_equal(v.times, large.times)

    def test_x_factors_evaluated_once_per_run(self):
        # a pair of data with two different max|u0| takes two a-priori
        # bounds, four sups of div_x f and one of d_k f; the x-factors'
        # maxima depend on the grid alone, so g' is taken once, and g once
        # on the lattice and once on the cell edges for the stepper
        product = catalog_lookup("product2d")
        calls = {"g": 0, "g_prime": 0}

        def counted(name):
            fn = getattr(product.factors, name)

            def call(x):
                calls[name] += 1
                return fn(x)
            return call

        flux = replace(product, factors=replace(
            product.factors, g=counted("g"), g_prime=counted("g_prime")))
        cfg = SchemeConfig(lo=-3, hi=3, nx=24, t_end=0.2, dim=2)
        data = box_data(1.0, -0.5, 0.0), box_data(0.8, -0.4, 0.1)
        fields = solve_pair(flux, *data, cfg)
        assert calls == {"g": 2, "g_prime": 1}
        for counted_field, field in zip(fields,
                                        solve_pair(product, *data, cfg)):
            assert counted_field.data.tobytes() == field.data.tobytes()
            assert counted_field.bound_M == field.bound_M


def _metamorphic_config(dim, scheme, boundary="periodic"):
    return SchemeConfig(lo=-1, hi=1, nx=64 if dim == 1 else 24, t_end=0.3,
                        scheme=scheme, boundary=boundary, dim=dim,
                        viscosity=0.02 if scheme == "viscous" else 0.0)


def _metamorphic_datum(dim, nx, seed):
    """Random states, in 2-d with a +0.0 block wrapped across both periodic
    edges around a random inner block, so that the active window of the 2-d
    stepper is short of the grid on one datum and whole on its shift."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        return rng.uniform(-1.0, 1.0, nx)
    u = np.zeros((nx, nx))
    u[6:15, 8:18] = rng.uniform(-1.0, 1.0, (9, 10))
    return u


def _states(name, u0, config, **params):
    # u0 is returned as given: sampling on the cell centres would break the
    # relations at the data, since a shifted or negated centre is not
    # bitwise another centre
    return solve(catalog_lookup(name, params), lambda p: u0, config).data


class TestMetamorphic:
    """Relations between runs of related data that hold exactly."""

    @pytest.mark.parametrize("name,params", [
        ("burgers1d", {}), ("burgers2d", {}), ("advection1d", {"c": -0.7})])
    @pytest.mark.parametrize("scheme", ["rusanov", "viscous"])
    @pytest.mark.parametrize("seed", range(3))
    def test_translation_by_whole_cells(self, name, params, scheme, seed):
        dim = catalog_lookup(name, params).dim
        config = _metamorphic_config(dim, scheme)
        u0 = _metamorphic_datum(dim, config.nx, seed)
        shift = (7,) if dim == 1 else (12, -11)
        axes = tuple(range(1, dim + 1))
        base = _states(name, u0, config, **params)
        moved = _states(name, np.roll(u0, shift, range(dim)), config, **params)
        # bitwise, sign bits included
        assert moved.tobytes() == np.roll(base, shift, axes).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("boundary", ["outflow", "periodic"])
    @pytest.mark.parametrize("seed", range(3))
    def test_reflection_of_burgers(self, dim, boundary, seed):
        # u0 -> -flip(u0) maps the Burgers solution to -flip(u): under
        # Rusanov every interface flux is the mirror one, operation for
        # operation
        config = _metamorphic_config(dim, "rusanov", boundary)
        u0 = _metamorphic_datum(dim, config.nx, seed)
        axes = tuple(range(1, dim + 1))
        base = _states(f"burgers{dim}d", u0, config)
        mirror = _states(f"burgers{dim}d", -np.flip(u0), config)
        # bitwise; 0.0 - x negates and writes a zero as +0.0, as the run
        # samples the -0.0 of the mirrored data
        assert mirror.tobytes() == (0.0 - np.flip(base, axes)).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_reflection_of_viscous_burgers_to_roundoff(self, dim, seed):
        # the viscous update associates its Laplacian as
        # (u_{i+1} - 2 u_i) + u_{i-1}, which reflection turns into
        # (u_{i-1} - 2 u_i) + u_{i+1}: equal only to a few ulps of
        # |u| <= 1
        config = _metamorphic_config(dim, "viscous")
        u0 = _metamorphic_datum(dim, config.nx, seed)
        axes = tuple(range(1, dim + 1))
        base = _states(f"burgers{dim}d", u0, config)
        mirror = _states(f"burgers{dim}d", -np.flip(u0), config)
        assert np.abs(mirror + np.flip(base, axes)).max() <= 1e-15
