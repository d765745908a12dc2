import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawlab import entropy
from clawlab import verifier as verifier_mod
from clawlab.entropy import make_kruzkov_pair, make_smooth_pair
from clawlab.errors import (EmptyCone, MissingTimeLevels, SampleNearShock,
                            SupportExceedsDomain)
from clawlab.flux import (Separable, _separable, catalog_lookup,
                          lipschitz_constant)
from clawlab.grids import (GridField, box_data, field_from_function,
                           sine_data)
from clawlab.mollifiers import ConeSpec, bump_test_function, contraction_test_function
from clawlab.quadrature import adaptive_gauss_legendre
from clawlab.solver import (SchemeConfig, exact_riemann_burgers, solve,
                            solve_pair)
from clawlab.verifier import (cone_contraction_profile, doubling_diagnostics,
                              entropy_residual, entropy_residual_sweep,
                              find_smooth_samples,
                              global_contraction_check, kato_lhs,
                              uniqueness_experiment, write_profile_csv)
from test_reference_equivalence import _pairwise_terms, _reference_step

BURGERS = catalog_lookup("burgers1d")
PRODUCT = catalog_lookup("product1d")
XSQ = catalog_lookup("xsquared1d")


def const_field(value, lo=-1.0, hi=1.0, nx=400, t1=1.0, nlev=200):
    times = np.linspace(0.0, t1, nlev + 1)
    return field_from_function(lambda p, t: np.full(p.shape[:-1], value),
                               lo, hi, nx, times)


def shock_field(ul, ur, lo=-0.5, hi=1.0, nx=1200, t1=0.5, nlev=400, x0=0.0):
    speed = 0.5 * (ul + ur)
    times = np.linspace(0.0, t1, nlev + 1)
    return field_from_function(
        lambda p, t: np.where(p[..., 0] < x0 + speed * t, ul, ur),
        lo, hi, nx, times)


class TestEntropyResidual:
    def test_constant_field_vanishes(self):
        u = const_field(0.7)
        phi = bump_test_function(0.0, 0.5, 0.2, 0.8)
        for pair in (make_kruzkov_pair(BURGERS, 0.2),
                     make_smooth_pair(BURGERS, 0.2, 16)):
            rep = entropy_residual(u, BURGERS, pair, phi)
            assert abs(rep.value) <= 1e-10
            assert rep.passed

    def test_entropic_shock_strictly_positive(self):
        u = shock_field(1.0, 0.0)
        phi = bump_test_function(0.125, 0.25, 0.05, 0.45)
        rep = entropy_residual(u, BURGERS, make_kruzkov_pair(BURGERS, 0.5), phi)
        # closed form: residual = 0.25 * int phi(shock path) dt
        oracle = 0.25 * adaptive_gauss_legendre(
            lambda ts: np.array([phi.value(np.array([[0.5 * t]]), t).item()
                                 for t in ts]), 0.05, 0.45, tol=1e-9)
        assert rep.value == pytest.approx(oracle, rel=2e-2)
        assert rep.value > 0
        assert rep.passed

    def test_expansion_shock_fails(self):
        u = shock_field(0.0, 1.0)   # jump joined at Rankine-Hugoniot speed
        phi = bump_test_function(0.125, 0.25, 0.05, 0.45)
        rep = entropy_residual(u, BURGERS, make_kruzkov_pair(BURGERS, 0.5), phi)
        assert rep.value < -rep.tolerance
        assert not rep.passed

    def test_expansion_shock_passes_for_outside_k0(self):
        # for k0 outside (ul, ur) the jump terms cancel by conservation
        u = shock_field(0.0, 1.0)
        phi = bump_test_function(0.125, 0.25, 0.05, 0.45)
        rep = entropy_residual(u, BURGERS, make_kruzkov_pair(BURGERS, 2.0), phi)
        assert abs(rep.value) <= rep.tolerance

    def test_pure_source_flux_smooth_solution(self):
        # d/dt u = -2x for the k-independent flux; the residual reduces to
        # int int [dt(phi) eta(u) - 2x phi eta'(u)], which vanishes for the
        # exact solution regardless of data; the scheme reproduces it to
        # within the discretization slack
        cfg = SchemeConfig(lo=-1, hi=1, nx=400, t_end=0.5, store_every=2)
        u = solve(XSQ, sine_data(0.3, 1.0, 0.2), cfg)
        phi = bump_test_function(0.0, 0.4, 0.1, 0.4)
        for k0 in (-0.4, 0.0, 0.3):
            for pair in (make_kruzkov_pair(XSQ, k0),
                         make_smooth_pair(XSQ, k0, 16)):
                rep = entropy_residual(u, XSQ, pair, phi)
                assert rep.passed
                assert abs(rep.value) <= rep.tolerance

    def test_inhomogeneous_flux_smooth_solution(self):
        # all four integrand terms are active for the product flux; a smooth
        # pre-shock solution must stay within the negative slack for every
        # pair in the sweep
        cfg = SchemeConfig(lo=-1, hi=1, nx=400, t_end=0.3, store_every=2)
        u = solve(PRODUCT, sine_data(0.25, 1.0, 0.4), cfg)
        phi = bump_test_function(0.0, 0.4, 0.05, 0.25)
        for k0 in np.linspace(-0.65, 0.65, 9):
            for pair in (make_kruzkov_pair(PRODUCT, k0),
                         make_smooth_pair(PRODUCT, k0, 16)):
                rep = entropy_residual(u, PRODUCT, pair, phi)
                assert rep.passed, (pair.label, rep.value, rep.tolerance)

    def test_constant_field_2d(self):
        times = np.linspace(0.0, 1.0, 41)
        u = field_from_function(lambda p, t: np.full(p.shape[:-1], 0.4),
                                -1, 1, 48, times, dim=2)
        fb2 = catalog_lookup("burgers2d")
        phi = bump_test_function(np.zeros(2), 0.5, 0.2, 0.8, dim=2)
        rep = entropy_residual(u, fb2, make_kruzkov_pair(fb2, 0.1), phi)
        assert abs(rep.value) <= 1e-10

    def test_smooth_pair_constant_field_2d(self):
        # smooth pairs broadcast their states against 2-d point lattices
        times = np.linspace(0.0, 1.0, 21)
        u = field_from_function(lambda p, t: np.full(p.shape[:-1], 0.4),
                                -2, 2, 40, times, dim=2)
        fb2 = catalog_lookup("burgers2d")
        phi = bump_test_function(np.zeros(2), 1.0, 0.2, 0.8, dim=2)
        for n in (4, 16, 64):
            rep = entropy_residual(u, fb2, make_smooth_pair(fb2, 0.1, n), phi)
            assert abs(rep.value) <= 1e-12
            assert rep.passed

    def test_sweep_equals_separate_calls(self):
        cfg = SchemeConfig(lo=-1, hi=1, nx=300, t_end=0.5, store_every=2)
        u = solve(PRODUCT, sine_data(0.3, 1.0, 0.45), cfg)
        phi = bump_test_function(0.1, 0.45, 0.05, 0.4)
        pairs = [make_kruzkov_pair(PRODUCT, k0) for k0 in (-0.4, 0.2, 0.6)]
        pairs += [make_smooth_pair(PRODUCT, 0.0, n) for n in (4, 16, 64)]
        sweep = entropy_residual_sweep(u, PRODUCT, pairs, phi)
        single = [entropy_residual(u, PRODUCT, p, phi) for p in pairs]
        for a, b in zip(sweep, single, strict=True):
            assert (a.value, a.tolerance, a.passed, a.metadata) == \
                (b.value, b.tolerance, b.passed, b.metadata)

    def test_sweep_takes_factors_once_per_chunk(self):
        # per chunk of levels, g, the sum of g' and h are each called once
        # and h' once if there are smooth pairs, whatever the number of
        # pairs; phi is evaluated once per chunk too, the smooth pairs of
        # one k0 share one breakpoint set, and no FluxSpec or EntropyPair
        # callable is called
        calls = collections.Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        fac = PRODUCT.factors

        class CountedFactors(Separable):
            def g_prime_sum(self, pts):
                calls["g_prime_sum"] += 1
                return super().g_prime_sum(pts)

        flux = _separable("counted", 1, CountedFactors(
            counted("g", fac.g), fac.g_prime, counted("h", fac.h),
            counted("h_prime", fac.h_prime), counted("V", fac.V)))
        flux = dataclasses.replace(flux, **{
            name: counted(name, getattr(flux, name))
            for name in ("eval", "dk", "div_x", "grad_x_components")})
        cfg = SchemeConfig(lo=-1, hi=1, nx=300, t_end=0.5)
        u = solve(PRODUCT, sine_data(0.3, 1.0, 0.45), cfg)
        bump = bump_test_function(0.1, 0.45, 0.05, 0.4)
        phi = dataclasses.replace(bump, value=counted("phi", bump.value))

        def pair(make, *args):
            p = make(flux, *args)
            return dataclasses.replace(p, **{
                name: counted("pair", getattr(p, name))
                for name in ("eta", "eta_prime", "q", "div_x_q")})

        tables = entropy._state_tables

        def state_tables(k0, k):
            calls["tables"] += 1
            return tables(k0, k)

        one = [pair(make_kruzkov_pair, 0.2)]
        twelve = ([pair(make_kruzkov_pair, k0)
                   for k0 in np.linspace(-0.6, 0.6, 8)]
                  + [pair(make_smooth_pair, 0.0, n) for n in (4, 16, 64)]
                  + [pair(make_smooth_pair, 0.3, 16)])
        counts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "_state_tables", state_tables)
            for pairs in (one, twelve):
                calls.clear()
                entropy_residual_sweep(u, flux, pairs, phi)
                counts.append(dict(calls))
        chunks = counts[0]["phi"]
        assert chunks > 1
        assert counts[0] == {"phi": chunks, "g": chunks,
                             "g_prime_sum": chunks, "h": chunks}
        assert counts[1] == {**counts[0], "h_prime": chunks,
                             "tables": 2 * chunks}

    def test_pair_of_another_flux_refused(self):
        # the factored sweep reads only a pair's kind, k0 and n, so a pair
        # built for another flux would add its flux's q to this one's
        # div_x f; the sweep refuses it instead
        u = const_field(0.4)
        phi = bump_test_function(0.0, 0.5, 0.2, 0.8)
        for pair in (make_kruzkov_pair(BURGERS, 0.2),
                     make_smooth_pair(BURGERS, 0.0, 16)):
            with pytest.raises(ValueError, match=re.escape(pair.label)):
                entropy_residual_sweep(
                    u, PRODUCT, [make_kruzkov_pair(PRODUCT, 0.1), pair], phi)
            with pytest.raises(ValueError, match=re.escape(pair.label)):
                entropy_residual(u, PRODUCT, pair, phi)
        # another object of the same catalog entry is another flux too
        other = catalog_lookup("product1d")
        with pytest.raises(ValueError, match="kruzkov"):
            entropy_residual(u, PRODUCT, make_kruzkov_pair(other, 0.1), phi)

    def test_sweep_anti_test_fails(self):
        u = shock_field(0.0, 1.0)
        phi = bump_test_function(0.125, 0.25, 0.05, 0.45)
        pairs = [make_kruzkov_pair(BURGERS, k0) for k0 in (0.5, 2.0)]
        inside, outside = entropy_residual_sweep(u, BURGERS, pairs, phi)
        assert inside.value < -inside.tolerance
        assert not inside.passed
        assert outside.passed

    def test_solver_shock_full_sweep(self):
        # monotone schemes produce entropy, never consume it: the captured
        # shock passes the weak inequality for the whole default sweep
        from clawlab.entropy import default_k0_sweep
        from clawlab.grids import riemann_data
        cfg = SchemeConfig(lo=-0.5, hi=1.0, nx=600, t_end=0.5, store_every=2)
        u = solve(BURGERS, riemann_data(1.0, 0.0, 0.0), cfg)
        phi = bump_test_function(0.125, 0.25, 0.05, 0.45)
        for k0 in default_k0_sweep(1.0, 9):
            rep = entropy_residual(u, BURGERS, make_kruzkov_pair(BURGERS, k0),
                                   phi)
            assert rep.passed
        for n in (4, 16, 64):
            rep = entropy_residual(u, BURGERS, make_smooth_pair(BURGERS, 0.0, n),
                                   phi)
            assert rep.passed

    def test_support_checks(self):
        u = const_field(0.0, lo=-1, hi=1)
        wide = bump_test_function(0.0, 1.5, 0.2, 0.8)
        with pytest.raises(SupportExceedsDomain):
            entropy_residual(u, BURGERS, make_kruzkov_pair(BURGERS, 0.0), wide)
        late = bump_test_function(0.0, 0.5, 0.8, 1.4)
        with pytest.raises(SupportExceedsDomain):
            entropy_residual(u, BURGERS, make_kruzkov_pair(BURGERS, 0.0), late)

    def test_missing_levels(self):
        u = const_field(0.0, nlev=2)   # levels at 0, 0.5, 1.0
        narrow = bump_test_function(0.0, 0.5, 0.40, 0.45)
        with pytest.raises(MissingTimeLevels):
            entropy_residual(u, BURGERS, make_kruzkov_pair(BURGERS, 0.0), narrow)


class TestWeakSumChunks:
    """The weak-form quadrature takes whole levels in chunks of at most
    ``_CHUNK_CELLS`` box cells, or one level where one level's box holds
    more."""

    @staticmethod
    def chunked(phi, chunks):
        # (box cells, levels) of every chunk, read off phi's evaluations
        def value(P, tq):
            chunks.append((P[..., 0].size, (tq.size - 1) // 2))
            return phi.value(P, tq)
        return dataclasses.replace(phi, value=value)

    @staticmethod
    def window_levels(u, phi):
        levels, _ = verifier_mod._support_window(u, phi)
        return len(levels)

    @staticmethod
    def pair_2d():
        fb2 = catalog_lookup("burgers2d")
        cfg = SchemeConfig(lo=-1, hi=1, nx=120, t_end=0.3, dim=2,
                           store_every=2)

        def sq(lo):
            return lambda p: np.where(
                (np.abs(p[..., 0] - lo) < 0.3) & (np.abs(p[..., 1]) < 0.3),
                1.0, 0.0)

        u, v = solve_pair(fb2, sq(-0.1), sq(0.1), cfg)
        return fb2, u, v, bump_test_function([0.0, 0.0], 0.6, 0.05, 0.25,
                                             dim=2)

    def test_chunks_fill_the_budget(self):
        budget = verifier_mod._CHUNK_CELLS
        cfg = SchemeConfig(lo=-1, hi=1, nx=300, t_end=0.5)
        u = solve(PRODUCT, sine_data(0.3, 1.0, 0.45), cfg)
        bump = bump_test_function(0.1, 0.45, 0.05, 0.4)
        chunks = []
        entropy_residual_sweep(u, PRODUCT,
                               [make_kruzkov_pair(PRODUCT, 0.2)],
                               self.chunked(bump, chunks))
        cells = chunks[0][0]
        per_chunk = budget // cells
        assert 1 < per_chunk and cells * per_chunk <= budget
        assert [n for _, n in chunks[:-1]] == [per_chunk] * (len(chunks) - 1)
        assert 1 <= chunks[-1][1] <= per_chunk
        assert sum(n for _, n in chunks) == self.window_levels(u, bump)

    def test_box_above_budget_runs_one_level_per_chunk(self):
        fb2, u, v, psi = self.pair_2d()
        chunks = []
        rep = kato_lhs(u, v, fb2, self.chunked(psi, chunks))
        cells = chunks[0][0]
        assert cells > verifier_mod._CHUNK_CELLS
        assert chunks == [(cells, 1)] * self.window_levels(u, psi)
        # the rule before the budget, one full level of the field per
        # chunk, takes two levels per chunk here; Kato's value keeps its bits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier_mod, "_CHUNK_CELLS", u.nx ** 2)
            chunks.clear()
            old = kato_lhs(u, v, fb2, self.chunked(psi, chunks))
        assert {n for _, n in chunks} == {2}
        assert rep.value == old.value and rep.tolerance == old.tolerance

    @pytest.mark.parametrize("factored", [True, False])
    def test_sweep_keeps_its_bits_whatever_the_budget(self, factored):
        # every per-level sum is taken over one level and the smooth pairs'
        # tables hold one row per level (the factored sweep) or per (point,
        # state) pair (the pair-by-pair terms of the tests' oracle), so no
        # term depends on the chunking
        cfg = SchemeConfig(lo=-1, hi=1, nx=300 if factored else 100,
                           t_end=0.5)
        u = solve(PRODUCT, sine_data(0.3, 1.0, 0.45), cfg)
        phi = bump_test_function(0.1, 0.45, 0.05, 0.4)
        pairs = ([make_kruzkov_pair(PRODUCT, k0)
                  for k0 in np.linspace(-0.6, 0.6, 5)]
                 + [make_smooth_pair(PRODUCT, 0.0, n) for n in (4, 16, 64)]
                 + [make_smooth_pair(PRODUCT, 0.3, 16)])

        def sweep():
            if factored:
                return [(r.value, r.tolerance) for r in
                        entropy_residual_sweep(u, PRODUCT, pairs, phi)]
            values, dt = verifier_mod._weak_sums(
                (u,), phi, _pairwise_terms(PRODUCT, pairs))
            return list(values), dt

        sweeps = []
        for budget in (verifier_mod._CHUNK_CELLS, u.nx, 1, 10 ** 9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verifier_mod, "_CHUNK_CELLS", budget)
                sweeps.append(sweep())
        assert all(s == sweeps[0] for s in sweeps[1:])


class TestKato:
    def test_identical_solutions_zero(self):
        cfg = SchemeConfig(lo=-2, hi=2, nx=200, t_end=0.8, store_every=4)
        u = solve(BURGERS, box_data(1.0, -0.5, 0.0), cfg)
        psi = bump_test_function(0.0, 0.8, 0.1, 0.7)
        rep = kato_lhs(u, u, BURGERS, psi)
        assert rep.value == 0.0
        assert rep.passed

    def test_constant_second_field_matches_entropy_residual(self):
        cfg = SchemeConfig(lo=-1.5, hi=1.5, nx=300, t_end=0.8, store_every=4)
        u = solve(BURGERS, box_data(1.0, -0.5, 0.0), cfg)
        v = field_from_function(lambda p, t: np.full(p.shape[:-1], 0.3),
                                -1.5, 1.5, 300, u.times)
        phi = bump_test_function(0.0, 0.6, 0.1, 0.7)
        a = kato_lhs(u, v, BURGERS, phi)
        b = entropy_residual(u, BURGERS, make_kruzkov_pair(BURGERS, 0.3), phi)
        assert abs(a.value - b.value) <= 1e-12

    def test_solver_pair_with_cone_test_function(self):
        cfg = SchemeConfig(lo=-3, hi=3, nx=2400, t_end=1.0, store_every=2)
        u, v = solve_pair(BURGERS, box_data(1.0, -0.5, 0.0),
                          box_data(1.0, -0.4, 0.1), cfg)   # dx = 1/400
        cone = ConeSpec(R=2.0, N=1.0, horizon=1.0)
        psi = contraction_test_function(cone, 0.25, 0.75, 0.1, 0.2)
        rep = kato_lhs(u, v, BURGERS, psi)
        assert rep.passed
        assert rep.value >= -rep.tolerance


class TestKatoNegativeControl:
    """The expansion shock 0 | 1 against the exact rarefaction: a weak
    solution that is not the entropy one breaks Kato's inequality by a
    margin that does not shrink under refinement."""

    @pytest.mark.parametrize("nx", [300, 600])
    def test_violation_stays_and_is_caught_at_unit_slack(self, nx):
        def shock(p, t):
            return np.where(p[..., 0] < 0.5 * t, 0.0, 1.0)

        def fan(p, t):
            return (exact_riemann_burgers(0.0, 1.0, p[..., 0], t) if t > 0.0
                    else shock(p, t))

        times = np.linspace(0.0, 1.0, nx // 3 + 1)
        u, v = (field_from_function(fn, -3.0, 3.0, nx, times)
                for fn in (shock, fan))
        R = 1.0
        cone = ConeSpec(R=R, N=lipschitz_constant(BURGERS, R, 1.0),
                        horizon=1.0)
        t_max = cone.t_max
        # the window and widths cli._run_check takes by default
        psi = contraction_test_function(cone, 0.25 * t_max, 0.75 * t_max,
                                        0.125 * t_max, 0.1 * R)
        rep = kato_lhs(u, v, BURGERS, psi)
        assert rep.value <= -0.08
        # the default slack 10 Lip(psi) M (dx + dt) |supp psi| reads 13.4
        # at nx = 300 and 6.71 at nx = 600, so the default check passes
        # by a wide margin; at c_tol = 1 it reads 0.045 and 0.0225
        assert kato_lhs(u, v, BURGERS, psi, c_tol=1.0).passed is False


class TestKatoCylinder:
    def test_speed_zero_flux_uses_cylinder(self):
        # k-independent flux: N = 0, the cone degenerates to a cylinder
        # capped by the horizon, and the two-solution flux term vanishes
        cfg = SchemeConfig(lo=-2, hi=2, nx=300, t_end=1.0, store_every=4)
        u, v = solve_pair(XSQ, box_data(0.5, -0.4, 0.0),
                          box_data(0.3, -0.2, 0.3), cfg)
        N = lipschitz_constant(XSQ, 1.2, max(u.bound_M, v.bound_M))
        assert N == 0.0
        cone = ConeSpec(R=1.2, N=N, horizon=1.0)
        assert cone.t_max == 1.0
        psi = contraction_test_function(cone, 0.25, 0.7, 0.1, 0.15)
        rep = kato_lhs(u, v, XSQ, psi)
        assert rep.passed
        # |u - v| is time-invariant for a u-independent source, so the
        # quadrature is a pure time-derivative telescope
        assert abs(rep.value) <= rep.tolerance


class TestConeContraction:
    def make_pair(self, nx=1200):
        cfg = SchemeConfig(lo=-3, hi=3, nx=nx, t_end=1.0, store_every=5)
        return solve_pair(BURGERS, box_data(1.0, -0.5, 0.0),
                          box_data(1.0, -0.4, 0.1), cfg)

    def test_identical_fields_trivially_monotone(self):
        u, _ = self.make_pair(nx=600)
        profile, rep = cone_contraction_profile(u, u, BURGERS, 2.0)
        assert all(m == 0.0 for _, _, m in profile)
        assert rep.passed

    def test_shifted_boxes_non_increasing(self):
        u, v = self.make_pair()
        profile, rep = cone_contraction_profile(u, v, BURGERS, 2.0)
        masses = [m for _, _, m in profile]
        assert rep.metadata["N"] == 1.0
        assert rep.value <= rep.tolerance
        assert rep.passed
        assert masses[0] == pytest.approx(0.2, abs=2 * u.dx)
        # radial entropy-flux bound holds at every node in the ball
        assert rep.metadata["flux_bound_excess"] <= 1e-12

    def test_data_equal_inside_ball(self):
        cfg = SchemeConfig(lo=-3, hi=3, nx=600, t_end=0.5, store_every=5)

        def outside_bump(p):
            base = box_data(0.4, -0.3, 0.0)(p)
            return base + np.where(np.abs(p[..., 0]) > 2.0, 0.5, 0.0)

        u, v = solve_pair(BURGERS, box_data(0.4, -0.3, 0.0), outside_bump, cfg)
        profile, rep = cone_contraction_profile(u, v, BURGERS, 2.0)
        assert all(m <= rep.tolerance for _, _, m in profile)

    def test_empty_cone(self):
        u, v = self.make_pair(nx=600)
        with pytest.raises(EmptyCone):
            cone_contraction_profile(u, v, BURGERS, 1e-4)

    def test_ball_outside_domain_refused(self):
        # B_2 about the origin misses [2.5, 8.5]: a profile of zero masses
        # would pass whatever the data
        cfg = SchemeConfig(lo=2.5, hi=8.5, nx=600, t_end=1.0, store_every=5)
        u, v = solve_pair(BURGERS, box_data(1.0, 5.0, 5.5),
                          box_data(1.0, 5.1, 5.6), cfg)
        with pytest.raises(EmptyCone, match="holds no cell centre"):
            cone_contraction_profile(u, v, BURGERS, 2.0)

    def test_anti_pair_violates_calibrated_tolerance(self):
        # two weak solutions of the same data: non-entropic expansion shock
        # vs rarefaction; the honest pair calibrates the slack, the anti
        # pair must blow through it
        u, v = self.make_pair(nx=600)
        _, honest = cone_contraction_profile(u, v, BURGERS, 2.0)
        calibrated = max(2.0 * honest.value / (u.dx + honest.metadata["dt"]),
                         1e-9)
        times = np.linspace(0.0, 0.9, 61)
        uexp = field_from_function(
            lambda p, t: np.where(p[..., 0] < 0.5 * t, 0.0, 1.0),
            -3, 3, 600, times)
        urar = field_from_function(
            lambda p, t: np.clip(p[..., 0] / max(t, 1e-12), 0.0, 1.0),
            -3, 3, 600, times)
        _, rep = cone_contraction_profile(uexp, urar, BURGERS, 2.0,
                                          c_cal=calibrated)
        assert not rep.passed

    def test_profile_csv(self, tmp_path):
        u, v = self.make_pair(nx=600)
        profile, _ = cone_contraction_profile(u, v, BURGERS, 2.0)
        path = tmp_path / "profile.csv"
        write_profile_csv(path, profile)
        header, *rows = path.read_text().strip().splitlines()
        assert header == "t,radius,l1_mass"
        assert len(rows) == len(profile)


class TestGlobalContraction:
    def test_n_over_r_burgers(self):
        cfg = SchemeConfig(lo=-3, hi=3, nx=600, t_end=1.0, store_every=10)
        u, v = solve_pair(BURGERS, box_data(1.0, -0.5, 0.0),
                          box_data(1.0, -0.4, 0.1), cfg)
        rep = global_contraction_check(u, v, BURGERS, [1, 2, 4, 8])
        assert rep.metadata["N_over_R"] == [1.0, 0.5, 0.25, 0.125]
        assert rep.passed

    def test_translate_equivariance_and_contraction(self):
        # homogeneous flux commutes with lattice translation bitwise, so the
        # translate of a solution is a solution; the distance between the two
        # is the discrete variation and never increases
        cfg = SchemeConfig(lo=0.0, hi=1.0, nx=128, t_end=0.6,
                           boundary="periodic", store_every=5)
        u = solve(BURGERS, sine_data(0.3, 1.0, 0.5), cfg)
        v = solve(BURGERS,
                  lambda p: np.roll(sine_data(0.3, 1.0, 0.5)(p), 1), cfg)
        for n in range(len(u.times)):
            assert np.array_equal(v.data[n], np.roll(u.data[n], 1))
        rep = global_contraction_check(u, v, BURGERS, [1, 2, 4])
        masses = np.array(rep.metadata["masses"])
        assert np.all(np.diff(masses) <= 1e-14)
        assert rep.passed

    def test_two_dimensional_contraction(self):
        fb2 = catalog_lookup("burgers2d")
        cfg = SchemeConfig(lo=-2, hi=2, nx=64, t_end=0.4, dim=2,
                           store_every=4)

        def sq(lo):
            return lambda p: np.where(
                (np.abs(p[..., 0] - lo) < 0.3) & (np.abs(p[..., 1]) < 0.3),
                1.0, 0.0)

        u, v = solve_pair(fb2, sq(-0.1), sq(0.1), cfg)
        profile, rep = cone_contraction_profile(u, v, fb2, 1.5)
        assert rep.passed
        grep = global_contraction_check(u, v, fb2, [1, 2, 4])
        assert grep.passed
        # the masses of all levels in one reduction, bitwise the level loop
        assert grep.metadata["masses"] == [
            float(np.abs(u.data[n] - v.data[n]).sum() * u.dx ** 2)
            for n in range(len(u.times))]

    def test_k_independent_flux_distance_invariant(self):
        # du/dt = -div_x f(x) regardless of u: differences are frozen
        cfg = SchemeConfig(lo=-1, hi=1, nx=200, t_end=0.5, store_every=5)
        u, v = solve_pair(XSQ, box_data(0.5, -0.4, 0.0),
                          box_data(0.3, -0.2, 0.3), cfg)
        masses = np.array([np.abs(u.data[n] - v.data[n]).sum() * u.dx
                           for n in range(len(u.times))])
        assert np.abs(masses - masses[0]).max() <= 1e-12
        rep = global_contraction_check(u, v, XSQ, [1, 2, 4])
        assert rep.metadata["masses"] == masses.tolist()
        assert rep.metadata["N_over_R"] == [0.0, 0.0, 0.0]
        assert rep.passed


class TestSwapRelation:
    """The compared quantities are symmetric in u and v: |u - v| and
    sign(u - v)(f(x, u) - f(x, v)) keep their bits when the fields swap
    (IEEE negation is exact), so each check reads bitwise the same."""

    @staticmethod
    def pair(name):
        flux = catalog_lookup(name)
        dim = flux.dim
        cfg = SchemeConfig(lo=-2, hi=2, nx=200 if dim == 1 else 40,
                           t_end=0.4, dim=dim, store_every=4)

        def box(shift):
            def u0(p):
                inside = np.abs(p[..., 0] - shift) < 0.5
                if dim == 2:
                    inside &= np.abs(p[..., 1]) < 0.5
                return np.where(inside, 0.9, 0.1)
            return u0

        u, v = solve_pair(flux, box(-0.1), sine_data(0.3, 1.0, 0.2), cfg)
        psi = bump_test_function([0.0] * dim, 1.0, 0.05, 0.35, dim=dim)
        return flux, u, v, psi

    @pytest.mark.parametrize("name", ["burgers1d", "product1d", "burgers2d",
                                      "product2d"])
    def test_swapping_the_fields_keeps_every_bit(self, name):
        flux, u, v, psi = self.pair(name)
        assert not np.array_equal(u.data, v.data)
        (prof_uv, cone_uv), (prof_vu, cone_vu) = (
            cone_contraction_profile(a, b, flux, 1.5) for a, b in ((u, v), (v, u)))
        assert prof_uv == prof_vu
        assert cone_uv.value == cone_vu.value
        assert (cone_uv.metadata["flux_bound_excess"]
                == cone_vu.metadata["flux_bound_excess"])
        glob_uv, glob_vu = (global_contraction_check(a, b, flux, [1, 2, 4])
                            for a, b in ((u, v), (v, u)))
        assert glob_uv.value == glob_vu.value
        assert glob_uv.metadata["masses"] == glob_vu.metadata["masses"]
        kato_uv, kato_vu = (kato_lhs(a, b, flux, psi)
                            for a, b in ((u, v), (v, u)))
        assert kato_uv.value == kato_vu.value
        assert kato_uv.value != 0.0


class TestGlobalNegativeControl:
    """The local-speed Rusanov step, frozen as ``_reference_step``, is not
    monotone: its lambda depends on the states, so one step of it can grow
    the L1 distance of a pair.  Global contraction must see that growth
    once its slack is small enough."""

    CONFIG = SchemeConfig(lo=-3.0, hi=3.0, nx=64, t_end=1.0,
                          boundary="periodic")

    @classmethod
    def worst_pair(cls):
        """The one-step pair with the largest L1 growth among 400 seeded
        pairs a <= b, a ~ U(-2, 2) and b - a ~ U(0, 1), each stepped once
        with dt = dx / sup|d_k f| over the pair's range of states."""
        cfg = cls.CONFIG
        edges = cfg.lo + np.arange(cfg.nx + 1) * cfg.dx
        worst = None
        for seed in range(400):
            rng = np.random.default_rng(seed)
            a = rng.uniform(-2.0, 2.0, cfg.nx)
            b = a + rng.uniform(0.0, 1.0, cfg.nx)
            ks = np.linspace(a.min(), b.max(), 257)
            dt = cfg.dx / float(np.abs(PRODUCT.dk(edges[:, None, None],
                                                  ks[None, :])).max())
            a1, b1 = (_reference_step(PRODUCT, cfg, w, dt) for w in (a, b))
            growth = (np.abs(a1 - b1).sum() - np.abs(a - b).sum()) * cfg.dx
            if worst is None or growth > worst[0]:
                worst = (growth, dt, np.stack([a, a1]), np.stack([b, b1]))
        growth, dt, ua, ub = worst
        times = np.array([0.0, dt])
        return growth, [GridField(1, cfg.lo, cfg.hi, cfg.nx, times, w,
                                  float(np.abs(w).max())) for w in (ua, ub)]

    def test_growth_is_caught_at_unit_slack(self):
        growth, (u, v) = self.worst_pair()
        # the worst pair (seed 337) grows by 0.736 in one step of
        # dt = 0.0381; the default slack 10 M (dx + dt) reads 3.63 there
        # (M = 2.76), so the default check passes it, and c_cal = 1 gives
        # dx + dt = 0.132, which it fails by a margin of 0.60
        assert growth >= 0.7
        unit = global_contraction_check(u, v, PRODUCT, [1, 2, 4], c_cal=1.0)
        assert unit.value == pytest.approx(growth, rel=1e-12)
        assert unit.tolerance <= 0.14
        assert unit.value - unit.tolerance >= 0.55
        assert unit.passed is False


_SWAP_FLUXES = ["burgers1d", "product1d", "burgers2d", "product2d"]


@st.composite
def _swap_pairs(draw):
    """A catalog flux and two random fields on its grid: uniform values,
    with the pair equal on a random share of the cells, so that
    sign(u - v) reads 0 there."""
    flux = catalog_lookup(draw(st.sampled_from(_SWAP_FLUXES)))
    dim = flux.dim
    nx = draw(st.integers(8, 48 if dim == 1 else 16))
    nt = draw(st.integers(5, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amp = draw(st.floats(0.1, 2.0))
    shape = (nt,) + (nx,) * dim
    a = amp * rng.uniform(-1.0, 1.0, shape)
    b = np.where(rng.random(shape) < draw(st.floats(0.0, 0.5)), a,
                 amp * rng.uniform(-1.0, 1.0, shape))
    times = np.linspace(0.0, 0.4, nt)
    u, v = (GridField(dim, -2.0, 2.0, nx, times, w, float(np.abs(w).max()))
            for w in (a, b))
    return flux, u, v


class TestSwapRelationRandom:
    """``TestSwapRelation`` over random pairs: the cone value and its
    flux_bound_excess, the global value and the Kato value keep their
    bits when u and v swap."""

    @settings(max_examples=60, deadline=None)
    @given(pair=_swap_pairs())
    def test_swapping_random_fields_keeps_every_bit(self, pair):
        flux, u, v = pair
        (_, cone_uv), (_, cone_vu) = (cone_contraction_profile(a, b, flux, 1.5)
                                      for a, b in ((u, v), (v, u)))
        assert _bits(cone_uv.value) == _bits(cone_vu.value)
        assert (_bits(cone_uv.metadata["flux_bound_excess"])
                == _bits(cone_vu.metadata["flux_bound_excess"]))
        glob_uv, glob_vu = (global_contraction_check(a, b, flux, [1, 2])
                            for a, b in ((u, v), (v, u)))
        assert _bits(glob_uv.value) == _bits(glob_vu.value)
        psi = bump_test_function([0.0] * u.dim, 1.0, 0.05, 0.35, dim=u.dim)
        kato_uv, kato_vu = (kato_lhs(a, b, flux, psi)
                            for a, b in ((u, v), (v, u)))
        assert _bits(kato_uv.value) == _bits(kato_vu.value)
        assert kato_uv.value != 0.0


def _bits(x) -> bytes:
    """The IEEE bits of a float, so that -0.0 and 0.0 differ and NaN
    equals itself."""
    return np.float64(x).tobytes()


class TestUniqueness:
    SEEDS = [
        SchemeConfig(lo=-1, hi=1.5, nx=250, t_end=0.5, cfl=0.9,
                     store_every=10 ** 9),
        SchemeConfig(lo=-1, hi=1.5, nx=250, t_end=0.5, cfl=0.45,
                     store_every=10 ** 9),
        SchemeConfig(lo=-1, hi=1.5, nx=250, t_end=0.5, scheme="viscous",
                     viscosity=0.02, store_every=10 ** 9),
    ]

    @pytest.mark.parametrize("seeds,match", [
        (SEEDS[:1], "at least two scheme variants"),
        ([SEEDS[0], dataclasses.replace(SEEDS[1], t_end=0.4)],
         "share t_end"),
        ([SEEDS[0], dataclasses.replace(SEEDS[1], nx=200)], "share the grid"),
        ([SEEDS[0], dataclasses.replace(SEEDS[1], hi=2.0)], "share the grid"),
    ], ids=["one_variant", "t_end", "nx", "hi"])
    def test_refuses_variants_that_cannot_compare(self, seeds, match):
        from clawlab.grids import riemann_data
        with pytest.raises(ValueError, match=match):
            uniqueness_experiment(BURGERS, riemann_data(1.0, 0.0, 0.0), seeds)

    @pytest.mark.parametrize("center,radius", [(5.0, None), (0.0, -0.1)],
                             ids=["outside_domain", "negative_radius"])
    def test_empty_ball_refused(self, center, radius):
        # distances over no cell are zero at both levels, so the ratios
        # would read inf and the check pass whatever the variants do
        with pytest.raises(EmptyCone, match="holds no cell centre"):
            uniqueness_experiment(BURGERS, sine_data(0.3, 1.0, 0.5),
                                  self.SEEDS[:2], center=center, radius=radius)

    def test_identical_configs_zero_distance(self):
        from clawlab.grids import riemann_data
        rep = uniqueness_experiment(BURGERS, riemann_data(1.0, 0.0, 0.0),
                                    [self.SEEDS[0], self.SEEDS[0]])
        assert rep.value == 0.0
        assert rep.passed

    def test_variants_converge_with_ratio(self):
        from clawlab.grids import riemann_data
        rep = uniqueness_experiment(
            BURGERS, riemann_data(1.0, 0.0, 0.0), self.SEEDS,
            exact_at_t_end=lambda pts: exact_riemann_burgers(
                1.0, 0.0, pts[..., 0], 0.5))
        assert rep.passed
        assert all(r >= 1.5 for r in rep.metadata["ratios"])
        assert all(r >= 1.4 for r in rep.metadata["oracle_ratios"])

    def test_wrong_oracle_alone_fails(self):
        # the variants converge to each other, but an oracle off by a shift
        # of the shock keeps their errors from shrinking
        from clawlab.grids import riemann_data
        rep = uniqueness_experiment(
            BURGERS, riemann_data(1.0, 0.0, 0.0), self.SEEDS,
            exact_at_t_end=lambda pts: exact_riemann_burgers(
                1.0, 0.0, pts[..., 0] - 0.2, 0.5))
        assert all(r >= 1.5 for r in rep.metadata["ratios"])
        assert all(r < 1.4 for r in rep.metadata["oracle_ratios"])
        assert not rep.passed

    def test_rarefaction_data_converges_to_oracle(self):
        from clawlab.grids import riemann_data
        seeds = [
            SchemeConfig(lo=-1.5, hi=1.5, nx=200, t_end=0.5, cfl=0.9,
                         store_every=10 ** 9),
            SchemeConfig(lo=-1.5, hi=1.5, nx=200, t_end=0.5, cfl=0.45,
                         store_every=10 ** 9),
            SchemeConfig(lo=-1.5, hi=1.5, nx=200, t_end=0.5, scheme="viscous",
                         viscosity=0.03, store_every=10 ** 9),
        ]
        rep = uniqueness_experiment(
            BURGERS, riemann_data(0.0, 1.0, 0.0), seeds,
            exact_at_t_end=lambda pts: exact_riemann_burgers(
                0.0, 1.0, pts[..., 0], 0.5),
            min_ratio=1.3, oracle_min_ratio=1.4)
        assert rep.passed
        assert all(r >= 1.4 for r in rep.metadata["oracle_ratios"])


class TestDoubling:
    def make_smooth_pair(self, flux):
        cfg = SchemeConfig(lo=-1, hi=1, nx=800, t_end=0.33, store_every=1,
                           boundary="periodic")
        return solve_pair(flux, sine_data(0.3, 1.0, 0.5),
                          sine_data(0.25, 1.0, 0.45), cfg)

    def test_trends_on_inhomogeneous_flux(self):
        u, v = self.make_smooth_pair(PRODUCT)
        lev = int(np.argmin(np.abs(u.times - 0.2)))
        tstar = float(u.times[lev])
        scale = max(np.abs(np.diff(u.data[0])).max(),
                    np.abs(np.diff(v.data[0])).max())
        xs = find_smooth_samples(u, v, lev, 6, 10 * scale, margin_cells=90)
        table = doubling_diagnostics(u, v, PRODUCT, [0.1, 0.05, 0.025],
                                     [(float(x), tstar) for x in xs])
        for key in ("I1", "I2", "I3", "I4"):
            md = table["max_deviation"][key]
            assert md[0] > md[1] > md[2]

    def test_identical_fields_limits_zero(self):
        u, _ = self.make_smooth_pair(BURGERS)
        lev = int(np.argmin(np.abs(u.times - 0.2)))
        tstar = float(u.times[lev])
        table = doubling_diagnostics(u, u, BURGERS, [0.1, 0.05],
                                     [(0.0, tstar), (0.3, tstar)])
        assert np.all(table["limits"]["I1"] == 0.0)
        assert np.all(table["limits"]["I2"] == 0.0)
        # raw smoothed values decay toward the zero limit
        assert np.all(table["raw"]["I1"][1] < table["raw"]["I1"][0])
        assert np.allclose(table["raw"]["I3"] + table["raw"]["I4"], 0.0,
                           atol=1e-12)

    def test_k_independent_flux_i2_i4_vanish(self):
        u, v = self.make_smooth_pair(XSQ)
        lev = int(np.argmin(np.abs(u.times - 0.2)))
        tstar = float(u.times[lev])
        table = doubling_diagnostics(u, v, XSQ, [0.1, 0.05],
                                     [(0.2, tstar)])
        assert np.all(table["raw"]["I2"] == 0.0)
        assert np.all(table["raw"]["I4"] == 0.0)

    def test_results_independent_of_div_x_layout(self):
        # the same div_x values handed over C- and Fortran-ordered must give
        # the same sums bit for bit
        u, v = self.make_smooth_pair(BURGERS)
        lev = int(np.argmin(np.abs(u.times - 0.2)))
        samples = [(x, float(u.times[lev])) for x in (-0.4, 0.0, 0.3)]
        tables = []
        for layout in (np.ascontiguousarray, np.asfortranarray):
            flux = dataclasses.replace(
                BURGERS, div_x=lambda x, k, layout=layout: layout(BURGERS.div_x(x, k)))
            tables.append(doubling_diagnostics(u, v, flux, [0.1, 0.05, 0.025],
                                               samples, np.inf))
        for part in ("raw", "deviation"):
            for key in ("I1", "I2", "I3", "I4"):
                assert np.array_equal(tables[0][part][key],
                                      tables[1][part][key]), (part, key)

    def test_limits_at_kink_are_the_mollified_ones(self):
        # even fields on a grid with x = 0 as a cell center: the mollified
        # I3 and I4 at kink1d's singular point cancel by symmetry, and so
        # do their limits, which take div_x f there as sign(0) k = 0
        kink = catalog_lookup("kink1d")
        times = np.linspace(0.0, 0.4, 161)
        u = field_from_function(lambda p, t: 0.5 + 0.1 * np.cos(p[..., 0]),
                                -1.0, 1.0, 641, times)
        v = field_from_function(lambda p, t: 0.2 + 0.05 * np.cos(p[..., 0]),
                                -1.0, 1.0, 641, times)
        assert u.centers[320] == 0.0
        table = doubling_diagnostics(u, v, kink, [0.1, 0.05, 0.025],
                                     [(0.0, 0.2)])
        for key in ("I3", "I4"):
            assert table["limits"][key][0] == 0.0
            assert np.all(table["deviation"][key] <= 1e-12), key

    def test_too_few_smooth_cells_raise(self):
        # 20 cells less a margin of 4 at each end leave 12 to sample
        u = const_field(0.3, nx=20, nlev=2)
        v = const_field(0.2, nx=20, nlev=2)
        assert len(find_smooth_samples(u, v, 1, 12, 1.0)) == 12
        with pytest.raises(SampleNearShock, match="not enough smooth cells"):
            find_smooth_samples(u, v, 1, 13, 1.0)

    def test_two_dimensional_fields_refused(self):
        times = np.array([0.0, 0.1])
        u, v = (field_from_function(lambda p, t, c=c: np.full(p.shape[:-1], c),
                                    -1.0, 1.0, 16, times, dim=2)
                for c in (0.3, 0.2))
        with pytest.raises(ValueError, match="1-d fields"):
            doubling_diagnostics(u, v, catalog_lookup("burgers2d"), [0.1],
                                 [(0.0, 0.1)])

    def test_sample_near_shock_raises(self):
        cfg = SchemeConfig(lo=-1, hi=1, nx=400, t_end=0.8, store_every=1,
                           boundary="periodic")
        u, v = solve_pair(BURGERS, sine_data(0.3, 1.0, 0.5),
                          sine_data(0.25, 1.0, 0.45), cfg)
        lev = len(u.times) - 1   # well past shock formation
        tstar = float(u.times[lev])
        jumps = np.abs(np.diff(u.data[lev]))
        xshock = float(u.centers[int(np.argmax(jumps))])
        with pytest.raises(SampleNearShock):
            doubling_diagnostics(u, v, BURGERS, [0.05], [(xshock, tstar)])
