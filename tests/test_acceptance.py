"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances are pinned here, not calibrated elsewhere."""

import numpy as np
import pytest
from scipy.integrate import quad

from clawlab.entropy import (default_k0_sweep, kruzkov_div_deficit,
                             kruzkov_limit_deficit, make_kruzkov_pair,
                             q_build_ibp, q_build_quadrature, sqrt_entropy)
from clawlab.flux import catalog_lookup, lipschitz_constant
from clawlab.grids import (box_data, field_from_function, riemann_data,
                           sine_data)
from clawlab.mollifiers import (Mollifier, bump_test_function,
                                mollifier_constant)
from clawlab.quadrature import adaptive_gauss_legendre
from clawlab.solver import (SchemeConfig, discrete_entropy_max_violation,
                            exact_riemann_burgers, solve_pair)
from clawlab.verifier import (cone_contraction_profile, doubling_diagnostics,
                              entropy_residual_sweep, find_smooth_samples,
                              global_contraction_check, uniqueness_experiment)

BURGERS = catalog_lookup("burgers1d")
PRODUCT = catalog_lookup("product1d")
FLOOR = 1e-12


def _record(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {status}  {name}" +
          (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="module")
def box_pairs():
    """Shifted-box Burgers pair at dx = 1/200 and 1/400 (shared by 6, 7)."""
    out = {}
    for nx_per_unit in (200, 400):
        cfg = SchemeConfig(lo=-3.0, hi=3.0, nx=6 * nx_per_unit, t_end=1.0,
                           store_every=5)
        out[nx_per_unit] = solve_pair(BURGERS, box_data(1.0, -0.5, 0.0),
                                      box_data(1.0, -0.4, 0.1), cfg)
    return out


def test_criterion_01_mollifier_normalization():
    ok = True
    details = []
    for eps in (1.0, 0.1, 0.01):
        m1 = Mollifier(1, eps)
        mass1 = adaptive_gauss_legendre(lambda s: m1.value(s[:, None]),
                                        -eps, eps, tol=1e-12)
        m2 = Mollifier(2, eps)
        mass2 = 2 * np.pi * adaptive_gauss_legendre(
            lambda r: r * m2.value(np.stack([r, np.zeros_like(r)], axis=-1)),
            0.0, eps, tol=1e-12)
        ok &= abs(mass1 - 1.0) <= 1e-10 and abs(mass2 - 1.0) <= 1e-10
        details.append(f"eps={eps}: |1-mass| = {abs(mass1 - 1):.1e}/{abs(mass2 - 1):.1e}")
    indep, _ = quad(lambda x: np.exp(1.0 / (x * x - 1.0)), -1.0, 1.0,
                    epsabs=1e-13)
    c_err = abs(mollifier_constant(1) - 1.0 / indep)
    ok &= c_err <= 1e-8
    _record(1, "mollifier unit mass and 1-d constant", ok,
            f"C err {c_err:.2e}; " + "; ".join(details))


def test_criterion_02_dual_representation():
    rng = np.random.default_rng(20260809)
    fluxes = [BURGERS, PRODUCT, catalog_lookup("advection1d", {"c": 2.0})]
    entropies = [(0.2, 4), (0.2, 16), (-0.5, 64)]
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    worst = 0.0
    for flux in fluxes:
        for k0, n in entropies:
            ent = sqrt_entropy(k0, n)
            for x, k in pts:
                a = q_build_quadrature(flux, ent.eta_prime, k0, x, k)
                b = q_build_ibp(flux, ent, k0, x, k)
                worst = max(worst, float(np.abs(a - b).max()))
    _record(2, "entropy-flux dual representation within 1e-8", worst <= 1e-8,
            f"worst |quad - ibp| = {worst:.2e} over 3 fluxes x 3 entropies x 100 pts")


def test_criterion_03_smoothing_limits():
    n_list = [1, 4, 16, 64, 256]
    states = np.linspace(-3.0, 3.0, 20)
    k0 = 0.0
    deficits = np.array([kruzkov_limit_deficit(BURGERS, k0, 0.0, float(k), n_list)
                         for k in states])            # (20, 5)
    C = float(deficits[:, 0].max())                   # fitted at n = 1
    bound_ok = bool(np.all(deficits <= C / np.sqrt(np.array(n_list)) + FLOOR))
    per_state_down = bool(np.all(np.diff(deficits, axis=1) <= FLOOR))
    div_ok = True
    for k in np.linspace(-2.5, 2.5, 20):
        if abs(k - k0) < 1e-9:
            continue
        dd = kruzkov_div_deficit(PRODUCT, k0, 0.5, float(k), n_list)
        div_ok &= all(a >= b - FLOOR for a, b in zip(dd, dd[1:]))
        div_ok &= dd[-1] < dd[0] or dd[0] <= FLOOR
    ok = bound_ok and per_state_down and div_ok
    _record(3, "smoothing-limit deficits obey C n^{-1/2} and decrease", ok,
            f"C = {C:.4f}, bound {bound_ok}, per-state {per_state_down}, "
            f"div {div_ok}")


def test_criterion_04_discrete_cell_entropy_inequality():
    datasets = [riemann_data(1.0, 0.0, 0.0),
                riemann_data(0.0, 1.0, 0.0),
                riemann_data(-0.5, 1.0, 0.1),
                box_data(1.0, -0.5, 0.0),
                sine_data(0.5, 1.0, 0.3)]
    cfg = SchemeConfig(lo=-1.0, hi=1.0, nx=400, t_end=1.0)   # dx = 1/200
    sweep = default_k0_sweep(1.0, 9)
    worst = -np.inf
    for data in datasets:
        worst = max(worst, discrete_entropy_max_violation(BURGERS, data, cfg,
                                                          sweep))
    _record(4, "per-cell |u-k| inequality exact to 1e-12", worst <= 1e-12,
            f"worst violation {worst:.2e} over 5 data sets x 9 reference states")


def test_criterion_05_weak_residual_and_anti_test():
    nx, levels = 2400, 801
    times = np.linspace(0.0, 0.5, levels)
    entropic = field_from_function(
        lambda p, t: np.where(p[..., 0] < 0.5 * t, 1.0, 0.0),
        -0.5, 1.0, nx, times)
    expansion = field_from_function(
        lambda p, t: np.where(p[..., 0] < 0.5 * t, 0.0, 1.0),
        -0.5, 1.0, nx, times)
    phi = bump_test_function(0.125, 0.25, 0.05, 0.45)
    pairs = [make_kruzkov_pair(BURGERS, k0) for k0 in default_k0_sweep(1.0, 9)]
    # one pass per field; each pair's value is the one a separate
    # entropy_residual call gives, bit for bit
    reps = entropy_residual_sweep(entropic, BURGERS, pairs, phi)
    ent_ok = all(rep.passed for rep in reps)
    worst_margin = min(rep.value + rep.tolerance for rep in reps)
    anti = entropy_residual_sweep(expansion, BURGERS, pairs, phi)
    anti_failures = [r for r in anti if r.value < -r.tolerance]
    ok = ent_ok and len(anti_failures) >= 1
    _record(5, "entropic shock passes, expansion shock fails", ok,
            f"entropic min margin {worst_margin:.3e}; expansion fails for "
            f"{len(anti_failures)}/9 reference states")


def test_criterion_06_cone_contraction(box_pairs):
    reports = {}
    for nx_per_unit, (u, v) in box_pairs.items():
        profile, rep = cone_contraction_profile(u, v, BURGERS, 2.0)
        reports[nx_per_unit] = rep
        assert rep.metadata["N"] == 1.0
    fine = reports[400]
    coarse = reports[200]
    mass_floor = FLOOR * 10
    ok = fine.passed and fine.value <= fine.tolerance
    shrink_ok = fine.value <= max(coarse.value / 1.5, mass_floor)
    _record(6, "shrinking-ball profile non-increasing, violations shrink",
            ok and shrink_ok,
            f"max increment {coarse.value:.2e} (dx=1/200) -> {fine.value:.2e} "
            f"(dx=1/400), tol {fine.tolerance:.2e}")


def test_criterion_07_global_contraction(box_pairs):
    u, v = box_pairs[400]
    rep = global_contraction_check(u, v, BURGERS, [1, 2, 4, 8])
    seq_ok = rep.metadata["N_over_R"] == [1.0, 0.5, 0.25, 0.125]
    coarse = global_contraction_check(*box_pairs[200], BURGERS, [1, 2, 4, 8])
    shrink_ok = rep.value <= max(coarse.value / 1.5, FLOOR * 10)
    _record(7, "global L1 non-increasing, N/R sequence exact",
            rep.passed and seq_ok and shrink_ok,
            f"worst increase {coarse.value:.2e} -> {rep.value:.2e}, "
            f"N/R = {rep.metadata['N_over_R']}")


def test_criterion_08_uniqueness_proxy():
    seeds = [
        SchemeConfig(lo=-1.0, hi=1.5, nx=250, t_end=0.5, cfl=0.9,
                     store_every=10 ** 9),
        SchemeConfig(lo=-1.0, hi=1.5, nx=250, t_end=0.5, cfl=0.45,
                     store_every=10 ** 9),
        SchemeConfig(lo=-1.0, hi=1.5, nx=250, t_end=0.5, scheme="viscous",
                     viscosity=2.0 * (2.5 / 250), store_every=10 ** 9),
    ]
    rep = uniqueness_experiment(
        BURGERS, riemann_data(1.0, 0.0, 0.0), seeds,
        exact_at_t_end=lambda pts: exact_riemann_burgers(1.0, 0.0,
                                                         pts[..., 0], 0.5),
        min_ratio=1.5, oracle_min_ratio=1.4)
    _record(8, "scheme variants collapse onto one limit", rep.passed,
            f"pairwise ratios {['%.2f' % r for r in rep.metadata['ratios']]}, "
            f"oracle ratios {['%.2f' % r for r in rep.metadata['oracle_ratios']]}")


def test_criterion_09_finite_speed_of_propagation():
    cfg = SchemeConfig(lo=-2.0, hi=2.0, nx=800, t_end=0.25, store_every=1)

    def perturbed(p):
        base = box_data(1.0, -0.5, 0.0)(p)
        return base + np.where(np.abs(p[..., 0]) > 1.0, 0.8, 0.0)

    base, other = solve_pair(BURGERS, box_data(1.0, -0.5, 0.0), perturbed, cfg)
    steps = len(base.times) - 1
    safe = 1.0 - (steps + 1) * base.dx
    mask = np.abs(base.centers) <= safe
    identical = bool(np.array_equal(base.data[-1][mask], other.data[-1][mask]))
    nonempty = bool(mask.sum() > 50)
    # sanity: the perturbation did reach cells outside the cone
    touched = bool(np.any(base.data[-1] != other.data[-1]))
    _record(9, "outside perturbation leaves numerical cone bitwise unchanged",
            identical and nonempty and touched,
            f"{int(mask.sum())} protected cells, numerical cone radius {safe:.3f}")


def test_criterion_10_doubling_diagnostics():
    cfg = SchemeConfig(lo=-1.0, hi=1.0, nx=1600, t_end=0.33, store_every=1,
                       boundary="outflow")
    u, v = solve_pair(PRODUCT, sine_data(0.3, 1.0, 0.5),
                      sine_data(0.25, 1.0, 0.45), cfg)
    lev = int(np.argmin(np.abs(u.times - 0.2)))
    tstar = float(u.times[lev])
    scale = max(np.abs(np.diff(u.data[0])).max(),
                np.abs(np.diff(v.data[0])).max())
    xs = find_smooth_samples(u, v, lev, 10, 10.0 * scale, margin_cells=170,
                             seed=20260809)
    table = doubling_diagnostics(u, v, PRODUCT, [0.1, 0.05, 0.025],
                                 [(float(x), tstar) for x in xs])
    ok = True
    detail = []
    for key in ("I1", "I2", "I3", "I4"):
        md = table["max_deviation"][key]
        ok &= all(a >= b - FLOOR for a, b in zip(md, md[1:]))
        ok &= md[-1] < md[0] or md[0] <= FLOOR
        detail.append(f"{key}: {md[0]:.1e}->{md[-1]:.1e}")
    _record(10, "doubling integrals approach their limits monotonically", ok,
            "; ".join(detail))
