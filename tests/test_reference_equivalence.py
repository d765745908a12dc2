"""The vectorized paths against the plain loops they replaced.

Each reference below is the straightforward implementation: solver sweeps
that evaluate the interface flux through ``eval``/``dk`` on every call,
runs that set up each datum on their own and give a pair's shared step
back to two separate runs, a Lipschitz estimate that materializes every difference quotient, and a
weak-form quadrature that evaluates the test function on the whole domain
level by level.  The fast paths do the same arithmetic in another
arrangement, so results must agree bit for bit, except the weak-form sums,
the state tables (which take fewer nodes where the reference took 16) and
the Lipschitz estimate, which reads the factors exactly where the
reference rounds (see the bounds stated there).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawlab import cli as cli_mod
from clawlab import flux as flux_mod
from clawlab import solver as solver_mod
from clawlab import verifier as verifier_mod
from clawlab.config import parse_config
from clawlab.entropy import (_state_tables, default_k0_sweep,
                             kruzkov_flux, make_kruzkov_pair,
                             make_smooth_pair, sqrt_entropy, sweep_terms)
from clawlab.errors import (BlowUp, CFLViolation, MissingTimeLevels,
                            NonFiniteFlux, SampleNearShock,
                            SupportExceedsDomain)
from clawlab.flux import (FluxSpec, catalog_lookup, catalog_names,
                          lipschitz_constant)
from clawlab.grids import (GridField, _tensor_points, box_data,
                           field_from_function, riemann_data, sine_data)
from clawlab.mollifiers import (ConeSpec, Mollifier, bump_test_function,
                                contraction_test_function, omega_value)
from clawlab.solver import (SchemeConfig, discrete_entropy_max_violation,
                            solve, solve_pair)
from clawlab.verifier import (_near_jump, doubling_diagnostics,
                              entropy_residual_sweep, find_smooth_samples,
                              jump_threshold, kato_lhs)

RNG_SEED = 20260809


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _lookup(name):
    return catalog_lookup(name, {"c": -1.5} if name == "advection1d" else {})


# -- separable factors -----------------------------------------------------

def _g_arctan(x):
    return np.arctan(x * x) + 1.0


def _full(value, x, k):
    return np.broadcast_to(value, np.broadcast_shapes(x.shape, k.shape))


# closed forms of f and d_k f, written out per catalog entry
_CLOSED_FORMS = {
    "burgers1d": (lambda x, k: _full(0.5 * k * k, x, k), lambda x, k: _full(k, x, k)),
    "burgers2d": (lambda x, k: _full(0.5 * k * k, x, k), lambda x, k: _full(k, x, k)),
    "advection1d": (lambda x, k: _full(-1.5 * k, x, k), lambda x, k: _full(-1.5, x, k)),
    "xsquared1d": (lambda x, k: _full(x * x, x, k), lambda x, k: _full(0.0, x, k)),
    "product1d": (lambda x, k: _g_arctan(x) * np.sin(k),
                  lambda x, k: _g_arctan(x) * np.cos(k)),
    "product2d": (lambda x, k: _g_arctan(x) * np.sin(k),
                  lambda x, k: _g_arctan(x) * np.cos(k)),
    "kink1d": (lambda x, k: np.abs(x) * k, lambda x, k: _full(np.abs(x), x, k)),
}


def _g_arctan_prime(x):
    return 2.0 * x / (1.0 + x ** 4)


def _unit(i, dim, value):
    """e_i value: ``value`` in component i, exact zeros elsewhere."""
    out = np.zeros(value.shape + (dim,))
    out[..., i] = value
    return out


# closed forms of div_x f and of grad_x f_i (as a function of x, k and i),
# written out per catalog entry
_CLOSED_FORMS.update({
    ("burgers1d", "div_x"): lambda x, k: _full(0.0, x[..., 0], k),
    ("burgers1d", "grad_x"): lambda x, k, i: _full(0.0, x, k[..., None]),
    ("burgers2d", "div_x"): lambda x, k: _full(0.0, x[..., 0], k),
    ("burgers2d", "grad_x"): lambda x, k, i: _full(0.0, x, k[..., None]),
    ("advection1d", "div_x"): lambda x, k: _full(0.0 * k, x[..., 0], k),
    ("advection1d", "grad_x"): lambda x, k, i: _full(0.0 * k[..., None], x, k[..., None]),
    ("xsquared1d", "div_x"): lambda x, k: _full(2.0 * x[..., 0], x[..., 0], k),
    ("xsquared1d", "grad_x"): lambda x, k, i: _full(2.0 * x, x, k[..., None]),
    ("product1d", "div_x"): lambda x, k: _g_arctan_prime(x[..., 0]) * np.sin(k),
    ("product1d", "grad_x"): lambda x, k, i: _g_arctan_prime(x) * np.sin(k[..., None]),
    ("product2d", "div_x"): lambda x, k: ((_g_arctan_prime(x[..., 0])
                                           + _g_arctan_prime(x[..., 1])) * np.sin(k)),
    ("product2d", "grad_x"): lambda x, k, i: _unit(i, 2, _g_arctan_prime(x[..., i])
                                                   * np.sin(k)),
    ("kink1d", "div_x"): lambda x, k: np.sign(x[..., 0]) * k,
    ("kink1d", "grad_x"): lambda x, k, i: np.sign(x) * k[..., None],
})


def _hand_built(f: FluxSpec) -> FluxSpec:
    """The same flux built by hand: its four callables are the closed forms
    above, so only its factors are the catalog's.  The steppers read the
    factors and ``_reference_step`` reads eval/dk, so the two meet only in
    the values of these closed forms."""
    ev, dk = _CLOSED_FORMS[f.name]
    div, grad = _CLOSED_FORMS[f.name, "div_x"], _CLOSED_FORMS[f.name, "grad_x"]

    def pts(x):
        return flux_mod.as_points(x, f.dim)

    def states(k):
        return np.asarray(k, dtype=float)

    return FluxSpec(f.name, f.dim,
                    lambda x, k: ev(pts(x), states(k)[..., None]),
                    lambda x, k: dk(pts(x), states(k)[..., None]),
                    lambda x, k: div(pts(x), states(k)),
                    lambda x, k, i: grad(pts(x), states(k), i),
                    f.factors, f.singular_points, f.params)


@pytest.mark.parametrize("name", catalog_names())
def test_factored_eval_and_dk_match_closed_forms(name):
    flux = _lookup(name)
    f, fk = _CLOSED_FORMS[name]
    rng = np.random.default_rng(RNG_SEED)
    x = rng.uniform(-3.0, 3.0, (40, 1, flux.dim))
    k = rng.uniform(-3.0, 3.0, (1, 30))
    k[0, :2] = (0.0, -0.0)
    kk = k[..., None]
    assert _bitwise_equal(flux.eval(x, k), f(x, kk))
    assert _bitwise_equal(flux.dk(x, k), fk(x, kk))


@pytest.mark.parametrize("name", catalog_names())
def test_factored_derivatives_match_closed_forms(name):
    flux = _lookup(name)
    div, grad = _CLOSED_FORMS[name, "div_x"], _CLOSED_FORMS[name, "grad_x"]
    rng = np.random.default_rng(RNG_SEED)
    x = rng.uniform(-3.0, 3.0, (40, 1, flux.dim))
    x[0] = 0.0
    k = rng.uniform(-3.0, 3.0, (1, 30))
    k[0, :2] = (0.0, -0.0)
    assert _bitwise_equal(flux.div_x(x, k), div(x, k))
    for i in range(flux.dim):
        assert _bitwise_equal(flux.grad_x_components(x, k, i), grad(x, k, i))


# -- solver sweeps ----------------------------------------------------------

def _reference_ghost(u, axis: int, boundary: str):
    """``u`` with one ghost layer on each side of ``axis``: a copy of the
    boundary cell (outflow) or of the opposite one (periodic)."""
    first, last = (-1, 0) if boundary == "periodic" else (0, -1)
    return np.concatenate([np.take(u, [first], axis=axis), u,
                           np.take(u, [last], axis=axis)], axis=axis)


def _reference_step(flux: FluxSpec, config: SchemeConfig, u, dt):
    """One step with the interface flux evaluated through eval/dk."""
    dx = (config.hi - config.lo) / config.nx
    c = config.lo + (np.arange(config.nx) + 0.5) * dx
    e = config.lo + np.arange(config.nx + 1) * dx
    if config.dim == 1:
        xis = [e[:, None]]
    else:
        Xe, Yc = np.meshgrid(e, c, indexing="ij")
        Xc, Ye = np.meshgrid(c, e, indexing="ij")
        xis = [np.stack([Xe, Yc], axis=-1), np.stack([Xc, Ye], axis=-1)]
    for axis, xi in enumerate(xis):
        ug = _reference_ghost(u, axis, config.boundary)
        n = u.shape[axis]
        uL = np.take(ug, range(0, n + 1), axis=axis)
        uR = np.take(ug, range(1, n + 2), axis=axis)
        if config.scheme == "godunov_burgers":
            F = np.maximum(flux.eval(xi, np.maximum(uL, 0.0))[..., axis],
                           flux.eval(xi, np.minimum(uR, 0.0))[..., axis])
        else:
            fL = flux.eval(xi, uL)[..., axis]
            fR = flux.eval(xi, uR)[..., axis]
            lam = np.maximum(np.abs(flux.dk(xi, uL)[..., axis]),
                             np.abs(flux.dk(xi, uR)[..., axis]))
            F = 0.5 * (fL + fR) - 0.5 * lam * (uR - uL)
        unew = u - (dt / dx) * np.diff(F, axis=axis)
        if config.scheme == "viscous":
            lap = (np.take(ug, range(2, n + 2), axis=axis) - 2.0 * u
                   + np.take(ug, range(0, n), axis=axis))
            unew = unew + (config.viscosity * dt / dx ** 2) * lap
        u = unew
    return u


def _step_cases():
    for name in catalog_names():
        for boundary in ("outflow", "periodic"):
            for scheme in ("rusanov", "viscous"):
                yield name, boundary, scheme
    for boundary in ("outflow", "periodic"):
        yield "burgers1d", boundary, "godunov_burgers"


@pytest.mark.parametrize("name,boundary,scheme", list(_step_cases()))
def test_stepper_matches_reference(name, boundary, scheme):
    flux = _lookup(name)
    config = SchemeConfig(lo=-1.3, hi=0.9, nx=24 if flux.dim == 2 else 90,
                          t_end=1.0, scheme=scheme, boundary=boundary,
                          dim=flux.dim,
                          viscosity=0.02 if scheme == "viscous" else 0.0)
    stepper = (solver_mod._Stepper1D if flux.dim == 1
               else solver_mod._Stepper2D)(flux, config)
    rng = np.random.default_rng(RNG_SEED)
    u = rng.uniform(-1.5, 1.5, (config.nx,) * flux.dim)
    u.reshape(-1)[:3] = (0.0, -0.0, np.pi)   # zero states and a zero of sin
    ref = u.copy()
    dt = 0.2 * config.dx / 3.0
    for _ in range(4):
        u = stepper.step(u, dt)
        ref = _reference_step(flux, config, ref, dt)
        assert _bitwise_equal(u, ref)


# cells that hold +0.0 and have +0.0 neighbours stay +0.0 bitwise, so the
# 2-d stepper sweeps only the window of cells holding another bit pattern;
# -0.0, denormals and NaN count as active.  The 1-d stepper, whose window
# lies between its first and last cells' states, is held to the same data.
_SPECIAL = (-0.0, 5e-324, -5e-324, 2.2e-310, 0.0, np.nan)


def _window_cases():
    for name, boundary, scheme in _step_cases():
        yield name, boundary, scheme, False
    for boundary in ("outflow", "periodic"):
        for scheme in ("rusanov", "viscous"):
            yield "product1d", boundary, scheme, True


def _window_stepper(name, boundary, scheme, hand_built, nx=None):
    flux = _lookup(name)
    if hand_built:
        flux = _hand_built(flux)
    config = SchemeConfig(lo=-1.3, hi=0.9,
                          nx=nx or (12 if flux.dim == 2 else 40),
                          t_end=1.0, scheme=scheme, boundary=boundary,
                          dim=flux.dim,
                          viscosity=0.02 if scheme == "viscous" else 0.0)
    stepper = (solver_mod._Stepper1D if flux.dim == 1
               else solver_mod._Stepper2D)(flux, config)
    return flux, config, stepper


@st.composite
def _windowed_data(draw, dim: int, nx: int):
    """Random states on a box of cells, +0.0 elsewhere; the box may touch
    every edge, and a few cells anywhere hold -0.0, +0.0 or a denormal."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    box = []
    for _ in range(dim):
        lo = draw(st.one_of(st.just(0), st.integers(0, nx - 1)))
        hi = draw(st.one_of(st.just(nx), st.integers(lo + 1, nx)))
        box.append(slice(lo, hi))
    u = np.zeros((nx,) * dim)
    u[tuple(box)] = rng.uniform(-1.5, 1.5, u[tuple(box)].shape)
    for _ in range(draw(st.integers(0, 4))):
        cell = tuple(draw(st.integers(0, nx - 1)) for _ in range(dim))
        u[cell] = draw(st.sampled_from(_SPECIAL[:-1]))
    return u


@pytest.mark.parametrize("name,boundary,scheme,hand_built",
                         list(_window_cases()))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_stepper_on_data_with_rest_regions_matches_reference(
        name, boundary, scheme, hand_built, data):
    flux, config, stepper = _window_stepper(name, boundary, scheme,
                                            hand_built)
    states = [data.draw(_windowed_data(flux.dim, config.nx))
              for _ in range(2)]
    refs = [u.copy() for u in states]
    dt = 0.2 * config.dx / 3.0
    # the first datum, the second (as a pair run marches them), then a copy
    # of the first: each starts from a scan of its bits, and its later
    # steps continue the window of the array the stepper returned
    for d, steps in ((0, 4), (1, 4), (0, 2)):
        states[d] = states[d].copy()
        for _ in range(steps):
            u = states[d]
            states[d] = stepper.step(u, dt)
            refs[d] = _reference_step(flux, config, refs[d], dt)
            assert _bitwise_equal(states[d], refs[d])


# far-field states of 1-d data: signed zeros, denormals, states that rest
# under every 1-d catalog flux but xsquared1d (+0.0) or only under burgers1d
# and advection1d (the others)
_FAR_FIELD = (0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1.0, -0.75, 0.3, 1.5)


@st.composite
def _far_field_data(draw, nx: int):
    """cL on the left, random states in the middle and cR on the right,
    where cR may be cL.  The middle, at most 16 cells so that the window
    starts short of the grid, may be empty or touch either edge; +0.0 is
    drawn more often, since it is the one state that rests under every
    1-d catalog flux but xsquared1d."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cL = draw(st.one_of(st.just(0.0), st.sampled_from(_FAR_FIELD)))
    cR = draw(st.one_of(st.just(cL), st.sampled_from(_FAR_FIELD)))
    lo = draw(st.integers(0, nx))
    hi = draw(st.integers(lo, min(lo + 16, nx)))
    u = np.full(nx, cR)
    u[:lo] = cL
    u[lo:hi] = rng.uniform(-1.5, 1.5, hi - lo)
    return u


@pytest.mark.parametrize("name,boundary,scheme,hand_built",
                         [c for c in _window_cases() if _lookup(c[0]).dim == 1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_stepper_on_far_field_data_matches_reference(
        name, boundary, scheme, hand_built, data):
    # the 1-d stepper sweeps the window between the far-field states, with
    # a margin; the runs are long enough for a window that grows a cell a
    # step to pass the margin at least twice, so the views are bound anew
    flux, config, stepper = _window_stepper(name, boundary, scheme,
                                            hand_built, nx=200)
    states = [data.draw(_far_field_data(config.nx)) for _ in range(2)]
    refs = [u.copy() for u in states]
    dt = 0.2 * config.dx / 3.0
    long = 3 * (solver_mod._MARGIN + 1)
    for d, steps in ((0, long), (1, 4), (0, 4)):
        states[d] = states[d].copy()
        for _ in range(steps):
            states[d] = stepper.step(states[d], dt)
            refs[d] = _reference_step(flux, config, refs[d], dt)
            assert _bitwise_equal(states[d], refs[d])
            assert stepper.max_abs(states[d], np.empty(config.nx)) == (
                float(np.abs(refs[d]).max()))


@pytest.mark.parametrize("name,ur", [("advection1d", 0.0),
                                     ("burgers1d", -0.2)])
def test_far_field_window_is_bound_anew_as_it_grows(name, ur):
    # advection of a box into +0.0 grows the window by a cell a step, so
    # the views are bound anew every _MARGIN + 1 steps; a Burgers shock
    # between two far-field states (shock_1d's data) keeps its window
    # short of the grid
    flux, config, stepper = _window_stepper(name, "outflow", "rusanov",
                                            False, nx=400)
    u = riemann_data(1.0, ur, 0.0)(stepper.centers[:, None])
    if name == "advection1d":
        u[:180] = 0.0
    ref, spans = u.copy(), set()
    for _ in range(3 * (solver_mod._MARGIN + 1)):
        u = stepper.step(u, 0.2 * config.dx)
        ref = _reference_step(flux, config, ref, 0.2 * config.dx)
        assert _bitwise_equal(u, ref)
        spans.add((stepper._views.c0, stepper._views.c1))
    w0, w1 = stepper._views.c0, stepper._views.c1
    assert w1 - w0 < config.nx // 2
    if name == "advection1d":
        assert len(spans) >= 3


# constant states at which the flux difference of a sweep, if not +-0, is
# not lost to rounding at the steps below; at the others (far out of range,
# pi under product, non-finite) a sweep can keep c while rests(c) is False
_ROUNDING_FREE = (0.0, 5e-324, -5e-324, 2.2e-310, 1.0, -0.75, 0.3, 1.5)
_FAR_OUT = (-0.0, np.pi, 1e200, 1e308, 1.7e308, np.inf, -np.inf, np.nan)


@pytest.mark.parametrize("name,boundary,scheme", list(_step_cases()))
def test_rests_agrees_with_sweeps_of_constant_data(name, boundary, scheme):
    flux, config, stepper = _window_stepper(name, boundary, scheme, False)
    shape = (config.nx,) * flux.dim
    for states, moved_unless_rest in ((_ROUNDING_FREE, True),
                                      (_FAR_OUT, False)):
        for c in states:
            u = np.full(shape, c)
            with np.errstate(all="ignore"):
                kept = all(
                    _bitwise_equal(_reference_step(flux, config, u, dt), u)
                    for dt in np.array([1e-9, 0.2 / 3.0, 0.5, 0.9]) * config.dx)
            # a rest state stays under every dt; a state in range that
            # does not rest is moved by some dt
            if all([a.rests(c) for a in stepper.axes]):
                assert kept, c
            elif moved_unless_rest:
                assert not kept, c
    # +0.0 rests under every catalog flux but the source xsquared1d, -0.0
    # under none, and every state in range under burgers1d
    assert stepper.axes[0].rests(0.0) == (name != "xsquared1d")
    assert not stepper.axes[0].rests(-0.0)
    if name == "burgers1d":
        assert all(stepper.axes[0].rests(c) for c in _ROUNDING_FREE)


@pytest.mark.parametrize("name,boundary,scheme,hand_built",
                         [c for c in _window_cases() if c[0] != "xsquared1d"])
def test_datum_of_rest_states_stays_rest(name, boundary, scheme, hand_built):
    # +0.0 is a rest state of every catalog flux but the source xsquared1d,
    # under the stepper and under the plain step of the flux's callables
    flux, config, stepper = _window_stepper(name, boundary, scheme,
                                            hand_built)
    u = np.zeros((config.nx,) * flux.dim)
    ref = u.copy()
    for _ in range(5):
        u = stepper.step(u, 0.2 * config.dx / 3.0)
        ref = _reference_step(flux, config, ref, 0.2 * config.dx / 3.0)
        assert not u.view(np.int64).any()
        assert not ref.view(np.int64).any()
        if flux.dim == 2:
            assert stepper._window is None


def test_window_of_nan_and_sole_special_cells():
    # a NaN, -0.0 or denormal cell alone is active and spreads as the
    # plain step spreads it
    flux, config, stepper = _window_stepper("product2d", "outflow",
                                            "rusanov", False)
    for value in _SPECIAL:
        u = np.zeros((config.nx, config.nx))
        u[5, 7] = value
        ref = u.copy()
        for _ in range(3):
            u = stepper.step(u, 0.01)
            ref = _reference_step(flux, config, ref, 0.01)
            assert _bitwise_equal(u, ref)


# -- run setup and marching loop ----------------------------------------------

def _sampled_sup_abs(flux, derivative, config, m, states, x_sups=None):
    """max |``derivative``(x, k)| (``"dk"`` or ``"div_x"``) sampled through
    the FluxSpec callable at every point of the a-priori lattice and state
    of ``states`` equally spaced k in [-m, m]: the product lattice whose
    max ``solver._sup_abs`` reads as a product of two factor maxima.  The
    whole lattice is sampled on every call, so ``x_sups`` is not read."""
    lat = np.linspace(config.lo, config.hi, 1 + 2 ** (8 - config.dim))
    pts = _tensor_points(lat, config.dim).reshape(-1, config.dim)
    ks = np.linspace(-m, m, states)
    fn = getattr(flux, derivative)
    return float(np.abs(fn(pts[:, None, :], ks[None, :])).max())


def _sampled_a_priori(flux, config, m0):
    """The solver's a-priori bound for max|u0| = m0 and its dt, with every
    sup sampled by ``_sampled_sup_abs``, so that a hand-built flux's run
    reads only its closed forms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "_sup_abs", _sampled_sup_abs)
        m_bound = solver_mod._estimate_bound(flux, config, m0)
        return m_bound, solver_mod._time_step(flux, config, m_bound)


@pytest.mark.parametrize("name", catalog_names())
def test_a_priori_sups_are_the_sampled_ones(name):
    # max|x-factor| on the lattice times max|state factor| on the states is
    # the max of |d_k f| and of |div_x f| over their product, bit for bit
    flux = _lookup(name)
    for lo, hi in ((-1.0, 1.0), (-1.3, 0.9), (-3.0, 3.0), (0.25, 7.5)):
        for t_end in (0.2, 1.0, 3.7):
            config = SchemeConfig(lo=lo, hi=hi, nx=10, t_end=t_end,
                                  dim=flux.dim)
            for m0 in (0.0, 0.3, 1.0, 2.5, 1e3):
                m_bound = solver_mod._estimate_bound(flux, config, m0)
                assert (m_bound, solver_mod._time_step(flux, config, m_bound)
                        ) == _sampled_a_priori(flux, config, m0)
                for derivative, states in (("dk", 65), ("div_x", 33)):
                    assert (solver_mod._sup_abs(flux, derivative, config,
                                                m_bound, states)
                            == _sampled_sup_abs(flux, derivative, config,
                                                m_bound, states))


def _reference_solve(flux, u0, config, shared_dt=None, plain=False):
    """A whole run with its own setup; ``shared_dt`` is the step a pair run
    handed back, checked against this datum's own stable step.  ``plain``
    marches with ``_reference_step``, which reads eval/dk, in place of the
    stepper."""
    stepper = (solver_mod._Stepper1D if config.dim == 1
               else solver_mod._Stepper2D)(flux, config)
    c = config.lo + (np.arange(config.nx) + 0.5) * config.dx
    if config.dim == 1:
        pts = c[:, None]
    else:
        X, Y = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
    u = np.asarray(u0(pts), dtype=float) + np.zeros(pts.shape[:-1])
    m0 = float(np.abs(u).max())
    m_bound, dt = _sampled_a_priori(flux, config, m0)
    if shared_dt is not None:
        if shared_dt > dt * (1.0 + 1e-12):
            raise CFLViolation(f"shared_dt {shared_dt} exceeds stable step {dt}")
        dt = shared_dt
    nsteps = max(1, int(math.ceil(config.t_end / dt - 1e-12)))
    dt = config.t_end / nsteps
    times, slabs, bound = [0.0], [u.copy()], m0
    for n in range(1, nsteps + 1):
        u = (_reference_step(flux, config, u, dt) if plain
             else stepper.step(u, dt))
        amax = float(np.abs(u).max())
        threshold = 10.0 * m_bound
        if not math.isfinite(amax) or (threshold > 0.0 and amax > threshold):
            raise BlowUp(f"|u| reached {amax:.3e} at step {n}")
        bound = max(bound, amax)
        if n % config.store_every == 0 or n == nsteps:
            times.append(n * dt)
            slabs.append(u.copy())
    return GridField(config.dim, config.lo, config.hi, config.nx,
                     np.array(times), np.stack(slabs), bound)


def _reference_solve_pair(flux, u0a, u0b, config):
    """dt from the bound of the larger datum, then two full runs at it."""
    dx = (config.hi - config.lo) / config.nx
    c = config.lo + (np.arange(config.nx) + 0.5) * dx
    if config.dim == 1:
        pts = c[:, None]
    else:
        X, Y = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
    m0 = max(float(np.abs(np.asarray(u0a(pts), dtype=float)).max()),
             float(np.abs(np.asarray(u0b(pts), dtype=float)).max()))
    _, dt = _sampled_a_priori(flux, config, m0)
    nsteps = max(1, int(math.ceil(config.t_end / dt - 1e-12)))
    shared_dt = config.t_end / nsteps
    return (_reference_solve(flux, u0a, config, shared_dt),
            _reference_solve(flux, u0b, config, shared_dt))


def _assert_fields_equal(fast, ref):
    assert _bitwise_equal(fast.times, ref.times)
    assert _bitwise_equal(fast.data, ref.data)
    assert _bitwise_equal(fast.bound_M, ref.bound_M)


@pytest.mark.parametrize("name,boundary,scheme", list(_step_cases()))
def test_solve_and_pair_match_reference(name, boundary, scheme):
    flux = _lookup(name)
    u0a, u0b = sine_data(0.5, 1.0, 0.3), box_data(0.9, -0.6, 0.1)
    for t_end in (0.2, 0.23, 0.26, 0.29):
        config = SchemeConfig(lo=-1.3, hi=0.9, nx=16 if flux.dim == 2 else 60,
                              t_end=t_end, scheme=scheme, boundary=boundary,
                              dim=flux.dim,
                              viscosity=0.02 if scheme == "viscous" else 0.0)
        nsteps = len(_reference_solve(flux, u0a, config).times) - 1
        if nsteps % 3:
            break
    assert nsteps % 3, "no step count off a multiple of store_every"
    for every in (1, 3):
        config = replace(config, store_every=every)
        _assert_fields_equal(solve(flux, u0a, config),
                             _reference_solve(flux, u0a, config))
        for fast, ref in zip(solve_pair(flux, u0a, u0b, config),
                             _reference_solve_pair(flux, u0a, u0b, config)):
            _assert_fields_equal(fast, ref)


@pytest.mark.parametrize("name", catalog_names())
def test_hand_built_flux_solves_like_catalog_entry(name):
    # the catalog entry's run against plain steps of the same flux built
    # by hand, whose eval/dk and a-priori bound read only the closed forms
    flux = _lookup(name)
    config = SchemeConfig(lo=-1.0, hi=1.0, nx=20 if flux.dim == 2 else 120,
                          t_end=0.2, dim=flux.dim, boundary="periodic")
    ini = sine_data(0.4, 1.0, 0.3)
    fast = solve(flux, ini, config)
    plain = _reference_solve(_hand_built(flux), ini, config, plain=True)
    assert _bitwise_equal(fast.data, plain.data)
    assert _bitwise_equal(fast.times, plain.times)


def test_hand_built_burgers_runs_godunov():
    config = SchemeConfig(lo=-1.0, hi=1.0, nx=100, t_end=0.3,
                          scheme="godunov_burgers")
    flux = catalog_lookup("burgers1d")
    fast = solve(flux, riemann_data(1.0, -0.5), config)
    plain = _reference_solve(_hand_built(flux), riemann_data(1.0, -0.5),
                             config, plain=True)
    assert _bitwise_equal(fast.data, plain.data)


def _reference_entropy_scan(flux, u0, config, k_values):
    """Per-cell |u - k| inequality scan, every f(x, k) taken on every step."""
    dx = (config.hi - config.lo) / config.nx
    xi = (config.lo + np.arange(config.nx + 1) * dx)[:, None]
    c = config.lo + (np.arange(config.nx) + 0.5) * dx
    u = np.asarray(u0(c[:, None]), dtype=float) + np.zeros(config.nx)
    _, dt = _sampled_a_priori(flux, config, float(np.abs(u).max()))
    nsteps = max(1, int(math.ceil(config.t_end / dt - 1e-12)))
    mu = (config.t_end / nsteps) / dx
    worst = -math.inf
    for _ in range(nsteps):
        ug = _reference_ghost(u, 0, config.boundary)
        uL, uR = ug[:-1], ug[1:]
        lam = np.maximum(np.abs(flux.dk(xi, uL)[..., 0]),
                         np.abs(flux.dk(xi, uR)[..., 0]))
        fL, fR = flux.eval(xi, uL)[..., 0], flux.eval(xi, uR)[..., 0]
        F = 0.5 * (fL + fR) - 0.5 * lam * (uR - uL)
        unew = u - mu * (F[1:] - F[:-1])
        for k in np.atleast_1d(k_values):
            k = float(k)
            fk = flux.eval(xi, k)[..., 0]
            qL = np.sign(uL - k) * (flux.eval(xi, uL)[..., 0] - fk)
            qR = np.sign(uR - k) * (flux.eval(xi, uR)[..., 0] - fk)
            Q = 0.5 * (qL + qR) - 0.5 * lam * (np.abs(uR - k) - np.abs(uL - k))
            viol = (np.abs(unew - k) - np.abs(u - k) + mu * (Q[1:] - Q[:-1])).max()
            worst = max(worst, float(viol))
        u = unew
    return worst


@pytest.mark.parametrize("name,boundary", [("burgers1d", "outflow"),
                                           ("product1d", "periodic"),
                                           ("kink1d", "outflow")])
def test_entropy_scan_matches_reference(name, boundary):
    flux = catalog_lookup(name)
    config = SchemeConfig(lo=-1.0, hi=1.5, nx=400, t_end=0.5,
                          boundary=boundary, store_every=10 ** 9)
    ks = np.linspace(-0.5, 1.5, 9)
    ini = riemann_data(1.0, -0.1, -0.1)
    assert (discrete_entropy_max_violation(flux, ini, config, ks)
            == _reference_entropy_scan(flux, ini, config, ks))


def test_box_on_contraction_grid_is_swept_by_window():
    # a box on the 160 x 160 grid of the contraction workload: the window
    # stays short of the grid, and the steps match the plain ones bitwise
    flux = catalog_lookup("product2d")
    config = SchemeConfig(lo=-3.0, hi=3.0, nx=160, t_end=1.0, dim=2)
    stepper = solver_mod._Stepper2D(flux, config)
    pts = np.stack(np.meshgrid(stepper.centers, stepper.centers,
                               indexing="ij"), axis=-1)
    u = box_data(1.0, -0.5, 0.0)(pts)
    ref = u.copy()
    for _ in range(3):
        u = stepper.step(u, 0.2 * config.dx)
        ref = _reference_step(flux, config, ref, 0.2 * config.dx)
        assert _bitwise_equal(u, ref)
    (x0, x1), (y0, y1) = stepper._window
    assert (x1 - x0) * (y1 - y0) < config.nx ** 2 // 2


@pytest.mark.parametrize("name,boundary,box,t_end", [
    ("kink1d", "outflow", (0.9, -0.2, 0.3), 0.5),
    ("product1d", "periodic", (0.9, -0.2, 0.3), 0.5),
    # the worst violation, 2.84e-3, is in cells at rest outside the swept
    # window: product1d's x-source moves Q across a cell that holds +0.0
    # (the swept cells alone read 7.05e-4)
    ("product1d", "outflow", (0.3, -0.85, -0.7), 0.05)],
    ids=["kink1d-outflow", "product1d-periodic", "product1d-rest-cells"])
def test_entropy_scan_on_compact_data_matches_reference(name, boundary, box,
                                                        t_end):
    # a box of support, +0.0 on most of the grid
    flux = catalog_lookup(name)
    config = SchemeConfig(lo=-1.0, hi=1.5, nx=400, t_end=t_end,
                          boundary=boundary, store_every=10 ** 9)
    ks = np.linspace(-0.5, 1.5, 9)
    ini = box_data(*box)
    assert (discrete_entropy_max_violation(flux, ini, config, ks)
            == _reference_entropy_scan(flux, ini, config, ks))


def _scan_with_binds(flux, u, config, ks):
    """The scan of datum ``u`` and the number of times its stepper bound
    the views of a window."""
    binds = []
    bind = solver_mod._Stepper1D._bind

    def counted(stepper):
        binds.append(1)
        bind(stepper)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod._Stepper1D, "_bind", counted)
        scan = discrete_entropy_max_violation(flux, lambda p: u.copy(),
                                              config, ks)
    return scan, len(binds)


_SCAN_CASES = [(name, boundary) for name in catalog_names()
               if _lookup(name).dim == 1
               for boundary in ("outflow", "periodic")]


@pytest.mark.parametrize("name,boundary", _SCAN_CASES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_windowed_entropy_scan_on_far_field_data_matches_reference(
        name, boundary, data):
    # the scan reads each step's swept views and takes the cells outside
    # them from the far-field states; about 60 steps, so a window that
    # grows a cell a step is bound anew
    flux = _lookup(name)
    config = SchemeConfig(lo=-1.3, hi=0.9, nx=200, t_end=0.4,
                          boundary=boundary)
    u = data.draw(_far_field_data(config.nx))
    ks = np.array(data.draw(st.lists(
        st.floats(-1.5, 1.5) | st.sampled_from(_FAR_FIELD[:5]),
        min_size=1, max_size=5)))
    def outcome(scan):
        try:
            return repr(scan(flux, lambda p: u.copy(), config, ks))
        except CFLViolation as exc:
            # the a-priori speed of data whose states are all denormal
            # gives dt = inf, which both refuse
            return repr(exc)
    # repr tells every float apart bitwise, -0.0 from +0.0 included
    assert (outcome(discrete_entropy_max_violation)
            == outcome(_reference_entropy_scan))


@pytest.mark.parametrize("name,ul,ur", [("advection1d", 0.8, 0.0),
                                        ("burgers1d", 1.0, -0.2)])
def test_entropy_scan_reads_views_of_the_step_not_of_the_next(name, ul, ur):
    # a jump between two far-field states that rest grows its window by a
    # cell a step, so the views are bound anew every few steps; those for
    # the next step span faces this step did not sweep, whose buffers hold
    # other states (the rest rule's sweep of cR fills them), so the scan
    # must read the views the step swept
    flux = _lookup(name)
    config = SchemeConfig(lo=-1.3, hi=0.9, nx=400, t_end=0.6)
    c = config.lo + (np.arange(config.nx) + 0.5) * config.dx
    u = np.where(c < -0.2, ul, ur)
    ks = np.linspace(-0.5, 1.5, 9)
    scan, binds = _scan_with_binds(flux, u, config, ks)
    assert binds >= 3
    assert scan == _reference_entropy_scan(flux, lambda p: u.copy(), config,
                                           ks)


_UNIQUENESS_RUN = """
[flux]
name = burgers1d
[initial_data]
kind = riemann
ul = 1.0
ur = -0.2
x0 = 0.0
{second}
[grid]
lo = -1.0
hi = 1.5
nx = 120
dim = 1
t_end = 0.3
store_every = 7
[scheme]
kind = rusanov
cfl = 0.9
boundary = outflow
[output]
dir = uniq
[checks]
tasks = uniq
[check.uniq]
kind = uniqueness
cfl_list = {cfls}
viscous_coeff = 2.0
min_ratio = 1.5
"""


@pytest.mark.parametrize("cfls,second,reused", [
    ("0.9, 0.45", "", [0]),
    ("0.45, 0.9", "", [1]),
    # solve_pair takes dt from the larger datum, so u is no solve of its own
    ("0.9, 0.45", "[initial_data2]\nkind = constant\nvalue = 1.5", [])])
def test_uniqueness_takes_the_runs_own_solve_bitwise(cfls, second, reused):
    # the variant that is the run's scheme at the coarse level is not
    # solved again: its final level is the run's, and the report is the
    # one of a check that solves every variant
    cfg = parse_config(_UNIQUENESS_RUN.format(cfls=cfls, second=second))
    flux = catalog_lookup("burgers1d")
    u, v = cli_mod._solve(cfg, flux, cfg.grid)
    solves = []
    solve_ = verifier_mod.solve

    def counted(*args):
        solves.append(args[2])
        return solve_(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier_mod, "solve", counted)
        report, _ = cli_mod._run_check(cfg.checks[0], flux, u, v, cfg)
    base = replace(cfg.grid, store_every=10 ** 9)
    variants = [replace(base, cfl=float(c)) for c in cfls.split(",")]
    variants.append(replace(base, scheme="viscous", viscosity=2.0 * base.dx))
    ref = verifier_mod.uniqueness_experiment(
        flux, cfg.initial_data, variants,
        exact_at_t_end=cli_mod._burgers_oracle(cfg), min_ratio=1.5)
    assert report.metadata.pop("coarse_from_run") == reused
    assert ref.metadata.pop("coarse_from_run") == []
    assert (report.value, report.passed) == (ref.value, ref.passed)
    assert report.metadata == ref.metadata
    assert len(solves) == 2 * len(variants) - len(reused)
    assert all(variants[i] not in solves for i in reused)


# -- Lipschitz sampling -----------------------------------------------------

def _reference_lipschitz_estimate(flux, R, M, n):
    n_x = n if flux.dim == 1 else max(33, int(np.sqrt(n)) | 1)
    pts = flux_mod._ball_lattice(R, flux.dim, n_x)
    ks = np.linspace(-M, M, n)
    fv = flux.eval(pts[:, None, :], ks[None, :])          # (npts, nk, d)
    if not np.all(np.isfinite(fv)):
        raise NonFiniteFlux(f"{flux.name}: non-finite values on sample set")
    best = 0.0
    stride = 1
    while stride < n:
        df = fv[:, stride:, :] - fv[:, :-stride, :]
        dk = ks[stride:] - ks[:-stride]
        quot = np.sqrt((df ** 2).sum(axis=-1)) / dk[None, :]
        best = max(best, float(quot.max()))
        stride *= 2
    dkv = flux.dk(pts[:, None, :], ks[None, :])
    if not np.all(np.isfinite(dkv)):
        raise NonFiniteFlux(f"{flux.name}: non-finite state derivative")
    return max(best, float(np.sqrt((dkv ** 2).sum(axis=-1)).max()))


def _max_chord_slope(fv, ks):
    """Max of |f(x, k_{j+1}) - f(x, k_j)| / (k_{j+1} - k_j) over the points
    and j; ``fv`` has shape (nk, npts, d).

    At one point a chord over several adjacent steps is a weighted mean of
    their chords, so it exceeds their max only by rounding and adjacent
    chords suffice.  sqrt and the division by k_{j+1} - k_j > 0 are
    monotone, so the max over the points is taken first and the result is
    still the max of the pointwise quotients, bit for bit.
    """
    sq = flux_mod._sum_squares([fv[1:, :, i] - fv[:-1, :, i]
                                for i in range(fv.shape[-1])])
    return float((np.sqrt(sq.max(axis=1)) / np.diff(ks)).max(initial=0.0))


def _sampled_estimate(flux, pts, ks):
    """Max of the chord slopes between adjacent states and of |d_k f|,
    sampled from ``eval`` and ``dk`` at every point of ``pts`` (npts, d)
    and state of ``ks``: the full sampling that
    ``flux._factored_estimate`` reads from the factors."""
    fv = flux.eval(pts[None, :, :], ks[:, None])          # (nk, npts, d)
    if not np.all(np.isfinite(fv)):
        raise NonFiniteFlux(f"{flux.name}: non-finite values on sample set")
    best = _max_chord_slope(fv, ks)
    del fv  # released before the derivative samples are taken
    dkv = flux.dk(pts[None, :, :], ks[:, None])
    if not np.all(np.isfinite(dkv)):
        raise NonFiniteFlux(f"{flux.name}: non-finite state derivative on sample set")
    sq = flux_mod._sum_squares([dkv[..., i] for i in range(flux.dim)])
    return max(best, float(np.sqrt(sq.max())))


def _with_sampled_estimates(fn, *args):
    """``fn(*args)`` (``lipschitz_constant`` or ``_lipschitz_estimate``)
    with every estimate taken by ``_sampled_estimate`` on the same
    lattice and states."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flux_mod, "_factored_estimate", _sampled_estimate)
        return fn(*args)


@pytest.mark.parametrize("name", catalog_names())
def test_lipschitz_matches_reference(name):
    # the estimate reads max|g| times the slope of h, the exact product,
    # where the reference rounds every g_i h(k): at one grid they agree
    # within that rounding, 4 sqrt(d) eps G max|h| / min dk + 8 eps N, and
    # the underflow of its squares, 2^-500 / min dk.  The full sampling
    # (``_sampled_estimate``) reads eval/dk as the reference does, but over
    # adjacent states only: the reference's longer strides exceed that
    # only by rounding, here not at all
    flux, eps = _lookup(name), np.finfo(float).eps
    for R in (0.5, 1.0, 2.0, 8.0):
        assert lipschitz_constant(flux, R, 0.0) == 0.0
        for M in (0.3, 1.0, 2.5):
            for n in (201, 401):
                fast = flux_mod._lipschitz_estimate(flux, R, M, n)
                ref = _reference_lipschitz_estimate(flux, R, M, n)
                n_x = n if flux.dim == 1 else max(33, int(np.sqrt(n)) | 1)
                g = flux.factors.g(flux_mod._ball_lattice(R, flux.dim, n_x))
                ks = np.linspace(-M, M, n)
                G = np.sqrt((g * g).sum(axis=-1)).max()
                bound = ((4.0 * np.sqrt(flux.dim) * eps * G
                          * np.abs(flux.factors.h(ks)).max() + 2.0 ** -500)
                         / np.diff(ks).min() + 8.0 * eps * fast)
                assert abs(fast - ref) <= bound, (R, M, n)
                assert (_with_sampled_estimates(
                    flux_mod._lipschitz_estimate, flux, R, M, n) == ref
                ), (R, M, n)


# -- weak-form quadrature ---------------------------------------------------
#
# The batched core adds each level up over the support box only, and the
# smooth pairs of a flux with factors read one state-table row per level
# instead of one per (point, state) pair: the one rule, on other
# breakpoints.  Values therefore agree with the per-level loop up to
# rounding and breakpoint placement, not bit for bit:
# every value within WEAK_RTOL of the case's largest |value|, and Kruzkov
# and Kato values (no state quadrature) within ROUNDOFF of the summed
# magnitude of the products the loop adds up.  Measured on these cases:
# 2.5e-12 and 1.7e-16.

WEAK_RTOL = 1e-11
ROUNDOFF = 1e-14


def _reference_support_levels(field_, phi):
    lo, hi, t0, t1 = phi.support_box
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    margin = 2.0 * field_.dx
    if np.any(lo < field_.lo + margin) or np.any(hi > field_.hi - margin):
        raise SupportExceedsDomain("support not inside domain")
    times = field_.times
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise SupportExceedsDomain("window not inside stored range")
    idx = [n for n in range(len(times) - 1)
           if times[n + 1] > t0 + 1e-14 and times[n] < t1 - 1e-14]
    if len(idx) < 2:
        raise MissingTimeLevels("fewer than two intervals")
    return idx


def _reference_weak_sum(field_, phi, eta_at, q_at, source_at=None):
    """The per-level loop: phi on the whole domain at t_n, t_{n+1} and the
    midpoint of every level interval.  Returns the value and the sum of
    the magnitudes of every product it adds up, the scale of its rounding
    error."""
    levels = _reference_support_levels(field_, phi)
    P = field_.centers_points()
    times = field_.times
    cell = field_.dx ** field_.dim
    value = 0.0
    magnitude = 0.0
    for n in levels:
        dtn = times[n + 1] - times[n]
        tmid = 0.5 * (times[n] + times[n + 1])
        phi_lo = phi.value(P, times[n])
        phi_hi = phi.value(P, times[n + 1])
        phi_mid = phi.value(P, tmid)
        dt_part = (phi_hi - phi_lo) * eta_at(n)
        value += cell * float(dt_part.sum())
        rest = np.zeros(P.shape[:-1])
        parts = [dt_part]
        grads = [np.gradient(phi_mid, field_.dx, axis=a)
                 for a in range(field_.dim)]
        qn = q_at(n)
        for a in range(field_.dim):
            parts.append(dtn * grads[a] * qn[..., a])
            rest = rest + grads[a] * qn[..., a]
        if source_at is not None:
            parts.append(dtn * phi_mid * source_at(n))
            rest = rest + phi_mid * source_at(n)
        value += cell * dtn * float(rest.sum())
        magnitude += cell * sum(float(np.abs(x).sum()) for x in parts)
    return value, magnitude


def _reference_entropy_value(u, flux, pair, phi):
    P = u.centers_points()

    def source_at(n):
        un = u.data[n]
        return pair.div_x_q(P, un) - pair.eta_prime(un) * flux.div_x(P, un)

    return _reference_weak_sum(u, phi, lambda n: pair.eta(u.data[n]),
                               lambda n: pair.q(P, u.data[n]), source_at)


def _reference_kato_value(u, v, flux, psi):
    P = u.centers_points()

    def q_at(n):
        s = np.sign(u.data[n] - v.data[n])
        return s[..., None] * (flux.eval(P, u.data[n]) - flux.eval(P, v.data[n]))

    return _reference_weak_sum(u, psi, lambda n: np.abs(u.data[n] - v.data[n]),
                               q_at)


def _assert_matches(fast, refs, exact: int):
    """``refs`` are (value, magnitude) pairs from the loop; the first
    ``exact`` values carry no state quadrature."""
    ref = np.array([r[0] for r in refs])
    dev = np.abs(np.asarray(fast) - ref)
    scale = float(np.abs(ref).max())
    assert scale > 0.0
    assert dev.max() <= WEAK_RTOL * scale, (dev, ref)
    magnitude = np.array([r[1] for r in refs])
    assert np.all(dev[:exact] <= ROUNDOFF * magnitude[:exact]), (dev, magnitude)


def _entropy_cases():
    """(label, field, flux, phi): solver output on catalog fluxes."""
    for name, ini, box in (
            ("burgers1d", riemann_data(1.0, 0.0, 0.0), (0.1, 0.4, 0.05, 0.3)),
            ("product1d", sine_data(0.3, 1.0, 0.45), (0.0, 0.5, 0.05, 0.3)),
            ("kink1d", sine_data(0.4, 1.0, 0.2), (0.0, 0.6, 0.1, 0.3)),
            ("xsquared1d", sine_data(0.3, 1.0, 0.2), (-0.2, 0.5, 0.05, 0.3))):
        flux = catalog_lookup(name)
        u = solve(flux, ini, SchemeConfig(lo=-1.0, hi=1.0, nx=300,
                                          t_end=0.35, store_every=2))
        c, r, t0, t1 = box
        yield name, u, flux, bump_test_function(c, r, t0, t1)
    for name in ("burgers2d", "product2d"):
        flux = catalog_lookup(name)
        u = solve(flux, box_data(1.0, -0.4, 0.1),
                  SchemeConfig(lo=-1.5, hi=1.5, nx=40, t_end=0.4, dim=2,
                               store_every=2))
        yield name, u, flux, bump_test_function(np.array([0.0, -0.1]), 0.8,
                                                0.05, 0.35, dim=2)


@pytest.mark.parametrize("case", list(_entropy_cases()), ids=lambda c: c[0])
def test_entropy_sweep_matches_reference(case):
    _, u, flux, phi = case
    kruzkov = [make_kruzkov_pair(flux, k0) for k0 in default_k0_sweep(1.0, 5)]
    smooth = [make_smooth_pair(flux, k0, n)
              for k0, n in ((0.0, 4), (0.3, 16), (-0.2, 64))]
    fast = [r.value for r in entropy_residual_sweep(u, flux, kruzkov + smooth,
                                                    phi)]
    refs = [_reference_entropy_value(u, flux, p, phi) for p in kruzkov + smooth]
    _assert_matches(fast, refs, exact=len(kruzkov))


def _loop_weak_sums(fields, phi, terms):
    """``verifier._weak_sums`` as it added each chunk's per-level sums: a
    Python loop over the levels, in time order."""
    field_ = fields[0]
    levels, box = verifier_mod._support_window(field_, phi)
    P = field_.centers_points()[box]
    times = field_.times
    dx, dim = field_.dx, field_.dim
    cell = dx ** dim
    chunk = max(1, verifier_mod._CHUNK_CELLS // P[..., 0].size)
    values = []
    for n0 in range(levels.start, levels.stop, chunk):
        n1 = min(n0 + chunk, levels.stop)
        edges = times[n0:n1 + 1]
        dts = np.diff(edges)
        tq = np.empty(2 * len(dts) + 1)
        tq[0::2] = edges
        tq[1::2] = 0.5 * (edges[:-1] + edges[1:])
        ph = phi.value(P, tq.reshape((-1,) + (1,) * dim))
        dphi = ph[2::2] - ph[:-2:2]
        phi_mid = ph[1::2]
        grads = [np.gradient(phi_mid, dx, axis=1 + a) for a in range(dim)]
        states = [f.data[(slice(n0, n1),) + box] for f in fields]
        for j, (eta, q, source) in enumerate(terms(P, *states)):
            rest = grads[0] * q[..., 0]
            for a in range(1, dim):
                rest = rest + grads[a] * q[..., a]
            if source is not None:
                rest = rest + phi_mid * source
            s_dt = (dphi * eta).reshape(len(dts), -1).sum(axis=1).tolist()
            s_rest = rest.reshape(len(dts), -1).sum(axis=1).tolist()
            if j == len(values):
                values.append(0.0)
            value = values[j]
            for sd, sr, dtn in zip(s_dt, s_rest, dts.tolist()):
                value += cell * sd
                value += cell * dtn * sr
            values[j] = value
    return values


@pytest.mark.parametrize("case", list(_entropy_cases()), ids=lambda c: c[0])
def test_weak_sums_accumulate_like_the_level_loop(case):
    """The per-level sums folded by ``np.add.accumulate`` are bitwise the
    loop's, on the entropy sweep's terms and on Kato's, whatever the
    chunking."""
    _, u, flux, phi = case
    pairs = ([make_kruzkov_pair(flux, k0) for k0 in default_k0_sweep(1.0, 5)]
             + [make_smooth_pair(flux, k0, n)
                for k0, n in ((0.0, 4), (0.3, 16), (-0.2, 64))])
    v = replace(u, data=u.data[::-1].copy())

    def kato_terms(P, U, V):
        yield np.abs(U - V), kruzkov_flux(flux, P, U, V), None

    for budget in (verifier_mod._CHUNK_CELLS, 1, 10 ** 9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier_mod, "_CHUNK_CELLS", budget)
            for fields, terms in (((u,), sweep_terms(flux, pairs)),
                                  ((u, v), kato_terms)):
                fast, _ = verifier_mod._weak_sums(fields, phi, terms)
                assert _bitwise_equal(fast, _loop_weak_sums(fields, phi,
                                                            terms))


@pytest.mark.parametrize("name,dim", [("burgers1d", 1), ("product1d", 1),
                                      ("product2d", 2)])
def test_kato_matches_reference(name, dim):
    flux = catalog_lookup(name)
    config = SchemeConfig(lo=-3.0, hi=3.0, nx=600 if dim == 1 else 48,
                          t_end=1.0, dim=dim, store_every=2)
    u, v = solve_pair(flux, box_data(1.0, -0.5, 0.0),
                      box_data(1.0, -0.4, 0.1), config)
    R = 2.0
    cone = ConeSpec(R=R, N=lipschitz_constant(flux, R, 1.0), dim=dim,
                    horizon=1.0)
    tmax = cone.t_max
    psi = contraction_test_function(cone, 0.25 * tmax, 0.75 * tmax,
                                    0.1 * tmax, 0.2)
    fast = kato_lhs(u, v, flux, psi).value
    _assert_matches([fast], [_reference_kato_value(u, v, flux, psi)], exact=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_support_touching_margin_matches_reference(dim):
    # dx = 1/32 and the support edges sit exactly two cells inside the
    # domain on every side, so the cell box reaches the domain boundary
    flux = catalog_lookup("product1d" if dim == 1 else "product2d")
    nx = 64 if dim == 1 else 32
    dx = 2.0 / nx
    u = solve(flux, sine_data(0.3, 1.0, 0.4),
              SchemeConfig(lo=-1.0, hi=1.0, nx=nx, t_end=0.3, dim=dim,
                           boundary="periodic"))
    phi = bump_test_function(np.zeros(dim), 1.0 - 2.0 * dx, 0.05, 0.25,
                             dim=dim)
    assert float(np.min(phi.support_box[0])) == u.lo + 2.0 * dx
    pairs = [make_kruzkov_pair(flux, 0.2), make_smooth_pair(flux, 0.1, 16)]
    fast = [r.value for r in entropy_residual_sweep(u, flux, pairs, phi)]
    refs = [_reference_entropy_value(u, flux, p, phi) for p in pairs]
    _assert_matches(fast, refs, exact=1)
    off = bump_test_function(np.zeros(dim), 1.0 - 1.5 * dx, 0.05, 0.25,
                             dim=dim)
    with pytest.raises(SupportExceedsDomain):
        entropy_residual_sweep(u, flux, pairs, off)


def test_two_interval_window_matches_reference():
    flux = catalog_lookup("burgers1d")
    times = np.linspace(0.0, 1.0, 11)
    u = field_from_function(
        lambda p, t: np.where(p[..., 0] < 0.5 * t, 1.0, 0.0), -1.0, 1.0, 200,
        times)
    phi = bump_test_function(0.1, 0.5, 0.2, 0.4)
    assert len(_reference_support_levels(u, phi)) == 2
    pairs = [make_kruzkov_pair(flux, 0.5), make_smooth_pair(flux, 0.5, 16)]
    fast = [r.value for r in entropy_residual_sweep(u, flux, pairs, phi)]
    refs = [_reference_entropy_value(u, flux, p, phi) for p in pairs]
    _assert_matches(fast, refs, exact=1)


# -- the factored entropy sweep ---------------------------------------------
#
# ``sweep_terms`` takes the terms from the factors: closed-form Kruzkov
# terms and smooth-pair tables shared per k0.  The reference takes every
# pair's own callables, div_x f for the sources and, for the smooth pairs,
# the one state-table rule with a row per (point, state) pair and d_k f or
# div_x f on its nodes.  The two agree up to rounding: measured at most
# 4.4e-14 of the case's largest |value| over 7,800 examples of the test
# below, asserted within FACTORED_RTOL.

FACTORED_RTOL = 1e-12


@st.composite
def _factored_sweep_cases(draw):
    """A catalog flux, a rough sign-changing field on [-1, 1]^d, a bump
    and pairs in a drawn order: Kruzkov states (some equal to field
    values), smooth pairs at k0 = 0 and three smooth pairs at a k0 != 0."""
    flux = _lookup(draw(st.sampled_from(catalog_names())))
    dim = flux.dim
    nx = draw(st.integers(24, 64) if dim == 1 else st.integers(10, 16))
    times = np.linspace(0.0, 1.0, draw(st.integers(4, 9)))
    M = draw(st.floats(0.1, 2.0))
    rough = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = GridField(dim, -1.0, 1.0, nx, times, np.empty(0), 0.0)
    x = grid.centers_points().sum(axis=-1)
    wave = np.sin(np.pi * (x[None] + times.reshape((-1,) + (1,) * dim))
                  + rng.uniform(0.0, 2.0 * np.pi))
    data = M * ((1.0 - rough) * wave
                + rough * rng.uniform(-1.0, 1.0, wave.shape))
    u = replace(grid, data=data, bound_M=float(np.abs(data).max()))
    state = st.sampled_from(data.ravel().tolist()) | st.floats(-M, M)
    kruzkov = draw(st.lists(state | st.just(0.0), min_size=2, max_size=5))
    smooth_n = st.integers(1, 400)
    k0 = draw(state.filter(lambda k: k != 0.0))
    smooth = ([(0.0, n) for n in draw(st.lists(smooth_n, min_size=1,
                                               max_size=2))]
              + [(k0, n) for n in draw(st.lists(smooth_n, min_size=3,
                                                max_size=3))])
    specs = draw(st.permutations([("kruzkov", k) for k in kruzkov]
                                 + [("smooth", k, n) for k, n in smooth]))
    phi = bump_test_function(np.zeros(dim), draw(st.floats(0.3, 0.55)),
                             draw(st.floats(0.0, 0.3)),
                             draw(st.floats(0.6, 1.0)), dim=dim)
    return u, flux, specs, phi


def _pairwise_terms(flux, pairs):
    """The sweep's terms from every pair's own callables, with div_x f
    evaluated once per chunk."""
    def terms(P, U):
        div_f = flux.div_x(P, U)
        for pair in pairs:
            yield (pair.eta(U), pair.q(P, U),
                   pair.div_x_q(P, U) - pair.eta_prime(U) * div_f)
    return terms


def _build_pairs(flux, specs):
    return [make_kruzkov_pair(flux, spec[1]) if spec[0] == "kruzkov"
            else make_smooth_pair(flux, spec[1], spec[2]) for spec in specs]


@settings(max_examples=60, deadline=None)
@given(_factored_sweep_cases())
def test_factored_sweep_matches_pair_by_pair_terms(case):
    """The factored terms against every pair's own callables, whose smooth
    pairs tabulate each (point, state) pair in a row of its own."""
    u, flux, specs, phi = case
    pairs = _build_pairs(flux, specs)
    fast = [r.value for r in entropy_residual_sweep(u, flux, pairs, phi)]
    ref, _ = verifier_mod._weak_sums((u,), phi, _pairwise_terms(flux, pairs))
    scale = float(np.max(np.abs(ref)))
    assert np.all(np.isfinite(fast))
    assert np.max(np.abs(np.subtract(fast, ref))) <= FACTORED_RTOL * scale


@pytest.mark.parametrize("name", ["product1d", "product2d", "burgers1d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factored_terms_non_finite_state_poisons_only_its_entries(name, bad):
    flux = catalog_lookup(name)
    rng = np.random.default_rng(RNG_SEED)
    shape = (3,) + (12,) * flux.dim
    P = rng.uniform(-1.0, 1.0, shape[1:] + (flux.dim,))
    U = rng.uniform(-1.0, 1.0, shape)
    pairs = _build_pairs(flux, [("kruzkov", 0.3), ("kruzkov", -0.2),
                                ("smooth", 0.0, 16), ("smooth", 0.4, 4),
                                ("smooth", 0.4, 64)])
    terms = sweep_terms(flux, pairs)
    poisoned = U.copy()
    hit = (1,) + (5,) * flux.dim
    poisoned[hit] = bad
    keep = np.ones(shape, dtype=bool)
    keep[hit] = False
    with np.errstate(invalid="ignore"):          # sin(inf) is NaN
        outs = list(terms(P, poisoned))
    for clean, out in zip(terms(P, U), outs, strict=True):
        # eta is not finite at the state; a Kruzkov source at an infinite
        # state is -sign(u - k0) h(k0) times the sum of g', finite as the
        # closed form says
        assert not np.isfinite(out[0][hit])
        for a, b in zip(clean, out):
            assert np.all(np.abs(b[keep] - a[keep])
                          <= 1e-14 * np.abs(a[keep]).max())


# -- state tables ------------------------------------------------------------
#
# ``entropy._state_tables`` gives each interval 4, 8 or 16 Gauss-Legendre
# nodes by its distance to k0 and sums outward from k0.  The reference is
# the rule it replaced: 16 nodes on every interval, one ``cumsum`` per row
# from its lowest breakpoint, shifted to 0 at k0.  The breakpoints are the
# same, so the two agree to rounding and the 16-node error: measured at
# most 3.6e-15 of each row's largest |value| on the test below, asserted
# within TABLE_RTOL.  The integrands keep one sign on each side of k0: a
# value that cancels below the size of its integrand's parts carries the
# rounding of those parts in either rule.

TABLE_RTOL = 2e-14
_GAUSS_16 = np.polynomial.legendre.leggauss(16)


def _reference_state_tables(k0, k):
    R, S = k.shape
    fin = np.isfinite(k)
    kf = np.where(fin, k, k0)
    below = k0 - kf.min(axis=1, initial=k0)
    above = kf.max(axis=1, initial=k0) - k0
    ladder_all = 4.0 ** np.arange(-15, 512)
    nb = np.searchsorted(ladder_all, below)
    na = np.searchsorted(ladder_all, above)
    ladder = ladder_all[:max(nb.max(initial=0), na.max(initial=0))]
    used = np.arange(ladder.size)
    cand = np.concatenate(
        [kf, np.full((R, 1), k0),
         np.where(used < nb[:, None], k0 - ladder, k0),
         np.where(used < na[:, None], k0 + ladder, k0)], axis=1)
    rows = np.arange(R)[:, None]
    order = np.argsort(cand, axis=1, kind="stable")
    srt = cand[rows, order]
    first = np.ones(srt.shape, dtype=bool)
    first[:, 1:] = srt[:, 1:] != srt[:, :-1]
    rank = np.cumsum(first, axis=1) - 1
    bp = np.repeat(srt[:, -1:], rank[:, -1].max(initial=0) + 1, axis=1)
    bp[np.nonzero(first)[0], rank[first]] = srt[first]
    pos = np.empty_like(rank)
    pos[rows, order] = rank
    at, zero = pos[:, :S], pos[:, S:S + 1]
    off = bp - k0
    mid = 0.5 * (off[:, 1:] + off[:, :-1])
    half = 0.5 * (off[:, 1:] - off[:, :-1])
    t = np.multiply.outer(half, _GAUSS_16[0])
    t += mid[..., None]

    def lookup(integrand):
        sums = np.einsum("jm,m->j", integrand.reshape(-1, 16),
                         _GAUSS_16[1]).reshape(half.shape)
        table = np.concatenate([np.zeros((R, 1)),
                                np.cumsum(half * sums, axis=1)], axis=1)
        return np.where(fin, table[rows, at] - table[rows, zero], np.nan)

    return k0 + t, t, lookup


def _table_integrals(tables, k0, K, n, x):
    """int_{k0}^{u} of eta_n' cos(w + x) and of eta_n'' sin(w + x) for
    rows K with one x each."""
    w, t, lookup = tables(k0, K)
    ent = sqrt_entropy(0.0, n)
    xs = x.reshape((-1,) + (1,) * (w.ndim - 1))
    return (lookup(ent.eta_prime(t) * (2.0 + np.cos(w + xs))),
            lookup(ent.eta_pp(t) * (2.0 + np.sin(w + xs))))


@pytest.mark.parametrize("n", [1, 16, 10 ** 4, 2 ** 30, 2 ** 54, "random"])
def test_state_tables_match_16_node_tables(n):
    """Random rows, k0 inside or outside each row's span, against the
    16-node rule, within TABLE_RTOL of each row's largest |value|."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        lo = rng.uniform(-3.0, 2.0)
        K = lo + rng.uniform(0.0, 10.0 ** rng.uniform(-4.0, 0.5),
                             (rng.integers(1, 5), rng.integers(1, 300)))
        k0 = (rng.uniform(K.min(), K.max()) if rng.random() < 0.5
              else rng.uniform(-3.0, 3.0))
        x = rng.uniform(-1.0, 1.0, len(K))
        nn = int(2.0 ** rng.uniform(0.0, 54.0)) if n == "random" else n
        fast = _table_integrals(_state_tables, k0, K, nn, x)
        ref = _table_integrals(_reference_state_tables, k0, K, nn, x)
        for a, b in zip(fast, ref):
            scale = np.abs(b).max(axis=1, keepdims=True)
            assert np.all(np.abs(a - b) <= TABLE_RTOL * scale)


# -- doubling of variables -------------------------------------------------

# raw and deviation against the level loop, relative to the largest
# magnitude of their key's table; limits are bitwise equal
DOUBLING_RTOL = 1e-12


def _reference_smooth_flags(u, v, level, threshold, margin):
    """The per-jump loop: each jump b between cells b and b + 1 flags the
    cells b - margin .. b + margin + 1."""
    flags = np.zeros(u.nx, dtype=bool)
    for f in (u, v):
        for b in np.where(np.abs(np.diff(f.data[level])) > threshold)[0]:
            flags[max(0, b - margin):min(u.nx, b + margin + 2)] = True
    return flags


def _reference_doubling(u, v, flux, eps_list, sample_points,
                        threshold: float | None = None):
    """The per-level loop ``doubling_diagnostics`` replaced: flux
    evaluations per stored level, a 7-cell jump guard per sample, and dict
    accumulators."""
    u.require_compatible(v)
    if u.dim != 1:
        raise ValueError("doubling diagnostics implemented for 1-d fields")
    eps_list = [float(e) for e in eps_list]
    samples = [(float(x), float(t)) for (x, t) in sample_points]
    if threshold is None:
        threshold = 10.0 * max(float(np.abs(np.diff(f.data[0])).max())
                               for f in (u, v))
    centers = u.centers
    times = u.times
    dts = np.gradient(times)
    cell = u.dx
    P = u.centers_points()

    n_e, n_s = len(eps_list), len(samples)
    dev = {key: np.zeros((n_e, n_s)) for key in ("I1", "I2", "I3", "I4")}
    raw = {key: np.zeros((n_e, n_s)) for key in ("I1", "I2", "I3", "I4")}
    limits = {key: np.zeros(n_s) for key in ("I1", "I2", "I3", "I4")}

    for j, (xs, ts) in enumerate(samples):
        lev = u.level_index(ts)
        ci = int(np.clip(round((xs - u.lo) / u.dx - 0.5), 0, u.nx - 1))
        window = slice(max(0, ci - 3), min(u.nx, ci + 4))
        for f in (u, v):
            if np.abs(np.diff(f.data[lev][window])).max(initial=0.0) > threshold:
                raise SampleNearShock(f"sample at x={xs}, t={ts} sits near a jump")
        ustar = float(u.data[lev][ci])
        vstar = float(v.data[lev][ci])
        x0 = np.array([[xs]])
        s0 = np.sign(ustar - vstar)
        limits["I1"][j] = abs(ustar - vstar)
        limits["I2"][j] = s0 * (flux.eval(x0, ustar)
                                - flux.eval(x0, vstar))[..., 0].item()
        div_u = flux.div_x(x0, ustar).item()
        div_v = flux.div_x(x0, vstar).item()
        limits["I3"][j] = s0 * (div_u - div_v)
        limits["I4"][j] = -limits["I3"][j]

        for e, eps in enumerate(eps_list):
            rho = Mollifier(1, eps)
            lmask = np.where(np.abs(times - ts) < eps)[0]
            if len(lmask) < 3:
                raise MissingTimeLevels(
                    f"need stored levels within {eps} of t={ts}")
            cmask = np.abs(centers - xs) < eps
            ym = centers[cmask][:, None]
            wx = rho.value((xs - ym))
            fy_u = flux.eval(ym, ustar)[..., 0]
            fx_u = flux.eval(x0, ustar)[..., 0].item()
            div_y_u = flux.div_x(P[cmask], ustar)
            grad_rho = rho.grad((xs - ym))[..., 0] * (-1.0)   # d/dy of rho(x-y)
            acc = {key: 0.0 for key in ("I1", "I2", "I3", "I4")}
            for n in lmask:
                wt = float(omega_value(eps, ts - times[n])) * dts[n]
                if wt == 0.0:
                    continue
                vy = v.data[n][cmask]
                sgn = np.sign(ustar - vy)
                fx_v = flux.eval(x0, vy)[..., 0]
                fy_v = flux.eval(ym, vy)[..., 0]
                div_x_v = flux.div_x(np.full((len(vy), 1), xs), vy)
                q_at_x = sgn * (fx_u - fx_v)
                q_at_y = sgn * (fy_u - fy_v)
                acc["I1"] += wt * float((wx * np.abs(ustar - vy)).sum()) * cell
                acc["I2"] += wt * float((wx * q_at_x).sum()) * cell
                acc["I3"] += wt * float(
                    (wx * sgn * (div_y_u - div_x_v)).sum()) * cell
                acc["I4"] += wt * float((grad_rho * (q_at_y - q_at_x)).sum()) * cell
            for key in acc:
                raw[key][e, j] = acc[key]
                dev[key][e, j] = abs(acc[key] - limits[key][j])
    return {"eps": eps_list, "samples": samples, "limits": limits,
            "raw": raw, "deviation": dev,
            "max_deviation": {key: dev[key].max(axis=1) for key in dev}}




def _doubling_pair(name, nx=640, t_end=0.33, store_every=1):
    flux = catalog_lookup(name)
    u, v = solve_pair(flux, sine_data(0.3, 1.0, 0.5),
                      sine_data(0.25, 1.0, 0.45),
                      SchemeConfig(lo=-1.0, hi=1.0, nx=nx, t_end=t_end,
                                   store_every=store_every,
                                   boundary="periodic"))
    return flux, u, v


def _assert_doubling_matches(fast, ref):
    assert fast["eps"] == ref["eps"] and fast["samples"] == ref["samples"]
    for key in ("I1", "I2", "I3", "I4"):
        assert _bitwise_equal(fast["limits"][key], ref["limits"][key]), key
        for part in ("raw", "deviation"):
            a, b = fast[part][key], ref[part][key]
            assert a.shape == b.shape
            scale = float(np.abs(b).max())
            assert np.abs(a - b).max() <= DOUBLING_RTOL * scale, (part, key)
        assert fast["max_deviation"][key].shape == (len(ref["eps"]),)


@pytest.mark.parametrize("name", ["burgers1d", "product1d", "xsquared1d",
                                  "kink1d"])
def test_doubling_matches_reference(name):
    flux, u, v = _doubling_pair(name)
    lev = int(np.argmin(np.abs(u.times - 0.2)))
    tstar = float(u.times[lev])
    threshold = jump_threshold(u, v)
    xs = find_smooth_samples(u, v, lev, 6, threshold, margin_cells=90)
    # x = 0 is the singular point of kink1d, where div_x takes the mean of
    # its one-sided values; u is steep there, so that sample runs with the
    # jump guard off
    eps = [0.1, 0.05, 0.025]
    for samples, guard in (([(float(x), tstar) for x in xs], threshold),
                           ([(0.0, tstar), (0.3, tstar)], np.inf)):
        _assert_doubling_matches(
            doubling_diagnostics(u, v, flux, eps, samples, guard),
            _reference_doubling(u, v, flux, eps, samples, guard))


@pytest.mark.parametrize("margin", [0, 1, 2, 5, 30])
def test_jump_rule_matches_reference(margin):
    flux, u, v = _doubling_pair("burgers1d", nx=200, t_end=0.8)
    lev = len(u.times) - 1
    threshold = jump_threshold(u, v)
    flags = _reference_smooth_flags(u, v, lev, threshold, margin)
    assert flags.any() and not flags.all()
    assert _bitwise_equal(_near_jump(u, v, lev, threshold, margin), flags)
    if margin > 0:
        flags[:margin] = flags[-margin:] = True
    ok = np.where(~flags)[0]
    picked = np.sort(np.random.default_rng(7).choice(ok, 8, replace=False))
    assert _bitwise_equal(
        find_smooth_samples(u, v, lev, 8, threshold, margin, seed=7),
        u.centers[picked])


def _outcome(fn, *args):
    try:
        fn(*args)
    except (SampleNearShock, MissingTimeLevels) as exc:
        return type(exc)
    return None


def test_doubling_errors_match_reference():
    flux, u, v = _doubling_pair("burgers1d", nx=200, t_end=0.8)
    lev = len(u.times) - 1
    tstar = float(u.times[lev])
    shock = int(np.argmax(np.abs(np.diff(u.data[lev]))))
    # every cell around the shock: the guard flags cells b - 2 .. b + 3
    raised = set()
    for ci in range(shock - 6, shock + 8):
        args = (u, v, flux, [0.05], [(float(u.centers[ci]), tstar)])
        outcome = _outcome(doubling_diagnostics, *args)
        assert outcome == _outcome(_reference_doubling, *args), ci
        raised.add(outcome)
    assert raised == {SampleNearShock, None}
    # too few levels in the window, and a time that is not stored
    smooth = float(find_smooth_samples(u, v, lev, 1, jump_threshold(u, v),
                                       margin_cells=5)[0])
    dt = float(np.diff(u.times).min())
    for eps, t in ((0.5 * dt, tstar), (0.05, tstar - 0.5 * dt)):
        args = (u, v, flux, [0.1, eps], [(smooth, t)])
        assert _outcome(doubling_diagnostics, *args) is MissingTimeLevels
        assert _outcome(_reference_doubling, *args) is MissingTimeLevels
