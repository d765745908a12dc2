"""The three benchmark workloads: seeded inputs, one verified experiment,
and the correctness oracles.

Each workload maps the benchmark seed onto one point of a small grid of
input parameters (``LEVELS``).  The grid is small so that the reference
report values of every point can be stored in ``reference.json``, taken at
the commit that introduced the benchmark.  The ranges are chosen so that
the amount of work (time steps, stored levels, quadrature panels) does not
depend on the point: run-to-run spread then measures the machine, not the
input.  The program receives only the generated config text.

An experiment is what ``clawlab run`` does for the workload's config
(``cli.run_experiment``), plus the library calls that the workload adds:
the expansion-shock anti-test, the replay of the cone check from the
written slabs, or the per-cell entropy scan.  Its result is compared with
the reference outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from clawlab.cli import run_experiment
from clawlab.config import parse_config
from clawlab.entropy import default_k0_sweep, make_kruzkov_pair
from clawlab.flux import catalog_lookup
from clawlab.grids import field_from_function, load_field
from clawlab.mollifiers import bump_test_function
from clawlab.solver import SchemeConfig, discrete_entropy_max_violation
from clawlab.verifier import cone_contraction_profile, entropy_residual

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Relative tolerance of a report value against its reference, taken on the
# scale of its group (the largest reference magnitude in the group, or the
# check's own tolerance if that is larger and in value units), so entries
# that cancel to roundoff compare on the scale of their neighbours.
RTOL = 1e-9
# The per-cell discrete entropy inequality holds to roundoff for Burgers.
SCAN_LIMIT = 1e-12


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


class Workload:
    """One workload: ``LEVELS`` is the parameter grid, ``config`` the
    clawlab config text for a grid point."""

    name = ""
    LEVELS: dict = {}

    def __init__(self, seed: int):
        keys = list(self.LEVELS)
        points = list(itertools.product(*(self.LEVELS[k] for k in keys)))
        self.point = random.Random(seed).randrange(len(points))
        self.params = dict(zip(keys, points[self.point]))
        self.config_text = self.config(**self.params)

    def config(self, **params) -> str:
        raise NotImplementedError

    def experiment(self, outdir: Path) -> dict:
        raise NotImplementedError

    @staticmethod
    def observe(outcome: dict) -> dict:
        """Reduce an experiment's reports to {check: {"passed", "groups",
        "tolerance"}} for comparison with the reference."""
        raise NotImplementedError

    def extra_failures(self, outcome: dict) -> dict:
        """Checks whose oracle is not a stored reference: {check: reason}."""
        return {}


def _report(rep, groups: dict, value_tolerance: bool = True) -> dict:
    """``value_tolerance`` says whether the report's tolerance is in the
    units of its value (it is a ratio for uniqueness, NaN for doubling)."""
    tol = float(rep.tolerance)
    return {"passed": bool(rep.passed),
            "tolerance": tol if value_tolerance and math.isfinite(tol)
            else None,
            "groups": {k: [float(x) for x in v] for k, v in groups.items()}}


class Entropy1D(Workload):
    """product1d flux, sine pair, weak-entropy sweep and doubling limits."""

    name = "entropy_1d"
    # amp and offset keep u inside (0, pi/2), where sin is increasing and
    # concave, so the flux is genuinely nonlinear and shocks form; the
    # a-priori speed is max g(x) |cos 0| whatever the amplitude, so dt and
    # the number of stored levels are the same on every point.  run_seed
    # picks the doubling sample points.
    LEVELS = {"amp": (0.24, 0.28, 0.32, 0.36),
              "offset": (0.40, 0.45, 0.50, 0.55),
              "run_seed": (11, 23)}
    NX = 640

    def config(self, amp, offset, run_seed) -> str:
        return f"""
[flux]
name = product1d
[initial_data]
kind = sine
amp = {_fmt(amp)}
freq = 1.0
offset = {_fmt(offset)}
[initial_data2]
kind = sine
amp = {_fmt(round(amp - 0.05, 10))}
freq = 1.0
offset = {_fmt(round(offset - 0.05, 10))}
[grid]
lo = -1.0
hi = 1.0
nx = {self.NX}
dim = 1
t_end = 0.35
store_every = 1
[scheme]
kind = rusanov
cfl = 0.9
boundary = periodic
[output]
dir = entropy_1d
[run]
seed = {run_seed}
[checks]
tasks = entropy, doubling
[check.entropy]
kind = entropy_inequality
k0_count = 9
phi_center = 0.0
phi_radius = 0.35
phi_t0 = 0.05
phi_t1 = 0.3
[check.doubling]
kind = doubling
eps_list = 0.1, 0.05, 0.025
points = 6
t_sample = 0.2
"""

    def __init__(self, seed: int):
        super().__init__(seed)
        # Anti-test data: the Burgers expansion shock 0 | 1 joined at the
        # Rankine-Hugoniot speed 1/2 is a weak solution but not an entropy
        # solution; the residual against |u - 1/2| must come out negative.
        times = np.linspace(0.0, 0.5, 401)
        self.expansion = field_from_function(
            lambda p, t: np.where(p[..., 0] < 0.5 * t, 0.0, 1.0),
            -0.5, 1.0, 1200, times)

    def experiment(self, outdir: Path) -> dict:
        entropy, doubling = run_experiment(parse_config(self.config_text),
                                           outdir)
        burgers = catalog_lookup("burgers1d")
        phi = bump_test_function(0.125, 0.25, 0.05, 0.45)
        anti = entropy_residual(self.expansion, burgers,
                                make_kruzkov_pair(burgers, 0.5), phi)
        return {"entropy": entropy, "doubling": doubling, "anti_test": anti}

    @staticmethod
    def observe(outcome: dict) -> dict:
        ent, dbl, anti = (outcome[k] for k in ("entropy", "doubling",
                                               "anti_test"))
        dev = dbl.metadata["max_deviation"]
        return {
            "entropy": _report(ent, {
                "value": [ent.value],
                "sweep": [r["value"] for r in ent.metadata["sweep"]]}),
            "doubling": _report(dbl, {k: dev[k] for k in sorted(dev)}),
            "anti_test": _report(anti, {"value": [anti.value]}),
        }


class Contraction2D(Workload):
    """product2d flux, shifted boxes, cone/global/Kato and a slab replay."""

    name = "contraction_2d"
    # height stays below pi/2 (sin increasing on [0, height]); the shift
    # keeps both boxes well inside the R = 2 cone.  The a-priori speed and
    # the sampled Lipschitz constant are attained at u = 0, so dt, the
    # stored levels and the cone slope N are the same on every point.
    LEVELS = {"height": (0.8, 0.9, 1.0, 1.1),
              "shift": (0.05, 0.1, 0.15, 0.2)}
    NX = 160

    def config(self, height, shift) -> str:
        return f"""
[flux]
name = product2d
[initial_data]
kind = box
height = {_fmt(height)}
lo = -0.5
hi = 0.0
[initial_data2]
kind = box
height = {_fmt(height)}
lo = {_fmt(round(-0.5 + shift, 10))}
hi = {_fmt(shift)}
[grid]
lo = -3.0
hi = 3.0
nx = {self.NX}
dim = 2
t_end = 0.6
store_every = 10
[scheme]
kind = rusanov
cfl = 0.9
boundary = outflow
[output]
dir = contraction_2d
[checks]
tasks = cone, glob, kato
[check.cone]
kind = cone_contraction
r = 2.0
[check.glob]
kind = global_contraction
r_list = 1, 2, 4, 8
[check.kato]
kind = kato
r = 2.0
"""

    def experiment(self, outdir: Path) -> dict:
        cone, glob, kato = run_experiment(parse_config(self.config_text),
                                          outdir)
        # replay the cone check from the written slabs, as `clawlab verify`
        u = load_field(outdir / "u_slabs")
        v = load_field(outdir / "v_slabs")
        _, replay = cone_contraction_profile(u, v, catalog_lookup("product2d"),
                                             2.0)
        return {"cone": cone, "glob": glob, "kato": kato,
                "cone_replay": replay}

    @staticmethod
    def observe(outcome: dict) -> dict:
        cone, glob, kato = (outcome[k] for k in ("cone", "glob", "kato"))
        return {
            "cone": _report(cone, {"value": [cone.value],
                                   "N": [cone.metadata["N"]],
                                   "mass": cone.metadata["profile_mass"]}),
            "glob": _report(glob, {"value": [glob.value],
                                   "N_over_R": glob.metadata["N_over_R"],
                                   "mass": glob.metadata["masses"]}),
            "kato": _report(kato, {"value": [kato.value]}),
        }

    def extra_failures(self, outcome: dict) -> dict:
        cone, replay = outcome["cone"], outcome["cone_replay"]
        if replay.value != cone.value or replay.passed != cone.passed:
            return {"cone_replay": f"replayed cone value {replay.value!r} "
                                   f"!= {cone.value!r}"}
        return {}


class Shock1D(Workload):
    """Burgers Riemann shock: uniqueness under refinement and the per-cell
    discrete entropy scan."""

    name = "shock_1d"
    # ul = 1 fixes max|u0| = 1, hence dt and the step count, on every
    # point; ur < ul keeps the data a shock, and x0 moves it.  The shock
    # stays inside the default uniqueness ball (center 0.25, radius 0.625).
    LEVELS = {"ur": (-0.2, -0.1, 0.0, 0.1),
              "x0": (-0.1, -0.05, 0.0, 0.05)}
    NX = 1000

    def config(self, ur, x0) -> str:
        return f"""
[flux]
name = burgers1d
[initial_data]
kind = riemann
ul = 1.0
ur = {_fmt(ur)}
x0 = {_fmt(x0)}
[grid]
lo = -1.0
hi = 1.5
nx = {self.NX}
dim = 1
t_end = 0.5
store_every = 1000000
[scheme]
kind = rusanov
cfl = 0.9
boundary = outflow
[output]
dir = shock_1d
[checks]
tasks = uniq
[check.uniq]
kind = uniqueness
cfl_list = 0.9, 0.45
viscous_coeff = 2.0
min_ratio = 1.5
"""

    def experiment(self, outdir: Path) -> dict:
        cfg = parse_config(self.config_text)
        (uniq,) = run_experiment(cfg, outdir)
        g = cfg.grid
        scan = discrete_entropy_max_violation(
            catalog_lookup("burgers1d"), cfg.initial_data,
            SchemeConfig(lo=g.lo, hi=g.hi, nx=g.nx, t_end=g.t_end),
            default_k0_sweep(1.0, 9))
        return {"uniq": uniq, "scan": scan}

    @staticmethod
    def observe(outcome: dict) -> dict:
        u = outcome["uniq"]
        m = u.metadata
        return {"uniq": _report(u, {
            "value": [u.value], "pairwise_coarse": m["pairwise_coarse"],
            "pairwise_fine": m["pairwise_fine"],
            "oracle_coarse": m["oracle_coarse"],
            "oracle_fine": m["oracle_fine"]}, value_tolerance=False)}

    def extra_failures(self, outcome: dict) -> dict:
        scan = outcome["scan"]
        if not scan <= SCAN_LIMIT:
            return {"scan": f"per-cell entropy violation {scan!r} > "
                            f"{SCAN_LIMIT}"}
        return {}


WORKLOADS = {w.name: w for w in (Entropy1D, Contraction2D, Shock1D)}
# Checks per experiment; `attempted` counts these.
CHECKS = {"entropy_1d": ("entropy", "doubling", "anti_test"),
          "contraction_2d": ("cone", "glob", "kato", "cone_replay"),
          "shock_1d": ("uniq", "scan")}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def compare(observed: dict, reference: dict) -> dict:
    """{check: reason} for every observed check that differs from its
    reference entry (passed flag, group shapes or values)."""
    failures = {}
    for check, obs in observed.items():
        ref = reference[check]
        if obs["passed"] != ref["passed"]:
            failures[check] = (f"passed={obs['passed']}, expected "
                               f"{ref['passed']}")
            continue
        for group, ref_vals in ref["groups"].items():
            vals = obs["groups"].get(group, [])
            if len(vals) != len(ref_vals):
                failures[check] = f"{group}: {len(vals)} values, expected " \
                                  f"{len(ref_vals)}"
                break
            scale = max([abs(r) for r in ref_vals]
                        + [abs(ref["tolerance"] or 0.0)])
            bad = [(v, r) for v, r in zip(vals, ref_vals)
                   if not abs(v - r) <= RTOL * scale]
            if bad:
                failures[check] = (f"{group}: {bad[0][0]!r} vs reference "
                                   f"{bad[0][1]!r} (rtol {RTOL} of {scale:.3g})")
                break
    return failures


def verify(workload: Workload, outcome: dict, reference: dict) -> dict:
    """All failed checks of one experiment: {check: reason}."""
    ref = reference["workloads"][workload.name][str(workload.point)]
    if ref["params"] != workload.params:
        raise ValueError(f"reference point {workload.point} has parameters "
                         f"{ref['params']}, expected {workload.params}")
    failures = compare(workload.observe(outcome), ref["checks"])
    failures.update(workload.extra_failures(outcome))
    return failures
