"""Experiment configuration: flat key = value text with sections.

Strict schema: every section and key must be known, physical parameters
(grid, flux) carry no defaults, and unknown keys are errors naming the
offending line.  Configs round-trip losslessly through ``to_text``.

Every section, and the ``--set`` keys of ``clawlab verify``, is read by one
reader with one refusal order: an unknown section name before any section
is read, then a missing section; within a section its kind key (``name``
of ``[flux]``, ``kind`` of initial data and checks), then each key in
file order (an unknown key or a bad value, naming its line), then a
missing required key.

The ``[grid]`` and ``[scheme]`` sections are read into one
``solver.SchemeConfig`` (``ExperimentConfig.grid``), built once while
parsing, so its rules, and the solver's rule for which flux a grid and a
scheme take (``solver.require_flux_fits``), refuse a config as a
``ConfigError`` before any output is written, and the solver runs on that
very object.

Layout::

    [flux]
    name = burgers1d
    # optional flux parameters, e.g. c = 3.0 for advection1d

    [initial_data]        # and optionally [initial_data2] for pair checks
    kind = riemann        # riemann | box | sine | constant | file
    ul = 1.0
    ur = 0.0
    x0 = 0.0

    [grid]
    lo = -2.0
    hi = 2.0
    nx = 400
    dim = 1               # must equal the flux's dimension
    t_end = 1.0
    store_every = 5

    [scheme]
    kind = rusanov        # rusanov | godunov_burgers (burgers1d only) | viscous
    cfl = 0.9
    boundary = outflow    # outflow | periodic
    viscosity = 0.0       # finite and > 0 for viscous, else 0 (the default)

    [output]
    dir = runs/demo

    [run]                 # optional
    seed = 20260809

    [checks]
    tasks = cone, glob

    [check.cone]
    kind = cone_contraction
    r = 2.0

    [check.glob]
    kind = global_contraction
    r_list = 1, 2, 4, 8
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .errors import CFLViolation, ConfigError, EmptyCone, GridMismatch
from .flux import catalog_lookup, catalog_names, catalog_params
from .grids import InitialData
from .solver import SchemeConfig, require_flux_fits
from .verifier import DEFAULT_SEED, require_ball, uniqueness_ball

# [initial_data] keys per kind with their converters; all but x0 and offset
# are required
_INITIAL_KEYS = {
    "riemann": {"ul": float, "ur": float, "x0": float},
    "box": {"height": float, "lo": float, "hi": float},
    "sine": {"amp": float, "freq": float, "offset": float},
    "constant": {"value": float},
    "file": {"path": str},
}
# [grid] keys, all required, and [scheme] keys, all but viscosity required
# (default 0); [scheme] kind is SchemeConfig.scheme
_GRID_KEYS = {"lo": float, "hi": float, "nx": int, "dim": int,
              "t_end": float, "store_every": int}
_SCHEME_KEYS = {"kind": str, "cfl": float, "boundary": str,
                "viscosity": float}
# the sections a config must have, and the others it may have besides the
# [check.*] sections
_SECTIONS = ("flux", "initial_data", "grid", "scheme", "output")
_OPTIONAL_SECTIONS = ("initial_data2", "run", "checks")


def _rule(conv, ok, rule):
    """The converter conv(s), refusing with "<rule>, got 's'" a value for
    which ok is false."""
    def convert(s: str):
        x = conv(s)
        if not ok(x):
            raise ValueError(f"{rule}, got {s.strip()!r}")
        return x
    return convert


def _listed(conv):
    """The converter of a comma list, each item through conv."""
    return lambda s: [conv(p) for p in s.split(",") if p.strip()]


_count = _rule(int, lambda c: c >= 0, "a count must be >= 0")
_sample_count = _rule(int, lambda c: c >= 1, "needs at least one sample")
_smoothing_indices = _rule(_listed(int), lambda ns: all(n >= 1 for n in ns),
                           "smoothing indices must be >= 1")
_radius = _rule(float, lambda r: math.isfinite(r) and r > 0,
                "a radius must be finite and > 0")
_radius_list = _rule(_listed(_radius), bool,
                     "needs at least one radius, finite and > 0")
_finite = _rule(float, math.isfinite, "must be finite")
_nonnegative = _rule(float, lambda x: math.isfinite(x) and x >= 0,
                     "must be finite and >= 0")
_shrink_ratio = _rule(float, lambda r: math.isfinite(r) and r >= 1,
                      "a shrink ratio must be finite and >= 1")
# the comparisons refuse NaN too
_cfl_list = _rule(_listed(float), lambda cs: all(0.0 < c <= 1.0 for c in cs),
                  "CFL numbers must be in (0, 1]")


# the uniqueness check's scheme variants where its section leaves them out
DEFAULT_CFL_LIST = (0.9, 0.45)
DEFAULT_VISCOUS_COEFF = 2.0

# [check.*] keys per kind with their converters; the keys in
# _REQUIRED_CHECK_KEYS have no default
_CHECK_KEYS = {
    "entropy_inequality": {"k0_count": _count, "smooth_n": _smoothing_indices,
                           "phi_center": _finite, "phi_radius": float,
                           "phi_t0": float, "phi_t1": float,
                           "c_tol": _nonnegative},
    "kato": {"r": _radius, "rho": float, "tau": float, "h": float,
             "eps": float, "c_tol": _nonnegative},
    "cone_contraction": {"r": _radius, "c_cal": _nonnegative},
    "global_contraction": {"r_list": _radius_list, "c_cal": _nonnegative},
    "uniqueness": {"cfl_list": _cfl_list, "viscous_coeff": _nonnegative,
                   "radius": _radius, "center": _finite,
                   "min_ratio": _shrink_ratio},
    "doubling": {"eps_list": _radius_list, "points": _sample_count,
                 "t_sample": _finite},
}
_REQUIRED_CHECK_KEYS = {"kato": ("r",), "cone_contraction": ("r",),
                        "global_contraction": ("r_list",)}
# check kinds that compare two solutions
PAIR_KINDS = frozenset({"kato", "cone_contraction", "global_contraction",
                        "doubling"})


@dataclass
class CheckSpec:
    name: str
    kind: str
    params: dict = dc_field(default_factory=dict)


@dataclass
class ExperimentConfig:
    flux_name: str
    flux_params: dict
    initial_data: InitialData
    grid: SchemeConfig            # the [grid] and [scheme] sections
    output_dir: str
    checks: list
    initial_data2: InitialData | None = None
    seed: int = DEFAULT_SEED

    def to_text(self) -> str:
        """The config as text, one block of (key, value) lines per section:
        a kind key first and its parameters sorted, [grid] and [scheme] in
        the order of their key tables."""
        g = self.grid
        blocks = [("flux", [("name", self.flux_name),
                            *sorted(self.flux_params.items())])]
        blocks += [(tag, [("kind", data.kind), *sorted(data.params.items())])
                   for tag, data in (("initial_data", self.initial_data),
                                     ("initial_data2", self.initial_data2))
                   if data is not None]
        blocks += [("grid", [(k, getattr(g, k)) for k in _GRID_KEYS]),
                   ("scheme", [(k, getattr(g, "scheme" if k == "kind" else k))
                               for k in _SCHEME_KEYS]),
                   ("output", [("dir", self.output_dir)]),
                   ("run", [("seed", self.seed)])]
        if self.checks:
            blocks.append(("checks", [("tasks", [c.name for c in self.checks])]))
            blocks += [(f"check.{c.name}",
                        [("kind", c.kind), *sorted(c.params.items())])
                       for c in self.checks]
        return "\n".join(line for name, keys in blocks for line in
                         (f"[{name}]", *(f"{k} = {_fmt(v)}" for k, v in keys),
                          ""))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (list, tuple)):
        return ", ".join(_fmt(x) for x in v)
    return str(v)


def _parse_sections(text: str):
    """Raw parse into {section: {key: (value_str, where)}} with strict
    syntax: [section] headers, key = value lines, # or ; comments;
    ``where`` is "line N", the prefix of every error about that key."""
    sections: dict = {}
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (val, f"line {lineno}")
    return sections


def _read(section: dict, secname: str, convs: dict, required=()) -> dict:
    """The keys of a section, given as {key: (value_str, where)}, each
    converted by its converter in convs, in file order: an unknown key or a
    bad value is refused naming its ``where``, and then a missing key of
    ``required``."""
    out = {}
    for key, (val, where) in section.items():
        if key not in convs:
            raise ConfigError(f"{where}: unknown key {key!r} in [{secname}]")
        try:
            out[key] = convs[key](val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    for key in required:
        if key not in out:
            raise ConfigError(f"[{secname}] missing required key {key!r}")
    return out


def _kind(section: dict, secname: str, key: str, known) -> tuple:
    """(kind, rest): the kind that the section's ``key`` names, one of
    ``known``, which picks the key table of the section's other keys,
    ``rest``."""
    if key not in section:
        raise ConfigError(f"[{secname}] missing required key {key!r}")
    kind = section[key][0]
    if kind not in known:
        raise ConfigError(f"[{secname}] unknown {key} {kind!r}; "
                          f"known: {', '.join(sorted(known))}")
    return kind, {k: v for k, v in section.items() if k != key}


def parse_check(name: str, section: dict) -> CheckSpec:
    """Read one ``[check.<name>]`` section, given as {key: (value_str,
    where)} with its ``kind`` key, through the reader of every section:
    the kind must be known, and its keys are read with that kind's
    converters and required keys.  ``clawlab verify`` builds the section
    from ``--check`` and its ``--set`` pairs."""
    secname = f"check.{name}"
    kind, rest = _kind(section, secname, "kind", _CHECK_KEYS)
    params = _read(rest, secname, _CHECK_KEYS[kind],
                   _REQUIRED_CHECK_KEYS.get(kind, ()))
    if params.get("k0_count") == 0 and params.get("smooth_n") == []:
        raise ConfigError(f"[{secname}] k0_count = 0 and an empty smooth_n "
                          "leave no entropy pair to check")
    if kind == "uniqueness":
        # equal CFL numbers run the same scheme, at distance 0 whatever u
        variants = (len(set(params.get("cfl_list", DEFAULT_CFL_LIST)))
                    + (params.get("viscous_coeff", DEFAULT_VISCOUS_COEFF) > 0))
        if variants < 2:
            raise ConfigError(f"[{secname}] cfl_list and viscous_coeff give "
                              f"{variants} distinct scheme variant(s); "
                              "uniqueness compares at least two")
    return CheckSpec(name, kind, params)


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)
    for name in sections:
        if not (name in _SECTIONS + _OPTIONAL_SECTIONS
                or name.startswith("check.")):
            raise ConfigError(f"unknown section [{name}]")
    for name in _SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing [{name}] section")

    flux_name, rest = _kind(sections["flux"], "flux", "name", catalog_names())
    flux_params = _read(rest, "flux",
                        dict.fromkeys(catalog_params(flux_name), float))

    def initial(secname):
        kind, rest = _kind(sections[secname], secname, "kind", _INITIAL_KEYS)
        convs = _INITIAL_KEYS[kind]
        return InitialData(kind, _read(rest, secname, convs, [
            key for key in convs if key not in ("offset", "x0")]))

    initial_data = initial("initial_data")
    initial_data2 = (initial("initial_data2") if "initial_data2" in sections
                     else None)

    kw = _read(sections["grid"], "grid", _GRID_KEYS, _GRID_KEYS)
    kw.update(_read(sections["scheme"], "scheme", _SCHEME_KEYS,
                    ("kind", "cfl", "boundary")))
    kw["scheme"] = kw.pop("kind")
    try:
        require_flux_fits(catalog_lookup(flux_name, flux_params), kw["dim"],
                          kw["scheme"])
        grid = SchemeConfig(**kw)
    except (ValueError, CFLViolation, GridMismatch) as exc:
        raise ConfigError(f"[grid]/[scheme] {exc}") from exc

    output_dir = _read(sections["output"], "output", {"dir": str},
                       ("dir",))["dir"]
    seed = _read(sections.get("run", {}), "run", {"seed": int}).get(
        "seed", DEFAULT_SEED)
    tasks = (_read(sections["checks"], "checks", {"tasks": _listed(str.strip)},
                   ("tasks",))["tasks"] if "checks" in sections else [])
    checks = []
    for name in tasks:
        if tasks.count(name) > 1:
            raise ConfigError(f"[checks] task {name!r} is listed more than once")
        sec = sections.pop(f"check.{name}", None)
        if sec is None:
            raise ConfigError(f"[checks] task {name!r} has no [check.{name}] "
                              "section")
        checks.append(parse_check(name, sec))
    for name in sections:
        if name.startswith("check."):
            raise ConfigError(f"section [{name}] is not listed in [checks] tasks")

    if initial_data2 is None and any(c.kind in PAIR_KINDS for c in checks):
        raise ConfigError("pair checks need an [initial_data2] section")
    # a check ball that holds no cell centre is refused before any output:
    # the cone's B_r(0) at t = 0 on the grid, and the uniqueness ball on
    # the grid and on its refinement, the two levels that check compares
    for check in checks:
        p = check.params
        if check.kind == "cone_contraction":
            balls = [(grid, 0.0, p["r"])]
        elif check.kind == "uniqueness":
            ball = uniqueness_ball(grid, p.get("center"), p.get("radius"))
            balls = [(level, *ball) for level in (grid, grid.refined(2))]
        else:
            continue
        try:
            for ball in balls:
                require_ball(*ball)
        except EmptyCone as exc:
            raise ConfigError(f"[check.{check.name}] {exc}") from exc

    return ExperimentConfig(flux_name, flux_params, initial_data, grid,
                            output_dir, checks, initial_data2, seed)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())
