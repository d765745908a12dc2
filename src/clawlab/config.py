"""Experiment configuration: flat key = value text with sections.

Strict schema: every section and key must be known, physical parameters
(grid, flux) carry no defaults, and unknown keys are errors naming the
offending line.  Configs round-trip losslessly through ``to_text``.

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
    viscosity = 0.0       # required > 0 for viscous

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

from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .errors import CFLViolation, ConfigError
from .flux import catalog_lookup, catalog_names, catalog_params
from .grids import InitialData
from .solver import SchemeConfig

_INITIAL_KEYS = {
    "riemann": {"ul", "ur", "x0"},
    "box": {"height", "lo", "hi"},
    "sine": {"amp", "freq", "offset"},
    "constant": {"value"},
    "file": {"path"},
}


def _float_list(s: str):
    return [float(p.strip()) for p in s.split(",") if p.strip()]


def _int_list(s: str):
    return [int(p.strip()) for p in s.split(",") if p.strip()]


# [check.*] keys per kind with their converters; the keys in
# _REQUIRED_CHECK_KEYS have no default
_CHECK_KEYS = {
    "entropy_inequality": {"k0_count": int, "smooth_n": _int_list,
                           "phi_center": float, "phi_radius": float,
                           "phi_t0": float, "phi_t1": float, "c_tol": float},
    "kato": {"r": float, "rho": float, "tau": float, "h": float,
             "eps": float, "c_tol": float},
    "cone_contraction": {"r": float, "c_cal": float},
    "global_contraction": {"r_list": _float_list, "c_cal": float},
    "uniqueness": {"cfl_list": _float_list, "viscous_coeff": float,
                   "radius": float, "center": float, "min_ratio": float},
    "doubling": {"eps_list": _float_list, "points": int, "t_sample": float},
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
class GridSection:
    lo: float
    hi: float
    nx: int
    dim: int
    t_end: float
    store_every: int


@dataclass
class SchemeSection:
    kind: str = "rusanov"
    cfl: float = 0.9
    boundary: str = "outflow"
    viscosity: float = 0.0


@dataclass
class ExperimentConfig:
    flux_name: str
    flux_params: dict
    initial_data: InitialData
    grid: GridSection
    scheme: SchemeSection
    output_dir: str
    checks: list
    initial_data2: InitialData | None = None
    seed: int = 20260809

    def scheme_config(self) -> SchemeConfig:
        """The solver's run parameters; ``parse_config`` applies its rules."""
        g, s = self.grid, self.scheme
        return SchemeConfig(lo=g.lo, hi=g.hi, nx=g.nx, t_end=g.t_end,
                            scheme=s.kind, cfl=s.cfl, boundary=s.boundary,
                            store_every=g.store_every, dim=g.dim,
                            viscosity=s.viscosity)

    def to_text(self) -> str:
        lines = ["[flux]", f"name = {self.flux_name}"]
        for k in sorted(self.flux_params):
            lines.append(f"{k} = {_fmt(self.flux_params[k])}")
        lines.append("")
        for tag, data in (("initial_data", self.initial_data),
                          ("initial_data2", self.initial_data2)):
            if data is None:
                continue
            lines.append(f"[{tag}]")
            lines.append(f"kind = {data.kind}")
            for k in sorted(data.params):
                lines.append(f"{k} = {_fmt(data.params[k])}")
            lines.append("")
        g = self.grid
        lines += ["[grid]", f"lo = {_fmt(g.lo)}", f"hi = {_fmt(g.hi)}",
                  f"nx = {g.nx}", f"dim = {g.dim}", f"t_end = {_fmt(g.t_end)}",
                  f"store_every = {g.store_every}", ""]
        s = self.scheme
        lines += ["[scheme]", f"kind = {s.kind}", f"cfl = {_fmt(s.cfl)}",
                  f"boundary = {s.boundary}", f"viscosity = {_fmt(s.viscosity)}",
                  ""]
        lines += ["[output]", f"dir = {self.output_dir}", ""]
        lines += ["[run]", f"seed = {self.seed}", ""]
        if self.checks:
            lines += ["[checks]",
                      "tasks = " + ", ".join(c.name for c in self.checks), ""]
            for c in self.checks:
                lines.append(f"[check.{c.name}]")
                lines.append(f"kind = {c.kind}")
                for k in sorted(c.params):
                    lines.append(f"{k} = {_fmt(c.params[k])}")
                lines.append("")
        return "\n".join(lines)


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


def _take(section: dict, secname: str, key: str, conv, required=True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"[{secname}] missing required key {key!r}")
        return default
    val, where = section.pop(key)
    try:
        return conv(val)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def _reject_leftovers(section: dict, secname: str):
    if section:
        key = next(iter(section))
        _, where = section[key]
        raise ConfigError(f"{where}: unknown key {key!r} in [{secname}]")


def parse_check(name: str, section: dict) -> CheckSpec:
    """Read one ``[check.<name>]`` section, given as {key: (value_str,
    where)} with its ``kind`` key: the kind must be known, each key is
    converted by its kind's converter, unknown keys are refused and the
    required keys must be present.  ``clawlab verify`` builds the section
    from ``--check`` and its ``--set`` pairs."""
    secname = f"check.{name}"
    kind = _take(section, secname, "kind", str)
    if kind not in _CHECK_KEYS:
        raise ConfigError(f"[{secname}] unknown kind {kind!r}; "
                          f"known: {', '.join(sorted(_CHECK_KEYS))}")
    convs = _CHECK_KEYS[kind]
    params = {key: _take(section, secname, key, convs[key])
              for key in list(section) if key in convs}
    _reject_leftovers(section, secname)
    for key in _REQUIRED_CHECK_KEYS.get(kind, ()):
        if key not in params:
            raise ConfigError(f"[{secname}] missing required key {key!r}")
    return CheckSpec(name, kind, params)


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)

    known_sections = {"flux", "initial_data", "initial_data2", "grid",
                      "scheme", "output", "run", "checks"}

    flux_sec = sections.pop("flux", None)
    if flux_sec is None:
        raise ConfigError("missing [flux] section")
    flux_name = _take(flux_sec, "flux", "name", str)
    if flux_name not in catalog_names():
        raise ConfigError(f"[flux] unknown flux name {flux_name!r}; "
                          f"known: {', '.join(catalog_names())}")
    allowed = catalog_params(flux_name)
    flux_params = {}
    for key in list(flux_sec):
        if key in allowed:
            flux_params[key] = _take(flux_sec, "flux", key, float)
    _reject_leftovers(flux_sec, "flux")

    def parse_initial(secname):
        sec = sections.pop(secname, None)
        if sec is None:
            return None
        kind = _take(sec, secname, "kind", str)
        if kind not in _INITIAL_KEYS:
            raise ConfigError(f"[{secname}] unknown kind {kind!r}; "
                              f"known: {', '.join(sorted(_INITIAL_KEYS))}")
        params = {}
        for key in list(sec):
            if key in _INITIAL_KEYS[kind]:
                conv = str if key == "path" else float
                params[key] = _take(sec, secname, key, conv)
        _reject_leftovers(sec, secname)
        required = _INITIAL_KEYS[kind] - {"offset", "x0"}
        missing = required - set(params)
        if missing:
            raise ConfigError(f"[{secname}] kind {kind} missing {sorted(missing)}")
        return InitialData(kind, params)

    initial = parse_initial("initial_data")
    if initial is None:
        raise ConfigError("missing [initial_data] section")
    initial2 = parse_initial("initial_data2")

    grid_sec = sections.pop("grid", None)
    if grid_sec is None:
        raise ConfigError("missing [grid] section")
    grid = GridSection(
        lo=_take(grid_sec, "grid", "lo", float),
        hi=_take(grid_sec, "grid", "hi", float),
        nx=_take(grid_sec, "grid", "nx", int),
        dim=_take(grid_sec, "grid", "dim", int),
        t_end=_take(grid_sec, "grid", "t_end", float),
        store_every=_take(grid_sec, "grid", "store_every", int),
    )
    _reject_leftovers(grid_sec, "grid")
    if grid.hi <= grid.lo or grid.nx <= 0 or grid.t_end <= 0:
        raise ConfigError("[grid] needs hi > lo, nx > 0, t_end > 0")
    if grid.dim not in (1, 2):
        raise ConfigError("[grid] dim must be 1 or 2")
    flux_dim = catalog_lookup(flux_name, flux_params).dim
    if flux_dim != grid.dim:
        raise ConfigError(f"[flux] {flux_name} is {flux_dim}-d but [grid] dim "
                          f"= {grid.dim}")

    scheme_sec = sections.pop("scheme", None)
    if scheme_sec is None:
        raise ConfigError("missing [scheme] section")
    scheme = SchemeSection(
        kind=_take(scheme_sec, "scheme", "kind", str),
        cfl=_take(scheme_sec, "scheme", "cfl", float),
        boundary=_take(scheme_sec, "scheme", "boundary", str),
        viscosity=_take(scheme_sec, "scheme", "viscosity", float,
                        required=False, default=0.0),
    )
    _reject_leftovers(scheme_sec, "scheme")
    if scheme.kind == "godunov_burgers" and flux_name != "burgers1d":
        raise ConfigError("[scheme] godunov_burgers is implemented for the 1-d "
                          "burgers1d flux only")

    out_sec = sections.pop("output", None)
    if out_sec is None:
        raise ConfigError("missing [output] section")
    output_dir = _take(out_sec, "output", "dir", str)
    _reject_leftovers(out_sec, "output")

    seed = 20260809
    run_sec = sections.pop("run", None)
    if run_sec is not None:
        seed = _take(run_sec, "run", "seed", int, required=False, default=seed)
        _reject_leftovers(run_sec, "run")

    checks: list[CheckSpec] = []
    checks_sec = sections.pop("checks", None)
    if checks_sec is not None:
        tasks = _take(checks_sec, "checks", "tasks", str)
        _reject_leftovers(checks_sec, "checks")
        for name in [t.strip() for t in tasks.split(",") if t.strip()]:
            sec = sections.pop(f"check.{name}", None)
            if sec is None:
                raise ConfigError(f"[checks] task {name!r} has no [check.{name}] section")
            checks.append(parse_check(name, sec))

    for name in sections:
        if name.startswith("check."):
            raise ConfigError(f"section [{name}] is not listed in [checks] tasks")
        if name not in known_sections:
            raise ConfigError(f"unknown section [{name}]")

    if initial2 is None and any(c.kind in PAIR_KINDS for c in checks):
        raise ConfigError("pair checks need an [initial_data2] section")

    cfg = ExperimentConfig(flux_name, flux_params, initial, grid, scheme,
                           output_dir, checks, initial2, seed)
    try:
        cfg.scheme_config()
    except (ValueError, CFLViolation) as exc:
        raise ConfigError(f"[grid]/[scheme] {exc}") from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())
