"""Command-line experiment runner.

Subcommands::

    clawlab catalog list
    clawlab run <config> [--force]
    clawlab study <config> --levels N [--force]
    clawlab verify <field> [<field2>] --check <kind> --flux <name> [--set k=v]

Run directories are append-only (``--force`` to overwrite), contain a copy
of the config, each solution field as a directory holding one slab file of
all its stored levels (``u_slabs``, ``v_slabs``), one JSON report per
check, contraction-profile CSVs, SVG plots, and a summary table.  A FAILED
marker file flags partial output after an error.  The environment variable
``CLAWLAB_OUT`` sets the root for relative output directories.  Exit code
0 iff every check passed.

``verify`` supports the four check kinds that need no config
(``entropy_inequality`` on one field; ``kato``, ``cone_contraction`` and
``global_contraction`` on two), each field a slab file or a field
directory holding one (a run's ``u_slabs``).  Its ``--set`` keys are those
of a ``[check.*]`` section of that kind, read by the config's one reader
in its one order (each key in turn, an unknown key or a bad value naming
its ``--set`` pair, then a missing required key), so these are errors,
and so are duplicate keys and a field that cannot be read (exit 2).
A flux that takes parameters reads them from the run's ``config.cfg``.
It prints the report and writes no files.  ``run``, ``study`` and
``verify`` run every check kind through one dispatcher, ``_run_check``,
whose defaults come from the fields themselves (their domain and stored
time range), and the slabs hold the run's grid and bound M exactly, so on
a run's slabs ``verify`` with the section's keys prints that run's report
(without the run's ``check_name`` and ``seed``).  ``run`` and ``study``
solve on the config's one ``SchemeConfig`` (``study`` on its
refinements, every ``store_every * 2**level``-th step, so its level-0
contraction rows are ``run``'s values).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import svgplot
from .config import (_CHECK_KEYS, DEFAULT_CFL_LIST, DEFAULT_VISCOUS_COEFF,
                     PAIR_KINDS, CheckSpec, ExperimentConfig, load_config,
                     parse_check)
from .entropy import default_k0_sweep, make_kruzkov_pair, make_smooth_pair
from .errors import ClawError, ConfigError, GridMismatch
from .flux import (catalog_lookup, catalog_names, catalog_params,
                   lipschitz_constant)
from .grids import GridField, load_field, write_slabs
from .mollifiers import ConeSpec, bump_test_function, contraction_test_function
from .solver import SchemeConfig, exact_riemann_burgers, solve, solve_pair
from .verifier import (DEFAULT_MIN_RATIO, ResidualReport,
                       cone_contraction_profile, doubling_diagnostics,
                       entropy_residual_sweep, find_smooth_samples,
                       global_contraction_check, jump_threshold, kato_lhs,
                       l1_masses, uniqueness_experiment, write_profile_csv)


# check kinds that need the config's initial data, scheme or seed: ``run``
# only; ``verify`` takes every other kind
CONFIG_KINDS = ("uniqueness", "doubling")


def _resolve_outdir(cfg_dir: str, override: str | None) -> Path:
    p = Path(override) if override else Path(cfg_dir)
    if not p.is_absolute():
        root = os.environ.get("CLAWLAB_OUT", "")
        if root:
            p = Path(root) / p
    return p


def _prepare_dir(outdir: Path, force: bool) -> None:
    if outdir.exists() and any(outdir.iterdir()):
        if not force:
            raise ConfigError(
                f"output directory {outdir} exists and is not empty "
                "(run directories are append-only; pass --force to overwrite)")
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True, exist_ok=True)


def _snapshot_plot(field: GridField, path: Path, title: str) -> None:
    if field.dim != 1:
        return
    picks = sorted({0, len(field.times) // 2, len(field.times) - 1})
    series = [(field.centers, field.data[n], f"t={field.times[n]:.3g}")
              for n in picks]
    svgplot.line_plot(path, series, title=title, xlabel="x", ylabel="u")


def _burgers_oracle(cfg: ExperimentConfig):
    """The exact solution at t_end of a Burgers Riemann config, as a
    function of points (..., 1); None for any other config."""
    ini = cfg.initial_data
    if cfg.flux_name != "burgers1d" or ini.kind != "riemann":
        return None
    ul, ur, x0 = ini.params["ul"], ini.params["ur"], ini.params.get("x0", 0.0)
    return lambda pts: exact_riemann_burgers(ul, ur, pts[..., 0] - x0,
                                             cfg.grid.t_end)


def _run_check(check: CheckSpec, flux, u, v, cfg: ExperimentConfig = None):
    """Run one check on the fields ``u`` (and ``v``); a check of one of the
    ``CONFIG_KINDS`` also needs the config ``cfg``.

    The defaults of the other kinds are taken from the domain and the
    stored time range of ``u``.  Returns (report, profile); profile is the
    rows (t, radius, l1_mass) of a contraction check, else None.  Writes no
    files."""
    p = check.params
    lo, hi, dim = u.lo, u.hi, u.dim
    t_start, t_end = float(u.times[0]), float(u.times[-1])

    if check.kind == "entropy_inequality":
        center = p.get("phi_center", 0.5 * (lo + hi))
        radius = p.get("phi_radius", 0.2 * (hi - lo))
        t0 = p.get("phi_t0", t_start + 0.2 * (t_end - t_start))
        t1 = p.get("phi_t1", t_start + 0.8 * (t_end - t_start))
        phi = bump_test_function(np.full(dim, center), radius, t0, t1, dim=dim)
        m = max(u.bound_M, 1e-12)
        k0s = default_k0_sweep(m, p.get("k0_count", 9))
        pairs = [make_kruzkov_pair(flux, k0) for k0 in k0s]
        pairs += [make_smooth_pair(flux, 0.0, n)
                  for n in p.get("smooth_n", [4, 16, 64])]
        reports = entropy_residual_sweep(u, flux, pairs, phi,
                                         c_tol=p.get("c_tol"))
        worst = min(reports, key=lambda r: r.value - (-r.tolerance))
        worst.metadata["sweep"] = [
            {"pair": r.metadata["pair"], "value": r.value,
             "tolerance": r.tolerance, "passed": r.passed} for r in reports]
        worst.metadata["sweep_note"] = (
            "finite sweep of reference states; a proxy for the inequality "
            "over every admissible entropy pair")
        worst.passed = all(r.passed for r in reports)
        return worst, None

    if check.kind == "kato":
        R = p["r"]
        M = max(u.bound_M, v.bound_M)
        N = lipschitz_constant(flux, R, M)
        cone = ConeSpec(R=R, N=N, dim=dim, horizon=t_end)
        tmax = cone.t_max
        rho = p.get("rho", 0.25 * tmax)
        tau = p.get("tau", 0.75 * tmax)
        h = p.get("h", 0.5 * min(rho, tmax - tau))
        eps = p.get("eps", 0.1 * R)
        psi = contraction_test_function(cone, rho, tau, h, eps)
        return kato_lhs(u, v, flux, psi, c_tol=p.get("c_tol")), None

    if check.kind == "cone_contraction":
        profile, report = cone_contraction_profile(u, v, flux, p["r"],
                                                   c_cal=p.get("c_cal"))
        return report, profile

    if check.kind == "global_contraction":
        report = global_contraction_check(u, v, flux, p["r_list"],
                                          c_cal=p.get("c_cal"))
        times = report.metadata["times"]
        return report, list(zip(times, [np.inf] * len(times),
                                report.metadata["masses"]))

    if check.kind == "uniqueness":
        base = replace(cfg.grid, store_every=10 ** 9)
        variants = [replace(base, scheme="rusanov", cfl=c, viscosity=0.0)
                    for c in p.get("cfl_list", DEFAULT_CFL_LIST)]
        coeff = p.get("viscous_coeff", DEFAULT_VISCOUS_COEFF)
        if coeff > 0:
            variants.append(replace(base, scheme="viscous",
                                    viscosity=coeff * base.dx))
        # u is the run's own solve of the config's datum alone when there is
        # no second one (``_solve``)
        solved = (cfg.grid, u) if cfg.initial_data2 is None else None
        return uniqueness_experiment(
            flux, cfg.initial_data, variants, center=p.get("center"),
            radius=p.get("radius"), exact_at_t_end=_burgers_oracle(cfg),
            min_ratio=p.get("min_ratio", DEFAULT_MIN_RATIO),
            solved=solved), None

    if check.kind == "doubling":
        eps_list = p.get("eps_list", [0.1, 0.05, 0.025])
        count = p.get("points", 10)
        t_sample = p.get("t_sample", 0.5 * cfg.grid.t_end)
        lev = int(np.argmin(np.abs(u.times - t_sample)))
        tstar = float(u.times[lev])
        margin = int(np.ceil(max(eps_list) / u.dx)) + 2
        threshold = jump_threshold(u, v)
        xs = find_smooth_samples(u, v, lev, count, threshold,
                                 margin_cells=margin, seed=cfg.seed)
        table = doubling_diagnostics(u, v, flux, eps_list,
                                     [(float(x), tstar) for x in xs], threshold)
        dev = table["max_deviation"]
        trending = all(
            all(a >= b - 1e-14 for a, b in zip(dev[key], dev[key][1:]))
            for key in dev)
        worst = float(max(dev[key][-1] for key in dev))
        return ResidualReport(
            kind="doubling", value=worst, tolerance=float("nan"),
            passed=trending,
            metadata={"eps": eps_list, "seed": cfg.seed,
                      "samples": table["samples"],
                      "max_deviation": {k: list(map(float, d))
                                        for k, d in dev.items()}}), None

    raise ConfigError(f"unhandled check kind {check.kind!r}")


def _solve(cfg: ExperimentConfig, flux, scheme: SchemeConfig):
    """The config's solution u on ``scheme``, and v, the solution from its
    second datum on the same time levels, or None without one."""
    if cfg.initial_data2 is None:
        return solve(flux, cfg.initial_data, scheme), None
    return solve_pair(flux, cfg.initial_data, cfg.initial_data2, scheme)


def run_experiment(cfg: ExperimentConfig, outdir: Path) -> list[ResidualReport]:
    (outdir / "config.cfg").write_text(cfg.to_text())
    try:
        flux = catalog_lookup(cfg.flux_name, cfg.flux_params)
        u, v = _solve(cfg, flux, cfg.grid)
        write_slabs(outdir / "u_slabs", u)
        _snapshot_plot(u, outdir / "u_snapshots.svg", "solution snapshots")
        if v is not None:
            write_slabs(outdir / "v_slabs", v)
            _snapshot_plot(v, outdir / "v_snapshots.svg", "second solution")

        reports = []
        for check in cfg.checks:
            report, profile = _run_check(check, flux, u, v, cfg)
            if profile is not None:
                write_profile_csv(outdir / f"profile_{check.name}.csv",
                                  profile)
            if check.kind == "cone_contraction":
                svgplot.line_plot(
                    outdir / f"profile_{check.name}.svg",
                    [([r[0] for r in profile], [r[2] for r in profile],
                      "L1 mass")],
                    title="shrinking-ball L1 distance", xlabel="t",
                    ylabel="L1 mass")
            report.metadata["check_name"] = check.name
            report.metadata["seed"] = cfg.seed
            report.write(outdir / f"report_{check.name}.json")
            reports.append((check, report))

        lines = [f"{'name':<18} {'kind':<22} {'value':>14} {'tolerance':>14} passed"]
        csv_lines = ["name,kind,value,tolerance,passed"]
        for check, rep in reports:
            lines.append(f"{check.name:<18} {rep.kind:<22} {rep.value:>14.6e} "
                         f"{rep.tolerance:>14.6e} {rep.passed}")
            csv_lines.append(f"{check.name},{rep.kind},{rep.value:.17g},"
                             f"{rep.tolerance:.17g},{rep.passed}")
        (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
        (outdir / "summary.csv").write_text("\n".join(csv_lines) + "\n")
        return [rep for _, rep in reports]
    except Exception:
        (outdir / "FAILED").write_text(traceback.format_exc())
        raise


def _restrict(fine: np.ndarray, factor: int) -> np.ndarray:
    """Average fine cells onto the coarse grid (cell-average restriction)."""
    n, dim = fine.shape[0] // factor, fine.ndim
    blocks = fine[(slice(n * factor),) * dim].reshape((n, factor) * dim)
    return blocks.mean(axis=tuple(range(1, 2 * dim, 2)))


def run_study(cfg: ExperimentConfig, levels: int, outdir: Path) -> int:
    """Halve dx per level; report L1 errors (the sum over cells of |error|
    dx^dim) against the exact oracle or, without one, against the next finer
    level restricted to the coarse grid, and contraction-violation shrink
    ratios.  Level ``lev`` stores every ``store_every * 2**lev``-th step,
    about the times ``run`` stores, and level 0 is ``run``'s very field."""
    (outdir / "config.cfg").write_text(cfg.to_text())
    try:
        flux = catalog_lookup(cfg.flux_name, cfg.flux_params)
        runs = [_solve(cfg, flux, replace(
                    cfg.grid.refined(2 ** lev),
                    store_every=cfg.grid.store_every * 2 ** lev))
                for lev in range(levels)]

        exact = _burgers_oracle(cfg)
        dxs, errs = [], []
        for lev, (u, _) in enumerate(runs):
            if exact is not None:
                ref = exact(u.centers_points())
            elif lev + 1 < levels:
                # self-convergence: consecutive levels, fine restricted
                ref = _restrict(runs[lev + 1][0].data[-1], 2)
            else:
                break
            errs.append(float(l1_masses(u.data[-1:], ref, u.dx ** u.dim)[0]))
            dxs.append(u.dx)
        orders = [float(np.log2(errs[i] / errs[i + 1]))
                  for i in range(len(errs) - 1)
                  if errs[i + 1] > 0]

        viol_rows = []
        for check in cfg.checks:
            if check.kind not in ("cone_contraction", "global_contraction"):
                continue
            per_level = [_run_check(check, flux, u, v)[0].value
                         for u, v in runs]
            ratios = [per_level[i] / per_level[i + 1]
                      if per_level[i + 1] > 0 else float("inf")
                      for i in range(len(per_level) - 1)]
            viol_rows.append((check.name, per_level, ratios))

        rows = [(dx, e, f"{orders[i - 1]:.3f}" if 0 < i <= len(orders) else "")
                for i, (dx, e) in enumerate(zip(dxs, errs))]
        (outdir / "study.csv").write_text("\n".join(
            ["dx,l1_error,order"] + [f"{dx:.17g},{e:.17g},{o}"
                                     for dx, e, o in rows]) + "\n")
        svgplot.line_plot(outdir / "study.svg",
                          [(dxs, errs, "L1 error"),
                           (dxs, [errs[0] * d / dxs[0] for d in dxs],
                            "first order")],
                          title="refinement study", xlabel="dx",
                          ylabel="L1 error", logx=True, logy=True)
        print(f"{'dx':>12} {'L1 error':>14} {'order':>7}")
        for dx, e, o in rows:
            print(f"{dx:>12.5g} {e:>14.6e} {o or '-':>7}")
        for name, per_level, ratios in viol_rows:
            print(f"violations[{name}]: " +
                  ", ".join(f"{v:.3e}" for v in per_level) +
                  "  shrink ratios: " +
                  ", ".join("inf" if not np.isfinite(r) else f"{r:.2f}"
                            for r in ratios))
        return 0
    except Exception:
        (outdir / "FAILED").write_text(traceback.format_exc())
        raise


def _run_flux(name: str, field: Path):
    """The catalog flux ``name``; one that takes parameters reads them from
    the config.cfg of the run that wrote ``field`` (the parent of a slab
    directory, the grandparent of a slab file), which must name it."""
    if not catalog_params(name):
        return catalog_lookup(name, {})
    cfg_path = (field if field.is_dir() else field.parent).parent / "config.cfg"
    if not cfg_path.is_file():
        raise ConfigError(f"flux {name} takes parameters, and the run's "
                          f"config {cfg_path} does not exist")
    cfg = load_config(cfg_path)
    if cfg.flux_name != name:
        raise ConfigError(f"--flux {name}, but {cfg_path} names flux "
                          f"{cfg.flux_name}")
    return catalog_lookup(name, cfg.flux_params)


def cmd_verify(args) -> int:
    section = {"kind": (args.check, "--check")}
    for kv in args.set or []:
        key, eq, val = (part.strip() for part in kv.partition("="))
        if not eq:
            raise ConfigError(f"--set expects key=value, got {kv!r}")
        if key in section:
            raise ConfigError(f"--set {kv}: duplicate key {key!r}")
        section[key] = (val, f"--set {kv}")
    check = parse_check(args.check, section)
    fields = [load_field(p) for p in args.fields]
    need = 2 if check.kind in PAIR_KINDS else 1
    if len(fields) != need:
        raise ConfigError(f"{check.kind} takes {need} field(s), "
                          f"got {len(fields)}")
    u, v = fields if need == 2 else (fields[0], None)
    flux = _run_flux(args.flux, Path(args.fields[0]))
    if flux.dim != u.dim:
        raise GridMismatch(f"flux {flux.name} is {flux.dim}-d, "
                           f"the fields are {u.dim}-d")
    report, _ = _run_check(check, flux, u, v)
    print(report.to_json())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="clawlab",
        description="entropy-solution laboratory for scalar conservation laws")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="flux catalog operations")
    p_cat.add_argument("action", choices=["list"])

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite an existing run directory")
    p_run.add_argument("--out", default=None, help="override output directory")

    p_study = sub.add_parser("study", help="dx-halving refinement study")
    p_study.add_argument("config")
    p_study.add_argument("--levels", type=int, default=3)
    p_study.add_argument("--force", action="store_true")
    p_study.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run one check on stored fields")
    p_ver.add_argument("fields", nargs="+",
                       help="field: a .slab file or a field directory holding "
                            "field.slab")
    p_ver.add_argument("--check", required=True,
                       choices=[k for k in _CHECK_KEYS
                                if k not in CONFIG_KINDS])
    p_ver.add_argument("--flux", required=True)
    p_ver.add_argument("--set", action="append", metavar="KEY=VALUE")

    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            for name in catalog_names():
                print(name)
            return 0
        if args.command == "run":
            cfg = load_config(args.config)
            outdir = _resolve_outdir(cfg.output_dir, args.out)
            _prepare_dir(outdir, args.force)
            reports = run_experiment(cfg, outdir)
            print((Path(outdir) / "summary.txt").read_text(), end="")
            print(f"run directory: {outdir}")
            return 0 if all(r.passed for r in reports) else 1
        if args.command == "study":
            if args.levels < 2:
                raise ConfigError("study needs --levels >= 2")
            cfg = load_config(args.config)
            outdir = _resolve_outdir(cfg.output_dir, args.out)
            _prepare_dir(outdir, args.force)
            return run_study(cfg, args.levels, outdir)
        if args.command == "verify":
            return cmd_verify(args)
    except ClawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
