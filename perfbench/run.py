"""clawlab benchmark: verified experiments in a closed loop, one caller.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload entropy_1d --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
several fresh-process set-ups), ``run_s`` (median time of one verified
experiment in a warm process) and ``peak_rss_mb`` (this process's peak
resident memory).  The two times are in reference seconds (refkernel.py):
each measurement is scaled by a reference kernel timed next to it, so the
host's drifting speed cancels; the plain wall times are printed too.
``--trace 1`` is a separate run that alternates untraced and traced
experiments and reports the per-layer metrics from the spans (see
tracing.py), plus the tracing overhead; its times are plain wall seconds.

Every experiment's outputs are checked against the oracles in workloads.py;
``attempted``/``failed`` count checks, and a failed check is never retried.
Run output goes to a temporary directory under ``.perfbench/`` in the
checkout, removed at the end; the span trace of a traced run is written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.  The last line of standard
output is the result as JSON.
"""

import os

# Cap the numpy/BLAS thread pools before numpy is imported, here and in the
# set-up probes, which inherit the environment.
THREAD_CAPS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 60


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> list[tuple[float, float]]:
    """(set-up seconds, reference kernel seconds) of ``SETUP_RUNS`` fresh
    processes, run one after the other before this process imports
    clawlab."""
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(res["clawlab_file"]).resolve().is_relative_to(SRC):
            fail(f"set-up probe imported clawlab from {res['clawlab_file']}")
        out.append((res["setup_s"], res["kernel_s"]))
    return out


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, workload) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "thread_caps": THREAD_CAPS,
            "workload": workload.name, "seed": args.seed,
            "point": workload.point, "params": workload.params}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_one(workload, checks, reference, tmp: Path, index: int, root=None):
    """One verified experiment: (seconds, {check: failure reason}).  The
    timed region is the experiment alone; ``root`` is a tracer root to
    open around it."""
    from workloads import verify
    outdir = tmp / f"exp{index:04d}"
    outdir.mkdir()
    gc.collect()
    outcome, error = None, None
    t0 = perf_counter()
    try:
        if root is None:
            outcome = workload.experiment(outdir)
        else:
            with root:
                outcome = workload.experiment(outdir)
    except Exception:
        error = traceback.format_exc()
    seconds = perf_counter() - t0
    if error is not None:
        print(f"experiment {index} raised:\n{error}", file=sys.stderr)
        failures = {c: "experiment raised" for c in checks}
    else:
        failures = verify(workload, outcome, reference)
    shutil.rmtree(outdir)
    for check, reason in failures.items():
        print(f"FAILED {check}: {reason}", file=sys.stderr)
    return seconds, failures


def layer_metrics(setup, phases, untraced: list[float]) -> dict:
    """The per-layer metrics: set-up ones from the traced set-up, the rest
    as medians (times) or the per-experiment value (counts) over the
    traced experiments."""
    def med(fn):
        return statistics.median(fn(p) for p in phases)

    first = phases[0]
    solve_tags = ("solve", "solve_pair", "solve_viscous")
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("solver.solve_s", med(lambda p: p.layer_self("solver", solve_tags)),
        "s")
    put("solver.steps", first.counts["solver.steps"], "count")
    put("solver.cell_updates", first.counts["solver.cell_updates"], "count")
    # per second of solve calls including the flux evaluations they make
    put("solver.cell_updates_per_s", med(
        lambda p: p.counts["solver.cell_updates"]
        / max(sum(p.inclusive_s[("solver", t)] for t in solve_tags), 1e-300)),
        "1/s")
    put("solver.scan_s", med(lambda p: p.layer_self(
        "solver", ("discrete_entropy_max_violation",))), "s")
    put("flux.lipschitz_s", med(lambda p: p.layer_self(
        "flux", ("lipschitz_constant",))), "s")
    put("flux.lipschitz_calls", first.calls[("flux", "lipschitz_constant")],
        "count")
    put("flux.calls", first.layer_calls("flux", ("eval", "dk", "div_x",
                                                 "grad_x_components")),
        "count")
    put("flux.points", first.counts["flux.points"], "count")
    put("flux.self_s", med(lambda p: p.layer_self("flux")), "s")
    put("entropy.calls", first.layer_calls(
        "entropy", ("pair.eta", "pair.eta_prime", "pair.q", "pair.div_x_q")),
        "count")
    put("entropy.self_s", med(lambda p: p.layer_self("entropy")), "s")
    put("mollifiers.cdf_table_s",
        setup.inclusive_s[("mollifiers", "kernel_cdf")], "s")
    put("mollifiers.phi_calls", first.layer_calls(
        "mollifiers", ("phi.value", "phi.dt", "phi.grad_x")), "count")
    put("mollifiers.phi_points", first.counts["mollifiers.phi_points"],
        "count")
    put("mollifiers.self_s", med(lambda p: p.layer_self("mollifiers")), "s")
    put("quadrature.adaptive_calls",
        setup.calls[("quadrature", "adaptive_gauss_legendre")], "count")
    put("quadrature.self_s", setup.layer_self("quadrature"), "s")
    for key, tags in (("entropy_residual", ("entropy_residual",)),
                      ("kato", ("kato_lhs",)),
                      ("cone", ("cone_contraction_profile",)),
                      ("global", ("global_contraction_check",)),
                      ("uniqueness", ("uniqueness_experiment",)),
                      ("doubling", ("doubling_diagnostics",
                                    "find_smooth_samples"))):
        put(f"verifier.{key}_s",
            med(lambda p, t=tags: p.layer_self("verifier", t)), "s")
        if key == "entropy_residual":
            put("verifier.entropy_residual_calls",
                first.calls[("verifier", "entropy_residual")], "count")
    put("verifier.self_s", med(lambda p: p.layer_self("verifier")), "s")
    put("grids.write_csv_s", med(lambda p: p.layer_self(
        "grids", ("write_csv",))), "s")
    put("grids.write_slabs_s", med(lambda p: p.layer_self(
        "grids", ("write_slabs", "write_slab"))), "s")
    put("grids.read_s", med(lambda p: p.layer_self(
        "grids", ("read_slabs", "load_field", "read_csv", "read_slab"))), "s")
    put("grids.bytes_written", first.counts["grids.bytes_written"], "bytes")
    put("grids.bytes_read", first.counts["grids.bytes_read"], "bytes")
    put("svgplot.self_s", med(lambda p: p.layer_self("svgplot")), "s")
    put("config.load_s", med(lambda p: p.layer_self("config")), "s")
    put("cli.self_s", med(lambda p: p.layer_self("cli")), "s")
    put("bench.self_s", med(lambda p: p.layer_self("bench")), "s")
    traced = med(lambda p: p.duration)
    put("trace.run_s", traced, "s")
    put("trace.overhead_s", traced - statistics.median(untraced), "s")
    put("trace.layer_share", med(
        lambda p: (p.duration - p.layer_self("bench")) / p.duration), "ratio")
    return m


def print_layer_table(name: str, phases) -> None:
    from tracing import LAYERS
    run = statistics.median(p.duration for p in phases)
    print(f"self time by layer, {name} (median of {len(phases)} traced "
          f"experiments, traced run_s {run:.4f} s)")
    for layer in LAYERS + ("bench",):
        s = statistics.median(p.layer_self(layer) for p in phases)
        print(f"  {layer:<11} {s:10.4f} s  {100.0 * s / run:6.2f} %")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "clawlab" / "__init__.py").is_file():
        fail(f"no clawlab sources at {SRC / 'clawlab'}; run from the root "
             "of a checkout of the repository")
    setup_times = measure_setup() if not args.trace else None

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import clawlab
    if not Path(clawlab.__file__).resolve().is_relative_to(SRC):
        fail(f"imported clawlab from {clawlab.__file__}, not from {SRC}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: "
             f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    checks = workloads.CHECKS[args.workload]
    reference = workloads.load_reference()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install([workloads])
        with tracer.root("setup") as setup_phase:
            clawlab.mollifier_constant(1)
            clawlab.mollifier_constant(2)
            clawlab.kernel_cdf(1.0, 0.0)
        tracer.uninstall()
    else:
        clawlab.mollifier_constant(1)
        clawlab.mollifier_constant(2)
        clawlab.kernel_cdf(1.0, 0.0)

    print(f"provenance {json.dumps(provenance(args, workload))}")
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    untraced, traced_phases = [], []
    # each untraced experiment on the reference scale, against the mean of
    # the kernel times just before and just after it
    from refkernel import ReferenceKernel, to_reference
    kernel = ReferenceKernel()
    kernel_times, scaled = [kernel()], []
    failed = attempted = 0
    try:
        start = perf_counter()
        index = 0
        while index < 2 or perf_counter() - start < args.seconds:
            traced = bool(args.trace) and index % 2 == 1
            if traced:
                tracer.install([workloads])
                root = tracer.root("experiment")
            else:
                root = None
            try:
                seconds, failures = run_one(workload, checks, reference, tmp,
                                            index, root)
            finally:
                if traced:
                    tracer.uninstall()
            kernel_times.append(kernel())
            if traced:
                traced_phases.append(tracer.phases[-1])
            else:
                untraced.append(seconds)
                scaled.append(to_reference(
                    seconds, statistics.mean(kernel_times[-2:])))
            attempted += len(checks)
            failed += len(failures)
            index += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wall_q1, wall_run, wall_q3 = quartiles(untraced)
    print(f"wall run_s {wall_run:.6f} s  (median of {len(untraced)} untraced "
          f"experiments; quartiles {wall_q1:.6f} .. {wall_q3:.6f} s)")
    print("wall run_s samples " + " ".join(f"{t:.4f}" for t in untraced))
    print("reference kernel samples "
          + " ".join(f"{t:.4f}" for t in kernel_times))
    run_q1, run_s, run_q3 = quartiles(scaled)
    print(f"run_s {run_s:.6f} s  (reference seconds; quartiles "
          f"{run_q1:.6f} .. {run_q3:.6f} s)")
    print(f"check_fail_ratio {failed / attempted:.6g}  ({failed} of "
          f"{attempted} checks failed)")
    if args.trace:
        metrics = layer_metrics(setup_phase, traced_phases, untraced)
        trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print_layer_table(args.workload, traced_phases)
        print(f"spans written to {trace_path}")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_setup = statistics.median(t for t, _ in setup_times)
        s_q1, setup_s, s_q3 = quartiles([to_reference(t, k)
                                          for t, k in setup_times])
        print(f"wall setup_s {wall_setup:.6f} s  (median of "
              f"{len(setup_times)} fresh processes)")
        print(f"setup_s {setup_s:.6f} s  (reference seconds; quartiles "
              f"{s_q1:.6f} .. {s_q3:.6f} s)")
        print(f"peak_rss_mb {peak_mb:.3f} MB")
        metrics = {"run_s": {"value": run_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
