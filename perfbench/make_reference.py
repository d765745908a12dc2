"""Regenerate perfbench/reference.json: the report values of every
parameter-grid point of every workload.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py [workload ...]

The references are taken once, at the commit that defines the benchmark,
and pin the outputs later commits must reproduce (within workloads.RTOL).
Regenerating them on a later commit would hide a change in the outputs; do
it only when a workload's inputs change, and say so.  The script refuses
to write a point whose checks do not come out as expected: every check
passes except the anti-test, which must fail.
"""

import os

os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")})

import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def point_seeds(cls) -> dict:
    """One benchmark seed per grid point (the smallest that selects it)."""
    n = len(list(itertools.product(*cls.LEVELS.values())))
    seeds = {}
    for seed in itertools.count():
        seeds.setdefault(cls(seed).point, seed)
        if len(seeds) == n:
            return seeds


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    path = workloads.REFERENCE_PATH
    ref = json.loads(path.read_text()) if path.exists() else {}
    ref["rtol"] = workloads.RTOL
    ref.setdefault("workloads", {})
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=ROOT / ".perfbench"))
    bad = 0
    try:
        for name in names:
            cls = workloads.WORKLOADS[name]
            table = {}
            for point, seed in sorted(point_seeds(cls).items()):
                w = cls(seed)
                outdir = tmp / f"{name}-{point}"
                outdir.mkdir()
                outcome = w.experiment(outdir)
                shutil.rmtree(outdir)
                observed = w.observe(outcome)
                problems = dict(w.extra_failures(outcome))
                for check, obs in observed.items():
                    if obs["passed"] != (check != "anti_test"):
                        problems[check] = f"passed={obs['passed']}"
                print(name, point, w.params, problems or "ok", flush=True)
                bad += bool(problems)
                table[str(point)] = {"params": w.params, "checks": observed}
            ref["workloads"][name] = table
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if bad:
        print(f"{bad} points with unexpected check results; not written")
        return 1
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
