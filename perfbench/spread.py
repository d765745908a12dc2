"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --seeds 1-10 [--workloads entropy_1d ...]
                                [--trace 0|1] [--out summary.json]

Runs the command of BENCHMARK.json once per workload and seed, one run at a
time, with BENCHMARK.json's ``run_seconds``.  For every metric it reports
the median over the seeds, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  A run that fails or reports ``correct: false`` stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    summary = {}
    for name in args.workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(proc.stderr, file=sys.stderr)
                return 1
            results.append(res)
            print(name, seed, {k: m["value"] for k, m in
                               res["metrics"].items()}, flush=True)
        summary[name] = {
            metric: dict(summarise([r["metrics"][metric]["value"]
                                    for r in results]),
                         unit=results[0]["metrics"][metric]["unit"])
            for metric in results[0]["metrics"]}
        for metric, s in summary[name].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{name} {metric}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {spread}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
