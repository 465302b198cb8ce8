"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads ...] [--json OUT]

Runs run.py once per (seed, workload), alternating the workloads within each
seed so that machine drift hits all of them alike. For every workload and
end-to-end metric it prints the median, the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, and the
metric's bound from BENCHMARK.json. Exits 1 if any run failed or any spread
other than that of setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--json", help="also write every run's result to this file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in bounds} for w in args.workloads}
    runs = []
    ok = True
    for seed in args.seeds:
        for name in args.workloads:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=180)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": name, "seed": seed, "elapsed_s": elapsed, "result": result})
            if result is None or not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: FAILED\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            for metric in bounds:
                values[name][metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: {elapsed:.1f} s  "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)

    for name, per_metric in values.items():
        for metric, vals in per_metric.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[metric] / 3 else ("  > bound/3" if spread <= bounds[metric] else "  > BOUND")
            if metric != "setup_s" and spread > bounds[metric]:
                ok = False
            print(f"{name:15s} {metric:13s} median {med:10.4f}  spread {spread:6.3f}  bound {bounds[metric]}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
