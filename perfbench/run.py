"""Color-or-certify benchmark for oddcluster.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse_gnp --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke            # toy sizes, a few seconds
    python3 perfbench/run.py --write-golden     # re-record golden.json

The workloads are defined in workloads.py. Each run generates the inputs from
the seed, then starts worker.py: set-up probes that only import and parse,
and one measured process that serves the requests in a closed loop (one
client, one thread) for the given seconds. The untraced run (--trace 0)
reports the end-to-end metrics of BENCHMARK.json; the traced run (--trace 1)
reports the per-layer ones. Names and units come from BENCHMARK.json.

End-to-end times are scaled to a reference machine speed measured inside
the worker (see worker.Speedometer), because the shared machine's speed
drifts more than any useful regression bound. Each is a median over the
passes of the request list (setup_s: over SETUP_PROBES fresh processes).
Per-layer self times are unscaled, so they add up to trace.run_s.

A request fails on an exception, an unexpected exit code, a payload that
changes between passes, an artifact the verifier rejects after a JSON round
trip, or, at the golden seed, an input or payload hash that differs from
golden.json. Failures are counted, and the last stdout line is the JSON
result; a human summary goes to stderr, with fail_frac (failed over
attempted), the unscaled times and ungated metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import LAYERS, PARSE_LAYER, PAYLOAD_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170  # a whole run, set-up probes included, ends within this

SPAN_NAMES = [f"{m}.{f}" for m, f in (PARSE_LAYER, *LAYERS)] + [PAYLOAD_SPAN]
CHECK_SPANS = ("decompose.decomposition_violation", "spanner.triple_violation",
               "certificate.verify_certificate", "coloring.verify_coloring")
# Spans that must record calls on a workload; a rename in src/ then fails
# loudly instead of reading zero.
ALWAYS = {"graph_io.read_edgelist", "cli.run_color", "decompose.decompose",
          "decompose.maximal_bipartite_part", PAYLOAD_SPAN}
COLORING = {"decompose.decomposition_violation", "coloring.build_auxiliary", "coloring.color_parts",
            "coloring.product_coloring", "coloring.verify_coloring"}
SPANNER = {"decompose.pick_component", "spanner.build_spanner", "spanner.minimum_connector",
           "spanner.bounded_bipartition", "spanner.refine_triple", "spanner.triple_violation"}
REQUIRED = {
    "sparse_gnp": ALWAYS | SPANNER,
    "grid_bipartite": ALWAYS | COLORING,
    "dense_batch": ALWAYS | SPANNER | COLORING | {"certificate.extract_certificate",
                                                  "certificate.verify_certificate"},
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_oddcluster():
    if not (ROOT / "src" / "oddcluster" / "__init__.py").is_file():
        raise BenchError(f"no oddcluster sources under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import oddcluster.cli  # noqa: F401

    return sys.modules["oddcluster.graph_io"], sys.modules["oddcluster.coloring"], sys.modules["oddcluster.certificate"]


def spawn(work: Path, spec: dict, deadline: float) -> dict:
    """Run worker.py on `spec` until time.monotonic() reaches `deadline`."""
    spec_path = work / f"spec-{spec['mode']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)], cwd=ROOT,
                              capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run did not finish within {RUN_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def artifact_problem(modules, input_text: str, t: int, payload_text: str) -> str | None:
    """Why the payload is not a verified artifact for this input, or None.
    Re-verified from the JSON text alone, trusting nothing the run kept."""
    graph_io, coloring, certificate = modules
    try:
        g = graph_io.read_edgelist(input_text)
        payload = json.loads(payload_text)
        if payload.get("t") != t:
            return f"payload t is {payload.get('t')!r}, expected {t}"
        if payload["status"] == "colored":
            colors = coloring.coloring_from_json(payload["coloring"])
            if len(colors.colors) != g.n:
                return f"coloring covers {len(colors.colors)} of {g.n} vertices"
            checked = coloring.verify_coloring(g, colors, t)
            if isinstance(checked, coloring.ColoringRejection):
                return f"coloring rejected: {checked.reason}"
            return None
        if payload["status"] == "certificate":
            cert = certificate.certificate_from_json(payload["certificate"])
            if cert.t != t:
                return f"certificate is for t={cert.t}"
            reason = certificate.verify_certificate(g, cert)
            return None if reason is None else f"certificate rejected: {reason}"
        return f"unexpected status {payload['status']!r}"
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # GraphError is a ValueError
        return f"malformed payload: {type(exc).__name__}: {exc}"


def load_golden(name: str, seed: int, toy: bool) -> dict | None:
    if toy or not GOLDEN.is_file():
        return None
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return golden["workloads"].get(name) if seed == golden["seed"] else None


def percentile_ms(seconds: list[float], index: int) -> float:
    """Twentieth-quantile `index` (9 = p50, 18 = p95) of one pass's request
    latencies; a one-request list has no tail, so its only latency."""
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=20, method="inclusive")[index] * 1e3


def end_to_end(out: dict, setup_samples: list[float]) -> dict[str, float]:
    """Scaled times, each a median over the untraced passes of the request list."""
    untraced = [p["scaled_s"] for p in out["passes"] if not p["traced"]]
    return {
        "run_s": statistics.median(sum(lat) for lat in untraced),
        "req_p50_ms": statistics.median(percentile_ms(lat, 9) for lat in untraced),
        "req_p95_ms": statistics.median(percentile_ms(lat, 18) for lat in untraced),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": out["peak_rss_kib"] / 1024,
    }


def per_layer(name: str, out: dict, problems: list[str]) -> dict[str, float]:
    traced = [p for p in out["passes"] if p["traced"]]
    overhead_s = (statistics.median(sum(p["scaled_s"]) for p in traced)
                  - statistics.median(sum(p["scaled_s"]) for p in out["passes"] if not p["traced"]))
    traces = out["traces"]
    for i, tr in enumerate(traces[1:], 2):
        if (tr["calls"], tr["counts"]) != (traces[0]["calls"], traces[0]["counts"]):
            problems.append(f"exact counts differ between traced passes 1 and {i}")
    # report the traced pass with the median wall time, so its figures add up
    order = sorted(range(len(traced)), key=lambda i: sum(traced[i]["latencies_ns"]))
    median_pass = order[(len(order) - 1) // 2]
    tr = traces[median_pass]
    wall_ns = sum(traced[median_pass]["latencies_ns"])
    self_ns = dict(tr["self_ns"])
    calls = dict(tr["calls"])
    residual_ns = wall_ns - tr["top_ns"]
    if sum(self_ns.values()) + residual_ns != wall_ns:
        problems.append("self times plus residual do not add up to the traced run time")
    parse = out["parse_trace"]
    self_ns.update(parse["self_ns"])
    calls.update(parse["calls"])
    for span in sorted(REQUIRED[name]):
        if calls.get(span, 0) < 1:
            problems.append(f"{span} recorded no call on {name}")

    metrics: dict[str, float] = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.self_s"] = self_ns[span] / 1e9
        metrics[f"{span}.calls"] = calls[span]
    metrics.update(tr["counts"])
    checks_ns = sum(self_ns[s] for s in CHECK_SPANS)
    metrics["checks.self_s"] = checks_ns / 1e9
    metrics["checks.share"] = checks_ns / wall_ns
    metrics["trace.run_s"] = wall_ns / 1e9
    metrics["trace.residual_s"] = residual_ns / 1e9
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.slowdown"] = wall_ns / 1e9 / sum(traced[median_pass]["scaled_s"])
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
            corrupt: int | None = None) -> dict:
    """One benchmark run; returns metrics, counts, split, hashes and problems."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    modules = import_oddcluster()
    requests = workloads.build(name, seed, toy)
    golden = load_golden(name, seed, toy)
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = []
        for i, (text, t) in enumerate(requests):
            path = work / f"input-{i}.txt"
            path.write_text(text, encoding="utf-8")
            inputs.append([str(path), t])
        base = {"inputs": inputs, "payload_dir": str(work)}
        probes = [] if trace else [spawn(work, {**base, "mode": "setup"}, deadline) for _ in range(SETUP_PROBES)]
        out = spawn(work, {**base, "mode": "run", "seconds": seconds, "trace": trace, "corrupt": corrupt}, deadline)
        payloads = {i: (work / f"payload-{i}.json").read_text(encoding="utf-8")
                    for i, rec in enumerate(out["requests"]) if rec["hash"] is not None}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    problems = [f"pass {f['pass']} request {f['request']}: {f['reason']}" for f in out["failures"]]
    failed = len(out["failures"])
    input_hashes = [sha256(text) for text, _ in requests]
    for i, rec in enumerate(out["requests"]):
        if rec["hash"] is None:
            continue  # every execution failed and is already counted
        text, t = requests[i]
        problem = artifact_problem(modules, text, t, payloads[i])
        if problem is None and golden is not None:
            if i >= len(golden["inputs"]) or input_hashes[i] != golden["inputs"][i]:
                problem = "input differs from golden.json"
            elif rec["hash"] != golden["payloads"][i]:
                problem = "payload differs from golden.json"
        if problem is not None:
            failed += rec["ok"]
            problems.append(f"request {i}: {problem}")
    split = {"colored": 0, "certificate": 0}
    for rec in out["requests"]:
        if rec["status"] in split:
            split[rec["status"]] += 1
    if golden is not None and split != golden["split"]:
        problems.append(f"split {split} differs from golden {golden['split']}")

    metrics = per_layer(name, out, problems) if trace else end_to_end(out, [p["setup_s"] for p in probes])
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "attempted": sum(len(p["latencies_ns"]) for p in out["passes"]),
        "failed": failed,
        "passes": len(out["passes"]),
        "split": split,
        "inputs": input_hashes,
        "payloads": [rec["hash"] for rec in out["requests"]],
        "problems": problems,
        "golden": golden is not None,
        "raw": {  # unscaled wall times, for the summary only
            "run_s": statistics.median(sum(p["latencies_ns"]) / 1e9 for p in out["passes"] if not p["traced"]),
            "setup_s": statistics.median(p["raw_s"] for p in probes) if probes else None,
            "reference_s": statistics.median(out["reference_s"]),
        },
    }


def metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "oddcluster").glob("*.py")))
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_lines": src_lines}


def report(name: str, seed: int, trace: bool, res: dict) -> None:
    """Human summary on stderr; ungated metadata included."""
    err = sys.stderr
    frac = res["failed"] / res["attempted"]
    print(f"# {name} seed={seed} trace={int(trace)} passes={res['passes']} split={res['split']} "
          f"golden={'checked' if res['golden'] else 'skipped'}", file=err)
    print(f"  fail_frac = {frac:.4g} ({res['failed']} of {res['attempted']} requests)", file=err)
    for key, m in res["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}", file=err)
    print(f"  unscaled: {json.dumps(res['raw'])}", file=err)
    for problem in res["problems"][:20]:
        print(f"  PROBLEM {problem}", file=err)
    print(f"  meta {json.dumps(metadata())}", file=err)


def write_golden(seed: int) -> int:
    golden = {"seed": seed, "workloads": {}}
    for name in workloads.WORKLOADS:
        res = measure(name, seed, 0, False)
        report(name, seed, False, res)
        if res["problems"]:
            return 1
        golden["workloads"][name] = {k: res[k] for k in ("split", "inputs", "payloads")}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


def smoke() -> int:
    """Toy sizes: every metric name and unit printed, and one deliberately
    corrupted payload counted as a failure, not a crash."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = measure(name, 0, 0, trace, toy=True, corrupt=None if trace else 0)
            report(name, 0, trace, res)
            expected = 0 if trace else 1
            if res["failed"] != expected or len(res["problems"]) != expected:
                print(f"SMOKE FAIL {name} trace={int(trace)}: expected {expected} failure(s)", file=sys.stderr)
                ok = False
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-test")
    parser.add_argument("--write-golden", action="store_true", help="record golden.json at --seed")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.write_golden:
            return write_golden(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, bool(args.trace), res)
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
