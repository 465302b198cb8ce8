"""The measured process of one benchmark run.

Usage: ``python3 perfbench/worker.py SPEC.json`` (run.py writes the spec).
It imports oddcluster from ``src/`` of the checkout that holds this file,
parses the request inputs with ``graph_io.read_edgelist`` (together: the
set-up time), then serves the requests in a closed loop -- one client, the
next request starts when the previous one is done -- until the spec's time
is up. A request is ``cli.run_color(g, t)`` followed by
``json.dumps(payload, indent=2)``, the library path of ``oddcluster color``.
Every time is also reported scaled to a reference machine speed (see
Speedometer).

With tracing on, passes alternate untraced and traced. A traced pass wraps
the public functions listed in LAYERS wherever the program looks them up
(the defining module, and every ``from ... import`` binding in other
oddcluster modules) and records self time and calls per function.

The result is one JSON object on stdout. The first accepted payload of each
request is written to the spec's payload directory, so the parent can
verify it after the measured process has ended.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, function) pairs traced during the request loop. Their span name,
# and the prefix of their metrics, is "<module>.<function>".
LAYERS = (
    ("cli", "run_color"),
    ("decompose", "decompose"),
    ("decompose", "maximal_bipartite_part"),
    ("decompose", "pick_component"),
    ("decompose", "decomposition_violation"),
    ("spanner", "build_spanner"),
    ("spanner", "minimum_connector"),
    ("spanner", "bounded_bipartition"),
    ("spanner", "refine_triple"),
    ("spanner", "triple_violation"),
    ("certificate", "extract_certificate"),
    ("certificate", "verify_certificate"),
    ("coloring", "build_auxiliary"),
    ("coloring", "color_parts"),
    ("coloring", "product_coloring"),
    ("coloring", "verify_coloring"),
)
PARSE_LAYER = ("graph_io", "read_edgelist")
PAYLOAD_SPAN = "cli.payload_json"

EXPECTED_EXIT = {"colored": 0, "certificate": 3}

# Machine speed. On a machine whose cores are shared with other tenants,
# speed can drift by a quarter within minutes (seen on a 2-core VM), which
# wall time alone cannot tell from a change in the program. So while the
# requests run, a timer signal interrupts the worker every CALIBRATE_EVERY_S
# and times a fixed reference task: frozen pure-Python graph code,
# independent of oddcluster.
# The benchmark's clock stops while the reference task runs. A request's
# time is then scaled by REFERENCE_S over the median reference time around
# it (the samples taken during the request and the nearest one on each side):
# its time on a machine where the reference task takes REFERENCE_S. The
# unscaled times are reported beside the scaled ones.
REFERENCE_S = 0.05
CALIBRATE_EVERY_S = 1.0
_GRID = 100


class Speedometer:
    """Times the reference task (BFS from every 1250th vertex of a 100x100
    grid, a working set the size of the grid workload's) on demand or on a
    timer signal, and keeps a clock that stops meanwhile."""

    def __init__(self) -> None:
        n = _GRID
        self.adj = [frozenset(x for x in ((r - 1) * n + c, (r + 1) * n + c, r * n + c - 1, r * n + c + 1)
                              if 0 <= x < n * n and abs(x % n - c) <= 1)
                    for r in range(n) for c in range(n)]
        self.sampled_at: list[int] = []  # clock_ns() when each sample started
        self.samples_s: list[float] = []
        self.paused_ns = 0
        self._busy = False
        self._task()  # warm-up, untimed

    def _task(self) -> int:
        total = 0
        for root in range(0, len(self.adj), 1250):
            depth = {root: 0}
            frontier = [root]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in self.adj[v]:
                        if w not in depth:
                            depth[w] = depth[v] + 1
                            nxt.append(w)
                frontier = sorted(nxt)
            total += len(depth.keys() & self.adj[root]) + max(depth.values())
        return total

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not slow the reference task
        at = self.clock_ns()
        start = time.perf_counter_ns()
        self._task()
        elapsed = time.perf_counter_ns() - start
        if collecting:
            gc.enable()
        self.sampled_at.append(at)
        self.samples_s.append(elapsed / 1e9)
        self.paused_ns += elapsed
        self._busy = False

    def clock_ns(self) -> int:
        """perf_counter_ns() minus the time spent in the reference task."""
        while True:
            paused = self.paused_ns
            now = time.perf_counter_ns()
            if paused == self.paused_ns:  # no sample ran in between
                return now - paused

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, elapsed_s: float, start_ns: int, end_ns: int) -> float:
        """`elapsed_s`, measured on clock_ns() from start_ns to end_ns, at
        reference speed."""
        first = max(bisect.bisect_right(self.sampled_at, start_ns) - 1, 0)
        last = min(bisect.bisect_left(self.sampled_at, end_ns), len(self.sampled_at) - 1)
        return elapsed_s * REFERENCE_S / statistics.median(self.samples_s[first:last + 1])


class Tracer:
    """Self time and call counts of wrapped functions, plus exact counters."""

    def __init__(self, clock_ns) -> None:
        self.clock_ns = clock_ns
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.top_ns = 0  # time inside outermost spans
        self.counts = {"decompose.parts": 0, "spanner.minimum_connector.terminals_max": 0,
                       "spanner.moves.extend": 0, "spanner.moves.reconnect": 0}
        self._children: list[int] = []  # per open span: time covered by its child spans
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        self.calls[name] = self.calls.get(name, 0) + 1
        self._children.append(0)
        start = self.clock_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock_ns() - start
            self.self_ns[name] = self.self_ns.get(name, 0) + elapsed - self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            else:
                self.top_ns += elapsed

    def on_move(self, event) -> None:
        self.counts[f"spanner.moves.{event.kind}"] += 1

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "decompose.decompose":
            self.counts["decompose.parts"] += len(result.parts)
        elif name == "spanner.minimum_connector":
            key = "spanner.minimum_connector.terminals_max"
            self.counts[key] = max(self.counts[key], len(set(args[2])))

    def install(self, layers) -> None:
        """Replace every binding of each layer function inside oddcluster."""
        modules = [m for n, m in list(sys.modules.items()) if n == "oddcluster" or n.startswith("oddcluster.")]
        for module_name, fn_name in layers:
            name = f"{module_name}.{fn_name}"
            # sys.modules, not attribute access: the package re-exports the
            # function decompose under the submodule's name.
            original = getattr(sys.modules[f"oddcluster.{module_name}"], fn_name)

            def traced(*args, _name=name, _fn=original, **kwargs):
                result = self.call(_name, _fn, *args, **kwargs)
                self._after(_name, args, result)
                return result

            self.calls[name] = 0
            self.self_ns[name] = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        return {"self_ns": self.self_ns, "calls": self.calls, "top_ns": self.top_ns, "counts": self.counts}


def setup(inputs: list[list], tracer: Tracer | None = None):
    """Import oddcluster and parse every input; returns (cli, graphs, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import oddcluster.cli  # noqa: F401  (registers every submodule)

    if tracer is not None:
        tracer.install([PARSE_LAYER])
    graph_io = sys.modules["oddcluster.graph_io"]
    graphs = [(graph_io.read_edgelist(Path(path).read_text(encoding="utf-8")), t) for path, t in inputs]
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return sys.modules["oddcluster.cli"], graphs, elapsed


def corrupt_payload(payload: dict) -> dict:
    """A copy of `payload` whose artifact no verifier may accept."""
    bad = json.loads(json.dumps(payload))
    if bad.get("status") == "colored":
        bad["coloring"]["colors"] = [[1, 1] for _ in bad["coloring"]["colors"]]
    elif bad.get("status") == "certificate":
        bad["certificate"]["trees"] = bad["certificate"]["trees"][:-1]
    return bad


def serve(spec: dict) -> dict:
    speed = Speedometer()
    parse_tracer = Tracer(speed.clock_ns) if spec["trace"] else None
    cli, graphs, _ = setup(spec["inputs"], parse_tracer)
    payload_dir = Path(spec["payload_dir"])
    corrupt = spec.get("corrupt")
    min_untraced, min_traced = (2, 2) if spec["trace"] else (1, 0)

    requests = [{"hash": None, "status": None, "ok": 0} for _ in graphs]
    failures: list[dict] = []
    passes: list[dict] = []
    spans: list[list[tuple[int, int]]] = []  # per pass: clock_ns() at start and end of each request
    traces: list[dict] = []
    speed.sample()
    speed.start_timer()
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        untraced = sum(not p["traced"] for p in passes)
        traced_done = len(passes) - untraced
        if untraced >= min_untraced and traced_done >= min_traced and time.perf_counter() >= deadline:
            break
        traced = spec["trace"] and len(passes) % 2 == 1
        tracer = Tracer(speed.clock_ns) if traced else None
        if tracer is not None:
            tracer.install(LAYERS)
        pass_spans = []
        for i, (g, t) in enumerate(graphs):
            run_color = cli.run_color  # looked up per request: the tracer may have replaced it
            start = speed.clock_ns()
            try:
                if tracer is not None:
                    result = run_color(g, t, on_move=tracer.on_move)
                    text = tracer.call(PAYLOAD_SPAN, json.dumps, result.payload, indent=2)
                else:
                    result = run_color(g, t)
                    text = json.dumps(result.payload, indent=2)
            except Exception as exc:  # a failed request is counted, not fatal
                pass_spans.append((start, speed.clock_ns()))
                failures.append({"pass": len(passes), "request": i, "reason": f"{type(exc).__name__}: {exc}"})
                continue
            pass_spans.append((start, speed.clock_ns()))

            status = result.payload.get("status")
            if i == corrupt:
                text = json.dumps(corrupt_payload(result.payload), indent=2)
            if EXPECTED_EXIT.get(status) != result.exit_code:
                failures.append({"pass": len(passes), "request": i,
                                 "reason": f"exit code {result.exit_code} with status {status!r}"})
                continue
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            record = requests[i]
            if record["hash"] is None:
                record["hash"], record["status"] = digest, status
                (payload_dir / f"payload-{i}.json").write_text(text, encoding="utf-8")
            if digest != record["hash"]:
                failures.append({"pass": len(passes), "request": i, "reason": "payload differs from an earlier pass"})
                continue
            record["ok"] += 1
        if tracer is not None:
            tracer.uninstall()
            traces.append(tracer.summary())
        passes.append({"traced": traced})
        spans.append(pass_spans)
    speed.stop_timer()
    speed.sample()

    for p, pass_spans in zip(passes, spans):
        p["latencies_ns"] = [end - start for start, end in pass_spans]
        p["scaled_s"] = [speed.scale((end - start) / 1e9, start, end) for start, end in pass_spans]
    return {
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "reference_s": speed.samples_s,
        "requests": requests,
        "failures": failures,
        "traces": traces,
        "parse_trace": parse_tracer.summary() if parse_tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if spec["mode"] == "setup":
        speed = Speedometer()
        speed.sample()
        start = speed.clock_ns()
        raw = setup(spec["inputs"])[2]
        end = speed.clock_ns()
        speed.sample()
        out = {"setup_s": speed.scale(raw, start, end), "raw_s": raw}
    else:
        out = serve(spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
