"""Benchmark of the ``renner`` command, one workload per process.

    python3 bench/run.py --workload census --seed 1 --seconds 35 --trace 0

Run from the repository root.  The harness drives ``renner.cli.main(argv)``
in-process, one query at a time with stdout captured: a closed loop with a
single client (no threads; the next query starts when the previous one
returns), like a researcher at a desk running queries back to back.  It
repeats whole passes over the workload's query list, in a seeded order,
for about ``--seconds``, and checks every answer against the pinned answers
in ``expected.json`` outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run: half of the time untraced, half with spans recorded around every layer
entry point; it prints the per-layer metrics, their table and the tracing
overhead, and writes the spans to ``bench/out/``.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

import tracing  # noqa: E402
from checks import check  # noqa: E402
from workloads import WORKLOADS, Query, monoid_order, warmup  # noqa: E402

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

E2E_UNITS = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "elements_per_s": "1/s",
    "refusal_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move).  A layer that does not run on a workload reads 0 there.
LAYERS = {
    "rootsys.generate_weyl_s": ("s", "query_p50_ms, query_p90_ms on census"),
    "rootsys.weyl_elements": ("count", "query_p50_ms, query_p90_ms on census"),
    "crosslat.lattice_s": ("s", "query_p50_ms on census"),
    "crosslat.subgroups_s": ("s", "query_p50_ms on census"),
    "crosslat.idempotents": ("count", "query_p50_ms on census"),
    "partialinj.compose_ns": ("ns", "wall_s on classify, build-export; elements_per_s"),
    "partialinj.inverse_ns": ("ns", "wall_s on classify, build-export; elements_per_s"),
    "partialinj.to_pairs_ns": ("ns", "wall_s on classify, build-export; elements_per_s"),
    "monoid.build_s": ("s", "elements_per_s, wall_s on build-export; query_p90_ms on census"),
    "monoid.elements": ("count", "elements_per_s, wall_s on build-export"),
    "monoid.refusal_s": ("s", "refusal_ms"),
    "monoid.export_s": ("s", "wall_s, peak_rss_mb on build-export"),
    "monoid.export_bytes": ("B", "wall_s, peak_rss_mb on build-export"),
    "monoid.normal_form_us": ("us", "wall_s on classify"),
    "monoid.project_us": ("us", "wall_s on classify"),
    "conj.semigroup_s": ("s", "wall_s on classify"),
    "conj.action_s": ("s", "wall_s on classify"),
    "conj.pairs_per_s": ("1/s", "wall_s on classify"),
    "conj.sim_s": ("s", "wall_s on classify"),
    "conj.munn_s": ("s", "wall_s on classify"),
    "conj.export_s": ("s", "wall_s on classify"),
    "conj.classes": ("count", "wall_s on classify"),
    "conj.orbit_reports_s": ("s", "query_p50_ms on census"),
    "conj.rep_count_s": ("s", "query_p50_ms on census"),
    "cli.self_s": ("s", "query_p50_ms on census"),
    "cli.output_bytes": ("B", "query_p50_ms on census"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s"),
}


@dataclass(frozen=True)
class Result:
    query: Query
    latency: float
    error: Optional[str]
    out_bytes: int


class Harness:
    """Runs queries through ``cli.main`` and checks each answer once per
    distinct output."""

    def __init__(self, main, expected: dict, tracer=None):
        self.main = main
        self.expected = expected
        self.tracer = tracer
        self._verdicts: dict[tuple, Optional[str]] = {}
        self._executed = 0

    def _invoke(self, argv: list[str]):
        if self.tracer is None:
            return self.main(argv)
        self.tracer.qid = self._executed
        return self.tracer.call("cli.main", None, self.main, (argv,), {})

    def execute(self, query: Query) -> Result:
        gc.collect()
        self._executed += 1
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self._invoke(list(query.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                rc = None
                traceback.print_exc()
            latency = time.perf_counter() - t0
        text = out.getvalue()
        data = text.encode()
        key = (query.argv, rc, hashlib.blake2b(data).digest())
        if key not in self._verdicts:
            if rc is None:
                self._verdicts[key] = f"raised: {err.getvalue().strip().splitlines()[-1]}"
            else:
                self._verdicts[key] = check(query, rc, text, self.expected)
        return Result(query, latency, self._verdicts[key], len(data))

    def passes(self, queries: list[Query], rng: random.Random, seconds: float, after=None):
        """Whole passes in a seeded order for about ``seconds``: at least
        one, and another only while it is expected to end in time.
        ``after(result)`` runs outside the timing."""
        done: list[list[Result]] = []
        spent: list[float] = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start + statistics.median(spent) <= seconds:
            t0 = time.perf_counter()
            order = list(queries)
            rng.shuffle(order)
            results = []
            for q in order:
                results.append(self.execute(q))
                if after is not None:
                    after(results[-1])
            done.append(results)
            spent.append(time.perf_counter() - t0)
        return done


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def interpreter_start_s() -> float:
    """A fresh interpreter importing the CLI."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import renner.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def setup(harness: Harness, workload: str, seed: int):
    """Interpreter start and import, query generation, loading the pinned
    answers and warm-up, repeated; returns the median time, the queries and
    the warm-up results."""
    times, warm = [], []
    for _ in range(SETUP_REPEATS):
        start = interpreter_start_s()
        t1 = time.perf_counter()
        harness.expected = json.loads((BENCH / "expected.json").read_text())
        queries = WORKLOADS[workload](harness.expected, random.Random(seed))
        warm += [harness.execute(q) for q in warmup(workload)]
        times.append(start + time.perf_counter() - t1)
    return statistics.median(times), queries, warm


def end_to_end(passes: list[list[Result]], expected: dict, setup_s: float) -> dict:
    flat = [r for p in passes for r in p]
    latencies = [r.latency for r in flat]
    built = [
        r for r in flat if r.query.command != "lattice" and not r.query.refuse and r.error is None
    ]
    built_time = sum(r.latency for r in built)
    elements = sum(monoid_order(expected, r.query.config) for r in built)
    refusals = [r.latency for r in flat if r.query.refuse]
    values = {
        "wall_s": pass_wall(passes),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "elements_per_s": elements / built_time if built_time else 0.0,
        "refusal_ms": statistics.fmean(refusals) * 1e3 if refusals else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def per_layer(spans, traced, untraced, benches) -> dict:
    values = {name: 0.0 for name in LAYERS}
    for name, total in tracing.layer_totals(spans).items():
        values[name] = total if name == "conj.pairs_per_s" else total / len(traced)
    for r in (r for p in traced for r in p):
        values["cli.output_bytes"] += r.out_bytes / len(traced)
        if r.query.command == "build" and r.error is None and not r.query.refuse:
            values["monoid.export_bytes"] += r.out_bytes / len(traced)
    for name in ("partialinj.compose_ns", "partialinj.inverse_ns", "partialinj.to_pairs_ns",
                 "monoid.normal_form_us", "monoid.project_us"):
        if benches:
            values[name] = statistics.fmean(b[name] for b in benches)
    values["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
    return {k: {"value": v, "unit": LAYERS[k][0]} for k, v in values.items()}


def pass_wall(passes: list[list[Result]]) -> float:
    """Median pass time; a pass's time is the sum of its query latencies."""
    return statistics.median(sum(r.latency for r in p) for p in passes)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "renner" / "cli.py").is_file():
        print(f"error: no renner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    from renner import cli

    if Path(cli.__file__).resolve().parent != SRC / "renner":
        print(f"error: imported renner from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    harness = Harness(cli.main, {}, tracer)
    setup_s, queries, warm = setup(harness, args.workload, args.seed)
    order_rng = random.Random(f"order:{args.seed}")
    env = environment()
    print(f"# workload={args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        measured, metrics = traced_run(harness, queries, order_rng, args, env)
    else:
        measured = harness.passes(queries, order_rng, args.seconds)
        metrics = end_to_end(measured, harness.expected, setup_s)

    results = warm + [r for p in measured for r in p]
    failures = [r for r in results if r.error is not None]
    for r in failures[:20]:
        print(f"# FAILED {' '.join(r.query.argv)}: {r.error}")
    print(
        f"# passes={len(measured)} queries/pass={len(queries)} samples={len(results) - len(warm)} "
        f"failed_ratio={len(failures) / len(results):.6g}"
    )
    print("# pass_s=" + ",".join(f"{sum(r.latency for r in p):.4f}" for p in measured))
    for name, m in metrics.items():
        moves = f"  -> {LAYERS[name][1]}" if name in LAYERS else ""
        print(f"# {name:26s} {m['value']:>16.6g} {m['unit']}{moves}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": len(results), "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


def traced_run(harness: Harness, queries, order_rng, args, env):
    """Half the time untraced, half traced; micro-benchmarks each newly
    built monoid outside the timing.  Returns all passes and the per-layer
    metrics."""
    tracer = harness.tracer
    untraced = harness.passes(queries, order_rng, args.seconds / 2)
    benches, benched = [], set()

    def bench_new_monoid(result: Result):
        config = result.query.config
        if tracer.monoids and config not in benched:
            tracer.active = False
            benched.add(config)
            benches.append({"config": config, **tracing.microbench(tracer.monoids[-1])})
            tracer.active = True
        tracer.monoids.clear()

    tracer.active = True
    traced = harness.passes(queries, order_rng, args.seconds / 2, after=bench_new_monoid)
    tracer.active = False
    metrics = per_layer(tracer.spans, traced, untraced, benches)
    write_trace(args, env, tracer, metrics, benches)
    for b in sorted(benches, key=lambda b: b["degree"]):
        print("# microbench " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in b.items()))
    overhead = metrics["trace.overhead_s"]["value"]
    print(f"# tracing overhead: {overhead:.4f} s, {overhead / pass_wall(untraced):+.2%} of the untraced wall_s")
    cost = tracing.span_cost_ns() * len(tracer.spans) / len(traced) / 1e9
    print(f"# span recording alone: {cost:.6f} s per pass ({len(tracer.spans) // len(traced)} spans)")
    return untraced + traced, metrics


def write_trace(args, env, tracer, metrics, benches) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "per_layer": metrics,
        "microbench_per_monoid": benches,
        "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "query", "status", "counts"],
        "spans": [
            [s.sid, s.name, s.start, s.end, s.parent, s.qid, s.status, s.counts] for s in tracer.spans
        ],
    }
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))
    print(f"# spans: {len(tracer.spans)} written to {path.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    sys.exit(main())
