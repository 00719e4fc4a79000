"""Quick self-check of the benchmark harness (about two minutes).

    python3 bench/selfcheck.py

1. ``BENCHMARK.json`` names exactly the metrics and units ``run.py`` emits.
2. Each workload runs one short pass, untraced and traced; the last line
   holds exactly the contract's keys, every answer is correct, and every
   named metric is present with its unit (end-to-end values nonzero).
3. For every command and output format, a corrupted pinned answer makes
   the harness report the query as failed, and a refusal that does not
   exit 3 is reported as failed.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from checks import check  # noqa: E402


def require(condition, detail="") -> None:
    """Fail the self-check (unlike ``assert``, also under ``python -O``)."""
    if not condition:
        raise SystemExit(f"self-check failed: {detail}")


def check_declared_metrics(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(e2e == run.E2E_UNITS, (e2e, run.E2E_UNITS))
    require(layers == {k: unit for k, (unit, _) in run.LAYERS.items()}, layers)
    require([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS))


def check_runs(spec: dict) -> None:
    for workload in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            require(proc.returncode == 0, proc.stderr)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys())
            require(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, proc.stdout)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in last["metrics"].items()}
            require(got == want, (workload, trace, got))
            for name, m in last["metrics"].items():
                require(isinstance(m["value"], (int, float)), (name, m))
                require(trace or m["value"] > 0, (workload, name, m))
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, {last['attempted']} answers")


def corrupt(expected: dict, query: wl.Query) -> dict:
    """A copy of the pinned answers with this query's answer altered."""
    bad = copy.deepcopy(expected)
    c = query.config
    if query.command == "lattice":
        bad["lattice"][c]["idempotents"][-1][3] += 1
    elif query.command == "counts":
        bad["counts"][c]["rows"][-1][4] += 1
    elif query.command == "reps":
        bad["reps"][c] += 1
    elif query.command == "classes":
        bad["classes"][f"{c}/{query.kind}"]["classes"][0][1] += 1
    else:
        bad["build"][c]["digest"] = "0" * 64
    return bad


def check_corruption_is_caught() -> None:
    from renner import cli

    expected = json.loads((BENCH / "expected.json").read_text())
    queries = [q for w in wl.WORKLOADS for q in wl.warmup(w) if not q.refuse]
    for query in queries:
        good = run.Harness(cli.main, expected).execute(query)
        require(good.error is None, (query.argv, good.error))
        bad = run.Harness(cli.main, corrupt(expected, query)).execute(query)
        require(bad.error is not None, f"corrupted answer passed: {' '.join(query.argv)}")
    refusal = wl.warmup("census")[-1]
    require(check(refusal, 0, "", expected) is not None)
    require(check(refusal, 3, "partial output\n", expected) is not None)
    require(check(refusal, 3, "", expected) is None)
    print(f"ok  corrupted answers caught on {len(queries)} queries; refusal rules hold")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declared_metrics(spec)
    print("ok  BENCHMARK.json matches the emitted metrics")
    check_corruption_is_caught()
    check_runs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
