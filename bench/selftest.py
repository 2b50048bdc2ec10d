#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json on tiny inputs for one second,
untraced and traced.  Each result line must be correct, with at least one
op, no failed op, and every metric BENCHMARK.json declares for that mode
present with its unit and a finite value.  Then checks that the benchmark
exits non-zero, printing no result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(workload, trace, cwd):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(res, declared):
    if res.returncode != 0:
        return [f"exit code {res.returncode}: {res.stderr.strip()[-500:]}"]
    result = json.loads(res.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = check_result(bench(w["name"], trace, ROOT), declared)
            problems += [f"{w['name']} trace {trace}: {p}" for p in found]
            print(f"{w['name']} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)

    bare = ROOT / ".bench_run" / f"selftest-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        res = bench(spec["workloads"][0]["name"], 0, bare)
        if res.returncode == 0 or res.stdout.strip():
            problems.append(f"bare directory: exit code {res.returncode}, stdout {res.stdout.strip()[-200:]!r}")
        print(f"bare directory refused: {'ok' if res.returncode != 0 and not res.stdout.strip() else 'FAILED'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
