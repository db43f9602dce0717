"""Smoke test of the benchmark itself, on the generator's default 500-doc world.

    python3 dreqbench/smoke.py

Runs every workload once untraced and once traced, and checks that each run
exits 0, passes its own output checks and prints every metric that
BENCHMARK.json names, with its unit. It also checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from world import BENCH_DIR, ROOT, WORKLOADS


def run_benchmark(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "dreqbench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"last line has keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"not correct: {[l for l in lines if l.startswith('problem:')][:3]}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if not isinstance(got, dict) or got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: expected unit {m['unit']!r}, got {got}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: value {got.get('value')!r} is not a number")
    extra = sorted(set(result["metrics"]) - {m["name"] for m in wanted})
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    return problems


def check_refuses_partial_checkout() -> list[str]:
    """Only BENCHMARK.json and the benchmark: a non-zero exit and no result."""
    partial = os.path.join(ROOT, ".bench_work", "smoke-partial")
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), partial)
    shutil.copytree(BENCH_DIR, os.path.join(partial, "dreqbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(partial, "s_ablate", 0)
    shutil.rmtree(partial)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"partial checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = check_result(run_benchmark(ROOT, workload, trace), wanted)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
    problems = check_refuses_partial_checkout()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses a checkout without src/")
    for p in problems:
        print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
