"""Self-test of the benchmark, run from the root of a holofading checkout:

    python3 perfbench/selftest.py

1. Every workload runs at a tiny size, untraced and traced, with no failed
   run, and reports exactly the metrics BENCHMARK.json names.
2. Every command of every workload runs with its output corrupted after
   the command (one flipped sign bit in generate's .bin, one shifted
   estimate in the CSVs); each such run must be counted as failed.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits with a nonzero code and prints no result.
Exits 0 when all hold.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

from run import bench
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def quiet_bench(*args, **kwargs) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return bench(*args, **kwargs)


def report(problems: list, problem: str | None, passed: str) -> None:
    if problem:
        problems.append(problem)
        print(f"FAIL {problem}")
    else:
        print(f"ok   {passed}")


def metric_problem(result, expected) -> str | None:
    names = set(result["metrics"])
    if names != expected:
        return f"metrics {sorted(names ^ expected)} differ from BENCHMARK.json"
    bad = [n for n, e in result["metrics"].items() if not math.isfinite(e["value"])]
    return f"non-finite metrics {bad}" if bad else None


def bare_directory_fails(root: str) -> str | None:
    bare = os.path.join(root, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "validate-fig8-kl",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"
    return None


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems: list[str] = []
    report(problems, None if {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
           else "BENCHMARK.json workloads differ from workloads.py", "workload names")

    for name in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            label = f"{name} tiny {'traced' if trace else 'untraced'}"
            result = quiet_bench(root, name, seed=0, seconds=0, trace=trace, size="tiny")
            problem = metric_problem(result, expected)
            if not result["correct"] or result["failed"]:
                problem = f"{result['failed']}/{result['attempted']} runs failed"
            report(problems, problem and f"{label}: {problem}",
                   f"{label}: {result['attempted']} runs, all metrics present")
        for command in WORKLOADS[name].commands:
            label = f"{name} corrupted {command.name} output"
            result = quiet_bench(root, name, seed=0, seconds=0, trace=False, size="tiny",
                                 corrupt=command.name)
            counted = f"{result['failed']}/{result['attempted']} runs counted as failed"
            caught = not result["correct"] and result["failed"] == result["attempted"]
            report(problems, None if caught else f"{label}: only {counted}",
                   f"{label}: {counted}")

    report(problems, bare_directory_fails(root), "bare directory: nonzero exit, no result")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
