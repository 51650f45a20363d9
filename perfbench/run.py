"""Benchmark of the holofading command line, one workload per invocation.

Run from the root of a source checkout (``src/holofading`` must exist):

    python3 perfbench/run.py --workload generate-plane256 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

A measured run is one pass over the workload's commands (workloads.py).
Each command runs in a fresh interpreter (perfbench/child.py) that imports
the package from ``src``, builds the command's variance table cold, then
runs the CLI command with the table warm, and checks the output. Runs
repeat for about ``--seconds``; timings are medians over runs.

``--trace 0`` reports the end-to-end metrics:
    wall_s       command wall time, variance table warm,
                 summed over the workload's commands             [s]
    setup_s      process start to imports done plus cold table,
                 summed over the workload's commands             [s]
    peak_rss_mb  largest peak resident set size of the commands  [MB]
``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics (see tracer.py): ``<layer>.self_s`` is the layer's import time plus
the self time of calls into it, summed over threads; counts are computed
from array sizes at the layer boundaries and must repeat exactly.

A run fails when one of its commands crashes, exits with a code other than
0 or 1, fails its output check, or writes output that differs from the other runs
of the same seed. ops_failed = failed / attempted is printed; the validation
verdict behind exit code 1 is recorded, not counted. The last stdout line is
the JSON result {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Start no run after this many seconds and kill any run still going at the
# deadline, so one invocation ends well inside three minutes.
LAST_START_S = 100.0
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
COUNTS = (
    ("variances.harmonics", "count"), ("rng.streams", "count"), ("rng.draws", "count"),
    ("spectrum.gain_points", "count"), ("generator.planes", "count"),
    ("generator.fft_points", "count"), ("generator.bytes_computed", "bytes"),
    ("validation.chunks", "count"), ("validation.workers", "count"),
    ("baseline.matrix_points", "count"), ("cli.bytes_written", "bytes"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, import failure)."""


def child_env(root: str, threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HOLO_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = str(threads)
    return env


def import_seconds(stderr: str) -> dict:
    """Per-module self import time from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[-1].strip()
        if name.startswith("holofading.") and fields[0].strip().isdigit():
            out[name.split(".", 1)[1]] = int(fields[0]) * 1e-6
    return out


class RunSeries:
    """Fresh-process runs of one workload, sharing inputs made from the seed.

    A run is one pass over the workload's commands, each in its own child
    process; its wall, set-up and CPU seconds are the sums over the
    commands, its peak RSS the largest, and it fails if any command fails.
    """

    def __init__(self, root, workload, seed, size="full", corrupt=None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = size
        self.corrupt = corrupt
        self.threads = len(os.sched_getaffinity(0))
        self.env = child_env(root, self.threads)
        self.started = time.monotonic()
        build = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(build, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=build)
        self.inputs = os.path.join(self.tmp, "inputs")
        os.makedirs(self.inputs)
        for command in workload.commands:
            command.prepare(seed, self.inputs)
        self.spans_dir = build
        self.runs: list[dict] = []

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def warm_up(self):
        """Import once untimed (byte-compiles the package, warms file caches)."""
        proc = subprocess.run(
            [sys.executable, "-c", "import holofading.cli"], env=self.env, cwd=self.root,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"cannot import holofading from src:\n{proc.stderr}")

    def run_command(self, command, traced: bool) -> dict:
        out = tempfile.mkdtemp(prefix="run-", dir=self.tmp)
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [
            os.path.join(HERE, "child.py"), "--command", command.name,
            "--seed", str(self.seed), "--size", self.size, "--threads", str(self.threads),
            "--inputs", self.inputs, "--out", out,
        ]
        if traced:
            cmd += ["--trace", "--spans",
                    os.path.join(self.spans_dir, f"{command.name}.spans.jsonl")]
        if command.name == self.corrupt:
            cmd.append("--corrupt")
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        part = {"command": command.name, "record": None, "error": None}
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            part["error"] = f"timed out after {timeout:.0f} s"
        else:
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                record = json.loads(lines[-1])
                record["setup_s"] = record["setup_done"] - t_spawn
                if traced:
                    record["import_s"] = import_seconds(proc.stderr)
                part["record"] = record
            else:
                part["error"] = f"child exit {proc.returncode}: {proc.stderr[-2000:]}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        part["failure"] = self._failure(part)
        return part

    def _failure(self, part) -> str | None:
        record = part["record"]
        if record is None:
            return part["error"]
        if record["crashed"]:
            return "crashed: " + record["crashed"][-1000:]
        if record["exit_code"] not in (0, 1):
            return f"exit code {record['exit_code']}: {record['stderr']}"
        check = record.get("check", {})
        if not check.get("ok"):
            return "output check failed: " + check.get("detail", "")
        reference = next((p["record"]["check"]["sha256"] for r in self.runs
                          if r["failure"] is None for p in r["parts"]
                          if p["command"] == part["command"]), None)
        if reference is not None and check["sha256"] != reference:
            return "output differs from an earlier run with the same seed"
        return None

    def run_once(self, traced: bool) -> dict:
        parts = []
        for command in self.workload.commands:
            parts.append(self.run_command(command, traced))
            if parts[-1]["failure"]:
                break
        run = {"traced": traced, "parts": parts, "record": None,
               "failure": next((f"{p['command']}: {p['failure']}" for p in parts
                                if p["failure"]), None)}
        records = [p["record"] for p in parts]
        if len(parts) == len(self.workload.commands) and None not in records:
            run["record"] = combine(records, traced)
        if run["failure"] is None and traced:
            counts = next((r["record"]["trace"]["counts"] for r in self.runs
                           if r["failure"] is None and r["traced"]), None)
            if counts is not None and run["record"]["trace"]["counts"] != counts:
                run["failure"] = "computed counts differ between runs (workload drift)"
        self.runs.append(run)
        return run

    def measure(self, seconds: float, trace: bool, min_runs: int) -> None:
        """Run until ``seconds`` have passed: after ``min_runs``, start a run
        only if a run of typical length would end within half a run of the
        deadline, so a measurement lasts about ``seconds`` on average."""
        start = time.monotonic()
        durations = []
        while True:
            now = time.monotonic()
            if len(durations) >= min_runs and (
                    now - start + statistics.median(durations) / 2 > seconds):
                break
            if now - self.started > LAST_START_S:
                break
            self.run_once(traced=trace and len(durations) % 2 == 1)
            durations.append(time.monotonic() - now)


def combine(records: list[dict], traced: bool) -> dict:
    """One run's figures from the records of its commands."""
    out = {
        "wall_s": sum(r["wall_s"] for r in records),
        "setup_s": sum(r["setup_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "versions": records[0]["versions"],
    }
    if traced:
        self_s, counts, import_s = {}, {}, {}
        for r in records:
            for table, summed in ((r["trace"]["self_s"], self_s),
                                  (r["trace"]["counts"], counts), (r["import_s"], import_s)):
                for key, value in table.items():
                    summed[key] = summed.get(key, 0) + value
        counts["validation.workers"] = max(r["trace"]["counts"]["validation.workers"]
                                           for r in records)
        out["import_s"] = import_s
        out["trace"] = {
            "self_s": self_s,
            "counts": counts,
            "unattributed_s": sum(r["trace"]["unattributed_s"] for r in records),
            "pool_busy_s": sum(r["trace"]["pool_busy_s"] for r in records),
            "pool_capacity_s": sum(r["trace"]["pool_capacity_s"] for r in records),
        }
    return out


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(runs) -> dict:
    records = [r["record"] for r in runs if r["record"] and not r["traced"]]
    return {name: {"value": _median([rec[name] for rec in records]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(runs) -> dict:
    plain = [r["record"] for r in runs if r["record"] and not r["traced"]]
    traced = [r["record"] for r in runs if r["record"] and r["traced"]]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            _median([t["trace"]["self_s"][layer] + t["import_s"].get(layer, 0.0)
                     for t in traced]), "s")
    counts = traced[0]["trace"]["counts"] if traced else {}
    for name, unit in COUNTS:
        metrics[name] = (counts.get(name, 0), unit)
    draws = counts.get("rng.draws", 0)
    metrics["rng.ns_per_draw"] = (
        _median([t["trace"]["self_s"]["rng"] / draws * 1e9 for t in traced])
        if draws else float("nan"), "ns")
    metrics["validation.pool_busy_share"] = (
        _median([t["trace"]["pool_busy_s"] / t["trace"]["pool_capacity_s"]
                 if t["trace"]["pool_capacity_s"] > 0 else 0.0 for t in traced]), "ratio")
    metrics["run.cpu_s"] = (_median([p["cpu_s"] for p in plain]), "s")
    traced_wall = _median([t["wall_s"] for t in traced])
    metrics["trace.overhead_s"] = (traced_wall - _median([p["wall_s"] for p in plain]), "s")
    unattributed = _median([t["trace"]["unattributed_s"] for t in traced])
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.unattributed_share"] = (unattributed / traced_wall, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_record(series: RunSeries, seconds, trace) -> dict:
    parts = [p for r in series.runs for p in r["parts"]]
    records = [r["record"] for r in series.runs if r["record"]]
    checks = {}
    for part in parts:
        if part["record"] and "check" in part["record"]:
            checks.setdefault(part["command"], []).append(part["record"]["check"])
    attempted = len(series.runs)
    failed = sum(1 for r in series.runs if r["failure"])
    return {
        "workload": series.workload.name,
        "why": series.workload.why,
        "predicts": series.workload.predicts,
        "commands": [c.name for c in series.workload.commands],
        "seed": series.seed,
        "size": series.size,
        "params": {c.name: c.sizes[series.size] for c in series.workload.commands},
        "seconds": seconds,
        "trace": trace,
        "versions": records[0]["versions"] if records else None,
        "affinity_cpus": series.threads,
        "threads": series.threads,
        "blas_threads": {var: series.env[var] for var in BLAS_VARS},
        "runs": {"untraced": sum(1 for r in series.runs if not r["traced"]),
                 "traced": sum(1 for r in series.runs if r["traced"])},
        "samples": {name: sorted(rec[name] for rec in records if "trace" not in rec)
                    for name, _ in END_TO_END},
        "ops_failed": failed / attempted if attempted else None,
        "checks": {
            name: {
                "max_dev_stderr": max((c["dev_stderr"] for c in cs if "dev_stderr" in c),
                                      default=None),
                "verdict_pass": sum(1 for c in cs if c.get("verdict_pass") is True),
                "verdict_fail": sum(1 for c in cs if c.get("verdict_pass") is False),
            }
            for name, cs in checks.items()
        },
    }


def bench(root, name, seed, seconds, trace, size="full", corrupt=None) -> dict:
    """Measure one workload; returns the result object and prints a report.

    ``corrupt`` names a command whose output is damaged before its check
    (self-test only)."""
    series = RunSeries(root, WORKLOADS[name], seed, size, corrupt)
    try:
        series.warm_up()
        series.measure(seconds, trace, min_runs=4 if trace else 3)
    finally:
        series.close()
    attempted = len(series.runs)
    failed = [r for r in series.runs if r["failure"]]
    for run in failed:
        print(f"[{name}] failed run: {run['failure']}", file=sys.stderr)
    metrics = per_layer(series.runs) if trace else end_to_end(series.runs)
    record = run_record(series, seconds, trace)
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{attempted} runs, ops_failed {len(failed)}/{attempted})")
    for metric, entry in metrics.items():
        print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"run_record": record}, sort_keys=True))
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", choices=["0", "1", "both"], default="both")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "holofading", "__init__.py")):
        print("perfbench: run from a holofading checkout (src/holofading is missing)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace == "both" else [args.trace == "1"]
    try:
        results = {(n, m): bench(root, n, args.seed, args.seconds, m)
                   for n in names for m in modes}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": v for (n, _), r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
