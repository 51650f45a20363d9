"""One measured run of one command of a workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``:

    python3 perfbench/child.py --command NAME --seed N --size full|tiny
        --threads T --inputs DIR --out DIR [--trace] [--spans FILE] [--corrupt]

Phases: set-up (imports, then the cold variance table of the workload's
aperture), the CLI command through ``holofading.cli.main`` with the table
already warm, then the output check. Prints one JSON record as its last
stdout line and exits 0; the command's own exit code is in the record.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    import holofading
    import holofading.cli
    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(holofading.__file__), src]) != src:
        raise SystemExit(f"holofading imported from {holofading.__file__}, not {src}")

    from workloads import COMMANDS
    workload = COMMANDS[args.command]
    params = workload.sizes[args.size]
    table_1d, table_2d = holofading.variances.table_1d, holofading.variances.table_2d
    cli_main = holofading.cli.main
    if tracer is not None:
        tracer.install()
        table_1d, table_2d = tracer.wrapped(table_1d), tracer.wrapped(table_2d)
        cli_main = tracer.wrapped(cli_main)
    workload.build_table(params, table_1d, table_2d)
    setup_done = time.monotonic()

    argv = workload.argv(params, args.seed, args.threads, args.inputs, args.out)
    stdout, stderr = io.StringIO(), io.StringIO()
    crashed = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli_main(argv)
    except Exception:
        rc = None
        crashed = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "exit_code": rc,
        "crashed": crashed,
        "stderr": stderr.getvalue()[-2000:],
        "versions": {
            "holofading": holofading.__version__,
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        summary["counts"]["cli.bytes_written"] = workload.cli_bytes(params)
        summary["unattributed_s"] = wall - tracer.root_seconds(cli_main.__qualname__)
        record["trace"] = summary
        if args.spans:
            tracer.dump(args.spans)

    if crashed is None:
        try:
            if args.corrupt:
                workload.corrupt(args.out, params)
            record["check"] = workload.check(holofading, params, rc, args.inputs, args.out)
        except Exception:
            record["check"] = {"ok": False, "detail": traceback.format_exc()[-2000:]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
