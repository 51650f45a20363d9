"""Command-line entry point.

Subcommands:

    generate    write fading realizations to CSV or binary
    variances   emit the per-harmonic variance table as CSV
    validate    reproduce a reference validation run (figures 6/7/8)
    compare-kl  series generator vs dense correlated-Gaussian baseline
    bench       criterion 10's fixed sweep: series vs dense baseline scaling

All lengths on the interface are in wavelengths; the wavelength itself is
never a flag. argparse converts and checks every flag, and a flag must
name its option in full. A flat key=value config file (``--config``) is
read as flags: each line ``key=value`` becomes ``--key=value`` right after
the subcommand name, so a key is a flag name of that subcommand, a file
value gets the same checks as a flag, and an explicit flag wins.
``--threads`` caps the worker threads of generate, validate and
compare-kl (default: the CPUs this process may run on). Exit codes:
0 all checks passed, 1 a validation failed (machine-readable failure list
on stderr), 2 bad configuration, an unreadable/unwritable path or an
aperture too large for the host's memory (JSON failure on stderr, never
a traceback).
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import threading
import time

import numpy as np

from . import __version__
from .errors import ConfigError, HoloFadingError
from .generator import Aperture, block_rows, generate_batch_planes, run_constants
from .spectrum import SpectralFactor
from .validation import _thread_count, check_realizations, compare_kl, ordered_map, run_figure
from .variances import table_1d, table_2d

BIN_MAGIC = b"HOLO"
BIN_VERSION = 1


def _parse_lengths(text: str, name: str, max_parts: int = 3) -> list[float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"--{name}: expected comma-separated numbers, got {text!r}")
    if not 1 <= len(parts) <= max_parts:
        raise ConfigError(f"--{name}: expected 1 to {max_parts} values, got {len(parts)}")
    if not all(math.isfinite(p) and p > 0.0 for p in parts):
        raise ConfigError(f"--{name}: every value must be finite and positive, got {text!r}")
    return parts


def build_aperture(aperture_spec: str, spacing_spec: str) -> Aperture:
    sides = _parse_lengths(aperture_spec, "aperture")
    spacings = _parse_lengths(spacing_spec, "spacing")
    if len(spacings) == 1:
        spacings = spacings * len(sides)
    if len(spacings) != len(sides):
        raise ConfigError("--spacing must have one value or one per aperture side")
    kwargs = dict(lx=sides[0], dx=spacings[0])
    if len(sides) >= 2:
        kwargs.update(ly=sides[1], dy=spacings[1])
    if len(sides) == 3:
        kwargs.update(lz=sides[2], dz=spacings[2])
    try:
        return Aperture(**kwargs)
    except (ValueError, HoloFadingError) as exc:
        raise ConfigError(str(exc))


def load_factor(spec: str) -> SpectralFactor | None:
    if spec == "isotropic":
        return None  # generator picks the isotropic kind native to the aperture
    if not os.path.exists(spec):
        raise ConfigError(f"--factor: {spec!r} is neither 'isotropic' nor an existing CSV file")
    try:
        return SpectralFactor.from_csv(spec)
    except ValueError as exc:
        raise ConfigError(f"--factor {spec}: {exc}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def read_config_file(path: str) -> list[tuple[str, str]]:
    """The (key, value) pairs of a key=value file, in file order. A line
    whose first non-blank character is # is a comment; any other # is part
    of its value (an --out path may hold one)."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid UTF-8: {exc}") from None
    out = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":  # read as --config=..., which would be parsed but never read
            raise ConfigError(f"{path}:{lineno}: a config file cannot name another config file")
        out.append((key, value))
    return out


def _count(text: str) -> int:
    """argparse type of --realizations and --threads: an int of at least 1
    (a thread cap below 1 is a mistake, not a request for every CPU)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: an int in [0, 2**64), the Philox key's
    range (a seed outside it would alias the one it wraps to)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a usage error (an unknown or abbreviated flag,
    a flag without its value, a value that fails its type or choices), so
    it exits 2 with JSON; subcommand parsers inherit it. Each is made with
    allow_abbrev=False: a flag must name its option in full, as a config
    key must."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


_THREADS_HELP = "worker thread cap, at least 1 (default: the CPUs this process may use)"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holofading",
        description="Fourier plane-wave synthesis of spatially-stationary fading",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, handler):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="key=value config file of this command's flags")
        return p

    g = command("generate", "write fading realizations", cmd_generate)
    g.add_argument("--aperture", required=True, help="side lengths Lx[,Ly[,Lz]] in wavelengths")
    g.add_argument("--spacing", required=True, help="grid spacings dx[,dy[,dz]] in wavelengths")
    g.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    g.add_argument("--realizations", type=_count, default=1, help="number of realizations M")
    g.add_argument("--factor", default="isotropic", help="'isotropic' or a tabulated-factor CSV")
    g.add_argument("--out", required=True, help="output path")
    g.add_argument("--format", choices=("csv", "bin"), default="bin", help="output format")
    g.add_argument("--threads", type=_count, help=_THREADS_HELP)

    v = command("variances", "emit the variance table", cmd_variances)
    v.add_argument("--aperture", required=True, help="side lengths Lx[,Ly] in wavelengths")
    v.add_argument("--out", help="output CSV path (default stdout)")

    va = command("validate", "reproduce a reference validation run", cmd_validate)
    va.add_argument("--fig", type=int, choices=(6, 7, 8), required=True, help="figure")
    va.add_argument("--realizations", type=_count, default=10_000,
                    help="Monte Carlo realizations M")
    va.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    va.add_argument("--out", help="directory for curve.csv and report.json")
    va.add_argument("--threads", type=_count, help=_THREADS_HELP)

    ck = command("compare-kl", "series generator vs dense baseline", cmd_compare_kl)
    ck.add_argument("--realizations", type=_count, default=10_000,
                    help="Monte Carlo realizations M")
    ck.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    ck.add_argument("--out", help="output CSV path")
    ck.add_argument("--threads", type=_count, help=_THREADS_HELP)

    b = command("bench", "synthesis/baseline timing sweep", cmd_bench)
    b.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    b.add_argument("--out", help="JSON report path")

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _bin_writer(fh, aperture, m):
    """Write the binary header to ``fh`` and return ``write(start, block)``,
    which writes a (B, nz, ny, nx) block of realizations start ..
    start + B - 1 at their place in the file. Blocks may come in any order
    and from any thread: one lock covers each seek and its write."""
    header = BIN_MAGIC + np.array(
        [BIN_VERSION, aperture.nx, aperture.ny, aperture.nz, m], dtype="<u4"
    ).tobytes()
    fh.write(header)
    per_realization = aperture.nx * aperture.ny * aperture.nz * np.dtype("<c16").itemsize
    lock = threading.Lock()

    def write(start, block):
        data = np.ascontiguousarray(block, dtype="<c16").data
        with lock:
            fh.seek(len(header) + start * per_realization)
            fh.write(data)

    return write


def _write_rows(fh, header: str, rows) -> None:
    """Write a CSV header line, then one line per row of values, each the
    repr of a Python int or float."""
    fh.write(header + "\n")
    fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _field_rows(batches):
    """(realization, z, y, x, re, im) rows of (B, nz, ny, nx) blocks of
    realizations 0, 1, ..., in order."""
    for r, real in enumerate(itertools.chain.from_iterable(batches)):
        for iz, plane in enumerate(real.tolist()):
            for iy, line in enumerate(plane):
                for ix, v in enumerate(line):
                    yield r, iz, iy, ix, v.real, v.imag


def write_figure_artifacts(report, out_dir: str) -> None:
    """curve.csv and report.json of a figure run into an existing out_dir."""
    if report.lags_y is None:
        header, lags = "lag_over_lambda,empirical,closed_form", [report.lags_x]
    else:
        header = "lag_over_lambda,lag_y_over_lambda,empirical,closed_form"
        lags = np.meshgrid(report.lags_x, report.lags_y, indexing="ij")
    columns = [*lags, report.empirical, report.closed_form]
    with open(os.path.join(out_dir, "curve.csv"), "w", newline="") as fh:
        _write_rows(fh, header, zip(*(c.ravel().tolist() for c in columns)))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field_batches(aperture, factor, seed, m, threads, write=None):
    """(B, nz, ny, nx) blocks of realizations 0 .. m - 1, in order,
    synthesized on ``threads`` workers; with ``write``, each worker calls
    ``write(start, block)`` on each block it made, for realizations
    start .. start + B - 1, and None is yielded in its place. Each task is
    ``block_rows`` realizations of output, as many as fit
    ``generator.SUB_BLOCK_BYTES`` (at least one; one on a 256 x 256 grid)
    whatever the worker count, and T + 1 tasks are queued on the T
    workers. Each block is the one ``generate_batch_planes`` synthesizes
    into, so it is never copied. With ``write`` a block lives only on its
    worker; without, the caller and the queue hold about T + 2 blocks.
    The caller computes the run's ``generator.run_constants`` first, so
    that the workers share one record."""
    z_planes = aperture.z_planes()
    per_realization = aperture.nx * aperture.ny * aperture.nz * np.dtype(complex).itemsize
    batch = block_rows(per_realization)

    def run_chunk(start):
        reals = range(start, min(start + batch, m))
        block = generate_batch_planes(aperture, factor, seed, reals, z_planes).swapaxes(0, 1)
        if write is None:
            return block
        write(start, block)

    return ordered_map(run_chunk, range(0, m, batch), threads)


def cmd_generate(args) -> int:
    aperture = build_aperture(args.aperture, args.spacing)
    factor = load_factor(args.factor)
    m = args.realizations
    if args.format == "bin" and m >= 1 << 32:
        raise ConfigError(f"--realizations {m} does not fit the uint32 count of the binary header")
    threads = _thread_count(args.threads)
    try:  # a side the variance table rejects (a line of 7.5 wavelengths) fails before --out opens
        run_constants(aperture, factor, aperture.z_planes())  # before the workers share it
    except ValueError as exc:
        raise ConfigError(str(exc))
    if args.format == "bin":  # each worker writes the blocks it made
        with open(args.out, "wb") as fh:
            if not fh.seekable():
                raise ConfigError(
                    f"--out {args.out}: --format bin writes each block at its offset, "
                    "so it needs a file it can seek, not a pipe or terminal"
                )
            write = _bin_writer(fh, aperture, m)
            for _ in _field_batches(aperture, factor, args.seed, m, threads, write):
                pass
    else:  # rows are numbered in order, so one writer takes the blocks in order
        with open(args.out, "w", newline="") as fh:
            batches = _field_batches(aperture, factor, args.seed, m, threads)
            _write_rows(fh, "realization,z_index,y_index,x_index,re,im", _field_rows(batches))
    print(f"wrote {m} realization(s) of a {aperture.kind} aperture to {args.out}")
    return 0


def cmd_variances(args) -> int:
    sides = _parse_lengths(args.aperture, "aperture", max_parts=2)
    try:
        if len(sides) == 1:
            table = table_1d(sides[0])
            ms = [0] * len(table.ls)
        else:
            table = table_2d(sides[0], sides[1])
            ms = table.ms.tolist()
    except ValueError as exc:
        raise ConfigError(str(exc))
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        _write_rows(fh, "l,m,sigma_sq", zip(table.ls.tolist(), ms, table.sigma_sq.tolist()))
        fh.write(f"# total_power={table.total_power()!r}\n")
    return 0


def cmd_validate(args) -> int:
    check_realizations(args.realizations)  # before --out is touched
    threads = _thread_count(args.threads)
    if args.out:
        os.makedirs(args.out, exist_ok=True)  # a bad --out fails before the run
    report = run_figure(args.fig, m=args.realizations, seed=args.seed, threads=threads)
    if args.out:
        write_figure_artifacts(report, args.out)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"fig {report.fig}: rmse={report.rmse:.5f} max_abs_dev={report.max_abs_dev:.5f} "
        f"M={report.m} seed={report.seed} -> {status}"
    )
    if report.z_consistency_max is not None:
        print(f"fig {report.fig}: z-plane consistency max dev = {report.z_consistency_max:.5f}")
    if not report.passed:
        _fail([{"check": f"fig{report.fig}", **report.to_json_dict()}])
        return 1
    return 0


def cmd_compare_kl(args) -> int:
    check_realizations(args.realizations)  # before --out is touched
    threads = _thread_count(args.threads)
    # a bad --out fails before the run
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext() as fh:
        result = compare_kl(m=args.realizations, seed=args.seed, threads=threads)
        fig = result.figure
        if fh is not None:
            columns = (fig.lags_x, fig.empirical, result.kl_estimate, fig.closed_form)
            _write_rows(fh, "lag_over_lambda,model_estimate,kl_estimate,closed_form",
                        zip(*(c.tolist() for c in columns)))
    print(
        f"compare-kl: entrywise_max={result.entrywise_max:.5f} "
        f"model rmse={fig.rmse:.5f} kl rmse={result.kl_report.rmse:.5f} "
        f"M={fig.m} -> {'PASS' if result.passed else 'FAIL'}"
    )
    if not result.passed:
        _fail([{
            "check": "compare-kl",
            "entrywise_max": result.entrywise_max,
            "model_rmse": fig.rmse,
            "model_max_abs_dev": fig.max_abs_dev,
            "kl_rmse": result.kl_report.rmse,
            "kl_max_abs_dev": result.kl_report.max_abs_dev,
        }])
        return 1
    return 0


def fit_power_law(sizes, times) -> tuple[float, float]:
    """Least-squares slope of log(time) against log(size), and the RMS
    residual of that line in natural-log units of time: how far the
    timings sit from a power law."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(times, dtype=float))
    line = np.polyfit(x, y, 1)
    return float(line[0]), float(np.sqrt(np.mean(np.square(y - np.polyval(line, x)))))


# timed work per bench size, series or dense baseline: a best-of over many
# calls, so that fixed per-call cost and noise do not dominate the smallest
# size's point; a size slower than this is timed once
SERIES_MIN_TIMED_S = 0.2
# bench's one sweep: square grid sides of the series (SERIES_PER_SIZE
# realizations each) and the dense baseline's line point counts
SERIES_SIDES = (64, 128, 256, 512)
SERIES_PER_SIZE = 8
BASELINE_POINTS = (512, 1024, 2048, 4096)


def _best_time(fn, repeats=3) -> float:
    """Best wall time of at least ``repeats`` timed calls of ``fn``, calling
    it again until the timed calls add up to ``SERIES_MIN_TIMED_S``."""
    best, total, calls = math.inf, 0.0, 0
    while calls < repeats or total < SERIES_MIN_TIMED_S:
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best, total, calls = min(best, elapsed), total + elapsed, calls + 1
    return best


def bench_series(seed: int = 0) -> tuple[list[int], list[float]]:
    """Per-realization synthesis wall time on the ``SERIES_SIDES`` grids.

    Each size runs once outside the timed region, which builds its variance
    table and run constants; the timing covers the per-realization pipeline
    (draws, migration, IFFT), best of as many calls as fill
    ``SERIES_MIN_TIMED_S``.
    """
    points, times = [], []
    for n in SERIES_SIDES:
        aperture = Aperture(lx=n / 2.0, dx=0.5, ly=n / 2.0, dy=0.5)

        def run():
            generate_batch_planes(aperture, None, seed, range(SERIES_PER_SIZE), (0.0,))

        run()  # first-call costs of this size stay out of the timing
        points.append(n * n)
        times.append(_best_time(run) / SERIES_PER_SIZE)
    return points, times


def bench_baseline(seed: int = 0) -> tuple[list[int], list[float]]:
    """Dense-baseline wall time (matrix build + eigendecomposition + draws)
    over the ``BASELINE_POINTS`` line point counts, best of as many calls
    as fill ``SERIES_MIN_TIMED_S`` (one call for a size slower than that).
    A 64-point run first pays J0's scipy import and the first
    eigendecomposition outside the timed region."""
    from .baseline import AcfClosedForm, correlation_matrix, kl_sample

    acf = AcfClosedForm("bessel-2d")
    kl_sample(correlation_matrix(Aperture(lx=4.0, dx=1.0 / 16.0), acf), seed, 4)
    times = []
    for n in BASELINE_POINTS:
        aperture = Aperture(lx=n / 16.0, dx=1.0 / 16.0)

        def run_kl():
            kl_sample(correlation_matrix(aperture, acf), seed, 4)

        times.append(_best_time(run_kl, repeats=1))
    return list(BASELINE_POINTS), times


def cmd_bench(args) -> int:
    # a bad --out fails before the sweep
    with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
        gen_points, gen_times = bench_series(seed=args.seed)
        rows = []
        for n, p, t in zip(SERIES_SIDES, gen_points, gen_times):
            rows.append(("series", p, t))
            print(f"series  {n:4d} x {n:<4d} ({p:7d} pts): {t * 1e3:9.3f} ms/realization")

        kl_sizes, kl_times = bench_baseline(seed=args.seed)
        for n, t in zip(kl_sizes, kl_times):
            rows.append(("baseline", n, t))
            print(f"baseline 1D N={n:5d}: {t:9.3f} s (matrix + eigendecomposition + draws)")

        gen_exp, gen_res = fit_power_law(gen_points, gen_times)
        kl_exp, kl_res = fit_power_law(kl_sizes, kl_times)
        gen_ok = 0.9 <= gen_exp <= 1.3
        kl_ok = kl_exp > 1.8
        print(f"series synthesis exponent (time vs points): {gen_exp:.3f} "
              f"(rms log residual {gen_res:.3f}; want [0.9, 1.3])")
        print(f"dense baseline exponent  (time vs points): {kl_exp:.3f} "
              f"(rms log residual {kl_res:.3f}; want > 1.8)")

        if fh is not None:
            json.dump(
                {
                    "rows": [{"kind": k, "points": p, "seconds": t} for k, p, t in rows],
                    "series_exponent": gen_exp,
                    "baseline_exponent": kl_exp,
                    "series_residual": gen_res,
                    "baseline_residual": kl_res,
                    "pass": gen_ok and kl_ok,
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
    if not (gen_ok and kl_ok):
        _fail([{
            "check": "bench",
            "series_exponent": gen_exp,
            "baseline_exponent": kl_exp,
        }])
        return 1
    return 0


def _fail(failures: list[dict]) -> None:
    json.dump({"failures": failures}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def parse_config(argv=None) -> argparse.Namespace:
    """Parse the command line, with each key=value line of its --config
    file read as --key=value right after the subcommand name: file values
    get the checks of flags, and an explicit flag, parsed later, wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    config = _Parser(prog="holofading", add_help=False, allow_abbrev=False)
    config.add_argument("--config")
    path = config.parse_known_args(argv)[0].config
    if path is not None:
        argv[1:1] = [f"--{key}={value}" for key, value in read_config_file(path)]
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_config(argv)
        return args.handler(args)
    except ConfigError as exc:
        _fail([{"check": "config", "detail": str(exc)}])
        return 2
    except HoloFadingError as exc:
        _fail([{"check": type(exc).__name__, "detail": str(exc)}])
        return 2
    except OSError as exc:
        _fail([{"check": "io", "detail": str(exc)}])
        return 2
    except MemoryError as exc:  # an aperture whose variance table the host cannot hold
        _fail([{"check": "memory", "detail": str(exc)}])
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
