"""The benchmark's workloads: inputs made from the seed, the CLI command
each runs, and the checks of its output.

A command is one ``holofading`` subcommand with its inputs and its output
check. A workload is one or more commands, each run in its own fresh
process, one after the other; a run of the workload is one pass over its
commands. ``why`` is the one-line rationale (the same text as in
BENCHMARK.json); ``predicts`` maps each per-layer metric that the workload
exercises to the end-to-end metric it should move there, written down
before any optimisation is measured.

Output checks are implementation checks against exact oracles, so they are
noise-bounded and independent of the paper-model budgets that make the
program exit with 1 ("validation failed"): that verdict is recorded, not
counted as a failure.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.special

# |Monte Carlo estimate - exact series ACF| must stay within K_SIGMA/sqrt(M).
K_SIGMA = 5.0
# Mean sample power must sit within this many standard errors of its
# expectation sum(sigma2 * (g+^2 + g-^2)).
POWER_SIGMAS = 6.0
# Out-of-band spectral magnitude allowed, relative to the in-band RMS.
BAND_LEAK_REL = 1e-8

BIN_MAGIC = b"HOLO"
BIN_HEADER = struct.Struct("<4s5I")
COMPLEX_BYTES = 16
FLOAT_BYTES = 8


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def _flip_sign_bit(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        raw = bytearray(fh.read(FLOAT_BYTES))
        raw[-1] ^= 0x80  # little-endian: the sign bit is in the last byte
        fh.seek(offset)
        fh.write(raw)


def _read_rows(path: str) -> list[list[float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(v) for v in row] for row in reader]


class GeneratePlane:
    name = "generate-plane256"
    sizes = {
        "full": {"side": 128, "spacing": 0.5, "realizations": 128},
        "tiny": {"side": 8, "spacing": 0.5, "realizations": 8},
    }

    @staticmethod
    def prepare(seed: int, inputs: str) -> None:
        """Tabulated directional factor: a polar grid of cosine-lobed weights
        whose lobe depths and directions come from the seed."""
        rng = np.random.default_rng(seed)
        depth = rng.uniform(0.2, 0.8, size=2)
        azimuth = rng.uniform(0.0, 2.0 * math.pi, size=2)
        radial = rng.uniform(-0.3, 0.3, size=2)
        base = 2.0 * math.pi / math.sqrt(2.0 * math.pi)  # isotropic 3D weight
        radii = np.linspace(0.0, 1.0, 17)
        angles = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
        with open(os.path.join(inputs, "factor.csv"), "w", newline="") as fh:
            fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
            for r in radii:
                for p in angles:
                    a = base * (1.0 + depth * np.cos(p - azimuth)) * (1.0 + radial * r * r)
                    fh.write(f"{float(r)!r},{float(p)!r},{float(a[0])!r},{float(a[1])!r}\n")

    @staticmethod
    def argv(params, seed, threads, inputs, out):
        side = params["side"]
        return [
            "generate", "--aperture", f"{side},{side}", "--spacing", str(params["spacing"]),
            "--format", "bin", "--factor", os.path.join(inputs, "factor.csv"),
            "--realizations", str(params["realizations"]), "--seed", str(seed),
            "--threads", str(threads), "--out", os.path.join(out, "field.bin"),
        ]

    @staticmethod
    def build_table(params, table_1d, table_2d):
        side = float(params["side"])
        return table_2d(side, side)

    @staticmethod
    def grid(params) -> int:
        return round(params["side"] / params["spacing"])

    @classmethod
    def cli_bytes(cls, params) -> int:
        n = cls.grid(params)
        return BIN_HEADER.size + params["realizations"] * n * n * COMPLEX_BYTES

    @classmethod
    def corrupt(cls, out: str, params) -> None:
        """Flip the sign bit of the largest real part in realization 0."""
        path = os.path.join(out, "field.bin")
        n = cls.grid(params)
        first = np.fromfile(path, dtype="<c16", count=n * n, offset=BIN_HEADER.size)
        worst = int(np.argmax(np.abs(first.real)))
        _flip_sign_bit(path, BIN_HEADER.size + worst * COMPLEX_BYTES)

    @classmethod
    def check(cls, hf, params, rc, inputs, out) -> dict:
        """Header, size, finite samples, band limit and mean power."""
        path = os.path.join(out, "field.bin")
        m, n = params["realizations"], cls.grid(params)
        if rc != 0:
            return {"ok": False, "detail": f"exit code {rc}"}
        size = os.path.getsize(path)
        if size != cls.cli_bytes(params):
            return {"ok": False, "detail": f"file size {size} != {cls.cli_bytes(params)}"}
        with open(path, "rb") as fh:
            header = BIN_HEADER.unpack(fh.read(BIN_HEADER.size))
        if header != (BIN_MAGIC, 1, n, n, 1, m):
            return {"ok": False, "detail": f"header {header}"}

        side = float(params["side"])
        table = hf.variances.table_2d(side, side)
        factor = hf.spectrum.SpectralFactor.from_csv(os.path.join(inputs, "factor.csv"))
        kx, ky = hf.generator.lattice_wavenumbers(table)
        gp, gm = hf.spectrum.shaping_gains(factor, kx, ky, hf.generator.KAPPA)
        power = table.sigma_sq * (gp * gp + gm * gm)  # E|H_lm|^2 at z = 0
        in_band = np.zeros((n, n), dtype=bool)
        in_band[table.ms % n, table.ls % n] = True

        samples = np.memmap(path, dtype="<c16", mode="r", offset=BIN_HEADER.size,
                            shape=(m, n, n))
        total = 0.0
        leak = 0.0
        band_rms = 0.0
        for start in range(0, m, 16):
            block = np.asarray(samples[start:start + 16])
            if not np.all(np.isfinite(block)):
                return {"ok": False, "detail": "non-finite samples"}
            total += float(np.sum(np.abs(block) ** 2))
            # undo the half-grid shift and the unnormalized IFFT: bins of the
            # zero-embedded spectrum, nonzero only on the harmonic lattice
            spec = np.fft.fft2(np.fft.ifftshift(block, axes=(-2, -1))) / (n * n)
            mag = np.abs(spec)
            leak = max(leak, float(np.max(mag[:, ~in_band])))
            band_rms = max(band_rms, float(np.sqrt(np.mean(mag[:, in_band] ** 2))))
        del samples
        mean_power = total / (m * n * n)
        expected = float(np.sum(power))
        # per-realization spatial mean power is sum |H_lm|^2 (Parseval), a sum
        # of independent exponentials with means `power`
        stderr = float(np.sqrt(np.sum(power ** 2) / m))
        dev = abs(mean_power - expected) / stderr
        ok = leak <= BAND_LEAK_REL * band_rms and dev <= POWER_SIGMAS
        return {
            "ok": ok,
            "detail": (f"mean power {mean_power:.6f} vs {expected:.6f} ({dev:.2f} stderr), "
                       f"out-of-band {leak:.3g} vs in-band rms {band_rms:.3g}"),
            "dev_stderr": dev,
            "sha256": sha256(path),
        }


def _acf_check(dev: np.ndarray, m: int) -> tuple[bool, float]:
    worst = float(np.max(np.abs(dev))) * math.sqrt(m)
    return worst <= K_SIGMA, worst


class ValidateFig8:
    name = "validate-fig8"
    sizes = {"full": {"realizations": 10_000}, "tiny": {"realizations": 200}}
    side = 16.0

    @staticmethod
    def prepare(seed: int, inputs: str) -> None:
        pass

    @staticmethod
    def argv(params, seed, threads, inputs, out):
        return [
            "validate", "--fig", "8", "--realizations", str(params["realizations"]),
            "--seed", str(seed), "--threads", str(threads), "--out", os.path.join(out, "fig8"),
        ]

    @classmethod
    def build_table(cls, params, table_1d, table_2d):
        return table_2d(cls.side, cls.side)

    @staticmethod
    def cli_bytes(params) -> int:
        return 0  # curve.csv and report.json are written by validation

    @staticmethod
    def corrupt(out: str, params) -> None:
        path = os.path.join(out, "fig8", "curve.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        fields = lines[5].split(",")
        fields[2] = repr(float(fields[2]) + 1.0)
        lines[5] = ",".join(fields)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def check(cls, hf, params, rc, inputs, out) -> dict:
        """curve.csv against the detilted, normalized exact series ACF."""
        m = params["realizations"]
        with open(os.path.join(out, "fig8", "report.json")) as fh:
            report = json.load(fh)
        if rc != (0 if report["pass"] else 1):
            return {"ok": False, "detail": f"exit code {rc} with report pass={report['pass']}"}
        rows = np.array(_read_rows(os.path.join(out, "fig8", "curve.csv")))
        lags_x = np.unique(rows[:, 0])
        lags_y = np.unique(rows[:, 1])
        if rows.shape != (len(lags_x) * len(lags_y), 4) or not np.all(np.isfinite(rows)):
            return {"ok": False, "detail": f"curve.csv shape {rows.shape}"}
        table = hf.variances.table_2d(cls.side, cls.side)
        exact = hf.generator.lattice_acf_2d(table, lags_x, lags_y)
        exact = exact / exact[0, 0].real
        tilt = np.exp(1j * np.pi * (lags_x[:, None] / cls.side + lags_y[None, :] / cls.side))
        oracle = (exact * tilt).real.ravel()  # rows are x-major, y fastest
        ok, worst = _acf_check(rows[:, 2] - oracle, m)
        return {
            "ok": ok,
            "detail": f"max |curve - exact series| = {worst:.3f}/sqrt(M)",
            "dev_stderr": worst,
            "verdict_pass": bool(report["pass"]),
            "sha256": sha256(os.path.join(out, "fig8", "curve.csv")),
        }


class CompareKlLine:
    name = "compare-kl-line"
    sizes = {"full": {"realizations": 10_000}, "tiny": {"realizations": 200}}
    side = 16.0
    spacing = 1.0 / 16.0

    @staticmethod
    def prepare(seed: int, inputs: str) -> None:
        pass

    @staticmethod
    def argv(params, seed, threads, inputs, out):
        return [
            "compare-kl", "--realizations", str(params["realizations"]), "--seed", str(seed),
            "--threads", str(threads), "--out", os.path.join(out, "kl.csv"),
        ]

    @classmethod
    def build_table(cls, params, table_1d, table_2d):
        return table_1d(cls.side)

    @classmethod
    def cli_bytes(cls, params) -> int:
        rows = round(0.25 * cls.side / cls.spacing) + 1
        return rows * 4 * FLOAT_BYTES  # four float columns per lag row

    @staticmethod
    def corrupt(out: str, params) -> None:
        path = os.path.join(out, "kl.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        fields = lines[10].split(",")
        fields[2] = repr(float(fields[2]) - 1.0)
        lines[10] = ",".join(fields)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def check(cls, hf, params, rc, inputs, out) -> dict:
        """Model column against the exact line series, KL column against J0."""
        m = params["realizations"]
        if rc not in (0, 1):
            return {"ok": False, "detail": f"exit code {rc}"}
        path = os.path.join(out, "kl.csv")
        rows = np.array(_read_rows(path))
        expect = round(0.25 * cls.side / cls.spacing) + 1
        if rows.shape != (expect, 4) or not np.all(np.isfinite(rows)):
            return {"ok": False, "detail": f"kl.csv shape {rows.shape}"}
        lags = rows[:, 0]
        exact = hf.generator.lattice_acf_1d(hf.variances.table_1d(cls.side), lags)
        exact = exact / exact[0].real
        model = (exact * np.exp(1j * np.pi * lags / cls.side)).real
        bessel = scipy.special.j0(2.0 * np.pi * lags)
        ok_model, worst_model = _acf_check(rows[:, 1] - model, m)
        ok_kl, worst_kl = _acf_check(rows[:, 2] - bessel, m)
        return {
            "ok": ok_model and ok_kl,
            "detail": (f"model vs exact series {worst_model:.3f}/sqrt(M), "
                       f"KL vs J0 {worst_kl:.3f}/sqrt(M)"),
            "dev_stderr": max(worst_model, worst_kl),
            "verdict_pass": rc == 0,
            "sha256": sha256(path),
        }


COMMANDS = {c.name: c for c in (GeneratePlane, ValidateFig8, CompareKlLine)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    predicts: dict
    commands: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        name="generate-plane256",
        why=("256x256 grid, 51,940 harmonics, tabulated directional factor: bulk draws, "
             "shaping, IFFT, cold variance table, binary write and full-batch buffers"),
        predicts={
            "variances.self_s": "setup_s",
            "variances.harmonics": "setup_s",
            "rng.self_s": "wall_s",
            "rng.draws": "wall_s",
            "rng.ns_per_draw": "wall_s",
            "spectrum.self_s": "wall_s",
            "spectrum.gain_points": "wall_s",
            "generator.self_s": "wall_s, peak_rss_mb",
            "generator.fft_points": "wall_s, peak_rss_mb",
            "generator.bytes_computed": "wall_s, peak_rss_mb",
            "cli.self_s": "wall_s, peak_rss_mb",
            "cli.bytes_written": "wall_s, peak_rss_mb",
            "validation.self_s": "none (not called)",
        },
        commands=(GeneratePlane,),
    ),
    # validate --fig 8 and compare-kl run as one workload so that a run
    # measures enough seconds of both to be steady on a small shared host.
    Workload(
        name="validate-fig8-kl",
        why=("validate --fig 8 then compare-kl, M=10^4 each: small batched calls, "
             "migration, two-worker reduction, 20,000 tiny Philox streams, dense KL baseline"),
        predicts={
            "rng.self_s": "wall_s (per-stream overhead: 20,000 streams in compare-kl)",
            "rng.streams": "wall_s",
            "rng.ns_per_draw": "wall_s",
            "generator.self_s": "wall_s, peak_rss_mb (validate --fig 8)",
            "generator.planes": "wall_s",
            "generator.bytes_computed": "wall_s, peak_rss_mb",
            "validation.self_s": "wall_s",
            "validation.chunks": "wall_s",
            "validation.pool_busy_share": "wall_s",
            "baseline.self_s": "wall_s (compare-kl only)",
            "baseline.matrix_points": "wall_s",
            "variances.self_s": "none (0.2 ms and 4 ms tables)",
            "spectrum.self_s": "none (no shaping; import time only)",
        },
        commands=(ValidateFig8, CompareKlLine),
    ),
)}
