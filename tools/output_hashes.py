"""Print the sha256 of every reference output of the holofading CLI.

Run it before and after a change that must keep outputs bit-identical,
and compare the two listings:

    python3 tools/output_hashes.py

It runs the package under ``src/`` next to this script in fresh
interpreters, inside a temporary directory that it removes afterwards,
with one BLAS thread (``BLAS_VARS`` set to 1), so that no line depends
on the host's BLAS thread count. The eigendecomposition behind
compare-kl's baseline changes in its last bits with that count;
``baseline.kl_root`` runs it on one thread itself, and the line
``compare-kl-blas2/kl.csv``, compare-kl at M = 1200 run with two BLAS
threads, checks that: it must equal the ``compare-kl/kl.csv`` line.
Likewise ``generate-planar-factor-config.bin`` is the
``generate-planar-factor.bin`` run with every option but ``--out`` read
from a config file that this script writes; it must equal that line.
The script checks both ``PAIRS`` itself: after the listing, it exits 1
and names each pair whose lines differ.
The outputs are ``generate`` in each aperture kind and format (with a
tabulated directional factor it writes itself, also over several z-planes
on two workers, and on a 64 x 64 aperture whose tasks of 4 realizations
are each one coefficient row block, drawn in two slices; with a second
factor that is zero in both half-spaces on one azimuth sector, over the
planes z = 0 and z != 0, so that zero coefficients go through both
migrations; on a 30 x 18 plane and a 60-point line, grids that are not a
power of two, where an FFT identity that is exact on 2^k grids is not;
and on a 208 x 208 grid over the planes z = 0 and 0.5, whose 34,352
harmonics are 1.10 MB of draws a realization, over the 1 MiB budget, so
each realization is drawn and scattered into its output in slices of
``rng._SLICE`` draws; on the same grid as one plane, one draw per
harmonic, 0.55 MB a realization, within the budget but sliced the same
way; and on a 32,770-wavelength line, whose 65,540 harmonics are sliced
the same way), ``validate --fig 6/7/8`` and ``compare-kl`` at M = 1200
on two workers, ``compare-kl`` at M = 513 (one realization past whole
row blocks of the baseline noise),
the row estimate of ``lambda_half_independence`` (the lambda/2 check of
the test suite, imported from ``tests/oracles.py``), and ``variances``
tables of line and rectangular apertures.
The listing is committed next to this script as ``output_hashes.txt``,
with the numpy version it was made with on its first line, and
``tests/test_output_hashes.py`` runs this script and compares the two.
A change that announces new output bytes rewrites that file:

    (python3 -c "import numpy; print('# numpy', numpy.__version__)";
     python3 tools/output_hashes.py) > tools/output_hashes.txt

Standard library only; no options.
"""
from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
M = "1200"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (generate argv after --out, the factor CSV it takes or None)
GENERATE = {
    "generate-planar-factor.bin": (("--aperture", "16,16", "--spacing", "0.25",
                                    "--realizations", "24", "--seed", "3", "--threads", "2"),
                                   "factor.csv"),
    "generate-volumetric.bin": (("--aperture", "8,8,2", "--spacing", "0.5,0.5,0.5",
                                 "--realizations", "6", "--seed", "5"), None),
    "generate-volumetric-factor.bin": (("--aperture", "8,8,2", "--spacing", "0.5",
                                        "--realizations", "6", "--seed", "9",
                                        "--threads", "2"), "factor.csv"),
    "generate-line-factor.bin": (("--aperture", "16", "--spacing", "0.0625",
                                  "--realizations", "40", "--seed", "7", "--threads", "2"),
                                 "factor.csv"),
    "generate-planar-factor-rowblocks.bin": (("--aperture", "64,64", "--spacing", "0.5",
                                              "--realizations", "21", "--seed", "13",
                                              "--threads", "2"), "factor.csv"),
    "generate-planar.csv": (("--aperture", "4,4", "--spacing", "0.5", "--realizations", "3",
                             "--seed", "11", "--format", "csv"), None),
    "generate-planar-30x18.bin": (("--aperture", "7.5,4.5", "--spacing", "0.25",
                                   "--realizations", "5", "--seed", "17", "--threads", "2"), None),
    "generate-line-60.bin": (("--aperture", "15", "--spacing", "0.25", "--realizations", "7",
                              "--seed", "19"), None),
    "generate-volumetric-zero-sector.bin": (("--aperture", "8,8,2", "--spacing", "0.5",
                                             "--realizations", "6", "--seed", "23",
                                             "--threads", "2"), "factor-zero-sector.csv"),
    "generate-volumetric-factor-streamed.bin": (("--aperture", "104,104,1", "--spacing", "0.5",
                                                 "--realizations", "3", "--seed", "29",
                                                 "--threads", "2"), "factor.csv"),
    "generate-line-factor-streamed.bin": (("--aperture", "32770", "--spacing", "0.5",
                                           "--realizations", "2", "--seed", "31",
                                           "--threads", "2"), "factor.csv"),
    "generate-planar-factor-streamed.bin": (("--aperture", "104,104", "--spacing", "0.5",
                                             "--realizations", "3", "--seed", "37",
                                             "--threads", "2"), "factor.csv"),
}

# name -> variances argv after --out
VARIANCES = {
    "variances-16x16.csv": ("--aperture", "16,16"),
    "variances-7.5x3.25.csv": ("--aperture", "7.5,3.25"),
    "variances-16.csv": ("--aperture", "16"),
}

# lines that must be equal: (a rerun, the line it reruns)
PAIRS = (
    ("generate-planar-factor-config.bin", "generate-planar-factor.bin"),
    ("compare-kl-blas2/kl.csv", "compare-kl/kl.csv"),
)

LAMBDA_HALF = (
    "import sys\n"
    f"sys.path.insert(0, {os.path.join(ROOT, 'tests')!r})\n"
    "from oracles import lambda_half_independence\n"
    f"row, _ = lambda_half_independence(m={M}, threads=2)\n"
    "open(sys.argv[1], 'wb').write(row.tobytes())\n"
)


def write_factor(path: str, zero_sector: range = range(0)) -> None:
    """Tabulated directional factor: cosine lobes of different depth and
    direction in the two half-spaces, and a_plus = a_minus = 0 at the
    azimuths of ``zero_sector`` (indices of the 12 azimuths)."""
    base = 2 * math.pi / math.sqrt(2 * math.pi)
    with open(path, "w") as fh:
        fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
        for i in range(5):
            for j in range(12):
                p = 2 * math.pi * j / 12
                on = j not in zero_sector
                fh.write(f"{i / 4},{p},{on * base * (1 + 0.6 * math.cos(p - 1.0))},"
                         f"{on * base * (1 + 0.3 * math.cos(p + 2.0)) * (1 + 0.2 * i / 4)}\n")


def run(*argv: str, blas_threads: str = "1") -> int:
    """Run ``python argv`` against the package in SRC on ``blas_threads``
    BLAS threads; exit code 0 or 1."""
    env = dict(os.environ, PYTHONPATH=SRC, **{name: blas_threads for name in BLAS_VARS})
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.returncode


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_factor(os.path.join(tmp, "factor.csv"))
        write_factor(os.path.join(tmp, "factor-zero-sector.csv"), zero_sector=range(3, 6))
        outputs = []
        for name, (argv, factor) in GENERATE.items():
            out = os.path.join(tmp, name)
            extra = ("--factor", os.path.join(tmp, factor)) if factor else ()
            run("-m", "holofading.cli", "generate", "--out", out, *argv, *extra)
            outputs.append((name, out))
        argv, factor = GENERATE["generate-planar-factor.bin"]
        options = {**dict(zip(argv[::2], argv[1::2])), "--factor": os.path.join(tmp, factor)}
        config = os.path.join(tmp, "planar-factor.cfg")
        with open(config, "w") as fh:
            fh.writelines(f"{flag[2:]}={value}\n" for flag, value in options.items())
        out = os.path.join(tmp, "generate-planar-factor-config.bin")
        run("-m", "holofading.cli", "generate", "--config", config, "--out", out)
        outputs.append(("generate-planar-factor-config.bin", out))
        for fig in (6, 7, 8):
            out = os.path.join(tmp, f"fig{fig}")
            run("-m", "holofading.cli", "validate", "--fig", str(fig), "--realizations", M,
                "--threads", "2", "--out", out)
            outputs += [(f"validate-fig{fig}/{f}", os.path.join(out, f))
                        for f in ("curve.csv", "report.json")]
        for m, name in ((M, "compare-kl"), ("513", "compare-kl-513")):
            out = os.path.join(tmp, f"{name}.csv")
            run("-m", "holofading.cli", "compare-kl", "--realizations", m, "--threads", "2",
                "--out", out)
            outputs.append((f"{name}/kl.csv", out))
        out = os.path.join(tmp, "compare-kl-blas2.csv")
        run("-m", "holofading.cli", "compare-kl", "--realizations", M, "--threads", "2",
            "--out", out, blas_threads="2")
        outputs.append(("compare-kl-blas2/kl.csv", out))
        out = os.path.join(tmp, "lambda_half_row.bin")
        run("-c", LAMBDA_HALF, out)
        outputs.append(("lambda_half_independence/row", out))
        for name, argv in VARIANCES.items():
            out = os.path.join(tmp, name)
            run("-m", "holofading.cli", "variances", "--out", out, *argv)
            outputs.append((name, out))
        digests = {name: sha256(path) for name, path in outputs}
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    unequal = [f"{a} != {b}" for a, b in PAIRS if digests[a] != digests[b]]
    if unequal:
        sys.exit(f"lines that must be equal differ: {'; '.join(unequal)}")


if __name__ == "__main__":
    main()
