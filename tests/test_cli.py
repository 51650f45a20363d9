import json
import math
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

from holofading import ConfigError, SpectralFactor, generate
from holofading.cli import build_aperture, main
from holofading.generator import Aperture
from holofading.variances import table_1d, table_2d
from oracles import synthesize


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApertureParsing:
    def test_planar(self):
        ap = build_aperture("16,16", "0.25,0.25")
        assert ap == Aperture(lx=16, dx=0.25, ly=16, dy=0.25)

    def test_volumetric(self):
        ap = build_aperture("16,16,2", "0.5")
        assert ap.kind == "volumetric" and ap.nz == 4

    def test_single_spacing_broadcast(self):
        ap = build_aperture("16,8", "0.5")
        assert ap.dy == 0.5 and ap.ny == 16

    def test_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            build_aperture("16", "0.6")

    def test_bad_numbers(self):
        with pytest.raises(ConfigError):
            build_aperture("16,x", "0.5")

    def test_too_many_sides(self):
        with pytest.raises(ConfigError):
            build_aperture("1,2,3,4", "0.5")

    @pytest.mark.parametrize("sides, spacings", [
        ("16,,1", "0.5"), (",16", "0.5"), ("16,", "0.5"), ("16,16", "0.5,"), ("16,16", ""),
    ])
    def test_empty_field_rejected(self, sides, spacings):
        # "16,,1" is not the 16 x 1 plane that dropping the empty field made
        with pytest.raises(ConfigError, match="comma-separated numbers"):
            build_aperture(sides, spacings)


def _polar_rows(nr, nphi, weight):
    """Factor CSV rows of an nr x nphi polar grid: a_plus = 1 and a_minus =
    weight(i, j) at radius i and azimuth j."""
    return "".join(f"{i / (nr - 1)},{2 * math.pi * j / nphi},1.0,{weight(i, j)}\n"
                   for i in range(nr) for j in range(nphi))


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("aperture=8\nspacing=0.5\nseed=3\nformat=csv\n")
        out1 = tmp_path / "a.csv"
        code, _, _ = run_cli(
            capsys, "generate", "--config", str(cfg), "--out", str(out1)
        )
        assert code == 0
        out2 = tmp_path / "b.csv"
        code, _, _ = run_cli(
            capsys, "generate", "--config", str(cfg), "--out", str(out2), "--seed", "4"
        )
        assert code == 0
        assert out1.read_text() != out2.read_text()  # flag overrode the file seed

    def test_hash_inside_a_value_is_kept(self, tmp_path, capsys):
        # only a line that starts with # is a comment; a # inside a value
        # is part of it, so the output lands at the path with the #
        out = tmp_path / "run#2" / "f.bin"
        out.parent.mkdir()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\n  # an indented comment\naperture=4\nspacing=0.5\n"
                       f"out={out}\n")
        code, stdout, _ = run_cli(capsys, "generate", "--config", str(cfg))
        assert code == 0 and str(out) in stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run#2", "run.cfg"]
        assert len(out.read_bytes()) == 24 + 8 * 16

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("aperture=8\nspacing=0.5\nbogus_key=1\n")
        code, _, err = run_cli(
            capsys, "generate", "--config", str(cfg), "--out", str(tmp_path / "x.bin")
        )
        assert code == 2
        failures = json.loads(err)["failures"]
        assert "bogus_key" in failures[0]["detail"]

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1\n\xff=2\n")
        code, _, err = run_cli(capsys, "variances", "--aperture", "4", "--config", str(cfg))
        assert code == 2
        failure = json.loads(err)["failures"][0]
        assert failure["check"] == "config" and "UTF-8" in failure["detail"]

    @pytest.mark.parametrize("rows", [
        "0,0,1,1\n0,3,1\n1,0,1,1\n1,3,1,1\n",  # a row without a_minus
        "0,0,1,1\n0,0,1,1\n1,0,1,1\n1,3,1,1\n",  # (0, 0) twice, (0, 3) never
        "0,0,1,1\n0,7,5,1\n1,0,1,1\n1,7,5,1\n",  # azimuth 7 rad, past 2 pi
        # nodes that the load probe's 64 azimuths miss on a grid of 256
        _polar_rows(5, 256, lambda i, j: math.nan if (i, j) == (3, 2) else 1.0),
        _polar_rows(5, 256, lambda i, j: -5.0 if (i, j) == (3, 2) else 1.0),
        # a finite weight whose square, the power density, overflows to inf
        _polar_rows(3, 4, lambda i, j: 1e160),
    ], ids=["missing-column", "repeated-point", "azimuth-out-of-range",
            "nan-between-probe-points", "negative-between-probe-points", "square-overflows"])
    def test_malformed_factor_csv_is_config_error(self, rows, tmp_path, capsys):
        factor = tmp_path / "factor.csv"
        factor.write_text("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n" + rows)
        out = tmp_path / "x.bin"
        code, _, err = run_cli(capsys, "generate", "--aperture", "4", "--spacing", "0.5",
                               "--factor", str(factor), "--out", str(out))
        assert code == 2
        assert json.loads(err)["failures"][0]["check"] == "config"
        assert not out.exists()

    def test_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--aperture", "8")
        assert code == 2
        assert "spacing" in json.loads(err)["failures"][0]["detail"]

    def test_nyquist_error_is_machine_readable(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "generate", "--aperture", "8", "--spacing", "0.6",
            "--out", str(tmp_path / "x.bin"),
        )
        assert code == 2
        assert "Nyquist" in json.loads(err)["failures"][0]["detail"]


class TestGenerateOutputs:
    @pytest.mark.parametrize("sides, spacing, ap, nz", [
        ("8,8", "0.5,0.5", Aperture(lx=8, dx=0.5, ly=8, dy=0.5), 1),
        ("8,8,2", "0.5,0.5,0.5", Aperture(lx=8, dx=0.5, ly=8, dy=0.5, lz=2, dz=0.5), 4),
    ], ids=["planar", "volumetric"])
    def test_binary_layout_roundtrip(self, tmp_path, capsys, sides, spacing, ap, nz):
        out = tmp_path / "f.bin"
        code, _, _ = run_cli(
            capsys, "generate", "--aperture", sides, "--spacing", spacing,
            "--seed", "7", "--realizations", "3", "--out", str(out),
        )
        assert code == 0
        blob = out.read_bytes()
        magic, version, nx, ny, nz_read, m = struct.unpack("<4s5I", blob[:24])
        assert magic == b"HOLO" and version == 1
        assert (nx, ny, nz_read, m) == (16, 16, nz, 3)
        data = np.frombuffer(blob[24:], dtype="<c16").reshape(m, nz, ny, nx)
        for r in range(3):
            want = generate(ap, seed=7, realization=r).samples
            assert np.array_equal(data[r], want)

    def test_csv_layout(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code, _, _ = run_cli(
            capsys, "generate", "--aperture", "4", "--spacing", "0.5",
            "--realizations", "2", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "realization,z_index,y_index,x_index,re,im"
        assert len(lines) == 1 + 2 * 8
        first = lines[1].split(",")
        assert first[:4] == ["0", "0", "0", "0"]
        ap = Aperture(lx=4, dx=0.5)
        want = generate(ap, seed=0).samples[0, 0, 0]
        assert float(first[4]) == want.real and float(first[5]) == want.imag

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ("generate", "--aperture", "8,8", "--spacing", "0.5",
                "--seed", "11", "--realizations", "2")
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_format(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--aperture", "8", "--spacing", "0.5",
            "--out", str(tmp_path / "x"), "--format", "hdf5",
        )
        assert code == 2

    def test_tabulated_factor_end_to_end(self, tmp_path, capsys):
        import math

        # constant weight equal to the isotropic one: same field up to
        # the float gain multiply
        a = 2 * math.pi / math.sqrt(2 * math.pi)
        csv = tmp_path / "factor.csv"
        with open(csv, "w") as fh:
            fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
            for i in range(5):
                for j in range(8):
                    fh.write(f"{i / 4},{2 * math.pi * j / 8},{a},{a}\n")
        out = tmp_path / "f.bin"
        code, _, _ = run_cli(
            capsys, "generate", "--aperture", "8,8", "--spacing", "0.5",
            "--seed", "2", "--factor", str(csv), "--out", str(out),
        )
        assert code == 0
        data = np.frombuffer(out.read_bytes()[24:], dtype="<c16").reshape(1, 1, 16, 16)
        want = generate(Aperture(lx=8, dx=0.5, ly=8, dy=0.5), seed=2).samples
        assert np.allclose(data[0], want, rtol=1e-12)

    def test_missing_factor_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--aperture", "8", "--spacing", "0.5",
            "--factor", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.bin"),
        )
        assert code == 2
        assert "factor" in json.loads(err)["failures"][0]["detail"]


class TestVariancesCommand:
    def test_help_lists_only_aperture_out_and_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["variances", "--help"])
        assert exc.value.code == 0
        words = capsys.readouterr().out.split()
        flags = {w.strip("[],") for w in words if w.startswith(("--", "[--"))}
        assert flags == {"--help", "--config", "--aperture", "--out"}

    def test_1d_csv(self, capsys):
        code, out, _ = run_cli(capsys, "variances", "--aperture", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l,m,sigma_sq"
        table = table_1d(4.0)
        assert len(lines) == 1 + len(table.ls) + 1
        l0, m0, s0 = lines[1].split(",")
        assert (int(l0), int(m0)) == (-4, 0)
        assert float(s0) == table.sigma_sq[0]
        assert lines[-1] == f"# total_power={table.total_power()!r}"

    def test_2d_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "var.csv"
        code, _, _ = run_cli(capsys, "variances", "--aperture", "4,4", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        t = table_2d(4.0, 4.0)
        assert len(lines) == 1 + len(t.ls) + 1
        assert lines[-1].startswith("# total_power=")

    def test_non_integer_1d_rejected(self, capsys):
        code, _, err = run_cli(capsys, "variances", "--aperture", "4.5")
        assert code == 2
        assert "integer" in json.loads(err)["failures"][0]["detail"]

    def test_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "variances", "--aperture", "8,8", "--out", str(a))
        run_cli(capsys, "variances", "--aperture", "8,8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestValidateCommand:
    def test_small_run_writes_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--fig", "6", "--realizations", "300",
            "--seed", "2", "--out", str(tmp_path),
        )
        assert (tmp_path / "curve.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert "fig 6" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] == (code == 0)

    def test_bad_figure(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--fig", "9")
        assert code == 2

    def test_failure_exit_and_report(self, capsys, monkeypatch, tmp_path):
        import holofading.cli as climod

        class FakeReport:
            fig = 6
            m = 100
            seed = 0
            rmse = 0.5
            max_abs_dev = 0.9
            passed = False
            z_consistency_max = None

            def to_json_dict(self):
                return {"fig": 6, "pass": False, "rmse": 0.5}

        monkeypatch.setattr(climod, "run_figure", lambda *a, **k: FakeReport())
        code, out, err = run_cli(capsys, "validate", "--fig", "6")
        assert code == 1
        assert "FAIL" in out
        failures = json.loads(err)["failures"]
        assert failures[0]["check"] == "fig6"

    def test_validate_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            run_cli(capsys, "validate", "--fig", "6", "--realizations", "200",
                    "--seed", "3", "--out", str(d), "--threads", "2")
        assert (d1 / "curve.csv").read_bytes() == (d2 / "curve.csv").read_bytes()
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


class TestCompareKlCommand:
    def test_small_run_csv(self, tmp_path, capsys):
        out = tmp_path / "kl.csv"
        code, text, _ = run_cli(
            capsys, "compare-kl", "--realizations", "400", "--seed", "1",
            "--out", str(out),
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "lag_over_lambda,model_estimate,kl_estimate,closed_form"
        assert len(lines) == 1 + 65
        assert "compare-kl" in text

    def test_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "compare-kl", "--realizations", "200", "--seed", "5",
                    "--out", str(path), "--threads", "2")
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_exponent_fit(self):
        from holofading.cli import fit_power_law

        sizes = [64, 128, 256, 512]
        times = [1e-3 * n for n in sizes]
        assert fit_power_law(sizes, times)[0] == pytest.approx(1.0, abs=1e-12)
        times = [1e-6 * n * n for n in sizes]
        assert fit_power_law(sizes, times)[0] == pytest.approx(2.0, abs=1e-12)

    def test_residual_of_a_power_law(self):
        from holofading.cli import fit_power_law

        sizes = [64, 128, 256, 512]
        assert fit_power_law(sizes, [3e-7 * n**1.5 for n in sizes])[1] < 1e-12
        # off the line by a factor e^(+-0.1) at alternate sizes
        times = [1e-6 * n * math.exp(0.1 * (-1) ** i) for i, n in enumerate(sizes)]
        assert 0.05 < fit_power_law(sizes, times)[1] < 0.1

    def test_help_lists_only_seed_out_and_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        words = capsys.readouterr().out.split()
        flags = {w.strip("[],") for w in words if w.startswith(("--", "[--"))}
        assert flags == {"--help", "--seed", "--out", "--config"}


_BAD_INPUTS = {
    "negative-realizations": ("generate", "--aperture", "4", "--spacing", "0.5",
                              "--realizations", "-1", "--out", "{tmp}/x.bin"),
    "negative-side": ("variances", "--aperture", "4,-4"),
    "zero-side": ("variances", "--aperture", "4,0"),
    # the table has one method, the closed form; the flag that chose one is gone
    "removed-method-flag": ("variances", "--aperture", "4,4", "--method", "quadrature"),
    "infinite-side": ("generate", "--aperture", "inf,4", "--spacing", "0.5",
                      "--out", "{tmp}/x.bin"),
    # a count L/d that overflows to inf
    "overflowing-side": ("generate", "--aperture", "1e308", "--spacing", "0.5",
                         "--out", "{tmp}/x.bin"),
    "underflowing-spacing": ("generate", "--aperture", "4", "--spacing", "1e-320",
                             "--out", "{tmp}/x.bin"),
    "underflowing-z-spacing": ("generate", "--aperture", "4,4,1", "--spacing", "0.5,0.5,1e-320",
                               "--out", "{tmp}/x.bin"),
    # bench runs one fixed sweep; its size flags are gone
    "removed-bench-flag": ("bench", "--sizes", "8"),
    # argparse's own usage errors
    "unknown-flag": ("generate", "--bogus", "1"),
    "no-subcommand": (),
    "flag-without-value": ("validate", "--fig"),
    "unknown-subcommand": ("bogus",),
    "factor-is-directory": ("generate", "--aperture", "4", "--spacing", "0.5",
                            "--factor", "{tmp}", "--out", "{tmp}/x.bin"),
    "out-in-missing-dir": ("variances", "--aperture", "4", "--out", "{tmp}/missing/x.csv"),
    # enough chunks and threads that a run would start a pool before writing
    "out-below-file": ("validate", "--fig", "6", "--realizations", "600", "--threads", "2",
                       "--out", "{tmp}/file/sub"),
    "kl-out-in-missing-dir": ("compare-kl", "--realizations", "600", "--threads", "2",
                              "--out", "{tmp}/missing/kl.csv"),
    "bench-out-in-missing-dir": ("bench", "--out", "{tmp}/missing/b.json"),
    "seed-not-integer": ("generate", "--aperture", "4", "--spacing", "0.5", "--seed", "abc",
                         "--out", "{tmp}/x.bin"),
    # a seed outside [0, 2^64) would alias the Philox key it wraps to
    "negative-seed": ("generate", "--aperture", "4", "--spacing", "0.5", "--seed", "-1",
                      "--out", "{tmp}/x.bin"),
    "seed-past-64-bits": ("generate", "--aperture", "4", "--spacing", "0.5",
                          "--seed", str(1 << 64), "--out", "{tmp}/x.bin"),
    "validate-negative-seed": ("validate", "--fig", "6", "--seed", "-1", "--out", "{tmp}/d"),
    "kl-seed-past-64-bits": ("compare-kl", "--seed", str(1 << 64), "--out", "{tmp}/kl.csv"),
    "bench-negative-seed": ("bench", "--seed", "-1", "--out", "{tmp}/b.json"),
    "empty-aperture-field": ("generate", "--aperture", "16,,1", "--spacing", "0.5",
                             "--out", "{tmp}/x.bin"),
    "variances-empty-field": ("variances", "--aperture", "4,", "--out", "{tmp}/v.csv"),
    "fractional-realizations": ("generate", "--aperture", "4", "--spacing", "0.5",
                                "--realizations", "1.5", "--out", "{tmp}/x.bin"),
    # the binary header stores M as uint32
    "realizations-overflow-bin-header": ("generate", "--aperture", "4,4", "--spacing", "0.5",
                                         "--realizations", str(1 << 32), "--out", "{tmp}/x.bin"),
    # 7.9 / 0.5 = 15.8 cells: the grid would not sample the series at n * 0.5
    "spacing-does-not-tile": ("generate", "--aperture", "7.9,7.9", "--spacing", "0.5",
                              "--out", "{tmp}/x.bin"),
    # the line's variance table needs a whole number of wavelengths
    "line-side-not-whole": ("generate", "--aperture", "7.5", "--spacing", "0.25",
                            "--out", "{tmp}/x.bin"),
    "validate-too-few-realizations": ("validate", "--fig", "6", "--realizations", "50",
                                      "--out", "{tmp}/d"),
    "kl-too-few-realizations": ("compare-kl", "--realizations", "50", "--out", "{tmp}/kl.csv"),
    "unknown-format": ("generate", "--aperture", "4", "--spacing", "0.5", "--format", "hdf5",
                       "--out", "{tmp}/x.bin"),
    "unknown-figure": ("validate", "--fig", "9", "--out", "{tmp}/d"),
    # a flag must name its option in full, as a config key must
    "abbreviated-flag": ("generate", "--aperture", "4", "--spacing", "0.5", "--real", "3",
                         "--out", "{tmp}/x.bin"),
    # a config file cannot name another: the nested file would never be read
    "nested-config": ("generate", "--config", "{tmp}/file", "--aperture", "4", "--spacing",
                      "0.5", "--out", "{tmp}/x.bin"),
    # a 2e6 x 2e6 coverage mask, refused by the host before any cell is evaluated
    "table-too-large": ("variances", "--aperture", "1e6,1e6"),
    "generate-table-too-large": ("generate", "--aperture", "1e6,1e6", "--spacing", "0.5",
                                 "--out", "{tmp}/f.bin"),
}
# the failure's "check" where it is not "config"
_CHECKS = dict.fromkeys(
    ("factor-is-directory", "out-in-missing-dir", "out-below-file", "kl-out-in-missing-dir",
     "bench-out-in-missing-dir"), "io"
) | dict.fromkeys(
    ("validate-too-few-realizations", "kl-too-few-realizations"), "InsufficientRealizations"
) | dict.fromkeys(("table-too-large", "generate-table-too-large"), "memory")


@pytest.mark.parametrize("case, argv", _BAD_INPUTS.items(), ids=_BAD_INPUTS.keys())
def test_bad_input_exits_2_with_json(case, argv, tmp_path, capsys, monkeypatch):
    import holofading.cli as climod
    import holofading.validation as valmod

    def no_pool(*args, **kwargs):
        raise AssertionError("no worker pool may start")

    def no_generation(*args, **kwargs):
        raise AssertionError("no realization may be generated")

    monkeypatch.setattr(valmod, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(climod, "generate_batch_planes", no_generation)
    monkeypatch.setattr(valmod, "plane_coefficients", no_generation)
    # a regular file, and a config file that names another (nested-config)
    (tmp_path / "file").write_text("config=/nonexistent.cfg\n")
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    failure = json.loads(err.splitlines()[-1])["failures"][0]
    assert failure["check"] == _CHECKS.get(case, "config")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]  # no output left behind


@pytest.mark.parametrize("aperture, value", [("16,16", np.nan), ("16,16", -1.0), ("16", np.nan)],
                         ids=["nan-ring", "negative-ring", "nan-ring-line"])
def test_factor_with_bad_gains_exits_2_before_out_opens(aperture, value, tmp_path, capsys,
                                                         monkeypatch):
    # an analytic factor (the library's from_callables) that the load-time
    # probe passes: value on a thin ring at |k| = kappa/2, between the
    # probe's radii, where the harmonic (8, 0) of a 16-wavelength side sits
    import holofading.cli as climod

    ring = SpectralFactor.from_callables(
        lambda kx, ky: np.where(np.abs(np.hypot(kx, ky) / (2 * math.pi) - 0.5) < 1e-3, value, 1.0)
    )
    monkeypatch.setattr(climod, "load_factor", lambda spec: ring)
    code, _, err = run_cli(capsys, "generate", "--aperture", aperture, "--spacing", "0.5",
                           "--factor", "ring", "--out", str(tmp_path / "x.bin"))
    assert code == 2
    failure = json.loads(err.splitlines()[-1])["failures"][0]
    assert failure["check"] == "config" and "spectral factor (analytic)" in failure["detail"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [("generate", "--aperture", "8,8", "--spacing", "0.5", "--out", "{out}/x.bin"),
     ("validate", "--fig", "7", "--realizations", "100", "--out", "{out}/d"),
     ("compare-kl", "--realizations", "100", "--out", "{out}/kl.csv")],
    ids=["generate", "validate", "compare-kl"],
)
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2_before_out_opens(argv, threads, tmp_path, capsys):
    # a flag or key below 1 is a mistake, not a request for every CPU
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "threads.cfg"
    config.write_text(f"threads={threads}\n")
    for extra in (("--threads", threads), ("--config", str(config))):
        code, _, err = run_cli(capsys, *(a.format(out=out) for a in argv), *extra)
        assert code == 2
        failure = json.loads(err.splitlines()[-1])["failures"][0]
        assert failure["check"] == "config" and "--threads" in failure["detail"]
        assert list(out.iterdir()) == []


# _BAD_INPUTS cases -> the flag whose bad value a config key supplies instead
_FROM_CONFIG = {
    "seed-not-integer": "--seed",
    "negative-seed": "--seed",
    "seed-past-64-bits": "--seed",
    "fractional-realizations": "--realizations",
    "negative-realizations": "--realizations",
    "unknown-format": "--format",
    "removed-method-flag": "--method",
    "unknown-figure": "--fig",
}


@pytest.mark.parametrize("case, flag", _FROM_CONFIG.items(), ids=_FROM_CONFIG.keys())
def test_bad_config_value_fails_as_its_flag_does(case, flag, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path) for a in _BAD_INPUTS[case]]
    at = argv.index(flag)
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag[2:]}={argv[at + 1]}\n")
    # a config line is read as the one word --key=value, so the command line
    # spells the flag that way too: argparse quotes the words it rejects
    rest = argv[:at] + argv[at + 2:]
    failures = []
    for args in (rest + [f"{flag}={argv[at + 1]}"], rest + ["--config", str(config)]):
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        failures.append(json.loads(err.splitlines()[-1])["failures"][0])
    assert failures[0]["check"] == "config" and failures[0] == failures[1]
    assert flag in failures[0]["detail"]
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_seed_range_is_the_philox_key_range(tmp_path, capsys):
    # -1 wrapped to the key of 2^64 - 1; only the second is a seed now (the
    # _BAD_INPUTS seed cases check that nothing is written for the first)
    code, _, err = run_cli(capsys, "generate", "--aperture", "4,4", "--spacing", "0.5",
                           "--seed", str((1 << 64) - 1), "--out", str(tmp_path / "top.bin"))
    assert code == 0, err
    code, _, err = run_cli(capsys, "generate", "--aperture", "4,4", "--spacing", "0.5",
                           "--seed", "-1", "--out", str(tmp_path / "x.bin"))
    assert code == 2 and json.loads(err.splitlines()[-1])["failures"][0]["detail"] == (
        "holofading generate: argument --seed: must be in [0, 2**64), got -1"
    )


def test_config_supplies_every_required_option(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"aperture=4,4\nspacing=0.5\nrealizations=2\nout={tmp_path / 'a.bin'}\n")
    code, _, err = run_cli(capsys, "generate", "--config", str(config))
    assert code == 0, err
    code, _, err = run_cli(capsys, "generate", "--aperture", "4,4", "--spacing", "0.5",
                           "--realizations", "2", "--out", str(tmp_path / "b.bin"))
    assert code == 0, err
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_abbreviated_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("real=3\n")
    code, _, err = run_cli(capsys, "generate", "--aperture", "4", "--spacing", "0.5",
                           "--config", str(config), "--out", str(tmp_path / "x.bin"))
    assert code == 2
    failure = json.loads(err.splitlines()[-1])["failures"][0]
    assert failure["check"] == "config" and "--real=3" in failure["detail"]
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def _write_lobed_factor(path):
    """Tabulated directional factor: cosine lobes of different depth and
    direction in the two half-spaces."""
    base = 2 * math.pi / math.sqrt(2 * math.pi)
    with open(path, "w") as fh:
        fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
        for i in range(5):
            for j in range(12):
                p = 2 * math.pi * j / 12
                fh.write(f"{i / 4},{p},{base * (1 + 0.6 * math.cos(p - 1.0))},"
                         f"{base * (1 + 0.3 * math.cos(p + 2.0)) * (1 + 0.2 * i / 4)}\n")


def test_run_record_looked_up_once_per_run_or_task(tmp_path, capsys, monkeypatch):
    # fig 8 looks its run's record up once and hands its workers the
    # record, so no worker looks it up. A 256 x 256 generate looks it up
    # once before --out opens and once per task of one realization, not
    # once per slice of the realization's draws
    import threading

    import holofading.cli as climod
    import holofading.generator as genmod
    import holofading.validation as valmod

    calls = {}
    real = genmod.run_constants

    def counting(*args):
        thread = "main" if threading.current_thread() is threading.main_thread() else "worker"
        calls[thread] = calls.get(thread, 0) + 1
        return real(*args)

    for module in (climod, genmod, valmod):
        monkeypatch.setattr(module, "run_constants", counting)
    valmod.run_figure(8, m=10_000, threads=2)
    assert calls == {"main": 1}
    calls.clear()
    code, _, _ = run_cli(
        capsys, "generate", "--aperture", "128,128", "--spacing", "0.5",
        "--realizations", "3", "--threads", "2", "--out", str(tmp_path / "f.bin"),
    )
    assert code == 0
    assert calls == {"main": 1, "worker": 3}


def test_benchmark_tracer_counts_a_sliced_generate(tmp_path, capsys, monkeypatch):
    # perfbench's tracer, in-process, on a 208 x 208 grid whose 34,352
    # harmonics are one draw each on its one plane, more than one slice of
    # draws a realization, so each realization is drawn in slices: every
    # draw, plane and gain point must still cross a traced module boundary,
    # and the summary must be strict JSON (a traced metric without samples
    # would be written as a bare NaN)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    from tracer import Tracer

    _write_lobed_factor(tmp_path / "factor.csv")
    tracer = Tracer()
    tracer.install()
    try:
        code, _, err = run_cli(
            capsys, "generate", "--aperture", "104,104", "--spacing", "0.5",
            "--realizations", "2", "--threads", "2", "--factor", str(tmp_path / "factor.csv"),
            "--out", str(tmp_path / "x.bin"),
        )
    finally:
        tracer.uninstall()
    assert code == 0, err
    summary = tracer.summary()
    counts = summary["counts"]
    assert counts["rng.draws"] == 68_704  # 2 realizations x 1 draw x 34,352 harmonics
    assert counts["generator.planes"] == 2
    assert counts["spectrum.gain_points"] == 34_352
    json.dumps(summary, allow_nan=False)


def test_benchmark_result_is_strict_json(tmp_path, monkeypatch):
    # perfbench's traced tiny runs of both workloads, from a root whose src
    # is this checkout's (so the checkout's .bench_build is left alone):
    # each result must be correct, carry every per-layer metric of
    # BENCHMARK.json, and be strict JSON, since a metric without samples
    # would be written as a bare NaN on the result line
    checkout = pathlib.Path(__file__).parents[1]
    monkeypatch.syspath_prepend(str(checkout / "perfbench"))
    from run import bench

    (tmp_path / "src").symlink_to(checkout / "src")
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    for name in ("generate-plane256", "validate-fig8-kl"):
        result = bench(str(tmp_path), name, 3, 1.0, "1", size="tiny")
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == per_layer and len(per_layer) == 24
        json.dumps(result, allow_nan=False)


# generate argv (M = --realizations) and the samples per realization
_CHUNK_CASES = {
    "planar-directional": (("--aperture", "8,8", "--spacing", "0.5", "--realizations", "7",
                            "--factor", "{factor}"), 16 * 16),
    "volumetric": (("--aperture", "8,8,2", "--spacing", "0.5", "--realizations", "5"),
                   16 * 16 * 4),
    "line-directional": (("--aperture", "16", "--spacing", "0.0625", "--realizations", "7",
                          "--factor", "{factor}"), 256),
    "line-csv": (("--aperture", "4", "--spacing", "0.5", "--realizations", "5",
                  "--format", "csv"), 8),
}


class TestGenerateChunks:
    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        import holofading.cli as climod

        sizes = []
        real = climod.generate_batch_planes

        def counting(aperture, factor, seed, realizations, *rest):
            sizes.append(len(realizations))
            return real(aperture, factor, seed, realizations, *rest)

        monkeypatch.setattr(climod, "generate_batch_planes", counting)
        return sizes

    @pytest.mark.parametrize("per_chunk", [1, 3])
    @pytest.mark.parametrize("argv, points", _CHUNK_CASES.values(), ids=_CHUNK_CASES.keys())
    def test_output_independent_of_chunk_budget(
        self, argv, points, per_chunk, tmp_path, capsys, monkeypatch, batch_sizes
    ):
        import holofading.generator as genmod

        _write_lobed_factor(tmp_path / "factor.csv")
        argv = [a.format(factor=tmp_path / "factor.csv") for a in argv]
        m = int(argv[argv.index("--realizations") + 1])
        whole, chunked = tmp_path / "whole", tmp_path / "chunked"
        argv += ["--seed", "4", "--threads", "1"]
        assert run_cli(capsys, "generate", *argv, "--out", str(whole))[0] == 0
        assert batch_sizes == [m]  # the default budget holds every realization
        batch_sizes.clear()
        # a budget just short of per_chunk + 1 realizations (it also cuts
        # the coefficient row blocks)
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", (per_chunk + 1) * points * 16 - 1)
        assert run_cli(capsys, "generate", *argv, "--out", str(chunked))[0] == 0
        assert batch_sizes == [per_chunk] * (m // per_chunk) + [m % per_chunk] * (m % per_chunk > 0)
        assert chunked.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("argv, points", _CHUNK_CASES.values(), ids=_CHUNK_CASES.keys())
    def test_output_independent_of_worker_count(
        self, argv, points, tmp_path, capsys, monkeypatch, batch_sizes
    ):
        import holofading.generator as genmod

        _write_lobed_factor(tmp_path / "factor.csv")
        argv = [a.format(factor=tmp_path / "factor.csv") for a in argv] + ["--seed", "5"]
        m = int(argv[argv.index("--realizations") + 1])
        # one realization per task, on one worker as on two
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", points * 16)
        outputs = []
        for threads in ("1", "2"):
            outputs.append(tmp_path / f"threads{threads}")
            code, _, _ = run_cli(
                capsys, "generate", *argv, "--threads", threads, "--out", str(outputs[-1])
            )
            assert code == 0
        assert batch_sizes == [1] * (2 * m) and m >= 4  # the task size ignores the worker count
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_bin_blocks_written_by_their_workers(self, tmp_path, capsys, monkeypatch, batch_sizes):
        # tasks of 3 realizations, M = 8: the last task is a remainder, and
        # each block lands at its realizations' offset whichever worker
        # writes it first
        import threading

        import holofading.cli as climod
        import holofading.generator as genmod

        writers = []
        real = climod._bin_writer

        def recording(*args):
            write = real(*args)

            def record(start, block):
                writers.append((start, threading.current_thread() is threading.main_thread()))
                write(start, block)

            return record

        monkeypatch.setattr(climod, "_bin_writer", recording)
        _write_lobed_factor(tmp_path / "factor.csv")
        argv = ("generate", "--aperture", "8,8", "--spacing", "0.5", "--realizations", "8",
                "--seed", "6", "--factor", str(tmp_path / "factor.csv"))
        whole = tmp_path / "whole.bin"
        assert run_cli(capsys, *argv, "--threads", "1", "--out", str(whole))[0] == 0
        assert batch_sizes == [8] and writers == [(0, True)]
        batch_sizes.clear()
        writers.clear()
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 3 * 16 * 16 * 16)
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.bin"
            assert run_cli(capsys, *argv, "--threads", threads, "--out", str(out))[0] == 0
            assert out.read_bytes() == whole.read_bytes()
        assert batch_sizes == [3, 3, 2] * 2
        # one thread writes on the calling thread; two write on the pool
        assert writers[:3] == [(0, True), (3, True), (6, True)]
        assert sorted(writers[3:]) == [(0, False), (3, False), (6, False)]
        assert len(whole.read_bytes()) == 24 + 8 * 16 * 16 * 16

    def test_bin_writes_under_contention(self, tmp_path, capsys, monkeypatch):
        # one realization a task on more workers than cores, and a file
        # whose seek lets the other workers run before it returns: a seek
        # and a write that interleaved with another worker's would write a
        # block at that worker's offset
        import builtins
        import time

        import holofading.cli as climod
        import holofading.generator as genmod

        class SlowSeek:
            def __init__(self, fh):
                self.fh = fh

            def seek(self, *args):
                position = self.fh.seek(*args)
                time.sleep(0.001)
                return position

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 16 * 16 * 16)
        argv = ("generate", "--aperture", "8,8", "--spacing", "0.5", "--realizations", "24",
                "--seed", "8")
        whole = tmp_path / "whole.bin"
        assert run_cli(capsys, *argv, "--threads", "1", "--out", str(whole))[0] == 0
        monkeypatch.setattr(climod, "open", lambda *a: SlowSeek(builtins.open(*a)), raising=False)
        contended = tmp_path / "contended.bin"
        assert run_cli(capsys, *argv, "--threads", "6", "--out", str(contended))[0] == 0
        assert contended.read_bytes() == whole.read_bytes()
        assert len(whole.read_bytes()) == 24 + 24 * 16 * 16 * 16

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_bin_to_a_pipe_exits_2_before_the_run(self, tmp_path, capsys, batch_sizes):
        # workers write bin blocks at their offsets, which a pipe cannot
        # seek to: the command refuses it before any realization is made
        import threading

        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()))
        reader.start()
        try:
            code, _, err = run_cli(capsys, "generate", "--aperture", "4,4", "--spacing", "0.5",
                                   "--format", "bin", "--out", str(fifo))
        finally:
            reader.join(timeout=10)
            if reader.is_alive():  # the command never opened the pipe: close it for the reader
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join()
        assert code == 2
        failure = json.loads(err.splitlines()[-1])["failures"][0]
        assert failure["check"] == "config" and "seek" in failure["detail"]
        assert read == [b""] and batch_sizes == []

    def test_budget_below_one_realization_still_progresses(
        self, tmp_path, capsys, monkeypatch, batch_sizes
    ):
        import holofading.generator as genmod

        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 1)
        out = tmp_path / "f.bin"
        argv = ("generate", "--aperture", "4,4", "--spacing", "0.5", "--realizations", "3")
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        assert batch_sizes == [1, 1, 1]
        assert len(out.read_bytes()) == 24 + 3 * 8 * 8 * 16

    def test_traced_peak_of_command(self, tmp_path, capsys):
        # 256 x 256 grid: each task is one 1 MiB realization, which the
        # worker that made it writes, so two workers hold about 2 MiB of
        # output; 4.9-5.2 MB in all with the run's constants (0.83 MB: the
        # one plane's folded draw scales and FFT bins), 5.7-5.9 MB when a
        # single plane drew H+ and H- and kept both gains (1.7 MB of
        # constants), 3.8-5.2 MB when their draw scales and FFT bins were
        # cached outside the command. 9.3-11.0 MB when the writer took the
        # blocks in order from a queue and each realization was drawn
        # whole, and 18.2 MB when each worker's task was 4 realizations
        # (half of an 8 MiB chunk budget)
        import tracemalloc

        from holofading.generator import run_constants

        _write_lobed_factor(tmp_path / "factor.csv")
        # the cached variance table is not the command's memory (its run
        # constants are: each command loads its own factor)
        run_constants(Aperture(lx=128.0, dx=0.5, ly=128.0, dy=0.5), None, (0.0,))
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, "generate", "--aperture", "128,128", "--spacing", "0.5",
                "--realizations", "8", "--factor", str(tmp_path / "factor.csv"),
                "--threads", "2", "--out", str(tmp_path / "f.bin"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "f.bin").stat().st_size == 24 + 8 * 256 * 256 * 16
        assert peak < 7e6

    def test_shaping_gains_evaluated_once_per_command(self, tmp_path, capsys, monkeypatch):
        import time

        import holofading.generator as genmod

        calls = []
        real = genmod.shaping_gains

        def counting(*args):
            calls.append(len(args[1]))
            time.sleep(0.05)  # long enough for two workers on a cold cache to both miss it
            return real(*args)

        monkeypatch.setattr(genmod, "shaping_gains", counting)
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 16 * 16 * 16)  # one realization a task
        _write_lobed_factor(tmp_path / "factor.csv")
        n = len(table_2d(8.0, 8.0).ls)
        # each command loads its own factor, so each starts on a cold cache
        for command, threads in enumerate(("1", "2"), start=1):
            code, _, _ = run_cli(
                capsys, "generate", "--aperture", "8,8", "--spacing", "0.5",
                "--realizations", "7", "--factor", str(tmp_path / "factor.csv"),
                "--threads", threads, "--out", str(tmp_path / "f.bin"),
            )
            assert code == 0
            assert calls == [n] * command

    def test_line_gain_evaluated_once_per_command(
        self, tmp_path, capsys, monkeypatch, batch_sizes
    ):
        import time

        import holofading.generator as genmod
        from holofading.spectrum import SpectralFactor, line_shaping_gain
        from holofading.wavenumber import lattice_wavenumbers

        calls = []

        def counting(*args):
            calls.append(len(args[1]))
            time.sleep(0.05)  # long enough for two workers on a cold cache to both miss it
            return line_shaping_gain(*args)

        monkeypatch.setattr(genmod, "line_shaping_gain", counting)
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 4 * 256 * 16)  # 4 realizations a task
        _write_lobed_factor(tmp_path / "factor.csv")
        out = tmp_path / "f.bin"
        code, _, _ = run_cli(
            capsys, "generate", "--aperture", "16", "--spacing", "0.0625",
            "--realizations", "18", "--seed", "7", "--factor", str(tmp_path / "factor.csv"),
            "--threads", "2", "--out", str(out),
        )
        assert code == 0
        assert batch_sizes == [4, 4, 4, 4, 2]
        table = table_1d(16.0)
        assert calls == [len(table.ls)]
        # the bytes of the uncached definition: each draw times the gain
        factor = SpectralFactor.from_csv(tmp_path / "factor.csv")
        gain = line_shaping_gain(factor, lattice_wavenumbers(table))
        std = genmod.run_constants(Aperture(lx=16.0, dx=0.0625), None, (0.0,)).std
        draws = genmod.draw_coefficients(std, 7, range(18))[:, 0] * gain
        want = synthesize(draws, Aperture(lx=16.0, dx=0.0625))
        assert out.read_bytes()[24:] == np.ascontiguousarray(want, dtype="<c16").tobytes()

    def test_gammas_evaluated_once_per_plane_of_a_run(
        self, tmp_path, capsys, monkeypatch, batch_sizes
    ):
        # ten planes of a 16 x 16 x 5 wavelength volume, in tasks of 6
        # realizations on two workers: e^{i gamma z} of each of the 9 planes
        # z != 0 is evaluated once for the run, not again in each task
        import time

        import holofading.generator as genmod

        calls = []
        real = genmod.lattice_gammas

        def counting(table):
            calls.append(len(table.ls))
            time.sleep(0.01)  # long enough for two workers on a cold cache to both miss it
            return real(table)

        monkeypatch.setattr(genmod, "lattice_gammas", counting)
        genmod.run_constants.cache_clear()  # a cold cache, whatever ran before
        code, _, _ = run_cli(
            capsys, "generate", "--aperture", "16,16,5", "--spacing", "0.5",
            "--realizations", "20", "--threads", "2", "--out", str(tmp_path / "f.bin"),
        )
        assert code == 0
        assert batch_sizes == [6, 6, 6, 2]
        assert calls == [len(table_2d(16.0, 16.0).ls)] * 9


def _fresh_python(*argv, **env_vars):
    """Run ``python argv`` in a new interpreter that imports this holofading,
    with ``env_vars`` added to its environment."""
    import holofading

    src = os.path.dirname(os.path.dirname(os.path.abspath(holofading.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **env_vars)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


class TestStartup:
    """Commands load scipy only where they use it: scipy.special for J0,
    which only validate and compare-kl evaluate."""

    def test_cli_import_loads_no_scipy_submodule(self):
        proc = _fresh_python(
            "-c", "import json, sys, holofading.cli; print(json.dumps(sorted(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "holofading.cli" in loaded
        assert not loaded & {"scipy.integrate", "scipy.linalg", "scipy.special"}

    def test_variances_and_planar_generate_load_no_scipy(self, tmp_path):
        script = (
            "import json, sys\n"
            "from holofading.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
        )
        runs = [["variances", "--aperture", "4,4", "--out", str(tmp_path / "v.csv")],
                ["generate", "--aperture", "4,4", "--spacing", "0.5", "--realizations", "2",
                 "--out", str(tmp_path / "g.bin")]]
        proc = _fresh_python("-c", script, json.dumps(runs))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], []]


class TestBlasThreads:
    def test_compare_kl_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the root's eigh changes its last bits with the BLAS thread count,
        # so kl_root runs it on one thread whatever the environment says
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"kl-{threads}.csv"
            proc = _fresh_python(
                "-m", "holofading.cli", "compare-kl", "--realizations", "1200",
                "--threads", "2", "--out", str(out),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            )
            assert proc.returncode in (0, 1), proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
