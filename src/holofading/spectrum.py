"""Directional scattering weights and the shaping gains that impose them.

A scattering environment is described by a pair of nonnegative directional
weights (a_plus, a_minus) on the disk of radius kappa, one per propagation
half-space. Wavenumbers are in wavelength units, so kappa is always
``wavenumber.KAPPA`` = 2*pi; no constructor takes it. The per-half-space
power density the weights describe is

    S(kx, ky) = a(kx, ky)^2 / (4 * pi * gamma(kx, ky))

which is singular (but integrable) at the disk boundary. Isotropic
scattering corresponds to the constant weight ``ISOTROPIC_FACTOR_3D`` =
2*pi/sqrt(kappa) in 3D and ``ISOTROPIC_FACTOR_2D`` = 2*sqrt(pi) for a field
observed on a line (both normalized to unit total power), and any other
environment is reachable from the isotropic one through a memoryless
wavenumber gain

    g(kx, ky) = sqrt(kappa) * a(kx, ky) / (2 * pi)

which equals 1 everywhere for the isotropic weight. ``shaping_gains``
evaluates it at the harmonics of a rectangular aperture and
``line_shaping_gain`` at those of a line aperture. ``shaping_gains`` still
takes kappa as an argument, and every caller passes ``KAPPA``.
"""
from __future__ import annotations

import csv
import math

import numpy as np

from .wavenumber import KAPPA

ISOTROPIC_3D = "isotropic-3d"
ISOTROPIC_2D = "isotropic-2d"
TABULATED = "tabulated"
ANALYTIC = "analytic"

# Polar probe grid that rejects an unbounded or negative factor at load time;
# a tabulated factor's every node is also checked as it is read.
_PROBE_RADII = 64
_PROBE_ANGLES = 64


# Constant directional weights of the unit-power isotropic channel: in 3D,
# 2*pi/sqrt(kappa); observed on a line, 2*sqrt(pi) (independent of kappa).
ISOTROPIC_FACTOR_3D = 2.0 * math.pi / math.sqrt(KAPPA)
ISOTROPIC_FACTOR_2D = 2.0 * math.sqrt(math.pi)


class SpectralFactor:
    """Pair of nonnegative directional weights on the wavenumber disk.

    Instances are immutable after construction and safe to share across
    threads. Use the classmethod constructors; ``kind`` is one of
    'isotropic-3d', 'isotropic-2d', 'tabulated', 'analytic'.
    """

    def __init__(self, kind, a_plus, a_minus):
        self.kind = kind
        self._a_plus = a_plus
        self._a_minus = a_minus
        self._probe()

    @classmethod
    def isotropic_3d(cls) -> "SpectralFactor":
        a = _const(ISOTROPIC_FACTOR_3D)
        return cls(ISOTROPIC_3D, a, a)

    @classmethod
    def isotropic_2d(cls) -> "SpectralFactor":
        a = _const(ISOTROPIC_FACTOR_2D)
        return cls(ISOTROPIC_2D, a, a)

    @classmethod
    def from_callables(cls, a_plus, a_minus=None) -> "SpectralFactor":
        """Wrap vectorized callables a(kx, ky) -> weight (nonnegative),
        defined on the whole disk |k| <= KAPPA."""
        return cls(ANALYTIC, a_plus, a_minus if a_minus is not None else a_plus)

    @classmethod
    def from_csv(cls, path) -> "SpectralFactor":
        """Load a tabulated factor from CSV.

        Required header: ``k_r_over_kappa, k_phi_rad, a_plus, a_minus``.
        Rows must form a full polar grid; the radial grid must span [0, 1].
        Values are bilinearly interpolated in (radius, azimuth) with the
        azimuth wrapping at 2*pi, so the disk boundary is a grid line.
        """
        radii, angles, table_p, table_m = _read_polar_csv(path)
        return cls(
            TABULATED,
            _PolarInterpolator(radii, angles, table_p),
            _PolarInterpolator(radii, angles, table_m),
        )

    @property
    def is_isotropic(self) -> bool:
        return self.kind in (ISOTROPIC_3D, ISOTROPIC_2D)

    def amplitudes(self, kx, ky):
        """Evaluate (a_plus, a_minus) at the given points (vectorized)."""
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        return self._a_plus(kx, ky), self._a_minus(kx, ky)

    def _probe(self):
        r = np.linspace(0.0, KAPPA, _PROBE_RADII)
        phi = np.linspace(0.0, 2.0 * math.pi, _PROBE_ANGLES, endpoint=False)
        kx = np.outer(r, np.cos(phi)).ravel()
        ky = np.outer(r, np.sin(phi)).ravel()
        for name, a in (("a_plus", self._a_plus), ("a_minus", self._a_minus)):
            with np.errstate(invalid="ignore", over="ignore"):
                vals = np.asarray(a(kx, ky), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"spectral factor {name} is unbounded on the disk")
            if np.any(vals < 0.0):
                raise ValueError(f"spectral factor {name} takes negative values")


def _const(value):
    def f(kx, ky):
        return np.full(np.broadcast(kx, ky).shape, value, dtype=float)

    return f


class _PolarInterpolator:
    """Bilinear interpolation on a (radius, azimuth) grid over the disk."""

    def __init__(self, radii, angles, table):
        self.radii = radii              # ascending, spanning [0, 1] (of KAPPA)
        self.angles = angles            # ascending in [0, 2*pi)
        self.table = table              # shape (len(radii), len(angles))

    def __call__(self, kx, ky):
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        r = np.hypot(kx, ky) / KAPPA
        r = np.clip(r, 0.0, 1.0)
        phi = np.mod(np.arctan2(ky, kx), 2.0 * math.pi)

        ir = np.clip(np.searchsorted(self.radii, r, side="right") - 1, 0, len(self.radii) - 2)
        tr = (r - self.radii[ir]) / (self.radii[ir + 1] - self.radii[ir])
        tr = np.clip(tr, 0.0, 1.0)

        # periodic azimuth cell
        ext_angles = np.append(self.angles, self.angles[0] + 2.0 * math.pi)
        ip = np.clip(np.searchsorted(ext_angles, phi, side="right") - 1, 0, len(self.angles) - 1)
        tp = (phi - ext_angles[ip]) / (ext_angles[ip + 1] - ext_angles[ip])
        tp = np.clip(tp, 0.0, 1.0)
        ip1 = (ip + 1) % len(self.angles)

        v00 = self.table[ir, ip]
        v01 = self.table[ir, ip1]
        v10 = self.table[ir + 1, ip]
        v11 = self.table[ir + 1, ip1]
        return (1 - tr) * ((1 - tp) * v00 + tp * v01) + tr * ((1 - tp) * v10 + tp * v11)


def _read_polar_csv(path):
    columns = ("k_r_over_kappa", "k_phi_rad", "a_plus", "a_minus")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(columns).issubset(reader.fieldnames):
            raise ValueError(
                f"tabulated factor CSV must have header columns {sorted(columns)}"
            )
        rows = []
        for row in reader:
            if any(row[c] is None for c in columns):  # DictReader's fill for a short row
                raise ValueError(f"tabulated factor CSV line {reader.line_num} has missing columns")
            rows.append(tuple(float(row[c]) for c in columns))
            for name, a in zip(columns[2:], rows[-1][2:]):  # every node: the probe misses most
                if not (a >= 0.0 and math.isfinite(a * a)):  # so that a^2/(4 pi gamma) is too
                    raise ValueError(
                        f"tabulated factor CSV line {reader.line_num}: {name} = {a!r} is "
                        "negative or unbounded; a weight and its square must be finite"
                    )
    if not rows:
        raise ValueError("tabulated factor CSV has no data rows")
    radii = np.array(sorted({r for r, _, _, _ in rows}))
    angles = np.array(sorted({p for _, p, _, _ in rows}))
    if radii[0] != 0.0 or radii[-1] != 1.0:
        raise ValueError("radial grid must span k_r/kappa in [0, 1]")
    if not np.all((angles >= 0.0) & (angles < 2.0 * math.pi)):
        raise ValueError("azimuths k_phi_rad must lie in [0, 2*pi)")
    if len({(r, p) for r, p, _, _ in rows}) != len(rows):
        raise ValueError("tabulated factor CSV repeats a (k_r_over_kappa, k_phi_rad) point")
    if len(rows) != len(radii) * len(angles):
        raise ValueError("tabulated factor rows do not form a full polar grid")
    table_p = np.empty((len(radii), len(angles)))
    table_m = np.empty_like(table_p)
    rindex = {r: i for i, r in enumerate(radii)}
    pindex = {p: j for j, p in enumerate(angles)}
    for r, p, ap, am in rows:
        table_p[rindex[r], pindex[p]] = ap
        table_m[rindex[r], pindex[p]] = am
    return radii, angles, table_p, table_m


def shaping_gains(factor: SpectralFactor, kx, ky, kappa: float):
    """Vectorized shaping gains with out-of-disk points clamped radially.

    Harmonic lattice points of rim cells can sit just outside the disk while
    their cell still carries in-disk power; the factor is then evaluated at
    the radially nearest disk point.
    """
    kx = np.asarray(kx, dtype=float).copy()
    ky = np.asarray(ky, dtype=float).copy()
    rho = np.hypot(kx, ky)
    outside = rho > kappa
    if np.any(outside):
        shrink = kappa / rho[outside]
        kx[outside] *= shrink
        ky[outside] *= shrink
    ap, am = factor.amplitudes(kx, ky)
    scale = math.sqrt(kappa) / (2.0 * math.pi)
    return ap * scale, am * scale


def line_shaping_gain(factor: SpectralFactor, kx):
    """Shaping gain for the single-coefficient line series.

    The line series lumps the two half-space coefficients into one draw of
    twice the variance, observed at y = z = 0 where both halves add with
    unit phase; a directional weight therefore acts through the RMS of the
    two half-space gains, normalized so the isotropic line weight
    2*sqrt(pi) maps to gain 1. Isotropic factors of either kind are the
    shaping identity. The RMS would hide a weight's sign, so the gain is
    NaN where either weight is negative, and ``run_constants`` rejects it.
    """
    kx = np.asarray(kx, dtype=float)
    if factor.is_isotropic:
        return np.ones_like(kx)
    kxc = np.clip(kx, -KAPPA, KAPPA)
    ap, am = factor.amplitudes(kxc, np.zeros_like(kxc))
    gain = np.sqrt((np.square(ap) + np.square(am)) / 2.0) / ISOTROPIC_FACTOR_2D
    return np.where(np.minimum(ap, am) < 0.0, np.nan, gain)
