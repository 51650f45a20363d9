"""Counter-based random draws for reproducible, order-independent Monte Carlo.

Every draw comes from a Philox generator keyed by the user seed, with the
256-bit counter laid out as

    word 0: running position inside the realization (low word),
    word 1: 0,
    word 2: realization index,
    word 3: stream tag (coefficient draws, baseline noise, ...).

Gaussian variates use the Box-Muller transform of uniform draws so each
complex draw consumes exactly two 64-bit counter words: draw i of a
realization always occupies words [2*i, 2*i + 2), independent of batching
or evaluation order, and distinct realizations never share counter space.
"""
from __future__ import annotations

import threading

import numpy as np

STREAM_COEFFICIENTS = 0
STREAM_BASELINE = 1

_MASK64 = (1 << 64) - 1
# one generator per thread, repositioned for every stream: a Generator and
# its bit generator are not safe to share between threads
_local = threading.local()


def _positioned(seed: int, realization: int, stream: int) -> np.random.Generator:
    """This thread's Philox generator, set to the start of one realization's
    stream: the state a fresh ``Philox(counter=..., key=...)`` starts in."""
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (0, 0, realization & _MASK64, stream & _MASK64),
            "key": (seed & _MASK64, 0),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # buffer empty: the next draw runs the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def complex_standard_normals(
    seed: int, realization: int, n: int, stream: int = STREAM_COEFFICIENTS
) -> np.ndarray:
    """n circularly-symmetric complex normals with unit total variance.

    Real and imaginary parts each have variance 1/2. The transform is
    Box-Muller on (1 - u) so the open interval [0, 1) of the uniform source
    never reaches log(0).
    """
    u = _positioned(seed, realization, stream).random((n, 2))
    radius = np.sqrt(-np.log1p(-u[:, 0]))  # Rayleigh with E[r^2] = 1
    phase = 2.0 * np.pi * u[:, 1]
    out = np.empty(n, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    out.real *= radius
    out.imag *= radius
    return out
