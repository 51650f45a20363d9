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
One counter step gives four words, two draws, so a call may start at any
even draw ``start`` of its realizations: counter word 0 starts at
start // 2, and the call returns draws start .. start + n - 1, bit for bit
the same values as the matching columns of a call from draw 0.

A call draws one realization or a batch of them. Each realization's
uniforms are written straight into its row of the complex output (viewed
as float64), and the in-place Box-Muller transform then runs over the
flattened block in fixed slices of _SLICE draws, so a batch costs one set
of array operations per slice rather than one per realization, and its
only scratch is one slice of cos values. Every stage after the draw is
elementwise, so neither the batch nor the slicing changes a bit: row i of
a batch is bit-identical to the single call of realization i.
"""
from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

STREAM_COEFFICIENTS = 0
STREAM_BASELINE = 1

# draws per Box-Muller slice: the length of the transform's one temporary
_SLICE = 8192

# one generator per thread, repositioned for every stream: a Generator and
# its bit generator are not safe to share between threads
_local = threading.local()


def _positioned(seed: int, realization: int, stream: int, step: int = 0) -> np.random.Generator:
    """This thread's Philox generator, set to counter step ``step`` of one
    realization's stream (draw 2 * step): the state a fresh
    ``Philox(counter=..., key=...)`` starts in.

    Raises:
        ValueError: a seed or realization outside [0, 2**64), the range of
            its 64-bit Philox word (masking would alias it to another).
    """
    if not (0 <= seed < 1 << 64 and 0 <= realization < 1 << 64):
        raise ValueError(
            f"seed and realization must be in [0, 2**64), got {seed} and {realization}"
        )
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (step, 0, realization, stream),
            "key": (seed, 0),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # buffer empty: the next draw runs the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def complex_standard_normals(
    seed: int,
    realization: int | Sequence[int],
    n: int,
    stream: int = STREAM_COEFFICIENTS,
    start: int = 0,
) -> np.ndarray:
    """n circularly-symmetric complex normals with unit total variance per
    realization, draws ``start`` .. ``start`` + n - 1 of its stream: shape
    (n,) for one realization, (B, n) for a sequence of them, row i equal to
    the single call of realization i. ``start`` must be even and
    nonnegative, so that the draws begin on a counter step.

    Real and imaginary parts each have variance 1/2. The transform is
    Box-Muller on (1 - u) so the open interval [0, 1) of the uniform source
    never reaches log(0). Each row's uniforms are drawn into the output's
    own float64 view (u0 in the real slot, u1 in the imaginary slot), then
    each slice of the flattened block is turned in place into radius and
    phase, and radius and phase into the complex normals.
    """
    if start < 0 or start % 2:
        raise ValueError(f"start must be an even draw index >= 0, got {start}")
    single = np.ndim(realization) == 0
    reals = (realization,) if single else realization
    out = np.empty((len(reals), n), dtype=complex)
    for row, r in zip(out.view(np.float64), reals):
        _positioned(seed, r, stream, start // 2).random(out=row)  # 2n uniforms per row
    flat = out.reshape(-1)
    cos = np.empty(min(_SLICE, flat.size))
    for a in range(0, flat.size, _SLICE):
        part = flat[a : a + _SLICE]
        radius, phase = part.real, part.imag  # u0 and u1 of each draw
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)
        np.negative(radius, out=radius)
        np.sqrt(radius, out=radius)  # Rayleigh with E[r^2] = 1
        phase *= 2.0 * np.pi
        c = np.cos(phase, out=cos[: len(part)])
        np.sin(phase, out=phase)
        phase *= radius  # imaginary part: r sin(phase)
        radius *= c  # real part: r cos(phase)
    return out[0] if single else out
