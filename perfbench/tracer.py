"""Span tracer for the traced benchmark run.

The tracer attributes time to holofading's modules ("layers") from outside
the package. Modules import each other's functions by name
(``from .rng import complex_standard_normals``) and look those names up in
their own namespace at call time, so replacing the name in the *calling*
module's namespace with a timing wrapper puts a span on every call that
crosses a module boundary, without touching the package source. Calls
inside one module stay unwrapped and count as that module's own time.

Spans live in memory (one tuple per call) on a per-thread stack with a
parent id, and are written out once, at the end of the traced process.
Work handed to ``validation``'s thread pool keeps the submitting span as
its parent through a ThreadPoolExecutor subclass swapped into that
module's namespace.

A span's self time is its duration minus the union of its children's
intervals (children may run in parallel on worker threads). Layer self
time is the sum over that layer's spans, so with a thread pool the layers
can add up to more than the wall time: it is busy time, not a partition
of the wall clock.
"""
from __future__ import annotations

import collections
import importlib
import inspect
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Layers reported by the benchmark, outermost first. wavenumber and errors
# are off the hot path; calls into them are still spanned.
LAYERS = ("cli", "validation", "baseline", "generator", "spectrum", "variances", "rng")
MODULES = LAYERS + ("wavenumber", "errors")

# Class-level entry points that other modules call; plain module functions
# are found automatically.
CLASS_METHODS = (
    ("spectrum", "SpectralFactor", "from_csv"),
    ("spectrum", "SpectralFactor", "isotropic_3d"),
    ("spectrum", "SpectralFactor", "isotropic_2d"),
    ("baseline", "AcfClosedForm", "__call__"),
)

COMPLEX_BYTES = 16


def layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


# ---------------------------------------------------------------------------
# counts computed from argument and result sizes at the boundary
# ---------------------------------------------------------------------------

def _count_draws(tr, args, kwargs, out):
    tr.counts["rng.streams"] += 1
    tr.counts["rng.draws"] += out.size


def _count_gains(tr, args, kwargs, out):
    first = out[0] if isinstance(out, tuple) else out
    tr.counts["spectrum.gain_points"] += first.size


def _count_table(tr, args, kwargs, out):
    key = tuple(float(a) for a in args[:2]) if hasattr(out, "ms") else (float(args[0]),)
    tr.tables[key] = len(out.ls)


def _count_matrix(tr, args, kwargs, out):
    tr.counts["baseline.matrix_points"] += out.values.size


def _count_planes(tr, args, kwargs, out):
    aperture, realizations, z_planes = args[0], args[3], args[4]
    table = args[5] if len(args) > 5 else kwargs.get("table")
    batch = len(realizations)
    linear = aperture.kind == "linear"
    if table is None:
        variances = importlib.import_module("holofading.variances")
        table = (variances.table_1d(aperture.lx) if linear
                 else variances.table_2d(aperture.lx, aperture.ly))
    harmonics = len(table.ls)
    planes = batch if linear else batch * len(z_planes)
    points = planes * aperture.nx * aperture.ny
    # coefficient arrays (H+ and H- in 2D, H in 1D), then per plane the
    # zero-embedded spectrum, the IFFT output and its shifted copy
    coeff_bytes = (1 if linear else 2) * batch * harmonics * COMPLEX_BYTES
    tr.counts["generator.planes"] += planes
    tr.counts["generator.fft_points"] += points
    tr.counts["generator.bytes_computed"] += coeff_bytes + 3 * points * COMPLEX_BYTES


COUNTERS = {
    "holofading.rng.complex_standard_normals": _count_draws,
    "holofading.spectrum.shaping_gains": _count_gains,
    "holofading.spectrum.line_shaping_gain": _count_gains,
    "holofading.variances.table_1d": _count_table,
    "holofading.variances.table_2d": _count_table,
    "holofading.baseline.correlation_matrix": _count_matrix,
    "holofading.generator.generate_batch_planes": _count_planes,
}


class Tracer:
    """In-memory span recorder that patches holofading's cross-module names."""

    def __init__(self):
        self.spans: list[tuple] = []   # (sid, parent, layer, name, thread, t0, t1, pool)
        self.pools: list[list] = []    # [t_open, t_close, workers]
        self.counts: collections.Counter = collections.Counter()
        self.tables: dict[tuple, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._wrappers: dict = {}
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _run(self, layer, name, fn, args, kwargs, parent=None, pool=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, parent, layer, name, threading.get_ident(), t0, t1, pool)
                )

    def wrapped(self, fn, layer=None):
        """The timing wrapper of fn (one per function, so patches agree)."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = layer or layer_of(fn)
        name = fn.__qualname__
        count = COUNTERS.get(f"{fn.__module__}.{name}")
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer._run(layer, name, fn, args, kwargs)
            if count is not None:
                with tracer._lock:
                    count(tracer, args, kwargs, out)
            return out

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = name
        wrapper.__module__ = fn.__module__
        wrapper.__wrapped__ = fn
        self._wrappers[fn] = wrapper
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every holofading function that one module calls in another."""
        modules = {m: importlib.import_module(f"holofading.{m}") for m in MODULES}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("holofading.")
                    and obj.__module__ != mod.__name__
                ):
                    self._patch(mod, attr, self.wrapped(obj))
        for modname, clsname, attr in CLASS_METHODS:
            cls = getattr(modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrapped(raw.__func__, modname)))
            else:
                self._patch(cls, attr, self.wrapped(raw, modname))
        self._patch(modules["validation"], "ThreadPoolExecutor", _traced_pool(self))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self seconds and the computed counts."""
        spans = list(self.spans)
        by_id = {s[0]: s for s in spans}
        children = collections.defaultdict(list)
        for s in spans:
            children[s[1]].append(s)
        self_s = dict.fromkeys(MODULES, 0.0)
        for sid, _, layer, _, _, t0, t1, _ in spans:
            covered = union_length(
                (max(c[5], t0), min(c[6], t1)) for c in children.get(sid, ())
            )
            self_s[layer] = self_s.get(layer, 0.0) + (t1 - t0) - covered

        busy = 0.0
        chunks = 0
        for _, parent, layer, _, _, t0, t1, _ in spans:
            if layer != "generator" or parent is None:
                continue
            up = by_id[parent]
            if up[2] == "validation":
                chunks += 1
            if up[7] is not None:
                busy += t1 - t0
        capacity = sum((t_close - t_open) * workers for t_open, t_close, workers in self.pools)
        if self.pools:
            workers = max(w for _, _, w in self.pools)
        else:
            workers = 1 if any(s[2] == "validation" for s in spans) else 0

        counts = dict(self.counts)
        counts["variances.harmonics"] = sum(self.tables.values())
        counts["validation.chunks"] = chunks
        counts["validation.workers"] = workers
        return {
            "self_s": self_s,
            "counts": counts,
            "pool_busy_s": busy,
            "pool_capacity_s": capacity,
        }

    def root_seconds(self, name: str) -> float:
        """Total duration of the top-level spans called ``name``."""
        return sum(s[6] - s[5] for s in self.spans if s[1] is None and s[3] == name)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, layer, name, thread, t0, t1, pool in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer, "name": name,
                    "thread": thread, "start": t0, "end": t1, "pool": pool,
                }) + "\n")
            for i, (t_open, t_close, workers) in enumerate(self.pools):
                fh.write(json.dumps({
                    "pool": i, "start": t_open, "end": t_close, "workers": workers,
                }) + "\n")


def _traced_pool(tracer: Tracer):
    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        """Thread pool whose tasks are spans parented to the submitter."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            with tracer._lock:
                self._trace_index = len(tracer.pools)
                tracer.pools.append([time.perf_counter(), None, self._max_workers])

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(
                tracer._run, layer_of(fn), fn.__qualname__, fn, args, kwargs,
                tracer.current(), self._trace_index,
            )

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=wait, cancel_futures=cancel_futures)
            record = tracer.pools[self._trace_index]
            if record[1] is None:
                record[1] = time.perf_counter()

    return TracedThreadPoolExecutor
