"""The package root's surface, the one unit system of its signatures, the
one source of the variance table, and a package that ships only what its
commands and its documented API run."""
import ast
import importlib
import inspect
import pathlib
import sys
import threading
import types

import holofading
from holofading.cli import main

MODULES = (
    "baseline", "cli", "errors", "generator", "rng",
    "spectrum", "validation", "variances", "wavenumber",
)
# the disk radius stays an argument of shaping_gains only
KAPPA_ARGUMENT = {"spectrum.shaping_gains"}


def _signatures(module):
    """(qualified name, signature) of every function and method defined in
    the module, private ones and dataclass-generated __init__ included."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members = [(f"{name}.{k}", v) for k, v in vars(obj).items()]
        for qual, fn in members:
            fn = inspect.unwrap(getattr(fn, "__func__", fn))
            if inspect.isfunction(fn):
                yield qual, inspect.signature(fn)


def test_root_exports_exactly_all():
    public = {
        name for name, obj in vars(holofading).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert len(holofading.__all__) == len(set(holofading.__all__))
    assert public == set(holofading.__all__) == {
        "Aperture", "FieldRealization", "SpectralFactor", "generate",
        "HoloFadingError", "ConfigError", "GridTooCoarse", "GridTooLarge",
        "InsufficientRealizations", "MigrationRange", "NotPSD",
    }


def test_no_signature_takes_a_wavelength_or_kappa():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"holofading.{name}")
        for qual, sig in _signatures(module):
            if {"lam", "kappa"} & set(sig.parameters):
                found.add(f"{name}.{qual}")
    assert found == KAPPA_ARGUMENT


def test_no_signature_takes_both_an_aperture_and_a_table():
    # the aperture's sides fix its variance table (generator.default_table);
    # a table passed beside it could only contradict it
    found = {
        f"{name}.{qual}"
        for name in MODULES
        for qual, sig in _signatures(importlib.import_module(f"holofading.{name}"))
        if {"aperture", "table"} <= set(sig.parameters)
    }
    assert found == set()


def _unread_parameters(path):
    """(function, parameter) of every function in the file whose body
    never reads that parameter; nested functions count as the body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            node.id
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for p in params:
            if p is not None and p.arg not in read:
                yield f"{path.stem}.{getattr(fn, 'name', '<lambda>')}({p.arg})"


def test_every_parameter_is_read():
    # a parameter that no body reads is a keyword callers set for nothing
    src = pathlib.Path(holofading.__file__).parent
    found = [u for path in sorted(src.glob("*.py")) for u in _unread_parameters(path)]
    assert found == []


# src functions and methods that no command run below reaches, each with
# the reason it ships; a nested function goes with the one it is in
UNREACHED = {
    "generator.generate": "README's library API",
    "spectrum.SpectralFactor.from_callables": "README's library API",
    "generator.lattice_acf_1d": "perfbench's output checks call it",
    "generator.lattice_acf_2d": "perfbench's output checks call it",
    "spectrum.SpectralFactor.isotropic_3d":
        "perfbench/tracer.py's CLASS_METHODS reads it through cls.__dict__",
    "spectrum.SpectralFactor.isotropic_2d":
        "perfbench/tracer.py's CLASS_METHODS reads it through cls.__dict__",
    "spectrum._const": "the isotropic constructors' constant weight",
    "cli.cmd_bench": "bench is criterion 10, too slow for this guard",
    "cli.bench_series": "bench's series sweep",
    "cli.bench_baseline": "bench's dense-baseline sweep",
    "cli._best_time": "bench's timer",
    "cli.fit_power_law": "bench's fit",
    "baseline.kl_sample": "bench's dense-baseline draws",
}

# every command, tiny, in {tmp}, which holds factor.csv and run.cfg: the
# runs exit 0 or 1 (a figure may fail its verdict at this M), except the
# last five, bad inputs that exit 2
RUNS = (
    ("generate", "--aperture", "4", "--spacing", "0.5", "--realizations", "2",
     "--out", "{tmp}/line.bin"),
    ("generate", "--aperture", "4", "--spacing", "0.25", "--factor", "{tmp}/factor.csv",
     "--out", "{tmp}/line-factor.bin"),
    ("generate", "--aperture", "2,2", "--spacing", "0.5", "--format", "csv",
     "--out", "{tmp}/plane.csv"),
    ("generate", "--aperture", "4,4,1", "--spacing", "0.5", "--realizations", "3",
     "--factor", "{tmp}/factor.csv", "--out", "{tmp}/volume.bin"),
    # 208 x 208: each realization is drawn in slices, one task per worker
    ("generate", "--aperture", "104,104", "--spacing", "0.5", "--realizations", "2",
     "--threads", "2", "--out", "{tmp}/sliced.bin"),
    ("generate", "--config", "{tmp}/run.cfg"),
    ("variances", "--aperture", "2,2"),
    ("variances", "--aperture", "4", "--out", "{tmp}/line.csv"),
    *(("validate", "--fig", fig, "--realizations", "300", "--threads", "2",
       "--out", f"{{tmp}}/fig{fig}") for fig in ("6", "7", "8")),
    ("compare-kl", "--realizations", "300", "--threads", "2", "--out", "{tmp}/kl.csv"),
    ("generate", "--bogus", "1"),
    ("generate", "--aperture", "4", "--spacing", "0.5", "--seed", "-1", "--out", "{tmp}/x.bin"),
    ("generate", "--aperture", "4", "--spacing", "0.5", "--factor", "{tmp}/missing.csv",
     "--out", "{tmp}/x.bin"),
    ("validate", "--fig", "6", "--realizations", "50"),
    ("variances", "--aperture", "4", "--out", "{tmp}/missing/x.csv"),
)


def _definitions():
    """(file, first line) -> qualified name of every function and method
    in src, nested ones included. The first line is that of the first
    decorator, as in ``co_firstlineno``; it keys a function where
    ``co_qualname`` (Python 3.11) cannot."""
    def walk(node, qual, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield (path, first), name
                yield from walk(child, name, path)
            else:
                yield from walk(child, qual, path)

    out = {}
    for name in MODULES:
        path = importlib.import_module(f"holofading.{name}").__file__
        out.update(walk(ast.parse(pathlib.Path(path).read_text()), name, path))
    return out


def _write_inputs(tmp):
    with open(tmp / "factor.csv", "w") as fh:
        fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
        for r in (0.0, 0.5, 1.0):
            for j in range(4):
                fh.write(f"{r},{j * 1.5},{2.5 + 0.5 * j},{2.5 - 0.5 * r}\n")
    (tmp / "run.cfg").write_text(f"aperture=4,4\nspacing=0.5\nout={tmp / 'config.bin'}\n")


def test_every_src_function_is_reached_by_a_command_or_allowed(tmp_path, capsys):
    # every command runs in this process under the profiler of this thread
    # and of the worker threads it starts, from cold caches, so that each
    # function behind a cache runs too
    _write_inputs(tmp_path)
    for name in MODULES:
        for obj in vars(importlib.import_module(f"holofading.{name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    before = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        codes = [main([a.format(tmp=tmp_path) for a in argv]) for argv in RUNS]
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])
    capsys.readouterr()
    assert all(c in (0, 1) for c in codes[:-5]) and codes[-5:] == [2] * 5, codes

    definitions = _definitions()
    unreached = sorted(
        name for key, name in definitions.items()
        if key not in reached
        and not any(name == a or name.startswith(a + ".") for a in UNREACHED)
    )
    assert unreached == []
    stale = set(UNREACHED) - {n for k, n in definitions.items() if k not in reached}
    assert stale == set()  # each entry names a src function that no command reaches
