"""The package root's surface, the one unit system of its signatures and
the one source of the variance table."""
import ast
import importlib
import inspect
import pathlib
import types

import holofading

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
    assert public == set(holofading.__all__)
    assert {"Aperture", "SpectralFactor", "generate", "HoloFadingError"} <= public


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
