"""Public surface: every name a module exports in __all__ exists, and
every entry point the benchmark's tracer wraps is still there."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import p5hom

MODULES = ["p5hom"] + [
    f"p5hom.{info.name}" for info in pkgutil.iter_modules(p5hom.__path__)
]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_benchmark_tracer_installs(monkeypatch):
    # the traced benchmark (perfbench/run.py --trace 1) wraps p5hom's layer
    # entry points by name; a renamed or deleted one must fail here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(p5hom)
    wrapped = list(tracer._restore)
    try:
        assert wrapped
        for owner, attr, orig in wrapped:
            assert getattr(owner, attr) is not orig, f"{attr} was not replaced"
    finally:
        tracer.remove()
    for owner, attr, orig in wrapped:
        assert getattr(owner, attr) is orig, f"{attr} was not restored"
