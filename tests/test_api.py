"""Public surface: every name a module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import p5hom

MODULES = ["p5hom"] + [
    f"p5hom.{info.name}" for info in pkgutil.iter_modules(p5hom.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
