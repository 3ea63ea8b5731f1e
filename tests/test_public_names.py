"""Every name in a vbvar module's ``__all__`` resolves: a name left behind by
a deletion breaks ``from vbvar.<module> import *`` and every tool that looks
the names up, such as perfbench's tracer."""

import importlib
import pkgutil

import pytest

import vbvar

MODULES = sorted(info.name for info in pkgutil.iter_modules(vbvar.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"vbvar.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
