"""Every name a beamkit module exports in __all__ must exist in it.

A stale entry left behind by a removal otherwise breaks only
``from beamkit.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import beamkit

_MODULES = sorted(m.name for m in pkgutil.iter_modules(beamkit.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"beamkit.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
