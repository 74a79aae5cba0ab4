"""Every name a beamkit module exports in __all__ must exist in it, and
the top level exports exactly those names.

A stale entry left behind by a removal otherwise breaks only
``from beamkit.<module> import *``.
"""

import importlib
import inspect
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


def test_top_level_is_the_union_of_the_module_exports():
    # file I/O and the command line stay in beamkit.serialization and
    # beamkit.cli; every other module's __all__ is the public API
    modules = [m for m in _MODULES if m not in ("serialization", "cli")]
    union = {name for m in modules
             for name in importlib.import_module(f"beamkit.{m}").__all__}
    top = {name for name, value in vars(beamkit).items()
           if not name.startswith("_") and not inspect.ismodule(value)}
    assert top == union


@pytest.mark.parametrize("name", ["wrap_phase", "quantize_index", "solve_two_rf",
                                  "PhaseSet", "sample_pattern", "pattern_csv"])
def test_kernel_and_cli_helpers_are_not_public(name):
    # the two-phasor kernel's parts and the CLI's pattern writer; none is
    # needed by the quick start, a demo or the command line's users
    assert not hasattr(beamkit, name)
