"""The names the benchmark's tracer wraps must exist in beamkit.

perfbench/tracing.py patches these functions, methods and properties from
outside; a rename or removal would otherwise surface only in the slower
benchmark suite, as a missing span.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py",
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr", tracing.SPANNED + tracing.COUNTED,
    ids=[f"{m}.{a}" for m, a in tracing.SPANNED + tracing.COUNTED],
)
def test_traced_name_resolves(module, attr):
    home = importlib.import_module(f"beamkit.{module}")
    owner_name, _, member = attr.rpartition(".")
    owner = getattr(home, owner_name) if owner_name else home
    # the tracer looks the member up on its owner itself, not on a base class
    assert vars(owner).get(member) is not None
