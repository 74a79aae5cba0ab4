"""The designs' outputs match the committed golden ledger bit for bit.

See tests/golden/make_golden.py for what is hashed and how to regenerate.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import make_golden  # noqa: E402


def test_outputs_match_golden_manifest():
    manifest = json.loads(make_golden.MANIFEST.read_text())
    expected = manifest["outputs"]
    seen = []
    for name, array in make_golden.outputs():
        assert name in expected, f"output {name} is not in the manifest"
        assert make_golden.digest(array) == expected[name], (
            f"first output that differs from the ledger: {name}\n"
            f"ledger environment: {manifest['environment']}\n"
            f"this environment:   {make_golden.environment()}"
        )
        seen.append(name)
    assert seen == list(expected)
