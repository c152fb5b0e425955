"""Artifact bytes of all seven scenarios, pinned across changes.

``tests/data/golden_digests.txt`` holds the sha256 of every artifact that
``scripts/regen_goldens.py`` produces; a change that moves any byte fails
here until the file is regenerated and the change is explained.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regen_goldens.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("regen_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_digests_match_goldens(tmp_path):
    regen = _load_script()
    expected = regen.GOLDEN_FILE.read_text().splitlines()
    actual = regen.digest_lines(tmp_path)
    moved = sorted(set(expected) ^ set(actual))
    assert actual == expected, "artifacts moved:\n" + "\n".join(moved)
