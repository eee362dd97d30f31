"""The golden corpus: every command tests/golden/regen.py runs produces the
exit code, stdout, stderr and file bytes pinned in tests/golden/manifest.json."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().with_name("golden")


def load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_corpus_command_matches_the_manifest():
    pinned = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    actual = load_regen().corpus_hashes()
    changed = [command for command in pinned if command in actual and actual[command] != pinned[command]]
    missing = [command for command in pinned if command not in actual]
    added = [command for command in actual if command not in pinned]
    report = [
        f"{kind}: {command}"
        for kind, commands in (("changed", changed), ("missing", missing), ("added", added))
        for command in commands
    ]
    if report:
        pytest.fail(f"{len(report)} commands differ from the manifest:\n" + "\n".join(report), pytrace=False)
