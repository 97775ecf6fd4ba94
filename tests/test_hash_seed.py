"""Replayed outputs do not depend on the interpreter's string-hash seed.

In-process tests run under the one ``PYTHONHASHSEED`` the test process has,
so these runs pin it in child processes.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

from helpers import child_env
from synth import pipeline_document
from test_golden_outputs import CYCLIC_ENTITY_COUNT, EXTRACT_DIGESTS


@pytest.mark.parametrize("seed", ["0", "1"])
def test_replayed_enforced_extract_matches_pinned_digests_under_hash_seed(tmp_path, seed):
    source_text, fixture = pipeline_document(CYCLIC_ENTITY_COUNT)
    fixture.save(tmp_path / "fixture.json")
    (tmp_path / "doc.txt").write_text(source_text, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "causaltext.cli", "extract",
         "--replay", "fixture.json", "--enforce-acyclic", "--parallelism", "4",
         "--out", "out", "doc.txt"],
        cwd=tmp_path,
        env=child_env(PYTHONHASHSEED=seed, CAUSALTEXT_CACHE_DIR="cache"),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
    }
    assert digests == EXTRACT_DIGESTS
