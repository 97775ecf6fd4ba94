"""The package's public surface: every exported name must import, and the
README's file-format examples must load."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

import causaltext
from causaltext.gateway import ReplayFixture
from causaltext.graph import parse_graph
from helpers import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def _load_fixture(text: str, tmp_path: Path) -> None:
    path = tmp_path / "fixture.json"
    path.write_text(text, encoding="utf-8")
    ReplayFixture.load(path)


# README section heading -> the loader of its JSON example
README_LOADERS = {
    "Structured graph file": lambda text, tmp_path: parse_graph(text),
    "Replay fixture": _load_fixture,
}


def test_every_exported_name_resolves_once():
    assert len(causaltext.__all__) == len(set(causaltext.__all__))
    missing = [name for name in causaltext.__all__ if not hasattr(causaltext, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from causaltext import *", namespace)
    assert set(causaltext.__all__) <= namespace.keys()


def test_every_readme_json_example_loads(tmp_path):
    text = README.read_text(encoding="utf-8")
    sections = []
    for block in re.finditer(r"^```json\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        section = re.findall(r"^\*\*(.+?)\*\*", text[:block.start()], re.MULTILINE)[-1]
        README_LOADERS[section](block.group(1), tmp_path)
        sections.append(section)
    assert sorted(sections) == sorted(README_LOADERS)


@pytest.mark.parametrize("module", ["networkx", "requests"])
def test_the_cli_imports_without_networkx(module):
    # networkx and requests are test dependencies only; the package must not need them
    child = subprocess.run(
        [sys.executable, "-c", f"import causaltext.cli, sys; print({module!r} in sys.modules)"],
        env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"
