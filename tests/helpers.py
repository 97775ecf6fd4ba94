"""Test doubles and paths shared by the test modules.

They live here rather than in ``conftest.py`` because a test module that
imports ``conftest`` by name could get the benchmark's conftest instead,
once ``perfbench/tests`` is collected in the same run.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from pathlib import Path

import causaltext
from causaltext.gateway import STORE_NAME, ExchangeSource
from causaltext.graph import ArcFlag, CausalGraph, flag_transitive_candidates

DATA_DIR = Path(__file__).parent / "data"


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a child Python: this one's, the package root put ahead on its path.

    The parent's ``PYTHONPATH`` stays behind the root, so a child finds the
    dependencies wherever the parent found them.
    """
    package_root = str(Path(causaltext.__file__).resolve().parents[1])
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": search_path, **extra}


def old_entry_name(key: str) -> str:
    """The name of ``key``'s file in the one-file-per-entry layout the store replaced."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest() + ".json"


def store_rows(cache_dir) -> dict[str, tuple]:
    """Every row of ``cache_dir``'s cache store, key -> (reply, latency, checksum).

    An absent store has none. Opening the store rolls back a write a killed
    process left unfinished, as the next run's gateway would.
    """
    path = Path(cache_dir) / STORE_NAME
    if not path.exists():
        return {}
    db = sqlite3.connect(path)
    try:
        return {key: tuple(rest) for key, *rest in db.execute("SELECT * FROM entries")}
    finally:
        db.close()


def store_execute(cache_dir, sql: str, *params) -> None:
    """Run one statement, or a script when no ``params`` are given, on the cache store."""
    db = sqlite3.connect(Path(cache_dir) / STORE_NAME, isolation_level=None)
    try:
        if params:
            db.execute(sql, params)
        else:
            db.executescript(sql)
    finally:
        db.close()


def integrity(cache_dir) -> str:
    """SQLite's ``PRAGMA integrity_check`` verdict on the cache store: ``ok`` when sound."""
    db = sqlite3.connect(Path(cache_dir) / STORE_NAME)
    try:
        return "\n".join(row[0] for row in db.execute("PRAGMA integrity_check"))
    finally:
        db.close()


def transitive_flagged(graph: CausalGraph) -> CausalGraph:
    """``graph`` with its transitive candidates flagged, as an extracted graph is written."""
    shadowed = {arc.pair for arc in flag_transitive_candidates(graph)}
    return graph.with_flags({ArcFlag.SUSPECTED_TRANSITIVE: shadowed})


class CountingTransport:
    """Wraps a transport and counts provider calls for budget assertions."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.prompts = []
        self._lock = threading.Lock()

    @property
    def source(self):
        return self.inner.source

    def send(self, prompt):
        with self._lock:
            self.calls += 1
            self.prompts.append(prompt)
        return self.inner.send(prompt)


class ScriptedTransport:
    """Plays back a list of canned replies or exceptions, in order."""

    source = ExchangeSource.LIVE

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def send(self, prompt):
        self.calls += 1
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item, 0.0
