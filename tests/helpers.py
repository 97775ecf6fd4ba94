"""Test doubles and paths shared by the test modules.

They live here rather than in ``conftest.py`` because a test module that
imports ``conftest`` by name could get the benchmark's conftest instead,
once ``perfbench/tests`` is collected in the same run.
"""

from __future__ import annotations

import threading
from pathlib import Path

from causaltext.gateway import ExchangeSource

DATA_DIR = Path(__file__).parent / "data"


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
