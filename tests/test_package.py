"""The package's public surface: every exported name must import."""

from __future__ import annotations

import causaltext


def test_every_exported_name_resolves_once():
    assert len(causaltext.__all__) == len(set(causaltext.__all__))
    missing = [name for name in causaltext.__all__ if not hasattr(causaltext, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from causaltext import *", namespace)
    assert set(causaltext.__all__) <= namespace.keys()
