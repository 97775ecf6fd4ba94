"""The verdict rule of ``tools/ab.py``, driven on hand-built run lists."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRIC = {"name": "pairs_per_s", "unit": "pairs/s", "better": "higher", "bound": 0.24}


def _runs(base: list[float], change: list[float], failed=(0, 0)) -> list[dict]:
    """One base and one change run per pair, each of 36 units with ``failed`` of them failed."""
    runs = []
    for pair, values in enumerate(zip(base, change)):
        for side, value, failures in zip(("base", "change"), values, failed):
            result = {"attempted": 36, "failed": failures,
                      "metrics": {"pairs_per_s": {"value": value}}}
            runs.append({"pair": pair, "side": side, "result": result})
    return runs


def test_nine_wins_in_ten_pairs_is_a_gain():
    base = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    change = [120.0] * 9 + [90.0]
    summary = ab._summary(_runs(base, change), [METRIC])
    assert (summary["pairs_per_s"]["wins"], summary["pairs_per_s"]["pairs"]) == (9, 10)
    assert summary["pairs_per_s"]["verdict"] == "gain"


def test_three_wins_in_three_pairs_is_no_gain():
    row = ab._verdict(METRIC, [100.0, 101.0, 99.0], [150.0, 151.0, 149.0], True)
    assert row["wins"] == 3
    assert row["verdict"] == "within bound"


@pytest.mark.parametrize(
    "failed, verdict",
    [((1, 1), "gain"), ((1, 2), "within bound"), ((0, 1), "within bound")],
    ids=["equal failed shares", "more failed on the change side", "failures new in the change"],
)
def test_a_higher_failed_share_on_the_change_side_voids_a_gain(failed, verdict):
    base = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    summary = ab._summary(_runs(base, [120.0] * 10, failed), [METRIC])
    assert summary["failed_share_base"] == failed[0] / 36
    assert summary["failed_share_change"] == failed[1] / 36
    assert summary["pairs_per_s"]["verdict"] == verdict
