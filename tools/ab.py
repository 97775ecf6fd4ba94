"""Alternating A/B runs of the benchmark: a base revision against this checkout.

    python3 tools/ab.py --base <rev> --workload W --seed S --pairs N --seconds T
                        --out BENCH_<label>.json

The base revision's tree is unpacked into a temporary directory with ``git
archive``; this checkout, uncommitted edits included, is the change. Each
pair runs ``perfbench/run.py --trace 0`` once on each side, the base first
in even pairs and the change first in odd ones, so drift over time falls on
both sides alike. Every run's result line is kept. For each end-to-end
metric of ``BENCHMARK.json`` (its bounds as they stand in this checkout) the
script prints each side's median and quartiles, how many pairs the change
won, and a verdict:

- ``gain``: the change won at least 90% of the pairs (and at least 10), its
  median is better by more than the distance between the base's quartiles,
  and its share of failed units is no higher than the base's;
- ``worse``: the change's median is worse by more than the bound;
- ``unresolved``: the base's quartiles lie further apart than the bound, so
  a difference within the bound cannot be told from noise;
- ``within bound``: none of these.

The comparison is appended to ``--out`` (a JSON object whose
``comparisons`` list holds one entry per invocation), so one file can hold
several workloads and seeds. The exit code is 1 when a run fails its output
checks or exits non-zero, and 0 otherwise, whatever the verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(checkout: Path, args: argparse.Namespace) -> dict:
    """One benchmark run in ``checkout``: its exit code, wall time and result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    started = time.perf_counter()
    child = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if child.returncode != 0 or result is None:
        sys.stderr.write(child.stdout[-2000:] + child.stderr[-2000:])
    return {"exit": child.returncode, "wall_s": round(time.perf_counter() - started, 3),
            "result": result}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _relative(delta: float, reference: float) -> float:
    if reference:
        return delta / abs(reference)
    return 0.0 if delta == 0 else float("inf")


def _verdict(metric: dict, base: list[float], change: list[float], may_gain: bool) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over paired runs.

    With ``may_gain`` false the verdict is never ``gain``.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b_q1, b_median, b_q3 = _quartiles(base)
    c_q1, c_median, c_q3 = _quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gain = sign * (c_median - b_median)  # > 0 when the change is better
    spread = _relative(b_q3 - b_q1, b_median)
    if (may_gain and len(base) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_SHARE_FOR_GAIN * len(base) and gain > b_q3 - b_q1):
        verdict = "gain"
    elif _relative(-gain, b_median) > metric["bound"]:
        verdict = "worse"
    elif spread > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": {"median": b_median, "q1": b_q1, "q3": b_q3},
            "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
            "change_vs_base": _relative(c_median - b_median, b_median),
            "base_spread": spread, "wins": wins, "pairs": len(base), "verdict": verdict}


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    pairs = sorted({run["pair"] for run in runs})
    by_side = {side: {run["pair"]: run["result"] for run in runs if run["side"] == side}
               for side in ("base", "change")}
    summary = {}
    for side, results in by_side.items():
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        summary[f"failed_share_{side}"] = failed / attempted if attempted else None
    # a change that fails more of its units gains nothing, however fast it is
    may_gain = (summary["failed_share_change"] or 0) <= (summary["failed_share_base"] or 0)
    for metric in metrics:
        name = metric["name"]
        values = {side: [by_side[side][pair]["metrics"][name]["value"] for pair in pairs]
                  for side in by_side}
        summary[name] = _verdict(metric, values["base"], values["change"], may_gain)
    return summary


def _print(summary: dict, metrics: list[dict]) -> None:
    print(f"{'metric':<24}{'base median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'change':>9}{'wins':>7}  verdict")
    for metric in metrics:
        row = summary[metric["name"]]
        sides = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}]"
                 for s in ("base", "change")]
        print(f"{metric['name']:<24}{sides[0]:>34}{sides[1]:>34}"
              f"{row['change_vs_base']:>+9.1%}{row['wins']:>4}/{row['pairs']:<2}  {row['verdict']}")
    print(f"failed share: base {summary['failed_share_base']}, "
          f"change {summary['failed_share_change']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=["extract_replay", "extract_live", "eval_pairs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_commit = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as base_tree:
        archive = subprocess.run(["git", "archive", base_commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for position, side in enumerate(order):
                run = _run(Path(base_tree) if side == "base" else ROOT, args)
                runs.append({"pair": pair, "side": side, "position": position, **run})
                result = run["result"] or {}
                print(f"pair {pair} {side:<6} exit {run['exit']} correct "
                      f"{result.get('correct')} in {run['wall_s']:.1f} s", flush=True)

    correct = all(run["exit"] == 0 and (run["result"] or {}).get("correct") for run in runs)
    comparison = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds, "base": base_commit, "change": change_commit,
        "change_has_uncommitted_edits": dirty, "correct": correct,
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "machine": platform.machine()},
        "runs": runs,
    }
    if correct:
        comparison["summary"] = _summary(runs, metrics)
        _print(comparison["summary"], metrics)
    else:
        print("error: a run failed; no verdicts", file=sys.stderr)
    document = {"comparisons": []}
    if args.out.exists():
        document = json.loads(args.out.read_text(encoding="utf-8"))
    document["comparisons"].append(comparison)
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
