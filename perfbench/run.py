"""Offline benchmark for causaltext.

    python3 perfbench/run.py --workload {extract_replay,extract_live,eval_pairs}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The workload's inputs are generated from the seed, set up
three times (``setup_s`` is the median), then driven through the command-line
entry point for ``S`` seconds while every output is checked. The last stdout
line is one JSON object: with ``--trace 0`` its metrics are the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the loop runs twice, untraced
then traced, the two sets of end-to-end figures are printed side by side and
the metrics are the per-layer ones. Scratch files, a result record and the
spans of a traced run go under ``.bench_out/``. The exit code is 1 when an
output check fails and 2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
MIN_DOCS = 100  # the doc p90 needs ten samples beyond it
MAX_LOOP_SECONDS = 120.0


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "causaltext" / "__init__.py").is_file():
        print(f"error: no causaltext package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import causaltext

    if Path(causaltext.__file__).resolve().parent != (src / "causaltext").resolve():
        print(f"error: imported causaltext from {causaltext.__file__}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["extract_replay", "extract_live", "eval_pairs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_package()
    import random

    from spans import Tracer
    from workloads import WORKLOADS, CheckFailed

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    for key in [k for k in os.environ if k.startswith("CAUSALTEXT_")]:
        del os.environ[key]
    logging.basicConfig(filename=workdir / "causaltext.log", level=logging.WARNING)
    random.seed(args.seed)  # the gateway's backoff jitter

    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        try:
            measured = _measure(args, workload, tracer)
        except CheckFailed as exc:
            print(f"CHECK FAILED: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        finally:
            workload.teardown()
        return _report(args, workload, tracer, out_dir, *measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, tracer):
    """Set up SETUPS times, run the timed loop(s) and the final checks."""
    import metrics

    setup_seconds = []
    for index in range(SETUPS):
        traced = tracer is not None and index == SETUPS - 1
        if traced:
            tracer.phase = "setup"
        probe = workload.probe(tracer if traced else None).install()
        try:
            started = time.perf_counter()
            workload.setup(index, probe)
            setup_seconds.append(time.perf_counter() - started)
        finally:
            probe.uninstall()
    # In a traced run the last set-up is traced; the others give setup_s.
    traced_setup = setup_seconds.pop() if tracer is not None else None

    def timed_loop(probe, label):
        probe.install()
        try:
            results = workload.loop(args.seconds, probe, label, MIN_DOCS, MAX_LOOP_SECONDS)
        finally:
            probe.uninstall()
        doc_seconds = probe.record_seconds or [r.seconds for r in results if r.ok]
        live = args.workload == "extract_live"
        return results, metrics.end_to_end(results, setup_seconds, doc_seconds, live)

    results, e2e = timed_loop(workload.probe(), "untraced")
    traced_results = traced_e2e = None
    if tracer is not None:
        traced_results, traced_e2e = timed_loop(workload.probe(tracer), "traced")
        traced_e2e["setup_s"] = (traced_setup,) + traced_e2e["setup_s"][1:]
    workload.final_checks()
    return results, e2e, traced_results, traced_e2e


def _report(args, workload, tracer, out_dir, results, e2e, traced_results, traced_e2e) -> int:
    """Print the tables and the result line; returns the exit code."""
    import metrics

    env = environment()
    facts = dict(workload.input_facts)
    facts["cache_hit_ratio"] = sum(r.hits for r in results) / sum(r.calls for r in results)
    facts["cycle_cap_share"] = sum(not r.ok for r in results) / len(results)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    print("inputs " + json.dumps({k: round(v, 6) for k, v in facts.items()}))
    header = f"{'metric':<26}{'unit':<10}{'untraced':>14}"
    if tracer is not None:
        header += f"{'traced':>14}{'overhead':>10}"
    print(header + "  note")
    for name, (value, unit, note) in e2e.items():
        line = f"{name:<26}{unit:<10}{_fmt(value):>14}"
        if tracer is not None:
            traced_value = traced_e2e[name][0]
            ratio = (f"{traced_value / value - 1:+.1%}"
                     if value and traced_value is not None else "")
            line += f"{_fmt(traced_value):>14}{ratio:>10}"
        print(line + f"  {note}")

    counted = results if tracer is None else traced_results
    attempted = len(counted) * workload.docs_per_unit
    failed = sum(not r.ok for r in counted) * workload.docs_per_unit
    if tracer is None:
        missing = [name for name, _ in metrics.GATED if e2e[name][0] is None]
        if missing:
            print(f"error: too few samples for {missing}", file=sys.stderr)
            return 1
        reported = {name: {"value": e2e[name][0], "unit": unit} for name, unit in metrics.GATED}
    else:
        layer = metrics.per_layer(tracer.spans, workload.parallelism, workload.injected_delay)
        print(f"{'per-layer metric':<34}{'unit':<8}{'value':>14}  samples")
        reported = {}
        for name, unit, _ in metrics.PER_LAYER:
            value, samples = layer[name]
            print(f"{name:<34}{unit:<8}{_fmt(value):>14}  {samples}")
            reported[name] = {"value": 0.0 if value is None else value, "unit": unit}
        tracer.write(out_dir / f"spans-{args.workload}.jsonl")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": facts,
              "end_to_end": {k: v[0] for k, v in e2e.items()}, "metrics": reported}
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
