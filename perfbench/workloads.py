"""The three workloads: set-up, the timed closed loop and the output checks.

Every workload drives the real command-line entry point in-process, one
invocation at a time (a closed loop: the next invocation starts when the
previous one has returned). Inputs are generated from the seed in set-up;
the timed loop cycles through that pool until the run's time is up, and the
checks compare every output with what the generator's script implies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import requests

from causaltext import cli, evaluation
from causaltext.gateway import ReplayEntry, ReplayFixture, TokenBucket
from causaltext.graph import DEFAULT_CYCLE_CAP, GraphKind, parse_graph

import gen
from probes import Counters, Probe

HERE = Path(__file__).resolve().parent

STATS_LATENCY_KEYS = ("mean_latency", "stdev_latency", "projected_serial_seconds")
OUTPUT_SUFFIXES = (".graph.json", ".dot", ".cycles.json", ".stats.json")
BELOW_CAP = (0, DEFAULT_CYCLE_CAP + 1)


class CheckFailed(Exception):
    """An output differs from what the generator's script implies."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def invoke(args: list[str], env: dict[str, str], probe: Probe) -> tuple[int, str, str]:
    """Run one CLI invocation in-process; returns (exit code, stdout, stderr)."""
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err), probe.span("cli.invoke"):
        try:
            cli.main.main(args=args, prog_name="causaltext", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


@dataclasses.dataclass
class DocResult:
    """One timed unit of work: a document, or one pass over the eval file."""

    pairs: int
    seconds: float
    ok: bool
    calls: int
    hits: int
    sends: int
    chars: int
    serial_seconds: float = 0.0


def _write_fixture(path: Path, replies: dict[str, str]) -> None:
    ReplayFixture(entries={fp: ReplayEntry(r) for fp, r in replies.items()}).save(path)


class Workload:
    """Shared run skeleton; subclasses set up inputs and run one unit."""

    name = ""
    parallelism = 1
    docs_per_unit = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.input_facts: dict[str, float] = {}

    def setup(self, index: int, probe: Probe) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def probe(self, tracer=None) -> Probe:
        return Probe(tracer)

    def run_unit(self, unit: int, probe: Probe) -> DocResult:
        raise NotImplementedError

    def final_checks(self) -> None:
        pass

    def injected_delay(self, send_span) -> float:
        """Delay the provider added to a traced send; none without a provider."""
        return 0.0

    def loop(self, seconds: float, probe: Probe, label: str, min_docs: int,
             max_seconds: float) -> list[DocResult]:
        """Run whole passes over the pool until ``seconds`` have passed.

        The loop goes on past ``seconds`` until ``min_docs`` documents have
        completed, so that the document p90 can be reported, but starts no
        pass after ``max_seconds``. Whole passes keep the mix of documents,
        and so every figure taken over it, the same in every run.
        """
        tracer = probe.tracer
        if tracer is not None:
            tracer.phase = "warmup"
        for unit in range(self.warmup_units()):
            self._traced_unit(unit, probe, f"{label}-warmup:{unit}")
        probe.record_seconds.clear()
        if tracer is not None:
            tracer.phase = "timed"
        results: list[DocResult] = []
        started = time.perf_counter()
        unit = done = 0
        while unit % self.pass_units() or unit == 0 or (
            time.perf_counter() - started < seconds
            or (done < min_docs and time.perf_counter() - started < max_seconds)
        ):
            results.append(self._traced_unit(unit, probe, f"{label}:{unit}"))
            done += results[-1].ok * self.docs_per_unit
            unit += 1
        return results

    def warmup_units(self) -> int:
        """Untimed units run first: lazy imports and template caches fill."""
        return 1

    def pass_units(self) -> int:
        """Units in one pass over the pool."""
        return 1

    def _traced_unit(self, unit: int, probe: Probe, doc: str) -> DocResult:
        if probe.tracer is None:
            return self.run_unit(unit, probe)
        with probe.tracer.document(doc):
            return self.run_unit(unit, probe)


class ExtractWorkload(Workload):
    """One ``causaltext extract`` invocation per synthetic abstract."""

    # (n, band of simple cycles the scripted graph must have, or None)
    pool: tuple[tuple[int, tuple[int, int | None] | None], ...] = ()

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.docs: list[gen.ExtractDoc] = []
        self.cache_dir: Path | None = None
        self.cached: set[str] = set()
        self.scratch_count = 0
        self.truths: dict[str, object] = {}
        self.first_outputs: dict[str, object] = {}

    def _generate(self, root: Path) -> None:
        self.docs = [
            gen.extract_doc(self.seed, self.name, i, n, cycles=band)
            for i, (n, band) in enumerate(self.pool)
        ]
        root.mkdir(parents=True)
        for doc in self.docs:
            (root / f"{doc.name}.txt").write_text(doc.text, encoding="utf-8")
        self.root = root
        self.total_sends = 0
        self.truths = {}
        self.first_outputs = {}
        docs = self.docs
        self.input_facts = {
            "documents": len(docs),
            "mean_n": sum(d.n for d in docs) / len(docs),
            "mean_text_chars": sum(len(d.text) for d in docs) / len(docs),
            "reask_share": sum(d.reasks for d in docs) / sum(d.pairs for d in docs),
        }

    def pass_units(self) -> int:
        return len(self.docs)

    def _args(self, doc: gen.ExtractDoc, out: Path) -> list[str]:
        raise NotImplementedError

    def _env(self, cache: Path) -> dict[str, str]:
        return {"CAUSALTEXT_CACHE_DIR": str(cache)}

    def expected_sends(self, doc: gen.ExtractDoc) -> int:
        return doc.expected_calls

    def run_unit(self, unit: int, probe: Probe) -> DocResult:
        doc = self.docs[unit % len(self.docs)]
        self.scratch_count += 1
        scratch = self.root / f"run-{self.scratch_count}"
        out, cache = scratch / "out", self.cache_dir or scratch / "cache"
        probe.counters = counters = Counters()
        if doc.name not in self.truths:
            self.truths[doc.name] = self.truth_graph(doc)
        truth = self.truths[doc.name]
        started = time.perf_counter()
        code, _, err = invoke(self._args(doc, out), self._env(cache), probe)
        if code == 0:
            extracted = parse_graph(
                (out / f"{doc.name}.graph.json").read_text(encoding="utf-8"))
            comparison = evaluation.compare_with_transitive_share(extracted, truth)
        seconds = time.perf_counter() - started

        check(counters.calls == doc.expected_calls,
              f"{doc.name}: {counters.calls} gateway calls, expected {doc.expected_calls}")
        self.total_sends += counters.sends
        expected_sends = self.expected_sends(doc)
        check(counters.sends == expected_sends,
              f"{doc.name}: {counters.sends} sends, expected {expected_sends}")
        serial = 0.0
        if code == 0:
            outputs = self._check_outputs(doc, out, comparison)
            serial = outputs["stats"]["stats"]["projected_serial_seconds"]
        else:
            # Only the document scripted past the cycle cap may fail, and only
            # with the cap error; once the cap is lifted it may complete.
            check(doc.over_cap and code == 2 and "simple cycles" in err,
                  f"{doc.name}: exit {code}: {err.strip()[-300:]}")
            outputs = None
        first = self.first_outputs.setdefault(doc.name, self._comparable(outputs))
        check(first == self._comparable(outputs),
              f"{doc.name}: outputs differ from the first run of the same document")
        shutil.rmtree(scratch, ignore_errors=True)
        return DocResult(doc.pairs, seconds, code == 0, counters.calls,
                         counters.hits, counters.sends, counters.chars, serial)

    def truth_graph(self, doc: gen.ExtractDoc):
        labels = sorted({x for pair in doc.verdicts for x in pair})
        payload = {
            "entities": [{"id": x, "canonical_label": x} for x in labels],
            "arcs": [{"cause": c, "effect": e} for c, e in sorted(doc.truth_arcs)],
        }
        return parse_graph(json.dumps(payload), GraphKind.GROUND_TRUTH)

    def _comparable(self, outputs):
        if outputs is None:
            return None
        return {s: hashlib.sha256(data).hexdigest() for s, data in outputs["bytes"].items()}

    def _check_outputs(self, doc: gen.ExtractDoc, out: Path, comparison) -> dict:
        files = {s: (out / f"{doc.name}{s}").read_bytes() for s in OUTPUT_SUFFIXES}
        stats = json.loads(files[".stats.json"])
        graph = json.loads(files[".graph.json"])
        verdicts = {(v["a"], v["b"]): v["verdict"] for v in stats["verdicts"]}
        check(verdicts == doc.verdicts, f"{doc.name}: verdicts differ from the script")
        final = {(a["cause"], a["effect"]) for a in graph["arcs"]}
        removed = {tuple(pair) for pair in stats["removed_arcs"]}
        check(not final & removed and final | removed == doc.expected_arcs,
              f"{doc.name}: graph before enforcement differs from the scripted arcs")
        check(stats["stats"]["reask_count"] == doc.reasks,
              f"{doc.name}: {stats['stats']['reask_count']} re-asks, expected {doc.reasks}")
        tp = len(final & doc.truth_arcs)
        check(
            (len(comparison.true_positive_arcs), len(comparison.false_positive_arcs),
             len(comparison.false_negative_arcs))
            == (tp, len(final) - tp, len(doc.truth_arcs) - tp),
            f"{doc.name}: graph comparison counts differ from a direct count",
        )
        return {"bytes": files, "stats": stats}


class ReplayExtract(ExtractWorkload):
    """Warm cache, parallelism 1, ``--enforce-acyclic``, replayed replies."""

    name = "extract_replay"
    # The n=40 graphs of every pool sit at the same points of their
    # cycle-count distribution (deciles of a sample: 14, 36, 87, 186, 466,
    # 1294, 2564, 7566 and, for about one in six, past the 10,000-cycle cap):
    # four with 60-149 cycles, one with 30-59, one with 150-299, one with
    # 1,000-1,999 and one past the cap, which fails (the defect of ROADMAP
    # item 2). A fixed profile keeps fail_share, the audit cost and peak
    # memory the same at every seed instead of depending on the draw. The
    # sizes put the document median inside the n=20 class and the p90 inside
    # the n=40 class; at a boundary between two sizes a percentile would jump
    # between them from run to run.
    pool = tuple(
        (n, band)
        for heavy in ((30, 60), (150, 300), (1000, 2000), (DEFAULT_CYCLE_CAP + 1, None))
        for n, band in ((8, BELOW_CAP), (12, BELOW_CAP), (16, BELOW_CAP), (20, BELOW_CAP),
                        (20, BELOW_CAP), (25, BELOW_CAP), (30, BELOW_CAP), (40, (60, 150)),
                        (40, heavy))
    )

    def setup(self, index: int, probe: Probe) -> None:
        self._generate(self.workdir / f"setup-{index}")
        for doc in self.docs:
            _write_fixture(self.root / f"{doc.name}.fixture.json", doc.replies)

    def warmup_units(self) -> int:
        """One untimed pass over the pool into a fresh cache directory.

        The timed loop then replays from a warm cache. Writing a cache entry
        costs about half a millisecond of file-system time here and that cost
        drifts by a factor of up to five between minutes on a shared disk,
        which a cold loop would carry into every figure; cache writes are
        measured by eval_pairs' setup_s and by the traced warm-up pass.
        """
        self.cache_dir = self.root / f"cache-{self.scratch_count}"
        self.cached = set()
        return len(self.docs)

    def expected_sends(self, doc):
        sends = 0 if doc.name in self.cached else doc.expected_calls
        self.cached.add(doc.name)
        return sends

    def _args(self, doc, out):
        return ["extract", "--replay", str(self.root / f"{doc.name}.fixture.json"),
                "--enforce-acyclic", "--entity-cap", str(doc.entity_cap),
                "--out", str(out), str(self.root / f"{doc.name}.txt")]


class LiveExtract(ExtractWorkload):
    """Parallelism 2 through ``LiveTransport`` to the loopback fake provider."""

    name = "extract_live"
    parallelism = 2
    # Time-compression factor K: divides latency and backoff_base, and the
    # token bucket runs on a clock K times faster than the wall clock, so the
    # run follows a real run's schedule at the 30 rpm default K times faster.
    # The HTTP overhead of a loopback request (about 3 ms) is not compressed;
    # at K = 200 it is a fifth of a median send, where a real 3 s reply
    # makes it negligible.
    speedup = 200.0
    # Below the default cap of 20, so that a run completes the hundred
    # documents its p90 needs; the larger sizes run on extract_replay. An odd
    # number of sizes puts the median and the p90 inside one size class.
    pool = tuple((n, BELOW_CAP) for n in (5, 6, 7, 8, 9) * 3)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.provider: subprocess.Popen | None = None
        self.port = 0

    def setup(self, index: int, probe: Probe) -> None:
        self.teardown()
        self._generate(self.workdir / f"setup-{index}")
        script = {}
        for doc in self.docs:
            gen.script_provider(doc, self.seed, self.speedup)
            for fp, reply in doc.replies.items():
                script[fp] = [reply, doc.delays[fp], doc.faults.get(fp, 0),
                              gen.FAULT_DELAY_S / self.speedup]
        script_path = self.root / "provider_script.json"
        script_path.write_text(json.dumps(script), encoding="utf-8")
        self.provider = subprocess.Popen(
            [sys.executable, str(HERE / "fake_provider.py"), str(script_path)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.provider.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"fake provider did not start: {line!r}")
        self.port = int(line.split()[1])
        self.delays = {fp: d for doc in self.docs for fp, d in doc.delays.items()}
        prompts = sum(len(d.replies) for d in self.docs)
        self.input_facts["transient_fault_share"] = (
            sum(sum(d.faults.values()) for d in self.docs)
            / (prompts + sum(sum(d.faults.values()) for d in self.docs))
        )

    def teardown(self) -> None:
        if self.provider is not None:
            self.provider.terminate()
            self.provider.wait(timeout=10)
            self.provider.stdout.close()
            self.provider = None

    def probe(self, tracer=None) -> Probe:
        k = self.speedup

        def hook(settings):
            provider = dataclasses.replace(
                settings.provider, backoff_base=settings.provider.backoff_base / k)
            return dataclasses.replace(settings, provider=provider)

        def make_limiter(rpm):
            return TokenBucket(rpm, clock=lambda: time.monotonic() * k,
                               sleep=lambda seconds: time.sleep(seconds / k))

        return Probe(tracer, make_limiter=make_limiter, settings_hook=hook)

    def _args(self, doc, out):
        return ["extract", "--parallelism", str(self.parallelism),
                "--out", str(out), str(self.root / f"{doc.name}.txt")]

    def _env(self, cache):
        return {
            "CAUSALTEXT_CACHE_DIR": str(cache),
            "CAUSALTEXT_ENDPOINT": f"http://127.0.0.1:{self.port}/v1/chat/completions",
        }

    def expected_sends(self, doc):
        return doc.expected_calls + sum(doc.faults.values())

    def injected_delay(self, send_span) -> float:
        if "error" in send_span.attrs:
            return gen.FAULT_DELAY_S / self.speedup
        return self.delays[send_span.attrs["fp"]]

    def _comparable(self, outputs):
        """Live latencies vary, so they are left out of the stats comparison."""
        if outputs is None:
            return None
        files = dict(outputs["bytes"])
        stats = json.loads(files.pop(".stats.json"))
        for key in STATS_LATENCY_KEYS:
            stats["stats"].pop(key)
        files[".stats.json"] = json.dumps(stats, sort_keys=True).encode()
        return super()._comparable({"bytes": files})

    def provider_stats(self) -> dict:
        response = requests.get(f"http://127.0.0.1:{self.port}/stats", timeout=10)
        return response.json()

    def final_checks(self) -> None:
        sends = self.total_sends
        stats = self.provider_stats()
        check(stats["rejected"] == 0 and stats["unknown"] == 0,
              f"fake provider refused requests: {stats}")
        check(stats["requests"] == sends,
              f"fake provider saw {stats['requests']} requests, transport sent {sends}")
        # The same script replayed from a fixture must give the same outputs.
        probe = Probe().install()
        try:
            for doc in self.docs:
                fixture = self.root / f"{doc.name}.fixture.json"
                _write_fixture(fixture, doc.replies)
                out = self.root / "replayed"
                code, _, err = invoke(
                    ["extract", "--replay", str(fixture), "--out", str(out),
                     str(self.root / f"{doc.name}.txt")],
                    {"CAUSALTEXT_CACHE_DIR": str(self.root / "replay-cache")},
                    probe,
                )
                replayed = None
                if code == 0:
                    replayed = {s: (out / f"{doc.name}{s}").read_bytes()
                                for s in OUTPUT_SUFFIXES}
                    replayed = self._comparable({"bytes": replayed})
                check(replayed == self.first_outputs.get(doc.name, replayed),
                      f"{doc.name}: live outputs differ from a replay of the script")
        finally:
            probe.uninstall()


class EvalPairs(Workload):
    """``causaltext eval-pairs`` over the 1003-record benchmark, warm cache."""

    name = "eval_pairs"
    docs_per_unit = gen.EVAL_CAUSAL  # a document here is one tagged sentence

    def setup(self, index: int, probe: Probe) -> None:
        self.root = root = self.workdir / f"setup-{index}"
        root.mkdir(parents=True)
        data = gen.eval_set(self.seed)
        self.semeval = root / "benchmark.txt"
        self.semeval.write_text(data.semeval_text, encoding="utf-8")
        self.fixture = root / "fixture.json"
        _write_fixture(self.fixture, data.replies)
        self.cache = root / "cache"
        self.first_report = None
        self.input_facts = {
            "records": data.causal,
            "mean_text_chars": data.mean_sentence_chars,
            "reask_share": 0.0,
        }
        # Fill the cache: every reply is fetched and written once, here.
        probe.counters = counters = Counters()
        code, stdout, err = invoke(self._args(), {"CAUSALTEXT_CACHE_DIR": str(self.cache)},
                                   probe)
        self._check_pass(code, stdout, err)
        check(counters.sends == data.causal,
              f"cache fill sent {counters.sends} prompts, expected {data.causal}")

    def _args(self) -> list[str]:
        return ["eval-pairs", "--replay", str(self.fixture), "--parallelism",
                str(self.parallelism), "--out", str(self.root / "out"), str(self.semeval)]

    def _check_pass(self, code: int, stdout: str, err: str) -> None:
        check(code == 0, f"eval-pairs exited {code}: {err.strip()[-300:]}")
        check(f"grid: {gen.EVAL_GRID}" in stdout and f"abstained: {gen.EVAL_ABSTAINED}" in stdout
              and "unparsable: 0" in stdout,
              f"eval-pairs grid differs from {gen.EVAL_GRID}: {stdout[:200]}")
        report = (self.root / "out" / "pairwise_report.json").read_bytes()
        self.first_report = self.first_report or report
        check(report == self.first_report, "pairwise_report.json differs between passes")

    def run_unit(self, unit: int, probe: Probe) -> DocResult:
        probe.counters = counters = Counters()
        started = time.perf_counter()
        code, stdout, err = invoke(self._args(), {"CAUSALTEXT_CACHE_DIR": str(self.cache)},
                                   probe)
        seconds = time.perf_counter() - started
        self._check_pass(code, stdout, err)
        check(counters.calls == gen.EVAL_CAUSAL and counters.sends == 0,
              f"warm pass made {counters.calls} gateway calls and {counters.sends} sends")
        return DocResult(gen.EVAL_CAUSAL, seconds, True, counters.calls,
                         counters.hits, counters.sends, counters.chars)


WORKLOADS = {w.name: w for w in (ReplayExtract, LiveExtract, EvalPairs)}
