"""End-to-end metrics from the timed units and per-layer metrics from spans.

A metric with too few samples for its percentile is None here; the runner
prints it as n/a with its sample count.
"""

from __future__ import annotations

import resource
import statistics

from spans import SpanIndex, percentile, self_time, union_length

# Gated by BENCHMARK.json, in its order.
GATED = (
    ("setup_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("doc_p50_s", "s"),
    ("doc_p90_s", "s"),
    ("prompt_chars_per_pair", "chars"),
    ("peak_rss_mb", "MB"),
)
# Printed with every run but not gated: each is zero or undefined on some
# workload (see README.md).
REPORTED = (
    ("serial_over_makespan", "ratio"),
    ("provider_calls_per_pair", "calls"),
    ("fail_share", "ratio"),
)


def end_to_end(results, setup_seconds: list[float], doc_seconds: list[float],
               live: bool) -> dict[str, tuple[float | None, str, str]]:
    """name -> (value, unit, note) for one timed loop."""
    done = [r for r in results if r.ok]
    pairs = sum(r.pairs for r in done)
    wall = sum(r.seconds for r in results)
    docs_note = f"n={len(doc_seconds)}"
    values = {
        "setup_s": (statistics.median(setup_seconds), f"median of {len(setup_seconds)}"),
        "pairs_per_s": (pairs / wall, f"{pairs} pairs in {wall:.2f} s"),
        "doc_p50_s": (percentile(doc_seconds, 0.5), docs_note),
        "doc_p90_s": (percentile(doc_seconds, 0.9), docs_note),
        "prompt_chars_per_pair": (sum(r.chars for r in done) / pairs, "exact"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "process"),
        "serial_over_makespan": (
            (sum(r.serial_seconds for r in done) / sum(r.seconds for r in done))
            if live else None,
            "extract_live only",
        ),
        "provider_calls_per_pair": (sum(r.sends for r in done) / pairs, "exact"),
        "fail_share": (
            (len(results) - len(done)) / len(results),
            f"{len(results) - len(done)} of {len(results)} units",
        ),
    }
    units = dict(GATED + REPORTED)
    return {name: (value, units[name], note) for name, (value, note) in values.items()}


# name, unit, better; the README maps each to the end-to-end metric it moves.
PER_LAYER = (
    ("prompts.question_us_p50", "us", "lower"),
    ("prompts.render_us_p50", "us", "lower"),
    ("prompts.parse_us_p50", "us", "lower"),
    ("prompts.chars", "chars", "lower"),
    ("gateway.calls", "count", "lower"),
    ("gateway.cache_hit_ratio", "ratio", "higher"),
    ("gateway.hit_us_p50", "us", "lower"),
    ("gateway.hit_us_p90", "us", "lower"),
    ("gateway.miss_self_us_p50", "us", "lower"),
    ("gateway.miss_self_us_p90", "us", "lower"),
    ("gateway.sends", "count", "lower"),
    ("gateway.send_errors", "count", "lower"),
    ("gateway.retry_share", "ratio", "lower"),
    ("gateway.send_ms_p50", "ms", "lower"),
    ("gateway.send_ms_p90", "ms", "lower"),
    ("gateway.http_overhead_ms_p50", "ms", "lower"),
    ("gateway.limiter_wait_s", "s", "lower"),
    ("gateway.backoff_s", "s", "lower"),
    ("pipeline.entities_ms_p50", "ms", "lower"),
    ("pipeline.orient_s", "s", "lower"),
    ("pipeline.worker_busy_share", "ratio", "higher"),
    ("pipeline.self_ms_p50", "ms", "lower"),
    ("pipeline.reasks", "count", "lower"),
    ("graph.detect_cycles_ms_p50", "ms", "lower"),
    ("graph.detect_cycles_ms_p90", "ms", "lower"),
    ("graph.flag_transitive_ms_p50", "ms", "lower"),
    ("graph.enforce_ms_p50", "ms", "lower"),
    ("graph.enforce_ms_p90", "ms", "lower"),
    ("graph.cycles", "count", "lower"),
    ("graph.arcs_removed", "count", "lower"),
    ("graph.cycle_cap_hits", "count", "lower"),
    ("graph.serialize_ms_p50", "ms", "lower"),
    ("evaluation.parse_semeval_s", "s", "lower"),
    ("evaluation.eval_self_s", "s", "lower"),
    ("evaluation.compare_ms_p50", "ms", "lower"),
    ("cli.self_ms_p50", "ms", "lower"),
)

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def _pct(values, q, unit="s"):
    value = percentile(values, q)
    return None if value is None else value * _SCALE[unit]


def per_layer(spans, parallelism: int, injected_delay) -> dict[str, tuple[float | None, int]]:
    """name -> (value, samples) from the spans of one traced run.

    Counts and ratios cover the timed loop. Latency distributions pool every
    traced call, so on eval_pairs, whose timed loop only reads the cache, the
    miss and send figures come from the cache fill in set-up.
    ``injected_delay(span)`` is the delay the fake provider added to a send.
    """
    index = SpanIndex(spans)
    timed = lambda name: index.named(name)  # noqa: E731
    every = lambda name: index.named(name, phase=None)  # noqa: E731
    out: dict[str, tuple[float | None, int]] = {}

    def dist(name, spans_, q, unit, value=lambda s: s.duration):
        samples = [value(s) for s in spans_]
        out[name] = (_pct(samples, q, unit), len(samples))

    def total(name, value, samples):
        out[name] = (value, samples)

    enumerations = timed("pipeline.enumerate_pairs")
    per_pair = [s.duration / s.attrs["pairs"] for s in enumerations]
    per_pair += [s.duration for s in timed("prompts.question")]
    out["prompts.question_us_p50"] = (_pct(per_pair, 0.5, "us"), len(per_pair))
    dist("prompts.render_us_p50", timed("prompts.render"), 0.5, "us")
    dist("prompts.parse_us_p50", timed("prompts.parse"), 0.5, "us")

    calls = timed("gateway.cached_complete")
    hits = [s for s in calls if s.attrs.get("hit")]
    total("prompts.chars", sum(s.attrs["chars"] for s in calls), len(calls))
    total("gateway.calls", len(calls), len(calls))
    total("gateway.cache_hit_ratio", len(hits) / len(calls) if calls else None, len(calls))
    all_calls = every("gateway.cached_complete")
    all_hits = [s for s in all_calls if s.attrs.get("hit")]
    misses = [s for s in all_calls if s.attrs.get("hit") is False]
    dist("gateway.hit_us_p50", all_hits, 0.5, "us")
    dist("gateway.hit_us_p90", all_hits, 0.9, "us")

    def miss_self(span):
        return span.duration - union_length(
            (c.start, c.end) for c in index.descendants(span, "transport.send"))

    dist("gateway.miss_self_us_p50", misses, 0.5, "us", miss_self)
    dist("gateway.miss_self_us_p90", misses, 0.9, "us", miss_self)

    sends = timed("transport.send")
    completes = timed("gateway.complete")
    total("gateway.sends", len(sends), len(sends))
    total("gateway.send_errors", sum("error" in s.attrs for s in sends), len(sends))
    total("gateway.retry_share",
          (len(sends) - len(completes)) / len(sends) if sends else 0.0, len(sends))
    all_sends = every("transport.send")

    def round_trip(span):
        """A send minus its wait for a limiter token."""
        return self_time(span, index.descendants(span, "limiter.acquire"))

    dist("gateway.send_ms_p50", all_sends, 0.5, "ms", round_trip)
    dist("gateway.send_ms_p90", all_sends, 0.9, "ms", round_trip)
    dist("gateway.http_overhead_ms_p50", all_sends, 0.5, "ms",
         lambda s: round_trip(s) - injected_delay(s))
    waits = timed("limiter.acquire")
    total("gateway.limiter_wait_s", sum(s.duration for s in waits), len(waits))
    total("gateway.backoff_s",
          sum(self_time(s, index.descendants(s, "transport.send")) for s in completes),
          len(completes))

    dist("pipeline.entities_ms_p50", timed("pipeline.extract_entities"), 0.5, "ms")
    asks = timed("pipeline.ask")
    ask_calls: dict[str, list] = {}
    for ask in asks:
        ask_calls.setdefault(ask.doc, []).extend(index.descendants(ask, "gateway.cached_complete"))
    windows = [max(c.end for c in cs) - min(c.start for c in cs) for cs in ask_calls.values() if cs]
    busy = sum(c.duration for cs in ask_calls.values() for c in cs)
    out["pipeline.orient_s"] = (_pct(windows, 0.5), len(windows))
    total("pipeline.worker_busy_share",
          busy / (parallelism * sum(windows)) if windows else None, len(windows))
    runs = timed("pipeline.run")
    dist("pipeline.self_ms_p50", runs, 0.5, "ms",
         lambda s: self_time(s, index.children.get(s.span_id, ())))
    reasks = [s for s in asks + timed("evaluation.ask") if s.attrs.get("reask")]
    total("pipeline.reasks", len(reasks), len(asks) + len(timed("evaluation.ask")))

    detects = timed("graph.detect_cycles")
    enforces = timed("graph.enforce")
    dist("graph.detect_cycles_ms_p50", detects, 0.5, "ms")
    dist("graph.detect_cycles_ms_p90", detects, 0.9, "ms")
    dist("graph.flag_transitive_ms_p50", timed("graph.flag_transitive"), 0.5, "ms")
    dist("graph.enforce_ms_p50", enforces, 0.5, "ms")
    dist("graph.enforce_ms_p90", enforces, 0.9, "ms")
    total("graph.cycles", sum(s.attrs.get("cycles", 0) for s in detects), len(detects))
    total("graph.arcs_removed", sum(s.attrs.get("removed", 0) for s in enforces), len(enforces))
    total("graph.cycle_cap_hits",
          sum(s.attrs.get("error") == "CycleBudgetExceededError" for s in detects), len(detects))
    serialize: dict[str, float] = {}
    for s in timed("graph.serialize") + timed("pipeline.run_report"):
        serialize[s.doc] = serialize.get(s.doc, 0.0) + s.duration
    out["graph.serialize_ms_p50"] = (_pct(serialize.values(), 0.5, "ms"), len(serialize))

    dist("evaluation.parse_semeval_s", timed("evaluation.parse_semeval"), 0.5, "s")
    dist("evaluation.eval_self_s", timed("evaluation.run_pairwise_eval"), 0.5, "s",
         lambda s: s.duration - union_length(
             (c.start, c.end) for c in index.descendants(s, "gateway.cached_complete")))
    dist("evaluation.compare_ms_p50", timed("evaluation.compare"), 0.5, "ms")
    cores = {"pipeline.run", "evaluation.run_pairwise_eval"}
    dist("cli.self_ms_p50", timed("cli.invoke"), 0.5, "ms",
         lambda s: self_time(s, [c for c in index.children.get(s.span_id, ())
                                 if c.name in cores]))
    return out
