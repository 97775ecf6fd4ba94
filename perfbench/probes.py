"""Measurement seams installed from outside the package.

The benchmark changes nothing under ``src/``. It replaces module-level names
that ``cli``, ``pipeline`` and ``evaluation`` look up at call time with
wrappers around the same functions, and it wraps the ``Transport`` and
``TokenBucket`` objects it hands to the CLI. Counters are always on, since
the output checks and the per-pair metrics need them; spans are recorded only
when a tracer is given. :meth:`Probe.uninstall` restores every name.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import nullcontext

from causaltext import cli, evaluation, pipeline
from causaltext.gateway import ExchangeSource, Gateway, LiveTransport, ReplayTransport, TokenBucket

from spans import Tracer


class Counters:
    """Per-invocation counts at the gateway and transport boundaries."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0
        self.hits = 0
        self.chars = 0
        self.sends = 0

    def call(self, chars: int, hit: bool) -> None:
        with self._lock:
            self.calls += 1
            self.hits += hit
            self.chars += chars

    def send(self) -> None:
        with self._lock:
            self.sends += 1


# (module, name, span name, annotate(result) -> attrs)
_SPANNED = (
    (cli, "run_pipeline", "pipeline.run", None),
    (cli, "serialize_graph", "graph.serialize", None),
    (cli, "run_report", "pipeline.run_report", None),
    (cli, "run_pairwise_eval", "evaluation.run_pairwise_eval", None),
    (cli, "parse_semeval", "evaluation.parse_semeval", None),
    (pipeline, "extract_entities", "pipeline.extract_entities", None),
    (pipeline, "enumerate_pairs", "pipeline.enumerate_pairs", lambda r: {"pairs": len(r)}),
    (pipeline, "_query_with_exchanges", "pipeline.ask", lambda r: {"reask": len(r[1]) > 1}),
    (pipeline, "render_orientation_prompt", "prompts.render", None),
    (pipeline, "parse_verdict", "prompts.parse", None),
    (pipeline, "detect_cycles", "graph.detect_cycles", lambda r: {"cycles": len(r.cycles)}),
    (pipeline, "flag_transitive_candidates", "graph.flag_transitive", None),
    (pipeline, "enforce_acyclicity", "graph.enforce", lambda r: {"removed": len(r[1])}),
    (evaluation, "_record_question", "prompts.question", None),
    (evaluation, "compare_with_transitive_share", "evaluation.compare", None),
)


class Probe:
    """Installs the seams; ``tracer`` is None for an untraced run.

    ``make_limiter(rpm)``, when given, builds the token bucket of every live
    transport the CLI creates, in place of the package's own.
    """

    def __init__(self, tracer: Tracer | None = None, make_limiter=None, settings_hook=None):
        self.tracer = tracer
        self.counters = Counters()
        self.record_seconds: list[float] = []
        self._settings_hook = settings_hook
        self._make_limiter = make_limiter
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self) -> "Probe":
        probe = self

        class ProbedGateway(Gateway):
            def cached_complete(self, prompt):
                chars = len(prompt.system_text) + len(prompt.user_text)
                if probe.tracer is None:
                    exchange = super().cached_complete(prompt)
                else:
                    with probe.tracer.span("gateway.cached_complete", chars=chars) as span:
                        exchange = super().cached_complete(prompt)
                        span.attrs["hit"] = exchange.source is ExchangeSource.CACHE
                probe.counters.call(chars, exchange.source is ExchangeSource.CACHE)
                return exchange

            def complete(self, prompt):
                if probe.tracer is None:
                    return super().complete(prompt)
                with probe.tracer.span("gateway.complete"):
                    return super().complete(prompt)

        def live_transport(config, limiter=None):
            if probe._make_limiter is not None:
                limiter = ProbedLimiter(probe._make_limiter(config.requests_per_minute), probe)
            return ProbedTransport(LiveTransport(config, limiter), probe)

        def replay_transport(fixture):
            return ProbedTransport(ReplayTransport(fixture), probe)

        self._replace(cli, "Gateway", ProbedGateway)
        self._replace(cli, "LiveTransport", live_transport)
        self._replace(cli, "ReplayTransport", replay_transport)
        if self._settings_hook is not None:
            resolve = cli._resolve_settings
            self._replace(cli, "_resolve_settings",
                          lambda *a, **k: self._settings_hook(resolve(*a, **k)))
        self._replace(evaluation, "_query_with_exchanges",
                      self._timed_record(evaluation._query_with_exchanges))
        if self.tracer is not None:
            for module, name, span_name, annotate in _SPANNED:
                self._replace(module, name,
                              _spanned(getattr(module, name), self.tracer, span_name, annotate))
        return self

    def span(self, name: str):
        """A span when tracing, otherwise a no-op context."""
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def uninstall(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    def _timed_record(self, fn):
        """Per-record wall time of an evaluation question, traced or not."""
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            if probe.tracer is None:
                result = fn(*args, **kwargs)
            else:
                with probe.tracer.span("evaluation.ask") as span:
                    result = fn(*args, **kwargs)
                    span.attrs["reask"] = len(result[1]) > 1
            probe.record_seconds.append(time.perf_counter() - started)
            return result

        return wrapper


def _spanned(fn, tracer: Tracer, span_name: str, annotate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name) as span:
            result = fn(*args, **kwargs)
            if annotate is not None:
                span.attrs.update(annotate(result))
            return result

    return wrapper


class ProbedTransport:
    """Counts and (when tracing) times every send of the wrapped transport."""

    def __init__(self, inner, probe: Probe):
        self._inner = inner
        self._probe = probe
        self.source = inner.source

    def send(self, prompt):
        self._probe.counters.send()
        tracer = self._probe.tracer
        if tracer is None:
            return self._inner.send(prompt)
        with tracer.span("transport.send", fp=prompt.fingerprint):
            return self._inner.send(prompt)


class ProbedLimiter:
    """Times ``acquire`` on the wrapped token bucket when tracing."""

    def __init__(self, inner: TokenBucket, probe: Probe):
        self._inner = inner
        self._probe = probe

    def acquire(self) -> None:
        tracer = self._probe.tracer
        if tracer is None:
            self._inner.acquire()
            return
        with tracer.span("limiter.acquire"):
            self._inner.acquire()
