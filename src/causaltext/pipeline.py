"""End-to-end orchestration: text -> entities -> all-pairs queries -> graph.

The pipeline asks one orientation question per unordered entity pair (never
both orders), so the number of orientation queries is exactly C(n, 2) and the
resulting graph can never contain opposite arcs. Queries for distinct pairs
may run concurrently; verdicts are merged in pair order, not completion
order, so a replayed run is deterministic at any parallelism.
"""

from __future__ import annotations

import dataclasses
import logging
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .errors import (
    CausalTextError,
    NoEntitiesFoundError,
    PipelineStageError,
    TooFewEntitiesError,
)
from .gateway import ChatExchange, Gateway
from .graph import (
    Arc,
    ArcFlag,
    CausalGraph,
    CycleReport,
    Entity,
    GraphKind,
    _entity_record,
    detect_cycles,
    enforce_acyclicity,
    flag_transitive_candidates,
)
from .prompts import (
    OrientationQuestion,
    Verdict,
    _earliest,
    document_order,
    entity_offset,
    oriented,
    parse_entity_list,
    parse_verdict,
    render_entity_prompt,
    render_orientation_prompt,
    render_reask_prompt,
)

log = logging.getLogger(__name__)

DEFAULT_ENTITY_CAP = 20

PairKey = tuple[str, str]


class _Skipped(Exception):
    """A pooled call not made because an earlier call had already failed."""


def fan_out(fn: Callable, items: Iterable, parallelism: int) -> Iterator:
    """Yield ``fn(item)`` for every item, in input order, on ``parallelism`` threads.

    At parallelism 1 the calls run lazily on the consumer's thread, one per
    result read. Larger values use a thread pool, and a call that would
    start after another has raised is skipped. Either way no call starts
    after the first exception, which reaches the consumer once the calls
    already running have returned. Put the generator first in a ``zip`` so
    the pool shuts down once the last result has been read.
    """
    if parallelism == 1:
        yield from map(fn, items)
        return
    failures: list[Exception] = []

    def guarded(item):
        if failures:
            raise _Skipped
        try:
            return fn(item)
        except Exception as exc:
            failures.append(exc)
            raise

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        try:
            yield from pool.map(guarded, items)
        except _Skipped:
            # a call dequeued before the failure may be skipped ahead of it in input order
            raise failures[0] from None


@dataclass(frozen=True)
class PipelineConfig:
    """Run-level knobs; provider behaviour lives in the gateway config."""

    entity_cap: int = DEFAULT_ENTITY_CAP
    enforce_acyclic: bool = False

    def __post_init__(self) -> None:
        if self.entity_cap < 2:
            raise ValueError("entity_cap must be >= 2")


def extract_entities(
    source_text: str,
    domain_hint: str,
    gateway: Gateway,
    entity_cap: int = DEFAULT_ENTITY_CAP,
) -> tuple[Entity, ...]:
    """Ask the model for entities and turn its reply into graph nodes.

    Synonym groups collapse into one entity whose canonical label is the
    group's listed span appearing earliest in the text and whose surface
    forms keep every member; every other span is a group of one. A group
    none of whose listed spans occurs in the text is dropped with a warning,
    the result is sorted by first offset, and at most ``entity_cap``
    entities survive (earliest mentions win).
    """
    prompt = render_entity_prompt(source_text, domain_hint)
    exchange = gateway.cached_complete(prompt)
    listing = parse_entity_list(exchange.reply_text)

    listed = frozenset(listing.entities)
    grouped = frozenset().union(*listing.merge_groups)
    singles = (frozenset({span}) for span in listing.entities if span not in grouped)
    entities: list[Entity] = []
    for cluster in (*listing.merge_groups, *singles):
        located = _earliest(source_text, cluster & listed)
        if located is None:
            log.warning("dropping %s: does not occur in the text", sorted(cluster))
            continue
        first_offset, canonical = located
        entities.append(
            Entity(id=canonical, canonical_label=canonical, surface_forms=cluster,
                   first_offset=first_offset)
        )

    if not entities:
        raise NoEntitiesFoundError("no extracted entity could be located in the text")
    entities.sort(key=document_order)
    if len(entities) > entity_cap:
        log.warning(
            "entity cap %d reached; dropping %d later entities",
            entity_cap,
            len(entities) - entity_cap,
        )
        entities = entities[:entity_cap]
    return tuple(entities)


def enumerate_pairs(
    entities: tuple[Entity, ...] | list[Entity], source_text: str
) -> tuple[OrientationQuestion, ...]:
    """All C(n, 2) unordered pairs, each exactly once, in document order.

    Each entity is located in the text once, and one that does not occur
    raises :class:`EntityNotInTextError`. The order depends only on the
    given (first_offset, canonical_label), so it is invariant under
    permutations of the input sequence.
    """
    if len(entities) < 2:
        raise TooFewEntitiesError("pair enumeration needs at least two entities")
    for entity in entities:
        entity_offset(source_text, entity)
    ordered = sorted(entities, key=document_order)
    return tuple(
        OrientationQuestion.from_pair(source_text, a, b)
        for a, b in combinations(ordered, 2)
    )


def _query_with_exchanges(
    question: OrientationQuestion, gateway: Gateway
) -> tuple[Verdict, tuple[ChatExchange, ...]]:
    """Ask one pairwise orientation question: its verdict and the exchanges it took.

    An unparsable reply triggers exactly one re-ask with a reminder to answer
    inside the tags; a second unparsable reply is returned as a value, not an
    error, so one flaky reply cannot abort a long run.
    """
    prompt = render_orientation_prompt(question)
    first = gateway.cached_complete(prompt)
    verdict = parse_verdict(first.reply_text)
    if verdict is not Verdict.UNPARSABLE:
        return verdict, (first,)
    retry = gateway.cached_complete(render_reask_prompt(prompt))
    return parse_verdict(retry.reply_text), (first, retry)


def build_graph(
    entities: tuple[Entity, ...] | list[Entity], verdicts: dict[PairKey, Verdict]
) -> CausalGraph:
    """Assemble the extracted graph from per-pair verdicts.

    Forward adds a -> b, Backward adds b -> a; NoRelation and Unparsable add
    nothing.
    """
    arcs = [
        Arc(*arc)
        for pair, verdict in sorted(verdicts.items())
        if (arc := oriented(pair, verdict)) is not None
    ]
    return CausalGraph(GraphKind.EXTRACTED, entities, arcs)


@dataclass(frozen=True)
class RunStats:
    """Aggregate numbers for one document run.

    Latency statistics cover every orientation exchange (re-asks included);
    ``projected_serial_seconds`` is their sum, the wall time a parallelism-1
    run would need.
    """

    query_count: int
    reask_count: int
    abstention_count: int
    unparsable_count: int
    mean_latency: float
    stdev_latency: float
    projected_serial_seconds: float


@dataclass
class PipelineRun:
    """Everything one document produced: entities, verdicts, the written graph, analyses.

    ``cycle_report`` and ``transitive_arcs`` describe the extracted graph,
    before any arc was removed; the arc flags of ``graph`` describe ``graph``.
    """

    entities: tuple[Entity, ...]
    verdicts: dict[PairKey, Verdict]
    graph: CausalGraph
    cycle_report: CycleReport
    transitive_arcs: tuple[Arc, ...]
    removed_arcs: tuple[Arc, ...]
    stats: RunStats


def _stats_from(
    verdicts: dict[PairKey, Verdict], latency_lists: list[tuple[float, ...]]
) -> RunStats:
    """``latency_lists`` holds each question's exchange latencies, a re-ask's included."""
    latencies = [latency for pair_latencies in latency_lists for latency in pair_latencies]
    return RunStats(
        query_count=len(verdicts),
        reask_count=sum(1 for pair_latencies in latency_lists if len(pair_latencies) > 1),
        abstention_count=sum(1 for v in verdicts.values() if v is Verdict.NO_RELATION),
        unparsable_count=sum(1 for v in verdicts.values() if v is Verdict.UNPARSABLE),
        mean_latency=statistics.fmean(latencies) if latencies else 0.0,
        stdev_latency=statistics.stdev(latencies) if len(latencies) >= 2 else 0.0,
        projected_serial_seconds=sum(latencies),
    )


def run_pipeline(
    source_text: str,
    domain_hint: str,
    config: PipelineConfig,
    gateway: Gateway,
) -> PipelineRun:
    """Run the whole extraction for one document.

    Stages: entity extraction, pair enumeration, orientation queries (with
    bounded parallelism), graph assembly, cycle and transitive analyses, and
    optional acyclicity enforcement. ``domain_hint`` steers only the entity
    prompt. Any :class:`CausalTextError` from a stage is re-raised as
    :class:`PipelineStageError` naming the last completed stage and carrying
    every partial result gathered so far, including every verdict answered
    before (or alongside) a failing orientation query.
    """
    partial: dict = {}
    completed: str | None = None
    try:
        entities = extract_entities(
            source_text, domain_hint, gateway, entity_cap=config.entity_cap
        )
        completed = "extract_entities"
        partial["entities"] = entities

        questions = enumerate_pairs(entities, source_text)
        completed = "enumerate_pairs"
        partial["questions"] = questions

        answered: dict[PairKey, Verdict] = {}
        partial["verdicts"] = answered

        # only latencies outlive a query: its prompts hold the whole text
        def ask(question: OrientationQuestion) -> tuple[float, ...]:
            verdict, exchanges = _query_with_exchanges(question, gateway)
            answered[question.pair_key] = verdict
            return tuple(exchange.latency for exchange in exchanges)

        latency_lists = list(fan_out(ask, questions, gateway.config.parallelism))
        verdicts = {q.pair_key: answered[q.pair_key] for q in questions}
        completed = "query_orientation"

        graph = build_graph(entities, verdicts)
        completed = "build_graph"
        partial["graph"] = graph

        cycle_report = detect_cycles(graph)
        transitive = flag_transitive_candidates(graph)
        removed: tuple[Arc, ...] = ()
        if config.enforce_acyclic:
            graph, removed = enforce_acyclicity(graph, cycle_report, transitive)
        # flags describe the written graph: once arcs are removed it has no cycle and
        # its own transitive candidates
        graph = graph.with_flags({
            ArcFlag.SUSPECTED_TRANSITIVE: {
                arc.pair for arc in (flag_transitive_candidates(graph) if removed else transitive)
            },
            ArcFlag.ON_DIRECTED_CYCLE: () if removed else cycle_report.on_cycle_pairs,
        })
    except CausalTextError as exc:
        raise PipelineStageError(
            f"pipeline aborted after stage {completed!r}: {exc}", completed, partial
        ) from exc

    return PipelineRun(
        entities=entities,
        verdicts=verdicts,
        graph=graph,
        cycle_report=cycle_report,
        transitive_arcs=transitive,
        removed_arcs=removed,
        stats=_stats_from(verdicts, latency_lists),
    )


def run_report(run: PipelineRun) -> dict:
    """Deterministic JSON-able report for one run.

    Contains nothing that varies with parallelism, cache state or wall-clock
    time, so replayed runs serialize byte-identically. Cycles are only
    counted here; ``cycle_report.to_dict()`` lists them.
    """
    return {
        "entities": [
            {**_entity_record(entity), "first_offset": entity.first_offset}
            for entity in run.entities
        ],
        "verdicts": [
            {"a": a, "b": b, "verdict": run.verdicts[(a, b)].value}
            for a, b in sorted(run.verdicts)
        ],
        "cycles": {
            "is_acyclic": run.cycle_report.is_acyclic,
            "count": len(run.cycle_report.cycles),
        },
        "transitive_arcs": [[arc.cause, arc.effect] for arc in run.transitive_arcs],
        "removed_arcs": [[arc.cause, arc.effect] for arc in run.removed_arcs],
        "stats": dataclasses.asdict(run.stats),
    }
