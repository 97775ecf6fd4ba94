"""End-to-end orchestration: text -> entities -> all-pairs queries -> graph.

The pipeline asks one orientation question per unordered entity pair (never
both orders), so the number of orientation queries is exactly C(n, 2) and the
resulting graph can never contain opposite arcs. Queries for distinct pairs
may run concurrently; verdicts are merged in pair order, not completion
order, so a replayed run is deterministic at any parallelism.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .errors import (
    CausalTextError,
    EntityNotInTextError,
    GraphFileError,
    NoEntitiesFoundError,
    PipelineStageError,
    TooFewEntitiesError,
)
from .gateway import ChatExchange, Gateway
from .graph import (
    Arc,
    CausalGraph,
    CycleReport,
    Entity,
    GraphKind,
    _field,
    _parse_arc_record,
    _parse_entity_record,
    detect_cycles,
    enforce_acyclicity,
    flag_transitive_candidates,
)
from .prompts import (
    OrientationQuestion,
    Verdict,
    entity_offset,
    find_first_offset,
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


def fan_out(fn: Callable, items: Iterable, parallelism: int) -> Iterator:
    """Yield ``fn(item)`` for every item, in input order, on ``parallelism`` threads.

    At parallelism 1 the calls run lazily on the consumer's thread, one per
    result read, so no call starts after the first exception. Larger values
    use a thread pool: the first exception propagates to the consumer and
    cancels every call that has not started yet; calls already running are
    awaited. Put the generator first in a ``zip`` so the pool shuts down
    once the last result has been read.
    """
    if parallelism == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        yield from pool.map(fn, items)


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
    group member appearing earliest in the text and whose surface forms keep
    every member; every other span is a group of one. A group none of whose
    members occurs in the text is dropped with a warning, the result is
    sorted by first offset, and at most ``entity_cap`` entities survive
    (earliest mentions win).
    """
    prompt = render_entity_prompt(source_text, domain_hint)
    exchange = gateway.cached_complete(prompt)
    listing = parse_entity_list(exchange.reply_text)
    offsets = {span: find_first_offset(source_text, span) for span in listing.entities}

    grouped = frozenset().union(*listing.merge_groups)
    singles = (frozenset({span}) for span in listing.entities if span not in grouped)
    entities: list[Entity] = []
    for cluster in (*listing.merge_groups, *singles):
        located = sorted(
            (offset, m) for m in cluster if (offset := offsets.get(m)) is not None
        )
        if not located:
            log.warning("dropping %s: does not occur in the text", sorted(cluster))
            continue
        first_offset, canonical = located[0]
        entities.append(
            Entity(id=canonical, canonical_label=canonical, surface_forms=cluster,
                   first_offset=first_offset)
        )

    if not entities:
        raise NoEntitiesFoundError("no extracted entity could be located in the text")
    entities.sort(key=lambda e: (e.first_offset, e.canonical_label))
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
        _require_in_text(source_text, entity)
    ordered = sorted(entities, key=lambda e: (e.first_offset, e.canonical_label))
    return tuple(
        OrientationQuestion.from_pair(source_text, a, b)
        for a, b in combinations(ordered, 2)
    )


def _require_in_text(source_text: str, entity: Entity) -> int:
    """The earliest offset of ``entity`` in the text; raises when it is absent."""
    offset = entity_offset(source_text, entity)
    if offset is None:
        raise EntityNotInTextError(
            f"no surface form of {entity.canonical_label!r} occurs in the text"
        )
    return offset


def _query_with_exchanges(
    question: OrientationQuestion, gateway: Gateway
) -> tuple[Verdict, tuple[ChatExchange, ...]]:
    prompt = render_orientation_prompt(question)
    first = gateway.cached_complete(prompt)
    verdict = parse_verdict(first.reply_text)
    if verdict is not Verdict.UNPARSABLE:
        return verdict, (first,)
    retry = gateway.cached_complete(render_reask_prompt(prompt))
    return parse_verdict(retry.reply_text), (first, retry)


def query_orientation(question: OrientationQuestion, gateway: Gateway) -> Verdict:
    """Ask one pairwise orientation question.

    An unparsable reply triggers exactly one re-ask with a reminder to answer
    inside the tags; a second unparsable reply is returned as a value, not an
    error, so one flaky reply cannot abort a long run.
    """
    return _query_with_exchanges(question, gateway)[0]


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
    """Everything one document produced: entities, verdicts, graph, analyses."""

    source_text: str
    entities: tuple[Entity, ...]
    verdicts: dict[PairKey, Verdict]
    graph: CausalGraph
    cycle_report: CycleReport
    transitive_arcs: tuple[Arc, ...]
    removed_arcs: tuple[Arc, ...]
    stats: RunStats


def _stats_from(
    questions: tuple[OrientationQuestion, ...],
    verdicts: dict[PairKey, Verdict],
    exchange_lists: list[tuple[ChatExchange, ...]],
) -> RunStats:
    latencies = [ex.latency for exchanges in exchange_lists for ex in exchanges]
    finals = [verdicts[q.pair_key] for q in questions]
    return RunStats(
        query_count=len(questions),
        reask_count=sum(1 for exchanges in exchange_lists if len(exchanges) > 1),
        abstention_count=sum(1 for v in finals if v is Verdict.NO_RELATION),
        unparsable_count=sum(1 for v in finals if v is Verdict.UNPARSABLE),
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
    every partial result gathered so far, including the verdicts merged
    before a failing orientation query.
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

        verdicts: dict[PairKey, Verdict] = {}
        partial["verdicts"] = verdicts
        exchange_lists: list[tuple[ChatExchange, ...]] = []
        answers = fan_out(
            lambda question: _query_with_exchanges(question, gateway),
            questions,
            gateway.config.parallelism,
        )
        for (verdict, exchanges), question in zip(answers, questions):
            verdicts[question.pair_key] = verdict
            exchange_lists.append(exchanges)
        completed = "query_orientation"

        graph = build_graph(entities, verdicts)
        completed = "build_graph"
        partial["graph"] = graph

        cycle_report = detect_cycles(graph)
        transitive = flag_transitive_candidates(graph)
        removed: tuple[Arc, ...] = ()
        if config.enforce_acyclic:
            graph, removed = enforce_acyclicity(graph, report=cycle_report)
    except CausalTextError as exc:
        raise PipelineStageError(
            f"pipeline aborted after stage {completed!r}: {exc}", completed, partial
        ) from exc

    return PipelineRun(
        source_text=source_text,
        entities=entities,
        verdicts=verdicts,
        graph=graph,
        cycle_report=cycle_report,
        transitive_arcs=transitive,
        removed_arcs=removed,
        stats=_stats_from(questions, verdicts, exchange_lists),
    )


def run_report(run: PipelineRun) -> dict:
    """Deterministic JSON-able report for one run.

    Contains nothing that varies with parallelism, cache state or wall-clock
    time, so replayed runs serialize byte-identically.
    """
    return {
        "entities": [
            {
                "id": entity.id,
                "canonical_label": entity.canonical_label,
                "surface_forms": sorted(entity.surface_forms),
                "first_offset": entity.first_offset,
            }
            for entity in run.entities
        ],
        "verdicts": [
            {"a": a, "b": b, "verdict": run.verdicts[(a, b)].value}
            for a, b in sorted(run.verdicts)
        ],
        "cycles": run.cycle_report.to_dict(),
        "transitive_arcs": [[arc.cause, arc.effect] for arc in run.transitive_arcs],
        "removed_arcs": [[arc.cause, arc.effect] for arc in run.removed_arcs],
        "stats": dataclasses.asdict(run.stats),
    }


@dataclass(frozen=True)
class PartiallyDirectedGraph:
    """Output of a causal-discovery algorithm: some arcs lack orientation.

    Undirected edges are stored as unordered pairs (smaller id first). Each
    unordered pair occurs at most once, as a directed arc or as an undirected
    edge, so every malformed input fails here, before any query is paid for.
    """

    entities: tuple[Entity, ...]
    directed_arcs: tuple[PairKey, ...]
    undirected_edges: tuple[PairKey, ...]

    def __post_init__(self) -> None:
        CausalGraph(GraphKind.EXTRACTED, self.entities)  # unique ids and labels
        ids = {entity.id for entity in self.entities}
        object.__setattr__(
            self,
            "undirected_edges",
            tuple(tuple(sorted(pair)) for pair in self.undirected_edges),
        )
        seen: set[frozenset[str]] = set()
        for a, b in (*self.directed_arcs, *self.undirected_edges):
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if not {a, b} <= ids:
                raise ValueError(f"unknown endpoint in pair {a!r}, {b!r}")
            if frozenset((a, b)) in seen:
                raise ValueError(f"pair {a!r}, {b!r} occurs more than once")
            seen.add(frozenset((a, b)))


def parse_pdag(text: str) -> PartiallyDirectedGraph:
    """Parse a structured graph file extended with an ``undirected`` list."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileError(f"not valid JSON: {exc}") from None
    entities = tuple(_parse_entity_record(r) for r in _field(payload, "entities", list))
    directed = tuple(_parse_arc_record(r).pair for r in _field(payload, "arcs", list, []))
    undirected = tuple(
        (_field(r, "a", str), _field(r, "b", str))
        for r in _field(payload, "undirected", list, [])
    )
    try:
        return PartiallyDirectedGraph(entities, directed, undirected)
    except ValueError as exc:
        raise GraphFileError(str(exc)) from None


def orient_cpdag(
    pdag: PartiallyDirectedGraph, source_text: str, gateway: Gateway
) -> CausalGraph:
    """Orient the undirected edges of a discovery output against a text.

    Already-directed arcs pass through untouched and cost zero queries.
    Every endpoint of an undirected edge is located in the text once, before
    the first query. Each undirected edge is then asked once, up to the
    gateway's parallelism at a time; NoRelation or a still-unparsable reply
    drops the edge with a warning, since the discovery algorithm asserted
    adjacency but the text did not confirm a direction.
    """
    by_id = {entity.id: entity for entity in pdag.entities}
    located: dict[str, Entity] = {}

    def locate(entity_id: str) -> Entity:
        if entity_id not in located:
            entity = by_id[entity_id]
            offset = _require_in_text(source_text, entity)
            located[entity_id] = replace(entity, first_offset=offset)
        return located[entity_id]

    edges = sorted(pdag.undirected_edges)
    questions = [
        OrientationQuestion.from_pair(source_text, locate(a_id), locate(b_id))
        for a_id, b_id in edges
    ]
    answers = fan_out(
        lambda question: _query_with_exchanges(question, gateway),
        questions,
        gateway.config.parallelism,
    )
    arcs = [Arc(cause, effect) for cause, effect in pdag.directed_arcs]
    for (verdict, _), (a_id, b_id), question in zip(answers, edges, questions):
        arc = oriented(question.pair_key, verdict)
        if arc is None:
            log.warning(
                "dropping undirected edge %r - %r: text did not confirm a direction",
                a_id,
                b_id,
            )
            continue
        arcs.append(Arc(*arc))
    return CausalGraph(GraphKind.EXTRACTED, pdag.entities, arcs)
