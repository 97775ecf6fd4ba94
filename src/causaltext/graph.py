"""Directed causal-graph model, structural analyses and comparison metrics.

A :class:`CausalGraph` is a set of entities (nodes) plus directed cause-effect
arcs. Graph structure is immutable once built: every operation returns a new
graph or a report. The one mutable bit is ``Arc.flags``, which the analyses
(:func:`detect_cycles`, :func:`flag_transitive_candidates`) recompute in place
on the graph they are given; arc objects are copied on graph construction, so
flags never leak between graph values.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import networkx as nx

from .errors import (
    CycleBudgetExceededError,
    GraphFileError,
    OppositeArcConflictError,
    SelfLoopError,
    UnknownEntityError,
)

DEFAULT_CYCLE_CAP = 10_000

_WS = re.compile(r"\s+")


def normalize_label(text: str) -> str:
    """Lowercase, trim and collapse internal whitespace."""
    return _WS.sub(" ", text.strip()).lower()


class GraphKind(Enum):
    EXTRACTED = "extracted"
    GROUND_TRUTH = "ground_truth"


class ArcFlag(Enum):
    SUSPECTED_TRANSITIVE = "suspected_transitive"
    ON_DIRECTED_CYCLE = "on_directed_cycle"


@dataclass(frozen=True)
class Entity:
    """A canonicalized named thing extracted from text; a node of the graph.

    ``surface_forms`` holds every synonym merged into this entity and always
    contains ``canonical_label``. ``first_offset`` is the character index of
    the earliest mention, used only for deterministic ordering.
    """

    id: str
    canonical_label: str
    surface_forms: frozenset[str] = field(default=frozenset())
    first_offset: int = 0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("entity id must be non-empty")
        if not self.canonical_label:
            raise ValueError("canonical_label must be non-empty")
        if self.canonical_label != normalize_label(self.canonical_label):
            raise ValueError(
                f"canonical_label {self.canonical_label!r} is not normalized"
            )
        if self.first_offset < 0:
            raise ValueError("first_offset must be >= 0")
        forms = frozenset(self.surface_forms) | {self.canonical_label}
        object.__setattr__(self, "surface_forms", forms)


@dataclass(eq=False)
class Arc:
    """A directed cause -> effect relation between two entity ids."""

    cause: str
    effect: str
    flags: set[ArcFlag] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.cause == self.effect:
            raise SelfLoopError(f"self-loop on {self.cause!r}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.cause, self.effect)


class CausalGraph:
    """Immutable directed graph over entities with at most one arc per pair.

    Extracted graphs additionally refuse opposite-arc pairs: the pipeline
    queries each unordered pair exactly once, so a 2-cycle cannot be a real
    answer and is rejected as a construction bug.
    """

    def __init__(
        self,
        kind: GraphKind,
        entities: Iterable[Entity] = (),
        arcs: Iterable[Arc] = (),
    ):
        self.kind = kind
        self._entities: dict[str, Entity] = {}
        labels: set[str] = set()
        for entity in entities:
            if entity.id in self._entities:
                raise ValueError(f"duplicate entity id {entity.id!r}")
            if entity.canonical_label in labels:
                # labels are the cross-graph identity used by compare_graphs
                raise ValueError(
                    f"duplicate canonical label {entity.canonical_label!r}"
                )
            labels.add(entity.canonical_label)
            self._entities[entity.id] = entity
        self._arcs: dict[tuple[str, str], Arc] = {}
        for arc in arcs:
            for endpoint in arc.pair:
                if endpoint not in self._entities:
                    raise UnknownEntityError(f"unknown entity {endpoint!r}")
            if arc.pair in self._arcs:
                raise ValueError(f"duplicate arc {arc.cause!r} -> {arc.effect!r}")
            if self.kind is GraphKind.EXTRACTED and (arc.effect, arc.cause) in self._arcs:
                raise OppositeArcConflictError(
                    f"arc {arc.cause!r} -> {arc.effect!r} opposes an existing arc"
                )
            self._arcs[arc.pair] = Arc(arc.cause, arc.effect, set(arc.flags))

    @property
    def entities(self) -> tuple[Entity, ...]:
        """Entities sorted by canonical label."""
        return tuple(
            sorted(self._entities.values(), key=lambda e: (e.canonical_label, e.id))
        )

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Arcs sorted by (cause, effect)."""
        return tuple(self._arcs[pair] for pair in sorted(self._arcs))

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise UnknownEntityError(f"unknown entity {entity_id!r}") from None

    def arc(self, cause: str, effect: str) -> Arc | None:
        return self._arcs.get((cause, effect))

    def __eq__(self, other: object) -> bool:
        """Structural equality: entities, arc pairs and arc flags.

        Kind and offsets are runtime metadata outside the structured file
        schema, so they do not take part in equality; this is what
        serialization round-trips preserve.
        """
        if not isinstance(other, CausalGraph):
            return NotImplemented
        mine = {
            e.id: (e.canonical_label, e.surface_forms) for e in self._entities.values()
        }
        theirs = {
            e.id: (e.canonical_label, e.surface_forms)
            for e in other._entities.values()
        }
        if mine != theirs:
            return False
        my_arcs = {pair: frozenset(arc.flags) for pair, arc in self._arcs.items()}
        their_arcs = {pair: frozenset(arc.flags) for pair, arc in other._arcs.items()}
        return my_arcs == their_arcs

    def __repr__(self) -> str:
        return (
            f"CausalGraph(kind={self.kind.value}, entities={len(self._entities)}, "
            f"arcs={len(self._arcs)})"
        )


@dataclass(frozen=True)
class CycleReport:
    """All simple directed cycles, each rotated to start at its smallest id."""

    cycles: tuple[tuple[str, ...], ...]

    @property
    def is_acyclic(self) -> bool:
        return not self.cycles

    def to_dict(self) -> dict:
        return {"is_acyclic": self.is_acyclic, "cycles": [list(c) for c in self.cycles]}


def _canonical_rotation(cycle: Sequence[str]) -> tuple[str, ...]:
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:]) + tuple(cycle[:pivot])


def _cycle_arcs(cycle: Sequence[str]) -> Iterator[tuple[str, str]]:
    for index, cause in enumerate(cycle):
        yield cause, cycle[(index + 1) % len(cycle)]


def detect_cycles(graph: CausalGraph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> CycleReport:
    """Enumerate every simple directed cycle of ``graph``.

    Cycles come back in canonical rotation (starting at the lexicographically
    smallest id) and sorted lexicographically. Every arc lying on at least one
    cycle gets the ``ON_DIRECTED_CYCLE`` flag; arcs off all cycles have it
    cleared, so the flag always reflects this graph.

    Raises :class:`CycleBudgetExceededError` past ``cycle_cap`` cycles, which
    signals pathological input rather than a normal extraction.
    """
    digraph = nx.DiGraph()
    digraph.add_nodes_from(entity.id for entity in graph.entities)
    digraph.add_edges_from(arc.pair for arc in graph.arcs)

    cycles: list[tuple[str, ...]] = []
    for cycle in nx.simple_cycles(digraph):
        cycles.append(_canonical_rotation(cycle))
        if len(cycles) > cycle_cap:
            raise CycleBudgetExceededError(
                f"more than {cycle_cap} simple cycles; raise the cap explicitly "
                "if this input is expected"
            )
    cycles.sort()

    on_cycle = {pair for cycle in cycles for pair in _cycle_arcs(cycle)}
    for arc in graph.arcs:
        if arc.pair in on_cycle:
            arc.flags.add(ArcFlag.ON_DIRECTED_CYCLE)
        else:
            arc.flags.discard(ArcFlag.ON_DIRECTED_CYCLE)

    return CycleReport(tuple(cycles))


def _reachable(
    adjacency: dict[str, list[str]], start: str, target: str, skip: tuple[str, str]
) -> bool:
    """BFS reachability from ``start`` to ``target`` ignoring the arc ``skip``."""
    frontier = [start]
    seen = {start}
    while frontier:
        node = frontier.pop()
        for successor in adjacency.get(node, ()):
            if (node, successor) == skip:
                continue
            if successor == target:
                return True
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return False


def flag_transitive_candidates(graph: CausalGraph) -> tuple[Arc, ...]:
    """Flag every arc shadowed by a longer directed path between its endpoints.

    An arc u -> v is a transitive candidate when a directed path u to v of
    length >= 2 exists that avoids the arc itself. Candidates are flagged
    ``SUSPECTED_TRANSITIVE`` and returned sorted by (cause, effect); the arc
    set itself never changes, because a shadowed arc may still be a genuine
    direct effect.
    """
    adjacency: dict[str, list[str]] = {}
    for arc in graph.arcs:
        adjacency.setdefault(arc.cause, []).append(arc.effect)
    flagged: list[Arc] = []
    for arc in graph.arcs:
        if _reachable(adjacency, arc.cause, arc.effect, skip=arc.pair):
            arc.flags.add(ArcFlag.SUSPECTED_TRANSITIVE)
            flagged.append(arc)
        else:
            arc.flags.discard(ArcFlag.SUSPECTED_TRANSITIVE)
    return tuple(flagged)


def enforce_acyclicity(
    graph: CausalGraph,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    report: CycleReport | None = None,
) -> tuple[CausalGraph, tuple[Arc, ...]]:
    """Greedily delete arcs until no directed cycle remains.

    While cycles remain, the arc lying on the most simple cycles is removed;
    ties prefer arcs already flagged ``SUSPECTED_TRANSITIVE``, then the
    lexicographically smallest (cause, effect). Returns the acyclic graph,
    whose arcs have ``ON_DIRECTED_CYCLE`` cleared, and the removed arcs in
    removal order; each removed arc keeps its flags, ``ON_DIRECTED_CYCLE``
    included. Deterministic for a given input.

    Cycles are enumerated once: removing an arc deletes exactly the cycles
    through it and creates none, so after each removal those cycles are
    dropped and the coverage counts recomputed. The first enumeration is the
    largest, so the ``cycle_cap`` check there is the only one needed. A
    caller that already holds ``detect_cycles(graph, cycle_cap)`` passes it
    as ``report`` (with the flags it set left as they are), and the cycles
    are not listed a second time.
    """
    work = CausalGraph(graph.kind, graph.entities, graph.arcs)
    if report is None:
        report = detect_cycles(work, cycle_cap=cycle_cap)
    if report.is_acyclic:
        return work, ()
    cycles = [set(_cycle_arcs(cycle)) for cycle in report.cycles]
    removed: list[Arc] = []
    while cycles:
        coverage: dict[tuple[str, str], int] = {}
        for cycle in cycles:
            for pair in cycle:
                coverage[pair] = coverage.get(pair, 0) + 1
        victim_pair = min(
            coverage,
            key=lambda pair: (
                -coverage[pair],
                ArcFlag.SUSPECTED_TRANSITIVE not in work.arc(*pair).flags,
                pair,
            ),
        )
        removed.append(work.arc(*victim_pair))
        cycles = [cycle for cycle in cycles if victim_pair not in cycle]
    victims = {arc.pair for arc in removed}
    result = CausalGraph(
        work.kind, work.entities, [arc for arc in work.arcs if arc.pair not in victims]
    )
    for arc in result.arcs:
        arc.flags.discard(ArcFlag.ON_DIRECTED_CYCLE)
    return result, tuple(removed)


@dataclass(frozen=True)
class GraphComparison:
    """Arc-level agreement between an extracted graph and a ground truth.

    Arcs are matched as ordered pairs of canonical labels. A false positive
    is an arc present in the extracted graph but not in the truth; a false
    negative is an arc in the truth that the extraction missed. When a
    denominator is empty the corresponding metric is 1 (its error set is
    necessarily empty too). ``transitive_fp_share`` is the fraction of false
    positives flagged as suspected transitive, or ``None`` when there are no
    false positives to take a share of.
    """

    true_positive_arcs: frozenset[tuple[str, str]]
    false_positive_arcs: frozenset[tuple[str, str]]
    false_negative_arcs: frozenset[tuple[str, str]]
    precision: Fraction
    recall: Fraction
    f1: Fraction
    transitive_fp_share: Fraction | None = None

    def to_dict(self) -> dict:
        return {
            "true_positives": sorted(self.true_positive_arcs),
            "false_positives": sorted(self.false_positive_arcs),
            "false_negatives": sorted(self.false_negative_arcs),
            "precision": float(self.precision),
            "recall": float(self.recall),
            "f1": float(self.f1),
            "transitive_fp_share": (
                None if self.transitive_fp_share is None
                else float(self.transitive_fp_share)
            ),
        }


def prf(tp: int, fp: int, fn: int) -> tuple[Fraction, Fraction, Fraction]:
    """Precision, recall and F1 from true/false-positive and false-negative counts.

    An empty denominator scores 1, since its error set is empty too; F1 is 0
    when precision and recall are both 0.
    """
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(1)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(1)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)
    return precision, recall, f1


def _label_pairs(graph: CausalGraph) -> frozenset[tuple[str, str]]:
    return frozenset(
        (graph.entity(arc.cause).canonical_label, graph.entity(arc.effect).canonical_label)
        for arc in graph.arcs
    )


def compare_graphs(extracted: CausalGraph, truth: CausalGraph) -> GraphComparison:
    """Partition arcs into TP/FP/FN by canonical label and score the match."""
    extracted_pairs = _label_pairs(extracted)
    truth_pairs = _label_pairs(truth)
    tp = extracted_pairs & truth_pairs
    fp = extracted_pairs - truth_pairs
    fn = truth_pairs - extracted_pairs
    precision, recall, f1 = prf(len(tp), len(fp), len(fn))
    return GraphComparison(
        true_positive_arcs=frozenset(tp),
        false_positive_arcs=frozenset(fp),
        false_negative_arcs=frozenset(fn),
        precision=precision,
        recall=recall,
        f1=f1,
    )


class GraphFormat(Enum):
    DOT = "dot"
    STRUCTURED = "structured"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _entity_record(entity: Entity) -> dict:
    return {
        "id": entity.id,
        "canonical_label": entity.canonical_label,
        "surface_forms": sorted(entity.surface_forms),
    }


def _arc_record(arc: Arc) -> dict:
    return {
        "cause": arc.cause,
        "effect": arc.effect,
        "flags": sorted(flag.value for flag in arc.flags),
    }


def serialize_graph(graph: CausalGraph, format: GraphFormat = GraphFormat.STRUCTURED) -> str:
    """Render the graph deterministically.

    Entities are sorted by canonical label and arcs by (cause, effect), so
    two graphs that are equal up to insertion order serialize identically.
    DOT output draws suspected-transitive arcs dashed.
    """
    if format is GraphFormat.DOT:
        lines = ["digraph causal {"]
        for entity in graph.entities:
            lines.append(
                f"  {_dot_quote(entity.id)} "
                f"[label={_dot_quote(entity.canonical_label)}];"
            )
        for arc in graph.arcs:
            attrs = " [style=dashed]" if ArcFlag.SUSPECTED_TRANSITIVE in arc.flags else ""
            lines.append(f"  {_dot_quote(arc.cause)} -> {_dot_quote(arc.effect)}{attrs};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    payload = {
        "entities": [_entity_record(entity) for entity in graph.entities],
        "arcs": [_arc_record(arc) for arc in graph.arcs],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


_REQUIRED = object()


def _field(record: object, key: str, kind: type, default: object = _REQUIRED):
    """``record[key]``, checked to be a ``kind``; ``default`` when absent, if given."""
    if not isinstance(record, dict):
        raise GraphFileError(f"expected a JSON object, not {type(record).__name__}")
    if key not in record:
        if default is _REQUIRED:
            raise GraphFileError(f"missing key {key!r}")
        return default
    value = record[key]
    if not isinstance(value, kind):
        raise GraphFileError(f"{key!r} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _parse_entity_record(record: object) -> Entity:
    forms = _field(record, "surface_forms", list, [])
    try:
        return Entity(
            id=_field(record, "id", str),
            canonical_label=_field(record, "canonical_label", str),
            surface_forms=frozenset(str(form) for form in forms),
        )
    except ValueError as exc:
        raise GraphFileError(str(exc)) from None


def _parse_arc_record(record: object) -> Arc:
    cause, effect = _field(record, "cause", str), _field(record, "effect", str)
    try:
        flags = {ArcFlag(name) for name in _field(record, "flags", list, [])}
    except ValueError:
        raise GraphFileError(f"unknown arc flag in {record!r}") from None
    try:
        return Arc(cause, effect, flags)
    except SelfLoopError as exc:
        raise GraphFileError(str(exc)) from None


def parse_graph(text: str, kind: GraphKind = GraphKind.EXTRACTED) -> CausalGraph:
    """Parse a structured graph file (the inverse of STRUCTURED serialization)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileError(f"not valid JSON: {exc}") from None
    entities = [_parse_entity_record(r) for r in _field(payload, "entities", list)]
    arcs = [_parse_arc_record(r) for r in _field(payload, "arcs", list)]
    try:
        return CausalGraph(kind, entities, arcs)
    except (UnknownEntityError, OppositeArcConflictError, ValueError) as exc:
        raise GraphFileError(str(exc)) from None
