"""Directed causal-graph model, structural analyses and comparison metrics.

A :class:`CausalGraph` is a set of entities (nodes) plus directed cause-effect
arcs. Graphs and arcs are immutable: the analyses (:func:`detect_cycles`,
:func:`flag_transitive_candidates`, :func:`enforce_acyclicity`) return reports,
arcs and new graphs and never change the graph they are given. Arc flags are
attached once, by :meth:`CausalGraph.with_flags`, to the graph that is written.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Collection, Iterable, Iterator

from .errors import (
    CycleBudgetExceededError,
    GraphFileError,
    OppositeArcConflictError,
    SelfLoopError,
    UnknownEntityError,
)
from .jsontext import _json_chunks

DEFAULT_CYCLE_CAP = 10_000

_WS = re.compile(r"\s+")


def normalize_label(text: str) -> str:
    """Lowercase, trim and collapse internal whitespace."""
    return _WS.sub(" ", text.strip()).lower()


def _encodable(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8: it holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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


@dataclass(frozen=True)
class Arc:
    """A directed cause -> effect relation between two entity ids."""

    cause: str
    effect: str
    flags: frozenset[ArcFlag] = frozenset()

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
            self._arcs[arc.pair] = arc

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

    def with_flags(self, flagged: dict[ArcFlag, Collection[tuple[str, str]]]) -> CausalGraph:
        """This graph with each arc carrying exactly the flags whose pairs include it."""
        return CausalGraph(self.kind, self._entities.values(), [
            Arc(*pair, frozenset(flag for flag, pairs in flagged.items() if pair in pairs))
            for pair in self._arcs
        ])

    def __eq__(self, other: object) -> bool:
        """Structural equality: entities, arc pairs and arc flags.

        Kind and offsets are runtime metadata outside the structured file
        schema, so they do not take part in equality; this is what
        serialization round-trips preserve.
        """
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return self._structure() == other._structure()

    def _structure(self) -> tuple[dict, dict]:
        entities = {e.id: (e.canonical_label, e.surface_forms) for e in self._entities.values()}
        return entities, {pair: arc.flags for pair, arc in self._arcs.items()}

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

    @property
    def on_cycle_pairs(self) -> frozenset[tuple[str, str]]:
        """The (cause, effect) pair of every arc on at least one listed cycle."""
        return frozenset(pair for cycle in self.cycles for pair in _cycle_arcs(cycle))

    def to_dict(self) -> dict:
        return {"is_acyclic": self.is_acyclic, "cycles": [list(c) for c in self.cycles]}


def _cycle_arcs(cycle: tuple[str, ...]) -> Iterator[tuple[str, str]]:
    """The (cause, effect) pairs of ``cycle``, the closing arc last."""
    return zip(cycle, cycle[1:] + cycle[:1])


def _successors(graph: CausalGraph) -> dict[str, list[str]]:
    """Every entity id mapped to the effects of its arcs."""
    successors: dict[str, list[str]] = {node: [] for node in graph._entities}
    for cause, effect in graph._arcs:
        successors[cause].append(effect)
    return successors


def _reach(start: str, links: dict[str, list[str]], allowed: set[str]) -> set[str]:
    """The nodes of ``allowed`` that ``links`` leads to from ``start``, and ``start``."""
    seen = {start}
    stack = [start]
    while stack:
        for node in links[stack.pop()]:
            if node not in seen and node in allowed:
                seen.add(node)
                stack.append(node)
    return seen


def _simple_cycles(successors: dict[str, list[str]]) -> Iterator[tuple[str, ...]]:
    """Every simple directed cycle of ``successors``, by Johnson's (1975) search.

    The search is rooted at each node in sorted order and kept to the strong
    component of the root among the nodes not yet rooted, so each cycle is
    found once, starting at its smallest node.
    """
    predecessors: dict[str, list[str]] = {node: [] for node in successors}
    for cause, effects in successors.items():
        for effect in effects:
            predecessors[effect].append(cause)
    remaining = set(successors)
    for start in sorted(successors):
        component = _reach(start, successors, remaining) & _reach(start, predecessors, remaining)
        remaining.discard(start)
        if len(component) < 2:
            continue
        links = {node: [n for n in successors[node] if n in component] for node in component}
        blocked = {start}
        blocked_by: defaultdict[str, set[str]] = defaultdict(set)
        path = [start]
        pending = [iter(links[start])]  # each path node's successors not yet tried
        closed = [False]  # whether a cycle closed below each path node (Johnson's f)
        while pending:
            for node in pending[-1]:
                if node == start:
                    yield tuple(path)
                    closed[-1] = True
                elif node not in blocked:
                    blocked.add(node)
                    path.append(node)
                    pending.append(iter(links[node]))
                    closed.append(False)
                    break
            else:
                pending.pop()
                node = path.pop()
                if closed.pop():
                    unblock = [node]
                    while unblock:
                        freed = unblock.pop()
                        if freed in blocked:
                            blocked.discard(freed)
                            unblock.extend(blocked_by.pop(freed, ()))
                    if closed:
                        closed[-1] = True
                else:
                    for successor in links[node]:
                        blocked_by[successor].add(node)


def detect_cycles(graph: CausalGraph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> CycleReport:
    """Enumerate every simple directed cycle of ``graph``.

    Cycles come back in canonical rotation (starting at the lexicographically
    smallest id) and sorted lexicographically.

    Raises :class:`CycleBudgetExceededError` past ``cycle_cap`` cycles, which
    signals pathological input rather than a normal extraction.
    """
    cycles: list[tuple[str, ...]] = []
    for cycle in _simple_cycles(_successors(graph)):
        cycles.append(cycle)
        if len(cycles) > cycle_cap:
            raise CycleBudgetExceededError(
                f"more than {cycle_cap} simple cycles; raise the cap explicitly "
                "if this input is expected"
            )
    cycles.sort()
    return CycleReport(tuple(cycles))


def _has_detour(successors: dict[str, list[str]], cause: str, effect: str) -> bool:
    """Whether a directed path ``cause`` to ``effect`` exists that avoids their arc."""
    stack = [node for node in successors[cause] if node != effect]
    seen = {cause, *stack}
    while stack:
        for node in successors[stack.pop()]:
            if node == effect:
                return True
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return False


def flag_transitive_candidates(graph: CausalGraph) -> tuple[Arc, ...]:
    """The arcs of ``graph`` shadowed by a longer directed path between their endpoints.

    An arc u -> v is a transitive candidate when a directed path u to v of
    length >= 2 exists that avoids the arc itself. Candidates come back sorted
    by (cause, effect); the caller decides whether to flag them
    ``SUSPECTED_TRANSITIVE`` or drop them, because a shadowed arc may still be
    a genuine direct effect.
    """
    successors = _successors(graph)
    return tuple(arc for arc in graph.arcs if _has_detour(successors, *arc.pair))


def enforce_acyclicity(
    graph: CausalGraph, report: CycleReport, transitive: Iterable[Arc]
) -> tuple[CausalGraph, tuple[Arc, ...]]:
    """Greedily delete arcs until no directed cycle remains.

    ``report`` is ``detect_cycles(graph)``, which owns the cycle cap. While
    cycles remain, the arc lying on the most of them is removed; ties prefer
    the arcs in ``transitive`` (``flag_transitive_candidates(graph)``), then
    the smallest (cause, effect). Removing an arc deletes exactly the cycles
    through it and creates none, so the report's list is never rebuilt.
    Returns a new acyclic graph and the removed arcs of ``graph`` in removal
    order.
    """
    # arcs sorted by (cause, effect), so an arc's index orders as its pair does
    arcs = graph.arcs
    index = {arc.pair: i for i, arc in enumerate(arcs)}
    suspects = {index[arc.pair] for arc in transitive}
    cycles = [frozenset(index[pair] for pair in _cycle_arcs(cycle))
              for cycle in report.cycles]
    removed: list[int] = []
    while cycles:
        coverage = Counter(chain.from_iterable(cycles))
        victim = min(coverage, key=lambda i: (-coverage[i], i not in suspects, i))
        removed.append(victim)
        cycles = [cycle for cycle in cycles if victim not in cycle]
    victims = set(removed)
    result = CausalGraph(
        graph.kind, graph.entities, [arc for i, arc in enumerate(arcs) if i not in victims]
    )
    return result, tuple(arcs[i] for i in removed)


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
    transitive_fp_share: Fraction | None

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


def _label_pairs(graph: CausalGraph, flag: ArcFlag | None = None) -> frozenset[tuple[str, str]]:
    """The arcs as (cause, effect) canonical labels; with ``flag``, only arcs carrying it."""
    return frozenset(
        (graph.entity(arc.cause).canonical_label, graph.entity(arc.effect).canonical_label)
        for arc in graph.arcs
        if flag is None or flag in arc.flags
    )


def compare_graphs(extracted: CausalGraph, truth: CausalGraph) -> GraphComparison:
    """Partition arcs into TP/FP/FN by canonical label and score the match."""
    extracted_pairs = _label_pairs(extracted)
    truth_pairs = _label_pairs(truth)
    tp = extracted_pairs & truth_pairs
    fp = extracted_pairs - truth_pairs
    fn = truth_pairs - extracted_pairs
    precision, recall, f1 = prf(len(tp), len(fp), len(fn))
    transitive = fp & _label_pairs(extracted, ArcFlag.SUSPECTED_TRANSITIVE)
    return GraphComparison(
        true_positive_arcs=tp,
        false_positive_arcs=fp,
        false_negative_arcs=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        transitive_fp_share=Fraction(len(transitive), len(fp)) if fp else None,
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
    return "".join(_json_chunks(payload))


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
    if isinstance(value, str) and not _encodable(value):
        raise GraphFileError(f"{key!r} is not valid UTF-8 text: {value!r}")
    return value


def _parse_entity_record(record: object) -> Entity:
    forms = _field(record, "surface_forms", list, [])
    if not all(isinstance(form, str) for form in forms):
        raise GraphFileError(f"'surface_forms' must hold strings, not {forms!r}")
    if not all(map(_encodable, forms)):
        raise GraphFileError(f"'surface_forms' must hold valid UTF-8 text, not {forms!r}")
    return Entity(
        id=_field(record, "id", str),
        canonical_label=_field(record, "canonical_label", str),
        surface_forms=frozenset(forms),
    )


def _parse_arc_record(record: object) -> Arc:
    cause, effect = _field(record, "cause", str), _field(record, "effect", str)
    try:
        flags = frozenset(ArcFlag(name) for name in _field(record, "flags", list, []))
    except ValueError:
        raise GraphFileError(f"unknown arc flag in {record!r}") from None
    return Arc(cause, effect, flags)


def parse_graph(text: str, kind: GraphKind = GraphKind.EXTRACTED) -> CausalGraph:
    """Parse a structured graph file (the inverse of STRUCTURED serialization)."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphFileError(f"not valid JSON: {exc}") from None
    try:
        entities = [_parse_entity_record(r) for r in _field(payload, "entities", list)]
        arcs = [_parse_arc_record(r) for r in _field(payload, "arcs", list)]
        return CausalGraph(kind, entities, arcs)
    except (SelfLoopError, UnknownEntityError, OppositeArcConflictError, ValueError) as exc:
        raise GraphFileError(str(exc)) from None
