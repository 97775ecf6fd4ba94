"""Benchmark harnesses: pairwise orientation evaluation and graph comparison.

The pairwise benchmark uses tagged-sentence records in the SemEval relation
format: four-line blocks of id + quoted sentence, relation label, optional
comment and a blank separator. Only records carrying a directed cause-effect
label are evaluated; the model is asked for the orientation between the two
tagged entities, abstentions (option C on a causal sentence) are excluded
from the confusion grid but reported alongside it.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EmptyEvaluationSetError, ParseError
from .gateway import Gateway
from .graph import (
    ArcFlag,
    CausalGraph,
    GraphComparison,
    GraphKind,
    compare_graphs,
    Entity,
    normalize_label,
    prf,
)
from .pipeline import PipelineRun, _query_with_exchanges, fan_out
from .prompts import OrientationQuestion, Verdict, oriented

log = logging.getLogger(__name__)


class Orientation(Enum):
    E1_CAUSES_E2 = "e1_causes_e2"
    E2_CAUSES_E1 = "e2_causes_e1"


_CAUSAL_LABELS = {
    "Cause-Effect(e1,e2)": Orientation.E1_CAUSES_E2,
    "Cause-Effect(e2,e1)": Orientation.E2_CAUSES_E1,
}


@dataclass(frozen=True)
class SemEvalRecord:
    """One benchmark sentence with its two tagged entities.

    ``sentence`` is the tag-free text; the spans sit at ``e1_start`` and
    ``e2_start``. ``causal_orientation`` is None for non-causal relation
    labels, which the harness skips.
    """

    record_id: int
    sentence: str
    e1_span: str
    e2_span: str
    e1_start: int
    e2_start: int
    relation_label: str
    causal_orientation: Orientation | None

    def __post_init__(self) -> None:
        for span, start in ((self.e1_span, self.e1_start), (self.e2_span, self.e2_start)):
            if not span:
                raise ValueError("entity spans must be non-empty")
            if self.sentence[start : start + len(span)] != span:
                raise ValueError(f"span {span!r} does not occur at offset {start}")
        expected = _CAUSAL_LABELS.get(self.relation_label)
        if expected is not self.causal_orientation:
            raise ValueError(
                f"orientation {self.causal_orientation} does not match label "
                f"{self.relation_label!r}"
            )


_ID_LINE = re.compile(r"^(\d+)\t\"(.*)\"$")
_TAG = re.compile(r"</?e[12]>")


def _split_tagged_sentence(tagged: str, line_number: int) -> tuple[str, dict[str, int]]:
    marks: dict[str, int] = {}
    parts: list[str] = []
    cursor = 0
    length = 0
    for match in _TAG.finditer(tagged):
        parts.append(tagged[cursor : match.start()])
        length += match.start() - cursor
        tag = match.group(0)
        if tag in marks:
            raise ParseError(line_number, f"repeated tag {tag}")
        marks[tag] = length
        cursor = match.end()
    parts.append(tagged[cursor:])
    missing = {"<e1>", "</e1>", "<e2>", "</e2>"} - marks.keys()
    if missing:
        raise ParseError(line_number, f"missing tag {sorted(missing)[0]}")
    if marks["<e1>"] > marks["</e1>"] or marks["<e2>"] > marks["</e2>"]:
        raise ParseError(line_number, "entity close tag precedes its open tag")
    return "".join(parts), marks


def parse_semeval(file_text: str) -> tuple[SemEvalRecord, ...]:
    """Parse a benchmark file into records; LF and CRLF are both accepted."""
    lines = file_text.splitlines()
    records: list[SemEvalRecord] = []
    seen_ids: set[int] = set()
    index = 0
    while index < len(lines):
        if not lines[index].strip():
            index += 1
            continue
        line_number = index + 1
        match = _ID_LINE.match(lines[index])
        if not match:
            raise ParseError(line_number, "expected '<id>\\t\"<sentence>\"'")
        record_id = int(match.group(1))
        if record_id in seen_ids:
            raise ParseError(line_number, f"duplicate record id {record_id}")
        seen_ids.add(record_id)
        sentence, marks = _split_tagged_sentence(match.group(2), line_number)
        e1_start, e1_end = marks["<e1>"], marks["</e1>"]
        e2_start, e2_end = marks["<e2>"], marks["</e2>"]
        if e1_end == e1_start or e2_end == e2_start:
            raise ParseError(line_number, "empty entity span")
        index += 1
        if index >= len(lines) or not lines[index].strip():
            raise ParseError(line_number + 1, "missing relation label line")
        relation_label = lines[index].strip()
        orientation = _CAUSAL_LABELS.get(relation_label)
        if orientation is None and relation_label.startswith("Cause-Effect"):
            raise ParseError(index + 1, f"malformed causal label {relation_label!r}")
        index += 1
        if index < len(lines) and lines[index].strip().startswith("Comment"):
            index += 1
        if index < len(lines) and lines[index].strip():
            raise ParseError(index + 1, "expected a blank separator line")
        records.append(
            SemEvalRecord(
                record_id=record_id,
                sentence=sentence,
                e1_span=sentence[e1_start:e1_end],
                e2_span=sentence[e2_start:e2_end],
                e1_start=e1_start,
                e2_start=e2_start,
                relation_label=relation_label,
                causal_orientation=orientation,
            )
        )
    return tuple(records)


def write_semeval(records: Iterable[SemEvalRecord]) -> str:
    """Render records back to the on-disk format (inverse of parse_semeval)."""
    blocks = []
    for record in records:
        insertions = sorted(
            (
                (record.e1_start, "<e1>"),
                (record.e1_start + len(record.e1_span), "</e1>"),
                (record.e2_start, "<e2>"),
                (record.e2_start + len(record.e2_span), "</e2>"),
            ),
            key=lambda item: item[0],
            reverse=True,
        )
        tagged = record.sentence
        for position, tag in insertions:
            tagged = tagged[:position] + tag + tagged[position:]
        blocks.append(f'{record.record_id}\t"{tagged}"\n{record.relation_label}\n')
    return "\n".join(blocks)


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 grid of (predicted, truth) counts over the two orientations.

    Row/column 0 is "first entity causes the second". Abstentions (the model
    denied a causal relation on a causal sentence) and unparsable replies are
    excluded from the grid and counted separately.
    """

    grid: tuple[tuple[int, int], tuple[int, int]]
    abstained: int = 0
    unparsable: int = 0

    def __post_init__(self) -> None:
        counts = [c for row in self.grid for c in row] + [self.abstained, self.unparsable]
        if any(c < 0 for c in counts):
            raise ValueError("confusion counts must be non-negative")

    @property
    def grid_total(self) -> int:
        return sum(c for row in self.grid for c in row)

    @property
    def record_total(self) -> int:
        return self.grid_total + self.abstained + self.unparsable

    def to_dict(self) -> dict:
        return {
            "grid": [list(row) for row in self.grid],
            "abstained": self.abstained,
            "unparsable": self.unparsable,
        }


@dataclass(frozen=True)
class ClassMetrics:
    precision: Fraction
    recall: Fraction
    f1: Fraction

    def to_dict(self) -> dict:
        return {
            "precision": float(self.precision),
            "recall": float(self.recall),
            "f1": float(self.f1),
        }


@dataclass(frozen=True)
class PairwiseReport:
    """Confusion grid plus the derived per-class and aggregate metrics."""

    confusion: ConfusionMatrix
    forward: ClassMetrics
    backward: ClassMetrics
    macro_f1: Fraction
    micro_accuracy: Fraction

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.to_dict(),
            "forward": self.forward.to_dict(),
            "backward": self.backward.to_dict(),
            "macro_f1": float(self.macro_f1),
            "micro_accuracy": float(self.micro_accuracy),
        }


def compute_report(confusion: ConfusionMatrix) -> PairwiseReport:
    """Derive all metrics from the grid alone.

    Macro-F1 is the unweighted mean of the two class F1 scores; micro
    accuracy is the grid trace over the grid total. Abstained and unparsable
    records stay out of every denominator but are echoed in the report.
    """
    if confusion.grid_total == 0:
        raise EmptyEvaluationSetError("confusion grid is empty")
    (ff, fb), (bf, bb) = confusion.grid
    forward = ClassMetrics(*prf(tp=ff, fp=fb, fn=bf))
    backward = ClassMetrics(*prf(tp=bb, fp=bf, fn=fb))
    return PairwiseReport(
        confusion=confusion,
        forward=forward,
        backward=backward,
        macro_f1=(forward.f1 + backward.f1) / 2,
        micro_accuracy=Fraction(ff + bb, confusion.grid_total),
    )


def render_confusion_table(confusion: ConfusionMatrix) -> str:
    """Human-readable table in the benchmark's row/column layout."""
    (ff, fb), (bf, bb) = confusion.grid
    lines = [
        f"{'':14s}{'truth A->B':>12s}{'truth A<-B':>12s}",
        f"{'pred A->B':14s}{ff:>12d}{fb:>12d}",
        f"{'pred A<-B':14s}{bf:>12d}{bb:>12d}",
        f"abstained: {confusion.abstained}",
        f"unparsable: {confusion.unparsable}",
    ]
    return "\n".join(lines)


def _record_question(record: SemEvalRecord) -> OrientationQuestion:
    e1 = Entity(id="e1", canonical_label=normalize_label(record.e1_span),
                first_offset=record.e1_start)
    e2 = Entity(id="e2", canonical_label=normalize_label(record.e2_span),
                first_offset=record.e2_start)
    return OrientationQuestion.from_pair(record.sentence, e1, e2)


def run_pairwise_eval(
    records: Sequence[SemEvalRecord], gateway: Gateway
) -> PairwiseReport:
    """Evaluate orientation prediction over the causal records.

    Each record becomes one orientation question between its two tagged
    entities in document order. A Forward verdict predicts that the first
    entity causes the second; NoRelation counts as an abstention and an
    unparsable reply (after the one re-ask) as unparsable.
    """
    causal = [r for r in records if r.causal_orientation is not None]
    if not causal:
        raise EmptyEvaluationSetError("no causal records to evaluate")

    grid = [[0, 0], [0, 0]]
    abstained = 0
    unparsable = 0

    def ask(record: SemEvalRecord) -> tuple[OrientationQuestion | None, Verdict]:
        try:
            question = _record_question(record)
        except ValueError:
            log.warning(
                "record %d: cannot build a question (identical spans); "
                "counting as unparsable",
                record.record_id,
            )
            return None, Verdict.UNPARSABLE
        verdict, _ = _query_with_exchanges(question, gateway)
        return question, verdict

    answers = fan_out(ask, causal, gateway.config.parallelism)
    for (question, verdict), record in zip(answers, causal):
        if verdict is Verdict.UNPARSABLE or question is None:
            unparsable += 1
            continue
        predicted = oriented(question.pair_key, verdict)
        if predicted is None:
            abstained += 1
            continue
        row = 0 if predicted == ("e1", "e2") else 1
        col = 0 if record.causal_orientation is Orientation.E1_CAUSES_E2 else 1
        grid[row][col] += 1

    confusion = ConfusionMatrix(
        grid=(tuple(grid[0]), tuple(grid[1])),
        abstained=abstained,
        unparsable=unparsable,
    )
    return compute_report(confusion)


def compare_with_transitive_share(
    extracted: CausalGraph, truth: CausalGraph
) -> GraphComparison:
    """Compare graphs and report the suspected-transitive share of the FPs."""
    comparison = compare_graphs(extracted, truth)
    if not comparison.false_positive_arcs:
        return comparison
    labels_to_arc = {
        (
            extracted.entity(arc.cause).canonical_label,
            extracted.entity(arc.effect).canonical_label,
        ): arc
        for arc in extracted.arcs
    }
    flagged = sum(
        1
        for pair in comparison.false_positive_arcs
        if ArcFlag.SUSPECTED_TRANSITIVE in labels_to_arc[pair].flags
    )
    share = Fraction(flagged, len(comparison.false_positive_arcs))
    return replace(comparison, transitive_fp_share=share)


def evaluate_graph_run(run: PipelineRun, truth: CausalGraph) -> GraphComparison:
    """Score one pipeline run against its expert-annotated ground truth."""
    if truth.kind is not GraphKind.GROUND_TRUTH:
        raise ValueError("the reference graph must have kind GROUND_TRUTH")
    return compare_with_transitive_share(run.graph, truth)
