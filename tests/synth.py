"""Deterministic builders for offline benchmark files and replay fixtures."""

from __future__ import annotations

from causaltext.evaluation import SemEvalRecord, write_semeval
from causaltext.gateway import ReplayEntry, ReplayFixture
from causaltext.graph import Entity, normalize_label
from causaltext.prompts import (
    OrientationQuestion,
    render_entity_prompt,
    render_orientation_prompt,
)


def _record(record_id: int, e1: str, e2: str, label: str) -> SemEvalRecord:
    sentence = f"The {e1} level shifted together with the {e2} reading."
    e1_start = sentence.index(e1)
    e2_start = sentence.index(e2)
    from causaltext.evaluation import _CAUSAL_LABELS

    return SemEvalRecord(
        record_id=record_id,
        sentence=sentence,
        e1_span=e1,
        e2_span=e2,
        e1_start=e1_start,
        e2_start=e2_start,
        relation_label=label,
        causal_orientation=_CAUSAL_LABELS.get(label),
    )


def _question_fingerprint(record: SemEvalRecord) -> str:
    e1 = Entity(
        id="e1",
        canonical_label=normalize_label(record.e1_span),
        first_offset=record.e1_start,
    )
    e2 = Entity(
        id="e2",
        canonical_label=normalize_label(record.e2_span),
        first_offset=record.e2_start,
    )
    question = OrientationQuestion.from_pair(record.sentence, e1, e2)
    return render_orientation_prompt(question).fingerprint


def benchmark_with_scripted_replies() -> tuple[str, ReplayFixture]:
    """A 1003-causal-sentence benchmark plus replies matching the target grid.

    Scripted outcomes: 335 forward sentences answered A, 6 answered B;
    650 backward sentences answered B, 7 answered A; 5 sentences answered C
    (the abstentions). Two non-causal records exercise the filter.
    """
    records: list[SemEvalRecord] = []
    replies: dict[str, str] = {}
    record_id = 1

    def add(count: int, label: str, answer: str) -> None:
        nonlocal record_id
        for _ in range(count):
            record = _record(record_id, f"factor{record_id:04d}", f"outcome{record_id:04d}", label)
            records.append(record)
            replies[_question_fingerprint(record)] = (
                f"Step by step: the text links the two readings.\n<Answer>{answer}</Answer>"
            )
            record_id += 1

    add(335, "Cause-Effect(e1,e2)", "A")
    add(6, "Cause-Effect(e1,e2)", "B")
    add(650, "Cause-Effect(e2,e1)", "B")
    add(7, "Cause-Effect(e2,e1)", "A")
    add(3, "Cause-Effect(e1,e2)", "C")
    add(2, "Cause-Effect(e2,e1)", "C")
    for _ in range(2):
        records.append(
            _record(record_id, f"factor{record_id:04d}", f"outcome{record_id:04d}",
                    "Member-Collection(e1,e2)")
        )
        record_id += 1

    fixture = ReplayFixture(
        entries={fp: ReplayEntry(reply) for fp, reply in replies.items()},
    )
    return write_semeval(records), fixture


def pair_rule(i: int, j: int, modulus: int = 3) -> str:
    """Deterministic scripted answer for the pair of the i-th and j-th entity.

    Larger moduli give sparser graphs; big documents need one to keep the
    scripted graph's cycle count sane.
    """
    value = (i + j) % modulus
    return "A" if value == 0 else ("B" if value == 1 else "C")


def pipeline_document(
    entity_count: int,
    domain_hint: str = "",
    latency: float = 0.0,
    modulus: int = 3,
    min_chars: int = 0,
) -> tuple[str, ReplayFixture]:
    """A synthetic abstract naming ``entity_count`` entities plus its fixture.

    The fixture answers the entity prompt with one span per entity and every
    pair question according to :func:`pair_rule`, so the expected graph can
    be re-derived independently in tests. Filler sentences that name no
    entity pad the text to at least ``min_chars`` characters.
    """
    names = [f"factor{i:02d}" for i in range(entity_count)]
    source_text = "The study followed " + ", ".join(names) + " across the cohort."
    filler = " Samples were taken again at every site."
    source_text += filler * -(-max(0, min_chars - len(source_text)) // len(filler))
    entries: dict[str, ReplayEntry] = {}

    entity_reply = "\n".join(f"<Entity>{name}</Entity>" for name in names)
    entity_prompt = render_entity_prompt(source_text, domain_hint)
    entries[entity_prompt.fingerprint] = ReplayEntry(entity_reply, latency)

    entities = [
        Entity(id=name, canonical_label=name, first_offset=source_text.index(name))
        for name in names
    ]
    for i in range(entity_count):
        for j in range(i + 1, entity_count):
            question = OrientationQuestion.from_pair(source_text, entities[i], entities[j])
            prompt = render_orientation_prompt(question)
            entries[prompt.fingerprint] = ReplayEntry(
                f"Considering the cohort data.\n<Answer>{pair_rule(i, j, modulus)}</Answer>",
                latency,
            )
    return source_text, ReplayFixture(entries=entries)


def expected_pipeline_arcs(entity_count: int, modulus: int = 3) -> set[tuple[str, str]]:
    """Arc set :func:`pipeline_document` should produce, derived by the rule."""
    names = [f"factor{i:02d}" for i in range(entity_count)]
    arcs: set[tuple[str, str]] = set()
    for i in range(entity_count):
        for j in range(i + 1, entity_count):
            answer = pair_rule(i, j, modulus)
            if answer == "A":
                arcs.add((names[i], names[j]))
            elif answer == "B":
                arcs.add((names[j], names[i]))
    return arcs
