"""Prompt rendering and reply parsing for the pairwise causal queries.

The orientation prompt presents a text plus two entities and asks for one of
three options: A (first entity causes the second), B (the reverse) or C (not
directly causally related). Option A/B assignment is anchored to the question
order, so a Forward verdict always means ``entity_a -> entity_b`` no matter
how the entities appear in the text. Templates live as resource files next to
this module.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib.resources import files

from .errors import EmptyTextError, NoEntitiesFoundError
from .graph import Entity, normalize_label


@lru_cache(maxsize=None)
def _template(name: str) -> str:
    return (files("causaltext") / "templates" / name).read_text(encoding="utf-8")


def prompt_fingerprint(system_text: str, user_text: str) -> str:
    """Stable content hash of a prompt; the replay and cache key."""
    digest = hashlib.sha256()
    digest.update(system_text.encode("utf-8"))
    digest.update(b"\x1f")
    digest.update(user_text.encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class RenderedPrompt:
    system_text: str
    user_text: str
    fingerprint: str

    @classmethod
    def create(cls, system_text: str, user_text: str) -> "RenderedPrompt":
        return cls(system_text, user_text, prompt_fingerprint(system_text, user_text))


def _form_pattern(surface_form: str) -> re.Pattern | None:
    """Pattern for :func:`find_first_offset`'s matching rule; None for a blank form."""
    tokens = [re.escape(token) for token in surface_form.split()]
    if not tokens:
        return None
    return re.compile(r"\s+".join(tokens), re.IGNORECASE)


def find_first_offset(source_text: str, surface_form: str) -> int | None:
    """Earliest character offset of a surface form, or None when absent.

    Matching is case-insensitive and tolerates arbitrary whitespace (line
    wraps) between the tokens of a multi-word form.
    """
    pattern = _form_pattern(surface_form)
    match = pattern.search(source_text) if pattern else None
    return match.start() if match else None


def entity_offset(source_text: str, entity: Entity) -> int | None:
    """Earliest offset over all surface forms of ``entity``."""
    offsets = [
        offset
        for form in entity.surface_forms
        if (offset := find_first_offset(source_text, form)) is not None
    ]
    return min(offsets) if offsets else None


@dataclass(frozen=True)
class OrientationQuestion:
    """One pairwise cause-effect query over a source text.

    ``entity_a`` precedes ``entity_b`` in the document (first_offset order,
    ties broken by canonical label). The question searches nothing: its
    callers locate the entities where they enter (extraction,
    :func:`~causaltext.pipeline.enumerate_pairs`, CPDAG orientation, the
    benchmark records).
    """

    source_text: str
    entity_a: Entity
    entity_b: Entity

    def __post_init__(self) -> None:
        if self.entity_a.canonical_label == self.entity_b.canonical_label:
            raise ValueError("a question needs two distinct entities")

    @classmethod
    def from_pair(cls, source_text: str, first: Entity, second: Entity) -> "OrientationQuestion":
        """Build a question with the two entities in document order."""
        ordered = sorted(
            (first, second), key=lambda e: (e.first_offset, e.canonical_label)
        )
        return cls(source_text=source_text, entity_a=ordered[0], entity_b=ordered[1])

    @property
    def pair_key(self) -> tuple[str, str]:
        return (self.entity_a.id, self.entity_b.id)


def render_orientation_prompt(question: OrientationQuestion) -> RenderedPrompt:
    """Render the three-option orientation prompt for one entity pair."""
    user_text = _template("orientation.txt").format(
        source_text=question.source_text,
        entity_a=question.entity_a.canonical_label,
        entity_b=question.entity_b.canonical_label,
    )
    return RenderedPrompt.create("", user_text)


def render_reask_prompt(prior: RenderedPrompt) -> RenderedPrompt:
    """Append the answer-tag reminder to a prompt whose reply was unparsable."""
    user_text = prior.user_text.rstrip("\n") + "\n\n" + _template("reask.txt").rstrip("\n") + "\n"
    return RenderedPrompt.create(prior.system_text, user_text)


class Verdict(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    NO_RELATION = "no_relation"
    UNPARSABLE = "unparsable"


def oriented(pair: tuple[str, str], verdict: Verdict) -> tuple[str, str] | None:
    """The (cause, effect) arc a verdict asserts over a question's ``pair``.

    Forward keeps the question order, Backward reverses it; NoRelation and
    Unparsable assert no arc and give None.
    """
    if verdict is Verdict.FORWARD:
        return pair
    if verdict is Verdict.BACKWARD:
        return (pair[1], pair[0])
    return None


_ANSWER_TAG = re.compile(r"<Answer>(.*?)</Answer>", re.IGNORECASE | re.DOTALL)
_OPTION_MAP = {"A": Verdict.FORWARD, "B": Verdict.BACKWARD, "C": Verdict.NO_RELATION}


def parse_verdict(raw_reply: str) -> Verdict:
    """Map a model reply onto a verdict; never raises.

    The reply is scanned for ``<Answer>...</Answer>`` tags and the last one
    wins, since step-by-step reasoning may mention candidate answers before
    the conclusion. The option letter is read case-insensitively with
    surrounding whitespace tolerated; anything else is ``UNPARSABLE``.
    """
    matches = _ANSWER_TAG.findall(raw_reply)
    if not matches:
        return Verdict.UNPARSABLE
    return _OPTION_MAP.get(matches[-1].strip().upper(), Verdict.UNPARSABLE)


def render_entity_prompt(source_text: str, domain_hint: str = "") -> RenderedPrompt:
    """Render the entity-extraction prompt.

    ``domain_hint`` is interpolated into an emphasis sentence (for example
    "diseases, medications, treatments, and symptoms" for medical text); when
    empty the emphasis sentence is omitted entirely.
    """
    if not source_text.strip():
        raise EmptyTextError("cannot extract entities from empty text")
    hint = domain_hint.strip()
    emphasis_clause = f" Place particular emphasis on {hint}." if hint else ""
    user_text = _template("entities.txt").format(
        source_text=source_text, emphasis_clause=emphasis_clause
    )
    return RenderedPrompt.create("", user_text)


@dataclass(frozen=True)
class EntityList:
    """Normalized entity spans plus synonym clusters parsed from a reply."""

    entities: tuple[str, ...]
    merge_groups: tuple[frozenset[str], ...]


_ENTITY_TAG = re.compile(r"<Entity>(.*?)</Entity>", re.IGNORECASE | re.DOTALL)
_GROUP_TAG = re.compile(r"<Group>(.*?)</Group>", re.IGNORECASE | re.DOTALL)


def parse_entity_list(raw_reply: str) -> EntityList:
    """Parse entity spans and synonym groups from an extraction reply.

    Spans are normalized (lowercase, trimmed, whitespace collapsed) and
    de-duplicated preserving first occurrence. Groups that overlap are merged
    so the clusters partition a subset of the entities; groups with fewer
    than two distinct members are dropped.
    """
    spans: list[str] = []
    seen: set[str] = set()
    for match in _ENTITY_TAG.finditer(raw_reply):
        span = normalize_label(match.group(1))
        if span and span not in seen:
            seen.add(span)
            spans.append(span)
    if not spans:
        raise NoEntitiesFoundError("reply contained no well-formed entity span")

    clusters: list[set[str]] = []
    for group_match in _GROUP_TAG.finditer(raw_reply):
        members = {
            span
            for tag in _ENTITY_TAG.finditer(group_match.group(1))
            if (span := normalize_label(tag.group(1)))
        }
        if len(members) < 2:
            continue
        overlapping = [c for c in clusters if c & members]
        for cluster in overlapping:
            members |= cluster
            clusters.remove(cluster)
        clusters.append(members)

    order = {span: index for index, span in enumerate(spans)}
    clusters.sort(key=lambda c: min(order.get(m, len(order)) for m in c))
    return EntityList(
        entities=tuple(spans),
        merge_groups=tuple(frozenset(c) for c in clusters),
    )
