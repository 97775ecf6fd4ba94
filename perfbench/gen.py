"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
texts, replies, fixtures and expected outputs. Prompts are rendered with the
package's own public prompt functions, exactly as a recording of a real run
would key them, so a change to prompt rendering changes the fixture keys too.
The expected graphs, verdicts and query budgets are derived from the scripted
answers alone, never from the program's outputs.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import textwrap
from dataclasses import dataclass, field

import networkx as nx

from causaltext.evaluation import Orientation, SemEvalRecord, write_semeval
from causaltext.graph import DEFAULT_CYCLE_CAP, Entity, normalize_label
from causaltext.pipeline import DEFAULT_ENTITY_CAP
from causaltext.prompts import (
    OrientationQuestion,
    render_entity_prompt,
    render_orientation_prompt,
    render_reask_prompt,
)


# Generator parameters of the synthetic abstracts. Why each value:
#
# RELATION_SHARE 0.2, REVERSAL_SHARE 0.05: a sparse causal story in which a
# model gets one in twenty related pairs backwards. At n=40 this gives a
# median of a few hundred simple cycles, and about one graph in six or ten
# goes past the 10,000-cycle cap: the defect ROADMAP item 2 fixes. It is not
# tuned away; such documents fail and count in fail_share.
# UNPARSABLE_SHARE 0.02, STILL_UNPARSABLE_SHARE 0.5: a few replies miss the
# answer tag, so the re-ask path runs on every large document and some pairs
# end unparsable.
# SYNONYM_SHARE 0.1, PHANTOM_SPANS 2: a few synonym groups to merge and a few
# extracted spans that never occur in the text, so entity location and its
# warnings run on every document.
# MULTIWORD_SHARE 0.3 and line wrapping: multi-word names split across lines
# exercise the whitespace-tolerant entity search.
# MAX_MENTIONS 3 and FILLER_SHARE 0.5 (one filler sentence per two entities):
# abstract-sized texts (about 120 characters per entity) with mentions spread
# through them.
RELATION_SHARE = 0.2
REVERSAL_SHARE = 0.05
UNPARSABLE_SHARE = 0.02
STILL_UNPARSABLE_SHARE = 0.5
SYNONYM_SHARE = 0.1
PHANTOM_SPANS = 2
MULTIWORD_SHARE = 0.3
MAX_MENTIONS = 3
FILLER_SHARE = 0.5

# Provider behaviour scripted for the loopback fake provider, in real time
# (before time compression). These are assumptions, not measurements: the
# repository holds no recorded live run to take them from.
#
# LATENCY_MEDIAN_S 3.0, LATENCY_SIGMA 0.5: a log-normal reply time of a few
# seconds for a step-by-step chat completion. At parallelism 2 such a
# provider would serve about 35 requests a minute, above the 30 rpm default,
# so the limiter sets the pace and the latency sets the tail.
# FAULT_SHARE 0.03, DOUBLE_FAULT_SHARE 0.2: a few transient 429/503 replies,
# at most two in a row, so every prompt succeeds within the default three
# retries and the retry path runs on every document.
# FAULT_DELAY_S 0.2: a refusal comes back quickly.
LATENCY_MEDIAN_S = 3.0
LATENCY_SIGMA = 0.5
FAULT_SHARE = 0.03
DOUBLE_FAULT_SHARE = 0.2
FAULT_DELAY_S = 0.2


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

_FILLER = (
    "Participants were recruited from three regional centres.",
    "Follow-up visits took place every six months.",
    "The analysis adjusted for age and sex.",
    "Missing values were handled by multiple imputation.",
    "Two reviewers screened every record independently.",
    "The protocol was approved by the local ethics board.",
    "Sensitivity analyses gave consistent estimates.",
    "Data were collected between the first and the final visit.",
)
_INTRO = (
    "We measured {a} in every participant.",
    "Baseline {a} was recorded at enrolment.",
    "The cohort showed marked variation in {a}.",
    "Earlier work described {a} in similar settings.",
    "Changes in {a} were tracked over the study period.",
)
_PAIR = (
    "Higher {a} was reported together with {b}.",
    "The link between {a} and {b} was examined in detail.",
    "Patients with {a} often also showed {b}.",
    "We compared {a} with {b} across the subgroups.",
)
_ALIAS = "In some centres {a} is reported as {alias}."
_RATIONALE = (
    "The text describes how the two measures relate over time.",
    "Reading the passage carefully, one factor is presented as a driver.",
    "The authors discuss the mechanism in the results section.",
    "Considering the cohort data and the order of events.",
    "The passage mentions both entities in the same context.",
    "Step by step, the evidence in the text points one way.",
)
_NO_TAG = "The passage is ambiguous about these two entities, so no firm conclusion is possible."


def _pseudo_word(rng: random.Random, taken: set[str]) -> str:
    while True:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        word += rng.choice(_CONSONANTS)
        if word not in taken:
            taken.add(word)
            return word


def _form_pattern(form: str) -> re.Pattern[str]:
    return re.compile(r"\s+".join(re.escape(t) for t in form.split()), re.IGNORECASE)


def _reply(reasons: tuple[str, str], letter: str) -> str:
    return f"{reasons[0]} {reasons[1]}\n<Answer>{letter}</Answer>"


@dataclass
class ExtractDoc:
    """One synthetic abstract with its scripted replies and expected outputs.

    ``replies`` maps prompt fingerprints (entity, orientation and re-ask
    prompts) to reply text. ``verdicts`` maps each pair key (entity ids in
    document order) to the verdict the scripted replies must yield, and
    ``expected_arcs`` is the graph those verdicts build before enforcement.
    ``over_cap`` is set when that graph has more simple cycles than the
    package's default cap, so the run may fail with the cap error.
    """

    name: str
    text: str
    n: int
    entity_cap: int
    replies: dict[str, str]
    verdicts: dict[tuple[str, str], str]
    expected_arcs: frozenset[tuple[str, str]]
    truth_arcs: frozenset[tuple[str, str]]
    reasks: int
    over_cap: bool
    delays: dict[str, float] = field(default_factory=dict)
    faults: dict[str, int] = field(default_factory=dict)

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def expected_calls(self) -> int:
        """Gateway calls the pipeline must make: C(n, 2) + 1 + re-asks."""
        return self.pairs + 1 + self.reasks


def extract_doc(
    seed: int,
    kind: str,
    index: int,
    n: int,
    cycles: tuple[int, int | None] | None = None,
) -> ExtractDoc:
    """Build document ``index`` of workload ``kind`` with ``n`` entities.

    With ``cycles = (lo, hi)`` the answers are drawn again until the scripted
    graph has at least ``lo`` and fewer than ``hi`` simple cycles (``hi``
    None: no upper limit). Above the default entity cap the document's cap
    is raised to ``n``, as a user would for such texts.
    """
    for attempt in range(100):
        rng = random.Random(f"{seed}:{kind}:{index}:{attempt}")
        doc = _try_extract_doc(rng, f"{kind}-{index:03d}", n,
                               f"{seed}:{kind}:{index}:answers", cycles)
        if doc is not None:
            return doc
    raise RuntimeError(f"cannot place {n} unambiguous entities")


def _try_extract_doc(
    rng: random.Random, name: str, n: int, answer_seed: str, cycles: tuple[int, int | None] | None,
) -> ExtractDoc | None:
    taken: set[str] = set()

    def new_form() -> str:
        words = 2 if rng.random() < MULTIWORD_SHARE else 1
        return " ".join(_pseudo_word(rng, taken) for _ in range(words))

    forms = [new_form() for _ in range(n)]
    aliases = {i: new_form() for i in range(n) if rng.random() < SYNONYM_SHARE}
    phantoms = [new_form() for _ in range(PHANTOM_SPANS)]

    # Sentences in document order: every entity is introduced once, in a
    # random order, with pair sentences, aliases and filler spread after it.
    order = list(range(n))
    rng.shuffle(order)
    sentences: list[str] = []
    mentions = {i: 0 for i in range(n)}
    alias_mentions = {i: 0 for i in aliases}
    pending_alias: list[int] = []
    introduced: list[int] = []
    for i in order:
        sentences.append(rng.choice(_INTRO).format(a=forms[i]))
        mentions[i] += 1
        introduced.append(i)
        if i in aliases:
            pending_alias.append(i)
        extra = rng.randint(0, MAX_MENTIONS - 1)
        if extra and len(introduced) > 1:
            other = rng.choice(introduced[:-1])
            sentences.append(rng.choice(_PAIR).format(a=forms[other], b=forms[i]))
            mentions[other] += 1
            mentions[i] += 1
        if pending_alias and rng.random() < 0.5:
            j = pending_alias.pop(0)
            sentences.append(_ALIAS.format(a=forms[j], alias=aliases[j]))
            mentions[j] += 1
            alias_mentions[j] += 1
        if rng.random() < FILLER_SHARE:
            sentences.append(rng.choice(_FILLER))
    for j in pending_alias:
        sentences.append(_ALIAS.format(a=forms[j], alias=aliases[j]))
        mentions[j] += 1
        alias_mentions[j] += 1
    text = textwrap.fill(" ".join(s[0].upper() + s[1:] for s in sentences), width=78)
    text += "\n"

    offsets: dict[int, int] = {}
    for i in range(n):
        found = list(_form_pattern(forms[i]).finditer(text))
        if len(found) != mentions[i]:
            return None
        offsets[i] = found[0].start()
        if i in aliases:
            alias_found = list(_form_pattern(aliases[i]).finditer(text))
            if len(alias_found) != alias_mentions[i] or alias_found[0].start() < offsets[i]:
                return None
    if len(set(offsets.values())) != n or any(
        _form_pattern(p).search(text) for p in phantoms
    ):
        return None

    listed = forms + list(aliases.values()) + phantoms
    rng.shuffle(listed)
    entity_reply = "\n".join(f"<Entity>{span}</Entity>" for span in listed)
    for i in sorted(aliases):
        entity_reply += (
            f"\n<Group><Entity>{forms[i]}</Entity>"
            f"<Entity>{aliases[i]}</Entity></Group>"
        )

    entities = sorted(
        (
            Entity(
                id=forms[i],
                canonical_label=forms[i],
                surface_forms=frozenset({forms[i], aliases[i]} if i in aliases else {forms[i]}),
                first_offset=offsets[i],
            )
            for i in range(n)
        ),
        key=lambda e: (e.first_offset, e.canonical_label),
    )
    ids = [e.id for e in entities]
    for attempt in range(1000):
        script = _script_answers(random.Random(f"{answer_seed}:{attempt}"), ids)
        if cycles is None or in_band(script.expected, cycles):
            break
    else:
        raise RuntimeError(f"no scripted graph with {cycles} simple cycles")

    replies = {render_entity_prompt(text).fingerprint: entity_reply}
    for x in range(n):
        for y in range(x + 1, n):
            letter, first_ok, reask_ok, rationale = script.answers[(ids[x], ids[y])]
            prompt = render_orientation_prompt(
                OrientationQuestion.from_pair(text, entities[x], entities[y])
            )
            replies[prompt.fingerprint] = _reply(rationale, letter) if first_ok else _NO_TAG
            if not first_ok:
                reask = render_reask_prompt(prompt)
                replies[reask.fingerprint] = _reply(rationale, letter) if reask_ok else _NO_TAG

    return ExtractDoc(
        name=name,
        text=text,
        n=n,
        entity_cap=max(DEFAULT_ENTITY_CAP, n),
        replies=replies,
        verdicts=script.verdicts,
        expected_arcs=frozenset(script.expected),
        truth_arcs=frozenset(script.truth),
        reasks=script.reasks,
        over_cap=cycles is not None and cycles[0] > DEFAULT_CYCLE_CAP,
    )


@dataclass
class _Script:
    answers: dict[tuple[str, str], tuple[str, bool, bool, tuple[str, str]]]
    verdicts: dict[tuple[str, str], str]
    expected: set[tuple[str, str]]
    truth: set[tuple[str, str]]
    reasks: int


def _script_answers(rng: random.Random, ids: list[str]) -> _Script:
    """Answers from a hidden causal order over ``ids`` (given in document order)."""
    n = len(ids)
    rank = {ids[i]: r for r, i in enumerate(rng.sample(range(n), n))}
    script = _Script({}, {}, set(), set(), 0)
    for x in range(n):
        for y in range(x + 1, n):
            a, b = ids[x], ids[y]
            letter = "C"
            if rng.random() < RELATION_SHARE:
                cause, effect = (a, b) if rank[a] < rank[b] else (b, a)
                script.truth.add((cause, effect))
                if rng.random() < REVERSAL_SHARE:
                    cause, effect = effect, cause
                letter = "A" if cause == a else "B"
            first_ok = rng.random() >= UNPARSABLE_SHARE
            reask_ok = first_ok or rng.random() >= STILL_UNPARSABLE_SHARE
            script.reasks += not first_ok
            script.answers[(a, b)] = (letter, first_ok, reask_ok, tuple(rng.sample(_RATIONALE, 2)))
            final = letter if reask_ok else "U"
            script.verdicts[(a, b)] = {
                "A": "forward", "B": "backward", "C": "no_relation", "U": "unparsable"
            }[final]
            if final == "A":
                script.expected.add((a, b))
            elif final == "B":
                script.expected.add((b, a))
    return script


def in_band(arcs: set[tuple[str, str]], band: tuple[int, int | None]) -> bool:
    """Whether the arcs form at least ``lo`` and fewer than ``hi`` simple cycles."""
    lo, hi = band
    cycles = nx.simple_cycles(nx.DiGraph(sorted(arcs)))
    count = sum(1 for _ in itertools.islice(cycles, hi or lo))
    return lo <= count and (hi is None or count < hi)


def script_provider(doc: ExtractDoc, seed: int, speedup: float) -> None:
    """Attach seeded reply delays and transient faults to every prompt of ``doc``.

    Real-time delays are divided by ``speedup`` (the time-compression factor).
    """
    rng = random.Random(f"{seed}:provider:{doc.name}")
    for fingerprint in sorted(doc.replies):
        delay = LATENCY_MEDIAN_S * math.exp(rng.gauss(0.0, LATENCY_SIGMA))
        doc.delays[fingerprint] = delay / speedup
        if rng.random() < FAULT_SHARE:
            doc.faults[fingerprint] = 2 if rng.random() < DOUBLE_FAULT_SHARE else 1


# --- the tagged-sentence benchmark -------------------------------------------

# (count, relation label, scripted answer): the outcome counts behind the
# acceptance grid [[335, 7], [6, 650]] with 5 abstentions.
EVAL_OUTCOMES = (
    (335, "Cause-Effect(e1,e2)", "A"),
    (6, "Cause-Effect(e1,e2)", "B"),
    (650, "Cause-Effect(e2,e1)", "B"),
    (7, "Cause-Effect(e2,e1)", "A"),
    (3, "Cause-Effect(e1,e2)", "C"),
    (2, "Cause-Effect(e2,e1)", "C"),
    (2, "Member-Collection(e1,e2)", None),
)
EVAL_GRID = [[335, 7], [6, 650]]
EVAL_ABSTAINED = 5
EVAL_CAUSAL = 1003

_SENTENCES = (
    "The {e1} level shifted together with the {e2} reading.",
    "A rise in {e1} came before the change in {e2} in most samples.",
    "Reports of {e1} were common among those with {e2}.",
    "The {e1} measure and the {e2} score moved in step.",
)


@dataclass(frozen=True)
class EvalSet:
    """A benchmark file in the tagged-sentence format and its replies."""

    semeval_text: str
    replies: dict[str, str]
    causal: int
    mean_sentence_chars: float


def eval_set(seed: int) -> EvalSet:
    """The 1003-causal-record benchmark with seeded names and record order.

    The outcome counts are fixed, so the grid is the same at every seed.
    """
    rng = random.Random(f"{seed}:eval")
    outcomes = [(label, answer) for count, label, answer in EVAL_OUTCOMES for _ in range(count)]
    rng.shuffle(outcomes)
    taken: set[str] = set()
    records: list[SemEvalRecord] = []
    replies: dict[str, str] = {}
    for record_id, (label, answer) in enumerate(outcomes, start=1):
        e1, e2 = _pseudo_word(rng, taken), _pseudo_word(rng, taken)
        sentence = rng.choice(_SENTENCES).format(e1=e1, e2=e2)
        record = SemEvalRecord(
            record_id=record_id,
            sentence=sentence,
            e1_span=e1,
            e2_span=e2,
            e1_start=sentence.index(e1),
            e2_start=sentence.index(e2),
            relation_label=label,
            causal_orientation={
                "Cause-Effect(e1,e2)": Orientation.E1_CAUSES_E2,
                "Cause-Effect(e2,e1)": Orientation.E2_CAUSES_E1,
            }.get(label),
        )
        records.append(record)
        if answer is None:
            continue
        question = OrientationQuestion.from_pair(
            sentence,
            Entity(id="e1", canonical_label=normalize_label(e1), first_offset=record.e1_start),
            Entity(id="e2", canonical_label=normalize_label(e2), first_offset=record.e2_start),
        )
        replies[render_orientation_prompt(question).fingerprint] = _reply(
            tuple(rng.sample(_RATIONALE, 2)), answer)
    return EvalSet(write_semeval(records), replies, EVAL_CAUSAL,
                   sum(len(r.sentence) for r in records) / len(records))
