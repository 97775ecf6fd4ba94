from __future__ import annotations

import string
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext import evaluation, prompts
from causaltext.errors import EmptyTextError, EntityNotInTextError, NoEntitiesFoundError
from causaltext.graph import Entity, normalize_label
from causaltext.pipeline import enumerate_pairs
from causaltext.prompts import (
    OrientationQuestion,
    RenderedPrompt,
    Verdict,
    entity_offset,
    find_first_offset,
    parse_entity_list,
    parse_verdict,
    render_entity_prompt,
    render_orientation_prompt,
    render_reask_prompt,
)
from helpers import DATA_DIR
from synth import benchmark_with_scripted_replies

COBALT_SENTENCE = (
    "Cobalt metal fume and dust cause upper respiratory tract irritation, "
    "chronic interstitial pneumonitis, and skin sensitization."
)


def cobalt_question() -> OrientationQuestion:
    fume = Entity(
        id="fume", canonical_label="fume",
        first_offset=COBALT_SENTENCE.index("fume"),
    )
    sensitization = Entity(
        id="sensitization", canonical_label="sensitization",
        first_offset=COBALT_SENTENCE.index("sensitization"),
    )
    return OrientationQuestion.from_pair(COBALT_SENTENCE, fume, sensitization)


# --- orientation prompt ----------------------------------------------------


def test_orientation_prompt_matches_golden_template():
    rendered = render_orientation_prompt(cobalt_question())
    golden = (DATA_DIR / "orientation_golden.txt").read_text(encoding="utf-8")
    assert rendered.user_text == golden
    assert rendered.system_text == ""
    assert rendered.fingerprint == (
        "ca66bff4ed4ec3938bed4e50c294452f2479df54f678b4e7a00c204a0e8dbcbf"
    )


MEDICAL_HINT = "diseases, medications, treatments, and symptoms"


# Every fixture and cache entry is keyed by a prompt's fingerprint, so one changed
# byte in any template orphans them all. These goldens pin the prompts besides orientation.
@pytest.mark.parametrize("golden, fingerprint", [
    ("entities_golden.txt",
     "8ed321fa17535d690b76cb9991409282300358511200544358a000b8f6631af3"),
    ("entities_hint_golden.txt",
     "900b576ca3ea6e6f5ff74cabae3016b3baadb1be557b2ffabee9de9e73e10c8e"),
    ("reask_golden.txt",
     "bd91258406add80b815f3a36f2aca915e9fec5b313d8ec231c17dda0c119b2ea"),
], ids=["entities", "entities_hint", "reask"])
def test_entity_and_reask_prompts_keep_golden_bytes_and_fingerprint(golden, fingerprint):
    rendered = {
        "entities_golden.txt": render_entity_prompt(COBALT_SENTENCE),
        "entities_hint_golden.txt": render_entity_prompt(COBALT_SENTENCE, MEDICAL_HINT),
        "reask_golden.txt": render_reask_prompt(render_orientation_prompt(cobalt_question())),
    }[golden]
    assert rendered.system_text == ""
    assert rendered.user_text == (DATA_DIR / golden).read_bytes().decode("utf-8")
    assert rendered.fingerprint == fingerprint


def test_orientation_prompt_structure():
    import re

    text = render_orientation_prompt(cobalt_question()).user_text
    assert len(re.findall(r"<Text>.+?</Text>", text, re.DOTALL)) == 1
    assert len(re.findall(r"<Entity>.+?</Entity>", text)) == 2
    for option in ("A:", "B:", "C:"):
        assert text.count(option) == 1


def test_question_roles_follow_document_order():
    question = cobalt_question()
    swapped = OrientationQuestion.from_pair(
        COBALT_SENTENCE, question.entity_b, question.entity_a
    )
    assert swapped.entity_a.id == "fume"
    assert render_orientation_prompt(swapped) == render_orientation_prompt(question)


def test_swapping_roles_swaps_only_the_option_labels():
    text = "the reaction preceded the signal here"
    reaction = Entity(id="reaction", canonical_label="reaction", first_offset=4)
    signal = Entity(id="signal", canonical_label="signal", first_offset=26)
    forward = render_orientation_prompt(
        OrientationQuestion.from_pair(text, reaction, signal)
    ).user_text
    mirrored = render_orientation_prompt(
        OrientationQuestion(
            source_text=text,
            entity_a=Entity(id="signal", canonical_label="signal", first_offset=0),
            entity_b=Entity(id="reaction", canonical_label="reaction", first_offset=9),
        )
    ).user_text
    assert 'A: "reaction" causes "signal";' in forward
    assert 'A: "signal" causes "reaction";' in mirrored
    changed = [
        (a, b)
        for a, b in zip(forward.splitlines(), mirrored.splitlines())
        if a != b
    ]
    for line_a, line_b in changed:
        assert "<Entity>" in line_a or '"' in line_a


def test_identical_inputs_identical_fingerprint():
    first = render_orientation_prompt(cobalt_question())
    second = render_orientation_prompt(cobalt_question())
    assert first.fingerprint == second.fingerprint
    assert first == second


def test_question_requires_entities_in_text():
    # enumerate_pairs locates the entities; the question itself searches nothing
    fume = Entity(id="fume", canonical_label="fume", first_offset=0)
    absent = Entity(id="smoke", canonical_label="smoke", first_offset=1)
    with pytest.raises(EntityNotInTextError):
        enumerate_pairs([fume, absent], COBALT_SENTENCE)


def test_question_requires_distinct_entities():
    fume = Entity(id="fume", canonical_label="fume", first_offset=0)
    with pytest.raises(ValueError):
        OrientationQuestion.from_pair(COBALT_SENTENCE, fume, fume)


def test_reask_prompt_appends_reminder_and_changes_fingerprint():
    prompt = render_orientation_prompt(cobalt_question())
    reask = render_reask_prompt(prompt)
    assert reask.user_text.startswith(prompt.user_text.rstrip("\n"))
    assert "<Answer>A</Answer>" in reask.user_text
    assert reask.fingerprint != prompt.fingerprint
    assert render_reask_prompt(prompt) == reask


def _whole_template_render(question: OrientationQuestion) -> RenderedPrompt:
    """The orientation prompt by its definition: one ``format`` of the whole template."""
    return RenderedPrompt.create("", prompts._template("orientation.txt").format(
        source_text=question.source_text,
        entity_a=question.entity_a.canonical_label,
        entity_b=question.entity_b.canonical_label,
    ))


def _entity(label: str) -> Entity:
    return Entity(id=label, canonical_label=label)


@contextmanager
def _rendering_with(template: str):
    """Render with a stand-in orientation template; the memos are rebuilt around it."""
    saved = prompts._template
    prompts._template = lambda name: template
    prompts._split.cache_clear()
    prompts._orientation_template.cache_clear()
    prompts._orientation_head.cache_clear()
    try:
        yield
    finally:
        prompts._template = saved
        prompts._split.cache_clear()
        prompts._orientation_template.cache_clear()
        prompts._orientation_head.cache_clear()


_PERCENT_SIGNS = ["%", "%%", "%s", "%(entity_a)s", "%(entity_b)r"]
_TRICKY = st.sampled_from(
    ["{", "}", "{{", "{entity_a}", "{source_text}", "é", "\U0001f600", "\r\n", " "]
    + _PERCENT_SIGNS
)
_source_texts = st.lists(st.one_of(st.text(max_size=8), _TRICKY), max_size=12).map("".join)
_labels = (
    st.lists(st.one_of(st.text(max_size=5),
                       st.sampled_from(["{", "}", '"', "'", "{entity_b}"] + _PERCENT_SIGNS)),
             min_size=1, max_size=4)
    .map(lambda parts: normalize_label("".join(parts)))
    .filter(bool)
)
_MEMO_SIZE = prompts._orientation_head.cache_info().maxsize
# Stand-ins for the shipped template: literal percent signs around, between and
# next to the fields.
_TRICKY_TEMPLATES = [
    "100% of %% %s %(entity_a)s\n{source_text}\n%{entity_a}% {entity_b} %(entity_b)s%",
    "{source_text}{entity_a}|{entity_b}|%r{entity_a}%a|{entity_b}{entity_b}%%",
]


_texts_and_pairs = dict(
    texts=st.lists(_source_texts, min_size=_MEMO_SIZE + 1, max_size=_MEMO_SIZE + 3, unique=True),
    pairs=st.lists(st.tuples(_labels, _labels).filter(lambda p: p[0] != p[1]),
                   min_size=1, max_size=3),
)


def _assert_each_renders_as_formatted(texts, pairs):
    # texts interleave and outnumber the memo, so its entries are evicted and rebuilt
    for label_a, label_b in pairs:
        for text in texts:
            question = OrientationQuestion(text, _entity(label_a), _entity(label_b))
            assert render_orientation_prompt(question) == _whole_template_render(question)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(**_texts_and_pairs)
def test_orientation_render_equals_one_format_of_the_whole_template(texts, pairs):
    _assert_each_renders_as_formatted(texts, pairs)


@pytest.mark.parametrize("template", _TRICKY_TEMPLATES)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(**_texts_and_pairs)
def test_a_stand_in_template_renders_as_one_format_of_it(template, texts, pairs):
    with _rendering_with(template):
        _assert_each_renders_as_formatted(texts, pairs)


def test_orientation_render_from_four_threads_at_once():
    # a text past 2 KB, so the shared hash state has the lock hashlib takes for long inputs
    text = " ".join([COBALT_SENTENCE] * 30) + " Threads {share} this text."
    question = OrientationQuestion(text, _entity("fume"), _entity("dust"))
    expected = _whole_template_render(question)
    prompts._orientation_head.cache_clear()
    barrier = threading.Barrier(4, timeout=10)

    def render_many(_):
        barrier.wait()
        return [render_orientation_prompt(question) for _ in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            batches = list(pool.map(render_many, range(4), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    results = [prompt for batch in batches for prompt in batch]
    assert len(results) == 800
    assert all(prompt == expected for prompt in results)


def test_orientation_template_holds_the_text_once_and_only_entity_fields():
    template = prompts._template("orientation.txt")
    fields = [name for _, name, _, _ in string.Formatter().parse(template) if name is not None]
    assert fields.count("source_text") == 1
    assert set(fields) == {"source_text", "entity_a", "entity_b"}
    assert "{entity_" not in template.partition("{source_text}")[0]


@pytest.fixture
def orientation_template():
    """Render with a stand-in orientation template; the memos are rebuilt around it."""
    with ExitStack() as stack:
        yield lambda template: stack.enter_context(_rendering_with(template))


@pytest.mark.parametrize("template", [
    "no text here: {entity_a} {entity_b}",
    "{source_text} and again {source_text}",
    "{entity_a} precedes {source_text}",
    "{source_text} {entity_a} {other}",
    "{source_text} {entity_a} {0}",
    "{source_text!r} {entity_a}",
    "{{source_text}} {entity_a}",
    "{source_text} {entity_a.upper}",
    # a template holds no brace but its fields: no escape, conversion or format spec
    "{{{source_text}}} <{entity_a}> {{{entity_b}}}",
    "{source_text} {entity_a!r}",
    "{source_text} {entity_b!s} {entity_a!a}",
    "{source_text} {entity_b:}",
    "{source_text} {entity_a:>10}",
    "{source_text} {entity_b!r:>3}",
    "{source_text} {entity_a:{entity_b}}",
    "{source_text} {entity_a!x}",
    "{source_text} {entity_a} }",
])
def test_an_orientation_template_that_cannot_be_split_raises(orientation_template, template):
    orientation_template(template)
    with pytest.raises(ValueError, match=r"\{source_text\} exactly once"):
        render_orientation_prompt(cobalt_question())


def test_entity_and_reask_templates_hold_no_brace_but_their_fields(orientation_template):
    orientation_template("{source_text}{emphasis_clause} {{}}")
    with pytest.raises(ValueError, match="entities.txt"):
        render_entity_prompt(COBALT_SENTENCE)
    with pytest.raises(ValueError, match="reask.txt"):
        render_reask_prompt(RenderedPrompt.create("", "prompt"))


# --- verdict parsing ----------------------------------------------------------


def test_parse_verdict_examples():
    assert parse_verdict("analysis first\n<Answer>A</Answer>") is Verdict.FORWARD
    assert parse_verdict("<Answer>a</Answer>") is Verdict.FORWARD
    assert parse_verdict("<Answer> B </Answer>") is Verdict.BACKWARD
    assert parse_verdict("<Answer>C</Answer>") is Verdict.NO_RELATION


def test_parse_verdict_last_tag_wins():
    verdict = parse_verdict("<Answer>B</Answer> but on reflection <Answer>C</Answer>")
    assert verdict is Verdict.NO_RELATION


def test_parse_verdict_unparsable_cases():
    assert parse_verdict("") is Verdict.UNPARSABLE
    assert parse_verdict("no tags at all") is Verdict.UNPARSABLE
    assert parse_verdict("<Answer>D</Answer>") is Verdict.UNPARSABLE
    assert parse_verdict("<Answer></Answer>") is Verdict.UNPARSABLE
    assert parse_verdict("<Answer>A") is Verdict.UNPARSABLE


def test_parse_verdict_single_characters_exhaustively():
    for char in string.printable:
        parsed = parse_verdict(f"<Answer>{char}</Answer>")
        expected = {
            "a": Verdict.FORWARD, "A": Verdict.FORWARD,
            "b": Verdict.BACKWARD, "B": Verdict.BACKWARD,
            "c": Verdict.NO_RELATION, "C": Verdict.NO_RELATION,
        }.get(char, Verdict.UNPARSABLE)
        if char.isspace():
            expected = Verdict.UNPARSABLE
        assert parsed is expected, char


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parse_verdict_is_total(reply):
    parsed = parse_verdict(reply)
    assert parsed in set(Verdict)
    tagged = parsed in (Verdict.FORWARD, Verdict.BACKWARD, Verdict.NO_RELATION)
    assert tagged == ("<answer>" in reply.lower() and "</answer>" in reply.lower()) or not tagged


# --- entity prompt -----------------------------------------------------------------


def test_entity_prompt_interpolates_domain_emphasis():
    hint = MEDICAL_HINT
    rendered = render_entity_prompt("FT1D damages beta cells.", hint)
    assert f"emphasis on {hint}." in rendered.user_text
    for category in ("diseases", "medications", "treatments", "symptoms"):
        assert category in rendered.user_text


def test_entity_prompt_omits_emphasis_without_hint():
    rendered = render_entity_prompt("FT1D damages beta cells.", "")
    assert "emphasis" not in rendered.user_text


def test_entity_prompt_deterministic_and_rejects_empty_text():
    first = render_entity_prompt("some text", "medical")
    second = render_entity_prompt("some text", "medical")
    assert first.fingerprint == second.fingerprint
    with pytest.raises(EmptyTextError):
        render_entity_prompt("   \n", "medical")


# --- entity list parsing --------------------------------------------------------------


def test_parse_entity_list_groups_and_spans():
    reply = (
        "<Entity>FT1D</Entity>\n"
        "<Group><Entity>fulminant type 1 diabetes</Entity><Entity>FT1D</Entity></Group>"
    )
    listing = parse_entity_list(reply)
    assert listing.entities == ("ft1d", "fulminant type 1 diabetes")
    assert listing.merge_groups == (frozenset({"ft1d", "fulminant type 1 diabetes"}),)


def test_parse_entity_list_deduplicates_preserving_first_occurrence():
    listing = parse_entity_list(
        "<Entity>Beta cells</Entity><Entity>FT1D</Entity><Entity>beta  cells</Entity>"
    )
    assert listing.entities == ("beta cells", "ft1d")


def test_parse_entity_list_rejects_malformed_replies():
    with pytest.raises(NoEntitiesFoundError):
        parse_entity_list("no tags here")
    with pytest.raises(NoEntitiesFoundError):
        parse_entity_list("<Entity></Entity><Entity>   </Entity>")


def test_parse_entity_list_merges_overlapping_groups():
    reply = (
        "<Entity>a</Entity><Entity>b</Entity><Entity>c</Entity>"
        "<Group><Entity>a</Entity><Entity>b</Entity></Group>"
        "<Group><Entity>b</Entity><Entity>c</Entity></Group>"
    )
    listing = parse_entity_list(reply)
    assert listing.merge_groups == (frozenset({"a", "b", "c"}),)


def test_parse_entity_list_drops_singleton_groups():
    listing = parse_entity_list(
        "<Entity>a</Entity><Group><Entity>a</Entity><Entity>A</Entity></Group>"
    )
    assert listing.merge_groups == ()


# --- offsets ------------------------------------------------------------------------


def test_find_first_offset_is_case_insensitive_and_wrap_tolerant():
    text = "Severe Beta\n   Cell damage precedes beta cell loss."
    assert find_first_offset(text, "beta cell") == 7
    assert find_first_offset(text, "missing") is None


def test_entity_offset_takes_earliest_surface_form():
    text = "FT1D, also called fulminant type 1 diabetes, progresses fast."
    entity = Entity(
        id="x",
        canonical_label="fulminant type 1 diabetes",
        surface_forms=frozenset({"ft1d"}),
    )
    assert entity_offset(text, entity) == 0


def counting_full_searches(monkeypatch) -> list[str]:
    """Record every whole-text search made through ``find_first_offset``."""
    searched: list[str] = []

    def counted(source_text: str, surface_form: str) -> int | None:
        searched.append(surface_form)
        return find_first_offset(source_text, surface_form)

    monkeypatch.setattr(prompts, "find_first_offset", counted)
    return searched


def test_question_with_stale_offset_falls_back_to_full_search(monkeypatch):
    # enumerate_pairs searches the whole text for each entity, stale offset or not
    searched = counting_full_searches(monkeypatch)
    text = "Heavy rain preceded the flood and the landslide."
    rain = Entity(id="rain", canonical_label="rain", first_offset=0)
    flood = Entity(id="flood", canonical_label="flood", first_offset=text.index("flood"))
    (question,) = enumerate_pairs([rain, flood], text)
    assert question.pair_key == ("rain", "flood")
    assert searched == ["rain", "flood"]
    absent = Entity(id="drought", canonical_label="drought", first_offset=6)
    with pytest.raises(EntityNotInTextError):
        enumerate_pairs([absent, flood], text)


def test_question_accepts_form_wrapped_across_lines_at_its_offset(monkeypatch):
    # enumerate_pairs locates the wrapped form with one search and keeps the pair
    searched = counting_full_searches(monkeypatch)
    text = "Damage to the beta\n   cell population lowers insulin output."
    beta = Entity(id="beta cell", canonical_label="beta cell",
                  first_offset=text.index("beta"))
    insulin = Entity(id="insulin", canonical_label="insulin",
                     first_offset=text.index("insulin"))
    (question,) = enumerate_pairs([beta, insulin], text)
    assert question.pair_key == ("beta cell", "insulin")
    assert searched == ["beta cell", "insulin"]


def test_enumerate_pairs_searches_once_per_entity(monkeypatch):
    searched = counting_full_searches(monkeypatch)
    names = [f"factor{i:02d}" for i in range(8)]
    text = "The study followed " + ", ".join(names) + " across the cohort."
    located = [Entity(id=n, canonical_label=n, first_offset=text.index(n)) for n in names]
    assert len(enumerate_pairs(located, text)) == 28
    assert searched == names
    stale = [Entity(id=n, canonical_label=n, first_offset=1) for n in names]
    searched.clear()
    enumerate_pairs(stale, text)
    assert searched == names


def test_eval_benchmark_questions_compile_no_pattern(monkeypatch):
    semeval_text, _ = benchmark_with_scripted_replies()
    records = evaluation.parse_semeval(semeval_text)
    built: list[str] = []
    form_pattern = prompts._form_pattern

    def counted(surface_form: str):
        built.append(surface_form)
        return form_pattern(surface_form)

    monkeypatch.setattr(prompts, "_form_pattern", counted)
    questions = [evaluation._record_question(record) for record in records]
    assert len(questions) == 1005
    assert built == []


def test_rendered_prompt_create_matches_manual_fingerprint():
    prompt = RenderedPrompt.create("sys", "user")
    again = RenderedPrompt.create("sys", "user")
    assert prompt.fingerprint == again.fingerprint
    different = RenderedPrompt.create("sys", "user2")
    assert different.fingerprint != prompt.fingerprint
