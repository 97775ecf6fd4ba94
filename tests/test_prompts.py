from __future__ import annotations

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causaltext import evaluation, prompts
from causaltext.errors import EmptyTextError, EntityNotInTextError, NoEntitiesFoundError
from causaltext.graph import Entity
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
from conftest import DATA_DIR
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
    fume = Entity(id="fume", canonical_label="fume", first_offset=0)
    absent = Entity(id="smoke", canonical_label="smoke", first_offset=1)
    with pytest.raises(EntityNotInTextError):
        OrientationQuestion.from_pair(COBALT_SENTENCE, fume, absent)


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


# --- verdict parsing ----------------------------------------------------------


def test_parse_verdict_examples():
    assert parse_verdict("analysis first\n<Answer>A</Answer>").verdict is Verdict.FORWARD
    assert parse_verdict("<Answer>a</Answer>").verdict is Verdict.FORWARD
    assert parse_verdict("<Answer> B </Answer>").verdict is Verdict.BACKWARD
    assert parse_verdict("<Answer>C</Answer>").verdict is Verdict.NO_RELATION


def test_parse_verdict_last_tag_wins():
    parsed = parse_verdict("<Answer>B</Answer> but on reflection <Answer>C</Answer>")
    assert parsed.verdict is Verdict.NO_RELATION
    assert parsed.rationale_text == "<Answer>B</Answer> but on reflection "


def test_parse_verdict_unparsable_cases():
    assert parse_verdict("").verdict is Verdict.UNPARSABLE
    assert parse_verdict("no tags at all").verdict is Verdict.UNPARSABLE
    assert parse_verdict("<Answer>D</Answer>").verdict is Verdict.UNPARSABLE
    assert parse_verdict("<Answer></Answer>").verdict is Verdict.UNPARSABLE
    assert parse_verdict("<Answer>A").verdict is Verdict.UNPARSABLE


def test_parse_verdict_rationale_is_full_text_without_tag():
    reply = "thinking about it"
    assert parse_verdict(reply).rationale_text == reply


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
        assert parsed.verdict is expected, char


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parse_verdict_is_total(reply):
    parsed = parse_verdict(reply)
    assert parsed.verdict in set(Verdict)
    tagged = parsed.verdict in (Verdict.FORWARD, Verdict.BACKWARD, Verdict.NO_RELATION)
    assert tagged == ("<answer>" in reply.lower() and "</answer>" in reply.lower()) or not tagged


# --- entity prompt -----------------------------------------------------------------


def test_entity_prompt_interpolates_domain_emphasis():
    hint = "diseases, medications, treatments, and symptoms"
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
    searched = counting_full_searches(monkeypatch)
    text = "Heavy rain preceded the flood and the landslide."
    rain = Entity(id="rain", canonical_label="rain", first_offset=0)
    flood = Entity(id="flood", canonical_label="flood", first_offset=text.index("flood"))
    question = OrientationQuestion.from_pair(text, rain, flood)
    assert question.pair_key == ("rain", "flood")
    assert searched == ["rain"]
    absent = Entity(id="drought", canonical_label="drought", first_offset=6)
    with pytest.raises(EntityNotInTextError):
        OrientationQuestion.from_pair(text, absent, flood)


def test_question_accepts_form_wrapped_across_lines_at_its_offset(monkeypatch):
    searched = counting_full_searches(monkeypatch)
    text = "Damage to the beta\n   cell population lowers insulin output."
    beta = Entity(id="beta cell", canonical_label="beta cell",
                  first_offset=text.index("beta"))
    insulin = Entity(id="insulin", canonical_label="insulin",
                     first_offset=text.index("insulin"))
    OrientationQuestion.from_pair(text, beta, insulin)
    assert searched == []


def test_enumerate_pairs_over_located_entities_searches_nothing(monkeypatch):
    searched = counting_full_searches(monkeypatch)
    names = [f"factor{i:02d}" for i in range(8)]
    text = "The study followed " + ", ".join(names) + " across the cohort."
    located = [Entity(id=n, canonical_label=n, first_offset=text.index(n)) for n in names]
    assert len(enumerate_pairs(located, text)) == 28
    assert searched == []
    # the counter sees the fallback: with every offset stale, each pair searches twice
    stale = [Entity(id=n, canonical_label=n, first_offset=1) for n in names]
    enumerate_pairs(stale, text)
    assert len(searched) == 2 * 28


# letters whose case mapping changes length or crosses scripts, regex
# metacharacters and several kinds of whitespace
_OFFSET_ALPHABET = "aAbBzZiIİıßẞſsSKkK\u0307éÉΣσς.*+?()[]^$|\\ \t\n\u00a0\u2003"


@st.composite
def text_form_offset(draw) -> tuple[str, str, int]:
    """A text, a surface form and an offset; often the form's literal sits there."""
    tokens = draw(st.lists(st.text(_OFFSET_ALPHABET, min_size=1, max_size=4),
                           min_size=1, max_size=3))
    gaps = draw(st.lists(st.sampled_from([" ", "  ", "\t", "\n ", "\u00a0"]),
                         min_size=len(tokens) - 1, max_size=len(tokens) - 1))
    form = "".join(token + gap for token, gap in zip(tokens, gaps + [""]))
    form = draw(st.sampled_from([form, " " + form, form + "\n"]))
    prefix = draw(st.text(_OFFSET_ALPHABET, max_size=6))
    suffix = draw(st.text(_OFFSET_ALPHABET, max_size=6))
    middle = draw(st.sampled_from([
        " ".join(form.split()),
        "\n".join(form.split()),
        "".join(form.split()),
        " ".join(form.split()).upper(),
        draw(st.text(_OFFSET_ALPHABET, max_size=8)),
    ]))
    text = prefix + middle + suffix
    offset = draw(st.sampled_from([len(prefix), draw(st.integers(0, len(text) + 2))]))
    return text, form, offset


@given(text_form_offset())
@example(("İab", "a", 2))  # lowercasing the text would shift "b" to offset 3
@example(("x Beta\n cell", "beta  cell", 2))
@settings(max_examples=500, deadline=None)
def test_literal_offset_hit_implies_anchored_pattern_hit(case):
    text, form, offset = case
    literal = " ".join(form.split())
    pattern = prompts._form_pattern(form)
    anchored = bool(pattern and pattern.match(text, offset))
    if literal and text.startswith(literal, offset):
        assert anchored
    # so the literal step leaves the accepted set as the anchored rule has it;
    # the label "x" is outside the alphabet and never matches
    entity = Entity(id="x", canonical_label="x", surface_forms=frozenset({form}),
                    first_offset=offset)
    assert prompts._occurs_at_first_offset(text, entity) == anchored


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
    # the counter sees the anchored fallback: a capitalised form off its literal
    text = "Heavy Rain preceded the flood."
    rain = Entity(id="rain", canonical_label="rain", first_offset=6)
    flood = Entity(id="flood", canonical_label="flood", first_offset=text.index("flood"))
    OrientationQuestion.from_pair(text, rain, flood)
    assert built == ["rain"]


def test_rendered_prompt_create_matches_manual_fingerprint():
    prompt = RenderedPrompt.create("sys", "user")
    again = RenderedPrompt.create("sys", "user")
    assert prompt.fingerprint == again.fingerprint
    different = RenderedPrompt.create("sys", "user2")
    assert different.fingerprint != prompt.fingerprint
