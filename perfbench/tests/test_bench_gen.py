"""The generators are pure functions of the seed; the fake provider's request checks."""

from collections import Counter

import pytest

import gen
from fake_provider import fingerprint, read_messages


def test_extract_doc_is_deterministic_per_seed():
    first = gen.extract_doc(7, "replay", 3, 12)
    again = gen.extract_doc(7, "replay", 3, 12)
    assert first == again
    other = gen.extract_doc(8, "replay", 3, 12)
    assert other.text != first.text
    assert other.replies != first.replies


def test_extract_doc_budget_and_arcs_follow_the_script():
    doc = gen.extract_doc(11, "replay", 0, 15)
    assert len(doc.verdicts) == doc.pairs == 15 * 14 // 2
    assert doc.expected_calls == doc.pairs + 1 + doc.reasks
    arcs = {(a, b) if v == "forward" else (b, a)
            for (a, b), v in doc.verdicts.items() if v in ("forward", "backward")}
    assert arcs == doc.expected_arcs
    assert len(doc.replies) == doc.pairs + 1 + doc.reasks


def test_provider_script_is_deterministic_per_seed():
    docs = [gen.extract_doc(5, "live", 1, 10) for _ in range(2)]
    for doc in docs:
        gen.script_provider(doc, 5, speedup=100.0)
    assert docs[0].delays == docs[1].delays and docs[0].faults == docs[1].faults
    assert all(0 < d < 1 for d in docs[0].delays.values())


def test_eval_set_permutes_names_and_order_but_keeps_outcomes():
    first, again, other = gen.eval_set(1), gen.eval_set(1), gen.eval_set(2)
    assert first == again
    assert other.semeval_text != first.semeval_text
    for data in (first, other):
        letters = Counter(reply[-10] for reply in data.replies.values())
        assert letters == {"A": 342, "B": 656, "C": 5}
        assert len(data.replies) == data.causal == 1003


def test_fake_provider_fingerprint_matches_the_package():
    from causaltext.prompts import RenderedPrompt

    prompt = RenderedPrompt.create("system", "user text")
    assert fingerprint("system", "user text") == prompt.fingerprint


def test_fake_provider_accepts_only_well_formed_chat_requests():
    good = {"model": "m", "temperature": 0.0,
            "messages": [{"role": "user", "content": "question"}]}
    assert read_messages(good) == ("", "question")
    with_system = dict(good, messages=[{"role": "system", "content": "s"},
                                       {"role": "user", "content": "q"}])
    assert read_messages(with_system) == ("s", "q")
    bad_bodies = [
        [],
        {k: v for k, v in good.items() if k != "model"},
        dict(good, extra=1),
        dict(good, temperature=True),
        dict(good, temperature=3),
        dict(good, messages=[]),
        dict(good, messages=[{"role": "assistant", "content": "x"}]),
        dict(good, messages=[{"role": "user", "content": 5}]),
        dict(good, messages=[{"role": "system", "content": ""},
                             {"role": "user", "content": "q"}]),
    ]
    for body in bad_bodies:
        with pytest.raises(ValueError):
            read_messages(body)
