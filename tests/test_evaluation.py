from __future__ import annotations

from fractions import Fraction

import pytest

from causaltext.errors import EmptyEvaluationSetError, ParseError
from causaltext.evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    Orientation,
    SemEvalRecord,
    compare_with_transitive_share,
    compute_report,
    parse_semeval,
    render_confusion_table,
    run_pairwise_eval,
    write_semeval,
)
from causaltext.errors import FixtureMissError
from causaltext.gateway import ReplayEntry, ReplayFixture
from causaltext.graph import (
    Arc,
    CausalGraph,
    Entity,
    GraphKind,
    compare_graphs,
)
from helpers import transitive_flagged
from synth import _question_fingerprint, benchmark_with_scripted_replies

TABLE_ROWS = [
    ("Zinc", "growth", "<e1>Zinc</e1> is essential for <e2>growth</e2> and cell division.",
     "Cause-Effect(e1,e2)", Orientation.E1_CAUSES_E2),
    ("infection", "wound", "The <e1>infection</e1> came from a <e2>wound</e2>.",
     "Cause-Effect(e2,e1)", Orientation.E2_CAUSES_E1),
    ("helicobacter", "stomach ulcer",
     "As we saw earlier, <e1>helicobacter</e1> is responsible for causing "
     "<e2>stomach ulcer</e2>.",
     "Cause-Effect(e1,e2)", Orientation.E1_CAUSES_E2),
    ("pseudolesion", "drainage",
     "The <e1>pseudolesion</e1> was caused by <e2>drainage</e2> of the "
     "paraumbilical vein.",
     "Cause-Effect(e2,e1)", Orientation.E2_CAUSES_E1),
]


def reference_file() -> str:
    blocks = []
    for index, (_, _, tagged, label, _) in enumerate(TABLE_ROWS, start=1):
        blocks.append(f'{index}\t"{tagged}"\n{label}\nComment:\n')
    blocks.append('5\t"The <e1>box</e1> holds three <e2>marbles</e2>."\n'
                  "Member-Collection(e2,e1)\n")
    return "\n".join(blocks)


# --- parsing ---------------------------------------------------------------


def test_parse_semeval_reference_records():
    records = parse_semeval(reference_file())
    assert len(records) == 5
    for record, (e1, e2, _, label, orientation) in zip(records, TABLE_ROWS):
        assert record.e1_span == e1
        assert record.e2_span == e2
        assert record.relation_label == label
        assert record.causal_orientation is orientation
        assert "<e1>" not in record.sentence
        assert record.sentence[record.e1_start : record.e1_start + len(e1)] == e1
    assert records[4].causal_orientation is None


def test_parse_semeval_tolerates_crlf():
    text = reference_file().replace("\n", "\r\n")
    assert len(parse_semeval(text)) == 5


@pytest.mark.parametrize(
    "character",
    ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=repr,
)
def test_parse_semeval_ends_lines_only_at_cr_and_lf(character):
    text = f'1\t"The <e1>fume</e1>{character}exposure caused <e2>rash</e2>."\nCause-Effect(e1,e2)\n'
    for newline in ("\n", "\r\n", "\r"):
        (record,) = parse_semeval(text.replace("\n", newline))
        assert record.sentence == f"The fume{character}exposure caused rash."
        assert (record.e1_span, record.e2_span) == ("fume", "rash")
        assert parse_semeval(write_semeval([record])) == (record,)


# a well-formed record on lines 1-3, ahead of each broken one
_GOOD_RECORD = '1\t"<e1>a</e1> hits <e2>b</e2>."\nOther\n\n'


@pytest.mark.parametrize(
    "bad, line_number, reason",
    [
        ('2\t"The <e1>infection came from a <e2>wound</e2>."\nOther\n', 4, "missing tag </e1>"),
        ('2\t"<e1>a</e1> <e1>b</e1> <e2>c</e2>."\nOther\n', 4, "repeated tag <e1>"),
        ('2\t"</e1>a<e1> hits <e2>b</e2>."\nOther\n', 4, "close tag precedes its open tag"),
        ('2 "<e1>a</e1> hits <e2>b</e2>."\nOther\n', 4, "expected '<id>"),
        ('2\t"<e1></e1> hits <e2>b</e2>."\nOther\n', 4, "empty entity span"),
        ('2\t"<e1>a</e1> hits <e2>b</e2>."\nOther\nComment:\nstray\n', 7,
         "expected a blank separator line"),
    ],
    ids=["missing tag", "repeated tag", "close before open", "bad id line", "empty span",
         "no blank separator"],
)
def test_parse_semeval_reports_line_numbers(bad, line_number, reason):
    with pytest.raises(ParseError) as excinfo:
        parse_semeval(_GOOD_RECORD + bad)
    assert excinfo.value.line_number == line_number
    assert reason in excinfo.value.reason


def test_parse_semeval_rejects_duplicate_ids():
    block = '1\t"<e1>a</e1> hits <e2>b</e2>."\nOther\n'
    with pytest.raises(ParseError) as excinfo:
        parse_semeval(block + "\n" + block)
    assert "duplicate" in excinfo.value.reason


def test_parse_semeval_rejects_malformed_causal_label():
    text = '1\t"<e1>a</e1> hits <e2>b</e2>."\nCause-Effect(e3,e1)\n'
    with pytest.raises(ParseError):
        parse_semeval(text)


def test_parse_semeval_requires_relation_line():
    with pytest.raises(ParseError):
        parse_semeval('1\t"<e1>a</e1> hits <e2>b</e2>."\n\n')


def test_write_then_parse_is_identity():
    records = parse_semeval(reference_file())
    assert parse_semeval(write_semeval(records)) == records


def test_record_validation():
    with pytest.raises(ValueError):
        SemEvalRecord(
            record_id=1, sentence="a beats b", e1_span="a", e2_span="b",
            e1_start=0, e2_start=0, relation_label="Cause-Effect(e1,e2)",
            causal_orientation=Orientation.E1_CAUSES_E2,
        )
    with pytest.raises(ValueError):
        SemEvalRecord(
            record_id=1, sentence="a beats b", e1_span="a", e2_span="b",
            e1_start=0, e2_start=8, relation_label="Cause-Effect(e1,e2)",
            causal_orientation=None,
        )
    with pytest.raises(ValueError, match="entity spans must be non-empty"):
        SemEvalRecord(
            record_id=1, sentence="a beats b", e1_span="", e2_span="b",
            e1_start=0, e2_start=8, relation_label="Other", causal_orientation=None,
        )


# --- metric computation --------------------------------------------------------


def table3_confusion() -> ConfusionMatrix:
    return ConfusionMatrix(grid=((335, 7), (6, 650)), abstained=5)


def test_compute_report_reference_grid_frozen_values():
    report = compute_report(table3_confusion())
    assert report.forward.precision == Fraction(335, 342)
    assert report.forward.recall == Fraction(335, 341)
    assert report.forward.f1 == Fraction(670, 683)
    assert report.backward.precision == Fraction(650, 656)
    assert report.backward.recall == Fraction(650, 657)
    assert report.backward.f1 == Fraction(1300, 1313)
    assert report.macro_f1 == Fraction(67985, 68983)
    assert report.micro_accuracy == Fraction(985, 998)


def test_compute_report_headline_values_round_to_published_number():
    report = compute_report(table3_confusion())
    assert float(report.macro_f1) == pytest.approx(0.98553, abs=1e-4)
    assert float(report.micro_accuracy) == pytest.approx(0.98697, abs=1e-4)
    assert round(float(report.macro_f1), 2) == 0.99
    assert round(float(report.micro_accuracy), 2) == 0.99


def test_compute_report_perfect_and_degenerate_grids():
    perfect = compute_report(ConfusionMatrix(grid=((5, 0), (0, 5))))
    assert perfect.macro_f1 == 1
    assert perfect.micro_accuracy == 1
    assert perfect.forward == ClassMetrics(Fraction(1), Fraction(1), Fraction(1))
    inverted = compute_report(ConfusionMatrix(grid=((0, 3), (3, 0))))
    assert inverted.macro_f1 == 0
    assert inverted.micro_accuracy == 0


def test_compute_report_rejects_empty_grid():
    with pytest.raises(EmptyEvaluationSetError):
        compute_report(ConfusionMatrix(grid=((0, 0), (0, 0)), abstained=3))


@pytest.mark.parametrize(
    "counts",
    [{"grid": ((1, -1), (0, 1))}, {"grid": ((1, 0), (0, 1)), "abstained": -1},
     {"grid": ((1, 0), (0, 1)), "unparsable": -1}],
    ids=["grid", "abstained", "unparsable"],
)
def test_a_negative_confusion_count_is_refused(counts):
    with pytest.raises(ValueError, match="confusion counts must be non-negative"):
        ConfusionMatrix(**counts)


def test_report_metrics_recoverable_from_serialized_grid():
    report = compute_report(table3_confusion())
    payload = report.to_dict()
    rebuilt = compute_report(
        ConfusionMatrix(
            grid=tuple(tuple(row) for row in payload["confusion"]["grid"]),
            abstained=payload["confusion"]["abstained"],
            unparsable=payload["confusion"]["unparsable"],
        )
    )
    assert abs(float(rebuilt.macro_f1) - payload["macro_f1"]) < 1e-12
    assert abs(float(rebuilt.micro_accuracy) - payload["micro_accuracy"]) < 1e-12


def test_render_confusion_table_layout():
    table = render_confusion_table(table3_confusion())
    lines = table.splitlines()
    assert "truth A->B" in lines[0] and "truth A<-B" in lines[0]
    assert lines[1].startswith("pred A->B") and "335" in lines[1] and "7" in lines[1]
    assert lines[2].startswith("pred A<-B") and "6" in lines[2] and "650" in lines[2]
    assert "abstained: 5" in table


# --- pairwise evaluation -----------------------------------------------------------


def _fixture_for(records, answers) -> ReplayFixture:
    entries = {}
    for record, answer in zip(records, answers):
        entries[_question_fingerprint(record)] = ReplayEntry(
            f"reasoning\n<Answer>{answer}</Answer>"
        )
    return ReplayFixture(entries=entries)


def test_run_pairwise_eval_counts_by_roles(gateway_factory):
    records = parse_semeval(reference_file())
    # Correct on rows 1-3, wrong on row 4, non-causal row skipped.
    fixture = _fixture_for(records[:4], ["A", "B", "A", "A"])
    gateway, _ = gateway_factory(fixture)
    report = run_pairwise_eval(records, gateway)
    assert report.confusion.grid == ((2, 1), (0, 1))
    confusion = report.confusion
    assert confusion.grid_total + confusion.abstained + confusion.unparsable == 4


def test_run_pairwise_eval_tracks_abstentions_and_unparsable(gateway_factory):
    records = parse_semeval(reference_file())
    fixture = _fixture_for(records[:4], ["A", "C", "A", "zzz"])
    from causaltext.prompts import render_reask_prompt
    from causaltext.evaluation import _record_question
    from causaltext.prompts import render_orientation_prompt

    reask = render_reask_prompt(render_orientation_prompt(_record_question(records[3])))
    fixture.entries[reask.fingerprint] = ReplayEntry("still refusing to answer")
    gateway, _ = gateway_factory(fixture)
    report = run_pairwise_eval(records, gateway)
    assert report.confusion.abstained == 1
    assert report.confusion.unparsable == 1
    assert report.confusion.grid_total == 2
    confusion = report.confusion
    assert confusion.grid_total + confusion.abstained + confusion.unparsable == 4


def test_run_pairwise_eval_non_strict_miss_counts_unparsable(gateway_factory):
    # a record the fixture lacks fails the evaluation; it is never counted unparsable
    records = parse_semeval(reference_file())
    gateway, _ = gateway_factory(_fixture_for(records[:3], ["A", "B", "A"]))
    with pytest.raises(FixtureMissError):
        run_pairwise_eval(records, gateway)


def test_run_pairwise_eval_handles_reversed_tag_order(gateway_factory):
    # The second-tagged entity appears first in the sentence, so it takes the
    # first role in the question; a Forward verdict then means e2 causes e1.
    records = parse_semeval(
        '1\t"The <e2>wound</e2> produced an <e1>infection</e1> later."\n'
        "Cause-Effect(e2,e1)\n"
    )
    record = records[0]
    assert record.e2_start < record.e1_start
    fixture = _fixture_for([record], ["A"])
    gateway, _ = gateway_factory(fixture)
    report = run_pairwise_eval(records, gateway)
    assert report.confusion.grid == ((0, 0), (0, 1))


def test_run_pairwise_eval_counts_identical_spans_unparsable(gateway_factory, caplog):
    # both spans of record 1 normalize to "fire", and record 3's blank span to an
    # empty label: no question can be built for either, so none is asked
    records = parse_semeval(
        '1\t"<e1>Fire</e1> spreads more <e2>fire</e2>."\nCause-Effect(e1,e2)\n\n'
        '2\t"The <e1>infection</e1> came from a <e2>wound</e2>."\nCause-Effect(e2,e1)\n\n'
        '3\t"The <e1> </e1> came from a <e2>wound</e2>."\nCause-Effect(e2,e1)\n'
    )
    gateway, _ = gateway_factory(_fixture_for(records[1:2], ["B"]))
    with caplog.at_level("WARNING"):
        report = run_pairwise_eval(records, gateway)
    assert report.confusion.unparsable == 2
    assert report.confusion.grid == ((0, 0), (0, 1))
    messages = [record.message for record in caplog.records]
    for expected in (
        "record 1: cannot build a question (a question needs two distinct entities)",
        "record 3: cannot build a question (canonical_label must be non-empty)",
    ):
        assert any(expected in message for message in messages), messages


def test_run_pairwise_eval_rejects_empty_causal_subset(gateway_factory):
    records = parse_semeval(
        '1\t"The <e1>box</e1> holds <e2>marbles</e2>."\nMember-Collection(e1,e2)\n'
    )
    gateway, _ = gateway_factory(ReplayFixture())
    with pytest.raises(EmptyEvaluationSetError):
        run_pairwise_eval(records, gateway)


def test_run_pairwise_eval_full_scripted_benchmark(gateway_factory):
    semeval_text, fixture = benchmark_with_scripted_replies()
    records = parse_semeval(semeval_text)
    assert len(records) == 1005
    assert sum(1 for r in records if r.causal_orientation is not None) == 1003
    gateway, _ = gateway_factory(fixture, parallelism=4)
    report = run_pairwise_eval(records, gateway)
    assert report.confusion.grid == ((335, 7), (6, 650))
    assert report.confusion.abstained == 5
    assert report.confusion.unparsable == 0
    confusion = report.confusion
    assert confusion.grid_total + confusion.abstained + confusion.unparsable == 1003


def test_run_pairwise_eval_inline_equals_pooled(gateway_factory):
    semeval_text, fixture = benchmark_with_scripted_replies()
    records = parse_semeval(semeval_text)
    reports = [
        run_pairwise_eval(records, gateway_factory(fixture, parallelism=p)[0])
        for p in (1, 4)
    ]
    assert reports[0] == reports[1]
    assert reports[0].confusion.grid == ((335, 7), (6, 650))


# --- graph evaluation -----------------------------------------------------------------


def _shortcut_graph() -> CausalGraph:
    entities = [Entity(id=i, canonical_label=i, first_offset=n)
                for n, i in enumerate("abc")]
    return transitive_flagged(CausalGraph(
        GraphKind.EXTRACTED,
        entities,
        [Arc("a", "b"), Arc("b", "c"), Arc("a", "c")],
    ))


def _truth_ab_bc() -> CausalGraph:
    entities = [Entity(id=i, canonical_label=i) for i in "abc"]
    return CausalGraph(GraphKind.GROUND_TRUTH, entities, [Arc("a", "b"), Arc("b", "c")])


def test_evaluate_graph_run_shortcut_pattern():
    comparison = compare_graphs(_shortcut_graph(), _truth_ab_bc())
    assert comparison.precision == Fraction(2, 3)
    assert comparison.recall == 1
    assert comparison.transitive_fp_share == 1


def test_evaluate_graph_run_perfect_extraction_share_undefined():
    entities = [Entity(id=i, canonical_label=i) for i in "abc"]
    truth = CausalGraph(
        GraphKind.GROUND_TRUTH, entities,
        [Arc("a", "b"), Arc("b", "c"), Arc("a", "c")],
    )
    comparison = compare_graphs(_shortcut_graph(), truth)
    assert comparison.precision == 1
    assert comparison.recall == 1
    assert comparison.transitive_fp_share is None


def test_transitive_share_counts_only_flagged_false_positives():
    entities = [Entity(id=i, canonical_label=i) for i in "abcd"]
    extracted = transitive_flagged(CausalGraph(
        GraphKind.EXTRACTED,
        entities,
        [Arc("a", "b"), Arc("b", "c"), Arc("a", "c"), Arc("a", "d")],
    ))
    truth = CausalGraph(
        GraphKind.GROUND_TRUTH,
        entities,
        [Arc("a", "b"), Arc("b", "c")],
    )
    comparison = compare_with_transitive_share(extracted, truth)
    assert comparison.false_positive_arcs == {("a", "c"), ("a", "d")}
    assert comparison.transitive_fp_share == Fraction(1, 2)

