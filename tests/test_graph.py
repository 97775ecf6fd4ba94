from __future__ import annotations

import dataclasses
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaltext.errors import (
    CycleBudgetExceededError,
    GraphFileError,
    OppositeArcConflictError,
    SelfLoopError,
    UnknownEntityError,
)
from causaltext.graph import (
    Arc,
    ArcFlag,
    CausalGraph,
    CycleReport,
    Entity,
    GraphFormat,
    GraphKind,
    compare_graphs,
    detect_cycles,
    enforce_acyclicity,
    flag_transitive_candidates,
    normalize_label,
    parse_graph,
    serialize_graph,
)
from fractions import Fraction

from helpers import transitive_flagged
from oracles import (
    brute_force_counts,
    brute_force_has_witness_path,
    brute_force_simple_cycles,
    reenumerating_enforce_acyclicity,
)


def make_graph(ids: str, pairs, kind=GraphKind.EXTRACTED) -> CausalGraph:
    entities = [Entity(id=i, canonical_label=i) for i in ids]
    arcs = [Arc(c, e) for c, e in pairs]
    return CausalGraph(kind, entities, arcs)


def arc_pairs(graph: CausalGraph) -> set[tuple[str, str]]:
    return {arc.pair for arc in graph.arcs}


def random_graph(rng: random.Random, size: int, density: float, kind=GraphKind.GROUND_TRUTH):
    ids = [chr(ord("a") + i) for i in range(size)]
    pairs = {
        (c, e) for c in ids for e in ids if c != e and rng.random() < density
    }
    if kind is GraphKind.EXTRACTED:
        filtered: set[tuple[str, str]] = set()
        for pair in sorted(pairs):
            if (pair[1], pair[0]) not in filtered:
                filtered.add(pair)
        pairs = filtered
    return make_graph(ids, pairs, kind=kind)


# --- entities and arcs --------------------------------------------------------


def test_normalize_label_lowercases_and_collapses_whitespace():
    assert normalize_label("  Pancreatic   Beta\nCells ") == "pancreatic beta cells"


def test_entity_requires_normalized_label():
    with pytest.raises(ValueError):
        Entity(id="x", canonical_label="Fume")
    with pytest.raises(ValueError):
        Entity(id="x", canonical_label="")
    with pytest.raises(ValueError):
        Entity(id="x", canonical_label="fume", first_offset=-1)


def test_entity_surface_forms_always_contain_canonical_label():
    entity = Entity(id="x", canonical_label="ft1d", surface_forms=frozenset({"other"}))
    assert "ft1d" in entity.surface_forms
    assert "other" in entity.surface_forms


def test_entity_lookup_of_an_unknown_id_raises():
    graph = CausalGraph(GraphKind.EXTRACTED, [Entity(id="a", canonical_label="a")])
    assert graph.entity("a").canonical_label == "a"
    with pytest.raises(UnknownEntityError, match="unknown entity 'b'"):
        graph.entity("b")


def test_a_surface_form_holding_a_lone_surrogate_is_refused():
    # the JSON escape of a lone surrogate: valid JSON, but no UTF-8 text
    payload = {"entities": [{"id": "a", "canonical_label": "a",
                             "surface_forms": ["a", "b\ud800"]}], "arcs": []}
    with pytest.raises(GraphFileError, match="'surface_forms' must hold valid UTF-8 text"):
        parse_graph(json.dumps(payload))


def test_arc_rejects_self_loops():
    with pytest.raises(SelfLoopError):
        Arc("a", "a")


# --- detect_cycles ---------------------------------------------------------------


def test_detect_cycles_on_dag():
    graph = make_graph("abc", [("a", "b"), ("b", "c")])
    report = detect_cycles(graph)
    assert report.is_acyclic
    assert report.cycles == ()


def test_detect_cycles_single_triangle():
    graph = make_graph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    report = detect_cycles(graph)
    assert report.cycles == (("a", "b", "c"),)
    assert not report.is_acyclic
    assert report.on_cycle_pairs == arc_pairs(graph)


def test_detect_cycles_flags_only_participating_arcs():
    graph = make_graph("abcd", [("a", "b"), ("b", "a"), ("c", "d")], kind=GraphKind.GROUND_TRUTH)
    report = detect_cycles(graph)
    assert report.on_cycle_pairs == {("a", "b"), ("b", "a")}
    assert all(not arc.flags for arc in graph.arcs)


def test_detect_cycles_matches_brute_force_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(60):
        size = rng.randint(2, 8)
        graph = random_graph(rng, size, rng.uniform(0.05, 0.35))
        expected = brute_force_simple_cycles(
            [e.id for e in graph.entities], arc_pairs(graph)
        )
        report = detect_cycles(graph)
        assert set(report.cycles) == expected
        assert list(report.cycles) == sorted(report.cycles)


def test_cycle_and_shadow_audits_match_networkx_on_seeded_digraphs():
    rng = random.Random(20261019)
    large = 0  # graphs with thousands of cycles
    for index in range(320):
        kind = (GraphKind.EXTRACTED, GraphKind.GROUND_TRUTH)[index % 2]
        density = rng.uniform(0.05, 0.9 if kind is GraphKind.EXTRACTED else 0.3)
        graph = random_graph(rng, rng.randint(1, 12), density, kind=kind)
        digraph = nx.DiGraph()
        digraph.add_nodes_from(entity.id for entity in graph.entities)
        digraph.add_edges_from(arc_pairs(graph))
        expected = sorted(
            tuple(cycle[cycle.index(min(cycle)):] + cycle[:cycle.index(min(cycle))])
            for cycle in nx.simple_cycles(digraph)
        )
        assert list(detect_cycles(graph, cycle_cap=len(expected)).cycles) == expected
        if expected:
            with pytest.raises(CycleBudgetExceededError):
                detect_cycles(graph, cycle_cap=len(expected) - 1)
        large += len(expected) >= 2000
        shadowed = []
        for arc in graph.arcs:
            digraph.remove_edge(*arc.pair)
            if nx.has_path(digraph, *arc.pair):
                shadowed.append(arc)
            digraph.add_edge(*arc.pair)
        assert flag_transitive_candidates(graph) == tuple(shadowed)
    assert large >= 5


def test_detect_cycles_budget():
    graph = make_graph(
        "abcd",
        [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")],
        kind=GraphKind.GROUND_TRUTH,
    )
    with pytest.raises(CycleBudgetExceededError):
        detect_cycles(graph, cycle_cap=1)


def test_cycle_report_consistency_enforced():
    # is_acyclic is derived from the cycle list, so the two cannot disagree
    assert CycleReport(()).is_acyclic
    assert not CycleReport((("a", "b"),)).is_acyclic
    assert CycleReport((("a", "b"),)).to_dict() == {"is_acyclic": False, "cycles": [["a", "b"]]}
    assert CycleReport((("a", "b", "c"),)).on_cycle_pairs == {("a", "b"), ("b", "c"), ("c", "a")}


# --- flag_transitive_candidates ---------------------------------------------------


def test_flag_transitive_shortcut_triangle():
    graph = make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    flagged = flag_transitive_candidates(graph)
    assert flagged == (graph.arc("a", "c"),)
    assert flagged[0] is graph.arc("a", "c")
    assert all(not arc.flags for arc in graph.arcs)


def test_flag_transitive_no_shortcut():
    graph = make_graph("abc", [("a", "b"), ("b", "c")])
    assert flag_transitive_candidates(graph) == ()


def test_flag_transitive_four_node_case():
    graph = make_graph(
        "abcd",
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")],
    )
    flagged = {arc.pair for arc in flag_transitive_candidates(graph)}
    assert flagged == {("a", "c"), ("a", "d")}


def test_flag_transitive_never_changes_arc_count_and_matches_witness_oracle():
    rng = random.Random(7)
    for _ in range(40):
        graph = random_graph(rng, rng.randint(2, 7), rng.uniform(0.1, 0.5))
        before = arc_pairs(graph)
        flagged = {arc.pair for arc in flag_transitive_candidates(graph)}
        assert arc_pairs(graph) == before
        nodes = [e.id for e in graph.entities]
        for pair in before:
            expected = brute_force_has_witness_path(nodes, before, pair)
            assert (pair in flagged) == expected


# --- enforce_acyclicity ------------------------------------------------------------


def test_enforce_acyclicity_noop_on_dag():
    graph = make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    result, removed = enforce_acyclicity(graph, detect_cycles(graph), ())
    assert removed == ()
    assert result == graph


def test_enforce_acyclicity_removes_max_coverage_arc():
    # c->a lies on both cycles; every single-arc alternative leaves one cycle.
    graph = make_graph(
        "abc",
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")],
        kind=GraphKind.GROUND_TRUTH,
    )
    for pair in arc_pairs(graph):
        remaining = arc_pairs(graph) - {pair}
        oracle_cycles = brute_force_simple_cycles(["a", "b", "c"], remaining)
        assert (not oracle_cycles) == (pair == ("c", "a"))
    result, removed = enforce_acyclicity(graph, detect_cycles(graph), ())
    assert [arc.pair for arc in removed] == [("c", "a")]
    assert detect_cycles(result).is_acyclic


def test_enforce_acyclicity_two_disjoint_triangles_sharing_a_node():
    graph = make_graph(
        "abcde",
        [("a", "b"), ("b", "c"), ("c", "a"), ("b", "d"), ("d", "e"), ("e", "b")],
    )
    result, removed = enforce_acyclicity(graph, detect_cycles(graph), ())
    assert len(removed) == 2
    assert detect_cycles(result).is_acyclic


def test_enforce_acyclicity_prefers_transitive_suspects_on_ties():
    # Both triangle arcs cover one cycle each; the flagged one must go first.
    graph = make_graph(
        "abc",
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    _, removed = enforce_acyclicity(graph, detect_cycles(graph), [graph.arc("c", "a")])
    assert [arc.pair for arc in removed] == [("c", "a")]
    _, removed = enforce_acyclicity(graph, detect_cycles(graph), [graph.arc("b", "c")])
    assert [arc.pair for arc in removed] == [("b", "c")]


def test_enforce_acyclicity_never_removes_off_cycle_arcs():
    # Removing arcs cannot create cycles, so every arc removed at any step
    # must already lie on a simple cycle of the original graph.
    rng = random.Random(99)
    for _ in range(30):
        graph = random_graph(rng, rng.randint(3, 7), rng.uniform(0.15, 0.45))
        report = detect_cycles(graph)
        on_cycle = {
            pair
            for cycle in report.cycles
            for pair in zip(cycle, cycle[1:] + cycle[:1])
        }
        result, removed = enforce_acyclicity(graph, report, flag_transitive_candidates(graph))
        assert detect_cycles(result).is_acyclic
        for arc in removed:
            assert arc.pair in on_cycle


def test_enforce_acyclicity_leaves_its_input_untouched():
    rng = random.Random(7)
    removals = 0
    for _ in range(30):
        graph = transitive_flagged(random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.5)))
        report = detect_cycles(graph)
        arcs = {arc.pair: arc for arc in graph.arcs}
        result, removed = enforce_acyclicity(graph, report, flag_transitive_candidates(graph))
        removals += len(removed)
        assert {arc.pair: arc for arc in graph.arcs} == arcs
        # removed and kept arcs alike are the input's arcs, flags included
        assert sorted(removed + result.arcs, key=lambda arc: arc.pair) == list(graph.arcs)
        for arc in removed + result.arcs:
            assert arc is arcs[arc.pair]
    assert removals > 30


def _detect_and_enforce(graph: CausalGraph, transitive, cycle_cap: int):
    """``enforce_acyclicity`` on the report of ``detect_cycles`` at ``cycle_cap``."""
    return enforce_acyclicity(graph, detect_cycles(graph, cycle_cap=cycle_cap), transitive)


def _enforcement_outcome(enforce, graph: CausalGraph, cycle_cap: int):
    """Removed pairs in order, their flags and the serialized result, or the error type."""
    try:
        result, removed = enforce(graph, flag_transitive_candidates(graph), cycle_cap=cycle_cap)
    except CycleBudgetExceededError:
        return CycleBudgetExceededError
    return (
        [arc.pair for arc in removed],
        [sorted(flag.value for flag in arc.flags) for arc in removed],
        serialize_graph(result),
    )


def test_enforce_acyclicity_matches_reenumerating_oracle_on_random_graphs():
    rng = random.Random(4242)
    cyclic = 0
    for index in range(500):
        kind = GraphKind.EXTRACTED if index % 2 else GraphKind.GROUND_TRUTH
        graph = random_graph(rng, rng.randint(3, 11), rng.uniform(0.05, 0.4), kind=kind)
        # flagged as run_pipeline writes an unenforced graph, so flags reach both outcomes
        report = detect_cycles(graph)
        cyclic += not report.is_acyclic
        graph = graph.with_flags({
            ArcFlag.SUSPECTED_TRANSITIVE: {arc.pair for arc in flag_transitive_candidates(graph)},
            ArcFlag.ON_DIRECTED_CYCLE: report.on_cycle_pairs,
        })
        expected = _enforcement_outcome(reenumerating_enforce_acyclicity, graph, 500)
        assert _enforcement_outcome(_detect_and_enforce, graph, 500) == expected
    assert cyclic > 200


def test_enforce_acyclicity_cycle_cap_matches_reenumerating_oracle():
    # Three cycles: a -> b -> a, a -> c -> a and a -> b -> c -> a.
    graph = make_graph(
        "abc",
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("b", "a")],
        kind=GraphKind.GROUND_TRUTH,
    )
    for enforce in (_detect_and_enforce, reenumerating_enforce_acyclicity):
        with pytest.raises(CycleBudgetExceededError):
            enforce(graph, (), cycle_cap=2)
        _, removed = enforce(graph, (), cycle_cap=3)
        assert removed


# --- compare_graphs ------------------------------------------------------------------


def test_compare_graphs_shortcut_pattern():
    extracted = make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    truth = make_graph("abc", [("a", "b"), ("b", "c")], kind=GraphKind.GROUND_TRUTH)
    comparison = compare_graphs(extracted, truth)
    assert comparison.precision == Fraction(2, 3)
    assert comparison.recall == 1
    assert comparison.f1 == Fraction(4, 5)
    assert comparison.false_positive_arcs == {("a", "c")}


def test_compare_graphs_identity():
    graph = make_graph("abc", [("a", "b"), ("b", "c")])
    comparison = compare_graphs(graph, graph)
    assert comparison.precision == 1
    assert comparison.recall == 1
    assert comparison.f1 == 1


def test_compare_graphs_empty_extraction():
    extracted = make_graph("ab", [])
    truth = make_graph("ab", [("a", "b")], kind=GraphKind.GROUND_TRUTH)
    comparison = compare_graphs(extracted, truth)
    assert comparison.recall == 0
    assert comparison.false_positive_arcs == frozenset()
    assert comparison.precision == 1
    assert comparison.f1 == 0


def test_compare_graphs_entities_present_in_only_one_graph():
    extracted = make_graph("abc", [("a", "c")])
    truth = make_graph("abd", [("a", "b"), ("a", "d")], kind=GraphKind.GROUND_TRUTH)
    comparison = compare_graphs(extracted, truth)
    assert comparison.false_positive_arcs == {("a", "c")}
    assert comparison.false_negative_arcs == {("a", "b"), ("a", "d")}


def test_compare_graphs_count_invariants_on_random_pairs():
    rng = random.Random(4242)
    for _ in range(50):
        extracted = random_graph(rng, rng.randint(2, 6), rng.uniform(0.1, 0.5))
        truth = random_graph(rng, rng.randint(2, 6), rng.uniform(0.1, 0.5))
        extracted = transitive_flagged(extracted)
        comparison = compare_graphs(extracted, truth)
        # labels equal ids in these fixtures
        tp, fp, fn = brute_force_counts(arc_pairs(extracted), arc_pairs(truth))
        assert len(comparison.true_positive_arcs) == tp
        assert len(comparison.false_positive_arcs) == fp
        assert len(comparison.false_negative_arcs) == fn
        assert tp + fn == len(truth.arcs)
        assert tp + fp == len(extracted.arcs)
        nodes = [entity.id for entity in extracted.entities]
        shadowed = sum(
            brute_force_has_witness_path(nodes, arc_pairs(extracted), pair)
            for pair in arc_pairs(extracted) - arc_pairs(truth)
        )
        expected_share = Fraction(shadowed, fp) if fp else None
        assert comparison.transitive_fp_share == expected_share


# --- serialization --------------------------------------------------------------------


def test_serialize_dot_single_edge_statement():
    graph = make_graph("ab", [("a", "b")])
    dot = serialize_graph(graph, GraphFormat.DOT)
    assert dot.count("->") == 1
    assert '"a" -> "b";' in dot


def test_serialize_dot_marks_transitive_arcs():
    graph = transitive_flagged(make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]))
    dot = serialize_graph(graph, GraphFormat.DOT)
    assert '"a" -> "c" [style=dashed];' in dot
    assert '"a" -> "b";' in dot


def test_structured_round_trip():
    graph = transitive_flagged(make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]))
    text = serialize_graph(graph, GraphFormat.STRUCTURED)
    assert parse_graph(text) == graph


def test_serialization_is_insertion_order_insensitive():
    rng = random.Random(11)
    entities = [Entity(id=i, canonical_label=i) for i in "abcde"]
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("e", "d")]
    reference = None
    for _ in range(10):
        shuffled_entities = entities[:]
        shuffled_pairs = pairs[:]
        rng.shuffle(shuffled_entities)
        rng.shuffle(shuffled_pairs)
        graph = CausalGraph(
            GraphKind.EXTRACTED, shuffled_entities, [Arc(c, e) for c, e in shuffled_pairs]
        )
        for fmt in GraphFormat:
            text = serialize_graph(graph, fmt)
            if reference is None:
                reference = {}
            reference.setdefault(fmt, text)
            assert text == reference[fmt]


def test_parse_graph_rejects_bad_files():
    with pytest.raises(GraphFileError):
        parse_graph("not json")
    with pytest.raises(GraphFileError):
        parse_graph('{"entities": []}')
    with pytest.raises(GraphFileError):
        parse_graph('{"entities": [], "arcs": [{"cause": "a", "effect": "b"}]}')
    with pytest.raises(GraphFileError):
        parse_graph(
            '{"entities": [{"id": "a", "canonical_label": "a"}],'
            ' "arcs": [{"cause": "a", "effect": "a"}]}'
        )


_ENTITIES = [{"id": "a", "canonical_label": "a"}, {"id": "b", "canonical_label": "b"}]


@pytest.mark.parametrize(
    "parse, payload",
    [
        (parse_graph, []),
        (parse_graph, {"entities": 5, "arcs": []}),
        (parse_graph, {"entities": [], "arcs": {}}),
        (parse_graph, {"entities": [5], "arcs": []}),
        (parse_graph, {"entities": [{"id": "a"}], "arcs": []}),
        (parse_graph, {"entities": [{"id": 1, "canonical_label": "a"}], "arcs": []}),
        (parse_graph, {"entities": [{"id": "a", "canonical_label": "a",
                                     "surface_forms": 5}], "arcs": []}),
        (parse_graph, {"entities": [{"id": "a", "canonical_label": "a",
                                     "surface_forms": "a"}], "arcs": []}),
        (parse_graph, {"entities": _ENTITIES, "arcs": [1]}),
        (parse_graph, {"entities": _ENTITIES, "arcs": [{"cause": "a", "effect": "b",
                                                        "flags": 5}]}),
        (parse_graph, {"entities": _ENTITIES, "arcs": [{"cause": "a", "effect": "b",
                                                        "flags": [["x"]]}]}),
        (parse_graph, {"entities": [{"id": "a", "canonical_label": "a",
                                     "surface_forms": [None, 5, {"x": 1}]}], "arcs": []}),
    ],
)
def test_malformed_graph_files_raise_graph_file_error(parse, payload):
    with pytest.raises(GraphFileError):
        parse(json.dumps(payload))


# --- structural invariants -------------------------------------------------------------


def test_extracted_graph_rejects_opposite_pairs_at_construction():
    entities = [Entity(id=i, canonical_label=i) for i in "ab"]
    with pytest.raises(OppositeArcConflictError):
        CausalGraph(GraphKind.EXTRACTED, entities, [Arc("a", "b"), Arc("b", "a")])
    truth = CausalGraph(GraphKind.GROUND_TRUTH, entities, [Arc("a", "b"), Arc("b", "a")])
    assert arc_pairs(truth) == {("a", "b"), ("b", "a")}


def test_graph_rejects_duplicate_ids_and_labels():
    with pytest.raises(ValueError):
        CausalGraph(
            GraphKind.EXTRACTED,
            [Entity(id="a", canonical_label="x"), Entity(id="a", canonical_label="y")],
        )
    with pytest.raises(ValueError):
        CausalGraph(
            GraphKind.EXTRACTED,
            [Entity(id="a", canonical_label="x"), Entity(id="b", canonical_label="x")],
        )
    entities = [Entity(id=i, canonical_label=i) for i in "ab"]
    with pytest.raises(UnknownEntityError):
        CausalGraph(GraphKind.EXTRACTED, entities, [Arc("a", "z")])
    with pytest.raises(ValueError):
        CausalGraph(GraphKind.EXTRACTED, entities, [Arc("a", "b"), Arc("a", "b")])


def test_graph_flags_do_not_alias_between_values():
    graph = make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    copy = CausalGraph(graph.kind, graph.entities, graph.arcs)
    assert copy.arc("a", "c") is graph.arc("a", "c")
    flagged = copy.with_flags({ArcFlag.SUSPECTED_TRANSITIVE: {("a", "c")}})
    assert flagged.arc("a", "c").flags == {ArcFlag.SUSPECTED_TRANSITIVE}
    assert not graph.arc("a", "c").flags and not copy.arc("a", "c").flags
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.arc("a", "c").flags = frozenset(ArcFlag)


def test_with_flags_sets_exactly_the_flags_it_is_given():
    graph = make_graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    both = graph.with_flags({
        ArcFlag.SUSPECTED_TRANSITIVE: {("a", "c")},
        ArcFlag.ON_DIRECTED_CYCLE: {("a", "b"), ("a", "c")},
    })
    assert {arc.pair: arc.flags for arc in both.arcs} == {
        ("a", "b"): {ArcFlag.ON_DIRECTED_CYCLE},
        ("a", "c"): set(ArcFlag),
        ("b", "c"): set(),
    }
    # flags already on the arcs are replaced, not kept
    assert both.with_flags({}) == graph


@given(st.text(max_size=40))
@settings(max_examples=200, deadline=None)
def test_normalize_label_is_idempotent(text):
    once = normalize_label(text)
    assert normalize_label(once) == once
