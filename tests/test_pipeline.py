from __future__ import annotations

import json
import random

import pytest

from causaltext.errors import (
    AuthError,
    EntityNotInTextError,
    GraphFileError,
    OppositeArcConflictError,
    PipelineStageError,
    TooFewEntitiesError,
)
from causaltext.gateway import (
    ExchangeSource,
    Gateway,
    ProviderConfig,
    ReplayEntry,
    ReplayFixture,
)
from causaltext.graph import (
    Arc,
    CausalGraph,
    Entity,
    GraphFormat,
    serialize_graph,
)
from causaltext.pipeline import (
    PartiallyDirectedGraph,
    PipelineConfig,
    build_graph,
    enumerate_pairs,
    extract_entities,
    orient_cpdag,
    parse_pdag,
    query_orientation,
    run_pipeline,
    run_report,
)
from causaltext.prompts import (
    OrientationQuestion,
    Verdict,
    parse_entity_list,
    render_entity_prompt,
    render_orientation_prompt,
    render_reask_prompt,
)
from helpers import DATA_DIR, CountingTransport
from synth import expected_pipeline_arcs, pipeline_document

MEDICAL_HINT = "diseases, medications, treatments, and symptoms"


def entity(label: str, offset: int) -> Entity:
    return Entity(id=label, canonical_label=label, first_offset=offset)


# --- extract_entities -------------------------------------------------------


@pytest.fixture
def ft1d_setup(gateway_factory):
    source_text = (DATA_DIR / "ft1d_abstract.txt").read_text(encoding="utf-8")
    reply = "\n".join(
        [
            "<Entity>FT1D</Entity>",
            "<Entity>pancreatic beta cells</Entity>",
            "<Entity>diabetes ketoacidosis</Entity>",
            "<Entity>susceptibility genes</Entity>",
            "<Entity>viral infections</Entity>",
            "<Entity>vaccine inoculation</Entity>",
            "<Entity>fulminant type 1 diabetes</Entity>",
            "<Group><Entity>FT1D</Entity>"
            "<Entity>fulminant type 1 diabetes</Entity></Group>",
        ]
    )
    prompt = render_entity_prompt(source_text, MEDICAL_HINT)
    fixture = ReplayFixture(entries={prompt.fingerprint: ReplayEntry(reply)})
    gateway, _ = gateway_factory(fixture)
    return source_text, gateway


def test_extract_entities_orders_by_first_mention(ft1d_setup):
    source_text, gateway = ft1d_setup
    entities = extract_entities(source_text, MEDICAL_HINT, gateway)
    labels = [e.canonical_label for e in entities]
    assert labels == [
        "fulminant type 1 diabetes",
        "pancreatic beta cells",
        "diabetes ketoacidosis",
        "susceptibility genes",
        "viral infections",
        "vaccine inoculation",
    ]
    offsets = [e.first_offset for e in entities]
    assert offsets == sorted(offsets)


def test_extract_entities_merges_synonym_groups(ft1d_setup):
    source_text, gateway = ft1d_setup
    entities = extract_entities(source_text, MEDICAL_HINT, gateway)
    merged = entities[0]
    assert merged.canonical_label == "fulminant type 1 diabetes"
    assert merged.surface_forms == frozenset({"ft1d", "fulminant type 1 diabetes"})
    assert merged.first_offset == 0


def test_extract_entities_drops_unlocatable_spans(gateway_factory, caplog):
    source_text = "Stress raises blood pressure."
    reply = "<Entity>stress</Entity><Entity>blood pressure</Entity><Entity>unicorns</Entity>"
    prompt = render_entity_prompt(source_text, "")
    gateway, _ = gateway_factory(
        ReplayFixture(entries={prompt.fingerprint: ReplayEntry(reply)})
    )
    with caplog.at_level("WARNING"):
        entities = extract_entities(source_text, "", gateway)
    assert [e.canonical_label for e in entities] == ["stress", "blood pressure"]
    assert any("unicorns" in record.message for record in caplog.records)


def test_extract_entities_locates_group_whose_member_is_no_listed_span(gateway_factory):
    # the unclosed first tag swallows "fume", yet the group scan still yields it
    source_text = "Smoke and gas fill the room."
    reply = "<Entity>smoke <Group><Entity>fume</Entity><Entity>gas</Entity></Group>"
    assert "fume" not in parse_entity_list(reply).entities
    prompt = render_entity_prompt(source_text, "")
    gateway, _ = gateway_factory(
        ReplayFixture(entries={prompt.fingerprint: ReplayEntry(reply)})
    )
    (entity,) = extract_entities(source_text, "", gateway)
    assert entity.canonical_label == "gas"
    assert entity.surface_forms == frozenset({"fume", "gas"})
    assert entity.first_offset == source_text.index("gas")


def test_extract_entities_enforces_cap_keeping_earliest(gateway_factory, caplog):
    source_text, fixture = pipeline_document(25)
    gateway, _ = gateway_factory(fixture)
    with caplog.at_level("WARNING"):
        entities = extract_entities(source_text, "", gateway, entity_cap=20)
    assert len(entities) == 20
    assert [e.canonical_label for e in entities] == [f"factor{i:02d}" for i in range(20)]
    assert any("cap" in record.message for record in caplog.records)


# --- enumerate_pairs ------------------------------------------------------------


def test_enumerate_pairs_counts():
    text = " ".join(f"item{i:02d}" for i in range(20))
    entities = [entity(f"item{i:02d}", text.index(f"item{i:02d}")) for i in range(20)]
    questions = enumerate_pairs(entities, text)
    assert len(questions) == 190
    keys = {q.pair_key for q in questions}
    assert len(keys) == 190


def test_enumerate_pairs_two_entities_document_order():
    text = "first then second"
    questions = enumerate_pairs(
        [entity("second", 11), entity("first", 0)], text
    )
    assert len(questions) == 1
    assert questions[0].entity_a.canonical_label == "first"
    assert questions[0].entity_b.canonical_label == "second"


def test_enumerate_pairs_invariant_under_permutation():
    rng = random.Random(5)
    text = " ".join(f"thing{i}" for i in range(6))
    entities = [entity(f"thing{i}", text.index(f"thing{i}")) for i in range(6)]
    reference = [q.pair_key for q in enumerate_pairs(entities, text)]
    for _ in range(5):
        shuffled = entities[:]
        rng.shuffle(shuffled)
        assert [q.pair_key for q in enumerate_pairs(shuffled, text)] == reference


def test_enumerate_pairs_needs_two():
    with pytest.raises(TooFewEntitiesError):
        enumerate_pairs([entity("only", 0)], "only")


# --- query_orientation -------------------------------------------------------------


def _pair_fixture(text, a, b, reply, latency=0.0):
    question = OrientationQuestion.from_pair(text, a, b)
    prompt = render_orientation_prompt(question)
    return question, {prompt.fingerprint: ReplayEntry(reply, latency)}


def test_query_orientation_forward_and_no_relation(gateway_factory):
    text = "the fume exposure caused skin sensitization"
    fume = entity("fume", 4)
    sens = entity("sensitization", text.index("sensitization"))
    question, entries = _pair_fixture(text, fume, sens, "reasoning\n<Answer>A</Answer>")
    gateway, _ = gateway_factory(ReplayFixture(entries=entries))
    assert query_orientation(question, gateway) is Verdict.FORWARD

    question2, entries2 = _pair_fixture(text, fume, sens, "<Answer>C</Answer>")
    gateway2, _ = gateway_factory(ReplayFixture(entries=entries2))
    assert query_orientation(question2, gateway2) is Verdict.NO_RELATION


def test_query_orientation_reasks_once_then_succeeds(gateway_factory):
    text = "rain made the ground wet"
    rain = entity("rain", 0)
    ground = entity("ground", text.index("ground"))
    question = OrientationQuestion.from_pair(text, rain, ground)
    prompt = render_orientation_prompt(question)
    reask = render_reask_prompt(prompt)
    fixture = ReplayFixture(
        entries={
            prompt.fingerprint: ReplayEntry("I cannot decide."),
            reask.fingerprint: ReplayEntry("<Answer>B</Answer>"),
        }
    )
    gateway, counter = gateway_factory(fixture, counting=True)
    assert query_orientation(question, gateway) is Verdict.BACKWARD
    assert counter.calls == 2


def test_query_orientation_tolerates_double_unparsable(gateway_factory):
    text = "rain made the ground wet"
    question = OrientationQuestion.from_pair(
        text, entity("rain", 0), entity("ground", text.index("ground"))
    )
    prompt = render_orientation_prompt(question)
    reask = render_reask_prompt(prompt)
    fixture = ReplayFixture(
        entries={
            prompt.fingerprint: ReplayEntry("shrug"),
            reask.fingerprint: ReplayEntry("still no tag"),
        }
    )
    gateway, _ = gateway_factory(fixture)
    assert query_orientation(question, gateway) is Verdict.UNPARSABLE


# --- build_graph ----------------------------------------------------------------------


def test_build_graph_direct_mapping():
    entities = [entity("a", 0), entity("b", 2), entity("c", 4)]
    verdicts = {
        ("a", "b"): Verdict.FORWARD,
        ("b", "c"): Verdict.FORWARD,
        ("a", "c"): Verdict.NO_RELATION,
    }
    graph = build_graph(entities, verdicts)
    assert {arc.pair for arc in graph.arcs} == {("a", "b"), ("b", "c")}


def test_build_graph_all_no_relation():
    entities = [entity("a", 0), entity("b", 2)]
    graph = build_graph(entities, {("a", "b"): Verdict.NO_RELATION})
    assert graph.arcs == ()


def test_build_graph_matches_fold_oracle_on_random_mappings():
    rng = random.Random(77)
    names = ["n1", "n2", "n3", "n4", "n5"]
    entities = [entity(name, i) for i, name in enumerate(names)]
    for _ in range(25):
        verdicts = {}
        for i in range(5):
            for j in range(i + 1, 5):
                verdicts[(names[i], names[j])] = rng.choice(list(Verdict))
        graph = build_graph(entities, verdicts)
        expected = set()
        for (a, b), verdict in verdicts.items():
            if verdict is Verdict.FORWARD:
                expected.add((a, b))
            elif verdict is Verdict.BACKWARD:
                expected.add((b, a))
        assert {arc.pair for arc in graph.arcs} == expected


def test_build_graph_order_independent():
    entities = [entity("a", 0), entity("b", 2), entity("c", 4)]
    verdicts = {
        ("a", "b"): Verdict.FORWARD,
        ("a", "c"): Verdict.BACKWARD,
        ("b", "c"): Verdict.FORWARD,
    }
    reversed_verdicts = dict(reversed(list(verdicts.items())))
    assert build_graph(entities, verdicts) == build_graph(entities, reversed_verdicts)


# --- run_pipeline ----------------------------------------------------------------------


def test_run_pipeline_replayed_document_matches_expected_graph(gateway_factory):
    source_text, fixture = pipeline_document(6)
    gateway, _ = gateway_factory(fixture)
    run = run_pipeline(source_text, "", PipelineConfig(), gateway)
    assert {arc.pair for arc in run.graph.arcs} == expected_pipeline_arcs(6)
    forward_backward = sum(
        1
        for verdict in run.verdicts.values()
        if verdict in (Verdict.FORWARD, Verdict.BACKWARD)
    )
    assert len(run.graph.arcs) == forward_backward
    assert run.stats.query_count == 15
    assert run.stats.abstention_count == sum(
        1 for verdict in run.verdicts.values() if verdict is Verdict.NO_RELATION
    )


def test_run_pipeline_deterministic_across_parallelism(gateway_factory):
    source_text, fixture = pipeline_document(10)
    outputs = []
    for parallelism in (1, 2, 8):
        gateway, _ = gateway_factory(fixture, parallelism=parallelism)
        run = run_pipeline(source_text, "", PipelineConfig(), gateway)
        outputs.append(
            (
                serialize_graph(run.graph, GraphFormat.STRUCTURED),
                serialize_graph(run.graph, GraphFormat.DOT),
                json.dumps(run_report(run), sort_keys=True),
            )
        )
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_pipeline_latency_statistics_are_exact(gateway_factory):
    text = "alpha alters beta and beta alters gamma today"
    names = ["alpha", "beta", "gamma"]
    entities = [entity(name, text.index(name)) for name in names]
    entries = {
        render_entity_prompt(text, "").fingerprint: ReplayEntry(
            "".join(f"<Entity>{n}</Entity>" for n in names), 2.0
        )
    }
    latencies = {("alpha", "beta"): 10.0, ("alpha", "gamma"): 13.0, ("beta", "gamma"): 11.5}
    for (a, b), latency in latencies.items():
        question = OrientationQuestion.from_pair(
            text, *(e for e in entities if e.id in (a, b))
        )
        prompt = render_orientation_prompt(question)
        entries[prompt.fingerprint] = ReplayEntry("<Answer>A</Answer>", latency)
    gateway, _ = gateway_factory(ReplayFixture(entries=entries))
    run = run_pipeline(text, "", PipelineConfig(), gateway)
    assert run.stats.mean_latency == pytest.approx(11.5, abs=0)
    assert run.stats.stdev_latency == pytest.approx(1.5, abs=1e-12)
    assert run.stats.projected_serial_seconds == pytest.approx(34.5, abs=0)
    assert run.stats.reask_count == 0


def test_run_pipeline_counts_reasks(gateway_factory):
    text = "rain made the ground wet"
    rain = entity("rain", 0)
    ground = entity("ground", text.index("ground"))
    question = OrientationQuestion.from_pair(text, rain, ground)
    prompt = render_orientation_prompt(question)
    entries = {
        render_entity_prompt(text, "").fingerprint: ReplayEntry(
            "<Entity>rain</Entity><Entity>ground</Entity>"
        ),
        prompt.fingerprint: ReplayEntry("no tag here"),
        render_reask_prompt(prompt).fingerprint: ReplayEntry("<Answer>B</Answer>"),
    }
    gateway, _ = gateway_factory(ReplayFixture(entries=entries))
    run = run_pipeline(text, "", PipelineConfig(), gateway)
    assert run.stats.reask_count == 1
    assert {arc.pair for arc in run.graph.arcs} == {("ground", "rain")}


def test_replayed_run_touches_no_network(gateway_factory, monkeypatch):
    import requests

    def refuse(*args, **kwargs):
        raise AssertionError("replayed run attempted a network call")

    monkeypatch.setattr(requests, "post", refuse)
    monkeypatch.setattr(requests, "get", refuse)
    source_text, fixture = pipeline_document(5)
    gateway, _ = gateway_factory(fixture)
    run = run_pipeline(source_text, "", PipelineConfig(), gateway)
    assert run.stats.query_count == 10


def test_pipeline_cycles_are_never_two_cycles(gateway_factory):
    # One query per unordered pair: any cycle in a pipeline graph has length >= 3.
    for size in (4, 5, 6):
        source_text, fixture = pipeline_document(size)
        gateway, _ = gateway_factory(fixture)
        run = run_pipeline(source_text, "", PipelineConfig(), gateway)
        assert all(len(cycle) >= 3 for cycle in run.cycle_report.cycles)


def test_pipeline_trace_forbids_opposite_arc():
    # One query per unordered pair means a reverse arc can only be a bug.
    source_text, fixture = pipeline_document(2)
    from causaltext.gateway import Gateway, ProviderConfig, ReplayTransport

    gateway = Gateway(
        ProviderConfig(cache_dir="/tmp/unused", requests_per_minute=1e9),
        ReplayTransport(fixture),
    )
    run = run_pipeline(source_text, "", PipelineConfig(), gateway)
    (arc,) = run.graph.arcs
    with pytest.raises(OppositeArcConflictError):
        CausalGraph(
            run.graph.kind, run.graph.entities, [*run.graph.arcs, Arc(arc.effect, arc.cause)]
        )


def test_run_pipeline_reports_completed_stage_on_failure(gateway_factory):
    source_text, fixture = pipeline_document(4)
    entity_prompt = render_entity_prompt(source_text, "")
    only_entities = ReplayFixture(
        entries={entity_prompt.fingerprint: fixture.entries[entity_prompt.fingerprint]},
        strict=True,
    )
    gateway, _ = gateway_factory(only_entities)
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(source_text, "", PipelineConfig(), gateway)
    assert excinfo.value.completed_stage == "enumerate_pairs"
    assert len(excinfo.value.partial["entities"]) == 4


def test_run_pipeline_failure_before_any_stage(gateway_factory):
    gateway, _ = gateway_factory(ReplayFixture(strict=True))
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline("some document text", "", PipelineConfig(), gateway)
    assert excinfo.value.completed_stage is None


def test_run_pipeline_stops_spending_after_a_fatal_error(tmp_path):
    source_text, fixture = pipeline_document(20, modulus=9)
    entity_fingerprint = render_entity_prompt(source_text, "").fingerprint

    class RefuseOrientation:
        source = ExchangeSource.LIVE

        def send(self, prompt):
            if prompt.fingerprint == entity_fingerprint:
                return fixture.entries[entity_fingerprint].reply_text, 0.0
            raise AuthError("provider rejected the credential (401)")

    for parallelism in (1, 4):
        transport = CountingTransport(RefuseOrientation())
        config = ProviderConfig(
            cache_dir=tmp_path / f"cache{parallelism}",
            parallelism=parallelism,
            requests_per_minute=1e9,
        )
        with pytest.raises(PipelineStageError) as excinfo:
            run_pipeline(source_text, "", PipelineConfig(), Gateway(config, transport))
        assert excinfo.value.completed_stage == "enumerate_pairs"
        if parallelism == 1:
            # inline: the entity query plus the failing first pair, nothing more
            assert transport.calls == 2
        else:
            assert transport.calls < 50, (parallelism, transport.calls)


def test_run_pipeline_enforce_acyclic(gateway_factory):
    text = "alpha alters beta and beta alters gamma today"
    names = ["alpha", "beta", "gamma"]
    entities = [entity(name, text.index(name)) for name in names]
    answers = {("alpha", "beta"): "A", ("alpha", "gamma"): "B", ("beta", "gamma"): "A"}
    entries = {
        render_entity_prompt(text, "").fingerprint: ReplayEntry(
            "".join(f"<Entity>{n}</Entity>" for n in names)
        )
    }
    for (a, b), answer in answers.items():
        question = OrientationQuestion.from_pair(
            text, *(e for e in entities if e.id in (a, b))
        )
        entries[render_orientation_prompt(question).fingerprint] = ReplayEntry(
            f"<Answer>{answer}</Answer>"
        )
    fixture = ReplayFixture(entries=entries)

    baseline_gateway, _ = gateway_factory(fixture)
    baseline = run_pipeline(text, "", PipelineConfig(), baseline_gateway)
    assert baseline.cycle_report.cycles == (("alpha", "beta", "gamma"),)
    assert {arc.pair for arc in baseline.graph.arcs} == {
        ("alpha", "beta"), ("beta", "gamma"), ("gamma", "alpha"),
    }

    gateway, _ = gateway_factory(fixture)
    run = run_pipeline(text, "", PipelineConfig(enforce_acyclic=True), gateway)
    assert len(run.removed_arcs) == 1
    from causaltext.graph import detect_cycles

    assert detect_cycles(run.graph).is_acyclic
    assert not run.cycle_report.is_acyclic


def test_run_pipeline_enforce_acyclic_lists_cycles_once(gateway_factory, monkeypatch):
    import networkx

    listings = []
    simple_cycles = networkx.simple_cycles

    def counted(digraph):
        listings.append(digraph.number_of_edges())
        return simple_cycles(digraph)

    monkeypatch.setattr(networkx, "simple_cycles", counted)
    source_text, fixture = pipeline_document(8)
    gateway, _ = gateway_factory(fixture)
    run = run_pipeline(source_text, "", PipelineConfig(enforce_acyclic=True), gateway)
    assert len(run.cycle_report.cycles) == 61
    assert len(run.removed_arcs) == 4
    assert listings == [19]


# --- orient_cpdag -------------------------------------------------------------------


def _pdag_setup():
    text = "alpha raises beta while beta steers gamma overall"
    entities = (
        Entity(id="a", canonical_label="alpha"),
        Entity(id="b", canonical_label="beta"),
        Entity(id="c", canonical_label="gamma"),
    )
    pdag = PartiallyDirectedGraph(
        entities=entities,
        directed_arcs=(("a", "b"),),
        undirected_edges=(("b", "c"),),
    )
    return text, entities, pdag


def test_orient_cpdag_composes_imported_and_queried_arcs(gateway_factory):
    text, entities, pdag = _pdag_setup()
    beta = Entity(id="b", canonical_label="beta", first_offset=text.index("beta"))
    gamma = Entity(id="c", canonical_label="gamma", first_offset=text.index("gamma"))
    question = OrientationQuestion.from_pair(text, beta, gamma)
    prompt = render_orientation_prompt(question)
    for reply, queried in (("A", ("b", "c")), ("B", ("c", "b"))):
        gateway, _ = gateway_factory(
            ReplayFixture(
                entries={prompt.fingerprint: ReplayEntry(f"<Answer>{reply}</Answer>")}
            )
        )
        graph = orient_cpdag(pdag, text, gateway)
        assert {arc.pair for arc in graph.arcs} == {("a", "b"), queried}


def test_orient_cpdag_zero_queries_when_fully_directed(gateway_factory):
    text, entities, _ = _pdag_setup()
    pdag = PartiallyDirectedGraph(
        entities=entities, directed_arcs=(("a", "b"), ("b", "c")), undirected_edges=()
    )
    gateway, counter = gateway_factory(ReplayFixture(strict=True), counting=True)
    graph = orient_cpdag(pdag, text, gateway)
    assert counter.calls == 0
    assert {arc.pair for arc in graph.arcs} == {("a", "b"), ("b", "c")}


def test_orient_cpdag_drops_denied_edge_with_warning(gateway_factory, caplog):
    text, entities, pdag = _pdag_setup()
    beta = Entity(id="b", canonical_label="beta", first_offset=text.index("beta"))
    gamma = Entity(id="c", canonical_label="gamma", first_offset=text.index("gamma"))
    prompt = render_orientation_prompt(OrientationQuestion.from_pair(text, beta, gamma))
    gateway, _ = gateway_factory(
        ReplayFixture(entries={prompt.fingerprint: ReplayEntry("<Answer>C</Answer>")})
    )
    with caplog.at_level("WARNING"):
        graph = orient_cpdag(pdag, text, gateway)
    assert {arc.pair for arc in graph.arcs} == {("a", "b")}
    assert any("dropping undirected edge" in r.message for r in caplog.records)


def test_orient_cpdag_requires_endpoint_surface_forms_in_text(gateway_factory):
    from causaltext.errors import EntityNotInTextError

    entities = (
        Entity(id="a", canonical_label="alpha"),
        Entity(id="b", canonical_label="beta"),
        Entity(id="c", canonical_label="gamma"),
    )
    pdag = PartiallyDirectedGraph(
        entities=entities, directed_arcs=(), undirected_edges=(("b", "c"),)
    )
    gateway, _ = gateway_factory(ReplayFixture(strict=True))
    with pytest.raises(EntityNotInTextError):
        orient_cpdag(pdag, "alpha raises beta but nothing else", gateway)


def test_orient_cpdag_locates_every_endpoint_before_querying(gateway_factory):
    text = "alpha raises beta but nothing else"
    entities = (
        Entity(id="a", canonical_label="alpha"),
        Entity(id="b", canonical_label="beta"),
        Entity(id="c", canonical_label="gamma"),
    )
    question = OrientationQuestion.from_pair(
        text, entity("alpha", 0), entity("beta", text.index("beta"))
    )
    fixture = ReplayFixture(
        entries={
            render_orientation_prompt(question).fingerprint: ReplayEntry(
                "<Answer>A</Answer>"
            )
        }
    )
    pdag = PartiallyDirectedGraph(
        entities=entities, directed_arcs=(), undirected_edges=(("a", "b"), ("b", "c"))
    )
    gateway, counter = gateway_factory(fixture, counting=True)
    with pytest.raises(EntityNotInTextError):
        orient_cpdag(pdag, text, gateway)
    assert counter.calls == 0


def test_orient_cpdag_deterministic_across_parallelism(gateway_factory):
    source_text, fixture = pipeline_document(6)
    names = [f"factor{i:02d}" for i in range(6)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    pdag = PartiallyDirectedGraph(
        entities=tuple(Entity(id=name, canonical_label=name) for name in names),
        directed_arcs=(pairs[0],),
        undirected_edges=tuple(pairs[1:]),
    )
    graphs = []
    for parallelism in (1, 4):
        gateway, counter = gateway_factory(fixture, parallelism=parallelism, counting=True)
        graphs.append(orient_cpdag(pdag, source_text, gateway))
        assert counter.calls == len(pairs) - 1
    expected = {
        arc for arc in expected_pipeline_arcs(6) if set(arc) != set(pairs[0])
    } | {pairs[0]}
    assert {arc.pair for arc in graphs[0].arcs} == expected
    assert graphs[0] == graphs[1]


def test_pdag_rejects_overlapping_pairs():
    entities = (
        Entity(id="a", canonical_label="alpha"),
        Entity(id="b", canonical_label="beta"),
    )
    with pytest.raises(ValueError):
        PartiallyDirectedGraph(
            entities=entities,
            directed_arcs=(("a", "b"),),
            undirected_edges=(("b", "a"),),
        )


def test_parse_pdag_round_trip_and_validation():
    payload = {
        "entities": [
            {"id": "a", "canonical_label": "alpha"},
            {"id": "b", "canonical_label": "beta"},
            {"id": "c", "canonical_label": "gamma"},
        ],
        "arcs": [{"cause": "a", "effect": "b"}],
        "undirected": [{"a": "b", "b": "c"}],
    }
    pdag = parse_pdag(json.dumps(payload))
    assert pdag.directed_arcs == (("a", "b"),)
    assert pdag.undirected_edges == (("b", "c"),)
    with pytest.raises(GraphFileError):
        parse_pdag("not json")
    payload["undirected"] = [{"a": "a", "b": "b"}]
    with pytest.raises(GraphFileError):
        parse_pdag(json.dumps(payload))


def test_orient_cpdag_locates_each_endpoint_once(gateway_factory, monkeypatch):
    from causaltext import prompts

    searched = []
    find_first_offset = prompts.find_first_offset

    def counted(source_text, surface_form):
        searched.append(surface_form)
        return find_first_offset(source_text, surface_form)

    monkeypatch.setattr(prompts, "find_first_offset", counted)
    source_text, fixture = pipeline_document(6)
    names = [f"factor{i:02d}" for i in range(6)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    pdag = PartiallyDirectedGraph(
        entities=tuple(Entity(id=name, canonical_label=name) for name in names),
        directed_arcs=(),
        undirected_edges=tuple(pairs),
    )
    gateway, counter = gateway_factory(fixture, counting=True)
    graph = orient_cpdag(pdag, source_text, gateway)
    assert counter.calls == 15
    assert {arc.pair for arc in graph.arcs} == expected_pipeline_arcs(6)
    assert sorted(searched) == names
