from __future__ import annotations

import itertools
import json
import random
import sys
import time
import tracemalloc

import pytest

from causaltext import pipeline as pipeline_module
from causaltext.errors import (
    AuthError,
    FixtureMissError,
    MalformedProviderResponseError,
    NoEntitiesFoundError,
    OppositeArcConflictError,
    PipelineStageError,
    ProviderUnavailableError,
    TooFewEntitiesError,
)
from causaltext.gateway import (
    ExchangeSource,
    Gateway,
    ProviderConfig,
    ReplayEntry,
    ReplayFixture,
    ReplayTransport,
)
from causaltext.graph import (
    Arc,
    ArcFlag,
    CausalGraph,
    Entity,
    GraphFormat,
    flag_transitive_candidates,
    serialize_graph,
)
from causaltext.pipeline import (
    PipelineConfig,
    _query_with_exchanges,
    build_graph,
    enumerate_pairs,
    extract_entities,
    fan_out,
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


def test_extract_entities_raises_when_no_span_occurs_in_the_text(gateway_factory):
    source_text = "Stress raises blood pressure."
    prompt = render_entity_prompt(source_text, "")
    gateway, _ = gateway_factory(ReplayFixture(entries={
        prompt.fingerprint: ReplayEntry("<Entity>unicorns</Entity><Entity>dragons</Entity>")
    }))
    with pytest.raises(NoEntitiesFoundError):
        extract_entities(source_text, "", gateway)


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


# --- _query_with_exchanges ---------------------------------------------------------


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
    assert _query_with_exchanges(question, gateway)[0] is Verdict.FORWARD

    question2, entries2 = _pair_fixture(text, fume, sens, "<Answer>C</Answer>")
    gateway2, _ = gateway_factory(ReplayFixture(entries=entries2))
    assert _query_with_exchanges(question2, gateway2)[0] is Verdict.NO_RELATION


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
    assert _query_with_exchanges(question, gateway)[0] is Verdict.BACKWARD
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
    assert _query_with_exchanges(question, gateway)[0] is Verdict.UNPARSABLE


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


def test_cold_run_leaves_no_per_key_lock_behind(gateway_factory):
    source_text, fixture = pipeline_document(12)
    gateway, transport = gateway_factory(fixture, parallelism=4, counting=True)
    run_pipeline(source_text, "", PipelineConfig(), gateway)
    assert transport.calls == 67  # C(12, 2) + 1, every one a miss
    assert gateway._key_locks == {}


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
    )
    gateway, _ = gateway_factory(only_entities)
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(source_text, "", PipelineConfig(), gateway)
    assert excinfo.value.completed_stage == "enumerate_pairs"
    assert len(excinfo.value.partial["entities"]) == 4


def test_a_lone_surrogate_reply_fails_the_run_with_the_verdicts_paid_before_it(gateway_factory):
    source_text, fixture = pipeline_document(4)
    entities = extract_entities(source_text, "", gateway_factory(fixture)[0])
    questions = enumerate_pairs(entities, source_text)
    poisoned = render_orientation_prompt(questions[3]).fingerprint
    fixture.entries[poisoned] = ReplayEntry("the cause is \ud83d\n<Answer>A</Answer>")
    gateway, _ = gateway_factory(fixture)
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(source_text, "", PipelineConfig(), gateway)
    assert isinstance(excinfo.value.__cause__, MalformedProviderResponseError)
    assert excinfo.value.completed_stage == "enumerate_pairs"
    assert set(excinfo.value.partial["verdicts"]) == {q.pair_key for q in questions[:3]}


def test_run_pipeline_failure_before_any_stage(gateway_factory):
    gateway, _ = gateway_factory(ReplayFixture())
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline("some document text", "", PipelineConfig(), gateway)
    assert excinfo.value.completed_stage is None


def test_run_pipeline_stops_spending_after_a_fatal_error(tmp_path):
    source_text, fixture = pipeline_document(20, modulus=9)
    entity_fingerprint = render_entity_prompt(source_text, "").fingerprint
    entity_only = {entity_fingerprint: fixture.entries[entity_fingerprint]}

    class RefuseOrientation:
        source = ExchangeSource.LIVE

        def __init__(self, error):
            self.error = error

        def send(self, prompt):
            if prompt.fingerprint == entity_fingerprint:
                return fixture.entries[entity_fingerprint].reply_text, 0.0
            raise self.error("provider refused the orientation query (not retryable)")

    def refusing_transport(error):
        if error is FixtureMissError:  # a replay that holds only the entity reply
            return ReplayTransport(ReplayFixture(entity_only))
        return RefuseOrientation(error)

    for error in (AuthError, ProviderUnavailableError, FixtureMissError):
        for parallelism in (1, 4, 16):
            transport = CountingTransport(refusing_transport(error))
            config = ProviderConfig(
                cache_dir=tmp_path / f"cache-{error.__name__}-{parallelism}",
                parallelism=parallelism,
                requests_per_minute=1e9,
            )
            with pytest.raises(PipelineStageError) as excinfo:
                run_pipeline(source_text, "", PipelineConfig(), Gateway(config, transport))
            assert excinfo.value.completed_stage == "enumerate_pairs"
            assert isinstance(excinfo.value.__cause__, error)
            if parallelism == 1:
                # inline: the entity query plus the failing first pair, nothing more
                assert transport.calls == 2
            else:
                # no call starts after the first refusal, so only the calls
                # already in flight with it can send
                assert transport.calls <= 1 + parallelism, (error, parallelism, transport.calls)


def test_partial_verdicts_hold_every_answered_pair(tmp_path):
    source_text, fixture = pipeline_document(10)
    listed = extract_entities(source_text, "", Gateway(
        ProviderConfig(cache_dir=tmp_path / "entities"), ReplayTransport(fixture)))
    pair_of = {
        render_orientation_prompt(question).fingerprint: question.pair_key
        for question in enumerate_pairs(listed, source_text)
    }
    first = next(iter(pair_of))

    class FailFirstOrientation:
        source = ExchangeSource.LIVE

        def __init__(self):
            self.answered = set()

        def send(self, prompt):
            if prompt.fingerprint == first:
                time.sleep(0.05)
                raise ProviderUnavailableError("provider answered status 400; not retryable")
            if prompt.fingerprint in pair_of:
                self.answered.add(pair_of[prompt.fingerprint])
            return fixture.entries[prompt.fingerprint].reply_text, 0.0

    transport = FailFirstOrientation()
    config = ProviderConfig(cache_dir=tmp_path / "cache", parallelism=4, requests_per_minute=1e9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' verdict stores as much as possible
    try:
        with pytest.raises(PipelineStageError) as excinfo:
            run_pipeline(source_text, "", PipelineConfig(), Gateway(config, transport))
    finally:
        sys.setswitchinterval(interval)
    assert transport.answered  # the other workers kept answering while the first pair failed
    assert set(excinfo.value.partial["verdicts"]) == transport.answered


def test_fan_out_raises_the_first_error_and_starts_almost_nothing_after_it():
    for failing in (0, 1):
        started = []

        def call(item):
            started.append(item)
            if item == failing:
                raise KeyError(f"item {item}")
            # item 0 ahead of a failing item 1 is slow, so a pool that only
            # cancels on the consumer's side keeps starting calls meanwhile
            time.sleep(0.1 if item == 0 else 0.001)
            return item

        with pytest.raises(KeyError, match=f"item {failing}"):
            list(fan_out(call, range(1000), parallelism=8))
        assert len(started) < 50, (failing, len(started))
    assert list(fan_out(lambda item: item * 2, range(1000), parallelism=8)) == [
        item * 2 for item in range(1000)
    ]


def test_fan_out_reraises_the_first_error_when_a_later_item_ran_first(monkeypatch):
    class OutOfOrderPool:
        """Runs item 1 before item 0, then yields the outcomes in input order."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            items = list(items)
            outcomes = {}
            for index in (1, 0):
                try:
                    outcomes[index] = (fn(items[index]), None)
                except Exception as exc:
                    outcomes[index] = (None, exc)

            def in_order():
                for index in range(len(items)):
                    value, error = outcomes[index]
                    if error is not None:
                        raise error
                    yield value

            return in_order()

    boom = KeyError("item 1")
    ran = []

    def call(item):
        ran.append(item)
        if item == 1:
            raise boom
        return item

    monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor", OutOfOrderPool)
    with pytest.raises(KeyError) as raised:
        list(fan_out(call, [0, 1], parallelism=2))
    assert raised.value is boom
    assert ran == [1]


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
    from causaltext import graph as graph_module

    listings = []
    simple_cycles = graph_module._simple_cycles

    def counted(successors):
        listings.append(sum(map(len, successors.values())))
        return simple_cycles(successors)

    monkeypatch.setattr(graph_module, "_simple_cycles", counted)
    source_text, fixture = pipeline_document(8)
    gateway, _ = gateway_factory(fixture)
    run = run_pipeline(source_text, "", PipelineConfig(enforce_acyclic=True), gateway)
    assert len(run.cycle_report.cycles) == 61
    assert len(run.removed_arcs) == 4
    assert listings == [19]


def test_run_pipeline_flags_only_the_graph_it_writes(gateway_factory):
    source_text, fixture = pipeline_document(8)
    for enforce in (False, True):
        gateway, _ = gateway_factory(fixture)
        run = run_pipeline(source_text, "", PipelineConfig(enforce_acyclic=enforce), gateway)
        # the flags describe the written graph, the analyses the extracted one
        transitive = {arc.pair for arc in flag_transitive_candidates(run.graph)}
        on_cycle = set() if enforce else run.cycle_report.on_cycle_pairs
        assert len(on_cycle) == (0 if enforce else 19)
        assert len(transitive) == (8 if enforce else 19)
        assert len(run.transitive_arcs) == 19
        for arc in run.graph.arcs:
            assert (ArcFlag.SUSPECTED_TRANSITIVE in arc.flags) == (arc.pair in transitive)
            assert (ArcFlag.ON_DIRECTED_CYCLE in arc.flags) == (arc.pair in on_cycle)
        # the analyses describe the extracted graph, whose arcs carry no flags
        assert not any(arc.flags for arc in run.transitive_arcs + run.removed_arcs)
        assert len(run.removed_arcs) == (4 if enforce else 0)


def test_written_transitive_flags_match_the_witness_oracle_on_random_scripts(
    gateway_factory, monkeypatch
):
    from causaltext import pipeline
    from oracles import brute_force_has_witness_path

    rng = random.Random(2110)
    text = " ".join(f"factor{i}" for i in range(8))
    entities = tuple(entity(f"factor{i}", text.index(f"factor{i}")) for i in range(8))
    script: dict = {}
    # scripted verdicts for scripted entities, with no prompt rendered or sent
    monkeypatch.setattr(pipeline, "extract_entities", lambda *args, **kwargs: script["entities"])
    monkeypatch.setattr(pipeline, "_query_with_exchanges",
                        lambda question, gateway: (script[question.pair_key], ()))
    gateway, _ = gateway_factory(ReplayFixture())
    verdicts = (Verdict.FORWARD, Verdict.BACKWARD, Verdict.NO_RELATION)
    enforced_with_removals = 0
    for _ in range(500):
        script["entities"] = entities[:rng.randint(3, 8)]
        for a, b in itertools.combinations(script["entities"], 2):
            script[(a.id, b.id)] = rng.choice(verdicts)
        for enforce in (False, True):
            run = run_pipeline(text, "", PipelineConfig(enforce_acyclic=enforce), gateway)
            enforced_with_removals += bool(run.removed_arcs)
            nodes = [e.id for e in run.graph.entities]
            pairs = {arc.pair for arc in run.graph.arcs}
            for arc in run.graph.arcs:
                assert (ArcFlag.SUSPECTED_TRANSITIVE in arc.flags) == (
                    brute_force_has_witness_path(nodes, pairs, arc.pair)
                ), (enforce, arc.pair, sorted(pairs))
    assert enforced_with_removals >= 250


def test_warm_run_memory_does_not_grow_with_pairs_times_text(tmp_path):
    """No prompt outlives its query: a 50 KB text at n=20 asks 190 of them."""
    source_text, fixture = pipeline_document(20, modulus=7, min_chars=50_000)
    config = ProviderConfig(cache_dir=tmp_path / "cache", requests_per_minute=1e9)
    with Gateway(config, ReplayTransport(fixture)) as cold:
        run_pipeline(source_text, "", PipelineConfig(), cold)
    gateway = Gateway(config, CountingTransport(ReplayTransport(fixture)))
    tracemalloc.start()
    try:
        run = run_pipeline(source_text, "", PipelineConfig(), gateway)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gateway._transport.calls == 0
    assert run.stats.query_count == 190
    assert peak < 2_000_000, peak
