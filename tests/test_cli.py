from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import causaltext
from causaltext.cli import _resolve_settings, main
from causaltext.errors import CausalTextError
from causaltext.gateway import ProviderConfig, ReplayEntry, ReplayFixture, run_lock
from causaltext.graph import (
    Arc,
    CausalGraph,
    Entity,
    GraphFormat,
    GraphKind,
    flag_transitive_candidates,
    serialize_graph,
)
from causaltext.pipeline import PipelineConfig
from synth import benchmark_with_scripted_replies, pipeline_document


@pytest.fixture
def runner():
    return CliRunner()


def _env(tmp_path, **extra):
    env = {"CAUSALTEXT_CACHE_DIR": str(tmp_path / "cache")}
    env.update(extra)
    return env


OUTPUT_SUFFIXES = (".graph.json", ".dot", ".cycles.json", ".stats.json")


# --- extract ---------------------------------------------------------------


def test_extract_single_document_writes_four_files(tmp_path, runner):
    source_text, fixture = pipeline_document(4)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc1.txt"
    doc.write_text(source_text, encoding="utf-8")
    out = tmp_path / "out"

    result = runner.invoke(
        main,
        ["extract", "--replay", str(fixture_path), "--out", str(out), str(doc)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    produced = sorted(p.name for p in out.iterdir())
    assert produced == sorted(f"doc1{suffix}" for suffix in OUTPUT_SUFFIXES)


def test_extract_missing_input_is_config_error(tmp_path, runner):
    source_text, fixture = pipeline_document(3)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    result = runner.invoke(
        main,
        ["extract", "--replay", str(fixture_path), str(tmp_path / "absent.txt")],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 1


def test_extract_partial_batch_failure_exits_two(tmp_path, runner):
    entries = {}
    docs = []
    for index, size in enumerate((3, 4)):
        source_text, fixture = pipeline_document(size)
        entries.update(fixture.entries)
        doc = tmp_path / f"doc{index}.txt"
        doc.write_text(source_text, encoding="utf-8")
        docs.append(doc)
    # Third document: entity reply present, every pair entry missing.
    source_text, fixture = pipeline_document(5)
    entity_fp = next(
        fp for fp, entry in fixture.entries.items() if "<Entity>" in entry.reply_text
    )
    entries[entity_fp] = fixture.entries[entity_fp]
    doc = tmp_path / "doc2.txt"
    doc.write_text(source_text, encoding="utf-8")
    docs.append(doc)

    fixture_path = tmp_path / "fixture.json"
    ReplayFixture(entries=entries, strict=True).save(fixture_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["extract", "--replay", str(fixture_path), "--out", str(out)]
        + [str(d) for d in docs],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 2
    assert (out / "doc0.graph.json").exists()
    assert (out / "doc1.graph.json").exists()
    assert not (out / "doc2.graph.json").exists()


def test_extract_outputs_are_reproducible(tmp_path, runner):
    source_text, fixture = pipeline_document(5)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")

    contents = []
    for index in range(2):
        out = tmp_path / f"out{index}"
        result = runner.invoke(
            main,
            ["extract", "--replay", str(fixture_path), "--out", str(out), str(doc)],
            env={"CAUSALTEXT_CACHE_DIR": str(tmp_path / f"cache{index}")},
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        contents.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    assert contents[0] == contents[1]


def test_extract_record_then_replay_round_trip(tmp_path, runner):
    import json as json_module
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    replies = [
        "<Entity>rain</Entity><Entity>ground</Entity>",
        "The text says rain wets it.\n<Answer>A</Answer>",
    ]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            self.rfile.read(length)
            data = json_module.dumps(
                {"choices": [{"message": {"content": replies[self.server.hits]}}]}
            ).encode("utf-8")
            self.server.hits += 1
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.hits = 0
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json_module.dumps(
                {
                    "endpoint": f"http://127.0.0.1:{server.server_address[1]}/chat",
                    "requests_per_minute": 1e9,
                }
            ),
            encoding="utf-8",
        )
        doc = tmp_path / "doc.txt"
        doc.write_text("rain soaked the ground", encoding="utf-8")
        fixture_path = tmp_path / "recorded.json"

        result = runner.invoke(
            main,
            [
                "extract", "--config", str(config_path),
                "--record", str(fixture_path),
                "--out", str(tmp_path / "live_out"), str(doc),
            ],
            env={"CAUSALTEXT_CACHE_DIR": str(tmp_path / "cache_live")},
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        assert server.hits == 2
        assert fixture_path.exists()

        result = runner.invoke(
            main,
            [
                "extract", "--replay", str(fixture_path),
                "--out", str(tmp_path / "replay_out"), str(doc),
            ],
            env={"CAUSALTEXT_CACHE_DIR": str(tmp_path / "cache_replay")},
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        assert server.hits == 2
        live = (tmp_path / "live_out" / "doc.graph.json").read_bytes()
        replayed = (tmp_path / "replay_out" / "doc.graph.json").read_bytes()
        assert live == replayed
    finally:
        server.shutdown()
        server.server_close()


def test_extract_replay_and_record_are_exclusive(tmp_path, runner):
    doc = tmp_path / "doc.txt"
    doc.write_text("text", encoding="utf-8")
    result = runner.invoke(
        main,
        ["extract", "--replay", "a.json", "--record", "b.json", str(doc)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 1
    assert "mutually exclusive" in result.output


def _every_entry(payload: dict, key: str, value) -> dict:
    for entry in payload["entries"].values():
        entry[key] = value
    return payload


# refused on load: unchecked, each would crash a run midway or change what it does
MALFORMED_FIXTURES = {
    "entries not an object": lambda payload: {"entries": []},
    "payload not an object": lambda payload: [payload],
    "entry not an object": lambda payload: {"entries": {"f": "reply"}},
    "reply not a string": lambda payload: _every_entry(payload, "reply", 5),
    "negative latency": lambda payload: _every_entry(payload, "latency", -1),
    "NaN latency": lambda payload: _every_entry(payload, "latency", float("nan")),
    "string latency": lambda payload: _every_entry(payload, "latency", "1.5"),
    "boolean latency": lambda payload: _every_entry(payload, "latency", True),
    "string strict": lambda payload: {**payload, "strict": "false"},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIXTURES))
def test_malformed_replay_fixture_exits_one(tmp_path, runner, case):
    source_text, fixture = pipeline_document(4)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    payload = json.loads(fixture_path.read_text(encoding="utf-8"))
    fixture_path.write_text(json.dumps(MALFORMED_FIXTURES[case](payload)), encoding="utf-8")
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    result = runner.invoke(
        main,
        ["extract", "--replay", str(fixture_path), "--out", str(tmp_path / "out"), str(doc)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert "error: cannot load replay fixture" in result.output
    assert not (tmp_path / "out").exists()


def test_warm_cache_record_captures_every_exchange(tmp_path, runner, monkeypatch):
    from causaltext import cli
    from causaltext.gateway import ReplayTransport

    source_text, fixture = pipeline_document(6)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    # --record runs the live transport; answer it from the fixture instead
    monkeypatch.setattr(cli, "LiveTransport", lambda config: ReplayTransport(fixture))
    for name in ("cold", "warm"):
        result = runner.invoke(
            main,
            ["extract", "--record", str(tmp_path / f"{name}.json"),
             "--out", str(tmp_path / name), str(doc)],
            env=_env(tmp_path),
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
    warm = ReplayFixture.load(tmp_path / "warm.json")
    # C(6, 2) orientation queries plus the entity query, all from the cache
    assert len(warm.entries) == 16
    assert warm.entries == fixture.entries
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()

    result = runner.invoke(
        main,
        ["extract", "--replay", str(tmp_path / "warm.json"),
         "--out", str(tmp_path / "replayed"), str(doc)],
        env=_env(tmp_path, CAUSALTEXT_CACHE_DIR=str(tmp_path / "fresh_cache")),
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    for suffix in OUTPUT_SUFFIXES:
        replayed = (tmp_path / "replayed" / f"doc{suffix}").read_bytes()
        assert replayed == (tmp_path / "cold" / f"doc{suffix}").read_bytes(), suffix


def test_unreadable_input_fails_alone(tmp_path, runner):
    source_text, fixture = pipeline_document(4)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe caf\xe9")
    good = tmp_path / "good.txt"
    good.write_text(source_text, encoding="utf-8")
    out = tmp_path / "out"

    result = runner.invoke(
        main,
        ["extract", "--replay", str(fixture_path), "--out", str(out), str(bad), str(good)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 2
    assert f"error: {bad}:" in result.output
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"good{suffix}" for suffix in OUTPUT_SUFFIXES
    )
    for args in (
        ["eval-pairs", "--replay", str(fixture_path), str(bad)],
        ["eval-graph", str(bad), str(bad)],
    ):
        result = runner.invoke(main, args, env=_env(tmp_path), catch_exceptions=False)
        assert result.exit_code == 1, args[0]
        assert "error:" in result.output


# --- eval-pairs ----------------------------------------------------------------


def test_eval_pairs_prints_grid_and_writes_report(tmp_path, runner):
    semeval_text, fixture = benchmark_with_scripted_replies()
    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(semeval_text, encoding="utf-8")
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    out = tmp_path / "out"

    result = runner.invoke(
        main,
        [
            "eval-pairs",
            "--replay", str(fixture_path),
            "--parallelism", "4",
            "--out", str(out),
            str(semeval_path),
        ],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    assert "grid: [[335, 7], [6, 650]]" in result.output
    assert "abstained: 5" in result.output
    report = json.loads((out / "pairwise_report.json").read_text(encoding="utf-8"))
    assert report["confusion"]["grid"] == [[335, 7], [6, 650]]
    assert report["confusion"]["abstained"] == 5
    assert abs(report["macro_f1"] - 0.9855326674687966) < 1e-12
    assert abs(report["micro_accuracy"] - 0.9869739478957916) < 1e-12


def test_eval_pairs_empty_causal_subset_exits_one(tmp_path, runner):
    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(
        '1\t"The <e1>box</e1> holds <e2>marbles</e2>."\nMember-Collection(e1,e2)\n',
        encoding="utf-8",
    )
    fixture_path = tmp_path / "fixture.json"
    ReplayFixture().save(fixture_path)
    result = runner.invoke(
        main,
        ["eval-pairs", "--replay", str(fixture_path), str(semeval_path)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 1


def test_eval_pairs_non_strict_miss_counts_unparsable(tmp_path, runner):
    from causaltext.evaluation import parse_semeval
    from synth import _question_fingerprint

    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(
        '1\t"<e1>Zinc</e1> is essential for <e2>growth</e2>."\nCause-Effect(e1,e2)\n'
        '\n2\t"The <e1>infection</e1> came from a <e2>wound</e2>."\nCause-Effect(e2,e1)\n',
        encoding="utf-8",
    )
    records = parse_semeval(semeval_path.read_text(encoding="utf-8"))
    fixture = ReplayFixture(
        entries={_question_fingerprint(records[0]): ReplayEntry("<Answer>A</Answer>")},
        strict=False,
    )
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["eval-pairs", "--replay", str(fixture_path), "--out", str(out), str(semeval_path)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    assert "grid: [[1, 0], [0, 0]]" in result.output
    assert "unparsable: 1" in result.output


def test_eval_pairs_scores_span_that_changes_length_when_lowercased(tmp_path, runner):
    from causaltext.evaluation import parse_semeval
    from causaltext.graph import normalize_label
    from causaltext.prompts import (
        OrientationQuestion,
        find_first_offset,
        render_orientation_prompt,
    )

    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(
        '1\t"The <e1>İzmir</e1> earthquake raised a <e2>tsunami</e2>."\nCause-Effect(e1,e2)\n'
        '\n2\t"The <e1>infection</e1> came from a <e2>wound</e2>."\nCause-Effect(e2,e1)\n',
        encoding="utf-8",
    )
    records = parse_semeval(semeval_path.read_text(encoding="utf-8"))
    assert find_first_offset(records[0].sentence, normalize_label(records[0].e1_span)) is None
    entries = {}
    for record, answer in zip(records, "AB"):
        spans = ((record.e1_span, record.e1_start), (record.e2_span, record.e2_start))
        e1, e2 = (
            Entity(id=f"e{index}", canonical_label=normalize_label(span),
                   surface_forms=frozenset({span}), first_offset=start)
            for index, (span, start) in enumerate(spans, start=1)
        )
        question = OrientationQuestion.from_pair(record.sentence, e1, e2)
        entries[render_orientation_prompt(question).fingerprint] = ReplayEntry(
            f"<Answer>{answer}</Answer>"
        )
    fixture_path = tmp_path / "fixture.json"
    ReplayFixture(entries=entries, strict=True).save(fixture_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["eval-pairs", "--replay", str(fixture_path), "--out", str(out), str(semeval_path)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    assert "grid: [[1, 0], [0, 1]]" in result.output
    assert "unparsable: 0" in result.output


# --- eval-graph ---------------------------------------------------------------------


def _write_shortcut_graphs(tmp_path) -> tuple[Path, Path]:
    entities = [Entity(id=i, canonical_label=i) for i in "abc"]
    extracted = CausalGraph(
        GraphKind.EXTRACTED, entities, [Arc("a", "b"), Arc("b", "c"), Arc("a", "c")]
    )
    flag_transitive_candidates(extracted)
    truth = CausalGraph(GraphKind.GROUND_TRUTH, entities, [Arc("a", "b"), Arc("b", "c")])
    run_path = tmp_path / "run.graph.json"
    truth_path = tmp_path / "truth.graph.json"
    run_path.write_text(serialize_graph(extracted, GraphFormat.STRUCTURED), "utf-8")
    truth_path.write_text(serialize_graph(truth, GraphFormat.STRUCTURED), "utf-8")
    return run_path, truth_path


def test_eval_graph_shortcut_pattern(tmp_path, runner):
    run_path, truth_path = _write_shortcut_graphs(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["eval-graph", "--out", str(out), str(run_path), str(truth_path)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    assert "precision: 0.666667" in result.output
    assert "recall: 1.000000" in result.output
    assert "transitive_fp_share: 1.000000" in result.output
    payload = json.loads((out / "graph_comparison.json").read_text(encoding="utf-8"))
    assert payload["false_positives"] == [["a", "c"]]


def test_eval_graph_identical_graphs(tmp_path, runner):
    run_path, truth_path = _write_shortcut_graphs(tmp_path)
    result = runner.invoke(
        main,
        ["eval-graph", "--out", str(tmp_path / "o"), str(run_path), str(run_path)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert "precision: 1.000000" in result.output
    assert "recall: 1.000000" in result.output
    assert "transitive_fp_share: undefined" in result.output


def test_eval_graph_mismatched_entity_sets(tmp_path, runner):
    extracted = CausalGraph(
        GraphKind.EXTRACTED,
        [Entity(id=i, canonical_label=i) for i in "abc"],
        [Arc("a", "c")],
    )
    truth = CausalGraph(
        GraphKind.GROUND_TRUTH,
        [Entity(id=i, canonical_label=i) for i in "abd"],
        [Arc("a", "b"), Arc("a", "d")],
    )
    run_path = tmp_path / "r.json"
    truth_path = tmp_path / "t.json"
    run_path.write_text(serialize_graph(extracted), "utf-8")
    truth_path.write_text(serialize_graph(truth), "utf-8")
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["eval-graph", "--out", str(out), str(run_path), str(truth_path)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    payload = json.loads((out / "graph_comparison.json").read_text(encoding="utf-8"))
    assert payload["false_positives"] == [["a", "c"]]
    assert payload["false_negatives"] == [["a", "b"], ["a", "d"]]
    assert payload["precision"] == 0.0
    assert payload["recall"] == 0.0


def test_eval_graph_bad_file_is_config_error(tmp_path, runner):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    result = runner.invoke(
        main,
        ["eval-graph", str(bad), str(bad)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 1


def test_eval_graph_malformed_graph_file_exits_one(tmp_path, runner):
    bad = tmp_path / "bad.json"
    bad.write_text('{"entities": 5, "arcs": []}', encoding="utf-8")
    result = runner.invoke(
        main, ["eval-graph", str(bad), str(bad)], env=_env(tmp_path), catch_exceptions=False
    )
    assert result.exit_code == 1
    assert "error:" in result.output


# --- cache -------------------------------------------------------------------------


def test_cache_stats_and_clear_cycle(tmp_path, runner):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "entry.json").write_text("{}", encoding="utf-8")
    env = _env(tmp_path)

    result = runner.invoke(main, ["cache", "stats"], env=env, catch_exceptions=False)
    assert result.exit_code == 0
    assert "entries: 1" in result.output

    result = runner.invoke(main, ["cache", "clear"], env=env, catch_exceptions=False)
    assert result.exit_code == 0
    assert "removed: 1" in result.output

    result = runner.invoke(main, ["cache", "stats"], env=env, catch_exceptions=False)
    assert "entries: 0" in result.output


def test_cache_clear_refused_while_lock_held(tmp_path, runner):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    with run_lock(cache_dir):
        result = runner.invoke(
            main, ["cache", "clear"], env=_env(tmp_path), catch_exceptions=False
        )
    assert result.exit_code == 1
    assert "in use" in result.output


def test_eval_pairs_refused_while_lock_held(tmp_path, runner):
    semeval_text, fixture = benchmark_with_scripted_replies()
    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(semeval_text, encoding="utf-8")
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / ".runlock").write_text("123", encoding="utf-8")
    out = tmp_path / "out"
    with run_lock(cache_dir):
        result = runner.invoke(
            main,
            ["eval-pairs", "--replay", str(fixture_path), "--out", str(out),
             str(semeval_path)],
            env=_env(tmp_path),
            catch_exceptions=False,
        )
    assert result.exit_code == 1
    assert ".runlock" in result.output
    assert not (out / "pairwise_report.json").exists()
    assert (cache_dir / ".runlock").read_text(encoding="utf-8") == "123"


def test_run_refused_by_the_lock_leaves_the_record_file_alone(tmp_path, runner):
    source_text, fixture = pipeline_document(4)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    semeval_text, _ = benchmark_with_scripted_replies()
    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(semeval_text, encoding="utf-8")
    record_path = tmp_path / "recorded.json"
    fixture.save(record_path)
    before = record_path.read_bytes()
    cache_dir = tmp_path / "cache"
    with run_lock(cache_dir):
        for command, path in (("extract", doc), ("eval-pairs", semeval_path)):
            result = runner.invoke(
                main,
                [command, "--record", str(record_path), "--out", str(tmp_path / "out"),
                 str(path)],
                env=_env(tmp_path),
                catch_exceptions=False,
            )
            assert result.exit_code == 1, command
            assert ".runlock" in result.output
            assert record_path.read_bytes() == before, command


def _lock_test_inputs(tmp_path) -> tuple[list[str], list[str]]:
    """Arguments of a replayed ``extract`` and a replayed ``eval-pairs``."""
    source_text, fixture = pipeline_document(4)
    semeval_text, bench_fixture = benchmark_with_scripted_replies()
    fixture.entries.update(bench_fixture.entries)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(semeval_text, encoding="utf-8")
    replay = ["--replay", str(fixture_path), "--out", str(tmp_path / "out")]
    return ["extract", *replay, str(doc)], ["eval-pairs", *replay, str(semeval_path)]


def test_lock_file_left_by_a_dead_run_blocks_nothing(tmp_path, runner):
    extract_args, eval_args = _lock_test_inputs(tmp_path)
    lock_path = tmp_path / "cache" / ".runlock"
    lock_path.parent.mkdir()
    lock_path.write_text("123", encoding="utf-8")
    for args in (extract_args, eval_args, ["cache", "clear"]):
        result = runner.invoke(main, args, env=_env(tmp_path), catch_exceptions=False)
        assert result.exit_code == 0, (args[0], result.output)
    assert lock_path.read_text(encoding="utf-8") == "123"


def test_lock_held_by_another_process_refuses_runs_until_it_dies(tmp_path, runner):
    extract_args, _ = _lock_test_inputs(tmp_path)
    holder_code = (
        "import sys\n"
        "from causaltext.gateway import run_lock\n"
        "with run_lock(sys.argv[1]):\n"
        "    print('held', flush=True)\n"
        "    sys.stdin.read()\n"
    )
    package_root = str(Path(causaltext.__file__).resolve().parents[1])
    holder = subprocess.Popen(
        [sys.executable, "-c", holder_code, str(tmp_path / "cache")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    try:
        assert holder.stdout.readline() == "held\n"
        result = runner.invoke(
            main, extract_args, env=_env(tmp_path), catch_exceptions=False
        )
        assert result.exit_code == 1
        assert ".runlock" in result.output
        result = runner.invoke(
            main, ["cache", "clear"], env=_env(tmp_path), catch_exceptions=False
        )
        assert result.exit_code == 1
        assert "in use" in result.output
    finally:
        holder.kill()
        holder.wait(timeout=10)
        holder.stdin.close()
        holder.stdout.close()
    # The OS released the lock when the holder was killed.
    result = runner.invoke(main, extract_args, env=_env(tmp_path), catch_exceptions=False)
    assert result.exit_code == 0, result.output


def test_cache_stats_fresh_directory(tmp_path, runner):
    result = runner.invoke(
        main, ["cache", "stats"], env=_env(tmp_path), catch_exceptions=False
    )
    assert result.exit_code == 0
    assert "entries: 0" in result.output


def test_each_command_takes_only_the_options_it_reads(tmp_path, runner):
    import click

    expected = {
        "extract": {"--config", "--replay", "--record", "--model", "--parallelism",
                    "--entity-cap", "--enforce-acyclic", "--out", "--domain-hint"},
        "eval-pairs": {"--config", "--replay", "--record", "--model", "--parallelism",
                       "--out"},
        "eval-graph": {"--config", "--out"},
        "cache": {"--config"},
    }
    for name, flags in expected.items():
        params = main.commands[name].params
        declared = {
            flag for param in params if isinstance(param, click.Option)
            for flag in param.opts
        }
        assert declared == flags, name
    result = runner.invoke(main, ["cache", "stats", "--model", "x"], env=_env(tmp_path))
    assert result.exit_code == 2
    assert "No such option" in result.output


# --- configuration precedence ----------------------------------------------------------


def test_settings_precedence_flags_env_file(tmp_path, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"model": "file-model", "parallelism": 7, "entity_cap": 5}),
        encoding="utf-8",
    )
    monkeypatch.setenv("CAUSALTEXT_MODEL", "env-model")
    settings = _resolve_settings(
        config_path=str(config_path),
        replay=None,
        record=None,
        model="flag-model",
        parallelism=None,
        entity_cap=None,
        enforce_acyclic=False,
        out=None,
        domain_hint=None,
    )
    assert settings.provider.model_name == "flag-model"
    assert settings.provider.parallelism == 7
    assert settings.pipeline.entity_cap == 5

    monkeypatch.setenv("CAUSALTEXT_PARALLELISM", "3")
    settings = _resolve_settings(
        config_path=str(config_path),
        replay=None,
        record=None,
        model=None,
        parallelism=None,
        entity_cap=None,
        enforce_acyclic=False,
        out=None,
        domain_hint=None,
    )
    assert settings.provider.model_name == "env-model"
    assert settings.provider.parallelism == 3


# never cast: `bool("false")` is True, and `str(None)` names a directory "None"
BAD_CONFIG_VALUES = [
    ("enforce_acyclic", "false"),
    ("enforce_acyclic", 1),
    ("cache_dir", None),
    ("temperature", None),
    ("temperature", "0.5"),
    ("parallelism", [2]),
    ("parallelism", True),
    ("entity_cap", 2.5),
    ("model", 5),
    ("out", {"dir": "x"}),
]


@pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
def test_config_file_value_of_the_wrong_json_type_exits_one(tmp_path, runner, key, value):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")
    result = runner.invoke(
        main, ["cache", "stats", "--config", str(config_path)],
        env=_env(tmp_path), catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert f"error: config key {key!r} must be" in result.output


def test_config_file_numbers_keep_their_meaning(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("CAUSALTEXT_"):
            monkeypatch.delenv(name)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "temperature": 0, "requests_per_minute": 60, "parallelism": 2,
        "enforce_acyclic": False, "cache_dir": "c", "domain_hint": "",
    }), encoding="utf-8")
    settings = _resolve_settings(config_path=str(config_path))
    # an integer temperature becomes 0.0, so the cache key is that of the default
    assert repr(settings.provider.temperature) == "0.0"
    assert repr(settings.provider.requests_per_minute) == "60.0"
    assert settings.provider.parallelism == 2
    assert settings.provider.cache_dir == Path("c")
    assert settings.pipeline.enforce_acyclic is False


def test_non_http_endpoint_exits_one_before_any_request(tmp_path, runner, monkeypatch):
    import requests

    calls = []

    def refuse(url, **kwargs):
        calls.append(url)
        raise requests.exceptions.InvalidSchema(f"No connection adapters were found for {url!r}")

    monkeypatch.setattr(requests, "post", refuse)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"endpoint": "localhost:9/v1/chat/completions"}), encoding="utf-8"
    )
    doc = tmp_path / "doc.txt"
    doc.write_text("rain makes the ground wet", encoding="utf-8")
    result = runner.invoke(
        main, ["extract", "--config", str(config_path), str(doc)],
        env=_env(tmp_path), catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert "error: endpoint 'localhost:9/v1/chat/completions' is not" in result.output
    assert calls == []


def test_settings_reject_unknown_config_keys(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"mystery": 1}', encoding="utf-8")
    with pytest.raises(CausalTextError):
        _resolve_settings(
            config_path=str(config_path),
            replay=None, record=None, model=None, parallelism=None,
            entity_cap=None, enforce_acyclic=False, out=None, domain_hint=None,
        )


def test_settings_defaults_are_the_config_class_defaults(monkeypatch):
    for name in list(os.environ):
        if name.startswith("CAUSALTEXT_"):
            monkeypatch.delenv(name)
    settings = _resolve_settings(
        config_path=None,
        replay=None, record=None, model=None, parallelism=None,
        entity_cap=None, enforce_acyclic=False, out=None, domain_hint=None,
    )
    assert dataclasses.asdict(settings.provider) == dataclasses.asdict(ProviderConfig())
    assert dataclasses.asdict(settings.pipeline) == dataclasses.asdict(PipelineConfig())


def test_domain_hint_from_each_source_reaches_the_entity_prompt(tmp_path, runner):
    # The strict fixture answers only the hinted entity prompt: a lost hint is
    # a fixture miss and the document fails with exit 2.
    source_text, fixture = pipeline_document(4, domain_hint="diseases")
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"domain_hint": "diseases"}), encoding="utf-8")
    sources = {
        "none": ([], {}),
        "flag": (["--domain-hint", "diseases"], {}),
        "env": ([], {"CAUSALTEXT_DOMAIN_HINT": "diseases"}),
        "file": (["--config", str(config_path)], {}),
    }
    codes = {}
    for name, (flags, env) in sources.items():
        result = runner.invoke(
            main,
            ["extract", "--replay", str(fixture_path), "--out", str(tmp_path / name),
             *flags, str(doc)],
            env=_env(tmp_path, CAUSALTEXT_CACHE_DIR=str(tmp_path / f"cache-{name}"), **env),
            catch_exceptions=False,
        )
        codes[name] = result.exit_code
    assert codes == {"none": 2, "flag": 0, "env": 0, "file": 0}
