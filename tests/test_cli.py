from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

from causaltext.cli import _resolve_settings, _write, main
from causaltext.errors import CausalTextError
from causaltext.gateway import (
    ProviderConfig,
    ReplayEntry,
    ReplayFixture,
    _STORE_SETUP,
    run_lock,
)
from causaltext.graph import (
    Arc,
    CausalGraph,
    Entity,
    GraphFormat,
    GraphKind,
    serialize_graph,
)
from causaltext.pipeline import PipelineConfig
from causaltext.prompts import OrientationQuestion, render_entity_prompt, render_orientation_prompt
from helpers import child_env, old_entry_name, store_execute, store_rows, transitive_flagged
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
    ReplayFixture(entries=entries).save(fixture_path)
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


def test_a_reply_holding_a_lone_surrogate_fails_only_its_document(tmp_path, runner):
    entries = {}
    docs = []
    for index, size in enumerate((3, 4)):
        source_text, fixture = pipeline_document(size)
        entries.update(fixture.entries)
        doc = tmp_path / f"doc{index}.txt"
        doc.write_text(source_text, encoding="utf-8")
        docs.append(str(doc))
    fixture_path = tmp_path / "fixture.json"
    ReplayFixture(entries=entries).save(fixture_path)
    payload = json.loads(fixture_path.read_text(encoding="utf-8"))
    # a pair question of doc1 only, answered with half a surrogate pair as JSON writes it
    poisoned = next(fp for fp in fixture.entries if "<Answer>" in fixture.entries[fp].reply_text)
    payload["entries"][poisoned]["reply"] = "the cause is \ud83d\n<Answer>A</Answer>"
    fixture_path.write_text(json.dumps(payload), encoding="utf-8")
    assert "\\ud83d" in fixture_path.read_text(encoding="utf-8")

    out = tmp_path / "out"
    result = runner.invoke(
        main, ["extract", "--replay", str(fixture_path), "--out", str(out), *docs],
        env=_env(tmp_path), catch_exceptions=False,
    )
    assert result.exit_code == 2, result.output
    assert f"error: {docs[1]}: " in result.output
    assert "lone surrogate" in result.output
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"doc0{suffix}" for suffix in OUTPUT_SUFFIXES
    )


def test_extract_inputs_sharing_a_stem_exit_one(tmp_path, runner):
    source_text, fixture = pipeline_document(3)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    docs = [tmp_path / "a" / "doc.txt", tmp_path / "b" / "doc.md"]
    for doc in docs:
        doc.parent.mkdir()
        doc.write_text(source_text, encoding="utf-8")
    out = tmp_path / "out"
    # two files with one stem, and one file named twice, would overwrite each other
    for first, second in (docs, (docs[0], docs[0])):
        result = runner.invoke(
            main,
            ["extract", "--replay", str(fixture_path), "--out", str(out), str(first), str(second)],
            env=_env(tmp_path),
            catch_exceptions=False,
        )
        assert result.exit_code == 1, result.output
        assert f"error: inputs {first} and {second} share a stem" in result.output
        assert not out.exists()
        assert not (tmp_path / "cache").exists()  # refused before the run lock


def test_unwritable_out_fails_with_an_error_line(tmp_path, runner):
    source_text, fixture = pipeline_document(3)
    semeval_text, bench_fixture = benchmark_with_scripted_replies()
    fixture.entries.update(bench_fixture.entries)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    docs = [tmp_path / "doc1.txt", tmp_path / "doc2.txt"]
    for doc in docs:
        doc.write_text(source_text, encoding="utf-8")
    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(semeval_text, encoding="utf-8")
    run_path, truth_path = _write_shortcut_graphs(tmp_path)
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    out = ["--out", str(blocker / "out")]
    replay = ["--replay", str(fixture_path), *out]

    # extract: each document fails on its own, and the batch goes on
    result = runner.invoke(
        main, ["extract", *replay, *map(str, docs)], env=_env(tmp_path), catch_exceptions=False
    )
    assert result.exit_code == 2, result.output
    for doc in docs:
        graph_file = blocker / "out" / f"{doc.stem}.graph.json"
        assert f"error: {doc}: cannot write {graph_file}" in result.output
    for args in (
        ["eval-pairs", *replay, str(semeval_path)],
        ["eval-graph", *out, str(run_path), str(truth_path)],
    ):
        result = runner.invoke(main, args, env=_env(tmp_path), catch_exceptions=False)
        assert result.exit_code == 1, (args[0], result.output)
        assert f"error: cannot write {blocker / 'out'}" in result.output


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
    "strict false": lambda payload: {**payload, "strict": False},
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


_DEEPLY_NESTED = "[" * 200_000  # deeper than the JSON decoder can recurse

# refused on load, like the malformed fixtures above
UNHOLDABLE_FIXTURES = {
    "latency too large for a float": lambda payload: _every_entry(payload, "latency", 10**400),
    "latency above the ceiling": lambda payload: _every_entry(payload, "latency", 1e308),
    "nested too deeply": lambda payload: _DEEPLY_NESTED,
}


@pytest.mark.parametrize("case", sorted(UNHOLDABLE_FIXTURES))
def test_a_replay_fixture_out_of_range_or_nested_too_deeply_exits_one(tmp_path, runner, case):
    source_text, fixture = pipeline_document(4)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    content = UNHOLDABLE_FIXTURES[case](json.loads(fixture_path.read_text(encoding="utf-8")))
    fixture_path.write_text(
        content if isinstance(content, str) else json.dumps(content), encoding="utf-8"
    )
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


def test_replayed_cache_never_answers_a_live_run(tmp_path, runner, monkeypatch):
    from causaltext import cli
    from causaltext.gateway import ExchangeSource, ReplayTransport
    from helpers import CountingTransport

    class FixtureProvider(ReplayTransport):
        source = ExchangeSource.LIVE

    source_text, fixture = pipeline_document(6)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    live = CountingTransport(FixtureProvider(fixture))
    monkeypatch.setattr(cli, "LiveTransport", lambda config: live)
    for name, source in (("replayed", ["--replay", str(fixture_path)]), ("live", [])):
        result = runner.invoke(
            main,
            ["extract", *source, "--out", str(tmp_path / name), str(doc)],
            env=_env(tmp_path),
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
    # the live run on the replay-warmed cache pays for C(6, 2) + 1 queries
    assert live.calls == 16
    for suffix in (".graph.json", ".dot", ".cycles.json"):
        replayed = (tmp_path / "replayed" / f"doc{suffix}").read_bytes()
        assert replayed == (tmp_path / "live" / f"doc{suffix}").read_bytes(), suffix


def test_undecodable_cache_entry_is_refetched_and_the_batch_completes(tmp_path, runner):
    entries = {}
    docs = []
    for index, size in enumerate((6, 4)):
        source_text, fixture = pipeline_document(size)
        entries.update(fixture.entries)
        doc = tmp_path / f"doc{index}.txt"
        doc.write_text(source_text, encoding="utf-8")
        docs.append(str(doc))
    fixture_path = tmp_path / "fixture.json"
    ReplayFixture(entries=entries).save(fixture_path)

    def extract(out: str):
        return runner.invoke(
            main,
            ["extract", "--replay", str(fixture_path), "--out", str(tmp_path / out), *docs],
            env=_env(tmp_path),
            catch_exceptions=False,
        )

    assert extract("warm").exit_code == 0
    rows = store_rows(tmp_path / "cache")
    key = sorted(rows)[0]
    store_execute(tmp_path / "cache",
                  "UPDATE entries SET reply = CAST(x'fffe00' AS TEXT) WHERE key = ?", key)
    result = extract("out")
    assert result.exit_code == 0, result.output
    for name in ("doc0", "doc1"):
        for suffix in OUTPUT_SUFFIXES:
            written = (tmp_path / "out" / f"{name}{suffix}").read_bytes()
            assert written == (tmp_path / "warm" / f"{name}{suffix}").read_bytes()
    assert store_rows(tmp_path / "cache") == rows


def test_a_cache_entry_with_a_latency_too_large_for_a_float_is_refetched(
    tmp_path, runner, caplog
):
    source_text, fixture = pipeline_document(4)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc0.txt"
    doc.write_text(source_text, encoding="utf-8")

    def extract(out: str):
        return runner.invoke(
            main,
            ["extract", "--replay", str(fixture_path), "--out", str(tmp_path / out), str(doc)],
            env=_env(tmp_path),
            catch_exceptions=False,
        )

    assert extract("warm").exit_code == 0
    rows = store_rows(tmp_path / "cache")
    store_execute(tmp_path / "cache", "UPDATE entries SET latency = 9e999")  # read as inf
    with caplog.at_level("WARNING"):
        result = extract("out")
    assert result.exit_code == 0, result.output
    assert any("corrupt" in r.message and "treating as miss" in r.message
               for r in caplog.records)
    for suffix in OUTPUT_SUFFIXES:
        written = (tmp_path / "out" / f"doc0{suffix}").read_bytes()
        assert written == (tmp_path / "warm" / f"doc0{suffix}").read_bytes()
    assert store_rows(tmp_path / "cache") == rows
    assert all(latency == 0.0 for _, latency, _ in rows.values())


def test_failed_cache_write_leaves_the_batch_running(tmp_path, runner):
    entries = {}
    docs = []
    for index, size in enumerate((6, 4)):
        source_text, fixture = pipeline_document(size)
        entries.update(fixture.entries)
        doc = tmp_path / f"doc{index}.txt"
        doc.write_text(source_text, encoding="utf-8")
        docs.append(str(doc))
    fixture_path = tmp_path / "fixture.json"
    ReplayFixture(entries=entries).save(fixture_path)

    def extract(out: str, cache: str):
        return runner.invoke(
            main,
            ["extract", "--replay", str(fixture_path), "--out", str(tmp_path / out), *docs],
            env=_env(tmp_path, CAUSALTEXT_CACHE_DIR=str(tmp_path / cache)),
            catch_exceptions=False,
        )

    assert extract("reference", "reference_cache").exit_code == 0
    keys = sorted(store_rows(tmp_path / "reference_cache"))
    # a trigger on a store made beforehand makes the write of one key fail
    (tmp_path / "cache").mkdir()
    store_execute(tmp_path / "cache", _STORE_SETUP + f"""
        CREATE TRIGGER refuse BEFORE INSERT ON entries WHEN NEW.key = '{keys[0]}'
        BEGIN SELECT RAISE(ABORT, 'refused'); END;
    """)
    result = extract("out", "cache")
    assert result.exit_code == 0, result.output
    for name in ("doc0", "doc1"):
        for suffix in OUTPUT_SUFFIXES:
            written = (tmp_path / "out" / f"{name}{suffix}").read_bytes()
            assert written == (tmp_path / "reference" / f"{name}{suffix}").read_bytes()
    assert sorted(store_rows(tmp_path / "cache")) == keys[1:]


_WRITE_UNDER_A_FILE_SIZE_LIMIT = textwrap.dedent("""
    import resource, signal, sys
    from pathlib import Path
    from causaltext.cli import ConfigurationError, _write

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
    try:
        _write(Path(sys.argv[1]), "r" * 10_000)
    except ConfigurationError as exc:
        print(exc)
        sys.exit(3)
""")


def test_a_failed_output_write_leaves_the_old_file_as_it_was(tmp_path):
    path = tmp_path / "doc.cycles.json"
    _write(path, '{"is_acyclic": true, "cycles": []}\n')
    old = path.read_bytes()
    # a child process, so the file-size limit binds nothing else
    child = subprocess.run(
        [sys.executable, "-c", _WRITE_UNDER_A_FILE_SIZE_LIMIT, str(path)],
        env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 3, child.stderr
    assert f"cannot write {path}" in child.stdout
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.cycles.json"]


def test_record_into_a_missing_directory_is_refused_before_any_query(
    tmp_path, runner, monkeypatch
):
    from causaltext import cli
    from causaltext.gateway import ReplayTransport
    from helpers import CountingTransport

    source_text, fixture = pipeline_document(6)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    semeval_text, _ = benchmark_with_scripted_replies()
    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(semeval_text, encoding="utf-8")
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    live = CountingTransport(ReplayTransport(fixture))
    monkeypatch.setattr(cli, "LiveTransport", lambda config: live)
    for record_dir in ("missing", "a_file"):
        record_path = tmp_path / record_dir / "recorded.json"
        for command, path in (("extract", doc), ("eval-pairs", semeval_path)):
            result = runner.invoke(
                main,
                [command, "--record", str(record_path), "--out", str(tmp_path / "out"),
                 str(path)],
                env=_env(tmp_path),
                catch_exceptions=False,
            )
            assert result.exit_code == 1, (command, result.output)
            assert f"error: cannot record to {record_path}" in result.output
    assert live.calls == 0
    assert not (tmp_path / "cache").exists()  # refused before the run lock
    assert not (tmp_path / "out").exists()


def test_record_file_that_cannot_be_saved_is_an_error_line(tmp_path, runner, monkeypatch):
    from causaltext import cli
    from causaltext.gateway import ReplayTransport

    source_text, fixture = pipeline_document(6)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    monkeypatch.setattr(cli, "LiveTransport", lambda config: ReplayTransport(fixture))
    record_path = tmp_path / "recorded.json"
    record_path.mkdir()
    result = runner.invoke(
        main,
        ["extract", "--record", str(record_path), "--out", str(tmp_path / "out"), str(doc)],
        env=_env(tmp_path),
        catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert f"error: cannot save replay fixture {record_path}" in result.output
    # the run itself completed before the save failed
    assert (tmp_path / "out" / "doc.graph.json").exists()


def test_cache_dir_that_is_a_file_is_an_error_line(tmp_path, runner):
    extract_args, eval_args = _lock_test_inputs(tmp_path)
    cache_file = tmp_path / "cache_file"
    cache_file.write_text("not a directory", encoding="utf-8")
    env = _env(tmp_path, CAUSALTEXT_CACHE_DIR=str(cache_file))
    for args in (extract_args, eval_args):
        result = runner.invoke(main, args, env=env, catch_exceptions=False)
        assert result.exit_code == 1, (args[0], result.output)
        assert "error: cannot open run lock" in result.output
    for action in ("stats", "clear"):
        result = runner.invoke(main, ["cache", action], env=env, catch_exceptions=False)
        assert result.exit_code == 1, (action, result.output)
        assert f"error: cache directory {cache_file} is not a directory" in result.output
    assert cache_file.read_text(encoding="utf-8") == "not a directory"


def test_unreadable_cache_store_does_not_stop_the_run(tmp_path, runner):
    extract_args, _ = _lock_test_inputs(tmp_path)
    first = runner.invoke(main, extract_args, env=_env(tmp_path), catch_exceptions=False)
    assert first.exit_code == 0, first.output
    store = tmp_path / "cache" / "cache.sqlite"
    store.unlink()
    store.mkdir()  # a store that exists but cannot be opened
    again = [*extract_args[:-3], "--out", str(tmp_path / "again"), extract_args[-1]]
    result = runner.invoke(main, again, env=_env(tmp_path), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    for suffix in OUTPUT_SUFFIXES:
        name = f"doc{suffix}"
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


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
    # a record the fixture lacks fails the run (FixtureMissError); it is never
    # counted unparsable
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
    assert result.exit_code == 1, result.output
    assert "error: no fixture entry for fingerprint" in result.output
    assert not (out / "pairwise_report.json").exists()


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
    ReplayFixture(entries=entries).save(fixture_path)
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
    extracted = transitive_flagged(CausalGraph(
        GraphKind.EXTRACTED, entities, [Arc("a", "b"), Arc("b", "c"), Arc("a", "c")]
    ))
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


def _greek_cycle_document() -> tuple[str, ReplayFixture]:
    """An abstract whose labels hold Greek letters, scripted into one 3-cycle."""
    names = ["tnf-α", "il-1β", "nf-κb"]
    source_text = "Raised " + ", ".join(names) + " levels were seen together."
    entities = [
        Entity(id=name, canonical_label=name, first_offset=source_text.index(name))
        for name in names
    ]
    entries = {
        render_entity_prompt(source_text, "").fingerprint:
            ReplayEntry("\n".join(f"<Entity>{name}</Entity>" for name in names)),
    }
    # tnf-α -> il-1β -> nf-κb -> tnf-α
    for (i, j), answer in {(0, 1): "A", (1, 2): "A", (0, 2): "B"}.items():
        question = OrientationQuestion.from_pair(source_text, entities[i], entities[j])
        entries[render_orientation_prompt(question).fingerprint] = ReplayEntry(
            f"<Answer>{answer}</Answer>"
        )
    return source_text, ReplayFixture(entries=entries)


def test_every_json_output_writes_non_ascii_labels_as_themselves(tmp_path, runner):
    source_text, fixture = _greek_cycle_document()
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "abstract.txt"
    doc.write_text(source_text, encoding="utf-8")
    truth = CausalGraph(
        GraphKind.GROUND_TRUTH,
        [Entity(id=name, canonical_label=name) for name in ("tnf-α", "il-1β", "nf-κb")],
        [Arc("tnf-α", "il-1β")],
    )
    truth_path = tmp_path / "truth.graph.json"
    truth_path.write_text(serialize_graph(truth), encoding="utf-8")
    out = tmp_path / "out"
    for args in (
        ["extract", "--replay", str(fixture_path), "--out", str(out), str(doc)],
        ["eval-graph", "--out", str(out), str(out / "abstract.graph.json"), str(truth_path)],
    ):
        result = runner.invoke(main, args, env=_env(tmp_path), catch_exceptions=False)
        assert result.exit_code == 0, result.output
    cycles = json.loads((out / "abstract.cycles.json").read_text(encoding="utf-8"))
    assert cycles["cycles"] == [["il-1β", "nf-κb", "tnf-α"]]
    outputs = sorted(out.glob("*.json"))
    assert [p.name for p in outputs] == [
        "abstract.cycles.json", "abstract.graph.json", "abstract.stats.json",
        "graph_comparison.json",
    ]
    for path in outputs:
        text = path.read_text(encoding="utf-8")
        assert "\\u" not in text, path.name
        for label in ("tnf-α", "il-1β"):
            assert f'"{label}"' in text, (path.name, label)


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


def test_eval_graph_on_a_graph_file_nested_too_deeply_exits_one(tmp_path, runner):
    bad = tmp_path / "bad.json"
    bad.write_text(_DEEPLY_NESTED, encoding="utf-8")
    result = runner.invoke(
        main, ["eval-graph", str(bad), str(bad)], env=_env(tmp_path), catch_exceptions=False
    )
    assert result.exit_code == 1, result.output
    assert "error: not valid JSON" in result.output


def test_eval_graph_refuses_a_label_that_is_not_utf8_text(tmp_path, runner):
    bad = tmp_path / "bad.json"
    # the JSON escape of a lone surrogate: valid JSON, but no UTF-8 text
    entities = [{"id": "a", "canonical_label": "a\ud800"}, {"id": "b", "canonical_label": "b"}]
    bad.write_text(
        json.dumps({"entities": entities, "arcs": [{"cause": "a", "effect": "b"}]}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["eval-graph", "--out", str(out), str(bad), str(bad)],
        env=_env(tmp_path), catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert "error: 'canonical_label' is not valid UTF-8 text" in result.output
    assert not out.exists()


# --- cache -------------------------------------------------------------------------


def test_cache_stats_and_clear_cycle(tmp_path, runner):
    extract_args, _ = _lock_test_inputs(tmp_path)
    env = _env(tmp_path)
    assert runner.invoke(main, extract_args, env=env, catch_exceptions=False).exit_code == 0
    cache_dir = tmp_path / "cache"
    rows = len(store_rows(cache_dir))
    # an entry file of the layout before the store, and the scratch file of its write
    old_entry = old_entry_name("some key")
    (cache_dir / old_entry).write_text("{}", encoding="utf-8")
    (cache_dir / f"{old_entry}.tmp").write_text("{", encoding="utf-8")

    result = runner.invoke(main, ["cache", "stats"], env=env, catch_exceptions=False)
    assert result.exit_code == 0
    assert f"entries: {rows}\n" in result.output

    result = runner.invoke(main, ["cache", "clear"], env=env, catch_exceptions=False)
    assert result.exit_code == 0
    assert f"removed: {rows}" in result.output
    assert sorted(path.name for path in cache_dir.iterdir()) == [
        ".runlock", old_entry, f"{old_entry}.tmp"]

    result = runner.invoke(main, ["cache", "stats"], env=env, catch_exceptions=False)
    assert "entries: 0" in result.output


def test_cache_commands_count_and_remove_only_cache_entries(tmp_path, runner, monkeypatch):
    # a cache directory shared with outputs and a fixture, as with CAUSALTEXT_CACHE_DIR=.
    kept = ["run.fixture.json", "doc.stats.json", "doc.graph.json", "notes.tmp",
            old_entry_name("key"), f"{old_entry_name('key')}.tmp",
            "cache.sqlite.bak", "xcache.sqlite", "cache.sqlite-wal.txt"]
    for name in kept:
        (tmp_path / name).write_text("{}", encoding="utf-8")
    aside = [tmp_path / "cache.sqlite.corrupt", tmp_path / "cache.sqlite.corrupt-journal"]
    for path in aside:
        path.write_bytes(b"moved aside")
    monkeypatch.chdir(tmp_path)
    env = {"CAUSALTEXT_CACHE_DIR": "."}
    store_execute(tmp_path, _STORE_SETUP + """
        INSERT INTO entries VALUES ('k1', 'one', 0.0, ''), ('k2', 'two', 0.0, '');
    """)
    store, journal = tmp_path / "cache.sqlite", tmp_path / "cache.sqlite-journal"

    result = runner.invoke(main, ["cache", "stats"], env=env, catch_exceptions=False)
    size = store.stat().st_size + journal.stat().st_size
    assert result.output == f"entries: 2\nbytes: {size}\n"
    result = runner.invoke(main, ["cache", "clear"], env=env, catch_exceptions=False)
    assert (result.exit_code, result.output) == (0, "removed: 2\n")
    assert not any(path.exists() for path in (store, journal, *aside))
    assert all((tmp_path / name).exists() for name in kept)


def test_cache_clear_keeps_directories_and_names_a_file_it_cannot_remove(
    tmp_path, runner, monkeypatch
):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    aside = "cache.sqlite.corrupt"
    # directories named like store files and like an old entry and its scratch file
    for name in ("cache.sqlite-journal", aside, old_entry_name("key"),
                 f"{old_entry_name('other')}.tmp"):
        (cache_dir / name).mkdir()
    for name in ("cache.sqlite.corrupt-journal", old_entry_name("third")):
        (cache_dir / name).write_text("{}", encoding="utf-8")
    env = _env(tmp_path)

    result = runner.invoke(main, ["cache", "clear"], env=env, catch_exceptions=False)
    assert (result.exit_code, result.output) == (0, "removed: 0\n")
    assert len([path for path in cache_dir.iterdir() if path.is_dir()]) == 4
    assert not (cache_dir / "cache.sqlite.corrupt-journal").exists()
    assert (cache_dir / old_entry_name("third")).is_file()

    (cache_dir / aside).rmdir()
    (cache_dir / aside).write_bytes(b"moved aside")

    def refuse(path, *args, **kwargs):
        raise PermissionError(1, "Operation not permitted", path)

    monkeypatch.setattr(os, "unlink", refuse)
    result = runner.invoke(main, ["cache", "clear"], env=env)
    assert result.exit_code == 1
    assert result.output == (
        f"error: cannot remove {cache_dir / aside}: Operation not permitted\n"
    )


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


def test_cold_and_warm_runs_leave_only_the_lock_and_the_store_in_the_cache_dir(
    tmp_path, runner
):
    extract_args, eval_args = _lock_test_inputs(tmp_path)
    for args in (extract_args, eval_args, extract_args, eval_args):
        result = runner.invoke(main, args, env=_env(tmp_path), catch_exceptions=False)
        assert result.exit_code == 0, (args[0], result.output)
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
            ".runlock", "cache.sqlite", "cache.sqlite-journal"]


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
    holder = subprocess.Popen(
        [sys.executable, "-c", holder_code, str(tmp_path / "cache")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
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


def test_killed_run_resumes_paying_only_for_what_it_lacks(tmp_path, runner):
    import threading
    import time
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from causaltext.gateway import cache_stats
    from causaltext.prompts import RenderedPrompt

    source_text, fixture = pipeline_document(12)  # C(12, 2) + 1 = 67 queries
    served = threading.Event()  # the first run has had 10 replies
    killed = threading.Event()  # until then, later requests wait unanswered
    hits = {"/first": 0, "/rerun": 0}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            texts = [message["content"] for message in body["messages"]]
            prompt = RenderedPrompt.create(*([""] + texts)[-2:])
            with lock:
                hits[self.path] += 1
                rank = hits[self.path]
            if self.path == "/first" and rank > 10:
                killed.wait(60)
            time.sleep(0.02)
            reply = fixture.entries[prompt.fingerprint].reply_text
            data = json.dumps({"choices": [{"message": {"content": reply}}]}).encode()
            try:
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            except OSError:  # the client was killed
                return
            if self.path == "/first" and rank == 10:
                served.set()

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    cache_dir = tmp_path / "cache"

    def start(path: str, out: str) -> subprocess.Popen:
        config_path = tmp_path / f"{out}.config.json"
        config_path.write_text(json.dumps({
            "endpoint": f"http://127.0.0.1:{server.server_address[1]}{path}",
            "requests_per_minute": 1e9,
        }), encoding="utf-8")
        return subprocess.Popen(
            [sys.executable, "-m", "causaltext.cli", "extract", "--parallelism", "4",
             "--config", str(config_path), "--out", str(tmp_path / out), str(doc)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=child_env(CAUSALTEXT_CACHE_DIR=str(cache_dir)),
        )

    processes = []
    try:
        processes.append(start("/first", "killed"))
        assert served.wait(60), "the first run never got 10 replies"
        processes[0].kill()
        processes[0].wait(timeout=30)
        killed.set()
        cached = cache_stats(cache_dir)[0]
        assert 1 <= cached <= 10

        processes.append(start("/rerun", "resumed"))
        output, _ = processes[1].communicate(timeout=120)
        assert processes[1].returncode == 0, output
        assert hits["/rerun"] == 67 - cached
    finally:
        killed.set()
        for process in processes:
            if process.poll() is None:
                process.kill()
            process.communicate()
        server.shutdown()
        server.server_close()

    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    result = runner.invoke(
        main,
        ["extract", "--replay", str(fixture_path), "--out", str(tmp_path / "replayed"), str(doc)],
        env={"CAUSALTEXT_CACHE_DIR": str(tmp_path / "clean_cache")},
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    for suffix in (".graph.json", ".dot", ".cycles.json"):
        replayed = (tmp_path / "replayed" / f"doc{suffix}").read_bytes()
        assert replayed == (tmp_path / "resumed" / f"doc{suffix}").read_bytes(), suffix


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


# None: not a boolean word, so the run stops with exit 1
ENV_BOOLEANS = [
    ("1", True), ("true", True), ("Yes", True), ("on", True), ("ON", True), (" on\n", True),
    ("0", False), ("false", False), ("No", False), ("off", False), ("OFF ", False),
    ("maybe", None), ("enabled", None), ("2", None), ("", None),
]


@pytest.mark.parametrize("value, expected", ENV_BOOLEANS)
def test_boolean_environment_values_are_checked(tmp_path, runner, monkeypatch, value, expected):
    monkeypatch.setenv("CAUSALTEXT_ENFORCE_ACYCLIC", value)
    if expected is None:
        with pytest.raises(CausalTextError, match="CAUSALTEXT_ENFORCE_ACYCLIC must be one of"):
            _resolve_settings()
    else:
        assert _resolve_settings().pipeline.enforce_acyclic is expected
    result = runner.invoke(
        main, ["cache", "stats"],
        env=_env(tmp_path, CAUSALTEXT_ENFORCE_ACYCLIC=value), catch_exceptions=False,
    )
    assert result.exit_code == (1 if expected is None else 0), result.output


@pytest.mark.parametrize("name, value, kind", [
    ("PARALLELISM", "abc", "an integer"),
    ("ENTITY_CAP", "2.5", "an integer"),
    ("TEMPERATURE", "warm", "a number"),
])
def test_numeric_environment_values_name_their_variable(tmp_path, runner, name, value, kind):
    variable = f"CAUSALTEXT_{name}"
    result = runner.invoke(
        main, ["cache", "stats"], env=_env(tmp_path, **{variable: value}),
        catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert f"{variable} must be {kind}, not {value!r}" in result.stderr


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


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read config file {path}: "),
        ("{not json", "cannot read config file {path}: "),
        ('["model", "m"]', "config file {path} must hold a JSON object"),
    ],
    ids=["unreadable", "not JSON", "not an object"],
)
def test_config_file_that_cannot_be_used_exits_one(tmp_path, runner, content, message):
    config_path = tmp_path / "config.json"
    if content is None:
        config_path.mkdir()  # a directory cannot be read as a file
    else:
        config_path.write_text(content, encoding="utf-8")
    result = runner.invoke(
        main, ["cache", "stats", "--config", str(config_path)],
        env=_env(tmp_path), catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert "error: " + message.format(path=config_path) in result.output


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"requests_per_minute": ' + "1" * 400 + "}",
         "config key 'requests_per_minute' is too large for a float"),
        (_DEEPLY_NESTED, "cannot read config file {path}: "),
    ],
    ids=["number too large for a float", "nested too deeply"],
)
def test_a_config_file_out_of_range_or_nested_too_deeply_exits_one(
    tmp_path, runner, content, message
):
    config_path = tmp_path / "config.json"
    config_path.write_text(content, encoding="utf-8")
    result = runner.invoke(
        main, ["cache", "stats", "--config", str(config_path)],
        env=_env(tmp_path), catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert "error: " + message.format(path=config_path) in result.output


@pytest.mark.parametrize(
    "key, args, config, env",
    [
        ("model", [], {"model": "gpt\ud800"}, {}),
        # undecodable bytes reach Python as surrogate escapes, as os.fsdecode gives them
        ("model", [], {}, {"CAUSALTEXT_MODEL": os.fsdecode(b"gpt\xff")}),
        ("domain_hint", ["--domain-hint", os.fsdecode(b"\xed\xa0\x80")], {}, {}),
        ("endpoint", [], {"endpoint": "http://127.0.0.1/\ud800"}, {}),
    ],
    ids=["config model", "environment model", "domain hint flag", "config endpoint"],
)
def test_extract_refuses_sent_text_that_is_not_utf8(tmp_path, runner, key, args, config, env):
    source_text, fixture = pipeline_document(4)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(
        main,
        ["extract", "--replay", str(fixture_path), "--config", str(config_path), *args,
         "--out", str(tmp_path / "out"), str(doc)],
        env=_env(tmp_path, **env),
        catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert f"error: setting {key!r} is not valid UTF-8 text" in result.output
    assert not (tmp_path / "cache").exists()  # refused before the run lock
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, args, config",
    [
        ("api_key_env", [], {"api_key_env": "KEY\ud800"}),
        ("cache_dir", [], {"cache_dir": "c\ud800"}),
        ("out", ["--out", "out\ud800"], {}),
    ],
    ids=["config api_key_env", "config cache_dir", "out flag"],
)
def test_extract_refuses_os_bound_settings_the_os_cannot_encode(
    tmp_path, runner, monkeypatch, key, args, config
):
    monkeypatch.chdir(tmp_path)
    source_text, fixture = pipeline_document(4)
    fixture.save(tmp_path / "fixture.json")
    (tmp_path / "doc.txt").write_text(source_text, encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(
        main,
        ["extract", "--replay", "fixture.json", "--config", "config.json", *args, "doc.txt"],
        env={"CAUSALTEXT_CACHE_DIR": None, "CAUSALTEXT_OUT": None},
        catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert f"error: setting {key!r} cannot be encoded for the operating system" in result.output
    # refused before the run lock and before any output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "doc.txt", "fixture.json"]


def test_extract_accepts_paths_holding_surrogate_escaped_bytes(tmp_path, runner):
    source_text, fixture = pipeline_document(4)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    # undecodable bytes reach Python as surrogate escapes, and name real files
    cache, out = (tmp_path / os.fsdecode(name) for name in (b"cache\xff", b"out\xff"))
    result = runner.invoke(
        main,
        ["extract", "--replay", str(fixture_path), "--out", str(out), str(doc)],
        env={"CAUSALTEXT_CACHE_DIR": str(cache)},
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    assert (out / "doc.graph.json").is_file()
    assert os.listdir(os.fsencode(cache))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_requests_per_minute_exits_one(tmp_path, runner, value):
    config_path = tmp_path / "config.json"
    # json.dumps writes NaN and Infinity, which json.loads reads back as floats
    config_path.write_text(json.dumps({"requests_per_minute": value}), encoding="utf-8")
    for args, env in (
        ([], _env(tmp_path, CAUSALTEXT_REQUESTS_PER_MINUTE=str(value))),
        (["--config", str(config_path)], _env(tmp_path)),
    ):
        result = runner.invoke(main, ["cache", "stats", *args], env=env, catch_exceptions=False)
        assert result.exit_code == 1, result.output
        assert "error: requests_per_minute must be a finite number > 0" in result.output


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
    import urllib.request

    calls = []

    def refuse(opener, request, *args, **kwargs):
        calls.append(request.full_url)
        raise AssertionError("a request was made")

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", refuse)
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


@pytest.mark.parametrize("port", ["abc", "99999"])
def test_an_endpoint_with_a_bad_port_exits_one_before_the_run_lock(tmp_path, runner, port):
    endpoint = f"http://localhost:{port}/v1/chat/completions"
    doc = tmp_path / "doc.txt"
    doc.write_text("rain makes the ground wet", encoding="utf-8")
    result = runner.invoke(
        main, ["extract", "--out", str(tmp_path / "out"), str(doc)],
        env=_env(tmp_path, CAUSALTEXT_ENDPOINT=endpoint), catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert f"error: endpoint {endpoint!r} is not an http(s) URL" in result.output
    assert not (tmp_path / "cache").exists()


def test_a_key_holding_a_line_break_fails_each_document_alone(tmp_path, runner):
    # a key read from a CRLF file with $(cat key) keeps its "\r"; no request can carry it
    docs = []
    for name in ("doc0", "doc1"):
        docs.append(tmp_path / f"{name}.txt")
        docs[-1].write_text("rain makes the ground wet", encoding="utf-8")
    result = runner.invoke(
        main, ["extract", "--out", str(tmp_path / "out"), *map(str, docs)],
        env=_env(tmp_path, OPENAI_API_KEY="sk-secret\r",
                 CAUSALTEXT_ENDPOINT="http://127.0.0.1:9/v1/chat/completions",
                 CAUSALTEXT_REQUESTS_PER_MINUTE="1e9"),
        catch_exceptions=False,
    )
    assert result.exit_code == 2, result.output
    failures = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(failures) == 2, result.output
    assert all("request failed" in line for line in failures)
    assert "sk-secret" not in result.output


def test_an_entity_cap_below_two_is_refused_before_the_lock_and_any_query(
    tmp_path, runner, monkeypatch
):
    from causaltext import cli
    from causaltext.gateway import ReplayTransport
    from helpers import CountingTransport

    source_text, fixture = pipeline_document(4)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    live = CountingTransport(ReplayTransport(fixture))
    monkeypatch.setattr(cli, "LiveTransport", lambda config: live)
    result = runner.invoke(
        main, ["extract", "--entity-cap", "1", "--out", str(tmp_path / "out"), str(doc)],
        env=_env(tmp_path), catch_exceptions=False,
    )
    assert result.exit_code == 1, result.output
    assert "error: entity_cap must be >= 2" in result.output
    assert live.calls == 0
    assert not (tmp_path / "cache").exists()  # refused before the run lock
    assert not (tmp_path / "out").exists()


def test_settings_reject_unknown_config_keys(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"mystery": 1}', encoding="utf-8")
    with pytest.raises(CausalTextError):
        _resolve_settings(
            config_path=str(config_path),
            replay=None, record=None, model=None, parallelism=None,
            entity_cap=None, enforce_acyclic=False, out=None, domain_hint=None,
        )


def test_settings_refuse_a_flag_that_is_no_config_key():
    with pytest.raises(TypeError, match="modle"):
        _resolve_settings(modle="flag-model")


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
    # The fixture answers only the hinted entity prompt: a lost hint is
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
