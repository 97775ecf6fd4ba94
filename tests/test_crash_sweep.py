"""Kill a live ``extract`` at every cache write, and inside one, then resume it.

A child process runs the CLI against a loopback provider and exits with
``os._exit`` at a chosen point of its k-th cache write: before it, for every
k; after a number of SQLite opcodes of its statement (a progress handler),
which lands before the row is written or after the commit; or from a
temporary AFTER INSERT trigger, once the row is in the page cache and the
rollback journal is hot but nothing is committed. After each kill the store
must pass SQLite's integrity check; a rerun on the same cache must exit 0,
send exactly the queries whose rows were not committed and write the
outputs a clean run writes, its live latency figures aside.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from click.testing import CliRunner

from causaltext.cli import main
from causaltext.prompts import RenderedPrompt
from helpers import child_env, integrity, store_rows
from synth import pipeline_document

SOURCE_TEXT, FIXTURE = pipeline_document(6)
QUERIES = 16  # C(6, 2) + 1
OUTPUT_SUFFIXES = (".graph.json", ".dot", ".cycles.json", ".stats.json")
LATENCY_KEYS = ("mean_latency", "stdev_latency", "projected_serial_seconds")

_DIE_AT_A_WRITE = textwrap.dedent("""
    import os, sys
    from causaltext import gateway
    from causaltext.cli import main

    target, how = int(sys.argv[1]), sys.argv[2]
    write = gateway.Gateway._write_cache_entry
    count = 0

    def die():
        os._exit(9)

    def write_or_die(self, key, exchange):
        global count
        count += 1
        if count == target:
            if how == "before":
                die()
            with self._store_lock:
                db = self._store(create=True)
                if how == "after insert":
                    db.create_function("die", 0, die)
                    db.execute("CREATE TEMP TRIGGER die AFTER INSERT ON entries "
                               "BEGIN SELECT die(); END")
                else:
                    db.set_progress_handler(die, int(how.split()[0]))
        write(self, key, exchange)
        if count == target:
            os._exit(10)  # the write returned: the kill never came

    gateway.Gateway._write_cache_entry = write_or_die
    main(sys.argv[3:])
""")
# the first bytes of a rollback journal whose transaction has not committed
HOT_JOURNAL = bytes.fromhex("d9d505f920a163d7")


@pytest.fixture(scope="module")
def provider():
    """A loopback provider answering from the fixture; ``hits`` counts requests per path."""
    hits: dict[str, int] = {}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            texts = [message["content"] for message in body["messages"]]
            prompt = RenderedPrompt.create(*([""] + texts)[-2:])
            with lock:
                hits[self.path] = hits.get(self.path, 0) + 1
            reply = FIXTURE.entries[prompt.fingerprint].reply_text
            data = json.dumps({"choices": [{"message": {"content": reply}}]}).encode()
            try:
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            except OSError:  # the client was killed
                pass

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.hits = hits
    yield server
    server.shutdown()
    server.server_close()


def _env(provider, cache_dir, path: str) -> dict[str, str]:
    return {
        "CAUSALTEXT_CACHE_DIR": str(cache_dir),
        "CAUSALTEXT_ENDPOINT": f"http://127.0.0.1:{provider.server_address[1]}/{path}",
        "CAUSALTEXT_REQUESTS_PER_MINUTE": "1e9",
    }


def _outputs(out_dir) -> dict[str, object]:
    """The output files, with the stats' live latency figures left out."""
    outputs = {suffix: (out_dir / f"doc{suffix}").read_bytes() for suffix in OUTPUT_SUFFIXES}
    stats = json.loads(outputs.pop(".stats.json"))
    for key in LATENCY_KEYS:
        stats["stats"].pop(key)
    outputs[".stats.json"] = stats
    return outputs


def _extract(provider, tmp_path, path: str):
    """Outputs of an in-process ``extract`` on ``tmp_path``'s cache, sent to ``/<path>``."""
    doc = tmp_path / "doc.txt"
    doc.write_text(SOURCE_TEXT, encoding="utf-8")
    result = CliRunner().invoke(
        main, ["extract", "--out", str(tmp_path / path), str(doc)],
        env=_env(provider, tmp_path / "cache", path), catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return _outputs(tmp_path / path)


@pytest.fixture(scope="module")
def clean_outputs(provider, tmp_path_factory):
    return _extract(provider, tmp_path_factory.mktemp("clean"), "clean")


KILL_POINTS = ([(k, "before") for k in range(1, QUERIES + 1)]
               + [(8, f"{n} opcodes") for n in (1, 3, 5, 20)] + [(8, "after insert")])


@pytest.mark.parametrize("target, how", KILL_POINTS,
                         ids=[f"{how} write {k}" for k, how in KILL_POINTS])
def test_a_run_killed_at_a_cache_write_resumes_paying_only_for_what_it_lacks(
    provider, clean_outputs, tmp_path, target, how
):
    doc = tmp_path / "doc.txt"
    doc.write_text(SOURCE_TEXT, encoding="utf-8")
    cache_dir = tmp_path / "cache"
    point = f"{target}-{how.replace(' ', '-')}"
    child = subprocess.run(
        [sys.executable, "-c", _DIE_AT_A_WRITE, str(target), how,
         "extract", "--out", str(tmp_path / "killed"), str(doc)],
        env=child_env(**_env(provider, cache_dir, f"killed-{point}")),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 9, (child.returncode, child.stderr)
    if how == "after insert":
        with open(cache_dir / "cache.sqlite-journal", "rb") as journal:
            assert journal.read(8) == HOT_JOURNAL

    committed = len(store_rows(cache_dir))  # rolls back the hot journal first
    # a progress handler fires between opcodes, or once more after the commit
    assert committed == target - 1 or (how.endswith("opcodes") and committed == target)
    if committed:
        assert integrity(cache_dir) == "ok"

    resumed = f"resumed-{point}"
    assert _extract(provider, tmp_path, resumed) == clean_outputs
    assert provider.hits.get(f"/{resumed}", 0) == QUERIES - committed
    assert integrity(cache_dir) == "ok"
    assert len(store_rows(cache_dir)) == QUERIES
    assert sorted(p.name for p in cache_dir.iterdir()) == [
        ".runlock", "cache.sqlite", "cache.sqlite-journal"]
