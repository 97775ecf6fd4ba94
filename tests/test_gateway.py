from __future__ import annotations

import hashlib
import json
import os
import random
import socket
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from causaltext import gateway as gateway_module
from causaltext.errors import (
    AuthError,
    DuplicateFingerprintError,
    FixtureMissError,
    GatewayError,
    MalformedProviderResponseError,
    ProviderUnavailableError,
    RunLockHeldError,
)
from causaltext.gateway import (
    ChatExchange,
    ExchangeSource,
    Gateway,
    LiveTransport,
    ProviderConfig,
    ReplayEntry,
    ReplayFixture,
    ReplayTransport,
    TokenBucket,
    _cache_key,
    cache_stats,
    clear_cache,
    run_lock,
)
from causaltext.prompts import RenderedPrompt
from helpers import (
    CountingTransport,
    ScriptedTransport,
    child_env,
    integrity,
    old_entry_name,
    store_execute,
    store_rows,
)

GOOD_PAYLOAD = {"choices": [{"message": {"content": "fine.\n<Answer>A</Answer>"}}]}


def prompt_for(text: str) -> RenderedPrompt:
    return RenderedPrompt.create("", text)


# --- replay ---------------------------------------------------------------


def test_replay_hit_returns_fixture_reply_with_zero_latency():
    prompt = prompt_for("question one")
    fixture = ReplayFixture(entries={prompt.fingerprint: ReplayEntry("<Answer>B</Answer>")})
    gateway = Gateway(ProviderConfig(), ReplayTransport(fixture))
    exchange = gateway.complete(prompt)
    assert exchange.source is ExchangeSource.REPLAY
    assert exchange.reply_text == "<Answer>B</Answer>"
    assert exchange.latency == 0.0
    assert exchange.retries == 0


def test_replay_strict_miss_raises():
    gateway = Gateway(ProviderConfig(), ReplayTransport(ReplayFixture()))
    with pytest.raises(FixtureMissError):
        gateway.complete(prompt_for("unknown"))


def test_replay_uses_synthetic_latency_from_fixture():
    prompt = prompt_for("slow one")
    fixture = ReplayFixture(entries={prompt.fingerprint: ReplayEntry("ok", latency=11.5)})
    gateway = Gateway(ProviderConfig(), ReplayTransport(fixture))
    assert gateway.complete(prompt).latency == 11.5


# --- fixtures ----------------------------------------------------------------


def test_fixture_add_round_trip(tmp_path):
    exchanges = [
        ChatExchange(prompt_for("q1"), "reply one", 1.25, ExchangeSource.LIVE),
        ChatExchange(prompt_for("q2"), "reply étwo", 0.5, ExchangeSource.LIVE),
        ChatExchange(prompt_for("q1"), "reply one", 9.0, ExchangeSource.LIVE),
    ]
    fixture = ReplayFixture()
    for exchange in exchanges:
        fixture.add(exchange)
    path = tmp_path / "fixture.json"
    fixture.save(path)
    assert "strict" not in json.loads(path.read_text(encoding="utf-8"))
    loaded = ReplayFixture.load(path)
    assert set(loaded.entries) == {e.prompt.fingerprint for e in exchanges}
    for exchange in exchanges[:2]:
        assert loaded.entries[exchange.prompt.fingerprint].reply_text == exchange.reply_text


_SAVE_UNDER_A_FILE_SIZE_LIMIT = textwrap.dedent("""
    import resource, signal, sys
    from causaltext.errors import GatewayError
    from causaltext.gateway import ReplayEntry, ReplayFixture

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
    fixture = ReplayFixture({f"fp{i}": ReplayEntry("r" * 100) for i in range(100)})
    try:
        fixture.save(sys.argv[1])
    except GatewayError as exc:
        print(exc)
        sys.exit(3)
""")


def test_a_failed_fixture_save_leaves_the_old_file_as_it_was(tmp_path):
    path = tmp_path / "fixture.json"
    ReplayFixture({"fp": ReplayEntry("the old reply", 1.5)}).save(path)
    old = path.read_bytes()
    # a child process, so the file-size limit binds nothing else
    child = subprocess.run(
        [sys.executable, "-c", _SAVE_UNDER_A_FILE_SIZE_LIMIT, str(path)],
        env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 3, child.stderr
    assert "cannot save replay fixture" in child.stdout
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fixture.json"]
    # a save that succeeds replaces the file and leaves no scratch file
    ReplayFixture({"fp": ReplayEntry("a new reply")}).save(path)
    assert ReplayFixture.load(path).entries == {"fp": ReplayEntry("a new reply")}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fixture.json"]


def test_an_atomic_write_that_raises_part_way_leaves_the_old_file_as_it_was(tmp_path):
    path = tmp_path / "out.json"
    gateway_module._write_atomically(path, ("old",))
    # the second chunk holds a lone surrogate, which UTF-8 cannot encode
    with pytest.raises(UnicodeEncodeError):
        gateway_module._write_atomically(path, ("new ", "\ud800", " text"))

    def failing_chunks():
        yield "new"
        raise KeyError("payload")

    with pytest.raises(KeyError):
        gateway_module._write_atomically(path, failing_chunks())
    assert path.read_text(encoding="utf-8") == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_json_chunks_join_to_the_indented_encoding():
    payload = {"b": [1, 2.5, None, True], "a": {"é": "tnf-α", "nested": [[], {}]}, "c": ""}
    joined = "".join(gateway_module._json_chunks(payload))
    assert joined == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def test_a_cache_row_holds_the_reply_text_verbatim(tmp_path):
    reply = 'a "quoted" reply\\ with é, α, a tab\t, a NUL \x00 and\nlines'
    gateway, _ = _cached_gateway(tmp_path, [reply])
    prompt = prompt_for("q")
    with gateway:
        gateway.cached_complete(prompt)
    [(stored, _, _)] = store_rows(gateway.config.cache_dir).values()
    assert stored == reply


def test_fixture_add_empty_and_conflicting():
    assert ReplayFixture().entries == {}
    fixture = ReplayFixture()
    fixture.add(ChatExchange(prompt_for("q"), "one", 0.0, ExchangeSource.LIVE))
    with pytest.raises(DuplicateFingerprintError):
        fixture.add(ChatExchange(prompt_for("q"), "two", 0.0, ExchangeSource.LIVE))


def test_fixture_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(GatewayError):
        ReplayFixture.load(path)


def test_gateway_records_transport_replies_and_cache_hits(provider_config):
    source = ReplayFixture(entries={
        prompt_for("q1").fingerprint: ReplayEntry("first", latency=1.5),
        prompt_for("q2").fingerprint: ReplayEntry("second"),
    })
    record = ReplayFixture()
    with Gateway(provider_config, ReplayTransport(source), record) as cold:
        cold.cached_complete(prompt_for("q1"))
        cold.cached_complete(prompt_for("q2"))
    assert record.entries == source.entries

    # a warm gateway over the same cache records without any transport call:
    # its fixture is empty, so a miss would raise
    warm_record = ReplayFixture()
    warm = Gateway(provider_config, ReplayTransport(ReplayFixture()), warm_record)
    exchange = warm.cached_complete(prompt_for("q1"))
    assert exchange.source is ExchangeSource.CACHE
    # the cached latency is recorded, so a replay reproduces the timing stats
    assert warm_record.entries == {prompt_for("q1").fingerprint: ReplayEntry("first", 1.5)}

    replay = Gateway(ProviderConfig(), ReplayTransport(record))
    assert replay.complete(prompt_for("q1")).reply_text == "first"


# --- live transport via a scripted fake endpoint ------------------------------


class _FakeHandler(BaseHTTPRequestHandler):
    """Answers each request with the next script entry: (status, payload) or a callable.

    A callable gets the handler and writes (or withholds) the reply itself.
    """

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(
            {"path": self.path, "headers": dict(self.headers), "body": body}
        )
        reply = self.server.script.pop(0)
        if callable(reply):
            reply(self)
            return
        status, payload = reply
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a followed redirect may come back as a GET

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _live_config(server, **overrides) -> ProviderConfig:
    defaults = dict(
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/chat",
        backoff_base=0.0,
        requests_per_minute=1e9,
        max_retries=3,
    )
    defaults.update(overrides)
    return ProviderConfig(**defaults)


def test_live_success_and_wire_shape(fake_endpoint, monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    fake_endpoint.script.append((200, GOOD_PAYLOAD))
    config = _live_config(fake_endpoint)
    gateway = Gateway(config, LiveTransport(config))
    exchange = gateway.complete(RenderedPrompt.create("be careful", "what causes what?"))
    assert exchange.reply_text.endswith("<Answer>A</Answer>")
    assert exchange.source is ExchangeSource.LIVE
    assert exchange.latency >= 0
    request = fake_endpoint.requests[0]
    assert request["headers"]["Authorization"] == "Bearer sk-test"
    assert request["body"]["model"] == config.model_name
    assert request["body"]["temperature"] == 0.0
    assert request["body"]["messages"] == [
        {"role": "system", "content": "be careful"},
        {"role": "user", "content": "what causes what?"},
    ]


def test_live_key_is_a_bearer_token_even_with_a_netrc_entry(fake_endpoint, monkeypatch, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    fake_endpoint.script.append((200, GOOD_PAYLOAD))
    config = _live_config(fake_endpoint)
    Gateway(config, LiveTransport(config)).complete(prompt_for("q"))
    assert fake_endpoint.requests[0]["headers"]["Authorization"] == "Bearer sk-test"


def test_live_omits_system_message_when_empty(fake_endpoint, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    fake_endpoint.script.append((200, GOOD_PAYLOAD))
    config = _live_config(fake_endpoint)
    Gateway(config, LiveTransport(config)).complete(prompt_for("just user"))
    body = fake_endpoint.requests[0]["body"]
    assert body["messages"] == [{"role": "user", "content": "just user"}]
    assert "Authorization" not in fake_endpoint.requests[0]["headers"]


def test_live_retries_transient_failures(fake_endpoint):
    fake_endpoint.script.extend([(500, {}), (429, {}), (200, GOOD_PAYLOAD)])
    config = _live_config(fake_endpoint)
    exchange = Gateway(config, LiveTransport(config)).complete(prompt_for("flaky"))
    assert exchange.retries == 2
    assert len(fake_endpoint.requests) == 3


def test_live_gives_up_after_retries_exhausted(fake_endpoint):
    fake_endpoint.script.extend([(503, {})] * 4)
    config = _live_config(fake_endpoint)
    with pytest.raises(ProviderUnavailableError):
        Gateway(config, LiveTransport(config)).complete(prompt_for("down"))
    assert len(fake_endpoint.requests) == config.max_retries + 1


def test_live_never_retries_auth_errors(fake_endpoint):
    fake_endpoint.script.extend([(401, {}), (200, GOOD_PAYLOAD)])
    config = _live_config(fake_endpoint)
    with pytest.raises(AuthError):
        Gateway(config, LiveTransport(config)).complete(prompt_for("denied"))
    assert len(fake_endpoint.requests) == 1


def test_live_rejects_malformed_response(fake_endpoint):
    config = _live_config(fake_endpoint)
    gateway = Gateway(config, LiveTransport(config))
    for payload, message in [
        ({"unexpected": True}, "cannot read completion"),
        ({"choices": [{"message": {"content": ["<Answer>A</Answer>"]}}]}, "not text"),
    ]:
        fake_endpoint.script.append((200, payload))
        with pytest.raises(MalformedProviderResponseError, match=message):
            gateway.complete(prompt_for("odd"))


def test_a_reply_holding_a_lone_surrogate_is_refused_and_kept_nowhere(fake_endpoint, tmp_path):
    half_pair = "the cause is \ud83d\n<Answer>A</Answer>"  # not encodable as UTF-8
    prompt = prompt_for("a question answered with half a surrogate pair")
    config = _live_config(fake_endpoint, cache_dir=tmp_path / "cache")
    replayed = ReplayFixture(entries={prompt.fingerprint: ReplayEntry(half_pair)})
    for transport in (LiveTransport(config), ReplayTransport(replayed)):
        fake_endpoint.script.append((200, {"choices": [{"message": {"content": half_pair}}]}))
        record = ReplayFixture()
        gateway = Gateway(config, transport, record)
        with pytest.raises(MalformedProviderResponseError, match="lone surrogate"):
            gateway.cached_complete(prompt)
        assert record.entries == {}
        assert not (tmp_path / "cache").exists()
    assert len(fake_endpoint.requests) == 1  # refused, not retried


def test_live_other_client_errors_fail_fast(fake_endpoint):
    fake_endpoint.script.append((400, {}))
    config = _live_config(fake_endpoint)
    with pytest.raises(ProviderUnavailableError):
        Gateway(config, LiveTransport(config)).complete(prompt_for("bad request"))
    assert len(fake_endpoint.requests) == 1


def test_live_reply_held_past_the_timeout_is_retried_up_to_max_retries(
    fake_endpoint, monkeypatch
):
    monkeypatch.setattr(gateway_module, "REQUEST_TIMEOUT_S", 0.2)
    # held far longer than the three attempts may take together
    fake_endpoint.script.extend([lambda handler: time.sleep(2.0)] * 3)
    config = _live_config(fake_endpoint, max_retries=2)
    started = time.monotonic()
    with pytest.raises(ProviderUnavailableError, match="gave up after 3 attempts"):
        Gateway(config, LiveTransport(config)).complete(prompt_for("slow"))
    assert len(fake_endpoint.requests) == 3
    assert time.monotonic() - started < 3 * 0.2 + 1.0


def _cut_short(handler):
    data = json.dumps(GOOD_PAYLOAD).encode("utf-8")
    handler.send_response(200)
    handler.send_header("Content-Length", str(len(data)))
    handler.end_headers()
    handler.wfile.write(data[: len(data) // 2])
    handler.close_connection = True


def test_live_body_cut_short_of_its_length_fails_after_one_attempt(fake_endpoint):
    fake_endpoint.script.extend([_cut_short, (200, GOOD_PAYLOAD)])
    config = _live_config(fake_endpoint)
    with pytest.raises(ProviderUnavailableError, match="IncompleteRead"):
        Gateway(config, LiveTransport(config)).complete(prompt_for("cut"))
    assert len(fake_endpoint.requests) == 1


@pytest.mark.parametrize("status", [302, 307])
def test_live_redirect_is_not_followed(fake_endpoint, monkeypatch, status):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")

    def redirect(handler):
        handler.send_response(status)
        handler.send_header("Location", f"http://127.0.0.1:{fake_endpoint.server_address[1]}/x")
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    fake_endpoint.script.extend([redirect, (200, GOOD_PAYLOAD), (200, GOOD_PAYLOAD)])
    config = _live_config(fake_endpoint)
    with pytest.raises(ProviderUnavailableError, match=f"status {status}; not retryable"):
        Gateway(config, LiveTransport(config)).complete(prompt_for("moved"))
    assert [request["path"] for request in fake_endpoint.requests] == ["/chat"]


def test_live_closed_port_is_retried():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = ProviderConfig(endpoint_url=f"http://127.0.0.1:{port}/chat", backoff_base=0.0,
                            requests_per_minute=1e9, max_retries=2)
    transport = CountingTransport(LiveTransport(config))
    with pytest.raises(ProviderUnavailableError, match="gave up after 3 attempts"):
        Gateway(config, transport).complete(prompt_for("nobody home"))
    assert transport.calls == 3


def test_live_reads_no_netrc_file(fake_endpoint, monkeypatch, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    fake_endpoint.script.append((200, GOOD_PAYLOAD))
    config = _live_config(fake_endpoint)
    Gateway(config, LiveTransport(config)).complete(prompt_for("q"))
    assert "Authorization" not in fake_endpoint.requests[0]["headers"]


# --- cache ---------------------------------------------------------------------


def _cached_gateway(tmp_path, replies, **overrides):
    config = ProviderConfig(
        cache_dir=tmp_path / "cache",
        backoff_base=0.0,
        requests_per_minute=1e9,
        **overrides,
    )
    transport = CountingTransport(ScriptedTransport(replies))
    return Gateway(config, transport), transport


def test_cached_complete_memoizes(tmp_path):
    gateway, transport = _cached_gateway(tmp_path, ["the reply"])
    prompt = prompt_for("q")
    first = gateway.cached_complete(prompt)
    second = gateway.cached_complete(prompt)
    assert transport.calls == 1
    assert first.source is ExchangeSource.LIVE
    assert second.source is ExchangeSource.CACHE
    assert second.reply_text == "the reply"
    assert second.latency == first.latency


@pytest.mark.parametrize("replay", [False, True], ids=["live", "replay"])
@pytest.mark.parametrize("form", ["str", "path", "relative", "trailing-slash"])
def test_a_hit_reads_the_row_of_the_cache_key_in_the_store_under_cache_dir(
    tmp_path, monkeypatch, form, replay
):
    monkeypatch.chdir(tmp_path)
    cache_dir = {
        "str": str(tmp_path / "cache"),
        "path": tmp_path / "cache",
        "relative": "cache",
        "trailing-slash": f"{tmp_path / 'cache'}{os.sep}",
    }[form]
    config = ProviderConfig(cache_dir=cache_dir)
    prompt = prompt_for("q")
    if replay:
        transport = ReplayTransport(ReplayFixture({prompt.fingerprint: ReplayEntry("the reply")}))
    else:
        transport = ScriptedTransport(["the reply"])
    with Gateway(config, transport) as gateway:
        gateway.cached_complete(prompt)
    key = ("replay|" if replay else "") + _cache_key(config, prompt)
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        "cache.sqlite", "cache.sqlite-journal"]
    assert list(store_rows(tmp_path / "cache")) == [key]
    # a hit answers from the row alone: the transport has no reply left to send
    store_execute(tmp_path / "cache", "UPDATE entries SET latency = 2.5")
    with gateway:
        exchange = gateway.cached_complete(prompt)
    assert (exchange.source, exchange.reply_text, exchange.latency) == (
        ExchangeSource.CACHE, "the reply", 2.5)


def test_a_reply_larger_than_a_megabyte_survives_a_write_and_a_hit(tmp_path):
    # quotes, newlines and two-byte characters over many of the store's pages
    reply = 'a "b"\né' * (1 << 18)
    gateway, transport = _cached_gateway(tmp_path, [reply])
    prompt = prompt_for("q")
    assert gateway.cached_complete(prompt).reply_text == reply
    assert (tmp_path / "cache" / "cache.sqlite").stat().st_size > 1 << 20
    exchange = gateway.cached_complete(prompt)
    assert (exchange.source, exchange.reply_text) == (ExchangeSource.CACHE, reply)
    assert transport.calls == 1


def test_cache_key_discriminates_model_and_temperature(tmp_path):
    prompt = prompt_for("q")
    gateway_a, transport_a = _cached_gateway(tmp_path, ["from a"], model_name="model-a")
    with gateway_a:
        gateway_a.cached_complete(prompt)
    gateway_b, transport_b = _cached_gateway(tmp_path, ["from b"], model_name="model-b")
    with gateway_b:
        assert gateway_b.cached_complete(prompt).reply_text == "from b"
    assert f"{prompt.fingerprint}|model-b|0.0" in store_rows(tmp_path / "cache")
    gateway_c, transport_c = _cached_gateway(
        tmp_path, ["from c"], model_name="model-a", temperature=1.0
    )
    with gateway_c:
        assert gateway_c.cached_complete(prompt).reply_text == "from c"
    assert transport_a.calls == transport_b.calls == transport_c.calls == 1
    with gateway_a:
        assert gateway_a.cached_complete(prompt).reply_text == "from a"
    assert transport_a.calls == 1

    # a replayed reply is cached apart and never answers a live run
    other = prompt_for("other")
    fixture = ReplayFixture(entries={other.fingerprint: ReplayEntry("from replay")})
    with Gateway(gateway_a.config, ReplayTransport(fixture)) as replay:
        assert replay.cached_complete(other).reply_text == "from replay"
    live, live_transport = _cached_gateway(tmp_path, ["from live"], model_name="model-a")
    assert live.cached_complete(other).reply_text == "from live"
    assert live_transport.calls == 1


def test_cache_random_repetition_counting_oracle(tmp_path):
    rng = random.Random(1234)
    prompts = [prompt_for(f"question {i}") for i in range(120)]
    fixture = ReplayFixture(
        entries={p.fingerprint: ReplayEntry(f"reply {i}") for i, p in enumerate(prompts)}
    )
    config = ProviderConfig(cache_dir=tmp_path / "cache", requests_per_minute=1e9)
    transport = CountingTransport(ReplayTransport(fixture))
    gateway = Gateway(config, transport)
    drawn = [rng.choice(prompts) for _ in range(1000)]
    for prompt in drawn:
        gateway.cached_complete(prompt)
    assert transport.calls == len({p.fingerprint for p in drawn})


def _loosen(cache_dir) -> None:
    """Drop the table's NOT NULL rules, as a store another program wrote might lack them."""
    store_execute(cache_dir, """
        CREATE TABLE loose(key TEXT PRIMARY KEY, reply, latency, checksum) WITHOUT ROWID;
        INSERT INTO loose SELECT * FROM entries;
        DROP TABLE entries;
        ALTER TABLE loose RENAME TO entries;
    """)


def _corrupt_then_ask(gateway, prompt, caplog, cache_dir, sql, *params):
    """Apply ``sql`` to the closed gateway's store, then ask ``prompt`` once more."""
    gateway.close()
    store_execute(cache_dir, sql, *params)
    caplog.clear()
    with caplog.at_level("WARNING"):
        exchange = gateway.cached_complete(prompt)
    assert any("corrupt" in r.message and "treating as miss" in r.message
               for r in caplog.records), caplog.records
    return exchange


def test_cache_corrupt_entry_treated_as_miss(tmp_path, caplog):
    gateway, transport = _cached_gateway(tmp_path, ["one", "two", "three"])
    prompt = prompt_for("q")
    cache_dir = tmp_path / "cache"
    gateway.cached_complete(prompt)
    # a reply stored as bytes, not text
    exchange = _corrupt_then_ask(gateway, prompt, caplog, cache_dir,
                                 "UPDATE entries SET reply = CAST(reply AS BLOB)")
    assert exchange.reply_text == "two"
    assert transport.calls == 2
    assert gateway.cached_complete(prompt).source is ExchangeSource.CACHE

    # the right key with a reply that is no string: a miss, not an AttributeError
    exchange = _corrupt_then_ask(gateway, prompt, caplog, cache_dir,
                                 "UPDATE entries SET reply = 7")
    assert exchange.reply_text == "three"
    assert transport.calls == 3
    gateway.close()
    assert [reply for reply, _, _ in store_rows(cache_dir).values()] == ["three"]


def test_cache_store_that_cannot_be_opened_is_a_miss(tmp_path, caplog):
    gateway, transport = _cached_gateway(tmp_path, ["one", "two", "three"])
    prompt = prompt_for("q")
    store = tmp_path / "cache" / "cache.sqlite"
    store.mkdir(parents=True)  # the store exists, but SQLite cannot open it
    with caplog.at_level("WARNING"):
        exchange = gateway.cached_complete(prompt)
        again = gateway.cached_complete(prompt)
    messages = [record.message for record in caplog.records]
    assert any("unreadable" in m and "treating as miss" in m for m in messages), messages
    assert any("not written" in m for m in messages), messages
    # the reply is still used; the row could not be written, so the next call asks again
    assert (exchange.reply_text, again.reply_text) == ("one", "two")
    assert exchange.source is again.source is ExchangeSource.LIVE
    assert transport.calls == 2
    assert store.is_dir()


def test_cache_entry_that_is_not_utf8_is_refetched_and_rewritten(tmp_path, caplog):
    gateway, transport = _cached_gateway(tmp_path, ["one", "two"])
    prompt = prompt_for("q")
    gateway.cached_complete(prompt)
    exchange = _corrupt_then_ask(gateway, prompt, caplog, tmp_path / "cache",
                                 "UPDATE entries SET reply = CAST(x'fffe00' AS TEXT)")
    assert exchange.reply_text == "two"
    assert transport.calls == 2
    assert gateway.cached_complete(prompt).source is ExchangeSource.CACHE
    assert transport.calls == 2
    gateway.close()
    assert [reply for reply, _, _ in store_rows(tmp_path / "cache").values()] == ["two"]


def test_cache_checksum_mismatch_treated_as_miss(tmp_path, caplog):
    gateway, transport = _cached_gateway(tmp_path, ["one", "two"])
    prompt = prompt_for("q")
    gateway.cached_complete(prompt)
    exchange = _corrupt_then_ask(gateway, prompt, caplog, tmp_path / "cache",
                                 "UPDATE entries SET reply = 'tampered'")
    assert exchange.reply_text == "two"
    assert transport.calls == 2


# NaN is stored as NULL; True is not here, since SQLite stores it as the valid latency 1
@pytest.mark.parametrize("latency", [-1, float("nan"), float("inf"), 1e9 + 1, "1.5", None])
def test_cache_entry_with_bad_latency_treated_as_miss(tmp_path, caplog, latency):
    gateway, transport = _cached_gateway(tmp_path, ["one", "two"])
    prompt = prompt_for("q")
    gateway.cached_complete(prompt)
    gateway.close()
    _loosen(tmp_path / "cache")
    exchange = _corrupt_then_ask(gateway, prompt, caplog, tmp_path / "cache",
                                 "UPDATE entries SET latency = ?", latency)
    assert (exchange.reply_text, exchange.latency) == ("two", 0.0)
    assert transport.calls == 2
    gateway.close()
    assert list(store_rows(tmp_path / "cache").values()) == [
        ("two", 0.0, hashlib.sha256(b"two").hexdigest())]


def test_a_store_sqlite_cannot_read_is_moved_aside_and_refilled(tmp_path, caplog):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "cache.sqlite").write_bytes(b"not a database, " * 512)
    (cache_dir / "cache.sqlite-journal").write_bytes(b"its journal")
    gateway, transport = _cached_gateway(tmp_path, ["one"])
    prompt = prompt_for("q")
    with caplog.at_level("WARNING"):
        assert gateway.cached_complete(prompt).reply_text == "one"
    assert any("damaged" in r.message and "moved aside" in r.message for r in caplog.records)
    assert gateway.cached_complete(prompt).source is ExchangeSource.CACHE
    assert transport.calls == 1
    gateway.close()
    assert (cache_dir / "cache.sqlite.corrupt").read_bytes() == b"not a database, " * 512
    assert [reply for reply, _, _ in store_rows(cache_dir).values()] == ["one"]
    assert integrity(cache_dir) == "ok"


def test_a_store_held_by_another_connection_is_refused_not_paid_for(tmp_path):
    holder, _ = _cached_gateway(tmp_path, ["one"])
    holder.cached_complete(prompt_for("q"))  # a write: the holder keeps the store locked
    gateway, transport = _cached_gateway(tmp_path, ["never sent"])
    for prompt in (prompt_for("q"), prompt_for("another")):
        with pytest.raises(RunLockHeldError, match="cache.sqlite is in use"):
            gateway.cached_complete(prompt)
    assert transport.calls == 0
    holder.close()
    assert gateway.cached_complete(prompt_for("q")).source is ExchangeSource.CACHE
    assert transport.calls == 0


def test_a_new_cache_entry_holds_its_key_reply_latency_and_checksum(tmp_path):
    gateway, _ = _cached_gateway(tmp_path, ["one"])
    prompt = prompt_for("q")
    with gateway:
        gateway.cached_complete(prompt)
    key = _cache_key(gateway.config, prompt)
    assert store_rows(tmp_path / "cache") == {
        key: ("one", 0.0, hashlib.sha256(b"one").hexdigest())}
    db = sqlite3.connect(tmp_path / "cache" / "cache.sqlite")
    try:
        [(schema,)] = db.execute("SELECT sql FROM sqlite_master WHERE type = 'table'")
    finally:
        db.close()
    assert " ".join(schema.split()) == (
        "CREATE TABLE entries( key TEXT PRIMARY KEY, reply TEXT NOT NULL, "
        "latency REAL NOT NULL, checksum TEXT NOT NULL ) WITHOUT ROWID")


def test_the_store_connection_keeps_its_journal_skips_fsync_and_holds_its_lock(tmp_path):
    gateway, _ = _cached_gateway(tmp_path, ["one"])
    with gateway:
        gateway.cached_complete(prompt_for("q"))
        settings = [gateway._db.execute(f"PRAGMA {name}").fetchone()[0]
                    for name in ("journal_mode", "synchronous", "locking_mode")]
    assert settings == ["persist", 0, "exclusive"]
    assert gateway._db is None


def _old_entry_file(gateway, prompt, reply: str) -> Path:
    """Write ``prompt``'s entry as a file of the one-file-per-entry layout the store replaced."""
    key = _cache_key(gateway.config, prompt)
    path = Path(gateway.config.cache_dir) / old_entry_name(key)
    path.parent.mkdir(exist_ok=True)
    record = {"key": key, "reply_text": reply, "latency": 1.5,
              "checksum": hashlib.sha256(reply.encode("utf-8")).hexdigest()}
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")
    return path


def test_an_entry_file_of_the_old_layout_is_neither_read_nor_removed(tmp_path):
    gateway, transport = _cached_gateway(tmp_path, ["new"])
    prompt = prompt_for("q")
    path = _old_entry_file(gateway, prompt, "old")
    before = path.read_bytes()
    with gateway:
        assert gateway.cached_complete(prompt).reply_text == "new"
        exchange = gateway.cached_complete(prompt)
    assert (exchange.source, exchange.reply_text) == (ExchangeSource.CACHE, "new")
    assert transport.calls == 1
    assert path.read_bytes() == before
    assert clear_cache(gateway.config.cache_dir) == 1
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "latency", [10**9 + 1, 1e9 + 1, 1e308, 10**400],
    ids=["int above", "float above", "1e308", "int too large for a float"],
)
def test_a_latency_above_the_ceiling_is_refused(latency):
    with pytest.raises(ValueError, match="latency must be a number in"):
        ChatExchange(prompt_for("q"), "reply", latency, ExchangeSource.LIVE)
    assert ChatExchange(prompt_for("q"), "reply", 10**9, ExchangeSource.LIVE).latency == 1e9


# --- rate limiting ------------------------------------------------------------


def test_token_bucket_throttles_with_injected_clock():
    clock_value = [0.0]
    sleeps = []

    def clock():
        return clock_value[0]

    def sleep(duration):
        sleeps.append(duration)
        clock_value[0] += duration

    bucket = TokenBucket(60.0, clock=clock, sleep=sleep)
    bucket.acquire()
    bucket.acquire()
    bucket.acquire()
    assert sleeps
    assert abs(sum(sleeps) - 2.0) < 1e-6


def test_token_bucket_no_wait_under_generous_rate():
    sleeps = []
    bucket = TokenBucket(6e9, sleep=sleeps.append)
    for _ in range(100):
        bucket.acquire()
    assert sleeps == []


# --- run lock and maintenance ----------------------------------------------------


def test_run_lock_guards_cache_clear(tmp_path):
    cache_dir = tmp_path / "cache"
    with run_lock(cache_dir):
        with pytest.raises(RunLockHeldError, match="in use") as refused:
            clear_cache(cache_dir)
        assert str(cache_dir / ".runlock") in str(refused.value)
        with pytest.raises(RunLockHeldError):
            with run_lock(cache_dir):
                pass
    with run_lock(cache_dir):
        pass
    assert clear_cache(cache_dir) == 0
    # The file outlives the lock: unlinking it would let two runs lock two inodes.
    assert (cache_dir / ".runlock").exists()


def test_cache_stats_and_clear(tmp_path):
    gateway, _ = _cached_gateway(tmp_path, ["one", "two"])
    cache_dir = gateway.config.cache_dir
    assert cache_stats(cache_dir) == (0, 0)
    assert clear_cache(cache_dir) == 0
    assert not cache_dir.exists()
    with gateway:
        gateway.cached_complete(prompt_for("q1"))
        gateway.cached_complete(prompt_for("q2"))
        with pytest.raises(RunLockHeldError, match="cache.sqlite is in use"):
            cache_stats(cache_dir)  # the open gateway holds the store
    count, size = cache_stats(cache_dir)
    assert count == 2
    store_files = ("cache.sqlite", "cache.sqlite-journal")
    assert size == sum((cache_dir / name).stat().st_size for name in store_files)
    old_entry = _old_entry_file(gateway, prompt_for("q3"), "three")
    for name in ("cache.sqlite.corrupt", "cache.sqlite.corrupt-journal"):
        (cache_dir / name).write_bytes(b"moved aside")
    assert cache_stats(cache_dir) == (count, size)  # only the store counts
    assert clear_cache(cache_dir) == 2
    assert sorted(p.name for p in cache_dir.iterdir()) == [".runlock", old_entry.name]
    assert cache_stats(cache_dir) == (0, 0)


def test_provider_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig(temperature=3.0)
    with pytest.raises(ValueError):
        ProviderConfig(max_retries=-1)
    with pytest.raises(ValueError):
        ProviderConfig(parallelism=0)
    for rate in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="requests_per_minute must be a finite number"):
            ProviderConfig(requests_per_minute=rate)
    for url in ("localhost:9/v1/chat/completions", "ftp://host/chat", "http:///chat",
                "https://", "/v1/chat/completions", "http://localhost:abc/v1/chat/completions",
                "http://localhost:99999/v1/chat/completions"):
        with pytest.raises(ValueError, match="http"):
            ProviderConfig(endpoint_url=url)


def test_live_unretryable_request_error_is_provider_unavailable(fake_endpoint, monkeypatch):
    # a key read from a CRLF file keeps its "\r", which no header may hold
    monkeypatch.setenv("OPENAI_API_KEY", "sk-secret\r")
    config = _live_config(fake_endpoint)
    transport = CountingTransport(LiveTransport(config))
    with pytest.raises(ProviderUnavailableError, match="request failed") as raised:
        Gateway(config, transport).complete(prompt_for("q"))
    assert transport.calls == 1
    assert "sk-secret" not in str(raised.value)
    assert fake_endpoint.requests == []


def test_live_connection_error_is_retried_then_provider_unavailable(monkeypatch):
    # no request leaves the process: the socket connect itself is replaced
    calls = []

    def reset(address, timeout=None, *args, **kwargs):
        calls.append(timeout)
        raise ConnectionResetError("connection reset")

    monkeypatch.setattr(socket, "create_connection", reset)
    config = ProviderConfig(endpoint_url="http://127.0.0.1:9/chat", backoff_base=0.0,
                            requests_per_minute=1e9, max_retries=2)
    gateway = Gateway(config, LiveTransport(config))
    with pytest.raises(ProviderUnavailableError, match="gave up after 3 attempts"):
        gateway.complete(prompt_for("q"))
    assert calls == [60.0] * 3  # each attempt waits at most 60 s


def test_chat_exchange_rejects_negative_latency():
    with pytest.raises(ValueError):
        ChatExchange(prompt_for("q"), "r", -1.0, ExchangeSource.LIVE)


@pytest.mark.parametrize("latency", [float("nan"), float("inf")])
def test_chat_exchange_rejects_non_finite_latency(latency):
    with pytest.raises(ValueError):
        ChatExchange(prompt_for("q"), "r", latency, ExchangeSource.LIVE)


def test_gateway_sends_nothing_after_an_auth_error(tmp_path):
    gateway, transport = _cached_gateway(
        tmp_path, [AuthError("provider rejected the credential (401)"), "never sent"]
    )
    with pytest.raises(AuthError):
        gateway.cached_complete(prompt_for("first"))
    with pytest.raises(AuthError, match="rejected the credential"):
        gateway.complete(prompt_for("another prompt"))
    with pytest.raises(AuthError):
        gateway.cached_complete(prompt_for("a third prompt"))
    assert transport.calls == 1


def test_empty_reply_is_returned_but_never_cached(tmp_path):
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    prompt = prompt_for("a question the provider answers with nothing")
    transport = CountingTransport(ScriptedTransport(["", "<Answer>A</Answer>"]))
    live = Gateway(config, transport)
    assert live.cached_complete(prompt).reply_text == ""
    assert cache_stats(config.cache_dir)[0] == 0

    exchange = live.cached_complete(prompt)
    assert (exchange.source, exchange.reply_text) == (ExchangeSource.LIVE, "<Answer>A</Answer>")
    assert transport.calls == 2
    assert live.cached_complete(prompt).source is ExchangeSource.CACHE


def _refusing_store(cache_dir, when: str) -> None:
    """A store whose every insert fails: a trigger aborts it ``when`` (BEFORE or AFTER) it."""
    Path(cache_dir).mkdir(parents=True)
    store_execute(cache_dir, gateway_module._STORE_SETUP + f"""
        CREATE TRIGGER refuse {when} INSERT ON entries BEGIN SELECT RAISE(ABORT, 'refused'); END;
    """)


def test_failed_cache_write_is_logged_and_the_exchange_still_served(tmp_path, caplog):
    config = ProviderConfig(cache_dir=tmp_path / "cache", requests_per_minute=1e9)
    prompt = prompt_for("a question whose cache entry cannot be written")
    record = ReplayFixture()
    transport = CountingTransport(ScriptedTransport(["the reply", "the reply"]))
    gateway = Gateway(config, transport, record)
    _refusing_store(config.cache_dir, "BEFORE")
    with caplog.at_level("WARNING"):
        exchange = gateway.cached_complete(prompt)
    assert (exchange.source, exchange.reply_text) == (ExchangeSource.LIVE, "the reply")
    assert any("not written" in r.message and "refused" in r.message for r in caplog.records)
    assert record.entries[prompt.fingerprint].reply_text == "the reply"
    # nothing was cached, so the next ask pays again
    assert gateway.cached_complete(prompt).source is ExchangeSource.LIVE
    assert transport.calls == 2
    gateway.close()
    assert cache_stats(config.cache_dir)[0] == 0


def test_a_cache_write_that_fails_inside_its_transaction_leaves_no_trace(tmp_path, caplog):
    gateway, transport = _cached_gateway(tmp_path, ["one"])
    prompt = prompt_for("a question whose row is inserted, then rolled back")
    _refusing_store(gateway.config.cache_dir, "AFTER")
    with caplog.at_level("WARNING"):
        assert gateway.cached_complete(prompt).reply_text == "one"
    assert any("not written" in r.message for r in caplog.records)
    gateway.close()
    assert store_rows(gateway.config.cache_dir) == {}
    assert integrity(gateway.config.cache_dir) == "ok"
    assert sorted(p.name for p in gateway.config.cache_dir.iterdir()) == [
        "cache.sqlite", "cache.sqlite-journal"]


class _SlowTransport:
    """Answers every prompt after 50 ms, counting sends."""

    source = ExchangeSource.LIVE

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def send(self, prompt):
        with self._lock:
            self.calls += 1
        time.sleep(0.05)
        return "<Answer>A</Answer>", 0.05


def _ask_from_threads(gateway: Gateway, prompts: list[RenderedPrompt], count: int) -> list[str]:
    """Replies of ``count`` threads started at once; thread i asks ``prompts[i % len]``."""
    barrier = threading.Barrier(count)
    replies = []

    def ask(prompt):
        barrier.wait()
        replies.append(gateway.cached_complete(prompt).reply_text)

    threads = [
        threading.Thread(target=ask, args=(prompts[index % len(prompts)],))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    return replies


def test_concurrent_callers_of_one_prompt_make_one_send(tmp_path):
    config = ProviderConfig(cache_dir=tmp_path / "cache", requests_per_minute=1e9)
    transport = _SlowTransport()
    gateway = Gateway(config, transport)
    replies = _ask_from_threads(gateway, [prompt_for("one prompt, eight threads")], 8)
    assert transport.calls == 1
    assert replies == ["<Answer>A</Answer>"] * 8


def test_key_lock_table_is_empty_once_each_miss_is_settled(tmp_path):
    config = ProviderConfig(cache_dir=tmp_path / "cache", requests_per_minute=1e9)
    transport = _SlowTransport()
    gateway = Gateway(config, transport)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _ask_from_threads(gateway, [prompt_for(f"prompt {i}") for i in range(4)], 16)
    finally:
        sys.setswitchinterval(interval)
    assert transport.calls == 4
    assert gateway._key_locks == {}
    gateway.close()
    # filled, empty and raised misses each leave no lock behind
    gateway, transport = _cached_gateway(
        tmp_path, ["filled", "", ProviderUnavailableError("down")]
    )
    gateway.cached_complete(prompt_for("filled"))
    gateway.cached_complete(prompt_for("empty"))
    with pytest.raises(ProviderUnavailableError):
        gateway.cached_complete(prompt_for("raised"))
    assert transport.calls == 3
    assert gateway._key_locks == {}


def test_threads_sharing_the_store_connection_write_every_row_once(tmp_path):
    prompts = [prompt_for(f"prompt {i}") for i in range(40)]
    fixture = ReplayFixture({p.fingerprint: ReplayEntry(f"reply {i}", latency=i / 8)
                             for i, p in enumerate(prompts)})
    config = ProviderConfig(cache_dir=tmp_path / "cache", requests_per_minute=1e9)
    transport = CountingTransport(ReplayTransport(fixture))
    gateway = Gateway(config, transport)
    barrier = threading.Barrier(8)
    replies = [[] for _ in range(8)]

    def ask(index):
        order = random.Random(index).sample(prompts, len(prompts))
        barrier.wait()
        for prompt in order * 3:
            replies[index].append((prompt.fingerprint, gateway.cached_complete(prompt).reply_text))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    gateway.close()
    assert transport.calls == len(prompts)
    expected = {p.fingerprint: fixture.entries[p.fingerprint].reply_text for p in prompts}
    assert all(dict(answers) == expected and len(answers) == 120 for answers in replies)
    rows = store_rows(config.cache_dir)
    assert sorted((reply, latency) for reply, latency, _ in rows.values()) == sorted(
        (entry.reply_text, entry.latency) for entry in fixture.entries.values())
    assert integrity(config.cache_dir) == "ok"
