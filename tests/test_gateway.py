from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

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
    _cache_path,
    cache_stats,
    clear_cache,
    run_lock,
)
from causaltext.prompts import RenderedPrompt
from helpers import CountingTransport, ScriptedTransport

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
    gateway = Gateway(ProviderConfig(), ReplayTransport(ReplayFixture(strict=True)))
    with pytest.raises(FixtureMissError):
        gateway.complete(prompt_for("unknown"))


def test_replay_non_strict_miss_yields_empty_reply():
    gateway = Gateway(ProviderConfig(), ReplayTransport(ReplayFixture(strict=False)))
    exchange = gateway.complete(prompt_for("unknown"))
    assert exchange.reply_text == ""


def test_replay_uses_synthetic_latency_from_fixture():
    prompt = prompt_for("slow one")
    fixture = ReplayFixture(entries={prompt.fingerprint: ReplayEntry("ok", latency=11.5)})
    gateway = Gateway(ProviderConfig(), ReplayTransport(fixture))
    assert gateway.complete(prompt).latency == 11.5


# --- fixtures ----------------------------------------------------------------


def test_fixture_add_round_trip(tmp_path):
    exchanges = [
        ChatExchange(prompt_for("q1"), "reply one", "m", 1.25, ExchangeSource.LIVE),
        ChatExchange(prompt_for("q2"), "reply étwo", "m", 0.5, ExchangeSource.LIVE),
        ChatExchange(prompt_for("q1"), "reply one", "m", 9.0, ExchangeSource.LIVE),
    ]
    fixture = ReplayFixture()
    for exchange in exchanges:
        fixture.add(exchange)
    path = tmp_path / "fixture.json"
    fixture.save(path)
    loaded = ReplayFixture.load(path)
    assert loaded.strict is True
    assert set(loaded.entries) == {e.prompt.fingerprint for e in exchanges}
    for exchange in exchanges[:2]:
        assert loaded.entries[exchange.prompt.fingerprint].reply_text == exchange.reply_text


def test_fixture_add_empty_and_conflicting():
    assert ReplayFixture().entries == {}
    fixture = ReplayFixture()
    fixture.add(ChatExchange(prompt_for("q"), "one", "m", 0.0, ExchangeSource.LIVE))
    with pytest.raises(DuplicateFingerprintError):
        fixture.add(ChatExchange(prompt_for("q"), "two", "m", 0.0, ExchangeSource.LIVE))


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
    cold = Gateway(provider_config, ReplayTransport(source), record)
    cold.cached_complete(prompt_for("q1"))
    cold.cached_complete(prompt_for("q2"))
    assert record.entries == source.entries

    # a warm gateway over the same cache records without any transport call
    warm_record = ReplayFixture()
    warm_transport = ScriptedTransport([])
    warm = Gateway(provider_config, warm_transport, warm_record)
    exchange = warm.cached_complete(prompt_for("q1"))
    assert exchange.source is ExchangeSource.CACHE
    assert exchange.model_name == provider_config.model_name
    assert warm_transport.calls == 0
    # the cached latency is recorded, so a replay reproduces the timing stats
    assert warm_record.entries == {prompt_for("q1").fingerprint: ReplayEntry("first", 1.5)}

    replay = Gateway(ProviderConfig(), ReplayTransport(record))
    assert replay.complete(prompt_for("q1")).reply_text == "first"


# --- live transport via a scripted fake endpoint ------------------------------


class _FakeHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append({"headers": dict(self.headers), "body": body})
        status, payload = self.server.script.pop(0)
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

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
        request_timeout=5.0,
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
    fake_endpoint.script.append((200, {"unexpected": True}))
    config = _live_config(fake_endpoint)
    with pytest.raises(MalformedProviderResponseError):
        Gateway(config, LiveTransport(config)).complete(prompt_for("odd"))


def test_live_other_client_errors_fail_fast(fake_endpoint):
    fake_endpoint.script.append((400, {}))
    config = _live_config(fake_endpoint)
    with pytest.raises(ProviderUnavailableError):
        Gateway(config, LiveTransport(config)).complete(prompt_for("bad request"))
    assert len(fake_endpoint.requests) == 1


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


def test_cache_key_discriminates_model_and_temperature(tmp_path):
    prompt = prompt_for("q")
    gateway_a, transport_a = _cached_gateway(tmp_path, ["from a"], model_name="model-a")
    gateway_a.cached_complete(prompt)
    gateway_b, transport_b = _cached_gateway(tmp_path, ["from b"], model_name="model-b")
    assert gateway_b.cached_complete(prompt).reply_text == "from b"
    gateway_c, transport_c = _cached_gateway(
        tmp_path, ["from c"], model_name="model-a", temperature=1.0
    )
    assert gateway_c.cached_complete(prompt).reply_text == "from c"
    assert transport_a.calls == transport_b.calls == transport_c.calls == 1
    assert gateway_a.cached_complete(prompt).reply_text == "from a"
    assert transport_a.calls == 1


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


def test_cache_corrupt_entry_treated_as_miss(tmp_path, caplog):
    gateway, transport = _cached_gateway(tmp_path, ["one", "two"])
    prompt = prompt_for("q")
    gateway.cached_complete(prompt)
    path = _cache_path(gateway.config.cache_dir, _cache_key(gateway.config, prompt))
    path.write_text("{ truncated", encoding="utf-8")
    with caplog.at_level("WARNING"):
        exchange = gateway.cached_complete(prompt)
    assert exchange.reply_text == "two"
    assert transport.calls == 2
    assert any("corrupt" in record.message for record in caplog.records)
    assert gateway.cached_complete(prompt).source is ExchangeSource.CACHE


def test_cache_checksum_mismatch_treated_as_miss(tmp_path):
    gateway, transport = _cached_gateway(tmp_path, ["one", "two"])
    prompt = prompt_for("q")
    gateway.cached_complete(prompt)
    path = _cache_path(gateway.config.cache_dir, _cache_key(gateway.config, prompt))
    record = json.loads(path.read_text(encoding="utf-8"))
    record["reply_text"] = "tampered"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert gateway.cached_complete(prompt).reply_text == "two"
    assert transport.calls == 2


@pytest.mark.parametrize("latency", [-1, float("nan"), float("inf"), "1.5", True, None])
def test_cache_entry_with_bad_latency_treated_as_miss(tmp_path, caplog, latency):
    gateway, transport = _cached_gateway(tmp_path, ["one", "two"])
    prompt = prompt_for("q")
    gateway.cached_complete(prompt)
    path = _cache_path(gateway.config.cache_dir, _cache_key(gateway.config, prompt))
    record = json.loads(path.read_text(encoding="utf-8"))
    record["latency"] = latency
    path.write_text(json.dumps(record), encoding="utf-8")
    with caplog.at_level("WARNING"):
        exchange = gateway.cached_complete(prompt)
    assert (exchange.reply_text, exchange.latency) == ("two", 0.0)
    assert transport.calls == 2
    assert any("corrupt" in record.message for record in caplog.records)


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
    gateway.cached_complete(prompt_for("q1"))
    gateway.cached_complete(prompt_for("q2"))
    count, size = cache_stats(cache_dir)
    assert count == 2
    assert size > 0
    assert clear_cache(cache_dir) == 2
    assert cache_stats(cache_dir) == (0, 0)


def test_provider_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig(temperature=3.0)
    with pytest.raises(ValueError):
        ProviderConfig(max_retries=-1)
    with pytest.raises(ValueError):
        ProviderConfig(parallelism=0)
    for url in ("localhost:9/v1/chat/completions", "ftp://host/chat", "http:///chat",
                "https://", "/v1/chat/completions"):
        with pytest.raises(ValueError, match="http"):
            ProviderConfig(endpoint_url=url)


def test_live_unretryable_request_error_is_provider_unavailable(monkeypatch):
    # no request leaves the process: requests.post itself is replaced
    calls = []

    def refuse(url, **kwargs):
        calls.append(url)
        raise requests.exceptions.InvalidHeader("bad header")

    monkeypatch.setattr(requests, "post", refuse)
    config = ProviderConfig(backoff_base=0.0, requests_per_minute=1e9)
    gateway = Gateway(config, LiveTransport(config))
    with pytest.raises(ProviderUnavailableError, match="bad header"):
        gateway.complete(prompt_for("q"))
    assert len(calls) == 1


def test_chat_exchange_rejects_negative_latency():
    with pytest.raises(ValueError):
        ChatExchange(prompt_for("q"), "r", "m", -1.0, ExchangeSource.LIVE)
