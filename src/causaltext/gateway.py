"""Provider-agnostic chat-completion client with cache, retry and replay.

Two transports sit behind one :class:`Gateway` front end: a live HTTP
transport speaking the OpenAI-compatible chat-completions shape, and a replay
transport that answers from a recorded fixture (fully offline and
deterministic). The gateway can record every exchange it serves, cache hits
included, into a fixture so the run can be replayed later. The persistent
cache is keyed by prompt fingerprint, model name and temperature, so
switching models never serves stale verdicts.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import math
import os
import random
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Protocol
from urllib.parse import urlsplit

import requests

from .errors import (
    AuthError,
    DuplicateFingerprintError,
    FixtureMissError,
    GatewayError,
    MalformedProviderResponseError,
    ProviderUnavailableError,
    RunLockHeldError,
)
from .prompts import RenderedPrompt

log = logging.getLogger(__name__)

RUN_LOCK_NAME = ".runlock"


@dataclass(frozen=True)
class ProviderConfig:
    """Connection and behaviour knobs for the chat-completion provider.

    The credential is read from the environment variable named by
    ``api_key_env``. Temperature defaults to 0 for reproducibility.
    """

    endpoint_url: str = "https://api.openai.com/v1/chat/completions"
    model_name: str = "gpt-4-turbo"
    temperature: float = 0.0
    max_retries: int = 3
    request_timeout: float = 60.0
    parallelism: int = 1
    cache_dir: Path = Path(".causaltext_cache")
    api_key_env: str = "OPENAI_API_KEY"
    requests_per_minute: float = 30.0
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be within [0, 2]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be positive")
        url = urlsplit(self.endpoint_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {self.endpoint_url!r} is not an http(s) URL")
        object.__setattr__(self, "cache_dir", Path(self.cache_dir))


class ExchangeSource(Enum):
    LIVE = "live"
    CACHE = "cache"
    REPLAY = "replay"


@dataclass(frozen=True)
class ChatExchange:
    """One rendered prompt plus the provider's raw reply."""

    prompt: RenderedPrompt
    reply_text: str
    model_name: str
    latency: float
    source: ExchangeSource
    retries: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")


def _checked_latency(value: object) -> float:
    """A stored latency: a finite number >= 0, else :class:`ValueError`."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and value >= 0):
        raise ValueError(f"latency must be a finite number >= 0, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class ReplayEntry:
    reply_text: str
    latency: float = 0.0


@dataclass
class ReplayFixture:
    """A stored fingerprint -> reply mapping for offline runs.

    In strict mode an unknown fingerprint is an error; otherwise it yields an
    empty reply, which downstream parsing records as unparsable.
    """

    entries: dict[str, ReplayEntry] = field(default_factory=dict)
    strict: bool = True

    def add(self, exchange: ChatExchange) -> None:
        """Keep the exchange's reply and latency under its prompt fingerprint.

        Identical duplicates collapse; a fingerprint recorded with two
        different replies is a contradiction and raises
        :class:`DuplicateFingerprintError`.
        """
        fingerprint = exchange.prompt.fingerprint
        existing = self.entries.get(fingerprint)
        if existing is None:
            self.entries[fingerprint] = ReplayEntry(exchange.reply_text, exchange.latency)
        elif existing.reply_text != exchange.reply_text:
            raise DuplicateFingerprintError(
                f"fingerprint {fingerprint} recorded with two different replies"
            )

    def save(self, path: Path | str) -> None:
        payload = {
            "strict": self.strict,
            "entries": {
                fingerprint: {"reply": entry.reply_text, "latency": entry.latency}
                for fingerprint, entry in sorted(self.entries.items())
            },
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: Path | str) -> "ReplayFixture":
        """Read a saved fixture; a malformed file raises :class:`GatewayError`.

        ``entries`` must map fingerprints to objects whose ``reply`` is a
        string and whose optional ``latency`` is a finite number >= 0; the
        optional ``strict`` is a boolean.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(payload, dict) or not isinstance(payload.get("entries"), dict):
                raise ValueError("expected an object with an 'entries' object")
            strict = payload.get("strict", True)
            if not isinstance(strict, bool):
                raise ValueError(f"'strict' must be a boolean, not {strict!r}")
            entries = {}
            for fingerprint, record in payload["entries"].items():
                if not isinstance(record, dict) or not isinstance(record.get("reply"), str):
                    raise ValueError(f"entry {fingerprint} needs a string 'reply'")
                latency = _checked_latency(record.get("latency", 0.0))
                entries[fingerprint] = ReplayEntry(record["reply"], latency)
            return cls(entries=entries, strict=strict)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise GatewayError(f"cannot load replay fixture {path}: {exc}") from None


class _TransientProviderError(Exception):
    """Internal marker for failures worth retrying."""


class TokenBucket:
    """Shared request budget: ``rate_per_minute`` tokens, refilled steadily."""

    def __init__(
        self,
        rate_per_minute: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._rate = rate_per_minute / 60.0
        self._capacity = max(1.0, rate_per_minute / 60.0)
        self._tokens = self._capacity
        self._clock = clock
        self._sleep = sleep
        self._updated = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(
                    self._capacity, self._tokens + (now - self._updated) * self._rate
                )
                self._updated = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._rate
            self._sleep(wait)


class Transport(Protocol):
    source: ExchangeSource

    def send(self, prompt: RenderedPrompt) -> tuple[str, float]:
        """Return (reply_text, latency_seconds) for the prompt."""


class LiveTransport:
    """HTTP chat-completions client with a shared token-bucket limiter."""

    source = ExchangeSource.LIVE

    def __init__(self, config: ProviderConfig, limiter: TokenBucket | None = None):
        self._config = config
        self._limiter = limiter or TokenBucket(config.requests_per_minute)

    def _messages(self, prompt: RenderedPrompt) -> list[dict[str, str]]:
        messages = []
        if prompt.system_text:
            messages.append({"role": "system", "content": prompt.system_text})
        messages.append({"role": "user", "content": prompt.user_text})
        return messages

    def send(self, prompt: RenderedPrompt) -> tuple[str, float]:
        self._limiter.acquire()
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self._config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self._config.model_name,
            "temperature": self._config.temperature,
            "messages": self._messages(prompt),
        }
        started = time.monotonic()
        try:
            response = requests.post(
                self._config.endpoint_url,
                json=payload,
                headers=headers,
                timeout=self._config.request_timeout,
            )
        except (requests.Timeout, requests.ConnectionError) as exc:
            raise _TransientProviderError(str(exc)) from exc
        except requests.RequestException as exc:
            raise ProviderUnavailableError(f"request failed: {exc}") from exc
        latency = time.monotonic() - started

        if response.status_code in (401, 403):
            raise AuthError(f"provider rejected the credential ({response.status_code})")
        if response.status_code in (408, 429) or response.status_code >= 500:
            raise _TransientProviderError(f"status {response.status_code}")
        if response.status_code != 200:
            raise ProviderUnavailableError(
                f"provider answered status {response.status_code}; not retryable"
            )
        try:
            body = response.json()
            reply = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedProviderResponseError(
                f"cannot read completion from response: {exc}"
            ) from None
        if not isinstance(reply, str):
            raise MalformedProviderResponseError("completion content is not text")
        return reply, latency


class ReplayTransport:
    """Answers prompts from a fixture; performs no network activity."""

    source = ExchangeSource.REPLAY

    def __init__(self, fixture: ReplayFixture):
        self._fixture = fixture

    def send(self, prompt: RenderedPrompt) -> tuple[str, float]:
        entry = self._fixture.entries.get(prompt.fingerprint)
        if entry is None:
            if self._fixture.strict:
                raise FixtureMissError(
                    f"no fixture entry for fingerprint {prompt.fingerprint}"
                )
            log.warning("replay miss for fingerprint %s", prompt.fingerprint)
            return "", 0.0
        return entry.reply_text, entry.latency


def _cache_key(config: ProviderConfig, prompt: RenderedPrompt) -> str:
    return f"{prompt.fingerprint}|{config.model_name}|{config.temperature!r}"


def _cache_path(cache_dir: Path, key: str) -> Path:
    name = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return cache_dir / f"{name}.json"


def _checksum(reply_text: str) -> str:
    return hashlib.sha256(reply_text.encode("utf-8")).hexdigest()


class Gateway:
    """Front end combining a transport with retries and the persistent cache.

    With a ``record`` fixture, every exchange :meth:`cached_complete` returns,
    from the cache or the transport, is added to it for a later replay.
    """

    def __init__(
        self,
        config: ProviderConfig,
        transport: Transport,
        record: ReplayFixture | None = None,
    ):
        self._config = config
        self._transport = transport
        self._record = record
        self._key_locks: defaultdict[str, threading.Lock] = defaultdict(threading.Lock)
        self._locks_guard = threading.Lock()

    @property
    def config(self) -> ProviderConfig:
        return self._config

    def complete(self, prompt: RenderedPrompt) -> ChatExchange:
        """Send the prompt, retrying transient failures with jittered backoff.

        Total attempts never exceed ``max_retries + 1``; credential failures
        are never retried. Exhausted retries raise
        :class:`ProviderUnavailableError`.
        """
        retries = 0
        while True:
            try:
                reply, latency = self._transport.send(prompt)
                return ChatExchange(
                    prompt=prompt,
                    reply_text=reply,
                    model_name=self._config.model_name,
                    latency=latency,
                    source=self._transport.source,
                    retries=retries,
                )
            except _TransientProviderError as exc:
                retries += 1
                if retries > self._config.max_retries:
                    raise ProviderUnavailableError(
                        f"gave up after {retries} attempts: {exc}"
                    ) from exc
                delay = random.uniform(
                    0, self._config.backoff_base * (2 ** (retries - 1))
                )
                time.sleep(min(delay, 30.0))

    def cached_complete(self, prompt: RenderedPrompt) -> ChatExchange:
        """Serve from the persistent cache, calling the provider only on miss.

        The cache key includes model name and temperature. A corrupt entry
        (bad JSON or checksum mismatch) is logged and treated as a miss.
        Writes are atomic and serialized per key, so concurrent callers of
        the same prompt trigger at most one provider call.
        """
        key = _cache_key(self._config, prompt)
        path = _cache_path(self._config.cache_dir, key)
        exchange = self._read_cache_entry(path, key, prompt)
        if exchange is None:
            with self._locks_guard:
                lock = self._key_locks[key]
            with lock:
                exchange = self._read_cache_entry(path, key, prompt)
                if exchange is None:
                    exchange = self.complete(prompt)
                    self._write_cache_entry(path, key, exchange)
        if self._record is not None:
            with self._locks_guard:
                self._record.add(exchange)
        return exchange

    def _read_cache_entry(
        self, path: Path, key: str, prompt: RenderedPrompt
    ) -> ChatExchange | None:
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.warning("cache entry %s unreadable (%s); treating as miss", path, exc)
            return None
        try:
            record = json.loads(raw)
            reply = record["reply_text"]
            if record["key"] != key or record["checksum"] != _checksum(reply):
                raise ValueError("checksum or key mismatch")
            latency = _checked_latency(record["latency"])
        except (ValueError, KeyError, TypeError):
            log.warning("cache entry %s corrupt; treating as miss", path)
            return None
        return ChatExchange(
            prompt=prompt,
            reply_text=reply,
            model_name=self._config.model_name,
            latency=latency,
            source=ExchangeSource.CACHE,
        )

    def _write_cache_entry(self, path: Path, key: str, exchange: ChatExchange) -> None:
        record = {
            "key": key,
            "fingerprint": exchange.prompt.fingerprint,
            "model_name": exchange.model_name,
            "temperature": self._config.temperature,
            "reply_text": exchange.reply_text,
            "latency": exchange.latency,
            "checksum": _checksum(exchange.reply_text),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = path.with_suffix(".tmp")
        scratch.write_text(
            json.dumps(record, indent=2, ensure_ascii=False), encoding="utf-8"
        )
        os.replace(scratch, path)


@contextmanager
def run_lock(cache_dir: Path | str) -> Iterator[None]:
    """Hold the cache-directory run lock for the duration of a batch run.

    The lock is an ``flock`` on ``.runlock``, so the OS releases it when the
    holder exits, however it exits. The file is never unlinked: a run that
    reopened a fresh file could lock a different inode than its peers.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    lock_path = cache_dir / RUN_LOCK_NAME
    with open(lock_path, "a") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RunLockHeldError(f"{lock_path} is in use by another run") from None
        yield


def cache_stats(cache_dir: Path | str) -> tuple[int, int]:
    """Return (entry_count, total_bytes) for the cache directory."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return 0, 0
    entries = [p for p in cache_dir.glob("*.json") if p.is_file()]
    return len(entries), sum(p.stat().st_size for p in entries)


def clear_cache(cache_dir: Path | str) -> int:
    """Remove every cache entry under the run lock; refused while a run holds it."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return 0
    removed = 0
    with run_lock(cache_dir):
        for path in cache_dir.glob("*.json"):
            path.unlink()
            removed += 1
    return removed
