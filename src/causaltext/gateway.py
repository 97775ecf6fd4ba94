"""Provider-agnostic chat-completion client with cache, retry and replay.

Two transports sit behind one :class:`Gateway` front end: a live HTTP
transport speaking the OpenAI-compatible chat-completions shape, and a replay
transport that answers from a recorded fixture (fully offline and
deterministic). The gateway can record every exchange it serves, cache hits
included, into a fixture so the run can be replayed later. The persistent
cache, one SQLite file in the cache directory, is keyed by prompt
fingerprint, model name and temperature, and keeps replayed entries apart
from live ones, so switching models never serves stale verdicts and a
replayed fixture never answers a live run.
"""

from __future__ import annotations

import fcntl
import hashlib
import http.client
import json
import logging
import math
import os
import random
import re
import sqlite3
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Protocol
from urllib.parse import urlsplit

from .errors import (
    AuthError,
    DuplicateFingerprintError,
    FixtureMissError,
    GatewayError,
    MalformedProviderResponseError,
    ProviderUnavailableError,
    RunLockHeldError,
)
from .graph import _encodable, _json_text
from .prompts import RenderedPrompt

log = logging.getLogger(__name__)

RUN_LOCK_NAME = ".runlock"
REQUEST_TIMEOUT_S = 60.0


# refused anywhere in an endpoint: urllib strips some silently, http.client refuses the rest
_CONTROL_OR_SPACE = re.compile(r"[\x00-\x20\x7f-\x9f]")


def _sendable(endpoint: str) -> bool:
    """Whether urllib sends ``endpoint`` as it is, past http.client's checks of its request
    line and ``Host`` header and the socket layer's ``idna`` codec; nothing is sent."""
    if _CONTROL_OR_SPACE.search(endpoint):
        return False
    request = urllib.request.Request(endpoint)  # its host is the netloc, percent-decoded
    try:
        connection = http.client.HTTPConnection(request.host)
        connection.putrequest("POST", request.selector, skip_host=True, skip_accept_encoding=True)
        connection.putheader("Host", request.host)
        connection.host.encode("idna")
    except (http.client.InvalidURL, UnicodeError):
        return False
    return True


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
        if not (math.isfinite(self.requests_per_minute) and self.requests_per_minute > 0):
            raise ValueError("requests_per_minute must be a finite number > 0")
        try:
            url = urlsplit(self.endpoint_url)
            url.port  # a port that is no number in [0, 65535] raises ValueError
            valid = (url.scheme in ("http", "https") and bool(url.hostname)
                     and _sendable(self.endpoint_url))
        except ValueError:
            valid = False
        if not valid:
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
    latency: float
    source: ExchangeSource
    retries: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "latency", _checked_latency(self.latency))


# the largest latency accepted, so every sum and variance of a run's latencies is finite
_LATENCY_CEILING_S = 1e9


def _checked_latency(value: object) -> float:
    """A latency: a number in [0, :data:`_LATENCY_CEILING_S`], else :class:`ValueError`.

    Comparing an int with a float is exact in Python, so NaN, the infinities
    and an int too large for a float are refused here, not raised on later.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 <= value <= _LATENCY_CEILING_S):
        raise ValueError(f"latency must be a number in [0, {_LATENCY_CEILING_S:g}], not {value!r}")
    return float(value)


def _write_atomically(path: Path | str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``<path>.tmp``, then rename it over ``path``.

    A failed or killed write leaves the old file as it was. On any exception
    the scratch file is removed and the exception re-raised.
    """
    scratch = f"{os.fspath(path)}.tmp"
    try:
        with open(scratch, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(scratch, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(scratch)
        raise


@dataclass(frozen=True)
class ReplayEntry:
    reply_text: str
    latency: float = 0.0


@dataclass
class ReplayFixture:
    """A stored fingerprint -> reply mapping for offline runs; a miss is an error."""

    entries: dict[str, ReplayEntry] = field(default_factory=dict)

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
        """Write the fixture atomically; a file error raises :class:`GatewayError`.

        The file is written next to ``path`` as ``<path>.tmp`` and then moved
        over it, so a failed or killed save leaves the old file as it was.
        """
        payload = {
            "entries": {
                fingerprint: {"reply": entry.reply_text, "latency": entry.latency}
                for fingerprint, entry in sorted(self.entries.items())
            },
        }
        try:
            _write_atomically(path, _json_text(payload))
        except OSError as exc:
            raise GatewayError(f"cannot save replay fixture {path}: {exc}") from None

    @classmethod
    def load(cls, path: Path | str) -> "ReplayFixture":
        """Read a saved fixture; a malformed file raises :class:`GatewayError`.

        ``entries`` must map fingerprints to objects whose ``reply`` is a
        string and whose optional ``latency`` passes :func:`_checked_latency`.
        A ``strict`` key, which older fixtures carry, must be ``true``. JSON
        nested too deeply to decode is malformed too.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(payload, dict) or not isinstance(payload.get("entries"), dict):
                raise ValueError("expected an object with an 'entries' object")
            if payload.get("strict", True) is not True:
                raise ValueError(f"'strict' must be true, not {payload['strict']!r}")
            entries = {}
            for fingerprint, record in payload["entries"].items():
                if not isinstance(record, dict) or not isinstance(record.get("reply"), str):
                    raise ValueError(f"entry {fingerprint} needs a string 'reply'")
                latency = _checked_latency(record.get("latency", 0.0))
                entries[fingerprint] = ReplayEntry(record["reply"], latency)
            return cls(entries=entries)
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
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


# what no header value can carry: a line break or NUL, or a character past Latin-1
_UNSENDABLE_KEY = re.compile("[\r\n\0\u0100-\U0010ffff]")


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Follows no redirect, so the key never goes to another host; a 3xx is an error."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class LiveTransport:
    """HTTP chat-completions client with a shared token-bucket limiter.

    The key is read from ``config.api_key_env`` once, when the transport is
    made; a key that no request header can carry raises :class:`GatewayError`,
    whose message does not quote it.
    """

    source = ExchangeSource.LIVE

    def __init__(self, config: ProviderConfig, limiter: TokenBucket | None = None):
        self._config = config
        self._limiter = limiter or TokenBucket(config.requests_per_minute)
        # proxies come from the environment as it is now; HTTPS uses the system trust store
        self._opener = urllib.request.build_opener(_NoRedirect)
        self._headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(config.api_key_env)
        if api_key:
            if _UNSENDABLE_KEY.search(api_key):
                raise GatewayError(
                    f"the key in {config.api_key_env} holds a line break, a NUL or a character"
                    " outside Latin-1, which no request header can carry"
                )
            self._headers["Authorization"] = f"Bearer {api_key}"

    def send(self, prompt: RenderedPrompt) -> tuple[str, float]:
        self._limiter.acquire()
        messages = [{"role": "user", "content": prompt.user_text}]
        if prompt.system_text:
            messages.insert(0, {"role": "system", "content": prompt.system_text})
        payload = {
            "model": self._config.model_name,
            "temperature": self._config.temperature,
            "messages": messages,
        }
        data = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(self._config.endpoint_url, data, self._headers)
        started = time.monotonic()
        try:
            with self._opener.open(request, timeout=REQUEST_TIMEOUT_S) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            status, body = exc.code, b""
        except OSError as exc:  # refused, reset, timed out, TLS, dropped before the reply
            raise _TransientProviderError(str(exc)) from exc
        except ValueError:  # a proxy setting urllib cannot parse
            # not the message: it quotes the proxy URL, a password included
            raise ProviderUnavailableError("request failed: invalid header or URL") from None
        except http.client.HTTPException as exc:  # a truncated body, a garbled status line
            raise ProviderUnavailableError(f"request failed: {exc!r}") from exc
        latency = time.monotonic() - started

        if status in (401, 403):
            raise AuthError(f"provider rejected the credential ({status})")
        if status in (408, 429) or status >= 500:
            raise _TransientProviderError(f"status {status}")
        if status != 200:
            raise ProviderUnavailableError(f"provider answered status {status}; not retryable")
        try:
            reply = json.loads(body)["choices"][0]["message"]["content"]
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
            raise FixtureMissError(f"no fixture entry for fingerprint {prompt.fingerprint}")
        return entry.reply_text, entry.latency


def _key_suffix(config: ProviderConfig) -> str:
    """What a cache key holds after the prompt fingerprint."""
    return f"|{config.model_name}|{config.temperature!r}"


def _cache_key(config: ProviderConfig, prompt: RenderedPrompt) -> str:
    """The cache key of a live query; a replay transport's keys add ``replay|`` in front."""
    return prompt.fingerprint + _key_suffix(config)


def _checksum(text: str) -> str:
    """SHA-256 hex of ``text``: it checks the replies of cache entries."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


STORE_NAME = "cache.sqlite"
# PERSIST zeroes the rollback journal's header at each commit instead of deleting the
# file; OFF never waits for the disk, as no other write of the package does;
# EXCLUSIVE keeps the file lock from the first read until close, so a hit neither
# locks nor revalidates the page cache
_STORE_SETUP = """
PRAGMA locking_mode=EXCLUSIVE;
PRAGMA synchronous=OFF;
PRAGMA journal_mode=PERSIST;
CREATE TABLE IF NOT EXISTS entries(
    key TEXT PRIMARY KEY, reply TEXT NOT NULL, latency REAL NOT NULL, checksum TEXT NOT NULL
) WITHOUT ROWID;
"""
_SELECT = "SELECT reply, latency, checksum FROM entries WHERE key = ?"
_UPSERT = "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)"


def _raise_if_held(exc: Exception, path: str) -> None:
    """Raise :class:`RunLockHeldError` if ``exc`` is SQLite finding ``path`` locked elsewhere."""
    if isinstance(exc, sqlite3.OperationalError) and str(exc).startswith("database is locked"):
        raise RunLockHeldError(f"cache store {path} is in use by another connection") from None


def _connect(path: str) -> sqlite3.Connection:
    db = sqlite3.connect(path, timeout=0, isolation_level=None, check_same_thread=False)
    try:
        db.executescript(_STORE_SETUP)
    except BaseException:
        db.close()
        raise
    return db


def _open_store(cache_dir: str) -> sqlite3.Connection:
    """A connection to ``cache_dir``'s store, made with its table if absent.

    A file SQLite cannot read as a database is moved aside to
    ``cache.sqlite.corrupt``, with its journal, and an empty store takes its
    place. Other failures, a store locked by another connection among them,
    raise :class:`sqlite3.Error` or :class:`OSError`.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, STORE_NAME)
    try:
        return _connect(path)
    except sqlite3.OperationalError:
        raise
    except sqlite3.DatabaseError as exc:
        log.warning("cache store %s is damaged (%s); moved aside to %s.corrupt, "
                    "going on with an empty store", path, exc, path)
        os.replace(path, f"{path}.corrupt")
        with suppress(FileNotFoundError):
            os.replace(f"{path}-journal", f"{path}.corrupt-journal")
        return _connect(path)


class Gateway:
    """Front end combining a transport with retries and the persistent cache.

    With a ``record`` fixture, every exchange :meth:`cached_complete` returns,
    from the cache or the transport, is added to it for a later replay. After
    the first :class:`AuthError` the gateway sends nothing more: every later
    call that would send raises that error instead. The gateway opens its
    cache store the first time it reads an existing store or writes a reply,
    and holds it until :meth:`close`; used as a context manager, it closes on
    exit.
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
        self._cache_dir = os.fspath(config.cache_dir)
        self._store_path = os.path.join(self._cache_dir, STORE_NAME)
        # built once, so a query's key is a concatenation equal to _cache_key
        # (behind "replay|" for a replay transport)
        self._key_prefix = "replay|" if transport.source is ExchangeSource.REPLAY else ""
        self._key_suffix = _key_suffix(config)
        # key -> [lock, callers holding or awaiting it]; only keys with a miss in flight
        self._key_locks: dict[str, list] = {}
        self._locks_guard = threading.Lock()
        # the store connection, shared by every thread under _store_lock
        self._db: sqlite3.Connection | None = None
        self._store_lock = threading.Lock()
        self._auth_error: AuthError | None = None

    @property
    def config(self) -> ProviderConfig:
        return self._config

    def close(self) -> None:
        """Close the cache store, releasing its lock; a later query opens it again."""
        with self._store_lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def complete(self, prompt: RenderedPrompt) -> ChatExchange:
        """Send the prompt, retrying transient failures with jittered backoff.

        Total attempts never exceed ``max_retries + 1``; credential failures
        are never retried. Exhausted retries raise
        :class:`ProviderUnavailableError`. A reply that cannot be encoded as
        UTF-8 (one holding a lone surrogate) could be neither cached nor
        recorded, so it raises :class:`MalformedProviderResponseError`.
        """
        retries = 0
        while True:
            if self._auth_error is not None:
                raise AuthError(str(self._auth_error))
            try:
                reply, latency = self._transport.send(prompt)
                if not _encodable(reply):
                    raise MalformedProviderResponseError(
                        "reply is not valid Unicode text (it holds a lone surrogate)"
                    )
                return ChatExchange(
                    prompt=prompt,
                    reply_text=reply,
                    latency=latency,
                    source=self._transport.source,
                    retries=retries,
                )
            except AuthError as exc:
                self._auth_error = exc
                raise
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

        The cache key includes model name and temperature, and a replay
        transport's keys carry a ``replay|`` prefix, so a fixture's reply
        never answers a live run. A row that cannot be read, or is corrupt (a
        reply that is no text, a checksum mismatch or a bad latency), is
        logged and treated as a miss, and the refetched reply replaces it. A
        store held by another connection raises :class:`RunLockHeldError`
        rather than paying for a reply again. Each write commits on its own,
        and writes are serialized per key, so concurrent callers of the same
        prompt trigger at most one provider call; a key's lock is dropped
        once no caller holds or awaits it. An empty completion, or one whose
        cache write fails (logged), is returned and recorded but not cached,
        so a later run asks again.
        """
        key = self._key_prefix + prompt.fingerprint + self._key_suffix
        exchange = self._read_cache_entry(key, prompt)
        if exchange is None:
            with self._key_lock(key):
                exchange = self._read_cache_entry(key, prompt)
                if exchange is None:
                    exchange = self.complete(prompt)
                    if exchange.reply_text:
                        self._write_cache_entry(key, exchange)
        if self._record is not None:
            with self._locks_guard:
                self._record.add(exchange)
        return exchange

    @contextmanager
    def _key_lock(self, key: str) -> Iterator[None]:
        """Hold ``key``'s lock; its table entry lives while a caller holds or awaits it."""
        with self._locks_guard:
            entry = self._key_locks.setdefault(key, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._locks_guard:
                entry[1] -= 1
                if not entry[1]:
                    del self._key_locks[key]

    def _store(self, create: bool) -> sqlite3.Connection | None:
        """The store connection, opened on first use; None while no store exists to read.

        The caller holds ``_store_lock``.
        """
        if self._db is None and (create or os.path.exists(self._store_path)):
            self._db = _open_store(self._cache_dir)
        return self._db

    def _read_cache_entry(self, key: str, prompt: RenderedPrompt) -> ChatExchange | None:
        try:
            with self._store_lock:
                db = self._db or self._store(create=False)
                row = db.execute(_SELECT, (key,)).fetchone() if db else None
            if row is None:
                return None
            reply, latency, checksum = row
            if not isinstance(reply, str) or checksum != _checksum(reply):
                raise ValueError("the reply is no text or fails its checksum")
            return ChatExchange(prompt, reply, latency, ExchangeSource.CACHE)
        except (sqlite3.Error, OSError, ValueError) as exc:
            _raise_if_held(exc, self._store_path)
            log.warning("cache entry %s in %s unreadable or corrupt (%s); treating as miss",
                        key, self._store_path, exc)
            return None

    def _write_cache_entry(self, key: str, exchange: ChatExchange) -> None:
        reply = exchange.reply_text
        try:
            with self._store_lock:
                self._store(create=True).execute(
                    _UPSERT, (key, reply, exchange.latency, _checksum(reply)))
        except (sqlite3.Error, OSError) as exc:
            _raise_if_held(exc, self._store_path)
            log.warning("cache entry %s not written to %s (%s); a later run asks again",
                        key, self._store_path, exc)


@contextmanager
def run_lock(cache_dir: Path | str) -> Iterator[None]:
    """Hold the cache-directory run lock for the duration of a batch run.

    The lock is an ``flock`` on ``.runlock``, so the OS releases it when the
    holder exits, however it exits. The file is never unlinked: a run that
    reopened a fresh file could lock a different inode than its peers. A
    directory or lock file that cannot be made or opened (say, the cache
    directory names a regular file) raises :class:`GatewayError`; a lock held
    elsewhere raises :class:`RunLockHeldError`.
    """
    lock_path = Path(cache_dir) / RUN_LOCK_NAME
    try:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(lock_path, "a")
    except OSError as exc:
        raise GatewayError(f"cannot open run lock {lock_path}: {exc}") from None
    with handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RunLockHeldError(f"{lock_path} is in use by another run") from None
        yield


def _existing_cache_dir(cache_dir: Path | str) -> Path | None:
    """``cache_dir`` as a path, or None when nothing is there yet.

    A path that exists but is no directory raises :class:`GatewayError`.
    """
    cache_dir = Path(cache_dir)
    if cache_dir.is_dir():
        return cache_dir
    if cache_dir.exists():
        raise GatewayError(f"cache directory {cache_dir} is not a directory")
    return None


# the store and its journal, then a damaged store moved aside and its journal
_CACHE_FILES = (STORE_NAME, f"{STORE_NAME}-journal",
                f"{STORE_NAME}.corrupt", f"{STORE_NAME}.corrupt-journal")


def _store_rows(cache_dir: Path) -> int:
    """The rows of ``cache_dir``'s store, 0 when it has none; the caller holds the run lock."""
    path = os.path.join(cache_dir, STORE_NAME)
    if not os.path.exists(path):
        return 0
    try:
        db = _open_store(os.fspath(cache_dir))
        try:
            return db.execute("SELECT count(*) FROM entries").fetchone()[0]
        finally:
            db.close()
    except (sqlite3.Error, OSError) as exc:
        _raise_if_held(exc, path)
        raise GatewayError(f"cannot read cache store {path}: {exc}") from None


def cache_stats(cache_dir: Path | str) -> tuple[int, int]:
    """(rows, bytes of the store and its journal) under the run lock; (0, 0) if absent."""
    cache_dir = _existing_cache_dir(cache_dir)
    if cache_dir is None:
        return 0, 0
    with run_lock(cache_dir):
        rows = _store_rows(cache_dir)
        store = (cache_dir / STORE_NAME, cache_dir / f"{STORE_NAME}-journal")
        return rows, sum(p.stat().st_size for p in store if p.is_file())


def clear_cache(cache_dir: Path | str) -> int:
    """Remove the store under the run lock; refused while a run holds it.

    Returns the rows removed. The journal and a damaged store moved aside go
    too, each only if it is a regular file. Other files are kept. An absent
    directory has nothing to remove.
    """
    cache_dir = _existing_cache_dir(cache_dir)
    if cache_dir is None:
        return 0
    with run_lock(cache_dir):
        removed = _store_rows(cache_dir)
        for path in (cache_dir / name for name in _CACHE_FILES):
            if path.is_file():
                try:
                    path.unlink()
                except OSError as exc:
                    raise GatewayError(f"cannot remove {path}: {exc.strerror}") from exc
    return removed
