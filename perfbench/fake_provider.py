"""Loopback fake chat-completions provider, run as its own process.

    python3 perfbench/fake_provider.py SCRIPT.json

It binds 127.0.0.1 on a free port, prints ``PORT <n>`` on its first stdout
line and serves until terminated. SCRIPT.json maps each prompt fingerprint
(sha256 of system text, 0x1f, user text) to ``[reply, delay_s, faults,
fault_delay_s]``: the first ``faults`` attempts of every ``faults + 1`` for
that prompt get a transient 429 or 503 after ``fault_delay_s``, the next one
gets the reply after ``delay_s``. Requests that are not well-formed chat
completions are refused with 400 and counted; ``GET /stats`` returns the
counters. It speaks HTTP/1.1, so a client may keep connections open.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PATH = "/v1/chat/completions"


def fingerprint(system_text: str, user_text: str) -> str:
    digest = hashlib.sha256()
    digest.update(system_text.encode("utf-8"))
    digest.update(b"\x1f")
    digest.update(user_text.encode("utf-8"))
    return digest.hexdigest()


def read_messages(body: object) -> tuple[str, str]:
    """Return (system_text, user_text) or raise ValueError if malformed."""
    if not isinstance(body, dict) or set(body) != {"model", "temperature", "messages"}:
        raise ValueError("body must hold exactly model, temperature and messages")
    if not isinstance(body["model"], str) or not body["model"]:
        raise ValueError("model must be a non-empty string")
    temperature = body["temperature"]
    if isinstance(temperature, bool) or not isinstance(temperature, (int, float)):
        raise ValueError("temperature must be a number")
    if not 0 <= temperature <= 2:
        raise ValueError("temperature out of range")
    messages = body["messages"]
    if not isinstance(messages, list) or not 1 <= len(messages) <= 2:
        raise ValueError("messages must be a list of one or two messages")
    for message in messages:
        if (not isinstance(message, dict) or set(message) != {"role", "content"}
                or not isinstance(message["content"], str)):
            raise ValueError("each message needs a role and text content")
    roles = [m["role"] for m in messages]
    if roles not in (["user"], ["system", "user"]):
        raise ValueError(f"unexpected roles {roles}")
    system_text = messages[0]["content"] if len(messages) == 2 else ""
    if len(messages) == 2 and not system_text:
        raise ValueError("an empty system message must be omitted")
    return system_text, messages[-1]["content"]


class Provider:
    def __init__(self, script: dict[str, list]):
        self.script = script
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.stats = {"requests": 0, "replies": 0, "faults": 0, "rejected": 0, "unknown": 0}

    def count(self, key: str) -> None:
        with self.lock:
            self.stats[key] += 1

    def next_attempt(self, fp: str) -> int:
        with self.lock:
            attempt = self.attempts.get(fp, 0)
            self.attempts[fp] = attempt + 1
            return attempt


def make_handler(provider: Provider):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                with provider.lock:
                    self._send(200, dict(provider.stats))
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            provider.count("requests")
            try:
                length = int(self.headers.get("Content-Length", ""))
                raw = self.rfile.read(length)
                if self.path != PATH:
                    raise ValueError(f"unexpected path {self.path}")
                if self.headers.get("Content-Type", "").split(";")[0] != "application/json":
                    raise ValueError("content type must be application/json")
                system_text, user_text = read_messages(json.loads(raw))
            except ValueError as exc:
                provider.count("rejected")
                self._send(400, {"error": str(exc)})
                return
            fp = fingerprint(system_text, user_text)
            entry = provider.script.get(fp)
            if entry is None:
                provider.count("unknown")
                self._send(404, {"error": f"no scripted reply for {fp}"})
                return
            reply, delay, faults, fault_delay = entry
            attempt = provider.next_attempt(fp)
            if attempt % (faults + 1) < faults:
                provider.count("faults")
                time.sleep(fault_delay)
                status = 429 if attempt % 2 == 0 else 503
                self._send(status, {"error": "transient"})
                return
            time.sleep(delay)
            provider.count("replies")
            self._send(200, {
                "object": "chat.completion",
                "model": "fake",
                "choices": [{
                    "index": 0,
                    "message": {"role": "assistant", "content": reply},
                    "finish_reason": "stop",
                }],
            })

    return Handler


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: fake_provider.py SCRIPT.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        script = json.load(handle)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Provider(script)))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
