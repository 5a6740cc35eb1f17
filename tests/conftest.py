from __future__ import annotations

import http.server
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from fallacylab.engine import Clause, Struct
from fallacylab.parser import flat_args, parse_statements

DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class ParsedClause:
    """One clause plus its trailing comment, fact-block ordinal and first
    line, as ``parse_statements`` yields them."""

    clause: Clause
    comment: str | None
    group_id: int | None
    line: int


def parse_program(text: str | list[str]) -> list[ParsedClause]:
    """Every clause of the text, or of its blocks, a flat fact line built
    into its ``Clause`` by ``flat_args``, with one constant per spelling
    across the call."""
    consts: dict = {}
    return [
        ParsedClause(
            Clause(Struct(item[0][0], flat_args(item[1], consts))) if type(item) is tuple else item,
            comment,
            group,
            line,
        )
        for item, comment, group, line in parse_statements(text)
    ]


class FakeProvider:
    """Returns scripted responses in call order; records every request."""

    def __init__(self, responses, model_name: str = "fake"):
        self.responses = list(responses)
        self.model_name = model_name
        self.request_count = 0
        self.calls: list[tuple[str, float]] = []

    def complete(self, prompt: str, *, temperature: float) -> str:
        self.calls.append((prompt, temperature))
        self.request_count += 1
        if not self.responses:
            raise AssertionError("FakeProvider ran out of scripted responses")
        return self.responses.pop(0)


class CountingRows(list):
    """A predicate's row list that counts each row it hands out, by index or
    by iteration, in ``reads[0]``; lists of one count share ``reads``."""

    def __init__(self, rows, reads: list[int]):
        super().__init__(rows)
        self.reads = reads

    def __getitem__(self, position):
        self.reads[0] += 1
        return super().__getitem__(position)

    def __iter__(self):
        for row in super().__iter__():
            self.reads[0] += 1
            yield row


#: The environment variables that route a request through a proxy.
PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy",
              "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY")


class ChatServer(http.server.ThreadingHTTPServer):
    """A loopback chat-completions endpoint speaking HTTP/1.1 keep-alive.

    Each POST is answered ``reply``, unless ``script`` holds a ``(status,
    headers)`` to send first.  ``close_after_reply`` shuts each connection
    after its first reply without saying so, as a server dropping an idle
    connection does; ``chunked`` sends each body in several chunks.  It
    counts the connections opened and closed and keeps each request's
    prompt and arrival time."""

    daemon_threads = True
    block_on_close = False

    def __init__(self, reply: str = "3"):
        self.reply = reply
        self.script: list[tuple[int, dict[str, str]]] = []
        self.close_after_reply = False
        self.chunked = False
        self.lock = threading.Lock()
        self.opened = 0
        self.closed = 0
        self.arrivals: list[tuple[float, str]] = []
        super().__init__(("127.0.0.1", 0), _ChatHandler)

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.opened += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self):
        server = self.server
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.arrivals.append((time.monotonic(), request["messages"][0]["content"]))
            status, headers = server.script.pop(0) if server.script else (200, {})
        body = json.dumps({"choices": [{"message": {"content": server.reply}}]}).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        if server.chunked:
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for start in range(0, len(body), 1000):
                piece = body[start:start + 1000]
                self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
            self.wfile.write(b"0\r\n\r\n")
        else:
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        if server.close_after_reply:
            self.close_connection = True

    def log_message(self, format, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    """A running :class:`ChatServer`, with no proxy in the environment."""
    for name in PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def fake_provider_factory():
    return FakeProvider


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
