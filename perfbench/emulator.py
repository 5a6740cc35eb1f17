"""Loopback chat-completions emulator: one process, one thread, one event loop.

Answers ``POST /v1/chat/completions`` after a fixed delay (``DELAY_S``, 20 ms)
with a reply derived from the prompt (see :mod:`replies`).  It binds
127.0.0.1 on a free port and prints ``{"port": N}``.  On stdin it takes
``stats`` (print the counters as one JSON line), ``reset`` (zero them) and
``quit``; end of input also quits.

Counters: requests answered, the most requests in flight at once, malformed
requests (bad path, method or body) and refused ones (a prompt it has no
reply for).  Both of the last two are failures for the benchmark.

    python3 perfbench/emulator.py
"""
from __future__ import annotations

import asyncio
import json
import sys

import replies

PATH = "/v1/chat/completions"
DELAY_S = 0.020


class Emulator:
    def __init__(self):
        self.writers: set[asyncio.StreamWriter] = set()
        self.in_flight = 0
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.max_in_flight = self.in_flight
        self.malformed = 0
        self.refused = 0

    def stats(self) -> dict:
        return {"requests": self.requests, "max_in_flight": self.max_in_flight,
                "malformed": self.malformed, "refused": self.refused}

    async def answer(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            await asyncio.sleep(DELAY_S)
            self.requests += 1
            prompt = _prompt(method, path, body)
            if prompt is None:
                self.malformed += 1
                return 400, {"error": "malformed request"}
            text = replies.reply(prompt)
            if text is None:
                self.refused += 1
                return 422, {"error": "no reply for this prompt"}
            return 200, {"object": "chat.completion",
                         "choices": [{"index": 0, "finish_reason": "stop",
                                      "message": {"role": "assistant", "content": text}}]}
        finally:
            self.in_flight -= 1

    async def serve_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.writers.add(writer)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError):
                    return
                lines = head.decode("latin-1").split("\r\n")
                parts = lines[0].split(" ")
                headers = {}
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    if name:
                        headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0"))
                    body = await reader.readexactly(length)
                except (ValueError, asyncio.IncompleteReadError, ConnectionError):
                    self.malformed += 1
                    return
                method, path = (parts[0], parts[1]) if len(parts) >= 2 else ("", "")
                status, payload = await self.answer(method, path, body)
                data = json.dumps(payload).encode("utf-8")
                writer.write(
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n".encode("latin-1")
                    + data
                )
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    return
        finally:
            self.writers.discard(writer)
            writer.close()


def _prompt(method: str, path: str, body: bytes) -> str | None:
    if method != "POST" or path != PATH:
        return None
    try:
        payload = json.loads(body)
        content = payload["messages"][-1]["content"]
    except (ValueError, KeyError, IndexError, TypeError):
        return None
    if not isinstance(content, str) or not isinstance(payload.get("model"), str):
        return None
    if not isinstance(payload.get("temperature"), (int, float)):
        return None
    return content


async def main() -> None:
    emulator = Emulator()
    server = await asyncio.start_server(emulator.serve_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(json.dumps({"port": port}), flush=True)

    loop = asyncio.get_running_loop()
    control = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(control), sys.stdin)
    while True:
        line = (await control.readline()).decode().strip()
        if line == "stats":
            print(json.dumps(emulator.stats()), flush=True)
        elif line == "reset":
            emulator.reset()
        elif line in ("quit", ""):
            break
    server.close()
    for writer in list(emulator.writers):
        writer.close()


if __name__ == "__main__":
    asyncio.run(main())
