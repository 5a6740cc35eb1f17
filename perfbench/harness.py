"""Process handling: fresh workers, the emulator, and start-up timing."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Proxy settings must not route loopback requests anywhere else.
_PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY")


def worker_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _PROXY_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


class _Child:
    """A child process spoken to in JSON lines over its stdin and stdout.

    ``goodbye`` is the line that asks it to exit.
    """

    goodbye = ""

    def __init__(self, argv: list[str], cwd: Path, env: dict[str, str]):
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=cwd, env=env, text=True, bufsize=1)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.send(self.goodbye)
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Worker(_Child):
    """A fresh ``perfbench/worker.py`` with the checkout's ``src`` importable.

    ``startup_s`` is the time from spawning it until it has imported the CLI.
    """

    goodbye = json.dumps({"op": "quit"})

    def __init__(self, src: Path, cwd: Path, *flags: str):
        start = time.perf_counter()
        super().__init__([sys.executable, str(HERE / "worker.py"), *flags], cwd, worker_env(src))
        try:
            ready = self.recv()
            self.startup_s = time.perf_counter() - start
            if not Path(ready["module"]).resolve().is_relative_to(src.resolve()):
                raise RuntimeError(f"fallacylab imported from {ready['module']}, not from {src}")
        except BaseException:
            self.close()
            raise

    def call(self, **request) -> dict:
        self.send(json.dumps(request))
        return self.recv()

    def run(self, *argv: str) -> dict:
        return self.call(op="run", argv=list(argv))


def startup_probes(src: Path, cwd: Path, probes: int) -> list[Worker]:
    """``probes`` fresh workers that exit once started, after one unmeasured
    start that fills the bytecode caches of a fresh checkout."""
    started = []
    for i in range(probes + 1):
        with Worker(src, cwd, "--probe") as probe:
            if i:
                started.append(probe)
    return started


class Emulator(_Child):
    """The loopback chat-completions emulator in its own process."""

    goodbye = "quit"

    def __init__(self, cwd: Path):
        super().__init__([sys.executable, str(HERE / "emulator.py")], cwd, dict(os.environ))
        try:
            self.port = self.recv()["port"]
        except BaseException:
            self.close()
            raise

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def reset(self) -> None:
        self.send("reset")

    def stats(self) -> dict:
        self.send("stats")
        return self.recv()
