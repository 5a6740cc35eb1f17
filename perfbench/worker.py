"""A fresh worker process that runs ``fallacylab`` commands in-process.

It imports ``fallacylab.cli`` (from ``PYTHONPATH``), reports that it is ready,
then reads one JSON request per line on stdin and answers one JSON line on
stdout:

* ``{"op": "run", "argv": [...]}`` calls the click entry point exactly as the
  ``fallacylab`` script does and answers the exit code, the seconds from call
  to return, and the captured stdout and stderr;
* ``{"op": "collect", "dump": path}`` (traced workers) answers the span
  summary since the last collect, writes the spans to ``path`` and clears
  them;
* ``{"op": "rss"}`` answers the peak resident set size;
* ``{"op": "quit"}`` or end of input exits.

Before the first command and after every command, the worker times a fixed
piece of interpreter work (the calibration) and sends it with the command's
result, so that the caller can scale CPU-bound times to a reference host
speed.  ``--probe`` exits right after ready, to time start-up alone.
``--trace`` wraps the layer boundaries with the span recorder first.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


class _CurrentStderr:
    """Log to whatever ``sys.stderr`` is when the record is emitted."""

    def write(self, text: str) -> None:
        sys.stderr.write(text)

    def flush(self) -> None:
        sys.stderr.flush()


def _calibration_round() -> float:
    # Without the collector, the round's time does not depend on the heap
    # the commands left behind, only on the host.
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        pairs = []
        for i in range(60_000):
            key = i % 251
            table[key] = table.get(key, 0) + i
            if i % 7 == 0:
                pairs.append((key, i))
        pairs.sort()
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of interpreter work
    (median of five rounds).

    Run next to every command, it tracks how fast the host runs Python at
    that moment, so that command times can be scaled to a reference speed.
    """
    return statistics.median(_calibration_round() for _ in range(5))


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ``VmHWM`` starts afresh at exec, whereas ``ru_maxrss`` can carry the
    resident size the parent had when it forked this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_command(main, argv: list[str], before: float) -> dict:
    """Run one command; ``before`` is the calibration taken just before it."""
    out, err = io.StringIO(), io.StringIO()
    code: object = 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main.main(args=argv, prog_name="fallacylab")
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception:  # noqa: BLE001 - a crash is reported as a failed command
        code = "crash"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    after = calibrate()
    return {"code": code, "elapsed_s": elapsed, "calibration_s": (before + after) / 2, "after": after,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    channel = sys.stdout

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    import fallacylab
    import fallacylab.cli as cli

    send({"ready": True, "module": fallacylab.__file__})
    if args.probe:
        return

    calibration = calibrate()
    logging.basicConfig(stream=_CurrentStderr(), format="%(levelname)s %(name)s: %(message)s")
    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)

    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "run":
            result = run_command(cli.main, request["argv"], calibration)
            calibration = result.pop("after")
            send(result)
        elif op == "collect":
            summary = recorder.summary()
            recorder.dump(Path(request["dump"]))
            recorder.clear()
            send(summary)
        elif op == "rss":
            send({"peak_rss_mb": peak_rss_mb()})
        elif op == "quit":
            break
        else:
            send({"error": f"unknown op {op!r}"})


if __name__ == "__main__":
    main()
