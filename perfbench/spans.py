"""Span recorder for the traced run, and the wrappers that feed it.

``install`` wraps the program's public functions at the module attributes
where their callers look them up (``fallacylab.schemas.findall``,
``fallacylab.cli.derive_instances``, ...), plus ``KnowledgeBase.clauses``,
``KnowledgeBase.fact_args`` and the providers' ``complete``.  Nothing in the
program changes; the wrappers only exist in a traced worker.

A span is (name, start, end, parent).  Spans stay in memory until
``summary`` aggregates them and ``dump`` writes them out.  A span's self time
is its duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

#: Spans whose individual durations the summary keeps, for quantiles.
LATENCY_SPANS = ("gateway.provider.http",)


class SpanRecorder:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.clear()

    def clear(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self.counts: Counter[str] = Counter()
        self.in_flight: Counter[str] = Counter()
        self.max_in_flight: Counter[str] = Counter()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self._names)
                self._names.append(name)
            index = len(self._start)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._end.append(0.0)
            self._start.append(time.perf_counter())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self._end[index] = end

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def summary(self) -> dict:
        """Per span name: count, inclusive seconds and self seconds; plus the
        counters and the kept latencies."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                children[parent].append(i)
        totals: dict[str, list[float]] = {}
        latencies: dict[str, list[float]] = defaultdict(list)
        for i, name_id in enumerate(self._name):
            name = self._names[name_id]
            start, end = self._start[i], self._end[i]
            covered = _covered(start, end, [(self._start[c], self._end[c]) for c in children.get(i, ())])
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
            if name in LATENCY_SPANS:
                latencies[name].append(end - start)
        return {
            "spans": {name: {"n": n, "total_s": total, "self_s": own} for name, (n, total, own) in totals.items()},
            "counts": dict(self.counts),
            "max_in_flight": dict(self.max_in_flight),
            "latencies_s": {name: sorted(values) for name, values in latencies.items()},
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for i, name_id in enumerate(self._name):
                out.write(json.dumps({"id": i, "name": self._names[name_id], "parent": self._parent[i],
                                      "start": self._start[i], "end": self._end[i]}) + "\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def span(recorder: SpanRecorder, name: str, fn: Callable, *,
         label: Callable | None = None, after: Callable | None = None) -> Callable:
    """``fn`` recorded as a span; ``label(args, kwargs)`` suffixes the name and
    ``after(args, kwargs, result)`` records counts from the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name if label is None else f"{name}.{label(args, kwargs)}")
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def counted(recorder: SpanRecorder, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _provider_span(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """A provider's ``complete`` as span ``name``: its latency, the requests
    in flight, and the retries visible as growth of the provider's
    ``request_count`` beyond one."""

    @functools.wraps(fn)
    def wrapper(self, prompt, **kwargs):
        with recorder._lock:
            recorder.in_flight[name] += 1
            recorder.max_in_flight[name] = max(recorder.max_in_flight[name], recorder.in_flight[name])
        before = self.request_count
        index = recorder.begin(name)
        try:
            return fn(self, prompt, **kwargs)
        finally:
            recorder.finish(index)
            with recorder._lock:
                recorder.in_flight[name] -= 1
                recorder.counts[f"{name}.requests"] += 1
                recorder.counts[f"{name}.retries"] += max(0, self.request_count - before - 1)

    return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap the program's layer boundaries; call once per traced worker."""
    from fallacylab import cli, gateway, kb, pipeline, schemas

    def code_of(args, kwargs):
        return (args[0] if args else kwargs["code"]).value

    def count_len(key):
        return lambda args, kwargs, result: recorder.count(key, len(result))

    def count_bytes(args, kwargs, paths):
        recorder.count("pipeline.bytes_written", sum(Path(p).stat().st_size for p in paths))

    def count_harvest(args, kwargs, result):
        records, rejected = result
        recorder.count("gateway.harvest.accepted", len({r.group_id for r in records}))
        recorder.count("gateway.harvest.rejected", rejected)

    def wrap(owner, attr, name, wrapper=span, **options):
        """Wrap ``owner.attr`` if it exists, keeping a static or class
        method what it was; a missing one leaves its metrics at zero."""
        raw = vars(owner).get(attr)
        if raw is None:
            return
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, attr, type(raw)(wrapper(recorder, name, raw.__func__, **options)))
        else:
            setattr(owner, attr, wrapper(recorder, name, raw, **options))

    # parser and knowledge base
    for module in (kb, gateway):
        wrap(module, "parse_program", "parser.parse_program", after=count_len("parser.clauses"))
    base = kb.KnowledgeBase
    wrap(base, "from_text", "kb.from_text")
    wrap(base, "extended", "kb.extended")
    wrap(base, "clauses", "kb.clauses.calls", wrapper=counted)
    wrap(base, "fact_args", "kb.fact_args.calls", wrapper=counted)

    # engine and schemas
    wrap(schemas, "findall", "engine.findall", after=count_len("engine.findall.solutions"))
    for module in (cli, pipeline, schemas):
        wrap(module, "derive_instances", "schemas.derive_instances", label=code_of,
             after=count_len("schemas.derive_instances.tuples"))
    for module in (cli, pipeline):
        wrap(module, "ordering_diagnostic", "schemas.ordering_diagnostic")
    wrap(schemas, "confirm_instance", "schemas.confirm_instance")
    for module in (cli, gateway):
        wrap(module, "validate_kb_against_schema", "schemas.validate")

    # gateway
    wrap(gateway, "definitions_block", "gateway.prompt_build")
    wrap(gateway.PromptTemplate, "render", "gateway.prompt_build")
    wrap(gateway, "fingerprint", "gateway.fingerprint")
    wrap(gateway, "load_cassette", "gateway.cassette.load")
    wrap(gateway, "write_cassette", "gateway.cassette.save")
    api = gateway.Gateway
    for method in ("generate_facts", "transform_to_sentences", "score_sentence", "judge_sentence"):
        wrap(api, method, f"gateway.{method}")
    wrap(api, "_harvest_fact_groups", "gateway.harvest", after=count_harvest)
    wrap(api, "_parse_verdict", "gateway.parse_verdict")
    for kind, provider in (("http", gateway.HttpProvider), ("replay", gateway.ReplayProvider)):
        wrap(provider, "complete", f"gateway.provider.{kind}", wrapper=_provider_span)

    # metrics, pipeline and the commands
    wrap(cli, "load_benchmark", "metrics.load_benchmark")
    wrap(cli, "build_report", "metrics.build_report")
    for attr in ("generate_bundle", "score_sentences", "judge_benchmark"):
        wrap(cli, attr, f"pipeline.{attr}")
    for attr in ("write_bundle", "write_scores", "write_report"):
        wrap(cli, attr, f"pipeline.{attr}", after=count_bytes)
    for name, command in cli.main.commands.items():
        wrap(command, "callback", f"cli.{name}")
