"""Per-layer metrics of the traced run.

Each metric is measured on its home workload, the one whose end-to-end
figure it should move (the table in ``README.md`` names that figure), from
the span summary of one traced pass of that workload.  ``schemas.derive_exponent.<CODE>`` is fitted from
derive-scaled inputs at several group counts; ``trace.overhead_s`` is taken
on the workload the run was asked for.

Every ``.s`` metric is the inclusive time of the named function's spans;
every ``self_s`` metric is time not covered by child spans.  Counts repeat
exactly from run to run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from inputs import CODES

SWEEP_GROUPS = (16, 32)

D, V, R, L = "derive-scaled", "validate-large", "replay-pipeline", "record-live"


class Summary:
    """Read access to one worker's span summary."""

    def __init__(self, data: dict):
        self.data = data

    def total(self, name: str) -> float:
        return self.data["spans"].get(name, {}).get("total_s", 0.0)

    def self_time(self, name: str) -> float:
        return self.data["spans"].get(name, {}).get("self_s", 0.0)

    def calls(self, prefix: str) -> int:
        return sum(v["n"] for k, v in self.data["spans"].items() if k == prefix or k.startswith(prefix + "."))

    def layer_self(self, layer: str) -> float:
        return sum(v["self_s"] for k, v in self.data["spans"].items() if k.startswith(layer + "."))

    def count(self, key: str) -> int:
        return self.data["counts"].get(key, 0)

    def latency_ms(self, q: float) -> float:
        values = self.data["latencies_s"].get("gateway.provider.http", [])
        if not values:
            return 0.0
        return 1000.0 * values[max(0, math.ceil(q * len(values)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    home: str
    value: Callable[[Summary], float]


def _metrics() -> list[LayerMetric]:
    m: list[LayerMetric] = []

    def add(name, unit, home, value):
        m.append(LayerMetric(name, unit, home, value))

    add("parser.parse_program.s", "s", V, lambda s: s.total("parser.parse_program"))
    add("parser.clauses", "count", V, lambda s: s.count("parser.clauses"))
    add("parser.self_s", "s", V, lambda s: s.layer_self("parser"))

    add("kb.from_text.s", "s", V, lambda s: s.total("kb.from_text"))
    add("kb.extended.s", "s", D, lambda s: s.total("kb.extended"))
    add("kb.extended.calls", "count", D, lambda s: s.calls("kb.extended"))
    add("kb.clauses.calls", "count", D, lambda s: s.count("kb.clauses.calls"))
    add("kb.fact_args.calls", "count", D, lambda s: s.count("kb.fact_args.calls"))
    add("kb.self_s", "s", D, lambda s: s.layer_self("kb"))

    add("engine.findall.s", "s", D, lambda s: s.total("engine.findall"))
    add("engine.findall.solutions", "count", D, lambda s: s.count("engine.findall.solutions"))
    add("engine.solutions_per_clause_lookup", "ratio", D,
        lambda s: _ratio(s.count("engine.findall.solutions"), s.count("kb.clauses.calls")))
    add("engine.self_s", "s", D, lambda s: s.layer_self("engine"))

    for code in CODES:
        add(f"schemas.derive_instances.s.{code}", "s", D,
            lambda s, code=code: s.total(f"schemas.derive_instances.{code}"))
    add("schemas.derive_instances.calls", "count", D, lambda s: s.calls("schemas.derive_instances"))
    add("schemas.confirm_instance.s", "s", D, lambda s: s.total("schemas.confirm_instance"))
    add("schemas.confirm_instance.calls", "count", D, lambda s: s.calls("schemas.confirm_instance"))
    add("schemas.ordering_diagnostic.s", "s", D, lambda s: s.total("schemas.ordering_diagnostic"))
    add("schemas.unique_tuples_per_solution", "ratio", D,
        lambda s: _ratio(s.count("schemas.derive_instances.tuples"), s.count("engine.findall.solutions")))
    add("schemas.validate.s", "s", V, lambda s: s.total("schemas.validate"))
    add("schemas.self_s", "s", D, lambda s: s.layer_self("schemas"))

    add("gateway.prompt_build.s", "s", R, lambda s: s.total("gateway.prompt_build"))
    add("gateway.fingerprint.s", "s", R, lambda s: s.total("gateway.fingerprint"))
    add("gateway.parse_verdict.s", "s", R, lambda s: s.total("gateway.parse_verdict"))
    add("gateway.harvest.s", "s", R, lambda s: s.total("gateway.harvest"))
    add("gateway.harvest.accepted_ratio", "ratio", R,
        lambda s: _ratio(s.count("gateway.harvest.accepted"),
                         s.count("gateway.harvest.accepted") + s.count("gateway.harvest.rejected")))
    add("gateway.cassette.load_s", "s", R, lambda s: s.total("gateway.cassette.load"))
    add("gateway.self_s", "s", R, lambda s: s.layer_self("gateway"))
    add("gateway.provider.requests", "count", L, lambda s: s.count("gateway.provider.http.requests"))
    add("gateway.provider.retries", "count", L, lambda s: s.count("gateway.provider.http.retries"))
    add("gateway.provider.request_ms.p50", "ms", L, lambda s: s.latency_ms(0.5))
    add("gateway.provider.request_ms.p97_5", "ms", L, lambda s: s.latency_ms(0.975))
    add("gateway.provider.max_in_flight", "count", L,
        lambda s: s.data["max_in_flight"].get("gateway.provider.http", 0))
    add("gateway.cassette.save_s", "s", L, lambda s: s.total("gateway.cassette.save"))

    add("metrics.load_benchmark.s", "s", R, lambda s: s.total("metrics.load_benchmark"))
    add("metrics.build_report.s", "s", R, lambda s: s.total("metrics.build_report"))
    add("metrics.self_s", "s", R, lambda s: s.layer_self("metrics"))

    for stage in ("bundle", "scores", "report"):
        add(f"pipeline.write_{stage}.s", "s", R, lambda s, st=stage: s.total(f"pipeline.write_{st}"))
    add("pipeline.bytes_written", "bytes", R, lambda s: s.count("pipeline.bytes_written"))
    add("pipeline.self_s", "s", R, lambda s: s.layer_self("pipeline"))

    for command, home in (("derive", D), ("validate", V), ("generate", R), ("score", R), ("eval", R)):
        add(f"cli.{command}.self_s", "s", home, lambda s, c=command: s.self_time(f"cli.{c}"))
    return m


LAYER_METRICS = _metrics()


def exponent(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(summaries: dict[str, dict], sweep: dict[int, dict], overhead_s: float) -> dict[str, dict]:
    """Every per-layer metric, as ``{"value": ..., "unit": ...}``.

    ``sweep`` maps a group count to the derive-scaled summary at that size;
    it includes the full-size pass.
    """
    out = {}
    for metric in LAYER_METRICS:
        out[metric.name] = {"value": metric.value(Summary(summaries[metric.home])), "unit": metric.unit}
    sizes = sorted(sweep)
    for code in CODES:
        seconds = [Summary(sweep[n]).total(f"schemas.derive_instances.{code}") for n in sizes]
        out[f"schemas.derive_exponent.{code}"] = {"value": exponent(sizes, seconds), "unit": "exponent"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
