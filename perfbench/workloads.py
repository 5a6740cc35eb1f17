"""The four workloads: their inputs, one pass of ``fallacylab`` commands, and
the output checks.

A pass runs the commands an operator would type for the workload, in one
worker, and checks every output against what the generated inputs imply by
construction (:mod:`inputs`, :mod:`replies`), never against the program's own
idea of the answer.  Replay outputs must also be byte-identical from pass to
pass.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import re
import shutil
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import harness
import inputs
import replies

@dataclass
class Tally:
    """Commands attempted, and those that failed: an unexpected exit code or
    any failed output check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def command(self, what: str, result: dict, code: int, *checks: tuple[bool, str]) -> None:
        self.attempted += 1
        trouble = []
        if result["code"] != code:
            trouble.append(f"exit code {result['code']}, expected {code}: {result['stderr'][-400:]}")
        else:
            trouble.extend(message for ok, message in checks if not ok)
        if trouble:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(trouble)}")


#: What the worker's calibration loop takes on the reference host (a 2-vCPU
#: Xeon at 2.1 GHz, Python 3.11).  CPU-bound command times are scaled by
#: ``REFERENCE_CALIBRATION_S / calibration_s``, measured around each command,
#: because the host's speed drifts by tens of percent within seconds.
REFERENCE_CALIBRATION_S = 0.015


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured at a calibration of ``calibration_s``, as they
    would read on the reference host."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def seconds_of(results: list[dict], scale: bool) -> float:
    """Command seconds, scaled to the reference host when ``scale``."""
    return sum(scaled(r["elapsed_s"], r["calibration_s"]) if scale else r["elapsed_s"] for r in results)


@dataclass
class Pass:
    """One pass: per stage, the items it processed and its command seconds."""

    stages: dict[str, tuple[int, float]]
    items: int

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.stages.values())

    @property
    def items_per_s(self) -> float:
        return self.items / self.seconds

    @property
    def geomean_items_per_s(self) -> float:
        rates = [count / seconds for count, seconds in self.stages.values()]
        return math.exp(sum(math.log(r) for r in rates) / len(rates))

    def rate(self, stage: str) -> float:
        count, seconds = self.stages[stage]
        return count / seconds

    @staticmethod
    def total(passes: list["Pass"]) -> "Pass":
        """The passes as one: items and seconds summed per stage."""
        stages = {name: (sum(p.stages[name][0] for p in passes), sum(p.stages[name][1] for p in passes))
                  for name in passes[0].stages}
        return Pass(stages, sum(p.items for p in passes))


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _jsonl(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.dir = work / self.name
        self.seed = seed

    def prepare(self, src: Path, stack: contextlib.ExitStack) -> None:
        raise NotImplementedError

    def run_pass(self, worker: harness.Worker, tally: Tally) -> Pass:
        raise NotImplementedError

    def figures(self, run: Pass) -> dict[str, float]:
        """The workload's own named figures, from all its passes as one."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# derive-scaled
# ---------------------------------------------------------------------------


class DeriveScaled(Workload):
    name = "derive-scaled"

    def __init__(self, work: Path, seed: int, groups: int = 64):
        super().__init__(work, seed)
        self.groups = groups
        self.dir = work / f"{self.name}-{groups}"

    def prepare(self, src, stack) -> None:
        self.cases = []
        for code, groups in inputs.derive_inputs(self.seed, self.groups).items():
            path = _write(self.dir / f"{code.lower()}.pl", inputs.groups_text(groups))
            self.cases.append((code, path, inputs.expected_tuples(groups)))

    def run_pass(self, worker, tally) -> Pass:
        stages = {}
        for code, path, expected in self.cases:
            result = worker.run("derive", "--kb", str(path), "--code", code)
            tally.command(f"derive {code}", result, 0,
                          (result["stdout"].splitlines() == expected, "tuples differ from the by-construction list"))
            stages[code] = (len(expected), seconds_of([result], scale=True))
        return Pass(stages, sum(n for n, _ in stages.values()))

    def figures(self, run):
        return {"derive_tuples_per_s": run.items_per_s, "derive_geomean_tuples_per_s": run.geomean_items_per_s}


# ---------------------------------------------------------------------------
# validate-large
# ---------------------------------------------------------------------------


class ValidateLarge(Workload):
    name = "validate-large"
    FACTS = 10_000

    def prepare(self, src, stack) -> None:
        self.cases = []
        for code in ("AF", "CT"):
            case = inputs.validate_input(self.seed, code, self.FACTS)
            self.cases.append((case, _write(self.dir / f"{code.lower()}_facts.pl", case.text)))

    def run_pass(self, worker, tally) -> Pass:
        stages = {}
        for case, path in self.cases:
            result = worker.run("validate", "--kb", str(path), "--code", case.code)
            out = result["stdout"]
            header = re.match(rf"{case.code}: (\d+) finding\(s\)", out)
            found = {kind: out.count(f"[{kind}]") for kind in case.findings}
            tally.command(f"validate {case.code}", result, 1,
                          (header is not None and int(header.group(1)) == sum(case.findings.values()),
                           "findings count differs"),
                          (found == case.findings, f"finding kinds {found} != {case.findings}"))
            stages[case.code] = (case.facts, seconds_of([result], scale=True))
        return Pass(stages, sum(n for n, _ in stages.values()))

    def figures(self, run):
        return {"validate_facts_per_s": run.items_per_s}


# ---------------------------------------------------------------------------
# Shared checks for score and eval outputs
# ---------------------------------------------------------------------------


def check_scores(out: Path, rows: list[tuple[str, str, str]]) -> tuple[bool, str]:
    got = [(r.get("id"), r.get("code"), r.get("scores")) for r in _jsonl(out / "scores.jsonl")]
    want = [(rid, code, [replies.score_of(sentence)] * 3) for rid, sentence, code in rows]
    return got == want, "scores differ from the replies' scores"


def _detection(entries: list[dict]) -> dict[str, Fraction]:
    tp = fp = fn = tn = 0
    for entry in entries:
        flagged = replies.verdict_of(entry["sentence"])[0]
        if entry["source"] != "benign":
            tp, fn = tp + flagged, fn + (not flagged)
        else:
            fp, tn = fp + flagged, tn + (not flagged)
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)
    return {"fp_rate": Fraction(fp, fp + tn), "fn_rate": Fraction(fn, tp + fn),
            "precision": precision, "recall": recall, "f1": f1}


def check_eval(out: Path, entries: list[dict]) -> list[tuple[bool, str]]:
    verdicts = [replies.verdict_of(e["sentence"]) for e in entries]
    got = [(p.get("id"), p.get("logic_error"), p.get("labels")) for p in _jsonl(out / "predictions.jsonl")]
    want = [(e["id"], flagged, codes) for e, (flagged, codes) in zip(entries, verdicts)]
    checks = [(got == want, "predictions differ from the judge replies")]
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        detection = report["detection"]
        expected = _detection(entries)
        same = all(abs(detection[k] - float(v)) <= 1e-6 for k, v in expected.items())
        labels = report["label_count"] == sum(len(codes) for _, codes in verdicts)
    except (OSError, ValueError, KeyError, TypeError):
        same = labels = False
    checks.append((same, "detection metrics differ from the judge replies"))
    checks.append((labels, "label count differs from the judge replies"))
    return checks


def _config(path: Path, **values: str) -> Path:
    return _write(path, "".join(f"{k} = {v}\n" for k, v in values.items()))


# ---------------------------------------------------------------------------
# replay-pipeline
# ---------------------------------------------------------------------------


class _ScriptedModel:
    """A provider answering from :mod:`replies`, for recording cassettes."""

    def __init__(self, model_name: str, generated: dict[str, str]):
        self.model_name = model_name
        self.request_count = 0
        self.generated = generated

    def complete(self, prompt: str, *, temperature: float) -> str:
        self.request_count += 1
        text = replies.reply(prompt, self.generated)
        if text is None:
            raise ValueError(f"no scripted reply for prompt {prompt[:60]!r}")
        return text


class ReplayPipeline(Workload):
    name = "replay-pipeline"
    GENERATE_N = 20
    SENTENCES = 10_000
    ENTRIES = 13_000

    def prepare(self, src, stack) -> None:
        d = self.dir
        self.generated = [inputs.generate_input(self.seed, code, self.GENERATE_N) for code in inputs.CODES]
        text, self.rows = inputs.sentences_jsonl(self.seed, self.SENTENCES, "s")
        self.sentences = _write(d / "sentences.jsonl", text)
        text, self.entries = inputs.benchmark_jsonl(self.seed, self.ENTRIES, "b")
        self.benchmark = _write(d / "benchmark.jsonl", text)
        self.config = _config(d / "replay.cfg", **{"generator.model": "gen-model",
                                                   "evaluator.model": "eval-model", "mode": "replay"})
        self.cassettes = {k: d / f"cassette_{k}.jsonl" for k in ("generate", "score", "eval")}
        self._record(src)
        self.out = d / "out"
        self.first_digest = None

    def _record(self, src: Path) -> None:
        """Record the cassettes with the program's own RecordingProvider."""
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        from fallacylab.gateway import Gateway, RecordingProvider
        from fallacylab.labels import FallacyCode
        from fallacylab.metrics import load_benchmark
        from fallacylab.pipeline import generate_bundle, judge_benchmark, score_sentences

        generated = {inputs.DISPLAY_NAMES[g.code]: g.reply for g in self.generated}

        def record(kind: str, model: str, flow) -> None:
            provider = RecordingProvider(_ScriptedModel(model, generated), self.cassettes[kind])
            logging.disable(logging.WARNING)  # the rejected groups are expected
            try:
                flow(provider)
            finally:
                logging.disable(logging.NOTSET)
            provider.save()

        record("generate", "gen-model", lambda p: [
            generate_bundle(FallacyCode(g.code), g.requested, Gateway(p, generation_temperature=1.0))
            for g in self.generated])
        record("score", "eval-model", lambda p: score_sentences(
            [(rid, s, FallacyCode(c)) for rid, s, c in self.rows], Gateway(p)))
        record("eval", "eval-model", lambda p: judge_benchmark(load_benchmark(self.benchmark), Gateway(p)))

    def run_pass(self, worker, tally) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        common = ("--mode", "replay", "--config", str(self.config))
        generated = []
        for g in self.generated:
            result = worker.run("generate", "--code", g.code, "--n", str(g.requested), *common,
                                "--cassette", str(self.cassettes["generate"]), "--out", str(self.out / "generate"))
            tuples = self.out / "generate" / f"{g.code.lower()}_tuples.pl"
            sentences = [(r.get("sentence"), r.get("labels"))
                         for r in _jsonl(self.out / "generate" / f"{g.code.lower()}_sentences.jsonl")]
            tally.command(f"generate {g.code}", result, 0,
                          (tuples.is_file() and tuples.read_text(encoding="utf-8") == "".join(f"{t}.\n" for t in g.tuples),
                           "tuples differ from the by-construction list"),
                          (sentences == [(replies.transform_sentence(f"{t}."), [g.code]) for t in g.tuples],
                           "sentences differ from the generator replies"))
            generated.append(result)
        score = worker.run("score", "--sentences", str(self.sentences), *common,
                           "--cassette", str(self.cassettes["score"]), "--out", str(self.out / "score"))
        tally.command("score", score, 0, check_scores(self.out / "score", self.rows))
        judge = worker.run("eval", "--benchmark", str(self.benchmark), *common,
                           "--cassette", str(self.cassettes["eval"]), "--out", str(self.out / "eval"))
        digest = _digest_tree(self.out)
        if self.first_digest is None:
            self.first_digest = digest
        tally.command("eval", judge, 0, *check_eval(self.out / "eval", self.entries),
                      (digest == self.first_digest, "replay outputs differ from the first pass"))
        stages = {"generate": (self.GENERATE_N * len(self.generated), seconds_of(generated, scale=True)),
                  "score": (self.SENTENCES, seconds_of([score], scale=True)),
                  "eval": (self.ENTRIES, seconds_of([judge], scale=True))}
        return Pass(stages, 2 * len(self.generated) + 3 * self.SENTENCES + self.ENTRIES)

    def figures(self, run):
        return {"generate_groups_per_s": run.rate("generate"), "score_sentences_per_s": run.rate("score"),
                "eval_entries_per_s": run.rate("eval")}


# ---------------------------------------------------------------------------
# record-live
# ---------------------------------------------------------------------------


class RecordLive(Workload):
    name = "record-live"
    SENTENCES = 100
    ENTRIES = 100

    def prepare(self, src, stack) -> None:
        d = self.dir
        text, self.rows = inputs.sentences_jsonl(self.seed, self.SENTENCES, "r")
        self.sentences = _write(d / "sentences.jsonl", text)
        text, self.entries = inputs.benchmark_jsonl(self.seed, self.ENTRIES, "e")
        self.benchmark = _write(d / "benchmark.jsonl", text)
        self.emulator = stack.enter_context(harness.Emulator(d))
        self.live = _config(d / "live.cfg", **{"evaluator.endpoint": self.emulator.endpoint,
                                               "evaluator.model": "eval-model",
                                               "evaluator.parallelism": "2", "mode": "record"})
        self.replay = _config(d / "replay.cfg", **{"evaluator.model": "eval-model", "mode": "replay"})
        self.out = d / "out"

    def run_pass(self, worker, tally) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        self.emulator.reset()
        cassettes = {stage: self.dir / f"recorded_{stage}.jsonl" for stage in ("score", "eval")}

        def run(stage: str, mode: str, out: str) -> dict:
            flag, path = ("--sentences", self.sentences) if stage == "score" else ("--benchmark", self.benchmark)
            return worker.run(stage, flag, str(path), "--mode", mode, "--cassette", str(cassettes[stage]),
                              "--config", str(self.live if mode == "record" else self.replay),
                              "--out", str(self.out / out))

        score = run("score", "record", "score")
        tally.command("score (record)", score, 0, check_scores(self.out / "score", self.rows))
        judge = run("eval", "record", "eval")
        requests = 3 * self.SENTENCES + self.ENTRIES
        stats = self.emulator.stats()
        tally.command("eval (record)", judge, 0, *check_eval(self.out / "eval", self.entries),
                      (stats["requests"] == requests, f"emulator answered {stats['requests']} of {requests} requests"),
                      (stats["max_in_flight"] <= 2, f"{stats['max_in_flight']} requests in flight at once, over 2"),
                      (stats["malformed"] == 0, f"{stats['malformed']} malformed requests"),
                      (stats["refused"] == 0, f"{stats['refused']} refused requests"))
        for stage in ("score", "eval"):
            again = run(stage, "replay", f"{stage}_replay")
            tally.command(f"{stage} (replay of the recording)", again, 0,
                          (_digest_tree(self.out / stage) == _digest_tree(self.out / f"{stage}_replay"),
                           "replaying the recorded cassette changes the outputs"))
        # Mostly waiting on the emulator, so the times are not scaled.
        return Pass({"score": (self.SENTENCES, seconds_of([score], scale=False)),
                     "eval": (self.ENTRIES, seconds_of([judge], scale=False))}, requests)

    def figures(self, run):
        return {"record_requests_per_s": run.items_per_s}


WORKLOADS = {cls.name: cls for cls in (DeriveScaled, ValidateLarge, ReplayPipeline, RecordLive)}
