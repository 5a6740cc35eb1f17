"""End-to-end flows behind the CLI commands.

Keeping these out of the CLI lets record-mode fixture builders and tests run
the exact same code paths the operator does, which is what makes replay runs
byte-reproducible.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .errors import JsonlFormatError
from .gateway import Gateway, RecordingProvider, ScoreTriple
from .kb import KnowledgeBase
from .jsonl import read_id, read_jsonl, read_labels, read_text, write_atomic, write_jsonl
from .labels import FallacyCode, parse_code
from .metrics import (
    BenchmarkEntry,
    EvalReport,
    Prediction,
    score_stats,
)
from .schemas import ValidTuple, derive_instances, ordering_diagnostic
from .seeds import load_seed

#: Implication-form style examples shown to the transformation prompt.
STYLE_EXAMPLES: dict[FallacyCode, tuple[str, ...]] = {
    FallacyCode.ID: (
        "Since brushing my teeth for two minutes keeps them healthy for a day, therefore brushing for twenty-eight minutes once a week keeps them healthy all week.",
    ),
    FallacyCode.FA: (
        "Since coconuts have hair and produce milk, therefore coconuts are mammals.",
    ),
    FallacyCode.FP: (
        "Since people with two lungs breathe out carbon dioxide, therefore people with one lung breathe out carbon monoxide.",
    ),
    FallacyCode.AF: (
        "Since the shampoo bottle says lather, rinse, repeat, therefore I can never stop washing my hair.",
    ),
    FallacyCode.FC: (
        "Since seat belts survive crashes, therefore cars made out of seat belts would be indestructible.",
    ),
    FallacyCode.BQ: (
        "Since the scripture says it is true, therefore the scripture must be true.",
    ),
    FallacyCode.CT: (
        "Since time is money and poor countries have less money, therefore time moves slower in poor countries.",
    ),
    FallacyCode.IE: (
        "Since pedaling forwards on an exercise bike burns calories, therefore pedaling backwards must add them.",
    ),
    FallacyCode.IT: (
        "Since rain makes the ground wet, therefore wet ground means it has rained.",
    ),
    FallacyCode.WD: (
        "Since we always find meteors in craters, therefore craters cause meteors.",
    ),
    FallacyCode.FS: (
        "Since the room goes dark right after I flip the switch, therefore the switch emits darkness.",
    ),
}


@dataclass
class GenerationBundle:
    code: FallacyCode
    kb: KnowledgeBase
    tuples: list[ValidTuple]
    sentences: list[tuple[str, FallacyCode]]
    diagnostics: list[str]


def generate_bundle(code: FallacyCode, n: int, gateway: Gateway) -> GenerationBundle:
    """Full generation loop for one code: expand facts, derive, transform.

    Only tuples that are not already derivable from the seed alone are
    transformed, so the output covers exactly the newly generated instances.
    """
    seed = load_seed(code)
    groups = gateway.generate_facts(code, seed, n)
    kb = KnowledgeBase.from_text("\n\n".join([seed.fact_text(), *groups]))
    baseline = {t.args for t in derive_instances(code, seed)}
    derived = derive_instances(code, kb)
    tuples = [t for t in derived if t.args not in baseline]
    diagnostics = []
    note = ordering_diagnostic(code, kb, derived)
    if note:
        diagnostics.append(note)
    sentences: list[tuple[str, FallacyCode]] = []
    if tuples:
        sentences = gateway.transform_to_sentences(tuples, STYLE_EXAMPLES[code])
    return GenerationBundle(code, kb, tuples, sentences, diagnostics)


def write_bundle(bundle: GenerationBundle, out_dir: str | Path) -> list[Path]:
    """Write facts, tuples, and labeled sentences; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    code = bundle.code.value

    facts_path = out / f"{code.lower()}_facts.pl"
    write_atomic(facts_path, bundle.kb.serialize())

    tuples_path = out / f"{code.lower()}_tuples.pl"
    write_atomic(tuples_path, "".join(f"{t.render()}.\n" for t in bundle.tuples))

    sentences_path = out / f"{code.lower()}_sentences.jsonl"
    write_jsonl(
        sentences_path,
        (
            {
                "id": f"{code}-{i:03d}",
                "sentence": sentence,
                "labels": [label.value],
                "source": "augmented",
            }
            for i, (sentence, label) in enumerate(bundle.sentences)
        ),
    )
    return [facts_path, tuples_path, sentences_path]


def load_sentences(path: str | Path) -> list[tuple[str, str, FallacyCode]]:
    """(id, sentence, code) rows of a labeled-sentence file; the code is the
    first of ``labels``, or ``code`` when there are none."""
    def row(record: dict) -> tuple[str, str, FallacyCode]:
        codes = read_labels(record)
        if not codes:
            if "code" not in record:
                raise JsonlFormatError("needs a non-empty 'labels' or a 'code'")
            codes = (parse_code(record["code"]),)
        return read_id(record), read_text(record, "sentence"), codes[0]

    return list(read_jsonl(path, ("id", "sentence"), row))


def _map_in_order(
    call: Callable, items: Sequence, gateway: Gateway, parallelism: int
) -> list:
    """``call(item)`` for each item, results in input order.

    Above width 1, up to ``parallelism`` items run at once on a thread pool,
    each making its own requests in order.  Item i starts only once item
    i - ``parallelism`` has finished, so the first item in input order that
    fails raises, as in a serial run, and no item more than
    ``parallelism - 1`` past it has started.  A recording provider gets each
    item's exchanges in input order, so its cassette is a serial run's.
    """
    width = min(parallelism, len(items))
    if width <= 1:
        return [call(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    provider = gateway.provider
    recorder = provider if isinstance(provider, RecordingProvider) else None

    def run(item):
        return recorder.item(call, item) if recorder else (call(item), [])

    def take(future):
        result, entries = future.result()
        if recorder:
            recorder.keep(entries)
        return result

    results = []
    running = deque()
    pool = ThreadPoolExecutor(max_workers=width)
    try:
        for item in items:
            if len(running) == width:
                results.append(take(running.popleft()))
            running.append(pool.submit(run, item))
        while running:
            results.append(take(running.popleft()))
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def score_sentences(
    rows: Sequence[tuple[str, str, FallacyCode]], gateway: Gateway, parallelism: int = 1
) -> list[tuple[str, ScoreTriple]]:
    """(id, triple) for each (id, sentence, code) row, in order."""
    def score(row):
        rid, sentence, code = row
        return rid, gateway.score_sentence(sentence, code)

    return _map_in_order(score, rows, gateway, parallelism)


def write_scores(
    scored: Sequence[tuple[str, ScoreTriple]], method_tag: str, out_dir: str | Path
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path = out / "scores.jsonl"
    write_jsonl(
        jsonl_path,
        (
            {
                "id": rid,
                "sentence": triple.sentence,
                "code": triple.code.value,
                "scores": list(triple.scores),
                # Small ints divide correctly rounded: float(triple.mean).
                "mean": round(sum(triple.scores) / 3, 6),
            }
            for rid, triple in scored
        ),
    )

    stats = score_stats([t for _, t in scored], method_tag)
    summary_path = out / "score_summary.txt"
    write_atomic(summary_path, stats.means_table())
    histogram_path = out / "score_histogram.csv"
    write_atomic(histogram_path, stats.histogram_csv())
    return [jsonl_path, summary_path, histogram_path]


def judge_benchmark(
    entries: Sequence[BenchmarkEntry], gateway: Gateway, parallelism: int = 1
) -> list[Prediction]:
    """The prediction of each entry, in order, each built as its verdict
    returns."""
    def judge(entry):
        return Prediction.from_verdict(entry.id, gateway.judge_sentence(entry.sentence))

    return _map_in_order(judge, entries, gateway, parallelism)


def write_report(
    report: EvalReport,
    preds: Sequence[Prediction],
    out_dir: str | Path,
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    write_atomic(
        json_path,
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True, ensure_ascii=True)
        + "\n",
    )
    text_path = out / "report.txt"
    write_atomic(text_path, report.to_text())
    preds_path = out / "predictions.jsonl"
    write_jsonl(
        preds_path,
        (
            {
                "id": p.entry_id,
                "logic_error": p.logic_error,
                "labels": [c.value for c in p.labels],
            }
            for p in preds
        ),
    )
    return [json_path, text_path, preds_path]
