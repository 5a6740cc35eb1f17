"""Memory pins of the replay inputs, on cassettes and a benchmark built from
the benchmark's seeded inputs and scripted replies (``perfbench/``, through
``replay_report``).  tracemalloc counts every Python allocation, so each
figure is the same from run to run."""
from __future__ import annotations

import tracemalloc

import pytest

import replay_report
from replay_report import inputs

from fallacylab.gateway import Gateway, ReplayProvider
from fallacylab.labels import FallacyCode
from fallacylab.metrics import load_benchmark
from fallacylab.pipeline import judge_benchmark, score_sentences

SEED = 7
SENTENCES = 1_000  # 3,000 score requests, 3 per key
ENTRIES = 1_300  # 1,300 judge requests, one key each


def _traced(call):
    """``(call(), bytes held when it returned, peak bytes while it ran)``."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.fixture(scope="module")
def replay_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("replay-memory")
    text, rows = inputs.sentences_jsonl(SEED, SENTENCES, "s")
    text, _ = inputs.benchmark_jsonl(SEED, ENTRIES, "b")
    benchmark = work / "benchmark.jsonl"
    benchmark.write_text(text, encoding="utf-8")
    cassettes = {"score": work / "cassette_score.jsonl", "eval": work / "cassette_eval.jsonl"}
    replay_report._record(cassettes["score"], lambda p: score_sentences(
        [(rid, s, FallacyCode(c)) for rid, s, c in rows], Gateway(p)))
    replay_report._record(cassettes["eval"], lambda p: judge_benchmark(
        load_benchmark(benchmark), Gateway(p)))
    return {**cassettes, "benchmark": benchmark}


@pytest.mark.parametrize("kind, lines", [("score", 3 * SENTENCES), ("eval", ENTRIES)], ids=["score", "eval"])
def test_a_replayed_cassette_takes_at_most_twice_its_bytes(replay_files, kind, lines):
    cassette = replay_files[kind]
    assert cassette.read_bytes().count(b"\n") == lines
    ReplayProvider(cassette)  # the first call's one-time allocations stay out of the peak
    _, _, peak = _traced(lambda: ReplayProvider(cassette))
    # Held as one list of responses per key, with no record, line or text
    # of the file kept on the way: about 1.2x (score) and 1.45x (eval).
    assert peak <= 2 * cassette.stat().st_size


def test_load_benchmark_holds_no_list_of_lines(replay_files):
    benchmark = replay_files["benchmark"]
    load_benchmark(benchmark)
    entries, held, peak = _traced(lambda: load_benchmark(benchmark))
    assert len(entries) == ENTRIES
    # Beyond its entries, the load's peak holds only the ids seen so far
    # and one line; the file's text alone would take its size again.
    assert peak - held < benchmark.stat().st_size
