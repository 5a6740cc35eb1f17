"""Memory pins of replay, on cassettes and a benchmark built from the
benchmark's seeded inputs and scripted replies (``perfbench/``, through
``replay_report``).  tracemalloc counts every Python allocation, so each
figure is the same from run to run."""
from __future__ import annotations

import tracemalloc

import pytest

import replay_report
from replay_report import inputs

from fallacylab.cli import RunConfig, _provider
from fallacylab.gateway import Gateway, ProviderConfig
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
    """For each scale, the score rows, the benchmark and each cassette."""
    work = tmp_path_factory.mktemp("replay-memory")
    files = {}
    for scale in (1, 4):
        _, rows = inputs.sentences_jsonl(SEED, scale * SENTENCES, "s")
        rows = [(rid, s, FallacyCode(c)) for rid, s, c in rows]
        text, _ = inputs.benchmark_jsonl(SEED, scale * ENTRIES, "b")
        benchmark = work / f"benchmark_{scale}.jsonl"
        benchmark.write_text(text, encoding="utf-8")
        cassettes = {kind: work / f"cassette_{kind}_{scale}.jsonl" for kind in ("score", "eval")}
        replay_report._record(cassettes["score"], lambda p: score_sentences(rows, Gateway(p)))
        replay_report._record(cassettes["eval"], lambda p: judge_benchmark(
            load_benchmark(benchmark), Gateway(p)))
        files[scale] = {"rows": rows, "benchmark": benchmark, "cassettes": cassettes}
    return files


def _replay(kind, files):
    """A call that serves every request of a ``score`` or ``eval`` replay
    through the command's provider and returns the scores or predictions."""
    items = files["rows"] if kind == "score" else load_benchmark(files["benchmark"])
    flow = score_sentences if kind == "score" else judge_benchmark
    run = RunConfig(evaluator=ProviderConfig(model_name=replay_report.MODEL), mode="replay",
                    cassette=str(files["cassettes"][kind]))

    def call():
        with _provider(run, "evaluator") as provider:
            return flow(items, Gateway(provider))

    return call


@pytest.mark.parametrize("kind, lines", [("score", 3 * SENTENCES), ("eval", ENTRIES)], ids=["score", "eval"])
def test_a_replay_holds_only_what_is_in_flight(replay_files, kind, lines):
    extra = {}
    for scale in (1, 4):
        files = replay_files[scale]
        cassette = files["cassettes"][kind]
        assert cassette.read_bytes().count(b"\n") == scale * lines
        call = _replay(kind, files)
        call()  # the first call's one-time allocations stay out of the peak
        results, held, peak = _traced(call)
        assert len(results) == scale * (SENTENCES if kind == "score" else ENTRIES)
        extra[scale] = peak - held
        # Beyond the scores or predictions it returns, a replay holds the
        # request in flight, not the cassette: about 11 KB at either size,
        # 3.5% and 0.9% of the score cassette, where a cassette loaded whole
        # and a list of verdicts took 0.7-1.1x the file's bytes.
        assert extra[scale] < 0.05 * cassette.stat().st_size
    assert extra[4] <= 1.25 * extra[1]


def test_load_benchmark_holds_no_list_of_lines(replay_files):
    benchmark = replay_files[1]["benchmark"]
    load_benchmark(benchmark)
    entries, held, peak = _traced(lambda: load_benchmark(benchmark))
    assert len(entries) == ENTRIES
    # Beyond its entries, the load's peak holds only the ids seen so far
    # and one line; the file's text alone would take its size again.
    assert peak - held < benchmark.stat().st_size
