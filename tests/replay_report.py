"""In-process replay times of ``score`` and ``eval`` on scaled inputs.

Run from the repository root:

    PYTHONPATH=src python tests/replay_report.py --sentences 10000 --entries 13000

It builds ``--sentences`` labeled sentences and ``--entries`` benchmark
entries (a quarter benign) with the benchmark's seeded input generator
(``perfbench/inputs.py``), and records their cassettes with the program's
``RecordingProvider`` over the benchmark's scripted model replies
(``perfbench/replies.py``).  It then runs ``fallacylab score`` and
``fallacylab eval`` in replay mode in this process and prints the best of
``--repeat`` wall times of each, with the requests each command sent, the
distinct fingerprints among them and the fingerprints it actually hashed
in its last run (a score's three requests share one hash).
``load s`` is the best of ``--repeat`` times of decoding the command's
cassette (reading :func:`gateway.load_cassette`'s stream to its end) and
input file by themselves, the share of ``s`` its JSON Lines reads take.
``peak KB`` is the command's tracemalloc peak, the most memory its Python
objects held at once, measured in one more run that is not timed.
It exits 1 if the scores or predictions differ from the replies'
by-construction values.  The file name keeps pytest from collecting it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402
import replies  # noqa: E402

from fallacylab import cli, gateway  # noqa: E402
from fallacylab.gateway import Gateway, RecordingProvider, load_cassette  # noqa: E402
from fallacylab.jsonl import read_jsonl  # noqa: E402
from fallacylab.labels import FallacyCode  # noqa: E402
from fallacylab.metrics import load_benchmark  # noqa: E402
from fallacylab.pipeline import judge_benchmark, load_sentences, score_sentences  # noqa: E402

MODEL = "eval-model"


class _ScriptedModel:
    """Answers score and judge prompts from :mod:`replies`."""

    model_name = MODEL

    def complete(self, prompt: str, *, temperature: float) -> str:
        text = replies.reply(prompt)
        if text is None:
            raise ValueError(f"no scripted reply for prompt {prompt[:60]!r}")
        return text


def _record(cassette: Path, flow) -> None:
    provider = RecordingProvider(_ScriptedModel(), cassette)
    flow(provider)
    provider.save()


@contextlib.contextmanager
def _counting_hashes():
    """A one-item list that counts the keys hashed in the block: the calls
    of ``gateway._fingerprint``, which :func:`gateway.fingerprint` makes
    when its memo misses."""
    count = [0]
    hash_key = gateway._fingerprint

    def counted(*args):
        count[0] += 1
        return hash_key(*args)

    gateway._fingerprint = counted
    try:
        yield count
    finally:
        gateway._fingerprint = hash_key


def _run(args: list[str]) -> int:
    """Exit code of one command; its stdout (the output paths) is dropped."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sentences", type=int, default=10_000)
    parser.add_argument("--entries", type=int, default=13_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        text, rows = inputs.sentences_jsonl(args.seed, args.sentences, "s")
        sentences = work / "sentences.jsonl"
        sentences.write_text(text, encoding="utf-8")
        text, entries = inputs.benchmark_jsonl(args.seed, args.entries, "b")
        benchmark = work / "benchmark.jsonl"
        benchmark.write_text(text, encoding="utf-8")
        config = work / "replay.cfg"
        config.write_text(f"evaluator.model = {MODEL}\nmode = replay\n", encoding="utf-8")

        cassettes = {"score": work / "cassette_score.jsonl", "eval": work / "cassette_eval.jsonl"}
        _record(cassettes["score"], lambda p: score_sentences(
            [(rid, s, FallacyCode(c)) for rid, s, c in rows], Gateway(p)))
        _record(cassettes["eval"], lambda p: judge_benchmark(load_benchmark(benchmark), Gateway(p)))

        commands = {
            "score": ["score", "--sentences", str(sentences)],
            "eval": ["eval", "--benchmark", str(benchmark)],
        }
        loads = {
            "score": lambda: (list(load_cassette(cassettes["score"])), load_sentences(sentences)),
            "eval": lambda: (list(load_cassette(cassettes["eval"])), load_benchmark(benchmark)),
        }
        print(f"{args.sentences} sentences, {args.entries} entries, seed {args.seed}, "
              f"best of {args.repeat}")
        print(f"{'command':<9}{'s':>8}{'load s':>8}{'requests':>10}{'distinct':>10}{'hashed':>8}"
              f"{'peak KB':>9}")
        failed = False
        for name, command in commands.items():
            out = work / "out" / name
            argv = [*command, "--mode", "replay", "--config", str(config),
                    "--cassette", str(cassettes[name]), "--out", str(out)]
            best = float("inf")
            for _ in range(args.repeat):
                with _counting_hashes() as hashed:
                    start = time.perf_counter()
                    code = _run(argv)
                    best = min(best, time.perf_counter() - start)
                failed |= code != 0
            tracemalloc.start()
            try:
                failed |= _run(argv) != 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            load = float("inf")
            for _ in range(args.repeat):
                start = time.perf_counter()
                loads[name]()
                load = min(load, time.perf_counter() - start)
            keys = [key for key, _ in load_cassette(cassettes[name])]
            print(f"{name:<9}{best:>8.3f}{load:>8.3f}{len(keys):>10}{len(set(keys)):>10}{hashed[0]:>8}"
                  f"{peak / 2**10:>9.1f}")

        got = [(r["id"], r["code"], r["scores"]) for r in read_jsonl(work / "out/score/scores.jsonl")]
        if got != [(rid, code, [replies.score_of(s)] * 3) for rid, s, code in rows]:
            print("scores differ from the replies' scores", file=sys.stderr)
            failed = True
        got = [(p["id"], p["logic_error"], p["labels"])
               for p in read_jsonl(work / "out/eval/predictions.jsonl")]
        if got != [(e["id"], *replies.verdict_of(e["sentence"])) for e in entries]:
            print("predictions differ from the judge replies", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
