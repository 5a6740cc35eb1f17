#!/usr/bin/env python3
"""Regenerate the committed replay cassettes and JSONL fixtures.

Runs the real pipeline code paths against scripted providers in record mode,
so the recorded fingerprints always match what the CLI will request in
replay mode.  Rerun after changing any prompt template:

    python tests/data/build_cassettes.py
"""
from __future__ import annotations

from pathlib import Path

from fallacylab.gateway import Gateway, RecordingProvider
from fallacylab.jsonl import write_jsonl
from fallacylab.labels import FallacyCode
from fallacylab.metrics import load_benchmark
from fallacylab.pipeline import generate_bundle, judge_benchmark, score_sentences

HERE = Path(__file__).parent


class ScriptedProvider:
    def __init__(self, responses, model_name):
        self.responses = list(responses)
        self.model_name = model_name

    def complete(self, prompt, *, temperature):
        return self.responses.pop(0)


AF_GROUPS = """\
hr(library_sign, quiet_please). % the library sign says quiet please
rri(quiet_please, keep_voices_low). % read reasonably it means keep voices low
rui(quiet_please, never_speak_again). % read rigidly it means never speak again

hr(elevator_plate, max_10_persons). % the elevator plate says max 10 persons
rri(max_10_persons, do_not_overcrowd). % read reasonably it means do not overcrowd
rui(max_10_persons, ten_ants_forbidden). % read rigidly even ten ants are forbidden

hr(toothpaste_tube, use_pea_sized_amount). % the tube says use a pea sized amount
rri(use_pea_sized_amount, small_dab_suffices). % read reasonably a small dab suffices
rui(use_pea_sized_amount, measure_each_pea_exactly). % read rigidly each pea must be measured

hr(speed_sign, limit_65). % the sign says the limit is 65
rri(limit_65, drive_at_most_65). % read reasonably drive at most 65
rui(limit_65, drive_exactly_65_in_traffic_jam). % read rigidly drive 65 even in a jam

hr(cereal_box, serve_with_milk). % the box says serve with milk
rri(serve_with_milk, milk_is_suggested). % read reasonably milk is a suggestion
rui(serve_with_milk, cereal_illegal_without_milk). % read rigidly cereal without milk is illegal
"""

AF_SENTENCES = """\
Since the library sign says quiet please, therefore no one may ever speak there again.
Since the elevator plate says max 10 persons, therefore even ten ants are forbidden to ride.
Since the toothpaste tube says use a pea sized amount, therefore every pea must be measured exactly.
Since the speed sign says 65, therefore I must drive exactly 65 through the traffic jam.
Since the cereal box says serve with milk, therefore eating cereal without milk is illegal.
"""

BENCHMARK = [
    {
        "id": "b0",
        "sentence": "Since the shampoo bottle says lather, rinse, repeat, therefore washing can never stop.",
        "labels": ["AF"],
        "source": "bench",
    },
    {
        "id": "b1",
        "sentence": "Since we always find meteors in craters, therefore craters cause meteors.",
        "labels": ["WD"],
        "source": "augmented",
    },
    {
        "id": "b2",
        "sentence": "Since the chimney survives the fire, therefore the whole building survives fire.",
        "labels": ["FC"],
        "source": "bench",
    },
    {
        "id": "b3",
        "sentence": "Water freezes at zero degrees Celsius at sea level.",
        "labels": [],
        "source": "benign",
    },
    {
        "id": "b4",
        "sentence": "Regular exercise improves cardiovascular health over time.",
        "labels": [],
        "source": "benign",
    },
    {
        "id": "b5",
        "sentence": "The first train departs every weekday morning at eight.",
        "labels": [],
        "source": "benign",
    },
]

VERDICTS = [
    '{"sentence": "b0", "logic_error": "yes", "logic_fallacies": ["AC"], "details": "a general instruction is applied without limit"}',
    '{"sentence": "b1", "logic_error": "yes", "logic_fallacies": ["Wrong Direction", "False Cause"], "details": "the effect is treated as the cause"}',
    '```json\n{"sentence": "b2", "logic_error": "yes", "logic_fallacies": ["FC"], "details": "a part property is projected onto the whole"}\n```',
    '{"sentence": "b3", "logic_error": "no", "logic_fallacies": [], "details": "plain physical fact"}',
    '{"sentence": "b4", "logic_error": "no", "logic_fallacies": [], "details": "ordinary health claim"}',
    '{"sentence": "b5", "logic_error": "yes", "logic_fallacies": ["FS"], "details": "overreads an ordinary schedule as causal"}',
]

SENTENCES_TO_SCORE = [
    {
        "id": "s0",
        "sentence": "Since the shampoo bottle says lather, rinse, repeat, therefore washing can never stop.",
        "labels": ["AF"],
    },
    {
        "id": "s1",
        "sentence": "Since we always find meteors in craters, therefore craters cause meteors.",
        "labels": ["WD"],
    },
]

SCORE_RESPONSES = ["3", "3", "3", "2", "3", "3"]


def build_generate_cassette(out_dir: Path) -> None:
    provider = RecordingProvider(
        ScriptedProvider([AF_GROUPS, AF_SENTENCES], "gen-model"),
        out_dir / "cassette_generate_af.jsonl",
    )
    gateway = Gateway(provider, generation_temperature=1.0)
    bundle = generate_bundle(FallacyCode.AF, 5, gateway)
    assert len(bundle.sentences) == 5, bundle.sentences
    provider.save()


def build_eval_cassette(out_dir: Path) -> None:
    write_jsonl(out_dir / "benchmark_small.jsonl", BENCHMARK)
    entries = load_benchmark(out_dir / "benchmark_small.jsonl")
    provider = RecordingProvider(
        ScriptedProvider(VERDICTS, "eval-model"), out_dir / "cassette_eval.jsonl"
    )
    preds = judge_benchmark(entries, Gateway(provider))
    assert len(preds) == len(entries)
    provider.save()

    write_jsonl(
        out_dir / "predictions_small.jsonl",
        [
            {"id": e["id"], "logic_error": bool(e["labels"]), "labels": e["labels"]}
            for e in BENCHMARK
        ],
    )


def build_score_cassette(out_dir: Path) -> None:
    write_jsonl(out_dir / "sentences_small.jsonl", SENTENCES_TO_SCORE)
    provider = RecordingProvider(
        ScriptedProvider(SCORE_RESPONSES, "eval-model"), out_dir / "cassette_score.jsonl"
    )
    gateway = Gateway(provider)
    rows = [
        (r["id"], r["sentence"], FallacyCode(r["labels"][0])) for r in SENTENCES_TO_SCORE
    ]
    scored = score_sentences(rows, gateway)
    assert [t.scores for _, t in scored] == [(3, 3, 3), (2, 3, 3)]
    provider.save()


def main(out_dir: Path = HERE) -> None:
    build_generate_cassette(out_dir)
    build_eval_cassette(out_dir)
    build_score_cassette(out_dir)
    print("fixtures written to", out_dir)


if __name__ == "__main__":
    main()
