"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
The ninth-model leaderboard numbers cannot be reproduced offline (they need
live access to specific hosted model snapshots); criterion 8 documents that
explicitly and the oracle-equivalence, exact-fixture, and replay-determinism
criteria stand in for them.
"""
from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from fallacylab.cli import main as cli_main
from fallacylab.engine import Atom
from fallacylab.labels import SCHEMA_CODES, FallacyCode
from fallacylab.metrics import (
    BenchmarkEntry,
    Prediction,
    cohens_kappa,
    detection_metrics,
    enhancement,
    harmonic,
    ranked_score,
)
from fallacylab.schemas import derive_instances, ordering_diagnostic
from fallacylab.seeds import load_seed

from conftest import DATA_DIR
from fixpoint_oracle import (
    engine_counts,
    oracle_counts,
    oracle_tuples,
    ordered_solutions,
    random_kb,
)
from sld_oracle import DepthLimitError

README = Path(__file__).resolve().parents[1] / "README.md"

ALL_CODES = list(FallacyCode)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _atoms(*names: str) -> tuple[Atom, ...]:
    return tuple(Atom(n) for n in names)


DOCUMENTED_SEED_TUPLES: dict[FallacyCode, set[tuple[Atom, ...]]] = {
    FallacyCode.ID: {
        _atoms(
            "2_mins",
            "14_mins",
            "teeth_health_for_that_day",
            "teeth_health_for_one_week",
        )
    },
    FallacyCode.FA: {_atoms("kid", "kidney", "kid_word", "grow_into_adult")},
    FallacyCode.FP: {
        _atoms(
            "people_has_two_lungs",
            "two_lungs_breathe_out_carbon_dioxide",
            "lung_number_influence_carbon_number",
            "people_can_have_one_lung",
            "one_lung_breathe_out_carbon_monoxide",
        )
    },
    FallacyCode.AF: {
        _atoms(
            "shampoo_bottle",
            "lather_rinse_repeat",
            "wash_once_or_twice",
            "infinite_washing",
        )
    },
    FallacyCode.FC: {_atoms("chimney", "survives_fire", "building")},
    FallacyCode.BQ: {_atoms("bible_true", "bible_word_of_god")},
    FallacyCode.CT: {_atoms("time_is_money", "time_is_slower_in_third_world_countries")},
    FallacyCode.IE: {_atoms("cycling_backwards", "gain_weight")},
    FallacyCode.IT: {
        _atoms("rainy_days", "wet_ground"),
        _atoms("sprinklers_on", "wet_ground"),
    },
    FallacyCode.WD: {_atoms("mirror_looks_like_eye", "move_eye_close_to_mirror")},
    FallacyCode.FS: set(),
}


def test_criterion_1_seed_derivation_fidelity():
    start = time.perf_counter()
    problems = []
    for code in SCHEMA_CODES:
        kb = load_seed(code)
        tuples = derive_instances(code, kb)
        derived = {t.args for t in tuples}
        documented = DOCUMENTED_SEED_TUPLES[code]
        if derived != documented:
            problems.append(f"{code.value}: derived {derived} != documented")
        independent = oracle_tuples(code, kb)
        if derived != independent:
            problems.append(f"{code.value}: derived {derived} != oracle {independent}")
        if code is FallacyCode.FS:
            note = ordering_diagnostic(code, kb, tuples)
            if not note or "term-order" not in note:
                problems.append("FS: missing ordering diagnostic")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s (budget 1s)")
    _report(
        1,
        "seed derivations match the documented tuples and the exhaustive oracle",
        not problems,
        "; ".join(problems) or f"{elapsed*1000:.0f}ms",
    )


def test_criterion_2_engine_oracle_equivalence():
    rng = random.Random(20240501)
    start = time.perf_counter()
    problems = []
    checked = 0
    for trial in range(1000):
        code = SCHEMA_CODES[trial % len(SCHEMA_CODES)]
        kb = random_kb(code, rng)
        try:
            engine = engine_counts(code, kb)
            joined, sld = ordered_solutions(code, kb)
        except DepthLimitError:
            problems.append(f"{code.value}: DepthLimitError on\n{kb.serialize()}")
            break
        oracle = oracle_counts(code, kb)
        if engine != oracle:
            problems.append(
                f"{code.value}: engine {engine} != oracle {oracle}\n{kb.serialize()}"
            )
            break
        # Plain SLD, the join's reference, in solution order.
        if joined != sld or Counter(joined) != engine:
            problems.append(f"{code.value}: join {joined} != SLD {sld}\n{kb.serialize()}")
            break
        checked += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s (budget 30s)")
    _report(
        2,
        "join and SLD solution lists agree in order, and their multisets equal the "
        "stratified fixpoint oracle on 1000 random bases",
        not problems and checked == 1000,
        "; ".join(problems) or f"{checked} bases in {elapsed:.2f}s",
    )


def test_criterion_3_ranked_scorer():
    problems = []
    if ranked_score([FallacyCode.WD], [FallacyCode.WD]) != 1:
        problems.append("single hit is not exactly 1")

    truth = [FallacyCode.FP]
    wrong = [c for c in ALL_CODES if c is not FallacyCode.FP]
    worst = ranked_score(truth, wrong)
    if worst != -harmonic(13):
        problems.append("worst case != -H13 exactly")
    independent = -sum(1.0 / i for i in range(1, 14))
    if abs(float(worst) - independent) >= 1e-12:
        problems.append("worst case drifts from summed rational by >= 1e-12")

    rng = random.Random(77)
    for _ in range(10_000):
        truth = rng.sample(ALL_CODES, rng.randint(1, 4))
        predicted = rng.sample(ALL_CODES, rng.randint(0, 13))
        score = ranked_score(truth, predicted)
        hits = sum(1 for p in predicted if p in set(truth))
        if not (-harmonic(13) <= score <= harmonic(hits)):
            problems.append(f"bound violated for {truth} / {predicted}")
            break
        for i in range(len(predicted) - 1):
            if predicted[i] not in set(truth) and predicted[i + 1] in set(truth):
                swapped = list(predicted)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if not ranked_score(truth, swapped) > score:
                    problems.append("promoting a correct label did not increase S")
                break
        if problems:
            break
    _report(
        3,
        "ranked scorer: exact unit hit, exact -H13 worst case, bounds and "
        "rank monotonicity on 10k random pairs",
        not problems,
        "; ".join(problems),
    )


# Published two-decimal means (baseline and pipeline rows) and gain
# percentages for the eleven schema-backed columns.
GAIN_TABLE = [
    ("AF", "2.32", "3.00", "29.50"),
    ("CT", "2.27", "2.92", "28.68"),
    ("IE", "1.78", "2.83", "58.88"),
    ("FP", "2.60", "3.00", "15.38"),
    ("FA", "2.23", "3.00", "34.33"),
    ("WD", "2.33", "3.00", "28.57"),
    ("FC", "1.97", "3.00", "52.54"),
    ("BQ", "2.10", "2.97", "41.27"),
    ("FS", "2.03", "2.95", "45.08"),
    ("IT", "1.85", "3.00", "62.16"),
    ("ID", "2.27", "2.90", "27.94"),
]


def test_criterion_4_gain_row_reproduction():
    problems = []
    for code, baseline, improved, published in GAIN_TABLE:
        got = enhancement(Fraction(baseline), Fraction(improved))
        diff = abs(float(got) - float(published))
        if diff > 0.7:
            problems.append(f"{code}: recomputed {float(got):.2f} vs {published}")
    _report(
        4,
        "gain percentages recomputed from 2-decimal means match the published "
        "row within 0.7pp for all 11 columns",
        not problems,
        "; ".join(problems),
    )


def _mix(n_fallacious: int, n_benign: int):
    entries = [
        BenchmarkEntry(f"f{i}", "s", (FallacyCode.EC,), "bench")
        for i in range(n_fallacious)
    ]
    entries += [BenchmarkEntry(f"b{i}", "s", (), "benign") for i in range(n_benign)]
    return entries


def test_criterion_5_detection_fixtures():
    problems = []

    entries = _mix(10, 10)
    preds = [Prediction(e.id, e.fallacious, e.labels) for e in entries]
    m = detection_metrics(entries, preds)
    if (m.fp_rate, m.fn_rate, m.f1) != (0, 0, 1):
        problems.append("perfect classifier fixture mismatch")

    entries = _mix(10, 10)
    preds = [
        Prediction(e.id, (e.fallacious and i % 10 < 8) or (not e.fallacious and i % 10 < 2), e.labels)
        for i, e in enumerate(entries)
    ]
    m = detection_metrics(entries, preds)
    if not (m.precision == m.recall == m.f1 == Fraction(8, 10)):
        problems.append("TP8/FN2/FP2/TN8 fixture mismatch")

    entries = _mix(502, 502)
    preds = [Prediction(e.id, True, e.labels) for e in entries]
    m = detection_metrics(entries, preds)
    if not (m.recall == 1 and m.fp_rate == 1 and m.f1 == Fraction(2, 3)):
        problems.append("all-positive 502/502 fixture: f1 != 2/3")

    _report(
        5,
        "detection metrics match hand-computed confusion fixtures exactly",
        not problems,
        "; ".join(problems),
    )


def test_criterion_6_kappa():
    problems = []
    if cohens_kappa(["x", "y", "x"], ["x", "y", "x"]) != 1:
        problems.append("perfect agreement != 1")
    if cohens_kappa(["x", "x", "y", "y"], ["x", "y", "x", "y"]) != 0:
        problems.append("balanced zero fixture != 0")
    if cohens_kappa(["x", "x", "x", "y"], ["x", "x", "x", "x"]) != 0:
        problems.append("skewed zero fixture != 0")
    rng = random.Random(123)
    n = 10_000
    a = [rng.choice("abc") for _ in range(n)]
    b = [rng.choice("abc") for _ in range(n)]
    kappa = float(cohens_kappa(a, b))
    if abs(kappa) >= 0.05:
        problems.append(f"independent annotations kappa {kappa:.4f} not within 0.05")
    _report(
        6,
        "kappa: exact 1 and 0 fixtures; independent annotations near 0 at n=10k",
        not problems,
        "; ".join(problems) or f"random kappa {kappa:+.4f}",
    )


def _run_cli(args, out_dir):
    runner = CliRunner()
    result = runner.invoke(cli_main, [str(a) for a in args] + ["--out", str(out_dir)])
    return result


def test_criterion_7_replay_byte_reproducibility(tmp_path):
    problems = []

    generate_args = [
        "generate",
        "--code",
        "AF",
        "--n",
        "5",
        "--mode",
        "replay",
        "--cassette",
        DATA_DIR / "cassette_generate_af.jsonl",
        "--config",
        DATA_DIR / "replay.cfg",
    ]
    eval_args = [
        "eval",
        "--benchmark",
        DATA_DIR / "benchmark_small.jsonl",
        "--mode",
        "replay",
        "--cassette",
        DATA_DIR / "cassette_eval.jsonl",
        "--config",
        DATA_DIR / "replay.cfg",
    ]
    for label, args, files in (
        ("generate", generate_args, ["af_facts.pl", "af_tuples.pl", "af_sentences.jsonl"]),
        ("eval", eval_args, ["report.json", "report.txt", "predictions.jsonl"]),
    ):
        first = _run_cli(args, tmp_path / f"{label}_one")
        second = _run_cli(args, tmp_path / f"{label}_two")
        if first.exit_code != 0 or second.exit_code != 0:
            problems.append(f"{label}: nonzero exit ({first.output}{second.output})")
            continue
        for name in files:
            a = (tmp_path / f"{label}_one" / name).read_bytes()
            b = (tmp_path / f"{label}_two" / name).read_bytes()
            if a != b:
                problems.append(f"{label}/{name}: bytes differ between runs")
    _report(
        7,
        "generate and eval are byte-identical across consecutive replay runs "
        "of the committed cassettes",
        not problems,
        "; ".join(problems),
    )


def test_criterion_8_live_results_out_of_reach_is_documented():
    readme = README.read_text(encoding="utf-8")
    documented = "cannot be reproduced offline" in readme and "live" in readme
    smoke_exists = (Path(__file__).parent / "test_live_smoke.py").exists()
    _report(
        8,
        "hosted-model leaderboard numbers are documented as not reproducible "
        "offline; oracle, fixture, and replay criteria substitute; a "
        "non-gating live smoke test ships",
        documented and smoke_exists,
        "" if documented and smoke_exists else "README statement or smoke test missing",
    )
