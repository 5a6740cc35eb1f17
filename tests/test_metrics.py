from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallacylab.errors import (
    DivisionDomainError,
    DuplicateLabelError,
    JsonlFormatError,
    LengthMismatchError,
    MismatchError,
)
from fallacylab.gateway import ScoreTriple
from fallacylab.labels import FallacyCode
from fallacylab.metrics import (
    MAX_PREDICTED_LABELS,
    WORST_RANKED_SCORE,
    BenchmarkEntry,
    Prediction,
    build_report,
    cohens_kappa,
    detection_metrics,
    enhancement,
    harmonic,
    label_count,
    per_fallacy_accuracy,
    ranked_score,
    score_stats,
)

ALL_CODES = list(FallacyCode)


def entry(i: int, labels: list[FallacyCode], source: str = None) -> BenchmarkEntry:
    if source is None:
        source = "bench" if labels else "benign"
    return BenchmarkEntry(id=f"e{i}", sentence=f"s{i}", labels=tuple(labels), source=source)


def pred(i: int, flag: bool, labels: list[FallacyCode] = ()) -> Prediction:
    return Prediction(entry_id=f"e{i}", logic_error=flag, labels=tuple(labels))


def confusion_oracle(entries, preds):
    """Brute-force confusion counts, independent of the formula path."""
    by_id = {p.entry_id: p for p in preds}
    cells = Counter()
    for e in entries:
        p = by_id[e.id]
        cells[(e.source != "benign", p.logic_error)] += 1
    tp, fn = cells[(True, True)], cells[(True, False)]
    fp, tn = cells[(False, True)], cells[(False, False)]
    return tp, fn, fp, tn


# ---------------------------------------------------------------------------
# Detection metrics
# ---------------------------------------------------------------------------


def test_detection_perfect_classifier():
    entries = [entry(i, [FallacyCode.AF]) for i in range(10)]
    entries += [entry(10 + i, []) for i in range(10)]
    preds = [pred(i, True, [FallacyCode.AF]) for i in range(10)]
    preds += [pred(10 + i, False) for i in range(10)]
    m = detection_metrics(entries, preds)
    assert (m.fp_rate, m.fn_rate, m.f1) == (0, 0, 1)


def test_detection_direct_formula_case():
    # TP=8, FN=2, FP=2, TN=8.
    entries = [entry(i, [FallacyCode.FP]) for i in range(10)]
    entries += [entry(10 + i, []) for i in range(10)]
    preds = [pred(i, i < 8, [FallacyCode.FP] if i < 8 else []) for i in range(10)]
    preds += [pred(10 + i, i < 2) for i in range(10)]
    m = detection_metrics(entries, preds)
    assert m.precision == Fraction(8, 10)
    assert m.recall == Fraction(8, 10)
    assert m.f1 == Fraction(8, 10)
    assert confusion_oracle(entries, preds) == (8, 2, 2, 8)


def test_detection_all_positive_on_even_mix():
    # 502 fallacious + 502 benign, everything flagged true.
    entries = [entry(i, [FallacyCode.EC]) for i in range(502)]
    entries += [entry(502 + i, []) for i in range(502)]
    preds = [pred(i, True, [FallacyCode.EC]) for i in range(1004)]
    m = detection_metrics(entries, preds)
    assert m.recall == 1
    assert m.fp_rate == 1
    assert m.f1 == Fraction(2, 3)
    tp, fn, fp, tn = confusion_oracle(entries, preds)
    assert (tp, fn, fp, tn) == (502, 0, 502, 0)


def test_detection_matches_confusion_oracle_on_random_mixes():
    rng = random.Random(3)
    for _ in range(50):
        entries, preds = [], []
        for i in range(rng.randint(2, 40)):
            fall = rng.random() < 0.5
            entries.append(entry(i, [FallacyCode.FA] if fall else []))
            preds.append(pred(i, rng.random() < 0.5, [FallacyCode.FA] if fall else []))
        tp, fn, fp, tn = confusion_oracle(entries, preds)
        if tp + fn == 0 or fp + tn == 0:
            with pytest.raises(MismatchError):
                detection_metrics(entries, preds)
            continue
        m = detection_metrics(entries, preds)
        assert m.fp_rate == Fraction(fp, fp + tn)
        assert m.fn_rate == Fraction(fn, tp + fn)
        expected_precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        assert m.precision == expected_precision


def test_detection_requires_exact_coverage():
    entries = [entry(0, [FallacyCode.AF]), entry(1, [])]
    with pytest.raises(MismatchError):
        detection_metrics(entries, [pred(0, True, [FallacyCode.AF])])
    with pytest.raises(MismatchError):
        detection_metrics(
            entries,
            [pred(0, True, [FallacyCode.AF]), pred(0, True, [FallacyCode.AF])],
        )


# ---------------------------------------------------------------------------
# Per-fallacy accuracy
# ---------------------------------------------------------------------------


def test_accuracy_membership_hit():
    entries = [entry(0, [FallacyCode.FP])]
    preds = [pred(0, True, [FallacyCode.FP, FallacyCode.EC])]
    assert per_fallacy_accuracy(entries, preds) == {FallacyCode.FP: Fraction(1)}


def test_accuracy_ratio_over_occurrences():
    entries = [entry(0, [FallacyCode.FS]), entry(1, [FallacyCode.FS])]
    preds = [pred(0, True, [FallacyCode.FS]), pred(1, True, [FallacyCode.WD])]
    assert per_fallacy_accuracy(entries, preds) == {FallacyCode.FS: Fraction(1, 2)}


def test_accuracy_multilabel_bookkeeping():
    entries = [entry(0, [FallacyCode.EC, FallacyCode.FA])]
    preds = [pred(0, True, [FallacyCode.FA])]
    out = per_fallacy_accuracy(entries, preds)
    assert out[FallacyCode.FA] == 1
    assert out[FallacyCode.EC] == 0


def test_accuracy_exhaustive_small_cases():
    # Every label subset of two codes against every predicted subset.
    codes = [FallacyCode.AF, FallacyCode.CT]
    subsets = [[], [codes[0]], [codes[1]], codes]
    for truth in subsets[1:]:
        for predicted in subsets:
            entries = [entry(0, truth)]
            preds = [pred(0, True, predicted)]
            out = per_fallacy_accuracy(entries, preds)
            for code in truth:
                assert out[code] == (1 if code in predicted else 0)
            assert set(out) == set(truth)


def test_accuracy_omits_codes_without_ground_truth():
    out = per_fallacy_accuracy(
        [entry(0, [FallacyCode.BQ])], [pred(0, True, [FallacyCode.FD])]
    )
    assert FallacyCode.FD not in out


# ---------------------------------------------------------------------------
# Ranked scorer
# ---------------------------------------------------------------------------


def test_ranked_top_hit_is_plus_one():
    assert ranked_score([FallacyCode.FP], [FallacyCode.FP]) == 1


def test_ranked_miss_then_hit():
    got = ranked_score([FallacyCode.EC], [FallacyCode.FA, FallacyCode.EC])
    assert got == Fraction(-1, 2)


def test_ranked_worst_case_is_negative_harmonic_13():
    truth = [FallacyCode.FP]
    wrong = [c for c in ALL_CODES if c is not FallacyCode.FP]
    assert len(wrong) == MAX_PREDICTED_LABELS == 13
    got = ranked_score(truth, wrong)
    assert got == -harmonic(13) == WORST_RANKED_SCORE
    # Independent float summation agrees to 1e-12.
    slow = -sum(1.0 / i for i in range(1, 14))
    assert abs(float(got) - slow) < 1e-12


def test_ranked_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError):
        ranked_score([FallacyCode.FP], [FallacyCode.EC, FallacyCode.EC])


@st.composite
def _gp_pairs(draw):
    truth = draw(st.lists(st.sampled_from(ALL_CODES), min_size=1, max_size=4, unique=True))
    predicted = draw(
        st.lists(st.sampled_from(ALL_CODES), min_size=0, max_size=13, unique=True)
    )
    return truth, predicted


@given(_gp_pairs())
@settings(max_examples=500, deadline=None)
def test_ranked_score_bounds(pair):
    truth, predicted = pair
    score = ranked_score(truth, predicted)
    hits = sum(1 for p in predicted if p in set(truth))
    assert WORST_RANKED_SCORE <= score <= harmonic(hits) <= harmonic(13)


@given(_gp_pairs())
@settings(max_examples=500, deadline=None)
def test_ranked_score_rank_monotonicity(pair):
    truth, predicted = pair
    truth_set = set(truth)
    for i in range(len(predicted) - 1):
        if predicted[i] not in truth_set and predicted[i + 1] in truth_set:
            swapped = list(predicted)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert ranked_score(truth, swapped) > ranked_score(truth, predicted)


def test_ranked_score_exact_when_all_hits():
    truth = [FallacyCode.AF, FallacyCode.CT, FallacyCode.IE]
    assert ranked_score(truth, truth) == harmonic(3)


# ---------------------------------------------------------------------------
# Cohen's kappa
# ---------------------------------------------------------------------------


def kappa_oracle(a, b):
    """Contingency-table recomputation."""
    n = len(a)
    table = Counter(zip(a, b))
    cats = set(a) | set(b)
    po = Fraction(sum(table[(c, c)] for c in cats), n)
    pe = Fraction(0)
    for c in cats:
        row = sum(v for (x, _), v in table.items() if x == c)
        col = sum(v for (_, y), v in table.items() if y == c)
        pe += Fraction(row, n) * Fraction(col, n)
    if pe == 1:
        return Fraction(1)
    return (po - pe) / (1 - pe)


def test_kappa_perfect_agreement():
    assert cohens_kappa(["x", "y", "x"], ["x", "y", "x"]) == 1


def test_kappa_zero_fixture_balanced():
    a, b = ["x", "x", "y", "y"], ["x", "y", "x", "y"]
    assert cohens_kappa(a, b) == 0 == kappa_oracle(a, b)


def test_kappa_zero_fixture_skewed():
    a, b = ["x", "x", "x", "y"], ["x", "x", "x", "x"]
    assert cohens_kappa(a, b) == 0 == kappa_oracle(a, b)


def test_kappa_matches_oracle_on_random_annotations():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 30)
        a = [rng.choice("abc") for _ in range(n)]
        b = [rng.choice("abc") for _ in range(n)]
        assert cohens_kappa(a, b) == kappa_oracle(a, b)


def test_kappa_is_symmetric():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 20)
        a = [rng.choice("ab") for _ in range(n)]
        b = [rng.choice("ab") for _ in range(n)]
        assert cohens_kappa(a, b) == cohens_kappa(b, a)


def test_kappa_accepts_label_sets():
    a = [{FallacyCode.AF}, {FallacyCode.EC, FallacyCode.FA}]
    b = [{FallacyCode.AF}, {FallacyCode.FA, FallacyCode.EC}]
    assert cohens_kappa(a, b) == 1


def test_kappa_length_mismatch():
    with pytest.raises(LengthMismatchError):
        cohens_kappa(["x"], ["x", "y"])
    with pytest.raises(LengthMismatchError):
        cohens_kappa([], [])


# ---------------------------------------------------------------------------
# Label counts and score statistics
# ---------------------------------------------------------------------------


def test_label_count_empty():
    assert label_count([]) == 0


def test_label_count_sums_lengths():
    preds = [
        pred(0, True, [FallacyCode.AF, FallacyCode.CT]),
        pred(1, True, [FallacyCode.IE]),
        pred(2, False, []),
    ]
    assert label_count(preds) == 3


def triple(code: FallacyCode, scores) -> ScoreTriple:
    return ScoreTriple("s", code, tuple(scores))


def test_score_stats_all_threes():
    triples = [triple(FallacyCode.AF, (3, 3, 3)) for _ in range(20)]
    stats = score_stats(triples, "pipeline")
    assert stats.means[("pipeline", FallacyCode.AF)] == 3
    assert stats.histogram[("pipeline", FallacyCode.AF, 3)] == 60


def test_score_stats_reproduces_two_point_eight_three():
    # 50 threes and 10 twos over 60 scores: mean 170/60 displays as 2.83.
    scores = [3] * 50 + [2] * 10
    triples = [triple(FallacyCode.IE, scores[i : i + 3]) for i in range(0, 60, 3)]
    stats = score_stats(triples, "pipeline")
    mean = stats.means[("pipeline", FallacyCode.IE)]
    assert mean == Fraction(170, 60)
    assert f"{float(mean):.2f}" == "2.83"


def test_score_stats_empty():
    stats = score_stats([], "x")
    assert stats.histogram == {} and stats.means == {}


def test_score_histogram_csv_shape():
    stats = score_stats([triple(FallacyCode.AF, (3, 2, 3))], "m")
    lines = stats.histogram_csv().strip().splitlines()
    assert lines[0] == "method,code,score,count"
    assert "m,AF,3,2" in lines


# ---------------------------------------------------------------------------
# Integer-exact sums against the step-by-step Fraction loops
# ---------------------------------------------------------------------------


def reference_ranked_score(truth, predicted) -> Fraction:
    """Adds one Fraction per rank."""
    truth_set = set(truth)
    total = Fraction(0)
    for position, label in enumerate(predicted, start=1):
        step = Fraction(1, position)
        total += step if label in truth_set else -step
    return total


def reference_score_means(triples, method_tag):
    """Adds one Fraction per individual score."""
    sums, counts = {}, Counter()
    for t in triples:
        cell = (method_tag, t.code)
        for score in t.scores:
            sums[cell] = sums.get(cell, Fraction(0)) + score
            counts[cell] += 1
    return {cell: sums[cell] / counts[cell] for cell in sums}


@given(_gp_pairs())
@settings(max_examples=500, deadline=None)
def test_ranked_score_matches_fraction_loop(pair):
    truth, predicted = pair
    assert ranked_score(truth, predicted) == reference_ranked_score(truth, predicted)


_TRIPLES = st.lists(
    st.builds(
        triple,
        st.sampled_from(ALL_CODES),
        st.tuples(*[st.integers(0, 3)] * 3),
    ),
    max_size=40,
)


@given(_TRIPLES)
@settings(max_examples=300, deadline=None)
def test_score_stats_means_match_fraction_loop(triples):
    means = score_stats(triples, "m").means
    expected = reference_score_means(triples, "m")
    assert means == expected and list(means) == list(expected)


_REPORT_ROWS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(ALL_CODES), max_size=3, unique=True),
        st.booleans(),
        st.lists(st.sampled_from(ALL_CODES), max_size=MAX_PREDICTED_LABELS, unique=True),
    ),
    max_size=30,
)


@given(_REPORT_ROWS)
@settings(max_examples=300, deadline=None)
def test_build_report_ranked_mean_matches_fraction_loop(rows):
    # One fallacious and one benign entry first: detection needs both.
    rows = [([FallacyCode.AF], True, [FallacyCode.FS]), ([], False, [])] + rows
    entries = [entry(i, labels) for i, (labels, _, _) in enumerate(rows)]
    preds = [pred(i, flag, labels) for i, (_, flag, labels) in enumerate(rows)]
    ranked = [
        reference_ranked_score(e.labels, p.labels)
        for e, p in zip(entries, preds)
        if e.fallacious
    ]
    report = build_report(entries, preds)
    assert report.ranked_scores == ranked
    assert report.ranked_mean == sum(ranked, Fraction(0)) / len(ranked)


_PUBLIC_ROWS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(ALL_CODES), max_size=4),
        st.booleans(),
        st.one_of(
            st.lists(st.sampled_from(ALL_CODES), max_size=MAX_PREDICTED_LABELS, unique=True),
            st.permutations(ALL_CODES).map(lambda codes: codes[:MAX_PREDICTED_LABELS]),
        ),
    ),
    max_size=30,
)


@given(_PUBLIC_ROWS, st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_build_report_equals_the_public_metrics(rows, agree, rng):
    # One fallacious and one benign entry first: detection needs both.
    rows = [([FallacyCode.AF], True, [FallacyCode.FS]), ([], False, [])] + rows
    if agree:  # every prediction names its truth's labels, in any order: kappa is 1
        rows = [(truth, flag, rng.sample(list(dict.fromkeys(truth)), len(set(truth))))
                for truth, flag, _ in rows]
    entries = [entry(i, labels) for i, (labels, _, _) in enumerate(rows)]
    preds = [pred(i, flag, labels) for i, (_, flag, labels) in enumerate(rows)]
    ranked = [ranked_score(e.labels, p.labels) for e, p in zip(entries, preds) if e.fallacious]
    kappa = cohens_kappa([e.labels for e in entries], [p.labels for p in preds])
    report = build_report(entries, preds)
    assert report.detection == detection_metrics(entries, preds)
    assert report.per_fallacy == per_fallacy_accuracy(entries, preds)
    # The public functions share build_report's counting pass, so the
    # counts are checked against brute force as well.
    tp, fn, fp, tn = confusion_oracle(entries, preds)
    assert (report.detection.fp_rate, report.detection.fn_rate) == (
        Fraction(fp, fp + tn), Fraction(fn, tp + fn)
    )
    hits, totals = Counter(), Counter()
    for e, p in zip(entries, preds):
        for code in e.labels:
            totals[code] += 1
            hits[code] += code in p.labels
    assert report.per_fallacy == {code: Fraction(hits[code], totals[code]) for code in totals}
    sets = [frozenset(e.labels) for e in entries], [frozenset(p.labels) for p in preds]
    assert report.kappa == kappa_oracle(*sets)
    assert report.ranked_scores == ranked
    assert report.ranked_mean == sum(ranked, Fraction(0)) / len(ranked)
    assert report.kappa == kappa and (kappa == 1 or not agree)
    assert report.label_total == label_count(preds)
    for value in (report.ranked_mean, report.kappa, *report.ranked_scores, *report.per_fallacy.values()):
        assert type(value) is Fraction


# ---------------------------------------------------------------------------
# Enhancement
# ---------------------------------------------------------------------------


def test_enhancement_ct_column():
    got = enhancement(Fraction(227, 100), Fraction(292, 100))
    assert abs(float(got) - 28.68) < 0.7
    assert got == Fraction(65, 227) * 100


def test_enhancement_ie_column():
    got = enhancement(Fraction(178, 100), Fraction(283, 100))
    assert abs(float(got) - 58.88) < 0.7


def test_enhancement_no_change_is_zero():
    assert enhancement(Fraction(5, 2), Fraction(5, 2)) == 0


def test_enhancement_zero_baseline_rejected():
    with pytest.raises(DivisionDomainError):
        enhancement(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# Entry and prediction validation; report assembly
# ---------------------------------------------------------------------------


def test_benign_entries_must_have_empty_labels():
    with pytest.raises(JsonlFormatError):
        BenchmarkEntry("x", "s", (FallacyCode.AF,), "benign")
    with pytest.raises(JsonlFormatError):
        BenchmarkEntry("x", "s", (), "bench")


def test_prediction_label_cap_and_duplicates():
    with pytest.raises(DuplicateLabelError):
        Prediction("x", True, (FallacyCode.AF, FallacyCode.AF))
    with pytest.raises(JsonlFormatError):
        Prediction("x", True, tuple(FallacyCode))


def test_build_report_end_to_end():
    entries = [
        entry(0, [FallacyCode.WD]),
        entry(1, [FallacyCode.AF, FallacyCode.EC]),
        entry(2, []),
        entry(3, []),
    ]
    preds = [
        pred(0, True, [FallacyCode.WD]),
        pred(1, True, [FallacyCode.AF]),
        pred(2, False),
        pred(3, True, [FallacyCode.FS]),
    ]
    report = build_report(entries, preds)
    assert report.detection.fp_rate == Fraction(1, 2)
    assert report.detection.recall == 1
    assert report.per_fallacy[FallacyCode.WD] == 1
    assert report.per_fallacy[FallacyCode.EC] == 0
    assert report.ranked_mean == Fraction(1)  # (1 + 1) / 2
    assert report.label_total == 3
    data = report.to_json_dict()
    assert data["detection"]["f1"] == round(float(report.detection.f1), 6)
    assert "WD" in data["per_fallacy_accuracy_pct"]
    text = report.to_text()
    assert "fp_rate" in text and "label count" in text


def test_detection_f1_zero_when_nothing_flagged():
    entries = [entry(0, [FallacyCode.AF]), entry(1, [])]
    preds = [pred(0, False), pred(1, False)]
    m = detection_metrics(entries, preds)
    assert m.precision == 0 and m.recall == 0 and m.f1 == 0
    assert m.fn_rate == 1 and m.fp_rate == 0


def test_parse_code_edges():
    from fallacylab.errors import UnknownLabelError
    from fallacylab.labels import parse_code

    assert parse_code("  false   premise ") is FallacyCode.FP
    assert parse_code("ac") is FallacyCode.AF
    assert parse_code("False Cause") is FallacyCode.FS
    with pytest.raises(UnknownLabelError):
        parse_code("straw man")
    for label in (["AF"], {"AF": 1}, 5, None, True):
        with pytest.raises(UnknownLabelError):
            parse_code(label)


def test_every_label_key_is_its_own_normal_form():
    # parse_code returns an exact key's code before it normalises the text,
    # which gives the same code only because each key normalises to itself.
    from fallacylab.labels import _ALIASES

    for key in _ALIASES:
        assert " ".join(key.split()).upper() == key
