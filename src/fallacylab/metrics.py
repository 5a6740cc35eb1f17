"""Evaluation mathematics over benchmark entries and model predictions.

Everything is computed in exact rational arithmetic (fractions.Fraction);
rounding happens only when a report is rendered.  Detection treats a
sentence as positive when its source is not benign and as flagged when the
prediction's explicit logic_error boolean is true.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from .errors import (
    DivisionDomainError,
    DuplicateLabelError,
    JsonlFormatError,
    LengthMismatchError,
    MismatchError,
)
from .jsonl import read_id, read_jsonl, read_labels, read_text
from .labels import MAX_PREDICTED_LABELS, FallacyCode, check_predicted_labels

if TYPE_CHECKING:
    from .gateway import ScoreTriple

_SOURCES = ("bench", "augmented", "benign")


# ---------------------------------------------------------------------------
# Data types and JSONL interfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkEntry:
    id: str
    sentence: str
    labels: tuple[FallacyCode, ...]
    source: str  # bench | augmented | benign

    def __post_init__(self):
        if self.source not in _SOURCES:
            raise JsonlFormatError(f"bad source {self.source!r} for entry {self.id}")
        if (self.source == "benign") != (not self.labels):
            raise JsonlFormatError(
                f"entry {self.id}: benign entries and only benign entries "
                "have empty labels"
            )

    @property
    def fallacious(self) -> bool:
        return self.source != "benign"


@dataclass(frozen=True)
class Prediction:
    entry_id: str
    logic_error: bool
    labels: tuple[FallacyCode, ...]

    def __post_init__(self):
        check_predicted_labels(self.labels, f"prediction {self.entry_id}")


def load_benchmark(path: str | Path) -> list[BenchmarkEntry]:
    """The file's entries; an id that repeats is an error at its line."""
    seen: set[str] = set()

    def entry(record: dict) -> BenchmarkEntry:
        return BenchmarkEntry(
            id=read_id(record, seen),
            sentence=read_text(record, "sentence"),
            labels=read_labels(record),
            source=record.get("source", "bench"),
        )

    return list(read_jsonl(path, ("id", "sentence"), entry))


def load_predictions(path: str | Path) -> list[Prediction]:
    """The file's predictions; an id that repeats is an error at its line."""
    seen: set[str] = set()

    def prediction(record: dict) -> Prediction:
        flag = record["logic_error"]
        if not isinstance(flag, bool):
            raise JsonlFormatError(f"'logic_error' must be true or false, found {flag!r}")
        return Prediction(
            entry_id=read_id(record, seen), logic_error=flag, labels=read_labels(record)
        )

    return list(read_jsonl(path, ("id", "logic_error"), prediction))


# ---------------------------------------------------------------------------
# Detection metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionMetrics:
    fp_rate: Fraction
    fn_rate: Fraction
    precision: Fraction
    recall: Fraction
    f1: Fraction


def _pair(entries: Sequence[BenchmarkEntry], preds: Sequence[Prediction]):
    by_id = {}
    for pred in preds:
        if pred.entry_id in by_id:
            raise MismatchError(f"duplicate prediction for {pred.entry_id}")
        by_id[pred.entry_id] = pred
    if set(by_id) != {e.id for e in entries} or len(entries) != len(by_id):
        raise MismatchError("predictions must cover the entries exactly once")
    return [(entry, by_id[entry.id]) for entry in entries]


def detection_metrics(
    entries: Sequence[BenchmarkEntry], preds: Sequence[Prediction]
) -> DetectionMetrics:
    """FP/FN rates plus precision, recall, and F1 over the fallacious class."""
    return _detection(_pair(entries, preds))


def _detection(pairs: Sequence[tuple[BenchmarkEntry, Prediction]]) -> DetectionMetrics:
    tp = fp = fn = tn = 0
    for entry, pred in pairs:
        if entry.fallacious and pred.logic_error:
            tp += 1
        elif entry.fallacious:
            fn += 1
        elif pred.logic_error:
            fp += 1
        else:
            tn += 1
    n_pos = tp + fn
    n_neg = fp + tn
    if n_pos == 0 or n_neg == 0:
        raise MismatchError(
            "detection metrics need at least one fallacious and one benign entry"
        )
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, n_pos)
    denom = precision + recall
    f1 = 2 * precision * recall / denom if denom else Fraction(0)
    return DetectionMetrics(
        fp_rate=Fraction(fp, n_neg),
        fn_rate=Fraction(fn, n_pos),
        precision=precision,
        recall=recall,
        f1=f1,
    )


def per_fallacy_accuracy(
    entries: Sequence[BenchmarkEntry], preds: Sequence[Prediction]
) -> dict[FallacyCode, Fraction]:
    """Share of ground-truth label occurrences found in the predicted labels.

    Counted per label occurrence, not per sentence; codes with zero
    ground-truth occurrences are omitted.
    """
    return _per_fallacy(_pair(entries, preds))


def _per_fallacy(
    pairs: Sequence[tuple[BenchmarkEntry, Prediction]]
) -> dict[FallacyCode, Fraction]:
    hits: Counter[FallacyCode] = Counter()
    totals: Counter[FallacyCode] = Counter()
    for entry, pred in pairs:
        predicted = set(pred.labels)
        for code in entry.labels:
            totals[code] += 1
            if code in predicted:
                hits[code] += 1
    return {code: Fraction(hits[code], totals[code]) for code in totals}


# ---------------------------------------------------------------------------
# Ranked categorization score
# ---------------------------------------------------------------------------


def ranked_score(
    truth: Sequence[FallacyCode], predicted: Sequence[FallacyCode]
) -> Fraction:
    """Sum of +1/i for a rank-i hit and -1/i for a rank-i miss."""
    if len(set(predicted)) != len(predicted):
        raise DuplicateLabelError("predicted labels must be distinct")
    truth_set = set(truth)
    # Every 1/i shares the denominator lcm(1..n), so the sum is an integer
    # over it, and one Fraction is built from that.
    common = math.lcm(*range(1, len(predicted) + 1))
    total = 0
    for position, label in enumerate(predicted, start=1):
        step = common // position
        total += step if label in truth_set else -step
    return Fraction(total, common)


def harmonic(n: int) -> Fraction:
    """H_n as an exact rational."""
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


#: Lowest reachable ranked score: every one of the 13 allowed labels wrong.
WORST_RANKED_SCORE = -harmonic(MAX_PREDICTED_LABELS)


# ---------------------------------------------------------------------------
# Inter-annotator agreement
# ---------------------------------------------------------------------------


def cohens_kappa(a: Sequence[Hashable], b: Sequence[Hashable]) -> Fraction:
    """Cohen's kappa over two equal-length categorical annotation lists.

    Unhashable annotations (lists/sets of labels) are frozen so that the
    category is the exact label set.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"annotation lengths differ: {len(a)} vs {len(b)}")
    if not a:
        raise LengthMismatchError("annotation lists must be non-empty")
    xs = [_freeze(v) for v in a]
    ys = [_freeze(v) for v in b]
    n = len(xs)
    observed = Fraction(sum(1 for x, y in zip(xs, ys) if x == y), n)
    count_a: Counter = Counter(xs)
    count_b: Counter = Counter(ys)
    expected = sum(
        (
            Fraction(count_a[c], n) * Fraction(count_b[c], n)
            for c in set(count_a) | set(count_b)
        ),
        Fraction(0),
    )
    if expected == 1:
        return Fraction(1)
    return (observed - expected) / (1 - expected)


def _freeze(value: Hashable) -> Hashable:
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, (list, tuple)):
        return frozenset(value)
    return value


# ---------------------------------------------------------------------------
# Label counts and score statistics
# ---------------------------------------------------------------------------


def label_count(preds: Sequence[Prediction]) -> int:
    """Total number of predicted labels across all predictions."""
    return sum(len(p.labels) for p in preds)


@dataclass(frozen=True)
class ScoreStats:
    histogram: Mapping[tuple[str, FallacyCode, int], int]
    means: Mapping[tuple[str, FallacyCode], Fraction]

    def histogram_csv(self) -> str:
        lines = ["method,code,score,count"]
        for (method, code, score), count in sorted(
            self.histogram.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2])
        ):
            lines.append(f"{method},{code.value},{score},{count}")
        return "\n".join(lines) + "\n"

    def means_table(self) -> str:
        lines = ["method  code  mean"]
        for (method, code), mean in sorted(
            self.means.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            lines.append(f"{method}  {code.value}  {_dec(mean, 2)}")
        return "\n".join(lines) + "\n"


def score_stats(triples: Sequence[ScoreTriple], method_tag: str) -> ScoreStats:
    """Histogram and exact mean of individual scores per (method, code)."""
    histogram: Counter[tuple[str, FallacyCode, int]] = Counter()
    sums: Counter[FallacyCode] = Counter()
    counts: Counter[FallacyCode] = Counter()
    for triple in triples:
        code = triple.code
        for score in triple.scores:
            histogram[(method_tag, code, score)] += 1
        sums[code] += sum(triple.scores)
        counts[code] += len(triple.scores)
    means = {(method_tag, code): Fraction(sums[code], counts[code]) for code in sums}
    return ScoreStats(dict(histogram), means)


def enhancement(baseline_mean: Fraction, improved_mean: Fraction) -> Fraction:
    """Relative improvement over a baseline mean, as a percentage."""
    baseline_mean = Fraction(baseline_mean)
    improved_mean = Fraction(improved_mean)
    if baseline_mean == 0:
        raise DivisionDomainError("baseline mean must be positive")
    return (improved_mean - baseline_mean) / baseline_mean * 100


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    detection: DetectionMetrics
    per_fallacy: dict[FallacyCode, Fraction]
    ranked_scores: list[Fraction]
    ranked_mean: Fraction
    kappa: Fraction
    label_total: int

    def to_json_dict(self) -> dict:
        return {
            "detection": {
                "fp_rate": _num(self.detection.fp_rate),
                "fn_rate": _num(self.detection.fn_rate),
                "precision": _num(self.detection.precision),
                "recall": _num(self.detection.recall),
                "f1": _num(self.detection.f1),
            },
            "per_fallacy_accuracy_pct": {
                code.value: _num(acc * 100)
                for code, acc in sorted(
                    self.per_fallacy.items(), key=lambda kv: kv[0].value
                )
            },
            "ranked": {
                "mean": _num(self.ranked_mean),
                "count": len(self.ranked_scores),
            },
            "kappa": _num(self.kappa),
            "label_count": self.label_total,
        }

    def to_text(self) -> str:
        det = self.detection
        lines = [
            "detection",
            f"  fp_rate    {_dec(det.fp_rate, 3)}",
            f"  fn_rate    {_dec(det.fn_rate, 3)}",
            f"  precision  {_dec(det.precision, 3)}",
            f"  recall     {_dec(det.recall, 3)}",
            f"  f1         {_dec(det.f1, 3)}",
            "per-fallacy accuracy (%)",
        ]
        for code, acc in sorted(self.per_fallacy.items(), key=lambda kv: kv[0].value):
            lines.append(f"  {code.value}  {_dec(acc * 100, 0)}")
        lines.append(f"ranked score mean  {_dec(self.ranked_mean, 4)}")
        lines.append(f"kappa              {_dec(self.kappa, 4)}")
        lines.append(f"label count        {self.label_total}")
        return "\n".join(lines) + "\n"


def build_report(
    entries: Sequence[BenchmarkEntry], preds: Sequence[Prediction]
) -> EvalReport:
    pairs = _pair(entries, preds)
    ranked = [
        ranked_score(entry.labels, pred.labels)
        for entry, pred in pairs
        if entry.fallacious
    ]
    kappa = cohens_kappa(
        [frozenset(e.labels) for e, _ in pairs],
        [frozenset(p.labels) for _, p in pairs],
    )
    # Detection needs a fallacious entry, so ``ranked`` is never empty below.
    detection = _detection(pairs)
    return EvalReport(
        detection=detection,
        per_fallacy=_per_fallacy(pairs),
        ranked_scores=ranked,
        ranked_mean=_mean(ranked),
        kappa=kappa,
        label_total=label_count(preds),
    )


def _mean(values: Sequence[Fraction]) -> Fraction:
    """Exact mean, summed as integers over the values' common denominator."""
    common = math.lcm(*(v.denominator for v in values))
    total = sum(v.numerator * (common // v.denominator) for v in values)
    return Fraction(total, common * len(values))


def _num(value: Fraction) -> float:
    return round(float(value), 6)


def _dec(value: Fraction, places: int) -> str:
    return f"{float(value):.{places}f}"
