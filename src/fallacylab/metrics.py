"""Evaluation mathematics over benchmark entries and model predictions.

Everything is computed in exact rational arithmetic (fractions.Fraction);
rounding happens only when a report is rendered.  Detection treats a
sentence as positive when its source is not benign and as flagged when the
prediction's explicit logic_error boolean is true.
"""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Mapping, NamedTuple, Sequence

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
    from .gateway import JudgeVerdict, ScoreTriple

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

    @classmethod
    def from_verdict(cls, entry_id: str, verdict: JudgeVerdict) -> Prediction:
        """The prediction a judge verdict makes for an entry.  A verdict's
        labels were checked when it was built, so the fields are set as a
        frozen dataclass's ``__init__`` sets them, without ``__post_init__``
        (filling ``vars(prediction)`` would give each one a dict of its own)."""
        prediction = object.__new__(cls)
        object.__setattr__(prediction, "entry_id", entry_id)
        object.__setattr__(prediction, "logic_error", verdict.logic_error)
        object.__setattr__(prediction, "labels", verdict.logic_fallacies)
        return prediction


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


#: Every ranked score of at most MAX_PREDICTED_LABELS labels is an integer
#: over this denominator, lcm(1..13); a rank-i step is ``_RANK_STEPS[i - 1]``.
RANK_DENOMINATOR = math.lcm(*range(1, MAX_PREDICTED_LABELS + 1))
_RANK_STEPS = tuple(RANK_DENOMINATOR // i for i in range(1, MAX_PREDICTED_LABELS + 1))


class _Tally(NamedTuple):
    """What a report counts, from one pass over the pairs in integers."""

    confusion: tuple[int, int, int, int]  # tp, fn, fp, tn
    per_fallacy: dict[FallacyCode, Fraction]
    ranked: list[int]  # over RANK_DENOMINATOR, one per fallacious entry
    kappa: Fraction
    labels: int  # predicted labels in all


def _tally(pairs: Sequence[tuple[BenchmarkEntry, Prediction]]) -> _Tally:
    tp = fn = fp = tn = agree = labels = 0
    hits: Counter[FallacyCode] = Counter()
    totals: Counter[FallacyCode] = Counter()
    truth_sets: Counter[frozenset] = Counter()
    predicted_sets: Counter[frozenset] = Counter()
    ranked = []
    for entry, pred in pairs:
        truth = frozenset(entry.labels)
        predicted = frozenset(pred.labels)
        truth_sets[truth] += 1
        predicted_sets[predicted] += 1
        agree += truth == predicted
        labels += len(pred.labels)
        if not entry.labels:  # benign: benign entries, and only they, have no labels
            if pred.logic_error:
                fp += 1
            else:
                tn += 1
            continue
        if pred.logic_error:
            tp += 1
        else:
            fn += 1
        for code in entry.labels:
            totals[code] += 1
            if code in predicted:
                hits[code] += 1
        # A prediction has at most MAX_PREDICTED_LABELS labels, so zip
        # leaves none out.
        score = 0
        for step, label in zip(_RANK_STEPS, pred.labels):
            score += step if label in truth else -step
        ranked.append(score)
    return _Tally(
        (tp, fn, fp, tn),
        {code: Fraction(hits[code], total) for code, total in totals.items()},
        ranked,
        _kappa(len(pairs), agree, truth_sets, predicted_sets),
        labels,
    )


def detection_metrics(
    entries: Sequence[BenchmarkEntry], preds: Sequence[Prediction]
) -> DetectionMetrics:
    """FP/FN rates plus precision, recall, and F1 over the fallacious class."""
    return _detection(*_tally(_pair(entries, preds)).confusion)


def _detection(tp: int, fn: int, fp: int, tn: int) -> DetectionMetrics:
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
    return _tally(_pair(entries, preds)).per_fallacy


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
    agree = sum(1 for x, y in zip(xs, ys) if x == y)
    return _kappa(len(xs), agree, Counter(xs), Counter(ys))


def _kappa(n: int, agree: int, count_a: Mapping, count_b: Mapping) -> Fraction:
    """Kappa from ``agree`` matching pairs among ``n`` and each side's count
    per category.  Observed agreement is ``agree / n`` and the chance one is
    ``expected / n**2``, so kappa is one ratio of integers."""
    expected = sum(count * count_b.get(c, 0) for c, count in count_a.items())
    if expected == n * n:
        return Fraction(1)
    return Fraction(agree * n - expected, n * n - expected)


def _freeze(value: Hashable) -> Hashable:
    if isinstance(value, (set, frozenset, list, tuple)):
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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("method", "code", "score", "count"))
        writer.writerows(
            (method, code.value, score, count)
            for (method, code, score), count in sorted(
                self.histogram.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2])
            )
        )
        return out.getvalue()

    def means_table(self) -> str:
        lines = ["method  code  mean"]
        for (method, code), mean in sorted(
            self.means.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            lines.append(f"{method}  {code.value}  {_dec(mean, 2)}")
        return "\n".join(lines) + "\n"


def score_stats(triples: Sequence[ScoreTriple], method_tag: str) -> ScoreStats:
    """Histogram and exact mean of individual scores per (method, code)."""
    tallies: dict[FallacyCode, list[int]] = {}  # code -> count of each score 0..3
    for triple in triples:
        tally = tallies.get(triple.code)
        if tally is None:
            tally = tallies[triple.code] = [0, 0, 0, 0]
        for score in triple.scores:
            tally[score] += 1
    histogram = {
        (method_tag, code, score): count
        for code, tally in tallies.items()
        for score, count in enumerate(tally)
        if count
    }
    means = {
        (method_tag, code): Fraction(sum(s * count for s, count in enumerate(tally)), sum(tally))
        for code, tally in tallies.items()
    }
    return ScoreStats(histogram, means)


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
    ranked_numerators: list[int]  # each fallacious entry's score, over RANK_DENOMINATOR
    ranked_mean: Fraction
    kappa: Fraction
    label_total: int

    @property
    def ranked_scores(self) -> list[Fraction]:
        """Each fallacious entry's ranked score, in entry order."""
        return [Fraction(n, RANK_DENOMINATOR) for n in self.ranked_numerators]

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
                "count": len(self.ranked_numerators),
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
    tally = _tally(_pair(entries, preds))
    # Detection needs a fallacious entry, so ``ranked`` is never empty below.
    detection = _detection(*tally.confusion)
    ranked = tally.ranked
    return EvalReport(
        detection=detection,
        per_fallacy=tally.per_fallacy,
        ranked_numerators=ranked,
        ranked_mean=Fraction(sum(ranked), RANK_DENOMINATOR * len(ranked)),
        kappa=tally.kappa,
        label_total=tally.labels,
    )


def _num(value: Fraction) -> float:
    return round(float(value), 6)


def _dec(value: Fraction, places: int) -> str:
    return f"{float(value):.{places}f}"
