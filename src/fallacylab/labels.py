"""Fallacy codes, display names, alias normalization, and definition text.

Eleven codes carry executable rule schemas; EC, NF, and FD exist as labels
only (their sentences are produced by direct prompting elsewhere, so this
package never derives instances for them).
"""
from __future__ import annotations

import enum
import functools
from typing import Sequence

from .errors import DuplicateLabelError, JsonlFormatError, UnknownLabelError


class FallacyCode(enum.Enum):
    ID = "ID"
    FA = "FA"
    FP = "FP"
    AF = "AF"
    FC = "FC"
    BQ = "BQ"
    CT = "CT"
    IE = "IE"
    IT = "IT"
    WD = "WD"
    FS = "FS"
    EC = "EC"
    NF = "NF"
    FD = "FD"

    # Members are singletons, so identity hashing is exact, and it runs in C
    # where ``Enum.__hash__`` hashes the name in Python on every set, dict
    # and Counter use.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    @property
    def display_name(self) -> str:
        return DISPLAY_NAMES[self]


#: Codes backed by an executable rule schema, in catalog order.
SCHEMA_CODES: tuple[FallacyCode, ...] = (
    FallacyCode.ID,
    FallacyCode.FA,
    FallacyCode.FP,
    FallacyCode.AF,
    FallacyCode.FC,
    FallacyCode.BQ,
    FallacyCode.CT,
    FallacyCode.IE,
    FallacyCode.IT,
    FallacyCode.WD,
    FallacyCode.FS,
)

#: Codes that are labels only (no schema, generation handled by direct prompting).
LABEL_ONLY_CODES: tuple[FallacyCode, ...] = (
    FallacyCode.EC,
    FallacyCode.NF,
    FallacyCode.FD,
)

DISPLAY_NAMES: dict[FallacyCode, str] = {
    FallacyCode.ID: "Improper Distribution or Addition",
    FallacyCode.FA: "False Analogy",
    FallacyCode.FP: "False Premise",
    FallacyCode.AF: "Accident Fallacy",
    FallacyCode.FC: "Fallacy of Composition",
    FallacyCode.BQ: "Begging the Question",
    FallacyCode.CT: "Contextomy",
    FallacyCode.IE: "Inverse Error",
    FallacyCode.IT: "Improper Transposition",
    FallacyCode.WD: "Wrong Direction",
    FallacyCode.FS: "False Cause",
    FallacyCode.EC: "Equivocation",
    FallacyCode.NF: "Nominal Fallacy",
    FallacyCode.FD: "False Dilemma",
}

#: One-sentence definition per code, embedded verbatim in scoring and judging
#: prompts.
DEFINITIONS: dict[FallacyCode, str] = {
    FallacyCode.FD: (
        "Presenting an issue as having only two possible outcomes, either "
        "right or wrong, without recognising that additional alternatives "
        "may exist."
    ),
    FallacyCode.EC: (
        "Misleading use of a word or phrase that has multiple meanings, "
        "creating ambiguity that derails the reasoning."
    ),
    FallacyCode.FP: (
        "Building an argument on an unfounded, non-existent, or unreasonable "
        "assumption, so the conclusion is invalid even if the steps look "
        "sound."
    ),
    FallacyCode.FA: (
        "Assuming that because two things share certain characteristics, one "
        "must also possess further attributes of the other, without a valid "
        "basis for the transfer."
    ),
    FallacyCode.WD: (
        "Attributing causality in reverse: treating the effect as the cause "
        "and the cause as the effect."
    ),
    FallacyCode.FC: (
        "Assuming that what is true for a part of something must also be "
        "true for the whole, ignoring how components differ from the "
        "composite."
    ),
    FallacyCode.BQ: (
        "Using a claim as both premise and conclusion, assuming the truth of "
        "the very thing that was to be proven."
    ),
    FallacyCode.FS: (
        "Assuming a causal relationship between two events solely because "
        "one follows or accompanies the other."
    ),
    FallacyCode.IE: (
        "Reasoning that if A implies B, then not-A must imply not-B, "
        "ignoring that B may arise from other causes."
    ),
    FallacyCode.IT: (
        "Inferring that if A implies B, then B must also imply A, as if "
        "implication were automatically reversible."
    ),
    FallacyCode.ID: (
        "Reasoning that individual effects can be summed or redistributed "
        "across repetitions or members without considering how they actually "
        "combine."
    ),
    FallacyCode.CT: (
        "Selectively quoting or reinterpreting material outside its original "
        "context in a way that distorts the intended meaning."
    ),
    FallacyCode.NF: (
        "Interpreting a metaphorical or figurative expression as a literal "
        "statement."
    ),
    FallacyCode.AF: (
        "Applying a general rule rigidly to a specific case where an obvious "
        "exception should be considered."
    ),
}

# Accepted spellings beyond the canonical two-letter codes.  "AC" is a known
# alternate shorthand for the accident fallacy.
_ALIASES: dict[str, FallacyCode] = {
    "AC": FallacyCode.AF,
}
_ALIASES.update({code.value: code for code in FallacyCode})
_ALIASES.update({name.upper(): code for code, name in DISPLAY_NAMES.items()})


#: Maximum number of labels a prediction may carry: all types minus one.
MAX_PREDICTED_LABELS = len(FallacyCode) - 1


def check_predicted_labels(labels: Sequence[FallacyCode], owner: str) -> None:
    """Raise unless ``labels`` can be one prediction's ranked labels: no
    repeated code and at most MAX_PREDICTED_LABELS codes.  ``owner`` begins
    the message."""
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError(f"{owner}: repeated label")
    if len(labels) > MAX_PREDICTED_LABELS:
        raise JsonlFormatError(f"{owner}: more than {MAX_PREDICTED_LABELS} labels")


def parse_code(text: str) -> FallacyCode:
    """Map a label string (code, alias, or display name) to its code.

    Raises UnknownLabelError when no mapping exists.
    """
    # Every key is its own normal form, so an exact hit needs no normalising.
    if type(text) is str and text in _ALIASES:
        return _ALIASES[text]
    key = " ".join(str(text).split()).upper()
    try:
        return _ALIASES[key]
    except KeyError:
        raise UnknownLabelError(f"unknown fallacy label: {text!r}") from None


@functools.cache
def definitions_block() -> str:
    """All 14 definitions as one prompt-ready block, one per line.

    Every scoring and judging prompt embeds this constant text, so it is
    built once per process.
    """
    lines = []
    for code in FallacyCode:
        lines.append(f"- {code.display_name} ({code.value}): {DEFINITIONS[code]}")
    return "\n".join(lines)
