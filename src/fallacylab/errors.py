"""Exception hierarchy for the whole package."""


class FallacyLabError(Exception):
    """Base class for all package errors."""


# --- program text / knowledge base --------------------------------------


class ParseError(FallacyLabError):
    """Malformed program text.  Carries the offending position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class InputDecodeError(FallacyLabError):
    """An input file is not UTF-8 text.  The message names the file and line."""


# --- fallacy schemas -----------------------------------------------------


class UnknownSchemaError(FallacyLabError):
    """The fallacy code carries no rule schema."""


class SignatureError(FallacyLabError):
    """A knowledge base fact clashes with a schema predicate signature."""


class UnknownLabelError(FallacyLabError):
    """A fallacy label string could not be mapped to a canonical code."""


# --- LLM gateway ----------------------------------------------------------


class TemplateError(FallacyLabError):
    """A prompt template was rendered with an unbound placeholder."""


class ProviderError(FallacyLabError):
    """The completion provider failed: after its retries ran out, or at once
    where a retry would not help (a 4xx, a malformed body, a bad endpoint)."""


class ReplayMissError(ProviderError):
    """Replay mode saw a request with no matching cassette entry."""


class EmptyYieldError(FallacyLabError):
    """Fact generation produced zero usable records."""


class ModelOutputError(FallacyLabError):
    """A model reply the gateway cannot use, even when asked once more."""


class CountMismatchError(ModelOutputError):
    """The model returned a different number of sentences than requested."""


class ScoreParseError(ModelOutputError):
    """A scoring response contained no extractable 0-3 integer."""


class JudgeJsonError(ModelOutputError):
    """A judge response was not parseable as the expected JSON object."""


# --- evaluation -----------------------------------------------------------


class MismatchError(FallacyLabError):
    """Predictions do not cover the benchmark entries exactly once."""


class DuplicateLabelError(FallacyLabError):
    """A predicted label list contains a repeated label."""


class LengthMismatchError(FallacyLabError):
    """Paired annotation lists have different lengths."""


class DivisionDomainError(FallacyLabError):
    """A ratio was requested with a zero denominator."""


class JsonlFormatError(FallacyLabError):
    """A JSONL input line does not match the expected record shape."""
