"""The JSON-lines format of cassettes, sentences, scores, benchmarks and
predictions: one JSON object per line, keys sorted, non-ASCII escaped, each
line ending in ``\\n``."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import FallacyLabError, JsonlFormatError
from .labels import FallacyCode, parse_code

T = TypeVar("T")


def read_jsonl(
    path: str | Path, required: Sequence[str] = (), parse: Callable[[dict], T] = dict
) -> Iterator[T]:
    """Yield ``parse`` of each non-blank line's object.  A line that is not an
    object, lacks a ``required`` key, or that ``parse`` rejects with a package
    error raises JsonlFormatError naming ``path:line``."""
    for line_no, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JsonlFormatError(f"{path}:{line_no}: {exc}") from None
        if not isinstance(record, dict):
            raise JsonlFormatError(f"{path}:{line_no}: expected an object")
        missing = [key for key in required if key not in record]
        if missing:
            raise JsonlFormatError(
                f"{path}:{line_no}: missing key(s) {', '.join(map(repr, missing))}"
            )
        try:
            item = parse(record)
        except FallacyLabError as exc:
            raise JsonlFormatError(f"{path}:{line_no}: {exc}") from None
        yield item


def read_labels(record: dict) -> tuple[FallacyCode, ...]:
    """The codes of a record's ``labels`` list; none when the key is absent."""
    labels = record.get("labels", [])
    if not isinstance(labels, list):
        raise JsonlFormatError(f"'labels' must be a list, found {labels!r}")
    return tuple(parse_code(label) for label in labels)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    Path(path).write_text(
        "".join(json.dumps(r, sort_keys=True, ensure_ascii=True) + "\n" for r in records),
        encoding="utf-8",
    )
