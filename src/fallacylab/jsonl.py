"""The JSON-lines format of cassettes, sentences, scores, benchmarks and
predictions: one JSON object per line, keys sorted, non-ASCII escaped, each
line ending in ``\\n``."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import JsonlFormatError


def read_jsonl(path: str | Path, required: Sequence[str] = ()) -> Iterator[dict]:
    """Yield each non-blank line's object; a line that is not an object, or
    lacks a ``required`` key, raises JsonlFormatError naming ``path:line``."""
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
        yield record


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    Path(path).write_text(
        "".join(json.dumps(r, sort_keys=True, ensure_ascii=True) + "\n" for r in records),
        encoding="utf-8",
    )
