"""The JSON-lines format of cassettes, sentences, scores, benchmarks and
predictions: one JSON object per line, keys sorted, non-ASCII escaped, each
line ending in ``\\n``.  Also the one reader every input file goes through,
so bytes that are not UTF-8 are reported at their file and line, and the one
writer every output file goes through, so none is ever left half-written.

An input is read a line at a time, so a reader holds one line's bytes and
text, never the file's.  Each line, and each judge reply, is decoded by
:func:`loads`: one call of a C scanner built once, where ``json.loads`` wraps
that same call in three Python ones.  A blank line holds JSON whitespace only
(spaces, tabs and a ``\\r``); any other line is a record or an error.  A byte
that is not UTF-8 anywhere in the file takes precedence over any line's
error, as when the whole file was decoded first.  Records are written
through one C encoder built at import, where ``JSONEncoder.encode`` builds a
new one per call; its text is ``encode_canonical``'s.  They are encoded and
written a batch at a time, so a writer holds one batch's text, never the
file's."""
from __future__ import annotations

import json
import os
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import FallacyLabError, InputDecodeError, JsonlFormatError
from .labels import FallacyCode, parse_code

T = TypeVar("T")

_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=True)

#: The canonical JSON text of one value: keys sorted, non-ASCII escaped.
#: One JSONEncoder serves every call; ``json.dumps`` with options builds a
#: new one each time.
encode_canonical = _CANONICAL.encode

# The C encoder that encode_canonical builds anew on each call, built once.
# Arguments: markers, default, encoder, indent, key and item separators,
# sort_keys, skipkeys, allow_nan.  No markers turns the circularity check
# off; written records are built by the program and never circular.  None
# off CPython.
_encode_record = c_make_encoder and c_make_encoder(
    None, _CANONICAL.default, encode_basestring_ascii, None, ": ", ", ", True, False, True
)

_scan = json.JSONDecoder().scan_once


def loads(text: str):
    """``json.loads(text)``: the same value, or the same exception.

    The value is one scanner call when it starts at the first character and
    only JSON whitespace follows it; any other text goes to ``json.loads``,
    which scans it the same way and raises its error."""
    try:
        value, end = _scan(text, 0)
    except StopIteration:
        return json.loads(text)
    if not text[end:].strip(" \t\n\r"):
        return value
    return json.loads(text)


def read_input(path: str | Path) -> str:
    """The text of an input file, decoded as UTF-8 with its line endings as
    they are.  Bytes that are not UTF-8 raise InputDecodeError naming
    ``path:line``, lines counted at ``\\n``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise InputDecodeError(
            f"{path}:{line}: not UTF-8 text: byte 0x{data[exc.start]:02x} at byte "
            f"{column} of the line ({exc.reason})"
        ) from None


def read_jsonl(
    path: str | Path, required: Sequence[str] = (), parse: Callable[[dict], T] = dict
) -> Iterator[T]:
    """Yield ``parse`` of each non-blank line's object; a blank line holds
    nothing but spaces, tabs and ``\\r``.  A line that is not a JSON object
    (a number too long for ``int`` or nesting too deep for the decoder
    included), lacks a ``required`` key, or that ``parse`` rejects with a
    package error raises JsonlFormatError naming ``path:line``.

    The file is opened by this call, so a missing file fails here, and
    closed when the records run out, a line fails, or the iterator is
    closed.  It is read a line at a time and each line decoded as UTF-8 on
    its own.  Before any line's error is raised, :func:`read_input` decodes
    the whole file, so a byte that is not UTF-8, even lines later, is the
    error reported, with its line and byte.

    Lines end at ``\\n`` only, as in JSON Lines: U+0085, U+2028 and U+2029 may
    stand unescaped inside a JSON string, and a ``\\r`` before the ``\\n`` is
    JSON whitespace."""
    records = _records(path, required, parse)
    next(records)  # opens the file
    return records


def _records(path, required, parse):
    """:func:`read_jsonl`'s records, after one empty yield that it takes: the
    file is then open, and the ``with`` closes it however the generator
    ends, closed before its first record included."""
    with open(path, "rb") as handle:
        yield
        for line_no, data in enumerate(handle, start=1):
            try:
                line = data.decode("utf-8")
                if not line.strip(" \t\r\n"):
                    continue
                try:
                    record = loads(line)
                except (ValueError, RecursionError):
                    # Raised again by the line without its "\n", so that a
                    # position at its end is named on this line, not the next.
                    record = loads(line.removesuffix("\n"))
                if not isinstance(record, dict):
                    raise JsonlFormatError("expected an object")
                for key in required:
                    if key not in record:
                        missing = ", ".join(repr(k) for k in required if k not in record)
                        raise JsonlFormatError(f"missing key(s) {missing}")
                item = parse(record)
            except (ValueError, RecursionError, FallacyLabError) as exc:
                read_input(path)  # raises first when any byte of the file is not UTF-8
                raise JsonlFormatError(f"{path}:{line_no}: {exc}") from None
            yield item


def read_text(record: dict, key: str) -> str:
    """A record's string field ``key``."""
    value = record[key]
    if not isinstance(value, str):
        raise JsonlFormatError(f"{key!r} must be a string, found {value!r}")
    return value


def read_id(record: dict, seen: set[str] | None = None) -> str:
    """A record's ``id``: a string, or an integer read as its decimal text.
    An id already in ``seen``, when given, is an error; a new one joins it."""
    value = record["id"]
    if isinstance(value, int) and not isinstance(value, bool):
        value = str(value)
    elif not isinstance(value, str):
        raise JsonlFormatError(f"'id' must be a string or an integer, found {value!r}")
    if seen is not None:
        if value in seen:
            raise JsonlFormatError(f"repeated 'id' {value!r}")
        seen.add(value)
    return value


def read_labels(record: dict) -> tuple[FallacyCode, ...]:
    """The codes of a record's ``labels`` list; none when the key is absent."""
    labels = record.get("labels", [])
    if not isinstance(labels, list):
        raise JsonlFormatError(f"'labels' must be a list, found {labels!r}")
    return tuple(parse_code(label) for label in labels)


#: Records encoded into one string and written at once by :func:`write_jsonl`.
_BATCH = 1000


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one canonical line per record with :func:`write_atomic`.  The
    records are encoded and written about a thousand at a time, so no more
    than a batch of their text is held at once."""
    write_atomic(path, _encoded(iter(records)))


def _encoded(records: Iterator[dict]) -> Iterator[str]:
    """The text of each next :data:`_BATCH` records, until none is left."""
    while True:
        if _encode_record is None:
            lines = [encode_canonical(r) + "\n" for r in islice(records, _BATCH)]
        else:
            lines = ["".join(_encode_record(r, 0)) + "\n" for r in islice(records, _BATCH)]
        if not lines:
            return
        yield "".join(lines)


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or the strings of an iterable one after
    another, to ``path`` as UTF-8 so that ``path`` holds either its previous
    bytes (or stays absent) or all of ``text``, never a part.

    The text goes to a new temporary file in the target's directory, each
    string as it comes, and ``os.replace`` then renames that file over the
    target; an exception on the way, raised by the iterable too, removes
    the temporary file.  This guards against the process dying mid-write,
    not against power loss: nothing is fsynced.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # Mode "x" never clobbers another file and, unlike tempfile's 0600,
    # gives the output the permissions Path.write_text would.
    handle = open(temp, "x", encoding="utf-8")
    try:
        with handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
