from __future__ import annotations

import json
import platform

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallacylab import jsonl
from fallacylab.errors import FallacyLabError, InputDecodeError, JsonlFormatError
from fallacylab.jsonl import encode_canonical, loads, read_input, read_jsonl, write_jsonl

# Non-ASCII, control characters, lone surrogates, quotes and backslashes,
# besides whatever else hypothesis draws.
_TEXT = st.text(
    st.one_of(
        st.characters(codec=None, exclude_categories=()),
        st.sampled_from('"\\\x00\x1f\x7f\x85\u2028\ud800\udfff\xe9\U0001f600'),
    )
)

_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 1e16, 2.3333333333333335, float("nan"), float("inf")])
)

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200), _FLOATS, _TEXT
)

_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=20,
)

_WHITESPACE = st.text(" \t\r\n", max_size=3)


def _outcome(decode, text):
    """The value's repr, or the exception's type and text."""
    try:
        return repr(decode(text))
    except Exception as exc:  # noqa: BLE001 - any error must match
        return type(exc), str(exc)


@st.composite
def _documents(draw):
    """JSON text of a drawn value with white space around and inside it,
    some of it then mutated into what ``json.loads`` rejects or reads
    laxly."""
    value = draw(_VALUES)
    text = json.dumps(
        value,
        ensure_ascii=draw(st.booleans()),
        indent=draw(st.none() | _WHITESPACE),
        separators=(draw(_WHITESPACE) + "," + draw(_WHITESPACE),
                    draw(_WHITESPACE) + ":" + draw(_WHITESPACE)),
    )
    text = draw(_WHITESPACE) + text + draw(_WHITESPACE)
    mutation = draw(st.sampled_from(["none", "truncate", "garbage", "bom", "nan", "surrogate"]))
    if mutation == "truncate":
        text = text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    elif mutation == "garbage":
        text += draw(st.sampled_from(["x", "}", "]", ",", "0", '""', "\xa0", "\x0c", "\ufeff"]))
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "nan":
        special = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "nan", "inf"]))
        text = "[" + text + ", " + special + "]"
    elif mutation == "surrogate":
        escape = draw(st.sampled_from(["\\ud800", "\\udfff", "\\ud83d\\ude00", "\\udc00\\ud800"]))
        text = '["' + escape + '", ' + text + "]"
    return text


@settings(max_examples=600, deadline=None)
@given(_documents())
def test_loads_equals_json_loads(text):
    assert _outcome(loads, text) == _outcome(json.loads, text)


@pytest.mark.parametrize(
    "text",
    [
        "1" * 5_000,
        '{"id": ' + "1" * 5_000 + "}",
        "[" * 50_000,
        "[" * 50_000 + "]" * 50_000,
        "",
        "\r\n",
        '{"a": 1}\r',
        '{"a": 1}\t \r',
        '{"a": 1}\xa0',
        ' {"a": 1}',
    ],
    ids=["int-5000-digits", "object-int-5000-digits", "open-50000-deep", "nested-50000-deep",
         "empty", "crlf-only", "cr-tail", "whitespace-tail", "nbsp-tail", "leading-space"],
)
def test_loads_equals_json_loads_on_fixed_examples(text):
    assert _outcome(loads, text) == _outcome(json.loads, text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(_TEXT, _VALUES, min_size=1, max_size=2), max_size=2))
def test_write_jsonl_text_is_encode_canonical(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    write_jsonl(path, records)
    expected = "".join(encode_canonical(record) + "\n" for record in records)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="C encoder only")
def test_write_jsonl_encodes_through_the_c_encoder_on_cpython():
    assert jsonl._encode_record is not None


@pytest.mark.parametrize("count", [0, 1, 999, 1000, 1001, 2500])
def test_write_jsonl_writes_a_thousand_records_at_a_time(tmp_path, count):
    records = [{"id": f"r{i}", "n": i} for i in range(count)]
    path = tmp_path / "records.jsonl"
    write_jsonl(path, iter(records))
    assert path.read_text(encoding="utf-8") == "".join(encode_canonical(r) + "\n" for r in records)
    batches = [chunk.count("\n") for chunk in jsonl._encoded(iter(records))]
    assert batches == [1000] * (count // 1000) + ([count % 1000] if count % 1000 else [])


@pytest.mark.parametrize("previous", [True, False], ids=["overwrite", "fresh"])
def test_write_jsonl_failing_part_way_leaves_no_part_behind(tmp_path, previous):
    # Two batches are written to the temporary file before the records fail.
    path = tmp_path / "records.jsonl"
    if previous:
        path.write_text("old\n", encoding="utf-8")

    def records():
        yield from ({"n": i} for i in range(2500))
        raise ValueError("record 2500")

    with pytest.raises(ValueError, match="record 2500"):
        write_jsonl(path, records())
    assert [p.name for p in tmp_path.iterdir()] == (["records.jsonl"] if previous else [])
    if previous:
        assert path.read_text(encoding="utf-8") == "old\n"


def test_read_jsonl_opens_the_file_when_called_and_closes_it_when_closed(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_jsonl(tmp_path / "missing.jsonl")
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n{"a": 2}\n', encoding="utf-8")
    records = read_jsonl(path)
    assert next(records) == {"a": 1}
    records.close()  # closes the file, which would warn, an error here, if left open
    assert list(records) == []


def test_only_json_whitespace_makes_a_blank_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('\n \t\r\n{"a": 1}\r\n\t\n{"a": 2}\n\r', encoding="utf-8")
    assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]


def _read_whole(path, required, parse):
    """``read_jsonl`` as it reads a file decoded whole and split at ``\\n``:
    the oracle of the streaming reader's records and errors."""
    for line_no, line in enumerate(read_input(path).split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise JsonlFormatError(f"{path}:{line_no}: {exc}") from None
        if not isinstance(record, dict):
            raise JsonlFormatError(f"{path}:{line_no}: expected an object")
        for key in required:
            if key not in record:
                missing = ", ".join(repr(k) for k in required if k not in record)
                raise JsonlFormatError(f"{path}:{line_no}: missing key(s) {missing}")
        try:
            item = parse(record)
        except FallacyLabError as exc:
            raise JsonlFormatError(f"{path}:{line_no}: {exc}") from None
        yield item


def _small(record):
    if len(record) > 2:
        raise JsonlFormatError("more than two keys")
    return record


_LINES = st.one_of(
    _documents().map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.sampled_from([
        b'{"a": 1}', b'{"a": 1, "b": 2, "c": 3}', b'{"b": 2}', b"[1]", b"", b" \t\r",
        b'{"a": 1', b'{"a": "\xe2\x82\xac"}', b"\xff", b'{"a": "\xe2\x82"}', b'{"a": 1}\r',
    ]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINES, max_size=6), st.sampled_from([b"", b"\n"]),
       st.sampled_from([(), ("a",)]), st.sampled_from([dict, _small]))
def test_read_jsonl_reads_as_the_whole_file_decoded_first(
    tmp_path_factory, lines, end, required, parse
):
    # Records, errors and which error comes first: a byte that is not UTF-8
    # anywhere in the file before any line's own error.
    path = tmp_path_factory.getbasetemp() / "lines.jsonl"
    path.write_bytes(b"\n".join(lines) + end)
    assert _outcome(lambda p: list(read_jsonl(p, required, parse)), path) == _outcome(
        lambda p: list(_read_whole(p, required, parse)), path
    )


@pytest.mark.parametrize("line", ['{"a": 1', '{"a": ', "[1, ", "{", '"ab', '{"a": 1\r'])
@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "end-of-file"])
def test_a_bad_line_is_reported_as_the_line_without_its_newline(tmp_path, line, end):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 0}\n' + line + end, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(line)
    with pytest.raises(JsonlFormatError) as raised:
        list(read_jsonl(path))
    assert str(raised.value) == f"{path}:2: {expected.value}"


#: Lines of a fact file, each a few to thousands of bytes, multi-byte
#: characters and every line break ``str.splitlines`` knows included.
_TEXT_LINES = st.lists(st.one_of(
    st.sampled_from(["p(a).", "", "% € \U0001f600", "q(b) \r", "x\x85y", "a b\x0cc"]),
    st.integers(1, 70_000).map(lambda n: "\xe9" * (n // 2)),
), max_size=8)


@settings(max_examples=40, deadline=None)
@given(_TEXT_LINES, st.sampled_from(["", "\n", "\r\n"]))
def test_read_blocks_cuts_the_text_after_a_newline(tmp_path_factory, lines, end):
    path = tmp_path_factory.getbasetemp() / "facts.pl"
    text = "\n".join(lines) + end
    path.write_bytes(text.encode())
    blocks = list(jsonl.read_blocks(path))
    assert "".join(blocks) == text
    assert all(block.endswith("\n") for block in blocks[:-1])
    # Beyond the end of its first line, a block holds at most one read.
    encoded = [block.encode() for block in blocks]
    assert all(len(b) <= b.find(b"\n") + 1 + jsonl._BLOCK for b in encoded if b"\n" in b)
    assert [line for block in blocks for line in block.splitlines()] == text.splitlines()


def test_read_blocks_reports_the_files_first_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "facts.pl"
    lines = [b"p(a).\n"] * 30_000
    lines[25_000] = b"p(\xe9).\n"  # in the third block, the file's first bad byte
    lines[28_000] = b"\xff\n"
    path.write_bytes(b"".join(lines))
    blocks = jsonl.read_blocks(path)
    assert next(blocks) and next(blocks)
    with pytest.raises(InputDecodeError) as raised:
        next(blocks)
    assert str(raised.value) == (
        f"{path}:25001: not UTF-8 text: byte 0xe9 at byte 3 of the line (invalid continuation byte)")


def test_read_blocks_opens_the_file_when_read_and_closes_it_when_closed(tmp_path):
    blocks = jsonl.read_blocks(tmp_path / "missing.pl")  # nothing is opened yet
    with pytest.raises(FileNotFoundError):
        next(blocks)
    path = tmp_path / "facts.pl"
    path.write_text("p(a).\n" * 20_000, encoding="utf-8")
    blocks = jsonl.read_blocks(path)
    assert next(blocks).startswith("p(a).\n")
    blocks.close()  # closes the file, which would warn, an error here, if left open
    assert list(blocks) == []
