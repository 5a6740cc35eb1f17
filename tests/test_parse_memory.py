"""Memory pins of reading a fact file, on the benchmark's seeded AF files of
5,000 and 20,000 commented facts, 1% of them bad (``perfbench/inputs.py``,
through ``scale_report``).  tracemalloc counts every Python allocation, so
each figure is the same from run to run."""
from __future__ import annotations

import contextlib
import os
import sys
import tracemalloc

import pytest

from scale_report import inputs

from fallacylab import cli, jsonl, kb as kb_module
from fallacylab.jsonl import read_blocks
from fallacylab.kb import KnowledgeBase

SEED = 7
SIZES = (5_000, 20_000)


def _traced(call):
    """``(call(), bytes held when it returned, peak bytes while it ran)``."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.fixture(scope="module")
def fact_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("parse-memory")
    files = {}
    for size in SIZES:
        case = inputs.validate_input(SEED, "AF", size)
        path = work / f"af_{size}.pl"
        path.write_text(case.text, encoding="utf-8")
        files[size] = path, case.facts
    return files


def _validate(path):
    """The ``validate`` command's body over ``path``, its report written to
    the null device; returns its exit code."""
    with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
        try:
            cli.validate.callback(kb_path=str(path), code_text="AF")
        except SystemExit as exc:
            return exc.code
    return None


def test_validate_holds_one_block_of_its_file(fact_files):
    peaks = {}
    for size, (path, _) in fact_files.items():
        assert _validate(path) == 1  # the first call's one-time allocations stay out
        code, _, peaks[size] = _traced(lambda: _validate(path))
        assert code == 1
    # The file is read a block at a time and each line parsed as it comes,
    # so four times the facts cost at most one more block: 260 and 292 KB
    # here, the rest of the growth the 150 more findings; a whole-file read
    # held the text, its lines and their tokens (2.2 and 9.4 MB).
    assert peaks[SIZES[1]] - peaks[SIZES[0]] <= jsonl._BLOCK
    assert peaks[SIZES[1]] < fact_files[SIZES[1]][0].stat().st_size / 4


def test_a_load_holds_what_the_base_keeps_and_one_block(fact_files, monkeypatch):
    #: The spelling table of each load, as ``flat_args`` is handed it.
    tables = []
    flat_args = kb_module.flat_args

    def spy(args_text, consts):
        if not tables or tables[-1] is not consts:
            tables.append(consts)
        return flat_args(args_text, consts)

    monkeypatch.setattr(kb_module, "flat_args", spy)
    for path, facts in fact_files.values():
        KnowledgeBase.from_text(read_blocks(path))
        tables.clear()
        kb, held, peak = _traced(lambda: KnowledgeBase.from_text(read_blocks(path)))
        assert sum(map(len, kb.tables().values())) == facts
        # Beyond the base it returns, a load holds one block of the file and
        # its lines, and the table of one constant per spelling that it
        # frees when it returns (288 and 1,280 KB here): 130 and 136 KB.  A
        # whole-file read held the text and its tokens besides (1.0 and
        # 5.1 MB).
        [spellings] = tables
        assert peak - held - sys.getsizeof(spellings) < 4 * jsonl._BLOCK
