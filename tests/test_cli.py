from __future__ import annotations

import csv
import gc
import io
import json
import logging
import os
import random
import re
import subprocess
import sys
import threading
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fallacylab
from fallacylab import gateway, transport
from fallacylab.cli import main, parse_config
from fallacylab.errors import ModelOutputError
from fallacylab.gateway import Gateway, fingerprint, load_cassette, write_cassette
from fallacylab.labels import SCHEMA_CODES, FallacyCode
from fallacylab.pipeline import generate_bundle
from fallacylab.seeds import SEED_SOURCES

from conftest import DATA_DIR, FakeProvider


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


# ---------------------------------------------------------------------------
# validate / derive
# ---------------------------------------------------------------------------


def test_validate_clean_kb_exits_zero(runner, tmp_path):
    path = tmp_path / "fc.pl"
    path.write_text(
        "hp(chimney, survives_fire).\nipo(chimney, building).\nlp(building, survives_fire).\n"
    )
    result = run(runner, "validate", "--kb", path, "--code", "FC")
    assert result.exit_code == 0
    assert "ok" in result.output


def test_validate_findings_exit_one(runner, tmp_path):
    path = tmp_path / "fc.pl"
    path.write_text("hp(chimney, survives_fire).\n")
    result = run(runner, "validate", "--kb", path, "--code", "FC")
    assert result.exit_code == 1
    assert "missing_required" in result.output


def test_validate_reports_a_non_ground_fact_as_a_finding(runner, tmp_path):
    path = tmp_path / "ct.pl"
    path.write_text("qc(X, b).\n")
    result = run(runner, "validate", "--kb", path, "--code", "CT")
    assert result.exit_code == 1
    assert "  [non_ground_fact] qc(X, b).\n" in result.stdout


def test_validate_reports_every_finding_kind_in_file_order(runner, tmp_path):
    # Clean flat facts among an unknown predicate, an arity mismatch, a
    # non-ground fact, an arity mismatch of integers and an anonymous
    # variable, a rule (skipped), a clean integer fact and an empty required
    # predicate (lp/2).
    path = tmp_path / "fc.pl"
    path.write_text(
        "% clean facts, then one of each finding kind\n"
        "hp(chimney, survives_fire).\n"
        "ipo(chimney, building). % a part\n"
        "\n"
        "zz(chimney, brick).\n"
        "ipo(chimney, building, town).\n"
        "hp(X, survives_fire).\n"
        "ipo(7, _, town).\n"
        "hp(brick, survives_fire) :- ipo(brick, chimney).\n"
        "hp(2_tiles, 451).\n"
    )
    result = run(runner, "validate", "--kb", path, "--code", "FC")
    assert result.exit_code == 1
    assert result.stdout == (
        "FC: 6 finding(s)\n"
        "  [unknown_predicate] zz/2 not used by FC: zz(chimney, brick).\n"
        "  [arity_mismatch] ipo expects arity 2, found 3: ipo(chimney, building, town).\n"
        "  [non_ground_fact] hp(X, survives_fire).\n"
        "  [non_ground_fact] ipo(7, _, town).\n"
        "  [arity_mismatch] ipo expects arity 2, found 3: ipo(7, _, town).\n"
        "  [missing_required] lp/2 required by FC, empty\n"
    )


_COMPOUND_ERROR = "compound argument: arguments are atoms, integers or variables"


@pytest.mark.parametrize("command", ["derive", "validate"])
def test_compound_argument_exits_two_at_its_functor(runner, tmp_path, command):
    # Each compound is refused where it starts, the outer one of a nest, and
    # the run stops there.
    path = tmp_path / "fc.pl"
    for text, column in (
        ("hp(chimney, survives_fire).\nipo(f(brick), g(wall, 2), town).\n", 5),
        ("ipo(chimney, building).\nhp(roof(tile), survives_fire).\n", 4),
        ("hp(chimney, survives_fire).\nipo(chimney, wall(g(2))). % nested\n", 14),
    ):
        path.write_text(text)
        result = run(runner, command, "--code", "FC", "--kb", path)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: line 2, column {column}: {_COMPOUND_ERROR}\n"


@st.composite
def _one_compound_argument(draw):
    """A valid fact file of 1 to 3 copies of a code's seed, one blank line
    apart, with one argument of one line rewritten into a compound: the
    code, the text, the rewritten block's index and the compound's line and
    column."""
    code = draw(st.sampled_from(SCHEMA_CODES))
    blocks = [SEED_SOURCES[code].splitlines() for _ in range(draw(st.integers(1, 3)))]
    block = draw(st.integers(0, len(blocks) - 1))
    row = draw(st.integers(0, len(blocks[block]) - 1))
    line = blocks[block][row]
    # Seed lines are canonical: ``name(a1, ..., an). % comment``.
    start, end = line.index("("), line.index(")")
    args = line[start + 1:end].split(", ")
    k = draw(st.integers(0, len(args) - 1))
    column = start + 2 + sum(len(arg) + 2 for arg in args[:k])
    inner = draw(st.sampled_from(["{}", "{}, 1", "X, {}", "_", "g({})"])).format(args[k])
    args[k] = f"{draw(st.sampled_from(['f', 'wrap', '2_f']))}({inner})"
    blocks[block][row] = f"{line[:start + 1]}{', '.join(args)}{line[end:]}"
    line_no = sum(len(b) + 1 for b in blocks[:block]) + row + 1
    text = "\n\n".join("\n".join(b) for b in blocks) + "\n"
    return code, text, block, line_no, column


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


_AF_SEED = SEED_SOURCES[FallacyCode.AF].rstrip("\n")


@given(_one_compound_argument())
# Three 3-line blocks, the compound opening the third: line 9 of the reply.
@example((FallacyCode.AF, "\n\n".join(
    [_AF_SEED, _AF_SEED, _AF_SEED.replace("hr(shampoo_bottle,", "hr(f(shampoo_bottle),", 1)]
) + "\n", 2, 9, 4))
@settings(max_examples=100, deadline=None)
def test_a_compound_argument_anywhere_is_a_parse_error_at_its_functor(tmp_path_factory, case):
    code, text, block, line, column = case
    message = f"line {line}, column {column}: {_COMPOUND_ERROR}"
    path = tmp_path_factory.mktemp("kb") / "kb.pl"
    path.write_text(text)
    runner = CliRunner()
    for command in ("derive", "validate"):
        result = run(runner, command, "--code", code.value, "--kb", path)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"error: {message}\n"
    # The harvest parses each block alone: it drops the rewritten block as
    # unparseable, at the compound's line in the reply, its opening fence
    # counted, and keeps the others.
    blocks = text.rstrip("\n").split("\n\n")
    handler = _Messages()
    gateway.log.addHandler(handler)
    try:
        kept, rejected = gateway.Gateway(FakeProvider([]))._harvest_fact_groups(
            code, f"```prolog\n{text}```\n"
        )
    finally:
        gateway.log.removeHandler(handler)
    assert [group.text for group in kept] == blocks[:block] + blocks[block + 1:]
    assert rejected == 1
    assert handler.messages == [
        f"{code.value}: dropped unparseable group: line {line + 1}, column {column}: "
        f"{_COMPOUND_ERROR}"
    ]


def test_derive_kb_with_a_non_ground_fact_exits_two_at_its_line(runner, tmp_path):
    path = tmp_path / "ct.pl"
    path.write_text("qc(a, b). % fine\n\nqc(X, b).\n")
    result = run(runner, "derive", "--code", "CT", "--kb", path)
    assert result.exit_code == 2
    assert result.stderr == "error: line 3, column 1: fact is not ground: qc(X, b).\n"


def test_flat_fact_integer_at_the_int_digit_limit(runner, tmp_path):
    # A flat fact line holding an integer longer than ``int`` reads goes to
    # the token scanner, which reports it at its position; one at the limit,
    # or any length with the limit off, loads.
    path = tmp_path / "ct.pl"

    def outcomes(number):
        path.write_text(f"qc(t, m).\nqoc(t, d).\nfroc(d, f).\nifqoc(f, {number}). % long\n")
        return [
            (result.exit_code, result.stdout, result.stderr)
            for result in (
                run(runner, command, "--code", "CT", "--kb", path)
                for command in ("derive", "validate")
            )
        ]

    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for number in ("9" * 640, "0" * 639 + "7"):
            assert outcomes(number) == [(0, f"pd(t, {int(number)})\n", ""), (0, "CT: ok\n", "")]
        for number in ("9" * 641, "0" * 640 + "7"):
            error = "error: line 4, column 10: integer literal of 641 digits is too long\n"
            assert outcomes(number) == [(2, "", error)] * 2
        sys.set_int_max_str_digits(0)
        number = "9" * 5000
        assert outcomes(number) == [(0, f"pd(t, {number})\n", ""), (0, "CT: ok\n", "")]
    finally:
        sys.set_int_max_str_digits(limit)


def test_validate_unparseable_kb_exit_two(runner, tmp_path):
    path = tmp_path / "bad.pl"
    path.write_text("hp(chimney survives_fire).\n")
    result = run(runner, "validate", "--kb", path, "--code", "FC")
    assert result.exit_code == 2


def test_derive_prints_canonical_tuples(runner):
    result = run(runner, "derive", "--code", "FC")
    assert result.exit_code == 0
    assert result.output.strip() == "pd(chimney, survives_fire, building)"


def test_derive_kb_ignores_rules_no_join_runs(runner, tmp_path):
    # A base's rules are inert, so none of these reaches the join's compiler,
    # which refuses each: a goal constant, a variable twice in one goal, a
    # negation's own variable, and goals without arguments.
    path = tmp_path / "fc.pl"
    path.write_text(
        SEED_SOURCES[FallacyCode.FC] + "p(X, X) :- q(X, a), \\+ r(Y, Y).\nflag.\nt :- flag.\n"
    )
    result = run(runner, "derive", "--code", "FC", "--kb", path)
    assert result.exit_code == 0, result.output
    assert (result.stdout, result.stderr) == ("pd(chimney, survives_fire, building)\n", "")


def test_derive_accepts_alias_and_full_name(runner):
    assert "pd(" in run(runner, "derive", "--code", "AC").output
    assert "pd(" in run(runner, "derive", "--code", "fallacy of composition").output


def test_derive_emits_ordering_diagnostic_on_stderr(runner):
    result = run(runner, "derive", "--code", "FS")
    assert result.exit_code == 0
    assert result.stdout.strip() == ""
    assert "term-order" in result.stderr


@pytest.mark.parametrize(
    "facts, exit_code, stdout, stderr",
    [
        ("hr(a, 1).\nrri(1, x).\nrui(1, y).\n", 0, "pd(a, 1, x, y)\n", ""),
        # The first compound, at its functor, stops the run.
        ("hr(a, r).\nrri(r, f(x)).\nrui(r, f(y)).\n", 2, "",
         f"error: line 2, column 8: {_COMPOUND_ERROR}\n"),
    ],
    ids=["integer", "compound"],
)
def test_derive_kb_with_integer_and_compound_arguments(
    runner, tmp_path, facts, exit_code, stdout, stderr
):
    path = tmp_path / "af.pl"
    path.write_text(facts)
    result = run(runner, "derive", "--code", "AF", "--kb", path)
    assert result.exit_code == exit_code
    assert (result.stdout, result.stderr) == (stdout, stderr)


@pytest.mark.parametrize("levels", [100, 400])
@pytest.mark.parametrize("command", ["derive", "validate"])
def test_terms_nested_beyond_the_parser_bound_exit_two(runner, tmp_path, command, levels):
    # An argument nests no term at all, so however deep the text goes, the
    # parser stops at the outermost functor and needs no depth bound.
    nested = "f(" * levels + "d" + ")" * levels
    path = tmp_path / "ie.pl"
    path.write_text(f"cc(b, e).\ncc(a, {nested}).\nim(a, b).\n")
    result = run(runner, command, "--code", "IE", "--kb", path)
    assert result.exit_code == 2
    assert result.stderr == f"error: line 2, column 7: {_COMPOUND_ERROR}\n"


@pytest.mark.parametrize("command", ["derive", "validate"])
def test_oversized_integer_literal_exits_two_at_its_position(runner, tmp_path, command):
    path = tmp_path / "fc.pl"
    path.write_text(f"hp(chimney, survives_fire).\nipo(chimney, {'9' * 5000}).\n")
    result = run(runner, command, "--code", "FC", "--kb", path)
    assert result.exit_code == 2
    assert result.stderr == (
        "error: line 2, column 14: integer literal of 5000 digits is too long\n"
    )


@pytest.mark.parametrize("code", ["FC", "FS"], ids=["stdout", "stderr"])
def test_in_process_run_keeps_no_captured_stream_alive(code):
    # FC prints its tuple on stdout, FS only its ordering diagnostic on stderr.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit):
        main(["derive", "--code", code], standalone_mode=False)
    assert (out.getvalue() != "") == (code == "FC")
    assert (err.getvalue() != "") == (code == "FS")
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


_LOGGING_SCRIPT = """
import contextlib, gc, io, logging, weakref
from fallacylab.cli import main

def derive(*options):
    with contextlib.suppress(SystemExit):
        main([*options, "derive", "--code", "FC"], standalone_mode=False)

out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    derive()
ref = weakref.ref(err)
del out, err
gc.collect()
print("kept:", ref() is not None)
logging.getLogger("probe").warning("after the first call")
with contextlib.redirect_stdout(io.StringIO()):
    derive("--verbose")
print("level:", logging.getLevelName(logging.getLogger().level))
"""


def test_logging_follows_the_current_stderr_and_verbose_flag():
    # A fresh interpreter: pytest's own root handlers would hide the handler
    # the first in-process call installs.
    src = Path(fallacylab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _LOGGING_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "kept: False\nlevel: INFO\n"
    assert done.stderr == "WARNING probe: after the first call\n"


def test_derive_unknown_code_exit_two(runner):
    result = run(runner, "derive", "--code", "XX")
    assert result.exit_code == 2
    result = run(runner, "derive", "--code", "EC")
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "code, facts, defined",
    [
        ("AF", "hr(o, r).\nrri(r, i).\nrui(r, k).\npd(x, y, z, w).\n", "pd/4"),
        ("FC", "hp(x, p).\nipo(x, w).\nlp(w, p).\npd(X, P, W) :- hp(X, P).\n", "pd/3"),
        ("IT", "im(a, b).\nim(c, b).\nim_t(a, c).\n", "im_t/2"),
        ("WD", "cs(a, b).\noc(a, b).\n", "oc/2"),
        ("AF", "hr(o, r).\nrri(r, i).\nrui(r, k) :- hr(o, r).\n", "rui/2"),
        ("WD", "cs(a, b).\ncs(c, b) :- cs(a, b).\n", "cs/2"),
    ],
)
def test_derive_kb_defining_schema_predicate_exit_two(runner, tmp_path, code, facts, defined):
    path = tmp_path / "kb.pl"
    path.write_text(facts)
    result = run(runner, "derive", "--code", code, "--kb", path)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and defined in result.stderr
    assert "Traceback" not in result.output


# ---------------------------------------------------------------------------
# generate (replay)
# ---------------------------------------------------------------------------


def _generate(runner, out_dir):
    return run(
        runner,
        "generate",
        "--code",
        "AF",
        "--n",
        5,
        "--mode",
        "replay",
        "--cassette",
        DATA_DIR / "cassette_generate_af.jsonl",
        "--config",
        DATA_DIR / "replay.cfg",
        "--out",
        out_dir,
    )


def test_generate_replay_writes_bundle(runner, tmp_path):
    result = _generate(runner, tmp_path / "out")
    assert result.exit_code == 0, result.output
    sentences = [
        json.loads(line)
        for line in (tmp_path / "out" / "af_sentences.jsonl").read_text().splitlines()
    ]
    assert len(sentences) == 5
    assert all(s["labels"] == ["AF"] for s in sentences)
    assert sentences[0]["id"] == "AF-000"
    facts = (tmp_path / "out" / "af_facts.pl").read_text()
    assert "hr(shampoo_bottle, lather_rinse_repeat)" in facts
    assert "hr(cereal_box, serve_with_milk)" in facts
    tuples = (tmp_path / "out" / "af_tuples.pl").read_text().splitlines()
    assert len(tuples) == 5
    assert all(line.startswith("pd(") for line in tuples)


def test_generate_replay_is_byte_reproducible(runner, tmp_path):
    assert _generate(runner, tmp_path / "one").exit_code == 0
    assert _generate(runner, tmp_path / "two").exit_code == 0
    for name in ("af_facts.pl", "af_tuples.pl", "af_sentences.jsonl"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


def test_generate_with_wrong_cassette_is_provider_error(runner, tmp_path):
    result = run(
        runner,
        "generate",
        "--code",
        "AF",
        "--n",
        5,
        "--mode",
        "replay",
        "--cassette",
        DATA_DIR / "cassette_eval.jsonl",
        "--config",
        DATA_DIR / "replay.cfg",
        "--out",
        tmp_path / "out",
    )
    assert result.exit_code == 3


def test_generate_replay_without_cassette_exit_two(runner, tmp_path):
    result = run(
        runner,
        "generate",
        "--code",
        "AF",
        "--mode",
        "replay",
        "--out",
        tmp_path / "out",
    )
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# score (replay)
# ---------------------------------------------------------------------------


def test_score_replay_outputs(runner, tmp_path):
    result = run(
        runner,
        "score",
        "--sentences",
        DATA_DIR / "sentences_small.jsonl",
        "--mode",
        "replay",
        "--cassette",
        DATA_DIR / "cassette_score.jsonl",
        "--config",
        DATA_DIR / "replay.cfg",
        "--out",
        tmp_path,
    )
    assert result.exit_code == 0, result.output
    rows = [
        json.loads(line)
        for line in (tmp_path / "scores.jsonl").read_text().splitlines()
    ]
    assert rows[0]["scores"] == [3, 3, 3] and rows[0]["mean"] == 3.0
    assert rows[1]["scores"] == [2, 3, 3]
    summary = (tmp_path / "score_summary.txt").read_text()
    assert "AF  3.00" in summary and "WD  2.67" in summary
    histogram = (tmp_path / "score_histogram.csv").read_text()
    assert "generated,AF,3,3" in histogram


def _score_histogram(runner, out, tag):
    """The rows of the score histogram of the committed replay fixtures under
    ``tag``, read back as CSV."""
    result = run(
        runner, "score", "--sentences", DATA_DIR / "sentences_small.jsonl", "--method-tag", tag,
        "--mode", "replay", "--cassette", DATA_DIR / "cassette_score.jsonl",
        "--config", DATA_DIR / "replay.cfg", "--out", out,
    )
    assert result.exit_code == 0, result.output
    with open(out / "score_histogram.csv", newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@pytest.mark.parametrize("tag", ["smarty,pat", '"pat" run'], ids=["comma", "quote"])
def test_score_histogram_reads_back_any_method_tag(runner, tmp_path, tag):
    plain = _score_histogram(runner, tmp_path / "plain", "generated")
    rows = _score_histogram(runner, tmp_path / "tagged", tag)
    assert rows[0] == plain[0] == ["method", "code", "score", "count"]
    assert len(rows) == len(plain) > 1
    assert rows[1:] == [[tag, *row[1:]] for row in plain[1:]]


# ---------------------------------------------------------------------------
# eval (offline and replay judging)
# ---------------------------------------------------------------------------


def test_eval_offline_perfect_predictions(runner, tmp_path):
    result = run(
        runner,
        "eval",
        "--benchmark",
        DATA_DIR / "benchmark_small.jsonl",
        "--predictions",
        DATA_DIR / "predictions_small.jsonl",
        "--out",
        tmp_path,
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["detection"]["f1"] == 1.0
    assert report["detection"]["fp_rate"] == 0.0
    assert report["per_fallacy_accuracy_pct"]["AF"] == 100.0


def test_eval_replay_judging(runner, tmp_path):
    result = run(
        runner,
        "eval",
        "--benchmark",
        DATA_DIR / "benchmark_small.jsonl",
        "--mode",
        "replay",
        "--cassette",
        DATA_DIR / "cassette_eval.jsonl",
        "--config",
        DATA_DIR / "replay.cfg",
        "--out",
        tmp_path,
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    # One of three benign sentences is flagged in the recorded verdicts.
    assert round(report["detection"]["fp_rate"], 6) == round(1 / 3, 6)
    assert report["detection"]["fn_rate"] == 0.0
    preds = [
        json.loads(line)
        for line in (tmp_path / "predictions.jsonl").read_text().splitlines()
    ]
    # Alias AC in the recorded verdict is normalized to AF.
    assert preds[0]["labels"] == ["AF"]
    assert preds[1]["labels"] == ["WD", "FS"]


def test_eval_replay_is_byte_reproducible(runner, tmp_path):
    for sub in ("one", "two"):
        assert (
            run(
                runner,
                "eval",
                "--benchmark",
                DATA_DIR / "benchmark_small.jsonl",
                "--mode",
                "replay",
                "--cassette",
                DATA_DIR / "cassette_eval.jsonl",
                "--config",
                DATA_DIR / "replay.cfg",
                "--out",
                tmp_path / sub,
            ).exit_code
            == 0
        )
    for name in ("report.json", "report.txt", "predictions.jsonl"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()


def _offline_eval(runner, benchmark, out):
    return run(
        runner, "eval", "--benchmark", benchmark,
        "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", out,
    )


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_eval_reads_a_raw_unicode_line_separator_inside_a_sentence(runner, tmp_path, separator):
    # JSON allows these unescaped in a string, and json.dumps writes them so
    # with ensure_ascii=False; only "\n" ends a JSON Lines record.
    with (DATA_DIR / "benchmark_small.jsonl").open() as lines:
        records = [json.loads(line) for line in lines]
    records[0]["sentence"] = records[0]["sentence"].replace(", ", f",{separator}", 1)
    benchmark = tmp_path / "bench.jsonl"
    benchmark.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    assert separator in benchmark.read_text(encoding="utf-8")
    result = _offline_eval(runner, benchmark, tmp_path / "out")
    assert result.exit_code == 0, result.output
    assert _offline_eval(runner, DATA_DIR / "benchmark_small.jsonl", tmp_path / "lf").exit_code == 0
    for name in ("report.json", "report.txt", "predictions.jsonl"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()


def test_crlf_jsonl_reads_as_its_lf_form(runner, tmp_path):
    lf = (DATA_DIR / "benchmark_small.jsonl").read_bytes()
    assert b"\r" not in lf
    benchmark = tmp_path / "bench.jsonl"
    benchmark.write_bytes(lf.replace(b"\n", b"\r\n"))
    for path, out in ((benchmark, "crlf"), (DATA_DIR / "benchmark_small.jsonl", "lf")):
        result = _offline_eval(runner, path, tmp_path / out)
        assert result.exit_code == 0, result.output
    for name in ("report.json", "report.txt", "predictions.jsonl"):
        assert (tmp_path / "crlf" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()


def test_integer_ids_read_as_their_decimal_text(runner, tmp_path):
    benchmark = _write(
        tmp_path / "b.jsonl",
        '{"id": 7, "sentence": "x", "labels": ["AF"]}\n'
        '{"id": "8", "sentence": "y", "labels": [], "source": "benign"}\n',
    )
    predictions = _write(
        tmp_path / "p.jsonl",
        '{"id": "7", "logic_error": true, "labels": ["AF"]}\n'
        '{"id": 8, "logic_error": false, "labels": []}\n',
    )
    result = run(runner, "eval", "--benchmark", benchmark, "--predictions", predictions,
                 "--out", tmp_path / "out")
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["detection"]["f1"] == 1.0


def test_eval_missing_benchmark_exit_two(runner, tmp_path):
    result = run(
        runner,
        "eval",
        "--benchmark",
        tmp_path / "nope.jsonl",
        "--out",
        tmp_path,
    )
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# a model reply unusable twice (exit 2)
# ---------------------------------------------------------------------------

_SENTENCE = "Since b follows a, therefore b causes a."


def _unusable_twice(command, tmp):
    """The command's arguments and a cassette, recorded in ``tmp``, whose
    replies to the first transform, score or judge request and to its retry
    are both unusable."""
    sentences = _write(tmp / "sentences.jsonl", json.dumps(
        {"id": "s0", "sentence": _SENTENCE, "labels": ["WD"], "source": "bench"}) + "\n")
    model, args, call, replies = {
        "score": ("eval-model", ["--sentences", sentences],
                  lambda gateway: gateway.score_sentence(_SENTENCE, FallacyCode.WD),
                  ["no idea", "no idea"]),
        "eval": ("eval-model", ["--benchmark", sentences],
                 lambda gateway: gateway.judge_sentence(_SENTENCE), ["not json", "not json"]),
        "generate": ("gen-model", ["--code", "AF", "--n", 5],
                     lambda gateway: generate_bundle(FallacyCode.AF, 5, gateway),
                     [next(load_cassette(DATA_DIR / "cassette_generate_af.jsonl"))[1],
                      "only one line", "only one line"]),
    }[command]
    provider = FakeProvider(replies, model_name=model)
    with pytest.raises(ModelOutputError):
        call(Gateway(provider))
    cassette = tmp / "cassette.jsonl"
    write_cassette(cassette, [
        {"fingerprint": fingerprint(model, temperature, prompt), "response": reply}
        for (prompt, temperature), reply in zip(provider.calls, replies, strict=True)
    ])
    return args, cassette


@pytest.mark.parametrize("command, error", [
    # pinned byte for byte
    ("score", "error: no 0-3 integer in response: 'no idea'"),
    ("eval", "error: judge response unusable after retry: "
             "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("generate", "error: expected 5 sentences, got 1"),
])
def test_a_reply_unusable_twice_exits_two_with_its_error_line(runner, tmp_path, command, error):
    args, cassette = _unusable_twice(command, tmp_path)
    result = run(runner, command, *args, *_replay_args(cassette, tmp_path / "out"))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [error]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# a replayed cassette, read as requests arrive
# ---------------------------------------------------------------------------

#: A line that is not JSON, and one that is not UTF-8, with the error each
#: names after its ``path:line: ``.
_BAD_CASSETTE_LINES = {
    "bad-json": (b'{"fingerprint": \n', "Expecting value: line 1 column 17 (char 16)"),
    "not-utf8": (b'{"id": "\xff"}\n', "not UTF-8 text: byte 0xff at byte 9 of the line "
                                         "(invalid start byte)"),
}


@pytest.mark.parametrize("line", _BAD_CASSETTE_LINES)
@pytest.mark.parametrize("command, inputs, cassette", [
    ("score", ["--sentences", DATA_DIR / "sentences_small.jsonl"], "cassette_score.jsonl"),
    ("eval", ["--benchmark", DATA_DIR / "benchmark_small.jsonl"], "cassette_eval.jsonl"),
])
def test_a_bad_cassette_line_after_the_last_request_fails_the_command(
    runner, tmp_path, command, inputs, cassette, line
):
    # Every request is served before the bad line is read; it fails the
    # command all the same, as when the whole file is read first.
    data, message = _BAD_CASSETTE_LINES[line]
    recorded = (DATA_DIR / cassette).read_bytes()
    path = tmp_path / "cassette.jsonl"
    path.write_bytes(recorded + data)
    line_no = recorded.count(b"\n") + 1
    result = run(runner, command, *inputs, *_replay_args(path, tmp_path / "out"))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {path}:{line_no}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", _BAD_CASSETTE_LINES)
@pytest.mark.parametrize("command", ["score", "eval", "generate"])
def test_a_bad_cassette_line_after_a_reply_unusable_twice_is_the_error(
    runner, tmp_path, command, line
):
    args, cassette = _unusable_twice(command, tmp_path)
    recorded = cassette.read_bytes()
    data, message = _BAD_CASSETTE_LINES[line]
    cassette.write_bytes(recorded + data)
    line_no = recorded.count(b"\n") + 1
    result = run(runner, command, *args, *_replay_args(cassette, tmp_path / "out"))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
        f"error: {cassette}:{line_no}: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sentences, error", [
    ("sentences_small.jsonl", "error: [Errno 2] No such file or directory: '{cassette}'\n"),
    (None, "error: {sentences}:1: expected an object\n"),
], ids=["cassette-missing", "sentences-read-first"])
def test_a_missing_cassette_fails_when_the_provider_is_built(runner, tmp_path, sentences, error):
    # The inputs are read first, then the cassette is opened, before any request.
    sentences = DATA_DIR / sentences if sentences else _write(tmp_path / "s.jsonl", "[1]\n")
    cassette = tmp_path / "missing.jsonl"
    result = run(runner, "score", "--sentences", sentences,
                 *_replay_args(cassette, tmp_path / "out"))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == error.format(cassette=cassette, sentences=sentences)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# input and output errors (exit 2)
# ---------------------------------------------------------------------------


def _replay_args(cassette, out):
    config = DATA_DIR / "replay.cfg"
    return ["--mode", "replay", "--cassette", cassette, "--config", config, "--out", out]


def _write(path, text):
    path.write_text(text)
    return path


def _not_utf8(name, args):
    """A command whose input file ``name`` holds a byte that is not UTF-8 on
    its second line; None in ``args`` stands for that file."""

    def case(tmp):
        path = tmp / name
        path.write_bytes(b"ok\n\xff\n")
        return (
            [path if arg is None else arg for arg in args(tmp)],
            [f"{path}:2: not UTF-8 text: byte 0xff at byte 1 of the line"],
        )

    return case


def _bad_first_line(name, line, args):
    """A command whose input file ``name`` holds the bad ``line`` first; None
    in ``args`` stands for that file."""

    def case(tmp):
        path = _write(tmp / name, line + "\n")
        return [path if arg is None else arg for arg in args(tmp)], [f"{path}:1: "]

    return case


def _not_blank_line(name, char, args):
    """A command whose input file ``name`` holds a blank line of JSON
    whitespace and then ``char`` alone; None in ``args`` stands for that
    file."""

    def case(tmp):
        path = tmp / name
        path.write_text(f" \t\r\n{char}\n", encoding="utf-8")
        return (
            [path if arg is None else arg for arg in args(tmp)],
            [f"{path}:2: Expecting value: line 1 column 1 (char 0)"],
        )

    return case


#: The commands that read each JSON Lines input; None stands for the file.
_JSONL_INPUTS = [
    ("sentences", lambda tmp: [
        "score", "--sentences", None, *_replay_args(DATA_DIR / "cassette_score.jsonl", tmp / "out")]),
    ("benchmark", lambda tmp: [
        "eval", "--benchmark", None,
        "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", tmp / "out"]),
    ("predictions", lambda tmp: [
        "eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
        "--predictions", None, "--out", tmp / "out"]),
    ("cassette", lambda tmp: [
        "score", "--sentences", DATA_DIR / "sentences_small.jsonl",
        *_replay_args(None, tmp / "out")]),
]


def _bad_parallelism(command, value):
    """A record-mode ``score`` or ``eval`` whose ``evaluator.parallelism`` is
    ``value``; the endpoint is never contacted."""
    inputs = {
        "score": ["--sentences", DATA_DIR / "sentences_small.jsonl"],
        "eval": ["--benchmark", DATA_DIR / "benchmark_small.jsonl"],
    }[command]

    def case(tmp):
        config = _write(
            tmp / "run.cfg",
            f"evaluator.endpoint = http://127.0.0.1:9/\nevaluator.parallelism = {value}\n",
        )
        return (
            [command, *inputs, "--mode", "record", "--cassette", tmp / "c.jsonl",
             "--out", tmp / "out", "--config", config],
            [f"{config}:2: evaluator.parallelism must be a positive integer, got {value!r}"],
        )

    return case


#: A line each JSON Lines input accepts, with a ``%d`` in its id or key.
_VALID_LINES = {
    "sentences": '{"id": "s%d", "sentence": "x", "labels": ["AF"]}',
    "benchmark": '{"id": "b%d", "sentence": "x", "labels": ["AF"], "source": "bench"}',
    "predictions": '{"id": "b%d", "logic_error": true, "labels": ["AF"]}',
    "cassette": '{"fingerprint": "f%d", "response": "3"}',
}


def _not_utf8_after(kind, head, gap):
    """A command whose ``kind`` input opens with the lines ``head`` and holds
    a byte that is not UTF-8 ``gap`` lines after the last of them, valid
    lines between.  The whole file is decoded before a line's error is
    raised, so that byte is the error, at its own line and byte."""

    def case(tmp):
        path = tmp / f"{kind}.jsonl"
        between = [_VALID_LINES[kind] % n for n in range(len(head), len(head) + gap - 1)]
        path.write_bytes("".join(f"{line}\n" for line in [*head, *between]).encode()
                         + b'{"id": "\xff"}\n')
        line_no = len(head) + gap
        return (
            [path if arg is None else arg for arg in dict(_JSONL_INPUTS)[kind](tmp)],
            [f"{path}:{line_no}: not UTF-8 text: byte 0xff at byte 9 of the line (invalid start byte)\n"],
        )

    return case


BAD_INPUTS = {
    "generate-out-is-file": lambda tmp: (
        ["generate", "--code", "AF", "--n", 5,
         *_replay_args(DATA_DIR / "cassette_generate_af.jsonl", _write(tmp / "taken", ""))],
        [f"{tmp / 'taken'}"],
    ),
    "score-out-is-file": lambda tmp: (
        ["score", "--sentences", DATA_DIR / "sentences_small.jsonl",
         *_replay_args(DATA_DIR / "cassette_score.jsonl", _write(tmp / "taken", ""))],
        [f"{tmp / 'taken'}"],
    ),
    "eval-out-is-file": lambda tmp: (
        ["eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
         "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", _write(tmp / "taken", "")],
        [f"{tmp / 'taken'}"],
    ),
    "sentences-line-not-object": lambda tmp: (
        ["score", "--sentences", _write(tmp / "s.jsonl", "[1]\n"),
         *_replay_args(DATA_DIR / "cassette_score.jsonl", tmp / "out")],
        [f"{tmp / 's.jsonl'}:1"],
    ),
    # The summary table prints a tag as it is, one row a line and its columns
    # two spaces apart: a tag it cannot show is refused before any input is
    # read (the sentences here are bad, the cassette missing).
    **{
        f"score-method-tag-{name}": lambda tmp, tag=tag: (
            ["score", "--sentences", _write(tmp / "s.jsonl", "[1]\n"), "--method-tag", tag,
             *_replay_args(tmp / "missing.jsonl", tmp / "out")],
            [f"error: --method-tag {tag!r} must be printable text with no leading, "
             "trailing or repeated space\n"],
        )
        for name, tag in [
            ("empty", ""), ("only-space", " "), ("line-break", "two\nlines"),
            ("carriage-return", "a\rb"), ("tab", "a\tb"), ("no-break-space", "a\xa0b"),
            ("leading-space", " pat"), ("trailing-space", "pat "), ("two-spaces", "smarty  pat"),
        ]
    },
    "cassette-line-without-fingerprint": lambda tmp: (
        ["score", "--sentences", DATA_DIR / "sentences_small.jsonl",
         *_replay_args(_write(tmp / "c.jsonl", '{"response": "3"}\n'), tmp / "out")],
        [f"{tmp / 'c.jsonl'}:1", "'fingerprint'"],
    ),
    "benchmark-line-without-sentence": lambda tmp: (
        ["eval", "--benchmark", _write(tmp / "b.jsonl", '\n{"id": "b0", "labels": ["AF"]}\n'),
         "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", tmp / "out"],
        [f"{tmp / 'b.jsonl'}:2", "'sentence'"],
    ),
    "sentences-labels-not-list": lambda tmp: (
        ["score", "--sentences", _write(tmp / "s.jsonl", '{"id": "s0", "sentence": "x", "labels": 5}\n'),
         *_replay_args(DATA_DIR / "cassette_score.jsonl", tmp / "out")],
        [f"{tmp / 's.jsonl'}:1", "'labels'"],
    ),
    "benchmark-labels-not-list": lambda tmp: (
        ["eval", "--benchmark", _write(tmp / "b.jsonl", '{"id": "s0", "sentence": "x", "labels": 5}\n'),
         "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", tmp / "out"],
        [f"{tmp / 'b.jsonl'}:1", "'labels'"],
    ),
    "predictions-labels-not-list": lambda tmp: (
        ["eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
         "--predictions", _write(tmp / "p.jsonl", '{"id": "s0", "logic_error": true, "labels": 5}\n'),
         "--out", tmp / "out"],
        [f"{tmp / 'p.jsonl'}:1", "'labels'"],
    ),
    # A negative count would send no request at all and then report a
    # provider failure.
    "generator-max-retries-negative": lambda tmp: (
        ["generate", "--code", "AF", "--n", 5, "--mode", "live", "--out", tmp / "out", "--config",
         _write(tmp / "run.cfg", "generator.endpoint = http://127.0.0.1:9/\ngenerator.max_retries = -1\n")],
        ["generator.max_retries", "'-1'"],
    ),
    "evaluator-max-retries-not-integer": lambda tmp: (
        ["score", "--sentences", DATA_DIR / "sentences_small.jsonl", "--mode", "record",
         "--cassette", tmp / "c.jsonl", "--out", tmp / "out", "--config",
         _write(tmp / "run.cfg", "evaluator.endpoint = http://127.0.0.1:9/\nevaluator.max_retries = 2.5\n")],
        ["evaluator.max_retries", "'2.5'"],
    ),
    "batch-size-not-integer": lambda tmp: (
        ["generate", "--code", "AF", "--mode", "live", "--out", tmp / "out", "--config",
         _write(tmp / "run.cfg", "generator.endpoint = http://127.0.0.1:9/\nbatch_size = ten\n")],
        ["batch_size", "'ten'"],
    ),
    "generator-temperature-not-number": lambda tmp: (
        ["generate", "--code", "AF", "--n", 5, "--mode", "live", "--out", tmp / "out", "--config",
         _write(tmp / "run.cfg", "generator.endpoint = http://127.0.0.1:9/\ngenerator.temperature = hot\n")],
        [f"{tmp / 'run.cfg'}:2: generator.temperature must be a number within [0, 2], got 'hot'"],
    ),
    # A misspelled key used to be ignored: width 1, temperature 1.0.
    "config-key-misspelled-parallelism": lambda tmp: (
        ["score", "--sentences", DATA_DIR / "sentences_small.jsonl", "--mode", "record",
         "--cassette", tmp / "c.jsonl", "--out", tmp / "out", "--config",
         _write(tmp / "run.cfg", "evaluator.endpoint = http://127.0.0.1:9/\nevaluator.paralelism = 4\n")],
        [f"{tmp / 'run.cfg'}:2", "'evaluator.paralelism'"],
    ),
    "config-key-misspelled-temperature": lambda tmp: (
        ["generate", "--code", "AF", "--n", 5, "--mode", "live", "--out", tmp / "out", "--config",
         _write(tmp / "run.cfg", "# live\n\ngenerator.temprature = 0.2\n")],
        [f"{tmp / 'run.cfg'}:3", "'generator.temprature'"],
    ),
    "config-key-of-the-other-role": lambda tmp: (
        ["eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
         "--mode", "replay", "--cassette", DATA_DIR / "cassette_eval.jsonl", "--out", tmp / "out",
         "--config", _write(tmp / "run.cfg", "evaluator.model = eval-model\nevaluator.temperature = 0\n")],
        [f"{tmp / 'run.cfg'}:2", "'evaluator.temperature'"],
    ),
    **{
        f"evaluator-parallelism-{name}": _bad_parallelism(command, value)
        for name, command, value in [
            ("zero", "score", "0"),
            ("negative", "eval", "-1"),
            ("fraction", "score", "2.5"),
            ("word", "eval", "two"),
        ]
    },
    # bool("no") is true: a string here would read as a detection.
    "predictions-logic-error-not-boolean": lambda tmp: (
        ["eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
         "--predictions", _write(tmp / "p.jsonl", '{"id": "s0", "logic_error": "no", "labels": []}\n'),
         "--out", tmp / "out"],
        [f"{tmp / 'p.jsonl'}:1", "'logic_error'", "'no'"],
    ),
    # str() would score the text "None" and load the id "None".
    "sentences-sentence-null": lambda tmp: (
        ["score", "--sentences", _write(tmp / "s.jsonl", '{"id": "s0", "sentence": null, "labels": ["AF"]}\n'),
         *_replay_args(DATA_DIR / "cassette_score.jsonl", tmp / "out")],
        [f"{tmp / 's.jsonl'}:1", "'sentence'", "None"],
    ),
    "sentences-id-float": lambda tmp: (
        ["score", "--sentences", _write(tmp / "s.jsonl", '{"id": 1.5, "sentence": "x", "labels": ["AF"]}\n'),
         *_replay_args(DATA_DIR / "cassette_score.jsonl", tmp / "out")],
        [f"{tmp / 's.jsonl'}:1", "'id'", "1.5"],
    ),
    "sentences-without-labels-or-code": lambda tmp: (
        ["score", "--sentences", _write(tmp / "s.jsonl", '{"id": "s0", "sentence": "x"}\n'),
         *_replay_args(DATA_DIR / "cassette_score.jsonl", tmp / "out")],
        [f"{tmp / 's.jsonl'}:1", "'labels'", "'code'"],
    ),
    "benchmark-id-null": lambda tmp: (
        ["eval", "--benchmark", _write(tmp / "b.jsonl", '{"id": null, "sentence": "x", "labels": ["AF"]}\n'),
         "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", tmp / "out"],
        [f"{tmp / 'b.jsonl'}:1", "'id'", "None"],
    ),
    "benchmark-sentence-list": lambda tmp: (
        ["eval", "--benchmark", _write(tmp / "b.jsonl", '{"id": "b0", "sentence": ["a"], "labels": ["AF"]}\n'),
         "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", tmp / "out"],
        [f"{tmp / 'b.jsonl'}:1", "'sentence'", "['a']"],
    ),
    "predictions-id-boolean": lambda tmp: (
        ["eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
         "--predictions", _write(tmp / "p.jsonl", '{"id": true, "logic_error": true, "labels": []}\n'),
         "--out", tmp / "out"],
        [f"{tmp / 'p.jsonl'}:1", "'id'", "True"],
    ),
    # A repeated id is refused where it repeats, before any request is sent.
    "benchmark-id-repeated": lambda tmp: (
        ["eval", "--benchmark", _write(tmp / "b.jsonl", '{"id": "b0", "sentence": "x", "labels": ["AF"]}\n'
                                       '{"id": "b0", "sentence": "y", "labels": ["FC"]}\n'),
         "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", tmp / "out"],
        [f"{tmp / 'b.jsonl'}:2", "'id'", "'b0'"],
    ),
    "predictions-id-repeated": lambda tmp: (
        ["eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
         "--predictions", _write(tmp / "p.jsonl", '{"id": 3, "logic_error": true, "labels": []}\n'
                                 '{"id": "3", "logic_error": false, "labels": []}\n'),
         "--out", tmp / "out"],
        [f"{tmp / 'p.jsonl'}:2", "'id'", "'3'"],
    ),
    # The signature check keeps every base the join reads to facts the schema
    # body can run over.
    **{
        f"derive-kb-{name}": lambda tmp, code=code, text=text, message=message: (
            ["derive", "--code", code, "--kb", _write(tmp / "f.pl", text)], [message]
        )
        for name, code, text, message in [
            ("fact-predicate-rule", "FA", "hp(a, b).\nhp(X, Y) :- hp(Y, X).\n",
             "hp/2 is a fact predicate of the FA schema; the knowledge base must not define it by a rule"),
            ("auxiliary-fact", "WD", "cs(a, b).\noc(a, b).\n",
             "oc/2 is defined by the WD schema; the knowledge base must not define it"),
            ("query-head-rule", "WD", "cs(a, b).\npd(P, X) :- cs(X, P).\n",
             "pd/2 is defined by the WD schema; the knowledge base must not define it"),
            ("closure-fact", "IT", "im(a, b).\nim_t(a, b).\n",
             "im_t/2 is defined by the IT schema; the knowledge base must not define it"),
        ]
    },
    # Every input file is read through one decoder, whose error names the
    # file and the line of the first byte that is not UTF-8.
    "derive-kb-not-utf8": _not_utf8("f.pl", lambda tmp: ["derive", "--code", "FC", "--kb", None]),
    "validate-kb-not-utf8": _not_utf8("f.pl", lambda tmp: ["validate", "--code", "FC", "--kb", None]),
    "sentences-not-utf8": _not_utf8("s.jsonl", lambda tmp: [
        "score", "--sentences", None, *_replay_args(DATA_DIR / "cassette_score.jsonl", tmp / "out")]),
    "benchmark-not-utf8": _not_utf8("b.jsonl", lambda tmp: [
        "eval", "--benchmark", None,
        "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", tmp / "out"]),
    "predictions-not-utf8": _not_utf8("p.jsonl", lambda tmp: [
        "eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
        "--predictions", None, "--out", tmp / "out"]),
    "cassette-not-utf8": _not_utf8("c.jsonl", lambda tmp: [
        "score", "--sentences", DATA_DIR / "sentences_small.jsonl", "--mode", "replay",
        "--cassette", None, "--config", DATA_DIR / "replay.cfg", "--out", tmp / "out"]),
    "config-not-utf8": _not_utf8("run.cfg", lambda tmp: [
        "score", "--sentences", DATA_DIR / "sentences_small.jsonl", "--mode", "replay",
        "--cassette", DATA_DIR / "cassette_score.jsonl", "--config", None, "--out", tmp / "out"]),
    # Read a line at a time, a JSON Lines input still reports a byte that is
    # not UTF-8 before any line's error, however far down the file it is.
    **{
        f"{kind}-{name}-then-not-utf8": _not_utf8_after(kind, head, gap)
        for kind, missing_key in [
            ("sentences", '{"id": "s0"}'), ("benchmark", '{"id": "b0", "labels": ["AF"]}'),
            ("predictions", '{"id": "b0", "labels": []}'), ("cassette", '{"response": "3"}'),
        ]
        for name, head, gap in [
            ("bad-json", ['{"id": '], 40),
            ("missing-key", [missing_key], 40),
            ("repeated-id", [_VALID_LINES[kind] % 0] * 2, 40),
            ("valid-line", [_VALID_LINES[kind] % 0], 1),
        ]
        if name != "repeated-id" or kind in ("benchmark", "predictions")
    },
    "benchmark-unknown-label": lambda tmp: (
        ["eval", "--benchmark", _write(tmp / "b.jsonl", '{"id": "s0", "sentence": "x", "labels": ["ZZ"]}\n'),
         "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", tmp / "out"],
        [f"{tmp / 'b.jsonl'}:1", "'ZZ'"],
    ),
    # A line nested deeper than the decoder recurses, or with a number longer
    # than int() reads, is a bad line like any other.
    **{
        f"{kind}-{shape}": _bad_first_line(f"{kind}.jsonl", line, args)
        for kind, args in _JSONL_INPUTS
        for shape, line in [
            ("nested-too-deep", "[" * 50_000),
            ("number-too-long", '{"id": ' + "1" * 5_000 + "}"),
        ]
    },
    # Only spaces, tabs and a \r make a blank line: other white space alone
    # on a line is no JSON value.
    **{
        f"{kind}-{name}-only-line": _not_blank_line(f"{kind}.jsonl", char, args)
        for kind, args in _JSONL_INPUTS
        for name, char in [
            ("nbsp", "\xa0"), ("form-feed", "\x0c"), ("file-separator", "\x1c"),
            ("next-line", "\x85"), ("ideographic-space", "\u3000"),
        ]
    },
    # A cassette entry that is not two strings would fail only when replayed.
    **{
        f"cassette-{name}": _bad_first_line("cassette.jsonl", line, lambda tmp: [
            "score", "--sentences", DATA_DIR / "sentences_small.jsonl", *_replay_args(None, tmp / "out")])
        for name, line in [
            ("fingerprint-not-string", '{"fingerprint": 5, "response": "3"}'),
            ("response-null", '{"fingerprint": "f", "response": null}'),
        ]
    },
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_or_output_exit_two(runner, tmp_path, case):
    args, expected = BAD_INPUTS[case](tmp_path)
    result = run(runner, *args)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert all(text in result.stderr for text in expected), result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("previous", [True, False], ids=["overwrite", "fresh"])
def test_failed_output_write_keeps_previous_bytes_and_no_temp_file(
    runner, tmp_path, monkeypatch, previous
):
    out = tmp_path / "out"
    out.mkdir()
    if previous:
        for name in ("report.json", "report.txt", "predictions.jsonl"):
            (out / name).write_text(f"old {name}\n")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    staged = []

    def replace_fails(src, dst):
        staged.append(Path(src).read_text(encoding="utf-8"))
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", replace_fails)
    result = run(
        runner, "eval", "--benchmark", DATA_DIR / "benchmark_small.jsonl",
        "--predictions", DATA_DIR / "predictions_small.jsonl", "--out", out,
    )
    assert result.exit_code == 2 and result.stderr == "error: disk full\n"
    assert staged and staged[0].startswith("{")  # failed after the text was written
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "generator.model = g\n"
        "generator.temperature = 0.5\n"
        "evaluator.model = e\n"
        "mode = record\n"
        "cassette = tape.jsonl\n"
        "batch_size = 7\n"
        "evaluator.parallelism = 4\n"
    )
    run_config = parse_config(path)
    assert run_config.generator.model_name == "g"
    assert run_config.generation_temperature == 0.5
    assert run_config.evaluator.model_name == "e"
    assert run_config.mode == "record"
    assert run_config.batch_size == 7
    assert run_config.parallelism == 4


def test_run_config_validates_generation_temperature(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("generator.temperature = 2.5\ncassette = tape.jsonl\n")
    with pytest.raises(ValueError):
        parse_config(path)
    # Scoring and judging always run at temperature 0, so the evaluator has
    # no temperature key.
    path.write_text("cassette = tape.jsonl\nevaluator.temperature = 9\n")
    with pytest.raises(ValueError, match=r"run\.cfg:2: unknown config key 'evaluator\.temperature'"):
        parse_config(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("evaluator.parallelism = 0", "evaluator.parallelism must be a positive integer, got '0'"),
        ("batch_size = 0", "batch_size must be a positive integer, got '0'"),
        ("generator.max_retries = -1",
         "generator.max_retries must be a non-negative integer, got '-1'"),
        ("evaluator.max_retries = x", "evaluator.max_retries must be a non-negative integer, got 'x'"),
        ("generator.temperature = nan", "generator.temperature must be a number within [0, 2], got 'nan'"),
        ("mode = bogus", "unknown mode 'bogus'"),
    ],
)
def test_parse_config_names_the_line_of_a_bad_value(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"cassette = tape.jsonl\n{line}\n")
    with pytest.raises(ValueError) as caught:
        parse_config(path)
    assert str(caught.value) == f"{path}:2: {message}"


def test_parse_config_flag_and_default_errors_name_no_line(tmp_path):
    path = tmp_path / "run.cfg"
    # A --mode flag wins over the file's value, so a bad one there is unread.
    path.write_text("cassette = tape.jsonl\nmode = bogus\n")
    assert parse_config(path, mode="record").mode == "record"
    with pytest.raises(ValueError) as caught:
        parse_config(path, mode="bogus")
    assert str(caught.value) == "unknown mode 'bogus'"
    with pytest.raises(ValueError) as caught:
        parse_config(None)
    assert str(caught.value) == "replay mode requires a cassette path"


def test_parse_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just words\n")
    with pytest.raises(ValueError):
        parse_config(path)


# ---------------------------------------------------------------------------
# record mode with several requests in flight
# ---------------------------------------------------------------------------


class _Upstream:
    """A fake chat endpoint behind ``transport.HttpSession``: every session it
    makes posts here.  A reply is a function of the prompt and of how often
    that prompt was asked before, and each request sleeps 0-5 ms, so
    concurrent items finish out of order.  It counts requests in flight."""

    SENTENCE = re.compile(r"claim (\d+) holds")

    def __init__(self, *, unusable=(), failing=(), slow=()):
        self.unusable = set(unusable)  # first reply to item i is unusable
        self.failing = set(failing)  # item i gets a malformed body
        self.slow = set(slow)  # item i waits 30 ms
        self.lock = threading.Lock()
        self.asked: dict[str, int] = {}
        self.requested: list[int] = []
        self.in_flight = 0
        self.max_in_flight = 0
        self.sessions: list[set[int]] = []
        self.random = random.Random(7)

    def session(self, route):
        upstream, threads = self, set()
        self.sessions.append(threads)

        class Session:
            def post(self, url, json, headers, timeout):
                threads.add(threading.get_ident())
                return upstream.answer(json["messages"][0]["content"])

            def close(self):
                pass

        return Session()

    def answer(self, prompt):
        item = int(self.SENTENCE.search(prompt).group(1))
        with self.lock:
            self.requested.append(item)
            asked = self.asked[prompt] = self.asked.get(prompt, 0) + 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            delay = 0.03 if item in self.slow else self.random.uniform(0, 0.005)
        try:
            time.sleep(delay)
        finally:
            with self.lock:
                self.in_flight -= 1
        if item in self.failing:
            return _ChatResponse(ValueError(f"item {item}"))
        if item in self.unusable and asked == 1:
            return _ChatResponse("no idea")
        if prompt.startswith("You are a professional logical fallacy evaluator"):
            return _ChatResponse(f"Score: {item % 4}")
        codes = list(FallacyCode)
        return _ChatResponse(json.dumps({
            "logic_error": "yes" if item % 3 else "no",
            "logic_fallacies": [codes[item % 14].value, codes[(item + 1) % 14].value][: item % 3],
            "details": f"about claim {item}",
        }))


class _ChatResponse:
    status_code = 200

    def __init__(self, content):
        self.content = content

    def json(self):
        if isinstance(self.content, Exception):
            raise self.content
        return {"choices": [{"message": {"content": self.content}}]}


# Duplicate items ask the same prompts, possibly at the same time.
_ITEMS = [*range(24), 3, 3, 10, *range(24, 40), 10]


def _record_run(runner, monkeypatch, tmp_path, command, width, upstream):
    """``command`` in record mode against ``upstream`` with
    ``evaluator.parallelism = width``; returns (result, out dir, cassette)."""
    name = f"{command}-{width}"
    if command == "score":
        inputs = _write(tmp_path / "sentences.jsonl", "".join(
            json.dumps({"id": f"s{n}", "sentence": f"Since claim {i} holds, it follows.",
                        "labels": [list(FallacyCode)[i % 11].value]}) + "\n"
            for n, i in enumerate(_ITEMS)))
        flag = "--sentences"
    else:
        inputs = _write(tmp_path / "benchmark.jsonl", "".join(
            json.dumps({"id": f"b{n}", "sentence": f"Since claim {i} holds, it follows.",
                        "labels": [list(FallacyCode)[i % 14].value] if i % 4 else [],
                        "source": "bench" if i % 4 else "benign"}) + "\n"
            for n, i in enumerate(_ITEMS)))
        flag = "--benchmark"
    config = _write(tmp_path / f"{name}.cfg", (
        "evaluator.endpoint = http://127.0.0.1:9/v1\nevaluator.model = eval-model\n"
        f"evaluator.max_retries = 0\nevaluator.parallelism = {width}\n"))
    monkeypatch.setattr(transport, "HttpSession", upstream.session)
    out, cassette = tmp_path / name, tmp_path / f"{name}.jsonl"
    result = run(runner, command, flag, inputs, "--mode", "record", "--cassette", cassette,
                 "--config", config, "--out", out)
    return result, out, cassette


@pytest.mark.parametrize("command", ["score", "eval"])
def test_record_at_width_three_equals_a_serial_record(
    runner, monkeypatch, tmp_path, caplog, command
):
    recorded = {}
    for width in (1, 3):
        caplog.clear()
        upstream = _Upstream(unusable={5, 17})
        result, out, cassette = _record_run(runner, monkeypatch, tmp_path, command, width, upstream)
        assert result.exit_code == 0, result.output
        assert caplog.text.count("retrying once") == 2  # the corrective retries ran
        assert upstream.max_in_flight == width
        # one session per thread, never shared between threads
        assert len(upstream.sessions) == width
        assert all(len(threads) == 1 for threads in upstream.sessions)
        recorded[width] = (
            cassette.read_bytes(),
            {path.name: path.read_bytes() for path in sorted(out.iterdir())},
        )
    serial_cassette, serial_outputs = recorded[1]
    assert len(serial_outputs) == 3
    assert recorded[3] == recorded[1]
    requests_per_item = 3 if command == "score" else 1
    assert len(serial_cassette.splitlines()) == requests_per_item * len(_ITEMS) + 2


class _RateLimited:
    status_code = 429

    def __init__(self, wait):
        self.headers = {"Retry-After": wait}


@pytest.mark.parametrize("wait", ["3600", "9" * 100])
@pytest.mark.parametrize("command", ["score", "eval"])
def test_live_retry_after_above_the_cap_exits_3_without_waiting(
    runner, monkeypatch, tmp_path, command, wait
):
    class Session:
        def __init__(self, route):
            pass

        def post(self, url, json, headers, timeout):
            return _RateLimited(wait)

        def close(self):
            pass

    sleeps = []
    monkeypatch.setattr(transport, "HttpSession", Session)
    monkeypatch.setitem(gateway.HttpProvider.__init__.__kwdefaults__, "sleep", sleeps.append)
    line = {"id": "s0", "sentence": "Since claim 1 holds, it follows.", "labels": ["AF"]}
    if command == "eval":
        line["source"] = "bench"
    inputs = _write(tmp_path / "in.jsonl", json.dumps(line) + "\n")
    config = _write(tmp_path / "live.cfg", (
        "evaluator.endpoint = http://127.0.0.1:9/v1\nevaluator.model = eval-model\n"
        "evaluator.max_retries = 3\n"))
    flag = "--sentences" if command == "score" else "--benchmark"
    result = run(runner, command, flag, inputs, "--mode", "live", "--config", config,
                 "--out", tmp_path / "out")
    assert result.exit_code == 3, result.output
    assert f"Retry-After asks for {wait} s" in result.stderr
    assert sleeps == []


@pytest.mark.parametrize("mode", ["live", "record"])
def test_an_endpoint_that_is_no_http_url_exits_3_before_any_request(runner, monkeypatch, tmp_path, mode):
    sessions = []
    monkeypatch.setattr(transport, "HttpSession", sessions.append)
    line = {"id": "s0", "sentence": "Since claim 1 holds, it follows.", "labels": ["AF"]}
    inputs = _write(tmp_path / "in.jsonl", json.dumps(line) + "\n")
    config = _write(tmp_path / "run.cfg", "evaluator.endpoint = localhost:8080/v1\n")
    result = run(runner, "score", "--sentences", inputs, "--mode", mode, "--cassette",
                 tmp_path / "c.jsonl", "--config", config, "--out", tmp_path / "out")
    assert result.exit_code == 3, result.output
    assert result.stderr == "error: endpoint 'localhost:8080/v1' is not an http(s) URL\n"
    assert sessions == []
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in.jsonl", "run.cfg"]


_RECORD_WITHOUT_REQUESTS = """
import gc
import sys

import fallacylab.metrics

print("with metrics:", [name for name in ("fallacylab.gateway",) if name in sys.modules])

import fallacylab.cli

print("loaded:", [name for name in ("http.client", "requests") if name in sys.modules])
sys.modules["requests"] = None  # importing it now fails
try:
    fallacylab.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
gc.collect()  # an unclosed socket warns here
print("exit:", code)
"""


def test_record_runs_on_the_standard_library_and_closes_its_connection(tmp_path, chat_server):
    # A fresh interpreter, so that the modules loaded are the command's own.
    sentences = _write(tmp_path / "sentences.jsonl", "".join(
        json.dumps({"id": f"s{i}", "sentence": f"Since claim {i} holds, it follows.",
                    "labels": ["AF"]}) + "\n" for i in range(2)))
    config = _write(tmp_path / "record.cfg", (
        f"evaluator.endpoint = {chat_server.endpoint}\nevaluator.model = eval-model\n"))
    src = Path(fallacylab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _RECORD_WITHOUT_REQUESTS,
         "score", "--sentences", sentences, "--mode", "record", "--cassette", tmp_path / "c.jsonl",
         "--config", config, "--out", tmp_path / "out"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("with metrics: []\nloaded: []\n")
    assert done.stdout.endswith("exit: 0\n")
    assert done.stderr == ""
    assert len(chat_server.arrivals) == 6
    assert chat_server.opened == 1
    assert len(list(load_cassette(tmp_path / "c.jsonl"))) == 6


def test_importing_the_cli_loads_neither_openssl_nor_email():
    # A fresh interpreter: hashlib loads OpenSSL's libcrypto and email.utils
    # loads socket, though a command needs them only for a cassette key or
    # a Retry-After date.
    src = Path(fallacylab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, fallacylab.cli; print(sorted("
         "name for name in ('hashlib', '_hashlib', 'email', 'socket') if name in sys.modules))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("command", ["score", "eval"])
def test_record_failure_at_width_three_is_the_serial_failure(runner, monkeypatch, tmp_path, command):
    # Item 11 fails after 30 ms, item 12 at once: at width 3 item 12 fails
    # first in time, but a serial run never reaches it.
    k = 11
    outcomes = {}
    for width in (1, 3):
        upstream = _Upstream(failing={k, k + 1}, slow={k})
        started = time.monotonic()
        result, out, cassette = _record_run(runner, monkeypatch, tmp_path, command, width, upstream)
        assert time.monotonic() - started < 30
        assert result.exit_code == 3, result.output
        assert not out.exists() and not cassette.exists()
        assert max(upstream.requested) <= k + width - 1
        outcomes[width] = result.stderr
    assert f"item {k}" in outcomes[1] and outcomes[1].startswith("error: ")
    assert outcomes[3] == outcomes[1]
