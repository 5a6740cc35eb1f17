"""Smoke runs of the in-process measuring scripts, ``replay_report.py`` and
``scale_report.py``, at sizes small enough for every test run.  Each exits 0
only when its outputs equal the by-construction ones."""
from __future__ import annotations

import replay_report
import scale_report


def test_replay_report_runs_score_and_eval(capsys):
    assert replay_report.main(["--sentences", "30", "--entries", "40", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "load s" in lines[1] and lines[1].endswith("peak KB")
    assert [line.split()[0] for line in lines[2:]] == ["score", "eval"]
    # Requests, distinct keys and keys hashed: a score's three requests
    # share one key, hashed once.
    counts = {line.split()[0]: [int(n) for n in line.split()[3:6]] for line in lines[2:]}
    assert counts == {"score": [90, 30, 30], "eval": [40, 40, 40]}
    # The last column is each command's tracemalloc peak in KB.
    assert all(float(line.split()[6]) > 0 for line in lines[2:])
    assert all(len(line.split()) == 7 for line in lines[2:])


def test_scale_report_runs_every_code(capsys):
    assert scale_report.main(["--groups", "4", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 11 + 1 and lines[-1].startswith("all")
