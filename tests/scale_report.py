"""Per-code load and derive times at a chosen number of fact groups.

Run from the repository root:

    PYTHONPATH=src python tests/scale_report.py --groups 1000

For each of the eleven schema codes it builds ``--groups`` one-instance fact
groups with the benchmark's seeded input generator (``perfbench/inputs.py``;
a quarter of the groups are near-miss decoys), then prints the best of
``--repeat`` timings of parsing the text alone (``parse_program``), of
validating it against its own code (``validate_kb_against_schema`` over
the ``parse_statements`` list, as ``fallacylab validate`` runs it), of
loading it (``KnowledgeBase.from_text``: the parse plus the base build) and,
separately, of deriving over the loaded base (``derive_instances`` plus
``ordering_diagnostic``, as ``fallacylab derive`` runs them).  Two more
columns split the derive: the join's part (``engine.join``) and the
soundness recheck of every derived tuple (``confirm_instance``).  It exits 1
if any code's text has a validation finding or derives other tuples than the
generator lists.  The file name keeps pytest from collecting it.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402

from fallacylab.engine import join  # noqa: E402
from fallacylab.kb import KnowledgeBase  # noqa: E402
from fallacylab.labels import FallacyCode  # noqa: E402
from fallacylab.parser import parse_program, parse_statements  # noqa: E402
from fallacylab.schemas import (  # noqa: E402
    confirm_instance,
    derive_instances,
    fact_table,
    ordering_diagnostic,
    schema_for,
    validate_kb_against_schema,
)


def _best(repeat: int, fn):
    """Smallest wall time of ``repeat`` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


_COLUMNS = (
    ("parse s", 9), ("validate s", 12), ("load s", 9), ("derive s", 10), ("solve s", 9),
    ("recheck s", 11),
)


def _columns(times) -> str:
    return "".join(f"{seconds:>{width}.3f}" for seconds, (_, width) in zip(times, _COLUMNS))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    print(f"{args.groups} groups, seed {args.seed}, best of {args.repeat}")
    print(f"{'code':<5}" + "".join(f"{name:>{width}}" for name, width in _COLUMNS) + f"{'tuples':>8}")
    totals = [0.0] * len(_COLUMNS)
    wrong, invalid = [], []
    for name, groups in inputs.derive_inputs(args.seed, args.groups).items():
        code = FallacyCode(name)
        text = inputs.groups_text(groups)
        # The parsed clauses and statements are dropped before the load is
        # timed, so the collector does not walk them during it.
        parse_s = _best(args.repeat, lambda: parse_program(text))[0]
        statements = [item for item, _, _, _ in parse_statements(text)]
        validate_s, report = _best(
            args.repeat, lambda: validate_kb_against_schema(code, statements)
        )
        del statements
        if not report.clean:
            invalid.append(name)
        load_s, kb = _best(args.repeat, lambda: KnowledgeBase.from_text(text))

        def derive():
            tuples = derive_instances(code, kb)
            ordering_diagnostic(code, kb, tuples)
            return tuples

        derive_s, tuples = _best(args.repeat, derive)
        if [t.render() for t in tuples] != inputs.expected_tuples(groups):
            wrong.append(name)
        schema = schema_for(code)
        table = fact_table(schema, kb)
        rule = schema.rules[0]
        solve_s, _ = _best(args.repeat, lambda: join(rule, table))
        recheck_s, _ = _best(
            args.repeat, lambda: all(confirm_instance(code, table, t.args) for t in tuples)
        )
        times = (parse_s, validate_s, load_s, derive_s, solve_s, recheck_s)
        totals = [total + seconds for total, seconds in zip(totals, times)]
        print(f"{name:<5}" + _columns(times) + f"{len(tuples):>8}")
    print(f"{'all':<5}" + _columns(totals))
    if invalid:
        print(f"validation findings: {', '.join(invalid)}", file=sys.stderr)
    if wrong:
        print(f"tuples differ from the generator's list: {', '.join(wrong)}", file=sys.stderr)
    return 1 if invalid or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
