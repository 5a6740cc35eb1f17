"""Per-code load and derive times at a chosen number of fact groups.

Run from the repository root:

    PYTHONPATH=src python tests/scale_report.py --groups 1000

For each of the eleven schema codes it builds ``--groups`` one-instance fact
groups with the benchmark's seeded input generator (``perfbench/inputs.py``;
a quarter of the groups are near-miss decoys), then prints the best of
``--repeat`` timings of parsing the text alone (``parse_statements``, as the
load and ``fallacylab validate`` read it; a flat fact line comes out as its
key and argument text, so ``parse s`` builds no row), of validating it
against its own code (``validate_kb_against_schema`` over the
``parse_statements`` list, as ``fallacylab validate`` runs it), of loading
it (``KnowledgeBase.from_text``: the parse plus the base build, which builds
each flat fact's row with ``parser.flat_args``) and, separately, of deriving
over the loaded
base (``derive_instances`` plus ``ordering_diagnostic``, as ``fallacylab
derive`` runs them).  Two more columns split the derive: the join's part
(``engine.join``, already compiled) and the soundness recheck of every
derived tuple by its witness (``confirm_instance``).  Each of those two
timings reads a fresh ``fact_table``, so no index an earlier repetition
built is counted as free.  Each timed call follows a full ``gc.collect()``
and runs with the cyclic collector paused, so no row pays for walking what
earlier rows left on the heap, and a single ``--repeat 1`` row is
comparable between checkouts.  It exits 1 if any code's text has a
validation finding or derives other tuples than the generator lists.  The
file name keeps pytest from collecting it.
"""
from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402

from fallacylab.engine import join  # noqa: E402
from fallacylab.kb import KnowledgeBase  # noqa: E402
from fallacylab.labels import FallacyCode  # noqa: E402
from fallacylab.parser import parse_statements  # noqa: E402
from fallacylab.schemas import (  # noqa: E402
    confirm_instance,
    derive_instances,
    fact_table,
    ordering_diagnostic,
    schema_for,
    validate_kb_against_schema,
)


def _best(repeat: int, fn, setup=lambda: ()):
    """Smallest wall time of ``repeat`` calls of ``fn(*setup())``, each on
    what an untimed ``setup()`` call returns, and the last call's result.
    Each call runs after a full collection, with the cyclic collector
    paused."""
    best = float("inf")
    enabled = gc.isenabled()
    for _ in range(repeat):
        args = setup()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn(*args)
            best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
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
        parse_s = _best(args.repeat, lambda: list(parse_statements(text)))[0]
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
        rule = schema.rules[0]

        def fresh_table():
            return (fact_table(schema, kb),)

        solve_s, solutions = _best(args.repeat, lambda table: join(rule, table), fresh_table)
        witnesses: dict = {}
        for witness, values in solutions:
            witnesses.setdefault(values, witness)
        recheck_s, certified = _best(
            args.repeat,
            lambda table: all(
                confirm_instance(code, table, values, witness)
                for values, witness in witnesses.items()
            ),
            fresh_table,
        )
        if not certified or list(witnesses) != [t.args for t in tuples]:
            wrong.append(name)
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
