from __future__ import annotations

import hashlib
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import sld_oracle
from fallacylab import engine, parser, schemas
from fallacylab import kb as kb_module
from fallacylab.cli import main
from fallacylab.engine import Atom, Goal, Struct, compile_join, join
from fallacylab.errors import SignatureError, UnknownSchemaError
from fallacylab.gateway import Gateway
from fallacylab.kb import KnowledgeBase
from fallacylab.labels import SCHEMA_CODES, FallacyCode
from fallacylab.parser import parse_statements
from fallacylab.schemas import (
    PREDICATE_VOCABULARY,
    confirm_instance,
    derive_instances,
    fact_table,
    ordering_diagnostic,
    schema_catalog,
    schema_for,
    validate_kb_against_schema,
)
from fallacylab.pipeline import generate_bundle
from fallacylab.seeds import load_seed

from conftest import DATA_DIR, CountingRows, FakeProvider, parse_program
from fixpoint_oracle import (
    engine_counts,
    oracle_counts,
    oracle_tuples,
    ordered_solutions,
    random_kb,
)
from sld_oracle import FlounderError, Program, findall


def kb_from(text: str) -> KnowledgeBase:
    return KnowledgeBase.from_text(text)


def atoms(*names: str) -> tuple[Atom, ...]:
    return tuple(Atom(n) for n in names)


FS_SATISFIED = "ha(scene, act_flip).\nha(scene, dark_onset).\nrc(no_photons, dark_onset).\n"
FS_MISORDERED = "ha(scene, zz_flip).\nha(scene, dark_onset).\nrc(no_photons, dark_onset).\n"


# ---------------------------------------------------------------------------
# Catalog shape
# ---------------------------------------------------------------------------

EXPECTED_ARITIES = {
    FallacyCode.ID: 4,
    FallacyCode.FA: 4,
    FallacyCode.FP: 5,
    FallacyCode.AF: 4,
    FallacyCode.FC: 3,
    FallacyCode.BQ: 2,
    FallacyCode.CT: 2,
    FallacyCode.IE: 2,
    FallacyCode.IT: 2,
    FallacyCode.WD: 2,
    FallacyCode.FS: 2,
}


def test_schema_arities_are_fixed():
    for code, arity in EXPECTED_ARITIES.items():
        assert schema_for(code).arity == arity


def test_vocabulary_has_24_predicates():
    assert len(PREDICATE_VOCABULARY) == 24


def test_every_body_predicate_is_vocabulary_auxiliary_or_builtin():
    for code in SCHEMA_CODES:
        schema = schema_for(code)
        heads = {"pd", "im_t", "oc"}
        for rule in schema.rules:
            for lit in rule.body:
                if isinstance(lit, Goal):
                    name = lit.term.functor
                    assert name in PREDICATE_VOCABULARY or name in heads, (code, name)


def test_signatures_are_vocabulary_predicates():
    # Each schema's fact predicates are worked out from its query body; every
    # one must be in the vocabulary, at the vocabulary's arity.
    for code in SCHEMA_CODES:
        for name, arity in schema_for(code).signatures:
            assert PREDICATE_VOCABULARY.get(name, (None,))[0] == arity, (code, name, arity)


def test_label_only_codes_have_no_schema():
    for code in (FallacyCode.EC, FallacyCode.NF, FallacyCode.FD):
        with pytest.raises(UnknownSchemaError):
            schema_for(code)


def test_catalog_lists_all_eleven():
    text = schema_catalog()
    for code in SCHEMA_CODES:
        assert f"% {code.value}:" in text
    assert text.count("pd(") == 11


def test_catalog_matches_committed_text():
    # The catalog is embedded in prompts, so cassette fingerprints hang on
    # every byte of it.
    expected = (DATA_DIR / "schema_catalog.txt").read_text(encoding="utf-8")
    assert schema_catalog() + "\n" == expected


def _join_sources() -> str:
    return "\n".join(
        f"% {code.value}\n{schema_for(code).rules[0].compiled_join.source}"
        for code in SCHEMA_CODES
    )


def test_compiled_joins_match_committed_text():
    # Each schema's join as the Python it runs; constants and keys are names
    # in its namespace, so the text depends on the rule's shape alone.
    assert _join_sources() == (DATA_DIR / "compiled_joins.txt").read_text(encoding="utf-8")
    for code in SCHEMA_CODES:
        rule = schema_for(code).rules[0]
        assert compile_join(rule).source == rule.compiled_join.source


_COMPILES = """
import hashlib
from fallacylab import engine

compiled = []
real = engine.compile_join
engine.compile_join = lambda rule: compiled.append(rule) or real(rule)
import fallacylab.cli
from fallacylab.labels import SCHEMA_CODES
from fallacylab.schemas import derive_instances, ordering_diagnostic, schema_for
from fallacylab.seeds import load_seed

print(len(compiled))
for _ in range(2):
    for code in SCHEMA_CODES:
        kb = load_seed(code)
        ordering_diagnostic(code, kb, derive_instances(code, kb))
print(len(compiled), len(set(map(id, compiled))))
sources = "".join(schema_for(code).rules[0].compiled_join.source for code in SCHEMA_CODES)
print(hashlib.sha256(sources.encode()).hexdigest())
"""


def test_each_rule_is_compiled_once_per_process_and_not_at_import():
    # A fresh interpreter with another hash seed: importing the CLI compiles
    # nothing, two rounds of derivations compile each schema's query rule and
    # FS's rule without @< once, and the sources do not hang on the seed.
    src = Path(schemas.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _COMPILES], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    sources = "".join(schema_for(code).rules[0].compiled_join.source for code in SCHEMA_CODES)
    digest = hashlib.sha256(sources.encode()).hexdigest()
    assert done.stdout.split("\n") == ["0", "12 12", digest, ""]


# ---------------------------------------------------------------------------
# Seed derivations (documented tuples)
# ---------------------------------------------------------------------------


def test_derive_id_seed():
    out = derive_instances(FallacyCode.ID, load_seed(FallacyCode.ID))
    assert [t.args for t in out] == [
        atoms(
            "2_mins",
            "14_mins",
            "teeth_health_for_that_day",
            "teeth_health_for_one_week",
        )
    ]


def test_derive_fa_seed():
    out = derive_instances(FallacyCode.FA, load_seed(FallacyCode.FA))
    assert [t.args for t in out] == [atoms("kid", "kidney", "kid_word", "grow_into_adult")]


def test_derive_it_symmetric_pair_in_clause_order():
    out = derive_instances(FallacyCode.IT, load_seed(FallacyCode.IT))
    assert [t.args for t in out] == [
        atoms("rainy_days", "wet_ground"),
        atoms("sprinklers_on", "wet_ground"),
    ]


def test_derive_wd_seed():
    out = derive_instances(FallacyCode.WD, load_seed(FallacyCode.WD))
    assert [t.args for t in out] == [
        atoms("mirror_looks_like_eye", "move_eye_close_to_mirror")
    ]


def test_derive_fs_seed_is_empty_with_diagnostic():
    kb = load_seed(FallacyCode.FS)
    assert derive_instances(FallacyCode.FS, kb) == []
    note = ordering_diagnostic(FallacyCode.FS, kb, [])
    assert note is not None and "term-order" in note
    assert "pd(lightbulb_switch, darkness_emission)" in note


def test_ordering_diagnostic_is_none_when_unrelated():
    fc_seed = load_seed(FallacyCode.FC)
    fc_derived = derive_instances(FallacyCode.FC, fc_seed)
    assert ordering_diagnostic(FallacyCode.FC, fc_seed, fc_derived) is None
    satisfied = kb_from(FS_SATISFIED)
    fs_derived = derive_instances(FallacyCode.FS, satisfied)
    assert fs_derived != []
    assert ordering_diagnostic(FallacyCode.FS, satisfied, fs_derived) is None


def test_derive_rejects_arity_mismatch():
    kb = kb_from("hp(kid).\n")
    with pytest.raises(SignatureError):
        derive_instances(FallacyCode.FA, kb)


def test_ordering_diagnostic_checks_signatures():
    # The relaxed FS body reads ha/2 as facts; a rule for it is refused by
    # the signature check before any join runs.
    kb = kb_from("ha(u, t).\nrc(x, e).\nha(U, E) :- rc(U, E).\n")
    with pytest.raises(SignatureError, match="ha/2"):
        ordering_diagnostic(FallacyCode.FS, kb, [])


def test_derive_deduplicates_preserving_first_occurrence():
    kb = kb_from(
        "hp(chimney, survives_fire).\nhp(chimney, survives_fire).\n"
        "ipo(chimney, building).\nlp(building, survives_fire).\n"
    )
    out = derive_instances(FallacyCode.FC, kb)
    assert len(out) == 1
    # The raw engine stream still carries the duplicate.
    assert sum(engine_counts(FallacyCode.FC, kb).values()) == 2


def test_derive_allows_pd_of_another_arity():
    kb = kb_from("hp(x, p).\nipo(x, w).\nlp(w, p).\npd(x).\n")
    assert [t.args for t in derive_instances(FallacyCode.FC, kb)] == [atoms("x", "p", "w")]


# ---------------------------------------------------------------------------
# One derivation per diagnostic
# ---------------------------------------------------------------------------

@pytest.fixture
def join_calls(monkeypatch):
    calls = []
    real = schemas.join

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(schemas, "join", counting)
    return calls


def test_derive_cli_fs_seed_queries_twice(join_calls):
    result = CliRunner().invoke(main, ["derive", "--code", "FS"])
    assert result.exit_code == 0 and "term-order" in result.stderr
    assert len(join_calls) == 2  # the derivation, then the relaxed query


def test_derive_cli_fs_satisfied_queries_once(join_calls, tmp_path):
    path = tmp_path / "fs.pl"
    path.write_text(FS_SATISFIED)
    result = CliRunner().invoke(main, ["derive", "--code", "FS", "--kb", str(path)])
    assert result.exit_code == 0
    assert result.stdout == "pd(act_flip, dark_onset)\n"
    assert len(join_calls) == 1


@pytest.mark.parametrize(
    "group, responses, queries",
    [
        (FS_SATISFIED, ["The switch went dark."], 2),  # seed, extended
        (FS_MISORDERED, [], 3),  # seed, extended, relaxed
    ],
)
def test_generate_bundle_fs_derives_each_base_once(join_calls, group, responses, queries):
    provider = FakeProvider([group] + responses)
    bundle = generate_bundle(FallacyCode.FS, 1, Gateway(provider))
    assert len(join_calls) == queries
    assert bool(bundle.tuples) == bool(responses)
    assert bool(bundle.diagnostics) == (not responses)


@pytest.mark.parametrize(
    "code, text, key, name",
    [
        (FallacyCode.IT, "im(a, b).\nim(c, b).\nim(d, e).\nim(f, e).\n", ("im_t", 2), "_im_closure"),
        (FallacyCode.WD, "cs(a, x).\ncs(b, y).\ncs(c, z).\n", ("oc", 2), "_solve_only_cause"),
    ],
    ids=["IT", "WD"],
)
def test_derivation_computes_each_auxiliary_once(monkeypatch, code, text, key, name):
    calls = []
    real = getattr(schemas, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    # Count the relation wherever it is reached: by module name or through
    # the schema.
    monkeypatch.setattr(schemas, name, counting)
    derived = schema_for(code).derived
    if key in derived:
        monkeypatch.setitem(derived, key, counting)
    assert len(derive_instances(code, kb_from(text))) >= 3
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Scaling in the number of fact groups
# ---------------------------------------------------------------------------

#: One instance per group, over constants private to the group (``{i}``).
GROUPS = {
    FallacyCode.ID: "he(act_{i}, short_{i}, day_{i}).\nhe(act_{i}, long_{i}, week_{i}).\n"
    "vc(short_{i}, repeat_{i}, long_{i}).",
    FallacyCode.FA: "hp(thing_{i}, shared_{i}).\nhp(other_{i}, shared_{i}).\n"
    "hp(thing_{i}, extra_{i}).",
    FallacyCode.FP: "ef(cond_{i}, fact_{i}).\nfp(fact_{i}, premise_{i}).\n"
    "po(obs_{i}, premise_{i}).\nfplc(premise_{i}, obs_{i}, concl_{i}).",
    FallacyCode.AF: "hr(object_{i}, rule_{i}).\nrri(rule_{i}, sane_{i}).\nrui(rule_{i}, absurd_{i}).",
    FallacyCode.FC: "hp(part_{i}, prop_{i}).\nipo(part_{i}, whole_{i}).\nlp(whole_{i}, prop_{i}).",
    FallacyCode.BQ: "ca(claim_{i}, arg_{i}).\nema(arg_{i}, means_{i}).\nemrc(means_{i}, claim_{i}).",
    FallacyCode.CT: "qc(quote_{i}, meant_{i}).\nqoc(quote_{i}, misread_{i}).\n"
    "froc(misread_{i}, linked_{i}).\nifqoc(linked_{i}, concl_{i}).",
    FallacyCode.IE: "cc(fwd_{i}, back_{i}).\ncc(lose_{i}, gain_{i}).\nim(fwd_{i}, lose_{i}).",
    FallacyCode.IT: "im(rain_{i}, wet_{i}).\nim(hose_{i}, wet_{i}).",
    FallacyCode.WD: "cs(cause_{i}, effect_{i}).",
    FallacyCode.FS: "ha(scene_{i}, ev_{i}_a).\nha(scene_{i}, ev_{i}_b).\nrc(root_{i}, ev_{i}_b).",
}


def _derivation_work(monkeypatch, code: FallacyCode, n_groups: int) -> tuple[int, int]:
    """Rows read by the solver's planned join and by the recheck while
    deriving ``n_groups`` groups of ``code``: every row the table's lists
    hand out, by position or by iteration, index builds included."""
    kb = kb_from("\n\n".join(GROUPS[code].format(i=i) for i in range(n_groups)))
    reads = [0]
    counts = {}
    real_table, real_join = schemas.fact_table, schemas.join

    def counting_table(schema, kb):
        table = real_table(schema, kb)
        for key, rows in table.items():
            table[key] = CountingRows(rows, reads)
        return table

    def counting_join(rule, rows):
        before = reads[0]
        solutions = real_join(rule, rows)
        counts["join"] = reads[0] - before
        return solutions

    # The join runs first; every read after it is the recheck's.
    monkeypatch.setattr(schemas, "fact_table", counting_table)
    monkeypatch.setattr(schemas, "join", counting_join)
    derived = derive_instances(code, kb)
    monkeypatch.undo()
    assert len(derived) == n_groups * (2 if code is FallacyCode.IT else 1)
    return counts["join"], reads[0] - counts["join"]


@pytest.mark.parametrize("code", SCHEMA_CODES, ids=[c.value for c in SCHEMA_CODES])
def test_derivation_work_grows_linearly_in_groups(monkeypatch, code):
    small_join, small_recheck = _derivation_work(monkeypatch, code, 12)
    large_join, large_recheck = _derivation_work(monkeypatch, code, 48)
    assert small_join > 0 and small_recheck > 0
    assert large_recheck <= 4.5 * small_recheck
    assert large_join <= 4.5 * small_join


@pytest.mark.parametrize("code", SCHEMA_CODES, ids=[c.value for c in SCHEMA_CODES])
def test_derivation_renames_only_the_query_rule(monkeypatch, code):
    # A derivation's plain-SLD reference reads every auxiliary as facts, so
    # the query rule is the only clause it renames: it resolves the same
    # rule over the same rows as the join.
    kb = kb_from("\n\n".join(GROUPS[code].format(i=i) for i in range(12)))
    calls = []
    real = sld_oracle._rename_clause

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(sld_oracle, "_rename_clause", counting)
    joined, sld = ordered_solutions(code, kb)
    assert calls == [schema_for(code).rules[0]]
    assert joined == sld and len(joined) == 12 * (2 if code is FallacyCode.IT else 1)


@pytest.mark.parametrize("code", SCHEMA_CODES, ids=[c.value for c in SCHEMA_CODES])
def test_derivation_runs_no_sld(monkeypatch, code):
    # The library has no SLD solver; the reference one must stay unused too.
    def refuse(*args):
        raise AssertionError("a derivation ran SLD resolution")

    monkeypatch.setattr(sld_oracle, "_solve", refuse)
    kb = kb_from("\n\n".join(GROUPS[code].format(i=i) for i in range(12)))
    assert len(derive_instances(code, kb)) == 12 * (2 if code is FallacyCode.IT else 1)
    # FS's seed derives nothing, so its diagnostic runs the relaxed rule.
    seed = load_seed(code)
    ordering_diagnostic(code, seed, derive_instances(code, seed))


# ---------------------------------------------------------------------------
# Validation reports
# ---------------------------------------------------------------------------


def test_validate_flags_required_but_empty():
    clauses = [p.clause for p in parse_program("hp(chimney, survives_fire).\nipo(chimney, building).\n")]
    report = validate_kb_against_schema(FallacyCode.FC, clauses)
    assert any(
        f.kind == "missing_required" and f.message.startswith("lp/2")
        for f in report.findings
    )


def test_validate_flags_arity_mismatch():
    report = validate_kb_against_schema(
        FallacyCode.FA, [parse_program("hp(kid).")[0].clause]
    )
    assert any(f.kind == "arity_mismatch" for f in report.findings)


def test_validate_flags_unknown_predicate_and_non_ground():
    clauses = [p.clause for p in parse_program("zz(a, b).")]
    report = validate_kb_against_schema(FallacyCode.FC, clauses)
    kinds = {f.kind for f in report.findings}
    assert "unknown_predicate" in kinds


def test_validate_clean_seed_is_empty_report():
    for code in SCHEMA_CODES:
        clauses = [p.clause for p in parse_program(load_seed(code).serialize())]
        report = validate_kb_against_schema(code, clauses)
        assert report.clean, report.render()


_constants = st.sampled_from(["a", "chimney", "2_mins", "0", "42", "1" * 30])
_names = st.sampled_from(sorted(PREDICATE_VOCABULARY) + ["zz", "note", "pd"])


@st.composite
def _fact_line(draw, arg=_constants):
    name = draw(_names)
    # A vocabulary name at its own arity most of the time, so each code
    # meets some facts it counts.
    arity = draw(st.sampled_from([PREDICATE_VOCABULARY.get(name, (2,))[0]] * 3 + [1, 2, 3]))
    args = ", ".join(draw(st.lists(arg, min_size=arity, max_size=arity)))
    comment = draw(st.sampled_from(["", " % why", "%x"]))
    return f"{name}({args}).{comment}"


_term_args = st.one_of(_constants, st.sampled_from(["X", "_", "Y"]))
_validate_lines = st.one_of(
    _fact_line(),
    _fact_line(_term_args),
    st.sampled_from([
        "hp(a, b) :- ipo(a, b).",
        "lp(X, y) :- \\+ hp(X, y).",
        "hp.",
        "% a comment",
        "",
        "  ipo (  a ,b )  .",
    ]),
)


@given(st.lists(_validate_lines, max_size=12))
@settings(max_examples=100, deadline=None)
def test_validate_reads_flat_facts_as_their_clauses(lines):
    # A flat fact is counted by its key alone, and any other statement is
    # checked as a clause; both must report what the clauses alone report.
    text = "\n".join(lines) + "\n"
    statements = [item for item, *_ in parse_statements(text)]
    clauses = [p.clause for p in parse_program(text)]
    for code in SCHEMA_CODES:
        assert validate_kb_against_schema(code, statements) == validate_kb_against_schema(
            code, clauses
        )


def _count_flat_args(monkeypatch, module) -> list[str]:
    """The argument text of each ``parser.flat_args`` call ``module`` makes."""
    calls: list[str] = []

    def counting(args_text, consts):
        calls.append(args_text)
        return parser.flat_args(args_text, consts)

    monkeypatch.setattr(module, "flat_args", counting)
    return calls


def test_validate_and_harvest_build_no_row_of_a_clean_flat_fact(monkeypatch, tmp_path):
    texts = {code: load_seed(code).fact_text() for code in SCHEMA_CODES}
    calls = _count_flat_args(monkeypatch, schemas)
    load_calls = _count_flat_args(monkeypatch, kb_module)
    for code, text in texts.items():
        path = tmp_path / "seed.pl"
        path.write_text(text + "\n")
        result = CliRunner().invoke(main, ["validate", "--code", code.value, "--kb", str(path)])
        assert (result.exit_code, result.stdout) == (0, f"{code.value}: ok\n")
        kept, rejected = Gateway(FakeProvider([]))._harvest_fact_groups(
            code, f"```prolog\n{text}\n\n{text}\n```\n"
        )
        assert (len(kept), rejected) == (2, 0)
    assert calls == [] and load_calls == []


def test_validate_builds_the_row_of_each_flat_fact_it_reports(monkeypatch, tmp_path):
    calls = _count_flat_args(monkeypatch, schemas)
    path = tmp_path / "af.pl"
    path.write_text(
        load_seed(FallacyCode.AF).fact_text()
        + "\nzz(a, 1).\nhr(a). % short\nrri( b ,c,  07 ).\nhp(X, a).\n"
    )
    result = CliRunner().invoke(main, ["validate", "--code", "AF", "--kb", str(path)])
    assert result.exit_code == 1
    assert result.stdout == (
        "AF: 5 finding(s)\n"
        "  [unknown_predicate] zz/2 not used by AF: zz(a, 1).\n"
        "  [arity_mismatch] hr expects arity 2, found 1: hr(a).\n"
        "  [arity_mismatch] rri expects arity 2, found 3: rri(b, c, 7).\n"
        "  [non_ground_fact] hp(X, a).\n"
        "  [unknown_predicate] hp/2 not used by AF: hp(X, a).\n"
    )
    # The three bad flat facts; the non-ground fact is a clause already.
    assert calls == ["a, 1", "a", " b ,c,  07"]


def test_load_builds_each_flat_fact_row_once_with_one_constant_per_spelling(monkeypatch):
    calls = _count_flat_args(monkeypatch, kb_module)
    text = "p(a, 1).\nq(a) :- p(a, 1).\np(a, 01). % note\nr.\np(b,\n 1).\np(b, 1).\n"
    first = KnowledgeBase.from_text(text)
    assert calls == ["a, 1", "a, 01", "b, 1"]
    (a, one), (a2, zero_one), (b, one2), (b2, one3) = first.tables()[("p", 2)]
    assert a2 is a and one3 is one and b2 == b
    assert zero_one == one and zero_one is not one
    # The fact spanning lines is built from its clause, not from the scanner.
    assert one2 == one
    second = KnowledgeBase.from_text(text)
    assert second.tables()[("p", 2)][0][0] is not a


# ---------------------------------------------------------------------------
# Double-entry check and oracle equivalence
# ---------------------------------------------------------------------------


@given(st.sampled_from(SCHEMA_CODES), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_every_derived_tuple_passes_direct_lookup_recheck(code, seed):
    # Every solution the join hands over, not only each tuple's first, is
    # certified by its witness.
    kb = random_kb(code, random.Random(seed))
    table = fact_table(schema_for(code), kb)
    for witness, args in join(schema_for(code).rules[0], table):
        assert confirm_instance(code, table, args, witness), kb.serialize()


def test_confirm_instance_rejects_wrong_tuple():
    schema = schema_for(FallacyCode.FC)
    table = fact_table(schema, load_seed(FallacyCode.FC))
    witness, args = join(schema.rules[0], table)[0]
    assert confirm_instance(FallacyCode.FC, table, args, witness)
    assert not confirm_instance(
        FallacyCode.FC, table, atoms("building", "survives_fire", "chimney"), witness
    )


# hp/2 holds (a, p) twice, first and last, so a position of -1 would read a
# row that matches; ipo/2 and lp/2 hold one row per group.
_FC_TWICE = "hp(a, p).\nipo(a, w).\nlp(w, p).\nhp(b, q).\nipo(b, v).\nlp(v, q).\nhp(a, p).\n"


@pytest.mark.parametrize(
    "witness",
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (3, 0, 0), (0, 0, 2), (0, 0), (0, 0, 0, 0), ()],
    ids=["off-by-one-0", "off-by-one-1", "off-by-one-2", "minus-one", "len-rows-0",
         "len-rows-2", "too-short", "too-long", "empty"],
)
def test_confirm_instance_rejects_forged_witness(witness):
    table = fact_table(schema_for(FallacyCode.FC), kb_from(_FC_TWICE))
    args = atoms("a", "p", "w")
    assert confirm_instance(FallacyCode.FC, table, args, (0, 0, 0))
    assert confirm_instance(FallacyCode.FC, table, args, (2, 0, 0))
    assert not confirm_instance(FallacyCode.FC, table, args, witness)


@pytest.mark.parametrize(
    "code, text, args, honest, forged",
    [
        # \+ hp(P, F) fails: hp(p, g) is row 3.
        (FallacyCode.FA, "hp(e, x).\nhp(p, x).\nhp(e, f).\nhp(p, g).\nhp(e, g).\n",
         ("e", "p", "x", "f"), (0, 1, 2), ("e", "p", "x", "g", (0, 1, 4))),
        # E \= P fails.
        (FallacyCode.FA, "hp(e, x).\nhp(p, x).\nhp(e, f).\n",
         ("e", "p", "x", "f"), (0, 1, 2), ("e", "e", "x", "f", (0, 0, 2))),
        # T @< E fails: b sorts after a.
        (FallacyCode.FS, "ha(s, a).\nha(s, b).\nrc(r, b).\nrc(r, a).\n",
         ("a", "b"), (0, 1, 0), ("b", "a", (1, 0, 1))),
        # \+ im_t(A, X) fails: a reaches c.
        (FallacyCode.IT, "im(a, b).\nim(c, b).\nim(d, b).\nim(a, c).\n",
         ("c", "b"), (1, 2), ("a", "b", (0, 1))),
        # \+ vc(E, R, U) fails.
        (FallacyCode.ID, "he(x, a, e).\nhe(x, d, u).\nvc(a, r, d).\nvc(e, r, u).\n"
         "he(y, a2, e2).\nhe(y, d2, u2).\nvc(a2, r2, d2).\n",
         ("a2", "d2", "e2", "u2"), (2, 3, 2), ("a", "d", "e", "u", (0, 1, 0))),
    ],
    ids=["negation", "not-equal", "term-order", "closure-negation", "negation-by-key"],
)
def test_confirm_instance_rejects_rows_that_break_a_filter(code, text, args, honest, forged):
    kb = kb_from(text)
    table = fact_table(schema_for(code), kb)
    assert confirm_instance(code, table, atoms(*args), honest)
    *wrong, witness = forged
    assert not confirm_instance(code, table, atoms(*wrong), witness)
    # The join never proposes the forged pair; IT derives (a, b), but by
    # the witness through im(d, b).
    assert (witness, atoms(*wrong)) not in join(schema_for(code).rules[0], table)


def test_derive_raises_on_a_witness_that_does_not_certify(monkeypatch):
    real = schemas.join

    def shifted(rule, rows):
        # Each witness's first position moves to the next row.
        return [((witness[0] + 1, *witness[1:]), args) for witness, args in real(rule, rows)]

    monkeypatch.setattr(schemas, "join", shifted)
    with pytest.raises(AssertionError, match=re.escape("recheck failed for pd(a, p, w)")):
        derive_instances(FallacyCode.FC, kb_from(_FC_TWICE))


def test_seed_derivations_match_exhaustive_oracle():
    for code in SCHEMA_CODES:
        kb = load_seed(code)
        assert {t.args for t in derive_instances(code, kb)} == oracle_tuples(code, kb)


def test_randomized_engine_oracle_equivalence_smoke():
    rng = random.Random(23)
    for trial in range(150):
        code = SCHEMA_CODES[trial % len(SCHEMA_CODES)]
        kb = random_kb(code, rng)
        counts = engine_counts(code, kb)
        assert counts == oracle_counts(code, kb), kb.serialize()
        # Plain SLD, the join's reference, in solution order.
        joined, sld = ordered_solutions(code, kb)
        assert joined == sld and Counter(joined) == counts, kb.serialize()


# ---------------------------------------------------------------------------
# Schema-level properties
# ---------------------------------------------------------------------------


def test_cyclic_implication_graph_terminates():
    kb = kb_from("im(a, b).\nim(b, a).\nim(c, b).\n")
    assert derive_instances(FallacyCode.IT, kb) == []
    kb2 = kb_from("im(a, b).\nim(c, b).\nim(a, d).\nim(d, a).\n")
    assert {t.args for t in derive_instances(FallacyCode.IT, kb2)} == {
        atoms("a", "b"),
        atoms("c", "b"),
    }


_im_nodes = st.sampled_from(atoms("a", "b", "c", "d", "e"))


@given(
    st.lists(st.tuples(_im_nodes, _im_nodes), min_size=1, max_size=12),
    st.lists(_im_nodes, min_size=2, max_size=4, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_native_im_closure_matches_its_rule_text(edges, cycle):
    # Random implication graphs, self-loops and duplicate facts included,
    # plus one forced cycle.
    edges = edges + list(zip(cycle, cycle[1:] + cycle[:1]))
    kb = kb_from("".join(f"im({a.name}, {b.name}).\n" for a, b in edges))
    schema = schema_for(FallacyCode.IT)
    closure = schemas._im_closure(fact_table(schema, kb))
    assert len(closure) == len(set(closure))
    # The starts IT's body can ask about: sources of an im fact whose target
    # has another source.  From each, SLD over the schema's own rule text
    # proves each ground im_t goal exactly when it is a row (its visited set
    # keeps ground goals terminating on cycles); no row starts elsewhere.
    sources = {b: {x for x, y in edges if y == b} for _, b in edges}
    demanded = {a for a, b in edges if len(sources[b]) > 1}
    program = Program(engine.RowStore(kb.tables()), schema.rules[1:])
    nodes = sorted({node for edge in edges for node in edge}, key=lambda atom: atom.name)
    proved = {
        (p, q)
        for p in demanded
        for q in nodes
        if findall(Atom("yes"), [Goal(Struct("im_t", (p, q)))], program)
    }
    assert proved == set(closure)


def test_long_im_chain_builds_only_the_demanded_closure(monkeypatch):
    # IT can ask about im_t from c0 and y only, the two sources of b: about
    # 600 closure rows, not the chain's 180k pairs.  Every row the
    # derivation reads is counted: the base's im rows, read by the closure,
    # the join and the recheck, and the closure's own rows.
    links = 600
    text = "".join(f"im(c{i}, c{i + 1}).\n" for i in range(links)) + "im(c0, b).\nim(y, b).\n"
    kb = kb_from(text)
    reads = [0]
    base_tables, real_table = kb.tables, schemas.fact_table

    def counting_table(schema, kb):
        table = real_table(schema, kb)
        for key in schema.derived:
            table[key] = CountingRows(table[key], reads)
        return table

    monkeypatch.setattr(kb, "tables", lambda: {
        key: CountingRows(rows, reads) for key, rows in base_tables().items()
    })
    monkeypatch.setattr(schemas, "fact_table", counting_table)
    derived = derive_instances(FallacyCode.IT, kb)
    monkeypatch.undo()
    assert [t.render() for t in derived] == ["pd(c0, b)", "pd(y, b)"]
    # About 8 reads a link; a closure from every start would hand the
    # join's index builds some 180k rows.
    assert 0 < reads[0] <= 10 * links
    assert len(schemas._im_closure(fact_table(schema_for(FallacyCode.IT), kb))) == 602


def test_random_bases_of_criterion_2_are_pinned():
    # The acceptance suite's 1000 random bases, drawn as it draws them: a
    # change to how random_kb builds a base must not change which bases
    # criterion 2 checks.
    rng = random.Random(20240501)
    digest = hashlib.sha256()
    for trial in range(1000):
        digest.update(random_kb(SCHEMA_CODES[trial % len(SCHEMA_CODES)], rng).serialize().encode())
    assert digest.hexdigest() == "d710897611e87a60464a7b7d038abed5411621ecfbe21a8b79322363e211714c"


def test_no_flounder_on_randomized_ground_kbs():
    rng = random.Random(5)
    for trial in range(120):
        code = SCHEMA_CODES[trial % len(SCHEMA_CODES)]
        kb = random_kb(code, rng)
        try:
            derive_instances(code, kb)
        except FlounderError as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"{code}: {exc}\n{kb.serialize()}")


@pytest.mark.parametrize(
    "code",
    [FallacyCode.FP, FallacyCode.FC, FallacyCode.BQ, FallacyCode.CT],
)
def test_positive_only_schemas_are_monotone(code):
    rng = random.Random(SCHEMA_CODES.index(code))
    for _ in range(25):
        kb = random_kb(code, rng)
        before = {t.args for t in derive_instances(code, kb)}
        extra = random_kb(code, rng)
        merged = kb_from(kb.serialize() + extra.serialize())
        after = {t.args for t in derive_instances(code, merged)}
        assert before <= after


def test_derived_only_cause_counts_duplicates():
    kb = kb_from("cs(push, fall).\ncs(push, fall).\n")
    counts = engine_counts(FallacyCode.WD, kb)
    assert counts[atoms("fall", "push")] == 2
    assert counts == oracle_counts(FallacyCode.WD, kb)
