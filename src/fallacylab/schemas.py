"""The eleven executable fallacy rule schemas and instance derivation.

Each schema pairs a ``pd/N`` query head with the rule body that makes a
tuple of arguments a guaranteed instance of that fallacy, over a fixed
24-predicate fact vocabulary.  Body literals are ordered so that every
negated literal is ground by the time it is selected.

A schema's fact predicates, its signatures, are the goals of its query
body, less its auxiliaries.  A derivation reads one ``FactTable``: the
base's row lists, not copies, plus each auxiliary relation of the schema,
computed once natively from them.  The engine has no derived predicates, so
every schema body is one join over that table's rows (``engine.join``):

* ``im_t/2`` (transitive closure of ``im/2``) is computed by a graph walk
  that terminates on cyclic graphs, from the starts IT's body can ask
  about only.  IT's two ``im_t`` rules stay in the schema as its prompt
  text; a test checks that SLD resolution over those rules proves exactly
  the computed rows from each such start.
* ``oc/2`` (X is the only recorded cause of P) needs negation over a
  conjunction, which the engine's literals cannot express; the schema
  text glosses it.

``fact_table`` checks the base against the schema's signatures first, so
no base the join reads defines a body predicate by a rule or shares one
with the schema.  ``derive_instances`` re-checks every tuple it returns
literal by literal, independent of the join, before handing it out.  The
recheck reads the same table through an index of its own, so a fault in
the join's lookup cannot vouch for itself.  Each schema's query rule is
compiled once for that, in body order, over a list of slots that starts
with the tuple's values: each goal's arguments are constants, slots already
filled, or slots the goal fills from a row.  Each candidate row is compared
in place, with no binding dict.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .engine import (
    Clause,
    Goal,
    RowStore,
    Struct,
    Term,
    TermLess,
    Var,
    compare_terms,
    indicator,
    is_ground,
    join,
)
from .errors import SignatureError, UnknownSchemaError
from .kb import KnowledgeBase
from .labels import SCHEMA_CODES, FallacyCode
from .parser import FlatFact, parse_program, serialize_clause, serialize_term

# Fact vocabulary: predicate name -> (arity, gloss).  The glosses double as
# prompt annotations.
PREDICATE_VOCABULARY: dict[str, tuple[int, str]] = {
    "he": (3, "he(A, D, E): action A lasting D results in E"),
    "vc": (3, "vc(U, R, T): repeating a duration U so that R holds accumulates to T"),
    "ef": (2, "ef(X, F): condition X establishes fact F"),
    "fp": (2, "fp(F, P): fact F has a false premise P"),
    "po": (2, "po(O, P): valid observation O can incorrectly justify P"),
    "fplc": (3, "fplc(P, O, G): false premise P plus observation O leads to conclusion G"),
    "hr": (2, "hr(O, R): object O carries instruction or rule R"),
    "rui": (2, "rui(R, I): rule R could be unreasonably interpreted as I"),
    "rri": (2, "rri(R, I): rule R could be reasonably interpreted as I"),
    "hp": (2, "hp(X, P): component X has property P"),
    "ipo": (2, "ipo(X, W): component X is part of whole W"),
    "lp": (2, "lp(W, P): whole W lacks property P"),
    "ca": (2, "ca(X, A): argument A is used to support claim X"),
    "ema": (2, "ema(A, E): argument A explicitly means E"),
    "emrc": (2, "emrc(E, X): explicit meaning E relies on claim X"),
    "qc": (2, "qc(Q, M): original meaning M of quote Q"),
    "qoc": (2, "qoc(Q, M): quote Q misinterpreted as M"),
    "froc": (2, "froc(M, F): misinterpretation M improperly related to fact F"),
    "ifqoc": (2, "ifqoc(F, G): fact F improperly leads to conclusion G"),
    "cc": (2, "cc(A, B): cases A and B complement each other"),
    "im": (2, "im(A, B): condition A logically implies B"),
    "cs": (2, "cs(A, B): A directly causes B"),
    "ha": (2, "ha(S, E): event E happens in scenario S"),
    "rc": (2, "rc(X, E): observed effect E is actually caused by X"),
}

_DERIVED_GLOSSES = {
    "oc": "oc(X, P): X is the only recorded cause of P "
    "(cs(X, P) holds and no other Z has cs(Z, P))",
}

# Rule sources.  Body literal order is load-bearing: positives first so each
# negation and comparison is ground when reached.
_SCHEMA_SOURCES: dict[FallacyCode, str] = {
    FallacyCode.ID: (
        "pd(A, D, E, U) :- he(X, A, E), he(X, D, U), vc(A, R, D), \\+ vc(E, R, U)."
    ),
    FallacyCode.FA: (
        "pd(E, P, X, F) :- hp(E, X), hp(P, X), hp(E, F), E \\= P, \\+ hp(P, F)."
    ),
    FallacyCode.FP: (
        "pd(X, F, P, O, G) :- ef(X, F), fp(F, P), po(O, P), fplc(P, O, G)."
    ),
    FallacyCode.AF: (
        "pd(O, R, I, K) :- hr(O, R), rri(R, I), rui(R, K), I \\= K."
    ),
    FallacyCode.FC: (
        "pd(X, P, W) :- hp(X, P), ipo(X, W), lp(W, P)."
    ),
    FallacyCode.BQ: (
        "pd(X, A) :- ca(X, A), ema(A, E), emrc(E, X)."
    ),
    FallacyCode.CT: (
        "pd(T, G) :- qc(T, M), qoc(T, D), froc(D, F), ifqoc(F, G)."
    ),
    FallacyCode.IE: (
        "pd(D, E) :- cc(A, D), cc(B, E), im(A, B), \\+ im(B, A)."
    ),
    FallacyCode.IT: (
        "pd(A, B) :- im(A, B), im(X, B), X \\= A, \\+ im_t(A, X), \\+ im_t(X, A).\n"
        "im_t(P, Q) :- im(P, Q).\n"
        "im_t(P, Q) :- im(P, H), im_t(H, Q)."
    ),
    FallacyCode.WD: (
        "pd(P, X) :- oc(X, P), \\+ cs(P, X)."
    ),
    FallacyCode.FS: (
        "pd(T, E) :- ha(U, T), ha(U, E), rc(X, E), X \\= T, T @< E."
    ),
}

class FactTable(RowStore):
    """A derivation's one table of argument tuples per (name, arity), in
    insertion order, duplicates kept: a base's own row lists, which it must
    not change, plus the rows of each auxiliary relation.

    The join reads it through ``index``; the recheck through ``matching``,
    which keeps an index of its own, in its own storage and built by its own
    code, so a fault in the join's lookup cannot vouch for itself.  Both
    indexes are built on first use, so the table must be complete before
    either is first read.
    """

    def __init__(self, tables: Mapping[tuple[str, int], list[tuple[Term, ...]]] = ()):
        super().__init__(tables)
        self._matches: dict[tuple, dict[tuple[Term, ...], list[tuple[Term, ...]]]] = {}

    def matching(
        self, key: tuple[str, int], positions: tuple[int, ...], values: tuple[Term, ...]
    ) -> list[tuple[Term, ...]]:
        """Rows of ``key`` holding ``values`` at ``positions``, in insertion
        order, or every row when no position is given.  Callers still match
        each row in full."""
        if not positions:
            return self.get(key, [])
        index = self._matches.get((key, positions))
        if index is None:
            index = {}
            for row in self.get(key, []):
                index.setdefault(tuple([row[position] for position in positions]), []).append(row)
            self._matches[key, positions] = index
        return index.get(values, [])


#: An auxiliary relation computed natively: its rows, read off the fact table.
Auxiliary = Callable[[FactTable], list[tuple[Term, ...]]]


def _solve_only_cause(table: FactTable) -> list[tuple[Term, ...]]:
    """oc/2: one (X, P) row per cs(X, P) occurrence whose cause is unique for
    P, in cs order."""
    occurrences = table.get(("cs", 2), [])
    causes: dict[Term, set[Term]] = {}
    for x, p in occurrences:
        causes.setdefault(p, set()).add(x)
    return [(x, p) for x, p in occurrences if len(causes[p]) == 1]


def _im_closure(table: FactTable) -> list[tuple[Term, ...]]:
    """im_t/2 from each start IT's body can ask about: each (A, C) joined by
    a path of im/2 facts, once, where A is the source of an im/2 fact whose
    target has another source too.

    IT reaches ``\\+ im_t(A, X)`` and ``\\+ im_t(X, A)`` only after
    ``im(A, B)``, ``im(X, B)`` and ``X \\= A``, so both first arguments are
    such sources.  Rows from any other start could never be read; leaving
    them out is the magic-sets restriction of the closure to the goals that
    can be posed (Bancilhon, Maier, Sagiv and Ullman, PODS 1986), and keeps
    a long im/2 chain linear rather than quadratic."""
    edges: dict[Term, list[Term]] = {}
    sources: dict[Term, set[Term]] = {}
    for a, b in table.get(("im", 2), []):
        edges.setdefault(a, []).append(b)
        sources.setdefault(b, set()).add(a)
    demanded = {a for found in sources.values() if len(found) > 1 for a in found}
    closure: list[tuple[Term, ...]] = []
    for start, successors in edges.items():
        if start not in demanded:
            continue
        stack = list(successors)
        visited: set[Term] = set()
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            closure.append((start, node))
            stack.extend(edges.get(node, ()))
    return closure


_DERIVED: dict[FallacyCode, dict[tuple[str, int], Auxiliary]] = {
    FallacyCode.IT: {("im_t", 2): _im_closure},
    FallacyCode.WD: {("oc", 2): _solve_only_cause},
}


@dataclass(frozen=True)
class FallacySchema:
    code: FallacyCode
    rules: tuple[Clause, ...]
    signatures: tuple[tuple[str, int], ...]
    #: Auxiliary relations the fact table holds, each computed once per
    #: derivation.
    derived: Mapping[tuple[str, int], Auxiliary] = field(default_factory=dict)

    @cached_property
    def recheck(self) -> _Recheck:
        """The query rule compiled for ``confirm_instance``, once."""
        return _compile_recheck(self.rules[0])

    @property
    def query_head(self) -> Struct:
        return self.rules[0].head  # type: ignore[return-value]

    @property
    def arity(self) -> int:
        return len(self.query_head.args)

    def source(self) -> str:
        """The schema as canonical rule text, with the glosses of auxiliaries
        that no rule text defines."""
        lines = [serialize_clause(rule) for rule in self.rules]
        for name, _arity in self.derived:
            if name in _DERIVED_GLOSSES:
                lines.append(f"% {_DERIVED_GLOSSES[name]}")
        return "\n".join(lines)


def _build_schema(code: FallacyCode) -> FallacySchema:
    """The schema of a code; its fact predicates are its query body's goals,
    in order of first occurrence, less its auxiliaries."""
    rules = tuple(item.clause for item in parse_program(_SCHEMA_SOURCES[code]))
    derived = _DERIVED.get(code, {})
    goals = (indicator(lit.term) for lit in rules[0].body if isinstance(lit, Goal))
    signatures = tuple(key for key in dict.fromkeys(goals) if key not in derived)
    return FallacySchema(code, rules, signatures, derived)


_SCHEMAS: dict[FallacyCode, FallacySchema] = {
    code: _build_schema(code) for code in SCHEMA_CODES
}


def schema_for(code: FallacyCode) -> FallacySchema:
    """The schema for a code; EC, NF, and FD have none."""
    try:
        return _SCHEMAS[code]
    except KeyError:
        raise UnknownSchemaError(
            f"no rule schema for {code}: generated by direct prompting only"
        ) from None


def schema_catalog() -> str:
    """Every schema as rule text, for documentation and prompt embedding."""
    parts = []
    for code in SCHEMA_CODES:
        schema = _SCHEMAS[code]
        parts.append(f"% {code.value}: {code.display_name}\n{schema.source()}")
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    kind: str  # unknown_predicate | arity_mismatch | non_ground_fact | missing_required
    message: str


@dataclass(frozen=True)
class ValidationReport:
    code: FallacyCode
    findings: tuple[Finding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        if self.clean:
            return f"{self.code.value}: ok"
        lines = [f"{self.code.value}: {len(self.findings)} finding(s)"]
        for finding in self.findings:
            lines.append(f"  [{finding.kind}] {finding.message}")
        return "\n".join(lines)


def validate_kb_against_schema(
    code: FallacyCode, statements: Iterable[Clause | FlatFact]
) -> ValidationReport:
    """Check facts against a schema's signatures.

    Each statement is a ``Clause`` or, as ``parse_statements`` yields a flat
    fact line, a ``FlatFact``.  A flat fact of a signature's name and arity
    is counted by its key alone: its arguments are constants, so it is
    ground.  Any other is checked as the ``Clause`` it stands for.

    Reports unknown predicates, arity mismatches, non-ground facts, and
    required predicates with zero facts.  Never raises; the report carries
    the findings.
    """
    schema = schema_for(code)
    expected = dict(schema.signatures)
    findings: list[Finding] = []
    counts: dict[str, int] = {name: 0 for name in expected}

    for clause in statements:
        if type(clause) is tuple:
            (name, arity), args = clause
            if expected.get(name) == arity:
                counts[name] += 1
                continue
            clause = Clause(Struct(name, args))
        elif not clause.is_fact:
            continue
        name, arity = indicator(clause.head)
        if not is_ground(clause.head):
            findings.append(Finding("non_ground_fact", serialize_clause(clause)))
        if name not in expected:
            findings.append(
                Finding(
                    "unknown_predicate",
                    f"{name}/{arity} not used by {code.value}: {serialize_clause(clause)}",
                )
            )
            continue
        if arity != expected[name]:
            findings.append(
                Finding(
                    "arity_mismatch",
                    f"{name} expects arity {expected[name]}, found {arity}: "
                    f"{serialize_clause(clause)}",
                )
            )
            continue
        counts[name] += 1

    for name, arity in schema.signatures:
        if counts[name] == 0:
            findings.append(
                Finding("missing_required", f"{name}/{arity} required by {code.value}, empty")
            )
    return ValidationReport(code, tuple(findings))


# ---------------------------------------------------------------------------
# Instance derivation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidTuple:
    code: FallacyCode
    args: tuple[Term, ...]

    def render(self) -> str:
        return f"pd({', '.join(map(serialize_term, self.args))})"


def fact_table(schema: FallacySchema, kb: KnowledgeBase) -> FactTable:
    """The base's rows, then each of the schema's auxiliary relations,
    computed once.  Raises SignatureError, before building anything, when
    the base holds an arity-mismatched fact or a rule for a schema fact
    predicate, or any clause for a predicate the schema itself defines
    (``pd``, ``im_t``, ``oc``), so every table the join reads comes from a
    base the schema's body can run over as facts."""
    _check_signatures(schema, kb)
    table = FactTable(kb.tables())
    for key, relation in schema.derived.items():
        table[key] = relation(table)
    return table


def derive_instances(code: FallacyCode, kb: KnowledgeBase) -> list[ValidTuple]:
    """All ground ``pd`` instantiations of the schema over a base.

    Solutions are deduplicated preserving first occurrence.  Raises
    SignatureError as ``fact_table`` does; engine errors propagate.
    """
    schema = schema_for(code)
    table = fact_table(schema, kb)
    out: list[ValidTuple] = []
    for args in dict.fromkeys(join(schema.rules[0], table)):
        item = ValidTuple(code, args)
        if not confirm_instance(code, table, args):
            raise AssertionError(f"soundness recheck failed for {item.render()}")
        out.append(item)
    return out


def _check_signatures(schema: FallacySchema, kb: KnowledgeBase) -> None:
    expected = dict(schema.signatures)
    tables = kb.tables()
    for name, arity in tables:
        if name in expected and arity != expected[name]:
            raise SignatureError(
                f"{name} facts must have arity {expected[name]}, found {arity}"
            )
    ruled = [indicator(rule.head) for rule in kb.rules]
    for name, arity in ruled:
        if (name, arity) in schema.signatures:
            raise SignatureError(
                f"{name}/{arity} is a fact predicate of the {schema.code.value} "
                "schema; the knowledge base must not define it by a rule"
            )
    defined = [indicator(rule.head) for rule in schema.rules] + list(schema.derived)
    for name, arity in defined:
        if (name, arity) in tables or (name, arity) in ruled:
            raise SignatureError(
                f"{name}/{arity} is defined by the {schema.code.value} schema; "
                "the knowledge base must not define it"
            )


# -- direct-lookup recheck, independent of the join --------------------------


@dataclass(frozen=True)
class _Lookup:
    """A body goal of the recheck.  Its variables are slots: the head's in
    head order, then the body's in order of first occurrence."""

    key: tuple[str, int]
    negated: bool
    #: The positions of the arguments known when it is reached, and the slot
    #: or constant of each.
    positions: tuple[int, ...]
    sources: tuple["int | Term", ...]
    #: (position, slot) filled from each row, at a variable's first position.
    binds: tuple[tuple[int, int], ...]
    #: (position, slot) of a variable's later positions in the same goal.
    repeats: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class _Compare:
    """``\\=``, or ``@<`` when ``less``, over slots or constants."""

    less: bool
    lhs: "int | Term"
    rhs: "int | Term"


@dataclass(frozen=True)
class _Recheck:
    """A schema's query rule compiled for ``confirm_instance``: its body in
    body order, over a list of slots that starts with the head's arguments."""

    arity: int
    slot_count: int
    steps: "tuple[_Lookup | _Compare, ...]"


def _compile_recheck(main: Clause) -> _Recheck:
    head = main.head.args if isinstance(main.head, Struct) else ()
    slot_of: dict[str, int] = {}
    for arg in head:
        if not isinstance(arg, Var) or arg.name in slot_of:
            raise ValueError("a schema's query head takes distinct variables")
        slot_of[arg.name] = len(slot_of)

    def source(term: Term) -> "int | Term":
        return slot_of[term.name] if isinstance(term, Var) else term

    steps: list[_Lookup | _Compare] = []
    slot_count = len(slot_of)
    for lit in main.body:
        if not isinstance(lit, Goal):
            steps.append(_Compare(isinstance(lit, TermLess), source(lit.lhs), source(lit.rhs)))
            continue
        args = lit.term.args if isinstance(lit.term, Struct) else ()
        positions, sources, binds, repeats = [], [], [], []
        fresh: dict[str, int] = {}
        for position, arg in enumerate(args):
            if not isinstance(arg, Var) or arg.name in slot_of:
                positions.append(position)
                sources.append(source(arg))
            elif arg.name in fresh:
                repeats.append((position, fresh[arg.name]))
            else:
                fresh[arg.name] = len(slot_of) + len(fresh)
                binds.append((position, fresh[arg.name]))
        # A negation's own variables hold their slots only while it looks.
        slot_count = max(slot_count, len(slot_of) + len(fresh))
        if not lit.negated:
            slot_of.update(fresh)
        steps.append(_Lookup(
            indicator(lit.term),
            lit.negated,
            tuple(positions),
            tuple(sources),
            tuple(binds),
            tuple(repeats),
        ))
    return _Recheck(len(head), slot_count, tuple(steps))


def confirm_instance(code: FallacyCode, table: FactTable, args: Sequence[Term]) -> bool:
    """Re-check one candidate tuple literal by literal via lookups in the
    ``fact_table`` of the schema and the base."""
    recheck = schema_for(code).recheck
    if len(args) != recheck.arity:
        return False
    slots = list(args) + [None] * (recheck.slot_count - len(args))
    return _check_body(recheck.steps, 0, slots, table)


def _check_body(steps: tuple, k: int, slots: list, table: FactTable) -> bool:
    if k == len(steps):
        return True
    step = steps[k]
    # A slot is a plain int; an Int constant is an int subclass.
    if isinstance(step, _Compare):
        lhs = slots[step.lhs] if type(step.lhs) is int else step.lhs
        rhs = slots[step.rhs] if type(step.rhs) is int else step.rhs
        holds = compare_terms(lhs, rhs) < 0 if step.less else lhs != rhs
        return holds and _check_body(steps, k + 1, slots, table)
    values = tuple([slots[source] if type(source) is int else source for source in step.sources])
    rows = table.matching(step.key, step.positions, values)
    if step.negated:
        for row in rows:
            if _match_row(step, row, values, slots):
                return False
        return _check_body(steps, k + 1, slots, table)
    for row in rows:
        if _match_row(step, row, values, slots) and _check_body(steps, k + 1, slots, table):
            return True
    return False


def _match_row(step: _Lookup, row: tuple[Term, ...], values: tuple, slots: list) -> bool:
    """Whether one candidate row holds every bound value; fills the goal's
    free slots when it does.  Called once per candidate row."""
    for position, value in zip(step.positions, values):
        if row[position] != value:
            return False
    for position, slot in step.binds:
        slots[slot] = row[position]
    for position, slot in step.repeats:
        if row[position] != slots[slot]:
            return False
    return True


# ---------------------------------------------------------------------------
# Ordering diagnostic
# ---------------------------------------------------------------------------


def ordering_diagnostic(
    code: FallacyCode, kb: KnowledgeBase, derived: Sequence[ValidTuple]
) -> str | None:
    """Explain an empty derivation caused solely by the term-order builtin.

    ``derived`` is what ``derive_instances(code, kb)`` returned.  Returns a
    message when the schema body uses ``@<``, ``derived`` is empty, and
    dropping the order constraints would make the derivation non-empty.
    The atom spellings then sort against the intended reading; the seed facts
    must be respelled rather than the order redefined.
    """
    schema = schema_for(code)
    main = schema.rules[0]
    order_lits = [l for l in main.body if isinstance(l, TermLess)]
    if not order_lits or derived:
        return None

    relaxed_main = Clause(
        main.head, tuple(l for l in main.body if not isinstance(l, TermLess))
    )
    candidates = list(dict.fromkeys(join(relaxed_main, fact_table(schema, kb))))
    if not candidates:
        return None
    shown = "; ".join(ValidTuple(code, args).render() for args in candidates[:5])
    constraint = ", ".join(
        f"{serialize_term(l.lhs)} @< {serialize_term(l.rhs)}" for l in order_lits
    )
    return (
        f"{code.value}: derivation is empty only because of the term-order "
        f"constraint ({constraint}); without it the candidates would be: {shown}. "
        "Standard order compares atoms lexicographically, so respell the seed "
        "atoms if these candidates are intended."
    )
