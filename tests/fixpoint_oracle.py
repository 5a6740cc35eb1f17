"""Independent oracle for schema derivations.

Two evaluation paths, both deliberately unlike the engine's join:

* ``oracle_tuples``: generate every assignment of the rule's variables over
  the knowledge-base constants and re-check the body literal by literal with
  direct fact lookups (set membership, graph closure, uniqueness counting).
* ``oracle_counts``: bottom-up relational join that carries derivation
  multiplicities, so duplicate facts and multiple existential witnesses are
  counted exactly the way backtracking enumeration counts them.

The rule bodies are re-encoded here by hand rather than imported, so a typo
in the package's schema sources cannot silently agree with itself.

``ordered_solutions`` runs a schema's query rule twice over one derivation
table: through ``engine.join``, as a derivation does, and through
plain SLD resolution (``sld_oracle``), as the join's reference.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from fallacylab.engine import Atom, Goal, Int, Struct, Term, join
from fallacylab.kb import KnowledgeBase
from fallacylab.labels import FallacyCode
from fallacylab.parser import parse_program
from fallacylab.schemas import fact_table, schema_for

from sld_oracle import Program, findall


@dataclass(frozen=True)
class Lit:
    kind: str  # pos | neg | neq | less | negclosure | oc
    pred: str | None
    args: tuple[str, ...]


def _p(pred: str, args: str) -> Lit:
    return Lit("pos", pred, tuple(args.split()))


def _n(pred: str, args: str) -> Lit:
    return Lit("neg", pred, tuple(args.split()))


def _neq(args: str) -> Lit:
    return Lit("neq", None, tuple(args.split()))


def _less(args: str) -> Lit:
    return Lit("less", None, tuple(args.split()))


def _nclo(args: str) -> Lit:
    return Lit("negclosure", None, tuple(args.split()))


def _oc(args: str) -> Lit:
    return Lit("oc", None, tuple(args.split()))


@dataclass(frozen=True)
class RuleSpec:
    head: tuple[str, ...]
    body: tuple[Lit, ...]


# The eleven rule bodies, re-encoded by hand.
ORACLE_RULES: dict[FallacyCode, RuleSpec] = {
    FallacyCode.ID: RuleSpec(
        ("A", "D", "E", "U"),
        (_p("he", "X A E"), _p("he", "X D U"), _p("vc", "A R D"), _n("vc", "E R U")),
    ),
    FallacyCode.FA: RuleSpec(
        ("E", "P", "X", "F"),
        (
            _p("hp", "E X"),
            _p("hp", "P X"),
            _p("hp", "E F"),
            _neq("E P"),
            _n("hp", "P F"),
        ),
    ),
    FallacyCode.FP: RuleSpec(
        ("X", "F", "P", "O", "G"),
        (_p("ef", "X F"), _p("fp", "F P"), _p("po", "O P"), _p("fplc", "P O G")),
    ),
    FallacyCode.AF: RuleSpec(
        ("O", "R", "I", "K"),
        (_p("hr", "O R"), _p("rri", "R I"), _p("rui", "R K"), _neq("I K")),
    ),
    FallacyCode.FC: RuleSpec(
        ("X", "P", "W"),
        (_p("hp", "X P"), _p("ipo", "X W"), _p("lp", "W P")),
    ),
    FallacyCode.BQ: RuleSpec(
        ("X", "A"),
        (_p("ca", "X A"), _p("ema", "A E"), _p("emrc", "E X")),
    ),
    FallacyCode.CT: RuleSpec(
        ("T", "G"),
        (_p("qc", "T M"), _p("qoc", "T D"), _p("froc", "D F"), _p("ifqoc", "F G")),
    ),
    FallacyCode.IE: RuleSpec(
        ("D", "E"),
        (_p("cc", "A D"), _p("cc", "B E"), _p("im", "A B"), _n("im", "B A")),
    ),
    FallacyCode.IT: RuleSpec(
        ("A", "B"),
        (
            _p("im", "A B"),
            _p("im", "X B"),
            _neq("X A"),
            _nclo("A X"),
            _nclo("X A"),
        ),
    ),
    FallacyCode.WD: RuleSpec(
        ("P", "X"),
        (_oc("X P"), _n("cs", "P X")),
    ),
    FallacyCode.FS: RuleSpec(
        ("T", "E"),
        (
            _p("ha", "U T"),
            _p("ha", "U E"),
            _p("rc", "X E"),
            _neq("X T"),
            _less("T E"),
        ),
    ),
}


def _order_key(term: Term):
    if isinstance(term, Int):
        return (1, term.value)
    if isinstance(term, Atom):
        return (2, term.name)
    if isinstance(term, Struct):
        return (3, len(term.args), term.functor, tuple(_order_key(a) for a in term.args))
    return (0, term.name)


def _fact_heads(kb: KnowledgeBase) -> list[Term]:
    """The heads of the base's facts, in order, read back from its text."""
    return [item.clause.head for item in parse_program(kb.serialize()) if item.clause.is_fact]


def _fact_multiset(kb: KnowledgeBase) -> dict[str, Counter]:
    facts: dict[str, Counter] = {}
    for head in _fact_heads(kb):
        if isinstance(head, Struct):
            facts.setdefault(head.functor, Counter())[head.args] += 1
    return facts


def _constants(kb: KnowledgeBase) -> list[Term]:
    """Distinct atoms and integers in fact arguments, first-seen order."""
    seen: list[Term] = []
    for head in _fact_heads(kb):
        args = head.args if isinstance(head, Struct) else ()
        for arg in args:
            if isinstance(arg, (Atom, Int)) and arg not in seen:
                seen.append(arg)
    return seen


def _im_closure(facts: dict[str, Counter]) -> set[tuple[Term, Term]]:
    edges: dict[Term, set[Term]] = {}
    for (a, b) in facts.get("im", Counter()):
        edges.setdefault(a, set()).add(b)
    closure: set[tuple[Term, Term]] = set()
    for start in edges:
        seen: set[Term] = set()
        stack = list(edges[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(edges.get(node, ()))
    return closure


def _only_cause_pairs(facts: dict[str, Counter]) -> Counter:
    cs = facts.get("cs", Counter())
    causes: dict[Term, set[Term]] = {}
    for (x, p) in cs:
        causes.setdefault(p, set()).add(x)
    out: Counter = Counter()
    for (x, p), count in cs.items():
        if len(causes[p]) == 1:
            out[(x, p)] += count
    return out


def oracle_tuples(code: FallacyCode, kb: KnowledgeBase) -> set[tuple[Term, ...]]:
    """Exhaustive generate-and-check over every constant assignment."""
    spec = ORACLE_RULES[code]
    facts = _fact_multiset(kb)
    fact_sets = {pred: set(counter) for pred, counter in facts.items()}
    closure = _im_closure(facts)
    only_cause = set(_only_cause_pairs(facts))
    constants = _constants(kb)

    variables: list[str] = list(spec.head)
    for lit in spec.body:
        for name in lit.args:
            if name not in variables:
                variables.append(name)

    found: set[tuple[Term, ...]] = set()
    for combo in itertools.product(constants, repeat=len(variables)):
        env = dict(zip(variables, combo))
        if _holds(spec.body, env, fact_sets, closure, only_cause):
            found.add(tuple(env[name] for name in spec.head))
    return found


def _holds(body, env, fact_sets, closure, only_cause) -> bool:
    for lit in body:
        values = tuple(env[name] for name in lit.args)
        if lit.kind == "pos":
            if values not in fact_sets.get(lit.pred, set()):
                return False
        elif lit.kind == "neg":
            if values in fact_sets.get(lit.pred, set()):
                return False
        elif lit.kind == "neq":
            if values[0] == values[1]:
                return False
        elif lit.kind == "less":
            if not _order_key(values[0]) < _order_key(values[1]):
                return False
        elif lit.kind == "negclosure":
            if values in closure:
                return False
        elif lit.kind == "oc":
            if values not in only_cause:
                return False
        else:
            raise AssertionError(lit.kind)
    return True


def oracle_counts(code: FallacyCode, kb: KnowledgeBase) -> Counter:
    """Multiset of derivable head tuples with derivation multiplicities."""
    spec = ORACLE_RULES[code]
    facts = _fact_multiset(kb)
    fact_sets = {pred: set(counter) for pred, counter in facts.items()}
    closure = _im_closure(facts)
    only_cause = _only_cause_pairs(facts)

    assignments: list[tuple[dict, int]] = [({}, 1)]
    for lit in spec.body:
        if lit.kind == "pos":
            assignments = _join(assignments, lit.args, facts.get(lit.pred, Counter()))
        elif lit.kind == "oc":
            assignments = _join(assignments, lit.args, only_cause)
        elif lit.kind == "neg":
            assignments = [
                (env, c)
                for env, c in assignments
                if tuple(env[a] for a in lit.args) not in fact_sets.get(lit.pred, set())
            ]
        elif lit.kind == "negclosure":
            assignments = [
                (env, c)
                for env, c in assignments
                if tuple(env[a] for a in lit.args) not in closure
            ]
        elif lit.kind == "neq":
            assignments = [
                (env, c) for env, c in assignments if env[lit.args[0]] != env[lit.args[1]]
            ]
        elif lit.kind == "less":
            assignments = [
                (env, c)
                for env, c in assignments
                if _order_key(env[lit.args[0]]) < _order_key(env[lit.args[1]])
            ]
        else:
            raise AssertionError(lit.kind)

    result: Counter = Counter()
    for env, count in assignments:
        result[tuple(env[name] for name in spec.head)] += count
    return result


def _join(assignments, arg_names, tuples_with_counts) -> list[tuple[dict, int]]:
    out = []
    for env, count in assignments:
        for values, multiplicity in tuples_with_counts.items():
            extended = dict(env)
            ok = True
            for name, value in zip(arg_names, values):
                bound = extended.get(name)
                if bound is None:
                    extended[name] = value
                elif bound != value:
                    ok = False
                    break
            if ok:
                out.append((extended, count * multiplicity))
    return out


def engine_counts(code: FallacyCode, kb: KnowledgeBase) -> Counter:
    """Raw solution multiset from the engine, before deduplication."""
    schema = schema_for(code)
    return Counter(join(schema.rules[0], fact_table(schema, kb)))


def ordered_solutions(
    code: FallacyCode, kb: KnowledgeBase
) -> tuple[list[tuple[Term, ...]], list[tuple[Term, ...]]]:
    """The query head's argument tuples in solution order, from ``join`` and
    from plain SLD: ``findall`` over the query rule and the rows of the
    derivation's table, the base's rows plus the auxiliary rows."""
    schema = schema_for(code)
    table = fact_table(schema, kb)
    main, head = schema.rules[0], schema.query_head
    joined = join(main, table)
    program = Program(table, [main])
    return joined, [term.args for term in findall(head, [Goal(head)], program)]


# ---------------------------------------------------------------------------
# Randomized knowledge bases
# ---------------------------------------------------------------------------

#: (fewest, most) facts per predicate, (1, 5) by default.  The join takes
#: IE's goals out of body order, so IE draws enough cc/2 and im/2 rows that
#: solutions found in another order interleave: with the join's sort
#: deleted, criterion 2 then fails.
_FACT_BUDGET = {
    FallacyCode.ID: (3, 8),
    FallacyCode.FP: (2, 5),
    FallacyCode.CT: (2, 5),
    FallacyCode.IT: (2, 10),
    FallacyCode.IE: (6, 12),
}


def random_kb(code: FallacyCode, rng: random.Random) -> KnowledgeBase:
    """A small random ground base over the schema's own signatures.

    Stays within 30 facts and 10 constants; occasionally duplicates a fact
    and, for the closure-bearing schema, occasionally forces an implication
    cycle.
    """
    schema = schema_for(code)
    n_constants = rng.randint(3, 6 if code in _FACT_BUDGET else 7)
    constants = [Atom(f"c{i}") for i in range(n_constants)]
    low, high = _FACT_BUDGET.get(code, (1, 5))

    lines: list[str] = []
    total = 0
    for name, arity in schema.signatures:
        count = 0 if rng.random() < 0.15 else rng.randint(low, high)
        for _ in range(count):
            if total >= 28:
                break
            args = tuple(rng.choice(constants) for _ in range(arity))
            lines.append(_fact(name, args))
            total += 1
    if code is FallacyCode.IT and rng.random() < 0.5 and len(constants) >= 2:
        a, b = rng.sample(constants, 2)
        lines.append(_fact("im", (a, b)))
        lines.append(_fact("im", (b, a)))
        total += 2
    if lines and rng.random() < 0.25 and total < 30:
        lines.append(rng.choice(lines))
    return KnowledgeBase.from_text("\n".join(lines))


def _fact(name: str, args: tuple[Term, ...]) -> str:
    return f"{name}({', '.join(a.name for a in args)})."
