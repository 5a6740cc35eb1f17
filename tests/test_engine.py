from __future__ import annotations

import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fallacylab.engine import (
    Atom,
    Clause,
    Goal,
    Int,
    NotEqual,
    RowStore,
    Struct,
    TermLess,
    Var,
    arguments,
    compare_terms,
    compile_join,
    indicator,
    is_ground,
    join,
    term_vars,
    var_names,
)
from fallacylab.kb import KnowledgeBase
from fallacylab.labels import SCHEMA_CODES
from fallacylab.parser import serialize_clause, serialize_term
from fallacylab.schemas import schema_for

from sld_oracle import DepthLimitError, FlounderError, Program, findall, resolve, solve, unify


def kb_from(text: str) -> KnowledgeBase:
    return KnowledgeBase.from_text(text)


def rows_of(kb: KnowledgeBase) -> RowStore:
    """The join's table of the base's facts."""
    return RowStore(kb.tables())


def program(text: str) -> Program:
    """SLD's clause rows for the text's facts and rules."""
    kb = kb_from(text)
    return Program(rows_of(kb), kb.rules)


FAMILY = program("father(john, mary).\nparent(X, Y) :- father(X, Y).\n")


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


def test_unify_variable_to_atom():
    assert unify(Var("X"), Atom("john")) == {"X": Atom("john")}


def test_unify_pairwise_decomposition():
    lhs = Struct("father", (Var("X"), Atom("mary")))
    rhs = Struct("father", (Atom("john"), Var("Y")))
    assert unify(lhs, rhs) == {"X": Atom("john"), "Y": Atom("mary")}


def test_unify_occurs_check_fails():
    assert unify(Var("X"), Struct("f", (Var("X"),))) is None


def test_unify_mismatched_functor_or_arity():
    assert unify(Struct("f", (Atom("a"),)), Struct("g", (Atom("a"),))) is None
    assert unify(Struct("f", (Atom("a"),)), Struct("f", (Atom("a"), Atom("b")))) is None


def test_unify_extends_existing_substitution():
    s = unify(Var("X"), Atom("a"))
    assert unify(Var("Y"), Var("X"), s)["Y"] == Atom("a") or resolve(
        Var("Y"), unify(Var("Y"), Var("X"), s)
    ) == Atom("a")
    assert unify(Var("X"), Atom("b"), s) is None


# A small strategy over ground and non-ground terms.
_names = st.sampled_from(["a", "b", "c", "d"])
_vars = st.sampled_from(["X", "Y", "Z"])
_terms = st.recursive(
    st.one_of(
        _names.map(Atom),
        st.integers(min_value=-5, max_value=5).map(Int),
        _vars.map(Var),
    ),
    lambda children: st.builds(
        Struct,
        st.sampled_from(["f", "g"]),
        st.lists(children, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=6,
)


@given(_terms, _terms)
@settings(max_examples=300, deadline=None)
def test_unifier_actually_unifies(t1, t2):
    s = unify(t1, t2)
    if s is not None:
        assert resolve(t1, s) == resolve(t2, s)


@given(_terms, _terms)
@settings(max_examples=300, deadline=None)
def test_substitution_application_is_idempotent(t1, t2):
    s = unify(t1, t2)
    if s is not None:
        once = resolve(t1, s)
        assert resolve(once, s) == once


# ---------------------------------------------------------------------------
# Standard order of terms
# ---------------------------------------------------------------------------


def test_compare_lexicographic_atoms():
    assert compare_terms(Atom("lightbulb_switch"), Atom("darkness_emission")) == 1


def test_compare_identity():
    assert compare_terms(Atom("a"), Atom("a")) == 0


def test_compare_int_precedes_atom():
    assert compare_terms(Int(3), Atom("zebra")) == -1


def test_compare_is_total_order_on_small_terms():
    # Listed in standard order: Var < Int < Atom, each kind in its own order.
    universe = [Var("A"), Var("B"), Int(-1), Int(2), Int(10), Atom("2_mins"), Atom("a"), Atom("b")]
    for (i, x), (j, y) in itertools.product(enumerate(universe), repeat=2):
        assert compare_terms(x, y) == (i > j) - (i < j)


# ---------------------------------------------------------------------------
# solve (the SLD reference the join is tested against)
# ---------------------------------------------------------------------------


def test_solve_returns_binding_through_rule():
    solutions = list(solve([Goal(Struct("parent", (Var("X"), Atom("mary"))))], FAMILY))
    assert solutions == [{"X": Atom("john")}]


def test_solve_negation_as_failure_on_absent_fact():
    goal = Goal(Struct("father", (Atom("bob"), Atom("mary"))), negated=True)
    assert list(solve([goal], FAMILY)) == [{}]


def test_solve_negation_with_local_existential_variable():
    # father(john, X), \+ father(X, _): mary has no children.
    goals = [
        Goal(Struct("father", (Atom("john"), Var("X")))),
        Goal(Struct("father", (Var("X"), Var("_#1"))), negated=True),
    ]
    assert list(solve(goals, FAMILY)) == [{"X": Atom("mary")}]


def test_solve_flounders_on_shared_unbound_negation():
    goal = Goal(Struct("father", (Var("X"), Atom("mary"))), negated=True)
    with pytest.raises(FlounderError):
        list(solve([goal], FAMILY))


def test_solve_flounders_when_negation_precedes_binding():
    goals = [
        Goal(Struct("father", (Var("X"), Var("_#9"))), negated=True),
        Goal(Struct("father", (Atom("john"), Var("X")))),
    ]
    with pytest.raises(FlounderError):
        list(solve(goals, FAMILY))


def test_solve_clause_order_is_insertion_order():
    kb = program("color(red).\ncolor(green).\ncolor(blue).\n")
    out = [s["X"] for s in solve([Goal(Struct("color", (Var("X"),)))], kb)]
    assert out == [Atom("red"), Atom("green"), Atom("blue")]


def test_solve_depth_limit_reports_runaway_recursion():
    # Each step asks a fresh, never ground p(Y), so no visited set stops it.
    kb = program("p(X) :- p(Y).\n")
    with pytest.raises(DepthLimitError):
        list(solve([Goal(Struct("p", (Atom("a"),)))], kb, depth_limit=50))


def test_solve_ground_recursion_terminates_via_visited_set():
    # Cyclic reachability: a ground failing query must fail, not spin.
    kb = program(
        "edge(a, b).\nedge(b, a).\n"
        "reach(P, Q) :- edge(P, Q).\n"
        "reach(P, Q) :- edge(P, H), reach(H, Q).\n"
    )
    assert list(solve([Goal(Struct("reach", (Atom("a"), Atom("c"))))], kb)) == []
    assert list(solve([Goal(Struct("reach", (Atom("a"), Atom("a"))))], kb)) == [{}]


def test_solve_builtins():
    kb = program("val(a).\nval(b).\n")
    goals = [
        Goal(Struct("val", (Var("X"),))),
        Goal(Struct("val", (Var("Y"),))),
        NotEqual(Var("X"), Var("Y")),
    ]
    pairs = [(s["X"].name, s["Y"].name) for s in solve(goals, kb)]
    assert pairs == [("a", "b"), ("b", "a")]

    goals = [
        Goal(Struct("val", (Var("X"),))),
        Goal(Struct("val", (Var("Y"),))),
        TermLess(Var("X"), Var("Y")),
    ]
    pairs = [(s["X"].name, s["Y"].name) for s in solve(goals, kb)]
    assert pairs == [("a", "b")]


def test_solve_unknown_predicate_fails_silently():
    assert list(solve([Goal(Struct("nothing", (Atom("a"),)))], FAMILY)) == []


# ---------------------------------------------------------------------------
# findall
# ---------------------------------------------------------------------------


def test_findall_single_match():
    out = findall(Var("X"), [Goal(Struct("father", (Var("X"), Atom("mary"))))], FAMILY)
    assert out == [Atom("john")]


def test_findall_empty_on_no_solutions():
    out = findall(Var("X"), [Goal(Struct("father", (Var("X"), Atom("bob"))))], FAMILY)
    assert out == []


def test_findall_instantiates_compound_template():
    template = Struct("pair", (Var("X"), Var("Y")))
    out = findall(template, [Goal(Struct("parent", (Var("X"), Var("Y"))))], FAMILY)
    assert out == [Struct("pair", (Atom("john"), Atom("mary")))]


def test_findall_length_matches_solution_count():
    kb = program("n(a).\nn(b).\nn(c).\n")
    goals = [Goal(Struct("n", (Var("X"),)))]
    assert len(findall(Var("X"), goals, kb)) == len(list(solve(goals, kb)))


def test_findall_preserves_duplicates():
    kb = kb_from("f(a).\nf(a).\n")
    assert findall(Var("X"), [Goal(Struct("f", (Var("X"),)))], Program(rows_of(kb))) == [
        Atom("a"),
        Atom("a"),
    ]


def test_findall_keeps_unbound_query_variable():
    # A variable precedes every atom in standard order, and no goal binds A.
    goals = [Goal(Struct("father", (Var("X"), Atom("mary")))), TermLess(Var("A"), Var("X"))]
    assert findall(Struct("ans", (Var("A"), Var("X"))), goals, FAMILY) == [
        Struct("ans", (Var("A"), Atom("john")))
    ]


def test_is_ground():
    assert is_ground(Struct("f", (Atom("a"), Int(1))))
    assert not is_ground(Struct("f", (Atom("a"), Var("X"))))


def test_clause_local_variable_in_negation_is_existential():
    # Y occurs only inside the negation of the rule body: read as "no q(X, _)".
    kb = program(
        "p(a).\np(b).\nq(b, z).\n"
        "safe(X) :- p(X), \\+ q(X, Y).\n"
    )
    out = [s["X"] for s in solve([Goal(Struct("safe", (Var("X"),)))], kb)]
    assert out == [Atom("a")]


# ---------------------------------------------------------------------------
# The store's key lookup against a full scan
# ---------------------------------------------------------------------------


_ground_args = st.sampled_from([Atom("a"), Atom("b"), Atom("c"), Int(1), Int(2)])
_rule_vars = st.sampled_from([Var("X"), Var("Y"), Var("Z")])
_head_args = st.one_of(_ground_args, _rule_vars)
_query_vars = st.sampled_from([Var("A"), Var("B"), Var("C")])
_query_args = st.one_of(_query_vars, _ground_args)


def _pair(name, args):
    return st.tuples(args, args).map(lambda pair: Struct(name, pair))


_q_facts = st.lists(_pair("q", _ground_args).map(Clause), min_size=2, max_size=10)
_p_bodies = st.lists(
    _pair("q", st.one_of(_rule_vars, _ground_args)).map(Goal), min_size=1, max_size=2
).map(tuple)
_p_clause = st.one_of(
    _pair("p", _ground_args).map(Clause), st.builds(Clause, _pair("p", _head_args), _p_bodies)
)
_var_headed = st.builds(Clause, st.just(Struct("p", (Var("X"), Var("Y")))), _p_bodies)
# p/2 mixes facts and rules; one variable-headed rule sits between the others.
_p_clauses = st.tuples(
    st.lists(_p_clause, max_size=6), _var_headed, st.lists(_p_clause, max_size=6)
).map(lambda parts: parts[0] + [parts[1]] + parts[2])
# ``none/2`` has no clauses.
_queries = st.lists(
    st.sampled_from(["p", "p", "q", "none"]).flatmap(lambda name: _pair(name, _query_args)),
    min_size=1,
    max_size=2,
)


def _canonical(term, names: dict[str, str]):
    """``term`` with each internal variable named by first occurrence."""
    if isinstance(term, Var) and "#" in term.name:
        return Var(names.setdefault(term.name, f"_G{len(names)}"))
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(_canonical(a, names) for a in term.args))
    return term


@given(_q_facts, _p_clauses, _queries)
@settings(max_examples=300, deadline=None)
def test_indexed_lookup_matches_full_scan(q_facts, p_clauses, query):
    kb = kb_from("\n".join(map(serialize_clause, q_facts + p_clauses)))
    goals = [Goal(term) for term in query]
    template = Struct("ans", tuple(query))
    # SLD reads the facts of a goal through the store's key lookup on its
    # ground arguments, or scans them all.
    indexed = findall(template, goals, Program(rows_of(kb), kb.rules))
    scanned = findall(template, goals, Program(rows_of(kb), kb.rules, indexed=False))
    # Same solutions, order and multiplicity; internal variables are named
    # by first occurrence, so the comparison does not hang on their numbers.
    assert [_canonical(t, {}) for t in indexed] == [_canonical(t, {}) for t in scanned]


# ---------------------------------------------------------------------------
# The join against plain SLD
# ---------------------------------------------------------------------------


def _joined(rule: Clause, rows: RowStore) -> list[tuple]:
    """The head arguments of ``join``'s solutions, in its order."""
    return [args for _, args in join(rule, rows)]


def _sld(rule: Clause, source: Program) -> list[tuple]:
    """Plain SLD's solutions for a goal of distinct variables resolved
    against ``rule``'s head, as argument tuples in solution order."""
    name, arity = indicator(rule.head)
    goal = Struct(name, tuple(Var(f"A{i}") for i in range(arity)))
    return [term.args for term in findall(goal, [Goal(goal)], source)]


def _joinable(rule: Clause) -> bool:
    """Whether ``join`` must run ``rule``: every argument is a variable, each
    goal has arguments and repeats none, positive goals before each builtin
    and negation bind all of its variables, and positive goals bind every
    head variable."""
    items = (rule.head, *rule.body)
    if not all(isinstance(arg, Var) for item in items for arg in arguments(item)):
        return False
    bound: set[str] = set()
    for lit in rule.body:
        names = list(var_names(lit))
        if isinstance(lit, Goal) and (not names or len(set(names)) < len(names)):
            return False
        if isinstance(lit, Goal) and not lit.negated:
            bound.update(names)
        elif not bound.issuperset(names):
            return False
    return term_vars(rule.head) <= bound


# s/2 is defined by rules: a closure over r/2, with q/2 as its base case.
_S_RULES = "s(X, Y) :- q(X, Y).\ns(X, Y) :- r(X, Z), s(Z, Y).\n"

_plan_constants = st.sampled_from([Atom("a"), Atom("b"), Int(1)])
# n/1, q/2 and r/2 have rows; s/2 has none.
_plan_facts = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["q", "r"]), _plan_constants, _plan_constants),
        st.tuples(st.just("n"), _plan_constants),
    ).map(lambda t: Clause(Struct(t[0], t[1:]))),
    min_size=4,
    max_size=16,
)
_PLAN_ARITY = {"n": 1, "q": 2, "r": 2, "s": 2}
_PLAN_VARS = [Var("X"), Var("Y"), Var("Z"), Var("W")]
#: Occurs in no schema-shaped rule, so it is bound by none of its goals.
_FRESH = Var("U")


def _plan_goal(draw, names: list[str], pool: list[Var], negated: bool = False) -> Goal:
    """A goal on one of ``names`` over distinct variables of ``pool``."""
    name = draw(st.sampled_from(names))
    arity = _PLAN_ARITY[name]
    args = draw(st.lists(st.sampled_from(pool), min_size=arity, max_size=arity, unique=True))
    return Goal(Struct(name, tuple(args)), negated)


@st.composite
def _schema_shaped(draw) -> Clause:
    """A rule for p of a schema query's shape: distinct variables in each
    goal, each builtin and negation right after goals that bind its
    variables, and head variables the goals bind."""
    body: list = []
    bound: list[Var] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        goal = _plan_goal(draw, ["n", "q", "q", "r", "r", "s"], _PLAN_VARS)
        body.append(goal)
        bound += [arg for arg in goal.term.args if arg not in bound]
        test = draw(st.sampled_from([None, None, NotEqual, TermLess, Goal]))
        if test is Goal:
            negatable = ["n", "q", "r", "s"] if len(bound) > 1 else ["n"]
            body.append(_plan_goal(draw, negatable, bound, negated=True))
        elif test is not None:
            body.append(test(draw(st.sampled_from(bound)), draw(st.sampled_from(bound))))
    head = draw(st.lists(st.sampled_from(bound), min_size=1, max_size=3))
    return Clause(Struct("p", tuple(head)), tuple(body))


@st.composite
def _refused_shape(draw, rule: Clause) -> Clause:
    """``rule`` with one thing no schema's query has: a constant in a goal,
    the head or a builtin, a variable twice in one goal, a negation's own
    variable, a goal without arguments, a builtin or negation before its
    variables are bound, or a head variable no goal binds."""
    body = list(rule.body)
    head = list(rule.head.args)
    constant = draw(_plan_constants)
    shape = draw(st.sampled_from(
        ["goal-constant", "head-constant", "operand-constant", "repeat", "existential",
         "arity-0", "early-test", "unbound-head"]
    ))
    lit = None
    if shape == "goal-constant":
        at = draw(st.sampled_from([i for i, item in enumerate(body) if isinstance(item, Goal)]))
        args = list(body[at].term.args)
        args[draw(st.integers(min_value=0, max_value=len(args) - 1))] = constant
        body[at] = Goal(Struct(body[at].term.functor, tuple(args)), body[at].negated)
    elif shape == "head-constant":
        head[draw(st.integers(min_value=0, max_value=len(head) - 1))] = constant
    elif shape == "operand-constant":
        var = draw(st.sampled_from(head))
        lit = draw(st.sampled_from([NotEqual, TermLess]))(*draw(st.permutations([var, constant])))
    elif shape == "repeat":
        var = draw(st.sampled_from(_PLAN_VARS))
        lit = Goal(Struct(draw(st.sampled_from(["q", "r", "s"])), (var, var)), draw(st.booleans()))
    elif shape == "existential":
        var = draw(st.sampled_from(head))
        args = draw(st.permutations([var, _FRESH]))
        lit = Goal(Struct(draw(st.sampled_from(["q", "r", "s"])), tuple(args)), negated=True)
    elif shape == "arity-0":
        lit = Goal(Atom("flag"), draw(st.booleans()))
    elif shape == "early-test":
        x, y = draw(st.permutations(_PLAN_VARS))[:2]
        body.insert(0, draw(st.sampled_from([NotEqual(x, y), Goal(Struct("q", (x, y)), True)])))
    else:
        head.append(_FRESH)
    if lit is not None:
        body.insert(draw(st.integers(min_value=0, max_value=len(body))), lit)
    return Clause(Struct("p", tuple(head)), tuple(body))


# Three in four rules have the schemas' shape; the rest are refused.
_plan_rule = st.one_of(
    _schema_shaped(), _schema_shaped(), _schema_shaped(), _schema_shaped().flatmap(_refused_shape)
)


@given(_plan_facts, st.one_of(st.none(), st.integers(min_value=0, max_value=7)), _plan_rule)
@settings(max_examples=600, deadline=None)
def test_join_matches_sld(facts, repeat, rule):
    if repeat is not None:
        # The same fact again: its two rows are told apart by position.
        facts = [*facts, facts[repeat % len(facts)]]
    rows = rows_of(kb_from("\n".join(map(serialize_clause, facts))))
    if not _joinable(rule):
        event("refused")
        with pytest.raises(ValueError):
            join(rule, rows)
        return
    event("joined")
    # Same solutions, order and multiplicity as SLD over the same rows plus
    # the rule.  A goal on s/2, which has no rows, meets an empty predicate.
    assert _joined(rule, rows) == _sld(rule, Program(rows, [rule]))


def test_planned_join_reorders_goals_and_keeps_sld_order():
    # The join takes im(A, B) right after cc(A, D) and cc(B, E) last, so it
    # never pairs every cc row with every other.  Solutions still come in
    # SLD's order, cc(c, f) before cc(b, e) and the cc(c, f) fact stated
    # again after both, though each is found through its own index bucket.
    kb = kb_from(
        "cc(a, d).\ncc(c, f).\ncc(b, e).\nim(a, b).\nim(a, c).\nim(c, b).\n"
        "pd(D, E) :- cc(A, D), cc(B, E), im(A, B), \\+ im(B, A).\n"
        "cc(c, f).\n"
    )
    rule = kb.rules[0]
    joined = _joined(rule, rows_of(kb))
    assert joined == _sld(rule, Program(rows_of(kb), kb.rules))
    assert [tuple(a.name for a in args) for args in joined] == [
        ("d", "f"),
        ("d", "e"),
        ("d", "f"),
        ("f", "e"),
        ("f", "e"),
    ]


_UNARY_FACTS = "r(a).\nr(b).\nr(c).\ns(b).\ns(c).\ns(c).\n"


@pytest.mark.parametrize(
    "rule, lines, expected",
    [
        ("p(X) :- r(X), \\+ s(X).",
         ["for p0, (s0,) in enumerate(r0):", "if s0 not in x1:", "append(((p0,), (s0,)))"],
         "p(a)"),
        ("p(X) :- r(X), s(X).",
         ["for p0, (s0,) in enumerate(r0):", "append(((p0, p1), (s0,)))"],
         "p(b) p(c) p(c)"),
    ],
    ids=["single-key-negation", "keyed-goal-binding-nothing"],
)
def test_join_lines_no_schema_writes_match_sld(rule, lines, expected):
    # The lines a schema-shaped rule can reach and no schema's source has:
    # a one-position row, a negation keyed by one value and a one-argument
    # head.
    kb = kb_from(_UNARY_FACTS + rule)
    schema_lines = {
        line.strip()
        for code in SCHEMA_CODES
        for line in schema_for(code).rules[0].compiled_join.source.splitlines()
    }
    source = compile_join(kb.rules[0]).source.splitlines()
    assert [line.strip() for line in source if line.strip() not in schema_lines] == lines
    joined = _joined(kb.rules[0], rows_of(kb))
    assert joined == _sld(kb.rules[0], Program(rows_of(kb), kb.rules))
    assert " ".join(serialize_term(Struct("p", args)) for args in joined) == expected


@pytest.mark.parametrize(
    "rule, message",
    [
        ("p(X) :- r(X, a).", "constant argument a"),
        ("p(k, X) :- r(X, Y).", "constant argument k"),
        ("p(X) :- r(X, Y), X \\= 1.", "constant argument 1"),
        ("p(X) :- r(X, X).", "twice in goal r/2"),
        ("p(X) :- n(X), \\+ m(X, W).", "bound: W"),
        ("p(X) :- flag, n(X).", "goal flag/0"),
        ("p(X) :- n(X), \\+ flag.", "goal flag/0"),
        ("p(X, X) :- q(X, X), q(Z, Z).", "twice in goal q/2"),
        ("p(X) :- n(X), \\+ m(X, W, W).", "twice in goal m/3"),
        ("p(k, X) :- r(X, 1), \\+ s(X, 8).", "constant argument k"),
        ("p(X, Z) :- r(X, Y), s(Z, Y, Z).", "twice in goal s/3"),
    ],
    ids=["goal-constant", "head-constant", "operand-constant", "repeat", "existential",
         "arity-0-goal", "arity-0-negation", "repeat-in-goal", "existential-repeat-in-negation",
         "constant-head-integer-keys", "repeat-binds-in-goal"],
)
def test_compile_join_refuses_a_shape_no_schema_has(rule, message):
    with pytest.raises(ValueError, match=message):
        compile_join(kb_from(rule).rules[0])


@pytest.mark.parametrize(
    "program, error",
    [
        # SLD yields X = a, then \+ s(b, W) recurses round the r(b, b) loop
        # on a goal that is never ground, until the depth limit.  A join that
        # took m(c, X) first would never try X = b.
        ("n(a).\nn(b).\nm(c, a).\nr(b, b).\np(X) :- n(X), \\+ s(X, W), m(c, X).\n",
         DepthLimitError),
        # SLD meets X = a first, where \+ t(a) flounders.  A join that took
        # k(c, X) first would meet X = b first, where \+ s(b, W) reaches the
        # depth limit instead.
        ("n(a).\nn(b).\nk(c, b).\nk(c, a).\nr(b, b).\nt(X) :- \\+ u(X, Y), v(Y).\n"
         "p(X) :- n(X), k(c, X), \\+ s(X, W), \\+ t(X).\n",
         FlounderError),
    ],
    ids=["keeps-its-place", "raised-by-sld"],
)
def test_negation_over_rules_in_a_planned_body(program, error):
    # p's body negates s, a predicate with rules: SLD runs it whole and
    # raises what SLD raises, indexed or not.
    kb = kb_from(_S_RULES + program)
    goals = [Goal(Struct("p", (Var("A"),)))]
    for source in (Program(rows_of(kb), kb.rules), Program(rows_of(kb), kb.rules, indexed=False)):
        with pytest.raises(error):
            findall(Var("A"), goals, source, depth_limit=60)


@pytest.mark.parametrize(
    "program, message",
    [
        ("q(a, b).\np(X, Y) :- q(X, Z).\n", "bound by no body goal: Y"),
        ("q(a, b).\np(X) :- X \\= Y, q(X, Y).\n", "before its variable"),
        ("q(a, b).\np(X) :- \\+ q(X, Y), q(Y, X).\n", "before its variable"),
    ],
    ids=["unbound-head-variable", "early-builtin", "early-negation"],
)
def test_join_refuses_what_only_sld_can_run(program, message):
    kb = kb_from(program)
    with pytest.raises(ValueError, match=message):
        join(kb.rules[0], rows_of(kb))


def _f(*args):
    return Struct("f", args)


@pytest.mark.parametrize(
    "rule, message",
    [
        (Clause(Struct("p", (_f(Var("X")), Var("Y"))), (Goal(Struct("r", (Var("X"), Var("Y")))),)),
         "f/1"),
        (Clause(Struct("p", (Var("X"), Var("Z"))), (
            Goal(Struct("r", (Var("X"), Var("Y")))),
            Goal(Struct("s", (_f(Var("Z")), Struct("g", (Var("Z"),))))),
        )), "f/1"),
        (Clause(Struct("p", (Var("X"),)), (
            Goal(Struct("n", (Var("X"),))),
            Goal(Struct("m", (_f(Var("X")), Struct("g", (Var("W"),)))), negated=True),
        )), "f/1"),
        (Clause(Struct("p", (Var("X"),)), (
            Goal(Struct("n", (Var("X"),))), NotEqual(Var("X"), _f(Atom("a"), Int(1))),
        )), "f/2"),
        # A ground compound would otherwise key its goal's lookup as a constant.
        (Clause(Struct("p", (Var("X"),)), (Goal(Struct("s", (Var("X"), _f(Atom("a"))))),)),
         "f/1"),
    ],
    ids=["compound-head", "compound-binds-in-goal", "compound-in-negation", "compound-operand",
         "ground-compound-in-goal"],
)
def test_compile_join_refuses_a_compound_argument(rule, message):
    # Rules built in Python bypass the parser, which refuses compounds.
    with pytest.raises(ValueError, match=f"compound argument {message}"):
        compile_join(rule)
