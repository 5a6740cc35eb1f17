from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallacylab import engine
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
    compare_terms,
    indicator,
    is_ground,
    join,
    term_vars,
    var_names,
)
from fallacylab.kb import KnowledgeBase
from fallacylab.parser import serialize_clause, serialize_term

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
    universe = [
        Var("A"),
        Var("B"),
        Int(-1),
        Int(2),
        Atom("a"),
        Atom("b"),
        Struct("f", (Atom("a"),)),
        Struct("f", (Atom("b"),)),
        Struct("g", (Atom("a"),)),
        Struct("f", (Atom("a"), Atom("a"))),
    ]
    for x, y in itertools.product(universe, repeat=2):
        cxy, cyx = compare_terms(x, y), compare_terms(y, x)
        assert cxy == -cyx  # antisymmetry
        assert (cxy == 0) == (x == y)
    for x, y, z in itertools.product(universe, repeat=3):
        if compare_terms(x, y) <= 0 and compare_terms(y, z) <= 0:
            assert compare_terms(x, z) <= 0  # transitivity


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
    kb = program("p(X) :- p(f(X)).\n")
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
    # A is unified only with the rule's own variable, so no solution binds it.
    kb = program("q(a).\np(X, X) :- q(a).\n")
    goal = Goal(Struct("p", (Struct("f", (Var("A"),)), Struct("f", (Var("A"),)))))
    assert findall(Struct("ans", (Var("A"),)), [goal], kb) == [Struct("ans", (Var("A"),))]


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


_constants = st.sampled_from([Atom("a"), Atom("b"), Atom("c"), Int(1), Int(2)])
_ground_args = st.one_of(_constants, _constants.map(lambda t: Struct("f", (t,))))
_rule_vars = st.sampled_from([Var("X"), Var("Y"), Var("Z")])
_head_args = st.one_of(_ground_args, _rule_vars, _rule_vars.map(lambda v: Struct("f", (v,))))
_query_vars = st.sampled_from([Var("A"), Var("B"), Var("C")])
_query_args = st.one_of(_query_vars, _ground_args, _query_vars.map(lambda v: Struct("f", (v,))))


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


def _sld(rule: Clause, source: Program) -> list[tuple]:
    """Plain SLD's solutions for a goal of distinct variables resolved
    against ``rule``'s head, as argument tuples in solution order."""
    name, arity = indicator(rule.head)
    goal = Struct(name, tuple(Var(f"A{i}") for i in range(arity)))
    return [term.args for term in findall(goal, [Goal(goal)], source)]


def _joinable(rule: Clause) -> bool:
    """Whether ``join`` must run ``rule``: positive goals before each builtin
    bind all of its variables and before each negation those it shares with
    the rest of the rule, and positive goals bind every head variable."""
    occurrences = Counter(term_vars(rule.head))
    for lit in rule.body:
        occurrences.update(set(var_names(lit)))
    bound: set[str] = set()
    for lit in rule.body:
        names = set(var_names(lit))
        if isinstance(lit, Goal) and not lit.negated:
            bound |= names
        elif isinstance(lit, Goal):
            if not {name for name in names if occurrences[name] > 1} <= bound:
                return False
        elif not names <= bound:
            return False
    return term_vars(rule.head) <= bound


# s/2 is defined by rules: a closure over r/2, with q/2 as its base case.
_S_RULES = "s(X, Y) :- q(X, Y).\ns(X, Y) :- r(X, Z), s(Z, Y).\n"

_plan_constants = st.sampled_from([Atom("a"), Atom("b"), Int(1)])
_plan_facts = st.lists(
    st.tuples(st.sampled_from(["q", "r"]), _plan_constants, _plan_constants).map(
        lambda t: Clause(Struct(t[0], t[1:]))
    ),
    min_size=4,
    max_size=16,
)
_body_vars = st.sampled_from([Var("X"), Var("Y"), Var("Z"), Var("W")])
_body_args = st.one_of(_body_vars, _body_vars, _body_vars, _plan_constants)
_positive_goals = st.tuples(
    st.sampled_from(["q", "q", "r", "r", "s"]), _body_args, _body_args
).map(lambda t: Goal(Struct(t[0], t[1:])))
_body_literals = st.one_of(
    _positive_goals,
    _positive_goals,
    _positive_goals,
    st.tuples(st.sampled_from(["q", "r", "s"]), _body_args, _body_args).map(
        lambda t: Goal(Struct(t[0], t[1:]), negated=True)
    ),
    st.builds(NotEqual, _body_args, _body_args),
    st.builds(TermLess, _body_args, _body_args),
)
_plan_bodies = st.one_of(
    # Most bodies start with positive goals, so that they bind what their
    # filters need; many of the others are refused.
    *[
        st.tuples(
            st.lists(_positive_goals, min_size=2, max_size=3),
            st.lists(_body_literals, max_size=2),
        ).map(lambda parts: tuple(parts[0] + parts[1]))
    ]
    * 3,
    st.lists(_body_literals, min_size=1, max_size=4).map(tuple),
)


def _rule_for(body: tuple) -> st.SearchStrategy:
    """Rules for p/2 with ``body``, whose head variables are mostly ones the
    body's positive goals bind."""
    positive = [lit for lit in body if isinstance(lit, Goal) and not lit.negated]
    names = sorted(set(var_names(*positive))) or ["X"]
    head_vars = st.sampled_from([Var(name) for name in names])
    head_args = st.one_of(
        head_vars, head_vars, _plan_constants, head_vars.map(lambda v: Struct("f", (v,)))
    )
    return st.tuples(head_args, head_args).map(lambda args: Clause(Struct("p", args), body))


_plan_rule = _plan_bodies.flatmap(_rule_for)


@given(_plan_facts, st.one_of(st.none(), st.integers(min_value=0, max_value=7)), _plan_rule)
@settings(max_examples=600, deadline=None)
def test_join_matches_sld(facts, repeat, rule):
    if repeat is not None:
        # The same fact again: its two rows are told apart by position.
        facts = [*facts, facts[repeat % len(facts)]]
    rows = rows_of(kb_from("\n".join(map(serialize_clause, facts))))
    if not _joinable(rule):
        with pytest.raises(ValueError):
            join(rule, rows)
        return
    # Same solutions, order and multiplicity as SLD over the same rows plus
    # the rule.  A goal on s/2, which has no rows, meets an empty predicate.
    assert join(rule, rows) == _sld(rule, Program(rows, [rule]))


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
    joined = join(rule, rows_of(kb))
    assert joined == _sld(rule, Program(rows_of(kb), kb.rules))
    assert [tuple(a.name for a in args) for args in joined] == [
        ("d", "f"),
        ("d", "e"),
        ("d", "f"),
        ("f", "e"),
        ("f", "e"),
    ]


@pytest.mark.parametrize(
    "program, expected",
    [
        # Z is bound by the first argument of q(Z, Z) and checked by the
        # second, so it cannot pick the index bucket of the row it reads.
        # The head repeats X, which the body binds once.
        ("q(a, a).\nq(a, b).\nq(b, b).\nq(c, d).\np(X, X) :- q(X, X), q(Z, Z).\n",
         "p(a, a) p(a, a) p(b, b) p(b, b)"),
        ("r(a, 1).\nr(b, 2).\nr(c, 1).\ns(f(a)).\ns(g(b)).\ns(f(c)).\n"
         "p(f(X), Y) :- r(X, Y), s(f(X)).\n",
         "p(f(a), 1) p(f(c), 1)"),
        ("n(a).\nn(b).\nn(c).\nm(a, c, c).\nm(b, c, d).\np(X) :- n(X), \\+ m(X, W, W).\n",
         "p(b) p(c)"),
    ],
    ids=["repeat-in-goal", "compound-head", "existential-repeat-in-negation"],
)
def test_slot_join_edge_cases_match_sld(monkeypatch, program, expected):
    kb = kb_from(program)
    tried = []
    real = engine._match_row
    monkeypatch.setattr(engine, "_match_row", lambda *args: tried.append(args) or real(*args))
    joined = join(kb.rules[0], rows_of(kb))
    assert joined == _sld(kb.rules[0], Program(rows_of(kb), kb.rules))
    assert " ".join(serialize_term(Struct("p", args)) for args in joined) == expected
    assert tried  # the rows were read by the join


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
        ("q(a, b).\np(X) :- X \\= b, q(X, Y).\n", "before its variable"),
        ("q(a, b).\np(X) :- \\+ q(X, Y), q(Y, X).\n", "before its variable"),
    ],
    ids=["unbound-head-variable", "early-builtin", "early-negation"],
)
def test_join_refuses_what_only_sld_can_run(program, message):
    kb = kb_from(program)
    with pytest.raises(ValueError, match=message):
        join(kb.rules[0], rows_of(kb))
