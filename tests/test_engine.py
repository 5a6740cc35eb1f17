from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallacylab.engine import (
    Atom,
    Goal,
    Int,
    NotEqual,
    Struct,
    TermLess,
    Var,
    compare_terms,
    findall,
    is_ground,
    resolve,
    solve,
    unify,
)
from fallacylab.errors import DepthLimitError, FlounderError
from fallacylab.kb import KnowledgeBase
from fallacylab.parser import parse_program


def kb_from(text: str) -> KnowledgeBase:
    kb = KnowledgeBase()
    for item in parse_program(text):
        kb.assertz(item.clause)
    return kb.seal()


FAMILY = kb_from("father(john, mary).\nparent(X, Y) :- father(X, Y).\n")


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
# solve
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
    kb = kb_from("color(red).\ncolor(green).\ncolor(blue).\n")
    out = [s["X"] for s in solve([Goal(Struct("color", (Var("X"),)))], kb)]
    assert out == [Atom("red"), Atom("green"), Atom("blue")]


def test_solve_depth_limit_reports_runaway_recursion():
    kb = kb_from("p(X) :- p(f(X)).\n")
    with pytest.raises(DepthLimitError):
        list(solve([Goal(Struct("p", (Atom("a"),)))], kb, depth_limit=50))


def test_solve_ground_recursion_terminates_via_visited_set():
    # Cyclic reachability: a ground failing query must fail, not spin.
    kb = kb_from(
        "edge(a, b).\nedge(b, a).\n"
        "reach(P, Q) :- edge(P, Q).\n"
        "reach(P, Q) :- edge(P, H), reach(H, Q).\n"
    )
    assert list(solve([Goal(Struct("reach", (Atom("a"), Atom("c"))))], kb)) == []
    assert list(solve([Goal(Struct("reach", (Atom("a"), Atom("a"))))], kb)) == [{}]


def test_solve_builtins():
    kb = kb_from("val(a).\nval(b).\n")
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
    kb = kb_from("n(a).\nn(b).\nn(c).\n")
    goals = [Goal(Struct("n", (Var("X"),)))]
    assert len(findall(Var("X"), goals, kb)) == len(list(solve(goals, kb)))


def test_findall_preserves_duplicates():
    kb = KnowledgeBase()
    fact = parse_program("f(a).")[0].clause
    kb.assertz(fact)
    kb.assertz(fact)
    kb.seal()
    assert findall(Var("X"), [Goal(Struct("f", (Var("X"),)))], kb) == [
        Atom("a"),
        Atom("a"),
    ]


def test_is_ground():
    assert is_ground(Struct("f", (Atom("a"), Int(1))))
    assert not is_ground(Struct("f", (Atom("a"), Var("X"))))


def test_clause_local_variable_in_negation_is_existential():
    # Y occurs only inside the negation of the rule body: read as "no q(X, _)".
    kb = kb_from(
        "p(a).\np(b).\nq(b, z).\n"
        "safe(X) :- p(X), \\+ q(X, Y).\n"
    )
    out = [s["X"] for s in solve([Goal(Struct("safe", (Var("X"),)))], kb)]
    assert out == [Atom("a")]

