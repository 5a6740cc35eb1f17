"""Prolog-subset inference engine.

Terms, unification with an occurs check, depth-first SLD resolution over an
insertion-ordered clause store, negation as failure, the two builtin
comparisons (``\\=`` and ``@<``), and findall.

The solver asks its clause source for the rows of each resolved goal (see
``ClauseSource``): candidate clauses paired with their positions among the
predicate's clauses.  A source may leave out clauses whose head cannot unify
with the goal, but keeps the rest in insertion order, so an indexed source
yields the same solutions in the same order as a full scan.  A clause without
variables (every fact of a knowledge base) is unified as it is; the others
are renamed apart, from variable names computed once per clause.

When every goal of a resolved clause's body, positive or negated, names a
fact-only predicate of the source (``ClauseSource.fact_only``), the body runs
as a join instead of as SLD goals: next comes the goal with the most bound
arguments, ties broken by body order, and each ``\\=``, ``@<`` and negation
runs as soon as its variables are bound.  Over facts, SLD yields a body's
solutions in lexicographic order of the positions of the rows its positive
goals matched, in body order, so the join sorts its solutions by that vector
and they come out in SLD's order and multiplicity.  SLD still runs every
other body: one that names a predicate with rules (a recursive closure,
say), or where a builtin or negation would be reached before its variables
are bound, or that could reach the depth limit, so FlounderError,
DepthLimitError and builtins on unbound terms behave as before.

The solver is deliberately small: no cut, no assert during solving, no
arithmetic evaluation, no general tabling.  A ground-goal visited set makes
a recursive rule pair such as a transitive closure terminate on cyclic
graphs; everything else is plain SLD resolution.

Solver runs are single-use generators confined to one thread.  A sealed
knowledge base's contents are immutable and it may back any number of
concurrent runs; its argument indexes are filled on first lookup.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Protocol, Sequence, Union

from .errors import DepthLimitError, FlounderError

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """Logic variable.  Source-level names start with an uppercase letter or
    underscore; names containing ``#`` are reserved for internal renaming."""

    name: str


@dataclass(frozen=True)
class Atom:
    """Constant symbol, written as a snake_case identifier."""

    name: str


@dataclass(frozen=True)
class Int:
    value: int


@dataclass(frozen=True)
class Struct:
    """Compound term ``functor(arg1, ..., argN)`` with N >= 1."""

    functor: str
    args: "tuple[Term, ...]"

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValueError("compound terms need at least one argument")


Term = Union[Var, Atom, Int, Struct]

#: Goal-position terms: an atom or a compound.
GoalTerm = Union[Atom, Struct]


def indicator(term: GoalTerm) -> tuple[str, int]:
    """(name, arity) of a callable term; atoms have arity 0."""
    if isinstance(term, Struct):
        return term.functor, len(term.args)
    return term.name, 0


def term_vars(term: Term) -> set[str]:
    """Names of all variables occurring in a term."""
    return set(var_names(term))


def var_names(*items: "Term | Literal") -> Iterator[str]:
    """Names of the variables in terms or literals, one per occurrence, in
    order of occurrence; ``dict.fromkeys`` keeps the first of each."""
    for item in items:
        if isinstance(item, Var):
            yield item.name
        elif isinstance(item, Struct):
            yield from var_names(*item.args)
        elif isinstance(item, Goal):
            yield from var_names(item.term)
        elif isinstance(item, (NotEqual, TermLess)):
            yield from var_names(item.lhs, item.rhs)


def is_ground(term: Term) -> bool:
    if isinstance(term, Var):
        return False
    if isinstance(term, Struct):
        return all(is_ground(a) for a in term.args)
    return True


# ---------------------------------------------------------------------------
# Literals and clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Goal:
    """Positive or negated predicate call."""

    term: GoalTerm
    negated: bool = False


@dataclass(frozen=True)
class NotEqual:
    """Builtin ``\\=``: succeeds when the two sides do not unify."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class TermLess:
    """Builtin ``@<``: strict standard order of terms."""

    lhs: Term
    rhs: Term


Literal = Union[Goal, NotEqual, TermLess]


@dataclass(frozen=True)
class Clause:
    """``head :- body``; an empty body makes the clause a fact."""

    head: GoalTerm
    body: tuple[Literal, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """Names of the clause's variables in first-occurrence order,
        computed once per clause."""
        return tuple(dict.fromkeys(var_names(self.head, *self.body)))


#: A clause paired with its position among its predicate's clauses, in
#: insertion order.
Row = tuple[int, Clause]


# ---------------------------------------------------------------------------
# Substitutions and unification
# ---------------------------------------------------------------------------

#: A substitution maps variable names to terms.  Treated as immutable:
#: extension copies.  ``resolve`` applies a substitution exhaustively, so
#: application is idempotent.
Substitution = Mapping[str, Term]


def walk(term: Term, subst: Substitution) -> Term:
    """Follow variable bindings until a non-variable or unbound variable."""
    while isinstance(term, Var) and term.name in subst:
        term = subst[term.name]
    return term


def resolve(term: Term, subst: Substitution) -> Term:
    """Apply a substitution throughout a term."""
    term = walk(term, subst)
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(resolve(a, subst) for a in term.args))
    return term


def _occurs(var: Var, term: Term, subst: Substitution) -> bool:
    term = walk(term, subst)
    if isinstance(term, Var):
        return term.name == var.name
    if isinstance(term, Struct):
        return any(_occurs(var, a, subst) for a in term.args)
    return False


def unify(t1: Term, t2: Term, subst: Substitution | None = None):
    """Most general unifier extending ``subst``, or None.

    The occurs check is always on: a variable never binds to a term
    containing itself.
    """
    s: Substitution = {} if subst is None else subst
    t1 = walk(t1, s)
    t2 = walk(t2, s)
    if t1 == t2:
        return s
    if isinstance(t1, Var):
        return _bind(t1, t2, s)
    if isinstance(t2, Var):
        return _bind(t2, t1, s)
    if (
        isinstance(t1, Struct)
        and isinstance(t2, Struct)
        and t1.functor == t2.functor
        and len(t1.args) == len(t2.args)
    ):
        for a, b in zip(t1.args, t2.args):
            s = unify(a, b, s)
            if s is None:
                return None
        return s
    return None


def _bind(var: Var, term: Term, subst: Substitution):
    if _occurs(var, term, subst):
        return None
    extended = dict(subst)
    extended[var.name] = term
    return extended


# ---------------------------------------------------------------------------
# Standard order of terms
# ---------------------------------------------------------------------------

def order_key(term: Term):
    """Sort key realizing the standard order Var < Int < Atom < Compound."""
    if isinstance(term, Var):
        return (0, term.name)
    if isinstance(term, Int):
        return (1, term.value)
    if isinstance(term, Atom):
        return (2, term.name)
    return (3, len(term.args), term.functor, tuple(order_key(a) for a in term.args))


def compare_terms(t1: Term, t2: Term) -> int:
    """-1, 0, or 1 as t1 precedes, equals, or follows t2 in standard order.

    Integers compare by value, atoms lexicographically, compounds by arity,
    then functor name, then arguments left to right.
    """
    k1, k2 = order_key(t1), order_key(t2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Clause sources
# ---------------------------------------------------------------------------


class ClauseSource(Protocol):
    """What the solver needs from a knowledge base."""

    def rows(self, goal: GoalTerm) -> Sequence[Row]:
        """Clauses of the goal's predicate to try against ``goal``, a
        resolved goal term, each paired with its position among the
        predicate's clauses, in insertion order.  Each clause whose head can
        unify with the goal must be included; the others may be left out."""
        ...

    def fact_only(self, goal: GoalTerm) -> bool:
        """Whether ground facts alone define the goal's predicate: no rule
        does.  A source that always answers False is resolved by plain SLD
        throughout."""
        ...


# ---------------------------------------------------------------------------
# SLD resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scope:
    """Stack marker: the resolution of ``goal`` is complete past this point."""

    goal: Term


def _rename_clause(clause: Clause, counter) -> Clause:
    mapping = {name: Var(f"{name}#{next(counter)}") for name in clause.variables}
    return Clause(
        resolve(clause.head, mapping),
        tuple(_resolve_literal(lit, mapping) for lit in clause.body),
    )


def _resolve_literal(lit: Literal, subst: Substitution) -> Literal:
    if isinstance(lit, Goal):
        return Goal(resolve(lit.term, subst), lit.negated)
    return type(lit)(resolve(lit.lhs, subst), resolve(lit.rhs, subst))


def _query_var_names(goals: Iterable[Literal]) -> tuple[str, ...]:
    """Named (non-anonymous, non-internal) variables, first occurrence order."""
    return tuple(name for name in dict.fromkeys(var_names(*goals)) if "#" not in name)


def solve(
    goals: Sequence[Literal],
    kb: ClauseSource,
    *,
    depth_limit: int = 10_000,
) -> Iterator[dict[str, Term]]:
    """Depth-first, left-to-right SLD resolution.

    Candidate clauses are tried in knowledge-base insertion order.  Yields one
    substitution per solution, restricted to the query's named variables.

    A negated literal must be ground when selected, except for variables
    that occur nowhere outside it (those are read existentially).  Violations
    raise FlounderError.  Branches deeper than ``depth_limit`` resolution
    steps raise DepthLimitError.  A ground goal identical to one still being
    resolved on the same branch fails that branch, which makes ground
    transitive-closure queries terminate on cyclic fact graphs.

    A resolved clause whose body goals are all fact-only runs its body as a
    planned join (see ``_make_plan``), with the same solutions in the same
    order.
    """
    return _solve(tuple(goals), kb, depth_limit)


def _solve(
    goals: tuple[Literal, ...], kb: ClauseSource, depth_limit: int
) -> Iterator[dict[str, Term]]:
    projection = _query_var_names(goals)
    counter = itertools.count()

    frames: list[tuple[tuple, Substitution, int, frozenset]] = [
        (goals, {}, 0, frozenset())
    ]
    while frames:
        pending, subst, depth, visited = frames.pop()
        if not pending:
            yield {name: resolve(Var(name), subst) for name in projection}
            continue
        lit, rest = pending[0], pending[1:]

        if isinstance(lit, _Scope):
            frames.append((rest, subst, depth, visited - {lit.goal}))
            continue
        if depth >= depth_limit:
            raise DepthLimitError(f"resolution depth exceeded {depth_limit}")

        if not isinstance(lit, Goal):
            if _builtin_holds(lit, subst):
                frames.append((rest, subst, depth + 1, visited))
            continue

        goal_term = resolve(lit.term, subst)

        if lit.negated:
            free = term_vars(goal_term)
            if free:
                outer = set(projection)
                for other in rest:
                    if isinstance(other, _Scope):
                        continue
                    outer.update(var_names(_resolve_literal(other, subst)))
                leaked = free & outer
                if leaked:
                    raise FlounderError(
                        "negated goal selected with unbound shared variable(s): "
                        + ", ".join(sorted(leaked))
                    )
            if not _provable(goal_term, kb, depth_limit):
                frames.append((rest, subst, depth + 1, visited))
            continue

        ground_goal = is_ground(goal_term)
        if ground_goal and goal_term in visited:
            continue
        branch_visited = visited | {goal_term} if ground_goal else visited
        alternatives = []
        for _, stored in kb.rows(goal_term):
            clause = _rename_clause(stored, counter) if stored.variables else stored
            extended = unify(goal_term, clause.head, subst)
            if extended is None:
                continue
            body = clause.body
            # A planned body keeps SLD's depth accounting, one step per
            # literal, so a body that could reach the limit is left to SLD.
            if body and depth + 1 + len(body) <= depth_limit:
                plan = _make_plan(stored, goal_term, kb)
                if plan is not None:
                    after = (_Scope(goal_term),) + rest
                    alternatives.extend(
                        (after, solution, depth + 1 + len(body), branch_visited)
                        for solution in _run_plan(plan, body, extended, kb)
                    )
                    continue
            alternatives.append(
                (body + (_Scope(goal_term),) + rest, extended, depth + 1, branch_visited)
            )
        frames.extend(reversed(alternatives))


def _builtin_holds(lit: Union[NotEqual, TermLess], subst: Substitution) -> bool:
    if isinstance(lit, NotEqual):
        return unify(lit.lhs, lit.rhs, subst) is None
    return compare_terms(resolve(lit.lhs, subst), resolve(lit.rhs, subst)) < 0


def _provable(goal_term: GoalTerm, kb: ClauseSource, depth_limit: int) -> bool:
    for _ in _solve((Goal(goal_term),), kb, depth_limit):
        return True
    return False


# ---------------------------------------------------------------------------
# Join planning for fact-only bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Plan:
    #: (body index, ordinal of a joined goal among the body's positive goals,
    #: or -1 for a test: a builtin or a negation), in run order.
    steps: tuple[tuple[int, int], ...]
    goal_count: int


def _make_plan(clause: Clause, goal: GoalTerm, kb: ClauseSource) -> _Plan | None:
    """The join plan for the body of a stored ``clause`` resolved against
    ``goal``, or None when SLD must run it: a goal's predicate has a rule,
    or a builtin or negation would be reached before its variables are
    bound."""
    body = clause.body
    ordinals: dict[int, int] = {}
    for index, lit in enumerate(body):
        if isinstance(lit, Goal):
            if not kb.fact_only(lit.term):
                return None
            if not lit.negated:
                ordinals[index] = len(ordinals)
    names = [set(var_names(lit)) for lit in body]
    head_args = clause.head.args if isinstance(clause.head, Struct) else ()
    goal_args = goal.args if isinstance(goal, Struct) else ()
    bound = set(var_names(*(arg for arg, value in zip(head_args, goal_args) if is_ground(value))))
    occurrences = Counter(term_vars(clause.head))
    for lit_names in names:
        occurrences.update(lit_names)

    # What each builtin or negation needs bound: every variable, save those
    # of a negation that occur nowhere else in the clause (read
    # existentially).  SLD binds them from the positive goals before it.
    needs: dict[int, set[str]] = {}
    seen = set(bound)
    for index, lit in enumerate(body):
        if index in ordinals:
            seen |= names[index]
            continue
        need = names[index]
        if isinstance(lit, Goal):
            need = {name for name in need if occurrences[name] > 1}
        if not need <= seen:
            return None
        needs[index] = need

    # Next the goal with the most bound arguments, ties broken by body order;
    # each test runs as soon as its variables are bound.
    steps: list[tuple[int, int]] = []
    goals = list(ordinals)
    tests = list(needs)
    while True:
        for index in [index for index in tests if needs[index] <= bound]:
            steps.append((index, -1))
            tests.remove(index)
        if not goals:
            return _Plan(tuple(steps), len(ordinals))
        best = max(goals, key=lambda index: (_bound_args(body[index].term, bound), -index))
        goals.remove(best)
        steps.append((best, ordinals[best]))
        bound.update(names[best])


def _bound_args(term: GoalTerm, bound: set[str]) -> int:
    args = term.args if isinstance(term, Struct) else ()
    return sum(1 for arg in args if term_vars(arg) <= bound)


def _run_plan(
    plan: _Plan, body: tuple[Literal, ...], subst: Substitution, kb: ClauseSource
) -> list[Substitution]:
    """The body's solutions in SLD order.

    With fact-only positive goals, SLD yields solutions in lexicographic
    order of the row positions the goals matched, in body order; so the
    join tags each solution with that vector and sorts by it.
    """
    found: list[tuple[tuple[int, ...], Substitution]] = []
    _join(plan.steps, 0, body, subst, [0] * plan.goal_count, kb, found)
    found.sort(key=itemgetter(0))
    return [solution for _, solution in found]


def _join(steps, k, body, subst, positions, kb, found) -> None:
    if k == len(steps):
        found.append((tuple(positions), subst))
        return
    index, ordinal = steps[k]
    lit = body[index]
    if ordinal >= 0:
        goal = resolve(lit.term, subst)
        for position, fact in kb.rows(goal):
            extended = unify(goal, fact.head, subst)
            if extended is not None:
                positions[ordinal] = position
                _join(steps, k + 1, body, extended, positions, kb, found)
        return
    if isinstance(lit, Goal):
        goal = resolve(lit.term, subst)
        holds = all(unify(goal, fact.head) is None for _, fact in kb.rows(goal))
    else:
        holds = _builtin_holds(lit, subst)
    if holds:
        _join(steps, k + 1, body, subst, positions, kb, found)


def findall(
    template: Term,
    goals: Sequence[Literal],
    kb: ClauseSource,
    *,
    depth_limit: int = 10_000,
) -> list[Term]:
    """``template`` instantiated under every solution, in solution order.

    Duplicates are preserved; deduplication is the caller's concern.  A
    query variable a solution leaves unbound stays as it is.
    """
    out = []
    for solution in solve(goals, kb, depth_limit=depth_limit):
        # An unbound variable is projected onto itself; as a binding it would
        # send ``walk`` round in a loop.
        bound = {name: term for name, term in solution.items() if term != Var(name)}
        out.append(resolve(template, bound))
    return out
