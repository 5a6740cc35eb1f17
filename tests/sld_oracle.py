"""Reference solver for differential tests: plain SLD resolution.

This is the depth-first SLD resolution (unification with an occurs check,
negation as failure, the ``\\=`` and ``@<`` builtins, ``findall``) that
``fallacylab.engine`` ran before the join became its one evaluator, kept so
tests can require ``join`` to return SLD's solutions in SLD's order and
multiplicity, and the native ``im_t/2`` closure to hold exactly what IT's
rule text proves.  Nothing outside ``tests/`` imports this file.

The join's table keeps no clauses, so ``Program`` builds them: per
predicate, the table's rows as facts, in insertion order, then the given
rules.  Its ``rows`` narrows the facts through the table's own key lookup
(``engine.RowStore.index``) on a goal's ground arguments, so SLD over a
``Program`` also checks that lookup against a full scan (``indexed=False``).

The solver is deliberately small: no cut, no assert during solving, no
arithmetic evaluation, no general tabling.  A ground-goal visited set makes
a recursive rule pair such as a transitive closure terminate on cyclic
graphs; everything else is plain SLD resolution.  A clause without
variables (every fact) is unified as it is; the others are renamed apart,
from variable names computed once per clause.

Its unifier keeps compound terms and the occurs check.  The clauses and
goals it resolves are function-free, as the parser makes them, since it
reads their variables through the engine's one-level ``var_names`` and
``is_ground``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

from fallacylab.engine import (
    Atom,
    Clause,
    Goal,
    GoalTerm,
    Literal,
    NotEqual,
    RowStore,
    Struct,
    Term,
    TermLess,
    Var,
    compare_terms,
    indicator,
    is_ground,
    term_vars,
    var_names,
)
from fallacylab.errors import FallacyLabError


class FlounderError(FallacyLabError):
    """A negated goal was selected while a shared variable was still unbound."""


class DepthLimitError(FallacyLabError):
    """Resolution exceeded the configured depth bound."""


#: A clause paired with its position among its predicate's clauses, in
#: insertion order.
Row = tuple[int, Clause]


class Program:
    """Clause rows for SLD over a row table: per predicate, its rows as facts
    in insertion order, then its ``rules``.

    With ``indexed``, a goal's fact rows are the table's index bucket for
    the values of its ground arguments; without it, every fact row.  Either
    way every row whose head can unify with the goal is included, in
    insertion order, so SLD's solutions do not change.
    """

    def __init__(self, table: RowStore, rules: Iterable[Clause] = (), *, indexed: bool = True):
        self.table = table
        self.indexed = indexed
        self._rules: dict[tuple[str, int], list[Clause]] = {}
        for rule in rules:
            self._rules.setdefault(indicator(rule.head), []).append(rule)

    def rows(self, goal: GoalTerm) -> list[Row]:
        key = indicator(goal)
        table = self.table.get(key, ())
        args = goal.args if isinstance(goal, Struct) else ()
        positions = tuple(i for i, arg in enumerate(args) if is_ground(arg)) if self.indexed else ()
        if positions:
            values = tuple(args[i] for i in positions)
            picked = self.table.index(key, positions).get(
                values[0] if len(values) == 1 else values, ()
            )
        else:
            picked = range(len(table))
        rows = [(i, Clause(Struct(key[0], table[i]) if table[i] else Atom(key[0]))) for i in picked]
        rows += [(len(table) + i, rule) for i, rule in enumerate(self._rules.get(key, ()))]
        return rows


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
# SLD resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scope:
    """Stack marker: the resolution of ``goal`` is complete past this point."""

    goal: Term


def _rename_clause(clause: Clause, counter) -> Clause:
    """The clause with fresh variables."""
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
    kb: Program,
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
    """
    return _solve(tuple(goals), kb, depth_limit)


def _solve(
    goals: tuple[Literal, ...], kb: Program, depth_limit: int
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
            if extended is not None:
                alternatives.append(
                    (clause.body + (_Scope(goal_term),) + rest, extended, depth + 1, branch_visited)
                )
        frames.extend(reversed(alternatives))


def _builtin_holds(lit: Union[NotEqual, TermLess], subst: Substitution) -> bool:
    if isinstance(lit, NotEqual):
        return unify(lit.lhs, lit.rhs, subst) is None
    return compare_terms(resolve(lit.lhs, subst), resolve(lit.rhs, subst)) < 0


def _provable(goal_term: GoalTerm, kb: Program, depth_limit: int) -> bool:
    for _ in _solve((Goal(goal_term),), kb, depth_limit):
        return True
    return False


def findall(
    template: Term,
    goals: Sequence[Literal],
    kb: Program,
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
