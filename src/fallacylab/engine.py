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
runs as soon as its variables are bound.  The plan is compiled where it is
made, into steps over slots, one per clause variable: each goal's arguments
are constants, slots bound by earlier steps, or slots the goal binds, and a
goal's rows come from ``ClauseSource.rows`` keyed by the constants and
earlier slots alone.  Facts are ground, so each candidate row is matched
one way against the step's pattern, with no substitution; a substitution is
built only for each final solution, by unifying the head variables the body
bound into the goal's own.  Over facts, SLD yields a body's solutions in
lexicographic order of the positions of the rows its positive goals
matched, in body order, so the join sorts its solutions by that vector and
they come out in SLD's order and multiplicity.  SLD still runs every other
body: one that names a predicate with rules (a recursive closure, say), or
where a builtin or negation would be reached before its variables are
bound, or that could reach the depth limit, so FlounderError,
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
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence, Union

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
    """What the solver needs from a knowledge base.

    A sealed ``KnowledgeBase`` is one; ``Layered`` reads two that share no
    predicate as one, so a query can add its clauses to a base without a
    copy of it.
    """

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


class Layered:
    """Two clause sources read as one, for sources that share no predicate:
    a goal's rows come from the layer that holds its predicate, and it is
    fact-only unless a layer has a rule for it."""

    def __init__(self, own: ClauseSource, base: ClauseSource):
        self.own = own
        self.base = base

    def rows(self, goal: GoalTerm) -> Sequence[Row]:
        # Most goals name a predicate of the base, so it is asked first.
        return self.base.rows(goal) or self.own.rows(goal)

    def fact_only(self, goal: GoalTerm) -> bool:
        return self.own.fact_only(goal) and self.base.fact_only(goal)


# ---------------------------------------------------------------------------
# SLD resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scope:
    """Stack marker: the resolution of ``goal`` is complete past this point."""

    goal: Term


def _rename_clause(clause: Clause, counter) -> tuple[Clause, dict[str, Var]]:
    """The clause with fresh variables, and the renaming it went through."""
    mapping = {name: Var(f"{name}#{next(counter)}") for name in clause.variables}
    renamed = Clause(
        resolve(clause.head, mapping),
        tuple(_resolve_literal(lit, mapping) for lit in clause.body),
    )
    return renamed, mapping


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
            clause, renaming = _rename_clause(stored, counter) if stored.variables else (stored, {})
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
                        for solution in _run_plan(plan, goal_term, renaming, extended, kb)
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
# Slot-compiled joins for fact-only bodies
# ---------------------------------------------------------------------------

# A pattern matches a term of a ground fact.  The clause's variables are
# slots, indexes into the list of values one run of a plan fills in, so a
# pattern is ``(_CONST, term)``, ``(_CHECK, slot)`` for a slot bound before
# it is reached, ``(_BIND, slot)`` for one it binds, or ``(_STRUCT,
# (functor, argument patterns))``.
_CONST, _CHECK, _BIND, _STRUCT = range(4)


def _compile(term: Term, slot_of: Mapping[str, int], bound: set[str]) -> tuple:
    """The pattern of ``term``.  A variable not in ``bound`` binds its slot
    and joins ``bound``, so its later occurrences check the slot."""
    if isinstance(term, Var):
        if term.name in bound:
            return _CHECK, slot_of[term.name]
        bound.add(term.name)
        return _BIND, slot_of[term.name]
    if isinstance(term, Struct) and not is_ground(term):
        return _STRUCT, (term.functor, tuple(_compile(a, slot_of, bound) for a in term.args))
    return _CONST, term


def _match(pattern: tuple, value: Term, slots: list) -> bool:
    """One-way match of a ground ``value`` against ``pattern``."""
    kind, payload = pattern
    if kind == _BIND:
        slots[payload] = value
        return True
    if kind == _CHECK:
        return slots[payload] == value
    if kind == _CONST:
        return payload == value
    functor, patterns = payload
    return (
        isinstance(value, Struct)
        and value.functor == functor
        and len(value.args) == len(patterns)
        and all(_match(p, v, slots) for p, v in zip(patterns, value.args))
    )


def _build(pattern: tuple, slots: list) -> Term:
    """The term of a pattern whose slots are all bound."""
    kind, payload = pattern
    if kind == _CONST:
        return payload
    if kind == _CHECK:
        return slots[payload]
    functor, patterns = payload
    return Struct(functor, tuple(_build(p, slots) for p in patterns))


@dataclass(frozen=True)
class _Scan:
    """A body goal, positive or negated, compiled against the slots bound
    before it runs.

    Its key holds the arguments known before any row is read: constants and
    slots bound by earlier steps.  ``goal`` has those arguments where they
    are constants and a distinct placeholder variable everywhere else; a
    slot bound earlier in the same goal is not known when the rows are
    fetched, so it never picks an index bucket.
    """

    #: Position among the body's positive goals, or -1 for a negated goal.
    ordinal: int
    goal: GoalTerm
    #: Whether ``goal`` is the lookup goal as it stands: no key slot.
    fixed: bool
    key_positions: tuple[int, ...]
    #: Per key position, a slot or a constant term.
    key_sources: tuple["int | Term", ...]
    #: The key of a row's arguments, or None when the key is empty.
    key_of: "Callable | None"
    #: (position, slot) bound from each row, at each new variable's first
    #: argument that is a variable.
    binds: tuple[tuple[int, int], ...]
    #: (position, pattern) matched after the binds: compounds with
    #: variables, and repeats of a variable bound in this goal.
    nested: tuple[tuple[int, tuple], ...]


@dataclass(frozen=True)
class _Test:
    """A builtin over bound slots: ``\\=`` or ``@<``."""

    less: bool
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class _Plan:
    #: (position, pattern) of each head argument the goal holds ground, which
    #: binds the slots the body starts with.
    head: tuple[tuple[int, tuple], ...]
    steps: "tuple[_Scan | _Test, ...]"
    #: (name, slot) of each head variable the body binds and the head does
    #: not: what a solution hands back to the goal's substitution.
    outputs: tuple[tuple[str, int], ...]
    slot_count: int
    goal_count: int


def _make_plan(clause: Clause, goal: GoalTerm, kb: ClauseSource) -> _Plan | None:
    """The slot-compiled join for the body of a stored ``clause`` resolved
    against ``goal``, or None when SLD must run it: a goal's predicate has a
    rule, or a builtin or negation would be reached before its variables are
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
    ground_at = [position for position, value in enumerate(goal_args) if is_ground(value)]
    bound = set(var_names(*(head_args[position] for position in ground_at)))
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
    slot_of = {name: slot for slot, name in enumerate(clause.variables)}
    filled: set[str] = set()
    head = tuple(
        (position, _compile(head_args[position], slot_of, filled)) for position in ground_at
    )
    steps: list[_Scan | _Test] = []
    goals = list(ordinals)
    tests = list(needs)
    while True:
        for index in [index for index in tests if needs[index] <= filled]:
            tests.remove(index)
            lit = body[index]
            if isinstance(lit, Goal):
                # A negation's own variables are bound only while it looks.
                steps.append(_compile_scan(lit.term, -1, slot_of, set(filled)))
            else:
                steps.append(_Test(
                    isinstance(lit, TermLess),
                    _compile(lit.lhs, slot_of, filled),
                    _compile(lit.rhs, slot_of, filled),
                ))
        if not goals:
            break
        best = max(goals, key=lambda index: (_bound_args(body[index].term, filled), -index))
        goals.remove(best)
        steps.append(_compile_scan(body[best].term, ordinals[best], slot_of, filled))
    outputs = tuple(
        (name, slot_of[name])
        for name in dict.fromkeys(var_names(clause.head))
        if name in filled and name not in bound
    )
    return _Plan(head, tuple(steps), outputs, len(slot_of), len(ordinals))


def _bound_args(term: GoalTerm, bound: set[str]) -> int:
    args = term.args if isinstance(term, Struct) else ()
    return sum(1 for arg in args if term_vars(arg) <= bound)


def _compile_scan(
    term: GoalTerm, ordinal: int, slot_of: Mapping[str, int], bound: set[str]
) -> _Scan:
    """The step of a body goal; its variables join ``bound``."""
    args = term.args if isinstance(term, Struct) else ()
    key_positions: list[int] = []
    key_sources: list[int | Term] = []
    binds: list[tuple[int, int]] = []
    deferred: list[int] = []
    placeholders: list[Term] = []
    before = set(bound)
    for position, arg in enumerate(args):
        placeholders.append(Var(f"#{position}"))
        if isinstance(arg, Var) and arg.name in before:
            key_positions.append(position)
            key_sources.append(slot_of[arg.name])
        elif is_ground(arg):
            key_positions.append(position)
            key_sources.append(arg)
            placeholders[position] = arg
        elif isinstance(arg, Var) and arg.name not in bound:
            bound.add(arg.name)
            binds.append((position, slot_of[arg.name]))
        else:
            deferred.append(position)
    nested = tuple((position, _compile(args[position], slot_of, bound)) for position in deferred)
    goal = Struct(term.functor, tuple(placeholders)) if isinstance(term, Struct) else term
    return _Scan(
        ordinal,
        goal,
        all(not isinstance(source, int) for source in key_sources),
        tuple(key_positions),
        tuple(key_sources),
        itemgetter(*key_positions) if key_positions else None,
        tuple(binds),
        nested,
    )


def _run_plan(
    plan: _Plan,
    goal: GoalTerm,
    renaming: Mapping[str, Var],
    subst: Substitution,
    kb: ClauseSource,
) -> list[Substitution]:
    """The body's solutions in SLD order, each as ``subst``, the goal unified
    with the renamed head, extended by the head variables the body binds.

    With fact-only positive goals, SLD yields solutions in lexicographic
    order of the row positions the goals matched, in body order; so the
    join tags each solution with that vector and sorts by it.  A solution
    whose values do not unify with the goal (one that binds two aliased head
    variables apart, say) is dropped, as SLD never reaches it.
    """
    slots: list = [None] * plan.slot_count
    goal_args = goal.args if isinstance(goal, Struct) else ()
    for position, pattern in plan.head:
        if not _match(pattern, goal_args[position], slots):
            return []
    found: list[tuple[tuple[int, ...], tuple]] = []
    _run_steps(plan.steps, 0, slots, [0] * plan.goal_count, kb, found)
    found.sort(key=itemgetter(0))
    solutions = []
    for _, values in found:
        solution: dict | None = dict(subst)
        for name, slot in plan.outputs:
            # Values are ground: an unbound variable takes one without an
            # occurs check.
            target = walk(renaming[name], solution)
            if isinstance(target, Var):
                solution[target.name] = values[slot]
            else:
                solution = unify(target, values[slot], solution)
                if solution is None:
                    break
        else:
            solutions.append(solution)
    return solutions


def _run_steps(steps, k, slots, positions, kb, found) -> None:
    """Run ``steps[k:]``, adding each solution's row positions and slot
    values to ``found``."""
    if k == len(steps):
        found.append((tuple(positions), tuple(slots)))
        return
    step = steps[k]
    if isinstance(step, _Test):
        lhs, rhs = _build(step.lhs, slots), _build(step.rhs, slots)
        if (compare_terms(lhs, rhs) < 0) if step.less else lhs != rhs:
            _run_steps(steps, k + 1, slots, positions, kb, found)
        return
    values = [slots[source] if type(source) is int else source for source in step.key_sources]
    key = values[0] if len(values) == 1 else tuple(values)
    goal = step.goal
    if not step.fixed:
        args = list(goal.args)  # type: ignore[union-attr]
        for position, value in zip(step.key_positions, values):
            args[position] = value
        goal = Struct(goal.functor, tuple(args))  # type: ignore[union-attr]
    rows = kb.rows(goal)
    if step.ordinal < 0:
        for _, fact in rows:
            if _match_row(step, fact.head, key, slots):
                return
        _run_steps(steps, k + 1, slots, positions, kb, found)
        return
    for position, fact in rows:
        if _match_row(step, fact.head, key, slots):
            positions[step.ordinal] = position
            _run_steps(steps, k + 1, slots, positions, kb, found)


def _match_row(step: _Scan, head: GoalTerm, key, slots: list) -> bool:
    """Whether one candidate fact's head fits the step; binds the step's new
    slots when it does.  Called once per candidate row."""
    if step.key_of is not None and step.key_of(head.args) != key:  # type: ignore[union-attr]
        return False
    for position, slot in step.binds:
        slots[slot] = head.args[position]  # type: ignore[union-attr]
    for position, pattern in step.nested:
        if not _match(pattern, head.args[position], slots):  # type: ignore[union-attr]
            return False
    return True


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
