"""Prolog-subset inference engine.

Terms, unification with an occurs check, depth-first SLD resolution over an
insertion-ordered clause store, negation as failure, the two builtin
comparisons (``\\=`` and ``@<``), findall, and a join for rules over facts.

The solver asks its clause source for the rows of each resolved goal (see
``ClauseSource``): candidate clauses paired with their positions among the
predicate's clauses.  A source may leave out clauses whose head cannot unify
with the goal, but keeps the rest in insertion order, so an indexed source
yields the same solutions in the same order as a full scan.  A clause without
variables (every fact of a knowledge base) is unified as it is; the others
are renamed apart, from variable names computed once per clause.

``join`` is a second entry point, for one rule whose body goals, positive or
negated, all name fact-only predicates of the source
(``ClauseSource.fact_only``): a conjunctive query.  It runs no resolution.
Next comes the goal with the most bound arguments, ties broken by body
order, and each ``\\=``, ``@<`` and negation runs as soon as its variables
are bound.  The body is compiled into steps over slots, one per clause
variable: each goal's arguments are constants, slots bound by earlier steps,
or slots the goal binds, and a goal's rows come from ``ClauseSource.rows``
keyed by the constants and earlier slots alone.  Facts are ground, so each
candidate row is matched one way against the step's pattern, with no
substitution.  Over facts, SLD yields a body's solutions in lexicographic
order of the positions of the rows its positive goals matched, in body
order, so the join sorts its solutions by that vector and they come out in
SLD's order and multiplicity.  A rule the join cannot run that way is a
ValueError; SLD is the general solver.

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
        does.  Only ``join`` asks."""
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
            if extended is not None:
                alternatives.append(
                    (clause.body + (_Scope(goal_term),) + rest, extended, depth + 1, branch_visited)
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
# Slot-compiled joins for rules over facts
# ---------------------------------------------------------------------------


def join(rule: Clause, source: ClauseSource) -> list[tuple[Term, ...]]:
    """The head arguments of each solution of ``rule``'s body over
    ``source``, in the order and multiplicity SLD gives a goal of distinct
    variables resolved against ``rule``.

    Raises ValueError when a body goal names a predicate with rules, when a
    builtin or negation would run before its variables are bound, or when a
    head variable is bound by no body goal.
    """
    plan = _make_plan(rule, source)
    slots: list = [None] * plan.slot_count
    found: list[tuple[tuple[int, ...], tuple]] = []
    _run_steps(plan.steps, 0, slots, [0] * plan.goal_count, source, found)
    # Over facts, SLD yields solutions in lexicographic order of the row
    # positions its positive goals matched, in body order.
    found.sort(key=itemgetter(0))
    return [tuple(_build(pattern, values) for pattern in plan.head) for _, values in found]


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
    #: The pattern of each head argument, over slots the body binds.
    head: tuple[tuple, ...]
    steps: "tuple[_Scan | _Test, ...]"
    slot_count: int
    goal_count: int


def _make_plan(rule: Clause, source: ClauseSource) -> _Plan:
    """The slot-compiled join of ``rule``'s body; see ``join`` for the
    ValueErrors."""
    body = rule.body
    ordinals: dict[int, int] = {}
    for index, lit in enumerate(body):
        if isinstance(lit, Goal):
            if not source.fact_only(lit.term):
                name, arity = indicator(lit.term)
                raise ValueError(f"{name}/{arity} is defined by rules, not facts alone")
            if not lit.negated:
                ordinals[index] = len(ordinals)
    names = [set(var_names(lit)) for lit in body]
    occurrences = Counter(term_vars(rule.head))
    for lit_names in names:
        occurrences.update(lit_names)

    # What each builtin or negation needs bound: every variable, save those
    # of a negation that occur nowhere else in the rule (read
    # existentially).  SLD binds them from the positive goals before it.
    needs: dict[int, set[str]] = {}
    seen: set[str] = set()
    for index, lit in enumerate(body):
        if index in ordinals:
            seen |= names[index]
            continue
        need = names[index]
        if isinstance(lit, Goal):
            need = {name for name in need if occurrences[name] > 1}
        if not need <= seen:
            raise ValueError(
                "a builtin or negation comes before its variable(s) are bound: "
                + ", ".join(sorted(need - seen))
            )
        needs[index] = need
    unbound = term_vars(rule.head) - seen
    if unbound:
        raise ValueError("head variable(s) bound by no body goal: " + ", ".join(sorted(unbound)))

    # Next the goal with the most bound arguments, ties broken by body order;
    # each test runs as soon as its variables are bound.
    slot_of = {name: slot for slot, name in enumerate(rule.variables)}
    filled: set[str] = set()
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
    head_args = rule.head.args if isinstance(rule.head, Struct) else ()
    head = tuple(_compile(arg, slot_of, filled) for arg in head_args)
    return _Plan(head, tuple(steps), len(slot_of), len(ordinals))


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
