"""Terms, literals and clauses of the Prolog subset, the standard order of
terms, and ``join``: the one evaluator, for a rule over ground rows.

``join`` runs one rule over one ``RowStore``: a dict of ground argument
tuples per ``(name, arity)``, read as the rule's facts.  Its body is a
conjunctive query with stratified negation, so evaluating it is a join over
rows; it runs no resolution.  Next comes the goal with the most bound
arguments, ties broken by body order, and each ``\\=``, ``@<`` and negation
runs as soon as its variables are bound.  The body is compiled into steps
over slots, one per clause variable: each goal's arguments are constants,
slots bound by earlier steps, or slots the goal binds.  A goal's rows come
from the table's index on the positions of its constants and earlier slots
(``RowStore.index``), keyed by their values, so every row of a bucket holds
them and only the goal's own bindings are matched.  Rows are ground, so
each is matched one way against the step's pattern, with no substitution.
SLD resolution over facts yields a body's solutions in lexicographic order
of the positions of the rows its positive goals matched, in body order, so
the join sorts its solutions by that vector and they come out in SLD's
order and multiplicity.

Nothing here resolves: the schemas need no more than the join, and plain
SLD resolution lives on only as the tests' reference for it.  A table
never changes once read, so it may back any number of concurrent joins;
its indexes are filled on first lookup.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterator, Mapping, Sequence, Union

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """Logic variable.  Source-level names start with an uppercase letter or
    underscore; names containing ``#`` are reserved for internal renaming."""

    name: str


# A constant is the builtin value it spells, so hashing and comparing one,
# which every index bucket and row match does, runs no Python code: an Atom
# equals the plain str of its name and an Int the int of its value.  No
# term is ever put beside a plain value, save a slot index, which callers
# tell apart by ``type(x) is int``.


class Atom(str):
    """Constant symbol, written as a snake_case identifier."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return str.__str__(self)

    def __repr__(self) -> str:
        return f"Atom(name={str.__repr__(self)})"


class Int(int):
    """Integer constant."""

    __slots__ = ()

    @property
    def value(self) -> int:
        return int(self)

    def __repr__(self) -> str:
        return f"Int(value={int.__repr__(self)})"


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
# The row table a join reads
# ---------------------------------------------------------------------------


class RowStore(dict):
    """Ground argument tuples per ``(name, arity)``: each predicate's rows in
    insertion order, duplicates kept, which nothing may change once the
    table is first read.  ``index`` keys them by their values at some
    argument positions, built on first lookup."""

    def __init__(self, tables: Mapping[tuple[str, int], Sequence[tuple[Term, ...]]] = ()):
        super().__init__(tables)
        #: key -> argument positions -> {value(s) at those positions: row positions}
        self._indexes: dict[tuple[str, int], dict[tuple[int, ...], dict[object, list[int]]]] = {}

    def index(
        self, key: tuple[str, int], positions: tuple[int, ...]
    ) -> Mapping[object, Sequence[int]]:
        """The positions of the predicate's rows, in insertion order, keyed
        by their values at ``positions`` (one or more argument positions):
        the value itself for one position, the tuple of values for several."""
        by_positions = self._indexes.get(key)
        if by_positions is None:
            by_positions = self._indexes[key] = {}
        index = by_positions.get(positions)
        if index is None:
            index = {}
            for position, value in enumerate(map(itemgetter(*positions), self.get(key, ()))):
                bucket = index.get(value)
                if bucket is None:
                    index[value] = [position]
                else:
                    bucket.append(position)
            by_positions[positions] = index
        return index


# ---------------------------------------------------------------------------
# Slot-compiled joins for rules over facts
# ---------------------------------------------------------------------------


def join(rule: Clause, rows: RowStore) -> list[tuple[Term, ...]]:
    """The head arguments of each solution of ``rule``'s body over
    ``rows``, in the order and multiplicity SLD gives a goal of distinct
    variables resolved against ``rule`` and the rows as facts.

    Raises ValueError when a builtin or negation would run before its
    variables are bound, or when a head variable is bound by no body goal.
    """
    plan = _make_plan(rule)
    # Each goal's rows, and its index when it has a key, fetched once.
    lookups = [
        (rows.get(step.key, ()), rows.index(step.key, step.key_positions) if step.key_of else None)
        if isinstance(step, _Scan)
        else None
        for step in plan.steps
    ]
    found: list[tuple[tuple[int, ...], tuple]] = []
    _run_steps(plan.steps, lookups, 0, list(plan.slots), [0] * plan.goal_count, found)
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
    slots bound by earlier steps.  A constant has a slot of its own, filled
    before the run, so the key is read off the slots alone.  A slot bound
    earlier in the same goal is not known when the rows are fetched, so it
    is matched against each row instead.
    """

    #: Position among the body's positive goals, or -1 for a negated goal.
    ordinal: int
    key: tuple[str, int]
    key_positions: tuple[int, ...]
    #: The index key of the slots, or None when the goal has no key.
    key_of: "itemgetter | None"
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
    #: The slots before a run: None for each variable, then the key constants.
    slots: tuple
    goal_count: int


def _make_plan(rule: Clause) -> _Plan:
    """The slot-compiled join of ``rule``'s body; see ``join`` for the
    ValueErrors."""
    body = rule.body
    ordinals: dict[int, int] = {}
    for index, lit in enumerate(body):
        if isinstance(lit, Goal) and not lit.negated:
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
    slots: list = [None] * len(slot_of)
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
                steps.append(_compile_scan(lit.term, -1, slot_of, set(filled), slots))
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
        steps.append(_compile_scan(body[best].term, ordinals[best], slot_of, filled, slots))
    head_args = rule.head.args if isinstance(rule.head, Struct) else ()
    head = tuple(_compile(arg, slot_of, filled) for arg in head_args)
    return _Plan(head, tuple(steps), tuple(slots), len(ordinals))


def _bound_args(term: GoalTerm, bound: set[str]) -> int:
    args = term.args if isinstance(term, Struct) else ()
    return sum(1 for arg in args if term_vars(arg) <= bound)


def _compile_scan(
    term: GoalTerm, ordinal: int, slot_of: Mapping[str, int], bound: set[str], slots: list
) -> _Scan:
    """The step of a body goal; its variables join ``bound``, and each
    constant of its key gets a new slot at the end of ``slots``."""
    args = term.args if isinstance(term, Struct) else ()
    key_positions: list[int] = []
    key_slots: list[int] = []
    binds: list[tuple[int, int]] = []
    deferred: list[int] = []
    before = set(bound)
    for position, arg in enumerate(args):
        if isinstance(arg, Var) and arg.name in before:
            key_positions.append(position)
            key_slots.append(slot_of[arg.name])
        elif is_ground(arg):
            key_positions.append(position)
            key_slots.append(len(slots))
            slots.append(arg)
        elif isinstance(arg, Var) and arg.name not in bound:
            bound.add(arg.name)
            binds.append((position, slot_of[arg.name]))
        else:
            deferred.append(position)
    nested = tuple((position, _compile(args[position], slot_of, bound)) for position in deferred)
    return _Scan(
        ordinal,
        indicator(term),
        tuple(key_positions),
        itemgetter(*key_slots) if key_slots else None,
        tuple(binds),
        nested,
    )


def _run_steps(steps, lookups, k, slots, positions, found) -> None:
    """Run ``steps[k:]``, adding each solution's row positions and slot
    values to ``found``."""
    if k == len(steps):
        found.append((tuple(positions), tuple(slots)))
        return
    step = steps[k]
    if isinstance(step, _Test):
        lhs, rhs = _build(step.lhs, slots), _build(step.rhs, slots)
        if (compare_terms(lhs, rhs) < 0) if step.less else lhs != rhs:
            _run_steps(steps, lookups, k + 1, slots, positions, found)
        return
    rows, index = lookups[k]
    candidates = range(len(rows)) if index is None else index.get(step.key_of(slots), ())
    if step.ordinal < 0:
        for position in candidates:
            if _match_row(step, rows[position], slots):
                return
        _run_steps(steps, lookups, k + 1, slots, positions, found)
        return
    for position in candidates:
        if _match_row(step, rows[position], slots):
            positions[step.ordinal] = position
            _run_steps(steps, lookups, k + 1, slots, positions, found)


def _match_row(step: _Scan, args: tuple[Term, ...], slots: list) -> bool:
    """Whether one candidate row, which holds the step's key, fits the rest
    of its goal; binds the step's new slots when it does.  Called once per
    candidate row."""
    for position, slot in step.binds:
        slots[slot] = args[position]
    for position, pattern in step.nested:
        if not _match(pattern, args[position], slots):
            return False
    return True
