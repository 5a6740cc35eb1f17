"""Terms, literals and clauses of the Prolog subset, the standard order of
terms, and ``join``: the one evaluator, for a rule over ground rows.

The subset is function-free Datalog with stratified negation: a term is an
atom, an integer or a variable, and a goal or head is ``name`` or
``name(t1, ..., tn)``.

``join`` runs one rule over one ``RowStore``: a dict of ground argument
tuples per ``(name, arity)``, read as the rule's facts.  Its body is a
conjunctive query with stratified negation, so evaluating it is a join over
rows; it runs no resolution.  Next comes the goal with the most bound
arguments, ties broken by body order, and each ``\\=``, ``@<`` and negation
runs as soon as its variables are bound.  The body is planned as steps over
slots, one per clause variable: each goal's arguments are constants, slots
bound by earlier steps, or slots the goal binds.  A goal's rows come from
the table's index on the positions of its constants and earlier slots
(``RowStore.index``), keyed by their values, so every row of a bucket holds
them and only the goal's own bindings are matched.

``compile_join`` writes that plan as the Python source of its nested loops
and runs ``exec`` on it once per rule, on the rule's first join: a ``for``
per positive goal over its bucket, or over every row when it has no key,
unpacking each row into slot locals, and an ``if`` or a ``for ... break /
else`` per builtin and negation.  Constants reach the function through its
namespace, never as source text.  Rows are ground, so each is matched one
way, with no substitution.

Each solution comes with its witness: the position of the row each positive
goal matched, in body order.  SLD resolution over facts yields a body's
solutions in lexicographic order of their witnesses, so the join sorts its
solutions by witness and they come out in SLD's order and multiplicity.
The witness is also what the schemas' recheck certifies a tuple by.

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
from typing import Callable, Iterator, Mapping, Sequence, Union

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
    """A predicate ``functor(arg1, ..., argN)`` with N >= 1, as a goal or a
    clause head; each argument is an atom, an integer or a variable.  The
    parser builds no other; ``compile_join`` refuses one that nests."""

    functor: str
    args: "tuple[Term, ...]"

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValueError("a predicate with arguments needs at least one")


Term = Union[Var, Atom, Int]

#: Goal-position terms: an atom or a predicate with arguments.
GoalTerm = Union[Atom, Struct]


def indicator(term: GoalTerm) -> tuple[str, int]:
    """(name, arity) of a callable term; atoms have arity 0."""
    if isinstance(term, Struct):
        return term.functor, len(term.args)
    return term.name, 0


def term_vars(term: "Term | GoalTerm") -> set[str]:
    """Names of all variables occurring in a term."""
    return set(var_names(term))


def arguments(item: "Term | GoalTerm | Literal") -> tuple[Term, ...]:
    """The arguments of a predicate or goal, or a builtin's two operands.
    An atom may be a goal, so it has none; a variable or an integer stands
    for itself."""
    if isinstance(item, Goal):
        item = item.term
    if isinstance(item, Struct):
        return item.args
    if isinstance(item, (NotEqual, TermLess)):
        return item.lhs, item.rhs
    return () if isinstance(item, Atom) else (item,)


def var_names(*items: "Term | GoalTerm | Literal") -> Iterator[str]:
    """Names of the variables in terms or literals, one per occurrence, in
    order of occurrence; ``dict.fromkeys`` keeps the first of each."""
    for item in items:
        for arg in arguments(item):
            if isinstance(arg, Var):
                yield arg.name


def is_ground(term: "Term | GoalTerm") -> bool:
    """Whether a term, or every argument of a predicate, is a constant."""
    return not any(isinstance(arg, Var) for arg in arguments(term))


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

    @cached_property
    def compiled_join(self) -> "CompiledJoin":
        """The body's join, compiled by ``compile_join`` on first use and
        then kept with the clause."""
        return compile_join(self)


# ---------------------------------------------------------------------------
# Standard order of terms
# ---------------------------------------------------------------------------

def order_key(term: Term):
    """Sort key realizing the standard order Var < Int < Atom."""
    if isinstance(term, Var):
        return (0, term.name)
    if isinstance(term, Int):
        return (1, term.value)
    return (2, term.name)


def compare_terms(t1: Term, t2: Term) -> int:
    """-1, 0, or 1 as t1 precedes, equals, or follows t2 in standard order.

    Variables compare by name, integers by value, atoms lexicographically.
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
# Joins compiled to nested loops, for rules over facts
# ---------------------------------------------------------------------------

#: One solution of a join: its witness, the position of the row each
#: positive body goal matched, in body order, and the head's arguments.
Solution = tuple[tuple[int, ...], tuple[Term, ...]]


def join(rule: Clause, rows: RowStore) -> list[Solution]:
    """The solutions of ``rule``'s body over ``rows``, each as its witness
    and its head arguments, in the order and multiplicity SLD gives a goal
    of distinct variables resolved against ``rule`` and the rows as facts.

    The body runs as the function ``compile_join`` writes for it, compiled
    on the rule's first join (``Clause.compiled_join``).  Raises ValueError
    when an argument is compound, when a builtin or negation would run
    before its variables are bound, or when a head variable is bound by no
    body goal.
    """
    found = rule.compiled_join.run(rows)
    # Over facts, SLD yields solutions in lexicographic order of the row
    # positions its positive goals matched, in body order.
    found.sort(key=itemgetter(0))
    return found


@dataclass(frozen=True)
class CompiledJoin:
    """A rule's join plan, the Python source of the nested loops it
    describes, and the function that source defines: ``run(rows)`` lists
    the body's solutions over ``rows``, unsorted."""

    plan: "_Plan"
    source: str
    run: Callable[[RowStore], list[Solution]]


def compile_join(rule: Clause) -> CompiledJoin:
    """Plan ``rule``'s body and compile the plan to a Python function; see
    ``join`` for the ValueErrors."""
    plan = _make_plan(rule)
    source, namespace = _JoinSource(plan).emit()
    exec(compile(source, "<join>", "exec"), namespace)
    # Popped, so the function and its namespace form no reference cycle.
    return CompiledJoin(plan, source, namespace.pop("run"))


# A pattern is a head argument or a builtin operand, read once its variable
# is bound: ``(_CONST, term)``, or ``(_CHECK, slot)`` for a variable, whose
# slot is one local of the compiled function.
_CONST, _CHECK = range(2)


def _compile(term: Term, slot_of: Mapping[str, int]) -> tuple:
    """The pattern of ``term``."""
    if isinstance(term, Var):
        return _CHECK, slot_of[term.name]
    return _CONST, term


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
    #: The slot holding the key's value at each of ``key_positions``.
    key_slots: tuple[int, ...]
    #: (position, slot) bound from each row, at each new variable's first
    #: position.
    binds: tuple[tuple[int, int], ...]
    #: (position, slot) of a variable's later positions in this goal,
    #: checked against each row after the binds.
    repeats: tuple[tuple[int, int], ...]


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
    for item in (rule.head, *body):
        for arg in arguments(item):
            if isinstance(arg, Struct):
                raise ValueError(
                    f"compound argument {arg.functor}/{len(arg.args)}: "
                    "arguments are atoms, integers or variables"
                )
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
                    isinstance(lit, TermLess), _compile(lit.lhs, slot_of), _compile(lit.rhs, slot_of)
                ))
        if not goals:
            break
        best = max(goals, key=lambda index: (_bound_args(body[index].term, filled), -index))
        goals.remove(best)
        steps.append(_compile_scan(body[best].term, ordinals[best], slot_of, filled, slots))
    head = tuple(_compile(arg, slot_of) for arg in arguments(rule.head))
    return _Plan(head, tuple(steps), tuple(slots), len(ordinals))


def _bound_args(term: GoalTerm, bound: set[str]) -> int:
    return sum(1 for arg in arguments(term) if not isinstance(arg, Var) or arg.name in bound)


def _compile_scan(
    term: GoalTerm, ordinal: int, slot_of: Mapping[str, int], bound: set[str], slots: list
) -> _Scan:
    """The step of a body goal; its variables join ``bound``, and each
    constant of its key gets a new slot at the end of ``slots``."""
    key_positions: list[int] = []
    key_slots: list[int] = []
    binds: list[tuple[int, int]] = []
    repeats: list[tuple[int, int]] = []
    before = set(bound)
    for position, arg in enumerate(arguments(term)):
        if not isinstance(arg, Var):
            key_positions.append(position)
            key_slots.append(len(slots))
            slots.append(arg)
        elif arg.name in before:
            key_positions.append(position)
            key_slots.append(slot_of[arg.name])
        elif arg.name in bound:
            repeats.append((position, slot_of[arg.name]))
        else:
            bound.add(arg.name)
            binds.append((position, slot_of[arg.name]))
    return _Scan(
        ordinal,
        indicator(term),
        tuple(key_positions),
        tuple(key_slots),
        tuple(binds),
        tuple(repeats),
    )


class _JoinSource:
    """Writes a plan as the source of ``run(rows)``: one ``for`` per
    positive goal over its index bucket, or over every row when it has no
    key, unpacking each row into slot locals; one ``if`` per builtin and per
    repeated variable in a goal; one ``for ... break / else`` per negated
    goal.  Every constant and key the source uses is a name bound in its
    namespace, never source text, so the source of a rule depends on its
    shape alone."""

    def __init__(self, plan: _Plan):
        self.plan = plan
        self.namespace: dict[str, object] = {"compare_terms": compare_terms}
        self.constants = 0
        #: Lines run once per call, before the loops: a local per key
        #: constant, then the rows and index of each goal.
        self.prologue: list[str] = []
        self.body: list[str] = []

    def emit(self) -> tuple[str, dict[str, object]]:
        for slot, value in enumerate(self.plan.slots):
            if value is not None:
                self.prologue.append(f"s{slot} = {self.constant(value)}")
        self.steps(0, 1)
        lines = ["def run(rows):"]
        lines += [f"    {line}" for line in self.prologue]
        lines += ["    found = []", "    append = found.append"]
        lines += self.body
        lines.append("    return found")
        return "\n".join(lines) + "\n", self.namespace

    def constant(self, value: object) -> str:
        name = f"c{self.constants}"
        self.constants += 1
        self.namespace[name] = value
        return name

    def line(self, depth: int, text: str) -> None:
        self.body.append("    " * depth + text)

    def steps(self, k: int, depth: int) -> None:
        """Write ``steps[k:]`` at indentation ``depth``."""
        plan = self.plan
        if k == len(plan.steps):
            head = [self.term(pattern) for pattern in plan.head]
            witness = _tuple([f"p{ordinal}" for ordinal in range(plan.goal_count)])
            self.line(depth, f"append(({witness}, {_tuple(head)}))")
            return
        step = plan.steps[k]
        if isinstance(step, _Test):
            lhs, rhs = self.term(step.lhs), self.term(step.rhs)
            test = f"compare_terms({lhs}, {rhs}) < 0" if step.less else f"{lhs} != {rhs}"
            self.line(depth, f"if {test}:")
            self.steps(k + 1, depth + 1)
            return
        key = self.constant(step.key)
        index, value = self.lookup(k, step, key)
        if step.ordinal < 0 and not step.repeats:
            # Every candidate row matches, so the negation holds when there
            # is none.  Index buckets are never empty.
            absent = f"{value} not in {index}" if index else f"not {self.rows(k, key)}"
            self.line(depth, f"if {absent}:")
            self.steps(k + 1, depth + 1)
            return
        inner = self.scan(k, step, self.rows(k, key), index, value, depth)
        if step.ordinal >= 0:
            self.steps(k + 1, inner)
        else:
            self.line(inner, "break")
            self.line(depth, "else:")
            self.steps(k + 1, depth + 1)

    def rows(self, k: int, key: str) -> str:
        """The local of one goal's rows, fetched once per call."""
        self.prologue.append(f"r{k} = rows.get({key}, ())")
        return f"r{k}"

    def lookup(self, k: int, step: _Scan, key: str) -> tuple[str | None, str | None]:
        """The local of one goal's index, fetched once per call, and the
        expression of its key's value; Nones when the goal has no key."""
        if not step.key_positions:
            return None, None
        index = f"x{k}"
        self.prologue.append(f"{index} = rows.index({key}, {step.key_positions!r})")
        if len(step.key_slots) == 1:
            return index, f"s{step.key_slots[0]}"
        return index, _tuple([f"s{slot}" for slot in step.key_slots])

    def scan(
        self, k: int, step: _Scan, rows: str, index: str | None, value: str | None, depth: int
    ) -> int:
        """Write the loop over one goal's candidate rows and the checks each
        row still needs; returns the indentation of the code a row that
        passes them runs."""
        targets = ["_"] * step.key[1]
        for position, slot in step.binds:
            targets[position] = f"s{slot}"
        for position, _ in step.repeats:
            targets[position] = f"t{k}_{position}"
        unpack = ", ".join(targets) + ("," if len(targets) == 1 else "")
        read = any(target != "_" for target in targets)
        position = f"p{step.ordinal}" if step.ordinal >= 0 else f"q{k}"
        if index:
            self.line(depth, f"for {position} in {index}.get({value}, ()):")
            if read:
                self.line(depth + 1, f"{unpack} = {rows}[{position}]")
        elif read:
            self.line(depth, f"for {position}, ({unpack}) in enumerate({rows}):")
        else:
            self.line(depth, f"for {position} in range(len({rows})):")
        depth += 1
        for position, slot in step.repeats:
            self.line(depth, f"if t{k}_{position} == s{slot}:")
            depth += 1
        return depth

    def term(self, pattern: tuple) -> str:
        """An expression for the term of a pattern."""
        kind, payload = pattern
        return f"s{payload}" if kind == _CHECK else self.constant(payload)


def _tuple(items: list[str]) -> str:
    """Source of a tuple display of ``items``."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
