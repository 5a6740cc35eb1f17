"""Terms, literals and clauses of the Prolog subset, the standard order of
terms, and ``join``: the one evaluator, for a rule over ground rows.

The subset is function-free Datalog with stratified negation: a term is an
atom, an integer or a variable, and a goal or head is ``name`` or
``name(t1, ..., tn)``.

``join`` runs one rule over one ``RowStore``: a dict of ground argument
tuples per ``(name, arity)``, read as the rule's facts.  The rule has the
shape of a schema's query: every argument is a variable, no variable occurs
twice in one goal, and every goal has arguments.  Its body is a conjunctive
query with stratified negation, so evaluating it is a join over rows; it
runs no resolution.  Next comes the goal with the most bound arguments,
ties broken by body order, and each ``\\=``, ``@<`` and negation runs as
soon as its variables are bound.  A goal's rows come from the table's index
on the positions of the variables bound before it (``RowStore.index``),
keyed by their values, so every row of a bucket holds them and only the
goal's own bindings are matched.

``compile_join`` walks the body once in that order and writes each literal
straight into the Python source of nested loops, each inside the last, with
a local per clause variable: a ``for`` per positive goal over its bucket, or
over every row when it has no key, unpacking each row into those locals,
and an ``if`` per builtin and negation.  The source is run by ``exec`` once
per rule, on the rule's first join.  Predicate keys reach the function
through its namespace, never as source text.  Rows are ground, so each is
matched one way, with no substitution.

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
# term is ever put beside a plain value, which it would equal.


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
    on the rule's first join (``Clause.compiled_join``).  The rule must have
    a schema query's shape: every argument a variable, no variable twice in
    one goal, no goal without arguments, every variable of a builtin or a
    negation bound by the positive goals before it, and every head variable
    bound by a body goal.  Any other rule is a ValueError.
    """
    found = rule.compiled_join.run(rows)
    # Over facts, SLD yields solutions in lexicographic order of the row
    # positions its positive goals matched, in body order.
    found.sort(key=itemgetter(0))
    return found


@dataclass(frozen=True)
class CompiledJoin:
    """The Python source of a rule's join, as nested loops, and the function
    it defines: ``run(rows)`` lists the body's solutions over ``rows``,
    unsorted."""

    source: str
    run: Callable[[RowStore], list[Solution]]


def compile_join(rule: Clause) -> CompiledJoin:
    """Write ``rule``'s body, in the order ``_run_order`` gives, as the source
    of ``run(rows)`` and compile it; see ``join`` for the ValueErrors."""
    source, namespace = _JoinSource(rule).emit()
    exec(compile(source, "<join>", "exec"), namespace)
    # Popped, so the function and its namespace form no reference cycle.
    return CompiledJoin(source, namespace.pop("run"))


def _run_order(rule: Clause) -> list[tuple[int, Literal]]:
    """``rule``'s body literals in the order the join runs them, each with
    its position among the body's positive goals, or -1 for a builtin or a
    negation; see ``join`` for the ValueErrors."""
    body = rule.body
    for item in (rule.head, *body):
        for arg in arguments(item):
            if isinstance(arg, Struct):
                raise ValueError(
                    f"compound argument {arg.functor}/{len(arg.args)}: "
                    "arguments are atoms, integers or variables"
                )
            if not isinstance(arg, Var):
                value = arg.name if isinstance(arg, Atom) else arg.value
                raise ValueError(
                    f"constant argument {value}: a joined rule's arguments are variables"
                )
    # Every variable of a builtin or negation is bound by the positive goals
    # before it, as SLD binds them.
    names: list[set[str]] = []
    ordinals: dict[int, int] = {}
    seen: set[str] = set()
    for index, lit in enumerate(body):
        names.append(set(var_names(lit)))
        if isinstance(lit, Goal):
            name, arity = indicator(lit.term)
            if not arity:
                raise ValueError(f"goal {name}/0: a joined goal has arguments")
            if len(names[index]) < arity:
                raise ValueError(f"a variable occurs twice in goal {name}/{arity}")
            if not lit.negated:
                ordinals[index] = len(ordinals)
                seen |= names[index]
                continue
        if not names[index] <= seen:
            raise ValueError(
                "a builtin or negation comes before its variable(s) are bound: "
                + ", ".join(sorted(names[index] - seen))
            )
    unbound = term_vars(rule.head) - seen
    if unbound:
        raise ValueError("head variable(s) bound by no body goal: " + ", ".join(sorted(unbound)))

    # Next the goal with the most bound arguments, ties broken by body order;
    # each test runs as soon as its variables are bound.
    order: list[tuple[int, Literal]] = []
    filled: set[str] = set()
    goals = list(ordinals)
    tests = [index for index in range(len(body)) if index not in ordinals]
    while True:
        for index in [index for index in tests if names[index] <= filled]:
            tests.remove(index)
            order.append((-1, body[index]))
        if not goals:
            return order
        best = max(goals, key=lambda index: (len(names[index] & filled), -index))
        goals.remove(best)
        filled |= names[best]
        order.append((ordinals[best], body[best]))


class _JoinSource:
    """Writes a rule's body as the source of ``run(rows)``, one literal at a
    time in run order, each nested in the last: a ``for`` per positive goal
    over its index bucket, or over every row when it has no key, unpacking
    each row into slot locals; an ``if`` per builtin and per negation.

    A slot is a local ``s{n}``, one per clause variable.  A goal's key holds
    its arguments that earlier goals bound, so it is read off slots alone,
    and a negation's key is all of its arguments.  Each predicate key the
    source looks up is a name bound in its namespace, never source text, so
    the source of a rule depends on its shape alone."""

    def __init__(self, rule: Clause):
        self.rule = rule
        self.order = _run_order(rule)
        self.namespace: dict[str, object] = {"compare_terms": compare_terms}
        self.keys = 0
        self.slot_of = {name: f"s{slot}" for slot, name in enumerate(rule.variables)}
        #: Lines run once per call, before the loops: the rows and index of
        #: each goal.
        self.prologue: list[str] = []
        self.body: list[str] = []

    def emit(self) -> tuple[str, dict[str, object]]:
        bound: set[str] = set()
        depth = 1
        for k, (ordinal, lit) in enumerate(self.order):
            if isinstance(lit, Goal):
                depth = self.goal(k, ordinal, lit.term, bound, depth)
                continue
            lhs, rhs = self.slot_of[lit.lhs.name], self.slot_of[lit.rhs.name]
            less = isinstance(lit, TermLess)
            test = f"compare_terms({lhs}, {rhs}) < 0" if less else f"{lhs} != {rhs}"
            self.line(depth, f"if {test}:")
            depth += 1
        head = [self.slot_of[name] for name in var_names(self.rule.head)]
        goals = sum(1 for ordinal, _ in self.order if ordinal >= 0)
        witness = _tuple([f"p{ordinal}" for ordinal in range(goals)])
        self.line(depth, f"append(({witness}, {_tuple(head)}))")
        lines = ["def run(rows):"]
        lines += [f"    {line}" for line in self.prologue]
        lines += ["    found = []", "    append = found.append"]
        lines += self.body
        lines.append("    return found")
        return "\n".join(lines) + "\n", self.namespace

    def line(self, depth: int, text: str) -> None:
        self.body.append("    " * depth + text)

    def goal(self, k: int, ordinal: int, term: Struct, bound: set[str], depth: int) -> int:
        """Write the ``k``th literal, a goal, at ``depth``: its variables not
        in ``bound`` are bound from each row, and join ``bound`` when the
        goal is positive.  Returns the depth of the code the goal's success
        runs."""
        key = f"c{self.keys}"
        self.keys += 1
        self.namespace[key] = indicator(term)
        positions: list[int] = []
        values: list[str] = []
        targets: list[str] = []
        for position, arg in enumerate(term.args):
            if arg.name in bound:
                positions.append(position)
                values.append(self.slot_of[arg.name])
                targets.append("_")
            else:
                targets.append(self.slot_of[arg.name])
        index = value = None
        if positions:
            index = f"x{k}"
            self.prologue.append(f"{index} = rows.index({key}, {tuple(positions)!r})")
            value = values[0] if len(values) == 1 else _tuple(values)
        if ordinal < 0:
            # Every argument is bound, so the negation holds when no row
            # has the key.  Index buckets are never empty.
            self.line(depth, f"if {value} not in {index}:")
            return depth + 1
        bound.update(arg.name for arg in term.args)
        self.prologue.append(f"r{k} = rows.get({key}, ())")
        if not index:
            self.line(depth, f"for p{ordinal}, {_tuple(targets)} in enumerate(r{k}):")
            return depth + 1
        self.line(depth, f"for p{ordinal} in {index}.get({value}, ()):")
        if len(positions) < len(targets):
            # Some argument is bound, so a row of one argument is never read.
            self.line(depth + 1, f"{', '.join(targets)} = r{k}[p{ordinal}]")
        return depth + 1


def _tuple(items: list[str]) -> str:
    """Source of a tuple display of ``items``."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
