"""Knowledge base: a store of ground argument tuples, plus inert rules.

Each predicate ``(name, arity)`` keeps one list of rows: the argument
tuples of its facts, in insertion order, duplicates kept.  The facts' global
order, inline comments and group ids (a group ties together the facts of one
generated instance) sit in parallel lists beside them, so ``fact_text`` and
``serialize`` give back the text's facts in order, building their line
objects only when called.  Rules are kept as clauses in ``rules`` and read by
nothing but validation, the signature check and ``serialize``: the join runs
over facts alone.

A base is built once, by ``from_text``, and never changes after that.  It
stores each flat fact line the parser yields as its key and argument tuple,
with no term built for it, and every other fact from its head; a fact with a
variable is a ParseError at its line.

``index`` keys a predicate's rows by their values at some argument
positions: the value itself for one position, a tuple for several.  Each
bucket lists the positions of its rows in insertion order.  An index is
built on the first lookup that needs it, not while loading, so a base that
is only validated or serialized builds none.  A base can back any number of
concurrent derivations; a fill racing another on the same positions builds
the same index twice.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence

from .engine import Clause, Struct, Term, indicator, is_ground
from .errors import ParseError
from .parser import parse_statements, serialize_clause, serialize_term

#: A predicate's ``(name, arity)``.
Key = tuple[str, int]
#: The arguments of one ground fact.
Args = tuple[Term, ...]


class RowStore:
    """Ground argument tuples per predicate, with exact-key indexes built on
    first lookup.  On its own it is the layer a derivation puts its
    auxiliary rows in."""

    def __init__(self, tables: Mapping[Key, list[Args]] | None = None):
        self._tables: dict[Key, list[Args]] = dict(tables or {})
        #: key -> argument positions -> {value(s) at those positions: row positions}
        self._indexes: dict[Key, dict[tuple[int, ...], dict[object, list[int]]]] = {}

    def __contains__(self, key: Key) -> bool:
        return key in self._tables

    def tables(self) -> dict[Key, list[Args]]:
        """Each predicate's rows, keyed by ``(name, arity)``: a new mapping
        over the store's own lists, which the caller must not change."""
        return dict(self._tables)

    def table(self, key: Key) -> Sequence[Args]:
        """The predicate's rows, in insertion order."""
        return self._tables.get(key, ())

    def index(self, key: Key, positions: tuple[int, ...]) -> Mapping[object, Sequence[int]]:
        """The positions of the predicate's rows, in insertion order, keyed
        by their values at ``positions`` (one or more argument positions)."""
        by_positions = self._indexes.get(key)
        if by_positions is None:
            by_positions = self._indexes[key] = {}
        index = by_positions.get(positions)
        if index is None:
            index = {}
            for position, value in enumerate(map(itemgetter(*positions), self.table(key))):
                bucket = index.get(value)
                if bucket is None:
                    index[value] = [position]
                else:
                    bucket.append(position)
            by_positions[positions] = index
        return index

    def has_rules(self, key: Key) -> bool:
        """Whether a rule defines the predicate."""
        return False


class KnowledgeBase(RowStore):
    def __init__(self):
        super().__init__()
        self.rules: list[Clause] = []
        #: Per fact, in insertion order: its key, arguments, comment and group.
        self._fact_keys: list[Key] = []
        self._fact_args: list[Args] = []
        self._comments: list[str | None] = []
        self._groups: list[int] = []

    @classmethod
    def from_text(cls, text: str) -> "KnowledgeBase":
        """A base holding the text's clauses in order."""
        kb = cls()
        tables, rules = kb._tables, kb.rules
        keys, args, comments, groups = kb._fact_keys, kb._fact_args, kb._comments, kb._groups
        for item, comment, group, line in parse_statements(text):
            if type(item) is not tuple:
                if not item.is_fact:
                    rules.append(item)
                    continue
                head = item.head
                if not is_ground(head):
                    raise ParseError(f"fact is not ground: {serialize_clause(item)}", line, 1)
                item = (indicator(head), head.args if isinstance(head, Struct) else ())
            key, row = item
            rows = tables.get(key)
            if rows is None:
                rows = tables[key] = []
            rows.append(row)
            keys.append(key)
            args.append(row)
            comments.append(comment)
            groups.append(group)
        return kb

    # -- queries ------------------------------------------------------------

    def has_rules(self, key: Key) -> bool:
        return any(indicator(rule.head) == key for rule in self.rules)

    # -- text round trip ------------------------------------------------------

    def fact_text(self) -> str:
        """Commented fact lines, fact groups separated by blank lines."""
        lines: list[str] = []
        current_group: int | None = None
        facts = zip(self._fact_keys, self._fact_args, self._comments, self._groups)
        for (name, _), args, comment, group in facts:
            if current_group is not None and group != current_group:
                lines.append("")
            current_group = group
            line = f"{name}({', '.join(map(serialize_term, args))})." if args else f"{name}."
            lines.append(f"{line} % {comment}" if comment else line)
        return "\n".join(lines)

    def serialize(self) -> str:
        """Canonical text: fact groups separated by blank lines, rules last."""
        rules = "\n".join(serialize_clause(rule) for rule in self.rules)
        parts = [part for part in (self.fact_text(), rules) if part]
        return "\n\n".join(parts) + "\n" if parts else ""

