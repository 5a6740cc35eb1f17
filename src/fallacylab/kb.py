"""Knowledge base: a store of ground argument tuples, plus inert rules.

Each predicate ``(name, arity)`` keeps one list of rows: the argument
tuples of its facts, in insertion order, duplicates kept.  The facts' global
order, inline comments and group ids (a group ties together the facts of one
generated instance) sit in parallel lists beside them, so ``facts``,
``fact_text`` and ``serialize`` give back the text's facts in order.  They
build their ``FactRecord``, ``Clause`` and line objects only when called.
Rules are kept as clauses in ``rules`` and read by nothing but validation,
the signature check and ``serialize``: the join runs over facts alone.

``from_text`` stores each flat fact line the parser yields as its key and
argument tuple, with no term built for it.  Every other clause goes through
``assertz``, the insert path for generated clauses too; a fact with a
variable is a ParseError at its line.

``index`` keys a predicate's rows by their values at some argument
positions: the value itself for one position, a tuple for several.  Each
bucket lists the positions of its rows in insertion order.  An index is
built on the first lookup that needs it, not while loading, so a base that
is only validated or serialized builds none.  A base is mutable while
loading in a single thread; after ``seal()`` its contents are immutable and
it can back any number of concurrent derivations.  A fill racing another on
the same positions builds the same index twice.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .engine import Atom, Clause, Struct, Term, indicator, is_ground
from .errors import ParseError, SealedError
from .parser import parse_statements, serialize_clause, serialize_term

#: A predicate's ``(name, arity)``.
Key = tuple[str, int]
#: The arguments of one ground fact.
Args = tuple[Term, ...]


@dataclass(frozen=True)
class FactRecord:
    clause: Clause
    comment: str | None = None
    group_id: int = 0

    def __post_init__(self):
        if self.group_id < 0:
            raise ValueError("group_id must be >= 0")


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
        self.sealed = False

    # -- loading ----------------------------------------------------------

    def assertz(
        self, clause: Clause, *, comment: str | None = None, group_id: int = 0
    ) -> "KnowledgeBase":
        """Append a clause.  Facts must be ground; raises on a sealed base."""
        if self.sealed:
            raise SealedError("knowledge base is sealed")
        if not clause.is_fact:
            self.rules.append(clause)
            return self
        if not is_ground(clause.head):
            raise ValueError(f"fact is not ground: {serialize_clause(clause)}")
        head = clause.head
        self._add(indicator(head), head.args if isinstance(head, Struct) else (), comment, group_id)
        return self

    def _add(self, key: Key, args: Args, comment: str | None, group_id: int) -> None:
        rows = self._tables.get(key)
        if rows is None:
            rows = self._tables[key] = []
        rows.append(args)
        self._fact_keys.append(key)
        self._fact_args.append(args)
        self._comments.append(comment)
        self._groups.append(group_id)
        self._indexes.pop(key, None)

    def add_record(self, record: FactRecord) -> "KnowledgeBase":
        return self.assertz(
            record.clause, comment=record.comment, group_id=record.group_id
        )

    def seal(self) -> "KnowledgeBase":
        self.sealed = True
        return self

    def extended(
        self, clauses: Iterable[Clause] = (), records: Iterable[FactRecord] = ()
    ) -> "KnowledgeBase":
        """A new sealed base holding this base's contents plus the additions.
        It shares this base's argument tuples; only the lists are copied."""
        out = KnowledgeBase()
        out._tables = {key: list(rows) for key, rows in self._tables.items()}
        out.rules = list(self.rules)
        out._fact_keys = list(self._fact_keys)
        out._fact_args = list(self._fact_args)
        out._comments = list(self._comments)
        out._groups = list(self._groups)
        for record in records:
            out.add_record(record)
        for clause in clauses:
            out.assertz(clause)
        return out.seal()

    # -- queries ------------------------------------------------------------

    def has_rules(self, key: Key) -> bool:
        return any(indicator(rule.head) == key for rule in self.rules)

    @property
    def facts(self) -> list[FactRecord]:
        """Every fact with its comment and group, in insertion order."""
        return [
            FactRecord(Clause(_head(key, args)), comment, group)
            for key, args, comment, group in self._fact_items()
        ]

    def _fact_items(self) -> Iterator[tuple[Key, Args, str | None, int]]:
        return zip(self._fact_keys, self._fact_args, self._comments, self._groups)

    def max_group_id(self) -> int:
        return max(self._groups, default=-1)

    # -- text round trip ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "KnowledgeBase":
        """A sealed base holding the text's clauses in order."""
        kb = cls()
        add = kb._add
        for item, comment, group, line in parse_statements(text):
            if type(item) is tuple:
                add(item[0], item[1], comment, group)
                continue
            try:
                kb.assertz(item, comment=comment, group_id=group if group is not None else 0)
            except ValueError as exc:  # a fact with a variable
                raise ParseError(str(exc), line, 1) from None
        return kb.seal()

    def fact_text(self) -> str:
        """Commented fact lines, fact groups separated by blank lines."""
        lines: list[str] = []
        current_group: int | None = None
        for (name, _), args, comment, group in self._fact_items():
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


def _head(key: Key, args: Args) -> Atom | Struct:
    return Struct(key[0], args) if args else Atom(key[0])
