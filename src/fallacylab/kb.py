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
stores each flat fact line the parser yields under its key, building the
argument tuple from the line's argument text with ``parser.flat_args``; one
load keeps one ``Atom`` or ``Int`` per spelling, and no clause or head is
built for such a line.  The few other facts come as clauses and are stored
from their heads, whose arguments are atoms, integers or variables: a fact
of arity 0, one that shares or spans lines, or one with a variable, which
is a ParseError at its line.

A base holds no index: a derivation reads its rows through a table of its
own (``schemas.fact_table``), whose indexes ``engine.join`` and the recheck
build there.
"""
from __future__ import annotations

from .engine import Clause, Term, arguments, indicator, is_ground
from .errors import ParseError
from .parser import flat_args, parse_statements, serialize_clause, serialize_term

#: A predicate's ``(name, arity)``.
Key = tuple[str, int]
#: The arguments of one ground fact.
Args = tuple[Term, ...]


class KnowledgeBase:
    def __init__(self):
        self._tables: dict[Key, list[Args]] = {}
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
        #: One term per spelling across the load.
        consts: dict[str, Term] = {}
        for item, comment, group, line in parse_statements(text):
            if type(item) is tuple:
                key, row = item[0], flat_args(item[1], consts)
            elif item.is_fact:
                head = item.head
                if not is_ground(head):
                    raise ParseError(f"fact is not ground: {serialize_clause(item)}", line, 1)
                key, row = indicator(head), arguments(head)
            else:
                rules.append(item)
                continue
            rows = tables.get(key)
            if rows is None:
                rows = tables[key] = []
            rows.append(row)
            keys.append(key)
            args.append(row)
            comments.append(comment)
            groups.append(group)
        return kb

    def tables(self) -> dict[Key, list[Args]]:
        """Each predicate's rows, keyed by ``(name, arity)``: a new mapping
        over the base's own lists, which the caller must not change."""
        return dict(self._tables)

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

