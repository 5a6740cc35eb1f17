"""Knowledge base: an insertion-ordered store of ground facts and rules.

Facts carry an optional inline comment and a group id tying together the
facts of one generated instance.  A knowledge base is mutable while loading
in a single thread; after ``seal()`` it is immutable and can safely back any
number of concurrent solver runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .engine import Clause, indicator, is_ground
from .errors import SealedError
from .parser import parse_program, serialize_clause


@dataclass(frozen=True)
class FactRecord:
    clause: Clause
    comment: str | None = None
    group_id: int = 0

    def __post_init__(self):
        if self.group_id < 0:
            raise ValueError("group_id must be >= 0")


class KnowledgeBase:
    def __init__(self):
        self.facts: list[FactRecord] = []
        self.rules: list[Clause] = []
        self._by_indicator: dict[tuple[str, int], list[Clause]] = {}
        self.sealed = False

    # -- loading ----------------------------------------------------------

    def assertz(
        self, clause: Clause, *, comment: str | None = None, group_id: int = 0
    ) -> "KnowledgeBase":
        """Append a clause.  Facts must be ground; raises on a sealed base."""
        if self.sealed:
            raise SealedError("knowledge base is sealed")
        if clause.is_fact:
            if not is_ground(clause.head):
                raise ValueError(
                    f"fact is not ground: {serialize_clause(clause)}"
                )
            self.facts.append(FactRecord(clause, comment, group_id))
        else:
            self.rules.append(clause)
        self._by_indicator.setdefault(indicator(clause.head), []).append(clause)
        return self

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
        """A new sealed base holding this base's contents plus the additions."""
        out = KnowledgeBase()
        for record in self.facts:
            out.add_record(record)
        for rule in self.rules:
            out.assertz(rule)
        for record in records:
            out.add_record(record)
        for clause in clauses:
            out.assertz(clause)
        return out.seal()

    # -- queries ------------------------------------------------------------

    def clauses(self, name: str, arity: int) -> list[Clause]:
        """Clauses for one predicate, in insertion order."""
        return self._by_indicator.get((name, arity), [])

    def max_group_id(self) -> int:
        return max((r.group_id for r in self.facts), default=-1)

    # -- text round trip ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "KnowledgeBase":
        kb = cls()
        for parsed in parse_program(text):
            kb.assertz(
                parsed.clause,
                comment=parsed.comment,
                group_id=parsed.group_id if parsed.group_id is not None else 0,
            )
        return kb.seal()

    def fact_text(self) -> str:
        """Commented fact lines, fact groups separated by blank lines."""
        lines: list[str] = []
        current_group: int | None = None
        for record in self.facts:
            if current_group is not None and record.group_id != current_group:
                lines.append("")
            current_group = record.group_id
            lines.append(serialize_clause(record.clause, record.comment))
        return "\n".join(lines)

    def serialize(self) -> str:
        """Canonical text: fact groups separated by blank lines, rules last."""
        rules = "\n".join(serialize_clause(rule) for rule in self.rules)
        parts = [part for part in (self.fact_text(), rules) if part]
        return "\n\n".join(parts) + "\n" if parts else ""
