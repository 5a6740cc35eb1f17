"""Knowledge base: an insertion-ordered store of ground facts and rules.

Facts carry an optional inline comment and a group id tying together the
facts of one generated instance.  A knowledge base is mutable while loading
in a single thread; after ``seal()`` its contents are immutable and it can
safely back any number of concurrent solver runs.

Each predicate keeps one list of rows, its clauses paired with their
positions, appended as clauses are asserted.  The solver and the join pick
rows through ``rows``, which narrows that list with per-argument-position
indexes; the join asks ``fact_only`` whether it may run over a predicate.
Each index is built on the first lookup that needs it, not while loading, so
a base that is only validated or serialized builds none; a fill racing
another on the same position builds the same table twice.

``from_text`` sends every parsed clause through ``assertz``; a fact with a
variable is a ParseError at its line.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import Atom, Clause, GoalTerm, Int, Row, Struct, Term, indicator, is_ground
from .errors import ParseError, SealedError
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
        #: Predicates with at least one rule; every other one is fact-only.
        self._rule_indicators: set[tuple[str, int]] = set()
        #: (name, arity) -> its clauses, each paired with its position.
        self._rows: dict[tuple[str, int], list[Row]] = {}
        #: (name, arity) -> argument position -> (buckets by constant, the
        #: rows with a variable or compound there); see ``rows``.
        self._indexes: dict[
            tuple[str, int], dict[int, tuple[dict[Term, list[Row]], list[Row]]]
        ] = {}
        self.sealed = False

    # -- loading ----------------------------------------------------------

    def assertz(
        self, clause: Clause, *, comment: str | None = None, group_id: int = 0
    ) -> "KnowledgeBase":
        """Append a clause.  Facts must be ground; raises on a sealed base."""
        if self.sealed:
            raise SealedError("knowledge base is sealed")
        key = indicator(clause.head)
        if clause.is_fact:
            if not is_ground(clause.head):
                raise ValueError(
                    f"fact is not ground: {serialize_clause(clause)}"
                )
            self.facts.append(FactRecord(clause, comment, group_id))
        else:
            self.rules.append(clause)
            self._rule_indicators.add(key)
        rows = self._rows.setdefault(key, [])
        rows.append((len(rows), clause))
        self._indexes.pop(key, None)
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
        return [clause for _, clause in self._rows.get((name, arity), ())]

    def rows(self, goal: GoalTerm) -> Sequence[Row]:
        """The rows to try against a resolved goal, in insertion order.

        Each argument of ``goal`` that is an atom or integer selects a bucket
        of its position's index: the rows holding that constant there, plus
        those holding a variable or compound there.  The smallest bucket is
        returned; a goal with no such argument gets every row of its
        predicate.
        """
        key = indicator(goal)
        best = self._rows.get(key, [])
        if isinstance(goal, Struct):
            for position, arg in enumerate(goal.args):
                if best and isinstance(arg, (Atom, Int)):
                    buckets, others = self._position_index(key, position)
                    bucket = buckets.get(arg, others)
                    if len(bucket) < len(best):
                        best = bucket
        return best

    def fact_only(self, goal: GoalTerm) -> bool:
        """Whether no rule defines the goal's predicate."""
        return indicator(goal) not in self._rule_indicators

    def _position_index(
        self, key: tuple[str, int], position: int
    ) -> tuple[dict[Term, list[Row]], list[Row]]:
        positions = self._indexes.get(key)
        if positions is None:
            positions = self._indexes[key] = {}
        index = positions.get(position)
        if index is None:
            buckets: dict[Term, list[Row]] = {}
            others: list[Row] = []
            for row in self._rows[key]:
                arg = row[1].head.args[position]  # type: ignore[union-attr]
                if isinstance(arg, (Atom, Int)):
                    bucket = buckets.get(arg)
                    if bucket is None:
                        bucket = buckets[arg] = list(others)
                    bucket.append(row)
                else:
                    others.append(row)
                    for bucket in buckets.values():
                        bucket.append(row)
            index = positions[position] = (buckets, others)
        return index

    def max_group_id(self) -> int:
        return max((r.group_id for r in self.facts), default=-1)

    # -- text round trip ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "KnowledgeBase":
        """A sealed base holding the text's clauses in order."""
        kb = cls()
        for parsed in parse_program(text):
            try:
                kb.assertz(
                    parsed.clause,
                    comment=parsed.comment,
                    group_id=parsed.group_id if parsed.group_id is not None else 0,
                )
            except ValueError as exc:  # a fact with a variable
                raise ParseError(str(exc), parsed.line, 1) from None
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
