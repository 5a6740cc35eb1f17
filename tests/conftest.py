from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from fallacylab.engine import Clause, Struct
from fallacylab.parser import parse_statements

DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class ParsedClause:
    """One clause plus its trailing comment, fact-block ordinal and first
    line, as ``parse_statements`` yields them."""

    clause: Clause
    comment: str | None
    group_id: int | None
    line: int


def parse_program(text: str) -> list[ParsedClause]:
    """Every clause of the text, a flat fact line built into its ``Clause``."""
    return [
        ParsedClause(
            Clause(Struct(item[0][0], item[1])) if type(item) is tuple else item,
            comment,
            group,
            line,
        )
        for item, comment, group, line in parse_statements(text)
    ]


class FakeProvider:
    """Returns scripted responses in call order; records every request."""

    def __init__(self, responses, model_name: str = "fake"):
        self.responses = list(responses)
        self.model_name = model_name
        self.request_count = 0
        self.calls: list[tuple[str, float]] = []

    def complete(self, prompt: str, *, temperature: float) -> str:
        self.calls.append((prompt, temperature))
        self.request_count += 1
        if not self.responses:
            raise AssertionError("FakeProvider ran out of scripted responses")
        return self.responses.pop(0)


class CountingRows(list):
    """A predicate's row list that counts each row it hands out, by index or
    by iteration, in ``reads[0]``; lists of one count share ``reads``."""

    def __init__(self, rows, reads: list[int]):
        super().__init__(rows)
        self.reads = reads

    def __getitem__(self, position):
        self.reads[0] += 1
        return super().__getitem__(position)

    def __iter__(self):
        for row in super().__iter__():
            self.reads[0] += 1
            yield row


@pytest.fixture
def fake_provider_factory():
    return FakeProvider


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
