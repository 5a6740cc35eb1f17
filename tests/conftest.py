from __future__ import annotations

from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


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
