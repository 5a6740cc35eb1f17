"""Optional live smoke test: one provider, five sentences per task.

Not a gating criterion.  Runs only when FALLACYLAB_LIVE_ENDPOINT (and
optionally FALLACYLAB_LIVE_MODEL / FALLACYLAB_LIVE_KEY_ENV) are set, e.g.:

    FALLACYLAB_LIVE_ENDPOINT=https://host/v1/chat/completions \
    FALLACYLAB_LIVE_MODEL=some-model pytest tests/test_live_smoke.py -s
"""
from __future__ import annotations

import os
from typing import Iterator

import pytest

from fallacylab.gateway import Gateway, HttpProvider, ProviderConfig
from fallacylab.labels import FallacyCode
from fallacylab.pipeline import STYLE_EXAMPLES, generate_bundle

pytestmark = pytest.mark.skipif(
    not os.environ.get("FALLACYLAB_LIVE_ENDPOINT"),
    reason="FALLACYLAB_LIVE_ENDPOINT not set",
)


@pytest.fixture(scope="module")
def live_gateway() -> Iterator[Gateway]:
    config = ProviderConfig(
        endpoint=os.environ["FALLACYLAB_LIVE_ENDPOINT"],
        model_name=os.environ.get("FALLACYLAB_LIVE_MODEL", "unspecified"),
        credentials_env=os.environ.get("FALLACYLAB_LIVE_KEY_ENV", "FALLACYLAB_LIVE_KEY"),
    )
    provider = HttpProvider(config)
    try:
        yield Gateway(provider)
    finally:
        provider.close()


def test_live_generation_smoke(live_gateway):
    bundle = generate_bundle(FallacyCode.AF, 5, live_gateway)
    assert bundle.tuples, "live generation produced no new instances"
    assert len(bundle.sentences) == len(bundle.tuples)


def test_live_scoring_smoke(live_gateway):
    for sentence in STYLE_EXAMPLES[FallacyCode.WD][:1]:
        triple = live_gateway.score_sentence(sentence, FallacyCode.WD)
        assert 0 <= float(triple.mean) <= 3


def test_live_judging_smoke(live_gateway):
    verdict = live_gateway.judge_sentence(
        "Since we always find meteors in craters, therefore craters cause meteors."
    )
    assert isinstance(verdict.logic_error, bool)
