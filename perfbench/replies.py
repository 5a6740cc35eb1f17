"""Deterministic model replies, shared by the scripted replay provider, the
loopback emulator and the output checks.

A reply depends only on the prompt text, so it is the same whichever order
or concurrency the requests arrive in.  The checks recompute what each reply
implies (a score, a verdict) from this module alone.
"""
from __future__ import annotations

import hashlib
import json
import re

from inputs import ALL_CODES

# Spellings the emulated judge uses for some codes.
_SPELLINGS = {"AF": "AC", "FC": "Fallacy of Composition", "WD": "Wrong Direction",
              "FS": "False Cause", "FD": "False Dilemma"}

_SCORE_FORMS = ("{s}", "Score: {s}", "I would give it {s}", "{s}\n")
_PD_LINE = re.compile(r"^pd\((.*)\)\.$")


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def score_of(sentence: str) -> int:
    return _digest(sentence)[0] % 4


def score_reply(sentence: str) -> str:
    h = _digest(sentence)
    return _SCORE_FORMS[h[1] % len(_SCORE_FORMS)].format(s=h[0] % 4)


def verdict_of(sentence: str) -> tuple[bool, list[str]]:
    """(logic_error, ranked codes) the emulated judge returns."""
    h = _digest("judge:" + sentence)
    flagged = "therefore" in sentence
    if h[0] % 10 == 0:  # a tenth of the verdicts are wrong about detection
        flagged = not flagged
    if not flagged:
        return False, []
    count = 1 + h[1] % 3
    codes: list[str] = []
    for byte in h[2:]:
        code = ALL_CODES[byte % len(ALL_CODES)]
        if code not in codes:
            codes.append(code)
        if len(codes) == count:
            break
    return True, codes


def judge_reply(sentence: str) -> str:
    logic_error, codes = verdict_of(sentence)
    h = _digest("form:" + sentence)
    labels = [_SPELLINGS[c] if c in _SPELLINGS and h[0] % 2 else c for c in codes]
    body = json.dumps({
        "sentence": sentence,
        "logic_error": "yes" if logic_error else "no",
        "logic_fallacies": labels,
        "details": f"emulated verdict {h.hex()[:12]}",
    })
    if h[1] % 8 == 0:
        return f"```json\n{body}\n```"
    return body


def transform_sentence(pd_line: str) -> str:
    """The sentence the emulated generator writes for one ``pd(...)`` line."""
    args = _PD_LINE.match(pd_line.strip()).group(1).split(", ")
    return f"Since {' and '.join(a.replace('_', ' ') for a in args[:-1])}, therefore {args[-1].replace('_', ' ')}."


def transform_reply(prompt: str) -> str:
    facts = prompt.split("Prolog Facts:\n", 1)[1]
    return "\n".join(transform_sentence(line) for line in facts.splitlines() if line.strip())


def sentence_in_score_prompt(prompt: str) -> str:
    return prompt.rsplit("\nsentence: ", 1)[1]


def sentence_in_judge_prompt(prompt: str) -> str:
    inner = prompt.split("Judge the following element:\n\n", 1)[1]
    return inner.rsplit("\n\nPlease return the result in JSON format", 1)[0]


def reply(prompt: str, generated: dict[str, str] | None = None) -> str | None:
    """The reply to a prompt, or None for a prompt this model cannot answer.

    ``generated`` maps a display name to the fact-generation reply for it.
    """
    if "\nsentence: " in prompt and "Scoring Guide:" in prompt:
        return score_reply(sentence_in_score_prompt(prompt))
    if "Judge the following element:\n\n" in prompt:
        return judge_reply(sentence_in_judge_prompt(prompt))
    if "Prolog Facts:\n" in prompt:
        return transform_reply(prompt)
    match = re.match(r"generate \d+ new (.+?) prolog knowledge combinations", prompt)
    if match and generated and match.group(1) in generated:
        return generated[match.group(1)]
    return None
