"""LLM interactions: fact generation, sentence transformation, 0-3 quality
scoring, and fallacy judging, over pluggable live / record / replay backends.

Scoring and judging always run at temperature 0.  Fact generation and
sentence transformation use the configured generation temperature (default
1.0).  A recorded cassette makes every pipeline run byte-reproducible: the
same cassette and inputs yield identical outputs.

A cassette keys each response by :func:`fingerprint`, the sha256 of the
request's canonical JSON.  Each template is compiled once into its constant
*lead* (for the score and judge templates, the instruction and definitions
text, its ``head``, then the query up to its first field), each field with
the literal text after it, and the *suffix* after its last field.  A prompt
is rendered by one join of those pieces and the values.  A key starts from
the sha256 state of the request's text up to the end of its template's
lead, taken once per process and model, and appends the escaped middle of
the prompt, then the suffix's escaped bytes and the temperature, built once.
A one-entry memo hands a score's three identical requests one key.
"""
from __future__ import annotations

import datetime
import functools
import json
import logging
import math
import re
import string
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence, TypeVar

from .errors import (
    CountMismatchError,
    DuplicateLabelError,
    EmptyYieldError,
    JsonlFormatError,
    JudgeJsonError,
    ModelOutputError,
    ProviderError,
    ReplayMissError,
    ScoreParseError,
    TemplateError,
    UnknownLabelError,
)
from .jsonl import encode_canonical, loads, read_jsonl, write_jsonl
from .kb import KnowledgeBase
from .labels import FallacyCode, check_predicted_labels, definitions_block, parse_code
from .parser import ParseError, parse_statements
from .schemas import ValidTuple, schema_for, validate_kb_against_schema

log = logging.getLogger(__name__)
_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt: the instruction, a blank line, then the query.

    An instruction whose only placeholder is ``{fallacy_definitions}``, as
    in the score and judge templates, starts every prompt with the same
    text.  It is formatted with the definitions block once per process, on
    first use, into :attr:`head`.  The template is compiled then, too, into
    :attr:`parts`, and rendering joins those with the values: no text is
    parsed per prompt."""

    id: str
    instruction: str
    query: str

    @functools.cached_property
    def head(self) -> str:
        """The constant start of every prompt, blank line included; "" when
        the instruction takes other values."""
        names = {name for _, name, _, _ in string.Formatter().parse(self.instruction)}
        if not names <= {None, "fallacy_definitions"}:
            return ""
        return self.instruction.format(fallacy_definitions=definitions_block()) + "\n\n"

    @functools.cached_property
    def parts(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        """``(lead, ((field, literal text after it), ...))``: the lead is the
        head and the text before the first field, ``{{`` and ``}}`` read as
        braces.  The last field's literal text is the template's suffix.  A
        field is a plain name, with no conversion or format spec."""
        head = self.head
        text = self.query if head else f"{self.instruction}\n\n{self.query}"
        pieces = [head]  # literal, field, literal, ..., field, literal
        for literal, name, spec, conversion in string.Formatter().parse(text):
            pieces[-1] += literal
            if name is None:
                continue
            if not name.isidentifier() or spec or conversion:
                raise TemplateError(f"template {self.id!r}: {{{name}}} is not a plain field")
            pieces += [name, ""]
        return pieces[0], tuple(zip(pieces[1::2], pieces[2::2]))

    def render(self, **values: object) -> str:
        lead, fields = self.parts
        parts = [lead]
        try:
            for name, literal in fields:
                parts += (format(values[name]), literal)
        except KeyError as exc:
            raise TemplateError(f"template {self.id!r} missing placeholder {exc}") from None
        return "".join(parts)


GEN_FACTS_TEMPLATE = PromptTemplate(
    id="gen_facts",
    instruction=(
        "generate {n} new {fallacy_type} prolog knowledge combinations, "
        "below are examples. Keep the same predicates and arities, keep every "
        "fact ground, group the facts of one combination together, separate "
        "combinations with a blank line, and annotate each fact with an "
        "inline % comment explaining it."
    ),
    query="{prolog_facts}\n\n{prolog_rule}",
)

TRANSFORM_TEMPLATE = PromptTemplate(
    id="transform",
    instruction=(
        "Generate {n} new {fallacy_type} sentences. Study the style of the "
        "sentences in the provided list and transform the given Prolog facts "
        "into natural language sentences that follow a similar style and "
        "structure. Return exactly one sentence per fact line, in order, and "
        "nothing else."
    ),
    query="List:\n[{list_of_sentence}]\n\nProlog Facts:\n{prolog_facts}",
)

SCORE_TEMPLATE = PromptTemplate(
    id="score",
    instruction=(
        "You are a professional logical fallacy evaluator. Your task is to "
        "review sentences that illustrate specific logical fallacies and "
        "assign each a score based on how well the sentence demonstrates the "
        "intended fallacy (as indicated by its type field). Evaluate them "
        "holistically based on your understanding of how these fallacies "
        "manifest in real-world human communication and reasoning. Do not "
        "use code-based methods.\n"
        "Scoring Guide:\n"
        "- Score 0: The sentence makes no sense or does not exhibit the "
        "intended logical error.\n"
        "- Score 1: The sentence shows only minor applicability of the "
        "fallacy in its type field.\n"
        "- Score 2: The sentence largely demonstrates the fallacy.\n"
        "- Score 3: The sentence is a perfect example of the logical fallacy "
        "as described in its type.\n"
        "Definitions:\n{fallacy_definitions}"
    ),
    query=(
        "Score the following sentence. Reply with a single integer from 0 "
        "to 3.\n"
        "type: {fallacy_type}\n"
        "sentence: {sentence}"
    ),
)

JUDGE_TEMPLATE = PromptTemplate(
    id="judge",
    instruction=(
        "You're an expert in logic. Here's a categorisation of the 14 logic "
        "errors. Given sentences with logical errors, reflect on them and "
        "deal with them as required.\n{fallacy_definitions}"
    ),
    query=(
        "Judge the following element:\n\n{sentence}\n\n"
        "Please return the result in JSON format as follows:\n\n"
        "{{\n"
        '  "sentence": "The input sentence as provided.",\n'
        '  "logic_error": "yes or no - indicate whether the sentence '
        'contains a logical error.",\n'
        '  "logic_fallacies": "List all applicable fallacy categories, '
        'ranked by relevance.",\n'
        '  "details": "Provide a clear and explicit explanation supporting '
        'your judgment."\n'
        "}}"
    ),
)


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


@dataclass
class ProviderConfig:
    endpoint: str = ""
    model_name: str = "unspecified"
    max_retries: int = 3
    credentials_env: str | None = None


def fingerprint(model: str, temperature: float, prompt: str) -> str:
    """The cassette key of a request: the sha256 of its canonical JSON text,
    ``{"model": M, "prompt": P, "temperature": T}``.

    A score sends one prompt three times in a row, so the last key is
    remembered, for the same prompt object with an equal model, temperature
    and temperature repr: 0 and 0.0, or 0.0 and -0.0, are equal, but their
    JSON texts differ, and so do their keys.  The memo is one tuple, swapped
    whole, so threads may share it."""
    global _last
    spelling = repr(temperature)
    last = _last
    if last[0] is prompt and last[1] == model and last[2] == temperature and last[3] == spelling:
        return last[4]
    key = _fingerprint(model, temperature, spelling, prompt)
    _last = (prompt, model, temperature, spelling, key)
    return key


#: ``(prompt, model, temperature, its repr, key)`` of the last fingerprint.
_last: tuple = (None,) * 5


def _fingerprint(model: str, temperature: float, spelling: str, prompt: str) -> str:
    """The key, hashed.  The canonical text escapes each code point of the
    prompt by itself, so it splits exactly where the prompt does: around the
    middle between the first template lead and suffix that the prompt starts
    and ends with, or else between an empty lead and suffix."""
    size = len(prompt)
    for lead, suffix, least, state, closing in _splits(model, temperature, spelling):
        if size >= least and prompt.startswith(lead) and prompt.endswith(suffix):
            break
    state = state.copy()
    state.update(_escape(prompt[len(lead):size - len(suffix)])[1:-1].encode())
    state.update(closing)
    return state.hexdigest()


@functools.cache
def _splits(model: str, temperature: float, spelling: str) -> tuple:
    """``(lead, suffix, their summed length, the head state of the lead, the
    closing bytes of the suffix)`` for each template, then for the empty
    pair, which every prompt matches.  Keyed, like the memo, on the
    temperature's repr as well as its value."""
    pairs = []
    for template in (SCORE_TEMPLATE, JUDGE_TEMPLATE, GEN_FACTS_TEMPLATE, TRANSFORM_TEMPLATE):
        lead, fields = template.parts
        pairs.append((lead, fields[-1][1] if fields else ""))
    tail = ', "temperature": ' + encode_canonical(temperature) + "}"
    return tuple(
        (lead, suffix, len(lead) + len(suffix), _head_state(model, lead),
         (_escape(suffix)[1:] + tail).encode())
        for lead, suffix in [*pairs, ("", "")]
    )


#: JSON string escaping with ``ensure_ascii``, in quotes.
_escape = json.encoder.encode_basestring_ascii


@functools.cache
def _head_state(model: str, lead: str):
    """The sha256 state of a request's canonical JSON text up to the end of
    ``lead`` in its prompt.  Callers copy it and never update it, so threads
    may share it."""
    import hashlib  # here, run once per model and lead: it loads OpenSSL

    text = '{"model": ' + encode_canonical(model) + ', "prompt": ' + _escape(lead)[:-1]
    return hashlib.sha256(text.encode())


class Provider(Protocol):
    model_name: str

    def complete(self, prompt: str, *, temperature: float) -> str: ...


#: The longest ``Retry-After`` wait honored, in seconds.  A 429 or 503 that
#: asks for longer ends the call at once.
MAX_RETRY_AFTER_S = 300

#: Seconds a connection waits to open, or for the next bytes of a reply.
_TIMEOUT_S = 120


class HttpProvider:
    """Chat-completion style HTTP backend.  Transport errors, 429 and 5xx are
    retried with exponential backoff, or after a 429's or 503's
    ``Retry-After`` (delta-seconds or an HTTP date) when that is longer; a
    ``Retry-After`` above ``MAX_RETRY_AFTER_S`` and any other failure raise
    at once.

    The endpoint, the headers and the proxy are resolved when the provider
    is built: an endpoint that is not an http(s) URL is a ProviderError
    there.  ``https_proxy``, ``http_proxy``, ``all_proxy`` and ``no_proxy``
    are read from the environment then, through ``urllib.request``; an
    https endpoint reaches its proxy through a ``CONNECT`` tunnel, an http
    one sends its absolute URI, and credentials in the proxy's URL are sent
    as ``Proxy-Authorization``.  No other file or variable is read:
    ``~/.netrc`` is not.

    ``complete`` may be called from several threads at once: each thread
    posts through its own ``transport.HttpSession``, one keep-alive
    connection, unless a session is injected.  :meth:`close` closes every
    connection the provider opened.  The transport, and ``http.client``
    with it, is imported when the first provider is built, so a command
    that never reaches the network does not load it."""

    def __init__(self, config: ProviderConfig, *, session=None, sleep=time.sleep):
        if not config.endpoint:
            raise ValueError("live provider needs an endpoint")
        self.config = config
        self.model_name = config.model_name
        self.request_count = 0
        from .transport import resolve

        self._route = resolve(config.endpoint, config.credentials_env)
        self._lock = threading.Lock()
        self._session = session
        self._sessions: list = []  # every HttpSession this provider opened
        self._thread = threading.local()
        self._sleep = sleep

    def _session_here(self):
        if self._session is not None:
            return self._session
        session = getattr(self._thread, "session", None)
        if session is None:
            from . import transport

            session = self._thread.session = transport.HttpSession(self._route)
            with self._lock:
                self._sessions.append(session)
        return session

    def close(self) -> None:
        """Close every connection this provider opened; an injected session
        is its owner's to close."""
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.close()

    def complete(self, prompt: str, *, temperature: float) -> str:
        from http.client import HTTPException

        payload = {
            "model": self.model_name,
            "temperature": temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        route = self._route
        session = self._session_here()
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            with self._lock:
                self.request_count += 1
            delay = 2**attempt
            try:
                response = session.post(
                    route.target, json=payload, headers=route.headers, timeout=_TIMEOUT_S
                )
            # Refused, reset, timed out, a name that did not resolve, or a
            # reply cut short.
            except (OSError, HTTPException) as exc:
                last_error = exc
            else:
                status = response.status_code
                if status != 429 and status < 500:
                    return _chat_content(response)
                last_error = ProviderError(f"status {status}")
                if status in (429, 503):
                    wait = _retry_after(response)
                    if wait > MAX_RETRY_AFTER_S:
                        raise ProviderError(
                            f"status {status}: Retry-After asks for {wait} s, "
                            f"longer than the {MAX_RETRY_AFTER_S} s this client waits"
                        )
                    delay = max(delay, wait)
            if attempt < self.config.max_retries:
                self._sleep(delay)
        raise ProviderError(f"provider failed after retries: {last_error}")


def _retry_after(response) -> int:
    """A ``Retry-After`` header's wait in whole seconds (RFC 9110 §10.2.3):
    its delta-seconds, or the time left until its HTTP date, rounded up; 0
    when the header is absent, the date has passed, or the value is neither,
    such as more digits than ``int`` reads."""
    text = str(getattr(response, "headers", {}).get("Retry-After", "")).strip()
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:
            return 0
    import email.utils  # here: it loads the email package and socket

    try:
        when = email.utils.parsedate_to_datetime(text)
    except (TypeError, ValueError, OverflowError):
        return 0
    if when.tzinfo is None:  # "-0000": the zone is unknown; HTTP dates are UTC
        when = when.replace(tzinfo=datetime.timezone.utc)
    left = (when - datetime.datetime.now(datetime.timezone.utc)).total_seconds()
    return max(0, math.ceil(left))


def _chat_content(response) -> str:
    """The reply text of a response that retrying cannot change."""
    if response.status_code >= 400:
        raise ProviderError(f"status {response.status_code}: request rejected")
    try:
        content = response.json()["choices"][0]["message"]["content"]
        if not isinstance(content, str):
            raise TypeError(f"content is {type(content).__name__}, not a string")
        return content
    except (ValueError, LookupError, TypeError) as exc:
        raise ProviderError(
            f"status {response.status_code}: malformed response body ({exc!r})"
        ) from None


class ReplayProvider:
    """Serves recorded responses; an unmatched request is an error.

    The cassette is opened when the provider is built and read as requests
    arrive, through :func:`load_cassette`'s stream: a request takes the
    first entry of its fingerprint not yet served.  Entries read past on the
    way wait in one first-in first-out list per fingerprint; a cassette read
    in the order it was recorded leaves every list empty, so only the entry
    in flight is held.  A request no entry matches reads the file to its
    end.  Requests are served one at a time, from one thread.

    :meth:`finish` reads and checks the rest of the file, so a bad line or
    byte anywhere fails the command as if the file had been read first;
    :meth:`close` closes it."""

    def __init__(self, cassette_path: str | Path, *, model_name: str = "unspecified"):
        self.model_name = model_name
        self.request_count = 0
        self._entries = load_cassette(cassette_path)
        self._waiting: dict[str, list[str]] = {}

    def complete(self, prompt: str, *, temperature: float) -> str:
        key = fingerprint(self.model_name, temperature, prompt)
        self.request_count += 1
        waiting = self._waiting
        if waiting:
            queue = waiting.get(key)
            if queue:
                response = queue.pop(0)
                if not queue:
                    del waiting[key]
                return response
        for entry_key, response in self._entries:
            if entry_key == key:
                return response
            waiting.setdefault(entry_key, []).append(response)
        raise ReplayMissError(
            f"no recorded response for fingerprint {key[:12]}... "
            f"(prompt starts: {prompt[:60]!r})"
        )

    def finish(self) -> None:
        """Read the rest of the cassette, raising its first error."""
        for _ in self._entries:
            pass

    def close(self) -> None:
        """Close the cassette, read to its end or not."""
        self._entries.close()


class RecordingProvider:
    """Wraps a live provider and captures every exchange into a cassette.

    Exchanges made inside :meth:`item` go to that item's own list, which
    :meth:`keep` appends to the cassette.  Keeping the lists in input order
    records the cassette a serial run records, even when items run at once
    on several threads."""

    def __init__(self, inner: Provider, cassette_path: str | Path):
        self.inner = inner
        self.model_name = inner.model_name
        self.path = Path(cassette_path)
        self._entries: list[dict[str, str]] = []
        self._thread = threading.local()

    def complete(self, prompt: str, *, temperature: float) -> str:
        response = self.inner.complete(prompt, temperature=temperature)
        key = fingerprint(self.model_name, temperature, prompt)
        entries = getattr(self._thread, "entries", self._entries)
        entries.append({"fingerprint": key, "response": response})
        return response

    def item(self, call, value):
        """``(call(value), the exchanges it made)``, recorded on this thread
        apart from the cassette."""
        self._thread.entries = entries = []
        try:
            return call(value), entries
        finally:
            del self._thread.entries

    def keep(self, entries: list[dict[str, str]]) -> None:
        self._entries.extend(entries)

    def save(self) -> None:
        write_cassette(self.path, self._entries)


def load_cassette(path: str | Path) -> Iterator[tuple[str, str]]:
    """The cassette's ``(fingerprint, response)`` entries in recorded order,
    a line at a time.  The file is opened by this call and closed when the
    entries run out, a line fails or the stream is closed; no record
    outlives its line."""
    return read_jsonl(path, ("fingerprint", "response"), _cassette_entry)


def _cassette_entry(record: dict) -> tuple[str, str]:
    key, response = record["fingerprint"], record["response"]
    if type(key) is not str or type(response) is not str:
        raise JsonlFormatError("'fingerprint' and 'response' must be strings")
    return key, response


def write_cassette(path: str | Path, entries: Iterable[dict[str, str]]) -> None:
    write_jsonl(path, entries)


# ---------------------------------------------------------------------------
# Verdicts and score triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JudgeVerdict:
    """What a judge's reply decides: the flag and the ranked labels.  Its
    labels are checked here, so a prediction made from a verdict need not
    check them again."""

    logic_error: bool
    logic_fallacies: tuple[FallacyCode, ...]  # order encodes rank

    def __post_init__(self):
        check_predicted_labels(self.logic_fallacies, "logic_fallacies")


@dataclass(frozen=True, slots=True)
class ScoreTriple:
    sentence: str
    code: FallacyCode
    scores: tuple[int, int, int]

    def __post_init__(self):
        # Exactly int: 3.0 and True equal a score but cannot index one.
        if len(self.scores) != 3 or not all(type(s) is int and 0 <= s <= 3 for s in self.scores):
            raise ValueError("a score triple is exactly three integers in 0..3")

    @property
    def mean(self) -> Fraction:
        return Fraction(sum(self.scores), 3)


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------


class FactGroup(NamedTuple):
    """A generated fact group that parsed and validated cleanly: its text
    and its ordinal among the reply's clean groups."""

    text: str
    group_id: int


_SCORE_RE = re.compile(r"(?<![\d.])([0-3])(?![\d.])")
_FENCE_RE = re.compile(r"^```[a-zA-Z0-9_-]*\s*$")
#: A list marker (``-``, ``*``, ``•``, ``1.`` or ``1)``) opening a reply line.
_LIST_MARKER_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")


class Gateway:
    """High-level LLM operations over one provider."""

    def __init__(self, provider: Provider, *, generation_temperature: float = 1.0):
        self.provider = provider
        self.generation_temperature = generation_temperature

    def _ask(
        self, operation: str, prompt: str, temperature: float,
        parse: Callable[[str], _T], corrective: str | None = None,
    ) -> _T:
        """``parse(reply)`` for the model's reply to ``prompt``.  A reply that
        ``parse`` rejects with a ModelOutputError is logged and the model is
        asked once more, with ``corrective`` if given, else the same prompt;
        the second reply's error propagates."""
        complete = self.provider.complete
        try:
            return parse(complete(prompt, temperature=temperature))
        except ModelOutputError as exc:
            log.warning("%s response unusable (%s), retrying once", operation, exc)
        return parse(complete(corrective or prompt, temperature=temperature))

    # -- fact generation ----------------------------------------------------

    def generate_facts(self, code: FallacyCode, seed: KnowledgeBase, n: int) -> list[str]:
        """Ask the model for ``n`` new fact groups; the text of each group
        that parses and validates cleanly against the schema, as the reply
        wrote it."""
        if n <= 0:
            raise EmptyYieldError("requested zero fact combinations")
        seed_text = seed.fact_text()
        if not seed_text:
            raise ValueError("seed knowledge base is empty")
        schema = schema_for(code)
        prompt = GEN_FACTS_TEMPLATE.render(
            n=n,
            fallacy_type=code.display_name,
            prolog_facts=seed_text,
            prolog_rule=schema.source(),
        )
        response = self.provider.complete(
            prompt, temperature=self.generation_temperature
        )
        groups, rejected = self._harvest_fact_groups(code, response)
        if rejected:
            log.warning(
                "%s: rejected %d of %d generated group(s)",
                code.value,
                rejected,
                rejected + len(groups),
            )
        if not groups:
            raise EmptyYieldError(f"{code.value}: no generated group parsed cleanly")
        return [group.text for group in groups]

    def _harvest_fact_groups(self, code: FallacyCode, response: str) -> tuple[list[FactGroup], int]:
        """The reply's groups that parse and validate cleanly, and the number
        of groups dropped.  A group that does not parse is logged at its
        error's line in the reply as sent, fence lines counted."""
        kept: list[FactGroup] = []
        rejected = 0
        for block, lines in _fact_blocks(response):
            try:
                statements = [item for item, _, _, _ in parse_statements(block)]
            except ParseError as exc:
                rejected += 1
                where = ParseError(exc.message, lines[exc.line - 1], exc.column)
                log.warning("%s: dropped unparseable group: %s", code.value, where)
                continue
            if not statements or not all(type(s) is tuple or s.is_fact for s in statements):
                rejected += 1
                log.warning("%s: dropped group containing non-facts", code.value)
                continue
            report = validate_kb_against_schema(code, statements)
            if not report.clean:
                rejected += 1
                log.warning("%s: dropped invalid group: %s", code.value, report.render())
                continue
            kept.append(FactGroup(block, len(kept)))
        return kept, rejected

    # -- sentence transformation ---------------------------------------------

    def transform_to_sentences(
        self, tuples: Sequence[ValidTuple], style_examples: Sequence[str]
    ) -> list[tuple[str, FallacyCode]]:
        """One sentence per derived tuple, in order."""
        if not tuples:
            raise ValueError("no tuples to transform")
        codes = {t.code for t in tuples}
        if len(codes) != 1:
            raise ValueError("all tuples in one transformation batch share a code")
        code = tuples[0].code
        n = len(tuples)
        prompt = TRANSFORM_TEMPLATE.render(
            n=n,
            fallacy_type=code.display_name,
            list_of_sentence=", ".join(f'"{s}"' for s in style_examples),
            prolog_facts="\n".join(f"{t.render()}." for t in tuples),
        )
        corrective = (
            f"{prompt}\n\nYou must return exactly {n} sentences, one per line, with no extra text."
        )
        parse = functools.partial(_sentences, n)
        sentences = self._ask("transform", prompt, self.generation_temperature, parse, corrective)
        return [(sentence, code) for sentence in sentences]

    # -- quality scoring ------------------------------------------------------

    def score_sentence(self, sentence: str, code: FallacyCode) -> ScoreTriple:
        """Three independent temperature-0 scores with an exact mean."""
        prompt = SCORE_TEMPLATE.render(fallacy_type=code.display_name, sentence=sentence)
        scores = tuple(self._ask("score", prompt, 0.0, _score) for _ in range(3))
        return ScoreTriple(sentence, code, scores)

    # -- judging ---------------------------------------------------------------

    def judge_sentence(self, sentence: str) -> JudgeVerdict:
        """Detection plus rank-ordered categorization with all 14 definitions."""
        prompt = JUDGE_TEMPLATE.render(sentence=sentence)
        try:
            return self._ask("judge", prompt, 0.0, self._parse_verdict)
        except JudgeJsonError as exc:
            raise JudgeJsonError(f"judge response unusable after retry: {exc}") from None

    @staticmethod
    def _parse_verdict(response: str) -> JudgeVerdict:
        raw = _extract_json(response)
        try:
            data = loads(raw)
        except (ValueError, RecursionError) as exc:
            raise JudgeJsonError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise JudgeJsonError("expected a JSON object")
        flag = data.get("logic_error")
        if isinstance(flag, bool):
            logic_error = flag
        elif isinstance(flag, str) and (word := flag.strip().lower()) in ("yes", "no"):
            logic_error = word == "yes"
        else:
            raise JudgeJsonError(f"logic_error must be yes/no, got {flag!r}")
        labels_raw = data.get("logic_fallacies", [])
        if not isinstance(labels_raw, list):
            raise JudgeJsonError("logic_fallacies must be a list")
        try:
            return JudgeVerdict(logic_error, tuple(parse_code(item) for item in labels_raw))
        except (UnknownLabelError, DuplicateLabelError, JsonlFormatError) as exc:
            raise JudgeJsonError(str(exc)) from None


# ---------------------------------------------------------------------------
# Response cleanup helpers
# ---------------------------------------------------------------------------


def _sentences(count: int, reply: str) -> list[str]:
    """The reply's ``count`` sentences, one a line, list markers dropped."""
    sentences = []
    for line in _strip_fences(reply).splitlines():
        cleaned = _LIST_MARKER_RE.sub("", line).strip()
        if cleaned:
            sentences.append(cleaned)
    if len(sentences) != count:
        raise CountMismatchError(f"expected {count} sentences, got {len(sentences)}")
    return sentences


def _score(reply: str) -> int:
    """The first 0-3 integer standing alone in the reply."""
    match = _SCORE_RE.search(reply)
    if not match:
        raise ScoreParseError(f"no 0-3 integer in response: {reply[:80]!r}")
    return int(match.group(1))


def _strip_fences(text: str) -> str:
    lines = [line for line in text.splitlines() if not _FENCE_RE.match(line)]
    return "\n".join(lines)


def _fact_blocks(text: str) -> list[tuple[str, list[int]]]:
    """The reply's blank-line-separated blocks, fence lines left out, each
    with the reply's line number of each of its lines."""
    blocks = []
    current: list[str] = []
    numbers: list[int] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if _FENCE_RE.match(line):
            continue
        if line.strip():
            current.append(line)
            numbers.append(number)
        elif current:
            blocks.append(("\n".join(current), numbers))
            current, numbers = [], []
    if current:
        blocks.append(("\n".join(current), numbers))
    return blocks


def _extract_json(text: str) -> str:
    stripped = text.strip()
    if stripped.startswith("```"):
        inner = _strip_fences(stripped).strip()
        return inner
    return stripped

