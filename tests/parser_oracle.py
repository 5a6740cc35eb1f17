"""Reference parser for differential tests: the hand-written tokenizer.

This is the character-by-character tokenizer (``tokenize``), token stream
and recursive-descent parser that ``fallacylab.parser`` used before its
one-pass regex scanner, kept so tests can require the library's statements
(read through ``conftest.parse_program``) to be the same clauses, comments,
group ids and lines, or to raise the same ``ParseError`` message at the same
line and column.  Its term parser refuses a compound argument or builtin
operand at its functor, as the library's does.  The library keeps one
parser; nothing outside ``tests/`` imports this file.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from fallacylab.engine import (
    Atom,
    Clause,
    Goal,
    Int,
    Literal,
    NotEqual,
    Struct,
    Term,
    TermLess,
    Var,
)
from fallacylab.errors import ParseError

from conftest import ParsedClause

_COMPOUND = "compound argument: arguments are atoms, integers or variables"
_WORD = re.compile(r"[A-Za-z0-9_]+")
_ATOM_NAME = re.compile(r"[a-z0-9][a-z0-9_]*\Z")
_VAR_NAME = re.compile(r"[A-Z_][A-Za-z0-9_]*\Z")

_PUNCT = (
    (":-", "NECK"),
    ("\\+", "NAF"),
    ("\\=", "NEQ"),
    ("@<", "LESS"),
    ("(", "LP"),
    (")", "RP"),
    (",", "COMMA"),
    (".", "DOT"),
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        col = 0
        length = len(line)
        while col < length:
            ch = line[col]
            if ch in " \t\r":
                col += 1
                continue
            if ch == "%":
                comment = line[col + 1 :].strip()
                tokens.append(Token("COMMENT", comment, line_no, col + 1))
                break
            for text_, kind in _PUNCT:
                if line.startswith(text_, col):
                    tokens.append(Token(kind, text_, line_no, col + 1))
                    col += len(text_)
                    break
            else:
                match = _WORD.match(line, col)
                if not match:
                    raise ParseError(f"unexpected character {ch!r}", line_no, col + 1)
                word = match.group(0)
                tokens.append(Token(_classify(word, line_no, col + 1), word, line_no, col + 1))
                col = match.end()
    return tokens


def _classify(word: str, line: int, col: int) -> str:
    if word.isdigit():
        return "INT"
    if _VAR_NAME.match(word):
        return "VAR"
    if _ATOM_NAME.match(word):
        return "ATOM"
    raise ParseError(f"invalid name {word!r}", line, col)


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = [t for t in tokens if t.kind != "COMMENT"]
        # A comment runs to the end of its line, so a line holds at most one.
        self.comments = {t.line: t.value for t in tokens if t.kind == "COMMENT"}
        self.pos = 0

    def peek(self) -> Token | None:
        return self._tokens[self.pos] if self.pos < len(self._tokens) else None

    def next(self, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            last = self._tokens[-1] if self._tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        if expected and tok.kind != expected:
            raise ParseError(
                f"expected {expected}, found {tok.value!r}", tok.line, tok.column
            )
        self.pos += 1
        return tok


def parse_program(text: str) -> list[ParsedClause]:
    """Parse program text into clauses with comments and block ordinals."""
    tokens = tokenize(text)
    blank = _blank_lines(text)
    stream = _TokenStream(tokens)
    anon = iter(range(1, 1 << 30))

    raw: list[tuple[Clause, str | None, int, int, bool]] = []
    prev_end = 0
    block = -1
    while stream.peek() is not None:
        start_tok = stream.peek()
        clause = _parse_clause(stream, anon)
        end_tok = stream._tokens[stream.pos - 1]
        comment = stream.comments.get(end_tok.line)
        separated = prev_end == 0 or any(
            n in blank for n in range(prev_end + 1, start_tok.line)
        )
        if separated:
            block += 1
        raw.append((clause, comment, block, start_tok.line, clause.is_fact))
        prev_end = end_tok.line

    fact_blocks = sorted({b for _, _, b, _, is_fact in raw if is_fact})
    dense = {b: i for i, b in enumerate(fact_blocks)}
    out = []
    for clause, comment, block_id, line, is_fact in raw:
        group = dense[block_id] if is_fact else None
        out.append(ParsedClause(clause, comment, group, line))
    return out


def _blank_lines(text: str) -> set[int]:
    return {
        i for i, line in enumerate(text.splitlines(), start=1) if not line.strip()
    }


def _parse_clause(stream: _TokenStream, anon) -> Clause:
    head = _parse_term(stream, anon, argument=False)
    if not isinstance(head, (Atom, Struct)):
        tok = stream._tokens[stream.pos - 1]
        raise ParseError("clause head must be an atom or compound", tok.line, tok.column)
    body: list[Literal] = []
    tok = stream.peek()
    if tok is not None and tok.kind == "NECK":
        stream.next("NECK")
        body.append(_parse_literal(stream, anon))
        while stream.peek() is not None and stream.peek().kind == "COMMA":
            stream.next("COMMA")
            body.append(_parse_literal(stream, anon))
    stream.next("DOT")
    return Clause(head, tuple(body))


def _parse_literal(stream: _TokenStream, anon) -> Literal:
    tok = stream.peek()
    if tok is not None and tok.kind == "NAF":
        stream.next("NAF")
        inner = _parse_term(stream, anon, argument=False)
        if not isinstance(inner, (Atom, Struct)):
            raise ParseError(
                "negation takes a single predicate goal", tok.line, tok.column
            )
        return Goal(inner, negated=True)
    lhs = _parse_term(stream, anon, argument=False)
    nxt = stream.peek()
    if nxt is not None and nxt.kind in ("NEQ", "LESS") and isinstance(lhs, Struct):
        raise ParseError(_COMPOUND, tok.line, tok.column)
    if nxt is not None and nxt.kind == "NEQ":
        stream.next("NEQ")
        return NotEqual(lhs, _parse_term(stream, anon))
    if nxt is not None and nxt.kind == "LESS":
        stream.next("LESS")
        return TermLess(lhs, _parse_term(stream, anon))
    if not isinstance(lhs, (Atom, Struct)):
        where = nxt if nxt is not None else stream._tokens[stream.pos - 1]
        raise ParseError("goal must be an atom or compound", where.line, where.column)
    return Goal(lhs)


def _parse_term(stream: _TokenStream, anon, argument: bool = True) -> Term:
    """A term; ``name(...)`` only where ``argument`` is false."""
    tok = stream.next()
    if tok.kind == "INT":
        return Int(int(tok.value))
    if tok.kind == "VAR":
        if tok.value == "_":
            return Var(f"_#{next(anon)}")
        return Var(tok.value)
    if tok.kind == "ATOM":
        nxt = stream.peek()
        if nxt is not None and nxt.kind == "LP":
            if argument:
                raise ParseError(_COMPOUND, tok.line, tok.column)
            stream.next("LP")
            args = [_parse_term(stream, anon)]
            while stream.peek() is not None and stream.peek().kind == "COMMA":
                stream.next("COMMA")
                args.append(_parse_term(stream, anon))
            stream.next("RP")
            return Struct(tok.value, tuple(args))
        return Atom(tok.value)
    raise ParseError(f"expected a term, found {tok.value!r}", tok.line, tok.column)
