"""Parser and canonical serializer for the fact/rule file format.

Grammar (one clause per ``.``-terminated statement):

    clause   := term ( ":-" literal ("," literal)* )? "."
    literal  := "\\+" callable | term "\\=" term | term "@<" term | callable
    term     := atom | integer | variable | atom "(" term ("," term)* ")"
    atom     := snake_case identifier; a leading digit is allowed as long as
                the name is not all digits (e.g. ``2_mins``)
    variable := identifier starting with an uppercase letter or ``_``;
                a bare ``_`` is anonymous (fresh at every occurrence)
    comment  := "%" to end of line; a trailing comment attaches to its clause

Compound terms nest at most ``MAX_TERM_DEPTH`` levels, the clause head or
goal counting as the first; deeper text is a ParseError.  Every later layer
(matching, serialization, the standard order) recurses on
terms, and this bound keeps them all well inside Python's recursion limit.

Lines are those of ``str.splitlines``, and each line is scanned in one
pass of a compiled master pattern (``_TOKEN``) with one named alternative
per token kind, in the manner of the ``re`` module's "Writing a Tokenizer".
Tokens are plain ``(kind, value, line, column)`` tuples, columns 1-based;
the same pass keeps each line's trailing comment.  The recursive-descent
parser reads the token list by index.

Most lines of a fact file hold one flat fact, ``name(c1, ..., cn).``
with an optional comment, every ``ci`` an atom or an integer.  Where a
clause may start (no token yet, or the last one ends a clause), the scanner
first tries one whole-line pattern (``_FLAT_FACT``) for such a line and, on
a match, emits a single ``FACT`` token holding the fact's ``(name, arity)``,
arguments and comment, which the parser takes as a whole clause.  Any
other line, an all-digit functor or an integer too long for ``int``
included, goes through the master pattern, which rules and error positions
still need.  A line that looks like a fact but continues a rule is never at
a clause start, so it is scanned token by token as before.  The flat fact
lines of one call share their constants and predicate keys: one ``Atom`` or
``Int`` per spelling, one ``(name, arity)`` per predicate.

``parse_statements`` yields each clause as it is parsed, a flat fact as its
key and argument tuple, so no term is built for it.  It feeds the
knowledge-base loader, ``fallacylab validate`` and the gateway's harvest of
generated fact groups; ``parse_program`` builds the ``Clause`` of every
statement.

Blank lines separate fact blocks; block membership is reported so a
knowledge-base loader can group facts per generated instance.  The canonical
serialization (one clause per line, single space after commas) round-trips
through the parser bit-exactly.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator

from .engine import (
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
from .errors import ParseError

#: Deepest compound nesting the parser accepts.
MAX_TERM_DEPTH = 100

#: One alternative per token kind.  Only a word's alternatives overlap: an
#: all-digit word is INT, then ATOM and VAR take whole words that fit their
#: name rule, and NAME catches any other word; CHAR catches any character
#: no token starts with.
_TOKEN = re.compile(
    r"(?P<SPACE>[ \t]+)"
    r"|(?P<COMMENT>%.*)"
    r"|(?P<NECK>:-)|(?P<NAF>\\\+)|(?P<NEQ>\\=)|(?P<LESS>@<)"
    r"|(?P<LP>\()|(?P<RP>\))|(?P<COMMA>,)|(?P<DOT>\.)"
    r"|(?P<INT>[0-9]+(?![A-Za-z0-9_]))"
    r"|(?P<ATOM>[a-z0-9][a-z0-9_]*(?![A-Za-z0-9_]))"
    r"|(?P<VAR>[A-Z_][A-Za-z0-9_]*)"
    r"|(?P<NAME>[A-Za-z0-9_]+)"
    r"|(?P<CHAR>.)"
)
_CLAUSE_TOKENS = frozenset(
    ("NECK", "NAF", "NEQ", "LESS", "LP", "RP", "COMMA", "DOT", "INT", "ATOM", "VAR")
)
#: A whole line holding one flat fact: the functor, the comma-separated
#: atoms and integers between its parentheses, and the comment text.
_CONST = r"[a-z0-9][a-z0-9_]*"
_FLAT_FACT = re.compile(
    rf"[ \t]*({_CONST})[ \t]*\(((?:[ \t]*{_CONST}[ \t]*,)*[ \t]*{_CONST})[ \t]*\)"
    r"[ \t]*\.[ \t]*(?:%(.*))?"
)
#: Token kinds after which a clause starts.
_CLAUSE_ENDS = ("DOT", "FACT")


@dataclass(frozen=True)
class ParsedClause:
    """One clause plus its trailing comment and fact-block ordinal.

    ``group_id`` is the dense index of the blank-line-separated block the
    clause sits in, counting only blocks that contain at least one fact;
    rules carry None.
    """

    clause: Clause
    comment: str | None
    group_id: int | None
    line: int


def _scan(text: str) -> tuple[list[tuple], dict[int, str]]:
    """``(kind, value, line, column)`` tokens and the comment text of each
    line that holds no flat fact.

    A flat fact line is one ``("FACT", key, line, args, comment)`` token:
    its ``(name, arity)``, arguments and comment text.  The whole text is
    scanned before any of it is parsed, so a bad character or name anywhere
    is reported ahead of a grammar error.
    """
    tokens: list[tuple] = []
    comments: dict[int, str] = {}
    #: One term per spelling: an atom keys itself, as it equals its name.
    consts: dict[str, Term] = {}
    keys: dict[tuple[str, int], tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not tokens or tokens[-1][0] in _CLAUSE_ENDS:
            fact = _FLAT_FACT.fullmatch(line)
            if fact is not None:
                args = _flat_args(fact[1], fact[2], consts)
                if args is not None:
                    key = (fact[1], len(args))
                    key = keys.setdefault(key, key)
                    comment = fact[3]
                    tokens.append((
                        "FACT", key, line_no, args, None if comment is None else comment.strip()
                    ))
                    continue
        for match in _TOKEN.finditer(line):
            kind = match.lastgroup
            if kind in _CLAUSE_TOKENS:
                tokens.append((kind, match.group(), line_no, match.start() + 1))
            elif kind == "COMMENT":
                # A comment runs to the end of its line, so a line holds at most one.
                comments[line_no] = match.group()[1:].strip()
            elif kind == "NAME":
                raise ParseError(f"invalid name {match.group()!r}", line_no, match.start() + 1)
            elif kind == "CHAR":
                raise ParseError(
                    f"unexpected character {match.group()!r}", line_no, match.start() + 1
                )
    return tokens, comments


def _flat_args(name: str, args: str, consts: dict[str, Term]) -> tuple[Term, ...] | None:
    """The arguments of a flat fact line, taken from ``consts`` (one ``Atom``
    or ``Int`` per spelling), or None when the general scanner must read the
    line: an all-digit functor is an integer, not a name, and an integer too
    long for ``int`` is an error reported at its position."""
    if name.isdigit():
        return None
    terms = []
    for spelling in args.split(","):
        spelling = spelling.strip()
        term = consts.get(spelling)
        if term is None:
            if spelling.isdigit():
                try:
                    term = consts[spelling] = Int(int(spelling))
                except ValueError:  # longer than sys.get_int_max_str_digits()
                    return None
            else:
                term = Atom(spelling)
                consts[term] = term
        terms.append(term)
    return tuple(terms)


#: A flat fact as ``parse_statements`` yields it: its ``(name, arity)`` and
#: its arguments, all atoms and integers.
FlatFact = tuple[tuple[str, int], tuple[Term, ...]]


def parse_program(text: str) -> list[ParsedClause]:
    """Parse program text into clauses with comments and block ordinals."""
    return [
        ParsedClause(
            Clause(Struct(item[0][0], item[1])) if type(item) is tuple else item,
            comment,
            group,
            line,
        )
        for item, comment, group, line in parse_statements(text)
    ]


def parse_statements(
    text: str,
) -> Iterator[tuple[Clause | FlatFact, str | None, int | None, int]]:
    """``(clause, comment, group_id, line)`` per clause, in text order, as in
    ``ParsedClause``, except that a flat fact line comes as a ``FlatFact``
    instead of a ``Clause``."""
    tokens, comments = _scan(text)
    if not tokens:
        return
    # An END token at the last token's position makes running out of input
    # one more token kind, reported where the last real token stands.  It
    # ends a clause only after a real token, so a FACT token, which holds no
    # column, never gives it one that is reported.
    tokens.append(("END", "", *tokens[-1][2:4]))
    anon = itertools.count(1)

    pos = 0
    prev_end = 0
    block = fact_block = -1
    groups = 0
    while True:
        token = tokens[pos]
        kind, start_line = token[0], token[2]
        if kind == "FACT":
            clause, comment, is_fact = (token[1], token[3]), token[4], True
            pos, end_line = pos + 1, start_line
        elif kind == "END":
            break
        else:
            clause, pos = _parse_clause(tokens, pos, anon)
            end_line, is_fact = tokens[pos - 1][2], clause.is_fact
            comment = comments.get(end_line)
        # Lines strictly between two clauses hold no token, so each is blank
        # unless it holds a comment.
        if prev_end == 0 or start_line > prev_end + 1 and any(
            n not in comments for n in range(prev_end + 1, start_line)
        ):
            block += 1
        group = None
        if is_fact:
            if fact_block != block:
                fact_block = block
                groups += 1
            group = groups - 1
        yield clause, comment, group, start_line
        prev_end = end_line


def _expect(tokens, pos: int, kind: str) -> int:
    if tokens[pos][0] != kind:
        raise _unexpected(tokens[pos], kind)
    return pos + 1


def _unexpected(token, expected: str) -> ParseError:
    kind, value, line, column = token
    if kind == "END":
        return ParseError("unexpected end of input", line, column)
    return ParseError(f"expected {expected}, found {value!r}", line, column)


def _parse_clause(tokens, pos: int, anon) -> tuple[Clause, int]:
    head, pos = _parse_term(tokens, pos, anon)
    if not isinstance(head, (Atom, Struct)):
        _, _, line, column = tokens[pos - 1]
        raise ParseError("clause head must be an atom or compound", line, column)
    body: list[Literal] = []
    if tokens[pos][0] == "NECK":
        literal, pos = _parse_literal(tokens, pos + 1, anon)
        body.append(literal)
        while tokens[pos][0] == "COMMA":
            literal, pos = _parse_literal(tokens, pos + 1, anon)
            body.append(literal)
    return Clause(head, tuple(body)), _expect(tokens, pos, "DOT")


def _parse_literal(tokens, pos: int, anon) -> tuple[Literal, int]:
    kind, _, line, column = tokens[pos]
    if kind == "NAF":
        inner, pos = _parse_term(tokens, pos + 1, anon)
        if not isinstance(inner, (Atom, Struct)):
            raise ParseError("negation takes a single predicate goal", line, column)
        return Goal(inner, negated=True), pos
    lhs, pos = _parse_term(tokens, pos, anon)
    kind, _, line, column = tokens[pos]
    if kind == "NEQ":
        rhs, pos = _parse_term(tokens, pos + 1, anon)
        return NotEqual(lhs, rhs), pos
    if kind == "LESS":
        rhs, pos = _parse_term(tokens, pos + 1, anon)
        return TermLess(lhs, rhs), pos
    if not isinstance(lhs, (Atom, Struct)):
        raise ParseError("goal must be an atom or compound", line, column)
    return Goal(lhs), pos


def _parse_term(tokens, pos: int, anon, depth: int = 1) -> tuple[Term, int]:
    kind, value, line, column = tokens[pos]
    if kind == "ATOM":
        if tokens[pos + 1][0] != "LP":
            return Atom(value), pos + 1
        if depth > MAX_TERM_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels", line, column)
        arg, pos = _parse_term(tokens, pos + 2, anon, depth + 1)
        args = [arg]
        while tokens[pos][0] == "COMMA":
            arg, pos = _parse_term(tokens, pos + 1, anon, depth + 1)
            args.append(arg)
        return Struct(value, tuple(args)), _expect(tokens, pos, "RP")
    if kind == "VAR":
        return Var(f"_#{next(anon)}" if value == "_" else value), pos + 1
    if kind == "INT":
        try:
            return Int(int(value)), pos + 1
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise ParseError(
                f"integer literal of {len(value)} digits is too long", line, column
            ) from None
    raise _unexpected(tokens[pos], "a term")


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def serialize_term(term: Term) -> str:
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Int):
        return str(term.value)
    if isinstance(term, Var):
        # An anonymous variable occurs once in its clause, so ``_`` is exact.
        return "_" if term.name.startswith("_#") else term.name
    args = ", ".join(serialize_term(a) for a in term.args)
    return f"{term.functor}({args})"


def serialize_literal(lit: Literal) -> str:
    if isinstance(lit, Goal):
        body = serialize_term(lit.term)
        return f"\\+ {body}" if lit.negated else body
    if isinstance(lit, NotEqual):
        return f"{serialize_term(lit.lhs)} \\= {serialize_term(lit.rhs)}"
    return f"{serialize_term(lit.lhs)} @< {serialize_term(lit.rhs)}"


def serialize_clause(clause: Clause, comment: str | None = None) -> str:
    head = serialize_term(clause.head)
    if clause.body:
        body = ", ".join(serialize_literal(l) for l in clause.body)
        text = f"{head} :- {body}."
    else:
        text = f"{head}."
    if comment:
        text += f" % {comment}"
    return text
