"""Parser and canonical serializer for the fact/rule file format.

Grammar (one clause per ``.``-terminated statement):

    clause   := callable ( ":-" literal ("," literal)* )? "."
    literal  := "\\+" callable | term "\\=" term | term "@<" term | callable
    callable := atom | atom "(" term ("," term)* ")"
    term     := atom | integer | variable
    atom     := snake_case identifier; a leading digit is allowed as long as
                the name is not all digits (e.g. ``2_mins``)
    variable := identifier starting with an uppercase letter or ``_``;
                a bare ``_`` is anonymous (fresh at every occurrence)
    comment  := "%" to end of line; a trailing comment attaches to its clause

The language is function-free: an argument, or an operand of ``\\=`` or
``@<``, written ``name(...)`` is a ParseError at the line and column of
its name.

Lines are those of ``str.splitlines``.  A line of spaces and tabs alone
holds no token and is skipped before any pattern runs; any other line is
scanned in one pass of a compiled master pattern (``_TOKEN``) with one named
alternative per token kind, in the manner of the ``re`` module's "Writing a
Tokenizer".  Tokens are plain ``(kind, value, line, column)`` tuples,
columns 1-based; the same pass keeps each line's trailing comment.  The
recursive-descent parser reads the token list by index.

Most lines of a fact file hold one flat fact, ``name(c1, ..., cn).``
with an optional comment, every ``ci`` an atom or an integer.  Where a
clause may start (no token yet, or the last one ends a clause), the scanner
first tries one whole-line pattern (``_FLAT_FACT``) for such a line and, on
a match, emits a single ``FACT`` token holding the fact's ``(name, arity)``,
the text between its parentheses and its comment, which the parser takes as
a whole clause.  In that pattern each repetition of the argument list opens
with its comma, ``C(?:,C)*`` rather than ``(?:C,)*C``: the repetition tried
after the last argument then fails at the ``)`` on its first character,
where the other form would first take the last argument into it and give
its characters back one at a time.  The arity is one more than the commas
in the argument text, as no constant holds a comma.  Any other line, an
all-digit functor or an integer too long for ``int`` included, goes through
the master pattern, which rules and error positions still need.  A line
that looks like a fact but continues a rule is never at a clause start, so
it is scanned token by token as before.  The flat fact lines of one call
share their predicate keys, one ``(name, arity)`` per predicate; the
scanner builds no term for them.

``parse_statements`` yields each clause as it is parsed, a flat fact as its
key and argument text.  ``flat_args`` builds the argument tuple of such a
fact, and only a reader that stores or prints the arguments calls it: the
knowledge-base loader for every fact, ``fallacylab validate`` and the
gateway's harvest of generated fact groups only for a fact they report,
since they count the rest by key.  The schemas' own rule text is read from
the same stream.

Blank lines separate fact blocks; block membership is reported so a
knowledge-base loader can group facts per generated instance.  The canonical
serialization (one clause per line, single space after commas) round-trips
through the parser bit-exactly.
"""
from __future__ import annotations

import itertools
import re
import sys
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
#: atoms and integers between its parentheses, and the comment text.  Each
#: argument repetition opens with its comma (see the module docstring).
_CONST = r"[a-z0-9][a-z0-9_]*"
_FLAT_FACT = re.compile(
    rf"[ \t]*({_CONST})[ \t]*\(([ \t]*{_CONST}(?:[ \t]*,[ \t]*{_CONST})*)[ \t]*\)"
    r"[ \t]*\.[ \t]*(?:%(.*))?"
)
#: Token kinds after which a clause starts.
_CLAUSE_ENDS = ("DOT", "FACT")
#: The literal each builtin operator token makes.
_BUILTINS = {"NEQ": NotEqual, "LESS": TermLess}
#: The error of a compound argument or builtin operand, at its functor.
_COMPOUND = "compound argument: arguments are atoms, integers or variables"


def _scan(text: str) -> tuple[list[tuple], dict[int, str]]:
    """``(kind, value, line, column)`` tokens and the comment text of each
    line that holds no flat fact.

    A flat fact line is one ``("FACT", key, line, args_text, comment)``
    token: its ``(name, arity)``, the text between its parentheses and its
    comment text.  The whole text is scanned before any of it is parsed, so
    a bad character or name anywhere is reported ahead of a grammar error.
    """
    tokens: list[tuple] = []
    comments: dict[int, str] = {}
    keys: dict[tuple[str, int], tuple[str, int]] = {}
    limit = sys.get_int_max_str_digits()
    for line_no, line in enumerate(text.splitlines(), start=1):
        # A line of spaces and tabs alone holds no token.  Strip nothing
        # else: a line of ``\xa0`` must reach ``_TOKEN`` and be an error.
        if not line.strip(" \t"):
            continue
        if not tokens or tokens[-1][0] in _CLAUSE_ENDS:
            fact = _FLAT_FACT.fullmatch(line)
            # The master pattern reads an all-digit functor, which is an
            # integer, not a name, and an integer too long for ``int``, an
            # error reported at its position; only text longer than the
            # limit can hold such an integer.
            if fact is not None and not fact[1].isdigit() and not (
                limit and len(fact[2]) > limit and any(
                    len(spelling) > limit and spelling.isdigit()
                    for spelling in map(str.strip, fact[2].split(","))
                )
            ):
                args_text, comment = fact[2], fact[3]
                key = (fact[1], args_text.count(",") + 1)
                key = keys.setdefault(key, key)
                tokens.append((
                    "FACT", key, line_no, args_text, None if comment is None else comment.strip()
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


def flat_args(args_text: str, consts: dict[str, Term]) -> tuple[Term, ...]:
    """The arguments of a flat fact from its ``FlatFact`` text, each taken
    from ``consts``, which keeps one ``Atom`` or ``Int`` per spelling and
    gains any spelling it lacks.  Share one dict across a load, so equal
    spellings there are one object."""
    terms = []
    for spelling in args_text.split(","):
        spelling = spelling.strip()
        term = consts.get(spelling)
        if term is None:
            if spelling.isdigit():
                term = consts[spelling] = Int(int(spelling))
            else:
                # An atom keys itself, as it equals its name.
                term = Atom(spelling)
                consts[term] = term
        terms.append(term)
    return tuple(terms)


#: A flat fact as ``parse_statements`` yields it: its ``(name, arity)`` and
#: the text between its parentheses, comma-separated atoms and integers,
#: which ``flat_args`` builds into its argument tuple.
FlatFact = tuple[tuple[str, int], str]


def parse_statements(
    text: str,
) -> Iterator[tuple[Clause | FlatFact, str | None, int | None, int]]:
    """``(clause, comment, group_id, line)`` per clause, in text order: a
    flat fact line as a ``FlatFact``, whose arguments ``flat_args`` builds,
    any other clause as a ``Clause``.

    ``comment`` is the trailing comment of the clause's last line.
    ``group_id`` is the dense index of the blank-line-separated block a fact
    sits in, counting only blocks that hold a fact; rules carry None.
    ``line`` is the clause's first line."""
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
    head, pos = _parse_callable(tokens, pos, anon)
    if not isinstance(head, (Atom, Struct)):
        _, _, line, column = tokens[pos - 1]
        raise ParseError("clause head must be name or name(...)", line, column)
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
        inner, pos = _parse_callable(tokens, pos + 1, anon)
        if not isinstance(inner, (Atom, Struct)):
            raise ParseError("negation takes a single predicate goal", line, column)
        return Goal(inner, negated=True), pos
    lhs, pos = _parse_callable(tokens, pos, anon)
    builtin = _BUILTINS.get(tokens[pos][0])
    if builtin is not None:
        if isinstance(lhs, Struct):
            raise ParseError(_COMPOUND, line, column)
        rhs, pos = _parse_term(tokens, pos + 1, anon)
        return builtin(lhs, rhs), pos
    if not isinstance(lhs, (Atom, Struct)):
        raise ParseError("goal must be name or name(...)", *tokens[pos][2:4])
    return Goal(lhs), pos


def _parse_callable(tokens, pos: int, anon) -> tuple[Term, int]:
    """``name(t1, ..., tn)``, or a term: a goal, a head or an operand."""
    if tokens[pos][0] != "ATOM" or tokens[pos + 1][0] != "LP":
        return _parse_term(tokens, pos, anon)
    arg, end = _parse_term(tokens, pos + 2, anon)
    args = [arg]
    while tokens[end][0] == "COMMA":
        arg, end = _parse_term(tokens, end + 1, anon)
        args.append(arg)
    return Struct(tokens[pos][1], tuple(args)), _expect(tokens, end, "RP")


def _parse_term(tokens, pos: int, anon) -> tuple[Term, int]:
    """An atom, an integer or a variable."""
    kind, value, line, column = tokens[pos]
    if kind == "ATOM":
        if tokens[pos + 1][0] == "LP":
            raise ParseError(_COMPOUND, line, column)
        return Atom(value), pos + 1
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
    return f"{term.functor}({', '.join(map(serialize_term, term.args))})"


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
