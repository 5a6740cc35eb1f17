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

Input is read a line at a time, in one loop (``parse_statements``).  A
string is one block; a file comes as the blocks of ``jsonl.read_blocks``,
about 64 KiB each and each ending after a ``\\n``, so ``str.splitlines`` of
each block gives the whole text's lines.  A line of spaces and tabs alone
holds no token and is skipped before any pattern runs.

Most lines of a fact file hold one flat fact, ``name(c1, ..., cn).``
with an optional comment, every ``ci`` an atom or an integer.  Where a
clause may start (no clause is open), the loop first tries one whole-line
pattern (``_FLAT_FACT``) for such a line and, on a match, yields the fact at
once as its ``(name, arity)`` and the text between its parentheses, with its
comment, building no token and no term.  In that pattern each repetition of
the argument list opens with its comma, ``C(?:,C)*`` rather than
``(?:C,)*C``: the repetition tried after the last argument then fails at the
``)`` on its first character, where the other form would first take the
last argument into it and give its characters back one at a time.  The
arity is one more than the commas in the argument text, as no constant holds
a comma.  The flat fact lines of one call share their predicate keys, one
``(name, arity)`` per predicate.

Any other line, an all-digit functor or an integer too long for ``int``
included, is scanned in one pass of a compiled master pattern (``_TOKEN``)
with one named alternative per token kind, in the manner of the ``re``
module's "Writing a Tokenizer".  Tokens are plain ``(kind, value, line,
column)`` tuples, columns 1-based; the same pass takes the line's trailing
comment.  Tokens are kept only for the clause still open: a clause ends at
its ``.``, so once its line is scanned the recursive-descent parser reads
each clause that closes there from the token list by index and drops its
tokens; several clauses on one line each take that line's comment.  A line
that looks like a fact but continues a rule is never at a clause start, so
it is scanned token by token.

``parse_statements`` yields each clause as it is parsed, a flat fact as its
key and argument text.  ``flat_args`` builds the argument tuple of such a
fact, and only a reader that stores or prints the arguments calls it: the
knowledge-base loader for every fact, ``fallacylab validate`` and the
gateway's harvest of generated fact groups only for a fact they report,
since they count the rest by key.  The schemas' own rule text is read from
the same stream.

Errors rank as if the whole text were decoded and scanned before any of it
is parsed.  First comes a byte that is not UTF-8 anywhere in a file
(``jsonl.read_blocks`` raises it); then the first bad character or name
anywhere; then the first grammar error, or error a reader throws into the
stream with ``throw()`` (``KnowledgeBase.from_text`` so refuses a fact with
a variable), in text order.  Before an error of the second or third rank is
raised, the rest of the input is read, and scanned too after one of the
third, so that an error of a higher rank further on is the one reported.

Blank lines separate fact blocks; block membership is reported so a
knowledge-base loader can group facts per generated instance.  The canonical
serialization (one clause per line, single space after commas) round-trips
through the parser bit-exactly.
"""
from __future__ import annotations

import itertools
import re
import sys
from collections import deque
from typing import Iterable, Iterator

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
#: The literal each builtin operator token makes.
_BUILTINS = {"NEQ": NotEqual, "LESS": TermLess}
#: The error of a compound argument or builtin operand, at its functor.
_COMPOUND = "compound argument: arguments are atoms, integers or variables"


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
    source: str | Iterable[str],
) -> Iterator[tuple[Clause | FlatFact, str | None, int | None, int]]:
    """``(clause, comment, group_id, line)`` per clause, in text order: a
    flat fact line as a ``FlatFact``, whose arguments ``flat_args`` builds,
    any other clause as a ``Clause``.

    ``source`` is a string, read as one block, or the blocks of a file's
    text (``jsonl.read_blocks``), each but the last ending in ``\\n``.
    ``comment`` is the trailing comment of the clause's last line.
    ``group_id`` is the dense index of the blank-line-separated block a fact
    sits in, counting only blocks that hold a fact; rules carry None.
    ``line`` is the clause's first line.

    A reader that refuses a clause throws its ParseError in with
    ``throw()``, which raises it, or an error of a higher rank that the rest
    of the source holds (see the module docstring)."""
    blocks = (source,) if isinstance(source, str) else source
    # A block ends after a ``\n``, so its lines are those the whole text has.
    lines = enumerate(itertools.chain.from_iterable(map(str.splitlines, blocks)), start=1)
    keys: dict[tuple[str, int], tuple[str, int]] = {}
    limit = sys.get_int_max_str_digits()
    anon = itertools.count(1)
    #: The tokens of the clause still open: the lines since its start.
    tokens: list[tuple] = []
    groups = 0
    # Whether a blank line has stood between two clauses since the last
    # fact, so the next fact opens a group; a line holding only a comment
    # is not blank.
    gap = True
    try:
        for line_no, line in lines:
            # A line of spaces and tabs alone holds no token.  Strip nothing
            # else: a line of ``\xa0`` must reach ``_TOKEN`` and be an error.
            if not line.strip(" \t"):
                if not tokens:
                    gap = True
                continue
            if not tokens:
                fact = _FLAT_FACT.fullmatch(line)
                # The master pattern reads an all-digit functor, which is an
                # integer, not a name, and an integer too long for ``int``,
                # an error reported at its position; only text longer than
                # the limit can hold such an integer.
                if fact is not None and not fact[1].isdigit() and not (
                    limit and len(fact[2]) > limit and any(
                        len(spelling) > limit and spelling.isdigit()
                        for spelling in map(str.strip, fact[2].split(","))
                    )
                ):
                    if gap:
                        groups += 1
                        gap = False
                    args_text, comment = fact[2], fact[3]
                    key = (fact[1], args_text.count(",") + 1)
                    key = keys.setdefault(key, key)
                    yield (
                        (key, args_text), None if comment is None else comment.strip(),
                        groups - 1, line_no,
                    )
                    continue
            comment, dots = _scan(line, line_no, tokens, lines)
            # A clause ends at its first DOT, and the parser reads no token
            # past it, so each DOT on the line closes one clause.
            pos = 0
            for _ in range(dots):
                start_line = tokens[pos][2]
                clause, pos = _parse_clause(tokens, pos, anon)
                group = None
                if clause.is_fact:
                    if gap:
                        groups += 1
                        gap = False
                    group = groups - 1
                yield clause, comment, group, start_line
            del tokens[:pos]
        if tokens:
            # An END token at the last token's position makes running out of
            # input one more token kind, reported where that token stands.
            # With no DOT left, the clause cannot close: this raises.
            tokens.append(("END", "", *tokens[-1][2:4]))
            _parse_clause(tokens, 0, anon)
    except ParseError:
        # A grammar error, or one a reader threw in: a bad character or name
        # in the rest of the source is reported ahead of it (and a byte that
        # is not UTF-8 ahead of that, raised by the source as it is read).
        # After a bad character, ``_scan`` has read the rest: nothing is left.
        for line_no, line in lines:
            _scan(line, line_no, [], lines)
        raise


def _scan(line: str, line_no: int, tokens: list[tuple], rest: Iterator) -> tuple[str | None, int]:
    """Append the line's ``(kind, value, line, column)`` tokens, columns
    1-based, to ``tokens``; return its comment text and how many DOT tokens
    it holds.  A bad character or name raises ParseError after ``rest``, the
    lines that follow, has been read to its end, so that a byte that is not
    UTF-8 there is reported first."""
    comment = None
    dots = 0
    for match in _TOKEN.finditer(line):
        kind = match.lastgroup
        if kind in _CLAUSE_TOKENS:
            tokens.append((kind, match.group(), line_no, match.start() + 1))
            if kind == "DOT":
                dots += 1
        elif kind == "COMMENT":
            # A comment runs to the end of its line, so a line holds at most one.
            comment = match.group()[1:].strip()
        elif kind != "SPACE":
            deque(rest, 0)
            what = "invalid name" if kind == "NAME" else "unexpected character"
            raise ParseError(f"{what} {match.group()!r}", line_no, match.start() + 1)
    return comment, dots


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
