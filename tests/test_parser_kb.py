from __future__ import annotations

import importlib
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fallacylab
from fallacylab import kb as kb_module
from fallacylab import parser
from fallacylab.engine import Atom, Clause, Goal, Int, NotEqual, RowStore, Struct, TermLess, Var
from fallacylab.errors import ParseError, UnknownSchemaError
from fallacylab.kb import KnowledgeBase
from fallacylab.labels import FallacyCode
from fallacylab.parser import serialize_clause
from fallacylab.schemas import derive_instances
from fallacylab.seeds import SEED_SOURCES, load_seed

import parser_oracle
from conftest import parse_program


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_ground_fact():
    [(clause, comment)] = [(p.clause, p.comment) for p in parse_program("father(john, mary).")]
    assert clause == Clause(Struct("father", (Atom("john"), Atom("mary"))))
    assert comment is None


def test_parse_rule_with_one_body_literal():
    [(clause, _)] = [(p.clause, p.comment) for p in parse_program("parent(X,Y) :- father(X,Y).")]
    assert clause.head == Struct("parent", (Var("X"), Var("Y")))
    assert clause.body == (Goal(Struct("father", (Var("X"), Var("Y")))),)


def test_parse_fact_with_trailing_comment():
    text = "hr(highway, maximum_speed_65). % this means highway has a rule"
    [(clause, comment)] = [(p.clause, p.comment) for p in parse_program(text)]
    assert clause.head == Struct("hr", (Atom("highway"), Atom("maximum_speed_65")))
    assert comment == "this means highway has a rule"


def test_parse_full_literal_zoo():
    text = "h(X) :- b1(X), \\+ b2(X), X \\= a, X @< Y."
    [(clause, _)] = [(p.clause, p.comment) for p in parse_program(text)]
    assert clause.body == (
        Goal(Struct("b1", (Var("X"),))),
        Goal(Struct("b2", (Var("X"),)), negated=True),
        NotEqual(Var("X"), Atom("a")),
        TermLess(Var("X"), Var("Y")),
    )


def test_parse_digit_leading_atom_and_integer():
    [(clause, _)] = [(p.clause, p.comment) for p in parse_program("he(brush_teeth, 2_mins, 7).")]
    assert clause.head.args == (Atom("brush_teeth"), Atom("2_mins"), Int(7))


def test_parse_integer_literal_at_the_digit_limit():
    # 4,300 digits is Python's default limit for int(str).
    digits = "7" * 4300
    [(clause, _)] = [(p.clause, p.comment) for p in parse_program(f"p({digits}).")]
    assert clause.head.args == (Int(int(digits)),)
    assert serialize_clause(clause) == f"p({digits})."


def test_parse_anonymous_variables_are_fresh():
    [(clause, _)] = [(p.clause, p.comment) for p in parse_program("p(X) :- q(_, _).")]
    a, b = clause.body[0].term.args
    assert a != b and a.name.startswith("_#") and b.name.startswith("_#")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("father(john mary).")
    assert (err.value.line, err.value.column) == (1, 13)
    assert str(err.value) == "line 1, column 13: expected RP, found 'mary'"


_COMPOUND = "compound argument: arguments are atoms, integers or variables"


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("p(a).\n  fooBar(b).", 2, 3, "invalid name 'fooBar'"),
        ("p(a).\tq(b) ! r.", 1, 12, "unexpected character '!'"),
        ("p(a).\r\nq(b)\x0bé.", 3, 1, "unexpected character 'é'"),
        ("p(a).\x1cp(b).\x85q(12Ab).", 3, 3, "invalid name '12Ab'"),
        ("p(a).\u2028\u2029q(b)\x0c :- .", 4, 5, "expected a term, found '.'"),
        ("p(a) :- q(a)", 1, 12, "unexpected end of input"),
        ("p(a, \n  b", 2, 3, "unexpected end of input"),
        ("p(a) :- q(a) r(a).", 1, 14, "expected DOT, found 'r'"),
        ("% c\n\n  , p(a).", 3, 3, "expected a term, found ','"),
        ("X.", 1, 1, "clause head must be name or name(...)"),
        ("p(a) :- \\+ X.", 1, 9, "negation takes a single predicate goal"),
        ("p(a) :- q(a), X.", 1, 16, "goal must be name or name(...)"),
        # A compound is refused at its functor, wherever it stands: a fact's
        # argument, a goal's, a builtin's left or right operand, or inside
        # another compound, whose outer functor comes first.
        ("p(a).\nq(b, f(c)).", 2, 6, _COMPOUND),
        ("p(X) :- q(X, g(X, 1)).", 1, 14, _COMPOUND),
        ("p(X) :- q(X), f(X) \\= b.", 1, 15, _COMPOUND),
        ("p(X) :- q(X), X @< g(a).", 1, 20, _COMPOUND),
        ("p(f(g(a))).", 1, 3, _COMPOUND),
        ("p(" + "f(" * 100 + "a" + ")" * 101 + ".", 1, 3, _COMPOUND),
        ("p(a).\nq(b, " + "9" * 5000 + ").", 2, 6, "integer literal of 5000 digits is too long"),
        ("p(a).\n\xa0\nq(b).\n", 2, 1, "unexpected character '\\xa0'"),
    ],
    ids=[
        "invalid-name", "stray-character", "crlf-and-vertical-tab", "splitlines-only-breaks",
        "paragraph-separators", "end-after-goal", "end-inside-term", "expected-dot",
        "expected-term", "variable-head", "negated-variable", "variable-goal",
        "compound-in-fact", "compound-in-goal", "compound-left-operand", "compound-right-operand",
        "compound-nested", "too-deep", "integer-too-long", "nbsp-only-line",
    ],
)
def test_parse_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize(
    "bad",
    [
        "fooBar(a).",  # uppercase inside an atom
        "p(a)",  # missing terminator
        "p(a,).",  # dangling comma
        ":- q(a).",  # missing head
        "p(a) :- \\+ (q(a), r(a)).",  # negation over a conjunction
        "p(a) :- 3.",  # integer as a goal
    ],
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse_program(bad)


def test_blank_line_blocks_become_groups():
    text = "a(x).\nb(x).\n\nc(y).\n\n\nd(z).\ne(z).\n"
    groups = [p.group_id for p in parse_program(text)]
    assert groups == [0, 0, 1, 2, 2]
    # A line of spaces and tabs splits groups exactly as an empty one does.
    spaced = text.replace("\n\nc", "\n \t \nc").replace("\n\n\nd", "\n\t\n  \nd")
    assert [p.group_id for p in parse_program(spaced)] == groups


def test_comment_only_lines_do_not_split_groups():
    text = "a(x).\n% just a note\nb(x).\n"
    groups = [p.group_id for p in parse_program(text)]
    assert groups == [0, 0]


def test_each_fact_keeps_its_own_comment_in_a_large_file():
    n = 3000
    text = "".join(f"f(c{i}, d{i}). % fact number {i}\n" for i in range(n))
    parsed = parse_program(text)
    assert [p.comment for p in parsed] == [f"fact number {i}" for i in range(n)]


def test_comment_only_lines_attach_to_no_clause():
    text = "% header\na(x).\n% between\nb(y).\n% trailer\n"
    assert [p.comment for p in parse_program(text)] == [None, None]


def test_clauses_ending_on_one_line_share_its_comment():
    text = "a(x). b(y). % both\nc(z,\n  w). % end line\nd(u, % start line\n  v).\n"
    assert [p.comment for p in parse_program(text)] == ["both", "both", "end line", None]


def test_rules_carry_no_group():
    text = "a(x).\n\nr(X) :- a(X).\n"
    parsed = parse_program(text)
    assert parsed[0].group_id == 0
    assert parsed[1].group_id is None


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

_atoms = st.sampled_from(["a", "b", "foo", "x2", "2_mins", "snake_case_name"])
_terms = st.one_of(
    _atoms.map(Atom),
    st.integers(min_value=0, max_value=99).map(Int),
    st.sampled_from(["X", "Y", "Zed", "_Tail"]).map(Var),
)
_literals = st.one_of(
    st.builds(Goal, st.builds(Struct, _atoms, st.lists(_terms, min_size=1, max_size=3).map(tuple)), st.booleans()),
    st.builds(NotEqual, _terms, _terms),
    st.builds(TermLess, _terms, _terms),
)
_clauses = st.builds(
    Clause,
    st.builds(Struct, _atoms, st.lists(_terms, min_size=1, max_size=3).map(tuple)),
    st.lists(_literals, min_size=0, max_size=4).map(tuple),
)


@given(st.lists(_clauses, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_serialize_parse_round_trip(clauses):
    text = "\n".join(serialize_clause(c) for c in clauses)
    reparsed = [p.clause for p in parse_program(text)]
    assert reparsed == list(clauses)


def test_canonical_round_trip_is_bit_exact():
    kb = load_seed(FallacyCode.AF)
    text = kb.serialize()
    assert KnowledgeBase.from_text(text).serialize() == text


# ---------------------------------------------------------------------------
# Differential test against the reference tokenizer
# ---------------------------------------------------------------------------


#: Flat fact lines (one fact of atoms and integers, maybe a comment) take
#: the scanner's whole-line path; the look-alikes after them must not.  The
#: compound arguments and operands are refused by both parsers.
_CLAUSES = (
    "p(a).", "q(X, 2_mins, 7) :- p(X), \\+ r(X, _), X \\= a, _ @< Y.", "r(f(g(_), _), 0).",
    "s :- t.", "p(b). % note", "q(a,\n  b). % end", "r(c, % start\n  d).",
    "q(X) :- p(X), f(X) \\= X.", "q(X) :- p(X), X @< g(a).",
    "p( a ,b ) .  %c", "p(0, 007).", "\tq(2_mins,x1 , 12). % n ", "r(X) :-\nq(b).",
    "r(X) :-\n  q(b), % tail\n  p(a, 1).", "p(_x).", "p(a). q(b).",
)
_TOKENS = (":-", "\\+", "\\=", "@<", "(", ")", ",", ".", "foo", "X", "_", "_Tail", "12", "007")
#: Spacing, comments and every line break ``str.splitlines`` knows.
_LAYOUT = (
    " ", "\t", "%", "% a note ", "\n% a comment line\n", "\n", "\n\n", "\n \t \n", "\r", "\r\n", "\x0b",
    "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
_STRAY = (
    "!", "é", "\xa0", "\x1f", "\\", "@", ":", "aB", "12Ab", "fooBar", "2X", "12(a).", "p(aB).",
)


@st.composite
def _program_texts(draw):
    # Half the texts use whole clauses only, so most of those parse and
    # exercise comments, lines and group ids rather than an early error.
    pool = _CLAUSES + _LAYOUT + (_TOKENS if draw(st.booleans()) else ())
    pieces = draw(st.lists(st.sampled_from(pool), max_size=30))
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_STRAY)))
    return "".join(pieces)


def _outcome(parse, text):
    try:
        return [(p.clause, p.comment, p.group_id, p.line) for p in parse(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.column


@given(_program_texts())
@settings(max_examples=500, deadline=None)
def test_parse_program_matches_reference_parser(text):
    assert _outcome(parse_program, text) == _outcome(parser_oracle.parse_program, text)


def _blocks(text, cuts):
    """``text`` cut after each ``\\n`` that ``cuts`` picks, as
    ``jsonl.read_blocks`` cuts a file: each block but the last ends in it."""
    ends = [i + 1 for i, char in enumerate(text) if char == "\n"]
    picked = sorted({ends[i % len(ends)] for i in cuts} if ends else ())
    return [text[start:end] for start, end in zip([0, *picked], [*picked, len(text)])]


@given(_program_texts(), st.lists(st.integers(0, 100), max_size=6))
@settings(max_examples=300, deadline=None)
def test_a_text_cut_into_blocks_parses_as_the_whole_text(text, cuts):
    blocks = _blocks(text, cuts)
    assert "".join(blocks) == text
    assert _outcome(lambda _: parse_program(blocks), text) == _outcome(
        parser_oracle.parse_program, text)


#: A fact-like line is a flat fact of these words and gaps, changed in up
#: to two places by a stray piece: put in, or put in place of a piece.
_FACT_WORDS = ("p", "foo_bar", "x2", "2_mins", "0", "12", "007")
_FACT_GAPS = ("", "", " ", "\t", " \t ")
_FACT_COMMENTS = ("", "", "%", "% a note ", "%% p(a).", "\t%x")
_FACT_STRAY = (
    "", "(", ")", ".", ",", ",,", "%", " ", "\t", "\xa0", "X", "Foo", "fooBar", "_", "12", "2_mins",
)


@st.composite
def _fact_like_lines(draw):
    def gap():
        return draw(st.sampled_from(_FACT_GAPS))

    pieces = [gap(), draw(st.sampled_from(_FACT_WORDS)), gap(), "(", gap()]
    if draw(st.integers(0, 9)) == 0:
        pieces += [",", gap()]
    for i, word in enumerate(draw(st.lists(st.sampled_from(_FACT_WORDS), min_size=1, max_size=4))):
        if i:
            pieces += [gap(), ",", gap()]
        pieces.append(word)
    if draw(st.integers(0, 9)) == 0:
        pieces += [gap(), ","]
    pieces += [gap(), ")", gap(), ".", gap(), draw(st.sampled_from(_FACT_COMMENTS))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(pieces) - 1))
        stray = draw(st.sampled_from(_FACT_STRAY))
        if draw(st.booleans()):
            pieces[at] = stray
        else:
            pieces.insert(at, stray)
    return "".join(pieces)


@given(_fact_like_lines())
@settings(max_examples=1000, deadline=None)
def test_flat_fact_pattern_matches_as_its_reference_does(line):
    # The two argument lists, ``C(?:,C)*`` and the reference's ``(?:C,)*C``,
    # must match the same lines and split them into the same groups.
    ours, reference = parser._FLAT_FACT.fullmatch(line), parser_oracle.FLAT_FACT.fullmatch(line)
    if reference is None:
        assert ours is None
    else:
        assert ours is not None and ours.groups() == reference.groups()


#: Pattern syntax that Python 3.11 added (possessive quantifiers and atomic
#: groups), found outside escapes and character classes, which the first
#: pattern replaces with a plain letter.
_ESCAPES_AND_CLASSES = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]", re.S)
_PY311_ONLY = re.compile(r"[*+?}]\+|\(\?>")


def _py311_only(pattern: str) -> re.Match | None:
    return _PY311_ONLY.search(_ESCAPES_AND_CLASSES.sub("x", pattern))


def test_module_patterns_compile_on_python_3_10():
    # The package supports Python 3.10, whose ``re`` rejects 3.11's
    # possessive quantifiers and atomic groups.
    for flagged in ("a*+", "a++", "a?+", "a{2}+", "(?>a)", r"\d++"):
        assert _py311_only(flagged), flagged
    for plain in (r"\++", r"x*\++", "[*+]", r"[\]?+]", "a+b+", r"a{2}\+", r"\(?>"):
        assert not _py311_only(plain), plain
    patterns = {}
    for module in pkgutil.walk_packages(fallacylab.__path__, "fallacylab."):
        for name, value in vars(importlib.import_module(module.name)).items():
            if isinstance(value, re.Pattern):
                patterns[f"{module.name}.{name}"] = value.pattern
    assert "fallacylab.parser._FLAT_FACT" in patterns
    assert "fallacylab.gateway._LIST_MARKER_RE" in patterns
    assert {name: text for name, text in patterns.items() if _py311_only(text)} == {}


def test_fact_like_lines_continuing_a_rule_stay_in_the_rule():
    text = "r(X) :-\n  q(b).\nq(b). % a fact\ns(Y) :-\nq(b),\np(a, 1). % end\n"
    assert _outcome(parse_program, text) == _outcome(parser_oracle.parse_program, text)
    qb = Struct("q", (Atom("b"),))
    assert [(p.clause, p.comment, p.line) for p in parse_program(text)] == [
        (Clause(Struct("r", (Var("X"),)), (Goal(qb),)), None, 1),
        (Clause(qb), "a fact", 3),
        (Clause(Struct("s", (Var("Y"),)), (Goal(qb), Goal(Struct("p", (Atom("a"), Int(1)))))),
         "end", 4),
    ]


def test_flat_fact_lines_share_one_constant_per_spelling():
    text = "p(a, 1).\nq(a) :- p(a, 1).\np(a, 01).\np(b, 1).\n"
    first, _, third, fourth = (p.clause for p in parse_program(text))
    a, one = first.head.args
    assert third.head.args[0] is a and fourth.head.args[1] is one
    # 01 is a spelling of its own, with the same value.
    assert third.head.args[1] == one
    # The next parse builds its own constants.
    assert parse_program(text)[0].clause.head.args[0] is not a


def test_seed_sources_parse_as_the_reference_parser_does():
    for source in SEED_SOURCES.values():
        assert _outcome(parse_program, source) == _outcome(parser_oracle.parse_program, source)


# ---------------------------------------------------------------------------
# Knowledge base
# ---------------------------------------------------------------------------


def test_from_text_then_query():
    kb = KnowledgeBase.from_text("father(john, mary).")
    assert kb.tables() == {("father", 2): [(Atom("john"), Atom("mary"))]}


def test_non_ground_fact_rejected_at_load():
    for text, line in (("q(a).\np(X).\n", 2), ("r(a, _). % anonymous\n", 1)):
        with pytest.raises(ParseError) as caught:
            KnowledgeBase.from_text(text)
        assert (caught.value.line, caught.value.column) == (line, 1)
        assert str(caught.value).startswith(f"line {line}, column 1: fact is not ground: ")


@pytest.mark.parametrize("text, error", [
    # A bad character anywhere ranks before a fact the base refuses.
    ("p(X).\nfoo(a) $\n", "line 2, column 8: unexpected character '$'"),
    ("p(X). q(a).\n\nr(b).\n% c\nfoo(a, !).\n", "line 5, column 8: unexpected character '!'"),
    ("p(X).\nfooBar(a).\n", "line 2, column 1: invalid name 'fooBar'"),
    # Of two errors of one rank, the first in the text stands.
    ("p(a) $\nq(b) !\n", "line 1, column 6: unexpected character '$'"),
    ("p(X).\nq(a b) !\nr(c) $\n", "line 2, column 8: unexpected character '!'"),
    # A grammar error after it ranks the same, so the earlier one stands.
    ("p(X).\nq(a b).\n", "line 1, column 1: fact is not ground: p(X)."),
    ("q(a b).\np(X).\n", "line 1, column 5: expected RP, found 'b'"),
    ("p(a). q(X). r(\n", "line 1, column 1: fact is not ground: q(X)."),
])
def test_the_first_error_of_the_highest_rank_is_reported(text, error):
    with pytest.raises(ParseError) as caught:
        KnowledgeBase.from_text(text)
    assert str(caught.value) == error


def test_compound_fact_argument_rejected_at_load_at_its_functor():
    with pytest.raises(ParseError) as caught:
        KnowledgeBase.from_text("q(a).\nr(a, f(X)). % nested\n")
    assert str(caught.value) == f"line 2, column 6: {_COMPOUND}"


def test_duplicate_fact_stored_twice():
    kb = KnowledgeBase.from_text("f(a).\nf(a).\n")
    assert kb.serialize() == "f(a).\nf(a).\n"
    assert len(kb.tables()[("f", 1)]) == 2


def test_key_lookup_returns_row_positions_in_insertion_order():
    kb = KnowledgeBase.from_text("p(a, 1).\np(b, 1).\np(7, 1).\np(a, 3).\np(a, 1).\n")
    rows = RowStore(kb.tables())
    key = ("p", 2)
    # A constant key: the positions of the rows holding it there, in order.
    assert rows.index(key, (0,))[Atom("a")] == [0, 3, 4]
    # An integer key.
    assert rows.index(key, (1,))[Int(1)] == [0, 1, 2, 4]
    assert [rows[key][i] for i in rows.index(key, (1,))[Int(3)]] == [(Atom("a"), Int(3))]
    # An integer keys its own bucket beside the atoms.
    assert rows.index(key, (0,))[Int(7)] == [2]
    # Several positions key by the tuple of their values.
    assert rows.index(key, (0, 1))[Atom("a"), Int(1)] == [0, 4]
    # A value no row holds, and an absent predicate.
    assert Atom("zz") not in rows.index(key, (0,))
    assert rows.index(("absent", 1), (0,)) == {} and ("absent", 1) not in rows
    # No bound position: the join reads every row of the table.
    assert rows[key] == [
        (Atom("a"), Int(1)), (Atom("b"), Int(1)), (Int(7), Int(1)),
        (Atom("a"), Int(3)), (Atom("a"), Int(1)),
    ]


def test_flat_fact_lines_load_as_argument_tuples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a term was built for a flat fact line")

    for module in (parser, kb_module):
        for name in ("Clause", "Struct"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    kb = KnowledgeBase.from_text(SEED_SOURCES[FallacyCode.ID])
    assert kb.tables()[("he", 3)][1] == (Atom("brush_teeth"), Atom("14_mins"),
                                      Atom("teeth_health_for_one_week"))
    assert len(derive_instances(FallacyCode.ID, kb)) == 1


#: Comments, comment-only lines, blank-line groups, rules between groups,
#: integer and digit-leading arguments, a fact of arity 0, two facts on a
#: line, and a fact over two lines.
MIXED_TEXT = """\
% a comment-only line before anything
hp(a, b). % first group
hp( c ,d ).   %   spaced comment
lp(007, 2_b). % integer and digit-leading arguments

ipo(x, 2_mins).
safe(X) :- hp(X, Y), \\+ lp(Y, X). % a rule between groups
flag.
% comment-only lines do not split a group
q(1, 01).

r(a,
  b). % a fact over two lines
s(a). s(b).
t(X) :- r(X, Y).
"""

MIXED_CANONICAL = """\
hp(a, b). % first group
hp(c, d). % spaced comment
lp(7, 2_b). % integer and digit-leading arguments

ipo(x, 2_mins).
flag.
q(1, 1).

r(a, b). % a fact over two lines
s(a).
s(b).

safe(X) :- hp(X, Y), \\+ lp(Y, X).
t(X) :- r(X, Y).
"""


def test_serialize_writes_the_canonical_text_back():
    for code, source in SEED_SOURCES.items():
        assert KnowledgeBase.from_text(source).serialize() == source, code
    kb = KnowledgeBase.from_text(MIXED_TEXT)
    assert kb.serialize() == MIXED_CANONICAL
    assert KnowledgeBase.from_text(MIXED_CANONICAL).serialize() == MIXED_CANONICAL
    assert [(p.group_id, p.comment) for p in parse_program(kb.serialize())][:4] == [
        (0, "first group"), (0, "spaced comment"),
        (0, "integer and digit-leading arguments"), (1, None),
    ]
    # An anonymous variable is written back as ``_``, so the text reloads.
    anonymous = "r(a, b).\n\nt(X) :- r(X, _), \\+ s(_, X).\n"
    assert KnowledgeBase.from_text(anonymous).serialize() == anonymous


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def _seed_heads(code: FallacyCode) -> set[str]:
    return {serialize_clause(p.clause) for p in parse_program(load_seed(code).serialize())}


def test_seed_af_contents():
    assert _seed_heads(FallacyCode.AF) == {
        "hr(shampoo_bottle, lather_rinse_repeat).",
        "rri(lather_rinse_repeat, wash_once_or_twice).",
        "rui(lather_rinse_repeat, infinite_washing).",
    }


def test_seed_bq_contents():
    assert _seed_heads(FallacyCode.BQ) == {
        "ca(bible_true, bible_word_of_god).",
        "ema(bible_word_of_god, bible_says_god_exists).",
        "emrc(bible_says_god_exists, bible_true).",
    }


def test_seed_ie_contents():
    assert _seed_heads(FallacyCode.IE) == {
        "cc(cycling_forwards, cycling_backwards).",
        "cc(reduce_weight, gain_weight).",
        "im(cycling_forwards, reduce_weight).",
    }


def test_seed_is_single_group_and_commented():
    for code, source in SEED_SOURCES.items():
        facts = parse_program(load_seed(code).serialize())
        assert {p.group_id for p in facts} == {0}, code
        assert all(p.comment for p in facts), code


def test_load_seed_rejects_label_only_codes():
    with pytest.raises(UnknownSchemaError):
        load_seed(FallacyCode.EC)
