"""Seeded input generator for every workload, with expected outputs.

Everything here is built from ``random.Random(seed)`` and plain string
templates; nothing imports the program under test.  Each generator returns
the text the program will read together with what it must produce, derived
by construction:

* one-instance-per-group fact templates for the eleven schema codes, where a
  seeded quarter of the groups are near-miss decoys that derive nothing;
* commented fact files for ``validate`` with a seeded 1% of bad facts;
* scored sentences and judged benchmark entries whose model replies come
  from :mod:`replies`.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

CODES = ("ID", "FA", "FP", "AF", "FC", "BQ", "CT", "IE", "IT", "WD", "FS")
ALL_CODES = CODES + ("EC", "NF", "FD")

#: Display names of the schema codes, as the generation prompt spells them.
DISPLAY_NAMES = {
    "ID": "Improper Distribution or Addition",
    "FA": "False Analogy",
    "FP": "False Premise",
    "AF": "Accident Fallacy",
    "FC": "Fallacy of Composition",
    "BQ": "Begging the Question",
    "CT": "Contextomy",
    "IE": "Inverse Error",
    "IT": "Improper Transposition",
    "WD": "Wrong Direction",
    "FS": "False Cause",
}

_WORDS = (
    "amber", "basil", "cedar", "delta", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "kelp", "lotus", "maple", "nectar", "onyx", "pepper",
    "quartz", "raven", "saffron", "tundra", "umber", "violet", "willow",
    "xenon", "yarrow", "zephyr",
)


@dataclass
class Group:
    """One fact group: ``(fact, comment)`` lines and the tuples it derives."""

    facts: list[tuple[str, str]]
    tuples: list[str] = field(default_factory=list)

    def text(self) -> str:
        return "\n".join(f"{fact}. % {comment}" for fact, comment in self.facts)


def _pd(*args: str) -> str:
    return "pd(" + ", ".join(args) + ")"


def make_group(code: str, stem: str, decoy: bool) -> Group:
    """A fact group for ``code`` over constants that all contain ``stem``.

    A real group derives exactly the tuples listed (two for IT, whose schema
    is symmetric in its two premises); a decoy is a near miss, one fact
    added or changed, that derives nothing.
    """
    s = stem
    if code == "ID":
        facts = [
            (f"he(act_{s}, short_{s}, day_{s})", f"acting briefly on {s} helps for a day"),
            (f"he(act_{s}, long_{s}, week_{s})", f"acting long on {s} helps for a week"),
            (f"vc(short_{s}, repeat_{s}, long_{s})", f"repeating the short act on {s} adds up"),
        ]
        if decoy:
            facts.append((f"vc(day_{s}, repeat_{s}, week_{s})", f"the days on {s} do add up"))
        return Group(facts, [] if decoy else [_pd(f"short_{s}", f"long_{s}", f"day_{s}", f"week_{s}")])
    if code == "FA":
        facts = [
            (f"hp(thing_{s}, shared_{s})", f"thing {s} has the shared trait"),
            (f"hp(other_{s}, shared_{s})", f"the other {s} has it too"),
            (f"hp(thing_{s}, extra_{s})", f"thing {s} also has an extra trait"),
        ]
        if decoy:
            facts.append((f"hp(other_{s}, extra_{s})", f"the other {s} really has the extra trait"))
        return Group(facts, [] if decoy else [_pd(f"thing_{s}", f"other_{s}", f"shared_{s}", f"extra_{s}")])
    if code == "FP":
        obs = f"wrong_obs_{s}" if decoy else f"obs_{s}"
        facts = [
            (f"ef(cond_{s}, fact_{s})", f"the condition on {s} establishes a fact"),
            (f"fp(fact_{s}, premise_{s})", f"the fact on {s} rests on a false premise"),
            (f"po(obs_{s}, premise_{s})", f"an observation seems to back premise {s}"),
            (f"fplc(premise_{s}, {obs}, concl_{s})", f"which leads to a bogus conclusion on {s}"),
        ]
        return Group(facts, [] if decoy else [_pd(f"cond_{s}", f"fact_{s}", f"premise_{s}", f"obs_{s}", f"concl_{s}")])
    if code == "AF":
        rigid = f"sane_{s}" if decoy else f"absurd_{s}"
        facts = [
            (f"hr(object_{s}, rule_{s})", f"object {s} carries a rule"),
            (f"rri(rule_{s}, sane_{s})", f"read reasonably on {s}"),
            (f"rui(rule_{s}, {rigid})", f"read rigidly on {s}"),
        ]
        return Group(facts, [] if decoy else [_pd(f"object_{s}", f"rule_{s}", f"sane_{s}", f"absurd_{s}")])
    if code == "FC":
        lacks = f"other_prop_{s}" if decoy else f"prop_{s}"
        facts = [
            (f"hp(part_{s}, prop_{s})", f"the part of {s} has the property"),
            (f"ipo(part_{s}, whole_{s})", f"the part belongs to whole {s}"),
            (f"lp(whole_{s}, {lacks})", f"the whole {s} lacks a property"),
        ]
        return Group(facts, [] if decoy else [_pd(f"part_{s}", f"prop_{s}", f"whole_{s}")])
    if code == "BQ":
        relies = f"unrelated_{s}" if decoy else f"claim_{s}"
        facts = [
            (f"ca(claim_{s}, arg_{s})", f"argument {s} supports the claim"),
            (f"ema(arg_{s}, means_{s})", f"argument {s} explicitly means something"),
            (f"emrc(means_{s}, {relies})", f"that meaning relies on a claim about {s}"),
        ]
        return Group(facts, [] if decoy else [_pd(f"claim_{s}", f"arg_{s}")])
    if code == "CT":
        leads = f"stray_{s}" if decoy else f"linked_{s}"
        facts = [
            (f"qc(quote_{s}, meant_{s})", f"quote {s} originally means this"),
            (f"qoc(quote_{s}, misread_{s})", f"quote {s} is misread"),
            (f"froc(misread_{s}, linked_{s})", f"the misreading of {s} is tied to a fact"),
            (f"ifqoc({leads}, concl_{s})", f"a fact improperly yields a conclusion on {s}"),
        ]
        return Group(facts, [] if decoy else [_pd(f"quote_{s}", f"concl_{s}")])
    if code == "IE":
        facts = [
            (f"cc(fwd_{s}, back_{s})", f"forwards and backwards on {s} complement"),
            (f"cc(lose_{s}, gain_{s})", f"losing and gaining on {s} complement"),
            (f"im(fwd_{s}, lose_{s})", f"going forwards on {s} implies losing"),
        ]
        if decoy:
            facts.append((f"im(lose_{s}, fwd_{s})", f"and losing on {s} implies forwards"))
        return Group(facts, [] if decoy else [_pd(f"back_{s}", f"gain_{s}")])
    if code == "IT":
        facts = [
            (f"im(rain_{s}, wet_{s})", f"rain on {s} implies wet ground"),
            (f"im(hose_{s}, wet_{s})", f"a hose on {s} also implies wet ground"),
        ]
        if decoy:
            facts.append((f"im(rain_{s}, hose_{s})", f"rain on {s} implies the hose"))
        return Group(facts, [] if decoy else [_pd(f"rain_{s}", f"wet_{s}"), _pd(f"hose_{s}", f"wet_{s}")])
    if code == "WD":
        facts = [(f"cs(cause_{s}, effect_{s})", f"cause {s} brings the effect")]
        if decoy:
            facts.append((f"cs(rival_{s}, effect_{s})", f"a rival cause also brings effect {s}"))
        return Group(facts, [] if decoy else [_pd(f"effect_{s}", f"cause_{s}")])
    if code == "FS":
        # T must sort before E under the standard order, hence the a/b names.
        real = f"ev_{s}_a" if decoy else f"root_{s}"
        facts = [
            (f"ha(scene_{s}, ev_{s}_a)", f"the trigger happens in scene {s}"),
            (f"ha(scene_{s}, ev_{s}_b)", f"the effect happens in scene {s}"),
            (f"rc({real}, ev_{s}_b)", f"the real cause of the effect in {s}"),
        ]
        return Group(facts, [] if decoy else [_pd(f"ev_{s}_a", f"ev_{s}_b")])
    raise ValueError(f"no template for {code}")


def _stems(rng: random.Random, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{rng.choice(_WORDS)}_{i}" for i in range(n)]


def make_groups(code: str, n: int, rng: random.Random, prefix: str = "g") -> list[Group]:
    """``n`` groups with fresh constants; a seeded quarter are decoys."""
    decoys = set(rng.sample(range(n), n // 4))
    return [make_group(code, stem, i in decoys) for i, stem in enumerate(_stems(rng, prefix, n))]


def groups_text(groups: list[Group]) -> str:
    return "\n\n".join(g.text() for g in groups) + "\n"


def expected_tuples(groups: list[Group]) -> list[str]:
    return [t for g in groups for t in g.tuples]


# ---------------------------------------------------------------------------
# derive-scaled
# ---------------------------------------------------------------------------


def derive_inputs(seed: int, n_groups: int) -> dict[str, list[Group]]:
    """Per code, ``n_groups`` groups.  Smaller counts are prefixes of the
    same seeded stream, so the exponent sweep stays comparable."""
    return {code: make_groups(code, n_groups, random.Random(f"{seed}-derive-{code}")) for code in CODES}


# ---------------------------------------------------------------------------
# validate-large
# ---------------------------------------------------------------------------

# Bad facts: each yields exactly one finding of the named kind.
_BAD_FACTS = {
    "AF": (
        ("unknown_predicate", "hp(stray_{s}, noise_{s})", "a fact from another schema"),
        ("unknown_predicate", "note({s}, remark_{s})", "a predicate no schema knows"),
        ("arity_mismatch", "hr(object_{s}, rule_{s}, extra_{s})", "one argument too many"),
        ("arity_mismatch", "rri(rule_{s})", "one argument too few"),
    ),
    "CT": (
        ("unknown_predicate", "cs(stray_{s}, noise_{s})", "a fact from another schema"),
        ("unknown_predicate", "note({s}, remark_{s})", "a predicate no schema knows"),
        ("arity_mismatch", "qc(quote_{s}, meant_{s}, extra_{s})", "one argument too many"),
        ("arity_mismatch", "froc(misread_{s})", "one argument too few"),
    ),
}


@dataclass
class ValidateInput:
    code: str
    text: str
    facts: int
    findings: dict[str, int]


def validate_input(seed: int, code: str, total_facts: int) -> ValidateInput:
    """About ``total_facts`` commented facts, 1% of them bad."""
    rng = random.Random(f"{seed}-validate-{code}")
    per_group = len(make_group(code, "x", False).facts)
    bad = total_facts // 100
    n_groups = (total_facts - bad) // per_group
    groups = make_groups(code, n_groups, rng, prefix="v")
    findings = {"unknown_predicate": 0, "arity_mismatch": 0}
    for i, target in enumerate(sorted(rng.sample(range(n_groups), bad))):
        kind, fact, comment = rng.choice(_BAD_FACTS[code])
        stem = f"bad_{i}"
        groups[target].facts.append((fact.format(s=stem), comment))
        findings[kind] += 1
    return ValidateInput(code, groups_text(groups), sum(len(g.facts) for g in groups), findings)


# ---------------------------------------------------------------------------
# replay-pipeline and record-live
# ---------------------------------------------------------------------------

_SUBJECTS = ("the kettle", "my neighbor", "the city council", "a red bicycle",
             "the night train", "our garden", "the old library", "every umbrella")
_CLAIMS = ("always whistles at noon", "never reads the manual", "voted for longer lunches",
           "squeaks in the rain", "arrives before the sun", "grows only on Tuesdays",
           "keeps every receipt", "opens in the wind")
_BENIGN = ("Water boils at a lower temperature at high altitude",
           "The museum opens at nine on weekdays",
           "Regular stretching can improve flexibility",
           "The bridge was repainted last spring",
           "Most bicycles have two wheels and a chain")


def fallacious_sentence(rng: random.Random, i: int) -> str:
    a, b = rng.sample(_SUBJECTS, 2)
    return (f"Since {a} {rng.choice(_CLAIMS)} (case {i}), "
            f"therefore {b} {rng.choice(_CLAIMS)}.")


def benign_sentence(rng: random.Random, i: int) -> str:
    return f"{rng.choice(_BENIGN)} (note {i})."


def sentences_jsonl(seed: int, n: int, tag: str) -> tuple[str, list[tuple[str, str, str]]]:
    """``n`` labeled sentences to score: (id, sentence, code) rows."""
    rng = random.Random(f"{seed}-sentences-{tag}")
    rows = [(f"{tag}{i}", fallacious_sentence(rng, i), rng.choice(ALL_CODES)) for i in range(n)]
    lines = [json.dumps({"id": rid, "sentence": s, "labels": [c]}) for rid, s, c in rows]
    return "\n".join(lines) + "\n", rows


def benchmark_jsonl(seed: int, n: int, tag: str) -> tuple[str, list[dict]]:
    """``n`` benchmark entries, a seeded quarter of them benign."""
    rng = random.Random(f"{seed}-benchmark-{tag}")
    benign = set(rng.sample(range(n), n // 4))
    entries = []
    for i in range(n):
        if i in benign:
            entries.append({"id": f"{tag}{i}", "sentence": benign_sentence(rng, i),
                            "labels": [], "source": "benign"})
        else:
            labels = rng.sample(ALL_CODES, rng.choice((1, 1, 2)))
            entries.append({"id": f"{tag}{i}", "sentence": fallacious_sentence(rng, i),
                            "labels": labels, "source": rng.choice(("bench", "augmented"))})
    return "\n".join(json.dumps(e) for e in entries) + "\n", entries


@dataclass
class GenerateInput:
    """The scripted model reply for ``generate --code`` and its outcome."""

    code: str
    reply: str
    requested: int
    tuples: list[str]


def generate_input(seed: int, code: str, n: int) -> GenerateInput:
    """``n`` generated groups for one code: decoys as usual, plus one group
    the harvest must reject because it does not parse."""
    rng = random.Random(f"{seed}-generate-{code}")
    groups = make_groups(code, n - 1, rng, prefix="n")
    broken = make_group(code, "broken", False).facts[0][0].replace(",", "", 1)
    blocks = [g.text() for g in groups]
    blocks.insert(rng.randrange(len(blocks) + 1), f"{broken}. % a group with a typo")
    return GenerateInput(code, "\n\n".join(blocks) + "\n", n, expected_tuples(groups))
