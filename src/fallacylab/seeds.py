"""Built-in seed facts, one worked instance per schema.

Each seed is a single fact group written in the file format, with inline
comments glossing the predicate semantics.  They serve as few-shot examples
for fact generation and as fixtures for derivation tests, so no network is
ever needed to exercise the pipeline.
"""
from __future__ import annotations

from .errors import UnknownSchemaError
from .kb import KnowledgeBase
from .labels import FallacyCode

SEED_SOURCES: dict[FallacyCode, str] = {
    FallacyCode.ID: """\
he(brush_teeth, 2_mins, teeth_health_for_that_day). % brushing for 2 minutes keeps teeth healthy for the day
he(brush_teeth, 14_mins, teeth_health_for_one_week). % a single 14 minute brushing keeps teeth healthy for a week
vc(2_mins, repeat_7_times_in_one_go, 14_mins). % seven back-to-back 2 minute rounds add up to 14 minutes
""",
    FallacyCode.FA: """\
hp(kid, kid_word). % the word kid contains the substring kid
hp(kidney, kid_word). % the word kidney also contains the substring kid
hp(kid, grow_into_adult). % a kid grows into an adult
""",
    FallacyCode.FP: """\
ef(people_has_two_lungs, two_lungs_breathe_out_carbon_dioxide). % having two lungs establishes that two lungs breathe out carbon dioxide
fp(two_lungs_breathe_out_carbon_dioxide, lung_number_influence_carbon_number). % the false premise that lung count sets the carbon count
po(people_can_have_one_lung, lung_number_influence_carbon_number). % observing one-lunged people seems to support the premise
fplc(lung_number_influence_carbon_number, people_can_have_one_lung, one_lung_breathe_out_carbon_monoxide). % premise plus observation yields the bogus conclusion
""",
    FallacyCode.AF: """\
hr(shampoo_bottle, lather_rinse_repeat). % the shampoo bottle carries the instruction lather rinse repeat
rri(lather_rinse_repeat, wash_once_or_twice). % read reasonably it means wash once or twice
rui(lather_rinse_repeat, infinite_washing). % read rigidly it demands infinite washing
""",
    FallacyCode.FC: """\
hp(chimney, survives_fire). % the chimney survives fire
ipo(chimney, building). % the chimney is part of the building
lp(building, survives_fire). % the building as a whole does not survive fire
""",
    FallacyCode.BQ: """\
ca(bible_true, bible_word_of_god). % the claim that the bible is true rests on it being the word of god
ema(bible_word_of_god, bible_says_god_exists). % that argument explicitly means the bible asserts god exists
emrc(bible_says_god_exists, bible_true). % the assertion relies on the bible being true
""",
    FallacyCode.CT: """\
qc(time_is_money, time_is_valuable_as_money). % in context the quote means time is as valuable as money
qoc(time_is_money, time_is_literally_money). % out of context it is read literally
froc(time_is_literally_money, third_world_countries_have_less_money). % the literal reading is tied to an unrelated fact
ifqoc(third_world_countries_have_less_money, time_is_slower_in_third_world_countries). % which improperly yields the conclusion
""",
    FallacyCode.IE: """\
cc(cycling_forwards, cycling_backwards). % cycling forwards and backwards complement each other
cc(reduce_weight, gain_weight). % reducing and gaining weight complement each other
im(cycling_forwards, reduce_weight). % cycling forwards implies reducing weight
""",
    FallacyCode.IT: """\
im(rainy_days, wet_ground). % rain implies wet ground
im(sprinklers_on, wet_ground). % sprinklers also imply wet ground
""",
    FallacyCode.WD: """\
cs(move_eye_close_to_mirror, mirror_looks_like_eye). % moving the eye close makes the mirror look like an eye
""",
    FallacyCode.FS: """\
ha(room_event, lightbulb_switch). % the switch flip happens in the room event
ha(room_event, darkness_emission). % the darkness also happens in the room event
rc(absence_of_light, darkness_emission). % the real cause of the darkness is the absence of light
""",
}


def load_seed(code: FallacyCode) -> KnowledgeBase:
    """A base holding the built-in example facts for one schema."""
    try:
        source = SEED_SOURCES[code]
    except KeyError:
        raise UnknownSchemaError(f"no seed knowledge base for {code}") from None
    return KnowledgeBase.from_text(source)
