import json

import pytest

from mosim import (
    FloorContact,
    RotationCoupling,
    Shape,
    VerbClass,
    load_lexicon,
    serialize_lexicon,
)
from mosim.errors import DuplicateEntryError, LexiconFormatError, UnknownWordError
from mosim.lexicon import (
    DIM_KEYS,
    MANNER_PROFILES,
    MAX_SIZE,
    MIN_SIZE,
    TICK_ACTIONS,
    MannerProfile,
    NounEntry,
)

# the fixed contact/rotation table for the four manner verbs
PROFILE_TABLE = {
    "roll": (FloorContact.ALWAYS_EC, RotationCoupling.ARC_LENGTH),
    "slide": (FloorContact.ALWAYS_EC, RotationCoupling.NONE),
    "bounce": (FloorContact.ALTERNATING, RotationCoupling.UNCONSTRAINED),
    "fly": (FloorContact.ALWAYS_DC, RotationCoupling.NONE),
}


def test_builtin_membership(lex):
    for noun in ("ball", "block", "bird", "wall"):
        assert lex.lookup_noun(noun).lemma == noun
    for verb in ("roll", "slide", "bounce", "fly", "move", "arrive", "leave"):
        assert lex.lookup_verb(verb).lemma == verb


def test_builtin_ball_is_sphere(lex):
    entry = lex.lookup_noun("ball")
    assert entry.shape is Shape.SPHERE
    assert entry.dimensions == (0.5,)
    assert entry.mobile


def test_rolled_resolves_to_manner_roll(lex):
    entry = lex.lookup_verb_by_form("rolled")
    assert entry.lemma == "roll"
    assert entry.verb_class is VerbClass.MANNER


def test_arrived_resolves_to_path_verb(lex):
    entry = lex.lookup_verb_by_form("arrived")
    assert entry.lemma == "arrive"
    assert entry.verb_class is VerbClass.PATH
    assert entry.path_kind is not None and entry.path_kind.value == "arrive"


def test_lookup_by_form_cases(lex):
    assert lex.lookup_verb_by_form("slid").lemma == "slide"
    assert lex.lookup_verb_by_form("ROLLED").lemma == "roll"
    with pytest.raises(UnknownWordError):
        lex.lookup_verb_by_form("zorped")


def test_manner_profiles_match_fixed_table(lex):
    for lemma, (contact, coupling) in PROFILE_TABLE.items():
        profile = lex.lookup_verb(lemma).profile
        assert profile == MannerProfile(contact, coupling), lemma
    # generic motion constrains nothing: it must accept roll and slide traces
    move = lex.lookup_verb("move").profile
    assert move.floor_contact is FloorContact.UNCONSTRAINED
    assert move.rotation_coupling is RotationCoupling.UNCONSTRAINED


def test_every_entry_satisfies_invariants(lex):
    for noun in lex.nouns.values():
        assert all(d > 0 for d in noun.dimensions)
        if noun.shape is Shape.PLANE:
            assert not noun.mobile
    for verb in lex.verbs.values():
        assert verb.past_forms
        if verb.verb_class in (VerbClass.MANNER, VerbClass.GENERIC):
            assert verb.tick_action in TICK_ACTIONS
        else:
            assert verb.path_kind is not None


def test_load_adds_to_builtin(lex):
    doc = json.dumps({
        "nouns": [{"lemma": "cube", "shape": "box",
                   "dimensions": {"width": 0.3, "height": 0.3, "depth": 0.3},
                   "mobile": True}]
    })
    merged = load_lexicon(doc)
    assert len(merged) == len(lex) + 1
    assert merged.lookup_noun("cube").shape is Shape.BOX


def test_load_rejects_negative_radius():
    doc = json.dumps({
        "nouns": [{"lemma": "pebble", "shape": "sphere",
                   "dimensions": {"radius": -0.1}, "mobile": True}]
    })
    with pytest.raises(LexiconFormatError):
        load_lexicon(doc)


def test_load_override_replaces_builtin():
    doc = json.dumps({
        "nouns": [{"lemma": "ball", "shape": "box",
                   "dimensions": {"width": 1, "height": 1, "depth": 1},
                   "mobile": True}]
    })
    merged = load_lexicon(doc)
    assert merged.lookup_noun("ball").shape is Shape.BOX


def test_load_duplicate_within_document():
    noun = {"lemma": "cube", "shape": "sphere", "dimensions": {"radius": 1}, "mobile": True}
    with pytest.raises(DuplicateEntryError):
        load_lexicon(json.dumps({"nouns": [noun, noun]}))


def test_load_reports_field_and_line():
    with pytest.raises(LexiconFormatError) as exc:
        load_lexicon('{"nouns": [')
    assert exc.value.line is not None
    with pytest.raises(LexiconFormatError) as exc:
        load_lexicon(json.dumps({"nouns": [{"lemma": "x", "shape": "cone",
                                            "dimensions": {}, "mobile": True}]}))
    assert "shape" in str(exc.value)


def test_serialize_round_trip(lex):
    assert load_lexicon(serialize_lexicon(lex)) == lex


def test_round_trip_with_custom_entries(lex):
    doc = json.dumps({
        "nouns": [{"lemma": "crate", "shape": "box",
                   "dimensions": {"width": 2, "height": 1, "depth": 1},
                   "mobile": True, "default_altitude": 2.5}],
        "verbs": [{"lemma": "drift", "past_forms": ["drifted"], "class": "manner",
                   "tick_action": "fly",
                   "profile": {"floor_contact": "always_DC", "rotation_coupling": "none"},
                   "allowed_preps": ["to", "towards"]}],
    })
    merged = load_lexicon(doc)
    assert load_lexicon(serialize_lexicon(merged)) == merged


def test_plane_entries_are_immobile():
    with pytest.raises(LexiconFormatError):
        NounEntry("sheet", Shape.PLANE, (), mobile=True)


def test_manner_profile_constants_consistent():
    assert MANNER_PROFILES["roll"].rotation_coupling is RotationCoupling.ARC_LENGTH
    assert MANNER_PROFILES["fly"].floor_contact is FloorContact.ALWAYS_DC


@pytest.mark.parametrize("lemma, shape, dims, mobile", [
    ("ground", Shape.PLANE, (), False),
    ("floor", Shape.SPHERE, (0.5,), True),
    ("floor", Shape.BOX, (1.0, 1.0, 1.0), False),
])
def test_the_floor_is_the_only_plane(lemma, shape, dims, mobile):
    with pytest.raises(LexiconFormatError, match="the floor is the only plane"):
        NounEntry(lemma, shape, dims, mobile)
    obj = {"lemma": lemma, "shape": shape.value, "mobile": mobile,
           "dimensions": dict(zip(DIM_KEYS[shape], dims))}
    with pytest.raises(LexiconFormatError, match=r"the floor is the only plane.*\(field nouns\[0\]\)"):
        load_lexicon(json.dumps({"nouns": [obj]}))


def test_plane_rule_runs_after_the_older_checks():
    with pytest.raises(LexiconFormatError, match="plane entries are immobile"):
        NounEntry("sheet", Shape.PLANE, (), mobile=True)
    with pytest.raises(LexiconFormatError, match="sphere takes 1 dimension"):
        NounEntry("floor", Shape.SPHERE, (), mobile=False)



@pytest.mark.parametrize("dims, altitude, field", [
    ((MIN_SIZE * 0.999,), None, "dimensions"),
    ((MAX_SIZE * 1.001,), None, "dimensions"),
    ((1e308,), None, "dimensions"),
    ((0.5,), MIN_SIZE * 0.999, "default_altitude"),
    ((0.5,), 1e308, "default_altitude"),
])
def test_noun_sizes_and_altitudes_are_bounded(dims, altitude, field):
    with pytest.raises(LexiconFormatError, match=rf"must lie within \[0\.001, 1000\] m \(field {field}\)"):
        NounEntry("zed", Shape.SPHERE, dims, True, altitude)
    obj = {"lemma": "zed", "shape": "sphere", "dimensions": {"radius": dims[0]}, "mobile": True,
           "default_altitude": altitude}
    with pytest.raises(LexiconFormatError, match=r"must lie within .* \(field nouns\[0\]\)"):
        load_lexicon(json.dumps({"nouns": [obj]}))


def test_sizes_at_the_ends_of_the_range_load(lex):
    for size in (MIN_SIZE, MAX_SIZE):
        NounEntry("zed", Shape.SPHERE, (size,), True, size)
        NounEntry("zed", Shape.BOX, (size, size, size), True, size)
    for entry in lex.nouns.values():   # the builtin lexicon is inside the range
        assert all(MIN_SIZE <= d <= MAX_SIZE for d in entry.dimensions)
