"""Lexicon and config documents: every refusal pinned, and no document ends in a traceback."""

import copy
import json
import math

import pytest

from mosim import SceneConfig, builtin_lexicon, load_config, load_lexicon, serialize_lexicon
from mosim.config import MAX_FRAMES, RANGES
from mosim.errors import ConfigFormatError, LexiconFormatError, MosimError

NOUN = {"lemma": "zed", "shape": "sphere", "dimensions": {"radius": 0.5}, "mobile": True}
VERB = {
    "lemma": "zap", "past_forms": ["zapped"], "class": "manner", "tick_action": "roll",
    "profile": {"floor_contact": "always_EC", "rotation_coupling": "arc_length"},
    "allowed_preps": ["to"],
}
PATH_VERB = {"lemma": "zap", "past_forms": ["zapped"], "class": "path", "path_kind": "arrive"}
DROP = object()


def noun(**edits) -> str:
    return _doc("nouns", NOUN, edits)


def verb(base=VERB, **edits) -> str:
    return _doc("verbs", base, edits)


def _doc(key, base, edits) -> str:
    entry = copy.deepcopy(base)
    for name, value in edits.items():
        if value is DROP:
            entry.pop(name)
        else:
            entry[name] = value
    return json.dumps({key: [entry]})


lexicon, config = load_lexicon, load_config


# Every refusal of the lexicon and config loaders: (loader, document) -> (class, field, text).
REFUSALS = {
    # lexicon: the document
    "lex-invalid-json": (lexicon, '{"nouns": [', LexiconFormatError, None,
                         "invalid JSON: Expecting value (line 1)"),
    "lex-not-an-object": (lexicon, "[]", LexiconFormatError, None, "expected an object"),
    "lex-unknown-key": (lexicon, '{"adjectives": []}', LexiconFormatError, "adjectives",
                        "unknown field (field adjectives)"),
    # lexicon: nouns
    "noun-not-an-object": (lexicon, '{"nouns": [1]}', LexiconFormatError, "nouns[0]",
                           "expected an object (field nouns[0])"),
    "noun-unknown-field": (lexicon, noun(color="red"), LexiconFormatError, "nouns[0].color",
                           "unknown field (field nouns[0].color)"),
    "noun-no-lemma": (lexicon, noun(lemma=DROP), LexiconFormatError, "nouns[0].lemma",
                      "missing field (field nouns[0].lemma)"),
    "noun-no-shape": (lexicon, noun(shape=DROP), LexiconFormatError, "nouns[0].shape",
                      "missing field (field nouns[0].shape)"),
    "noun-no-mobile": (lexicon, noun(mobile=DROP), LexiconFormatError, "nouns[0].mobile",
                       "missing field (field nouns[0].mobile)"),
    "noun-unknown-shape": (lexicon, noun(shape="cone"), LexiconFormatError, "nouns[0].shape",
                           "unknown shape 'cone' (field nouns[0].shape)"),
    "noun-shape-not-a-string": (lexicon, noun(shape=1), LexiconFormatError, "nouns[0].shape",
                                "expected a string (field nouns[0].shape)"),
    "noun-dimensions-not-an-object": (
        lexicon, noun(dimensions="x"), LexiconFormatError, "nouns[0].dimensions",
        "expected an object (field nouns[0].dimensions)"),
    "noun-no-radius": (lexicon, noun(dimensions={}), LexiconFormatError,
                       "nouns[0].dimensions.radius", "missing field (field nouns[0].dimensions.radius)"),
    "noun-radius-a-string": (lexicon, noun(dimensions={"radius": "x"}), LexiconFormatError,
                             "nouns[0].dimensions.radius",
                             "expected a number (field nouns[0].dimensions.radius)"),
    "noun-radius-a-boolean": (lexicon, noun(dimensions={"radius": True}), LexiconFormatError,
                              "nouns[0].dimensions.radius",
                              "expected a number (field nouns[0].dimensions.radius)"),
    "noun-extra-dimension": (lexicon, noun(dimensions={"radius": 0.5, "x": 1}), LexiconFormatError,
                             "nouns[0].dimensions",
                             "unexpected dimension key(s) for sphere: ['x'] (field nouns[0].dimensions)"),
    "noun-altitude-a-string": (lexicon, noun(default_altitude="x"), LexiconFormatError,
                               "nouns[0].default_altitude",
                               "expected a number (field nouns[0].default_altitude)"),
    "noun-mobile-a-string": (lexicon, noun(mobile="yes"), LexiconFormatError, "nouns[0].mobile",
                             "expected a boolean (field nouns[0].mobile)"),
    "noun-lemma-not-a-token": (lexicon, noun(lemma="Zed"), LexiconFormatError, "nouns[0]",
                               "lemma must be a lowercase token (field lemma) (field nouns[0])"),
    "noun-radius-negative": (lexicon, noun(dimensions={"radius": -0.1}), LexiconFormatError,
                             "nouns[0]",
                             "dimensions must be strictly positive (field dimensions) (field nouns[0])"),
    "noun-mobile-plane": (lexicon, noun(lemma="floor", shape="plane", dimensions={}),
                          LexiconFormatError, "nouns[0]",
                          "plane entries are immobile (field mobile) (field nouns[0])"),
    "noun-altitude-zero": (lexicon, noun(default_altitude=0), LexiconFormatError, "nouns[0]",
                           "default_altitude must be positive (field default_altitude) (field nouns[0])"),
    "noun-second-plane": (lexicon, noun(lemma="ground", shape="plane", dimensions={}, mobile=False),
                          LexiconFormatError, "nouns[0]",
                          "the floor is the only plane: 'floor' and no other noun takes shape plane"
                          " (field shape) (field nouns[0])"),
    "noun-radius-too-large": (lexicon, noun(dimensions={"radius": 1e4}), LexiconFormatError,
                              "nouns[0]",
                              "dimensions must lie within [0.001, 1000] m (field dimensions)"
                              " (field nouns[0])"),
    "noun-radius-nan": (lexicon, noun(dimensions={"radius": float("nan")}), LexiconFormatError,
                        "nouns[0]",
                        "dimensions must lie within [0.001, 1000] m (field dimensions)"
                        " (field nouns[0])"),
    "noun-altitude-too-large": (lexicon, noun(default_altitude=1e4), LexiconFormatError, "nouns[0]",
                                "default_altitude must lie within [0.001, 1000] m"
                                " (field default_altitude) (field nouns[0])"),
    # lexicon: verbs
    "verb-not-an-object": (lexicon, '{"verbs": [1]}', LexiconFormatError, "verbs[0]",
                           "expected an object (field verbs[0])"),
    "verb-unknown-field": (lexicon, verb(manner="x"), LexiconFormatError, "verbs[0].manner",
                           "unknown field (field verbs[0].manner)"),
    "verb-no-lemma": (lexicon, verb(lemma=DROP), LexiconFormatError, "verbs[0].lemma",
                      "missing field (field verbs[0].lemma)"),
    "verb-no-past-forms": (lexicon, verb(past_forms=DROP), LexiconFormatError, "verbs[0].past_forms",
                           "missing field (field verbs[0].past_forms)"),
    "verb-no-class": (lexicon, verb(**{"class": DROP}), LexiconFormatError, "verbs[0].class",
                      "missing field (field verbs[0].class)"),
    "verb-past-forms-a-string": (lexicon, verb(past_forms="zapped"), LexiconFormatError,
                                 "verbs[0].past_forms",
                                 "expected a list of strings (field verbs[0].past_forms)"),
    "verb-past-forms-holding-a-number": (lexicon, verb(past_forms=[1]), LexiconFormatError,
                                         "verbs[0].past_forms",
                                         "expected a list of strings (field verbs[0].past_forms)"),
    "verb-unknown-class": (lexicon, verb(**{"class": "sport"}), LexiconFormatError, "verbs[0].class",
                           "unknown verb class (field verbs[0].class)"),
    "verb-class-not-a-string": (lexicon, verb(**{"class": 1}), LexiconFormatError, "verbs[0].class",
                                "expected a string (field verbs[0].class)"),
    "verb-unknown-path-kind": (lexicon, verb(PATH_VERB, path_kind="around"), LexiconFormatError,
                               "verbs[0].path_kind", "unknown path_kind (field verbs[0].path_kind)"),
    "verb-path-kind-empty": (lexicon, verb(PATH_VERB, path_kind=""), LexiconFormatError,
                             "verbs[0].path_kind", "unknown path_kind (field verbs[0].path_kind)"),
    "verb-path-kind-not-a-string": (lexicon, verb(PATH_VERB, path_kind=1), LexiconFormatError,
                                    "verbs[0].path_kind",
                                    "expected a string (field verbs[0].path_kind)"),
    "verb-profile-not-an-object": (lexicon, verb(profile="x"), LexiconFormatError, "verbs[0].profile",
                                   "expected an object (field verbs[0].profile)"),
    "verb-profile-no-floor-contact": (
        lexicon, verb(profile={"rotation_coupling": "none"}), LexiconFormatError,
        "verbs[0].profile.floor_contact", "missing field (field verbs[0].profile.floor_contact)"),
    "verb-unknown-profile-value": (
        lexicon, verb(profile={"floor_contact": "sometimes", "rotation_coupling": "none"}),
        LexiconFormatError, "verbs[0].profile", "unknown profile value (field verbs[0].profile)"),
    "verb-profile-value-not-a-string": (
        lexicon, verb(profile={"floor_contact": 1, "rotation_coupling": "none"}),
        LexiconFormatError, "verbs[0].profile.floor_contact",
        "expected a string (field verbs[0].profile.floor_contact)"),
    "verb-preps-a-string": (lexicon, verb(allowed_preps="to"), LexiconFormatError,
                            "verbs[0].allowed_preps",
                            "expected a list of strings (field verbs[0].allowed_preps)"),
    "verb-lemma-not-a-token": (lexicon, verb(lemma="Zap"), LexiconFormatError, "verbs[0]",
                               "lemma must be a lowercase token (field lemma) (field verbs[0])"),
    "verb-no-past-form": (lexicon, verb(past_forms=[]), LexiconFormatError, "verbs[0]",
                          "past_forms must be nonempty (field past_forms) (field verbs[0])"),
    "verb-manner-without-action": (
        lexicon, verb(tick_action=DROP), LexiconFormatError, "verbs[0]",
        "manner/generic verbs need a tick_action (field tick_action) (field verbs[0])"),
    "verb-unknown-action": (
        lexicon, verb(tick_action="swim"), LexiconFormatError, "verbs[0]",
        "manner/generic verbs need a tick_action (field tick_action) (field verbs[0])"),
    "verb-action-not-a-string": (lexicon, verb(tick_action=1), LexiconFormatError,
                                 "verbs[0].tick_action",
                                 "expected a string (field verbs[0].tick_action)"),
    "verb-manner-with-path-kind": (
        lexicon, verb(path_kind="arrive"), LexiconFormatError, "verbs[0]",
        "only path verbs take a path_kind (field path_kind) (field verbs[0])"),
    "verb-path-without-path-kind": (
        lexicon, verb(PATH_VERB, path_kind=DROP), LexiconFormatError, "verbs[0]",
        "path verbs need a path_kind (field path_kind) (field verbs[0])"),
    "verb-unknown-preposition": (
        lexicon, verb(allowed_preps=["onto"]), LexiconFormatError, "verbs[0]",
        "unknown preposition (field allowed_preps) (field verbs[0])"),
    # config
    "cfg-invalid-json": (config, '{"dt": ', ConfigFormatError, None,
                         "invalid JSON: Expecting value (line 1)"),
    "cfg-not-an-object": (config, "[]", ConfigFormatError, None, "expected an object"),
    "cfg-unknown-field": (config, '{"colour": 1}', ConfigFormatError, "colour",
                          "unknown field (field colour)"),
    "cfg-dt-a-string": (config, '{"dt": "x"}', ConfigFormatError, "dt", "expected a number (field dt)"),
    "cfg-dt-a-boolean": (config, '{"dt": true}', ConfigFormatError, "dt",
                         "expected a number (field dt)"),
    "cfg-dt-null": (config, '{"dt": null}', ConfigFormatError, "dt", "expected a number (field dt)"),
    "cfg-max-frames-a-float": (config, '{"max_frames": 300.0}', ConfigFormatError, "max_frames",
                               "expected an integer (field max_frames)"),
    "cfg-seed-a-boolean": (config, '{"seed": true}', ConfigFormatError, "seed",
                           "expected an integer (field seed)"),
    "cfg-dt-nan": (config, '{"dt": NaN}', ConfigFormatError, None, "dt must be finite"),
    "cfg-gravity-infinite": (config, '{"gravity": Infinity}', ConfigFormatError, None,
                             "gravity must be finite"),
    "cfg-dt-zero": (config, '{"dt": 0}', ConfigFormatError, None, "dt must be positive"),
    "cfg-speed-negative": (config, '{"speed": -1}', ConfigFormatError, None,
                           "speed must be positive"),
    "cfg-contact-eps-zero": (config, '{"contact_eps": 0}', ConfigFormatError, None,
                             "contact_eps must be positive"),
    "cfg-restitution-above-1": (config, '{"restitution": 1.5}', ConfigFormatError, None,
                                "restitution must be in (0, 1]"),
    "cfg-bare-frames-crossed": (config, '{"min_bare_frames": 400}', ConfigFormatError, None,
                                "min_bare_frames must not exceed max_bare_frames"),
    "cfg-max-frames-zero": (config, '{"max_frames": 0}', ConfigFormatError, None,
                            "frame counts must be positive"),
    "cfg-min-bare-frames-negative": (config, '{"min_bare_frames": -1}', ConfigFormatError, None,
                                     "frame counts must be positive"),
    # documents that ended in a traceback before the field walk
    "lex-nouns-not-a-list": (lexicon, '{"nouns": 1}', LexiconFormatError, "nouns",
                             "expected a list (field nouns)"),
    "lex-verbs-null": (lexicon, '{"verbs": null}', LexiconFormatError, "verbs",
                       "expected a list (field verbs)"),
    "lex-nested-too-deeply": (lexicon, "[" * 100_000, LexiconFormatError, None,
                              "invalid JSON: nested too deeply"),
    "noun-lemma-not-a-string": (lexicon, noun(lemma=1), LexiconFormatError, "nouns[0].lemma",
                                "expected a string (field nouns[0].lemma)"),
    "noun-radius-400-digits": (lexicon, noun(dimensions={"radius": 10**400}), LexiconFormatError,
                               "nouns[0]",
                               "dimensions must lie within [0.001, 1000] m (field dimensions)"
                               " (field nouns[0])"),
    "verb-lemma-not-a-string": (lexicon, verb(lemma=[]), LexiconFormatError, "verbs[0].lemma",
                                "expected a string (field verbs[0].lemma)"),
    "verb-action-a-list": (lexicon, verb(tick_action=[]), LexiconFormatError, "verbs[0].tick_action",
                           "expected a string (field verbs[0].tick_action)"),
    "cfg-dt-400-digits": (config, '{"dt": 1%s}' % ("0" * 400), ConfigFormatError, None,
                          "dt must be finite"),
    "cfg-seed-5000-digits": (config, '{"seed": 1%s}' % ("0" * 5000), ConfigFormatError, None,
                             "invalid JSON: a number with too many digits"),
    # the config ranges
    "cfg-ground-distance-1e308": (config, '{"ground_distance": 1e308}', ConfigFormatError, None,
                                  "ground_distance must lie within [0.001, 1000]"),
    "cfg-max-frames-too-many": (config, '{"max_frames": 1000001}', ConfigFormatError, None,
                                "frame counts must not exceed 1,000,000"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_every_refusal_keeps_its_class_field_and_text(name):
    load, text, error, field, message = REFUSALS[name]
    with pytest.raises(MosimError) as got:
        load(text)
    assert type(got.value) is error
    assert got.value.field == field
    assert str(got.value) == message


def _paths(node, path=()):
    if path:
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def test_no_single_field_mutation_of_the_builtin_lexicon_ends_in_a_traceback():
    doc = json.loads(serialize_lexicon(builtin_lexicon()))
    mutations = 0
    for path in _paths(doc):
        for value in (1, None, "x", [], {}, True, 1.5):
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            mutations += 1
            try:
                load_lexicon(json.dumps(mutant))
            except MosimError:
                pass
    assert mutations == 938


@pytest.mark.parametrize("name", RANGES)
def test_config_floats_load_at_the_ends_of_their_range_and_not_past_them(name):
    lo, hi = RANGES[name]
    for value in (lo, hi):
        assert getattr(config(json.dumps({name: value})), name) == value
    for value in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
        with pytest.raises(ConfigFormatError) as got:
            config(json.dumps({name: value}))
        assert str(got.value) == f"{name} must lie within [{lo:g}, {hi:g}]"


@pytest.mark.parametrize("name", ["max_frames", "max_bare_frames"])
def test_frame_counts_load_up_to_their_limit(name):
    assert getattr(config(json.dumps({name: MAX_FRAMES})), name) == MAX_FRAMES
    with pytest.raises(ConfigFormatError, match="^frame counts must not exceed 1,000,000$"):
        config(json.dumps({name: MAX_FRAMES + 1}))



@pytest.mark.parametrize("base", [None, SceneConfig(seed=3, speed=2.0)], ids=["defaults", "base"])
def test_a_config_document_builds_one_config(monkeypatch, base):
    # the field spec comes from the defaults or the base, not from a config built to read them
    built = []
    check = SceneConfig.__post_init__
    monkeypatch.setattr(SceneConfig, "__post_init__", lambda self: (built.append(self), check(self)))
    cfg = load_config('{"dt": 0.02}', base)
    assert built == [cfg]
    assert cfg == (base or SceneConfig()).replace(dt=0.02)
