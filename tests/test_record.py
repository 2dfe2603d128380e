"""Record semantics: every value type compares, hashes, prints and refuses
assignment as a frozen dataclass with the same fields does."""

import copy
import dataclasses
import math
import pickle

import pytest

from mosim import (
    SceneConfig,
    build_scene,
    compile_event,
    execute,
    parse_text,
    read_trace,
    verify_trace,
    write_trace,
)
from mosim import config, kinematics, lexicon, parser, programs, scene, tracefile, verify
from mosim.errors import LexiconFormatError
from mosim.kinematics import PLUS_X, ZERO3, Body, WorldState
from mosim.lexicon import MannerProfile, NounEntry, PathKind, Shape, VerbClass, VerbEntry
from mosim.programs import (
    DC,
    EC,
    Add,
    And,
    Assign,
    At,
    Attr,
    AttrTerm,
    Choice,
    Const,
    Diamond,
    DirectedAssign,
    Eq,
    EvalResult,
    Leq,
    Not,
    Or,
    Scale,
    Seq,
    Star,
    Sub,
    Test,
    Tick,
    Trace,
)
from mosim.record import Record, asdict, record, replace
from mosim.rng import stream_for

RECORD_CLASSES = sorted(
    {
        obj
        for module in (config, kinematics, lexicon, parser, programs, scene, tracefile, verify)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == module.__name__
    },
    key=lambda cls: cls.__name__,
)


@pytest.fixture(scope="module")
def samples(lex, tmp_path_factory):
    """One instance of every record class, most of them from a real run."""
    cfg = SceneConfig(seed=3)
    sentence = "the ball rolled to the wall"
    frame = parse_text(sentence, lex)
    built = build_scene(frame, lex, cfg)
    trace = execute(compile_event(frame, lex, cfg), built.initial, stream_for(cfg.seed, "choice"))
    report = verify_trace(trace, frame, built, cfg)
    path = tmp_path_factory.mktemp("records") / "t.jsonl"
    write_trace(path, "jsonl", sentence, trace, built, cfg)
    loc = Attr("ball", "loc")
    rot = AttrTerm(Attr("ball", "rot"))
    one = Const(1.0)
    at = At("ball", "wall")
    tick = Tick("roll", "ball")
    items = [
        loc, one, rot, Add(rot, one), Sub(rot, one), Scale(2.0, rot),
        EC("ball", "wall"), DC("ball", "wall"), at, Eq(rot, one, 0.5), Leq(rot, one),
        Not(at), And(at, at), Or(at, at), Diamond(tick, at), EvalResult(True),
        Assign(loc, Const((1.0, 2.0, 3.0))), DirectedAssign(loc, Const((1.0, 2.0, 3.0))),
        Test(at), tick, Seq(tick, tick), Choice(tick, tick), Star(tick, 3), trace,
        programs._Outcome([trace], False, (0, None, "no run attempted")),
        cfg, built.initial.body("ball"), built.initial, lex.lookup_noun("ball"),
        frame.verb, frame.verb.profile, frame.path, frame,
        built, read_trace(path),
        report.checks[0], report.metrics, report,
    ]
    return {type(item): item for item in items}


def _dataclass_twin(rec):
    """The same values in a frozen dataclass with the same name and fields."""
    fields = asdict(rec)
    twin = dataclasses.make_dataclass(type(rec).__name__, list(fields), frozen=True)
    return twin(**fields)


def test_samples_cover_every_record_class(samples):
    assert len(RECORD_CLASSES) == 38
    assert set(samples) == set(RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records_and_hashes(samples, cls):
    rec = samples[cls]
    positional = cls(*asdict(rec).values())
    keyword = cls(**asdict(rec))
    assert positional == rec and keyword == rec and not (positional != rec)
    assert positional is not rec
    twin = _dataclass_twin(rec)
    try:
        expected = hash(twin)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(positional) == hash(keyword) == hash(rec) == expected


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_text(samples, cls):
    assert repr(samples[cls]) == repr(_dataclass_twin(samples[cls]))


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(samples, cls):
    rec = samples[cls]
    before = asdict(rec)
    for name in [*before, "extra"]:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert asdict(rec) == before


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_give_equal_records(samples, cls):
    rec = samples[cls]
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("a,b", [
    (Seq, Choice), (EC, DC), (EC, At), (DC, At), (Add, Sub), (And, Or),
    (Assign, DirectedAssign),
], ids=lambda cls: cls.__name__)
def test_records_of_different_classes_with_equal_fields_differ(a, b):
    args = {
        Seq: (Tick("roll", "ball"), Tick("slide", "ball")),
        EC: ("ball", "wall"),
        DC: ("ball", "wall"),
        Add: (Const(1.0), Const(2.0)),
        And: (At("ball", "wall"), EC("ball", "floor")),
        Assign: (Attr("ball", "rot"), Const(1.0)),
    }[a]
    x, y = a(*args), b(*args)
    assert x != y and not (x == y)
    assert len({x, y}) == 2
    assert x == a(*args) and y == b(*args)


def test_repr_texts():
    tick = Tick("roll", "ball")
    assert repr(tick) == "Tick(action='roll', theme='ball')"
    assert repr(Star(tick, 2)) == "Star(body=Tick(action='roll', theme='ball'), bound=2)"
    assert repr(EvalResult(True)) == "EvalResult(value=True, undetermined=False)"
    assert repr(Attr("ball", "loc")) == "Attr(obj='ball', name='loc')"


def test_world_state_defaults_give_a_fresh_contacts_map_each():
    a = Body("ball", Shape.SPHERE, (0.5,), True, (0.0, 0.5, 0.0))
    b = Body("ball", Shape.SPHERE, (0.5,), True, (0.0, 0.5, 0.0))
    assert (a.heading, a.rotation, a.velocity) == (PLUS_X, 0.0, ZERO3)
    assert a == b
    kw = Body(id="ball", shape=Shape.SPHERE, dimensions=(0.5,), mobile=True,
              position=(0.0, 0.5, 0.0))
    assert kw == a
    s = WorldState(0.0, 0, {"ball": a}, SceneConfig())
    t = WorldState(0.0, 0, {"ball": a}, SceneConfig())
    assert s.contacts == {} and t.contacts == {} and s.contacts is not t.contacts
    assert s == t
    u = WorldState(time=0.0, tick_index=0, bodies={"ball": a}, cfg=SceneConfig(), contacts=None)
    assert u == s and u.contacts is not s.contacts


def test_keyword_positional_and_default_construction():
    tick = Tick("roll", "ball")
    assert Star(tick, 2) == Star(tick, bound=2) == Star(bound=2, body=tick)
    assert EvalResult(True) == EvalResult(True, False) == EvalResult(value=True, undetermined=False)
    assert not EvalResult(False) and EvalResult(True)
    assert SceneConfig() == SceneConfig(dt=1.0 / 60.0, seed=0)
    assert SceneConfig(seed=5).max_frames == 10_000
    profile = MannerProfile(lexicon.FloorContact.ALWAYS_EC, lexicon.RotationCoupling.NONE)
    verb = VerbEntry("glide", ("glided",), VerbClass.MANNER, "slide", profile, None)
    assert verb.allowed_preps == frozenset()
    assert NounEntry("rock", Shape.SPHERE, (0.2,), True).default_altitude is None


@pytest.mark.parametrize("make", [
    lambda: Tick("roll"),
    lambda: Tick("roll", "ball", "extra"),
    lambda: Tick("roll", "ball", speed=2),
    lambda: Tick("roll", action="slide"),
    lambda: SceneConfig(1.0, 2.0, 3.0, 1e-3, 9.81, 0.8, 30, 300, 10_000, 0, 1),
], ids=["missing", "too-many", "unknown-keyword", "twice", "too-many-config"])
def test_bad_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_replace_changes_the_named_fields_only():
    body = Body("ball", Shape.SPHERE, [0.5], True, (0.0, 0.5, 0.0))
    moved = replace(body, position=(1.0, 0.5, 0.0))
    assert moved.position == (1.0, 0.5, 0.0)
    assert asdict(moved) == {**asdict(body), "position": (1.0, 0.5, 0.0)}
    assert moved.dimensions is body.dimensions
    with pytest.raises(TypeError):
        replace(body, mass=1.0)
    assert SceneConfig().replace(seed=4).to_dict() == {**SceneConfig().to_dict(), "seed": 4}
    assert list(SceneConfig().to_dict()) == [
        "dt", "speed", "ground_distance", "contact_eps", "gravity", "restitution",
        "min_bare_frames", "max_bare_frames", "max_frames", "seed",
    ]


_ROLL_PROFILE = MannerProfile(lexicon.FloorContact.ALWAYS_EC, lexicon.RotationCoupling.ARC_LENGTH)


@pytest.mark.parametrize("make,error,text", [
    (lambda: Attr("ball", "mass"), ValueError, "unknown attribute 'mass'"),
    (lambda: Attr(obj="ball", name="mass"), ValueError, "unknown attribute 'mass'"),
    (lambda: Eq(Const(0.0), Const(0.0), 0.0), ValueError, "tolerance must be strictly positive"),
    (lambda: replace(Eq(Const(0.0), Const(0.0), 1.0), tol=-1.0), ValueError,
     "tolerance must be strictly positive"),
    (lambda: Star(Tick("roll", "ball"), -1), ValueError, "iteration bound must be nonnegative"),
    (lambda: replace(Star(Tick("roll", "ball"), 1), bound=-1), ValueError,
     "iteration bound must be nonnegative"),
    (lambda: Trace((), ()), ValueError, "a trace has exactly one more state than labels"),
    (lambda: NounEntry("Ball", Shape.SPHERE, (0.5,), True), LexiconFormatError,
     "lemma must be a lowercase token (field lemma)"),
    (lambda: NounEntry("ball", Shape.BOX, (0.5,), True), LexiconFormatError,
     "box takes 3 dimension(s) (field dimensions)"),
    (lambda: NounEntry("ball", Shape.SPHERE, (0.5,), True, default_altitude=0.0),
     LexiconFormatError, "default_altitude must be positive (field default_altitude)"),
    (lambda: VerbEntry("roll", (), VerbClass.MANNER, "roll", _ROLL_PROFILE, None),
     LexiconFormatError, "past_forms must be nonempty (field past_forms)"),
    (lambda: VerbEntry("roll", ("rolled",), VerbClass.MANNER, "roll", _ROLL_PROFILE,
                       PathKind.ARRIVE), LexiconFormatError,
     "only path verbs take a path_kind (field path_kind)"),
    (lambda: VerbEntry("roll", ("rolled",), VerbClass.MANNER, "roll", _ROLL_PROFILE, None,
                       frozenset({"onto"})), LexiconFormatError,
     "unknown preposition (field allowed_preps)"),
    (lambda: SceneConfig(dt=0.0), ValueError, "dt must be positive"),
    (lambda: SceneConfig(speed=math.inf), ValueError, "speed must be finite"),
    (lambda: SceneConfig().replace(restitution=1.5), ValueError, "restitution must be in (0, 1]"),
    (lambda: SceneConfig(min_bare_frames=400), ValueError,
     "min_bare_frames must not exceed max_bare_frames"),
    (lambda: SceneConfig(max_frames=0), ValueError, "frame counts must be positive"),
], ids=[
    "attr", "attr-keyword", "eq", "eq-replace", "star", "star-replace", "trace",
    "noun-lemma", "noun-dimensions", "noun-altitude", "verb-past-forms", "verb-path-kind",
    "verb-preps", "config-dt", "config-finite", "config-replace", "config-bare-frames",
    "config-max-frames",
])
def test_post_init_checks_keep_their_texts(make, error, text):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == text


@pytest.mark.parametrize("field", SceneConfig._fields)
def test_a_config_refuses_a_boolean_in_any_field(field):
    # the trace reader, as a config document, refuses it: so the writer never writes one
    kind = "a number" if field in config._FLOAT_FIELDS else "an integer"
    with pytest.raises(ValueError, match=rf"^{field} must be {kind}, not a boolean$"):
        SceneConfig(**{field: True})


@pytest.mark.parametrize("mobile", [1, 0, None, "yes"])
def test_a_body_refuses_a_mobile_that_is_not_a_boolean(mobile):
    ball = Body("ball", Shape.SPHERE, (0.5,), True, (0.0, 0.5, 0.0))
    with pytest.raises(ValueError, match=r"^mobile must be a boolean, got "):
        replace(ball, mobile=mobile)


def test_record_refuses_a_class_without_fields():
    with pytest.raises(TypeError, match="Empty declares no annotated fields"):
        @record
        class Empty:
            pass
