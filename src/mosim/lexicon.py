"""Noun and verb knowledge driving scene construction and program templates.

Nouns carry the geometry needed to instantiate a minimal scene (shape,
dimensions, mobility).  Verbs carry their class, the atomic action label
their motion expands into, and a manner profile: which floor-contact
pattern must hold throughout the motion and how rotation couples to the
path.  The builtin set covers one verb per contact profile plus the two
path verbs; a JSON lexicon file can extend or override it.
"""

from __future__ import annotations

import enum
import json

from .errors import (
    BOOLEAN,
    LIST,
    NUMBER,
    OBJECT,
    REQUIRED,
    STRING,
    STRINGS,
    DuplicateEntryError,
    LexiconFormatError,
    UnknownWordError,
    parse_json,
    walk_fields,
)
from .record import record

# The floor is a scene's only plane, and this is its id and its noun's lemma.
FLOOR_ID = "floor"


class Shape(enum.Enum):
    SPHERE = "sphere"
    BOX = "box"
    PLANE = "plane"


# Dimension names per shape, in the order of ``NounEntry.dimensions``.
DIM_KEYS = {
    Shape.SPHERE: ("radius",),
    Shape.BOX: ("width", "height", "depth"),
    Shape.PLANE: (),
}


class VerbClass(enum.Enum):
    MANNER = "manner"
    PATH = "path"
    GENERIC = "generic"


class FloorContact(enum.Enum):
    ALWAYS_EC = "always_EC"
    ALWAYS_DC = "always_DC"
    ALTERNATING = "alternating"
    UNCONSTRAINED = "unconstrained"


class RotationCoupling(enum.Enum):
    ARC_LENGTH = "arc_length"
    NONE = "none"
    UNCONSTRAINED = "unconstrained"


class PathKind(enum.Enum):
    ARRIVE = "arrive"
    LEAVE = "leave"


# What each preposition does with its ground: "to" and "at" arrive at it,
# "from" leaves it, and "towards" only sets the direction of motion.
PREP_ROLES = {"to": PathKind.ARRIVE, "from": PathKind.LEAVE, "towards": None, "at": PathKind.ARRIVE}
PREPOSITIONS = tuple(PREP_ROLES)


TICK_ACTIONS = frozenset({"roll", "slide", "bounce", "fly", "move"})


@record
class MannerProfile:
    floor_contact: FloorContact
    rotation_coupling: RotationCoupling


# Generic motion constrains neither contact nor rotation; it is the
# profile every path verb inherits for its tick phase.
MOVE_PROFILE = MannerProfile(FloorContact.UNCONSTRAINED, RotationCoupling.UNCONSTRAINED)

MANNER_PROFILES = {
    "roll": MannerProfile(FloorContact.ALWAYS_EC, RotationCoupling.ARC_LENGTH),
    "slide": MannerProfile(FloorContact.ALWAYS_EC, RotationCoupling.NONE),
    "bounce": MannerProfile(FloorContact.ALTERNATING, RotationCoupling.UNCONSTRAINED),
    "fly": MannerProfile(FloorContact.ALWAYS_DC, RotationCoupling.NONE),
    "move": MOVE_PROFILE,
}


# Noun sizes and altitudes, in meters.  Far outside this range the absolute
# tolerances of contact and rotation checks stop meaning anything, and squared
# gaps overflow.
MIN_SIZE, MAX_SIZE = 1e-3, 1e3


@record
class NounEntry:
    lemma: str
    shape: Shape
    dimensions: tuple[float, ...]
    mobile: bool
    default_altitude: float | None = None

    def __post_init__(self) -> None:
        if self.lemma != self.lemma.lower() or not self.lemma.isalpha():
            raise LexiconFormatError("lemma must be a lowercase token", field="lemma")
        expected = len(DIM_KEYS[self.shape])
        if len(self.dimensions) != expected:
            raise LexiconFormatError(
                f"{self.shape.value} takes {expected} dimension(s)", field="dimensions"
            )
        if any(d <= 0 for d in self.dimensions):
            raise LexiconFormatError("dimensions must be strictly positive", field="dimensions")
        if self.shape is Shape.PLANE and self.mobile:
            raise LexiconFormatError("plane entries are immobile", field="mobile")
        if self.default_altitude is not None and self.default_altitude <= 0:
            raise LexiconFormatError("default_altitude must be positive", field="default_altitude")
        if (self.shape is Shape.PLANE) != (self.lemma == FLOOR_ID):
            raise LexiconFormatError(
                f"the floor is the only plane: {FLOOR_ID!r} and no other noun takes shape plane",
                field="shape",
            )
        if not all(MIN_SIZE <= d <= MAX_SIZE for d in self.dimensions):
            raise LexiconFormatError(
                f"dimensions must lie within [{MIN_SIZE:g}, {MAX_SIZE:g}] m", field="dimensions"
            )
        if self.default_altitude is not None and not MIN_SIZE <= self.default_altitude <= MAX_SIZE:
            raise LexiconFormatError(
                f"default_altitude must lie within [{MIN_SIZE:g}, {MAX_SIZE:g}] m",
                field="default_altitude",
            )


@record
class VerbEntry:
    lemma: str
    past_forms: tuple[str, ...]
    verb_class: VerbClass
    tick_action: str | None
    profile: MannerProfile
    path_kind: PathKind | None
    allowed_preps: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.lemma != self.lemma.lower() or not self.lemma.isalpha():
            raise LexiconFormatError("lemma must be a lowercase token", field="lemma")
        if not self.past_forms:
            raise LexiconFormatError("past_forms must be nonempty", field="past_forms")
        if self.verb_class in (VerbClass.MANNER, VerbClass.GENERIC):
            if self.tick_action not in TICK_ACTIONS:
                raise LexiconFormatError(
                    "manner/generic verbs need a tick_action", field="tick_action"
                )
            if self.path_kind is not None:
                raise LexiconFormatError(
                    "only path verbs take a path_kind", field="path_kind"
                )
        else:
            if self.path_kind is None:
                raise LexiconFormatError("path verbs need a path_kind", field="path_kind")
        if not self.allowed_preps <= set(PREPOSITIONS):
            raise LexiconFormatError("unknown preposition", field="allowed_preps")


class Lexicon:
    """Immutable map of lemma to entry; safe for concurrent reads."""

    def __init__(self, nouns: dict[str, NounEntry], verbs: dict[str, VerbEntry]):
        self._nouns = dict(nouns)
        self._verbs = dict(verbs)

    @property
    def nouns(self) -> dict[str, NounEntry]:
        return dict(self._nouns)

    @property
    def verbs(self) -> dict[str, VerbEntry]:
        return dict(self._verbs)

    def __len__(self) -> int:
        return len(self._nouns) + len(self._verbs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        return self._nouns == other._nouns and self._verbs == other._verbs

    def lookup_noun(self, lemma: str) -> NounEntry:
        entry = self._nouns.get(lemma.casefold())
        if entry is None:
            raise UnknownWordError(lemma)
        return entry

    def lookup_verb(self, lemma: str) -> VerbEntry:
        entry = self._verbs.get(lemma.casefold())
        if entry is None:
            raise UnknownWordError(lemma)
        return entry

    def lookup_verb_by_form(self, surface: str) -> VerbEntry:
        """Resolve a surface token against lemmas and past-tense forms."""
        token = surface.casefold()
        if token in self._verbs:
            return self._verbs[token]
        for entry in self._verbs.values():
            if token in entry.past_forms:
                return entry
        raise UnknownWordError(surface)

    def is_noun(self, token: str) -> bool:
        return token.casefold() in self._nouns

    def is_verb_form(self, token: str) -> bool:
        try:
            self.lookup_verb_by_form(token)
            return True
        except UnknownWordError:
            return False


def _noun(lemma, shape, dims, mobile, altitude=None) -> NounEntry:
    return NounEntry(lemma, shape, tuple(float(d) for d in dims), mobile, altitude)


def _verb(lemma, past, cls, action=None, profile=MOVE_PROFILE, kind=None, preps=()) -> VerbEntry:
    return VerbEntry(lemma, tuple(past), cls, action, profile, kind, frozenset(preps))


_MOTION_PREPS = ("to", "from", "towards")


def builtin_lexicon() -> Lexicon:
    """Desk-scale defaults: one noun per shape role, one verb per profile."""
    nouns = [
        _noun("ball", Shape.SPHERE, (0.5,), True),
        _noun("block", Shape.BOX, (1.0, 1.0, 1.0), True),
        _noun("bird", Shape.SPHERE, (0.2,), True, altitude=1.5),
        _noun("wall", Shape.BOX, (4.0, 2.0, 0.2), False),
        _noun("floor", Shape.PLANE, (), False),
    ]
    verbs = [
        _verb("roll", ["rolled"], VerbClass.MANNER, "roll",
              MANNER_PROFILES["roll"], preps=_MOTION_PREPS),
        _verb("slide", ["slid"], VerbClass.MANNER, "slide",
              MANNER_PROFILES["slide"], preps=_MOTION_PREPS),
        _verb("bounce", ["bounced"], VerbClass.MANNER, "bounce",
              MANNER_PROFILES["bounce"], preps=_MOTION_PREPS),
        _verb("fly", ["flew"], VerbClass.MANNER, "fly",
              MANNER_PROFILES["fly"], preps=_MOTION_PREPS),
        _verb("move", ["moved"], VerbClass.GENERIC, "move",
              MANNER_PROFILES["move"], preps=_MOTION_PREPS),
        _verb("arrive", ["arrived"], VerbClass.PATH,
              kind=PathKind.ARRIVE, preps=("at",)),
        _verb("leave", ["left"], VerbClass.PATH,
              kind=PathKind.LEAVE, preps=("from",)),
    ]
    return Lexicon({n.lemma: n for n in nouns}, {v.lemma: v for v in verbs})


# -- JSON lexicon files -------------------------------------------------------

_NOUN_FIELDS = {
    "lemma": (STRING, REQUIRED),
    "shape": (STRING, REQUIRED),
    "dimensions": (OBJECT, {}),
    "default_altitude": (NUMBER, None),
    "mobile": (BOOLEAN, REQUIRED),
}
_VERB_FIELDS = {
    "lemma": (STRING, REQUIRED),
    "past_forms": (STRINGS, REQUIRED),
    "class": (STRING, REQUIRED),
    "tick_action": (STRING, None),
    "path_kind": (STRING, None),
    "profile": (OBJECT, None),
    "allowed_preps": (STRINGS, []),
}
_PROFILE_FIELDS = {"floor_contact": (STRING, REQUIRED), "rotation_coupling": (STRING, REQUIRED)}


def _member(enum_type: type[enum.Enum], value: str, message: str, field: str):
    try:
        return enum_type(value)
    except ValueError:
        raise LexiconFormatError(message, field=field) from None


def _parse_noun(obj, where: str) -> NounEntry:
    f = walk_fields(obj, _NOUN_FIELDS, where, LexiconFormatError)
    shape = _member(Shape, f["shape"], f"unknown shape {f['shape']!r}", f"{where}.shape")
    keys = DIM_KEYS[shape]
    extra = set(f["dimensions"]) - set(keys)
    if extra:
        raise LexiconFormatError(
            f"unexpected dimension key(s) for {shape.value}: {sorted(extra)}",
            field=f"{where}.dimensions",
        )
    dims = walk_fields(f["dimensions"], {key: (NUMBER, REQUIRED) for key in keys},
                       f"{where}.dimensions", LexiconFormatError)
    try:
        return NounEntry(f["lemma"], shape, tuple(dims.values()), f["mobile"], f["default_altitude"])
    except LexiconFormatError as exc:
        raise LexiconFormatError(str(exc), field=where) from exc


def _parse_verb(obj, where: str) -> VerbEntry:
    f = walk_fields(obj, _VERB_FIELDS, where, LexiconFormatError)
    cls = _member(VerbClass, f["class"], "unknown verb class", f"{where}.class")
    kind = None
    if f["path_kind"] is not None:
        kind = _member(PathKind, f["path_kind"], "unknown path_kind", f"{where}.path_kind")
    profile = MOVE_PROFILE
    if f["profile"] is not None:
        p = walk_fields(f["profile"], _PROFILE_FIELDS, f"{where}.profile", LexiconFormatError)
        profile = MannerProfile(
            _member(FloorContact, p["floor_contact"], "unknown profile value", f"{where}.profile"),
            _member(RotationCoupling, p["rotation_coupling"], "unknown profile value",
                    f"{where}.profile"),
        )
    try:
        return VerbEntry(f["lemma"], tuple(f["past_forms"]), cls, f["tick_action"], profile, kind,
                         frozenset(f["allowed_preps"]))
    except LexiconFormatError as exc:
        raise LexiconFormatError(str(exc), field=where) from exc


def load_lexicon(text: str) -> Lexicon:
    """Parse a JSON lexicon document, overriding builtin entries by lemma.

    Duplicates inside the document raise; overriding a builtin does not.
    """
    data = parse_json(text, LexiconFormatError)
    doc = walk_fields(data, {"nouns": (LIST, []), "verbs": (LIST, [])}, None, LexiconFormatError)
    base = builtin_lexicon()
    nouns, verbs = base.nouns, base.verbs
    for key, parse, entries in (("nouns", _parse_noun, nouns), ("verbs", _parse_verb, verbs)):
        seen: set[str] = set()
        for i, obj in enumerate(doc[key]):
            entry = parse(obj, f"{key}[{i}]")
            if entry.lemma in seen:
                raise DuplicateEntryError(entry.lemma)
            seen.add(entry.lemma)
            entries[entry.lemma] = entry
    return Lexicon(nouns, verbs)


def _noun_to_obj(entry: NounEntry) -> dict:
    dims = dict(zip(DIM_KEYS[entry.shape], entry.dimensions))
    return {
        "lemma": entry.lemma,
        "shape": entry.shape.value,
        "dimensions": dims,
        "mobile": entry.mobile,
        "default_altitude": entry.default_altitude,
    }


def _verb_to_obj(entry: VerbEntry) -> dict:
    return {
        "lemma": entry.lemma,
        "past_forms": list(entry.past_forms),
        "class": entry.verb_class.value,
        "tick_action": entry.tick_action,
        "profile": {
            "floor_contact": entry.profile.floor_contact.value,
            "rotation_coupling": entry.profile.rotation_coupling.value,
        },
        "path_kind": entry.path_kind.value if entry.path_kind else None,
        "allowed_preps": sorted(entry.allowed_preps),
    }


def serialize_lexicon(lex: Lexicon) -> str:
    doc = {
        "nouns": [_noun_to_obj(lex.nouns[k]) for k in sorted(lex.nouns)],
        "verbs": [_verb_to_obj(lex.verbs[k]) for k in sorted(lex.verbs)],
    }
    return json.dumps(doc, indent=2) + "\n"
