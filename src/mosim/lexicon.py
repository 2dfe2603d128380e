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

from .errors import DuplicateEntryError, LexiconFormatError, UnknownWordError
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

def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise LexiconFormatError("missing field", field=f"{where}.{key}")
    return obj[key]


def _parse_noun(obj: dict, where: str) -> NounEntry:
    if not isinstance(obj, dict):
        raise LexiconFormatError("noun entry must be an object", field=where)
    known = {"lemma", "shape", "dimensions", "mobile", "default_altitude"}
    for key in obj:
        if key not in known:
            raise LexiconFormatError("unknown field", field=f"{where}.{key}")
    lemma = _require(obj, "lemma", where)
    shape_name = _require(obj, "shape", where)
    try:
        shape = Shape(shape_name)
    except ValueError:
        raise LexiconFormatError(f"unknown shape {shape_name!r}", field=f"{where}.shape")
    dims_obj = obj.get("dimensions", {})
    if not isinstance(dims_obj, dict):
        raise LexiconFormatError("dimensions must be an object", field=f"{where}.dimensions")
    dims = []
    for key in DIM_KEYS[shape]:
        value = _require(dims_obj, key, f"{where}.dimensions")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise LexiconFormatError("expected a number", field=f"{where}.dimensions.{key}")
        dims.append(float(value))
    extra = set(dims_obj) - set(DIM_KEYS[shape])
    if extra:
        raise LexiconFormatError(
            f"unexpected dimension key(s) for {shape.value}: {sorted(extra)}",
            field=f"{where}.dimensions",
        )
    altitude = obj.get("default_altitude")
    if altitude is not None:
        if not isinstance(altitude, (int, float)) or isinstance(altitude, bool):
            raise LexiconFormatError("expected a number", field=f"{where}.default_altitude")
        altitude = float(altitude)
    mobile = _require(obj, "mobile", where)
    if not isinstance(mobile, bool):
        raise LexiconFormatError("expected a boolean", field=f"{where}.mobile")
    try:
        return NounEntry(lemma, shape, tuple(dims), mobile, altitude)
    except LexiconFormatError as exc:
        raise LexiconFormatError(str(exc), field=where) from exc


def _parse_verb(obj: dict, where: str) -> VerbEntry:
    if not isinstance(obj, dict):
        raise LexiconFormatError("verb entry must be an object", field=where)
    known = {"lemma", "past_forms", "class", "tick_action", "profile", "path_kind", "allowed_preps"}
    for key in obj:
        if key not in known:
            raise LexiconFormatError("unknown field", field=f"{where}.{key}")
    lemma = _require(obj, "lemma", where)
    past = _require(obj, "past_forms", where)
    if not isinstance(past, list) or not all(isinstance(p, str) for p in past):
        raise LexiconFormatError("past_forms must be a list of tokens", field=f"{where}.past_forms")
    try:
        cls = VerbClass(_require(obj, "class", where))
    except ValueError:
        raise LexiconFormatError("unknown verb class", field=f"{where}.class")
    action = obj.get("tick_action")
    kind_name = obj.get("path_kind")
    kind = None
    if kind_name is not None:
        try:
            kind = PathKind(kind_name)
        except ValueError:
            raise LexiconFormatError("unknown path_kind", field=f"{where}.path_kind")
    profile = MOVE_PROFILE
    if "profile" in obj and obj["profile"] is not None:
        pobj = obj["profile"]
        if not isinstance(pobj, dict):
            raise LexiconFormatError("profile must be an object", field=f"{where}.profile")
        try:
            profile = MannerProfile(
                FloorContact(_require(pobj, "floor_contact", f"{where}.profile")),
                RotationCoupling(_require(pobj, "rotation_coupling", f"{where}.profile")),
            )
        except ValueError:
            raise LexiconFormatError("unknown profile value", field=f"{where}.profile")
    preps = obj.get("allowed_preps", [])
    if not isinstance(preps, list) or not all(isinstance(p, str) for p in preps):
        raise LexiconFormatError("allowed_preps must be a list", field=f"{where}.allowed_preps")
    try:
        return VerbEntry(lemma, tuple(past), cls, action, profile, kind, frozenset(preps))
    except LexiconFormatError as exc:
        raise LexiconFormatError(str(exc), field=where) from exc


def load_lexicon(text: str) -> Lexicon:
    """Parse a JSON lexicon document, overriding builtin entries by lemma.

    Duplicates inside the document raise; overriding a builtin does not.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LexiconFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise LexiconFormatError("lexicon document must be an object")
    for key in data:
        if key not in ("nouns", "verbs"):
            raise LexiconFormatError("unknown top-level key", field=key)

    base = builtin_lexicon()
    nouns = base.nouns
    verbs = base.verbs
    seen: set[str] = set()

    for i, obj in enumerate(data.get("nouns", [])):
        entry = _parse_noun(obj, f"nouns[{i}]")
        if entry.lemma in seen:
            raise DuplicateEntryError(entry.lemma)
        seen.add(entry.lemma)
        nouns[entry.lemma] = entry
    seen.clear()
    for i, obj in enumerate(data.get("verbs", [])):
        entry = _parse_verb(obj, f"verbs[{i}]")
        if entry.lemma in seen:
            raise DuplicateEntryError(entry.lemma)
        seen.add(entry.lemma)
        verbs[entry.lemma] = entry
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
