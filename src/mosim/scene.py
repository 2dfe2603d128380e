"""Minimal 3D model construction for an event frame.

Exactly the mentioned objects plus the supporting floor are instantiated.
The theme starts at the origin (resting, or airborne for contact-free
motion); a goal or locative ground sits along +x; a source ground is
placed adjacent on -x so the motion direction is +x in every grounded
scene.  Underspecified parameters (bare-verb duration, free direction)
are resolved from labelled seed streams, never from global state.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

from .config import SceneConfig
from .errors import ImmobileThemeError, SceneBuildError
from .kinematics import (
    PLUS_X,
    Body,
    Rel,
    Vec3,
    WorldState,
    bisect_clear,
    first_overlap,
    rest_height,
    _gap,
)
from .lexicon import (
    FLOOR_ID, PREP_ROLES, FloorContact, Lexicon, NounEntry, PathKind, Shape, VerbEntry,
)
from .parser import EventFrame
from .record import record, replace
from .rng import stream_for

# Initial floor gap for alternating-contact motion: low enough that at
# least two contact episodes fit in the shortest bare duration.
BOUNCE_START_GAP = 0.1

# Surface gap for airborne themes whose noun has no default altitude.
FALLBACK_FLIGHT_GAP = 1.0


@record
class Scene:
    """A run's initial state and the ids its sentence binds there.

    The theme is a mobile body of ``initial``; the ground and the goal are each
    None or a body of it.  The ground may be the theme, as a trace header may bind.
    """

    initial: WorldState
    theme_id: str
    ground_id: str | None
    goal_id: str | None

    def __post_init__(self) -> None:
        bodies = self.initial.bodies
        for name, bid in (("theme", self.theme_id), ("ground", self.ground_id), ("goal", self.goal_id)):
            if bid not in bodies and (name == "theme" or bid is not None):
                raise ValueError(f"scene {name} {bid!r} is not one of the scene's bodies {list(bodies)}")
        if not bodies[self.theme_id].mobile:
            raise ValueError(f"the theme {self.theme_id!r} is immobile")


def bare_duration(cfg: SceneConfig) -> int:
    """Tick count of a sentence without a goal, drawn from the seed's ``duration`` stream."""
    return stream_for(cfg.seed, "duration").randint(cfg.min_bare_frames, cfg.max_bare_frames)


def free_direction(cfg: SceneConfig) -> Vec3:
    """Heading of a scene without a ground, drawn from the seed's ``scene`` stream."""
    angle = stream_for(cfg.seed, "scene").uniform() * 2.0 * math.pi
    return (math.cos(angle), 0.0, math.sin(angle))


def ground_object_id(frame: EventFrame) -> str | None:
    """Object id the path ground binds to: the one rule the compiler, scene and verifier share.

    The floor noun is the scene's floor; a ground with the theme's lemma is
    a second body suffixed ``_2``; any other ground is its lemma.
    """
    if frame.path is None:
        return None
    ground = frame.path.ground
    if ground == FLOOR_ID:
        return FLOOR_ID
    if ground == frame.theme:
        return ground + "_2"
    return ground


def _floor() -> Body:
    return Body(id=FLOOR_ID, shape=Shape.PLANE, dimensions=(), mobile=False,
                position=(0.0, 0.0, 0.0))


def _make_body(object_id: str, noun: NounEntry, position: Vec3) -> Body:
    return Body(
        id=object_id,
        shape=noun.shape,
        dimensions=noun.dimensions,
        mobile=noun.mobile,
        position=position,
    )


def _theme_center_height(noun: NounEntry, verb: VerbEntry) -> float:
    rest = rest_height(noun.shape, noun.dimensions)
    contact = verb.profile.floor_contact
    if contact is FloorContact.ALWAYS_DC:
        if noun.default_altitude is not None:
            return noun.default_altitude
        return rest + FALLBACK_FLIGHT_GAP
    if contact is FloorContact.ALTERNATING:
        return rest + BOUNCE_START_GAP
    return rest


def _place_source_ground(theme: Body, ground_noun: NounEntry, ground_id: str) -> Body:
    """Place a source ground on -x so it exactly touches the theme."""
    rest = rest_height(ground_noun.shape, ground_noun.dimensions)
    # _gap reads only the ground's shape and size, so one body serves every probe
    ground, p = _make_body(ground_id, ground_noun, (0.0, rest, 0.0)), theme.position

    def gap(offset: float) -> float:
        return _gap(theme, p, ground, (-offset, rest, 0.0))

    # the sizes added left to right: sum() of floats is compensated from Python 3.12 on
    far = reduce(add, theme.dimensions, 0.0) + reduce(add, ground_noun.dimensions, 0.0) + 1.0
    if gap(far) < 0.0:
        raise SceneBuildError(f"cannot place {ground_id!r} in contact with the theme")
    if gap(0.0) > 0.0:
        raise SceneBuildError(
            f"{ground_id!r} cannot touch the theme at its starting height"
        )
    return _make_body(ground_id, ground_noun, (-bisect_clear(gap, far, 0.0), rest, 0.0))


def probe_scene(cfg: SceneConfig, lex: Lexicon, lemma: str = "ball") -> Scene:
    """One mobile body resting at the origin, heading +x: the debug scene."""
    noun = lex.lookup_noun(lemma)
    if not noun.mobile:
        raise ImmobileThemeError(lemma)
    rest = rest_height(noun.shape, noun.dimensions)
    theme = replace(_make_body(lemma, noun, (0.0, rest, 0.0)), heading=PLUS_X)
    state = WorldState(time=0.0, tick_index=0, bodies={FLOOR_ID: _floor(), lemma: theme}, cfg=cfg)
    return Scene(initial=state, theme_id=lemma, ground_id=None, goal_id=None)


def build_scene(frame: EventFrame, lex: Lexicon, cfg: SceneConfig) -> Scene:
    """Instantiate theme, optional ground and the floor for one event frame."""
    theme_noun = lex.lookup_noun(frame.theme)
    if not theme_noun.mobile:
        raise ImmobileThemeError(frame.theme)

    theme = _make_body(
        frame.theme, theme_noun,
        (0.0, _theme_center_height(theme_noun, frame.verb), 0.0),
    )

    ground = None
    ground_id = ground_object_id(frame)
    goal_id = None
    if frame.path is not None:
        leaves = PREP_ROLES[frame.path.prep] is PathKind.LEAVE
        if not leaves:
            goal_id = ground_id
        if ground_id != FLOOR_ID:  # the floor is already in every scene
            ground_noun = lex.lookup_noun(frame.path.ground)
            if leaves:
                ground = _place_source_ground(theme, ground_noun, ground_id)
            else:
                rest = rest_height(ground_noun.shape, ground_noun.dimensions)
                ground = _make_body(ground_id, ground_noun, (cfg.ground_distance, rest, 0.0))

    # every grounded scene, the floor included, runs along +x
    direction = PLUS_X if ground_id is not None else free_direction(cfg)

    theme = replace(theme, heading=direction)
    bodies = {FLOOR_ID: _floor(), theme.id: theme}
    if ground is not None:
        bodies[ground.id] = ground

    state = WorldState(time=0.0, tick_index=0, bodies=bodies, cfg=cfg)
    overlap = first_overlap(state)
    if overlap is not None:
        raise SceneBuildError(f"bodies {overlap[0]!r} and {overlap[1]!r} interpenetrate at t=0")
    if (frame.verb.profile.floor_contact is FloorContact.ALWAYS_DC
            and state.contacts[theme.id, FLOOR_ID] is not Rel.DC):
        # a default_altitude at or just above the rest height
        raise SceneBuildError(f"{theme.id!r} would fly in contact with the floor")

    return Scene(initial=state, theme_id=theme.id, ground_id=ground_id, goal_id=goal_id)
