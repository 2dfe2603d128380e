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

from .config import SceneConfig
from .errors import ImmobileThemeError, SceneBuildError
from .kinematics import (
    PLUS_X,
    Body,
    Rel,
    Vec3,
    WorldState,
    refresh_contacts,
    rest_height,
    surface_distance,
)
from .lexicon import FLOOR_ID, Lexicon, NounEntry, Shape, VerbEntry, FloorContact
from .parser import EventFrame
from .record import record, replace
from .rng import SplitMix64

# Initial floor gap for alternating-contact motion: low enough that at
# least two contact episodes fit in the shortest bare duration.
BOUNCE_START_GAP = 0.1

# Surface gap for airborne themes whose noun has no default altitude.
FALLBACK_FLIGHT_GAP = 1.0

GOAL_PREPS = ("to", "at", "towards")


@record
class ResolvedParams:
    duration_frames: int
    direction_angle: float


@record
class Scene:
    initial: WorldState
    theme_id: str
    ground_id: str | None
    goal_id: str | None
    direction: Vec3


def sample_underspecified(cfg: SceneConfig, rng: SplitMix64) -> ResolvedParams:
    """Draw the seed-determined values for what the sentence leaves open."""
    duration = rng.stream("duration").randint(cfg.min_bare_frames, cfg.max_bare_frames)
    angle = rng.stream("scene").uniform() * 2.0 * math.pi
    return ResolvedParams(duration_frames=duration, direction_angle=angle)


def ground_object_id(frame: EventFrame) -> str | None:
    """Object id the path ground binds to; suffixed when it collides with the theme."""
    if frame.path is None:
        return None
    if frame.path.ground == frame.theme:
        return frame.path.ground + "_2"
    return frame.path.ground


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

    def at(offset: float) -> Body:
        return _make_body(ground_id, ground_noun, (-offset, rest, 0.0))

    lo = 0.0
    hi = sum(theme.dimensions) + sum(ground_noun.dimensions) + 1.0
    if surface_distance(theme, at(hi)) < 0.0:
        raise SceneBuildError(f"cannot place {ground_id!r} in contact with the theme")
    if surface_distance(theme, at(lo)) > 0.0:
        raise SceneBuildError(
            f"{ground_id!r} cannot touch the theme at its starting height"
        )
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if surface_distance(theme, at(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return at(hi)


def probe_scene(cfg: SceneConfig, lex: Lexicon, lemma: str = "ball") -> Scene:
    """One mobile body resting at the origin, heading +x: the debug scene."""
    noun = lex.lookup_noun(lemma)
    if not noun.mobile:
        raise ImmobileThemeError(lemma)
    floor = Body(id=FLOOR_ID, shape=Shape.PLANE, dimensions=(), mobile=False,
                 position=(0.0, 0.0, 0.0))
    rest = rest_height(noun.shape, noun.dimensions)
    theme = replace(_make_body(lemma, noun, (0.0, rest, 0.0)), heading=PLUS_X)
    state = refresh_contacts(
        WorldState(time=0.0, tick_index=0, bodies={FLOOR_ID: floor, lemma: theme}, cfg=cfg)
    )
    return Scene(initial=state, theme_id=lemma, ground_id=None, goal_id=None, direction=PLUS_X)


def build_scene(frame: EventFrame, lex: Lexicon, cfg: SceneConfig) -> Scene:
    """Instantiate theme, optional ground and the floor for one event frame."""
    theme_noun = lex.lookup_noun(frame.theme)
    if not theme_noun.mobile:
        raise ImmobileThemeError(frame.theme)

    floor = Body(id=FLOOR_ID, shape=Shape.PLANE, dimensions=(), mobile=False,
                 position=(0.0, 0.0, 0.0))
    theme = _make_body(
        frame.theme, theme_noun,
        (0.0, _theme_center_height(theme_noun, frame.verb), 0.0),
    )

    ground = None
    ground_id = None
    goal_id = None
    if frame.path is not None:
        ground_noun = lex.lookup_noun(frame.path.ground)
        ground_id = ground_object_id(frame)
        if ground_noun.shape is Shape.PLANE:
            ground_id = FLOOR_ID  # the floor is the only plane in a scene
        elif frame.path.prep in GOAL_PREPS:
            rest = rest_height(ground_noun.shape, ground_noun.dimensions)
            ground = _make_body(ground_id, ground_noun, (cfg.ground_distance, rest, 0.0))
        else:  # from
            ground = _place_source_ground(theme, ground_noun, ground_id)
        if frame.path.prep in GOAL_PREPS:
            goal_id = ground_id

    if ground is not None:
        direction = PLUS_X
    elif ground_id is not None:
        direction = PLUS_X  # plane ground: keep the conventional axis
    else:
        angle = sample_underspecified(cfg, SplitMix64(cfg.seed)).direction_angle
        direction = (math.cos(angle), 0.0, math.sin(angle))

    theme = replace(theme, heading=direction)
    bodies = {FLOOR_ID: floor, theme.id: theme}
    if ground is not None:
        bodies[ground.id] = ground

    state = refresh_contacts(WorldState(time=0.0, tick_index=0, bodies=bodies, cfg=cfg))

    ids = list(state.bodies)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if state.bodies[a].contacts.get(b) is Rel.PO:
                raise SceneBuildError(f"bodies {a!r} and {b!r} interpenetrate at t=0")

    return Scene(
        initial=state,
        theme_id=theme.id,
        ground_id=ground_id,
        goal_id=goal_id,
        direction=direction,
    )
