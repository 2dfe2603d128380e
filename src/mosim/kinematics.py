"""Fixed-timestep rigid-body updates and the contact predicates over them.

Pure kinematics: horizontal motion at constant speed, gravity only for
the bounce action.  Every tick is a pure function from world state to
world state; determinism and checkability win over physical fidelity.
Shapes are spheres, axis-aligned boxes and the horizontal floor plane,
which keeps surface distances exact and the contact relations decidable.
``_relation`` is the one place a gap becomes a relation; every other
module reads the flags ``refresh_contacts`` and ``tick`` leave on each body.
A tick moves only its theme, so it decides only the theme's relations, in
one pass over the bodies; ``refresh_contacts`` and the trace reader, where
any body may have moved, decide theirs with ``_with_contacts``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Container, Mapping

from .config import SceneConfig
from .errors import ImmobileThemeError, UnboundObjectError, UnsupportedShapePair
from .lexicon import TICK_ACTIONS, Shape
from .record import record

Vec3 = tuple[float, float, float]

ZERO3: Vec3 = (0.0, 0.0, 0.0)
PLUS_X: Vec3 = (1.0, 0.0, 0.0)


def vadd(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vsub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vscale(v: Vec3, s: float) -> Vec3:
    return (v[0] * s, v[1] * s, v[2] * s)


def vnorm(v: Vec3) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def hnorm(v: Vec3) -> float:
    """Length of the horizontal (xz) component."""
    return math.hypot(v[0], v[2])


class Rel(Enum):
    """Qualitative contact relation between two body surfaces."""

    EC = "EC"   # externally connected: |surface distance| <= eps
    DC = "DC"   # disconnected: surface distance > eps
    PO = "PO"   # penetrating overlap: surface distance < -eps (a fault)


# The members the per-tick code compares against, as plain module names:
# on CPython 3.11 reading ``Shape.SPHERE`` takes ~150 ns, a global ~30 ns,
# and every tick and every measured pair reads several.
_SPHERE, _BOX, _PLANE = Shape.SPHERE, Shape.BOX, Shape.PLANE
_EC, _DC, _PO = Rel.EC, Rel.DC, Rel.PO


@record
class Body:
    id: str
    shape: Shape
    dimensions: tuple[float, ...]
    mobile: bool
    position: Vec3
    heading: Vec3
    rotation: float        # accumulated angle about the rolling axis, rad
    velocity: Vec3         # y component doubles as the ballistic state
    # relation to each other body at this position (see WorldState)
    contacts: Mapping[str, Rel]

    # written out rather than Record.__init__'s loop: tick builds one per
    # step, and with Record.__init__ for Body and WorldState long runs
    # measured ~5% fewer ticks per second
    def __init__(
        self,
        id: str,
        shape: Shape,
        dimensions: tuple[float, ...],
        mobile: bool,
        position: Vec3,
        heading: Vec3 = PLUS_X,
        rotation: float = 0.0,
        velocity: Vec3 = ZERO3,
        contacts: Mapping[str, Rel] | None = None,
    ) -> None:
        s_id, s_shape, s_dims, s_mobile, s_pos, s_head, s_rot, s_vel, s_contacts = self._setters
        s_id(self, id)
        s_shape(self, shape)
        s_dims(self, dimensions)
        s_mobile(self, mobile)
        s_pos(self, position)
        s_head(self, heading)
        s_rot(self, rotation)
        s_vel(self, velocity)
        s_contacts(self, {} if contacts is None else contacts)

    @property
    def radius(self) -> float:
        return self.dimensions[0]

    @property
    def half_extents(self) -> Vec3:
        # box dimensions are width x height x depth; goal-facing axis is depth
        w, h, d = self.dimensions
        return (d / 2.0, h / 2.0, w / 2.0)

    @property
    def rolling_radius(self) -> float:
        # boxes get an effective radius so roll stays total; spheres are exact
        if self.shape is _SPHERE:
            return self.radius
        if self.shape is _BOX:
            return self.dimensions[1] / 2.0
        raise UnsupportedShapePair(self.shape.value, "rolling")


@record
class WorldState:
    """One instant: every body with its contact flags, and the config.

    Invariant: each body's ``contacts`` hold the relations of the current
    positions.  ``refresh_contacts``, ``tick``, the scene builders, ``loc``
    assignments and the trace reader produce only such states, and formula
    atoms and the scene's overlap check read the flags instead of recomputing
    them.  ``tick`` measures only the theme's pairs and the trace reader only
    the pairs of a moved body, and both carry every other flag into the next
    state unchanged; ``tick`` also reads the theme's ``DC`` flags instead of
    measuring its old gaps.  So a stale flag would outlive its state.  A
    hand-built state may leave the maps empty or partial, never stale; a tick
    of such a state refreshes every pair.
    """

    time: float
    tick_index: int
    bodies: dict[str, Body]
    cfg: SceneConfig

    # written out for the same reason as Body's
    def __init__(
        self, time: float, tick_index: int, bodies: dict[str, Body], cfg: SceneConfig
    ) -> None:
        s_time, s_index, s_bodies, s_cfg = self._setters
        s_time(self, time)
        s_index(self, tick_index)
        s_bodies(self, bodies)
        s_cfg(self, cfg)

    def body(self, object_id: str) -> Body:
        try:
            return self.bodies[object_id]
        except KeyError:
            raise UnboundObjectError(object_id) from None

    def with_body(self, body: Body) -> "WorldState":
        return WorldState(self.time, self.tick_index, {**self.bodies, body.id: body}, self.cfg)


def rest_height(shape: Shape, dimensions: tuple[float, ...]) -> float:
    """Center height of a body of this shape and size resting on the floor."""
    if shape is _SPHERE:
        return dimensions[0]
    if shape is _BOX:
        return dimensions[1] / 2.0
    return 0.0


def surface_distance(a: Body, b: Body) -> float:
    """Signed gap between two body surfaces; negative means penetration."""
    return _gap(a, a.position, b, b.position)


def _gap(a: Body, pa: Vec3, b: Body, pb: Vec3) -> float:
    """surface_distance with the two bodies placed at ``pa`` and ``pb``.

    Mixed-shape pairs give the same float in either order.  Like shapes
    subtract the first body's size first, so swapping them can move the last
    bit; keeping that order keeps every trace byte-identical.
    """
    sa, sb = a.shape, b.shape
    if sa is _SPHERE:
        if sb is _PLANE:
            return pa[1] - a.dimensions[0]
        if sb is _BOX:
            return _point_box_distance(pa, b, pb) - a.dimensions[0]
        if sb is _SPHERE:
            return vnorm(vsub(pa, pb)) - a.dimensions[0] - b.dimensions[0]
    elif sa is _BOX:
        if sb is _PLANE:
            return pa[1] - a.dimensions[1] / 2.0
        if sb is _SPHERE:
            return _point_box_distance(pb, a, pa) - b.dimensions[0]
        if sb is _BOX:
            return _box_box_distance(a, pa, b, pb)
    elif sa is _PLANE:
        if sb is _SPHERE:
            return pb[1] - b.dimensions[0]
        if sb is _BOX:
            return pb[1] - b.dimensions[1] / 2.0
    raise UnsupportedShapePair(sa.value, sb.value)


def _point_box_distance(p: Vec3, box: Body, c: Vec3) -> float:
    """Distance from a point to an axis-aligned box centred at ``c`` (negative inside)."""
    w, h, d = box.dimensions  # half extents are (d, h, w) / 2, as in Body.half_extents
    d0 = abs(p[0] - c[0]) - d / 2.0
    d1 = abs(p[1] - c[1]) - h / 2.0
    d2 = abs(p[2] - c[2]) - w / 2.0
    outside = math.sqrt(max(d0, 0.0) ** 2 + max(d1, 0.0) ** 2 + max(d2, 0.0) ** 2)
    return outside + min(max(d0, d1, d2), 0.0)


def _box_box_distance(a: Body, pa: Vec3, b: Body, pb: Vec3) -> float:
    ha, hb = a.half_extents, b.half_extents
    gaps = [abs(pa[i] - pb[i]) - ha[i] - hb[i] for i in range(3)]
    if all(g <= 0 for g in gaps):
        return max(gaps)
    return math.sqrt(sum(max(g, 0.0) ** 2 for g in gaps))


def contact_relation(a: Body, b: Body, contact_eps: float) -> Rel:
    return _relation(surface_distance(a, b), contact_eps)


def _relation(d: float, contact_eps: float) -> Rel:
    if d > contact_eps:
        return _DC
    if d < -contact_eps:
        return _PO
    return _EC


def refresh_contacts(state: WorldState) -> WorldState:
    """Recompute every computable pairwise contact flag from positions.

    A body's flag map is copied, and the body rebuilt, only when one of its
    flags changes; every other body is shared with ``state``.
    """
    bodies = _with_contacts(state.bodies, state.cfg.contact_eps, state.bodies)
    return WorldState(state.time, state.tick_index, bodies, state.cfg)


def _with_contacts(bodies: dict[str, Body], eps: float, moved: Container[str]) -> dict[str, Body]:
    """``bodies`` with fresh contact flags, each pair's relation decided once.

    For ``refresh_contacts`` and the trace reader; ``tick`` decides its
    theme's pairs itself.  Only pairs with a body in ``moved`` are measured.
    A pair of two bodies that did not move keeps its flag, which holds only
    because flags are never stale (see ``WorldState``); a pair that either map
    lacks, as in a hand-built state with empty maps, is measured.

    Copy on write: a body's flag map is copied, in ``bodies`` order, and the
    body rebuilt only when one of its flags changes; every other body is the
    same object, and when no flag changes ``bodies`` itself is returned.  That
    is sound because bodies are frozen and their flag maps are never mutated.
    """
    items = list(bodies.items())
    # the flags that change, by body; None drops the flag of a pair with no distance
    changes: dict[str, dict[str, Rel | None]] = {}
    for i, (a_id, a) in enumerate(items, 1):
        a_flags, a_moved = a.contacts, a_id in moved
        for b_id, b in items[i:]:
            old, back = a_flags.get(b_id), b.contacts.get(a_id)
            if a_moved or b_id in moved or old is None or back is None:
                try:
                    rel = _relation(_gap(a, a.position, b, b.position), eps)
                except UnsupportedShapePair:
                    rel = None
            else:
                rel = old
            if rel is not old:
                changes.setdefault(a_id, {})[b_id] = rel
            if rel is not back:
                changes.setdefault(b_id, {})[a_id] = rel
    if not changes:
        return bodies
    out = dict(bodies)
    for key, fix in changes.items():
        out[key] = _with_flags(bodies, key, fix)
    return out


def _with_flags(bodies: dict[str, Body], key: str, fix: Mapping[str, Rel | None]) -> Body:
    """``bodies[key]`` with the flags in ``fix`` (None drops one), its map in ``bodies`` order."""
    b = bodies[key]
    flags = {}
    for other in bodies:
        rel = fix[other] if other in fix else b.contacts.get(other)
        if rel is not None and other != key:
            flags[other] = rel
    return Body(b.id, b.shape, b.dimensions, b.mobile, b.position, b.heading,
                b.rotation, b.velocity, flags)


def _fill_contacts(bodies: dict[str, Body], eps: float) -> None:
    """Write every pair's flag into the empty maps of new ``bodies``, in ``bodies`` order.

    The flags ``_with_contacts`` would give these bodies, without building
    each body a second time.  Only for bodies no state holds yet: their maps
    are written in place.
    """
    items = list(bodies.items())
    for i, (a_id, a) in enumerate(items, 1):
        for b_id, b in items[i:]:
            try:
                rel = _relation(_gap(a, a.position, b, b.position), eps)
            except UnsupportedShapePair:
                continue
            a.contacts[b_id] = rel
            b.contacts[a_id] = rel


def _unit_horizontal(direction: Vec3) -> Vec3:
    """``direction`` divided by its horizontal length, with y set to +0.0.

    ``PLUS_X``, the heading of every goal and probe scene, is already in that
    form and comes back as itself: dividing it by 1.0 would change no bit.
    """
    if direction is PLUS_X:
        return direction
    if abs(direction[1]) > 1e-9:
        raise ValueError("motion direction must be horizontal")
    n = hnorm(direction)
    if n == 0.0:
        raise ValueError("motion direction must be nonzero")
    return (direction[0] / n, 0.0, direction[2] / n)


def _clamp_fraction(theme: Body, start: Vec3, proposed: Vec3, obstacle: Body) -> float:
    """Largest fraction of the move keeping the theme outside the obstacle.

    Bisects along the segment; the crossing is unique within one step at
    desk scale, so this converges to the contact point.
    """
    lo, hi = 0.0, 1.0
    delta = vsub(proposed, start)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _gap(theme, vadd(start, vscale(delta, mid)), obstacle, obstacle.position) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def tick(
    world: WorldState,
    action: str,
    theme_id: str,
    direction: Vec3 | None = None,
    cfg: SceneConfig | None = None,
) -> WorldState:
    """Advance the world by one timestep of the named atomic action.

    roll and slide translate horizontally with the center held at rest
    height; roll additionally accumulates rotation by arc length.  move
    is the generic translation.  fly translates at the current altitude.
    bounce adds semi-implicit vertical ballistics with a restitution
    bounce on floor crossing.  Any action stops at the surface of a goal
    body instead of entering it.

    ``direction`` defaults to the theme's own heading.  The tick runs under
    ``world.cfg``, whose ``contact_eps`` decided the flags it reads; ``cfg``
    is accepted only as that config, and any other raises ``ValueError``.
    """
    if cfg is not None and cfg is not world.cfg and cfg != world.cfg:
        raise ValueError("tick runs under the world's config; another config was given")
    cfg = world.cfg
    theme = world.body(theme_id)
    if not theme.mobile:
        raise ImmobileThemeError(theme_id)
    direction = _unit_horizontal(theme.heading if direction is None else direction)
    if action not in TICK_ACTIONS:
        raise ValueError(f"unknown tick action {action!r}")

    dt = cfg.dt
    step = cfg.speed * dt
    p0 = theme.position
    x = p0[0] + direction[0] * step
    z = p0[2] + direction[2] * step
    vy = theme.velocity[1]
    rest = rest_height(theme.shape, theme.dimensions)

    if action in ("roll", "slide", "move"):
        y = rest  # contact clamp prevents drift
        vy = 0.0
    elif action == "fly":
        y = p0[1]
        vy = 0.0
    else:  # bounce
        # exact constant-gravity flight, sampled at dt; a floor crossing
        # parks the body at contact for the rest of the step and stores
        # the restitution-scaled rebound speed (apex decay stays e^2-exact)
        y0 = p0[1]
        g = cfg.gravity
        y = y0 + vy * dt - 0.5 * g * dt * dt
        if y < rest:
            impact_speed = math.sqrt(max(vy * vy + 2.0 * g * (y0 - rest), 0.0))
            y = rest
            vy = cfg.restitution * impact_speed
        else:
            vy = vy - g * dt

    # Clamp against every solid body but the floor, in bodies order.  ``gaps``
    # keeps each obstacle's gap, theme first, measured at ``pos``; moving the
    # theme back empties it.
    eps = cfg.contact_eps
    flags = theme.contacts
    shape = theme.shape
    pos = (x, y, z)
    gaps = {}
    seen = False
    for key, other in world.bodies.items():
        if other is theme:
            seen = True
            continue
        if other.shape is _PLANE:
            continue
        d_new = _gap(theme, pos, other, other.position)
        # a DC flag means d_old > eps, so the branch below cannot be taken; the
        # flag was measured in bodies order, which a like shape before the theme
        # reverses (see _gap)
        if not ((seen or other.shape is not shape) and flags.get(key) is _DC):
            d_old = _gap(theme, p0, other, other.position)
            if d_old <= eps and d_new < d_old:
                # already in contact and not separating: no further motion
                pos = (p0[0], pos[1], p0[2])
                gaps = {}
                continue
        if d_new < 0.0:
            frac = _clamp_fraction(theme, p0, pos, other)
            pos = vadd(p0, vscale(vsub(pos, p0), frac))
            gaps = {}
        else:
            gaps[key] = d_new

    moved_h = math.hypot(pos[0] - p0[0], pos[2] - p0[2])
    rotation = theme.rotation
    if action == "roll":
        rotation += moved_h / theme.rolling_radius

    # a bounce reports the ballistic state, not the positional difference, so
    # the restitution flip survives the floor clamp
    inv_dt = 1.0 / dt
    velocity = ((pos[0] - p0[0]) * inv_dt,
                vy if action == "bounce" else (pos[1] - p0[1]) * inv_dt,
                (pos[2] - p0[2]) * inv_dt)

    # Only the theme moved, so only its pairs can change.  Each is measured in
    # bodies order, or read from ``gaps`` when the theme-first gap is that
    # measurement.  Copy on write: the theme keeps its flag map, and another
    # body its Body object, unless one of its flags changed.
    new = {}
    changed = False
    complete = True
    full = len(world.bodies) - 1
    bodies = world.bodies.copy()
    seen = False
    for key, other in world.bodies.items():
        if other is theme:
            seen = True
            continue
        d = gaps.get(key) if seen or other.shape is not shape else None
        try:
            if d is None:
                d = (_gap(theme, pos, other, other.position) if seen
                     else _gap(other, other.position, theme, pos))
        except UnsupportedShapePair:
            rel = None
        else:
            rel = _relation(d, eps)
            new[key] = rel
        if rel is not flags.get(key):
            changed = True
        back = other.contacts
        if len(back) < full:
            complete = False
        if rel is not back.get(theme_id):
            bodies[key] = _with_flags(world.bodies, key, {theme_id: rel})
    bodies[theme_id] = Body(theme.id, shape, theme.dimensions, theme.mobile, pos, direction,
                            rotation, velocity, new if changed else flags)
    tick_index = world.tick_index + 1
    state = WorldState(tick_index * dt, tick_index, bodies, cfg)
    # a hand-built state may lack the flags of pairs the theme is not in
    return state if complete else refresh_contacts(state)
