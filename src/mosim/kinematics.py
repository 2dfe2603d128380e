"""Fixed-timestep rigid-body updates and the contact predicates over them.

Pure kinematics: horizontal motion at constant speed, gravity only for the
bounce action.  Every tick is a pure function from world state to world state;
determinism and checkability win over physical fidelity.  Shapes are spheres,
axis-aligned boxes and the horizontal floor plane, which keeps surface
distances exact and the contact relations decidable.  ``_relation`` turns a gap
into a relation, and this module is the one writer of the relations: each state
holds them in one map, ``WorldState.contacts``, keyed by the pair under both
orders, and every other module reads that map.  A tick moves only its theme, so
it decides only the theme's relations, in one pass over the bodies; it runs
once per state, so it writes ``_relation``'s test out, takes the floor gap as
``pos[1] - rest`` and fills its ``Body`` and ``WorldState`` through their slot
setters.  Every state holds its whole map: a ``WorldState`` built without one
measures every pair once, as a scene's first state, a trace file's first
record and a program's ``loc`` assignment are built, and every later state is
a tick's.  No body is rebuilt for a relation's sake.  The gap kernels are
straight-line float arithmetic with no ``max``, ``min`` or ``sum`` calls,
added left to right, so they give the same bits on every Python version.
A tick runs no kernel against an obstacle that its ``DC`` relation and its
x-interval show to be out of reach over the whole step: two convex bodies are
at least as far apart as their projections on any axis, and every kernel
returns at least the x separation to within a few ulps, far inside the
margin the gate keeps.  So the relation it records, ``DC``, and the clamp it
skips are the kernel's own, and no bit of any state changes.

A theme, the one body a tick moves, is a mobile sphere or box: a ``Body``
refuses a mobile plane, so a tick has no plane-theme case.
"""

from __future__ import annotations

import math
from enum import Enum
from math import sqrt

from .config import SceneConfig
from .errors import ImmobileThemeError, UnboundObjectError, UnsupportedShapePair
from .lexicon import Shape
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
    heading: Vec3 = PLUS_X
    rotation: float = 0.0  # accumulated angle about the rolling axis, rad
    velocity: Vec3 = ZERO3  # y component doubles as the ballistic state

    def __post_init__(self) -> None:
        # so a theme, the one body a tick moves, is a sphere or a box
        if self.mobile and self.shape is _PLANE:
            raise ValueError("a plane is immobile")


@record
class WorldState:
    """One instant: every body, the contact relation of each pair, and the config.

    Invariant: ``contacts`` holds the relation of each pair of bodies at the
    current positions, keyed by ``(a, b)`` under both orders, with no entry
    for a body with itself or for a pair of shapes that has no distance.
    A state built without a map measures each pair once, the earlier body in
    ``bodies`` order first; a map passed in is held as given, so the caller
    vouches for it.  ``tick`` measures only the theme's pairs and carries every
    other entry into the next state unchanged; it also reads the theme's
    ``DC`` entries instead of measuring its old gaps.  So a stale entry would
    outlive its state.  Formula atoms, the scene's overlap check, the verifier
    and the trace writer read the map instead of recomputing relations.
    States share the map until a relation changes, so it is never mutated
    once a state holds it.
    """

    time: float
    tick_index: int
    bodies: dict[str, Body]
    cfg: SceneConfig
    contacts: dict[tuple[str, str], Rel] = None

    def __post_init__(self) -> None:
        if self.contacts is None:
            contacts, eps = {}, self.cfg.contact_eps
            items = list(self.bodies.items())
            for k, (a_id, a) in enumerate(items):
                for b_id, b in items[k + 1:]:
                    try:
                        rel = _relation(_gap(a, a.position, b, b.position), eps)
                    except UnsupportedShapePair:
                        continue
                    contacts[a_id, b_id] = contacts[b_id, a_id] = rel
            self._setters[4](self, contacts)

    def body(self, object_id: str) -> Body:
        try:
            return self.bodies[object_id]
        except KeyError:
            raise UnboundObjectError(object_id) from None


# tick fills in its states through the slot setters, without a class call
_new, _BODY_SET, _STATE_SET = object.__new__, Body._setters, WorldState._setters
_KINDS = {"roll": "roll", "slide": "slide", "move": "slide", "fly": "fly", "bounce": "bounce"}


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
            dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
            return sqrt(dx * dx + dy * dy + dz * dz) - a.dimensions[0] - b.dimensions[0]
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
    """Distance from a point to an axis-aligned box centred at ``c`` (negative inside).

    The bits of ``sqrt(sum(max(di, 0.0) ** 2)) + min(max(d0, d1, d2), 0.0)``
    with its sum taken left to right, computed without the builtin calls.
    """
    # a box is width x height x depth, its depth along x: half extents (d, h, w) / 2
    w, h, d = box.dimensions
    d0 = abs(p[0] - c[0]) - d / 2.0
    d1 = abs(p[1] - c[1]) - h / 2.0
    d2 = abs(p[2] - c[2]) - w / 2.0
    # ``** 2`` (C pow), not ``x * x``: the two differ in the last bit for some floats
    outside = sqrt((d0 ** 2 if d0 > 0.0 else 0.0) + (d1 ** 2 if d1 > 0.0 else 0.0)
                   + (d2 ** 2 if d2 > 0.0 else 0.0))
    # the first of equal maxima wins, as in max()
    m = d0 if d0 >= d1 else d1
    m = m if m >= d2 else d2
    return outside + (m if m <= 0.0 else 0.0)


def _box_box_distance(a: Body, pa: Vec3, b: Body, pb: Vec3) -> float:
    """Gap between two axis-aligned boxes, its squares added left to right."""
    aw, ah, ad = a.dimensions
    bw, bh, bd = b.dimensions
    g0 = abs(pa[0] - pb[0]) - ad / 2.0 - bd / 2.0
    g1 = abs(pa[1] - pb[1]) - ah / 2.0 - bh / 2.0
    g2 = abs(pa[2] - pb[2]) - aw / 2.0 - bw / 2.0
    if g0 <= 0.0 and g1 <= 0.0 and g2 <= 0.0:
        m = g0 if g0 >= g1 else g1
        return m if m >= g2 else g2
    return sqrt((g0 ** 2 if g0 > 0.0 else 0.0) + (g1 ** 2 if g1 > 0.0 else 0.0)
                + (g2 ** 2 if g2 > 0.0 else 0.0))


def contact_relation(a: Body, b: Body, contact_eps: float) -> Rel:
    return _relation(surface_distance(a, b), contact_eps)


def _relation(d: float, contact_eps: float) -> Rel:
    if d > contact_eps:
        return _DC
    if d < -contact_eps:
        return _PO
    return _EC


def first_overlap(state: WorldState) -> tuple[str, str] | None:
    """The first pair of bodies whose relation is ``PO``, in ``bodies`` order, earlier body first."""
    contacts = state.contacts
    if _PO in contacts.values():
        ids = list(state.bodies)
        for k, a in enumerate(ids):
            for b in ids[k + 1:]:
                if contacts.get((a, b)) is _PO:
                    return a, b
    return None


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


def bisect_clear(gap, clear: float, blocked: float) -> float:
    """Halve [clear, blocked] 80 times, keeping as ``clear`` the end where ``gap`` is ``>= 0``."""
    for _ in range(80):
        mid = (clear + blocked) / 2.0
        if gap(mid) >= 0.0:
            clear = mid
        else:
            blocked = mid
    return clear


def _clamp_fraction(theme: Body, start: Vec3, proposed: Vec3, obstacle: Body) -> float:
    """Largest fraction of the move keeping the theme outside the obstacle.

    Bisects along the segment; the crossing is unique within one step at
    desk scale, so this converges to the contact point.
    """
    x, y, z = start
    dx, dy, dz = proposed[0] - x, proposed[1] - y, proposed[2] - z
    at = obstacle.position
    return bisect_clear(lambda f: _gap(theme, (x + dx * f, y + dy * f, z + dz * f), obstacle, at),
                        0.0, 1.0)


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

    An obstacle whose relation to the theme is ``DC`` gets no gap kernel when
    their x-intervals lie more than ``contact_eps`` apart, plus a relative
    margin of 1e-9, with the theme's interval taken over the whole step from
    its old position to the new one: the separation is a lower bound on
    their gap, so it decides the same ``DC`` and the same absence of a clamp.

    ``direction`` defaults to the theme's own heading.  The tick runs under
    ``world.cfg``, whose ``contact_eps`` decided the relations it reads; ``cfg``
    is accepted only as that config, and any other raises ``ValueError``.
    """
    if cfg is not None and cfg is not world.cfg and cfg != world.cfg:
        raise ValueError("tick runs under the world's config; another config was given")
    cfg = world.cfg
    theme = world.bodies.get(theme_id) or world.body(theme_id)  # a miss raises
    if not theme.mobile:
        raise ImmobileThemeError(theme_id)
    direction = theme.heading if direction is None else direction
    if direction is not PLUS_X:
        direction = _unit_horizontal(direction)
    kind = _KINDS.get(action)
    if kind is None:
        raise ValueError(f"unknown tick action {action!r}")

    dt = cfg.dt
    step = cfg.speed * dt
    p0 = theme.position
    x = p0[0] + direction[0] * step
    z = p0[2] + direction[2] * step
    vy = theme.velocity[1]
    shape, dims = theme.shape, theme.dimensions
    # rest_height(shape, dims), which is also the theme's rolling radius
    rest = dims[0] if shape is _SPHERE else dims[1] / 2.0

    if kind == "fly":
        y = p0[1]
        vy = 0.0
    elif kind == "bounce":
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
    else:  # roll, slide, move
        y = rest  # contact clamp prevents drift
        vy = 0.0

    # Clamp against every solid body but the floor, in bodies order.  ``gaps``
    # keeps each obstacle's gap, theme first, measured at ``pos``, or the x
    # separation that stands in for a gap beyond eps; moving the theme back
    # empties it.
    eps = cfg.contact_eps
    contacts = world.contacts
    pos = (x, y, z)
    gaps = {}
    seen = False
    for key, other in world.bodies.items():
        if other is theme:
            seen = True
            continue
        oshape = other.shape
        if oshape is _PLANE:
            continue
        at = other.position
        # a DC relation means d_old > eps, so the contact branch below cannot be
        # taken; it was measured in bodies order, which a like shape before the
        # theme reverses (see _gap)
        dc = (seen or oshape is not shape) and contacts.get((theme_id, key)) is _DC
        if dc:
            # the x-interval gate: the theme's x-interval over the whole step,
            # from p0 to pos, against the obstacle's; their separation is a
            # lower bound on the gap, kept as the gap when it decides DC
            hx = dims[0] if shape is _SPHERE else dims[2] / 2.0
            ohx = other.dimensions[0] if oshape is _SPHERE else other.dimensions[2] / 2.0
            lo, hi, ox = p0[0], pos[0], at[0]
            if hi < lo:
                lo, hi = hi, lo
            sep = ox - ohx - hi - hx if ox > hi else lo - hx - ox - ohx
            if sep - eps > 1e-9 * (abs(lo) + abs(hi) + abs(ox) + hx + ohx):
                gaps[key] = sep
                continue
        d_new = _gap(theme, pos, other, at)
        if not dc:
            d_old = _gap(theme, p0, other, at)
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

    rotation = theme.rotation
    if kind == "roll":
        rotation += math.hypot(pos[0] - p0[0], pos[2] - p0[2]) / rest

    # a bounce reports the ballistic state, not the positional difference, so
    # the restitution flip survives the floor clamp
    inv_dt = 1.0 / dt
    velocity = ((pos[0] - p0[0]) * inv_dt, vy if kind == "bounce" else (pos[1] - p0[1]) * inv_dt,
                (pos[2] - p0[2]) * inv_dt)

    # Only the theme moved, so only its pairs can change.  Each is measured in
    # bodies order, or read from ``gaps`` when the theme-first gap is that
    # measurement; the theme's gap to a plane is ``_gap``'s ``pos[1] - rest``
    # in either order.  Copy on write: the new state shares the map unless one
    # of the theme's relations changed.
    out = contacts
    seen = False
    for key, other in world.bodies.items():
        if other is theme:
            seen = True
            continue
        d = (pos[1] - rest if other.shape is _PLANE
             else gaps.get(key) if seen or other.shape is not shape else None)
        if d is None:
            d = (_gap(theme, pos, other, other.position) if seen
                 else _gap(other, other.position, theme, pos))
        rel = _DC if d > eps else _PO if d < -eps else _EC
        if rel is not out.get((theme_id, key)):
            if out is contacts:
                out = contacts.copy()
            out[theme_id, key] = out[key, theme_id] = rel

    # Body(...) and WorldState(...) would each add a call and an __init__ frame
    body = _new(Body)
    set_id, set_shape, set_dims, set_mobile, set_pos, set_heading, set_rot, set_vel = _BODY_SET
    set_id(body, theme.id)
    set_shape(body, shape)
    set_dims(body, dims)
    set_mobile(body, theme.mobile)
    set_pos(body, pos)
    set_heading(body, direction)
    set_rot(body, rotation)
    set_vel(body, velocity)
    bodies = world.bodies.copy()
    bodies[theme_id] = body
    tick_index = world.tick_index + 1
    state = _new(WorldState)
    set_time, set_index, set_bodies, set_cfg, set_contacts = _STATE_SET
    set_time(state, tick_index * dt)
    set_index(state, tick_index)
    set_bodies(state, bodies)
    set_cfg(state, cfg)
    set_contacts(state, out)
    return state
