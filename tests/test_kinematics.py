import math

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from mosim import Rel, SceneConfig, contact_relation, kinematics, surface_distance, tick
from mosim.errors import ImmobileThemeError, UnboundObjectError, UnsupportedShapePair
from mosim.kinematics import (
    PLUS_X,
    Body,
    WorldState,
    _clamp_fraction,
    _gap,
    _point_box_distance,
    _unit_horizontal,
    hnorm,
    rest_height,
    vadd,
    vnorm,
    vscale,
    vsub,
)
from mosim.lexicon import TICK_ACTIONS, Shape
from mosim.record import replace

FLOOR = Body(id="floor", shape=Shape.PLANE, dimensions=(), mobile=False,
             position=(0.0, 0.0, 0.0))
# same geometry the builtin lexicon gives the wall: 4 wide, 2 tall, 0.2 deep
WALL = Body(id="wall", shape=Shape.BOX, dimensions=(4.0, 2.0, 0.2), mobile=False,
            position=(5.0, 1.0, 0.0))


def ball_at(pos, r=0.5, **kw):
    return Body(id="ball", shape=Shape.SPHERE, dimensions=(r,), mobile=True,
                position=pos, **kw)


def world(*bodies, cfg=None):
    return WorldState(0.0, 0, {b.id: b for b in bodies}, cfg or SceneConfig(seed=0))


def half_extents(box: Body):
    # a box is width x height x depth, its depth along x
    w, h, d = box.dimensions
    return (d / 2, h / 2, w / 2)


def box_surface_points(box: Body, per_axis: int = 60):
    """Brute-force sample of points on all six faces of an axis-aligned box."""
    hx, hy, hz = half_extents(box)
    cx, cy, cz = box.position
    points = []
    def rng(c, h):
        return [c - h + 2 * h * i / (per_axis - 1) for i in range(per_axis)]
    for x in (cx - hx, cx + hx):
        points += [(x, y, z) for y in rng(cy, hy) for z in rng(cz, hz)]
    for y in (cy - hy, cy + hy):
        points += [(x, y, z) for x in rng(cx, hx) for z in rng(cz, hz)]
    for z in (cz - hz, cz + hz):
        points += [(x, y, z) for x in rng(cx, hx) for y in rng(cy, hy)]
    return points


WALL_SURFACE = box_surface_points(WALL)


def oracle_sphere_box(center, r, box):
    inside = all(abs(center[i] - box.position[i]) <= box.half_extents[i] for i in range(3))
    best = min(vnorm(vsub(center, p)) for p in box.surface_points)
    return (-best if inside else best) - r


class _OracleBox:
    position = WALL.position
    half_extents = half_extents(WALL)
    surface_points = WALL_SURFACE


def test_sphere_plane_touching():
    assert surface_distance(ball_at((0, 0.5, 0)), FLOOR) == 0.0


def test_sphere_plane_above():
    assert surface_distance(ball_at((0, 1.5, 0)), FLOOR) == pytest.approx(1.0)


def test_sphere_box_touching_wall_face():
    # center 0.5 m from the x=4.9 face plane: exactly touching
    assert surface_distance(ball_at((4.4, 0.5, 0)), WALL) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("center", [
    (4.0, 0.5, 0.0),    # frontal approach
    (4.4, 0.5, 0.0),    # touching
    (4.6, 2.4, 0.0),    # near the top edge
    (4.5, 1.0, 2.3),    # near the side edge
    (0.0, 3.5, 0.0),    # far corner region
])
def test_sphere_box_against_point_sampling_oracle(center):
    got = surface_distance(ball_at(center), WALL)
    want = oracle_sphere_box(center, 0.5, _OracleBox)
    # oracle resolution is limited by the sampling grid
    assert got == pytest.approx(want, abs=0.05)


def test_box_plane_distance():
    assert surface_distance(WALL, FLOOR) == pytest.approx(0.0)
    raised = Body(id="crate", shape=Shape.BOX, dimensions=(1, 1, 1), mobile=True,
                  position=(0.0, 1.5, 0.0))
    assert surface_distance(raised, FLOOR) == pytest.approx(1.0)


def test_sphere_sphere_distance():
    a = ball_at((0, 0.5, 0))
    b = Body(id="bird", shape=Shape.SPHERE, dimensions=(0.2,), mobile=True,
             position=(1.0, 0.5, 0.0))
    assert surface_distance(a, b) == pytest.approx(0.3)


def test_plane_plane_unsupported():
    other = Body(id="sheet", shape=Shape.PLANE, dimensions=(), mobile=False,
                 position=(0, 0, 0))
    with pytest.raises(UnsupportedShapePair):
        surface_distance(FLOOR, other)


def test_contact_relation_thresholds():
    eps = 1e-3
    assert contact_relation(ball_at((0, 0.5, 0)), FLOOR, eps) is Rel.EC
    assert contact_relation(ball_at((0, 1.5, 0)), FLOOR, eps) is Rel.DC
    assert contact_relation(ball_at((0, 0.49, 0)), FLOOR, eps) is Rel.PO


def test_roll_tick_translates_and_rotates():
    cfg = SceneConfig(seed=0, dt=0.1, speed=1.0)
    w = world(FLOOR, ball_at((0, 0.5, 0)), cfg=cfg)
    w2 = tick(w, "roll", "ball", (1, 0, 0), cfg)
    ball = w2.body("ball")
    assert ball.position == pytest.approx((0.1, 0.5, 0.0))
    assert ball.rotation == pytest.approx(0.2)  # s = r * theta


def test_slide_tick_translates_without_rotation():
    cfg = SceneConfig(seed=0, dt=0.1, speed=1.0)
    w = world(FLOOR, ball_at((0, 0.5, 0)), cfg=cfg)
    w2 = tick(w, "slide", "ball", (1, 0, 0), cfg)
    ball = w2.body("ball")
    assert ball.position == pytest.approx((0.1, 0.5, 0.0))
    assert ball.rotation == 0.0


def test_tick_rejects_immobile_theme():
    w = world(FLOOR, WALL)
    with pytest.raises(ImmobileThemeError):
        tick(w, "roll", "wall", (1, 0, 0))


def test_tick_accepts_exactly_the_lexicon_actions():
    w = world(FLOOR, ball_at((0, 0.5, 0)))
    for action in TICK_ACTIONS:
        tick(w, action, "ball", (1, 0, 0))
    with pytest.raises(ValueError, match="^unknown tick action 'hop'$"):
        tick(w, "hop", "ball", (1, 0, 0))


def test_tick_names_the_first_of_several_faults():
    # every fault at once, then one fewer each time: a foreign config, an unbound
    # theme, an immobile theme, a heading that is not horizontal (given, or the
    # theme's own), a zero heading, an unknown action
    w = world(FLOOR, ball_at((0, 0.5, 0)), WALL)
    up = replace(w.body("ball"), heading=(0.0, 1.0, 0.0))
    tilted = WorldState(w.time, w.tick_index, {**w.bodies, "ball": up}, w.cfg, w.contacts)
    cases = [
        (ValueError, "^tick runs under the world's config; another config was given$",
         (w, "hop", "ghost", (0, 1, 0), SceneConfig(seed=1))),
        (UnboundObjectError, "^object 'ghost' is not bound in this world state$",
         (w, "hop", "ghost", (0, 1, 0), w.cfg)),
        (ImmobileThemeError, "^theme 'wall' is immobile and cannot move$",
         (w, "hop", "wall", (0, 1, 0))),
        (ValueError, "^motion direction must be horizontal$", (w, "hop", "ball", (0, 1, 0))),
        (ValueError, "^motion direction must be horizontal$", (tilted, "hop", "ball")),
        (ValueError, "^motion direction must be nonzero$", (w, "hop", "ball", (0, 0, 0))),
        (ValueError, "^unknown tick action 'hop'$", (w, "hop", "ball", (1, 0, 0))),
        (ValueError, "^unknown tick action 'hop'$", (w, "hop", "ball")),
    ]
    for error, message, args in cases:
        with pytest.raises(error, match=message):
            tick(*args)


def test_tick_time_advances_by_exactly_dt():
    cfg = SceneConfig(seed=0)
    w = world(FLOOR, ball_at((0, 0.5, 0)), cfg=cfg)
    for i in range(1, 50):
        w = tick(w, "slide", "ball", (1, 0, 0), cfg)
        assert w.tick_index == i
        assert w.time == pytest.approx(i * cfg.dt, abs=1e-12)


def test_bounce_apex_ratio_matches_restitution_energy_oracle():
    # oracle: each rebound scales speed by e, so apex gaps scale by e^2
    cfg = SceneConfig(seed=0)
    w = world(FLOOR, ball_at((0.0, 2.5, 0.0)), cfg=cfg)  # 2 m drop
    ys = [w.body("ball").position[1]]
    for _ in range(400):
        w = tick(w, "bounce", "ball", (1, 0, 0), cfg)
        ys.append(w.body("ball").position[1])
    apexes = [ys[i] - 0.5 for i in range(1, len(ys) - 1)
              if ys[i] >= ys[i - 1] and ys[i] > ys[i + 1]]
    assert len(apexes) >= 4
    expected = cfg.restitution ** 2
    ratios = [apexes[0] / 2.0] + [apexes[i + 1] / apexes[i] for i in range(3)]
    for ratio in ratios:
        assert abs(ratio - expected) / expected <= 0.05


def test_bounce_alternates_floor_contact():
    cfg = SceneConfig(seed=0)
    w = world(FLOOR, ball_at((0.0, 0.6, 0.0)), cfg=cfg)
    rels = []
    for _ in range(60):
        w = tick(w, "bounce", "ball", (1, 0, 0), cfg)
        rels.append(w.contacts["ball", "floor"])
    assert Rel.EC in rels and Rel.DC in rels
    assert Rel.PO not in rels


def test_fly_keeps_altitude_and_stays_dc():
    cfg = SceneConfig(seed=0)
    w = world(FLOOR, ball_at((0.0, 1.5, 0.0)), cfg=cfg)
    for _ in range(100):
        w = tick(w, "fly", "ball", (1, 0, 0), cfg)
        assert w.body("ball").position[1] == 1.5
        assert w.contacts["ball", "floor"] is Rel.DC


def test_goal_clamp_stops_at_contact_without_tunneling():
    cfg = SceneConfig(seed=0, speed=10.0)  # 0.166 m per tick: will cross the face
    w = world(FLOOR, ball_at((4.3, 0.5, 0.0)), WALL, cfg=cfg)
    for _ in range(10):
        w = tick(w, "slide", "ball", (1, 0, 0), cfg)
        d = surface_distance(w.body("ball"), w.body("wall"))
        assert d > -cfg.contact_eps  # never PO against the goal
    assert w.contacts["ball", "wall"] is Rel.EC


def test_position_fixed_point_after_goal_contact():
    cfg = SceneConfig(seed=0)
    w = world(FLOOR, ball_at((4.4, 0.5, 0.0)), WALL, cfg=cfg)  # exactly touching
    positions = []
    for _ in range(5):
        w = tick(w, "roll", "ball", (1, 0, 0), cfg)
        positions.append(w.body("ball").position)
    for p in positions:
        assert vnorm(vsub(p, positions[0])) <= 1e-9
    # rolling in place accumulates no rotation: arc length is zero
    assert w.body("ball").rotation <= 1e-9


def test_roll_step_crossing_goal_face_stops_at_contact():
    cfg = SceneConfig(seed=0, dt=0.1, speed=1.0)  # 0.1 m step from 4.35 crosses the 4.4 face
    w = world(FLOOR, ball_at((4.35, 0.5, 0.0)), WALL, cfg=cfg)
    ball = tick(w, "roll", "ball", (1, 0, 0), cfg).body("ball")
    assert surface_distance(ball, WALL) == pytest.approx(0.0, abs=1e-9)
    # velocity is the clamped displacement over dt, not the commanded speed
    assert ball.velocity[0] == pytest.approx((4.4 - 4.35) / cfg.dt)
    assert ball.velocity[0] < cfg.speed


def test_step_short_of_goal_commits_proposed_position():
    cfg = SceneConfig(seed=0, dt=0.1, speed=1.0)
    w = world(FLOOR, ball_at((3.4, 0.5, 0.0)), WALL, cfg=cfg)
    assert tick(w, "roll", "ball", (1, 0, 0), cfg).body("ball").position == (3.5, 0.5, 0.0)


def test_roll_arc_length_coupling_over_1000_frames():
    cfg = SceneConfig(seed=0)
    w = world(FLOOR, ball_at((0, 0.5, 0)), cfg=cfg)
    path = 0.0
    prev = w.body("ball").position
    for _ in range(1000):
        w = tick(w, "roll", "ball", (1, 0, 0), cfg)
        cur = w.body("ball").position
        path += hnorm(vsub(cur, prev))
        prev = cur
    assert abs(w.body("ball").rotation - path / 0.5) <= 1e-6


def test_roll_slide_move_preserve_floor_contact():
    cfg = SceneConfig(seed=0)
    for action in ("roll", "slide", "move"):
        w = world(FLOOR, ball_at((0, 0.5, 0)), cfg=cfg)
        for _ in range(200):
            w = tick(w, action, "ball", (0, 0, 1), cfg)
            assert w.contacts["ball", "floor"] is Rel.EC


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    angle=st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
)
def test_slide_reversibility(n, angle):
    cfg = SceneConfig(seed=0)
    direction = (math.cos(angle), 0.0, math.sin(angle))
    back = (-direction[0], 0.0, -direction[2])
    w = world(FLOOR, ball_at((0, 0.5, 0)), cfg=cfg)
    start = w.body("ball").position
    for _ in range(n):
        w = tick(w, "slide", "ball", direction, cfg)
    for _ in range(n):
        w = tick(w, "slide", "ball", back, cfg)
    assert vnorm(vsub(w.body("ball").position, start)) <= 1e-9


def test_tick_shares_bodies_whose_contacts_did_not_change():
    w = world(FLOOR, ball_at((0, 0.5, 0)), WALL)
    w2 = tick(w, "roll", "ball", (1, 0, 0))
    assert w2.body("floor") is w.body("floor")
    assert w2.body("wall") is w.body("wall")
    assert w2.contacts is w.contacts


# -- kernel properties -----------------------------------------------------------

COORD = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
SIZE = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)
POINT = st.tuples(COORD, COORD, COORD)


@st.composite
def bodies(draw, body_id="a", shapes=(Shape.SPHERE, Shape.BOX, Shape.PLANE)):
    shape = draw(st.sampled_from(shapes))
    dims = {Shape.SPHERE: (draw(SIZE),), Shape.BOX: draw(st.tuples(SIZE, SIZE, SIZE)),
            Shape.PLANE: ()}[shape]
    return Body(id=body_id, shape=shape, dimensions=dims, mobile=shape is not Shape.PLANE,
                position=draw(POINT))


@seed(20161006)
@settings(max_examples=300, deadline=None)
@given(a=bodies("a"), b=bodies("b"))
def test_surface_distance_is_symmetric(a, b):
    if a.shape is Shape.PLANE and b.shape is Shape.PLANE:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(UnsupportedShapePair):
                surface_distance(x, y)
        return
    ab, ba = surface_distance(a, b), surface_distance(b, a)
    if a.shape is not b.shape:
        assert ab == ba
    else:
        # like shapes subtract the first body's size first, so the two orders
        # agree only to rounding; exact symmetry there would change trace bytes
        assert abs(ab - ba) <= 4 * math.ulp(max(abs(ab), *a.dimensions, *b.dimensions))


def point_box_distance_oracle(p, box):
    """The generator-expression formula the unrolled kernel replaced."""
    h = half_extents(box)
    d = [abs(p[i] - box.position[i]) - h[i] for i in range(3)]
    # added left to right: sum() of floats is compensated from Python 3.12 on
    sq = [max(di, 0.0) ** 2 for di in d]
    outside = math.sqrt(sq[0] + sq[1] + sq[2])
    inside = min(max(d), 0.0)
    return outside + inside


@seed(20161006)
@settings(max_examples=500, deadline=None)
@given(
    box=bodies("box", shapes=(Shape.BOX,)),
    offset=st.tuples(*[st.one_of(COORD, st.sampled_from((0.0, 0.5, -0.5, 2.0)))] * 3),
)
# a ball centre by the wall where squaring with ``x * x`` instead of ``** 2`` moves
# the last bit: 0.49287190855899127, and 0.4928719085589913 with ``x * x``
@example(box=WALL, offset=(0.591105944315764, 1.041685365589189, 0.0))
def test_unrolled_point_box_distance_matches_oracle_bit_for_bit(box, offset):
    p = tuple(c + o for c, o in zip(box.position, offset))
    got = _point_box_distance(p, box, box.position)
    assert got.hex() == point_box_distance_oracle(p, box).hex()


@st.composite
def offsets(draw, reach):
    """Per axis: a signed zero, that axis' ``reach`` either way, or an offset within or beyond it."""
    return tuple(
        draw(st.one_of(st.sampled_from((0.0, -0.0, r, -r)),
                       st.floats(min_value=-r, max_value=r),
                       st.floats(min_value=r, max_value=r + 8.0),
                       st.floats(min_value=-r - 8.0, max_value=-r)))
        for r in reach
    )


def box_box_distance_oracle(a, pa, b, pb):
    """The list-and-generator formula the unrolled kernel replaced, added left to right."""
    ha, hb = half_extents(a), half_extents(b)
    gaps = [abs(pa[i] - pb[i]) - ha[i] - hb[i] for i in range(3)]
    if all(g <= 0 for g in gaps):
        return max(gaps)
    sq = [max(g, 0.0) ** 2 for g in gaps]
    return math.sqrt(sq[0] + sq[1] + sq[2])


@st.composite
def box_pairs(draw):
    """Two boxes and where the second stands: at an offset from the first."""
    a, b = draw(bodies("a", shapes=(Shape.BOX,))), draw(bodies("b", shapes=(Shape.BOX,)))
    # faces touch at an offset of the two half extents summed along an axis
    reach = tuple(x + y for x, y in zip(half_extents(a), half_extents(b)))
    return a, b, tuple(c + o for c, o in zip(a.position, draw(offsets(reach))))


@seed(20161006)
@settings(max_examples=500, deadline=None)
@given(pair=box_pairs())
# a 1 m block by the wall where squaring with ``x * x`` instead of ``** 2`` moves
# the last bit: 0.4481076043847342, and 0.4481076043847341 with ``x * x``
@example(pair=(WALL, Body("block", Shape.BOX, (1.0, 1.0, 1.0), True, (0.0, 0.5, 0.0)),
               (5.843735046554402, 2.8760234729223018, 0.0)))
def test_unrolled_box_box_distance_matches_oracle_bit_for_bit(pair):
    a, b, pb = pair
    for x, px, y, py in ((a, a.position, b, pb), (b, pb, a, a.position)):
        got = _gap(x, px, y, py)
        assert got.hex() == box_box_distance_oracle(x, px, y, py).hex()


@seed(20161006)
@settings(max_examples=500, deadline=None)
@given(a=bodies("a", shapes=(Shape.SPHERE,)), b=bodies("b", shapes=(Shape.SPHERE,)),
       data=st.data())
def test_unrolled_sphere_sphere_gap_matches_the_vector_form_bit_for_bit(a, b, data):
    (ra,), (rb,) = a.dimensions, b.dimensions
    pb = tuple(c + o for c, o in zip(a.position, data.draw(offsets((ra + rb,) * 3))))
    got = _gap(a, a.position, b, pb)
    assert got.hex() == (vnorm(vsub(a.position, pb)) - ra - rb).hex()


def clamp_fraction_oracle(theme, start, proposed, obstacle):
    """The bisection that built each probe point with vadd and vscale."""
    lo, hi = 0.0, 1.0
    delta = vsub(proposed, start)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _gap(theme, vadd(start, vscale(delta, mid)), obstacle, obstacle.position) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@seed(20161006)
@settings(max_examples=200, deadline=None)
@given(
    theme=bodies("theme", shapes=(Shape.SPHERE, Shape.BOX)),
    obstacle=bodies("obstacle", shapes=(Shape.SPHERE, Shape.BOX)),
    data=st.data(),
)
def test_clamp_fraction_matches_the_vector_form_bit_for_bit(theme, obstacle, data):
    reach = (max(theme.dimensions) + max(obstacle.dimensions),) * 3
    start = tuple(c + o for c, o in zip(obstacle.position, data.draw(offsets(reach))))
    proposed = tuple(c + o for c, o in zip(obstacle.position, data.draw(offsets(reach))))
    got = _clamp_fraction(theme, start, proposed, obstacle)
    assert got.hex() == clamp_fraction_oracle(theme, start, proposed, obstacle).hex()


ACTIONS = ("roll", "slide", "move", "fly", "bounce")


@seed(20161006)
@settings(max_examples=100, deadline=None)
@given(
    theme=bodies("theme", shapes=(Shape.SPHERE, Shape.BOX)),
    angle=st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
)
def test_tick_result_is_already_refreshed(theme, angle):
    cfg = SceneConfig(seed=0, speed=30.0)  # 0.5 m steps: clamps and contact changes happen
    w = WorldState(0.0, 0, {b.id: b for b in (FLOOR, theme, WALL)}, cfg)
    direction = (math.cos(angle), 0.0, math.sin(angle))
    for action in ACTIONS:
        out = tick(w, action, "theme", direction)
        assert WorldState(out.time, out.tick_index, out.bodies, out.cfg) == out


# -- the tick against the full-refresh kernel it replaced ---------------------------


def _reference_obstacles(world, theme, proposed, eps):
    pos = proposed
    for other in world.bodies.values():
        if other.id == theme.id or other.shape is Shape.PLANE:
            continue
        d_old = _gap(theme, theme.position, other, other.position)
        d_new = _gap(theme, pos, other, other.position)
        if d_old <= eps and d_new < d_old:
            pos = (theme.position[0], pos[1], theme.position[2])
            continue
        if d_new < 0.0:
            frac = _clamp_fraction(theme, theme.position, pos, other)
            pos = vadd(theme.position, vscale(vsub(pos, theme.position), frac))
    return pos


def _reference_contacts(bodies, eps):
    items = list(bodies.items())
    contacts = {}
    for i, (a_id, a) in enumerate(items):
        for b_id, b in items[i + 1:]:
            try:
                rel = contact_relation(a, b, eps)
            except UnsupportedShapePair:
                continue
            contacts[a_id, b_id] = rel
            contacts[b_id, a_id] = rel
    return contacts


def dividing_unit_horizontal(direction):
    """``_unit_horizontal`` as it was: every heading divided by its length."""
    if abs(direction[1]) > 1e-9:
        raise ValueError("motion direction must be horizontal")
    n = hnorm(direction)
    if n == 0.0:
        raise ValueError("motion direction must be nonzero")
    return (direction[0] / n, 0.0, direction[2] / n)


def reference_tick(world, action, theme_id, direction):
    """The tick that measured every gap afresh and recomputed every pair."""
    cfg = world.cfg
    theme = world.body(theme_id)
    direction = dividing_unit_horizontal(direction)
    dt = cfg.dt
    step = cfg.speed * dt
    x = theme.position[0] + direction[0] * step
    z = theme.position[2] + direction[2] * step
    vy = theme.velocity[1]
    rest = rest_height(theme.shape, theme.dimensions)
    if action in ("roll", "slide", "move"):
        y, vy = rest, 0.0
    elif action == "fly":
        y, vy = theme.position[1], 0.0
    else:
        y0, g = theme.position[1], cfg.gravity
        y = y0 + vy * dt - 0.5 * g * dt * dt
        if y < rest:
            impact_speed = math.sqrt(max(vy * vy + 2.0 * g * (y0 - rest), 0.0))
            y, vy = rest, cfg.restitution * impact_speed
        else:
            vy = vy - g * dt
    final = _reference_obstacles(world, theme, (x, y, z), cfg.contact_eps)
    moved_h = math.hypot(final[0] - theme.position[0], final[2] - theme.position[2])
    rotation = theme.rotation
    if action == "roll":
        rotation += moved_h / theme.rolling_radius
    velocity = vscale(vsub(final, theme.position), 1.0 / dt)
    if action == "bounce":
        velocity = (velocity[0], vy, velocity[2])
    new_theme = replace(theme, position=final, heading=direction, rotation=rotation,
                        velocity=velocity)
    bodies = {**world.bodies, theme.id: new_theme}
    return WorldState((world.tick_index + 1) * cfg.dt, world.tick_index + 1, bodies, world.cfg,
                      _reference_contacts(bodies, cfg.contact_eps))


COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.6, -0.8, math.inf, math.nan]),
    st.integers(min_value=-2, max_value=2),
    st.floats(min_value=-2.0, max_value=2.0),
)
# (cos a, sin a) has length 1.0 or is an ulp or so off it
NEAR_UNIT = st.floats(min_value=-math.pi, max_value=math.pi).map(lambda a: (math.cos(a), math.sin(a)))


@st.composite
def headings(draw):
    x, z = draw(NEAR_UNIT | st.tuples(COMPONENT, COMPONENT))
    y = draw(st.sampled_from([0.0, -0.0, 0, 1e-10, -1e-10, 2e-9, 1.0]))
    return draw(st.sampled_from([tuple, list]))((x, y, z))


@seed(20161006)
@settings(max_examples=400, deadline=None)
@given(direction=headings())
def test_unit_horizontal_matches_the_dividing_form_bit_for_bit(direction):
    try:
        want = dividing_unit_horizontal(direction)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            _unit_horizontal(direction)
        return
    got = _unit_horizontal(direction)
    assert type(got) is tuple
    assert [c.hex() for c in got] == [c.hex() for c in want]


def test_unit_horizontal_returns_plus_x_as_itself():
    assert _unit_horizontal(PLUS_X) is PLUS_X
    w = world(FLOOR, ball_at((0.0, 0.5, 0.0)))
    for _ in range(3):
        w = tick(w, "roll", "ball")
        assert w.body("ball").heading is PLUS_X


def assert_same_state_bits(got, want):
    assert (got.time.hex(), got.tick_index) == (want.time.hex(), want.tick_index)
    assert list(got.bodies) == list(want.bodies)
    for key, w in want.bodies.items():
        g = got.bodies[key]
        assert [c.hex() for c in g.position] == [c.hex() for c in w.position], key
        assert [c.hex() for c in g.velocity] == [c.hex() for c in w.velocity], key
        assert g.rotation.hex() == w.rotation.hex(), key
        assert g.heading == w.heading, key
    # the same relations; every reader looks a pair up by its key, so order is free
    assert got.contacts == want.contacts


NEAR = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


@st.composite
def obstacle_scenes(draw):
    """A theme, the floor and one or two obstacles ahead of it, in a random order.

    One obstacle has the theme's shape, and shuffling puts it before the theme
    in about half the cases: the order in which like shapes are measured
    decides the last bit of their gap.
    """
    theme = draw(bodies("theme", shapes=(Shape.SPHERE, Shape.BOX)))
    x0, _, z0 = theme.position
    # at rest height, or above it (fly and bounce then leave the floor gap above 0)
    # or a little below it, with a vertical speed for bounce
    lift = draw(st.just(0.0) | st.floats(min_value=-0.05, max_value=3.0))
    theme = replace(theme, position=(x0, rest_height(theme.shape, theme.dimensions) + lift, z0),
                    velocity=(0.0, draw(st.just(0.0) | st.floats(-5.0, 5.0)), 0.0))
    obstacles = []
    for k in range(draw(st.integers(min_value=1, max_value=2))):
        shapes = (theme.shape,) if k == 0 else (Shape.SPHERE, Shape.BOX)
        body = draw(bodies(f"ob{k}", shapes=shapes))
        ahead = (x0 + draw(st.floats(min_value=0.0, max_value=4.0)),
                 rest_height(body.shape, body.dimensions) + draw(NEAR) / 3.0,
                 z0 + draw(NEAR))
        obstacles.append(replace(body, position=ahead, mobile=draw(st.booleans())))
    order = draw(st.permutations([FLOOR, theme, *obstacles]))
    return {b.id: b for b in order}


def lifted_ball(height, floor_first, vy=0.0):
    """A 0.5 m ball theme ``height`` above its rest height, the floor before or after it."""
    theme = Body("theme", Shape.SPHERE, (0.5,), True, (0.0, 0.5 + height, 0.0),
                 velocity=(0.0, vy, 0.0))
    wall = replace(WALL, position=(2.0, 1.0, 0.0))
    order = (FLOOR, theme, wall) if floor_first else (theme, wall, FLOOR)
    return {b.id: b for b in order}


def thin_box_ahead(box_first):
    """A 0.25 m ball theme at x = 0 and a box 2 cm deep at x = 1, clear of each other."""
    theme = Body("theme", Shape.SPHERE, (0.25,), True, (0.0, 0.25, 0.0))
    box = Body("ob0", Shape.BOX, (1.0, 1.0, 0.02), False, (1.0, 0.5, 0.0))
    order = (FLOOR, box, theme) if box_first else (FLOOR, theme, box)
    return {b.id: b for b in order}


@seed(20161006)
@settings(max_examples=150, deadline=None)
@given(
    scene=obstacle_scenes(),
    speed=st.sampled_from([1.0, 30.0, 120.0]),    # 1.7 cm, 0.5 m and 2 m per tick
    steps=st.lists(
        # an angle of None ticks along the theme's own heading
        st.tuples(st.sampled_from(ACTIONS), st.none() | st.floats(min_value=-0.6, max_value=0.6)),
        min_size=1, max_size=8,
    ),
)
# a bounce in flight, a bounce landing (3 mm above the floor, falling at 2 m/s), a flight
# at altitude, and a 5 cm drop that lands and rebounds; the floor before and after the theme
@example(scene=lifted_ball(2.0, True), speed=30.0, steps=[("bounce", None)] * 4)
@example(scene=lifted_ball(2.0, False), speed=30.0, steps=[("bounce", None)] * 4)
@example(scene=lifted_ball(0.003, True, -2.0), speed=1.0, steps=[("bounce", None)] * 3)
@example(scene=lifted_ball(0.003, False, -2.0), speed=1.0, steps=[("bounce", 0.3)] * 3)
@example(scene=lifted_ball(1.5, True), speed=30.0, steps=[("fly", None)] * 4)
@example(scene=lifted_ball(1.5, False), speed=120.0,
         steps=[("fly", -0.2), ("fly", None), ("roll", None)])
@example(scene=lifted_ball(0.05, False), speed=1.0, steps=[("bounce", None)] * 8)
# a 2 m step that starts and ends on opposite sides of a 2 cm box, the box before
# and after the theme
@example(scene=thin_box_ahead(True), speed=120.0, steps=[("slide", None)] * 2)
@example(scene=thin_box_ahead(False), speed=120.0, steps=[("slide", None)])
def test_tick_matches_the_full_refresh_kernel_bit_for_bit(scene, speed, steps):
    got = want = WorldState(0.0, 0, scene, SceneConfig(seed=0, speed=speed))
    for action, angle in steps:
        if angle is None:
            got = tick(got, action, "theme")
            want = reference_tick(want, action, "theme", want.body("theme").heading)
        else:
            direction = (math.cos(angle), 0.0, math.sin(angle))
            got = tick(got, action, "theme", direction)
            want = reference_tick(want, action, "theme", direction)
        assert_same_state_bits(got, want)


def test_rolling_to_the_wall_measures_the_wall_only_on_the_tick_that_reaches_it(monkeypatch):
    from mosim import build_scene, builtin_lexicon, compile_event, execute, parse_text
    from mosim.rng import stream_for

    lex, cfg = builtin_lexicon(), SceneConfig(seed=0, ground_distance=50)
    frame = parse_text("the ball rolled to the wall", lex)
    scene, program = build_scene(frame, lex, cfg), compile_event(frame, lex, cfg)
    calls = []

    def counted(p, box, c):
        calls.append(None)
        return _point_box_distance(p, box, c)

    monkeypatch.setattr(kinematics, "_point_box_distance", counted)
    trace = execute(program, scene.initial, stream_for(0, "choice"), cfg.max_frames)
    assert trace.tick_count == 2964
    # every tick but the last is clear of the wall along x by more than the x-interval
    # gate's margin, so its DC relation comes from the gate; the last tick's d_new
    # gives its EC relation, and its old gap comes from the DC relation
    assert len(calls) == 1


def test_executing_the_roll_to_the_wall_builds_one_body_per_tick():
    from mosim import build_scene, builtin_lexicon, compile_event, execute, parse_text
    from mosim.rng import stream_for

    lex, cfg = builtin_lexicon(), SceneConfig(seed=0, ground_distance=50)
    frame = parse_text("the ball rolled to the wall", lex)
    scene, program = build_scene(frame, lex, cfg), compile_event(frame, lex, cfg)
    trace = execute(program, scene.initial, stream_for(0, "choice"), cfg.max_frames)
    assert trace.tick_count > 2500
    # the moved theme, one per state; the floor and the wall are the first state's
    # in every state, not rebuilt when the ball's contact with the wall changes
    s0 = trace.states[0]
    assert all(s.body("floor") is s0.body("floor") and s.body("wall") is s0.body("wall")
               for s in trace.states)
    distinct = {id(body) for s in trace.states for body in s.bodies.values()}
    assert len(distinct) == len(trace.states) + 2


def test_flag_maps_are_copied_only_when_a_flag_changes():
    w = world(FLOOR, ball_at((0.0, 0.5, 0.0)), WALL)
    # far from the wall: the state shares the map, and the others their Body objects
    near = tick(w, "roll", "ball", (1.0, 0.0, 0.0))
    assert near.contacts is w.contacts
    assert near.body("floor") is w.body("floor") and near.body("wall") is w.body("wall")
    # one 1/60 m step short of touching the wall's face (x = 4.9) the ball-wall relation
    # changes: the map is copied with both of the pair's keys written, no other body rebuilt
    w = world(FLOOR, ball_at((4.39, 0.5, 0.0)), WALL)
    hit = tick(w, "roll", "ball", (1.0, 0.0, 0.0))
    assert hit.contacts is not w.contacts
    assert hit.contacts == {**w.contacts, ("ball", "wall"): Rel.EC, ("wall", "ball"): Rel.EC}
    assert w.contacts["ball", "wall"] is w.contacts["wall", "ball"] is Rel.DC
    assert list(hit.contacts) == list(w.contacts)
    assert hit.body("floor") is w.body("floor") and hit.body("wall") is w.body("wall")


def test_first_overlap_is_the_first_po_pair_in_bodies_order():
    assert kinematics.first_overlap(world(FLOOR, ball_at((0.0, 0.5, 0.0)), WALL)) is None
    inside = ball_at((5.0, 0.5, 0.0))  # in the wall, resting on the floor
    assert kinematics.first_overlap(world(WALL, FLOOR, inside)) == ("wall", "ball")
    assert kinematics.first_overlap(world(inside, FLOOR, WALL)) == ("ball", "wall")
    # sunk into the floor as well: the floor's pair comes first, the floor named first
    sunk = ball_at((5.0, 0.25, 0.0))
    assert kinematics.first_overlap(world(FLOOR, WALL, sunk)) == ("floor", "ball")
    assert kinematics.first_overlap(world(WALL, sunk, FLOOR)) == ("wall", "ball")


def test_records_built_without_their_optional_fields():
    # a state built without a contact map gets its own, never a shared default
    a, b = (WorldState(0.0, 0, {}, SceneConfig(seed=0)) for _ in range(2))
    assert a.contacts == {} and a.contacts is not b.contacts
    # a body's default heading is PLUS_X itself, which tick takes without dividing
    assert ball_at((0.0, 0.5, 0.0)).heading is PLUS_X


def _sphere(body_id, r, x, y=None):
    return Body(body_id, Shape.SPHERE, (r,), body_id == "theme", (x, r if y is None else y, 0.0))


def _box(body_id, x, z=0.0):
    return Body(body_id, Shape.BOX, (1.0, 1.0, 0.2), False, (x, 0.5, z))


# Scenes where a shortcut the tick takes would go wrong if it were taken
# under the wrong condition; each is compared with the full-refresh kernel.
EDGE_CASES = {
    # the ball-first gap is within eps but the scene-order one, which the DC
    # flag reports, is one ulp beyond it: the old gap must be measured
    "like shapes before the theme": [
        _sphere("ob", 0.1, 0.601, 0.5), _sphere("theme", 0.5, 0.0), FLOOR,
    ],
    # the proposed position touches the sphere, but the box clamps the step
    # well short of it: the gap measured at the proposed position is stale
    "a later obstacle clamps": [
        _sphere("theme", 0.5, 0.0), _sphere("ob", 0.2, 1.7005, 0.5),
        Body("box", Shape.BOX, (1.0, 1.0, 0.2), False, (1.1, 0.5, 0.0)), FLOOR,
    ],
    # The x-interval gate.  From x = 0 the 0.5 m ball slides to x = 1, so the
    # 0.2 m deep box's face at ox - 0.1 is ox - 1.6 clear of the step along x,
    # and the gate's margin is 1e-9 * (1 + ox + 0.5 + 0.1), about 3.2e-9 m past eps
    "an x separation just beyond the gate's margin": [
        _sphere("theme", 0.5, 0.0), _box("box", 1.601 + 4.8e-9), FLOOR,
    ],
    "an x separation just within the gate's margin": [
        _sphere("theme", 0.5, 0.0), _box("box", 1.601 + 1.6e-9), FLOOR,
    ],
    # the margin grows with |x|: at 1e6 m it is about 3 mm, so a box 1.4 m clear is
    # passed by; at 1e9 m, the reach config.RANGES allows, it is about 3 m, so a
    # box 1.4 m clear is measured and one 8.4 m clear is not
    "far along x, at 1e6 m": [
        _sphere("theme", 0.5, 1e6), _box("box", 1e6 + 3.0), FLOOR,
    ],
    "far along x, at 1e9 m": [
        _sphere("theme", 0.5, 1e9), _box("near", 1e9 + 3.0), _box("far", 1e9 + 10.0), FLOOR,
    ],
    # across the step's x-interval but 2 m clear of it in z
    "an obstacle across the step in x, off to the side in z": [
        _sphere("theme", 0.5, 0.0), _box("box", 1.0, z=3.0), FLOOR,
    ],
    # a sphere before the sphere theme: its DC relation was measured obstacle
    # first, so neither the old gap nor the gate may be skipped
    "a like shape before the theme, far along x": [
        _sphere("ob", 0.1, 5.0), _sphere("theme", 0.5, 0.0), FLOOR,
    ],
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_tick_matches_the_full_refresh_kernel_at_the_edges(case):
    cfg = SceneConfig(seed=0, speed=60.0)   # 1 m per tick
    w = WorldState(0.0, 0, {b.id: b for b in EDGE_CASES[case]}, cfg)
    got, want = (f(w, "slide", "theme", (1.0, 0.0, 0.0)) for f in (tick, reference_tick))
    assert_same_state_bits(got, want)


@pytest.mark.parametrize("scene, speed, measured", [
    (EDGE_CASES["an x separation just beyond the gate's margin"], 60.0, []),
    (EDGE_CASES["an x separation just within the gate's margin"], 60.0, ["box"]),
    (EDGE_CASES["far along x, at 1e6 m"], 60.0, []),
    (EDGE_CASES["far along x, at 1e9 m"], 60.0, ["near"]),
    (EDGE_CASES["an obstacle across the step in x, off to the side in z"], 60.0, ["box"]),
    # d_new, d_old, and the new relation measured in bodies order, obstacle first
    (EDGE_CASES["a like shape before the theme, far along x"], 60.0, ["ob", "ob", "ob"]),
    # clear of the box at both ends of the 2 m step, but not over the whole of it
    (list(thin_box_ahead(True).values()), 120.0, ["ob0"]),
    (list(thin_box_ahead(False).values()), 120.0, ["ob0"]),
], ids=["beyond the margin", "within the margin", "1e6 m", "1e9 m", "off in z",
        "like shape first", "thin box first", "thin box after"])
def test_the_x_gate_passes_by_only_an_obstacle_clear_of_the_whole_step(monkeypatch, scene, speed,
                                                                       measured):
    w = WorldState(0.0, 0, {b.id: b for b in scene}, SceneConfig(seed=0, speed=speed))
    assert all(rel is Rel.DC for (a, b), rel in w.contacts.items() if a == "theme" and b != "floor")
    calls = []

    def counted(a, pa, b, pb):
        calls.append(b.id if a.id == "theme" else a.id)
        return _gap(a, pa, b, pb)

    monkeypatch.setattr(kinematics, "_gap", counted)
    tick(w, "slide", "theme", PLUS_X)
    assert calls == measured


def test_tick_refuses_a_config_other_than_the_worlds():
    # the flags a tick reads were decided under world.cfg's contact_eps; a tick
    # under another config would mix two configs in one state
    scene = [_sphere("theme", 0.5, 0.0),
             Body("box", Shape.BOX, (1.0, 1.0, 0.2), False, (0.6015, 0.5, 0.0)), FLOOR]
    w = WorldState(0.0, 0, {b.id: b for b in scene}, SceneConfig(seed=0))
    for other in (SceneConfig(seed=0, contact_eps=2e-3), SceneConfig(seed=1)):
        with pytest.raises(ValueError, match="the world's config"):
            tick(w, "slide", "theme", PLUS_X, other)
    # the world's own config, or one equal to it, is the same tick as none
    for same in (w.cfg, SceneConfig(seed=0)):
        assert_same_state_bits(tick(w, "slide", "theme", PLUS_X, same),
                               tick(w, "slide", "theme", PLUS_X))
