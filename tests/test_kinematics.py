import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from mosim import Rel, SceneConfig, contact_relation, kinematics, surface_distance, tick
from mosim.errors import ImmobileThemeError, UnsupportedShapePair
from mosim.kinematics import (
    PLUS_X,
    Body,
    WorldState,
    _clamp_fraction,
    _gap,
    _point_box_distance,
    _unit_horizontal,
    hnorm,
    refresh_contacts,
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
    cfg = cfg or SceneConfig(seed=0)
    return refresh_contacts(
        WorldState(0.0, 0, {b.id: b for b in bodies}, cfg)
    )


def box_surface_points(box: Body, per_axis: int = 60):
    """Brute-force sample of points on all six faces of an axis-aligned box."""
    hx, hy, hz = box.half_extents
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
    half_extents = WALL.half_extents
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
        rels.append(w.body("ball").contacts["floor"])
    assert Rel.EC in rels and Rel.DC in rels
    assert Rel.PO not in rels


def test_fly_keeps_altitude_and_stays_dc():
    cfg = SceneConfig(seed=0)
    w = world(FLOOR, ball_at((0.0, 1.5, 0.0)), cfg=cfg)
    for _ in range(100):
        w = tick(w, "fly", "ball", (1, 0, 0), cfg)
        assert w.body("ball").position[1] == 1.5
        assert w.body("ball").contacts["floor"] is Rel.DC


def test_goal_clamp_stops_at_contact_without_tunneling():
    cfg = SceneConfig(seed=0, speed=10.0)  # 0.166 m per tick: will cross the face
    w = world(FLOOR, ball_at((4.3, 0.5, 0.0)), WALL, cfg=cfg)
    for _ in range(10):
        w = tick(w, "slide", "ball", (1, 0, 0), cfg)
        d = surface_distance(w.body("ball"), w.body("wall"))
        assert d > -cfg.contact_eps  # never PO against the goal
    assert w.body("ball").contacts["wall"] is Rel.EC


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
            assert w.body("ball").contacts["floor"] is Rel.EC


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
    assert w2.body("ball").contacts is w.body("ball").contacts


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
    h = box.half_extents
    d = [abs(p[i] - box.position[i]) - h[i] for i in range(3)]
    outside = math.sqrt(sum(max(di, 0.0) ** 2 for di in d))
    inside = min(max(d), 0.0)
    return outside + inside


@seed(20161006)
@settings(max_examples=500, deadline=None)
@given(
    box=bodies("box", shapes=(Shape.BOX,)),
    offset=st.tuples(*[st.one_of(COORD, st.sampled_from((0.0, 0.5, -0.5, 2.0)))] * 3),
)
def test_unrolled_point_box_distance_matches_oracle_bit_for_bit(box, offset):
    p = tuple(c + o for c, o in zip(box.position, offset))
    got = _point_box_distance(p, box, box.position)
    assert got.hex() == point_box_distance_oracle(p, box).hex()


ACTIONS = ("roll", "slide", "move", "fly", "bounce")


@seed(20161006)
@settings(max_examples=100, deadline=None)
@given(
    theme=bodies("theme", shapes=(Shape.SPHERE, Shape.BOX)),
    angle=st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
    hand_built=st.booleans(),
)
def test_tick_result_is_already_refreshed(theme, angle, hand_built):
    cfg = SceneConfig(seed=0, speed=30.0)  # 0.5 m steps: clamps and contact changes happen
    w = WorldState(0.0, 0, {b.id: b for b in (FLOOR, theme, WALL)}, cfg)
    if not hand_built:  # hand-built states keep their empty contact maps
        w = refresh_contacts(w)
    direction = (math.cos(angle), 0.0, math.sin(angle))
    for action in ACTIONS:
        out = tick(w, action, "theme", direction)
        assert refresh_contacts(out) == out


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
    flags = {key: {} for key, _ in items}
    for i, (a_id, a) in enumerate(items):
        for b_id, b in items[i + 1:]:
            try:
                rel = contact_relation(a, b, eps)
            except UnsupportedShapePair:
                continue
            flags[a_id][b_id] = rel
            flags[b_id][a_id] = rel
    return {key: replace(b, contacts=flags[key]) for key, b in items}


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
    bodies = _reference_contacts({**world.bodies, theme.id: new_theme}, cfg.contact_eps)
    return WorldState((world.tick_index + 1) * cfg.dt, world.tick_index + 1, bodies, world.cfg)


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
        # the same flags in the same order: the verifier reports the first PO it iterates to
        assert list(g.contacts.items()) == list(w.contacts.items()), key


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
    theme = replace(theme, position=(x0, rest_height(theme.shape, theme.dimensions), z0))
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


@seed(20161006)
@settings(max_examples=150, deadline=None)
@given(
    scene=obstacle_scenes(),
    hand_built=st.booleans(),
    speed=st.sampled_from([1.0, 30.0, 120.0]),    # 1.7 cm, 0.5 m and 2 m per tick
    steps=st.lists(
        # an angle of None ticks along the theme's own heading
        st.tuples(st.sampled_from(ACTIONS), st.none() | st.floats(min_value=-0.6, max_value=0.6)),
        min_size=1, max_size=8,
    ),
)
def test_tick_matches_the_full_refresh_kernel_bit_for_bit(scene, hand_built, speed, steps):
    cfg = SceneConfig(seed=0, speed=speed)
    w = WorldState(0.0, 0, scene, cfg)
    if not hand_built:  # hand-built states keep their empty contact maps
        w = refresh_contacts(w)
    got = want = w
    for action, angle in steps:
        if angle is None:
            got = tick(got, action, "theme")
            want = reference_tick(want, action, "theme", want.body("theme").heading)
        else:
            direction = (math.cos(angle), 0.0, math.sin(angle))
            got = tick(got, action, "theme", direction)
            want = reference_tick(want, action, "theme", direction)
        assert_same_state_bits(got, want)


def test_rolling_to_the_wall_measures_the_wall_once_per_tick(monkeypatch):
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
    assert trace.tick_count > 2500
    # one d_new per tick; the old gap comes from the DC flag and the new flag from d_new
    assert len(calls) <= trace.tick_count + 10


def test_flag_maps_are_copied_only_when_a_flag_changes():
    w = world(FLOOR, ball_at((0.0, 0.5, 0.0)), WALL)
    assert refresh_contacts(w).bodies is w.bodies  # nothing changed: the same dict
    ball = w.body("ball")
    # far from the wall: the theme keeps its map object, the others their Body objects
    near = tick(w, "roll", "ball", (1.0, 0.0, 0.0))
    assert near.body("ball").contacts is ball.contacts
    assert near.body("floor") is w.body("floor") and near.body("wall") is w.body("wall")
    # one 1/60 m step short of touching the wall's face (x = 4.9) the ball-wall flag
    # changes: the ball and the wall get new maps in bodies order, the floor stays
    w = world(FLOOR, ball_at((4.39, 0.5, 0.0)), WALL)
    hit = tick(w, "roll", "ball", (1.0, 0.0, 0.0))
    assert hit.body("ball").contacts == {"floor": Rel.EC, "wall": Rel.EC}
    assert list(hit.body("ball").contacts) == ["floor", "wall"]
    assert list(hit.body("wall").contacts) == ["floor", "ball"]
    assert hit.body("wall").contacts is not w.body("wall").contacts
    assert hit.body("floor") is w.body("floor")


def test_a_partial_map_is_completed_in_bodies_order():
    # a hand-built ball that holds its wall flag but not its floor flag
    ball = ball_at((0.0, 0.5, 0.0), contacts={"wall": Rel.DC})
    got = refresh_contacts(WorldState(0.0, 0, {"floor": FLOOR, "ball": ball, "wall": WALL},
                                      SceneConfig(seed=0)))
    assert list(got.body("ball").contacts.items()) == [("floor", Rel.EC), ("wall", Rel.DC)]
    assert list(got.body("wall").contacts) == ["floor", "ball"]
    assert list(got.body("floor").contacts) == ["ball", "wall"]


@pytest.mark.parametrize("missing", [("floor", "wall"), ("wall", "floor"), ("ball", "wall")])
def test_a_tick_of_a_partial_state_flags_every_pair(missing):
    # a hand-built state that lacks one flag: a pair the theme is not in, or one it is
    full = refresh_contacts(world(FLOOR, ball_at((4.39, 0.5, 0.0)), WALL))
    holder, other = missing
    body = full.body(holder)
    partial = full.with_body(replace(body, contacts={k: r for k, r in body.contacts.items()
                                                     if k != other}))
    got = tick(partial, "roll", "ball", (1.0, 0.0, 0.0))
    assert_same_state_bits(got, reference_tick(partial, "roll", "ball", (1.0, 0.0, 0.0)))
    assert got == refresh_contacts(got)


def _sphere(body_id, r, x, y=None):
    return Body(body_id, Shape.SPHERE, (r,), body_id == "theme", (x, r if y is None else y, 0.0))


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
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_tick_matches_the_full_refresh_kernel_at_the_edges(case):
    cfg = SceneConfig(seed=0, speed=60.0)   # 1 m per tick
    w = refresh_contacts(WorldState(0.0, 0, {b.id: b for b in EDGE_CASES[case]}, cfg))
    got, want = (f(w, "slide", "theme", (1.0, 0.0, 0.0)) for f in (tick, reference_tick))
    assert_same_state_bits(got, want)


def test_tick_refuses_a_config_other_than_the_worlds():
    # the flags a tick reads were decided under world.cfg's contact_eps; a tick
    # under another config would mix two configs in one state
    scene = [_sphere("theme", 0.5, 0.0),
             Body("box", Shape.BOX, (1.0, 1.0, 0.2), False, (0.6015, 0.5, 0.0)), FLOOR]
    w = refresh_contacts(WorldState(0.0, 0, {b.id: b for b in scene}, SceneConfig(seed=0)))
    for other in (SceneConfig(seed=0, contact_eps=2e-3), SceneConfig(seed=1)):
        with pytest.raises(ValueError, match="the world's config"):
            tick(w, "slide", "theme", PLUS_X, other)
    # the world's own config, or one equal to it, is the same tick as none
    for same in (w.cfg, SceneConfig(seed=0)):
        assert_same_state_bits(tick(w, "slide", "theme", PLUS_X, same),
                               tick(w, "slide", "theme", PLUS_X))
