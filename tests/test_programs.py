import gc
import math
import random

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from mosim import (
    And,
    Assign,
    At,
    Attr,
    AttrTerm,
    Choice,
    Const,
    DC,
    Diamond,
    DirectedAssign,
    EC,
    Eq,
    Leq,
    Not,
    Or,
    SceneConfig,
    Seq,
    Star,
    Test,
    Tick,
    build_scene,
    compile_event,
    enumerate_traces,
    eval_formula,
    execute,
    parse_text,
    probe_scene,
    truth,
)
from mosim import kinematics, programs
from mosim.programs import Add, Scale, Sub, eval_term
from mosim.errors import (
    DimensionMismatchError,
    ExplosionGuard,
    IncompatiblePathError,
    NoSuccessfulRun,
    UnboundObjectError,
)
from mosim.kinematics import Body, Rel, WorldState, contact_relation, surface_distance, tick as kin_tick
from mosim.lexicon import Shape
from mosim.parser import EventFrame, PathComponent
from mosim.progtext import format_program, parse_program
from mosim.rng import SplitMix64, stream_for


def roll(theme="ball"):
    return Tick("roll", theme)


def slide(theme="ball"):
    return Tick("slide", theme)


@pytest.fixture()
def probe(lex, cfg):
    return probe_scene(cfg, lex)


@pytest.fixture()
def goal_scene(lex, cfg):
    frame = parse_text("the ball rolled to the wall", lex)
    return frame, build_scene(frame, lex, cfg)


# -- formula evaluation ----------------------------------------------------------


def test_ec_ball_floor_in_resting_state(probe):
    assert eval_formula(EC("ball", "floor"), probe.initial).value


def test_not_at_wall_in_initial_goal_scene(goal_scene):
    _, scene = goal_scene
    assert eval_formula(Not(At("ball", "wall")), scene.initial).value


def test_unbound_object_raises(probe):
    with pytest.raises(UnboundObjectError):
        eval_formula(EC("ball", "wall"), probe.initial)


# -- contact atoms read the state's flags ----------------------------------------


def sphere(body_id, r, x=0.0):
    return Body(id=body_id, shape=Shape.SPHERE, dimensions=(r,), mobile=True, position=(x, 0.0, 0.0))


def box(body_id, dims, x=0.0):
    return Body(id=body_id, shape=Shape.BOX, dimensions=dims, mobile=True, position=(x, 0.0, 0.0))


def hand_built(*bodies):
    """A state of the bodies in the order given, its map measured, default config."""
    return WorldState(0.0, 0, {b.id: b for b in bodies}, SceneConfig(seed=0))


def atoms(state, a, b):
    return tuple(eval_formula(f(a, b), state).value for f in (At, EC, DC))


def assert_atoms_follow_the_flag(state, a, b):
    rel = state.contacts[a, b]
    expected = (rel is not Rel.DC, rel is Rel.EC, rel is Rel.DC)
    assert atoms(state, a, b) == expected
    assert atoms(state, b, a) == expected


# the two operand orders round this sphere gap to opposite sides of contact_eps
SPLIT_PAIR = (sphere("a", 1.5784072486178067), sphere("b", 0.6414598158539085, 2.2208670644717152))


def test_contact_atoms_agree_in_both_orders_at_the_eps_boundary():
    # a distance recomputed per formula made At(a, b) false and At(b, a) true
    a, b = SPLIT_PAIR
    eps = SceneConfig().contact_eps
    assert surface_distance(a, b) > eps >= surface_distance(b, a)
    assert_atoms_follow_the_flag(hand_built(a, b), "a", "b")


def _near_eps_pairs(rng, n):
    """Sphere and box pairs along x whose gap lies within a few ulps of +-eps."""
    eps = SceneConfig().contact_eps
    for _ in range(n):
        if rng.random() < 0.5:
            ra, rb = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
            a, b, reach = sphere("a", ra), sphere("b", rb), ra + rb
        else:
            da = tuple(rng.uniform(0.05, 2.0) for _ in range(3))
            db = tuple(rng.uniform(0.05, 2.0) for _ in range(3))
            a, b, reach = box("a", da), box("b", db), da[2] / 2.0 + db[2] / 2.0
        x = reach + rng.choice((eps, -eps))
        k = rng.randint(-4, 4)
        for _ in range(abs(k)):
            x = math.nextafter(x, math.copysign(math.inf, k))
        yield a, Body(b.id, b.shape, b.dimensions, b.mobile, (x, 0.0, 0.0))


def test_contact_atoms_agree_in_both_orders_over_near_eps_pairs():
    eps = SceneConfig().contact_eps
    split = 0
    for a, b in _near_eps_pairs(random.Random(20161006), 2000):
        split += (surface_distance(a, b) <= eps) != (surface_distance(b, a) <= eps)
        for bodies in ((a, b), (b, a)):  # flags computed in either scene order
            assert_atoms_follow_the_flag(hand_built(*bodies), "a", "b")
    assert split > 0  # the sweep reaches pairs whose two orders disagree


FLOOR_BODY = Body(id="floor", shape=Shape.PLANE, dimensions=(), mobile=False,
                  position=(0.0, 0.0, 0.0))


@pytest.mark.parametrize("x", [-3.0, 0.0, 0.5, 1.0 - 5e-4, 1.0, 1.0 + 5e-4, 1.0 + 2e-3, 6.0])
def test_a_state_built_without_a_map_measures_every_pair(x):
    # x 1.0 puts the ball's surface on the block's face; smaller x overlaps them
    eps = SceneConfig().contact_eps
    scene = (FLOOR_BODY, box("block", (1.0, 1.0, 1.0)), sphere("ball", 0.5, x))
    assert contact_relation(*SPLIT_PAIR, eps) is not contact_relation(*SPLIT_PAIR[::-1], eps)
    for bodies in (scene, scene[::-1], SPLIT_PAIR, SPLIT_PAIR[::-1]):
        want = {}
        for k, a in enumerate(bodies):
            for b in bodies[k + 1:]:
                if a.shape is not Shape.PLANE or b.shape is not Shape.PLANE:  # plane with plane has no gap
                    want[a.id, b.id] = want[b.id, a.id] = contact_relation(a, b, eps)
        assert hand_built(*bodies).contacts == want


@pytest.mark.parametrize("atom", [At, EC, DC])
def test_unbound_object_in_either_argument_raises(atom):
    state = hand_built(FLOOR_BODY, sphere("ball", 0.5))
    for args in (("ball", "ghost"), ("ghost", "ball"), ("ghost", "ghost")):
        with pytest.raises(UnboundObjectError):
            eval_formula(atom(*args), state)


def test_eq_on_vectors_uses_euclidean_distance(probe):
    near = Eq(AttrTerm(Attr("ball", "loc")), Const((0.0, 0.5, 1e-10)), 1e-9)
    far = Eq(AttrTerm(Attr("ball", "loc")), Const((0.0, 0.5, 1e-6)), 1e-9)
    assert eval_formula(near, probe.initial).value
    assert not eval_formula(far, probe.initial).value


def test_leq_rejects_vectors(probe):
    with pytest.raises(DimensionMismatchError):
        eval_formula(Leq(AttrTerm(Attr("ball", "loc")), Const(1.0)), probe.initial)


def test_term_arithmetic(probe):
    doubled = Scale(2.0, AttrTerm(Attr("ball", "loc")))
    assert eval_term(doubled, probe.initial) == (0.0, 1.0, 0.0)
    diff = Sub(Const(3.0), Const(1.0))
    assert eval_term(diff, probe.initial) == 2.0
    with pytest.raises(DimensionMismatchError):
        eval_term(Sub(Const(3.0), Const((1.0, 0.0, 0.0))), probe.initial)


def test_connectives(probe):
    t = truth()
    f = Not(truth())
    assert eval_formula(And(t, t), probe.initial).value
    assert not eval_formula(And(t, f), probe.initial).value
    assert eval_formula(Or(f, t), probe.initial).value
    assert not eval_formula(Or(f, f), probe.initial).value


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Eq(Const(0.0), Const(0.0), 0.0)


# -- Diamond: expected values frozen from the forward-execution oracle -------------


def _oracle_first_contact_tick(scene, cfg, limit=400):
    """Step the roll tick directly and test contact each state."""
    state = scene.initial
    for i in range(1, limit + 1):
        state = kin_tick(state, "roll", "ball", state.body("ball").heading, cfg)
        if surface_distance(state.body("ball"), state.body("wall")) <= cfg.contact_eps:
            return i
    return None


def test_diamond_matches_forward_oracle(goal_scene, cfg):
    _, scene = goal_scene
    first = _oracle_first_contact_tick(scene, cfg)
    assert first == 264  # 4.4 m gap at 1/60 m per tick

    # enough iterations and budget: reachable
    reachable = Diamond(Star(roll(), 300), At("ball", "wall"))
    got = eval_formula(reachable, scene.initial, budget=300)
    assert got.value and not got.undetermined

    # 200 iterations fall 64 ticks short: determinately unreachable
    short = Diamond(Star(roll(), 200), At("ball", "wall"))
    got = eval_formula(short, scene.initial, budget=200)
    assert not got.value and not got.undetermined

    # the program could reach it, but the budget cuts the search: undetermined
    got = eval_formula(reachable, scene.initial, budget=200)
    assert not got.value and got.undetermined


def test_diamond_immediate_goal(probe):
    assert eval_formula(Diamond(Test(truth()), EC("ball", "floor")), probe.initial, budget=1).value


# -- execute ------------------------------------------------------------------------


def test_execute_test_only_trace(probe):
    trace = execute(Test(truth()), probe.initial, SplitMix64(0), budget=1)
    assert len(trace.states) == 1
    assert trace.labels == ()


def test_execute_two_slides_displaces_by_constant_speed(lex):
    cfg = SceneConfig(seed=0, dt=0.1, speed=1.0)
    probe = probe_scene(cfg, lex)
    trace = execute(Seq(slide(), slide()), probe.initial, SplitMix64(0), budget=10)
    assert trace.labels == ("slide", "slide")
    moved = trace.final.body("ball").position[0] - trace.states[0].body("ball").position[0]
    assert moved == pytest.approx(0.2)


def test_execute_failed_test_backtracks_to_other_choice(probe):
    program = Seq(Choice(Test(Not(truth())), slide()), Test(truth()))
    trace = execute(program, probe.initial, SplitMix64(0), budget=10)
    assert trace.labels == ("slide",)


def test_execute_raises_with_deepest_failure(probe):
    program = Seq(slide(), Test(Not(truth())))
    with pytest.raises(NoSuccessfulRun) as exc:
        execute(program, probe.initial, SplitMix64(0), budget=10)
    assert "1 tick" in str(exc.value)


def refusal(lex, sentence="the bird flew to the block", max_frames=300):
    """``sentence`` at ``max_frames``: a call that refuses."""
    cfg = SceneConfig(seed=3, max_frames=max_frames)
    frame = parse_text(sentence, lex)
    scene = build_scene(frame, lex, cfg)
    program = compile_event(frame, lex, cfg)
    return lambda: execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)


def test_execute_refusal_names_the_deepest_failing_node(lex):
    with pytest.raises(NoSuccessfulRun) as exc:
        refusal(lex)()
    assert str(exc.value) == (
        "no successful run: after 300 tick(s): test failed: (test (at bird block))"
    )


# -- a flight that can never reach its goal ----------------------------------------------


def flight(lex, cfg):
    """The program and first state of ``the bird flew to the block``."""
    frame = parse_text("the bird flew to the block", lex)
    return compile_event(frame, lex, cfg), build_scene(frame, lex, cfg).initial


def searched(program, s0, seed, budget):
    """What ``_search`` itself makes of one seeded run: the trace, or the refusal's text."""
    outcome = programs._search(program, s0, budget, rng=SplitMix64(seed), want_all=False,
                               node_cap=programs.DEFAULT_NODE_CAP * 10)
    if outcome.traces:
        return outcome.traces[0]
    ticks, node, reason = outcome.failure
    return str(NoSuccessfulRun(f"after {ticks} tick(s): {programs._describe_failure(node, reason)}"))


def executed(program, s0, seed, budget):
    try:
        return execute(program, s0, SplitMix64(seed), budget)
    except NoSuccessfulRun as exc:
        return str(exc)


def test_an_unreachable_flight_is_refused_without_a_tick_or_an_rng_bit(lex, monkeypatch):
    cfg = SceneConfig(max_frames=10_000)
    program, s0 = flight(lex, cfg)
    ticks = []
    tick = kinematics.tick
    monkeypatch.setattr(kinematics, "tick", lambda *args: ticks.append(args) or tick(*args))
    rng = stream_for(cfg.seed, "choice")
    with pytest.raises(NoSuccessfulRun) as exc:
        execute(program, s0, rng, cfg.max_frames)
    assert str(exc.value) == (
        "no successful run: after 10000 tick(s): test failed: (test (at bird block))"
    )
    assert ticks == []
    assert rng.next_u64() == stream_for(cfg.seed, "choice").next_u64()


@seed(20161006)
@settings(max_examples=100, deadline=None)
@given(
    radius=st.floats(min_value=0.05, max_value=0.5),
    height=st.floats(min_value=0.1, max_value=2.0),
    # the bird's gap above the block's top, less contact_eps (1e-3): 0, or ±3e-13 to
    # ±3e-3 by powers of ten
    offset=st.just(0.0) | st.builds(lambda sign, exponent: sign * 3.0 * 10.0 ** exponent,
                                    st.sampled_from([-1.0, 1.0]), st.integers(min_value=-13, max_value=-3)),
    run_seed=st.integers(min_value=0, max_value=2**32),
)
@example(radius=0.15, height=1.0, offset=0.0, run_seed=0)
def test_the_flight_refusal_equals_the_search(radius, height, offset, run_seed):
    cfg = SceneConfig()
    block = Body("block", Shape.BOX, (1.0, height, 0.4), True, (1.0, height / 2, 0.0))
    bird = Body("bird", Shape.SPHERE, (radius,), True,
                (0.4 - radius, height + cfg.contact_eps + offset + radius, 0.0))
    floor = Body("floor", Shape.PLANE, (), False, (0.0, 0.0, 0.0))
    s0 = WorldState(0.0, 0, {"floor": floor, "bird": bird, "block": block}, cfg)
    program = programs._goal_loop("fly", "bird", At("bird", "block"), 60)
    assert executed(program, s0, run_seed, 60) == searched(program, s0, run_seed, 60)


def test_a_flight_loop_whose_bound_passes_the_budget_runs_the_full_search(lex):
    program, s0 = flight(lex, SceneConfig(max_frames=300))
    assert executed(program, s0, 3, 50) == searched(program, s0, 3, 50) == (
        "no successful run: after 50 tick(s): tick budget exhausted at: (tick fly bird)"
    )


@pytest.mark.parametrize("wrap", [
    lambda loop: Choice(loop, Test(At("bird", "block"))),
    lambda loop: Seq(Tick("roll", "bird"), loop),
], ids=["a-choice-around-the-loop", "a-roll-step-first"])
def test_a_program_that_only_resembles_the_flight_runs_the_full_search(lex, monkeypatch, wrap):
    cfg = SceneConfig(max_frames=50)
    program, s0 = flight(lex, cfg)
    program = wrap(program)
    seen = []
    search = programs._search
    monkeypatch.setattr(programs, "_search", lambda *args, **kwargs: seen.append(1) or search(*args, **kwargs))
    rng, reference = SplitMix64(7), SplitMix64(7)
    with pytest.raises(NoSuccessfulRun) as exc:
        execute(program, s0, rng, cfg.max_frames)
    assert seen == [1]
    assert str(exc.value) == searched(program, s0, 7, cfg.max_frames)
    search(program, s0, cfg.max_frames, rng=reference, want_all=False,
           node_cap=programs.DEFAULT_NODE_CAP * 10)
    assert rng.next_u64() == reference.next_u64()  # the same bits were drawn


def test_execute_determinism(goal_scene, lex, cfg):
    frame, scene = goal_scene
    program = compile_event(frame, lex, cfg)
    a = execute(program, scene.initial, stream_for(42, "choice"), cfg.max_frames)
    b = execute(program, scene.initial, stream_for(42, "choice"), cfg.max_frames)
    assert a == b


def test_compiled_goal_program_reaches_wall(goal_scene, lex, cfg):
    frame, scene = goal_scene
    program = compile_event(frame, lex, cfg)
    trace = execute(program, scene.initial, stream_for(42, "choice"), cfg.max_frames)
    assert eval_formula(At("ball", "wall"), trace.final).value
    # while-loop soundness by replay: the guard held until the last state
    for state in trace.states[:-1]:
        assert not eval_formula(At("ball", "wall"), state).value


def test_directed_assign_requires_change(probe):
    loc = Attr("ball", "loc")
    same = DirectedAssign(loc, AttrTerm(loc))
    with pytest.raises(NoSuccessfulRun):
        execute(same, probe.initial, SplitMix64(0), budget=1)
    moved = DirectedAssign(loc, Const((1.0, 0.5, 0.0)))
    trace = execute(moved, probe.initial, SplitMix64(0), budget=1)
    assert trace.final.body("ball").position == (1.0, 0.5, 0.0)
    assert trace.labels == ()  # assignment consumes no time


def test_assign_is_timeless_and_applies(probe):
    program = Seq(Assign(Attr("ball", "rot"), Const(2.5)), Test(truth()))
    trace = execute(program, probe.initial, SplitMix64(0), budget=1)
    assert trace.final.body("ball").rotation == 2.5
    assert trace.final.time == 0.0
    assert trace.labels == ()


def test_label_count_equals_tick_count(probe):
    program = Seq(slide(), Seq(Test(truth()), Seq(Assign(Attr("ball", "rot"), Const(1.0)), slide())))
    trace = execute(program, probe.initial, SplitMix64(3), budget=10)
    assert trace.labels == ("slide", "slide")
    assert len(trace.states) == 3
    assert trace.times == (0.0, pytest.approx(1 / 60), pytest.approx(2 / 60))


# -- enumerate_traces ------------------------------------------------------------------


def test_enumerate_choice_branches(probe):
    program = Seq(Choice(roll(), slide()), slide())
    traces = enumerate_traces(program, probe.initial, budget=10)
    assert len(traces) == 2
    assert sorted(t.labels for t in traces) == [("roll", "slide"), ("slide", "slide")]


def test_enumerate_star_unfolds_bounded(probe):
    traces = enumerate_traces(Star(roll(), 2), probe.initial, budget=10)
    assert [t.tick_count for t in traces] == [0, 1, 2]


def test_enumerate_while_loop_with_goal_already_true(probe):
    goal = EC("ball", "floor")
    program = Seq(Star(Seq(Test(Not(goal)), roll()), 50), Test(goal))
    traces = enumerate_traces(program, probe.initial, budget=50)
    assert len(traces) == 1
    assert traces[0].tick_count == 0


def test_enumerate_deduplicates_identical_runs(probe):
    traces = enumerate_traces(Choice(roll(), roll()), probe.initial, budget=10)
    assert len(traces) == 1


def test_enumerate_keeps_runs_with_equal_labels_but_other_states(probe):
    # same labels and the same final state, different first state: two traces
    loc = Attr("ball", "loc")
    program = Seq(
        Choice(Assign(loc, Const((1.0, 0.5, 0.0))), Assign(loc, Const((2.0, 0.5, 0.0)))),
        Seq(roll(), Assign(loc, Const((3.0, 0.5, 0.0)))),
    )
    traces = enumerate_traces(program, probe.initial, budget=10)
    assert [t.labels for t in traces] == [("roll",), ("roll",)]
    assert traces[0].final == traces[1].final
    assert traces[0].states[0] != traces[1].states[0]


def test_enumerate_orders_shorter_first(probe):
    program = Choice(Seq(roll(), roll()), roll())
    traces = enumerate_traces(program, probe.initial, budget=10)
    assert [t.tick_count for t in traces] == [1, 2]


def test_enumerate_explosion_guard(probe):
    wide = Star(Choice(roll(), slide()), 30)
    with pytest.raises(ExplosionGuard):
        enumerate_traces(wide, probe.initial, budget=30, node_cap=5_000)


def test_enumerate_refuses_a_negative_budget_and_a_cap_below_one(probe):
    program = Star(roll(), 2)
    with pytest.raises(ValueError, match=r"^budget must be nonnegative$"):
        enumerate_traces(program, probe.initial, -1)
    with pytest.raises(ValueError, match=r"^node_cap must be at least 1$"):
        enumerate_traces(program, probe.initial, 10, node_cap=0)
    # the least of each is a search: a budget of 0 keeps the run with no tick,
    # and one node runs a program with no branch
    assert [t.labels for t in enumerate_traces(program, probe.initial, 0)] == [()]
    assert len(enumerate_traces(Seq(roll(), slide()), probe.initial, 10, node_cap=1)) == 1


def test_execute_member_of_enumeration(probe):
    program = Seq(Choice(roll(), slide()), Star(Choice(slide(), Test(truth())), 3))
    keys = {t.key() for t in enumerate_traces(program, probe.initial, budget=10)}
    for seed in range(100):
        trace = execute(program, probe.initial, stream_for(seed, "choice"), budget=10)
        assert trace.key() in keys


# -- compile_event -----------------------------------------------------------------------


def test_compile_goal_sentence_is_while_loop(lex, cfg, goal_scene):
    frame, _ = goal_scene
    program = compile_event(frame, lex, cfg)
    assert isinstance(program, Seq)
    loop, final_test = program.first, program.second
    assert isinstance(loop, Star)
    assert loop.bound == cfg.max_frames
    assert isinstance(loop.body, Seq)
    assert loop.body == Seq(Test(Not(At("ball", "wall"))), roll())
    assert final_test == Test(At("ball", "wall"))


def test_compile_bare_expands_to_seeded_chain(lex):
    cfg = SceneConfig(seed=0, min_bare_frames=120, max_bare_frames=120)
    frame = parse_text("the ball slid", lex)
    program = compile_event(frame, lex, cfg)
    count = 0
    node = program
    while isinstance(node, Seq):
        assert node.first == slide()
        count += 1
        node = node.second
    assert node == slide()
    assert count + 1 == 120


def nested_chain(action, theme, n):
    """The chain as a fresh ``Tick`` per step builds it."""
    program = Tick(action, theme)
    for _ in range(n - 1):
        program = Seq(Tick(action, theme), program)
    return program


@pytest.mark.parametrize("sentence, action, n", [
    ("the ball slid", "slide", 120), ("the ball rolled", "roll", 1), ("the ball left", "move", 120),
    ("the ball rolled from the wall", "roll", 120),
])
def test_a_compiled_chain_shares_one_tick_node_and_equals_the_nested_form(lex, sentence, action, n):
    cfg = SceneConfig(seed=0, min_bare_frames=n, max_bare_frames=n)
    program = compile_event(parse_text(sentence, lex), lex, cfg)
    chain = program.second.first if sentence.endswith("from the wall") else program
    ticks, node = [], chain
    while isinstance(node, Seq):
        ticks.append(node.first)
        node = node.second
    ticks.append(node)
    assert len(ticks) == n and len({id(tick) for tick in ticks}) == 1
    assert chain == nested_chain(action, "ball", n)
    assert format_program(chain) == format_program(nested_chain(action, "ball", n))


def test_compile_from_brackets_with_tests(lex, cfg):
    frame = parse_text("the ball rolled from the wall", lex)
    program = compile_event(frame, lex, cfg)
    assert program.first == Test(At("ball", "wall"))
    assert program.second.second == Test(Not(At("ball", "wall")))


def test_compile_arrive_has_presupposition(lex, cfg):
    frame = parse_text("the ball arrived at the wall", lex)
    program = compile_event(frame, lex, cfg)
    assert program.first == Test(Not(At("ball", "wall")))
    # inner loop moves generically
    loop = program.second.first
    assert isinstance(loop, Star)
    assert loop.body.second == Tick("move", "ball")


def test_compile_rejects_incompatible_path(lex, cfg):
    frame = EventFrame(lex.lookup_verb("arrive"), "ball", PathComponent("to", "wall"))
    with pytest.raises(IncompatiblePathError):
        compile_event(frame, lex, cfg)


def test_compile_bare_leave_is_generic_motion(lex):
    cfg = SceneConfig(seed=0, min_bare_frames=5, max_bare_frames=5)
    frame = parse_text("the ball left", lex)
    program = compile_event(frame, lex, cfg)
    node, count = program, 0
    while isinstance(node, Seq):
        count += 1
        node = node.second
    assert node == Tick("move", "ball")
    assert count + 1 == 5


# -- randomized oracle equivalence --------------------------------------------------------


_ASSIGNED = {
    "rot": [Const(0.0), Const(1.0), Add(AttrTerm(Attr("ball", "rot")), Const(1.0))],
    "loc": [Const((0.0, 0.5, 0.0)), Const((1.0, 0.5, 0.0)), Const((0.0, 2.0, 0.0))],
}


def _random_program(r, choices_left, stars_left, depth=0, assigns=False):
    """A small program over the ball; ``assigns`` adds assignments and choices of a branch with itself."""
    options = ["tick", "tick", "test"]
    if assigns:
        options += ["assign", "dassign"]
    if depth < 3:
        options.append("seq")
        if choices_left[0] > 0:
            options.append("choice")
            if assigns:
                options.append("same-choice")
        if stars_left[0] > 0:
            options.append("star")
    kind = options[r.next_u64() % len(options)]

    def sub():
        return _random_program(r, choices_left, stars_left, depth + 1, assigns)

    if kind == "tick":
        return Tick(["roll", "slide", "move"][r.next_u64() % 3], "ball")
    if kind == "test":
        formulas = [truth(), EC("ball", "floor"), DC("ball", "floor"), Not(EC("ball", "floor"))]
        return Test(formulas[r.next_u64() % len(formulas)])
    if kind in ("assign", "dassign"):
        name = ["rot", "loc"][r.next_u64() % 2]
        term = _ASSIGNED[name][r.next_u64() % len(_ASSIGNED[name])]
        return (Assign if kind == "assign" else DirectedAssign)(Attr("ball", name), term)
    if kind == "seq":
        return Seq(sub(), sub())
    if kind == "choice":
        choices_left[0] -= 1
        return Choice(sub(), sub())
    if kind == "same-choice":
        choices_left[0] -= 1
        branch = sub()
        return Choice(branch, branch)
    stars_left[0] -= 1
    return Star(sub(), r.next_u64() % 4 + 1)


@settings(max_examples=60, deadline=None)
@given(index=st.integers(min_value=0, max_value=10_000), seed=st.integers(min_value=0, max_value=2**31))
def test_random_program_execute_in_enumeration(index, seed):
    from mosim import builtin_lexicon

    lex = builtin_lexicon()
    cfg = SceneConfig(seed=0)
    s0 = probe_scene(cfg, lex).initial
    gen = SplitMix64(971).stream(f"prog{index}")
    program = _random_program(gen, [3], [2])
    budget = 5 + gen.next_u64() % 16
    traces = enumerate_traces(program, s0, int(budget))
    keys = {t.key() for t in traces}
    assert len(keys) == len(traces)  # no duplicates
    try:
        got = execute(program, s0, stream_for(seed, "choice"), int(budget))
    except NoSuccessfulRun:
        assert not traces
        return
    assert got.key() in keys


def test_diamond_holds_exactly_when_some_enumerated_run_ends_in_the_formula(probe):
    # <p>f evaluated as a run of p; f? agrees with listing the runs of p
    s0 = probe.initial
    formulas = [truth(), EC("ball", "floor"), DC("ball", "floor"), Not(EC("ball", "floor"))]
    gen = SplitMix64(2024)
    for i in range(100):
        program = _random_program(gen.stream(f"prog{i}"), [3], [2])
        budget = int(5 + gen.next_u64() % 16)
        finals = [t.final for t in enumerate_traces(program, s0, budget)]
        for f in formulas:
            expected = any(eval_formula(f, s).value for s in finals)
            assert eval_formula(Diamond(program, f), s0, budget).value == expected, (i, f)


def _reference_runs(program, s0, budget, rng=None):
    """Every successful run as (states, labels), by a left-biased depth-first walk.

    Choices take the left branch first, and an iteration stops before it
    takes one more pass.  With an rng, a bit drawn on reaching each two-way
    branch swaps its alternatives, as ``execute`` draws it.
    """
    def branch(first, second):
        if rng is not None and rng.next_bit():
            first, second = second, first
        yield from first()
        yield from second()

    def walk(cont, state, ticks, left, labels):
        if not cont:
            yield (*left, state), labels
            return
        node, rest = cont[0], cont[1:]
        if isinstance(node, Tick):
            if ticks < budget:
                after = kin_tick(state, node.action, node.theme, state.body(node.theme).heading,
                                 state.cfg)
                yield from walk(rest, after, ticks + 1, (*left, state), (*labels, node.action))
        elif isinstance(node, Test):
            if eval_formula(node.formula, state, budget - ticks).value:
                yield from walk(rest, state, ticks, left, labels)
        elif isinstance(node, Seq):
            yield from walk((node.first, node.second, *rest), state, ticks, left, labels)
        elif isinstance(node, Choice):
            yield from branch(lambda: walk((node.left, *rest), state, ticks, left, labels),
                              lambda: walk((node.right, *rest), state, ticks, left, labels))
        elif isinstance(node, Star):
            if node.bound > 0:
                again = (node.body, Star(node.body, node.bound - 1), *rest)
                yield from branch(lambda: walk(rest, state, ticks, left, labels),
                                  lambda: walk(again, state, ticks, left, labels))
            else:
                yield from walk(rest, state, ticks, left, labels)
        else:
            value = eval_term(node.term, state)
            if isinstance(node, DirectedAssign) and programs._values_equal(
                eval_term(AttrTerm(node.attr), state), value, programs.ASSIGN_TOL
            ):
                return
            yield from walk(rest, programs._set_attr(state, node.attr, value), ticks, left, labels)

    return walk((program,), s0, 0, (), ())


def reference_enumeration(program, s0, budget):
    """The first run of each ``Trace.key()``, stably sorted by tick count."""
    kept = {}
    for states, labels in _reference_runs(program, s0, budget):
        trace = programs.Trace(states, labels)
        kept.setdefault(trace.key(), trace)
    return sorted(kept.values(), key=lambda t: t.tick_count)


@settings(max_examples=150, deadline=None)
@given(index=st.integers(min_value=0, max_value=10_000))
# backtracking after an assignment: a choice whose first alternative assigns and
# ticks, while the second ticks from the state before the assignment; the runs
# agree in their labels, or the first fails after its tick
@example(index="(seq (choice (seq (assign (loc ball) (vec 1 0.5 0)) (tick roll)) (tick roll))"
               " (tick slide))")
@example(index="(seq (choice (seq (assign (rot ball) 2) (tick roll)) (tick roll)) (tick roll))")
@example(index="(seq (choice (seq (assign (rot ball) 2) (tick roll)) (tick roll))"
               " (test (leq (rot ball) 1)))")
@example(index="(seq (choice (seq (assign (loc ball) (vec 0 3 0)) (tick roll)) (tick roll))"
               " (test (ec ball floor)))")
@example(index="(star (choice (seq (assign (loc ball) (add (loc ball) (vec 0 0 1))) (tick slide))"
               " (tick slide)) 3)")
# and a diamond test, a search of its own, inside a star pass
@example(index="(star (seq (test (diamond (tick roll) (ec ball floor)))"
               " (choice (seq (assign (rot ball) 1) (tick roll)) (tick roll))) 2)")
def test_enumeration_equals_the_reference_in_order(index):
    """``index`` draws a random program, or is the text of a pinned one."""
    from mosim import builtin_lexicon

    s0 = probe_scene(SceneConfig(seed=0), builtin_lexicon()).initial
    if isinstance(index, str):
        program, budget = parse_program(index), 6
    else:
        gen = SplitMix64(1517).stream(f"prog{index}")
        program = _random_program(gen, [3], [2], assigns=True)
        budget = int(3 + gen.next_u64() % 10)
    got = enumerate_traces(program, s0, budget)
    want = reference_enumeration(program, s0, budget)
    assert [(t.labels, t.key()) for t in got] == [(t.labels, t.key()) for t in want]
    # seeds whose first bit is 1, 1, 0, 1: either alternative of the first branch first
    for seed in range(4):
        first = next(_reference_runs(program, s0, budget, SplitMix64(seed)), None)
        if first is None:
            with pytest.raises(NoSuccessfulRun):
                execute(program, s0, SplitMix64(seed), budget)
        else:
            trace = execute(program, s0, SplitMix64(seed), budget)
            assert (trace.states, trace.labels) == first


def test_a_star_of_distinct_labels_keys_no_state(probe, monkeypatch):
    # every run has its own labels, so no two runs meet and no state is keyed
    calls = []
    key = programs._state_key
    monkeypatch.setattr(programs, "_state_key", lambda state: calls.append(None) or key(state))
    traces = enumerate_traces(Star(Choice(roll(), slide()), 10), probe.initial, budget=100)
    assert len(traces) == 2**11 - 1
    assert calls == []
    # runs that meet under the same labels are keyed, and kept once; a pair,
    # once keyed, does not key its first state again (38 calls if it did)
    assert len(enumerate_traces(Star(Choice(roll(), roll()), 3), probe.initial, budget=100)) == 4
    assert len(calls) == 24


def test_an_enumeration_where_no_run_succeeds_numbers_no_cell(probe, monkeypatch):
    made = []

    class Recorded(programs._HistoryIds):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(programs, "_HistoryIds", Recorded)
    program = Seq(Star(Choice(roll(), slide()), 8), Test(DC("ball", "floor")))
    assert enumerate_traces(program, probe.initial, budget=100) == []
    assert len(made) == 1 and made[0]._numbers == {}


@pytest.mark.parametrize("text, count, one_final", [
    # both runs end in the same state object
    ("(choice (test true) (test true))", 1, True),
    # an assignment that leaves the rotation as it was, and one that changes it
    ("(choice (assign (rot ball) 0) (test true))", 1, False),
    ("(choice (assign (rot ball) 2) (test true))", 2, False),
])
def test_runs_that_meet_under_the_same_labels_are_told_apart_by_their_states(probe, text, count,
                                                                             one_final):
    program = parse_program(text)
    runs = list(_reference_runs(program, probe.initial, 10))
    assert len(runs) == 2 and runs[0][1] == runs[1][1] == ()
    assert (runs[0][0][-1] is runs[1][0][-1]) == one_final
    traces = enumerate_traces(program, probe.initial, 10)
    assert len(traces) == count
    assert [t.key() for t in traces] == [t.key() for t in reference_enumeration(program, probe.initial, 10)]


def test_a_star_of_distinct_labels_numbers_no_run(probe, monkeypatch):
    # every run is the first with its labels, so none is numbered
    numbered = []
    monkeypatch.setattr(programs._HistoryIds, "add", lambda *args: numbered.append(args))
    traces = enumerate_traces(Star(Choice(roll(), slide()), 10), probe.initial, budget=100)
    assert len(traces) == 2**11 - 1
    assert numbered == []


def test_enumeration_node_count_is_pinned(probe):
    # 511 successful runs under 510 two-way branches: 1 + 2 * 510 = 1021 nodes
    wide = Star(Choice(roll(), slide()), 8)
    assert len(enumerate_traces(wide, probe.initial, budget=100, node_cap=1021)) == 511
    with pytest.raises(ExplosionGuard) as info:
        enumerate_traces(wide, probe.initial, budget=100, node_cap=1020)
    assert (info.value.nodes, info.value.cap) == (1021, 1020)


def test_a_goal_loop_builds_no_star_and_pops_at_most_two_nodes_per_tick(lex, monkeypatch):
    cfg = SceneConfig(seed=0, ground_distance=50.0)
    frame = parse_text("the ball rolled to the wall", lex)
    scene = build_scene(frame, lex, cfg)
    program = compile_event(frame, lex, cfg)
    built = []
    check = Star.__post_init__

    def counted_post_init(self):
        built.append(None)
        check(self)

    monkeypatch.setattr(Star, "__post_init__", counted_post_init)
    trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    assert trace.tick_count > 2900
    assert built == []  # a pass keeps the loop's remaining bound in its continuation

    def search(node_cap):
        return programs._search(program, scene.initial, cfg.max_frames,
                                rng=stream_for(cfg.seed, "choice"), want_all=False,
                                node_cap=node_cap)

    # one pass pops its body and, when the rng puts it first, the loop's exit
    assert search(2 * trace.tick_count + 2).traces == [trace]
    # and the count is pinned: the same pushes in the same order, whatever a pass builds
    assert search(4455).traces == [trace]
    with pytest.raises(ExplosionGuard) as info:
        search(4454)
    assert info.value.nodes == 4455


# -- the search against a plain loop ------------------------------------------------------

_PENDING = object()  # reference_search's continuation cell of a pending iteration


def reference_search(program, s0, budget, *, rng, want_all, node_cap):
    """``programs._search`` as a plain loop, kept to check the search against.

    Every run is pushed and popped, a pop always truncates the current run to
    the popped one's depth, every test goes through ``_eval3`` and a bit is
    drawn with ``next_u64() & 1``.  Node counts, the failure kept, pruning
    and the traces are the search's, by the rules of its docstring; with
    want_all a run is kept when no earlier run has its ``Trace.key()``.
    """
    traces = []
    seen = set() if want_all else None  # the keys of the runs kept
    pruned = False
    failure = (-1, None, "no run attempted")
    stack = [((program, None), s0, 0)]
    path, labels = [], []
    nodes = 0
    while stack:
        cont, cur, ticks = stack.pop()
        del path[ticks:], labels[ticks:]
        nodes += 1
        if nodes > node_cap:
            raise ExplosionGuard(nodes, node_cap)
        failed = None
        while cont is not None:
            node, rest = cont
            t = type(node)
            if t is Tick:
                if ticks >= budget:
                    pruned = True
                    failed = (ticks, node, "tick budget exhausted at")
                    break
                path.append(cur)
                labels.append(node.action)
                cur = kinematics.tick(cur, node.action, node.theme)
                ticks += 1
                cont = rest
            elif t is Test:
                tv = programs._eval3(node.formula, cur, budget - ticks, node_cap)
                if tv is not True:
                    pruned = pruned or tv is None
                    failed = (ticks, node, "test failed")
                    break
                cont = rest
            elif t is Seq:
                cont = (node.first, (node.second, rest))
            elif t is Star or node is _PENDING or t is Choice:
                if t is Choice:
                    first, second = (node.left, rest), (node.right, rest)
                else:
                    if t is Star:
                        body, bound = node.body, node.bound
                    else:
                        body, bound, rest = rest
                    if bound <= 0:
                        cont = rest
                        continue
                    first, second = rest, (body, (_PENDING, (body, bound - 1, rest)))
                if rng is not None and rng.next_u64() & 1:
                    first, second = second, first
                stack.append((second, cur, ticks))
                nodes += 1
                if nodes > node_cap:
                    raise ExplosionGuard(nodes, node_cap)
                cont = first
            elif t is Assign or t is DirectedAssign:
                value = eval_term(node.term, cur)
                if t is DirectedAssign:
                    old = eval_term(AttrTerm(node.attr), cur)
                    if programs._values_equal(old, value, programs.ASSIGN_TOL):
                        failed = (ticks, node, "directed assignment left the value unchanged")
                        break
                cur = programs._set_attr(cur, node.attr, value)
                cont = rest
            else:
                raise TypeError(f"not a program: {node!r}")
        else:
            trace = programs.Trace((*path, cur), tuple(labels))
            if seen is None:
                traces.append(trace)
                break
            if trace.key() not in seen:
                seen.add(trace.key())
                traces.append(trace)
            continue
        if failed is not None and failed[0] >= failure[0]:
            failure = failed
    return programs._Outcome(traces, pruned, failure)


_GOALS = ["(at ball floor)", "(leq (rot ball) -1)", "(leq 1 (rot ball))", "(dc ball floor)"]
_FORMULAS = st.sampled_from([
    "true", "(at ball floor)", "(not (at ball floor))", "(ec ball floor)", "(dc ball floor)",
    "(not (ec ball floor))", "(leq (rot ball) 0.5)", "(not (leq (rot ball) -0.5))",
    # no relation is stored for a body with itself: _eval3 computes it
    "(at ball ball)", "(not (at ball ball))", "(diamond (tick roll) (at ball floor))",
])
_LEAVES = st.one_of(
    st.sampled_from(["(tick roll)", "(tick slide)", "(tick move)", "(tick fly)"]),
    _FORMULAS.map("(test {})".format),
    st.sampled_from([
        "(assign (rot ball) 2)", "(assign (loc ball) (vec 0 3 0))",
        "(assign (loc ball) (vec 1 0.5 0))", "(dassign (rot ball) 0)", "(dassign (rot ball) 1)",
    ]),
)


def _compound(sub):
    bounds = st.integers(min_value=0, max_value=4)
    return st.one_of(
        st.tuples(sub, sub).map(lambda p: "(seq {} {})".format(*p)),
        st.tuples(sub, sub).map(lambda p: "(choice {} {})".format(*p)),
        st.tuples(sub, bounds).map(lambda p: "(star {} {})".format(*p)),
        # the goal loop, with a goal of either kind and either tick
        st.tuples(st.sampled_from(_GOALS), st.sampled_from(["roll", "move"]),
                  st.integers(min_value=0, max_value=6)).map(
            lambda g: f"(seq (star (seq (test (not {g[0]})) (tick {g[1]})) {g[2]}) (test {g[0]}))"
        ),
    )


_PROGRAM_TEXTS = st.recursive(_LEAVES, _compound, max_leaves=10)


def _searched(search, program, s0, budget, seed, want_all, node_cap):
    rng = None if seed is None else SplitMix64(seed)
    try:
        outcome = search(program, s0, budget, rng=rng, want_all=want_all, node_cap=node_cap)
    except Exception as exc:  # the same error, with the same text, from both
        result = (type(exc), str(exc))
    else:
        result = ([(t.labels, t.key()) for t in outcome.traces], outcome.budget_pruned,
                  outcome.failure)
    draws = None if rng is None else [rng.next_bit() if i % 3 else rng.next_u64() for i in range(100)]
    return result, draws


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(text=_PROGRAM_TEXTS, budget=st.integers(min_value=0, max_value=12),
       node_cap=st.integers(min_value=1, max_value=120),
       seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
       want_all=st.booleans())
# a goal loop whose exit fails on the last pass: the failure kept at a tie
@example(text="(seq (star (seq (test (not (at ball floor))) (tick roll)) 3) (test (dc ball floor)))",
         budget=5, node_cap=120, seed=7, want_all=False)
# two failed head tests at one depth: the later one is kept
@example(text="(choice (test (dc ball floor)) (choice (test (not (at ball floor))) (tick roll)))",
         budget=5, node_cap=120, seed=None, want_all=False)
# a loop at the end of the program: its exit is the end, and the pass first fails its head test
@example(text="(star (seq (test (not (ec ball floor))) (tick move)) 3)", budget=17, node_cap=120,
         seed=0, want_all=False)
def test_the_search_equals_the_plain_loop(text, budget, node_cap, seed, want_all):
    from mosim import builtin_lexicon

    s0 = probe_scene(SceneConfig(seed=0), builtin_lexicon()).initial
    program = parse_program(text)
    want_all = want_all and seed is None
    args = (program, s0, budget, seed, want_all, node_cap)
    assert _searched(programs._search, *args) == _searched(reference_search, *args)


class _Foreign:
    def __repr__(self):
        return "<foreign>"


@pytest.mark.parametrize("node", [_Foreign(), "tick", (roll(), 1), (roll(), 1, None)],
                         ids=["object", "str", "pair", "triple"])
def test_a_foreign_program_node_fails_loudly(probe, node):
    # after a tick and a test, in a choice, in a loop's pass: wherever the search meets it
    loop = Seq(Star(node, 2), Test(Not(truth())))
    for program in (Seq(roll(), Seq(Test(truth()), node)), Choice(node, node), loop):
        with pytest.raises(TypeError, match=r"^not a program: "):
            programs._search(program, probe.initial, 10, rng=None, want_all=False,
                             node_cap=100)
        with pytest.raises(TypeError, match=r"^not a program: "):
            execute(program, probe.initial, SplitMix64(0), budget=10)


@pytest.mark.parametrize("formula", [_Foreign(), "at", (At("ball", "floor"),), True])
def test_a_foreign_formula_fails_loudly(probe, formula):
    for f in (formula, Not(formula), And(truth(), formula), Or(Not(truth()), formula)):
        with pytest.raises(TypeError, match=r"^not a formula: "):
            eval_formula(f, probe.initial)
    with pytest.raises(TypeError, match=r"^not a formula: "):
        execute(Test(formula), probe.initial, SplitMix64(0), budget=10)


def test_program_text_round_trips_over_random_programs():
    # parsing may nest a seq differently from the generator, but printing flattens it again
    gen = SplitMix64(1863)
    for i in range(300):
        text = format_program(_random_program(gen.stream(f"text{i}"), [3], [2]))
        assert format_program(parse_program(text)) == text, text


# -- the cyclic collector ---------------------------------------------------------------


def test_runs_pause_the_collector_and_leave_it_as_they_found_it(probe, lex, monkeypatch, collector):
    seen = []
    search = programs._search

    def spied_search(*args, **kwargs):
        seen.append(gc.isenabled())
        return search(*args, **kwargs)

    monkeypatch.setattr(programs, "_search", spied_search)
    wide = Star(Choice(roll(), slide()), 8)
    calls = [
        (lambda: execute(Seq(roll(), slide()), probe.initial, SplitMix64(0), budget=10), None),
        (lambda: enumerate_traces(wide, probe.initial, budget=100), None),
        # a refusal the search makes: the flight's is made before it
        (refusal(lex, "the ball rolled to the wall", max_frames=5), NoSuccessfulRun),
        (lambda: enumerate_traces(wide, probe.initial, budget=100, node_cap=100), ExplosionGuard),
    ]
    for call, error in calls:
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert gc.isenabled() is collector
    assert seen == [False] * len(calls)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(programs, "_search", interrupted)
    for call, _ in calls:
        with pytest.raises(KeyboardInterrupt):
            call()
        assert gc.isenabled() is collector


def test_runs_make_no_reference_cycles(probe, lex, cycles_left_by):
    # so pausing the collector for a run (see _without_collector) leaks nothing
    cfg = SceneConfig(seed=0, ground_distance=50.0)
    frame = parse_text("the ball rolled to the wall", lex)
    scene = build_scene(frame, lex, cfg)
    program = compile_event(frame, lex, cfg)
    star = Star(Choice(roll(), slide()), 10)
    assert cycles_left_by(
        lambda: execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    ) == 0
    assert cycles_left_by(lambda: enumerate_traces(star, probe.initial, budget=100)) == 0
    assert cycles_left_by(refusal(lex), NoSuccessfulRun) == 0
