import pytest

from mosim import (
    CheckResult,
    SceneConfig,
    build_scene,
    compile_event,
    execute,
    parse_text,
    trace_metrics,
    verify,
    verify_trace,
)
from mosim.errors import TraceSceneMismatch
from mosim.kinematics import Rel, WorldState, first_overlap
from mosim.parser import EventFrame
from mosim.programs import Trace
from mosim.progtext import format_program
from mosim.record import replace
from mosim.rng import stream_for
from mosim.scene import ground_object_id
from mosim.verify import CHECK_NAMES

from conftest import CORPUS

MANNER_SENTENCES = {
    "roll": "the ball rolled",
    "slide": "the ball slid",
    "bounce": "the ball bounced",
    "fly": "the ball flew",
    "move": "the ball moved",
}

# which checks each verb's trace fails under another verb's frame
# (empty set = the frame accepts the trace)
ACCEPTANCE_MATRIX = {
    "roll": {
        "roll": set(), "slide": {"rotation_coupling"}, "bounce": {"contact_profile"},
        "fly": {"contact_profile", "rotation_coupling"}, "move": set(),
    },
    "slide": {
        "roll": {"rotation_coupling"}, "slide": set(), "bounce": {"contact_profile"},
        "fly": {"contact_profile"}, "move": set(),
    },
    "bounce": {
        "roll": {"contact_profile", "rotation_coupling"}, "slide": {"contact_profile"},
        "bounce": set(), "fly": {"contact_profile"}, "move": set(),
    },
    "fly": {
        "roll": {"contact_profile", "rotation_coupling"}, "slide": {"contact_profile"},
        "bounce": {"contact_profile"}, "fly": set(), "move": set(),
    },
    "move": {
        "roll": {"rotation_coupling"}, "slide": set(), "bounce": {"contact_profile"},
        "fly": {"contact_profile"}, "move": set(),
    },
}


def run_sentence(sentence, lex, cfg):
    frame = parse_text(sentence, lex)
    scene = build_scene(frame, lex, cfg)
    program = compile_event(frame, lex, cfg)
    trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    return frame, scene, trace


def test_roll_to_wall_passes(lex, cfg):
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    report = verify_trace(trace, frame, scene, cfg)
    assert report.overall
    assert report.failed_checks() == ()


def test_roll_trace_fails_slide_frame(lex, cfg):
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    slide_frame = parse_text("the ball slid to the wall", lex)
    report = verify_trace(trace, slide_frame, scene, cfg)
    assert not report.overall
    assert "rotation_coupling" in report.failed_checks()


def test_zero_tick_goal_trace_passes_with_note(lex):
    cfg = SceneConfig(seed=0, ground_distance=0.6)  # theme born touching the goal
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    assert trace.tick_count == 0
    report = verify_trace(trace, frame, scene, cfg)
    assert report.overall
    assert "zero-motion" in report.check("path_pre").detail


def test_report_lists_every_check_exactly_once(lex, cfg):
    for sentence in CORPUS:
        frame, scene, trace = run_sentence(sentence, lex, cfg)
        report = verify_trace(trace, frame, scene, cfg)
        names = [c.name for c in report.checks]
        assert sorted(names) == sorted(CHECK_NAMES)
        assert report.overall == all(c.passed for c in report.checks)


def test_soundness_across_corpus_and_seeds(lex):
    for seed in range(20):
        for sentence in CORPUS:
            cfg = SceneConfig(seed=seed)
            frame, scene, trace = run_sentence(sentence, lex, cfg)
            report = verify_trace(trace, frame, scene, cfg)
            assert report.overall, (sentence, seed, report.failed_checks())


def test_discrimination_matrix(lex, cfg):
    traces = {}
    scenes = {}
    for verb, sentence in MANNER_SENTENCES.items():
        frame, scene, trace = run_sentence(sentence, lex, cfg)
        traces[verb], scenes[verb] = trace, scene
    for v, row in ACCEPTANCE_MATRIX.items():
        for w, expected_failures in row.items():
            frame_w = EventFrame(lex.lookup_verb(w), "ball", None)
            report = verify_trace(traces[v], frame_w, scenes[v], cfg)
            assert set(report.failed_checks()) == expected_failures, (v, w)
            assert report.overall == (not expected_failures), (v, w)


def test_path_checks_name_the_state_where_the_relation_is_wrong(lex, cfg):
    _, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    report = verify_trace(trace, parse_text("the ball rolled from the wall", lex), scene, cfg)
    assert report.check("path_pre") == CheckResult("path_pre", False, 0, "formula false at state 0")
    last = len(trace.states) - 1
    assert report.check("path_post") == CheckResult(
        "path_post", False, last, f"formula false at state {last}"
    )


def test_an_unbound_ground_fails_both_path_checks(lex, cfg):
    _, scene, trace = run_sentence("the ball rolled", lex, cfg)
    report = verify_trace(trace, parse_text("the ball rolled to the block", lex), scene, cfg)
    last = len(trace.states) - 1
    assert report.check("path_pre") == CheckResult("path_pre", False, 0, "unbound object: block")
    assert report.check("path_post") == CheckResult("path_post", False, last, "unbound object: block")


def test_trace_scene_mismatch(lex, cfg):
    _, scene_wall, trace_wall = run_sentence("the ball rolled to the wall", lex, cfg)
    frame_bare, scene_bare, _ = run_sentence("the ball rolled", lex, cfg)
    with pytest.raises(TraceSceneMismatch):
        verify_trace(trace_wall, frame_bare, scene_bare, cfg)


def test_theme_mismatch_is_an_error_not_a_fail(lex, cfg):
    frame_bird = parse_text("the bird flew", lex)
    _, scene, trace = run_sentence("the ball rolled", lex, cfg)
    with pytest.raises(TraceSceneMismatch):
        verify_trace(trace, frame_bird, scene, cfg)


@pytest.mark.parametrize("states", [1, 5])
def test_an_immobile_theme_is_a_mismatch_not_a_traceback(lex, cfg, states):
    # a valid scene paired with a hand-built trace whose theme body is immobile:
    # the engine and the reader refuse such a trace
    _, scene, trace = run_sentence("the ball rolled", lex, cfg)
    stuck = [
        WorldState(s.time, s.tick_index, {**s.bodies, "ball": replace(s.body("ball"), mobile=False)}, s.cfg)
        for s in trace.states[:states]
    ]
    trace = Trace(tuple(stuck), trace.labels[:states - 1])
    with pytest.raises(TraceSceneMismatch, match=r"^theme 'ball' is immobile$"):
        verify_trace(trace, parse_text("the ball rolled", lex), scene, cfg)


def test_a_scene_with_an_immobile_theme_is_refused_before_verify(lex, cfg):
    # the floor as theme: the Scene refuses it, so verify_trace never sees one
    _, scene, _ = run_sentence("the ball rolled", lex, cfg)
    with pytest.raises(ValueError, match=r"^the theme 'floor' is immobile$"):
        replace(scene, theme_id="floor")


def test_goal_sentence_against_bare_trace_fails_path_checks(lex, cfg):
    # the sentence claims a goal the scene never had: unbound ground
    # surfaces as failing path checks, not a silent skip
    frame_goal = parse_text("the ball rolled to the wall", lex)
    _, scene, trace = run_sentence("the ball rolled", lex, cfg)
    report = verify_trace(trace, frame_goal, scene, cfg)
    assert not report.overall
    assert "path_post" in report.failed_checks()
    assert "unbound" in report.check("path_post").detail


def test_metrics_report_roll_geometry(lex, cfg):
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    report = verify_trace(trace, frame, scene, cfg)
    m = report.metrics
    assert m.path_length == pytest.approx(4.4, abs=1e-6)
    assert m.net_rotation == pytest.approx(8.8, abs=1e-6)
    assert m.contact_intervals == 1


def test_fly_trace_is_clear_of_the_floor_on_every_tick(lex, cfg):
    frame, scene, trace = run_sentence("the bird flew", lex, cfg)
    n = trace.tick_count
    assert n > 0
    assert all(s.contacts["bird", "floor"] is Rel.DC for s in trace.states[1:])
    assert verify_trace(trace, frame, scene, cfg).check("contact_profile") == CheckResult(
        "contact_profile", True, None, f"floor DC on all {n} tick states"
    )


@pytest.mark.parametrize("sentence", CORPUS + ["the ball bounced to the floor"])
def test_report_metrics_are_the_trace_metrics(lex, cfg, sentence):
    frame, scene, trace = run_sentence(sentence, lex, cfg)
    assert verify_trace(trace, frame, scene, cfg).metrics == trace_metrics(trace, scene.theme_id)


@pytest.mark.parametrize("sentence, ground_id", [
    ("the ball rolled to the floor", "floor"),
    ("the ball bounced to the floor", "floor"),
    ("the ball rolled to the ball", "ball_2"),
    ("the ball rolled from the wall", "wall"),
])
def test_compiler_scene_and_verifier_bind_the_ground_alike(lex, cfg, sentence, ground_id):
    frame, scene, trace = run_sentence(sentence, lex, cfg)
    assert ground_object_id(frame) == ground_id
    assert scene.ground_id == ground_id
    assert set(scene.initial.bodies) == {"floor", "ball"} | {ground_id}
    assert f"(at ball {ground_id})" in format_program(compile_event(frame, lex, cfg))
    report = verify_trace(trace, frame, scene, cfg)
    assert "unbound" not in report.check("path_pre").detail + report.check("path_post").detail


# -- the mechanical checks on hand-built traces: the first fault is the one reported --


def _with_flag(trace, i, body_id, other, rel):
    """``trace`` with the pair's relation set to ``rel``, under both orders, in state ``i`` only."""
    state = trace.states[i]
    states = list(trace.states)
    states[i] = replace(state, contacts={**state.contacts, (body_id, other): rel, (other, body_id): rel})
    return Trace(tuple(states), trace.labels)


def _with_time(trace, i, time):
    states = list(trace.states)
    states[i] = replace(states[i], time=time)
    return Trace(tuple(states), trace.labels)


@pytest.mark.parametrize("faults,index,detail", [
    # a pair without the theme is read too, its earlier body in bodies order named first
    ([(0, "wall", "floor"), (5, "floor", "wall")], 0, "floor penetrates wall at state 0"),
    ([(9, "wall", "ball"), (7, "floor", "wall")], 7, "floor penetrates wall at state 7"),
    # two in one state: the first pair in bodies order, whatever order they were set in
    ([(4, "wall", "ball"), (4, "floor", "wall")], 4, "floor penetrates wall at state 4"),
    ([(4, "ball", "wall"), (4, "ball", "floor")], 4, "floor penetrates ball at state 4"),
], ids=["state-0-and-later", "two-later-states", "two-bodies-in-one-state", "one-map-twice"])
def test_no_penetration_reports_the_first_po_flag(lex, cfg, faults, index, detail):
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    assert list(trace.states[0].bodies) == ["floor", "ball", "wall"]
    for i, body_id, other in faults:
        trace = _with_flag(trace, i, body_id, other, Rel.PO)
    got = verify_trace(trace, frame, scene, cfg).check("no_penetration")
    assert (got.passed, got.offending_index, got.detail) == (False, index, detail)


def _sharing(trace, i, j, contacts):
    """``trace`` with states ``i`` to ``j`` holding the one map ``contacts``."""
    states = list(trace.states)
    states[i:j + 1] = [replace(state, contacts=contacts) for state in states[i:j + 1]]
    return Trace(tuple(states), trace.labels)


def _scanning_every_state(trace):
    for i, state in enumerate(trace.states):
        pair = first_overlap(state)
        if pair is not None:
            return i, f"{pair[0]} penetrates {pair[1]} at state {i}"
    return None, "no interpenetration"


def test_no_penetration_scans_a_shared_map_once_and_a_fresh_map_again(lex, cfg):
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    clear = dict(trace.states[0].contacts)
    po = {**clear, ("floor", "wall"): Rel.PO, ("wall", "floor"): Rel.PO}
    # states 2 and 3 share a fresh map with no PO pair; state 6 brings in another
    # with one, and state 7 goes back to the map state 5 holds
    cases = {
        "fresh map after a shared one": (_sharing(_sharing(trace, 2, 3, clear), 6, 6, po), 6),
        # the PO pair held by two states, the first of them named
        "PO map shared": (_sharing(_sharing(trace, 2, 3, clear), 4, 5, po), 4),
        "PO map at state 0 shared by state 1": (_sharing(trace, 0, 1, po), 0),
    }
    for name, (faulty, index) in cases.items():
        got = verify_trace(faulty, frame, scene, cfg).check("no_penetration")
        want_index, want_detail = _scanning_every_state(faulty)
        assert want_index == index, name
        assert (got.passed, got.offending_index, got.detail) == (False, want_index, want_detail), name
    assert got.detail == "floor penetrates wall at state 0"


def test_verifying_a_long_roll_scans_each_distinct_contact_map_once(lex, monkeypatch):
    cfg = SceneConfig(seed=0, ground_distance=50)
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    calls = []

    def counted(state):
        calls.append(state.contacts)
        return first_overlap(state)

    monkeypatch.setattr(verify, "first_overlap", counted)
    assert verify_trace(trace, frame, scene, cfg).overall
    # the map the ball starts with and the one in which it touches the wall
    assert trace.tick_count == 2964 and len({id(s.contacts) for s in trace.states}) == 2
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_uniform_timing_reports_the_first_bad_step(lex, cfg):
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    # state 3 an hour late: steps 3 and 4 are both off, and step 3 is reported
    trace = _with_time(trace, 3, 3600.0)
    report = verify_trace(trace, frame, scene, cfg)
    got = report.check("uniform_timing")
    assert (got.passed, got.offending_index) == (False, 3)
    assert got.detail == "step 3 advanced 3599.96666667 s, expected 0.0166666666667"
    assert report.check("no_penetration").passed


def test_uniform_timing_reports_the_earlier_of_two_bad_steps(lex, cfg):
    frame, scene, trace = run_sentence("the ball rolled to the wall", lex, cfg)
    trace = _with_time(_with_time(trace, 6, trace.states[6].time + 0.5), 2, 0.0)
    got = verify_trace(trace, frame, scene, cfg).check("uniform_timing")
    assert (got.passed, got.offending_index) == (False, 2)
    assert got.detail == "step 2 advanced -0.0166666666667 s, expected 0.0166666666667"
