"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the verdict
lines on success).
"""

import json

import pytest

from mosim import (
    At,
    EC,
    Rel,
    SceneConfig,
    build_scene,
    builtin_lexicon,
    compile_event,
    enumerate_traces,
    eval_formula,
    execute,
    parse_text,
    probe_scene,
    read_trace,
    verify_trace,
)
from mosim.cli import run
from mosim.errors import (
    GrammarError,
    ImmobileThemeError,
    NoSuccessfulRun,
    UnknownWordError,
)
from mosim.kinematics import Body, WorldState, hnorm, tick, vsub
from mosim.lexicon import Shape
from mosim.parser import EventFrame
from mosim.rng import SplitMix64, stream_for
from mosim.verify import trace_metrics

from conftest import CORPUS

LEX = builtin_lexicon()


def _report(line):
    print(line)


def pipeline(sentence, cfg):
    frame = parse_text(sentence, LEX)
    scene = build_scene(frame, LEX, cfg)
    program = compile_event(frame, LEX, cfg)
    trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    return frame, scene, trace


def test_a1_running_example(tmp_path):
    out = tmp_path / "a1.jsonl"
    code = run(["simulate", "the ball rolled to the wall", "--seed", "42",
                "--verify", "--out", str(out)])
    assert code == 0

    doc = read_trace(out)
    trace = doc.trace
    assert eval_formula(EC("ball", "wall"), trace.final).value
    for state in trace.states[1:]:
        assert state.contacts["ball", "floor"] is Rel.EC
    metrics = trace_metrics(trace, "ball")
    radius = trace.final.body("ball").dimensions[0]
    assert abs(metrics.net_rotation - metrics.path_length / radius) <= 1e-4
    _report("A1 end-to-end running example: PASS")


def test_a2_corpus_and_negatives():
    for seed in (0, 1, 42):
        for sentence in CORPUS:
            cfg = SceneConfig(seed=seed)
            frame, scene, trace = pipeline(sentence, cfg)
            report = verify_trace(trace, frame, scene, cfg)
            assert report.overall, (sentence, seed, report.failed_checks())

    cfg = SceneConfig(seed=0)
    with pytest.raises(ImmobileThemeError):
        pipeline("the wall rolled", cfg)
    with pytest.raises(GrammarError):
        pipeline("the ball rolled the wall", cfg)
    with pytest.raises(UnknownWordError):
        pipeline("the zorp rolled", cfg)
    _report("A2 12-sentence corpus across seeds {0,1,42} plus negatives: PASS")


def _random_program(r, choices_left, stars_left, depth=0):
    from mosim import Choice, DC, Not, Seq, Star, Test, Tick, truth

    options = ["tick", "tick", "test"]
    if depth < 3:
        options.append("seq")
        if choices_left[0] > 0:
            options.append("choice")
        if stars_left[0] > 0:
            options.append("star")
    kind = options[r.next_u64() % len(options)]
    if kind == "tick":
        return Tick(["roll", "slide", "move"][r.next_u64() % 3], "ball")
    if kind == "test":
        formulas = [truth(), EC("ball", "floor"), DC("ball", "floor"), Not(EC("ball", "floor"))]
        return Test(formulas[r.next_u64() % len(formulas)])
    if kind == "seq":
        return Seq(_random_program(r, choices_left, stars_left, depth + 1),
                   _random_program(r, choices_left, stars_left, depth + 1))
    if kind == "choice":
        choices_left[0] -= 1
        return Choice(_random_program(r, choices_left, stars_left, depth + 1),
                      _random_program(r, choices_left, stars_left, depth + 1))
    stars_left[0] -= 1
    return Star(_random_program(r, choices_left, stars_left, depth + 1),
                r.next_u64() % 4 + 1)


def test_a3_oracle_equivalence():
    cfg = SceneConfig(seed=0)
    s0 = probe_scene(cfg, LEX).initial
    gen = SplitMix64(2024)
    failures = 0
    checks = 0
    for i in range(200):
        program = _random_program(gen.stream(f"prog{i}"), [3], [2])
        budget = int(5 + gen.next_u64() % 16)  # <= 20
        keys = {t.key() for t in enumerate_traces(program, s0, budget)}
        for seed in range(5):
            checks += 1
            try:
                trace = execute(program, s0, stream_for(seed, "choice"), budget)
            except NoSuccessfulRun:
                if keys:
                    failures += 1
                continue
            if trace.key() not in keys:
                failures += 1
    assert checks == 1000
    assert failures == 0
    _report("A3 oracle equivalence over 200 programs x 5 seeds: PASS")


def test_a4_discrimination_matrix():
    from test_verify import ACCEPTANCE_MATRIX, MANNER_SENTENCES

    cfg = SceneConfig(seed=0)
    traces, scenes = {}, {}
    for verb, sentence in MANNER_SENTENCES.items():
        _, scenes[verb], traces[verb] = pipeline(sentence, cfg)
    for v, row in ACCEPTANCE_MATRIX.items():
        for w, expected in row.items():
            frame_w = EventFrame(LEX.lookup_verb(w), "ball", None)
            report = verify_trace(traces[v], frame_w, scenes[v], cfg)
            assert set(report.failed_checks()) == expected, (v, w)
    # the named cells of the criterion, spelled out
    assert "rotation_coupling" in ACCEPTANCE_MATRIX["roll"]["slide"]
    assert "rotation_coupling" in ACCEPTANCE_MATRIX["slide"]["roll"]
    assert "contact_profile" in ACCEPTANCE_MATRIX["bounce"]["roll"]
    assert "contact_profile" in ACCEPTANCE_MATRIX["bounce"]["slide"]
    assert ACCEPTANCE_MATRIX["fly"]["roll"] and ACCEPTANCE_MATRIX["fly"]["slide"]
    assert ACCEPTANCE_MATRIX["roll"]["move"] == set()
    assert ACCEPTANCE_MATRIX["slide"]["move"] == set()
    _report("A4 discrimination matrix matches the documented table: PASS")


def _flat_world(cfg, height):
    floor = Body(id="floor", shape=Shape.PLANE, dimensions=(), mobile=False,
                 position=(0.0, 0.0, 0.0))
    ball = Body(id="ball", shape=Shape.SPHERE, dimensions=(0.5,), mobile=True,
                position=(0.0, height, 0.0))
    return WorldState(0.0, 0, {"floor": floor, "ball": ball}, cfg)


def test_a5_kinematic_identities():
    cfg = SceneConfig(seed=0)

    # roll: rotation tracks path length within 1e-6 rad over 1000 frames
    w = _flat_world(cfg, 0.5)
    path = 0.0
    prev = w.body("ball").position
    for _ in range(1000):
        w = tick(w, "roll", "ball", (1, 0, 0), cfg)
        cur = w.body("ball").position
        path += hnorm(vsub(cur, prev))
        prev = cur
    assert abs(w.body("ball").rotation - path / 0.5) <= 1e-6

    # slide: no rotation at all
    w = _flat_world(cfg, 0.5)
    for _ in range(1000):
        w = tick(w, "slide", "ball", (1, 0, 0), cfg)
    assert abs(w.body("ball").rotation) <= 1e-9

    # bounce: apex gaps decay by restitution^2 (energy oracle), 2 m drop
    w = _flat_world(cfg, 2.5)
    ys = [w.body("ball").position[1]]
    for _ in range(400):
        w = tick(w, "bounce", "ball", (1, 0, 0), cfg)
        ys.append(w.body("ball").position[1])
    apexes = [ys[i] - 0.5 for i in range(1, len(ys) - 1)
              if ys[i] >= ys[i - 1] and ys[i] > ys[i + 1]]
    expected = cfg.restitution ** 2
    ratios = [apexes[0] / 2.0, apexes[1] / apexes[0], apexes[2] / apexes[1]]
    for ratio in ratios:
        assert abs(ratio - expected) / expected <= 0.05
    _report("A5 kinematic identities (roll coupling, slide, bounce decay): PASS")


def test_a6_determinism(tmp_path):
    args = ["simulate", "the ball rolled to the wall", "--seed", "42"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.csv"
    assert run(args + ["--format", "csv", "--out", str(c)]) == 0
    da, dc = read_trace(a), read_trace(c)
    assert da.trace.labels == dc.trace.labels
    for sa, sc in zip(da.trace.states, dc.trace.states):
        assert sa.time == sc.time
        for bid in sa.bodies:
            assert sa.body(bid).position == sc.body(bid).position
            assert sa.body(bid).rotation == sc.body(bid).rotation
    _report("A6 byte-identical reruns and jsonl/csv agreement: PASS")


def test_a7_degenerate_goal():
    cfg = SceneConfig(seed=0, ground_distance=0.6)  # gap = 0.6 - r - halfdepth = 0
    frame, scene, trace = pipeline("the ball rolled to the wall", cfg)
    assert trace.tick_count == 0
    assert eval_formula(At("ball", "wall"), trace.states[0]).value
    report = verify_trace(trace, frame, scene, cfg)
    assert report.overall
    _report("A7 degenerate goal yields a passing zero-tick trace: PASS")
