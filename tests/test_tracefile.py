import gc
import importlib.util
import json
import math
import random
import re
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, seed, settings, strategies as st

from mosim import (
    SceneConfig, build_scene, compile_event, execute, parse_text, read_trace, verify_trace, write_trace,
)
from mosim import kinematics, tracefile
from mosim.errors import (
    DocumentFormatError, MosimError, TraceFormatError, TraceSceneMismatch, UnsupportedShapePair,
)
from mosim.kinematics import PLUS_X, Body, WorldState, contact_relation
from mosim.lexicon import FLOOR_ID, PREPOSITIONS, TICK_ACTIONS, Shape, load_lexicon
from mosim.programs import Trace
from mosim.record import replace
from mosim.rng import stream_for
from mosim.scene import Scene
from mosim.tracefile import _checked_jsonl_record, _header_dict, _parse_header, fmt_float

ROOT = Path(__file__).resolve().parent.parent


def make_run(lex, cfg, sentence="the ball rolled to the wall"):
    frame = parse_text(sentence, lex)
    scene = build_scene(frame, lex, cfg)
    program = compile_event(frame, lex, cfg)
    trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    return frame, scene, trace


def with_body(state, body):
    """``state`` with ``body`` put in, its contact map measured anew."""
    return WorldState(state.time, state.tick_index, {**state.bodies, body.id: body}, state.cfg)


def test_floats_use_17_significant_digits_and_round_trip():
    assert fmt_float(1 / 60) == "0.016666666666666666"
    assert float(fmt_float(1 / 60)) == 1 / 60
    for x in (0.1, 1 / 3, 9.81, 2.0 ** -40, 123456.789):
        assert float(fmt_float(x)) == x


def test_jsonl_round_trip(tmp_path, lex, cfg):
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / "run.jsonl"
    write_trace(path, "jsonl", "the ball rolled to the wall", trace, scene, cfg)
    doc = read_trace(path)
    assert doc.sentence == "the ball rolled to the wall"
    assert doc.cfg == cfg
    assert doc.trace.labels == trace.labels
    assert doc.scene.theme_id == scene.theme_id
    assert doc.scene.ground_id == scene.ground_id
    for got, want in zip(doc.trace.states, trace.states):
        assert got.time == want.time
        for bid in want.bodies:
            assert got.body(bid).position == want.body(bid).position
            assert got.body(bid).rotation == want.body(bid).rotation


def test_csv_round_trip_matches_jsonl(tmp_path, lex, cfg):
    frame, scene, trace = make_run(lex, cfg)
    jj = tmp_path / "run.jsonl"
    cc = tmp_path / "run.csv"
    write_trace(jj, "jsonl", "s", trace, scene, cfg)
    write_trace(cc, "csv", "s", trace, scene, cfg)
    a = read_trace(jj)
    b = read_trace(cc)
    assert a.trace.labels == b.trace.labels
    for sa, sb in zip(a.trace.states, b.trace.states):
        assert sa.time == sb.time
        for bid in sa.bodies:
            assert sa.body(bid).position == sb.body(bid).position
            assert sa.body(bid).rotation == sb.body(bid).rotation


def test_writer_is_deterministic(tmp_path, lex, cfg):
    frame, scene, trace = make_run(lex, cfg)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_trace(p1, "jsonl", "s", trace, scene, cfg)
    write_trace(p2, "jsonl", "s", trace, scene, cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_carries_contract_fields(tmp_path, lex, cfg):
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / "run.jsonl"
    write_trace(path, "jsonl", "the ball rolled to the wall", trace, scene, cfg)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["format_version"] == "1"
    assert header["seed"] == cfg.seed
    assert header["bindings"] == {"theme": "ball", "ground": "wall"}
    assert header["coords"] == "y-up right-handed, goal along +x"
    assert header["frames"] == len(trace.states)


def test_truncated_file_rejected(tmp_path, lex, cfg):
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / "run.jsonl"
    write_trace(path, "jsonl", "s", trace, scene, cfg)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]))
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_wrong_version_rejected(tmp_path, lex, cfg):
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / "run.jsonl"
    write_trace(path, "jsonl", "s", trace, scene, cfg)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = "99"
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines))
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_garbage_rejected(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"format_version": "1", not json')
    with pytest.raises(TraceFormatError):
        read_trace(path)
    with pytest.raises(TraceFormatError):
        read_trace(tmp_path / "missing.jsonl")


def test_action_labels_survive_round_trip(tmp_path, lex):
    cfg = SceneConfig(seed=3, min_bare_frames=4, max_bare_frames=4)
    frame, scene, trace = make_run(lex, cfg, "the ball bounced")
    path = tmp_path / "b.jsonl"
    write_trace(path, "jsonl", "the ball bounced", trace, scene, cfg)
    doc = read_trace(path)
    assert doc.trace.labels == ("bounce",) * 4


def test_bad_json_reports_its_line_in_the_file(tmp_path, lex, cfg):
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / "run.jsonl"
    write_trace(path, "jsonl", "s", trace, scene, cfg)
    lines = path.read_text().splitlines()
    lines[5] = lines[5][: lines[5].index('"time"') + 2]  # line 6 now ends inside a string
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=r"Unterminated string.*\(line 6, column"):
        read_trace(path)


@pytest.mark.parametrize("fault", [
    lambda lines: lines.__setitem__(0, lines[0].replace('"ground":"wall"', '"ground":"ghost"')),
    lambda lines: lines.__setitem__(1, lines[1].replace('"index":0', '"index":7')),
    lambda lines: lines.__setitem__(4, lines[4].replace('"index":3', '"index":7')),
], ids=["header", "record-0", "record-3"])
def test_a_line_that_is_not_json_is_named_before_any_other_fault(tmp_path, lex, cfg, fault):
    # every line is JSON before the header and the records are checked
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / "run.jsonl"
    write_trace(path, "jsonl", "s", trace, scene, cfg)
    lines = path.read_text().splitlines()
    fault(lines)
    lines[9] = lines[9][: lines[9].index('"time"') + 2]  # line 10 now ends inside a string
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=r"Unterminated string.*\(line 10, column"):
        read_trace(path)


@pytest.mark.parametrize("fmt,column", [("jsonl", 18), ("csv", 20)])
def test_bad_json_in_a_header_reports_its_line_and_column_in_the_file(tmp_path, lex, fmt, column):
    def damage(lines, fmt):
        # a blank line first makes the header line 2; the column counts csv's "# "
        lines[0] = "\n" + lines[0].replace(":", "", 1)

    with pytest.raises(TraceFormatError) as got:
        read_trace(written_trace(tmp_path / f"t.{fmt}", lex, damage))
    assert str(got.value) == (
        f"invalid JSON in trace file: Expecting ':' delimiter (line 2, column {column})"
    )


def test_a_jsonl_line_reads_as_json_loads_reads_it(tmp_path, lex):
    plain = read_trace(written_trace(tmp_path / "plain.jsonl", lex)).trace

    def pad(lines, fmt):
        lines[2] = " \t" + lines[2] + "  "

    assert read_trace(written_trace(tmp_path / "padded.jsonl", lex, pad)).trace == plain

    def two_values(lines, fmt):
        lines[2] = lines[2] + "," + lines[3]

    with pytest.raises(TraceFormatError, match=r"^invalid JSON in trace file: Extra data \(line 3, column"):
        read_trace(written_trace(tmp_path / "two.jsonl", lex, two_values))


# -- the writer against the generic JSON walk it replaced ----------------------------


def _oracle_json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_oracle_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{_oracle_json_value(v)}" for k, v in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _oracle_state_record(index, state, label, theme_id, ground_id) -> dict:
    record: dict = {"index": index, "time": float(state.time)}
    record["bodies"] = {
        body.id: {"pos": [float(x) for x in body.position], "rot": float(body.rotation)}
        for body in state.bodies.values()
    }
    if label is not None:
        record["action"] = label
    record["floor_contact"] = state.contacts[theme_id, FLOOR_ID].value
    if ground_id not in (None, FLOOR_ID, theme_id):
        record["goal_contact"] = state.contacts[theme_id, ground_id].value
    return record


def oracle_bytes(fmt, sentence, trace, scene, cfg) -> bytes:
    """The bytes of a trace file as the dict-per-state writer produced them."""
    records = [
        _oracle_state_record(i, state, trace.labels[i - 1] if i > 0 else None,
                             scene.theme_id, scene.ground_id)
        for i, state in enumerate(trace.states)
    ]
    header = _header_dict(sentence, trace, scene, cfg)
    if fmt == "jsonl":
        lines = [_oracle_json_value(header)] + [_oracle_json_value(r) for r in records]
    else:
        body_ids = list(trace.states[0].bodies)
        columns = ["index", "time"]
        for bid in body_ids:
            columns += [f"{bid}_x", f"{bid}_y", f"{bid}_z", f"{bid}_rot"]
        columns += ["action", "floor_contact", "goal_contact"]
        lines = ["# " + _oracle_json_value(header), ",".join(columns)]
        for record in records:
            row = [str(record["index"]), fmt_float(record["time"])]
            for bid in body_ids:
                entry = record["bodies"][bid]
                row += [fmt_float(v) for v in entry["pos"]]
                row.append(fmt_float(entry["rot"]))
            row.append(record.get("action", ""))
            row.append(record["floor_contact"])
            row.append(record.get("goal_contact", ""))
            lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


NUMBER = st.one_of(
    st.integers(min_value=-10**20, max_value=10**20),  # written as the %.17g of their float
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
POINT = st.tuples(NUMBER, NUMBER, NUMBER)
NAME = st.text(alphabet="abxyzéßø球_", min_size=1, max_size=4)  # never "floor"


@st.composite
def hand_built_runs(draw, actions=("roll", "slide")):
    """A theme sphere, the floor and 0-2 more bodies, any of which steps or stays.

    Coordinates, rotations and times are ints or floats; bodies that do not
    step stay the same object, as in an executed trace.  The transitions are
    labelled from ``actions``; the reader takes only tick actions.
    """
    cfg = SceneConfig(seed=0)
    ids = draw(st.lists(NAME, min_size=1, max_size=3, unique=True))
    theme_id, others = ids[0], ids[1:]
    bodies = {
        FLOOR_ID: Body(FLOOR_ID, Shape.PLANE, (), False, (0.0, 0.0, 0.0)),
        theme_id: Body(theme_id, Shape.SPHERE, (0.5,), True, draw(POINT), rotation=draw(NUMBER)),
    }
    for bid in others:
        shape = draw(st.sampled_from([Shape.SPHERE, Shape.BOX]))
        dims = (0.3,) if shape is Shape.SPHERE else (1.0, 2, 0.25)
        bodies[bid] = Body(bid, shape, dims, False, draw(POINT))
    states = [WorldState(draw(NUMBER), 0, bodies, cfg)]
    labels = []
    for k in range(draw(st.integers(min_value=0, max_value=4))):
        bodies = states[-1].bodies
        mover = draw(st.sampled_from([None, *bodies]))
        if mover is not None:
            moved = replace(bodies[mover], position=draw(POINT), rotation=draw(NUMBER))
            bodies = {**bodies, mover: moved}
        states.append(WorldState(draw(NUMBER), k + 1, bodies, cfg))
        labels.append(draw(st.sampled_from(actions)))
    ground_id = draw(st.sampled_from([None, FLOOR_ID, *others]))
    scene = Scene(initial=states[0], theme_id=theme_id, ground_id=ground_id,
                  goal_id=ground_id)
    return Trace(tuple(states), tuple(labels)), scene, cfg


@seed(20161006)
@settings(max_examples=200, deadline=None)
@given(run=hand_built_runs(actions=("roll", "slide", "glissé", "滚")),
       fmt=st.sampled_from(["jsonl", "csv"]))
def test_writer_matches_generic_json_walk_on_hand_built_traces(tmp_path_factory, run, fmt):
    trace, scene, cfg = run
    path = tmp_path_factory.mktemp("w") / f"t.{fmt}"
    if not TICK_ACTIONS.issuperset(trace.labels):
        # a label the reader refuses is refused before the file is opened
        with pytest.raises(ValueError, match=r"^label '(glissé|滚)' is not a tick action \(one of "):
            write_trace(path, fmt, "a sentence, with «quotes»", trace, scene, cfg)
        assert not path.exists()
        return
    write_trace(path, fmt, "a sentence, with «quotes»", trace, scene, cfg)
    assert path.read_bytes() == oracle_bytes(fmt, "a sentence, with «quotes»", trace, scene, cfg)


def test_a_hand_built_boolean_coordinate_is_written_as_its_float_and_read_back(tmp_path):
    # a body may hold any numbers; every number of a state record is the %.17g of its float
    cfg = SceneConfig(seed=0)
    bodies = {
        FLOOR_ID: Body(FLOOR_ID, Shape.PLANE, (), False, (0.0, 0.0, 0.0)),
        "ball": Body("ball", Shape.SPHERE, (0.5,), True, (True, 0.5, False), rotation=True),
    }
    first = WorldState(0, 0, bodies, cfg)
    trace = Trace((first, kinematics.tick(first, "roll", "ball")), ("roll",))
    scene = Scene(initial=first, theme_id="ball", ground_id=None, goal_id=None)
    path = tmp_path / "t.jsonl"
    write_trace(path, "jsonl", "the ball rolled", trace, scene, cfg)
    assert path.read_text().splitlines()[1] == (
        '{"index":0,"time":0,"bodies":{"floor":{"pos":[0,0,0],"rot":0},'
        '"ball":{"pos":[1,0.5,0],"rot":1}},"floor_contact":"EC"}'
    )
    assert read_trace(path).trace == trace


def _wall_at(state, z):
    wall = state.body("wall")
    x, y, _ = wall.position
    return with_body(state, replace(wall, position=(x, y, z)))


def _reordered(state):
    bodies = dict(reversed(state.bodies.items()))
    return WorldState(state.time, state.tick_index, bodies, state.cfg)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("change", [
    # the wall moves for one state, then is back where it was, as another object
    lambda states: {2: _wall_at(states[2], 0.25), 3: _wall_at(states[3], 0.0)},
    # a wall equal to the one before, but not the same object, at z -0 where it was at 0
    lambda states: {2: _wall_at(states[2], -0.0), 3: _wall_at(states[3], -0.0)},
    # the bodies in another order for two states (jsonl writes each state's order)
    lambda states: {2: _reordered(states[2]), 3: _reordered(states[3])},
], ids=["wall moved", "wall at -0", "order changed"])
def test_writer_rebuilds_the_text_it_holds_when_a_body_other_than_the_theme_changes(tmp_path, lex,
                                                                                   cfg, fmt, change):
    _, scene, trace = make_run(lex, cfg)
    states = list(trace.states)
    assert states[0].body("wall").position[2] == 0.0
    for k, state in change(states).items():
        states[k] = state
    trace = Trace(tuple(states), trace.labels)
    path = tmp_path / f"t.{fmt}"
    write_trace(path, fmt, "the ball rolled to the wall", trace, scene, cfg)
    assert path.read_bytes() == oracle_bytes(fmt, "the ball rolled to the wall", trace, scene, cfg)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("field, value", [("speed", 2.0), ("seed", 5), ("contact_eps", 0.01)])
def test_writer_refuses_a_config_the_trace_did_not_run_under(tmp_path, lex, cfg, fmt, field, value):
    _, scene, trace = make_run(lex, cfg)
    path = tmp_path / f"t.{fmt}"
    other = cfg.replace(**{field: value})
    message = rf"^cfg is not the config the trace ran under \(it differs in {field}\)$"
    with pytest.raises(ValueError, match=message):
        write_trace(path, fmt, "the ball rolled to the wall", trace, scene, other)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("ran, scene_of", [
    ("the ball rolled", "the ball rolled to the wall"),
    ("the ball rolled to the wall", "the ball rolled"),
])
def test_writer_refuses_a_scene_whose_bodies_are_not_the_traces(tmp_path, lex, cfg, fmt, ran,
                                                                 scene_of):
    # other bodies make another initial state
    _, _, trace = make_run(lex, cfg, ran)
    _, scene, _ = make_run(lex, cfg, scene_of)
    path = tmp_path / f"t.{fmt}"
    with pytest.raises(ValueError, match=r"^scene initial state is not the trace's first state$"):
        write_trace(path, fmt, ran, trace, scene, cfg)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("field, message", [
    ("theme_id", r"^scene theme 'ghost' is not one of the scene's bodies \['floor', 'ball', 'wall'\]$"),
    ("ground_id", r"^scene ground 'ghost' is not one of the scene's bodies \['floor', 'ball', 'wall'\]$"),
    ("goal_id", r"^scene goal 'ghost' is not one of the scene's bodies \['floor', 'ball', 'wall'\]$"),
])
def test_writer_refuses_a_scene_binding_a_body_the_trace_lacks(tmp_path, lex, cfg, fmt, field,
                                                               message):
    # the Scene refuses the binding, so no such scene reaches the writer
    _, scene, trace = make_run(lex, cfg)
    path = tmp_path / f"t.{fmt}"
    with pytest.raises(ValueError, match=message):
        write_trace(path, fmt, "the ball rolled to the wall", trace,
                    replace(scene, **{field: "ghost"}), cfg)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("theme", ["floor", "wall"])
def test_writer_refuses_an_immobile_theme(tmp_path, lex, cfg, fmt, theme):
    # the reader refuses such a header: the writer does not write one
    _, scene, trace = make_run(lex, cfg)
    path = tmp_path / f"t.{fmt}"
    with pytest.raises(ValueError, match=rf"^the theme '{theme}' is immobile$"):
        write_trace(path, fmt, "the ball rolled to the wall", trace, replace(scene, theme_id=theme), cfg)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("ran, scene_of", [
    ("the ball rolled to the wall", "the ball rolled from the wall"),
    ("the ball rolled from the wall", "the ball rolled to the wall"),
    ("the ball rolled", "the ball bounced"),
])
def test_writer_refuses_a_scene_whose_initial_state_is_not_the_traces_first(tmp_path, lex, cfg, fmt,
                                                                           ran, scene_of):
    # the same body ids, placed elsewhere: the header would bind the other scene's goal
    _, _, trace = make_run(lex, cfg, ran)
    _, scene, _ = make_run(lex, cfg, scene_of)
    path = tmp_path / f"t.{fmt}"
    with pytest.raises(ValueError, match=r"^scene initial state is not the trace's first state$"):
        write_trace(path, fmt, ran, trace, scene, cfg)
    assert not path.exists()


@pytest.mark.parametrize("ran, scene_of, field, value", [
    ("the ball rolled to the wall", "the ball rolled to the wall", "speed", 2.0),
    ("the ball rolled to the wall", "the ball rolled to the wall", "seed", 5),
    ("the ball rolled to the wall", "the ball rolled to the wall", "contact_eps", 0.01),
    ("the ball rolled", "the ball rolled to the wall", None, None),
    ("the ball rolled to the wall", "the ball rolled", None, None),
    ("the ball rolled to the wall", "the ball rolled from the wall", None, None),
    ("the ball rolled from the wall", "the ball rolled to the wall", None, None),
    ("the ball rolled", "the ball bounced", None, None),
])
def test_writer_and_verifier_refuse_a_mismatched_pair_alike(tmp_path, lex, cfg, ran, scene_of, field,
                                                            value):
    # one pairing rule, Scene.check_run, for both
    frame, _, trace = make_run(lex, cfg, ran)
    _, scene, _ = make_run(lex, cfg, scene_of)
    other = cfg if field is None else cfg.replace(**{field: value})
    with pytest.raises(ValueError) as written:
        write_trace(tmp_path / "t.jsonl", "jsonl", ran, trace, scene, other)
    with pytest.raises(ValueError) as verified:
        verify_trace(trace, frame, scene, other)
    assert type(written.value) is type(verified.value) is TraceSceneMismatch
    assert str(written.value) == str(verified.value)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_writer_takes_a_scene_whose_initial_state_equals_the_traces_first(tmp_path, lex, cfg, fmt):
    _, scene, trace = make_run(lex, cfg)
    first = trace.states[0]
    copy = WorldState(first.time, first.tick_index, dict(first.bodies), first.cfg)
    assert copy is not first and copy == first
    path = tmp_path / f"t.{fmt}"
    write_trace(path, fmt, "the ball rolled to the wall", trace, replace(scene, initial=copy), cfg)
    assert path.read_bytes() == oracle_bytes(fmt, "the ball rolled to the wall", trace, scene, cfg)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_theme_bound_as_its_own_ground_writes_no_goal_and_round_trips(tmp_path, lex, cfg, fmt):
    # a header may bind the theme as its ground; the reader takes it, so the writer writes it
    _, scene, trace = make_run(lex, cfg)
    scene = replace(scene, ground_id="ball")
    path, again = tmp_path / f"t.{fmt}", tmp_path / f"again.{fmt}"
    write_trace(path, fmt, "the ball rolled to the wall", trace, scene, cfg)
    assert path.read_bytes() == oracle_bytes(fmt, "the ball rolled to the wall", trace, scene, cfg)
    text = path.read_text(encoding="utf-8")
    if fmt == "jsonl":
        assert "goal_contact" not in text.split("\n", 1)[1]
    else:
        assert all(row.endswith(",") for row in text.splitlines()[2:])  # an empty goal cell
    doc = read_trace(path)
    assert doc.scene == scene
    write_trace(again, fmt, doc.sentence, doc.trace, doc.scene, doc.cfg)
    assert again.read_bytes() == path.read_bytes()


FLOAT = NUMBER.map(float)  # written as an integer where it is one
FLOAT_POINT = st.tuples(FLOAT, FLOAT, FLOAT)


@st.composite
def ticked_runs(draw):
    """A theme sphere, the floor and 0-2 more bodies, placed anywhere, then 0-4 ticks.

    The first state's coordinates and rotation are drawn, at time 0; every
    later state is ``tick``'s, so the file is one the reader replays.  The theme
    heads along +x, -x or off axis.
    """
    cfg = SceneConfig(seed=0)
    ids = draw(st.lists(NAME, min_size=1, max_size=3, unique=True))
    theme_id, others = ids[0], ids[1:]
    direction = draw(st.sampled_from([PLUS_X, (-1.0, 0.0, 0.0), (0.6, 0.0, -0.8)]))
    bodies = {
        FLOOR_ID: Body(FLOOR_ID, Shape.PLANE, (), False, (0.0, 0.0, 0.0)),
        theme_id: Body(theme_id, Shape.SPHERE, (0.5,), True, draw(FLOAT_POINT), direction,
                       draw(FLOAT)),
    }
    for bid in others:
        shape = draw(st.sampled_from([Shape.SPHERE, Shape.BOX]))
        dims = (0.3,) if shape is Shape.SPHERE else (1.0, 2.0, 0.25)
        bodies[bid] = Body(bid, shape, dims, False, draw(FLOAT_POINT))
    states = [WorldState(0.0, 0, bodies, cfg)]
    labels = tuple(draw(st.lists(st.sampled_from(sorted(TICK_ACTIONS)), max_size=4)))
    for label in labels:
        states.append(kinematics.tick(states[-1], label, theme_id))
    ground_id = draw(st.sampled_from([None, FLOOR_ID, *others]))
    scene = Scene(initial=states[0], theme_id=theme_id, ground_id=ground_id,
                  goal_id=ground_id)
    return Trace(tuple(states), labels), scene, cfg


@seed(20161006)
@settings(max_examples=100, deadline=None)
@given(run=ticked_runs(), fmt=st.sampled_from(["jsonl", "csv"]))
def test_read_back_flags_equal_a_full_refresh(tmp_path_factory, run, fmt):
    # the first state measures every pair and each later one is a tick's, which
    # measures the theme's pairs and keeps every other pair's flag
    trace, scene, cfg = run
    path = tmp_path_factory.mktemp("r") / f"t.{fmt}"
    write_trace(path, fmt, "s", trace, scene, cfg)
    got = read_trace(path).trace
    assert got.labels == trace.labels
    for state, written in zip(got.states, trace.states, strict=True):
        assert state == WorldState(state.time, state.tick_index, state.bodies, state.cfg)
        assert state.contacts == written.contacts
        for bid, body in written.bodies.items():
            assert (*state.body(bid).position, state.body(bid).rotation) == (*body.position, body.rotation)


NON_ASCII_LEXICON = json.dumps({
    "nouns": [
        {"lemma": "bål", "shape": "sphere", "dimensions": {"radius": 0.3}, "mobile": True},
        {"lemma": "mür", "shape": "box", "dimensions": {"width": 3, "height": 1.5, "depth": 0.4},
         "mobile": False},
    ],
    "verbs": [],
})


@seed(20161006)
@settings(max_examples=30, deadline=None)
@given(
    sentence=st.sampled_from([
        "the bål rolled", "the bål bounced", "the bål slid to the mür",
        "the ball rolled to the mür", "the bird flew to the wall", "the ball left",
    ]),
    run_seed=st.integers(min_value=0, max_value=2**31),
    fmt=st.sampled_from(["jsonl", "csv"]),
)
def test_writer_matches_generic_json_walk_on_executed_traces(tmp_path_factory, sentence, run_seed, fmt):
    lex = load_lexicon(NON_ASCII_LEXICON)
    cfg = SceneConfig(seed=run_seed, ground_distance=1.5)
    frame, scene, trace = make_run(lex, cfg, sentence)
    path = tmp_path_factory.mktemp("w") / f"t.{fmt}"
    write_trace(path, fmt, sentence, trace, scene, cfg)
    assert path.read_bytes() == oracle_bytes(fmt, sentence, trace, scene, cfg)


def _sweep():
    """scripts/sweep.py as a module: its sentences, configs and frame limit."""
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def _poses(trace):
    return [(s.time, {bid: (*b.position, b.rotation) for bid, b in s.bodies.items()})
            for s in trace.states]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_every_sweep_run_round_trips(tmp_path, lex, fmt):
    # every sentence the grammar parses, under the sweep's configs at seed 0: the
    # writer needs no check of a scene beyond its initial state and config
    sweep = _sweep()
    path, again = tmp_path / f"t.{fmt}", tmp_path / f"again.{fmt}"
    runs = 0
    for sentence in sweep.sentences(lex):
        frame = parse_text(sentence, lex)
        for overrides in sweep.CONFIGS.values():
            cfg = SceneConfig(seed=0, max_frames=sweep.MAX_FRAMES, **overrides)
            try:
                program = compile_event(frame, lex, cfg)
                scene = build_scene(frame, lex, cfg)
                trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
            except MosimError:
                continue
            write_trace(path, fmt, sentence, trace, scene, cfg)
            doc = read_trace(path)
            assert (doc.scene, doc.cfg, doc.trace.labels) == (scene, cfg, trace.labels), sentence
            assert _poses(doc.trace) == _poses(trace), sentence
            write_trace(again, fmt, sentence, doc.trace, doc.scene, doc.cfg)
            assert again.read_bytes() == path.read_bytes(), sentence
            runs += 1
    assert runs == 722


# -- the reader ------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_read_back_shares_static_bodies_and_equals_the_written_trace(tmp_path, lex, cfg, fmt):
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / f"run.{fmt}"
    write_trace(path, fmt, "the ball rolled to the wall", trace, scene, cfg)
    doc = read_trace(path)
    got = doc.trace.states
    assert len(got) == len(trace.states) > 2
    for before, after in zip(got, got[1:]):
        assert after.body("ball") is not before.body("ball")
        for bid in ("wall", "floor"):
            # a static body is the previous state's object, whatever its contacts do
            assert after.body(bid) is before.body(bid)
        # the map is the previous state's until a relation changes
        assert (after.contacts is before.contacts) == (after.contacts == before.contacts)
    assert doc.trace.labels == trace.labels
    for g, w in zip(got, trace.states):
        assert g.time == w.time
        assert list(g.bodies) == list(w.bodies)
        for bid, body in w.bodies.items():
            assert g.body(bid).position == body.position
            assert g.body(bid).rotation == body.rotation
        assert g.contacts == w.contacts


def assert_same_bits(got: WorldState, want: WorldState):
    for bid, body in want.bodies.items():
        g = got.body(bid)
        assert [c.hex() for c in (*g.position, g.rotation, *g.velocity)] == [
            float(c).hex() for c in (*body.position, body.rotation, *body.velocity)
        ], bid


# csv keeps the sign of zero; JSON reads the "-0" that %.17g writes as the integer 0.
# Only record 0 is read as written: every later state is the tick of the one before.
@pytest.mark.parametrize("fmt,signs", [("csv", [-1.0, -1.0, -1.0]), ("jsonl", [1.0, 1.0, 1.0])])
def test_read_back_compares_poses_bit_for_bit(tmp_path, lex, cfg, fmt, signs):
    # a bounce's vertical velocity is in no file: the tick gives it back
    frame, scene, trace = make_run(lex, cfg, "the ball bounced")
    path = tmp_path / f"bounce.{fmt}"
    write_trace(path, fmt, "the ball bounced", trace, scene, cfg)
    got = read_trace(path).trace.states
    assert len(got) == len(trace.states) > 2
    assert any(s.body("ball").velocity[1] != 0.0 for s in got)
    for g, w in zip(got, trace.states):
        assert_same_bits(g, w)
    # a slide keeps the first state's rotation: -0.0 in csv, 0.0 in jsonl
    frame, scene, trace = make_run(lex, cfg, "the ball slid to the wall")
    states = [with_body(scene.initial, replace(scene.initial.body("ball"), rotation=-0.0))]
    for label in trace.labels[:2]:
        states.append(kinematics.tick(states[-1], label, "ball"))
    path = tmp_path / f"slide.{fmt}"
    write_trace(path, fmt, "s", Trace(tuple(states), trace.labels[:2]), scene, cfg)
    got = read_trace(path).trace.states
    assert [math.copysign(1.0, s.body("ball").rotation) for s in got] == signs
    if fmt == "csv":
        for g, w in zip(got, states):
            assert_same_bits(g, w)


def read_or_refusal(read, path):
    """``read(path)``, or the message of the ``TraceFormatError`` it raises."""
    try:
        return read(path)
    except TraceFormatError as exc:
        return str(exc)


TAMPERS = ("theme x", "static pose", "time", "action")


def tampered(trace, theme_id, what, k):
    """``trace`` with state ``k`` (k >= 1), or the label into it, changed as ``what`` names."""
    states, labels = list(trace.states), list(trace.labels)
    state = states[k]
    if what == "theme x":  # to the wall's face in the roll to the wall
        theme = state.body(theme_id)
        states[k] = with_body(state, replace(theme, position=(4.39, *theme.position[1:])))
    elif what == "static pose":
        static = next(b for b in state.bodies.values() if b.id != theme_id)
        x, y, z = static.position
        states[k] = with_body(state, replace(static, position=(x, y + 0.25, z)))
    elif what == "time":
        states[k] = WorldState(state.time + 0.25, k, state.bodies, state.cfg, state.contacts)
    else:
        labels[k - 1] = "slide" if labels[k - 1] == "roll" else "roll"
    return Trace(tuple(states), tuple(labels))


def parsable_sentences(lex):
    """Every "the" sentence ``lex`` parses, in lexicon order."""
    out = []
    for theme in lex.nouns:
        for verb in lex.verbs.values():
            for form in verb.past_forms:
                for text in [f"the {theme} {form}", *(f"the {theme} {form} {prep} the {ground}"
                                                       for prep in PREPOSITIONS for ground in lex.nouns)]:
                    try:
                        parse_text(text, lex)
                    except MosimError:
                        continue
                    out.append(text)
    return out


def test_every_parsable_sentence_reads_back_as_the_engine_ran_it(tmp_path, lex, cfg):
    # poses, rotations, velocities and contact maps, in both formats; only jsonl's
    # record 0 may read a -0.0 as 0.0, and no engine trace here holds one
    read = 0
    for n, sentence in enumerate(parsable_sentences(lex)):
        try:
            frame, scene, trace = make_run(lex, cfg, sentence)
        except MosimError:
            continue
        for fmt in ("jsonl", "csv"):
            path = tmp_path / f"{n}.{fmt}"
            write_trace(path, fmt, sentence, trace, scene, cfg)
            doc = read_trace(path)
            assert doc.trace.labels == trace.labels, sentence
            assert len(doc.trace.states) == len(trace.states), sentence
            for got, want in zip(doc.trace.states, trace.states):
                assert got.time == want.time and got.contacts == want.contacts, sentence
                assert_same_bits(got, want)
            path.unlink()
            read += 1
    assert read > 400


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("k", [1, 2, -1], ids=["record-1", "record-2", "last-record"])
@pytest.mark.parametrize("what", TAMPERS)
def test_a_record_that_is_not_its_ticks_state_is_refused(tmp_path, lex, fmt, k, what):
    cfg = SceneConfig(seed=42)
    frame, scene, trace = make_run(lex, cfg)
    k = k % len(trace.states)
    path = tmp_path / f"t.{fmt}"
    write_trace(path, fmt, "the ball rolled to the wall", tampered(trace, "ball", what, k), scene, cfg)
    time = trace.states[k].time
    message = {
        "theme x": f"record {k} body ball is not where a roll tick puts it",
        "static pose": f"record {k} body floor is not where a roll tick puts it",
        "time": f"record {k} has time {fmt_float(time + 0.25)}, not its tick's {fmt_float(time)}",
        "action": f"record {k} body ball is not where a slide tick puts it",
    }[what]
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == message


# -- the reader against a reference replay ---------------------------------------------
#
# ``reference_read`` parses every jsonl record with the checked field walk and every
# csv cell on every row, measures each pair of record 0 by ``contact_relation``, and
# replays each later record with ``kinematics.tick``, comparing the record's time and
# poses to the tick's.  The header checks, ``_parse_header``, and the record walk,
# ``_checked_jsonl_record``, are shared; the reader's records taken as the writer's
# text and its state building are what it is compared on.


def _ref_numbers(values, where):
    try:
        xs = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        xs = (math.nan,)
    if not all(map(math.isfinite, xs)):
        raise TraceFormatError(f"{where} must hold finite numbers, got {values!r:.60}")
    return xs


def _ref_contacts(bodies, eps):
    items = list(bodies.items())
    out = {}
    for i, (a_id, a) in enumerate(items):
        for b_id, b in items[i + 1:]:
            try:
                out[a_id, b_id] = out[b_id, a_id] = contact_relation(a, b, eps)
            except UnsupportedShapePair:
                pass
    return out


def _ref_rebuild(header, rows, record):
    if len(rows) != header["frames"]:
        raise TraceFormatError(
            f"record count {len(rows)} does not match header frames {header['frames']}"
        )
    if not rows:
        raise TraceFormatError("trace has no state records")
    cfg, catalog, direction = header["cfg"], header["bodies"], header["direction"]
    theme_id = header["bindings"]["theme"]
    states, labels = [], []
    for i, row in enumerate(rows):
        index, time, poses, action = record(i, row)
        if index != i:
            raise TraceFormatError(f"record {i} has index {index}")
        if i == 0:
            if action is not None:
                raise TraceFormatError(
                    f"record 0 has an action {json.dumps(action):.40}; the first state has no incoming tick"
                )
            bodies = {}
            for (bid, (shape, dims, mobile)), pose in zip(catalog.items(), poses):
                if not all(-1e30 <= c <= 1e30 for c in pose):
                    raise TraceFormatError(
                        f"pos and rot in record 0 body {bid} must lie within [-1e+30, 1e+30]"
                    )
                heading = direction if bid == theme_id else PLUS_X
                bodies[bid] = Body(bid, shape, dims, mobile, pose[:3], heading, pose[3])
            if time != 0.0:
                raise TraceFormatError(f"record 0 has time {fmt_float(time)}, not its tick's 0")
            states.append(WorldState(time, 0, bodies, cfg, _ref_contacts(bodies, cfg.contact_eps)))
            continue
        if not action:
            raise TraceFormatError(f"record {i} is missing its action label")
        if action not in TICK_ACTIONS or type(action) is not str:
            raise TraceFormatError(
                f"record {i} has an unknown action {json.dumps(action):.40}"
                " (one of bounce, fly, move, roll, slide)"
            )
        state = kinematics.tick(states[-1], action, theme_id)
        for bid, pose in zip(catalog, poses):
            body = state.bodies[bid]
            if list(pose) != [*body.position, body.rotation]:
                raise TraceFormatError(f"record {i} body {bid} is not where a {action} tick puts it")
        if time != state.time:
            raise TraceFormatError(
                f"record {i} has time {fmt_float(time)}, not its tick's {fmt_float(state.time)}"
            )
        states.append(state)
        labels.append(action)
    return Trace(tuple(states), tuple(labels))


def reference_read(path) -> Trace:
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        objs = []
        for n, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                try:
                    objs.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(
                        f"invalid JSON in trace file: {exc.msg} (line {n}, column {exc.colno})"
                    ) from exc
        header = _parse_header(objs[0])
        ids = list(header["bodies"])
        return _ref_rebuild(header, objs[1:], lambda i, obj: _checked_jsonl_record(i, obj, ids))
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise TraceFormatError("csv trace must start with a '# ' header line")
    n = next(n for n, line in enumerate(text.splitlines(), start=1) if line.strip())
    try:
        header = json.loads(lines[0][2:])
    except json.JSONDecodeError as exc:  # the column counts the "# " before the JSON
        raise TraceFormatError(
            f"invalid JSON in trace file: {exc.msg} (line {n}, column {exc.colno + 2})"
        ) from exc
    header = _parse_header(header)
    axes = ("x", "y", "z", "rot")
    names = ["index", "time", *(f"{bid}_{a}" for bid in header["bodies"] for a in axes),
             "action", "floor_contact", "goal_contact"]
    if lines[1] != ",".join(names):
        raise TraceFormatError(f"csv trace must have the column line {','.join(names)!r}")

    def record(i, line):
        cells = line.split(",")
        if len(cells) != len(names):
            raise TraceFormatError(f"row has {len(cells)} cells, expected {len(names)}")
        try:
            index = int(cells[0])
        except ValueError:
            raise TraceFormatError(f"bad csv row {i}: index {cells[0]!r:.40}") from None
        poses = [_ref_numbers(tuple(cells[2 + 4 * k:6 + 4 * k]), f"csv row {i}")
                 for k in range(len(header["bodies"]))]
        time, = _ref_numbers((cells[1],), f"csv row {i} time")
        return index, time, poses, cells[-3] or None

    return _ref_rebuild(header, lines[2:], record)


def assert_same_read(got: Trace, want: Trace):
    """Equal labels, contacts and float bits, and the same sharing of bodies and maps."""
    assert got.labels == want.labels
    assert len(got.states) == len(want.states)
    for i, (g, w) in enumerate(zip(got.states, want.states)):
        assert g.time.hex() == w.time.hex() and g.tick_index == w.tick_index == i
        assert list(g.bodies) == list(w.bodies)
        assert g.contacts == w.contacts
        if i > 0:
            shared = g.contacts is got.states[i - 1].contacts
            assert shared == (w.contacts is want.states[i - 1].contacts), i
        for bid, wb in w.bodies.items():
            gb = g.bodies[bid]
            assert [c.hex() for c in (*gb.position, gb.rotation)] == [
                c.hex() for c in (*wb.position, wb.rotation)
            ]
            assert gb == wb
            if i > 0:
                shared = gb is got.states[i - 1].bodies[bid]
                assert shared == (wb is want.states[i - 1].bodies[bid]), (i, bid)


def _respell(cell: str, pick) -> str:
    """Another spelling of the csv cell ``cell``: the same float, or 0 for -0 and back."""
    spellings = {cell}
    if cell in ("0", "-0", "0.0", "-0.0"):
        spellings |= {"0", "-0", "0.0", "-0.0"}
    elif "e" not in cell and "." not in cell:
        spellings.add(cell + ".0")  # 1 <-> 1.0
    elif "e" not in cell:
        spellings.add(cell + "0")
        if cell.endswith(".0"):
            spellings.add(cell[:-2])
    return pick(sorted(spellings))


def respelled_csv(text: str, pick, n_bodies: int) -> str:
    lines = text.splitlines()
    for k in range(2, len(lines)):
        cells = lines[k].split(",")
        for c in range(2, 2 + 4 * n_bodies):
            cells[c] = _respell(cells[c], pick)
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


@seed(20161006)
@settings(max_examples=150, deadline=None)
@given(run=ticked_runs(), fmt=st.sampled_from(["jsonl", "csv", "csv respelled"]),
       tamper=st.sampled_from([None, *TAMPERS]), data=st.data())
def test_reader_equals_the_reference_reader_on_hand_built_traces(tmp_path_factory, run, fmt, tamper,
                                                                 data):
    # a tick chain reads as the reference replays it; a chain with one record
    # changed is refused by both with the same message, or read by both alike
    trace, scene, cfg = run
    if tamper is not None and trace.labels:
        k = data.draw(st.integers(min_value=1, max_value=len(trace.labels)))
        trace = tampered(trace, scene.theme_id, tamper, k)
    path = tmp_path_factory.mktemp("ref") / f"t.{fmt.split()[0]}"
    write_trace(path, fmt.split()[0], "s", trace, scene, cfg)
    if fmt == "csv respelled":
        pick = lambda options: data.draw(st.sampled_from(options))
        path.write_text(respelled_csv(path.read_text(), pick, len(trace.states[0].bodies)))
    want = read_or_refusal(reference_read, path)
    got = read_or_refusal(lambda p: read_trace(p).trace, path)
    event("refused" if isinstance(want, str) else "read")
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_read(got, want)


@seed(20161006)
@settings(max_examples=40, deadline=None)
@given(
    sentence=st.sampled_from(["the ball rolled to the wall", "the ball bounced", "the bird flew",
                              "the ball left", "the ball slid to the wall", "the ball rolled"]),
    run_seed=st.integers(min_value=0, max_value=2**31),
    fmt=st.sampled_from(["jsonl", "csv", "csv respelled"]),
    respell_seed=st.integers(min_value=0, max_value=2**31),
)
def test_reader_equals_the_reference_reader_on_executed_traces(
    tmp_path_factory, lex, sentence, run_seed, fmt, respell_seed
):
    cfg = SceneConfig(seed=run_seed, ground_distance=1.5)
    frame, scene, trace = make_run(lex, cfg, sentence)
    path = tmp_path_factory.mktemp("ref") / f"t.{fmt.split()[0]}"
    write_trace(path, fmt.split()[0], sentence, trace, scene, cfg)
    if fmt == "csv respelled":
        rng = random.Random(respell_seed)
        path.write_text(respelled_csv(path.read_text(), rng.choice, len(trace.states[0].bodies)))
    assert_same_read(read_trace(path).trace, reference_read(path))


def test_respelled_csv_shares_a_body_whose_text_changed_but_not_its_bits(tmp_path, lex, cfg):
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / "t.csv"
    write_trace(path, "csv", "s", trace, scene, cfg)
    lines = path.read_text().splitlines()
    assert lines[3].split(",")[2:6] == ["0", "0", "0", "0"]  # the floor
    cells = lines[3].split(",")
    cells[2:6] = ["0.0", "0", "0e0", "0.000"]
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    got = read_trace(path).trace.states
    assert got[1].body("floor") is got[0].body("floor")
    assert_same_read(read_trace(path).trace, reference_read(path))


# -- single-fault files: the messages of the reference reader --------------------------


def _header(lines, fmt):
    return json.loads(lines[0][2:] if fmt == "csv" else lines[0])


def _set_header(lines, fmt, header):
    lines[0] = ("# " if fmt == "csv" else "") + json.dumps(header)


def edit_header(edit):
    def damage(lines, fmt):
        header = _header(lines, fmt)
        edit(header)
        _set_header(lines, fmt, header)
    return damage


def edit_record(edit):
    def damage(lines, fmt):
        record = json.loads(lines[3])
        edit(record)
        lines[3] = json.dumps(record)  # writes a NaN as the bare token NaN
    return damage


def record_a_list(lines, fmt):
    lines[3] = json.dumps(list(json.loads(lines[3]).items()))


def edit_row(edit):
    def damage(lines, fmt):
        cells = lines[4].split(",")  # csv row 2
        edit(cells)
        lines[4] = ",".join(cells)
    return damage


def edit_columns(edit):
    def damage(lines, fmt):
        names = lines[1].split(",")
        edit(names)
        lines[1] = ",".join(names)
    return damage


def replayed(trace, scene, **changes):
    """``trace`` and ``scene`` with the theme's first state changed by ``changes``
    and the trace's labels ticked again from there: a tick chain still."""
    first = scene.initial
    states = [with_body(first, replace(first.body(scene.theme_id), **changes))]
    for label in trace.labels:
        states.append(kinematics.tick(states[-1], label, scene.theme_id))
    return Trace(tuple(states), trace.labels), replace(scene, initial=states[0])


def written_trace(path, lex, damage=None, **changes):
    """The seed-42 roll to the wall, written to ``path`` in the format its suffix names.

    ``changes``, if given, change the ball's first state, as ``replayed`` does.
    ``damage(lines, fmt)``, if given, edits the file's lines in place.
    """
    fmt = path.suffix[1:]
    cfg = SceneConfig(seed=42)
    frame, scene, trace = make_run(lex, cfg)
    if changes:
        trace, scene = replayed(trace, scene, **changes)
    write_trace(path, fmt, "the ball rolled to the wall", trace, scene, cfg)
    if damage is not None:
        lines = path.read_text().splitlines()
        damage(lines, fmt)
        path.write_text("\n".join(lines) + "\n")
    return path


def broken_json(lines, fmt):
    lines[3] = lines[3].replace(",", "", 1)


HEADER_FAULTS = {
    "dimensions-not-numbers": edit_header(lambda h: h["bodies"]["ball"].update(dimensions=["x"])),
    "bodies-a-list": edit_header(lambda h: h.update(bodies=list(h["bodies"]))),
    "box-with-two-dimensions": edit_header(
        lambda h: h["bodies"]["wall"].update(dimensions=[4.0, 2.0])),
    "theme-not-a-string": edit_header(lambda h: h["bindings"].update(theme=["ball"])),
    "no-floor": edit_header(lambda h: h["bodies"].pop("floor")),
    "floor-as-theme": edit_header(lambda h: h["bindings"].update(theme="floor")),
    "theme-not-a-body": edit_header(lambda h: h["bindings"].update(theme="ghost")),
    "second-plane": edit_header(
        lambda h: h["bodies"]["wall"].update(shape="plane", dimensions=[])),
    "mobile-a-string": edit_header(lambda h: h["bodies"]["wall"].update(mobile="no")),
    "extra-header-key": edit_header(lambda h: h.update(zzz=1)),
    "extra-body-key": edit_header(lambda h: h["bodies"]["ball"].update(colour="red")),
    "extra-bindings-key": edit_header(lambda h: h["bindings"].update(zzz=1)),
    "coords-another": edit_header(lambda h: h.update(coords="z-up left-handed")),
}
JSONL_FAULTS = {
    "time-null": edit_record(lambda r: r.update(time=None)),
    "rot-not-a-number": edit_record(lambda r: r["bodies"]["ball"].update(rot="a")),
    # JSON strings and booleans that float() would take
    "rot-a-numeric-string": edit_record(lambda r: r["bodies"]["ball"].update(rot="1.5")),
    "pos-holding-true": edit_record(lambda r: r["bodies"]["wall"]["pos"].__setitem__(0, True)),
    "time-a-padded-string": edit_record(lambda r: r.update(time=" 0.03 ")),
    "pos-nan": edit_record(lambda r: r["bodies"]["ball"]["pos"].__setitem__(1, float("nan"))),
    "time-infinite": edit_record(lambda r: r.update(time=float("inf"))),
    "no-index": edit_record(lambda r: r.pop("index")),
    "no-bodies": edit_record(lambda r: r.pop("bodies")),
    "no-time": edit_record(lambda r: r.pop("time")),
    "no-pos": edit_record(lambda r: r["bodies"]["wall"].pop("pos")),
    "no-rot": edit_record(lambda r: r["bodies"]["ball"].pop("rot")),
    "no-body": edit_record(lambda r: r["bodies"].pop("wall")),
    "bodies-a-list-in-a-record": edit_record(lambda r: r.update(bodies=[1, 2])),
    "pos-not-a-list": edit_record(lambda r: r["bodies"]["ball"].update(pos="0,0,0")),
    "pos-two-elements": edit_record(lambda r: r["bodies"]["ball"]["pos"].pop()),
    # three items that float() takes, but not a list
    "pos-a-3-digit-string": edit_record(lambda r: r["bodies"]["ball"].update(pos="000")),
    "pos-an-object-of-3-digit-keys": edit_record(
        lambda r: r["bodies"]["ball"].update(pos={"1": 0, "2": 0, "3": 0})),
    "body-a-list": edit_record(lambda r: r["bodies"].update(wall=[0, 0, 0])),
    "wrong-index": edit_record(lambda r: r.update(index=7)),
    "no-action": edit_record(lambda r: r.pop("action")),
    "record-a-list": record_a_list,
    "extra-record-key": edit_record(lambda r: r.update(zzz=1)),
    "extra-body-id": edit_record(lambda r: r["bodies"].update(ghost={"pos": [0, 0, 0], "rot": 0})),
    "extra-pose-key": edit_record(lambda r: r["bodies"]["ball"].update(colour="red")),
    "index-a-float": edit_record(lambda r: r.update(index=2.0)),
    "index-a-string": edit_record(lambda r: r.update(index="2")),
}
CSV_FAULTS = {
    "wrong-cell-count": edit_row(lambda c: c.append("")),
    "bad-index": edit_row(lambda c: c.__setitem__(0, "two")),
    "wrong-index": edit_row(lambda c: c.__setitem__(0, "7")),
    "rot-not-a-number": edit_row(lambda c: c.__setitem__(9, "a")),
    "pos-nan": edit_row(lambda c: c.__setitem__(7, "nan")),
    "time-infinite": edit_row(lambda c: c.__setitem__(1, "inf")),
    "floor-not-a-number": edit_row(lambda c: c.__setitem__(2, "")),
    "no-action": edit_row(lambda c: c.__setitem__(-3, "")),
    "header-not-json": lambda lines, fmt: lines.__setitem__(0, lines[0].replace(":", "", 1)),
    "extra-column": lambda lines, fmt: lines.__setitem__(slice(1, None), [l + ",x" for l in lines[1:]]),
    # the column line alone changed: names the reader once mapped to their cells
    "body-columns-swapped": edit_columns(lambda n: n.__setitem__(slice(6, 14), n[10:14] + n[6:10])),
    "axes-swapped": edit_columns(lambda n: n.__setitem__(slice(6, 8), n[7:5:-1])),
    "no-action-column": edit_columns(lambda n: n.remove("action")),
    "no-goal-column": edit_columns(lambda n: n.remove("goal_contact")),
    "index-renamed": edit_columns(lambda n: n.__setitem__(0, "idx")),
}
# the one refusal of every column line but the writer's, for the roll to the wall
COLUMN_LINE_MESSAGE = (
    "csv trace must have the column line 'index,time,floor_x,floor_y,floor_z,floor_rot,"
    "ball_x,ball_y,ball_z,ball_rot,wall_x,wall_y,wall_z,wall_rot,action,floor_contact,goal_contact'"
)
FAULTS = [
    *((fmt, name, damage) for name, damage in HEADER_FAULTS.items() for fmt in ("jsonl", "csv")),
    *(("jsonl", name, damage) for name, damage in JSONL_FAULTS.items()),
    *(("csv", name, damage) for name, damage in CSV_FAULTS.items()),
]


@pytest.mark.parametrize("name", ["body-columns-swapped", "axes-swapped", "no-action-column",
                                  "no-goal-column", "index-renamed"])
def test_a_column_line_other_than_the_writers_is_refused(tmp_path, lex, name):
    with pytest.raises(TraceFormatError) as got:
        read_trace(written_trace(tmp_path / "t.csv", lex, CSV_FAULTS[name]))
    assert str(got.value) == COLUMN_LINE_MESSAGE


@pytest.mark.parametrize("fmt,damage", [(fmt, damage) for fmt, _, damage in FAULTS],
                         ids=[f"{fmt}-{name}" for fmt, name, _ in FAULTS])
def test_single_fault_messages_equal_the_reference_readers(tmp_path, lex, fmt, damage):
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as want:
        reference_read(path)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("name,field", [
    ("extra-header-key", "zzz"), ("extra-body-key", "bodies.ball.colour"),
    ("extra-bindings-key", "bindings.zzz"),
])
def test_an_unknown_header_key_is_refused_as_the_lexicon_and_config_refuse_one(
    tmp_path, lex, fmt, name, field
):
    path = written_trace(tmp_path / f"t.{fmt}", lex, HEADER_FAULTS[name])
    with pytest.raises(DocumentFormatError) as got:
        read_trace(path)
    assert type(got.value) is TraceFormatError and got.value.field == field
    assert str(got.value) == f"unknown field (field {field})"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_header_coords_must_be_the_convention(tmp_path, lex, fmt):
    path = written_trace(tmp_path / f"t.{fmt}", lex, HEADER_FAULTS["coords-another"])
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == (
        'coords must be "y-up right-handed, goal along +x", got "z-up left-handed"'
    )
    bare = read_trace(written_trace(tmp_path / f"bare.{fmt}", lex, edit_header(lambda h: h.pop("coords"))))
    assert bare.trace == read_trace(written_trace(tmp_path / f"plain.{fmt}", lex)).trace


RECORD_MESSAGES = [
    ("jsonl", "extra-record-key", "unknown field (field record 2.zzz)"),
    ("jsonl", "extra-body-id", "unknown field (field record 2.bodies.ghost)"),
    ("jsonl", "extra-pose-key", "unknown field (field record 2.bodies.ball.colour)"),
    ("jsonl", "index-a-float", "expected an integer (field record 2.index)"),
    ("jsonl", "index-a-string", "expected an integer (field record 2.index)"),
    ("jsonl", "record-a-list", "expected an object (field record 2)"),
    ("jsonl", "no-time", "missing field (field record 2.time)"),
    ("jsonl", "no-body", "missing field (field record 2.bodies.wall)"),
    ("jsonl", "body-a-list", "expected an object (field record 2.bodies.wall)"),
    ("jsonl", "pos-two-elements", "expected a list of 3 finite numbers (field record 2.bodies.ball.pos)"),
    ("jsonl", "pos-an-object-of-3-digit-keys",
     "expected a list of finite numbers (field record 2.bodies.ball.pos)"),
    ("jsonl", "time-infinite", "expected a finite number (field record 2.time)"),
    ("csv", "extra-column", COLUMN_LINE_MESSAGE),
]


@pytest.mark.parametrize("fmt,name,message", RECORD_MESSAGES,
                         ids=[f"{fmt}-{name}" for fmt, name, _ in RECORD_MESSAGES])
def test_a_record_is_walked_as_the_header_is(tmp_path, lex, fmt, name, message):
    # a key the record format does not name is refused, as the header refuses one
    damage = (JSONL_FAULTS if fmt == "jsonl" else CSV_FAULTS)[name]
    with pytest.raises(TraceFormatError) as got:
        read_trace(written_trace(tmp_path / f"t.{fmt}", lex, damage))
    assert str(got.value) == message


@pytest.mark.parametrize("fmt,damage,message", [
    ("jsonl", JSONL_FAULTS["rot-a-numeric-string"],
     "expected a finite number (field record 2.bodies.ball.rot)"),
    ("jsonl", JSONL_FAULTS["pos-holding-true"],
     "expected a list of finite numbers (field record 2.bodies.wall.pos)"),
    ("jsonl", JSONL_FAULTS["time-a-padded-string"],
     "expected a finite number (field record 2.time)"),
    *((fmt, edit_header(lambda h: h["bodies"]["ball"].update(dimensions=["0.5"])),
       "expected a list of finite numbers (field bodies.ball.dimensions)") for fmt in ("jsonl", "csv")),
    *((fmt, edit_header(lambda h: h.update(direction=[1, False, 0])),
       "expected a list of finite numbers (field direction)") for fmt in ("jsonl", "csv")),
], ids=["rot-a-numeric-string", "pos-holding-true", "time-a-padded-string",
        "jsonl-dimensions-a-numeric-string", "csv-dimensions-a-numeric-string",
        "jsonl-direction-holding-false", "csv-direction-holding-false"])
def test_a_json_string_or_boolean_is_not_a_number(tmp_path, lex, fmt, damage, message):
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == message


JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=3), st.just(10**400),
    st.floats(min_value=-10.0, max_value=10.0), st.sampled_from([math.inf, -math.inf, math.nan]),
    st.sampled_from(["", "1", "roll", "pos"]),
)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["pos", "rot", "x"]), inner),
    max_leaves=6,
)


def mutated(draw, record: dict, ids) -> str:
    """``record``, a jsonl record of bodies ``ids``, with 1-3 keys set to any JSON value
    or dropped, as a line."""
    places = {  # where a mutation lands, and the keys it may set or drop there
        "record": ["index", "time", "bodies", "action", "floor_contact", "goal_contact", "zzz"],
        "bodies": [*ids, "ghost"],
        "body": ["pos", "rot", "colour"],
        "pos": [0, 1, 2],
    }
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        place = draw(st.sampled_from(sorted(places)))
        bid = draw(st.sampled_from(ids))
        target = {"record": record, "bodies": record.get("bodies")}.get(place)
        if place in ("body", "pos"):
            target = record.get("bodies", {}).get(bid) if isinstance(record.get("bodies"), dict) else None
            if place == "pos":
                target = target.get("pos") if isinstance(target, dict) else None
        key = draw(st.sampled_from(places[place]))
        if isinstance(target, dict) or (isinstance(target, list) and key < len(target)):
            if draw(st.booleans()):
                target[key] = draw(JSON_VALUE)
            elif isinstance(target, dict):
                target.pop(key, None)
            else:
                del target[key]
    return json.dumps(record)


def read_by_parsing_every_record(path):
    """``read_trace`` with no record taken without parsing it: every row is parsed."""
    with mock.patch.object(tracefile, "_fast_path", lambda *args: lambda i, ticked, action: False):
        return read_trace(path)


CHANGES = (None, *TAMPERS, "respelled", "mutated", "broken", "theme respelled", "theme ulp",
           "static respelled")


def spellings(cell: str) -> list[str]:
    """Other spellings of the number ``cell`` that read to the same float: in exponent
    form, padded, and with a trailing zero after a decimal point."""
    out = [format(Decimal(cell), "e"), " " + cell]
    if "." in cell and "e" not in cell:
        out.append(cell + "0")
    return out


def with_pose_texts(line: str, fmt: str, ids, bid: str, edit) -> str:
    """``line``, a record of bodies ``ids``, with the texts of body ``bid``'s x, y, z and
    rot replaced by ``edit`` of them."""
    if fmt == "csv":
        cells = line.split(",")
        at = 2 + 4 * ids.index(bid)
        cells[at:at + 4] = edit(cells[at:at + 4])
        return ",".join(cells)

    def replaced(m):
        x, y, z, rot = edit([*m[1].split(","), m[2]])
        return f'{json.dumps(bid)}:{{"pos":[{x},{y},{z}],"rot":{rot}}}'

    return re.sub(re.escape(json.dumps(bid)) + r':\{"pos":\[([^\]]*)\],"rot":([^}]*)\}', replaced, line)


@seed(20161006)
@settings(max_examples=150, deadline=None)
@given(
    sentence=st.sampled_from(["the ball rolled to the wall", "the ball bounced", "the bird flew",
                              "the ball left", "the ball slid to the wall", "the ball rolled"]),
    run_seed=st.integers(min_value=0, max_value=2**31),
    fmt=st.sampled_from(["jsonl", "csv"]),
    change=st.sampled_from(CHANGES),
    data=st.data(),
)
def test_a_record_read_as_the_writers_text_reads_as_it_parses(
    tmp_path_factory, lex, sentence, run_seed, fmt, change, data
):
    # an engine trace, or one with one record after the first changed, reads to the
    # same document, or is refused with the same message, when every record is parsed
    cfg = SceneConfig(seed=run_seed, ground_distance=1.5)
    frame, scene, trace = make_run(lex, cfg, sentence)
    k = data.draw(st.integers(min_value=1, max_value=len(trace.labels)))
    if change in TAMPERS:
        trace = tampered(trace, scene.theme_id, change, k)
    path = tmp_path_factory.mktemp("text") / f"t.{fmt}"
    write_trace(path, fmt, sentence, trace, scene, cfg)
    lines = path.read_text().splitlines()
    row = k + 1 if fmt == "jsonl" else k + 2
    ids = list(trace.states[0].bodies)
    if change == "respelled" and fmt == "jsonl":
        lines[row] = data.draw(st.sampled_from([
            lines[row].replace(":", ": "), lines[row].replace(",", ", "), " " + lines[row],
            json.dumps(dict(reversed(json.loads(lines[row]).items())), separators=(",", ":")),
        ]))
    elif change == "respelled":
        cells = lines[row].split(",")
        for c in range(2, 2 + 4 * len(ids)):
            cells[c] = _respell(cells[c], lambda options: data.draw(st.sampled_from(options)))
        lines[row] = ",".join(cells)
    elif change == "mutated" and fmt == "jsonl":
        lines[row] = mutated(data.draw, json.loads(lines[row]), ids)
    elif change == "mutated":
        cells = lines[row].split(",")
        cells[data.draw(st.integers(min_value=0, max_value=len(cells) - 1))] = data.draw(
            st.sampled_from(["", "x", "1", "0.0", "-0", "nan", "1e999", "roll", "slide", "EC", "PO"]))
        lines[row] = ",".join(cells)
    elif change == "broken":
        lines[row] = lines[row].replace(",", "", 1)
    elif change in ("theme respelled", "theme ulp", "static respelled"):
        # one cell of one body: the theme's read as the tick's float, or one ulp off it;
        # a static body's spelt otherwise on this row only, so the next row's differs too
        statics = [b for b in ids if b != scene.theme_id]
        bid = data.draw(st.sampled_from(statics)) if change == "static respelled" else scene.theme_id
        c = 0 if change == "theme ulp" else data.draw(st.integers(min_value=0, max_value=3))

        def edit(texts):
            if change == "theme ulp":
                toward = data.draw(st.sampled_from([-math.inf, math.inf]))
                texts[c] = fmt_float(math.nextafter(float(texts[c]), toward))
            else:
                texts[c] = data.draw(st.sampled_from(spellings(texts[c])))
            return texts

        lines[row] = with_pose_texts(lines[row], fmt, ids, bid, edit)
    path.write_text("\n".join(lines) + "\n")
    want = read_or_refusal(read_by_parsing_every_record, path)
    got = read_or_refusal(read_trace, path)
    event("refused" if isinstance(want, str) else "read")
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_read(got.trace, want.trace)
        assert (got.header, got.scene, got.cfg) == (want.header, want.scene, want.cfg)


NOT_A_BODY = "must be null or the id of a header body, got"
ACTIONS = "(one of bounce, fly, move, roll, slide)"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("damage,message", [
    (edit_header(lambda h: h["bindings"].update(ground="ghost")), f'bindings.ground {NOT_A_BODY} "ghost"'),
    (edit_header(lambda h: h["bindings"].update(ground=5)), "expected a string (field bindings.ground)"),
    (edit_header(lambda h: h["bindings"].update(ground=["wall"])), "expected a string (field bindings.ground)"),
    (edit_header(lambda h: h.update(goal=5)), "expected a string (field goal)"),
    (edit_header(lambda h: h.update(goal="Wall")), f'goal {NOT_A_BODY} "Wall"'),
    (edit_header(lambda h: h.update(direction=[0, 0, 0])),
     "direction must be a horizontal unit vector, got [0, 0, 0]"),
    (edit_header(lambda h: h.update(direction=[1e308, 0, 0])),
     "direction must be a horizontal unit vector, got [1e+308, 0, 0]"),
    (edit_header(lambda h: h.update(direction=[1, 2e-9, 0])),
     "direction must be a horizontal unit vector, got [1, 2e-09, 0]"),
    (edit_header(lambda h: h.update(direction=[0, 1, 0])),
     "direction must be a horizontal unit vector, got [0, 1, 0]"),
    (edit_header(lambda h: h.update(direction=[2, 0, 0])),
     "direction must be a horizontal unit vector, got [2, 0, 0]"),
], ids=["ground-ghost", "ground-a-number", "ground-a-list", "goal-a-number", "goal-ghost",
        "direction-zero", "direction-1e308", "direction-tilted", "direction-up", "direction-length-2"])
def test_header_bindings_and_direction_are_checked(tmp_path, lex, fmt, damage, message):
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == message


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("edit", [
    lambda h: h["bindings"].update(ground=None),
    lambda h: h.update(goal=None),
    lambda h: h["bindings"].update(ground="floor"),
    lambda h: h["bindings"].update(ground="ball"),
    lambda h: h.update(direction=[0.6, 0, -0.8]),
    lambda h: h.update(direction=[1 + 5e-10, 1e-9, 0]),
], ids=["ground-null", "goal-null", "ground-the-floor", "ground-the-theme", "direction-off-axis",
        "direction-within-1e-9"])
def test_header_bindings_and_direction_within_the_rules_are_read(tmp_path, lex, fmt, edit):
    # the ball is run along the edited heading, so the file stays a tick chain
    header, heading = {}, {"direction": [1.0, 0.0, 0.0], "bindings": {}}
    edit(heading)
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(lambda h: (edit(h), header.update(h))),
                         heading=tuple(heading["direction"]))
    doc = read_trace(path)
    assert (doc.scene.ground_id, doc.scene.goal_id) == (header["bindings"]["ground"], header["goal"])
    assert doc.scene.initial.body("ball").heading == tuple(header["direction"])


@pytest.mark.parametrize("fmt,damage,shown", [
    ("jsonl", edit_record(lambda r: r.update(action=5)), "5"),
    ("jsonl", edit_record(lambda r: r.update(action="hop")), '"hop"'),
    ("jsonl", edit_record(lambda r: r.update(action=["roll"])), '["roll"]'),
    ("jsonl", edit_record(lambda r: r.update(action="Roll")), '"Roll"'),
    ("csv", edit_row(lambda c: c.__setitem__(-3, "hop")), '"hop"'),
    ("csv", edit_row(lambda c: c.__setitem__(-3, " roll")), '" roll"'),
], ids=["jsonl-a-number", "jsonl-hop", "jsonl-a-list", "jsonl-capitalised", "csv-hop",
        "csv-padded"])
def test_a_record_action_must_be_a_tick_action(tmp_path, lex, fmt, damage, shown):
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == f"record 2 has an unknown action {shown} {ACTIONS}"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("bid,value", [("wall", "no"), ("floor", []), ("ball", 1), ("ball", None)],
                         ids=["string", "list", "number", "null"])
def test_mobile_must_be_a_json_boolean(tmp_path, lex, fmt, bid, value):
    damage = edit_header(lambda h: h["bodies"][bid].update(mobile=value))
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == f"expected a boolean (field bodies.{bid}.mobile)"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("bid,mobile,message", [
    ("floor", True, "body 'floor': a plane is immobile"),
    ("ball", False, "the theme 'ball' is immobile"),
], ids=["mobile-floor", "immobile-theme"])
def test_a_mobile_plane_or_an_immobile_theme_is_refused(tmp_path, lex, fmt, bid, mobile, message):
    damage = edit_header(lambda h: h["bodies"][bid].update(mobile=mobile))
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == message


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("axis,value", [
    (0, 1e308), (0, math.nextafter(-1e30, -math.inf)), (3, -1e308), (0, 1e30), (3, -1e30),
], ids=["x-1e308", "x-just-past", "rot-minus-1e308", "x-at-the-limit", "rot-at-the-limit"])
def test_a_pose_value_past_the_coordinate_limit_is_refused(tmp_path, lex, fmt, axis, value):
    # record 0 is read as written; every later pose is a tick's, which the limit bounds
    path = tmp_path / f"t.{fmt}"
    if abs(value) <= tracefile.MAX_COORDINATE:  # a run from there reads
        pose = [0.0, 0.5, 0.0, 0.0]
        pose[axis] = value
        ball = read_trace(written_trace(path, lex, position=tuple(pose[:3]), rotation=pose[3]))
        ball = ball.trace.states[0].body("ball")
        assert (*ball.position, ball.rotation)[axis] == value
        return

    def damage(cells_or_record):
        if fmt == "csv":
            cells_or_record[6 + axis] = repr(value)
        elif axis == 3:
            cells_or_record["bodies"]["ball"]["rot"] = value
        else:
            cells_or_record["bodies"]["ball"]["pos"][axis] = value

    with pytest.raises(TraceFormatError) as got:
        read_trace(written_trace(path, lex, edit_first_state(damage)))
    assert str(got.value) == "pos and rot in record 0 body ball must lie within [-1e+30, 1e+30]"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("bid,dims", [
    ("ball", [0]), ("ball", [1e308]), ("wall", [4.0, 2.0, -0.2]),
], ids=["radius-zero", "radius-1e308", "depth-negative"])
def test_header_dimensions_lie_within_the_lexicon_range(tmp_path, lex, fmt, bid, dims):
    damage = edit_header(lambda h: h["bodies"][bid].update(dimensions=dims))
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == f"dimensions of {bid!r} must lie within [0.001, 1000] m"


@pytest.mark.parametrize("fmt,line,message", [
    ("jsonl", 3, "number with too many digits in trace file (line 4)"),
    ("csv", 0, "number with too many digits in trace file (line 1)"),
])
def test_an_integer_past_the_digit_limit_is_a_format_error(tmp_path, lex, fmt, line, message):
    def damage(lines, fmt):
        lines[line] = ("# " if fmt == "csv" else "") + '{"index": 1%s}' % ("0" * 5000)

    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == message


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("as_written", [float, lambda n: True, str], ids=["float", "bool", "string"])
def test_header_frames_must_be_a_json_integer(tmp_path, lex, fmt, as_written):
    path = written_trace(tmp_path / f"t.{fmt}", lex,
                         edit_header(lambda h: h.update(frames=as_written(h["frames"]))))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == "expected an integer (field frames)"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("value", [5, None, ["the ball rolled to the wall"]],
                         ids=["number", "null", "list"])
def test_header_sentence_must_be_a_string(tmp_path, lex, fmt, value):
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(lambda h: h.update(sentence=value)))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == "expected a string (field sentence)"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("value", ["x", "42", True, 42.0, 43, None],
                         ids=["string", "numeric-string", "bool", "float", "another", "null"])
def test_header_seed_must_be_the_cfg_snapshots_integer(tmp_path, lex, fmt, value):
    # the written trace ran at seed 42
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(lambda h: h.update(seed=value)))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    # the walk refuses a value that is not a JSON integer; null is a present copy that disagrees
    assert str(got.value) == (
        f"header seed must equal the cfg snapshot's 42, got {json.dumps(value)}"
        if value in (43, None) else "expected an integer (field seed)"
    )


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("value", [5, 1 / 30, "0.016666666666666666", False, None],
                         ids=["five", "another", "string", "bool", "null"])
def test_header_dt_must_equal_the_cfg_snapshots(tmp_path, lex, fmt, value):
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(lambda h: h.update(dt=value)))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == (
        "expected a number (field dt)" if isinstance(value, (str, bool))
        else f"header dt must equal the cfg snapshot's 0.016666666666666666, got {json.dumps(value)}"
    )


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_header_seed_and_dt_may_be_absent(tmp_path, lex, fmt):
    plain = read_trace(written_trace(tmp_path / f"plain.{fmt}", lex))
    bare = read_trace(written_trace(tmp_path / f"bare.{fmt}", lex,
                                    edit_header(lambda h: (h.pop("seed"), h.pop("dt")))))
    assert bare.trace == plain.trace and bare.cfg == plain.cfg


def edit_first_state(edit):
    """``edit`` applied to record 0: its jsonl object, or its csv cells."""
    def damage(lines, fmt):
        if fmt == "csv":
            cells = lines[2].split(",")
            edit(cells)
            lines[2] = ",".join(cells)
        else:
            record = json.loads(lines[1])
            edit(record)
            lines[1] = json.dumps(record)
    return damage


@pytest.mark.parametrize("fmt,edit,shown", [
    ("jsonl", lambda r: r.update(action=[1, 2]), "[1, 2]"),
    ("jsonl", lambda r: r.update(action="roll"), '"roll"'),
    ("jsonl", lambda r: r.update(action=""), '""'),
    ("jsonl", lambda r: r.update(action=False), "false"),
    ("csv", lambda c: c.__setitem__(-3, "roll"), '"roll"'),
    ("csv", lambda c: c.__setitem__(-3, " "), '" "'),
], ids=["jsonl-a-list", "jsonl-roll", "jsonl-empty-string", "jsonl-false", "csv-roll", "csv-a-space"])
def test_record_0_carries_no_action(tmp_path, lex, fmt, edit, shown):
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_first_state(edit))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == (
        f"record 0 has an action {shown}; the first state has no incoming tick"
    )


@pytest.mark.parametrize("fmt,edit", [
    ("jsonl", lambda r: r.update(time=5)),
    ("csv", lambda c: c.__setitem__(1, "5")),
])
def test_record_0_holds_its_ticks_time(tmp_path, lex, fmt, edit):
    # the first state is tick 0, at 0 x dt, as every later record holds its tick's time
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_first_state(edit))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == "record 0 has time 5, not its tick's 0"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_plus_x_heading_is_read_as_the_engines_heading(tmp_path, lex, fmt):
    # a tick takes PLUS_X as it is; a -0.0 component is another heading's bits
    doc = read_trace(written_trace(tmp_path / f"t.{fmt}", lex))
    assert doc.scene.initial.body("ball").heading is PLUS_X
    assert all(state.body("ball").heading is PLUS_X for state in doc.trace.states)
    path = written_trace(tmp_path / f"z.{fmt}", lex,
                         edit_header(lambda h: h.update(direction=[1.0, 0.0, -0.0])))
    direction = read_trace(path).scene.initial.body("ball").heading
    assert direction == PLUS_X and direction is not PLUS_X and math.copysign(1.0, direction[2]) == -1.0


def test_record_0_may_write_its_missing_action_as_null(tmp_path, lex):
    plain = read_trace(written_trace(tmp_path / "plain.jsonl", lex))
    null = read_trace(written_trace(tmp_path / "null.jsonl", lex,
                                    edit_first_state(lambda r: r.update(action=None))))
    assert null.trace == plain.trace


def test_reading_pauses_the_collector_and_leaves_it_as_it_found_it(
    tmp_path, lex, monkeypatch, collector
):
    good = written_trace(tmp_path / "t.jsonl", lex)
    bad = written_trace(tmp_path / "bad.jsonl", lex, broken_json)
    seen = []
    parse_header = tracefile._parse_header

    def spied_parse_header(header):
        seen.append(gc.isenabled())
        return parse_header(header)

    monkeypatch.setattr(tracefile, "_parse_header", spied_parse_header)
    read_trace(good)
    assert gc.isenabled() is collector
    with pytest.raises(TraceFormatError, match="invalid JSON"):
        read_trace(bad)
    assert gc.isenabled() is collector
    # the broken record's line is parsed after the header is checked
    assert seen == [False, False]

    def interrupted(header):
        raise KeyboardInterrupt

    monkeypatch.setattr(tracefile, "_parse_header", interrupted)
    with pytest.raises(KeyboardInterrupt):
        read_trace(good)
    assert gc.isenabled() is collector


def test_reading_makes_no_reference_cycles(tmp_path, lex, cycles_left_by):
    good = written_trace(tmp_path / "t.jsonl", lex)
    bad = written_trace(tmp_path / "bad.jsonl", lex, broken_json)
    assert cycles_left_by(lambda: read_trace(good)) == 0
    assert cycles_left_by(lambda: read_trace(bad), TraceFormatError) == 0


# -- what one read state costs, as counts ----------------------------------------------


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_reading_a_state_measures_the_themes_pairs_and_builds_one_body(
    tmp_path, monkeypatch, lex, fmt
):
    cfg = SceneConfig(seed=0, ground_distance=50.0)
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / f"t.{fmt}"
    write_trace(path, fmt, "the ball rolled to the wall", trace, scene, cfg)
    gaps, ticks = [], []
    gap, tick = kinematics._gap, kinematics.tick

    def counted_gap(*args):
        gaps.append(None)
        return gap(*args)

    def counted_tick(*args):
        ticks.append(None)
        return tick(*args)

    monkeypatch.setattr(kinematics, "_gap", counted_gap)
    monkeypatch.setattr(kinematics, "tick", counted_tick)
    parsed, json_line, numbers = [], tracefile._json_line, tracefile._numbers

    def counted_json_line(line, n, start=0):
        parsed.append(n)
        return json_line(line, n, start)

    def counted_numbers(values, where):
        parsed.append(where)
        return numbers(values, where)

    monkeypatch.setattr(tracefile, "_json_line", counted_json_line)
    monkeypatch.setattr(tracefile, "_numbers", counted_numbers)
    states = read_trace(path).trace.states
    assert len(states) > 2900 and list(states[0].bodies) == ["floor", "ball", "wall"]
    # one tick per state after the first: the reader has no other path to a state
    assert len(ticks) == len(states) - 1
    # the header and records 0 and 1 are parsed; every later record is taken as the
    # tick by the action before it: the writer's text (jsonl), or its numbers (csv)
    rows = [f"csv row {i}{part}" for i in (0, 1) for part in ("", "", "", " time")]
    assert parsed == ([1, 2, 3] if fmt == "jsonl" else [1, *rows])
    # the ball-wall pair per state, one call; the ball-floor gap is the ball's height
    # over its rest height, with no call; the first state measures every pair
    assert len(gaps) <= len(states) + 10
    # the moved ball per state and the first state's floor and wall, shared by every
    # state: no body is built for a contact's sake
    assert all(s.bodies["floor"] is states[0].bodies["floor"]
               and s.bodies["wall"] is states[0].bodies["wall"] for s in states)
    assert len({id(body) for s in states for body in s.bodies.values()}) == len(states) + 2
    # a state with no relation change shares the previous state's map: nothing is copied
    shared = sum(after.contacts is before.contacts for before, after in zip(states, states[1:]))
    assert shared >= len(states) - 10
