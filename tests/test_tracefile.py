import json
import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from mosim import SceneConfig, build_scene, compile_event, execute, parse_text, read_trace, write_trace
from mosim.errors import TraceFormatError
from mosim.kinematics import Body, WorldState, refresh_contacts
from mosim.lexicon import FLOOR_ID, Shape, load_lexicon
from mosim.programs import Trace
from mosim.record import replace
from mosim.rng import stream_for
from mosim.scene import Scene
from mosim.tracefile import _header_dict, fmt_float


def make_run(lex, cfg, sentence="the ball rolled to the wall"):
    frame = parse_text(sentence, lex)
    scene = build_scene(frame, lex, cfg)
    program = compile_event(frame, lex, cfg)
    trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    return frame, scene, trace


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
    theme = state.body(theme_id)
    record: dict = {"index": index, "time": state.time}
    record["bodies"] = {
        body.id: {"pos": list(body.position), "rot": body.rotation}
        for body in state.bodies.values()
    }
    if label is not None:
        record["action"] = label
    record["floor_contact"] = theme.contacts[FLOOR_ID].value
    if ground_id is not None and ground_id != FLOOR_ID:
        record["goal_contact"] = theme.contacts[ground_id].value
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
    st.integers(min_value=-10**20, max_value=10**20),  # %.17g would shorten the large ones
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
POINT = st.tuples(NUMBER, NUMBER, NUMBER)
NAME = st.text(alphabet="abxyzéßø球_", min_size=1, max_size=4)  # never "floor"


@st.composite
def hand_built_runs(draw):
    """A theme sphere, the floor and 0-2 more bodies, any of which steps or stays.

    Coordinates, rotations and times are ints or floats; bodies that do not
    step stay the same object, as in an executed trace.
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
    states = [refresh_contacts(WorldState(draw(NUMBER), 0, bodies, cfg))]
    labels = []
    for k in range(draw(st.integers(min_value=0, max_value=4))):
        world = states[-1]
        mover = draw(st.sampled_from([None, *world.bodies]))
        if mover is not None:
            moved = replace(world.bodies[mover], position=draw(POINT), rotation=draw(NUMBER))
            world = world.with_body(moved)
        states.append(refresh_contacts(WorldState(draw(NUMBER), k + 1, world.bodies, cfg)))
        labels.append(draw(st.sampled_from(["roll", "slide", "glissé", "滚"])))
    ground_id = draw(st.sampled_from([None, FLOOR_ID, *others]))
    scene = Scene(initial=states[0], theme_id=theme_id, ground_id=ground_id,
                  goal_id=ground_id, direction=(1.0, 0.0, 0.0))
    return Trace(tuple(states), tuple(labels)), scene, cfg


@seed(20161006)
@settings(max_examples=200, deadline=None)
@given(run=hand_built_runs(), fmt=st.sampled_from(["jsonl", "csv"]))
def test_writer_matches_generic_json_walk_on_hand_built_traces(tmp_path_factory, run, fmt):
    trace, scene, cfg = run
    path = tmp_path_factory.mktemp("w") / f"t.{fmt}"
    write_trace(path, fmt, "a sentence, with «quotes»", trace, scene, cfg)
    assert path.read_bytes() == oracle_bytes(fmt, "a sentence, with «quotes»", trace, scene, cfg)


@seed(20161006)
@settings(max_examples=100, deadline=None)
@given(run=hand_built_runs(), fmt=st.sampled_from(["jsonl", "csv"]))
def test_read_back_flags_equal_a_full_refresh(tmp_path_factory, run, fmt):
    # the reader measures only the pairs of bodies whose pose changed, whichever
    # body that is; every other pair keeps its flag from the previous state
    trace, scene, cfg = run
    path = tmp_path_factory.mktemp("r") / f"t.{fmt}"
    write_trace(path, fmt, "s", trace, scene, cfg)
    for state, written in zip(read_trace(path).trace.states, trace.states):
        assert state == refresh_contacts(state)
        assert {k: b.contacts for k, b in state.bodies.items()} == {
            k: b.contacts for k, b in written.bodies.items()
        }


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


# -- the reader ------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_read_back_shares_static_bodies_and_equals_the_written_trace(tmp_path, lex, cfg, fmt):
    frame, scene, trace = make_run(lex, cfg)
    path = tmp_path / f"run.{fmt}"
    write_trace(path, fmt, "the ball rolled to the wall", trace, scene, cfg)
    doc = read_trace(path)
    got = doc.trace.states
    assert len(got) == len(trace.states) > 2
    shared = 0
    for before, after in zip(got, got[1:]):
        assert after.body("ball") is not before.body("ball")
        for bid in ("wall", "floor"):
            # a static body is the previous state's object until its contact flags change
            same_flags = after.body(bid).contacts == before.body(bid).contacts
            assert (after.body(bid) is before.body(bid)) == same_flags
            shared += same_flags
    assert shared >= 2 * (len(got) - 1) - 2
    assert doc.trace.labels == trace.labels
    for g, w in zip(got, trace.states):
        assert g.time == w.time
        assert list(g.bodies) == list(w.bodies)
        for bid, body in w.bodies.items():
            assert g.body(bid).position == body.position
            assert g.body(bid).rotation == body.rotation
            assert g.body(bid).contacts == body.contacts


# csv keeps the sign of zero; JSON reads the "-0" that %.17g writes as the integer 0
@pytest.mark.parametrize("fmt,signs", [("csv", [1.0, -1.0, 1.0]), ("jsonl", [1.0, 1.0, 1.0])])
def test_read_back_compares_poses_bit_for_bit(tmp_path, lex, cfg, fmt, signs):
    # a pose that differs from the previous state's only in the sign of a zero
    # gives a new body, not the previous one
    frame, scene, trace = make_run(lex, cfg)
    states = list(trace.states[:3])
    wall = states[0].body("wall")
    states[1] = states[1].with_body(replace(wall, rotation=-0.0))
    path = tmp_path / f"run.{fmt}"
    write_trace(path, fmt, "s", Trace(tuple(states), trace.labels[:2]), scene, cfg)
    got = read_trace(path).trace.states
    assert [math.copysign(1.0, s.body("wall").rotation) for s in got] == signs
