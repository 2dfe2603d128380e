import gc
import json
import math
import random
import struct
from operator import itemgetter

import pytest
from hypothesis import given, seed, settings, strategies as st

from mosim import SceneConfig, build_scene, compile_event, execute, parse_text, read_trace, write_trace
from mosim import kinematics, tracefile
from mosim.errors import TraceFormatError, UnsupportedShapePair
from mosim.kinematics import PLUS_X, ZERO3, Body, WorldState, contact_relation, refresh_contacts
from mosim.lexicon import FLOOR_ID, TICK_ACTIONS, Shape, load_lexicon
from mosim.programs import Trace
from mosim.record import replace
from mosim.rng import stream_for
from mosim.scene import Scene
from mosim.tracefile import _header_dict, _parse_header, _vec, fmt_float


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
    states = [refresh_contacts(WorldState(draw(NUMBER), 0, bodies, cfg))]
    labels = []
    for k in range(draw(st.integers(min_value=0, max_value=4))):
        world = states[-1]
        mover = draw(st.sampled_from([None, *world.bodies]))
        if mover is not None:
            moved = replace(world.bodies[mover], position=draw(POINT), rotation=draw(NUMBER))
            world = world.with_body(moved)
        states.append(refresh_contacts(WorldState(draw(NUMBER), k + 1, world.bodies, cfg)))
        labels.append(draw(st.sampled_from(actions)))
    ground_id = draw(st.sampled_from([None, FLOOR_ID, *others]))
    scene = Scene(initial=states[0], theme_id=theme_id, ground_id=ground_id,
                  goal_id=ground_id, direction=(1.0, 0.0, 0.0))
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


# -- the reader against the reader that parsed and remeasured every body --------------
#
# ``reference_read`` is the reader as it was before a state cost only its moved
# bodies: every record parsed through ``_need``/``_numbers``, every csv cell
# converted on every row, and every flag map rebuilt.  The header checks are
# shared; they did not change.


def _ref_need(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise TraceFormatError(f"missing {key!r} in {where}")
    return obj[key]


def _ref_numbers(values, where):
    try:
        xs = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        xs = (math.nan,)
    if not all(map(math.isfinite, xs)):
        raise TraceFormatError(f"{where} must hold finite numbers, got {values!r:.60}")
    return xs


def _ref_json_numbers(values, where):
    # a JSON string or boolean is not a number, even where float() takes it
    xs = _ref_numbers(values, where)
    for value in values:
        if type(value) in (str, bool):
            raise TraceFormatError(f"{where}: {json.dumps(value):.40} is not a number")
    return xs


def _ref_with_contacts(bodies, eps, moved):
    items = list(bodies.items())
    flags = {key: {} for key, _ in items}
    for i, (a_id, a) in enumerate(items):
        a_flags, a_moved = flags[a_id], a_id in moved
        for b_id, b in items[i + 1:]:
            rel = None if a_moved or b_id in moved else a.contacts.get(b_id)
            if rel is None:
                try:
                    rel = contact_relation(a, b, eps)
                except UnsupportedShapePair:
                    continue
            a_flags[b_id] = rel
            flags[b_id][a_id] = rel
    return {
        key: b if b.contacts == flags[key] else replace(b, contacts=flags[key])
        for key, b in items
    }


def _ref_rebuild(header, cfg, catalog, rows, record):
    if len(rows) != header["frames"]:
        raise TraceFormatError(
            f"record count {len(rows)} does not match header frames {header['frames']}"
        )
    if not rows:
        raise TraceFormatError("trace has no state records")
    bindings = header["bindings"]
    theme_id = _ref_need(bindings, "theme", "bindings")
    if not isinstance(theme_id, str):
        raise TraceFormatError("bindings.theme must be a string")
    if theme_id == FLOOR_ID:
        raise TraceFormatError("the theme cannot be the floor")
    direction = _vec(header["direction"], "direction")
    headings = {bid: direction if bid == theme_id else PLUS_X for bid in catalog}
    states, labels = [], []
    last_bits = [None] * len(catalog)
    last = {}
    for i, row in enumerate(rows):
        index, time, poses, action = record(i, row)
        if index != i:
            raise TraceFormatError(f"record {i} has index {index}")
        bits = [struct.pack("4d", *pose) for pose in poses]
        bodies, moved = {}, set()
        for (bid, (shape, dims, mobile)), pose, b, old in zip(catalog.items(), poses, bits, last_bits):
            if b == old:
                bodies[bid] = last[bid]
            else:
                contacts = last[bid].contacts if last else None
                bodies[bid] = Body(bid, shape, dims, mobile, pose[:3], headings[bid], pose[3],
                                   ZERO3, contacts)
                moved.add(bid)
        last = _ref_with_contacts(bodies, cfg.contact_eps, moved)
        last_bits = bits
        states.append(WorldState(time, i, last, cfg))
        if i > 0:
            if not action:
                raise TraceFormatError(f"record {i} is missing its action label")
            labels.append(action)
    return Trace(tuple(states), tuple(labels))


def _ref_jsonl_record(i, obj, ids):
    where = f"record {i}"
    index = _ref_need(obj, "index", where)
    entries = _ref_need(obj, "bodies", where)
    poses = []
    for bid in ids:
        entry = _ref_need(entries, bid, where)
        at = f"{where} body {bid}"
        pos, rot = _ref_need(entry, "pos", at), _ref_need(entry, "rot", at)
        if not isinstance(pos, list) or len(pos) != 3:
            raise TraceFormatError(f"pos in {at} must be a 3-element list")
        poses.append(_ref_json_numbers((*pos, rot), f"pos and rot in {at}"))
    time, = _ref_json_numbers((_ref_need(obj, "time", where),), f"time in {where}")
    return index, time, poses, obj.get("action")


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
        cfg, catalog = _parse_header(objs[0])
        ids = list(catalog)
        return _ref_rebuild(objs[0], cfg, catalog, objs[1:],
                            lambda i, obj: _ref_jsonl_record(i, obj, ids))
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise TraceFormatError("csv trace must start with a '# ' header line")
    try:
        header = json.loads(lines[0][2:])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON header: {exc.msg}") from exc
    cfg, catalog = _parse_header(header)
    names = lines[1].split(",")
    where = {name: k for k, name in enumerate(names)}

    def column(name):
        try:
            return where[name]
        except KeyError:
            raise TraceFormatError(f"csv trace has no {name!r} column") from None

    index_col, time_col, action_col = column("index"), column("time"), where.get("action")
    pose_cells = [
        itemgetter(*(column(f"{bid}_{axis}") for axis in ("x", "y", "z", "rot"))) for bid in catalog
    ]

    def record(i, line):
        cells = line.split(",")
        if len(cells) != len(names):
            raise TraceFormatError(f"row has {len(cells)} cells, expected {len(names)}")
        try:
            index = int(cells[index_col])
        except ValueError:
            raise TraceFormatError(f"bad csv row {i}: index {cells[index_col]!r:.40}") from None
        poses = [_ref_numbers(get(cells), f"csv row {i}") for get in pose_cells]
        time, = _ref_numbers((cells[time_col],), f"csv row {i} time")
        action = cells[action_col] if action_col is not None else None
        return index, time, poses, action

    return _ref_rebuild(header, cfg, catalog, lines[2:], record)


def assert_same_read(got: Trace, want: Trace):
    """Equal labels, flags (in map order) and float bits, and the same Body sharing."""
    assert got.labels == want.labels
    assert len(got.states) == len(want.states)
    for i, (g, w) in enumerate(zip(got.states, want.states)):
        assert g.time.hex() == w.time.hex() and g.tick_index == w.tick_index == i
        assert list(g.bodies) == list(w.bodies)
        for bid, wb in w.bodies.items():
            gb = g.bodies[bid]
            assert [c.hex() for c in (*gb.position, gb.rotation)] == [
                c.hex() for c in (*wb.position, wb.rotation)
            ]
            assert list(gb.contacts.items()) == list(wb.contacts.items())
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
@given(run=hand_built_runs(), fmt=st.sampled_from(["jsonl", "csv", "csv respelled"]),
       data=st.data())
def test_reader_equals_the_reference_reader_on_hand_built_traces(tmp_path_factory, run, fmt, data):
    trace, scene, cfg = run
    path = tmp_path_factory.mktemp("ref") / f"t.{fmt.split()[0]}"
    write_trace(path, fmt.split()[0], "s", trace, scene, cfg)
    if fmt == "csv respelled":
        pick = lambda options: data.draw(st.sampled_from(options))
        path.write_text(respelled_csv(path.read_text(), pick, len(trace.states[0].bodies)))
    assert_same_read(read_trace(path).trace, reference_read(path))


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


def written_trace(path, lex, damage=None):
    """The seed-42 roll to the wall, written to ``path`` in the format its suffix names.

    ``damage(lines, fmt)``, if given, edits the file's lines in place.
    """
    fmt = path.suffix[1:]
    cfg = SceneConfig(seed=42)
    frame, scene, trace = make_run(lex, cfg)
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
    "second-plane": edit_header(
        lambda h: h["bodies"]["wall"].update(shape="plane", dimensions=[])),
    "mobile-a-string": edit_header(lambda h: h["bodies"]["wall"].update(mobile="no")),
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
}
FAULTS = [
    *((fmt, name, damage) for name, damage in HEADER_FAULTS.items() for fmt in ("jsonl", "csv")),
    *(("jsonl", name, damage) for name, damage in JSONL_FAULTS.items()),
    *(("csv", name, damage) for name, damage in CSV_FAULTS.items()),
]


@pytest.mark.parametrize("fmt,damage", [(fmt, damage) for fmt, _, damage in FAULTS],
                         ids=[f"{fmt}-{name}" for fmt, name, _ in FAULTS])
def test_single_fault_messages_equal_the_reference_readers(tmp_path, lex, fmt, damage):
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as want:
        reference_read(path)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fmt,damage,message", [
    ("jsonl", JSONL_FAULTS["rot-a-numeric-string"],
     'pos and rot in record 2 body ball: "1.5" is not a number'),
    ("jsonl", JSONL_FAULTS["pos-holding-true"],
     "pos and rot in record 2 body wall: true is not a number"),
    ("jsonl", JSONL_FAULTS["time-a-padded-string"],
     'time in record 2: " 0.03 " is not a number'),
    *((fmt, edit_header(lambda h: h["bodies"]["ball"].update(dimensions=["0.5"])),
       'dimensions of \'ball\': "0.5" is not a number') for fmt in ("jsonl", "csv")),
    *((fmt, edit_header(lambda h: h.update(direction=[1, False, 0])),
       "direction: false is not a number") for fmt in ("jsonl", "csv")),
], ids=["rot-a-numeric-string", "pos-holding-true", "time-a-padded-string",
        "jsonl-dimensions-a-numeric-string", "csv-dimensions-a-numeric-string",
        "jsonl-direction-holding-false", "csv-direction-holding-false"])
def test_a_json_string_or_boolean_is_not_a_number(tmp_path, lex, fmt, damage, message):
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == message


NOT_A_BODY = "must be null or the id of a header body, got"
ACTIONS = "(one of bounce, fly, move, roll, slide)"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("damage,message", [
    (edit_header(lambda h: h["bindings"].update(ground="ghost")), f'bindings.ground {NOT_A_BODY} "ghost"'),
    (edit_header(lambda h: h["bindings"].update(ground=5)), f"bindings.ground {NOT_A_BODY} 5"),
    (edit_header(lambda h: h["bindings"].update(ground=["wall"])), f'bindings.ground {NOT_A_BODY} ["wall"]'),
    (edit_header(lambda h: h.update(goal=5)), f"goal {NOT_A_BODY} 5"),
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
    lambda h: h.update(direction=[0.6, 0, -0.8]),
    lambda h: h.update(direction=[1 + 5e-10, 1e-9, 0]),
], ids=["ground-null", "goal-null", "ground-the-floor", "direction-off-axis",
        "direction-within-1e-9"])
def test_header_bindings_and_direction_within_the_rules_are_read(tmp_path, lex, fmt, edit):
    header = {}
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(lambda h: (edit(h), header.update(h))))
    doc = read_trace(path)
    assert (doc.scene.ground_id, doc.scene.goal_id) == (header["bindings"]["ground"], header["goal"])
    assert doc.scene.direction == tuple(header["direction"])


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
@pytest.mark.parametrize("bid,value,shown", [
    ("wall", "no", '"no"'), ("floor", [], "[]"), ("ball", 1, "1"), ("ball", None, "null"),
], ids=["string", "list", "number", "null"])
def test_mobile_must_be_a_json_boolean(tmp_path, lex, fmt, bid, value, shown):
    damage = edit_header(lambda h: h["bodies"][bid].update(mobile=value))
    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == f"mobile of {bid!r} must be true or false, got {shown}"


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
    def damage(lines, fmt):
        if fmt == "csv":
            edit_row(lambda c: c.__setitem__(6 + axis, repr(value)))(lines, fmt)
        elif axis == 3:
            edit_record(lambda r: r["bodies"]["ball"].update(rot=value))(lines, fmt)
        else:
            edit_record(lambda r: r["bodies"]["ball"]["pos"].__setitem__(axis, value))(lines, fmt)

    path = written_trace(tmp_path / f"t.{fmt}", lex, damage)
    if abs(value) <= tracefile.MAX_COORDINATE:
        ball = read_trace(path).trace.states[2].body("ball")
        assert (*ball.position, ball.rotation)[axis] == value
        return
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == "pos and rot in record 2 body ball must lie within [-1e+30, 1e+30]"


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
    ("csv", 0, "number with too many digits in csv header"),
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
    header = {}

    def edit(h):
        h.update(frames=as_written(h["frames"]))
        header.update(h)

    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(edit))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == f"header frames must be an integer, got {json.dumps(header['frames'])}"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("value", [5, None, ["the ball rolled to the wall"]],
                         ids=["number", "null", "list"])
def test_header_sentence_must_be_a_string(tmp_path, lex, fmt, value):
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(lambda h: h.update(sentence=value)))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == f"header sentence must be a string, got {json.dumps(value)}"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("value", ["x", "42", True, 42.0, 43, None],
                         ids=["string", "numeric-string", "bool", "float", "another", "null"])
def test_header_seed_must_be_the_cfg_snapshots_integer(tmp_path, lex, fmt, value):
    # the written trace ran at seed 42
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(lambda h: h.update(seed=value)))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == (
        f"header seed must be the cfg snapshot's integer 42, got {json.dumps(value)}"
    )


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("value", [5, 1 / 30, "0.016666666666666666", False, None],
                         ids=["five", "another", "string", "bool", "null"])
def test_header_dt_must_equal_the_cfg_snapshots(tmp_path, lex, fmt, value):
    path = written_trace(tmp_path / f"t.{fmt}", lex, edit_header(lambda h: h.update(dt=value)))
    with pytest.raises(TraceFormatError) as got:
        read_trace(path)
    assert str(got.value) == (
        f"header dt must equal the cfg snapshot's 0.016666666666666666, got {json.dumps(value)}"
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
    assert seen == [False]

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
    gaps, built, uncopied = [], [], []
    gap, init, with_contacts = kinematics._gap, Body.__init__, tracefile._with_contacts

    def counted_gap(*args):
        gaps.append(None)
        return gap(*args)

    def counted_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    def counted_with_contacts(bodies, *args):
        out = with_contacts(bodies, *args)
        if out is bodies:
            uncopied.append(None)
        return out

    monkeypatch.setattr(kinematics, "_gap", counted_gap)
    monkeypatch.setattr(Body, "__init__", counted_init)
    monkeypatch.setattr(tracefile, "_with_contacts", counted_with_contacts)
    states = read_trace(path).trace.states
    assert len(states) > 2900 and list(states[0].bodies) == ["floor", "ball", "wall"]
    # the ball-floor and ball-wall pairs per state, one call each (a plane-first pair
    # too); the first state measures wall-floor too
    assert len(gaps) <= 2 * len(states) + 10
    # the moved ball per state, the first state's floor and wall once each, and the ball
    # and the wall again when the ball's contact with the wall changes
    assert len(built) == len(states) + 4
    # a state with no flag change is the dict the reader built: no flag map or body is copied
    assert len(uncopied) >= len(states) - 10
