"""Durable trace files: one header record plus one record per state.

Two formats carry identical values: jsonl (default, one JSON object per
line) and csv (same header as a ``#``-prefixed JSON line, then one row
per state).  Floats are written with 17 significant digits so files are
byte-stable across runs and round-trip exactly.  Format version "1".
"""

from __future__ import annotations

import json
from math import copysign, hypot, isfinite, nan
from operator import is_, itemgetter
from pathlib import Path

from . import kinematics
from .config import SceneConfig, config_from_dict
from .programs import Trace, _without_collector
from .errors import (
    ANY, BOOLEAN, FINITE, INTEGER, NUMBER, NUMBERS, OBJECT, REQUIRED, STRING, ConfigFormatError,
    TraceFormatError, walk_fields,
)
from .kinematics import _DC, _EC, PLUS_X, Body, Rel, WorldState
from .lexicon import DIM_KEYS, FLOOR_ID, MAX_SIZE, MIN_SIZE, TICK_ACTIONS, Shape
from .record import record
from .scene import Scene

FORMAT_VERSION = "1"
COORD_CONVENTION = "y-up right-handed, goal along +x"
FORMATS = ("jsonl", "csv")

# The largest magnitude of a position or rotation a trace may hold.  Runs within
# the config ranges stay below 1e9 m and 1e12 rad; squared gaps overflow past 1e154.
MAX_COORDINATE = 1e30


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(value) -> str:
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
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _header_dict(sentence: str, trace: Trace, scene: Scene, cfg: SceneConfig) -> dict:
    bodies = {}
    for body in trace.states[0].bodies.values():
        bodies[body.id] = {
            "shape": body.shape.value,
            "dimensions": list(body.dimensions),
            "mobile": body.mobile,
        }
    return {
        "format_version": FORMAT_VERSION,
        "sentence": sentence,
        "seed": cfg.seed,
        "dt": cfg.dt,
        "frames": len(trace.states),
        "cfg": cfg.to_dict(),
        "bindings": {"theme": scene.theme_id, "ground": scene.ground_id},
        "goal": scene.goal_id,
        "direction": list(trace.states[0].bodies[scene.theme_id].heading),
        "bodies": bodies,
        "coords": COORD_CONVENTION,
    }


def _csv_columns(ids) -> list[str]:
    columns = ["index", "time"]
    for bid in ids:
        columns += [f"{bid}_x", f"{bid}_y", f"{bid}_z", f"{bid}_rot"]
    return columns + ["action", "floor_contact", "goal_contact"]


def _body_text(body: Body, jsonl: bool) -> str:
    """The text of one body's pose: a jsonl body's key and object, or a csv body's four cells."""
    (x, y, z), rot = body.position, body.rotation
    if jsonl:
        return f'{json.dumps(body.id)}:{{"pos":[{x:.17g},{y:.17g},{z:.17g}],"rot":{rot:.17g}}}'
    return f"{x:.17g},{y:.17g},{z:.17g},{rot:.17g}"


def _line_format(fmt: str, ids, theme_id: str, ground_id: str | None):
    """``line(i, state, label)``: the text of state ``i``, reached by ``label``, in ``fmt``.

    ``ids`` are the csv columns' bodies; jsonl writes each state's bodies in its
    own order.  The writer writes every state with it, and the jsonl reader
    compares records with it.  The text of the bodies before and after the
    theme is kept while they are the same objects in the same order (walls and
    the floor of an executed trace: a tick moves only the theme), and the rest
    of the line is one ``%`` format.  Every number of a pose or a time is
    written as the ``%.17g`` of its float, ``fmt_float`` of it, in both formats.
    """
    jsonl = fmt == "jsonl"
    # The text after the bodies: the action's, then the floor's and the goal's
    # relation, each picked by identity as EC, DC or PO (hashing a Rel runs
    # Enum.__hash__ in Python).
    rels = [rel.value for rel in (_EC, _DC, Rel.PO)]
    if jsonl:
        actions = {None: "", **{a: f',"action":{json.dumps(a)}' for a in TICK_ACTIONS}}
        floor = [f',"floor_contact":"{rel}"' for rel in rels]
        goal = [f',"goal_contact":"{rel}"' for rel in rels]
        no_goal = ""
        template = '{"index":%d,"time":%.17g,"bodies":{%s%.17g,%.17g,%.17g],"rot":%.17g}%s}%s%s%s}'
    else:
        actions = {None: ",", **{a: f",{a}" for a in TICK_ACTIONS}}
        floor = goal = [f",{rel}" for rel in rels]
        no_goal = ","
        template = "%d,%.17g,%s%.17g,%.17g,%.17g,%.17g%s%s%s%s"
        pick = itemgetter(*ids)
    floor_pair = theme_id, FLOOR_ID
    # the floor's column is the floor relation, and a theme bound as its own ground has none
    goal_pair = None if ground_id in (None, FLOOR_ID, theme_id) else (theme_id, ground_id)
    # the bodies of the last line in written order, and the text before and after the theme's
    held: list = [None]
    spot, before, after = 0, "", ""

    def line(i: int, state: WorldState, label: str | None) -> str:
        nonlocal spot, before, after
        bodies = state.bodies
        theme = bodies[theme_id]
        order = tuple(bodies.values()) if jsonl else pick(bodies)
        held[spot] = theme
        if len(order) != len(held) or not all(map(is_, order, held)):
            held[:] = order
            spot = list(bodies).index(theme_id) if jsonl else ids.index(theme_id)
            texts = [_body_text(body, jsonl) for body in order]
            before = "".join(text + "," for text in texts[:spot])
            if jsonl:
                before += f'{json.dumps(theme.id)}:{{"pos":['
            after = "".join("," + text for text in texts[spot + 1:])
        contacts = state.contacts
        rel = contacts[floor_pair]
        on_floor = floor[0 if rel is _EC else 1 if rel is _DC else 2]
        if goal_pair is None:
            at_goal = no_goal
        else:
            rel = contacts[goal_pair]
            at_goal = goal[0 if rel is _EC else 1 if rel is _DC else 2]
        x, y, z = theme.position
        return template % (i, state.time, before, x, y, z, theme.rotation, after,
                           actions[label], on_floor, at_goal)

    return line


def write_trace(
    path: str | Path,
    fmt: str,
    sentence: str,
    trace: Trace,
    scene: Scene,
    cfg: SceneConfig,
) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    for label in trace.labels:  # the labels the reader takes back
        if type(label) is not str or label not in TICK_ACTIONS:
            raise ValueError(
                f"label {label!r:.40} is not a tick action (one of {', '.join(sorted(TICK_ACTIONS))})"
            )
    # the header's bindings are the scene's, and the reader ticks each state under its cfg
    scene.check_run(trace, cfg)
    ids = list(trace.states[0].bodies)
    header = _json_value(_header_dict(sentence, trace, scene, cfg))
    lines = [header] if fmt == "jsonl" else ["# " + header, ",".join(_csv_columns(ids))]
    line = _line_format(fmt, ids, scene.theme_id, scene.ground_id)
    labels = (None, *trace.labels)
    lines += [line(i, state, labels[i]) for i, state in enumerate(trace.states)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# -- reading --------------------------------------------------------------------


@record
class TraceDocument:
    header: dict
    trace: Trace
    scene: Scene

    @property
    def cfg(self) -> SceneConfig:
        return self.trace.states[0].cfg

    @property
    def sentence(self) -> str:
        return self.header["sentence"]


def _numbers(values, where: str) -> tuple[float, ...]:
    """``values`` as floats; a non-number or a non-finite number is a format error."""
    try:
        xs = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        xs = (nan,)
    if not all(map(isfinite, xs)):
        raise TraceFormatError(f"{where} must hold finite numbers, got {values!r:.60}")
    return xs


# The header, its bindings and each of its bodies, and a jsonl state record and
# each of its poses, as walk_fields checks them.
_HEADER_FIELDS = {
    "format_version": (STRING, REQUIRED),
    "sentence": (STRING, REQUIRED),
    "seed": (INTEGER, None),
    "dt": (NUMBER, None),
    "frames": (INTEGER, REQUIRED),
    "cfg": (OBJECT, REQUIRED),
    "bindings": (OBJECT, REQUIRED),
    "goal": (STRING, None),
    "direction": (NUMBERS, REQUIRED),
    "bodies": (OBJECT, REQUIRED),
    "coords": (STRING, None),
}
_BINDINGS_FIELDS = {"theme": (STRING, REQUIRED), "ground": (STRING, None)}
_BODY_FIELDS = {
    "shape": (STRING, REQUIRED), "dimensions": (NUMBERS, REQUIRED), "mobile": (BOOLEAN, REQUIRED),
}
# the reader checks action itself, and takes floor_contact and goal_contact from the tick
_RECORD_FIELDS = {
    "index": (INTEGER, REQUIRED), "time": (FINITE, REQUIRED), "bodies": (OBJECT, REQUIRED),
    "action": (ANY, None), "floor_contact": (ANY, None), "goal_contact": (ANY, None),
}
_POSE_FIELDS = {"pos": (NUMBERS, REQUIRED), "rot": (FINITE, REQUIRED)}


def _parse_header(obj) -> dict:
    """The fields of a checked header, with ``cfg`` the config snapshot, ``bodies``
    the catalog of (shape, dimensions, mobile) by id in file order, and
    ``bindings`` walked.  The walk checks each field's kind; the rules that
    relate fields to each other are checked here.
    """
    # a version other than this one is named before any field it may add
    if isinstance(obj, dict) and obj.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {obj['format_version']!r} (expected {FORMAT_VERSION!r})"
        )
    h = walk_fields(obj, _HEADER_FIELDS, None, TraceFormatError)
    if h["coords"] is not None and h["coords"] != COORD_CONVENTION:
        raise TraceFormatError(
            f"coords must be {json.dumps(COORD_CONVENTION)}, got {json.dumps(h['coords']):.60}"
        )
    try:
        cfg = h["cfg"] = config_from_dict(h["cfg"])
    except ConfigFormatError as exc:
        raise TraceFormatError(f"bad cfg snapshot: {exc}") from exc
    # seed and dt repeat the cfg snapshot's; a copy that disagrees (null included) is a damaged header
    for name in ("seed", "dt"):
        if name in obj and h[name] != getattr(cfg, name):
            raise TraceFormatError(
                f"header {name} must equal the cfg snapshot's {json.dumps(getattr(cfg, name))},"
                f" got {json.dumps(obj[name]):.40}"
            )
    catalog = {}
    for bid, entry in h["bodies"].items():
        body = walk_fields(entry, _BODY_FIELDS, f"bodies.{bid}", TraceFormatError)
        try:
            shape = Shape(body["shape"])
        except ValueError:
            raise TraceFormatError(f"unknown shape for body {bid!r}") from None
        dims, mobile = body["dimensions"], body["mobile"]
        if len(dims) != len(DIM_KEYS[shape]):
            raise TraceFormatError(f"{shape.value} {bid!r} takes {len(DIM_KEYS[shape])} dimension(s)")
        if not all(MIN_SIZE <= d <= MAX_SIZE for d in dims):
            raise TraceFormatError(
                f"dimensions of {bid!r} must lie within [{MIN_SIZE:g}, {MAX_SIZE:g}] m"
            )
        if (shape is Shape.PLANE) != (bid == FLOOR_ID):
            raise TraceFormatError(
                f"body {bid!r}: the floor is the only plane, and its id is {FLOOR_ID!r}"
            )
        if mobile and shape is Shape.PLANE:
            raise TraceFormatError(f"body {bid!r}: a plane is immobile")
        catalog[bid] = (shape, dims, mobile)
    if FLOOR_ID not in catalog:
        raise TraceFormatError(f"header bodies have no {FLOOR_ID!r} plane")
    h["bodies"] = catalog
    bindings = h["bindings"] = walk_fields(h["bindings"], _BINDINGS_FIELDS, "bindings", TraceFormatError)
    theme_id = bindings["theme"]
    if theme_id not in catalog:
        raise TraceFormatError(
            f"bindings.theme must be the id of a header body, got {json.dumps(theme_id):.40}"
        )
    if not catalog[theme_id][2]:  # the floor among them: a plane is immobile
        raise TraceFormatError(f"the theme {theme_id!r} is immobile")
    for name, value in (("bindings.ground", bindings["ground"]), ("goal", h["goal"])):
        if value is not None and value not in catalog:
            raise TraceFormatError(
                f"{name} must be null or the id of a header body, got {json.dumps(value):.40}"
            )
    # the headings tick accepts (see kinematics._unit_horizontal), of length 1
    d = h["direction"]
    if len(d) != 3 or abs(d[1]) > 1e-9 or abs(hypot(d[0], d[2]) - 1.0) > 1e-9:
        raise TraceFormatError(
            f"direction must be a horizontal unit vector, got {json.dumps(obj['direction']):.60}"
        )
    if d == PLUS_X and copysign(1.0, d[1]) == copysign(1.0, d[2]) == 1.0:
        h["direction"] = PLUS_X  # a tick takes this heading as it is, without dividing it
    return h


# One state record as both readers produce it: (index, time, poses, action), where
# poses holds (x, y, z, rot) for each header body in header order.
Record = tuple[object, float, list[tuple[float, float, float, float]], object]


def _fast_path(fmt: str, rows: list[str], ids: list[str], theme_id: str, ground_id: str | None):
    """``taken(i, ticked, action)``: whether row ``i`` of ``rows``, a record after
    record 1, is ``ticked``, the tick by ``action`` of the state of row ``i - 1``,
    read without parsing it.  It says so only of a row that parsing would read
    to that state; any other row is parsed.

    A jsonl row must be the writer's text of the tick.  A csv row must have the
    writer's cell count, the index ``str(i)``, the action ``action`` (the
    previous record's), each static body's cells as the row before writes them,
    and a time and theme cells whose ``float`` equals the ticked value: a tick
    moves only the theme, and keeps every value finite.
    """
    if fmt == "jsonl":
        line = _line_format(fmt, ids, theme_id, ground_id)
        return lambda i, ticked, action: rows[i] == line(i, ticked, action)
    cells_per_row = 5 + 4 * len(ids)
    theme_col = 2 + 4 * ids.index(theme_id)
    action_col = cells_per_row - 3
    pick = itemgetter(0, 1, *range(theme_col, theme_col + 4), action_col)
    # the floor is static and never the theme, so this picks at least four cells
    statics = itemgetter(*range(2, theme_col), *range(theme_col + 4, action_col))
    held_row, held_cells = 0, ()  # the last row whose static cells passed, and those cells

    def taken(i: int, ticked: WorldState, action: str) -> bool:
        nonlocal held_row, held_cells
        cells = rows[i].split(",")
        if len(cells) != cells_per_row:
            return False
        index, time, x, y, z, rot, act = pick(cells)
        if index != str(i) or act != action:
            return False
        if held_row != i - 1:  # row i - 1 was parsed, so it has every cell
            held_cells = statics(rows[i - 1].split(","))
        if statics(cells) != held_cells:
            return False
        held_row = i
        theme = ticked.bodies[theme_id]
        px, py, pz = theme.position
        try:
            return (float(time) == ticked.time and float(x) == px and float(y) == py
                    and float(z) == pz and float(rot) == theme.rotation)
        except ValueError:
            return False

    return taken


def _rebuild(header: dict, h: dict, rows: list[str], record, fmt: str) -> TraceDocument:
    """World states from the file lines ``rows``, one per state, under the checked
    header ``h`` of the file's ``header``; ``record(i, row)`` parses a row.

    Record 0 is read as the first state, at rest.  Each later state is the tick
    of the one before by its record's action, and the record must hold that
    state's time and poses: compiled sentence programs hold only ticks and
    tests, so a trace the engine writes is such a chain.  From record 2 on, a
    row that ``_fast_path`` takes as the tick by the previous action is that
    tick's state without being parsed: parsing it would give the same state.
    """
    if len(rows) != h["frames"]:
        raise TraceFormatError(f"record count {len(rows)} does not match header frames {h['frames']}")
    if not rows:
        raise TraceFormatError("trace has no state records")
    cfg, theme_id, direction = h["cfg"], h["bindings"]["theme"], h["direction"]
    ground_id = h["bindings"]["ground"]
    index, time, poses, action = record(0, rows[0])
    if index != 0:
        raise TraceFormatError(f"record 0 has index {index}")
    if action is not None:
        raise TraceFormatError(
            f"record 0 has an action {json.dumps(action):.40}; the first state has no incoming tick"
        )
    bodies = {}
    for (bid, (shape, dims, mobile)), pose in zip(h["bodies"].items(), poses):
        if max(pose) > MAX_COORDINATE or min(pose) < -MAX_COORDINATE:
            raise TraceFormatError(
                f"pos and rot in record 0 body {bid} must lie within"
                f" [{-MAX_COORDINATE:g}, {MAX_COORDINATE:g}]"
            )
        heading = direction if bid == theme_id else PLUS_X
        bodies[bid] = Body(bid, shape, dims, mobile, pose[:3], heading, pose[3])
    if time != 0.0:
        raise TraceFormatError(f"record 0 has time {fmt_float(time)}, not its tick's 0")
    state = WorldState(time, 0, bodies, cfg)
    states = [state]
    labels = []
    taken = _fast_path(fmt, rows, list(h["bodies"]), theme_id, ground_id)
    guess = ticked = None  # the previous record's action, and the tick by it
    for i in range(1, len(rows)):
        if guess is not None:
            ticked = kinematics.tick(state, guess, theme_id)
            if taken(i, ticked, guess):
                state = ticked
                states.append(state)
                labels.append(guess)
                continue
        index, time, poses, action = record(i, rows[i])
        if index != i:
            raise TraceFormatError(f"record {i} has index {index}")
        if not action:
            raise TraceFormatError(f"record {i} is missing its action label")
        if type(action) is not str or action not in TICK_ACTIONS:
            raise TraceFormatError(
                f"record {i} has an unknown action {json.dumps(action):.40}"
                f" (one of {', '.join(sorted(TICK_ACTIONS))})"
            )
        if action != guess:
            ticked = kinematics.tick(state, action, theme_id)
        state = ticked
        # == and not bits: jsonl reads the -0 of a -0.0 as 0
        for (x, y, z, rot), body in zip(poses, state.bodies.values()):
            p = body.position
            if x != p[0] or y != p[1] or z != p[2] or rot != body.rotation:
                raise TraceFormatError(f"record {i} body {body.id} is not where a {action} tick puts it")
        if time != state.time:
            raise TraceFormatError(
                f"record {i} has time {fmt_float(time)}, not its tick's {fmt_float(state.time)}"
            )
        states.append(state)
        labels.append(action)
        guess = action

    trace = Trace(tuple(states), tuple(labels))
    scene = Scene(initial=states[0], theme_id=theme_id, ground_id=ground_id, goal_id=h["goal"])
    return TraceDocument(header=header, trace=trace, scene=scene)


def _checked_jsonl_record(i: int, obj, ids) -> Record:
    where = f"record {i}"
    r = walk_fields(obj, _RECORD_FIELDS, where, TraceFormatError)
    entries = walk_fields(r["bodies"], dict.fromkeys(ids, (OBJECT, REQUIRED)), f"{where}.bodies",
                          TraceFormatError)
    poses = []
    for bid, entry in entries.items():
        at = f"{where}.bodies.{bid}"
        body = walk_fields(entry, _POSE_FIELDS, at, TraceFormatError)
        if len(body["pos"]) != 3:
            raise TraceFormatError("expected a list of 3 finite numbers", field=f"{at}.pos")
        poses.append((*body["pos"], body["rot"]))
    return r["index"], r["time"], poses, r["action"]


def _json_line(line: str, n: int, start: int = 0):
    """The JSON value in ``line`` from ``start`` on; ``n`` is the line's number in the file.

    A fault names the line, and a column counted from the start of the line.
    """
    try:
        return json.loads(line[start:])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"invalid JSON in trace file: {exc.msg} (line {n}, column {start + exc.colno})"
        ) from exc
    except RecursionError:
        raise TraceFormatError(f"JSON nested too deeply in trace file (line {n})") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise TraceFormatError(f"number with too many digits in trace file (line {n})") from None


def _read_jsonl(text: str) -> TraceDocument:
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    try:
        header = _json_line(numbered[0][1], numbered[0][0])
        h = _parse_header(header)
        ids = list(h["bodies"])
        return _rebuild(header, h, [line for _, line in numbered[1:]],
                        lambda i, line: _checked_jsonl_record(i, _json_line(line, numbered[i + 1][0]), ids),
                        "jsonl")
    except TraceFormatError:
        # a line that is not JSON is named before any fault of the header or a record
        for n, line in numbered:
            _json_line(line, n)
        raise


def _read_csv(text: str) -> TraceDocument:
    file_lines = text.splitlines()
    lines = [line for line in file_lines if line.strip()]
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise TraceFormatError("csv trace must start with a '# ' header line")
    # only blank lines come before the header, so its first copy is the header
    header = _json_line(lines[0], file_lines.index(lines[0]) + 1, 2)
    h = _parse_header(header)
    names = _csv_columns(h["bodies"])
    expected = ",".join(names)
    if lines[1] != expected:
        raise TraceFormatError(f"csv trace must have the column line {expected!r}")
    # the columns: index, time, (x, y, z, rot) per header body, action, two relations
    action_col = len(names) - 3

    def record(i: int, line: str) -> Record:
        cells = line.split(",")
        if len(cells) != len(names):
            raise TraceFormatError(f"row has {len(cells)} cells, expected {len(names)}")
        try:
            index = int(cells[0])
        except ValueError:
            raise TraceFormatError(f"bad csv row {i}: index {cells[0]!r:.40}") from None
        poses = [_numbers(tuple(cells[k:k + 4]), f"csv row {i}") for k in range(2, action_col, 4)]
        time, = _numbers((cells[1],), f"csv row {i} time")
        return index, time, poses, cells[action_col] or None  # an empty cell: no action

    return _rebuild(header, h, lines[2:], record, "csv")


@_without_collector
def read_trace(path: str | Path) -> TraceDocument:
    """Load a trace file in either format, rebuilding full world states."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace file is not UTF-8: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _read_jsonl(text)
    return _read_csv(text)
