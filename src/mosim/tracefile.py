"""Durable trace files: one header record plus one record per state.

Two formats carry identical values: jsonl (default, one JSON object per
line) and csv (same header as a ``#``-prefixed JSON line, then one row
per state).  Floats are written with 17 significant digits so files are
byte-stable across runs and round-trip exactly.  Format version "1".
"""

from __future__ import annotations

import json
import struct
from functools import cache
from math import hypot, isfinite, nan
from operator import itemgetter
from pathlib import Path

from .config import SceneConfig, config_from_dict
from .programs import Trace, _without_collector
from .errors import ConfigFormatError, TraceFormatError
from .kinematics import PLUS_X, ZERO3, Body, Rel, WorldState, _fill_contacts, _with_contacts
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
        "direction": list(scene.direction),
        "bodies": bodies,
        "coords": COORD_CONVENTION,
    }


def _jnum(value) -> str:
    # nearly every number is a float; anything else is written as the header writes it
    return fmt_float(value) if type(value) is float else _json_value(value)


def _state_lines(fmt: str, trace: Trace, scene: Scene):
    """One line per state in ``fmt``: the loop both formats share.

    A body shared with the previous state (walls, the floor) is formatted once,
    and each JSON key, string and contact relation once per file.  A body is
    formatted by one f-string whose ``.17g`` of a float is ``fmt_float``; jsonl
    writes a body holding a non-float as the header writes it.
    """
    jsonl = fmt == "jsonl"
    theme_id, ground_id = scene.theme_id, scene.ground_id
    has_goal = ground_id is not None and ground_id != FLOOR_ID
    column_ids = list(trace.states[0].bodies)
    keys, strings = cache(json.dumps), cache(_json_value)
    rel_text = {rel: strings(rel.value) if jsonl else rel.value for rel in Rel}
    done: dict[str, tuple[Body, str]] = {}
    for i, state in enumerate(trace.states):
        theme = state.body(theme_id)
        parts = []
        for body in state.bodies.values() if jsonl else map(state.bodies.__getitem__, column_ids):
            hit = done.get(body.id)
            if hit is None or hit[0] is not body:
                pos, rot = body.position, body.rotation
                if not jsonl:
                    x, y, z = pos
                    text = f"{float(x):.17g},{float(y):.17g},{float(z):.17g},{float(rot):.17g}"
                elif len(pos) == 3 and type(pos[0]) is type(pos[1]) is type(pos[2]) is type(rot) is float:
                    x, y, z = pos
                    text = f'{keys(body.id)}:{{"pos":[{x:.17g},{y:.17g},{z:.17g}],"rot":{rot:.17g}}}'
                else:
                    text = f'{keys(body.id)}:{{"pos":[{",".join(map(_jnum, pos))}],"rot":{_jnum(rot)}}}'
                hit = done[body.id] = (body, text)
            parts.append(hit[1])
        label = trace.labels[i - 1] if i > 0 else None
        floor = rel_text[theme.contacts[FLOOR_ID]]
        goal = rel_text[theme.contacts[ground_id]] if has_goal else None
        if jsonl:
            line = f'{{"index":{i},"time":{_jnum(state.time)},"bodies":{{{",".join(parts)}}}'
            if label is not None:
                line += f',"action":{strings(label)}'
            line += f',"floor_contact":{floor}'
            if goal is not None:
                line += f',"goal_contact":{goal}'
            yield line + "}"
        else:
            yield ",".join((
                str(i), fmt_float(state.time), *parts,
                "" if label is None else label, floor, "" if goal is None else goal,
            ))


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
    header = _json_value(_header_dict(sentence, trace, scene, cfg))
    if fmt == "jsonl":
        lines = [header]
    else:
        columns = ["index", "time"]
        for bid in trace.states[0].bodies:
            columns += [f"{bid}_x", f"{bid}_y", f"{bid}_z", f"{bid}_rot"]
        columns += ["action", "floor_contact", "goal_contact"]
        lines = ["# " + header, ",".join(columns)]
    lines += _state_lines(fmt, trace, scene)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# -- reading --------------------------------------------------------------------


@record
class TraceDocument:
    header: dict
    trace: Trace
    scene: Scene
    cfg: SceneConfig

    @property
    def sentence(self) -> str:
        return self.header["sentence"]


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise TraceFormatError(f"missing {key!r} in {where}")
    return obj[key]


def _numbers(values, where: str) -> tuple[float, ...]:
    """``values`` as floats; a non-number or a non-finite number is a format error."""
    try:
        xs = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        xs = (nan,)
    if not all(map(isfinite, xs)):
        raise TraceFormatError(f"{where} must hold finite numbers, got {values!r:.60}")
    return xs


def _json_numbers(values, where: str) -> tuple[float, ...]:
    """``_numbers`` for JSON values, where a string or a boolean is not a number."""
    xs = _numbers(values, where)
    for value in values:
        if isinstance(value, (str, bool)):
            raise TraceFormatError(f"{where}: {json.dumps(value):.40} is not a number")
    return xs


def _vec(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != 3:
        raise TraceFormatError(f"{where} must be a 3-element list")
    return _json_numbers(value, where)


def _parse_header(obj: dict) -> tuple[SceneConfig, dict]:
    """The config snapshot and the body catalog of a checked header."""
    version = _need(obj, "format_version", "header")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {version!r} (expected {FORMAT_VERSION!r})"
        )
    try:
        cfg = config_from_dict(_need(obj, "cfg", "header"))
    except ConfigFormatError as exc:
        raise TraceFormatError(f"bad cfg snapshot: {exc}") from exc
    for key in ("sentence", "frames", "bindings", "bodies", "direction"):
        _need(obj, key, "header")
    if type(obj["frames"]) is not int:
        raise TraceFormatError(f"header frames must be an integer, got {json.dumps(obj['frames']):.40}")
    if type(obj["sentence"]) is not str:
        raise TraceFormatError(f"header sentence must be a string, got {json.dumps(obj['sentence']):.40}")
    # seed and dt repeat the cfg snapshot's; a copy that disagrees is a damaged header
    if "seed" in obj and (type(obj["seed"]) is not int or obj["seed"] != cfg.seed):
        raise TraceFormatError(
            f"header seed must be the cfg snapshot's integer {cfg.seed}, got {json.dumps(obj['seed']):.40}"
        )
    if "dt" in obj and (type(obj["dt"]) not in (int, float) or obj["dt"] != cfg.dt):
        raise TraceFormatError(
            f"header dt must equal the cfg snapshot's {json.dumps(cfg.dt)}, got {json.dumps(obj['dt']):.40}"
        )
    return cfg, _catalog(obj["bodies"])


def _catalog(bodies) -> dict[str, tuple[Shape, tuple[float, ...], bool]]:
    """Shape, dimensions and mobility of each body the header names, in file order."""
    if not isinstance(bodies, dict):
        raise TraceFormatError("header bodies must be an object")
    catalog = {}
    for bid, entry in bodies.items():
        try:
            shape = Shape(_need(entry, "shape", f"body {bid}"))
        except ValueError:
            raise TraceFormatError(f"unknown shape for body {bid!r}") from None
        dims = _need(entry, "dimensions", f"body {bid}")
        if not isinstance(dims, list):
            raise TraceFormatError(f"dimensions of {bid!r} must be a list")
        dims = _json_numbers(dims, f"dimensions of {bid!r}")
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
        mobile = _need(entry, "mobile", f"body {bid}")
        if not isinstance(mobile, bool):
            raise TraceFormatError(
                f"mobile of {bid!r} must be true or false, got {json.dumps(mobile):.40}"
            )
        if mobile and shape is Shape.PLANE:
            raise TraceFormatError(f"body {bid!r}: a plane is immobile")
        catalog[bid] = (shape, dims, mobile)
    if FLOOR_ID not in catalog:
        raise TraceFormatError(f"header bodies have no {FLOOR_ID!r} plane")
    return catalog


# One state record as both readers produce it: (index, time, poses, action), where
# poses holds (x, y, z, rot) for each header body in header order.
Record = tuple[object, float, list[tuple[float, float, float, float]], object]

# A pose's bits: a body posed exactly as in the previous state is that state's
# Body object.  Comparing bits, not floats, keeps 0.0 and -0.0 apart.
_pose_bits = struct.Struct("4d").pack


def _rebuild(header: dict, cfg: SceneConfig, catalog: dict, rows: list, record) -> TraceDocument:
    """World states from ``record(i, row)`` of each row; the pairs of moved bodies are remeasured."""
    if len(rows) != header["frames"]:
        raise TraceFormatError(
            f"record count {len(rows)} does not match header frames {header['frames']}"
        )
    if not rows:
        raise TraceFormatError("trace has no state records")
    bindings = header["bindings"]
    theme_id = _need(bindings, "theme", "bindings")
    if not isinstance(theme_id, str):
        raise TraceFormatError("bindings.theme must be a string")
    if theme_id == FLOOR_ID:
        raise TraceFormatError("the theme cannot be the floor")
    if theme_id in catalog and not catalog[theme_id][2]:
        raise TraceFormatError(f"the theme {theme_id!r} is immobile")
    ground_id, goal_id = bindings.get("ground"), header.get("goal")
    for name, value in (("bindings.ground", ground_id), ("goal", goal_id)):
        if value is not None and (type(value) is not str or value not in catalog):
            raise TraceFormatError(
                f"{name} must be null or the id of a header body, got {json.dumps(value):.40}"
            )
    direction = _vec(header["direction"], "direction")
    # the headings tick accepts (see kinematics._unit_horizontal), of length 1
    if abs(direction[1]) > 1e-9 or abs(hypot(direction[0], direction[2]) - 1.0) > 1e-9:
        raise TraceFormatError(
            f"direction must be a horizontal unit vector, got {json.dumps(header['direction']):.60}"
        )
    slots = [
        (bid, shape, dims, mobile, direction if bid == theme_id else PLUS_X)
        for bid, (shape, dims, mobile) in catalog.items()
    ]

    states = []
    labels = []
    last_bits: list = [None] * len(slots)
    last: dict[str, Body] = {}
    for i, row in enumerate(rows):
        index, time, poses, action = record(i, row)
        if index != i:
            raise TraceFormatError(f"record {i} has index {index}")
        bodies = {}
        moved = []
        for k, pose in enumerate(poses):
            bid, shape, dims, mobile, heading = slots[k]
            bits = _pose_bits(*pose)
            if bits == last_bits[k]:
                bodies[bid] = last[bid]
            else:
                if max(pose) > MAX_COORDINATE or min(pose) < -MAX_COORDINATE:
                    raise TraceFormatError(
                        f"pos and rot in record {i} body {bid} must lie within"
                        f" [{-MAX_COORDINATE:g}, {MAX_COORDINATE:g}]"
                    )
                # the previous flags ride along; _with_contacts copies them only if a
                # pair that holds a moved body changed its relation
                contacts = last[bid].contacts if last else None
                bodies[bid] = Body(bid, shape, dims, mobile, pose[:3], heading, pose[3],
                                   ZERO3, contacts)
                moved.append(bid)
                last_bits[k] = bits
        if last:
            last = _with_contacts(bodies, cfg.contact_eps, moved)
        else:  # the first state's bodies are new, each with its own empty map
            _fill_contacts(bodies, cfg.contact_eps)
            last = bodies
        states.append(WorldState(time, i, last, cfg))
        if i > 0:
            if not action:
                raise TraceFormatError(f"record {i} is missing its action label")
            if type(action) is not str or action not in TICK_ACTIONS:
                raise TraceFormatError(
                    f"record {i} has an unknown action {json.dumps(action):.40}"
                    f" (one of {', '.join(sorted(TICK_ACTIONS))})"
                )
            labels.append(action)
        elif action is not None:
            raise TraceFormatError(
                f"record 0 has an action {json.dumps(action):.40}; the first state has no incoming tick"
            )

    trace = Trace(tuple(states), tuple(labels))
    scene = Scene(
        initial=states[0],
        theme_id=theme_id,
        ground_id=ground_id,
        goal_id=goal_id,
        direction=direction,
    )
    return TraceDocument(header=header, trace=trace, scene=scene, cfg=cfg)


# The types json.loads gives a number (bool is an int subclass, and not one of them).
_NUMBER = frozenset((float, int))


def _jsonl_record(i: int, obj, ids) -> Record:
    """One state record; a record that is not well formed is left to ``_checked_jsonl_record``.

    Nearly every record is well formed, and reading it without a check per key
    takes about a third of the checked walk's time.  The walk, which names the
    first fault, runs only when this fails; any record this accepts, it would
    accept with the same values.
    """
    try:
        entries = obj["bodies"]
        poses = []
        for bid in ids:
            entry = entries[bid]
            # three values of a JSON number type make a pos list: a string or
            # an object unpacks to strings
            x, y, z = entry["pos"]
            rot = entry["rot"]
            if not (type(x) in _NUMBER and type(y) in _NUMBER and type(z) in _NUMBER
                    and type(rot) in _NUMBER):
                break
            pose = (float(x), float(y), float(z), float(rot))
            if not (isfinite(pose[0]) and isfinite(pose[1]) and isfinite(pose[2]) and isfinite(pose[3])):
                break
            poses.append(pose)
        else:
            time = obj["time"]
            if type(time) in _NUMBER and isfinite(time):
                return obj["index"], float(time), poses, obj.get("action")
    except (TypeError, KeyError, ValueError, OverflowError):
        pass
    return _checked_jsonl_record(i, obj, ids)


def _checked_jsonl_record(i: int, obj, ids) -> Record:
    where = f"record {i}"
    index = _need(obj, "index", where)
    entries = _need(obj, "bodies", where)
    poses = []
    for bid in ids:
        entry = _need(entries, bid, where)
        at = f"{where} body {bid}"
        pos, rot = _need(entry, "pos", at), _need(entry, "rot", at)
        if not isinstance(pos, list) or len(pos) != 3:
            raise TraceFormatError(f"pos in {at} must be a 3-element list")
        poses.append(_json_numbers((*pos, rot), f"pos and rot in {at}"))
    time, = _json_numbers((_need(obj, "time", where),), f"time in {where}")
    return index, time, poses, obj.get("action")


# The scanner json.loads runs: a line whose value it reads to the end of the line
# is what json.loads would make of it, without the whitespace checks around it.
_scan_json = json.JSONDecoder().scan_once


def _read_jsonl(text: str) -> TraceDocument:
    objs = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end == len(line):
            objs.append(obj)
            continue
        try:  # padding around the value is read here, and any fault raises as before
            objs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"invalid JSON in trace file: {exc.msg} (line {n}, column {exc.colno})"
            ) from exc
        except RecursionError:
            raise TraceFormatError(f"JSON nested too deeply in trace file (line {n})") from None
        except ValueError:  # an integer past the interpreter's digit limit
            raise TraceFormatError(f"number with too many digits in trace file (line {n})") from None
    header = objs[0]
    cfg, catalog = _parse_header(header)
    ids = list(catalog)
    return _rebuild(header, cfg, catalog, objs[1:], lambda i, obj: _jsonl_record(i, obj, ids))


def _read_csv(text: str) -> TraceDocument:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise TraceFormatError("csv trace must start with a '# ' header line")
    try:
        header = json.loads(lines[0][2:])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON header: {exc.msg}") from exc
    except RecursionError:
        raise TraceFormatError("JSON nested too deeply in csv header") from None
    except ValueError:
        raise TraceFormatError("number with too many digits in csv header") from None
    cfg, catalog = _parse_header(header)
    names = lines[1].split(",")
    where = {name: k for k, name in enumerate(names)}  # a repeated name means its last column

    def column(name: str) -> int:
        try:
            return where[name]
        except KeyError:
            raise TraceFormatError(f"csv trace has no {name!r} column") from None

    index_col, time_col, action_col = column("index"), column("time"), where.get("action")
    pose_cells = [
        itemgetter(*(column(f"{bid}_{axis}") for axis in ("x", "y", "z", "rot"))) for bid in catalog
    ]

    # each body's cell text and pose in the previous row: text seen there is not parsed again
    last_texts: list = [None] * len(pose_cells)
    last_poses: list = [None] * len(pose_cells)

    def record(i: int, line: str) -> Record:
        cells = line.split(",")
        if len(cells) != len(names):
            raise TraceFormatError(f"row has {len(cells)} cells, expected {len(names)}")
        try:
            index = int(cells[index_col])
        except ValueError:
            raise TraceFormatError(f"bad csv row {i}: index {cells[index_col]!r:.40}") from None
        poses = []
        for k, get in enumerate(pose_cells):
            texts = get(cells)
            if texts != last_texts[k]:
                last_texts[k], last_poses[k] = texts, _numbers(texts, f"csv row {i}")
            poses.append(last_poses[k])
        time, = _numbers((cells[time_col],), f"csv row {i} time")
        action = (cells[action_col] or None) if action_col is not None else None  # empty: none
        return index, time, poses, action

    return _rebuild(header, cfg, catalog, lines[2:], record)


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
