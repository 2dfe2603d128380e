"""Model checking a trace against the constraints its sentence imposes.

A trace models its sentence when the verb's floor-contact pattern holds
on every post-tick state, rotation couples to path length the way the
manner demands, the path's pre and post tests hold at the trace ends,
and the trace itself is mechanically sound (no interpenetration, uniform
timestep).  Each report lists the same six checks so reports from
different verbs stay comparable.  The checks read each contact relation
they need from the states' own map, ``WorldState.contacts``.
"""

from __future__ import annotations

from math import hypot

from .config import SceneConfig
from .programs import Trace
from .errors import TraceSceneMismatch
from .kinematics import Body, Rel, first_overlap, rest_height
from .lexicon import FLOOR_ID, PREP_ROLES, FloorContact, PathKind, RotationCoupling
from .parser import EventFrame
from .record import asdict, record
from .scene import Scene, ground_object_id

ROTATION_COUPLING_TOL = 1e-4   # rad, loose against float accumulation
ROTATION_NONE_TOL = 1e-9       # rad, tight against any real per-frame rotation
TIMING_TOL = 1e-9              # s

CHECK_NAMES = (
    "contact_profile",
    "rotation_coupling",
    "path_pre",
    "path_post",
    "no_penetration",
    "uniform_timing",
)

@record
class CheckResult:
    name: str
    passed: bool
    offending_index: int | None
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@record
class TraceMetrics:
    path_length: float
    net_rotation: float
    contact_intervals: int

    def to_dict(self) -> dict:
        return asdict(self)


@record
class VerificationReport:
    overall: bool
    checks: tuple[CheckResult, ...]
    metrics: TraceMetrics

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "overall": "pass" if self.overall else "fail",
            "checks": [c.to_dict() for c in self.checks],
            "metrics": self.metrics.to_dict(),
        }


def _scan(
    trace: Trace, theme_id: str, dt: float
) -> tuple[list[tuple[Rel, int]], float, tuple[int, str, str] | None, tuple[int, float] | None]:
    """What the metrics and the mechanical checks read, in one pass over the states.

    Returns the runs of the theme's floor relation over the post-tick states,
    as (relation, length); the theme's horizontal path length, summed state by
    state; the first ``PO`` relation as (state, body id, other id), at the first
    pair in bodies order with the earlier body named first; and the first step
    off ``dt`` as (step, its length).  The ``PO`` scan reads only a map that
    is not the previous state's: a tick that changes no relation passes its
    predecessor's map on, and a map a state holds is never mutated (see
    ``WorldState``), so the same map holds no new ``PO`` pair.
    """
    states = trace.states
    runs: list[tuple[Rel, int]] = []
    first = states[0]
    contacts = first.contacts
    pair, step = first_overlap(first), None
    po = None if pair is None else (0, *pair)
    p, t = first.body(theme_id).position, first.time
    run, n = None, 0
    total = 0.0
    for i in range(1, len(states)):
        state = states[i]
        theme = state.body(theme_id)
        rel = state.contacts[theme_id, FLOOR_ID]
        if rel is run:
            n += 1
        else:
            if n:
                runs.append((run, n))
            run, n = rel, 1
        q = theme.position
        total += hypot(q[0] - p[0], q[2] - p[2])
        p = q
        if po is None and state.contacts is not contacts:
            contacts = state.contacts
            pair = first_overlap(state)
            if pair is not None:
                po = (i, *pair)
        delta = state.time - t
        if step is None and abs(delta - dt) > TIMING_TOL:
            step = (i, delta)
        t = state.time
    if n:
        runs.append((run, n))
    return runs, total, po, step


def _check_contact(runs: list[tuple[Rel, int]], contact: FloorContact) -> CheckResult:
    name = "contact_profile"
    if contact is FloorContact.UNCONSTRAINED:
        return CheckResult(name, True, None, "skipped: contact unconstrained")
    if not runs and contact is not FloorContact.ALTERNATING:
        return CheckResult(name, True, None, "vacuous: zero-motion trace")
    if contact is FloorContact.ALWAYS_EC or contact is FloorContact.ALWAYS_DC:
        wanted = Rel.EC if contact is FloorContact.ALWAYS_EC else Rel.DC
        i = 1  # the state each run starts at
        for rel, n in runs:
            if rel is not wanted:
                return CheckResult(
                    name, False, i,
                    f"floor relation {rel.value} at state {i}, profile requires {wanted.value}",
                )
            i += n
        return CheckResult(name, True, None, f"floor {wanted.value} on all {i - 1} tick states")
    # alternating: at least two contact episodes separated by a clear break
    ec_seen = 0
    separated = False
    for rel, _ in runs:
        if rel is Rel.EC:
            ec_seen += 1
            if ec_seen >= 2 and separated:
                break
        elif rel is Rel.DC and ec_seen >= 1:
            separated = True
    if ec_seen >= 2 and separated:
        return CheckResult(name, True, None, f"{ec_seen} contact episodes with breaks")
    return CheckResult(
        name, False, None,
        f"alternating contact needs >= 2 contact episodes separated by a break, saw {ec_seen}",
    )


def trace_metrics(trace: Trace, theme_id: str) -> TraceMetrics:
    """Horizontal path length, net rotation and floor-contact episode count."""
    runs, path_length, _, _ = _scan(trace, theme_id, trace.states[0].cfg.dt)
    return _metrics(trace, theme_id, runs, path_length)


def _metrics(
    trace: Trace, theme_id: str, runs: list[tuple[Rel, int]], path_length: float
) -> TraceMetrics:
    theme0 = trace.states[0].body(theme_id)
    return TraceMetrics(
        path_length=path_length,
        net_rotation=trace.final.body(theme_id).rotation - theme0.rotation,
        contact_intervals=sum(1 for rel, _ in runs if rel is Rel.EC),
    )


def _check_rotation(metrics: TraceMetrics, theme: Body, coupling: RotationCoupling) -> CheckResult:
    name = "rotation_coupling"
    net = metrics.net_rotation
    if coupling is RotationCoupling.UNCONSTRAINED:
        return CheckResult(name, True, None, "skipped: rotation unconstrained")
    if coupling is RotationCoupling.NONE:
        if abs(net) <= ROTATION_NONE_TOL:
            return CheckResult(name, True, None, "no net rotation")
        return CheckResult(name, False, None, f"net rotation {net:.6g} rad, profile requires none")
    expected = metrics.path_length / rest_height(theme.shape, theme.dimensions)
    if abs(net - expected) <= ROTATION_COUPLING_TOL:
        return CheckResult(name, True, None, "rotation matches arc length")
    return CheckResult(
        name, False, None,
        f"net rotation {net:.6g} rad but arc length predicts {expected:.6g} rad",
    )


def _path_checks(
    trace: Trace, frame: EventFrame, scene: Scene
) -> tuple[CheckResult, CheckResult]:
    if frame.path is None:
        skipped = "skipped: no path component"
        return (
            CheckResult("path_pre", True, None, skipped),
            CheckResult("path_post", True, None, skipped),
        )
    role = PREP_ROLES[frame.path.prep]
    if role is None:
        detail = "skipped: direction-only path"
        return (
            CheckResult("path_pre", True, None, detail),
            CheckResult("path_post", True, None, detail),
        )
    # the sentence's own ground drives the tests; an unbound ground
    # surfaces as a failing check, not an error
    theme_id, ground_id = scene.theme_id, ground_object_id(frame)

    def check(name: str, i: int, at: bool, held: str) -> CheckResult:
        # the theme is at the ground when their relation is not DC
        state = trace.states[i]
        if ground_id not in state.bodies:
            return CheckResult(name, False, i, f"unbound object: {ground_id}")
        if (state.contacts[theme_id, ground_id] is not Rel.DC) is at:
            return CheckResult(name, True, None, held)
        return CheckResult(name, False, i, f"formula false at state {i}")

    last = len(trace.states) - 1
    if role is PathKind.ARRIVE:
        if trace.tick_count == 0:
            pre = CheckResult("path_pre", True, None, "zero-motion trace: theme began at the goal")
        else:
            pre = check("path_pre", 0, False, "theme apart from goal at start")
        post = check("path_post", last, True, "theme at goal at end")
    else:  # source path: from
        pre = check("path_pre", 0, True, "theme in contact with source at start")
        post = check("path_post", last, False, "theme away from source at end")
    return pre, post


def _check_no_penetration(po: tuple[int, str, str] | None) -> CheckResult:
    name = "no_penetration"
    if po is None:
        return CheckResult(name, True, None, "no interpenetration")
    i, body_id, other = po
    return CheckResult(name, False, i, f"{body_id} penetrates {other} at state {i}")


def _check_uniform_timing(step: tuple[int, float] | None, dt: float) -> CheckResult:
    name = "uniform_timing"
    if step is None:
        return CheckResult(name, True, None, "uniform timestep")
    i, delta = step
    return CheckResult(name, False, i, f"step {i} advanced {delta:.12g} s, expected {dt:.12g}")


def verify_trace(
    trace: Trace, frame: EventFrame, scene: Scene, cfg: SceneConfig
) -> VerificationReport:
    """Check one trace against the constraints compiled from its sentence."""
    trace_ids = set(trace.states[0].bodies)
    scene_ids = set(scene.initial.bodies)
    if trace_ids != scene_ids:
        raise TraceSceneMismatch(
            f"trace bodies {sorted(trace_ids)} do not match scene bodies {sorted(scene_ids)}"
        )
    if not trace.states[0].bodies[scene.theme_id].mobile:  # as the engine and the reader refuse one
        raise TraceSceneMismatch(f"theme {scene.theme_id!r} is immobile")
    if frame.theme != scene.theme_id:
        raise TraceSceneMismatch(
            f"sentence theme {frame.theme!r} is not the scene theme {scene.theme_id!r}"
        )

    profile = frame.verb.profile
    runs, path_length, po, step = _scan(trace, scene.theme_id, cfg.dt)
    metrics = _metrics(trace, scene.theme_id, runs, path_length)
    contact = _check_contact(runs, profile.floor_contact)
    rotation = _check_rotation(metrics, trace.final.body(scene.theme_id), profile.rotation_coupling)
    path_pre, path_post = _path_checks(trace, frame, scene)
    penetration = _check_no_penetration(po)
    timing = _check_uniform_timing(step, cfg.dt)

    checks = (contact, rotation, path_pre, path_post, penetration, timing)
    return VerificationReport(
        overall=all(c.passed for c in checks),
        checks=checks,
        metrics=metrics,
    )
