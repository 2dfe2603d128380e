"""Model checking a trace against the constraints its sentence imposes.

A trace models its sentence when the verb's floor-contact pattern holds
on every post-tick state, rotation couples to path length the way the
manner demands, the path's pre and post tests hold at the trace ends,
and the trace itself is mechanically sound (no interpenetration, uniform
timestep).  Each report lists the same six checks so reports from
different verbs stay comparable.
"""

from __future__ import annotations

from .config import SceneConfig
from .programs import At, Formula, Not, Trace, contains_diamond, eval_formula
from .errors import DiamondNotAllowed, TraceSceneMismatch, UnboundObjectError
from .kinematics import Body, Rel, hnorm, vsub
from .lexicon import FLOOR_ID, PREP_ROLES, FloorContact, PathKind, RotationCoupling
from .parser import EventFrame
from .record import record
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

MODES = ("initially", "finally", "throughout")


@record
class CheckOutcome:
    passed: bool
    offending_index: int | None = None
    detail: str = ""


@record
class CheckResult:
    name: str
    passed: bool
    offending_index: int | None
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "offending_index": self.offending_index,
            "detail": self.detail,
        }


@record
class TraceMetrics:
    path_length: float
    net_rotation: float
    contact_intervals: int

    def to_dict(self) -> dict:
        return {
            "path_length": self.path_length,
            "net_rotation": self.net_rotation,
            "contact_intervals": self.contact_intervals,
        }


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


def check_formula_on_trace(trace: Trace, f: Formula, mode: str) -> CheckOutcome:
    """Evaluate a modal-free formula at the first, last, or every state."""
    if contains_diamond(f):
        raise DiamondNotAllowed()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "initially":
        indices = [0]
    elif mode == "finally":
        indices = [len(trace.states) - 1]
    else:
        indices = range(len(trace.states))
    for i in indices:
        try:
            result = eval_formula(f, trace.states[i], budget=1)
        except UnboundObjectError as exc:
            return CheckOutcome(False, i, f"unbound object: {exc.object_id}")
        if not result.value:
            return CheckOutcome(False, i, f"formula false at state {i}")
    return CheckOutcome(True)


def _floor_relations(trace: Trace, theme_id: str) -> list[Rel]:
    """Theme-floor relation on each post-tick state, in order."""
    rels = []
    for state in trace.states[1:]:
        rels.append(state.body(theme_id).contacts[FLOOR_ID])
    return rels


def _contact_runs(rels: list[Rel]) -> list[tuple[Rel, int]]:
    runs: list[tuple[Rel, int]] = []
    for rel in rels:
        if runs and runs[-1][0] is rel:
            runs[-1] = (rel, runs[-1][1] + 1)
        else:
            runs.append((rel, 1))
    return runs


def _check_contact(rels: list[Rel], contact: FloorContact) -> CheckResult:
    name = "contact_profile"
    if contact is FloorContact.UNCONSTRAINED:
        return CheckResult(name, True, None, "skipped: contact unconstrained")
    if not rels and contact is not FloorContact.ALTERNATING:
        return CheckResult(name, True, None, "vacuous: zero-motion trace")
    if contact is FloorContact.ALWAYS_EC or contact is FloorContact.ALWAYS_DC:
        wanted = Rel.EC if contact is FloorContact.ALWAYS_EC else Rel.DC
        for i, rel in enumerate(rels, start=1):
            if rel is not wanted:
                return CheckResult(
                    name, False, i,
                    f"floor relation {rel.value} at state {i}, profile requires {wanted.value}",
                )
        return CheckResult(name, True, None, f"floor {wanted.value} on all {len(rels)} tick states")
    # alternating: at least two contact episodes separated by a clear break
    runs = _contact_runs(rels)
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


def _theme_path_length(trace: Trace, theme_id: str) -> float:
    total = 0.0
    for prev, cur in zip(trace.states, trace.states[1:]):
        total += hnorm(vsub(cur.body(theme_id).position, prev.body(theme_id).position))
    return total


def trace_metrics(trace: Trace, theme_id: str) -> TraceMetrics:
    """Horizontal path length, net rotation and floor-contact episode count."""
    return _metrics(trace, theme_id, _floor_relations(trace, theme_id))


def _metrics(trace: Trace, theme_id: str, rels: list[Rel]) -> TraceMetrics:
    theme0 = trace.states[0].body(theme_id)
    return TraceMetrics(
        path_length=_theme_path_length(trace, theme_id),
        net_rotation=trace.final.body(theme_id).rotation - theme0.rotation,
        contact_intervals=sum(1 for rel, _ in _contact_runs(rels) if rel is Rel.EC),
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
    expected = metrics.path_length / theme.rolling_radius
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
    goal = At(scene.theme_id, ground_object_id(frame))
    if role is PathKind.ARRIVE:
        if trace.tick_count == 0:
            pre = CheckResult("path_pre", True, None, "zero-motion trace: theme began at the goal")
        else:
            got = check_formula_on_trace(trace, Not(goal), "initially")
            pre = CheckResult("path_pre", got.passed, got.offending_index,
                              got.detail or "theme apart from goal at start")
        got = check_formula_on_trace(trace, goal, "finally")
        post = CheckResult("path_post", got.passed, got.offending_index,
                           got.detail or "theme at goal at end")
    else:  # source path: from
        got = check_formula_on_trace(trace, goal, "initially")
        pre = CheckResult("path_pre", got.passed, got.offending_index,
                          got.detail or "theme in contact with source at start")
        got = check_formula_on_trace(trace, Not(goal), "finally")
        post = CheckResult("path_post", got.passed, got.offending_index,
                           got.detail or "theme away from source at end")
    return pre, post


def _check_no_penetration(trace: Trace) -> CheckResult:
    name = "no_penetration"
    for i, state in enumerate(trace.states):
        for body in state.bodies.values():
            for other, rel in body.contacts.items():
                if rel is Rel.PO:
                    return CheckResult(
                        name, False, i, f"{body.id} penetrates {other} at state {i}"
                    )
    return CheckResult(name, True, None, "no interpenetration")


def _check_uniform_timing(trace: Trace, cfg: SceneConfig) -> CheckResult:
    name = "uniform_timing"
    for i in range(1, len(trace.states)):
        delta = trace.states[i].time - trace.states[i - 1].time
        if abs(delta - cfg.dt) > TIMING_TOL:
            return CheckResult(
                name, False, i, f"step {i} advanced {delta:.12g} s, expected {cfg.dt:.12g}"
            )
    return CheckResult(name, True, None, "uniform timestep")


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
    if scene.theme_id not in trace_ids:
        raise TraceSceneMismatch(f"theme {scene.theme_id!r} missing from trace")
    if frame.theme != scene.theme_id:
        raise TraceSceneMismatch(
            f"sentence theme {frame.theme!r} is not the scene theme {scene.theme_id!r}"
        )

    profile = frame.verb.profile
    rels = _floor_relations(trace, scene.theme_id)
    metrics = _metrics(trace, scene.theme_id, rels)
    contact = _check_contact(rels, profile.floor_contact)
    rotation = _check_rotation(metrics, trace.final.body(scene.theme_id), profile.rotation_coupling)
    path_pre, path_post = _path_checks(trace, frame, scene)
    penetration = _check_no_penetration(trace)
    timing = _check_uniform_timing(trace, cfg)

    checks = (contact, rotation, path_pre, path_post, penetration, timing)
    return VerificationReport(
        overall=all(c.passed for c in checks),
        checks=checks,
        metrics=metrics,
    )
