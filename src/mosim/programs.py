"""Program and formula syntax with execution over timed, labelled traces.

Programs are built from attribute assignments, state tests, atomic tick
actions, sequencing, binary choice and bounded iteration.  Tests and
assignments are instantaneous; only a tick advances time, appending one
state and one action label to the trace.  Nondeterminism (choice and
iteration length) is resolved by a seeded generator with backtracking,
so one canonical trace exists per seed while the full set of runs stays
available through enumeration.

A modal formula ``Diamond(p, f)`` holds when some run of ``p`` within a
tick budget ends in a state satisfying ``f``.  Budget exhaustion is not
an error: the result is reported false with an ``undetermined`` flag.
Connectives treat undetermined subresults with Kleene three-valued
semantics so a determined false cannot be masked.
"""

from __future__ import annotations

import gc
from functools import wraps
from math import isfinite
from typing import Union

from . import kinematics
from .config import SceneConfig
from .errors import (
    DimensionMismatchError,
    ExplosionGuard,
    IncompatiblePathError,
    NonFiniteValueError,
    NoSuccessfulRun,
)
from .kinematics import _DC, _EC, Vec3, WorldState, contact_relation
from .lexicon import PREP_ROLES, Lexicon, PathKind, Shape, VerbClass
from .parser import EventFrame
from .record import record, replace
from .rng import SplitMix64
from .scene import bare_duration, ground_object_id

# Tolerance for "the new value differs from the old" in directed assignment.
ASSIGN_TOL = 1e-9

DEFAULT_NODE_CAP = 10**6

Value = Union[float, Vec3]


# -- attribute and term syntax -------------------------------------------------

ATTR_NAMES = ("loc", "rot", "vel")


@record
class Attr:
    obj: str
    name: str

    def __post_init__(self) -> None:
        if self.name not in ATTR_NAMES:
            raise ValueError(f"unknown attribute {self.name!r}")


def _finite(x, what: str) -> float:
    """The program literal ``x`` as a float.  A non-number, a number that is not
    finite and an integer too large for a float are refused, as program text
    refuses them."""
    if not isinstance(x, (int, float)):
        raise TypeError(f"{what} must be a number, got {x!r:.40}")
    try:
        value = float(x)
    except OverflowError:
        raise NonFiniteValueError(f"{what} must be finite, got an integer too large for a float") from None
    if not isfinite(value):
        raise NonFiniteValueError(f"{what} must be finite, got {value}")
    return value


@record
class Const:
    value: Value

    def __post_init__(self) -> None:
        value = self.value
        if _is_vec(value):
            value = tuple([_finite(x, "vector component") for x in value])
        else:
            value = _finite(value, "constant")
        self._setters[0](self, value)


@record
class AttrTerm:
    attr: Attr


@record
class Add:
    left: "Term"
    right: "Term"


@record
class Sub:
    left: "Term"
    right: "Term"


@record
class Scale:
    factor: float
    term: "Term"

    def __post_init__(self) -> None:
        self._setters[0](self, _finite(self.factor, "scale factor"))


Term = Union[Const, AttrTerm, Add, Sub, Scale]


def _is_vec(v: Value) -> bool:
    return isinstance(v, tuple)


def eval_term(term: Term, state: WorldState) -> Value:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, AttrTerm):
        body = state.body(term.attr.obj)
        if term.attr.name == "loc":
            return body.position
        if term.attr.name == "rot":
            return body.rotation
        return body.velocity
    if isinstance(term, (Add, Sub)):
        left = eval_term(term.left, state)
        right = eval_term(term.right, state)
        if _is_vec(left) != _is_vec(right):
            raise DimensionMismatchError("cannot mix scalar and vector operands")
        sign = 1.0 if isinstance(term, Add) else -1.0
        if _is_vec(left):
            return tuple(l + sign * r for l, r in zip(left, right))  # type: ignore[return-value]
        return left + sign * right
    if isinstance(term, Scale):
        value = eval_term(term.term, state)
        if _is_vec(value):
            return kinematics.vscale(value, term.factor)
        return term.factor * value
    raise TypeError(f"not a term: {term!r}")


# -- formula syntax -------------------------------------------------------------


@record
class EC:
    a: str
    b: str


@record
class DC:
    a: str
    b: str


@record
class At:
    """Locative contact: the surfaces of a and b touch or are closer."""

    a: str
    b: str


@record
class Eq:
    left: Term
    right: Term
    tol: float

    def __post_init__(self) -> None:
        tol = _finite(self.tol, "tolerance")
        if tol <= 0:
            raise ValueError("tolerance must be strictly positive")
        self._setters[2](self, tol)


@record
class Leq:
    left: Term
    right: Term


@record
class Not:
    sub: "Formula"


@record
class And:
    left: "Formula"
    right: "Formula"


@record
class Or:
    left: "Formula"
    right: "Formula"


@record
class Diamond:
    program: "Program"
    formula: "Formula"


Formula = Union[EC, DC, At, Eq, Leq, Not, And, Or, Diamond]


def truth() -> Formula:
    """A formula that holds in every state."""
    return Eq(Const(0.0), Const(0.0), 1.0)


@record
class EvalResult:
    value: bool
    undetermined: bool = False

    def __bool__(self) -> bool:
        return self.value


# -- program syntax --------------------------------------------------------------


@record
class Assign:
    attr: Attr
    term: Term


@record
class DirectedAssign:
    """Assignment requiring the new value to differ from the old one."""

    attr: Attr
    term: Term


@record
class Test:
    formula: Formula

    __test__ = False  # an AST node, not a test-framework class


@record
class Tick:
    action: str
    theme: str


@record
class Seq:
    first: "Program"
    second: "Program"


@record
class Choice:
    left: "Program"
    right: "Program"


@record
class Star:
    body: "Program"
    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("iteration bound must be nonnegative")


Program = Union[Assign, DirectedAssign, Test, Tick, Seq, Choice, Star]


# -- traces -----------------------------------------------------------------------


@record
class Trace:
    """States s0..sn with tick labels a1..an and uniform instants."""

    states: tuple[WorldState, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.labels) + 1:
            raise ValueError("a trace has exactly one more state than labels")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(s.time for s in self.states)

    @property
    def tick_count(self) -> int:
        return len(self.labels)

    @property
    def final(self) -> WorldState:
        return self.states[-1]

    def key(self) -> tuple:
        return (self.labels, tuple(_state_key(s) for s in self.states))


def _state_key(state: WorldState) -> tuple:
    """What tells two states of a trace apart: tick index and every body's motion."""
    # a tuple of a list is built faster than of a generator: runs that meet key a state per run
    return (
        state.tick_index,
        tuple([(b.id, b.position, b.rotation, b.velocity) for b in state.bodies.values()]),
    )


# -- attribute update ---------------------------------------------------------------


def _set_attr(state: WorldState, attr: Attr, value: Value) -> WorldState:
    body, contacts = state.body(attr.obj), state.contacts
    if attr.name == "rot":
        if _is_vec(value):
            raise DimensionMismatchError("rotation takes a scalar")
    elif not _is_vec(value) or len(value) != 3:
        raise DimensionMismatchError(f"{attr.name} takes a 3-vector")
    xs = value if _is_vec(value) else (value,)
    try:
        finite = all(map(isfinite, xs))
    except OverflowError:
        finite, value = False, "an integer too large for a float"
    if not finite:
        raise NonFiniteValueError(f"({attr.name} {attr.obj}) would be assigned {value}")
    xs = tuple(map(float, xs))  # a state holds floats only, as the trace files write them
    if attr.name == "rot":
        body = replace(body, rotation=xs[0])
    elif attr.name == "loc":
        # a moved body's relations change: the successor measures its map anew
        body, contacts = replace(body, position=xs), None
    else:
        body = replace(body, velocity=xs)
    return WorldState(state.time, state.tick_index, {**state.bodies, body.id: body}, state.cfg,
                      contacts)


def _values_equal(a: Value, b: Value, tol: float) -> bool:
    if _is_vec(a) != _is_vec(b):
        raise DimensionMismatchError("cannot compare scalar with vector")
    if _is_vec(a):
        return kinematics.vnorm(kinematics.vsub(a, b)) <= tol
    return abs(a - b) <= tol


# -- three-valued formula evaluation --------------------------------------------------

_T, _F, _U = True, False, None


def _eval3(f: Formula, state: WorldState, budget: int, node_cap: int):
    # dispatch on the exact node type, the goal tests' contact atoms first
    t = type(f)
    if t is At or t is EC or t is DC:
        # the state's own relation answers; only a pair without one (an unsupported
        # shape pair, a body with itself, an unbound id) is computed, or refused
        rel = state.contacts.get((f.a, f.b))
        if rel is None:
            rel = contact_relation(state.body(f.a), state.body(f.b), state.cfg.contact_eps)
        if t is At:
            return rel is not _DC
        if t is EC:
            return rel is _EC
        return rel is _DC
    if t is Not:
        sub = _eval3(f.sub, state, budget, node_cap)
        return _U if sub is _U else (not sub)
    if t is Eq:
        return _values_equal(eval_term(f.left, state), eval_term(f.right, state), f.tol)
    if t is Leq:
        left = eval_term(f.left, state)
        right = eval_term(f.right, state)
        if _is_vec(left) or _is_vec(right):
            raise DimensionMismatchError("ordering is defined on scalars only")
        return left <= right
    if t is And:
        left = _eval3(f.left, state, budget, node_cap)
        if left is _F:
            return _F
        right = _eval3(f.right, state, budget, node_cap)
        if right is _F:
            return _F
        return _U if (left is _U or right is _U) else _T
    if t is Or:
        left = _eval3(f.left, state, budget, node_cap)
        if left is _T:
            return _T
        right = _eval3(f.right, state, budget, node_cap)
        if right is _T:
            return _T
        return _U if (left is _U or right is _U) else _F
    if t is Diamond:
        return _eval_diamond(f, state, budget, node_cap)
    raise TypeError(f"not a formula: {f!r}")


def _eval_diamond(f: Diamond, state: WorldState, budget: int, node_cap: int):
    # <p>f is <p; f?>true: a test of unknown value marks the search budget-pruned
    try:
        outcome = _search(
            Seq(f.program, Test(f.formula)), state, budget,
            rng=None, want_all=False, node_cap=node_cap,
        )
    except ExplosionGuard:
        return _U  # search cut short: conservatively undetermined
    if outcome.traces:
        return _T
    if outcome.budget_pruned:
        return _U
    return _F


def eval_formula(
    f: Formula,
    state: WorldState,
    budget: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> EvalResult:
    """Evaluate a formula in one state; modal subformulas get a tick budget."""
    if budget is None:
        budget = state.cfg.max_frames
    tv = _eval3(f, state, budget, node_cap)
    if tv is _U:
        return EvalResult(False, undetermined=True)
    return EvalResult(bool(tv))


# -- the execution machine --------------------------------------------------------------

# The node of a continuation cell that holds a pending iteration; see _search.
_LOOP = object()


def _without_collector(fn):
    """``fn`` with the cyclic garbage collector paused while it runs.

    A run builds its states from immutable records and makes no reference
    cycle (a tier-1 test pins this), so reference counting frees all it drops,
    and a collector pass while the run grows scans those records to find
    nothing.  A collector the caller disabled stays disabled.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class _HistoryIds:
    """Numbers the successful runs of one search that meet under the same labels.

    Equal numbers mean equal runs.  A run whose labels no earlier run has is
    new without a number, so _search numbers runs only when a second run with
    the same labels succeeds: the first one then, once and from position 0,
    and each later one as it succeeds.

    Position i of a run is numbered by (number of position i - 1, or 0 at the
    start; label i), and the first state seen under that pair takes the number
    unkeyed.  Only a second state object under the pair keys both
    (``_state_key``), and the pair is keyed by state from then on.  So two
    runs get the same number at i exactly when they hold the same labels and
    state keys up to i, and a final state numbered under (number of the last
    position, None) is equal exactly when ``Trace.key()`` is.  ``nums`` holds
    the numbers of the current run's first positions, as many as are numbered.
    """

    def __init__(self) -> None:
        # pair -> (first state, or None once keyed; number), and (pair, state key) -> number
        self._numbers: dict[tuple, object] = {}

    def add(self, path: list, labels: list, nums: list, final: WorldState) -> bool:
        """Number the run that left ``path`` and ended in ``final``; true if it is new."""
        number = nums[-1] if nums else 0
        for i in range(len(nums), len(path)):
            number = self._number(number, labels[i], path[i])
            nums.append(number)
        count = len(self._numbers)  # a new number is the count once it is stored: above all others
        return self._number(number, None, final) > count

    def _number(self, number: int, label: str | None, state: WorldState) -> int:
        numbers = self._numbers
        pair = (number, label)
        first, number = numbers.setdefault(pair, (state, len(numbers) + 1))
        if first is not state:
            if first is not None:
                numbers[pair] = (None, number)
                numbers[pair, _state_key(first)] = number
            number = numbers.setdefault((pair, _state_key(state)), len(numbers) + 1)
        return number


@record
class _Outcome:
    traces: list[Trace]
    budget_pruned: bool
    # the deepest failure as (ticks, program node or None, reason); formatted only on demand
    failure: tuple


def _describe_failure(node, reason: str) -> str:
    if node is None:
        return reason
    from .progtext import format_program  # local import: progtext depends on this module

    return f"{reason}: {format_program(node)}"


def _search(
    program: Program,
    s0: WorldState,
    budget: int,
    *,
    rng: SplitMix64 | None,
    want_all: bool,
    node_cap: int,
) -> _Outcome:
    """Depth-first search over the nondeterministic runs of a program.

    The stack holds pending runs as (continuation, state, ticks), where a
    continuation is a linked list of program nodes, None | (node, rest).  An
    iteration with n passes left continues as the cell (_LOOP, (body, n,
    rest)), so a pass builds no Star record.  Each popped run is one node
    against ``node_cap``; it runs its deterministic prefix up to success,
    failure or a two-way branch (a choice, or a bounded iteration).  A
    branch always pushes its second alternative and runs the first in place,
    counted as one more node, as if it had been pushed and popped.  With an
    rng, one bit drawn at the branch may swap them, and the first successful
    run ends the search.  Without one, the order is left-biased and (with
    want_all) every successful run is collected once.  A run is new when no
    earlier run has its labels, told by one dict lookup; runs are numbered,
    and their states keyed, only where two runs with the same labels meet
    (see _HistoryIds).  Nodes are told apart by their exact type, the
    branches first, and a test of ``At`` or its negation reads the state's
    contact map.

    The current run is two lists indexed by depth: ``path``, the states it
    has left, and ``labels``, the actions of the ticks that left them.  A
    tick appends to both, an assignment changes only the current state, and
    a pop truncates both to the popped run's ``ticks`` when the current run
    is deeper; a successful run is ``Trace((*path, cur), tuple(labels))``.
    This holds because the search is depth first: the stack's ``ticks`` never
    fall from bottom to top, so every pending run left exactly the first
    ``ticks`` states of the lists.  Under enumeration ``nums`` holds the
    numbers of the run's first positions, as many as are numbered, and is
    truncated with them.  That loses no number a later run could reuse: a
    truncated one numbered a position of the abandoned run, and _HistoryIds
    keeps every number it gives, so a later run with the same labels and
    state keys up to there is given the same number again.
    """
    traces: list[Trace] = []
    # labels -> the states of the first run with them, or () once that run is numbered
    first_runs: dict[tuple, tuple] | None = {} if want_all else None
    history_ids = _HistoryIds() if want_all else None
    pruned = False
    failure: tuple = (-1, None, "no run attempted")
    stack: list[tuple] = [((program, None), s0, 0)]
    push, pop = stack.append, stack.pop
    next_bit = rng.next_bit if rng is not None else None
    tick = kinematics.tick
    set_states, set_labels = Trace._setters
    path, labels, nums = [], [], []  # the current run by depth, as above
    nodes = ticks = 0
    while stack:
        cont, cur, popped = pop()
        if popped < ticks:
            del path[popped:], labels[popped:], nums[popped:]
        ticks = popped
        nodes += 1
        if nodes > node_cap:
            raise ExplosionGuard(nodes, node_cap)
        while cont is not None:
            node, rest = cont
            t = type(node)
            if node is _LOOP or t is Star or t is Choice:
                if t is Choice:
                    first, second = (node.left, rest), (node.right, rest)
                else:  # an iteration with ``bound`` passes left: zero more first
                    if t is Star:
                        body, bound = node.body, node.bound
                    else:
                        body, bound, rest = rest
                    if bound <= 0:
                        cont = rest
                        continue
                    loop = (_LOOP, (body, bound - 1, rest))
                    first, second = rest, (body, loop)
                if next_bit is not None and next_bit():
                    first, second = second, first
                # the first alternative runs in place, one node as if popped
                nodes += 1
                if nodes > node_cap:
                    raise ExplosionGuard(nodes, node_cap)
                push((second, cur, ticks))
                cont = first
            elif t is Test:
                f = node.formula
                tf = type(f)
                if tf is At and (rel := cur.contacts.get((f.a, f.b))) is not None:
                    tv = rel is not _DC
                elif tf is Not and type(f.sub) is At and (
                    rel := cur.contacts.get((f.sub.a, f.sub.b))
                ) is not None:
                    tv = rel is _DC
                else:
                    tv = _eval3(f, cur, budget - ticks, node_cap)
                if tv is not _T:
                    pruned = pruned or tv is _U
                    failed = (ticks, node, "test failed")
                    break
                cont = rest
            elif t is Tick:
                if ticks >= budget:
                    pruned = True
                    failed = (ticks, node, "tick budget exhausted at")
                    break
                path.append(cur)
                labels.append(node.action)
                cur = tick(cur, node.action, node.theme)
                ticks += 1
                cont = rest
            elif t is Seq:
                cont = (node.first, (node.second, rest))
            elif t is Assign or t is DirectedAssign:
                value = eval_term(node.term, cur)
                if t is DirectedAssign:
                    old = eval_term(AttrTerm(node.attr), cur)
                    if _values_equal(old, value, ASSIGN_TOL):
                        failed = (ticks, node, "directed assignment left the value unchanged")
                        break
                cur = _set_attr(cur, node.attr, value)
                cont = rest
            else:
                raise TypeError(f"not a program: {node!r}")
        else:  # the run succeeded
            lab = tuple(labels)
            if first_runs is None:
                states = (*path, cur)
            elif (earlier := first_runs.get(lab)) is None:  # no earlier run has these labels
                first_runs[lab] = states = (*path, cur)
            else:  # another run has these labels: number the first once, then this one
                if earlier:
                    history_ids.add(earlier[:-1], lab, [], earlier[-1])
                    first_runs[lab] = ()
                if not history_ids.add(path, labels, nums, cur):
                    continue
                states = (*path, cur)
            # filled through the slot setters, as tick fills its states
            trace = Trace.__new__(Trace)
            set_states(trace, states)
            set_labels(trace, lab)
            traces.append(trace)
            if first_runs is None:
                break
            continue
        if failed[0] >= failure[0]:  # a run ends in failure only by a break
            failure = failed
    return _Outcome(traces, pruned, failure)


@_without_collector
def execute(
    program: Program,
    s0: WorldState,
    rng: SplitMix64,
    budget: int | None = None,
) -> Trace:
    """Produce one successful trace, resolving nondeterminism from the rng.

    Backtracks through remaining alternatives in seeded order; raises
    NoSuccessfulRun carrying the deepest failure when every run fails.
    """
    if budget is None:
        budget = s0.cfg.max_frames
    if budget < 1:
        raise ValueError("budget must be at least 1")
    node_cap = DEFAULT_NODE_CAP * 10
    failure = _flight_out_of_reach(program, s0, budget, node_cap)
    if failure is None:
        outcome = _search(program, s0, budget, rng=rng, want_all=False, node_cap=node_cap)
        if outcome.traces:
            return outcome.traces[0]
        failure = outcome.failure
    ticks, node, reason = failure
    raise NoSuccessfulRun(f"after {max(ticks, 0)} tick(s): {_describe_failure(node, reason)}")


def _flight_out_of_reach(program: Program, s0: WorldState, budget: int, node_cap: int):
    """The search's failure of ``program`` when it is a ``fly`` goal loop whose
    theme can never reach its goal, without running the search; else None.

    A ``fly`` tick keeps the theme's height bit for bit: it sets y to the
    start's, and a clamp scales the move, whose y part is 0.0.  No other body
    moves, and the gap between two convex bodies is at least their gap along y.
    So when that gap is wider than ``contact_eps`` at ``s0``, every run of the
    loop fails its final test, the deepest after its last pass.  The check
    holds only where the search would fail that way: within the tick budget
    and node cap, with a tick that would not refuse the theme, and by a margin
    far above the rounding of the gap kernels at these magnitudes.
    """
    if type(program) is not Seq or type(program.first) is not Star or type(program.second) is not Test:
        return None
    # the loop _goal_loop compiles, compared without building a Star
    goal, passes = program.second.formula, program.first.bound
    if type(goal) is not At or program.first.body != Seq(Test(Not(goal)), Tick("fly", goal.a)):
        return None
    if passes > budget or 2 * passes >= node_cap:
        return None
    theme, ground = s0.body(goal.a), s0.body(goal.b)
    if not theme.mobile:
        return None
    try:
        kinematics._unit_horizontal(theme.heading)
    except ValueError:
        return None
    y, half = theme.position[1], kinematics.rest_height(theme.shape, theme.dimensions)
    if ground.shape is Shape.PLANE:  # the floor fills every height up to 0
        ground_y, ground_half, gap = 0.0, 0.0, y - half
    else:
        ground_y = ground.position[1]
        ground_half = kinematics.rest_height(ground.shape, ground.dimensions)
        gap = abs(y - ground_y) - half - ground_half
    margin = 1e-9 * (abs(y) + half + abs(ground_y) + ground_half)
    if gap - s0.cfg.contact_eps > margin:  # the deepest failure, after the last pass
        return passes, program.second, "test failed"
    return None


@_without_collector
def enumerate_traces(
    program: Program,
    s0: WorldState,
    budget: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[Trace]:
    """All successful traces, shortest first, ties left-biased, no duplicates."""
    if budget is None:
        budget = s0.cfg.max_frames
    # the search would still run the program's tickless runs on a negative
    # budget, and would report a cap below 1 as a search that gave out
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if node_cap < 1:
        raise ValueError("node_cap must be at least 1")
    outcome = _search(
        program, s0, budget,
        rng=None, want_all=True, node_cap=node_cap,
    )
    return sorted(outcome.traces, key=lambda t: t.tick_count)


# -- compiling event frames into programs ---------------------------------------------


def _chain(action: str, theme: str, n: int) -> Program:
    if n <= 0:
        return Test(truth())
    # one Tick node shared by the whole chain: nodes compare by value
    tick = program = Tick(action, theme)
    for _ in range(n - 1):
        program = Seq(tick, program)
    return program


def _goal_loop(action: str, theme: str, goal: Formula, bound: int) -> Program:
    # the while-loop idiom: iterate "not yet there; step" then require arrival
    loop = Star(Seq(Test(Not(goal)), Tick(action, theme)), bound)
    return Seq(loop, Test(goal))


def _leave(action: str, theme: str, ground: Formula, n: int) -> Program:
    # the source-path idiom: start in contact, run the chain, end apart
    return Seq(Test(ground), Seq(_chain(action, theme, n), Test(Not(ground))))


def compile_event(frame: EventFrame, lex: Lexicon, cfg: SceneConfig) -> Program:
    """Compile a parsed sentence into its motion program.

    Manner and generic verbs expand to iterated ticks of their action:
    a goal path wraps the iteration in the while-loop idiom, a source
    path brackets it between an initial contact test and a final
    separation test, and a bare or direction-only sentence runs a
    seed-chosen number of ticks.  Path verbs do the same with generic
    motion plus their presupposition tests.  ``lex`` is not consulted: the
    ground's object id follows from the frame alone.
    """
    verb = frame.verb
    theme = frame.theme
    prep = frame.path.prep if frame.path else None
    if prep is not None and prep not in verb.allowed_preps:
        raise IncompatiblePathError(verb.lemma, prep)

    goal_formula = None if frame.path is None else At(theme, ground_object_id(frame))
    duration = bare_duration(cfg)

    if verb.verb_class in (VerbClass.MANNER, VerbClass.GENERIC):
        action = verb.tick_action
        assert action is not None
        role = PREP_ROLES.get(prep)
        if role is PathKind.ARRIVE:
            return _goal_loop(action, theme, goal_formula, cfg.max_frames)
        if role is PathKind.LEAVE:
            return _leave(action, theme, goal_formula, duration)
        return _chain(action, theme, duration)

    # path verbs ride on generic motion
    if goal_formula is None:
        return _chain("move", theme, duration)
    if verb.path_kind is PathKind.ARRIVE:
        return Seq(
            Test(Not(goal_formula)),
            _goal_loop("move", theme, goal_formula, cfg.max_frames),
        )
    return _leave("move", theme, goal_formula, duration)
