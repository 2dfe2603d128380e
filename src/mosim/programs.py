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
from typing import Union

from . import kinematics
from .config import SceneConfig
from .errors import (
    DimensionMismatchError,
    ExplosionGuard,
    IncompatiblePathError,
    NoSuccessfulRun,
)
from .kinematics import _DC, _EC, Vec3, WorldState, contact_relation
from .lexicon import PREP_ROLES, Lexicon, PathKind, VerbClass
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


@record
class Const:
    value: Value


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
        if self.tol <= 0:
            raise ValueError("tolerance must be strictly positive")


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


def contains_diamond(f: Formula) -> bool:
    if isinstance(f, Diamond):
        return True
    if isinstance(f, Not):
        return contains_diamond(f.sub)
    if isinstance(f, (And, Or)):
        return contains_diamond(f.left) or contains_diamond(f.right)
    return False


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
    return (
        state.tick_index,
        tuple((b.id, b.position, b.rotation, b.velocity) for b in state.bodies.values()),
    )


# -- attribute update ---------------------------------------------------------------


def _set_attr(state: WorldState, attr: Attr, value: Value) -> WorldState:
    body = state.body(attr.obj)
    if attr.name == "rot":
        if _is_vec(value):
            raise DimensionMismatchError("rotation takes a scalar")
        return state.with_body(replace(body, rotation=float(value)))
    if not _is_vec(value) or len(value) != 3:
        raise DimensionMismatchError(f"{attr.name} takes a 3-vector")
    if attr.name == "loc":
        moved = state.with_body(replace(body, position=value))
        return kinematics.refresh_contacts(moved)
    return state.with_body(replace(body, velocity=value))


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
        # the state's own flag answers; only a pair without one (a hand-built
        # state, an unsupported shape pair, a body with itself) is computed
        rel = state.body(f.a).contacts.get(f.b)
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

# A history is a linked list of the states a run has left, newest first:
# None | (state, label, rest, number), where label is the action of the tick
# that left the state.  A tick pushes one cell and never copies, so a run of
# n ticks costs O(n), and the alternatives pending on the search stack share
# the prefix they have in common.  The Trace is built once, when a run
# succeeds.  ``number`` is None under execute; under enumeration it is a
# one-item list that holds the cell's number once a run through the cell
# has succeeded (see _HistoryIds).
History = Union[None, tuple]

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


def _trace_of(history: History, cur: WorldState) -> Trace:
    states = [cur]
    labels = []
    while history is not None:
        state, label, history, _ = history
        states.append(state)
        labels.append(label)
    states.reverse()
    labels.reverse()
    return Trace(tuple(states), tuple(labels))


class _HistoryIds:
    """Numbers the successful runs of one search: equal numbers mean equal runs.

    A cell is numbered by (number of its rest, its label), and the first state
    seen under that pair takes the number unkeyed.  Only a second state object
    under the pair keys both (``_state_key``), and the pair is keyed by state
    from then on.  So two histories get the same number exactly when they hold
    the same labels and state keys in the same order, and a final state
    interned as (number of its history, None) is equal exactly when
    ``Trace.key()`` is.  A cell keeps its number in its last slot.
    """

    def __init__(self) -> None:
        # pair -> (first state, or None once keyed; number), and (pair, state key) -> number
        self._numbers: dict[tuple, object] = {}

    def add(self, history: History, final: WorldState) -> bool:
        """Number the run that left ``history`` and ended in ``final``; true if it is new."""
        cells = [(final, None, None, [None])]
        while history is not None and history[3][0] is None:
            cells.append(history)
            history = history[2]
        number = 0 if history is None else history[3][0]
        numbers = self._numbers
        for state, label, _, slot in reversed(cells):
            count = len(numbers)  # a new number is the count once it is stored: above all others
            pair = (number, label)
            first, number = numbers.setdefault(pair, (state, count + 1))
            if first is not state:
                if first is not None:
                    numbers[pair] = (None, number)
                    numbers[pair, _state_key(first)] = number
                number = numbers.setdefault((pair, _state_key(state)), len(numbers) + 1)
            slot[0] = number
        return number > count


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

    The stack holds pending runs as (continuation, history, state, ticks),
    where a continuation is a linked list of program nodes, None | (node,
    rest).  An iteration with n passes left continues as the cell (_LOOP,
    (body, n, rest)), so a pass builds no Star record.  Each popped run is
    one node against ``node_cap``; it runs its deterministic prefix up to
    success, failure or a two-way branch (a choice, or a bounded
    iteration).  A branch pushes its second alternative and runs the first
    in place, counted as one more node, as if it had been pushed and popped.
    With an rng, one bit drawn at the branch may swap them, and the first
    successful run ends the search.  Without one, the order is left-biased
    and (with want_all) every successful run is collected once: a run is
    numbered by its labels when it succeeds, and its states are keyed only
    where two runs with the same labels meet (see _HistoryIds).  Nodes are
    told apart by their exact type, the most frequent first.
    """
    traces: list[Trace] = []
    history_ids = _HistoryIds() if want_all else None
    pruned = False
    failure: tuple = (-1, None, "no run attempted")
    stack: list[tuple] = [((program, None), None, s0, 0)]
    nodes = 0
    while stack:
        cont, history, cur, ticks = stack.pop()
        nodes += 1
        if nodes > node_cap:
            raise ExplosionGuard(nodes, node_cap)
        failed = None
        while cont is not None:
            node, rest = cont
            t = type(node)
            if t is Tick:
                if ticks >= budget:
                    pruned = True
                    failed = (ticks, node, "tick budget exhausted at")
                    break
                history = (cur, node.action, history, [None] if want_all else None)
                cur = kinematics.tick(cur, node.action, node.theme)
                ticks += 1
                cont = rest
            elif t is Test:
                tv = _eval3(node.formula, cur, budget - ticks, node_cap)
                if tv is not _T:
                    pruned = pruned or tv is _U
                    failed = (ticks, node, "test failed")
                    break
                cont = rest
            elif t is Seq:
                cont = (node.first, (node.second, rest))
            elif t is Star or node is _LOOP or t is Choice:
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
                    first, second = rest, (body, (_LOOP, (body, bound - 1, rest)))
                if rng is not None and rng.next_bit():
                    first, second = second, first
                stack.append((second, history, cur, ticks))
                # the first alternative runs in place, one node as if popped
                nodes += 1
                if nodes > node_cap:
                    raise ExplosionGuard(nodes, node_cap)
                cont = first
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
            if history_ids is None:
                traces.append(_trace_of(history, cur))
                break
            if history_ids.add(history, cur):
                traces.append(_trace_of(history, cur))
            continue
        if failed is not None and failed[0] >= failure[0]:
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
    outcome = _search(
        program, s0, budget,
        rng=rng, want_all=False, node_cap=DEFAULT_NODE_CAP * 10,
    )
    if outcome.traces:
        return outcome.traces[0]
    ticks, node, reason = outcome.failure
    raise NoSuccessfulRun(f"after {max(ticks, 0)} tick(s): {_describe_failure(node, reason)}")


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
    outcome = _search(
        program, s0, budget,
        rng=None, want_all=True, node_cap=node_cap,
    )
    return sorted(outcome.traces, key=lambda t: t.tick_count)


# -- compiling event frames into programs ---------------------------------------------


def _chain(action: str, theme: str, n: int) -> Program:
    if n <= 0:
        return Test(truth())
    program: Program = Tick(action, theme)
    for _ in range(n - 1):
        program = Seq(Tick(action, theme), program)
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
