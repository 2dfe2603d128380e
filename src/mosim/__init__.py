"""Motion sentences to programs to deterministic, checkable simulations."""

from .config import SceneConfig, load_config
from .programs import (
    Assign,
    Attr,
    AttrTerm,
    Choice,
    Const,
    DC,
    Diamond,
    DirectedAssign,
    EC,
    Eq,
    EvalResult,
    At,
    Leq,
    Not,
    And,
    Or,
    Program,
    Seq,
    Star,
    Test,
    Tick,
    Trace,
    compile_event,
    enumerate_traces,
    eval_formula,
    execute,
    truth,
)
from .kinematics import (
    Body,
    Rel,
    WorldState,
    contact_relation,
    surface_distance,
    tick,
)
from .lexicon import (
    FloorContact,
    Lexicon,
    MannerProfile,
    NounEntry,
    PathKind,
    RotationCoupling,
    Shape,
    VerbClass,
    VerbEntry,
    builtin_lexicon,
    load_lexicon,
    serialize_lexicon,
)
from .parser import EventFrame, PathComponent, parse_sentence, parse_text, tokenize
from .rng import SplitMix64, stream_for
from .scene import Scene, bare_duration, build_scene, free_direction, probe_scene
from .tracefile import TraceDocument, read_trace, write_trace
from .verify import (
    CheckResult,
    TraceMetrics,
    VerificationReport,
    trace_metrics,
    verify_trace,
)

__version__ = "0.1.0"
