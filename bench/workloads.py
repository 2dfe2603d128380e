"""The four benchmark workloads and the known answers their ops are checked against.

Each workload turns the workload seed into an endless sequence of rounds.
A round is a list of op inputs that covers every input class of the
workload once, so a run made of whole rounds always has the same mix.
``op`` is the timed part: calls into the public functions of the mosim
modules, each under a span named after the layer.  ``check`` is untimed
and returns what the op delivered and every way its outcome differs from
the known answer.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from mosim import (
    SceneConfig,
    build_scene,
    builtin_lexicon,
    compile_event,
    enumerate_traces,
    execute,
    parse_text,
    probe_scene,
    read_trace,
    tick,
    verify_trace,
    write_trace,
)
from mosim.errors import NoSuccessfulRun
from mosim.progtext import parse_program
from mosim.rng import stream_for

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# scripts/run_corpus.py's sentences, copied so the workload stays fixed
CORPUS = (
    "the ball rolled",
    "the ball rolled to the wall",
    "the ball rolled from the wall",
    "the ball slid",
    "the ball slid to the wall",
    "the ball bounced",
    "the bird flew",
    "the bird flew to the wall",
    "the ball moved",
    "the ball moved to the wall",
    "the ball arrived at the wall",
    "the ball left",
)

# Sentence -> the checks it fails on this program.  The op still counts
# as failed; a failure outside this table makes the whole run incorrect.
KNOWN_DEFECTS = {"the ball bounced to the floor": ("contact_profile",)}

FORMATS = ("jsonl", "csv")
GOAL_SENTENCES = (
    "the ball rolled to the wall",
    "the ball slid to the wall",
    "the bird flew to the wall",
    "the ball bounced to the wall",
    "the ball moved to the wall",
)
DISTANCES = (12.5, 25.0, 50.0, 100.0)
UNREACHABLE = "the bird flew to the block"
UNREACHABLE_MAX_FRAMES = 300
ENUM_NS = (8, 9, 10, 11, 12)
CLI_ENUM_NS = (3, 4, 5, 6)
CLI_BOOT = "import sys; from mosim.cli import main; sys.argv[0] = 'mosim'; main()"


def star_program(n: int) -> str:
    return f"(star (choice (tick roll) (tick slide)) {n})"


@dataclass
class Checked:
    ticks: int = 0          # simulated ticks the op delivered
    traces: int = 0         # traces the op delivered
    problems: list[str] = field(default_factory=list)   # outcomes no known answer allows
    known_defect: bool = False   # failed exactly as KNOWN_DEFECTS says

    @property
    def failed(self) -> bool:
        return self.known_defect or bool(self.problems)


def replay_problem(trace, theme_id: str) -> str | None:
    """Step the trace's labels through kinematics.tick from s0; None when every state matches."""
    state = trace.states[0]
    for i, label in enumerate(trace.labels, start=1):
        state = tick(state, label, theme_id, state.body(theme_id).heading, state.cfg)
        if state != trace.states[i]:
            return f"kinematics.tick replay differs from the trace at state {i}"
    return None


def replay(rec, trace, theme_id: str, out: Checked) -> None:
    problem = rec.call("kinematics.tick", replay_problem, trace, theme_id)
    rec.note(ticks=trace.tick_count)
    if problem:
        out.problems.append(problem)


def verdict_problems(sentence: str, report, out: Checked) -> None:
    failed = report.failed_checks()
    if failed and KNOWN_DEFECTS.get(sentence) == failed:
        out.known_defect = True
    elif failed:
        out.problems.append(f"{sentence!r} failed {', '.join(failed)}")


def same_positions(a, b) -> bool:
    """Equal labels, times, positions and rotations: what a trace file stores."""
    if a.labels != b.labels or len(a.states) != len(b.states):
        return False
    for sa, sb in zip(a.states, b.states):
        if sa.time != sb.time or sa.bodies.keys() != sb.bodies.keys():
            return False
        for bid, body in sa.bodies.items():
            other = sb.bodies[bid]
            if body.position != other.position or body.rotation != other.rotation:
                return False
    return True


def simulate(sentence: str, cfg: SceneConfig, lex, rec):
    """parse -> build_scene -> compile_event -> execute, each under its layer span."""
    frame = rec.call("parser.parse_text", parse_text, sentence, lex)
    scene = rec.call("scene.build_scene", build_scene, frame, lex, cfg)
    program = rec.call("programs.compile_event", compile_event, frame, lex, cfg)
    rng = stream_for(cfg.seed, "choice")
    trace = rec.call("programs.execute", execute, program, scene.initial, rng, cfg.max_frames)
    rec.note(ticks=trace.tick_count)
    return frame, scene, trace


class NoSpans:
    """Recorder stand-in for work outside any run: calls straight through."""

    enabled = False

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def note(**attrs):
        pass


# -- corpus ---------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusInput:
    sentence: str
    seed: int
    fmt: str


class Corpus:
    """The corpus sentences through the whole library path and a file round trip."""

    name = "corpus"
    sentences = CORPUS + tuple(KNOWN_DEFECTS)

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.lex = builtin_lexicon()

    def round(self) -> list[CorpusInput]:
        # every sentence once per format, formats alternating
        orders = [self.rng.sample(self.sentences, len(self.sentences)) for _ in FORMATS]
        return [
            CorpusInput(orders[j][i], self.rng.randrange(2**32), fmt)
            for i in range(len(self.sentences))
            for j, fmt in enumerate(FORMATS)
        ]

    def warm_up(self) -> None:
        for fmt in FORMATS:
            inp = CorpusInput("the ball rolled to the wall", 0, fmt)
            self.check(inp, self.op(inp, NoSpans), NoSpans)

    def op(self, inp: CorpusInput, rec):
        cfg = SceneConfig(seed=inp.seed)
        frame, scene, trace = simulate(inp.sentence, cfg, self.lex, rec)
        report = rec.call("verify.verify_trace", verify_trace, trace, frame, scene, cfg)
        rec.note(states=len(trace.states), phase="simulated")
        path = self.work / f"corpus.{inp.fmt}"
        rec.call("tracefile.write_trace", write_trace, path, inp.fmt, inp.sentence, trace, scene, cfg)
        rec.note(states=len(trace.states), fmt=inp.fmt)
        doc = rec.call("tracefile.read_trace", read_trace, path)
        rec.note(states=len(doc.trace.states), fmt=inp.fmt)
        reread = rec.call("verify.verify_trace", verify_trace, doc.trace, frame, doc.scene, doc.cfg)
        rec.note(states=len(doc.trace.states), phase="read")
        return scene, trace, report, doc, reread

    def check(self, inp: CorpusInput, result, rec) -> Checked:
        scene, trace, report, doc, reread = result
        out = Checked(ticks=trace.tick_count, traces=1)
        verdict_problems(inp.sentence, report, out)
        if reread.to_dict() != report.to_dict():
            out.problems.append(f"{inp.sentence!r}: verdict changed after the {inp.fmt} round trip")
        if not same_positions(trace, doc.trace):
            out.problems.append(f"{inp.sentence!r}: {inp.fmt} round trip changed the states")
        replay(rec, trace, scene.theme_id, out)
        return out

    def gate(self) -> list[str]:
        """Committed digests of the trace bytes, and byte-identical reruns."""
        entries = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))["corpus"]
        problems = []
        for entry in entries:
            # seed-0 entries run twice: the rerun must write the same bytes
            for _ in range(2 if entry["seed"] == 0 else 1):
                got = self.digests(entry["sentence"], entry["seed"])
                for fmt in FORMATS:
                    if got[fmt] != entry[fmt]:
                        problems.append(
                            f"digest of {entry['sentence']!r} seed {entry['seed']} "
                            f"{fmt} is {got[fmt]}, committed {entry[fmt]}"
                        )
        return problems

    def digests(self, sentence: str, seed: int) -> dict[str, str]:
        cfg = SceneConfig(seed=seed)
        _, scene, trace = simulate(sentence, cfg, self.lex, NoSpans)
        got = {}
        for fmt in FORMATS:
            path = self.work / f"digest.{fmt}"
            write_trace(path, fmt, sentence, trace, scene, cfg)
            got[fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
        return got


# -- long traces --------------------------------------------------------------------


@dataclass(frozen=True)
class LongInput:
    sentence: str
    seed: int
    distance: float | None      # None marks the unreachable goal


class LongTrace:
    """Goal sentences at growing distances, and a goal that is never reached."""

    name = "long_trace"

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.lex = builtin_lexicon()
        self.rounds = 0

    def round(self) -> list[LongInput]:
        # every distance once and the unreachable goal; the verbs rotate
        # over the distances so that five rounds cover every pair
        k = self.rounds
        self.rounds += 1
        inputs = [
            LongInput(GOAL_SENTENCES[(k + j) % len(GOAL_SENTENCES)], self.rng.randrange(2**32), d)
            for j, d in enumerate(DISTANCES)
        ]
        return inputs + [LongInput(UNREACHABLE, self.rng.randrange(2**32), None)]

    def warm_up(self) -> None:
        inp = LongInput(GOAL_SENTENCES[0], 0, 1.0)
        self.check(inp, self.op(inp, NoSpans), NoSpans)

    def op(self, inp: LongInput, rec):
        if inp.distance is None:
            cfg = SceneConfig(seed=inp.seed, max_frames=UNREACHABLE_MAX_FRAMES)
            try:
                simulate(inp.sentence, cfg, self.lex, rec)
            except NoSuccessfulRun:
                rec.note(refused=True)
                return None
            return "no refusal"
        cfg = SceneConfig(seed=inp.seed, ground_distance=inp.distance)
        frame, scene, trace = simulate(inp.sentence, cfg, self.lex, rec)
        rec.note(distance=inp.distance)
        report = rec.call("verify.verify_trace", verify_trace, trace, frame, scene, cfg)
        rec.note(states=len(trace.states), phase="simulated")
        return scene, trace, report

    def check(self, inp: LongInput, result, rec) -> Checked:
        out = Checked()
        if inp.distance is None:
            if result is not None:
                out.problems.append(f"{inp.sentence!r} ran instead of raising NoSuccessfulRun")
            return out
        scene, trace, report = result
        out.ticks, out.traces = trace.tick_count, 1
        verdict_problems(inp.sentence, report, out)
        replay(rec, trace, scene.theme_id, out)
        return out


# -- enumeration ------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumInput:
    n: int
    speed: float


class Enumerate:
    """Every run of (star (choice (tick roll) (tick slide)) n) over the probe scene."""

    name = "enumerate"

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.lex = builtin_lexicon()

    def round(self) -> list[EnumInput]:
        ns = self.rng.sample(ENUM_NS, len(ENUM_NS))
        return [EnumInput(n, self.rng.choice((0.5, 1.0, 1.5, 2.0))) for n in ns]

    def warm_up(self) -> None:
        inp = EnumInput(4, 1.0)
        self.check(inp, self.op(inp, NoSpans), NoSpans)

    def op(self, inp: EnumInput, rec):
        cfg = SceneConfig(speed=inp.speed)
        scene = rec.call("scene.probe_scene", probe_scene, cfg, self.lex, "ball")
        program = rec.call("progtext.parse_program", parse_program, star_program(inp.n))
        traces = rec.call("programs.enumerate_traces", enumerate_traces, program, scene.initial)
        rec.note(n=inp.n, traces=len(traces))
        return traces

    def check(self, inp: EnumInput, traces, rec) -> Checked:
        out = Checked(ticks=sum(t.tick_count for t in traces), traces=len(traces))
        expected = 2 ** (inp.n + 1) - 1
        labels = {t.labels for t in traces}
        if len(traces) != expected or len(labels) != expected:
            out.problems.append(
                f"n={inp.n}: {len(traces)} traces, {len(labels)} distinct, expected {expected}"
            )
        if any(len(lab) > inp.n or set(lab) - {"roll", "slide"} for lab in labels):
            out.problems.append(f"n={inp.n}: a trace is not a run of the program")
        counts = [t.tick_count for t in traces]
        if counts != sorted(counts):
            out.problems.append(f"n={inp.n}: traces are not ordered shortest first")
        if rec.enabled:
            # Trace.key is the dedup key enumerate_traces builds for every run
            rec.call("programs.Trace.key", lambda: [t.key() for t in traces])
            rec.note(n=inp.n, count=len(traces))
        sample = random.Random(inp.n).sample(traces, min(8, len(traces)))
        for trace in sample + [traces[-1]]:
            replay(rec, trace, "ball", out)
        return out


# -- command line -------------------------------------------------------------------------


@dataclass(frozen=True)
class CliInput:
    command: str
    args: tuple[str, ...]
    sentence: str = ""
    seed: int = 0
    fmt: str = "jsonl"
    n: int = 0


class Cli:
    """mosim simulate --verify, check on the file it wrote, and enumerate, each a fresh process."""

    name = "cli"

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.lex = builtin_lexicon()
        for n in CLI_ENUM_NS:
            (work / f"star{n}.txt").write_text(star_program(n) + "\n", encoding="utf-8")

    def round(self) -> list[CliInput]:
        # one simulate/check/enumerate triple per enumeration size
        inputs = []
        for i, n in enumerate(self.rng.sample(CLI_ENUM_NS, len(CLI_ENUM_NS))):
            sentence = self.rng.choice(CORPUS)
            seed = self.rng.randrange(2**32)
            fmt = FORMATS[i % 2]
            out = str(self.work / f"cli.{fmt}")
            sim = ("simulate", sentence, "--seed", str(seed), "--format", fmt, "--out", out, "--verify")
            inputs += [
                CliInput("simulate", sim, sentence, seed, fmt),
                CliInput("check", ("check", "--trace", out, "--sentence", sentence), sentence, seed, fmt),
                CliInput("enumerate", ("enumerate", "--program", str(self.work / f"star{n}.txt")), n=n),
            ]
        return inputs

    def warm_up(self) -> None:
        out = str(self.work / "cli.jsonl")
        sim = ("simulate", CORPUS[0], "--format", "jsonl", "--out", out, "--verify")
        for inp in (CliInput("simulate", sim, CORPUS[0]),
                    CliInput("check", ("check", "--trace", out, "--sentence", CORPUS[0]), CORPUS[0])):
            self.check(inp, self.op(inp, NoSpans), NoSpans)

    def run_cli(self, args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *args],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    def op(self, inp: CliInput, rec):
        return rec.call(f"cli.{inp.command}", self.run_cli, inp.args)

    def check(self, inp: CliInput, proc, rec) -> Checked:
        out = Checked()
        if proc.returncode != 0:
            out.problems.append(
                f"mosim {inp.command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            )
            return out
        if inp.command == "enumerate":
            counts = [int(m) for m in re.findall(r"^trace \d+: (\d+) tick", proc.stdout, re.M)]
            out.ticks, out.traces = sum(counts), len(counts)
            if len(counts) != 2 ** (inp.n + 1) - 1:
                out.problems.append(f"mosim enumerate n={inp.n} listed {len(counts)} traces")
            return out
        report = json.loads(proc.stdout[proc.stdout.index("{"):])
        if report["overall"] != "pass":
            out.problems.append(f"mosim {inp.command} {inp.sentence!r} did not pass verification")
        if inp.command == "simulate":
            out.ticks = int(re.search(r"^frames: (\d+)$", proc.stdout, re.M).group(1))
            out.traces = 1
            cfg = SceneConfig(seed=inp.seed)
            _, scene, trace = simulate(inp.sentence, cfg, self.lex, NoSpans)
            expected = self.work / f"expected.{inp.fmt}"
            write_trace(expected, inp.fmt, inp.sentence, trace, scene, cfg)
            if expected.read_bytes() != (self.work / f"cli.{inp.fmt}").read_bytes():
                out.problems.append(f"mosim simulate {inp.sentence!r} wrote other bytes than the library")
        return out

    def import_ms(self) -> float:
        """Median time to import mosim.cli in a fresh interpreter, timed inside it."""
        code = (
            "import time; t = time.perf_counter(); import mosim.cli; "
            "print(time.perf_counter() - t)"
        )
        times = []
        for _ in range(5):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
            )
            times.append(float(proc.stdout))
        times.sort()
        return times[len(times) // 2] * 1e3


WORKLOADS = {w.name: w for w in (Corpus, LongTrace, Enumerate, Cli)}
