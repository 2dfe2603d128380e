"""Command-line front end: parse, simulate, check, enumerate.

Exit codes: 0 success (and verification pass where requested), 1 a
verification ran and failed, 2 bad input (language, lexicon, config,
scene or file format), 3 the search gave out (no successful run, or
enumeration hit its node cap).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import SceneConfig, config_from_dict, load_config
from .programs import compile_event, enumerate_traces, execute
from .errors import (
    ConfigFormatError,
    ExplosionGuard,
    LexiconFormatError,
    MosimError,
    NoSuccessfulRun,
    ProgramTextError,
)
from .lexicon import Lexicon, builtin_lexicon, load_lexicon
from .parser import parse_text
from .rng import stream_for
from .scene import build_scene, probe_scene
from .tracefile import FORMATS, read_trace, write_trace
from .verify import VerificationReport, trace_metrics, verify_trace

ENV_LEXICON = "MOSIM_LEXICON"
ENV_CONFIG = "MOSIM_CONFIG"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SEARCH = 3


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str, error: type[MosimError]) -> str:
    """An input file as UTF-8 text; bytes that do not decode raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc}") from None


def _load_lexicon(path: str | None) -> Lexicon:
    path = path or os.environ.get(ENV_LEXICON)
    if not path:
        return builtin_lexicon()
    return load_lexicon(_read_text(path, LexiconFormatError))


def _load_config(args) -> SceneConfig:
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    cfg = SceneConfig()
    if path:
        cfg = load_config(_read_text(path, ConfigFormatError), cfg)
    flags = {field: getattr(args, field, None) for field in ("seed", "dt", "speed", "max_frames")}
    # flags pass the config-file checks, so a bad value is a ConfigFormatError
    return config_from_dict({k: v for k, v in flags.items() if v is not None}, cfg)


def _print_report(report: VerificationReport) -> None:
    print(json.dumps(report.to_dict(), indent=2))


def cmd_simulate(args) -> int:
    lex = _load_lexicon(args.lexicon)
    cfg = _load_config(args)
    frame = parse_text(args.sentence, lex)
    program = compile_event(frame, lex, cfg)
    scene = build_scene(frame, lex, cfg)
    trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    out_path = args.out or f"trace.{args.format}"
    write_trace(out_path, args.format, args.sentence, trace, scene, cfg)

    report = verify_trace(trace, frame, scene, cfg) if args.verify else None
    metrics = report.metrics if report else trace_metrics(trace, scene.theme_id)
    contacts = " ".join(f"{b}={rel.value}" for (a, b), rel in sorted(trace.final.contacts.items())
                        if a == scene.theme_id)
    print(f"frames: {trace.tick_count}")
    print(f"path_length: {metrics.path_length:.6g}")
    print(f"net_rotation: {metrics.net_rotation:.6g}")
    print(f"final_contacts: {contacts}")
    print(f"trace: {out_path}")
    if report is None:
        return EXIT_OK
    _print_report(report)
    return EXIT_OK if report.overall else EXIT_FAIL


def cmd_parse(args) -> int:
    frame = parse_text(args.sentence, _load_lexicon(args.lexicon))
    print(json.dumps(frame.to_dict(), indent=2))
    return EXIT_OK


def cmd_check(args) -> int:
    doc = read_trace(args.trace)
    frame = parse_text(args.sentence, _load_lexicon(args.lexicon))
    report = verify_trace(doc.trace, frame, doc.scene, doc.cfg)
    _print_report(report)
    return EXIT_OK if report.overall else EXIT_FAIL


def cmd_enumerate(args) -> int:
    # enumerate_traces refuses both too; checked here first to name the flags
    if args.bound < 0:
        _err(f"ValueError: --bound must be nonnegative, got {args.bound}")
        return EXIT_INPUT
    if args.cap < 1:
        _err(f"ValueError: --cap must be at least 1, got {args.cap}")
        return EXIT_INPUT
    from .progtext import parse_program  # only enumerate reads program text

    program = parse_program(_read_text(args.program, ProgramTextError))
    lex = _load_lexicon(args.lexicon)
    cfg = _load_config(args)
    scene = probe_scene(cfg, lex, args.theme)
    try:
        traces = enumerate_traces(program, scene.initial, args.bound, node_cap=args.cap)
    except RecursionError:
        # a formula the parser took can still be too deep to evaluate: a long
        # (and ...) folds into a chain, and each diamond costs several frames
        raise ProgramTextError("program text is nested too deeply") from None
    print(f"traces: {len(traces)}")
    for i, trace in enumerate(traces, start=1):
        labels = " ".join(trace.labels) if trace.labels else "(empty)"
        print(f"trace {i}: {trace.tick_count} tick(s): {labels}")
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mosim",
        description="Simulate controlled-English motion sentences and model-check the traces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="parse, compile, simulate and serialize a sentence")
    sim.add_argument("sentence")
    sim.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--speed", type=float, default=None)
    sim.add_argument("--out", default=None, help="trace file path (default trace.<format>)")
    sim.add_argument("--format", choices=FORMATS, default="jsonl")
    sim.add_argument("--max-frames", dest="max_frames", type=int, default=None)
    sim.add_argument("--lexicon", default=None)
    sim.add_argument("--config", default=None)
    sim.add_argument("--verify", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    par = sub.add_parser("parse", help="print the event frame for a sentence")
    par.add_argument("sentence")
    par.add_argument("--lexicon", default=None)
    par.set_defaults(func=cmd_parse)

    chk = sub.add_parser("check", help="verify a stored trace against a sentence")
    chk.add_argument("--trace", required=True)
    chk.add_argument("--sentence", required=True)
    chk.add_argument("--lexicon", default=None)
    chk.set_defaults(func=cmd_check)

    enum = sub.add_parser("enumerate", help="list all runs of a textual program")
    enum.add_argument("--program", required=True, help="path to a program in the text form")
    enum.add_argument("--bound", type=int, default=100, help="tick budget per run")
    enum.add_argument("--cap", type=int, default=10**6, help="search node cap")
    enum.add_argument("--theme", default="ball", help="mobile body of the probe scene")
    enum.add_argument("--lexicon", default=None)
    enum.set_defaults(func=cmd_enumerate)
    return ap


def run(argv: list[str]) -> int:
    """Run one command; its errors become one stderr line and an exit code."""
    # seed defaults to 0 through SceneConfig; flags override config-file values
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # a closed stdout is main()'s to handle
    except OSError as exc:
        _err(f"IOError: {exc}")
        return EXIT_INPUT
    except MosimError as exc:
        _err(f"{type(exc).__name__}: {exc}")
        return EXIT_SEARCH if isinstance(exc, (NoSuccessfulRun, ExplosionGuard)) else EXIT_INPUT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader went away (`mosim enumerate ... | head`); point stdout at
        # devnull so the interpreter's flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _err(f"IOError: {exc}")
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
