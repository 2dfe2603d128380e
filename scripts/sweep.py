#!/usr/bin/env python3
"""Same-behaviour sweep: every parsable sentence through the whole pipeline.

Generates every sentence the builtin lexicon parses with the determiner
"the" (460 sentences) and runs each the way ``mosim simulate --verify``
does, under three configs and two seeds at ``max_frames=1500``.  Each run
prints one tab-separated line:

    sentence  config  seed  sha256

where the hash is over the jsonl trace bytes plus the verdict, or over
the refusal's ``Type: message`` text.  The last line is the SHA-256 of
all run lines; stderr gets the count of passing, failing and refused runs.  Two checkouts can be compared run by run by diffing the
output; ``--check`` prints only the total and exits 1 unless it equals
the committed ``EXPECTED`` hash.

Usage: python3 scripts/sweep.py [--check]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

# run the checkout's own src, installed or not, so two checkouts can be compared
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mosim import (
    SceneConfig,
    build_scene,
    builtin_lexicon,
    compile_event,
    execute,
    parse_text,
    verify_trace,
    write_trace,
)
from mosim.errors import MosimError
from mosim.lexicon import PREPOSITIONS
from mosim.rng import stream_for

# Changes on purpose only when a change to the engine means to change behaviour.
EXPECTED = "fbb102671f8ecee2962b85c1e177db8636f1593adee7dcd529349f5349f1a4c3"

CONFIGS = {
    "default": {},
    "ground_distance=1": {"ground_distance": 1.0},
    "speed=3,dt=1/30": {"speed": 3.0, "dt": 1.0 / 30.0},
}
SEEDS = (0, 7)
MAX_FRAMES = 1500


def sentences(lex) -> list[str]:
    """Every "the" sentence ``lex`` parses, in lexicon order."""
    out = []
    for theme in lex.nouns:
        for verb in lex.verbs.values():
            for form in verb.past_forms:
                candidates = [f"the {theme} {form}"]
                candidates += [f"the {theme} {form} {prep} the {ground}"
                               for prep in PREPOSITIONS for ground in lex.nouns]
                for text in candidates:
                    try:
                        parse_text(text, lex)
                    except MosimError:
                        continue
                    out.append(text)
    return out


def run_digest(sentence: str, lex, cfg: SceneConfig, trace_path: Path) -> tuple[str, str]:
    """The outcome of one run and its SHA-256: jsonl bytes plus verdict, or the refusal text."""
    try:
        frame = parse_text(sentence, lex)
        program = compile_event(frame, lex, cfg)
        scene = build_scene(frame, lex, cfg)
        trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    except MosimError as exc:
        return "refused", hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()
    write_trace(trace_path, "jsonl", sentence, trace, scene, cfg)
    report = verify_trace(trace, frame, scene, cfg)
    verdict = "pass" if report.overall else "fail " + ",".join(report.failed_checks())
    outcome = "pass" if report.overall else "fail"
    return outcome, hashlib.sha256(trace_path.read_bytes() + verdict.encode()).hexdigest()


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="print only the total hash; exit 1 unless it is EXPECTED")
    args = ap.parse_args(argv)

    lex = builtin_lexicon()
    total = hashlib.sha256()
    counts = {"pass": 0, "fail": 0, "refused": 0}
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.jsonl"
        for sentence in sentences(lex):
            for name, overrides in CONFIGS.items():
                for seed in SEEDS:
                    cfg = SceneConfig(seed=seed, max_frames=MAX_FRAMES, **overrides)
                    outcome, digest = run_digest(sentence, lex, cfg, trace_path)
                    counts[outcome] += 1
                    line = f"{sentence}\t{name}\t{seed}\t{digest}"
                    total.update(line.encode() + b"\n")
                    if not args.check:
                        print(line)
    print(f"runs {sum(counts.values())}: " + ", ".join(f"{n} {k}" for k, n in counts.items()),
          file=sys.stderr)
    print(f"total\t{total.hexdigest()}")
    if args.check and total.hexdigest() != EXPECTED:
        print(f"sweep hash differs from the committed {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
