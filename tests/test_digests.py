"""Byte guard: trace files must match the SHA-256 digests committed in bench/digests.json.

A change that alters the bytes of a trace file, even consistently from run
to run, fails here.  A deliberate format change writes new digests there.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mosim import (
    SceneConfig,
    build_scene,
    compile_event,
    execute,
    parse_text,
    stream_for,
    write_trace,
)

from conftest import CORPUS

DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"
ENTRIES = json.loads(DIGESTS.read_text(encoding="utf-8"))["corpus"]


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{e['sentence'].replace(' ', '_')}-seed{e['seed']}" for e in ENTRIES]
)
def test_trace_bytes_match_committed_digest(entry, lex, tmp_path):
    cfg = SceneConfig(seed=entry["seed"])
    frame = parse_text(entry["sentence"], lex)
    scene = build_scene(frame, lex, cfg)
    program = compile_event(frame, lex, cfg)
    trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"trace.{fmt}"
        write_trace(path, fmt, entry["sentence"], trace, scene, cfg)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == entry[fmt], fmt


def test_digests_cover_the_corpus_at_two_seeds():
    assert sorted((e["sentence"], e["seed"]) for e in ENTRIES) == sorted(
        (s, seed) for s in CORPUS for seed in (0, 42)
    )
