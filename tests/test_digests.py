"""Byte guards: trace files and verification reports must match committed SHA-256 digests.

A change that alters the bytes of a trace file, even consistently from run
to run, fails here.  A deliberate format change writes new digests in
bench/digests.json.  The report digest pins every check's name, pass flag,
offending index and detail text over the sweep's sentences.
"""

import hashlib
import importlib.util
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
    verify_trace,
    write_trace,
)
from mosim.errors import MosimError

from conftest import CORPUS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "bench" / "digests.json"
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


# every sweep sentence's run checked against every frame of the same theme
REPORTS_DIGEST = "105a424bd439aab6b4c501dc670fa9ecdb1ac2d1d11402915c88c55beef76daf"


def _sweep_sentences(lex):
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep.sentences(lex)


def test_cross_frame_reports_match_committed_digest(lex):
    frames = [parse_text(text, lex) for text in _sweep_sentences(lex)]
    digest, reports = hashlib.sha256(), 0
    for overrides in ({}, {"ground_distance": 1.0}):
        cfg = SceneConfig(seed=0, max_frames=1500, **overrides)
        for frame in frames:
            try:
                program = compile_event(frame, lex, cfg)
                scene = build_scene(frame, lex, cfg)
                trace = execute(program, scene.initial, stream_for(cfg.seed, "choice"), cfg.max_frames)
            except MosimError as exc:
                digest.update(repr(exc).encode() + b"\n")
                continue
            for other in frames:
                if other.theme != frame.theme:
                    continue
                try:
                    text = json.dumps(verify_trace(trace, other, scene, cfg).to_dict(), sort_keys=True)
                except MosimError as exc:
                    text = repr(exc)
                digest.update(text.encode() + b"\n")
                reports += 1
    assert reports == 44160
    assert digest.hexdigest() == REPORTS_DIGEST
