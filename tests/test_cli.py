import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from mosim.cli import run

SRC = str(Path(__file__).resolve().parents[1] / "src")


def simulate(tmp_path, *extra, sentence="the ball rolled to the wall"):
    out = tmp_path / "trace.jsonl"
    code = run(["simulate", sentence, "--out", str(out), *extra])
    return code, out


def test_simulate_verify_running_example(tmp_path, capsys):
    code, out = simulate(tmp_path, "--seed", "42", "--verify")
    assert code == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "frames: 264" in stdout
    report = json.loads(stdout[stdout.index("{"):])
    assert report["overall"] == "pass"


@pytest.mark.parametrize("sentence,line", [
    ("the ball rolled to the wall", "final_contacts: floor=EC wall=EC"),
    ("the ball rolled from the wall", "final_contacts: floor=EC wall=DC"),
    ("the bird flew", "final_contacts: floor=DC"),
])
def test_simulate_prints_the_themes_final_contacts(tmp_path, capsys, sentence, line):
    # the theme's relation to every other body in the last state, sorted by body id
    code, _ = simulate(tmp_path, sentence=sentence)
    assert code == 0
    assert line in capsys.readouterr().out.splitlines()


def test_simulate_reruns_byte_identical(tmp_path):
    _, a = simulate(tmp_path, "--seed", "42")
    b = tmp_path / "again.jsonl"
    run(["simulate", "the ball rolled to the wall", "--seed", "42", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_jsonl_and_csv_agree(tmp_path):
    _, a = simulate(tmp_path, "--seed", "7")
    c = tmp_path / "trace.csv"
    run(["simulate", "the ball rolled to the wall", "--seed", "7",
         "--format", "csv", "--out", str(c)])
    from mosim import read_trace

    da, dc = read_trace(a), read_trace(c)
    for sa, sc in zip(da.trace.states, dc.trace.states):
        assert sa.time == sc.time
        for bid in sa.bodies:
            assert sa.body(bid).position == sc.body(bid).position
            assert sa.body(bid).rotation == sc.body(bid).rotation


def test_simulate_immobile_theme_exits_2(tmp_path, capsys):
    code, _ = simulate(tmp_path, sentence="the wall rolled")
    assert code == 2
    assert "ImmobileThemeError" in capsys.readouterr().err


def test_simulate_unknown_word_exits_2(tmp_path, capsys):
    code, _ = simulate(tmp_path, sentence="the zorp rolled")
    assert code == 2
    assert "UnknownWordError" in capsys.readouterr().err


def test_simulate_grammar_error_exits_2(tmp_path, capsys):
    code, _ = simulate(tmp_path, sentence="the ball rolled the wall")
    assert code == 2
    assert "GrammarError" in capsys.readouterr().err


def test_simulate_verify_failure_exits_1(tmp_path):
    # a custom slide lexicon whose profile demands rotation it cannot have
    lexfile = tmp_path / "lex.json"
    lexfile.write_text(json.dumps({
        "verbs": [{"lemma": "slide", "past_forms": ["slid"], "class": "manner",
                   "tick_action": "slide",
                   "profile": {"floor_contact": "always_EC",
                               "rotation_coupling": "arc_length"},
                   "allowed_preps": ["to"]}]
    }))
    out = tmp_path / "t.jsonl"
    code = run(["simulate", "the ball slid to the wall", "--out", str(out),
                "--lexicon", str(lexfile), "--verify"])
    assert code == 1


def test_parse_dumps_frame(capsys):
    assert run(["parse", "the ball slid"]) == 0
    frame = json.loads(capsys.readouterr().out)
    assert frame == {"verb": "slide", "theme": "ball"}
    assert run(["parse", "the bird flew to the wall"]) == 0
    frame = json.loads(capsys.readouterr().out)
    assert frame["path"] == {"prep": "to", "ground": "wall"}


def test_parse_error_exit_2(capsys):
    assert run(["parse", "ball the rolled"]) == 2
    assert "GrammarError" in capsys.readouterr().err


def test_check_own_sentence_passes(tmp_path):
    _, out = simulate(tmp_path, "--seed", "42")
    assert run(["check", "--trace", str(out),
                "--sentence", "the ball rolled to the wall"]) == 0


def test_check_wrong_manner_fails(tmp_path):
    _, out = simulate(tmp_path, "--seed", "42")
    assert run(["check", "--trace", str(out),
                "--sentence", "the ball slid to the wall"]) == 1


def test_check_truncated_file_exit_2(tmp_path, capsys):
    _, out = simulate(tmp_path, "--seed", "42")
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:50]))
    assert run(["check", "--trace", str(out),
                "--sentence", "the ball rolled to the wall"]) == 2
    assert "TraceFormatError" in capsys.readouterr().err


def _edit_header(lines, edit):
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header)


def _edit_record(lines, edit):
    record = json.loads(lines[3])
    edit(record)
    lines[3] = json.dumps(record)  # writes a NaN as the bare token NaN


@pytest.mark.parametrize("damage", [
    lambda ls: _edit_header(ls, lambda h: h["bodies"]["ball"].update(dimensions=["x"])),
    lambda ls: _edit_header(ls, lambda h: h.update(bodies=list(h["bodies"]))),
    lambda ls: _edit_record(ls, lambda r: r.update(time=None)),
    lambda ls: _edit_record(ls, lambda r: r["bodies"]["ball"].update(rot="a")),
    lambda ls: _edit_record(ls, lambda r: r["bodies"]["ball"]["pos"].__setitem__(1, float("nan"))),
    lambda ls: _edit_record(ls, lambda r: r.update(time=float("inf"))),
    lambda ls: _edit_header(ls, lambda h: h["bodies"]["wall"].update(dimensions=[4.0, 2.0])),
    lambda ls: _edit_header(ls, lambda h: h["bindings"].update(theme=["ball"])),
    lambda ls: _edit_header(ls, lambda h: h["bodies"].pop("floor")),
    lambda ls: _edit_header(ls, lambda h: h["bindings"].update(theme="floor")),
    lambda ls: _edit_header(ls, lambda h: h["bodies"]["wall"].update(shape="plane", dimensions=[])),
    lambda ls: _edit_record(ls, lambda r: r["bodies"]["ball"].update(rot="1.5")),
    lambda ls: _edit_record(ls, lambda r: r["bodies"]["wall"]["pos"].__setitem__(0, True)),
    lambda ls: _edit_record(ls, lambda r: r.update(time=" 0.03 ")),
    lambda ls: _edit_header(ls, lambda h: h["bodies"]["wall"].update(mobile="no")),
    lambda ls: _edit_record(ls, lambda r: r["bodies"]["ball"]["pos"].__setitem__(0, 1e308)),
    lambda ls: _edit_record(ls, lambda r: r["bodies"]["ball"].update(rot=-1e308)),
    lambda ls: _edit_header(ls, lambda h: h["bodies"]["ball"].update(dimensions=[0])),
    lambda ls: _edit_header(ls, lambda h: h["cfg"].update(ground_distance=1e308)),
    lambda ls: _edit_header(ls, lambda h: h["bodies"]["floor"].update(mobile=True)),
    lambda ls: _edit_header(ls, lambda h: h["bodies"]["ball"].update(mobile=False)),
    lambda ls: ls.__setitem__(3, '{"index": 1%s}' % ("0" * 5000)),
    lambda ls: _edit_header(ls, lambda h: h["bindings"].update(ground="ghost")),
    lambda ls: _edit_header(ls, lambda h: h.update(direction=[0, 0, 0])),
    lambda ls: _edit_record(ls, lambda r: r.update(action="hop")),
    lambda ls: _edit_header(ls, lambda h: h["bindings"].update(theme="ghost")),
    lambda ls: _edit_header(ls, lambda h: h.update(frames=float(h["frames"]))),
    lambda ls: ls.__setitem__(1, json.dumps({**json.loads(ls[1]), "action": [1, 2]})),
], ids=["dimensions-not-numbers", "bodies-a-list", "time-null", "rot-not-a-number",
        "pos-nan", "time-infinite", "box-with-two-dimensions", "theme-not-a-string",
        "no-floor", "floor-as-theme", "second-plane", "rot-a-numeric-string",
        "pos-holding-true", "time-a-padded-string", "mobile-a-string", "pos-1e308",
        "rot-minus-1e308", "radius-zero", "cfg-out-of-range", "mobile-floor", "immobile-theme",
        "index-of-5001-digits", "ground-not-a-body", "direction-zero", "action-hop",
        "theme-not-a-body", "frames-a-float", "record-0-action"])
def test_check_malformed_trace_exits_2_with_one_line(tmp_path, capsys, damage):
    _, out = simulate(tmp_path, "--seed", "42")
    lines = out.read_text().splitlines()
    damage(lines)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["check", "--trace", str(out), "--sentence", "the ball rolled to the wall"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("TraceFormatError: ") and err.count("\n") == 1


def test_check_non_utf8_trace_exits_2(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    out.write_bytes(b"\xff\xfe{}")
    assert run(["check", "--trace", str(out), "--sentence", "the ball rolled"]) == 2
    assert capsys.readouterr().err.startswith("TraceFormatError: trace file is not UTF-8")


def test_enumerate_choice(tmp_path, capsys):
    prog = tmp_path / "p.txt"
    prog.write_text("(choice (tick roll) (tick slide))")
    assert run(["enumerate", "--program", str(prog), "--bound", "10"]) == 0
    out = capsys.readouterr().out
    assert "traces: 2" in out


def test_enumerate_star(tmp_path, capsys):
    prog = tmp_path / "p.txt"
    prog.write_text("(star (tick roll) 2)")
    assert run(["enumerate", "--program", str(prog), "--bound", "10"]) == 0
    assert "traces: 3" in capsys.readouterr().out


def test_enumerate_explosion_exit_3(tmp_path, capsys):
    prog = tmp_path / "p.txt"
    prog.write_text("(star (choice (tick roll) (tick slide)) 30)")
    assert run(["enumerate", "--program", str(prog), "--bound", "30",
                "--cap", "5000"]) == 3
    assert "ExplosionGuard" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--bound", "-1"], "ValueError: --bound must be nonnegative, got -1\n"),
    (["--cap", "0"], "ValueError: --cap must be at least 1, got 0\n"),
    (["--cap", "-5"], "ValueError: --cap must be at least 1, got -5\n"),
], ids=["negative-bound", "zero-cap", "negative-cap"])
def test_enumerate_bad_limits_exit_2_with_one_line(tmp_path, capsys, flags, message):
    prog = tmp_path / "p.txt"
    prog.write_text("(tick roll)")
    assert run(["enumerate", "--program", str(prog), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


def test_enumerate_smallest_limits_are_accepted(tmp_path, capsys):
    prog = tmp_path / "p.txt"
    prog.write_text("(test (eq (rot ball) (rot ball) 1))")
    assert run(["enumerate", "--program", str(prog), "--bound", "0", "--cap", "1"]) == 0
    assert capsys.readouterr().out == "traces: 1\ntrace 1: 0 tick(s): (empty)\n"


def test_enumerate_parse_error_exit_2(tmp_path, capsys):
    prog = tmp_path / "p.txt"
    prog.write_text("(warp (tick roll))")
    assert run(["enumerate", "--program", str(prog)]) == 2
    assert "ProgramTextError" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("(star (tick roll) inf)", "iteration bound must be finite"),
    ("(star (tick roll) nan)", "iteration bound must be finite"),
    ("(test (eq (rot ball) 1 nan))", "tolerance must be finite"),
    ("(tick jump)", "unknown tick action 'jump'"),
    ("(tick jump ball)", "unknown tick action 'jump'"),
    ("(not " * 3000 + "(tick roll)" + ")" * 3000, "nested too deeply"),
], ids=["star-inf", "star-nan", "tolerance-nan", "unknown-action", "unknown-action-with-theme",
        "deep-nesting"])
def test_enumerate_bad_program_text_exits_2_with_one_line(tmp_path, capsys, text, message):
    prog = tmp_path / "p.txt"
    prog.write_text(text)
    assert run(["enumerate", "--program", str(prog)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ProgramTextError: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    # flat text, but (and ...) folds leftward into a 1,999-deep chain
    "(test (and" + " true" * 2000 + "))",
    # within the parser's limit, but evaluation takes several frames per diamond
    "(test " + "(diamond (tick roll) " * 400 + "true" + ")" * 400 + ")",
], ids=["and-of-2000", "diamond-400-deep"])
def test_enumerate_refuses_a_formula_too_deep_to_evaluate_with_one_line(tmp_path, capsys, text):
    prog = tmp_path / "p.txt"
    prog.write_text(text)
    assert run(["enumerate", "--program", str(prog), "--bound", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ProgramTextError: program text is nested too deeply\n" and captured.out == ""


@pytest.mark.parametrize("text,message", [
    ("(seq (assign (loc ball) (scale 1e308 (vec 10 0.5 0))) (choice (tick roll) (tick roll)))",
     "(loc ball) would be assigned (inf, 5e+307, 0.0)"),
    ("(assign (rot ball) (scale 1e308 10))", "(rot ball) would be assigned inf"),
    ("(dassign (vel ball) (sub (scale 1e308 (vec 1 0 0)) (scale 1e308 (vec -1 0 0))))",
     "(vel ball) would be assigned (inf, 0.0, 0.0)"),
], ids=["loc-inf", "rot-inf", "dassign-vel-inf"])
def test_enumerate_refuses_a_non_finite_assignment_with_one_line(tmp_path, capsys, text, message):
    prog = tmp_path / "p.txt"
    prog.write_text(text)
    assert run(["enumerate", "--program", str(prog)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"NonFiniteValueError: {message}\n" and captured.out == ""


def _mosim(*args, **kwargs):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)


@pytest.mark.parametrize("module", ["mosim", "mosim.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    out = tmp_path / "t.jsonl"
    proc = _mosim("-m", module, "simulate", "the ball rolled", "--out", str(out),
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0, stderr
    assert "trace: " in stdout and out.exists()
    proc = _mosim("-m", module, "simulate", "the ball rolled", "--dt", "0",
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2 and stderr.startswith("ConfigFormatError: ")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both cost start-up time on every command; the records share one base instead
    code = "import sys, mosim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = _mosim("-c", code, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0, stderr
    assert stdout == "[]\n"


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    prog = tmp_path / "p12.txt"
    prog.write_text("(star (choice (tick roll) (tick slide)) 12)")  # 8,191 lines, ~500 kB
    proc = _mosim("-m", "mosim", "enumerate", "--program", str(prog),
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == "traces: 8191\n"
    proc.stdout.close()  # as `| head -1` does
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert stderr.startswith("IOError: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 5, "min_bare_frames": 10, "max_bare_frames": 10}))
    out = tmp_path / "a.jsonl"
    assert run(["simulate", "the ball rolled", "--config", str(cfgfile),
                "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["cfg"]["seed"] == 5
    assert header["cfg"]["min_bare_frames"] == 10
    # explicit flag wins over the file
    assert run(["simulate", "the ball rolled", "--config", str(cfgfile),
                "--seed", "9", "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["cfg"]["seed"] == 9


@pytest.mark.parametrize("flags", [
    ("--dt", "0"), ("--max-frames", "0"), ("--dt", "nan"), ("--speed", "inf"),
])
def test_bad_numeric_flag_exits_2_with_one_line(tmp_path, capsys, flags):
    code, out = simulate(tmp_path, *flags, sentence="the ball rolled")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigFormatError: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--speed", "1e300"), "speed must lie within [0.001, 1000]"),
    (("--dt", "1e300"), "dt must lie within [0.0001, 1]"),
    (("--max-frames", "1" + "0" * 400), "frame counts must not exceed 1,000,000"),
], ids=["speed", "dt", "max-frames"])
def test_a_flag_outside_its_range_exits_2_with_one_line(tmp_path, capsys, flags, message):
    code, out = simulate(tmp_path, *flags)
    assert code == 2
    assert capsys.readouterr().err == f"ConfigFormatError: {message}\n"
    assert not out.exists()


def test_a_config_file_outside_its_range_exits_2_with_one_line(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"ground_distance": 1e308}')
    code, out = simulate(tmp_path, "--config", str(cfgfile))
    assert code == 2
    assert capsys.readouterr().err == "ConfigFormatError: ground_distance must lie within [0.001, 1000]\n"
    assert not out.exists()


@pytest.mark.parametrize("sentence, pair", [
    ("the ball rolled to the wall", "'ball' and 'wall'"),
    ("the block rolled to the ball", "'block' and 'ball'"),
])
def test_interpenetrating_scene_exits_2_with_one_line(tmp_path, capsys, sentence, pair):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"ground_distance": 0.5}')
    code, out = simulate(tmp_path, "--config", str(cfgfile), sentence=sentence)
    assert code == 2
    assert capsys.readouterr().err == f"SceneBuildError: bodies {pair} interpenetrate at t=0\n"
    assert not out.exists()


def test_non_finite_config_file_value_exits_2_with_one_line(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"dt": NaN}')
    code, out = simulate(tmp_path, "--config", str(cfgfile), sentence="the ball rolled")
    assert code == 2
    assert capsys.readouterr().err == "ConfigFormatError: dt must be finite\n"
    assert not out.exists()


def test_env_var_config(tmp_path, monkeypatch):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 11}))
    monkeypatch.setenv("MOSIM_CONFIG", str(cfgfile))
    out = tmp_path / "t.jsonl"
    assert run(["simulate", "the ball rolled", "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["cfg"]["seed"] == 11


def test_env_var_lexicon(tmp_path, monkeypatch, capsys):
    lexfile = tmp_path / "lex.json"
    lexfile.write_text(json.dumps({
        "nouns": [{"lemma": "puck", "shape": "sphere",
                   "dimensions": {"radius": 0.05}, "mobile": True}]
    }))
    monkeypatch.setenv("MOSIM_LEXICON", str(lexfile))
    assert run(["parse", "the puck slid"]) == 0
    assert json.loads(capsys.readouterr().out)["theme"] == "puck"


@pytest.mark.parametrize("where,error", [
    ("--config", "ConfigFormatError"),
    ("--lexicon", "LexiconFormatError"),
    ("MOSIM_CONFIG", "ConfigFormatError"),
    ("MOSIM_LEXICON", "LexiconFormatError"),
    ("--program", "ProgramTextError"),
])
def test_non_utf8_input_file_exits_2_with_one_line(tmp_path, monkeypatch, capsys, where, error):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    if where == "--program":
        argv = ["enumerate", "--program", str(bad)]
    else:
        argv = ["simulate", "the ball rolled", "--out", str(tmp_path / "t.jsonl")]
        if where.startswith("--"):
            argv += [where, str(bad)]
        else:
            monkeypatch.setenv(where, str(bad))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: {bad} is not UTF-8") and err.count("\n") == 1


def _enumerate_roll(tmp_path):
    prog = tmp_path / "p.txt"
    prog.write_text("(tick roll)")
    return run(["enumerate", "--program", str(prog)])


def test_enumerate_missing_env_config_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MOSIM_CONFIG", str(tmp_path / "nonexistent.json"))
    assert _enumerate_roll(tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("IOError: ") and err.count("\n") == 1


def test_enumerate_bad_env_config_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"dt": 0}')
    monkeypatch.setenv("MOSIM_CONFIG", str(cfgfile))
    assert _enumerate_roll(tmp_path) == 2
    assert capsys.readouterr().err == "ConfigFormatError: dt must be positive\n"


def test_dt_and_speed_flags_change_the_kinematics(tmp_path):
    out = tmp_path / "fast.jsonl"
    # 2 m/s at 10 Hz: the 4.4 m gap closes in 22 ticks instead of 264
    assert run(["simulate", "the ball rolled to the wall", "--dt", "0.1",
                "--speed", "2.0", "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["cfg"]["dt"] == 0.1
    assert header["cfg"]["speed"] == 2.0
    assert header["frames"] == 23  # 22 ticks + initial state


def test_check_mismatched_scene_exits_2(tmp_path, capsys):
    _, out = simulate(tmp_path, "--seed", "42")
    assert run(["check", "--trace", str(out), "--sentence", "the bird flew"]) == 2
    assert "TraceSceneMismatch" in capsys.readouterr().err


def test_no_successful_run_exits_3(tmp_path, capsys):
    # goal too far for the frame budget: the while-loop exhausts and fails
    assert run(["simulate", "the ball rolled to the wall", "--max-frames", "50",
                "--out", str(tmp_path / "x.jsonl")]) == 3
    assert "NoSuccessfulRun" in capsys.readouterr().err


@pytest.mark.parametrize("noun, sentence", [
    ({"lemma": "ground", "shape": "plane", "mobile": False}, "the ball rolled to the ground"),
    ({"lemma": "floor", "shape": "sphere", "dimensions": {"radius": 0.5}, "mobile": True},
     "the floor rolled"),
], ids=["second-plane-noun", "floor-not-a-plane"])
def test_lexicon_breaking_the_plane_rule_exits_2_with_one_line(tmp_path, capsys, noun, sentence):
    lexfile = tmp_path / "lex.json"
    lexfile.write_text(json.dumps({"nouns": [noun]}))
    code, out = simulate(tmp_path, "--lexicon", str(lexfile), "--verify", sentence=sentence)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("LexiconFormatError: the floor is the only plane") and err.count("\n") == 1
    assert not out.exists()


def test_example_lexicon_sentence_verifies(tmp_path):
    example = Path(__file__).resolve().parents[1] / "docs" / "lexicon.example.json"
    code, _ = simulate(tmp_path, "--lexicon", str(example), "--verify",
                       sentence="the puck rolled to the crate")
    assert code == 0


def test_simulate_summary_and_report_print_the_same_metrics(tmp_path, capsys):
    code, _ = simulate(tmp_path, "--seed", "3", "--verify", sentence="the ball bounced")
    assert code == 0
    stdout = capsys.readouterr().out
    metrics = json.loads(stdout[stdout.index("{"):])["metrics"]
    assert f"path_length: {metrics['path_length']:.6g}\n" in stdout
    assert f"net_rotation: {metrics['net_rotation']:.6g}\n" in stdout


def test_a_closed_stdout_is_left_to_main(monkeypatch):
    # run() maps OSError to exit 2 itself, but not a broken pipe: main() must also
    # point stdout at devnull so the flush at exit cannot fail again
    from mosim import cli

    def closed_stdout(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_parse", closed_stdout)
    with pytest.raises(BrokenPipeError):
        run(["parse", "the ball rolled"])


@pytest.mark.parametrize("size", [1e-3, 1e3], ids=["smallest", "largest"])
def test_nouns_at_the_ends_of_the_size_range_verify_or_refuse(tmp_path, capsys, size):
    from mosim import errors

    lexfile = tmp_path / "lex.json"
    lexfile.write_text(json.dumps({"nouns": [
        {"lemma": "pebble", "shape": "sphere", "dimensions": {"radius": size}, "mobile": True},
        {"lemma": "crate", "shape": "box", "mobile": True,
         "dimensions": {"width": size, "height": size, "depth": size}},
        {"lemma": "drone", "shape": "sphere", "dimensions": {"radius": size}, "mobile": True,
         "default_altitude": size},
    ]}))
    sentences = [f"the ball rolled to the {noun}" for noun in ("pebble", "crate", "drone")]
    for noun in ("pebble", "crate", "drone"):
        for verb in ("rolled", "slid", "bounced", "flew", "moved"):
            sentences += [f"the {noun} {verb}{path}"
                          for path in ("", " to the wall", " from the wall", " to the floor")]
        sentences += [f"the {noun} arrived at the wall", f"the {noun} left from the wall"]
    documented = tuple(
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.MosimError)
    )
    for sentence in sentences:
        code, _ = simulate(tmp_path, "--lexicon", str(lexfile), "--verify",
                           "--max-frames", "1500", sentence=sentence)
        err = capsys.readouterr().err
        if code == 1:   # the one known family that fails its own sentence
            assert sentence.endswith("bounced to the floor"), sentence
        elif code != 0:
            assert code in (2, 3) and err.count("\n") == 1, (sentence, err)
            assert err.startswith(documented), (sentence, err)


# -- no input ends in a traceback ---------------------------------------------------
#
# The property of Claessen and Hughes (QuickCheck, ICFP 2000), derandomized: for any
# argv and any bytes in a config, lexicon, program or trace file, run() returns an
# exit code in {0, 1, 2, 3}, an error is one stderr line, and exit 1 comes only with
# a verification report.  A file is random bytes or a valid document with one or two
# values replaced; frame, bound and node limits stay small so each example is quick.
# A trace may instead have one key of its header, bindings or a body added, dropped or
# retyped, and then it must exit 2.

ODD_VALUES = st.sampled_from(
    [1, None, "x", [], {}, True, 1.5, 0, -1, 10**400, 1e308, -1e308, float("nan")]
) | st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.floats() | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
NUMBER_TEXT = st.sampled_from(["0.05", "0.1", "1", "2", "8", "1e300", "-1", "0", "nan", "x", ""])
COUNT_TEXT = st.integers(min_value=-2, max_value=200).map(str)
SENTENCES = st.sampled_from([
    "the ball rolled to the wall", "the ball bounced", "the bird flew to the wall", "the ball left",
    "the ball slid from the wall", "the wall rolled", "the block moved to the ball", "zorp",
]) | st.text(max_size=12)
PROGRAMS = st.sampled_from([
    b"(tick roll)", b"(star (choice (tick roll) (tick slide)) 3)",
    b"(seq (tick fly) (test (dc ball floor)))", b"(assign (loc ball) (vec 1 0.5 0))",
]) | st.binary(max_size=24) | st.text(alphabet="()abcdeiklnorstvy 0123456789.-", max_size=40).map(str.encode)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@st.composite
def mutated(draw, doc):
    """``doc`` with one or two of its values (or the whole of it) replaced or dropped."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(ODD_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(ODD_VALUES)
    return doc


def _json_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


def _jsonl_bytes(objs) -> bytes:
    objs = objs if isinstance(objs, list) else [objs]
    return "".join(json.dumps(obj) + "\n" for obj in objs).encode()


@st.composite
def csv_with_a_new_cell(draw, text):
    lines = text.splitlines()
    k = draw(st.integers(min_value=1, max_value=len(lines) - 1))
    cells = lines[k].split(",")
    cells[draw(st.integers(min_value=0, max_value=len(cells) - 1))] = draw(
        NUMBER_TEXT | st.text(max_size=4))
    lines[k] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@st.composite
def jsonl_with_a_new_number(draw, objs):
    """A record's time, or one of a body's pos and rot values, replaced: the file still reads."""
    objs = copy.deepcopy(objs)
    record = objs[draw(st.integers(min_value=1, max_value=len(objs) - 1))]
    odd = draw(st.sampled_from([1e308, -1e308, 1e30, 10**400, -0.0, 5e-324, 2**53 + 1, 1e15]))
    entry = record["bodies"][draw(st.sampled_from(sorted(record["bodies"])))]
    slot = draw(st.sampled_from(["time", "rot", 0, 1, 2]))
    if slot == "time":
        record["time"] = odd
    elif slot == "rot":
        entry["rot"] = odd
    else:
        entry["pos"][slot] = odd
    return _jsonl_bytes(objs)


# The keys a trace header, its bindings or a body may leave out, and values of each
# JSON type but null, which reads as an absent key.
OPTIONAL_KEYS = {"seed", "dt", "goal", "coords", "ground"}
RETYPED = [1, 1.5, "x", True, [], {}]


@st.composite
def header_key_fault(draw, docs):
    """A trace whose header, ``bindings`` or one body has a key added, a key it needs
    dropped, or a value replaced by one of another JSON type: each is refused."""
    objs = copy.deepcopy(docs["jsonl"])
    csv_lines = docs["csv"].splitlines()
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    header = objs[0] if fmt == "jsonl" else json.loads(csv_lines[0][2:])
    target = draw(st.sampled_from([header, header["bindings"], *header["bodies"].values()]))
    edit = draw(st.sampled_from(["add", "drop", "retype"]))
    if edit == "add":
        target[draw(st.text(max_size=6).filter(lambda key: key not in target))] = draw(ODD_VALUES)
    elif edit == "drop":
        del target[draw(st.sampled_from(sorted(set(target) - OPTIONAL_KEYS)))]
    else:
        key = draw(st.sampled_from(sorted(target)))
        target[key] = draw(st.sampled_from([v for v in RETYPED if type(v) is not type(target[key])]))
    if fmt == "jsonl":
        return _jsonl_bytes(objs)
    return "\n".join(["# " + json.dumps(header), *csv_lines[1:], ""]).encode()


@pytest.fixture(scope="module")
def valid_documents(tmp_path_factory):
    """A short jsonl and csv trace of the roll to the wall, the builtin lexicon and a config."""
    from mosim import builtin_lexicon, serialize_lexicon

    where = tmp_path_factory.mktemp("valid")
    traces = {}
    for fmt in ("jsonl", "csv"):
        path = where / f"t.{fmt}"
        assert run(["simulate", "the ball rolled to the wall", "--speed", "8", "--dt", "0.1",
                    "--format", fmt, "--out", str(path)]) == 0
        traces[fmt] = path.read_text()
    return {
        "jsonl": [json.loads(line) for line in traces["jsonl"].splitlines()],
        "csv": traces["csv"],
        "lexicon": json.loads(serialize_lexicon(builtin_lexicon())),
        "config": {"seed": 1, "dt": 0.05, "speed": 2.0, "ground_distance": 2.0,
                   "min_bare_frames": 3, "max_bare_frames": 6},
    }


@st.composite
def invocations(draw, docs, where):
    """An argv for run(), the bytes of each file it names, and whether it must exit 2."""
    files = {}
    refused = False

    def file(name, content):
        files[name] = draw(content)
        return str(where / name)

    def lexicon():
        return file("lexicon.json", mutated(docs["lexicon"]).map(_json_bytes) | st.binary(max_size=24))

    command = draw(st.sampled_from(["simulate", "parse", "check", "enumerate"]))
    argv = [command]
    options = {"--lexicon": st.builds(lexicon) | st.just(str(where / "absent.json"))}
    if command in ("simulate", "parse"):
        argv.append(draw(SENTENCES))
    if command == "simulate":
        argv += ["--out", str(where / "out"), "--max-frames", draw(COUNT_TEXT)]
        options.update({
            "--config": st.builds(lambda: file("config.json", mutated(docs["config"]).map(_json_bytes)
                                               | st.binary(max_size=24))),
            "--seed": st.integers().map(str) | NUMBER_TEXT, "--dt": NUMBER_TEXT, "--speed": NUMBER_TEXT,
            "--format": st.sampled_from(["jsonl", "csv", "xml"]), "--verify": st.none(),
        })
    elif command == "check":
        refused = draw(st.booleans())
        trace = header_key_fault(docs) if refused else (
            jsonl_with_a_new_number(docs["jsonl"]) | mutated(docs["jsonl"]).map(_jsonl_bytes)
            | csv_with_a_new_cell(docs["csv"]) | st.binary(max_size=48))
        argv += ["--trace", file("trace", trace), "--sentence",
                 draw(st.just("the ball rolled to the wall") | SENTENCES)]
    elif command == "enumerate":
        argv += ["--program", file("program.txt", PROGRAMS),
                 "--bound", draw(COUNT_TEXT), "--cap", draw(COUNT_TEXT)]
        options["--theme"] = SENTENCES
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=3)):
        value = draw(options[flag])
        argv += [flag] if value is None else [flag, value]
    return argv, files, refused


@seed(20161006)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_no_input_ends_in_a_traceback(tmp_path_factory, valid_documents, data):
    where = tmp_path_factory.getbasetemp() / "no-traceback"
    where.mkdir(exist_ok=True)
    argv, files, refused = data.draw(invocations(valid_documents, where))
    for name, content in files.items():
        (where / name).write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse: a usage error or --help
            assert exc.code in (0, 2), argv
            return
    assert code in (0, 1, 2, 3), argv
    assert code == 2 or not refused, (argv, files)
    if code == 1:
        assert '"overall": "fail"' in out.getvalue(), argv
    assert err.getvalue().count("\n") == (code >= 2), (argv, err.getvalue())
