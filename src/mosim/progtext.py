"""Parenthesized text form for programs and formulas.

This is the debug surface consumed by the `enumerate` subcommand and
emitted in failure details; docs/formats.md documents the grammar.
Example: ``(seq (choice (tick roll ball) (tick slide ball)) (test (ec ball floor)))``.
"""

from __future__ import annotations

import math

from .lexicon import TICK_ACTIONS
from .programs import (
    EC,
    Add,
    And,
    Assign,
    At,
    Attr,
    AttrTerm,
    Choice,
    Const,
    DC,
    Diamond,
    DirectedAssign,
    Eq,
    Formula,
    Leq,
    Not,
    Or,
    Program,
    Scale,
    Seq,
    Star,
    Sub,
    Term,
    Test,
    Tick,
    truth,
)
from .errors import ProgramTextError

DEFAULT_THEME = "ball"


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_term(term: Term) -> str:
    if isinstance(term, Const):
        if isinstance(term.value, tuple):
            return "(vec " + " ".join(_fmt_num(v) for v in term.value) + ")"
        return _fmt_num(term.value)
    if isinstance(term, AttrTerm):
        return f"({term.attr.name} {term.attr.obj})"
    if isinstance(term, Add):
        return f"(add {format_term(term.left)} {format_term(term.right)})"
    if isinstance(term, Sub):
        return f"(sub {format_term(term.left)} {format_term(term.right)})"
    if isinstance(term, Scale):
        return f"(scale {_fmt_num(term.factor)} {format_term(term.term)})"
    raise TypeError(f"not a term: {term!r}")


def format_formula(f: Formula) -> str:
    if isinstance(f, EC):
        return f"(ec {f.a} {f.b})"
    if isinstance(f, DC):
        return f"(dc {f.a} {f.b})"
    if isinstance(f, At):
        return f"(at {f.a} {f.b})"
    if isinstance(f, Eq):
        return f"(eq {format_term(f.left)} {format_term(f.right)} {_fmt_num(f.tol)})"
    if isinstance(f, Leq):
        return f"(leq {format_term(f.left)} {format_term(f.right)})"
    if isinstance(f, Not):
        return f"(not {format_formula(f.sub)})"
    if isinstance(f, (And, Or)):
        name = "and" if isinstance(f, And) else "or"
        parts = _flatten(f, type(f))
        return f"({name} " + " ".join(format_formula(p) for p in parts) + ")"
    if isinstance(f, Diamond):
        return f"(diamond {format_program(f.program)} {format_formula(f.formula)})"
    raise TypeError(f"not a formula: {f!r}")


def _flatten(node, klass):
    parts = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, klass):
            stack.append(item.right if klass in (And, Or) else item.second)
            stack.append(item.left if klass in (And, Or) else item.first)
        else:
            parts.append(item)
    return parts


def format_program(p: Program) -> str:
    if isinstance(p, Assign):
        return f"(assign ({p.attr.name} {p.attr.obj}) {format_term(p.term)})"
    if isinstance(p, DirectedAssign):
        return f"(dassign ({p.attr.name} {p.attr.obj}) {format_term(p.term)})"
    if isinstance(p, Test):
        return f"(test {format_formula(p.formula)})"
    if isinstance(p, Tick):
        return f"(tick {p.action} {p.theme})"
    if isinstance(p, Seq):
        parts = _flatten(p, Seq)
        return "(seq " + " ".join(format_program(q) for q in parts) + ")"
    if isinstance(p, Choice):
        return f"(choice {format_program(p.left)} {format_program(p.right)})"
    if isinstance(p, Star):
        return f"(star {format_program(p.body)} {p.bound})"
    raise TypeError(f"not a program: {p!r}")


# -- parsing -------------------------------------------------------------------


def _lex(text: str) -> list[str]:
    tokens: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch in "()":
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(ch)
        elif ch.isspace():
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


def _read_sexpr(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise ProgramTextError("unexpected end of input")
    token = tokens[pos]
    if token == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_sexpr(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise ProgramTextError("unbalanced parenthesis")
        return items, pos + 1
    if token == ")":
        raise ProgramTextError("unexpected ')'")
    return token, pos + 1


def _num(atom, what: str) -> float:
    if not isinstance(atom, str):
        raise ProgramTextError(f"{what} must be a number")
    try:
        x = float(atom)
    except ValueError:
        raise ProgramTextError(f"{what} must be a number, got {atom!r}") from None
    if not math.isfinite(x):
        raise ProgramTextError(f"{what} must be finite, got {atom!r}")
    return x


def _atom(item, what: str) -> str:
    if not isinstance(item, str):
        raise ProgramTextError(f"{what} must be a bare token")
    return item


def _arity(items: list, n: int, form: str) -> None:
    if len(items) != n + 1:
        raise ProgramTextError(f"({form} ...) takes {n} argument(s), got {len(items) - 1}")


def _parse_attr(item) -> Attr:
    if not isinstance(item, list) or len(item) != 2 or item[0] not in ("loc", "rot", "vel"):
        raise ProgramTextError("expected an attribute: (loc|rot|vel OBJECT)")
    return Attr(_atom(item[1], "object id"), item[0])


def _parse_term(item) -> Term:
    if isinstance(item, str):
        return Const(_num(item, "constant"))
    if not item:
        raise ProgramTextError("empty term")
    head = item[0]
    if head == "vec":
        _arity(item, 3, "vec")
        return Const(tuple(_num(x, "vector component") for x in item[1:]))
    if head in ("loc", "rot", "vel"):
        return AttrTerm(_parse_attr(item))
    if head == "add":
        _arity(item, 2, "add")
        return Add(_parse_term(item[1]), _parse_term(item[2]))
    if head == "sub":
        _arity(item, 2, "sub")
        return Sub(_parse_term(item[1]), _parse_term(item[2]))
    if head == "scale":
        _arity(item, 2, "scale")
        return Scale(_num(item[1], "scale factor"), _parse_term(item[2]))
    raise ProgramTextError(f"unknown term form {head!r}")


def _parse_formula(item) -> Formula:
    if item == "true":
        return truth()
    if isinstance(item, str) or not item:
        raise ProgramTextError(f"expected a formula, got {item!r}")
    head = item[0]
    if head in ("ec", "dc", "at"):
        _arity(item, 2, head)
        klass = {"ec": EC, "dc": DC, "at": At}[head]
        return klass(_atom(item[1], "object id"), _atom(item[2], "object id"))
    if head == "eq":
        _arity(item, 3, "eq")
        tol = _num(item[3], "tolerance")
        try:
            return Eq(_parse_term(item[1]), _parse_term(item[2]), tol)
        except ValueError as exc:
            raise ProgramTextError(str(exc)) from None
    if head == "leq":
        _arity(item, 2, "leq")
        return Leq(_parse_term(item[1]), _parse_term(item[2]))
    if head == "not":
        _arity(item, 1, "not")
        return Not(_parse_formula(item[1]))
    if head in ("and", "or"):
        if len(item) < 3:
            raise ProgramTextError(f"({head} ...) takes at least 2 arguments")
        klass = And if head == "and" else Or
        result = _parse_formula(item[1])
        for sub in item[2:]:
            result = klass(result, _parse_formula(sub))
        return result
    if head == "diamond":
        _arity(item, 2, "diamond")
        return Diamond(_parse_program_item(item[1]), _parse_formula(item[2]))
    raise ProgramTextError(f"unknown formula form {head!r}")


def _parse_program_item(item) -> Program:
    if isinstance(item, str) or not item:
        raise ProgramTextError(f"expected a program, got {item!r}")
    head = item[0]
    if head == "tick":
        if len(item) != 2:
            _arity(item, 2, "tick")
        action = _atom(item[1], "action")
        if action not in TICK_ACTIONS:
            raise ProgramTextError(f"unknown tick action {action!r} (one of {', '.join(sorted(TICK_ACTIONS))})")
        return Tick(action, DEFAULT_THEME if len(item) == 2 else _atom(item[2], "theme"))
    if head == "test":
        _arity(item, 1, "test")
        return Test(_parse_formula(item[1]))
    if head == "assign":
        _arity(item, 2, "assign")
        return Assign(_parse_attr(item[1]), _parse_term(item[2]))
    if head == "dassign":
        _arity(item, 2, "dassign")
        return DirectedAssign(_parse_attr(item[1]), _parse_term(item[2]))
    if head == "seq":
        if len(item) < 3:
            raise ProgramTextError("(seq ...) takes at least 2 arguments")
        parts = [_parse_program_item(sub) for sub in item[1:]]
        result = parts[-1]
        for part in reversed(parts[:-1]):
            result = Seq(part, result)
        return result
    if head == "choice":
        _arity(item, 2, "choice")
        return Choice(_parse_program_item(item[1]), _parse_program_item(item[2]))
    if head == "star":
        _arity(item, 2, "star")
        bound_f = _num(item[2], "iteration bound")
        if bound_f != int(bound_f) or bound_f < 0:
            raise ProgramTextError("iteration bound must be a nonnegative integer")
        return Star(_parse_program_item(item[1]), int(bound_f))
    raise ProgramTextError(f"unknown program form {head!r}")


def parse_program(text: str) -> Program:
    tokens = _lex(text)
    if not tokens:
        raise ProgramTextError("empty program text")
    try:
        item, pos = _read_sexpr(tokens, 0)
        if pos != len(tokens):
            raise ProgramTextError("trailing tokens after program")
        return _parse_program_item(item)
    except RecursionError:
        raise ProgramTextError("program text is nested too deeply") from None
