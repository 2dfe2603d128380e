"""Exception hierarchy shared by every stage of the pipeline.

Each stage raises a distinct class so the CLI can map failures onto its
exit-code contract (2 for input/build errors, 3 for search failures,
1 for a verification that ran and failed).  The lexicon and config loaders
and the trace reader check their documents here too, with one typed field walk.
"""

from __future__ import annotations

import json
import math


class MosimError(Exception):
    """Base class for every error raised by this package."""


# -- lexicon, config and trace files -------------------------------------------

class DocumentFormatError(MosimError):
    """A malformed lexicon, config or trace document, located by field and line."""

    def __init__(self, message: str, field: str | None = None, line: int | None = None):
        self.field = field
        self.line = line
        where = []
        if field is not None:
            where.append(f"field {field}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


class LexiconFormatError(DocumentFormatError):
    pass


class ConfigFormatError(DocumentFormatError):
    pass


class TraceFormatError(DocumentFormatError):
    """A malformed trace file: the message names the first fault found."""


def parse_json(text: str, error: type[DocumentFormatError]):
    """The JSON value ``text`` holds; text the parser refuses raises ``error``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise error("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise error("invalid JSON: a number with too many digits") from None


# The kinds of value a document field takes, named as the walk's messages name them.
NUMBER, FINITE, INTEGER, STRING = "a number", "a finite number", "an integer", "a string"
BOOLEAN, LIST, STRINGS, NUMBERS = "a boolean", "a list", "a list of strings", "a list of finite numbers"
OBJECT, ANY = "an object", "any value"
REQUIRED = object()  # the default of a field that must be present


def _is_finite_number(v) -> bool:
    try:
        return _IS_KIND[NUMBER](v) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


_IS_KIND = {
    NUMBER: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    FINITE: _is_finite_number,
    INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    STRING: lambda v: isinstance(v, str),
    BOOLEAN: lambda v: isinstance(v, bool),
    LIST: lambda v: isinstance(v, list),
    STRINGS: lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    NUMBERS: lambda v: isinstance(v, list) and all(map(_is_finite_number, v)),
    OBJECT: lambda v: isinstance(v, dict),
    ANY: lambda v: True,
}


def walk_fields(obj, spec: dict, where: str | None, error: type[DocumentFormatError]) -> dict:
    """The fields of the JSON object ``obj``, each checked against ``spec``.

    ``spec`` maps a field name to ``(kind, default)``: an absent field takes its
    default unless that is ``REQUIRED``, and null stands for an absent field whose
    default is None.  A number comes back as a float, infinite where it is too
    large for one (as JSON reads ``1e999``), and the record it fills checks its
    range; a finite number is a number that is none of these.  A list of numbers
    comes back as a tuple of floats; a string, a boolean or a number that is not
    finite in it is a fault.  A fault raises ``error`` at field ``where.name``,
    or ``name``.
    """
    if not isinstance(obj, dict):
        raise error(f"expected {OBJECT}", field=where)
    prefix = f"{where}." if where else ""
    for key in obj:
        if key not in spec:
            raise error("unknown field", field=prefix + key)
    fields = {}
    for key, (kind, default) in spec.items():
        if key not in obj:
            if default is REQUIRED:
                raise error("missing field", field=prefix + key)
            fields[key] = default
            continue
        value = obj[key]
        if value is None is default:
            pass
        elif not _IS_KIND[kind](value):
            raise error(f"expected {kind}", field=prefix + key)
        elif kind is NUMBER or kind is FINITE:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf if value > 0 else -math.inf
        elif kind is NUMBERS:
            value = tuple(map(float, value))
        fields[key] = value
    return fields


class DuplicateEntryError(MosimError):
    def __init__(self, lemma: str):
        self.lemma = lemma
        super().__init__(f"duplicate lexicon entry: {lemma!r}")


class UnknownWordError(MosimError):
    def __init__(self, token: str):
        self.token = token
        super().__init__(f"unknown word: {token!r}")


# -- parser -----------------------------------------------------------------

class IllegalCharacterError(MosimError):
    def __init__(self, char: str, byte_offset: int):
        self.char = char
        self.byte_offset = byte_offset
        super().__init__(f"illegal character {char!r} at byte offset {byte_offset}")


class GrammarError(MosimError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (token position {position})")


class PrepositionMismatchError(MosimError):
    def __init__(self, prep: str, verb: str, allowed: tuple[str, ...]):
        self.prep = prep
        self.verb = verb
        super().__init__(
            f"preposition {prep!r} not allowed with {verb!r} (allowed: {', '.join(allowed) or 'none'})"
        )


# -- programs and execution --------------------------------------------------

class UnboundObjectError(MosimError):
    def __init__(self, object_id: str):
        self.object_id = object_id
        super().__init__(f"object {object_id!r} is not bound in this world state")


class DimensionMismatchError(MosimError):
    """Term arithmetic mixed scalars and vectors inconsistently."""


class NonFiniteValueError(MosimError):
    """A program literal, or a value an assignment would put into a state, is not
    finite: infinite, NaN or an integer too large for a float."""


class NoSuccessfulRun(MosimError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"no successful run: {detail}")


class ExplosionGuard(MosimError):
    def __init__(self, nodes: int, cap: int):
        self.nodes = nodes
        self.cap = cap
        super().__init__(f"enumeration exceeded node cap ({nodes} > {cap})")


class IncompatiblePathError(MosimError):
    def __init__(self, verb: str, prep: str):
        self.verb = verb
        self.prep = prep
        super().__init__(f"verb {verb!r} does not take a {prep!r} path")


class ProgramTextError(MosimError):
    """Malformed textual program given to the enumerate front end."""


# -- scene and kinematics ----------------------------------------------------

class ImmobileThemeError(MosimError):
    def __init__(self, lemma: str):
        self.lemma = lemma
        super().__init__(f"theme {lemma!r} is immobile and cannot move")


class UnsupportedShapePair(MosimError):
    def __init__(self, a: str, b: str):
        super().__init__(f"no surface distance defined for shape pair ({a}, {b})")


class SceneBuildError(MosimError):
    """Scene invariants cannot be satisfied (e.g. bodies interpenetrate at t=0)."""


# -- verification and trace files ---------------------------------------------

class TraceSceneMismatch(MosimError, ValueError):
    """A trace that is not the run of the scene and config it is paired with."""
