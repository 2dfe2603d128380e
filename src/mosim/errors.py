"""Exception hierarchy shared by every stage of the pipeline.

Each stage raises a distinct class so the CLI can map failures onto its
exit-code contract (2 for input/build errors, 3 for search failures,
1 for a verification that ran and failed).
"""

from __future__ import annotations


class MosimError(Exception):
    """Base class for every error raised by this package."""


# -- lexicon and config files -------------------------------------------------

class DocumentFormatError(MosimError):
    """A malformed lexicon or config JSON document, located by field and line."""

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

class TraceSceneMismatch(MosimError):
    def __init__(self, message: str):
        super().__init__(message)


class DiamondNotAllowed(MosimError):
    def __init__(self) -> None:
        super().__init__("modal subformulas are not allowed in trace-level checks")


class TraceFormatError(MosimError):
    def __init__(self, message: str):
        super().__init__(message)
