"""Tokenizer and recursive-descent parser for the controlled fragment.

The grammar is fixed and unambiguous:

    S -> Det N V (P Det N)?        Det in {the, a}, P in {to, from, towards, at}

Verbs are resolved through the lexicon's past-form table, nouns by lemma.
The parser is total: every token list yields either an event frame whose
fields resolve in the lexicon or one specific error.
"""

from __future__ import annotations

from .errors import (
    GrammarError,
    IllegalCharacterError,
    PrepositionMismatchError,
    UnknownWordError,
)
from .lexicon import PREPOSITIONS, Lexicon, VerbEntry
from .record import record

DETERMINERS = ("the", "a")


@record
class PathComponent:
    prep: str
    ground: str


@record
class EventFrame:
    verb: VerbEntry
    theme: str
    path: PathComponent | None = None

    def to_dict(self) -> dict:
        out: dict = {"verb": self.verb.lemma, "theme": self.theme}
        if self.path is not None:
            out["path"] = {"prep": self.path.prep, "ground": self.path.ground}
        return out


def tokenize(text: str) -> list[str]:
    """Case-folded alphabetic tokens; one trailing period is allowed."""
    stripped = text.rstrip()
    if stripped.endswith("."):
        stripped = stripped[:-1]
    tokens: list[str] = []
    current: list[str] = []
    for i, ch in enumerate(stripped):
        if ch.isalpha():
            current.append(ch)
        elif ch.isspace():
            if current:
                tokens.append("".join(current).casefold())
                current = []
        else:
            offset = len(text[:i].encode("utf-8"))
            raise IllegalCharacterError(ch, offset)
    if current:
        tokens.append("".join(current).casefold())
    return tokens


def _classify(token: str, lex: Lexicon) -> str:
    if token in DETERMINERS:
        return "determiner"
    if token in PREPOSITIONS:
        return "preposition"
    if lex.is_noun(token):
        return "noun"
    if lex.is_verb_form(token):
        return "verb"
    return "unknown"


def _expect_det(tokens: list[str], i: int, lex: Lexicon) -> None:
    if i >= len(tokens):
        raise GrammarError("expected a determiner", i)
    if tokens[i] not in DETERMINERS:
        if _classify(tokens[i], lex) == "unknown":
            raise UnknownWordError(tokens[i])
        raise GrammarError(f"expected a determiner, got {tokens[i]!r}", i)


def _expect_noun(tokens: list[str], i: int, lex: Lexicon) -> str:
    if i >= len(tokens):
        raise GrammarError("expected a noun", i)
    token = tokens[i]
    if lex.is_noun(token):
        return token
    if _classify(token, lex) == "unknown":
        raise UnknownWordError(token)
    raise GrammarError(f"expected a noun, got {token!r}", i)


def parse_sentence(tokens: list[str], lex: Lexicon) -> EventFrame:
    """Parse a token list into an event frame, or raise one grammar error."""
    _expect_det(tokens, 0, lex)
    theme = _expect_noun(tokens, 1, lex)
    if len(tokens) < 3:
        raise GrammarError("expected a verb", 2)
    verb_token = tokens[2]
    try:
        verb = lex.lookup_verb_by_form(verb_token)
    except UnknownWordError:
        if _classify(verb_token, lex) == "unknown":
            raise
        raise GrammarError(f"expected a verb, got {verb_token!r}", 2) from None

    if len(tokens) == 3:
        return EventFrame(verb, theme, None)

    prep = tokens[3]
    if prep not in PREPOSITIONS:
        if _classify(prep, lex) == "unknown":
            raise UnknownWordError(prep)
        raise GrammarError(f"expected a preposition, got {prep!r}", 3)
    if prep not in verb.allowed_preps:
        raise PrepositionMismatchError(prep, verb.lemma, tuple(sorted(verb.allowed_preps)))
    _expect_det(tokens, 4, lex)
    ground = _expect_noun(tokens, 5, lex)
    if len(tokens) > 6:
        raise GrammarError("unexpected trailing tokens", 6)
    return EventFrame(verb, theme, PathComponent(prep, ground))


def parse_text(text: str, lex: Lexicon) -> EventFrame:
    return parse_sentence(tokenize(text), lex)
