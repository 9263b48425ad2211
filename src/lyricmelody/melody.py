"""Melody and rhythm tokens, syllable alignment, and the meter.

A melody is a flat stream of note/rest tokens.  Melisma is encoded on the
note itself: ``syllable_start=True`` opens the span of the next syllable,
``False`` continues the current one.  A rest closes whatever span is open
and belongs to no syllable, so the syllable-to-note alignment is recoverable
by a single scan and is recomputed (and validated) whenever a Melody is
constructed, as is the meter (:func:`check_meter`): nothing that takes a
Melody checks either again.

Durations and onsets are exact rationals in quarter-note units; nothing in
this module touches floats.

Tokens are interned: building, unpickling, copying or ``replace``-ing one returns
the one instance of its value, from a module-level table that keeps every value
the process builds.  So ``==`` and ``hash`` are identity's, in C, and a token's
fields never depend on the spelling (``1`` or ``Fraction(1)``) that built it first.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import AlignmentError, MidiFormatError
from .lyrics import LyricSequence, _Record, _fields, _json, _set

__all__ = [
    "TokenKind",
    "MelodyToken",
    "RhythmToken",
    "Melody",
    "BeatStrength",
    "note",
    "rest",
    "melody_to_json",
    "melody_from_json",
]

#: Terminal symbol appended to every training sequence (exported by ``scorer``).
END = "<end>"


class TokenKind(Enum):
    NOTE = "note"
    REST = "rest"

    __hash__ = object.__hash__  # in C, for the token table's keys


#: (class, kind, duration's numerator, denominator, pitch, start flag) to its one token
_TOKENS: dict = {}
#: each interned token's duration as its (numerator, denominator), which hash and compare in C
_RATIOS: dict = {}
#: per meter, its strong offsets as (numerator, denominator) pairs
_STRONG: dict = {}


def _token(cls, kind, duration, pitch=None, syllable_start=False):
    """The one ``cls`` token of these fields (``pitch`` None for a rhythm token).  A first
    build is checked (a failure adds no entry), stores canonical field types, which equal
    spellings' keys find, and enters by ``setdefault``: racing threads get the one winner."""
    try:
        num, den = duration.as_integer_ratio()
    except AttributeError:
        raise TypeError(f"token duration must be a number, got {duration!r}") from None
    token = _TOKENS.get((cls, kind, num, den, pitch, syllable_start))
    if token is not None:
        return token
    if type(kind) is not TokenKind:
        raise TypeError(f"token kind must be a TokenKind, got {kind!r}")
    if num <= 0:
        raise ValueError(f"token duration must be positive, got {duration}")
    if cls is MelodyToken and kind is TokenKind.NOTE:
        if pitch not in range(128):
            raise ValueError(f"note pitch must be a MIDI number 0-127, got {pitch}")
        pitch = int(pitch)
    elif pitch is not None:  # a rhythm token's is always None
        raise ValueError("rest tokens carry no pitch")
    elif syllable_start and cls is MelodyToken:
        raise ValueError("rest tokens never begin a syllable")
    fields = {"kind": kind, "duration": Fraction(num, den), "pitch": pitch,
              "syllable_start": bool(syllable_start)}
    token = object.__new__(cls)
    for name in cls.__slots__:
        _set(token, name, fields[name])
    _RATIOS[token] = num, den  # before the token is published, so any thread finds its ratio
    return _TOKENS.setdefault((cls, kind, num, den, pitch, fields["syllable_start"]), token)


class MelodyToken(_Record, frozen=True):
    """A note or a rest, interned: ``==`` and ``hash`` are identity's.  Built
    as ``MelodyToken(kind, duration, pitch=None, syllable_start=False)``;
    pickle, copy and ``__replace__`` go through the constructor, so they get
    the one instance too."""

    __slots__ = __match_args__ = ("kind", "duration", "pitch", "syllable_start")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity's, in C
    __new__ = _token

    @property
    def is_note(self) -> bool:
        return self.kind is TokenKind.NOTE


class RhythmToken(_Record, frozen=True):
    """A melody token without its pitch: what rhythm-first decoding emits.

    Reads like a :class:`MelodyToken` whose ``pitch`` is always None, but never equals one.
    """

    __slots__ = __match_args__ = ("kind", "duration", "syllable_start")
    __eq__, __hash__ = object.__eq__, object.__hash__
    pitch = None
    is_note = MelodyToken.is_note

    def __new__(cls, kind: TokenKind, duration, syllable_start: bool = False) -> "RhythmToken":
        return _token(cls, kind, duration, None, syllable_start)


def _duration(value) -> Fraction:
    """The duration a model token or a JSON document spells: an ASCII ``n``
    or ``n/d`` string (``d`` not 0), as ``str(Fraction)`` writes a positive
    one, or a JSON integer that is not a bool.  No exponent, so a short text
    never spells a huge number.  ValueError if it spells none."""
    if type(value) is int:
        return Fraction(value)
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        den = den if slash else "1"
        if num.isdigit() and den.isdigit() and den.strip("0"):
            return Fraction(int(num), int(den))
    raise ValueError(f"duration {value!r} is not n or n/d")


def note(pitch: int, duration, start: bool = True) -> MelodyToken:
    return MelodyToken(TokenKind.NOTE, Fraction(duration), pitch, start)


def rest(duration) -> MelodyToken:
    return MelodyToken(TokenKind.REST, Fraction(duration))


class Melody(_Record, frozen=True):
    """Token stream plus time signature and the derived syllable alignment.

    ``alignment[k]`` is the half-open token-index span of syllable ``k``'s
    notes.  Construction enforces the stream grammar: starts with a
    syllable-opening note, continuations only while a span is open, no two
    rests in a row, no token but a :class:`MelodyToken` (TypeError), and a
    meter :func:`check_meter` accepts (ValueError).
    The tokens and the meter are stored as tuples, so equal melodies compare
    and hash alike however they were given.  Immutable after construction.
    """

    __match_args__, _derived = ("tokens", "time_signature"), ("alignment",)

    def __init__(self, tokens: Sequence[MelodyToken], time_signature: tuple[int, int] = (4, 4)):
        _set(self, "tokens", tuple(tokens))
        _set(self, "time_signature", tuple(time_signature))
        check_meter(self.time_signature)
        if not self.tokens:
            raise AlignmentError("melody has no tokens")
        spans: list[tuple[int, int]] = []
        open_start: Optional[int] = None
        prev_rest = False
        for idx, tok in enumerate(self.tokens):
            if type(tok) is not MelodyToken:  # a rhythm token has no pitch to sound
                raise TypeError(f"melody token {idx} must be a MelodyToken, got {tok!r}")
            if tok.kind is TokenKind.REST:
                if idx == 0:
                    raise AlignmentError("melody must not begin with a rest")
                if prev_rest:
                    raise AlignmentError(f"consecutive rests at token {idx}")
                if open_start is not None:
                    spans.append((open_start, idx))
                    open_start = None
                prev_rest = True
                continue
            prev_rest = False
            if tok.syllable_start:
                if open_start is not None:
                    spans.append((open_start, idx))
                open_start = idx
            else:
                if open_start is None:
                    raise AlignmentError(
                        f"continuation note at token {idx} has no open syllable span"
                    )
        if open_start is not None:
            spans.append((open_start, len(self.tokens)))
        _set(self, "alignment", tuple(spans))

    @property
    def syllable_count(self) -> int:
        return len(self.alignment)

    def span_notes(self, k: int) -> list[MelodyToken]:
        start, stop = self.alignment[k]
        return [t for t in self.tokens[start:stop] if t.is_note]

    def span_pitches(self, k: int) -> list[int]:
        return [t.pitch for t in self.span_notes(k)]

    def total_duration(self) -> Fraction:
        return sum((t.duration for t in self.tokens), Fraction(0))


def _check_aligned(lyrics: LyricSequence, melody: Melody) -> None:
    """The one alignment rule: a melody covers each lyric syllable once."""
    if melody.syllable_count != len(lyrics):
        raise AlignmentError(f"alignment fails: {melody.syllable_count} melody syllables "
                             f"vs {len(lyrics)} lyric syllables")


class BeatStrength(Enum):
    STRONG = "strong"
    WEAK = "weak"


_DOWNBEAT = frozenset({Fraction(0)})
_DOWNBEAT_AND_THREE = frozenset({Fraction(0), Fraction(2)})


def strong_offsets(time_signature: tuple[int, int]) -> frozenset[Fraction]:
    """Bar offsets (in quarters) that count as strong for a simple meter.

    Beat 1 is strong everywhere; 4/4 additionally accents beat 3.
    """
    return _DOWNBEAT_AND_THREE if time_signature == (4, 4) else _DOWNBEAT


def check_meter(time_signature: tuple[int, int]) -> None:
    """The meter rule that every :class:`Melody` (so scoring and MIDI writing)
    and every decode share: both parts ``int`` (not bool) and at least 1,
    and parts a MIDI time-signature event can hold (a numerator of at most
    255, a power-of-two denominator up to 2**255; other denominators are not
    metrically meaningful here).  Raises ValueError."""
    num, den = time_signature
    if type(num) is not int or type(den) is not int:
        raise ValueError(f"unsupported meter {num!r}/{den!r}: both parts must be integers")
    if num < 1 or den < 1:
        raise ValueError(f"unsupported meter {num}/{den}: time signature parts must be at least 1")
    if num > 255:
        raise ValueError(f"unsupported meter {num}/{den}: numerator must be at most 255")
    if den & (den - 1) != 0 or den.bit_length() > 256:
        raise ValueError(
            f"unsupported meter {num}/{den}: denominator must be a power of two up to 2**255"
        )


def _tick_clock(time_signature: tuple[int, int], tokens: Sequence) -> tuple[int, int, set[int]]:
    """The integer-tick clock of a token sequence in a meter: (ticks per
    quarter, bar length in ticks, strong bar offsets in ticks).

    A quarter holds the lcm of the bar's and every token duration's
    denominator in ticks, so every onset is a whole number of ticks.  A
    strong offset that is not a whole tick is never an onset and is left
    out.  The meter is a Melody's or a decode's, so :func:`check_meter` passed it.
    It reads interned duration ratios and a meter's strong offsets once: no ``Fraction``.
    """
    num, den = time_signature  # the bar is 4 * num / den quarters
    scale = lcm(den // gcd(4 * num, den), *{_RATIOS[t][1] for t in tokens})
    strong = _STRONG.get(time_signature)
    if strong is None:  # read once per meter
        strong = [s.as_integer_ratio() for s in strong_offsets(time_signature)]
        _STRONG[time_signature] = strong
    return scale, 4 * num * scale // den, {n * (scale // d) for n, d in strong if scale % d == 0}


def melody_to_json(melody: Melody) -> str:
    import json

    doc = {
        "time_signature": list(melody.time_signature),
        "tokens": [
            {
                "kind": t.kind.value,
                "duration": str(t.duration),
                **({"pitch": t.pitch, "syllable_start": t.syllable_start} if t.is_note else {}),
            }
            for t in melody.tokens
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def melody_from_json(source: str) -> Melody:
    doc = _json(source, "melody JSON", MidiFormatError)
    try:
        tokens, meter = _fields(doc, "document", {"tokens": "a list"}, {"time_signature": "a list"})
        melody = []
        for i, t in enumerate(tokens):
            fields = {"kind": TokenKind, "duration": _duration}
            if isinstance(t, dict) and t.get("kind") == TokenKind.NOTE.value:
                fields.update(pitch="an integer", syllable_start="a boolean")
            melody.append(MelodyToken(*_fields(t, f"token {i}", fields)))
        return Melody(tuple(melody), (4, 4) if meter is None else meter)
    except ValueError as exc:
        raise MidiFormatError(f"invalid melody JSON: {exc}") from exc
