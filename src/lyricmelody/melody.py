"""Melody and rhythm tokens, syllable alignment, and the meter.

A melody is a flat stream of note/rest tokens.  Melisma is encoded on the
note itself: ``syllable_start=True`` opens the span of the next syllable,
``False`` continues the current one.  A rest closes whatever span is open
and belongs to no syllable, so the syllable-to-note alignment is recoverable
by a single scan and is recomputed (and validated) whenever a Melody is
constructed.

Durations and onsets are exact rationals in quarter-note units; nothing in
this module touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import AlignmentError, MidiFormatError

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


class TokenKind(Enum):
    NOTE = "note"
    REST = "rest"


def _token_hash(token) -> int:
    """A token's hash, computed on first use and cached in its ``_hash``.

    Built from values that hash alike in every process (an Enum member and,
    before Python 3.12, None do not), so a cached hash stays valid in a
    token unpickled elsewhere.
    """
    h = token._hash
    if h is None:
        h = hash((token.kind is TokenKind.NOTE, token.duration,
                  -1 if token.pitch is None else token.pitch, token.syllable_start))
        object.__setattr__(token, "_hash", h)
    return h


@dataclass(frozen=True, slots=True)
class MelodyToken:
    kind: TokenKind
    duration: Fraction
    pitch: Optional[int] = None
    syllable_start: bool = False
    # the hash, computed on first use; not part of __init__, repr or ==
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    __hash__ = _token_hash

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"token duration must be positive, got {self.duration}")
        if self.kind is TokenKind.NOTE:
            if self.pitch is None or not 0 <= self.pitch <= 127:
                raise ValueError(f"note pitch must be a MIDI number 0-127, got {self.pitch}")
        else:
            if self.pitch is not None:
                raise ValueError("rest tokens carry no pitch")
            if self.syllable_start:
                raise ValueError("rest tokens never begin a syllable")

    @property
    def is_note(self) -> bool:
        return self.kind is TokenKind.NOTE


@dataclass(frozen=True, slots=True)
class RhythmToken:
    """A melody token without its pitch: what rhythm-first decoding emits.

    Reads like a :class:`MelodyToken` whose ``pitch`` is always None, and
    shares its hash, but never equals one.
    """

    kind: TokenKind
    duration: Fraction
    syllable_start: bool = False
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    pitch = None
    __hash__ = _token_hash
    is_note = MelodyToken.is_note

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"token duration must be positive, got {self.duration}")


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


@dataclass(frozen=True)
class Melody:
    """Token stream plus time signature and the derived syllable alignment.

    ``alignment[k]`` is the half-open token-index span of syllable ``k``'s
    notes.  Construction enforces the stream grammar: starts with a
    syllable-opening note, continuations only while a span is open, no two
    rests in a row.  The tokens and the meter are stored as tuples, so equal
    melodies compare and hash alike however they were given.  Immutable
    after construction.
    """

    tokens: tuple[MelodyToken, ...]
    time_signature: tuple[int, int] = (4, 4)
    alignment: tuple[tuple[int, int], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "time_signature", tuple(self.time_signature))
        if not self.tokens:
            raise AlignmentError("melody has no tokens")
        num, den = self.time_signature
        if num < 1 or den < 1:
            raise ValueError(f"bad time signature {self.time_signature}")
        spans: list[tuple[int, int]] = []
        open_start: Optional[int] = None
        prev_rest = False
        for idx, tok in enumerate(self.tokens):
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
        if not spans:
            raise AlignmentError("melody contains no syllable-starting note")
        object.__setattr__(self, "alignment", tuple(spans))

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
    """The meter rule that decoding, scoring and MIDI writing share: both
    parts at least 1, and parts a MIDI time-signature event can hold (a
    numerator of at most 255, a power-of-two denominator up to 2**255;
    other denominators are not metrically meaningful here).  Raises
    ValueError."""
    num, den = time_signature
    if num < 1 or den < 1:
        raise ValueError(f"unsupported meter {num}/{den}: both parts must be at least 1")
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
    out.  Raises ValueError for a meter :func:`check_meter` rejects.
    """
    check_meter(time_signature)
    num, den = time_signature
    bar = Fraction(4 * num, den)
    scale = lcm(bar.denominator, *{t.duration.denominator for t in tokens})
    strong = {s.numerator * (scale // s.denominator)
              for s in strong_offsets(time_signature) if scale % s.denominator == 0}
    return scale, bar.numerator * (scale // bar.denominator), strong


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
    import json

    try:
        doc = json.loads(source)
        tokens = []
        for t in doc["tokens"]:
            kind = TokenKind(t["kind"])
            duration = _duration(t["duration"])
            if kind is TokenKind.NOTE:
                # a bool is an int, and int() would truncate a float pitch
                pitch, start = t["pitch"], t["syllable_start"]
                if type(pitch) is not int or type(start) is not bool:
                    raise ValueError(f"a note needs an integer pitch and a boolean "
                                     f"syllable_start, got {pitch!r} and {start!r}")
                tokens.append(MelodyToken(kind, duration, pitch, start))
            else:
                tokens.append(MelodyToken(kind, duration))
        num, den = doc.get("time_signature", [4, 4])
        if type(num) is not int or type(den) is not int:
            raise ValueError(f"time signature parts must be integers, got {num!r}/{den!r}")
        check_meter((num, den))
        return Melody(tuple(tokens), (num, den))
    except (KeyError, TypeError, ValueError) as exc:
        raise MidiFormatError(f"invalid melody JSON: {exc}") from exc
