"""Seeded generators for lyric and melody fixtures.

Everything here is driven by a caller-supplied ``random.Random``, so fixture
corpora are reproducible and independent of global RNG state.  Training
melodies are plain random walks with no knowledge of the reward rules;
aligned melodies for a given lyric sheet exist for metric tests that need a
valid pairing but no particular musical quality.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .lyrics import LyricSequence, parse_lyrics
from .melody import Melody, MelodyToken, TokenKind

__all__ = [
    "random_lyrics",
    "random_training_melody",
    "random_aligned_melody",
]

_SYLLABLES = [
    "ni", "hao", "tian", "kong", "xin", "ming", "yue", "liang",
    "hua", "kai", "feng", "chui", "shan", "shui", "yun", "hai",
    "qing", "chun", "meng", "xiang", "ge", "sheng", "lu", "shang",
]

_EN_WORDS = [
    "morning", "light", "river", "song", "golden", "sky", "wander",
    "home", "ever", "shadow", "silver", "rain",
]


def random_lyrics(
    rng: random.Random,
    sentences: int = 3,
    tonal: bool = True,
    repeat: bool = False,
) -> LyricSequence:
    """A random annotated lyric sheet.

    ``repeat=True`` doubles the generated sentences into an A B A B layout so
    structure metrics and rewards have something to latch onto.
    """

    def one_sentence() -> str:
        words = []
        for _ in range(rng.randint(2, 4)):
            length = rng.choice([1, 1, 2]) if tonal else 1
            cls = rng.choice(["K", "A", "", ""])
            for pos in range(length):
                text = rng.choice(_SYLLABLES if tonal else _EN_WORDS)
                mark = str(rng.randint(1, 4)) if tonal else rng.choice(["'", "", ""])
                flags = "W" if pos == 0 else "I"
                if pos == 0 and cls:
                    flags += f",{cls}"
                words.append(f"{text}{mark}|{flags}")
        punctuation = rng.choice([".", ".", "?", ","])
        return " ".join(words) + " " + punctuation

    base = [one_sentence() for _ in range(max(1, sentences))]
    if repeat:
        base = base + base  # A B ... A B ...
    return parse_lyrics("\n".join(base))


_DEFAULT_DURATIONS = (Fraction(1, 2), Fraction(1), Fraction(2))


def random_training_melody(
    rng: random.Random,
    length: Optional[int] = None,
    pitch_range: tuple[int, int] = (60, 72),
    durations: Sequence[Fraction] = _DEFAULT_DURATIONS,
    rest_probability: float = 0.12,
    melisma_probability: float = 0.2,
) -> Melody:
    """A random-walk melody of ``length`` notes (16-32 if None, a draw) for
    scorer training; reward-agnostic on purpose.  The walk ends on a note and
    starts on a syllable start."""
    lo, hi = pitch_range
    length = length if length is not None else rng.randint(16, 32)
    if length < 1:
        raise ValueError(f"length must be at least 1 note, got {length}")
    pitch = rng.randint(lo, hi)
    tokens: list[MelodyToken] = []
    while sum(1 for t in tokens if t.is_note) < length:
        can_rest = tokens and tokens[-1].kind is TokenKind.NOTE
        if can_rest and rng.random() < rest_probability:
            tokens.append(MelodyToken(TokenKind.REST, rng.choice(list(durations))))
            continue
        step = rng.choice([-4, -2, -2, -1, 0, 1, 2, 2, 4])
        pitch = min(hi, max(lo, pitch + step))
        starts = True
        if tokens and tokens[-1].is_note and rng.random() < melisma_probability:
            starts = False
        tokens.append(MelodyToken(TokenKind.NOTE, rng.choice(list(durations)), pitch, starts))
    return Melody(tuple(tokens))


def random_aligned_melody(
    lyrics: LyricSequence,
    rng: random.Random,
    pitch_range: tuple[int, int] = (60, 72),
    durations: Sequence[Fraction] = _DEFAULT_DURATIONS,
    melisma_probability: float = 0.25,
    rest_probability: float = 0.15,
) -> Melody:
    """A random melody correctly aligned to the given lyrics."""
    lo, hi = pitch_range
    pitch = rng.randint(lo, hi)
    tokens: list[MelodyToken] = []
    for k in range(len(lyrics)):
        notes = 2 if rng.random() < melisma_probability else 1
        for i in range(notes):
            step = rng.choice([-3, -2, -1, 0, 1, 2, 3])
            pitch = min(hi, max(lo, pitch + step))
            tokens.append(
                MelodyToken(TokenKind.NOTE, rng.choice(list(durations)), pitch, i == 0)
            )
        if k < len(lyrics) - 1 and rng.random() < rest_probability:
            tokens.append(MelodyToken(TokenKind.REST, rng.choice(list(durations))))
    return Melody(tuple(tokens))
