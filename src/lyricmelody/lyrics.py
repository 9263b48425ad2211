"""Annotated lyrics: parsing, sentence intonation, and repetition structure.

The input format keeps all linguistic preprocessing (syllabification, tone
lookup, word segmentation, keyword tagging) out of the library: every signal
is written down explicitly, one sentence per line::

    ni3|W,K cai3|I hong2|I .
    hello'|W,K world|W,A ?

Each whitespace-separated token is ``text`` + tone mark + ``|`` + flags.
The tone mark is a digit 1-5 (tonal languages), a trailing apostrophe
(stressed syllable in stress-accent languages), or nothing.  Flags are a
comma list: ``W`` word start, ``I`` word inner (exactly one of the two),
``K`` keyword, ``A`` auxiliary (at most one; neither means unconstrained).
A redundant ``E`` is tolerated on the last syllable of a line.  The line
ends with a standalone punctuation token which fixes the sentence's
intonation.  A JSON mirror of the same schema is accepted for machine
producers (see :func:`lyrics_from_json`).

All types here are frozen; a parsed sequence can be shared freely across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional

from .errors import LyricFormatError

__all__ = [
    "Tone",
    "WordPosition",
    "StressClass",
    "Intonation",
    "Language",
    "Syllable",
    "Sentence",
    "LyricSequence",
    "StructureMatrix",
    "parse_lyrics",
    "serialize_lyrics",
    "lyrics_from_json",
    "lyrics_to_json",
    "detect_intonation",
    "build_structure_matrix",
]


class Tone(Enum):
    TONE1 = "tone1"
    TONE2 = "tone2"
    TONE3 = "tone3"
    TONE4 = "tone4"
    TONE5 = "tone5"
    STRESSED = "stressed"
    UNSTRESSED = "unstressed"
    NONE = "none"


#: The tones that participate in shape/transition scoring.
TONAL_TONES = frozenset(
    {Tone.TONE1, Tone.TONE2, Tone.TONE3, Tone.TONE4, Tone.TONE5}
)


#: The tones a syllable of a tonal / stress-accent sequence may carry.
_TONAL_ALLOWED = TONAL_TONES | {Tone.NONE}
_STRESS_ALLOWED = frozenset({Tone.STRESSED, Tone.UNSTRESSED, Tone.NONE})


class WordPosition(Enum):
    WORD_START = "start"
    WORD_INNER = "inner"


class StressClass(Enum):
    KEYWORD = "keyword"
    AUXILIARY = "auxiliary"
    NEUTRAL = "neutral"


class Intonation(Enum):
    RISING = "rising"
    FALLING = "falling"
    NEUTRAL = "neutral"


class Language(Enum):
    TONAL = "tonal"
    STRESS_ACCENT = "stress"


@dataclass(frozen=True, slots=True)
class Syllable:
    text: str
    tone: Tone
    word_position: WordPosition
    stress_class: StressClass
    sentence_index: int
    sentence_final: bool


@dataclass(frozen=True, slots=True)
class Sentence:
    """A contiguous run of syllables ending at one punctuation mark.

    ``span`` is a half-open (start, stop) index range into the syllable list.
    """

    span: tuple[int, int]
    intonation: Intonation

    def __len__(self) -> int:
        return self.span[1] - self.span[0]


@dataclass(frozen=True, slots=True)
class LyricSequence:
    syllables: tuple[Syllable, ...]
    sentences: tuple[Sentence, ...]
    language: Language

    def __post_init__(self) -> None:
        if not self.syllables or not self.sentences:
            raise LyricFormatError("lyric sequence must contain at least one sentence")
        cursor = 0
        for si, sent in enumerate(self.sentences):
            start, stop = sent.span
            if start != cursor or stop <= start:
                raise LyricFormatError(
                    f"sentence {si} span {sent.span} is not contiguous with its predecessor"
                )
            cursor = stop
            for k in range(start, stop):
                syl = self.syllables[k]
                if syl.sentence_index != si:
                    raise LyricFormatError(
                        f"syllable {k} carries sentence index {syl.sentence_index}, expected {si}"
                    )
                if syl.sentence_final != (k == stop - 1):
                    raise LyricFormatError(f"syllable {k} has a wrong sentence_final flag")
            if self.syllables[start].word_position is not WordPosition.WORD_START:
                raise LyricFormatError(f"sentence {si} does not begin at a word start")
        if cursor != len(self.syllables):
            raise LyricFormatError("sentence spans do not cover the syllable sequence")
        allowed = _TONAL_ALLOWED if self.language is Language.TONAL else _STRESS_ALLOWED
        for k, syl in enumerate(self.syllables):
            if syl.tone not in allowed:
                raise LyricFormatError(
                    f"syllable {k} tone {syl.tone.value} not allowed in a "
                    f"{self.language.value} sequence"
                )

    def __len__(self) -> int:
        return len(self.syllables)

    def sentence_of(self, index: int) -> Sentence:
        return self.sentences[self.syllables[index].sentence_index]


@dataclass(frozen=True)
class StructureMatrix:
    """Syllable-level repetition pairs (i, j), j < i.

    Position ``i`` in a later repeat of a phrase maps to the same offset ``j``
    inside the earliest occurrence of that phrase.  ``partner`` gives O(1)
    lookup of the anchor for each repeated position.
    """

    pairs: frozenset[tuple[int, int]]
    partner: Mapping[int, int] = field(hash=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self.partner:
            object.__setattr__(self, "partner", {i: j for i, j in self.pairs})
        for i, j in self.pairs:
            if j >= i:
                raise ValueError(f"structure pair ({i}, {j}) must satisfy j < i")


_RISING_MARKS = {"?", "？"}
_FALLING_MARKS = {".", "!", "。", "！"}


def detect_intonation(terminator: str) -> Intonation:
    """Map a sentence-final punctuation mark to the sentence's intonation.

    Interrogatives rise, declaratives/exclamations fall, everything else
    (commas, enumeration marks, unknown characters) is neutral.  Total over
    the whole character domain.
    """
    if terminator in _RISING_MARKS:
        return Intonation.RISING
    if terminator in _FALLING_MARKS:
        return Intonation.FALLING
    return Intonation.NEUTRAL


_FLAG_NAMES = {"W", "I", "K", "A", "E"}


def _parse_token(token: str, lineno: int) -> tuple[str, Tone, WordPosition, StressClass, bool]:
    """Split one syllable token into (text, tone mark, position, class, has_E)."""
    body, sep, flag_part = token.partition("|")
    if not sep or not body:
        raise LyricFormatError(f"line {lineno}: malformed syllable token {token!r}")
    tone_digit: Optional[int] = None
    stressed = False
    if body[-1].isdigit():
        tone_digit = int(body[-1])
        if not 1 <= tone_digit <= 5:
            raise LyricFormatError(f"line {lineno}: tone digit out of range in {token!r}")
        body = body[:-1]
    elif body.endswith("'"):
        stressed = True
        body = body[:-1]
    if not body:
        raise LyricFormatError(f"line {lineno}: empty syllable text in {token!r}")

    flags = [f for f in flag_part.split(",") if f] if flag_part else []
    unknown = set(flags) - _FLAG_NAMES
    if unknown:
        raise LyricFormatError(
            f"line {lineno}: unknown flag(s) {sorted(unknown)} in {token!r}"
        )
    has_w, has_i = "W" in flags, "I" in flags
    if has_w == has_i:
        raise LyricFormatError(
            f"line {lineno}: token {token!r} needs exactly one of flags W or I"
        )
    if "K" in flags and "A" in flags:
        raise LyricFormatError(f"line {lineno}: token {token!r} is both keyword and auxiliary")
    stress = (
        StressClass.KEYWORD
        if "K" in flags
        else StressClass.AUXILIARY if "A" in flags else StressClass.NEUTRAL
    )
    position = WordPosition.WORD_START if has_w else WordPosition.WORD_INNER
    if tone_digit is not None:
        tone = Tone(f"tone{tone_digit}")
    elif stressed:
        tone = Tone.STRESSED
    else:
        tone = Tone.NONE  # resolved to UNSTRESSED later for stress-accent input
    return body, tone, position, stress, "E" in flags


def parse_lyrics(source: str) -> LyricSequence:
    """Parse annotated lyrics (text format or its JSON mirror).

    Annotations are taken verbatim; nothing is inferred beyond the language,
    which follows from the tone marks used (any tone digit makes the sequence
    tonal, otherwise it is stress-accent).  Raises
    :class:`~lyricmelody.errors.LyricFormatError` with a line number on
    malformed input.
    """
    if not source.strip():
        raise LyricFormatError("empty lyrics input")
    if source.lstrip()[0] == "{":
        return lyrics_from_json(source)

    raw_sentences: list[tuple[int, list[tuple], Intonation]] = []
    saw_digit = saw_apostrophe = False
    for lineno, line in enumerate(source.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) < 2:
            raise LyricFormatError(
                f"line {lineno}: expected syllables followed by a punctuation token"
            )
        terminator = tokens[-1]
        if "|" in terminator or len(terminator) != 1 or terminator[-1].isalnum():
            raise LyricFormatError(
                f"line {lineno}: line must end with a single punctuation token, got {terminator!r}"
            )
        parsed = [_parse_token(tok, lineno) for tok in tokens[:-1]]
        for pos, (_, tone, _, _, has_e) in enumerate(parsed):
            # the mark read: a digit made a tonal tone, an apostrophe STRESSED
            if tone is Tone.STRESSED:
                saw_apostrophe = True
            elif tone is not Tone.NONE:
                saw_digit = True
            if has_e and pos != len(parsed) - 1:
                raise LyricFormatError(
                    f"line {lineno}: flag E is only valid on the sentence-final syllable"
                )
        if parsed[0][2] is not WordPosition.WORD_START:
            raise LyricFormatError(f"line {lineno}: first syllable of a sentence must carry W")
        raw_sentences.append((lineno, parsed, detect_intonation(terminator)))

    if not raw_sentences:
        raise LyricFormatError("no sentences found in lyrics input")
    if saw_digit and saw_apostrophe:
        raise LyricFormatError("tonal and stress-accent tone marks mixed in one input")
    language = Language.TONAL if saw_digit else Language.STRESS_ACCENT

    syllables: list[Syllable] = []
    sentences: list[Sentence] = []
    for si, (_, parsed, intonation) in enumerate(raw_sentences):
        start = len(syllables)
        for pos, (text, tone, wp, sc, _) in enumerate(parsed):
            if language is Language.STRESS_ACCENT and tone is Tone.NONE:
                tone = Tone.UNSTRESSED
            syllables.append(
                Syllable(
                    text=text,
                    tone=tone,
                    word_position=wp,
                    stress_class=sc,
                    sentence_index=si,
                    sentence_final=pos == len(parsed) - 1,
                )
            )
        sentences.append(Sentence(span=(start, len(syllables)), intonation=intonation))
    return LyricSequence(tuple(syllables), tuple(sentences), language)


_TONE_MARK = {
    Tone.TONE1: "1",
    Tone.TONE2: "2",
    Tone.TONE3: "3",
    Tone.TONE4: "4",
    Tone.TONE5: "5",
    Tone.STRESSED: "'",
    Tone.UNSTRESSED: "",
    Tone.NONE: "",
}

_INTONATION_MARK = {
    Intonation.RISING: "?",
    Intonation.FALLING: ".",
    Intonation.NEUTRAL: ",",
}


def serialize_lyrics(lyrics: LyricSequence) -> str:
    """Render a sequence back to the text format.

    Canonical output: parse(serialize(parse(s))) equals parse(s).  Original
    punctuation characters are canonicalized per intonation class.
    """
    lines = []
    for sent in lyrics.sentences:
        tokens = []
        for k in range(*sent.span):
            syl = lyrics.syllables[k]
            flags = "W" if syl.word_position is WordPosition.WORD_START else "I"
            if syl.stress_class is StressClass.KEYWORD:
                flags += ",K"
            elif syl.stress_class is StressClass.AUXILIARY:
                flags += ",A"
            tokens.append(f"{syl.text}{_TONE_MARK[syl.tone]}|{flags}")
        tokens.append(_INTONATION_MARK[sent.intonation])
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def lyrics_to_json(lyrics: LyricSequence) -> str:
    doc = {
        "language": lyrics.language.value,
        "sentences": [
            {
                "intonation": sent.intonation.value,
                "syllables": [
                    {
                        "text": s.text,
                        "tone": s.tone.value,
                        "word_position": s.word_position.value,
                        "stress_class": s.stress_class.value,
                    }
                    for s in lyrics.syllables[sent.span[0] : sent.span[1]]
                ],
            }
            for sent in lyrics.sentences
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True)


def lyrics_from_json(source: str) -> LyricSequence:
    """Parse the JSON mirror of the annotated-lyrics format."""
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise LyricFormatError(f"invalid lyrics JSON: {exc}") from exc
    try:
        language = Language(doc["language"])
        syllables: list[Syllable] = []
        sentences: list[Sentence] = []
        for si, sent in enumerate(doc["sentences"]):
            start = len(syllables)
            for pos, s in enumerate(sent["syllables"]):
                syllables.append(
                    Syllable(
                        text=str(s["text"]),
                        tone=Tone(s.get("tone", "none")),
                        word_position=WordPosition(s["word_position"]),
                        stress_class=StressClass(s.get("stress_class", "neutral")),
                        sentence_index=si,
                        sentence_final=pos == len(sent["syllables"]) - 1,
                    )
                )
            sentences.append(
                Sentence(
                    span=(start, len(syllables)),
                    intonation=Intonation(sent.get("intonation", "neutral")),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise LyricFormatError(f"lyrics JSON schema violation: {exc}") from exc
    return LyricSequence(tuple(syllables), tuple(sentences), language)


def _normalized_text(lyrics: LyricSequence, sent: Sentence) -> tuple[str, ...]:
    # tone digits and stress marks never reach Syllable.text, so lowercasing
    # is all that remains of the normalization
    return tuple(lyrics.syllables[k].text.lower() for k in range(*sent.span))


def _repeat_anchors(lyrics: LyricSequence) -> Iterator[tuple[Sentence, Sentence]]:
    """(earliest occurrence, later copy) for every sentence whose normalized
    text occurred before, in sentence order."""
    anchors: dict[tuple[str, ...], Sentence] = {}
    for sent in lyrics.sentences:
        anchor = anchors.setdefault(_normalized_text(lyrics, sent), sent)
        if anchor is not sent:
            yield anchor, sent


def build_structure_matrix(lyrics: LyricSequence) -> StructureMatrix:
    """Pair each syllable of a repeated sentence with the earliest occurrence.

    Two sentences repeat iff their normalized syllable texts are identical
    (exact repetition only).  Every later copy anchors to the *first* copy,
    so all repeats of one phrase share a single reference.
    """
    pairs: set[tuple[int, int]] = set()
    for anchor, sent in _repeat_anchors(lyrics):
        pairs.update(zip(range(*sent.span), range(*anchor.span)))
    return StructureMatrix(pairs=frozenset(pairs))
