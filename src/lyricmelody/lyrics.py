"""Annotated lyrics: parsing, sentence intonation, and repetition structure.

The input format keeps all linguistic preprocessing (syllabification, tone
lookup, word segmentation, keyword tagging) out of the library: every signal
is written down explicitly, one sentence per line::

    ni3|W,K cai3|I hong2|I .
    hello'|W,K world|W,A ?

Each whitespace-separated token is ``text`` + tone mark + ``|`` + flags.
The tone mark is an ASCII digit 1-5 (tonal languages), a trailing
apostrophe (stressed syllable in stress-accent languages), or nothing; a
JSON syllable's text must be one that reads back as itself.  Flags are a
comma list: ``W`` word start, ``I`` word inner (exactly one of the two),
``K`` keyword, ``A`` auxiliary (at most one; neither means unconstrained).
A redundant ``E`` is tolerated on the last syllable of a line.  The line
ends with a standalone punctuation token which fixes the sentence's
intonation.  A JSON mirror of the same schema is accepted for machine
producers (see :func:`lyrics_from_json`); every JSON input of the package
is read by one gate, :func:`_json`, and passes one shape check, :func:`_fields`.

All types here are frozen; a parsed sequence can be shared freely across
threads.
"""

from __future__ import annotations

import json
from enum import Enum
from types import MappingProxyType
from typing import Iterator

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

    __hash__ = object.__hash__  # in C, for the harmony cells' and allowed sets' lookups


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


#: a record constructor's setter, past a frozen record's own ``__setattr__``
_set = object.__setattr__


class _Record:
    """The methods every record type of the package derives from its fields,
    written out once instead of generated per class.  ``__match_args__``
    names the fields the constructor takes, in its order: ``==`` (between
    records of one class), ``hash``, pickling, copying and
    :meth:`__replace__` read them, and ``repr`` shows them, then the derived
    fields ``_derived`` names.  A class declared with ``frozen=True`` refuses
    to assign or delete any attribute and hashes its fields; any other record
    hashes as None, unless it names its own ``__hash__``."""

    __slots__ = ()
    __match_args__ = _derived = ()

    def __init_subclass__(cls, frozen: bool = False) -> None:
        if frozen:
            cls.__setattr__, cls.__delattr__ = _Record._refuse, _Record._refuse_delete
            if cls.__hash__ is None:
                cls.__hash__ = _Record._hash

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__ + self._derived)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def _hash(self) -> int:
        return hash(self._values())

    def _refuse(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _refuse_delete(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # through the constructor, so a copy is checked and derived alike; a
        # read-only mapping, which does not pickle, goes as a dict it copies
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v
                                 for v in self._values())

    def __replace__(self, **changes):
        """A record of this one's fields but ``changes``, built by the constructor."""
        return type(self)(**dict(zip(self.__match_args__, self._values()), **changes))


class Syllable(_Record, frozen=True):
    """One annotated syllable: its text, tone, place in its word, stress
    class, the index of its sentence and whether it ends that sentence."""

    __slots__ = __match_args__ = (
        "text", "tone", "word_position", "stress_class", "sentence_index", "sentence_final")

    def __init__(self, text: str, tone: Tone, word_position: WordPosition,
                 stress_class: StressClass, sentence_index: int, sentence_final: bool):
        _set(self, "text", text)
        _set(self, "tone", tone)
        _set(self, "word_position", word_position)
        _set(self, "stress_class", stress_class)
        _set(self, "sentence_index", sentence_index)
        _set(self, "sentence_final", sentence_final)


class Sentence(_Record, frozen=True):
    """A contiguous run of syllables ending at one punctuation mark.

    ``span`` is a half-open (start, stop) index range into the syllable list.
    """

    __slots__ = __match_args__ = ("span", "intonation")

    def __init__(self, span: tuple[int, int], intonation: Intonation):
        _set(self, "span", span)
        _set(self, "intonation", intonation)

    def __len__(self) -> int:
        return self.span[1] - self.span[0]


class LyricSequence(_Record, frozen=True):
    """A parsed lyric sheet: its syllables, the sentences that cover them
    in order, and its language (tonal or stress-accent)."""

    __slots__ = __match_args__ = ("syllables", "sentences", "language")

    def __init__(self, syllables: tuple[Syllable, ...], sentences: tuple[Sentence, ...],
                 language: Language):
        _set(self, "syllables", syllables)
        _set(self, "sentences", sentences)
        _set(self, "language", language)
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


class StructureMatrix(_Record, frozen=True):
    """Syllable-level repetition pairs (i, j), j < i.

    Position ``i`` in a later repeat of a phrase maps to the same offset ``j``
    inside the earliest occurrence of that phrase.  ``partner`` gives O(1)
    lookup of the anchor for each repeated position.
    """

    __match_args__, _derived = ("pairs",), ("partner",)

    def __init__(self, pairs: frozenset[tuple[int, int]]):
        _set(self, "pairs", pairs)
        _set(self, "partner", dict(pairs))
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


def _flags(flag_part: str, token: str, lineno: int) -> tuple[WordPosition, StressClass, bool]:
    """(position, class, has_E) of a token's flag text; the checks every spelling passes."""
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
    return position, stress, "E" in flags


#: the flag texts :func:`serialize_lyrics` writes, read once here instead of per token
_WRITTEN_FLAGS = {text: _flags(text, text, 0) for text in ("W", "I", "W,K", "W,A", "I,K", "I,A")}


def _parse_token(token: str, lineno: int) -> tuple[str, Tone, WordPosition, StressClass, bool]:
    """Split one syllable token into (text, tone mark, position, class, has_E)."""
    body, sep, flag_part = token.partition("|")
    if not sep or not body:
        raise LyricFormatError(f"line {lineno}: malformed syllable token {token!r}")
    # only an ASCII digit is a tone mark; "²" or "٣" is part of the text
    if body[-1] in "06789":
        raise LyricFormatError(f"line {lineno}: tone digit out of range in {token!r}")
    tone = _MARK_TONE.get(body[-1], Tone.NONE)  # NONE: UNSTRESSED later for stress-accent
    if tone is not Tone.NONE:
        body = body[:-1]
    if not body:
        raise LyricFormatError(f"line {lineno}: empty syllable text in {token!r}")
    flags = _WRITTEN_FLAGS.get(flag_part) or _flags(flag_part, token, lineno)
    return (body, tone, *flags)


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

    raw_sentences: list[tuple[Intonation, list[tuple]]] = []
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
        raw_sentences.append((detect_intonation(terminator), parsed))

    if saw_digit and saw_apostrophe:
        raise LyricFormatError("tonal and stress-accent tone marks mixed in one input")
    language = Language.TONAL if saw_digit else Language.STRESS_ACCENT
    return _assemble([
        (intonation, [(text, tone, wp, sc) for text, tone, wp, sc, _ in parsed])
        for intonation, parsed in raw_sentences
    ], language)


def _assemble(
    sentences: list[tuple[Intonation, list[tuple]]], language: Language
) -> LyricSequence:
    """The sequence of ``(intonation, [(text, tone, word position, stress
    class), ...])`` sentences in ``language``; refuses a syllable text, or a
    tonal sheet without a tonal tone, that :func:`serialize_lyrics` could not
    write back, and reads an unmarked (``none``) syllable of stress-accent
    lyrics as unstressed, so both formats agree."""
    unmarked = Tone.NONE if language is Language.TONAL else Tone.UNSTRESSED
    syllables: list[Syllable] = []
    spans: list[Sentence] = []
    for si, (intonation, parsed) in enumerate(sentences):
        start = len(syllables)
        for pos, (text, tone, wp, sc) in enumerate(parsed):
            if type(text) is not str or text.split() != [text] or "|" in text:
                raise LyricFormatError(f"syllable text {text!r} is not one word without '|'")
            if tone in (Tone.NONE, Tone.UNSTRESSED) and text[-1] in "0123456789'":
                raise LyricFormatError(f"unmarked syllable text {text!r} ends in a tone mark")
            if not syllables and text[0] == "{":
                raise LyricFormatError(f"first syllable text {text!r} opens with '{{'")
            tone = unmarked if tone is Tone.NONE else tone
            syllables.append(Syllable(text, tone, wp, sc, si, pos == len(parsed) - 1))
        spans.append(Sentence((start, len(syllables)), intonation))
    # serialize_lyrics writes a tone digit only for a tonal tone, and
    # parse_lyrics reads a sheet without one as stress-accent
    if language is Language.TONAL and not any(s.tone in TONAL_TONES for s in syllables):
        raise LyricFormatError("a tonal sheet needs a syllable with a tonal tone (tone1-tone5)")
    return LyricSequence(tuple(syllables), tuple(spans), language)


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

_MARK_TONE = {mark: tone for tone, mark in _TONE_MARK.items() if mark}

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


#: the Python types :func:`_json` reads each JSON type as: a bool is no number, a float no integer
_JSON_TYPES = {"an object": (dict,), "a list": (list,), "a string": (str,),
               "a number": (int, float), "an integer": (int,), "a boolean": (bool,)}


def _json(source: str, what: str, error):
    """``source``'s document; ``error`` names a fault of its text: syntax, depth, digit limit."""
    try:
        return json.loads(source)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid {what}: {exc}") from exc


def _fields(doc, where: str, required: dict, optional: dict = {}, error=ValueError) -> list:
    """``doc``'s values for the keys of ``required``, then of ``optional`` (None if
    absent); ``error`` names the first fault.  A key maps to the JSON type of its
    value, to the reader that converts the value (a present null too, so a null
    never reads as absent), or to None for any value."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(str(key) for key in doc if key not in required and key not in optional)
    if unknown:
        raise error(f"{where} has unknown keys {unknown}")
    values = []
    for key, kind in (*required.items(), *optional.items()):
        if key not in doc:
            if key in required:
                raise error(f"{where} has no {key!r}")
        elif isinstance(kind, str) and type(doc[key]) not in _JSON_TYPES[kind]:
            raise error(f"{where} {key} must be {kind}, got {type(doc[key]).__name__}")
        values.append(kind(doc[key]) if callable(kind) and key in doc else doc.get(key))
    return values


def lyrics_from_json(source: str) -> LyricSequence:
    """Parse the JSON mirror of the annotated-lyrics format."""
    doc = _json(source, "lyrics JSON", LyricFormatError)
    try:
        language, sentences = _fields(doc, "document",
                                      {"language": Language, "sentences": "a list"})
        parsed = []
        for sent in sentences:
            syllables, intonation = _fields(sent, "sentence", {"syllables": "a list"},
                                            {"intonation": Intonation})
            words = []
            for s in syllables:
                text, wp, tone, sc = _fields(
                    s, "syllable", {"text": None, "word_position": WordPosition},
                    {"tone": Tone, "stress_class": StressClass})
                words.append((text, tone or Tone.NONE, wp, sc or StressClass.NEUTRAL))
            parsed.append((intonation or Intonation.NEUTRAL, words))
    except ValueError as exc:
        raise LyricFormatError(f"lyrics JSON schema violation: {exc}") from exc
    return _assemble(parsed, language)


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
