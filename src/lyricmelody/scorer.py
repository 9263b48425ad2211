"""Base melody scorers: a trainable n-gram language model and a uniform model.

The decoder only ever asks one question — "given this token context, what is
the log-probability of each vocabulary token?" — so anything implementing
``log_prob_dist`` can drive it.  The shipped models are lyric-agnostic pure
melody language models; every lyric signal enters through the rewards.

Three vocabulary kinds share the same machinery:

* ``melody`` — :class:`MelodyToken`, the full (pitch, duration, syllable
  flag) alphabet, spelled ``N:60:1/2:S`` / ``R:1/2`` in model files;
* ``rhythm`` — :class:`RhythmToken`, the pitch-free projection for
  rhythm-first decoding, spelled ``N:1/2:S`` / ``R:1/2``;
* ``pitch`` — pitches plus a rest marker, for pitch-onto-skeleton decoding.

A model file is checked in one pass as it loads: its text passes the one JSON
gate, :func:`lyricmelody.lyrics._json`, each object holds exactly its format's
keys, each of its JSON type (:func:`lyricmelody.lyrics._fields`), every context
and successor is a token of the file's vocabulary (in any spelling), no context
is longer than ``order - 1`` or counted twice, no successor is listed twice
after one context, each count is an integer from 1 to 2**53 and each context
has a successor.  The first fault raises :class:`TrainingError` naming it, so
every distribution of a loaded model sums to 1.

Every sequence is trained and scored with a terminal end-of-melody symbol so
stopping has a probability like everything else.

Smoothing is interpolated absolute discounting: a fixed discount ``d`` is
subtracted from every observed count and the freed mass backs off to the
next shorter context, grounding in the empirical unigram distribution mixed
with a uniform prior over the vocabulary.  Models are immutable once
trained; scoring from concurrent decodes is safe.

Melody and rhythm tokens are interned (:mod:`lyricmelody.melody`), so every
token a model counts, trained or loaded, is the vocabulary's own instance,
and so is every token in the decoder's contexts: context lookups hash and
compare tokens by identity, in C.  Loading decodes each distinct count
string once, whatever its spelling.

A context's distribution is built in O(|V|) from the probability table of
its one-shorter suffix (the backed-off mass for every token, plus the
discounted count of each observed successor), and the tables of proper
suffixes are memoised.  Each entry equals the per-token recursion bit for
bit, because an unseen token's kept mass is exactly 0.0.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Protocol, Sequence, Union

from .errors import TrainingError
from .lyrics import _Record, _fields, _json, _set
from .melody import END, Melody, MelodyToken, RhythmToken, TokenKind, _duration

__all__ = [
    "END",
    "REST_MARK",
    "Vocabulary",
    "Scorer",
    "UniformScorer",
    "NGramModel",
    "ModelBundle",
    "build_melody_vocabulary",
    "vocabulary_from_corpus",
    "rhythm_projection",
    "pitch_projection",
    "melody_sequence",
    "rhythm_sequence",
    "pitch_sequence",
    "train_ngram",
    "train_model_bundle",
]

#: Rest marker inside pitch-token sequences.
REST_MARK = "R"

Token = Union[MelodyToken, RhythmToken, int, str]


class _Codec(NamedTuple):
    """A vocabulary kind's model-file spelling of a token (END aside), its reading
    back (ValueError if none) and the vocabulary order."""

    spell: Callable[[Token], str]
    parse: Callable[[str], Token]
    sort_key: Callable[[Token], tuple]


def _note_codec(cls) -> _Codec:
    """The codec of melody (``cls`` MelodyToken) or rhythm tokens."""

    def spell(t) -> str:
        if not t.is_note:
            return f"R:{t.duration}"
        pitch = "" if t.pitch is None else f"{t.pitch}:"
        return f"N:{pitch}{t.duration}:{'S' if t.syllable_start else 'C'}"

    def parse(text: str) -> Token:
        match text.split(":"):
            case ["R", duration]:
                return cls(TokenKind.REST, _duration(duration))
            case ["N", pitch, duration, "S" | "C" as flag] if cls is MelodyToken:
                return cls(TokenKind.NOTE, _duration(duration), _pitch(pitch), flag == "S")
            case ["N", duration, "S" | "C" as flag] if cls is RhythmToken:
                return cls(TokenKind.NOTE, _duration(duration), flag == "S")
        raise ValueError("no token of this shape")

    return _Codec(spell, parse, lambda t: (
        (0, t.pitch, t.duration, not t.syllable_start) if t.is_note else (1, t.duration)))


def _pitch(text: str) -> int:
    """The MIDI pitch a model token spells in ASCII digits; ValueError unless
    it is 0-127 (``int`` alone would take signs, spaces and ``_``)."""
    if not (text.isascii() and text.isdigit() and int(text) <= 127):
        raise ValueError(f"pitch {text!r} is not a MIDI pitch 0-127")
    return int(text)


def _parse_pitch(text: str) -> Token:
    return REST_MARK if text == REST_MARK else _pitch(text)


_CODECS = {
    "melody": _note_codec(MelodyToken),
    "rhythm": _note_codec(RhythmToken),
    "pitch": _Codec(str, _parse_pitch, lambda t: (1,) if t == REST_MARK else (0, t)),
}


def _codec(kind: str) -> _Codec:
    if kind not in _CODECS:
        raise TrainingError(f"unknown vocabulary kind {kind!r}")
    return _CODECS[kind]


def _decode(kind: str, text) -> Token:
    """The token a model file spells ``text``; TrainingError if it spells none."""
    if text == END:
        return END
    if type(text) is str:
        try:
            return _codec(kind).parse(text)
        except ValueError as exc:
            raise TrainingError(f"malformed {kind} token {text!r}: {exc}") from None
    raise TrainingError(f"malformed {kind} token {text!r}")


class Vocabulary(_Record, frozen=True):
    """Finite, deterministically ordered token alphabet (END always last).
    Pickled and copied from its fields, so the groups a decoder keeps on it
    are dropped."""

    __match_args__ = ("kind", "tokens")

    def __init__(self, kind: str, tokens: tuple[Token, ...]):
        vars(self).update(kind=kind, tokens=tokens)
        _codec(self.kind)  # refuses an unknown kind
        if not self.tokens or self.tokens[-1] != END:
            raise TrainingError("vocabulary must end with the end-of-melody symbol")
        _set(self, "_index", {t: i for i, t in enumerate(self.tokens)})
        if len(getattr(self, "_index")) != len(self.tokens):
            raise TrainingError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: Token) -> bool:
        return token in getattr(self, "_index")

    def index_of(self, token: Token) -> int:
        return getattr(self, "_index")[token]

    def encode(self, token: Token) -> str:
        return END if token == END else _CODECS[self.kind].spell(token)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tokens": [self.encode(t) for t in self.tokens]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Vocabulary":
        kind, texts = _fields(doc, "model vocab", {"kind": "a string", "tokens": "a list"},
                              error=TrainingError)
        return cls(kind, tuple(_decode(kind, text) for text in texts))

    @classmethod
    def build(cls, kind: str, tokens: Iterable[Token]) -> "Vocabulary":
        ordered = sorted(set(tokens) - {END}, key=_codec(kind).sort_key)
        return cls(kind, tuple(ordered) + (END,))


def build_melody_vocabulary(
    pitch_range: tuple[int, int], durations: Sequence
) -> Vocabulary:
    """All note/rest tokens over a pitch range and a finite duration set."""
    lo, hi = pitch_range
    if lo > hi or not 0 <= lo <= 127 or not 0 <= hi <= 127:
        raise ValueError(f"bad pitch range {pitch_range}")
    durs = sorted({Fraction(d) for d in durations})
    if not durs or durs[0] <= 0:
        raise ValueError("durations must be a non-empty set of positive rationals")
    tokens = [MelodyToken(TokenKind.NOTE, dur, pitch, starts)
              for pitch in range(lo, hi + 1) for dur in durs for starts in (True, False)]
    tokens += [MelodyToken(TokenKind.REST, dur) for dur in durs]
    return Vocabulary.build("melody", tokens)


def rhythm_projection(token: MelodyToken) -> RhythmToken:
    return RhythmToken(token.kind, token.duration, token.syllable_start)


def pitch_projection(token: MelodyToken) -> Token:
    return REST_MARK if token.kind is TokenKind.REST else token.pitch


def melody_sequence(melody: Melody) -> tuple[Token, ...]:
    return tuple(melody.tokens) + (END,)


def rhythm_sequence(melody: Melody) -> tuple[Token, ...]:
    return tuple(rhythm_projection(t) for t in melody.tokens) + (END,)


def pitch_sequence(melody: Melody) -> tuple[Token, ...]:
    return tuple(pitch_projection(t) for t in melody.tokens) + (END,)


def vocabulary_from_corpus(melodies: Sequence[Melody]) -> Vocabulary:
    """Melody vocabulary spanning the corpus: full pitch range x duration set,
    both syllable flags, rests for every duration."""
    pitches = [t.pitch for m in melodies for t in m.tokens if t.is_note]
    durations = {t.duration for m in melodies for t in m.tokens}
    if not pitches:
        raise TrainingError("corpus contains no notes")
    return build_melody_vocabulary((min(pitches), max(pitches)), sorted(durations))


class Scorer(Protocol):
    """Anything that maps a token context to a log-probability table.

    A table may be returned again for another call, and must then be left
    unchanged; the decoder keeps what it derives from one of
    :class:`NGramModel`'s tables on the table, for as long as the table lives."""

    vocab: Vocabulary

    def log_prob_dist(self, context: Sequence[Token]) -> dict[Token, float]: ...


class UniformScorer(_Record, frozen=True):
    """Flat distribution; useful as a null model and in enumerable tests."""

    __match_args__ = ("vocab",)

    def __init__(self, vocab: Vocabulary):
        _set(self, "vocab", vocab)

    def log_prob_dist(self, context: Sequence[Token]) -> dict[Token, float]:
        lp = -math.log(len(self.vocab))
        return {t: lp for t in self.vocab.tokens}


class _Table(dict):
    """A log-probability table whose ``derived`` slot holds what a consumer
    derives from it, so that lives exactly as long as the table."""

    __slots__ = ("derived",)

    def __reduce__(self):  # from the items, so it pickles and copies as a dict, slot dropped
        return _Table, (dict(self),)


class NGramModel:
    """Order-N model with interpolated absolute-discount backoff.

    P(t | ctx) = max(c(ctx,t) - d, 0)/c(ctx) + d*distinct(ctx)/c(ctx) * P(t | ctx[1:]),
    grounding at unigrams interpolated with 1/|V|.  Unseen contexts back off
    with all their mass.
    """

    def __init__(
        self, order: int, discount: float, vocab: Vocabulary, counts: dict[tuple, dict[Token, int]]
    ):
        if order < 1:
            raise TrainingError(f"order must be >= 1, got {order}")
        if not 0 < discount < 1:
            raise TrainingError(f"discount must lie in (0, 1), got {discount}")
        self.order = order
        self.discount = discount
        self.vocab = vocab
        self.counts = counts
        self.totals = {ctx: sum(succ.values()) for ctx, succ in counts.items()}
        self._tables: dict[tuple, list[float]] = {}
        self._dist_cache: dict[tuple, dict[Token, float]] = {}

    @classmethod
    def train(
        cls, sequences: Sequence[Sequence[Token]], order: int, discount: float, vocab: Vocabulary
    ) -> "NGramModel":
        if not sequences:
            raise TrainingError("training corpus is empty")
        counts: dict[tuple, dict[Token, int]] = {}
        for seq in sequences:
            for i, token in enumerate(seq):
                if token not in vocab:
                    raise TrainingError(f"out-of-vocabulary token {vocab.encode(token)!r}")
                for ctx_len in range(min(i, order - 1) + 1):
                    ctx = tuple(seq[i - ctx_len : i])
                    counts.setdefault(ctx, {})
                    counts[ctx][token] = counts[ctx].get(token, 0) + 1
        return cls(order, discount, vocab, counts)

    def _context(self, context: Sequence[Token]) -> tuple:
        """The longest suffix of the last ``order - 1`` tokens seen in training."""
        ctx = tuple(context[-(self.order - 1) :]) if self.order > 1 else ()
        while ctx and ctx not in self.counts:
            ctx = ctx[1:]
        return ctx

    def _table(self, ctx: tuple) -> list[float]:
        """P(t | ctx) for every vocabulary token, in vocabulary order.

        Built in O(|V|) from the table of ``ctx[1:]``: every token gets the
        backed-off mass, and each observed successor adds its discounted
        count.  An unseen token's kept mass would be exactly 0.0, so the
        entries equal the per-token formula bit for bit.
        """
        table = self._tables.get(ctx)
        if table is not None:
            return table
        lower = self._table(ctx[1:]) if ctx else [1.0 / len(self.vocab)] * len(self.vocab)
        succ = self.counts.get(ctx)
        if succ is None:
            table = lower
        else:
            total = self.totals[ctx]
            backoff_mass = self.discount * len(succ) / total
            table = [backoff_mass * p for p in lower]
            index = getattr(self.vocab, "_index")
            for token, count in succ.items():
                i = index[token]
                table[i] = max(count - self.discount, 0.0) / total + backoff_mass * lower[i]
        if len(ctx) < self.order - 1:
            self._tables[ctx] = table
        return table

    def log_prob_dist(self, context: Sequence[Token]) -> dict[Token, float]:
        ctx = self._context(context)
        cached = self._dist_cache.get(ctx)
        if cached is None:
            table, tokens = self._table(ctx), self.vocab.tokens
            try:
                cached = _Table(zip(tokens, map(math.log, table)))
            except ValueError:  # a probability below the float range came out 0.0
                cached = _Table({t: math.log(p or math.ulp(0.0)) for t, p in zip(tokens, table)})
            self._dist_cache[ctx] = cached
        return cached

    def to_dict(self) -> dict:
        enc = self.vocab.encode
        # contexts are distinct, so their spellings alone order the entries
        counts = sorted([[enc(t) for t in ctx], sorted([enc(tok), n] for tok, n in succ.items())]
                        for ctx, succ in self.counts.items())
        return {"order": self.order, "discount": self.discount, "vocab": self.vocab.to_dict(),
                "counts": counts}

    @classmethod
    def from_dict(cls, doc: dict) -> "NGramModel":
        """The model a model file's object spells, checked in one pass that
        raises TrainingError at the first fault (see the module docstring)."""
        order, discount, vocab_doc, raw_counts = _fields(doc, "model", {
            "order": "an integer", "discount": "a number", "vocab": "an object",
            "counts": "a list"}, error=TrainingError)
        vocab = Vocabulary.from_dict(vocab_doc)
        spelled = dict(zip(vocab_doc["tokens"], vocab.tokens))

        def token(text) -> Token:  # the token text spells, decoded once per spelling
            if type(text) is not str or text not in spelled:
                found = _decode(vocab.kind, text)
                if found not in vocab:
                    raise TrainingError(f"model token {text!r} is not in the model's vocabulary")
                spelled[text] = found
            return spelled[text]

        counts: dict[tuple, dict[Token, int]] = {}
        for i, entry in enumerate(raw_counts):
            if type(entry) is not list or list(map(type, entry)) != [list, list]:
                raise TrainingError(f"model counts entry {i} is not a [context, successors] pair")
            ctx_texts, succ = entry
            if len(ctx_texts) >= order:
                raise TrainingError(
                    f"model context {ctx_texts!r} is longer than order - 1 = {order - 1}")
            ctx = tuple(map(token, ctx_texts))
            if ctx in counts:
                raise TrainingError(f"model context {ctx_texts!r} is counted twice")
            successors = counts[ctx] = {}
            for pair in succ:
                n = pair[1] if type(pair) is list and len(pair) == 2 else None
                if type(n) is not int or not 1 <= n <= 2**53:  # so every total is a float
                    raise TrainingError(f"model successor {pair!r} after {ctx_texts!r} is not a "
                                        "[token, count from 1 to 2**53] pair")
                successor = token(pair[0])
                if successor in successors:
                    raise TrainingError(
                        f"model token {pair[0]!r} is listed twice after {ctx_texts!r}")
                successors[successor] = n
            if not successors:
                raise TrainingError(f"model context {ctx_texts!r} has no successors")
        return cls(order, discount, vocab, counts)


def train_ngram(
    corpus: Sequence[Melody],
    order: int = 3,
    discount: float = 0.5,
    vocab: Optional[Vocabulary] = None,
) -> NGramModel:
    """Train the full melody-token model from a corpus of melodies."""
    if not corpus:
        raise TrainingError("training corpus is empty")
    if vocab is None:
        vocab = vocabulary_from_corpus(corpus)
    return NGramModel.train([melody_sequence(m) for m in corpus], order, discount, vocab)


#: the vocabulary kind each model slot of a model file must hold
_SLOT_KINDS = {"token_model": "melody", "rhythm_model": "rhythm", "pitch_model": "pitch"}


class ModelBundle(_Record, frozen=True):
    """The three models one training run produces, saved as a single file."""

    __match_args__ = ("token_model", "rhythm_model", "pitch_model")
    FORMAT = "lyricmelody-ngram"
    VERSION = 1

    def __init__(self, token_model: NGramModel, rhythm_model: NGramModel,
                 pitch_model: NGramModel):
        vars(self).update(token_model=token_model, rhythm_model=rhythm_model,
                          pitch_model=pitch_model)

    def to_json(self) -> str:
        doc = {slot: getattr(self, slot).to_dict() for slot in _SLOT_KINDS}
        return json.dumps({"format": self.FORMAT, "version": self.VERSION, **doc}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelBundle":
        doc = _json(text, "model file", TrainingError)
        if not isinstance(doc, dict) or doc.get("format") != cls.FORMAT:
            raise TrainingError(f"not a {cls.FORMAT} model file")
        if doc.get("version") != cls.VERSION or type(doc["version"]) is not int:
            raise TrainingError(f"unsupported model file version {doc.get('version')!r}")
        _, _, *slots = _fields(doc, "model file", {  # the format and version are read above
            "format": None, "version": None, **dict.fromkeys(_SLOT_KINDS, "an object")},
            error=TrainingError)
        models = [NGramModel.from_dict(slot) for slot in slots]
        for (slot, kind), model in zip(_SLOT_KINDS.items(), models):
            if model.vocab.kind != kind:
                raise TrainingError(
                    f"model file slot {slot} holds a {model.vocab.kind} model, expected {kind}")
        return cls(*models)


def train_model_bundle(
    corpus: Sequence[Melody], order: int = 3, discount: float = 0.5
) -> ModelBundle:
    """Train melody, rhythm, and pitch models off one corpus."""
    if not corpus:
        raise TrainingError("training corpus is empty")
    melody_vocab = vocabulary_from_corpus(corpus)
    rhythm_vocab = Vocabulary.build("rhythm", map(rhythm_projection, melody_vocab.tokens[:-1]))
    pitch_vocab = Vocabulary.build("pitch", map(pitch_projection, melody_vocab.tokens[:-1]))
    return ModelBundle(
        NGramModel.train([melody_sequence(m) for m in corpus], order, discount, melody_vocab),
        NGramModel.train([rhythm_sequence(m) for m in corpus], order, discount, rhythm_vocab),
        NGramModel.train([pitch_sequence(m) for m in corpus], order, discount, pitch_vocab),
    )
