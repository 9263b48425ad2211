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

A model token of any other shape fails to load with an error that names
it.

Every sequence is trained and scored with a terminal end-of-melody symbol so
stopping has a probability like everything else.

Smoothing is interpolated absolute discounting: a fixed discount ``d`` is
subtracted from every observed count and the freed mass backs off to the
next shorter context, grounding in the empirical unigram distribution mixed
with a uniform prior over the vocabulary.  Models are immutable once
trained; scoring from concurrent decodes is safe.

Every in-vocabulary token a model counts is the vocabulary's own instance:
training swaps each token for it, and loading decodes each count string
through the vocabulary's spellings (any other spelling is decoded once and
mapped to the equal vocabulary token, or kept as is if it has none).  The
decoder's contexts hold the same instances, so context lookups hit by
identity instead of comparing tokens field by field.

A context's distribution is built in O(|V|) from the probability table of
its one-shorter suffix (the backed-off mass for every token, plus the
discounted count of each observed successor), and the tables of proper
suffixes are memoised.  Each entry equals the per-token recursion bit for
bit, because an unseen token's kept mass is exactly 0.0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Protocol, Sequence, Union

from .errors import TrainingError
from .melody import Melody, MelodyToken, RhythmToken, TokenKind

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

#: Terminal symbol appended to every training sequence.
END = "<end>"

#: Rest marker inside pitch-token sequences.
REST_MARK = "R"

Token = Union[MelodyToken, RhythmToken, int, str]


def _encode_duration(d: Fraction) -> str:
    return str(d)


def _encode(kind: str, token: Token) -> str:
    if token == END:
        return END
    if kind == "pitch":
        return REST_MARK if token == REST_MARK else str(token)
    if kind not in ("melody", "rhythm"):
        raise ValueError(f"unknown vocabulary kind {kind!r}")
    duration = _encode_duration(token.duration)
    if not token.is_note:
        return f"R:{duration}"
    pitch = f"{token.pitch}:" if kind == "melody" else ""
    return f"N:{pitch}{duration}:{'S' if token.syllable_start else 'C'}"


def _decode(kind: str, text) -> Token:
    """The token a model file spells ``text``.  ValueError, naming ``text``,
    for a value that is no string or a string of the wrong shape."""
    if text == END:
        return END
    if kind not in ("melody", "rhythm", "pitch"):
        raise ValueError(f"unknown vocabulary kind {kind!r}")
    if isinstance(text, str):
        parts = text.split(":")
        try:
            if kind == "pitch":
                if text == REST_MARK:
                    return REST_MARK
                pitch = int(text)
                if not 0 <= pitch <= 127:
                    raise ValueError("not a MIDI pitch 0-127")
                return pitch
            if parts[0] == "R" and len(parts) == 2:
                if kind == "melody":
                    return MelodyToken(TokenKind.REST, Fraction(parts[1]))
                return RhythmToken(TokenKind.REST, Fraction(parts[1]))
            if (parts[0] == "N" and len(parts) == (4 if kind == "melody" else 3)
                    and parts[-1] in ("S", "C")):
                duration, starts = Fraction(parts[-2]), parts[-1] == "S"
                if kind == "melody":
                    return MelodyToken(TokenKind.NOTE, duration, int(parts[1]), starts)
                return RhythmToken(TokenKind.NOTE, duration, starts)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"malformed {kind} token {text!r}: {exc}") from None
    raise ValueError(f"malformed {kind} token {text!r}")


def _sort_key(kind: str, token: Token):
    if token == END:
        return (9,)
    if kind == "pitch":
        return (1,) if token == REST_MARK else (0, token)
    if kind not in ("melody", "rhythm"):
        raise ValueError(f"unknown vocabulary kind {kind!r}")
    if not token.is_note:
        return (1, token.duration)
    if kind == "melody":
        return (0, token.pitch, token.duration, not token.syllable_start)
    return (0, token.duration, not token.syllable_start)


@dataclass(frozen=True)
class Vocabulary:
    """Finite, deterministically ordered token alphabet (END always last)."""

    kind: str
    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        if not self.tokens or self.tokens[-1] != END:
            raise ValueError("vocabulary must end with the end-of-melody symbol")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})
        if len(getattr(self, "_index")) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: Token) -> bool:
        return token in getattr(self, "_index")

    def index_of(self, token: Token) -> int:
        return getattr(self, "_index")[token]

    def encode(self, token: Token) -> str:
        return _encode(self.kind, token)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tokens": [self.encode(t) for t in self.tokens]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Vocabulary":
        kind = doc["kind"]
        return cls(kind, tuple(_decode(kind, t) for t in doc["tokens"]))

    @classmethod
    def build(cls, kind: str, tokens: Iterable[Token]) -> "Vocabulary":
        ordered = sorted(set(tokens), key=lambda t: _sort_key(kind, t))
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
    tokens: list[Token] = []
    for pitch in range(lo, hi + 1):
        for dur in durs:
            tokens.append(MelodyToken(TokenKind.NOTE, dur, pitch, True))
            tokens.append(MelodyToken(TokenKind.NOTE, dur, pitch, False))
    tokens.extend(MelodyToken(TokenKind.REST, dur) for dur in durs)
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
    """Anything that maps a token context to a log-probability table."""

    vocab: Vocabulary

    def log_prob_dist(self, context: Sequence[Token]) -> dict[Token, float]: ...


@dataclass(frozen=True)
class UniformScorer:
    """Flat distribution; useful as a null model and in enumerable tests."""

    vocab: Vocabulary

    def log_prob_dist(self, context: Sequence[Token]) -> dict[Token, float]:
        lp = -math.log(len(self.vocab))
        return {t: lp for t in self.vocab.tokens}


class NGramModel:
    """Order-N model with interpolated absolute-discount backoff.

    P(t | ctx) = max(c(ctx,t) - d, 0)/c(ctx) + d*distinct(ctx)/c(ctx) * P(t | ctx[1:]),
    grounding at unigrams interpolated with 1/|V|.  Unseen contexts back off
    with all their mass.  Model files must count every successor at least
    once and every counted context must have a successor, or loading raises
    :class:`TrainingError`.
    """

    def __init__(
        self,
        order: int,
        discount: float,
        vocab: Vocabulary,
        counts: dict[tuple, dict[Token, int]],
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
        cls,
        sequences: Sequence[Sequence[Token]],
        order: int,
        discount: float,
        vocab: Vocabulary,
    ) -> "NGramModel":
        if not sequences:
            raise TrainingError("training corpus is empty")
        index = getattr(vocab, "_index")
        counts: dict[tuple, dict[Token, int]] = {}
        for raw in sequences:
            seq = []
            for token in raw:
                i = index.get(token)
                if i is None:
                    raise TrainingError(f"out-of-vocabulary token {vocab.encode(token)!r}")
                seq.append(vocab.tokens[i])
            for i, token in enumerate(seq):
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
                i = index.get(token)
                if i is not None:
                    table[i] = max(count - self.discount, 0.0) / total + backoff_mass * lower[i]
        if len(ctx) < self.order - 1:
            self._tables[ctx] = table
        return table

    def log_prob_dist(self, context: Sequence[Token]) -> dict[Token, float]:
        ctx = self._context(context)
        cached = self._dist_cache.get(ctx)
        if cached is None:
            cached = dict(zip(self.vocab.tokens, map(math.log, self._table(ctx))))
            self._dist_cache[ctx] = cached
        return cached

    def to_dict(self) -> dict:
        enc = self.vocab.encode
        counts = [
            [
                [enc(t) for t in ctx],
                sorted([enc(tok), n] for tok, n in succ.items()),
            ]
            for ctx, succ in sorted(
                self.counts.items(), key=lambda item: [self.vocab.encode(t) for t in item[0]]
            )
        ]
        return {
            "order": self.order,
            "discount": self.discount,
            "vocab": self.vocab.to_dict(),
            "counts": counts,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NGramModel":
        order, discount, raw_counts = doc["order"], doc["discount"], doc["counts"]
        # JSON gives ints and floats; a bool is an int to Python, not to the schema
        if type(order) is not int or order < 1:
            raise TrainingError(f"model order {order!r} is not a positive integer")
        if type(discount) not in (int, float):
            raise TrainingError(f"model discount {discount!r} is not a number")
        if type(raw_counts) is not list:
            raise TrainingError(f"model counts must be a list, got {type(raw_counts).__name__}")
        vocab = Vocabulary.from_dict(doc["vocab"])
        index = getattr(vocab, "_index")
        decoded = dict(zip(doc["vocab"]["tokens"], vocab.tokens))

        def dec(text: str) -> Token:
            token = decoded.get(text)
            if token is None:
                token = _decode(vocab.kind, text)
                i = index.get(token)
                token = decoded[text] = token if i is None else vocab.tokens[i]
            return token

        counts: dict[tuple, dict[Token, int]] = {}
        for ctx, succ in raw_counts:
            if len(ctx) >= order:
                raise TrainingError(f"model context {ctx!r} is longer than order - 1 = {order - 1}")
            successors = {}
            for tok, n in succ:
                if type(n) is not int or n < 1:
                    raise TrainingError(
                        f"model count {n!r} after {ctx!r} is not a positive integer"
                    )
                successors[dec(tok)] = n
            if not successors:
                raise TrainingError(f"model context {ctx!r} has no successors")
            counts[tuple(map(dec, ctx))] = successors
        return cls(order, float(discount), vocab, counts)


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


@dataclass(frozen=True)
class ModelBundle:
    """The three models one training run produces, saved as a single file."""

    token_model: NGramModel
    rhythm_model: NGramModel
    pitch_model: NGramModel

    FORMAT = "lyricmelody-ngram"
    VERSION = 1

    def to_json(self) -> str:
        doc = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "token_model": self.token_model.to_dict(),
            "rhythm_model": self.rhythm_model.to_dict(),
            "pitch_model": self.pitch_model.to_dict(),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelBundle":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TrainingError(f"invalid model file: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != cls.FORMAT:
            raise TrainingError(f"not a {cls.FORMAT} model file")
        if doc.get("version") != cls.VERSION:
            raise TrainingError(f"unsupported model file version {doc.get('version')!r}")
        try:
            models = [NGramModel.from_dict(doc[slot]) for slot in _SLOT_KINDS]
        except (KeyError, TypeError, ValueError) as exc:
            raise TrainingError(f"malformed model file: {type(exc).__name__}: {exc}") from exc
        for (slot, kind), model in zip(_SLOT_KINDS.items(), models):
            if model.vocab.kind != kind:
                raise TrainingError(
                    f"model file slot {slot} holds a {model.vocab.kind} model, expected {kind}"
                )
        return cls(*models)


def train_model_bundle(
    corpus: Sequence[Melody], order: int = 3, discount: float = 0.5
) -> ModelBundle:
    """Train melody, rhythm, and pitch models off one corpus."""
    if not corpus:
        raise TrainingError("training corpus is empty")
    melody_vocab = vocabulary_from_corpus(corpus)
    rhythm_vocab = Vocabulary.build(
        "rhythm", (rhythm_projection(t) for t in melody_vocab.tokens[:-1])
    )
    pitch_vocab = Vocabulary.build(
        "pitch", (pitch_projection(t) for t in melody_vocab.tokens[:-1])
    )
    return ModelBundle(
        NGramModel.train([melody_sequence(m) for m in corpus], order, discount, melody_vocab),
        NGramModel.train([rhythm_sequence(m) for m in corpus], order, discount, rhythm_vocab),
        NGramModel.train([pitch_sequence(m) for m in corpus], order, discount, pitch_vocab),
    )
