"""Reward-augmented decoding: beam search (soft/hard), top-k sampling,
re-ranking, and the rhythm-then-pitch two-stage pipeline.

The per-step score is the base model's log-probability plus the weighted
reward of everything the candidate token triggers.  Decoding walks a small
grammar over the scorer's vocabulary:

* a syllable-starting note is legal while syllables remain;
* a melisma continuation is legal while the current span is open and under
  the per-syllable note cap;
* a rest is legal after the first note and closes the open span (so two
  rests can never be adjacent);
* the end-of-melody symbol is legal once every syllable has started — an
  optional trailing rest may precede it.

Rhythm tokens (:class:`~lyricmelody.melody.RhythmToken`) read like melody
tokens whose pitch is None, so one grammar serves single-stage decoding and
the rhythm stage of the two-stage pipeline.  One beam search serves every
stage: it runs over a moves function that gives each hypothesis its legal
moves, their base log-probabilities and their event signatures, built from
the grammar or, for the pitch stage, from one slot per rhythm token (a note
offers every pitch, a rest is forced, END closes).  Which rewards a
candidate triggers comes from the reward-event model in
:mod:`lyricmelody.rewards`; this module adds only the moves and the search.
Scores stay re-derivable: the base log-probability and the weighted reward
are accumulated separately, event by event, and
:func:`lyricmelody.rewards.score_rewards` weighs the same model's fold of a
finished melody, so rescoring the returned token sequence reproduces the
reported score to the last bit.  Rerank's candidates and the two-stage
rescoring are weighed by that same call, so whole-melody rewards have one
entry point.  Ties break by vocabulary order, then by shorter sequence
(lexicographic comparison of token index sequences).

Expansion scores first and builds later: each legal move of each live
hypothesis is a flat tuple of score parts, and only what is kept (the beam's
top ``width``, the sampled token) gets a prefix, key and state.  Events never
depend on a token's duration, so a parent scores each event signature
(:meth:`lyricmelody.rewards._EventModel.signature`) once and reuses the
identical float.  Every move is scored off one plan of the parent's state
(:meth:`~lyricmelody.rewards._EventModel.plan`, built at the parent's first
move that fires an event): END and a rest read their (reward, masked) pair
off it, a syllable start completes it at its pitch
(:meth:`~lyricmelody.rewards._EventModel.complete`), and a melisma
continuation fires nothing.  The event model has no other scoring path.
Live keys share one length, so (parent's rank among live keys, token index)
orders children as their full keys do; END keeps its parent's key, a prefix
of its siblings' keys, so it ranks first on a tie.

A vocabulary with no syllable-start token (or, for the pitch stage, no
pitch, or no rest mark for the rhythm's rests) cannot cover the lyrics;
building its moves function raises
:class:`~lyricmelody.errors.TrainingError` before its stage decodes anything.

Hypothesis expansion is pure over immutable models; one decode owns its
hypotheses, and independent decodes may run concurrently.
"""

from __future__ import annotations

import heapq
import math
import random
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from operator import add, attrgetter
from typing import Optional, Sequence

from .errors import InternalError, OptionError, TrainingError
from .lyrics import LyricSequence
from .melody import Melody, MelodyToken, RhythmToken, TokenKind, check_meter
from .rewards import (
    ALL_ASPECTS,
    Aspect,
    RewardConfig,
    _EventModel,
    _State,
    score_rewards,
)
from .scorer import (
    END,
    REST_MARK,
    Scorer,
    Vocabulary,
    melody_sequence,
    pitch_projection,
    pitch_sequence,
    rhythm_sequence,
)

__all__ = [
    "DecodeMode",
    "Pipeline",
    "DecodeOptions",
    "DecodeResult",
    "beam_search",
    "beam_search_hard",
    "sample",
    "rerank",
    "decode",
    "decode_two_stage",
    "score_decode",
    "score_two_stage",
]


class DecodeMode(Enum):
    BEAM_SOFT = "beam"
    BEAM_HARD = "beam-hard"
    SAMPLE = "sample"
    RERANK = "rerank"


class Pipeline(Enum):
    SINGLE_STAGE = "single"
    TWO_STAGE = "two-stage"


@dataclass(frozen=True)
class DecodeOptions:
    mode: DecodeMode = DecodeMode.BEAM_SOFT
    beam_width: int = 4
    top_k: int = 5
    temperature: float = 0.5
    rerank_candidates: int = 10
    pipeline: Pipeline = Pipeline.SINGLE_STAGE
    max_notes_per_syllable: int = 4
    seed: int = 0
    time_signature: tuple[int, int] = (4, 4)
    active: frozenset[Aspect] = ALL_ASPECTS

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise OptionError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.top_k < 1:
            raise OptionError(f"top_k must be >= 1, got {self.top_k}")
        if self.temperature <= 0:
            raise OptionError(f"temperature must be positive, got {self.temperature}")
        if self.rerank_candidates < 1:
            raise OptionError(f"rerank_candidates must be >= 1, got {self.rerank_candidates}")
        if self.max_notes_per_syllable < 1:
            raise OptionError("max_notes_per_syllable must be >= 1")
        if self.pipeline is Pipeline.TWO_STAGE and self.mode is not DecodeMode.BEAM_SOFT:
            raise OptionError(
                f"two-stage decoding runs beam search only, got mode {self.mode.value!r}"
            )
        object.__setattr__(self, "time_signature", tuple(self.time_signature))
        try:
            check_meter(self.time_signature)
        except ValueError as exc:
            raise OptionError(str(exc)) from None


# ---------------------------------------------------------------------------
# decode grammar
# ---------------------------------------------------------------------------


class _Context(_EventModel):
    """The reward-event model of one decode plus its grammar."""

    def __init__(
        self,
        lyrics: LyricSequence,
        config: RewardConfig,
        options: DecodeOptions,
        active: frozenset[Aspect],
    ):
        super().__init__(lyrics, config, active, options.time_signature)
        self.options = options

    def legal(self, st: _State, groups: "_VocabGroups") -> list[tuple[int, object]]:
        out: list[tuple[int, object]] = []
        if st.syl + 1 < self.n:
            out.extend(groups.starts)
        if st.syl >= 0 and st.span_open:
            if len(st.span_pitches) < self.options.max_notes_per_syllable:
                out.extend(groups.continuations)
            out.extend(groups.rests)
        if st.syl == self.n - 1:
            out.append(groups.end)
        return out


@dataclass(frozen=True)
class _VocabGroups:
    starts: tuple[tuple[int, object], ...]
    continuations: tuple[tuple[int, object], ...]
    rests: tuple[tuple[int, object], ...]
    end: tuple[int, object]
    signatures: tuple  # the event signature of each vocabulary index


def _group_vocab(vocab: Vocabulary) -> _VocabGroups:
    starts, continuations, rests = [], [], []
    end = None
    signatures = tuple(map(_EventModel.signature, vocab.tokens))
    for idx, token in enumerate(vocab.tokens):
        if token == END:
            end = (idx, token)
            continue
        if not token.is_note:
            rests.append((idx, token))
        elif token.syllable_start:
            starts.append((idx, token))
        else:
            continuations.append((idx, token))
    if not starts:
        raise TrainingError(
            f"the model's {vocab.kind} vocabulary has no syllable-start token, "
            "so it cannot cover any lyrics"
        )
    return _VocabGroups(tuple(starts), tuple(continuations), tuple(rests), end, signatures)


@dataclass(frozen=True, slots=True)
class _Hypothesis:
    """A partial decode: token prefix, its state, and split score accumulators.

    ``score`` is always base + reward; both parts are re-derivable from the
    token sequence.
    """

    tokens: tuple
    key: tuple[int, ...]
    state: _State
    base: float = 0.0
    reward: float = 0.0

    @property
    def score(self) -> float:
        return self.base + self.reward


def _extend(ctx: _Context, h: _Hypothesis, entry: tuple) -> _Hypothesis:
    """The child of ``h`` that an :func:`_expand` entry of ``h`` describes."""
    _, _, pos, token, base, reward, _ = entry
    return _Hypothesis(
        tokens=h.tokens + (token,),
        key=h.key if pos < 0 else h.key + (pos,),
        state=h.state if pos < 0 else ctx.apply(h.state, token),
        base=base,
        reward=reward,
    )


def _expand(
    ctx: _Context, h: _Hypothesis, rank: int, moves, lps, signatures
) -> list[tuple]:
    """``(-score, rank, pos, token, base, reward, masked)`` per ``(idx, token)``
    move of ``h``, the ``rank``-th live hypothesis by key, with base
    log-probabilities ``lps``; ``pos`` is ``idx``, or -1 for END.  Builds no
    child and scores each ``signatures[idx]`` once, off one plan of the
    parent's moves (built at the first move that fires an event): END and a
    rest read their (reward, masked) pair off it, a syllable start completes
    it at its pitch, and a melisma continuation fires nothing."""
    memo = {}
    plan = None
    out = []
    for (idx, token), lp in zip(moves, lps):
        sig = signatures[idx]
        hit = memo.get(sig)
        if hit is None:
            if sig != END and sig[0] and not sig[1]:  # (is_note, starts, pitch)
                hit = (h.reward, False)  # a melisma continuation fires nothing
            else:
                if plan is None:
                    plan = ctx.plan(h.state, h.reward)
                hit = (plan.end if sig == END else plan.rest if not sig[0]
                       else ctx.complete(plan, sig[2]))
            memo[sig] = hit
        base, pos = h.base + lp, -1 if sig == END else idx
        out.append((-(base + hit[0]), rank, pos, token, base, hit[0], hit[1]))
    return out


def _keep(ctx: _Context, live: list, pool: list, width: int) -> list[_Hypothesis]:
    """The children of the ``width`` best :func:`_expand` entries, built."""
    return [_extend(ctx, live[entry[1]], entry) for entry in heapq.nsmallest(width, pool)]


@dataclass(frozen=True)
class DecodeResult:
    melody: Melody
    score: float
    base_logprob: float
    reward_total: float
    mode: DecodeMode
    pipeline: Pipeline = Pipeline.SINGLE_STAGE
    relaxation_steps: tuple[int, ...] = ()
    stage_scores: Optional[dict] = None


def _max_steps(ctx: _Context) -> int:
    return ctx.n * (ctx.options.max_notes_per_syllable + 1) + 2


def _grammar(ctx: _Context, scorer: Scorer):
    """The moves function of single-stage decoding and the rhythm stage: a
    hypothesis's legal moves under the grammar, their base log-probabilities
    and the vocabulary's event signatures."""
    groups = _group_vocab(scorer.vocab)

    def moves_of(h: _Hypothesis) -> tuple:
        dist = scorer.log_prob_dist(h.tokens)
        moves = ctx.legal(h.state, groups)
        return moves, [dist[t] for _, t in moves], groups.signatures

    return moves_of


def _beam(
    ctx: _Context, moves_of, width: int, hard: bool
) -> tuple[_Hypothesis, tuple[int, ...]]:
    """Beam search over the moves ``moves_of(h)`` offers each hypothesis:
    (best completion by ``(-score, key)``, steps where hard mode relaxed)."""
    live = [_Hypothesis(tokens=(), key=(), state=_State())]
    best: Optional[_Hypothesis] = None
    relaxations: list[int] = []
    for step in range(_max_steps(ctx)):
        live.sort(key=attrgetter("key"))
        pool: list[tuple] = []
        for rank, h in enumerate(live):
            scored = _expand(ctx, h, rank, *moves_of(h))
            if scored and scored[-1][2] < 0:  # END, always the last legal move
                done = scored.pop()
                if best is None or (done[0], h.key) < (-best.score, best.key):
                    best = _extend(ctx, h, done)
            pool.extend(scored)
        if hard and pool:
            survivors = [entry for entry in pool if not entry[6]]
            if not survivors:
                relaxations.append(step)
                survivors = pool
            pool = survivors
        if not pool:
            break
        live = _keep(ctx, live, pool, width)
    else:
        raise InternalError("beam search exceeded the grammar's step bound")
    if best is None:
        raise InternalError("beam search finished without a complete hypothesis")
    return best, tuple(relaxations)


def _result_from(
    ctx: _Context, h: _Hypothesis, mode: DecodeMode, relaxations: tuple[int, ...] = ()
) -> DecodeResult:
    tokens = tuple(t for t in h.tokens if t != END)
    melody = Melody(tokens, ctx.options.time_signature)
    if melody.syllable_count != ctx.n:
        raise InternalError(
            f"decoded melody covers {melody.syllable_count} syllables, expected {ctx.n}"
        )
    return DecodeResult(
        melody=melody,
        score=h.score,
        base_logprob=h.base,
        reward_total=h.reward,
        mode=mode,
        relaxation_steps=relaxations,
    )


def beam_search(
    lyrics: LyricSequence,
    scorer: Scorer,
    config: RewardConfig,
    options: DecodeOptions,
) -> DecodeResult:
    """Constrained beam search keeping ``beam_width`` hypotheses ranked by the
    combined score; deterministic, returns the best completed hypothesis."""
    ctx = _Context(lyrics, config, options, options.active)
    best, _ = _beam(ctx, _grammar(ctx, scorer), options.beam_width, hard=False)
    return _result_from(ctx, best, DecodeMode.BEAM_SOFT)


def beam_search_hard(
    lyrics: LyricSequence,
    scorer: Scorer,
    config: RewardConfig,
    options: DecodeOptions,
) -> DecodeResult:
    """Beam search that masks out candidates violating any triggered active
    constraint; steps where everything is masked fall back to soft scoring
    and are recorded as relaxation events."""
    ctx = _Context(lyrics, config, options, options.active)
    best, relaxations = _beam(ctx, _grammar(ctx, scorer), options.beam_width, hard=True)
    return _result_from(ctx, best, DecodeMode.BEAM_HARD, relaxations)


def _sample_run(ctx: _Context, scorer: Scorer, rng: random.Random, top_k: int) -> _Hypothesis:
    moves_of = _grammar(ctx, scorer)
    if top_k > len(scorer.vocab):
        warnings.warn(
            f"top_k={top_k} exceeds the vocabulary size {len(scorer.vocab)}; clamping",
            stacklevel=3,
        )
        top_k = len(scorer.vocab)
    h = _Hypothesis(tokens=(), key=(), state=_State())
    temperature = ctx.options.temperature
    for _ in range(_max_steps(ctx)):
        kept = sorted(_expand(ctx, h, 0, *moves_of(h)))[:top_k]
        top = max(-entry[0] for entry in kept)
        weights = [math.exp((-entry[0] - top) / temperature) for entry in kept]
        total = reduce(add, weights, 0)  # left fold: builtin sum compensates on 3.12+
        draw = rng.random() * total
        cumulative = 0.0
        chosen = kept[-1]
        for entry, w in zip(kept, weights):
            cumulative += w
            if draw < cumulative:
                chosen = entry
                break
        h = _extend(ctx, h, chosen)
        if chosen[2] < 0:
            return h
    raise InternalError("sampling exceeded the grammar's step bound")


def sample(
    lyrics: LyricSequence,
    scorer: Scorer,
    config: RewardConfig,
    options: DecodeOptions,
) -> DecodeResult:
    """Constrained stochastic decoding: per step, keep the top-k candidates by
    combined score, soften them with the temperature, and draw from the
    seeded generator.  Reproducible per seed."""
    ctx = _Context(lyrics, config, options, options.active)
    rng = random.Random(options.seed)
    h = _sample_run(ctx, scorer, rng, options.top_k)
    return _result_from(ctx, h, DecodeMode.SAMPLE)


def rerank(
    lyrics: LyricSequence,
    scorer: Scorer,
    config: RewardConfig,
    options: DecodeOptions,
) -> DecodeResult:
    """Unconstrained sampling of ``rerank_candidates`` melodies, then pick the
    one whose full-sequence combined score (base + weighted rewards) wins."""
    ctx = _Context(lyrics, config, options, frozenset())
    rng = random.Random(options.seed)
    best: Optional[_Hypothesis] = None
    for _ in range(options.rerank_candidates):
        h = _sample_run(ctx, scorer, rng, options.top_k)
        melody = Melody(h.tokens[:-1], options.time_signature)  # a sample ends with END
        rewarded = replace(h, reward=score_rewards(lyrics, melody, config, options.active).total)
        if best is None or (-rewarded.score, rewarded.key) < (-best.score, best.key):
            best = rewarded
    return _result_from(ctx, best, DecodeMode.RERANK)


def decode(
    lyrics: LyricSequence,
    scorer: Scorer,
    config: RewardConfig,
    options: DecodeOptions,
    rhythm_scorer: Optional[Scorer] = None,
    pitch_scorer: Optional[Scorer] = None,
) -> DecodeResult:
    """Dispatch on mode/pipeline."""
    if options.pipeline is Pipeline.TWO_STAGE:
        if rhythm_scorer is None or pitch_scorer is None:
            raise OptionError("two-stage decoding needs rhythm and pitch scorers")
        return decode_two_stage(lyrics, rhythm_scorer, pitch_scorer, config, options)
    dispatch = {
        DecodeMode.BEAM_SOFT: beam_search,
        DecodeMode.BEAM_HARD: beam_search_hard,
        DecodeMode.SAMPLE: sample,
        DecodeMode.RERANK: rerank,
    }
    return dispatch[options.mode](lyrics, scorer, config, options)


# ---------------------------------------------------------------------------
# two-stage pipeline
# ---------------------------------------------------------------------------


#: the aspects each stage of the two-stage pipeline is rewarded for
_RHYTHM_STAGE = frozenset({Aspect.RHYTHM})
_PITCH_STAGE = frozenset({Aspect.TONE, Aspect.STRUCTURE})


def decode_two_stage(
    lyrics: LyricSequence,
    rhythm_scorer: Scorer,
    pitch_scorer: Scorer,
    config: RewardConfig,
    options: DecodeOptions,
) -> DecodeResult:
    """Beam-decode a rhythm skeleton under the rhythm rewards only, then
    beam-decode pitches onto it under tone + structure rewards.  Both stages
    run :func:`_beam`: stage 1 over the grammar, stage 2 over one slot per
    rhythm token (:func:`_pitch_slots`), so durations, rests and melisma
    grouping never change in stage 2.  Both stages are soft beam searches,
    whatever mode ``options`` names, and the result says so.
    """
    stage1_ctx = _Context(lyrics, config, options, _RHYTHM_STAGE & options.active)
    stage1, _ = _beam(
        stage1_ctx, _grammar(stage1_ctx, rhythm_scorer), options.beam_width, hard=False
    )

    stage2_ctx = _Context(lyrics, config, options, _PITCH_STAGE & options.active)
    slots = _pitch_slots(pitch_scorer, stage1.tokens[:-1])
    stage2, _ = _beam(stage2_ctx, slots, options.beam_width, hard=False)

    melody = Melody(stage2.tokens[:-1], options.time_signature)
    if melody.syllable_count != len(lyrics):
        raise InternalError("assembled melody does not cover the lyrics")
    return DecodeResult(
        melody=melody,
        score=stage1.score + stage2.score,
        base_logprob=stage1.base + stage2.base,
        reward_total=stage1.reward + stage2.reward,
        mode=DecodeMode.BEAM_SOFT,
        pipeline=Pipeline.TWO_STAGE,
        stage_scores={
            "rhythm": {"base": stage1.base, "reward": stage1.reward, "score": stage1.score},
            "pitch": {"base": stage2.base, "reward": stage2.reward, "score": stage2.score},
        },
    )


def _pitch_slots(pitch_scorer: Scorer, rhythm_tokens: Sequence[RhythmToken]):
    """The moves function of the pitch stage: one slot per rhythm token, where
    a note offers every pitch at the token's duration and start flag, a rest
    is forced, and a last slot holds only END."""
    vocab = pitch_scorer.vocab
    pitches = [t for t in vocab.tokens if isinstance(t, int)]
    if not pitches:
        raise TrainingError(
            "the model's pitch vocabulary has no pitch, so it cannot cover any lyrics"
        )
    if REST_MARK not in vocab and not all(t.is_note for t in rhythm_tokens):
        raise TrainingError(
            "the model's pitch vocabulary has no rest mark for the skeleton's rests"
        )
    slots = []
    for slot in (*rhythm_tokens, None):
        if slot is None:
            moves, keys = [(vocab.index_of(END), END)], [END]
        elif slot.is_note:
            moves = [(vocab.index_of(p),
                      MelodyToken(TokenKind.NOTE, slot.duration, p, slot.syllable_start))
                     for p in pitches]
            keys = pitches
        else:
            moves = [(vocab.index_of(REST_MARK), MelodyToken(TokenKind.REST, slot.duration))]
            keys = [REST_MARK]
        slots.append((moves, keys, {idx: _EventModel.signature(t) for idx, t in moves}))

    def moves_of(h: _Hypothesis) -> tuple:
        moves, keys, signatures = slots[len(h.tokens)]
        dist = pitch_scorer.log_prob_dist(tuple(map(pitch_projection, h.tokens)))
        return moves, [dist[k] for k in keys], signatures

    return moves_of


# ---------------------------------------------------------------------------
# from-scratch rescoring
# ---------------------------------------------------------------------------


def _sequence_log_prob(scorer: Scorer, sequence: tuple) -> float:
    base = 0.0
    for i, token in enumerate(sequence):
        base += scorer.log_prob_dist(sequence[:i])[token]
    return base


def score_decode(
    lyrics: LyricSequence,
    melody: Melody,
    scorer: Scorer,
    config: RewardConfig,
    active: frozenset[Aspect] = ALL_ASPECTS,
) -> tuple[float, float, float]:
    """(base log-prob, weighted reward, combined score) of an existing melody,
    recomputed from the token sequence alone."""
    base = _sequence_log_prob(scorer, melody_sequence(melody))
    reward = score_rewards(lyrics, melody, config, active).total
    return base, reward, base + reward


def score_two_stage(
    lyrics: LyricSequence,
    melody: Melody,
    rhythm_scorer: Scorer,
    pitch_scorer: Scorer,
    config: RewardConfig,
    active: frozenset[Aspect] = ALL_ASPECTS,
) -> tuple[float, float, float]:
    """Two-stage counterpart of :func:`score_decode`: rhythm model + rhythm
    rewards plus pitch model + tone/structure rewards."""
    base = _sequence_log_prob(rhythm_scorer, rhythm_sequence(melody))
    pitch_base = _sequence_log_prob(pitch_scorer, pitch_sequence(melody))
    # the second call reuses the first one's fold
    rhythm_reward = score_rewards(lyrics, melody, config, _RHYTHM_STAGE & active).total
    pitch_reward = score_rewards(lyrics, melody, config, _PITCH_STAGE & active).total
    total_base = base + pitch_base
    total_reward = rhythm_reward + pitch_reward
    return total_base, total_reward, total_base + total_reward
