"""Reward-augmented decoding: one decoder per :class:`DecodeMode` (soft and
hard beam search, top-k sampling, re-ranking, and the rhythm-then-pitch
two-stage beam search), and :func:`decode`, which runs the one
``DecodeOptions.mode`` names.

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
the rhythm stage of two-stage decoding.  One beam search serves every
stage: it runs over a moves function that gives each hypothesis its legal
moves, grouped by event signature, and its base log-probability
distribution, built from the grammar or, for the pitch stage, from one slot
per rhythm token (a note offers every pitch, a rest is forced, END closes).
Which rewards a candidate triggers comes from the reward-event model in
:mod:`lyricmelody.rewards`; this module adds only the moves and the search.
Scores stay re-derivable: the base log-probability and the weighted reward
are accumulated separately, event by event, and
:func:`lyricmelody.rewards.score_rewards` weighs the same model's fold of a
finished melody, so rescoring the returned token sequence reproduces the
reported score to the last bit.  Rerank's candidates and the two-stage
rescoring are weighed by that same call, so whole-melody rewards have one
entry point.  Ties break by vocabulary order, then by shorter sequence
(lexicographic comparison of token index sequences).

Expansion scores first and builds later.  Events never depend on a
token's duration, so each decode groups its moves once into classes of one
event signature (:meth:`lyricmelody.rewards._EventModel.signature`), and an
expansion walks the legal classes and scores each once: a class's moves
share one reward and differ only in base log-probability.  Every class is
scored off one plan of the parent's state
(:meth:`~lyricmelody.rewards._EventModel.plan`, built at the parent's first
class that fires an event): END and a rest read their (reward, masked) pair
off it, a syllable start completes it at its pitch by row reads
(:meth:`~lyricmelody.rewards._EventModel.complete`), and a melisma
continuation fires nothing; with no aspect active, as in rerank's
sampling, nothing fires and nothing is planned.  A plan with no harmony
cell and no structure partner pays every start pitch alike, so its start
classes are one class, completed once: every start move of the vocabulary.
The event model has no other scoring path, and steps a kept child on its
stage's clock: integer ticks over every token the stage can emit, kept on
the vocabulary per meter (the pitch stage's per-decode tokens get their
own); it builds a new state, since the hypotheses share theirs.  A step
bounds each class by its best move's ``-score``, ``-((base + max
log-probability) + reward)``, the move's own float expression, so the bound
is that move's ``-score`` to the bit.  A vocabulary's groups, built once and
kept on it, keep each class's max, and the best start's, on the table itself
(its ``derived`` slot, so it lives exactly as long as the table), and two
lists of the table's moves that share one reward, each ranked best first
(vocabulary order on ties) by its first walk: the continuations, and the
starts as one class; a table with no such slot, and the pitch stage's
per-decode slots, are read per expansion, unranked.  The bar is the
``width``-th smallest bound (the sampler's ``top_k``-th): at least
``width`` moves are at or under it, so none past it can be kept.  Only
moves at or under the bar, ties included, become flat tuples of score parts:
a ranked walk stops at its first move past the bar (``fl(base + x)`` and
``fl(· + reward)`` are monotone in ``x``) and, as its entries share rank and
reward, after its ``width``-th entry but for ties with it.  Only what is
kept gets a prefix, key and state.  Beam-hard completes a syllable start only at a
pitch its plan may pay in full
(:meth:`~lyricmelody.rewards._EventModel.candidates`) and sets a masked
class aside; the other starts, masked for certain, are completed, and the
classes set aside bounded and built, only on a step where no unmasked move
is left, the step it records as relaxed; END is always built.  Live keys share one length, so
(parent's rank among live keys, token index) orders children as their full
keys do; END keeps its parent's key, a prefix of its siblings' keys, so it
ranks first on a tie.

A vocabulary with no syllable-start token (or, for the pitch stage, no
pitch, or no rest mark for the rhythm's rests) cannot cover the lyrics;
building its moves function raises
:class:`~lyricmelody.errors.TrainingError` before its stage decodes anything.

Hypothesis expansion is pure over immutable models; one decode owns its
hypotheses, and independent decodes may run concurrently.
"""

from __future__ import annotations

import math
import random
import sys
import warnings
from enum import Enum
from functools import reduce
from itertools import count
from operator import add, attrgetter, itemgetter
from typing import Optional, Sequence

from .errors import InternalError, OptionError, TrainingError
from .lyrics import LyricSequence, _Record, _set
from .melody import Melody, MelodyToken, RhythmToken, TokenKind, check_meter
from .rewards import (
    ALL_ASPECTS,
    Aspect,
    RewardConfig,
    _EventModel,
    _State,
    _clock,
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
    TWO_STAGE = "two-stage"


class DecodeOptions(_Record, frozen=True):
    """How to decode: the mode, its widths and sampling settings, the meter,
    and ``active``, the set of :class:`~lyricmelody.rewards.Aspect` whose
    rewards are added (and, in beam-hard, masked); the others score 0."""

    __match_args__ = ("mode", "beam_width", "top_k", "temperature", "rerank_candidates",
                      "max_notes_per_syllable", "seed", "time_signature", "active")

    def __init__(
        self,
        mode: DecodeMode = DecodeMode.BEAM_SOFT,
        beam_width: int = 4,
        top_k: int = 5,
        temperature: float = 0.5,
        rerank_candidates: int = 10,
        max_notes_per_syllable: int = 4,
        seed: int = 0,
        time_signature: tuple[int, int] = (4, 4),
        active: frozenset[Aspect] = ALL_ASPECTS,
    ):
        vars(self).update(
            mode=mode, beam_width=beam_width, top_k=top_k, temperature=temperature,
            rerank_candidates=rerank_candidates, max_notes_per_syllable=max_notes_per_syllable,
            seed=seed, time_signature=time_signature, active=active)
        for name in ("beam_width", "top_k", "rerank_candidates", "max_notes_per_syllable"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool is an int, and counts no moves
                raise OptionError(f"{name} must be an integer >= 1, got {value!r}")
        t = self.temperature
        if isinstance(t, bool) or not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
            raise OptionError(f"temperature must be a finite positive number, got {t!r}")
        if type(self.mode) is not DecodeMode:
            raise OptionError(f"mode must be a DecodeMode, got {self.mode!r}")
        if not (isinstance(self.active, (set, frozenset)) and self.active <= ALL_ASPECTS):
            raise OptionError(f"active must be a set of Aspects, got {self.active!r}")
        _set(self, "active", frozenset(self.active))  # hashable, not the caller's
        try:  # a pair, then the meter rule
            meter = tuple(self.time_signature)
            check_meter(meter)
        except (TypeError, ValueError) as exc:
            raise OptionError(f"time_signature {self.time_signature!r}: {exc}") from None
        _set(self, "time_signature", meter)


# ---------------------------------------------------------------------------
# decode grammar
# ---------------------------------------------------------------------------


class _Context(_EventModel):
    """The reward-event model of one decode stage, plus its grammar, on the
    clock of ``tokens``: a vocabulary's kept clock, or that of every token
    the stage emits."""

    def __init__(
        self,
        lyrics: LyricSequence,
        config: RewardConfig,
        options: DecodeOptions,
        active: frozenset[Aspect],
        tokens: Vocabulary | Sequence,
    ):
        meter = options.time_signature
        clock = (_vocab_clock(tokens, meter) if isinstance(tokens, Vocabulary)
                 else _clock(meter, [t for t in tokens if t != END]))
        super().__init__(lyrics, config, active, meter, clock=clock)
        self.options = options

    def legal(self, st: _State, groups: "_VocabGroups", continuations=None) -> list[tuple]:
        """``st``'s legal signature classes, END's last; a table's ``continuations`` if given."""
        out: list[tuple] = []
        if st.syl + 1 < self.n:
            out.extend(groups.starts)
        if st.span_open:
            if len(st.span_pitches) < self.options.max_notes_per_syllable:
                out.extend(continuations or groups.continuations)
            out.extend(groups.rests)
        if st.syl == self.n - 1:
            out.extend(groups.end)
        return out


def _classes(moves, index=None) -> tuple:
    """``(signature, ((pos, token, dist_key), ...), i)`` per distinct event
    signature of the ``(pos, token, dist_key)`` moves, in order of first use,
    ``i`` counted on ``index`` (or from 0); ``pos`` is the vocabulary index,
    or -1 for END, whose class's moves are :data:`_END_MOVES`."""
    by_signature: dict = {}
    for move in moves:
        by_signature.setdefault(_EventModel.signature(move[1]), []).append(move)
    index = index or count()
    return tuple((sig, _END_MOVES if sig is END else tuple(g), next(index))
                 for sig, g in by_signature.items())


def _maxima_of(classes: tuple, starts: int = 0):
    """A table's best log-probability per class of ``classes``, by index, and
    after them, given ``starts``, the best of the first ``starts`` classes'."""
    keys = [[k for _, _, k in moves] for _, moves, _ in classes]
    if len(keys) > 1 and all(len(k) == 1 for k in keys):  # one C call reads them all
        maxima = itemgetter(*(k for k, in keys))
    else:
        maxima = lambda dist: [max(map(get, k)) for get in [dist.__getitem__] for k in keys]
    if not starts:
        return maxima
    return lambda dist: [*(m := maxima(dist)), max(m[:starts])]


class _Ranked(tuple):
    """Moves that share one reward, walked best first off the ranking their
    table keeps in ``derived[slot]``."""

    def __new__(cls, moves, slot: int):
        self = super().__new__(cls, moves)
        self.slot = slot
        return self


#: the signature of every start as one class, for a plan that pays each pitch alike
_ANY_START = (True, True, None)


class _VocabGroups(_Record):
    """A vocabulary's moves by grammar role, as :func:`_classes` indexed
    across all four, its starts by pitch, and ``any_start``: every start
    move, in vocabulary order, as one class indexed after them.  A table it
    looks up keeps ``[groups, maxima, continuations, starts]`` in its
    ``derived`` slot: its best log-probability per class, then its best
    start's, and each list ranked by its first walk (None until then)."""

    __match_args__ = ("starts", "continuations", "rests", "end")

    def __init__(self, starts: tuple, continuations: tuple, rests: tuple, end: tuple):
        self.starts = starts
        self.continuations = continuations
        self.rests = rests
        self.end = end
        classes = starts + continuations + rests + end
        self._maxima_of = _maxima_of(classes, len(self.starts))
        self.start_of = {cls[0][2]: cls for cls in self.starts}
        starts = tuple(sorted(move for _, moves, _ in self.starts for move in moves))
        self.any_start = (_ANY_START, starts, len(classes))
        self.ranked = tuple((sig, _Ranked(moves, 2), i) for sig, moves, i in self.continuations)
        self.ranked_start = (_ANY_START, _Ranked(starts, 3), len(classes))

    def lookup(self, dist) -> tuple:
        """``(maxima, continuation classes, every start as one class)`` of
        ``dist``: :class:`_Ranked` if ``dist`` keeps them, unranked for a
        table with no ``derived`` slot."""
        entry = getattr(dist, "derived", None)
        if entry is not None and entry[0] is self:  # not another vocabulary's
            return entry[1], self.ranked, self.ranked_start
        maxima = self._maxima_of(dist)
        try:
            dist.derived = [self, maxima, None, None]
        except AttributeError:  # a plain dict, as UniformScorer's, takes nothing
            return maxima, self.continuations, self.any_start
        return maxima, self.ranked, self.ranked_start


#: END's class's moves in every stage, so that class is known by identity
_END_MOVES = ((-1, END, END),)


def _group_vocab(vocab: Vocabulary) -> _VocabGroups:
    """``vocab``'s groups, built on its first decode and kept on it."""
    if (groups := getattr(vocab, "_groups", None)) is not None:
        return groups
    starts, continuations, rests = [], [], []
    for idx, token in enumerate(vocab.tokens):
        if token == END:
            continue
        if not token.is_note:
            rests.append((idx, token, token))
        elif token.syllable_start:
            starts.append((idx, token, token))
        else:
            continuations.append((idx, token, token))
    if not starts:
        raise TrainingError(
            f"the model's {vocab.kind} vocabulary has no syllable-start token, "
            "so it cannot cover any lyrics"
        )
    index, roles = count(), (starts, continuations, rests, _END_MOVES)
    groups = _VocabGroups(*(_classes(moves, index) for moves in roles))
    return vars(vocab).setdefault("_groups", groups)  # racing threads all get the one stored


def _vocab_clock(vocab: Vocabulary, meter: tuple[int, int]) -> tuple:
    """``vocab``'s :func:`~lyricmelody.rewards._clock` in ``meter``, built on its
    first decode in that meter and kept on it; shared, so never written to."""
    clocks = vars(vocab).setdefault("_clocks", {})
    if (clock := clocks.get(meter)) is None:
        clock = clocks.setdefault(meter, _clock(meter, vocab.tokens[:-1]))  # END is last
    return clock


class _Hypothesis(_Record):
    """A partial decode: token prefix, its state, and split score accumulators.

    ``score`` is always base + reward; both parts are re-derivable from the
    token sequence.
    """

    __slots__ = __match_args__ = ("tokens", "key", "state", "base", "reward")

    def __init__(self, tokens: tuple, key: tuple[int, ...], state: _State,
                 base: float = 0.0, reward: float = 0.0):
        self.tokens = tokens
        self.key = key
        self.state = state
        self.base = base
        self.reward = reward

    @property
    def score(self) -> float:
        return self.base + self.reward


def _extend(ctx: _Context, h: _Hypothesis, entry: tuple) -> _Hypothesis:
    """The child of ``h`` that an :func:`_entries` entry of ``h`` describes."""
    _, _, pos, token, base, reward, _ = entry
    if pos < 0:  # END: the key and state stay the parent's
        return _Hypothesis(h.tokens + (token,), h.key, h.state, base, reward)
    return _Hypothesis(h.tokens + (token,), h.key + (pos,), ctx.apply(h.state, token), base, reward)


def _expand(
    ctx: _Context, h: _Hypothesis, rank: int, classes, dist, maxima, groups=None,
    any_start=None, held: Optional[list] = None, deferred: Optional[list] = None,
) -> list[tuple]:
    """``(rank, base, reward, masked, moves, best, dist)`` per signature class
    (:func:`_classes`) of ``h``, the ``rank``-th live hypothesis by key, with
    base log-probabilities ``dist[dist_key]``, the best of them ``maxima[i]``.
    Builds no move and scores each class once, off one plan of the parent's
    moves (built at the first class that fires an event), END first by
    identity, then by the start flag: END and a rest read their (reward,
    masked) pair off the plan, a syllable start completes it at its pitch,
    and a melisma continuation fires nothing.  With no aspect active nothing
    fires, and nothing is planned.  Given ``groups``, a plan with no harmony
    cell and no structure partner pays every start pitch alike, so its start
    classes (the grammar's first) become one, ``any_start``.  Given ``held``
    (beam-hard), a masked class other than END goes there, and only the start
    classes of the plan's candidate pitches are completed: ``(rank, base,
    plan, dist, maxima, starts, found)`` goes to ``deferred``."""
    base, start = h.base, h.reward
    if not ctx.active:  # every class keeps the parent's reward
        return [(rank, base, start, False, moves, maxima[i], dist) for _, moves, i in classes]
    plan, out = None, []
    if groups is not None and h.state.syl + 1 < ctx.n:  # starts are legal, and listed first
        plan = ctx.plan(h.state, start)
        starts = groups.starts
        if plan.cell is None and plan.partner_delta is None:  # every pitch pays alike
            starts = [any_start]
        if held is not None and (pitches := ctx.candidates(h.state, plan)) is not None:
            found = [cls for p in pitches if (cls := groups.start_of.get(p))]
            deferred.append((rank, base, plan, dist, maxima, starts, found))
            starts = found
        if starts is not groups.starts:
            classes[:len(groups.starts)] = starts  # legal's own list
    if held is None:
        held = out
    for sig, moves, i in classes:
        if sig is END:  # the last legal class, never held
            reward, masked = (plan or ctx.plan(h.state, start)).end
            out.append((rank, base, reward, masked, moves, maxima[i], dist))
        elif sig[1] or not sig[0]:  # a syllable start, (is_note, starts, pitch), or a rest
            plan = plan or ctx.plan(h.state, start)
            reward, masked = ctx.complete(plan, sig[2]) if sig[1] else plan.rest
            (held if masked else out).append((rank, base, reward, masked, moves, maxima[i], dist))
        else:  # a melisma continuation fires nothing
            out.append((rank, base, start, False, moves, maxima[i], dist))
    return out


def _entries(rank, base, reward, masked, moves, best, dist, bar=math.inf, n=0) -> list:
    """``(-score, rank, pos, token, base, reward, masked)`` per move of one
    :func:`_expand` class whose ``-score`` is at most ``bar``; :class:`_Ranked`
    moves are walked best first, and the ``n``-th entry's ``-score`` becomes the bar."""
    if type(moves) is tuple:
        return [(s, rank, pos, token, b, reward, masked) for pos, token, k in moves
                if (s := -((b := base + dist[k]) + reward)) <= bar]
    entry, slot = dist.derived, moves.slot  # the walking expansion's lookup stored it
    if (ranked := entry[slot]) is None:
        ranked = entry[slot] = sorted(moves, key=lambda m: dist[m[2]], reverse=True)
    out = []
    for pos, token, k in ranked:
        if (s := -((b := base + dist[k]) + reward)) > bar:
            break
        out.append((s, rank, pos, token, b, reward, masked))
        if len(out) == n:
            bar = s
    return out


def _best(classes: list, n: int) -> list[tuple]:
    """The ``n`` smallest :func:`_entries` of the :func:`_expand` ``classes``,
    built only at or under the bar: the ``n``-th smallest class bound, where
    a class's bound is its best move's ``-score``, the same float."""
    bounds = [-((base + best) + reward) for _, base, reward, _, _, best, _ in classes]
    bar = sorted(bounds)[n - 1] if len(bounds) >= n else math.inf
    return sorted([entry for bound, cls in zip(bounds, classes) if bound <= bar
                   for entry in _entries(*cls, bar, n)])[:n]


class DecodeResult(_Record, frozen=True):
    """A decoded melody and its score: the base log-probability plus the
    weighted reward.  ``relaxation_steps`` are the 0-based steps (tokens
    emitted before them) at which beam-hard found every move masked and fell
    back to soft scoring; ``stage_scores`` is two-stage decoding's
    ``{"rhythm" | "pitch": {"base", "reward", "score"}}``, else None."""

    __match_args__ = ("melody", "score", "base_logprob", "reward_total", "mode",
                      "relaxation_steps", "stage_scores")

    def __init__(self, melody: Melody, score: float, base_logprob: float, reward_total: float,
                 mode: DecodeMode, relaxation_steps: tuple[int, ...] = (),
                 stage_scores: Optional[dict] = None):
        vars(self).update(melody=melody, score=score, base_logprob=base_logprob,
                          reward_total=reward_total, mode=mode,
                          relaxation_steps=relaxation_steps, stage_scores=stage_scores)


def _max_steps(ctx: _Context) -> int:
    return ctx.n * (ctx.options.max_notes_per_syllable + 1) + 2


def _grammar(ctx: _Context, scorer: Scorer):
    """The moves function of single-stage decoding and the rhythm stage: the
    signature classes of a hypothesis's legal moves under the grammar, its
    base log-probability distribution, that table's class maxima, the groups
    and every start as one class."""
    groups = _group_vocab(scorer.vocab)

    def moves_of(h: _Hypothesis) -> tuple:
        dist = scorer.log_prob_dist(h.tokens)
        maxima, continuations, any_start = groups.lookup(dist)
        return ctx.legal(h.state, groups, continuations), dist, maxima, groups, any_start

    return moves_of


def _beam(
    ctx: _Context, moves_of, width: int, hard: bool
) -> tuple[_Hypothesis, tuple[int, ...]]:
    """Beam search over the moves ``moves_of(h)`` offers each hypothesis:
    (best completion by ``(-score, key)``, steps where hard mode relaxed)."""
    live = [_Hypothesis((), (), _State())]
    best: Optional[_Hypothesis] = None
    relaxations: list[int] = []
    for step in range(_max_steps(ctx)):
        live.sort(key=attrgetter("key"))
        pool: list[tuple] = []  # the live hypotheses' classes
        held = [] if hard else None  # masked classes, built only if nothing else is left
        deferred: list[tuple] = []  # hard mode's starts left to complete, per expansion
        for rank, h in enumerate(live):
            classes = _expand(ctx, h, rank, *moves_of(h), held, deferred)
            if classes and classes[-1][4] is _END_MOVES:  # END's, always the last legal one
                done, = _entries(*classes.pop())
                if best is None or (done[0], h.key) < (-best.score, best.key):
                    best = _extend(ctx, h, done)
            pool.extend(classes)
        if deferred and not pool:  # the starts no candidate named, each masked
            held += [(rank, base, *ctx.complete(plan, cls[0][2]), cls[1], maxima[cls[2]], dist)
                     for rank, base, plan, dist, maxima, starts, found in deferred
                     for cls in starts if cls not in found]
        if held and not pool:
            relaxations.append(step)
            pool = held
        if not pool:
            break
        live = [_extend(ctx, live[entry[1]], entry) for entry in _best(pool, width)]
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
    ctx = _Context(lyrics, config, options, options.active, scorer.vocab)
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
    ctx = _Context(lyrics, config, options, options.active, scorer.vocab)
    best, relaxations = _beam(ctx, _grammar(ctx, scorer), options.beam_width, hard=True)
    return _result_from(ctx, best, DecodeMode.BEAM_HARD, relaxations)


def _top_k(scorer: Scorer, top_k: int) -> int:
    """``top_k``, clamped to the vocabulary size with a warning; once per decode."""
    if top_k > len(scorer.vocab):
        depth = 1  # name the first caller outside this module: sample's, rerank's or decode's
        while sys._getframe(depth).f_globals is globals():
            depth += 1
        warnings.warn(f"top_k={top_k} exceeds the vocabulary size {len(scorer.vocab)}; "
                      "clamping", stacklevel=depth + 1)
    return min(top_k, len(scorer.vocab))


def _sample_run(ctx: _Context, moves_of, rng: random.Random, top_k: int) -> _Hypothesis:
    h = _Hypothesis((), (), _State())
    temperature = ctx.options.temperature
    for _ in range(_max_steps(ctx)):
        kept = _best(_expand(ctx, h, 0, *moves_of(h)), top_k)
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
    ctx = _Context(lyrics, config, options, options.active, scorer.vocab)
    rng = random.Random(options.seed)
    h = _sample_run(ctx, _grammar(ctx, scorer), rng, _top_k(scorer, options.top_k))
    return _result_from(ctx, h, DecodeMode.SAMPLE)


def rerank(
    lyrics: LyricSequence,
    scorer: Scorer,
    config: RewardConfig,
    options: DecodeOptions,
) -> DecodeResult:
    """Unconstrained sampling of ``rerank_candidates`` melodies, then pick the
    one whose full-sequence combined score (base + weighted rewards) wins."""
    ctx = _Context(lyrics, config, options, frozenset(), scorer.vocab)
    rng = random.Random(options.seed)
    moves_of, top_k = _grammar(ctx, scorer), _top_k(scorer, options.top_k)
    best: Optional[_Hypothesis] = None
    for _ in range(options.rerank_candidates):
        h = _sample_run(ctx, moves_of, rng, top_k)
        melody = Melody(h.tokens[:-1], options.time_signature)  # a sample ends with END
        reward = score_rewards(lyrics, melody, config, options.active).total
        rewarded = _Hypothesis(h.tokens, h.key, h.state, h.base, reward)
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
    """Run the decoder ``options.mode`` names; two-stage decoding runs on the
    rhythm and pitch scorers instead of ``scorer``."""
    if options.mode is DecodeMode.TWO_STAGE:
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
# two-stage decoding
# ---------------------------------------------------------------------------


#: the aspects each stage of two-stage decoding is rewarded for
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
    whatever mode ``options`` names; the result reports
    :attr:`DecodeMode.TWO_STAGE` and, per stage, its base, reward and score.
    """
    stage1_ctx = _Context(lyrics, config, options, _RHYTHM_STAGE & options.active,
                          rhythm_scorer.vocab)
    stage1, _ = _beam(
        stage1_ctx, _grammar(stage1_ctx, rhythm_scorer), options.beam_width, hard=False
    )

    slots, tokens = _pitch_slots(pitch_scorer, stage1.tokens[:-1])
    stage2_ctx = _Context(lyrics, config, options, _PITCH_STAGE & options.active, tokens)
    stage2, _ = _beam(stage2_ctx, slots, options.beam_width, hard=False)

    return DecodeResult(
        _result_from(stage2_ctx, stage2, DecodeMode.TWO_STAGE).melody,
        score=stage1.score + stage2.score,
        base_logprob=stage1.base + stage2.base,
        reward_total=stage1.reward + stage2.reward,
        mode=DecodeMode.TWO_STAGE,
        stage_scores={
            "rhythm": {"base": stage1.base, "reward": stage1.reward, "score": stage1.score},
            "pitch": {"base": stage2.base, "reward": stage2.reward, "score": stage2.score},
        },
    )


def _pitch_slots(pitch_scorer: Scorer, rhythm_tokens: Sequence[RhythmToken]):
    """The moves function of the pitch stage, and every token it offers: one
    slot per rhythm token, where a note offers every pitch at the token's
    duration and start flag, a rest is forced, and a last slot holds only END."""
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
    slots, tokens = [], []
    for slot in (*rhythm_tokens, None):
        if slot is None:
            moves = _END_MOVES
        elif slot.is_note:
            moves = [(vocab.index_of(p),
                      MelodyToken(TokenKind.NOTE, slot.duration, p, slot.syllable_start), p)
                     for p in pitches]
        else:
            moves = [(vocab.index_of(REST_MARK), MelodyToken(TokenKind.REST, slot.duration),
                      REST_MARK)]
        slots.append((classes := _classes(moves), _maxima_of(classes)))
        tokens += [token for _, token, _ in moves]

    def moves_of(h: _Hypothesis) -> tuple:
        dist = pitch_scorer.log_prob_dist(tuple(map(pitch_projection, h.tokens)))
        classes, maxima_of = slots[len(h.tokens)]
        return classes, dist, maxima_of(dist), None, None  # no groups: never beam-hard

    return moves_of, tokens


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
