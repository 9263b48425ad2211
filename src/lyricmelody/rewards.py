"""Music-theoretic rewards tying a melody to its lyrics.

Six sub-rewards over three aspects:

* tone — pitch shape of a multi-note syllable, pitch transition between
  adjacent syllables (via a harmony-degree table), pitch contour of a
  whole sentence vs. its intonation;
* rhythm — keywords on strong beats / auxiliaries on weak beats, and
  pauses landing on word or sentence boundaries rather than inside words;
* structure — repeated lyric phrases repeating their pitch intervals.

Each sub-reward is a pure function of what its rule decides: whether a
shape, contour, strong/weak beat or pause matched, the harmony degree of a
transition, how a repeat's interval echoes its anchor.  A config builds
every event it can fire once (:class:`RewardEvent`, with that outcome on
it), and the rules pick one.  When each rule fires is decided by one
token-by-token event model, :class:`_EventModel`.  The decoder scores every
move of a live hypothesis off one :meth:`_EventModel.plan` of its state and
steps a :class:`_State` with :meth:`_EventModel.apply`, which builds a new
one: hypotheses share states and plans, so none is mutated.  Rescoring a
finished melody (:func:`reward_events`, rerank, the objective metrics) runs
:meth:`_EventModel.fold`, a fast loop over local mutable state that applies
the same rules through the same tables and fires every aspect, so a decode
and the rescoring of its output fire the same events in the same order;
only the plan reads the model's active aspects.  Each rule is written once:
the plan and the fold close a span by :meth:`_EventModel._close`, and the
model picks each gap's pause events by :func:`boundary_kind`.
The fold of a pair (:func:`_fold`) memoises its last pair's model and events,
keyed on the identity of the lyrics, config and melody and holding them
strongly, and threads may share the memo.  So
:func:`~lyricmelody.metrics.evaluate_pair` followed by :func:`score_rewards`
on the same objects builds one model, scans the repeats once (the model's
``anchors``, which the structure figures read) and folds once.  The model reads a
token's ``is_note``, ``syllable_start``, ``pitch`` and ``duration`` only, so
it steps a :class:`~lyricmelody.melody.MelodyToken` and the pitch-free
:class:`~lyricmelody.melody.RhythmToken` of rhythm-first decoding alike.
The tests pin the fold and the plan to the same stepped events, and the
fold to an independently written whole-pair scan.

A plan weighs what each move fires once per state: END closes the open
span (shape, contour), a rest also pauses the gap in front of the next
syllable, and a melisma continuation fires nothing.  A syllable start
differs from its siblings only by pitch: its close, strong/weak and pause
events, its tone pair and its structure partner depend on the state alone,
and :meth:`_EventModel.complete` adds a pitch's transition and structure
terms in canonical order, each read off a row of the event table indexed
by pitch delta.  Each move's reward equals :func:`weighted_total` over its
events to the last bit.  A decode's states count onsets and durations in
integer ticks of one clock per stage, so stepping one does no ``Fraction``
arithmetic.

Event timing convention: a syllable's shape and its sentence's contour fire
on the token that closes the span (the next rest, the next syllable's first
note, or the end of the melody); transition, strong/weak and structure fire
on the syllable's first note; the pause reward fires once per syllable gap —
on the gap's rest if there is one, otherwise on the next syllable's first
note.  Within one token, events are ordered shape, contour, transition,
strong/weak, pause, structure.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from importlib import resources
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ConfigError
from .lyrics import (
    Intonation,
    LyricSequence,
    StressClass,
    TONAL_TONES,
    Tone,
    WordPosition,
    _Record,
    _fields,
    _json,
    _repeat_anchors,
    _set,
)
from .melody import END, _RATIOS, BeatStrength, Melody, _check_aligned, _duration, _tick_clock

__all__ = [
    "Aspect",
    "ALL_ASPECTS",
    "HarmonyDegree",
    "HarmonyTable",
    "RewardConfig",
    "BoundaryKind",
    "RewardEvent",
    "PRESET_LAMBDAS",
    "pitch_shape_reward",
    "pitch_transition_reward",
    "contour_matches",
    "pitch_contour_reward",
    "strong_weak_reward",
    "pause_reward",
    "structure_reward",
    "weighted_total",
    "reward_events",
    "score_rewards",
    "boundary_kind",
    "load_reward_config",
    "default_reward_config",
]


class Aspect(Enum):
    TONE = "tone"
    RHYTHM = "rhythm"
    STRUCTURE = "structure"

    __hash__ = object.__hash__  # in C, for the per-event λ and active-set lookups


_ASPECTS = tuple(Aspect)  # iterated without a Python-level Enum method
ALL_ASPECTS = frozenset(_ASPECTS)


class HarmonyDegree(Enum):
    EXCELLENT = "excellent"
    GOOD = "good"
    FAIR = "fair"
    BAD = "bad"

    __hash__ = object.__hash__  # in C, for the per-degree lookups


class HarmonyTable(_Record, frozen=True):
    """Per tone pair, labeled semitone intervals for the pitch jump between
    adjacent syllables.  Differences outside every interval are Bad.

    ``cells`` maps (previous tone, current tone), both tonal, to a tuple of
    ``(lo, hi, degree)`` inclusive intervals.  The table keeps a read-only
    copy of the checked cells, so the event tables built from it stay true.
    """

    __match_args__ = ("cells",)

    def __init__(
        self, cells: Mapping[tuple[Tone, Tone], tuple[tuple[int, int, HarmonyDegree], ...]]
    ):
        for pair, intervals in cells.items():
            tones = pair if type(pair) is tuple else (pair,)
            cell = ",".join(str(getattr(t, "value", t)) for t in tones)  # as a file spells it
            if len(tones) != 2:
                raise ConfigError(f"harmony cell {cell}: the key must be a (previous, current) "
                                  "pair of tones")
            if not (pair[0] in TONAL_TONES and pair[1] in TONAL_TONES):
                raise ConfigError(f"harmony cell {cell}: both tones must be tonal (tone1-tone5)")
            if type(intervals) is not tuple:
                raise ConfigError(f"harmony cell {cell}: {intervals!r} is not a tuple of intervals")
            for item in intervals:
                lo, hi, degree = item if type(item) is tuple and len(item) == 3 else (None,) * 3
                if not (type(lo) is int and type(hi) is int and type(degree) is HarmonyDegree):
                    raise ConfigError(f"harmony cell {cell}: {item!r} is not (low, high, degree) "
                                      "with integer bounds and a HarmonyDegree")
            for lo, hi, _ in intervals:
                if lo > hi:
                    raise ConfigError(f"harmony cell {cell}: interval ({lo}, {hi}) is inverted")
            # compared by their ends, so a wide interval costs no more than a narrow one
            ordered = sorted((lo, hi) for lo, hi, _ in intervals)
            if any(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(ordered, ordered[1:])):
                raise ConfigError(f"harmony cell {cell}: overlapping intervals")
            if not any(lo <= 0 <= hi for lo, hi in ordered):
                raise ConfigError(f"harmony cell {cell}: a zero pitch difference must be labeled")
        _set(self, "cells", MappingProxyType(dict(cells)))

    def degree_of(self, prev: Tone, cur: Tone, delta: int) -> Optional[HarmonyDegree]:
        """Degree for a semitone jump, or None when the pair has no cell."""
        intervals = self.cells.get((prev, cur))
        if intervals is None:
            return None
        return _cell_degree(intervals, delta, HarmonyDegree.BAD)


def _cell_degree(intervals, delta: int, outside):
    """The label of the ``(lo, hi, label)`` interval holding ``delta``, or
    ``outside``."""
    for lo, hi, label in intervals:
        if lo <= delta <= hi:
            return label
    return outside


#: λ presets matching the two published operating points plus a null setting.
PRESET_LAMBDAS = {
    "telemelody": (1.2, 1.5, 1.0),
    "songmass": (1.5, 1.0, 1.0),
    "off": (0.0, 0.0, 0.0),
}


#: the transition reward of each harmony degree unless a config sets it
_TRANSITION_REWARDS = {
    HarmonyDegree.EXCELLENT: 3.0,
    HarmonyDegree.GOOD: 2.0,
    HarmonyDegree.FAIR: 1.0,
    HarmonyDegree.BAD: 0.0,
}


class RewardConfig(_Record, frozen=True):
    """The reward weights (one λ per aspect), each rule's reward on a match,
    the graded harmony table, and ``long_note_threshold``, in quarter notes:
    with no rest in the gap after a syllable, its last note at least that
    long counts as a pause there.  The default table grades no tone pair."""

    __match_args__ = (
        "lambda_tone", "lambda_rhythm", "lambda_structure", "transition_rewards",
        "shape_reward_on_match", "contour_reward_on_match", "sw_reward_on_match",
        "pause_reward_on_match", "structure_reward_exact", "structure_reward_octave",
        "long_note_threshold", "harmony_table")

    def __init__(
        self,
        lambda_tone: float = 1.2,
        lambda_rhythm: float = 1.5,
        lambda_structure: float = 1.0,
        transition_rewards: Mapping[HarmonyDegree, float] = _TRANSITION_REWARDS,  # copied
        shape_reward_on_match: float = 1.0,
        contour_reward_on_match: float = 1.0,
        sw_reward_on_match: float = 1.0,
        pause_reward_on_match: float = 1.0,
        structure_reward_exact: float = 2.0,
        structure_reward_octave: float = 1.0,
        long_note_threshold: Fraction = Fraction(2),
        harmony_table: HarmonyTable = HarmonyTable({}),
    ):
        vars(self).update(
            lambda_tone=lambda_tone, lambda_rhythm=lambda_rhythm,
            lambda_structure=lambda_structure, transition_rewards=transition_rewards,
            shape_reward_on_match=shape_reward_on_match,
            contour_reward_on_match=contour_reward_on_match,
            sw_reward_on_match=sw_reward_on_match, pause_reward_on_match=pause_reward_on_match,
            structure_reward_exact=structure_reward_exact,
            structure_reward_octave=structure_reward_octave,
            long_note_threshold=long_note_threshold, harmony_table=harmony_table)
        if not isinstance(self.harmony_table, HarmonyTable):
            raise ConfigError(f"harmony_table must be a HarmonyTable, got {self.harmony_table!r}")
        # λs and rewards: one non-finite value turns a score into NaN
        values = [(name, getattr(self, name)) for name in self.__match_args__ if name not in (
            "transition_rewards", "long_note_threshold", "harmony_table")]
        values += [(f"{d.value} transition reward", v) for d, v in self.transition_rewards.items()]
        for name, value in values:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for name in ("lambda_tone", "lambda_rhythm", "lambda_structure"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        values = [self.transition_rewards[d] for d in HarmonyDegree]  # excellent to bad
        if any(a < b for a, b in zip(values, values[1:])):
            raise ConfigError("transition rewards must not increase from excellent to bad")
        if self.long_note_threshold <= 0:
            raise ConfigError("long_note_threshold must be positive")
        # a read-only copy of the checked rewards, so the event tables stay true
        rewards = MappingProxyType(dict(self.transition_rewards))
        _set(self, "transition_rewards", rewards)
        # lookups the reward loops hit per event, built once per config
        _set(self, "_lambdas", {
            Aspect.TONE: self.lambda_tone,
            Aspect.RHYTHM: self.lambda_rhythm,
            Aspect.STRUCTURE: self.lambda_structure,
        })
        _set(self, "_events", _event_table(self))
        _set(self, "_long_note", self.long_note_threshold.as_integer_ratio())

    def with_lambdas(self, lambdas: tuple[float, float, float]) -> "RewardConfig":
        lt, lr, ls = lambdas
        return self.__replace__(lambda_tone=lt, lambda_rhythm=lr, lambda_structure=ls)

    def with_preset(self, name: str) -> "RewardConfig":
        if name not in PRESET_LAMBDAS:
            raise ConfigError(f"unknown lambda preset {name!r}, expected one of {sorted(PRESET_LAMBDAS)}")
        return self.with_lambdas(PRESET_LAMBDAS[name])


# ---------------------------------------------------------------------------
# sub-rewards
# ---------------------------------------------------------------------------


def _shape_matches(tone: Tone, pitches: Sequence[int]) -> Optional[bool]:
    first, last = pitches[0], pitches[-1]
    if tone is Tone.TONE1:
        return all(p == first for p in pitches)
    if tone is Tone.TONE2:
        return all(a <= b for a, b in zip(pitches, pitches[1:])) and last > first
    if tone is Tone.TONE4:
        return all(a >= b for a, b in zip(pitches, pitches[1:])) and last < first
    if tone is Tone.TONE3:
        if len(pitches) == 2:
            # two notes cannot dip; the tone's onset falls, so falling counts
            return last < first
        return any(p < first and p < last for p in pitches[1:-1])
    if tone is Tone.TONE5:
        return True
    return None


def pitch_shape_reward(
    tone: Tone, syllable_pitches: Sequence[int], config: RewardConfig
) -> Optional[float]:
    """Reward for a melisma whose pitch flow matches the tone's shape.

    Level tones stay flat, rising tones rise, falling tones fall, the
    dipping tone needs an interior low point (or falls, with only two
    notes); the light tone matches anything.  Returns None (not applicable)
    for single-note syllables and for non-tonal tones.
    """
    if len(syllable_pitches) < 2:
        return None
    matched = _shape_matches(tone, syllable_pitches)
    return None if matched is None else config._events.shape[matched].value


def pitch_transition_reward(
    tone_pair: tuple[Tone, Tone],
    delta_p: int,
    config: RewardConfig,
) -> Optional[float]:
    """Reward for the pitch jump between two adjacent same-sentence syllables,
    graded by ``config.harmony_table``.  None when the tone pair is outside
    the table's domain (stress-accent input, unmarked tones, an empty table)."""
    degree = config.harmony_table.degree_of(tone_pair[0], tone_pair[1], delta_p)
    return None if degree is None else config._events.transition[degree][0].value


def contour_matches(intonation: Intonation, first_pitch: int, last_pitch: int) -> bool:
    """Does a sentence's overall pitch direction agree with its intonation?"""
    if intonation is Intonation.RISING:
        return last_pitch > first_pitch
    if intonation is Intonation.FALLING:
        return last_pitch < first_pitch
    return True


def pitch_contour_reward(
    intonation: Intonation, first_pitch: int, last_pitch: int, config: RewardConfig
) -> float:
    """Reward when a sentence's overall pitch direction matches its intonation."""
    return config._events.contour[contour_matches(intonation, first_pitch, last_pitch)].value


def strong_weak_reward(
    stress_class: StressClass, strength: BeatStrength, config: RewardConfig
) -> Optional[float]:
    """Keyword-on-strong / auxiliary-on-weak reward at a word's first note.

    Neutral words are unconstrained: None, excluded from counts.
    """
    if stress_class is StressClass.NEUTRAL:
        return None
    table = config._events
    beats = table.keyword if stress_class is StressClass.KEYWORD else table.auxiliary
    return beats[strength is BeatStrength.STRONG].value


class BoundaryKind(Enum):
    WORD_INNER = "word_inner"
    WORD_BOUNDARY = "word_boundary"
    SENTENCE_BOUNDARY = "sentence_boundary"

    __hash__ = object.__hash__  # in C, for the event table's gap lookups


def boundary_kind(lyrics: LyricSequence, k: int) -> BoundaryKind:
    """Kind of the gap in front of syllable ``k`` (k >= 1)."""
    left, right = lyrics.syllables[k - 1], lyrics.syllables[k]
    if left.sentence_index != right.sentence_index:
        return BoundaryKind.SENTENCE_BOUNDARY
    if right.word_position is WordPosition.WORD_START:
        return BoundaryKind.WORD_BOUNDARY
    return BoundaryKind.WORD_INNER


def pause_reward(has_pause: bool, kind: BoundaryKind, config: RewardConfig) -> float:
    """Reward pauses at split positions and penalize the two bad cases:
    a pause inside a word, and a sentence boundary without one."""
    return config._events.gaps[kind][has_pause].value


def _echo(delta_p_i: int, delta_p_j: int) -> int:
    """2 for an equal interval, 1 for an octave-shifted one, else 0."""
    if delta_p_i == delta_p_j:
        return 2
    return 1 if (delta_p_i - delta_p_j) % 12 == 0 else 0


def structure_reward(delta_p_i: int, delta_p_j: int, config: RewardConfig) -> float:
    """Reward a repeated position whose pitch interval echoes its anchor:
    full value for an equal interval, partial for an octave-shifted one."""
    return config._events.structure[_echo(delta_p_i, delta_p_j)].value


# ---------------------------------------------------------------------------
# event model
# ---------------------------------------------------------------------------


class RewardEvent(NamedTuple):
    """One triggered sub-reward: its aspect, unweighted value, the value a
    perfectly matching candidate would have earned (used by hard masking),
    and what its rule decided.

    ``matched`` is whether the rule matched (a transition matches when it is
    Excellent, a repeat when its interval is equal); it is never read off
    the value, since a config may tie degree rewards or set a match reward
    to 0.  A transition carries its ``degree`` and a pause the ``boundary``
    kind of its gap.
    """

    kind: str
    aspect: Aspect
    value: float
    maximum: float
    matched: Optional[bool] = None
    degree: Optional[HarmonyDegree] = None
    boundary: Optional[BoundaryKind] = None

    @property
    def is_maximal(self) -> bool:
        return self.value >= self.maximum


def _event_table(config: RewardConfig) -> SimpleNamespace:
    """Every event a config can fire, built once per config; the outcome of
    a rule picks one, and the sub-rewards are the picked events' values.

    ``shape`` and ``contour`` are (missed, matched) pairs; ``keyword`` and
    ``auxiliary`` the strong/weak events of such a word starting on a
    (weak, strong) beat; ``gaps`` maps a boundary kind to its pause events
    (no pause, pause); and ``structure`` is indexed by :func:`_echo`.  An
    event's maximum is what its rule pays on a match: the Excellent reward
    for a transition, the exact-echo reward for structure.

    A start's pitch-dependent events are rows of shared ``(event, λ·value,
    below maximum)`` entries: ``cells`` maps a tone pair to its row by pitch
    delta (255, negative deltas by negative indexing; Bad outside intervals
    clamped to ±127), ``echo`` by an interval minus its anchor's (509).
    ``tops`` maps a tone pair to the deltas its row pays at the maximum, and
    ``echo_top`` lists the echo row's.
    """

    def event(kind: str, aspect: Aspect, on_match: float, matched: bool, **outcome):
        return RewardEvent(kind, aspect, on_match if matched else 0.0, on_match, matched, **outcome)

    def entry(ev: RewardEvent, lam: float) -> tuple:
        return ev, lam * ev.value, not ev.is_maximal

    def pair(kind: str, aspect: Aspect, on_match: float) -> tuple:
        return tuple(event(kind, aspect, on_match, ok) for ok in (False, True))

    missed, matched = pair("sw", Aspect.RHYTHM, config.sw_reward_on_match)
    # a pause belongs at a word or sentence boundary, and a sentence boundary needs one
    gaps = {
        kind: tuple(
            event("pause", Aspect.RHYTHM, config.pause_reward_on_match,
                  kind is not BoundaryKind.WORD_INNER if has_pause
                  else kind is not BoundaryKind.SENTENCE_BOUNDARY, boundary=kind)
            for has_pause in (False, True)
        )
        for kind in BoundaryKind
    }
    excellent = config.transition_rewards[HarmonyDegree.EXCELLENT]
    transition = {
        d: entry(RewardEvent("transition", Aspect.TONE, config.transition_rewards[d], excellent,
                             d is HarmonyDegree.EXCELLENT, degree=d), config.lambda_tone)
        for d in HarmonyDegree
    }
    cells, tops, row_deltas = {}, {}, (*range(128), *range(-127, 0))  # by index
    for tones, intervals in config.harmony_table.cells.items():
        row = cells[tones] = [transition[HarmonyDegree.BAD]] * 255
        for lo, hi, d in intervals:
            for delta in range(max(lo, -127), min(hi, 127) + 1):
                row[delta] = transition[d]
        tops[tones] = [delta for delta, (_, _, below) in zip(row_deltas, row) if not below]
    echoes = (0.0, config.structure_reward_octave, config.structure_reward_exact)
    structure = tuple(
        RewardEvent("structure", Aspect.STRUCTURE, value, config.structure_reward_exact, echo == 2)
        for echo, value in enumerate(echoes)
    )
    echo_deltas = (*range(255), *range(-254, 0))  # by index
    echo = [entry(structure[_echo(d, 0)], config.lambda_structure) for d in echo_deltas]
    return SimpleNamespace(
        shape=pair("shape", Aspect.TONE, config.shape_reward_on_match),
        contour=pair("contour", Aspect.TONE, config.contour_reward_on_match),
        keyword=(missed, matched),  # a keyword belongs on a strong beat
        auxiliary=(matched, missed),  # an auxiliary on a weak one
        gaps=gaps,
        structure=structure,
        transition=transition,
        cells=cells,
        tops=tops,
        echo=echo,
        echo_top=[delta for delta, (_, _, below) in zip(echo_deltas, echo) if not below],
    )


def weighted_total(
    events: Iterable[RewardEvent],
    config: RewardConfig,
    active: frozenset[Aspect] = ALL_ASPECTS,
    start: float = 0.0,
) -> float:
    """``start`` plus λ_t·R_t + λ_r·R_r + λ_s·R_s over the events, restricted
    to the active aspects.  Events are added one at a time in order, so a
    running total continued step by step equals one pass over all events to
    the last bit."""
    lambdas = config._lambdas
    total = start
    for ev in events:
        if ev.aspect in active:
            total += lambdas[ev.aspect] * ev.value
    return total


class _State(_Record):
    """What the event model remembers of a token prefix; ``onset`` and the
    last note's duration are integer ticks of the model's clock, and
    ``span_pitches`` are the current or last syllable's (no pitch before one)."""

    __slots__ = __match_args__ = ("onset", "syl", "span_open", "span_pitches", "last_duration",
                                  "syl_delta", "sent_first")

    def __init__(self, onset: int = 0, syl: int = -1, span_open: bool = False,
                 span_pitches: tuple = (None,), last_duration: Optional[int] = None,
                 syl_delta: tuple = (), sent_first: Optional[int] = None):
        self.onset = onset
        self.syl = syl
        self.span_open = span_open
        self.span_pitches = span_pitches
        self.last_duration = last_duration
        self.syl_delta = syl_delta
        self.sent_first = sent_first


class _Plan(_Record):
    """What every move fires from one state, short of a start's pitch.

    ``end`` and ``rest`` are the (running reward, masked) pairs after END
    and a rest; masked is whether an event fired below its maximum.  A
    start adds to ``end``: a transition when ``cell`` (the tone pair's row
    of the event table, by pitch delta) is set, read at the jump from
    ``anchor``; the λ·v and below-maximum flag of each strong/weak and
    pause event in ``terms``; and structure when ``partner_delta`` is set,
    read off the echo row at the jump from ``last_pitch`` minus it.
    ``masked`` is whether END's pair or a term is masked, so every start is.
    """

    __slots__ = __match_args__ = ("end", "rest", "cell", "anchor", "partner_delta", "last_pitch",
                                  "terms", "masked")

    def __init__(self, end: tuple[float, bool], rest: tuple[float, bool],
                 cell: Optional[tuple] = None, anchor: Optional[int] = None,
                 partner_delta: Optional[int] = None, last_pitch: Optional[int] = None,
                 terms: tuple = (), masked: bool = False):
        self.end = end
        self.rest = rest
        self.cell = cell
        self.anchor = anchor
        self.partner_delta = partner_delta
        self.last_pitch = last_pitch
        self.terms = terms
        self.masked = masked


def _clock(time_signature: tuple[int, int], tokens: Sequence) -> tuple[int, dict, int, set[int]]:
    """(ticks per quarter, each token's ticks, bar, strong offsets) in the integer
    ticks of ``tokens``' :func:`~lyricmelody.melody._tick_clock` in ``time_signature``."""
    scale, bar, strong = _tick_clock(time_signature, tokens)
    ticks = {t: num * (scale // den) for t in set(tokens) for num, den in (_RATIOS[t],)}
    return scale, ticks, bar, strong


class _EventModel:
    """The reward events of a token sequence, one token at a time.

    Holds the static per-pair data: per syllable, its tone, its sentence's
    intonation if it ends the sentence, whether it opens a sentence, the
    graded harmony cell of the transition into it, its (weak, strong)
    strong/weak events and the (no pause, pause) events of the gap in front
    of it; plus the meter, and the pair's one repeat scan, ``anchors`` (each
    ``(earliest, later)`` pair of equal sentences), which pairs each repeated
    syllable with its structure ``partner``.  :meth:`plan` weighs
    every move from a state (:meth:`complete` finishes a syllable start at
    its pitch), and :meth:`apply` gives the state after a token.  Only the
    plan reads ``active`` (as flags bound once): it weighs those aspects' events.

    Plan and apply count in integer ticks of ``clock``, the :func:`_clock`
    of every token they will step; a model without one only folds.  A clock
    may be shared, so nothing writes to it.
    """

    def __init__(
        self,
        lyrics: LyricSequence,
        config: RewardConfig,
        active: frozenset[Aspect],
        time_signature: tuple[int, int],
        clock: Optional[tuple] = None,
    ):
        self.config = config
        self.active = active
        self.tone_on, self.rhythm_on, self.structure_on = (aspect in active for aspect in _ASPECTS)
        self.n = len(lyrics)
        self.anchors = tuple(_repeat_anchors(lyrics))  # the pair's one repeat scan
        self.partner = {i: j for anchor, sent in self.anchors
                        for i, j in zip(range(*sent.span), range(*anchor.span))}
        self.time_signature = time_signature
        if clock is not None:
            self.scale, self.ticks, self.bar, self.strong = clock
            self.long_note = self._long_note(self.scale)
        table = config._events
        cells = table.cells
        keyword, auxiliary, gaps = table.keyword, table.auxiliary, table.gaps
        tone, final_intonation, new_sentence, cell, sw, pause = [], [], [], [], [], []
        prev = None
        for k, syl in enumerate(lyrics.syllables):
            new = prev is None or syl.sentence_index != prev.sentence_index
            word_start = syl.word_position is WordPosition.WORD_START
            tone.append(syl.tone)
            final_intonation.append(
                lyrics.sentences[syl.sentence_index].intonation if syl.sentence_final else None
            )
            new_sentence.append(new)
            # the cells hold tonal tone pairs only, so stress-accent lyrics get none
            cell.append(None if new else cells.get((prev.tone, syl.tone)))
            stress = syl.stress_class if word_start else StressClass.NEUTRAL
            sw.append(keyword if stress is StressClass.KEYWORD
                      else auxiliary if stress is StressClass.AUXILIARY else None)
            pause.append(None if prev is None else gaps[boundary_kind(lyrics, k)])
            prev = syl
        self.tone, self.final_intonation, self.new_sentence = tone, final_intonation, new_sentence
        self.cell, self.sw, self.pause, self.echo = cell, sw, pause, table.echo

    def _long_note(self, scale: int) -> int:
        """The long-note threshold in ticks of a clock with ``scale`` ticks per quarter, rounded up."""
        num, den = self.config._long_note
        return -(-num * scale // den)

    def _close(self, out: list, at, syl: int, span: Sequence, sent_first) -> None:
        """Append ``(at, event)`` to ``out`` for each shape and contour event of
        closing syllable ``syl`` on pitches ``span``, its sentence opened at ``sent_first``."""
        table = self.config._events
        if len(span) >= 2:
            matched = _shape_matches(self.tone[syl], span)
            if matched is not None:
                out.append((at, table.shape[matched]))
        intonation = self.final_intonation[syl]
        if intonation is not None:
            out.append((at, table.contour[contour_matches(intonation, sent_first, span[-1])]))

    @staticmethod
    def signature(token):
        """What the model reads of a token to score it (END, or its kind,
        start flag and a start's pitch; never its duration): from one state,
        tokens with equal signatures fire equal events."""
        if token == END:
            return END
        starts = token.syllable_start
        return (token.is_note, starts, token.pitch if starts else None)

    def plan(self, st: _State, start: float = 0.0) -> _Plan:
        """Every move's reward from ``st`` with the running reward ``start``,
        weighing the active aspects only: END's and a rest's in full, a
        syllable start's short of its pitch.  The plan weighs each event
        itself, λ·value added in firing order and masked when the value is
        below its maximum, as :func:`weighted_total` would."""
        config = self.config
        total, masked = start, False
        if self.tone_on and st.span_open:  # shape, then contour: tone events
            close: list = []
            self._close(close, None, st.syl, st.span_pitches, st.sent_first)
            for _, ev in close:
                total += config.lambda_tone * ev.value
                masked = masked or ev.value < ev.maximum
        end = (total, masked)
        k = st.syl + 1
        if k == self.n:
            return _Plan(end, end, masked=masked)  # no gap is left for a rest to pause
        rest, terms, below = end, (), masked
        if self.rhythm_on:  # strong/weak and pause are rhythm events
            lam = config.lambda_rhythm
            if k > 0:
                pause = self.pause[k][True]
                rest = (total + lam * pause.value, masked or pause.value < pause.maximum)
            sw = self.sw[k]
            if sw is not None:
                ev = sw[st.onset % self.bar in self.strong]
                terms = ((lam * ev.value, ev.value < ev.maximum),)
                below = below or ev.value < ev.maximum
            if st.span_open:
                # no rest resolved this gap; a long final note still pauses
                ev = self.pause[k][st.last_duration >= self.long_note]
                terms += ((lam * ev.value, ev.value < ev.maximum),)
                below = below or ev.value < ev.maximum
        first, last = st.span_pitches[0], st.span_pitches[-1]
        partner_delta = None
        if self.structure_on:
            j = self.partner.get(k)
            if j is not None and last is not None:
                partner_delta = st.syl_delta[j]
        cell = self.cell[k] if self.tone_on else None
        return _Plan(end, rest, cell, first, partner_delta, last, terms, below)

    def complete(self, plan: _Plan, pitch) -> tuple[float, bool]:
        """(running reward, masked) after a start at ``pitch``: the plan's
        terms and the pitch's transition and structure terms added to END's
        pair in canonical order, so the reward equals :func:`weighted_total`
        over the start's events, continued from ``start``, bit for bit: one
        row read per pitch-dependent term."""
        total, masked = plan.end
        if plan.cell is not None:
            _, term, below = plan.cell[pitch - plan.anchor]
            total += term
            masked = masked or below
        for term, below in plan.terms:
            total += term
            masked = masked or below
        if plan.partner_delta is not None:
            _, term, below = self.echo[pitch - plan.last_pitch - plan.partner_delta]
            total += term
            masked = masked or below
        return total, masked

    def candidates(self, st: _State, plan: _Plan):
        """The pitches at which a start from ``st`` may complete ``plan`` unmasked,
        or more: none if END's pair or a term is masked, else those the echo
        row (partner set) or the cell row pays in full; None means every pitch."""
        if plan.masked:
            return ()
        if plan.partner_delta is not None:
            return [plan.last_pitch + plan.partner_delta + d for d in self.config._events.echo_top]
        if plan.cell is not None:
            top = self.config._events.tops[self.tone[st.syl], self.tone[st.syl + 1]]
            return [plan.anchor + d for d in top]
        return None

    def apply(self, st: _State, token) -> _State:
        """The state after a (non-END) token of the model's clock."""
        ticks, pitch = self.ticks[token], token.pitch
        if not token.is_note:
            return _State(st.onset + ticks, st.syl, False, st.span_pitches, st.last_duration,
                          st.syl_delta, st.sent_first)
        if token.syllable_start:
            k = st.syl + 1
            last = st.span_pitches[-1]
            delta = None if last is None or pitch is None else pitch - last
            return _State(st.onset + ticks, k, True, (pitch,), ticks, st.syl_delta + (delta,),
                          pitch if self.new_sentence[k] else st.sent_first)
        return _State(st.onset + ticks, st.syl, st.span_open, st.span_pitches + (pitch,), ticks,
                      st.syl_delta, st.sent_first)

    def fold(self, tokens: Sequence) -> list[tuple[Optional[int], RewardEvent]]:
        """The events of a complete token sequence (END excluded), tagged
        with the index they fire on (None = at the end).

        Fires every aspect, whatever ``active`` holds.  Equal, event for
        event and in order, to the events the plans weigh when the model is
        stepped from ``_State()`` over the tokens and then END with every
        aspect active, but one loop over local mutable state.  Onsets and
        the long-note threshold are counted in integer ticks of the
        sequence's :func:`~lyricmelody.melody._tick_clock`.
        """
        n, partner, echo, close = self.n, self.partner, self.echo, self._close
        new_sentence, cells, sws, pauses = self.new_sentence, self.cell, self.sw, self.pause
        scale, ticks_of, bar, strong = _clock(self.time_signature, tokens)
        long_note = self._long_note(scale)

        events: list[tuple[Optional[int], RewardEvent]] = []
        onset = 0
        syl = -1
        span_open = False
        span: list[int] = []  # the current (or last closed) syllable's pitches
        last_pitch = last_ticks = sent_first = None
        syl_delta: list[Optional[int]] = []  # per syllable, the jump into it

        for i, token in enumerate(tokens):
            ticks = ticks_of[token]
            if not token.is_note:
                if span_open:
                    close(events, i, syl, span, sent_first)
                if syl + 1 < n:
                    events.append((i, pauses[syl + 1][True]))
                onset += ticks
                span_open = False
                continue
            pitch = token.pitch
            if not token.syllable_start:
                onset += ticks
                span.append(pitch)
                last_pitch, last_ticks = pitch, ticks
                continue
            if span_open:
                close(events, i, syl, span, sent_first)
            k = syl + 1
            cell = cells[k]
            if cell is not None:
                events.append((i, cell[pitch - span[0]][0]))
            sw = sws[k]
            if sw is not None:
                events.append((i, sw[onset % bar in strong]))
            if span_open:
                # no rest resolved this gap; a long final note still pauses
                events.append((i, pauses[k][last_ticks >= long_note]))
            delta = None if last_pitch is None else pitch - last_pitch
            if delta is not None:
                j = partner.get(k)
                if j is not None and syl_delta[j] is not None:
                    events.append((i, echo[delta - syl_delta[j]][0]))
            onset += ticks
            syl, span_open, span = k, True, [pitch]
            last_pitch, last_ticks = pitch, ticks
            if new_sentence[k]:
                sent_first = pitch
            syl_delta.append(delta)
        if span_open:
            close(events, None, syl, span, sent_first)
        return events


#: (lyrics, config, model, melody, events) of the last pair _fold folded
_memo: tuple = (None, None, None, None, ())


def _fold(lyrics: LyricSequence, melody: Melody, config: RewardConfig) -> tuple[_EventModel, tuple]:
    """The event model of a complete pair in the melody's meter and the tuple of its
    :meth:`~_EventModel.fold`, memoised by ``is`` on the last pair's lyrics, config and
    melody (all frozen, held strongly so that no other object takes their ids); the same
    lyrics and config in that meter reuse the model.  The memo is one tuple, replaced whole
    and read once per call, so threads may share it: callers read what a call returns."""
    global _memo
    _check_aligned(lyrics, melody)
    last_lyrics, last_config, model, last_melody, events = _memo
    same_sheet = last_lyrics is lyrics and last_config is config
    if same_sheet and last_melody is melody:
        return model, events
    if not same_sheet or model.time_signature != melody.time_signature:
        model = _EventModel(lyrics, config, ALL_ASPECTS, melody.time_signature)
    events = tuple(model.fold(melody.tokens))
    _memo = (lyrics, config, model, melody, events)
    return model, events


def reward_events(
    lyrics: LyricSequence,
    melody: Melody,
    config: RewardConfig,
) -> list[tuple[Optional[int], RewardEvent]]:
    """Every reward event of a complete pair, tagged with the token index it
    fires on (None = fires when the melody ends), in firing order: a fresh
    list of the event model's :meth:`~_EventModel.fold` over the melody's
    tokens in its own meter, every aspect on, memoised by :func:`_fold`."""
    return list(_fold(lyrics, melody, config)[1])


class RewardSummary(_Record, frozen=True):
    """A pair's weighted reward: the total, its share per aspect, and every
    fired event tagged with the token index it fired on (None: at the end)."""

    __match_args__ = ("total", "by_aspect", "events")

    def __init__(self, total: float, by_aspect: dict[Aspect, float],
                 events: tuple[tuple[Optional[int], RewardEvent], ...]):
        vars(self).update(total=total, by_aspect=by_aspect, events=events)


def score_rewards(
    lyrics: LyricSequence,
    melody: Melody,
    config: RewardConfig,
    active: frozenset[Aspect] = ALL_ASPECTS,
) -> RewardSummary:
    """Weighted reward total of a complete pair, recomputed from scratch: one
    pass sums each aspect and, in :func:`weighted_total`'s order, the total."""
    _, events = _fold(lyrics, melody, config)
    tone, rhythm = Aspect.TONE, Aspect.RHYTHM
    # per aspect, in Aspect's order: its λ, or None when it is inactive
    lambdas = [lam if aspect in active else None for aspect, lam in zip(
        _ASPECTS, (config.lambda_tone, config.lambda_rhythm, config.lambda_structure))]
    sums, total = [0.0, 0.0, 0.0], 0.0
    for _, ev in events:
        i = 0 if ev.aspect is tone else 1 if ev.aspect is rhythm else 2
        sums[i] += ev.value
        if lambdas[i] is not None:
            total += lambdas[i] * ev.value
    return RewardSummary(total, dict(zip(_ASPECTS, sums)), events)


# ---------------------------------------------------------------------------
# configuration file
# ---------------------------------------------------------------------------

_DEGREE_BY_NAME = {d.value: d for d in HarmonyDegree}


def _table_from_dict(doc: dict) -> HarmonyTable:
    cells = {}
    for key, intervals in doc.items():
        try:
            prev_name, cur_name = key.split(",")
            pair = (Tone(prev_name), Tone(cur_name))
        except (AttributeError, ValueError) as exc:  # AttributeError: the key is no string
            raise ConfigError(f"bad harmony table key {key!r}") from exc
        if not isinstance(intervals, list):
            raise ConfigError(f"harmony cell {key} must be a list of [low, high, degree]")
        parsed = []
        for item in intervals:
            # bounds are ints proper: a bool is an int, and a float would truncate
            if not (isinstance(item, list) and len(item) == 3
                    and type(item[0]) is int and type(item[1]) is int):
                raise ConfigError(f"harmony cell {key}: {item!r} is not [low, high, degree] "
                                  "with integer bounds")
            lo, hi, degree = item
            if type(degree) is not str or degree not in _DEGREE_BY_NAME:  # a list cannot hash
                raise ConfigError(f"unknown harmony degree {degree!r} in cell {key}")
            parsed.append((lo, hi, _DEGREE_BY_NAME[degree]))
        cells[pair] = tuple(parsed)
    return HarmonyTable(cells)


def _table_to_dict(table: HarmonyTable) -> dict:
    return {
        f"{prev.value},{cur.value}": [[lo, hi, degree.value] for lo, hi, degree in intervals]
        for (prev, cur), intervals in sorted(
            table.cells.items(), key=lambda item: (item[0][0].value, item[0][1].value)
        )
    }


#: the RewardConfig field each key of the document's "lambda" and "rewards" sections sets
_LAMBDA_KEYS = {"tone": "lambda_tone", "rhythm": "lambda_rhythm", "structure": "lambda_structure"}
_REWARD_KEYS = {
    "shape_match": "shape_reward_on_match",
    "contour_match": "contour_reward_on_match",
    "strong_weak_match": "sw_reward_on_match",
    "pause_match": "pause_reward_on_match",
    "structure_exact": "structure_reward_exact",
    "structure_octave": "structure_reward_octave",
}


def _given(names: Iterable, values: list) -> dict:
    """``{name: float(value)}`` of each value a config section gives (not None)."""
    return {name: float(value) for name, value in zip(names, values) if value is not None}


def reward_config_from_dict(doc: dict) -> RewardConfig:
    """The config a reward config document spells; a key left out (any but the
    harmony table) keeps its :class:`RewardConfig` default."""
    try:
        table, lam, rewards, threshold, _ = _fields(
            doc, "reward config", {"harmony_table": "an object"},
            {"lambda": "an object", "rewards": "an object", "long_note_threshold": _duration,
             "description": None}, ConfigError)
        lambdas = _fields(lam or {}, "reward config lambda", {},
                          dict.fromkeys(_LAMBDA_KEYS, "a number"), ConfigError)
        transition, *matches = _fields(
            rewards or {}, "reward config rewards", {},
            {"transition": "an object", **dict.fromkeys(_REWARD_KEYS, "a number")}, ConfigError)
        degrees = _fields(transition or {}, "reward config rewards transition", {},
                          dict.fromkeys(_DEGREE_BY_NAME, "a number"), ConfigError)
        config = RewardConfig(
            **_given(_LAMBDA_KEYS.values(), lambdas),
            **_given(_REWARD_KEYS.values(), matches),
            transition_rewards={
                **_TRANSITION_REWARDS, **_given(_DEGREE_BY_NAME.values(), degrees)},
            long_note_threshold=Fraction(2) if threshold is None else threshold,
            harmony_table=_table_from_dict(table),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad reward config: {exc}") from exc
    return config


def reward_config_to_dict(config: RewardConfig) -> dict:
    return {
        "lambda": {key: getattr(config, name) for key, name in _LAMBDA_KEYS.items()},
        "rewards": {
            "transition": {d.value: config.transition_rewards[d] for d in HarmonyDegree},
            **{key: getattr(config, name) for key, name in _REWARD_KEYS.items()},
        },
        "long_note_threshold": str(config.long_note_threshold),
        "harmony_table": _table_to_dict(config.harmony_table),
    }


def load_reward_config(source: str) -> RewardConfig:
    """Parse a reward config JSON document (see data/default_rewards.json)."""
    return reward_config_from_dict(_json(source, "reward config JSON", ConfigError))


def default_reward_config() -> RewardConfig:
    """The shipped default config: documented heuristic harmony table and the
    published λ operating point."""
    text = resources.files("lyricmelody.data").joinpath("default_rewards.json").read_text("utf-8")
    return load_reward_config(text)
