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
steps a frozen :class:`_State` that hypotheses share with
:meth:`_EventModel.apply`.  Rescoring a finished melody
(:func:`reward_events`, rerank, the objective metrics) runs
:meth:`_EventModel.fold`, a fast loop over local mutable state that applies
the same rules through the same tables and fires every aspect, so a decode
and the rescoring of its output fire the same events in the same order;
only the plan reads the model's active aspects.  :func:`reward_events`
memoises its last pair, keyed on the identity of the lyrics, config and
melody and holding them strongly; a hit returns a fresh copy of the events,
and threads may share the memo.  So
:func:`~lyricmelody.metrics.evaluate_pair` followed by :func:`score_rewards`
on the same objects builds one model and folds once.  The model reads a
token's ``is_note``, ``syllable_start``, ``pitch`` and ``duration`` only, so
it steps a :class:`~lyricmelody.melody.MelodyToken` and the pitch-free
:class:`~lyricmelody.melody.RhythmToken` of rhythm-first decoding alike.
The tests pin the fold and the plan to the same stepped events, and the
fold to an independently written whole-pair scan.

A plan weighs what each move fires once per state: END closes the open
span (shape, contour), a rest also pauses the gap in front of the next
syllable, and a melisma continuation fires nothing.  A syllable start
differs from its siblings only by pitch: its close, strong/weak and pause
events, its tone-pair cell and its structure partner depend on the state
alone, and :meth:`_EventModel.complete` adds a pitch's transition and
structure terms in canonical order.  Each move's reward equals
:func:`weighted_total` over its events to the last bit.

Event timing convention: a syllable's shape and its sentence's contour fire
on the token that closes the span (the next rest, the next syllable's first
note, or the end of the melody); transition, strong/weak and structure fire
on the syllable's first note; the pause reward fires once per syllable gap —
on the gap's rest if there is one, otherwise on the next syllable's first
note.  Within one token, events are ordered shape, contour, transition,
strong/weak, pause, structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import AlignmentError, ConfigError
from .lyrics import (
    Intonation,
    LyricSequence,
    StressClass,
    TONAL_TONES,
    Tone,
    WordPosition,
    build_structure_matrix,
)
from .melody import BeatStrength, Melody, _tick_clock, strong_offsets
from .scorer import END

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


ALL_ASPECTS = frozenset(Aspect)


class HarmonyDegree(Enum):
    EXCELLENT = "excellent"
    GOOD = "good"
    FAIR = "fair"
    BAD = "bad"


@dataclass(frozen=True)
class HarmonyTable:
    """Per tone pair, labeled semitone intervals for the pitch jump between
    adjacent syllables.  Differences outside every interval are Bad.

    ``cells`` maps (previous tone, current tone), both tonal, to a tuple of
    ``(lo, hi, degree)`` inclusive intervals.
    """

    cells: dict[tuple[Tone, Tone], tuple[tuple[int, int, HarmonyDegree], ...]]

    def __post_init__(self) -> None:
        for pair, intervals in self.cells.items():
            if not (pair[0] in TONAL_TONES and pair[1] in TONAL_TONES):
                raise ConfigError(f"harmony cell {pair}: both tones must be tonal (tone1-tone5)")
            for lo, hi, _ in intervals:
                if lo > hi:
                    raise ConfigError(f"harmony cell {pair}: interval ({lo}, {hi}) is inverted")
            # compared by their ends, so a wide interval costs no more than a narrow one
            ordered = sorted((lo, hi) for lo, hi, _ in intervals)
            if any(lo <= prev_hi for (_, prev_hi), (lo, _) in zip(ordered, ordered[1:])):
                raise ConfigError(f"harmony cell {pair}: overlapping intervals")
            if not any(lo <= 0 <= hi for lo, hi in ordered):
                raise ConfigError(f"harmony cell {pair}: a zero pitch difference must be labeled")

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


@dataclass(frozen=True)
class RewardConfig:
    lambda_tone: float = 1.2
    lambda_rhythm: float = 1.5
    lambda_structure: float = 1.0
    transition_rewards: dict[HarmonyDegree, float] = field(
        default_factory=lambda: dict(_TRANSITION_REWARDS)
    )
    shape_reward_on_match: float = 1.0
    contour_reward_on_match: float = 1.0
    sw_reward_on_match: float = 1.0
    pause_reward_on_match: float = 1.0
    structure_reward_exact: float = 2.0
    structure_reward_octave: float = 1.0
    long_note_threshold: Fraction = Fraction(2)
    harmony_table: Optional[HarmonyTable] = None

    def __post_init__(self) -> None:
        # λs and rewards: one non-finite value turns a score into NaN
        values = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]
        values += [(f"{d.value} transition reward", v) for d, v in self.transition_rewards.items()]
        for name, value in values:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for name in ("lambda_tone", "lambda_rhythm", "lambda_structure"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        order = [
            HarmonyDegree.EXCELLENT,
            HarmonyDegree.GOOD,
            HarmonyDegree.FAIR,
            HarmonyDegree.BAD,
        ]
        values = [self.transition_rewards[d] for d in order]
        if any(a < b for a, b in zip(values, values[1:])):
            raise ConfigError("transition rewards must not increase from excellent to bad")
        if self.long_note_threshold <= 0:
            raise ConfigError("long_note_threshold must be positive")
        # lookups the reward loops hit per event, built once per config
        object.__setattr__(self, "_lambdas", {
            Aspect.TONE: self.lambda_tone,
            Aspect.RHYTHM: self.lambda_rhythm,
            Aspect.STRUCTURE: self.lambda_structure,
        })
        object.__setattr__(self, "_events", _event_table(self))

    def with_lambdas(self, lambdas: tuple[float, float, float]) -> "RewardConfig":
        lt, lr, ls = lambdas
        return replace(self, lambda_tone=lt, lambda_rhythm=lr, lambda_structure=ls)

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
    the table's domain (stress-accent input, unmarked tones, no table at all)."""
    table = config.harmony_table
    degree = table.degree_of(tone_pair[0], tone_pair[1], delta_p) if table else None
    if degree is None:
        return None
    return config.transition_rewards[degree]


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
    (no pause, pause); ``structure`` is indexed by :func:`_echo`; and
    ``cells`` holds the harmony table's cells with each interval's
    degree replaced by its transition event (``bad`` outside every
    interval).  An event's maximum is what its rule pays on a match: the
    Excellent reward for a transition, the exact-echo reward for structure.
    """

    def event(kind: str, aspect: Aspect, on_match: float, matched: bool, **outcome):
        return RewardEvent(kind, aspect, on_match if matched else 0.0, on_match, matched, **outcome)

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
        d: RewardEvent("transition", Aspect.TONE, config.transition_rewards[d], excellent,
                       d is HarmonyDegree.EXCELLENT, degree=d)
        for d in HarmonyDegree
    }
    cells = None
    if config.harmony_table is not None:
        cells = {
            tones: tuple((lo, hi, transition[d]) for lo, hi, d in intervals)
            for tones, intervals in config.harmony_table.cells.items()
        }
    echoes = (0.0, config.structure_reward_octave, config.structure_reward_exact)
    return SimpleNamespace(
        shape=pair("shape", Aspect.TONE, config.shape_reward_on_match),
        contour=pair("contour", Aspect.TONE, config.contour_reward_on_match),
        keyword=(missed, matched),  # a keyword belongs on a strong beat
        auxiliary=(matched, missed),  # an auxiliary on a weak one
        gaps=gaps,
        structure=tuple(
            RewardEvent("structure", Aspect.STRUCTURE, value, config.structure_reward_exact,
                        echo == 2)
            for echo, value in enumerate(echoes)
        ),
        cells=cells,
        bad=transition[HarmonyDegree.BAD],
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


@dataclass(frozen=True, slots=True)
class _State:
    """What the event model remembers of a token prefix."""

    onset: Fraction = Fraction(0)
    syl: int = -1
    span_open: bool = False
    span_pitches: tuple = ()
    first_pitch: Optional[int] = None  # the current syllable's first pitch
    last_pitch: Optional[int] = None
    last_duration: Optional[Fraction] = None
    syl_delta: tuple = ()
    sent_first: Optional[int] = None


@dataclass(frozen=True, slots=True)
class _Plan:
    """What every move fires from one state, short of a start's pitch.

    ``end`` and ``rest`` are the (running reward, masked) pairs after END
    and a rest; masked is whether an event fired below its maximum.  A
    start adds to ``end``: a transition when ``cell`` (the tone pair's
    graded intervals) is set, graded on the jump from ``anchor``; the λ·v
    and below-maximum flag of each strong/weak and pause event in
    ``terms``; and structure when ``partner_delta`` is set, compared with
    the jump from ``last_pitch``.
    """

    end: tuple[float, bool]
    rest: tuple[float, bool]
    cell: Optional[tuple] = None
    anchor: Optional[int] = None
    partner_delta: Optional[int] = None
    last_pitch: Optional[int] = None
    terms: tuple = ()


class _EventModel:
    """The reward events of a token sequence, one token at a time.

    Holds the static per-pair data: per syllable, its tone, its sentence's
    intonation if it ends the sentence, whether it opens a sentence, the
    graded harmony cell of the transition into it, its (weak, strong)
    strong/weak events and the (no pause, pause) events of the gap in front
    of it; plus the structure partners and the meter.  :meth:`plan` weighs
    every move from a state (:meth:`complete` finishes a syllable start at
    its pitch), and :meth:`apply` gives the state after a token.  Only the
    plan reads ``active``: it weighs the events of those aspects alone.
    """

    def __init__(
        self,
        lyrics: LyricSequence,
        config: RewardConfig,
        active: frozenset[Aspect],
        time_signature: tuple[int, int],
    ):
        self.config = config
        self.active = active
        self.n = len(lyrics)
        self.partner = build_structure_matrix(lyrics).partner
        self.time_signature = time_signature
        num, den = time_signature
        self.bar = Fraction(4 * num, den)
        self.strong = strong_offsets(time_signature)
        table = config._events
        cells = table.cells  # None without a harmony table
        keyword, auxiliary = table.keyword, table.auxiliary
        # the pause pairs of the three gap kinds, picked as boundary_kind picks them
        sentence_gap, word_gap, inner_gap = (table.gaps[kind] for kind in (
            BoundaryKind.SENTENCE_BOUNDARY, BoundaryKind.WORD_BOUNDARY, BoundaryKind.WORD_INNER))
        tone, final_intonation, new_sentence, cell, sw, pause = [], [], [], [], [], []
        prev = None
        for syl in lyrics.syllables:
            new = prev is None or syl.sentence_index != prev.sentence_index
            word_start = syl.word_position is WordPosition.WORD_START
            tone.append(syl.tone)
            final_intonation.append(
                lyrics.sentences[syl.sentence_index].intonation if syl.sentence_final else None
            )
            new_sentence.append(new)
            # the cells hold tonal tone pairs only, so stress-accent lyrics get none
            cell.append(None if cells is None or new else cells.get((prev.tone, syl.tone)))
            stress = syl.stress_class if word_start else StressClass.NEUTRAL
            sw.append(keyword if stress is StressClass.KEYWORD
                      else auxiliary if stress is StressClass.AUXILIARY else None)
            pause.append(None if prev is None else sentence_gap if new
                         else word_gap if word_start else inner_gap)
            prev = syl
        self.tone, self.final_intonation, self.new_sentence = tone, final_intonation, new_sentence
        self.cell, self.sw, self.pause = cell, sw, pause

    def _close_events(self, st: _State) -> list[RewardEvent]:
        """The shape and contour events of closing the open span of ``st``."""
        if st.syl < 0 or not st.span_open:
            return []
        table = self.config._events
        events = []
        if len(st.span_pitches) >= 2:
            matched = _shape_matches(self.tone[st.syl], st.span_pitches)
            if matched is not None:
                events.append(table.shape[matched])
        intonation = self.final_intonation[st.syl]
        if intonation is not None:
            events.append(table.contour[contour_matches(intonation, st.sent_first, st.last_pitch)])
        return events

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
        syllable start's short of its pitch."""
        active, config = self.active, self.config
        close = self._close_events(st) if Aspect.TONE in active else []
        end = (weighted_total(close, config, start=start), any(not ev.is_maximal for ev in close))
        k = st.syl + 1
        if k == self.n:
            return _Plan(end, end)  # no gap is left for a rest to pause
        rest, middle = end, []
        if Aspect.RHYTHM in active:
            if k > 0:
                pause = self.pause[k][True]
                rest = (end[0] + config.lambda_rhythm * pause.value, end[1] or not pause.is_maximal)
            sw = self.sw[k]
            if sw is not None:
                middle.append(sw[st.onset % self.bar in self.strong])
            if st.span_open:
                # no rest resolved this gap; a long final note still pauses
                middle.append(self.pause[k][st.last_duration >= config.long_note_threshold])
        partner_delta = None
        if Aspect.STRUCTURE in active:
            j = self.partner.get(k)
            if j is not None and st.last_pitch is not None:
                partner_delta = st.syl_delta[j]
        cell = self.cell[k] if Aspect.TONE in active else None
        # strong/weak and pause are rhythm events
        terms = tuple((config.lambda_rhythm * ev.value, not ev.is_maximal) for ev in middle)
        return _Plan(end, rest, cell, st.first_pitch, partner_delta, st.last_pitch, terms)

    def complete(self, plan: _Plan, pitch) -> tuple[float, bool]:
        """(running reward, masked) after a start at ``pitch``: the plan's
        terms and the pitch's transition and structure terms added to END's
        pair in canonical order, so the reward equals :func:`weighted_total`
        over the start's events, continued from ``start``, bit for bit."""
        config, table = self.config, self.config._events
        total, masked = plan.end
        if plan.cell is not None:
            transition = _cell_degree(plan.cell, pitch - plan.anchor, table.bad)
            total += config.lambda_tone * transition.value
            masked = masked or not transition.is_maximal
        for term, below in plan.terms:
            total += term
            masked = masked or below
        if plan.partner_delta is not None:
            structure = table.structure[_echo(pitch - plan.last_pitch, plan.partner_delta)]
            total += config.lambda_structure * structure.value
            masked = masked or not structure.is_maximal
        return total, masked

    def apply(self, st: _State, token) -> _State:
        """The state after a (non-END) token."""
        pitch, duration = token.pitch, token.duration
        if not token.is_note:
            return replace(st, onset=st.onset + duration, span_open=False)
        if token.syllable_start:
            k = st.syl + 1
            delta = None if st.last_pitch is None or pitch is None else pitch - st.last_pitch
            return _State(
                onset=st.onset + duration,
                syl=k,
                span_open=True,
                span_pitches=(pitch,),
                first_pitch=pitch,
                last_pitch=pitch,
                last_duration=duration,
                syl_delta=st.syl_delta + (delta,),
                sent_first=pitch if self.new_sentence[k] else st.sent_first,
            )
        return replace(
            st,
            onset=st.onset + duration,
            span_pitches=st.span_pitches + (pitch,),
            last_pitch=pitch,
            last_duration=duration,
        )

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
        n = self.n
        tone, final_intonation, new_sentence = self.tone, self.final_intonation, self.new_sentence
        cells, sws, pauses, partner = self.cell, self.sw, self.pause, self.partner
        table = self.config._events
        shape_events, contour_events, echo_events, bad = (
            table.shape, table.contour, table.structure, table.bad)

        scale, bar, strong = _tick_clock(self.time_signature, tokens)
        threshold = self.config.long_note_threshold
        long_note = -(-threshold.numerator * scale // threshold.denominator)  # ceiling

        events: list[tuple[Optional[int], RewardEvent]] = []
        onset = 0
        syl = -1
        span_open = False
        span: list[int] = []  # the open span's pitches
        first_pitch = last_pitch = last_ticks = sent_first = None
        syl_delta: list[Optional[int]] = []  # per syllable, the jump into it

        def close(anchor):
            if len(span) >= 2:
                matched = _shape_matches(tone[syl], span)
                if matched is not None:
                    events.append((anchor, shape_events[matched]))
            intonation = final_intonation[syl]
            if intonation is not None:
                matched = contour_matches(intonation, sent_first, last_pitch)
                events.append((anchor, contour_events[matched]))

        for i, token in enumerate(tokens):
            d = token.duration
            ticks = d.numerator * (scale // d.denominator)
            if not token.is_note:
                if span_open:
                    close(i)
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
                close(i)
            k = syl + 1
            cell = cells[k]
            if cell is not None:
                events.append((i, _cell_degree(cell, pitch - first_pitch, bad)))
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
                    events.append((i, echo_events[_echo(delta, syl_delta[j])]))
            onset += ticks
            syl, span_open, span, first_pitch = k, True, [pitch], pitch
            last_pitch, last_ticks = pitch, ticks
            if new_sentence[k]:
                sent_first = pitch
            syl_delta.append(delta)
        if span_open:
            close(None)
        return events


#: (lyrics, config, model, melody, events) of the last pair reward_events folded
_memo: tuple = (None, None, None, None, ())


def reward_events(
    lyrics: LyricSequence,
    melody: Melody,
    config: RewardConfig,
) -> list[tuple[Optional[int], RewardEvent]]:
    """Every reward event of a complete pair, tagged with the token index it
    fires on (None = fires when the melody ends).

    The event model's :meth:`~_EventModel.fold` over the melody's tokens in
    the melody's own meter, with every aspect on; events come back in firing
    order.

    The last pair is memoised by ``is`` on its lyrics, config and melody (all
    frozen, held strongly so that no other object takes their ids): the same
    three get a fresh list of its events, the same lyrics and config in its
    meter reuse its model.  The memo is one tuple replaced whole: thread-safe.
    """
    global _memo
    if melody.syllable_count != len(lyrics):
        raise AlignmentError(
            f"melody covers {melody.syllable_count} syllables, lyrics have {len(lyrics)}"
        )
    last_lyrics, last_config, model, last_melody, events = _memo
    same_sheet = last_lyrics is lyrics and last_config is config
    if same_sheet and last_melody is melody:
        return list(events)
    if not same_sheet or model.time_signature != melody.time_signature:
        model = _EventModel(lyrics, config, ALL_ASPECTS, melody.time_signature)
    events = model.fold(melody.tokens)
    _memo = (lyrics, config, model, melody, tuple(events))
    return events


@dataclass(frozen=True)
class RewardSummary:
    total: float
    by_aspect: dict[Aspect, float]
    events: tuple[tuple[Optional[int], RewardEvent], ...]


def score_rewards(
    lyrics: LyricSequence,
    melody: Melody,
    config: RewardConfig,
    active: frozenset[Aspect] = ALL_ASPECTS,
) -> RewardSummary:
    """Weighted reward total of a complete pair, recomputed from scratch: one
    pass sums each aspect and, in :func:`weighted_total`'s order, the total."""
    events = reward_events(lyrics, melody, config)
    tone, rhythm = Aspect.TONE, Aspect.RHYTHM
    # per aspect, in Aspect's order: its λ, or None when it is inactive
    lambdas = [lam if aspect in active else None for aspect, lam in zip(
        Aspect, (config.lambda_tone, config.lambda_rhythm, config.lambda_structure))]
    sums, total = [0.0, 0.0, 0.0], 0.0
    for _, ev in events:
        i = 0 if ev.aspect is tone else 1 if ev.aspect is rhythm else 2
        sums[i] += ev.value
        if lambdas[i] is not None:
            total += lambdas[i] * ev.value
    return RewardSummary(total, dict(zip(Aspect, sums)), tuple(events))


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
        except ValueError as exc:
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
            if degree not in _DEGREE_BY_NAME:
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
_DOCUMENT_KEYS = {"description", "lambda", "rewards", "long_note_threshold", "harmony_table"}


def _object(value, where: str, keys=None) -> dict:
    """``value``, which a reward config document must hold as a JSON object
    ``where``, with no key outside ``keys`` when they are given."""
    if not isinstance(value, dict):
        kind = type(value).__name__
        raise ConfigError(f"reward config {where} must be a JSON object, got {kind}")
    if keys is not None:
        unknown = sorted(str(key) for key in value if key not in keys)
        if unknown:
            raise ConfigError(f"reward config {where} has unknown keys {unknown}")
    return value


def _numbers(section: dict, keys: dict, where: str) -> dict:
    """``{keys[key]: float}`` of each key of ``keys`` that ``section`` holds;
    each value must be a JSON number, which a bool is not."""
    out = {}
    for key, name in keys.items():
        if key in section:
            value = section[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                kind = type(value).__name__
                raise ConfigError(f"reward config '{where}.{key}' must be a number, got {kind}")
            out[name] = float(value)
    return out


def reward_config_from_dict(doc: dict) -> RewardConfig:
    # the document's shape and keys, before any value is read; sections
    # other than the harmony table may be absent
    doc = _object(doc, "document", _DOCUMENT_KEYS)
    lam = _object(doc.get("lambda", {}), "'lambda'", _LAMBDA_KEYS)
    rewards = _object(doc.get("rewards", {}), "'rewards'", {"transition", *_REWARD_KEYS})
    transition = _object(rewards.get("transition", {}), "'rewards.transition'", _DEGREE_BY_NAME)
    table = _object(doc.get("harmony_table"), "'harmony_table'")
    try:
        config = RewardConfig(
            **_numbers(lam, _LAMBDA_KEYS, "lambda"),
            **_numbers(rewards, _REWARD_KEYS, "rewards"),
            transition_rewards={
                **_TRANSITION_REWARDS,
                **_numbers(transition, _DEGREE_BY_NAME, "rewards.transition"),
            },
            long_note_threshold=Fraction(str(doc.get("long_note_threshold", "2"))),
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
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid reward config JSON: {exc}") from exc
    return reward_config_from_dict(doc)


def default_reward_config() -> RewardConfig:
    """The shipped default config: documented heuristic harmony table and the
    published λ operating point."""
    text = resources.files("lyricmelody.data").joinpath("default_rewards.json").read_text("utf-8")
    return load_reward_config(text)
