"""Objective lyric-melody evaluation.

Seven numbers per pair, all from one call, :func:`evaluate_pair`: tone
transition and contour scores, matched strong/weak ratio, matched pause
ratio, and three structure-similarity figures (pitch distribution, duration
distribution, melody distance) computed over repeated phrases.

The first four are counts over the pair's reward events
(:func:`~lyricmelody.rewards.reward_events`, one fold of the reward-event
model), not a second model of when each rule applies: the transition score
is the mean degree score of the transition events (the intra-sentence
adjacent tone pairs the harmony table has a cell for), the contour score
is the share of sentences whose pitch direction matches their intonation,
the strong/weak ratio the share of keywords starting on a strong beat and
auxiliaries on a weak one, and the pause ratio is one minus the share of
word-inner gaps whose pause event found a pause there.  Each event states
whether its rule matched, its harmony degree or its boundary kind, so no
figure is read off a reward value, and a melody whose triggered rewards
are all maximal scores 1.0 on transition, strong/weak and pauses.  A
metric whose denominator population is empty is None - never silently
zero - so corpus averages stay honest.

Pinned interpretations (repetition metrics defer to no external tool):
PD/DD are total-variation similarity ``1 - 0.5 * sum |h_a - h_b|`` of the
normalized pitch / duration histograms; MD is the mean absolute semitone
difference along a minimal-cost monotone alignment of the two pitch
sequences (dynamic time warping with unit steps, cost ``|pitch_a -
pitch_b|``, shortest among minimal-cost alignments).  All functions are
pure; evaluating many songs in parallel is safe.  :func:`evaluate_pair`
followed by :func:`~lyricmelody.rewards.score_rewards` on the same objects
folds the pair once, since ``reward_events`` memoises the last pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AlignmentError
from .lyrics import LyricSequence, _repeat_anchors
from .melody import Melody
from .rewards import BoundaryKind, HarmonyDegree, RewardConfig, reward_events

__all__ = [
    "EvaluationReport",
    "DEGREE_SCORES",
    "structure_similarity",
    "melody_distance",
    "histogram_similarity",
    "evaluate_pair",
    "aggregate_reports",
]


def _mean(values: Sequence[float]) -> float:
    """Mean by a left fold that rounds after every addition.

    Python 3.12's builtin ``sum`` compensates float rounding, which would
    change the reported figures' last bits between interpreters.
    """
    total = 0
    for value in values:
        total += value
    return float(total / len(values))


#: Per-degree scores for the transition metric.
DEGREE_SCORES = {
    HarmonyDegree.EXCELLENT: 1.0,
    HarmonyDegree.GOOD: 0.5,
    HarmonyDegree.FAIR: 0.2,
    HarmonyDegree.BAD: 0.0,
}


@dataclass(frozen=True)
class EvaluationReport:
    tone_transition: Optional[float]
    tone_contour: Optional[float]
    matched_sw: Optional[float]
    matched_pauses: Optional[float]
    pd: Optional[float]
    dd: Optional[float]
    md: Optional[float]

    FIELDS = ("tone_transition", "tone_contour", "matched_sw", "matched_pauses", "pd", "dd", "md")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


def _check_aligned(lyrics: LyricSequence, melody: Melody) -> None:
    if melody.syllable_count != len(lyrics):
        raise AlignmentError(
            f"melody covers {melody.syllable_count} syllables, lyrics have {len(lyrics)}"
        )


def histogram_similarity(a: Sequence, b: Sequence) -> float:
    """Total-variation similarity of two empirical distributions."""
    values = set(a) | set(b)
    total = 0.0
    for v in sorted(values, key=str):
        total += abs(a.count(v) / len(a) - b.count(v) / len(b))
    return 1.0 - 0.5 * total


def melody_distance(a: Sequence[int], b: Sequence[int]) -> float:
    """Mean absolute semitone difference along the minimal-cost monotone
    alignment of two pitch sequences (unit-step DTW, cost |pitch_a - pitch_b|).

    Among minimal-cost alignments the shortest is used, by a lexicographic
    (cost, length) recurrence; the set of optimal paths transposes with the
    arguments, so the distance is symmetric.
    """
    # above[j] / row[j]: (cost, length) of the best path ending at (i-1, j) / (i, j)
    above: list[tuple[float, int]] = []
    for i, pitch_a in enumerate(a):
        row: list[tuple[float, int]] = []
        for j, pitch_b in enumerate(b):
            if i == 0:
                prev = row[j - 1] if j else (0.0, 0)
            elif j == 0:
                prev = above[0]
            else:
                prev = min(above[j - 1], above[j], row[j - 1])
            row.append((prev[0] + abs(pitch_a - pitch_b), prev[1] + 1))
        above = row
    cost, length = above[-1]
    return cost / length


def _sentence_notes(lyrics: LyricSequence, melody: Melody, sent) -> tuple[list[int], list]:
    pitches: list[int] = []
    durations: list = []
    for k in range(*sent.span):
        for token in melody.span_notes(k):
            pitches.append(token.pitch)
            durations.append(token.duration)
    return pitches, durations


def structure_similarity(
    lyrics: LyricSequence, melody: Melody
) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """(PD, DD, MD) averaged over every repeated sentence vs. its earliest
    occurrence; all None when the lyrics repeat nothing."""
    _check_aligned(lyrics, melody)
    pds, dds, mds = [], [], []
    for anchor, sent in _repeat_anchors(lyrics):
        pitches_a, durs_a = _sentence_notes(lyrics, melody, anchor)
        pitches_b, durs_b = _sentence_notes(lyrics, melody, sent)
        pds.append(histogram_similarity(pitches_a, pitches_b))
        dds.append(histogram_similarity(durs_a, durs_b))
        mds.append(melody_distance(pitches_a, pitches_b))
    if not pds:
        return (None, None, None)
    return (_mean(pds), _mean(dds), _mean(mds))


def evaluate_pair(
    lyrics: LyricSequence, melody: Melody, config: RewardConfig
) -> EvaluationReport:
    """All objective metrics for one lyrics/melody pair: the four event
    metrics counted in one pass over its reward events, then the structure
    figures."""
    scores = []
    # per kind, [fired, matched]; "pause" counts word-inner gaps only, each
    # of which fires one pause event, since a melody has no two rests in a row
    counts = {"contour": [0, 0], "sw": [0, 0], "pause": [0, 0]}
    for _, ev in reward_events(lyrics, melody, config):
        kind = ev.kind
        if kind == "transition":
            scores.append(DEGREE_SCORES[ev.degree])
        elif kind in counts and (kind != "pause" or ev.boundary is BoundaryKind.WORD_INNER):
            tally = counts[kind]
            tally[0] += 1
            tally[1] += ev.matched
    contour, sw, (inner, unbroken) = counts["contour"], counts["sw"], counts["pause"]
    pd, dd, md = structure_similarity(lyrics, melody)
    return EvaluationReport(
        tone_transition=_mean(scores) if scores else None,
        tone_contour=contour[1] / contour[0],  # one contour event per sentence
        matched_sw=sw[1] / sw[0] if sw[0] else None,
        matched_pauses=1.0 - (inner - unbroken) / inner if inner else None,
        pd=pd,
        dd=dd,
        md=md,
    )


def aggregate_reports(reports: Sequence[EvaluationReport]) -> dict[str, Optional[float]]:
    """Field-wise mean over the reports, skipping None entries per field."""
    out: dict[str, Optional[float]] = {}
    for name in EvaluationReport.FIELDS:
        values = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        out[name] = _mean(values) if values else None
    return out
