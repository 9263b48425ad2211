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
normalized pitch / duration histograms, summed bin by bin in the order of
the bins' text.  DD counts each duration as its exact ``(numerator,
denominator)`` pair, so its bins hash and compare in C, and a pair's text
sorts as its ``Fraction``'s would (:func:`histogram_similarity`).  MD is
the mean absolute semitone difference along a minimal-cost monotone
alignment of the two pitch sequences (dynamic time warping with unit
steps, cost ``|pitch_a - pitch_b|``, shortest among minimal-cost
alignments), a path's (cost, length) kept as the integer ``cost * 2**32 +
length``, so paths compare in C.  All functions are pure; evaluating many
songs in parallel is safe.  :func:`evaluate_pair` reads the repeats its
fold's event model scanned, and followed by
:func:`~lyricmelody.rewards.score_rewards` on the same objects it folds the
pair once, since the fold memoises the last pair.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

from .lyrics import LyricSequence, _Record, _repeat_anchors
from .melody import _RATIOS, Melody, _check_aligned
from .rewards import BoundaryKind, HarmonyDegree, RewardConfig, _fold

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


class EvaluationReport(_Record, frozen=True):
    """A pair's seven objective metrics, each None when the pair has
    nothing for it to measure: tone transition and contour, matched
    strong/weak and pause ratios, and the PD, DD and MD of its repeats."""

    FIELDS = __match_args__ = (
        "tone_transition", "tone_contour", "matched_sw", "matched_pauses", "pd", "dd", "md")

    def __init__(self, tone_transition: Optional[float], tone_contour: Optional[float],
                 matched_sw: Optional[float], matched_pauses: Optional[float],
                 pd: Optional[float], dd: Optional[float], md: Optional[float]):
        vars(self).update(tone_transition=tone_transition, tone_contour=tone_contour,
                          matched_sw=matched_sw, matched_pauses=matched_pauses,
                          pd=pd, dd=dd, md=md)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


def histogram_similarity(a: Sequence, b: Sequence) -> float:
    """Total-variation similarity of two empirical distributions; ValueError if one is empty.

    The values are summed in the order of their ``str``.  A duration counted
    as its ``(numerator, denominator)`` pair sorts as its ``Fraction`` does,
    ``"(n, d)"`` as ``"n/d"`` or ``"n"``: ``,`` and ``)`` sort before every
    digit, as ``/`` and a text's end do.  So both score the same bits.
    """
    if not a or not b:
        raise ValueError(f"histogram_similarity: sequence {'b' if a else 'a'} is empty")
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
    arguments, so the distance is symmetric.  ValueError if a sequence is empty.
    """
    if not a or not b:
        raise ValueError(f"melody_distance: sequence {'b' if a else 'a'} is empty")
    unit = 1 << 32  # a path's (cost, length) as the int cost * unit + length
    row = list(accumulate([abs(a[0] - pitch_b) * unit + 1 for pitch_b in b]))  # paths to (0, j)
    first, rest = b[0], b[1:]
    for pitch_a in a[1:]:
        best = row[0] + abs(pitch_a - first) * unit + 1
        new = [best]
        for up_left, up, pitch_b in zip(row, row[1:], rest):
            best = min(up_left, up, best) + abs(pitch_a - pitch_b) * unit + 1
            new.append(best)
        row = new
    cost, length = divmod(row[-1], unit)
    return cost / length  # int / int: correctly rounded


def _sentence_notes(melody: Melody, sent) -> tuple[list[int], list[tuple[int, int]]]:
    """The pitches of ``sent``'s notes, and their durations as ``(numerator,
    denominator)`` pairs, which hash and compare in C."""
    pitches: list[int] = []
    durations: list[tuple[int, int]] = []
    tokens = melody.tokens
    for start, stop in melody.alignment[slice(*sent.span)]:  # a syllable's span holds notes only
        for token in tokens[start:stop]:
            pitches.append(token.pitch)
            durations.append(_RATIOS[token])
    return pitches, durations


def _structure(melody: Melody, anchors) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """(PD, DD, MD) averaged over ``(anchor, repeat)`` sentences; all None for none."""
    pds, dds, mds = [], [], []
    for anchor, sent in anchors:
        pitches_a, durs_a = _sentence_notes(melody, anchor)
        pitches_b, durs_b = _sentence_notes(melody, sent)
        pds.append(histogram_similarity(pitches_a, pitches_b))
        dds.append(histogram_similarity(durs_a, durs_b))
        mds.append(melody_distance(pitches_a, pitches_b))
    if not pds:
        return (None, None, None)
    return (_mean(pds), _mean(dds), _mean(mds))


def structure_similarity(
    lyrics: LyricSequence, melody: Melody
) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """(PD, DD, MD) averaged over every repeated sentence vs. its earliest
    occurrence; all None when the lyrics repeat nothing."""
    _check_aligned(lyrics, melody)
    return _structure(melody, _repeat_anchors(lyrics))


def evaluate_pair(
    lyrics: LyricSequence, melody: Melody, config: RewardConfig
) -> EvaluationReport:
    """All objective metrics for one lyrics/melody pair: the four event
    metrics counted in one pass over its reward events, then the structure
    figures over the repeats the fold's event model scanned."""
    scores = []
    # per kind, [fired, matched]; "pause" counts word-inner gaps only, each
    # of which fires one pause event, since a melody has no two rests in a row
    counts = {"contour": [0, 0], "sw": [0, 0], "pause": [0, 0]}
    model, events = _fold(lyrics, melody, config)
    for _, ev in events:
        kind = ev.kind
        if kind == "transition":
            scores.append(DEGREE_SCORES[ev.degree])
        elif kind in counts and (kind != "pause" or ev.boundary is BoundaryKind.WORD_INNER):
            tally = counts[kind]
            tally[0] += 1
            tally[1] += ev.matched
    contour, sw, (inner, unbroken) = counts["contour"], counts["sw"], counts["pause"]
    pd, dd, md = _structure(melody, model.anchors)  # the fold's repeat scan
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
