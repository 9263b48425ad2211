"""Objective lyric-melody evaluation.

Seven numbers per pair: tone transition and contour scores, matched
strong/weak ratio, matched pause ratio, and three structure-similarity
figures (pitch distribution, duration distribution, melody distance)
computed over repeated phrases.

Every ratio uses the matching predicate of the corresponding reward, so a
melody whose triggered rewards are all maximal scores 1.0 on transition,
strong/weak and pauses.  A metric whose denominator population is empty is
None - never silently zero - so corpus averages stay honest.

Pinned interpretations (repetition metrics defer to no external tool):
PD/DD are total-variation similarity ``1 - 0.5 * sum |h_a - h_b|`` of the
normalized pitch / duration histograms; MD is the mean absolute semitone
difference along a minimal-cost monotone alignment of the two pitch
sequences (dynamic time warping with unit steps, cost ``|pitch_a -
pitch_b|``, shortest among minimal-cost alignments).  All functions are
pure; evaluating many songs in parallel is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AlignmentError
from .lyrics import (
    Language,
    LyricSequence,
    StressClass,
    TONAL_TONES,
    WordPosition,
    _repeat_anchors,
)
from .melody import Melody, _tick_clock, gap_has_pause
from .rewards import (
    HarmonyDegree,
    RewardConfig,
    contour_matches,
)

__all__ = [
    "EvaluationReport",
    "DEGREE_SCORES",
    "tone_transition_score",
    "tone_contour_score",
    "matched_sw_ratio",
    "matched_pause_ratio",
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


def tone_transition_score(
    lyrics: LyricSequence, melody: Melody, config: RewardConfig
) -> Optional[float]:
    """Mean harmony-degree score over intra-sentence adjacent tone pairs.

    Pairs the harmony table has no cell for are not scored, as the
    transition reward does not apply to them.
    """
    _check_aligned(lyrics, melody)
    if lyrics.language is not Language.TONAL or config.harmony_table is None:
        return None
    scores = []
    for k in range(1, len(lyrics)):
        left, right = lyrics.syllables[k - 1], lyrics.syllables[k]
        if left.sentence_index != right.sentence_index:
            continue
        if left.tone not in TONAL_TONES or right.tone not in TONAL_TONES:
            continue
        delta = melody.tokens[melody.alignment[k][0]].pitch - melody.tokens[melody.alignment[k - 1][0]].pitch
        degree = config.harmony_table.degree_of(left.tone, right.tone, delta)
        if degree is not None:
            scores.append(DEGREE_SCORES[degree])
    if not scores:
        return None
    return _mean(scores)


def tone_contour_score(lyrics: LyricSequence, melody: Melody) -> Optional[float]:
    """Fraction of sentences whose pitch direction matches their intonation."""
    _check_aligned(lyrics, melody)
    matched = 0
    for sent in lyrics.sentences:
        pitches = [p for k in range(*sent.span) for p in melody.span_pitches(k)]
        if contour_matches(sent.intonation, pitches[0], pitches[-1]):
            matched += 1
    return matched / len(lyrics.sentences)


def matched_sw_ratio(lyrics: LyricSequence, melody: Melody) -> Optional[float]:
    """Matched keyword/auxiliary words over all keyword/auxiliary words.

    A keyword matches when its first note falls on a strong beat, an
    auxiliary when it falls on a weak one (onsets counted on the melody's
    integer-tick clock).  None when the lyrics annotate neither keywords nor
    auxiliaries.
    """
    _check_aligned(lyrics, melody)
    tokens, alignment = melody.tokens, melody.alignment
    scale, bar, strong = _tick_clock(melody.time_signature, tokens)
    total = matched = 0
    onset = i = 0  # the onset, in ticks, of token i
    for k, syl in enumerate(lyrics.syllables):
        if syl.word_position is not WordPosition.WORD_START:
            continue
        if syl.stress_class is StressClass.NEUTRAL:
            continue
        total += 1
        start = alignment[k][0]
        for token in tokens[i:start]:
            d = token.duration
            onset += d.numerator * (scale // d.denominator)
        i = start
        if (syl.stress_class is StressClass.KEYWORD) == (onset % bar in strong):
            matched += 1
    if total == 0:
        return None
    return matched / total


def matched_pause_ratio(
    lyrics: LyricSequence, melody: Melody, config: RewardConfig
) -> Optional[float]:
    """One minus the share of word-inner syllables preceded by a pause."""
    _check_aligned(lyrics, melody)
    inner = broken = 0
    for k in range(1, len(lyrics)):
        if lyrics.syllables[k].word_position is not WordPosition.WORD_INNER:
            continue
        inner += 1
        if gap_has_pause(melody, k - 1, config):
            broken += 1
    if inner == 0:
        return None
    return 1.0 - broken / inner


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
    """All objective metrics for one lyrics/melody pair."""
    pd, dd, md = structure_similarity(lyrics, melody)
    return EvaluationReport(
        tone_transition=tone_transition_score(lyrics, melody, config),
        tone_contour=tone_contour_score(lyrics, melody),
        matched_sw=matched_sw_ratio(lyrics, melody),
        matched_pauses=matched_pause_ratio(lyrics, melody, config),
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
