import random
from fractions import Fraction

import pytest

from lyricmelody import (
    AlignmentError,
    Melody,
    RewardConfig,
    evaluate_pair,
    melody_distance,
    parse_lyrics,
    structure_similarity,
)
from lyricmelody.metrics import aggregate_reports, histogram_similarity
from lyricmelody.rewards import HarmonyDegree, reward_events
from lyricmelody.synthetic import random_aligned_melody, random_lyrics
from conftest import mk_melody, repeat_layout_lyrics
from reference import (
    reference_histogram_similarity,
    reference_matched_pause_ratio,
    reference_matched_sw_ratio,
    reference_melody_distance,
    reference_structure_similarity,
    reference_tone_contour_score,
    reference_tone_transition_score,
    replace,
)


# Five fixture songs with every populated metric worked out by hand from the
# shipped default harmony table (tone level model: T1 ends 5, T2 ends 5,
# T3 ends 2, T4 ends 1; T2 starts 3, T3 starts 2, T4 starts 5; expected jump
# = 2 * (start - end) clamped to +-4; excellent within 1, good within 3,
# fair within 6, nothing beyond +-7).
HAND_FIXTURES = [
    # 1: repeated sentence, identical melody per repeat
    (
        "ni3|W,K hao3|I .\nni3|W,K hao3|I .",
        [(60, 1), (62, 1), (60, 1), (62, 1)],
        # T3->T3 jump +2 twice: good = 0.5; both sentences rise vs falling mark;
        # keywords on beats 1 and 3; no inner-word pauses; exact repetition
        dict(tone_transition=0.5, tone_contour=0.0, matched_sw=1.0,
             matched_pauses=1.0, pd=1.0, dd=1.0, md=0.0),
    ),
    # 2: repeat transposed a whole octave
    (
        "ni3|W,K hao3|I .\nni3|W,K hao3|I .",
        [(60, 1), (62, 1), (72, 1), (74, 1)],
        dict(tone_transition=0.5, tone_contour=0.0, matched_sw=1.0,
             matched_pauses=1.0, pd=0.0, dd=1.0, md=12.0),
    ),
    # 3: rest inside a word (broken phrase), both contours matched
    (
        "ni3|W,K hao3|I ?\nxin1|W,A qing2|I .",
        [(60, 1), ("r", 1), (65, 1), (64, 1), (60, 1)],
        # T3->T3 +5 fair 0.2; T1->T2 -4 excellent 1.0; keyword on beat 1,
        # auxiliary off-beat at onset 3; rest breaks word "ni-hao"
        dict(tone_transition=0.6, tone_contour=1.0, matched_sw=1.0,
             matched_pauses=0.5, pd=None, dd=None, md=None),
    ),
    # 4: stress-accent lyrics: no transition metric at all
    (
        "morn'|W,K ing|I light|W,A ?",
        [(60, 1), (62, 1, False), (64, 1), (65, 2)],
        dict(tone_transition=None, tone_contour=1.0, matched_sw=1.0,
             matched_pauses=1.0, pd=None, dd=None, md=None),
    ),
    # 5: long first note breaks the first word; melisma mid-song
    (
        "tian1|W,K kong1|I ming2|W,A yue4|I .",
        [(67, 2), (65, 1), (64, "1/2"), (62, "1/2", False), (60, 2)],
        # T1->T1 -2 good; T1->T2 -1 good; T2->T4 -4 fair: mean 0.4
        dict(tone_transition=0.4, tone_contour=1.0, matched_sw=1.0,
             matched_pauses=0.5, pd=None, dd=None, md=None),
    ),
]


class TestHandComputedFixtures:
    @pytest.mark.parametrize("text,notes,expected", HAND_FIXTURES)
    def test_full_report(self, config, text, notes, expected):
        lyrics = parse_lyrics(text)
        melody = mk_melody(notes)
        report = evaluate_pair(lyrics, melody, config)
        for name, want in expected.items():
            got = getattr(report, name)
            if want is None:
                assert got is None, name
            else:
                assert got == pytest.approx(want, abs=1e-9), name


class TestTransition:
    def test_all_excellent_is_one(self, config):
        lyr = parse_lyrics("ni3|W hao3|I .")
        melody = mk_melody([(60, 1), (60, 1)])  # T3->T3 jump 0: excellent
        assert evaluate_pair(lyr, melody, config).tone_transition == pytest.approx(1.0)

    def test_excellent_and_bad_average(self, config):
        # jump 0 (excellent) then jump -12 (outside every T3 cell: bad)
        lyr = parse_lyrics("ni3|W hao3|I hen3|I .")
        melody = mk_melody([(72, 1), (72, 1), (60, 1)])
        assert evaluate_pair(lyr, melody, config).tone_transition == pytest.approx(0.5)

    def test_stress_accent_not_applicable(self, config):
        lyr = parse_lyrics("hello'|W world|W .")
        melody = mk_melody([(60, 1), (62, 1)])
        assert evaluate_pair(lyr, melody, config).tone_transition is None

    def test_pairs_without_table_cell_not_scored(self, config):

        from lyricmelody import HarmonyTable, Tone

        cells = {pair: v for pair, v in config.harmony_table.cells.items() if Tone.TONE3 not in pair}
        cfg = replace(config, harmony_table=HarmonyTable(cells))
        lyr = parse_lyrics("ni3|W hao3|I .")
        melody = mk_melody([(60, 1), (60, 1)])
        assert evaluate_pair(lyr, melody, cfg).tone_transition is None

    def test_cross_sentence_pairs_excluded(self, config):
        lyr = parse_lyrics("ni3|W .\nhao3|W .")
        melody = mk_melody([(60, 1), (48, 1)])  # huge jump, but across sentences
        assert evaluate_pair(lyr, melody, config).tone_transition is None


class TestContour:
    def test_all_neutral_matches(self, config):
        lyr = parse_lyrics("ni3|W hao3|I ,\nxin1|W qing2|I ,")
        melody = mk_melody([(60, 1), (72, 1), (72, 1), (60, 1)])
        assert evaluate_pair(lyr, melody, config).tone_contour == 1.0

    def test_quarter_matched(self, config):
        lyr = parse_lyrics("ni3|W ?\nhao3|W ?\nxin1|W ?\nqing2|W ?")
        melody = mk_melody([(60, 2, True), (62, 1, False)] + [(60, 1)] * 3)
        # only sentence 1 rises (60->62 inside its melisma); rest are flat
        assert evaluate_pair(lyr, melody, config).tone_contour == 0.25

    def test_one_rising_matched_one_falling_missed(self, config):
        lyr = parse_lyrics("ni3|W hao3|I ?\nxin1|W qing2|I .")
        melody = mk_melody([(60, 1), (64, 1), (60, 1), (64, 1)])
        assert evaluate_pair(lyr, melody, config).tone_contour == 0.5


class TestMatchedSW:
    def test_no_annotations_is_null_not_zero(self, config):
        lyr = parse_lyrics("ni3|W hao3|I .")
        melody = mk_melody([(60, 1), (62, 1)])
        assert evaluate_pair(lyr, melody, config).matched_sw is None

    def test_three_of_four(self, config):
        lyr = parse_lyrics("a1|W,K b1|W,K c1|W,K d1|W,A .")
        # onsets 0, 2, 4(bar start), 6: strong, strong, strong, strong
        melody = mk_melody([(60, 2), (62, 2), (64, 2), (65, 2)])
        assert evaluate_pair(lyr, melody, config).matched_sw == pytest.approx(0.75)

    def test_bad_meter_raises(self):
        # a Melody holds no such meter, so no pair in it reaches a metric
        with pytest.raises(ValueError, match="unsupported meter"):
            mk_melody([(60, 1), (62, 1)], (3, 6))


class TestMatchedPauses:
    def test_no_pauses_is_one(self, config):
        lyr = parse_lyrics("ni3|W hao3|I tian1|W kong1|I .")
        melody = mk_melody([(60, 1)] * 4)
        assert evaluate_pair(lyr, melody, config).matched_pauses == 1.0

    def test_one_of_five_inner_pauses(self, config):
        lyr = parse_lyrics("a1|W b1|I c1|I d1|I e1|I f1|I .")
        melody = mk_melody([(60, 1), (60, 1), ("r", 1), (60, 1), (60, 1), (60, 1), (60, 1)])
        assert evaluate_pair(lyr, melody, config).matched_pauses == pytest.approx(0.8)

    def test_no_inner_syllables_is_null(self, config):
        lyr = parse_lyrics("ni3|W hao3|W .")
        melody = mk_melody([(60, 1), (62, 1)])
        assert evaluate_pair(lyr, melody, config).matched_pauses is None


class TestStructureSimilarity:
    def test_identical_segments(self, config):
        lyr = parse_lyrics("ni3|W hao3|I .\nni3|W hao3|I .")
        melody = mk_melody([(60, 1), (64, 2), (60, 1), (64, 2)])
        assert structure_similarity(lyr, melody) == (1.0, 1.0, 0.0)

    def test_no_repetition_all_null(self, config):
        lyr = parse_lyrics("ni3|W .\nhao3|W .")
        melody = mk_melody([(60, 1), (62, 1)])
        assert structure_similarity(lyr, melody) == (None, None, None)

    def test_octave_transposition(self, config):
        lyr = parse_lyrics("ni3|W hao3|I tian1|W kong1|I .\nni3|W hao3|I tian1|W kong1|I .")
        melody = mk_melody(
            [(60, 1), (62, 1), (64, 1), (67, 1), (72, 1), (74, 1), (76, 1), (79, 1)]
        )
        pd, dd, md = structure_similarity(lyr, melody)
        assert dd == 1.0
        assert pd < 1.0
        assert md == pytest.approx(12.0, abs=1e-9)

    def test_md_tie_breaks_to_shortest_alignment(self):
        # the diagonal and both length-3 paths all cost 2; the diagonal wins
        assert melody_distance([60, 61], [61, 60]) == 1.0

    @pytest.mark.parametrize("function", [melody_distance, histogram_similarity])
    @pytest.mark.parametrize("a, b, empty", [([], [60], "a"), ([60], [], "b"), ([], [], "a")])
    def test_an_empty_sequence_is_a_value_error_naming_it(self, function, a, b, empty):
        with pytest.raises(ValueError, match=f"{function.__name__}: sequence {empty} is empty"):
            function(a, b)

    def test_symmetry(self, rng):
        for _ in range(200):
            a = [rng.randint(55, 79) for _ in range(rng.randint(1, 8))]
            b = [rng.randint(55, 79) for _ in range(rng.randint(1, 8))]
            assert melody_distance(a, b) == pytest.approx(melody_distance(b, a), abs=1e-12)
            assert histogram_similarity(a, b) == pytest.approx(
                histogram_similarity(b, a), abs=1e-12
            )

    def test_duration_pairs_score_bit_for_bit_as_their_fractions(self):
        # as text 1 < 1/12 < 1/2 < 12 < 2 < 2/3 < 3/2 < 3/4, in neither the
        # numeric nor the (numerator, denominator) order, and the order of a
        # float sum shows in its last bits
        values = [Fraction(v) for v in ("1", "1/2", "2/3", "3/2", "3/4", "1/12", "2", "12")]
        rng = random.Random(20261019)

        def summed(a, b, order):  # histogram_similarity's fold over the values in ``order``
            total = 0.0
            for v in order:
                total += abs(a.count(v) / len(a) - b.count(v) / len(b))
            return 1.0 - 0.5 * total

        reordered = 0
        for _ in range(500):
            a = [rng.choice(values) for _ in range(rng.randint(1, 12))]
            b = [rng.choice(values) for _ in range(rng.randint(1, 12))]
            want = histogram_similarity(a, b)
            got = histogram_similarity([v.as_integer_ratio() for v in a],
                                       [v.as_integer_ratio() for v in b])
            assert _hex(got) == _hex(want)
            present = set(a) | set(b)
            by_pair = sorted(present, key=Fraction.as_integer_ratio)
            reordered += _hex(summed(a, b, sorted(present))) != _hex(want) and (
                _hex(summed(a, b, by_pair)) != _hex(want))
        assert reordered  # a numeric order, and a pair order, would each change some result

    def test_md_nonnegative_and_ratios_bounded(self, config, rng):
        for _ in range(50):
            lyr = random_lyrics(rng, sentences=2, repeat=True)
            melody = random_aligned_melody(lyr, rng)
            report = evaluate_pair(lyr, melody, config)
            for name in ("tone_transition", "tone_contour", "matched_sw",
                         "matched_pauses", "pd", "dd"):
                value = getattr(report, name)
                assert value is None or 0.0 <= value <= 1.0 + 1e-12, name
            assert report.md is None or report.md >= 0.0


METERS = [(4, 4), (3, 4), (6, 8), (2, 2)]

# plain, triplet, dotted and mixed duration sets for the seeded melodies
DURATION_SETS = [
    tuple(map(Fraction, ("1/2", "1", "2"))),
    tuple(map(Fraction, ("1/3", "2/3", "1", "2"))),
    tuple(map(Fraction, ("1/4", "3/4", "3/2", "1", "3"))),
    tuple(map(Fraction, ("1/3", "1/2", "3/4", "1", "3/2"))),
]


def _hex(value):
    return None if value is None else float.hex(value)


def _seeded_pairs(seed, count):
    """``count`` pairs over tonal / stress-accent lyrics with and without
    repeats, in every meter, with plain, triplet and dotted durations."""
    rng = random.Random(seed)
    for case in range(count):
        tonal, repeat = case % 2 == 0, (case // 2) % 2 == 0
        lyrics = repeat_layout_lyrics(rng, tonal, repeat)
        melody = random_aligned_melody(
            lyrics, rng, durations=DURATION_SETS[(case // 4) % len(DURATION_SETS)]
        )
        yield lyrics, Melody(melody.tokens, METERS[(case // 16) % len(METERS)])


EVENT_METRICS = ("tone_transition", "tone_contour", "matched_sw", "matched_pauses")


def _reference_event_metrics(lyrics, melody, config):
    """The four event metrics as the walks of ``tests/reference.py`` give them."""
    return (
        reference_tone_transition_score(lyrics, melody, config),
        reference_tone_contour_score(lyrics, melody),
        reference_matched_sw_ratio(lyrics, melody),
        reference_matched_pause_ratio(lyrics, melody, config),
    )


def _odd_configs(config):
    """A config whose degrees all earn the same reward, and one whose match
    rewards are all 0 (with one-beat long notes), so no metric can be read
    off a reward value."""
    tied = replace(config, transition_rewards=dict.fromkeys(HarmonyDegree, 1.0))
    zero = replace(config, shape_reward_on_match=0.0, contour_reward_on_match=0.0,
                   sw_reward_on_match=0.0, pause_reward_on_match=0.0,
                   structure_reward_exact=0.0, structure_reward_octave=0.0,
                   long_note_threshold=Fraction(1))
    return {"tied": tied, "zero": zero}


class TestAgainstReference:
    """The metrics counted over reward events and the directly anchored
    structure metrics against the alignment walks, the Fraction beat grid
    and the numbered sentence groups of ``tests/reference.py``."""

    def test_event_metrics_match_walks(self, config):
        between = dict.fromkeys(EVENT_METRICS, 0)
        for lyrics, melody in _seeded_pairs(20261020, 256):
            want = list(map(_hex, _reference_event_metrics(lyrics, melody, config)))
            got = [evaluate_pair(lyrics, melody, config).tone_transition,
                   evaluate_pair(lyrics, melody, config).tone_contour,
                   evaluate_pair(lyrics, melody, config).matched_sw,
                   evaluate_pair(lyrics, melody, config).matched_pauses]
            assert list(map(_hex, got)) == want, (lyrics, melody)
            report = evaluate_pair(lyrics, melody, config)
            assert [_hex(getattr(report, name)) for name in EVENT_METRICS] == want
            for name, value in zip(EVENT_METRICS, got):
                between[name] += value is not None and 0.0 < value < 1.0
        # every figure is often strictly between its bounds
        assert min(between.values()) >= 16, between

    @pytest.mark.parametrize("name", ["tied", "zero"])
    def test_event_metrics_match_walks_under_odd_configs(self, config, name):
        cfg = _odd_configs(config)[name]
        rng = random.Random(20261021)
        between = dict.fromkeys(EVENT_METRICS, 0)
        for case in range(3000):
            lyrics = repeat_layout_lyrics(rng, case % 2 == 0, (case // 2) % 2 == 0)
            melody = random_aligned_melody(lyrics, rng)
            report = evaluate_pair(lyrics, melody, cfg)
            want = list(map(_hex, _reference_event_metrics(lyrics, melody, cfg)))
            assert [_hex(getattr(report, n)) for n in EVENT_METRICS] == want, (case, lyrics)
            for n in EVENT_METRICS:
                value = getattr(report, n)
                between[n] += value is not None and 0.0 < value < 1.0
        assert min(between.values()) >= 100, between

    def test_matched_sw_matches_beat_grid(self):
        scored = 0
        for lyrics, melody in _seeded_pairs(20261018, 256):
            got = evaluate_pair(lyrics, melody, RewardConfig()).matched_sw
            assert _hex(got) == _hex(reference_matched_sw_ratio(lyrics, melody))
            scored += got is not None and 0.0 < got < 1.0
        assert scored >= 64  # most pairs score both matched and missed words

    def test_structure_similarity_matches_groups(self):
        repeated = 0
        for lyrics, melody in _seeded_pairs(20261019, 256):
            got = structure_similarity(lyrics, melody)
            want = reference_structure_similarity(lyrics, melody)
            assert list(map(_hex, got)) == list(map(_hex, want))
            repeated += got[0] is not None
        assert repeated >= 128  # every repeat layout

    def test_evaluate_pair_structure_figures_match_groups(self, config):
        # evaluate_pair reads the fold's repeat scan, not structure_similarity's
        repeated = 0
        for lyrics, melody in _seeded_pairs(20261020, 256):
            report = evaluate_pair(lyrics, melody, config)
            want = reference_structure_similarity(lyrics, melody)
            assert [_hex(report.pd), _hex(report.dd), _hex(report.md)] == list(map(_hex, want))
            repeated += report.pd is not None
        assert repeated >= 128

    def test_md_and_histograms_match_on_long_random_sequences(self):
        # lengths 1-200 (so many paths take 128 steps or more), pitches
        # from 2, 4 or 25 values (so many alignments tie on cost), and
        # durations binned as Fractions by the reference, as pairs here
        rng = random.Random(20261021)
        values = [Fraction(v) for v in ("1", "1/2", "2/3", "3/2", "3/4", "1/12", "2", "12")]
        longest = 0
        for case in range(48):
            width = (1, 3, 24)[case % 3]
            a, b = ([rng.randint(60, 60 + width) for _ in range(rng.randint(1, 200))]
                    for _ in range(2))
            assert _hex(melody_distance(a, b)) == _hex(reference_melody_distance(a, b)), case
            assert _hex(histogram_similarity(a, b)) == _hex(reference_histogram_similarity(a, b))
            durs_a, durs_b = ([rng.choice(values) for _ in range(len(p))] for p in (a, b))
            got = histogram_similarity([d.as_integer_ratio() for d in durs_a],
                                       [d.as_integer_ratio() for d in durs_b])
            assert _hex(got) == _hex(reference_histogram_similarity(durs_a, durs_b)), case
            longest = max(longest, len(a), len(b))  # no path is shorter
        assert longest > 128


class TestConsistencyWithRewards:
    def test_maximal_rewards_imply_perfect_ratios(self, config):
        lyr = parse_lyrics("ni3|W,K hao3|I .")
        melody = mk_melody([(60, 1), (60, 1)])
        maximal = [
            ev for _, ev in reward_events(lyr, melody, config)
            if ev.kind in ("transition", "sw", "pause")
        ]
        assert maximal and all(ev.is_maximal for ev in maximal)
        assert evaluate_pair(lyr, melody, config).tone_transition == 1.0
        assert evaluate_pair(lyr, melody, config).matched_sw == 1.0
        assert evaluate_pair(lyr, melody, config).matched_pauses == 1.0

    def test_purity(self, config, rng):
        lyr = random_lyrics(rng, sentences=2, repeat=True)
        melody = random_aligned_melody(lyr, rng)
        assert evaluate_pair(lyr, melody, config) == evaluate_pair(lyr, melody, config)


class TestAggregation:
    def test_mean_skips_nulls_per_field(self, config):
        lyr_a = parse_lyrics("ni3|W,K hao3|I .")
        mel_a = mk_melody([(60, 1), (60, 1)])
        lyr_b = parse_lyrics("hello'|W,K ?")
        mel_b = mk_melody([(60, 1), (64, 1, False)])
        reports = [evaluate_pair(lyr_a, mel_a, config), evaluate_pair(lyr_b, mel_b, config)]
        agg = aggregate_reports(reports)
        assert agg["tone_transition"] == reports[0].tone_transition  # b is null
        assert agg["tone_contour"] == pytest.approx(
            (reports[0].tone_contour + reports[1].tone_contour) / 2
        )
        assert agg["pd"] is None

    def test_alignment_error_raised(self, config):
        lyr = parse_lyrics("ni3|W hao3|I tian1|W .")
        melody = mk_melody([(60, 1)])
        with pytest.raises(AlignmentError):
            evaluate_pair(lyr, melody, config)
        with pytest.raises(AlignmentError):
            structure_similarity(lyr, melody)
