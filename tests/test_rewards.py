import copy
import inspect
import itertools
import json
import math
import pickle
import random
import re
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from lyricmelody import (
    BeatStrength,
    ConfigError,
    END,
    HarmonyDegree,
    HarmonyTable,
    Intonation,
    Melody,
    MelodyToken,
    RewardConfig,
    RhythmToken,
    StressClass,
    TokenKind,
    Tone,
    evaluate_pair,
    parse_lyrics,
    pitch_contour_reward,
    pitch_shape_reward,
    pitch_transition_reward,
    pause_reward,
    score_rewards,
    strong_weak_reward,
    structure_reward,
)
from lyricmelody import rewards
from lyricmelody.rewards import (
    ALL_ASPECTS,
    Aspect,
    BoundaryKind,
    PRESET_LAMBDAS,
    RewardEvent,
    _EventModel,
    _State,
    _clock,
    boundary_kind,
    reward_events,
    weighted_total,
)
from lyricmelody.scorer import rhythm_projection
from lyricmelody.synthetic import random_aligned_melody, random_lyrics
from conftest import BAD_DURATION_TEXTS, BAD_DURATION_VALUES, mk_melody, mutated_json
from reference import (_gap_kind, close_events, reference_score_rewards, replace,
                       scan_reward_events, step_events)


class TestPitchShape:
    def test_rising_tone_matches_rise(self, config):
        assert pitch_shape_reward(Tone.TONE2, [60, 64], config) == 1.0

    def test_level_tone_matches_flat(self, config):
        assert pitch_shape_reward(Tone.TONE1, [60, 60, 60], config) == 1.0

    def test_rising_tone_rejects_fall(self, config):
        assert pitch_shape_reward(Tone.TONE2, [64, 60], config) == 0.0

    def test_falling_tone(self, config):
        assert pitch_shape_reward(Tone.TONE4, [64, 62, 60], config) == 1.0
        assert pitch_shape_reward(Tone.TONE4, [60, 62], config) == 0.0

    def test_dipping_tone_needs_interior_minimum(self, config):
        assert pitch_shape_reward(Tone.TONE3, [62, 58, 61], config) == 1.0
        assert pitch_shape_reward(Tone.TONE3, [58, 60, 62], config) == 0.0
        # two notes cannot dip: falling counts
        assert pitch_shape_reward(Tone.TONE3, [62, 60], config) == 1.0
        assert pitch_shape_reward(Tone.TONE3, [60, 62], config) == 0.0

    def test_light_tone_matches_anything(self, config):
        assert pitch_shape_reward(Tone.TONE5, [60, 67, 55], config) == 1.0

    def test_single_note_not_applicable(self, config):
        assert pitch_shape_reward(Tone.TONE2, [60], config) is None

    def test_stress_tones_not_applicable(self, config):
        assert pitch_shape_reward(Tone.STRESSED, [60, 64], config) is None

    def test_transposition_invariance(self, config, rng):
        tones = [Tone.TONE1, Tone.TONE2, Tone.TONE3, Tone.TONE4, Tone.TONE5]
        for _ in range(200):
            tone = rng.choice(tones)
            pitches = [rng.randint(50, 70) for _ in range(rng.randint(2, 5))]
            shift = rng.randint(-10, 10)
            assert pitch_shape_reward(tone, pitches, config) == pitch_shape_reward(
                tone, [p + shift for p in pitches], config
            )


class TestPitchTransition:
    def test_degree_reward_mapping(self, config):
        table = HarmonyTable(
            {
                (Tone.TONE1, Tone.TONE1): (
                    (0, 0, HarmonyDegree.EXCELLENT),
                    (1, 2, HarmonyDegree.GOOD),
                    (3, 4, HarmonyDegree.FAIR),
                )
            }
        )
        cfg = replace(config, harmony_table=table)
        pair = (Tone.TONE1, Tone.TONE1)
        assert pitch_transition_reward(pair, 0, cfg) == 3.0
        assert pitch_transition_reward(pair, 1, cfg) == 2.0
        assert pitch_transition_reward(pair, 4, cfg) == 1.0
        assert pitch_transition_reward(pair, 9, cfg) == 0.0  # outside: bad

    def test_shipped_default_tone4_tone1_plus3_is_excellent(self, config):
        assert config.harmony_table.degree_of(Tone.TONE4, Tone.TONE1, 3) is HarmonyDegree.EXCELLENT
        assert pitch_transition_reward((Tone.TONE4, Tone.TONE1), 3, config) == 3.0

    def test_pair_outside_domain_not_applicable(self, config):
        assert (
            pitch_transition_reward((Tone.STRESSED, Tone.UNSTRESSED), 0, config)
            is None
        )

    def test_every_default_cell_covers_zero(self, config):
        for prev in list(Tone)[:5]:
            for cur in list(Tone)[:5]:
                degree = config.harmony_table.degree_of(prev, cur, 0)
                intervals = config.harmony_table.cells[(prev, cur)]
                assert any(lo <= 0 <= hi for lo, hi, _ in intervals), (prev, cur, degree)


class TestHarmonyTableValidation:
    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            HarmonyTable(
                {
                    (Tone.TONE1, Tone.TONE1): (
                        (0, 2, HarmonyDegree.EXCELLENT),
                        (2, 4, HarmonyDegree.GOOD),
                    )
                }
            )

    def test_zero_must_be_covered(self):
        with pytest.raises(ConfigError, match="zero"):
            HarmonyTable({(Tone.TONE1, Tone.TONE1): ((1, 3, HarmonyDegree.EXCELLENT),)})

    @pytest.mark.parametrize("pair, intervals, message", [
        ((Tone.NONE, Tone.TONE2), ((0, 0, HarmonyDegree.GOOD),),
         "harmony cell none,tone2: both tones must be tonal (tone1-tone5)"),
        ((Tone.TONE1, Tone.TONE2), ((0, 0, HarmonyDegree.GOOD), (3, 1, HarmonyDegree.FAIR)),
         "harmony cell tone1,tone2: interval (3, 1) is inverted"),
        ((Tone.TONE1, Tone.TONE2), ((0, 2, HarmonyDegree.GOOD), (2, 4, HarmonyDegree.FAIR)),
         "harmony cell tone1,tone2: overlapping intervals"),
        ((Tone.TONE1, Tone.TONE2), ((1, 3, HarmonyDegree.GOOD),),
         "harmony cell tone1,tone2: a zero pitch difference must be labeled"),
    ], ids=["not tonal", "inverted", "overlapping", "zero unlabeled"])
    def test_fault_names_the_cell_as_a_file_spells_it(self, pair, intervals, message):
        from lyricmelody import load_reward_config

        with pytest.raises(ConfigError) as info:
            HarmonyTable({pair: intervals})
        assert str(info.value) == message
        cell = [[lo, hi, degree.value] for lo, hi, degree in intervals]
        key = f"{pair[0].value},{pair[1].value}"
        with pytest.raises(ConfigError) as info:
            load_reward_config(json.dumps({"harmony_table": {key: cell}}))
        assert str(info.value) == message

    @pytest.mark.parametrize("pair, intervals, message", [
        ((Tone.TONE1, Tone.TONE1), ((-12, 12, "good"),),
         "harmony cell tone1,tone1: (-12, 12, 'good') is not (low, high, degree) "
         "with integer bounds and a HarmonyDegree"),
        ((Tone.TONE1,), ((0, 0, HarmonyDegree.GOOD),),
         "harmony cell tone1: the key must be a (previous, current) pair of tones"),
        (Tone.TONE1, ((0, 0, HarmonyDegree.GOOD),),
         "harmony cell tone1: the key must be a (previous, current) pair of tones"),
        ((Tone.TONE1, Tone.TONE2, Tone.TONE3), ((0, 0, HarmonyDegree.GOOD),),
         "harmony cell tone1,tone2,tone3: the key must be a (previous, current) pair of tones"),
        ((Tone.TONE1, Tone.TONE2), ((-2, 2),),
         "harmony cell tone1,tone2: (-2, 2) is not (low, high, degree) "
         "with integer bounds and a HarmonyDegree"),
        ((Tone.TONE1, Tone.TONE2), ((-2.0, 2, HarmonyDegree.GOOD),),
         "harmony cell tone1,tone2: (-2.0, 2, <HarmonyDegree.GOOD: 'good'>) is not "
         "(low, high, degree) with integer bounds and a HarmonyDegree"),
        ((Tone.TONE1, Tone.TONE2), [(-2, 2, HarmonyDegree.GOOD)],
         "harmony cell tone1,tone2: [(-2, 2, <HarmonyDegree.GOOD: 'good'>)] "
         "is not a tuple of intervals"),
    ], ids=["degree name", "one-tone key", "bare tone key", "three-tone key", "two-item interval",
            "float bound", "list of intervals"])
    def test_malformed_cell_names_the_cell_as_a_file_spells_it(self, pair, intervals, message):
        # a library caller's table fails where it is built, not in RewardConfig
        with pytest.raises(ConfigError) as info:
            HarmonyTable({pair: intervals})
        assert str(info.value) == message

    def test_cells_stay_as_checked_through_pickle_and_deepcopy(self, config):
        # the event tables are built from the checked cells, so a later change
        # to the cells would grade a jump one way in degree_of and another in
        # the events
        pair, cell = (Tone.TONE3, Tone.TONE3), ((-127, 127, "good"),)
        mine = {pair: ((0, 0, HarmonyDegree.GOOD),)}
        table = HarmonyTable(mine)
        mine[pair] = cell  # the caller's own dict, not the table's
        assert table.degree_of(*pair, 0) is HarmonyDegree.GOOD
        for copied in (config, pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
            assert copied == config
            with pytest.raises(TypeError):
                copied.harmony_table.cells[pair] = cell
            with pytest.raises(TypeError):
                del copied.harmony_table.cells[pair]
            assert copied.harmony_table.degree_of(*pair, 0) is HarmonyDegree.EXCELLENT


class TestPitchContour:
    def test_interrogative_wants_rise(self, config):
        assert pitch_contour_reward(Intonation.RISING, 60, 65, config) == 1.0

    def test_opposite_direction_fails(self, config):
        assert pitch_contour_reward(Intonation.RISING, 65, 60, config) == 0.0

    def test_neutral_matches_anything(self, config):
        for first, last in [(60, 70), (70, 60), (64, 64)]:
            assert pitch_contour_reward(Intonation.NEUTRAL, first, last, config) == 1.0

    def test_flat_fails_both_directions(self, config):
        assert pitch_contour_reward(Intonation.RISING, 60, 60, config) == 0.0
        assert pitch_contour_reward(Intonation.FALLING, 60, 60, config) == 0.0


class TestStrongWeak:
    def test_keyword_on_strong(self, config):
        assert strong_weak_reward(StressClass.KEYWORD, BeatStrength.STRONG, config) == 1.0

    def test_auxiliary_on_downbeat_is_bad(self, config):
        assert strong_weak_reward(StressClass.AUXILIARY, BeatStrength.STRONG, config) == 0.0

    def test_auxiliary_on_weak(self, config):
        assert strong_weak_reward(StressClass.AUXILIARY, BeatStrength.WEAK, config) == 1.0

    def test_keyword_on_weak(self, config):
        assert strong_weak_reward(StressClass.KEYWORD, BeatStrength.WEAK, config) == 0.0

    def test_neutral_not_applicable(self, config):
        assert strong_weak_reward(StressClass.NEUTRAL, BeatStrength.WEAK, config) is None

    def test_list_meter_scores_as_the_tuple(self, config):
        # beat 3 of 4/4 is strong whether the meter is a tuple or a list
        lyr = parse_lyrics("ni3|W,K hao3|I,A tian1|W,K qi4|I .")
        tokens = mk_melody([(60, 1), (62, 1), (64, 1), (65, 1)]).tokens
        as_tuple, as_list = Melody(tokens, (4, 4)), Melody(tokens, [4, 4])
        assert (evaluate_pair(lyr, as_list, config).matched_sw
                == evaluate_pair(lyr, as_tuple, config).matched_sw == 1.0)
        assert reward_events(lyr, as_list, config) == reward_events(lyr, as_tuple, config)
        assert (score_rewards(lyr, as_list, config).total.hex()
                == score_rewards(lyr, as_tuple, config).total.hex())


class TestPause:
    def test_pause_inside_word_is_bad(self, config):
        assert pause_reward(True, BoundaryKind.WORD_INNER, config) == 0.0

    def test_pause_at_boundaries_is_good(self, config):
        assert pause_reward(True, BoundaryKind.WORD_BOUNDARY, config) == 1.0
        assert pause_reward(True, BoundaryKind.SENTENCE_BOUNDARY, config) == 1.0

    def test_missing_sentence_pause_is_bad(self, config):
        assert pause_reward(False, BoundaryKind.SENTENCE_BOUNDARY, config) == 0.0

    def test_no_pause_elsewhere_is_fine(self, config):
        assert pause_reward(False, BoundaryKind.WORD_INNER, config) == 1.0
        assert pause_reward(False, BoundaryKind.WORD_BOUNDARY, config) == 1.0

    def test_boundary_kinds(self):
        lyr = parse_lyrics("ni3|W hao3|I tian1|W .\nkong1|W .")
        assert boundary_kind(lyr, 1) is BoundaryKind.WORD_INNER
        assert boundary_kind(lyr, 2) is BoundaryKind.WORD_BOUNDARY
        assert boundary_kind(lyr, 3) is BoundaryKind.SENTENCE_BOUNDARY


class TestStructure:
    def test_equal_intervals_full_reward(self, config):
        assert structure_reward(2, 2, config) == 2.0

    def test_octave_shifted_partial_reward(self, config):
        assert structure_reward(14, 2, config) == 1.0
        assert structure_reward(-10, 2, config) == 1.0

    def test_unrelated_intervals_zero(self, config):
        assert structure_reward(3, 2, config) == 0.0

    def test_invariant_under_joint_transposition(self, config, rng):
        # shifting every pitch (both paired phrases together) changes no
        # interval, so the structure contribution is untouched
        lyr = parse_lyrics("ni3|W hao3|I .\nni3|W hao3|I .")
        for _ in range(50):
            pitches = [rng.randint(50, 70) for _ in range(4)]
            shift = rng.randint(-10, 10)
            original = mk_melody([(p, 1) for p in pitches])
            shifted = mk_melody([(p + shift, 1) for p in pitches])
            values = lambda melody: [
                ev.value
                for _, ev in reward_events(lyr, melody, config)
                if ev.kind == "structure"
            ]
            assert values(original) == values(shifted)


class TestTotalReward:
    def test_published_lambda_arithmetic(self, config):
        events = [
            RewardEvent("transition", Aspect.TONE, 3.0,
                        config.transition_rewards[HarmonyDegree.EXCELLENT]),
            RewardEvent("sw", Aspect.RHYTHM, 1.0, config.sw_reward_on_match),
        ]
        cfg = config.with_lambdas((1.2, 1.5, 1.0))
        assert weighted_total(events, cfg) == pytest.approx(5.1, abs=1e-9)

    def test_zero_lambdas_zero_total(self, config, rng):
        cfg = config.with_preset("off")
        lyr = random_lyrics(rng, sentences=2)
        melody = random_aligned_melody(lyr, rng)
        assert score_rewards(lyr, melody, cfg).total == 0.0

    def test_active_gating(self, config, rng):
        lyr = random_lyrics(rng, sentences=2, repeat=True)
        melody = random_aligned_melody(lyr, rng)
        rhythm_only = score_rewards(lyr, melody, config, frozenset({Aspect.RHYTHM}))
        assert rhythm_only.total == pytest.approx(
            config.lambda_rhythm
            * sum(
                ev.value
                for _, ev in reward_events(lyr, melody, config)
                if ev.aspect is Aspect.RHYTHM
            ),
            abs=1e-12,
        )

    def test_lambda_linearity(self, config, rng):
        lyr = random_lyrics(rng, sentences=2, repeat=True)
        melody = random_aligned_melody(lyr, rng)
        base = score_rewards(lyr, melody, config.with_lambdas((1.0, 0.0, 0.0))).total
        for c in (0.25, 2.0, 3.5):
            scaled = score_rewards(lyr, melody, config.with_lambdas((c, 0.0, 0.0))).total
            assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)

    def test_tone_step_reward_bounded(self, config, rng):
        bound = (
            config.shape_reward_on_match
            + config.transition_rewards[HarmonyDegree.EXCELLENT]
            + config.contour_reward_on_match
        )
        for _ in range(100):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3))
            melody = random_aligned_melody(lyr, rng)
            per_token: dict = {}
            for anchor, ev in reward_events(lyr, melody, config):
                if ev.aspect is Aspect.TONE:
                    per_token[anchor] = per_token.get(anchor, 0.0) + ev.value
            assert all(v <= bound + 1e-12 for v in per_token.values())

    def test_stress_accent_reduces_tone_to_contour(self, config, rng):
        for _ in range(50):
            lyr = random_lyrics(rng, sentences=2, tonal=False)
            melody = random_aligned_melody(lyr, rng)
            tone_events = [
                ev for _, ev in reward_events(lyr, melody, config) if ev.aspect is Aspect.TONE
            ]
            assert all(ev.kind == "contour" for ev in tone_events)
            assert len(tone_events) == len(lyr.sentences)


class TestWholePairScan:
    def test_hand_computed_pair(self, config):
        # two keyword monosyllables, notes on beats 1 and 3 of 4/4
        lyr = parse_lyrics("di4|W,K fang1|W,K .")
        melody = mk_melody([(60, 2), (63, 2)])
        summary = score_rewards(lyr, melody, config)
        # sw(K strong)=1, transition(T4,T1,+3)=3, sw=1, pause(long at word
        # boundary)=1, contour(falling, 60->63)=0
        assert summary.by_aspect[Aspect.RHYTHM] == 3.0
        assert summary.by_aspect[Aspect.TONE] == 3.0
        assert summary.by_aspect[Aspect.STRUCTURE] == 0.0
        assert summary.total == pytest.approx(1.5 * 3.0 + 1.2 * 3.0, abs=1e-9)

    def test_structure_pairs_compare_first_notes_across_melisma(self, config):
        # repeated sentence; second copy uses a melisma on its first syllable
        lyr = parse_lyrics("ni3|W hao3|I .\nni3|W hao3|I .")
        melody = mk_melody(
            [(60, 1), (62, 1), (64, 1), (66, 1, False), (66, 1)]
        )
        events = [
            ev for _, ev in reward_events(lyr, melody, config)
            if ev.kind == "structure"
        ]
        # syllable 2 pairs syllable 0 (delta undefined there: first note of piece)
        # syllable 3 pairs syllable 1: delta_i = 66-66 = 0 vs delta_j = 62-60 = 2
        assert len(events) == 1
        assert events[0].value == 0.0

    def test_octave_echo_is_partial_not_matched(self, config):
        # syllable 3 jumps +14 where its anchor (syllable 1) jumps +2
        lyr = parse_lyrics("ni3|W hao3|I .\nni3|W hao3|I .")
        melody = mk_melody([(60, 1), (62, 1), (60, 1), (74, 1)])
        events = reward_events(lyr, melody, config)
        assert events == scan_reward_events(lyr, melody, config)
        structure = [ev for _, ev in events if ev.kind == "structure"]
        assert structure == [RewardEvent("structure", Aspect.STRUCTURE,
                                         config.structure_reward_octave,
                                         config.structure_reward_exact, False)]

    def test_presets_match_published_operating_points(self):
        assert PRESET_LAMBDAS["telemelody"] == (1.2, 1.5, 1.0)
        assert PRESET_LAMBDAS["songmass"] == (1.5, 1.0, 1.0)
        assert PRESET_LAMBDAS["off"] == (0.0, 0.0, 0.0)


class TestFoldMatchesReferenceScan:
    METERS = [(4, 4), (3, 4), (6, 8), (2, 2)]

    def test_events_equal_whole_pair_scan(self, config):
        # every third pair runs under a table missing the tone-3 cells, so
        # transitions the table cannot grade are covered too
        cells = {p: v for p, v in config.harmony_table.cells.items() if Tone.TONE3 not in p}
        partial = replace(config, harmony_table=HarmonyTable(cells), long_note_threshold=Fraction(1))
        for seed in range(1500):
            rng = random.Random(seed)
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=seed % 2 == 0,
                                repeat=seed // 2 % 2 == 0)
            melody = random_aligned_melody(lyr, rng)
            cfg = partial if seed % 3 == 2 else config
            for meter in self.METERS:
                pair = Melody(melody.tokens, meter)
                assert reward_events(lyr, pair, cfg) == scan_reward_events(lyr, pair, cfg), (
                    seed, meter)

    def test_unsupported_meter_rejected(self, config):
        lyr = parse_lyrics("ni3|W hao3|I .")
        with pytest.raises(ValueError, match="unsupported meter"):
            reward_events(lyr, mk_melody([(60, 1), (62, 1)], (4, 6)), config)


class TestFoldMatchesStepApply:
    """The fold is its own loop, so it is pinned to the decoder's path: the
    events of stepping ``reference.step_events``/``apply`` from ``_State()``
    over every token and then END, with some aspects active, equal the
    fold's events of those aspects (``==``), and their weighted totals
    agree bit for bit."""

    METERS = [(4, 4), (3, 4), (6, 8), (2, 2)]

    @staticmethod
    def stepped(model, tokens):
        state, events = _State(), []
        for i, token in enumerate(tokens):
            events.extend((i, ev) for ev in step_events(model, state, token))
            state = model.apply(state, token)
        events.extend((None, ev) for ev in step_events(model, state, END))
        return events

    @staticmethod
    def configs(config):
        excellent = config.transition_rewards[HarmonyDegree.EXCELLENT]
        return {
            "default": config,
            "tied": replace(config, transition_rewards={
                **config.transition_rewards, HarmonyDegree.GOOD: excellent}),
            "zero pause": replace(config, pause_reward_on_match=0.0),
            "one-beat long note": replace(config, long_note_threshold=Fraction(1)),
        }

    @staticmethod
    def fold(lyrics, melody, config, active):
        """``reward_events`` with every aspect on; the model's fold under
        fewer active aspects, as rerank runs it.  Both fire every aspect."""
        if active == ALL_ASPECTS:
            return reward_events(lyrics, melody, config)
        return _EventModel(lyrics, config, active, melody.time_signature).fold(melody.tokens)

    @classmethod
    def mismatches(cls, config, fold, seeds=range(96)):
        """(seed, config, meter, active) wherever ``fold`` differs from
        stepping the event model."""
        found, kinds = [], set()
        for seed in seeds:
            rng = random.Random(seed)
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=seed % 2 == 0,
                                repeat=seed // 2 % 2 == 0)
            melody = random_aligned_melody(lyr, rng)
            for name, cfg in cls.configs(config).items():
                for meter in cls.METERS:
                    pair = Melody(melody.tokens, meter)
                    for active in [ALL_ASPECTS] + [frozenset({a}) for a in Aspect]:
                        model = _EventModel(lyr, cfg, active, meter, _clock(meter, pair.tokens))
                        want = cls.stepped(model, pair.tokens)
                        got = [(i, ev) for i, ev in fold(lyr, pair, cfg, active)
                               if ev.aspect in active]
                        kinds.update(ev.kind for _, ev in want)
                        totals = [weighted_total((ev for _, ev in evs), cfg, active).hex()
                                  for evs in (got, want)]
                        if got != want or totals[0] != totals[1]:
                            found.append((seed, name, meter, sorted(a.value for a in active)))
        assert kinds == {"shape", "contour", "transition", "sw", "pause", "structure"}
        return found

    def test_fold_equals_stepping(self, config):
        assert self.mismatches(config, self.fold) == []

    def test_fold_fires_every_aspect(self, config):
        # only the plan reads the active aspects; callers weigh the fold's
        for seed in range(24):
            lyr, melody = seeded_pair(seed)
            want = reward_events(lyr, melody, config)
            for active in [frozenset()] + [frozenset({a}) for a in Aspect]:
                model = _EventModel(lyr, config, active, melody.time_signature)
                assert model.fold(melody.tokens) == want, (seed, active)

    def test_catches_a_fold_without_the_long_note_test(self, config):
        source = textwrap.dedent(inspect.getsource(_EventModel.fold))
        long_note_test = "pauses[k][last_ticks >= long_note]"
        assert source.count(long_note_test) == 1
        namespace = dict(vars(rewards))
        exec(source.replace(long_note_test, "pauses[k][False]"), namespace)
        NoLongNotes = type("NoLongNotes", (_EventModel,), {"fold": namespace["fold"]})

        def fold(lyrics, melody, config, active):
            return NoLongNotes(lyrics, config, active, melody.time_signature).fold(melody.tokens)

        assert self.mismatches(config, fold, seeds=range(40))


def seeded_pair(seed):
    """Lyrics (tonal or not, repeated or not, 1-3 sentences) and an aligned
    melody, both built fresh from ``seed``."""
    rng = random.Random(seed)
    lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=seed % 2 == 0,
                        repeat=seed // 2 % 2 == 0)
    return lyr, random_aligned_melody(lyr, rng)


class TestFoldMemo:
    """``reward_events`` memoises its last pair by identity; a hit must never
    be another pair's events, share a list with a caller, cross a meter or
    mix entries between threads."""

    def test_fresh_pairs_get_their_own_events(self, config):
        # each pair is dropped before the next is built, so CPython hands the
        # new objects freed ids; seeds repeat, so equal content comes back in
        # new objects too
        for i in range(1200):
            lyr, melody = seeded_pair(i % 400)
            want = _EventModel(lyr, config, ALL_ASPECTS, melody.time_signature).fold(melody.tokens)
            assert reward_events(lyr, melody, config) == want, i
            del lyr, melody

    def test_mutating_a_result_leaves_the_next_call_alone(self, config):
        lyr, melody = seeded_pair(5)
        events = reward_events(lyr, melody, config)
        want = list(events)
        events.clear()
        again = reward_events(lyr, melody, config)
        assert again == want
        again.reverse()
        assert reward_events(lyr, melody, config) == want
        summary = score_rewards(lyr, melody, config)
        by_aspect = dict(summary.by_aspect)
        summary.by_aspect[Aspect.TONE] += 1.0
        assert score_rewards(lyr, melody, config).by_aspect == by_aspect

    def test_same_lyrics_in_another_meter_rebuild_the_model(self, config):
        differ = 0
        for seed in range(40):
            lyr, melody = seeded_pair(seed)
            common = reward_events(lyr, Melody(melody.tokens, (4, 4)), config)
            triple = reward_events(lyr, Melody(melody.tokens, (3, 4)), config)
            assert triple == _EventModel(lyr, config, ALL_ASPECTS, (3, 4)).fold(melody.tokens)
            differ += common != triple
        assert differ > 10

    def test_threads_match_a_serial_run(self, config):
        # 256 pairs: 64 sheets, each with one melody in 4/4 and in 3/4, each
        # of those twice in a row, so that threads run into one another's
        # entries and take every path (hit, model reuse, rebuild)
        pairs = []
        for seed in range(64):
            lyr, melody = seeded_pair(seed)
            for meter in [(4, 4), (3, 4)]:
                pairs += [(lyr, Melody(melody.tokens, meter))] * 2

        def both(pair):
            lyr, melody = pair
            return evaluate_pair(lyr, melody, config), score_rewards(lyr, melody, config)

        serial = [both(pair) for pair in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the memo's reads and writes
        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(16):
                    assert list(pool.map(both, pairs, timeout=120)) == serial
        finally:
            sys.setswitchinterval(interval)


class TestScoreRewardsMatchesReference:
    """The one-pass ``score_rewards`` against the two-loop oracle, bit for
    bit, and the model's gap pairs against the oracle's gap kinds."""

    # the presets, and weights whose products round, so an add out of order shows
    LAMBDAS = ["telemelody", "songmass", "off", (1.1, 0.7, 1.3)]
    SUBSETS = [frozenset(c) for r in range(4) for c in itertools.combinations(Aspect, r)]

    def test_totals_match_two_loops(self, config):
        configs = [config.with_preset(lam) if isinstance(lam, str) else config.with_lambdas(lam)
                   for lam in self.LAMBDAS]
        for seed in range(120):
            lyr, melody = seeded_pair(seed)
            for cfg in configs:
                for active in self.SUBSETS:
                    got = score_rewards(lyr, melody, cfg, active)
                    total, by_aspect = reference_score_rewards(lyr, melody, cfg, active)
                    assert got.total.hex() == total.hex(), (seed, cfg, active)
                    assert list(got.by_aspect) == list(by_aspect)
                    assert [v.hex() for v in got.by_aspect.values()] == [
                        v.hex() for v in by_aspect.values()], (seed, cfg, active)

    def test_gap_pairs_follow_boundary_kind(self, config):
        gaps = config._events.gaps
        for seed in range(300):
            lyr, _ = seeded_pair(seed)
            pause = _EventModel(lyr, config, ALL_ASPECTS, (4, 4)).pause
            assert pause[0] is None
            assert pause[1:] == [gaps[_gap_kind(lyr, k)] for k in range(1, len(lyr))], seed


class TestConfigValidation:
    def test_negative_lambda_rejected(self, config):
        with pytest.raises(ConfigError):
            config.with_lambdas((-0.1, 1.0, 1.0))

    def test_unknown_tone_pair_key_rejected(self):
        from lyricmelody import load_reward_config

        doc = '{"harmony_table": {"tone9,tone1": [[0, 0, "excellent"]]}}'
        with pytest.raises(ConfigError, match="tone9"):
            load_reward_config(doc)

    def test_missing_table_disables_transitions(self):
        cfg = RewardConfig()
        assert cfg.harmony_table == HarmonyTable({})
        assert (
            pitch_transition_reward((Tone.TONE1, Tone.TONE2), 0, cfg)
            is None
        )

    def test_no_table_is_the_empty_table(self, config):
        with pytest.raises(ConfigError, match="harmony_table must be a HarmonyTable, got None"):
            RewardConfig(harmony_table=None)
        with pytest.raises(ConfigError, match="harmony_table must be a HarmonyTable"):
            replace(config, harmony_table=None)

    @pytest.mark.parametrize("threshold", BAD_DURATION_TEXTS + BAD_DURATION_VALUES)
    def test_long_note_threshold_other_than_n_or_n_over_d_rejected(self, threshold):
        from lyricmelody import load_reward_config
        from lyricmelody.rewards import reward_config_to_dict

        doc = reward_config_to_dict(RewardConfig())
        doc["long_note_threshold"] = threshold
        message = f"bad reward config: duration {threshold!r} is not n or n/d"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_reward_config(json.dumps(doc))

    @pytest.mark.parametrize("threshold, value", [
        ("3", 3), ("3/2", Fraction(3, 2)), ("4/8", Fraction(1, 2)), (1, 1)])
    def test_long_note_threshold_forms_read(self, threshold, value):
        from lyricmelody import load_reward_config
        from lyricmelody.rewards import reward_config_to_dict

        doc = reward_config_to_dict(RewardConfig())
        doc["long_note_threshold"] = threshold
        assert load_reward_config(json.dumps(doc)).long_note_threshold == value

    def test_config_without_table_round_trips(self):
        # a config without a harmony table writes an empty one, which
        # grades no tone pair either
        from lyricmelody import load_reward_config
        from lyricmelody.rewards import reward_config_to_dict

        cfg = RewardConfig()
        doc = reward_config_to_dict(cfg)
        assert doc["harmony_table"] == {}
        loaded = load_reward_config(json.dumps(doc))
        rng = random.Random(20261019)
        for case in range(24):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=case % 2 == 0,
                                repeat=case % 4 < 2)
            melody = random_aligned_melody(lyr, rng)
            want, got = score_rewards(lyr, melody, cfg), score_rewards(lyr, melody, loaded)
            assert got.total.hex() == want.total.hex(), case
            assert got.by_aspect == want.by_aspect, case

    def test_non_monotone_transitions_rejected(self, config):
        with pytest.raises(ConfigError):
            RewardConfig(
                transition_rewards={
                    HarmonyDegree.EXCELLENT: 1.0,
                    HarmonyDegree.GOOD: 2.0,
                    HarmonyDegree.FAIR: 1.0,
                    HarmonyDegree.BAD: 0.0,
                },
                harmony_table=config.harmony_table,
            )

    def test_transition_rewards_stay_as_checked(self, config):
        # the event rows are built from the checked rewards, so a later change
        # to the rewards would pay one value in pitch_transition_reward and
        # another in the fold and the decoder
        mine = dict(config.transition_rewards)
        built = replace(config, transition_rewards=mine)
        mine[HarmonyDegree.BAD] = 99.0  # the caller's own dict, not the config's
        pair = (Tone.TONE1, Tone.TONE1)
        assert pitch_transition_reward(pair, 50, built) == 0.0
        copies = (pickle.loads(pickle.dumps(built)), copy.deepcopy(built), replace(built))
        for copied in (config, built, *copies):
            assert copied == config
            with pytest.raises(TypeError):
                copied.transition_rewards[HarmonyDegree.BAD] = 99.0
            with pytest.raises(TypeError):
                del copied.transition_rewards[HarmonyDegree.BAD]
            assert pitch_transition_reward(pair, 50, copied) == 0.0

    def test_transition_reward_reads_the_event_rows(self, config):
        # the public unit and the rows the fold and the decoder read pay one value
        for pair, row in config._events.cells.items():
            for delta in range(-127, 128):
                assert pitch_transition_reward(pair, delta, config) == row[delta][0].value

    def test_unknown_preset_rejected(self, config):
        with pytest.raises(ConfigError):
            config.with_preset("nonsense")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, config, value):
        with pytest.raises(ConfigError, match="lambda_structure must be finite"):
            config.with_lambdas((1.0, 1.0, value))
        with pytest.raises(ConfigError, match="pause_reward_on_match must be finite"):
            replace(config, pause_reward_on_match=value)
        with pytest.raises(ConfigError, match="fair transition reward must be finite"):
            replace(config, transition_rewards={
                **config.transition_rewards, HarmonyDegree.FAIR: value})

    def test_wide_harmony_interval_checked_by_its_ends(self):
        # a set of every covered difference would need 10**12 entries here
        wide = {(Tone.TONE1, Tone.TONE2): ((-10**12, 0, HarmonyDegree.GOOD),
                                           (1, 10**12, HarmonyDegree.FAIR))}
        assert HarmonyTable(wide).degree_of(Tone.TONE1, Tone.TONE2, 10**9) is HarmonyDegree.FAIR
        with pytest.raises(ConfigError, match="overlapping"):
            HarmonyTable({(Tone.TONE1, Tone.TONE2): ((-10**12, 5, HarmonyDegree.GOOD),
                                                     (0, 0, HarmonyDegree.EXCELLENT))})
        with pytest.raises(ConfigError, match="zero"):
            HarmonyTable({(Tone.TONE1, Tone.TONE2): ((1, 10**12, HarmonyDegree.GOOD),)})

    @staticmethod
    def edited_default(edit) -> str:
        """The shipped default document with ``edit`` applied, as JSON."""
        from importlib import resources

        doc = json.loads(resources.files("lyricmelody.data").joinpath(
            "default_rewards.json").read_text("utf-8"))
        edit(doc)
        return json.dumps(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["lambda"].update(tone=True),
         "reward config lambda tone must be a number, got bool"),
        (lambda doc: doc["lambda"].update(tone="1.5"),
         "reward config lambda tone must be a number, got str"),
        (lambda doc: doc["rewards"].update(pause_match=None),
         "reward config rewards pause_match must be a number, got NoneType"),
        (lambda doc: doc["rewards"]["transition"].update(good=False),
         "reward config rewards transition good must be a number, got bool"),
        (lambda doc: doc["harmony_table"]["tone1,tone2"].append([-0.9, 2.7, "excellent"]),
         "integer bounds"),
        (lambda doc: doc["harmony_table"]["tone1,tone2"].append([True, 9, "good"]),
         "integer bounds"),
        (lambda doc: doc["harmony_table"]["tone1,tone2"].append([8, 9]), "integer bounds"),
        (lambda doc: doc["harmony_table"].update({"tone1,tone2": "good"}),
         "must be a list of [low, high, degree]"),
        (lambda doc: doc["harmony_table"].update({"tone1,tone1": [[0, 0, []]]}),
         "unknown harmony degree [] in cell tone1,tone1"),
    ], ids=["bool lambda", "string lambda", "null reward", "bool transition reward",
            "float bounds", "bool bound", "two-item interval", "string cell", "list degree"])
    def test_wrong_json_types_rejected(self, edit, message):
        from lyricmelody import load_reward_config

        with pytest.raises(ConfigError) as info:
            load_reward_config(self.edited_default(edit))
        assert message in str(info.value)

    def test_table_key_that_is_no_string_rejected(self):
        from lyricmelody.rewards import reward_config_from_dict

        with pytest.raises(ConfigError) as info:
            reward_config_from_dict({"harmony_table": {1: [[0, 0, "good"]]}})
        assert str(info.value) == "bad harmony table key 1"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(lamda=doc.pop("lambda")),
         "reward config has unknown keys ['lamda']"),
        (lambda doc: doc["lambda"].update(tones=1.0),
         "reward config lambda has unknown keys ['tones']"),
        (lambda doc: doc["rewards"].update(shape=1.0),
         "reward config rewards has unknown keys ['shape']"),
        (lambda doc: doc["rewards"]["transition"].update(great=4.0),
         "reward config rewards transition has unknown keys ['great']"),
    ], ids=["document", "lambda", "rewards", "transition"])
    def test_unknown_keys_rejected(self, edit, message):
        from lyricmelody import load_reward_config

        with pytest.raises(ConfigError) as info:
            load_reward_config(self.edited_default(edit))
        assert message in str(info.value)

    def test_integer_values_and_a_description_load(self, config):
        from lyricmelody import load_reward_config

        def edit(doc):
            doc["lambda"].update(tone=2, rhythm=0)
            doc["description"] = "any text"

        loaded = load_reward_config(self.edited_default(edit))
        assert (loaded.lambda_tone, loaded.lambda_rhythm) == (2.0, 0.0)
        assert loaded.harmony_table == config.harmony_table

    @pytest.mark.parametrize("pair", [(Tone.STRESSED, Tone.NONE), (Tone.TONE1, Tone.UNSTRESSED),
                                      (Tone.NONE, Tone.TONE2)])
    def test_harmony_table_holds_tonal_pairs_only(self, pair):
        from lyricmelody import load_reward_config

        with pytest.raises(ConfigError, match="tonal"):
            HarmonyTable({pair: ((0, 0, HarmonyDegree.EXCELLENT),)})
        key = f"{pair[0].value},{pair[1].value}"
        with pytest.raises(ConfigError, match="tonal"):
            load_reward_config(self.edited_default(
                lambda doc: doc["harmony_table"].update({key: [[0, 0, "excellent"]]})))

    #: JSON values a mutation puts in place of a node of the document
    FUZZ_VALUES = [None, True, False, 0, -1, 2, 1.5, 1e308, -1e308, float("nan"),
                   float("inf"), float("-inf"), "", "x", "2", "1/2", "tone1,tone2",
                   "excellent", [], [1], [0, 0, "excellent"], [[0, 0, "excellent"]],
                   [[-10**12, 10**12, "good"]], {}, {"tone": 1}]

    def test_mutated_documents_load_or_raise_config_error(self, config):
        from lyricmelody import load_reward_config
        from lyricmelody.rewards import reward_config_to_dict

        base = reward_config_to_dict(config)
        outcomes = {"loaded": 0, "refused": 0}
        for seed in range(1500):
            rng = random.Random(seed)
            text = mutated_json(rng, base, self.FUZZ_VALUES)
            try:
                loaded = load_reward_config(text)
            except ConfigError:
                outcomes["refused"] += 1
                continue
            outcomes["loaded"] += 1
            assert all(map(math.isfinite, (
                loaded.lambda_tone, loaded.lambda_rhythm, loaded.lambda_structure,
                *loaded.transition_rewards.values()))), seed
        assert min(outcomes.values()) >= 20, outcomes  # both ends were reached


class TestStartPlan:
    """From every state of folded seeded melodies, the plan gives each move
    ``weighted_total`` (to the last bit) and ``reference.is_masked`` of the
    events the independent oracle ``reference.step_events`` derives for
    that move: END and a rest read off the plan, a start completed at every
    pitch.  Melody states run under every active set; the pitch-free states
    of rhythm tokens under the sets that leave tone off, as the rhythm stage
    does, since a pitch-free span has no shape."""

    # the presets' rhythm and structure weights are dyadic, so reordering
    # their terms cannot change a bit; the last weights can, most often from
    # a running reward of the same size as the terms, hence the start rewards
    LAMBDAS = ["telemelody", "songmass", "off", (1.1, 0.7, 1.3)]
    ACTIVE = [ALL_ASPECTS] + [frozenset({aspect}) for aspect in Aspect]
    METERS = [(4, 4), (3, 4), (6, 8)]
    PITCHES = range(57, 76)  # the melodies' 60-72 and jumps past an octave

    @classmethod
    def mismatches(cls, model_class, config, seeds=range(8)):
        from reference import is_masked

        cells = {p: v for p, v in config.harmony_table.cells.items() if Tone.TONE3 not in p}
        no_tone3 = replace(config, harmony_table=HarmonyTable(cells))
        found, kinds, moves = [], set(), set()
        for seed in seeds:
            rng = random.Random(seed)
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=seed % 4 != 3,
                                repeat=seed % 4 < 2)
            melody = random_aligned_melody(lyr, rng)
            table = no_tone3 if seed % 2 else config
            domains = [(melody.tokens, cls.ACTIVE, MelodyToken, cls.PITCHES),
                       (tuple(map(rhythm_projection, melody.tokens)),
                        [a for a in cls.ACTIVE if Aspect.TONE not in a], RhythmToken, [None])]
            for lambdas in cls.LAMBDAS:
                cfg = (table.with_preset(lambdas) if isinstance(lambdas, str)
                       else table.with_lambdas(lambdas))
                for tokens, actives, token_class, pitches in domains:
                    for active, meter in itertools.product(actives, cls.METERS):
                        model = model_class(lyr, cfg, active, meter, _clock(meter, tokens))
                        state = _State()
                        for token in tokens:
                            start_reward = rng.uniform(0, 4)
                            plan = model.plan(state, start_reward)
                            d = token.duration
                            scored = [("end", END, plan.end)]
                            if state.syl >= 0:
                                scored.append(("rest", token_class(TokenKind.REST, d), plan.rest))
                            if state.syl + 1 < len(lyr):
                                for pitch in pitches:
                                    start = (RhythmToken(TokenKind.NOTE, d, True) if pitch is None
                                             else MelodyToken(TokenKind.NOTE, d, pitch, True))
                                    scored.append(("start", start, model.complete(plan, pitch)))
                            for move, cand, (got_reward, got_masked) in scored:
                                events = step_events(model, state, cand)
                                kinds.update(ev.kind for ev in events)
                                moves.add(move)
                                want = (weighted_total(events, cfg, active, start_reward).hex(),
                                        is_masked(events, active))
                                if (got_reward.hex(), got_masked) != want:
                                    found.append((seed, lambdas, meter, sorted(active, key=str),
                                                  state.syl, move, cand))
                            state = model.apply(state, token)
        assert kinds == {"shape", "contour", "transition", "sw", "pause", "structure"}
        assert moves == {"end", "rest", "start"}
        return found

    def test_completion_equals_events(self, config):
        assert self.mismatches(_EventModel, config) == []

    def test_catches_a_rest_without_its_pause(self, config):
        class NoRestPause(_EventModel):
            def plan(self, st, start=0.0):
                plan = super().plan(st, start)
                return replace(plan, rest=plan.end)

        assert self.mismatches(NoRestPause, config, seeds=range(2))

    def test_catches_an_end_without_contour(self, config):
        class NoEndContour(_EventModel):
            def plan(self, st, start=0.0):
                close = [ev for ev in close_events(self, st) if ev.kind != "contour"]
                end = (weighted_total(close, self.config, start=start),
                       any(not ev.is_maximal for ev in close))
                return replace(super().plan(st, start), end=end)

        assert self.mismatches(NoEndContour, config, seeds=range(2))

    def test_catches_structure_added_before_middle_terms(self, config):
        class StructureFirst(_EventModel):
            def complete(self, plan, pitch):
                _, masked = super().complete(plan, pitch)
                total, _ = super().complete(replace(plan, terms=(), partner_delta=None), pitch)
                if plan.partner_delta is not None:
                    echo = structure_reward(pitch - plan.last_pitch, plan.partner_delta,
                                            self.config)
                    total += self.config.lambda_structure * echo
                for term, _ in plan.terms:
                    total += term
                return total, masked

        assert self.mismatches(StructureFirst, config)
