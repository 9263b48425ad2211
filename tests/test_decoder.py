import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from lyricmelody import (
    Aspect,
    DecodeMode,
    DecodeOptions,
    OptionError,
    RhythmToken,
    TrainingError,
    UniformScorer,
    Vocabulary,
    beam_search,
    beam_search_hard,
    build_melody_vocabulary,
    decode,
    decode_two_stage,
    note,
    parse_lyrics,
    rerank,
    rest,
    sample,
    score_decode,
    score_rewards,
    score_two_stage,
    TokenKind,
    train_model_bundle,
    train_ngram,
    write_midi,
)
from lyricmelody.rewards import (
    HarmonyDegree, RewardEvent, _EventModel, _State, _clock, reward_events,
)
from lyricmelody.scorer import END, _Table
from lyricmelody.synthetic import random_aligned_melody, random_lyrics, random_training_melody
from reference import exhaustive_argmax, plain_beam_search, replace, step_events

from conftest import mk_melody


def small_vocab(pitches=(60, 62), durations=(1,), continuations=False, rests=True):
    tokens = [note(p, d, True) for p in pitches for d in durations]
    if continuations:
        tokens += [note(p, d, False) for p in pitches for d in durations]
    if rests:
        tokens += [rest(d) for d in durations]
    return Vocabulary.build("melody", tokens)


def two_stage_bits(result):
    """A two-stage result's tokens and the bits of its scores."""
    return (result.melody.tokens, result.score.hex(), result.base_logprob.hex(),
            result.reward_total.hex(),
            {stage: {k: v.hex() for k, v in parts.items()}
             for stage, parts in result.stage_scores.items()})


class TestZeroLambdaEquivalence:
    def test_matches_plain_beam_on_random_fixtures(self, config, rng):
        cfg = config.with_preset("off")
        for _ in range(15):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 2))
            vocab = build_melody_vocabulary((60, 62), [Fraction(1), Fraction(2)])
            scorer = train_ngram(
                [random_training_melody(rng, pitch_range=(60, 62),
                                        durations=[Fraction(1), Fraction(2)])
                 for _ in range(3)],
                order=2, vocab=vocab,
            )
            width = rng.choice([1, 2, 4])
            max_notes = rng.choice([1, 2])
            got = beam_search(
                lyr, scorer, cfg,
                DecodeOptions(beam_width=width, max_notes_per_syllable=max_notes),
            )
            want = plain_beam_search(lyr, scorer, width, max_notes)
            assert got.melody.tokens == want


class TestOracleEquivalence:
    @pytest.mark.parametrize("preset", ["telemelody", "songmass", "off"])
    @pytest.mark.parametrize("text", [
        "ni3|W,K hao3|I .",
        "di4|W,K fang1|W,A ?",
        "ni3|W hao3|I .\nni3|W hao3|I .",
    ])
    def test_saturated_beam_equals_enumeration(self, config, preset, text):
        lyr = parse_lyrics(text)
        vocab = small_vocab(continuations=len(lyr) <= 2)
        scorer = UniformScorer(vocab)
        cfg = config.with_preset(preset)
        options = DecodeOptions(beam_width=50_000, max_notes_per_syllable=2)
        got = beam_search(lyr, scorer, cfg, options)
        score, _, tokens = exhaustive_argmax(lyr, scorer, cfg, options.active, 2)
        assert got.melody.tokens == tokens
        assert got.score == pytest.approx(score, abs=1e-9)

    def test_structure_reward_dominates_flat_model(self, config):
        # identical sentences: the repeat must copy the first phrase's intervals
        lyr = parse_lyrics("ni3|W hao3|I .\nni3|W hao3|I .")
        scorer = UniformScorer(small_vocab(pitches=(60, 62, 64)))
        cfg = config.with_lambdas((0.0, 0.0, 1.0))
        got = beam_search(lyr, scorer, cfg, DecodeOptions(beam_width=50_000,
                                                          max_notes_per_syllable=1))
        from reference import syllable_deltas

        deltas = syllable_deltas(got.melody)
        assert deltas[3] == deltas[1]  # pair (3, 1); (2, 0) is unconstrained


class TestHardMode:
    def test_keyword_forced_onto_strong_beat(self, config):
        # second syllable is a keyword; only a half-bar first note lands it on
        # the strong beat 3 of 4/4
        lyr = parse_lyrics("ni3|W hao3|W,K .")
        vocab = small_vocab(durations=(1, 2), rests=False)
        got = beam_search_hard(
            lyr,
            UniformScorer(vocab),
            config,
            DecodeOptions(mode=DecodeMode.BEAM_HARD, beam_width=8,
                          max_notes_per_syllable=1,
                          active=frozenset({Aspect.RHYTHM})),
        )
        assert got.relaxation_steps == ()
        assert got.melody.tokens[0].duration == Fraction(2)

    def test_mask_rule_matches_hand_filter(self, config):
        # the two-note span of "ni3" matches its dipping tone only by falling,
        # and a rest in front of "hao3" pauses inside a word
        lyr = parse_lyrics("ni3|W hao3|I .")
        for second in (58, 65):
            shape_missed = second > 60
            for active in [frozenset(), frozenset(Aspect)] + [frozenset({a}) for a in Aspect]:
                tokens = (note(60, 1, True), note(second, 1, False))
                model = _EventModel(lyr, config, active, (4, 4), _clock((4, 4), tokens))
                state = _State()
                for token in tokens:
                    state = model.apply(state, token)
                plan = model.plan(state)
                tone_missed = shape_missed and Aspect.TONE in active
                # an event below its maximum masks only when its aspect is active
                assert plan.end[1] == tone_missed, (second, active)
                assert plan.rest[1] == (tone_missed or Aspect.RHYTHM in active), (second, active)

    def test_relaxation_recorded_when_nothing_satisfies(self, config):
        # a single harmony cell that only accepts jumps the vocab cannot make
        from lyricmelody.rewards import HarmonyDegree, HarmonyTable
        impossible = HarmonyTable(
            {pair: ((-24, -20, HarmonyDegree.EXCELLENT), (0, 0, HarmonyDegree.BAD))
             for pair in config.harmony_table.cells}
        )
        cfg = replace(config, harmony_table=impossible)
        lyr = parse_lyrics("ni3|W hao3|I .")
        got = beam_search_hard(
            lyr,
            UniformScorer(small_vocab()),
            cfg,
            DecodeOptions(mode=DecodeMode.BEAM_HARD, beam_width=4,
                          max_notes_per_syllable=1,
                          active=frozenset({Aspect.TONE})),
        )
        assert got.relaxation_steps  # decoding continued anyway
        assert got.melody.syllable_count == 2

    def test_hard_beats_soft_on_rewards_without_relaxation(self, config):
        lyr = parse_lyrics("ni3|W,K hao3|W,A tian1|W,K .")
        vocab = small_vocab(pitches=(60, 62, 64), durations=(1, 2), rests=False)
        options = dict(beam_width=6, max_notes_per_syllable=1)
        soft = beam_search(lyr, UniformScorer(vocab), config,
                           DecodeOptions(**options))
        hard = beam_search_hard(lyr, UniformScorer(vocab), config,
                                DecodeOptions(mode=DecodeMode.BEAM_HARD, **options))
        if not hard.relaxation_steps:
            assert hard.reward_total >= soft.reward_total - 1e-9


class TestSampling:
    @pytest.fixture
    def trained(self, rng):
        corpus = [random_training_melody(rng, pitch_range=(60, 64),
                                         durations=[Fraction(1), Fraction(2)])
                  for _ in range(10)]
        return train_ngram(corpus, order=2)

    def test_same_seed_same_melody(self, config, trained):
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W .")
        options = DecodeOptions(mode=DecodeMode.SAMPLE, seed=11, top_k=4, temperature=1.2)
        a = sample(lyr, trained, config, options)
        b = sample(lyr, trained, config, options)
        assert a.melody == b.melody

    def test_different_seeds_eventually_differ(self, config, trained):
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W kong1|I .")
        melodies = {
            sample(lyr, trained, config,
                   DecodeOptions(mode=DecodeMode.SAMPLE, seed=s, top_k=6,
                                 temperature=2.0)).melody.tokens
            for s in range(8)
        }
        assert len(melodies) > 1

    def test_tiny_temperature_is_greedy(self, config, rng):
        # melisma/rest-free corpus: ending is the per-step argmax exactly where
        # the lyrics run out, so myopic sampling and a width-1 beam coincide
        corpus = [
            random_training_melody(rng, pitch_range=(60, 64),
                                   durations=[Fraction(1), Fraction(2)],
                                   rest_probability=0.0, melisma_probability=0.0)
            for _ in range(10)
        ]
        trained = train_ngram(corpus, order=2)
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W .")
        greedy = sample(
            lyr, trained, config,
            DecodeOptions(mode=DecodeMode.SAMPLE, seed=0, top_k=5, temperature=0.01),
        )
        width1 = beam_search(lyr, trained, config, DecodeOptions(beam_width=1))
        assert greedy.melody == width1.melody

    def test_top_k_one_ignores_temperature(self, config, trained):
        lyr = parse_lyrics("ni3|W,K hao3|I .")
        hot = sample(lyr, trained, config,
                     DecodeOptions(mode=DecodeMode.SAMPLE, seed=1, top_k=1, temperature=5.0))
        cold = sample(lyr, trained, config,
                      DecodeOptions(mode=DecodeMode.SAMPLE, seed=2, top_k=1, temperature=0.01))
        assert hot.melody == cold.melody

    def test_top_k_clamped_with_warning(self, config, trained):
        # one warning per decode, however many candidates rerank samples, and
        # it names the line that called the public function, not the
        # decoder's own dispatch
        lyr = parse_lyrics("ni3|W .")
        for call, mode in [(sample, DecodeMode.SAMPLE), (rerank, DecodeMode.RERANK),
                           (decode, DecodeMode.SAMPLE), (decode, DecodeMode.RERANK)]:
            options = DecodeOptions(mode=mode, seed=0, top_k=10_000, rerank_candidates=3)
            with pytest.warns(UserWarning, match="clamp") as record:
                call(lyr, trained, config, options)
            assert [w.filename for w in record] == [__file__], (call, mode)


    def test_end_wins_score_ties(self, config):
        # all candidates tie; END's key is its parent's, a prefix of every
        # sibling's, so top-1 sampling ends the melody as soon as it may
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W .")
        scorer = UniformScorer(small_vocab(continuations=True))
        options = DecodeOptions(mode=DecodeMode.SAMPLE, top_k=1, active=frozenset())
        got = sample(lyr, scorer, config, options)
        assert len(got.melody.tokens) == len(lyr)


class TestRerank:
    def test_one_candidate_equals_unconstrained_sample(self, config, rng):
        scorer = train_ngram([random_training_melody(rng) for _ in range(6)], order=2)
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W .")
        options = DecodeOptions(mode=DecodeMode.RERANK, rerank_candidates=1, seed=5)
        unconstrained = sample(
            lyr, scorer, config,
            DecodeOptions(mode=DecodeMode.SAMPLE, seed=5, active=frozenset()),
        )
        assert rerank(lyr, scorer, config, options).melody == unconstrained.melody

    def test_picks_argmax_of_its_candidates(self, config, rng):
        scorer = train_ngram([random_training_melody(rng) for _ in range(6)], order=2)
        lyr = parse_lyrics("ni3|W,K hao3|I .")
        options = DecodeOptions(mode=DecodeMode.RERANK, rerank_candidates=6, seed=9)
        got = rerank(lyr, scorer, config, options)
        # regenerate the same candidate stream and rescore independently
        free = DecodeOptions(mode=DecodeMode.SAMPLE, seed=9, active=frozenset())
        rng2 = random.Random(9)
        from lyricmelody.decoder import _Context, _grammar, _sample_run

        ctx = _Context(lyr, config, free, frozenset(), scorer.vocab.tokens)
        best = None
        for _ in range(6):
            h = _sample_run(ctx, _grammar(ctx, scorer), rng2, free.top_k)
            melody_tokens = tuple(t for t in h.tokens if t != END)
            from lyricmelody import Melody

            _, _, score = score_decode(lyr, Melody(melody_tokens), scorer, config)
            if best is None or score > best:
                best = score
        assert got.score == pytest.approx(best, abs=1e-9)

    def test_reward_weighs_the_active_aspects_only(self, config, rng):
        scorer = train_ngram([random_training_melody(rng) for _ in range(6)], order=2)
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W,A .\nni3|W,K hao3|I tian1|W,A ?")
        differs = 0
        for active in [frozenset(), *(frozenset({aspect}) for aspect in Aspect)]:
            options = DecodeOptions(mode=DecodeMode.RERANK, rerank_candidates=4, seed=3,
                                    active=active)
            got = rerank(lyr, scorer, config, options)
            want = score_rewards(lyr, got.melody, config, active).total
            assert got.reward_total.hex() == want.hex(), active
            differs += want != score_rewards(lyr, got.melody, config).total
        assert differs == 4  # every restricted set leaves some reward out

    @pytest.mark.filterwarnings("ignore:top_k")
    def test_bounded_by_exhaustive_argmax(self, config):
        lyr = parse_lyrics("ni3|W hao3|I .")
        scorer = UniformScorer(small_vocab())
        options = DecodeOptions(mode=DecodeMode.RERANK, rerank_candidates=4, seed=2,
                                max_notes_per_syllable=1)
        got = rerank(lyr, scorer, config, options)
        best_score, _, _ = exhaustive_argmax(lyr, scorer, config, options.active, 1)
        assert got.score <= best_score + 1e-9


class TestTwoStage:
    @pytest.fixture
    def bundle(self, rng):
        corpus = [random_training_melody(rng, pitch_range=(60, 65),
                                         durations=[Fraction(1), Fraction(2)])
                  for _ in range(12)]
        return train_model_bundle(corpus, order=2)

    def test_reports_the_beam_mode_it_ran(self, config, bundle):
        # a direct call runs beam search whatever mode its options name
        lyr = parse_lyrics("ni3|W,K hao3|I .")
        for mode in DecodeMode:
            result = decode_two_stage(lyr, bundle.rhythm_model, bundle.pitch_model, config,
                                      DecodeOptions(mode=mode, beam_width=2))
            assert result.mode is DecodeMode.TWO_STAGE

    def test_stage_two_preserves_rhythm(self, config, bundle):
        lyr = parse_lyrics("ni3|W,K hao3|I .\ntian1|W kong1|I ?")
        result = decode_two_stage(lyr, bundle.rhythm_model, bundle.pitch_model,
                                  config, DecodeOptions(beam_width=3))
        # re-decode the rhythm stage alone and compare the rhythm projection
        from lyricmelody.decoder import _beam, _Context, _grammar

        ctx = _Context(lyr, config, DecodeOptions(beam_width=3),
                       frozenset({Aspect.RHYTHM}), bundle.rhythm_model.vocab.tokens)
        best, _ = _beam(ctx, _grammar(ctx, bundle.rhythm_model), 3, hard=False)
        from lyricmelody.scorer import rhythm_sequence

        assert rhythm_sequence(result.melody)[:-1] == tuple(
            t for t in best.tokens if t != END
        )

    def test_score_reconstructable(self, config, bundle):
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W .")
        result = decode_two_stage(lyr, bundle.rhythm_model, bundle.pitch_model,
                                  config, DecodeOptions(beam_width=3))
        _, _, score = score_two_stage(lyr, result.melody, bundle.rhythm_model,
                                      bundle.pitch_model, config)
        assert score == pytest.approx(result.score, abs=1e-9)

    def test_one_fold_scores_both_stages(self, config, bundle):
        """The stage rewards come from one fold, and equal two
        ``score_rewards`` calls, one per stage's aspects, to the last bit."""

        stages = (frozenset({Aspect.RHYTHM}), frozenset({Aspect.TONE, Aspect.STRUCTURE}))
        actives = [frozenset(Aspect), frozenset({Aspect.TONE, Aspect.RHYTHM}),
                   frozenset({Aspect.STRUCTURE})]
        rng = random.Random(20261022)
        for case in range(24):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 2), tonal=case % 2 == 0,
                                repeat=case % 4 < 2)
            cfg = config.with_lambdas((1.1, 0.7, 1.3)) if case % 3 else config
            melody = decode_two_stage(lyr, bundle.rhythm_model, bundle.pitch_model, cfg,
                                      DecodeOptions(beam_width=2)).melody
            for active in actives:
                _, reward, _ = score_two_stage(lyr, melody, bundle.rhythm_model,
                                               bundle.pitch_model, cfg, active)
                rhythm, pitch = (score_rewards(lyr, melody, cfg, stage & active).total
                                 for stage in stages)
                assert reward.hex() == (rhythm + pitch).hex(), (case, active)

    def test_zero_rhythm_weight_gives_unconstrained_skeleton(self, config, bundle):
        # with the rhythm reward weight at zero, stage 1 is plain beam search
        # over the rhythm model
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W .")
        cfg = config.with_lambdas((1.2, 0.0, 1.0))
        result = decode_two_stage(lyr, bundle.rhythm_model, bundle.pitch_model,
                                  cfg, DecodeOptions(beam_width=3))
        from lyricmelody.scorer import rhythm_sequence

        want = plain_beam_search(lyr, bundle.rhythm_model, width=3)
        assert rhythm_sequence(result.melody)[:-1] == want

    @pytest.mark.parametrize("meter", [(4, 4), (3, 4), (6, 8)])
    @pytest.mark.parametrize("width", [1, 3])
    def test_matches_reference_pipeline(self, config, bundle, meter, width):
        """Both stages on one ``_beam`` give the tokens and the bits of the
        old pitch-filling loop over a rhythm skeleton; the uniform pitch
        model with rewards off makes every completion tie, so the END step's
        tie-break decides there."""
        from reference import reference_decode_two_stage

        uniform = UniformScorer(bundle.pitch_model.vocab)
        rng = random.Random(20261018 + width)
        for case in range(16):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 2), tonal=case % 2 == 0,
                                repeat=case % 4 < 2)
            cfg = config.with_preset("off") if case % 8 >= 6 else config
            pitch_scorer = uniform if case % 8 >= 4 else bundle.pitch_model
            options = DecodeOptions(beam_width=width, time_signature=meter,
                                    max_notes_per_syllable=2)
            got = decode_two_stage(lyr, bundle.rhythm_model, pitch_scorer, cfg, options)
            want = reference_decode_two_stage(lyr, bundle.rhythm_model, pitch_scorer, cfg,
                                              options)
            assert two_stage_bits(got) == two_stage_bits(want), case

    def test_rest_in_the_skeleton_gets_a_rest_slot(self, config):
        """A rhythm model that rests often puts a rest into the skeleton of a
        two-sentence sheet, and stage 2 keeps it in a forced rest slot, to
        the bits of the reference pipeline."""
        from reference import reference_decode_two_stage

        rng = random.Random(20261019)
        corpus = [random_training_melody(rng, pitch_range=(60, 65), rest_probability=0.5,
                                         durations=[Fraction(1), Fraction(2)])
                  for _ in range(12)]
        bundle = train_model_bundle(corpus, order=2)
        lyr = parse_lyrics("ni3|W,K hao3|I .\ntian1|W kong1|I .")
        for width in (1, 2, 3):
            options = DecodeOptions(beam_width=width)
            got = decode_two_stage(lyr, bundle.rhythm_model, bundle.pitch_model, config, options)
            want = reference_decode_two_stage(lyr, bundle.rhythm_model, bundle.pitch_model,
                                              config, options)
            assert any(not t.is_note for t in got.melody.tokens), width
            assert two_stage_bits(got) == two_stage_bits(want), width

    def test_forced_rhythm_collapses_to_single_stage(self, config):
        # one rhythm option per step -> both pipelines reduce to pitch choice
        lyr = parse_lyrics("ni3|W hao3|I .")
        pitches = (60, 62, 64)
        melody_vocab = Vocabulary.build(
            "melody", [note(p, 1, True) for p in pitches]
        )
        rhythm_vocab = Vocabulary.build("rhythm", [RhythmToken(TokenKind.NOTE, Fraction(1), True)])
        pitch_vocab = Vocabulary.build("pitch", list(pitches))
        options = DecodeOptions(beam_width=50_000, max_notes_per_syllable=1)
        single = beam_search(lyr, UniformScorer(melody_vocab), config, options)
        double = decode_two_stage(
            lyr,
            UniformScorer(rhythm_vocab),
            UniformScorer(pitch_vocab),
            config,
            options,
        )
        assert single.melody == double.melody


class TestVocabularyCoverage:
    """A scorer vocabulary that cannot cover the lyrics is a TrainingError,
    whichever decoder is handed it."""

    LYRICS = "ni3|W hao3|I .\ntian1|W kong1|I ."

    @pytest.mark.parametrize("fn", [beam_search, beam_search_hard, sample, rerank])
    def test_no_syllable_start(self, config, fn):
        scorer = UniformScorer(Vocabulary.build("melody", [note(60, 1, False), rest(1)]))
        with pytest.raises(TrainingError, match="syllable-start"):
            fn(parse_lyrics(self.LYRICS), scorer, config, DecodeOptions())

    @pytest.mark.parametrize("rhythm, pitch, match", [
        ([RhythmToken(TokenKind.NOTE, Fraction(1), False), RhythmToken(TokenKind.REST, Fraction(1))],
         [60, "R"], "syllable-start"),
        ([RhythmToken(TokenKind.NOTE, Fraction(1), True), RhythmToken(TokenKind.REST, Fraction(1))],
         ["R"], "no pitch"),
        # the pause reward puts a rest at the sentence boundary
        ([RhythmToken(TokenKind.NOTE, Fraction(1), True), RhythmToken(TokenKind.REST, Fraction(1))],
         [60], "rest mark"),
    ])
    def test_two_stage(self, config, rhythm, pitch, match):
        rhythm_scorer = UniformScorer(Vocabulary.build("rhythm", rhythm))
        pitch_scorer = UniformScorer(Vocabulary.build("pitch", pitch))
        with pytest.raises(TrainingError, match=match):
            decode_two_stage(parse_lyrics(self.LYRICS), rhythm_scorer, pitch_scorer, config,
                             DecodeOptions())


class TestInvariants:
    def test_score_consistency_across_modes(self, config, rng):
        scorer = train_ngram([random_training_melody(rng) for _ in range(8)], order=2)
        lyr = parse_lyrics("ni3|W,K hao3|I .\nni3|W,K hao3|I .")
        for options in [
            DecodeOptions(beam_width=3),
            DecodeOptions(mode=DecodeMode.BEAM_HARD, beam_width=3),
            DecodeOptions(mode=DecodeMode.SAMPLE, seed=4),
            DecodeOptions(mode=DecodeMode.RERANK, rerank_candidates=3, seed=4),
        ]:
            result = decode(lyr, scorer, config, options)
            base, rew, score = score_decode(lyr, result.melody, scorer, config)
            assert score == pytest.approx(result.score, abs=1e-9), options.mode
            assert base == pytest.approx(result.base_logprob, abs=1e-9)
            assert rew == pytest.approx(result.reward_total, abs=1e-9)

    def test_wider_beam_never_worse(self, config, rng):
        for _ in range(12):
            lyr = random_lyrics(rng, sentences=1)
            scorer = train_ngram(
                [random_training_melody(rng, pitch_range=(60, 63),
                                        durations=[Fraction(1)])
                 for _ in range(4)],
                order=2,
            )
            scores = [
                beam_search(lyr, scorer, config,
                            DecodeOptions(beam_width=w, max_notes_per_syllable=2)).score
                for w in (1, 2, 4, 8)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:])), scores

    def test_lambda_gating_ignores_inactive_weights(self, config, rng):
        scorer = train_ngram([random_training_melody(rng) for _ in range(6)], order=2)
        lyr = parse_lyrics("ni3|W,K hao3|I tian1|W .")
        tone_only = frozenset({Aspect.TONE})
        a = beam_search(lyr, scorer, config.with_lambdas((1.2, 1.5, 1.0)),
                        DecodeOptions(beam_width=3, active=tone_only))
        b = beam_search(lyr, scorer, config.with_lambdas((1.2, 99.0, 42.0)),
                        DecodeOptions(beam_width=3, active=tone_only))
        assert a.melody == b.melody
        assert a.score == b.score

    def test_option_validation(self, config, tiny_lyrics, uniform_scorer):
        with pytest.raises(OptionError, match="two-stage decoding needs rhythm and pitch scorers"):
            decode(tiny_lyrics, uniform_scorer, config, DecodeOptions(mode=DecodeMode.TWO_STAGE))
        with pytest.raises(OptionError):
            DecodeOptions(beam_width=0)
        with pytest.raises(OptionError):
            DecodeOptions(temperature=0.0)
        with pytest.raises(OptionError):
            DecodeOptions(top_k=0)
        with pytest.raises(OptionError):
            DecodeOptions(rerank_candidates=0)
        with pytest.raises(OptionError):
            DecodeOptions(max_notes_per_syllable=0)

    @pytest.mark.parametrize("meter", [(4, 6), (3, 12), (0, 4), (4, 0), (-2, 4), (300, 4),
                                       (4.0, 4), (True, 4), (4, 4.0)])
    def test_bad_time_signature_rejected(self, meter):
        with pytest.raises(OptionError):
            DecodeOptions(time_signature=meter)

    # each of these used to build, or to raise a bare TypeError, KeyError or
    # nothing until beam_search, sample or decode misread it
    @pytest.mark.parametrize("name, value", [
        ("beam_width", 2.5), ("beam_width", True), ("top_k", "3"), ("top_k", None),
        ("rerank_candidates", True), ("max_notes_per_syllable", 1.5),
        ("temperature", math.nan), ("temperature", math.inf), ("temperature", True),
        ("temperature", "0.5"), ("mode", "beam"), ("mode", None),
        ("active", {"tone"}), ("active", [Aspect.TONE]), ("active", "tone"),
        ("time_signature", 4), ("time_signature", (4,)), ("time_signature", None),
    ])
    def test_ill_typed_option_rejected(self, name, value):
        with pytest.raises(OptionError, match=name):
            DecodeOptions(**{name: value})

    @pytest.mark.parametrize("decoder", [beam_search, rerank])
    def test_bad_meter_never_decodes(self, decoder, config, tiny_lyrics, uniform_scorer):
        # beam search used to return a 4/6 melody that write_midi refuses,
        # and rerank to fail later with a plain ValueError from the fold
        with pytest.raises(OptionError, match="4/6"):
            decoder(tiny_lyrics, uniform_scorer, config, DecodeOptions(time_signature=(4, 6)))

    def test_list_meter_decodes_as_the_tuple(self, config, tiny_lyrics, uniform_scorer):
        # a list meter used to lose beat 3 of 4/4 and so decode other rewards
        lyr = parse_lyrics("ni3|W,K hao3|I,A tian1|W,K qi4|I .")
        for lyrics in (tiny_lyrics, lyr):
            got, want = (beam_search(lyrics, uniform_scorer, config,
                                     DecodeOptions(time_signature=meter))
                         for meter in ([4, 4], (4, 4)))
            assert got.melody.tokens == want.melody.tokens
            assert got.score.hex() == want.score.hex()

    def test_list_meter_options_hash_as_the_tuple(self):
        # a list meter is stored as a tuple, so the options stay hashable
        as_list, as_tuple = (DecodeOptions(time_signature=meter) for meter in ([3, 4], (3, 4)))
        assert as_list == as_tuple and hash(as_list) == hash(as_tuple)

    def test_set_active_options_hash_as_the_frozenset(self):
        # a set is stored as a frozenset: it used to raise "unhashable type: 'set'"
        as_set, as_frozen = (DecodeOptions(active=kind({Aspect.TONE})) for kind in (set, frozenset))
        assert type(as_set.active) is frozenset
        assert as_set == as_frozen and hash(as_set) == hash(as_frozen)

    def test_options_keep_their_aspects_when_the_callers_set_changes(self):
        active = {Aspect.TONE}
        options = DecodeOptions(active=active)
        active.add(Aspect.RHYTHM)
        assert options.active == {Aspect.TONE}

    def test_scorers_swap_without_decoder_changes(self, config, rng):
        # the log-prob interface is the only coupling point
        corpus = [random_training_melody(rng, pitch_range=(60, 63),
                                         durations=[Fraction(1)]) for _ in range(4)]
        ngram = train_ngram(corpus, order=2)
        uniform = UniformScorer(ngram.vocab)
        lyr = parse_lyrics("ni3|W,K hao3|I .")
        options = DecodeOptions(beam_width=3)
        for scorer in (ngram, uniform):
            result = beam_search(lyr, scorer, config, options)
            assert result.melody.syllable_count == len(lyr)
            _, _, score = score_decode(lyr, result.melody, scorer, config)
            assert score == pytest.approx(result.score, abs=1e-9)


class TestScoreFirstBeamMatchesReference:
    """The score-first ``_beam`` against ``reference.reward_beam_search``,
    which builds every candidate before it cuts the beam: the same tokens and
    key, the same bits of ``base`` and ``reward``, the same relaxation steps."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(4111)
        corpus = [random_training_melody(rng, pitch_range=(60, 66),
                                         durations=[Fraction(1), Fraction(2)])
                  for _ in range(10)]
        bundle = train_model_bundle(corpus, order=2)
        sheets = [random_lyrics(rng, sentences=rng.randint(1, 2), repeat=i % 2 == 0)
                  for i in range(3)]
        return bundle, sheets

    @staticmethod
    def check(ctx, scorer, width, hard):
        from lyricmelody.decoder import _beam, _grammar
        from reference import reward_beam_search

        got, got_relaxed = _beam(ctx, _grammar(ctx, scorer), width, hard)
        want, want_relaxed = reward_beam_search(ctx, scorer, width, hard)
        assert got.tokens == want.tokens and got.key == want.key
        assert got.base.hex() == want.base.hex()
        assert got.reward.hex() == want.reward.hex()
        assert got_relaxed == want_relaxed
        return got_relaxed

    @pytest.mark.parametrize("preset", ["telemelody", "off"])
    @pytest.mark.parametrize("hard", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_melody_domain(self, config, cases, width, hard, preset):
        from lyricmelody.decoder import _Context

        bundle, sheets = cases
        cfg = config.with_preset(preset)
        options = DecodeOptions(beam_width=width, max_notes_per_syllable=2)
        for lyr in sheets:
            ctx = _Context(lyr, cfg, options, options.active, bundle.token_model.vocab.tokens)
            self.check(ctx, bundle.token_model, width, hard)

    @pytest.mark.parametrize("preset", ["telemelody", "off"])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_rhythm_domain_of_stage_one(self, config, cases, width, preset):
        from lyricmelody.decoder import _Context

        bundle, sheets = cases
        options = DecodeOptions(beam_width=width)
        for lyr in sheets:
            ctx = _Context(lyr, config.with_preset(preset), options, frozenset({Aspect.RHYTHM}),
                           bundle.rhythm_model.vocab.tokens)
            self.check(ctx, bundle.rhythm_model, width, hard=False)

    @pytest.mark.parametrize("preset", ["telemelody", "off"])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_uniform_scorer_ties_break_by_parent_rank_then_index(self, config, width, preset):
        # every base score ties, and under "off" every reward too, so the
        # (parent rank, index) tie-break alone picks the beam
        from lyricmelody.decoder import _Context

        scorer = UniformScorer(small_vocab(pitches=(60, 62, 64), durations=(1, 2),
                                           continuations=True))
        relaxed = []
        for text in ("ni3|W,K hao3|I tian1|W .", "ni3|W hao3|W,K .\nni3|W hao3|W,K ?"):
            lyr = parse_lyrics(text)
            options = DecodeOptions(beam_width=width, max_notes_per_syllable=2)
            ctx = _Context(lyr, config.with_preset(preset), options, options.active,
                           scorer.vocab.tokens)
            for hard in (False, True):
                relaxed.extend(self.check(ctx, scorer, width, hard))
        assert relaxed  # hard mode relaxed somewhere, so that path is compared too


    #: configs whose candidate sets are wide: more degrees or echoes pay in
    #: full, or every one does
    WIDE = {
        "good-as-excellent": {"transition_rewards": dict(zip(HarmonyDegree, (3.0, 3.0, 1.0, 0.0)))},
        "every-degree-tied": {"transition_rewards": dict.fromkeys(HarmonyDegree, 2.0)},
        "octave-as-exact": {"structure_reward_octave": 2.0},
        "exact-zero": {"structure_reward_exact": 0.0},
    }

    @pytest.mark.parametrize("wide", WIDE)
    def test_wide_and_empty_candidate_sets(self, monkeypatch, config, cases, wide):
        # beam-hard completes a start only at its plan's candidate pitches,
        # and the rest only on a step that relaxes; with wide sets, and with
        # the empty sets of plans masked before any pitch, it keeps what the
        # every-candidate beam keeps
        from lyricmelody.decoder import _Context

        sizes = []
        candidates = _EventModel.candidates

        def counted(self, st, plan):
            pitches = candidates(self, st, plan)
            sizes.append(None if pitches is None else len(pitches))
            return pitches

        monkeypatch.setattr(_EventModel, "candidates", counted)
        cfg = replace(config, **self.WIDE[wide])
        bundle, _ = cases
        rng = random.Random(4112)
        sheets = [random_lyrics(rng, sentences=rng.randint(1, 2), tonal=tonal, repeat=True)
                  for tonal in (True, True, True, False, False)]
        relaxed = 0
        for active, meter, lyr, width in itertools.product(
            [{Aspect.TONE}, {Aspect.RHYTHM}, {Aspect.STRUCTURE}, {Aspect.TONE, Aspect.STRUCTURE}],
            [(3, 4), (6, 8)], sheets, [1, 2, 4],
        ):
            options = DecodeOptions(beam_width=width, max_notes_per_syllable=2,
                                    time_signature=meter)
            ctx = _Context(lyr, cfg, options, frozenset(active), bundle.token_model.vocab.tokens)
            relaxed += bool(self.check(ctx, bundle.token_model, width, hard=True))
        assert relaxed  # deferred starts were completed on relaxing steps
        assert 0 in sizes and max(size or 0 for size in sizes) > 3, wide


class TestHardBeamWithoutRelaxation:
    """A beam-hard decode that records no relaxation kept unmasked moves
    only, so every active event it fires on a token pays its maximum.  END
    is never masked, so the events ``reward_events`` tags ``None`` are
    exempt."""

    def test_fires_only_maximal_active_events(self, config):
        rng = random.Random(4113)
        bundle = train_model_bundle([random_training_melody(rng) for _ in range(8)], order=2)
        aspect_sets = [frozenset({aspect}) for aspect in Aspect] + [frozenset(Aspect)]
        violations, checked, unrelaxed = [], 0, 0
        for k in range(20):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=k % 2 == 0,
                                repeat=k % 4 < 2)
            cfg = config.with_preset(("telemelody", "songmass")[k % 2])
            for meter, active in itertools.product([(4, 4), (3, 4), (6, 8)], aspect_sets):
                options = DecodeOptions(mode=DecodeMode.BEAM_HARD, time_signature=meter,
                                        active=active)
                result = decode(lyr, bundle.token_model, cfg, options)
                if result.relaxation_steps:
                    continue
                unrelaxed += 1
                for at, ev in reward_events(lyr, result.melody, cfg):
                    if at is not None and ev.aspect in active:
                        checked += 1
                        if not ev.is_maximal:
                            violations.append((k, meter, sorted(a.value for a in active), at, ev))
        assert unrelaxed and checked  # some decodes never relaxed, and fired events
        assert violations == []


class TestTiesAtTheBar:
    """With every log-probability equal, a step's moves tie in whole
    classes, so many moves sit exactly at the bar (the ``width``-th best
    class bound) that prunes the rest; ties there are kept and broken by
    key, so each mode equals its every-candidate reference token for token
    with widths and ``top_k`` below the tied pool."""

    TEXTS = ("ni3|W,K hao3|I tian1|W .", "ni3|W hao3|W,K .\nni3|W hao3|W,K ?")

    @staticmethod
    def scorer():
        return UniformScorer(small_vocab(pitches=(60, 62, 64), durations=(1, 2),
                                         continuations=True))

    @pytest.mark.parametrize("preset", ["off", "telemelody"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_beam_modes_equal_the_every_candidate_beam(self, config, width, preset):
        from lyricmelody.decoder import _Context
        from reference import reward_beam_search

        scorer, cfg = self.scorer(), config.with_preset(preset)
        options = DecodeOptions(beam_width=width, max_notes_per_syllable=2)
        for text in self.TEXTS:
            lyr = parse_lyrics(text)
            ctx = _Context(lyr, cfg, options, options.active, scorer.vocab.tokens)
            for call, hard in ((beam_search, False), (beam_search_hard, True)):
                got = call(lyr, scorer, cfg, options)
                want, relaxed = reward_beam_search(ctx, scorer, width, hard)
                assert got.melody.tokens == want.tokens[:-1], (text, hard)
                assert (got.base_logprob.hex(), got.reward_total.hex(), got.relaxation_steps) \
                    == (want.base.hex(), want.reward.hex(), relaxed), (text, hard)

    @pytest.mark.parametrize("preset", ["off", "telemelody"])
    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_sample_equals_the_sorted_every_candidate_top_k(self, config, top_k, preset):
        from lyricmelody.decoder import _Context
        from reference import reference_sample

        scorer, cfg = self.scorer(), config.with_preset(preset)
        for text, seed in itertools.product(self.TEXTS, range(4)):
            lyr = parse_lyrics(text)
            options = DecodeOptions(mode=DecodeMode.SAMPLE, top_k=top_k, seed=seed,
                                    temperature=2.0, max_notes_per_syllable=2)
            ctx = _Context(lyr, cfg, options, options.active, scorer.vocab.tokens)
            got = sample(lyr, scorer, cfg, options)
            want = reference_sample(ctx, scorer, random.Random(seed), top_k)
            assert got.melody.tokens == want.tokens[:-1], (text, seed)
            assert (got.base_logprob.hex(), got.reward_total.hex()) \
                == (want.base.hex(), want.reward.hex()), (text, seed)


class TiedTable:
    """A scorer that hands out one model table for every context, every
    log-probability equal: the decoder keeps its maxima on it, so its
    continuation moves are walked ranked, and ties are whole classes."""

    def __init__(self, vocab):
        self.vocab = vocab
        self.tables = [_Table(dict.fromkeys(vocab.tokens, -math.log(len(vocab))))]

    def log_prob_dist(self, context):
        return self.tables[len(context) % len(self.tables)]


class NearTies(TiedTable):
    """Three live tables, by context length, equal but for the continuations'
    log-probabilities: one ulp of a table's value apart, rotated so that a
    higher one sits at a later vocabulary index, and less than half an ulp of
    a running base from the third step on, so distinct log-probabilities round
    to one score and the walk meets ties out of vocabulary order."""

    def __init__(self, vocab):
        super().__init__(vocab)
        lp = self.tables[0][END]
        tokens = [t for t in vocab.tokens if t != END and t.is_note and not t.syllable_start]
        self.tables = [_Table(self.tables[0]) for _ in range(3)]
        for shift, table in enumerate(self.tables):
            for j, token in enumerate(tokens):
                table[token] = lp + (j + shift) % len(tokens) * math.ulp(lp)


class TestTiesThroughTheWalk(TestTiesAtTheBar):
    """The tie tests on a live, fully tied table: its continuation moves are
    walked best first and stop after the ``width``-th (``top_k``-th) entry,
    ties with it included, and ties still break by key."""

    @staticmethod
    def scorer():
        return TiedTable(small_vocab(pitches=(60, 62, 64), durations=(1, 2), continuations=True))

    def test_the_walk_ranks_the_live_tables(self, config):
        from lyricmelody.decoder import _group_vocab

        scorer = self.scorer()
        for text in self.TEXTS:
            beam_search(parse_lyrics(text), scorer, config, DecodeOptions(max_notes_per_syllable=2))
        groups = _group_vocab(scorer.vocab)  # the decodes' groups, kept on the vocabulary
        assert all(table.derived[0] is groups for table in scorer.tables)
        assert any(table.derived[2] for table in scorer.tables)  # the decodes walked some


class TestNearTiesThroughTheWalk(TestTiesThroughTheWalk):
    """The tie tests on :class:`NearTies`: a walk that stopped at exactly its
    ``n``-th entry would keep a higher log-probability at a later index over
    a tied score at an earlier one."""

    @staticmethod
    def scorer():
        return NearTies(small_vocab(pitches=(60, 62, 64), durations=(1, 2), continuations=True))

    def test_distinct_log_probabilities_round_to_one_score(self):
        scorer = self.scorer()
        for table in scorer.tables:
            values = set(table.values())
            base = 3 * table[END]  # a running base at the third step
            assert len(values) == 6 and len({base + lp for lp in values}) < len(values)


class NearStartTies(NearTies):
    """:class:`NearTies` with the start moves' log-probabilities spread the
    same way, so the walk of every start as one class meets ties out of
    vocabulary order too."""

    def __init__(self, vocab):
        super().__init__(vocab)
        lp = self.tables[0][END]
        tokens = [t for t in vocab.tokens if t != END and t.is_note and t.syllable_start]
        for shift, table in enumerate(self.tables):
            for j, token in enumerate(tokens):
                table[token] = lp + (j + shift) % len(tokens) * math.ulp(lp)


#: stress-accent sheets: no harmony cell, so a start plan with no structure
#: partner pays every pitch alike, and its starts are walked as one list
STRESS_TEXTS = ("sun'|W,K rise|W sky'|W .", "sun|W rise'|W,K .\nsun|W rise'|W,K ?")


class TestTiesThroughTheStartWalk(TestTiesThroughTheWalk):
    """The walk's tie tests on stress-accent sheets."""

    TEXTS = STRESS_TEXTS

    def test_the_walk_ranks_the_start_lists(self, config):
        scorer = self.scorer()
        for text in self.TEXTS:
            beam_search(parse_lyrics(text), scorer, config, DecodeOptions(max_notes_per_syllable=2))
        assert any(table.derived[3] for table in scorer.tables)  # the decodes walked some


class TestNearTiesThroughTheStartWalk(TestNearTiesThroughTheWalk):
    """The near-tie tests on stress-accent sheets, with the start moves' log-probabilities spread too."""

    TEXTS = STRESS_TEXTS
    test_the_walk_ranks_the_start_lists = TestTiesThroughTheStartWalk.test_the_walk_ranks_the_start_lists

    @staticmethod
    def scorer():
        return NearStartTies(small_vocab(pitches=(60, 62, 64), durations=(1, 2), continuations=True))


@pytest.fixture
def no_aspect(monkeypatch):
    """The options the tests build have no aspect active, as in rerank's sampling."""
    monkeypatch.setitem(globals(), "DecodeOptions", functools.partial(DecodeOptions, active=frozenset()))


@pytest.mark.usefixtures("no_aspect")
class TestTiesThroughTheWalkWithNoAspect(TestTiesThroughTheWalk):
    """The walk's tie tests with no aspect active: every move keeps its parent's reward."""


@pytest.mark.usefixtures("no_aspect")
class TestNearTiesThroughTheWalkWithNoAspect(TestNearTiesThroughTheWalk):
    """The near-tie tests with no aspect active."""


class TestEventSignature:
    """Tokens with equal ``_EventModel.signature`` fire equal events
    (``reference.step_events``) from any state reached by folding a melody,
    in both token domains."""

    @staticmethod
    def violations(events_of, domain, active, config, seed=7):
        from lyricmelody.decoder import _Context, _group_vocab
        from lyricmelody.scorer import rhythm_projection, vocabulary_from_corpus

        rng = random.Random(seed)
        found, shared = [], 0
        for _ in range(12):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), repeat=rng.random() < 0.5)
            melodies = [random_aligned_melody(lyr, rng) for _ in range(2)]
            vocab = vocabulary_from_corpus(melodies)
            if domain == "rhythm":
                vocab = Vocabulary.build("rhythm", map(rhythm_projection, vocab.tokens[:-1]))
            groups = _group_vocab(vocab)
            ctx = _Context(lyr, config, DecodeOptions(), active, vocab.tokens)
            for melody in melodies:
                state = _State()
                tokens = melody.tokens
                if domain == "rhythm":
                    tokens = tuple(map(rhythm_projection, tokens))
                for token in tokens + (None,):
                    by_signature = {}
                    for sig, cand in [(sig, t) for sig, cls, _ in ctx.legal(state, groups)
                                      for _, t, _ in cls]:
                        events = events_of(ctx, state, cand)
                        if sig in by_signature:
                            shared += 1
                            if by_signature[sig][1] != events:
                                found.append((by_signature[sig][0], cand))
                        else:
                            by_signature[sig] = (cand, events)
                    if token is not None:
                        state = ctx.apply(state, token)
        assert shared  # tokens that differ only in duration were compared
        return found

    @staticmethod
    def reads_duration(model, st, token):
        """The events of a broken rule set that reads a token's duration."""
        events = step_events(model, st, token)
        if token != END and token.duration >= 2:
            events = events + [RewardEvent("pause", Aspect.RHYTHM, 0.0, 1.0)]
        return events

    @pytest.mark.parametrize("domain, active", [
        ("melody", frozenset(Aspect)),
        ("rhythm", frozenset({Aspect.RHYTHM})),
    ])
    def test_equal_signature_equal_events(self, config, domain, active):
        assert self.violations(step_events, domain, active, config) == []

    @pytest.mark.parametrize("domain, active", [
        ("melody", frozenset(Aspect)),
        ("rhythm", frozenset({Aspect.RHYTHM})),
    ])
    def test_catches_events_that_read_duration(self, config, domain, active):
        assert self.violations(self.reads_duration, domain, active, config)


class TestOutputPin:
    """One SHA-256 over every decode mode's outputs on seeded sheets, widths
    1 and 3 and three meters: ``perfbench/golden.json`` decodes each mode
    once, on one sheet in 4/4.  The durations include triplets and dotted
    notes, so onsets fall between beats.  A change that is meant to alter
    outputs says so and rewrites the pin."""

    PIN = "fb96ce271b3a7479211da061f44b59d47fc545aa107afe4a718299206418154c"
    DURATIONS = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]

    def test_every_mode_width_and_meter(self, config):
        rng = random.Random(20261019)
        corpus = [random_training_melody(rng, durations=self.DURATIONS) for _ in range(8)]
        bundle = train_model_bundle(corpus, order=3)
        digest = hashlib.sha256()
        for k in range(8):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=k % 2 == 0,
                                repeat=k % 4 < 2)
            for mode, width, meter in itertools.product(DecodeMode, (1, 3),
                                                        [(4, 4), (3, 4), (6, 8)]):
                options = DecodeOptions(mode=mode, beam_width=width, time_signature=meter,
                                        rerank_candidates=4, seed=k)
                got = decode(lyr, bundle.token_model, config, options,
                             bundle.rhythm_model, bundle.pitch_model)
                digest.update(write_midi(got.melody, lyr))
                digest.update(repr((got.score, got.base_logprob, got.reward_total,
                                    got.relaxation_steps, got.stage_scores)).encode())
        assert digest.hexdigest() == self.PIN


class TestSamplingPin:
    """One SHA-256 over rerank's and sample's outputs at ``top_k`` 3, 5 and 40,
    in 4/4 over seeded sheets.  Rerank samples its candidates with no
    aspect active, so its sampling fires no event; the pin holds that path
    and the rewarded sampling to the same bytes and score bits."""

    PIN = "2ad5bb4966a5292b71cb9c779722438de8282fa730f21e8f4b4100734a28521c"

    def test_rerank_and_sample_at_three_widths(self, config):
        rng = random.Random(20261020)
        bundle = train_model_bundle([random_training_melody(rng) for _ in range(8)], order=3)
        digest = hashlib.sha256()
        for k in range(6):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=k % 2 == 0,
                                repeat=k % 3 < 2)
            for mode, top_k in itertools.product((DecodeMode.RERANK, DecodeMode.SAMPLE),
                                                 (3, 5, 40)):
                options = DecodeOptions(mode=mode, top_k=top_k, rerank_candidates=4, seed=k)
                got = decode(lyr, bundle.token_model, config, options)
                digest.update(write_midi(got.melody, lyr))
                digest.update(repr((got.score.hex(), got.base_logprob.hex(),
                                    got.reward_total.hex())).encode())
        assert digest.hexdigest() == self.PIN


class TestSharedRecordsStayUnchanged:
    """Decode states, plans and hypotheses are plain slots records that every
    hypothesis reaching them shares, and a vocabulary's clocks and a table's
    rankings are shared by every decode, so no code may write to one after
    it is built.  Each one's contents are taken when it is built and
    compared after seeded soft, hard and two-stage decodes."""

    def test_soft_hard_and_two_stage(self, monkeypatch, config):
        from lyricmelody import decoder, rewards

        def fields(record):  # a plan's cell is a list, an event-table row: copied
            return tuple(tuple(v) if type(v) is list else v
                         for v in map(record.__getattribute__, record.__slots__))

        def contents(shared):  # a clock, or a ranking: copied
            if type(shared) is list:
                return tuple(shared)
            scale, ticks, bar, strong = shared
            return scale, dict(ticks), bar, frozenset(strong)

        built, kept = [], []
        for cls in (rewards._State, rewards._Plan, decoder._Hypothesis):
            def init(self, *args, _real=cls.__init__, **kwargs):
                _real(self, *args, **kwargs)
                built.append((self, fields(self)))

            monkeypatch.setattr(cls, "__init__", init)

        def keep(build):
            def kept_build(*args, **kwargs):
                out = build(*args, **kwargs)
                if type(out) is tuple or isinstance(args[0], decoder._Ranked):
                    kept.append((out, contents(out)))
                return out
            return kept_build

        monkeypatch.setattr(decoder, "_clock", keep(decoder._clock))
        monkeypatch.setattr(decoder, "sorted", keep(sorted), raising=False)  # shadows the builtin
        rng = random.Random(20261021)
        bundle = train_model_bundle([random_training_melody(rng) for _ in range(6)], order=3)
        for k in range(3):
            lyr = random_lyrics(rng, sentences=2, tonal=k != 2, repeat=k < 2)
            for mode in (DecodeMode.BEAM_SOFT, DecodeMode.BEAM_HARD, DecodeMode.TWO_STAGE):
                decode(lyr, bundle.token_model, config, DecodeOptions(mode=mode, beam_width=3),
                       bundle.rhythm_model, bundle.pitch_model)
        assert {type(record) for record, _ in built} == {
            rewards._State, rewards._Plan, decoder._Hypothesis}
        changed = [(record, then) for record, then in built if fields(record) != then]
        assert changed == []
        assert {type(shared) for shared, _ in kept} == {tuple, list}  # clocks and rankings
        tables = [table for model in (bundle.token_model, bundle.rhythm_model)
                  for table in model._dist_cache.values() if hasattr(table, "derived")]
        assert any(table.derived[3] for table in tables)  # some starts were ranked as one
        changed = [(shared, then) for shared, then in kept if contents(shared) != then]
        assert changed == []


class ProtocolProxy:
    """A scorer with only the ``Scorer`` protocol's ``vocab`` and
    ``log_prob_dist``, forwarding to a model, as the benchmark's traced scorer
    does: it hands out the model's own tables."""

    def __init__(self, model):
        self.vocab = model.vocab
        self.model = model

    def log_prob_dist(self, context):
        return self.model.log_prob_dist(context)


class FreshDicts(ProtocolProxy):
    """A scorer that hands out a fresh plain dict per call, which takes no
    attribute, so the decoder keeps nothing on it."""

    def log_prob_dist(self, context):
        return dict(self.model.log_prob_dist(context))


class TestProtocolOnlyScorers:
    """The decoder reads a scorer through the protocol alone: every mode
    decodes through a bare proxy, or through fresh plain dicts, exactly as
    through the model itself."""

    @pytest.mark.parametrize("wrap", [ProtocolProxy, FreshDicts], ids=["proxy", "fresh dicts"])
    def test_every_mode_decodes_as_the_model(self, config, wrap):
        rng = random.Random(20261022)
        bundle = train_model_bundle([random_training_melody(rng) for _ in range(6)], order=3)
        models = (bundle.token_model, bundle.rhythm_model, bundle.pitch_model)
        wrapped = [wrap(model) for model in models]
        for k in range(4):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=k % 2 == 0,
                                repeat=k < 2)
            for mode in DecodeMode:
                options = DecodeOptions(mode=mode, beam_width=3, rerank_candidates=3, seed=k)
                want = decode(lyr, models[0], config, options, *models[1:])
                got = decode(lyr, wrapped[0], config, options, *wrapped[1:])
                for name in want.__match_args__:
                    assert repr(getattr(got, name)) == repr(getattr(want, name)), (k, mode, name)
