import random
from fractions import Fraction

import pytest

from lyricmelody import (
    Aspect,
    DecodeMode,
    DecodeOptions,
    OptionError,
    Pipeline,
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
)
from lyricmelody.rewards import RewardEvent, _EventModel, _State, reward_events
from lyricmelody.scorer import END
from lyricmelody.synthetic import random_aligned_melody, random_lyrics, random_training_melody
from reference import exhaustive_argmax, plain_beam_search, step_events

from conftest import mk_melody


def small_vocab(pitches=(60, 62), durations=(1,), continuations=False, rests=True):
    tokens = [note(p, d, True) for p in pitches for d in durations]
    if continuations:
        tokens += [note(p, d, False) for p in pitches for d in durations]
    if rests:
        tokens += [rest(d) for d in durations]
    return Vocabulary.build("melody", tokens)


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
                model = _EventModel(lyr, config, active, (4, 4))
                state = _State()
                for token in (note(60, 1, True), note(second, 1, False)):
                    state = model.apply(state, token)
                plan = model.plan(state)
                tone_missed = shape_missed and Aspect.TONE in active
                # an event below its maximum masks only when its aspect is active
                assert plan.end[1] == tone_missed, (second, active)
                assert plan.rest[1] == (tone_missed or Aspect.RHYTHM in active), (second, active)

    def test_relaxation_recorded_when_nothing_satisfies(self, config):
        # a single harmony cell that only accepts jumps the vocab cannot make
        from lyricmelody.rewards import HarmonyDegree, HarmonyTable
        from dataclasses import replace

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
        lyr = parse_lyrics("ni3|W .")
        with pytest.warns(UserWarning, match="clamp"):
            sample(lyr, trained, config,
                   DecodeOptions(mode=DecodeMode.SAMPLE, seed=0, top_k=10_000))


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
        from lyricmelody.decoder import _Context, _sample_run

        ctx = _Context(lyr, config, free, frozenset())
        best = None
        for _ in range(6):
            h = _sample_run(ctx, scorer, rng2, free.top_k)
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
            assert result.mode is DecodeMode.BEAM_SOFT

    def test_stage_two_preserves_rhythm(self, config, bundle):
        lyr = parse_lyrics("ni3|W,K hao3|I .\ntian1|W kong1|I ?")
        result = decode_two_stage(lyr, bundle.rhythm_model, bundle.pitch_model,
                                  config, DecodeOptions(beam_width=3))
        # re-decode the rhythm stage alone and compare the rhythm projection
        from lyricmelody.decoder import _beam, _Context, _grammar

        ctx = _Context(lyr, config, DecodeOptions(beam_width=3),
                       frozenset({Aspect.RHYTHM}))
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

        def bits(result):
            return (result.melody.tokens, result.score.hex(), result.base_logprob.hex(),
                    result.reward_total.hex(),
                    {stage: {k: v.hex() for k, v in parts.items()}
                     for stage, parts in result.stage_scores.items()})

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
            assert bits(got) == bits(want), case

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

    def test_option_validation(self):
        with pytest.raises(OptionError):
            DecodeOptions(beam_width=0)
        with pytest.raises(OptionError):
            DecodeOptions(temperature=0.0)
        with pytest.raises(OptionError):
            DecodeOptions(top_k=0)
        with pytest.raises(OptionError):
            DecodeOptions(rerank_candidates=0)

    @pytest.mark.parametrize("mode", [DecodeMode.BEAM_HARD, DecodeMode.SAMPLE, DecodeMode.RERANK])
    def test_two_stage_runs_beam_only(self, mode):
        with pytest.raises(OptionError, match="two-stage decoding runs beam search only"):
            DecodeOptions(mode=mode, pipeline=Pipeline.TWO_STAGE)
        assert DecodeOptions(mode=mode).pipeline is Pipeline.SINGLE_STAGE

    @pytest.mark.parametrize("meter", [(4, 6), (3, 12), (0, 4), (4, 0), (-2, 4), (300, 4)])
    def test_bad_time_signature_rejected(self, meter):
        with pytest.raises(OptionError):
            DecodeOptions(time_signature=meter)

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
            ctx = _Context(lyr, cfg, options, options.active)
            self.check(ctx, bundle.token_model, width, hard)

    @pytest.mark.parametrize("preset", ["telemelody", "off"])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_rhythm_domain_of_stage_one(self, config, cases, width, preset):
        from lyricmelody.decoder import _Context

        bundle, sheets = cases
        options = DecodeOptions(beam_width=width)
        for lyr in sheets:
            ctx = _Context(lyr, config.with_preset(preset), options, frozenset({Aspect.RHYTHM}))
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
            ctx = _Context(lyr, config.with_preset(preset), options, options.active)
            for hard in (False, True):
                relaxed.extend(self.check(ctx, scorer, width, hard))
        assert relaxed  # hard mode relaxed somewhere, so that path is compared too


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
            ctx = _Context(lyr, config, DecodeOptions(), active)
            for melody in melodies:
                state = _State()
                tokens = melody.tokens
                if domain == "rhythm":
                    tokens = tuple(map(rhythm_projection, tokens))
                for token in tokens + (None,):
                    by_signature = {}
                    for idx, cand in ctx.legal(state, groups):
                        events = events_of(ctx, state, cand)
                        sig = groups.signatures[idx]
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
