"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria, in brief:
 1 zero-weight decoding is token-identical to reward-free beam search;
 2 saturating-width beam search equals exhaustive enumeration, and hard-mode
   survivor sets match a hand-rolled masking oracle;
 3 the documented reward values hold as unit fixtures (tolerance 1e-9);
 4 constrained decoding strictly improves the corpus-mean lyric-melody
   metrics over unconstrained decoding, and lowers melody distance on
   repeated lyrics (direction only);
 5 metric formulas match hand-computed fixture values (1e-9), with identity
   and range checks;
 6 every decode mode's reported score is reproducible from scratch (1e-9);
 7 fixed seeds give byte-identical output; MIDI and lyric formats round-trip;
 8 every model distribution sums to one (1e-9) and matches a hand-computed
   backoff fixture.
"""

import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

import lyricmelody as lm
from lyricmelody import (
    Aspect,
    DecodeMode,
    DecodeOptions,
    Intonation,
    StressClass,
    BeatStrength,
    Tone,
    UniformScorer,
    Vocabulary,
    note,
    rest,
)
from lyricmelody.cli import main as cli_main
from lyricmelody.decoder import _Context, _Hypothesis, _expand, score_decode, score_two_stage
from lyricmelody.metrics import aggregate_reports
from lyricmelody.rewards import HarmonyDegree
from lyricmelody.scorer import END, NGramModel
from lyricmelody.synthetic import random_lyrics, random_training_melody

from conftest import mk_melody
from reference import exhaustive_argmax, plain_beam_search
from test_metrics import HAND_FIXTURES


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {label}")
        raise
    print(f"[criterion {number}] PASS - {label}")


def test_criterion_1_zero_lambda_equivalence(config):
    with criterion(1, "zero-lambda decoding equals unconstrained beam search (100 fixtures)"):
        rng = random.Random(98765)
        cfg = config.with_preset("off")
        for case in range(100):
            lyr = random_lyrics(rng, sentences=rng.randint(1, 2))
            vocab = lm.build_melody_vocabulary((60, 62), [Fraction(1), Fraction(2)])
            corpus = [
                random_training_melody(rng, pitch_range=(60, 62),
                                       durations=[Fraction(1), Fraction(2)])
                for _ in range(3)
            ]
            scorer = lm.train_ngram(corpus, order=2, vocab=vocab)
            width = rng.choice([1, 2, 4])
            max_notes = rng.choice([1, 2])
            got = lm.beam_search(
                lyr, scorer, cfg,
                DecodeOptions(beam_width=width, max_notes_per_syllable=max_notes, seed=case),
            )
            want = plain_beam_search(lyr, scorer, width, max_notes)
            assert got.melody.tokens == want, f"fixture {case} diverged"


def _tiny_vocab(continuations: bool) -> Vocabulary:
    tokens = [note(p, 1, True) for p in (60, 62)]
    if continuations:
        tokens += [note(p, 1, False) for p in (60, 62)]
    tokens.append(rest(1))
    return Vocabulary.build("melody", tokens)


def test_criterion_2_oracle_equivalence(config):
    with criterion(2, "saturated beam equals exhaustive argmax on 24 tiny instances"):
        texts = [
            "ni3|W,K hao3|I .",
            "di4|W,K fang1|W,A ?",
            "ni3|W hao3|I .\nni3|W hao3|I .",
            "ma1|W ma5|I ,",
        ]
        instances = 0
        for text in texts:
            for preset in ("telemelody", "songmass", "off"):
                for continuations in (False, True):
                    lyr = lm.parse_lyrics(text)
                    scorer = UniformScorer(_tiny_vocab(continuations))
                    cfg = config.with_preset(preset)
                    options = DecodeOptions(beam_width=50_000, max_notes_per_syllable=2)
                    got = lm.beam_search(lyr, scorer, cfg, options)
                    score, _, tokens = exhaustive_argmax(lyr, scorer, cfg, options.active, 2)
                    assert got.melody.tokens == tokens, (text, preset, continuations)
                    assert got.score == pytest.approx(score, abs=1e-9)
                    instances += 1
        assert instances == 24

    with criterion(2, "hard-mode survivor set matches the hand-rolled masking oracle"):
        # keyword as second syllable: its start is legal after a 1-beat note
        # (weak onset 1) or a 2-beat note (strong onset 2)
        lyr = lm.parse_lyrics("ni3|W hao3|W,K .")
        vocab = Vocabulary.build(
            "melody", [note(p, d, True) for p in (60, 62) for d in (1, 2)]
        )
        options = DecodeOptions(beam_width=8, max_notes_per_syllable=1,
                                active=frozenset({Aspect.RHYTHM}))
        ctx = _Context(lyr, config, options, options.active, vocab.tokens)
        from lyricmelody.decoder import _group_vocab
        from lyricmelody.rewards import _State

        survivors = set()
        oracle = set()
        groups = _group_vocab(vocab)
        for first in vocab.tokens[:-1]:
            h = _Hypothesis(tokens=(first,), key=(), state=ctx.apply(_State(), first))
            classes = ctx.legal(h.state, groups)
            # the decoder's own scoring of each move, one record per class
            dist = dict.fromkeys(vocab.tokens, 0.0)
            records = _expand(ctx, h, 0, classes, dist, groups.lookup(dist)[0])
            for _, _, _, masked, moves, _, _ in records:
                for pos, tok, _ in moves:
                    if pos < 0:  # END
                        continue
                    if not masked:
                        survivors.add((first, tok))
                    # hand-rolled rule: the keyword's first note must fall on
                    # beat 1 or 3 of the 4/4 bar
                    if first.duration % 4 in (0, 2):
                        oracle.add((first, tok))
        assert survivors == oracle and survivors


def test_criterion_3_reward_unit_fixtures(config):
    with criterion(3, "documented reward values hold (1e-9)"):
        table = config.harmony_table
        # transition reward mapping exercises all four degrees
        degree_values = {
            HarmonyDegree.EXCELLENT: 3.0,
            HarmonyDegree.GOOD: 2.0,
            HarmonyDegree.FAIR: 1.0,
            HarmonyDegree.BAD: 0.0,
        }
        for degree, value in degree_values.items():
            assert config.transition_rewards[degree] == pytest.approx(value, abs=1e-9)
        assert table.degree_of(Tone.TONE4, Tone.TONE1, 3) is HarmonyDegree.EXCELLENT

        # structure: equal interval 2, octave-shifted 1, unrelated 0
        assert lm.structure_reward(2, 2, config) == pytest.approx(2.0, abs=1e-9)
        assert lm.structure_reward(14, 2, config) == pytest.approx(1.0, abs=1e-9)
        assert lm.structure_reward(3, 2, config) == pytest.approx(0.0, abs=1e-9)

        # interrogative wants a rising line
        assert lm.pitch_contour_reward(Intonation.RISING, 60, 65, config) == pytest.approx(1.0)
        assert lm.pitch_contour_reward(Intonation.RISING, 65, 60, config) == pytest.approx(0.0)

        # auxiliary on a downbeat and a pause inside a word are the bad cases
        assert lm.strong_weak_reward(StressClass.AUXILIARY, BeatStrength.STRONG, config) == 0.0
        assert lm.strong_weak_reward(StressClass.KEYWORD, BeatStrength.STRONG, config) == 1.0
        from lyricmelody.rewards import BoundaryKind, pause_reward

        assert pause_reward(True, BoundaryKind.WORD_INNER, config) == 0.0
        assert pause_reward(True, BoundaryKind.SENTENCE_BOUNDARY, config) == 1.0

        # tone shapes
        assert lm.pitch_shape_reward(Tone.TONE2, [60, 64], config) == pytest.approx(1.0)
        assert lm.pitch_shape_reward(Tone.TONE1, [60, 60, 60], config) == pytest.approx(1.0)
        assert lm.pitch_shape_reward(Tone.TONE2, [64, 60], config) == pytest.approx(0.0)

        # published lambda arithmetic: 1.2 * 3 + 1.5 * 1
        from lyricmelody.rewards import RewardEvent, weighted_total

        events = [
            RewardEvent("transition", Aspect.TONE, 3.0,
                        config.transition_rewards[HarmonyDegree.EXCELLENT]),
            RewardEvent("sw", Aspect.RHYTHM, 1.0, config.sw_reward_on_match),
        ]
        cfg = config.with_lambdas((1.2, 1.5, 1.0))
        assert weighted_total(events, cfg) == pytest.approx(5.1, abs=1e-9)


def test_criterion_4_directional_improvement(config):
    with criterion(4, "constrained decoding strictly improves corpus means"):
        rng = random.Random(424242)
        corpus = [random_training_melody(rng) for _ in range(24)]
        scorer = lm.train_ngram(corpus, order=3)
        off = config.with_preset("off")
        tele = config.with_preset("telemelody")

        lyrics_list = [
            random_lyrics(rng, sentences=2, repeat=(i % 2 == 0)) for i in range(50)
        ]
        reports = {"off": [], "tele": []}
        md_pairs = []
        for i, lyr in enumerate(lyrics_list):
            options = DecodeOptions(beam_width=4, max_notes_per_syllable=2, seed=i)
            rep_off = lm.evaluate_pair(lyr, lm.beam_search(lyr, scorer, off, options).melody, config)
            rep_tele = lm.evaluate_pair(lyr, lm.beam_search(lyr, scorer, tele, options).melody, config)
            reports["off"].append(rep_off)
            reports["tele"].append(rep_tele)
            if rep_off.md is not None and rep_tele.md is not None:
                md_pairs.append((rep_off.md, rep_tele.md))

        agg_off = aggregate_reports(reports["off"])
        agg_tele = aggregate_reports(reports["tele"])
        for field in ("tone_transition", "matched_sw", "matched_pauses"):
            assert agg_tele[field] > agg_off[field], (
                f"{field}: constrained {agg_tele[field]:.4f} "
                f"not above unconstrained {agg_off[field]:.4f}"
            )
        assert len(md_pairs) >= 20
        md_off = sum(a for a, _ in md_pairs) / len(md_pairs)
        md_tele = sum(b for _, b in md_pairs) / len(md_pairs)
        assert md_tele < md_off, f"melody distance {md_tele:.4f} !< {md_off:.4f}"
        print(
            f"    transition {agg_off['tone_transition']:.3f}->{agg_tele['tone_transition']:.3f}, "
            f"s/w {agg_off['matched_sw']:.3f}->{agg_tele['matched_sw']:.3f}, "
            f"pauses {agg_off['matched_pauses']:.3f}->{agg_tele['matched_pauses']:.3f}, "
            f"MD {md_off:.3f}->{md_tele:.3f}"
        )


def test_criterion_5_metric_correctness(config):
    with criterion(5, "metric formulas match hand-computed fixtures (1e-9)"):
        assert len(HAND_FIXTURES) == 5
        for text, notes, expected in HAND_FIXTURES:
            lyr = lm.parse_lyrics(text)
            melody = mk_melody(notes)
            report = lm.evaluate_pair(lyr, melody, config)
            for name, want in expected.items():
                got = getattr(report, name)
                if want is None:
                    assert got is None, (text, name)
                else:
                    assert got == pytest.approx(want, abs=1e-9), (text, name)
            for name in ("tone_transition", "tone_contour", "matched_sw",
                         "matched_pauses", "pd", "dd"):
                value = getattr(report, name)
                assert value is None or 0.0 <= value <= 1.0
            assert report.md is None or report.md >= 0.0

        # identity fixture: exact 1/1/0
        lyr = lm.parse_lyrics("ni3|W hao3|I .\nni3|W hao3|I .")
        melody = mk_melody([(60, 1), (64, 2), (60, 1), (64, 2)])
        assert lm.structure_similarity(lyr, melody) == (1.0, 1.0, 0.0)


def test_criterion_6_score_consistency(config):
    with criterion(6, "every decode mode's score is reproducible within 1e-9"):
        rng = random.Random(31337)
        corpus = [random_training_melody(rng) for _ in range(10)]
        bundle = lm.train_model_bundle(corpus, order=2)
        scorer = bundle.token_model
        for text in [
            "ni3|W,K hao3|I .",
            "ni3|W,K hao3|I .\nni3|W,K hao3|I .",
            "tian1|W,K kong1|I ming2|W,A yue4|I ?",
        ]:
            lyr = lm.parse_lyrics(text)
            for options in [
                DecodeOptions(beam_width=4),
                DecodeOptions(mode=DecodeMode.BEAM_HARD, beam_width=4),
                DecodeOptions(mode=DecodeMode.SAMPLE, seed=8, temperature=1.2),
                DecodeOptions(mode=DecodeMode.RERANK, rerank_candidates=4, seed=8),
            ]:
                result = lm.decode(lyr, scorer, config, options)
                _, _, score = score_decode(lyr, result.melody, scorer, config)
                assert score == pytest.approx(result.score, abs=1e-9), options.mode
            two = lm.decode_two_stage(
                lyr, bundle.rhythm_model, bundle.pitch_model, config,
                DecodeOptions(beam_width=3),
            )
            _, _, score2 = score_two_stage(
                lyr, two.melody, bundle.rhythm_model, bundle.pitch_model, config
            )
            assert score2 == pytest.approx(two.score, abs=1e-9)


def test_criterion_7_determinism_and_round_trips(config, tmp_path):
    with criterion(7, "fixed-seed generation is byte-identical"):
        rng = random.Random(5150)
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for i in range(4):
            (corpus_dir / f"{i}.mid").write_bytes(
                lm.write_midi(random_training_melody(rng))
            )
        model_path = tmp_path / "model.json"
        assert cli_main(["train", str(corpus_dir), "-o", str(model_path)]) == 0
        lyrics_path = tmp_path / "song.txt"
        lyrics_path.write_text(
            lm.serialize_lyrics(random_lyrics(rng, sentences=2, repeat=True)), "utf-8"
        )
        for name in ("one.mid", "two.mid"):
            assert cli_main([
                "generate", str(lyrics_path), "-m", str(model_path),
                "-o", str(tmp_path / name), "--mode", "sample", "--seed", "77",
            ]) == 0
        assert (tmp_path / "one.mid").read_bytes() == (tmp_path / "two.mid").read_bytes()
        tokens_a = (tmp_path / "one.tokens.json").read_bytes()
        tokens_b = (tmp_path / "two.tokens.json").read_bytes()
        assert tokens_a == tokens_b

    with criterion(7, "MIDI write/read round-trips 200 random melodies"):
        rng = random.Random(60609)
        for _ in range(200):
            melody = random_training_melody(rng, length=rng.randint(3, 40))
            assert lm.read_midi(lm.write_midi(melody)) == melody

    with criterion(7, "lyric parse/serialize/parse is the identity"):
        rng = random.Random(111)
        for tonal in (True, False):
            for _ in range(25):
                lyr = random_lyrics(rng, sentences=rng.randint(1, 4), tonal=tonal)
                assert lm.parse_lyrics(lm.serialize_lyrics(lyr)) == lyr


def test_criterion_8_ngram_sanity(config):
    with criterion(8, "model distributions sum to one over 1000 contexts (1e-9)"):
        rng = random.Random(8008)
        corpus = [random_training_melody(rng) for _ in range(12)]
        model = lm.train_ngram(corpus, order=3, discount=0.5)
        tokens = model.vocab.tokens
        for _ in range(1000):
            ctx = tuple(rng.choice(tokens[:-1]) for _ in range(rng.randint(0, 4)))
            total = sum(math.exp(lp) for lp in model.log_prob_dist(ctx).values())
            assert abs(total - 1.0) < 1e-9

    with criterion(8, "hand-computed bigram fixture matches (1e-9)"):
        vocab = Vocabulary.build("pitch", [60, 61, 62])
        model = NGramModel.train([(60, 61), (60, 61), (60, 62)], 2, 0.5, vocab)
        dist = model.log_prob_dist((60,))
        assert math.exp(dist[61]) == pytest.approx(29 / 48, abs=1e-9)
        assert math.exp(dist[62]) == pytest.approx(31 / 144, abs=1e-9)
        assert math.exp(dist[60]) == pytest.approx(23 / 144, abs=1e-9)
        assert math.exp(dist[END]) == pytest.approx(3 / 144, abs=1e-9)
