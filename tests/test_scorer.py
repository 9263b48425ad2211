import copy
import hashlib
import json
import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest

from lyricmelody import (
    END,
    DecodeMode,
    DecodeOptions,
    InputError,
    ModelBundle,
    NGramModel,
    TrainingError,
    UniformScorer,
    Vocabulary,
    build_melody_vocabulary,
    decode,
    train_model_bundle,
    train_ngram,
)
from lyricmelody.scorer import (
    melody_sequence,
    pitch_sequence,
    rhythm_sequence,
    vocabulary_from_corpus,
)
from lyricmelody.synthetic import random_lyrics, random_training_melody
from conftest import BAD_DURATION_TEXTS, mk_melody, mutated_json
from reference import ngram_prob


def fraction_backoff_oracle(sequences, order, discount, vocab_tokens):
    """Direct Fraction-arithmetic evaluation of the interpolated
    absolute-discount formula, independent of the float implementation."""
    d = Fraction(discount).limit_denominator(1000)
    counts = {}
    for seq in sequences:
        for i, token in enumerate(seq):
            for ctx_len in range(min(i, order - 1) + 1):
                ctx = tuple(seq[i - ctx_len : i])
                counts.setdefault(ctx, {})
                counts[ctx][token] = counts[ctx].get(token, 0) + 1

    def prob(token, ctx):
        ctx = ctx[-(order - 1):] if order > 1 else ()
        while ctx and ctx not in counts:
            ctx = ctx[1:]
        if ctx not in counts:
            return Fraction(1, len(vocab_tokens))
        total = sum(counts[ctx].values())
        kept = Fraction(max(counts[ctx].get(token, 0) - d, 0)) / total
        if ctx:
            lower = prob(token, ctx[1:])
        else:
            lower = Fraction(1, len(vocab_tokens))
        return kept + d * len(counts[ctx]) / total * lower

    return prob


class TestHandBigram:
    """Corpus {AB, AB, AC}, order 2, d = 0.5, over tokens {60, 61, 62} + END."""

    @pytest.fixture
    def model(self):
        vocab = Vocabulary.build("pitch", [60, 61, 62])
        sequences = [(60, 61), (60, 61), (60, 62)]
        return NGramModel.train(sequences, order=2, discount=0.5, vocab=vocab)

    def test_frozen_hand_values(self, model):
        # unigrams: P1 = max(c-1/2,0)/6 + (1/2*3/6) * 1/4
        dist = model.log_prob_dist(())
        assert math.exp(dist[60]) == pytest.approx(23 / 48, abs=1e-9)
        assert math.exp(dist[61]) == pytest.approx(15 / 48, abs=1e-9)
        assert math.exp(dist[62]) == pytest.approx(7 / 48, abs=1e-9)
        assert math.exp(dist[END]) == pytest.approx(3 / 48, abs=1e-9)
        # bigrams after 60: kept mass + (1/2*2/3) * P1
        dist = model.log_prob_dist((60,))
        assert math.exp(dist[61]) == pytest.approx(29 / 48, abs=1e-9)
        assert math.exp(dist[62]) == pytest.approx(31 / 144, abs=1e-9)
        assert math.exp(dist[60]) == pytest.approx(23 / 144, abs=1e-9)
        assert math.exp(dist[END]) == pytest.approx(3 / 144, abs=1e-9)

    def test_against_fraction_oracle(self, model):
        vocab_tokens = model.vocab.tokens
        oracle = fraction_backoff_oracle(
            [(60, 61), (60, 61), (60, 62)], 2, 0.5, vocab_tokens
        )
        for ctx in [(), (60,), (61,), (62,), (61, 60), (END,)]:
            dist = model.log_prob_dist(ctx)
            for token in vocab_tokens:
                assert math.exp(dist[token]) == pytest.approx(
                    float(oracle(token, ctx)), abs=1e-9
                )

    def test_unseen_context_backs_off_to_unigram(self, model):
        assert model.log_prob_dist((61,)) == model.log_prob_dist(())

    def test_markov_property(self, model):
        long_ctx = (62, 61, 60, 61, 60)
        assert model.log_prob_dist(long_ctx) == model.log_prob_dist(long_ctx[-1:])


class TestNormalization:
    def test_sums_to_one_over_random_contexts(self, rng):
        corpus = [random_training_melody(rng) for _ in range(12)]
        model = train_ngram(corpus, order=3, discount=0.5)
        tokens = model.vocab.tokens
        for _ in range(1000):
            ctx = tuple(rng.choice(tokens[:-1]) for _ in range(rng.randint(0, 4)))
            total = sum(math.exp(lp) for lp in model.log_prob_dist(ctx).values())
            assert abs(total - 1.0) < 1e-9

    def test_probability_below_the_float_range_keeps_a_finite_log(self):
        # with a tiny discount an unseen token's backed-off mass underflows to
        # 0.0; it gets the log of the least positive float
        doc = _hand_built_model_doc()
        doc["discount"] = 1e-300
        dist = NGramModel.from_dict(doc).log_prob_dist((60, 61))
        assert all(map(math.isfinite, dist.values()))
        assert abs(sum(map(math.exp, dist.values())) - 1.0) < 1e-9

    def test_determinism(self, rng):
        corpus = [random_training_melody(rng) for _ in range(5)]
        model = train_ngram(corpus, order=2, discount=0.4)
        ctx = melody_sequence(corpus[0])[:3]
        assert model.log_prob_dist(ctx) == model.log_prob_dist(ctx)


class TestTrainingContracts:
    def test_repeated_token_dominates(self):
        m = mk_melody([(60, 1)] * 6)
        model = train_ngram([m], order=2)
        dist = model.log_prob_dist((m.tokens[0],))
        best = max(dist, key=lambda t: (dist[t], t == m.tokens[0]))
        assert best == m.tokens[0]

    def test_unigram_model_ignores_context(self, rng):
        corpus = [random_training_melody(rng) for _ in range(4)]
        model = train_ngram(corpus, order=1, discount=0.5)
        a = model.log_prob_dist(())
        b = model.log_prob_dist(melody_sequence(corpus[0])[:4])
        assert a == b

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            train_ngram([], order=2)

    @pytest.mark.parametrize("train", [
        lambda: NGramModel.train([], 2, 0.5, build_melody_vocabulary((60, 60), [Fraction(1)])),
        lambda: train_model_bundle([], order=2),
    ], ids=["NGramModel.train", "train_model_bundle"])
    def test_every_trainer_rejects_an_empty_corpus(self, train):
        with pytest.raises(TrainingError, match="training corpus is empty"):
            train()

    def test_vocabulary_of_an_empty_corpus_rejected(self):
        # every Melody opens with a note, so only an empty corpus has none
        with pytest.raises(TrainingError, match="corpus contains no notes"):
            vocabulary_from_corpus([])

    @pytest.mark.parametrize("pitch_range", [(61, 60), (-1, 60), (60, 128)])
    def test_bad_pitch_range_rejected(self, pitch_range):
        with pytest.raises(ValueError, match="bad pitch range"):
            build_melody_vocabulary(pitch_range, [Fraction(1)])

    @pytest.mark.parametrize("durations", [[], [Fraction(0)], [Fraction(-1, 2), Fraction(1)]])
    def test_bad_durations_rejected(self, durations):
        with pytest.raises(ValueError, match="durations must be a non-empty set"):
            build_melody_vocabulary((60, 62), durations)

    @pytest.mark.parametrize("load, where", [(Vocabulary.from_dict, "model vocab"),
                                             (NGramModel.from_dict, "model")])
    @pytest.mark.parametrize("doc", [[], "tokens", 5, None])
    def test_model_parts_must_be_objects(self, load, where, doc):
        # the loader checks each part's type before it reads it; a direct call does not
        message = f"{where} must be a JSON object, got {type(doc).__name__}"
        with pytest.raises(TrainingError, match=f"^{re.escape(message)}$"):
            load(doc)

    def test_out_of_vocabulary_token_named(self):
        vocab = build_melody_vocabulary((60, 61), [Fraction(1)])
        melody = mk_melody([(60, 1), (72, 1)])
        with pytest.raises(TrainingError, match="72"):
            train_ngram([melody], order=2, vocab=vocab)

    def test_bad_discount_rejected(self):
        with pytest.raises(TrainingError):
            NGramModel(2, 1.5, build_melody_vocabulary((60, 60), [Fraction(1)]), {})


class TestUniform:
    def test_flat_log_probs(self):
        vocab = build_melody_vocabulary((60, 63), [Fraction(1), Fraction(2)])
        scorer = UniformScorer(vocab)
        dist = scorer.log_prob_dist(())
        expected = -math.log(len(vocab))
        assert all(lp == expected for lp in dist.values())
        assert len(dist) == len(vocab)


class TestSerialization:
    def test_model_round_trip_preserves_distributions(self, rng):
        corpus = [random_training_melody(rng) for _ in range(6)]
        model = train_ngram(corpus, order=3)
        back = NGramModel.from_dict(model.to_dict())
        ctx = melody_sequence(corpus[1])[:4]
        assert back.log_prob_dist(ctx) == model.log_prob_dist(ctx)

    def test_bundle_json_deterministic(self, rng):
        corpus = [random_training_melody(rng) for _ in range(4)]
        a = train_model_bundle(corpus, order=2).to_json()
        b = train_model_bundle(corpus, order=2).to_json()
        assert a == b
        assert ModelBundle.from_json(a).to_json() == a

    def test_bundle_json_pinned(self):
        # the sha256 of a fixed corpus's model file; the file format, the
        # vocabulary order and every count must stay as they are
        rng = random.Random(20240811)
        corpus = [random_training_melody(rng) for _ in range(8)]
        text = train_model_bundle(corpus, order=3).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "69e5db56045b84fb94ee01bec0ff5d27dabb6303e3d6f10bf1ef3b0adbdedb27"
        )

    def test_a_bundle_that_has_decoded_copies_as_a_fresh_one(self, config):
        # pickle (every protocol) and deepcopy rebuild each table from its
        # items, without what the decoder keeps on it, and the copy decodes
        # every mode to the same tokens and score parts, to the bit
        rng = random.Random(20261201)
        bundle = train_model_bundle([random_training_melody(rng) for _ in range(4)], order=3)
        sheets = [random_lyrics(rng, sentences=1, tonal=tonal) for tonal in (True, False)]

        def decodes(b):
            out = []
            for lyrics in sheets:
                for mode in DecodeMode:
                    r = decode(lyrics, b.token_model, config, DecodeOptions(mode=mode),
                               b.rhythm_model, b.pitch_model)
                    out.append((r.melody.tokens, r.relaxation_steps, r.score.hex(),
                                r.base_logprob.hex(), r.reward_total.hex()))
            return out

        def tables(b):
            return [t for model in (b.token_model, b.rhythm_model, b.pitch_model)
                    for t in model._dist_cache.values()]

        want = decodes(bundle)
        assert any(hasattr(t, "derived") for t in tables(bundle))  # the decodes kept some
        copies = [pickle.loads(pickle.dumps(bundle, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies + [copy.deepcopy(bundle)]:
            assert tables(back) and not any(hasattr(t, "derived") for t in tables(back))
            assert decodes(back) == want

    def test_projection_domains(self, rng):
        corpus = [random_training_melody(rng) for _ in range(4)]
        bundle = train_model_bundle(corpus, order=2)
        rhythm_ctx = rhythm_sequence(corpus[0])[:3]
        pitch_ctx = pitch_sequence(corpus[0])[:3]
        assert abs(sum(math.exp(p) for p in bundle.rhythm_model.log_prob_dist(rhythm_ctx).values()) - 1) < 1e-9
        assert abs(sum(math.exp(p) for p in bundle.pitch_model.log_prob_dist(pitch_ctx).values()) - 1) < 1e-9


def _contexts(model, sequences, rng, n=8):
    """Contexts one token longer than the model reads: seen in training,
    made of random tokens, and seen ones with a random token swapped in."""
    tokens = model.vocab.tokens
    length = model.order
    seen = []
    for _ in range(n):
        seq = rng.choice(sequences)
        i = rng.randint(0, len(seq) - 1)
        seen.append(tuple(seq[max(0, i - length) : i]))
    unseen = [tuple(rng.choice(tokens) for _ in range(rng.randint(0, length))) for _ in range(n)]
    partly = []
    for ctx in seen:
        if ctx:
            j = rng.randrange(len(ctx))
            partly.append(ctx[:j] + (rng.choice(tokens),) + ctx[j + 1 :])
        partly.append((rng.choice(tokens),) + ctx)
    return seen + unseen + partly


def _hand_built_model_doc():
    """Order 3 over pitches 60-62: context (60, 61) is counted but its
    suffix (61,) is not."""
    return {
        "order": 3,
        "discount": 0.5,
        "vocab": {"kind": "pitch", "tokens": ["60", "61", "62", "R", "<end>"]},
        "counts": [
            [[], [["60", 3], ["61", 2], ["62", 1], ["<end>", 1]]],
            [["60"], [["61", 2], ["62", 1]]],
            [["60", "61"], [["62", 2]]],
            [["62"], [["<end>", 1]]],
        ],
    }


def _assert_matches_oracle(model, contexts):
    for ctx in contexts:
        full = tuple(ctx[-(model.order - 1) :]) if model.order > 1 else ()
        dist = model.log_prob_dist(ctx)
        assert list(dist) == list(model.vocab.tokens)
        for token in model.vocab.tokens:
            expected = math.log(ngram_prob(model, token, full))
            assert dist[token].hex() == expected.hex(), (ctx, token)


class TestSuffixTables:
    """Distributions built from suffix tables equal the per-token recursive
    formula of tests/reference.py bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_trained_and_loaded_bundles_match_oracle(self, seed, order):
        rng = random.Random(seed * 10 + order)
        corpus = [random_training_melody(rng) for _ in range(6)]
        bundle = train_model_bundle(corpus, order=order, discount=rng.choice([0.3, 0.5, 0.7]))
        for b in (bundle, ModelBundle.from_json(bundle.to_json())):
            for model, to_sequence in (
                (b.token_model, melody_sequence),
                (b.rhythm_model, rhythm_sequence),
                (b.pitch_model, pitch_sequence),
            ):
                sequences = [to_sequence(m) for m in corpus]
                _assert_matches_oracle(model, _contexts(model, sequences, rng))

    def test_context_whose_suffix_is_missing_matches_oracle(self):
        model = NGramModel.from_dict(_hand_built_model_doc())
        tokens = model.vocab.tokens
        contexts = [()] + [(a,) for a in tokens] + [(a, b) for a in tokens for b in tokens]
        contexts += [(62, 60, 61), (60, 61, 62)]
        _assert_matches_oracle(model, contexts)
        # (61,) is not counted, so (60, 61) builds on the unigram table
        assert (61,) not in model.counts
        assert model.log_prob_dist((60, 61)) != model.log_prob_dist(())


def _assert_interned(model):
    vocab = model.vocab
    checked = 0
    for ctx, succ in model.counts.items():
        for token in ctx + tuple(succ):
            if token in vocab:
                assert token is vocab.tokens[vocab.index_of(token)], token
                checked += 1
    assert checked


def _respell(text):
    """The same rhythm token with its duration written as 2n/2d."""
    if text == END:
        return text
    parts = text.split(":")
    d = Fraction(parts[1])
    parts[1] = f"{2 * d.numerator}/{2 * d.denominator}"
    return ":".join(parts)


class TestInternedTokens:
    """Every in-vocabulary token in a model's counts is the vocabulary's own
    instance, so context lookups from decoded hypotheses hit by identity."""

    @pytest.mark.parametrize("order", [1, 3])
    def test_trained_and_loaded_bundles(self, rng, order):
        corpus = [random_training_melody(rng) for _ in range(5)]
        bundle = train_model_bundle(corpus, order=order)
        for b in (bundle, ModelBundle.from_json(bundle.to_json())):
            for model in (b.token_model, b.rhythm_model, b.pitch_model):
                _assert_interned(model)

    def test_non_canonical_spellings_are_interned(self, rng):
        corpus = [random_training_melody(rng) for _ in range(5)]
        text = train_model_bundle(corpus, order=3).to_json()
        doc = json.loads(text)
        for ctx, succ in doc["rhythm_model"]["counts"]:
            ctx[:] = [_respell(t) for t in ctx]
            for pair in succ:
                pair[0] = _respell(pair[0])
        respelled = ModelBundle.from_json(json.dumps(doc))
        _assert_interned(respelled.rhythm_model)
        assert respelled.to_json() == text

    @pytest.mark.parametrize("where", ["successor", "context"])
    def test_out_of_vocabulary_token_refused(self, where):
        # a successor outside the vocabulary would leave its context's
        # distribution summing to less than 1
        doc = _hand_built_model_doc()
        if where == "successor":
            doc["counts"][2][1].append(["63", 1])
        else:
            doc["counts"][2][0] = ["63", "61"]
        with pytest.raises(TrainingError, match="model token '63' is not in the model's vocab"):
            NGramModel.from_dict(doc)


class TestModelCountsValidated:
    @pytest.mark.parametrize("count", [0, -5, "3", 3.0, True, None, 2**53 + 1])
    def test_count_must_be_a_positive_int(self, count):
        doc = _hand_built_model_doc()
        doc["counts"][2][1][0][1] = count
        with pytest.raises(TrainingError, match="count"):
            NGramModel.from_dict(doc)

    def test_context_without_successors_rejected(self):
        doc = _hand_built_model_doc()
        doc["counts"][3][1] = []
        with pytest.raises(TrainingError, match="no successors"):
            NGramModel.from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.clear(), "model has no 'order'"),
        (lambda doc: [doc.clear(), doc.update(order=2)], "model has no 'discount'"),
        (lambda doc: doc.update(vocab=[]), "model vocab must be an object, got list"),
        (lambda doc: doc["vocab"].update(kind="chord"), "unknown vocabulary kind 'chord'"),
        (lambda doc: doc["vocab"].update(kind=None),
         "model vocab kind must be a string, got NoneType"),
        (lambda doc: doc["counts"].append(["60", []]), "model counts entry 4 is not a [context"),
        (lambda doc: doc["counts"][0][1].append(["61"]), "model successor ['61'] after []"),
    ], ids=["empty", "order only", "list vocab", "unknown kind", "null kind", "flat entry",
            "one-item successor"])
    def test_missing_key_or_wrong_json_type_refused(self, edit, message):
        doc = _hand_built_model_doc()
        edit(doc)
        with pytest.raises(TrainingError) as info:
            NGramModel.from_dict(doc)
        assert message in str(info.value)

    def test_successor_listed_twice_refused(self):
        # "062" spells 62 too; the second count used to overwrite the first
        doc = _hand_built_model_doc()
        doc["counts"][2][1].append(["062", 1])
        with pytest.raises(TrainingError, match="model token '062' is listed twice after"):
            NGramModel.from_dict(doc)

    def test_context_counted_twice_refused(self):
        doc = _hand_built_model_doc()
        doc["counts"].append([["060"], [["62", 1]]])
        with pytest.raises(TrainingError, match=r"model context \['060'\] is counted twice"):
            NGramModel.from_dict(doc)


class TestModelTokenDurations:
    @pytest.fixture(scope="class")
    def model_doc(self):
        corpus = [random_training_melody(random.Random(seed)) for seed in range(3)]
        return json.loads(train_model_bundle(corpus, order=2).to_json())

    @pytest.mark.parametrize("duration", BAD_DURATION_TEXTS)
    @pytest.mark.parametrize("part, spelling", [
        ("token_model", "R:{}"), ("token_model", "N:60:{}:S"), ("rhythm_model", "N:{}:C")])
    def test_duration_other_than_n_or_n_over_d_refused(self, model_doc, part, spelling,
                                                       duration):
        doc = json.loads(json.dumps(model_doc))
        token = spelling.format(duration)
        doc[part]["vocab"]["tokens"][0] = token
        kind = doc[part]["vocab"]["kind"]
        with pytest.raises(TrainingError) as info:
            ModelBundle.from_json(json.dumps(doc))
        assert (f"malformed {kind} token {token!r}: duration {duration!r} is not n or n/d"
                == str(info.value))

    def test_sixteen_byte_exponent_token_refused_at_once(self, model_doc):
        doc = json.loads(json.dumps(model_doc))
        doc["token_model"]["vocab"]["tokens"][0] = "R:1e10000000"
        text = json.dumps(doc)
        start = time.perf_counter()
        with pytest.raises(TrainingError, match="'R:1e10000000'"):
            ModelBundle.from_json(text)
        assert time.perf_counter() - start < 0.5


class TestModelTokenPitches:
    @pytest.fixture(scope="class")
    def model_doc(self):
        corpus = [random_training_melody(random.Random(seed)) for seed in range(3)]
        return json.loads(train_model_bundle(corpus, order=2).to_json())

    # int() reads all of these but the last two as a pitch 0-127
    @pytest.mark.parametrize("pitch", ["6_0", " +60 ", "-0", "+60", "60 ", "\u0666\u0660", "128", ""])
    @pytest.mark.parametrize("part, spelling", [("token_model", "N:{}:1/2:S"), ("pitch_model", "{}")])
    def test_pitch_other_than_ascii_digits_0_to_127_refused(self, model_doc, part, spelling,
                                                            pitch):
        doc = json.loads(json.dumps(model_doc))
        token = spelling.format(pitch)
        doc[part]["vocab"]["tokens"][0] = token
        kind = doc[part]["vocab"]["kind"]
        with pytest.raises(TrainingError) as info:
            ModelBundle.from_json(json.dumps(doc))
        assert (f"malformed {kind} token {token!r}: pitch {pitch!r} is not a MIDI pitch 0-127"
                == str(info.value))


class TestModelLoaderFuzz:
    """Seeded mutations of a trained model file: each loads or raises an
    ``InputError``, and every model that loads has proper distributions."""

    #: JSON values a mutation puts in place of a node of the model file
    FUZZ_VALUES = [None, True, False, 0, -1, 1, 2, 3, 5, 7, 12, 99, 2**53, 10**400, 0.25, 1.5,
                   1e-300, 1e308, float("nan"), float("inf"), "", "x", END, "R", "60", "61",
                   "64", "200", "N:60:1:S", "N:60:2/2:C", "N:70:1:S", "N:1:S", "N:2/2:C", "N:3:S",
                   "R:1", "R:3", "R:0", "melody", "pitch", [], [[]], ["60", 1],
                   [["60"], [["61", 1]]], {}, {"kind": "pitch", "tokens": [END]}]

    def test_mutated_bundles_load_or_raise_input_error(self):
        rng = random.Random(20261105)
        corpus = [random_training_melody(rng, length=6, pitch_range=(60, 63),
                                         durations=[Fraction(1), Fraction(2)]) for _ in range(2)]
        base = json.loads(train_model_bundle(corpus, order=2).to_json())
        outcomes = {"loaded": 0, "refused": 0}
        for seed in range(1500):
            rng = random.Random(seed)
            text = mutated_json(rng, base, self.FUZZ_VALUES)
            try:
                bundle = ModelBundle.from_json(text)
            except InputError:
                outcomes["refused"] += 1
                continue
            outcomes["loaded"] += 1
            for model in (bundle.token_model, bundle.rhythm_model, bundle.pitch_model):
                for ctx in model.counts:
                    total = sum(math.exp(lp) for lp in model.log_prob_dist(ctx).values())
                    assert abs(total - 1.0) < 1e-9, (seed, ctx)
        assert min(outcomes.values()) >= 20, outcomes
