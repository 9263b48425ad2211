import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lyricmelody import (
    AlignmentError,
    BeatStrength,
    Melody,
    MelodyToken,
    MidiFormatError,
    RhythmToken,
    TokenKind,
    melody_from_json,
    melody_to_json,
    note,
    parse_lyrics,
    rest,
)
from lyricmelody.rewards import BoundaryKind, reward_events
from conftest import BAD_DURATION_TEXTS, BAD_DURATION_VALUES, mk_melody
from reference import compute_beat_grid, is_long_note, replace

S, W = BeatStrength.STRONG, BeatStrength.WEAK


class TestTokens:
    def test_rest_cannot_carry_pitch(self):
        with pytest.raises(ValueError):
            MelodyToken(TokenKind.REST, Fraction(1), pitch=60)

    def test_rest_cannot_start_syllable(self):
        with pytest.raises(ValueError):
            MelodyToken(TokenKind.REST, Fraction(1), syllable_start=True)

    def test_duration_positive(self):
        with pytest.raises(ValueError):
            MelodyToken(TokenKind.NOTE, Fraction(0), pitch=60)

    def test_pitch_range(self):
        with pytest.raises(ValueError):
            note(128, 1)


class TestTokenHash:
    """Tokens are interned: equal tokens are one object, so they hash equal,
    ``repr`` shows the fields alone, and a token unpickled in a process
    under another hash seed is that process's instance.  Rhythm tokens
    never equal a melody token."""

    def test_equal_tokens_hash_equal(self):
        from lyricmelody.scorer import Vocabulary, build_melody_vocabulary, rhythm_projection

        a = note(60, Fraction(3, 2), False)
        hash(a)
        assert hash(note(60, Fraction(3, 2), False)) == hash(a)
        assert hash(replace(a)) == hash(a)
        moved = replace(note(62, 2, True), pitch=60, duration=Fraction(3, 2),
                       syllable_start=False)
        assert moved == a and hash(moved) == hash(a)
        assert hash(rest(1)) == hash(rest(Fraction(1)))
        vocab = build_melody_vocabulary((59, 61), [1, Fraction(3, 2)])
        decoded = Vocabulary.from_dict(vocab.to_dict())
        for built, loaded in zip(vocab.tokens[:-1], decoded.tokens):  # END is a str
            assert built is loaded and loaded == built and hash(loaded) == hash(built)
        assert decoded.index_of(a) == vocab.index_of(a)
        rhythm = Vocabulary.build("rhythm", map(rhythm_projection, vocab.tokens[:-1]))
        decoded = Vocabulary.from_dict(rhythm.to_dict())
        for built, loaded in zip(rhythm.tokens[:-1], decoded.tokens):
            assert built is loaded and loaded == built and hash(loaded) == hash(built)
        r = RhythmToken(TokenKind.NOTE, Fraction(3, 2), False)
        hash(r)
        assert hash(RhythmToken(TokenKind.NOTE, Fraction(3, 2), False)) == hash(r)
        assert decoded.index_of(r) == rhythm.index_of(rhythm_projection(a))

    def test_cache_is_not_in_repr_or_eq(self):
        fresh, hashed = note(64, 1), note(64, 1)
        hash(hashed)
        assert repr(hashed) == repr(fresh) == (
            "MelodyToken(kind=<TokenKind.NOTE: 'note'>, duration=Fraction(1, 1), "
            "pitch=64, syllable_start=True)"
        )
        assert hashed == fresh and not hashed != fresh
        assert rest(1) != note(64, 1)
        with pytest.raises(TypeError):
            MelodyToken(TokenKind.NOTE, Fraction(1), 64, True, 0)
        # a rhythm rest with a melody rest's fields, and a note's projection
        rhythm_rest = RhythmToken(TokenKind.REST, Fraction(1))
        rhythm_note = RhythmToken(TokenKind.NOTE, Fraction(1), True)
        assert (rhythm_rest.kind, rhythm_rest.duration, rhythm_rest.pitch,
                rhythm_rest.syllable_start) == (TokenKind.REST, 1, None, False)
        assert rhythm_rest is RhythmToken(TokenKind.REST, 1) and rhythm_rest is not rest(1)
        assert rhythm_rest != rest(1) and rest(1) != rhythm_rest
        assert rhythm_note != note(64, 1) and note(64, 1) != rhythm_note
        assert len({rhythm_rest, rest(1)}) == 2

    def test_pickled_hash_valid_under_another_seed(self, tmp_path):
        import lyricmelody

        src = str(Path(lyricmelody.__file__).resolve().parents[1])
        dump = tmp_path / "tokens.pickle"
        write = (
            "import pickle, sys\n"
            "from fractions import Fraction\n"
            "from lyricmelody.melody import RhythmToken, TokenKind, note, rest\n"
            "tokens = [note(61, Fraction(1, 2), True), rest(2), note(60, 1, False)]\n"
            "rhythm = [RhythmToken(TokenKind.NOTE, Fraction(1, 2), True),\n"
            "          RhythmToken(TokenKind.REST, Fraction(2))]\n"
            "for t in tokens + rhythm: hash(t)\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps((tokens, rhythm)))\n"
        )
        read = (
            "import pickle, sys\n"
            "from lyricmelody import scorer as s\n"
            "vocab = s.build_melody_vocabulary((60, 62), [0.5, 1, 2])\n"
            "projected = map(s.rhythm_projection, vocab.tokens[:-1])\n"
            "rhythm_vocab = s.Vocabulary.build('rhythm', projected)\n"
            "tokens, rhythm = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "print([vocab.index_of(t) for t in tokens]\n"
            "      + [rhythm_vocab.index_of(t) for t in rhythm])\n"
        )
        for code, seed in ((write, "1"), (read, "2")):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            out = subprocess.run([sys.executable, "-c", code, str(dump)], env=env,
                                 capture_output=True, text=True, timeout=60, check=True)
        from lyricmelody.scorer import Vocabulary, build_melody_vocabulary, rhythm_projection

        vocab = build_melody_vocabulary((60, 62), [0.5, 1, 2])
        rhythm_vocab = Vocabulary.build("rhythm", map(rhythm_projection, vocab.tokens[:-1]))
        want = [vocab.index_of(t) for t in (note(61, Fraction(1, 2), True), rest(2),
                                            note(60, 1, False))]
        want += [rhythm_vocab.index_of(rhythm_projection(t))
                 for t in (note(61, Fraction(1, 2), True), rest(2))]
        assert out.stdout.split("\n")[0] == str(want)


class TestInterning:
    """Each token value is one object, whatever spelling, copy or thread
    built it, with canonical field types; a failed build adds nothing."""

    def test_spellings_give_one_object_with_canonical_fields(self):
        # values no other test builds, so the int spelling builds them first
        first = MelodyToken(TokenKind.NOTE, 1009, 60, True)
        assert first is note(60, Fraction(1009)) is note(60, 1009.0)
        assert type(first.duration) is Fraction and first.duration == Fraction(1009)
        floated = MelodyToken(TokenKind.NOTE, 0.375, 61.0, 1)
        assert floated is note(61, Fraction(3, 8))
        assert (type(floated.duration), type(floated.pitch), floated.syllable_start) == (
            Fraction, int, True)
        assert repr(floated) == (
            "MelodyToken(kind=<TokenKind.NOTE: 'note'>, duration=Fraction(3, 8), "
            "pitch=61, syllable_start=True)")
        assert MelodyToken(TokenKind.REST, 1013, None, 0) is rest(Fraction(1013))
        rhythm = RhythmToken(TokenKind.NOTE, 1019, 1)
        assert rhythm is RhythmToken(TokenKind.NOTE, Fraction(1019), True)
        assert type(rhythm.duration) is Fraction and rhythm.syllable_start is True
        assert rhythm != note(60, 1019) and hash(first) == hash(note(60, 1009))

    @pytest.mark.parametrize("token", [
        note(60, Fraction(3, 2), False), rest(2), RhythmToken(TokenKind.NOTE, Fraction(1, 3), True),
        RhythmToken(TokenKind.REST, Fraction(2))], ids=repr)
    def test_copies_are_the_interned_instance(self, token):
        import copy
        import pickle

        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(token, protocol)) is token
        assert copy.copy(token) is token and copy.deepcopy(token) is token
        [listed, (nested,)] = copy.deepcopy([token, (token,)])
        assert listed is token and nested is token
        assert replace(token) is token
        moved = replace(token, duration=token.duration + 1)
        assert moved.duration == token.duration + 1
        assert moved is replace(token, duration=token.duration + 1)
        assert replace(moved, duration=token.duration) is token
        with pytest.raises(AttributeError, match="cannot assign to field 'duration'"):
            token.duration = Fraction(1)

    def test_threads_building_the_same_tokens_share_one_object_per_value(self):
        from concurrent.futures import ThreadPoolExecutor

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for denominator in (1021, 1031, 1033):  # fresh values each round
                specs = [(k % 128, Fraction(k, denominator), k % 3 == 0) for k in range(1, 501)]

                def build(order):
                    return [(spec, (note(*spec) if spec[2] or spec[0] % 2 else rest(spec[1])))
                            for spec in (specs if order else specs[::-1])]

                with ThreadPoolExecutor(4) as pool:
                    runs = list(pool.map(build, [0, 1, 0, 1], timeout=60))
                by_value = {}
                for run in runs:
                    for spec, token in run:
                        by_value.setdefault(spec, set()).add(id(token))
                assert len(by_value) == 500
                assert all(len(ids) == 1 for ids in by_value.values())
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("fields", [
        (TokenKind.NOTE, Fraction(0), 60), (TokenKind.NOTE, Fraction(-1, 1039), 60),
        (TokenKind.NOTE, Fraction(1, 1039), 128), (TokenKind.NOTE, Fraction(1, 1039), None),
        (TokenKind.NOTE, Fraction(1, 1039), 60.5), (TokenKind.REST, Fraction(1, 1039), 60),
        (TokenKind.REST, Fraction(1, 1039), None, True), (TokenKind.NOTE, float("inf"), 60),
        (TokenKind.NOTE, float("nan"), 60), (TokenKind.NOTE, "1/1039", 60),
    ], ids=repr)
    def test_a_failed_build_raises_and_adds_no_entry(self, fields):
        from lyricmelody import melody

        before = dict(melody._TOKENS)
        with pytest.raises((ValueError, OverflowError, TypeError)):
            MelodyToken(*fields)
        assert melody._TOKENS == before
        with pytest.raises(ValueError):
            RhythmToken(TokenKind.NOTE, Fraction(-1, 1039))
        assert melody._TOKENS == before

    @pytest.mark.parametrize("cls, fields", [
        (MelodyToken, ("rest", 1)), (MelodyToken, (None, 1)), (RhythmToken, ("note", 1, True)),
    ], ids=repr)
    def test_kind_other_than_a_token_kind_rejected(self, cls, fields):
        # a string kind used to build a token that is neither note nor rest,
        # which a Melody read as a pitchless continuation note
        import copy
        import pickle

        from lyricmelody import melody

        before = dict(melody._TOKENS)
        with pytest.raises(TypeError, match="must be a TokenKind"):
            cls(*fields)
        assert melody._TOKENS == before
        token = cls(TokenKind.REST, 1)
        assert copy.deepcopy(token) is token and pickle.loads(pickle.dumps(token)) is token

    @pytest.mark.parametrize("tokens", [
        (RhythmToken(TokenKind.NOTE, 1, True),),
        (note(60, 1), RhythmToken(TokenKind.NOTE, 1, False)),
        (note(60, 1), RhythmToken(TokenKind.REST, 1)),
        (note(60, 1), (TokenKind.NOTE, 1, 62, True)),
    ], ids=repr)
    def test_token_other_than_a_melody_token_rejected(self, tokens):
        # a rhythm token used to build, and write_midi and evaluate_pair then
        # raised a bare TypeError on its missing pitch
        with pytest.raises(TypeError, match="must be a MelodyToken"):
            Melody(tokens)


class TestMelodyInvariants:
    def test_alignment_derived(self):
        m = mk_melody([(60, 1), (62, 1, False), ("r", 1), (64, 1)])
        assert m.alignment == ((0, 2), (3, 4))
        assert m.syllable_count == 2
        assert m.span_pitches(0) == [60, 62]

    def test_leading_rest_rejected(self):
        with pytest.raises(AlignmentError):
            mk_melody([("r", 1), (60, 1)])
        with pytest.raises(AlignmentError, match="melody has no tokens"):
            Melody(())

    def test_consecutive_rests_rejected(self):
        with pytest.raises(AlignmentError):
            mk_melody([(60, 1), ("r", 1), ("r", 1), (62, 1)])

    def test_continuation_after_rest_rejected(self):
        with pytest.raises(AlignmentError):
            mk_melody([(60, 1), ("r", 1), (62, 1, False)])

    @pytest.mark.parametrize("meter", [
        (4, 6), (0, 4), (300, 4), (4, 2 ** 256), (True, 4), (4.0, 4), (4, 4.0)], ids=repr)
    def test_meter_check_meter_rejects_never_builds(self, meter):
        # so nothing that takes a Melody (MIDI writing, the fold) checks it again
        with pytest.raises(ValueError, match="unsupported meter"):
            mk_melody([(60, 1), (62, 1)], meter)

    def test_total_duration(self):
        m = mk_melody([(60, "1/2"), ("r", "3/2"), (62, 2)])
        assert m.total_duration() == Fraction(4)

    def test_json_round_trip(self):
        m = mk_melody([(60, "1/2"), (62, "1/2", False), ("r", 1), (64, 2)], (3, 4))
        assert melody_from_json(melody_to_json(m)) == m

    @pytest.mark.parametrize("field, value, message", [
        ("pitch", 60.9, "token 0 pitch must be an integer, got float"),
        ("pitch", True, "token 0 pitch must be an integer, got bool"),
        ("syllable_start", "no", "token 0 syllable_start must be a boolean, got str"),
        ("time_signature", [4, 3],
         "unsupported meter 4/3: denominator must be a power of two up to 2**255"),
        ("time_signature", [300, 4], "unsupported meter 300/4: numerator must be at most 255"),
        ("time_signature", [4.0, 4], "unsupported meter 4.0/4: both parts must be integers"),
    ])
    def test_json_wrong_type_or_meter_rejected(self, field, value, message):
        # none may load: int() and bool() would turn them into pitch 60,
        # pitch 1 and a syllable start, and write_midi and the reward fold
        # refuse such a meter only later
        doc = json.loads(melody_to_json(mk_melody([(60, 1), (62, 1)])))
        if field == "time_signature":
            doc[field] = value
        else:
            doc["tokens"][0][field] = value
        message = f"invalid melody JSON: {message}"
        with pytest.raises(MidiFormatError, match=f"^{re.escape(message)}$"):
            melody_from_json(json.dumps(doc))

    @pytest.mark.parametrize("where, key", [
        (None, "time_signatur"), (0, "velocity"), (1, "pitch"), (1, "syllable_start"),
    ])
    def test_json_unknown_key_rejected(self, where, key):
        # a misspelt meter used to load as 4/4; a rest has no pitch or start flag
        doc = json.loads(melody_to_json(mk_melody([(60, 1), ("r", 1), (62, 1)], (3, 4))))
        (doc if where is None else doc["tokens"][where])[key] = [3, 4] if where is None else 60
        with pytest.raises(MidiFormatError, match=re.escape(f"unknown keys {[key]}")):
            melody_from_json(json.dumps(doc))

    @pytest.mark.parametrize("duration", BAD_DURATION_TEXTS + BAD_DURATION_VALUES)
    def test_json_duration_other_than_n_or_n_over_d_rejected(self, duration):
        doc = json.loads(melody_to_json(mk_melody([(60, 1), (62, 1)])))
        doc["tokens"][1]["duration"] = duration
        message = f"invalid melody JSON: duration {duration!r} is not n or n/d"
        with pytest.raises(MidiFormatError, match=re.escape(message)):
            melody_from_json(json.dumps(doc))

    @pytest.mark.parametrize("duration, value", [
        ("3", 3), ("3/2", Fraction(3, 2)), ("2/4", Fraction(1, 2)), (2, 2)])
    def test_json_duration_forms_read(self, duration, value):
        doc = json.loads(melody_to_json(mk_melody([(60, 1), (62, 1)])))
        doc["tokens"][1]["duration"] = duration
        assert melody_from_json(json.dumps(doc)).tokens[1].duration == value

    def test_alignment_is_derived_only(self):
        tokens = (note(60, 1), note(62, 1))
        with pytest.raises(TypeError, match="alignment"):
            Melody(tokens, alignment=((0, 9),))
        assert Melody(tokens).alignment == ((0, 1), (1, 2))
        assert replace(Melody(tokens), tokens=tokens[:1]).alignment == ((0, 1),)

    def test_list_tokens_and_meter_equal_the_tuples(self):
        tokens = [note(60, 1), note(62, 1)]
        as_list, as_tuple = Melody(tokens, [4, 4]), Melody(tuple(tokens), (4, 4))
        assert as_list == as_tuple
        assert as_list.tokens == as_tuple.tokens and as_list.time_signature == (4, 4)

    def test_hashable_from_lists(self):
        tokens = [note(60, 1), note(62, 1)]
        assert hash(Melody(tokens)) == hash(Melody(tuple(tokens), (4, 4)))
        assert hash(Melody(tokens, [4, 4])) == hash(Melody(tuple(tokens)))


class TestBeatGrid:
    def test_four_four_quarters(self):
        m = mk_melody([(60, 1), (62, 1), (64, 1), (65, 1)])
        grid = compute_beat_grid(m)
        assert list(grid.strengths) == [S, W, S, W]
        assert list(grid.onsets) == [Fraction(0), Fraction(1), Fraction(2), Fraction(3)]

    def test_three_four_quarters(self):
        m = mk_melody([(60, 1), (62, 1), (64, 1)], (3, 4))
        assert list(compute_beat_grid(m).strengths) == [S, W, W]

    def test_single_note_is_downbeat(self):
        m = mk_melody([(60, 1)])
        assert list(compute_beat_grid(m).strengths) == [S]

    def test_offsets_wrap_at_bar(self):
        m = mk_melody([(60, 2), (62, 2), (64, 2)])
        grid = compute_beat_grid(m)
        assert list(grid.onsets) == [Fraction(0), Fraction(2), Fraction(0)]
        assert list(grid.strengths) == [S, S, S]

    def test_eighth_offsets_exact(self):
        m = mk_melody([(60, "1/2"), (62, "1/2"), (64, 1), (65, 1), (67, 1)])
        grid = compute_beat_grid(m)
        assert list(grid.onsets) == [
            Fraction(0),
            Fraction(1, 2),
            Fraction(1),
            Fraction(2),
            Fraction(3),
        ]
        assert list(grid.strengths) == [S, W, W, S, W]

    def test_non_power_of_two_denominator_rejected(self):
        # a Melody holds no such meter, so no beat grid is ever asked of one
        with pytest.raises(ValueError, match="unsupported meter"):
            mk_melody([(60, 1)], (4, 6))

    def test_onsets_are_monotone_positions_mod_bar(self, rng):
        from lyricmelody.synthetic import random_training_melody

        for _ in range(25):
            m = random_training_melody(rng, length=rng.randint(2, 20))
            grid = compute_beat_grid(m)
            position = Fraction(0)
            positions = []
            for tok in m.tokens:
                positions.append(position)
                position += tok.duration
            # absolute positions are the monotone running duration sum;
            # the grid stores them folded into the bar
            assert all(a <= b for a, b in zip(positions, positions[1:]))
            assert [p % grid.bar_length for p in positions] == list(grid.onsets)
            assert m.total_duration() == positions[-1] + m.tokens[-1].duration

    def test_six_eight_allowed_with_single_strong(self):
        m = mk_melody([(60, "1/2"), (62, "1/2"), (64, "1/2")], (6, 8))
        assert list(compute_beat_grid(m).strengths) == [S, W, W]


class TestLongNote:
    @pytest.mark.parametrize("duration,expected", [(2, True), ("1/2", False), (3, True)])
    def test_threshold_inclusive(self, config, duration, expected):
        # the fold's rule: with no rest in the gap, the previous syllable's
        # last note pauses when it lasts at least the threshold (2 beats)
        lyr = parse_lyrics("ni3|W .\nhao3|W .")
        melody = mk_melody([(60, 1), (60, duration, False), (62, 1)])
        pauses = [(i, ev) for i, ev in reward_events(lyr, melody, config) if ev.kind == "pause"]
        assert [(i, ev.boundary, ev.matched) for i, ev in pauses] == [
            (2, BoundaryKind.SENTENCE_BOUNDARY, expected)]

    def test_rest_rejected(self, config):
        with pytest.raises(ValueError):
            is_long_note(rest(1), config)


class TestRandomTrainingMelody:
    def test_a_walk_has_its_length_in_notes_starts_a_syllable_and_ends_on_a_note(self, rng):
        from lyricmelody.synthetic import random_training_melody

        for length in (1, 2, 5, 17, 40):
            for _ in range(20):
                m = random_training_melody(rng, length=length, rest_probability=0.5)
                assert sum(t.is_note for t in m.tokens) == length
                assert m.tokens[0].syllable_start and m.tokens[-1].is_note

    @pytest.mark.parametrize("length", [0, -3])
    def test_a_length_below_one_is_refused_by_name(self, rng, length):
        from lyricmelody.synthetic import random_training_melody

        with pytest.raises(ValueError, match=rf"length must be at least 1 note, got {length}"):
            random_training_melody(rng, length=length)

    @pytest.mark.parametrize("durations", [(), []])
    def test_no_durations_are_refused_by_name(self, rng, durations):
        from lyricmelody.synthetic import random_aligned_melody, random_training_melody

        with pytest.raises(ValueError, match="durations must hold at least one duration"):
            random_training_melody(rng, durations=durations)
        with pytest.raises(ValueError, match="durations must hold at least one duration"):
            random_aligned_melody(parse_lyrics("ni3|W hao3|I ."), rng, durations=durations)
