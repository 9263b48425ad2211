import json
import random
import re
from collections import Counter
from copy import deepcopy

import pytest

from lyricmelody import (
    InputError,
    Intonation,
    Language,
    LyricFormatError,
    LyricSequence,
    StressClass,
    StructureMatrix,
    Tone,
    WordPosition,
    build_structure_matrix,
    detect_intonation,
    lyrics_from_json,
    lyrics_to_json,
    parse_lyrics,
    serialize_lyrics,
)
from lyricmelody.synthetic import random_lyrics
from conftest import mutated_json, repeat_layout_lyrics
from reference import (reference_build_structure_matrix, reference_parse_lyrics,
                       reference_random_lyrics, replace)


class TestParse:
    def test_tonal_line(self):
        lyr = parse_lyrics("ni3|W,K cai3|I hong2|I,E .")
        assert [s.tone for s in lyr.syllables] == [Tone.TONE3, Tone.TONE3, Tone.TONE2]
        assert lyr.syllables[0].word_position is WordPosition.WORD_START
        assert lyr.syllables[0].stress_class is StressClass.KEYWORD
        assert lyr.syllables[1].word_position is WordPosition.WORD_INNER
        assert lyr.syllables[2].sentence_final
        assert lyr.sentences[0].intonation is Intonation.FALLING
        assert lyr.language is Language.TONAL

    def test_stress_accent_line(self):
        lyr = parse_lyrics("hello'|W,K ?")
        assert len(lyr) == 1
        assert lyr.syllables[0].tone is Tone.STRESSED
        assert lyr.sentences[0].intonation is Intonation.RISING
        assert lyr.language is Language.STRESS_ACCENT

    def test_unmarked_stress_syllable_is_unstressed(self):
        lyr = parse_lyrics("hello|W world'|W .")
        assert lyr.syllables[0].tone is Tone.UNSTRESSED

    def test_empty_input_rejected(self):
        with pytest.raises(LyricFormatError):
            parse_lyrics("")
        with pytest.raises(LyricFormatError):
            parse_lyrics("   \n  ")

    def test_mixed_tone_systems_rejected(self):
        with pytest.raises(LyricFormatError):
            parse_lyrics("ni3|W hello'|W .")

    def test_malformed_line_names_line_number(self):
        with pytest.raises(LyricFormatError, match="line 2"):
            parse_lyrics("ni3|W .\nbroken .")
        with pytest.raises(LyricFormatError, match="line 2: empty syllable text in '3|W'"):
            parse_lyrics("ni3|W .\n3|W .")

    def test_missing_punctuation_rejected(self):
        with pytest.raises(LyricFormatError):
            parse_lyrics("ni3|W cai3|I")

    def test_sentence_must_open_with_word_start(self):
        with pytest.raises(LyricFormatError):
            parse_lyrics("ni3|I cai3|I .")
        # nor may a sequence built directly misplace a syllable in its sentences
        lyr = parse_lyrics("ni3|W cai3|I .")
        for k, change, message in [
            (1, {"sentence_index": 1}, "syllable 1 carries sentence index 1, expected 0"),
            (0, {"sentence_final": True}, "syllable 0 has a wrong sentence_final flag"),
        ]:
            syllables = list(lyr.syllables)
            syllables[k] = replace(syllables[k], **change)
            with pytest.raises(LyricFormatError, match=message):
                LyricSequence(tuple(syllables), lyr.sentences, lyr.language)

    def test_sentences_must_cover_every_syllable(self):
        # a syllable past the last sentence's span belongs to no sentence
        lyr = parse_lyrics("ni3|W cai3|I .\nhao3|W ma5|I ?")
        with pytest.raises(LyricFormatError, match="sentence spans do not cover"):
            LyricSequence(lyr.syllables, lyr.sentences[:1], lyr.language)

    def test_flag_e_only_sentence_final(self):
        with pytest.raises(LyricFormatError):
            parse_lyrics("ni3|W,E cai3|I .")

    def test_unknown_flag_rejected(self):
        with pytest.raises(LyricFormatError, match="line 1"):
            parse_lyrics("ni3|W,Q .")
        with pytest.raises(LyricFormatError, match="line 1: token 'ni3|W,K,A' is both keyword"):
            parse_lyrics("ni3|W,K,A .")

    WRITTEN_FLAGS = {
        "W": (WordPosition.WORD_START, StressClass.NEUTRAL),
        "I": (WordPosition.WORD_INNER, StressClass.NEUTRAL),
        "W,K": (WordPosition.WORD_START, StressClass.KEYWORD),
        "W,A": (WordPosition.WORD_START, StressClass.AUXILIARY),
        "I,K": (WordPosition.WORD_INNER, StressClass.KEYWORD),
        "I,A": (WordPosition.WORD_INNER, StressClass.AUXILIARY),
    }

    @pytest.mark.parametrize("flags", sorted(WRITTEN_FLAGS))
    def test_written_flag_texts_read_as_the_full_checks_do(self, flags):
        from lyricmelody.lyrics import _flags

        token = f"ni3|{flags}"
        want = (*self.WRITTEN_FLAGS[flags], False)
        assert _flags(flags, token, 1) == want
        syllable = parse_lyrics(f"hao3|W {token} .").syllables[1]
        assert (syllable.text, syllable.tone, syllable.word_position,
                syllable.stress_class) == ("ni", Tone.TONE3, *want[:2])

    def test_serialize_writes_only_the_table_flag_texts(self):
        # the synthetic sheets hold no inner keyword or auxiliary
        from lyricmelody.lyrics import _WRITTEN_FLAGS

        rng = random.Random(20261019)
        written = {token.partition("|")[2]
                   for _ in range(200)
                   for token in serialize_lyrics(random_lyrics(rng, sentences=3)).split()
                   if "|" in token}
        assert {"W", "I", "W,K", "W,A"} <= written <= set(_WRITTEN_FLAGS)
        assert set(_WRITTEN_FLAGS) == set(self.WRITTEN_FLAGS)

    def test_other_flag_spellings_read_as_before(self):
        lyr = parse_lyrics("ni3|K,W hao3|W,,K .\nni3|W,E .\nni3|W hao3|I,A,E .")
        got = [(s.word_position, s.stress_class) for s in lyr.syllables]
        assert got == [
            (WordPosition.WORD_START, StressClass.KEYWORD),
            (WordPosition.WORD_START, StressClass.KEYWORD),
            (WordPosition.WORD_START, StressClass.NEUTRAL),
            (WordPosition.WORD_START, StressClass.NEUTRAL),
            (WordPosition.WORD_INNER, StressClass.AUXILIARY),
        ]
        for line, message in [
            ("ni3|W,Q .", "unknown flag(s) ['Q'] in 'ni3|W,Q'"),
            ("ni3|W,I .", "token 'ni3|W,I' needs exactly one of flags W or I"),
            ("ni3| .", "token 'ni3|' needs exactly one of flags W or I"),
            ("ni3|K .", "token 'ni3|K' needs exactly one of flags W or I"),
            ("ni3|I,K,A .", "token 'ni3|I,K,A' is both keyword and auxiliary"),
            ("ni3|W,E hao3|I .", "flag E is only valid on the sentence-final syllable"),
        ]:
            with pytest.raises(LyricFormatError) as info:
                parse_lyrics(f"ni3|W .\n{line}")
            assert str(info.value) == f"line 2: {message}"

    def test_blank_lines_skipped(self):
        lyr = parse_lyrics("ni3|W .\n\nhao3|W ?\n")
        assert len(lyr.sentences) == 2

    @pytest.mark.parametrize("mark", ["²", "٣"])
    def test_only_ascii_digits_are_tone_marks(self, mark):
        lyrics = parse_lyrics(f"ab{mark}|W cd|I .")
        assert lyrics.syllables[0].text == f"ab{mark}"
        assert lyrics.syllables[0].tone is Tone.UNSTRESSED
        assert parse_lyrics(serialize_lyrics(lyrics)) == lyrics


class TestIntonation:
    @pytest.mark.parametrize(
        "mark,expected",
        [
            ("?", Intonation.RISING),
            ("？", Intonation.RISING),
            (".", Intonation.FALLING),
            ("!", Intonation.FALLING),
            ("。", Intonation.FALLING),
            ("！", Intonation.FALLING),
            (",", Intonation.NEUTRAL),
            ("、", Intonation.NEUTRAL),
            (";", Intonation.NEUTRAL),
            ("x", Intonation.NEUTRAL),
        ],
    )
    def test_mapping(self, mark, expected):
        assert detect_intonation(mark) is expected

    def test_total_over_char_domain(self):
        for code in range(0, 0x3000, 37):
            assert detect_intonation(chr(code)) in Intonation


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        src = "ni3|W,K cai3|I hong2|I .\nyue4|W,A liang4|I ?\nming2|W tian1|I ,"
        first = parse_lyrics(src)
        again = parse_lyrics(serialize_lyrics(first))
        assert again == first

    def test_random_round_trips(self):
        rng = random.Random(7)
        for tonal in (True, False):
            for _ in range(30):
                lyr = random_lyrics(rng, sentences=rng.randint(1, 4), tonal=tonal)
                assert parse_lyrics(serialize_lyrics(lyr)) == lyr

    def test_json_mirror_round_trip(self):
        lyr = parse_lyrics("ni3|W,K cai3|I hong2|I .\nhao3|W ?")
        assert lyrics_from_json(lyrics_to_json(lyr)) == lyr

    @pytest.mark.parametrize("tone", [None, "none", "unstressed"])
    def test_json_stress_syllable_without_mark_reads_unstressed(self, tone):
        # the text format writes no mark for either, and reads none back as unstressed
        doc = json.loads(lyrics_to_json(parse_lyrics("hel'|W lo|I .")))
        syllable = doc["sentences"][0]["syllables"][1]
        syllable.pop("tone")
        if tone is not None:
            syllable["tone"] = tone
        lyr = lyrics_from_json(json.dumps(doc))
        assert lyr.syllables[1].tone is Tone.UNSTRESSED
        assert lyr == parse_lyrics(serialize_lyrics(lyr)) == parse_lyrics("hel'|W lo|I .")

    def test_json_detected_by_leading_brace(self):
        lyr = parse_lyrics("ni3|W,K cai3|I .")
        assert parse_lyrics(lyrics_to_json(lyr)) == lyr

    @pytest.mark.parametrize("text, message", [
        (5, "syllable text 5 is not one word"),
        ("", "syllable text '' is not one word"),
        ("a b", "syllable text 'a b' is not one word"),
        ("a|b", "syllable text 'a|b' is not one word"),
        ("ni3", "unmarked syllable text 'ni3' ends in a tone mark"),
        ("ni'", "unmarked syllable text \"ni'\" ends in a tone mark"),
        ("{ni", "first syllable text '{ni' opens with '{'"),
    ])
    def test_json_text_that_cannot_be_written_back_refused(self, text, message):
        doc = json.loads(lyrics_to_json(parse_lyrics("hao|W ma|I .")))
        doc["sentences"][0]["syllables"][0]["text"] = text
        with pytest.raises(LyricFormatError) as info:
            lyrics_from_json(json.dumps(doc))
        assert message in str(info.value)


class TestRandomLyricsAgainstReference:
    def test_seeded_sheets_and_rng_state_match_the_text_round_trip(self):
        """Every seeded fixture sheet equals the one its draws spell as text
        and parse back, and leaves the generator in the same state, so every
        draw after it (each golden's fixtures) is the same too."""
        languages = set()
        for seed in range(300):
            for tonal in (True, False):
                for repeat in (False, True):
                    for sentences in (1, 2, 3):
                        rng, twin = random.Random(seed), random.Random(seed)
                        sheet = random_lyrics(rng, sentences, tonal, repeat)
                        want = reference_random_lyrics(twin, sentences, tonal, repeat)
                        where = (seed, tonal, repeat, sentences)
                        assert sheet == want and rng.getstate() == twin.getstate(), where
                        languages.add(sheet.language)
        assert languages == {Language.TONAL, Language.STRESS_ACCENT}


class TestParserAgainstReference:
    """``parse_lyrics`` reads each line in one pass; the reference is the
    parser it replaced, which read each line three times.  Both must read
    every text to equal sheets, or refuse it with the same message."""

    #: the format's own characters, the digits it refuses, a brace, a
    #: superscript two and a few whitespace characters
    ALPHABET = "anoy WIKAE|,.?'0123456789\n\t{²"

    @classmethod
    def mutate(cls, rng, text):
        """``text`` with one character inserted, deleted or replaced, or one
        token given a flag (E, valid only at a line's end, or K, A, W or I),
        its W and I swapped, or its text cut to its last character."""
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(6)
        if op == 0:
            return text[:i] + rng.choice(cls.ALPHABET) + text[i:]
        if op >= 4:
            tokens = text.split(" ")
            k = rng.randrange(len(tokens))
            if op == 5:
                body, _, flags = tokens[k].partition("|")
                tokens[k] = rng.choice([body[-1:] + "|" + flags,
                                        tokens[k].translate({ord("W"): "I", ord("I"): "W"})])
            else:
                tokens[k] += rng.choice([",E", ",E", ",K", ",A", ",W", ",I"])
            return " ".join(tokens)
        i = min(i, len(text) - 1)
        if op == 1:
            return text[:i] + text[i + 1:]
        return text[:i] + rng.choice(cls.ALPHABET) + text[i + 1:]

    def check(self, text):
        """'parsed' or the refusal's message, after checking the two readers agree."""
        try:
            want = reference_parse_lyrics(text)
        except LyricFormatError as exc:
            with pytest.raises(LyricFormatError) as info:
                parse_lyrics(text)
            assert str(info.value) == str(exc), text
            return str(exc)
        got = parse_lyrics(text)
        assert got == want and got.language is want.language, text
        return "parsed"

    @pytest.mark.parametrize("text", [
        "ni3|W,E hao3|I .",  # E before the line's end
        "ni3|W,E hao3|Q .",  # a malformed token after it outranks a misplaced E
        "ni3|W,E hao0|I .",
        "ni3|W,E hao3|I,E .",
        "ni3|I,E hao3|I,E .",  # E outranks a first syllable without W
        "ni3|W hao3|I,E .\nhi'|W,E there|W ?",
        "ni3|W,E .\nhi'|W .",  # a misplaced mark after a valid E
    ])
    def test_the_first_fault_of_a_line_is_the_one_named(self, text):
        self.check(text)

    def test_mutated_sheets_read_or_fail_as_the_reference_does(self):
        rng = random.Random(20261040)
        outcomes = Counter()
        for case in range(2000):
            sheet = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=case % 2 == 0,
                                  repeat=case % 4 < 2)
            text = serialize_lyrics(sheet)
            for _ in range(rng.randint(0, 3)):
                text = self.mutate(rng, text)
            outcome = self.check(text)
            outcomes[re.sub(r"^line \d+: |['\"[].*", "", outcome)] += 1
        assert outcomes["parsed"] >= 400
        refusals = {"flag E is only valid on the sentence-final syllable",
                    "malformed syllable token ", "tone digit out of range in ",
                    "unknown flag(s) ", "token ", "empty syllable text in ",
                    "tonal and stress-accent tone marks mixed in one input",
                    "first syllable of a sentence must carry W",
                    "line must end with a single punctuation token, got "}
        assert refusals <= set(outcomes), outcomes


class TestLoaderFuzz:
    """Seeded mutations of serialized lyrics, characters of the text format or
    nodes of the JSON mirror: every mutated input either parses or raises an
    ``InputError``, and whatever parses round-trips through
    ``serialize_lyrics``."""

    # the format's own characters, plus a few it never writes
    ALPHABET = "abnoy AWIKEei|,.?!'12345\n\t{}[]\":-0"

    @classmethod
    def mutate(cls, rng, text):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert" or not text:
            return text[:i] + rng.choice(cls.ALPHABET) + text[i:]
        i = min(i, len(text) - 1)
        if op == "delete":
            return text[:i] + text[i + 1:]
        return text[:i] + rng.choice(cls.ALPHABET) + text[i + 1:]

    def test_mutations_parse_or_fail_cleanly(self):
        rng = random.Random(20261023)
        parsed = 0
        for case in range(3000):
            text = serialize_lyrics(random_lyrics(rng, sentences=rng.randint(1, 3),
                                                  tonal=case % 2 == 0))
            for _ in range(rng.randint(1, 3)):
                text = self.mutate(rng, text)
            try:
                lyrics = parse_lyrics(text)
            except InputError:
                continue
            parsed += 1
            assert parse_lyrics(serialize_lyrics(lyrics)) == lyrics, text
        assert 300 <= parsed <= 2700  # both outcomes are common

    #: JSON values a mutation puts in place of a node of a JSON sheet
    JSON_VALUES = [None, True, 0, 5, 1.5, "", " ", "a b", "a|b", "a\nb", "ni", "ni3", "ni'",
                   "ni²", "{ni", "tone3", "stressed", "unstressed", "none", "start", "inner",
                   "keyword", "rising", "tonal", "stress", [], {},
                   {"text": "ni", "tone": "tone2", "word_position": "inner"}]

    def test_json_mutations_load_or_fail_and_keep_texts(self):
        outcomes = {"loaded": 0, "refused": 0}
        for seed in range(1500):
            rng = random.Random(seed)
            sheet = random_lyrics(rng, sentences=rng.randint(1, 3), tonal=seed % 2 == 0)
            doc = json.loads(lyrics_to_json(sheet))
            if sheet.language is Language.TONAL:
                # with no tonal tone, the text format would read it back as stress-accent
                toneless = deepcopy(doc)
                for sent in toneless["sentences"]:
                    for syllable in sent["syllables"]:
                        syllable["tone"] = "none"
                with pytest.raises(LyricFormatError, match="tonal sheet needs a syllable"):
                    lyrics_from_json(json.dumps(toneless))
            text = mutated_json(rng, doc, self.JSON_VALUES)
            try:
                lyrics = lyrics_from_json(text)
            except InputError:
                outcomes["refused"] += 1
                continue
            outcomes["loaded"] += 1
            again = parse_lyrics(serialize_lyrics(lyrics))
            assert [s.text for s in again.syllables] == [s.text for s in lyrics.syllables], text
            assert again == lyrics, text  # tones, flags and intonations too
        assert min(outcomes.values()) >= 20, outcomes


class TestStructureMatrix:
    def test_abab_pairs_to_first_occurrences(self):
        # four sentences of three syllables; 3rd repeats 1st, 4th repeats 2nd
        src = (
            "ni3|W cai3|I hong2|I .\n"
            "yue4|W liang4|I ming2|I .\n"
            "ni3|W cai3|I hong2|I .\n"
            "yue4|W liang4|I ming2|I ."
        )
        matrix = build_structure_matrix(parse_lyrics(src))
        assert matrix.pairs == frozenset(
            {(6, 0), (7, 1), (8, 2), (9, 3), (10, 4), (11, 5)}
        )

    def test_all_distinct_gives_empty_matrix(self):
        src = "ni3|W cai3|I .\nyue4|W liang4|I ."
        assert build_structure_matrix(parse_lyrics(src)).pairs == frozenset()

    def test_triple_repeat_anchors_to_earliest(self):
        src = "ni3|W hao3|I .\n" * 3
        lyr = parse_lyrics(src)
        matrix = build_structure_matrix(lyr)

        # brute-force pairing oracle: all same-group sentence pairs, keep the
        # earliest j for every i
        texts = [
            tuple(lyr.syllables[k].text.lower() for k in range(*sent.span))
            for sent in lyr.sentences
        ]
        expected = {}
        for b, sent_b in enumerate(lyr.sentences):
            for a, sent_a in enumerate(lyr.sentences[:b]):
                if texts[a] != texts[b]:
                    continue
                for off in range(len(sent_b)):
                    i = sent_b.span[0] + off
                    j = sent_a.span[0] + off
                    expected[i] = min(expected.get(i, j), j)
        assert matrix.pairs == frozenset(expected.items())

    def test_tone_digits_ignored_in_normalization(self):
        src = "ma1|W ma1|I .\nma3|W ma3|I ."
        matrix = build_structure_matrix(parse_lyrics(src))
        assert matrix.pairs == frozenset({(2, 0), (3, 1)})

    def test_matches_sentence_groups(self):
        # mixed-case copies in random layouts, tonal and stress-accent
        rng = random.Random(20261020)
        repeated = 0
        for case in range(300):
            lyr = repeat_layout_lyrics(rng, tonal=case % 2 == 0, repeat=case % 3 != 0)
            got = build_structure_matrix(lyr)
            assert got.pairs == reference_build_structure_matrix(lyr).pairs
            assert got.partner == dict(got.pairs)
            repeated += bool(got.pairs)
        assert repeated >= 200  # every repeat layout

    def test_partner_is_derived_only(self):
        with pytest.raises(TypeError, match="partner"):
            StructureMatrix(pairs=frozenset({(1, 0)}), partner={5: 9})
        assert StructureMatrix(pairs=frozenset({(1, 0), (3, 2)})).partner == {1: 0, 3: 2}

    @pytest.mark.parametrize("pair", [(2, 2), (1, 3)])
    def test_pair_must_point_back(self, pair):
        message = re.escape(f"structure pair {pair} must satisfy j < i")
        with pytest.raises(ValueError, match=message):
            StructureMatrix(pairs=frozenset({(1, 0), pair}))

    def test_pair_offsets_agree(self):
        rng = random.Random(11)
        for _ in range(20):
            lyr = random_lyrics(rng, sentences=2, repeat=True)
            matrix = build_structure_matrix(lyr)
            for i, j in matrix.pairs:
                assert j < i
                sent_i, sent_j = lyr.sentence_of(i), lyr.sentence_of(j)
                assert i - sent_i.span[0] == j - sent_j.span[0]
