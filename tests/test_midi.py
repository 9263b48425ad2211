import random
import struct
from collections import Counter
from fractions import Fraction

import pytest

from lyricmelody import (AlignmentError, InputError, Melody, MidiFormatError, evaluate_pair,
                         melody_from_json, melody_to_json, parse_lyrics, read_midi, write_midi)
from lyricmelody.midi import TICKS_PER_QUARTER, _encode_vlq
from lyricmelody.synthetic import random_aligned_melody, random_lyrics, random_training_melody
from conftest import mk_melody
from reference import reference_read_midi


class TestRoundTrip:
    def test_simple_melody(self):
        m = mk_melody([(60, 1), (62, "1/2", False), ("r", 1), (64, 2)])
        assert read_midi(write_midi(m)) == m

    def test_trailing_rest_survives(self):
        m = mk_melody([(60, 1), (62, 1), ("r", 2)])
        assert read_midi(write_midi(m)) == m

    def test_time_signature_survives(self):
        m = mk_melody([(60, 1), (62, 1)], (3, 4))
        assert read_midi(write_midi(m)).time_signature == (3, 4)

    @pytest.mark.parametrize("meter", [(4, 6), (300, 4), (4, 2 ** 256)])
    def test_meter_a_file_cannot_hold_rejected(self, meter):
        # the numerator and the denominator's exponent are one byte each, and
        # a Melody holds no meter a file cannot, so none reaches write_midi
        with pytest.raises(ValueError, match="unsupported meter"):
            mk_melody([(60, 1), (62, 1)], meter)
        # nor a duration of no whole number of ticks
        with pytest.raises(MidiFormatError, match="1/7 is not a whole number of ticks"):
            write_midi(mk_melody([(60, 1), (62, "1/7")], (4, 4)))

    def test_lyrics_attached_at_syllable_starts(self):
        lyr = parse_lyrics("ni3|W hao3|I .")
        m = mk_melody([(60, 1), (61, 1, False), (62, 1)])
        data = write_midi(m, lyr)
        assert "ni".encode() in data and "hao".encode() in data
        assert read_midi(data) == m

    def test_random_melodies(self, rng):
        for _ in range(200):
            m = random_training_melody(rng, length=rng.randint(3, 30))
            assert read_midi(write_midi(m)) == m

    def test_gap_of_480_ticks_reads_as_quarter_rest(self):
        m = mk_melody([(60, 1), ("r", 1), (62, 1)])
        back = read_midi(write_midi(m))
        rest_token = back.tokens[1]
        assert rest_token.duration == Fraction(1)

    def test_long_lyric_and_long_note_read_back(self):
        # a lyric of 128 bytes or more has a two-byte length, and a note of
        # 2**14 ticks or more a three-byte delta time: each past the inline read
        for text in ("a" * 127, "a" * 128, "a" * 300):
            lyr = parse_lyrics(f"{text}|W b|W c|W .")
            m = mk_melody([(60, 1), (62, 40), ("r", 1), (64, "1/4")])
            data = write_midi(m, lyr)
            assert bytes([0xFF, 0x05]) + _encode_vlq(len(text)) + text.encode() in data
            assert _encode_vlq(40 * TICKS_PER_QUARTER) + bytes([0x80, 62, 0]) in data
            assert read_midi(data) == m

    def test_syllable_count_mismatch_rejected(self):
        lyr = parse_lyrics("ni3|W hao3|I tian1|W .")
        m = mk_melody([(60, 1)])
        with pytest.raises(AlignmentError):
            write_midi(m, lyr)


def _raw_track(events: bytes) -> bytes:
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER)
    return header + b"MTrk" + struct.pack(">I", len(events)) + events


class TestErrors:
    def test_truncated_file(self):
        m = mk_melody([(60, 1), (62, 1)])
        data = write_midi(m)
        with pytest.raises(MidiFormatError):
            read_midi(data[: len(data) // 2])
        # a delta time whose continuation bits run past the 4 bytes SMF allows
        events = bytes([0x81, 0x81, 0x81, 0x81, 0x01, 0xFF, 0x2F, 0x00])
        with pytest.raises(MidiFormatError, match="longer than 4 bytes"):
            read_midi(_raw_track(events))

    @pytest.mark.parametrize("events", [
        bytes([0x00, 0xFF, 0x05]),  # before its length
        bytes([0x00, 0xFF, 0x05, 0x03]),  # after its one-byte length
        bytes([0x00, 0xFF, 0x05, 0x03]) + b"ab",  # inside its text
        bytes([0x00, 0xFF, 0x05, 0x81]),  # inside a two-byte length
        bytes([0x00, 0x90, 60, 80, 0x83]),  # inside a two-byte delta time
    ], ids=["no length", "no text", "short text", "short length", "short delta"])
    def test_event_cut_off_is_truncated(self, events):
        with pytest.raises(MidiFormatError) as info:
            read_midi(_raw_track(events))
        assert str(info.value) == "truncated MIDI file"

    def test_not_midi(self):
        with pytest.raises(MidiFormatError):
            read_midi(b"RIFFnothing")

    def test_polyphony_rejected(self):
        # two note-ons at different pitches without an intervening note-off
        events = (
            _encode_vlq(0) + bytes([0x90, 60, 80])
            + _encode_vlq(0) + bytes([0x90, 64, 80])
            + _encode_vlq(480) + bytes([0x80, 60, 0])
            + _encode_vlq(0) + bytes([0x80, 64, 0])
            + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
        )
        with pytest.raises(MidiFormatError, match="polyphony"):
            read_midi(_raw_track(events))
        # or in two tracks of a format 1 file
        track = (_encode_vlq(0) + bytes([0x90, 60, 80]) + _encode_vlq(480) + bytes([0x80, 60, 0])
                 + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00]))
        chunk = b"MTrk" + struct.pack(">I", len(track)) + track
        data = b"MThd" + struct.pack(">IHHH", 6, 1, 2, TICKS_PER_QUARTER) + chunk * 2
        with pytest.raises(MidiFormatError, match="more than one note-bearing track"):
            read_midi(data)

    def test_smpte_division_rejected(self):
        header = b"MThd" + struct.pack(">IHHh", 6, 0, 1, -24 * 256 + 80)
        with pytest.raises(MidiFormatError):
            read_midi(header)
        with pytest.raises(MidiFormatError, match="zero ticks-per-quarter"):
            read_midi(b"MThd" + struct.pack(">IHHH", 6, 0, 1, 0))

    def test_unmatched_note_off(self):
        events = (
            _encode_vlq(0) + bytes([0x80, 60, 0])
            + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
        )
        with pytest.raises(MidiFormatError):
            read_midi(_raw_track(events))
        # note-offs are taken before note-ons at one tick, so a note that ends
        # where it starts leaves its note-off unmatched: no zero-length note reads
        events = (
            _encode_vlq(0) + bytes([0x90, 60, 80])
            + _encode_vlq(0) + bytes([0x80, 60, 0])
            + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
        )
        with pytest.raises(MidiFormatError, match="unmatched note-off for pitch 60 at tick 0"):
            read_midi(_raw_track(events))

    def test_note_without_off(self):
        events = (
            _encode_vlq(0) + bytes([0x90, 60, 80])
            + _encode_vlq(480) + bytes([0xFF, 0x2F, 0x00])
        )
        with pytest.raises(MidiFormatError):
            read_midi(_raw_track(events))

    def test_zero_time_signature_numerator(self):
        events = (
            _encode_vlq(0) + bytes([0xFF, 0x58, 0x04, 0, 2, 24, 8])
            + _encode_vlq(0) + bytes([0x90, 60, 80])
            + _encode_vlq(480) + bytes([0x80, 60, 0])
            + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
        )
        with pytest.raises(MidiFormatError, match="time signature"):
            read_midi(_raw_track(events))

    def test_pitch_above_127(self):
        events = (
            _encode_vlq(0) + bytes([0x90, 200, 80])
            + _encode_vlq(480) + bytes([0x80, 200, 0])
            + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
        )
        with pytest.raises(MidiFormatError, match="pitch"):
            read_midi(_raw_track(events))


class TestForeignFiles:
    def test_leading_silence_dropped(self):
        # with a sysex event in it, which is skipped
        events = (
            _encode_vlq(0) + bytes([0xF0, 0x03, 0x7E, 0x7F, 0xF7])
            + _encode_vlq(960) + bytes([0x90, 60, 80])
            + _encode_vlq(480) + bytes([0x80, 60, 0])
            + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
        )
        melody = read_midi(_raw_track(events))
        assert len(melody.tokens) == 1
        assert melody.tokens[0].pitch == 60

    def test_notes_without_lyric_events_all_start_syllables(self):
        events = (
            _encode_vlq(0) + bytes([0x90, 60, 80])
            + _encode_vlq(480) + bytes([0x80, 60, 0])
            + _encode_vlq(0) + bytes([0x90, 62, 80])
            + _encode_vlq(480) + bytes([0x80, 62, 0])
            + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
        )
        melody = read_midi(_raw_track(events))
        assert [t.syllable_start for t in melody.tokens] == [True, True]

    def test_running_status_supported(self):
        events = (
            _encode_vlq(0) + bytes([0x90, 60, 80])
            + _encode_vlq(480) + bytes([60, 0])  # running status: note-on vel 0 = off
            + _encode_vlq(0) + bytes([62, 80])
            + _encode_vlq(480) + bytes([62, 0])
            + _encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])
        )
        melody = read_midi(_raw_track(events))
        assert [t.pitch for t in melody.tokens] == [60, 62]


class TestFuzzAgainstReference:
    METERS = [(4, 4), (3, 4), (6, 8), (2, 2)]
    #: meter parts to draw from: some a file can hold, and 0, 3 and 6 (no
    #: denominator), 256 and 2**256 (too big), bools, floats and a negative
    METER_PARTS = [1, 2, 4, 6, 8, 255, 2 ** 255, 0, 3, 256, 2 ** 256, True, False, 4.0, -4]

    def test_seeded_meters_never_build_or_round_trip(self, config):
        """Seeded meters beside ``METERS``: a Melody refuses each meter a MIDI
        file cannot hold with ValueError, and one in any other meter comes
        back equal, meter included, through MIDI and through JSON, and
        evaluates alike."""
        rng = random.Random(11)
        built = 0
        for n in range(120):
            meter = self.METERS[n % 4] if n % 3 == 0 else (
                rng.choice(self.METER_PARTS), rng.choice(self.METER_PARTS))
            num, den = meter
            holdable = (type(num) is int and type(den) is int and 1 <= num <= 255
                        and den in {2 ** e for e in range(256)})
            lyr = random_lyrics(rng, sentences=1 + n % 2, tonal=n % 2 == 0, repeat=n % 3 == 0)
            tokens = random_aligned_melody(lyr, rng).tokens
            if not holdable:
                with pytest.raises(ValueError, match="unsupported meter"):
                    Melody(tokens, meter)
                continue
            melody = Melody(tokens, meter)
            report = evaluate_pair(lyr, melody, config)
            for back in (read_midi(write_midi(melody, lyr)),
                         melody_from_json(melody_to_json(melody))):
                assert back == melody and back.time_signature == meter, (n, meter)
                assert evaluate_pair(lyr, back, config) == report, (n, meter)
            built += 1
        assert 50 < built < 100

    def test_byte_mutations(self):
        """Seeded single-byte replacements, deletions and insertions of
        ``write_midi`` output: where the one-slice-per-byte reference reader
        returns a melody, ``read_midi`` returns an equal one in the same
        meter; anywhere else it raises an InputError and nothing else."""
        rng = random.Random(5)
        files = []
        for j in range(12):
            lyr = random_lyrics(rng, sentences=1 + j % 2, tonal=j % 2 == 0, repeat=j % 3 == 0)
            melody = Melody(random_aligned_melody(lyr, rng).tokens, self.METERS[j % 4])
            files.append(write_midi(melody, lyr if j % 2 else None))
        outcomes = Counter()
        for n in range(3000):
            data = bytearray(files[n % len(files)])
            op, i = rng.randrange(3), rng.randrange(len(data))
            if op == 0:
                data[i] = rng.randrange(256)
            elif op == 1:
                del data[i]
            else:
                data.insert(i, rng.randrange(256))
            data = bytes(data)
            try:
                want = reference_read_midi(data)
            except Exception:  # the reference may fail any way it likes
                with pytest.raises(InputError):
                    read_midi(data)
                outcomes["error"] += 1
                continue
            got = read_midi(data)
            assert got == want and got.time_signature == want.time_signature, n
            outcomes["melody"] += 1
        assert outcomes["melody"] > 300 and outcomes["error"] > 300
