"""Standard MIDI File I/O for monophonic melodies.

Supports the subset this toolkit produces and consumes: format 0/1, one
melodic track, PPQ timing.  Writing always uses 480 ticks per quarter, one
tempo event and one time-signature event.  The syllable flag survives the
round trip through lyric meta-events: syllable-starting notes carry their
syllable text (``~`` placeholder when no lyrics are attached), melisma
continuations carry ``-``.  Files without lyric events read back with every
note starting a syllable.

Inter-note gaps of at least one tick become rest tokens; silence before the
first note is dropped, and a gap between the last note-off and the
end-of-track event becomes a trailing rest.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import Optional

from .errors import MidiFormatError
from .lyrics import LyricSequence
from .melody import Melody, MelodyToken, TokenKind

__all__ = ["read_midi", "write_midi", "TICKS_PER_QUARTER"]

TICKS_PER_QUARTER = 480

_DEFAULT_TEMPO_US = 500_000  # 120 bpm


def _encode_vlq(value: int) -> bytes:
    if value < 0:
        raise MidiFormatError(f"negative delta time {value}")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MidiFormatError("truncated MIDI file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def byte(self) -> int:
        return self.take(1)[0]

    def peek(self) -> int:
        if self.pos >= len(self.data):
            raise MidiFormatError("truncated MIDI file")
        return self.data[self.pos]

    def vlq(self) -> int:
        value = 0
        for _ in range(4):
            b = self.byte()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MidiFormatError("variable-length quantity longer than 4 bytes")


def write_midi(melody: Melody, lyrics: Optional[LyricSequence] = None) -> bytes:
    """Serialize a melody to SMF format 0 at 480 TPQ.

    With ``lyrics`` given, syllable texts are embedded at syllable-starting
    notes (counts must match).  Every duration must be representable in
    whole ticks.
    """
    if lyrics is not None and melody.syllable_count != len(lyrics):
        raise MidiFormatError(
            f"melody covers {melody.syllable_count} syllables, lyrics have {len(lyrics)}"
        )

    def ticks(duration: Fraction) -> int:
        t = duration * TICKS_PER_QUARTER
        if t.denominator != 1:
            raise MidiFormatError(f"duration {duration} is not a whole number of ticks")
        return int(t)

    num, den = melody.time_signature
    if den & (den - 1) != 0:
        raise MidiFormatError(f"time signature denominator {den} is not a power of two")
    track = bytearray()
    track += _encode_vlq(0) + bytes([0xFF, 0x58, 0x04, num, den.bit_length() - 1, 24, 8])
    track += _encode_vlq(0) + bytes([0xFF, 0x51, 0x03]) + _DEFAULT_TEMPO_US.to_bytes(3, "big")

    syllable = 0
    pending = 0
    for tok in melody.tokens:
        if tok.kind is TokenKind.REST:
            pending += ticks(tok.duration)
            continue
        if tok.syllable_start:
            text = lyrics.syllables[syllable].text if lyrics is not None else "~"
            syllable += 1
        else:
            text = "-"
        encoded = text.encode("utf-8")
        track += _encode_vlq(pending) + bytes([0xFF, 0x05]) + _encode_vlq(len(encoded)) + encoded
        track += _encode_vlq(0) + bytes([0x90, tok.pitch, 80])
        track += _encode_vlq(ticks(tok.duration)) + bytes([0x80, tok.pitch, 0])
        pending = 0
    track += _encode_vlq(pending) + bytes([0xFF, 0x2F, 0x00])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER)
    return header + b"MTrk" + struct.pack(">I", len(track)) + bytes(track)


def _parse_track(reader: _Reader, length: int) -> list[tuple[int, str, tuple]]:
    """Return (tick, kind, payload) events from one MTrk chunk."""
    end = reader.pos + length
    events: list[tuple[int, str, tuple]] = []
    tick = 0
    status = None
    while reader.pos < end:
        tick += reader.vlq()
        first = reader.peek()
        if first >= 0x80:
            status = reader.byte()
        elif status is None:
            raise MidiFormatError("running status with no prior status byte")
        if status == 0xFF:
            meta = reader.byte()
            data = reader.take(reader.vlq())
            if meta == 0x05:
                events.append((tick, "lyric", (data.decode("utf-8", errors="replace"),)))
            elif meta == 0x58 and len(data) >= 2:
                events.append((tick, "timesig", (data[0], 1 << data[1])))
            elif meta == 0x2F:
                events.append((tick, "end", ()))
                break
            status = None  # meta events cancel running status
            continue
        if status in (0xF0, 0xF7):  # sysex
            reader.take(reader.vlq())
            status = None
            continue
        kind = status & 0xF0
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            d1, d2 = reader.byte(), reader.byte()
        elif kind in (0xC0, 0xD0):
            d1, d2 = reader.byte(), 0
        else:
            raise MidiFormatError(f"unexpected status byte 0x{status:02x}")
        if kind == 0x90 and d2 > 0:
            events.append((tick, "on", (d1,)))
        elif kind == 0x80 or (kind == 0x90 and d2 == 0):
            events.append((tick, "off", (d1,)))
    else:
        raise MidiFormatError("track chunk missing end-of-track event")
    reader.pos = end
    return events


def read_midi(data: bytes) -> Melody:
    """Parse SMF bytes back into a Melody.

    Rejects SMPTE timing, more than one note-bearing track, and any overlap
    between notes (polyphony).
    """
    reader = _Reader(data)
    if reader.take(4) != b"MThd":
        raise MidiFormatError("not a Standard MIDI File (missing MThd)")
    header_len = struct.unpack(">I", reader.take(4))[0]
    if header_len < 6:
        raise MidiFormatError("malformed MThd chunk")
    fmt, ntracks, division = struct.unpack(">HHH", reader.take(6))
    reader.take(header_len - 6)
    if fmt not in (0, 1):
        raise MidiFormatError(f"unsupported MIDI format {fmt}")
    if division & 0x8000:
        raise MidiFormatError("SMPTE timing is not supported")
    if division == 0:
        raise MidiFormatError("zero ticks-per-quarter division")

    tracks: list[list[tuple[int, str, tuple]]] = []
    for _ in range(ntracks):
        while True:
            chunk_id = reader.take(4)
            chunk_len = struct.unpack(">I", reader.take(4))[0]
            if chunk_id == b"MTrk":
                break
            reader.take(chunk_len)  # skip alien chunks
        tracks.append(_parse_track(reader, chunk_len))

    note_tracks = [t for t in tracks if any(kind == "on" for _, kind, _ in t)]
    if not note_tracks:
        raise MidiFormatError("no notes found in any track")
    if len(note_tracks) > 1:
        raise MidiFormatError("more than one note-bearing track is not supported")
    melodic = note_tracks[0]

    time_signature = (4, 4)
    for track in tracks:
        sigs = [payload for _, kind, payload in track if kind == "timesig"]
        if sigs:
            time_signature = sigs[0]
            break

    # note-offs sort before note-ons at the same tick so back-to-back notes
    # don't register as overlap
    order = {"off": 0, "lyric": 1, "on": 2, "timesig": 3, "end": 4}
    melodic.sort(key=lambda e: (e[0], order[e[1]]))

    lyric_at: dict[int, str] = {}
    notes: list[tuple[int, int, int]] = []  # (start_tick, end_tick, pitch)
    active: Optional[tuple[int, int]] = None  # (pitch, start_tick)
    end_tick = None
    for tick, kind, payload in melodic:
        if kind == "lyric":
            lyric_at[tick] = payload[0]
        elif kind == "on":
            if active is not None:
                raise MidiFormatError(
                    f"polyphony at tick {tick}: note {payload[0]} starts while "
                    f"note {active[0]} is sounding"
                )
            active = (payload[0], tick)
        elif kind == "off":
            if active is None or active[0] != payload[0]:
                raise MidiFormatError(f"unmatched note-off for pitch {payload[0]} at tick {tick}")
            if tick <= active[1]:
                raise MidiFormatError(f"zero-length note at tick {active[1]}")
            notes.append((active[1], tick, active[0]))
            active = None
        elif kind == "end":
            end_tick = tick
    if active is not None:
        raise MidiFormatError(f"note {active[0]} never receives a note-off")
    if not notes:
        raise MidiFormatError("no complete notes in melodic track")

    tokens: list[MelodyToken] = []
    prev_end = notes[0][0]  # leading silence is dropped
    for start, stop, pitch in notes:
        if start > prev_end:
            tokens.append(MelodyToken(TokenKind.REST, Fraction(start - prev_end, division)))
        text = lyric_at.get(start)
        starts_syllable = text != "-"
        tokens.append(
            MelodyToken(TokenKind.NOTE, Fraction(stop - start, division), pitch, starts_syllable)
        )
        prev_end = stop
    if end_tick is not None and end_tick > prev_end:
        tokens.append(MelodyToken(TokenKind.REST, Fraction(end_tick - prev_end, division)))
    return Melody(tuple(tokens), time_signature)
