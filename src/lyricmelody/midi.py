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
from math import gcd
from operator import itemgetter
from typing import Optional

from .errors import MidiFormatError
from .lyrics import LyricSequence
from .melody import Melody, MelodyToken, TokenKind, _RATIOS, _TOKENS, _check_aligned

__all__ = ["read_midi", "write_midi", "TICKS_PER_QUARTER"]

TICKS_PER_QUARTER = 480

_DEFAULT_TEMPO_US = 500_000  # 120 bpm

#: the largest variable-length quantity a file holds: four bytes of seven bits
_MAX_VLQ = 0x0FFFFFFF


def _encode_vlq(value: int) -> bytes:
    """A MIDI variable-length quantity: ``value`` is a tick count, never negative."""
    if value > _MAX_VLQ:
        raise MidiFormatError(f"variable-length quantity {value} is over the 4-byte limit "
                              f"{_MAX_VLQ} (0x0FFFFFFF) of a MIDI file")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


def _vlq(data: bytes, pos: int) -> tuple[int, int]:
    """The variable-length quantity at ``pos`` and the position after it;
    raises IndexError when the data ends inside it."""
    value = 0
    for pos in range(pos, pos + 4):
        b = data[pos]
        value = (value << 7) | (b & 0x7F)
        if not b & 0x80:
            return value, pos + 1
    raise MidiFormatError("variable-length quantity longer than 4 bytes")


def _take(data: bytes, pos: int, n: int) -> int:
    """The position ``n`` bytes past ``pos``, if the data reaches it."""
    if pos + n > len(data):
        raise MidiFormatError("truncated MIDI file")
    return pos + n


def write_midi(melody: Melody, lyrics: Optional[LyricSequence] = None) -> bytes:
    """Serialize a melody to SMF format 0 at 480 TPQ.

    With ``lyrics`` given, syllable texts are embedded at syllable-starting
    notes (counts must match, else AlignmentError).  Every duration must be a whole number
    of ticks, and a note or a run of rests at most 0x0FFFFFFF; the meter is one a Melody
    holds, so one the file can hold.
    """
    if lyrics is not None:
        _check_aligned(lyrics, melody)

    num, den = melody.time_signature
    track = bytearray()
    track += _encode_vlq(0) + bytes([0xFF, 0x58, 0x04, num, den.bit_length() - 1, 24, 8])
    track += _encode_vlq(0) + bytes([0xFF, 0x51, 0x03]) + _DEFAULT_TEMPO_US.to_bytes(3, "big")

    syllable = 0
    pending = 0
    for tok in melody.tokens:
        n, d = _RATIOS[tok]
        ticks, inexact = divmod(n * TICKS_PER_QUARTER, d)
        if inexact:
            raise MidiFormatError(f"duration {tok.duration} is not a whole number of ticks")
        if tok.kind is TokenKind.REST:
            pending += ticks
            continue
        if tok.syllable_start:
            text = lyrics.syllables[syllable].text if lyrics is not None else "~"
            syllable += 1
        else:
            text = "-"
        encoded = text.encode("utf-8")
        track += _encode_vlq(pending) + bytes([0xFF, 0x05]) + _encode_vlq(len(encoded)) + encoded
        track += _encode_vlq(0) + bytes([0x90, tok.pitch, 80])
        track += _encode_vlq(ticks) + bytes([0x80, tok.pitch, 0])
        pending = 0
    track += _encode_vlq(pending) + bytes([0xFF, 0x2F, 0x00])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER)
    return header + b"MTrk" + struct.pack(">I", len(track)) + bytes(track)


# track event kinds, numbered in the order events at one tick are taken:
# note-offs before note-ons, so back-to-back notes don't register as overlap
_OFF, _LYRIC, _ON, _TIMESIG, _END = range(5)


def _parse_track(data: bytes, pos: int, length: int) -> list[tuple[int, int, object]]:
    """(tick, kind, value) events of the MTrk chunk whose body starts at
    ``pos``: a pitch for a note-on or -off, the raw text of a lyric, a
    (numerator, denominator) time signature.  Data bytes are read up to the
    end of the file, even past the chunk's stated length."""
    end = pos + length
    events: list[tuple[int, int, object]] = []
    tick = 0
    status = None
    try:
        while pos < end:
            if data[pos] < 0x80:  # most delta times fit one byte, a note's length two
                tick += data[pos]
                pos += 1
            elif data[pos + 1] < 0x80:
                tick += (data[pos] & 0x7F) << 7 | data[pos + 1]
                pos += 2
            else:
                delta, pos = _vlq(data, pos)
                tick += delta
            if data[pos] >= 0x80:
                status = data[pos]
                pos += 1
            elif status is None:
                raise MidiFormatError("running status with no prior status byte")
            if status == 0xFF:
                meta, size = data[pos], data[pos + 1]
                if size < 0x80:  # as is every lyric's length, up to 127 bytes
                    pos += 2
                else:
                    size, pos = _vlq(data, pos + 1)
                start, pos = pos, _take(data, pos, size)
                if meta == 0x05:
                    events.append((tick, _LYRIC, data[start:pos]))
                elif meta == 0x58 and size >= 2:
                    events.append((tick, _TIMESIG, (data[start], 1 << data[start + 1])))
                elif meta == 0x2F:
                    events.append((tick, _END, None))
                    break
                status = None  # meta events cancel running status
                continue
            if status in (0xF0, 0xF7):  # sysex
                size, pos = _vlq(data, pos)
                pos = _take(data, pos, size)
                status = None
                continue
            kind = status & 0xF0
            if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                d1, d2 = data[pos], data[pos + 1]
                pos += 2
            elif kind in (0xC0, 0xD0):
                d1, d2 = data[pos], 0
                pos += 1
            else:
                raise MidiFormatError(f"unexpected status byte 0x{status:02x}")
            if kind == 0x90 and d2 > 0:
                events.append((tick, _ON, d1))
            elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                events.append((tick, _OFF, d1))
        else:
            raise MidiFormatError("track chunk missing end-of-track event")
    except IndexError:
        raise MidiFormatError("truncated MIDI file") from None
    return events


def read_midi(data: bytes) -> Melody:
    """Parse SMF bytes back into a Melody.

    Rejects SMPTE timing, more than one note-bearing track, any overlap
    between notes (polyphony), and a note pitch or time signature that
    :class:`~lyricmelody.melody.Melody` rejects.
    """
    _take(data, 0, 4)
    if data[:4] != b"MThd":
        raise MidiFormatError("not a Standard MIDI File (missing MThd)")
    _take(data, 4, 4)
    header_len = struct.unpack_from(">I", data, 4)[0]
    if header_len < 6:
        raise MidiFormatError("malformed MThd chunk")
    _take(data, 8, 6)
    fmt, ntracks, division = struct.unpack_from(">HHH", data, 8)
    pos = _take(data, 14, header_len - 6)
    if fmt not in (0, 1):
        raise MidiFormatError(f"unsupported MIDI format {fmt}")
    if division & 0x8000:
        raise MidiFormatError("SMPTE timing is not supported")
    if division == 0:
        raise MidiFormatError("zero ticks-per-quarter division")

    tracks: list[list[tuple[int, int, object]]] = []
    for _ in range(ntracks):
        while True:
            body = _take(data, pos, 8)
            chunk_id = data[pos:pos + 4]
            chunk_len = struct.unpack_from(">I", data, pos + 4)[0]
            if chunk_id == b"MTrk":
                break
            pos = _take(data, body, chunk_len)  # skip alien chunks
        tracks.append(_parse_track(data, body, chunk_len))
        pos = body + chunk_len

    note_tracks = [t for t in tracks if any(kind == _ON for _, kind, _ in t)]
    if not note_tracks:
        raise MidiFormatError("no notes found in any track")
    if len(note_tracks) > 1:
        raise MidiFormatError("more than one note-bearing track is not supported")
    melodic = note_tracks[0]

    time_signature = (4, 4)
    for track in tracks:
        sigs = [value for _, kind, value in track if kind == _TIMESIG]
        if sigs:
            time_signature = sigs[0]
            break
    melodic.sort(key=itemgetter(0, 1))

    lyric_at: dict[int, bytes] = {}
    notes: list[tuple[int, int, int]] = []  # (start_tick, end_tick, pitch)
    active: Optional[tuple[int, int]] = None  # (pitch, start_tick)
    end_tick = None
    for tick, kind, value in melodic:
        if kind == _LYRIC:
            lyric_at[tick] = value
        elif kind == _ON:
            if active is not None:
                raise MidiFormatError(
                    f"polyphony at tick {tick}: note {value} starts while "
                    f"note {active[0]} is sounding"
                )
            active = (value, tick)
        elif kind == _OFF:
            if active is None or active[0] != value:
                raise MidiFormatError(f"unmatched note-off for pitch {value} at tick {tick}")
            notes.append((active[1], tick, active[0]))
            active = None
        elif kind == _END:
            end_tick = tick
    if active is not None:
        raise MidiFormatError(f"note {active[0]} never receives a note-off")

    def token(kind: TokenKind, ticks: int, pitch=None, starts=False) -> MelodyToken:
        # the interned token under its table key, ticks over division reduced;
        # only a miss goes through the checked constructor
        g = gcd(ticks, division)
        found = _TOKENS.get((MelodyToken, kind, ticks // g, division // g, pitch, starts))
        return found or MelodyToken(kind, Fraction(ticks, division), pitch, starts)

    tokens: list[MelodyToken] = []
    prev_end = notes[0][0]  # leading silence is dropped
    try:
        for start, stop, pitch in notes:
            if start > prev_end:
                tokens.append(token(TokenKind.REST, start - prev_end))
            # a melisma continuation carries the lyric "-"
            tokens.append(token(TokenKind.NOTE, stop - start, pitch, lyric_at.get(start) != b"-"))
            prev_end = stop
        if end_tick is not None and end_tick > prev_end:
            tokens.append(token(TokenKind.REST, end_tick - prev_end))
        return Melody(tuple(tokens), time_signature)
    except ValueError as exc:  # a pitch above 127, a zero-numerator meter
        raise MidiFormatError(str(exc)) from exc
