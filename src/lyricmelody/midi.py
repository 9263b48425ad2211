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

from .errors import AlignmentError, MidiFormatError
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
        if tok.kind is _REST:
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
_OFF, _LYRIC, _ON = range(3)
_NOTE, _REST = TokenKind.NOTE, TokenKind.REST  # read per token: a global, not a class attribute


def _parse_track(data: bytes, pos: int, length: int
                 ) -> tuple[list[tuple[int, object]], Optional[tuple[int, int]], int]:
    """The MTrk chunk whose body starts at ``pos``: its (order, value) events,
    its first time signature as (numerator, denominator) or None, and the
    tick of its end-of-track event.  An event's order is its tick times four
    plus its kind, so sorting by order alone takes one tick's events in kind
    order and the events of one kind in file order; its value is a pitch for
    a note-on or -off, the raw text of a lyric.  Data bytes are read up to the
    end of the file, even past the chunk's stated length."""
    end = pos + length
    events: list[tuple[int, object]] = []
    append = events.append
    meter = None
    tick = 0
    status = None
    try:
        while pos < end:
            b = data[pos]
            if b < 0x80:  # most delta times fit one byte, a note's length two
                tick += b
                pos += 1
            elif data[pos + 1] < 0x80:
                tick += (b & 0x7F) << 7 | data[pos + 1]
                pos += 2
            else:
                delta, pos = _vlq(data, pos)
                tick += delta
            b = data[pos]
            if b >= 0x80:
                status = b
                pos += 1
            elif status is None:
                raise MidiFormatError("running status with no prior status byte")
            if status < 0xA0:  # a note-off or -on: two of every three events a melody has
                pitch, velocity = data[pos], data[pos + 1]
                pos += 2
                append((tick << 2 | (_ON if status >= 0x90 and velocity else _OFF), pitch))
            elif status == 0xFF:
                meta, size = data[pos], data[pos + 1]
                if size < 0x80:  # as is every lyric's length, up to 127 bytes
                    pos += 2
                else:
                    size, pos = _vlq(data, pos + 1)
                start, pos = pos, _take(data, pos, size)
                if meta == 0x05:
                    append((tick << 2 | _LYRIC, data[start:pos]))
                elif meta == 0x58 and size >= 2 and meter is None:
                    meter = (data[start], 1 << data[start + 1])
                elif meta == 0x2F:
                    return events, meter, tick
                status = None  # meta events cancel running status
            elif status in (0xF0, 0xF7):  # sysex
                size, pos = _vlq(data, pos)
                pos = _take(data, pos, size)
                status = None
            elif status < 0xF0:  # the other channel events: one data byte, or two
                pos = _take(data, pos, 1 if 0xC0 <= status < 0xE0 else 2)
            else:
                raise MidiFormatError(f"unexpected status byte 0x{status:02x}")
    except IndexError:
        raise MidiFormatError("truncated MIDI file") from None
    raise MidiFormatError("track chunk missing end-of-track event")


class _Ratios(dict):
    """Tick counts to their (numerator, denominator) over one file's
    division, reduced by one ``gcd`` per tick count, on its first read."""

    __slots__ = ("division",)

    def __init__(self, division: int):
        self.division = division

    def __missing__(self, ticks: int) -> tuple[int, int]:
        g = gcd(ticks, self.division)
        self[ticks] = ratio = (ticks // g, self.division // g)
        return ratio


def read_midi(data: bytes) -> Melody:
    """Parse SMF bytes back into a Melody.

    Rejects SMPTE timing, more than one note-bearing track, any overlap
    between notes (polyphony), a note that carries the melisma lyric ``-``
    where no syllable is open (the first note, or one after a rest), and a
    note pitch or time signature that :class:`~lyricmelody.melody.Melody`
    rejects.
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

    tracks: list[tuple] = []
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

    note_tracks = [track for track in tracks
                   if any(order & 3 == _ON for order, _ in track[0])]
    if not note_tracks:
        raise MidiFormatError("no notes found in any track")
    if len(note_tracks) > 1:
        raise MidiFormatError("more than one note-bearing track is not supported")
    events, _, end_tick = note_tracks[0]
    time_signature = next((meter for _, meter, _ in tracks if meter is not None), (4, 4))
    events.sort(key=itemgetter(0))

    # one walk, in tick order, to each token's key in the token table: a
    # note's at its note-off, a rest's at the next note-on or the track's end
    keys: list[tuple] = []
    ratios = _Ratios(division)
    pitch = start = starts = None  # the sounding note: pitch, start tick, opens a syllable
    last_end = None  # the last note-off's tick: silence before the first note is dropped
    melisma_at = None  # the tick of the last lyric read, if that lyric was "-"
    orphan = None  # (tick, pitch) of the first "-" note with no syllable open
    for order, value in events:
        tick, kind = order >> 2, order & 3
        if kind == _OFF:
            if value != pitch:
                raise MidiFormatError(f"unmatched note-off for pitch {value} at tick {tick}")
            num, den = ratios[tick - start]
            keys.append((MelodyToken, _NOTE, num, den, pitch, starts))
            last_end, pitch = tick, None
        elif kind == _ON:
            if pitch is not None:
                raise MidiFormatError(
                    f"polyphony at tick {tick}: note {value} starts while note {pitch} is sounding"
                )
            starts = melisma_at != tick  # a melisma continuation carries the lyric "-"
            if last_end is None or tick > last_end:  # the first note, or one after a rest
                if last_end is not None:
                    num, den = ratios[tick - last_end]
                    keys.append((MelodyToken, _REST, num, den, None, False))
                if not starts and orphan is None:
                    orphan = (tick, value)
            pitch, start = value, tick
        else:
            melisma_at = tick if value == b"-" else None
    if pitch is not None:
        raise MidiFormatError(f"note {pitch} never receives a note-off")
    if end_tick > last_end:
        num, den = ratios[end_tick - last_end]
        keys.append((MelodyToken, _REST, num, den, None, False))

    try:
        tokens = list(map(_TOKENS.get, keys))
        if None in tokens:  # a token no read or melody built before, through its checks
            tokens = [token or MelodyToken(kind, Fraction(num, den), pitch, starts)
                      for token, (_, kind, num, den, pitch, starts) in zip(tokens, keys)]
        return Melody(tokens, time_signature)
    except ValueError as exc:  # a pitch above 127, a zero-numerator meter
        raise MidiFormatError(str(exc)) from exc
    except AlignmentError:  # the one stream rule the walk's tokens can break: ``orphan``'s
        tick, pitch = orphan
        raise MidiFormatError(f"note {pitch} at tick {tick} carries the melisma lyric '-' "
                              f"but no syllable is open") from None
