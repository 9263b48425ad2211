"""Melody tokens, bar offsets, pause events, and MIDI round-trips.

A melody is a flat list of note/rest tokens with exact rational durations
(quarter-note units).  The syllable flag on each note encodes melisma:
True opens the next syllable's span, False continues the current one.
"""

from fractions import Fraction

from lyricmelody import (
    default_reward_config,
    note,
    parse_lyrics,
    read_midi,
    rest,
    write_midi,
    Melody,
)
from lyricmelody.rewards import reward_events

lyrics = parse_lyrics("shan1|W,K shui3|I yun2|W,A hai3|I .")

# four syllables; the third one is sung over two notes (a melisma)
melody = Melody(
    tokens=(
        note(67, 1),                # shan
        note(65, 1),                # shui
        note(64, Fraction(1, 2)),   # yun ...
        note(62, Fraction(1, 2), start=False),  # ... still yun
        rest(1),
        note(60, 2),                # hai
    ),
    time_signature=(4, 4),
)
print("syllable alignment (token spans):", melody.alignment)

print("\ntoken offsets in the 4/4 bar, in quarters (beats 1 and 3 are strong):")
position = Fraction(0)
for tok in melody.tokens:
    offset = position % 4
    strength = "strong" if offset in (0, 2) else "weak"
    label = f"pitch {tok.pitch}" if tok.is_note else "rest"
    print(f"  offset {str(offset):4s}  {strength:6s}  {label}")
    position += tok.duration

config = default_reward_config()
print("\npause events, one per syllable gap (a rest or a long final note pauses;")
print("pauses belong at word and sentence boundaries, never inside a word):")
pauses = [(i, ev) for i, ev in reward_events(lyrics, melody, config) if ev.kind == "pause"]
for gap, (index, event) in enumerate(pauses):
    verdict = "matched" if event.matched else "missed"
    print(f"  gap {gap} ({event.boundary.value}) at token {index}: {verdict}, "
          f"reward {event.value} of {event.maximum}")

# MIDI round-trip: 480 ticks per quarter, lyrics embedded at syllable starts
data = write_midi(melody, lyrics)
print(f"\nwrote {len(data)} bytes of standard MIDI")
assert read_midi(data) == melody
print("read_midi(write_midi(m)) == m")
