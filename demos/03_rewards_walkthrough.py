"""The six sub-rewards, one by one, on small good/bad cases.

Tone: pitch shape of a melisma, pitch transition between adjacent
syllables, pitch contour of a sentence.  Rhythm: strong/weak word
placement and pause positions.  Structure: repeated phrases echoing their
anchor's intervals.  The decoder adds lambda-weighted sums of these to the
base model's log-probability at every step.
"""

from lyricmelody import (
    BeatStrength,
    Intonation,
    StressClass,
    Tone,
    default_reward_config,
    parse_lyrics,
    pitch_contour_reward,
    pitch_shape_reward,
    pitch_transition_reward,
    score_rewards,
    strong_weak_reward,
    structure_reward,
)
from lyricmelody.rewards import BoundaryKind, pause_reward
from lyricmelody import Melody, note

config = default_reward_config()

print("pitch shape (multi-note syllables only):")
print("  tone2 rising  [60,64] ->", pitch_shape_reward(Tone.TONE2, [60, 64], config))
print("  tone2 falling [64,60] ->", pitch_shape_reward(Tone.TONE2, [64, 60], config))
print("  tone1 level   [60,60] ->", pitch_shape_reward(Tone.TONE1, [60, 60], config))
print("  tone3 dipping [62,58,61] ->", pitch_shape_reward(Tone.TONE3, [62, 58, 61], config))

print("\npitch transition (harmony degrees -> 3/2/1/0):")
for delta in (3, 1, 0, -6):
    degree = config.harmony_table.degree_of(Tone.TONE4, Tone.TONE1, delta)
    reward = pitch_transition_reward((Tone.TONE4, Tone.TONE1), delta, config)
    print(f"  tone4->tone1, jump {delta:+d}: {degree.value:9s} -> {reward}")

print("\npitch contour (sentence intonation vs first/last pitch):")
print("  question rising 60->65  ->", pitch_contour_reward(Intonation.RISING, 60, 65, config))
print("  question falling 65->60 ->", pitch_contour_reward(Intonation.RISING, 65, 60, config))

print("\nstrong/weak placement:")
print("  keyword on strong beat   ->", strong_weak_reward(StressClass.KEYWORD, BeatStrength.STRONG, config))
print("  auxiliary on strong beat ->", strong_weak_reward(StressClass.AUXILIARY, BeatStrength.STRONG, config))

print("\npauses (word-inner pauses and missing sentence pauses are the bad cases):")
print("  pause inside a word        ->", pause_reward(True, BoundaryKind.WORD_INNER, config))
print("  pause at a word boundary   ->", pause_reward(True, BoundaryKind.WORD_BOUNDARY, config))
print("  sentence ends with no pause->", pause_reward(False, BoundaryKind.SENTENCE_BOUNDARY, config))

print("\nstructure (repeated position vs its anchor):")
print("  same interval        ->", structure_reward(2, 2, config))
print("  octave-shifted (+12) ->", structure_reward(14, 2, config))
print("  unrelated            ->", structure_reward(3, 2, config))

# A whole pair can be scored in one call; this is also how decode results
# are re-checked from scratch.
lyrics = parse_lyrics("ni3|W,K hao3|I .\nni3|W,K hao3|I .")
melody = Melody((note(60, 1), note(62, 1), note(60, 1), note(62, 1)))
summary = score_rewards(lyrics, melody, config)
print("\nwhole-pair reward scan:")
for aspect, total in summary.by_aspect.items():
    print(f"  {aspect.value:9s} raw sum {total}")
print(f"  weighted total (lambdas {config.lambda_tone}/{config.lambda_rhythm}/{config.lambda_structure}): {summary.total}")
