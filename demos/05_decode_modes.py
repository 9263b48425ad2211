"""The decoding modes side by side on one song.

Soft constraints add the weighted rewards to each step's score; hard
constraints mask out candidates that violate any triggered constraint
(falling back to soft scoring when nothing survives); sampling draws from
a temperature-softened top-k; re-ranking generates unconstrained samples
and keeps the best by combined score; two-stage decoding beam-decodes a
rhythm skeleton first and pitches second.  One ``DecodeOptions.mode``
picks the decoder.
"""

import random

from lyricmelody import (
    DecodeMode,
    DecodeOptions,
    decode,
    default_reward_config,
    evaluate_pair,
    serialize_lyrics,
    train_model_bundle,
)
from lyricmelody.synthetic import random_lyrics, random_training_melody

rng = random.Random(12)
bundle = train_model_bundle([random_training_melody(rng) for _ in range(20)], order=3)
lyrics = random_lyrics(rng, sentences=2, repeat=True)
config = default_reward_config()

print("lyrics:")
print(serialize_lyrics(lyrics))

runs = [
    ("soft beam", DecodeOptions(mode=DecodeMode.BEAM_SOFT, beam_width=4, seed=1)),
    ("hard beam", DecodeOptions(mode=DecodeMode.BEAM_HARD, beam_width=4, seed=1)),
    ("sampling", DecodeOptions(mode=DecodeMode.SAMPLE, top_k=5, temperature=0.5, seed=1)),
    ("re-ranking", DecodeOptions(mode=DecodeMode.RERANK, rerank_candidates=10, seed=1)),
    ("two-stage", DecodeOptions(mode=DecodeMode.TWO_STAGE, beam_width=4, seed=1)),
]

print(f"{'mode':12s} {'score':>9s} {'transition':>11s} {'s/w':>6s} {'pauses':>7s} {'MD':>6s}")
for label, options in runs:
    result = decode(
        lyrics,
        bundle.token_model,
        config,
        options,
        rhythm_scorer=bundle.rhythm_model,
        pitch_scorer=bundle.pitch_model,
    )
    report = evaluate_pair(lyrics, result.melody, config)
    md = "-" if report.md is None else f"{report.md:.2f}"
    print(
        f"{label:12s} {result.score:9.3f} {report.tone_transition:11.3f}"
        f" {report.matched_sw:6.2f} {report.matched_pauses:7.2f} {md:>6s}"
    )
    if result.relaxation_steps:
        print(f"{'':12s} hard constraints relaxed at steps {list(result.relaxation_steps)}")
