"""lyricmelody: melody generation from annotated lyrics under
music-theoretic constraints, plus the matching objective evaluation suite.

The pipeline in one breath: parse annotated lyrics (tones, word boundaries,
stress classes, intonation), train or load a base melody scorer, then decode
note-by-note while adding tone / rhythm / structure rewards to each step's
log-probability; evaluate any lyrics+melody pair with the same rulebook.

See README.md for the file formats and demos/ for runnable walkthroughs.
"""

__version__ = "0.1.0"

from .errors import (
    AlignmentError,
    ConfigError,
    InputError,
    InternalError,
    LyricFormatError,
    LyricMelodyError,
    MidiFormatError,
    OptionError,
    TrainingError,
)
from .lyrics import (
    Intonation,
    Language,
    LyricSequence,
    Sentence,
    StressClass,
    StructureMatrix,
    Syllable,
    Tone,
    WordPosition,
    build_structure_matrix,
    detect_intonation,
    lyrics_from_json,
    lyrics_to_json,
    parse_lyrics,
    serialize_lyrics,
)
from .melody import (
    BeatStrength,
    Melody,
    MelodyToken,
    RhythmToken,
    TokenKind,
    melody_from_json,
    melody_to_json,
    note,
    rest,
)
from .midi import read_midi, write_midi
from .rewards import (
    ALL_ASPECTS,
    Aspect,
    HarmonyDegree,
    HarmonyTable,
    PRESET_LAMBDAS,
    RewardConfig,
    default_reward_config,
    load_reward_config,
    pause_reward,
    pitch_contour_reward,
    pitch_shape_reward,
    pitch_transition_reward,
    score_rewards,
    strong_weak_reward,
    structure_reward,
)
from .scorer import (
    END,
    ModelBundle,
    NGramModel,
    UniformScorer,
    Vocabulary,
    build_melody_vocabulary,
    train_model_bundle,
    train_ngram,
)
from .decoder import (
    DecodeMode,
    DecodeOptions,
    DecodeResult,
    Pipeline,
    beam_search,
    beam_search_hard,
    decode,
    decode_two_stage,
    rerank,
    sample,
    score_decode,
    score_two_stage,
)
from .metrics import (
    EvaluationReport,
    aggregate_reports,
    evaluate_pair,
    melody_distance,
    structure_similarity,
)
from .synthetic import random_aligned_melody, random_lyrics, random_training_melody
