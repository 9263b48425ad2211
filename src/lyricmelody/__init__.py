"""lyricmelody: melody generation from annotated lyrics under
music-theoretic constraints, plus the matching objective evaluation suite.

The pipeline in one breath: parse annotated lyrics (tones, word boundaries,
stress classes, intonation), train or load a base melody scorer, then decode
note-by-note while adding tone / rhythm / structure rewards to each step's
log-probability; evaluate any lyrics+melody pair with the same rulebook.

``import lyricmelody`` runs no submodule's code.  Each submodule sits in
``sys.modules`` (and here, under its own name) from the start, and its code
runs on its first attribute read, once, under one lock, so threads that
touch it first at the same time all see it whole.  The first read of a
package name (``lyricmelody.decode``) runs every submodule, in the order of
``_EXPORTS``, and each binds its names here as its code runs.

See README.md for the file formats and demos/ for runnable walkthroughs.
"""

import sys
import threading
import types
from importlib.util import find_spec, module_from_spec

__version__ = "0.1.0"

#: each submodule, in the order the package runs them, and the names it exports here
_EXPORTS = {
    "errors": (
        "AlignmentError", "ConfigError", "InputError", "InternalError", "LyricFormatError",
        "LyricMelodyError", "MidiFormatError", "OptionError", "TrainingError",
    ),
    "lyrics": (
        "Intonation", "Language", "LyricSequence", "Sentence", "StressClass",
        "StructureMatrix", "Syllable", "Tone", "WordPosition", "build_structure_matrix",
        "detect_intonation", "lyrics_from_json", "lyrics_to_json", "parse_lyrics",
        "serialize_lyrics",
    ),
    "melody": (
        "BeatStrength", "Melody", "MelodyToken", "RhythmToken", "TokenKind",
        "melody_from_json", "melody_to_json", "note", "rest",
    ),
    "midi": ("read_midi", "write_midi"),
    "rewards": (
        "ALL_ASPECTS", "Aspect", "HarmonyDegree", "HarmonyTable", "PRESET_LAMBDAS",
        "RewardConfig", "default_reward_config", "load_reward_config", "pause_reward",
        "pitch_contour_reward", "pitch_shape_reward", "pitch_transition_reward",
        "score_rewards", "strong_weak_reward", "structure_reward",
    ),
    "scorer": (
        "END", "ModelBundle", "NGramModel", "UniformScorer", "Vocabulary",
        "build_melody_vocabulary", "train_model_bundle", "train_ngram",
    ),
    "decoder": (
        "DecodeMode", "DecodeOptions", "DecodeResult", "beam_search", "beam_search_hard",
        "decode", "decode_two_stage", "rerank", "sample", "score_decode", "score_two_stage",
    ),
    "metrics": (
        "EvaluationReport", "aggregate_reports", "evaluate_pair", "melody_distance",
        "structure_similarity",
    ),
    "synthetic": ("random_aligned_melody", "random_lyrics", "random_training_melody"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_LOCK = threading.RLock()
#: the submodules whose code is running; only the thread that holds the lock reads it
_LOADING: set = set()
_read = types.ModuleType.__getattribute__


class _Deferred(types.ModuleType):
    """A submodule whose code has not run.  The first attribute read runs it,
    binds its ``_EXPORTS`` names in the package and makes it a plain module;
    the running code's own reads (as in a circular import) pass through."""

    def __getattribute__(self, attr):
        with _LOCK:
            name = _read(self, "__name__")
            if type(self) is _Deferred and name not in _LOADING:
                _LOADING.add(name)
                try:
                    _read(self, "__spec__").loader.exec_module(self)
                    namespace = _read(self, "__dict__")
                    globals().update((n, namespace[n]) for n in _EXPORTS[name.rpartition(".")[2]])
                except BaseException:
                    sys.modules.pop(name, None)
                    raise
                finally:
                    _LOADING.discard(name)
                # only now: a plain module is read without the lock
                self.__class__ = types.ModuleType
        return _read(self, attr)


for _name in _EXPORTS:
    _full = f"{__name__}.{_name}"
    _module = sys.modules.get(_full)
    if _module is None:
        _module = sys.modules[_full] = module_from_spec(find_spec(_full))
        _module.__class__ = _Deferred
    globals()[_name] = _module
del _name, _full, _module


def __getattr__(name):
    for module in _EXPORTS:  # runs every submodule that has not run
        vars(globals()[module])
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted(set(globals()) | set(__all__))
