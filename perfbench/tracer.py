"""Spans around lyricmelody's public functions, recorded from outside.

The traced run rebinds each function named in ``TRACED`` to a wrapper that
records a span (name, start, end, parent, op id) and hands the call through
unchanged.  Every ``lyricmelody`` module namespace that holds the function
is rebound, so calls that go through ``from .x import f`` names are caught
as well.  :class:`TracedScorer` implements the ``Scorer`` protocol
(``vocab`` + ``log_prob_dist``) around a model and records one span per
call; in a traced CLI process ``ModelBundle.from_json`` hands out such
proxies in place of the models it loads.

Nothing inside the program changes; private names are never touched.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable

#: (layer, module, attribute) of every function the traced run rebinds.
TRACED = (
    ("lyrics", "lyricmelody.lyrics", "parse_lyrics"),
    ("lyrics", "lyricmelody.lyrics", "build_structure_matrix"),
    ("midi", "lyricmelody.midi", "read_midi"),
    ("midi", "lyricmelody.midi", "write_midi"),
    ("rewards", "lyricmelody.rewards", "score_rewards"),
    ("scorer", "lyricmelody.scorer", "train_model_bundle"),
    ("decoder", "lyricmelody.decoder", "decode"),
    ("decoder", "lyricmelody.decoder", "beam_search"),
    ("decoder", "lyricmelody.decoder", "beam_search_hard"),
    ("decoder", "lyricmelody.decoder", "sample"),
    ("decoder", "lyricmelody.decoder", "rerank"),
    ("decoder", "lyricmelody.decoder", "decode_two_stage"),
    ("metrics", "lyricmelody.metrics", "evaluate_pair"),
    ("metrics", "lyricmelody.metrics", "structure_similarity"),
    ("metrics", "lyricmelody.metrics", "melody_distance"),
)

DECODER_SPANS = frozenset(
    f"decoder.{attr}" for layer, _, attr in TRACED if layer == "decoder"
)

# span tuple fields
NAME, START, END, PARENT, OP, EXTRA = range(6)


def _decode_extra(result) -> dict:
    return {"tokens": len(result.melody.tokens), "relaxations": len(result.relaxation_steps)}


def _midi_extra(result) -> dict:
    return {"bytes": len(result)}


_EXTRAS: dict[str, Callable] = {
    "decoder.beam_search": _decode_extra,
    "decoder.beam_search_hard": _decode_extra,
    "midi.write_midi": _midi_extra,
}


class Tracer:
    """Span recorder for one process; ``op`` is set by the caller per op
    (-1 marks set-up)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        extra = _EXTRAS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, self.stack[-1] if self.stack else -1, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self.stack.pop()
            if extra is not None:
                span[EXTRA] = extra(result)
            return result

        return traced

    def install(self, wrap_models: bool = False) -> Callable[[], None]:
        """Rebind every traced function; returns the function that undoes it.

        With ``wrap_models`` the bundles ``ModelBundle.from_json`` returns
        hold :class:`TracedScorer` proxies instead of the bare models.
        """
        import lyricmelody.scorer as scorer_mod

        undo: list[tuple[object, str, object]] = []
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "lyricmelody" or n.startswith("lyricmelody."))
        ]
        for layer, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(f"{layer}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

        bundle_cls = scorer_mod.ModelBundle
        to_json = bundle_cls.__dict__["to_json"]
        from_json = bundle_cls.__dict__["from_json"]
        traced_load = self.wrap("scorer.ModelBundle.from_json", from_json.__func__)

        def load(cls, text):
            bundle = traced_load(cls, text)
            if not wrap_models:
                return bundle
            return cls(*(TracedScorer(self, m) for m in (
                bundle.token_model, bundle.rhythm_model, bundle.pitch_model
            )))

        undo.append((bundle_cls, "to_json", to_json))
        undo.append((bundle_cls, "from_json", from_json))
        bundle_cls.to_json = self.wrap("scorer.ModelBundle.to_json", to_json)
        bundle_cls.from_json = classmethod(load)

        def uninstall() -> None:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

        return uninstall

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class TracedScorer:
    """``Scorer`` proxy: one span per ``log_prob_dist`` call, tagged with
    whether its context tail (the last ``order - 1`` tokens) is new to this
    proxy."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self.vocab = inner.vocab
        self.inner = inner
        self.tracer = tracer
        self.tail = max(getattr(inner, "order", 1) - 1, 0)
        self.seen: set = set()

    def log_prob_dist(self, context):
        tail = tuple(context[len(context) - self.tail:]) if self.tail else ()
        first = tail not in self.seen
        if first:
            self.seen.add(tail)
        tracer = self.tracer
        span = ["scorer.log_prob_dist", time.perf_counter(), 0.0,
                tracer.stack[-1] if tracer.stack else -1, tracer.op, {"first": first}]
        tracer.spans.append(span)
        result = self.inner.log_prob_dist(context)
        span[END] = time.perf_counter()
        return result


def load_spans(path: Path, op: int, offset: int) -> list[list]:
    """Spans a traced child wrote, re-tagged with the parent's op id and
    with parent links shifted by ``offset``."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            span[OP] = op
            if span[PARENT] >= 0:
                span[PARENT] += offset
            spans.append(span)
    return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own

