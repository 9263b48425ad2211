"""Per-layer metrics of a traced run, derived from its spans.

Metric names say how they are derived:

* ``<span>.self_ms`` -- self time of that span per op, in ms/op
  (``decoder.self_ms`` sums every decoder entry point, so it is the decode
  time not spent in scorer, lyrics or rewards children);
* ``<span>.ms`` -- median inclusive time per call, in ms;
* ``<span>.calls`` -- exact call count over the workload's first
  ``count_ops`` ops;
* ``decoder.tokens_out``, ``decoder.relaxation_steps`` and
  ``midi.write_midi.bytes`` -- exact sums over the same ops, read from the
  returned ``DecodeResult`` or MIDI bytes;
* ``scorer.log_prob_dist.first_us`` / ``repeat_us`` -- mean time per call
  on a context tail the scorer proxy has not / has seen before;
* ``cli.*_ms`` -- median process wall times.

All times are scaled by the machine's speed around them (``speed.py``).

Each metric also names its home workload: the one whose short traced pass
supplies it when the named workload never calls that layer.
"""

from __future__ import annotations

import statistics

from tracer import DECODER_SPANS, END, EXTRA, NAME, OP, START, self_times
from workloads import COMMANDS

_DECODES = ("decoder.beam_search", "decoder.beam_search_hard")

#: (name, unit, home workload)
PER_LAYER = (
    ("decoder.beam_search.ms", "ms", "beam"),
    ("decoder.beam_search_hard.ms", "ms", "beam"),
    ("decoder.self_ms", "ms/op", "beam"),
    ("decoder.tokens_out", "count", "beam"),
    ("decoder.relaxation_steps", "count", "beam"),
    ("scorer.log_prob_dist.calls", "count", "cli"),
    ("scorer.log_prob_dist.self_ms", "ms/op", "cli"),
    ("scorer.log_prob_dist.first_us", "us", "cli"),
    ("scorer.log_prob_dist.repeat_us", "us", "cli"),
    ("scorer.train_model_bundle.ms", "ms", "beam"),
    ("scorer.ModelBundle.from_json.ms", "ms", "beam"),
    ("scorer.ModelBundle.to_json.ms", "ms", "beam"),
    ("rewards.score_rewards.calls", "count", "evaluate"),
    ("rewards.score_rewards.self_ms", "ms/op", "evaluate"),
    ("metrics.evaluate_pair.self_ms", "ms/op", "evaluate"),
    ("metrics.structure_similarity.self_ms", "ms/op", "evaluate"),
    ("metrics.melody_distance.calls", "count", "evaluate"),
    ("metrics.melody_distance.self_ms", "ms/op", "evaluate"),
    ("midi.read_midi.self_ms", "ms/op", "evaluate"),
    ("midi.write_midi.self_ms", "ms/op", "cli"),
    ("midi.write_midi.bytes", "bytes", "cli"),
    ("lyrics.parse_lyrics.self_ms", "ms/op", "evaluate"),
    ("lyrics.build_structure_matrix.self_ms", "ms/op", "evaluate"),
    ("cli.interpreter_ms", "ms", "cli"),
    ("cli.import_ms", "ms", "cli"),
    ("cli.import.numpy_ms", "ms", "cli"),
    ("cli.version_ms", "ms", "cli"),
    ("cli.train_ms", "ms", "cli"),
    *((f"cli.{c}_ms", "ms", "cli") for c in COMMANDS if c.startswith("generate.")),
    ("cli.evaluate_ms", "ms", "cli"),
    ("bench.trace_overhead", "ratio", None),
)

_EXTRA_SUMS = {
    "decoder.tokens_out": (_DECODES, "tokens"),
    "decoder.relaxation_steps": (_DECODES, "relaxations"),
    "midi.write_midi.bytes": (("midi.write_midi",), "bytes"),
}


def from_spans(spans: list, n_ops: int, count_ops: int, scale: dict) -> dict:
    """Every span-derived metric the spans reach; layers never called in an
    op are left out.  ``scale`` maps an op id (-1 for set-up) to the speed
    factor of its time (see ``speed.py``)."""
    factor = [scale[s[OP]] for s in spans]
    own = [t * f for t, f in zip(self_times(spans), factor)]
    took = [(s[END] - s[START]) * f for s, f in zip(spans, factor)]
    in_ops = [k for k, s in enumerate(spans) if s[OP] >= 0]
    counted = [k for k in in_ops if spans[k][OP] < count_ops]
    names_in_ops = {spans[k][NAME] for k in in_ops}
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            wanted = DECODER_SPANS if name == "decoder.self_ms" else {name[: -len(".self_ms")]}
            if wanted & names_in_ops:
                out[name] = sum(own[k] for k in in_ops if spans[k][NAME] in wanted) * 1e3 / n_ops
        elif name.endswith(".calls"):
            span = name[: -len(".calls")]
            if span in names_in_ops:
                out[name] = sum(1 for k in counted if spans[k][NAME] == span)
        elif name.endswith(".ms"):
            span = name[: -len(".ms")]
            times = [took[k] for k in in_ops if spans[k][NAME] == span]
            if not times and span.startswith("scorer."):  # trained in set-up
                times = [took[k] for k, s in enumerate(spans) if s[NAME] == span]
            if times:
                out[name] = statistics.median(times) * 1e3
        elif name in _EXTRA_SUMS:
            wanted, field = _EXTRA_SUMS[name]
            if names_in_ops & set(wanted):
                out[name] = sum(
                    spans[k][EXTRA][field] for k in counted if spans[k][NAME] in wanted
                )
        elif name.startswith("scorer.log_prob_dist."):
            first = name.endswith("first_us")
            times = [
                took[k] for k in in_ops
                if spans[k][NAME] == "scorer.log_prob_dist" and spans[k][EXTRA]["first"] == first
            ]
            if times:
                out[name] = statistics.fmean(times) * 1e6
    return out


def cli_commands(wl, plain: list[float]) -> dict:
    """Median plain wall time per CLI command (``cli`` workload only)."""
    if wl.name != "cli":
        return {}
    out = {}
    for command in COMMANDS[1:]:
        times = [t for i, t in enumerate(plain) if wl.command(i) == command]
        out[f"cli.{command}_ms"] = statistics.median(times) * 1e3
    return out


def combine(workload: str, own: dict, passes: dict, processes: dict) -> tuple[dict, dict]:
    """Pick each metric from the named workload, else from its home pass,
    else from any pass; returns the values and where each came from."""
    values, sources = {}, {}
    for name, _, home in PER_LAYER:
        candidates = [("processes", processes), (workload, own), (home, passes.get(home, {}))]
        candidates += sorted(passes.items())
        for source, found in candidates:
            if name in found:
                values[name], sources[name] = found[name], source
                break
        else:
            values[name], sources[name] = 0, "not reached"
    return values, sources
