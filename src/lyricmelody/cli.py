"""Command-line front end: train, generate, evaluate, compare.

Exit codes: 0 success, 1 bad input or configuration, 2 broken internal
invariant.  Every generate run writes a manifest (inputs, config snapshot,
seed, output hashes) sufficient to reproduce it bit-exactly; all randomness
flows through the single seed passed on the command line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .decoder import (
    DecodeMode,
    DecodeOptions,
    DecodeResult,
    Pipeline,
    decode,
)
from .errors import AlignmentError, ConfigError, InputError, InternalError
from .lyrics import LyricSequence, parse_lyrics
from .melody import check_meter, melody_to_json
from .metrics import EvaluationReport, aggregate_reports, evaluate_pair
from .midi import read_midi, write_midi
from .rewards import (
    PRESET_LAMBDAS,
    RewardConfig,
    default_reward_config,
    load_reward_config,
    reward_config_to_dict,
)
from .scorer import ModelBundle, train_model_bundle

CONFIG_ENV_VAR = "LYRICMELODY_CONFIG"

_TABLE_COLUMNS = (
    ("tone_transition", "transition"),
    ("tone_contour", "contour"),
    ("matched_sw", "matched s/w"),
    ("matched_pauses", "matched pauses"),
    ("pd", "PD"),
    ("dd", "DD"),
    ("md", "MD"),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_config(path: Optional[str]) -> tuple[RewardConfig, Optional[Path]]:
    chosen = path or os.environ.get(CONFIG_ENV_VAR)
    if chosen:
        p = Path(chosen)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        return load_reward_config(p.read_text("utf-8")), p
    return default_reward_config(), None


def _load_lyrics(path: Path) -> LyricSequence:
    if not path.is_file():
        raise InputError(f"lyrics file not found: {path}")
    return parse_lyrics(path.read_text("utf-8"))


def _load_bundle(path: Path) -> ModelBundle:
    if not path.is_file():
        raise InputError(f"model file not found: {path}")
    return ModelBundle.from_json(path.read_text("utf-8"))


def _parse_time_signature(text: str) -> tuple[int, int]:
    try:
        num, den = (int(part) for part in text.split("/"))
        check_meter((num, den))
    except ValueError as exc:
        raise InputError(f"bad time signature {text!r} ({exc}), expected e.g. 4/4") from exc
    return (num, den)


def _format_value(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def render_table(rows: Sequence[tuple[str, dict]], label_header: str = "input") -> str:
    headers = [label_header] + [title for _, title in _TABLE_COLUMNS]
    body = [
        [label] + [_format_value(values.get(field)) for field, _ in _TABLE_COLUMNS]
        for label, values in rows
    ]
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *body)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    corpus_dir = Path(args.corpus_dir)
    if not corpus_dir.is_dir():
        raise InputError(f"corpus directory not found: {corpus_dir}")
    midi_paths = sorted(p for p in corpus_dir.iterdir() if p.suffix.lower() in (".mid", ".midi"))
    if not midi_paths:
        raise InputError(f"no MIDI files in {corpus_dir}")
    corpus = [read_midi(p.read_bytes()) for p in midi_paths]
    bundle = train_model_bundle(corpus, order=args.order, discount=args.discount)
    out = Path(args.out)
    out.write_text(bundle.to_json(), "utf-8")
    tokens = sum(len(m.tokens) for m in corpus)
    print(f"trained on {len(corpus)} melodies, {tokens} tokens")
    print(f"vocabulary: {len(bundle.token_model.vocab)} melody tokens")
    print(f"model written to {out}")
    return 0


def _decode_options(
    args: argparse.Namespace,
    mode: DecodeMode,
    pipeline: Pipeline,
    seed: int,
    time_signature: tuple[int, int],
) -> DecodeOptions:
    """The options of one decode: the shared decode flags of ``args`` and
    what the subcommand picks per run."""
    return DecodeOptions(
        mode=mode,
        beam_width=args.beam_width,
        top_k=args.top_k,
        temperature=args.temperature,
        rerank_candidates=args.candidates,
        pipeline=pipeline,
        max_notes_per_syllable=args.max_notes,
        seed=seed,
        time_signature=time_signature,
    )


def _run_decode(
    lyrics: LyricSequence, bundle: ModelBundle, config: RewardConfig, options: DecodeOptions
) -> DecodeResult:
    return decode(
        lyrics,
        bundle.token_model,
        config,
        options,
        rhythm_scorer=bundle.rhythm_model,
        pitch_scorer=bundle.pitch_model,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    lyrics_path = Path(args.lyrics)
    lyrics = _load_lyrics(lyrics_path)
    model_path = Path(args.model)
    bundle = _load_bundle(model_path)
    config, config_path = _load_config(args.config)
    if args.preset:
        config = config.with_preset(args.preset)
    options = _decode_options(args, DecodeMode(args.mode), Pipeline(args.pipeline), args.seed,
                              _parse_time_signature(args.time_signature))

    result = _run_decode(lyrics, bundle, config, options)

    out_midi = Path(args.out)
    out_midi.write_bytes(write_midi(result.melody, lyrics))
    tokens_path = out_midi.with_suffix(".tokens.json")
    tokens_path.write_text(melody_to_json(result.melody), "utf-8")
    manifest_path = out_midi.with_suffix(".manifest.json")
    manifest = {
        "tool": "lyricmelody",
        "version": __version__,
        "command": "generate",
        "inputs": {
            "lyrics": {"path": str(lyrics_path), "sha256": _sha256(lyrics_path)},
            "model": {"path": str(model_path), "sha256": _sha256(model_path)},
            "config": {
                "path": str(config_path) if config_path else None,
                "preset": args.preset,
                "snapshot": reward_config_to_dict(config),
            },
        },
        "options": {
            "mode": options.mode.value,
            "pipeline": options.pipeline.value,
            "beam_width": options.beam_width,
            "top_k": options.top_k,
            "temperature": options.temperature,
            "rerank_candidates": options.rerank_candidates,
            "max_notes_per_syllable": options.max_notes_per_syllable,
            "time_signature": list(options.time_signature),
            "seed": options.seed,
        },
        "result": {
            "score": result.score,
            "base_logprob": result.base_logprob,
            "reward_total": result.reward_total,
            "relaxation_steps": list(result.relaxation_steps),
        },
        "outputs": {
            "midi": {"path": str(out_midi), "sha256": _sha256(out_midi)},
            "tokens": {"path": str(tokens_path), "sha256": _sha256(tokens_path)},
        },
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), "utf-8")
    print(f"wrote {out_midi} (score {result.score:.4f})")
    return 0


def _evaluate_one(lyrics_path: Path, midi_path: Path, config: RewardConfig) -> EvaluationReport:
    lyrics = _load_lyrics(lyrics_path)
    melody = read_midi(midi_path.read_bytes())
    if melody.syllable_count != len(lyrics):
        mismatch = min(melody.syllable_count, len(lyrics))
        raise AlignmentError(
            f"{midi_path.name}: alignment fails at syllable {mismatch} "
            f"({melody.syllable_count} melody syllables vs {len(lyrics)} lyric syllables)"
        )
    return evaluate_pair(lyrics, melody, config)


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, config_path = _load_config(args.config)
    lyrics_path = Path(args.lyrics)
    midi_path = Path(args.midi)
    rows: list[tuple[str, dict]] = []
    if lyrics_path.is_dir() != midi_path.is_dir():
        raise InputError("lyrics and midi paths must both be files or both be directories")
    if lyrics_path.is_dir():
        pairs = []
        for lp in sorted(lyrics_path.iterdir()):
            if lp.suffix not in (".txt", ".lyrics", ".json"):
                continue
            mp = midi_path / (lp.stem + ".mid")
            if not mp.is_file():
                raise InputError(f"no MIDI counterpart for {lp.name} in {midi_path}")
            pairs.append((lp, mp))
        if not pairs:
            raise InputError(f"no lyric files in {lyrics_path}")
        for lp, mp in pairs:
            rows.append((lp.stem, _evaluate_one(lp, mp, config).to_dict()))
        rows.append(("mean", aggregate_reports([
            EvaluationReport(**values) for _, values in rows
        ])))
    else:
        rows.append((lyrics_path.stem, _evaluate_one(lyrics_path, midi_path, config).to_dict()))
    print(render_table(rows))
    if args.json:
        doc = {label: values for label, values in rows}
        doc["manifest"] = {
            "tool": "lyricmelody",
            "version": __version__,
            "command": "evaluate",
            "inputs": {
                "lyrics": str(lyrics_path),
                "midi": str(midi_path),
                "config": {
                    "path": str(config_path) if config_path else None,
                    "snapshot": reward_config_to_dict(config),
                },
            },
        }
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True), "utf-8")
    return 0


#: compare-mode presets: (λ preset, decode mode, pipeline)
COMPARE_MODES = {
    "off": ("off", DecodeMode.BEAM_SOFT, Pipeline.SINGLE_STAGE),
    "soft": (None, DecodeMode.BEAM_SOFT, Pipeline.SINGLE_STAGE),
    "hard": (None, DecodeMode.BEAM_HARD, Pipeline.SINGLE_STAGE),
    "sample": (None, DecodeMode.SAMPLE, Pipeline.SINGLE_STAGE),
    "rerank": (None, DecodeMode.RERANK, Pipeline.SINGLE_STAGE),
    "two-stage": (None, DecodeMode.BEAM_SOFT, Pipeline.TWO_STAGE),
}


def cmd_compare(args: argparse.Namespace) -> int:
    lyrics_dir = Path(args.lyrics_dir)
    if not lyrics_dir.is_dir():
        raise InputError(f"lyrics directory not found: {lyrics_dir}")
    lyric_paths = sorted(
        p for p in lyrics_dir.iterdir() if p.suffix in (".txt", ".lyrics", ".json")
    )
    if not lyric_paths:
        raise InputError(f"no lyric files in {lyrics_dir}")
    bundle = _load_bundle(Path(args.model))
    base_config, _ = _load_config(args.config)
    if args.preset:
        base_config = base_config.with_preset(args.preset)
    mode_names = [m.strip() for m in args.modes.split(",") if m.strip()]
    unknown = [m for m in mode_names if m not in COMPARE_MODES]
    if unknown:
        raise InputError(f"unknown compare mode(s) {unknown}, expected {sorted(COMPARE_MODES)}")

    meter = _parse_time_signature(args.time_signature)
    corpus = [_load_lyrics(lp) for lp in lyric_paths]

    rows = []
    for name in mode_names:
        preset, mode, pipeline = COMPARE_MODES[name]
        config = base_config.with_preset(preset) if preset else base_config
        reports = []
        for index, lyrics in enumerate(corpus):
            options = _decode_options(args, mode, pipeline, args.seed + index, meter)
            result = _run_decode(lyrics, bundle, config, options)
            reports.append(evaluate_pair(lyrics, result.melody, config))
        rows.append((name, aggregate_reports(reports)))
    print(render_table(rows, label_header="mode"))
    if args.json:
        Path(args.json).write_text(
            json.dumps({label: values for label, values in rows}, indent=2, sort_keys=True),
            "utf-8",
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_decode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help=f"reward config file (or ${CONFIG_ENV_VAR})")
    parser.add_argument("--preset", choices=sorted(PRESET_LAMBDAS), help="lambda preset")
    parser.add_argument("--beam-width", type=int, default=4)
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument("--temperature", type=float, default=0.5)
    parser.add_argument("--candidates", type=int, default=10, help="rerank candidate count")
    parser.add_argument("--max-notes", type=int, default=4, help="max notes per syllable")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--time-signature", default="4/4")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyricmelody",
        description="Melody generation from annotated lyrics with music-theoretic constraints",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train n-gram scorers from a MIDI corpus")
    p_train.add_argument("corpus_dir")
    p_train.add_argument("-o", "--out", required=True, help="output model file")
    p_train.add_argument("--order", type=int, default=3)
    p_train.add_argument("--discount", type=float, default=0.5)
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate", help="generate a melody for a lyrics file")
    p_gen.add_argument("lyrics")
    p_gen.add_argument("-m", "--model", required=True)
    p_gen.add_argument("-o", "--out", required=True, help="output MIDI path")
    p_gen.add_argument("--mode", choices=[m.value for m in DecodeMode], default="beam")
    p_gen.add_argument("--pipeline", choices=[p.value for p in Pipeline], default="single")
    _add_decode_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("evaluate", help="objective metrics for lyrics + MIDI")
    p_eval.add_argument("lyrics", help="lyrics file, or directory of them")
    p_eval.add_argument("midi", help="MIDI file, or directory matching the lyrics by stem")
    p_eval.add_argument("--config", help=f"reward config file (or ${CONFIG_ENV_VAR})")
    p_eval.add_argument("--json", help="also write the report as JSON")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="corpus-mean metrics per decode mode")
    p_cmp.add_argument("lyrics_dir")
    p_cmp.add_argument("-m", "--model", required=True)
    p_cmp.add_argument("--modes", default="off,soft", help="comma list of modes to run")
    p_cmp.add_argument("--json", help="also write the table as JSON")
    _add_decode_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
