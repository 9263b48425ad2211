"""Command-line front end: train, generate, evaluate, compare.

Exit codes: 0 success, 1 bad input or configuration or a file that cannot
be read or written, 2 broken internal invariant.  Every generate run writes
a manifest (inputs, config snapshot, seed, output hashes) sufficient to
reproduce it bit-exactly; all randomness flows through the single seed
passed on the command line.

Shared loaders: ``_decode_inputs`` (model, config, preset), ``_lyric_files``
and ``_midi_files`` (a directory's inputs), ``_evaluate_one`` (one
lyrics/MIDI pair) and ``_manifest`` (the record of a run).

The submodules are named here, never their functions, so importing this
module runs none of their code, and each subcommand runs only the modules it
calls (see the package docstring).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, decoder, lyrics, melody, metrics, midi, rewards, scorer
from .errors import AlignmentError, InputError, InternalError, OptionError

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


def _file_entry(path: Path) -> dict:
    """A manifest's record of a file: its path and the SHA-256 of its bytes."""
    import hashlib  # only generate hashes files

    return {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def _read_text(path: Path) -> str:
    """The UTF-8 text of an input file; an OSError names the path itself."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def _load_config(path: Optional[str]) -> tuple[rewards.RewardConfig, Optional[Path]]:
    chosen = path or os.environ.get(CONFIG_ENV_VAR)
    if chosen:
        p = Path(chosen)
        return rewards.load_reward_config(_read_text(p)), p
    return rewards.default_reward_config(), None


def _decode_inputs(
    args: argparse.Namespace,
) -> tuple[scorer.ModelBundle, rewards.RewardConfig, Optional[Path]]:
    """The model bundle of ``--model`` and the reward config (with ``--preset``
    applied) and its path, read in that order."""
    bundle = scorer.ModelBundle.from_json(_read_text(Path(args.model)))
    config, config_path = _load_config(args.config)
    if args.preset:
        config = config.with_preset(args.preset)
    return bundle, config, config_path


def _lyric_files(directory: Path) -> list[Path]:
    """The regular lyric files of ``directory`` by name; InputError if it holds none."""
    paths = sorted(p for p in directory.iterdir()
                   if p.suffix in (".txt", ".lyrics", ".json") and p.is_file())
    if not paths:
        raise InputError(f"no lyric files in {directory}")
    return paths


def _midi_files(directory: Path) -> list[Path]:
    """The regular MIDI files of ``directory`` by name: suffix .mid or .midi, in any case."""
    return sorted(p for p in directory.iterdir()
                  if p.suffix.lower() in (".mid", ".midi") and p.is_file())


def _manifest(command: str, inputs: dict, config: rewards.RewardConfig,
              config_path: Optional[Path], **config_fields) -> dict:
    """The manifest of a run: the tool, its version, the command and the
    ``inputs``, with the config's path, snapshot and ``config_fields``."""
    return {
        "tool": "lyricmelody",
        "version": __version__,
        "command": command,
        "inputs": {**inputs, "config": {
            "path": str(config_path) if config_path else None,
            "snapshot": rewards.reward_config_to_dict(config),
            **config_fields,
        }},
    }


def _parse_time_signature(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    try:
        if not (text.isascii() and num.isdigit() and den.isdigit()):
            raise ValueError("parts must be ASCII digits")
        meter = (int(num), int(den))
        melody.check_meter(meter)
    except ValueError as exc:
        raise InputError(f"bad time signature {text!r} ({exc}), expected e.g. 4/4") from exc
    return meter


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
    midi_paths = _midi_files(corpus_dir)
    if not midi_paths:
        raise InputError(f"no MIDI files in {corpus_dir}")
    corpus = [midi.read_midi(p.read_bytes()) for p in midi_paths]
    bundle = scorer.train_model_bundle(corpus, order=args.order, discount=args.discount)
    out = Path(args.out)
    out.write_text(bundle.to_json(), "utf-8")
    tokens = sum(len(m.tokens) for m in corpus)
    print(f"trained on {len(corpus)} melodies, {tokens} tokens")
    print(f"vocabulary: {len(bundle.token_model.vocab)} melody tokens")
    print(f"model written to {out}")
    return 0


def _decode_options(
    args: argparse.Namespace,
    mode: decoder.DecodeMode,
    seed: int,
    time_signature: tuple[int, int],
) -> decoder.DecodeOptions:
    """The options of one decode: the shared decode flags of ``args`` and
    what the subcommand picks per run."""
    return decoder.DecodeOptions(
        mode=mode,
        beam_width=args.beam_width,
        top_k=args.top_k,
        temperature=args.temperature,
        rerank_candidates=args.candidates,
        max_notes_per_syllable=args.max_notes,
        seed=seed,
        time_signature=time_signature,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    lyrics_path = Path(args.lyrics)
    sheet = lyrics.parse_lyrics(_read_text(lyrics_path))
    bundle, config, config_path = _decode_inputs(args)
    meter = _parse_time_signature(args.time_signature)
    # --pipeline two-stage is the command-line spelling of DecodeMode.TWO_STAGE
    if args.pipeline == "single":
        mode = decoder.DecodeMode(args.mode)
    elif args.mode == decoder.DecodeMode.BEAM_SOFT.value:
        mode = decoder.DecodeMode.TWO_STAGE
    else:
        raise OptionError(f"two-stage decoding runs beam search only, got mode {args.mode!r}")
    options = _decode_options(args, mode, args.seed, meter)

    result = decoder.decode(sheet, bundle.token_model, config, options, bundle.rhythm_model,
                            bundle.pitch_model)

    out_midi = Path(args.out)
    out_midi.write_bytes(midi.write_midi(result.melody, sheet))
    tokens_path = out_midi.with_suffix(".tokens.json")
    tokens_path.write_text(melody.melody_to_json(result.melody), "utf-8")
    manifest_path = out_midi.with_suffix(".manifest.json")
    inputs = {"lyrics": _file_entry(lyrics_path), "model": _file_entry(Path(args.model))}
    manifest = _manifest("generate", inputs, config, config_path, preset=args.preset)
    manifest.update({
        # the mode and pipeline as spelt on the command line, the rest as decoded
        "options": {"mode": args.mode, "pipeline": args.pipeline, **{
            name: getattr(options, name) for name in (
                "beam_width", "top_k", "temperature", "rerank_candidates",
                "max_notes_per_syllable", "time_signature", "seed")}},
        "result": {name: getattr(result, name) for name in (
            "score", "base_logprob", "reward_total", "relaxation_steps")},
        "outputs": {"midi": _file_entry(out_midi), "tokens": _file_entry(tokens_path)},
    })
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), "utf-8")
    print(f"wrote {out_midi} (score {result.score:.4f})")
    return 0


def _evaluate_one(lyrics_path: Path, midi_path: Path,
                  config: rewards.RewardConfig) -> metrics.EvaluationReport:
    sheet = lyrics.parse_lyrics(_read_text(lyrics_path))
    tune = midi.read_midi(midi_path.read_bytes())
    try:
        return metrics.evaluate_pair(sheet, tune, config)
    except AlignmentError as exc:  # named by file, so directory mode names the pair
        raise AlignmentError(f"{midi_path.name}: {exc}") from None


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, config_path = _load_config(args.config)
    lyrics_path = Path(args.lyrics)
    midi_path = Path(args.midi)
    if lyrics_path.is_dir():
        if not midi_path.is_dir():
            raise InputError(f"{midi_path} is no directory, so it cannot pair with {lyrics_path}")
        lyric_paths = _lyric_files(lyrics_path)
        # rows are labelled by stem, and the last one is the mean row
        labels = {"mean": "the mean row"}
        for lp in lyric_paths:
            if labels.setdefault(lp.stem, lp.name) != lp.name:
                raise InputError(f"{labels[lp.stem]} and {lp.name} would both label row "
                                 f"{lp.stem!r} in {lyrics_path}")
        # the MIDI file of each stem that sorts first: STEM.mid before STEM.midi
        counterparts = {mp.stem: mp for mp in reversed(_midi_files(midi_path))}
        for lp in lyric_paths:
            if lp.stem not in counterparts:
                raise InputError(f"no MIDI counterpart for {lp.name} in {midi_path}")
        reports = [_evaluate_one(lp, counterparts[lp.stem], config) for lp in lyric_paths]
        rows = [(lp.stem, r.to_dict()) for lp, r in zip(lyric_paths, reports)]
        rows.append(("mean", metrics.aggregate_reports(reports)))
    else:
        rows = [(lyrics_path.stem, _evaluate_one(lyrics_path, midi_path, config).to_dict())]
    print(render_table(rows))
    if args.json:
        doc = dict(rows)
        doc["manifest"] = _manifest(
            "evaluate", {"lyrics": str(lyrics_path), "midi": str(midi_path)}, config, config_path)
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True), "utf-8")
    return 0


#: compare-mode presets: (λ preset, decode mode's value)
COMPARE_MODES = {
    "off": ("off", "beam"),
    "soft": (None, "beam"),
    "hard": (None, "beam-hard"),
    "sample": (None, "sample"),
    "rerank": (None, "rerank"),
    "two-stage": (None, "two-stage"),
}


def cmd_compare(args: argparse.Namespace) -> int:
    lyric_paths = _lyric_files(Path(args.lyrics_dir))
    bundle, base_config, _ = _decode_inputs(args)
    mode_names = [m.strip() for m in args.modes.split(",") if m.strip()]
    unknown = [m for m in mode_names if m not in COMPARE_MODES]
    if unknown:
        raise InputError(f"unknown compare mode(s) {unknown}, expected {sorted(COMPARE_MODES)}")
    if not mode_names:
        raise InputError(f"--modes {args.modes!r} names no mode")
    if len(set(mode_names)) < len(mode_names):  # the JSON report keeps one row per mode
        raise InputError(f"--modes {args.modes!r} names a mode twice")

    meter = _parse_time_signature(args.time_signature)
    corpus = [lyrics.parse_lyrics(_read_text(lp)) for lp in lyric_paths]

    rows = []
    for name in mode_names:
        preset, value = COMPARE_MODES[name]
        config = base_config.with_preset(preset) if preset else base_config
        mode = decoder.DecodeMode(value)
        reports = []
        for index, sheet in enumerate(corpus):
            options = _decode_options(args, mode, args.seed + index, meter)
            result = decoder.decode(sheet, bundle.token_model, config, options,
                                    bundle.rhythm_model, bundle.pitch_model)
            reports.append(metrics.evaluate_pair(sheet, result.melody, config))
        rows.append((name, metrics.aggregate_reports(reports)))
    print(render_table(rows, label_header="mode"))
    if args.json:
        Path(args.json).write_text(json.dumps(dict(rows), indent=2, sort_keys=True), "utf-8")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_decode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help=f"reward config file (or ${CONFIG_ENV_VAR})")
    # the parser runs for every command, so its choices are spelt out here:
    # sorted(rewards.PRESET_LAMBDAS), and every DecodeMode value but two-stage
    parser.add_argument("--preset", choices=["off", "songmass", "telemelody"],
                        help="lambda preset")
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
    p_gen.add_argument("--mode", default="beam", choices=["beam", "beam-hard", "sample", "rerank"])
    p_gen.add_argument("--pipeline", choices=["single", "two-stage"], default="single")
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
    with warnings.catch_warnings():  # a warning is one line, as an error is
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (InputError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except InternalError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
