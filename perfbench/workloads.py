"""The benchmark's three workloads: seeded inputs, the timed op, its output
and the check of that output.

Every workload has the same shape:

* ``setup(tracer)`` builds all inputs from the seed (nothing is read from
  outside the checkout) and warms up;
* ``op(i, traced)`` is the timed call for op ``i``;
* ``output(i, result)`` turns the result into the bytes a user would keep
  (MIDI, report JSON, files the CLI wrote);
* ``check(i, result, data)`` raises :class:`CheckFailed` when they are wrong;
* ``key(i)`` names the input op ``i`` ran on; ops ``0 .. keys-1`` meet
  every key.  Equal keys must give equal output bytes, and for the default
  seed the bytes must hash to the values in ``golden.json``.

Ops cycle over a fixed pool of inputs, so the amount of work per op follows
the same schedule whatever the seed; the seed only changes the content.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

import lyricmelody as lm

from tracer import Tracer, TracedScorer, load_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

#: Seed of the beam workload's training corpus, whatever the run's seed.
CORPUS_SEED = 0

#: What the ``lyricmelody`` console script runs.
CLI_CODE = "import sys; from lyricmelody.cli import main; sys.exit(main())"


class CheckFailed(Exception):
    """An op's output is wrong."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def sized_sheet(rng: random.Random, syllables: int) -> lm.LyricSequence:
    """A tonal A B A B lyric sheet with exactly ``syllables`` (even) syllables."""
    sentences = max(1, round(syllables / 8))
    while True:
        lyrics = lm.random_lyrics(rng, sentences=sentences, tonal=True, repeat=True)
        if len(lyrics) == syllables:
            return lyrics


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags)


def _syllable_range(sheets) -> list[int]:
    return [min(len(s) for s in sheets), max(len(s) for s in sheets)]


class Beam:
    """Library beam decoding: ``beam_search`` and ``beam_search_hard`` (bw 4)
    alternate over tonal A B A B sheets of 8-40 syllables, against one model
    bundle, trained in set-up on a fixed corpus, whose distribution cache is
    warmed in set-up."""

    name = "beam"
    cycle = 2  # a soft op and a hard op
    min_ops = 120  # p90 then has twelve samples beyond it
    count_ops = 12  # exact counts are taken over this many ops

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.lengths = [8, 10, 12] if tiny else list(range(8, 41, 2))
        self.copies = 1 if tiny else 9
        if tiny:
            self.min_ops, self.count_ops = 4, 2

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        rng = random.Random(self.seed)
        n = len(self.lengths)
        # lengths stride through the whole range every n sheets, so any run
        # of ops sees them evenly; the pool outlasts min_ops, so each op of a
        # run decodes a sheet of its own, and its size n * copies is odd, so
        # each sheet meets both modes in later cycles
        self.sheets = [
            sized_sheet(rng, self.lengths[(j * 7) % n]) for j in range(n * self.copies)
        ]
        # one training corpus for every seed: a model drawn per seed moved
        # p90 by up to 15% between seeds, through how often beam-hard relaxes
        corpus_rng = random.Random(CORPUS_SEED)
        corpus = [lm.random_training_melody(corpus_rng) for _ in range(24)]
        text = lm.train_model_bundle(corpus).to_json()
        self.model = lm.ModelBundle.from_json(text).token_model
        for context in self.model.counts:
            self.model.log_prob_dist(context)
        self.traced_model = TracedScorer(tracer, self.model) if tracer else None
        self.config = lm.default_reward_config()
        self.options = lm.DecodeOptions(beam_width=4)
        shortest = min(range(len(self.sheets)), key=lambda j: len(self.sheets[j]))
        for fn in (lm.beam_search, lm.beam_search_hard):
            fn(self.sheets[shortest], self.model, self.config, self.options)

    def key(self, i: int) -> str:
        return f"{i % len(self.sheets)}:{'hard' if i % 2 else 'soft'}"

    @property
    def keys(self) -> int:
        """Ops 0 .. keys-1 meet every key once."""
        return 2 * len(self.sheets)

    def op(self, i: int, traced: bool = False):
        fn = lm.beam_search_hard if i % 2 else lm.beam_search
        scorer = self.traced_model if traced else self.model
        return fn(self.sheets[i % len(self.sheets)], scorer, self.config, self.options)

    def output(self, i: int, result) -> bytes:
        return lm.write_midi(result.melody, self.sheets[i % len(self.sheets)])

    def check(self, i: int, result, data: bytes) -> None:
        lyrics = self.sheets[i % len(self.sheets)]
        base, reward, score = lm.score_decode(lyrics, result.melody, self.model, self.config)
        for got, want in ((result.base_logprob, base), (result.reward_total, reward),
                          (result.score, score)):
            if abs(got - want) > 1e-9:
                raise CheckFailed(f"score {got!r} does not re-derive ({want!r})")
        if lm.read_midi(data) != result.melody:
            raise CheckFailed("MIDI output does not read back as the decoded melody")

    def properties(self) -> dict:
        return {
            "syllables": _syllable_range(self.sheets),
            "sheets": len(self.sheets),
            "repeated_share": 1.0,
            "tonal_share": 1.0,
            "mode_mix": {"beam": 0.5, "beam-hard": 0.5},
            "beam_width": self.options.beam_width,
            "vocabulary": len(self.model.vocab),
        }


class Evaluate:
    """Library evaluation: each op parses lyric text, reads MIDI bytes, then
    runs ``evaluate_pair`` and ``score_rewards`` on the pair."""

    name = "evaluate"
    cycle = 1
    min_ops = 100
    count_ops = 200

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = 8 if tiny else 512
        if tiny:
            self.min_ops, self.count_ops = 10, 10

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        rng = random.Random(self.seed)
        self.config = lm.default_reward_config()
        self.pairs, self.expected, self.sheets = [], [], []
        # a fixed mix: tonal or not, repeated or not, 1-3 base sentences
        self.mix = [(j % 2 == 0, (j // 2) % 2 == 0, 1 + (j // 4) % 3) for j in range(self.size)]
        for tonal, repeat, sentences in self.mix:
            lyrics = lm.random_lyrics(rng, sentences=sentences, tonal=tonal, repeat=repeat)
            melody = lm.random_aligned_melody(lyrics, rng)
            self.sheets.append(lyrics)
            self.pairs.append((lm.serialize_lyrics(lyrics), lm.write_midi(melody, lyrics)))
            # the reference skips text and MIDI: it scores the objects themselves
            report = lm.evaluate_pair(lyrics, melody, self.config)
            self.expected.append(self._encode((report, lm.score_rewards(lyrics, melody, self.config))))
        self.op(0)

    @staticmethod
    def _encode(result) -> bytes:
        report, rewards = result
        doc = {
            "report": report.to_dict(),
            "reward_total": rewards.total,
            "by_aspect": {aspect.value: v for aspect, v in rewards.by_aspect.items()},
        }
        return json.dumps(doc, sort_keys=True).encode()

    def key(self, i: int) -> str:
        return str(i % self.size)

    @property
    def keys(self) -> int:
        return self.size

    def op(self, i: int, traced: bool = False):
        text, midi = self.pairs[i % self.size]
        lyrics = lm.parse_lyrics(text)
        melody = lm.read_midi(midi)
        return (
            lm.evaluate_pair(lyrics, melody, self.config),
            lm.score_rewards(lyrics, melody, self.config),
        )

    def output(self, i: int, result) -> bytes:
        return self._encode(result)

    def check(self, i: int, result, data: bytes) -> None:
        if data != self.expected[i % self.size]:
            raise CheckFailed("report differs from the one computed on the unserialised pair")

    def properties(self) -> dict:
        return {
            "syllables": _syllable_range(self.sheets),
            "pairs": self.size,
            "repeated_share": _share(repeat for _, repeat, _ in self.mix),
            "tonal_share": _share(tonal for tonal, _, _ in self.mix),
            "mode_mix": "none (no decoding)",
        }


#: generate command name -> (--mode, --pipeline)
GENERATE = {
    "beam": ("beam", "single"),
    "beam-hard": ("beam-hard", "single"),
    "sample": ("sample", "single"),
    "rerank": ("rerank", "single"),
    "two-stage": ("beam", "two-stage"),
}
COMMANDS = ("version", "train", *(f"generate.{g}" for g in GENERATE), "evaluate")


class Cli:
    """CLI processes from one client: every cycle runs each command once, in
    an order drawn from the seed.  Files live in ``.bench_work/cli``."""

    name = "cli"
    cycle = len(COMMANDS)
    min_ops = 8 * len(COMMANDS)
    count_ops = len(COMMANDS)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.syllables = 8 if tiny else 12
        if tiny:
            self.min_ops = self.cycle
        self.work = WORK / "cli"
        self.order_rng = random.Random(seed)
        self.orders: list[list[str]] = []

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        rng = random.Random(self.seed)
        shutil.rmtree(self.work, ignore_errors=True)
        for sub in ("corpus", "lyrics", "out", "spans"):
            (self.work / sub).mkdir(parents=True)
        for j in range(24):
            melody = lm.random_training_melody(rng)
            (self.work / "corpus" / f"m{j:02d}.mid").write_bytes(lm.write_midi(melody))
        self.sheets = {}
        for g in GENERATE:
            lyrics = sized_sheet(rng, self.syllables)
            self.sheets[g] = lyrics
            (self.work / "lyrics" / f"{g}.txt").write_text(lm.serialize_lyrics(lyrics), "utf-8")
        self.env = cli_env()
        for command in COMMANDS:
            proc = self._run(command, None)
            self.check(-1, proc, self.output(-1, proc, command), command)
            if command == "train":
                shutil.copyfile(self.work / "trained.json", self.work / "model.json")
                self.model_sha = sha256((self.work / "model.json").read_bytes())

    def command(self, i: int) -> str:
        while len(self.orders) <= i // self.cycle:
            order = list(COMMANDS)
            self.order_rng.shuffle(order)
            self.orders.append(order)
        return self.orders[i // self.cycle][i % self.cycle]

    key = command
    keys = cycle

    def args(self, command: str) -> list[str]:
        if command == "version":
            return ["--version"]
        if command == "train":
            return ["train", "corpus", "-o", "trained.json"]
        if command == "evaluate":
            return ["evaluate", "lyrics", "out", "--json", "report.json"]
        g = command.split(".", 1)[1]
        mode, pipeline = GENERATE[g]
        return ["generate", f"lyrics/{g}.txt", "-m", "model.json", "-o", f"out/{g}.mid",
                "--mode", mode, "--pipeline", pipeline, "--seed", str(self.seed)]

    def _run(self, command: str, spans: Optional[Path]) -> subprocess.CompletedProcess:
        if spans is None:
            argv = [sys.executable, "-c", CLI_CODE]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans)]
        return subprocess.run(
            argv + self.args(command), cwd=self.work, env=self.env,
            capture_output=True, timeout=120,
        )

    def spans_path(self, i: int) -> Path:
        return self.work / "spans" / f"{i}.jsonl"

    def op(self, i: int, traced: bool = False):
        return self._run(self.command(i), self.spans_path(i) if traced else None)

    def collect(self, i: int, tracer: Tracer) -> None:
        """Merge a traced op's child spans into the parent's trace; a child
        that wrote none has failed, and its op is counted as such."""
        path = self.spans_path(i)
        if path.exists():
            tracer.spans.extend(load_spans(path, i, len(tracer.spans)))
            path.unlink()

    def output(self, i: int, proc, command: Optional[str] = None) -> bytes:
        command = command or self.command(i)
        if proc.returncode != 0:
            return b""
        if command == "version":
            return proc.stdout
        if command == "train":
            return (self.work / "trained.json").read_bytes()
        if command == "evaluate":
            return (self.work / "report.json").read_bytes()
        return (self.work / "out" / f"{command.split('.', 1)[1]}.mid").read_bytes()

    def check(self, i: int, proc, data: bytes, command: Optional[str] = None) -> None:
        command = command or self.command(i)
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip()[-300:]
            raise CheckFailed(f"{command} exited {proc.returncode}: {tail}")
        if command == "version":
            if data != f"lyricmelody {lm.__version__}\n".encode():
                raise CheckFailed(f"unexpected --version output {data!r}")
        elif command == "train":
            if i >= 0 and sha256(data) != self.model_sha:
                raise CheckFailed("trained model differs from the set-up model")
        elif command == "evaluate":
            rows = set(json.loads(data))
            if rows != set(GENERATE) | {"mean", "manifest"}:
                raise CheckFailed(f"report rows {sorted(rows)}")
        else:
            g = command.split(".", 1)[1]
            stem = self.work / "out" / g
            manifest = json.loads(stem.with_suffix(".manifest.json").read_bytes())
            outputs = manifest["outputs"]
            tokens = stem.with_suffix(".tokens.json").read_bytes()
            if outputs["midi"]["sha256"] != sha256(data):
                raise CheckFailed(f"{command}: MIDI does not match its manifest hash")
            if outputs["tokens"]["sha256"] != sha256(tokens):
                raise CheckFailed(f"{command}: token dump does not match its manifest hash")
            if lm.read_midi(data).syllable_count != len(self.sheets[g]):
                raise CheckFailed(f"{command}: MIDI does not cover the lyrics")

    def properties(self) -> dict:
        return {
            "syllables": _syllable_range(self.sheets.values()),
            "repeated_share": 1.0,
            "tonal_share": 1.0,
            "mode_mix": {c: 1 / len(COMMANDS) for c in COMMANDS},
            "corpus_melodies": 24,
        }


WORKLOADS = {w.name: w for w in (Beam, Evaluate, Cli)}
