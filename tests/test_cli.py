import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lyricmelody import __version__, read_midi, serialize_lyrics, write_midi
from lyricmelody.cli import main
from lyricmelody.errors import ConfigError, LyricFormatError, MidiFormatError, TrainingError
from lyricmelody.synthetic import random_lyrics, random_training_melody
from conftest import mk_melody


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus of training MIDI files plus a few lyric sheets."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    corpus.mkdir()
    rng = random.Random(99)
    for i in range(6):
        melody = random_training_melody(rng, pitch_range=(60, 67))
        (corpus / f"train_{i:02d}.mid").write_bytes(write_midi(melody))
    lyrics_dir = root / "lyrics"
    lyrics_dir.mkdir()
    for i in range(3):
        lyr = random_lyrics(rng, sentences=2, repeat=(i % 2 == 0))
        (lyrics_dir / f"song_{i}.txt").write_text(serialize_lyrics(lyr), "utf-8")
    return root


@pytest.fixture(scope="module")
def model_path(workspace):
    out = workspace / "model.json"
    assert main(["train", str(workspace / "corpus"), "-o", str(out)]) == 0
    return out


class TestTrain:
    def test_deterministic_model_file(self, workspace, model_path, tmp_path):
        again = tmp_path / "model2.json"
        assert main(["train", str(workspace / "corpus"), "-o", str(again)]) == 0
        assert again.read_bytes() == model_path.read_bytes()

    def test_empty_dir_exit_one(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["train", str(empty), "-o", str(tmp_path / "m.json")]) == 1
        assert str(empty) in capsys.readouterr().err

    def test_subdirectory_named_like_midi_skipped(self, workspace, model_path, tmp_path):
        # a corpus reads its regular files only, as evaluate's pairing does
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for path in (workspace / "corpus").iterdir():
            (corpus / path.name).write_bytes(path.read_bytes())
        (corpus / "x.mid").mkdir()
        out = tmp_path / "m.json"
        assert main(["train", str(corpus), "-o", str(out)]) == 0
        assert out.read_bytes() == model_path.read_bytes()

    def test_prints_counts(self, workspace, tmp_path, capsys):
        main(["train", str(workspace / "corpus"), "-o", str(tmp_path / "m.json")])
        out = capsys.readouterr().out
        assert "tokens" in out and "vocabulary" in out


class TestGenerate:
    def test_writes_midi_tokens_manifest(self, workspace, model_path, tmp_path):
        out = tmp_path / "song.mid"
        code = main([
            "generate", str(workspace / "lyrics" / "song_0.txt"),
            "-m", str(model_path), "-o", str(out), "--seed", "3",
        ])
        assert code == 0
        assert out.is_file()
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["options"]["seed"] == 3
        assert manifest["outputs"]["midi"]["sha256"]
        melody = read_midi(out.read_bytes())
        assert melody.syllable_count > 0

    def test_byte_identical_across_runs(self, workspace, model_path, tmp_path):
        args = lambda name: [
            "generate", str(workspace / "lyrics" / "song_1.txt"),
            "-m", str(model_path), "-o", str(tmp_path / name),
            "--mode", "sample", "--seed", "42",
        ]
        assert main(args("a.mid")) == 0
        assert main(args("b.mid")) == 0
        assert (tmp_path / "a.mid").read_bytes() == (tmp_path / "b.mid").read_bytes()

    @pytest.mark.parametrize("mode", ["sample", "rerank"])
    def test_top_k_clamp_prints_one_warning_line(self, workspace, model_path, tmp_path,
                                                 capsys, mode):
        from lyricmelody import ModelBundle

        size = len(ModelBundle.from_json(model_path.read_text("utf-8")).token_model.vocab)
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"), "-m",
                     str(model_path), "-o", str(tmp_path / "s.mid"), "--mode", mode,
                     "--top-k", "100000", "--candidates", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: top_k=100000 exceeds the vocabulary size {size}; clamping\n")
        assert captured.out.startswith(f"wrote {tmp_path / 's.mid'}")

    def test_rerank_one_candidate_equals_sample_under_off(
        self, workspace, model_path, tmp_path
    ):
        lyrics = str(workspace / "lyrics" / "song_2.txt")
        base = ["-m", str(model_path), "--preset", "off", "--seed", "5"]
        assert main(["generate", lyrics, "-o", str(tmp_path / "r.mid"),
                     "--mode", "rerank", "--candidates", "1"] + base) == 0
        assert main(["generate", lyrics, "-o", str(tmp_path / "s.mid"),
                     "--mode", "sample"] + base) == 0
        assert (tmp_path / "r.mid").read_bytes() == (tmp_path / "s.mid").read_bytes()

    def test_off_preset_matches_plain_beam(self, workspace, model_path, tmp_path):
        # lambda = 0 must decode exactly like the reward-free reference
        from lyricmelody import ModelBundle, parse_lyrics
        from reference import plain_beam_search

        lyrics_path = workspace / "lyrics" / "song_0.txt"
        out = tmp_path / "off.mid"
        assert main(["generate", str(lyrics_path), "-m", str(model_path),
                     "-o", str(out), "--preset", "off"]) == 0
        bundle = ModelBundle.from_json(model_path.read_text())
        lyr = parse_lyrics(lyrics_path.read_text())
        want = plain_beam_search(lyr, bundle.token_model, width=4)
        assert read_midi(out.read_bytes()).tokens == want

    def test_missing_lyrics_exit_one(self, model_path, tmp_path):
        assert main(["generate", str(tmp_path / "nope.txt"),
                     "-m", str(model_path), "-o", str(tmp_path / "x.mid")]) == 1

    def test_two_stage_pipeline(self, workspace, model_path, tmp_path):
        out = tmp_path / "two.mid"
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model_path), "-o", str(out),
                     "--pipeline", "two-stage"]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("mode", ["beam-hard", "sample", "rerank"])
    def test_two_stage_other_than_beam_exit_one(
        self, workspace, model_path, tmp_path, capsys, mode
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model_path), "-o", str(out_dir / "x.mid"),
                     "--pipeline", "two-stage", "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert f"two-stage decoding runs beam search only, got mode {mode!r}" in err
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_non_object_model_file_exit_one(self, workspace, model_path, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text("[1]", "utf-8")
        out = tmp_path / "x.mid"
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "model file" in err and "Traceback" not in err
        assert not out.exists()
        # nor may a model of order 0 load, though no context of its is too long
        doc = json.loads(model_path.read_text())
        doc["token_model"].update(order=0, counts=[])
        model.write_text(json.dumps(doc), "utf-8")
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "order must be >= 1, got 0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("meter", ["4/6", "4/0", "0/4", "-4/4", "x/4", "300/4",
                                       "٤/٤", "+4/4", "0_4/4", "4/ 4"])
    def test_bad_time_signature_exit_one_before_decoding(
        self, workspace, model_path, tmp_path, capsys, meter
    ):
        out = tmp_path / "x.mid"
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model_path), "-o", str(out),
                     f"--time-signature={meter}"]) == 1
        err = capsys.readouterr().err
        assert "time signature" in err and meter in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def generated(workspace, model_path, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("gen")
    for lp in sorted((workspace / "lyrics").iterdir()):
        main(["generate", str(lp), "-m", str(model_path),
              "-o", str(out_dir / (lp.stem + ".mid")), "--seed", "1"])
    return out_dir


class TestEvaluate:
    def test_single_pair(self, workspace, generated, capsys):
        code = main(["evaluate", str(workspace / "lyrics" / "song_0.txt"),
                     str(generated / "song_0.mid")])
        assert code == 0
        out = capsys.readouterr().out
        assert "transition" in out and "MD" in out

    def test_self_consistency_fields_in_range(self, workspace, generated, tmp_path):
        report_path = tmp_path / "report.json"
        main(["evaluate", str(workspace / "lyrics" / "song_0.txt"),
              str(generated / "song_0.mid"), "--json", str(report_path)])
        report = json.loads(report_path.read_text())
        manifest = report.pop("manifest")
        assert manifest["command"] == "evaluate"
        for values in report.values():
            for name, value in values.items():
                if value is not None and name != "md":
                    assert 0.0 <= value <= 1.0

    def test_batch_means_equal_mean_of_files(self, workspace, generated, tmp_path):
        report_path = tmp_path / "batch.json"
        code = main(["evaluate", str(workspace / "lyrics"), str(generated),
                     "--json", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        report.pop("manifest")
        means = report.pop("mean")
        for field, value in means.items():
            per_file = [v[field] for v in report.values() if v[field] is not None]
            if per_file:
                assert value == pytest.approx(sum(per_file) / len(per_file))
            else:
                assert value is None

    @pytest.mark.parametrize("mark", ["²", "٣"])
    def test_non_ascii_digit_is_syllable_text(self, tmp_path, capsys, mark):
        # the text reads as one toneless syllable, so three notes do not align
        lyrics = tmp_path / "s.txt"
        lyrics.write_text(f"ab{mark}|W .\n", "utf-8")
        midi = tmp_path / "s.mid"
        midi.write_bytes(write_midi(mk_melody([(60, 1), (62, 1), (64, 1)])))
        assert main(["evaluate", str(lyrics), str(midi)]) == 1
        err = capsys.readouterr().err
        assert "vs 1 lyric syllables" in err and "Traceback" not in err

    def test_directory_pairs_either_midi_suffix(self, workspace, generated, tmp_path):
        # train reads .mid and .midi in any case, and so does the pairing;
        # of two files of one stem, STEM.mid sorts first and is read
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        for name, source in [("song_0.mid", "song_0"), ("song_0.midi", "song_1"),
                             ("song_1.midi", "song_1"), ("song_2.MID", "song_2")]:
            (midi_dir / name).write_bytes((generated / f"{source}.mid").read_bytes())
        reports = []
        for directory in (generated, midi_dir):
            report = tmp_path / f"{directory.name}.json"
            assert main(["evaluate", str(workspace / "lyrics"), str(directory),
                         "--json", str(report)]) == 0
            doc = json.loads(report.read_text("utf-8"))
            doc.pop("manifest")
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_subdirectory_named_like_lyrics_skipped(self, workspace, generated, tmp_path):
        # a lyrics directory reads its regular files only, as the MIDI side does
        lyrics_dir = tmp_path / "lyrics"
        lyrics_dir.mkdir()
        for path in (workspace / "lyrics").iterdir():
            (lyrics_dir / path.name).write_bytes(path.read_bytes())
        (lyrics_dir / "b.txt").mkdir()
        reports = []
        for directory in (workspace / "lyrics", lyrics_dir):
            report = tmp_path / "report.json"
            assert main(["evaluate", str(directory), str(generated), "--json", str(report)]) == 0
            doc = json.loads(report.read_text("utf-8"))
            doc.pop("manifest")
            reports.append(doc)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("extra, first, second", [
        ("song_0.lyrics", "song_0.lyrics", "song_0.txt"),
        ("mean.txt", "the mean row", "mean.txt"),
    ])
    def test_two_files_for_one_row_exit_one(self, workspace, generated, tmp_path, capsys,
                                            extra, first, second):
        # --json keeps one row per label, so neither file may lose its row
        lyrics_dir, midi_dir = tmp_path / "lyrics", tmp_path / "midi"
        for target, source in ((lyrics_dir, workspace / "lyrics"), (midi_dir, generated)):
            target.mkdir()
            for path in source.iterdir():
                (target / path.name).write_bytes(path.read_bytes())
        (lyrics_dir / extra).write_bytes((workspace / "lyrics" / "song_0.txt").read_bytes())
        (midi_dir / "mean.mid").write_bytes((generated / "song_0.mid").read_bytes())
        report = tmp_path / "report.json"
        assert main(["evaluate", str(lyrics_dir), str(midi_dir), "--json", str(report)]) == 1
        err = capsys.readouterr().err
        assert f"{first} and {second} would both label row" in err and "Traceback" not in err
        assert not report.exists()

    def test_tonal_sheet_without_tonal_tone_exit_one(self, tmp_path, capsys):
        lyrics = tmp_path / "s.json"
        lyrics.write_text(json.dumps({"language": "tonal", "sentences": [{"syllables": [
            {"text": "ni", "tone": "none", "word_position": "start"},
            {"text": "hao", "tone": "none", "word_position": "inner"}]}]}), "utf-8")
        midi = tmp_path / "s.mid"
        midi.write_bytes(write_midi(mk_melody([(60, 1), (62, 1)])))
        assert main(["evaluate", str(lyrics), str(midi)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tonal sheet needs a syllable" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where, key", [
        ("syllable", "stres_class"), ("sentence", "intonaton"), ("document", "title")])
    def test_unknown_lyrics_json_key_exit_one(self, tmp_path, capsys, where, key):
        # a misspelt optional key used to read as its default: a lost keyword
        # or intonation
        sentence = {"syllables": [{"text": "ni", "tone": "tone3", "word_position": "start"}]}
        doc = {"language": "tonal", "sentences": [sentence]}
        objects = {"document": doc, "sentence": sentence, "syllable": sentence["syllables"][0]}
        objects[where][key] = "keyword"
        lyrics = tmp_path / "s.json"
        lyrics.write_text(json.dumps(doc), "utf-8")
        midi = tmp_path / "s.mid"
        midi.write_bytes(write_midi(mk_melody([(60, 1)])))
        assert main(["evaluate", str(lyrics), str(midi)]) == 1
        err = capsys.readouterr().err
        assert f"{where} has unknown keys ['{key}']" in err and "Traceback" not in err

    def test_alignment_mismatch_exit_one(self, workspace, generated, tmp_path, capsys):
        wrong = tmp_path / "wrong.txt"
        wrong.write_text("ni3|W .\n", "utf-8")
        assert main(["evaluate", str(wrong), str(generated / "song_0.mid")]) == 1
        assert "alignment" in capsys.readouterr().err.lower()
        # in directory mode the error names the file, and a lyric file must
        # have a MIDI counterpart, and a directory a lyric file
        lyrics_dir = tmp_path / "lyrics"
        lyrics_dir.mkdir()
        for midi_dir, message in [(generated, "song_0.mid: alignment fails: "),
                                  (tmp_path, "no MIDI counterpart for song_0.txt in")]:
            (lyrics_dir / "song_0.txt").write_text("ni3|W .\n", "utf-8")
            assert main(["evaluate", str(lyrics_dir), str(midi_dir)]) == 1
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        (lyrics_dir / "song_0.txt").unlink()
        assert main(["evaluate", str(lyrics_dir), str(generated)]) == 1
        err = capsys.readouterr().err
        assert f"no lyric files in {lyrics_dir}" in err and "Traceback" not in err


class TestCompare:
    def test_single_mode_single_row(self, workspace, model_path, capsys):
        code = main(["compare", str(workspace / "lyrics"), "-m", str(model_path),
                     "--modes", "off"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2].startswith("off")

    def test_deterministic_tables(self, workspace, model_path, tmp_path):
        args = lambda name: ["compare", str(workspace / "lyrics"),
                             "-m", str(model_path), "--modes", "off,soft",
                             "--seed", "7", "--json", str(tmp_path / name)]
        assert main(args("t1.json")) == 0
        assert main(args("t2.json")) == 0
        assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t2.json").read_bytes()
        table = json.loads((tmp_path / "t1.json").read_text())
        assert table["soft"]["tone_transition"] >= table["off"]["tone_transition"]

    def test_unknown_mode_exit_one(self, workspace, model_path, capsys):
        assert main(["compare", str(workspace / "lyrics"), "-m", str(model_path),
                     "--modes", "off,quantum"]) == 1
        assert "quantum" in capsys.readouterr().err

    @pytest.mark.parametrize("modes, message", [
        (",", "--modes ',' names no mode"),
        ("soft,off,soft", "--modes 'soft,off,soft' names a mode twice"),
    ])
    def test_empty_or_repeated_modes_exit_one(
        self, workspace, model_path, tmp_path, capsys, modes, message
    ):
        # a repeated mode printed two rows but kept one key of the JSON report
        report = tmp_path / "t.json"
        assert main(["compare", str(workspace / "lyrics"), "-m", str(model_path),
                     "--modes", modes, "--json", str(report)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not report.exists()

    def test_bad_time_signature_exit_one(self, workspace, model_path, tmp_path, capsys):
        report = tmp_path / "t.json"
        assert main(["compare", str(workspace / "lyrics"), "-m", str(model_path),
                     "--modes", "off", "--time-signature", "4/6", "--json", str(report)]) == 1
        err = capsys.readouterr().err
        assert "4/6" in err and "Traceback" not in err
        assert not report.exists()


def _file_entry(path):
    return {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def _config(tmp_path, edit):
    """The config a run reads, and the path of the file it was written to
    (None for the shipped default, when there is no ``edit``)."""
    from lyricmelody.rewards import (default_reward_config, load_reward_config,
                                     reward_config_to_dict)

    if edit is None:
        return default_reward_config(), None
    doc = reward_config_to_dict(default_reward_config())
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), "utf-8")
    return load_reward_config(path.read_text("utf-8")), path


#: generate runs: flags, preset, config edit and the DecodeOptions fields they set
GENERATE_RUNS = [
    ([], None, None, dict(
        mode="beam", pipeline="single", beam_width=4, top_k=5, temperature=0.5,
        rerank_candidates=10, max_notes_per_syllable=4, seed=0, time_signature=[4, 4])),
    (["--mode", "rerank", "--beam-width", "3", "--top-k", "4", "--temperature", "0.75",
      "--candidates", "2", "--max-notes", "3", "--seed", "9", "--time-signature", "3/4"],
     "songmass", lambda doc: doc["rewards"].update(pause_match=0.5), dict(
        mode="rerank", pipeline="single", beam_width=3, top_k=4, temperature=0.75,
        rerank_candidates=2, max_notes_per_syllable=3, seed=9, time_signature=[3, 4])),
    (["--pipeline", "two-stage", "--seed", "2"], "off", None, dict(
        mode="beam", pipeline="two-stage", beam_width=4, top_k=5, temperature=0.5,
        rerank_candidates=10, max_notes_per_syllable=4, seed=2, time_signature=[4, 4])),
]


class TestManifest:
    """Every key and value of the manifests the CLI writes."""

    @pytest.mark.parametrize("flags, preset, edit, options", GENERATE_RUNS,
                             ids=["defaults", "every flag", "two-stage"])
    def test_generate_manifest(self, workspace, model_path, tmp_path, flags, preset, edit,
                               options):
        from lyricmelody import DecodeMode, DecodeOptions, ModelBundle, decode, parse_lyrics
        from lyricmelody.rewards import reward_config_to_dict

        lyrics_path = workspace / "lyrics" / "song_1.txt"
        config, config_path = _config(tmp_path, edit)
        out = tmp_path / "song.mid"
        argv = ["generate", str(lyrics_path), "-m", str(model_path), "-o", str(out), *flags]
        argv += ["--preset", preset] if preset else []
        argv += ["--config", str(config_path)] if config_path else []
        assert main(argv) == 0

        config = config.with_preset(preset) if preset else config
        two_stage = options["pipeline"] == "two-stage"
        bundle = ModelBundle.from_json(model_path.read_text("utf-8"))
        result = decode(
            parse_lyrics(lyrics_path.read_text("utf-8")), bundle.token_model, config,
            DecodeOptions(
                mode=DecodeMode.TWO_STAGE if two_stage else DecodeMode(options["mode"]),
                beam_width=options["beam_width"], top_k=options["top_k"],
                temperature=options["temperature"],
                rerank_candidates=options["rerank_candidates"],
                max_notes_per_syllable=options["max_notes_per_syllable"],
                seed=options["seed"], time_signature=tuple(options["time_signature"])),
            bundle.rhythm_model, bundle.pitch_model)
        manifest = json.loads(out.with_suffix(".manifest.json").read_text("utf-8"))
        assert manifest == {
            "tool": "lyricmelody",
            "version": __version__,
            "command": "generate",
            "inputs": {
                "lyrics": _file_entry(lyrics_path),
                "model": _file_entry(model_path),
                "config": {
                    "path": str(config_path) if config_path else None,
                    "preset": preset,
                    "snapshot": reward_config_to_dict(config),
                },
            },
            "options": options,
            "result": {
                "score": result.score,
                "base_logprob": result.base_logprob,
                "reward_total": result.reward_total,
                "relaxation_steps": list(result.relaxation_steps),
            },
            "outputs": {
                "midi": _file_entry(out),
                "tokens": _file_entry(out.with_suffix(".tokens.json")),
            },
        }

    @pytest.mark.parametrize("directory, edit", [
        (False, None),
        (True, None),
        (False, lambda doc: doc["lambda"].update(tone=0.25)),
        (True, lambda doc: doc["harmony_table"].clear()),
    ], ids=["file", "directory", "file with config", "directory with config"])
    def test_evaluate_json_manifest(self, workspace, generated, tmp_path, directory, edit):
        from lyricmelody.rewards import reward_config_to_dict

        lyrics = workspace / "lyrics" if directory else workspace / "lyrics" / "song_0.txt"
        midi = generated if directory else generated / "song_0.mid"
        config, config_path = _config(tmp_path, edit)
        report = tmp_path / "report.json"
        argv = ["evaluate", str(lyrics), str(midi), "--json", str(report)]
        argv += ["--config", str(config_path)] if config_path else []
        assert main(argv) == 0
        doc = json.loads(report.read_text("utf-8"))
        assert doc.pop("manifest") == {
            "tool": "lyricmelody",
            "version": __version__,
            "command": "evaluate",
            "inputs": {
                "lyrics": str(lyrics),
                "midi": str(midi),
                "config": {
                    "path": str(config_path) if config_path else None,
                    "snapshot": reward_config_to_dict(config),
                },
            },
        }
        assert sorted(doc) == (["mean", "song_0", "song_1", "song_2"] if directory
                               else ["song_0"])


class TestConfigHandling:
    def test_env_var_override(self, workspace, model_path, tmp_path, monkeypatch):
        from lyricmelody.rewards import default_reward_config, reward_config_to_dict

        cfg = reward_config_to_dict(default_reward_config())
        cfg["lambda"]["tone"] = 0.0
        cfg_path = tmp_path / "custom.json"
        cfg_path.write_text(json.dumps(cfg), "utf-8")
        monkeypatch.setenv("LYRICMELODY_CONFIG", str(cfg_path))
        out = tmp_path / "env.mid"
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model_path), "-o", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["inputs"]["config"]["snapshot"]["lambda"]["tone"] == 0.0

    def test_bad_config_exit_one(self, workspace, model_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{не json", "utf-8")
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model_path), "-o", str(tmp_path / "x.mid"),
                     "--config", str(bad)]) == 1

    def test_internal_invariant_violation_exit_two(
        self, workspace, model_path, tmp_path, monkeypatch, capsys
    ):
        from lyricmelody import decoder
        from lyricmelody.errors import InternalError

        def boom(*args, **kwargs):
            raise InternalError("score mismatch")

        monkeypatch.setattr(decoder, "decode", boom)
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model_path), "-o", str(tmp_path / "x.mid")]) == 2
        assert "internal error" in capsys.readouterr().err


def _lengthen_a_context(doc):
    """Count one of the token model's longest contexts again behind one more token."""
    model = doc["token_model"]
    ctx, succ = next(c for c in model["counts"] if len(c[0]) == model["order"] - 1)
    model["counts"].append([ctx[:1] + ctx, succ])


#: reward config edits, each of which must end as a documented error
BAD_CONFIGS = [
    (lambda doc: [], "reward config must be a JSON object, got list"),
    (lambda doc: {**doc, "lambda": [1]}, "reward config lambda must be an object, got list"),
    (lambda doc: {**doc, "rewards": "x"}, "reward config rewards must be an object, got str"),
    (lambda doc: {**doc, "rewards": {"transition": 1}},
     "reward config rewards transition must be an object, got int"),
    (lambda doc: {**doc, "harmony_table": []},
     "reward config harmony_table must be an object, got list"),
    (lambda doc: {**doc, "lambda": {"tone": float("nan")}}, "lambda_tone must be finite"),
    (lambda doc: {**doc, "lambda": {"rhythm": float("inf")}}, "lambda_rhythm must be finite"),
    (lambda doc: {**doc, "rewards": {"shape_match": float("inf")}},
     "shape_reward_on_match must be finite"),
    (lambda doc: {**doc, "rewards": {"transition": {"bad": float("-inf")}}},
     "bad transition reward must be finite"),
    (lambda doc: {**doc, "lambda": {"tone": True}},
     "reward config lambda tone must be a number, got bool"),
    (lambda doc: {"lamda": doc.pop("lambda"), **doc},
     "reward config has unknown keys ['lamda']"),
    (lambda doc: {**doc, "long_note_threshold": "1e3"},
     "bad reward config: duration '1e3' is not n or n/d"),
    (lambda doc: {**doc, "long_note_threshold": 0.1},
     "bad reward config: duration 0.1 is not n or n/d"),
    (lambda doc: {**doc, "harmony_table": {"tone1,tone1": [[0, 0, []]]}},
     "unknown harmony degree [] in cell tone1,tone1"),
    (lambda doc: {**doc, "harmony_table": {"tone1,tone1": [[0, 2, "good"], [2, 4, "fair"]]}},
     "harmony cell tone1,tone1: overlapping intervals"),
]
BAD_CONFIG_IDS = ["list document", "list lambda", "string rewards", "number transition",
                  "list harmony table", "NaN lambda", "infinite lambda", "infinite reward",
                  "infinite transition reward", "bool lambda", "misspelt section",
                  "exponent threshold", "float threshold", "list degree", "overlapping cell"]


def _write_config(edit, path):
    from lyricmelody.rewards import default_reward_config, reward_config_to_dict

    # json.dumps writes NaN and Infinity, which json.loads reads back
    path.write_text(json.dumps(edit(reward_config_to_dict(default_reward_config()))), "utf-8")
    return path


class TestMalformedInputs:
    @pytest.mark.parametrize("edit, message", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_config_document_generate_exit_one(
        self, workspace, model_path, tmp_path, capsys, edit, message
    ):
        config = _write_config(edit, tmp_path / "config.json")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"), "-m", str(model_path),
                     "-o", str(out_dir / "x.mid"), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("edit, message", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_config_document_evaluate_exit_one(
        self, workspace, generated, tmp_path, capsys, edit, message
    ):
        config = _write_config(edit, tmp_path / "config.json")
        report = tmp_path / "report.json"
        assert main(["evaluate", str(workspace / "lyrics" / "song_0.txt"),
                     str(generated / "song_0.mid"), "--config", str(config),
                     "--json", str(report)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("pipeline", ["single", "two-stage"])
    @pytest.mark.parametrize("slot, source", [
        ("token_model", "rhythm_model"),
        ("token_model", "pitch_model"),
        ("rhythm_model", "token_model"),
        ("rhythm_model", "pitch_model"),
        ("pitch_model", "token_model"),
        ("pitch_model", "rhythm_model"),
    ])
    def test_model_slot_of_another_kind_exit_one(
        self, workspace, model_path, tmp_path, capsys, pipeline, slot, source
    ):
        doc = json.loads(model_path.read_text())
        doc[slot] = doc[source]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc), "utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"), "-m", str(broken),
                     "-o", str(out_dir / "x.mid"), "--pipeline", pipeline]) == 1
        err = capsys.readouterr().err
        kinds = {"token_model": "melody", "rhythm_model": "rhythm", "pitch_model": "pitch"}
        assert (f"model file slot {slot} holds a {kinds[source]} model, expected {kinds[slot]}"
                in err)
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    def test_partial_harmony_table_scores_covered_pairs_only(self, tmp_path):
        from lyricmelody.rewards import default_reward_config, reward_config_to_dict

        cfg = reward_config_to_dict(default_reward_config())
        cfg["harmony_table"] = {"tone3,tone3": cfg["harmony_table"]["tone3,tone3"]}
        cfg_path = tmp_path / "partial.json"
        cfg_path.write_text(json.dumps(cfg), "utf-8")
        lyrics = tmp_path / "s.txt"
        lyrics.write_text("ni3|W hao3|I hen3|I ma1|I .\n", "utf-8")
        midi = tmp_path / "s.mid"
        midi.write_bytes(write_midi(mk_melody([(72, 1), (72, 1), (60, 1), (60, 1)])))
        report = tmp_path / "report.json"
        assert main(["evaluate", str(lyrics), str(midi), "--config", str(cfg_path),
                     "--json", str(report)]) == 0
        # T3->T3 jumps 0 (excellent, 1.0) and -12 (bad, 0.0); no T3->T1 cell
        assert json.loads(report.read_text())["s"]["tone_transition"] == 0.5

    def test_model_without_counts_exit_one(self, workspace, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        del doc["token_model"]["counts"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc), "utf-8")
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(broken), "-o", str(tmp_path / "x.mid")]) == 1
        err = capsys.readouterr().err
        assert "counts" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, part, keep", [
        (["--mode", "beam"], "token_model", ":C"),
        (["--mode", "sample"], "token_model", ":C"),
        (["--mode", "rerank"], "token_model", ":C"),
        (["--pipeline", "two-stage"], "pitch_model", "R"),
    ])
    def test_vocabulary_that_cannot_cover_lyrics_exit_one(
        self, workspace, model_path, tmp_path, capsys, flags, part, keep
    ):
        # a token vocabulary of continuations, rests and <end> only, or a
        # pitch vocabulary of the rest mark and <end> only
        doc = json.loads(model_path.read_text())
        vocab = doc[part]["vocab"]
        vocab["tokens"] = [t for t in vocab["tokens"]
                           if t == "<end>" or t.startswith("R") or t.endswith(keep)]
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps(doc), "utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"), "-m", str(narrow),
                     "-o", str(out_dir / "x.mid"), *flags]) == 1
        err = capsys.readouterr().err
        assert "vocabulary" in err and "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("count, which", [(0, "all"), (-5, "first"), ("3", "first")])
    def test_non_positive_or_non_integer_count_exit_one(
        self, workspace, model_path, tmp_path, capsys, count, which
    ):
        doc = json.loads(model_path.read_text())
        pairs = [pair for _, succ in doc["token_model"]["counts"] for pair in succ]
        for pair in pairs if which == "all" else pairs[:1]:
            pair[1] = count
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc), "utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"), "-m", str(broken),
                     "-o", str(out_dir / "x.mid"), "--mode", "beam"]) == 1
        err = capsys.readouterr().err
        assert "count" in err and "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("part, where, bad", [
        ("token_model", "counts", "N:60"),
        ("token_model", "counts", "R"),
        ("token_model", "counts", 5),
        ("rhythm_model", "vocab", "N:1"),
        ("pitch_model", "vocab", "200"),
        ("token_model", "vocab", "R:1e10000000"),
        ("rhythm_model", "vocab", "N:1.5:S"),
        ("token_model", "vocab", "N:6_0:1/2:S"),
        ("token_model", "vocab", "N: +60 :1/2:S"),
        ("token_model", "vocab", "N:-0:1/2:S"),
        ("pitch_model", "vocab", "6_0"),
        ("pitch_model", "vocab", " +60 "),
        ("pitch_model", "vocab", "-0"),
    ])
    def test_malformed_model_token_exit_one(
        self, workspace, model_path, tmp_path, capsys, part, where, bad
    ):
        # a successor, or a vocabulary token, that is no token of its kind
        doc = json.loads(model_path.read_text())
        if where == "vocab":
            doc[part]["vocab"]["tokens"][0] = bad
        else:
            doc[part]["counts"][0][1][0][0] = bad
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc), "utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"), "-m", str(broken),
                     "-o", str(out_dir / "x.mid")]) == 1
        err = capsys.readouterr().err
        assert f"token {bad!r}" in err and "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("pipeline", ["single", "two-stage"])
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["token_model"].update(order=2.9),
         "model order must be an integer, got float"),
        (lambda doc: doc["rhythm_model"].update(order=True),
         "model order must be an integer, got bool"),
        (lambda doc: doc["pitch_model"].update(discount="0.5"),
         "model discount must be a number, got str"),
        (lambda doc: doc["token_model"].update(counts={}),
         "model counts must be a list, got dict"),
        (_lengthen_a_context, "is longer than order - 1 = 2"),
        (lambda doc: doc.update(version="1"), "unsupported model file version '1'"),
        (lambda doc: doc.update(version=True), "unsupported model file version True"),
        (lambda doc: doc.update(extra=1), "model file has unknown keys ['extra']"),
        (lambda doc: doc["token_model"].update(bogus=[]), "model has unknown keys ['bogus']"),
        (lambda doc: doc["pitch_model"]["vocab"].update(size=3),
         "model vocab has unknown keys ['size']"),
    ], ids=["fractional order", "bool order", "string discount", "object counts",
            "long context", "string version", "bool version", "top-level key", "slot key",
            "vocab key"])
    def test_malformed_model_number_or_container_exit_one(
        self, workspace, model_path, tmp_path, capsys, pipeline, edit, message
    ):
        doc = json.loads(model_path.read_text())
        edit(doc)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc), "utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"), "-m", str(broken),
                     "-o", str(out_dir / "x.mid"), "--pipeline", pipeline]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("case", [
        "evaluate missing midi", "non-utf8 lyrics", "non-utf8 config", "non-utf8 model",
        "generate into missing dir", "train into missing dir", "evaluate json into missing dir",
        "compare json into missing dir", "missing config", "missing model", "missing corpus",
        "missing compare dir", "evaluate missing lyrics dir", "evaluate missing midi dir",
        "evaluate midi dir for a lyrics file",
    ])
    def test_os_or_encoding_error_exit_one(
        self, workspace, model_path, generated, tmp_path, capsys, case
    ):
        lyrics, midi = str(workspace / "lyrics" / "song_0.txt"), str(generated / "song_0.mid")
        missing = tmp_path / "nodir"
        not_utf8 = tmp_path / "utf16.txt"
        not_utf8.write_bytes("ni3|W hao3|I .\n".encode("utf-16"))
        out = str(tmp_path / "x.mid")
        generate = ["generate", lyrics, "-m", str(model_path), "-o", out]
        argv, named = {
            "evaluate missing midi": (["evaluate", lyrics, str(missing / "x.mid")], missing),
            "non-utf8 lyrics": (["generate", str(not_utf8), "-m", str(model_path), "-o", out],
                                not_utf8),
            "non-utf8 config": ([*generate, "--config", str(not_utf8)], not_utf8),
            "non-utf8 model": (["generate", lyrics, "-m", str(not_utf8), "-o", out], not_utf8),
            "generate into missing dir": (
                ["generate", lyrics, "-m", str(model_path), "-o", str(missing / "x.mid")],
                missing),
            "train into missing dir": (
                ["train", str(workspace / "corpus"), "-o", str(missing / "m.json")], missing),
            "evaluate json into missing dir": (
                ["evaluate", lyrics, midi, "--json", str(missing / "r.json")], missing),
            "compare json into missing dir": (
                ["compare", str(workspace / "lyrics"), "-m", str(model_path), "--modes", "off",
                 "--json", str(missing / "c.json")], missing),
            "missing config": ([*generate, "--config", str(missing / "c.json")], missing),
            "missing model": (["generate", lyrics, "-m", str(missing / "m.json"), "-o", out],
                              missing),
            "missing corpus": (["train", str(missing), "-o", str(tmp_path / "m.json")], missing),
            "missing compare dir": (["compare", str(missing), "-m", str(model_path)], missing),
            "evaluate missing lyrics dir": (["evaluate", str(missing), str(generated)], missing),
            "evaluate missing midi dir": (["evaluate", str(workspace / "lyrics"), str(missing)],
                                          missing),
            "evaluate midi dir for a lyrics file": (["evaluate", lyrics, str(generated)],
                                                    generated),
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(named) in err and "Traceback" not in err

    def test_zero_time_signature_numerator_exit_one(self, tmp_path, capsys):
        lyrics = tmp_path / "s.txt"
        lyrics.write_text("ni3|W hao3|I .\n", "utf-8")
        data = write_midi(mk_melody([(60, 1), (62, 1)]))
        meter = bytes([0xFF, 0x58, 0x04, 4])  # time-signature meta event, numerator 4
        assert data.count(meter) == 1
        midi = tmp_path / "s.mid"
        midi.write_bytes(data.replace(meter, meter[:3] + bytes([0])))
        assert main(["evaluate", str(lyrics), str(midi)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "time signature" in err and "Traceback" not in err


#: (format, fault, path to the faulty node, its new value or _GONE, error class, message);
#: each format meets each kind of fault its keys allow: lyrics hold no number, and a model
#: file has no optional key, so its null goes to a required one
_GONE = object()
JSON_FAULTS = [
    ("lyrics", "not an object", ("sentences", 0), 5, LyricFormatError,
     "lyrics JSON schema violation: sentence must be a JSON object, got int"),
    ("lyrics", "unknown key", ("title",), "x", LyricFormatError,
     "lyrics JSON schema violation: document has unknown keys ['title']"),
    ("lyrics", "missing key", ("language",), _GONE, LyricFormatError,
     "lyrics JSON schema violation: document has no 'language'"),
    ("lyrics", "true for a list", ("sentences",), True, LyricFormatError,
     "lyrics JSON schema violation: document sentences must be a list, got bool"),
    ("lyrics", "null for an optional key", ("sentences", 0, "syllables", 0, "tone"), None,
     LyricFormatError, "lyrics JSON schema violation: None is not a valid Tone"),
    ("melody", "not an object", ("tokens", 0), 5, MidiFormatError,
     "invalid melody JSON: token 0 must be a JSON object, got int"),
    ("melody", "unknown key", ("tokens", 0, "velocity"), 90, MidiFormatError,
     "invalid melody JSON: token 0 has unknown keys ['velocity']"),
    ("melody", "missing key", ("tokens", 0, "duration"), _GONE, MidiFormatError,
     "invalid melody JSON: token 0 has no 'duration'"),
    ("melody", "true for an integer", ("tokens", 0, "pitch"), True, MidiFormatError,
     "invalid melody JSON: token 0 pitch must be an integer, got bool"),
    ("melody", "float for an integer", ("tokens", 0, "pitch"), 60.0, MidiFormatError,
     "invalid melody JSON: token 0 pitch must be an integer, got float"),
    ("melody", "null for an optional key", ("time_signature",), None, MidiFormatError,
     "invalid melody JSON: document time_signature must be a list, got NoneType"),
    ("config", "not an object", (), [], ConfigError,
     "reward config must be a JSON object, got list"),
    ("config", "unknown key", ("colour",), "red", ConfigError,
     "reward config has unknown keys ['colour']"),
    ("config", "missing key", ("harmony_table",), _GONE, ConfigError,
     "reward config has no 'harmony_table'"),
    ("config", "true for a number", ("lambda", "tone"), True, ConfigError,
     "reward config lambda tone must be a number, got bool"),
    ("config", "float for an integer", ("harmony_table", "tone1,tone1", 0, 0), -6.0,
     ConfigError, "harmony cell tone1,tone1: [-6.0, -4, 'fair'] is not [low, high, degree] "
     "with integer bounds"),
    ("config", "null for an optional key", ("lambda",), None, ConfigError,
     "reward config lambda must be an object, got NoneType"),
    ("config", "null for the threshold", ("long_note_threshold",), None, ConfigError,
     "bad reward config: duration None is not n or n/d"),
    ("model", "not an object", ("token_model",), [], TrainingError,
     "model file token_model must be an object, got list"),
    ("model", "unknown key", ("extra",), 1, TrainingError,
     "model file has unknown keys ['extra']"),
    ("model", "missing key", ("token_model", "counts"), _GONE, TrainingError,
     "model has no 'counts'"),
    ("model", "true for a number", ("pitch_model", "discount"), True, TrainingError,
     "model discount must be a number, got bool"),
    ("model", "float for an integer", ("rhythm_model", "order"), 2.0, TrainingError,
     "model order must be an integer, got float"),
    ("model", "null for a required key", ("token_model", "vocab", "kind"), None,
     TrainingError, "model vocab kind must be a string, got NoneType"),
]


@pytest.mark.parametrize("fmt, fault, path, value, error, message", JSON_FAULTS,
                         ids=[f"{fmt}: {fault}" for fmt, fault, *_ in JSON_FAULTS])
def test_json_shape_fault(workspace, model_path, tmp_path, capsys, fmt, fault, path, value,
                          error, message):
    from lyricmelody import ModelBundle, load_reward_config, melody_from_json, parse_lyrics
    from lyricmelody.rewards import default_reward_config, reward_config_to_dict

    doc, load = {
        "lyrics": ({"language": "tonal", "sentences": [
            {"syllables": [{"text": "ni", "tone": "tone3", "word_position": "start"}]}]},
            parse_lyrics),
        "melody": ({"time_signature": [4, 4], "tokens": [
            {"kind": "note", "duration": "1", "pitch": 60, "syllable_start": True}]},
            melody_from_json),
        "config": (reward_config_to_dict(default_reward_config()), load_reward_config),
        "model": (json.loads(model_path.read_text()), ModelBundle.from_json),
    }[fmt]
    load(json.dumps(doc))  # the document loads before the fault
    if not path:
        doc = value
    else:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value is _GONE:
            del node[last]
        else:
            node[last] = value
    text = json.dumps(doc)
    with pytest.raises(error) as info:
        load(text)
    assert (type(info.value), str(info.value)) == (error, message)
    if fmt == "melody":  # no command reads a melody JSON dump
        return
    bad = tmp_path / "bad.json"
    bad.write_text(text, "utf-8")
    song, model = str(workspace / "lyrics" / "song_0.txt"), str(model_path)
    args = {"lyrics": [str(bad), "-m", model], "config": [song, "-m", model, "--config", str(bad)],
            "model": [song, "-m", str(bad)]}[fmt]
    assert main(["generate", *args, "-o", str(tmp_path / "x.mid")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.mid").exists()


def _discount_past_the_float_range(doc):
    doc["pitch_model"]["discount"] = 10**400  # a float() of it overflows
    return json.dumps(doc)


_DEEP = "[" * 200_000 + "]" * 200_000
_LONG = "1" * 5_001  # over Python's 4,300-digit limit for reading an integer
#: (format, fault, the faulty text made from the format's valid document, error class,
#: start of the message): faults of the text itself, most of which json.dumps cannot write;
#: each document is an object, so parse_lyrics reads the lyrics as JSON
JSON_TEXT_FAULTS = [
    *((fmt, fault, lambda doc, value=value: '{"a": %s}' % value, error, f"invalid {what}: ")
      for fmt, error, what in [("lyrics", LyricFormatError, "lyrics JSON"),
                               ("melody", MidiFormatError, "melody JSON"),
                               ("config", ConfigError, "reward config JSON"),
                               ("model", TrainingError, "model file")]
      for fault, value in [("deep nesting", _DEEP), ("5001-digit integer", _LONG)]),
    ("model", "discount 10**400", _discount_past_the_float_range, TrainingError,
     "discount must lie in (0, 1), got 1000"),
]


@pytest.mark.parametrize("fmt, fault, make_text, error, message", JSON_TEXT_FAULTS,
                         ids=[f"{fmt}: {fault}" for fmt, fault, *_ in JSON_TEXT_FAULTS])
def test_json_text_fault(workspace, model_path, tmp_path, capsys, fmt, fault, make_text, error,
                         message):
    from lyricmelody import ModelBundle, load_reward_config, melody_from_json, parse_lyrics

    load = {"lyrics": parse_lyrics, "melody": melody_from_json, "config": load_reward_config,
            "model": ModelBundle.from_json}[fmt]
    text = make_text(json.loads(model_path.read_text()))
    with pytest.raises(error) as info:
        load(text)
    assert type(info.value) is error and str(info.value).startswith(message)
    if fmt == "melody":  # no command reads a melody JSON dump
        return
    bad = tmp_path / "bad.json"
    bad.write_text(text, "utf-8")
    song, model = str(workspace / "lyrics" / "song_0.txt"), str(model_path)
    args = {"lyrics": [str(bad), "-m", model], "config": [song, "-m", model, "--config", str(bad)],
            "model": [song, "-m", str(bad)]}[fmt]
    assert main(["generate", *args, "-o", str(tmp_path / "x.mid")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "x.mid").exists()


class TestStartup:
    def test_import_leaves_numpy_unloaded(self):
        import lyricmelody

        src = str(Path(lyricmelody.__file__).resolve().parents[1])
        code = "import sys, lyricmelody; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"
