import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lyricmelody import read_midi, serialize_lyrics, write_midi
from lyricmelody.cli import main
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

    def test_non_object_model_file_exit_one(self, workspace, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text("[1]", "utf-8")
        out = tmp_path / "x.mid"
        assert main(["generate", str(workspace / "lyrics" / "song_0.txt"),
                     "-m", str(model), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "model file" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("meter", ["4/6", "4/0", "0/4", "-4/4", "x/4", "300/4"])
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

    def test_alignment_mismatch_exit_one(self, workspace, generated, tmp_path, capsys):
        wrong = tmp_path / "wrong.txt"
        wrong.write_text("ni3|W .\n", "utf-8")
        assert main(["evaluate", str(wrong), str(generated / "song_0.mid")]) == 1
        assert "alignment" in capsys.readouterr().err.lower()


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

    def test_bad_time_signature_exit_one(self, workspace, model_path, tmp_path, capsys):
        report = tmp_path / "t.json"
        assert main(["compare", str(workspace / "lyrics"), "-m", str(model_path),
                     "--modes", "off", "--time-signature", "4/6", "--json", str(report)]) == 1
        err = capsys.readouterr().err
        assert "4/6" in err and "Traceback" not in err
        assert not report.exists()


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
        from lyricmelody.errors import InternalError
        import lyricmelody.cli as cli

        def boom(*args, **kwargs):
            raise InternalError("score mismatch")

        monkeypatch.setattr(cli, "_run_decode", boom)
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
    (lambda doc: [], "reward config document must be a JSON object, got list"),
    (lambda doc: {**doc, "lambda": [1]}, "reward config 'lambda' must be a JSON object"),
    (lambda doc: {**doc, "rewards": "x"}, "reward config 'rewards' must be a JSON object"),
    (lambda doc: {**doc, "rewards": {"transition": 1}},
     "reward config 'rewards.transition' must be a JSON object"),
    (lambda doc: {**doc, "harmony_table": []},
     "reward config 'harmony_table' must be a JSON object"),
    (lambda doc: {**doc, "lambda": {"tone": float("nan")}}, "lambda_tone must be finite"),
    (lambda doc: {**doc, "lambda": {"rhythm": float("inf")}}, "lambda_rhythm must be finite"),
    (lambda doc: {**doc, "rewards": {"shape_match": float("inf")}},
     "shape_reward_on_match must be finite"),
    (lambda doc: {**doc, "rewards": {"transition": {"bad": float("-inf")}}},
     "bad transition reward must be finite"),
    (lambda doc: {**doc, "lambda": {"tone": True}},
     "reward config 'lambda.tone' must be a number, got bool"),
    (lambda doc: {"lamda": doc.pop("lambda"), **doc},
     "reward config document has unknown keys ['lamda']"),
]
BAD_CONFIG_IDS = ["list document", "list lambda", "string rewards", "number transition",
                  "list harmony table", "NaN lambda", "infinite lambda", "infinite reward",
                  "infinite transition reward", "bool lambda", "misspelt section"]


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
        (lambda doc: doc["token_model"].update(order=2.9), "model order 2.9 is not"),
        (lambda doc: doc["rhythm_model"].update(order=True), "model order True is not"),
        (lambda doc: doc["pitch_model"].update(discount="0.5"), "model discount '0.5' is not"),
        (lambda doc: doc["token_model"].update(counts={}), "model counts must be a list"),
        (_lengthen_a_context, "is longer than order - 1 = 2"),
        (lambda doc: doc.update(version="1"), "unsupported model file version '1'"),
    ], ids=["fractional order", "bool order", "string discount", "object counts",
            "long context", "string version"])
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


class TestStartup:
    def test_import_leaves_numpy_unloaded(self):
        import lyricmelody

        src = str(Path(lyricmelody.__file__).resolve().parents[1])
        code = "import sys, lyricmelody; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"
