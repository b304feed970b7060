"""Report writers, artifact bundles, and the end-to-end command line flows."""

import argparse
import copy
import hashlib
import json
import logging
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbundle.artifacts import (
    BUNDLE_FILE,
    load_predictor,
    load_split,
    save_predictor,
    save_split,
    sha256_file,
    write_manifest,
)
from seqbundle.baselines import (
    MarkovPredictor,
    ZeroOrderPredictor,
    fit_markov,
    fit_zero_order,
)
from seqbundle import artifacts, baselines, cli, dataio, domain, synthgen
from seqbundle.cli import main as cli_main
from seqbundle.dataio import Dataset, FeatureConfig, FeaturePipeline, Split, split
from seqbundle.domain import Outcome, Session
from seqbundle.errors import SchemaError
from seqbundle.reports import (
    svg_cdf_chart,
    svg_demand_chart,
    write_csv,
    write_json,
    write_summary_csv,
)
from seqbundle.seqmodels import (
    LSTMConfig,
    MLPConfig,
    ModelKind,
    NeuralPredictor,
    TrainConfig,
    TransformerConfig,
    make_model,
)
from seqbundle.neuralkit import checkpoint
from seqbundle.seqmodels import config as seqconfig
from seqbundle.seqmodels.models import TransformerModel
from seqbundle.synthgen import (
    GeneratorSpec,
    frequent_pattern_spec,
    generate,
    named_spec,
    second_order_spec,
    spec_from_json,
    spec_to_json,
    stopping_spec,
)
from seqbundle.errors import ConstraintViolation


@pytest.fixture(scope="module")
def tiny_dataset():
    return split(generate(frequent_pattern_spec(n_sessions=30, seed=101)), seed=0)


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    """Shared generate -> train flow so each CLI test doesn't retrain."""
    root = tmp_path_factory.mktemp("cliflow")
    data = root / "data"
    rc = cli_main(
        ["generate", "--name", "stopping", "--n-sessions", "40",
         "--seed", "7", "--out", str(data)]
    )
    assert rc == 0
    for model in cli.BASELINE_KINDS:
        rc = cli_main(
            ["train", "--data", str(data), "--model", model,
             "--out", str(root / f"run_{model}"), "--seed", "3"]
        )
        assert rc == 0
    rc = cli_main(
        ["train", "--data", str(data), "--model", "transformer",
         "--out", str(root / "run_tf"), "--seed", "3",
         "--embed-dim", "8", "--n-blocks", "1", "--n-heads", "2",
         "--head-dim", "4", "--ff-dim", "8",
         "--epochs", "2", "--batch-size", "8", "--learning-rate", "0.01"]
    )
    assert rc == 0
    return root


class TestWriters:
    def test_json_sorted_keys_trailing_newline(self, tmp_path):
        path = write_json(tmp_path / "x.json", {"b": 1, "a": [2, 3]})
        text = path.read_text()
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_csv_unix_line_endings(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [3, 4]])
        raw = path.read_bytes()
        assert raw == b"a,b\n1,2\n3,4\n"

    def test_summary_csv_columns(self, tmp_path, tiny_dataset):
        from seqbundle.evalkit import summarize_dataset

        path = write_summary_csv(tmp_path / "s.csv", summarize_dataset(tiny_dataset))
        header, *rows = path.read_text().splitlines()
        assert header == (
            "playlist_id,n_tracks,n_sessions,mean_events,mean_listening_seconds,"
            "mean_tracks_played,share_skip,share_play,share_replay"
        )
        assert rows
        for row in rows:
            for cell in row.split(",")[1:]:
                float(cell)  # a plain number, not a numpy repr such as np.float64(0.5)

    def test_cdf_chart_fixed_canvas(self):
        svg = svg_cdf_chart({"mc": [0.2, 0.5, 0.5, 1.0]})
        assert 'width="640" height="420"' in svg
        assert svg == svg_cdf_chart({"mc": [0.2, 0.5, 0.5, 1.0]})
        assert svg != svg_cdf_chart({"mc": [0.3, 0.5, 0.5, 1.0]})
        assert svg.count("<polyline") == 1

    def test_cdf_chart_one_line_per_series(self):
        svg = svg_cdf_chart({"a": [0.5], "b": [0.25, 1.0]})
        assert svg.count("<polyline") == 2

    def test_cdf_chart_rejects_empty(self):
        with pytest.raises(ConstraintViolation):
            svg_cdf_chart({})

    def test_demand_chart_plots_covered_tracks(self, tiny_dataset):
        from seqbundle.evalkit import evaluate_dataset

        pid = tiny_dataset.playlist_ids()[0]
        playlist = tiny_dataset.playlists[pid]
        predictor = MarkovPredictor(
            model=fit_markov(list(tiny_dataset.train_sessions(pid)), playlist)
        )
        report = evaluate_dataset({pid: predictor}, tiny_dataset, split=Split.TEST)
        svg = svg_demand_chart(report, tiny_dataset.cap)
        assert svg.count("<circle") >= 1
        assert svg == svg_demand_chart(report, tiny_dataset.cap)


class TestSplitStore:
    def test_round_trip(self, tmp_path, tiny_dataset):
        path = save_split(tmp_path / "split.json", tiny_dataset)
        reloaded = load_split(path, tiny_dataset)
        assert reloaded.split_tags == tiny_dataset.split_tags

    def test_missing_session_rejected(self, tmp_path, tiny_dataset):
        path = save_split(tmp_path / "split.json", tiny_dataset)
        obj = json.loads(path.read_text())
        first = next(iter(obj["session_splits"]))
        del obj["session_splits"][first]
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="no stored split tag"):
            load_split(path, tiny_dataset)

    def test_a_renamed_session_has_no_stored_tag(self, tmp_path, tiny_dataset):
        path = save_split(tmp_path / "split.json", tiny_dataset)
        obj = json.loads(path.read_text())
        last = list(obj["session_splits"])[-1]
        obj["session_splits"]["ghost"] = obj["session_splits"].pop(last)
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match=f"session {last!r} has no stored split tag"):
            load_split(path, tiny_dataset)

    def test_unknown_session_rejected(self, tmp_path, tiny_dataset):
        path = save_split(tmp_path / "split.json", tiny_dataset)
        obj = json.loads(path.read_text())
        obj["session_splits"]["ghost"] = "train"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="unknown sessions"):
            load_split(path, tiny_dataset)

    @settings(deadline=None)
    @given(
        tags=st.dictionaries(
            st.one_of(st.text(), st.sampled_from(['a"1', "b\\2", "caf\u00e9", "e\u2028f"])),
            st.sampled_from(Split),
            max_size=20,
        )
    )
    def test_bytes_equal_the_indented_dumps(self, tmp_path_factory, tiny_dataset, tags):
        events = tiny_dataset.sessions[0].events
        dataset = Dataset(
            playlists=tiny_dataset.playlists,
            sessions=tuple(Session(sid, "synthetic", events) for sid in tags),
            split_tags=tuple(tags.values()),
        )
        path = save_split(tmp_path_factory.mktemp("split") / "split.json", dataset)
        expected = json.dumps(
            {"session_splits": {sid: tag.value for sid, tag in tags.items()}},
            indent=2,
            sort_keys=True,
        )
        assert path.read_bytes() == (expected + "\n").encode("utf-8")


class TestPredictorBundles:
    def test_markov_round_trip(self, tmp_path, tiny_dataset):
        pid = tiny_dataset.playlist_ids()[0]
        playlist = tiny_dataset.playlists[pid]
        sessions = list(tiny_dataset.train_sessions(pid))
        for position_dependent in (False, True):
            predictor = MarkovPredictor(
                model=fit_markov(
                    sessions, playlist, position_dependent=position_dependent
                )
            )
            where = tmp_path / ("pmc" if position_dependent else "mc")
            save_predictor(where, predictor)
            reloaded = load_predictor(where, playlist)
            probe = sessions[0]
            assert np.array_equal(
                reloaded.predict_session(probe), predictor.predict_session(probe)
            )

    def test_zero_order_round_trip(self, tmp_path, tiny_dataset):
        pid = tiny_dataset.playlist_ids()[0]
        playlist = tiny_dataset.playlists[pid]
        sessions = list(tiny_dataset.train_sessions(pid))
        predictor = ZeroOrderPredictor(table=fit_zero_order(sessions, playlist))
        save_predictor(tmp_path / "zero", predictor)
        reloaded = load_predictor(tmp_path / "zero", playlist)
        probe = sessions[1]
        assert np.array_equal(
            reloaded.predict_session(probe), predictor.predict_session(probe)
        )

    def test_neural_round_trip_is_bitwise(self, tmp_path, tiny_dataset):
        pid = tiny_dataset.playlist_ids()[0]
        playlist = tiny_dataset.playlists[pid]
        sessions = list(tiny_dataset.train_sessions(pid))
        config = FeatureConfig()
        pipeline = FeaturePipeline(playlist=playlist, config=config)
        pipeline.fit(sessions)
        model = make_model(
            ModelKind.MLP,
            MLPConfig(input_dim=config.input_dim, hidden_dim=8, n_layers=2),
            seed=11,
        )
        predictor = NeuralPredictor(model=model, pipeline=pipeline, feasibility_mask=True)
        save_predictor(tmp_path / "mlp", predictor)
        reloaded = load_predictor(tmp_path / "mlp", playlist)
        assert reloaded.feasibility_mask is True
        probe = sessions[0]
        assert (
            reloaded.predict_session(probe).tobytes()
            == predictor.predict_session(probe).tobytes()
        )

    def test_unknown_predictor_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot serialize"):
            save_predictor(tmp_path / "bad", object())


TINY_OPTIONS = {
    **cli.TRAIN_DEFAULTS,
    "epochs": 1,
    "embed_dim": 8,
    "n_blocks": 1,
    "n_heads": 2,
    "head_dim": 4,
    "ff_dim": 8,
    "hidden_dim": 4,
    "n_layers": 1,
    "max_positions": 32,
}


@pytest.fixture(scope="module")
def cap3_dataset():
    return split(generate(spec_from_json(_cap3_spec_json())), seed=0)


class TestFitPredictor:
    """cli.fit_predictor, the one fit of every family, through a bundle."""

    @pytest.mark.parametrize("family", cli.FAMILIES)
    def test_fit_save_load(self, tmp_path, cap3_dataset, family):
        pid = cap3_dataset.playlist_ids()[0]
        playlist = cap3_dataset.playlists[pid]
        predictor, info = cli.fit_predictor(
            family, cap3_dataset.train_sessions(pid), playlist, TINY_OPTIONS, cap3_dataset.cap
        )
        neural_keys = {"best_epoch", "stopped_early", "train_losses", "val_losses"}
        assert set(info) == {"n_parameters"} | (
            neural_keys if family in cli.NEURAL_KINDS else set()
        )
        bundle = save_predictor(tmp_path / family, predictor)
        obj = json.loads((bundle / BUNDLE_FILE).read_text())
        assert (obj["cap"] if family in cli.NEURAL_KINDS else obj["payload"]["cap"]) == 3
        reloaded = load_predictor(bundle, playlist)
        sessions = cap3_dataset.test_sessions(pid)
        for got, want in zip(
            reloaded.predict_sessions(sessions), predictor.predict_sessions(sessions)
        ):
            assert got.tobytes() == want.tobytes()

    def test_unknown_family_names_it(self, tiny_dataset):
        pid = tiny_dataset.playlist_ids()[0]
        with pytest.raises(ConstraintViolation, match="'gru'"):
            cli.fit_predictor("gru", tiny_dataset.train_sessions(pid),
                              tiny_dataset.playlists[pid], TINY_OPTIONS, 2)

    def test_unset_sizes_take_the_config_defaults(self, tiny_dataset, monkeypatch):
        assert cli._model_config("lstm", cli.TRAIN_DEFAULTS, 5) == LSTMConfig(input_dim=5)
        assert cli._model_config("mlp", cli.TRAIN_DEFAULTS, 5) == MLPConfig(input_dim=5)
        sized = {**cli.TRAIN_DEFAULTS, "hidden_dim": 7, "n_layers": 1}
        assert cli._model_config("mlp", sized, 5) == MLPConfig(input_dim=5, hidden_dim=7,
                                                               n_layers=1)
        assert cli._model_config("transformer", cli.TRAIN_DEFAULTS, 5) == TransformerConfig(
            input_dim=5
        )
        assert cli._model_config("encoder", cli.TRAIN_DEFAULTS, 5) == TransformerConfig(
            input_dim=5, causal=False, positional="learned"
        )
        features = FeatureConfig()
        assert (cli.TRAIN_DEFAULTS["leak"], cli.TRAIN_DEFAULTS["include_duration"]) == (
            features.leak, features.include_duration
        )

        class Stop(Exception):
            pass

        seen = []

        def record(model, matrices, labels, config):
            seen.append(config)
            raise Stop

        monkeypatch.setattr(cli, "train_model", record)
        pid = tiny_dataset.playlist_ids()[0]
        with pytest.raises(Stop):
            cli.fit_predictor("mlp", tiny_dataset.train_sessions(pid),
                              tiny_dataset.playlists[pid], cli.TRAIN_DEFAULTS, 2)
        assert seen == [TrainConfig()]


class TestManifest:
    def test_digests_and_relative_paths(self, tmp_path):
        inner = tmp_path / "out"
        inner.mkdir()
        data_file = inner / "data.txt"
        data_file.write_text("hello\n")
        path = write_manifest(
            inner / "manifest.json",
            command="demo",
            parameters={"n": 3},
            output_files={"data": data_file},
        )
        obj = json.loads(path.read_text())
        assert obj["command"] == "demo"
        assert obj["parameters"] == {"n": 3}
        assert obj["outputs"]["data"]["path"] == "data.txt"
        assert obj["outputs"]["data"]["sha256"] == sha256_file(data_file)

    def test_outside_paths_stay_absolute(self, tmp_path):
        outside = tmp_path / "elsewhere.txt"
        outside.write_text("x")
        sub = tmp_path / "runs"
        path = write_manifest(
            sub / "manifest.json",
            command="demo",
            parameters={},
            input_files={"raw": outside},
        )
        obj = json.loads(path.read_text())
        assert obj["inputs"]["raw"]["path"] == str(outside)


class TestGenerateCommand:
    def test_writes_expected_files(self, cli_root):
        data = cli_root / "data"
        for name in ("playlists.jsonl", "sessions.jsonl", "generator.json", "manifest.json"):
            assert (data / name).exists(), name
        n_lines = len((data / "sessions.jsonl").read_text().splitlines())
        assert n_lines == 40

    def test_rerun_is_byte_identical(self, cli_root, tmp_path):
        rc = cli_main(
            ["generate", "--name", "stopping", "--n-sessions", "40",
             "--seed", "7", "--out", str(tmp_path / "again")]
        )
        assert rc == 0
        for name in ("playlists.jsonl", "sessions.jsonl", "generator.json"):
            assert (tmp_path / "again" / name).read_bytes() == (
                cli_root / "data" / name
            ).read_bytes(), name

    def test_spec_file_route(self, tmp_path):
        spec = frequent_pattern_spec(n_sessions=12, seed=5)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json(spec)))
        rc = cli_main(
            ["generate", "--spec", str(spec_path), "--out", str(tmp_path / "d")]
        )
        assert rc == 0
        lines = (tmp_path / "d" / "sessions.jsonl").read_text().splitlines()
        assert len(lines) == 12

    def test_session_count_override(self, tmp_path):
        rc = cli_main(
            ["generate", "--name", "stopping", "--n-sessions", "5",
             "--seed", "7", "--out", str(tmp_path / "d")]
        )
        assert rc == 0
        lines = (tmp_path / "d" / "sessions.jsonl").read_text().splitlines()
        assert len(lines) == 5

    def test_unknown_name_is_usage_error(self, tmp_path):
        rc = cli_main(["generate", "--name", "bogus", "--out", str(tmp_path / "d")])
        assert rc == 1


class TestTrainCommand:
    def test_artifacts_exist(self, cli_root):
        run = cli_root / "run_mc"
        assert (run / "run.json").exists()
        assert (run / "split.json").exists()
        assert (run / "manifest.json").exists()
        bundles = sorted((run / "models").iterdir())
        assert len(bundles) == 1
        assert (bundles[0] / BUNDLE_FILE).exists()

    def test_run_json_records_options_and_digests(self, cli_root):
        obj = json.loads((cli_root / "run_mc" / "run.json").read_text())
        assert obj["model"] == "mc"
        assert obj["options"]["train_fraction"] == 0.9
        assert set(obj["data_digests"]) == {"playlists", "sessions"}

    def test_each_data_file_is_hashed_once(self, cli_root, tmp_path, monkeypatch):
        hashed = []
        real = artifacts.sha256_file

        def counting(path):
            hashed.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(artifacts, "sha256_file", counting)
        run = tmp_path / "run"
        assert cli_main(["train", "--data", str(cli_root / "data"), "--model", "mc",
                         "--out", str(run), "--seed", "3"]) == 0
        assert hashed.count("playlists.jsonl") == hashed.count("sessions.jsonl") == 1
        data_digests = json.loads((run / "run.json").read_text())["data_digests"]
        inputs = json.loads((run / "manifest.json").read_text())["inputs"]
        assert data_digests == {name: real(cli_root / "data" / f"{name}.jsonl")
                                for name in ("playlists", "sessions")}
        assert {name: entry["sha256"] for name, entry in inputs.items()} == data_digests

    def test_rerun_is_byte_identical(self, cli_root, tmp_path):
        rc = cli_main(
            ["train", "--data", str(cli_root / "data"), "--model", "mc",
             "--out", str(tmp_path / "r2"), "--seed", "3"]
        )
        assert rc == 0
        for name in ("run.json", "split.json"):
            assert (tmp_path / "r2" / name).read_bytes() == (
                cli_root / "run_mc" / name
            ).read_bytes(), name

    def test_neural_run_records_training_curve(self, cli_root):
        obj = json.loads((cli_root / "run_tf" / "run.json").read_text())
        info = next(iter(obj["playlists"].values()))
        assert len(info["train_losses"]) >= 1
        assert info["n_parameters"] > 0
        weights = next((cli_root / "run_tf" / "models").iterdir())
        assert (weights / "weights.bin").exists()
        assert (weights / "weights.json").exists()

    def test_verbose_epoch_lines_stay_out_of_artifacts(self, cli_root, tmp_path, caplog):
        argv = ["train", "--data", str(cli_root / "data"), "--model", "mlp",
                "--hidden-dim", "4", "--n-layers", "1", "--epochs", "2", "--seed", "3"]
        assert cli_main(argv + ["--out", str(tmp_path / "quiet")]) == 0
        with caplog.at_level(logging.INFO, logger="seqbundle.seqmodels.training"):
            assert cli_main(["--verbose"] + argv + ["--out", str(tmp_path / "loud")]) == 0
        epochs = [r.getMessage().split(":")[0] for r in caplog.records
                  if r.getMessage().startswith("epoch ")]
        assert epochs == ["epoch 1/2", "epoch 2/2"]
        files = sorted(p.relative_to(tmp_path / "quiet")
                       for p in (tmp_path / "quiet").rglob("*") if p.is_file())
        assert files
        for rel in files:
            loud = (tmp_path / "loud" / rel).read_bytes()
            assert loud == (tmp_path / "quiet" / rel).read_bytes()
            assert b"sessions/s" not in loud

    def test_unknown_config_key_rejected(self, cli_root, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"learning_rat": 0.1}')
        rc = cli_main(
            ["train", "--data", str(cli_root / "data"), "--model", "mc",
             "--out", str(tmp_path / "r"), "--config", str(config)]
        )
        assert rc == 2

    def test_missing_data_dir_is_data_error(self, tmp_path):
        rc = cli_main(
            ["train", "--data", str(tmp_path / "nope"), "--model", "mc",
             "--out", str(tmp_path / "r")]
        )
        assert rc == 2


class TestEvaluateCommand:
    def test_a_neural_bundle_with_n_classes_is_refused(self, cli_root, tmp_path, capsys):
        # a neural model.json's output width is the number of outcomes, so its
        # model config holds no n_classes; an older bundle that has one is refused
        run = tmp_path / "run_tf"
        shutil.copytree(cli_root / "run_tf", run)
        path = run / "models" / "synthetic" / BUNDLE_FILE
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert "n_classes" not in obj["model"]
        obj["model"]["n_classes"] = 3
        path.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["evaluate", "--data", str(cli_root / "data"), "--run", str(run),
                         "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: field 'model': unexpected field 'n_classes' for kind 'transformer'\n"
        )

    def test_produces_report_files(self, cli_root):
        rc = cli_main(
            ["evaluate", "--data", str(cli_root / "data"),
             "--run", str(cli_root / "run_mc")]
        )
        assert rc == 0
        out = cli_root / "run_mc" / "eval"
        for name in (
            "report.json", "hit_rates.csv", "confusion.csv", "demand.csv",
            "cdf.csv", "cdf.svg", "demand.svg", "manifest.json",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["outcome_order"] == ["skip", "play", "replay"]
        assert report["model"] == "mc"
        assert 0.0 <= report["hit_rate"] <= 1.0

    def test_csv_headers(self, cli_root):
        out = cli_root / "run_mc" / "eval"
        if not out.exists():
            assert cli_main(
                ["evaluate", "--data", str(cli_root / "data"),
                 "--run", str(cli_root / "run_mc")]
            ) == 0
        heads = {
            "hit_rates.csv": "playlist_id,position,observations,hits,hit_rate",
            "confusion.csv": "actual,observations,predicted_skip,predicted_play,predicted_replay",
            "demand.csv": "playlist_id,track_position,coverage,actual_rate,predicted_rate",
            "cdf.csv": "hit_rate,cumulative_fraction",
        }
        for name, expected in heads.items():
            got = (out / name).read_text().splitlines()[0]
            assert got == expected, name

    def test_rerun_is_byte_identical(self, cli_root, tmp_path):
        args = ["evaluate", "--data", str(cli_root / "data"),
                "--run", str(cli_root / "run_mc")]
        assert cli_main(args + ["--out", str(tmp_path / "e1")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "e2")]) == 0
        for name in ("report.json", "hit_rates.csv", "cdf.svg"):
            assert (tmp_path / "e1" / name).read_bytes() == (
                tmp_path / "e2" / name
            ).read_bytes(), name

    def test_train_split_scoring(self, cli_root, tmp_path):
        rc = cli_main(
            ["evaluate", "--data", str(cli_root / "data"),
             "--run", str(cli_root / "run_mc"),
             "--split", "train", "--out", str(tmp_path / "e")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert report["split"] == "train"

    def test_mismatched_data_rejected(self, cli_root, tmp_path):
        other = tmp_path / "other_data"
        rc = cli_main(
            ["generate", "--name", "stopping", "--n-sessions", "40",
             "--seed", "8", "--out", str(other)]
        )
        assert rc == 0
        rc = cli_main(
            ["evaluate", "--data", str(other), "--run", str(cli_root / "run_mc")]
        )
        assert rc == 2

    def test_expected_demand_mode(self, cli_root, tmp_path):
        rc = cli_main(
            ["evaluate", "--data", str(cli_root / "data"),
             "--run", str(cli_root / "run_mc"),
             "--demand-mode", "expected", "--n-rollouts", "20",
             "--seed", "1", "--out", str(tmp_path / "e")]
        )
        assert rc == 0


    @pytest.mark.parametrize("command", ["evaluate", "analyze-attention"])
    def test_session_end_is_the_runs_not_a_flag(self, cli_root, tmp_path, capsys, command):
        out = tmp_path / "out"
        rc = cli_main([command, "--data", str(cli_root / "data"), "--run",
                       str(cli_root / "run_tf"), "--session-end", "truncate", "--out", str(out)])
        assert rc == 1
        assert "unrecognized arguments: --session-end truncate" in capsys.readouterr().err
        assert not out.exists()


class TestAttentionCommand:
    def test_profiles_written(self, cli_root):
        rc = cli_main(
            ["analyze-attention", "--data", str(cli_root / "data"),
             "--run", str(cli_root / "run_tf")]
        )
        assert rc == 0
        out = cli_root / "run_tf" / "attention"
        assert (out / "attention_profiles.csv").exists()
        payload = json.loads((out / "attention.json").read_text())
        assert payload["n_sessions_profiled"] >= 1
        for entry in payload["uniform_baseline_first_key"].values():
            assert entry["exact"] <= entry["approximation"]
            assert entry["approximation"] - entry["exact"] <= entry["deviation_bound"]

    def test_one_forward_per_playlist(self, cli_root, tmp_path, monkeypatch):
        calls = []
        forward = TransformerModel.forward

        def counting_forward(self, rows, lengths=None, **options):
            calls.append(options)
            return forward(self, rows, lengths, **options)

        monkeypatch.setattr(TransformerModel, "forward", counting_forward)
        rc = cli_main(
            ["analyze-attention", "--data", str(cli_root / "data"),
             "--run", str(cli_root / "run_tf"), "--out", str(tmp_path / "attention")]
        )
        assert rc == 0
        run = json.loads((cli_root / "run_tf" / "run.json").read_text())
        assert calls == [{"capture_attention": True}] * len(run["playlists"])

    def test_non_transformer_run_rejected(self, cli_root):
        rc = cli_main(
            ["analyze-attention", "--data", str(cli_root / "data"),
             "--run", str(cli_root / "run_mc")]
        )
        assert rc == 2


class TestPromptsAndSummary:
    def test_export_all(self, cli_root, tmp_path):
        out = tmp_path / "prompts.jsonl"
        rc = cli_main(
            ["export-prompts", "--data", str(cli_root / "data"), "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) >= 1
        first = json.loads(lines[0])
        assert set(first) >= {"prompt", "completion"}

    def test_split_export_needs_run(self, cli_root, tmp_path):
        rc = cli_main(
            ["export-prompts", "--data", str(cli_root / "data"),
             "--out", str(tmp_path / "p.jsonl"), "--split", "test"]
        )
        assert rc == 2

    def test_split_export_with_run(self, cli_root, tmp_path):
        out = tmp_path / "p.jsonl"
        rc = cli_main(
            ["export-prompts", "--data", str(cli_root / "data"),
             "--out", str(out), "--split", "test",
             "--run", str(cli_root / "run_mc")]
        )
        assert rc == 0
        assert out.exists()

    def test_export_all_with_run_reads_the_runs_data(self, cli_root, tmp_path, capsys):
        data = ["--data", str(cli_root / "data")]
        run = tmp_path / "run"
        assert cli_main(["train", *data, "--model", "mc", "--session-end", "truncate",
                         "--out", str(run)]) == 0
        outs = {name: tmp_path / f"{name}.jsonl" for name in ("run", "truncate", "given")}
        assert cli_main(["export-prompts", *data, "--run", str(run),
                         "--out", str(outs["run"])]) == 0
        assert cli_main(["export-prompts", *data, "--session-end", "truncate",
                         "--out", str(outs["truncate"])]) == 0
        assert cli_main(["export-prompts", *data, "--out", str(outs["given"])]) == 0
        assert outs["run"].read_bytes() == outs["truncate"].read_bytes()
        assert outs["run"].read_bytes() != outs["given"].read_bytes()
        missing = tmp_path / "missing"
        capsys.readouterr()
        rc = cli_main(["export-prompts", *data, "--run", str(missing),
                       "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert f"{missing}: not a trained run (no run.json)" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    def test_export_with_run_refuses_session_end(self, cli_root, tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        capsys.readouterr()
        rc = cli_main(["export-prompts", "--data", str(cli_root / "data"), "--out", str(out),
                       "--split", "test", "--run", str(cli_root / "run_mc"),
                       "--session-end", "truncate"])
        assert rc == 1
        assert "argument --session-end: not allowed with argument --run" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_split_export_rejects_edited_data(self, cli_root, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(cli_root / "data", data)
        path = data / "sessions.jsonl"
        lines = path.read_text().splitlines()
        session = json.loads(lines[0])
        last = session["events"][-1]
        assert last["action"] in ("skip", "play")
        last["action"] = "play" if last["action"] == "skip" else "skip"
        lines[0] = json.dumps(session)
        path.write_text("\n".join(lines) + "\n")
        run = ["--run", str(cli_root / "run_mc")]
        assert cli_main(["evaluate", "--data", str(data), *run,
                         "--out", str(tmp_path / "eval")]) == 2
        out = tmp_path / "p.jsonl"
        rc = cli_main(["export-prompts", "--data", str(data), "--out", str(out),
                       "--split", "test", *run])
        assert rc == 2
        assert not out.exists()

    def test_dedupe_reduces_or_keeps_count(self, cli_root, tmp_path):
        deduped = tmp_path / "d.jsonl"
        full = tmp_path / "f.jsonl"
        base = ["export-prompts", "--data", str(cli_root / "data")]
        assert cli_main(base + ["--out", str(deduped)]) == 0
        assert cli_main(base + ["--out", str(full), "--no-dedupe"]) == 0
        assert len(deduped.read_text().splitlines()) <= len(
            full.read_text().splitlines()
        )

    def test_summarize(self, cli_root, tmp_path):
        out = tmp_path / "sum"
        rc = cli_main(
            ["summarize", "--data", str(cli_root / "data"), "--out", str(out)]
        )
        assert rc == 0
        assert (out / "summary.csv").exists()
        payload = json.loads((out / "summary.json").read_text())
        assert len(payload["playlists"]) == 1


TINY_MLP = ["--model", "mlp", "--epochs", "1", "--hidden-dim", "8", "--n-layers", "1"]


class TestRoundTripRegressions:
    def test_mlp_trains_where_remaining_time_rounding_went_negative(self, tmp_path):
        # Remaining time built by repeated subtraction averaged to -3.2e-16 on
        # this dataset, and train exited 2.
        data = tmp_path / "data"
        rc = cli_main(
            ["generate", "--name", "frequent_pattern", "--n-sessions", "400",
             "--seed", "7", "--out", str(data)]
        )
        assert rc == 0
        rc = cli_main(["train", "--data", str(data), "--out", str(tmp_path / "run")]
                      + TINY_MLP)
        assert rc == 0

    def test_repeated_session_id_is_refused(self, tmp_path, capsys):
        # Loaded silently, such a file made train hold out 30 sessions while
        # evaluate re-tagged every copy alike from split.json and scored 28.
        data = tmp_path / "data"
        assert cli_main(["generate", "--name", "second_order", "--n-sessions", "300",
                         "--out", str(data)]) == 0
        path = data / "sessions.jsonl"
        sessions = [json.loads(line) for line in path.read_text().splitlines()]
        for session in sessions[1:40]:
            session["session_id"] = sessions[0]["session_id"]
        path.write_text("".join(json.dumps(s) + "\n" for s in sessions))
        run = tmp_path / "run"
        capsys.readouterr()
        assert cli_main(["train", "--data", str(data), "--model", "mc",
                         "--out", str(run)]) == 2
        assert f"{path} line 2: duplicate session_id " in capsys.readouterr().err
        assert cli_main(["train", "--data", str(data), "--model", "mc", "--lenient",
                         "--out", str(run)]) == 0
        tags = json.loads((run / "split.json").read_text())["session_splits"]
        assert len(tags) == 261
        assert cli_main(["evaluate", "--data", str(data), "--run", str(run),
                         "--lenient", "--out", str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        kept = [sessions[0]] + sessions[40:]
        held_out = [s for s in kept if tags[s["session_id"]] == "test"]
        assert report["n_scored"] == sum(len(s["events"]) - 1 for s in held_out)

    def test_cap3_spec_round_trip(self, tmp_path):
        spec = spec_to_json(frequent_pattern_spec(n_sessions=200, seed=3))
        spec.update(
            cap=3,
            n_tracks=6,
            transitions={
                "skip": [0.7, 0.3, 0.0],
                "play": [0.2, 0.6, 0.2],
                "replay": [0.4, 0.4, 0.2],
            },
        )
        spec_path = write_json(tmp_path / "spec.json", spec)
        data = tmp_path / "data"
        assert cli_main(["generate", "--spec", str(spec_path), "--out", str(data)]) == 0
        lines = (data / "sessions.jsonl").read_text().splitlines()
        actions = [[e["action"] for e in json.loads(line)["events"]] for line in lines]
        assert any(
            a[k:k + 2] == ["replay", "replay"] for a in actions for k in range(len(a))
        ), "the data should use a track's third unit"
        assert cli_main(
            ["summarize", "--data", str(data), "--out", str(tmp_path / "summary")]
        ) == 0
        for model_args in (["--model", "zero"], TINY_MLP + ["--feasibility-mask"]):
            run = tmp_path / f"run_{model_args[1]}"
            rc = cli_main(["train", "--data", str(data), "--out", str(run)] + model_args)
            assert rc == 0
            assert json.loads((run / "run.json").read_text())["cap"] == 3
            for mode in ("realized", "expected"):
                rc = cli_main(
                    ["evaluate", "--data", str(data), "--run", str(run),
                     "--demand-mode", mode, "--n-rollouts", "20",
                     "--out", str(run / mode)]
                )
                assert rc == 0

    def test_cap1_spec_round_trip(self, tmp_path):
        spec = spec_to_json(stopping_spec(n_sessions=100, seed=3))
        spec["cap"] = 1
        spec_path = write_json(tmp_path / "spec.json", spec)
        data = tmp_path / "data"
        assert cli_main(["generate", "--spec", str(spec_path), "--out", str(data)]) == 0
        assert json.loads((data / "generator.json").read_text())["cap"] == 1
        again = tmp_path / "again"
        rc = cli_main(["generate", "--spec", str(data / "generator.json"), "--out", str(again)])
        assert rc == 0
        assert (again / "sessions.jsonl").read_bytes() == (data / "sessions.jsonl").read_bytes()
        run = tmp_path / "run"
        rc = cli_main(["train", "--data", str(data), "--out", str(run), "--model", "mc"])
        assert rc == 0
        assert json.loads((run / "run.json").read_text())["cap"] == 1
        rc = cli_main(["evaluate", "--data", str(data), "--run", str(run),
                       "--out", str(run / "eval")])
        assert rc == 0

    def test_cap1_spec_with_replay_mass_is_refused(self, tmp_path, capsys):
        spec = spec_to_json(frequent_pattern_spec(n_sessions=50, seed=3))
        spec["cap"] = 1  # its play row keeps 0.03 / 0.99 on replay
        spec_path = write_json(tmp_path / "spec.json", spec)
        rc = cli_main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "replay mass must be 0" in capsys.readouterr().err

    def test_neural_train_needs_a_scored_event(self, tmp_path, capsys):
        # one track at cap 1: every session is a single, unscored event; count
        # models still fit from first events, and evaluate refuses the holdout
        spec = GeneratorSpec(
            kind="markov1",
            n_sessions=20,
            seed=3,
            n_tracks=1,
            cap=1,
            transitions={
                Outcome.SKIP: (0.5, 0.5, 0.0),
                Outcome.PLAY: (0.5, 0.5, 0.0),
                Outcome.REPLAY: (0.5, 0.5, 0.0),
            },
        )
        spec_path = write_json(tmp_path / "spec.json", spec_to_json(spec))
        data = tmp_path / "data"
        assert cli_main(["generate", "--spec", str(spec_path), "--out", str(data)]) == 0
        train = ["train", "--data", str(data)]
        assert cli_main(train + ["--model", "mc", "--out", str(tmp_path / "mc")]) == 0
        capsys.readouterr()
        assert cli_main(train + TINY_MLP + ["--out", str(tmp_path / "mlp")]) == 2
        err = capsys.readouterr().err
        assert "playlist 'synthetic': no training session has a scored event" in err
        assert "Traceback" not in err
        evaluate = ["evaluate", "--data", str(data), "--run", str(tmp_path / "mc")]
        assert cli_main(evaluate + ["--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert (
            "playlist 'synthetic': no test session has a scored event "
            "(scoring needs a session of at least 2 events)"
        ) in err
        assert "Traceback" not in err

    def test_integral_float_cap_in_generator_json_reads_as_an_integer(
        self, cli_root, tmp_path
    ):
        # the one JSON integer rule (domain.integer), as in a bundle's cap
        data = tmp_path / "data"
        shutil.copytree(cli_root / "data", data)
        spec = json.loads((data / "generator.json").read_text())
        write_json(data / "generator.json", {**spec, "cap": 2.0})
        argv = ["evaluate", "--data", str(data), "--run", str(cli_root / "run_mc"),
                "--out", str(tmp_path / "eval")]
        assert cli_main(argv) == 0


class TestMalformedJson:
    """Every JSON file the CLI reads back, and the weights.bin beside its
    manifest, is refused with exit 2 and its path when it does not parse or
    holds non-finite values, never with a traceback."""

    @staticmethod
    def _copies(cli_root, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run_mc"
        shutil.copytree(cli_root / "data", data)
        shutil.copytree(cli_root / "run_mc", run)
        return data, run

    def _assert_refused(self, argv, path, capsys):
        path.write_text('{"truncated": ', encoding="utf-8")
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert f"{path}: not valid JSON" in capsys.readouterr().err

    def _evaluate(self, data, run, tmp_path):
        return ["evaluate", "--data", str(data), "--run", str(run),
                "--out", str(tmp_path / "eval")]

    def test_run_json(self, cli_root, tmp_path, capsys):
        data, run = self._copies(cli_root, tmp_path)
        self._assert_refused(self._evaluate(data, run, tmp_path), run / "run.json", capsys)

    def test_split_json(self, cli_root, tmp_path, capsys):
        data, run = self._copies(cli_root, tmp_path)
        self._assert_refused(self._evaluate(data, run, tmp_path), run / "split.json", capsys)

    def test_bundle_model_json(self, cli_root, tmp_path, capsys):
        data, run = self._copies(cli_root, tmp_path)
        (bundle,) = (run / "models").iterdir()
        self._assert_refused(
            self._evaluate(data, run, tmp_path), bundle / "model.json", capsys
        )

    def test_train_config(self, cli_root, tmp_path, capsys):
        config = tmp_path / "config.json"
        argv = ["train", "--data", str(cli_root / "data"), "--model", "mc",
                "--config", str(config), "--out", str(tmp_path / "run")]
        self._assert_refused(argv, config, capsys)

    def test_generate_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        argv = ["generate", "--spec", str(spec), "--out", str(tmp_path / "data")]
        self._assert_refused(argv, spec, capsys)

    def test_generate_spec_nested_too_deeply(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"a": ' * 100_000, encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["generate", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 2
        assert capsys.readouterr().err == f"error: {spec}: not valid JSON (nested too deeply)\n"

    def test_generator_json_of_the_data(self, cli_root, tmp_path, capsys):
        data, _ = self._copies(cli_root, tmp_path)
        argv = ["summarize", "--data", str(data), "--out", str(tmp_path / "summary")]
        self._assert_refused(argv, data / "generator.json", capsys)

    def test_bundle_weights_json(self, cli_root, tmp_path, capsys):
        data = cli_root / "data"
        run = tmp_path / "run_mlp"
        assert cli_main(["train", "--data", str(data), *TINY_MLP, "--out", str(run)]) == 0
        (bundle,) = (run / "models").iterdir()
        weights = bundle / "weights.json"
        weights.write_text('{"x": ', encoding="utf-8")
        capsys.readouterr()
        assert cli_main(self._evaluate(data, run, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{weights}: not valid JSON" in err
        assert "Traceback" not in err

    def test_non_finite_weights_bin(self, cli_root, tmp_path, capsys):
        # the load refuses the NaN before any forward reads it
        data = cli_root / "data"
        run = tmp_path / "run_lstm"
        lstm = ["--model", "lstm", "--epochs", "1", "--hidden-dim", "4", "--n-layers", "1"]
        assert cli_main(["train", "--data", str(data), *lstm, "--out", str(run)]) == 0
        (bundle,) = (run / "models").iterdir()
        entries = json.loads((bundle / "weights.json").read_text(encoding="utf-8"))["arrays"]
        (offset,) = (entry["offset"] for entry in entries if entry["name"] == "head/b1")
        weights = bundle / "weights.bin"
        raw = bytearray(weights.read_bytes())
        raw[offset : offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        weights.write_bytes(bytes(raw))
        capsys.readouterr()
        assert cli_main(self._evaluate(data, run, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{weights}: array 'head/b1' holds non-finite values" in err
        assert "Traceback" not in err

    @staticmethod
    def _edit_manifest(change):
        def edit(bundle):
            path = bundle / "weights.json"
            manifest = json.loads(path.read_text(encoding="utf-8"))
            change(manifest["arrays"])
            path.write_text(json.dumps(manifest), encoding="utf-8")
            return path
        return edit

    @staticmethod
    def _edit_weights(change):
        def edit(bundle):
            path = bundle / "weights.bin"
            path.write_bytes(change(path.read_bytes()))
            return path
        return edit

    def test_a_float64_bundle_is_refused(self, cli_root, tmp_path, capsys):
        # the weights as written before float32: 8-byte entries under the float64 tag
        run = tmp_path / "run_tf"
        shutil.copytree(cli_root / "run_tf", run)
        (bundle,) = (run / "models").iterdir()
        path = bundle / "weights.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["format"] = "flat-float64-v1"
        for entry in manifest["arrays"]:
            entry["offset"] *= 2
        path.write_text(json.dumps(manifest), encoding="utf-8")
        weights = bundle / "weights.bin"
        weights.write_bytes(np.frombuffer(weights.read_bytes(), "<f4").astype("<f8").tobytes())
        capsys.readouterr()
        assert cli_main(self._evaluate(cli_root / "data", run, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: checkpoint format 'flat-float64-v1'" in err
        assert "Traceback" not in err

    def test_a_per_head_attention_bundle_is_refused(self, cli_root, tmp_path, capsys):
        # the layout written before one w_qkv per block: a (d, head_dim) array
        # per head and projection, under the same format tag and file size
        run = tmp_path / "run_tf"
        shutil.copytree(cli_root / "run_tf", run)
        (bundle,) = (run / "models").iterdir()
        path = bundle / "weights.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        shapes = {}
        for entry in manifest["arrays"]:
            if entry["name"].endswith("/w_qkv"):
                block = entry["name"].rsplit("/", 1)[0]
                d, width = entry["shape"]
                for head in range(2):
                    for proj in ("wq", "wk", "wv"):
                        shapes[f"{block}/head{head}/{proj}"] = [d, width // 6]
            else:
                shapes[entry["name"]] = entry["shape"]
        manifest["arrays"], offset = [], 0
        for name in sorted(shapes):
            size = int(np.prod(shapes[name]))
            manifest["arrays"].append(
                {"name": name, "shape": shapes[name], "offset": offset, "size": size}
            )
            offset += 4 * size
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert offset == (bundle / "weights.bin").stat().st_size
        capsys.readouterr()
        assert cli_main(self._evaluate(cli_root / "data", run, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: array entry " in err and "block0/head0/wk" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "tamper",
        [
            _edit_manifest(lambda arrays: arrays.reverse()),
            _edit_manifest(lambda arrays: arrays[1].update(offset=arrays[0]["offset"])),
            _edit_manifest(lambda arrays: arrays[-1].update(offset=arrays[-1]["offset"] + 8)),
            _edit_manifest(lambda arrays: arrays[0].update(name="block0/zz")),
            _edit_manifest(lambda arrays: arrays[0].update(shape=arrays[0]["shape"] + [1])),
            _edit_weights(lambda raw: raw + b"\0"),
            _edit_weights(lambda raw: raw[:-8]),
        ],
        ids=["permuted", "overlapping", "gap", "name", "shape", "trailing-byte", "short"],
    )
    def test_weights_off_the_model_layout(self, cli_root, tmp_path, capsys, tamper):
        run = tmp_path / "run_tf"
        shutil.copytree(cli_root / "run_tf", run)
        (bundle,) = (run / "models").iterdir()
        path = tamper(bundle)
        capsys.readouterr()
        assert cli_main(self._evaluate(cli_root / "data", run, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line",
        # a wrongly typed field: TestFieldTables
        [
            "[1, 2]",
            '{"playlist_id": "bad", "tracks": [{"track_id": "t", "duration": Infinity}]}',
        ],
        ids=["list", "duration-inf"],
    )
    def test_malformed_playlist_line(self, cli_root, tmp_path, capsys, line):
        data, _ = self._copies(cli_root, tmp_path)
        path = data / "playlists.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        argv = ["summarize", "--data", str(data), "--out", str(tmp_path / "summary")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path} line 2: " in err
        assert "Traceback" not in err

    def test_a_list_is_not_a_run(self, cli_root, tmp_path, capsys):
        data, run = self._copies(cli_root, tmp_path)
        (run / "run.json").write_text("[]", encoding="utf-8")
        assert cli_main(self._evaluate(data, run, tmp_path)) == 2
        assert "expected a JSON object, got list" in capsys.readouterr().err


class TestChecksAfterTheRead:
    """A field read by its table is then checked against other data: the
    playlists --data holds, a pMC's positions and the data's cap."""

    @pytest.mark.parametrize("run_name,document,edit,message", [
        ("run_mc", "run.json", lambda o: o["playlists"].update(nowhere={}),
         "field 'playlists': no playlist 'nowhere' in "),
        ("run_pmc", BUNDLE_FILE, lambda o: [o["payload"][key].update(x=o["payload"][key]["2"])
                                            for key in ("matrices", "counts")],
         "field 'payload': invalid literal for int() with base 10: 'x'"),
        ("run_pmc", BUNDLE_FILE, lambda o: o["payload"]["counts"].pop("3"),
         "field 'payload': counts cover positions ['2', '4', "),
        # the data is cap 2: a bundle fit at another cap never scores it
        ("run_mc", BUNDLE_FILE, lambda o: o["payload"].update(cap=1),
         "field 'cap': the bundle's cap 1 is not the data's cap 2"),
        ("run_mc", BUNDLE_FILE, lambda o: o["payload"].update(cap=3),
         "field 'cap': the bundle's cap 3 is not the data's cap 2"),
        ("run_tf", BUNDLE_FILE, lambda o: o.update(cap=5),
         "field 'cap': the bundle's cap 5 is not the data's cap 2"),
    ], ids=["run-unknown-playlist", "pmc-position-x", "pmc-no-counts-position", "mc-cap-1",
            "mc-cap-3", "neural-cap-5"])
    def test_evaluate_refuses(self, cli_root, tmp_path, capsys, run_name, document, edit,
                              message):
        run = tmp_path / run_name
        shutil.copytree(cli_root / run_name, run)
        path = run / (document if document == "run.json" else f"models/synthetic/{document}")
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["evaluate", "--data", str(cli_root / "data"), "--run", str(run),
                         "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err

    def test_attention_needs_the_data_cap(self, cli_root, tmp_path, capsys):
        run = tmp_path / "run_tf"
        shutil.copytree(cli_root / "run_tf", run)
        (bundle,) = (run / "models").iterdir()
        path = bundle / BUNDLE_FILE
        obj = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**obj, "cap": 3}), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["analyze-attention", "--data", str(cli_root / "data"),
                         "--run", str(run), "--out", str(tmp_path / "attention")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: field 'cap': the bundle's cap 3 is not the "
                       f"data's cap 2\n")


def _declared(table, prefix=""):
    """(dotted key, rule, required) of each field ``table`` declares; an
    array's item is its field at index 0."""
    for key, entry in table.items():
        rule = entry[0] if type(entry) is tuple else entry
        path = f"{prefix}{key}"
        yield path, rule, type(entry) is not tuple
        if type(rule) is list:
            path, rule = f"{path}.0", rule[0]
            yield path, rule, False
        if type(rule) is dict:
            yield from _declared(rule, f"{path}.")


def _baseline_fields(kind: str) -> dict:
    return {**artifacts._FAMILY,
            "payload": {**baselines._TYPE, **baselines._BASELINE_FIELDS[kind]}}


# Each file the CLI reads: its copy under cli_root and its table, with a
# reader rule of a nested object (a bundle's model and pipeline) shown as
# the table it reads.
FIELD_FILES = {
    "spec": ("data/generator.json",
             {**synthgen._SPEC_FIELDS, "transitions": synthgen._TRANSITIONS["markov1"]}),
    "generator.json": ("data/generator.json", cli._GENERATOR_CAP),
    "playlists.jsonl": ("data/playlists.jsonl", dataio._PLAYLIST_FIELDS),
    "sessions.jsonl": ("data/sessions.jsonl", dataio._SESSION_FIELDS),
    "run.json": ("run_mc/run.json", cli._RUN_FIELDS),
    "split.json": ("run_mc/split.json", artifacts._SPLIT_FIELDS),
    "weights.json": ("run_tf/models/synthetic/weights.json", checkpoint._MANIFEST_FIELDS),
    "neural model.json": ("run_tf/models/synthetic/model.json", {
        **artifacts._FAMILY, **artifacts._neural_fields(None),
        "model": {**seqconfig._KIND, **seqconfig.config_fields(ModelKind.TRANSFORMER)},
        "pipeline": dataio._PIPELINE_FIELDS}),
    **{f"{kind} model.json": (f"run_{kind}/models/synthetic/model.json", _baseline_fields(kind))
       for kind in cli.BASELINE_KINDS},
    "train --config": ("config.json", cli._OPTIONS),
}
DECLARED = {(name, path): (rule, required) for name, (_, table) in FIELD_FILES.items()
            for path, rule, required in _declared(table)}
# one value of each JSON type; a field is refused each one of a type other
# than its own, and null where its rule does not read null
JSON_VALUES = {"boolean": True, "number": 7, "string": "7", "array": [7], "object": {"7": 7},
               "null": None}
READS_NULL = {"_durations", "_features", "_size"}
# by the rule's name: values of the field's own type that the rule refuses
OUT_OF_RANGE = {
    "integer": [2.5], "_size": [2.5], "at_least.<locals>.read": [2.5, -1],
    "one_of.<locals>.read": ["bogus"], "_std": [0.0, float("inf")],
    "_finite": [float("nan"), float("inf"), float("-inf")],
    "numbers": [["7"], [[True]]], "_durations": [["7"]], "_features": [{"x": "7"}],
    "object_of.<locals>.read": [{"2": "7"}],
    "_keyed.<locals>.<lambda>": [{"skip": "7"}, {"skip": ["7", 0, 0]}],
}
# rules that refuse no value of their own type: every rule is in one of the two
NO_RANGE = {"number", "string", "boolean"}


def _json_type(value) -> str:
    types = {bool: "boolean", int: "number", float: "number", str: "string", list: "array",
             dict: "object", type(None): "null"}
    return types[type(value)]


def _bad_values(rule, valid) -> list:
    """The values written for a field that ``rule`` reads and ``valid`` fills.
    A nested table or array has its own fields' values; any other rule must
    be named in OUT_OF_RANGE or NO_RANGE."""
    name = getattr(rule, "__qualname__", "")
    assert type(rule) in (dict, list) or name in OUT_OF_RANGE.keys() | NO_RANGE, name
    wrong = [value for kind, value in JSON_VALUES.items() if kind != _json_type(valid)
             and not (value is None and name in READS_NULL)]
    return wrong + OUT_OF_RANGE.get(name, [])


def _where(path) -> str:
    """What a reader's messages name: the file, and for JSONL its one line."""
    return f"{path} line 1" if path.suffix == ".jsonl" else str(path)


def _at(obj, path: str):
    """The container of dotted field ``path`` in ``obj``, and its key there."""
    *heads, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    for key in heads:
        obj = obj[key]
    return obj, last


class TestSessionsCsvRows:
    """A sessions.csv row is read by its table: a refused cell, or a row with
    more cells than the header, exits 2 naming the row's own line, and
    --lenient drops only that row's session."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("csv") / "data"
        assert cli_main(["generate", "--name", "stopping", "--n-sessions", "20",
                         "--seed", "1", "--out", str(data)]) == 0
        return data

    @staticmethod
    def rows(data) -> list[list[str]]:
        """The generated sessions as sessions.csv rows, header first; the
        first session's events are lines 2 to 7."""
        rows = [["session_id", "playlist_id", "pos", "action"]]
        for line in (data / "sessions.jsonl").read_text(encoding="utf-8").splitlines():
            s = json.loads(line)
            rows += [[s["session_id"], s["playlist_id"], str(e["pos"]), e["action"]]
                     for e in s["events"]]
        return rows

    @pytest.mark.parametrize("lineno,edit,expected", [
        (2, lambda row: row[:2] + [" +1 "] + row[3:],
         "field 'pos': must be ASCII decimal digits, got ' +1 '"),
        (2, lambda row: row[:2] + ["0_1"] + row[3:],
         "field 'pos': must be ASCII decimal digits, got '0_1'"),
        (2, lambda row: row[:2] + ["1_0"] + row[3:],
         "field 'pos': must be ASCII decimal digits, got '1_0'"),
        (3, lambda row: row + ["x"], "5 cells, the header has 4"),
        (3, lambda row: row[:3],
         "field 'action': must be one of ['skip', 'play', 'replay'], got None"),
    ], ids=["spaced sign", "leading underscore", "inner underscore", "fifth cell", "no action"])
    def test_a_bad_row_exits_2_and_lenient_drops_its_session(
        self, data, tmp_path, capsys, lineno, edit, expected
    ):
        root = tmp_path / "data"
        shutil.copytree(data, root)
        rows = self.rows(data)
        assert rows[1][0] == rows[2][0] != rows[8][0]
        rows[lineno - 1] = edit(rows[lineno - 1])
        path = root / "sessions.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        argv = ["summarize", "--data", str(root), "--format", "csv",
                "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {path} line {lineno}: {expected}\n"
        assert cli_main([*argv, "--lenient"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert [p["n_sessions"] for p in summary["playlists"]] == [19]


class TestUndecodableData:
    """A data file that is not UTF-8 exits 2 naming the line of its first
    undecodable byte, with --lenient too: no line of it can be trusted."""

    @pytest.mark.parametrize("name", ["playlists.jsonl", "sessions.jsonl"])
    def test_summarize_exits_2(self, cli_root, tmp_path, capsys, name):
        root = tmp_path / "data"
        shutil.copytree(cli_root / "data", root)
        path = root / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = lines[-1].replace(b'"synthetic"', b'"synth\xe9tic"')
        path.write_bytes(b"".join(lines))
        argv = ["summarize", "--data", str(root), "--out", str(tmp_path / "out")]
        for extra in ([], ["--lenient"]):
            capsys.readouterr()
            assert cli_main([*argv, *extra]) == 2
            assert capsys.readouterr().err == (
                f"error: {path} line {len(lines)}: not UTF-8 (invalid continuation byte)\n"
            )


class TestFieldTables:
    """Every declared field of every file the CLI reads, and every train
    flag, refuses a value of another JSON type, an out-of-range value where
    its rule has bounds, and (when required) its absence, with a SchemaError
    naming the file, or the flag, and the dotted field."""

    @staticmethod
    def read(cli_root, name, path):
        """Run file ``name``'s reader on ``path``."""
        playlists = dataio.load_playlists(cli_root / "data" / "playlists.jsonl")
        if name == "spec":
            synthgen.spec_from_json(domain.read_json(path), str(path))
        elif name == "generator.json":
            cli._data_cap(path.parent)
        elif name == "playlists.jsonl":
            dataio.load_playlists(path)
        elif name == "sessions.jsonl":
            dataio.load_sessions(path, playlists)
        elif name == "run.json":
            cli._load_run(argparse.Namespace(run=path.parent, data=cli_root / "data",
                                             format="jsonl", lenient=False, session_end=None))
        elif name == "split.json":
            load_split(path, dataio.load_dataset(cli_root / "data" / "sessions.jsonl",
                                                 cli_root / "data" / "playlists.jsonl"))
        elif name == "weights.json":
            model = load_predictor(cli_root / "run_tf/models/synthetic", playlists["synthetic"])
            checkpoint.load_checkpoint(path.with_suffix(""), model.model.flat, model.model.layout)
        elif name == "train --config":
            cli._resolve_options(cli.build_parser().parse_args(
                ["train", "--data", "d", "--model", "mc", "--out", "o", "--config", str(path)]))
        else:
            load_predictor(path.parent, playlists["synthetic"])

    @staticmethod
    def valid(cli_root, name) -> dict:
        """A file ``name`` as the CLI writes it, every declared field filled."""
        if name == "train --config":
            return {**cli.TRAIN_DEFAULTS, "hidden_dim": 4, "n_layers": 1}
        path = cli_root / FIELD_FILES[name][0]
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text.splitlines()[0] if path.suffix == ".jsonl" else text)
        if name == "spec":
            obj["durations"] = [200.0] * obj["n_tracks"]
        return obj

    def refusal(self, cli_root, tmp_path, name, obj) -> tuple[str, str]:
        """The reader's message for ``obj`` written as file ``name``, and its where."""
        path = tmp_path / name / FIELD_FILES[name][0]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            self.read(cli_root, name, path)
        return str(info.value), _where(path)

    @pytest.mark.parametrize("name,path", DECLARED)
    def test_every_field_refuses_a_wrong_value(self, cli_root, tmp_path, name, path):
        valid = self.valid(cli_root, name)
        container, key = _at(valid, path)
        for value in _bad_values(DECLARED[name, path][0], container[key]):
            obj = copy.deepcopy(valid)
            container, key = _at(obj, path)
            container[key] = value
            message, where = self.refusal(cli_root, tmp_path, name, obj)
            field = rf"{re.escape(where)}: field '{re.escape(path)}['.]"
            assert re.match(field, message), (value, message)

    @pytest.mark.parametrize("name,path", [field for field, (_, required) in DECLARED.items()
                                           if required])
    def test_every_required_field_is_missed(self, cli_root, tmp_path, name, path):
        obj = self.valid(cli_root, name)
        container, key = _at(obj, path)
        del container[key]
        message, where = self.refusal(cli_root, tmp_path, name, obj)
        assert message == f"{where}: missing field {path!r}"

    @pytest.mark.parametrize("key", cli._OPTIONS)
    def test_every_train_flag_refuses_a_wrong_value(self, key):
        rule, _ = cli._OPTIONS[key]
        valid = {**cli.TRAIN_DEFAULTS, "hidden_dim": 4, "n_layers": 1}[key]
        for value in _bad_values(rule, valid):
            if value is not None:  # a flag left out
                args = cli.build_parser().parse_args(
                    ["train", "--data", "d", "--model", "mc", "--out", "o"])
                setattr(args, key, value)
                with pytest.raises(SchemaError) as info:
                    cli._resolve_options(args)
                assert str(info.value).startswith(f"--{key.replace('_', '-')} must be ")

    @pytest.mark.parametrize("name,path,value,expected", [
        ("spec", "seed", "3", "must be an integer, got '3'"),
        ("generator.json", "cap", 0, "must be an integer >= 1, got 0"),
        ("playlists.jsonl", "tracks", "abc", "must be a list, got 'abc'"),
        ("sessions.jsonl", "events.0.action", None,
         "must be one of ['skip', 'play', 'replay'], got None"),
        ("run.json", "playlists", "synthetic", "expected a JSON object, got str"),
        ("split.json", "session_splits", [], "expected a JSON object, got list"),
        ("neural model.json", "pipeline.config", [], "expected a JSON object, got list"),
        ("mc model.json", "payload.smoothing", "0.5", "must be a number, got '0.5'"),
        ("pmc model.json", "payload.cap", "two", "must be an integer, got 'two'"),
        ("zero model.json", "payload.probs", 7, "must be a list of numbers, got 7"),
        ("weights.json", "arrays.0.shape", "2", "must be a list, got '2'"),
        ("train --config", "epochs", "2", "must be an integer, got '2'"),
    ])
    def test_the_cli_exits_2(self, cli_root, tmp_path, capsys, name, path, value, expected):
        root = tmp_path / "root"
        shutil.copytree(cli_root, root)
        file = root / FIELD_FILES[name][0]
        obj = self.valid(cli_root, name)
        container, key = _at(obj, path)
        container[key] = value
        file.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        data, out = ["--data", str(root / "data")], ["--out", str(tmp_path / "out")]
        run = file.parents[2] if file.parent.parent.name == "models" else file.parent
        argv = {
            "spec": ["generate", "--spec", str(file), *out],
            "train --config": ["train", *data, "--model", "mc", "--config", str(file), *out],
        }.get(name, ["summarize", *data, *out] if run.name == "data"
              else ["evaluate", *data, "--run", str(run), *out])
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {_where(file)}: field {path!r}: {expected}\n"


class TestNegativeSeeds:
    """A seed is an integer >= 0; a negative one exits 2 naming where it came from."""

    def run(self, capsys, argv) -> str:
        capsys.readouterr()
        assert cli_main(argv) == 2
        return capsys.readouterr().err

    def test_generate_option(self, tmp_path, capsys):
        err = self.run(capsys, ["generate", "--name", "stopping", "--seed", "-1",
                                "--out", str(tmp_path / "d")])
        assert "error: --seed must be an integer >= 0, got -1" in err
        assert not (tmp_path / "d").exists()

    def test_generate_spec_file(self, tmp_path, capsys):
        spec = spec_to_json(named_spec("stopping", n_sessions=12))
        spec["seed"] = -1
        spec_path = write_json(tmp_path / "spec.json", spec)
        err = self.run(capsys, ["generate", "--spec", str(spec_path),
                                "--out", str(tmp_path / "d")])
        assert f"error: {spec_path}: seed must be an integer >= 0, got -1" in err

    @pytest.mark.parametrize("model", ["mc", "mlp"])
    def test_train_option(self, cli_root, tmp_path, capsys, model):
        err = self.run(capsys, ["train", "--data", str(cli_root / "data"), "--model", model,
                                "--seed", "-1", "--out", str(tmp_path / "r")])
        assert "error: --seed must be an integer >= 0, got -1" in err

    def test_evaluate_option(self, cli_root, tmp_path, capsys):
        err = self.run(capsys, ["evaluate", "--data", str(cli_root / "data"),
                                "--run", str(cli_root / "run_mc"), "--demand-mode", "expected",
                                "--seed", "-1", "--out", str(tmp_path / "e")])
        assert "error: --seed must be an integer >= 0, got -1" in err


class TestSpecValues:
    """A generator spec value the spec refuses exits 2 naming the spec file,
    as a wrongly typed field does, not only once generate builds the playlist."""

    @pytest.mark.parametrize("edit,message", [
        ({"n_tracks": 0}, "field 'n_tracks': must be an integer >= 1, got 0"),
        ({"durations": [200.0, 300.0]}, "2 durations for 6 tracks"),
        ({"durations": [200.0, 0.0, 200.0, 200.0, 200.0, 200.0]},
         "track 't002': duration must be finite and > 0, got 0.0"),
        ({"durations": [-1.0] * 6}, "track 't001': duration must be finite and > 0, got -1.0"),
    ], ids=["no-tracks", "two-durations", "zero-duration", "negative-duration"])
    def test_generate_names_the_spec(self, tmp_path, capsys, edit, message):
        spec = spec_to_json(named_spec("stopping", n_sessions=12))
        assert spec["n_tracks"] == 6
        spec_path = write_json(tmp_path / "spec.json", {**spec, **edit})
        capsys.readouterr()
        assert cli_main(["generate", "--spec", str(spec_path),
                         "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f"error: {spec_path}: {message}\n"
        assert not (tmp_path / "d").exists()


class TestNonFiniteOptions:
    """A float option is a finite number; NaN or an infinity exits 2 naming
    the flag before any data is read (a --config value: TestFieldTables)."""

    @pytest.mark.parametrize("model,flag,value", [
        ("mlp", "--learning-rate", "nan"),
        ("mlp", "--learning-rate", "inf"),
        ("pmc", "--smoothing", "nan"),
        ("pmc", "--smoothing", "inf"),
        ("mc", "--train-fraction", "-inf"),
        ("transformer", "--validation-fraction", "nan"),
    ])
    def test_flag(self, cli_root, tmp_path, capsys, model, flag, value):
        capsys.readouterr()
        rc = cli_main(["train", "--data", str(cli_root / "data"), "--model", model,
                       f"{flag}={value}", "--out", str(tmp_path / "r")])
        assert rc == 2
        shown = repr(float(value))
        assert f"error: {flag} must be a finite number, got {shown}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


# A config dataclass's size or range error, with the options that set it.
_SMALL_ENCODER = {"embed_dim": 8, "n_heads": 2, "head_dim": 4, "ff_dim": 8, "epochs": 1}
CONFIG_ERRORS = {
    "batch-size": ("mlp", {"batch_size": 0}, "batch_size",
                   "epochs and batch_size must be >= 1"),
    "n-heads": ("transformer", {"n_heads": 0}, "n_heads",
                "n_heads * head_dim must equal embed_dim (0 * 32 != 256)"),
    "max-positions": ("encoder", {**_SMALL_ENCODER, "max_positions": 1}, "max_positions",
                      "but the learned position table holds 1"),
    "learning-rate": ("mlp", {"learning_rate": 0.0}, "learning_rate",
                      "Adam learning_rate must be finite and > 0, got 0.0"),
}


class TestConfigErrorsNameTheirSource:
    """A rule a config dataclass or a model enforces on an option exits 2
    naming the flag, or the config file and key, that set the option."""

    @pytest.mark.parametrize("case", CONFIG_ERRORS)
    def test_flag(self, cli_root, tmp_path, capsys, case):
        model, options, key, rule = CONFIG_ERRORS[case]
        flags = [arg for k, v in options.items() for arg in ("--" + k.replace("_", "-"), str(v))]
        capsys.readouterr()
        rc = cli_main(["train", "--data", str(cli_root / "data"), "--model", model, *flags,
                       "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{key.replace('_', '-')}: ") and rule in err

    @pytest.mark.parametrize("case", CONFIG_ERRORS)
    def test_config_key(self, cli_root, tmp_path, capsys, case):
        model, options, key, rule = CONFIG_ERRORS[case]
        config = write_json(tmp_path / "config.json", options)
        capsys.readouterr()
        rc = cli_main(["train", "--data", str(cli_root / "data"), "--model", model,
                       "--config", str(config), "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: field {key!r}: ") and rule in err


class TestEncoderPositionTable:
    """A rollout walks up to n_tracks * cap events, and scoring packs one
    position more, so train refuses a learned position table shorter than
    that, rather than evaluate in either demand mode."""

    ENCODER = ["--model", "encoder", "--embed-dim", "8", "--n-heads", "2",
               "--head-dim", "4", "--ff-dim", "8", "--epochs", "1"]

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("positions") / "data"
        assert cli_main(["generate", "--name", "stopping", "--n-sessions", "20",
                         "--seed", "1", "--out", str(data)]) == 0
        return data

    def walk(self, data) -> int:
        spec = json.loads((data / "generator.json").read_text(encoding="utf-8"))
        assert (spec["n_tracks"], spec["cap"]) == (6, 2)
        return spec["n_tracks"] * spec["cap"]

    def test_one_spare_position_is_required(self, data, tmp_path, capsys):
        walk = self.walk(data)
        lines = (data / "sessions.jsonl").read_text(encoding="utf-8").splitlines()
        assert max(len(json.loads(line)["events"]) for line in lines) < walk
        short = tmp_path / "short"
        capsys.readouterr()
        assert cli_main(["train", "--data", str(data), *self.ENCODER, "--max-positions",
                         str(walk), "--out", str(short)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --max-positions: ")
        assert f"needs {walk + 1} positions, but the learned position table holds {walk}" in err
        assert not short.exists()
        run = tmp_path / "run"
        assert cli_main(["train", "--data", str(data), *self.ENCODER, "--max-positions",
                         str(walk + 1), "--out", str(run)]) == 0
        for mode in ("realized", "expected"):
            assert cli_main(["evaluate", "--data", str(data), "--run", str(run),
                             "--demand-mode", mode, "--out", str(run / mode)]) == 0

    def test_a_config_key_is_named(self, data, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", {"max_positions": self.walk(data)})
        capsys.readouterr()
        assert cli_main(["train", "--data", str(data), *self.ENCODER, "--config", str(config),
                         "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {config}: field 'max_positions': playlist 'synthetic' has 6 tracks"
        )


class TestRefusedTrainWritesNothing:
    """train fits every playlist before it writes a file, and evaluate
    refuses a directory that holds no run.json."""

    def test_a_refused_fit_leaves_no_run_directory(self, cli_root, tmp_path, capsys):
        out = tmp_path / "run"
        capsys.readouterr()
        assert cli_main(["train", "--data", str(cli_root / "data"), "--model", "encoder",
                         "--embed-dim", "8", "--n-heads", "3", "--head-dim", "4",
                         "--ff-dim", "8", "--epochs", "1", "--out", str(out)]) == 2
        assert "error: --n-heads, --head-dim, --embed-dim: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "analyze-attention"])
    def test_a_directory_without_run_json_is_refused(self, cli_root, tmp_path, capsys, command):
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(cli_root / "run_mc" / "split.json", run / "split.json")
        capsys.readouterr()
        assert cli_main([command, "--data", str(cli_root / "data"), "--run", str(run)]) == 2
        err = capsys.readouterr().err
        assert f"error: {run}: not a trained run (no run.json)" in err


class TestCountOptions:
    """--n-sessions and --n-rollouts are integers >= 1; a smaller one exits 2
    naming the flag before anything is written."""

    def run(self, capsys, argv) -> str:
        capsys.readouterr()
        assert cli_main(argv) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("source", ["--name", "--spec"])
    def test_generate_sessions(self, tmp_path, capsys, source):
        spec = write_json(tmp_path / "spec.json", spec_to_json(named_spec("stopping")))
        origin = ["--name", "stopping"] if source == "--name" else ["--spec", str(spec)]
        err = self.run(capsys, ["generate", *origin, "--n-sessions", "0",
                                "--out", str(tmp_path / "d")])
        assert "error: --n-sessions must be an integer >= 1, got 0" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("mode", ["realized", "expected"])
    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_evaluate_rollouts(self, cli_root, tmp_path, capsys, mode, n):
        err = self.run(capsys, ["evaluate", "--data", str(cli_root / "data"),
                                "--run", str(cli_root / "run_mc"), "--demand-mode", mode,
                                "--n-rollouts", n, "--out", str(tmp_path / "e")])
        assert f"error: --n-rollouts must be an integer >= 1, got {n}" in err
        assert not (tmp_path / "e").exists()


def _train_parser():
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices["train"]


class TestTrainOptionTable:
    """Each train option is defined once, in cli.TRAIN_DEFAULTS: its flag and
    its --config key take the same values to the same resolved option."""

    @pytest.mark.parametrize("key", [k for k in cli.TRAIN_DEFAULTS if k != "session_end"])
    def test_one_flag_resolves_like_the_config_key(self, tmp_path, key):
        flag = "--" + key.replace("_", "-")
        actions = [a for a in _train_parser()._actions if a.dest == key]
        assert [a.option_strings for a in actions] == [[flag]]

        default = cli.TRAIN_DEFAULTS[key]
        value = True if isinstance(default, bool) else 0.25 if isinstance(default, float) else 7
        argv = ["train", "--data", "d", "--model", "mc", "--out", "o"]
        by_flag = cli._resolve_options(cli.build_parser().parse_args(
            argv + ([flag] if value is True else [flag, str(value)])
        ))
        config = write_json(tmp_path / "config.json", {key: value})
        by_config = cli._resolve_options(
            cli.build_parser().parse_args(argv + ["--config", str(config)])
        )
        assert by_flag == by_config == {**cli.TRAIN_DEFAULTS, key: value}
        assert type(by_flag[key]) is type(value) and value != default


class TestUsageErrors:
    def test_no_subcommand(self):
        assert cli_main([]) == 1

    def test_unknown_model(self, tmp_path):
        rc = cli_main(
            ["train", "--data", str(tmp_path), "--model", "gru",
             "--out", str(tmp_path / "r")]
        )
        assert rc == 1

    def test_generate_needs_out(self):
        assert cli_main(["generate", "--name", "stopping"]) == 1

    def test_help_exits_clean(self):
        assert cli_main(["--help"]) == 0


# ---------------------------------------------------------------------------
# pinned count-model outputs


def _cap3_spec_json():
    spec = GeneratorSpec(
        kind="markov1",
        n_sessions=200,
        seed=3,
        n_tracks=5,
        cap=3,
        transitions={
            Outcome.SKIP: (0.7, 0.3, 0.0),
            Outcome.PLAY: (0.2, 0.6, 0.2),
            Outcome.REPLAY: (0.4, 0.4, 0.2),
        },
    )
    return spec_to_json(spec)


PINNED_SPECS = {
    "cap2": lambda: spec_to_json(second_order_spec(n_sessions=300, seed=11)),
    "cap3": _cap3_spec_json,
}
PINNED_FILES = (
    "models/synthetic/model.json",
    "eval-realized/report.json",
    "eval-realized/demand.csv",
    "eval-expected/report.json",
    "eval-expected/demand.csv",
)


@pytest.fixture(scope="module")
def count_runs(tmp_path_factory):
    """generate -> train -> evaluate in both demand modes, per spec and model."""
    root = tmp_path_factory.mktemp("pinned")
    runs = {}
    for name, spec_json in PINNED_SPECS.items():
        data = root / name / "data"
        spec_path = write_json(root / name / "spec.json", spec_json())
        assert cli_main(["generate", "--spec", str(spec_path), "--out", str(data)]) == 0
        for model in ("mc", "pmc", "zero"):
            run = root / name / model
            assert cli_main(["train", "--data", str(data), "--model", model,
                             "--seed", "0", "--out", str(run)]) == 0
            for mode in ("realized", "expected"):
                assert cli_main(["evaluate", "--data", str(data), "--run", str(run),
                                 "--demand-mode", mode, "--n-rollouts", "60", "--seed", "5",
                                 "--out", str(run / f"eval-{mode}")]) == 0
            runs[name, model] = run
    return runs


def _run_digest(run) -> str:
    digest = hashlib.sha256()
    for name in PINNED_FILES:
        digest.update(name.encode() + b"\0" + (run / name).read_bytes())
    return digest.hexdigest()


class TestPinnedCountOutputs:
    """The count models' outputs, pinned: model.json and the realized- and
    expected-mode report.json and demand.csv of MC, pMC and zero-order on a
    cap-2 and a cap-3 spec. A change to how their rows are computed must be
    bit-identical or re-baseline these values on purpose."""

    @pytest.mark.parametrize(
        "spec,model,digest",
        [
            ("cap2", "mc", "31e72969f1dbb65d06f7f58f9becbf0b2edc916a3f1d5deb3a4fc2c63ceabf98"),
            ("cap2", "pmc", "c188510fc6afda119675599348b0b53e3f7a5e428d9b1b74ee04bb6416fe7d6d"),
            ("cap2", "zero", "7bf6d6e8534b19d40932f58865a3303ab248bf5122967504f5f9d8e210c26ecb"),
            ("cap3", "mc", "3159c600e53bef92eeb5b6c9336c899fa39b72ff2ecf809c48d43ded3e44836f"),
            ("cap3", "pmc", "a7140095f9eb9ce0ea218b8f89afc3da3c1ff703f9359608c41c8a8418441ad3"),
            ("cap3", "zero", "499385b0becdf228f22484f0f4d5493e9b23503d75ca29b0cdeeb8d3a99de064"),
        ],
    )
    def test_outputs(self, count_runs, spec, model, digest):
        assert _run_digest(count_runs[spec, model]) == digest
