import importlib.util
import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pada_lab.cli import (
    UsageError,
    _parse_scalar,
    build_parser,
    main,
    merge_config,
    read_config_file,
)
from pada_lab.baselines import classify_many
from pada_lab.corpus import Example, generate_synthetic, ingest_jsonl
from pada_lab.harness import (
    ExperimentConfig,
    build_artifacts,
    grid_search_alpha,
    load_model_dir,
    read_run_cells,
    run_loo,
    summary_table,
)
from pada_lab.inference import generate_candidates_many
from tests.conftest import BAD_RECORDS, edit_checkpoint_header

TINY_MODEL_FLAGS = [
    "--d-model", "8", "--n-layers", "1", "--n-heads", "2", "--d-ffn", "8",
    "--conv-filters", "3", "--conv-width", "3", "--epochs", "1",
    "--batch-size", "4", "--lr", "1e-3", "--k-drf", "3", "--prompt-len", "2",
    "--d-emb", "4", "--window", "2", "--num-candidates", "2",
    "--beam-size", "2", "--num-groups", "2", "--max-input-len", "48",
    "--max-output-len", "8",
]


# Out-of-range values of the feature-extraction settings, with the
# message that names each; the drf functions once checked these.
OUT_OF_RANGE_FEATURES = [
    (["--rho", "-1"], "rho must be non-negative"),
    (["--k-drf", "0"], "k_drf must be positive"),
    (["--prompt-len", "-1"], "prompt_len must be non-negative"),
    (["--d-emb", "0"], "d_emb must be >= 1"),
    (["--window", "0"], "window must be >= 1"),
]


def tiny_config() -> ExperimentConfig:
    """The ExperimentConfig that TINY_MODEL_FLAGS set."""
    values = {}
    for flag, value in zip(TINY_MODEL_FLAGS[::2], TINY_MODEL_FLAGS[1::2]):
        key = flag[2:].replace("-", "_")
        values[key] = type(getattr(ExperimentConfig, key))(value)
    return ExperimentConfig(**values)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    rc = main([
        "gen-data", "--out", str(path), "--n-domains", "3",
        "--examples-per-domain", "20", "--seed", "5",
    ])
    assert rc == 0
    return path


class TestParseScalar:
    @pytest.mark.parametrize(
        "raw,want",
        [
            ("true", True),
            ("False", False),
            ("42", 42),
            ("-3", -3),
            ("2e-3", 2e-3),
            ("0.25", 0.25),
            ("'quoted'", "quoted"),
            ('"also quoted"', "also quoted"),
            ("plain", "plain"),
        ],
    )
    def test_literal_forms(self, raw, want):
        got = _parse_scalar(raw)
        assert got == want
        assert type(got) is type(want)


class TestConfigFile:
    def test_values_comments_and_hyphens(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment line\n"
            "\n"
            "lr = 5e-4   # trailing comment\n"
            "batch-size = 16\n"
            "models = noda\n"
        )
        got = read_config_file(path)
        assert got == {"lr": 5e-4, "batch_size": 16, "models": "noda"}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lr = 1e-3\nnot a pair\n")
        with pytest.raises(UsageError, match=":2:"):
            read_config_file(path)

    def test_precedence_flag_beats_file_beats_default(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 9\nlr = 5e-4\n")
        parser = build_parser()
        args = parser.parse_args(
            ["run-loo", "--config", str(path), "--lr", "1e-2", "--data", "d", "--out", "o"]
        )
        merged = merge_config(args._defaults, args)
        assert merged["epochs"] == 9  # file beats default
        assert merged["lr"] == 1e-2  # flag beats file
        assert merged["alpha"] == 0.5  # untouched default

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate = 1e-3\n")
        parser = build_parser()
        args = parser.parse_args(["run-loo", "--config", str(path)])
        with pytest.raises(UsageError, match="learning_rate"):
            merge_config(args._defaults, args)

    def test_unknown_key_exits_2(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        rc = main(["run-loo", "--config", str(path), "--data", "d", "--out", "o"])
        assert rc == 2

    @pytest.mark.parametrize("command,line,key", [
        ("train", 'lr = "abc"', "lr"),
        ("train", "epochs = 1.5", "epochs"),
        ("train", "epochs = true", "epochs"),
        ("run-loo", "task_metric = 3", "task_metric"),
        ("gen-data", "seed = x", "seed"),
        ("gen-data", "indicative_noise = no", "indicative_noise"),
    ])
    def test_wrongly_typed_value_exits_2(self, data_path, tmp_path, capsys, command, line, key):
        """A config-file value of the wrong type is a usage error naming
        its key, as the matching flag's is through argparse."""
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        out = tmp_path / "out"
        inputs = {"train": ["--data", str(data_path), "--target", "aurora"],
                  "run-loo": ["--data", str(data_path)], "gen-data": []}[command]
        assert main([command, "--config", str(path), "--out", str(out), *inputs]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: config: {key} must be ")
        assert not out.exists()


def printed_hash(out: str) -> str:
    (found,) = re.findall(r"^config hash: ([0-9a-f]{64})$", out, re.M)
    return found


class TestConfigHash:
    """Every entry point records `ExperimentConfig.config_hash` of the
    settings it computes with (see tests/test_harness.py::TestConfigHash)."""

    @pytest.fixture(scope="class")
    def small_data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("hash") / "corpus.jsonl"
        assert main(["gen-data", "--out", str(path), "--n-domains", "2",
                     "--examples-per-domain", "10", "--seed", "2"]) == 0
        return path

    def test_paths_are_not_settings(self, small_data, tmp_path, capsys):
        # the same records under another text field name, in another place
        renamed = tmp_path / "elsewhere" / "renamed.jsonl"
        renamed.parent.mkdir()
        rows = [json.loads(line) for line in small_data.read_text().splitlines()]
        renamed.write_text("".join(
            json.dumps({("body" if k == "text" else k): v for k, v in r.items()}) + "\n"
            for r in rows))
        hashes = []
        for argv in (["--data", str(small_data), "--out", str(tmp_path / "a")],
                     ["--data", str(renamed), "--out", str(tmp_path / "b"), "--text-field", "body"],
                     ["--data", str(small_data), "--out", str(tmp_path / "c"), "--rho", "2.0"]):
            assert main(["drf", "extract", *argv]) == 0
            hashes.append(printed_hash(capsys.readouterr().out))
        assert hashes[0] == hashes[1] != hashes[2]

    def test_entry_points_print_one_hash(self, small_data, tmp_path, capsys):
        dataset = ingest_jsonl(small_data)
        hashes = {}
        for name, argv in (
            ("drf extract", ["drf", "extract", "--out", str(tmp_path / "drf")]),
            ("train", ["train", "--out", str(tmp_path / "m"), "--model", "noda",
                       "--target", dataset.domains[0]]),
            ("run-loo", ["run-loo", "--out", str(tmp_path / "loo"), "--models", "noda"]),
        ):
            assert main([*argv, "--data", str(small_data)]) == 0, name
            hashes[name] = printed_hash(capsys.readouterr().out)
        want = ExperimentConfig().config_hash(dataset.label_set, dataset.positive_class)
        assert hashes == dict.fromkeys(hashes, want)
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["config_hash"] == want
        cells = read_run_cells(tmp_path / "loo")
        assert {c["config_hash"] for c in cells.values()} == {want}

    def test_cli_and_library_run_loo_record_one_hash(self, data_path, loo_dir, tmp_path):
        # loo_dir is `run-loo --models noda` with TINY_MODEL_FLAGS
        cfg = tiny_config()
        dataset = ingest_jsonl(data_path)
        run_loo(dataset, ["noda"], cfg, tmp_path / "lib")
        cli_cells = read_run_cells(loo_dir)
        lib_cells = read_run_cells(tmp_path / "lib")
        assert lib_cells.keys() == cli_cells.keys()
        want = cfg.config_hash(dataset.label_set, dataset.positive_class)
        assert {c["config_hash"] for c in (*cli_cells.values(), *lib_cells.values())} == {want}
        assert (tmp_path / "lib" / "aggregate.csv").read_bytes() == (
            loo_dir / "aggregate.csv").read_bytes()

    def test_predict_records_the_model_hash(self, noda_dir, data_path, tmp_path):
        other = tmp_path / "noda-lr"
        flags = [*TINY_MODEL_FLAGS]
        flags[flags.index("--lr") + 1] = "5e-3"
        assert main(["train", "--data", str(data_path), "--out", str(other),
                     "--target", "aurora", "--model", "noda", *flags]) == 0
        recorded = []
        for model_dir in (noda_dir, other):
            preds = tmp_path / f"{model_dir.name}.jsonl"
            assert main(["predict", "--model-dir", str(model_dir), "--data", str(data_path),
                         "--out", str(preds)]) == 0
            want = json.loads((model_dir / "manifest.json").read_text())["config_hash"]
            rows = [json.loads(line) for line in preds.read_text().splitlines()]
            assert {r["config_hash"] for r in rows} == {want}
            recorded.append(want)
        assert recorded[0] != recorded[1]

    def test_unknown_task_metric_is_2(self, data_path, tmp_path, capsys):
        for argv in (["run-loo", "--models", "noda"], ["train", "--target", "aurora"]):
            rc = main([*argv, "--data", str(data_path), "--out", str(tmp_path / "x"),
                       "--task-metric", "accuracy"])
            assert rc == 2
            assert "task metric 'accuracy'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestExitCodes:
    def test_missing_required_value(self, capsys):
        assert main(["run-loo", "--out", "somewhere"]) == 2
        assert "--data" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_runtime_failure_is_1(self, tmp_path, capsys):
        rc = main(["drf", "extract", "--data", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_model_is_2(self, data_path, tmp_path):
        rc = main(["train", "--data", str(data_path), "--out", str(tmp_path / "m"),
                   "--target", "aurora", "--model", "fancy"])
        assert rc == 2

    def test_unknown_loo_model_is_2(self, data_path, tmp_path, capsys):
        rc = main(["run-loo", "--data", str(data_path), "--out", str(tmp_path / "loo"),
                   "--models", "noda,fancy"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: unknown models ['fancy']")
        assert not (tmp_path / "loo").exists()

    @pytest.mark.parametrize("flag,message", [
        (["--epochs", "0"], "epochs and batch_size must be positive"),
        (["--beam-size", "7"], "beam_size 7 is not divisible by num_groups 5"),
        (["--n-heads", "5"], "d_model must be divisible by n_heads"),
        *OUT_OF_RANGE_FEATURES,
    ])
    def test_out_of_range_setting_is_2_before_writing(self, data_path, tmp_path, capsys,
                                                      flag, message):
        out = tmp_path / "loo"
        rc = main(["run-loo", "--data", str(data_path), "--out", str(out), "--models", "noda",
                   *flag])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,message", [
        *((command, flag, message) for command in ("train", "tune-alpha")
          for flag, message in OUT_OF_RANGE_FEATURES),
        *(("drf extract", flag, message) for flag, message in OUT_OF_RANGE_FEATURES
          if flag[0] != "--prompt-len"),  # drf extract annotates nothing
    ])
    def test_out_of_range_feature_setting_is_2_before_writing(
            self, data_path, tmp_path, capsys, command, flag, message):
        out = tmp_path / "out"
        argv = {"train": ["train", "--target", "aurora", "--model", "noda", "--out", str(out)],
                "tune-alpha": ["tune-alpha", "--out", str(out / "alpha.json")],
                "drf extract": ["drf", "extract", "--out", str(out)]}[command]
        rc = main([*argv, "--data", str(data_path), *flag])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()


class TestGenData:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main([
                "gen-data", "--out", str(path), "--n-domains", "2",
                "--examples-per-domain", "10", "--seed", "3",
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_records_carry_domain_split_label(self, tmp_path):
        path = tmp_path / "c.jsonl"
        main(["gen-data", "--out", str(path), "--n-domains", "2",
              "--examples-per-domain", "10", "--seed", "3"])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {"id", "text", "label", "domain", "split"} <= set(rows[0])
        assert {r["split"] for r in rows} == {"train", "dev"}


class TestDrfExtract:
    def test_profiles_and_embeddings_written(self, data_path, tmp_path, capsys):
        out = tmp_path / "drfs"
        rc = main(["drf", "extract", "--data", str(data_path), "--out", str(out),
                   "--k-drf", "5", "--d-emb", "4"])
        assert rc == 0
        profiles = sorted(p.name for p in out.glob("*.json"))
        assert len(profiles) == 3
        body = json.loads((out / profiles[0]).read_text())
        assert {"domain", "rho", "drfs"} <= set(body)
        assert all({"token", "mi", "ratio"} <= set(d) for d in body["drfs"])
        assert (out / "embeddings.txt").exists()
        assert "config hash:" in capsys.readouterr().out

    @pytest.mark.parametrize("domains,message", [
        ("aurora,zzz", "unknown source domain 'zzz'"),
        ("aurora,bazaar,aurora", "domains named more than once: ['aurora']"),
    ])
    def test_bad_domains_exit_1_before_writing(self, data_path, tmp_path, capsys, domains, message):
        out = tmp_path / "drfs"
        rc = main(["drf", "extract", "--data", str(data_path), "--out", str(out),
                   "--domains", domains])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_defaults_match_the_pipeline(self, data_path, tmp_path):
        # With no flags, the profiles are the ones `train` builds and saves.
        out = tmp_path / "drfs"
        assert main(["drf", "extract", "--data", str(data_path), "--out", str(out)]) == 0
        dataset = ingest_jsonl(data_path)
        cfg = ExperimentConfig()
        art = build_artifacts(dataset, dataset.domains, cfg)
        for d, profile in art.profiles.items():
            body = json.loads((out / f"{d}.json").read_text())
            assert body["rho"] == cfg.rho
            assert body["drfs"] == [
                {"token": r.token, "mi": r.mi, "ratio": r.ratio} for r in profile.drfs
            ]
        art.embeddings.write_text(tmp_path / "want.txt")
        assert (out / "embeddings.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


@pytest.fixture(scope="module")
def noda_dir(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "noda"
    rc = main(["train", "--data", str(data_path), "--out", str(out),
               "--target", "aurora", "--model", "noda", *TINY_MODEL_FLAGS])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fuzz_model_dir(noda_dir, tmp_path_factory):
    """A copy of noda_dir that a test may damage and must restore."""
    out = tmp_path_factory.mktemp("fuzz") / "noda"
    shutil.copytree(noda_dir, out)
    return out


@pytest.fixture(scope="module")
def pada_dir(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "pada"
    rc = main(["train", "--data", str(data_path), "--out", str(out),
               "--target", "aurora", "--model", "pada", *TINY_MODEL_FLAGS])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def loo_dir(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "loo"
    rc = main(["run-loo", "--data", str(data_path), "--out", str(out),
               "--models", "noda", *TINY_MODEL_FLAGS])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def pada_noda_loo_dir(data_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "loo-pada-noda"
    rc = main(["run-loo", "--data", str(data_path), "--out", str(out),
               "--models", "pada,noda", *TINY_MODEL_FLAGS])
    assert rc == 0
    return out


class TestDomainNames:
    @pytest.mark.parametrize("name", ["../escaped", "..", "a\\b"])
    def test_commands_exit_1_and_write_nothing(self, data_path, tmp_path, capsys, name):
        """A domain name that cannot name a file fails `drf extract`,
        `run-loo` and `train` before they write anything."""
        lines = data_path.read_text().splitlines()
        first = json.loads(lines[0])["domain"]
        renamed = [json.dumps({**r, "domain": name}) if r["domain"] == first else json.dumps(r)
                   for r in map(json.loads, lines)]
        bad_line = 1 + next(i for i, r in enumerate(renamed) if json.loads(r)["domain"] == name)
        data = tmp_path / "data.jsonl"
        data.write_text("\n".join(renamed) + "\n")
        out = tmp_path / "esc" / "out"
        other = next(json.loads(r)["domain"] for r in renamed if json.loads(r)["domain"] != name)
        for argv in (["drf", "extract", "--data", str(data), "--out", str(out / "profiles")],
                     ["run-loo", "--data", str(data), "--out", str(out / "loo"),
                      "--models", "noda", *TINY_MODEL_FLAGS],
                     ["train", "--data", str(data), "--out", str(out / "model"),
                      "--target", other, "--model", "noda", *TINY_MODEL_FLAGS]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: line {bad_line}: domain {name!r}"), err
        assert [p.name for p in tmp_path.rglob("*")] == ["data.jsonl"]


class TestTrainPredictRoundTrip:
    def test_model_dir_contents(self, noda_dir):
        assert (noda_dir / "manifest.json").exists()
        assert (noda_dir / "checkpoint.bin").exists()
        assert (noda_dir / "vocab.json").exists()
        assert (noda_dir / "train_log.jsonl").exists()
        manifest = json.loads((noda_dir / "manifest.json").read_text())
        assert manifest["model"] == "noda"
        assert manifest["target"] == "aurora"
        assert "aurora" not in manifest["sources"]

    def test_train_log_schema(self, noda_dir):
        lines = (noda_dir / "train_log.jsonl").read_text().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert {"epoch", "gen_loss", "disc_loss", "dev_f1", "lr"} == set(rec)

    def test_predict_noda(self, noda_dir, data_path, tmp_path, capsys):
        out = tmp_path / "preds.jsonl"
        rc = main(["predict", "--model-dir", str(noda_dir),
                   "--data", str(data_path), "--out", str(out)])
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows
        for row in rows[:3]:
            assert {"id", "generated_prompt", "candidates", "class_probs",
                    "predicted_label", "config_hash"} <= set(row)
            assert row["generated_prompt"] is None
            assert row["candidates"] == []
            assert len(row["class_probs"]) == 2
            assert abs(sum(row["class_probs"]) - 1.0) < 1e-9

    def test_predict_pada_generates_prompts(self, pada_dir, data_path, tmp_path):
        out = tmp_path / "preds.jsonl"
        rc = main(["predict", "--model-dir", str(pada_dir),
                   "--data", str(data_path), "--out", str(out)])
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        for row in rows[:3]:
            assert row["generated_prompt"] is not None
            assert len(row["candidates"]) == 2
            scores = [c["score"] for c in row["candidates"]]
            assert scores == sorted(scores, reverse=True)

    def test_predict_unlabeled_input(self, noda_dir, tmp_path):
        data = tmp_path / "raw.jsonl"
        data.write_text('{"text": "plain words here"}\n{"text": "more words"}\n')
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model-dir", str(noda_dir),
                     "--data", str(data), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["r1", "r2"]

    @pytest.mark.parametrize("damage,named", [
        ("config key", "manifest.json"),
        ("header key", "checkpoint.bin"),
        ("truncated", "checkpoint.bin"),
        ("trailing", "checkpoint.bin"),
        ("tensor shape", "checkpoint.bin"),
        ("manifest not an object", "manifest.json"),
        ("unknown model", "manifest.json"),
        ("task metric not a string", "manifest.json"),
        ("unknown task metric", "manifest.json"),
        ("vocab not a token list", "vocab.json"),
        ("vocab shorter than the checkpoint", "vocab.json"),
        ("pada vocab shorter than the checkpoint", "vocab.json"),
    ])
    def test_predict_bad_model_dir_exits_1(self, request, data_path, tmp_path, capsys,
                                           damage, named):
        model = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(
            "pada_dir" if damage.startswith("pada ") else "noda_dir"), model)
        ckpt = model / "checkpoint.bin"
        if damage == "config key":
            manifest = json.loads((model / "manifest.json").read_text())
            manifest["config"]["threads"] = 2
            (model / "manifest.json").write_text(json.dumps(manifest))
        elif damage == "header key":
            edit_checkpoint_header(ckpt, lambda h: h.update(label_smoothing=0.0))
        elif damage == "tensor shape":
            # the header claims a wider FFN than the tensors hold
            edit_checkpoint_header(ckpt, lambda h: h.update(d_ffn=16))
        elif damage == "manifest not an object":
            (model / "manifest.json").write_text("[]\n")
        elif damage == "unknown model":
            manifest = json.loads((model / "manifest.json").read_text())
            manifest["model"] = "fancy"
            (model / "manifest.json").write_text(json.dumps(manifest))
        elif damage in ("task metric not a string", "unknown task metric"):
            manifest = json.loads((model / "manifest.json").read_text())
            manifest["config"]["task_metric"] = 5 if damage.endswith("string") else "bogus"
            (model / "manifest.json").write_text(json.dumps(manifest))
        elif damage == "vocab not a token list":
            (model / "vocab.json").write_text('{"tokens": 5}')
        elif damage.endswith("vocab shorter than the checkpoint"):
            tokens = json.loads((model / "vocab.json").read_text())["tokens"]
            (model / "vocab.json").write_text(json.dumps({"tokens": tokens[:10]}))
        elif damage == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:-5])
        else:
            ckpt.write_bytes(ckpt.read_bytes() + b"extra")
        rc = main(["predict", "--model-dir", str(model), "--data", str(data_path),
                   "--out", str(tmp_path / "preds.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert err.count("\n") == 1
        assert not (tmp_path / "preds.jsonl").exists()

    @pytest.mark.parametrize("edit", [None, {"beam_size": 4, "num_groups": 2}, {"seed": 1}],
                             ids=["untouched", "beam settings", "seed"])
    def test_predict_checks_the_stored_config_hash(self, request, data_path, tmp_path, capsys,
                                                   edit):
        """A manifest whose settings no longer hash to its stored
        config_hash is refused; an untouched copy predicts the bytes the
        directory it was copied from predicts."""
        for name in ("noda_dir", "pada_dir"):
            model = tmp_path / name
            shutil.copytree(request.getfixturevalue(name), model)
            if edit:
                manifest = json.loads((model / "manifest.json").read_text())
                manifest["config"].update(edit)
                (model / "manifest.json").write_text(json.dumps(manifest))
            out = tmp_path / f"{name}.jsonl"
            rc = main(["predict", "--model-dir", str(model), "--data", str(data_path),
                       "--out", str(out)])
            if edit:
                assert rc == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1
                assert f"{model / 'manifest.json'}: config_hash " in err
                assert "does not match" in err
                assert not out.exists()
                continue
            assert rc == 0
            want = tmp_path / f"{name}-original.jsonl"
            assert main(["predict", "--model-dir", str(request.getfixturevalue(name)),
                         "--data", str(data_path), "--out", str(want)]) == 0
            assert out.read_bytes() == want.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(damage=st.data())
    def test_predict_survives_damaged_model_dir(self, fuzz_model_dir, data_path, damage):
        """Truncate checkpoint.bin, manifest.json or vocab.json, or flip
        one byte in one of them: predict exits 0 or 1, never raises, and
        exits 1 on every truncation (a cut that drops only the manifest's
        final newline leaves the same JSON, so cuts stop before trailing
        whitespace)."""
        name = damage.draw(st.sampled_from(["checkpoint.bin", "manifest.json", "vocab.json"]),
                           label="file")
        path = fuzz_model_dir / name
        raw = path.read_bytes()
        truncate = damage.draw(st.booleans(), label="truncate")
        if truncate:
            end = len(raw.rstrip()) if name.endswith(".json") else len(raw)
            broken = raw[: damage.draw(st.integers(0, end - 1), label="cut")]
        else:
            at = damage.draw(st.integers(0, len(raw) - 1), label="offset")
            flip = damage.draw(st.integers(1, 255), label="xor")
            broken = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
        path.write_bytes(broken)
        try:
            rc = main(["predict", "--model-dir", str(fuzz_model_dir), "--data", str(data_path),
                       "--out", str(fuzz_model_dir.parent / "preds.jsonl")])
        finally:
            path.write_bytes(raw)
        assert rc == 1 if truncate else rc in (0, 1)

    def test_predict_pada_equals_one_example_at_a_time(self, pada_dir, data_path, tmp_path):
        """One call decodes the whole file, bucketed by input length; every
        output record equals what decoding each example alone gives."""
        records = [json.loads(line) for line in data_path.read_text().splitlines()[:9]]
        data = tmp_path / "mixed.jsonl"
        # cut some texts short, so the examples fall into several buckets
        data.write_text("".join(
            json.dumps({"id": f"x{i}", "text": " ".join(r["text"].split()[: 2 + i % 3 * 40])})
            + "\n" for i, r in enumerate(records)))
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model-dir", str(pada_dir),
                     "--data", str(data), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]

        trained, cfg = load_model_dir(pada_dir)
        examples = [Example(id=f"x{i}", text=json.loads(line)["text"], label="", domain="")
                    for i, line in enumerate(data.read_text().splitlines())]
        assert len({len(ex.tokens) for ex in examples}) >= 2
        cands = [generate_candidates_many(trained.model_cfg, trained.params, trained.vocab, [ex],
                                          cfg, cfg.num_candidates)[0] for ex in examples]
        probs = classify_many(trained.model_cfg, trained.params, trained.vocab, examples,
                              prompts=[c[0].prompt_ids for c in cands])
        assert [r["id"] for r in rows] == [ex.id for ex in examples]
        for row, c, p in zip(rows, cands, probs):
            assert row["generated_prompt"] == " ".join(c[0].tokens)
            assert row["candidates"] == [{"tokens": list(x.tokens), "score": x.score} for x in c]
            assert row["class_probs"] == p.tolist()

    @pytest.mark.parametrize("content", ["", "\n  \n"])
    def test_predict_empty_input_exits_1(self, pada_dir, tmp_path, capsys, content):
        data = tmp_path / "empty.jsonl"
        data.write_text(content)
        assert main(["predict", "--model-dir", str(pada_dir), "--data", str(data),
                     "--out", str(tmp_path / "preds.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty.jsonl" in err
        assert not (tmp_path / "preds.jsonl").exists()

    def test_predict_pair_input_joined(self, noda_dir, tmp_path):
        data = tmp_path / "pairs.jsonl"
        data.write_text('{"premise": "first half", "hypothesis": "second half"}\n')
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model-dir", str(noda_dir),
                     "--data", str(data), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_predict_reads_text_before_the_pair(self, pada_dir, data_path, tmp_path):
        """A record with both reads as its text, as training reads it."""
        text = json.loads(data_path.read_text().splitlines()[0])["text"]
        data = tmp_path / "both.jsonl"
        data.write_text(json.dumps({"text": text, "premise": "first half",
                                    "hypothesis": "second half"}) + "\n"
                        + json.dumps({"text": text}) + "\n")
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model-dir", str(pada_dir),
                     "--data", str(data), "--out", str(out)]) == 0
        both, text_only = [json.loads(line) for line in out.read_text().splitlines()]
        assert both["class_probs"] == text_only["class_probs"]
        assert both["candidates"] == text_only["candidates"]


class TestRunLooAndReport:
    def test_outputs_exist(self, loo_dir):
        assert (loo_dir / "aggregate.csv").exists()
        assert (loo_dir / "shifts.svg").exists()
        assert len(list((loo_dir / "cells").glob("*.json"))) == 3

    def test_summary_table_printed(self, data_path, tmp_path, capsys):
        out = tmp_path / "loo2"
        main(["run-loo", "--data", str(data_path), "--out", str(out),
              "--models", "noda", *TINY_MODEL_FLAGS])
        printed = capsys.readouterr().out
        assert "mean_f1" in printed
        assert "noda" in printed
        assert re.search(rf"\n[0-9.]+s wall, [0-9.]+ MB peak RSS, [0-9]+ minor page faults; "
                         rf"reports -> {re.escape(str(out))}\n"
                         r"config hash: [0-9a-f]{64}\n$", printed)

    def test_identical_argv_reproduces_bytes(self, loo_dir, data_path, tmp_path):
        out = tmp_path / "again"
        main(["run-loo", "--data", str(data_path), "--out", str(out),
              "--models", "noda", *TINY_MODEL_FLAGS])
        assert (out / "aggregate.csv").read_bytes() == (loo_dir / "aggregate.csv").read_bytes()
        assert (out / "shifts.svg").read_bytes() == (loo_dir / "shifts.svg").read_bytes()

    def test_report_rebuilds_from_cells(self, pada_noda_loo_dir, tmp_path):
        # rows follow the model table (pada before noda), not the alphabet,
        # so a report into the run dir itself rewrites the same bytes
        run = tmp_path / "run"
        shutil.copytree(pada_noda_loo_dir, run)
        out = tmp_path / "rebuilt"
        assert main(["report", "--run-dir", str(run), "--out", str(out)]) == 0
        assert main(["report", "--run-dir", str(run)]) == 0
        for rebuilt in (out, run):
            for name in ("aggregate.csv", "shifts.svg"):
                assert (rebuilt / name).read_bytes() == (pada_noda_loo_dir / name).read_bytes()
        rows = (run / "aggregate.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["pada", "noda"]

    @pytest.mark.parametrize("edit,message", [
        (lambda c: "[]\n", "expected a JSON object, got list"),
        (lambda c: json.dumps(c)[:-1], "not a JSON cell report"),
        (lambda c: json.dumps({k: v for k, v in c.items() if k != "target"}),
         "missing key 'target'"),
        (lambda c: json.dumps({**c, "model": "fancy"}), "model must be one of"),
        (lambda c: json.dumps({**c, "target": 5}), "target must be a string"),
        (lambda c: json.dumps({**c, "target_f1": True}),
         "target_f1 must be a number in [0, 1], got True"),
        (lambda c: json.dumps({**c, "target_f1": 1.5}), "target_f1 must be"),
        (lambda c: json.dumps({**c, "target_f1": float("nan")}), "target_f1 must be"),
        (lambda c: json.dumps({**c, "shift": "0.1"}), "shift must be"),
        (lambda c: json.dumps({**c, "shift": float("inf")}), "shift must be"),
        (lambda c: json.dumps({k: v for k, v in c.items() if k != "config_hash"}),
         "missing key 'config_hash'"),
    ], ids=["array", "bad json", "no target", "unknown model", "target not a string",
            "bool f1", "f1 above 1", "nan f1", "string shift", "infinite shift",
            "no config hash"])
    def test_report_rejects_bad_cell(self, loo_dir, tmp_path, capsys, edit, message):
        run = tmp_path / "run"
        shutil.copytree(loo_dir, run)
        cell = run / "cells" / "noda__aurora.json"
        cell.write_text(edit(json.loads(cell.read_text())))
        out = tmp_path / "out"
        assert main(["report", "--run-dir", str(run), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "noda__aurora.json" in err and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_report_rewrites_a_run_whose_domains_are_not_in_name_order(
            self, data_path, tmp_path):
        records = [json.loads(line) for line in data_path.read_text().splitlines()]
        data = tmp_path / "reversed.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in
                                sorted(records, key=lambda r: r["domain"], reverse=True)))
        run = tmp_path / "run"
        assert main(["run-loo", "--data", str(data), "--out", str(run),
                     "--models", "noda,pada-dn", *TINY_MODEL_FLAGS]) == 0
        written = {name: (run / name).read_bytes() for name in ("aggregate.csv", "shifts.svg")}
        assert main(["report", "--run-dir", str(run)]) == 0
        for name, raw in written.items():
            assert (run / name).read_bytes() == raw

    def test_report_refuses_cells_of_two_runs(self, data_path, tmp_path, capsys):
        # two runs of other settings written into one --out: their cells
        # carry two config hashes and make no one table
        run = tmp_path / "run"
        for models, epochs in (("noda", "1"), ("moe", "2")):
            assert main(["run-loo", "--data", str(data_path), "--out", str(run),
                         "--models", models, *TINY_MODEL_FLAGS, "--epochs", epochs]) == 0
        capsys.readouterr()
        written = {name: (run / name).read_bytes() for name in ("aggregate.csv", "shifts.svg")}
        assert main(["report", "--run-dir", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "noda__aurora.json: config hash " in err and "differs from moe__aurora.json's" in err
        for name, raw in written.items():
            assert (run / name).read_bytes() == raw

    def test_report_rejects_a_second_cell_for_one_pair(self, loo_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(loo_dir, run)
        shutil.copy(run / "cells" / "noda__aurora.json", run / "cells" / "copy.json")
        assert main(["report", "--run-dir", str(run), "--out", str(tmp_path / "out")]) == 1
        assert "a second report for model 'noda', target 'aurora'" in capsys.readouterr().err

    def test_report_needs_cells(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path)]) == 1

    def test_seeds_flag_parsed(self, data_path, tmp_path):
        out = tmp_path / "seeded"
        rc = main(["run-loo", "--data", str(data_path), "--out", str(out),
                   "--models", "noda", "--seeds", "0,1", *TINY_MODEL_FLAGS])
        assert rc == 0
        cell = json.loads(next((out / "cells").glob("*.json")).read_text())
        assert cell["seeds"] == [0, 1]

    def test_bad_seeds_flag_is_2(self, data_path, tmp_path):
        rc = main(["run-loo", "--data", str(data_path), "--out", str(tmp_path / "x"),
                   "--models", "noda", "--seeds", "zero"])
        assert rc == 2

    def test_desk_script_prints_the_summary_table(self, desk_script, data_path, tmp_path,
                                                  capsys):
        out = tmp_path / "desk"
        assert desk_script.main(["--data", str(data_path), "--out", str(out),
                                 "--models", "noda", "--epochs", "1"]) == 0
        printed = capsys.readouterr().out
        cells = read_run_cells(out)
        assert summary_table(cells) in printed
        assert re.search(r"\n[0-9.]+s wall, [0-9.]+ MB peak RSS, [0-9]+ minor page faults; "
                         r"reports -> .*\n"
                         r"config hash: [0-9a-f]{64}\n", printed)
        assert {c["config_hash"] for c in cells.values()} == {printed_hash(printed)}
        assert not (out / "corpus.jsonl").exists()


@pytest.fixture(scope="module")
def desk_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_desk_experiment.py"
    spec = importlib.util.spec_from_file_location("run_desk_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestDeskScript:
    """scripts/run_desk_experiment.py is `gen-data` then `run-loo`."""

    def test_default_corpus_run_equals_the_library_run(self, desk_script, tmp_path, capsys):
        # the corpus goes through JSONL, which does not carry the positive class
        out = tmp_path / "desk"
        assert desk_script.main(["--out", str(out), "--models", "noda", "--epochs", "1"]) == 0
        assert (out / "corpus.jsonl").exists()
        dataset = generate_synthetic()
        cfg = replace(ExperimentConfig(), epochs=1)
        run_loo(dataset, ["noda"], cfg, tmp_path / "lib")
        assert (out / "aggregate.csv").read_bytes() == (
            tmp_path / "lib" / "aggregate.csv").read_bytes()
        want = cfg.config_hash(dataset.label_set, dataset.positive_class)
        assert printed_hash(capsys.readouterr().out) == want
        assert {c["config_hash"] for c in read_run_cells(out).values()} == {want}

    @pytest.mark.parametrize("flag", [["--models", "foo"], ["--seeds", "1,x"], ["--epochs", "0"]])
    def test_bad_flags_are_usage_errors(self, desk_script, tmp_path, capsys, flag):
        out = tmp_path / "desk"
        assert desk_script.main(["--out", str(out), *flag]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (out / "cells").exists()
        assert not (out / "corpus.jsonl").exists()
        assert not out.exists()

    def test_usage_error_keeps_a_given_corpus_and_an_existing_out(self, desk_script, data_path,
                                                                   tmp_path, capsys):
        out = tmp_path / "desk"
        out.mkdir()
        assert desk_script.main(["--data", str(data_path), "--out", str(out),
                                 "--models", "foo"]) == 2
        assert data_path.exists()
        assert desk_script.main(["--out", str(out), "--models", "foo"]) == 2
        assert out.is_dir() and not any(out.iterdir())


class TestTuneAlpha:
    def test_prints_and_writes_the_grid_search(self, data_path, tmp_path, capsys):
        out = tmp_path / "tune" / "alpha.json"
        assert main(["tune-alpha", "--data", str(data_path), "--grid", "0.25,0.75",
                     "--out", str(out), *TINY_MODEL_FLAGS]) == 0
        dataset = ingest_jsonl(data_path)
        best, scores = grid_search_alpha(dataset, [0.25, 0.75], tiny_config())
        # the hash names the winning model's settings, alpha included
        want_hash = replace(tiny_config(), alpha=best).config_hash(
            dataset.label_set, dataset.positive_class)
        assert capsys.readouterr().out == "".join(
            f"alpha {a:.2f}: pooled dev F1 {scores[a]:.4f}{'  <- best' if a == best else ''}\n"
            for a in sorted(scores)) + f"config hash: {want_hash}\n"
        assert json.loads(out.read_text()) == {
            "best": best, "config_hash": want_hash,
            "scores": {str(a): f1 for a, f1 in scores.items()}}

    @pytest.mark.parametrize("grid", ["0.5,abc", ",", "1.5"])
    def test_bad_grid_is_2(self, data_path, tmp_path, capsys, grid):
        out = tmp_path / "alpha.json"
        assert main(["tune-alpha", "--data", str(data_path), "--grid", grid,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_alpha_is_not_a_setting(self, data_path):
        with pytest.raises(SystemExit) as exc:
            main(["tune-alpha", "--data", str(data_path), "--alpha", "0.5"])
        assert exc.value.code == 2


# Strings keep to a small alphabet, with "." and "/" so that a drawn
# domain name can reach the check on names that cannot name a file.
_TEXTS = st.text(alphabet="ab XY09./", max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["text", "label", "domain", "id", "split", "premise", "hypothesis"])
        | st.text(alphabet="ab", max_size=2), inner, max_size=5),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def records(data_path):
    return [json.loads(line) for line in data_path.read_text().splitlines()]


class TestJsonlBoundary:
    """Bad JSONL lines fail `predict` and `drf extract` with one error line."""

    def commands(self, model_dir, data, out):
        return [["predict", "--model-dir", str(model_dir), "--data", str(data),
                 "--out", str(out / "preds.jsonl")],
                ["drf", "extract", "--data", str(data), "--out", str(out / "drf"),
                 "--k-drf", "3", "--d-emb", "4", "--window", "2"]]

    @pytest.mark.parametrize("edit,named", BAD_RECORDS)
    def test_bad_record_exits_1(self, noda_dir, records, tmp_path, capsys, edit, named):
        data = tmp_path / "bad.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in
                                [records[0], edit(records[1]), *records[2:]]))
        for argv in self.commands(noda_dir, data, tmp_path):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: line 2: {named}") and err.count("\n") == 1

    @settings(max_examples=30, deadline=None)
    @given(damage=st.data())
    def test_damaged_jsonl_exits_0_or_1(self, noda_dir, records, tmp_path_factory, damage):
        """Replace one line with a drawn JSON value, or one field of its
        record with one: each command exits 0 or 1 and never raises."""
        at = damage.draw(st.integers(0, len(records) - 1), label="line")
        if damage.draw(st.booleans(), label="whole line"):
            line = damage.draw(_JSON_VALUES, label="value")
        else:
            key = damage.draw(st.sampled_from(sorted(records[at])), label="field")
            value = damage.draw(st.integers() | _TEXTS | _JSON_VALUES, label="value")
            line = {**records[at], key: value}
        lines = [*records[:at], line, *records[at + 1:]]
        out = tmp_path_factory.mktemp("damaged")
        data = out / "data.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in lines))
        for argv in self.commands(noda_dir, data, out):
            assert main(argv) in (0, 1)
