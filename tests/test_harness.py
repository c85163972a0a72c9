import collections
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from pada_lab import training
from pada_lab.baselines import moe_predict_many
from pada_lab.corpus import Example, LeaveOneOutSetting, MultiDomainDataset
from pada_lab.harness import (
    MODEL_NAMES,
    ExperimentConfig,
    ExperimentReport,
    MetricSpec,
    TrainedVariant,
    build_artifacts,
    grid_search_alpha,
    load_model_dir,
    metric_for_dataset,
    probs_to_labels,
    render_shift_svg,
    run_loo,
    run_setting,
    save_model_dir,
    train_variant,
    write_aggregate_csv,
    write_run_report,
)
from pada_lab.metrics import f1_binary, f1_macro
from pada_lab.model import config_from_dict, init_params, save_checkpoint
from tests.conftest import make_dataset

DOMAIN_WORDS = {"rivers": "delta", "forests": "canopy", "plains": "prairie", "meadows": "clover"}


def small_dataset(domains=("rivers", "forests", "plains"), n=6):
    """Each domain gets its own indicator word so feature extraction
    always survives, plus a label-bearing word shared by all."""
    train, dev = {}, {}
    for d in domains:
        word = DOMAIN_WORDS[d]
        rows = []
        for i in range(n):
            label = "pos" if i % 2 else "neg"
            cue = "bright" if label == "pos" else "faded"
            rows.append((f"{word} {cue} field stone", label))
        train[d] = rows
        dev[d] = [
            (f"{word} bright field", "pos"),
            (f"{word} faded field", "neg"),
        ]
    return make_dataset(train, dev=dev)


def small_cfg(**kw):
    base = dict(
        rho=1.5, k_drf=3, prompt_len=2, d_emb=4, window=2,
        d_model=8, n_layers=1, n_heads=2, d_ffn=8,
        max_input_len=32, max_output_len=8, conv_filters=3, conv_width=3,
        alpha=0.25, epochs=1, batch_size=4, lr=1e-3, patience=1,
        num_candidates=2, beam_size=2, num_groups=2, diversity_penalty=0.5,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestMetricSpec:
    def test_binary_needs_positive_class(self):
        no_positive = replace(small_dataset(), positive_class=None)
        with pytest.raises(ValueError, match="positive"):
            metric_for_dataset(no_positive, "binary")

    def test_binary_score_dispatch(self):
        spec = MetricSpec("pos")
        y_true, y_pred = ["pos", "neg"], ["pos", "pos"]
        want = f1_binary(y_true, y_pred, "pos", label_set=("neg", "pos"))
        assert spec.score(y_true, y_pred, ("neg", "pos")) == want
        # no positive class: macro F1
        assert MetricSpec(None).score(y_true, y_pred, ("neg", "pos")) == f1_macro(
            y_true, y_pred, ("neg", "pos"))

    def test_dataset_dispatch(self):
        ds = small_dataset()
        assert metric_for_dataset(ds) == MetricSpec("pos")


class TestExperimentConfig:
    def test_model_config_mirrors_dimensions(self):
        cfg = small_cfg()
        mc = cfg.model_config(vocab_size=30, n_classes=2)
        assert mc.vocab_size == 30
        assert mc.d_model == cfg.d_model
        assert mc.max_output_len == cfg.max_output_len

    def test_train_config_seed_override(self):
        cfg = small_cfg(seed=3)
        assert cfg.train_config().seed == 3
        assert cfg.train_config(9).seed == 9

    def test_hash_is_stable_and_sensitive(self):
        labels = ("neg", "pos")
        a, b = small_cfg(), small_cfg()
        assert a.config_hash(labels, "pos") == b.config_hash(labels, "pos")
        assert small_cfg(lr=5e-4).config_hash(labels, "pos") != a.config_hash(labels, "pos")
        assert len(a.config_hash(labels, "pos")) == 64

    def test_int_for_a_float_setting_is_the_float(self):
        # rho = 3 in a call, a config file or a manifest is rho = 3.0, so
        # configs that compare equal hash alike
        labels = ("neg", "pos")
        want = ExperimentConfig().config_hash(labels, "pos")
        for cfg in (ExperimentConfig(rho=3),
                    config_from_dict(ExperimentConfig, {"rho": 3}, "config"),
                    replace(ExperimentConfig(), rho=3)):
            assert cfg.config_hash(labels, "pos") == want
        floats = [f.name for f in fields(ExperimentConfig) if f.type == "float"]
        assert {"rho", "lr", "alpha", "warmup_ratio", "diversity_penalty"} <= set(floats)
        cfg = ExperimentConfig(**{name: 1 for name in floats})
        assert all(type(getattr(cfg, name)) is float for name in floats)

    def test_task_metric_resolves_against_the_dataset(self):
        ds = small_dataset()
        assert metric_for_dataset(ds, "auto") == metric_for_dataset(ds)
        assert metric_for_dataset(ds, "binary") == MetricSpec("pos")
        assert metric_for_dataset(ds, "macro") == MetricSpec(None)
        no_positive = replace(ds, positive_class=None)
        assert metric_for_dataset(no_positive) == MetricSpec(None)
        with pytest.raises(ValueError, match="positive class"):
            metric_for_dataset(no_positive, "binary")

    @pytest.mark.parametrize("choice", ["accuracy", "", 5, None])
    def test_unknown_task_metric_rejected(self, choice):
        with pytest.raises(ValueError, match="unknown task metric"):
            small_cfg(task_metric=choice)


class TestConfigHash:
    """`ExperimentConfig.config_hash`, the one hash every entry point
    records (see tests/test_cli.py::TestConfigHash)."""

    LABELS = ("neg", "pos")

    def test_stable_for_same_values(self):
        a = small_cfg()
        b = replace(small_cfg(lr=5e-4, task_metric="macro"), lr=a.lr, task_metric="auto")
        assert a.config_hash(self.LABELS, "pos") == b.config_hash(list(self.LABELS), "pos")
        assert len(a.config_hash(self.LABELS, "pos")) == 64

    def test_value_sensitive(self):
        cfg = small_cfg()
        base = cfg.config_hash(self.LABELS, "pos")
        # + 1 would take these out of range at small_cfg's values
        in_range = {"d_model": 16, "n_heads": 4, "conv_width": 5, "beam_size": 4,
                    "num_groups": 1, "alpha": 0.5, "warmup_ratio": 0.2}
        for f in fields(ExperimentConfig):
            value = getattr(cfg, f.name)
            changed = replace(cfg, **{f.name: in_range.get(
                f.name, "macro" if isinstance(value, str) else value + 1)})
            assert changed.config_hash(self.LABELS, "pos") != base, f.name

    def test_label_set_and_positive_class_are_settings(self):
        cfg = small_cfg()
        hashes = {cfg.config_hash(("neg", "pos"), "pos"), cfg.config_hash(("pos", "neg"), "pos"),
                  cfg.config_hash(("neg", "pos"), "neg"), cfg.config_hash(("neg", "pos"), None)}
        assert len(hashes) == 4


class TestBuildArtifacts:
    def test_artifacts_cover_every_domain(self):
        ds = small_dataset()
        cfg = small_cfg()
        art = build_artifacts(ds, ("rivers", "forests"), cfg)
        assert art.domains == ("rivers", "forests")
        assert set(art.profiles) == {"rivers", "forests"}
        for d in art.domains:
            for ex in list(ds.train[d]) + list(ds.dev[d]):
                assert (d, ex.id) in art.annotations

    def test_domain_indicators_extracted(self):
        ds = small_dataset()
        art = build_artifacts(ds, ("rivers", "forests", "plains"), small_cfg())
        assert "delta" in [d.token for d in art.profiles["rivers"].drfs]
        assert "canopy" in [d.token for d in art.profiles["forests"].drfs]

    def test_held_out_domain_data_irrelevant(self):
        base = {
            "rivers": [("delta bright", "pos"), ("delta faded", "neg")],
            "forests": [("canopy bright", "pos"), ("canopy faded", "neg")],
        }
        a = make_dataset({**base, "plains": [("prairie bright", "pos")]})
        b = make_dataset({**base, "plains": [("entirely other words", "neg")]})
        cfg = small_cfg(k_drf=2, prompt_len=1)
        art_a = build_artifacts(a, ("rivers", "forests"), cfg)
        art_b = build_artifacts(b, ("rivers", "forests"), cfg)
        assert art_a.profiles == art_b.profiles
        assert art_a.vocab.id_to_token == art_b.vocab.id_to_token
        for token in art_a.vocab.id_to_token:
            assert np.array_equal(
                art_a.embeddings.vectors[token], art_b.embeddings.vectors[token]
            )


class TestPooledDev:
    def test_pooled_set_is_the_concatenation(self):
        ds = small_dataset()
        pooled = ds.dev_examples(("rivers", "forests"))
        assert len(pooled) == len(ds.dev["rivers"]) + len(ds.dev["forests"])
        assert [ex.domain for ex in pooled] == ["rivers"] * 2 + ["forests"] * 2

    def test_concatenated_score_differs_from_per_domain_average(self):
        # One domain with 1 positive, one with 3: pooling weights the
        # bigger domain, a per-domain mean would not.
        y_true_a, y_pred_a = ["pos"], ["neg"]
        y_true_b, y_pred_b = ["pos"] * 3, ["pos", "pos", "pos"]
        labels = ("neg", "pos")
        pooled = f1_binary(y_true_a + y_true_b, y_pred_a + y_pred_b, "pos", labels)
        averaged = (
            f1_binary(y_true_a, y_pred_a, "pos", labels)
            + f1_binary(y_true_b, y_pred_b, "pos", labels)
        ) / 2
        assert pooled != pytest.approx(averaged)


class TestExperimentReport:
    def make(self, **kw):
        base = dict(
            target="rivers", sources=("forests",), model="noda",
            target_f1=0.6, source_dev_f1=0.8, shift=0.2, seed=0,
            config_hash="x", log=(), best_epoch=0,
        )
        base.update(kw)
        return ExperimentReport(**base)

    def test_shift_identity_enforced(self):
        with pytest.raises(ValueError, match="shift"):
            self.make(shift=0.3)

    def test_scores_must_be_probabilities(self):
        with pytest.raises(ValueError, match="target_f1"):
            self.make(target_f1=1.2, shift=0.8 - 1.2)

    def test_to_dict_serializable(self):
        d = self.make().to_dict()
        json.dumps(d)
        assert d["sources"] == ["forests"]
        assert d["target_split"] == "test"


def cell_stub(f1, shift):
    return {"target_f1": f1, "shift": shift}


class TestRunReport:
    def test_rows_in_table_order_and_columns_in_name_order(self, tmp_path):
        cells = {(m, t): cell_stub(0.5, 0.1) for m in ("noda", "pada") for t in ("b", "a")}
        assert write_run_report(tmp_path, cells) == (["pada", "noda"], ["a", "b"])
        lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert lines[0].startswith("model,a_f1,a_shift,b_f1,b_shift,")
        assert [line.split(",")[0] for line in lines[1:]] == ["pada", "noda"]

    def test_missing_cell_named(self, tmp_path):
        cells = {(m, t): cell_stub(0.5, 0.1) for m in ("noda", "pada") for t in ("a", "b")}
        del cells[("noda", "b")]
        with pytest.raises(ValueError, match=r"'noda'.*'b'"):
            write_run_report(tmp_path / "out", cells)
        assert not (tmp_path / "out").exists()


class TestAggregateCsv:
    def cells(self):
        return {
            ("noda", "a"): cell_stub(0.5, 0.1),
            ("noda", "b"): cell_stub(0.7, -0.3),
            ("pada", "a"): cell_stub(0.6, 0.05),
            ("pada", "b"): cell_stub(0.8, 0.01),
        }

    def test_layout_and_means(self, tmp_path):
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, self.cells(), ["noda", "pada"], ["a", "b"])
        lines = path.read_text().splitlines()
        assert lines[0] == "model,a_f1,a_shift,b_f1,b_shift,mean_f1,mean_abs_shift"
        assert lines[1] == "noda,0.500000,0.100000,0.700000,-0.300000,0.600000,0.200000"
        assert lines[2].startswith("pada,0.600000,0.050000,0.800000,0.010000,0.700000,")

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_aggregate_csv(a, self.cells(), ["noda", "pada"], ["a", "b"])
        write_aggregate_csv(b, self.cells(), ["noda", "pada"], ["a", "b"])
        assert a.read_bytes() == b.read_bytes()


class TestShiftSvg:
    def test_darkest_cell_is_smallest_absolute_shift(self):
        cells = {
            ("noda", "a"): cell_stub(0.5, 0.30),
            ("pada", "a"): cell_stub(0.6, 0.05),
        }
        svg = render_shift_svg(cells, ["noda", "pada"], ["a"])
        # pada's |shift| is the column minimum: shade 64; noda the
        # maximum: shade 244.
        assert 'fill="rgb(64,64,64)"' in svg
        assert 'fill="rgb(244,244,244)"' in svg
        assert "+0.050" in svg and "+0.300" in svg

    def test_constant_column_uses_midpoint(self):
        cells = {
            ("noda", "a"): cell_stub(0.5, 0.2),
            ("pada", "a"): cell_stub(0.6, -0.2),
        }
        svg = render_shift_svg(cells, ["noda", "pada"], ["a"])
        assert svg.count('fill="rgb(154,154,154)"') == 2

    def test_deterministic_string(self):
        cells = {("noda", "a"): cell_stub(0.5, 0.1)}
        assert render_shift_svg(cells, ["noda"], ["a"]) == render_shift_svg(
            cells, ["noda"], ["a"]
        )


class TestRunSetting:
    def setting(self, ds, target="rivers"):
        sources = tuple(d for d in ds.domains if d != target)
        return LeaveOneOutSetting(target=target, sources=sources)

    def test_noda_report_shape(self):
        ds = small_dataset()
        cfg = small_cfg()
        report = run_setting(ds, self.setting(ds), "noda", cfg)
        assert report.model == "noda"
        assert report.target == "rivers"
        assert report.sources == ("forests", "plains")
        assert report.target_split == "test"
        assert report.shift == pytest.approx(report.source_dev_f1 - report.target_f1)
        assert report.config_hash == cfg.config_hash(ds.label_set, ds.positive_class)
        assert report.log

    def test_same_seed_is_deterministic(self):
        ds = small_dataset()
        cfg = small_cfg()
        a = run_setting(ds, self.setting(ds), "noda", cfg)
        b = run_setting(ds, self.setting(ds), "noda", cfg)
        assert a == b

    def test_pada_and_nc_share_one_training_run(self):
        ds = small_dataset()
        cfg = small_cfg()
        setting = self.setting(ds)
        art = build_artifacts(ds, setting.sources, cfg)
        cache: dict = {}
        pada = train_variant(ds, setting, "pada", art, cfg, 0, cache)
        nc = train_variant(ds, setting, "pada-nc", art, cfg, 0, cache)
        assert nc.params is pada.params
        assert nc.model == "pada-nc"

    def test_ub_scores_on_target_dev(self):
        ds = small_dataset()
        cfg = small_cfg()
        report = run_setting(ds, self.setting(ds), "ub", cfg)
        assert report.target_split == "dev"

    def test_unknown_model_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="unknown model"):
            run_setting(ds, self.setting(ds), "fancy", small_cfg())

    def test_artifacts_must_cover_the_training_domains(self):
        ds = small_dataset()
        cfg = small_cfg()
        setting = self.setting(ds)
        art = build_artifacts(ds, setting.sources, cfg)
        with pytest.raises(ValueError, match="ub trains on"):
            train_variant(ds, setting, "ub", art, cfg, 0)


class TestRunLoo:
    def test_grid_outputs_and_reproducibility(self, tmp_path):
        ds = small_dataset()
        cfg = small_cfg()
        cells = run_loo(ds, ["noda"], cfg, tmp_path / "r1")
        assert set(cells) == {("noda", d) for d in ds.domains}
        agg = (tmp_path / "r1" / "aggregate.csv").read_bytes()
        svg = (tmp_path / "r1" / "shifts.svg").read_bytes()
        for d in ds.domains:
            assert (tmp_path / "r1" / "cells" / f"noda__{d}.json").exists()

        run_loo(ds, ["noda"], cfg, tmp_path / "r2")
        assert (tmp_path / "r2" / "aggregate.csv").read_bytes() == agg
        assert (tmp_path / "r2" / "shifts.svg").read_bytes() == svg

    def test_cell_json_schema(self, tmp_path):
        ds = small_dataset()
        run_loo(ds, ["noda"], small_cfg(), tmp_path)
        data = json.loads((tmp_path / "cells" / "noda__rivers.json").read_text())
        assert {
            "model", "target", "sources", "target_f1", "source_dev_f1", "shift",
            "target_f1_sd", "shift_sd", "seeds", "config_hash", "reports",
        } <= set(data)
        assert data["model"] == "noda"
        assert data["seeds"] == [0]

    def test_multi_seed_statistics(self, tmp_path):
        ds = small_dataset()
        cells = run_loo(ds, ["noda"], small_cfg(), tmp_path, seeds=[0, 1])
        cell = cells[("noda", "rivers")]
        f1s = [r["target_f1"] for r in cell["reports"]]
        assert cell["seeds"] == [0, 1]
        assert cell["target_f1"] == pytest.approx(sum(f1s) / 2)

    def test_candidate_count_never_changes_a_result(self, tmp_path):
        # pada uses each example's best candidate alone, so how many
        # candidates a config asks for changes no F1 and no shift. The
        # grid is trained long enough that its prompts move the scores.
        ds = small_dataset(n=12)
        for n in (1, 5):
            cfg = small_cfg(num_candidates=n, epochs=4, lr=1e-2, beam_size=10, num_groups=5)
            run_loo(ds, ["pada", "pada-nc"], cfg, tmp_path / str(n))
        agg = (tmp_path / "1" / "aggregate.csv").read_bytes()
        assert agg == (tmp_path / "5" / "aggregate.csv").read_bytes()
        assert any(float(v) for v in agg.decode().splitlines()[1].split(",")[1:])

    def test_training_runs_are_shared_as_before(self, tmp_path, monkeypatch):
        """pada and pada-nc share one run per (setting, seed), the upper
        bound trains once per seed for every setting, and no other run
        is shared."""
        runs = collections.Counter()
        real = training.train

        def counting(model_cfg, vocab, label_set, pairs, cfg, eval_fn, prompt_style="drf"):
            kind = prompt_style if cfg.alpha > 0 else "bare"
            runs[kind, len({ex.domain for ex, _ in pairs})] += 1
            return real(model_cfg, vocab, label_set, pairs, cfg, eval_fn, prompt_style)

        monkeypatch.setattr("pada_lab.harness.train", counting)
        monkeypatch.setattr("pada_lab.baselines.train", counting)
        run_loo(small_dataset(), MODEL_NAMES, small_cfg(), tmp_path, seeds=[0, 1])
        assert runs == {
            ("drf", 2): 6,  # pada and pada-nc: 3 settings x 2 seeds
            ("name", 2): 6,  # pada-dn
            ("bare", 2): 6,  # noda
            ("bare", 1): 12,  # moe: one expert per source
            ("bare", 3): 2,  # ub: one per seed
        }

    def test_unknown_model_listed(self, tmp_path):
        with pytest.raises(ValueError, match="fancy"):
            run_loo(small_dataset(), ["fancy"], small_cfg(), tmp_path)

    def test_duplicate_models_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            run_loo(small_dataset(), ["noda", "noda"], small_cfg(), tmp_path)

    def test_duplicate_seeds_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match=r"duplicate seeds in \[1, 1\]"):
            run_loo(small_dataset(), ["noda"], small_cfg(), tmp_path / "run", seeds=[1, 1])
        assert not (tmp_path / "run").exists()

    def test_binary_metric_without_positive_class_writes_nothing(self, tmp_path):
        ds = replace(small_dataset(), positive_class=None)
        with pytest.raises(ValueError, match="positive class"):
            run_loo(ds, ["noda"], small_cfg(task_metric="binary"), tmp_path / "run")
        assert not (tmp_path / "run").exists()


class TestGridSearchAlpha:
    def scripted(self, monkeypatch, table):
        def fake_train(dataset, setting, model, artifacts, cfg, seed, cache=None):
            assert model == "pada"
            return TrainedVariant(
                model=model, model_cfg=None, vocab=artifacts.vocab,
                label_set=("neg", "pos"), positive_class="pos",
                sources=tuple(setting.sources), best_dev=table[cfg.alpha],
            )

        monkeypatch.setattr("pada_lab.harness.train_variant", fake_train)

    def test_best_by_dev_score(self, monkeypatch):
        self.scripted(monkeypatch, {0.1: 0.5, 0.5: 0.8, 0.9: 0.6})
        best, scores = grid_search_alpha(small_dataset(), [0.1, 0.5, 0.9], small_cfg())
        assert best == 0.5
        assert scores == {0.1: 0.5, 0.5: 0.8, 0.9: 0.6}

    def test_tie_takes_smaller_alpha(self, monkeypatch):
        self.scripted(monkeypatch, {0.1: 0.7, 0.5: 0.7, 0.9: 0.2})
        best, _ = grid_search_alpha(small_dataset(), [0.9, 0.5, 0.1], small_cfg())
        assert best == 0.1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            grid_search_alpha(small_dataset(), [], small_cfg())


def assert_same_params(got, want):
    """Same names, and every tensor the same dtype and bytes."""
    assert got.keys() == want.keys()
    for k in want:
        assert got[k].dtype == want[k].dtype, k
        assert got[k].tobytes() == want[k].tobytes(), k


class TestModelDirs:
    def trained(self, ds, model="noda"):
        cfg = small_cfg()
        setting = LeaveOneOutSetting(target="rivers", sources=("forests", "plains"))
        art = build_artifacts(ds, setting.sources, cfg)
        trained = train_variant(ds, setting, model, art, cfg, 0)
        return trained, cfg, art

    def test_round_trip_single_checkpoint(self, tmp_path):
        ds = small_dataset()
        trained, cfg, art = self.trained(ds)
        save_model_dir(tmp_path, trained, cfg, artifacts=art)
        assert (tmp_path / "checkpoint.bin").exists()
        assert (tmp_path / "profiles" / "forests.json").exists()
        assert (tmp_path / "profiles" / "embeddings.txt").exists()

        loaded, loaded_cfg = load_model_dir(tmp_path)
        assert loaded_cfg == cfg
        assert loaded.model == "noda"
        assert loaded.label_set == trained.label_set
        assert loaded.vocab.id_to_token == trained.vocab.id_to_token
        assert_same_params(loaded.params, trained.params)

    def test_round_trip_expert_ensemble(self, tmp_path):
        ds = small_dataset()
        trained, cfg, _ = self.trained(ds, model="moe")
        save_model_dir(tmp_path, trained, cfg)
        assert (tmp_path / "experts" / "forests.bin").exists()
        assert (tmp_path / "experts" / "plains.bin").exists()
        loaded, _ = load_model_dir(tmp_path)
        assert loaded.ensemble is not None
        assert loaded.ensemble.domains == ("forests", "plains")
        assert loaded.ensemble.model_cfg == trained.ensemble.model_cfg
        for d in loaded.ensemble.domains:
            assert_same_params(loaded.ensemble.params_by_domain[d],
                               trained.ensemble.params_by_domain[d])

    def test_expert_ensemble_predicts_the_same_bits_after_a_round_trip(self, tmp_path):
        # the manifest keeps the sources' order, which is not name order
        ds = small_dataset(domains=("meadows", "rivers", "forests", "plains"))
        cfg = small_cfg()
        setting = LeaveOneOutSetting(target="meadows", sources=("rivers", "forests", "plains"))
        trained = train_variant(
            ds, setting, "moe", build_artifacts(ds, setting.sources, cfg), cfg, 0)
        save_model_dir(tmp_path, trained, cfg)
        loaded, _ = load_model_dir(tmp_path)
        assert loaded.ensemble.domains == setting.sources != trained.ensemble.domains
        examples = ds.dev["meadows"] + ds.dev["rivers"]
        assert np.array_equal(moe_predict_many(loaded.ensemble, loaded.vocab, examples),
                              moe_predict_many(trained.ensemble, trained.vocab, examples))

    @pytest.mark.parametrize("damage,message", [
        ("vocab", r"vocab\.json: \d+ tokens, .*experts/forests\.bin has vocab_size"),
        ("labels", r"manifest\.json: 3 labels, .*experts/forests\.bin has 2 classes"),
        ("config", r"experts/plains\.bin: config differs from forests\.bin's"),
    ])
    def test_every_expert_must_fit_the_dir(self, tmp_path, damage, message):
        trained, cfg, _ = self.trained(small_dataset(), model="moe")
        save_model_dir(tmp_path, trained, cfg)
        if damage == "config":
            # a wider expert, as if copied from another run
            wide = replace(trained.ensemble.model_cfg, d_ffn=2 * trained.ensemble.model_cfg.d_ffn)
            save_checkpoint(tmp_path / "experts" / "plains.bin", wide, init_params(wide))
        elif damage == "vocab":
            path = tmp_path / "vocab.json"
            tokens = json.loads(path.read_text())["tokens"]
            path.write_text(json.dumps({"tokens": tokens[:-1]}))
        else:
            path = tmp_path / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["label_set"].append("extra")
            path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=message):
            load_model_dir(tmp_path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_model_dir(tmp_path)

    def test_unknown_config_key_rejected(self, tmp_path):
        ds = small_dataset()
        trained, cfg, _ = self.trained(ds)
        save_model_dir(tmp_path, trained, cfg)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["threads"] = 2
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json: config: unknown key 'threads'"):
            load_model_dir(tmp_path)

    def edited_manifest(self, tmp_path, edit, task_metric="macro"):
        trained, cfg, _ = self.trained(small_dataset())
        save_model_dir(tmp_path, trained, replace(cfg, task_metric=task_metric))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["config"])
        path.write_text(json.dumps(manifest))
        return manifest

    @pytest.mark.parametrize("value,message", [
        (5, "task_metric must be str, got 5"),
        ("bogus", "unknown task metric 'bogus'"),
    ])
    def test_bad_task_metric_rejected(self, tmp_path, value, message):
        self.edited_manifest(tmp_path, lambda c: c.update(task_metric=value))
        with pytest.raises(ValueError, match=rf"manifest\.json: config: .*{message}"):
            load_model_dir(tmp_path)

    def test_manifest_without_task_metric_loads_as_auto(self, tmp_path):
        manifest = self.edited_manifest(tmp_path, lambda c: c.pop("task_metric"), "auto")
        _, cfg = load_model_dir(tmp_path)
        assert cfg.task_metric == "auto"
        assert cfg == ExperimentConfig(**manifest["config"])
        # a model trained under another metric does not load as auto:
        # its stored hash names the metric it was trained with
        self.edited_manifest(tmp_path, lambda c: c.pop("task_metric"), "macro")
        with pytest.raises(ValueError, match=r"manifest\.json: config_hash .* does not match"):
            load_model_dir(tmp_path)

    def test_manifest_records_the_run_hash(self, tmp_path):
        trained, cfg, _ = self.trained(small_dataset())
        save_model_dir(tmp_path, trained, cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        loaded, loaded_cfg = load_model_dir(tmp_path)
        assert manifest["config_hash"] == cfg.config_hash(trained.label_set, trained.positive_class)
        assert manifest["config_hash"] == loaded_cfg.config_hash(
            loaded.label_set, loaded.positive_class)


class TestReferenceNumbers:
    def test_model_name_registry(self):
        assert set(MODEL_NAMES) == {"pada", "pada-nc", "pada-dn", "noda", "moe", "ub"}


class TestProbsToLabels:
    def test_argmax_with_declared_order(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        assert probs_to_labels(probs, ("neg", "pos")) == ["neg", "pos", "neg"]
