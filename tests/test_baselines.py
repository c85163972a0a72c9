import itertools

import numpy as np
import pytest

from pada_lab.baselines import (
    ExpertEnsemble,
    argmax_class,
    classify_many,
    dn_predict_many,
    moe_predict_many,
    name_prompt_ids,
    train_classifier_only,
    train_experts,
)
from pada_lab.corpus import Example, Vocabulary
from pada_lab.model import ModelConfig, init_params
from pada_lab.training import TrainConfig, train

VOCAB = Vocabulary.from_tokens(["rivers", "lakes", "delta", "flow", "stone", "mud"])
LABELS = ("neg", "pos")


def tiny_model(**kw):
    base = dict(
        vocab_size=len(VOCAB), n_classes=2, d_model=8, n_layers=1, n_heads=2,
        d_ffn=8, max_input_len=24, max_output_len=8, conv_filters=3, conv_width=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def examples(domain, n=6):
    out = []
    for i in range(n):
        label = "pos" if i % 2 else "neg"
        word = "delta" if label == "pos" else "stone"
        out.append(Example(id=f"{domain}-{i}", text=f"{word} flow mud", label=label, domain=domain))
    return out


class TestArgmax:
    def test_plain_argmax(self):
        assert argmax_class(np.array([0.2, 0.7, 0.1])) == 1

    def test_tie_goes_to_lowest_id(self):
        assert argmax_class(np.array([0.4, 0.4, 0.2])) == 0
        assert argmax_class(np.array([0.3, 0.35, 0.35])) == 1


class TestClassifyMany:
    def setup_method(self):
        self.cfg = tiny_model()
        self.params = init_params(self.cfg)

    def test_rows_are_distributions(self):
        probs = classify_many(self.cfg, self.params, VOCAB, examples("d", 5))
        assert probs.shape == (5, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_batching_does_not_change_rows(self):
        exs = examples("d", 7)
        small = classify_many(self.cfg, self.params, VOCAB, exs, batch_size=2)
        big = classify_many(self.cfg, self.params, VOCAB, exs, batch_size=7)
        assert np.allclose(small, big, atol=1e-10)

    def test_prompts_change_the_input(self):
        exs = examples("d", 3)
        bare = classify_many(self.cfg, self.params, VOCAB, exs)
        prompted = classify_many(
            self.cfg, self.params, VOCAB, exs, prompts=[(VOCAB.id_of("rivers"),)] * 3
        )
        assert not np.allclose(bare, prompted)

    def test_prompt_count_mismatch(self):
        with pytest.raises(ValueError, match="per example"):
            classify_many(self.cfg, self.params, VOCAB, examples("d", 3), prompts=[(7,)])

    def test_classify_text_matches_row(self):
        exs = examples("d", 3)
        rows = classify_many(self.cfg, self.params, VOCAB, exs)
        got = classify_many(self.cfg, self.params, VOCAB, exs[:1])
        assert np.allclose(got[0], rows[0], atol=1e-12)


class TestTrainClassifierOnly:
    def test_matches_mixture_at_alpha_zero(self):
        cfg = tiny_model()
        tc = TrainConfig(alpha=0.7, epochs=2, batch_size=4, lr=1e-3, patience=9, seed=3)
        exs = examples("d", 8)
        a = train_classifier_only(cfg, VOCAB, LABELS, exs, tc, lambda p: 0.0)
        b = train(
            cfg, VOCAB, LABELS, [(e, None) for e in exs],
            TrainConfig(alpha=0.0, epochs=2, batch_size=4, lr=1e-3, patience=9, seed=3),
            lambda p: 0.0,
        )
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k]), k


class TestEnsemble:
    def test_missing_expert_params_rejected(self):
        cfg = tiny_model()
        with pytest.raises(ValueError, match="rivers"):
            ExpertEnsemble(model_cfg=cfg, domains=("rivers",), params_by_domain={})

    def test_mean_of_frozen_probability_tables(self, monkeypatch):
        cfg = tiny_model()
        ens = ExpertEnsemble(
            model_cfg=cfg,
            domains=("a", "b"),
            params_by_domain={"a": {"tag": np.zeros(1)}, "b": {"tag": np.ones(1)}},
        )
        tables = {
            0.0: np.array([[0.6, 0.4], [0.9, 0.1]]),
            1.0: np.array([[0.2, 0.8], [0.1, 0.9]]),
        }

        def fake_classify_many(model_cfg, params, vocab, exs, prompts=None, batch_size=16):
            return tables[float(params["tag"][0])]

        monkeypatch.setattr("pada_lab.baselines.classify_many", fake_classify_many)
        got = moe_predict_many(ens, VOCAB, examples("d", 2))
        assert np.allclose(got, [[0.4, 0.6], [0.5, 0.5]])
        assert argmax_class(got[0]) == 1
        assert argmax_class(got[1]) == 0

    def test_expert_order_does_not_matter(self):
        # three experts, so a mean in another order would round differently
        cfg = tiny_model()
        params = {d: init_params(tiny_model(seed=s)) for s, d in enumerate("abc", start=3)}
        exs = examples("d", 8)
        fwd = moe_predict_many(ExpertEnsemble(cfg, ("a", "b", "c"), params), VOCAB, exs)
        for order in itertools.permutations("abc"):
            assert np.array_equal(
                moe_predict_many(ExpertEnsemble(cfg, order, params), VOCAB, exs), fwd), order

    def test_single_expert_is_identity(self):
        cfg = tiny_model()
        p = init_params(cfg)
        exs = examples("d", 4)
        ens = ExpertEnsemble(cfg, ("only",), {"only": p})
        assert np.allclose(
            moe_predict_many(ens, VOCAB, exs),
            classify_many(cfg, p, VOCAB, exs),
            atol=1e-12,
        )

    def test_moe_predict_is_first_row(self):
        cfg = tiny_model()
        ens = ExpertEnsemble(cfg, ("only",), {"only": init_params(cfg)})
        exs = examples("d", 3)
        assert np.allclose(moe_predict_many(ens, VOCAB, exs[:1])[0], moe_predict_many(ens, VOCAB, exs)[0])

    def test_train_experts_one_per_domain(self):
        cfg = tiny_model()
        tc = TrainConfig(alpha=0.0, epochs=1, batch_size=4, lr=1e-3, seed=0)
        by_domain = {"rivers": examples("rivers", 4), "lakes": examples("lakes", 4)}
        calls = []

        def eval_fn_for(domain):
            def eval_fn(params):
                calls.append(domain)
                return 0.5
            return eval_fn

        ensemble, results = train_experts(cfg, VOCAB, LABELS, by_domain, tc, eval_fn_for)
        assert ensemble.domains == ("lakes", "rivers")
        assert set(results) == {"rivers", "lakes"}
        # Each expert's early stopping consults its own dev callback.
        assert set(calls) == {"rivers", "lakes"}


class TestNamePrompting:
    def test_name_prompt_is_the_domain_token(self):
        assert name_prompt_ids(VOCAB, "rivers") == (VOCAB.id_of("rivers"),)

    def test_average_over_source_names(self):
        cfg = tiny_model()
        p = init_params(cfg)
        exs = examples("d", 3)
        got = dn_predict_many(cfg, p, VOCAB, exs, ["rivers", "lakes"])
        per_name = [
            classify_many(cfg, p, VOCAB, exs, prompts=[name_prompt_ids(VOCAB, d)] * 3)
            for d in ("lakes", "rivers")
        ]
        assert np.allclose(got, np.mean(per_name, axis=0), atol=1e-12)

    def test_source_order_does_not_matter(self):
        cfg = tiny_model()
        p = init_params(cfg)
        exs = examples("d", 3)
        a = dn_predict_many(cfg, p, VOCAB, exs, ["rivers", "lakes"])
        b = dn_predict_many(cfg, p, VOCAB, exs, ["lakes", "rivers"])
        assert np.allclose(a, b, atol=1e-12)

    def test_needs_at_least_one_source(self):
        cfg = tiny_model()
        with pytest.raises(ValueError, match="source"):
            dn_predict_many(cfg, init_params(cfg), VOCAB, examples("d", 2), [])
