import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pada_lab.corpus import (
    BOS,
    DOMAIN_PREFIX,
    EOS,
    PAD,
    SEP,
    SEP_TOKEN,
    SPECIAL_TOKENS,
    UNK,
    Example,
    IngestSchema,
    MultiDomainDataset,
    SyntheticSpec,
    Vocabulary,
    build_vocabulary,
    domain_token,
    generate_synthetic,
    ingest_jsonl,
    load_vocab,
    make_loo_settings,
    save_vocab,
    tokenize,
    write_jsonl,
)
from tests.conftest import BAD_RECORDS, UNSAFE_DOMAINS, make_dataset


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("Hello, World!!  twice") == ["hello", "world", "twice"]

    def test_separator_marker_survives_as_one_token(self):
        assert tokenize(f"left part {SEP_TOKEN} right") == ["left", "part", SEP_TOKEN, "right"]

    def test_no_alphanumerics_gives_empty(self):
        assert tokenize("!!! --- ...") == []

    def test_digits_kept(self):
        assert tokenize("route 66 open") == ["route", "66", "open"]

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_rejoining_tokens_is_a_fixed_point(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestExample:
    def test_tokens_are_the_tokenized_text(self):
        ex = Example(id="e", text=f"Left, part {SEP_TOKEN} right", label="pos", domain="d")
        assert ex.tokens == tuple(tokenize(ex.text))

    def test_tokens_take_no_part_in_equality_or_repr(self):
        a = Example(id="e", text="alpha beta", label="pos", domain="d")
        b = Example(id="e", text="alpha beta", label="pos", domain="d")
        assert a == b and hash(a) == hash(b)
        assert "tokens" not in repr(a)

    def test_replace_retokenizes(self):
        a = Example(id="e", text="alpha beta", label="pos", domain="d")
        assert replace(a, text="gamma").tokens == ("gamma",)


class TestVocabulary:
    def test_special_ids_occupy_first_six(self):
        v = Vocabulary.from_tokens(["alpha", "beta"])
        assert (PAD, UNK, BOS, EOS, SEP, DOMAIN_PREFIX) == (0, 1, 2, 3, 4, 5)
        assert v.id_to_token[:6] == SPECIAL_TOKENS
        assert v.id_of("alpha") == 6

    def test_unknown_token_maps_to_unk(self):
        v = Vocabulary.from_tokens(["alpha"])
        assert v.id_of("missing") == UNK

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary.from_tokens(["alpha", "alpha"])

    def test_encode_decode_round_trip(self):
        v = Vocabulary.from_tokens(["alpha", "beta"])
        ids = v.encode_tokens(tokenize(f"beta {SEP_TOKEN} alpha"))
        assert [v.id_to_token[i] for i in ids] == ["beta", SEP_TOKEN, "alpha"]

    def test_save_load_round_trip(self, tmp_path):
        v = Vocabulary.from_tokens(["zeta", "alpha", "beta"])
        save_vocab(tmp_path / "v.json", v)
        assert load_vocab(tmp_path / "v.json") == v


class TestBuildVocabulary:
    def test_frequency_then_lexicographic_order(self, two_domain_dataset):
        v = build_vocabulary(two_domain_dataset, ["rivers"])
        # delta appears 5x in rivers training text; current 2x; rest 1x.
        non_special = list(v.id_to_token[6:])
        assert non_special[0] == "delta"
        assert non_special[1] == "current"
        singles = non_special[2 : non_special.index(domain_token("rivers"))]
        assert singles == sorted(singles)

    def test_source_only_and_domain_names_appended(self, two_domain_dataset):
        v = build_vocabulary(two_domain_dataset, ["rivers"])
        assert "canopy" not in v.token_to_id  # forests text excluded
        assert "rivers" in v.token_to_id  # name appended even if absent from text


class TestDatasetValidation:
    def test_duplicate_domain_rejected(self):
        ex = Example(id="a", text="tok", label="pos", domain="d")
        with pytest.raises(ValueError):
            MultiDomainDataset(
                domains=["d", "d"], train={"d": [ex]}, dev={"d": []}, test={},
                label_set=["neg", "pos"], positive_class="pos",
            )

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            make_dataset({"d": [("tok", "maybe")]})

    def test_example_filed_under_wrong_domain_rejected(self):
        stray = Example(id="x", text="tok", label="pos", domain="other")
        with pytest.raises(ValueError):
            MultiDomainDataset(
                domains=["d"], train={"d": [stray]}, dev={"d": []}, test={},
                label_set=["neg", "pos"], positive_class="pos",
            )

    def test_text_empty_after_tokenization_rejected(self):
        with pytest.raises(ValueError):
            make_dataset({"d": [("...", "pos")]})

    def test_duplicate_ids_within_domain_rejected(self):
        a = Example(id="same", text="tok", label="pos", domain="d")
        b = Example(id="same", text="kot", label="neg", domain="d")
        with pytest.raises(ValueError):
            MultiDomainDataset(
                domains=["d"], train={"d": [a]}, dev={"d": [b]}, test={},
                label_set=["neg", "pos"], positive_class="pos",
            )

    @pytest.mark.parametrize("name", UNSAFE_DOMAINS)
    def test_domain_that_cannot_name_a_file_rejected(self, name):
        with pytest.raises(ValueError, match=f"dataset: domain {re.escape(repr(name))}"):
            make_dataset({"d": [("tok", "pos")], name: [("kot", "neg")]})

    @pytest.mark.parametrize("name", ["a.b", "...", ".hidden", "two words", "d-2_x"])
    def test_other_domain_names_accepted(self, name):
        assert make_dataset({name: [("tok", "pos")]}).domains == [name]

    def test_target_test_examples_falls_back_to_all_splits(self, two_domain_dataset):
        got = two_domain_dataset.target_test_examples("forests")
        assert len(got) == 3  # 2 train + 1 dev, no test split


class TestLeaveOneOutSettings:
    def test_each_domain_targeted_once(self, two_domain_dataset):
        settings_ = make_loo_settings(two_domain_dataset)
        assert [s.target for s in settings_] == ["rivers", "forests"]
        assert settings_[0].sources == ("forests",)

    def test_single_domain_rejected(self):
        with pytest.raises(ValueError):
            make_loo_settings(make_dataset({"only": [("tok", "pos")]}))


class TestIngest:
    def write(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        return p

    def test_groups_by_domain(self, tmp_path):
        p = self.write(tmp_path, [
            {"text": "a b", "label": "x", "domain": "d1"},
            {"text": "c d", "label": "y", "domain": "d2"},
            {"text": "e f", "label": "x", "domain": "d1"},
        ])
        ds = ingest_jsonl(p)
        assert ds.domains == ["d1", "d2"]
        totals = {d: len(ds.train[d]) + len(ds.dev[d]) for d in ds.domains}
        assert totals == {"d1": 2, "d2": 1}

    def test_pair_records_joined_with_one_separator(self, tmp_path):
        p = self.write(tmp_path, [
            {"premise": "it rains", "hypothesis": "ground wet", "label": "e", "domain": "d"},
        ])
        ds = ingest_jsonl(p)
        ex = (ds.train["d"] + ds.dev["d"])[0]
        assert tokenize(ex.text).count(SEP_TOKEN) == 1

    @pytest.mark.parametrize("name", UNSAFE_DOMAINS)
    def test_domain_that_cannot_name_a_file_names_its_line(self, tmp_path, name):
        p = self.write(tmp_path, [
            {"text": "a b", "label": "x", "domain": "d1"},
            {"text": "c d", "label": "y", "domain": name},
        ])
        with pytest.raises(ValueError, match=f"line 2: domain {re.escape(repr(name))}"):
            ingest_jsonl(p)

    def test_malformed_line_error_names_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"text": "ok", "label": "x", "domain": "d"}\n{oops\n')
        with pytest.raises(ValueError, match="line 2"):
            ingest_jsonl(p)

    @pytest.mark.parametrize("edit,named", BAD_RECORDS)
    def test_bad_record_names_line_and_field(self, tmp_path, edit, named):
        good = {"text": "a b", "label": "x", "domain": "d"}
        with pytest.raises(ValueError, match=f"^line 2: {named}"):
            ingest_jsonl(self.write(tmp_path, [good, edit(good)]))

    def test_integer_label_and_id_accepted(self, tmp_path):
        ds = ingest_jsonl(self.write(tmp_path, [{"text": "a b", "label": 1, "domain": "d", "id": 7}]))
        assert ds.label_set == ["1"]
        assert (ds.train["d"] + ds.dev["d"])[0].id == "7"

    def test_label_outside_declared_set_lists_it(self, tmp_path):
        p = self.write(tmp_path, [{"text": "a", "label": "zzz", "domain": "d"}])
        with pytest.raises(ValueError, match="x.*y|\\['x', 'y'\\]"):
            ingest_jsonl(p, IngestSchema(labels=("x", "y")))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_jsonl(p)

    def test_explicit_split_field_respected(self, tmp_path):
        p = self.write(tmp_path, [
            {"text": "a", "label": "x", "domain": "d", "split": "dev"},
            {"text": "b", "label": "x", "domain": "d", "split": "train"},
            {"text": "c", "label": "x", "domain": "d", "split": "test"},
        ])
        ds = ingest_jsonl(p, IngestSchema(labels=("x",)))
        assert [len(ds.train["d"]), len(ds.dev["d"]), len(ds.test["d"])] == [1, 1, 1]

    def test_default_split_is_four_to_one_in_file_order(self, tmp_path):
        recs = [{"text": f"tok{i}", "label": "x", "domain": "d", "id": str(i)} for i in range(10)]
        ds = ingest_jsonl(self.write(tmp_path, recs), IngestSchema(labels=("x",)))
        assert [ex.id for ex in ds.train["d"]] == [str(i) for i in range(8)]
        assert [ex.id for ex in ds.dev["d"]] == ["8", "9"]

    def test_field_remapping(self, tmp_path):
        p = self.write(tmp_path, [{"body": "a b", "tag": "x", "src": "d"}])
        schema = IngestSchema(text="body", label="tag", domain="src", labels=("x",))
        ds = ingest_jsonl(p, schema)
        assert (ds.train["d"] + ds.dev["d"])[0].label == "x"

    def test_write_then_ingest_round_trip(self, tmp_path, two_domain_dataset):
        path = tmp_path / "rt.jsonl"
        write_jsonl(two_domain_dataset, path)
        back = ingest_jsonl(
            path, IngestSchema(labels=("neg", "pos"), positive_class="pos")
        )
        assert back.domains == two_domain_dataset.domains
        for d in back.domains:
            assert [ex.text for ex in back.train[d]] == [
                ex.text for ex in two_domain_dataset.train[d]
            ]
            assert [ex.label for ex in back.dev[d]] == [
                ex.label for ex in two_domain_dataset.dev[d]
            ]

    def test_write_is_deterministic(self, tmp_path, two_domain_dataset):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(two_domain_dataset, a)
        write_jsonl(two_domain_dataset, b)
        assert a.read_bytes() == b.read_bytes()


class TestSyntheticGenerator:
    def test_default_shape(self):
        ds = generate_synthetic()
        assert len(ds.domains) == 4
        for d in ds.domains:
            assert len(ds.train[d]) == 120
            assert len(ds.dev[d]) == 30
        assert ds.label_set == ["neg", "pos"]
        assert ds.positive_class == "pos"

    def test_same_seed_reproduces(self):
        a = generate_synthetic(SyntheticSpec(examples_per_domain=20))
        b = generate_synthetic(SyntheticSpec(examples_per_domain=20))
        for d in a.domains:
            assert [ex.text for ex in a.train[d]] == [ex.text for ex in b.train[d]]

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticSpec(examples_per_domain=20, seed=1))
        b = generate_synthetic(SyntheticSpec(examples_per_domain=20, seed=2))
        assert any(
            [ex.text for ex in a.train[d]] != [ex.text for ex in b.train[d]]
            for d in a.domains
        )

    def test_domain_pools_are_disjoint(self):
        ds = generate_synthetic(SyntheticSpec(examples_per_domain=30))
        for d in ds.domains:
            for ex in ds.train[d] + ds.dev[d]:
                for tok in tokenize(ex.text):
                    for other in ds.domains:
                        if other != d:
                            assert not tok.startswith(other)

    @staticmethod
    def _polarity_counts(text):
        toks = tokenize(text)
        n_pos = sum(1 for t in toks if t.startswith("good"))
        n_neg = sum(1 for t in toks if t.startswith("bad"))
        return n_pos, n_neg

    def test_shortcut_rule_label_matches_task_majority_and_indicative_half(self):
        spec = SyntheticSpec(
            examples_per_domain=50, label_rule="shortcut", indicative_noise=0.0
        )
        ds = generate_synthetic(spec)
        half = spec.indicative_pool // 2
        for d in ds.domains:
            for ex in ds.train[d] + ds.dev[d]:
                n_pos, n_neg = self._polarity_counts(ex.text)
                assert (n_pos > n_neg) == (ex.label == "pos")
                for tok in tokenize(ex.text):
                    if tok.startswith(d) and tok != d:
                        j = int(tok[len(d):])
                        assert (j < half) == (ex.label == "pos")

    def test_indicative_noise_flips_a_minority_without_touching_labels(self):
        spec = SyntheticSpec()  # default noise 0.25
        ds = generate_synthetic(spec)
        half = spec.indicative_pool // 2
        crossed = total = 0
        for d in ds.domains:
            for ex in ds.train[d] + ds.dev[d]:
                n_pos, n_neg = self._polarity_counts(ex.text)
                # labels stay a fixed function of the task tokens
                assert (n_pos > n_neg) == (ex.label == "pos")
                for tok in tokenize(ex.text):
                    if tok.startswith(d) and tok != d:
                        total += 1
                        j = int(tok[len(d):])
                        if (j < half) != (ex.label == "pos"):
                            crossed += 1
        # binomial(600, 0.25) stays inside +-4 sigma of the mean
        assert 0.18 < crossed / total < 0.32

    def test_task_counts_are_a_minimal_majority(self):
        spec = SyntheticSpec(examples_per_domain=40)
        ds = generate_synthetic(spec)
        majority = spec.n_task // 2 + 1
        for d in ds.domains:
            for ex in ds.train[d] + ds.dev[d]:
                n_pos, n_neg = self._polarity_counts(ex.text)
                assert n_pos + n_neg == spec.n_task
                want = majority if ex.label == "pos" else spec.n_task - majority
                assert n_pos == want

    def test_fillers_appear_in_every_example(self):
        spec = SyntheticSpec(examples_per_domain=10)
        ds = generate_synthetic(spec)
        fillers = {f"misc{j}" for j in range(spec.filler_pool)}
        assert spec.n_filler == spec.filler_pool
        for d in ds.domains:
            for ex in ds.train[d] + ds.dev[d]:
                assert fillers <= set(tokenize(ex.text))

    def test_task_rule_keeps_indicative_uninformative(self):
        spec = SyntheticSpec(examples_per_domain=200, label_rule="task", seed=3)
        ds = generate_synthetic(spec)
        half = spec.indicative_pool // 2
        crossed = 0
        for ex in ds.train["aurora"]:
            n_pos, n_neg = self._polarity_counts(ex.text)
            assert (n_pos > n_neg) == (ex.label == "pos")
            for tok in tokenize(ex.text):
                if tok.startswith("aurora"):
                    j = int(tok[len("aurora"):])
                    if (j < half) != (ex.label == "pos"):
                        crossed += 1
        assert crossed > 0  # indicative half no longer tracks the label

    def test_parity_rule_label_from_indicative_indices(self):
        spec = SyntheticSpec(examples_per_domain=50, label_rule="parity")
        ds = generate_synthetic(spec)
        for d in ds.domains:
            for ex in ds.train[d] + ds.dev[d]:
                idx_sum = sum(
                    int(t[len(d):]) for t in tokenize(ex.text) if t.startswith(d)
                )
                assert (idx_sum % 2 == 0) == (ex.label == "pos")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(label_rule="bogus"))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(indicative_pool=7))
        with pytest.raises(ValueError):
            # majority of 11 cannot fit a one-stride slice of width 3
            generate_synthetic(SyntheticSpec(n_task=20, task_pool=24, slice_strides=1))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(slice_strides=0))
