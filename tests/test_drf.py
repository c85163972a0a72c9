import json
import math
from collections import Counter

import numpy as np
import pytest

from pada_lab.corpus import Example, Vocabulary, build_vocabulary
from pada_lab.drf import (
    DomainProfile,
    DrfScore,
    EmbeddingTable,
    annotate_prompt,
    build_embeddings,
    domain_token_counts,
    extract_drf_set,
    mutual_information,
    ratio_filter,
    save_profile,
)
from pada_lab.harness import ExperimentConfig
from tests.conftest import make_dataset, random_corpus
from tests.oracles import (
    annotation_bruteforce,
    annotation_scalar_loop,
    drf_bruteforce,
    mi_bruteforce,
)

TOY = {
    "inside": [("x y", "pos"), ("x z", "pos")],
    "outside": [("w y", "pos"), ("w z", "pos")],
}


class TestMutualInformation:
    def test_perfectly_indicative_token_is_one_bit(self):
        ds = make_dataset(TOY)
        mi = mutual_information(ds, ["inside", "outside"], "inside")
        assert mi["x"] == pytest.approx(1.0, abs=1e-12)
        assert mi["w"] == pytest.approx(1.0, abs=1e-12)

    def test_independent_token_is_zero_bits(self):
        ds = make_dataset(TOY)
        mi = mutual_information(ds, ["inside", "outside"], "inside")
        assert mi["y"] == pytest.approx(0.0, abs=1e-12)
        assert mi["z"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_bruteforce_on_random_corpora(self, rng):
        for _ in range(8):
            docs, ds = random_corpus(rng)
            domains = list(docs)
            target = domains[int(rng.integers(len(domains)))]
            got = mutual_information(ds, domains, target)
            want = mi_bruteforce(docs, target)
            assert set(got) == set(want)
            for token in want:
                assert got[token] == pytest.approx(want[token], abs=1e-12), token

    def test_document_order_irrelevant(self):
        a = make_dataset({"d1": [("p q", "pos"), ("r s", "pos")], "d2": [("p r", "pos")]})
        b = make_dataset({"d1": [("r s", "pos"), ("p q", "pos")], "d2": [("p r", "pos")]})
        assert mutual_information(a, ["d1", "d2"], "d1") == mutual_information(
            b, ["d1", "d2"], "d1"
        )

    def test_scores_non_negative(self, rng):
        docs, ds = random_corpus(rng)
        mi = mutual_information(ds, list(docs), list(docs)[0])
        assert all(v >= -1e-15 for v in mi.values())

    def test_domain_not_in_sources_rejected(self):
        ds = make_dataset(TOY)
        with pytest.raises(ValueError, match="inside"):
            mutual_information(ds, ["outside"], "inside")


class TestRatioFilter:
    def counts(self, **kw):
        return {d: Counter(c) for d, c in kw.items()}

    def test_zero_outside_passes(self):
        passes, _, _ = ratio_filter(self.counts(a={"t": 2}, b={}), "a", rho=1.5)
        assert passes("t")

    def test_zero_inside_fails(self):
        passes, _, _ = ratio_filter(self.counts(a={}, b={"t": 1}), "a", rho=100.0)
        assert not passes("t")

    def test_above_bound_fails(self):
        passes, _, _ = ratio_filter(self.counts(a={"t": 2}, b={"t": 4}), "a", rho=1.5)
        assert not passes("t")

    def test_boundary_is_inclusive(self):
        passes, _, _ = ratio_filter(self.counts(a={"t": 2}, b={"t": 3}), "a", rho=1.5)
        assert passes("t")

    def test_scale_invariance(self, rng):
        for _ in range(20):
            c_in = int(rng.integers(1, 10))
            c_out = int(rng.integers(0, 20))
            scale = int(rng.integers(2, 6))
            rho = float(rng.uniform(0.5, 3.0))
            base, _, _ = ratio_filter(self.counts(a={"t": c_in}, b={"t": c_out}), "a", rho)
            scaled, _, _ = ratio_filter(
                self.counts(a={"t": c_in * scale}, b={"t": c_out * scale}), "a", rho
            )
            assert base("t") == scaled("t")

    def test_returns_the_counts_it_reads(self):
        _, inside, outside = ratio_filter(
            self.counts(a={"t": 2}, b={"t": 3, "u": 1}, c={"t": 1}), "a", rho=1.5)
        assert inside == {"t": 2}
        assert outside == {"t": 4, "u": 1}

    def test_negative_rho_rejected(self):
        # the pipeline's rho is range-checked once, by ExperimentConfig
        with pytest.raises(ValueError, match="rho must be non-negative"):
            ExperimentConfig(rho=-0.1)


class TestExtractDrfSet:
    def test_toy_corpus_top_feature(self):
        ds = make_dataset(TOY)
        profile = extract_drf_set(ds, ["inside", "outside"], "inside", rho=1.5, k_drf=1)
        assert [d.token for d in profile.drfs] == ["x"]
        assert profile.drfs[0].ratio == 0.0

    def test_fewer_survivors_than_k_is_fine(self):
        ds = make_dataset(TOY)
        profile = extract_drf_set(ds, ["inside", "outside"], "inside", rho=1.5, k_drf=99)
        assert 1 <= len(profile.drfs) < 99

    def test_sorted_by_mi_descending_token_ascending(self, rng):
        for _ in range(5):
            docs, ds = random_corpus(rng)
            domains = list(docs)
            target = domains[0]
            try:
                profile = extract_drf_set(ds, domains, target, rho=2.0, k_drf=10)
            except ValueError:
                continue
            keys = [(-d.mi, d.token) for d in profile.drfs]
            assert keys == sorted(keys)

    def test_matches_bruteforce_pipeline(self, rng):
        for _ in range(8):
            docs, ds = random_corpus(rng)
            domains = list(docs)
            target = domains[int(rng.integers(len(domains)))]
            want = drf_bruteforce(docs, target, rho=1.5, k=7)
            if not want:
                with pytest.raises(ValueError):
                    extract_drf_set(ds, domains, target, rho=1.5, k_drf=7)
                continue
            got = extract_drf_set(ds, domains, target, rho=1.5, k_drf=7)
            assert [d.token for d in got.drfs] == [t for t, _, _ in want]
            for entry, (_, mi, ratio) in zip(got.drfs, want):
                assert entry.mi == pytest.approx(mi, abs=1e-12)
                assert entry.ratio == pytest.approx(ratio, abs=1e-12)

    def test_every_entry_satisfies_the_filter(self, rng):
        checked = 0
        while checked < 3:
            docs, ds = random_corpus(rng)
            domains = list(docs)
            try:
                profile = extract_drf_set(ds, domains, domains[0], rho=3.0, k_drf=50)
            except ValueError:
                continue
            counts = domain_token_counts(ds, domains)
            passes, _, _ = ratio_filter(counts, domains[0], 3.0)
            assert all(passes(d.token) for d in profile.drfs)
            checked += 1

    def test_target_domain_data_never_consulted(self):
        base = {"s1": [("p q", "pos"), ("q r", "neg")], "s2": [("r s", "pos")]}
        a = make_dataset({**base, "target": [("anything here", "pos")]})
        b = make_dataset({**base, "target": [("totally different words", "neg")]})
        pa = extract_drf_set(a, ["s1", "s2"], "s1", rho=2.0, k_drf=5)
        pb = extract_drf_set(b, ["s1", "s2"], "s1", rho=2.0, k_drf=5)
        assert pa == pb

    def test_no_survivors_is_an_error(self):
        ds = make_dataset({"a": [("t t", "pos")], "b": [("t t t t t t t t", "pos")]})
        with pytest.raises(ValueError, match="rho"):
            extract_drf_set(ds, ["a", "b"], "a", rho=1.0, k_drf=5)

    def test_profile_round_trips_through_json(self, tmp_path):
        ds = make_dataset(TOY)
        profile = extract_drf_set(ds, ["inside", "outside"], "inside", rho=1.5, k_drf=3)
        save_profile(tmp_path / "p.json", profile, rho=1.5)
        data = json.loads((tmp_path / "p.json").read_text())
        assert data["domain"] == "inside"
        assert data["rho"] == 1.5
        assert [d["token"] for d in data["drfs"]] == [d.token for d in profile.drfs]
        assert {"token", "mi", "ratio"} <= set(data["drfs"][0])


class TestEmbeddings:
    def small(self):
        ds = make_dataset(
            {"d": [("alpha beta gamma alpha", "pos"), ("beta gamma delta", "neg")]}
        )
        vocab = build_vocabulary(ds, ["d"])
        return ds, vocab

    def test_every_vocab_token_has_finite_vector(self):
        ds, vocab = self.small()
        emb = build_embeddings(ds, ["d"], vocab, d_emb=4, window=3)
        for token in vocab.id_to_token:
            vec = emb.vectors[token]
            assert vec.shape == (4,)
            assert np.isfinite(vec).all()

    def test_deterministic(self):
        ds, vocab = self.small()
        a = build_embeddings(ds, ["d"], vocab, d_emb=4, window=3)
        b = build_embeddings(ds, ["d"], vocab, d_emb=4, window=3)
        for token in vocab.id_to_token:
            assert np.array_equal(a.vectors[token], b.vectors[token])

    def test_identical_contexts_identical_vectors(self):
        ds = make_dataset({"d": [("left mid1 right", "pos"), ("left mid2 right", "neg")]})
        vocab = build_vocabulary(ds, ["d"])
        emb = build_embeddings(ds, ["d"], vocab, d_emb=8, window=1)
        assert np.allclose(emb.vectors["mid1"], emb.vectors["mid2"], atol=1e-10)

    def test_full_rank_preserves_gram_structure(self):
        ds, vocab = self.small()
        n = len(vocab.id_to_token)
        emb = build_embeddings(ds, ["d"], vocab, d_emb=n, window=2)
        rows = np.stack([emb.vectors[t] for t in vocab.id_to_token])

        counts = np.zeros((n, n))
        for ex in ds.train["d"]:
            ids = [vocab.id_of(t) for t in ex.text.split()]
            for i in range(len(ids)):
                for k in (1, 2):
                    if i + k < len(ids):
                        counts[ids[i], ids[i + k]] += 1
                        counts[ids[i + k], ids[i]] += 1
        total = counts.sum()
        marg = counts.sum(axis=1) / total
        with np.errstate(divide="ignore", invalid="ignore"):
            pmi = np.log2((counts / total) / np.outer(marg, marg))
        ppmi = np.where(counts > 0, np.maximum(pmi, 0.0), 0.0)
        assert np.allclose(rows @ rows.T, ppmi @ ppmi.T, atol=1e-8)

    def test_lookup_falls_back_to_unk(self):
        ds, vocab = self.small()
        emb = build_embeddings(ds, ["d"], vocab, d_emb=4, window=3)
        assert np.array_equal(emb.lookup("never-seen"), emb.vectors["<unk>"])

    def test_text_table_format(self, tmp_path):
        ds, vocab = self.small()
        emb = build_embeddings(ds, ["d"], vocab, d_emb=3, window=3)
        emb.write_text(tmp_path / "emb.txt")
        lines = (tmp_path / "emb.txt").read_text().splitlines()
        assert len(lines) == len(vocab.id_to_token)
        for line in lines:
            parts = line.split(" ")
            assert len(parts) == 4
            token, *vals = parts
            assert np.allclose([float(v) for v in vals], emb.vectors[token])

    def test_tiny_vocabulary_rejected(self):
        ds = make_dataset({"d": [("solo", "pos")]})
        vocab = Vocabulary.from_tokens(["solo"])
        with pytest.raises(ValueError, match="vocab"):
            build_embeddings(ds, ["d"], vocab, d_emb=4, window=3)


def profile_of(tokens_mi):
    return DomainProfile(
        name="dom",
        drfs=tuple(DrfScore(token=t, mi=mi, ratio=0.0) for t, mi in tokens_mi),
        token_counts={},
    )


def table_of(pairs, dim=2):
    return EmbeddingTable(
        dim=dim, vectors={t: np.asarray(v, dtype=np.float64) for t, v in pairs}
    )


class TestAnnotation:
    def test_hand_computed_distance(self):
        emb = table_of([("food", (1.0, 0.0)), ("pizza", (0.9, 0.1)), ("<unk>", (0.0, 0.0))])
        profile = profile_of([("food", 1.0)])
        ex = Example(id="e", text="pizza", label="pos", domain="dom")
        ann = annotate_prompt(ex, profile, emb, m=5)
        assert ann.drf_tokens == ("food",)
        assert ann.distances[0] == pytest.approx(math.sqrt(0.02), abs=1e-12)

    def test_feature_present_in_example_ranks_first(self):
        emb = table_of(
            [("near", (0.5, 0.5)), ("exact", (3.0, 3.0)), ("word", (3.0, 3.0)),
             ("<unk>", (0.0, 0.0))]
        )
        profile = profile_of([("near", 0.9), ("exact", 0.8)])
        ex = Example(id="e", text="exact word", label="pos", domain="dom")
        ann = annotate_prompt(ex, profile, emb, m=2)
        assert ann.drf_tokens[0] == "exact"
        assert ann.distances[0] == 0.0

    def test_distance_ties_break_by_profile_rank(self):
        emb = table_of(
            [("r1", (1.0, 0.0)), ("r2", (1.0, 0.0)), ("t", (0.0, 0.0)), ("<unk>", (0.0, 0.0))]
        )
        # r2 carries higher MI, so it precedes r1 in the profile.
        profile = profile_of([("r2", 0.9), ("r1", 0.5)])
        ex = Example(id="e", text="t", label="pos", domain="dom")
        ann = annotate_prompt(ex, profile, emb, m=2)
        assert ann.drf_tokens == ("r2", "r1")

    def test_distances_non_decreasing_and_within_profile(self, rng):
        tokens = [f"r{i}" for i in range(6)] + [f"t{i}" for i in range(4)] + ["<unk>"]
        emb = table_of([(t, rng.normal(size=3)) for t in tokens], dim=3)
        profile = profile_of([(f"r{i}", 1.0 - i * 0.1) for i in range(6)])
        ex = Example(id="e", text="t0 t1 t2 t3", label="pos", domain="dom")
        ann = annotate_prompt(ex, profile, emb, m=4)
        assert len(ann.drf_tokens) == 4
        assert set(ann.drf_tokens) <= {f"r{i}" for i in range(6)}
        assert list(ann.distances) == sorted(ann.distances)

    def test_m_larger_than_profile_returns_all(self):
        emb = table_of([("r1", (1.0, 0.0)), ("t", (0.0, 1.0)), ("<unk>", (0.0, 0.0))])
        profile = profile_of([("r1", 0.5)])
        ex = Example(id="e", text="t", label="pos", domain="dom")
        ann = annotate_prompt(ex, profile, emb, m=10)
        assert ann.drf_tokens == ("r1",)

    def test_matches_exhaustive_selection(self, rng):
        for _ in range(10):
            n_drf = int(rng.integers(1, 8))
            n_tok = int(rng.integers(1, 6))
            drfs = [f"r{i}" for i in range(n_drf)]
            words = [f"t{i}" for i in range(n_tok)]
            vectors = {t: rng.normal(size=2) for t in drfs + words}
            vectors["<unk>"] = np.zeros(2)
            emb = table_of(list(vectors.items()))
            profile = profile_of([(t, float(rng.random())) for t in drfs])
            ex = Example(id="e", text=" ".join(words), label="pos", domain="dom")
            m = int(rng.integers(1, 6))
            ann = annotate_prompt(ex, profile, emb, m=m)
            want = annotation_bruteforce(
                words, drfs, {t: list(v) for t, v in vectors.items()}, "<unk>", m
            )
            assert list(ann.drf_tokens) == want

    def test_distances_equal_scalar_loop(self, rng):
        # equal, not close: the stacked product must run the dot kernel
        for case in range(240):
            dim = int(rng.integers(1, 40))
            n_drf = 0 if case % 40 == 0 else int(rng.integers(1, 30))
            drfs = [f"r{i}" for i in range(n_drf)]
            words = [f"t{i}" for i in range(int(rng.integers(1, 20)))]
            vectors = {t: rng.normal(size=dim) for t in drfs + words + ["<unk>"]}
            # exact ties: shared vectors, and features and words left out
            # of the table, which all look up the UNK vector
            for t in rng.choice(drfs + words, size=len(drfs + words) // 3):
                vectors[str(t)] = vectors[str(rng.choice(drfs + words))].copy()
            for t in rng.choice(drfs + words, size=len(drfs + words) // 4):
                vectors.pop(str(t), None)
            text = " ".join(rng.choice(words, size=int(rng.integers(1, 30))))
            emb = table_of(list(vectors.items()), dim=dim)
            profile = profile_of([(t, 1.0) for t in drfs])
            ex = Example(id="e", text=text, label="pos", domain="dom")
            m = 0 if case % 40 == 1 else int(rng.integers(0, n_drf + 3))
            ann = annotate_prompt(ex, profile, emb, m=m)
            tokens, dists = annotation_scalar_loop(text.split(), drfs, vectors, "<unk>", m)
            assert ann.drf_tokens == tuple(tokens)
            assert ann.distances == tuple(dists)
