import numpy as np
import pytest

from pada_lab.baselines import classify_many
from pada_lab.corpus import BOS, EOS, UNK, Example, Vocabulary
from pada_lab.harness import pada_predict_many
from pada_lab.inference import (
    BeamConfig,
    GeneratedPrompt,
    Hypothesis,
    _extend,
    beam_search,
    diverse_beam_search,
    generate_candidates,
    generate_prompt,
)
from pada_lab.model import (
    ModelConfig,
    _decoder_fwd,
    _f64,
    _logsumexp,
    decode_step,
    encode,
    init_params,
    pad_batch,
)
from tests.oracles import beam_exhaustive, diverse_beam_naive

VOCAB = Vocabulary.from_tokens(["alpha", "beta"])


def small_cfg(**kw):
    base = dict(
        vocab_size=8, n_classes=2, d_model=8, n_layers=1, n_heads=2, d_ffn=8,
        max_input_len=16, max_output_len=6, conv_filters=3, conv_width=3, seed=5,
    )
    base.update(kw)
    return ModelConfig(**base)


def encoded(cfg, params, ids=(6, 7)):
    batch, mask = pad_batch([list(ids)])
    return encode(cfg, params, batch, mask), mask


class TestBeamConfig:
    def test_group_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            BeamConfig(beam_size=10, num_groups=3)

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            BeamConfig(beam_size=0, num_groups=1)
        with pytest.raises(ValueError):
            BeamConfig(num_candidates=0)

    def test_penalty_non_negative(self):
        with pytest.raises(ValueError):
            BeamConfig(beam_size=4, num_groups=2, diversity_penalty=-0.5)


class TestHypothesis:
    def test_finished_only_on_trailing_eos(self):
        assert Hypothesis(ids=(7, EOS), raw_score=0.0, penalized_score=0.0).finished
        assert not Hypothesis(ids=(7,), raw_score=0.0, penalized_score=0.0).finished
        assert not Hypothesis(ids=(), raw_score=0.0, penalized_score=0.0).finished


def extend_full_pool(hyps, logp, penalties, width):
    """Every one-token extension with its row, sorted by (-penalized, ids)."""
    pool = [
        (
            Hypothesis(
                ids=h.ids + (tok,),
                raw_score=h.raw_score + float(logp[row, tok]),
                penalized_score=h.penalized_score + float(logp[row, tok] - penalties[tok]),
            ),
            row,
        )
        for row, h in enumerate(hyps)
        for tok in range(logp.shape[1])
    ]
    pool.sort(key=lambda pair: (-pair[0].penalized_score, pair[0].ids))
    return [h for h, _ in pool[:width]], [row for _, row in pool[:width]]


class TestExtend:
    def test_tie_goes_to_smaller_ids(self):
        hyps = [Hypothesis(ids=(3,), raw_score=0.0, penalized_score=0.0),
                Hypothesis(ids=(1,), raw_score=0.0, penalized_score=0.0)]
        logp = np.zeros((2, 4))
        got, rows = _extend(hyps, logp, np.zeros(4), 3)
        assert [h.ids for h in got] == [(1, 0), (1, 1), (1, 2)]
        assert rows == [1, 1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_pool(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n_rows, vocab, width = (int(x) for x in rng.integers(1, [4, 10, 6]))
            hyps = [
                Hypothesis(ids=(r,), raw_score=float(rng.normal()),
                           penalized_score=float(np.round(rng.normal(), 1)))
                for r in range(n_rows)
            ]
            # coarse values force ties; a forced-EOS step leaves one finite column
            logp = np.round(rng.normal(size=(n_rows, vocab)), 1)
            if rng.random() < 0.3:
                logp[:, 1:] = -np.inf
            penalties = 1.5 * rng.integers(0, 3, size=vocab)
            want = extend_full_pool(hyps, logp, penalties, width)
            assert _extend(hyps, logp, penalties, width) == want


class TestBeamAgainstExhaustive:
    def check_model(self, seed, max_len):
        cfg = small_cfg(seed=seed, max_output_len=max_len)
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)

        def score_fn(prefix):
            return decode_step(cfg, params, enc, mask, [(2,) + prefix])[0]

        want = beam_exhaustive(score_fn, cfg.vocab_size, EOS, max_len, top=4)
        got = beam_search(
            cfg, params, enc, mask,
            beam_size=cfg.vocab_size**max_len, num_candidates=4, max_len=max_len,
        )
        assert [h.ids for h in got] == [ids for ids, _ in want]
        for h, (_, score) in zip(got, want):
            assert h.raw_score == pytest.approx(score, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_wide_beam_equals_exhaustive(self, seed):
        self.check_model(seed, max_len=2)

    def test_wide_beam_equals_exhaustive_longer_horizon(self):
        self.check_model(9, max_len=3)


class TestDiverseBeam:
    def test_one_group_zero_penalty_equals_plain_beam(self):
        cfg = small_cfg()
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)
        plain = beam_search(cfg, params, enc, mask, beam_size=6, num_candidates=6)
        diverse = diverse_beam_search(
            cfg, params, enc, mask,
            BeamConfig(num_candidates=6, beam_size=6, num_groups=1, diversity_penalty=0.0),
        )
        assert plain == diverse

    def test_zero_penalty_many_groups_still_valid(self):
        cfg = small_cfg()
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)
        out = diverse_beam_search(
            cfg, params, enc, mask,
            BeamConfig(num_candidates=4, beam_size=4, num_groups=2, diversity_penalty=0.0),
        )
        assert len(out) == 4
        assert all(h.finished for h in out)

    def test_huge_penalty_spreads_first_tokens(self):
        # Width-1 groups with an overwhelming penalty cannot repeat an
        # earlier group's first token unless EOS forces their hand.
        cfg = small_cfg()
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)
        out = diverse_beam_search(
            cfg, params, enc, mask,
            BeamConfig(num_candidates=4, beam_size=4, num_groups=4,
                       diversity_penalty=1e6, max_len=4),
        )
        firsts = [h.ids[0] for h in out]
        assert len(set(firsts)) == len(firsts)

    def test_all_hypotheses_end_with_eos_at_cap(self):
        cfg = small_cfg()
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)
        out = diverse_beam_search(
            cfg, params, enc, mask,
            BeamConfig(num_candidates=8, beam_size=8, num_groups=2,
                       diversity_penalty=0.7, max_len=3),
        )
        for h in out:
            assert h.ids[-1] == EOS
            assert len(h.ids) <= 3
            assert EOS not in h.ids[:-1]

    def test_candidates_sorted_by_raw_score(self):
        cfg = small_cfg()
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)
        out = diverse_beam_search(
            cfg, params, enc, mask,
            BeamConfig(num_candidates=6, beam_size=6, num_groups=3,
                       diversity_penalty=0.9),
        )
        scores = [h.raw_score for h in out]
        assert scores == sorted(scores, reverse=True)

    def test_single_input_only(self):
        cfg = small_cfg()
        params = init_params(cfg)
        ids, mask = pad_batch([[6, 7], [7, 6]])
        enc = encode(cfg, params, ids, mask)
        with pytest.raises(ValueError, match="one input"):
            diverse_beam_search(cfg, params, enc, mask, BeamConfig())

    def test_deterministic(self):
        cfg = small_cfg()
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)
        bc = BeamConfig(num_candidates=5, beam_size=10, num_groups=5,
                        diversity_penalty=1.5)
        assert diverse_beam_search(cfg, params, enc, mask, bc) == diverse_beam_search(
            cfg, params, enc, mask, bc
        )


def full_prefix_logp(cfg, params, enc, mask, prefixes):
    """Next-token logp re-running the training decoder over whole
    prefixes, with the encoder states repeated per row."""
    P = _f64(params)
    ids = np.array([(BOS,) + tuple(p) for p in prefixes], dtype=np.int64)
    n = len(prefixes)
    states, _ = _decoder_fwd(
        cfg, P, ids, np.ones(ids.shape), np.repeat(enc, n, axis=0), np.repeat(mask, n, axis=0)
    )
    logits = states[:, -1] @ P["embed"].T
    return logits - _logsumexp(logits)


class TestDiverseBeamAgainstNaive:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_group_by_group_search(self, seed):
        rng = np.random.default_rng(seed)
        num_groups = int(rng.integers(2, 6))
        group_width = int(rng.integers(1, 4))
        max_len = int(rng.integers(3, 7))
        penalty = float(rng.uniform(0.1, 3.0))
        cfg = small_cfg(seed=seed, n_layers=int(rng.integers(1, 3)), max_output_len=max_len)
        params = init_params(cfg)
        enc, mask = encoded(cfg, params, ids=rng.integers(3, cfg.vocab_size, size=4))
        bc = BeamConfig(
            num_candidates=num_groups * group_width, beam_size=num_groups * group_width,
            num_groups=num_groups, diversity_penalty=penalty,
        )
        want = diverse_beam_naive(
            lambda prefixes: full_prefix_logp(cfg, params, enc, mask, prefixes),
            cfg.vocab_size, EOS, max_len, num_groups, group_width, penalty, bc.num_candidates,
        )
        got = diverse_beam_search(cfg, params, enc, mask, bc)
        assert [h.ids for h in got] == [ids for ids, _ in want]
        for h, (_, score) in zip(got, want):
            assert h.raw_score == pytest.approx(score, rel=0, abs=1e-12)


class TestGeneratedPrompt:
    def test_prompt_ids_strip_trailing_eos(self):
        p = GeneratedPrompt(ids=(7, 6, EOS), tokens=("a", "b"), score=-1.0)
        assert p.prompt_ids == (7, 6)

    def test_prompt_ids_keep_unterminated_sequence(self):
        p = GeneratedPrompt(ids=(7, 6), tokens=("a", "b"), score=-1.0)
        assert p.prompt_ids == (7, 6)


class TestGenerateAndPredict:
    def setup_method(self):
        self.cfg = small_cfg()
        self.params = init_params(self.cfg)
        self.ex = Example(id="e0", text="alpha beta", label="pos", domain="d")

    def test_candidate_list_shape(self):
        cands = generate_candidates(self.cfg, self.params, VOCAB, self.ex)
        assert len(cands) == BeamConfig().num_candidates
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)
        for c in cands:
            assert c.ids[-1] == EOS
            assert c.tokens == tuple(VOCAB.id_to_token[i] for i in c.ids[:-1])

    def test_generate_prompt_is_the_best_candidate(self):
        cands = generate_candidates(self.cfg, self.params, VOCAB, self.ex)
        assert generate_prompt(self.cfg, self.params, VOCAB, self.ex) == cands[0]

    def test_bare_eos_best_candidate_falls_back(self):
        # Force the degenerate decode with a one-token horizon: the only
        # possible hypothesis is bare EOS.
        bc = BeamConfig(num_candidates=1, beam_size=1, num_groups=1, max_len=1)
        cands = generate_candidates(self.cfg, self.params, VOCAB, self.ex, bc)
        assert cands[0].used_fallback
        assert cands[0].ids == (UNK, EOS)
        assert cands[0].prompt_ids == (UNK,)

    def test_empty_text_rejected(self):
        bad = Example(id="e1", text="  ", label="pos", domain="d")
        with pytest.raises(ValueError, match="tokens"):
            generate_candidates(self.cfg, self.params, VOCAB, bad)

    def test_classify_with_prompt_returns_distribution(self):
        probs = classify_many(self.cfg, self.params, VOCAB, [self.ex], prompts=[(7,)])
        assert probs.shape == (1, 2)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs >= 0).all()

    def test_predict_combines_both_steps(self):
        probs, prompts = pada_predict_many(self.cfg, self.params, VOCAB, [self.ex], BeamConfig())
        prompt = generate_prompt(self.cfg, self.params, VOCAB, self.ex)
        assert prompts == [prompt]
        want = classify_many(self.cfg, self.params, VOCAB, [self.ex], prompts=[prompt.prompt_ids])
        assert np.array_equal(probs, want)
