from dataclasses import replace

import numpy as np
import pytest

from pada_lab.baselines import classify_many
from pada_lab.corpus import BOS, EOS, UNK, Example, Vocabulary
from pada_lab.harness import pada_predict_many
from pada_lab import inference
from pada_lab.inference import (
    SEARCH_EXAMPLES,
    BeamConfig,
    GeneratedPrompt,
    Hypothesis,
    _extend,
    diverse_beam_search,
    diverse_beam_search_many,
    generate_candidates_many,
    generate_prompt,
)
from pada_lab.model import ModelConfig, advance_decoder, encode, init_params, pad_batch
from tests.oracles import beam_exhaustive, diverse_beam_naive, teacher_forced_logp

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
        for penalty in (-0.5, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                BeamConfig(beam_size=4, num_groups=2, diversity_penalty=penalty)


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


def id_rank(hyps):
    """Each hypothesis's position in the lexicographic order of ids."""
    rank = np.empty(len(hyps), dtype=np.int64)
    rank[sorted(range(len(hyps)), key=lambda i: hyps[i].ids)] = np.arange(len(hyps))
    return rank


def extend_across(blocks, penalties, width):
    """`_extend` over the rows of several inputs at once: blocks holds
    one (hyps, logp) pair per input. Returns, per input, its kept
    extensions and rows as `extend_full_pool` orders them."""
    hyps = [h for block, _ in blocks for h in block]
    example = np.repeat(np.arange(len(blocks)), [len(block) for block, _ in blocks])
    logp = np.concatenate([lp for _, lp in blocks])
    pen = np.array([h.penalized_score for h in hyps])
    rows, toks, scores = _extend(pen, logp, penalties[example],
                                 [len(block) for block, _ in blocks], id_rank(hyps), width)
    first = np.cumsum([0] + [len(block) for block, _ in blocks])
    out = [([], []) for _ in blocks]
    for r, t, s in zip(rows.tolist(), toks.tolist(), scores.tolist()):
        h = hyps[r]
        e = int(example[r])
        out[e][0].append(Hypothesis(h.ids + (t,), h.raw_score + float(logp[r, t]), s))
        out[e][1].append(r - int(first[e]))
    for kept, rows_e in out:
        order = sorted(range(len(kept)), key=lambda i: (-kept[i].penalized_score, kept[i].ids))
        kept[:], rows_e[:] = [kept[i] for i in order], [rows_e[i] for i in order]
    return out


def extend_one(hyps, logp, penalties, width):
    return extend_across([(hyps, logp)], penalties[None, :], width)[0]


def random_block(rng, n_rows, vocab, forced):
    hyps = [
        Hypothesis(ids=(r,), raw_score=float(rng.normal()),
                   penalized_score=float(np.round(rng.normal(), 1)))
        for r in range(n_rows)
    ]
    # coarse values force ties; a forced-EOS step leaves one finite column
    logp = np.round(rng.normal(size=(n_rows, vocab)), 1)
    if forced:
        logp[:, 1:] = -np.inf
    return hyps, logp


class TestExtend:
    def test_tie_goes_to_smaller_ids(self):
        hyps = [Hypothesis(ids=(3,), raw_score=0.0, penalized_score=0.0),
                Hypothesis(ids=(1,), raw_score=0.0, penalized_score=0.0)]
        logp = np.zeros((2, 4))
        got, rows = extend_one(hyps, logp, np.zeros(4), 3)
        assert [h.ids for h in got] == [(1, 0), (1, 1), (1, 2)]
        assert rows == [1, 1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_pool(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n_rows, vocab, width = (int(x) for x in rng.integers(1, [4, 10, 6]))
            hyps, logp = random_block(rng, n_rows, vocab, rng.random() < 0.3)
            penalties = 1.5 * rng.integers(0, 3, size=vocab)
            want = extend_full_pool(hyps, logp, penalties, width)
            assert tuple(extend_one(hyps, logp, penalties, width)) == want

    @pytest.mark.parametrize("seed", range(5))
    def test_across_inputs_matches_full_pool(self, seed):
        # Inputs with different row counts are padded for the cut; at a
        # forced-EOS step every real non-EOS candidate is -inf too, and
        # may still be kept at the cut, but no padded slot ever is.
        rng = np.random.default_rng(100 + seed)
        for _ in range(100):
            n_in, vocab, width = (int(x) for x in rng.integers(1, [6, 10, 6]))
            forced = rng.random() < 0.3
            blocks = [random_block(rng, int(rng.integers(1, 4)), vocab, forced)
                      for _ in range(n_in)]
            penalties = 1.5 * rng.integers(0, 3, size=(n_in, vocab))
            got = extend_across(blocks, penalties, width)
            for (hyps, logp), pen, (kept, rows) in zip(blocks, penalties, got):
                assert (kept, rows) == extend_full_pool(hyps, logp, pen, width)


class TestBeamAgainstExhaustive:
    def check_model(self, seed, max_len):
        cfg = small_cfg(seed=seed, max_output_len=max_len)
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)

        def score_fn(prefix):
            return teacher_forced_logp(cfg, params, enc, mask, [prefix])[0]

        want = beam_exhaustive(score_fn, cfg.vocab_size, EOS, max_len, top=4)
        # plain beam search: one group, no penalty
        got = diverse_beam_search(
            cfg, params, enc, mask,
            BeamConfig(num_candidates=4, beam_size=cfg.vocab_size**max_len, num_groups=1,
                       diversity_penalty=0.0),
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
            replace(cfg, max_output_len=4), params, enc, mask,
            BeamConfig(num_candidates=4, beam_size=4, num_groups=4, diversity_penalty=1e6),
        )
        firsts = [h.ids[0] for h in out]
        assert len(set(firsts)) == len(firsts)

    def test_all_hypotheses_end_with_eos_at_cap(self):
        cfg = small_cfg()
        params = init_params(cfg)
        enc, mask = encoded(cfg, params)
        out = diverse_beam_search(
            replace(cfg, max_output_len=3), params, enc, mask,
            BeamConfig(num_candidates=8, beam_size=8, num_groups=2, diversity_penalty=0.7),
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
            lambda prefixes: teacher_forced_logp(cfg, params, enc, mask, prefixes),
            cfg.vocab_size, EOS, max_len, num_groups, group_width, penalty, bc.num_candidates,
        )
        got = diverse_beam_search(cfg, params, enc, mask, bc)
        assert [h.ids for h in got] == [ids for ids, _ in want]
        for h, (_, score) in zip(got, want):
            assert h.raw_score == pytest.approx(score, rel=0, abs=1e-12)


    @pytest.mark.parametrize("seed", range(20))
    def test_batch_matches_group_by_group_search(self, seed):
        # Several inputs of one length decoded as one batch: every input
        # must match the naive search run on it alone.
        rng = np.random.default_rng(1000 + seed)
        num_groups = int(rng.integers(1, 5))
        group_width = int(rng.integers(1, 4))
        max_len = int(rng.integers(2, 6))
        penalty = float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
        cfg = small_cfg(seed=seed, n_layers=int(rng.integers(1, 3)), max_output_len=max_len)
        params = init_params(cfg)
        n_in = int(rng.integers(2, 7))
        enc, mask = batch_inputs(rng, cfg, params, n_in, int(rng.integers(1, 6)), seed)
        bc = BeamConfig(
            num_candidates=num_groups * group_width, beam_size=num_groups * group_width,
            num_groups=num_groups, diversity_penalty=penalty,
        )
        got = diverse_beam_search_many(cfg, params, enc, mask, bc)
        assert len(got) == n_in
        for e, hyps in enumerate(got):
            want = diverse_beam_naive(
                lambda prefixes: teacher_forced_logp(
                    cfg, params, enc[e : e + 1], mask[:1], prefixes),
                cfg.vocab_size, EOS, max_len, num_groups, group_width, penalty, bc.num_candidates,
            )
            assert [h.ids for h in hyps] == [ids for ids, _ in want]
            for h, (_, score) in zip(hyps, want):
                assert h.raw_score == pytest.approx(score, rel=0, abs=1e-12)


def batch_inputs(rng, cfg, params, n_in, length, seed):
    """Encoder states and mask of n_in inputs of one length. Odd seeds
    make the decoder lean on its input (random, large encoder states
    and a scaled-up cross-attention output) and make EOS likelier, so
    inputs finish hypotheses at different steps and keep unequal row
    counts; even seeds encode random ids."""
    mask = np.ones((n_in, length))
    if seed % 2 == 0:
        return encode(cfg, params, rng.integers(3, cfg.vocab_size, size=(n_in, length)), mask), mask
    for name in params:
        if name.endswith("cross.wo"):
            params[name] *= 20.0
    params["embed"][EOS] *= 3.0
    return rng.normal(scale=3.0, size=(n_in, length, cfg.d_model)), mask


def candidates_one_at_a_time(cfg, params, exs, bc=None):
    """Each example's candidates from a search of that example alone."""
    return [generate_candidates_many(cfg, params, VOCAB, [ex], bc)[0] for ex in exs]


def bits(hyps):
    """Hypotheses with every float as its exact bit pattern."""
    return [(h.ids, h.raw_score.hex(), h.penalized_score.hex()) for h in hyps]


def random_examples(rng, n, max_words):
    words = ["alpha", "beta"]
    return [
        Example(id=f"e{i}", text=" ".join(rng.choice(words, size=int(rng.integers(1, max_words)))),
                label="pos", domain="d")
        for i in range(n)
    ]


class TestBatchedSearchIsExact:
    """Decoding many examples at once gives, bit for bit, what decoding
    each alone gives: mixed input lengths (several buckets, returned in
    input order), searches that run into the forced-EOS length cap, and
    penalties zero and positive."""

    @pytest.mark.parametrize("seed", range(12))
    def test_generate_candidates_many_equals_one_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        cfg = small_cfg(seed=seed, n_layers=int(rng.integers(1, 3)),
                        max_input_len=int(rng.integers(3, 8)),
                        max_output_len=int(rng.integers(2, 6)))
        params = init_params(cfg)
        num_groups, group_width = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        bc = BeamConfig(num_candidates=num_groups * group_width,
                        beam_size=num_groups * group_width, num_groups=num_groups,
                        diversity_penalty=(0.0, 1.5)[seed % 2])
        exs = random_examples(rng, int(rng.integers(1, 9)), 8)
        got = generate_candidates_many(cfg, params, VOCAB, exs, bc)
        want = candidates_one_at_a_time(cfg, params, exs, bc)
        assert got == want
        assert [[c.score.hex() for c in cands] for cands in got] == [
            [c.score.hex() for c in cands] for cands in want]

    def test_buckets_are_scattered_back_in_input_order(self):
        rng = np.random.default_rng(7)
        cfg = small_cfg(max_input_len=6)
        params = init_params(cfg)
        exs = random_examples(rng, 8, 7)
        lengths = {min(len(ex.text.split()) + 1, cfg.max_input_len) for ex in exs}
        assert len(lengths) >= 2
        got = generate_candidates_many(cfg, params, VOCAB, exs)
        assert got == candidates_one_at_a_time(cfg, params, exs)

    def test_bucket_larger_than_one_search(self, monkeypatch):
        # A bucket of more than SEARCH_EXAMPLES examples is decoded in
        # several searches, none larger, with the same bits.
        rng = np.random.default_rng(11)
        cfg = small_cfg(max_input_len=3, max_output_len=4)
        params = init_params(cfg)
        exs = random_examples(rng, 2 * SEARCH_EXAMPLES + 5, 6)
        bc = BeamConfig(num_candidates=4, beam_size=4, num_groups=2, diversity_penalty=1.5)
        sizes = []

        def spy(model_cfg, P, enc_states, enc_mask, cfg):
            sizes.append(len(enc_states))
            return diverse_beam_search_many(model_cfg, P, enc_states, enc_mask, cfg)

        monkeypatch.setattr(inference, "diverse_beam_search_many", spy)
        got = generate_candidates_many(cfg, params, VOCAB, exs, bc)
        assert sum(sizes) == len(exs) and max(sizes) == SEARCH_EXAMPLES
        lengths = {min(len(ex.text.split()) + 1, cfg.max_input_len) for ex in exs}
        assert len(sizes) > len(lengths)  # some bucket spans several searches
        want = candidates_one_at_a_time(cfg, params, exs, bc)
        assert got == want
        assert [[c.score.hex() for c in cands] for cands in got] == [
            [c.score.hex() for c in cands] for cands in want]

    @pytest.mark.parametrize("seed", range(12))
    def test_search_many_equals_search_one(self, seed):
        # raw and penalized scores of every hypothesis, bit for bit
        rng = np.random.default_rng(50 + seed)
        max_len = int(rng.integers(2, 6))
        cfg = small_cfg(seed=seed, n_layers=int(rng.integers(1, 3)), max_output_len=max_len)
        params = init_params(cfg)
        n_in = int(rng.integers(1, 9))
        enc, mask = batch_inputs(rng, cfg, params, n_in, int(rng.integers(1, 6)), seed)
        bc = BeamConfig(num_candidates=4, beam_size=4, num_groups=int(rng.choice([1, 2, 4])),
                        diversity_penalty=(0.0, 2.5)[seed // 2 % 2])
        got = diverse_beam_search_many(cfg, params, enc, mask, bc)
        for e in range(n_in):
            one = diverse_beam_search(cfg, params, enc[e : e + 1], mask[e : e + 1], bc)
            assert bits(got[e]) == bits(one)

    def test_encoding_a_bucket_equals_encoding_each(self):
        cfg = small_cfg(n_layers=2)
        params = init_params(cfg)
        ids = np.random.default_rng(4).integers(3, cfg.vocab_size, size=(6, 5))
        enc = encode(cfg, params, ids, np.ones(ids.shape))
        for e in range(len(ids)):
            assert np.array_equal(enc[e : e + 1], encode(cfg, params, ids[e : e + 1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_pada_predict_many_equals_one_at_a_time(self, seed):
        rng = np.random.default_rng(80 + seed)
        cfg = small_cfg(seed=seed, max_input_len=6, max_output_len=int(rng.integers(2, 5)))
        params = init_params(cfg)
        exs = random_examples(rng, int(rng.integers(2, 9)), 7)
        bc = BeamConfig(num_candidates=2, beam_size=4, num_groups=2,
                        diversity_penalty=(0.0, 1.5)[seed % 2])
        probs, prompts = pada_predict_many(cfg, params, VOCAB, exs, bc)
        want_prompts = [generate_prompt(cfg, params, VOCAB, ex, bc) for ex in exs]
        assert prompts == want_prompts
        want = classify_many(cfg, params, VOCAB, exs,
                             prompts=[p.prompt_ids for p in want_prompts])
        assert np.array_equal(probs, want)


class ScriptedDecoder:
    """Stands in for the model in `diverse_beam_search_many`: a row's
    next-token log-probabilities are a fixed function of its input and
    prefix, drawn from 0.0, -0.5 and -1.0 so that scores tie. EOS scores
    exactly 0.0, so a finished child keeps its parent's raw score, and
    a live child that scored 0.0 ties its finished sibling: the cut of
    an input's candidates can equal a live score."""

    def __init__(self, seed, vocab_size):
        self.seed, self.vocab_size = seed, vocab_size

    def logp(self, e, prefix):
        row = -np.random.default_rng([self.seed, e, *prefix]).integers(0, 3, self.vocab_size) / 2.0
        row[EOS] = 0.0
        return row

    def start(self, model_cfg, P, enc_states, enc_mask):
        return [(e, ()) for e in range(len(enc_states))]  # per row: input, prefix

    def advance(self, model_cfg, P, state, parents, tokens, example=None):
        rows = [(state[p][0], state[p][1] + (t,)) for p, t in zip(parents.tolist(), tokens.tolist())]
        return rows, np.array([self.logp(e, prefix) for e, prefix in rows])


class TestSettledInputsStop:
    """An input whose num_candidates-th best finished raw score is above
    every live raw score of that input stops decoding; the candidates of
    every input are still those of the full search."""

    @pytest.mark.parametrize("seed", range(40))
    def test_scripted_ties_match_group_by_group_search(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        num_groups, group_width = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        max_len = 5
        cfg = small_cfg(max_output_len=max_len)
        bc = BeamConfig(num_candidates=int(rng.integers(1, 4)),
                        beam_size=num_groups * group_width, num_groups=num_groups,
                        diversity_penalty=(0.0, 0.5)[seed % 2])
        script = ScriptedDecoder(seed, cfg.vocab_size)
        monkeypatch.setattr(inference, "start_decoder", script.start)
        monkeypatch.setattr(inference, "advance_decoder", script.advance)
        n_in = 3
        got = diverse_beam_search_many(cfg, {}, np.zeros((n_in, 1, cfg.d_model)),
                                       np.ones((n_in, 1)), bc)
        for e in range(n_in):
            want = diverse_beam_naive(
                lambda prefixes: [script.logp(e, (BOS,) + p) for p in prefixes],
                cfg.vocab_size, EOS, max_len, num_groups, group_width,
                bc.diversity_penalty, bc.num_candidates,
            )
            assert [(h.ids, h.raw_score) for h in got[e]] == want

    def test_stop_fires_on_a_model_that_emits_eos_early(self, monkeypatch):
        cfg = small_cfg(seed=3, max_output_len=8)
        params = init_params(cfg)
        params["embed"][EOS] *= 40.0  # EOS outscores every other token
        enc, mask = encoded(cfg, params)
        bc = BeamConfig(num_candidates=2, beam_size=4, num_groups=2, diversity_penalty=0.5)
        calls = []

        def counted(*args):
            calls.append(args)
            return advance_decoder(*args)

        monkeypatch.setattr(inference, "advance_decoder", counted)
        got = diverse_beam_search(cfg, params, enc, mask, bc)
        assert len(calls) < cfg.max_output_len
        want = diverse_beam_naive(
            lambda prefixes: teacher_forced_logp(cfg, params, enc, mask, prefixes),
            cfg.vocab_size, EOS, cfg.max_output_len, 2, 2, 0.5, 2,
        )
        assert [h.ids for h in got] == [ids for ids, _ in want]
        for h, (_, score) in zip(got, want):
            assert h.raw_score == pytest.approx(score, rel=0, abs=1e-12)


class TestPredictSearchesForTheBestOnly:
    """`pada_predict_many` searches for one candidate per example and
    stops each example once that candidate is settled. Its prompts,
    scores and probabilities are bit for bit those of the best of a
    full five-candidate search followed by classification."""

    BEAM = BeamConfig()  # five candidates, as ExperimentConfig has by default

    def full_search_then_classify(self, cfg, params, exs):
        best = [cands[0] for cands in generate_candidates_many(cfg, params, VOCAB, exs, self.BEAM)]
        return classify_many(cfg, params, VOCAB, exs, prompts=[p.prompt_ids for p in best]), best

    def check(self, cfg, params, exs):
        probs, prompts = pada_predict_many(cfg, params, VOCAB, exs, self.BEAM)
        want_probs, want = self.full_search_then_classify(cfg, params, exs)
        assert probs.tobytes() == want_probs.tobytes()
        assert [(p.ids, p.tokens, p.score.hex(), p.used_fallback) for p in prompts] == [
            (p.ids, p.tokens, p.score.hex(), p.used_fallback) for p in want]
        return prompts

    @staticmethod
    def case(seed, sharpen=1.0):
        """A random model and 1-8 examples of mixed lengths; `sharpen`
        scales the embeddings and cross-attention outputs."""
        rng = np.random.default_rng(300 + seed)
        cfg = small_cfg(seed=seed, n_layers=int(rng.integers(1, 3)), max_input_len=12,
                        max_output_len=int(rng.integers(2, 7)))
        params = init_params(cfg)
        for name in params:
            if name == "embed" or name.endswith("cross.wo"):
                params[name] *= sharpen
        return cfg, params, random_examples(rng, int(rng.integers(1, 9)), 7)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_models(self, seed):
        self.check(*self.case(seed))

    def test_sharp_models(self):
        # Sharper token distributions: some best prompts are bare EOS
        # (the fallback), others run for several tokens.
        fallbacks = set()
        for seed in range(8):
            fallbacks |= {p.used_fallback for p in self.check(*self.case(seed, sharpen=20.0))}
        assert fallbacks == {False, True}

    @pytest.mark.parametrize("seed", range(4))
    def test_eos_heavy_model_stops_sooner(self, seed, monkeypatch):
        rng = np.random.default_rng(400 + seed)
        cfg = small_cfg(seed=3, max_input_len=12, max_output_len=8)
        params = init_params(cfg)
        params["embed"][EOS] *= 40.0  # EOS outscores every other token
        exs = random_examples(rng, int(rng.integers(1, 9)), 7)
        self.check(cfg, params, exs)
        calls = []

        def counted(*args):
            calls.append(args)
            return advance_decoder(*args)

        monkeypatch.setattr(inference, "advance_decoder", counted)
        pada_predict_many(cfg, params, VOCAB, exs, self.BEAM)
        best_only = len(calls)
        self.full_search_then_classify(cfg, params, exs)
        assert 0 < best_only < len(calls) - best_only


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
        [cands] = generate_candidates_many(self.cfg, self.params, VOCAB, [self.ex])
        assert len(cands) == BeamConfig().num_candidates
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)
        for c in cands:
            assert c.ids[-1] == EOS
            assert c.tokens == tuple(VOCAB.id_to_token[i] for i in c.ids[:-1])

    def test_generate_prompt_is_the_best_candidate(self):
        [cands] = generate_candidates_many(self.cfg, self.params, VOCAB, [self.ex])
        assert generate_prompt(self.cfg, self.params, VOCAB, self.ex) == cands[0]

    def test_bare_eos_best_candidate_falls_back(self):
        # Force the degenerate decode with a one-token horizon: the only
        # possible hypothesis is bare EOS.
        bc = BeamConfig(num_candidates=1, beam_size=1, num_groups=1)
        [cands] = generate_candidates_many(
            replace(self.cfg, max_output_len=1), self.params, VOCAB, [self.ex], bc)
        assert cands[0].used_fallback
        assert cands[0].ids == (UNK, EOS)
        assert cands[0].prompt_ids == (UNK,)

    def test_empty_text_rejected(self):
        # no example without tokens reaches the search: building it fails
        with pytest.raises(ValueError, match="'e1' has no tokens"):
            Example(id="e1", text="  ", label="pos", domain="d")

    def test_classify_with_prompt_returns_distribution(self):
        probs = classify_many(self.cfg, self.params, VOCAB, [self.ex], prompts=[(7,)])
        assert probs.shape == (1, 2)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs >= 0).all()

    def test_empty_batch(self):
        probs, prompts = pada_predict_many(self.cfg, self.params, VOCAB, [], BeamConfig())
        assert probs.shape == (0, 2) and prompts == []
        assert classify_many(self.cfg, self.params, VOCAB, []).shape == (0, 2)
        assert generate_candidates_many(self.cfg, self.params, VOCAB, []) == []

    def test_predict_combines_both_steps(self):
        probs, prompts = pada_predict_many(self.cfg, self.params, VOCAB, [self.ex], BeamConfig())
        prompt = generate_prompt(self.cfg, self.params, VOCAB, self.ex)
        assert prompts == [prompt]
        want = classify_many(self.cfg, self.params, VOCAB, [self.ex], prompts=[prompt.prompt_ids])
        assert np.array_equal(probs, want)
