import struct
import tracemalloc

import numpy as np
import pytest

from pada_lab.corpus import BOS, EOS, PAD
from pada_lab.harness import ExperimentConfig
from pada_lab.model import (
    CHECKPOINT_MAGIC,
    ModelConfig,
    _attn_bwd,
    _attn_fwd,
    _decoder_fwd,
    _classify_bwd,
    _classify_fwd,
    _ffn_bwd,
    _ffn_fwd,
    _forward,
    _ln_bwd,
    _ln_fwd,
    _logsumexp,
    advance_decoder,
    classify,
    decode_step,
    encode,
    init_params,
    load_checkpoint,
    loss_and_grads,
    pad_batch,
    save_checkpoint,
    start_decoder,
)
from pada_lab.training import AdamState, TaskInstance, adam_step
from tests import oracles
from tests.conftest import edit_checkpoint_header


def tiny_cfg(**kw):
    base = dict(
        vocab_size=12, n_classes=2, d_model=8, n_layers=1, n_heads=2,
        d_ffn=8, max_input_len=16, max_output_len=8, conv_filters=3,
        conv_width=3, seed=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def encode_and_classify(cfg, params, seqs):
    """Class log-probs [B, C] for unpadded id sequences."""
    ids, mask = pad_batch(seqs)
    return classify(cfg, params, encode(cfg, params, ids, mask), mask)


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="n_heads"):
            tiny_cfg(d_model=10, n_heads=4)

    def test_conv_width_must_be_odd(self):
        with pytest.raises(ValueError, match="conv_width"):
            tiny_cfg(conv_width=4)

    def test_vocab_must_cover_specials(self):
        with pytest.raises(ValueError):
            tiny_cfg(vocab_size=5)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            tiny_cfg(n_classes=1)


class TestInitParams:
    def test_deterministic_per_seed(self):
        cfg = tiny_cfg()
        a, b = init_params(cfg), init_params(cfg)
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_seed_changes_weights(self):
        a = init_params(tiny_cfg(seed=1))
        b = init_params(tiny_cfg(seed=2))
        assert not np.array_equal(a["embed"], b["embed"])

    def test_parameters_rest_on_the_float32_grid(self, tmp_path):
        """Every path a parameter enters or changes by gives a float64
        array equal to its own float32 rounding: `init_params`,
        `load_checkpoint`, and `adam_step`'s gradient update, its
        zero-gradient update of a tensor with state, and its stateless
        skip."""
        cfg = tiny_cfg()
        p = init_params(cfg)
        save_checkpoint(tmp_path / "model.bin", cfg, p)
        _, loaded = load_checkpoint(tmp_path / "model.bin")
        grads = {"embed": np.random.default_rng(0).normal(size=p["embed"].shape)}
        step_cfg = ExperimentConfig(lr=0.1)
        stepped, state = adam_step(p, grads, AdamState(), 1, step_cfg, 10, 0)
        coasted, _ = adam_step(stepped, {}, state, 2, step_cfg, 10, 0)
        assert not np.array_equal(stepped["embed"], p["embed"])  # gradient update
        assert not np.array_equal(coasted["embed"], stepped["embed"])  # zero gradient
        assert coasted["cls.proj.w"] is p["cls.proj.w"]  # stateless skip
        for params in (p, loaded, stepped, coasted):
            assert params.keys() == p.keys()
            for k, v in params.items():
                assert v.dtype == np.float64, k
                assert np.array_equal(v, v.astype(np.float32)), k

    def test_key_shapes(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        assert p["embed"].shape == (cfg.vocab_size, cfg.d_model)
        assert p["cls.conv.w"].shape == (cfg.conv_filters, cfg.conv_width, cfg.d_model)
        assert p["cls.proj.w"].shape == (cfg.n_classes, cfg.conv_filters)


class TestPadBatch:
    def test_shapes_and_mask(self):
        ids, mask = pad_batch([[7, 8], [9]])
        assert ids.tolist() == [[7, 8], [9, PAD]]
        assert mask.tolist() == [[1.0, 1.0], [1.0, 0.0]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pad_batch([])
        with pytest.raises(ValueError):
            pad_batch([[7], []])


class TestEncode:
    def test_state_shape(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        states = encode(cfg, p, [[6, 7, 8], [9, 10, 11]])
        assert states.shape == (2, 3, cfg.d_model)
        assert np.isfinite(states).all()

    def test_padding_does_not_leak(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        alone = encode(cfg, p, [[6, 7, 8]])
        ids, mask = pad_batch([[6, 7, 8], [9, 10, 11, 6, 7]])
        together = encode(cfg, p, ids, mask)
        assert np.allclose(alone[0], together[0, :3], atol=1e-10)

    def test_length_cap_enforced(self):
        cfg = tiny_cfg(max_input_len=2)
        p = init_params(cfg)
        with pytest.raises(ValueError, match="input"):
            encode(cfg, p, [[6, 7, 8]])

    def test_out_of_range_ids_rejected(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        with pytest.raises(ValueError):
            encode(cfg, p, [[6, cfg.vocab_size]])

    def test_positions_make_encoding_order_aware(self):
        # Self-attention alone treats the sequence as a bag; the
        # sinusoidal positions keep swapped tokens from merely swapping
        # their states.
        cfg = tiny_cfg()
        p = init_params(cfg)
        fwd = encode(cfg, p, [[6, 7]])
        rev = encode(cfg, p, [[7, 6]])
        assert not np.allclose(fwd[0, 0], rev[0, 1])
        assert not np.allclose(fwd[0, 1], rev[0, 0])


class TestClassify:
    def test_log_probs_normalized(self):
        cfg = tiny_cfg(n_classes=3)
        p = init_params(cfg)
        logp = encode_and_classify(cfg, p, [[6, 7, 8], [9] * 5])
        assert logp.shape == (2, 3)
        assert np.allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-12)

    def test_batch_row_independent_of_neighbours(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        alone = encode_and_classify(cfg, p, [[6, 7, 8]])
        batched = encode_and_classify(cfg, p, [[6, 7, 8], [9, 10, 11, 6]])
        assert np.allclose(alone[0], batched[0], atol=1e-10)

    def test_all_padding_rejected(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        states = np.zeros((1, 3, cfg.d_model))
        with pytest.raises(ValueError, match="unpadded"):
            classify(cfg, p, states, np.zeros((1, 3)))

    @pytest.mark.parametrize("width", [1, 3, 9])
    def test_conv_weight_gradient_matches_einsum(self, width):
        # reference: the per-width einsum over batch and time
        rng = np.random.default_rng(width)
        cfg = tiny_cfg(conv_width=width, conv_filters=4)
        P = {k: v + rng.normal(size=v.shape) for k, v in init_params(cfg).items()}
        for n_b in (1, 3):
            for n_t in range(1, 13):
                states = rng.normal(size=(n_b, n_t, cfg.d_model))
                mask = (rng.random((n_b, n_t)) < 0.7).astype(np.float64)
                mask[:, 0] = 1.0
                _, cache = _classify_fwd(cfg, P, states, mask)
                dlogits = rng.normal(size=(n_b, cfg.n_classes))
                grads = {}
                _classify_bwd(dlogits, cache, grads)

                xp, _, idx, _, w, pw = cache
                dconv = np.zeros((n_b, n_t, w.shape[0]))
                dconv[np.arange(n_b)[:, None], idx, np.arange(w.shape[0])[None, :]] = dlogits @ pw
                want = np.zeros_like(w)
                for k in range(width):
                    want[:, k, :] = np.einsum("btf,btd->fd", dconv, xp[:, k : k + n_t, :])
                np.testing.assert_allclose(grads["cls.conv.w"], want, rtol=1e-12, atol=0)


class TestDecodeStep:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.p = init_params(self.cfg)
        ids, mask = pad_batch([[6, 7, 8]])
        self.enc = encode(self.cfg, self.p, ids, mask)
        self.mask = mask

    def test_distribution_over_vocab(self):
        logp = decode_step(self.cfg, self.p, self.enc, self.mask, [[BOS]])
        assert logp.shape == (1, self.cfg.vocab_size)
        assert np.allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-12)

    def test_prefix_must_start_with_bos(self):
        with pytest.raises(ValueError, match="BOS"):
            decode_step(self.cfg, self.p, self.enc, self.mask, [[EOS]])

    def test_prefix_must_be_2d(self):
        with pytest.raises(ValueError, match=r"\[B,T\]"):
            decode_step(self.cfg, self.p, self.enc, self.mask, [BOS])

    def test_prefix_length_cap(self):
        long = [[BOS] + [7] * self.cfg.max_output_len]
        with pytest.raises(ValueError, match="max_output_len"):
            decode_step(self.cfg, self.p, self.enc, self.mask, long)

    def test_prefix_ids_in_vocab(self):
        with pytest.raises(ValueError):
            decode_step(self.cfg, self.p, self.enc, self.mask, [[BOS, 99]])

    def test_causal_prefix_extension_consistent(self):
        # A 10-row state stepped with reshuffled parents must give, at
        # every step, the teacher-forced decoder's next-token logp for
        # the sequences the rows now hold.
        rng = np.random.default_rng(0)
        cfg = tiny_cfg(n_layers=2)
        P = init_params(cfg)
        ids, mask = pad_batch([[6, 7, 8, 9]])
        enc = encode(cfg, P, ids, mask)
        n_rows = 10
        state = start_decoder(cfg, P, enc, mask)
        seqs = np.full((n_rows, 1), BOS)
        parents = np.zeros(n_rows, dtype=np.int64)
        for _ in range(cfg.max_output_len):
            state, logp = advance_decoder(cfg, P, state, parents, seqs[:, -1])
            states = _decoder_fwd(
                cfg, P, seqs, np.ones(seqs.shape),
                np.repeat(enc, n_rows, axis=0), np.repeat(mask, n_rows, axis=0),
            )
            logits = states[:, -1] @ P["embed"].T
            np.testing.assert_allclose(logp, logits - _logsumexp(logits), rtol=0, atol=1e-12)
            for r in (0, n_rows - 1):
                alone = decode_step(cfg, P, enc, mask, seqs[r : r + 1])
                np.testing.assert_allclose(logp[r : r + 1], alone, rtol=0, atol=1e-12)
            parents = rng.integers(0, n_rows, size=n_rows)
            tokens = rng.integers(EOS + 1, cfg.vocab_size, size=n_rows)
            seqs = np.concatenate([seqs[parents], tokens[:, None]], axis=1)


class TestAdvanceDecoderRows:
    """A row's bits from `advance_decoder` depend on its own prefix and
    input alone: alone (R=1), doubled, or at any place in batches of 2
    to 48 rows, from one-input and several-input states. The widths are
    a default-sized decoder over a vocabulary that is not a multiple of
    8, where a product with the `embed.T` view rounds rows differently
    once a batch passes about 20 rows, and odd widths everywhere, which
    take the zero-padded weight copies."""

    @pytest.mark.parametrize("widths", [
        dict(d_model=64, n_heads=4, d_ffn=128, vocab_size=58),
        dict(d_model=12, n_heads=3, d_ffn=20, vocab_size=9),
    ])
    @pytest.mark.parametrize("n_in", [1, 3])
    def test_row_bits_do_not_depend_on_the_batch(self, widths, n_in):
        cfg = tiny_cfg(n_layers=2, max_output_len=4, **widths)
        P = init_params(cfg)
        # logits as large as their log-sum-exp, so that a last-bit
        # change in one still shows in the log-probabilities
        P["embed"] *= 50.0
        rng = np.random.default_rng(n_in)
        enc = rng.normal(size=(n_in, 5, cfg.d_model))
        mask = np.ones((n_in, 5))
        n_rows = 48
        # one-token prefixes spread over the inputs
        example = rng.integers(0, n_in, size=n_rows)
        start = start_decoder(cfg, P, enc, mask)
        state, _ = advance_decoder(cfg, P, start, example, np.full(n_rows, BOS), example)
        tokens = rng.integers(EOS + 1, cfg.vocab_size, size=n_rows)

        def step(rows):
            """Each of `rows` stepped once, as a list of per-row bytes:
            its log-probabilities and its new keys and values."""
            new, logp = advance_decoder(cfg, P, state, rows, tokens[rows], example[rows])
            kvs = [a for layer in new.self_kv for a in layer]
            return [logp[i].tobytes() + b"".join(a[i].tobytes() for a in kvs)
                    for i in range(len(rows))]

        alone = [step(np.array([r]))[0] for r in range(n_rows)]
        for r in range(n_rows):
            assert step(np.array([r, r])) == [alone[r]] * 2
        for k in range(2, n_rows + 1):
            rows = rng.permutation(n_rows)[:k]
            assert step(rows) == [alone[r] for r in rows]


def assert_bitwise(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


def padded_mask(rng, n_rows, width):
    """1/0 key mask with random right padding; key 0 always attended."""
    lengths = rng.integers(1, width + 1, size=n_rows)
    lengths[0] = width
    return (np.arange(width)[None, :] < lengths[:, None]).astype(np.float64)


class TestInPlaceKernels:
    """The layer kernels work in place; they must equal the out-of-place
    formulas in tests/oracles.py bit for bit, on inputs wide enough that
    summing in another order changes the last bits."""

    @pytest.mark.parametrize("shape", [(4, 9, 20), (40, 24), (3, 5, 64)])
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(scale=3.0, size=shape) + 1.5
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        dout = rng.normal(size=shape)
        x_before = x.copy()
        out, cache = _ln_fwd(x, g, b)
        want_out, want_xhat, want_inv = oracles.ln_fwd_out_of_place(x, g, b)
        assert_bitwise(x, x_before, "input kept")
        assert_bitwise(out, want_out, "out")
        assert_bitwise(cache[0], want_xhat, "xhat")
        assert_bitwise(cache[1], want_inv, "inv")
        dout_before = dout.copy()
        got = _ln_bwd(dout, cache)
        want = oracles.ln_bwd_out_of_place(dout, want_xhat, want_inv, g)
        assert_bitwise(dout, dout_before, "dout kept")
        for name, gv, wv in zip(("dx", "dg", "db"), got, want):
            assert_bitwise(gv, wv, name)

    @pytest.mark.parametrize("tq,tk,causal", [
        (9, 9, True),    # decoder self-attention: causal plus key padding
        (9, 9, False),   # encoder self-attention: key padding
        (5, 11, False),  # cross-attention, Tq != Tk
        (1, 6, False),
    ])
    def test_attention(self, tq, tk, causal):
        rng = np.random.default_rng(100 * tq + tk)
        n_b, d, n_heads = 4, 16, 4
        q_in = rng.normal(size=(n_b, tq, d))
        kv_in = q_in if tq == tk else rng.normal(size=(n_b, tk, d))
        ws = [rng.normal(scale=0.5, size=(d, d)) for _ in range(4)]
        mask = padded_mask(rng, n_b, tk)
        dout = rng.normal(size=(n_b, tq, d))
        out, cache = _attn_fwd(q_in, kv_in, *ws, n_heads, mask, causal)
        want_out, want_attn, want_grads = oracles.attn_out_of_place(
            q_in, kv_in, *ws, n_heads, mask, causal, dout)
        assert_bitwise(out, want_out, "out")
        assert_bitwise(cache[5], want_attn, "attn")
        # the premise of the single bias: masked weights are exactly 0
        assert not np.where(mask[:, None, None, :] == 0, cache[5], 0.0).any()
        got = _attn_bwd(dout, cache)
        for name, gv, wv in zip(("dq_in", "dkv_in", "dwq", "dwk", "dwv", "dwo"), got, want_grads):
            assert_bitwise(gv, wv, name)

    @pytest.mark.parametrize("shape", [(3, 7, 16), (6, 16)])
    def test_ffn(self, shape):
        rng = np.random.default_rng(len(shape))
        d, d_ff = shape[-1], 24
        x = rng.normal(size=shape)
        w1, w2 = rng.normal(size=(d, d_ff)), rng.normal(size=(d_ff, d))
        b1, b2 = rng.normal(size=d_ff), rng.normal(size=d)
        dout = rng.normal(size=shape)
        out, cache = _ffn_fwd(x, w1, b1, w2, b2)
        want_out, want_grads = oracles.ffn_out_of_place(x, w1, b1, w2, b2, dout)
        assert_bitwise(out, want_out, "out")
        got = _ffn_bwd(dout, cache)
        for name, gv, wv in zip(("dx", "dw1", "db1", "dw2", "db2"), got, want_grads):
            assert_bitwise(gv, wv, name)


def disc_batch(cfg, seqs, classes):
    return [
        TaskInstance(task="disc", input_ids=tuple(s), example_id=f"d{i}", target_class=c)
        for i, (s, c) in enumerate(zip(seqs, classes))
    ]


def gen_batch(cfg, seqs, targets):
    return [
        TaskInstance(
            task="gen", input_ids=tuple(s), example_id=f"g{i}",
            target_ids=tuple(t) + (EOS,),
        )
        for i, (s, t) in enumerate(zip(seqs, targets))
    ]


class TestLossAndGrads:
    def test_disc_loss_matches_classifier_output(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        seqs, classes = [[6, 7, 8], [9, 10]], [0, 1]
        loss, _ = loss_and_grads(cfg, p, disc_batch(cfg, seqs, classes))
        logp = encode_and_classify(cfg, p, seqs)
        want = -np.mean([logp[i, c] for i, c in enumerate(classes)])
        assert loss == pytest.approx(want, abs=1e-12)

    def test_gen_loss_matches_stepwise_decoding(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        src = [6, 7, 8]
        target = [9, 10, EOS]
        batch = gen_batch(cfg, [src], [[9, 10]])
        loss, _ = loss_and_grads(cfg, p, batch)

        ids, mask = pad_batch([src])
        enc = encode(cfg, p, ids, mask)
        total = 0.0
        prefix = [BOS]
        for tok in target:
            logp = decode_step(cfg, p, enc, mask, [prefix])
            total -= logp[0, tok]
            prefix = prefix + [tok]
        assert loss == pytest.approx(total / len(target), abs=1e-10)

    def test_every_reached_tensor_gets_a_gradient(self):
        # a disc batch reaches all but the decoder, a gen batch all but
        # the classifier; no other tensor gets a key
        cfg = tiny_cfg(n_layers=2)
        p = init_params(cfg)
        for batch, unreached in ((disc_batch(cfg, [[6, 7]], [1]), "dec"),
                                 (gen_batch(cfg, [[6, 7]], [[8]]), "cls.")):
            _, grads = loss_and_grads(cfg, p, batch)
            assert grads.keys() == {k for k in p if not k.startswith(unreached)}
            for k, g in grads.items():
                assert g.shape == p[k].shape, k
                assert np.isfinite(g).all(), k

    def test_disc_batch_never_touches_decoder(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        _, grads = loss_and_grads(cfg, p, disc_batch(cfg, [[6, 7]], [1]))
        assert "dec0.self.wq" not in grads
        assert grads["cls.conv.w"].any()

    def test_gen_batch_never_touches_classifier(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        _, grads = loss_and_grads(cfg, p, gen_batch(cfg, [[6, 7]], [[8]]))
        assert "cls.conv.w" not in grads
        assert grads["dec0.self.wq"].any()

    def test_mixed_batch_rejected(self):
        cfg = tiny_cfg()
        p = init_params(cfg)
        batch = disc_batch(cfg, [[6]], [0]) + gen_batch(cfg, [[7]], [[8]])
        with pytest.raises(ValueError, match="mixes"):
            loss_and_grads(cfg, p, batch)

    def test_empty_batch_rejected(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError, match="empty"):
            loss_and_grads(cfg, init_params(cfg), [])

    @pytest.mark.parametrize("task", ["disc", "gen"])
    def test_finite_difference_spot_check(self, task):
        cfg = tiny_cfg()
        params = {k: v.astype(np.float64) for k, v in init_params(cfg).items()}
        if task == "disc":
            batch = disc_batch(cfg, [[6, 7, 8], [9, 10]], [0, 1])
            names = ["embed", "enc0.attn.wq", "cls.conv.w", "cls.proj.b"]
        else:
            batch = gen_batch(cfg, [[6, 7, 8], [9, 10]], [[11, 6], [7]])
            names = ["embed", "dec0.cross.wv", "dec0.ffn.w1", "enc0.ln1.g"]
        _, grads = loss_and_grads(cfg, params, batch)
        rng = np.random.default_rng(0)
        eps = 1e-5
        for name in names:
            flat = params[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                keep = flat[idx]
                flat[idx] = keep + eps
                up, _ = loss_and_grads(cfg, params, batch)
                flat[idx] = keep - eps
                down, _ = loss_and_grads(cfg, params, batch)
                flat[idx] = keep
                numeric = (up - down) / (2 * eps)
                analytic = grads[name].reshape(-1)[idx]
                assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-8), (name, idx)


def traced_bytes(fn):
    """(bytes held when fn returns, peak bytes while it ran), traced by
    tracemalloc, which numpy reports its buffers to; fn's result is
    held until both are read."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestStepMemory:
    """One training step and one encode at the desk shape (B 16, input
    T 41, D 64, F 128, 2 layers), against the bytes the forward pass
    leaves cached. The backward pass frees each cache once it has been
    read and gives no gradient to a tensor the batch does not reach, no
    path copies the parameters, and encode keeps no backward cache, so
    neither peaks far above that."""

    cfg = ExperimentConfig().model_config(vocab_size=68, n_classes=2)

    def batch(self, task):
        rng = np.random.default_rng(0)
        if task == "disc":
            return disc_batch(self.cfg, rng.integers(6, 68, (16, 41)).tolist(), [0, 1] * 8)
        return gen_batch(self.cfg, rng.integers(6, 68, (16, 30)).tolist(),
                         rng.integers(6, 68, (16, 11)).tolist())

    def cached(self, params, batch):
        return traced_bytes(lambda: _forward(self.cfg, params, batch))[0]

    @pytest.mark.parametrize("task", ["disc", "gen"])
    def test_step_peaks_near_its_forward_caches(self, task):
        params = init_params(self.cfg)
        batch = self.batch(task)
        loss_and_grads(self.cfg, params, batch)  # fill the position and mask tables
        cached = self.cached(params, batch)
        _, peak = traced_bytes(lambda: loss_and_grads(self.cfg, params, batch))
        assert peak <= 1.3 * cached, (peak, cached)

    def test_encode_peaks_below_the_step_caches(self):
        params = init_params(self.cfg)
        batch = self.batch("disc")
        ids, mask = pad_batch([inst.input_ids for inst in batch])
        encode(self.cfg, params, ids, mask)
        cached = self.cached(params, batch)
        _, peak = traced_bytes(lambda: encode(self.cfg, params, ids, mask))
        assert peak < 0.8 * cached, (peak, cached)


class TestCheckpoints:
    def test_bitwise_round_trip(self, tmp_path):
        cfg = tiny_cfg()
        p = init_params(cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(path, cfg, p)
        cfg2, p2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert p2.keys() == p.keys()
        for k in p:
            assert p[k].dtype == p2[k].dtype
            assert p2[k].tobytes() == p[k].tobytes(), k

    def test_save_is_deterministic(self, tmp_path):
        cfg = tiny_cfg()
        p = init_params(cfg)
        save_checkpoint(tmp_path / "a.bin", cfg, p)
        save_checkpoint(tmp_path / "b.bin", cfg, p)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @staticmethod
    def saved(tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.bin"
        save_checkpoint(path, cfg, init_params(cfg))
        return path

    def test_unknown_header_key_rejected(self, tmp_path):
        # e.g. a checkpoint written while ModelConfig still had a field
        # that has since been removed
        path = self.saved(tmp_path)
        edit_checkpoint_header(path, lambda h: h.update(label_smoothing=0.0))
        with pytest.raises(ValueError, match=r"model\.bin: checkpoint header: unknown key 'label_smoothing'"):
            load_checkpoint(path)

    def test_missing_header_key_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        edit_checkpoint_header(path, lambda h: h.pop("vocab_size"))
        with pytest.raises(ValueError, match=r"model\.bin: checkpoint header: .*'vocab_size'"):
            load_checkpoint(path)

    def test_truncated_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=r"model\.bin: truncated tensor 'cls\.proj\.b'"):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match=r"model\.bin: truncated header"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match=r"model\.bin: trailing bytes"):
            load_checkpoint(path)

    def test_tensor_shape_must_match_header(self, tmp_path):
        path = self.saved(tmp_path)
        edit_checkpoint_header(path, lambda h: h.update(d_ffn=16))
        with pytest.raises(ValueError, match=r"model\.bin: tensor 'enc0\.ffn\.w1' has shape \(8, 8\)"):
            load_checkpoint(path)

    def test_embed_rows_must_match_vocab_size(self, tmp_path):
        path = self.saved(tmp_path)
        edit_checkpoint_header(path, lambda h: h.update(vocab_size=13))
        with pytest.raises(ValueError, match=r"model\.bin: tensor 'embed' has shape \(12, 8\)"):
            load_checkpoint(path)

    def test_missing_and_unknown_tensors_rejected(self, tmp_path):
        cfg = tiny_cfg()
        p = init_params(cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(path, cfg, {k: v for k, v in p.items() if k != "cls.proj.b"})
        with pytest.raises(ValueError, match=r"model\.bin: missing tensor 'cls\.proj\.b'"):
            load_checkpoint(path)
        save_checkpoint(path, cfg, {**p, "extra": np.zeros(2, dtype=np.float32)})
        with pytest.raises(ValueError, match=r"model\.bin: unknown tensor 'extra'"):
            load_checkpoint(path)

    @staticmethod
    def set_first_shape(path, dims):
        """Overwrite the first tensor's (embed's) two shape fields."""
        raw = bytearray(path.read_bytes())
        start = len(CHECKPOINT_MAGIC)
        (hlen,) = struct.unpack("<I", raw[start : start + 4])
        at = start + 4 + hlen + 4 + 2 + len(b"embed") + 1
        raw[at : at + 8] = struct.pack("<2I", *dims)
        path.write_bytes(bytes(raw))

    def test_shape_claim_counted_without_wrapping(self, tmp_path):
        # (2^32 - 1)^2 elements overflow int64; the claim must stay exact
        path = self.saved(tmp_path)
        self.set_first_shape(path, (2**32 - 1, 2**32 - 1))
        claim = 4 * (2**32 - 1) ** 2
        with pytest.raises(ValueError, match=rf"model\.bin: truncated tensor 'embed' \(expected {claim} bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("claim", ["header", "tensor"])
    def test_claim_checked_before_reading(self, tmp_path, claim):
        path = self.saved(tmp_path)
        if claim == "header":
            raw = bytearray(path.read_bytes())
            start = len(CHECKPOINT_MAGIC)
            raw[start : start + 4] = struct.pack("<I", 3_000_000)
            path.write_bytes(bytes(raw))
            message = r"model\.bin: truncated header \(expected 3000000 bytes"
        else:
            self.set_first_shape(path, (1000, 1000))
            message = r"model\.bin: truncated tensor 'embed' \(expected 4000000 bytes"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the claim was never allocated

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h.update(d_model=8.0), r"d_model must be int, got 8\.0"),
        (lambda h: h.update(seed=True), r"seed must be int, got True"),
        (lambda h: h.update(n_heads=0), r"n_heads must be positive"),
        (lambda h: h.update(d_ffn=-8), r"d_ffn must be positive"),
    ])
    def test_header_values_checked(self, tmp_path, edit, message):
        path = self.saved(tmp_path)
        edit_checkpoint_header(path, edit)
        with pytest.raises(ValueError, match=r"model\.bin: checkpoint header: " + message):
            load_checkpoint(path)

    def test_header_not_json_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(CHECKPOINT_MAGIC) + 4] = 0xFF  # the header's opening brace
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"model\.bin: header is not UTF-8 JSON"):
            load_checkpoint(path)
        raw[len(CHECKPOINT_MAGIC) + 4] = ord("[")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"model\.bin: header is not UTF-8 JSON"):
            load_checkpoint(path)

    def test_size_grows_with_vocab(self, tmp_path):
        p_small = init_params(tiny_cfg(vocab_size=12))
        p_large = init_params(tiny_cfg(vocab_size=40))
        save_checkpoint(tmp_path / "s.bin", tiny_cfg(vocab_size=12), p_small)
        save_checkpoint(tmp_path / "l.bin", tiny_cfg(vocab_size=40), p_large)
        assert (tmp_path / "l.bin").stat().st_size > (tmp_path / "s.bin").stat().st_size
