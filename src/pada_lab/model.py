"""From-scratch encoder-decoder with a convolutional classification head.

Pre-norm transformer blocks, sinusoidal (non-trainable) positions, and a
token embedding matrix shared between the encoder input, decoder input,
and the generation softmax. All gradients are exact reverse-mode
derivations; no autodiff. Parameters live in a flat name->array dict of
float64 tensors whose values are float32 numbers: `init_params` draws in
float32, `load_checkpoint` reads float32 payloads and
`training.adam_step` rounds each update to float32. So checkpoints
round-trip bitwise, every kernel computes in float64 on the parameters
as they are, and gradient checks stay tight.

Shapes: B batch, T sequence length, D d_model, H heads, V vocab size,
C classes, F conv filters.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .corpus import BOS, PAD

CHECKPOINT_MAGIC = b"PADALAB-CKPT-v1\n"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_classes: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ffn: int = 128
    max_input_len: int = 128
    max_output_len: int = 40
    conv_filters: int = 32
    conv_width: int = 9
    seed: int = 0

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_heads", "d_ffn", "conv_filters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if self.conv_width < 1 or self.conv_width % 2 == 0:
            raise ValueError("conv_width must be odd and positive")
        if self.vocab_size < 6:
            raise ValueError("vocab_size must cover the special tokens")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.max_input_len < 1 or self.max_output_len < 1:
            raise ValueError("sequence length caps must be positive")


class ForwardTrace(NamedTuple):
    """Loss plus the tape: every cache the backward pass needs, in the
    order the forward pass computed them. `_backward` pops each one as
    it consumes it, so an activation is freed once nothing will read it
    again."""

    task: str
    loss: float
    tape: list


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter tensor, in `init_params` order."""
    D, F, V = cfg.d_model, cfg.d_ffn, cfg.vocab_size
    s: dict[str, tuple[int, ...]] = {"embed": (V, D)}
    for i in range(cfg.n_layers):
        pre = f"enc{i}."
        s[pre + "ln1.g"] = s[pre + "ln1.b"] = (D,)
        for nm in ("wq", "wk", "wv", "wo"):
            s[pre + "attn." + nm] = (D, D)
        s[pre + "ln2.g"] = s[pre + "ln2.b"] = (D,)
        s[pre + "ffn.w1"], s[pre + "ffn.b1"] = (D, F), (F,)
        s[pre + "ffn.w2"], s[pre + "ffn.b2"] = (F, D), (D,)
    s["enc.lnf.g"] = s["enc.lnf.b"] = (D,)
    for i in range(cfg.n_layers):
        pre = f"dec{i}."
        s[pre + "ln1.g"] = s[pre + "ln1.b"] = (D,)
        for nm in ("wq", "wk", "wv", "wo"):
            s[pre + "self." + nm] = (D, D)
        s[pre + "ln2.g"] = s[pre + "ln2.b"] = (D,)
        for nm in ("wq", "wk", "wv", "wo"):
            s[pre + "cross." + nm] = (D, D)
        s[pre + "ln3.g"] = s[pre + "ln3.b"] = (D,)
        s[pre + "ffn.w1"], s[pre + "ffn.b1"] = (D, F), (F,)
        s[pre + "ffn.w2"], s[pre + "ffn.b2"] = (F, D), (D,)
    s["dec.lnf.g"] = s["dec.lnf.b"] = (D,)
    s["cls.conv.w"], s["cls.conv.b"] = (cfg.conv_filters, cfg.conv_width, D), (cfg.conv_filters,)
    s["cls.proj.w"], s["cls.proj.b"] = (cfg.n_classes, cfg.conv_filters), (cfg.n_classes,)
    return s


def init_params(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Fresh parameters, deterministic given cfg.seed: a small normal
    embedding, Glorot-uniform weights (fan-in plus fan-out is the first
    dimension plus the product of the rest), unit layer-norm gains and
    zero biases, drawn in `param_shapes` order, rounded to float32 and
    held as float64."""
    rng = np.random.default_rng(cfg.seed)
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name == "embed":
            w = rng.normal(0.0, 0.02, size=shape)
        elif len(shape) == 1:
            w = (np.ones if name.endswith(".g") else np.zeros)(shape)
        else:
            lim = math.sqrt(6.0 / (shape[0] + math.prod(shape[1:])))
            w = rng.uniform(-lim, lim, size=shape)
        p[name] = w.astype(np.float32).astype(np.float64)
    return p


@lru_cache(maxsize=32)
def _pos_table(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    pe.setflags(write=False)
    return pe


def pad_batch(id_seqs, pad_id: int = PAD):
    """Stack variable-length id sequences into [B,T] ids and a 1/0 mask."""
    if not id_seqs:
        raise ValueError("empty batch")
    if any(len(s) == 0 for s in id_seqs):
        raise ValueError("empty sequence in batch")
    width = max(len(s) for s in id_seqs)
    ids = np.full((len(id_seqs), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(id_seqs), width), dtype=np.float64)
    for r, s in enumerate(id_seqs):
        ids[r, : len(s)] = s
        mask[r, : len(s)] = 1.0
    return ids, mask


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    s = e.sum(axis=-1, keepdims=True)
    m += np.log(s, out=s)
    return m


# --- primitives -------------------------------------------------------------

_LN_EPS = 1e-5


def _ln_fwd(x, g, b):
    # add.reduce / n is exactly ndarray.mean without its Python wrapper,
    # which costs more than the math at decoding sizes; _attn_fwd calls
    # the ufunc reductions directly for the same reason. The in-place
    # steps are the out-of-place formula's operations in the same order.
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xc = x - mu
    buf = np.multiply(xc, xc)
    var = np.add.reduce(buf, axis=-1, keepdims=True)
    var /= n
    var += _LN_EPS
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    xhat = xc
    xhat *= inv
    out = np.multiply(xhat, g, out=buf)
    out += b
    return out, (xhat, inv, g)


def _ln_bwd(dout, cache):
    xhat, inv, g = cache
    n = xhat.shape[-1]
    axes = tuple(range(xhat.ndim - 1))
    buf = np.multiply(dout, xhat)
    dg = buf.sum(axis=axes)
    db = dout.sum(axis=axes)
    # dx = (inv / n) * (n dxhat - sum(dxhat) - xhat sum(dxhat xhat)),
    # built in dxhat's buffer; only products swap operands
    dx = np.multiply(dout, g)
    s1 = dx.sum(axis=-1, keepdims=True)
    np.multiply(dx, xhat, out=buf)
    s2 = buf.sum(axis=-1, keepdims=True)
    np.multiply(xhat, s2, out=buf)
    dx *= n
    dx -= s1
    dx -= buf
    dx *= inv / n
    return dx, dg, db


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


_MASK_NEG = -1e9


@lru_cache(maxsize=64)
def _causal_mask(tq: int, tk: int) -> np.ndarray:
    m = np.triu(np.ones((tq, tk)), k=1)[None, None] * _MASK_NEG
    m.setflags(write=False)
    return m


def _attn_fwd(q_in, kv_in, wq, wk, wv, wo, n_heads, key_mask, causal):
    # q_in [B,Tq,D], kv_in [B,Tk,D], key_mask [B,Tk] with 1 = attend
    dh = q_in.shape[-1] // n_heads
    tq, tk = q_in.shape[1], kv_in.shape[1]
    q = _split_heads(q_in @ wq, n_heads)
    k = _split_heads(kv_in @ wk, n_heads)
    v = _split_heads(kv_in @ wv, n_heads)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= math.sqrt(dh)
    # One bias for both masks. Key 0 is unmasked in every row, so each
    # row's max is an unmasked score and every masked exp is exactly 0;
    # an unmasked score gains -0.0 either way.
    bias = (1.0 - key_mask)[:, None, None, :] * _MASK_NEG
    if causal:
        bias = bias + _causal_mask(tq, tk)
    scores += bias
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    attn = np.exp(scores, out=scores)
    attn /= np.add.reduce(attn, axis=-1, keepdims=True)
    merged = _merge_heads(attn @ v)
    out = merged @ wo
    return out, (q_in, kv_in, q, k, v, attn, merged, wq, wk, wv, wo, n_heads)


def _attn_bwd(dout, cache):
    # Each name is dropped once read for the last time: when the caller
    # hands over its only reference to the cache (`_backward` pops it
    # off the tape), the cached attention weights, heads and context
    # are freed as the gradients that read them are done.
    q_in, kv_in, q, k, v, attn, merged, wq, wk, wv, wo, n_heads = cache
    del cache
    d = q_in.shape[-1]
    dh = d // n_heads
    dwo = merged.reshape(-1, d).T @ dout.reshape(-1, d)
    del merged
    dctx = _split_heads(dout @ wo.T, n_heads)
    # dscores = attn * (dattn - sum(dattn * attn)) / sqrt(dh), in dattn's
    # buffer; the product's operands swap, which is exact
    dscores = dctx @ v.transpose(0, 1, 3, 2)  # dattn until the next step
    del v
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    del dctx
    row = np.multiply(dscores, attn).sum(axis=-1, keepdims=True)
    dscores -= row
    dscores *= attn
    del attn
    dscores /= math.sqrt(dh)
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    del dscores, q, k
    # one head split at a time back to [B,T,D]
    dq = _merge_heads(dq)
    dk = _merge_heads(dk)
    dv = _merge_heads(dv)
    dwq = q_in.reshape(-1, d).T @ dq.reshape(-1, d)
    dwk = kv_in.reshape(-1, d).T @ dk.reshape(-1, d)
    dwv = kv_in.reshape(-1, d).T @ dv.reshape(-1, d)
    del q_in, kv_in
    dq_in = dq @ wq.T
    del dq
    dkv_in = dk @ wk.T
    del dk
    dkv_in += dv @ wv.T
    return dq_in, dkv_in, dwq, dwk, dwv, dwo


def _ffn_fwd(x, w1, b1, w2, b2):
    h = x @ w1
    h += b1
    # relu in h's buffer: r > 0 exactly where h > 0, so the backward
    # pass masks with r
    r = np.maximum(h, 0.0, out=h)
    out = r @ w2
    out += b2
    return out, (x, r, w1, w2)


def _ffn_bwd(dout, cache):
    x, r, w1, w2 = cache
    del cache  # as in _attn_bwd
    din, dff = x.shape[-1], r.shape[-1]
    lead = tuple(range(dout.ndim - 1))
    db2 = dout.sum(axis=lead)
    dw2 = r.reshape(-1, dff).T @ dout.reshape(-1, din)
    dh = dout @ w2.T
    dh *= r > 0
    del r
    db1 = dh.sum(axis=lead)
    dw1 = x.reshape(-1, din).T @ dh.reshape(-1, dff)
    dx = dh @ w1.T
    return dx, dw1, db1, dw2, db2


def _ln_back(grads, name, dout, tape):
    """`_ln_bwd` on the cache on top of the tape; files the gain and
    bias gradients under `name` and returns the input gradient."""
    dx, grads[name + ".g"], grads[name + ".b"] = _ln_bwd(dout, tape.pop())
    return dx


def _ffn_back(grads, name, dout, tape):
    """`_ffn_bwd` likewise."""
    dx, *dw = _ffn_bwd(dout, tape.pop())
    grads.update(zip((name + ".w1", name + ".b1", name + ".w2", name + ".b2"), dw))
    return dx


def _attn_back(grads, name, dout, tape):
    """`_attn_bwd` likewise; returns the query-side and key/value-side
    input gradients."""
    dq_in, dkv_in, *dw = _attn_bwd(dout, tape.pop())
    grads.update(zip((name + ".wq", name + ".wk", name + ".wv", name + ".wo"), dw))
    return dq_in, dkv_in


def _self_attn_back(grads, name, dout, tape):
    """`_attn_back` where queries, keys and values read one input."""
    dq_in, dkv_in = _attn_back(grads, name, dout, tape)
    dq_in += dkv_in
    return dq_in


def _embed_back(cfg, grads, dx, ids):
    if "embed" not in grads:
        grads["embed"] = np.zeros((cfg.vocab_size, cfg.d_model))
    dx *= math.sqrt(cfg.d_model)
    np.add.at(grads["embed"], ids, dx)


# --- encoder / decoder ------------------------------------------------------


def _check_ids(cfg: ModelConfig, ids: np.ndarray, mask: np.ndarray, limit: int, what: str):
    if ids.ndim != 2:
        raise ValueError(f"{what} ids must be 2-d")
    if ids.shape[1] > limit:
        raise ValueError(f"{what} length {ids.shape[1]} exceeds cap {limit}")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= cfg.vocab_size:
        bad = ids[(ids < 0) | (ids >= cfg.vocab_size)][0]
        raise ValueError(f"token id {int(bad)} outside vocabulary of size {cfg.vocab_size}")
    if (mask.sum(axis=1) == 0).any():
        raise ValueError(f"empty sequence: a {what} row is all padding")


def _embed_fwd(cfg, P, ids):
    x = P["embed"][ids]
    x *= math.sqrt(cfg.d_model)
    x += _pos_table(ids.shape[1], cfg.d_model)
    return x


def _encoder_fwd(cfg, P, ids, mask, tape=None):
    """Encoder states [B,T,D]. Given a tape, pushes ids and then each
    kernel's cache onto it for `_encoder_bwd`; without one, each cache
    is dropped as soon as the next kernel has run."""
    push = tape.append if tape is not None else lambda cache: None
    push(ids)
    x = _embed_fwd(cfg, P, ids)
    for i in range(cfg.n_layers):
        pre = f"enc{i}."
        h, c = _ln_fwd(x, P[pre + "ln1.g"], P[pre + "ln1.b"])
        push(c)
        a, c = _attn_fwd(
            h, h, P[pre + "attn.wq"], P[pre + "attn.wk"], P[pre + "attn.wv"],
            P[pre + "attn.wo"], cfg.n_heads, mask, causal=False,
        )
        push(c)
        x += a  # no cache holds the residual stream
        h, c = _ln_fwd(x, P[pre + "ln2.g"], P[pre + "ln2.b"])
        push(c)
        f, c = _ffn_fwd(h, P[pre + "ffn.w1"], P[pre + "ffn.b1"], P[pre + "ffn.w2"], P[pre + "ffn.b2"])
        push(c)
        x += f
    out, c = _ln_fwd(x, P["enc.lnf.g"], P["enc.lnf.b"])
    push(c)
    return out


def _encoder_bwd(cfg, dout, tape, grads):
    """Pops what `_encoder_fwd` pushed, last first. Each residual
    branch's input gradient is added to the stream's as it returns."""
    dx = _ln_back(grads, "enc.lnf", dout, tape)
    for i in reversed(range(cfg.n_layers)):
        pre = f"enc{i}."
        dx += _ln_back(grads, pre + "ln2", _ffn_back(grads, pre + "ffn", dx, tape), tape)
        dx += _ln_back(grads, pre + "ln1", _self_attn_back(grads, pre + "attn", dx, tape), tape)
    _embed_back(cfg, grads, dx, tape.pop())


def _decoder_fwd(cfg, P, ids, mask, enc_states, enc_mask, tape=None):
    """Decoder states [B,T,D]; a tape is filled as in `_encoder_fwd`."""
    push = tape.append if tape is not None else lambda cache: None
    push(ids)
    x = _embed_fwd(cfg, P, ids)
    for i in range(cfg.n_layers):
        pre = f"dec{i}."
        h, c = _ln_fwd(x, P[pre + "ln1.g"], P[pre + "ln1.b"])
        push(c)
        a, c = _attn_fwd(
            h, h, P[pre + "self.wq"], P[pre + "self.wk"], P[pre + "self.wv"],
            P[pre + "self.wo"], cfg.n_heads, mask, causal=True,
        )
        push(c)
        x += a  # no cache holds the residual stream
        h, c = _ln_fwd(x, P[pre + "ln2.g"], P[pre + "ln2.b"])
        push(c)
        a, c = _attn_fwd(
            h, enc_states, P[pre + "cross.wq"], P[pre + "cross.wk"], P[pre + "cross.wv"],
            P[pre + "cross.wo"], cfg.n_heads, enc_mask, causal=False,
        )
        push(c)
        x += a
        h, c = _ln_fwd(x, P[pre + "ln3.g"], P[pre + "ln3.b"])
        push(c)
        f, c = _ffn_fwd(h, P[pre + "ffn.w1"], P[pre + "ffn.b1"], P[pre + "ffn.w2"], P[pre + "ffn.b2"])
        push(c)
        x += f
    out, c = _ln_fwd(x, P["dec.lnf.g"], P["dec.lnf.b"])
    push(c)
    return out


def _decoder_bwd(cfg, dout, tape, grads):
    """Pops what `_decoder_fwd` pushed, as `_encoder_bwd` does; returns
    the gradient wrt the encoder states (from cross-attention)."""
    dx = _ln_back(grads, "dec.lnf", dout, tape)
    del dout
    denc = None
    for i in reversed(range(cfg.n_layers)):
        pre = f"dec{i}."
        dx += _ln_back(grads, pre + "ln3", _ffn_back(grads, pre + "ffn", dx, tape), tape)
        dq_in, dkv_enc = _attn_back(grads, pre + "cross", dx, tape)
        if denc is None:
            denc = dkv_enc
        else:
            denc += dkv_enc
        dx += _ln_back(grads, pre + "ln2", dq_in, tape)
        dx += _ln_back(grads, pre + "ln1", _self_attn_back(grads, pre + "self", dx, tape), tape)
    _embed_back(cfg, grads, dx, tape.pop())
    return denc


# --- classification head ----------------------------------------------------


def _classify_fwd(cfg, P, states, mask):
    x = states * mask[..., None]
    w, b = P["cls.conv.w"], P["cls.conv.b"]  # [F,W,D], [F]
    n_f, width, _ = w.shape
    pad = (width - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    n_b, n_t = mask.shape
    conv = np.broadcast_to(b, (n_b, n_t, n_f)).copy()
    for k in range(width):
        conv += xp[:, k : k + n_t, :] @ w[:, k, :].T
    visible = np.where(mask[..., None] > 0, conv, -np.inf)
    idx = visible.argmax(axis=1)  # [B,F], first max wins ties
    b_idx = np.arange(n_b)[:, None]
    f_idx = np.arange(n_f)[None, :]
    pooled = conv[b_idx, idx, f_idx]
    logits = pooled @ P["cls.proj.w"].T + P["cls.proj.b"]
    logp = logits - _logsumexp(logits)
    return logp, (xp, mask, idx, pooled, w, P["cls.proj.w"])


def _classify_bwd(dlogits, cache, grads):
    xp, mask, idx, pooled, w, pw = cache
    n_b, n_t = mask.shape
    n_f, width, _ = w.shape
    grads["cls.proj.w"] = dlogits.T @ pooled
    grads["cls.proj.b"] = dlogits.sum(axis=0)
    dpooled = dlogits @ pw
    dconv = np.zeros((n_b, n_t, n_f), dtype=pooled.dtype)
    b_idx = np.arange(n_b)[:, None]
    f_idx = np.arange(n_f)[None, :]
    dconv[b_idx, idx, f_idx] = dpooled
    grads["cls.conv.b"] = dconv.sum(axis=(0, 1))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    # as [F, B*T] @ [B*T, D] the product runs on BLAS; einsum does not
    dconv_t = dconv.reshape(-1, n_f).T
    for k in range(width):
        dw[:, k, :] = dconv_t @ xp[:, k : k + n_t, :].reshape(n_b * n_t, -1)
        dxp[:, k : k + n_t, :] += dconv @ w[:, k, :]
    grads["cls.conv.w"] = dw
    pad = (width - 1) // 2
    return dxp[:, pad : pad + n_t, :] * mask[..., None]


# --- public ops -------------------------------------------------------------


def encode(cfg: ModelConfig, params: dict, ids, mask=None) -> np.ndarray:
    """Contextual encoder states [B,T,D] for padded id batches."""
    ids = np.asarray(ids, dtype=np.int64)
    if mask is None:
        mask = (ids != PAD).astype(np.float64)
    else:
        mask = np.asarray(mask, dtype=np.float64)
    _check_ids(cfg, ids, mask, cfg.max_input_len, "input")
    return _encoder_fwd(cfg, params, ids, mask)


def classify(cfg: ModelConfig, params: dict, states, mask) -> np.ndarray:
    """Class log-probabilities [B,C] from encoder states.

    1D convolution over the unpadded positions, max-pool per filter,
    affine map, log-softmax.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if (mask.sum(axis=1) == 0).any():
        raise ValueError("classification needs at least one unpadded position")
    logp, _ = _classify_fwd(cfg, params, np.asarray(states, dtype=np.float64), mask)
    return logp


class DecoderState(NamedTuple):
    """Incremental decoding of R rows over one encoder batch of B rows;
    `advance_decoder` is told which encoder row each row reads.

    cross: per layer, the encoder states' cross-attention keys
    [B,H,dh,Tk] (pre-transposed) and values [B,H,Tk,dh], projected once.
    enc_bias: [B,1,1,Tk] additive key mask of the encoder padding.
    weights: the decoder's weight matrices as `_gemm_weight` copies, by
    parameter name; "embed.T" is the vocabulary projection.
    self_kv: per layer, the self-attention keys and values [R,H,t,dh]
    of the t tokens consumed so far; length is t.
    """

    cross: tuple
    enc_bias: np.ndarray
    weights: dict
    self_kv: tuple
    length: int


# A row of a 2-D product against a C-ordered weight with a multiple of
# 8 columns gets the same bits for every row count from 2 up and at
# every position (measured with OpenBLAS 0.3.31 on x86_64 with AVX-512,
# for 1-170 rows, inner sizes 1-256 and 8-4048 columns). Other column
# counts, and a transposed view, round some rows differently once the
# row count crosses a tile or kernel boundary; numpy hands a lone row
# to gemv, which rounds differently again.
_GEMM_COLS = 8


def _gemm_weight(w):
    """w C-ordered, its columns zero-padded to a multiple of _GEMM_COLS."""
    pad = -w.shape[1] % _GEMM_COLS
    if not pad and w.flags.c_contiguous:
        return w
    out = np.zeros((w.shape[0], w.shape[1] + pad))
    out[:, : w.shape[1]] = w
    return out


def _gemm(h, w, width):
    """The first `width` columns of h [R,K] @ w, one product for every
    row, for a `_gemm_weight` w: each row gets the bits it would get in
    any other batch. A lone row is computed as two copies of itself."""
    rows = len(h)
    if rows == 1:
        h = np.concatenate((h, h))
    return (h @ w)[:rows, :width]


def start_decoder(cfg: ModelConfig, P: dict, enc_states, enc_mask) -> DecoderState:
    """A state with one row per encoder row and no tokens consumed."""
    enc_states = np.asarray(enc_states, dtype=np.float64)
    n_b = enc_states.shape[0]
    empty = np.zeros((n_b, cfg.n_heads, 0, cfg.d_model // cfg.n_heads))
    cross = []
    weights = {"embed.T": _gemm_weight(P["embed"].T)}
    for i in range(cfg.n_layers):
        pre = f"dec{i}."
        k = _split_heads(enc_states @ P[pre + "cross.wk"], cfg.n_heads)
        v = _split_heads(enc_states @ P[pre + "cross.wv"], cfg.n_heads)
        cross.append((k.transpose(0, 1, 3, 2), v))
        for name in ("self.wq", "self.wk", "self.wv", "self.wo", "cross.wq", "cross.wo",
                     "ffn.w1", "ffn.w2"):
            weights[pre + name] = _gemm_weight(P[pre + name])
    bias = (1.0 - np.asarray(enc_mask, dtype=np.float64))[:, None, None, :] * _MASK_NEG
    return DecoderState(tuple(cross), bias, weights, ((empty, empty),) * cfg.n_layers, 0)


def _attend(q, kt, v, bias=None):
    # q [..,H,1,dh], kt [..,H,dh,Tk], v [..,H,Tk,dh] -> context [..,H,1,dh];
    # every product is one (row, head) block, so leading dims batch exactly
    scores = q @ kt / math.sqrt(q.shape[-1])
    if bias is not None:
        scores = scores + bias
    scores = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    e = np.exp(scores)
    return (e / np.add.reduce(e, axis=-1, keepdims=True)) @ v


def _attend_inputs(q, kt, v, bias, example, slot, width):
    """Cross-attention of rows q [R,H,1,dh] to the encoder rows
    `example` names, with kt, v and bias stacked over B encoder rows.
    Row r sits at [example[r], slot[r]] of a [B, width] grid, so the
    keys and values broadcast per input and are never copied per row."""
    grid = np.zeros((len(kt), width) + q.shape[1:])
    grid[example, slot] = q
    return _attend(grid, kt[:, None], v[:, None], bias[:, None])[example, slot]


def advance_decoder(cfg: ModelConfig, P: dict, state: DecoderState, parents, tokens,
                    example=None):
    """Feed one token to each of R rows; row r continues the prefix of
    row parents[r] of `state`, so reordering a beam is one fancy index
    per layer. Returns the new state and next-token log-probabilities
    [R,V].

    Per row this is the last position of `_decoder_fwd` over the whole
    prefix: earlier positions are causal-masked from later ones, so
    their keys and values never change once computed.

    With B > 1 encoder rows, `example` [R] is the encoder row each row
    reads (by default row r). Each weight is one 2-D product over all
    rows (`_gemm`) and each attention product is one (row, head) block,
    so a row's bits depend on its own prefix and input alone, not on
    the other rows, their number or its place among them: a batch of
    inputs decodes bit for bit as each input would alone.
    """
    if state.length >= cfg.max_output_len:
        raise ValueError(f"prefix exceeds max_output_len={cfg.max_output_len}")
    tokens = np.asarray(tokens, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    n_rows, n_b = len(tokens), len(state.enc_bias)
    if n_b > 1:
        example = np.arange(n_rows) if example is None else np.asarray(example, dtype=np.int64)
        # each row's place among the rows of its input
        by_input = np.argsort(example, kind="stable")
        counts = np.bincount(example, minlength=n_b)
        slot = np.empty_like(by_input)
        slot[by_input] = np.arange(n_rows) - np.repeat(np.cumsum(counts) - counts, counts)
    H, D, W = cfg.n_heads, cfg.d_model, state.weights

    def heads(a):  # [R,D] -> [R,H,1,dh]
        return a.reshape(n_rows, H, 1, D // H)

    x = (P["embed"][tokens] * math.sqrt(D)
         + _pos_table(cfg.max_output_len, D)[state.length])
    self_kv = []
    for i in range(cfg.n_layers):
        pre = f"dec{i}."
        h, _ = _ln_fwd(x, P[pre + "ln1.g"], P[pre + "ln1.b"])
        q = heads(_gemm(h, W[pre + "self.wq"], D))
        k_old, v_old = state.self_kv[i]
        k = np.concatenate((k_old[parents], heads(_gemm(h, W[pre + "self.wk"], D))), axis=2)
        v = np.concatenate((v_old[parents], heads(_gemm(h, W[pre + "self.wv"], D))), axis=2)
        self_kv.append((k, v))
        # no mask: the newest token sees every consumed one
        ctx = _attend(q, k.transpose(0, 1, 3, 2), v)
        x = x + _gemm(ctx.reshape(n_rows, D), W[pre + "self.wo"], D)
        h, _ = _ln_fwd(x, P[pre + "ln2.g"], P[pre + "ln2.b"])
        kt, v = state.cross[i]
        q = heads(_gemm(h, W[pre + "cross.wq"], D))
        if n_b == 1:
            ctx = _attend(q, kt, v, state.enc_bias)
        else:
            ctx = _attend_inputs(q, kt, v, state.enc_bias, example, slot, int(counts.max()))
        x = x + _gemm(ctx.reshape(n_rows, D), W[pre + "cross.wo"], D)
        h, _ = _ln_fwd(x, P[pre + "ln3.g"], P[pre + "ln3.b"])
        f = _gemm(h, W[pre + "ffn.w1"], cfg.d_ffn)
        f += P[pre + "ffn.b1"]
        np.maximum(f, 0.0, out=f)
        f = _gemm(f, W[pre + "ffn.w2"], D)
        f += P[pre + "ffn.b2"]
        x = x + f
    out, _ = _ln_fwd(x, P["dec.lnf.g"], P["dec.lnf.b"])
    logits = _gemm(out, W["embed.T"], cfg.vocab_size)
    new = state._replace(self_kv=tuple(self_kv), length=state.length + 1)
    return new, logits - _logsumexp(logits)


def decode_step(cfg: ModelConfig, params: dict, enc_states, enc_mask, prefixes) -> np.ndarray:
    """Next-token log-probabilities [B,V] given BOS-started prefixes.

    Prefixes in a batch must share one length. One-shot form of the
    incremental decoder: feeds each prefix token by token through
    `advance_decoder`, which beam search drives directly.
    """
    prefix = np.asarray(prefixes, dtype=np.int64)
    if prefix.ndim != 2:
        raise ValueError("prefixes must be [B,T]")
    if (prefix[:, 0] != BOS).any():
        raise ValueError("decoder prefixes must start with BOS")
    if prefix.shape[1] - 1 >= cfg.max_output_len:
        raise ValueError(f"prefix exceeds max_output_len={cfg.max_output_len}")
    if prefix.min() < 0 or prefix.max() >= cfg.vocab_size:
        raise ValueError("prefix token id outside vocabulary")
    state = start_decoder(cfg, params, enc_states, enc_mask)
    parents = np.zeros(prefix.shape[0], dtype=np.int64)  # all start empty
    for t in range(prefix.shape[1]):
        state, logp = advance_decoder(cfg, params, state, parents, prefix[:, t])
        parents = np.arange(prefix.shape[0])
    return logp


def _forward(cfg: ModelConfig, P: dict, batch) -> ForwardTrace:
    task = batch[0].task
    if any(inst.task != task for inst in batch):
        raise ValueError("batch mixes generative and discriminative instances")
    ids, mask = pad_batch([inst.input_ids for inst in batch])
    _check_ids(cfg, ids, mask, cfg.max_input_len, "input")
    tape: list = []
    enc_states = _encoder_fwd(cfg, P, ids, mask, tape)

    if task == "disc":
        targets = np.asarray([inst.target_class for inst in batch], dtype=np.int64)
        if targets.min() < 0 or targets.max() >= cfg.n_classes:
            raise ValueError("class target outside declared range")
        logp, cls_cache = _classify_fwd(cfg, P, enc_states, mask)
        loss = -float(logp[np.arange(len(batch)), targets].mean())
        tape += [cls_cache, (logp, targets)]
        return ForwardTrace(task, loss, tape)

    if task != "gen":
        raise ValueError(f"unknown task {task!r}")
    target, tmask = pad_batch([inst.target_ids for inst in batch])
    if target.shape[1] > cfg.max_output_len:
        raise ValueError(f"target length {target.shape[1]} exceeds cap {cfg.max_output_len}")
    dec_in = np.concatenate(
        [np.full((target.shape[0], 1), BOS, dtype=np.int64), target[:, :-1]], axis=1
    )
    dec_mask = (dec_in != PAD).astype(np.float64)
    dec_states = _decoder_fwd(cfg, P, dec_in, dec_mask, enc_states, mask, tape)
    logp = dec_states @ P["embed"].T
    logp -= _logsumexp(logp)
    n_tok = tmask.sum()
    b_idx = np.arange(target.shape[0])[:, None]
    t_idx = np.arange(target.shape[1])[None, :]
    nll = -(logp[b_idx, t_idx, target] * tmask).sum() / n_tok
    tape.append((dec_states, logp, target, tmask, n_tok))
    return ForwardTrace(task, float(nll), tape)


def _backward(cfg: ModelConfig, P: dict, task: str, tape: list) -> dict[str, np.ndarray]:
    """Gradients of the tensors the task reaches, emptying the tape."""
    grads: dict[str, np.ndarray] = {}
    if task == "disc":
        logp, targets = tape.pop()
        n = len(targets)
        dlogits = np.exp(logp, out=logp)
        dlogits[np.arange(n), targets] -= 1.0
        dlogits /= n
        dstates = _classify_bwd(dlogits, tape.pop(), grads)
    else:
        # passed as a temporary, so the decoder frees it once read
        dstates = _decoder_bwd(cfg, _gen_loss_bwd(P, tape.pop(), grads), tape, grads)
    _encoder_bwd(cfg, dstates, tape, grads)
    return grads


def _gen_loss_bwd(P, cache, grads):
    """The token NLL's gradient wrt the decoder states; files the output
    projection's share of the embedding gradient."""
    dec_states, logp, target, tmask, n_tok = cache
    del cache  # as in _attn_bwd
    b_idx = np.arange(target.shape[0])[:, None]
    t_idx = np.arange(target.shape[1])[None, :]
    dlogits = np.exp(logp, out=logp)
    del logp
    dlogits[b_idx, t_idx, target] -= 1.0
    dlogits *= tmask[..., None] / n_tok
    grads["embed"] = np.einsum("btv,btd->vd", dlogits, dec_states)
    del dec_states
    return dlogits @ P["embed"]


def loss_and_grads(cfg: ModelConfig, params: dict, batch):
    """Mean loss over one task-homogeneous batch plus exact gradients
    for the tensors the task reaches: a disc batch reaches `embed`, the
    encoder and the classifier, a gen batch `embed`, the encoder and the
    decoder. No other tensor gets a key (`adam_step` reads a missing
    gradient as zero).

    Generative batches use teacher forcing with PAD positions excluded
    from the token-level mean; discriminative batches use mean class NLL.
    """
    if not batch:
        raise ValueError("empty batch")
    task, loss, tape = _forward(cfg, params, batch)
    return loss, _backward(cfg, params, task, tape)


# --- checkpoints ------------------------------------------------------------


def save_checkpoint(path, cfg: ModelConfig, params: dict[str, np.ndarray]) -> None:
    """Single binary file: magic, JSON config header, then named
    row-major float32 tensor payloads."""
    header = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            data = np.ascontiguousarray(arr, dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.tobytes(order="C"))


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def config_from_dict(cls, values, where: str):
    """cls(**values), reporting a non-object, an unknown key, a missing
    key or a value of the wrong JSON type as a ValueError that names
    `where`. `cls` is a dataclass of int, float and str fields."""
    if not isinstance(values, dict):
        raise ValueError(f"{where}: expected a JSON object")
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")
    for f in fields(cls):
        v = values.get(f.name)
        # f.type is the annotation's text (postponed annotations)
        if f.name in values and (isinstance(v, bool) or not isinstance(v, _JSON_TYPES[f.type])):
            raise ValueError(f"{where}: {f.name} must be {f.type}, got {v!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:  # a required key is missing, a value out of range
        raise ValueError(f"{where}: {e}") from e


def _read_exact(f, n: int, size: int, path, what: str) -> bytes:
    """n bytes from f, a file of `size` bytes. The claim is checked
    against the bytes left before reading, so a corrupt length never
    allocates what it claims."""
    left = size - f.tell()
    if n > left:
        raise ValueError(f"{path}: truncated {what} (expected {n} bytes, {left} left)")
    return f.read(n)


def load_checkpoint(path):
    """Inverse of save_checkpoint, the float32 payloads read as float64
    arrays (see the module docstring). A malformed file raises ValueError
    naming the path: bad magic, a header that is not a JSON config,
    truncation or a length claiming more bytes than are left, bytes
    after the last tensor, or a tensor missing, unknown or shaped
    other than `param_shapes` gives for the header's config."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a model checkpoint (bad magic): {path}")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, size, path, "header length"))
        raw_header = _read_exact(f, hlen, size, path, "header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except ValueError as e:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: header is not UTF-8 JSON ({e})") from e
        cfg = config_from_dict(ModelConfig, header, f"{path}: checkpoint header")
        (count,) = struct.unpack("<I", _read_exact(f, 4, size, path, "tensor count"))
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2, size, path, "tensor name length"))
            raw_name = _read_exact(f, nlen, size, path, "tensor name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: tensor name is not UTF-8") from e
            what = f"tensor {name!r}"
            (ndim,) = struct.unpack("<B", _read_exact(f, 1, size, path, what))
            shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, size, path, what))
            data = _read_exact(f, 4 * math.prod(shape), size, path, what)  # Python ints
            params[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last tensor")
    expected = param_shapes(cfg)
    missing = sorted(expected.keys() - params.keys())
    if missing:
        raise ValueError(f"{path}: missing tensor {missing[0]!r}")
    for name, arr in params.items():
        if name not in expected:
            raise ValueError(f"{path}: unknown tensor {name!r}")
        if arr.shape != expected[name]:
            raise ValueError(
                f"{path}: tensor {name!r} has shape {arr.shape}, "
                f"the header's config needs {expected[name]}"
            )
    return cfg, params
