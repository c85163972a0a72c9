"""Brute-force reference implementations the suite checks against.

Everything here is deliberately naive: plain loops, dicts, and
math.log2, sharing no code path with the package. Slow and obvious
beats fast and clever for an oracle. The one exception is the decoder
scorer for the beam oracles, which re-runs the training decoder over
each whole prefix: it shares the model, but not the incremental decoder
that beam search steps. The numpy formulas at the end are the in-place
kernels' reference, written one fresh array per step.
"""

from __future__ import annotations

import math

import numpy as np

from pada_lab.corpus import BOS
from pada_lab.model import _decoder_fwd, _logsumexp


def mi_bruteforce(docs_by_domain: dict[str, list[list[str]]], domain_j: str) -> dict[str, float]:
    """Document-level presence MI in bits, from explicit 2x2 tables."""
    docs = []
    for domain, doc_list in docs_by_domain.items():
        for tokens in doc_list:
            docs.append((set(tokens), domain == domain_j))
    n = len(docs)
    vocab = sorted(set().union(*(toks for toks, _ in docs)))
    out = {}
    for token in vocab:
        mi = 0.0
        for t_val in (False, True):
            for d_val in (False, True):
                joint = sum(
                    1 for toks, flag in docs if (token in toks) == t_val and flag == d_val
                )
                t_marg = sum(1 for toks, _ in docs if (token in toks) == t_val)
                d_marg = sum(1 for _, flag in docs if flag == d_val)
                if joint > 0:
                    mi += (joint / n) * math.log2(joint * n / (t_marg * d_marg))
        out[token] = mi
    return out


def occurrence_counts(docs_by_domain: dict[str, list[list[str]]]) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for domain, doc_list in docs_by_domain.items():
        c: dict[str, int] = {}
        for tokens in doc_list:
            for t in tokens:
                c[t] = c.get(t, 0) + 1
        counts[domain] = c
    return counts


def drf_bruteforce(
    docs_by_domain: dict[str, list[list[str]]], domain_j: str, rho: float, k: int
) -> list[tuple[str, float, float]]:
    """Full reference pipeline: MI ranking, ratio filter, truncation."""
    mi = mi_bruteforce(docs_by_domain, domain_j)
    counts = occurrence_counts(docs_by_domain)
    inside = counts[domain_j]
    outside: dict[str, int] = {}
    for domain, c in counts.items():
        if domain == domain_j:
            continue
        for t, v in c.items():
            outside[t] = outside.get(t, 0) + v
    ranked = sorted(mi, key=lambda t: (-mi[t], t))
    result = []
    for token in ranked:
        c_in = inside.get(token, 0)
        if c_in <= 0:
            continue
        ratio = outside.get(token, 0) / c_in
        if ratio <= rho:
            result.append((token, mi[token], ratio))
        if len(result) == k:
            break
    return result


def annotation_bruteforce(
    example_tokens: list[str],
    profile_tokens: list[str],
    vectors: dict[str, list[float]],
    unk_token: str,
    m: int,
) -> list[str]:
    """Exhaustive pairwise-distance selection with the documented
    tie-break: distance, then position in the profile, then token."""

    def vec(token):
        return vectors.get(token, vectors[unk_token])

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(vec(a), vec(b))))

    seen = []
    for t in example_tokens:
        if t not in seen:
            seen.append(t)
    scored = []
    for rank, r in enumerate(profile_tokens):
        best = min(dist(r, t) for t in seen)
        scored.append((best, rank, r))
    scored.sort()
    return [token for _, _, token in scored[:m]]


def annotation_scalar_loop(
    example_tokens: list[str],
    profile_tokens: list[str],
    vectors: dict,
    unk_token: str,
    m: int,
) -> tuple[list[str], list[float]]:
    """The nearest-m selection with one numpy d.dot(d) per (feature,
    token) pair, d the difference of their vectors, and the square root
    of each feature's smallest square. Returns the tokens and their
    distances, ties broken by profile position, then token."""

    def vec(token):
        return vectors.get(token, vectors[unk_token])

    distinct = list(dict.fromkeys(example_tokens))
    scored = []
    for rank, r in enumerate(profile_tokens):
        squares = []
        for t in distinct:
            d = vec(r) - vec(t)
            squares.append(float(d.dot(d)))
        scored.append((math.sqrt(min(squares)), rank, r))
    scored.sort()
    keep = scored[:m]
    return [r for _, _, r in keep], [dist for dist, _, _ in keep]


def f1_bruteforce(y_true: list[str], y_pred: list[str], positive: str) -> float:
    """Binary F1 from an explicitly assembled confusion matrix."""
    matrix: dict[tuple[str, str], int] = {}
    for t, p in zip(y_true, y_pred):
        matrix[(t, p)] = matrix.get((t, p), 0) + 1
    tp = matrix.get((positive, positive), 0)
    fp = sum(v for (t, p), v in matrix.items() if p == positive and t != positive)
    fn = sum(v for (t, p), v in matrix.items() if t == positive and p != positive)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def macro_f1_bruteforce(y_true: list[str], y_pred: list[str], labels: list[str]) -> float:
    return sum(f1_bruteforce(y_true, y_pred, lab) for lab in labels) / len(labels)


def teacher_forced_logp(cfg, params, enc, mask, prefixes) -> np.ndarray:
    """Next-token log-probabilities after each prefix (ids after BOS),
    one row per prefix, by the training decoder (`model._decoder_fwd`)
    run teacher-forced over BOS + prefix, with the one input's encoder
    states repeated per row."""
    ids = np.array([(BOS,) + tuple(p) for p in prefixes], dtype=np.int64)
    n = len(prefixes)
    states = _decoder_fwd(
        cfg, params, ids, np.ones(ids.shape), np.repeat(enc, n, axis=0), np.repeat(mask, n, axis=0)
    )
    logits = states[:, -1] @ params["embed"].T
    return logits - _logsumexp(logits)


def beam_exhaustive(
    score_fn, vocab_size: int, eos: int, max_len: int, top: int
) -> list[tuple[tuple[int, ...], float]]:
    """Enumerate every EOS-terminated sequence up to max_len and rank by
    total log-probability; score_fn(prefix_ids) -> per-token logp list.

    Interior positions never hold EOS (a hypothesis ends the moment EOS
    is emitted); at max_len the final token must be EOS.
    """
    results = []

    def walk(prefix: tuple[int, ...], score: float):
        logp = score_fn(prefix)
        if len(prefix) == max_len - 1:
            results.append((prefix + (eos,), score + logp[eos]))
            return
        for tok in range(vocab_size):
            if tok == eos:
                results.append((prefix + (eos,), score + logp[eos]))
            else:
                walk(prefix + (tok,), score + logp[tok])

    walk((), 0.0)
    results.sort(key=lambda pair: (-pair[1], pair[0]))
    return results[:top]


def diverse_beam_naive(
    score_rows, vocab_size: int, eos: int, max_len: int,
    num_groups: int, group_width: int, penalty: float, top: int,
) -> list[tuple[tuple[int, ...], float]]:
    """Diverse beam search one group at a time; score_rows(prefixes)
    -> one per-token logp list per prefix, called once per group and
    step on that group's unfinished prefixes.

    A group's token scores drop by penalty times the number of times
    earlier groups kept that token at this step. Within a group the
    top group_width extensions by (-penalized score, ids) are kept; an
    extension ending in EOS is finished and leaves the beam. At max_len
    only EOS may be emitted. Finished sequences rank by raw score, then
    ids.
    """
    groups = [[((), 0.0, 0.0)] for _ in range(num_groups)]
    finished = []
    for step in range(max_len):
        if not any(groups):
            break
        emitted = [0] * vocab_size
        for g in range(num_groups):
            active = groups[g]
            if not active:
                continue
            pool = []
            for (ids, raw, pen), logp in zip(active, score_rows([ids for ids, _, _ in active])):
                for tok in range(vocab_size):
                    if step == max_len - 1 and tok != eos:
                        continue
                    pool.append(
                        (ids + (tok,), raw + logp[tok], pen + (logp[tok] - penalty * emitted[tok]))
                    )
            pool.sort(key=lambda c: (-c[2], c[0]))
            groups[g] = []
            for cand in pool[:group_width]:
                emitted[cand[0][-1]] += 1
                if cand[0][-1] == eos:
                    finished.append(cand)
                else:
                    groups[g].append(cand)
    finished.sort(key=lambda c: (-c[1], c[0]))
    return [(ids, raw) for ids, raw, _ in finished[:top]]


# --- out-of-place numpy formulas ------------------------------------------
#
# The model's layer kernels and Adam work in place. These are the same
# formulas written one expression at a time, each step a fresh array;
# the in-place versions must match them bit for bit.

LN_EPS = 1e-5
MASK_NEG = -1e9


def ln_fwd_out_of_place(x, g, b):
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, xhat, inv


def ln_bwd_out_of_place(dout, xhat, inv, g):
    n = xhat.shape[-1]
    axes = tuple(range(xhat.ndim - 1))
    dg = (dout * xhat).sum(axis=axes)
    db = dout.sum(axis=axes)
    dxhat = dout * g
    dx = (inv / n) * (
        n * dxhat
        - dxhat.sum(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merged(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def attn_out_of_place(q_in, kv_in, wq, wk, wv, wo, n_heads, key_mask, causal, dout):
    """Forward output, attention weights and the six gradients, with
    the key mask and the causal mask added one after the other."""
    d = q_in.shape[-1]
    dh = d // n_heads
    tq, tk = q_in.shape[1], kv_in.shape[1]
    q = _heads(q_in @ wq, n_heads)
    k = _heads(kv_in @ wk, n_heads)
    v = _heads(kv_in @ wv, n_heads)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    scores = scores + (1.0 - key_mask)[:, None, None, :] * MASK_NEG
    if causal:
        scores = scores + np.triu(np.ones((tq, tk)), k=1)[None, None] * MASK_NEG
    scores = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / np.add.reduce(e, axis=-1, keepdims=True)
    merged = _merged(attn @ v)
    out = merged @ wo

    dwo = merged.reshape(-1, d).T @ dout.reshape(-1, d)
    dctx = _heads(dout @ wo.T, n_heads)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores = dscores / math.sqrt(dh)
    dq_m = _merged(dscores @ k)
    dk_m = _merged(dscores.transpose(0, 1, 3, 2) @ q)
    dv_m = _merged(dv)
    dwq = q_in.reshape(-1, d).T @ dq_m.reshape(-1, d)
    dwk = kv_in.reshape(-1, d).T @ dk_m.reshape(-1, d)
    dwv = kv_in.reshape(-1, d).T @ dv_m.reshape(-1, d)
    dq_in = dq_m @ wq.T
    dkv_in = dk_m @ wk.T + dv_m @ wv.T
    return out, attn, (dq_in, dkv_in, dwq, dwk, dwv, dwo)


def ffn_out_of_place(x, w1, b1, w2, b2, dout):
    """Forward output and (dx, dw1, db1, dw2, db2), masking the relu
    gradient with the pre-activation."""
    h = x @ w1 + b1
    r = np.maximum(h, 0.0)
    out = r @ w2 + b2
    din, dff = x.shape[-1], h.shape[-1]
    lead = tuple(range(dout.ndim - 1))
    db2 = dout.sum(axis=lead)
    dw2 = r.reshape(-1, dff).T @ dout.reshape(-1, din)
    dh = (dout @ w2.T) * (h > 0)
    db1 = dh.sum(axis=lead)
    dw1 = x.reshape(-1, din).T @ dh.reshape(-1, dff)
    return out, (dh @ w1.T, dw1, db1, dw2, db2)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_out_of_place(params, grads, ms, vs, step, lr):
    """One bias-corrected Adam step at learning rate lr; every tensor is
    updated, zero-gradient or not. ms/vs are updated in place."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    out = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m = ms.get(name, np.zeros_like(g))
        v = vs.get(name, np.zeros_like(g))
        ms[name] = m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        vs[name] = v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        out[name] = (p.astype(np.float64, copy=False) - update).astype(p.dtype)
    return out
