"""Prompt generation for two-step inference.

Prompt decoding runs a synchronous beam search; the diverse variant
splits the beam into groups and penalizes each group for repeating
tokens that earlier groups emitted at the same step; plain beam search
is its one-group, zero-penalty case. A search runs for at most
`ModelConfig.max_output_len` tokens. Final candidate ranking always
uses the raw (unpenalized) cumulative log-probability.
Each step makes one call of the incremental decoder
(`model.advance_decoder`) for the unfinished hypotheses of all groups;
it keeps every row's self-attention keys and values and the encoder's
cross-attention keys and values, so a step costs one token per row
rather than a re-run over the whole prefix. The second step,
classifying prompt + SEP + text, is `harness.pada_predict_many`.

One search decodes up to SEARCH_EXAMPLES examples of one input length
together (`generate_candidates_many`), and each example's hypotheses
are bitwise those of decoding it alone. That holds because a decoder
row's bits do not depend on the other rows: each weight is one 2-D
product over all rows, against a copy laid out so that BLAS rounds a
row the same way whatever the row count (`model._gemm`), and each
attention product is one (row, head) block. Examples are bucketed by
input length, never padded, because padding lengthens the attention
sums over the keys and so regroups their rounding. Each example's
cross-attention keys and values broadcast over its rows, never copied
per row; with one example the decoder runs its one-input step (no
grid). The cap on examples per search bounds the self-attention keys
and values a search holds.

An example stops decoding once its candidates are settled: every step
adds a log-probability <= 0, so no descendant of a live hypothesis
scores above it, and once the example's `num_candidates`-th best
finished score is above every live score, its live hypotheses are
dropped. The candidates are the ones the full search would return,
and the other examples of the search are untouched, because selection
and diversity penalties are per example. The candidate count is an
argument of the search, not a setting it reads, and it enters the
search only through this stop and the final cut, so asking for fewer
candidates returns the first ones of the longer list, sooner: CLI
`predict` asks for the config's `num_candidates`, while
`harness.pada_predict_many` uses only the best, so it asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .corpus import BOS, EOS, UNK, Example, Vocabulary
from .model import ModelConfig, advance_decoder, encode, start_decoder
from .training import build_gen_input

if TYPE_CHECKING:
    from .harness import ExperimentConfig


# Most examples decoded in one search. The search holds every row's
# self-attention keys and values, so this bounds its memory whatever
# the number of examples; on a 150-example set, 16 decodes as fast as
# 32 or 64 with about half or a quarter of the peak memory.
SEARCH_EXAMPLES = 16


@dataclass(frozen=True)
class Hypothesis:
    ids: tuple[int, ...]  # decoder output so far, no BOS, may end with EOS
    raw_score: float  # cumulative log-probability
    penalized_score: float

    @property
    def finished(self) -> bool:
        return bool(self.ids) and self.ids[-1] == EOS


def _extend(pen, logp, penalties, counts, rank, width):
    """The top `width` one-token extensions of each input's rows, for
    the rows of one group across inputs. Row i has penalized score
    pen[i] and token log-probabilities logp[i], less penalties[i]; an
    input's rows are adjacent, and the list `counts` holds each input's
    row count in order. rank orders the rows of one input by their id
    sequences.

    An input keeps its best `width` extensions by penalized score, ties
    broken toward the lexicographically smaller id sequence. Returns
    the kept (row, token, penalized score) arrays, in no particular
    order."""
    scores = pen[:, None] + (logp - penalties)
    n, n_tok = scores.shape
    n_in, most = len(counts), max(counts)
    k = max(most * n_tok - width, 0)
    # Only candidates scoring at least an input's width-th best can be
    # kept (ties at the cut included).
    if n == n_in * most:
        # every input has `most` rows, so its candidates are one row of flat
        flat = scores.reshape(n_in, -1)
        part = flat.copy()
        part.partition(k, axis=1)
        rows, toks = (flat >= part[:, k, None]).reshape(n, n_tok).nonzero()
        if len(rows) <= width * n_in:  # no input has more than width picks
            return rows, toks, scores[rows, toks]
        ex = rows // most
    else:
        # For the cut, inputs with fewer rows are padded with -inf, which
        # never raises it; the picks come from the real rows alone, so no
        # padded slot is ever kept.
        local = np.repeat(np.arange(n_in), counts)
        flat = np.full((n_in, most, n_tok), -np.inf)
        flat[local, np.arange(n) - np.cumsum([0] + counts[:-1])[local]] = scores
        cut = np.partition(flat.reshape(n_in, -1), k, axis=1)[:, k]
        rows, toks = (scores >= cut[local][:, None]).nonzero()
        ex = local[rows]
    kept = scores[rows, toks]
    # an input may have more than width picks: keep its best width
    order = np.lexsort((toks, rank[rows], -kept, ex))
    ex = ex[order]
    order = order[np.arange(len(order)) - np.searchsorted(ex, ex) < width]
    return rows[order], toks[order], kept[order]


def diverse_beam_search_many(
    model_cfg: ModelConfig,
    params: dict,
    enc_states: np.ndarray,
    enc_mask: np.ndarray,
    cfg: ExperimentConfig,
    num_candidates: int,
) -> list[list[Hypothesis]]:
    """Decode each of E encoded inputs of one length into
    `num_candidates` hypotheses; each input's list is exactly what
    `diverse_beam_search` returns for it alone. The beam is
    `cfg.beam_size` wide in `cfg.num_groups` groups.

    Groups advance in a fixed order each step; a group's token scores
    are reduced by cfg.diversity_penalty times the number of times earlier
    groups emitted that token at this same step for the same input.
    Within a group an ordinary beam on cumulative penalized score
    applies. Every hypothesis ends with EOS (forced at the length cap).

    The penalty changes which extensions are kept, never the
    log-probabilities, and every group's prefixes are fixed before any
    group selects; so each step feeds the unfinished hypotheses of all
    inputs and groups to the incremental decoder at once, and the groups
    then select in order, each across all inputs. An input whose
    candidates are settled stops (see the module docstring).
    """
    n_in = enc_states.shape[0]
    n_groups = cfg.num_groups
    max_len = model_cfg.max_output_len
    group_width = cfg.beam_size // n_groups
    n_tok = model_cfg.vocab_size

    # The beam holds the unfinished hypotheses by group, then input,
    # then kept order, so each group is one slice, and row r of the
    # decoder state holds the prefix of entry r: an input's rows keep
    # the order of a one-input search. Per entry: its (group, input)
    # key, its ids so far, its raw and penalized scores, and a rank that
    # orders by ids the entries of one key.
    key = np.arange(n_groups * n_in)  # group * n_in + input
    ids = np.zeros((len(key), 0), dtype=np.int64)
    raw = pen = np.zeros(len(key))
    rank = np.zeros(len(key), dtype=np.int64)
    parents = key % n_in  # the start state has one row per input
    tokens = np.full(len(key), BOS, dtype=np.int64)
    state = start_decoder(model_cfg, params, enc_states, enc_mask)
    finished: list[list] = [[] for _ in range(n_in)]
    # each example's num_candidates-th best finished raw score so far
    settled = np.full(n_in, -np.inf)

    for step in range(max_len):
        if not parents.size:
            break
        example = key % n_in
        state, logp = advance_decoder(model_cfg, params, state, parents, tokens, example)
        if step == max_len - 1:
            forced = np.full_like(logp, -np.inf)
            forced[:, EOS] = logp[:, EOS]
            logp = forced
        sizes = np.bincount(key, minlength=n_groups * n_in).reshape(n_groups, n_in).tolist()
        emitted = np.zeros((n_in, n_tok))
        parts = []
        hi = 0
        for g in range(n_groups):
            lo, hi = hi, hi + sum(sizes[g])
            if lo == hi:
                continue
            ex = example[lo:hi]
            picked, toks, scores = _extend(
                pen[lo:hi], logp[lo:hi], cfg.diversity_penalty * emitted[ex],
                [c for c in sizes[g] if c], rank[lo:hi], group_width)
            np.add.at(emitted, (ex[picked], toks), 1.0)
            parts.append((picked + lo, toks, scores))
        src, toks, scores = (np.concatenate(p) for p in zip(*parts))
        # a child's ids are its parent's plus one token: renumber densely
        rank = np.argsort(np.argsort(rank[src] * n_tok + toks))
        done = toks == EOS
        # unfinished first, then finished; each key in kept order: best
        # first, ties by ids
        order = np.lexsort((rank, -scores, key[src], done))
        src, toks, scores, rank = src[order], toks[order], scores[order], rank[order]
        raws = raw[src] + logp[src, toks]
        ids = np.concatenate((ids[src], toks[:, None]), axis=1)
        n_live = len(done) - int(np.count_nonzero(done))
        done_ex = example[src[n_live:]].tolist()
        for e, seq, r, p in zip(done_ex, ids[n_live:].tolist(), raws[n_live:].tolist(),
                                scores[n_live:].tolist()):
            finished[e].append((tuple(seq), r, p))
        for e in set(done_ex):
            top = sorted((h[1] for h in finished[e]), reverse=True)[:num_candidates]
            if len(top) == num_candidates:
                settled[e] = top[-1]
        live = example[src[:n_live]]
        # A live hypothesis can at best tie its own raw score, and a tie
        # can still win on ids, so its example stops only on a strict win.
        best = np.full(n_in, -np.inf)
        np.maximum.at(best, live, raws[:n_live])
        keep = np.flatnonzero(settled[live] <= best[live])
        parents, tokens = src[keep], toks[keep]
        key, ids, raw, pen, rank = key[parents], ids[keep], raws[keep], scores[keep], rank[keep]

    out = []
    for hyps in finished:
        if not hyps:
            raise RuntimeError("no finished hypotheses")
        hyps.sort(key=lambda h: (-h[1], h[0]))
        out.append([Hypothesis(*h) for h in hyps[:num_candidates]])
    return out


def diverse_beam_search(
    model_cfg: ModelConfig,
    params: dict,
    enc_states: np.ndarray,
    enc_mask: np.ndarray,
    cfg: ExperimentConfig,
    num_candidates: int,
) -> list[Hypothesis]:
    """Decode one encoded input into `num_candidates` hypotheses (see
    `diverse_beam_search_many`)."""
    if enc_states.shape[0] != 1:
        raise ValueError("decode one input at a time")
    return diverse_beam_search_many(model_cfg, params, enc_states, enc_mask, cfg,
                                    num_candidates)[0]


# --- prompt generation ------------------------------------------------------


@dataclass(frozen=True)
class GeneratedPrompt:
    ids: tuple[int, ...]  # includes the trailing EOS
    tokens: tuple[str, ...]
    score: float
    used_fallback: bool = False

    @property
    def prompt_ids(self) -> tuple[int, ...]:
        return self.ids[:-1] if self.ids and self.ids[-1] == EOS else self.ids


def _prompts(vocab: Vocabulary, hyps: list[Hypothesis]) -> list[GeneratedPrompt]:
    """Decoded hypotheses as prompts. A best candidate that decoded to
    bare EOS falls back to a single unknown-token prompt so downstream
    input construction still sees a non-empty prompt, and says so."""
    out = []
    for rank, h in enumerate(hyps):
        if rank == 0 and len(h.ids) <= 1:
            out.append(
                GeneratedPrompt(
                    ids=(UNK, EOS),
                    tokens=(vocab.id_to_token[UNK],),
                    score=h.raw_score,
                    used_fallback=True,
                )
            )
            continue
        out.append(
            GeneratedPrompt(
                ids=h.ids,
                tokens=tuple(vocab.id_to_token[i] for i in h.ids[:-1]),
                score=h.raw_score,
            )
        )
    return out


def generate_candidates_many(
    model_cfg: ModelConfig,
    params: dict,
    vocab: Vocabulary,
    examples: Sequence[Example],
    cfg: ExperimentConfig,
    num_candidates: int,
) -> list[list[GeneratedPrompt]]:
    """Up to `num_candidates` decoded prompt candidates for each example,
    best first, in input order. Examples are bucketed by their truncated
    input length; up to SEARCH_EXAMPLES examples of a bucket are encoded
    in one unpadded call and decoded as one search, so every example
    gets the bits of its own search."""
    buckets: dict[int, list[int]] = {}
    inputs = []
    for i, ex in enumerate(examples):
        inputs.append(build_gen_input(vocab.encode_tokens(ex.tokens), model_cfg.max_input_len))
        buckets.setdefault(len(inputs[-1]), []).append(i)
    out: list = [None] * len(examples)
    for members in buckets.values():
        for at in range(0, len(members), SEARCH_EXAMPLES):
            chunk = members[at : at + SEARCH_EXAMPLES]
            ids = np.array([inputs[i] for i in chunk], dtype=np.int64)
            mask = np.ones(ids.shape)
            enc_states = encode(model_cfg, params, ids, mask)
            hyp_lists = diverse_beam_search_many(model_cfg, params, enc_states, mask, cfg,
                                                 num_candidates)
            for i, hyps in zip(chunk, hyp_lists):
                out[i] = _prompts(vocab, hyps)
    return out


def generate_prompt(
    model_cfg: ModelConfig,
    params: dict,
    vocab: Vocabulary,
    example: Example,
    cfg: ExperimentConfig,
) -> GeneratedPrompt:
    """Best decoded prompt for one example."""
    return generate_candidates_many(model_cfg, params, vocab, [example], cfg, 1)[0][0]
