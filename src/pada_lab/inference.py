"""Prompt generation for two-step inference.

Prompt decoding runs a synchronous beam search; the diverse variant
splits the beam into groups and penalizes each group for repeating
tokens that earlier groups emitted at the same step. Plain beam search
is the one-group, zero-penalty case of the same engine. Final candidate
ranking always uses the raw (unpenalized) cumulative log-probability.
Each step makes one call of the incremental decoder
(`model.advance_decoder`) for the unfinished hypotheses of all groups;
it keeps every row's self-attention keys and values and the encoder's
cross-attention keys and values, so a step costs one token per row
rather than a re-run over the whole prefix. The second step,
classifying prompt + SEP + text, is `harness.pada_predict_many`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BOS, EOS, DOMAIN_PREFIX, UNK, Example, Vocabulary
from .model import ModelConfig, _f64, advance_decoder, encode, pad_batch, start_decoder


@dataclass(frozen=True)
class BeamConfig:
    num_candidates: int = 5
    beam_size: int = 10
    num_groups: int = 5
    diversity_penalty: float = 1.5
    max_len: int | None = None

    def __post_init__(self):
        if self.num_candidates < 1 or self.beam_size < 1 or self.num_groups < 1:
            raise ValueError("beam sizes must be positive")
        if self.beam_size % self.num_groups != 0:
            raise ValueError(
                f"beam_size {self.beam_size} is not divisible by num_groups {self.num_groups}"
            )
        if self.diversity_penalty < 0:
            raise ValueError("diversity_penalty must be non-negative")


@dataclass(frozen=True)
class Hypothesis:
    ids: tuple[int, ...]  # decoder output so far, no BOS, may end with EOS
    raw_score: float  # cumulative log-probability
    penalized_score: float

    @property
    def finished(self) -> bool:
        return bool(self.ids) and self.ids[-1] == EOS


def _extend(hyps, logp, penalties, width) -> tuple[list[Hypothesis], list[int]]:
    """Top `width` one-token extensions by penalized score, and the row
    of `hyps` each one extends. Ties break toward the lexicographically
    smaller id sequence."""
    base = np.array([h.penalized_score for h in hyps])
    scores = (base[:, None] + (logp - penalties)).ravel()
    # Only candidates scoring at least the width-th best can be kept,
    # so just those become hypotheses (ties at the cut included).
    if scores.size > width:
        cut = np.partition(scores, scores.size - width)[scores.size - width]
        picked = np.flatnonzero(scores >= cut)
    else:
        picked = range(scores.size)
    n_tok = logp.shape[1]
    pool = []
    for i in picked:
        row, tok = divmod(int(i), n_tok)
        h = hyps[row]
        pool.append((
            Hypothesis(
                ids=h.ids + (tok,),
                raw_score=h.raw_score + float(logp[row, tok]),
                penalized_score=float(scores[i]),
            ),
            row,
        ))
    pool.sort(key=lambda pair: (-pair[0].penalized_score, pair[0].ids))
    kept = pool[:width]
    return [h for h, _ in kept], [row for _, row in kept]


def diverse_beam_search(
    model_cfg: ModelConfig,
    params: dict,
    enc_states: np.ndarray,
    enc_mask: np.ndarray,
    cfg: BeamConfig,
) -> list[Hypothesis]:
    """Decode one encoded input into `num_candidates` hypotheses.

    Groups advance in a fixed order each step; a group's token scores
    are reduced by diversity_penalty times the number of times earlier
    groups emitted that token at this same step. Within a group an
    ordinary beam on cumulative penalized score applies. Every
    hypothesis ends with EOS (forced at the length cap).

    The penalty changes which extensions are kept, never the
    log-probabilities, and every group's prefixes are fixed before any
    group selects; so each step feeds the unfinished hypotheses of all
    groups to the incremental decoder at once, and the groups then
    select in order from their slices of the result.
    """
    if enc_states.shape[0] != 1:
        raise ValueError("decode one input at a time")
    P = _f64(params)
    max_len = cfg.max_len if cfg.max_len is not None else model_cfg.max_output_len
    group_width = cfg.beam_size // cfg.num_groups

    # each group's unfinished hypotheses; row r of the decoder state
    # holds the prefix of the r-th of them across groups, in group order
    groups: list[list[Hypothesis]] = [
        [Hypothesis(ids=(), raw_score=0.0, penalized_score=0.0)]
        for _ in range(cfg.num_groups)
    ]
    parents = np.zeros(cfg.num_groups, dtype=np.int64)
    tokens = np.full(cfg.num_groups, BOS, dtype=np.int64)
    state = start_decoder(model_cfg, P, enc_states, enc_mask)
    finished: list[Hypothesis] = []

    for step in range(max_len):
        if not parents.size:
            break
        state, logp = advance_decoder(model_cfg, P, state, parents, tokens)
        if step == max_len - 1:
            forced = np.full_like(logp, -np.inf)
            forced[:, EOS] = logp[:, EOS]
            logp = forced
        emitted = np.zeros(model_cfg.vocab_size)
        next_parents: list[int] = []
        start = 0
        for g, active in enumerate(groups):
            if not active:
                continue
            extended, rows = _extend(
                active, logp[start : start + len(active)],
                cfg.diversity_penalty * emitted, group_width,
            )
            groups[g] = []
            for h, row in zip(extended, rows):
                emitted[h.ids[-1]] += 1.0
                if h.finished:
                    finished.append(h)
                else:
                    groups[g].append(h)
                    next_parents.append(start + row)
            start += len(active)
        parents = np.array(next_parents, dtype=np.int64)
        tokens = np.array([h.ids[-1] for active in groups for h in active], dtype=np.int64)

    finished.sort(key=lambda h: (-h.raw_score, h.ids))
    if not finished:
        raise RuntimeError("no finished hypotheses")
    return finished[: cfg.num_candidates]


def beam_search(
    model_cfg: ModelConfig,
    params: dict,
    enc_states: np.ndarray,
    enc_mask: np.ndarray,
    beam_size: int,
    num_candidates: int | None = None,
    max_len: int | None = None,
) -> list[Hypothesis]:
    """Plain beam search: the single-group, zero-penalty special case."""
    cfg = BeamConfig(
        num_candidates=num_candidates if num_candidates is not None else beam_size,
        beam_size=beam_size,
        num_groups=1,
        diversity_penalty=0.0,
        max_len=max_len,
    )
    return diverse_beam_search(model_cfg, params, enc_states, enc_mask, cfg)


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


def encode_for_generation(
    model_cfg: ModelConfig, params: dict, vocab: Vocabulary, example: Example
):
    text_ids = vocab.encode_text(example.text)
    if not text_ids:
        raise ValueError(f"example {example.id!r} has no tokens")
    ids, mask = pad_batch([((DOMAIN_PREFIX,) + text_ids)[: model_cfg.max_input_len]])
    return encode(model_cfg, params, ids, mask), mask


def generate_candidates(
    model_cfg: ModelConfig,
    params: dict,
    vocab: Vocabulary,
    example: Example,
    beam_cfg: BeamConfig | None = None,
) -> list[GeneratedPrompt]:
    """All decoded prompt candidates for one example, best first. A
    best candidate that decoded to bare EOS falls back to a single
    unknown-token prompt so downstream input construction still sees a
    non-empty prompt, and says so."""
    beam_cfg = beam_cfg if beam_cfg is not None else BeamConfig()
    enc_states, enc_mask = encode_for_generation(model_cfg, params, vocab, example)
    hyps = diverse_beam_search(model_cfg, params, enc_states, enc_mask, beam_cfg)
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


def generate_prompt(
    model_cfg: ModelConfig,
    params: dict,
    vocab: Vocabulary,
    example: Example,
    beam_cfg: BeamConfig | None = None,
) -> GeneratedPrompt:
    """Best decoded prompt for one example."""
    return generate_candidates(model_cfg, params, vocab, example, beam_cfg)[0]
