"""Comparison systems sharing the prompt-conditioned model's backbone.

All variants use the same encoder and classification head; they differ
in what they train on and what the classifier input looks like:

- no-adaptation: classification only, bare text.
- mixture-trained, no prompt at test: the prompt-conditioned model's
  own parameters applied to bare text.
- name-only prompts: mixture training whose prompts are just the domain
  name; test-time scores average over the source domain names.
- mixture of experts: one bare-text model per source domain; test-time
  class probabilities are the arithmetic mean over experts.
- upper bound: bare-text training that may also see the target domain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .corpus import Example, Vocabulary, domain_token
from .model import ModelConfig, classify, encode, pad_batch
from .training import TrainConfig, TrainResult, build_disc_input, train


def argmax_class(probs: np.ndarray) -> int:
    """Ties go to the lowest class id."""
    return int(np.argmax(probs))


def classify_many(
    model_cfg: ModelConfig,
    params: dict,
    vocab: Vocabulary,
    examples: Sequence[Example],
    prompts: Sequence[Sequence[int]] | None = None,
    batch_size: int = 16,
) -> np.ndarray:
    """Class probabilities [N, C] for many examples in padded batches.

    `prompts` gives per-example prompt ids; None means bare text for
    every example.
    """
    if prompts is not None and len(prompts) != len(examples):
        raise ValueError("one prompt per example required")
    inputs = []
    for i, ex in enumerate(examples):
        prompt = prompts[i] if prompts is not None else ()
        inputs.append(build_disc_input(prompt, vocab.encode_tokens(ex.tokens), model_cfg.max_input_len))
    if not inputs:
        return np.zeros((0, model_cfg.n_classes))
    out = []
    for start in range(0, len(inputs), batch_size):
        ids, mask = pad_batch(inputs[start : start + batch_size])
        states = encode(model_cfg, params, ids, mask)
        out.append(np.exp(classify(model_cfg, params, states, mask)))
    return np.concatenate(out, axis=0)


def train_classifier_only(
    model_cfg: ModelConfig,
    vocab: Vocabulary,
    label_set: Sequence[str],
    examples: Sequence[Example],
    train_cfg: TrainConfig,
    eval_fn: Callable[[dict], float],
) -> TrainResult:
    """Bare-text discriminative training: the mixture with the
    generative share forced to zero and no annotations."""
    pairs = [(ex, None) for ex in examples]
    cfg = replace(train_cfg, alpha=0.0)
    return train(model_cfg, vocab, label_set, pairs, cfg, eval_fn)


@dataclass(frozen=True, eq=False)
class ExpertEnsemble:
    model_cfg: ModelConfig
    domains: tuple[str, ...]
    params_by_domain: dict[str, dict[str, np.ndarray]]

    def __post_init__(self):
        missing = [d for d in self.domains if d not in self.params_by_domain]
        if missing:
            raise ValueError(f"no parameters for domains {missing}")


def train_experts(
    model_cfg: ModelConfig,
    vocab: Vocabulary,
    label_set: Sequence[str],
    train_by_domain: dict[str, Sequence[Example]],
    train_cfg: TrainConfig,
    eval_fn_for: Callable[[str], Callable[[dict], float]],
) -> tuple[ExpertEnsemble, dict[str, TrainResult]]:
    """One bare-text expert per domain, each stopped on its own dev set."""
    results = {}
    params_by_domain = {}
    for domain in sorted(train_by_domain):
        result = train_classifier_only(
            model_cfg, vocab, label_set, train_by_domain[domain], train_cfg,
            eval_fn_for(domain),
        )
        results[domain] = result
        params_by_domain[domain] = result.params
    ensemble = ExpertEnsemble(
        model_cfg=model_cfg,
        domains=tuple(sorted(train_by_domain)),
        params_by_domain=params_by_domain,
    )
    return ensemble, results


def moe_predict_many(
    ensemble: ExpertEnsemble, vocab: Vocabulary, examples: Sequence[Example]
) -> np.ndarray:
    """Arithmetic mean of the experts' probability vectors, taken in name
    order so the bits do not depend on the order the experts arrive in."""
    per_expert = [
        classify_many(ensemble.model_cfg, ensemble.params_by_domain[d], vocab, examples)
        for d in sorted(ensemble.domains)
    ]
    shapes = {p.shape for p in per_expert}
    if len(shapes) != 1:
        raise ValueError(f"experts disagree on output shape: {sorted(shapes)}")
    return np.mean(per_expert, axis=0)


def name_prompt_ids(vocab: Vocabulary, domain: str) -> tuple[int, ...]:
    return (vocab.id_of(domain_token(domain)),)


def dn_predict_many(
    model_cfg: ModelConfig,
    params: dict,
    vocab: Vocabulary,
    examples: Sequence[Example],
    source_domains: Sequence[str],
) -> np.ndarray:
    """Name-only prompting on unseen domains: average the probability
    vectors obtained by prompting with each source domain's name."""
    if not source_domains:
        raise ValueError("need at least one source domain")
    per_name = []
    for domain in sorted(source_domains):
        prompt = name_prompt_ids(vocab, domain)
        per_name.append(
            classify_many(model_cfg, params, vocab, examples, prompts=[prompt] * len(examples))
        )
    return np.mean(per_name, axis=0)
