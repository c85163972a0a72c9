"""Domain related features.

Ranks tokens by mutual information between document-level token
presence and domain membership, filters by an occurrence-count ratio,
builds deterministic PPMI+SVD token embeddings, and annotates each
example with the nearest features of its domain to form prompts.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .corpus import (
    SPECIAL_TOKENS,
    UNK,
    Example,
    MultiDomainDataset,
    Vocabulary,
)


class DrfScore(NamedTuple):
    token: str
    mi: float  # bits
    ratio: float  # occurrences outside the domain / occurrences inside


@dataclass(frozen=True)
class DomainProfile:
    """A source domain's ranked feature list and raw token counts."""

    name: str
    drfs: tuple[DrfScore, ...]
    token_counts: dict[str, int]


@dataclass(frozen=True)
class PromptAnnotation:
    """Per-example prompt content: the gold domain plus its features
    nearest to the example, with non-decreasing distances."""

    example_id: str
    domain: str
    drf_tokens: tuple[str, ...]
    distances: tuple[float, ...]


def mutual_information(dataset: MultiDomainDataset, sources, domain_j: str) -> dict[str, float]:
    """MI in bits between token presence and membership in domain_j.

    Documents are the source-domain training examples; a token counts
    once per document regardless of multiplicity. Cells with zero joint
    probability contribute zero.
    """
    sources = list(sources)
    if domain_j not in sources:
        raise ValueError(f"domain {domain_j!r} not among sources {sources}")
    doc_tokens: list[set[str]] = []
    in_domain: list[bool] = []
    for d in sources:
        for ex in dataset.train[d]:
            doc_tokens.append(set(ex.tokens))
            in_domain.append(d == domain_j)
    n_docs = len(doc_tokens)
    if n_docs == 0:
        raise ValueError("no source training documents")

    tokens = sorted(set().union(*doc_tokens))
    if not tokens:
        return {}
    index = {t: i for i, t in enumerate(tokens)}
    presence = np.zeros((n_docs, len(tokens)), dtype=np.float64)
    for row, toks in enumerate(doc_tokens):
        for t in toks:
            presence[row, index[t]] = 1.0
    flags = np.asarray(in_domain)

    n1 = float(flags.sum())
    n0 = n_docs - n1
    c11 = presence[flags].sum(axis=0)  # token present, in domain
    c01 = presence[~flags].sum(axis=0)  # token present, out of domain
    c10 = n1 - c11
    c00 = n0 - c01
    t_marg1 = c11 + c01  # documents containing the token
    t_marg0 = n_docs - t_marg1

    def cell(joint, t_marg, d_marg):
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (joint / n_docs) * (np.log2(joint * n_docs) - np.log2(t_marg * d_marg))
        return np.where(joint > 0, val, 0.0)

    mi = (
        cell(c11, t_marg1, n1)
        + cell(c01, t_marg1, n0)
        + cell(c10, t_marg0, n1)
        + cell(c00, t_marg0, n0)
    )
    return dict(zip(tokens, mi.tolist()))


def ratio_filter(
    token_counts: dict[str, Counter], domain_j: str, rho: float
) -> tuple[Callable[[str], bool], Counter, Counter]:
    """A predicate passing tokens whose raw occurrence count outside
    domain_j is at most rho times the count inside it (and the inside
    count is positive), with the inside and outside counts it reads.
    Counts are per-domain occurrence totals."""
    if domain_j not in token_counts:
        raise ValueError(f"no counts for domain {domain_j!r}")
    inside = token_counts[domain_j]
    outside: Counter = Counter()
    for d, c in token_counts.items():
        if d != domain_j:
            outside.update(c)

    def passes(token: str) -> bool:
        c_in = inside.get(token, 0)
        if c_in <= 0:
            return False
        return outside.get(token, 0) / c_in <= rho

    return passes, inside, outside


def domain_token_counts(dataset: MultiDomainDataset, sources) -> dict[str, Counter]:
    """Occurrence totals over each source domain's training text."""
    return {
        d: Counter(t for ex in dataset.train[d] for t in ex.tokens)
        for d in sources
    }


def extract_drf_set(
    dataset: MultiDomainDataset,
    sources,
    domain_j: str,
    rho: float,
    k_drf: int,
) -> DomainProfile:
    """Rank all source-training tokens by descending MI (ties by
    ascending token), apply the ratio filter, keep the first k_drf
    survivors."""
    mi = mutual_information(dataset, sources, domain_j)
    passes, inside, outside = ratio_filter(domain_token_counts(dataset, sources), domain_j, rho)
    ordered = sorted(mi, key=lambda t: (-mi[t], t))
    survivors = [t for t in ordered if passes(t)][:k_drf]
    if not survivors:
        raise ValueError(
            f"no tokens survive the ratio filter for domain {domain_j!r}; "
            "try a larger rho or more in-domain text"
        )
    drfs = tuple(
        DrfScore(token=t, mi=mi[t], ratio=outside.get(t, 0) / inside[t]) for t in survivors
    )
    return DomainProfile(name=domain_j, drfs=drfs, token_counts=dict(inside))


def save_profile(path, profile: DomainProfile, rho: float) -> None:
    payload = {
        "domain": profile.name,
        "rho": rho,
        "drfs": [{"token": d.token, "mi": d.mi, "ratio": d.ratio} for d in profile.drfs],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


# --- embeddings -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Static token vectors; lookups fall back to the UNK vector."""

    dim: int
    vectors: dict[str, np.ndarray]

    def lookup(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token)
        if vec is None:
            vec = self.vectors[SPECIAL_TOKENS[UNK]]
        return vec

    def write_text(self, path) -> None:
        """One row per token: token then its components."""
        with open(path, "w", encoding="utf-8") as f:
            for token, vec in self.vectors.items():
                f.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def _deterministic_sign(u: np.ndarray) -> np.ndarray:
    # fix each left singular vector's sign by its largest-magnitude entry
    flip = np.ones(u.shape[1])
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            flip[j] = -1.0
    return u * flip


def build_embeddings(
    dataset: MultiDomainDataset,
    sources,
    vocab: Vocabulary,
    d_emb: int,
    window: int,
) -> EmbeddingTable:
    """PPMI co-occurrence over a symmetric window, factored by truncated
    SVD. Built from source training text only; every vocabulary token
    (UNK included) gets a finite vector; the dense factorization is
    deterministic.
    """
    if len(vocab) - len(SPECIAL_TOKENS) < 2:
        raise ValueError("vocabulary too small for co-occurrence, need >= 2 tokens")

    n = len(vocab)
    counts = np.zeros((n, n), dtype=np.float64)
    for ex in dataset.train_examples(list(sources)):
        ids = np.asarray(vocab.encode_tokens(ex.tokens))
        for k in range(1, min(window, len(ids) - 1) + 1):
            a, b = ids[:-k], ids[k:]
            np.add.at(counts, (a, b), 1.0)
            np.add.at(counts, (b, a), 1.0)

    total = counts.sum()
    if total == 0:
        vectors = {t: np.zeros(d_emb) for t in vocab.id_to_token}
        return EmbeddingTable(dim=d_emb, vectors=vectors)

    marginal = counts.sum(axis=1) / total
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log2((counts / total) / np.outer(marginal, marginal))
    ppmi = np.where(counts > 0, np.maximum(pmi, 0.0), 0.0)

    u, s, _ = np.linalg.svd(ppmi)
    u = _deterministic_sign(u)
    k = min(d_emb, n)
    emb = u[:, :k] * s[:k]
    if k < d_emb:
        emb = np.concatenate([emb, np.zeros((n, d_emb - k))], axis=1)
    vectors = {t: emb[i].copy() for i, t in enumerate(vocab.id_to_token)}
    return EmbeddingTable(dim=d_emb, vectors=vectors)


def annotate_prompt(
    example: Example,
    profile: DomainProfile,
    emb: EmbeddingTable,
    m: int,
) -> PromptAnnotation:
    """Score each domain feature by its minimum Euclidean distance to
    any of the example's tokens; keep the nearest m.

    Ties break by the feature's MI rank, then by token string, so the
    annotation is fully deterministic.
    """
    token_vecs = np.array([emb.lookup(t) for t in dict.fromkeys(example.tokens)])

    dists = []
    if profile.drfs:
        feats = np.array([emb.lookup(entry.token) for entry in profile.drfs])
        diffs = feats[:, None, :] - token_vecs[None]  # [K, N, D]
        # Each stacked [1,D] @ [D,1] product runs numpy's dot kernel, so a
        # square equals d.dot(d), and sqrt(d . d) is exactly
        # np.linalg.norm; einsum and (d * d).sum() add in another order
        # and differ in the last bit. sqrt is monotone, so it is taken
        # once, of the smallest square.
        sq = (diffs[..., None, :] @ diffs[..., :, None])[..., 0, 0]
        dists = np.sqrt(sq.min(axis=1)).tolist()
    scored = sorted(
        (dist, rank, entry.token) for rank, (dist, entry) in enumerate(zip(dists, profile.drfs))
    )
    keep = scored[: min(m, len(scored))]
    return PromptAnnotation(
        example_id=example.id,
        domain=profile.name,
        drf_tokens=tuple(t for _, _, t in keep),
        distances=tuple(d for d, _, _ in keep),
    )
