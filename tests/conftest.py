"""Shared fixtures: small hand-built datasets and model configs."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from pada_lab.corpus import Example, MultiDomainDataset
from pada_lab.model import CHECKPOINT_MAGIC


def make_dataset(
    per_domain: dict[str, list[tuple[str, str]]],
    dev: dict[str, list[tuple[str, str]]] | None = None,
    test: dict[str, list[tuple[str, str]]] | None = None,
    label_set=("neg", "pos"),
    positive_class="pos",
) -> MultiDomainDataset:
    """Build a dataset from {domain: [(text, label), ...]} literals."""

    def examples(domain, pairs, tag):
        return [
            Example(id=f"{domain}-{tag}-{i}", text=text, label=label, domain=domain)
            for i, (text, label) in enumerate(pairs)
        ]

    domains = list(per_domain)
    dev = dev or {}
    test = test or {}
    return MultiDomainDataset(
        domains=domains,
        train={d: examples(d, per_domain[d], "tr") for d in domains},
        dev={d: examples(d, dev.get(d, []), "dv") for d in domains},
        test={d: examples(d, test[d], "te") for d in test},
        label_set=list(label_set),
        positive_class=positive_class,
    )


def edit_checkpoint_header(path, edit) -> None:
    """Rewrite a saved checkpoint's JSON config header in place with
    `edit(header_dict)`, keeping every tensor byte as it was."""
    raw = path.read_bytes()
    start = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", raw[start : start + 4])
    header = json.loads(raw[start + 4 : start + 4 + hlen])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:start] + struct.pack("<I", len(new)) + new + raw[start + 4 + hlen :])


# One bad record per case: the edit of a valid record, and what the
# ValueError names after "line <n>: " (the field, or the record's type).
# domain names that cannot name a file inside an output directory
UNSAFE_DOMAINS = ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b", "a\0b"]

BAD_RECORDS = [
    pytest.param(lambda r: 5, "expected a JSON object", id="bare number"),
    pytest.param(lambda r: {**r, "label": ["pos"]}, "label", id="list label"),
    pytest.param(lambda r: {**r, "domain": None}, "domain", id="null domain"),
    pytest.param(lambda r: {**r, "domain": "../escaped"}, "domain", id="escaping domain"),
    pytest.param(lambda r: {**r, "text": 5}, "text", id="number text"),
    pytest.param(lambda r: {**r, "text": {"a": "b"}}, "text", id="dict text"),
    pytest.param(lambda r: {**r, "text": "..."}, "text has no word tokens", id="text with no tokens"),
    pytest.param(lambda r: {**r, "label": True}, "label", id="bool label"),
]


@pytest.fixture
def two_domain_dataset() -> MultiDomainDataset:
    return make_dataset(
        {
            "rivers": [
                ("delta current delta flow", "pos"),
                ("current bank erosion", "neg"),
                ("delta delta sediment", "pos"),
            ],
            "forests": [
                ("canopy bank moss", "neg"),
                ("moss lichen canopy", "pos"),
            ],
        },
        dev={
            "rivers": [("flow sediment", "pos")],
            "forests": [("lichen bank", "neg")],
        },
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


def random_corpus(rng: np.random.Generator, max_domains: int = 6, max_docs: int = 50):
    """Random multi-domain doc collection for oracle comparisons.

    Returns (docs_by_domain, dataset): the raw token lists feed the
    brute-force oracles, the dataset feeds the package.
    """
    n_domains = int(rng.integers(2, max_domains + 1))
    alphabet = [f"w{i}" for i in range(int(rng.integers(4, 16)))]
    n_docs = int(rng.integers(n_domains, max_docs + 1))
    docs_by_domain: dict[str, list[list[str]]] = {
        f"dom{i}": [] for i in range(n_domains)
    }
    domains = list(docs_by_domain)
    for i, d in enumerate(domains):
        docs_by_domain[d].append(
            [alphabet[j] for j in rng.integers(0, len(alphabet), size=rng.integers(1, 9))]
        )
    for _ in range(n_docs - n_domains):
        d = domains[int(rng.integers(0, n_domains))]
        docs_by_domain[d].append(
            [alphabet[j] for j in rng.integers(0, len(alphabet), size=rng.integers(1, 9))]
        )
    dataset = make_dataset(
        {d: [(" ".join(doc), "pos") for doc in docs] for d, docs in docs_by_domain.items()}
    )
    return docs_by_domain, dataset
