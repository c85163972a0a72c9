"""Multi-domain text corpora.

Ingestion from JSONL, whitespace-free tokenization, vocabulary
construction over source domains only, leave-one-out setting
enumeration, and a deterministic synthetic multi-domain generator.
All containers are read-only after construction.

A text is tokenized once, when its `Example` is built; every later
stage reads `Example.tokens`.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Reserved special token ids. Every vocabulary places these at 0..5.
PAD, UNK, BOS, EOS, SEP, DOMAIN_PREFIX = range(6)
SPECIAL_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>", "<sep>", "<domain>")
SEP_TOKEN = SPECIAL_TOKENS[SEP]

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumerics.

    The reserved separator marker survives as a single token, so texts
    built from sentence pairs keep their structure.
    """
    out: list[str] = []
    for i, part in enumerate(text.lower().split(SEP_TOKEN)):
        if i:
            out.append(SEP_TOKEN)
        out.extend(_WORD_RE.findall(part))
    return out


def domain_token(name: str) -> str:
    """Single vocabulary token for a domain name (multi-word names are
    hyphen-joined)."""
    return "-".join(name.lower().split())


@dataclass(frozen=True)
class Example:
    """One labelled text. `tokens`, interned `tokenize(text)`, is set once
    at construction and is left out of equality, hashing and the repr; a
    text with no tokens raises a ValueError."""

    id: str
    text: str
    label: str
    domain: str
    tokens: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tokens = tuple(map(sys.intern, tokenize(self.text)))
        if not tokens:
            raise ValueError(f"example {self.id!r} has no tokens")
        object.__setattr__(self, "tokens", tokens)


@dataclass(frozen=True)
class Vocabulary:
    """Token/id bijection with fixed special ids at 0..5. It maps
    tokens, not texts: callers encode an example's `tokens`."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(compare=False, repr=False)

    def __post_init__(self):
        if tuple(self.id_to_token[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError("special tokens must occupy ids 0..5")
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        """Build from an ordered iterable of non-special tokens."""
        id_to_token = SPECIAL_TOKENS + tuple(tokens)
        return cls(id_to_token, {t: i for i, t in enumerate(id_to_token)})

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def encode_tokens(self, tokens) -> tuple[int, ...]:
        return tuple(self.token_to_id.get(t, UNK) for t in tokens)


def save_vocab(path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"tokens": list(vocab.id_to_token[len(SPECIAL_TOKENS):])}, f)


def load_vocab(path) -> Vocabulary:
    """Inverse of save_vocab; a malformed file raises ValueError naming it."""
    tokens = json_entry(path, read_json_object(path, "vocabulary"), "tokens",
                        lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
                        "a list of strings")
    try:
        return Vocabulary.from_tokens(tokens)
    except ValueError as e:  # a duplicate or a special token
        raise ValueError(f"{path}: {e}") from e


_SPLITS = ("train", "dev", "test")


@dataclass
class MultiDomainDataset:
    """Per-domain train/dev/test example lists plus the declared label set.

    Read-only after construction; helper accessors never mutate.
    """

    domains: list[str]
    train: dict[str, list[Example]]
    dev: dict[str, list[Example]]
    test: dict[str, list[Example]]
    label_set: list[str]
    positive_class: str | None = None

    def __post_init__(self):
        for d in self.domains:
            check_domain_name(d, "dataset")
        if len(set(self.domains)) != len(self.domains):
            raise ValueError("duplicate domain names")
        if len(set(self.label_set)) != len(self.label_set):
            raise ValueError("duplicate labels in label set")
        if self.positive_class is not None and self.positive_class not in self.label_set:
            raise ValueError(
                f"positive class {self.positive_class!r} not in label set {self.label_set}"
            )
        for split in (self.train, self.dev, self.test):
            for d in self.domains:
                split.setdefault(d, [])
            for d in split:
                if d not in self.domains:
                    raise ValueError(f"examples under undeclared domain {d!r}")
        for d in self.domains:
            ids = Counter()
            for split in (self.train, self.dev, self.test):
                for ex in split[d]:
                    if ex.domain != d:
                        raise ValueError(f"example {ex.id!r} filed under wrong domain")
                    if ex.label not in self.label_set:
                        raise ValueError(
                            f"label {ex.label!r} not in declared label set {self.label_set}"
                        )
                    ids[ex.id] += 1
            dupes = [i for i, c in ids.items() if c > 1]
            if dupes:
                raise ValueError(f"duplicate example ids in domain {d!r}: {dupes[:3]}")

    def train_examples(self, domains) -> list[Example]:
        return [ex for d in domains for ex in self.train[d]]

    def dev_examples(self, domains) -> list[Example]:
        return [ex for d in domains for ex in self.dev[d]]

    def target_test_examples(self, domain: str) -> list[Example]:
        """Test split if present, otherwise every example of the domain."""
        if self.test[domain]:
            return list(self.test[domain])
        return list(self.train[domain]) + list(self.dev[domain])


@dataclass(frozen=True)
class LeaveOneOutSetting:
    target: str
    sources: tuple[str, ...]

    def __post_init__(self):
        if self.target in self.sources:
            raise ValueError(f"target {self.target!r} also listed as a source")
        if not self.sources:
            raise ValueError("a setting needs at least one source domain")


def make_loo_settings(dataset: MultiDomainDataset) -> list[LeaveOneOutSetting]:
    """One setting per domain: that domain held out, the rest as sources."""
    if len(dataset.domains) < 2:
        raise ValueError("leave-one-out needs at least 2 domains")
    return [
        LeaveOneOutSetting(target=d, sources=tuple(s for s in dataset.domains if s != d))
        for d in dataset.domains
    ]


@dataclass(frozen=True)
class IngestSchema:
    """Field names for JSONL ingestion, remappable per corpus."""

    text: str = "text"
    premise: str = "premise"
    hypothesis: str = "hypothesis"
    label: str = "label"
    domain: str = "domain"
    id: str = "id"
    split: str = "split"
    labels: tuple[str, ...] | None = None
    positive_class: str | None = None


def read_json_object(path, what: str) -> dict:
    """The JSON object in `path`; anything else is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a JSON {what} ({e})") from e
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def json_entry(where, obj: dict, key: str, ok, what: str):
    """obj[key] if `ok` accepts it, else a ValueError naming `where`."""
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    if not ok(obj[key]):
        raise ValueError(f"{where}: {key} must be {what}, got {obj[key]!r}")
    return obj[key]


def check_domain_name(domain: str, where: str) -> None:
    """Domain names name files inside an output directory (DRF profiles,
    cell reports, experts), so a ValueError naming `where` rejects one
    that is empty, "." or "..", or contains "/", "\\" or NUL."""
    if domain in ("", ".", "..") or any(c in domain for c in "/\\\0"):
        raise ValueError(f"{where}: domain {domain!r} cannot name a file")


# (check, description) pairs for json_entry; a bool is not an integer here
_STRING = (lambda v: isinstance(v, str), "a string")
_STRING_OR_INT = (
    lambda v: isinstance(v, str) or (isinstance(v, int) and not isinstance(v, bool)),
    "a string or an integer",
)


def read_records(path, schema: IngestSchema = IngestSchema()) -> list[tuple[int, dict]]:
    """Each non-blank line of a JSONL file as (line number, fields).

    The fields are "text", which is the text field when present and
    otherwise the premise and hypothesis joined by one separator marker,
    and "label", "domain", "id" and "split" when the record has them,
    all as strings. Every field must be a JSON string, except that a
    label or an id may also be an integer. A line that is not a JSON
    object, or has no text, or a field of another type, or a domain
    `check_domain_name` rejects, raises a ValueError naming the line.
    A text with no tokens is rejected by `line_example`, which
    tokenizes it.
    """
    optional = {"label": _STRING_OR_INT, "domain": _STRING, "id": _STRING_OR_INT,
                "split": _STRING}
    records = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"line {n}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{where}: malformed JSON ({e.msg})") from e
            if not isinstance(rec, dict):
                raise ValueError(f"{where}: expected a JSON object, got {type(rec).__name__}")
            if schema.text in rec:
                text = json_entry(where, rec, schema.text, *_STRING)
            elif schema.premise in rec and schema.hypothesis in rec:
                premise, hypothesis = (json_entry(where, rec, k, *_STRING)
                                       for k in (schema.premise, schema.hypothesis))
                text = f"{premise} {SEP_TOKEN} {hypothesis}"
            else:
                raise ValueError(f"{where}: no {schema.text!r} or sentence-pair fields")
            fields = {"text": text}
            for key, kind in optional.items():
                name = getattr(schema, key)
                if name in rec:
                    fields[key] = str(json_entry(where, rec, name, *kind))
            if "domain" in fields:
                check_domain_name(fields["domain"], where)
            records.append((n, fields))
    if not records:
        raise ValueError(f"empty input: {path}")
    return records


def line_example(n: int, **fields) -> Example:
    """The Example of a record read from line n; a text with no tokens
    raises a ValueError naming the line."""
    try:
        return Example(**fields)
    except ValueError:  # the one check an Example makes
        raise ValueError(f"line {n}: text has no word tokens") from None


def ingest_jsonl(path, schema: IngestSchema = IngestSchema()) -> MultiDomainDataset:
    """Read a JSONL corpus (see `read_records`) into per-domain splits.

    Records carrying a split field are placed accordingly; when no record
    declares a split, each domain is split 4:1 into train/dev in file
    order.
    """
    records = read_records(path, schema)
    domains: list[str] = []
    by_split: dict[str, dict[str, list[Example]]] = {s: {} for s in _SPLITS}
    unsplit: dict[str, list[Example]] = {}
    seen_labels: list[str] = []
    any_split = any("split" in rec for _, rec in records)

    for n, rec in records:
        text = rec["text"]
        if "label" not in rec:
            raise ValueError(f"line {n}: missing {schema.label!r} field")
        label = rec["label"]
        if schema.labels is not None and label not in schema.labels:
            raise ValueError(
                f"line {n}: unknown label {label!r}, declared set {list(schema.labels)}"
            )
        domain = rec.get("domain", "")
        if not domain:
            raise ValueError(f"line {n}: missing or empty {schema.domain!r} field")
        ex_id = rec.get("id", f"{domain}-{n}")
        if domain not in domains:
            domains.append(domain)
        if label not in seen_labels:
            seen_labels.append(label)
        ex = line_example(n, id=ex_id, text=text, label=label, domain=domain)
        if any_split:
            split = rec.get("split", "train")
            if split not in _SPLITS:
                raise ValueError(f"line {n}: unknown split {split!r}")
            by_split[split].setdefault(domain, []).append(ex)
        else:
            unsplit.setdefault(domain, []).append(ex)

    if not any_split:
        # 4:1 train/dev split per domain, in file order.
        for d, exs in unsplit.items():
            n_train = (4 * len(exs)) // 5
            by_split["train"][d] = exs[:n_train]
            by_split["dev"][d] = exs[n_train:]

    label_set = list(schema.labels) if schema.labels is not None else sorted(seen_labels)
    return MultiDomainDataset(
        domains=domains,
        train=by_split["train"],
        dev=by_split["dev"],
        test=by_split["test"],
        label_set=label_set,
        positive_class=schema.positive_class,
    )


def write_jsonl(dataset: MultiDomainDataset, path) -> None:
    """Serialize to JSONL with explicit split fields; deterministic byte
    output for a given dataset."""
    with open(path, "w", encoding="utf-8") as f:
        for d in dataset.domains:
            for split, store in (("train", dataset.train), ("dev", dataset.dev), ("test", dataset.test)):
                for ex in store[d]:
                    rec = {
                        "id": ex.id,
                        "text": ex.text,
                        "label": ex.label,
                        "domain": ex.domain,
                        "split": split,
                    }
                    f.write(json.dumps(rec, sort_keys=True, ensure_ascii=False))
                    f.write("\n")


def build_vocabulary(dataset: MultiDomainDataset, sources) -> Vocabulary:
    """Vocabulary over source-domain training text only.

    Ids are deterministic: specials first, then tokens by descending
    frequency with lexicographic tie-break, then any source domain-name
    tokens not already present (sorted).
    """
    sources = list(sources)
    for s in sources:
        if s not in dataset.domains:
            raise ValueError(f"unknown source domain {s!r}")
    counts: Counter = Counter()
    for ex in dataset.train_examples(sources):
        counts.update(ex.tokens)
    if not counts:
        raise ValueError("no source training text to build a vocabulary from")
    kept = sorted(
        (t for t in counts if t not in SPECIAL_TOKENS),
        key=lambda t: (-counts[t], t),
    )
    extra = sorted(
        {domain_token(s) for s in sources} - set(kept) - set(SPECIAL_TOKENS)
    )
    return Vocabulary.from_tokens(kept + extra)


# --- synthetic multi-domain generator ---------------------------------------

_DOMAIN_NAMES = (
    "aurora", "bazaar", "cyclone", "dunes", "ember", "fjord",
    "glacier", "harbor", "iceberg", "juniper", "krater", "lagoon",
)

LABEL_RULES = ("shortcut", "task", "parity")


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic generator.

    With the default "shortcut" rule the label is the minimal-majority
    polarity of the example's task tokens, while each domain's
    indicative tokens are drawn from a label-matched half of that
    domain's private pool (flipped to the opposite half with
    probability indicative_noise). Task tokens come from a per-domain
    circular slice of the shared pool spanning slice_strides strides,
    so each domain can lean on its own corner of the task vocabulary;
    filler tokens dilute the text. In domain the private tokens are a
    strong shortcut; on a held-out domain they are out of vocabulary,
    so only the task tokens transfer.
    """

    n_domains: int = 4
    examples_per_domain: int = 150
    indicative_pool: int = 8
    task_pool: int = 24
    filler_pool: int = 20
    n_indicative: int = 1
    n_task: int = 8
    n_filler: int = 20
    label_rule: str = "shortcut"
    indicative_noise: float = 0.25
    slice_strides: int = 4
    seed: int = 13


def _domain_name(i: int) -> str:
    if i < len(_DOMAIN_NAMES):
        return _DOMAIN_NAMES[i]
    return f"domain{i}"


def _slice_indices(
    domain_index: int, half_pool: int, n_domains: int, strides: int
) -> list[int]:
    """Circular window into one polarity half of the task pool.

    Windows advance by a fixed stride and span `strides` of them, so a
    narrow window leans each domain on its own corner of the pool while
    n_domains strides cover the whole pool.
    """
    stride = max(1, half_pool // n_domains)
    width = min(half_pool, strides * stride)
    start = (domain_index * stride) % half_pool
    return [(start + j) % half_pool for j in range(width)]


def generate_synthetic(spec: SyntheticSpec = SyntheticSpec()) -> MultiDomainDataset:
    """Deterministic multi-domain dataset with pairwise-disjoint
    per-domain indicative pools and a shared task-token pool.

    Labels are a fixed function of the drawn tokens; each domain is
    split 4:1 into train/dev.
    """
    if spec.n_domains < 1:
        raise ValueError("need at least one domain")
    if spec.examples_per_domain < 1:
        raise ValueError("zero examples per domain")
    if spec.label_rule not in LABEL_RULES:
        raise ValueError(f"unknown label rule {spec.label_rule!r}, choose from {LABEL_RULES}")
    if spec.indicative_pool % 2 or spec.indicative_pool < 2:
        raise ValueError("indicative pool size must be even and >= 2")
    if spec.task_pool % 2 or spec.task_pool < 2:
        raise ValueError("task pool size must be even and >= 2")
    if spec.n_indicative > spec.indicative_pool // 2:
        raise ValueError("n_indicative exceeds half the indicative pool")
    if spec.n_task < 1:
        raise ValueError("need at least one task token per example")
    if spec.n_filler > spec.filler_pool:
        raise ValueError("n_filler exceeds the filler pool")
    if not 0.0 <= spec.indicative_noise <= 1.0:
        raise ValueError("indicative_noise must lie in [0, 1]")
    if spec.slice_strides < 1:
        raise ValueError("slice_strides must be >= 1")

    half_task = spec.task_pool // 2
    slice_width = len(_slice_indices(0, half_task, spec.n_domains, spec.slice_strides))
    majority = spec.n_task // 2 + 1
    if majority > slice_width:
        raise ValueError(
            "task majority does not fit the per-domain slice; "
            "grow task_pool or shrink n_task"
        )
    covered = set()
    for i in range(spec.n_domains):
        covered.update(_slice_indices(i, half_task, spec.n_domains, spec.slice_strides))
    if covered != set(range(half_task)):
        raise ValueError(
            "task slices leave part of the pool unused; "
            "grow task_pool or use fewer domains"
        )

    rng = np.random.default_rng(spec.seed)
    names = [_domain_name(i) for i in range(spec.n_domains)]
    pos_task = [f"good{j}" for j in range(half_task)]
    neg_task = [f"bad{j}" for j in range(half_task)]
    fillers = [f"misc{j}" for j in range(spec.filler_pool)]

    train: dict[str, list[Example]] = {}
    dev: dict[str, list[Example]] = {}
    for i, name in enumerate(names):
        pool = [f"{name}{j}" for j in range(spec.indicative_pool)]
        pos_ind, neg_ind = pool[: spec.indicative_pool // 2], pool[spec.indicative_pool // 2:]
        window = _slice_indices(i, half_task, spec.n_domains, spec.slice_strides)
        pos_slice = [pos_task[j] for j in window]
        neg_slice = [neg_task[j] for j in window]
        examples = []
        for k in range(spec.examples_per_domain):
            if spec.label_rule == "parity":
                ind_idx = rng.choice(spec.indicative_pool, size=spec.n_indicative, replace=False)
                indicative = [pool[j] for j in ind_idx]
                label = "pos" if int(ind_idx.sum()) % 2 == 0 else "neg"
                lo = max(0, spec.n_task - slice_width)
                n_pos = int(rng.integers(lo, min(slice_width, spec.n_task) + 1))
            else:
                label = "pos" if rng.random() < 0.5 else "neg"
                if spec.label_rule == "shortcut":
                    matched = label == "pos"
                    if rng.random() < spec.indicative_noise:
                        matched = not matched
                    sub = pos_ind if matched else neg_ind
                    indicative = list(rng.choice(sub, size=spec.n_indicative, replace=False))
                else:
                    indicative = list(rng.choice(pool, size=spec.n_indicative, replace=False))
                # minimal majority of task tokens carries the label
                n_pos = majority if label == "pos" else spec.n_task - majority
            task = list(rng.choice(pos_slice, size=n_pos, replace=False)) + list(
                rng.choice(neg_slice, size=spec.n_task - n_pos, replace=False)
            )
            filler = list(rng.choice(fillers, size=spec.n_filler, replace=False))
            tokens = indicative + task + filler
            order = rng.permutation(len(tokens))
            text = " ".join(tokens[i] for i in order)
            examples.append(Example(id=f"{name}-{k:04d}", text=text, label=label, domain=name))
        n_train = (4 * len(examples)) // 5
        train[name] = examples[:n_train]
        dev[name] = examples[n_train:]

    return MultiDomainDataset(
        domains=names,
        train=train,
        dev=dev,
        test={},
        label_set=["neg", "pos"],
        positive_class="pos",
    )
