"""Leave-one-out experiment orchestration and shift reporting.

For each setting one domain is held out as the target; vocabulary,
domain profiles, embeddings, and prompt annotations are built from the
sources alone. Every requested model variant trains on the sources and
is scored on the target plus the pooled source dev set (one score over
the concatenated examples, not a per-domain average). The dev minus
test difference is the performance shift the heatmap renders.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .baselines import (
    ExpertEnsemble,
    argmax_class,
    classify_many,
    dn_predict_many,
    moe_predict_many,
    train_classifier_only,
    train_experts,
)
from .corpus import (
    SPECIAL_TOKENS,
    Example,
    LeaveOneOutSetting,
    MultiDomainDataset,
    Vocabulary,
    build_vocabulary,
    json_entry,
    load_vocab,
    make_loo_settings,
    read_json_object,
    save_vocab,
)
from .drf import (
    DomainProfile,
    EmbeddingTable,
    PromptAnnotation,
    annotate_prompt,
    build_embeddings,
    extract_drf_set,
    save_profile,
)
from .inference import GeneratedPrompt, generate_candidates_many
from .metrics import f1_binary, f1_macro
from .model import ModelConfig, config_from_dict, load_checkpoint, save_checkpoint
from .training import train

@dataclass(frozen=True)
class MetricSpec:
    """F1 of `positive_class`, or macro F1 when it is None."""

    positive_class: str | None

    def score(self, y_true: Sequence[str], y_pred: Sequence[str], label_set: Sequence[str]) -> float:
        if self.positive_class is None:
            return f1_macro(y_true, y_pred, label_set)
        return f1_binary(y_true, y_pred, self.positive_class, label_set)


def metric_for_dataset(dataset: MultiDomainDataset, task_metric: str = "auto") -> MetricSpec:
    """`task_metric` (see `ExperimentConfig`) resolved against the run's
    label set and positive class."""
    if task_metric == "binary" and dataset.positive_class is None:
        raise ValueError("binary-F1 needs a declared positive class")
    if task_metric == "binary" or (task_metric == "auto" and len(dataset.label_set) == 2):
        return MetricSpec(dataset.positive_class)
    return MetricSpec(None)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of the pipeline in one flat, hashable record: the one
    place a setting gets its default and its range check. Each stage
    reads the settings it needs from the config it is handed."""

    # feature extraction
    rho: float = 3.0
    k_drf: int = 50
    prompt_len: int = 9
    d_emb: int = 32
    window: int = 3
    # model dimensions
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ffn: int = 128
    max_input_len: int = 128
    max_output_len: int = 16
    conv_filters: int = 32
    conv_width: int = 9
    # optimization
    alpha: float = 0.5
    epochs: int = 15
    batch_size: int = 16
    lr: float = 2e-3
    warmup_ratio: float = 0.1
    patience: int = 8
    # prompt decoding; num_candidates only sets how many candidates CLI
    # `predict` writes, since every other path uses the best one alone
    num_candidates: int = 5
    beam_size: int = 10
    num_groups: int = 5
    diversity_penalty: float = 1.5
    # scoring: "binary" (F1 of the positive class), "macro" (macro F1),
    # or "auto" (binary when the run has two labels and a positive class)
    task_metric: str = "auto"
    # bookkeeping
    seed: int = 0

    def __post_init__(self):
        # an int for a float setting (rho = 3) is stored as the float, so
        # configs that compare equal hash alike
        for f in fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        for ok, message in (
            (self.task_metric in ("auto", "binary", "macro"),
             f"unknown task metric {self.task_metric!r}; expected auto, binary or macro"),
            (self.rho >= 0, "rho must be non-negative"),
            (self.k_drf >= 1, "k_drf must be positive"),
            (self.prompt_len >= 0, "prompt_len must be non-negative"),
            (self.d_emb >= 1, "d_emb must be >= 1"),
            (self.window >= 1, "window must be >= 1"),
            (0.0 <= self.alpha <= 1.0, "alpha must be in [0, 1]"),
            (self.epochs >= 1 and self.batch_size >= 1, "epochs and batch_size must be positive"),
            (self.lr > 0, "lr must be positive"),
            (0.0 <= self.warmup_ratio <= 1.0, "warmup_ratio must be in [0, 1]"),
            (self.patience >= 0, "patience must be non-negative"),
            (min(self.num_candidates, self.beam_size, self.num_groups) >= 1,
             "beam sizes must be positive"),
            (self.beam_size % max(self.num_groups, 1) == 0,
             f"beam_size {self.beam_size} is not divisible by num_groups {self.num_groups}"),
            (0.0 <= self.diversity_penalty < math.inf,
             "diversity_penalty must be finite and non-negative"),
        ):
            if not ok:
                raise ValueError(message)
        # the model dimensions are checked by ModelConfig, as a checkpoint header's are
        self.model_config(len(SPECIAL_TOKENS), 2)

    def model_config(self, vocab_size: int, n_classes: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            n_classes=n_classes,
            d_model=self.d_model,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_ffn=self.d_ffn,
            max_input_len=self.max_input_len,
            max_output_len=self.max_output_len,
            conv_filters=self.conv_filters,
            conv_width=self.conv_width,
            seed=self.seed,
        )

    # `train` and the searches read this config itself; perfbench/workloads.py
    # still asks for it by these two names.
    def train_config(self, seed: int | None = None) -> ExperimentConfig:
        return self if seed is None else replace(self, seed=seed)

    def beam_config(self) -> ExperimentConfig:
        return self

    def config_hash(self, label_set: Sequence[str], positive_class: str | None) -> str:
        """The one hash of what a run computes: every setting, the label
        set (its order fixes the class ids) and the positive class. Where
        a run reads and writes, paths and the schema's field names, is
        left out."""
        payload = json.dumps({"config": asdict(self), "label_set": list(label_set),
                              "positive_class": positive_class}, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class SettingArtifacts:
    """Source-side artifacts shared by every model in one setting."""

    domains: tuple[str, ...]
    vocab: Vocabulary
    profiles: dict[str, DomainProfile]
    embeddings: EmbeddingTable
    annotations: dict[tuple[str, str], PromptAnnotation]  # (domain, example id)


def build_artifacts(
    dataset: MultiDomainDataset, domains: Sequence[str], cfg: ExperimentConfig
) -> SettingArtifacts:
    domains = tuple(domains)
    vocab = build_vocabulary(dataset, domains)
    profiles = {
        d: extract_drf_set(dataset, domains, d, rho=cfg.rho, k_drf=cfg.k_drf)
        for d in domains
    }
    embeddings = build_embeddings(dataset, domains, vocab, d_emb=cfg.d_emb, window=cfg.window)
    annotations: dict[tuple[str, str], PromptAnnotation] = {}
    for d in domains:
        for ex in list(dataset.train[d]) + list(dataset.dev[d]):
            annotations[(d, ex.id)] = annotate_prompt(
                ex, profiles[d], embeddings, m=cfg.prompt_len
            )
    return SettingArtifacts(
        domains=domains,
        vocab=vocab,
        profiles=profiles,
        embeddings=embeddings,
        annotations=annotations,
    )


# --- prediction paths -------------------------------------------------------


def pada_candidates_many(
    model_cfg: ModelConfig,
    params: dict,
    vocab: Vocabulary,
    examples: Sequence[Example],
    cfg: ExperimentConfig,
    num_candidates: int,
) -> tuple[np.ndarray, list[list[GeneratedPrompt]]]:
    """Two-step prediction for a batch: prompt generation, decoding the
    examples of one input length together, then one batched
    classification over best prompt + SEP + text. Returns the class
    probabilities and each example's `num_candidates` candidates, best
    first."""
    candidates = generate_candidates_many(model_cfg, params, vocab, examples, cfg,
                                          num_candidates)
    probs = classify_many(
        model_cfg, params, vocab, examples, prompts=[c[0].prompt_ids for c in candidates]
    )
    return probs, candidates


def pada_predict_many(
    model_cfg: ModelConfig,
    params: dict,
    vocab: Vocabulary,
    examples: Sequence[Example],
    cfg: ExperimentConfig,
) -> tuple[np.ndarray, list[GeneratedPrompt]]:
    """`pada_candidates_many` with each example's best prompt alone.

    Only the best candidate is used, so the search asks for one,
    whatever `cfg.num_candidates` says: an example then stops as soon as
    its best finished score is above all its live ones, and the prompt
    is the one a full search would rank first (see the `inference`
    module docstring)."""
    probs, candidates = pada_candidates_many(model_cfg, params, vocab, examples, cfg, 1)
    return probs, [c[0] for c in candidates]


def probs_to_labels(probs: np.ndarray, label_set: Sequence[str]) -> list[str]:
    return [label_set[argmax_class(row)] for row in probs]


# --- model variants ---------------------------------------------------------


@dataclass
class TrainedVariant:
    model: str
    model_cfg: ModelConfig
    vocab: Vocabulary
    label_set: tuple[str, ...]
    positive_class: str | None
    sources: tuple[str, ...]
    target: str | None = None
    params: dict | None = None
    ensemble: ExpertEnsemble | None = None
    logs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_dev: float = float("nan")


# A prediction path: class probabilities [N, C] for examples under a
# trained variant, plus the generated prompts (two-step model only).
Predict = Callable[[TrainedVariant, Sequence[Example], ExperimentConfig],
                   tuple[np.ndarray, list[GeneratedPrompt] | None]]


def _predict_pada(trained, examples, cfg):
    return pada_predict_many(trained.model_cfg, trained.params, trained.vocab, examples, cfg)


def _predict_bare(trained, examples, cfg):
    return classify_many(trained.model_cfg, trained.params, trained.vocab, examples), None


def _predict_names(trained, examples, cfg):
    probs = dn_predict_many(
        trained.model_cfg, trained.params, trained.vocab, examples, trained.sources)
    return probs, None


def _predict_experts(trained, examples, cfg):
    return moe_predict_many(trained.ensemble, trained.vocab, examples), None


def _score(predict: Predict, trained, examples, metric: MetricSpec, cfg: ExperimentConfig):
    """`metric` over `examples` under `predict`, and the prompts it made."""
    probs, prompts = predict(trained, examples, cfg)
    labels = probs_to_labels(probs, trained.label_set)
    return metric.score([ex.label for ex in examples], labels, trained.label_set), prompts


def _with_result(base: TrainedVariant, result) -> TrainedVariant:
    return replace(base, params=result.params, logs=result.log,
                   best_epoch=result.best_epoch, best_dev=result.best_dev)


def _fit_mixture(prompt_style: str, select: Predict):
    """Generative/discriminative mixture over the annotated training
    examples with `prompt_style` prompts; `select` scores each epoch on
    the pooled dev set."""

    def fit(base, dataset, domains, artifacts, cfg, eval_fn_for):
        pairs = [(ex, artifacts.annotations[(d, ex.id)])
                 for d in domains for ex in dataset.train[d]]
        result = train(base.model_cfg, base.vocab, base.label_set, pairs, cfg,
                       eval_fn_for(select, dataset.dev_examples(domains)),
                       prompt_style=prompt_style)
        return _with_result(base, result)

    return fit


def _fit_bare(base, dataset, domains, artifacts, cfg, eval_fn_for):
    """Bare-text classification, each epoch scored on the pooled dev set."""
    result = train_classifier_only(
        base.model_cfg, base.vocab, base.label_set, dataset.train_examples(domains),
        cfg, eval_fn_for(_predict_bare, dataset.dev_examples(domains)),
    )
    return _with_result(base, result)


def _fit_experts(base, dataset, domains, artifacts, cfg, eval_fn_for):
    """One bare-text expert per domain, each stopped on its own dev set."""
    ensemble, results = train_experts(
        base.model_cfg, base.vocab, base.label_set, {d: dataset.train[d] for d in domains},
        cfg, lambda d: eval_fn_for(_predict_bare, list(dataset.dev[d])),
    )
    logs = [{"domain": d, **rec} for d in ensemble.domains for rec in results[d].log]
    return replace(base, ensemble=ensemble, logs=logs,
                   best_epoch=max(results[d].best_epoch for d in ensemble.domains))


@dataclass(frozen=True)
class Variant:
    """What one model name means.

    fit: the training recipe. fit(base, dataset, domains, artifacts,
    cfg, eval_fn_for) returns `base` trained on `domains` under `cfg`,
    whose seed is the run's, where eval_fn_for(predict, dev) scores an
    epoch by `predict` on `dev`.
    Names with the same recipe and training domains share one run.
    predict: the prediction path that scores the target.
    dev_is_source_f1: training selects its checkpoint by this `predict`
    on the pooled source dev set, so the selected epoch's dev score is
    already the source-dev F1.
    all_domains: trains on every domain, the target's training split
    included, and is scored on the target's dev split.
    """

    fit: Callable
    predict: Predict
    dev_is_source_f1: bool = False
    all_domains: bool = False

    def domains(self, dataset: MultiDomainDataset, setting: LeaveOneOutSetting) -> tuple[str, ...]:
        """The domains this variant trains on in `setting`."""
        return tuple(dataset.domains) if self.all_domains else tuple(setting.sources)


_FIT_DRF_MIXTURE = _fit_mixture("drf", _predict_pada)

# The one definition of every model name; a run's table rows follow its order.
VARIANTS = {
    "pada": Variant(_FIT_DRF_MIXTURE, _predict_pada, dev_is_source_f1=True),
    "pada-nc": Variant(_FIT_DRF_MIXTURE, _predict_bare),  # pada's run on bare text
    "pada-dn": Variant(_fit_mixture("name", _predict_names), _predict_names,
                       dev_is_source_f1=True),
    "noda": Variant(_fit_bare, _predict_bare, dev_is_source_f1=True),
    "moe": Variant(_fit_experts, _predict_experts),
    "ub": Variant(_fit_bare, _predict_bare, all_domains=True),
}
MODEL_NAMES = tuple(VARIANTS)


def _variant(model: str) -> Variant:
    if model not in VARIANTS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    return VARIANTS[model]


def _reused(variant: Variant) -> bool:
    """Whether another setting or another name reuses this variant's
    training run: the upper bound's serves every setting, and pada-nc
    reuses pada's."""
    per_setting = [v.fit for v in VARIANTS.values() if not v.all_domains]
    return variant.all_domains or per_setting.count(variant.fit) > 1


# --- per-setting runs -------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    target: str
    sources: tuple[str, ...]
    model: str
    target_f1: float
    source_dev_f1: float
    shift: float
    seed: int
    config_hash: str
    log: tuple[dict, ...]
    best_epoch: int
    fallback_count: int = 0
    target_split: str = "test"

    def __post_init__(self):
        if abs(self.shift - (self.source_dev_f1 - self.target_f1)) > 1e-12:
            raise ValueError("shift must equal dev minus test")
        for name, score in (("target_f1", self.target_f1), ("source_dev_f1", self.source_dev_f1)):
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"{name} outside [0, 1]")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sources"] = list(self.sources)
        d["log"] = list(self.log)
        return d


def train_variant(
    dataset: MultiDomainDataset,
    setting: LeaveOneOutSetting,
    model: str,
    artifacts: SettingArtifacts,
    cfg: ExperimentConfig,
    seed: int,
    cache: dict | None = None,
) -> TrainedVariant:
    """Train one named variant for one setting, from artifacts built over
    the domains it trains on (`VARIANTS[model].domains`).

    The optional cache keeps the runs another entry reuses (see
    `_reused`), keyed by recipe, training domains and seed.
    """
    variant = _variant(model)
    domains = variant.domains(dataset, setting)
    if artifacts.domains != domains:
        raise ValueError(
            f"{model} trains on {list(domains)}; the artifacts cover {list(artifacts.domains)}")
    key = (variant.fit, domains, seed)
    trained = cache.get(key) if cache is not None else None
    if trained is None:
        vocab = artifacts.vocab
        base = TrainedVariant(
            model=model,
            model_cfg=cfg.model_config(len(vocab.id_to_token), len(dataset.label_set)),
            vocab=vocab,
            label_set=tuple(dataset.label_set),
            positive_class=dataset.positive_class,
            sources=tuple(setting.sources),
            target=setting.target,
        )
        metric = metric_for_dataset(dataset, cfg.task_metric)

        def eval_fn_for(predict, dev):
            return lambda params: _score(
                predict, replace(base, params=params), dev, metric, cfg)[0]

        # the model initialises from cfg.seed; the run's seed draws its data order
        trained = variant.fit(base, dataset, domains, artifacts, replace(cfg, seed=seed),
                              eval_fn_for)
        if cache is not None and _reused(variant):
            cache[key] = trained
    return replace(trained, model=model, sources=tuple(setting.sources), target=setting.target)


def run_setting(
    dataset: MultiDomainDataset,
    setting: LeaveOneOutSetting,
    model: str,
    cfg: ExperimentConfig,
    seed: int | None = None,
    artifacts: SettingArtifacts | None = None,
    cache: dict | None = None,
) -> ExperimentReport:
    """Train one variant in one setting and score both sides of the shift.

    A variant that trains on every domain is scored on the target's dev
    split (its training saw the target's training split); every other
    variant is scored on the full held-out target domain.
    """
    seed = cfg.seed if seed is None else seed
    variant = _variant(model)
    if artifacts is None:
        artifacts = build_artifacts(dataset, variant.domains(dataset, setting), cfg)
    trained = train_variant(dataset, setting, model, artifacts, cfg, seed, cache)

    metric = metric_for_dataset(dataset, cfg.task_metric)
    if variant.all_domains:
        test_examples = list(dataset.dev[setting.target])
        target_split = "dev"
    else:
        test_examples = dataset.target_test_examples(setting.target)
        target_split = "test"
    target_f1, prompts = _score(variant.predict, trained, test_examples, metric, cfg)
    fallbacks = sum(1 for p in prompts if p.used_fallback) if prompts else 0

    if variant.dev_is_source_f1 and not np.isnan(trained.best_dev):
        # Training already scored this variant end-to-end on the pooled
        # source dev set; reuse the selected checkpoint's score.
        source_dev_f1 = trained.best_dev
    else:
        source_dev_f1, _ = _score(
            variant.predict, trained, dataset.dev_examples(setting.sources), metric, cfg)

    return ExperimentReport(
        target=setting.target,
        sources=tuple(setting.sources),
        model=model,
        target_f1=float(target_f1),
        source_dev_f1=float(source_dev_f1),
        shift=float(source_dev_f1) - float(target_f1),
        seed=seed,
        config_hash=cfg.config_hash(dataset.label_set, dataset.positive_class),
        log=tuple(trained.logs),
        best_epoch=trained.best_epoch,
        fallback_count=fallbacks,
        target_split=target_split,
    )


# --- aggregation ------------------------------------------------------------


def _grid_axes(cells: dict[tuple[str, str], dict]) -> tuple[list[str], list[str]]:
    """Rows and columns of a run's table: models in `VARIANTS` order and
    targets in name order, which the cell files alone determine, so a
    report rebuilt from them matches the run's. The grid must be complete."""
    present = {m for m, _ in cells}
    models = [m for m in MODEL_NAMES if m in present]
    targets = sorted({t for _, t in cells})
    for m in models:
        for t in targets:
            if (m, t) not in cells:
                raise ValueError(f"missing report for model {m!r}, target {t!r}")
    return models, targets


def write_run_report(out_dir, cells: dict[tuple[str, str], dict]) -> tuple[list[str], list[str]]:
    """A run's aggregate.csv and shifts.svg under `out_dir`, laid out by
    `_grid_axes`; returns its models and targets."""
    models, targets = _grid_axes(cells)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_aggregate_csv(out_dir / "aggregate.csv", cells, models, targets)
    with open(out_dir / "shifts.svg", "w") as f:
        f.write(render_shift_svg(cells, models, targets))
    return models, targets


def read_run_cells(run_dir) -> dict[tuple[str, str], dict]:
    """The cell reports under `run_dir`/cells by (model, target), each
    checked for what the run report reads. Every cell must carry one
    config hash: cells of two runs do not make one table."""
    cells_dir = Path(run_dir) / "cells"
    if not cells_dir.is_dir():
        raise ValueError(f"no cells/ directory under {run_dir}")

    def number_in(lo, hi):  # a range check also rejects NaN and infinities
        return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and lo <= v <= hi

    cells: dict[tuple[str, str], dict] = {}
    first = None  # (path, config hash) of the first cell
    for path in sorted(cells_dir.glob("*.json")):
        cell = read_json_object(path, "cell report")
        entry = partial(json_entry, path, cell)
        key = (entry("model", lambda v: v in MODEL_NAMES, f"one of {MODEL_NAMES}"),
               entry("target", lambda v: isinstance(v, str), "a string"))
        entry("target_f1", number_in(0.0, 1.0), "a number in [0, 1]")
        entry("shift", number_in(-1.0, 1.0), "a number in [-1, 1]")  # dev - test
        config_hash = entry("config_hash", lambda v: isinstance(v, str), "a string")
        first = first or (path, config_hash)
        if config_hash != first[1]:
            raise ValueError(f"{path}: config hash {config_hash} differs from {first[0].name}'s "
                             f"{first[1]}; the cells come from more than one run")
        if key in cells:
            raise ValueError(f"{path}: a second report for model {key[0]!r}, target {key[1]!r}")
        cells[key] = cell
    if not cells:
        raise ValueError(f"no cell reports under {cells_dir}")
    return cells


def summary_table(cells: dict[tuple[str, str], dict]) -> str:
    """The run's table as text, laid out by `_grid_axes`: target F1 per
    target, then the mean F1 and the mean absolute shift."""
    models, targets = _grid_axes(cells)
    width = max(len(m) for m in ["model", *models])
    heads = [*targets, "mean_f1", "mean_|shift|"]
    col = max(len(h) for h in heads)
    lines = [" ".join([f"{'model':<{width}}", *(f"{h:>{col}}" for h in heads)])]
    for m in models:
        f1s = [cells[(m, t)]["target_f1"] for t in targets]
        shifts = [abs(cells[(m, t)]["shift"]) for t in targets]
        values = [*f1s, statistics.mean(f1s), statistics.mean(shifts)]
        lines.append(" ".join([f"{m:<{width}}", *(f"{v:>{col}.4f}" for v in values)]))
    return "\n".join(lines)


def write_aggregate_csv(
    path,
    cells: dict[tuple[str, str], dict],
    models: Sequence[str],
    targets: Sequence[str],
) -> None:
    """One row per model: per-target F1 and shift, then the means.
    Fixed 6-decimal formatting keeps reruns byte-identical."""
    header = ["model"]
    for t in targets:
        header += [f"{t}_f1", f"{t}_shift"]
    header += ["mean_f1", "mean_abs_shift"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for m in models:
            row = [m]
            f1s, shifts = [], []
            for t in targets:
                cell = cells[(m, t)]
                f1s.append(cell["target_f1"])
                shifts.append(cell["shift"])
                row += [f"{cell['target_f1']:.6f}", f"{cell['shift']:.6f}"]
            row += [
                f"{statistics.mean(f1s):.6f}",
                f"{statistics.mean(abs(s) for s in shifts):.6f}",
            ]
            writer.writerow(row)


def render_shift_svg(
    cells: dict[tuple[str, str], dict],
    models: Sequence[str],
    targets: Sequence[str],
) -> str:
    """Hand-rolled heatmap of shifts, models down, targets across.

    Shading normalizes the absolute shift within each column: the
    darkest cell in a column is that target's smallest absolute shift,
    so the best-adapted model per target reads directly off the figure.
    """
    cell_w, cell_h, left, top = 96, 36, 120, 40
    width = left + cell_w * len(targets) + 20
    height = top + cell_h * len(models) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    col_norm = {}
    for t in targets:
        col = [abs(cells[(m, t)]["shift"]) for m in models]
        lo, hi = min(col), max(col)
        col_norm[t] = (lo, hi)
    for j, t in enumerate(targets):
        x = left + j * cell_w + cell_w // 2
        parts.append(f'<text x="{x}" y="{top - 12}" text-anchor="middle">{t}</text>')
    for i, m in enumerate(models):
        y = top + i * cell_h + cell_h // 2 + 4
        parts.append(f'<text x="{left - 8}" y="{y}" text-anchor="end">{m}</text>')
        for j, t in enumerate(targets):
            shift = cells[(m, t)]["shift"]
            lo, hi = col_norm[t]
            norm = 0.5 if hi == lo else (abs(shift) - lo) / (hi - lo)
            shade = int(round(64 + 180 * norm))
            fill = f"rgb({shade},{shade},{shade})"
            text_fill = "white" if shade < 150 else "black"
            x, y0 = left + j * cell_w, top + i * cell_h
            parts.append(
                f'<rect x="{x}" y="{y0}" width="{cell_w}" height="{cell_h}" '
                f'fill="{fill}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x + cell_w // 2}" y="{y0 + cell_h // 2 + 4}" '
                f'text-anchor="middle" fill="{text_fill}">{shift:+.3f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_loo(
    dataset: MultiDomainDataset,
    models: Sequence[str],
    cfg: ExperimentConfig,
    out_dir,
    seeds: Sequence[int] | None = None,
) -> dict[tuple[str, str], dict]:
    """Full leave-one-out grid: every domain once as target, every
    requested model per setting. Writes per-cell JSON under cells/, an
    aggregate CSV, and the shift heatmap (see `write_run_report`).
    Returns the cell summaries.

    With several seeds each cell reruns per seed and the summary keeps
    the per-seed reports plus mean and population-sd scores; the CSV
    always holds the means.
    """
    models = list(models)
    unknown = [m for m in models if m not in MODEL_NAMES]
    if unknown:
        raise ValueError(f"unknown models {unknown}; expected names from {MODEL_NAMES}")
    if len(set(models)) != len(models):
        raise ValueError("duplicate model names")
    seeds = [cfg.seed] if not seeds else list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds}")
    metric_for_dataset(dataset, cfg.task_metric)  # an unresolvable metric fails before any write
    settings = make_loo_settings(dataset)
    out_dir = Path(out_dir)
    (out_dir / "cells").mkdir(parents=True, exist_ok=True)

    all_domains = tuple(dataset.domains)
    every_art = (build_artifacts(dataset, all_domains, cfg)
                 if any(VARIANTS[m].all_domains for m in models) else None)
    # A run trained on every domain serves every setting; one that
    # pada and pada-nc share is dropped as soon as its (setting, seed)
    # is done.
    cache: dict = {}
    per_cell_reports: dict[tuple[str, str], list[ExperimentReport]] = {}
    for setting in settings:
        source_art = build_artifacts(dataset, setting.sources, cfg)
        for seed in seeds:
            for model in models:
                art = every_art if VARIANTS[model].all_domains else source_art
                report = run_setting(
                    dataset, setting, model, cfg, seed=seed, artifacts=art, cache=cache)
                per_cell_reports.setdefault((model, setting.target), []).append(report)
            cache = {key: run for key, run in cache.items() if key[1] == all_domains}

    cells: dict[tuple[str, str], dict] = {}
    for (model, target), reports in sorted(per_cell_reports.items()):
        f1s = [r.target_f1 for r in reports]
        devs = [r.source_dev_f1 for r in reports]
        shifts = [r.shift for r in reports]
        summary = {
            "model": model,
            "target": target,
            "sources": list(reports[0].sources),
            "target_f1": statistics.mean(f1s),
            "source_dev_f1": statistics.mean(devs),
            "shift": statistics.mean(shifts),
            "target_f1_sd": statistics.pstdev(f1s),
            "shift_sd": statistics.pstdev(shifts),
            "seeds": [r.seed for r in reports],
            "config_hash": reports[0].config_hash,
            "target_split": reports[0].target_split,
            "reports": [r.to_dict() for r in reports],
        }
        cells[(model, target)] = summary
        cell_path = out_dir / "cells" / f"{model}__{target}.json"
        with open(cell_path, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")

    write_run_report(out_dir, cells)
    return cells


DEFAULT_ALPHA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


def grid_search_alpha(
    dataset: MultiDomainDataset,
    values: Sequence[float],
    cfg: ExperimentConfig,
) -> tuple[float, dict[float, float]]:
    """Pick the mixture share by pooled dev F1 with every domain acting
    as a source; ties go to the smaller value."""
    if not values:
        raise ValueError("empty alpha grid")
    all_domains = tuple(dataset.domains)
    setting = LeaveOneOutSetting(target="", sources=all_domains)
    artifacts = build_artifacts(dataset, all_domains, cfg)
    scores: dict[float, float] = {}
    for alpha in values:
        trained = train_variant(
            dataset, setting, "pada", artifacts, replace(cfg, alpha=float(alpha)), cfg.seed)
        scores[float(alpha)] = float(trained.best_dev)
    best = min(scores, key=lambda a: (-scores[a], a))
    return best, scores


# --- model directories ------------------------------------------------------


def save_model_dir(
    out_dir,
    trained: TrainedVariant,
    cfg: ExperimentConfig,
    artifacts: SettingArtifacts | None = None,
) -> None:
    """Self-contained directory a later `predict` run can reload:
    manifest, vocabulary, checkpoint(s), training log, and the source
    feature profiles when available."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_vocab(out / "vocab.json", trained.vocab)
    manifest = {
        "model": trained.model,
        "target": trained.target,
        "sources": list(trained.sources),
        "label_set": list(trained.label_set),
        "positive_class": trained.positive_class,
        "config": asdict(cfg),
        "config_hash": cfg.config_hash(trained.label_set, trained.positive_class),
        "best_epoch": trained.best_epoch,
    }
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(out / "train_log.jsonl", "w") as f:
        for rec in trained.logs:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    if trained.ensemble is not None:
        experts = out / "experts"
        experts.mkdir(exist_ok=True)
        for d in trained.ensemble.domains:
            save_checkpoint(
                experts / f"{d}.bin", trained.model_cfg, trained.ensemble.params_by_domain[d]
            )
    else:
        save_checkpoint(out / "checkpoint.bin", trained.model_cfg, trained.params)
    if artifacts is not None:
        profiles = out / "profiles"
        profiles.mkdir(exist_ok=True)
        for d, profile in artifacts.profiles.items():
            save_profile(profiles / f"{d}.json", profile, rho=cfg.rho)
        artifacts.embeddings.write_text(profiles / "embeddings.txt")


def load_model_dir(model_dir) -> tuple[TrainedVariant, ExperimentConfig]:
    model_dir = Path(model_dir)
    manifest_path = model_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {model_dir}")
    manifest = read_json_object(manifest_path, "manifest")
    entry = partial(json_entry, manifest_path, manifest)

    def is_str_list(v):
        return isinstance(v, list) and all(isinstance(x, str) for x in v)

    cfg = config_from_dict(ExperimentConfig, manifest.get("config"), f"{manifest_path}: config")
    model = entry("model", lambda v: v in MODEL_NAMES, f"one of {MODEL_NAMES}")
    sources = tuple(entry("sources", is_str_list, "a list of strings"))
    label_set = tuple(entry("label_set", is_str_list, "a list of strings"))
    positive_class = entry("positive_class", lambda v: v is None or isinstance(v, str),
                           "a string or null")
    target = entry("target", lambda v: v is None or isinstance(v, str), "a string or null")
    vocab_path = model_dir / "vocab.json"
    vocab = load_vocab(vocab_path)

    def checkpoint(path):
        """The checkpoint at `path`, which must fit the manifest's labels
        and the vocabulary."""
        model_cfg, params = load_checkpoint(path)
        if model_cfg.n_classes != len(label_set):
            raise ValueError(f"{manifest_path}: {len(label_set)} labels, {path} has "
                             f"{model_cfg.n_classes} classes")
        if model_cfg.vocab_size != len(vocab):
            raise ValueError(f"{vocab_path}: {len(vocab)} tokens, {path} has vocab_size "
                             f"{model_cfg.vocab_size}")
        return model_cfg, params

    params = None
    ensemble = None
    if model == "moe":
        params_by_domain = {}
        model_cfg = None
        for d in sources:
            path = model_dir / "experts" / f"{d}.bin"
            expert_cfg, params_by_domain[d] = checkpoint(path)
            if model_cfg is not None and expert_cfg != model_cfg:
                raise ValueError(f"{path}: config differs from {sources[0]}.bin's")
            model_cfg = expert_cfg
        ensemble = ExpertEnsemble(
            model_cfg=model_cfg,
            domains=sources,
            params_by_domain=params_by_domain,
        )
    else:
        model_cfg, params = checkpoint(model_dir / "checkpoint.bin")
    trained = TrainedVariant(
        model=model,
        model_cfg=model_cfg,
        vocab=vocab,
        label_set=label_set,
        positive_class=positive_class,
        sources=sources,
        target=target,
        params=params,
        ensemble=ensemble,
        best_epoch=manifest.get("best_epoch", -1),
    )
    stored = entry("config_hash", lambda v: isinstance(v, str), "a string")
    computed = cfg.config_hash(label_set, positive_class)
    if stored != computed:
        raise ValueError(f"{manifest_path}: config_hash {stored} does not match the hash of "
                         f"its config and labels, {computed}")
    return trained, cfg
