"""Subcommand front door for the whole pipeline.

Every subcommand merges three layers of configuration, most specific
winning: command-line flags, then a key=value config file, then
built-in defaults. The settings a run computes with form one
`ExperimentConfig`, and its `config_hash` is embedded in every report
the run emits, so outputs can be traced back to those settings.

Exit codes: 0 on success, 1 on a runtime error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from .corpus import (
    Example,
    IngestSchema,
    LeaveOneOutSetting,
    SyntheticSpec,
    generate_synthetic,
    ingest_jsonl,
    line_example,
    read_records,
    write_jsonl,
)
from .harness import (
    DEFAULT_ALPHA_GRID,
    MODEL_NAMES,
    VARIANTS,
    ExperimentConfig,
    build_artifacts,
    grid_search_alpha,
    load_model_dir,
    pada_candidates_many,
    read_run_cells,
    run_loo,
    save_model_dir,
    summary_table,
    train_variant,
    write_run_report,
)
from .model import config_from_dict


class UsageError(Exception):
    """Bad flags, bad config keys, or missing required values: exit 2."""


EXPERIMENT_KEYS = tuple(f.name for f in fields(ExperimentConfig))
SYNTH_KEYS = tuple(f.name for f in fields(SyntheticSpec))
# The feature-extraction settings `drf extract` shares with the pipeline.
DRF_KEYS = ("rho", "k_drf", "d_emb", "window")

# One setting per IngestSchema field; a field-name setting is flagged
# with a _field suffix (--text-field), the others by their own name.
_SCHEMA_KEYS = {f.name: f"{f.name}_field" if isinstance(f.default, str) else f.name
                for f in fields(IngestSchema)}
_SCHEMA_DEFAULTS = {_SCHEMA_KEYS[f.name]: f.default for f in fields(IngestSchema)}


def _parse_scalar(raw: str):
    text = raw.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def read_config_file(path) -> dict:
    """key = value lines; # starts a comment; values are parsed as
    bool/int/float when they look like one, strings otherwise."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{n}: expected key = value, got {line.strip()!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if not key:
                raise UsageError(f"{path}:{n}: empty key")
            values[key] = _parse_scalar(raw)
    return values


def merge_config(defaults: dict, args: argparse.Namespace) -> dict:
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = read_config_file(config_path)
        unknown = sorted(set(file_values) - set(defaults))
        if unknown:
            raise UsageError(
                f"unknown config keys {unknown}; valid keys: {sorted(defaults)}"
            )
        merged.update(file_values)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _require(merged: dict, key: str):
    if merged.get(key) in (None, ""):
        raise UsageError(f"missing required value --{key.replace('_', '-')}")
    return merged[key]


def _schema_from(merged: dict) -> IngestSchema:
    values = {name: merged[key] for name, key in _SCHEMA_KEYS.items()}
    if isinstance(values["labels"], str):
        values["labels"] = tuple(s.strip() for s in values["labels"].split(",") if s.strip())
    return IngestSchema(**values)


def _settings(cls, merged: dict, keys):
    """cls from `keys` of `merged`; a value of the wrong type (config-file
    values are untyped) or out of range is a usage error naming the key."""
    try:
        return config_from_dict(cls, {k: merged[k] for k in keys}, "config")
    except ValueError as e:
        raise UsageError(str(e)) from e


def _print_hash(cfg: ExperimentConfig, dataset) -> str:
    config_hash = cfg.config_hash(dataset.label_set, dataset.positive_class)
    print(f"config hash: {config_hash}")
    return config_hash


# --- flag registration ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pada-lab",
        description="Prompt-conditioned multi-source domain adaptation at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    experiment_defaults = asdict(ExperimentConfig())

    def command(name, body, keys_with_defaults, parent=sub, **kwargs):
        """Subcommand `name` under `parent` that runs `body`, with one
        flag per key, typed by its default."""
        p = parent.add_parser(name, **kwargs)
        p.add_argument("--config", default=None, help="key = value config file")
        merged_defaults = {}
        for block in keys_with_defaults:
            merged_defaults.update(block)
        for key, value in merged_defaults.items():
            kind = int if isinstance(value, int) else float if isinstance(value, float) else str
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=None, dest=key)
        p.set_defaults(_body=body, _defaults=merged_defaults)

    command(
        "gen-data", _cmd_gen_data,
        [asdict(SyntheticSpec()), {"out": None}],
        help="write a synthetic multi-domain JSONL corpus",
    )

    drf = sub.add_parser("drf", help="domain-feature operations")
    command(
        "extract", _cmd_drf_extract,
        [{"data": None, "out": None, "domains": None},
         {k: experiment_defaults[k] for k in DRF_KEYS}, _SCHEMA_DEFAULTS],
        parent=drf.add_subparsers(dest="drf_command", required=True),
        help="extract per-domain feature profiles",
    )

    command(
        "train", _cmd_train,
        [experiment_defaults, _SCHEMA_DEFAULTS,
         {"data": None, "out": None, "model": "pada", "target": None}],
        help="train one model variant for one held-out target",
    )
    command(
        "predict", _cmd_predict,
        [_SCHEMA_DEFAULTS, {"data": None, "out": None, "model_dir": None}],
        help="run a trained model directory over JSONL examples",
    )
    command(
        "run-loo", _cmd_run_loo,
        [experiment_defaults, _SCHEMA_DEFAULTS,
         {"data": None, "out": None, "models": "pada,noda", "seeds": None}],
        help="full leave-one-out grid with reports, CSV, and heatmap",
    )
    command(
        "tune-alpha", _cmd_tune_alpha,
        [{k: v for k, v in experiment_defaults.items() if k != "alpha"}, _SCHEMA_DEFAULTS,
         {"data": None, "out": None, "grid": ",".join(map(str, DEFAULT_ALPHA_GRID))}],
        help="pick the task-mixture share alpha by pooled dev F1",
    )
    command(
        "report", _cmd_report,
        [{"run_dir": None, "out": None}],
        help="rebuild the aggregate CSV and heatmap from cell reports",
    )
    return parser


# --- subcommand bodies ------------------------------------------------------


def _cmd_gen_data(merged: dict) -> int:
    out = Path(_require(merged, "out"))
    spec = _settings(SyntheticSpec, merged, SYNTH_KEYS)
    dataset = generate_synthetic(spec)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(dataset, out)
    total = sum(len(dataset.train[d]) + len(dataset.dev[d]) for d in dataset.domains)
    print(f"wrote {total} examples across {len(dataset.domains)} domains to {out}")
    return 0


def _cmd_drf_extract(merged: dict) -> int:
    from .drf import build_embeddings, extract_drf_set, save_profile
    from .corpus import build_vocabulary

    data = _require(merged, "data")
    out = Path(_require(merged, "out"))
    cfg = _settings(ExperimentConfig, merged, DRF_KEYS)
    dataset = ingest_jsonl(data, _schema_from(merged))
    raw_domains = merged.get("domains")
    domains = (
        tuple(s.strip() for s in raw_domains.split(",") if s.strip())
        if raw_domains else tuple(dataset.domains)
    )
    vocab = build_vocabulary(dataset, domains)  # rejects an unknown domain
    repeated = sorted({d for d in domains if domains.count(d) > 1})
    if repeated:
        raise ValueError(f"domains named more than once: {repeated}")
    out.mkdir(parents=True, exist_ok=True)
    for d in domains:
        profile = extract_drf_set(dataset, domains, d, rho=cfg.rho, k_drf=cfg.k_drf)
        save_profile(out / f"{d}.json", profile, rho=cfg.rho)
        print(f"{d}: {len(profile.drfs)} features -> {out / f'{d}.json'}")
    emb = build_embeddings(dataset, domains, vocab, d_emb=cfg.d_emb, window=cfg.window)
    emb.write_text(out / "embeddings.txt")
    print(f"embeddings: {len(emb.vectors)} tokens x {emb.dim} dims -> {out / 'embeddings.txt'}")
    _print_hash(cfg, dataset)
    return 0


def _cmd_train(merged: dict) -> int:
    data = _require(merged, "data")
    out = Path(_require(merged, "out"))
    target = _require(merged, "target")
    model = merged["model"]
    if model not in MODEL_NAMES:
        raise UsageError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    cfg = _settings(ExperimentConfig, merged, EXPERIMENT_KEYS)
    dataset = ingest_jsonl(data, _schema_from(merged))
    if target not in dataset.domains:
        raise ValueError(f"target {target!r} not a domain of {data}")
    sources = tuple(d for d in dataset.domains if d != target)
    setting = LeaveOneOutSetting(target=target, sources=sources)
    artifacts = build_artifacts(dataset, VARIANTS[model].domains(dataset, setting), cfg)
    trained = train_variant(dataset, setting, model, artifacts, cfg, cfg.seed)
    save_model_dir(out, trained, cfg, artifacts=artifacts)
    print(f"trained {model} (target {target}) -> {out}")
    for rec in trained.logs:
        print(f"  {json.dumps(rec, sort_keys=True)}")
    _print_hash(cfg, dataset)
    return 0


def _read_predict_records(path, schema: IngestSchema) -> list[Example]:
    """Examples for predict: label and domain are carried through when
    present, and an example without an id is named by its line."""
    return [line_example(n, id=rec.get("id", f"r{n}"), text=rec["text"],
                         label=rec.get("label", ""), domain=rec.get("domain", ""))
            for n, rec in read_records(path, schema)]


def _cmd_predict(merged: dict) -> int:
    model_dir = _require(merged, "model_dir")
    data = _require(merged, "data")
    out = Path(_require(merged, "out"))
    trained, cfg = load_model_dir(model_dir)
    model_hash = cfg.config_hash(trained.label_set, trained.positive_class)
    examples = _read_predict_records(data, _schema_from(merged))

    candidate_lists = None
    if trained.model == "pada":  # every candidate is written, not the best alone
        probs, candidate_lists = pada_candidates_many(
            trained.model_cfg, trained.params, trained.vocab, examples, cfg, cfg.num_candidates)
    else:
        probs, _ = VARIANTS[trained.model].predict(trained, examples, cfg)

    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        for i, ex in enumerate(examples):
            cands = candidate_lists[i] if candidate_lists else []
            rec = {
                "id": ex.id,
                "generated_prompt": " ".join(cands[0].tokens) if cands else None,
                "candidates": [
                    {"tokens": list(c.tokens), "score": c.score} for c in cands
                ],
                "class_probs": [float(p) for p in probs[i]],
                "predicted_label": trained.label_set[int(probs[i].argmax())],
                "config_hash": model_hash,
            }
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {len(examples)} predictions -> {out}")
    print(f"config hash: {model_hash}")
    return 0


def _cmd_run_loo(merged: dict) -> int:
    data = _require(merged, "data")
    out = Path(_require(merged, "out"))
    models = [m.strip() for m in merged["models"].split(",") if m.strip()]
    if not models:
        raise UsageError("empty --models list")
    unknown = [m for m in models if m not in MODEL_NAMES]
    if unknown:
        raise UsageError(f"unknown models {unknown}; expected names from {MODEL_NAMES}")
    seeds = None
    if merged.get("seeds") not in (None, ""):
        try:
            seeds = [int(s) for s in str(merged["seeds"]).split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"--seeds must be comma-separated integers, got {merged['seeds']!r}")
    cfg = _settings(ExperimentConfig, merged, EXPERIMENT_KEYS)
    dataset = ingest_jsonl(data, _schema_from(merged))
    t0 = time.perf_counter()
    cells = run_loo(dataset, models, cfg, out, seeds=seeds)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_mb = usage.ru_maxrss / 1024  # KiB on Linux
    print(summary_table(cells))
    print(f"{wall:.1f}s wall, {peak_mb:.1f} MB peak RSS, {usage.ru_minflt} minor page faults; "
          f"reports -> {out}")
    _print_hash(cfg, dataset)
    return 0


def _cmd_tune_alpha(merged: dict) -> int:
    data = _require(merged, "data")
    cfg = _settings(ExperimentConfig, merged, [k for k in EXPERIMENT_KEYS if k != "alpha"])
    grid = str(merged["grid"])
    try:
        values = [replace(cfg, alpha=float(v)).alpha for v in grid.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--grid must be comma-separated alphas in [0, 1], got {grid!r}")
    if not values:
        raise UsageError("empty --grid")
    dataset = ingest_jsonl(data, _schema_from(merged))
    best, scores = grid_search_alpha(dataset, values, cfg)
    for alpha in sorted(scores):
        marker = "  <- best" if alpha == best else ""
        print(f"alpha {alpha:.2f}: pooled dev F1 {scores[alpha]:.4f}{marker}")
    best_hash = _print_hash(replace(cfg, alpha=best), dataset)  # the winning model's settings
    if merged.get("out"):
        out = Path(merged["out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as f:
            json.dump({"best": best, "config_hash": best_hash, "scores": scores}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
    return 0


def _cmd_report(merged: dict) -> int:
    run_dir = Path(_require(merged, "run_dir"))
    out = Path(merged["out"]) if merged.get("out") else run_dir
    models, targets = write_run_report(out, read_run_cells(run_dir))
    print(f"aggregate over {len(models)} models x {len(targets)} targets -> {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args._body(merge_config(args._defaults, args))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, KeyError) as e:
        module = type(e).__module__
        origin = "" if module == "builtins" else f" [{module}]"
        print(f"error{origin}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
