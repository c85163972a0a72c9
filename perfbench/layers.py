"""Which program functions a traced run times, and the per-layer metrics
derived from their spans.

Span names are the defining module and function, so a layer reads the
same wherever it is called from; the tracer patches every module that
imported the function.
"""

from __future__ import annotations

from tracer import Layer, Span, summarize

PACKAGE = "pada_lab"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _decode_counts(args, kwargs, result):
    prefixes = _arg(args, kwargs, 4, "prefixes")
    rows = len(prefixes)
    return {"rows": rows, "prefix_tokens": rows * len(prefixes[0])}


def _loss_counts(args, kwargs, result):
    batch = _arg(args, kwargs, 2, "batch")
    tokens = sum(len(inst.input_ids) + len(inst.target_ids or ()) for inst in batch)
    return {f"{batch[0].task}_calls": 1, "tokens": tokens}


def _setting_tag(args, kwargs):
    setting = _arg(args, kwargs, 1, "setting")
    return f"{_arg(args, kwargs, 2, 'model')}@{setting.target}"


def _request_tag(args, kwargs):
    """A one-example prediction is a served request: tag it with the id."""
    examples = _arg(args, kwargs, 3, "examples")
    return examples[0].id if len(examples) == 1 else None


LAYERS = [
    Layer("pada_lab.corpus", "generate_synthetic"),
    Layer("pada_lab.drf", "extract_drf_set"),
    Layer("pada_lab.drf", "build_embeddings"),
    Layer("pada_lab.drf", "annotate_prompt"),
    Layer("pada_lab.model", "encode"),
    Layer("pada_lab.model", "classify"),
    Layer("pada_lab.model", "decode_step", count=_decode_counts),
    Layer("pada_lab.model", "loss_and_grads", count=_loss_counts),
    Layer("pada_lab.training", "adam_step"),
    Layer("pada_lab.training", "train",
          count=lambda a, k, r: {"epochs_run": r.epochs_run}),
    Layer("pada_lab.inference", "diverse_beam_search"),
    Layer("pada_lab.inference", "generate_prompt",
          count=lambda a, k, r: {"fallbacks": int(r.used_fallback)}),
    Layer("pada_lab.baselines", "classify_many",
          count=lambda a, k, r: {"examples": len(_arg(a, k, 3, "examples"))}),
    Layer("pada_lab.baselines", "moe_predict_many"),
    Layer("pada_lab.baselines", "dn_predict_many"),
    Layer("pada_lab.harness", "build_artifacts"),
    Layer("pada_lab.harness", "run_setting", tag=_setting_tag),
    Layer("pada_lab.harness", "run_loo"),
    Layer("pada_lab.harness", "pada_predict_many",
          tag=_request_tag),
    Layer("pada_lab.harness", "save_model_dir"),
    Layer("pada_lab.harness", "load_model_dir"),
]

# Units and direction of every per-layer metric, in report order.
PER_LAYER = {
    "model.decode_step.busy_s": ("s", "lower"),
    "model.decode_step.calls": ("count", "lower"),
    "model.decode_step.rows": ("count", "lower"),
    # rows x prefix length: the recomputation an incremental K/V cache removes
    "model.decode_step.prefix_tokens": ("count", "lower"),
    "model.decode_step.rows_per_call": ("rows/call", "higher"),
    "inference.diverse_beam_search.busy_s": ("s", "lower"),
    # busy minus decode_step: the Python hypothesis pool
    "inference.diverse_beam_search.self_s": ("s", "lower"),
    "inference.diverse_beam_search.calls": ("count", "lower"),
    "inference.decode_steps_per_prompt": ("calls/prompt", "lower"),
    "inference.fallback_share": ("ratio", "lower"),
    "model.loss_and_grads.busy_s": ("s", "lower"),
    "model.loss_and_grads.calls": ("count", "lower"),
    "model.loss_and_grads.gen_calls": ("count", "lower"),
    "model.loss_and_grads.disc_calls": ("count", "lower"),
    "model.loss_and_grads.tokens": ("count", "lower"),
    "training.adam_step.busy_s": ("s", "lower"),
    "training.adam_step.calls": ("count", "lower"),
    "training.train.busy_s": ("s", "lower"),
    "training.train.self_s": ("s", "lower"),
    "training.train.epochs_run": ("count", "lower"),
    # prediction spans whose parent is train: the dev-evaluation callback
    "training.eval.busy_s": ("s", "lower"),
    "drf.annotate_prompt.busy_s": ("s", "lower"),
    "drf.annotate_prompt.calls": ("count", "lower"),
    "drf.extract_drf_set.busy_s": ("s", "lower"),
    "drf.build_embeddings.busy_s": ("s", "lower"),
    "harness.build_artifacts.busy_s": ("s", "lower"),
    "baselines.classify_many.busy_s": ("s", "lower"),
    "baselines.classify_many.calls": ("count", "lower"),
    "baselines.classify_many.examples": ("count", "lower"),
    "baselines.moe_predict_many.busy_s": ("s", "lower"),
    "baselines.dn_predict_many.busy_s": ("s", "lower"),
    "model.encode.busy_s": ("s", "lower"),
    "model.classify.busy_s": ("s", "lower"),
    "harness.run_setting.busy_s": ("s", "lower"),
    "harness.run_setting.calls": ("count", "lower"),
    # orchestration plus the cell JSON, CSV and SVG writes
    "harness.run_loo.self_s": ("s", "lower"),
    "harness.pada_predict_many.busy_s": ("s", "lower"),
    "harness.load_model_dir.busy_s": ("s", "lower"),
    "corpus.generate_synthetic.busy_s": ("s", "lower"),
    # (median traced pass - median untraced pass) / median untraced pass
    "trace.overhead_share": ("ratio", "lower"),
}

# Counters that must repeat exactly across runs of one seed.
EXACT_COUNTS = [
    "model.decode_step.calls", "model.decode_step.rows", "model.decode_step.prefix_tokens",
    "inference.diverse_beam_search.calls", "model.loss_and_grads.gen_calls",
    "model.loss_and_grads.disc_calls", "model.loss_and_grads.tokens",
    "training.adam_step.calls", "training.train.epochs_run", "drf.annotate_prompt.calls",
    "baselines.classify_many.examples", "harness.run_setting.calls",
]

_TRAIN_STEPS = ("model.loss_and_grads", "training.adam_step")


def layer_metrics(*span_lists: list[Span]) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, over the
    spans of one or more tracers."""
    by_name = summarize(*span_lists)

    def stat(name, key):
        s = by_name.get(name)
        if s is None:
            return 0
        return s[key] if key in s else s["counts"].get(key, 0)

    out: dict[str, float] = {m: stat(*m.rpartition(".")[::2]) for m in PER_LAYER}
    del out["trace.overhead_share"]

    def ratio(a, b):
        return a / b if b else 0.0

    out["model.decode_step.rows_per_call"] = ratio(
        stat("model.decode_step", "rows"), stat("model.decode_step", "calls"))
    out["inference.decode_steps_per_prompt"] = ratio(
        stat("model.decode_step", "calls"), stat("inference.diverse_beam_search", "calls"))
    out["inference.fallback_share"] = ratio(
        stat("inference.generate_prompt", "fallbacks"), stat("inference.generate_prompt", "calls"))
    out["training.eval.busy_s"] = sum(
        sp.duration for spans in span_lists for sp in spans
        if sp.parent is not None and spans[sp.parent].name == "training.train"
        and sp.name not in _TRAIN_STEPS
    )
    return out
