"""The benchmark's workloads: inputs made from the seed, one timed
operation, and the checks on each operation's output.

- loo-pada: one `run_loo` grid of pada,pada-nc over 3 synthetic domains
  of 5 examples, 1 epoch, default beam settings. Diverse beam search in
  the dev evaluation and target scoring does the work; the early-epoch
  models rarely emit EOS, so prompts decode to the length cap.
- loo-cls: one `run_loo` grid of noda,moe,pada-dn over 3 domains of 20
  examples, 2 epochs. Training steps and DRF annotation do the work and
  no beam search runs, so a beam-search change should change nothing
  here; pada-dn's generative batches still exercise the decoder backward.
- predict: a closed loop with one client. Set-up trains one pada setting
  (3 domains of 120 examples, desk defaults) and reloads it from its
  model directory; each request is one held-out target example through
  `pada_predict_many`, and the next waits for the previous one. Prompts
  end with EOS well before the cap and nothing batches across examples.

Grids are small so that one run times several of them: on a 2-core host
with BLAS pinned to one thread a grid takes 2-3 s and predict set-up
about 10 s.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from pada_lab import baselines, corpus, harness, training
from pada_lab.corpus import EOS


@dataclass
class Outcome:
    seconds: float  # wall time of the program call alone
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class LooWorkload:
    """One leave-one-out grid per operation."""

    ops_per_pass = 1  # ops per traced or untraced pass in a traced run
    n_domains = 3

    def __init__(self, name, models, examples_per_domain, epochs):
        self.name = name
        self.models = tuple(models)
        self.examples_per_domain = examples_per_domain
        self.epochs = epochs

    def params(self) -> dict:
        return {"models": list(self.models), "n_domains": self.n_domains,
                "examples_per_domain": self.examples_per_domain, "epochs": self.epochs}

    def min_ops(self, state: dict) -> int:
        return 5  # the median of an untraced run needs several grids

    def setup(self, seed: int, work_dir: Path) -> dict:
        spec = corpus.SyntheticSpec(
            n_domains=self.n_domains, examples_per_domain=self.examples_per_domain, seed=seed)
        dataset = corpus.generate_synthetic(spec)
        cfg = replace(harness.ExperimentConfig(), epochs=self.epochs, seed=seed)
        return {"dataset": dataset, "cfg": cfg, "work_dir": work_dir, "ops": 0,
                "cells": None, "digests": []}

    def op(self, state: dict) -> Outcome:
        out_dir = state["work_dir"] / f"grid-{state['ops']}"
        state["ops"] += 1
        dataset = state["dataset"]
        try:
            start = time.perf_counter()
            cells = harness.run_loo(dataset, self.models, state["cfg"], out_dir)
            seconds = time.perf_counter() - start
            errors = self.check(cells, dataset.domains, out_dir)
            state["digests"].append(_sha256(out_dir / "aggregate.csv"))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if state["cells"] is None:
            state["cells"] = cells
        return Outcome(seconds, len(self.models) * len(dataset.domains), len(errors), errors)

    def failed_op(self, state: dict) -> Outcome:
        cells = len(self.models) * len(state["dataset"].domains)
        return Outcome(0.0, cells, cells)

    def check(self, cells: dict, targets, out_dir: Path) -> list[str]:
        """One error per cell that is missing, not written, or breaks
        the report invariants; the aggregate CSV must agree."""
        errors = []
        for model in self.models:
            for target in targets:
                cell = cells.get((model, target))
                where = f"{model}@{target}"
                if cell is None or not (out_dir / "cells" / f"{model}__{target}.json").exists():
                    errors.append(f"{where}: missing")
                elif not (0.0 <= cell["target_f1"] <= 1.0 and 0.0 <= cell["source_dev_f1"] <= 1.0):
                    errors.append(f"{where}: F1 outside [0, 1]")
                elif abs(cell["shift"] - (cell["source_dev_f1"] - cell["target_f1"])) > 1e-12:
                    errors.append(f"{where}: shift is not dev minus test")
        with open(out_dir / "aggregate.csv") as f:
            rows = {r["model"]: r for r in csv.DictReader(f)}
        for model in self.models:
            f1s = [cells[(model, t)]["target_f1"] for t in targets if (model, t) in cells]
            row = rows.get(model)
            if row is None or len(f1s) != len(targets) or abs(
                float(row["mean_f1"]) - statistics.mean(f1s)
            ) > 5e-7:
                errors.append(f"{model}: aggregate.csv row disagrees with the cells")
        return errors

    def consistent(self, state: dict) -> list[str]:
        """Every grid of one run computes the same inputs, so the
        aggregate CSVs must be byte-identical."""
        if len(set(state["digests"])) > 1:
            return ["aggregate.csv differs between grids of one run"]
        return []

    def report(self, state: dict, durations: list[float]) -> dict:
        cells = state["cells"] or {}
        out = {
            "grid_s": statistics.median(durations) if durations else None,
            "grid_count": len(durations),
            "aggregate_sha256": state["digests"][0] if state["digests"] else None,
            "mean_abs_shift": statistics.mean(abs(c["shift"]) for c in cells.values())
            if cells else None,
        }
        for model in self.models:
            f1s = [c["target_f1"] for (m, _), c in cells.items() if m == model]
            out[f"f1.{model}"] = statistics.mean(f1s) if f1s else None
        return out


class PredictWorkload:
    """One held-out target example per operation, served by a pada model
    trained in set-up and reloaded from its model directory."""

    name = "predict"
    ops_per_pass = 20  # requests per pass in a traced run
    n_domains = 3
    examples_per_domain = 120

    def params(self) -> dict:
        return {"models": ["pada"], "n_domains": self.n_domains,
                "examples_per_domain": self.examples_per_domain,
                "epochs": harness.ExperimentConfig().epochs, "clients": 1, "loop": "closed"}

    def setup(self, seed: int, work_dir: Path) -> dict:
        """Train one pada setting with the desk defaults, with dev
        selection by classification under gold prompts, then round-trip
        the model through its directory."""
        spec = corpus.SyntheticSpec(
            n_domains=self.n_domains, examples_per_domain=self.examples_per_domain, seed=seed)
        dataset = corpus.generate_synthetic(spec)
        setting = corpus.make_loo_settings(dataset)[0]
        cfg = replace(harness.ExperimentConfig(), seed=seed)
        art = harness.build_artifacts(dataset, setting.sources, cfg)
        vocab = art.vocab
        label_set = dataset.label_set
        model_cfg = cfg.model_config(len(vocab.id_to_token), len(label_set))
        metric = harness.metric_for_dataset(dataset)
        dev = dataset.dev_examples(setting.sources)
        dev_gold = [ex.label for ex in dev]
        dev_prompts = [training.gold_prompt_ids(art.annotations[(ex.domain, ex.id)], vocab)
                       for ex in dev]

        def eval_fn(params):
            probs = baselines.classify_many(model_cfg, params, vocab, dev, prompts=dev_prompts)
            return metric.score(dev_gold, harness.probs_to_labels(probs, label_set), label_set)

        pairs = [(ex, art.annotations[(d, ex.id)])
                 for d in setting.sources for ex in dataset.train[d]]
        result = training.train(model_cfg, vocab, label_set, pairs, cfg.train_config(), eval_fn)
        trained = harness.TrainedVariant(
            model="pada", model_cfg=model_cfg, vocab=vocab, label_set=tuple(label_set),
            positive_class=dataset.positive_class, sources=tuple(setting.sources),
            target=setting.target, params=result.params, logs=result.log,
            best_epoch=result.best_epoch, best_dev=result.best_dev,
        )
        model_dir = work_dir / "model"
        harness.save_model_dir(model_dir, trained, cfg, art)
        loaded, loaded_cfg = harness.load_model_dir(model_dir)
        shutil.rmtree(model_dir)
        errors = []
        if (loaded.model_cfg != model_cfg or loaded.vocab != vocab or loaded_cfg != cfg
                or loaded.params.keys() != result.params.keys()
                or not all(np.array_equal(loaded.params[k], v) for k, v in result.params.items())):
            errors.append("model directory round trip changed the model")
        requests = dataset.target_test_examples(setting.target)
        order = np.random.default_rng(seed).permutation(len(requests))
        return {
            "model": loaded, "beam_cfg": loaded_cfg.beam_config(), "metric": metric,
            "label_set": tuple(label_set), "requests": [requests[i] for i in order],
            "ops": 0, "first_pass": {}, "setup_errors": errors, "epochs_run": result.epochs_run,
        }

    def min_ops(self, state: dict) -> int:
        return len(state["requests"])  # serve every held-out example once

    def op(self, state: dict) -> Outcome:
        requests = state["requests"]
        index = state["ops"] % len(requests)
        example = requests[index]
        state["ops"] += 1
        model = state["model"]
        start = time.perf_counter()
        probs, prompts = harness.pada_predict_many(
            model.model_cfg, model.params, model.vocab, [example], state["beam_cfg"])
        seconds = time.perf_counter() - start
        errors = self.check(probs, prompts, state["label_set"])
        if index not in state["first_pass"]:
            label = state["label_set"][int(np.argmax(probs[0]))] if not errors else None
            state["first_pass"][index] = (example.label, label, probs[0].tolist(),
                                          list(prompts[0].ids) if prompts else None)
        return Outcome(seconds, 1, len(errors), errors)

    def failed_op(self, state: dict) -> Outcome:
        state["ops"] += 1
        return Outcome(0.0, 1, 1)

    @staticmethod
    def check(probs, prompts, label_set) -> list[str]:
        probs = np.asarray(probs)
        if probs.shape != (1, len(label_set)):
            return [f"probabilities have shape {probs.shape}"]
        if not np.isfinite(probs).all() or abs(float(probs.sum()) - 1.0) > 1e-9:
            return ["probabilities are not a finite distribution"]
        if len(prompts) != 1 or not prompts[0].ids or prompts[0].ids[-1] != EOS:
            return ["prompt is not EOS-terminated"]
        return []

    def consistent(self, state: dict) -> list[str]:
        return list(state["setup_errors"])

    def report(self, state: dict, durations: list[float]) -> dict:
        first = [state["first_pass"][i] for i in sorted(state["first_pass"])]
        served = [(gold, pred) for gold, pred, _, _ in first if pred is not None]
        f1 = None
        if served:
            f1 = state["metric"].score(
                [g for g, _ in served], [p for _, p in served], state["label_set"])
        ms = sorted(d * 1000 for d in durations)
        digest = hashlib.sha256(repr(first).encode()).hexdigest()
        return {
            "request_p50_ms": statistics.median(ms) if ms else None,
            "request_p95_ms": statistics.quantiles(ms, n=20)[-1] if len(ms) >= 2 else None,
            "request_count": len(ms),
            "requests_per_s": len(ms) / sum(durations) if durations else None,
            "f1.pada": f1,
            "held_out_requests": len(state["requests"]),
            "epochs_run": state["epochs_run"],
            "predictions_sha256": digest,
        }


WORKLOADS = {
    w.name: w
    for w in (
        LooWorkload("loo-pada", ("pada", "pada-nc"), examples_per_domain=5, epochs=1),
        LooWorkload("loo-cls", ("noda", "moe", "pada-dn"), examples_per_domain=20, epochs=2),
        PredictWorkload(),
    )
}
