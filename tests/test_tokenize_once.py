"""A text is tokenized once, when its `Example` is built: every later
stage reads `Example.tokens`, so no other module calls `tokenize` and a
leave-one-out grid tokenizes nothing after its dataset exists."""

import ast
import json
import sys
from dataclasses import replace
from pathlib import Path

from pada_lab import cli, corpus
from pada_lab.harness import ExperimentConfig, run_loo

SRC = Path(__file__).resolve().parents[1] / "src" / "pada_lab"


def _calls_tokenize(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "tokenize":
                return True
    return False


def test_only_corpus_calls_tokenize():
    assert [p.name for p in sorted(SRC.glob("*.py")) if _calls_tokenize(p)] == ["corpus.py"]


def test_loo_grid_tokenizes_nothing_after_the_dataset_is_built(tmp_path, monkeypatch):
    dataset = corpus.generate_synthetic(
        corpus.SyntheticSpec(n_domains=3, examples_per_domain=20, seed=7))
    real, calls = corpus.tokenize, []

    def counting(text):
        calls.append(text)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pada_lab" and hasattr(module, "tokenize"):
            monkeypatch.setattr(module, "tokenize", counting)
    cfg = replace(ExperimentConfig(), epochs=2, seed=7)
    run_loo(dataset, ["noda", "moe", "pada-dn"], cfg, tmp_path)
    assert calls == []


def test_reading_a_record_tokenizes_its_text_once(tmp_path, monkeypatch):
    # the reader leaves the no-token check to the Example it builds
    path = tmp_path / "in.jsonl"
    path.write_text("".join(
        json.dumps({"id": f"r{i}", "text": f"word{i} and more", "label": "pos", "domain": "d"})
        + "\n" for i in range(10)))
    real, calls = corpus.tokenize, []

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(corpus, "tokenize", counting)
    corpus.ingest_jsonl(path)
    assert len(calls) == 10
    calls.clear()
    cli._read_predict_records(path, corpus.IngestSchema())
    assert len(calls) == 10
