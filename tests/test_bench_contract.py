"""The benchmark under perfbench/ reaches into the program by name: it
times the functions `layers.LAYERS` lists and its workloads call
`pada_lab` functions directly. Every such name must keep resolving, so
a deletion that would break the benchmark fails here."""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers").LAYERS
    finally:
        sys.path.remove(str(PERFBENCH))


def _workload_names() -> set[tuple[str, str]]:
    """(module, attribute) for every `from pada_lab... import x` in
    workloads.py and every `m.x` on a module it imported from pada_lab."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pada_lab"):
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "pada_lab":
                    modules[alias.asname or alias.name] = f"pada_lab.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def _unresolved(pairs) -> list[str]:
    return sorted(
        f"{module}.{attr}" for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    )


def test_traced_layers_resolve():
    layers = _traced_layers()
    assert len(layers) >= 20
    assert _unresolved((layer.module, layer.attr) for layer in layers) == []


def test_workload_names_resolve():
    names = _workload_names()
    assert ("pada_lab.harness", "pada_predict_many") in names
    assert ("pada_lab.harness", "run_loo") in names
    assert _unresolved(names) == []
