"""The benchmark under perfbench/ reaches into the program by name: it
times the functions `layers.LAYERS` lists, its workloads call `pada_lab`
functions directly, and they call methods of the config and metric
objects the program hands back. Every such name must keep resolving,
and every such call must keep binding to its callable's signature, so a
deletion or a renamed parameter that would break the benchmark fails
here."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers").LAYERS
    finally:
        sys.path.remove(str(PERFBENCH))


def _workloads():
    """The parsed workloads.py, and the local names of the modules it
    imported from pada_lab."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pada_lab":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"pada_lab.{alias.name}"
    return tree, modules


def _workload_names() -> set[tuple[str, str]]:
    """(module, attribute) for every `from pada_lab... import x` in
    workloads.py and every `m.x` on a module it imported from pada_lab."""
    tree, modules = _workloads()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pada_lab"):
            names.update((node.module, alias.name) for alias in node.names)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def _workload_calls() -> list[tuple]:
    """(line, name, callable, positional count, keyword names) for every
    `m.f(...)` in workloads.py on a module it imported from pada_lab, and
    for every `replace(m.C(...), ...)`, whose keywords must be fields of
    C. Calls that unpack `*args` or `**kwargs` are left out."""
    tree, modules = _workloads()

    def target(func):
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            module = modules[func.value.id]
            return f"{module}.{func.attr}", getattr(importlib.import_module(module), func.attr)
        return None

    calls = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.Call) or any(isinstance(a, ast.Starred) for a in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue
        keywords = [kw.arg for kw in node.keywords]
        if target(node.func):
            calls.append((node.lineno, *target(node.func), len(node.args), keywords))
        elif (isinstance(node.func, ast.Name) and node.func.id == "replace" and node.args
              and isinstance(node.args[0], ast.Call) and target(node.args[0].func)):
            calls.append((node.lineno, *target(node.args[0].func), 0, keywords))
    return calls


# The objects workloads.py gets from the program, by the name it keeps
# each under (a variable, or a key of its state dict), and their class.
_OBJECTS = {
    "cfg": ("pada_lab.harness", "ExperimentConfig"),
    "loaded_cfg": ("pada_lab.harness", "ExperimentConfig"),
    "metric": ("pada_lab.harness", "MetricSpec"),
}


def _method_calls() -> list[tuple]:
    """(line, name, function or None, positional count, keyword names)
    for every `x.f(...)` in workloads.py on an object named in _OBJECTS,
    `x` a variable or `state["x"]`. The function is the class's own, so
    the positional count includes `self`; it is None where the class has
    no such attribute."""
    tree, _ = _workloads()
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        obj = node.func.value
        if isinstance(obj, ast.Subscript) and isinstance(obj.slice, ast.Constant):
            obj_name = obj.slice.value
        else:
            obj_name = obj.id if isinstance(obj, ast.Name) else None
        if obj_name not in _OBJECTS:
            continue
        module, cls = _OBJECTS[obj_name]
        fn = getattr(getattr(importlib.import_module(module), cls), node.func.attr, None)
        calls.append((node.lineno, f"{module}.{cls}.{node.func.attr}", fn, len(node.args) + 1,
                      [kw.arg for kw in node.keywords]))
    return calls


def _unbound(calls) -> list[str]:
    """Each call whose positional count or keyword names its callable's
    signature rejects."""
    errors = []
    for line, name, fn, n_args, keywords in calls:
        try:
            inspect.signature(fn).bind_partial(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as e:
            errors.append(f"workloads.py:{line} {name}: {e}")
    return errors


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


def test_workload_calls_bind():
    calls = _workload_calls() + _method_calls()
    names = {name for _, name, _, _, _ in calls}
    assert {"pada_lab.harness.TrainedVariant", "pada_lab.training.train",
            "pada_lab.harness.ExperimentConfig",
            "pada_lab.harness.ExperimentConfig.model_config",
            "pada_lab.harness.ExperimentConfig.train_config",
            "pada_lab.harness.ExperimentConfig.beam_config",
            "pada_lab.harness.MetricSpec.score"} <= names
    assert [f"workloads.py:{line} {name}" for line, name, fn, _, _ in calls if fn is None] == []
    assert _unbound(calls) == []
