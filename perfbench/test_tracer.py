"""Tests for the benchmark's tracer. Run from the checkout root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from layers import LAYERS, PACKAGE, PER_LAYER, layer_metrics  # noqa: E402
from tracer import Layer, Tracer, summarize  # noqa: E402


class StepClock:
    """Deterministic clock: each reading advances by the next step."""

    def __init__(self, steps):
        self.t = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.t += next(self.steps)
        return self.t


def test_self_time_is_duration_minus_children():
    # root opens at 1 and closes at 20; children a [2, 5] and b [6, 14],
    # b holding c [8, 11]
    tr = Tracer(clock=StepClock([1, 1, 3, 1, 2, 3, 3, 6]))
    with tr.span("root"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("c"):
                pass
    root, a, b, c = tr.spans
    assert (root.duration, a.duration, b.duration, c.duration) == (19, 3, 8, 3)
    assert root.self_s == root.duration - a.duration - b.duration == 8
    assert b.self_s == b.duration - c.duration == 5
    assert a.self_s == a.duration and c.self_s == c.duration
    assert (a.parent, b.parent, c.parent) == (0, 0, 2)


def test_children_inherit_tag_and_recursion_counts_once():
    tr = Tracer(clock=StepClock([1] * 8))
    with tr.span("f", tag="cell-1"):
        with tr.span("f"):
            with tr.span("g"):
                pass
    assert [s.tag for s in tr.spans] == ["cell-1"] * 3
    stats = summarize(tr.spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["busy_s"] == tr.spans[0].duration


@pytest.fixture
def fake_package(monkeypatch):
    core = types.ModuleType("fakepkg.core")

    def work(x, rows=()):
        return x + len(rows)

    core.work = work
    user = types.ModuleType("fakepkg.user")
    user.work_alias = core.work  # as after `from .core import work as work_alias`
    user.call = lambda x: user.work_alias(x, rows=(1, 2))
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user, work


def test_installed_wraps_every_imported_name_and_restores(fake_package):
    core, user, work = fake_package
    layer = Layer("fakepkg.core", "work",
                  count=lambda a, k, r: {"rows": len(k.get("rows", ()))})
    tr = Tracer()
    with tr.installed([layer], "fakepkg"):
        assert core.work is not work and user.work_alias is not work
        assert user.call(1) == 3
        assert core.work(5) == 5
    assert core.work is work and user.work_alias is work
    assert [s.name for s in tr.spans] == ["core.work", "core.work"]
    assert summarize(tr.spans)["core.work"]["counts"] == {"rows": 2}
    user.call(1)
    assert len(tr.spans) == 2  # nothing recorded once restored


def test_installed_restores_after_an_exception(fake_package):
    core, user, work = fake_package
    tr = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.installed([Layer("fakepkg.core", "work")], "fakepkg"):
            1 / 0
    assert core.work is work and user.work_alias is work


def test_program_layers_are_all_restored():
    import pada_lab.cli  # noqa: F401  (import every module that could hold a name)

    def snapshot():
        return {
            (name, attr): value
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for attr, value in vars(mod).items()
            if callable(value)
        }

    before = snapshot()
    tr = Tracer()
    with tr.installed(LAYERS, PACKAGE):
        during = snapshot()
        from pada_lab import corpus

        corpus.generate_synthetic(corpus.SyntheticSpec(n_domains=2, examples_per_domain=5))
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert sum(during[k] is not before[k] for k in before) >= len(LAYERS)
    assert [s.name for s in tr.spans] == ["corpus.generate_synthetic"]
    metrics = layer_metrics(tr.spans)
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_share"}
    assert metrics["model.decode_step.calls"] == 0
