import ctypes
import resource
from dataclasses import replace

import numpy as np
import pytest

from pada_lab import training
from pada_lab.corpus import (
    DOMAIN_PREFIX, EOS, SEP, Example, SyntheticSpec, Vocabulary, generate_synthetic,
)
from pada_lab.drf import PromptAnnotation
from pada_lab.harness import ExperimentConfig, build_artifacts
from pada_lab.model import ModelConfig, init_params, loss_and_grads
from pada_lab.training import (
    ADAM_EPS,
    AdamState,
    TaskInstance,
    adam_step,
    build_disc_input,
    gold_prompt_ids,
    lr_at,
    mix_tasks,
    render_discriminative,
    render_generative,
    task_batches,
    train,
)
from tests import oracles

VOCAB = Vocabulary.from_tokens(["rivers", "delta", "basin", "flow", "stone", "mud"])
LABELS = ("neg", "pos")


def ann(example_id="e0", drfs=("delta", "basin")):
    return PromptAnnotation(
        example_id=example_id,
        domain="rivers",
        drf_tokens=tuple(drfs),
        distances=tuple(0.1 * i for i in range(len(drfs))),
    )


def ex(text="delta flow mud", label="pos", eid="e0"):
    return Example(id=eid, text=text, label=label, domain="rivers")


class TestTrainConfig:
    """The optimization settings' range checks, which `ExperimentConfig`
    makes; each message names its setting."""

    @pytest.mark.parametrize(
        "kw",
        [
            {"alpha": -0.1},
            {"alpha": 1.1},
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"warmup_ratio": 1.5},
            {"patience": -1},
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            ExperimentConfig(**kw)

    def test_defaults_accepted(self):
        ExperimentConfig()


class TestTaskInstance:
    def test_generative_target_must_end_with_eos(self):
        with pytest.raises(ValueError, match="EOS"):
            TaskInstance(task="gen", input_ids=(7,), example_id="e", target_ids=(8, 9))

    def test_discriminative_needs_class(self):
        with pytest.raises(ValueError, match="class"):
            TaskInstance(task="disc", input_ids=(7,), example_id="e")

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="task"):
            TaskInstance(task="other", input_ids=(7,), example_id="e")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="input"):
            TaskInstance(task="disc", input_ids=(), example_id="e", target_class=0)


class TestGoldPrompt:
    def test_drf_style_layout(self):
        ids = gold_prompt_ids(ann(), VOCAB, style="drf")
        assert ids == [
            VOCAB.id_of("rivers"), SEP, VOCAB.id_of("delta"), VOCAB.id_of("basin"),
        ]

    def test_name_style_is_just_the_domain(self):
        assert gold_prompt_ids(ann(), VOCAB, style="name") == [VOCAB.id_of("rivers")]

    def test_unknown_style(self):
        with pytest.raises(ValueError, match="style"):
            gold_prompt_ids(ann(), VOCAB, style="fancy")


class TestRenderGenerative:
    def test_input_and_target_layout(self):
        inst = render_generative(ex(), ann(), VOCAB, max_input_len=16, max_output_len=8)
        text_ids = [VOCAB.id_of(t) for t in ("delta", "flow", "mud")]
        assert inst.task == "gen"
        assert list(inst.input_ids) == [DOMAIN_PREFIX] + text_ids
        assert list(inst.target_ids) == gold_prompt_ids(ann(), VOCAB) + [EOS]

    def test_long_input_truncated(self):
        inst = render_generative(
            ex(text="delta " * 30), ann(), VOCAB, max_input_len=5, max_output_len=8
        )
        assert len(inst.input_ids) == 5

    def test_target_truncation_preserves_eos(self):
        long_ann = ann(drfs=("delta", "basin", "flow", "stone", "mud"))
        inst = render_generative(ex(), long_ann, VOCAB, max_input_len=16, max_output_len=4)
        assert len(inst.target_ids) == 4
        assert inst.target_ids[-1] == EOS
        assert list(inst.target_ids[:3]) == gold_prompt_ids(long_ann, VOCAB)[:3]

    def test_missing_annotation_rejected(self):
        with pytest.raises(ValueError, match="annotation"):
            render_generative(ex(), None, VOCAB, max_input_len=16, max_output_len=8)

    def test_empty_text_rejected(self):
        # no example without tokens reaches rendering: building it fails
        with pytest.raises(ValueError, match="'e0' has no tokens"):
            ex(text="   ")


class TestBuildDiscInput:
    def test_prompt_sep_text(self):
        got = build_disc_input((8, 9), (10, 11), max_input_len=16)
        assert got == (8, 9, SEP, 10, 11)

    def test_text_truncated_from_right(self):
        got = build_disc_input((8,), (10, 11, 12, 13), max_input_len=5)
        assert got == (8, SEP, 10, 11, 12)

    def test_prompt_never_truncated(self):
        with pytest.raises(ValueError, match="room"):
            build_disc_input((8, 9, 10), (11,), max_input_len=4)

    def test_empty_prompt_gives_bare_text(self):
        assert build_disc_input((), (10, 11, 12), max_input_len=2) == (10, 11)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="text"):
            build_disc_input((8,), (), max_input_len=16)


class TestRenderDiscriminative:
    def test_class_index_follows_label_set(self):
        inst = render_discriminative(ex(label="pos"), (8,), VOCAB, LABELS, 16)
        assert inst.task == "disc"
        assert inst.target_class == 1
        inst = render_discriminative(ex(label="neg"), (8,), VOCAB, LABELS, 16)
        assert inst.target_class == 0

    def test_stray_label_names_the_declared_set(self):
        with pytest.raises(ValueError, match=r"neg.*pos"):
            render_discriminative(ex(label="maybe"), (8,), VOCAB, LABELS, 16)


def make_pairs(n, annotated=True):
    pairs = []
    for i in range(n):
        e = ex(eid=f"e{i}", text="delta flow mud", label="pos" if i % 2 else "neg")
        pairs.append((e, ann(example_id=e.id) if annotated else None))
    return pairs


class TestMixTasks:
    def test_alpha_zero_is_all_discriminative(self):
        got = mix_tasks(make_pairs(10), 0.0, np.random.default_rng(0), VOCAB, LABELS, 32, 8)
        assert all(i.task == "disc" for i in got)

    def test_alpha_one_is_all_generative(self):
        got = mix_tasks(make_pairs(10), 1.0, np.random.default_rng(0), VOCAB, LABELS, 32, 8)
        assert all(i.task == "gen" for i in got)

    def test_output_is_a_permutation_of_the_examples(self):
        got = mix_tasks(make_pairs(20), 0.5, np.random.default_rng(1), VOCAB, LABELS, 32, 8)
        assert sorted(i.example_id for i in got) == sorted(f"e{i}" for i in range(20))

    def test_seeded_stream_reproducible(self):
        a = mix_tasks(make_pairs(20), 0.5, np.random.default_rng(5), VOCAB, LABELS, 32, 8)
        b = mix_tasks(make_pairs(20), 0.5, np.random.default_rng(5), VOCAB, LABELS, 32, 8)
        assert a == b

    def test_unannotated_examples_render_bare_text(self):
        got = mix_tasks(make_pairs(4, annotated=False), 0.0, np.random.default_rng(0),
                        VOCAB, LABELS, 32, 8)
        text_ids = tuple(VOCAB.id_of(t) for t in ("delta", "flow", "mud"))
        assert all(i.input_ids == text_ids for i in got)

    def test_annotated_discriminative_carries_gold_prompt(self):
        got = mix_tasks(make_pairs(4), 0.0, np.random.default_rng(0), VOCAB, LABELS, 32, 8)
        prefix = tuple(gold_prompt_ids(ann(), VOCAB)) + (SEP,)
        assert all(i.input_ids[: len(prefix)] == prefix for i in got)


class TestTaskBatches:
    def inst(self, task, eid):
        if task == "gen":
            return TaskInstance(task="gen", input_ids=(7,), example_id=eid, target_ids=(8, EOS))
        return TaskInstance(task="disc", input_ids=(7,), example_id=eid, target_class=0)

    def test_batches_are_homogeneous_and_bounded(self):
        stream = [self.inst("gen" if i % 3 else "disc", f"e{i}") for i in range(11)]
        for batch in task_batches(stream, 3):
            assert len({i.task for i in batch}) == 1
            assert 1 <= len(batch) <= 3

    def test_interleaving_follows_first_member_position(self):
        stream = [
            self.inst("gen", "g0"), self.inst("disc", "d1"), self.inst("disc", "d2"),
            self.inst("gen", "g3"), self.inst("disc", "d4"),
        ]
        got = task_batches(stream, 2)
        ids = [[i.example_id for i in b] for b in got]
        assert ids == [["g0", "g3"], ["d1", "d2"], ["d4"]]

    def test_every_instance_placed_exactly_once(self):
        stream = [self.inst("gen" if i % 2 else "disc", f"e{i}") for i in range(9)]
        got = task_batches(stream, 4)
        flat = sorted(i.example_id for b in got for i in b)
        assert flat == sorted(f"e{i}" for i in range(9))


class TestSchedule:
    def test_warmup_is_linear_to_peak(self):
        assert lr_at(1, 100, 10, 1.0) == pytest.approx(0.1)
        assert lr_at(5, 100, 10, 1.0) == pytest.approx(0.5)
        assert lr_at(10, 100, 10, 1.0) == pytest.approx(1.0)

    def test_decay_is_linear_to_zero(self):
        assert lr_at(55, 100, 10, 1.0) == pytest.approx(0.5)
        assert lr_at(100, 100, 10, 1.0) == 0.0

    def test_no_warmup_starts_near_peak(self):
        assert lr_at(1, 4, 0, 1.0) == pytest.approx(0.75)

    def test_steps_one_indexed(self):
        with pytest.raises(ValueError):
            lr_at(0, 10, 2, 1.0)

    def test_monotone_decreasing_after_peak(self):
        vals = [lr_at(s, 50, 5, 2e-3) for s in range(5, 51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestAdam:
    def test_first_step_closed_form(self):
        cfg = ExperimentConfig(lr=0.1)
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, -0.25])}
        new, _ = adam_step(params, grads, AdamState(), 1, cfg, 10**9, 0)
        # Bias correction makes the first step lr * g / (|g| + eps) at
        # the scheduled rate, i.e. a signed step of nearly lr.
        lr = lr_at(1, 10**9, 0, cfg.lr)
        want = params["w"] - lr * grads["w"] / (np.abs(grads["w"]) + ADAM_EPS)
        assert np.allclose(new["w"], want, atol=1e-9)

    def test_dtype_preserved(self):
        cfg = ExperimentConfig(lr=0.1)
        params = {"w": np.ones(3, dtype=np.float32)}
        grads = {"w": np.full(3, 0.5)}
        new, _ = adam_step(params, grads, AdamState(), 1, cfg, 10**9, 0)
        assert new["w"].dtype == np.float32

    def test_quadratic_converges(self):
        cfg = ExperimentConfig(lr=0.05)
        params = {"w": np.array([3.0, -4.0])}
        state = AdamState()
        for step in range(1, 400):
            grads = {"w": params["w"].copy()}
            params, state = adam_step(params, grads, state, step, cfg, 10**9, 0)
        assert np.abs(params["w"]).max() < 1e-6

    def test_bitwise_equal_to_out_of_place_formula(self):
        rng = np.random.default_rng(0)
        cfg = ExperimentConfig(lr=0.01)
        shapes = {"a.w": (3, 4), "b": (5,), "c.w": (2, 3, 2), "s": ()}
        params = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        want, ms, vs = dict(params), {}, {}
        state = AdamState()
        for step in range(1, 21):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=s)
                     for k, s in shapes.items()}
            grads["b"][0] = 0.0
            grads["s"] = grads["s"].astype(np.float32)
            given = {k: v.copy() for k, v in params.items()}
            given_grads = {k: v.copy() for k, v in grads.items()}
            new, state = adam_step(params, grads, state, step, cfg, 20, 3)
            want = oracles.adam_out_of_place(want, grads, ms, vs, step, lr_at(step, 20, 3, cfg.lr))
            for k in shapes:
                assert params[k].tobytes() == given[k].tobytes(), k
                assert grads[k].tobytes() == given_grads[k].tobytes(), k
                assert new[k].dtype == np.float32, k
                assert new[k].tobytes() == want[k].tobytes(), (step, k)
                assert state.m[k].tobytes() == ms[k].tobytes(), (step, k)
                assert state.v[k].tobytes() == vs[k].tobytes(), (step, k)
            params = new

    def test_zero_gradient_without_state_is_skipped_exactly(self):
        # "dec" gets all-zero gradients (both signs of zero) for six
        # steps, then real ones; "enc" gets real ones throughout
        rng = np.random.default_rng(1)
        cfg = ExperimentConfig(lr=0.01)
        dec = rng.normal(size=(3, 4)).astype(np.float32)
        dec[0, :2] = [0.0, -0.0]
        params = {"enc": rng.normal(size=5).astype(np.float32), "dec": dec}
        want, ms, vs = dict(params), {}, {}
        state = AdamState()
        for step in range(1, 13):
            grads = {"enc": rng.normal(size=5), "dec": rng.normal(size=(3, 4))}
            if step <= 6:
                grads["dec"] = np.where(rng.random((3, 4)) < 0.5, 0.0, -0.0)
            new, state = adam_step(params, grads, state, step, cfg, 12, 2)
            want = oracles.adam_out_of_place(want, grads, ms, vs, step, lr_at(step, 12, 2, cfg.lr))
            if step <= 6:
                assert new["dec"] is params["dec"]
                assert "dec" not in state.m and "dec" not in state.v
            for k in params:
                assert new[k].tobytes() == want[k].tobytes(), (step, k)
            for k in state.m:
                assert state.m[k].tobytes() == ms[k].tobytes(), (step, k)
                assert state.v[k].tobytes() == vs[k].tobytes(), (step, k)
            params = new
        assert set(state.m) == {"enc", "dec"}

    def test_missing_gradient_is_a_zero_gradient(self):
        # "dec" has no gradient for four steps without state, real ones
        # for four, then none again for four with state; the oracle gets
        # explicit zeros wherever "dec" has no gradient
        rng = np.random.default_rng(2)
        cfg = ExperimentConfig(lr=0.01)
        params = {"enc": rng.normal(size=5).astype(np.float32),
                  "dec": rng.normal(size=(3, 4)).astype(np.float32)}
        want, ms, vs = dict(params), {}, {}
        state = AdamState()
        for step in range(1, 13):
            grads = {"enc": rng.normal(size=5)}
            if 5 <= step <= 8:
                grads["dec"] = rng.normal(size=(3, 4))
            new, state = adam_step(params, grads, state, step, cfg, 20, 2)
            explicit = {"dec": np.zeros((3, 4)), **grads}
            want = oracles.adam_out_of_place(want, explicit, ms, vs, step, lr_at(step, 20, 2, cfg.lr))
            if step <= 4:
                assert new["dec"] is params["dec"]
                assert "dec" not in state.m and "dec" not in state.v
            if step > 8:
                assert "dec" not in grads
                assert new["dec"].tobytes() != params["dec"].tobytes()  # momentum moves it
            for k in params:
                assert new[k].tobytes() == want[k].tobytes(), (step, k)
            for k in state.m:
                assert state.m[k].tobytes() == ms[k].tobytes(), (step, k)
                assert state.v[k].tobytes() == vs[k].tobytes(), (step, k)
            params = new

    def test_non_finite_gradient_names_the_tensor(self):
        cfg = ExperimentConfig()
        params = {"bad.w": np.ones(2)}
        grads = {"bad.w": np.array([1.0, np.nan])}
        with pytest.raises(ValueError, match="bad.w"):
            adam_step(params, grads, AdamState(), 1, cfg, 10, 0)


def tiny_model():
    return ModelConfig(
        vocab_size=len(VOCAB), n_classes=2, d_model=8, n_layers=1, n_heads=2,
        d_ffn=8, max_input_len=24, max_output_len=8, conv_filters=3, conv_width=3, seed=0,
    )


class TestTrainLoop:
    def run(self, evals, patience, epochs=None, alpha=0.25):
        scripted = iter(evals)
        seen = []

        def eval_fn(params):
            seen.append({k: v.copy() for k, v in params.items()})
            return next(scripted)

        cfg = ExperimentConfig(
            alpha=alpha, epochs=epochs or len(evals), batch_size=4,
            lr=1e-3, patience=patience, seed=11,
        )
        result = train(tiny_model(), VOCAB, LABELS, make_pairs(8), cfg, eval_fn)
        return result, seen

    def test_early_stop_after_patience_exceeded(self):
        result, _ = self.run([0.5, 0.6, 0.4, 0.4, 0.9], patience=1)
        assert result.epochs_run == 4
        assert result.best_epoch == 1
        assert result.best_dev == 0.6

    def test_patience_zero_stops_on_first_decline(self):
        result, _ = self.run([0.5, 0.4, 0.9], patience=0)
        assert result.epochs_run == 2
        assert result.best_epoch == 0

    def test_tie_keeps_the_earlier_epoch(self):
        result, _ = self.run([0.5, 0.5, 0.5], patience=5)
        assert result.best_epoch == 0
        assert result.epochs_run == 3

    def test_returned_params_come_from_the_best_epoch(self):
        result, seen = self.run([0.2, 0.8, 0.3, 0.3], patience=1)
        best = seen[result.best_epoch]
        assert result.params.keys() == best.keys()
        for k in best:
            assert np.array_equal(result.params[k], best[k]), k

    @pytest.mark.parametrize("evals", [[0.5, 0.8], [0.8, 0.5]])
    def test_parameter_arrays_are_never_written(self, evals, monkeypatch):
        # The best checkpoint keeps its epoch's arrays, not a copy of
        # them, which is sound only while nothing writes into a
        # parameter array: with every one read-only the run must give
        # the same bits.
        want, _ = self.run(evals, patience=1)

        def read_only(params):
            for v in params.values():
                v.setflags(write=False)
            return params

        init, step = training.init_params, training.adam_step

        def stepped(*args):
            new, state = step(*args)
            return read_only(new), state

        monkeypatch.setattr(training, "init_params", lambda cfg: read_only(init(cfg)))
        monkeypatch.setattr(training, "adam_step", stepped)
        got, seen = self.run(evals, patience=1)
        assert got.best_epoch == want.best_epoch
        for k, v in want.params.items():
            assert got.params[k].tobytes() == v.tobytes() == seen[got.best_epoch][k].tobytes(), k

    def test_log_schema_and_length(self):
        result, _ = self.run([0.1, 0.2, 0.3], patience=5)
        assert len(result.log) == result.epochs_run == 3
        for i, rec in enumerate(result.log):
            assert set(rec) == {"epoch", "gen_loss", "disc_loss", "dev_f1", "lr"}
            assert rec["epoch"] == i
            assert rec["lr"] >= 0.0

    def test_alpha_zero_logs_no_generative_loss(self):
        result, _ = self.run([0.1, 0.2], patience=5, alpha=0.0)
        assert all(rec["gen_loss"] is None for rec in result.log)
        assert all(rec["disc_loss"] is not None for rec in result.log)

    def test_training_is_deterministic(self):
        a, _ = self.run([0.1, 0.2, 0.3], patience=5)
        b, _ = self.run([0.1, 0.2, 0.3], patience=5)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k]), k
        assert a.log == b.log

    def test_losses_fall_on_a_learnable_rule(self):
        # Labels follow a single indicator token, so a few epochs of the
        # discriminative task should cut the loss.
        pairs = []
        for i in range(16):
            label = "pos" if i % 2 else "neg"
            word = "delta" if label == "pos" else "stone"
            pairs.append(
                (Example(id=f"e{i}", text=f"{word} flow mud", label=label, domain="rivers"),
                 None)
            )
        cfg = ExperimentConfig(alpha=0.0, epochs=8, batch_size=4, lr=5e-3, patience=99, seed=0)
        result = train(tiny_model(), VOCAB, LABELS, pairs, cfg, lambda p: 0.0)
        assert result.log[-1]["disc_loss"] < result.log[0]["disc_loss"]

    def test_no_examples_rejected(self):
        with pytest.raises(ValueError, match="examples"):
            train(tiny_model(), VOCAB, LABELS, [], ExperimentConfig(), lambda p: 0.0)

    @pytest.mark.parametrize("no_mallopt", ["libc fails to load", "libc has no mallopt"])
    def test_trains_alike_without_mallopt(self, no_mallopt, monkeypatch):
        # where the allocator cannot be set, train runs on and computes the same bits
        want, _ = self.run([0.5, 0.8], patience=1)
        calls = []

        def cdll(name):
            calls.append(name)
            if no_mallopt == "libc fails to load":
                raise OSError("no libc")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        got, _ = self.run([0.5, 0.8], patience=1)
        assert calls
        assert got.best_epoch == want.best_epoch and got.log == want.log
        for k, v in want.params.items():
            assert got.params[k].tobytes() == v.tobytes(), k


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_warm_steps_reuse_the_heap():
    # Once train has set the allocator, the memory one step's backward
    # pass frees stays mapped for the next step, which then faults in
    # few fresh pages. Desk settings on the synthetic corpus, mixed gen
    # and disc batches of 16; with the heap trimmed after every step
    # such a step takes several hundred minor faults.
    dataset = generate_synthetic(SyntheticSpec(n_domains=3, examples_per_domain=40, seed=3))
    cfg = ExperimentConfig()
    art = build_artifacts(dataset, dataset.domains, cfg)
    pairs = [(e, art.annotations[(d, e.id)]) for d in dataset.domains for e in dataset.train[d]]
    model_cfg = cfg.model_config(len(art.vocab), len(dataset.label_set))
    train_cfg = replace(cfg, epochs=1)
    train(model_cfg, art.vocab, dataset.label_set, pairs[:16], train_cfg, lambda p: 0.0)

    instances = mix_tasks(pairs, 0.5, np.random.default_rng(0), art.vocab, dataset.label_set,
                          model_cfg.max_input_len, model_cfg.max_output_len)
    batches = [b for b in task_batches(instances, 16) if len(b) == 16]
    assert {b[0].task for b in batches} == {"gen", "disc"}
    params, state = init_params(model_cfg), AdamState()

    def steps(first, n):
        nonlocal params, state
        for step in range(first, first + n):
            _, grads = loss_and_grads(model_cfg, params, batches[step % len(batches)])
            params, state = adam_step(params, grads, state, step + 1, train_cfg, 100, 10)

    steps(0, 3)  # warm: the position and mask tables, the Adam state
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps(3, 15)
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 15
    assert per_step < 200, per_step
