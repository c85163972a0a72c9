"""Multi-task training.

Renders generative (prompt-writing) and discriminative (classification)
instances, mixes them per example by a Bernoulli(alpha) draw, batches
them task-homogeneously, and optimizes with bias-corrected Adam under a
linear warmup then linear decay schedule. Early stopping keeps the
checkpoint with the best dev score from an injected evaluation callback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import EOS, SEP, DOMAIN_PREFIX, Example, Vocabulary, domain_token
from .drf import PromptAnnotation
from .model import ModelConfig, init_params, loss_and_grads


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.25
    epochs: int = 5
    batch_size: int = 32
    lr: float = 5e-5
    warmup_ratio: float = 0.1
    patience: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError("warmup_ratio must be in [0, 1]")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")


@dataclass(frozen=True)
class TaskInstance:
    """One rendered training instance; task is 'gen' or 'disc'."""

    task: str
    input_ids: tuple[int, ...]
    example_id: str
    target_ids: tuple[int, ...] | None = None
    target_class: int | None = None

    def __post_init__(self):
        if self.task == "gen":
            if not self.target_ids or self.target_ids[-1] != EOS:
                raise ValueError("generative targets must end with EOS")
        elif self.task == "disc":
            if self.target_class is None:
                raise ValueError("discriminative instances need a class target")
        else:
            raise ValueError(f"unknown task {self.task!r}")
        if not self.input_ids:
            raise ValueError("empty input")


def gold_prompt_ids(annotation: PromptAnnotation, vocab: Vocabulary, style: str = "drf") -> list[int]:
    """Prompt token ids for training-time conditioning.

    'drf' mirrors the generative target without EOS: domain name, SEP,
    then the annotated features. 'name' is the domain name alone.
    """
    name_id = vocab.id_of(domain_token(annotation.domain))
    if style == "name":
        return [name_id]
    if style != "drf":
        raise ValueError(f"unknown prompt style {style!r}")
    return [name_id, SEP] + [vocab.id_of(t) for t in annotation.drf_tokens]


def render_generative(
    example: Example,
    annotation: PromptAnnotation | None,
    vocab: Vocabulary,
    max_input_len: int,
    max_output_len: int,
    prompt_style: str = "drf",
) -> TaskInstance:
    """Input is the generation-prefix token plus the text; the target is
    the domain name, SEP, the annotated features, then EOS. Targets
    longer than the cap are truncated with EOS preserved."""
    if annotation is None:
        raise ValueError(f"example {example.id!r}: generative rendering needs an annotation")
    target = gold_prompt_ids(annotation, vocab, style=prompt_style) + [EOS]
    if len(target) > max_output_len:
        target = target[: max_output_len - 1] + [EOS]
    return TaskInstance(
        task="gen",
        input_ids=build_gen_input(vocab.encode_tokens(example.tokens), max_input_len),
        target_ids=tuple(target),
        example_id=example.id,
    )


def build_gen_input(text_ids: tuple[int, ...], max_input_len: int) -> tuple[int, ...]:
    """The generation-prefix token then the text, cut to max_input_len."""
    return ((DOMAIN_PREFIX,) + text_ids)[:max_input_len]


def build_disc_input(prompt_ids: Sequence[int], text_ids: Sequence[int], max_input_len: int) -> tuple[int, ...]:
    """prompt + SEP + text, truncated from the right of the text with
    the prompt kept whole. An empty prompt yields the bare text."""
    if not text_ids:
        raise ValueError("empty text")
    if not prompt_ids:
        return tuple(text_ids[:max_input_len])
    room = max_input_len - len(prompt_ids) - 1
    if room < 1:
        raise ValueError(
            f"prompt of {len(prompt_ids)} tokens leaves no room for text "
            f"(max_input_len={max_input_len})"
        )
    return tuple(prompt_ids) + (SEP,) + tuple(text_ids[:room])


def render_discriminative(
    example: Example,
    prompt_ids: Sequence[int],
    vocab: Vocabulary,
    label_set: Sequence[str],
    max_input_len: int,
) -> TaskInstance:
    if example.label not in label_set:
        raise ValueError(
            f"example {example.id!r}: label {example.label!r} not in declared set {list(label_set)}"
        )
    return TaskInstance(
        task="disc",
        input_ids=build_disc_input(prompt_ids, vocab.encode_tokens(example.tokens), max_input_len),
        target_class=list(label_set).index(example.label),
        example_id=example.id,
    )


def mix_tasks(
    pairs: Sequence[tuple[Example, PromptAnnotation | None]],
    alpha: float,
    rng: np.random.Generator,
    vocab: Vocabulary,
    label_set: Sequence[str],
    max_input_len: int,
    max_output_len: int,
    prompt_style: str = "drf",
) -> list[TaskInstance]:
    """One instance per example: generative with probability alpha,
    discriminative otherwise, drawn i.i.d. from the given stream, then
    shuffled with the same stream. Examples without an annotation are
    always rendered promptless discriminative (requires alpha = 0)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    draws = rng.random(len(pairs)) < alpha
    instances = []
    for (example, ann), generative in zip(pairs, draws):
        if generative:
            instances.append(
                render_generative(example, ann, vocab, max_input_len, max_output_len, prompt_style)
            )
        else:
            prompt = gold_prompt_ids(ann, vocab, style=prompt_style) if ann is not None else []
            instances.append(
                render_discriminative(example, prompt, vocab, label_set, max_input_len)
            )
    order = rng.permutation(len(instances))
    return [instances[i] for i in order]


def task_batches(instances: Sequence[TaskInstance], batch_size: int) -> list[list[TaskInstance]]:
    """Task-homogeneous batches, interleaved in the order the stream
    produced each batch's first member."""
    keyed = []
    for task in ("gen", "disc"):
        members = [(i, inst) for i, inst in enumerate(instances) if inst.task == task]
        for start in range(0, len(members), batch_size):
            chunk = members[start : start + batch_size]
            keyed.append((chunk[0][0], [inst for _, inst in chunk]))
    keyed.sort(key=lambda kv: kv[0])
    return [batch for _, batch in keyed]


# --- optimizer --------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def lr_at(step: int, total_steps: int, warmup_steps: int, peak_lr: float) -> float:
    """Linear warmup to the peak over warmup_steps, then linear decay to
    zero at total_steps."""
    if step < 1:
        raise ValueError("steps are 1-indexed")
    if warmup_steps > 0 and step <= warmup_steps:
        return peak_lr * step / warmup_steps
    if total_steps <= warmup_steps:
        return peak_lr
    return peak_lr * max(0.0, (total_steps - step) / (total_steps - warmup_steps))


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    step: int,
    cfg: TrainConfig,
    total_steps: int,
    warmup_steps: int,
):
    """One bias-corrected Adam update at the scheduled learning rate.

    Math runs in float64. Each updated tensor is rounded to float32 and
    returned in the parameter's own dtype, so float64 parameters stay on
    the float32 grid that `init_params` and `load_checkpoint` put them
    on. Every updated tensor is a new array: no parameter array is ever
    written. Raises on non-finite gradients, naming the tensor.

    A tensor missing from `grads` has a zero gradient (`loss_and_grads`
    gives keys only to the tensors a batch reaches). Without state it
    is returned as it is, unscanned, and gets no state; so is a tensor
    without state whose gradient is all zero: with both moments at zero
    its update is exactly 0.0, and p - 0.0 == p. Once a gradient reaches
    it, its state starts at zero, as it would have stayed under zero
    gradients, and the bias correction uses the global step either way.
    A tensor with state and no gradient takes the zero-gradient update,
    bit for bit what an explicit zero array gives.
    """
    lr = lr_at(step, total_steps, warmup_steps, cfg.lr)
    new_params: dict[str, np.ndarray] = {}
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            if name not in state.m:
                new_params[name] = p
                continue
            # the scalar adds the +0.0 a zero array would, element by element
            g = 0.0
        else:
            g = np.asarray(g, dtype=np.float64)
            if name not in state.m and not g.any():  # any() is True on NaN
                new_params[name] = p
                continue
            if not np.isfinite(g).all():
                raise ValueError(f"non-finite gradient in tensor {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m, v = state.m[name], state.v[name]
        # In place, with the IEEE operations and their order of
        #   m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g^2,
        #   update = lr (m / bc1) / (sqrt(v / bc2) + eps)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        g2 = g * g
        g2 *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += g2
        update = np.divide(m, bc1, out=np.empty_like(m))
        update *= lr
        den = np.divide(v, bc2, out=np.empty_like(v))
        np.sqrt(den, out=den)
        den += ADAM_EPS
        update /= den
        np.subtract(p, update, out=update)
        update[...] = update.astype(np.float32)  # back onto the float32 grid
        new_params[name] = update.astype(p.dtype, copy=False)
    return new_params, state


# --- the loop ---------------------------------------------------------------

_M_TOP_PAD = -2  # glibc's mallopt parameter number


def _keep_heap_mapped() -> None:
    """Keep 64 MiB of freed heap mapped at its top. A step's backward pass
    frees the forward caches; without this glibc hands that memory back
    and the next step faults it in again on fresh zeroed pages. Where
    memory comes from changes no result. A no-op without glibc's mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TOP_PAD, 64 << 20)


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    log: list[dict]
    best_epoch: int
    best_dev: float
    epochs_run: int


def train(
    model_cfg: ModelConfig,
    vocab: Vocabulary,
    label_set: Sequence[str],
    pairs: Sequence[tuple[Example, PromptAnnotation | None]],
    train_cfg: TrainConfig,
    eval_fn: Callable[[dict], float],
    prompt_style: str = "drf",
) -> TrainResult:
    """Optimize from a fresh init; keep the best checkpoint by dev score.

    The task mixture for every epoch is drawn up front from one seeded
    stream, which fixes the schedule's total step count. Training stops
    once the dev score fails to improve for more than `patience`
    consecutive epochs. Gold prompts condition the discriminative task;
    evaluation uses the injected end-to-end callback.
    """
    if not pairs:
        raise ValueError("no training examples")
    _keep_heap_mapped()
    rng = np.random.default_rng(train_cfg.seed)
    epochs = [
        mix_tasks(
            pairs, train_cfg.alpha, rng, vocab, label_set,
            model_cfg.max_input_len, model_cfg.max_output_len, prompt_style,
        )
        for _ in range(train_cfg.epochs)
    ]
    plan = [task_batches(instances, train_cfg.batch_size) for instances in epochs]
    total_steps = sum(len(b) for b in plan)
    warmup_steps = int(round(train_cfg.warmup_ratio * total_steps))

    params = init_params(model_cfg)
    state = AdamState()
    step = 0
    best_dev = -math.inf
    # nothing writes into a parameter array (adam_step returns new
    # ones), so the best checkpoint keeps its epoch's arrays
    best_params = dict(params)
    best_epoch = -1
    bad_streak = 0
    log: list[dict] = []
    epochs_run = 0

    for epoch, batches in enumerate(plan):
        sums = {"gen": 0.0, "disc": 0.0}
        counts = {"gen": 0, "disc": 0}
        lr = 0.0
        for batch in batches:
            loss, grads = loss_and_grads(model_cfg, params, batch)
            step += 1
            lr = lr_at(step, total_steps, warmup_steps, train_cfg.lr)
            params, state = adam_step(
                params, grads, state, step, train_cfg, total_steps, warmup_steps
            )
            sums[batch[0].task] += loss * len(batch)
            counts[batch[0].task] += len(batch)
        dev = float(eval_fn(params))
        epochs_run = epoch + 1
        log.append(
            {
                "epoch": epoch,
                "gen_loss": sums["gen"] / counts["gen"] if counts["gen"] else None,
                "disc_loss": sums["disc"] / counts["disc"] if counts["disc"] else None,
                "dev_f1": dev,
                "lr": lr,
            }
        )
        if dev > best_dev:
            best_dev = dev
            best_params = dict(params)
            best_epoch = epoch
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak > train_cfg.patience:
                break

    return TrainResult(
        params=best_params,
        log=log,
        best_epoch=best_epoch,
        best_dev=best_dev,
        epochs_run=epochs_run,
    )
