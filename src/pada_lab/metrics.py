"""Classification metrics over declared label sets.

Binary tasks report the F1 of the declared positive class; tasks with
more labels report macro F1 averaged over every declared label, so a
label the model never predicts still drags the average down.
"""

from __future__ import annotations

from typing import Sequence


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    # Zero denominators read as zero precision/recall/F1, not as errors.
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _check_labels(y_true: Sequence[str], y_pred: Sequence[str], label_set: Sequence[str]):
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise ValueError("no predictions to score")
    declared = set(label_set)
    if len(declared) != len(label_set):
        raise ValueError("duplicate labels in declared set")
    for seq, kind in ((y_true, "true"), (y_pred, "predicted")):
        stray = sorted(set(seq) - declared)
        if stray:
            raise ValueError(f"{kind} labels outside declared set: {stray}")


def f1_binary(
    y_true: Sequence[str], y_pred: Sequence[str], positive: str, label_set: Sequence[str]
) -> float:
    _check_labels(y_true, y_pred, label_set)
    if positive not in label_set:
        raise ValueError(f"positive class {positive!r} not in declared set")
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == positive and p == positive)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t != positive and p == positive)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == positive and p != positive)
    return _f1_from_counts(tp, fp, fn)


def f1_macro(y_true: Sequence[str], y_pred: Sequence[str], label_set: Sequence[str]) -> float:
    _check_labels(y_true, y_pred, label_set)
    per_class = []
    for label in label_set:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == label and p == label)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != label and p == label)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == label and p != label)
        per_class.append(_f1_from_counts(tp, fp, fn))
    return sum(per_class) / len(per_class)

