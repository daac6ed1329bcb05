"""Confusion matrix and classification metrics.

``weighted_f1`` is the support-weighted mean of per-class F1 scores;
``micro_f1`` is computed from pooled TP/FP/FN counts and equals accuracy for
single-label multi-class evaluation. Both are reported, explicitly labeled.
Undefined ratios (0/0) are reported as 0, with the affected classes listed
in ``undefined_classes``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Hashable, Sequence


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = number of examples with true class i predicted as class j."""

    counts: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row(self, i: int) -> int:
        return sum(self.counts[i])

    def col(self, j: int) -> int:
        return sum(row[j] for row in self.counts)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class: dict[str, ClassMetrics]
    weighted_f1: float
    micro_f1: float
    undefined_classes: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if key != "undefined_classes"}

    def to_table(self) -> str:
        width = max([len(label) for label in self.per_class] + [8])
        lines = [f"{'class':<{width}}  precision  recall  f1      support"]
        for label, m in self.per_class.items():
            lines.append(
                f"{label:<{width}}  {m.precision:9.4f}  {m.recall:6.4f}  {m.f1:6.4f}  {m.support:7d}"
            )
        lines.append(f"accuracy     {self.accuracy:.4f}")
        lines.append(f"weighted f1  {self.weighted_f1:.4f}")
        lines.append(f"micro f1     {self.micro_f1:.4f}")
        return "\n".join(lines)


def confusion(
    truths: Sequence[Hashable],
    preds: Sequence[Hashable],
    label_order: Sequence[Hashable],
) -> ConfusionMatrix:
    if len(truths) != len(preds):
        raise ValueError(
            f"got {len(truths)} truths but {len(preds)} predictions"
        )
    index = {label: i for i, label in enumerate(label_order)}
    counts = [[0] * len(label_order) for _ in label_order]
    for truth, pred in zip(truths, preds):
        if truth not in index:
            raise ValueError(f"unknown true label {truth!r}")
        if pred not in index:
            raise ValueError(f"unknown predicted label {pred!r}")
        counts[index[truth]][index[pred]] += 1
    return ConfusionMatrix(
        counts=tuple(tuple(row) for row in counts),
        labels=tuple(str(label) for label in label_order),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def report(cm: ConfusionMatrix) -> EvalReport:
    """Per-class precision/recall/F1 plus accuracy, weighted F1, micro F1."""
    total = cm.total()
    per_class: dict[str, ClassMetrics] = {}
    undefined: list[str] = []
    for i, label in enumerate(cm.labels):
        tp = cm.counts[i][i]
        fp = cm.col(i) - tp
        fn = cm.row(i) - tp
        if tp + fp == 0 or tp + fn == 0:
            undefined.append(label)
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        f1 = _ratio(2 * precision * recall, precision + recall)
        per_class[label] = ClassMetrics(
            precision=precision, recall=recall, f1=f1, support=cm.row(i)
        )
    trace = sum(cm.counts[i][i] for i in range(len(cm.labels)))
    accuracy = _ratio(trace, total)
    weighted_f1 = sum(
        _ratio(m.support, total) * m.f1 for m in per_class.values()
    )
    # single-label: pooled TP is the trace and pooled FP and FN are each total - trace,
    # so micro precision and micro recall are both the accuracy
    micro_f1 = _ratio(2 * accuracy * accuracy, accuracy + accuracy)
    return EvalReport(
        accuracy=accuracy,
        per_class=per_class,
        weighted_f1=weighted_f1,
        micro_f1=micro_f1,
        undefined_classes=tuple(undefined),
    )
