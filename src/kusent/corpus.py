"""Labeled sentiment data: loading, statistics, splitting, and rebalancing.

The labeled file format is UTF-8 TSV, one example per line:
``text<TAB>label[<TAB>topic]`` with lowercase labels
``positive|negative|neutral``. The topic column is carried for provenance
but unused by training.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .checkpoint import atomic_write_text
from .normalize import NormalizationRules, NormalizedText, normalize_text


class SentimentLabel(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LabeledExample:
    text: NormalizedText
    label: SentimentLabel
    topic: str | None = None


@dataclass(frozen=True)
class DatasetSplit:
    train: list[LabeledExample]
    test: list[LabeledExample]
    seed: int
    ratio: float


@dataclass(frozen=True)
class CorpusStats:
    longest_sentence: int
    mean_sentence_length: float
    total_tokens: int
    per_class_counts: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "longest": self.longest_sentence,
            "mean": self.mean_sentence_length,
            "total_tokens": self.total_tokens,
            "per_class": dict(self.per_class_counts),
        }


def parse_label(s: str) -> SentimentLabel:
    try:
        return SentimentLabel(s)
    except ValueError:
        raise ValueError(f"unknown label {s!r}") from None


def load_labeled(
    path: str, rules: NormalizationRules | None = None
) -> list[LabeledExample]:
    """Load and normalize a labeled TSV file.

    Rows whose text normalizes to empty are rejected (the label would have
    nothing to attach to); malformed rows and unknown labels report the
    1-based line number.
    """
    examples: list[LabeledExample] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 2 or len(fields) > 3:
                raise ValueError(
                    f"malformed row at line {lineno}: expected 2 or 3 tab-separated "
                    f"fields, got {len(fields)}"
                )
            text_raw, label_raw = fields[0], fields[1]
            topic = fields[2] if len(fields) == 3 else None
            try:
                label = parse_label(label_raw)
            except ValueError as exc:
                raise ValueError(f"{exc} at line {lineno}") from None
            text = normalize_text(text_raw, rules)
            if not text.text:
                raise ValueError(f"empty text after normalization at line {lineno}")
            examples.append(LabeledExample(text=text, label=label, topic=topic))
    return examples


def save_labeled(examples: Sequence[LabeledExample], path: str) -> None:
    """Write the TSV format ``load_labeled`` reads, atomically."""
    rows = []
    for ex in examples:
        row = [ex.text.text, ex.label.value]
        if ex.topic is not None:
            row.append(ex.topic)
        rows.append("\t".join(row) + "\n")
    atomic_write_text(path, "".join(rows))


def compute_stats(
    examples: Sequence[LabeledExample],
    tokenize: Callable[[str], list[str]] | None = None,
) -> CorpusStats:
    """Token-count statistics; whitespace tokenization unless one is supplied."""
    if tokenize is None:
        tokenize = str.split
    lengths = [len(tokenize(ex.text.text)) for ex in examples]
    per_class: dict[str, int] = {}
    for ex in examples:
        per_class[ex.label.value] = per_class.get(ex.label.value, 0) + 1
    total = sum(lengths)
    return CorpusStats(
        longest_sentence=max(lengths) if lengths else 0,
        mean_sentence_length=total / len(lengths) if lengths else 0.0,
        total_tokens=total,
        per_class_counts=per_class,
    )


def split(
    examples: Sequence[LabeledExample], ratio: float, seed: int
) -> DatasetSplit:
    """Stratified shuffled train/test split, deterministic for a given seed."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    by_label: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        by_label.setdefault(ex.label.value, []).append(i)
    if not by_label:
        raise ValueError("cannot split an empty dataset")
    for label, idxs in by_label.items():
        if len(idxs) < 2:
            raise ValueError(
                f"cannot stratify: class {label!r} has only {len(idxs)} example(s)"
            )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        idxs = np.array(by_label[label])
        rng.shuffle(idxs)
        n_train = int(math.floor(ratio * len(idxs) + 0.5))
        train_idx.extend(idxs[:n_train].tolist())
        test_idx.extend(idxs[n_train:].tolist())
    return DatasetSplit(
        train=[examples[i] for i in sorted(train_idx)],
        test=[examples[i] for i in sorted(test_idx)],
        seed=seed,
        ratio=ratio,
    )


def to_binary(examples: Sequence[LabeledExample]) -> list[LabeledExample]:
    """Drop neutral examples, keeping the survivors' order."""
    return [ex for ex in examples if ex.label is not SentimentLabel.NEUTRAL]


def undersample(examples: Sequence[LabeledExample], seed: int) -> list[LabeledExample]:
    """Reduce every present class to the minority count by seeded deletion."""
    if not examples:
        raise ValueError("cannot undersample an empty dataset")
    by_label: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        by_label.setdefault(ex.label.value, []).append(i)
    minority = min(len(v) for v in by_label.values())
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    keep: list[int] = []
    for label in sorted(by_label):
        idxs = np.array(by_label[label])
        rng.shuffle(idxs)
        keep.extend(idxs[:minority].tolist())
    return [examples[i] for i in sorted(keep)]
