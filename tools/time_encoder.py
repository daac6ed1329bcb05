"""Time the encoder's eval forwards and MLM training step at the model1 shape.

Builds a model1-shape encoder (H384, 6 layers, 12 heads, 8k vocabulary) and
four seeded batches whose row lengths are drawn in-process (no download):

- eval: a classify-like batch, B32 with 4-42 tokens per row, ``forward`` in
  eval mode;
- train: a pretrain-like batch, B12 x T128 with 40-128 tokens per row, masked
  as in pretraining, ``forward`` with dropout, ``mlm_loss`` and ``backward``
  (no optimizer step);
- apply: like the held-out scoring after pretraining, B16 x T128 with 12-128
  tokens per row, ``forward`` in eval mode;
- frozen chunk: one 32-row chunk of frozen head features, rows of 4-42 tokens
  padded to T256 as a dataset with one long row pads them, ``forward`` in
  eval mode.

Prints each batch's pad fraction, the median and fastest of several timed
calls after one warm-up call, and the process's peak RSS. BLAS threads follow
the environment (``OPENBLAS_NUM_THREADS``).

    PYTHONPATH=src python tools/time_encoder.py
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from kusent.autodiff import backward
from kusent.bert import BertConfig, build_model, forward, mask_for_mlm, mlm_loss
from kusent.wordpiece import CLS, PAD, SEP

CONFIG = BertConfig(hidden_size=384, num_hidden_layers=6, num_attention_heads=12, vocab_size=8_000,
                    max_position=256)
SEED = 0
EVAL_REPEATS = 20
REPEATS = 5


def make_batch(rng: np.random.Generator, batch: int, shortest: int, longest: int, width: int | None = None):
    """Ids and mask of ``batch`` rows of ``shortest``-``longest`` tokens, one row at the
    longest, padded to ``width`` (default: the longest)."""
    width = width or longest
    lengths = rng.integers(shortest, longest + 1, size=batch)
    lengths[0] = longest
    ids = rng.integers(5, CONFIG.vocab_size, size=(batch, width))
    mask = (np.arange(width) < lengths[:, None]).astype(np.int64)
    ids[:, 0] = CLS
    ids[np.arange(batch), lengths - 1] = SEP
    ids[mask == 0] = PAD
    return ids, mask


def timed(fn, repeats: int) -> list[float]:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return times


def main() -> None:
    rng = np.random.default_rng(SEED)
    model = build_model(CONFIG, seed=SEED)
    eval_ids, eval_mask = make_batch(rng, 32, 4, 42)
    train_ids, train_mask = make_batch(rng, 12, 40, 128)
    mlm = mask_for_mlm(train_ids, train_mask, 0.15, rng, CONFIG.vocab_size)
    apply_ids, apply_mask = make_batch(rng, 16, 12, 128)
    chunk_ids, chunk_mask = make_batch(rng, 32, 4, 42, width=256)

    def train_step():
        drop_rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(2,)))
        seq, _ = forward(model, mlm.input_ids, mlm.attention_mask, train=True, dropout_rng=drop_rng)
        backward(mlm_loss(model, seq, mlm.labels))
        for p in model.params:
            p.zero_grad()

    for name, fn, mask, repeats in (
        ("eval forward B32x42", lambda: forward(model, eval_ids, eval_mask), eval_mask, EVAL_REPEATS),
        ("train step B12x128", train_step, train_mask, REPEATS),
        ("apply eval forward B16x128", lambda: forward(model, apply_ids, apply_mask), apply_mask, REPEATS),
        ("frozen-feature chunk B32x256", lambda: forward(model, chunk_ids, chunk_mask), chunk_mask, REPEATS),
    ):
        times = timed(fn, repeats)
        print(f"{name}: pad fraction {1 - mask.mean():.3f}, median {statistics.median(times):.4f} s, "
              f"min {min(times):.4f} s over {repeats} calls")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
