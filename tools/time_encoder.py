"""Time the encoder's eval forwards and MLM training step at the model1 shape.

Builds a model1-shape encoder (H384, 6 layers, 12 heads, 8k vocabulary),
four seeded batches and one seeded dataset whose row lengths are drawn
in-process (no download):

- eval: a classify-like batch, B32 with 4-42 tokens per row, ``forward`` in
  eval mode under ``no_grad``, as the library evaluates (so are apply and
  frozen chunk);
- train: a pretrain-like batch, B12 x T128 with 40-128 tokens per row, masked
  as in pretraining, the step ``pretrain`` runs without its optimizer:
  ``forward`` with dropout on the masked positions (the last layer computes
  only those rows), ``mlm_loss`` and ``backward``. After its timed calls one
  more runs under ``tracemalloc``: the peak MiB of memory traced during it
  (mostly the arrays the graph keeps) and the process's peak RSS so far;
- apply: like the held-out scoring after pretraining, B16 x T128 with 12-128
  tokens per row, ``forward`` in eval mode;
- frozen chunk: one 32-row chunk of frozen head features, rows of 4-42 tokens
  padded to T256 as a dataset with one long row pads them, ``forward`` in
  eval mode;
- frozen features: ``classifiers._frozen_features`` for each frozen head kind
  on a 1,001-row dataset, 1,000 rows of 4-42 tokens and one of 256, so every
  row is padded to T256.

Prints first the seconds ``build_model`` takes for the model1-shape encoder,
then each batch's pad fraction and the median, quartiles and fastest of
several timed calls after one warm-up call. The frozen features run once per
kind, under ``tracemalloc``: their seconds, the MiB the head keeps and the
peak of traced memory. Then comes the process's peak RSS, and last the model3
preset (H768, 6 layers, 50k vocabulary) in a fresh process: the seconds of
its ``build_model`` and that process's peak RSS, then the MLM step with Adam
as ``pretrain`` runs it on a B12 x T16 batch of 4-16 tokens per row: the
median, quartiles and fastest of several steps after one warm-up step, the
median forward, backward and Adam seconds, the peak MiB traced by
``tracemalloc`` during one more step, and the process's peak RSS after them.
BLAS threads follow the environment (``OPENBLAS_NUM_THREADS``).

    PYTHONPATH=src python tools/time_encoder.py
"""

from __future__ import annotations

import multiprocessing
import resource
import statistics
import time
import tracemalloc

import numpy as np

from kusent.autodiff import backward, no_grad
from kusent.bert import (
    BertConfig, build_model, forward, mask_for_mlm, masked_positions, mlm_loss, preset_config,
)
from kusent.classifiers import _frozen_features
from kusent.optim import AdamState, adam_step
from kusent.wordpiece import CLS, PAD, SEP

CONFIG = BertConfig(hidden_size=384, num_hidden_layers=6, num_attention_heads=12, vocab_size=8_000,
                    max_position=256)
SEED = 0
EVAL_REPEATS = 20
# the train step spreads most from call to call on a shared host
TRAIN_REPEATS = 15
REPEATS = 5
MODEL3_STEPS = 6
FEATURE_ROWS = 1_001


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


def peak_rss_mb() -> float:
    """This process's peak RSS. VmHWM restarts at exec; ru_maxrss would carry over the parent's peak."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def traced_peak_mib(fn) -> float:
    """The peak of memory ``tracemalloc`` traces while ``fn`` runs, in MiB (numpy reports its arrays)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def quartiles(times: list[float]) -> str:
    p25, median, p75 = statistics.quantiles(times, n=4, method="inclusive")
    return f"median {median:.4f} s (p25 {p25:.4f}, p75 {p75:.4f}), min {min(times):.4f} s"


def model3() -> None:
    """Build the model3 preset and time its pretraining step with Adam at B12 x T16."""
    started = time.perf_counter()
    model = build_model(preset_config("model3"), seed=SEED)
    seconds = time.perf_counter() - started
    print(f"build_model model3 preset, fresh process: {seconds:.2f} s, peak RSS {peak_rss_mb():.0f} MB",
          flush=True)
    rng = np.random.default_rng(SEED)
    ids, mask = make_batch(rng, 12, 4, 16)
    mlm = mask_for_mlm(ids, mask, 0.15, rng, model.config.vocab_size)
    positions = masked_positions(mlm.labels)
    optimizer = AdamState(lr=1e-4)
    parts = {"step": [], "forward": [], "backward": [], "adam": []}

    def step(index: int) -> dict[str, float]:
        drop_rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(2, index)))
        started = time.perf_counter()
        masked = forward(model, mlm.input_ids, mlm.attention_mask, drop_rng,
                         positions=positions)
        loss = mlm_loss(model, masked, mlm.labels)
        forwarded = time.perf_counter()
        backward(loss)
        backwarded = time.perf_counter()
        adam_step(model.params, optimizer)
        done = time.perf_counter()
        return {"step": done - started, "forward": forwarded - started,
                "backward": backwarded - forwarded, "adam": done - backwarded}

    for index in range(MODEL3_STEPS + 1):
        seconds = step(index)
        if index:  # the first step warms up
            for name, value in seconds.items():
                parts[name].append(value)
    traced = traced_peak_mib(lambda: step(MODEL3_STEPS + 1))
    split = ", ".join(f"{name} {statistics.median(parts[name]):.3f} s"
                      for name in ("forward", "backward", "adam"))
    print(f"model3 MLM step with Adam B12x16 ({int(mask.sum())} tokens, {len(positions)} masked): "
          f"{quartiles(parts['step'])} over {MODEL3_STEPS} steps; {split}; tracemalloc peak {traced:.0f} MiB; "
          f"peak RSS {peak_rss_mb():.0f} MB", flush=True)


def main() -> None:
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    model = build_model(CONFIG, seed=SEED)
    print(f"build_model model1 shape: {time.perf_counter() - started:.2f} s")
    eval_ids, eval_mask = make_batch(rng, 32, 4, 42)
    train_ids, train_mask = make_batch(rng, 12, 40, 128)
    mlm = mask_for_mlm(train_ids, train_mask, 0.15, rng, CONFIG.vocab_size)
    apply_ids, apply_mask = make_batch(rng, 16, 12, 128)
    chunk_ids, chunk_mask = make_batch(rng, 32, 4, 42, width=256)
    feature_ids, feature_mask = make_batch(rng, FEATURE_ROWS, 4, 42, width=256)
    # one row as long as the dataset is wide
    feature_ids[-1] = rng.integers(5, CONFIG.vocab_size, size=256)
    feature_ids[-1, [0, -1]] = CLS, SEP
    feature_mask[-1] = 1

    def eval_forward(ids, mask):
        with no_grad():
            forward(model, ids, mask)

    positions = masked_positions(mlm.labels)

    def train_step():
        drop_rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(2,)))
        masked = forward(model, mlm.input_ids, mlm.attention_mask, drop_rng,
                         positions=positions)
        backward(mlm_loss(model, masked, mlm.labels))
        for p in model.params:
            p.zero_grad()

    for name, fn, mask, repeats in (
        ("eval forward B32x42", lambda: eval_forward(eval_ids, eval_mask), eval_mask, EVAL_REPEATS),
        ("train step B12x128", train_step, train_mask, TRAIN_REPEATS),
        ("apply eval forward B16x128", lambda: eval_forward(apply_ids, apply_mask), apply_mask, REPEATS),
        ("frozen-feature chunk B32x256", lambda: eval_forward(chunk_ids, chunk_mask), chunk_mask, REPEATS),
    ):
        times = timed(fn, repeats)
        print(f"{name}: pad fraction {1 - mask.mean():.3f}, {quartiles(times)} over {repeats} calls")
        if fn is train_step:
            print(f"{name}, one more call: tracemalloc peak {traced_peak_mib(train_step):.0f} MiB; "
                  f"peak RSS {peak_rss_mb():.0f} MB")
    for kind in ("mlp", "bilstm"):
        tracemalloc.start()
        started = time.perf_counter()
        features = _frozen_features(model, feature_ids, feature_mask, kind)
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"frozen features {kind}, {FEATURE_ROWS} rows x T256, pad fraction {1 - feature_mask.mean():.3f}: "
              f"{seconds:.2f} s, keeps {features.nbytes / 2**20:.1f} MiB, tracemalloc peak {peak / 2**20:.0f} MiB")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak_mb:.0f} MB", flush=True)
    child = multiprocessing.get_context("spawn").Process(target=model3)
    child.start()
    child.join()


if __name__ == "__main__":
    main()
