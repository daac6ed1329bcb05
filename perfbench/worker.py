"""One measured process of the pipeline benchmark.

``run.py`` starts this file in a fresh interpreter with the BLAS thread count
fixed in its environment. It imports the library, loads the run's generated
inputs (that is the set-up ``setup_s`` measures), then repeats one job of the
workload until ``--seconds`` have passed, checking the outputs as it goes.
Every job of a run is identical (same inputs, same seeds), so every job must
produce byte-identical artifacts. The first job warms caches and allocators
and is checked but not timed. With ``--trace 1`` every second job after it
runs with spans recorded around the library's public functions.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np

import gen
import kusent
from kusent import autodiff, bert, checkpoint, classifiers, cli, corpus, metrics, normalize, wordpiece
from spans import END, NAME, PARENT, START, VALUE, Tracer, covered, root_of, summarize

# The autodiff ops reported one by one; the rest add up to autodiff.other_ops.
NAMED_OPS = ("matmul", "gelu", "softmax", "layer_norm", "dropout", "embedding_lookup",
             "add", "mul", "sigmoid", "tanh", "concat", "narrow", "cross_entropy")
ALL_OPS = NAMED_OPS + ("sub", "scale", "relu", "stack", "reshape", "transpose",
                       "reduce_sum", "reduce_mean")
HEADS = ("bilstm", "mlp")
MIN_JOBS = 3  # the warm-up job plus two measured ones (one traced, one not, under --trace 1)
JOB_CAP_S = 120.0  # start no job after this long, whatever --seconds says


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


class ReferenceSegmenter:
    """Greedy longest-match-first WordPiece, written from the definition.

    The benchmark derives token counts (and so padding, UNK and overflow
    ratios) from its inputs with this, independently of the program.
    """

    def __init__(self, pieces: list[str], prefix: str = "##", max_chars: int = 100):
        self.ids = {p: i for i, p in enumerate(pieces) if i >= len(gen.SPECIALS)}
        self.prefix = prefix
        self.max_chars = max_chars
        self._cache: dict[str, list[int] | None] = {}

    def word(self, word: str) -> list[int] | None:
        if word in self._cache:
            return self._cache[word]
        out: list[int] | None = []
        start = 0
        if len(word) > self.max_chars:
            out = None
        while out is not None and start < len(word):
            for end in range(len(word), start, -1):
                piece = word[start:end] if start == 0 else self.prefix + word[start:end]
                if piece in self.ids and not (start == 0 and piece.startswith(self.prefix)):
                    out.append(self.ids[piece])
                    start = end
                    break
            else:
                out = None
        self._cache[word] = out
        return out

    def line(self, text: str) -> tuple[list[int], int, int]:
        """(ids without CLS/SEP, word count, UNK count)."""
        ids: list[int] = []
        unk = 0
        words = text.split()
        for word in words:
            pieces = self.word(word)
            if pieces is None:
                ids.append(1)  # UNK
                unk += 1
            else:
                ids.extend(pieces)
        return ids, len(words), unk


def encoded_lengths(seg: ReferenceSegmenter, lines: list[str], max_len: int):
    """Per-line non-pad length (with CLS/SEP, after truncation), plus word/UNK/overflow totals."""
    lengths, words, unks, overflow = [], 0, 0, 0
    for text in lines:
        ids, n_words, n_unk = seg.line(text)
        words += n_words
        unks += n_unk
        overflow += len(ids) > max_len - 2
        lengths.append(min(len(ids), max_len - 2) + 2)
    return lengths, {"words": words, "unk": unks, "overflow": overflow, "lines": len(lines)}


def padded_width(lengths) -> int:
    return max(max(lengths), 3)


class Run:
    """Shared state of one worker process: checks, artifacts and ratios."""

    def __init__(self, args):
        self.inputs = args.inputs
        self.out = args.out
        self.shape = gen.SIZES[args.size]
        self.config = cli.load_pipeline_config(os.path.join(args.inputs, "config.json"))
        self.seed = self.config["seed"]
        self.checks: dict[str, list[int]] = {}
        self.failures: list[str] = []
        self.ratios: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def check_finite(self, losses) -> None:
        bad = [x for x in losses if not math.isfinite(x)]
        self.check("losses_finite", not bad and len(losses) > 0, f"{len(bad)} non-finite of {len(losses)}")


class Job:
    """Stage clock of one job; stages also open spans when the job is traced.

    ``ref_stages`` gives each stage's time in reference seconds. With a
    ``reference``, a reference sample is timed before each stage and after
    the last one, outside the stage clock, and a stage's reference time is
    its time scaled by nominal over the mean of the samples on either side.
    Traced jobs have no reference, and their ``ref_stages`` stay empty.
    """

    def __init__(self, tracer: Tracer | None, reference: Reference | None = None):
        self.tracer = tracer
        self.reference = reference
        self.stages: dict[str, float] = {}
        self.ref_stages: dict[str, float] = {}
        self.units: dict[str, float] = {}
        self.artifacts: dict[str, str] = {}
        self._timeline: list[tuple[str, float, float]] = []  # (stage, seconds, sample before)

    @contextmanager
    def stage(self, name: str):
        before = self.reference.sample() if self.reference else 0.0
        started = time.perf_counter()
        with self.tracer.span("stage." + name) if self.tracer else nullcontext():
            yield
        elapsed = time.perf_counter() - started
        self.stages[name] = self.stages.get(name, 0.0) + elapsed
        self._timeline.append((name, elapsed, before))

    def finish(self) -> None:
        if not self.reference:
            return
        samples = [before for _, _, before in self._timeline] + [self.reference.sample()]
        for i, (name, elapsed, before) in enumerate(self._timeline):
            speed = self.reference.nominal_s / ((before + samples[i + 1]) / 2)
            self.ref_stages[name] = self.ref_stages.get(name, 0.0) + elapsed * speed


class Reference:
    """A fixed piece of work outside the library, timed between the stages
    of a job, of the same kind as the workload's main cost.

    ``python``: dict lookups and integer arithmetic in the interpreter.
    ``numpy``: the tanh-GELU expression on a fixed 384x1536 float32 array,
    the elementwise work that dominates the encoder's time.

    The host this runs on changes the speed of both by up to 2x, for seconds
    to minutes at a time. Scaling a stage's time by how much slower than
    nominal the reference ran around it cancels that drift; a change to the
    library moves the stage's time but not the reference's. ``NOMINAL_S`` is
    a sample's time on a quiet 2-vCPU Intel Xeon VM, so there a reference
    second is about a second.
    """

    ROUNDS = 64
    NOMINAL_S = {"python": 0.0175, "numpy": 0.044}

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        self._keys = [str(i) for i in range(4096)]
        self._table = {key: i for i, key in enumerate(self._keys)}
        self._array = np.random.default_rng(0).standard_normal((384, 1536), dtype=np.float32)
        self.samples: list[float] = []

    def sample(self) -> float:
        started = time.perf_counter()
        if self.kind == "python":
            table, total = self._table, 0
            for _ in range(self.ROUNDS):
                for key in self._keys:
                    total += table[key] * 3 % 7
        else:
            x = self._array
            0.5 * x * (1.0 + np.tanh(np.float32(0.7978845608) * (x + np.float32(0.044715) * x**3)))
        self.samples.append(time.perf_counter() - started)
        return self.samples[-1]

    def summary(self) -> dict:
        return {"kind": self.kind, "nominal_s": self.nominal_s, "samples": len(self.samples),
                "median_s": statistics.median(self.samples) if self.samples else None,
                "min_s": min(self.samples, default=None), "max_s": max(self.samples, default=None)}


# --- pretrain ---------------------------------------------------------------

class Pretrain:
    """MLM pretraining, one whole epoch (with its checkpoint write) per job,
    then masked-LM scoring of held-out lines with the reloaded checkpoint."""

    TRAIN, APPLY = ("train",), ("apply",)
    REFERENCE = "numpy"  # GELU is most of the encoder's time
    # named metric -> (unit key, stages it is timed over)
    NAMED = {"pretrain_tokens_per_s": ("train", ("train",)),
             "score_tokens_per_s": ("apply", ("apply",))}

    def __init__(self, run: Run):
        run_inputs = run.inputs
        self.run = run
        self.bert_config = bert.BertConfig.from_dict(run.config["bert"])
        knobs = run.config["pretrain"]
        self.max_len, self.mask_rate = knobs["max_len"], knobs["mask_rate"]
        self.vocab = wordpiece.load_vocab(os.path.join(run_inputs, "vocab.txt"))
        self.corpus = [line for line in read_lines(os.path.join(run_inputs, "corpus.txt")) if line.strip()]
        self.score = read_lines(os.path.join(run_inputs, "score.txt"))
        self.model = bert.build_model(self.bert_config, seed=run.seed)

    def after_setup(self) -> None:
        run = self.run
        self.initial = [p.data.copy() for p in self.model.params]
        seg = ReferenceSegmenter(self.vocab.pieces)
        lengths, stats = encoded_lengths(seg, self.corpus, self.max_len)
        score_lengths, _ = encoded_lengths(seg, self.score, self.max_len)
        self.train_tokens = sum(lengths)
        self.score_tokens = sum(score_lengths)
        # Batches as the pretraining loop forms them: a seeded permutation
        # per epoch, each batch trimmed to its longest line.
        order = np.random.default_rng(np.random.SeedSequence(run.seed, spawn_key=(0, 0))).permutation(len(lengths))
        batch = self.bert_config.batch_size
        rows = 0
        for start in range(0, len(order), batch):
            pick = [lengths[i] for i in order[start:start + batch]]
            rows += len(pick) * padded_width(pick)
        run.ratios["bert.pad_fraction"] = 1.0 - self.train_tokens / rows
        run.ratios["bert.mlm_useful_row_ratio"] = self.mask_rate * (self.train_tokens - 2 * len(lengths)) / rows
        run.ratios["wordpiece.unk_rate"] = stats["unk"] / stats["words"]
        run.ratios["wordpiece.overflow_rate"] = stats["overflow"] / stats["lines"]

    def job(self, job: Job, first: bool) -> None:
        run = self.run
        for p, init in zip(self.model.params, self.initial):
            np.copyto(p.data, init)
        ckpt = os.path.join(run.out, "encoder")
        with job.stage("train"):
            result = bert.pretrain(
                self.model, self.corpus, self.vocab, self.bert_config, seed=run.seed,
                checkpoint_dir=ckpt, max_len=self.max_len, mask_rate=self.mask_rate,
                log_every=10**9,
            )
        with job.stage("apply"):
            loaded, _ = bert.load_checkpoint(ckpt)
            encodings = [wordpiece.encode(line, self.vocab, self.max_len) for line in self.score]
            ids = np.array([e.ids for e in encodings], dtype=np.int64)
            masks = np.array([e.attention_mask for e in encodings], dtype=np.int64)
            width = max(int(masks.sum(axis=1).max()), 3)
            rng = np.random.default_rng(np.random.SeedSequence(run.seed, spawn_key=(7,)))
            batch = bert.mask_for_mlm(ids[:, :width], masks[:, :width], self.mask_rate, rng,
                                          self.bert_config.vocab_size)
            seq, _ = bert.forward(loaded, batch.input_ids, batch.attention_mask)
            loss = autodiff.cross_entropy(bert.mlm_logits(loaded, seq), batch.labels,
                                              bert.IGNORE_INDEX)
        job.units = {"train": self.train_tokens, "apply": self.score_tokens}
        job.artifacts["params.bin"] = sha256_file(os.path.join(ckpt, "params.bin"))
        job.artifacts["score_loss"] = sha256_json(float(loss.item()))
        run.check_finite(result.losses + [float(loss.item())])
        if first:
            same = all(np.array_equal(a.data, b.data) for a, b in zip(self.model.params, loaded.params))
            run.check("reload_reproduces", same, "reloaded params.bin differs from the trained model")


# --- classify ---------------------------------------------------------------

class Classify:
    """BiLSTM and MLP heads on frozen encoder features: train each with its
    default epochs and save it, then evaluate each reloaded model."""

    TRAIN, APPLY = ("train_bilstm", "train_mlp"), ("eval",)
    REFERENCE = "numpy"  # the encoder forward dominates
    NAMED = {"head_train_examples_per_s": ("train", ("train_bilstm", "train_mlp")),
             "eval_examples_per_s": ("apply", ("eval",))}

    def __init__(self, run: Run):
        self.run = run
        self.vocab = wordpiece.load_vocab(os.path.join(run.inputs, "vocab.txt"))
        self.encoder, self.encoder_config = bert.load_checkpoint(os.path.join(run.inputs, "encoder"))

    def after_setup(self) -> None:
        run = self.run
        seg = ReferenceSegmenter(self.vocab.pieces)
        texts = {}
        for name in ("train", "test"):
            rows = read_lines(os.path.join(run.inputs, f"{name}.tsv"))
            texts[name] = [row.split("\t")[0] for row in rows]
        max_len = self.train_config("mlp").max_len
        train_len, train_stats = encoded_lengths(seg, texts["train"], max_len)
        test_len, test_stats = encoded_lengths(seg, texts["test"], max_len)
        train_rows = len(train_len) * padded_width(train_len)
        test_rows = len(test_len) * padded_width(test_len)
        run.ratios["classifiers.pad_fraction"] = 1.0 - sum(train_len) / train_rows
        run.ratios["bert.pad_fraction"] = 1.0 - (sum(train_len) + sum(test_len)) / (train_rows + test_rows)
        words = train_stats["words"] + test_stats["words"]
        run.ratios["wordpiece.unk_rate"] = (train_stats["unk"] + test_stats["unk"]) / words
        run.ratios["wordpiece.overflow_rate"] = (
            (train_stats["overflow"] + test_stats["overflow"]) / (len(train_len) + len(test_len)))

    def train_config(self, kind: str):
        return classifiers.TrainConfig(
            epochs=classifiers.default_epochs(kind, self.encoder_config.hidden_size),
            seed=self.run.seed, num_classes=self.run.config["train"]["num_classes"])

    def predict_all(self, model, dataset):
        """The evaluate command's batching: encode all, trim to the widest, 32 rows a batch."""
        encodings = [wordpiece.encode(ex.text, self.vocab, model.train_config.max_len) for ex in dataset]
        ids = np.array([e.ids for e in encodings], dtype=np.int64)
        masks = np.array([e.attention_mask for e in encodings], dtype=np.int64)
        width = max(int(masks.sum(axis=1).max()), 3)
        ids, masks = ids[:, :width], masks[:, :width]
        probs = [classifiers.predict_encoded(model, ids[s:s + 32], masks[s:s + 32])
                 for s in range(0, len(ids), 32)]
        return np.concatenate(probs, axis=0), (ids[:32], masks[:32])

    def job(self, job: Job, first: bool) -> None:
        run = self.run
        with job.stage("prepare"):
            train = corpus.load_labeled(os.path.join(run.inputs, "train.tsv"))
            test = corpus.load_labeled(os.path.join(run.inputs, "test.tsv"))
        trained = {}
        epochs = 0
        for kind in HEADS:
            config = self.train_config(kind)
            epochs += config.epochs
            with job.stage("train_" + kind):
                if kind == "bilstm":
                    model = classifiers.train_bilstm(self.encoder, self.vocab, train, config)
                else:
                    model = classifiers.train_mlp(self.encoder, self.vocab, train, config)
                classifiers.save_sentiment_model(model, os.path.join(run.out, kind))
            trained[kind] = model
            run.check_finite(model.train_losses)
        reports = {}
        with job.stage("eval"):
            for kind in HEADS:
                model = classifiers.load_sentiment_model(os.path.join(run.out, kind))
                probs, first_batch = self.predict_all(model, test)
                preds = [model.labels[int(i)].value for i in np.argmax(probs, axis=1)]
                truths = [ex.label.value for ex in test]
                labels = [label.value for label in model.labels]
                rep = metrics.report(metrics.confusion(truths, preds, labels)).to_json_dict()
                path = os.path.join(run.out, f"report_{kind}.json")
                checkpoint.atomic_write_json(path, rep)
                reports[kind] = (path, rep, preds, truths, labels, probs, first_batch)
        job.units = {"train": len(train) * epochs, "apply": len(test) * len(HEADS)}
        for kind, (path, rep, preds, truths, labels, probs, first_batch) in reports.items():
            job.artifacts[f"{kind}/head.bin"] = sha256_file(os.path.join(run.out, kind, "head.bin"))
            job.artifacts[f"report_{kind}.json"] = sha256_file(path)
            ok, detail = recount_matches(rep, preds, truths, labels)
            run.check("report_recount", ok, f"{kind}: {detail}")
            if first:
                in_memory = classifiers.predict_encoded(trained[kind], *first_batch)
                run.check("reload_reproduces", np.array_equal(in_memory, probs[: len(in_memory)]),
                          f"{kind}: reloaded model's probabilities differ")


def recount_matches(rep: dict, preds, truths, labels) -> tuple[bool, str]:
    """Brute-force accuracy, per-class precision/recall/F1/support and both F1 averages."""
    n = len(truths)
    if rep["accuracy"] != sum(p == t for p, t in zip(preds, truths)) / n:
        return False, "accuracy"
    weighted = 0.0
    tp_all = fp_all = fn_all = 0
    for label in labels:
        tp = sum(p == label and t == label for p, t in zip(preds, truths))
        fp = sum(p == label and t != label for p, t in zip(preds, truths))
        fn = sum(p != label and t == label for p, t in zip(preds, truths))
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        got = rep["per_class"][label]
        if (got["support"], got["precision"], got["recall"]) != (tp + fn, precision, recall):
            return False, f"class {label}"
        if not math.isclose(got["f1"], f1, rel_tol=1e-12, abs_tol=1e-12):
            return False, f"class {label} f1"
        weighted += (tp + fn) / n * f1
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    micro = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
    if not math.isclose(rep["weighted_f1"], weighted, rel_tol=1e-12, abs_tol=1e-12):
        return False, "weighted_f1"
    if not math.isclose(rep["micro_f1"], micro, rel_tol=1e-12, abs_tol=1e-12):
        return False, "micro_f1"
    return True, ""


# --- text -------------------------------------------------------------------

class Text:
    """Normalize a noisy corpus, train a WordPiece vocabulary on it, encode
    the corpus plus a held-out slice with unseen characters."""

    TRAIN, APPLY = ("train",), ("normalize", "encode")
    REFERENCE = "python"  # all interpreted
    NAMED = {"normalize_lines_per_s": ("apply", ("normalize",)),
             "tokenizer_train_lines_per_s": ("train", ("train",)),
             "encode_lines_per_s": ("apply", ("encode",))}

    def __init__(self, run: Run):
        self.run = run
        self.raw = read_lines(os.path.join(run.inputs, "corpus.txt"))
        self.raw_heldout = read_lines(os.path.join(run.inputs, "heldout.txt"))
        self.rules = normalize.default_rules()
        self.max_len = run.shape["text_max_len"]

    def after_setup(self) -> None:
        pass

    def job(self, job: Job, first: bool) -> None:
        run = self.run
        knobs = run.config["tokenizer"]
        with job.stage("normalize"):
            corpus = list(normalize.normalize_stream(self.raw, self.rules))
            heldout = list(normalize.normalize_stream(self.raw_heldout, self.rules))
        vocab_path = os.path.join(run.out, "vocab.txt")
        with job.stage("train"):
            vocab = wordpiece.train_wordpiece(corpus, vocab_size=knobs["vocab_size"],
                                                  min_freq=knobs["min_freq"])
            wordpiece.save_vocab(vocab, vocab_path)
        lines = corpus + heldout
        with job.stage("encode"):
            encodings = [wordpiece.encode(line, vocab, self.max_len) for line in lines]
        job.units = {"train": len(corpus), "apply": len(lines)}
        job.artifacts["vocab.txt"] = sha256_file(vocab_path)
        job.artifacts["normalized"] = sha256_json(lines)
        job.artifacts["encoded_ids"] = sha256_json([e.ids for e in encodings])
        if first:
            self.first_checks(vocab, lines, encodings, corpus)

    def first_checks(self, vocab, lines, encodings, corpus) -> None:
        run = self.run
        seg = ReferenceSegmenter(vocab.pieces)
        wrong = 0
        for line, enc in zip(lines, encodings):
            ids, _, _ = seg.line(line)
            body = ids[: self.max_len - 2]
            expect = [2] + body + [3] + [0] * (self.max_len - len(body) - 2)
            wrong += expect != enc.ids
        run.check("encode_matches_reference", wrong == 0, f"{wrong} of {len(lines)} lines")
        broken = 0
        for line, enc in zip(lines, encodings):
            if 1 not in enc.ids and not enc.overflow:
                broken += wordpiece.decode(enc.ids, vocab) != line
        run.check("roundtrip", broken == 0, f"{broken} lines do not decode to their text")
        _, stats = encoded_lengths(seg, lines, self.max_len)
        raw = self.raw + self.raw_heldout
        run.ratios["wordpiece.unk_rate"] = stats["unk"] / stats["words"]
        run.ratios["wordpiece.overflow_rate"] = stats["overflow"] / stats["lines"]
        run.ratios["normalize.changed_ratio"] = sum(a != b for a, b in zip(raw, lines)) / len(raw)
        alphabet = {ch if pos == 0 else "##" + ch for word in {w for l in corpus for w in l.split()}
                    for pos, ch in enumerate(word)}
        run.counts["wordpiece.merges"] = len(vocab.pieces) - len(gen.SPECIALS) - len(alphabet)


WORKLOADS = {"pretrain": Pretrain, "classify": Classify, "text": Text}


# --- tracing ----------------------------------------------------------------

def _matmul_flops(args, kwargs, result):
    return 2 * result.data.size * args[0].shape[-1]


def _blob_bytes(args, kwargs, result):
    return 4 * sum(int(arr.size) for _, arr in args[0])


def _adam_values(args, kwargs, result):
    return sum(int(p.data.size) for p in args[0])


def _forward_mode(args, kwargs):
    train = kwargs.get("train", args[3] if len(args) > 3 else False)
    return "classifiers.forward_train" if train else "classifiers.forward_eval"


def install_spans(tracer: Tracer) -> None:
    """Wrap each public function under the name its caller looks it up by."""
    for op in ALL_OPS:
        tracer.patch(autodiff, op, "autodiff." + op, _matmul_flops if op == "matmul" else None)
    tracer.patch(autodiff, "_topo_order", "autodiff.topo_order", lambda a, k, r: len(r))
    tracer.patch(bert, "forward", "bert.forward")
    tracer.patch(classifiers, "forward", _forward_mode, target=bert.forward)
    for module in (bert, classifiers):
        tracer.patch(module, "backward", "autodiff.backward")
        tracer.patch(module, "adam_step", "optim.adam_step", _adam_values)
        tracer.patch(module, "encode", "wordpiece.encode")
        tracer.patch(module, "write_blob", "checkpoint.write_blob", _blob_bytes)
        tracer.patch(module, "read_blob", "checkpoint.read_blob")
        tracer.patch(module, "save_checkpoint", "bert.save_checkpoint")
        tracer.patch(module, "load_checkpoint", "bert.load_checkpoint")
    for name in ("pretrain", "build_model", "mlm_logits", "mask_for_mlm"):
        tracer.patch(bert, name, "bert." + name)
    tracer.patch(classifiers, "head_logits", lambda a, k: "classifiers." + a[0].head_kind)
    for name in ("predict_encoded", "save_sentiment_model", "load_sentiment_model"):
        tracer.patch(classifiers, name, "classifiers." + name)
    for name in ("encode", "train_wordpiece", "save_vocab", "load_vocab", "decode"):
        tracer.patch(wordpiece, name, "wordpiece." + name)
    for module in (normalize, corpus, classifiers):
        tracer.patch(module, "normalize_text", "normalize.normalize_text")
    tracer.patch(normalize, "normalize_stream", "normalize.normalize_stream")
    tracer.patch(corpus, "load_labeled", "corpus.load_labeled")


def _layer_units() -> dict[str, str]:
    units = {}
    for op in NAMED_OPS:
        units[f"autodiff.{op}.fwd_s"] = "s"
        units[f"autodiff.{op}.calls"] = "count"
    by_unit = {
        "s": ["autodiff.other_ops.fwd_s", "autodiff.backward.busy_s", "bert.forward.busy_s",
              "bert.forward.self_s", "bert.step_s.p50", "bert.step_s.max", "bert.mlm_logits.busy_s",
              "bert.mask_for_mlm.busy_s", "bert.build_model.busy_s", "bert.load_checkpoint.busy_s",
              "optim.adam_step.busy_s", "classifiers.bilstm.fwd_s", "classifiers.bilstm.self_s",
              "classifiers.mlp.fwd_s", "classifiers.forward_eval.busy_s",
              "classifiers.predict_encoded.busy_s", "checkpoint.write_blob.busy_s",
              "checkpoint.read_blob.busy_s", "wordpiece.train_wordpiece.busy_s",
              "wordpiece.s_per_1k_merges", "wordpiece.encode.busy_s", "normalize.normalize_text.busy_s",
              "corpus.load_labeled.busy_s", "trace.overhead_s", "trace.uncovered_s"],
        "count": ["autodiff.nodes_per_step", "bert.forward.calls", "bert.steps", "optim.adam_step.calls",
                  "optim.adam_step.values", "checkpoint.write_blob.calls", "wordpiece.merges",
                  "wordpiece.encode.calls", "normalize.normalize_text.calls"],
        "ratio": ["bert.pad_fraction", "bert.mlm_useful_row_ratio", "classifiers.pad_fraction",
                  "wordpiece.unk_rate", "wordpiece.overflow_rate", "normalize.changed_ratio"],
        "GFLOP": ["autodiff.matmul.gflop"],
        "GFLOP/s": ["autodiff.matmul.fwd_gflops", "blas.sgemm_gflops"],
        "B": ["checkpoint.write_blob.bytes"],
    }
    for unit, names in by_unit.items():
        units.update(dict.fromkeys(names, unit))
    return units


# Every per-layer metric a traced run prints, with its unit; a layer a
# workload does not exercise reads 0.
LAYER_UNITS = _layer_units()


def layer_metrics(spans: list[list], run: Run, traced_walls, untraced_walls, sgemm_gflops) -> dict:
    """Per-layer metrics: set-up spans once, plus job spans averaged per traced job."""
    roots = [root_of(spans, i) for i in range(len(spans))]
    job_roots = [i for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME] == "job"]
    n_jobs = len(job_roots)
    acc = summarize(spans, [1.0 / n_jobs if spans[r][NAME] == "job" else 1.0 for r in roots])

    def get(name, field="busy_s"):
        return acc.get(name, {}).get(field, 0.0)

    m: dict[str, float] = {}
    for op in NAMED_OPS:
        m[f"autodiff.{op}.fwd_s"] = get("autodiff." + op)
        m[f"autodiff.{op}.calls"] = get("autodiff." + op, "calls")
    m["autodiff.other_ops.fwd_s"] = sum(get("autodiff." + op) for op in ALL_OPS if op not in NAMED_OPS)
    m["autodiff.backward.busy_s"] = get("autodiff.backward")
    gflop = get("autodiff.matmul", "value") / 1e9
    m["autodiff.matmul.gflop"] = gflop
    m["autodiff.matmul.fwd_gflops"] = gflop / m["autodiff.matmul.fwd_s"] if gflop else 0.0

    # graph size walked per backward, per training stage; the heaviest stage counts
    nodes: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[NAME] == "autodiff.topo_order":
            parent = span[PARENT]
            while parent >= 0 and not spans[parent][NAME].startswith("stage."):
                parent = spans[parent][PARENT]
            nodes.setdefault(parent, []).append(span[VALUE])
    m["autodiff.nodes_per_step"] = max((statistics.fmean(v) for v in nodes.values()), default=0.0)

    for field in ("busy_s", "self_s", "calls"):
        m["bert.forward." + field] = get("bert.forward", field)
    steps = []
    pending: dict[int, float] = {}
    for span in spans:
        if span[NAME] == "bert.mask_for_mlm":
            pending[span[PARENT]] = span[START]
        elif span[NAME] == "optim.adam_step" and span[PARENT] in pending:
            steps.append(span[END] - pending.pop(span[PARENT]))
    m["bert.step_s.p50"] = statistics.median(steps) if steps else 0.0
    m["bert.step_s.max"] = max(steps, default=0.0)
    m["bert.steps"] = len(steps) / max(n_jobs, 1)
    m["bert.pad_fraction"] = run.ratios.get("bert.pad_fraction", 0.0)
    m["bert.mlm_logits.busy_s"] = get("bert.mlm_logits")
    m["bert.mlm_useful_row_ratio"] = run.ratios.get("bert.mlm_useful_row_ratio", 0.0)
    m["bert.mask_for_mlm.busy_s"] = get("bert.mask_for_mlm")
    m["bert.build_model.busy_s"] = get("bert.build_model")
    m["bert.load_checkpoint.busy_s"] = get("bert.load_checkpoint")

    m["optim.adam_step.busy_s"] = get("optim.adam_step")
    m["optim.adam_step.calls"] = get("optim.adam_step", "calls")
    m["optim.adam_step.values"] = get("optim.adam_step", "value")

    m["classifiers.bilstm.fwd_s"] = get("classifiers.bilstm")
    m["classifiers.bilstm.self_s"] = get("classifiers.bilstm", "self_s")
    m["classifiers.mlp.fwd_s"] = get("classifiers.mlp")
    m["classifiers.pad_fraction"] = run.ratios.get("classifiers.pad_fraction", 0.0)
    m["classifiers.forward_eval.busy_s"] = get("classifiers.forward_eval")
    m["classifiers.predict_encoded.busy_s"] = get("classifiers.predict_encoded")

    m["checkpoint.write_blob.busy_s"] = get("checkpoint.write_blob")
    m["checkpoint.write_blob.bytes"] = get("checkpoint.write_blob", "value")
    m["checkpoint.write_blob.calls"] = get("checkpoint.write_blob", "calls")
    m["checkpoint.read_blob.busy_s"] = get("checkpoint.read_blob")

    m["wordpiece.train_wordpiece.busy_s"] = get("wordpiece.train_wordpiece")
    merges = run.counts.get("wordpiece.merges", 0)
    m["wordpiece.merges"] = merges
    m["wordpiece.s_per_1k_merges"] = 1000 * m["wordpiece.train_wordpiece.busy_s"] / merges if merges else 0.0
    m["wordpiece.encode.busy_s"] = get("wordpiece.encode")
    m["wordpiece.encode.calls"] = get("wordpiece.encode", "calls")
    m["wordpiece.unk_rate"] = run.ratios.get("wordpiece.unk_rate", 0.0)
    m["wordpiece.overflow_rate"] = run.ratios.get("wordpiece.overflow_rate", 0.0)

    m["normalize.normalize_text.busy_s"] = get("normalize.normalize_text")
    m["normalize.normalize_text.calls"] = get("normalize.normalize_text", "calls")
    m["normalize.changed_ratio"] = run.ratios.get("normalize.changed_ratio", 0.0)
    m["corpus.load_labeled.busy_s"] = get("corpus.load_labeled")

    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    uncovered = []
    for root in job_roots:
        start, end = spans[root][START], spans[root][END]
        layer = [(s[START], s[END]) for i, s in enumerate(spans)
                 if roots[i] == root and s[PARENT] >= 0 and not s[NAME].startswith("stage.")
                 and (spans[s[PARENT]][NAME] == "job" or spans[s[PARENT]][NAME].startswith("stage."))]
        uncovered.append(end - start - covered(layer, start, end))
    m["trace.uncovered_s"] = statistics.fmean(uncovered)
    m["blas.sgemm_gflops"] = sgemm_gflops
    return m


# --- machine facts ----------------------------------------------------------

def sgemm_gflops(n: int = 1024, repeats: int = 7) -> float:
    """float32 GEMM speed of this machine's BLAS at the run's thread setting."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - started)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def machine_facts() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kusent": kusent.__version__,
        "kusent_file": kusent.__file__,
        "match_backend": wordpiece.MATCH_BACKEND,
    }


# --- main -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=sorted(gen.SIZES))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    run = Run(args)
    tracer = Tracer() if args.trace else None
    if tracer:
        install_spans(tracer)
    with tracer.span("setup") if tracer else nullcontext():
        workload = WORKLOADS[args.workload](run)
    ready_wall = time.time()
    if tracer:
        tracer.restore()
    if args.setup_only:
        print(json.dumps({"ready_wall": ready_wall}))
        return 0

    workload.after_setup()
    facts = machine_facts()
    facts["sgemm_gflops"] = sgemm_gflops()
    os.makedirs(args.out, exist_ok=True)

    reference = Reference(type(workload).REFERENCE)
    reference.sample()  # warm-up
    reference.samples.clear()
    jobs = []
    loop_start = time.perf_counter()
    while len(jobs) < MIN_JOBS or (
        time.perf_counter() - loop_start < min(args.seconds, JOB_CAP_S)
    ):
        traced = bool(tracer) and len(jobs) % 2 == 1
        job = Job(tracer, None) if traced else Job(None, reference)
        if traced:
            install_spans(tracer)
        try:
            with tracer.span("job") if traced else nullcontext():
                workload.job(job, first=not jobs)
        except Exception as exc:  # a failed job is counted and ends the run
            run.check("job_completed", False, f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            break
        finally:
            if traced:
                tracer.restore()
        run.check("job_completed", True)
        job.finish()
        jobs.append({"wall": sum(job.stages.values()), "traced": traced, "stages": job.stages,
                     "ref_stages": job.ref_stages, "units": job.units, "artifacts": job.artifacts})
    for job in jobs[1:]:
        run.check("artifacts_repeat", job["artifacts"] == jobs[0]["artifacts"],
                  "a job's artifacts differ from the first job's")

    result = {
        "ready_wall": ready_wall,
        "jobs": jobs,
        "checks": run.checks,
        "failures": run.failures,
        "ratios": run.ratios,
        "counts": run.counts,
        "machine": facts,
        "reference": reference.summary(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    walls = [[j["wall"] for j in jobs[1:] if j["traced"] == t] for t in (True, False)]
    if tracer and walls[0] and walls[1]:
        result["per_layer"] = layer_metrics(tracer.spans, run, walls[0], walls[1], facts["sgemm_gflops"])
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "value"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
