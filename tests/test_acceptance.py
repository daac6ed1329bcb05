"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import random
import time

import numpy as np
import pytest

from kusent import autodiff as ad
from kusent.autodiff import Parameter, Tensor
from kusent.bert import (
    IGNORE_INDEX,
    BertConfig,
    build_model,
    count_params,
    expected_shapes,
    forward,
    init_params,
    load_checkpoint,
    mask_for_mlm,
    mlm_logits,
    preset_config,
    pretrain,
)
from kusent.classifiers import (
    TrainConfig,
    bilstm_summary,
    head_shapes,
    train_bilstm,
    train_finetune,
    train_mlp,
)
from kusent.cli import main
from kusent.metrics import ConfusionMatrix, confusion, report
from kusent.normalize import default_rules, normalize_text
from kusent.wordpiece import (
    CLS,
    MASK,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    Vocab,
    decode,
    encode,
    train_wordpiece,
)

import test_classifiers
from gradcheck import grad_check
from test_classifiers import synthetic_dataset, synthetic_vocab, train_accuracy
from test_normalize import ARABIC_SCRIPT
from test_wordpiece import oracle_segment


def announce(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{name}]: {status}{suffix}")


def fparam(name, shape, seed):
    rng = np.random.default_rng(seed)
    return Parameter(name, rng.uniform(-1.0, 1.0, size=shape))


def test_criterion_1_gradient_checks():
    started = time.monotonic()
    failures = []

    def run(name, loss_fn, params, **kwargs):
        rep = grad_check(loss_fn, params, tolerance=1e-4, **kwargs)
        if not rep.passed:
            failures.append(f"{name}: {rep}")

    w = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
    a, b = fparam("a", (3, 4), 1), fparam("b", (4, 2), 2)
    run("matmul", lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), w)), [a, b])
    c, d = fparam("c", (3, 4), 3), fparam("d", (4,), 4)
    run("broadcast_add", lambda: ad.reduce_sum(ad.mul(ad.add(c, d), Tensor(np.ones((3, 4))))), [c, d])
    run("sub_scale", lambda: ad.reduce_sum(ad.scale(ad.sub(c, Tensor(np.ones((3, 4)))), 1.3)), [c])
    e = fparam("e", (4, 4), 5)
    e.data += np.where(e.data >= 0, 0.5, -0.5)
    run("relu", lambda: ad.reduce_sum(ad.relu(e)), [e])
    f = fparam("f", (3, 5), 6)
    run("gelu", lambda: ad.reduce_sum(ad.gelu(f)), [f])
    run("tanh_sigmoid_mul", lambda: ad.reduce_sum(ad.mul(ad.tanh(f), ad.sigmoid(f))), [f])
    g = fparam("g", (4, 5), 7)
    wg = Tensor(np.random.default_rng(8).normal(size=(4, 5)))
    run("softmax", lambda: ad.reduce_sum(ad.mul(ad.softmax(g), wg)), [g])
    x, gain, shift = fparam("x", (4, 6), 9), fparam("gain", (6,), 10), fparam("shift", (6,), 11)
    wl = Tensor(np.random.default_rng(12).normal(size=(4, 6)))
    run("layer_norm", lambda: ad.reduce_sum(ad.mul(ad.layer_norm(x, gain, shift), wl)), [x, gain, shift])
    h = fparam("h", (6, 6), 13)
    run(
        "dropout",
        lambda: ad.reduce_sum(ad.dropout(h, 0.4, np.random.default_rng(14))),
        [h],
    )
    table = fparam("table", (7, 3), 15)
    ids = np.array([[0, 3, 3], [6, 1, 0]])
    we = Tensor(np.random.default_rng(16).normal(size=(2, 3, 3)))
    run("embedding_lookup", lambda: ad.reduce_sum(ad.mul(ad.embedding_lookup(table, ids), we)), [table])
    logits = fparam("logits", (6, 4), 17)
    targets = np.array([0, 3, IGNORE_INDEX, 2, 1, IGNORE_INDEX])
    run("cross_entropy", lambda: ad.cross_entropy(logits, targets, IGNORE_INDEX), [logits])
    p1, p2 = fparam("p1", (2, 3), 18), fparam("p2", (2, 3), 19)
    run(
        "concat_stack_narrow",
        lambda: ad.add(
            ad.reduce_sum(ad.narrow(ad.concat([p1, p2], axis=1), 1, 2, 3)),
            ad.reduce_mean(ad.stack([p1, p2], axis=0)),
        ),
        [p1, p2],
    )
    q = fparam("q", (2, 3, 4), 20)
    wq = Tensor(np.random.default_rng(21).normal(size=(4, 6)))
    run(
        "reshape_transpose",
        lambda: ad.reduce_sum(ad.mul(ad.reshape(ad.transpose(q, (2, 0, 1)), (4, 6)), wq)),
        [q],
    )

    # one full encoder layer through the MLM loss
    cfg = BertConfig(
        hidden_size=8, num_hidden_layers=1, num_attention_heads=2,
        vocab_size=12, max_position=8, dropout_rate=0.0,
    )
    model = build_model(cfg, seed=4, dtype=np.float64)
    rng = np.random.default_rng(3)
    enc_ids = rng.integers(5, 12, size=(2, 6))
    enc_ids[:, 0] = CLS
    enc_ids[:, 4] = SEP
    enc_ids[:, 5:] = 0
    enc_mask = np.ones((2, 6), dtype=np.int64)
    enc_mask[:, 5:] = 0
    labels = np.where(rng.random(enc_ids.shape) < 0.3, enc_ids, IGNORE_INDEX)

    def encoder_loss():
        seq, _ = forward(model, enc_ids, enc_mask)
        return ad.cross_entropy(mlm_logits(model, seq), labels, IGNORE_INDEX)

    run("encoder_layer", encoder_loss, model.params, max_elements_per_param=6)

    # one BiLSTM layer
    rng = np.random.default_rng(4)
    lstm = init_params(head_shapes("bilstm", 5, 3, {"lstm_hidden": 4, "num_layers": 1}), rng, np.float64)
    by_name = {p.name: p for p in lstm}
    states = Tensor(rng.normal(size=(2, 4, 5)))
    s_mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
    s_targets = np.array([0, 2])

    def lstm_loss():
        summary = bilstm_summary(by_name, states, s_mask, 1, 4, 0.0, None)
        lg = ad.add(ad.matmul(summary, by_name["head.weight"]), by_name["head.bias"])
        return ad.cross_entropy(lg, s_targets)

    run("bilstm_layer", lstm_loss, lstm, max_elements_per_param=6)

    # the MLP head (pre-activations kept away from the ReLU kink)
    rng = np.random.default_rng(6)
    mlp = [
        Parameter(p.name, rng.normal(scale=0.6, size=p.data.shape))
        for p in init_params(head_shapes("mlp", 6, 3, {"hidden_sizes": [8, 4]}), rng, np.float64)
    ]
    mby = {p.name: p for p in mlp}
    cls_in = Tensor(rng.normal(size=(5, 6)))
    m_targets = np.array([0, 1, 2, 1, 0])

    def mlp_loss():
        z = ad.relu(ad.add(ad.matmul(cls_in, mby["head.w1"]), mby["head.b1"]))
        z = ad.relu(ad.add(ad.matmul(z, mby["head.w2"]), mby["head.b2"]))
        lg = ad.add(ad.matmul(z, mby["head.w3"]), mby["head.b3"])
        return ad.cross_entropy(lg, m_targets)

    run("mlp_head", mlp_loss, mlp, max_elements_per_param=8)

    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 120.0
    announce(1, "gradient checks", ok, f"{elapsed:.1f}s, {len(failures)} failures")
    assert not failures, failures
    assert elapsed < 120.0, f"gradient-check suite took {elapsed:.1f}s"


def test_criterion_2_tokenizer_oracle():
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(1000):
        alphabet = "abc"[: rng.randint(2, 3)]
        n_pieces = rng.randint(1, 195)
        pieces = []
        seen = set(SPECIAL_TOKENS)
        for _ in range(3 * n_pieces):
            if len(pieces) == n_pieces:
                break
            body = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
            piece = ("##" + body) if rng.random() < 0.5 else body
            if piece not in seen:
                seen.add(piece)
                pieces.append(piece)
        vocab = Vocab(pieces=list(SPECIAL_TOKENS) + pieces)
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
        if vocab.segment_word(word) != oracle_segment(word, vocab.pieces):
            mismatches += 1

    vocab = Vocab(
        pieces=list(SPECIAL_TOKENS)
        + ["a", "b", "ab", "ba", "##a", "##b", "##ab", "##ba", "##bb"]
    )
    round_trip_failures = 0
    checked = 0
    wrng = random.Random(9)
    for _ in range(500):
        words = [
            "".join(wrng.choice("ab") for _ in range(wrng.randint(1, 8)))
            for _ in range(wrng.randint(1, 5))
        ]
        text = " ".join(words)
        enc = encode(text, vocab, max_len=64)
        if enc.overflow or UNK in enc.ids:
            continue
        checked += 1
        if decode(enc.ids, vocab) != text:
            round_trip_failures += 1

    ok = mismatches == 0 and round_trip_failures == 0 and checked > 100
    announce(2, "tokenizer oracle", ok, f"{mismatches} mismatches, {checked} round trips")
    assert mismatches == 0
    assert round_trip_failures == 0
    assert checked > 100


def test_criterion_3_normalizer():
    rules = default_rules()
    rng = random.Random(20240801)
    lines = []
    for _ in range(10_000):
        length = rng.randrange(0, 80)
        lines.append("".join(rng.choice(ARABIC_SCRIPT) for _ in range(length)))
    idempotence_failures = 0
    survivors = 0
    for line in lines:
        once = normalize_text(line, rules)
        if normalize_text(once, rules) != once:
            idempotence_failures += 1
        if set(once) & rules.strip_set:
            survivors += 1
    pairs_ok = (
        normalize_text("ك") == "ک"
        and normalize_text("ي") == "ی"
        and normalize_text("١٢۳") == "123"
    )
    ok = idempotence_failures == 0 and survivors == 0 and pairs_ok
    announce(
        3,
        "normalizer",
        ok,
        f"{idempotence_failures} idempotence failures, {survivors} strip survivors",
    )
    assert idempotence_failures == 0
    assert survivors == 0
    assert pairs_ok


def test_criterion_4_masking_statistics():
    rng = np.random.default_rng(424242)
    n, seq = 500, 250
    ids = rng.integers(5, 2000, size=(n, seq))
    ids[:, 0] = CLS
    ids[:, -1] = SEP
    mask = np.ones((n, seq), dtype=np.int64)
    eligible = n * (seq - 2)
    assert eligible >= 100_000
    batch = mask_for_mlm(ids, mask, 0.15, rng, vocab_size=2000)
    selected = batch.labels != IGNORE_INDEX
    frac = selected.sum() / eligible
    became_mask = selected & (batch.input_ids == MASK)
    unchanged = selected & (batch.input_ids == ids)
    randomized = selected & ~became_mask & ~unchanged
    total = selected.sum()
    shares = (
        became_mask.sum() / total,
        randomized.sum() / total,
        unchanged.sum() / total,
    )
    ok = (
        abs(frac - 0.15) <= 0.01
        and abs(shares[0] - 0.80) <= 0.02
        and abs(shares[1] - 0.10) <= 0.02
        and abs(shares[2] - 0.10) <= 0.02
    )
    announce(
        4,
        "masking statistics",
        ok,
        f"rate {frac:.4f}, split {shares[0]:.3f}/{shares[1]:.3f}/{shares[2]:.3f}",
    )
    assert ok


_SYL_A = ["ba", "da", "ka", "la", "ma", "na", "pa", "ra", "sa", "ta",
          "wa", "za", "be", "de", "ke", "le", "me", "ne", "pe", "re"]
_SYL_B = ["ki", "li", "mi", "ni", "ri", "si", "ti", "wi", "zi", "bi"]


def desk_corpus(n_templates=15, n_lines=1000, seed=31):
    """1,000 sentences drawn from a pool of templates over a 200-word
    vocabulary of two-syllable words; masked pieces are recoverable from the
    visible remainder of the template."""
    rng = np.random.default_rng(seed)
    words = [a + b for a in _SYL_A for b in _SYL_B]
    templates = [
        " ".join(rng.choice(words, size=int(rng.integers(4, 7))))
        for _ in range(n_templates)
    ]
    return [templates[int(rng.integers(0, n_templates))] for _ in range(n_lines)]


def test_criterion_5_desk_pretraining(tmp_path):
    started = time.monotonic()
    lines = desk_corpus()
    vocab = train_wordpiece(lines, vocab_size=70)
    config = BertConfig(
        hidden_size=64,
        num_hidden_layers=2,
        num_attention_heads=4,
        vocab_size=len(vocab),
        max_position=40,
        epochs=5,
        batch_size=8,
    )
    model = build_model(config, seed=0)
    result = pretrain(
        model, lines, vocab, config, seed=0,
        checkpoint_dir=str(tmp_path / "ck"), max_len=36, learning_rate=4e-3, mask_rate=0.3,
    )
    steps_per_epoch = result.steps // config.epochs
    baseline = float(np.mean(result.losses[:100]))
    final_epoch = float(np.mean(result.losses[-steps_per_epoch:]))
    elapsed = time.monotonic() - started
    ok = final_epoch <= 0.5 * baseline and elapsed < 600.0
    announce(
        5,
        "desk pretraining",
        ok,
        f"baseline {baseline:.3f} -> final epoch {final_epoch:.3f}, {elapsed:.0f}s",
    )
    assert final_epoch <= 0.5 * baseline
    assert elapsed < 600.0


def test_criterion_6_overfit_gates():
    vocab = synthetic_vocab()
    results = {}

    encoder = test_classifiers.pretrained_encoder()
    dataset = synthetic_dataset(n_per_class=22, seed=1)[:64]
    model = train_finetune(
        encoder, vocab, dataset,
        TrainConfig(epochs=20, max_len=10, learning_rate=1e-3, batch_size=8, seed=0),
    )
    results["finetune"] = train_accuracy(model, vocab, dataset)

    frozen_ok = True
    for task, train_fn, kwargs, gate in (
        ("mlp", train_mlp, {"hidden_sizes": (64, 32)}, 0.95),
        ("bilstm", train_bilstm, {"lstm_hidden": 24}, 0.90),
    ):
        encoder = test_classifiers.pretrained_encoder()
        before = {p.name: p.data.copy() for p in encoder.params}
        dataset = synthetic_dataset(n_per_class=22, seed=2)[:64]
        model = train_fn(
            encoder, vocab, dataset,
            TrainConfig(epochs=40, max_len=10, learning_rate=1e-2, batch_size=8, seed=0),
            **kwargs,
        )
        results[task] = train_accuracy(model, vocab, dataset)
        for p in encoder.params:
            if not np.array_equal(before[p.name], p.data):
                frozen_ok = False

    ok = (
        results["finetune"] >= 0.95
        and results["mlp"] >= 0.95
        and results["bilstm"] >= 0.90
        and frozen_ok
    )
    announce(
        6,
        "overfit gates",
        ok,
        f"finetune {results['finetune']:.2f}, mlp {results['mlp']:.2f}, "
        f"bilstm {results['bilstm']:.2f}, frozen={frozen_ok}",
    )
    assert results["finetune"] >= 0.95
    assert results["mlp"] >= 0.95
    assert results["bilstm"] >= 0.90
    assert frozen_ok


def test_criterion_7_metrics():
    rng = random.Random(42)
    labels = ["positive", "negative", "neutral"]
    truths = [rng.choice(labels) for _ in range(1000)]
    preds = [rng.choice(labels) for _ in range(1000)]
    rep = report(confusion(truths, preds, labels))

    recount_ok = True
    for label in labels:
        tp = sum(1 for t, p in zip(truths, preds) if t == label and p == label)
        fp = sum(1 for t, p in zip(truths, preds) if t != label and p == label)
        fn = sum(1 for t, p in zip(truths, preds) if t == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        got = rep.per_class[label]
        if (
            abs(got.precision - precision) > 1e-12
            or abs(got.recall - recall) > 1e-12
            or abs(got.f1 - f1) > 1e-12
        ):
            recount_ok = False
    accuracy = sum(1 for t, p in zip(truths, preds) if t == p) / 1000
    recount_ok = recount_ok and abs(rep.accuracy - accuracy) <= 1e-12

    micro_ok = abs(rep.micro_f1 - rep.accuracy) <= 1e-12

    worked = report(
        ConfusionMatrix(counts=((40, 20), (10, 30)), labels=("positive", "negative"))
    )
    pos = worked.per_class["positive"]
    worked_ok = (
        abs(worked.accuracy - 0.70) < 1e-12
        and abs(pos.precision - 0.80) < 1e-12
        and abs(pos.recall - 2 / 3) < 1e-12
        and abs(pos.recall - 0.6667) < 5e-5
        and abs(pos.f1 - 8 / 11) < 1e-12
        and abs(pos.f1 - 0.7273) < 5e-5
    )
    ok = recount_ok and micro_ok and worked_ok
    announce(
        7,
        "metrics",
        ok,
        f"recount={recount_ok}, micro==accuracy={micro_ok}, worked example={worked_ok}",
    )
    assert recount_ok
    assert micro_ok
    assert worked_ok


def test_criterion_8_configuration_fidelity(tmp_path):
    fidelity = []
    vocab_pieces = list(SPECIAL_TOKENS) + [f"t{i}" for i in range(50_000 - 5)]
    big_vocab = Vocab(pieces=vocab_pieces)
    rng = np.random.default_rng(5)
    lines = [
        " ".join(rng.choice(vocab_pieces[5:200], size=8)) for _ in range(180)
    ]
    for name in ("model1", "model2", "model3", "model4"):
        # the iteration cap (10) binds before the epoch bound does
        config = preset_config(name, iterations=10, epochs=2)
        counted = count_params(config)
        enumerated = sum(int(np.prod(s)) for s in expected_shapes(config).values())
        model = build_model(config, seed=0)
        built = model.n_values()
        result = pretrain(
            model, lines, big_vocab, config, seed=0,
            checkpoint_dir=str(tmp_path / name), max_len=16, learning_rate=1e-4, log_every=5,
        )
        ok = counted == enumerated == built and result.steps == 10 and all(
            np.isfinite(x) for x in result.losses
        )
        fidelity.append((name, ok, counted))
        del model
        del result

    data = tmp_path / "labeled.tsv"
    rows = (
        [f"good{i % 4} good{(i + 1) % 4}\tpositive" for i in range(12)]
        + [f"bad{i % 4}\tnegative" for i in range(7)]
        + [f"meh{i % 4}\tneutral" for i in range(5)]
    )
    data.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
    binary = tmp_path / "binary.tsv"
    balanced = tmp_path / "balanced.tsv"
    assert main(["to-binary", "--in", str(data), "--out", str(binary)]) == 0
    assert main(["undersample", "--in", str(binary), "--out", str(balanced), "--seed", "3"]) == 0
    from kusent.corpus import load_labeled

    final = load_labeled(str(balanced))
    counts = {}
    for ex in final:
        counts[ex.label.value] = counts.get(ex.label.value, 0) + 1
    two_class_ok = set(counts) == {"positive", "negative"} and counts["positive"] == counts["negative"] == 7

    ok = all(f[1] for f in fidelity) and two_class_ok
    announce(
        8,
        "configuration fidelity",
        ok,
        ", ".join(f"{n}: {c:,} params" for n, okk, c in fidelity) + f"; 2-class {counts}",
    )
    for name, okk, _ in fidelity:
        assert okk, name
    assert two_class_ok


def _desk_run(root, tag):
    rng = np.random.default_rng(7)
    groups = [[f"g{k}_{i}" for i in range(4)] for k in range(3)]
    corpus = root / f"corpus_{tag}.txt"
    corpus.write_text(
        "".join(
            " ".join(rng.choice(groups[i % 3], size=int(rng.integers(3, 6)))) + "\n"
            for i in range(200)
        ),
        encoding="utf-8",
    )
    labels = ["positive", "negative", "neutral"]
    labeled = root / f"labeled_{tag}.tsv"
    labeled.write_text(
        "".join(
            " ".join(rng.choice(groups[c], size=3)) + f"\t{labels[c]}\n"
            for c in range(3)
            for _ in range(6)
        ),
        encoding="utf-8",
    )
    vocab = root / f"vocab_{tag}.txt"
    assert main(["train-tokenizer", "--in", str(corpus), "--vocab-size", "80", "--out", str(vocab)]) == 0
    from kusent.wordpiece import load_vocab

    cfg = root / f"cfg_{tag}.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "bert": {
            "hidden_size": 16,
            "num_hidden_layers": 1,
            "num_attention_heads": 2,
            "vocab_size": len(load_vocab(str(vocab))),
            "max_position": 16,
            "epochs": 2,
            "batch_szie": 16,
        },
        "pretrain": {"max_len": 10, "learning_rate": 1e-3},
        "train": {"epochs": 3, "max_len": 10, "learning_rate": 1e-2, "batch_size": 8},
    }))
    encoder = root / f"encoder_{tag}"
    model = root / f"model_{tag}"
    rep = root / f"report_{tag}.json"
    assert main(["pretrain", "--config", str(cfg), "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(encoder)]) == 0
    assert main(["train", "--task", "mlp", "--config", str(cfg), "--encoder", str(encoder),
                 "--data", str(labeled), "--vocab", str(vocab), "--out", str(model)]) == 0
    assert main(["evaluate", "--model", str(model), "--data", str(labeled), "--vocab", str(vocab), "--out", str(rep)]) == 0
    return encoder, model, rep


def test_criterion_9_determinism(tmp_path):
    def outputs(tag):
        """Every file the desk run writes, by its path relative to the run's output."""
        encoder, model, rep = _desk_run(tmp_path, tag)
        files = {f"{d.name[:-2]}/{p.relative_to(d)}": p
                 for d in (encoder, model) for p in d.rglob("*") if p.is_file()}
        files["vocab.txt"] = tmp_path / f"vocab_{tag}.txt"
        files["report.json"] = rep
        return files

    run_a, run_b = outputs("a"), outputs("b")
    names = sorted(run_a)
    same = [name in run_b and run_a[name].read_bytes() == run_b[name].read_bytes() for name in names]
    ok = all(same) and sorted(run_b) == names
    # the sha256 prefix of each artifact, so refactors can be checked byte for byte across trees
    ledger = ", ".join(
        f"{name} {hashlib.sha256(run_a[name].read_bytes()).hexdigest()[:16]}" for name in names
    )
    announce(9, "determinism", ok, f"{sum(same)}/{len(same)} artifacts byte-identical; {ledger}")
    assert ok


def test_head_determinism(tmp_path):
    """The bilstm and finetune heads, trained twice through the CLI on the desk run's encoder,
    give byte-identical artifacts and evaluate reports (criterion 9 trains only an mlp).

    The labeled set is the desk run's plus one row of 8 words, so its batch is padded wider
    than the batches without it (10 tokens against 5)."""
    encoder, _, _ = _desk_run(tmp_path, "a")
    labeled = tmp_path / "labeled_ragged.tsv"
    labeled.write_text(
        (tmp_path / "labeled_a.tsv").read_text(encoding="utf-8")
        + "g0_0 g0_1 g0_2 g0_3 g0_0 g0_1 g0_2 g0_3\tpositive\n",
        encoding="utf-8",
    )
    # the desk run's config and vocabulary, as _desk_run names them
    inputs = ["--config", str(tmp_path / "cfg_a.json"), "--vocab", str(tmp_path / "vocab_a.txt"),
              "--data", str(labeled)]

    def outputs(tag):
        """Every file each head's training and evaluation writes, by task and relative path."""
        files = {}
        for task in ("bilstm", "finetune"):
            model, rep = tmp_path / f"{task}_{tag}", tmp_path / f"{task}_report_{tag}.json"
            assert main(["train", "--task", task, "--encoder", str(encoder), "--out", str(model), *inputs]) == 0
            assert main(["evaluate", "--model", str(model), "--out", str(rep), *inputs]) == 0
            files.update({f"{task}/{p.relative_to(model)}": p for p in model.rglob("*") if p.is_file()})
            files[f"{task}/report.json"] = rep
        return files

    run_a, run_b = outputs("a"), outputs("b")
    names = sorted(run_a)
    same = [name in run_b and run_a[name].read_bytes() == run_b[name].read_bytes() for name in names]
    ok = all(same) and sorted(run_b) == names
    # the sha256 prefix of each artifact, so refactors can be checked byte for byte across trees
    ledger = ", ".join(
        f"{name} {hashlib.sha256(run_a[name].read_bytes()).hexdigest()[:16]}" for name in names
    )
    print(f"\nHEAD DETERMINISM: {'PASS' if ok else 'FAIL'} ({sum(same)}/{len(same)} artifacts "
          f"byte-identical; {ledger})")
    assert ok
