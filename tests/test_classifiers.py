import atexit
import dataclasses
import errno
import functools
import hashlib
import json
import os
import shutil
import tempfile
import weakref

import numpy as np
import pytest

from kusent import autodiff as ad
from kusent import bert, classifiers
from kusent.autodiff import Parameter, Tensor
from kusent.bert import (
    BertConfig, build_model, forward, init_params, load_checkpoint, pretrain, save_checkpoint, train_batches
)
from kusent.classifiers import (
    GATES,
    LABEL_ORDERS,
    TrainConfig,
    bilstm_summary,
    default_epochs,
    head_logits,
    head_shapes,
    init_model,
    load_sentiment_model,
    predict,
    predict_encoded,
    read_positions,
    save_sentiment_model,
    train_bilstm,
    train_finetune,
    train_mlp,
)
from kusent.corpus import LabeledExample, SentimentLabel
from kusent.normalize import normalize_text
from kusent.wordpiece import SPECIAL_TOKENS, Vocab, encode, encode_batch

from gradcheck import grad_check, gradients

CLASS_WORDS = {
    SentimentLabel.POSITIVE: [f"good{i}" for i in range(8)],
    SentimentLabel.NEGATIVE: [f"bad{i}" for i in range(8)],
    SentimentLabel.NEUTRAL: [f"meh{i}" for i in range(8)],
}


def synthetic_dataset(n_per_class=22, seed=0, classes=3):
    rng = np.random.default_rng(seed)
    labels = list(CLASS_WORDS)[:classes]
    examples = []
    for label in labels:
        words = CLASS_WORDS[label]
        for _ in range(n_per_class):
            text = " ".join(rng.choice(words, size=rng.integers(3, 7)))
            examples.append(LabeledExample(text=normalize_text(text), label=label))
    return examples


def synthetic_vocab():
    words = [w for group in CLASS_WORDS.values() for w in group]
    return Vocab(pieces=list(SPECIAL_TOKENS) + words)


def tiny_encoder(seed=0, hidden=32, dtype=np.float32):
    cfg = BertConfig(
        hidden_size=hidden,
        num_hidden_layers=2,
        num_attention_heads=4,
        vocab_size=len(synthetic_vocab()),
        max_position=16,
        dropout_rate=0.1,
    )
    return build_model(cfg, seed=seed, dtype=dtype)


_PRETRAIN_DIR = None


def pretrained_encoder():
    """Tiny encoder pretrained on a clustered synthetic corpus, fresh copy per call.

    A randomly initialized encoder emits a near-constant CLS state, so the
    frozen-feature heads have nothing to learn from; the overfit gates run on
    a briefly pretrained encoder, matching the pipeline order. The MLM loss of
    this encoder sits on a plateau until it learns to read the context, and
    only then do the frozen heads pass their gates. 20 epochs at lr 1e-3 leave
    the plateau for every one of 8 pretraining seeds tried, so the gates do not
    rest on one lucky dropout stream; 5 epochs at lr 3e-3 left it for 2 to 3
    of 8.
    """
    global _PRETRAIN_DIR
    if _PRETRAIN_DIR is None:
        vocab = synthetic_vocab()
        rng = np.random.default_rng(99)
        groups = list(CLASS_WORDS.values())
        lines = [
            " ".join(rng.choice(groups[i % 3], size=rng.integers(3, 7)))
            for i in range(1000)
        ]
        cfg = BertConfig(
            hidden_size=32,
            num_hidden_layers=2,
            num_attention_heads=4,
            vocab_size=len(vocab),
            max_position=16,
            epochs=20,
            batch_size=16,
        )
        model = build_model(cfg, seed=8)
        _PRETRAIN_DIR = tempfile.mkdtemp(prefix="kusent-test-encoder-")
        atexit.register(shutil.rmtree, _PRETRAIN_DIR, ignore_errors=True)
        pretrain(model, lines, vocab, cfg, seed=0, checkpoint_dir=_PRETRAIN_DIR,
                 max_len=10, learning_rate=1e-3)
    return load_checkpoint(_PRETRAIN_DIR)[0]


def train_accuracy(model, vocab, dataset):
    hits = 0
    for ex in dataset:
        label, _ = predict(model, ex.text, vocab)
        hits += label is ex.label
    return hits / len(dataset)


def lstm_step(gates, x, h, c):
    """Oracle: one step of the gated recurrence, one graph node per op."""

    def gate_pre(gate_name):
        w_x, w_h, b = gates[gate_name]
        return ad.add(ad.add(ad.matmul(x, w_x), ad.matmul(h, w_h)), b)

    i = ad.sigmoid(gate_pre("input"))
    f = ad.sigmoid(gate_pre("forget"))
    g = ad.tanh(gate_pre("cell"))
    o = ad.sigmoid(gate_pre("output"))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


def oracle_direction(gates, inputs, step_mask, d_h, reverse):
    """Oracle: one LSTM direction step by step; at a pad step the state carries over."""
    batch, dtype = inputs[0].shape[0], inputs[0].dtype
    h = Tensor(np.zeros((batch, d_h), dtype=dtype))
    c = Tensor(np.zeros((batch, d_h), dtype=dtype))
    outputs = {}
    for t in range(len(inputs) - 1, -1, -1) if reverse else range(len(inputs)):
        h_new, c_new = lstm_step(gates, inputs[t], h, c)
        m = step_mask[t]
        keep = Tensor(1.0 - m.data)
        h = ad.add(ad.mul(h_new, m), ad.mul(h, keep))
        c = ad.add(ad.mul(c_new, m), ad.mul(c, keep))
        outputs[t] = h
    return [outputs[t] for t in range(len(inputs))], h


def oracle_bilstm(by_name, states, attention_mask, num_layers, d_h, rate, rng):
    """Oracle for ``bilstm_summary``: (each layer's per-step outputs, the summary); it drops
    out when given ``rng``."""
    batch, seq_len, d_in = states.shape
    step_mask = [Tensor(attention_mask[:, t : t + 1].astype(states.dtype)) for t in range(seq_len)]
    inputs = [ad.reshape(ad.narrow(states, 1, t, 1), (batch, d_in)) for t in range(seq_len)]
    layers = []
    for layer in range(num_layers):
        def gates(direction):
            return {
                gate: tuple(by_name[f"lstm{layer}.{direction}.{gate}.{k}"] for k in ("w_x", "w_h", "b"))
                for gate in GATES
            }

        fwd_out, final_fwd = oracle_direction(gates("fwd"), inputs, step_mask, d_h, False)
        bwd_out, final_bwd = oracle_direction(gates("bwd"), inputs, step_mask, d_h, True)
        inputs = [ad.concat([f, b], axis=1) for f, b in zip(fwd_out, bwd_out)]
        layers.append(inputs)
        if layer < num_layers - 1:
            inputs = [ad.dropout(x, rate, rng) for x in inputs]
    summary = ad.concat([final_fwd, final_bwd], axis=1)
    return layers, ad.dropout(summary, rate, rng)


def layer_weights(by_name, layer):
    return [
        by_name[f"lstm{layer}.{direction}.{gate}.{kind}"]
        for direction in ("fwd", "bwd") for gate in GATES for kind in ("w_x", "w_h", "b")
    ]


def bilstm_case(seed, d_in, d_h, num_layers, dtype, lengths, seq_len):
    """A head's tensors by name, (B, T, d_in) states and a right-padded mask of ``lengths``."""
    rng = np.random.default_rng(seed)
    shapes = head_shapes("bilstm", d_in, 3, {"lstm_hidden": d_h, "num_layers": num_layers})
    by_name = {p.name: p for p in init_params(shapes, rng, dtype)}
    states = Parameter("states", rng.normal(size=(len(lengths), seq_len, d_in)).astype(dtype))
    mask = (np.arange(seq_len)[None, :] < np.array(lengths)[:, None]).astype(np.int64)
    return by_name, states, mask


class TestLstmCell:
    def test_step_matches_hand_equations(self):
        # 2-dim input, 2-dim hidden, one step from the zero state; every gate
        # of both directions evaluated longhand with numpy
        rng = np.random.default_rng(3)
        raw = {
            (direction, gate): (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=(2,)))
            for direction in ("fwd", "bwd") for gate in GATES
        }
        weights = [
            Parameter(f"{direction}.{gate}.{kind}", array)
            for (direction, gate), arrays in raw.items()
            for kind, array in zip(("w_x", "w_h", "b"), arrays)
        ]
        x = np.array([[0.3, -0.8]])
        h0 = np.zeros((1, 2))
        c0 = np.zeros((1, 2))

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        expected = []
        for direction in ("fwd", "bwd"):
            w = {gate: raw[direction, gate] for gate in GATES}
            i = sig(x @ w["input"][0] + h0 @ w["input"][1] + w["input"][2])
            f = sig(x @ w["forget"][0] + h0 @ w["forget"][1] + w["forget"][2])
            g = np.tanh(x @ w["cell"][0] + h0 @ w["cell"][1] + w["cell"][2])
            o = sig(x @ w["output"][0] + h0 @ w["output"][1] + w["output"][2])
            c_expected = f * c0 + i * g
            expected.append(o * np.tanh(c_expected))

        out = ad.lstm_layer(Tensor(x[None]), weights, np.ones((1, 1), dtype=np.int64), 2)
        assert out.shape == (1, 1, 4)
        np.testing.assert_allclose(out.data[0], np.concatenate(expected, axis=1), atol=1e-6)

    def test_single_timestep_sequence(self):
        rng = np.random.default_rng(1)
        head = init_params(head_shapes("bilstm", 4, 3, {"lstm_hidden": 3, "num_layers": 3}), rng, np.float64)
        by_name = {p.name: p for p in head}
        states = Tensor(rng.normal(size=(2, 1, 4)))
        mask = np.ones((2, 1), dtype=np.int64)
        summary = bilstm_summary(by_name, states, mask, 3, 3, 0.0, None)
        assert summary.shape == (2, 6)
        assert np.isfinite(summary.data).all()

    def test_pad_positions_do_not_leak(self):
        rng = np.random.default_rng(2)
        head = init_params(head_shapes("bilstm", 4, 3, {"lstm_hidden": 3, "num_layers": 2}), rng, np.float64)
        by_name = {p.name: p for p in head}
        real = rng.normal(size=(1, 3, 4))
        mask_short = np.ones((1, 3), dtype=np.int64)
        short = bilstm_summary(by_name, Tensor(real), mask_short, 2, 3, 0.0, None)
        padded = np.concatenate([real, rng.normal(size=(1, 2, 4)) * 50], axis=1)
        mask_padded = np.array([[1, 1, 1, 0, 0]])
        long = bilstm_summary(by_name, Tensor(padded), mask_padded, 2, 3, 0.0, None)
        np.testing.assert_allclose(short.data, long.data, atol=1e-12)


class TestLstmLayer:
    """``lstm_layer`` against the per-step oracle above."""

    def fused(self, by_name, states, mask, num_layers, d_h):
        """Each layer's (T, B, 2 d_h) output, chained as ``bilstm_summary`` chains them in eval mode."""
        x = ad.transpose(states, (1, 0, 2))
        layers = []
        for layer in range(num_layers):
            x = ad.lstm_layer(x, layer_weights(by_name, layer), mask, d_h)
            layers.append(x.data)
        return layers

    def test_float32_forward_bit_identical_on_padded_batch(self):
        by_name, states, mask = bilstm_case(30, 12, 8, 3, np.float32, [7, 3, 5, 1], 7)
        layers, summary = oracle_bilstm(by_name, states, mask, 3, 8, 0.0, None)
        for got, want in zip(self.fused(by_name, states, mask, 3, 8), layers):
            np.testing.assert_array_equal(got, np.stack([t.data for t in want]))
        got = bilstm_summary(by_name, states, mask, 3, 8, 0.0, None)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.data, summary.data)

    def test_float64_gradients_equal_oracle(self):
        by_name, states, mask = bilstm_case(31, 6, 5, 3, np.float64, [5, 2, 4], 5)
        weight = Tensor(np.random.default_rng(32).normal(size=(3, 10)))
        params = [states, *by_name.values()]

        def grads(summary_fn):
            for p in params:
                p.zero_grad()
            ad.backward(ad.reduce_sum(ad.mul(summary_fn(), weight)))
            return list(gradients(params).values())

        want = grads(lambda: oracle_bilstm(by_name, states, mask, 3, 5, 0.0, None)[1])
        got = grads(lambda: bilstm_summary(by_name, states, mask, 3, 5, 0.0, None))
        for p, g, w in zip(params, got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12, err_msg=p.name)
        assert np.any(got[0] != 0)

    def test_train_mode_dropout_equals_oracle(self):
        by_name, states, mask = bilstm_case(33, 12, 8, 3, np.float32, [6, 6, 2], 6)
        rng_a, rng_b = np.random.default_rng(34), np.random.default_rng(34)
        _, want = oracle_bilstm(by_name, states, mask, 3, 8, 0.3, rng_a)
        got = bilstm_summary(by_name, states, mask, 3, 8, 0.3, rng_b)
        np.testing.assert_array_equal(got.data, want.data)
        assert rng_a.random() == rng_b.random()

    def test_grad_check_padded_two_layers(self):
        by_name, states, mask = bilstm_case(35, 4, 3, 2, np.float64, [4, 2], 4)
        weight = Tensor(np.random.default_rng(36).normal(size=(4, 2, 6)))

        def loss_fn():
            out = ad.lstm_layer(ad.transpose(states, (1, 0, 2)), layer_weights(by_name, 0), mask, 3)
            out = ad.lstm_layer(out, layer_weights(by_name, 1), mask, 3)
            return ad.reduce_sum(ad.mul(out, weight))

        params = [states, *layer_weights(by_name, 0), *layer_weights(by_name, 1)]
        report = grad_check(loss_fn, params, tolerance=1e-6, max_elements_per_param=4)
        assert report.passed, str(report)

    def test_wrong_weight_count_rejected(self):
        by_name, states, mask = bilstm_case(37, 4, 3, 1, np.float64, [2], 2)
        with pytest.raises(ValueError, match="expected 24 weight tensors, got 23"):
            ad.lstm_layer(ad.transpose(states, (1, 0, 2)), layer_weights(by_name, 0)[:-1], mask, 3)


class TestGradChecks:
    def test_bilstm_layer(self):
        rng = np.random.default_rng(4)
        head = init_params(head_shapes("bilstm", 5, 3, {"lstm_hidden": 4, "num_layers": 1}), rng, np.float64)
        by_name = {p.name: p for p in head}
        states = Tensor(rng.normal(size=(2, 4, 5)))
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
        targets = np.array([0, 2])

        def loss_fn():
            summary = bilstm_summary(by_name, states, mask, 1, 4, 0.0, None)
            logits = ad.add(
                ad.matmul(summary, by_name["head.weight"]), by_name["head.bias"]
            )
            return ad.cross_entropy(logits, targets)

        report = grad_check(loss_fn, head, tolerance=1e-4, max_elements_per_param=6)
        assert report.passed, str(report)

    def test_mlp_head(self):
        # ReLU pre-activations must sit away from the kink or finite
        # differences cross it; the seed is chosen to leave a safe margin
        rng = np.random.default_rng(6)
        shapes = head_shapes("mlp", 6, 3, {"hidden_sizes": [8, 4]})
        head = [
            Parameter(name, rng.normal(scale=0.6, size=p.data.shape))
            for name, p in ((p.name, p) for p in init_params(shapes, rng, np.float64))
        ]
        by_name = {p.name: p for p in head}
        cls = Tensor(rng.normal(size=(5, 6)))
        targets = np.array([0, 1, 2, 1, 0])

        def pre_acts():
            a1 = cls.data @ by_name["head.w1"].data + by_name["head.b1"].data
            h1 = np.maximum(a1, 0)
            a2 = h1 @ by_name["head.w2"].data + by_name["head.b2"].data
            return a1, a2

        a1, a2 = pre_acts()
        margin = min(np.abs(a1).min(), np.abs(a2).min())
        assert margin > 0.02, f"bad seed for kink margin: {margin}"

        def loss_fn():
            x = ad.relu(ad.add(ad.matmul(cls, by_name["head.w1"]), by_name["head.b1"]))
            x = ad.relu(ad.add(ad.matmul(x, by_name["head.w2"]), by_name["head.b2"]))
            logits = ad.add(ad.matmul(x, by_name["head.w3"]), by_name["head.b3"])
            return ad.cross_entropy(logits, targets)

        report = grad_check(loss_fn, head, tolerance=1e-4, max_elements_per_param=8)
        assert report.passed, str(report)


class TestTrainingContracts:
    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("learning_rate", -1.0, "learning_rate must be > 0, got -1.0"),
        ("learning_rate", float("nan"), "learning_rate must be > 0, got nan"),
        ("learning_rate", float("inf"), "learning_rate must be > 0, got inf"),
        ("learning_rate", -float("inf"), "learning_rate must be > 0, got -inf"),
    ])
    def test_train_config_range_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(epochs=1, **{field: value})

    def test_finetune_updates_encoder(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        encoder = tiny_encoder(seed=1)
        before = {p.name: p.data.copy() for p in encoder.params}
        config = TrainConfig(epochs=1, max_len=10, learning_rate=1e-3, batch_size=8, seed=0)
        train_finetune(encoder, vocab, dataset, config)
        # all encoder tensors in the classifier loss path must move; the mlm
        # head and the K biases (softmax ignores them) are not in that path and must not
        for p in encoder.params:
            if p.name.startswith("mlm.") or p.name.endswith(".attn.k.bias"):
                np.testing.assert_array_equal(before[p.name], p.data)
            else:
                assert (before[p.name] != p.data).any(), p.name

    @pytest.mark.parametrize("train_fn", [train_bilstm, train_mlp])
    def test_frozen_heads_never_touch_encoder(self, train_fn):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        encoder = tiny_encoder(seed=2)
        before = {p.name: p.data.copy() for p in encoder.params}
        config = TrainConfig(epochs=2, max_len=10, learning_rate=1e-2, batch_size=8, seed=0)
        kwargs = {"lstm_hidden": 8} if train_fn is train_bilstm else {}
        train_fn(encoder, vocab, dataset, config, **kwargs)
        for p in encoder.params:
            np.testing.assert_array_equal(before[p.name], p.data)

    @pytest.mark.parametrize("train_fn", [train_finetune, train_mlp])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gradient_stops_before_adam(self, monkeypatch, train_fn, value):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        encoder = tiny_encoder(seed=2)
        config = TrainConfig(epochs=2, max_len=10, learning_rate=1e-2, batch_size=8, seed=0)
        real_backward, real_adam_step = bert.backward, bert.adam_step
        stepped = []

        def poisoned_backward(loss):
            real_backward(loss)
            if len(stepped) == 1:  # the second step's gradient
                stepped[0][0][0].grad.flat[0] = value

        def recording_adam_step(params, optimizer):
            real_adam_step(params, optimizer)
            stepped.append((params, [p.data.copy() for p in params]))

        # every step's backward and Adam step run in bert.train_step
        monkeypatch.setattr(bert, "backward", poisoned_backward)
        monkeypatch.setattr(bert, "adam_step", recording_adam_step)
        with pytest.raises(ValueError, match=r"^non-finite gradient norm at epoch 0, step 2$"):
            train_fn(encoder, vocab, dataset, config)
        params, after_first_step = stepped[0]
        assert len(stepped) == 1
        for p, data in zip(params, after_first_step):
            np.testing.assert_array_equal(p.data, data)

    @pytest.mark.parametrize("train_fn", [train_finetune, train_mlp])
    def test_non_finite_loss_stops_naming_epoch_and_step(self, train_fn):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        encoder = tiny_encoder(seed=2)
        encoder["layer0.attn.v.weight"].data[1, 5] = np.nan
        config = TrainConfig(epochs=2, max_len=10, learning_rate=1e-2, batch_size=8, seed=0)
        with pytest.raises(ValueError, match=r"non-finite training loss nan at epoch 0, step 1"):
            train_fn(encoder, vocab, dataset, config)

    def test_two_class_on_neutral_data_names_to_binary(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=3, classes=3)
        encoder = tiny_encoder(seed=3)
        config = TrainConfig(epochs=1, max_len=10, num_classes=2)
        with pytest.raises(ValueError, match="to_binary"):
            train_finetune(encoder, vocab, dataset, config)

    def test_empty_dataset_rejected(self):
        vocab = synthetic_vocab()
        encoder = tiny_encoder(seed=4)
        with pytest.raises(ValueError, match="empty"):
            train_mlp(encoder, vocab, [], TrainConfig(epochs=1, max_len=10))

    @pytest.mark.parametrize(
        "train",
        [
            train_finetune,
            functools.partial(train_bilstm, lstm_hidden=4, num_layers=1),
            train_mlp,
        ],
        ids=["finetune", "bilstm", "mlp"],
    )
    def test_same_seed_same_predictions(self, train):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        config = TrainConfig(epochs=2, max_len=10, learning_rate=1e-2, batch_size=8, seed=11)
        runs = []
        for _ in range(2):
            encoder = tiny_encoder(seed=5)
            model = train(encoder, vocab, dataset, config)
            probs = [predict(model, ex.text, vocab)[1] for ex in dataset[:10]]
            runs.append(np.array(probs))
        np.testing.assert_array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("use", ["mlp", "bilstm", "predict_encoded"])
    def test_frozen_use_leaves_the_loaded_encoder_without_gradients(self, tmp_path, use):
        save_checkpoint(str(tmp_path / "encoder"), tiny_encoder(seed=16))
        encoder = load_checkpoint(str(tmp_path / "encoder"))[0]
        vocab, dataset = synthetic_vocab(), synthetic_dataset(n_per_class=4)
        config = TrainConfig(epochs=1, max_len=10, batch_size=8)
        if use == "mlp":
            model = train_mlp(encoder, vocab, dataset, config, hidden_sizes=(8,))
        elif use == "bilstm":
            model = train_bilstm(encoder, vocab, dataset, config, lstm_hidden=4, num_layers=1)
        else:
            model = init_model("mlp", encoder, config, {"hidden_sizes": [8]})
            ids, masks = encode_batch([ex.text for ex in dataset], vocab, config.max_len)
            predict_encoded(model, ids, masks)
        # a trained head released its buffers in its last Adam step; a frozen encoder never had any
        assert all(p.grad is None for p in encoder.params + model.head_params)

    def test_degenerate_mlp_widths(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=3)
        encoder = tiny_encoder(seed=6)
        config = TrainConfig(epochs=1, max_len=10, learning_rate=1e-2)
        model = train_mlp(encoder, vocab, dataset, config, hidden_sizes=(1, 1))
        _, probs = predict(model, dataset[0].text, vocab)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert (probs >= 0).all()

    @pytest.mark.parametrize("path", ["frozen_features", "predict_encoded"])
    def test_eval_drops_each_chunk_before_the_next(self, monkeypatch, path):
        class Watched(Tensor):
            """A stand-in, weakly referenceable as every tensor, that keeps the returned tensor, and its
            graph, alive."""
            __slots__ = ("inner",)

        refs = []

        def watched_forward(*args, **kwargs):
            assert all(ref() is None for ref in refs), "the previous chunk's output is still alive"
            out = forward(*args, **kwargs)
            outputs = []
            # the CLS rows alone when the caller names them, else (states, CLS)
            for t in out if isinstance(out, tuple) else (out,):
                w = Watched(t.data)
                w.inner = t
                refs.append(weakref.ref(w))
                outputs.append(w)
            return tuple(outputs) if isinstance(out, tuple) else outputs[0]

        dataset = synthetic_dataset(n_per_class=12)  # 36 rows: two 32-row chunks
        config = TrainConfig(epochs=1, max_len=10)
        if path == "frozen_features":
            monkeypatch.setattr(classifiers, "forward", watched_forward)
            train_mlp(tiny_encoder(seed=7), synthetic_vocab(), dataset, config)
        else:
            model = init_model("mlp", tiny_encoder(seed=7), config, {"hidden_sizes": [4]})
            ids, masks = encode_batch([ex.text for ex in dataset], synthetic_vocab(), config.max_len)
            monkeypatch.setattr(classifiers, "forward", watched_forward)
            assert predict_encoded(model, ids, masks).shape == (36, 3)
        assert len(refs) == 2

    def test_default_epochs_schedule(self):
        assert default_epochs("finetune", 384) == 3
        assert default_epochs("mlp", 768) == 4
        assert default_epochs("bilstm", 384) == 3
        assert default_epochs("bilstm", 768) == 4


def ragged_dataset(max_len):
    """36 rows of 1-11 words plus one row longer than ``max_len``: ragged, and one row at ``max_len``."""
    rng = np.random.default_rng(14)
    words = [w for group in CLASS_WORDS.values() for w in group]
    labels = list(CLASS_WORDS)
    texts = [" ".join(rng.choice(words, size=rng.integers(1, 12))) for _ in range(36)]
    texts.insert(17, " ".join(rng.choice(words, size=max_len + 5)))
    return [LabeledExample(text=t, label=labels[i % 3]) for i, t in enumerate(texts)]


def padded_oracle_states(encoder, ids, masks):
    """The dataset's (rows, T, H) eval-mode states, 32-row chunk by chunk, as frozen heads kept them."""
    return np.concatenate([forward(encoder, ids[s : s + 32], masks[s : s + 32])[0].data
                           for s in range(0, len(ids), 32)])


def cls_oracle_states(encoder, ids, masks):
    """The dataset's (rows, H) eval-mode CLS states, 32-row chunk by chunk, each chunk's last
    layer run on its CLS rows only, as the mlp head keeps them."""
    return np.concatenate([forward(encoder, ids[s : s + 32], masks[s : s + 32],
                                   positions=np.arange(len(ids[s : s + 32])) * ids.shape[1]).data
                           for s in range(0, len(ids), 32)])


class TestGraphFreeEvaluation:
    """Evaluation and frozen features run without a graph; every training step records one."""

    @staticmethod
    def _graph_nodes(monkeypatch):
        """A list that gets, for each op run from here on, whether it recorded a backward rule."""
        made = []
        real = ad._record

        def counting(data, inputs, rule):
            out = real(data, inputs, rule)
            made.append(out._node is not None)
            return out

        monkeypatch.setattr(ad, "_record", counting)
        return made

    @staticmethod
    def _graph_checked_backward(monkeypatch, module):
        """A list that gets each loss ``module`` runs backward on, once checked to carry a graph."""
        steps = []

        def checked_backward(loss):
            assert ad._GRAD_ENABLED.get() and loss._node is not None
            steps.append(loss)
            ad.backward(loss)

        monkeypatch.setattr(module, "backward", checked_backward)
        return steps

    @pytest.mark.parametrize("kind, head_meta", [
        ("finetune", {}), ("bilstm", {"lstm_hidden": 4, "num_layers": 2}), ("mlp", {"hidden_sizes": [8, 4]}),
    ])
    def test_predict_encoded_records_no_graph(self, monkeypatch, kind, head_meta):
        model = init_model(kind, tiny_encoder(seed=8), TrainConfig(epochs=1, max_len=12), head_meta)
        ids, masks = encode_batch([ex.text for ex in ragged_dataset(12)], synthetic_vocab(), 12)
        made = self._graph_nodes(monkeypatch)
        probs = predict_encoded(model, ids, masks)
        assert made and not any(made)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
        made.clear()
        forward(model.encoder, ids, masks)  # outside evaluation, ops record again
        assert all(made)

    @pytest.mark.parametrize("kind, head_meta", [
        ("finetune", {}), ("bilstm", {"lstm_hidden": 4, "num_layers": 1}), ("mlp", {"hidden_sizes": [8]}),
    ])
    def test_predict_encoded_runs_the_encoder_in_chunks(self, monkeypatch, kind, head_meta):
        model = init_model(kind, tiny_encoder(seed=15), TrainConfig(epochs=1, max_len=12), head_meta)
        texts = [ex.text for ex in ragged_dataset(12)]
        ids, masks = encode_batch((texts * 2)[:70], synthetic_vocab(), 12)
        want = np.concatenate([predict_encoded(model, ids[s : s + 32], masks[s : s + 32])
                               for s in range(0, 70, 32)])
        sizes = []

        def counted_forward(encoder, chunk_ids, *args, **kwargs):
            sizes.append(len(chunk_ids))
            return forward(encoder, chunk_ids, *args, **kwargs)

        monkeypatch.setattr(classifiers, "forward", counted_forward)
        got = predict_encoded(model, ids, masks)
        assert sizes == [32, 32, 6]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, head_meta", [
        ("finetune", {}), ("bilstm", {"lstm_hidden": 4, "num_layers": 2}),
    ])
    def test_predict_encoded_equals_the_head_on_the_encoders_states(self, kind, head_meta):
        """Byte for byte: the bilstm head over the full forward's padded states, and the
        finetune head over the CLS rows of a forward asked for those rows, 32 rows a forward."""
        model = init_model(kind, tiny_encoder(seed=17), TrainConfig(epochs=1, max_len=16), head_meta)
        texts = [ex.text for ex in ragged_dataset(16)]
        ids, masks = encode_batch((texts * 2)[:70], synthetic_vocab(), 16)
        assert masks.sum(axis=1).min() < ids.shape[1] == 16
        by_name, want = model.head_by_name, []
        with ad.no_grad():
            for s in range(0, 70, 32):
                chunk_ids, chunk_masks = ids[s : s + 32], masks[s : s + 32]
                if kind == "bilstm":
                    states = forward(model.encoder, chunk_ids, chunk_masks)[0]
                    x = bilstm_summary(by_name, states, chunk_masks, 2, 4, model.train_config.dropout_rate,
                                       None)
                else:
                    x = forward(model.encoder, chunk_ids, chunk_masks,
                                positions=np.arange(len(chunk_ids)) * ids.shape[1])
                want.append(ad.softmax(ad.matmul(x, by_name["head.weight"], by_name["head.bias"])).data)
        want = np.concatenate(want)
        got = predict_encoded(model, ids, masks)
        assert got.dtype == want.dtype and got.shape == (70, 3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["bilstm", "mlp"])
    def test_frozen_features_record_no_graph(self, monkeypatch, kind):
        ids, masks = encode_batch([ex.text for ex in ragged_dataset(12)], synthetic_vocab(), 12)
        made = self._graph_nodes(monkeypatch)
        classifiers._frozen_features(tiny_encoder(seed=9), ids, masks, kind)
        assert made and not any(made)

    @pytest.mark.parametrize("train", [
        train_finetune, functools.partial(train_bilstm, lstm_hidden=4, num_layers=2), train_mlp,
    ], ids=["finetune", "bilstm", "mlp"])
    def test_every_training_step_records_a_graph(self, monkeypatch, train):
        steps = self._graph_checked_backward(monkeypatch, bert)  # the step runs in bert.train_step
        config = TrainConfig(epochs=2, max_len=10, learning_rate=1e-2, batch_size=8, seed=0)
        train(tiny_encoder(seed=10), synthetic_vocab(), synthetic_dataset(n_per_class=4), config)
        assert len(steps) == 2 * 2  # 12 rows in batches of 8, two epochs

    def test_every_pretraining_step_records_a_graph(self, monkeypatch, tmp_path):
        steps = self._graph_checked_backward(monkeypatch, bert)
        encoder = tiny_encoder(seed=11)
        lines = [ex.text for ex in synthetic_dataset(n_per_class=4)]
        config = dataclasses.replace(encoder.config, epochs=2, batch_size=8)
        pretrain(encoder, lines, synthetic_vocab(), config, seed=0, checkpoint_dir=str(tmp_path), max_len=10)
        assert len(steps) == 2 * 2


class TestPackedFeatures:
    """Frozen heads keep only what they read, and the bilstm head still gets the padded batches."""

    MAX_LEN = 16

    @pytest.mark.parametrize("kind, train", [
        ("bilstm", functools.partial(train_bilstm, lstm_hidden=4, num_layers=1)), ("mlp", train_mlp),
    ])
    def test_head_batches_equal_the_padded_states(self, monkeypatch, kind, train):
        encoder, vocab, dataset = tiny_encoder(seed=12), synthetic_vocab(), ragged_dataset(self.MAX_LEN)
        config = TrainConfig(epochs=2, max_len=self.MAX_LEN, learning_rate=1e-2, batch_size=8, seed=3)
        ids, masks = encode_batch([ex.text for ex in dataset], vocab, self.MAX_LEN)
        assert ids.shape[1] == self.MAX_LEN and masks.sum(axis=1).min() < self.MAX_LEN
        received = []
        if kind == "bilstm":
            # the bilstm head's input once its reads are scattered back into the padded layout
            want = padded_oracle_states(encoder, ids, masks)

            def recording_summary(by_name, states, *args, **kwargs):
                received.append(states)
                return bilstm_summary(by_name, states, *args, **kwargs)

            monkeypatch.setattr(classifiers, "bilstm_summary", recording_summary)
        else:
            want = cls_oracle_states(encoder, ids, masks)

            def recording_head_logits(model, reads, *args, **kwargs):
                received.append(reads)
                return head_logits(model, reads, *args, **kwargs)

            monkeypatch.setattr(classifiers, "head_logits", recording_head_logits)
        train(encoder, vocab, dataset, config)
        picks = [pick for *_, pick, _ in train_batches(len(dataset), 8, 3, 0, 2 * -(-len(dataset) // 8))]
        assert len(received) == len(picks) == 10
        for got, pick in zip(received, picks):
            assert got.dtype == want.dtype and got.shape == want[pick].shape
            assert got.data.tobytes() == want[pick].tobytes()

    def test_layouts_store_what_the_head_reads(self):
        encoder, vocab = tiny_encoder(seed=13), synthetic_vocab()
        ids, masks = encode_batch([ex.text for ex in ragged_dataset(self.MAX_LEN)], vocab, self.MAX_LEN)
        states = padded_oracle_states(encoder, ids, masks)
        hidden = encoder.config.hidden_size
        cls = classifiers._frozen_features(encoder, ids, masks, "mlp")
        assert cls.shape == (len(ids), hidden)
        assert cls.tobytes() == cls_oracle_states(encoder, ids, masks).tobytes()
        packed = classifiers._frozen_features(encoder, ids, masks, "bilstm")
        assert packed.shape == (int(masks.sum()), hidden)
        assert packed.tobytes() == states[masks != 0].tobytes()

    def test_cls_features_equal_the_full_forwards_cls_rows(self):
        # the CLS-only last layer gives the full forward's CLS states to float32 rounding, not
        # bit for bit: its GEMMs of one row a sequence may sum in another order
        encoder, vocab = tiny_encoder(seed=16), synthetic_vocab()
        ids, masks = encode_batch([ex.text for ex in ragged_dataset(self.MAX_LEN)], vocab, self.MAX_LEN)
        cls = classifiers._frozen_features(encoder, ids, masks, "mlp")
        full_cls = padded_oracle_states(encoder, ids, masks)[:, 0]
        np.testing.assert_allclose(cls, full_cls, rtol=0, atol=1e-5)


class TestOverfitGates:
    def test_finetune_overfits(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=22, seed=1)[:64]
        encoder = tiny_encoder(seed=7)
        config = TrainConfig(
            epochs=20, max_len=10, learning_rate=1e-3, batch_size=8, seed=0
        )
        model = train_finetune(encoder, vocab, dataset, config)
        assert train_accuracy(model, vocab, dataset) >= 0.95

    def test_mlp_overfits(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=22, seed=2)[:64]
        encoder = pretrained_encoder()
        config = TrainConfig(
            epochs=40, max_len=10, learning_rate=1e-2, batch_size=8, seed=0
        )
        model = train_mlp(encoder, vocab, dataset, config, hidden_sizes=(64, 32))
        assert train_accuracy(model, vocab, dataset) >= 0.95

    def test_bilstm_overfits(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=22, seed=3)[:64]
        encoder = pretrained_encoder()
        config = TrainConfig(
            epochs=30, max_len=10, learning_rate=1e-2, batch_size=8, seed=0
        )
        model = train_bilstm(encoder, vocab, dataset, config, lstm_hidden=24)
        assert train_accuracy(model, vocab, dataset) >= 0.90


class TestPredict:
    def trained_model(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        encoder = tiny_encoder(seed=10)
        config = TrainConfig(epochs=1, max_len=10, learning_rate=1e-2, batch_size=8)
        return train_mlp(encoder, vocab, dataset, config), vocab

    def test_empty_string_is_valid_input(self):
        model, vocab = self.trained_model()
        label, probs = predict(model, "", vocab)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert label in model.labels

    def test_probabilities_sum_to_one(self):
        model, vocab = self.trained_model()
        rng = np.random.default_rng(0)
        words = [w for group in CLASS_WORDS.values() for w in group] + ["zzz", "??"]
        for _ in range(100):
            text = " ".join(rng.choice(words, size=rng.integers(0, 8)))
            _, probs = predict(model, text, vocab)
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_repeated_predict_identical(self):
        model, vocab = self.trained_model()
        a = predict(model, "good1 good2", vocab)[1]
        b = predict(model, "good1 good2", vocab)[1]
        np.testing.assert_array_equal(a, b)

    def test_argmax_tie_breaks_to_lowest_index(self):
        model, vocab = self.trained_model()
        # force a tie by hand
        probs = np.array([0.4, 0.4, 0.2])
        assert int(np.argmax(probs)) == 0


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        encoder = tiny_encoder(seed=11)
        config = TrainConfig(epochs=1, max_len=10, learning_rate=1e-2, batch_size=8)
        model = train_bilstm(encoder, vocab, dataset, config, lstm_hidden=8)
        save_sentiment_model(model, str(tmp_path / "model"))
        loaded = load_sentiment_model(str(tmp_path / "model"))
        assert loaded.head_kind == "bilstm"
        assert loaded.labels == model.labels
        for a, b in zip(model.head_params, loaded.head_params):
            assert a.name == b.name
            np.testing.assert_array_equal(a.data, b.data)
        text = dataset[0].text
        np.testing.assert_array_equal(
            predict(model, text, vocab)[1], predict(loaded, text, vocab)[1]
        )

    @pytest.mark.parametrize("key", ["num_layers", "lstm_hidden"])
    def test_bilstm_head_meta_missing_key_named(self, tmp_path, key):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=2)
        config = TrainConfig(epochs=1, max_len=10, batch_size=8)
        model = train_bilstm(tiny_encoder(seed=11), vocab, dataset, config, lstm_hidden=4, num_layers=1)
        save_sentiment_model(model, str(tmp_path / "model"))
        path = tmp_path / "model" / "head_config.json"
        meta = json.loads(path.read_text())
        del meta["head_meta"][key]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"head_config.json: head_meta is missing key '{key}'"):
            load_sentiment_model(str(tmp_path / "model"))

    @pytest.mark.parametrize("num_layers", [10**30, 2])
    def test_bilstm_layer_count_beyond_the_blob_rejected_before_the_shape_table(self, tmp_path, num_layers):
        # one layer of 24 tensors and the linear layer's 2: two layers need more than 26
        config = TrainConfig(epochs=1, max_len=10, batch_size=8)
        model = train_bilstm(tiny_encoder(seed=11), synthetic_vocab(), synthetic_dataset(n_per_class=2),
                             config, lstm_hidden=4, num_layers=1)
        save_sentiment_model(model, str(tmp_path / "model"))
        path = tmp_path / "model" / "head_config.json"
        meta = json.loads(path.read_text())
        meta["head_meta"]["num_layers"] = num_layers
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"head_config.json: head_meta key 'num_layers' {num_layers} needs "
                                             r"more tensors than the 26 in .*head.bin"):
            load_sentiment_model(str(tmp_path / "model"))

    @pytest.mark.parametrize("max_len", [17, 10**30])
    def test_max_len_beyond_the_encoders_positions_rejected(self, tmp_path, max_len):
        # the training rule: tiny_encoder has 16 positions
        config = TrainConfig(epochs=1, max_len=10)
        model = train_mlp(tiny_encoder(seed=12), synthetic_vocab(), synthetic_dataset(n_per_class=2), config,
                          hidden_sizes=(4,))
        save_sentiment_model(model, str(tmp_path / "model"))
        path = tmp_path / "model" / "head_config.json"
        meta = json.loads(path.read_text())
        meta["train_config"]["max_len"] = max_len
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"head_config.json: train_config key 'max_len' must be <= the "
                                             rf"encoder's max_position 16, got {max_len}"):
            load_sentiment_model(str(tmp_path / "model"))

    @pytest.mark.parametrize("section, key, value, message", [
        ("train_config", "num_classes", 2, r"head.bin: tensor 'head.w3' has shape \(4, 3\), expected \(4, 2\)"),
        ("head_meta", "hidden_sizes", [4, 4, 4], "head.bin: no tensor 'head.w4'"),
    ])
    def test_head_not_matching_its_config_rejected(self, tmp_path, section, key, value, message):
        config = TrainConfig(epochs=1, max_len=10)
        dataset = synthetic_dataset(n_per_class=2)
        model = train_mlp(tiny_encoder(seed=12), synthetic_vocab(), dataset, config, hidden_sizes=(4, 4))
        save_sentiment_model(model, str(tmp_path / "model"))
        path = tmp_path / "model" / "head_config.json"
        meta = json.loads(path.read_text())
        meta[section][key] = value
        path.write_text(json.dumps(meta))
        labels = [label.value for label in LABEL_ORDERS[meta["train_config"]["num_classes"]]]
        (tmp_path / "model" / "labels.json").write_text(json.dumps(labels))
        with pytest.raises(ValueError, match=message):
            load_sentiment_model(str(tmp_path / "model"))

    def test_width_mismatch_rejected(self, tmp_path):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        encoder = tiny_encoder(seed=12, hidden=32)
        config = TrainConfig(epochs=1, max_len=10)
        model = train_mlp(encoder, vocab, dataset, config, hidden_sizes=(4, 4))
        save_sentiment_model(model, str(tmp_path / "model"))
        # swap in an encoder of a different width
        other = tiny_encoder(seed=13, hidden=16)
        from kusent.bert import save_checkpoint

        save_checkpoint(str(tmp_path / "model" / "encoder"), other)
        with pytest.raises(ValueError, match=r"head.bin: tensor 'head.w1' has shape \(32, 4\), expected \(16, 4\)"):
            load_sentiment_model(str(tmp_path / "model"))

    @pytest.mark.parametrize("kind, head_meta", [
        ("finetune", {}),
        ("mlp", {"hidden_sizes": [5, 4]}),
        ("bilstm", {"lstm_hidden": 3, "num_layers": 2}),
    ])
    def test_layout_is_what_the_head_computes_with(self, tmp_path, kind, head_meta):
        """Every tensor head_shapes names gets a gradient, and a reload keeps the layout's order."""
        encoder = tiny_encoder(seed=15, hidden=8, dtype=np.float64)
        config = TrainConfig(epochs=1, max_len=10)
        model = init_model(kind, encoder, config, head_meta)
        texts = [ex.text for ex in synthetic_dataset(n_per_class=2)]
        ids, masks = encode_batch(texts, synthetic_vocab(), config.max_len)
        reads = forward(encoder, ids, masks, positions=read_positions(masks, kind))
        logits = head_logits(model, reads, masks)
        ad.backward(ad.cross_entropy(logits, np.arange(len(ids)) % 3))
        shapes = head_shapes(kind, 8, 3, head_meta)
        assert [(p.name, p.data.shape) for p in model.head_params] == list(shapes.items())
        for p in model.head_params:
            assert p.grad is not None and p.grad.any(), p.name
        save_sentiment_model(model, str(tmp_path / "model"))
        loaded = load_sentiment_model(str(tmp_path / "model"))
        assert [p.name for p in loaded.head_params] == list(shapes)

    @pytest.mark.parametrize("kind, head_meta, key", [
        ("bilstm", {"lstm_hidden": 0, "num_layers": 1}, "lstm_hidden"),
        ("bilstm", {"lstm_hidden": 4, "num_layers": 0}, "num_layers"),
        ("mlp", {"hidden_sizes": [4, 0]}, "hidden_sizes"),
    ])
    def test_head_width_below_one_named(self, kind, head_meta, key):
        with pytest.raises(ValueError, match=f"head_meta key '{key}' must be >= 1"):
            head_shapes(kind, 8, 3, head_meta)

    def test_losses_finite(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=4)
        encoder = tiny_encoder(seed=14)
        config = TrainConfig(epochs=2, max_len=10, learning_rate=1e-2, batch_size=8)
        model = train_mlp(encoder, vocab, dataset, config)
        assert model.train_losses
        assert all(np.isfinite(x) for x in model.train_losses)


def file_hashes(directory):
    """Relative path -> sha256 of every file under ``directory``."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def loaded_encoder(directory):
    """A tiny encoder saved as a checkpoint in ``directory`` and loaded back from it."""
    save_checkpoint(str(directory), tiny_encoder(seed=21))
    return load_checkpoint(str(directory))[0]


def no_link(src, dst, **kwargs):
    raise OSError(errno.EXDEV, "Invalid cross-device link", src, None, dst)


LINK_CONFIG = TrainConfig(epochs=1, max_len=10, learning_rate=1e-2, batch_size=8, seed=0)
FROZEN_TRAINERS = {"bilstm": functools.partial(train_bilstm, lstm_hidden=8), "mlp": train_mlp}


class TestLinkedEncoder:
    """A frozen head's saved model shares the encoder's ``params.bin`` with the checkpoint
    the encoder was loaded from, and holds the bytes a full write would give."""

    @pytest.mark.parametrize("kind", ["bilstm", "mlp"])
    def test_frozen_head_links_the_source_params(self, tmp_path, monkeypatch, kind):
        encoder = loaded_encoder(tmp_path / "src")
        dataset = synthetic_dataset(n_per_class=4)
        model = FROZEN_TRAINERS[kind](encoder, synthetic_vocab(), dataset, LINK_CONFIG)
        save_sentiment_model(model, str(tmp_path / "linked"))
        source = os.stat(tmp_path / "src" / "params.bin")
        assert os.stat(tmp_path / "linked" / "encoder" / "params.bin").st_ino == source.st_ino
        # the link-free path is the plain write of every file
        monkeypatch.setattr(os, "link", no_link)
        save_sentiment_model(model, str(tmp_path / "written"))
        assert os.stat(tmp_path / "written" / "encoder" / "params.bin").st_ino != source.st_ino
        assert file_hashes(tmp_path / "linked") == file_hashes(tmp_path / "written")
        source_files = file_hashes(tmp_path / "src")
        assert {f"encoder/{name}": digest for name, digest in source_files.items()}.items() <= (
            file_hashes(tmp_path / "linked").items())

    def test_link_failure_writes_a_full_copy(self, tmp_path, monkeypatch):
        encoder = loaded_encoder(tmp_path / "src")
        model = train_mlp(encoder, synthetic_vocab(), synthetic_dataset(n_per_class=4), LINK_CONFIG)
        monkeypatch.setattr(os, "link", no_link)
        save_sentiment_model(model, str(tmp_path / "model"))
        source, saved = tmp_path / "src" / "params.bin", tmp_path / "model" / "encoder" / "params.bin"
        assert saved.read_bytes() == source.read_bytes()
        assert os.stat(saved).st_ino != os.stat(source).st_ino
        assert os.stat(source).st_nlink == 1
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_finetune_head_writes_its_own_params(self, tmp_path):
        encoder = loaded_encoder(tmp_path / "src")
        source = tmp_path / "src" / "params.bin"
        before = source.read_bytes()
        model = train_finetune(encoder, synthetic_vocab(), synthetic_dataset(n_per_class=4), LINK_CONFIG)
        save_sentiment_model(model, str(tmp_path / "model"))
        saved = tmp_path / "model" / "encoder" / "params.bin"
        assert os.stat(saved).st_ino != os.stat(source).st_ino
        assert source.read_bytes() == before
        assert saved.read_bytes() != before
        for p, lp in zip(encoder.params, load_sentiment_model(str(tmp_path / "model")).encoder.params):
            np.testing.assert_array_equal(p.data, lp.data)

    def test_saving_onto_the_linked_file_writes_nothing(self, tmp_path, monkeypatch):
        encoder = loaded_encoder(tmp_path / "src")
        model = train_mlp(encoder, synthetic_vocab(), synthetic_dataset(n_per_class=4), LINK_CONFIG)
        save_sentiment_model(model, str(tmp_path / "model"))
        links = []
        real_link = os.link

        def recording_link(*args, **kwargs):
            links.append(args)
            return real_link(*args, **kwargs)

        monkeypatch.setattr(os, "link", recording_link)
        save_sentiment_model(model, str(tmp_path / "model"))
        save_checkpoint(str(tmp_path / "src"), encoder)
        assert links == []
        assert not list(tmp_path.rglob(".tmp-*"))
        inodes = {os.stat(path).st_ino for path in tmp_path.rglob("params.bin")}
        assert len(inodes) == 1

    def test_pretraining_into_the_source_leaves_the_head_model(self, tmp_path):
        vocab, dataset = synthetic_vocab(), synthetic_dataset(n_per_class=4)
        lines = [ex.text for ex in dataset]
        config = tiny_encoder().config
        src = str(tmp_path / "src")
        pretrain(build_model(config, seed=1), lines, vocab, config, seed=0, checkpoint_dir=src, max_len=10)
        model = train_mlp(load_checkpoint(src)[0], vocab, dataset, LINK_CONFIG)
        save_sentiment_model(model, str(tmp_path / "model"))
        saved = tmp_path / "model" / "encoder" / "params.bin"
        saved_bytes = saved.read_bytes()
        ids, masks = encode_batch(lines, vocab, 10)
        before = predict_encoded(load_sentiment_model(str(tmp_path / "model")), ids, masks)
        pretrain(build_model(config, seed=2), lines, vocab, config, seed=0, checkpoint_dir=src, max_len=10)
        assert (tmp_path / "src" / "params.bin").read_bytes() != saved_bytes
        assert saved.read_bytes() == saved_bytes
        after = predict_encoded(load_sentiment_model(str(tmp_path / "model")), ids, masks)
        np.testing.assert_array_equal(after, before)
