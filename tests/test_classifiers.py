import functools
import json
import tempfile

import numpy as np
import pytest

from kusent import autodiff as ad
from kusent.autodiff import Parameter, Tensor
from kusent.bert import BertConfig, build_model, forward, init_params, load_checkpoint, pretrain
from kusent.classifiers import (
    LABEL_ORDERS,
    TrainConfig,
    bilstm_summary,
    default_epochs,
    head_logits,
    head_shapes,
    init_model,
    load_sentiment_model,
    lstm_step,
    predict,
    predict_encoded,
    save_sentiment_model,
    train_bilstm,
    train_finetune,
    train_mlp,
)
from kusent.corpus import LabeledExample, SentimentLabel
from kusent.gradcheck import grad_check
from kusent.normalize import normalize_text
from kusent.wordpiece import SPECIAL_TOKENS, Vocab, encode, encode_batch

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
    a briefly pretrained encoder, matching the pipeline order.
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
            epochs=5,
            batch_size=16,
        )
        model = build_model(cfg, seed=8)
        _PRETRAIN_DIR = tempfile.mkdtemp(prefix="kusent-test-encoder-")
        pretrain(model, lines, vocab, cfg, seed=0, checkpoint_dir=_PRETRAIN_DIR,
                 max_len=10, lr=3e-3)
    return load_checkpoint(_PRETRAIN_DIR)[0]


def train_accuracy(model, vocab, dataset):
    hits = 0
    for ex in dataset:
        label, _ = predict(model, ex.text, vocab)
        hits += label is ex.label
    return hits / len(dataset)


class TestLstmCell:
    def test_step_matches_hand_equations(self):
        # 2-dim input, 2-dim hidden; every gate evaluated longhand with numpy
        rng = np.random.default_rng(3)
        gates = {}
        raw = {}
        for gate in ("input", "forget", "cell", "output"):
            w_x = rng.normal(size=(2, 2))
            w_h = rng.normal(size=(2, 2))
            b = rng.normal(size=(2,))
            raw[gate] = (w_x, w_h, b)
            gates[gate] = (
                Parameter(f"{gate}.w_x", w_x),
                Parameter(f"{gate}.w_h", w_h),
                Parameter(f"{gate}.b", b),
            )
        x = np.array([[0.3, -0.8]])
        h0 = np.array([[0.1, 0.2]])
        c0 = np.array([[-0.4, 0.5]])

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        i = sig(x @ raw["input"][0] + h0 @ raw["input"][1] + raw["input"][2])
        f = sig(x @ raw["forget"][0] + h0 @ raw["forget"][1] + raw["forget"][2])
        g = np.tanh(x @ raw["cell"][0] + h0 @ raw["cell"][1] + raw["cell"][2])
        o = sig(x @ raw["output"][0] + h0 @ raw["output"][1] + raw["output"][2])
        c_expected = f * c0 + i * g
        h_expected = o * np.tanh(c_expected)

        h_new, c_new = lstm_step(gates, Tensor(x), Tensor(h0), Tensor(c0))
        np.testing.assert_allclose(h_new.data, h_expected, atol=1e-6)
        np.testing.assert_allclose(c_new.data, c_expected, atol=1e-6)

    def test_single_timestep_sequence(self):
        rng = np.random.default_rng(1)
        head = init_params(head_shapes("bilstm", 4, 3, {"lstm_hidden": 3, "num_layers": 3}), rng, np.float64)
        by_name = {p.name: p for p in head}
        states = Tensor(rng.normal(size=(2, 1, 4)))
        mask = np.ones((2, 1), dtype=np.int64)
        summary = bilstm_summary(by_name, states, mask, 3, 3, 0.0, None, train=False)
        assert summary.shape == (2, 6)
        assert np.isfinite(summary.data).all()

    def test_pad_positions_do_not_leak(self):
        rng = np.random.default_rng(2)
        head = init_params(head_shapes("bilstm", 4, 3, {"lstm_hidden": 3, "num_layers": 2}), rng, np.float64)
        by_name = {p.name: p for p in head}
        real = rng.normal(size=(1, 3, 4))
        mask_short = np.ones((1, 3), dtype=np.int64)
        short = bilstm_summary(by_name, Tensor(real), mask_short, 2, 3, 0.0, None, False)
        padded = np.concatenate([real, rng.normal(size=(1, 2, 4)) * 50], axis=1)
        mask_padded = np.array([[1, 1, 1, 0, 0]])
        long = bilstm_summary(by_name, Tensor(padded), mask_padded, 2, 3, 0.0, None, False)
        np.testing.assert_allclose(short.data, long.data, atol=1e-12)


class TestGradChecks:
    def test_bilstm_layer(self):
        rng = np.random.default_rng(4)
        head = init_params(head_shapes("bilstm", 5, 3, {"lstm_hidden": 4, "num_layers": 1}), rng, np.float64)
        by_name = {p.name: p for p in head}
        states = Tensor(rng.normal(size=(2, 4, 5)))
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])
        targets = np.array([0, 2])

        def loss_fn():
            summary = bilstm_summary(by_name, states, mask, 1, 4, 0.0, None, False)
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
        ("learning_rate", -1.0, "learning_rate must be > 0, got -1.0"),
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
        # head is not in that path and must not
        for p in encoder.params:
            if p.name.startswith("mlm."):
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

    def test_degenerate_mlp_widths(self):
        vocab = synthetic_vocab()
        dataset = synthetic_dataset(n_per_class=3)
        encoder = tiny_encoder(seed=6)
        config = TrainConfig(epochs=1, max_len=10, learning_rate=1e-2)
        model = train_mlp(encoder, vocab, dataset, config, hidden_sizes=(1, 1))
        _, probs = predict(model, dataset[0].text, vocab)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert (probs >= 0).all()

    def test_default_epochs_schedule(self):
        assert default_epochs("finetune", 384) == 3
        assert default_epochs("mlp", 768) == 4
        assert default_epochs("bilstm", 384) == 3
        assert default_epochs("bilstm", 768) == 4


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
        seq, cls_state = forward(encoder, ids, masks)
        logits = head_logits(model, seq, cls_state, masks)
        ad.backward(ad.cross_entropy(logits, np.arange(len(ids)) % 3))
        shapes = head_shapes(kind, 8, 3, head_meta)
        assert [(p.name, p.data.shape) for p in model.head_params] == list(shapes.items())
        for p in model.head_params:
            assert np.any(p.grad != 0), p.name
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
