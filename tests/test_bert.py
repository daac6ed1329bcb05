import json

import numpy as np
import pytest

from kusent import autodiff as ad
from kusent import bert
from kusent.autodiff import backward
from kusent.bert import (
    IGNORE_INDEX,
    BertConfig,
    build_model,
    count_params,
    epoch_batches,
    expected_shapes,
    forward,
    load_checkpoint,
    mask_for_mlm,
    mlm_logits,
    mlm_loss,
    preset_config,
    pretrain,
    save_checkpoint,
)
from kusent.checkpoint import read_blob, write_blob
from kusent.gradcheck import grad_check
from kusent.wordpiece import CLS, MASK, PAD, SEP, Vocab, SPECIAL_TOKENS, encode

TOY = BertConfig(
    hidden_size=8, num_hidden_layers=1, num_attention_heads=2, vocab_size=10, max_position=4
)


def tiny_config(**overrides):
    base = dict(
        hidden_size=16,
        num_hidden_layers=2,
        num_attention_heads=4,
        vocab_size=30,
        max_position=16,
        dropout_rate=0.1,
    )
    base.update(overrides)
    return BertConfig(**base)


def batch_of(config, rng, batch=2, seq_len=8, n_pad=2):
    ids = rng.integers(5, config.vocab_size, size=(batch, seq_len))
    ids[:, 0] = CLS
    ids[:, seq_len - n_pad - 1] = SEP
    ids[:, seq_len - n_pad:] = PAD
    mask = np.ones((batch, seq_len), dtype=np.int64)
    mask[:, seq_len - n_pad:] = 0
    return ids, mask


class TestConfig:
    def test_invalid_head_split(self):
        with pytest.raises(ValueError, match="7.*not divisible.*2"):
            BertConfig(hidden_size=7, num_hidden_layers=1, num_attention_heads=2, vocab_size=10)

    def test_intermediate_defaults_to_4h(self):
        assert TOY.intermediate_size == 32

    def test_vocab_size_minimum(self):
        with pytest.raises(ValueError, match="vocab_size"):
            BertConfig(hidden_size=8, num_hidden_layers=1, num_attention_heads=2, vocab_size=5)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key 'hiden_size'"):
            BertConfig.from_dict({"hiden_size": 8})

    def test_from_dict_missing_keys_named(self):
        with pytest.raises(ValueError, match="vocab_size"):
            BertConfig.from_dict(
                {"hidden_size": 8, "num_hidden_layers": 1, "num_attention_heads": 2}
            )

    def test_from_dict_table_spellings(self, caplog):
        cfg = BertConfig.from_dict(
            {
                "hidden_size": 8,
                "num_hidden_layers": 1,
                "num_attention_heads": 2,
                "vocab_size": 10,
                "Itrations": 100,
                "batch_szie": 4,
                "GPU": "yes",
            }
        )
        assert cfg.iterations == 100
        assert cfg.batch_size == 4

    def test_round_trip_dict(self):
        cfg = tiny_config()
        assert BertConfig.from_dict(cfg.to_dict()) == cfg

    def test_presets(self):
        for name, hidden, epochs, iters in (
            ("model1", 384, 10, 1_000_000),
            ("model2", 384, 20, 2_000_000),
            ("model3", 768, 10, 1_000_000),
            ("model4", 768, 20, 2_000_000),
        ):
            cfg = preset_config(name)
            assert cfg.hidden_size == hidden
            assert cfg.epochs == epochs
            assert cfg.iterations == iters
            assert cfg.vocab_size == 50_000
            assert cfg.num_attention_heads == 12
            assert cfg.num_hidden_layers == 6
            assert cfg.batch_size == 12


class TestBuildAndCount:
    def test_token_embedding_shape(self):
        model = build_model(TOY, seed=0)
        assert model["embeddings.token"].data.shape == (10, 8)
        assert model["embeddings.token"].data.size == 80

    def test_count_equals_enumeration_toy(self):
        model = build_model(TOY, seed=0)
        assert count_params(TOY) == model.n_values()

    def test_count_equals_enumeration_all_presets(self):
        for name in ("model1", "model2", "model3", "model4"):
            cfg = preset_config(name)
            total = sum(int(np.prod(s)) for s in expected_shapes(cfg).values())
            assert count_params(cfg) == total

    def test_doubling_layers_adds_block_size(self):
        one = tiny_config(num_hidden_layers=1)
        two = tiny_config(num_hidden_layers=2)
        block = count_params(two) - count_params(one)
        four = tiny_config(num_hidden_layers=4)
        assert count_params(four) == count_params(two) + 2 * block

    def test_vocab_plus_one_adds_h_plus_one(self):
        a = tiny_config(vocab_size=30)
        b = tiny_config(vocab_size=31)
        assert count_params(b) - count_params(a) == a.hidden_size + 1

    def test_same_seed_bit_identical(self):
        a = build_model(tiny_config(), seed=3)
        b = build_model(tiny_config(), seed=3)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build_model(tiny_config(), seed=3)
        b = build_model(tiny_config(), seed=4)
        assert any((pa.data != pb.data).any() for pa, pb in zip(a.params, b.params))

    def test_truncated_normal_init_within_two_std(self):
        model = build_model(tiny_config(), seed=0)
        w = model["layer0.attn.q.weight"].data
        assert np.abs(w).max() <= 2 * 0.02 + 1e-9


class TestForward:
    def test_output_shapes(self):
        cfg = tiny_config(hidden_size=64, num_attention_heads=4, max_position=32)
        model = build_model(cfg, seed=1)
        rng = np.random.default_rng(0)
        ids, mask = batch_of(cfg, rng, batch=2, seq_len=16, n_pad=3)
        seq, cls_state = forward(model, ids, mask)
        assert seq.shape == (2, 16, 64)
        assert cls_state.shape == (2, 64)
        np.testing.assert_array_equal(cls_state.data, seq.data[:, 0, :])

    def test_id_out_of_range(self):
        model = build_model(TOY, seed=0)
        ids = np.array([[CLS, 10, SEP]])
        with pytest.raises(ValueError, match="token id 10"):
            forward(model, ids, np.ones((1, 3), dtype=np.int64))

    def test_sequence_longer_than_positions(self):
        model = build_model(TOY, seed=0)
        ids = np.full((1, 5), CLS)
        with pytest.raises(ValueError, match="max_position"):
            forward(model, ids, np.ones((1, 5), dtype=np.int64))

    def test_padding_invariance(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=2)
        rng = np.random.default_rng(1)
        ids, mask = batch_of(cfg, rng, batch=2, seq_len=8, n_pad=0)
        seq_short, _ = forward(model, ids, mask)
        extra = 4
        ids_padded = np.concatenate([ids, np.full((2, extra), PAD)], axis=1)
        mask_padded = np.concatenate([mask, np.zeros((2, extra), dtype=np.int64)], axis=1)
        seq_padded, _ = forward(model, ids_padded, mask_padded)
        np.testing.assert_allclose(
            seq_padded.data[:, :8, :], seq_short.data, atol=1e-5, rtol=0
        )

    def test_attention_rows_normalized_and_pad_keys_zeroed(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=3)
        rng = np.random.default_rng(2)
        ids, mask = batch_of(cfg, rng, batch=3, seq_len=10, n_pad=4)
        sink = []
        forward(model, ids, mask, attn_sink=sink)
        assert len(sink) == cfg.num_hidden_layers
        for probs in sink:
            np.testing.assert_allclose(
                probs.sum(axis=-1), np.ones(probs.shape[:-1]), atol=1e-6
            )
            pad_weight = probs[:, :, :, 6:]
            assert pad_weight.max() < 1e-12

    def test_forward_gradcheck_full_layer(self):
        cfg = BertConfig(
            hidden_size=8,
            num_hidden_layers=1,
            num_attention_heads=2,
            vocab_size=12,
            max_position=8,
            dropout_rate=0.0,
        )
        model = build_model(cfg, seed=4, dtype=np.float64)
        rng = np.random.default_rng(3)
        ids, mask = batch_of(cfg, rng, batch=2, seq_len=6, n_pad=1)
        labels = np.where(
            rng.random(ids.shape) < 0.3, ids, IGNORE_INDEX
        )

        def loss_fn():
            seq, _ = forward(model, ids, mask)
            return ad.cross_entropy(mlm_logits(model, seq), labels, IGNORE_INDEX)

        report = grad_check(loss_fn, model.params, tolerance=1e-4, max_elements_per_param=8)
        assert report.passed, str(report)


class TestMlmLoss:
    def _setup(self, mask_prob):
        cfg = BertConfig(
            hidden_size=8, num_hidden_layers=1, num_attention_heads=2, vocab_size=12,
            max_position=8, dropout_rate=0.0,
        )
        model = build_model(cfg, seed=14, dtype=np.float64)
        rng = np.random.default_rng(15)
        ids, mask = batch_of(cfg, rng, batch=3, seq_len=7, n_pad=2)
        labels = np.where(rng.random(ids.shape) < mask_prob, ids, IGNORE_INDEX)
        return model, ids, mask, labels

    def _loss_and_grads(self, model, loss_fn):
        for p in model.params:
            p.zero_grad()
        loss = loss_fn()
        backward(loss)
        return loss.item(), {p.name: p.grad.copy() for p in model.params}

    def test_gathered_rows_equal_full_logits(self):
        model, ids, mask, labels = self._setup(0.4)
        assert 0 < (labels != IGNORE_INDEX).sum() < labels.size

        def full():
            seq, _ = forward(model, ids, mask)
            return ad.cross_entropy(mlm_logits(model, seq), labels, IGNORE_INDEX)

        def gathered():
            seq, _ = forward(model, ids, mask)
            return mlm_loss(model, seq, labels)

        want, want_grads = self._loss_and_grads(model, full)
        got, got_grads = self._loss_and_grads(model, gathered)
        assert abs(got - want) <= 1e-10 * abs(want)
        for name, grad in want_grads.items():
            np.testing.assert_allclose(got_grads[name], grad, rtol=1e-10, atol=1e-12)
        report = grad_check(gathered, model.params, tolerance=1e-4, max_elements_per_param=4)
        assert report.passed, str(report)

    def test_no_masked_position_is_zero_loss_and_zero_grads(self):
        model, ids, mask, _ = self._setup(0.0)
        labels = np.full(ids.shape, IGNORE_INDEX)

        def loss_fn():
            seq, _ = forward(model, ids, mask)
            return mlm_loss(model, seq, labels)

        loss, grads = self._loss_and_grads(model, loss_fn)
        assert loss == 0.0
        assert not any(g.any() for g in grads.values())


class TestMasking:
    def test_specials_never_selected(self):
        ids = np.array([[CLS, SEP, PAD, PAD]])
        mask = np.array([[1, 1, 0, 0]])
        rng = np.random.default_rng(0)
        batch = mask_for_mlm(ids, mask, 0.99, rng, vocab_size=30)
        assert (batch.labels == IGNORE_INDEX).all()
        np.testing.assert_array_equal(batch.input_ids, ids)

    def test_statistics_at_rate_15(self):
        rng = np.random.default_rng(12345)
        n = 400
        seq = 300
        ids = rng.integers(5, 1000, size=(n, seq))
        ids[:, 0] = CLS
        ids[:, -1] = SEP
        mask = np.ones((n, seq), dtype=np.int64)
        batch = mask_for_mlm(ids, mask, 0.15, rng, vocab_size=1000)
        eligible = (n * (seq - 2))
        selected = batch.labels != IGNORE_INDEX
        frac = selected.sum() / eligible
        assert 0.14 <= frac <= 0.16
        became_mask = selected & (batch.input_ids == MASK)
        unchanged = selected & (batch.input_ids == ids)
        randomized = selected & ~became_mask & ~unchanged
        total = selected.sum()
        assert abs(became_mask.sum() / total - 0.80) < 0.02
        assert abs(randomized.sum() / total - 0.10) < 0.02
        assert abs(unchanged.sum() / total - 0.10) < 0.02

    def test_labels_ignore_off_selection(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(5, 50, size=(4, 20))
        mask = np.ones((4, 20), dtype=np.int64)
        batch = mask_for_mlm(ids, mask, 0.3, rng, vocab_size=50)
        selected = batch.labels != IGNORE_INDEX
        np.testing.assert_array_equal(batch.labels[selected], ids[selected])
        changed = batch.input_ids != ids
        assert (changed <= selected).all()

    def test_random_replacements_are_non_special(self):
        rng = np.random.default_rng(2)
        ids = rng.integers(5, 30, size=(50, 40))
        mask = np.ones_like(ids)
        batch = mask_for_mlm(ids, mask, 0.5, rng, vocab_size=30)
        assert batch.input_ids.min() >= 0
        selected = batch.labels != IGNORE_INDEX
        non_mask = selected & (batch.input_ids != MASK)
        assert batch.input_ids[non_mask].min() >= 5


def toy_vocab_corpus(n_lines=60, n_words=24, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    pieces = list(SPECIAL_TOKENS) + words
    vocab = Vocab(pieces=pieces)
    lines = [
        " ".join(rng.choice(words, size=rng.integers(3, 9)).tolist())
        for _ in range(n_lines)
    ]
    return vocab, lines


class TestPretrain:
    @pytest.mark.parametrize("n, batch_size", [(10, 4), (8, 8), (3, 5)])
    def test_epoch_batches_streams(self, n, batch_size):
        seed, epoch = 13, 2
        batches = list(epoch_batches(n, batch_size, seed, epoch))
        order = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(0, epoch))
        ).permutation(n)
        picks = np.concatenate([pick for _, pick, _ in batches])
        assert sorted(picks.tolist()) == list(range(n))  # each index exactly once
        np.testing.assert_array_equal(picks, order)
        for batch_idx, pick, drop_rng in batches:
            assert len(pick) == min(batch_size, n - batch_idx)
            expected = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(2, epoch, batch_idx))
            )
            assert drop_rng.random(4).tolist() == expected.random(4).tolist()
        assert [b for b, _, _ in batches] == list(range(0, n, batch_size))

    def test_empty_corpus_rejected(self, tmp_path):
        vocab, _ = toy_vocab_corpus()
        cfg = tiny_config(vocab_size=len(vocab))
        model = build_model(cfg, seed=0)
        with pytest.raises(ValueError, match="empty corpus"):
            pretrain(model, [], vocab, cfg, seed=0, checkpoint_dir=str(tmp_path / "ck"))

    def test_zero_steps_checkpoint_equals_init(self, tmp_path):
        vocab, lines = toy_vocab_corpus()
        cfg = tiny_config(vocab_size=len(vocab), iterations=0, epochs=2, batch_size=4)
        model = build_model(cfg, seed=5)
        init = {p.name: p.data.copy() for p in model.params}
        result = pretrain(model, lines, vocab, cfg, seed=1, checkpoint_dir=str(tmp_path / "ck"))
        assert result.steps == 0
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))
        for p in loaded.params:
            np.testing.assert_array_equal(p.data, init[p.name])

    def test_loss_decreases_on_tiny_run(self, tmp_path):
        vocab, lines = toy_vocab_corpus(n_lines=40)
        cfg = tiny_config(vocab_size=len(vocab), epochs=3, batch_size=8)
        model = build_model(cfg, seed=6)
        result = pretrain(
            model, lines, vocab, cfg, seed=2, checkpoint_dir=str(tmp_path / "ck"),
            max_len=12, lr=1e-3,
        )
        assert all(np.isfinite(result.losses))
        assert np.mean(result.losses[-5:]) < np.mean(result.losses[:5])

    def test_iteration_cap_wins_over_epochs(self, tmp_path):
        vocab, lines = toy_vocab_corpus()
        cfg = tiny_config(vocab_size=len(vocab), epochs=50, iterations=7, batch_size=4)
        model = build_model(cfg, seed=7)
        result = pretrain(model, lines, vocab, cfg, seed=3, checkpoint_dir=str(tmp_path / "ck"))
        assert result.steps == 7

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        vocab, lines = toy_vocab_corpus(n_lines=24)

        def run(epochs, ck, resume=False, model_seed=8, data_seed=4):
            cfg = tiny_config(vocab_size=len(vocab), epochs=epochs, batch_size=6)
            model = build_model(cfg, seed=model_seed)
            return pretrain(
                model, lines, vocab, cfg, seed=data_seed, checkpoint_dir=ck,
                max_len=12, lr=1e-3, resume=resume,
            )

        full = run(2, str(tmp_path / "full"))
        part = run(1, str(tmp_path / "part"))
        resumed = run(2, str(tmp_path / "part"), resume=True)
        assert part.losses + resumed.losses == full.losses
        a, _ = load_checkpoint(str(tmp_path / "full"))
        b, _ = load_checkpoint(str(tmp_path / "part"))
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_mlm_head_sees_only_masked_rows(self, tmp_path, monkeypatch):
        vocab, lines = toy_vocab_corpus(n_lines=20)
        cfg = tiny_config(vocab_size=len(vocab), epochs=2, batch_size=6)
        masked_counts, head_shapes = [], []
        real_mask, real_logits = bert.mask_for_mlm, bert.mlm_logits

        def recording_mask(*args, **kwargs):
            batch = real_mask(*args, **kwargs)
            masked_counts.append(int((batch.labels != IGNORE_INDEX).sum()))
            return batch

        def recording_logits(model, states):
            head_shapes.append(states.shape)
            return real_logits(model, states)

        monkeypatch.setattr(bert, "mask_for_mlm", recording_mask)
        monkeypatch.setattr(bert, "mlm_logits", recording_logits)
        result = pretrain(build_model(cfg, seed=16), lines, vocab, cfg, seed=6,
                          checkpoint_dir=str(tmp_path / "ck"), max_len=12)
        assert result.steps == len(head_shapes) == 8
        assert head_shapes == [(1, n, cfg.hidden_size) for n in masked_counts]

    def test_non_finite_loss_stops_naming_epoch_and_step(self, tmp_path):
        vocab, lines = toy_vocab_corpus(n_lines=12)
        cfg = tiny_config(vocab_size=len(vocab), epochs=2, batch_size=4)
        model = build_model(cfg, seed=17)
        model["layer1.ffn.w2"].data[3, 2] = np.nan
        with pytest.raises(ValueError, match=r"non-finite training loss nan at epoch 0, step 1"):
            pretrain(model, lines, vocab, cfg, seed=7, checkpoint_dir=str(tmp_path / "ck"))

    def test_deterministic_checkpoint_bytes(self, tmp_path):
        vocab, lines = toy_vocab_corpus(n_lines=16)
        cfg = tiny_config(vocab_size=len(vocab), epochs=1, batch_size=4)
        for name in ("a", "b"):
            model = build_model(cfg, seed=9)
            pretrain(model, lines, vocab, cfg, seed=5, checkpoint_dir=str(tmp_path / name),
                     max_len=12)
        for fname in ("params.bin", "manifest.json", "config.json", "optim.bin"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = build_model(tiny_config(), seed=10)
        save_checkpoint(str(tmp_path / "ck"), model)
        loaded, cfg = load_checkpoint(str(tmp_path / "ck"))
        assert cfg == model.config
        for p, lp in zip(model.params, loaded.params):
            np.testing.assert_array_equal(p.data, lp.data)

    def test_truncated_blob_rejected(self, tmp_path):
        model = build_model(tiny_config(), seed=11)
        save_checkpoint(str(tmp_path / "ck"), model)
        blob = tmp_path / "ck" / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(str(tmp_path / "ck"))

    @pytest.mark.parametrize("manifest, message", [
        ([1, 2], "entry 0 is not an object"),
        ({"name": "x"}, "expected a list"),
    ])
    def test_malformed_manifest_rejected_naming_file(self, tmp_path, manifest, message):
        model = build_model(tiny_config(), seed=11)
        save_checkpoint(str(tmp_path / "ck"), model)
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"manifest.json: {message}"):
            load_checkpoint(str(tmp_path / "ck"))

    @pytest.mark.parametrize("offset", [-4, 10**9])
    def test_tensor_outside_blob_rejected(self, tmp_path, offset):
        model = build_model(tiny_config(), seed=11)
        save_checkpoint(str(tmp_path / "ck"), model)
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[1]["byte_offset"] = offset
        path.write_text(json.dumps(manifest))
        name = manifest[1]["name"]
        with pytest.raises(ValueError, match=f"tensor '{name}' lies outside .*params.bin"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_blob_is_the_tensors_bytes_in_manifest_order(self, tmp_path):
        arrays = [("a", np.arange(6, dtype=np.float64).reshape(2, 3)),
                  ("b", np.float32(2.5) * np.ones((4,), dtype=np.float32)[::2]),
                  ("c", np.array(7.0, dtype=np.float32))]
        write_blob(arrays, str(tmp_path / "x.bin"), str(tmp_path / "x.json"))
        expected = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for _, a in arrays)
        assert (tmp_path / "x.bin").read_bytes() == expected
        manifest = json.loads((tmp_path / "x.json").read_text())
        assert [(e["shape"], e["byte_offset"], e["byte_length"]) for e in manifest] == [
            ([2, 3], 0, 24), ([2], 24, 8), ([], 32, 4)]
        loaded = read_blob(str(tmp_path / "x.bin"), str(tmp_path / "x.json"))
        for name, arr in arrays:
            np.testing.assert_array_equal(loaded[name], arr.astype(np.float32))
        loaded["a"] += 1  # the loaded tensors are writable
        assert loaded["a"][0, 0] == 1.0

    def test_wrong_config_rejected_naming_tensor(self, tmp_path):
        model = build_model(tiny_config(hidden_size=16), seed=12)
        save_checkpoint(str(tmp_path / "ck"), model)
        cfg_path = tmp_path / "ck" / "config.json"
        raw = json.loads(cfg_path.read_text())
        raw["hidden_size"] = 32
        raw["intermediate_size"] = 128
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="embeddings.token"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_preset_configs_build_and_forward_len16(self):
        # full-size vocab tables are large; models 1 and 3 cover both widths
        for name in ("model1", "model3"):
            cfg = preset_config(name)
            model = build_model(cfg, seed=13)
            ids = np.full((2, 16), CLS)
            ids[:, 1:-1] = 7
            ids[:, -1] = SEP
            mask = np.ones((2, 16), dtype=np.int64)
            seq, cls_state = forward(model, ids, mask)
            assert seq.shape == (2, 16, cfg.hidden_size)
            assert np.isfinite(seq.data).all()
            del model
