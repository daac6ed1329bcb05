import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from kusent import autodiff as ad
from kusent import bert
from kusent.autodiff import Parameter, Tensor, backward
from kusent.bert import (
    IGNORE_INDEX,
    BertConfig,
    build_model,
    count_params,
    count_tensors,
    expected_shapes,
    forward,
    load_checkpoint,
    mask_for_mlm,
    masked_positions,
    mlm_logits,
    mlm_loss,
    preset_config,
    pretrain,
    save_checkpoint,
    train_batches,
)
from kusent.checkpoint import check_fields, read_blob, read_json, write_blob
from kusent.optim import AdamState, adam_step
from kusent.wordpiece import CLS, MASK, PAD, SEP, Vocab, SPECIAL_TOKENS, encode

from gradcheck import grad_check, gradients

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


def keep_words(rng, shape, rate):
    """The documented keep-mask rule: 16-bit words of one draw against round(rate * 2**16)."""
    return rng.integers(0, 2**16, size=shape, dtype=np.uint16) >= round(rate * 2**16)


def oracle_forward(model, input_ids, attention_mask, dropout_rng=None, k_bias=False, positions=None):
    """The encoder with every token-wise layer on the padded (B, T, H) layout and
    attention run row by row over the row's attended positions: the oracle for
    ``forward``'s attended states, CLS, dropout stream and gradients. With
    ``dropout_rng`` each dropout draws its keep mask by ``forward``'s rule
    (``keep_words``) for the rows it masks, or in attention for the (G, A, r, L)
    probabilities of the rows with L attended positions and r queries, in
    ascending (L, r) and rows ascending, and applies it as ``(x * keep) * factor``. With ``positions`` the last layer's
    masks cover only the rows read, its attention draws for their queries only,
    and the result is the (R, H) states at ``positions``. K has no bias unless
    ``k_bias``."""
    config = model.config
    batch, seq_len = input_ids.shape
    heads = config.num_attention_heads
    hidden_size = config.hidden_size
    head_dim = hidden_size // heads
    rate = config.dropout_rate
    factor = 1.0 / (1.0 - rate)
    dropping = dropout_rng is not None and rate > 0.0
    attended = np.asarray(attention_mask).reshape(-1) == 1
    read = attended if positions is None else np.isin(np.arange(batch * seq_len), positions)
    positions_of = [np.flatnonzero(row) for row in attention_mask]

    def drop(x, rows):
        # (B, T, H): the keep mask of the (N, H) rows flagged in ``rows``, zeros elsewhere
        if not dropping:
            return x
        keep = np.zeros(x.shape, bool)
        keep.reshape(-1, x.shape[-1])[rows] = keep_words(dropout_rng, (rows.sum(), x.shape[-1]), rate)
        return ad.scale(ad.mul(x, Tensor(keep)), factor)

    def probs_keep(queries):
        # each row's (A, r, L) keep mask: one (G, A, r, L) draw per (L, r), ascending, r > 0
        keys = [(len(pos), len(q)) for pos, q in zip(positions_of, queries)]
        keep = {}
        for length, n_queries in sorted(set(k for k in keys if k[1])):
            rows = [b for b in range(batch) if keys[b] == (length, n_queries)]
            keep.update(zip(rows, keep_words(dropout_rng, (len(rows), heads, n_queries, length), rate)))
        return keep

    def attend(q, k, v, rows):
        # (B*T, H) padded rows of Q, K and V -> (B, T, H) context of the ``rows`` flagged,
        # zero elsewhere
        queries = [pos[rows.reshape(batch, seq_len)[b, pos]] for b, pos in enumerate(positions_of)]
        keep = probs_keep(queries) if dropping else None
        ctx = []
        for b, pos in enumerate(positions_of):
            if not len(queries[b]):
                continue

            def row_heads(a, at):
                rows_b = ad.reshape(ad.gather_rows(a, b * seq_len + at), (len(at), heads, head_dim))
                return ad.transpose(rows_b, (1, 0, 2))

            qb, kb, vb = row_heads(q, queries[b]), row_heads(k, pos), row_heads(v, pos)
            probs = ad.softmax(ad.matmul(qb, ad.transpose(kb, (0, 2, 1))))
            if dropping:
                probs = ad.scale(ad.mul(probs, Tensor(keep[b])), factor)
            out = ad.transpose(ad.matmul(probs, vb), (1, 0, 2))
            ctx.append(ad.reshape(out, (len(queries[b]), hidden_size)))
        ctx = ad.scatter_rows(ad.concat(ctx, axis=0), np.flatnonzero(rows), batch * seq_len)
        return ad.reshape(ctx, (batch, seq_len, hidden_size))

    tok = ad.embedding_lookup(model["embeddings.token"], input_ids)
    pos = ad.narrow(model["embeddings.position"], 0, 0, seq_len)
    seg = ad.embedding_lookup(model["embeddings.segment"], np.zeros_like(input_ids))
    x = ad.add(ad.add(tok, pos), seg)
    x = ad.layer_norm(x, model["embeddings.norm.gain"], model["embeddings.norm.bias"])
    x = drop(x, attended)
    for layer in range(config.num_hidden_layers):
        prefix = f"layer{layer}"
        rows = read if layer == config.num_hidden_layers - 1 else attended

        def proj(name, inp, bias=True):
            b = model[f"{prefix}.attn.{name}.bias"] if bias else None
            out = ad.matmul(inp, model[f"{prefix}.attn.{name}.weight"], b)
            return ad.reshape(out, (batch * seq_len, hidden_size))

        q = ad.scale(proj("q", x), 1.0 / math.sqrt(head_dim))
        ctx = attend(q, proj("k", x, bias=k_bias), proj("v", x), rows)
        attn_out = ad.matmul(ctx, model[f"{prefix}.attn.o.weight"], model[f"{prefix}.attn.o.bias"])
        attn_out = drop(attn_out, rows)
        x = ad.layer_norm(ad.add(x, attn_out), model[f"{prefix}.attn.norm.gain"],
                          model[f"{prefix}.attn.norm.bias"])
        hidden = ad.gelu(ad.matmul(x, model[f"{prefix}.ffn.w1"], model[f"{prefix}.ffn.b1"]))
        ffn_out = ad.matmul(hidden, model[f"{prefix}.ffn.w2"], model[f"{prefix}.ffn.b2"])
        ffn_out = drop(ffn_out, rows)
        x = ad.layer_norm(ad.add(x, ffn_out), model[f"{prefix}.ffn.norm.gain"],
                          model[f"{prefix}.ffn.norm.bias"])
    if positions is not None:
        return ad.gather_rows(ad.reshape(x, (batch * seq_len, hidden_size)), positions)
    cls_state = ad.reshape(ad.narrow(x, 1, 0, 1), (batch, config.hidden_size))
    return x, cls_state


def full_states_loss(model, states, labels):
    """The MLM loss on a full forward's (B, T, H) states, every row through the head."""
    return ad.cross_entropy(mlm_logits(model, states), labels, IGNORE_INDEX)


def ragged_batch(config, rng, lengths):
    """CLS, random pieces and SEP in the first ``lengths[b]`` positions of row b, PAD after."""
    lengths = np.asarray(lengths)
    ids = rng.integers(5, config.vocab_size, size=(len(lengths), lengths.max()))
    mask = (np.arange(lengths.max()) < lengths[:, None]).astype(np.int64)
    ids[:, 0] = CLS
    ids[np.arange(len(lengths)), lengths - 1] = SEP
    ids[mask == 0] = PAD
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

    @pytest.mark.parametrize("key, value", [("hidden_size", "32"), ("Itrations", 1.5), ("epochs", True)])
    def test_from_dict_wrong_type_named(self, key, value):
        raw = {"hidden_size": 8, "num_hidden_layers": 1, "num_attention_heads": 2, "vocab_size": 10}
        with pytest.raises(ValueError, match=f"^cfg.json key '{key}' must be "):
            BertConfig.from_dict(dict(raw, **{key: value}), "cfg.json")

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
        assert count_tensors(TOY) == len(model.params)

    def test_count_equals_enumeration_all_presets(self):
        for name in ("model1", "model2", "model3", "model4"):
            cfg = preset_config(name)
            total = sum(int(np.prod(s)) for s in expected_shapes(cfg).values())
            assert count_params(cfg) == total
            assert count_tensors(cfg) == len(expected_shapes(cfg))

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

    @staticmethod
    def oracle_truncated_normal(shape, std, rng, dtype):
        """One float64 draw of the whole shape, out-of-range values redrawn by mask; the rounds."""
        out = rng.normal(0.0, std, size=shape)
        bad = np.abs(out) > 2 * std
        rounds = 0
        while bad.any():
            out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
            bad = np.abs(out) > 2 * std
            rounds += 1
        return out.astype(dtype), rounds

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, std, block, min_rounds", [
        ((300, 500), 0.02, None, 3),  # crosses two chunk boundaries; ~7k values redrawn
        ((ad._BLOCK_VALUES + 3,), 1.5, None, 1),  # 1-D, one value past a chunk
        ((0, 7), 0.02, None, 0),
        ((13, 11), 0.7, 7, 1),  # chunks of 7 values: 21 boundaries, the last chunk short
    ])
    def test_truncated_normal_matches_whole_array_draw(self, monkeypatch, dtype, shape, std, block, min_rounds):
        if block is not None:
            monkeypatch.setattr(ad, "_BLOCK_VALUES", block)
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = ad.truncated_normal(shape, std, rng, dtype=dtype)
        want, rounds = self.oracle_truncated_normal(shape, std, oracle_rng, dtype)
        assert rounds >= min_rounds
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.random() == oracle_rng.random()


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

    @pytest.mark.parametrize("ids, bad", [([[2, -1, 3]], -1), ([[2, -1, 10]], -1)])
    def test_out_of_range_error_names_the_offending_id(self, ids, bad):
        # the lowest id when one is negative, else the highest, as embedding_lookup names them
        model = build_model(TOY, seed=0)
        with pytest.raises(ValueError, match=rf"^token id {bad} out of range for vocab_size 10$"):
            forward(model, np.array(ids), np.ones((1, 3), dtype=np.int64))

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
        np.testing.assert_array_equal(seq_padded.data[:, :8, :], seq_short.data)
        assert not seq_padded.data[:, 8:, :].any()

    def test_attention_rows_normalized_and_pad_keys_zeroed(self, monkeypatch):
        # each layer's attention call is repeated with the value of a row's j-th attended
        # position set to e_j in every head, so its context rows are the probabilities
        cfg = tiny_config(num_attention_heads=2)  # head_dim 8 >= the 6 attended positions
        model = build_model(cfg, seed=3)
        rng = np.random.default_rng(2)
        ids, mask = batch_of(cfg, rng, batch=3, seq_len=10, n_pad=4)
        attention, probs = ad.attention, []

        def exposing(q, k, v, heads, attention_mask, *args):
            unit = np.zeros((len(q.data), heads, q.shape[1] // heads), q.dtype)
            for row in np.arange(len(q.data)).reshape(3, 6):
                unit[row, :, np.arange(6)] = 1
            probs.append(attention(q, k, Tensor(unit.reshape(q.shape)), heads, attention_mask).data)
            return attention(q, k, v, heads, attention_mask, *args)

        monkeypatch.setattr(ad, "attention", exposing)
        forward(model, ids, mask)
        assert len(probs) == cfg.num_hidden_layers
        for p in probs:
            # (N, A, head_dim): the weights of a query's 6 attended keys sum to 1, so its
            # 4 pad keys have none
            p = p.reshape(18, 2, 8)
            np.testing.assert_allclose(p[..., :6].sum(axis=-1), np.ones((18, 2)), atol=1e-6)
            assert (p[..., :6] > 0).all() and not p[..., 6:].any()

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


class TestPackedForward:
    """``forward`` runs its token-wise layers on the attended rows only; the padded
    oracle above gives the same values, generator state and gradients."""

    LENGTHS = [7, 3, 9, 1, 9, 5]

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("block_values", [ad._BLOCK_VALUES, 40])
    def test_matches_padded_oracle_bit_for_bit(self, monkeypatch, train, block_values):
        # 40-value blocks split each keep mask's draw into several blocks
        monkeypatch.setattr(ad, "_BLOCK_VALUES", block_values)
        cfg = tiny_config(dropout_rate=0.2)
        model = build_model(cfg, seed=20)
        ids, mask = ragged_batch(cfg, np.random.default_rng(21), self.LENGTHS)
        attended = mask == 1
        want_rng, got_rng = np.random.default_rng(22), np.random.default_rng(22)
        want, want_cls = oracle_forward(model, ids, mask, want_rng if train else None)
        got, got_cls = forward(model, ids, mask, got_rng if train else None)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got.data[attended], want.data[attended])
        assert not got.data[~attended].any()  # pad rows are exactly zero
        np.testing.assert_array_equal(got_cls.data, want_cls.data)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def _loss(self, encode, model, ids, mask, labels, weights):
        seq, cls_state = encode(model, ids, mask, np.random.default_rng(23))
        return ad.add(full_states_loss(model, seq, labels), ad.reduce_sum(ad.mul(cls_state, weights)))

    def _setup(self):
        cfg = tiny_config(hidden_size=8, num_attention_heads=2, vocab_size=12, max_position=10,
                          dropout_rate=0.2)
        model = build_model(cfg, seed=24, dtype=np.float64)
        rng = np.random.default_rng(25)
        ids, mask = ragged_batch(cfg, rng, self.LENGTHS)
        labels = np.where((rng.random(ids.shape) < 0.4) & (mask == 1), ids, IGNORE_INDEX)
        weights = Tensor(rng.normal(size=(len(self.LENGTHS), cfg.hidden_size)))
        return model, ids, mask, labels, weights

    def test_parameter_gradients_match_oracle(self):
        model, *batch = self._setup()
        grads = {}
        for encode in (oracle_forward, forward):
            for p in model.params:
                p.zero_grad()
            backward(self._loss(encode, model, *batch))
            grads[encode] = gradients(model.params)
        for name, want in grads[oracle_forward].items():
            # only the summation order of the weight gradients differs
            np.testing.assert_allclose(grads[forward][name], want, rtol=1e-10, atol=1e-14, err_msg=name)

    def test_gradcheck_with_pads_and_dropout(self):
        model, *batch = self._setup()
        report = grad_check(lambda: self._loss(forward, model, *batch), model.params,
                            tolerance=1e-4, max_elements_per_param=6)
        assert report.passed, str(report)

    @pytest.mark.parametrize("mask", [
        [[1, 1, 1]],  # not the shape of input_ids
        [[1, 1, 1], [1, 1, 1]],  # one column short
        [[1, 1, 2, 0], [1, 1, 1, 1]],
        [[1, 1, -1, 0], [1, 1, 1, 1]],
        [[1, 0.5, 0, 0], [1, 1, 1, 1]],
        [[1, 1, 1, 0], [0, 1, 1, 1]],  # position 0 not attended
    ])
    def test_bad_attention_mask_rejected(self, mask):
        model = build_model(tiny_config(), seed=0)
        ids = np.array([[CLS, 7, SEP, PAD], [CLS, 7, 8, SEP]])
        with pytest.raises(ValueError, match=r"attention_mask must hold only 0/1 in the shape of "
                                             r"input_ids \(2, 4\), with position 0 attended"):
            forward(model, ids, np.array(mask))


class TestWidthGroups:
    """The attention core runs each row over its attended positions only, the rows of one
    attended count as one group, in one ``autodiff.attention`` call per layer; the oracle's
    per-row attention gives the same bits, generator state and gradients."""

    T96 = [96, 5, 41, 47, 60, 33, 88, 90, 17]
    T30 = [30, 4, 17, 29, 9]
    T200 = [200, 5, 97, 100, 130, 17, 96]  # rows 2 and 3 both attend 97 positions

    @staticmethod
    def _batch(cfg, lengths, seed=31):
        ids, mask = ragged_batch(cfg, np.random.default_rng(seed), lengths)
        mask[3, 20:23] = 0  # holes inside a row; its last position stays attended
        return ids, mask

    @pytest.mark.parametrize("lengths, want", [
        (T96, {5: [1], 17: [8], 33: [5], 41: [2], 44: [3], 60: [4], 88: [6], 90: [7], 96: [0]}),
        (T30, {4: [1], 9: [4], 17: [2], 26: [3], 30: [0]}),
        (T200, {5: [1], 17: [5], 96: [6], 97: [2, 3], 130: [4], 200: [0]}),
    ], ids=["T96", "T30", "T200"])
    def test_groups(self, lengths, want):
        ids, mask = self._batch(tiny_config(max_position=200), lengths)
        groups = ad._attention_groups(mask)
        # in ascending attended count: attention draws its dropout masks in this order
        assert [(index.shape[1], list(batch_rows)) for batch_rows, index, _ in groups] == list(want.items())
        assert all(query_index is index for _, index, query_index in groups)
        packed = np.full(mask.shape, -1)
        packed.flat[np.flatnonzero(mask)] = np.arange(np.count_nonzero(mask))
        for batch_rows, index, _ in groups:
            for b, row_index in zip(batch_rows, index, strict=True):
                np.testing.assert_array_equal(row_index, packed[b][mask[b] == 1])

    def _check_bits(self, cfg, lengths, train, make_rng):
        model = build_model(cfg, seed=30)
        ids, mask = self._batch(cfg, lengths)
        attended = mask == 1
        want_rng, got_rng = make_rng(), make_rng()
        want, want_cls = oracle_forward(model, ids, mask, want_rng if train else None)
        got, got_cls = forward(model, ids, mask, got_rng if train else None)
        np.testing.assert_array_equal(got.data[attended], want.data[attended])
        assert not got.data[~attended].any()
        np.testing.assert_array_equal(got_cls.data, want_cls.data)
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("hidden", [8, 64])
    @pytest.mark.parametrize("lengths", [T96, T30, T200], ids=["T96", "T30", "T200"])
    def test_matches_padded_oracle_bit_for_bit(self, train, hidden, lengths):
        cfg = tiny_config(hidden_size=hidden, max_position=200, dropout_rate=0.2)
        self._check_bits(cfg, lengths, train, lambda: np.random.default_rng(32))

    @pytest.mark.parametrize("bit_generator, block_values", [
        (np.random.MT19937, ad._BLOCK_VALUES),
        (np.random.PCG64, 40),  # one-row blocks in the softmax and the keep masks
    ])
    def test_other_generators_and_blocks(self, monkeypatch, bit_generator, block_values):
        monkeypatch.setattr(ad, "_BLOCK_VALUES", block_values)
        cfg = tiny_config(hidden_size=8, max_position=96, dropout_rate=0.2)
        self._check_bits(cfg, self.T96, True, lambda: np.random.Generator(bit_generator(33)))

    def test_parameter_gradients_match_oracle(self):
        cfg = tiny_config(hidden_size=8, num_attention_heads=2, vocab_size=12, max_position=96,
                          dropout_rate=0.2)
        model = build_model(cfg, seed=34, dtype=np.float64)
        rng = np.random.default_rng(35)
        ids, mask = self._batch(cfg, self.T96)
        labels = np.where((rng.random(ids.shape) < 0.4) & (mask == 1), ids, IGNORE_INDEX)
        weights = Tensor(rng.normal(size=(len(self.T96), cfg.hidden_size)))
        grads = {}
        for encode in (oracle_forward, forward):
            for p in model.params:
                p.zero_grad()
            seq, cls_state = encode(model, ids, mask, np.random.default_rng(36))
            backward(ad.add(full_states_loss(model, seq, labels), ad.reduce_sum(ad.mul(cls_state, weights))))
            grads[encode] = gradients(model.params)
        for name, want in grads[oracle_forward].items():
            np.testing.assert_allclose(grads[forward][name], want, rtol=1e-10, atol=1e-14, err_msg=name)

    def test_attention_gradcheck_with_pads_and_dropout(self):
        lengths = [50, 3, 41, 7, 30]
        ids, mask = self._batch(tiny_config(max_position=50), lengths)
        rows = np.flatnonzero(mask)
        assert [index.shape[1] for _, index, _ in ad._attention_groups(mask)] == [3, 7, 30, 41, 50]
        rng = np.random.default_rng(37)
        q, k, v = (Parameter(name, rng.normal(size=(len(rows), 8))) for name in "qkv")
        weights = Tensor(rng.normal(size=(len(rows), 8)))

        def loss_fn():
            out = ad.attention(q, k, v, 2, mask, 0.3, np.random.default_rng(38))
            return ad.reduce_sum(ad.mul(out, weights))

        report = grad_check(loss_fn, [q, k, v], tolerance=1e-4, max_elements_per_param=12)
        assert report.passed, str(report)

    def test_padded_width_changes_no_bit(self):
        # one ragged batch padded to its longest row, to 200 and to 256 positions
        cfg = tiny_config(max_position=256, dropout_rate=0.2)
        model = build_model(cfg, seed=39)
        lengths = [150, 5, 97, 97, 130, 17]
        ids, mask = ragged_batch(cfg, np.random.default_rng(40), lengths)
        runs = []
        for seq_len in (max(lengths), 200, 256):
            pad = ((0, 0), (0, seq_len - ids.shape[1]))
            padded_ids, padded_mask = np.pad(ids, pad, constant_values=PAD), np.pad(mask, pad)
            rng = np.random.default_rng(41)
            states, cls_state = forward(model, padded_ids, padded_mask, rng)
            runs.append((states.data[padded_mask == 1], cls_state.data, rng.bit_generator.state))
        (want_states, want_cls, want_rng), *others = runs
        for states, cls_state, rng_state in others:
            np.testing.assert_array_equal(states, want_states)
            np.testing.assert_array_equal(cls_state, want_cls)
            assert rng_state == want_rng


class TestReadRows:
    """With ``positions``, ``forward`` runs the last layer's queries, FFN, layer norms and
    dropouts on the rows read only and returns their (R, H) states; the oracle with the
    same positions gives the same values, generator state and gradients."""

    LENGTHS = [7, 3, 9, 1, 9, 5]

    @staticmethod
    def _positions(mask, kind):
        if kind == "cls":
            return np.arange(len(mask)) * mask.shape[1]
        # about a third of the attended positions: rows 1 and 3 read nothing
        picked = (np.random.default_rng(50).random(mask.shape) < 0.35) & (mask == 1)
        picked[[1, 3]] = False
        return np.flatnonzero(picked)

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("kind", ["cls", "masked"])
    def test_matches_the_oracle(self, train, kind):
        cfg = tiny_config(dropout_rate=0.2)
        model = build_model(cfg, seed=51, dtype=np.float64)
        ids, mask = ragged_batch(cfg, np.random.default_rng(52), self.LENGTHS)
        positions = self._positions(mask, kind)
        want_rng, got_rng = np.random.default_rng(53), np.random.default_rng(53)
        want = oracle_forward(model, ids, mask, want_rng if train else None, positions=positions)
        got = forward(model, ids, mask, got_rng if train else None, positions=positions)
        assert got.shape == (len(positions), cfg.hidden_size)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-10, atol=1e-12)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["cls", "masked"])
    def test_eval_rows_equal_the_full_forwards_rows(self, kind):
        # float32 at model1 width: equal to float32 rounding, not bit for bit, because the
        # GEMMs of fewer rows may sum in another order (up to 7e-7 apart at H384)
        cfg = tiny_config(hidden_size=384, num_attention_heads=12, dropout_rate=0.1)
        model = build_model(cfg, seed=54)
        ids, mask = ragged_batch(cfg, np.random.default_rng(55), self.LENGTHS)
        positions = self._positions(mask, kind)
        seq, cls_state = forward(model, ids, mask)
        got = forward(model, ids, mask, positions=positions)
        want = seq.data.reshape(-1, cfg.hidden_size)[positions]
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-5)
        if kind == "cls":
            np.testing.assert_allclose(got.data, cls_state.data, rtol=0, atol=1e-5)

    def test_parameter_gradients_match_oracle(self):
        cfg = tiny_config(hidden_size=8, num_attention_heads=2, vocab_size=12, max_position=10,
                          dropout_rate=0.2)
        model = build_model(cfg, seed=56, dtype=np.float64)
        rng = np.random.default_rng(57)
        ids, mask = ragged_batch(cfg, rng, self.LENGTHS)
        positions = self._positions(mask, "masked")
        weights = Tensor(rng.normal(size=(len(positions), cfg.hidden_size)))
        grads = {}
        for encode in (oracle_forward, forward):
            for p in model.params:
                p.zero_grad()
            states = encode(model, ids, mask, np.random.default_rng(58), positions=positions)
            backward(ad.reduce_sum(ad.mul(states, weights)))
            grads[encode] = gradients(model.params)
        for name, want in grads[oracle_forward].items():
            np.testing.assert_allclose(grads[forward][name], want, rtol=1e-10, atol=1e-14, err_msg=name)

    def test_gradcheck_with_pads_and_dropout(self):
        cfg = tiny_config(hidden_size=8, num_attention_heads=2, vocab_size=12, max_position=10,
                          dropout_rate=0.2)
        model = build_model(cfg, seed=59, dtype=np.float64)
        rng = np.random.default_rng(60)
        ids, mask = ragged_batch(cfg, rng, self.LENGTHS)
        positions = self._positions(mask, "masked")
        weights = Tensor(rng.normal(size=(len(positions), cfg.hidden_size)))

        def loss_fn():
            states = forward(model, ids, mask, np.random.default_rng(61), positions=positions)
            return ad.reduce_sum(ad.mul(states, weights))

        report = grad_check(loss_fn, model.params, tolerance=1e-4, max_elements_per_param=6)
        assert report.passed, str(report)

    @pytest.mark.parametrize("positions", [[4, 0], [0, 0], [3], [9], [-1], [[0, 4]]],
                             ids=["descending", "repeated", "pad", "past-the-end", "negative", "2-D"])
    def test_bad_positions_rejected(self, positions):
        model = build_model(tiny_config(), seed=0)
        ids = np.array([[CLS, 7, SEP, PAD], [CLS, 7, 8, SEP]])
        mask = (ids != PAD).astype(np.int64)
        with pytest.raises(ValueError, match="positions must be attended flat positions of the batch"):
            forward(model, ids, mask, positions=np.array(positions))


class TestKeyBias:
    """``layerN.attn.k.bias`` stays in the format but not in the graph: softmax ignores
    a bias added to every key, so its exact gradient is zero."""

    def test_no_gradient_and_no_update_in_pretraining(self, tmp_path, monkeypatch):
        vocab, lines = toy_vocab_corpus(n_lines=16)
        cfg = tiny_config(vocab_size=len(vocab), epochs=2, iterations=3, batch_size=8)
        model = build_model(cfg, seed=40)
        k_biases = [p for p in model.params if p.name.endswith(".attn.k.bias")]
        assert len(k_biases) == cfg.num_hidden_layers
        rng = np.random.default_rng(41)
        for p in k_biases:
            p.data[...] = rng.normal(size=p.shape)
        before = {p.name: p.data.copy() for p in k_biases}
        steps = []
        adam_step = bert.adam_step

        def checked_adam_step(params, optimizer):
            # after train_step's backward and norm check, before Adam reads and releases the
            # gradients: the key biases have none, every other parameter has one
            assert params == model.params
            assert all((p.grad is None) == (p in k_biases) for p in params)
            assert model["layer0.attn.q.bias"].grad.any() and model["layer0.attn.k.weight"].grad.any()
            steps.append(optimizer.step_count)
            adam_step(params, optimizer)

        monkeypatch.setattr(bert, "adam_step", checked_adam_step)
        pretrain(model, lines, vocab, cfg, seed=42, checkpoint_dir=str(tmp_path / "ck"), max_len=12)
        assert steps == [0, 1, 2]
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))
        for name, want in before.items():
            assert model[name].data.tobytes() == want.tobytes()
            assert loaded[name].data.tobytes() == want.tobytes()

    def test_checkpoint_with_a_key_bias_gives_the_same_eval_states(self, tmp_path):
        cfg = tiny_config(hidden_size=8, num_attention_heads=2, max_position=96)
        ids, mask = TestWidthGroups._batch(cfg, TestWidthGroups.T96)
        model = build_model(cfg, seed=43)
        rng = np.random.default_rng(44)
        for layer in range(cfg.num_hidden_layers):
            model[f"layer{layer}.attn.k.bias"].data[...] = rng.normal(size=cfg.hidden_size)
        save_checkpoint(str(tmp_path / "ck"), model)
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))

        def in_float64(zero_k_bias):
            params = [Parameter(p.name, p.data.astype(np.float64)) for p in loaded.params]
            for p in params:
                if zero_k_bias and p.name.endswith(".attn.k.bias"):
                    p.data[...] = 0.0
            return bert.ModelParams(cfg, params)

        biased, unbiased = in_float64(False), in_float64(True)
        assert all(biased[f"layer{layer}.attn.k.bias"].data.all() for layer in range(cfg.num_hidden_layers))
        states, cls_state = forward(biased, ids, mask)
        zero_states, zero_cls = forward(unbiased, ids, mask)
        np.testing.assert_array_equal(states.data, zero_states.data)
        np.testing.assert_array_equal(cls_state.data, zero_cls.data)
        # a K with its bias gives the same states up to rounding
        with_bias, _ = oracle_forward(biased, ids, mask, k_bias=True)
        attended = mask == 1
        assert not np.array_equal(states.data[attended], with_bias.data[attended])
        np.testing.assert_allclose(states.data[attended], with_bias.data[attended], rtol=1e-10, atol=1e-12)


class TestMlmLoss:
    def _setup(self, mask_prob):
        cfg = BertConfig(
            hidden_size=8, num_hidden_layers=1, num_attention_heads=2, vocab_size=12,
            max_position=8, dropout_rate=0.0,
        )
        model = build_model(cfg, seed=14, dtype=np.float64)
        rng = np.random.default_rng(15)
        ids, mask = batch_of(cfg, rng, batch=3, seq_len=7, n_pad=2)
        # labels only where attended, as mask_for_mlm puts them: a pad state is a constant
        # zero row, whose layer norm in the MLM head has no usable gradient
        labels = np.where((rng.random(ids.shape) < mask_prob) & (mask == 1), ids, IGNORE_INDEX)
        return model, ids, mask, labels

    def _loss_and_grads(self, model, loss_fn):
        for p in model.params:
            p.zero_grad()
        loss = loss_fn()
        backward(loss)
        return loss.item(), gradients(model.params)

    def test_gathered_rows_equal_full_logits(self):
        model, ids, mask, labels = self._setup(0.4)
        assert 0 < (labels != IGNORE_INDEX).sum() < labels.size

        def full():
            seq, _ = forward(model, ids, mask)
            return full_states_loss(model, seq, labels)

        def read_rows():
            return mlm_loss(model, forward(model, ids, mask, positions=masked_positions(labels)), labels)

        want, want_grads = self._loss_and_grads(model, full)
        got, got_grads = self._loss_and_grads(model, read_rows)
        assert abs(got - want) <= 1e-10 * abs(want)
        for name, grad in want_grads.items():
            np.testing.assert_allclose(got_grads[name], grad, rtol=1e-10, atol=1e-12)
        report = grad_check(read_rows, model.params, tolerance=1e-4, max_elements_per_param=4)
        assert report.passed, str(report)

    def test_no_masked_position_is_zero_loss_and_zero_grads(self):
        model, ids, mask, _ = self._setup(0.0)
        labels = np.full(ids.shape, IGNORE_INDEX)
        assert masked_positions(labels).size == 0

        def loss_fn():
            states = forward(model, ids, mask, positions=masked_positions(labels))
            assert states.shape == (0, model.config.hidden_size)
            return mlm_loss(model, states, labels)

        loss, grads = self._loss_and_grads(model, loss_fn)
        assert loss == 0.0
        assert not any(g.any() for g in grads.values())

    def test_sequence_states_give_their_rows_logits(self):
        # the head reads (B, T, H) states as their (B·T, H) rows, one float32 GEMM each
        model = build_model(tiny_config(hidden_size=64, vocab_size=300), seed=20)
        states = np.random.default_rng(21).standard_normal((3, 7, 64)).astype(np.float32)
        logits = mlm_logits(model, Tensor(states)).data
        rows = mlm_logits(model, Tensor(states.reshape(21, 64))).data
        assert logits.shape == (3, 7, 300) and rows.shape == (21, 300)
        np.testing.assert_array_equal(logits, rows.reshape(3, 7, 300))

    def test_states_that_are_not_the_masked_rows_rejected(self):
        model, ids, mask, labels = self._setup(0.4)
        seq, _ = forward(model, ids, mask)
        with pytest.raises(ValueError, match=r"mlm_loss: states \(3, 7, 8\) are not the \d+ masked rows"):
            mlm_loss(model, seq, labels)

    def test_step_at_dropout_zero_equals_full_states_step_in_float32(self):
        # a float32 model1-width encoder with a pretraining batch: the read rows' GEMMs sum
        # in another order than the full ones, so loss and gradients agree to float32 rounding
        cfg = BertConfig(hidden_size=384, num_hidden_layers=2, num_attention_heads=12, vocab_size=500,
                         max_position=64, dropout_rate=0.0)
        model = build_model(cfg, seed=17)
        rng = np.random.default_rng(18)
        ids, mask = ragged_batch(cfg, rng, [64, 21, 40, 33, 57, 9])
        labels = mask_for_mlm(ids, mask, 0.15, rng, cfg.vocab_size).labels
        assert masked_positions(labels).size > 10

        def full():
            seq, _ = forward(model, ids, mask, np.random.default_rng(19))
            return full_states_loss(model, seq, labels)

        def read_rows():
            states = forward(model, ids, mask, np.random.default_rng(19),
                             positions=masked_positions(labels))
            return mlm_loss(model, states, labels)

        want, want_grads = self._loss_and_grads(model, full)
        got, got_grads = self._loss_and_grads(model, read_rows)
        assert abs(got - want) <= 1e-6 * abs(want)
        for name, grad in want_grads.items():
            scale = np.abs(grad).max()
            np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-5 * scale, err_msg=name)


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
    def test_train_batches_streams(self, n, batch_size):
        seed, epochs = 13, 3
        stop = epochs * -(-n // batch_size)

        def drawn(start, stop):
            """The cursor's run as plain values, each dropout stream as its first four draws."""
            return [(epoch, step, batch_idx, pick.tolist(), rng.random(4).tolist())
                    for epoch, step, batch_idx, pick, rng in train_batches(n, batch_size, seed, start, stop)]

        run = drawn(0, stop)
        assert [step for _, step, *_ in run] == list(range(1, stop + 1))
        for epoch in range(epochs):
            batches = [b for b in run if b[0] == epoch]
            order = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, epoch))).permutation(n)
            assert [i for _, _, _, pick, _ in batches for i in pick] == order.tolist()
            assert [batch_idx for _, _, batch_idx, _, _ in batches] == list(range(0, n, batch_size))
            for _, _, batch_idx, pick, draws in batches:
                assert len(pick) == min(batch_size, n - batch_idx)
                expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, epoch, batch_idx)))
                assert draws == expected.random(4).tolist()
        # a run cut at any step, mid-epoch included, and resumed there draws the unsplit run
        for k in range(stop + 1):
            head, tail = drawn(0, k), drawn(k, stop)
            assert [step for _, step, *_ in tail] == list(range(k + 1, stop + 1))
            assert head + tail == run

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
            max_len=12, learning_rate=1e-3,
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
                max_len=12, learning_rate=1e-3, resume=resume,
            )

        full = run(2, str(tmp_path / "full"))
        part = run(1, str(tmp_path / "part"))
        resumed = run(2, str(tmp_path / "part"), resume=True)
        assert part.losses + resumed.losses == full.losses
        a, _ = load_checkpoint(str(tmp_path / "full"))
        b, _ = load_checkpoint(str(tmp_path / "part"))
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_resume_with_grown_cap_continues_mid_epoch(self, tmp_path):
        vocab, lines = toy_vocab_corpus(n_lines=24)

        def run(iterations, ck, resume=False):
            cfg = tiny_config(vocab_size=len(vocab), epochs=2, iterations=iterations, batch_size=4)
            return pretrain(
                build_model(cfg, seed=8), lines, vocab, cfg, seed=4, checkpoint_dir=str(ck),
                max_len=12, learning_rate=1e-3, resume=resume,
            )

        full = run(8, tmp_path / "full")
        part = run(3, tmp_path / "part")
        resumed = run(8, tmp_path / "part", resume=True)
        assert (part.steps, resumed.steps) == (3, 8)
        assert part.losses + resumed.losses == full.losses
        for fname in ("params.bin", "optim.bin", "state.json"):
            assert (tmp_path / "part" / fname).read_bytes() == (tmp_path / "full" / fname).read_bytes()

    # 16 lines at batch size 4: 4 steps an epoch. resumed_from: the iteration cap of a first,
    # unrecorded run in the same directory; written: the (next_epoch, global_step) of each
    # checkpoint the recorded run writes
    @pytest.mark.parametrize("epochs, iterations, resumed_from, written, steps, n_losses", [
        (3, 8, None, [(1, 4), (2, 8)], 8, 8),
        (3, 7, None, [(1, 4), (1, 7)], 7, 7),
        (3, 0, None, [(0, 0)], 0, 0),
        (3, None, None, [(1, 4), (2, 8), (3, 12)], 12, 12),
        (3, 6, 8, [(2, 8)], 8, 0),
        (3, 12, 7, [(2, 8), (3, 12)], 12, 5),
    ], ids=["cap-on-boundary", "cap-mid-epoch", "zero-steps", "epochs-only", "resume-past-cap",
            "resume-mid-epoch"])
    def test_checkpoint_cadence(self, tmp_path, monkeypatch, epochs, iterations, resumed_from, written,
                                steps, n_losses):
        vocab, lines = toy_vocab_corpus(n_lines=16)
        ck = str(tmp_path / "ck")

        def run(iterations, resume):
            cfg = tiny_config(vocab_size=len(vocab), epochs=epochs, iterations=iterations, batch_size=4)
            return pretrain(build_model(cfg, seed=3), lines, vocab, cfg, seed=2, checkpoint_dir=ck,
                            max_len=12, resume=resume)

        if resumed_from is not None:
            run(resumed_from, resume=False)
        recorded = []
        real_save = bert.save_checkpoint

        def recording_save(directory, model, optimizer=None, train_state=None):
            recorded.append((train_state["next_epoch"], train_state["global_step"]))
            real_save(directory, model, optimizer, train_state)

        monkeypatch.setattr(bert, "save_checkpoint", recording_save)
        result = run(iterations, resume=resumed_from is not None)
        assert recorded == written
        assert (result.steps, len(result.losses)) == (steps, n_losses)

    def test_resume_warns_only_when_threads_differ(self, tmp_path, monkeypatch, caplog):
        vocab, lines = toy_vocab_corpus(n_lines=8)
        cfg = tiny_config(vocab_size=len(vocab), iterations=1, batch_size=4)
        ck = str(tmp_path / "ck")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        pretrain(build_model(cfg, seed=3), lines, vocab, cfg, seed=2, checkpoint_dir=ck)
        warnings = {}
        for threads in ("1", "3"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            caplog.clear()
            with caplog.at_level("WARNING", logger="kusent.bert"):
                pretrain(build_model(cfg, seed=3), lines, vocab, cfg, seed=2, checkpoint_dir=ck,
                         resume=True)
            warnings[threads] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings["1"] == []
        assert len(warnings["3"]) == 1
        assert "'openblas_num_threads': '1'" in warnings["3"][0]
        assert "'openblas_num_threads': '3'" in warnings["3"][0]

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
        assert head_shapes == [(n, cfg.hidden_size) for n in masked_counts]

    def test_non_finite_loss_stops_naming_epoch_and_step(self, tmp_path):
        vocab, lines = toy_vocab_corpus(n_lines=12)
        cfg = tiny_config(vocab_size=len(vocab), epochs=2, batch_size=4)
        model = build_model(cfg, seed=17)
        model["layer1.ffn.w2"].data[3, 2] = np.nan
        with pytest.raises(ValueError, match=r"non-finite training loss nan at epoch 0, step 1"):
            pretrain(model, lines, vocab, cfg, seed=7, checkpoint_dir=str(tmp_path / "ck"))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_gradient_stops_naming_epoch_and_step(self, tmp_path, monkeypatch, value):
        vocab, lines = toy_vocab_corpus(n_lines=12)
        cfg = tiny_config(vocab_size=len(vocab), epochs=2, batch_size=4)
        model = build_model(cfg, seed=17)
        real_backward = bert.backward
        calls = []

        def poisoned_backward(loss):
            real_backward(loss)
            calls.append(loss)
            if len(calls) == 4:  # the first step of epoch 1
                model["layer1.ffn.w2"].grad[3, 2] = value

        monkeypatch.setattr(bert, "backward", poisoned_backward)
        ck = tmp_path / "ck"
        with pytest.raises(ValueError, match=r"^non-finite gradient norm at epoch 1, step 4$"):
            pretrain(model, lines, vocab, cfg, seed=7, checkpoint_dir=str(ck))
        # epoch 0's checkpoint is the last one, and the parameters are still its
        assert json.loads((ck / "state.json").read_text())["global_step"] == 3
        for p, lp in zip(model.params, load_checkpoint(str(ck))[0].params):
            np.testing.assert_array_equal(p.data, lp.data)

    def test_deterministic_checkpoint_bytes(self, tmp_path):
        vocab, lines = toy_vocab_corpus(n_lines=16)
        cfg = tiny_config(vocab_size=len(vocab), epochs=1, batch_size=4)
        for name in ("a", "b"):
            model = build_model(cfg, seed=9)
            pretrain(model, lines, vocab, cfg, seed=5, checkpoint_dir=str(tmp_path / name),
                     max_len=12)
        for fname in ("params.bin", "manifest.json", "config.json", "optim.bin"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    @staticmethod
    def _counted_forwards(monkeypatch):
        """A list that gets one entry per encoder forward ``pretrain`` runs, one a step."""
        forwards, real_forward = [], bert.forward

        def counted(*args, **kwargs):
            forwards.append(len(forwards))
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(bert, "forward", counted)
        return forwards

    def test_new_nested_checkpoint_directory_is_made(self, tmp_path):
        vocab, lines = toy_vocab_corpus(n_lines=8)
        cfg = tiny_config(vocab_size=len(vocab), iterations=2, batch_size=4)
        ck = tmp_path / "new" / "deeper" / "enc"
        result = pretrain(build_model(cfg, seed=3), lines, vocab, cfg, seed=1, checkpoint_dir=str(ck))
        assert result.steps == 2
        assert load_checkpoint(str(ck))[1] == cfg

    def test_checkpoint_path_under_a_file_is_refused_before_the_first_step(self, tmp_path, monkeypatch):
        vocab, lines = toy_vocab_corpus(n_lines=8)
        cfg = tiny_config(vocab_size=len(vocab), batch_size=4)
        (tmp_path / "afile").write_text("not a directory\n")
        ck = tmp_path / "afile" / "enc"
        forwards = self._counted_forwards(monkeypatch)
        message = f"checkpoint directory {ck} is not writable: {tmp_path / 'afile'} is not a writable directory"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pretrain(build_model(cfg, seed=3), lines, vocab, cfg, seed=1, checkpoint_dir=str(ck))
        assert forwards == []

    def test_vocab_larger_than_vocab_size_is_refused_before_the_first_step(self, tmp_path, monkeypatch,
                                                                             caplog):
        vocab, lines = toy_vocab_corpus()
        forwards = self._counted_forwards(monkeypatch)
        small = tiny_config(vocab_size=len(vocab) - 1, batch_size=4)
        with pytest.raises(ValueError, match=rf"^vocab has {len(vocab)} pieces but config.vocab_size is "
                                             rf"{len(vocab) - 1}: its last ids are out of range$"):
            pretrain(build_model(small, seed=3), lines, vocab, small, seed=1,
                     checkpoint_dir=str(tmp_path / "small"))
        assert forwards == [] and not (tmp_path / "small").exists()
        # a larger vocab_size holds every id: a warning, and training runs
        large = tiny_config(vocab_size=len(vocab) + 1, iterations=1, batch_size=4)
        with caplog.at_level("WARNING", logger="kusent.bert"):
            pretrain(build_model(large, seed=3), lines, vocab, large, seed=1,
                     checkpoint_dir=str(tmp_path / "large"))
        assert f"vocab has {len(vocab)} pieces but config.vocab_size is {len(vocab) + 1}" in caplog.text
        assert forwards == [0]


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

    @pytest.mark.parametrize("layers", [10**30, 3])
    def test_layer_count_beyond_the_blob_rejected_before_the_shape_table(self, tmp_path, layers):
        # tiny_config has 2 layers of 16 tensors; 3 layers need more than the 42 the blob holds
        save_checkpoint(str(tmp_path / "ck"), build_model(tiny_config(), seed=11))
        path = tmp_path / "ck" / "config.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), num_hidden_layers=layers)))
        with pytest.raises(ValueError, match=rf"config.json: num_hidden_layers {layers} needs more "
                                             r"tensors than the 42 in .*params.bin"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_tensor_listed_twice_rejected(self, tmp_path):
        weight = np.ones((2, 2), dtype=np.float32)
        write_blob([("w", weight), ("w", weight)], str(tmp_path / "t.bin"), str(tmp_path / "t.json"))
        with pytest.raises(ValueError, match="t.json: tensor 'w' is listed twice"):
            read_blob(str(tmp_path / "t.bin"), str(tmp_path / "t.json"))

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
        loaded, _ = read_blob(str(tmp_path / "x.bin"), str(tmp_path / "x.json"))
        for name, arr in arrays:
            np.testing.assert_array_equal(loaded[name], arr.astype(np.float32))
        loaded["a"] += 1  # the loaded tensors are writable
        assert loaded["a"][0, 0] == 1.0

    @pytest.mark.parametrize("shape, byte_length, message", [
        # numpy's int64 product of this shape wraps to 0
        ([2**32, 2**32], 0, r"byte_length 0 does not match shape \(4294967296, 4294967296\)"),
        # its product, 4, matches the blob's 16 bytes
        ([-1, -4], 16, r"has a negative dimension in shape \(-1, -4\)"),
    ])
    def test_impossible_shape_rejected_naming_manifest(self, tmp_path, shape, byte_length, message):
        (tmp_path / "x.bin").write_bytes(bytes(byte_length))
        entry = {"name": "w", "shape": shape, "byte_offset": 0, "byte_length": byte_length}
        (tmp_path / "x.json").write_text(json.dumps([entry]))
        with pytest.raises(ValueError, match=f"x.json: tensor 'w' {message}"):
            read_blob(str(tmp_path / "x.bin"), str(tmp_path / "x.json"))

    def test_json_nested_too_deep_to_parse_is_invalid(self, tmp_path):
        (tmp_path / "x.json").write_text("[" * 100_000)
        with pytest.raises(ValueError, match="x.json: invalid JSON: "):
            read_json(str(tmp_path / "x.json"))

    def test_tensors_out_of_blob_order_rejected(self, tmp_path):
        write_blob([("a", np.ones(2)), ("b", np.ones(3))], str(tmp_path / "x.bin"), str(tmp_path / "x.json"))
        manifest = json.loads((tmp_path / "x.json").read_text())
        manifest[0]["byte_offset"], manifest[1]["byte_offset"] = 12, 0
        (tmp_path / "x.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="x.json: tensor 'a' starts at byte 12, not at 0 "):
            read_blob(str(tmp_path / "x.bin"), str(tmp_path / "x.json"))

    @pytest.mark.parametrize("hint, value, ok", [
        (float, 1, True),  # an int passes for a float
        (int, 1.0, False),
        (int, True, False),  # a bool never passes for an int
        (float, False, False),
        (bool, True, True),
        (str, 3, False),
        (int | None, None, True),
        (int | None, "3", False),
        (list[int], [1, 2], True),
        (list[int], [1, "a"], False),
        (tuple[int, ...], [], True),
        (tuple[int, ...], 5, False),
    ])
    def test_check_fields_value_types(self, hint, value, ok):
        raw = {"k": value}
        if ok:
            assert check_fields(raw, {"k": hint}, "x.json") is raw
        else:
            with pytest.raises(ValueError, match=r"^x.json key 'k' must be "):
                check_fields(raw, {"k": hint}, "x.json")

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


class TestLoadedParams:
    """A loaded model's tensors are read-only and remember their file, so a save of the
    unchanged model can link that file instead of writing its bytes again."""

    def saved(self, directory):
        model = build_model(tiny_config(), seed=30)
        save_checkpoint(str(directory), model)
        return model

    def test_in_place_write_into_a_loaded_tensor_raises(self, tmp_path):
        self.saved(tmp_path / "src")
        loaded, _ = load_checkpoint(str(tmp_path / "src"))
        assert not any(p.data.flags.writeable for p in loaded.params)
        with pytest.raises(ValueError, match="read-only"):
            loaded["layer0.ffn.w1"].data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            loaded["embeddings.norm.gain"].data += 1.0

    def test_load_adds_one_copy_of_the_parameter_bytes(self, tmp_path):
        model = build_model(tiny_config(hidden_size=64, vocab_size=2000, max_position=64), seed=30)
        save_checkpoint(str(tmp_path / "src"), model)
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(str(tmp_path / "src"))
            added = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the tensors themselves, and no gradient buffer beside them
        param_bytes = sum(p.data.nbytes for p in model.params)
        assert param_bytes <= added < 1.25 * param_bytes, (added, param_bytes)
        assert all(p.grad is None for p in loaded.params)

    def test_adam_step_trains_a_private_copy(self, tmp_path):
        built = self.saved(tmp_path / "src")
        loaded, _ = load_checkpoint(str(tmp_path / "src"))
        source_bytes = (tmp_path / "src" / "params.bin").read_bytes()
        read = [p.data for p in loaded.params]
        rng = np.random.default_rng(31)
        for p, lp in zip(built.params, loaded.params):
            g = rng.normal(size=p.shape).astype(p.dtype)
            p.grad, lp.grad = g, g.copy()  # adam_step uses each as scratch
        adam_step(built.params, AdamState(lr=1e-2))
        adam_step(loaded.params, AdamState(lr=1e-2))
        for p, lp, old in zip(built.params, loaded.params, read):
            assert lp.data is not old and lp.data.flags.writeable
            np.testing.assert_array_equal(lp.data, p.data)
        assert b"".join(old.tobytes() for old in read) == source_bytes
        save_checkpoint(str(tmp_path / "trained"), loaded)
        trained = tmp_path / "trained" / "params.bin"
        assert os.stat(trained).st_ino != os.stat(tmp_path / "src" / "params.bin").st_ino
        assert trained.read_bytes() != source_bytes

    def change_mtime(self, src, loaded):
        st = os.stat(src / "params.bin")
        os.utime(src / "params.bin", ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))

    def change_size(self, src, loaded):
        with open(src / "params.bin", "ab") as fh:
            fh.write(bytes(4))

    def replace_by_rename(self, src, loaded):
        save_checkpoint(str(src), build_model(tiny_config(), seed=32))

    def make_writeable(self, src, loaded):
        loaded.params[3].data.flags.writeable = True

    def swap_array(self, src, loaded):
        copy = loaded.params[3].data.copy()
        copy.flags.writeable = False
        loaded.params[3].data = copy

    @pytest.mark.parametrize("change", [
        "change_mtime", "change_size", "replace_by_rename", "make_writeable", "swap_array",
    ])
    def test_changed_source_or_params_written_in_full(self, tmp_path, change):
        src = tmp_path / "src"
        self.saved(src)
        expected = (src / "params.bin").read_bytes()
        first_inode = os.stat(src / "params.bin").st_ino
        loaded, _ = load_checkpoint(str(src))
        getattr(self, change)(src, loaded)
        save_checkpoint(str(tmp_path / "out"), loaded)
        out = tmp_path / "out" / "params.bin"
        assert os.stat(out).st_ino not in (first_inode, os.stat(src / "params.bin").st_ino)
        assert out.read_bytes() == expected
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_source_in_another_tensor_order_is_written(self, tmp_path):
        model = self.saved(tmp_path / "canonical")
        src = tmp_path / "src"
        save_checkpoint(str(src), model)
        write_blob([(p.name, p.data) for p in reversed(model.params)],
                   str(src / "params.bin"), str(src / "manifest.json"))
        loaded, _ = load_checkpoint(str(src))
        save_checkpoint(str(tmp_path / "out"), loaded)
        assert os.stat(tmp_path / "out" / "params.bin").st_ino != os.stat(src / "params.bin").st_ino
        for name in ("params.bin", "manifest.json", "config.json"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "canonical" / name).read_bytes()
