"""``backward`` writes each leaf's gradient where it ends up and keeps every bit.

The reference below is the engine as it was before that: every gradient, a leaf's
included, summed in a dict in the order it arrives, the sum added into the leaf's
``grad`` when the walk reaches the leaf; ``embedding_lookup`` handing back a dense
zero table with its rows added in by ``np.add.at``; the tied MLM decoder as a
matmul by the transposed table, whose gradient comes back as a (H, V) product
that ``transpose`` hands on as a view. Three Adam steps with each must leave the
same parameters and moments, byte for byte.
"""

import hashlib

import numpy as np
import pytest

from kusent import autodiff as ad
from kusent import bert
from kusent.bert import (
    BertConfig, ModelParams, build_model, expected_shapes, forward, init_params, mask_for_mlm,
    masked_positions, mlm_loss, preset_config,
)
from kusent.optim import AdamState, adam_step
from kusent.wordpiece import CLS, PAD, SEP


def reference_topo_order(root):
    """Nodes and leaves, each after its inputs, in the order the old DFS gave them."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        item, expanded = stack.pop()
        if expanded:
            order.append(item)
            continue
        if id(item) in visited:
            continue
        visited.add(id(item))
        stack.append((item, True))
        for edge in item.inputs if type(item) is ad._Node else ():
            if edge is not None and id(edge) not in visited:
                stack.append((edge, False))
    return order


def reference_backward(loss):
    """The dense fan-in engine: a leaf's contributions summed first, then added into its grad."""
    grads = {id(loss._node): np.ones_like(loss.data)}
    for item in reversed(reference_topo_order(loss._node)):
        g = grads.pop(id(item), None)
        if type(item) is ad._Node:
            inputs, rule = item.inputs, item.rule
            item.inputs, item.rule, item.consumed = (), None, True
            if g is None:
                continue
            for edge, pg in zip(inputs, rule(g)):
                if pg is None or edge is None:
                    continue
                grads[id(edge)] = grads[id(edge)] + pg if id(edge) in grads else pg
        elif g is not None:
            # onto zeros, not a copy of g: 0.0 + -0.0 is +0.0, as the engine rounds it
            if item.grad is None:
                item.grad = np.zeros_like(item.data)
            item.grad += g


def dense_embedding_lookup(table, ids):
    """The lookup whose gradient is a fresh zero table with every row added in by np.add.at."""
    ids = np.asarray(ids)

    def rule(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        return (dt,)

    return ad._record(table.data[ids], (table,), rule)


def transposed_mlm_logits(model, sequence_states):
    """The MLM head with the tied decoder as a matmul by ``transpose(table)``."""
    batch, seq_len, hidden = sequence_states.shape
    h = ad.gelu(ad.matmul(sequence_states, model["mlm.transform.weight"], model["mlm.transform.bias"]))
    h = ad.layer_norm(h, model["mlm.norm.gain"], model["mlm.norm.bias"])
    flat = ad.reshape(h, (batch * seq_len, hidden))
    logits = ad.matmul(flat, ad.transpose(model["embeddings.token"], (1, 0)), model["mlm.out_bias"])
    return ad.reshape(logits, (batch, seq_len, model.config.vocab_size))


def ragged_batch(rng, vocab_size, batch, shortest, longest):
    lengths = rng.integers(shortest, longest + 1, size=batch)
    lengths[0] = longest
    ids = rng.integers(5, vocab_size, size=(batch, longest))
    mask = (np.arange(longest) < lengths[:, None]).astype(np.int64)
    ids[:, 0] = CLS
    ids[np.arange(batch), lengths - 1] = SEP
    ids[mask == 0] = PAD
    return ids, mask


def digests(model, optimizer):
    return {p.name: [hashlib.sha256(a.tobytes()).hexdigest()
                     for a in (p.data, optimizer.m[p.name], optimizer.v[p.name])]
            for p in model.params}


def encoder_steps(run_backward):
    """Three pretraining steps with Adam of a model1-shape encoder of 2 layers, B8 x T64."""
    config = BertConfig(hidden_size=384, num_hidden_layers=2, num_attention_heads=12, vocab_size=8_000,
                        max_position=64)
    model = build_model(config, seed=3)
    optimizer = AdamState(lr=1e-3)
    rng = np.random.default_rng(4)
    for step in range(3):
        ids, mask = ragged_batch(rng, config.vocab_size, 8, 6, 64)
        batch = mask_for_mlm(ids, mask, 0.15, rng, config.vocab_size)
        states = forward(model, batch.input_ids, batch.attention_mask, np.random.default_rng(10 + step),
                         positions=masked_positions(batch.labels))
        run_backward(mlm_loss(model, states, batch.labels))
        adam_step(model.params, optimizer)
    return digests(model, optimizer)


def head_steps(run_backward):
    """Three Adam steps of a 768-wide MLM head over a tied 50,000-row table, whose input
    states are rows of that table: 96 masked rows with repeated ids."""
    config = preset_config("model3")
    shapes = expected_shapes(config)
    names = ["embeddings.token"] + [name for name in shapes if name.startswith("mlm.")]
    model = ModelParams(config, init_params({name: shapes[name] for name in names},
                                            np.random.default_rng(5), np.float32))
    optimizer = AdamState(lr=1e-3)
    rng = np.random.default_rng(6)
    for _ in range(3):
        labels = np.where(rng.random((8, 24)) < 0.5, rng.integers(5, config.vocab_size, size=(8, 24)),
                          bert.IGNORE_INDEX)
        ids = rng.integers(5, 400, size=masked_positions(labels).size)
        states = ad.embedding_lookup(model["embeddings.token"], ids)
        run_backward(mlm_loss(model, states, labels))
        adam_step(model.params, optimizer)
    return digests(model, optimizer)


@pytest.mark.parametrize("steps", [encoder_steps, head_steps], ids=["model1_encoder", "model3_head"])
def test_params_and_moments_equal_the_dense_fan_in_engine(monkeypatch, steps):
    got = steps(ad.backward)
    with monkeypatch.context() as patched:
        patched.setattr(ad, "embedding_lookup", dense_embedding_lookup)
        patched.setattr(bert, "mlm_logits", transposed_mlm_logits)
        want = steps(reference_backward)
    assert got.keys() == want.keys()
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"params or moments differ from the dense fan-in engine's: {differ}"
