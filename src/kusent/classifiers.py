"""Three sentiment heads over the encoder.

- finetune: dropout on the CLS state, one linear layer; every encoder
  parameter trains jointly with the head.
- bilstm: three stacked bidirectional LSTM layers over the frozen encoder's
  token states, final forward/backward states concatenated into a linear
  layer.
- mlp: two ReLU hidden layers over the frozen encoder's CLS state.

Frozen means frozen: bilstm/mlp training never touches encoder tensors, and
their features are precomputed once per dataset.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, backward, truncated_normal
from .bert import (
    ModelParams,
    epoch_batches,
    finite_loss,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .checkpoint import atomic_write_json, read_blob, write_blob
from .corpus import LabeledExample, SentimentLabel
from .normalize import NormalizationRules, normalize_text
from .optim import AdamState, adam_step
# ``encode`` is unused here, but the traced benchmark patches ``classifiers.encode`` by name
from .wordpiece import Vocab, encode, encode_batch  # noqa: F401

# head kind -> the head_config.json "head_meta" keys it needs
HEAD_META_KEYS = {"finetune": (), "bilstm": ("lstm_hidden", "num_layers"), "mlp": ("hidden_sizes",)}
HEAD_KINDS = tuple(HEAD_META_KEYS)
GATES = ("input", "forget", "cell", "output")
LABEL_ORDERS = {
    2: [SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE],
    3: [SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE, SentimentLabel.NEUTRAL],
}
INIT_STD = 0.02


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    max_len: int = 256
    learning_rate: float = 1e-5
    dropout_rate: float = 0.3
    batch_size: int = 8
    seed: int = 42
    num_classes: int = 3

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.num_classes not in (2, 3):
            raise ValueError(f"num_classes must be 2 or 3, got {self.num_classes}")
        if self.max_len < 3:
            raise ValueError(f"max_len must be >= 3, got {self.max_len}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


def default_epochs(task: str, hidden_size: int) -> int:
    """Schedule defaults per head: finetune 3, mlp 4, bilstm 3 or 4 by encoder width."""
    if task == "finetune":
        return 3
    if task == "mlp":
        return 4
    if task == "bilstm":
        return 3 if hidden_size <= 384 else 4
    raise ValueError(f"unknown task {task!r}")


@dataclass
class SentimentModel:
    encoder: ModelParams
    head_kind: str
    head_params: list[Parameter]
    labels: list[SentimentLabel]
    train_config: TrainConfig
    head_meta: dict = field(default_factory=dict)
    train_losses: list[float] = field(default_factory=list)

    @property
    def head_by_name(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.head_params}


def _head_param(name: str, shape, rng, dtype, zero=False) -> Parameter:
    if zero:
        return Parameter(name, np.zeros(shape, dtype=dtype))
    return Parameter(name, truncated_normal(shape, INIT_STD, rng, dtype=dtype))


def init_finetune_head(hidden: int, num_classes: int, rng, dtype=np.float32):
    return [
        _head_param("head.weight", (hidden, num_classes), rng, dtype),
        _head_param("head.bias", (num_classes,), rng, dtype, zero=True),
    ]


def init_mlp_head(hidden: int, num_classes: int, hidden_sizes, rng, dtype=np.float32):
    params = []
    widths = [hidden] + list(hidden_sizes) + [num_classes]
    for i, (d_in, d_out) in enumerate(zip(widths, widths[1:]), start=1):
        params.append(_head_param(f"head.w{i}", (d_in, d_out), rng, dtype))
        params.append(_head_param(f"head.b{i}", (d_out,), rng, dtype, zero=True))
    return params


def init_lstm_direction(prefix: str, d_in: int, d_h: int, rng, dtype=np.float32):
    """Four gates, each with input weights (D_in x D_h), recurrent weights
    (D_h x D_h), and a bias."""
    params = []
    for gate in GATES:
        params.append(_head_param(f"{prefix}.{gate}.w_x", (d_in, d_h), rng, dtype))
        params.append(_head_param(f"{prefix}.{gate}.w_h", (d_h, d_h), rng, dtype))
        params.append(_head_param(f"{prefix}.{gate}.b", (d_h,), rng, dtype, zero=True))
    return params


def init_bilstm_head(
    hidden: int, num_classes: int, lstm_hidden: int, num_layers: int, rng, dtype=np.float32
):
    params = []
    d_in = hidden
    for layer in range(num_layers):
        for direction in ("fwd", "bwd"):
            params.extend(
                init_lstm_direction(f"lstm{layer}.{direction}", d_in, lstm_hidden, rng, dtype)
            )
        d_in = 2 * lstm_hidden
    params.append(_head_param("head.weight", (2 * lstm_hidden, num_classes), rng, dtype))
    params.append(_head_param("head.bias", (num_classes,), rng, dtype, zero=True))
    return params


def lstm_step(
    gates: dict[str, tuple[Parameter, Parameter, Parameter]],
    x: Tensor,
    h: Tensor,
    c: Tensor,
) -> tuple[Tensor, Tensor]:
    """Standard gated recurrence: sigmoid input/forget/output, tanh cell."""

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


def _direction_gates(by_name, prefix):
    return {
        gate: (by_name[f"{prefix}.{gate}.w_x"], by_name[f"{prefix}.{gate}.w_h"], by_name[f"{prefix}.{gate}.b"])
        for gate in GATES
    }


def _run_direction(gates, inputs: list[Tensor], step_mask: list[Tensor], d_h: int, reverse: bool):
    """One LSTM direction over time with mask gating.

    At padded steps the state carries over unchanged (zeros until the first
    real token in reverse mode), so the final state equals the state at the
    last non-pad position and pad positions never leak into real ones.
    """
    batch = inputs[0].shape[0]
    dtype = inputs[0].dtype
    h = Tensor(np.zeros((batch, d_h), dtype=dtype))
    c = Tensor(np.zeros((batch, d_h), dtype=dtype))
    order = range(len(inputs) - 1, -1, -1) if reverse else range(len(inputs))
    outputs: dict[int, Tensor] = {}
    for t in order:
        h_new, c_new = lstm_step(gates, inputs[t], h, c)
        m = step_mask[t]
        keep = Tensor(1.0 - m.data)
        h = ad.add(ad.mul(h_new, m), ad.mul(h, keep))
        c = ad.add(ad.mul(c_new, m), ad.mul(c, keep))
        outputs[t] = h
    return [outputs[t] for t in range(len(inputs))], h


def bilstm_summary(
    by_name: dict[str, Parameter],
    states: Tensor,
    attention_mask: np.ndarray,
    num_layers: int,
    lstm_hidden: int,
    dropout_rate: float,
    rng,
    train: bool,
) -> Tensor:
    """Concatenated final forward/backward states of the top layer."""
    batch, seq_len, _ = states.shape
    dtype = states.dtype
    step_mask = [
        Tensor(attention_mask[:, t : t + 1].astype(dtype)) for t in range(seq_len)
    ]
    inputs = [
        ad.reshape(ad.narrow(states, 1, t, 1), (batch, states.shape[2]))
        for t in range(seq_len)
    ]
    final_fwd = final_bwd = None
    for layer in range(num_layers):
        fwd_out, final_fwd = _run_direction(
            _direction_gates(by_name, f"lstm{layer}.fwd"), inputs, step_mask, lstm_hidden, False
        )
        bwd_out, final_bwd = _run_direction(
            _direction_gates(by_name, f"lstm{layer}.bwd"), inputs, step_mask, lstm_hidden, True
        )
        inputs = [ad.concat([f, b], axis=1) for f, b in zip(fwd_out, bwd_out)]
        if layer < num_layers - 1 and train:
            inputs = [ad.dropout(x, dropout_rate, rng, train) for x in inputs]
    summary = ad.concat([final_fwd, final_bwd], axis=1)
    return ad.dropout(summary, dropout_rate, rng, train)


def head_logits(
    model: SentimentModel,
    seq_states: Tensor,
    cls_state: Tensor,
    attention_mask: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    by_name = model.head_by_name
    rate = model.train_config.dropout_rate
    if model.head_kind == "finetune":
        x = ad.dropout(cls_state, rate, rng, train)
        return ad.matmul(x, by_name["head.weight"], by_name["head.bias"])
    if model.head_kind == "mlp":
        sizes = model.head_meta["hidden_sizes"]
        x = cls_state
        for i in range(1, len(sizes) + 2):
            x = ad.matmul(x, by_name[f"head.w{i}"], by_name[f"head.b{i}"])
            if i <= len(sizes):
                x = ad.relu(x)
            if i == 1:
                x = ad.dropout(x, rate, rng, train)
        return x
    if model.head_kind == "bilstm":
        summary = bilstm_summary(
            by_name,
            seq_states,
            attention_mask,
            model.head_meta["num_layers"],
            model.head_meta["lstm_hidden"],
            rate,
            rng,
            train,
        )
        return ad.matmul(summary, by_name["head.weight"], by_name["head.bias"])
    raise ValueError(f"unknown head kind {model.head_kind!r}")


def _check_labels(dataset: list[LabeledExample], labels: list[SentimentLabel]) -> None:
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    allowed = set(labels)
    for ex in dataset:
        if ex.label not in allowed:
            if ex.label is SentimentLabel.NEUTRAL:
                raise ValueError(
                    "dataset contains 'neutral' examples but num_classes is 2; "
                    "apply to_binary (CLI: to-binary) first"
                )
            raise ValueError(f"label {ex.label.value!r} outside configured label set")


def _label_indices(dataset, labels):
    index = {label: i for i, label in enumerate(labels)}
    return np.array([index[ex.label] for ex in dataset], dtype=np.int64)


def _frozen_features(encoder, ids, masks, batch_size=32):
    """Token states and CLS vectors with the encoder in eval mode."""
    seq_chunks = []
    for start in range(0, len(ids), batch_size):
        seq, _ = forward(encoder, ids[start : start + batch_size], masks[start : start + batch_size])
        seq_chunks.append(seq.data)
    states = np.concatenate(seq_chunks, axis=0)
    return states, states[:, 0, :]


def _train_head_on_frozen(model, encoder, vocab, dataset, config):
    """Shared loop for the bilstm and mlp heads: cache features, train head only."""
    _check_labels(dataset, model.labels)
    if config.max_len > encoder.config.max_position:
        raise ValueError(
            f"max_len {config.max_len} exceeds encoder max_position "
            f"{encoder.config.max_position}"
        )
    ids, masks = encode_batch([ex.text for ex in dataset], vocab, config.max_len)
    targets = _label_indices(dataset, model.labels)
    states, cls = _frozen_features(encoder, ids, masks)
    optimizer = AdamState(lr=config.learning_rate)
    for epoch in range(config.epochs):
        for _, pick, drop_rng in epoch_batches(len(dataset), config.batch_size, config.seed, epoch):
            seq_t = Tensor(states[pick])
            cls_t = Tensor(cls[pick])
            logits = head_logits(model, seq_t, cls_t, masks[pick], train=True, rng=drop_rng)
            loss = ad.cross_entropy(logits, targets[pick])
            model.train_losses.append(finite_loss(loss, epoch, len(model.train_losses) + 1))
            backward(loss)
            adam_step(model.head_params, optimizer)
    return model


def train_finetune(
    encoder: ModelParams, vocab: Vocab, dataset: list[LabeledExample], config: TrainConfig
) -> SentimentModel:
    """Joint training of all encoder parameters plus a linear head on CLS."""
    labels = LABEL_ORDERS[config.num_classes]
    _check_labels(dataset, labels)
    if config.max_len > encoder.config.max_position:
        raise ValueError(
            f"max_len {config.max_len} exceeds encoder max_position "
            f"{encoder.config.max_position}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(9,)))
    dtype = encoder.params[0].data.dtype
    head = init_finetune_head(encoder.config.hidden_size, config.num_classes, rng, dtype)
    model = SentimentModel(
        encoder=encoder,
        head_kind="finetune",
        head_params=head,
        labels=labels,
        train_config=config,
    )
    ids, masks = encode_batch([ex.text for ex in dataset], vocab, config.max_len)
    targets = _label_indices(dataset, labels)
    optimizer = AdamState(lr=config.learning_rate)
    trainable = encoder.params + head
    for epoch in range(config.epochs):
        for _, pick, drop_rng in epoch_batches(len(dataset), config.batch_size, config.seed, epoch):
            seq, cls_state = forward(
                encoder, ids[pick], masks[pick], train=True, dropout_rng=drop_rng
            )
            logits = head_logits(model, seq, cls_state, masks[pick], train=True, rng=drop_rng)
            loss = ad.cross_entropy(logits, targets[pick])
            model.train_losses.append(finite_loss(loss, epoch, len(model.train_losses) + 1))
            backward(loss)
            adam_step(trainable, optimizer)
    return model


def train_bilstm(
    encoder: ModelParams,
    vocab: Vocab,
    dataset: list[LabeledExample],
    config: TrainConfig,
    lstm_hidden: int = 128,
    num_layers: int = 3,
) -> SentimentModel:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(9,)))
    dtype = encoder.params[0].data.dtype
    head = init_bilstm_head(
        encoder.config.hidden_size, config.num_classes, lstm_hidden, num_layers, rng, dtype
    )
    model = SentimentModel(
        encoder=encoder,
        head_kind="bilstm",
        head_params=head,
        labels=LABEL_ORDERS[config.num_classes],
        train_config=config,
        head_meta={"lstm_hidden": lstm_hidden, "num_layers": num_layers},
    )
    return _train_head_on_frozen(model, encoder, vocab, dataset, config)


def train_mlp(
    encoder: ModelParams,
    vocab: Vocab,
    dataset: list[LabeledExample],
    config: TrainConfig,
    hidden_sizes: tuple[int, ...] = (256, 64),
) -> SentimentModel:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(9,)))
    dtype = encoder.params[0].data.dtype
    head = init_mlp_head(
        encoder.config.hidden_size, config.num_classes, hidden_sizes, rng, dtype
    )
    model = SentimentModel(
        encoder=encoder,
        head_kind="mlp",
        head_params=head,
        labels=LABEL_ORDERS[config.num_classes],
        train_config=config,
        head_meta={"hidden_sizes": list(hidden_sizes)},
    )
    return _train_head_on_frozen(model, encoder, vocab, dataset, config)


def predict_encoded(model: SentimentModel, ids: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Class probabilities for a pre-encoded batch, eval mode."""
    seq, cls_state = forward(model.encoder, ids, masks)
    logits = head_logits(model, seq, cls_state, masks, train=False)
    return ad.softmax(logits).data


def predict(
    model: SentimentModel,
    text: str,
    vocab: Vocab,
    rules: NormalizationRules | None = None,
) -> tuple[SentimentLabel, np.ndarray]:
    """Normalize, encode, and classify one text; ties go to the lowest class index."""
    normalized = normalize_text(text, rules)
    ids, masks = encode_batch([normalized], vocab, model.train_config.max_len)
    probs = predict_encoded(model, ids, masks)[0]
    return model.labels[int(np.argmax(probs))], probs


def save_sentiment_model(model: SentimentModel, directory: str) -> None:
    """Self-contained model directory: embedded encoder checkpoint, head blob,
    labels.json with the class order."""
    os.makedirs(directory, exist_ok=True)
    save_checkpoint(os.path.join(directory, "encoder"), model.encoder)
    write_blob(
        [(p.name, p.data) for p in model.head_params],
        os.path.join(directory, "head.bin"),
        os.path.join(directory, "head_manifest.json"),
    )
    atomic_write_json(
        os.path.join(directory, "labels.json"), [label.value for label in model.labels]
    )
    config = model.train_config
    atomic_write_json(
        os.path.join(directory, "head_config.json"),
        {
            "kind": model.head_kind,
            "encoder_ref": "encoder",
            "head_meta": model.head_meta,
            "train_config": {
                "epochs": config.epochs,
                "max_len": config.max_len,
                "learning_rate": config.learning_rate,
                "dropout_rate": config.dropout_rate,
                "batch_size": config.batch_size,
                "seed": config.seed,
                "num_classes": config.num_classes,
            },
        },
    )


def load_sentiment_model(directory: str) -> SentimentModel:
    config_path = os.path.join(directory, "head_config.json")
    with open(config_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    for key in ("kind", "encoder_ref", "head_meta", "train_config"):
        if key not in meta:
            raise ValueError(f"{config_path}: missing key {key!r}")
    if meta["kind"] not in HEAD_KINDS:
        raise ValueError(f"{config_path}: unknown head kind {meta['kind']!r}")
    train_config, head_meta = meta["train_config"], meta["head_meta"]
    if not isinstance(train_config, dict) or not isinstance(head_meta, dict):
        raise ValueError(f"{config_path}: 'train_config' and 'head_meta' must be objects")
    known = {f.name for f in fields(TrainConfig)}
    for key in train_config:
        if key not in known:
            raise ValueError(f"{config_path}: unknown train_config key {key!r}")
    if "epochs" not in train_config:
        raise ValueError(f"{config_path}: train_config is missing key 'epochs'")
    for key in HEAD_META_KEYS[meta["kind"]]:
        if key not in head_meta:
            raise ValueError(f"{config_path}: head_meta is missing key {key!r}")
    with open(os.path.join(directory, "labels.json"), encoding="utf-8") as fh:
        labels = [SentimentLabel(v) for v in json.load(fh)]
    encoder, _ = load_checkpoint(os.path.join(directory, meta["encoder_ref"]))
    arrays = read_blob(
        os.path.join(directory, "head.bin"), os.path.join(directory, "head_manifest.json")
    )
    head_params = [Parameter(name, arr) for name, arr in arrays.items()]
    model = SentimentModel(
        encoder=encoder,
        head_kind=meta["kind"],
        head_params=head_params,
        labels=labels,
        train_config=TrainConfig(**train_config),
        head_meta=head_meta,
    )
    _validate_head_width(model)
    return model


def _validate_head_width(model: SentimentModel) -> None:
    hidden = model.encoder.config.hidden_size
    by_name = model.head_by_name
    if model.head_kind == "finetune":
        width = by_name["head.weight"].data.shape[0]
    elif model.head_kind == "mlp":
        width = by_name["head.w1"].data.shape[0]
    else:
        width = by_name["lstm0.fwd.input.w_x"].data.shape[0]
    if width != hidden:
        raise ValueError(
            f"head input width {width} does not match encoder hidden size {hidden}"
        )
