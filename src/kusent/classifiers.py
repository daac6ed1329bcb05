"""Three sentiment heads over the encoder.

- finetune: dropout on the CLS state, one linear layer; every encoder
  parameter trains jointly with the head.
- bilstm: three stacked bidirectional LSTM layers over the frozen encoder's
  token states, final forward/backward states concatenated into a linear
  layer.
- mlp: two ReLU hidden layers over the frozen encoder's CLS state.

Every head reads the encoder states at the positions ``read_positions`` names
(the CLS rows for finetune and mlp, every attended position for bilstm), and
every encoder call asks ``forward`` for those rows only, so its last layer
computes nothing else. ``head_logits`` takes them as one (R, H) tensor; bilstm
scatters them back into the zero-padded (B, T, H) layout.

Frozen means frozen: bilstm/mlp training never touches encoder tensors (a
loaded encoder's are read-only, so a write into one raises), their saved
model hard-links the encoder's unchanged ``params.bin`` instead of writing it
again (see ``save_sentiment_model``), and their features, those read rows,
are precomputed once per dataset, without a graph, row after row; each drawn
batch takes its rows' features. Evaluation (``predict_encoded`` and
everything built on it) runs under ``autodiff.no_grad`` too; training loops
always record a graph. Training passes each batch's dropout stream
(``epoch_batches``) to ``forward`` and ``head_logits`` and ends each step with
``bert.train_step``, as pretraining does; evaluation passes none.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, backward  # noqa: F401
from .bert import (
    ModelParams, epoch_batches, forward, init_params, load_checkpoint, save_checkpoint, train_step
)
from .checkpoint import (
    atomic_write_json, check_fields, check_tensors, from_dict, read_blob, read_json, write_blob
)
from .corpus import LabeledExample, SentimentLabel
from .normalize import NormalizationRules, normalize_text
from .optim import AdamState, adam_step  # noqa: F401
# ``encode``, ``backward`` and ``adam_step`` are unused here (``bert.train_step`` runs every step),
# but the traced benchmark patches ``classifiers.encode``, ``.backward`` and ``.adam_step`` by name
from .wordpiece import Vocab, encode, encode_batch  # noqa: F401

# head kind -> the head_config.json "head_meta" it needs: key -> type
HEAD_META_TYPES = {
    "finetune": {}, "bilstm": {"lstm_hidden": int, "num_layers": int}, "mlp": {"hidden_sizes": list[int]}
}
_HEAD_CONFIG = {"kind": str, "encoder_ref": str, "head_meta": dict, "train_config": dict}
GATES = ("input", "forget", "cell", "output")
LABEL_ORDERS = {
    2: [SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE],
    3: [SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE, SentimentLabel.NEUTRAL],
}
# Rows per eval-mode encoder forward: its packed states and attention stay one chunk's size
EVAL_ROWS = 32


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
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
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


def check_widths(head_meta: dict, where: str) -> dict:
    """Return ``head_meta`` unchanged once each width in it (``lstm_hidden``, ``num_layers``,
    every ``hidden_sizes`` entry) is >= 1 and ``hidden_sizes`` holds at least one; else a
    ValueError naming ``where`` and the key."""
    for key, value in head_meta.items():
        if value == []:
            raise ValueError(f"{where} key {key!r} must hold at least one width, got []")
        if min(value if isinstance(value, list) else [value]) < 1:
            raise ValueError(f"{where} key {key!r} must be >= 1, got {value!r}")
    return head_meta


def head_shapes(kind: str, hidden: int, num_classes: int, head_meta: dict) -> dict[str, tuple[int, ...]]:
    """Head tensor name -> shape, in allocation order, over a ``hidden``-wide encoder.

    mlp: a weight and a bias per layer; bilstm: per layer, direction and gate,
    input weights (D_in x D_h), recurrent weights (D_h x D_h) and a bias, then
    the linear layer on the concatenated final states that finetune has alone.
    """
    check_widths(head_meta, "head_meta")
    shapes: dict[str, tuple[int, ...]] = {}
    if kind == "mlp":
        widths = [hidden, *head_meta["hidden_sizes"], num_classes]
        for i, (d_in, d_out) in enumerate(zip(widths, widths[1:]), start=1):
            shapes[f"head.w{i}"] = (d_in, d_out)
            shapes[f"head.b{i}"] = (d_out,)
        return shapes
    d_in = hidden
    if kind == "bilstm":
        d_h = head_meta["lstm_hidden"]
        for layer in range(head_meta["num_layers"]):
            for direction in ("fwd", "bwd"):
                for gate in GATES:
                    prefix = f"lstm{layer}.{direction}.{gate}"
                    shapes[f"{prefix}.w_x"] = (d_in, d_h)
                    shapes[f"{prefix}.w_h"] = (d_h, d_h)
                    shapes[f"{prefix}.b"] = (d_h,)
            d_in = 2 * d_h
    elif kind != "finetune":
        raise ValueError(f"unknown head kind {kind!r}")
    shapes["head.weight"] = (d_in, num_classes)
    shapes["head.bias"] = (num_classes,)
    return shapes


def init_model(kind: str, encoder: ModelParams, config: TrainConfig, head_meta: dict) -> SentimentModel:
    """An untrained ``kind`` head over ``encoder``, its tensors drawn from ``config.seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(9,)))
    shapes = head_shapes(kind, encoder.config.hidden_size, config.num_classes, head_meta)
    return SentimentModel(
        encoder=encoder,
        head_kind=kind,
        head_params=init_params(shapes, rng, encoder.params[0].data.dtype),
        labels=LABEL_ORDERS[config.num_classes],
        train_config=config,
        head_meta=head_meta,
    )


def bilstm_summary(
    by_name: dict[str, Parameter],
    states: Tensor,
    attention_mask: np.ndarray,
    num_layers: int,
    lstm_hidden: int,
    dropout_rate: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """Concatenated final forward/backward states of the top layer.

    Each layer is one ``lstm_layer`` over the time-major states, with dropout
    between layers and on the summary when ``rng`` is given (training). The
    forward direction ends at the last step, the backward one at the first.
    """
    batch, seq_len, _ = states.shape
    x = ad.transpose(states, (1, 0, 2))
    for layer in range(num_layers):
        weights = [
            by_name[f"lstm{layer}.{direction}.{gate}.{kind}"]
            for direction in ("fwd", "bwd")
            for gate in GATES
            for kind in ("w_x", "w_h", "b")
        ]
        x = ad.lstm_layer(x, weights, attention_mask, lstm_hidden)
        if layer < num_layers - 1:
            x = ad.dropout(x, dropout_rate, rng)
    final_fwd = ad.narrow(ad.narrow(x, 0, seq_len - 1, 1), 2, 0, lstm_hidden)
    final_bwd = ad.narrow(ad.narrow(x, 0, 0, 1), 2, lstm_hidden, lstm_hidden)
    summary = ad.reshape(ad.concat([final_fwd, final_bwd], axis=2), (batch, 2 * lstm_hidden))
    return ad.dropout(summary, dropout_rate, rng)


def read_positions(masks: np.ndarray, kind: str) -> np.ndarray:
    """The flat (B*T) positions a ``kind`` head reads of a (B, T) batch, ascending: each
    row's CLS position ``b * T`` for finetune and mlp, every attended position for bilstm."""
    if kind == "bilstm":
        return np.flatnonzero(masks)
    return np.arange(len(masks)) * masks.shape[1]


def head_logits(
    model: SentimentModel,
    reads: Tensor,
    attention_mask: np.ndarray,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logits of the head over ``reads``, the (R, H) encoder states of the positions
    ``read_positions`` names in the (B, T) ``attention_mask``; bilstm puts them back into
    the zero-padded (B, T, H) layout. The head drops out when given ``rng`` (training)."""
    by_name = model.head_by_name
    rate = model.train_config.dropout_rate
    if model.head_kind == "finetune":
        x = ad.dropout(reads, rate, rng)
        return ad.matmul(x, by_name["head.weight"], by_name["head.bias"])
    if model.head_kind == "mlp":
        sizes = model.head_meta["hidden_sizes"]
        x = reads
        for i in range(1, len(sizes) + 2):
            x = ad.matmul(x, by_name[f"head.w{i}"], by_name[f"head.b{i}"])
            if i <= len(sizes):
                x = ad.relu(x)
            if i == 1:
                x = ad.dropout(x, rate, rng)
        return x
    if model.head_kind == "bilstm":
        batch, seq_len = attention_mask.shape
        flat = ad.scatter_rows(reads, read_positions(attention_mask, "bilstm"), batch * seq_len)
        summary = bilstm_summary(
            by_name,
            ad.reshape(flat, (batch, seq_len, reads.shape[1])),
            attention_mask,
            model.head_meta["num_layers"],
            model.head_meta["lstm_hidden"],
            rate,
            rng,
        )
        return ad.matmul(summary, by_name["head.weight"], by_name["head.bias"])
    raise ValueError(f"unknown head kind {model.head_kind!r}")


def check_labels(dataset, labels) -> None:
    """Every example's label is one of ``labels``; a 'neutral' one for a 2-class head names to-binary."""
    allowed = set(labels)
    for ex in dataset:
        if ex.label not in allowed:
            if ex.label is SentimentLabel.NEUTRAL:
                raise ValueError(
                    "dataset contains 'neutral' examples but num_classes is 2; "
                    "apply to_binary (CLI: to-binary) first"
                )
            raise ValueError(f"label {ex.label.value!r} outside configured label set")


def _check_inputs(dataset, labels, config: TrainConfig, encoder: ModelParams) -> None:
    """A non-empty dataset with labels in ``labels`` and a ``max_len`` the encoder fits."""
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    check_labels(dataset, labels)
    if config.max_len > encoder.config.max_position:
        raise ValueError(
            f"max_len {config.max_len} exceeds encoder max_position "
            f"{encoder.config.max_position}"
        )


def _label_indices(dataset, labels):
    index = {label: i for i, label in enumerate(labels)}
    return np.array([index[ex.label] for ex in dataset], dtype=np.int64)


def _frozen_features(encoder, ids, masks, kind):
    """The eval-mode encoder states at ``read_positions(masks, kind)``, computed without a
    graph, row after row: (rows, H) CLS states for mlp, (attended positions, H) for bilstm."""
    rows = len(read_positions(masks, kind))
    # filled in place: a list of chunks joined at the end would hold every value twice
    features = np.empty((rows, encoder.config.hidden_size), encoder.params[0].data.dtype)
    filled = 0
    with ad.no_grad():
        for start in range(0, len(ids), EVAL_ROWS):
            chunk = slice(start, start + EVAL_ROWS)
            positions = read_positions(masks[chunk], kind)
            # the array the head reads, only: what is bound here lives through the next forward
            part = forward(encoder, ids[chunk], masks[chunk], positions=positions).data
            features[filled : filled + len(part)] = part
            filled += len(part)
    return features


def _train_head(model, encoder, vocab, dataset, config):
    """One ``train_step`` per seeded batch. finetune runs the encoder on each batch and trains
    it with the head; bilstm and mlp train the head alone on frozen features computed once."""
    _check_inputs(dataset, model.labels, config, encoder)
    ids, masks = encode_batch([ex.text for ex in dataset], vocab, config.max_len)
    targets = _label_indices(dataset, model.labels)
    kind = model.head_kind
    joint = kind == "finetune"
    if joint:
        trainable = encoder.params + model.head_params
    else:
        trainable = model.head_params
        features = _frozen_features(encoder, ids, masks, kind)
        # row r's features are features[offsets[r] : offsets[r] + counts[r]]
        counts = np.bincount(read_positions(masks, kind) // ids.shape[1], minlength=len(ids))
        offsets = np.cumsum(counts) - counts
    optimizer = AdamState(lr=config.learning_rate)
    for epoch in range(config.epochs):
        for _, pick, drop_rng in epoch_batches(len(dataset), config.batch_size, config.seed, epoch):
            if joint:
                reads = forward(encoder, ids[pick], masks[pick], drop_rng,
                                positions=read_positions(masks[pick], kind))
            else:
                # the picked rows' features, row after row; starts: each row's first read in the batch
                n = counts[pick]
                starts = np.cumsum(n) - n
                reads = Tensor(features[np.arange(n.sum()) + np.repeat(offsets[pick] - starts, n)])
            loss = ad.cross_entropy(head_logits(model, reads, masks[pick], drop_rng), targets[pick])
            step = len(model.train_losses) + 1
            model.train_losses.append(train_step(loss, trainable, optimizer, epoch, step))
    return model


def train_finetune(
    encoder: ModelParams, vocab: Vocab, dataset: list[LabeledExample], config: TrainConfig
) -> SentimentModel:
    """Joint training of all encoder parameters plus a linear head on CLS."""
    return _train_head(init_model("finetune", encoder, config, {}), encoder, vocab, dataset, config)


def train_bilstm(
    encoder: ModelParams,
    vocab: Vocab,
    dataset: list[LabeledExample],
    config: TrainConfig,
    lstm_hidden: int = 128,
    num_layers: int = 3,
) -> SentimentModel:
    model = init_model("bilstm", encoder, config, {"lstm_hidden": lstm_hidden, "num_layers": num_layers})
    return _train_head(model, encoder, vocab, dataset, config)


def train_mlp(
    encoder: ModelParams,
    vocab: Vocab,
    dataset: list[LabeledExample],
    config: TrainConfig,
    hidden_sizes: tuple[int, ...] = (256, 64),
) -> SentimentModel:
    model = init_model("mlp", encoder, config, {"hidden_sizes": list(hidden_sizes)})
    return _train_head(model, encoder, vocab, dataset, config)


def predict_encoded(model: SentimentModel, ids: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Class probabilities for pre-encoded rows, eval mode, without a graph, EVAL_ROWS rows a forward."""
    probs = []
    with ad.no_grad():
        for start in range(0, len(ids), EVAL_ROWS):
            chunk = slice(start, start + EVAL_ROWS)
            positions = read_positions(masks[chunk], model.head_kind)
            reads = forward(model.encoder, ids[chunk], masks[chunk], positions=positions)
            probs.append(ad.softmax(head_logits(model, reads, masks[chunk])).data)
    return np.concatenate(probs)


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
    labels.json with the class order.

    A frozen (bilstm, mlp) head's encoder is still the one ``load_checkpoint``
    returned, so ``save_checkpoint`` hard-links its source ``params.bin`` when it
    can; a finetuned encoder is written. The directory's bytes are the same either way.
    """
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
    atomic_write_json(
        os.path.join(directory, "head_config.json"),
        {
            "kind": model.head_kind,
            "encoder_ref": "encoder",
            "head_meta": model.head_meta,
            "train_config": asdict(model.train_config),
        },
    )


def load_sentiment_model(directory: str) -> SentimentModel:
    config_path = os.path.join(directory, "head_config.json")
    meta = check_fields(read_json(config_path), _HEAD_CONFIG, config_path, _HEAD_CONFIG)
    if meta["kind"] not in HEAD_META_TYPES:
        raise ValueError(f"{config_path}: unknown head kind {meta['kind']!r}")
    head_types = HEAD_META_TYPES[meta["kind"]]
    where = f"{config_path}: head_meta"
    head_meta = check_widths(check_fields(meta["head_meta"], head_types, where, head_types), where)
    train_config = from_dict(TrainConfig, meta["train_config"], f"{config_path}: train_config")
    # the head's outputs are LABEL_ORDERS' classes; labels.json repeats them for readers
    labels = LABEL_ORDERS[train_config.num_classes]
    labels_path = os.path.join(directory, "labels.json")
    if read_json(labels_path) != [label.value for label in labels]:
        raise ValueError(f"{labels_path}: expected {[label.value for label in labels]}")
    # save_sentiment_model embeds the encoder here; any other path would load one from elsewhere
    if meta["encoder_ref"] != "encoder":
        raise ValueError(f"{config_path}: encoder_ref must be 'encoder', got {meta['encoder_ref']!r}")
    encoder, _ = load_checkpoint(os.path.join(directory, "encoder"))
    if train_config.max_len > encoder.config.max_position:
        raise ValueError(f"{config_path}: train_config key 'max_len' must be <= the encoder's max_position "
                         f"{encoder.config.max_position}, got {train_config.max_len}")
    head_path = os.path.join(directory, "head.bin")
    arrays, _ = read_blob(head_path, os.path.join(directory, "head_manifest.json"))
    # 24 tensors a bilstm layer: the blob cannot hold a larger claim, whose shape table alone
    # could exhaust memory
    if 24 * head_meta.get("num_layers", 0) > len(arrays):
        raise ValueError(f"{config_path}: head_meta key 'num_layers' {head_meta['num_layers']} needs more "
                         f"tensors than the {len(arrays)} in {head_path}")
    shapes = head_shapes(meta["kind"], encoder.config.hidden_size, train_config.num_classes, head_meta)
    check_tensors(arrays, shapes, head_path)
    return SentimentModel(
        encoder=encoder,
        head_kind=meta["kind"],
        head_params=[Parameter(name, arrays[name]) for name in shapes],
        labels=labels,
        train_config=train_config,
        head_meta=head_meta,
    )
