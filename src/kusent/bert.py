"""BERT-style transformer encoder with masked-language-model pretraining.

Single-segment inputs only (the segment table exists for format
compatibility and is always indexed with zeros). The MLM output projection
is tied to the token embedding table. Pretraining honors both an epoch count
and an optional iteration cap, whichever is reached first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import logging
import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, backward, truncated_normal
from .checkpoint import (
    FileIdentity, atomic_write_json, check_fields, check_tensors, field_types, from_dict, link_blob,
    read_blob, read_json, write_blob, write_manifest,
)
from .optim import AdamState, adam_step
# ``encode`` is unused here, but the traced benchmark patches ``bert.encode`` by name
from .wordpiece import CLS, MASK, PAD, SEP, Vocab, encode, encode_batch  # noqa: F401

logger = logging.getLogger(__name__)

IGNORE_INDEX = -100
INIT_STD = 0.02
N_RESERVED_IDS = 5  # PAD, UNK, CLS, SEP, MASK

# Aliases as the pretraining config tables spell them
_CONFIG_ALIASES = {"Itrations": "iterations", "batch_szie": "batch_size"}
# state.json beside a checkpoint that holds training state: key -> type
_ADAM_STATE = {"lr": float, "beta1": float, "beta2": float, "eps": float, "step_count": int}
_TRAIN_STATE = {
    "adam": dict, "next_epoch": int, "global_step": int, "seed": int, "threads": dict, "corpus_sha256": str
}


@dataclass(frozen=True)
class BertConfig:
    hidden_size: int
    num_hidden_layers: int
    num_attention_heads: int
    vocab_size: int
    max_position: int = 512
    intermediate_size: int | None = None
    dropout_rate: float = 0.1
    epochs: int = 1
    iterations: int | None = None
    batch_size: int = 12

    def __post_init__(self) -> None:
        if self.intermediate_size is None:
            object.__setattr__(self, "intermediate_size", 4 * self.hidden_size)
        for name in ("hidden_size", "num_hidden_layers", "num_attention_heads", "vocab_size",
                     "max_position", "intermediate_size", "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.hidden_size % self.num_attention_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} is not divisible by "
                f"num_attention_heads {self.num_attention_heads}"
            )
        if self.vocab_size < 6:
            raise ValueError(f"vocab_size must be >= 6, got {self.vocab_size}")
        if self.max_position < 3:
            raise ValueError(f"max_position must be >= 3, got {self.max_position}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict, where: str = "BertConfig") -> "BertConfig":
        """Build from a JSON object that may use the table spellings and ``GPU``;
        ``where`` starts any error message, e.g. the file the object came from."""
        cleaned: dict = {}
        for key, value in check_fields(raw, BERT_CONFIG_TYPES, where).items():
            if key == "GPU":
                logger.warning("config field 'GPU' is parsed but ignored: CPU execution only")
                continue
            name = _CONFIG_ALIASES.get(key, key)
            if name in cleaned and cleaned[name] != value:
                raise ValueError(f"{where}: conflicting values for config key {name!r}")
            cleaned[name] = value
        return from_dict(cls, cleaned, where)


# key -> type of a bert config: the fields, their table spellings, and GPU
BERT_CONFIG_TYPES = field_types(BertConfig)
BERT_CONFIG_TYPES.update(
    {alias: BERT_CONFIG_TYPES[name] for alias, name in _CONFIG_ALIASES.items()}, GPU=object
)

# The four pretraining presets (hidden 384/768 x epochs 10/20)
PRETRAIN_PRESETS = {
    "model1": dict(hidden_size=384, epochs=10, iterations=1_000_000),
    "model2": dict(hidden_size=384, epochs=20, iterations=2_000_000),
    "model3": dict(hidden_size=768, epochs=10, iterations=1_000_000),
    "model4": dict(hidden_size=768, epochs=20, iterations=2_000_000),
}


def preset_config(name: str, **overrides) -> BertConfig:
    if name not in PRETRAIN_PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRETRAIN_PRESETS)}")
    base = dict(
        PRETRAIN_PRESETS[name],
        num_hidden_layers=6,
        num_attention_heads=12,
        vocab_size=50_000,
        batch_size=12,
    )
    base.update(overrides)
    return BertConfig(**base)


def expected_shapes(config: BertConfig) -> dict[str, tuple[int, ...]]:
    """Tensor name -> shape, in allocation order."""
    h, i, v, p = (
        config.hidden_size,
        config.intermediate_size,
        config.vocab_size,
        config.max_position,
    )
    shapes: dict[str, tuple[int, ...]] = {
        "embeddings.token": (v, h),
        "embeddings.position": (p, h),
        "embeddings.segment": (2, h),
        "embeddings.norm.gain": (h,),
        "embeddings.norm.bias": (h,),
    }
    for layer in range(config.num_hidden_layers):
        prefix = f"layer{layer}"
        for proj in ("q", "k", "v", "o"):
            shapes[f"{prefix}.attn.{proj}.weight"] = (h, h)
            shapes[f"{prefix}.attn.{proj}.bias"] = (h,)
        shapes[f"{prefix}.attn.norm.gain"] = (h,)
        shapes[f"{prefix}.attn.norm.bias"] = (h,)
        shapes[f"{prefix}.ffn.w1"] = (h, i)
        shapes[f"{prefix}.ffn.b1"] = (i,)
        shapes[f"{prefix}.ffn.w2"] = (i, h)
        shapes[f"{prefix}.ffn.b2"] = (h,)
        shapes[f"{prefix}.ffn.norm.gain"] = (h,)
        shapes[f"{prefix}.ffn.norm.bias"] = (h,)
    shapes["mlm.transform.weight"] = (h, h)
    shapes["mlm.transform.bias"] = (h,)
    shapes["mlm.norm.gain"] = (h,)
    shapes["mlm.norm.bias"] = (h,)
    shapes["mlm.out_bias"] = (v,)
    return shapes


@dataclass(frozen=True)
class ParamsSource:
    """The ``params.bin`` a model was loaded from: its absolute path, the identity of the file
    read, and weak references to the arrays read from it, one per parameter in order."""

    path: str
    identity: FileIdentity
    arrays: tuple[weakref.ref, ...]


class ModelParams:
    """Named parameter tensors of one encoder, in fixed allocation order; ``source`` is set
    by ``load_checkpoint``."""

    def __init__(self, config: BertConfig, params: list[Parameter], source: ParamsSource | None = None):
        self.config = config
        self.params = params
        self.source = source
        self.by_name = {p.name: p for p in params}
        if len(self.by_name) != len(params):
            raise ValueError("duplicate parameter names")

    def __getitem__(self, name: str) -> Parameter:
        return self.by_name[name]

    def n_values(self) -> int:
        return sum(p.data.size for p in self.params)


def init_params(shapes: dict[str, tuple[int, ...]], rng, dtype) -> list[Parameter]:
    """One Parameter per entry of ``shapes``, in order: a ``gain`` is ones, any other 1-D
    tensor zeros, every other tensor truncated normal drawn from ``rng``."""
    params = []
    for name, shape in shapes.items():
        if name.endswith("gain"):
            data = np.ones(shape, dtype=dtype)
        elif len(shape) == 1:
            data = np.zeros(shape, dtype=dtype)
        else:
            data = truncated_normal(shape, INIT_STD, rng, dtype=dtype)
        params.append(Parameter(name, data))
    return params


# What one tensor costs besides its values: its Parameter, array and name objects and its
# shape-table entry. A 320k-tensor model of hidden size 4 measured about 710 bytes each.
_TENSOR_BYTES = 1024


def build_model(config: BertConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Allocate and initialize all tensors; deterministic for a given seed.

    A config whose tensors need more bytes than the machine's physical memory, counting
    their values and ``_TENSOR_BYTES`` of objects each, is refused before anything is
    allocated, the shape table included.
    """
    n_params, n_tensors = count_params(config), count_tensors(config)
    needed = n_params * np.dtype(dtype).itemsize + n_tensors * _TENSOR_BYTES
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > memory:
        raise ValueError(
            f"a model of {n_params} parameters needs {needed} bytes in {n_tensors} tensors, "
            f"more than the {memory} bytes of physical memory"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return ModelParams(config, init_params(expected_shapes(config), rng, dtype))


def count_tensors(config: BertConfig) -> int:
    """Closed-form tensor count; must equal ``len(expected_shapes(config))``."""
    return 10 + 16 * config.num_hidden_layers


def count_params(config: BertConfig) -> int:
    """Closed-form parameter count; must equal enumeration over the tensors."""
    h, i, v, p = (
        config.hidden_size,
        config.intermediate_size,
        config.vocab_size,
        config.max_position,
    )
    embeddings = v * h + p * h + 2 * h + 2 * h
    per_layer = 4 * (h * h + h) + 2 * (2 * h) + (h * i + i) + (i * h + h)
    mlm_head = h * h + h + 2 * h + v  # output projection is tied, bias is not
    return embeddings + config.num_hidden_layers * per_layer + mlm_head


def forward(
    model: ModelParams,
    input_ids: np.ndarray,
    attention_mask: np.ndarray,
    dropout_rng: np.random.Generator | None = None,
    *,
    positions: np.ndarray | None = None,
) -> tuple[Tensor, Tensor] | Tensor:
    """Encode a batch: returns (sequence states B x T x H, CLS state B x H), or with
    ``positions`` only the (R, H) states of those positions.

    ``attention_mask`` holds 0/1 in the shape of ``input_ids`` and attends
    position 0 (CLS) of every row. The attended positions are gathered once,
    and every token-wise layer (embeddings, projections, FFN, layer norms and
    their dropouts) runs on those N rows only. Each layer's attention core is
    one ``autodiff.attention`` call on the raw packed Q, K and V and the mask,
    which scales Q and runs each row over its attended positions only, so the
    batch's padded width changes no bit. The states are exactly zero at pad
    positions. K is computed without ``layerN.attn.k.bias``: softmax ignores a
    bias on every key, so the tensor stays in the format and gets no gradient.

    ``positions`` names the flat (B*T) positions the caller reads, strictly
    ascending and attended: the masked positions for the MLM loss, ``b * T``
    for the CLS rows. The last layer then computes K and V for every attended
    row, and Q, the attention context (``attention``'s query subset), the
    output projection, both layer norms, the FFN and their dropouts for the
    read rows only. Without dropout those rows equal the full forward's rows
    to float32 rounding: the GEMMs of fewer rows may sum in another order.

    Given ``dropout_rng`` (training), each dropout draws a keep mask for
    exactly the array it masks (``autodiff.dropout``): the packed (N, H) rows,
    or in the last layer with ``positions`` the (R, H) read rows, and in
    attention each group's probabilities. Without it nothing is dropped.
    """
    config = model.config
    input_ids = np.asarray(input_ids)
    attention_mask = np.asarray(attention_mask)
    batch, seq_len = input_ids.shape
    if seq_len > config.max_position:
        raise ValueError(
            f"sequence length {seq_len} exceeds max_position {config.max_position}"
        )
    if input_ids.max() >= config.vocab_size or input_ids.min() < 0:
        bad = int(input_ids.min()) if input_ids.min() < 0 else int(input_ids.max())
        raise ValueError(f"token id {bad} out of range for vocab_size {config.vocab_size}")
    if (
        attention_mask.shape != input_ids.shape
        or not np.isin(attention_mask, (0, 1)).all()
        or not (attention_mask[:, :1] == 1).all()
    ):
        raise ValueError(
            f"attention_mask must hold only 0/1 in the shape of input_ids {input_ids.shape}, "
            f"with position 0 attended in every row"
        )
    rate = config.dropout_rate
    hidden_size = config.hidden_size
    # the attended positions, as rows of the flattened (B*T, H) layout
    rows = np.flatnonzero(attention_mask)
    reads = None
    if positions is not None:
        positions = np.asarray(positions)
        if positions.ndim != 1 or (np.diff(positions) <= 0).any() or not np.isin(positions, rows).all():
            raise ValueError("positions must be attended flat positions of the batch, strictly ascending")
        reads = np.searchsorted(rows, positions)

    tok = ad.embedding_lookup(model["embeddings.token"], input_ids.reshape(-1)[rows])
    pos = ad.embedding_lookup(model["embeddings.position"], rows % seq_len)
    seg = ad.embedding_lookup(model["embeddings.segment"], np.zeros_like(rows))
    x = ad.add(ad.add(tok, pos), seg)
    x = ad.layer_norm(x, model["embeddings.norm.gain"], model["embeddings.norm.bias"])
    x = ad.dropout(x, rate, dropout_rng)

    last = config.num_hidden_layers - 1
    for layer in range(config.num_hidden_layers):
        prefix = f"layer{layer}"

        def proj(name, inp):
            w = model[f"{prefix}.attn.{name}.weight"]
            b = model[f"{prefix}.attn.{name}.bias"]
            return ad.matmul(inp, w, b)

        # the rows that query; in the last layer with positions, only the rows read
        queries = reads if layer == last else None
        x_query = x if queries is None else ad.gather_rows(x, queries)
        # no K bias: it shifts all of a query's scores by q·b, which softmax ignores
        k = ad.matmul(x, model[f"{prefix}.attn.k.weight"])
        ctx = ad.attention(proj("q", x_query), k, proj("v", x), config.num_attention_heads,
                           attention_mask, rate, dropout_rng, queries)
        attn_out = ad.matmul(
            ctx, model[f"{prefix}.attn.o.weight"], model[f"{prefix}.attn.o.bias"]
        )
        attn_out = ad.dropout(attn_out, rate, dropout_rng)
        x = ad.layer_norm(
            ad.add(x_query, attn_out),
            model[f"{prefix}.attn.norm.gain"],
            model[f"{prefix}.attn.norm.bias"],
        )
        hidden = ad.gelu(ad.matmul(x, model[f"{prefix}.ffn.w1"], model[f"{prefix}.ffn.b1"]))
        ffn_out = ad.matmul(hidden, model[f"{prefix}.ffn.w2"], model[f"{prefix}.ffn.b2"])
        ffn_out = ad.dropout(ffn_out, rate, dropout_rng)
        x = ad.layer_norm(
            ad.add(x, ffn_out),
            model[f"{prefix}.ffn.norm.gain"],
            model[f"{prefix}.ffn.norm.bias"],
        )

    if positions is not None:
        return x
    states = ad.reshape(ad.scatter_rows(x, rows, batch * seq_len), (batch, seq_len, hidden_size))
    # row b's CLS, its position 0, is the packed row of flat position b * T
    cls_state = ad.gather_rows(x, np.searchsorted(rows, np.arange(batch) * seq_len))
    return states, cls_state


def mlm_logits(model: ModelParams, sequence_states: Tensor) -> Tensor:
    """Vocabulary logits from sequence states, tied to the token embeddings."""
    batch, seq_len, hidden = sequence_states.shape
    h = ad.gelu(
        ad.matmul(
            sequence_states, model["mlm.transform.weight"], model["mlm.transform.bias"]
        )
    )
    h = ad.layer_norm(h, model["mlm.norm.gain"], model["mlm.norm.bias"])
    flat = ad.reshape(h, (batch * seq_len, hidden))
    # the tied decoder, x @ tableᵀ, takes its gradient in the table's own (V, H) layout
    logits = ad.linear(flat, model["embeddings.token"], model["mlm.out_bias"])
    return ad.reshape(logits, (batch, seq_len, model.config.vocab_size))


def masked_positions(labels: np.ndarray) -> np.ndarray:
    """The flat positions whose label is not IGNORE_INDEX, ascending: what the MLM loss reads."""
    return np.flatnonzero(np.asarray(labels).reshape(-1) != IGNORE_INDEX)


def mlm_loss(model: ModelParams, masked_states: Tensor, labels: np.ndarray) -> Tensor:
    """Mean MLM cross-entropy over the positions whose label is not IGNORE_INDEX.

    ``masked_states`` holds the (R, H) states of exactly those positions, in
    order: ``forward(..., positions=masked_positions(labels))``, as BERT's
    ``masked_lm_positions`` gather does, so neither the last encoder layer nor
    the H x V logit GEMM runs on an unmasked position. On the same states this
    equals ``cross_entropy(mlm_logits(model, states), labels)``; it is 0 with
    zero gradients when nothing is masked.
    """
    targets = np.asarray(labels).reshape(-1)[masked_positions(labels)]
    if masked_states.shape != (targets.size, model.config.hidden_size):
        raise ValueError(f"mlm_loss: states {masked_states.shape} are not the {targets.size} masked rows")
    hidden = ad.reshape(masked_states, (1,) + masked_states.shape)
    return ad.cross_entropy(mlm_logits(model, hidden), targets[None, :])


@dataclass
class MlmBatch:
    input_ids: np.ndarray
    labels: np.ndarray
    attention_mask: np.ndarray


def mask_for_mlm(
    input_ids: np.ndarray,
    attention_mask: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    vocab_size: int,
) -> MlmBatch:
    """Select eligible tokens with probability ``rate``; of those, 80% become
    MASK, 10% a random non-special id, 10% stay unchanged. Labels hold the
    originals at selected positions and IGNORE_INDEX elsewhere."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mask rate must be in (0, 1), got {rate}")
    input_ids = np.asarray(input_ids)
    attention_mask = np.asarray(attention_mask)
    eligible = (attention_mask == 1) & ~np.isin(input_ids, (PAD, CLS, SEP))
    selected = eligible & (rng.random(input_ids.shape) < rate)
    action = rng.random(input_ids.shape)
    random_ids = rng.integers(N_RESERVED_IDS, vocab_size, size=input_ids.shape)
    masked = np.where(selected & (action < 0.8), MASK, input_ids)
    masked = np.where(selected & (action >= 0.8) & (action < 0.9), random_ids, masked)
    labels = np.where(selected, input_ids, IGNORE_INDEX)
    return MlmBatch(input_ids=masked, labels=labels, attention_mask=attention_mask)


def thread_settings() -> dict:
    """BLAS threading environment; parallel matmul is only bit-reproducible
    for a fixed thread count, so checkpoints record what was in effect."""
    return {
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def save_checkpoint(
    directory: str,
    model: ModelParams,
    optimizer: AdamState | None = None,
    train_state: dict | None = None,
) -> None:
    """Write ``model`` (and training state, if given) as a checkpoint in ``directory``.

    ``params.bin`` becomes a hard link to the file the model was loaded from when
    every parameter is still its loaded, read-only array and that file is still the
    one read (``checkpoint.link_blob``), so its bytes are the ones a write would give;
    otherwise, or if the link fails, it is written. The other files are always written.
    """
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(os.path.join(directory, "config.json"), model.config.to_dict())
    named = [(p.name, p.data) for p in model.params]
    params_path = os.path.join(directory, "params.bin")
    manifest_path = os.path.join(directory, "manifest.json")
    if _links_source(model, params_path):
        write_manifest(named, manifest_path)
    else:
        write_blob(named, params_path, manifest_path)
    if optimizer is not None:
        arrays = [(f"m.{p.name}", optimizer.m[p.name]) for p in model.params if p.name in optimizer.m]
        arrays += [(f"v.{p.name}", optimizer.v[p.name]) for p in model.params if p.name in optimizer.v]
        write_blob(
            arrays,
            os.path.join(directory, "optim.bin"),
            os.path.join(directory, "optim_manifest.json"),
        )
        state = dict(train_state or {})
        state["adam"] = {key: getattr(optimizer, key) for key in _ADAM_STATE}
        state["threads"] = thread_settings()
        atomic_write_json(os.path.join(directory, "state.json"), state)


def _links_source(model: ModelParams, params_path: str) -> bool:
    """Whether ``params_path`` now is a hard link to the unchanged file ``model`` was loaded from."""
    source = model.source
    if source is None or len(source.arrays) != len(model.params):
        return False
    # a parameter no longer its loaded array, or made writeable again, may hold other bytes
    loaded = zip(source.arrays, model.params)
    if not all(ref() is p.data and not p.data.flags.writeable for ref, p in loaded):
        return False
    return link_blob(source.path, source.identity, params_path)


def load_checkpoint(directory: str) -> tuple[ModelParams, BertConfig]:
    """Load a checkpoint, validating every tensor shape against its config.

    Every returned tensor is read-only: a save may share its file's bytes by a hard
    link, so an in-place write raises, and ``adam_step`` trains a private copy.
    """
    config_path = os.path.join(directory, "config.json")
    config = BertConfig.from_dict(read_json(config_path), config_path)
    params_path = os.path.join(directory, "params.bin")
    arrays, identity = read_blob(params_path, os.path.join(directory, "manifest.json"))
    # 16 tensors a layer: the blob cannot hold a larger claim, whose shape table alone
    # could exhaust memory
    if 16 * config.num_hidden_layers > len(arrays):
        raise ValueError(f"{config_path}: num_hidden_layers {config.num_hidden_layers} needs more "
                         f"tensors than the {len(arrays)} in {params_path}")
    shapes = expected_shapes(config)
    check_tensors(arrays, shapes, params_path)
    for arr in arrays.values():
        arr.flags.writeable = False
    params = [Parameter(name, arrays[name]) for name in shapes]
    # the file holds the tensors one after another in manifest order; only when that is
    # parameter order are its bytes the ones save_checkpoint would write
    source = None
    if list(arrays) == list(shapes):
        refs = tuple(weakref.ref(p.data) for p in params)
        source = ParamsSource(os.path.abspath(params_path), identity, refs)
    return ModelParams(config, params, source), config


def _load_train_state(directory: str, model: ModelParams) -> tuple[AdamState, dict]:
    path = os.path.join(directory, "state.json")
    state = check_fields(read_json(path), _TRAIN_STATE, path, _TRAIN_STATE)
    adam = check_fields(state["adam"], _ADAM_STATE, f"{path}: adam", _ADAM_STATE)
    try:
        optimizer = AdamState(**adam)
    except ValueError as exc:
        raise ValueError(f"{path}: adam: {exc}") from None
    optim_path = os.path.join(directory, "optim.bin")
    arrays, _ = read_blob(optim_path, os.path.join(directory, "optim_manifest.json"))
    # Adam's moments exist for every parameter once a step ran, for none before
    trained = model.params if optimizer.step_count else []
    moments = {f"{m}.{p.name}": p.data.shape for m in ("m", "v") for p in trained}
    check_tensors(arrays, moments, optim_path)
    for p in trained:
        optimizer.m[p.name] = arrays[f"m.{p.name}"]
        optimizer.v[p.name] = arrays[f"v.{p.name}"]
    return optimizer, state


def epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    """Yield ``(batch_idx, pick, dropout_rng)`` for one epoch over ``n`` rows.

    ``batch_idx`` is the offset of the batch in the epoch's permutation and
    ``pick`` the row indices it holds. ``dropout_rng`` is the batch's dropout
    stream; passing it to ``forward`` (or a head's ``head_logits``) is what
    makes that call drop out. The permutation derives from ``(seed, epoch)``
    and the dropout stream from ``(seed, epoch, batch_idx)``, so a resumed run
    draws exactly the streams of the uninterrupted one.
    """
    order = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0, epoch))
    ).permutation(n)
    for batch_idx in range(0, n, batch_size):
        drop_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(2, epoch, batch_idx))
        )
        yield batch_idx, order[batch_idx : batch_idx + batch_size], drop_rng


def train_step(loss: Tensor, params: list[Parameter], optimizer: AdamState, epoch: int, step: int) -> float:
    """The step of pretraining and of every head: backpropagate ``loss``, take an Adam step on
    ``params`` and return the loss value.

    A NaN or infinite loss or global gradient norm stops training with a ValueError naming the
    epoch and step, before Adam writes into the parameters. Each tensor's squared norm is one
    float32 dot product, so a gradient whose squared norm overflows float32 stops it too
    (Adam's ``g * g`` would overflow there as well).
    """
    value = loss.item()
    if not math.isfinite(value):
        raise ValueError(f"non-finite training loss {value} at epoch {epoch}, step {step}")
    backward(loss)
    if not math.isfinite(sum(float(np.dot(g, g)) for g in (p.grad.ravel() for p in params))):
        raise ValueError(f"non-finite gradient norm at epoch {epoch}, step {step}")
    adam_step(params, optimizer)
    return value


def check_pretrain_values(
    learning_rate: float | None = None,
    mask_rate: float | None = None,
    log_every: int | None = None,
    max_len: int | None = None,
) -> None:
    """Refuse a value of ``pretrain`` out of its range with a ValueError naming its config key.

    A value left as None is not checked: the CLI passes the ``pretrain`` section's keys before
    it builds the model, so a bad value costs no build, and ``pretrain`` passes all four.
    """
    if learning_rate is not None and not 0 < learning_rate < math.inf:
        raise ValueError(f"pretrain.learning_rate must be > 0, got {learning_rate}")
    if mask_rate is not None and not 0 < mask_rate < 1:
        raise ValueError(f"pretrain.mask_rate must be in (0, 1), got {mask_rate}")
    if log_every is not None and log_every < 1:
        raise ValueError(f"pretrain.log_every must be >= 1, got {log_every}")
    if max_len is not None and max_len < 3:
        raise ValueError(f"pretrain.max_len must be >= 3 (CLS, one piece, SEP), got {max_len}")


@dataclass
class PretrainResult:
    losses: list[float]
    steps: int
    checkpoint_dir: str


def pretrain(
    model: ModelParams,
    corpus: list[str],
    vocab: Vocab,
    config: BertConfig,
    seed: int,
    checkpoint_dir: str,
    max_len: int = 128,
    learning_rate: float = 1e-4,
    mask_rate: float = 0.15,
    log_every: int = 50,
    resume: bool = False,
) -> PretrainResult:
    """Minimize MLM cross-entropy with Adam over the corpus.

    Stops at ``config.epochs`` or ``config.iterations`` steps, whichever
    comes first. A ``max_len`` above ``config.max_position`` is cut to it;
    ``mask_rate`` must be in (0, 1). A vocabulary of more than
    ``config.vocab_size`` pieces, and a ``checkpoint_dir`` whose nearest
    existing path is not a writable directory, are refused before the first
    step. A checkpoint (with optimizer state) is written at every epoch
    boundary and at a stop mid-epoch. Masking, shuffling, and dropout streams
    derive from (seed, epoch, batch), so a resume continues at the batch where
    the run stopped and reproduces the uninterrupted run exactly.
    Only epochs and iterations may change on resume; the stored Adam state,
    learning rate included, is used. A resume needs ``state.json`` beside
    ``params.bin``; a directory without ``params.bin`` starts fresh.
    ``state.json`` keeps a sha256 of the corpus (each line UTF-8 encoded and
    followed by a newline), and a resume on another corpus is refused. Each
    batch's lines are encoded with ``encode_batch`` as the batch is drawn, and
    ``forward`` returns the states of its masked positions only
    (``masked_positions``), which is all ``mlm_loss`` reads.
    """
    if not corpus:
        raise ValueError("cannot pretrain on an empty corpus")
    check_pretrain_values(
        learning_rate=learning_rate, mask_rate=mask_rate, log_every=log_every, max_len=max_len
    )
    if len(vocab) > config.vocab_size:
        raise ValueError(f"vocab has {len(vocab)} pieces but config.vocab_size is {config.vocab_size}: "
                         f"its last ids are out of range")
    if len(vocab) < config.vocab_size:
        logger.warning("vocab has %d pieces but config.vocab_size is %d", len(vocab), config.vocab_size)
    # save_checkpoint makes the missing directories under the nearest existing path
    existing = os.path.abspath(checkpoint_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing) or not os.access(existing, os.W_OK):
        raise ValueError(f"checkpoint directory {checkpoint_dir} is not writable: {existing} is not "
                         f"a writable directory")
    max_len = min(max_len, config.max_position)

    steps_per_epoch = -(-len(corpus) // config.batch_size)
    digest = hashlib.sha256()
    for line in corpus:
        digest.update(line.encode("utf-8") + b"\n")
    corpus_sha256 = digest.hexdigest()
    global_step = 0
    optimizer = AdamState(lr=learning_rate)
    state_path = os.path.join(checkpoint_dir, "state.json")
    # a directory with weights is a checkpoint; without state.json it cannot be resumed
    if resume and os.path.exists(os.path.join(checkpoint_dir, "params.bin")):
        if not os.path.exists(state_path):
            raise ValueError(
                f"cannot resume: {state_path} is missing, so the checkpoint holds no training state"
            )
        loaded, loaded_config = load_checkpoint(checkpoint_dir)
        resumable = dataclasses.replace(loaded_config, epochs=config.epochs, iterations=config.iterations)
        if resumable != config:
            name = next(k for k, v in resumable.to_dict().items() if getattr(config, k) != v)
            raise ValueError(
                f"checkpoint {name}={getattr(resumable, name)} does not match requested "
                f"{getattr(config, name)}; only epochs and iterations may change on resume"
            )
        # private copies of the read-only loaded tensors, taken before the moments load so that
        # the loaded buffer is freed by then and the resume's peak memory does not grow
        resumed = [lp.data.copy() for lp in loaded.params]
        del loaded
        optimizer, state = _load_train_state(checkpoint_dir, model)
        if state["seed"] != seed:
            raise ValueError(
                f"{state_path}: checkpoint seed {state['seed']} does not match requested seed {seed}"
            )
        global_step = state["global_step"]
        if state["next_epoch"] != global_step // steps_per_epoch:
            raise ValueError(
                f"{state_path}: next_epoch {state['next_epoch']} does not match step {global_step} "
                f"at {steps_per_epoch} steps per epoch; the corpus size changed"
            )
        if state["corpus_sha256"] != corpus_sha256:
            raise ValueError(
                f"{state_path}: corpus_sha256 {state['corpus_sha256']} does not match this corpus's "
                f"{corpus_sha256}; the corpus changed"
            )
        if state["threads"] != thread_settings():
            logger.warning(
                "%s was written with threads %s but this run has %s; BLAS results are "
                "bit-reproducible only at a fixed thread count",
                state_path, state["threads"], thread_settings(),
            )
        for p, data in zip(model.params, resumed):
            p.data = data
        logger.info("resuming at epoch %d, step %d", state["next_epoch"], global_step)
    # the step to stop at; a resume already past it trains nothing
    cap = math.inf if config.iterations is None else config.iterations
    total = max(global_step, min(config.epochs * steps_per_epoch, cap))

    losses: list[float] = []
    while True:
        # one pass per epoch: the rest of the current epoch up to the stop point
        epoch, done = divmod(global_step, steps_per_epoch)
        batches = epoch_batches(len(corpus), config.batch_size, seed, epoch)
        for batch_idx, pick, drop_rng in itertools.islice(batches, done, total - epoch * steps_per_epoch):
            ids, mask = encode_batch([corpus[i] for i in pick], vocab, max_len)
            mask_rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(1, epoch, batch_idx))
            )
            batch = mask_for_mlm(ids, mask, mask_rate, mask_rng, config.vocab_size)
            masked = forward(model, batch.input_ids, batch.attention_mask, drop_rng,
                             positions=masked_positions(batch.labels))
            global_step += 1
            losses.append(train_step(mlm_loss(model, masked, batch.labels), model.params, optimizer,
                                     epoch, global_step))
            if global_step % log_every == 0:
                logger.info("step %d: mlm loss %.4f", global_step, losses[-1])
        save_checkpoint(
            checkpoint_dir,
            model,
            optimizer,
            {
                "next_epoch": global_step // steps_per_epoch,
                "global_step": global_step,
                "seed": seed,
                "corpus_sha256": corpus_sha256,
            },
        )
        if global_step >= total:
            return PretrainResult(losses=losses, steps=global_step, checkpoint_dir=checkpoint_dir)
