"""BERT-style transformer encoder with masked-language-model pretraining.

Single-segment inputs only (the segment table exists for format
compatibility and is always indexed with zeros). The MLM output projection
is tied to the token embedding table. Pretraining honors both an epoch count
and an optional iteration cap, whichever is reached first.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, backward, truncated_normal
from .checkpoint import atomic_write_json, read_blob, write_blob
from .optim import AdamState, adam_step
# ``encode`` is unused here, but the traced benchmark patches ``bert.encode`` by name
from .wordpiece import CLS, MASK, PAD, SEP, Vocab, encode, encode_batch  # noqa: F401

logger = logging.getLogger(__name__)

IGNORE_INDEX = -100
INIT_STD = 0.02
N_RESERVED_IDS = 5  # PAD, UNK, CLS, SEP, MASK

# Aliases as the pretraining config tables spell them
_CONFIG_ALIASES = {"Itrations": "iterations", "batch_szie": "batch_size"}


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
        positives = {
            "hidden_size": self.hidden_size,
            "num_hidden_layers": self.num_hidden_layers,
            "num_attention_heads": self.num_attention_heads,
            "vocab_size": self.vocab_size,
            "max_position": self.max_position,
            "intermediate_size": self.intermediate_size,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
        }
        for field_name, value in positives.items():
            if value <= 0:
                raise ValueError(f"{field_name} must be positive, got {value}")
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
    def from_dict(cls, raw: dict) -> "BertConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        cleaned: dict = {}
        for key, value in raw.items():
            if key == "GPU":
                logger.warning("config field 'GPU' is parsed but ignored: CPU execution only")
                continue
            name = _CONFIG_ALIASES.get(key, key)
            if name not in known:
                raise ValueError(f"unknown config key {key!r}")
            if name in cleaned and cleaned[name] != value:
                raise ValueError(f"conflicting values for config key {name!r}")
            cleaned[name] = value
        missing = [
            k
            for k in ("hidden_size", "num_hidden_layers", "num_attention_heads", "vocab_size")
            if k not in cleaned
        ]
        if missing:
            raise ValueError(f"missing required config keys: {', '.join(missing)}")
        return cls(**cleaned)


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


class ModelParams:
    """Named parameter tensors of one encoder, in fixed allocation order."""

    def __init__(self, config: BertConfig, params: list[Parameter]):
        self.config = config
        self.params = params
        self.by_name = {p.name: p for p in params}
        if len(self.by_name) != len(params):
            raise ValueError("duplicate parameter names")

    def __getitem__(self, name: str) -> Parameter:
        return self.by_name[name]

    def n_values(self) -> int:
        return sum(p.data.size for p in self.params)


def build_model(config: BertConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Allocate and initialize all tensors; deterministic for a given seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params: list[Parameter] = []
    for name, shape in expected_shapes(config).items():
        if name.endswith(".norm.gain"):
            data = np.ones(shape, dtype=dtype)
        elif (
            name.endswith(".bias")
            or name.endswith(".norm.bias")
            or name.endswith(".b1")
            or name.endswith(".b2")
            or name == "mlm.out_bias"
        ):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = truncated_normal(shape, INIT_STD, rng, dtype=dtype)
        params.append(Parameter(name, data))
    return ModelParams(config, params)


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
    train: bool = False,
    dropout_rng: np.random.Generator | None = None,
    attn_sink: list | None = None,
) -> tuple[Tensor, Tensor]:
    """Encode a batch: returns (sequence states B x T x H, CLS state B x H).

    Padded keys receive a large negative additive term before softmax, so
    their attention weight is zero from every query. When ``attn_sink`` is a
    list, each layer's attention probabilities (B x A x T x T) are appended.
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
        raise ValueError(
            f"token id {int(input_ids.max())} out of range for vocab_size {config.vocab_size}"
        )
    rate = config.dropout_rate

    tok = ad.embedding_lookup(model["embeddings.token"], input_ids)
    pos = ad.narrow(model["embeddings.position"], 0, 0, seq_len)
    seg = ad.embedding_lookup(
        model["embeddings.segment"], np.zeros_like(input_ids)
    )
    x = ad.add(ad.add(tok, pos), seg)
    x = ad.layer_norm(x, model["embeddings.norm.gain"], model["embeddings.norm.bias"])
    x = ad.dropout(x, rate, dropout_rng, train)

    heads = config.num_attention_heads
    head_dim = config.hidden_size // heads
    neg = np.asarray(
        (1.0 - attention_mask)[:, None, None, :] * -1e9, dtype=x.dtype
    )
    mask_add = Tensor(neg)

    for layer in range(config.num_hidden_layers):
        prefix = f"layer{layer}"

        def proj(name, inp):
            w = model[f"{prefix}.attn.{name}.weight"]
            b = model[f"{prefix}.attn.{name}.bias"]
            out = ad.matmul(inp, w, b)
            out = ad.reshape(out, (batch, seq_len, heads, head_dim))
            return ad.transpose(out, (0, 2, 1, 3))

        # q is scaled by 1/sqrt(head_dim) before the product, and the padding
        # mask is added into the product, so the B x A x T x T scores are
        # written once
        q = ad.scale(proj("q", x), 1.0 / math.sqrt(head_dim))
        k = proj("k", x)
        v = proj("v", x)
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)), mask_add)
        probs = ad.softmax(scores)
        if attn_sink is not None:
            attn_sink.append(probs.data)
        probs = ad.dropout(probs, rate, dropout_rng, train)
        ctx = ad.matmul(probs, v)
        ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (batch, seq_len, config.hidden_size))
        attn_out = ad.matmul(
            ctx, model[f"{prefix}.attn.o.weight"], model[f"{prefix}.attn.o.bias"]
        )
        attn_out = ad.dropout(attn_out, rate, dropout_rng, train)
        x = ad.layer_norm(
            ad.add(x, attn_out),
            model[f"{prefix}.attn.norm.gain"],
            model[f"{prefix}.attn.norm.bias"],
        )
        hidden = ad.gelu(ad.matmul(x, model[f"{prefix}.ffn.w1"], model[f"{prefix}.ffn.b1"]))
        ffn_out = ad.matmul(hidden, model[f"{prefix}.ffn.w2"], model[f"{prefix}.ffn.b2"])
        ffn_out = ad.dropout(ffn_out, rate, dropout_rng, train)
        x = ad.layer_norm(
            ad.add(x, ffn_out),
            model[f"{prefix}.ffn.norm.gain"],
            model[f"{prefix}.ffn.norm.bias"],
        )

    cls_state = ad.reshape(ad.narrow(x, 1, 0, 1), (batch, config.hidden_size))
    return x, cls_state


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
    logits = ad.matmul(
        flat, ad.transpose(model["embeddings.token"], (1, 0)), model["mlm.out_bias"]
    )
    return ad.reshape(logits, (batch, seq_len, model.config.vocab_size))


def mlm_loss(model: ModelParams, sequence_states: Tensor, labels: np.ndarray) -> Tensor:
    """Mean MLM cross-entropy over the positions whose label is not IGNORE_INDEX.

    Those rows are gathered from the (B*T, H) states before the head, as
    BERT's ``masked_lm_positions`` does, so the H x V logit GEMM skips every
    unmasked position. Equals ``cross_entropy(mlm_logits(model, states),
    labels)``; 0 with zero gradients when nothing is masked.
    """
    labels = np.asarray(labels).reshape(-1)
    rows = np.flatnonzero(labels != IGNORE_INDEX)[None, :]
    flat = ad.reshape(sequence_states, (labels.size, sequence_states.shape[-1]))
    masked = ad.embedding_lookup(flat, rows)
    return ad.cross_entropy(mlm_logits(model, masked), labels[rows])


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
    os.makedirs(directory, exist_ok=True)
    atomic_write_json(os.path.join(directory, "config.json"), model.config.to_dict())
    write_blob(
        [(p.name, p.data) for p in model.params],
        os.path.join(directory, "params.bin"),
        os.path.join(directory, "manifest.json"),
    )
    if optimizer is not None:
        arrays = [(f"m.{p.name}", optimizer.m[p.name]) for p in model.params if p.name in optimizer.m]
        arrays += [(f"v.{p.name}", optimizer.v[p.name]) for p in model.params if p.name in optimizer.v]
        write_blob(
            arrays,
            os.path.join(directory, "optim.bin"),
            os.path.join(directory, "optim_manifest.json"),
        )
        state = dict(train_state or {})
        state["adam"] = {
            "lr": optimizer.lr,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "step_count": optimizer.step_count,
        }
        state["threads"] = thread_settings()
        atomic_write_json(os.path.join(directory, "state.json"), state)


def load_checkpoint(directory: str) -> tuple[ModelParams, BertConfig]:
    """Load a checkpoint, validating every tensor shape against its config."""
    with open(os.path.join(directory, "config.json"), encoding="utf-8") as fh:
        config = BertConfig.from_dict(json.load(fh))
    arrays = read_blob(
        os.path.join(directory, "params.bin"), os.path.join(directory, "manifest.json")
    )
    shapes = expected_shapes(config)
    missing = sorted(set(shapes) - set(arrays))
    if missing:
        raise ValueError(f"checkpoint missing tensor {missing[0]!r}")
    extra = sorted(set(arrays) - set(shapes))
    if extra:
        raise ValueError(f"checkpoint has unexpected tensor {extra[0]!r}")
    params = []
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(
                f"tensor {name!r} has shape {arrays[name].shape}, config requires {shape}"
            )
        params.append(Parameter(name, arrays[name]))
    return ModelParams(config, params), config


def _load_train_state(directory: str, model: ModelParams) -> tuple[AdamState, dict]:
    with open(os.path.join(directory, "state.json"), encoding="utf-8") as fh:
        state = json.load(fh)
    adam_meta = state["adam"]
    optimizer = AdamState(
        lr=adam_meta["lr"],
        beta1=adam_meta["beta1"],
        beta2=adam_meta["beta2"],
        eps=adam_meta["eps"],
        step_count=adam_meta["step_count"],
    )
    arrays = read_blob(
        os.path.join(directory, "optim.bin"), os.path.join(directory, "optim_manifest.json")
    )
    for p in model.params:
        if f"m.{p.name}" in arrays:
            optimizer.m[p.name] = arrays[f"m.{p.name}"]
            optimizer.v[p.name] = arrays[f"v.{p.name}"]
    return optimizer, state


def epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    """Yield ``(batch_idx, pick, dropout_rng)`` for one epoch over ``n`` rows.

    ``batch_idx`` is the offset of the batch in the epoch's permutation and
    ``pick`` the row indices it holds. The permutation derives from
    ``(seed, epoch)`` and the dropout stream from ``(seed, epoch,
    batch_idx)``, so a resumed run draws exactly the streams of the
    uninterrupted one.
    """
    order = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0, epoch))
    ).permutation(n)
    for batch_idx in range(0, n, batch_size):
        drop_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(2, epoch, batch_idx))
        )
        yield batch_idx, order[batch_idx : batch_idx + batch_size], drop_rng


def finite_loss(loss: Tensor, epoch: int, step: int) -> float:
    """The loss value; a NaN or infinite loss stops training with a ValueError."""
    value = loss.item()
    if not math.isfinite(value):
        raise ValueError(f"non-finite training loss {value} at epoch {epoch}, step {step}")
    return value


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
    lr: float = 1e-4,
    mask_rate: float = 0.15,
    log_every: int = 50,
    resume: bool = False,
) -> PretrainResult:
    """Minimize MLM cross-entropy with Adam over the corpus.

    Stops at ``config.epochs`` or ``config.iterations`` steps, whichever
    comes first. Checkpoints (with optimizer state) are written at every
    epoch boundary and at the final step; masking, shuffling, and dropout
    streams derive from (seed, epoch, batch), so resuming from a checkpoint
    reproduces the uninterrupted run exactly.
    """
    if not corpus:
        raise ValueError("cannot pretrain on an empty corpus")
    if len(vocab) != config.vocab_size:
        logger.warning(
            "vocab has %d pieces but config.vocab_size is %d; ids must stay in range",
            len(vocab),
            config.vocab_size,
        )
    parent = os.path.dirname(os.path.abspath(checkpoint_dir)) or "."
    if not os.access(parent, os.W_OK):
        raise ValueError(f"checkpoint directory {checkpoint_dir} is not writable")
    max_len = min(max_len, config.max_position)

    start_epoch = 0
    global_step = 0
    optimizer = AdamState(lr=lr)
    if resume and os.path.exists(os.path.join(checkpoint_dir, "state.json")):
        loaded, loaded_config = load_checkpoint(checkpoint_dir)
        # schedule fields (epochs, iterations) may grow on resume; the
        # architecture may not change
        for arch_field in (
            "hidden_size",
            "num_hidden_layers",
            "num_attention_heads",
            "vocab_size",
            "max_position",
            "intermediate_size",
        ):
            if getattr(loaded_config, arch_field) != getattr(config, arch_field):
                raise ValueError(
                    f"checkpoint {arch_field}={getattr(loaded_config, arch_field)} does not "
                    f"match requested {getattr(config, arch_field)}"
                )
        for p, lp in zip(model.params, loaded.params):
            p.data = lp.data
        optimizer, state = _load_train_state(checkpoint_dir, model)
        start_epoch = state.get("next_epoch", 0)
        global_step = state.get("global_step", 0)
        logger.info("resuming at epoch %d, step %d", start_epoch, global_step)

    all_ids, all_masks = encode_batch(corpus, vocab, max_len)

    losses: list[float] = []
    cap = config.iterations
    stopped = cap is not None and global_step >= cap
    epoch = start_epoch
    wrote_checkpoint = False
    while epoch < config.epochs and not stopped:
        for batch_idx, pick, drop_rng in epoch_batches(
            len(corpus), config.batch_size, seed, epoch
        ):
            if cap is not None and global_step >= cap:
                stopped = True
                break
            ids = all_ids[pick]
            mask = all_masks[pick]
            width = max(int(mask.sum(axis=1).max()), 3)
            ids, mask = ids[:, :width], mask[:, :width]
            mask_rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(1, epoch, batch_idx))
            )
            batch = mask_for_mlm(ids, mask, mask_rate, mask_rng, config.vocab_size)
            seq, _ = forward(
                model, batch.input_ids, batch.attention_mask, train=True, dropout_rng=drop_rng
            )
            loss = mlm_loss(model, seq, batch.labels)
            global_step += 1
            losses.append(finite_loss(loss, epoch, global_step))
            backward(loss)
            adam_step(model.params, optimizer)
            if global_step % log_every == 0:
                logger.info("step %d: mlm loss %.4f", global_step, losses[-1])
        if not stopped:
            epoch += 1
            save_checkpoint(
                checkpoint_dir,
                model,
                optimizer,
                {"next_epoch": epoch, "global_step": global_step, "seed": seed},
            )
            wrote_checkpoint = True
    if stopped or not wrote_checkpoint:
        # cap hit mid-epoch (resuming replays the epoch, and the cap keeps the
        # step count consistent) or nothing trained at all
        save_checkpoint(
            checkpoint_dir,
            model,
            optimizer,
            {"next_epoch": epoch, "global_step": global_step, "seed": seed},
        )
    return PretrainResult(losses=losses, steps=global_step, checkpoint_dir=checkpoint_dir)
